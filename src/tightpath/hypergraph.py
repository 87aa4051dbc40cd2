"""Two interchangeable edge oracles for the binomial random hypergraph.

ExplicitHypergraph stores the full edge set as one sorted (m, k) int64 row
array and builds its frozenset of tuples, for membership tests, only on first
use. LazyHypergraph answers "is this k-set an edge" by flipping a
keyed coin on first query, realizing H^k(n,p) under the search's guarantee
that no k-set is queried twice. Both use the same coin function, so a run on
either backend with equal seeds sees identical edges.

select_subsets is the one walk that hashes every m-subset of [n] and keeps
those whose hash passes a test: generate_explicit keeps the k-sets whose coin
lands, and the search's neutral j-set stream one hash band. It walks the
runs of Candidates((), range(n), m), so its memory beyond the kept rows is
the C(n-1, m-1) prefix states and run ends and a few BLOCK-row slices.

Also provides a rank-sampling generator for instances whose k-set space is
too large to enumerate but whose edge list is small (sparse subcritical
measurements); its instances are not coin-compatible with the lazy backend.
And it provides Candidates, the k-sets J u X a search step queries from one
j-set J, laid out so that their coins and priorities hash shared prefixes
once and the rows under each prefix in cache-sized slices; the lazy backend's
bulk_query takes one and keeps only the coin mask.
"""

from __future__ import annotations

import contextlib
import math
import operator
from bisect import bisect_right
from collections import abc
from functools import cached_property, lru_cache, partial
from itertools import accumulate, product
from typing import Iterable, Sequence

import numpy as np

from ._rng import (
    BLOCK, MASK64, _mix64_inplace, chain64, chain64_np, check_probability, coin_mask_np,
    coin_threshold, derive_key, mix64,
)

ENUMERATION_BUDGET = 10**8
MATERIALIZE_CAP = 5 * 10**7  # most edges sample_explicit will draw


class EnumerationBudgetError(ValueError):
    """The k-set space is too large to enumerate; use the lazy backend."""


def canonical_kset(vertices: Iterable[int]) -> tuple[int, ...]:
    vs = tuple(vertices)
    if any(vs[i] >= vs[i + 1] for i in range(len(vs) - 1)):
        raise ValueError(f"vertex set must be strictly increasing: {vs}")
    return vs


def _check_canonical(K: Sequence[int], k: int, n: int) -> None:
    if len(K) == k and 0 <= K[0] and K[-1] < n and all(map(operator.lt, K, K[1:])):
        return  # one expression on the hot path; the messages below say what failed
    if len(K) != k:
        raise ValueError(f"expected a {k}-set, got {len(K)} vertices")
    if K[0] < 0 or K[-1] >= n:
        raise ValueError(f"vertices out of range [0, {n}): {K}")
    raise ValueError(f"vertex set must be strictly increasing: {K}")


def unrank_colex(ranks: np.ndarray, m: int, n: int) -> np.ndarray:
    """Map colex ranks to sorted m-sets over [0, n); returns shape (len, m).

    The m-set {c_1 < ... < c_m} has colex rank sum_i C(c_i, i).
    """
    rem = np.asarray(ranks, dtype=np.int64).copy()
    cols = np.empty((rem.shape[0], m), dtype=np.int64)
    for i in range(m, 0, -1):
        table = np.array([math.comb(c, i) for c in range(n + 1)], dtype=np.int64)  # C(c, i)
        c = np.searchsorted(table, rem, side="right") - 1
        cols[:, i - 1] = c
        rem -= table[c]
    return cols


def pack_rows(cols: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Base-n int64 key of each row of the vertex columns ``cols`` over [0, n)."""
    if n ** len(cols) > 2**63:
        raise OverflowError(f"{len(cols)} columns over [0, {n}) do not pack into int64")
    key = cols[0].astype(np.int64, copy=True)
    for c in cols[1:]:
        key *= n
        key += c
    return key


def _run_lens(m: int, r: int) -> list[int]:
    """Rows of the r-subsets of m increasing values that start at value b,
    for b = 0, 1, ...: C(m-1-b, r-1)."""
    q = np.arange(m - 1, r - 2, -1, dtype=np.int64)
    lens = np.ones_like(q)
    for i in range(r - 1):  # C(q, i+1) = C(q, i) (q-i) / (i+1), exactly
        lens = lens * (q - i) // (i + 1)
    return lens.tolist()


def _unrank_lex(m: int, r: int, i: int) -> list[int]:
    """Positions in range(m) of the i-th r-subset of range(m), lexicographic.
    Its mirror image {m-1-b} has colex rank C(m, r)-1-i, unranked greedily."""
    rank, out = math.comb(m, r) - 1 - i, []
    for q in range(r, 0, -1):  # C(v, 1) = v
        v = rank if q == 1 else bisect_right(range(m), rank, key=lambda v: math.comb(v, q)) - 1
        rank -= math.comb(v, q)
        out.append(m - 1 - v)
    return out


def subset_cols(xs: np.ndarray, d: int) -> list[np.ndarray]:
    """The d-subsets of the increasing array xs as d columns of xs's dtype,
    rows in lexicographic order."""
    cols = [xs]
    for r in range(2, d + 1):
        # An r-subset is xs[b] followed by an (r-1)-subset of xs[b+1:], and
        # those form the last C(m-1-b, r-1) rows of the (r-1)-subset table.
        lens = _run_lens(xs.size, r)
        nxt = [np.repeat(xs[: len(lens)], lens)]
        nxt += [np.empty(nxt[0].size, dtype=xs.dtype) for _ in cols]
        lo = 0
        for size in lens:
            for dst, src in zip(nxt[1:], cols):
                dst[lo : lo + size] = src[src.size - size :]
            lo += size
        cols = nxt
    return cols


def _run_slices(pre: np.ndarray, ends: np.ndarray, size: int):
    """(first row, states, positions) per slice of BLOCK rows of the runs
    pre[p] x the last ends[p] - ends[p-1] rows of a size-row table, ends the
    runs' cumulative lengths; a run may cross slices. Row r of run p is the
    table's row r + size - ends[p], so a slice repeats its runs' states over
    their rows and lists those positions."""
    nrows = int(ends[-1])
    ar = np.arange(size, size + min(BLOCK, nrows))
    for r0 in range(0, nrows, BLOCK):
        r1 = min(r0 + BLOCK, nrows)
        p0, p1 = np.searchsorted(ends, [r0, r1 - 1], side="right").tolist()
        lens = np.diff(np.minimum(ends[p0 : p1 + 1], r1), prepend=r0)
        pos = np.repeat(r0 - ends[p0 : p1 + 1], lens)
        pos += ar[: r1 - r0]
        yield r0, np.repeat(pre[p0 : p1 + 1], lens), pos


def select_subsets(key: int, n: int, m: int, keep) -> tuple[np.ndarray, np.ndarray]:
    """(h, rows) of the m-subsets J of range(n) whose h = chain64(key, J)
    passes ``keep``, a map from a uint64 hash array to a bool mask; rows is
    an (len, m) int64 array in lexicographic order, h its hashes.

    The walk hashes every m-subset in lexicographic order. With m >= 2 those
    rows are the runs of ``Candidates((), range(n), m)``: each (m-1)-vertex
    prefix, hashed once, followed by every later vertex. A slice of BLOCK
    rows hashes that last vertex against its runs' repeated prefix states.
    Only the kept rows are built, unranked from their lexicographic index i:
    the mirror image {n-1-v} of row i has colex rank C(n, m)-1-i.
    """
    if m == 1:
        h = chain64_np(key, [np.arange(n)])
        idx = np.flatnonzero(keep(h))
        return h[idx], idx[:, None]
    pre, _, starts = Candidates((), np.arange(n, dtype=np.int32), m)._runs(key, (m,))
    ends = np.cumsum(np.subtract(n, starts, out=starts), out=starts)  # run p: starts[p] .. n-1
    kept = []
    for first, states, last in _run_slices(pre, ends, n):  # positions in range(n) are vertices
        h = chain64_np(states, [last])
        sel = np.flatnonzero(keep(h))
        kept.append((h[sel], first + sel))
    h, idx = map(np.concatenate, zip(*kept))
    return h, n - 1 - unrank_colex(math.comb(n, m) - 1 - idx, m, n)[:, ::-1]


@lru_cache(maxsize=None)
def _compositions(d: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """The compositions of d into parts non-negative parts, reverse lexicographic."""
    return tuple(c for c in product(range(d, -1, -1), repeat=parts) if sum(c) == d)


def _whole_runs(pre: np.ndarray, g: np.ndarray, dst: np.ndarray):
    """(slice of dst, states, values) per slice of about BLOCK rows of the
    runs states[p] x G, g the gap's values plus one: a 2-D broadcast of the
    states against g. A slice holds whole runs unless one is longer than BLOCK."""
    rows = dst.reshape(pre.size, g.size)
    pstep, xstep = max(1, BLOCK // g.size), min(g.size, BLOCK)
    for p in range(0, pre.size, pstep):
        for x in range(0, g.size, xstep):
            yield rows[p : p + pstep, x : x + xstep], pre[p : p + pstep, None], g[None, x : x + xstep]


def _ragged_runs(pre: np.ndarray, g: np.ndarray, starts: np.ndarray, dst: np.ndarray,
                 tmp: np.ndarray):
    """(slice of dst, states, values) per slice of BLOCK rows of the runs
    states[p] x G[starts[p]:], g the gap's values plus one; a run may cross
    slices. A slice's values are gathered from g into tmp."""
    for r0, states, pos in _run_slices(pre, np.cumsum(g.size - starts), g.size):
        # take into a given array, unlike g[pos], allocates nothing
        yield dst[r0 : r0 + pos.size], states, np.take(g, pos, out=tmp[: pos.size], mode="clip")


class Candidates(abc.Sequence):
    """Every K = sorted(J u X) for a j-set J and X over the d-subsets of the
    increasing free vertices xs (d >= 1, xs disjoint from J), in blocks.

    J's vertices u_1 < ... < u_j cut xs into gaps G_0 .. G_j. A block is one
    composition (c_0, ..., c_j) of d, in reverse lexicographic order; its
    rows are the product of the lexicographic c_t-subsets of each G_t, G_0
    outermost, so J's vertices sit at fixed positions of its K. With d = 1
    the blocks are the gaps, so the rows are xs in order.

    As a sequence it is K's k columns, of xs's dtype, in block order, each
    built on first use; ``xcols()`` lists X's d columns, built the same way,
    and ``row(i)`` one row's K, unranked arithmetically from i.
    ``kept_hash(key)`` is ``hash(key)``, likewise built once and kept.

    ``hash(key)`` is chain64(key, K) of every row, bit for bit, without
    building K. With d = 1 it is one pass over xs. With d >= 2, a block's
    rows are runs: every row of a run shares K up to its last X vertex,
    which takes the values of a suffix of one gap G_t, and then J's
    vertices after G_t. A block's run prefix states are hashed whole in one
    pass: an outer product with one axis per gap table and J's vertices
    between gaps as scalars. Only a gap that holds two or more prefix
    vertices builds a subset table. The rows are then hashed in slices of
    about ``BLOCK``, straight into the output: a 2-D broadcast
    of states against G_t where each run takes all of it, a repeat of the
    states and a gather from G_t where the runs are ragged. ``hash(key,
    keep)`` applies keep to each slice and stores only the mask, one byte
    per row; the lazy backend's coins use it.
    """

    def __init__(self, J: Sequence[int], xs: np.ndarray, d: int):
        self.J = tuple(map(int, J))
        self.xs, self.d, self.k = xs, d, len(self.J) + d
        bounds = [0, *np.searchsorted(xs, np.array(self.J, dtype=xs.dtype)).tolist(), xs.size]
        self.gaps = [xs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        self.blocks = []  # (composition, first row, table size of each gap)
        self.nrows = 0
        for c in _compositions(d, len(self.gaps)):
            sizes = [math.comb(g.size, ct) for g, ct in zip(self.gaps, c)]
            if math.prod(sizes):
                self.blocks.append((c, self.nrows, sizes))
                self.nrows += math.prod(sizes)
        self._starts = [lo for _, lo, _ in self.blocks]
        self._tables: dict = {}
        self._layouts: dict = {}
        self._cols: dict = {}
        self._hashes: dict = {}

    def _table(self, t: int, c: int) -> list[np.ndarray]:
        if (t, c) not in self._tables:
            self._tables[t, c] = subset_cols(self.gaps[t], c)
        return self._tables[t, c]

    def _layout(self, c) -> list:
        """K's positions in block c: a vertex of J, or (t, column of G_t's table)."""
        if c not in self._layouts:
            ent = []
            for t, ct in enumerate(c):
                ent += [(t, col) for col in (self._table(t, ct) if ct else ())] + list(self.J[t : t + 1])
            self._layouts[c] = ent
        return self._layouts[c]

    def _column(self, x: bool, i: int) -> np.ndarray:
        """Column i of X (x true) or of K, in block order."""
        out = np.empty(self.nrows, dtype=self.xs.dtype)
        for c, lo, sizes in self.blocks:
            ent = self._layout(c)
            e = [e for e in ent if isinstance(e, tuple)][i] if x else ent[i]
            part = out[lo : lo + math.prod(sizes)]
            if isinstance(e, tuple):  # broadcast along the gap's axis of the block
                t, col = e
                part.reshape(sizes)[...] = col.reshape([-1 if a == t else 1 for a in range(len(sizes))])
            else:
                part[:] = e
        return out

    def _cached(self, x: bool, i):
        n = self.d if x else self.k
        if isinstance(i, slice):
            return [self._cached(x, q) for q in range(n)[i]]
        i = range(n)[i]
        if (x, i) not in self._cols:
            self._cols[x, i] = self._column(x, i)
        return self._cols[x, i]

    def __len__(self) -> int:
        return self.k

    def __getitem__(self, i):
        return self._cached(False, i)

    def xcols(self) -> list[np.ndarray]:
        return self._cached(True, slice(None))

    def row(self, i: int) -> tuple:
        """Row i's K, unranked arithmetically: no gap table is built."""
        c, lo, sizes = self.blocks[bisect_right(self._starts, i) - 1]
        idx, r = [0] * len(sizes), i - lo
        for t in reversed(range(len(sizes))):
            r, idx[t] = divmod(r, sizes[t])
        K = []
        for t, (g, ct) in enumerate(zip(self.gaps, c)):
            K += [int(g[b]) for b in _unrank_lex(g.size, ct, idx[t])] if ct else ()
            K += self.J[t : t + 1]
        return tuple(K)

    def hash(self, key: int, keep=None) -> np.ndarray:
        """chain64(key, K) of every row. Given ``keep``, a map from a uint64
        array to a bool mask of its shape, it returns keep of those hashes
        instead, applied slice by slice, so that only the mask is stored."""
        key = int(key) & MASK64
        if self.d == 1:
            # One pass over xs, each row keyed by its gap's prefix state, then
            # u_t absorbed into the rows below it: rows of gap t take u_t+1 .. u_j.
            pre = accumulate(self.J, lambda s, u: mix64(s ^ (u + 1)), initial=key)
            h = chain64_np(np.repeat(np.fromiter(pre, np.uint64), [g.size for g in self.gaps]),
                           [self.xs])
            tmp = np.empty_like(h)
            for u, below in zip(self.J, accumulate(g.size for g in self.gaps)):
                h[:below] ^= np.uint64(u + 1)
                _mix64_inplace(h[:below], tmp[:below])
            return h if keep is None else keep(h)
        out = np.empty(self.nrows, dtype=np.uint64 if keep is None else bool)
        tmp = np.empty(min(BLOCK, self.nrows), dtype=np.uint64)  # mix64 scratch
        buf = None if keep is None else np.empty_like(tmp)  # a slice's hashes, for keep
        for c, lo, sizes in self.blocks:
            pre, t, starts = self._runs(key, c)
            g = np.add(self.gaps[t], 1, dtype=np.uint64, casting="unsafe")  # x + 1 per x
            us = [np.uint64(u + 1) for u in self.J[t:]]
            dst = out[lo : lo + math.prod(sizes)]
            for part, states, xs1 in (_whole_runs(pre, g, dst) if starts is None
                                      else _ragged_runs(pre, g, starts, dst, tmp)):
                h = part if keep is None else buf[: part.size].reshape(part.shape)
                tb = tmp[: part.size].reshape(part.shape)
                np.bitwise_xor(states, xs1, out=h)
                _mix64_inplace(h, tb)
                for u in us:
                    h ^= u
                    _mix64_inplace(h, tb)
                if keep is not None:
                    part[...] = keep(h)
        return out

    def kept_hash(self, key: int) -> np.ndarray:
        """hash(key), built on first use and kept, like the columns."""
        if key not in self._hashes:
            self._hashes[key] = self.hash(key)
        return self._hashes[key]

    def _runs(self, key: int, c) -> tuple:
        """Block c's rows as runs (states, t, starts): G_t is the last gap
        holding an X vertex, and run p is the rows whose K up to its last X
        vertex hashes to states[p]. That vertex takes the values G_t[starts[p]:]
        in turn, all of G_t when starts is None, and J's vertices after G_t
        follow it. The states, in row order, are one hash of the block's rows
        with G_t's table cut to its first c_t - 1 columns over G_t[:-1]."""
        ts = [t for t, ct in enumerate(c) if ct]
        last, vals = ts[-1], list(self.J[: ts[0]])
        ndim = len(ts) - (c[last] == 1)  # a last gap of one X vertex adds no axis
        for a, (t, nxt) in enumerate(zip(ts, ts[1:] + [len(c)])):
            g, ct, us = self.gaps[t], c[t], self.J[t:nxt]
            if t == last:  # every X vertex of G_t but the last, which has one after it
                g, ct, us = g[:-1], ct - 1, ()
            if ct:
                tab = [g] if ct == 1 else subset_cols(g, ct)  # one column is the gap itself
                vals += [col.reshape([-1 if b == a else 1 for b in range(ndim)]) for col in tab]
            vals += us
        pre = chain64_np(key, vals).ravel()
        if c[last] == 1:  # the last X vertex takes all of G_t in every run
            return pre, last, None
        vals, tab = None, tab[-1]  # free the other columns before starts is built
        starts = np.searchsorted(self.gaps[last], tab, side="right")  # past each prefix
        reps = pre.size // starts.size
        return pre, last, starts if reps == 1 else np.tile(starts, reps)  # tile copies even once


class ExplicitHypergraph:
    """Immutable stored k-uniform hypergraph on [0, n).

    The storage is one (m, k) int64 array of distinct edges in lexicographic
    row order; code that walks the edges reads that order. ``edges``, the
    frozenset of vertex tuples that ``query_edge`` tests membership in, is
    built from it on first use, and no reader depends on its iteration order.
    """

    def __init__(self, n: int, k: int, edges: Iterable[Sequence[int]]):
        if not 2 <= k <= n:
            raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
        self.n = n
        self.k = k
        edges = edges if isinstance(edges, np.ndarray) else list(edges)
        rows = np.empty((0, k), dtype=np.int64)
        with contextlib.suppress(ValueError, OverflowError):  # ragged, or beyond int64
            rows = np.array(edges, dtype=np.int64) if len(edges) else rows
        if rows.shape != (len(edges), k) or len(rows) and (
            rows[:, 0].min() < 0 or rows[:, -1].max() >= n or (rows[:, 1:] <= rows[:, :-1]).any()
        ):  # report the first bad edge as the per-edge checks do
            for e in edges.tolist() if isinstance(edges, np.ndarray) else edges:
                _check_canonical(canonical_kset(e), k, n)
        rows = rows[np.lexsort(rows.T[::-1])]  # lexsort's last key is its primary one
        self._rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]] if len(rows) else rows

    @cached_property
    def edges(self) -> frozenset:
        return frozenset(map(tuple, self._rows.tolist()))

    @cached_property
    def _packed(self) -> np.ndarray:
        """Base-n keys of the rows, sorted because the rows are."""
        return pack_rows(list(self._rows.T), self.n)

    def query_edge(self, K: Sequence[int]) -> bool:
        _check_canonical(K, self.k, self.n)
        return tuple(K) in self.edges

    @property
    def edge_count(self) -> int:
        return len(self._rows)

    def edge_array(self) -> np.ndarray:
        """Edges as a sorted (m, k) int64 array, lexicographic row order."""
        return self._rows.copy()

    def bulk_query(self, cols: Sequence[np.ndarray]) -> np.ndarray:
        """Membership mask for many canonical k-sets given as k columns: a
        list of arrays, or a Candidates, whose K columns are built here."""
        if self.n**self.k > 2**63:  # rows do not pack into int64 keys
            ks = zip(*(np.asarray(c).tolist() for c in cols))
            return np.array([K in self.edges for K in ks], dtype=bool)
        keys = pack_rows(cols, self.n)
        if len(self._packed) == 0:
            return np.zeros(keys.shape, dtype=bool)
        idx = np.minimum(np.searchsorted(self._packed, keys), len(self._packed) - 1)
        return self._packed[idx] == keys

    def relabeled(self, perm: Sequence[int]) -> "ExplicitHypergraph":
        return ExplicitHypergraph(self.n, self.k, np.sort(np.asarray(perm)[self._rows], axis=1))

    def write_text(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.n} {self.k}\n")
            fh.writelines(" ".join(map(str, e)) + "\n" for e in self._rows.tolist())

    @classmethod
    def read_text(cls, path: str) -> "ExplicitHypergraph":
        with open(path) as fh:
            n, k = map(int, fh.readline().split())
            edges = [tuple(map(int, line.split())) for line in fh if line.strip()]
        return cls(n, k, edges)


class LazyHypergraph:
    """Deferred-decision H^k(n,p): each k-set's coin is flipped on first query.

    The coin for K is chain-hash(edge key, K) compared against the threshold
    for p, so outcomes of distinct k-sets are independent Bernoulli(p) for
    practical purposes and identical to generate_explicit with the same seed.
    Nothing is stored: a repeated query re-flips the same coin, and a checked
    search keeps its own ledger of the k-sets it queried.
    """

    def __init__(self, n: int, k: int, p: float, seed: int):
        if not 2 <= k <= n:
            raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
        self.n = n
        self.k = k
        self.p = p
        self.seed = seed
        self.edge_key = derive_key(seed, "edge-coin")
        self.threshold = coin_threshold(p)

    def query_edge(self, K: Sequence[int]) -> bool:
        _check_canonical(K, self.k, self.n)
        return chain64(self.edge_key, K) < self.threshold

    def bulk_query(self, cands: Candidates) -> np.ndarray:
        """Coin mask of every K of a Candidates, in its row order. The coins
        come from ``cands.hash`` and only their mask is kept, so neither K's
        columns nor a hash per row are stored."""
        return cands.hash(self.edge_key, keep=partial(coin_mask_np, threshold=self.threshold))


def generate_explicit(
    n: int, k: int, p: float, seed: int, budget: int = ENUMERATION_BUDGET
) -> ExplicitHypergraph:
    """Materialize H^k(n,p) by flipping LazyHypergraph's coin for every k-set.

    Refuses when C(n,k) exceeds the enumeration budget; large sparse
    instances should use LazyHypergraph or sample_explicit instead.
    """
    total = math.comb(n, k)
    if total > budget:
        raise EnumerationBudgetError(
            f"C({n},{k}) = {total} exceeds the enumeration budget {budget}; "
            "use the lazy backend"
        )
    H = LazyHypergraph(n, k, p, seed)
    _, rows = select_subsets(H.edge_key, n, k, lambda h: coin_mask_np(h, H.threshold))
    return ExplicitHypergraph(n, k, rows)


@lru_cache(maxsize=8)
def _binom_window(N: int, p: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(lo, w, c) for Binomial(N, p), 0 < p < 1: the weights w of x = lo, lo+1, ...
    up to 20 sd (plus 20) either side of the mode, clipped to [0, N] and scaled
    so the mode's weight is 1, and their running sums c. The mass outside is
    below 1e-20 of the total.

    Raises before allocating when the whole window lies above MATERIALIZE_CAP.
    The arrays are read-only: the cache hands them to every caller.
    """
    mode = min(int((N + 1) * p), N)
    half = int(20 * math.sqrt(N * p * (1 - p))) + 20
    lo, hi = max(0, mode - half), min(N, mode + half)
    if lo > MATERIALIZE_CAP:
        raise ValueError(f"sampled edge count >= {lo} too large to materialize")
    odds = p / (1 - p)
    down = np.arange(mode - 1, lo - 1, -1, dtype=np.float64)  # pmf(x) / pmf(x + 1)
    up = np.arange(mode + 1, hi + 1, dtype=np.float64)  # pmf(x) / pmf(x - 1)
    w = np.concatenate([np.cumprod((down + 1) / (N - down) / odds)[::-1], [1.0],
                        np.cumprod((N + 1 - up) / up * odds)])
    c = np.cumsum(w)
    w.flags.writeable = c.flags.writeable = False
    return lo, w, c


def _binom_quantile(u: float, N: int, p: float) -> int:
    """The least x with CDF(x) >= u for Binomial(N, p), 0 < p < 1."""
    if u >= 1.0:
        return N
    lo, w, c = _binom_window(N, p)
    t = u * c[-1]
    i = int(np.searchsorted(c, t))  # least i with c[i] >= t
    if min(c[i] - t, t - (c[i - 1] if i else 0.0)) < 1e-9 * c[-1]:
        # Within cumsum's rounding of a step: settle on correctly rounded
        # partial sums, which are monotone in i.
        ws = w.tolist()
        t = u * math.fsum(ws)
        while i > 0 and math.fsum(ws[:i]) >= t:
            i -= 1
        while i < len(ws) - 1 and math.fsum(ws[:i + 1]) < t:
            i += 1
    return lo + i


def _sampled_edge_count(total: int, p: float, seed: int) -> int:
    """sample_explicit's Binomial(total, p) edge count for ``seed``."""
    if not 0.0 < p < 1.0:
        return round(p * total)
    u = (mix64(derive_key(seed, "edge-count")) + 0.5) / 2.0**64
    return _binom_quantile(u, total, p)


def sample_explicit(n: int, k: int, p: float, seed: int) -> ExplicitHypergraph:
    """Draw H^k(n,p) by sampling its edge count and then distinct edge ranks.

    Exact in distribution (binomial count, uniform distinct k-sets given the
    count) and deterministic in ``seed``, but not coin-compatible with the
    lazy backend. Intended for sparse instances where C(n,k) is unenumerable
    while p*C(n,k) is small.

    The count is the inverse CDF at u = (h + 1/2) / 2^64, h a keyed hash of
    ``seed``: the least x with P(Bin(C(n,k), p) <= x) >= u. The CDF is summed
    in float64 over pmf ratios in a window of 20 sd (plus 20) either side of
    the mode, with correctly rounded sums wherever u falls within 1e-9 of a
    step. Counts above MATERIALIZE_CAP raise ValueError.
    """
    check_probability(p)
    total = math.comb(n, k)
    if total >= 2**62:
        raise ValueError(f"C({n},{k}) too large to rank-sample")
    count = max(0, min(_sampled_edge_count(total, p, seed), total))
    if count > MATERIALIZE_CAP:
        raise ValueError(f"sampled edge count {count} too large to materialize")

    rank_key = derive_key(seed, "edge-ranks")
    chosen = np.empty(0, dtype=np.int64)
    cursor = 0
    while len(chosen) < count:
        need = max(count - len(chosen), 1024)
        idx = np.arange(cursor, cursor + 2 * need, dtype=np.uint64)
        cursor += 2 * need
        ranks = (chain64_np(rank_key, [idx]) % np.uint64(total)).astype(np.int64)
        pool = np.concatenate([chosen, ranks])
        uniq, first = np.unique(pool, return_index=True)
        chosen = uniq[np.argsort(first)]  # first-occurrence order, deterministic
    chosen = np.sort(chosen[:count])
    return ExplicitHypergraph(n, k, unrank_colex(chosen, k, n))
