"""Two interchangeable edge oracles for the binomial random hypergraph.

ExplicitHypergraph stores the full edge set as one sorted (m, k) int64 row
array and builds its frozenset of tuples, for membership tests, only on first
use. LazyHypergraph answers "is this k-set an edge" by flipping a
keyed coin on first query, realizing H^k(n,p) under the search's guarantee
that no k-set is queried twice. Both use the same coin function, so a run on
either backend with equal seeds sees identical edges.

Also provides a rank-sampling generator for instances whose k-set space is
too large to enumerate but whose edge list is small (sparse subcritical
measurements); its instances are not coin-compatible with the lazy backend.
"""

from __future__ import annotations

import contextlib
import math
import operator
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from ._rng import chain64, chain64_np, check_probability, coin_mask_np, coin_threshold, derive_key, mix64

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


def colex_tables(n: int, m: int) -> list[np.ndarray]:
    """tables[i][c] = C(c, i+1) for c in [0, n], used to unrank m-sets."""
    out = []
    for i in range(1, m + 1):
        col = np.array([math.comb(c, i) for c in range(n + 1)], dtype=np.int64)
        out.append(col)
    return out


def unrank_colex(ranks: np.ndarray, m: int, n: int, tables=None) -> np.ndarray:
    """Map colex ranks to sorted m-sets over [0, n); returns shape (len, m).

    The m-set {c_1 < ... < c_m} has colex rank sum_i C(c_i, i).
    """
    if tables is None:
        tables = colex_tables(n, m)
    rem = np.asarray(ranks, dtype=np.int64).copy()
    cols = np.empty((rem.shape[0], m), dtype=np.int64)
    for i in range(m, 0, -1):
        c = np.searchsorted(tables[i - 1], rem, side="right") - 1
        cols[:, i - 1] = c
        rem -= tables[i - 1][c]
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
        """Membership mask for many canonical k-sets given as columns."""
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
    ``record`` keeps the revealed map for verification; production searches
    never re-query, so recording is optional.
    """

    def __init__(self, n: int, k: int, p: float, seed: int, record: bool = False):
        if not 2 <= k <= n:
            raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
        self.n = n
        self.k = k
        self.p = p
        self.seed = seed
        self.edge_key = derive_key(seed, "edge-coin")
        self.threshold = coin_threshold(p)
        self.record = record
        self.revealed: dict[tuple[int, ...], bool] = {}

    def query_edge(self, K: Sequence[int]) -> bool:
        _check_canonical(K, self.k, self.n)
        t = tuple(K)
        if self.record and t in self.revealed:
            return self.revealed[t]
        hit = chain64(self.edge_key, t) < self.threshold
        if self.record:
            self.revealed[t] = hit
        return hit

    def bulk_query(self, cols: Sequence[np.ndarray]) -> np.ndarray:
        return coin_mask_np(chain64_np(self.edge_key, cols), self.threshold)


def generate_explicit(
    n: int, k: int, p: float, seed: int, budget: int = ENUMERATION_BUDGET
) -> ExplicitHypergraph:
    """Materialize H^k(n,p) by flipping the keyed coin for every k-set.

    Refuses when C(n,k) exceeds the enumeration budget; large sparse
    instances should use LazyHypergraph or sample_explicit instead.
    """
    total = math.comb(n, k)
    if total > budget:
        raise EnumerationBudgetError(
            f"C({n},{k}) = {total} exceeds the enumeration budget {budget}; "
            "use the lazy backend"
        )
    edge_key = derive_key(seed, "edge-coin")
    threshold = coin_threshold(p)
    tables = colex_tables(n, k)
    edges: list[np.ndarray] = []
    chunk = 1 << 20
    for start in range(0, total, chunk):
        ranks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cols_mat = unrank_colex(ranks, k, n, tables)
        cols = [cols_mat[:, i] for i in range(k)]
        mask = coin_mask_np(chain64_np(edge_key, cols), threshold)
        if mask.any():
            edges.append(cols_mat[mask])
    rows = np.concatenate(edges) if edges else np.empty((0, k), dtype=np.int64)
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
