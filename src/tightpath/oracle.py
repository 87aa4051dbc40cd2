"""Brute-force ground truth at small scale.

Three reference computations that everything else is checked against:
exact longest j-tight path by exhaustive backtracking (with a node budget
and an explicit censored flag), exact equivalence-class sizes z_ell, and
Monte-Carlo estimation of the expected number of path classes. All three
count on one depth-first walk over every path, taken in the sorted order of
the edge rows, so their results depend on the edge set alone: z_ell counts
the paths of one reference path's own edges, and Monte-Carlo counts classes
per sample through ``enumerate_path_classes`` (bar ell = 2, read off the
coin matrix). A vectorized level-by-level enumerator handles sparse large-n
instances when the overlap leaves one fresh vertex per edge: its paths are
int32 rows that carry the index entry they came through, which finds their
completions with no search and skips the edge each just used, and each level
is extended in slices of BLOCK rows: about 44 B per level-1 row at (3, 2).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from ._rng import BLOCK, chain64_np, coin_mask_np, coin_threshold, derive_key
from .combinatorics import JTightPath, path_vertex_count, structural_params
from .hypergraph import ExplicitHypergraph, pack_rows

Z_BRUTEFORCE_MAX_V = 11


def z_ell_bruteforce(k: int, j: int, ell: int) -> int:
    """Count vertex orderings sharing the edge set of a reference path.

    Fixes the path 0,1,...,v-1 and counts, on the shared walk, the length-ell
    paths of the hypergraph made of its ell edges alone. Each such path has
    ell distinct edges, so its edge set is the whole reference set and the
    hypergraph holds exactly one class. A length-0 path is a bare j-set, with
    j! orderings. Rejects v(ell) > 11 (factorial blowup).
    """
    v = path_vertex_count(k, j, ell)
    if v > Z_BRUTEFORCE_MAX_V:
        raise ValueError(f"v(ell) = {v} exceeds the enumeration bound {Z_BRUTEFORCE_MAX_V}")
    if ell == 0:
        return math.factorial(j)
    d = k - j
    H = ExplicitHypergraph(v, k, [range(i * d, i * d + k) for i in range(ell)])
    return enumerate_path_classes(H, j, ell)[1]


@dataclass
class OracleResult:
    length: int
    witness: JTightPath
    censored: bool
    nodes: int


def longest_path_exact(H: ExplicitHypergraph, j: int, node_budget: int = 5_000_000) -> OracleResult:
    """Exhaustive longest j-tight path in an explicit hypergraph.

    Backtracks over vertex sequences, appending the k-j new vertices of each
    edge that completes the current tail. ``node_budget`` caps the number of
    extension attempts (``nodes``); exceeding it returns the best path found
    so far with censored=True rather than a silently wrong optimum. A negative
    node_budget raises ValueError.

    The input picks the engine. The vectorized level enumerator runs when
    k-j == 1, the tail space packs into 62 bits and n < 2**31 (its vertex
    columns are int32); the recursive search runs otherwise. A censored
    search reports nodes = node_budget + 1, the attempt that tripped the
    budget; a censored level run reports the nodes of its completed levels.
    Level 1 (every edge with every ordered tail) is always expanded and
    counted whole, so that count exceeds node_budget when level 1 alone does;
    past level 1 it stays at most node_budget. The two engines are each
    other's reference where both apply.
    """
    structural_params(H.k, j)
    if node_budget < 0:
        raise ValueError(f"node_budget must be >= 0, got {node_budget}")
    if H.k - j == 1 and H.n**j < 2**62 and H.n < 2**31:
        return _longest_path_levels(H, j, node_budget)
    return _longest_path_dfs(H, j, node_budget)


class _Censored(Exception):
    """Raised by the DFS oracle's visitor to end the walk at its node budget."""


def _walk(H: ExplicitHypergraph, j: int, visit: Callable[[list[int], int], bool]) -> None:
    """Visit every j-tight path of H in pre-order, as ``visit(seq, ell) -> descend?``.

    ``seq`` is the path's vertex sequence with its first k-j vertices in
    increasing order: their other orders give the same edges, so each such
    sequence stands for (k-j)! of them. First edges, and the completions of
    each tail, are taken in the lexicographic row order of ``H.edge_array()``,
    so the walk depends on the edge set alone. ``seq`` is only valid during
    the call.
    """
    d = H.k - j
    rows = H.edge_array().tolist()
    idx: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for e in rows:  # each j-subset of an edge maps to the complements completing it
        for jsub in combinations(e, j):
            idx.setdefault(jsub, []).append(tuple(v for v in e if v not in jsub))

    def extend(seq: list[int], used: set[int], ell: int) -> None:
        for rest in idx.get(tuple(sorted(seq[-j:])), ()):
            if not used.isdisjoint(rest):
                continue
            for ordering in permutations(rest):
                seq.extend(ordering)
                used.update(ordering)
                if visit(seq, ell + 1):
                    extend(seq, used, ell + 1)
                del seq[-d:]
                used.difference_update(ordering)

    for e in rows:
        for tail in permutations(e, j):
            seq = [v for v in e if v not in tail] + list(tail)
            if visit(seq, 1):
                extend(seq, set(seq), 1)


def _longest_path_dfs(H: ExplicitHypergraph, j: int, node_budget: int) -> OracleResult:
    best_seq = list(range(j))  # a bare j-set is always a length-0 path
    best_len = 0
    nodes = 0

    def visit(seq: list[int], ell: int) -> bool:
        nonlocal best_seq, best_len, nodes
        nodes += 1
        if nodes > node_budget:
            raise _Censored
        if ell > best_len:
            best_len, best_seq = ell, list(seq)
        return True

    try:
        _walk(H, j, visit)
        censored = False
    except _Censored:
        censored = True
    return OracleResult(best_len, JTightPath(H.k, j, tuple(best_seq)), censored, nodes)


def _longest_path_levels(H: ExplicitHypergraph, j: int, node_budget: int) -> OracleResult:
    """Level-synchronous enumeration for k-j == 1, with no search per level.

    Level L holds every path of L edges as int32 rows of its vertex sequence,
    stored one column per position. Entry d*m + e of the completion index is
    edge e less its d-th vertex: the entries are sorted by that packed j-set,
    and each run of equal j-sets is a group listed from ``gstart[g]``. Every
    row carries ``came``, the sorted entry it came through (at level 1, its
    edge less its head), whose group ``gid[came]`` is its tail. Its
    completions are that group less ``came``, whose vertex is the one just
    before the tail; ``came`` still counts as a node. Extending a row by
    entry i drops the t-th smallest tail vertex, and the new row came through
    ``back[i, t]``, tabulated per entry. The index is int32 whenever its m*k
    entries allow. A level is extended in slices of BLOCK rows, each with
    its own candidates, and joined in order, so memory follows the rows of
    two levels: about 44 B per level-1 row at (3, 2).
    """
    k, n = H.k, H.n
    arr = H.edge_array()
    m = len(arr)
    if m == 0:
        return OracleResult(0, JTightPath(k, j, tuple(range(j))), False, 0)
    idx = np.int32 if m * k < 2**31 else np.int64
    keys = np.concatenate([pack_rows([arr[:, c] for c in range(k) if c != d], n) for d in range(k)])
    order = np.argsort(keys, kind="stable")
    first = np.r_[True, np.diff(keys[order]) != 0]
    del keys
    gstart = np.append(np.flatnonzero(first), m * k).astype(idx)
    gid = (np.cumsum(first) - 1).astype(idx)
    inv = np.empty(m * k, dtype=idx)
    inv[order] = np.arange(m * k, dtype=idx)
    vals = arr.T.ravel()[order].astype(np.int32)
    e, d = order[:, None] % m, order[:, None] // m  # edge and dropped position of each entry
    del order, first
    t = np.arange(j)  # the t-th smallest vertex of edge e less e[d] is e[t + (t >= d)]
    back = inv[(t + (t >= d)) * m + e]
    del d, e

    # level 1: every ordered j-tail of every edge, head vertex first
    perms = [(*(c for c in range(k) if c not in tl), *tl) for tl in permutations(range(k), j)]
    cur = np.empty((k, len(perms) * m), dtype=np.int32)
    for i, p in enumerate(perms):
        cur[:, i * m : (i + 1) * m] = arr[:, p].T
    came = inv.reshape(k, m)[[p[0] for p in perms]].ravel()
    del arr, inv
    nodes = cur.shape[1]
    censored = False
    while True:
        slices = [slice(r0, r0 + BLOCK) for r0 in range(0, len(came), BLOCK)]
        # came's entry is a node too; sliced, so no temporary is sized by the rows
        total = sum(int(gstart[g + 1].sum() - gstart[g].sum())
                    for g in (gid[came[s]] for s in slices))
        if total == 0:
            break
        if nodes + total > node_budget:
            censored = True
            break
        nodes += total
        parts = [_extend_rows(cur[:, s], came[s], gid, gstart, vals, back) for s in slices]
        if not any(rows.shape[1] for rows, _ in parts):
            break
        del cur, came  # the level is done before the next one is joined
        cur, came = (np.concatenate(a, axis=-1) for a in zip(*parts))
        del parts

    witness = JTightPath(k, j, tuple(cur[:, 0].tolist()))
    return OracleResult(witness.ell, witness, censored, nodes)


def _extend_rows(cur: np.ndarray, came: np.ndarray, gid: np.ndarray, gstart: np.ndarray,
                 vals: np.ndarray, back: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fresh one-edge extensions of the paths ``cur`` (one column per
    position) that came through entries ``came``, in row order, and the
    entries they came through."""
    j = back.shape[1]
    g = gid[came]
    lo = gstart[g]
    counts = gstart[g + 1] - lo - 1  # every completion but the entry ``came``
    rep = np.repeat(np.arange(len(counts)), counts)
    pos = np.arange(rep.size) + (lo - np.cumsum(counts) + counts)[rep]
    pos += pos >= came[rep]
    cand = vals[pos]
    fresh = np.ones(rep.size, dtype=bool)
    for c in range(len(cur) - j - 1):  # no cand is in the tail; only came's is the vertex before
        fresh &= cur[c][rep] != cand
    rep, pos = rep[fresh], pos[fresh]
    # the oldest tail vertex's rank t within the sorted tail, per row
    rank = sum((cur[c] < cur[-j] for c in range(len(cur) - j + 1, len(cur))), np.zeros_like(lo))
    nxt = np.empty((len(cur) + 1, rep.size), dtype=np.int32)
    np.take(cur, rep, axis=1, out=nxt[:-1], mode="clip")  # rep is in range; "raise" buffers out
    nxt[-1] = cand[fresh]
    return nxt, back[pos, rank[rep]]


def enumerate_path_classes(H: ExplicitHypergraph, j: int, ell: int) -> tuple[int, int]:
    """(class count, labeled sequence count) for j-tight paths of length ell.

    Classes are keyed by their edge set; the labeled count is the number of
    vertex sequences, which must be class count times z_ell.
    """
    if ell == 0:
        return math.comb(H.n, j), math.perm(H.n, j)
    k, d = H.k, H.k - j
    classes: set[frozenset[frozenset[int]]] = set()
    labeled = 0

    def visit(seq: list[int], m: int) -> bool:
        nonlocal labeled
        if m < ell:
            return True
        labeled += 1
        classes.add(frozenset(frozenset(seq[i * d : i * d + k]) for i in range(ell)))
        return False

    _walk(H, j, visit)
    # the walk fixes the order of each path's head block; restore its (k-j)! orders
    labeled *= math.factorial(d)
    return len(classes), labeled


def expectation_monte_carlo(
    n: int, k: int, j: int, ell: int, p: float, samples: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of the number of length-ell classes.

    Draws explicit hypergraphs with the keyed coin and counts equivalence
    classes per sample. The ell = 2 case, for every (k, j), is counted directly
    from the coin matrix; other lengths enumerate per sample.
    """
    if n > 12:
        raise ValueError(f"Monte-Carlo estimation supports n <= 12, got {n}")
    if samples < 1:
        raise ValueError("need at least one sample")
    master = derive_key(seed, "mc-expectation")
    sample_keys = chain64_np(master, [np.arange(samples, dtype=np.uint64)])
    edge_keys = np.array(
        [derive_key(int(sk), "edge-coin") for sk in sample_keys], dtype=np.uint64
    )
    ksets = list(combinations(range(n), k))
    cols = [np.array([K[i] for K in ksets], dtype=np.uint64) for i in range(k)]
    threshold = coin_threshold(p)
    # (samples, k-sets) coin matrix, one chunk of samples at a time
    counts = np.empty(samples, dtype=np.int64)
    if ell == 2:
        pair_idx = [
            (x, y)
            for x in range(len(ksets))
            for y in range(x + 1, len(ksets))
            if len(set(ksets[x]).intersection(ksets[y])) == j
        ]
        px = np.array([x for x, _ in pair_idx])
        py = np.array([y for _, y in pair_idx])
    chunk = max(1, 2**22 // max(len(ksets), 1))
    for start in range(0, samples, chunk):
        keyblock = edge_keys[start : start + chunk, None]
        mask = coin_mask_np(chain64_np(keyblock, cols), threshold)
        if ell == 2:
            counts[start : start + chunk] = (mask[:, px] & mask[:, py]).sum(axis=1)
        else:
            for row in range(mask.shape[0]):
                edges = [ksets[i] for i in np.flatnonzero(mask[row])]
                H = ExplicitHypergraph(n, k, edges)
                counts[start + row] = enumerate_path_classes(H, j, ell)[0]
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, se
