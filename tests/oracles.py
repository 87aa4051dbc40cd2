"""Reference checkers and helpers that only the tests call.

``allowed_candidates`` and ``retreat`` rebuild and spend a finder's top-of-
stack candidate family from scratch; ``replay_trace`` re-checks a trace
against a backend; ``forbidden_counts`` counts the forbidden extensions of the
top-of-stack j-set: the exact type-1 count and its a-priori bound, and the
degree-based upper bound plus optional exact enumeration for type-2. They
read the engine's private state (``_scalar_order``, ``_q4_dead``,
``_explore_top``), which is why they live beside the tests and not in the
package. ``partition_path`` splits a path into the paper's canonical blocks,
``edge_sets`` gives a path's edges as sets, and ``relabeled`` permutes an
instance's vertices: no run needs them. ``sampled_edges_reference`` is
``sample_explicit``'s edge array as its first rank loop built it, the
reference for the faster loop it has now.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from tightpath._rng import chain64_np, derive_key
from tightpath.combinatorics import JTightPath, structural_params
from tightpath.hypergraph import ExplicitHypergraph, _sampled_edge_count, unrank_colex
from tightpath.pathfinder import PathFinder, RunTrace


def allowed_candidates(finder: PathFinder) -> list[tuple]:
    """The X = K\\J still queryable from the top-of-stack J, in query order.

    Rebuilt from scratch: Q2 against ``in_path``, Q3 against the record's
    (priority, K) cursor, which both scans keep, and Q4 against the
    explored-by index. So it gives the same answer for either engine, after
    a stop too.
    """
    if not finder.stack:
        raise ValueError("no active j-set")
    rec = finder.stack[-1]
    last = rec.cursor or ()  # () precedes every entry
    return [tuple(v for v in e[1] if v not in rec.jset)
            for e in finder._scalar_order(rec) if e > last]


def retreat(finder: PathFinder) -> PathFinder:
    """Mark the top-of-stack j-set explored; remove its batch's edge if that
    batch is now done. The caller must have exhausted its candidates."""
    if not finder.stack:
        raise ValueError("no active j-set")
    if allowed_candidates(finder):
        raise ValueError("top-of-stack j-set still has allowed candidates")
    finder._explore_top()
    return finder


def replay_trace(trace: RunTrace, H) -> bool:
    """Re-check a trace against a backend: query outcomes must reproduce,
    query clocks must strictly increase, and the summary counters must match
    the event stream. Query outcomes are only present at trace_level full."""
    if H.n != trace.n or H.k != trace.k:
        raise ValueError("backend shape does not match trace")
    if trace.trace_level == "summary":
        return True
    last_t = 0
    counts = {"new_start": 0, "extend": 0, "explored": 0, "skip": 0}
    seen_queries = 0
    for ev in trace.events:
        kind = ev["event"]
        if kind == "query":
            if ev["t"] <= last_t:
                raise ValueError(f"query clock not increasing at t={ev['t']}")
            last_t = ev["t"]
            seen_queries += 1
            if bool(H.query_edge(tuple(ev["edge"]))) != ev["outcome"]:
                raise ValueError(f"query outcome mismatch on {ev['edge']}")
        elif kind in counts:
            counts[kind] += 1
    if trace.trace_level == "full":
        if seen_queries != trace.queries:
            raise ValueError("query count mismatch")
        for ev in trace.events:
            if ev["event"] == "extend" and not H.query_edge(tuple(ev["edge"])):
                raise ValueError(f"path edge {ev['edge']} absent from backend")
    if counts["new_start"] != trace.new_starts:
        raise ValueError("new start count mismatch")
    if counts["extend"] != trace.positives:
        raise ValueError("positive count mismatch")
    if counts["skip"] != trace.skips:
        raise ValueError("skip count mismatch")
    if counts["explored"] != trace.explored:
        raise ValueError("explored count mismatch")
    return True


@dataclass(frozen=True)
class ForbiddenCounters:
    f1: int
    f1_bound: int
    f2_bound: float
    f2_exact: Optional[int] = None

    def __post_init__(self):
        assert self.f1 <= self.f1_bound
        if self.f2_exact is not None:
            assert self.f2_exact <= self.f2_bound


F2_EXACT_LIMIT = 10**6


def forbidden_counts(finder) -> ForbiddenCounters:
    """Forbidden-extension counters for the current top-of-stack j-set.

    Type 1 (blocked by path vertices): exact via the complement identity
    C(n-j, k-j) - C(n-j-|V(P) minus J|, k-j), checked against the a-priori
    bound ell (k-j) C(n-j-1, k-j-1). Type 2 (candidate would contain an
    explored j-set): degree-based upper bound, plus exact enumeration over
    the path-disjoint candidates when their number is within the limit.
    """
    if not finder.stack:
        raise ValueError("forbidden_counts needs a nonempty active stack")
    n, k, j = finder.n, finder.k, finder.j
    d = k - j
    J = finder.stack[-1].jset
    outside = int(finder.in_path.sum()) - j  # |V(P) \ J|; J is within the path
    f1 = math.comb(n - j, d) - math.comb(max(n - j - outside, 0), d)
    f1_bound = finder.ell * d * math.comb(n - j - 1, d - 1)

    counts = finder.monitor.counts
    f2_bound = 0.0
    for z in range(j):
        maxdeg = max(counts[z].get(Z, 0) for Z in combinations(J, z))
        if k - 2 * j + z >= 0:
            f2_bound += math.comb(j, z) * maxdeg * math.comb(max(n - 2 * j + z, 0), k - 2 * j + z)

    f2_exact = None
    if math.comb(n - j, d) <= F2_EXACT_LIMIT:
        assert J not in finder.explored  # J is active, so only other j-sets block
        outside_path = (~finder.in_path).nonzero()[0].tolist()
        f2_exact = sum(finder._q4_dead(tuple(sorted(J + X)))
                       for X in combinations(outside_path, d))
    return ForbiddenCounters(f1, f1_bound, f2_bound, f2_exact)


def edge_sets(path: JTightPath) -> set[frozenset[int]]:
    return {frozenset(e) for e in path.edges()}


def relabeled(H: ExplicitHypergraph, perm: Sequence[int]) -> ExplicitHypergraph:
    return ExplicitHypergraph(H.n, H.k, np.sort(np.asarray(perm)[H.edge_array()], axis=1))


def sampled_edges_reference(n: int, k: int, p: float, seed: int) -> np.ndarray:
    """sample_explicit(n, k, p, seed).edge_array() by the rank loop it first
    had: draws of twice what is still needed, one ``np.unique`` over all the
    ranks so far each, and ranks h mod C(n, k) with no hash rejected. The
    two agree wherever no draw reaches the rejection limit."""
    total = math.comb(n, k)
    count = max(0, min(_sampled_edge_count(total, p, seed), total))
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
    return ExplicitHypergraph(n, k, unrank_colex(chosen, k, n)).edge_array()


class ShortPathError(ValueError):
    """Raised when a path is too short for the block partition (ell < s+2)."""


@dataclass(frozen=True)
class PathPart:
    """One block of the canonical partition, in path order."""

    label: str
    vertices: tuple[int, ...]


def partition_path(path: JTightPath) -> list[PathPart]:
    """Split a path into its maximal same-edge-membership blocks.

    Returns, in path order: F_1..F_s (head blocks, size k-j each), then
    A_1, B_1, A_2, ..., B_{ell-s-1}, A_{ell-s} alternating (sizes a and b),
    then G_1..G_s (tail blocks, size k-j). Defined only for ell >= s+2;
    shorter paths raise ShortPathError because their blocks degenerate.
    """
    sp = structural_params(path.k, path.j)
    ell, s = path.ell, sp.s
    if ell < s + 2:
        raise ShortPathError(f"partition needs ell >= s+2 = {s + 2}, got ell = {ell}")
    pos = {v: i for i, v in enumerate(path.vertices)}
    edges = [set(e) for e in path.edges()]

    def part(label: str, vs: set[int]) -> PathPart:
        return PathPart(label, tuple(sorted(vs, key=pos.__getitem__)))

    e = lambda i: edges[i - 1]
    parts = [part(f"F{i}", e(i) - e(i + 1)) for i in range(1, s + 1)]
    for i in range(1, ell - s + 1):
        parts.append(part(f"A{i}", e(i) & e(i + s)))
        if i <= ell - s - 1:
            parts.append(part(f"B{i}", e(i + s) - (e(i + s + 1) | e(i))))
    parts.extend(part(f"G{i}", e(ell - s + i) - e(ell - s + i - 1)) for i in range(1, s + 1))
    return parts
