"""Search engine: scan order, state surgery, traces, stopping integration."""

import hashlib
import json
import math
import time
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightpath._rng import chain64, chain64_np, derive_key
from tightpath.combinatorics import threshold_p0
from tightpath.hypergraph import (
    Candidates,
    ExplicitHypergraph,
    LazyHypergraph,
    generate_explicit,
    subset_cols,
)
from tightpath.monitor import StoppingConfig
from tightpath.oracle import longest_path_exact
from tightpath.pathfinder import (
    TRACE_LEVELS,
    ActiveRecord,
    PathFinder,
    RunTrace,
    _NeutralStream,
    activate_batch,
    run,
)

from oracles import allowed_candidates, replay_trace, retreat


def summary_no_ms(trace):
    s = trace.summary()
    s.pop("ms")
    return s


def empty_H(n, k=3):
    return ExplicitHypergraph(n, k, [])


@pytest.fixture
def generic_modes(monkeypatch):
    """The mode of every run that enters the generic scan, once per scan."""
    modes = []
    scan = PathFinder._scan_generic

    def spy(self, rec):
        modes.append(self.mode)
        return scan(self, rec)

    monkeypatch.setattr(PathFinder, "_scan_generic", spy)
    return modes


# -- pure helpers ------------------------------------------------------------


def test_activate_batch_overlap_one_below_k():
    # k=3, j=2: one successor, the last j vertices of K = (1, 2, 7)
    finder = PathFinder(empty_H(10), j=2)
    members = activate_batch(finder.params, [[1], [2], [7]])
    assert members == [(2, 7)]


def test_activate_batch_single_part():
    # k=5, j=2 has r=0: successors are the a-subsets of the fresh vertices
    finder = PathFinder(empty_H(10, k=5), j=2)
    members = activate_batch(finder.params, [[0, 1], [8, 4, 6]])
    assert members == [(4, 6), (4, 8), (6, 8)]
    assert len(members) == finder.params.batch_size


def test_activate_batch_multi_part():
    # k=5, j=3: Z ranges over 1-subsets of the old C1, X moves to the tail
    finder = PathFinder(empty_H(12, k=5), j=3)
    members = activate_batch(finder.params, [[0], [1, 2], [5, 9]])
    assert members == [(1, 5, 9), (2, 5, 9)]


def test_activate_batch_partition_shapes():
    """Extending a new start's blocks by one edge gives a batch of j-sets,
    each a vertices of the new start's second part (of X for r = 0) joined
    with the rest of K, and the path's blocks then partition it as every
    active j-set's partition: a vertices in block 1, then blocks 2..r+1."""
    for k, j in [(3, 2), (4, 2), (5, 2), (5, 3), (7, 4), (6, 2)]:
        finder = PathFinder(empty_H(3 * k, k=k), j=j)
        p = finder.params
        jset = tuple(range(j))
        finder._reset_path(jset)
        K = jset + tuple(range(k, k + (k - j)))
        finder._extend(ActiveRecord(jset, 0), K)
        members = activate_batch(p, finder.blocks)
        assert len(members) == p.batch_size == len(set(members))
        assert members == sorted(members)
        for js in members:
            assert len(js) == j and set(js) <= set(K)
            assert len(set(js) & set(finder.blocks[1])) == p.a
            assert set(js) - set(finder.blocks[1]) == {v for b in finder.blocks[2:] for v in b}


# -- candidate inspection ----------------------------------------------------


def test_allowed_candidates_fresh_start():
    finder = PathFinder(empty_H(6), j=2, mode="checked")
    assert finder._new_start()
    J = finder.stack[-1].jset
    cands = allowed_candidates(finder)
    assert {X for X in cands} == {(x,) for x in range(6) if x not in J}


def test_allowed_candidates_q4_blocks():
    finder = PathFinder(empty_H(6), j=2, mode="checked")
    finder._new_start()
    J = finder.stack[-1].jset
    outside = [x for x in range(6) if x not in J]
    dead = outside[0]
    # explore (J[0], dead) as the search does, so the explored-by index files it too
    finder.stack.append(ActiveRecord(tuple(sorted((J[0], dead))), 0))
    finder._explore_top()
    assert set(allowed_candidates(finder)) == {(x,) for x in outside[1:]}


def test_allowed_candidates_q2_blocks():
    finder = PathFinder(empty_H(6), j=2, mode="checked")
    finder._new_start()
    J = finder.stack[-1].jset
    outside = [x for x in range(6) if x not in J]
    finder.in_path[outside[0]] = True
    assert set(allowed_candidates(finder)) == {(x,) for x in outside[1:]}


def test_allowed_candidates_requires_active_jset():
    finder = PathFinder(empty_H(6), j=2)
    with pytest.raises(ValueError):
        allowed_candidates(finder)
    with pytest.raises(ValueError):
        retreat(finder)


def walk(finder):
    """Yield the finder before each scan step of an unbounded run."""
    while True:
        if not finder.stack:
            if not finder._new_start():
                return
            continue
        yield finder
        assert finder._step() is None


def brute_order(finder):
    """(priority, K) for every X disjoint from the path whose K = J u X holds
    no explored j-set, sorted, built from the definitions."""
    J = finder.stack[-1].jset
    ent = []
    for X in combinations(range(finder.n), finder.d):
        K = tuple(sorted(J + X))
        if not finder.in_path[list(X)].any() and not any(
                set(E) <= set(K) for E in finder.explored):
            ent.append((chain64(finder.sigk_key, K), K))
    return sorted(ent)


def test_scalar_order_hashes_only_live_candidates(monkeypatch):
    import tightpath.pathfinder as pf

    calls = []

    def spy(key, K):
        calls.append(K)
        return chain64(key, K)

    monkeypatch.setattr(pf, "chain64", spy)
    for n, k, j, p in [(9, 3, 1, 0.08), (9, 3, 2, 0.25), (9, 4, 2, 0.06), (9, 5, 3, 0.1)]:
        H = generate_explicit(n, k, p, seed=1)
        pruned = 0
        for a, c in zip(walk(PathFinder(H, j, seed=1)),
                        walk(PathFinder(H, j, seed=1, mode="checked"))):
            if not a.explored:
                continue
            want = brute_order(a)
            calls.clear()
            got = a._scalar_order(a.stack[-1])
            assert got == want
            assert len(calls) == len(got)
            pruned += len(got) < math.comb(n - np.count_nonzero(a.in_path), a.d)
            # still queryable: every live candidate past the last one queried
            last = a.stack[-1].cursor
            assert last == c.stack[-1].cursor
            left = [tuple(v for v in K if v not in a.stack[-1].jset)
                    for h, K in want if last is None or (h, K) > last]
            assert allowed_candidates(a) == allowed_candidates(c) == left
        assert pruned, (k, j)


def test_retreat_explores_a_spent_start():
    finder = PathFinder(empty_H(6), j=2, mode="checked")
    finder._new_start()
    rec = finder.stack[-1]
    assert finder._scan(rec) == ("exhausted",)
    retreat(finder)
    assert rec.jset in finder.explored
    assert not finder.stack
    assert finder.ell == 0


@pytest.mark.parametrize("mode", ["auto", "checked"])
def test_dry_scan_leaves_no_candidates_in_either_mode(mode):
    """A scan that runs dry without a cut leaves its record spent, whichever
    engine ran it: nothing to list, and retreat accepts it."""
    finder = PathFinder(empty_H(6), j=2, mode=mode)
    finder._new_start()
    rec = finder.stack[-1]
    assert finder._scan(rec) == ("exhausted",)
    assert finder.t == 4
    assert allowed_candidates(finder) == []
    assert finder._scan(rec) == ("exhausted",) and finder.t == 4
    retreat(finder)
    assert rec.jset in finder.explored and not finder.stack


def test_retreat_refuses_live_candidates():
    finder = PathFinder(empty_H(6), j=2, mode="checked")
    finder._new_start()
    with pytest.raises(ValueError):
        retreat(finder)


def test_retreat_removes_the_edge_of_a_spent_batch():
    """Exploring the last member of an edge's batch rolls the path back."""
    finder = PathFinder(empty_H(8), j=2, mode="checked")
    finder._new_start()
    rec = finder.stack[-1]
    X = tuple(v for v in range(8) if v not in rec.jset)[:1]
    K = tuple(sorted(rec.jset + X))
    finder._extend(rec, K)
    finder._activate()
    assert finder.ell == 1 and finder.edges == [K]
    top = finder.stack[-1]
    assert top.edge_index == 1
    assert finder._scan(top) == ("exhausted",)
    retreat(finder)
    assert top.jset in finder.explored
    assert finder.ell == 0 and finder.edges == []
    assert set(np.flatnonzero(finder.in_path)) == set(rec.jset)


def test_discovering_a_jset_twice_raises():
    """The discovered set guards itself: a batch member already in it, or a
    new start already in it, raises before it is added a second time."""
    finder = PathFinder(empty_H(8), j=2, mode="checked")
    finder._new_start()
    rec = finder.stack[-1]
    X = tuple(v for v in range(8) if v not in rec.jset)[:1]
    finder._extend(rec, tuple(sorted(rec.jset + X)))
    member = activate_batch(finder.params, finder.blocks)[0]
    finder.discovered.add(member)
    with pytest.raises(AssertionError, match="discovered twice"):
        finder._activate()
    finder = PathFinder(empty_H(8), j=2, mode="checked")
    finder._new_start()
    jset = finder.stack[-1].jset
    finder.stream = SimpleNamespace(pop=lambda: jset)  # a stream that yields it again
    with pytest.raises(AssertionError, match="discovered twice"):
        finder._new_start()


@pytest.mark.parametrize("k, j", [(3, 1), (5, 2)])
@pytest.mark.parametrize("mode", ["auto", "checked"])
def test_edge_stays_until_the_last_batch_member_is_explored(k, j, mode):
    """A batch of 2 or 3 members, explored one by one: the edge that made it,
    and the path's length, stay until the last member goes, then roll back."""
    finder = PathFinder(empty_H(9, k=k), j=j, mode=mode)
    finder._new_start()
    rec = finder.stack[-1]
    X = tuple(v for v in range(9) if v not in rec.jset)[: k - j]
    K = tuple(sorted(rec.jset + X))
    finder._extend(rec, K)
    finder._activate()
    batch = finder.stack[1:]
    assert len(batch) == finder.params.batch_size >= 2
    for left in range(len(batch) - 1, -1, -1):
        assert finder.ell == 1 and finder.edges == [K]
        assert set(np.flatnonzero(finder.in_path)) == set(K)
        assert finder._scan(finder.stack[-1]) == ("exhausted",)
        retreat(finder)
        assert len(finder.stack) == 1 + left
    assert finder.stack == [rec]
    assert finder.ell == 0 and finder.edges == []
    assert set(np.flatnonzero(finder.in_path)) == set(rec.jset)
    assert [ev["event"] for ev in finder.events].count("edge_removed") == 1


# -- whole-run behaviour ------------------------------------------------------


def test_empty_instance_queries_every_kset_once():
    """With no edges, each k-set is queried from exactly one of its j-subsets:
    the earliest to start; for the others it already contains an explored
    j-set. Total queries = C(n, k) regardless of seed or engine."""
    for n, k, j in [(5, 3, 2), (6, 3, 2), (5, 3, 1), (7, 5, 2)]:
        for seed in (0, 1, 2):
            for mode in ("auto", "checked"):
                tr = run(empty_H(n, k), k, j, seed=seed, mode=mode)
                assert tr.queries == math.comb(n, k)
                assert tr.new_starts == math.comb(n, j)
                assert tr.positives == 0
                assert tr.discovered == tr.explored == math.comb(n, j)
                assert tr.stop_reason == "exhausted"


def test_two_edge_instance_exhausts_within_oracle_length():
    H = ExplicitHypergraph(5, 3, [(0, 1, 2), (1, 2, 3)])
    assert longest_path_exact(H, 2).length == 2
    seen = set()
    for seed in range(10):
        tr = run(H, 3, 2, seed=seed, mode="checked")
        assert tr.stop_reason == "exhausted"
        assert 1 <= tr.max_ell <= 2
        assert tr.discovered == tr.explored == math.comb(5, 2)
        seen.add(tr.max_ell)
    assert seen  # both 1 and 2 occur in practice; neither is guaranteed per seed


def test_run_is_deterministic():
    for make in (
        lambda: generate_explicit(12, 3, 0.2, seed=4),
        lambda: LazyHypergraph(12, 3, 0.2, seed=4),
    ):
        a = run(make(), 3, 2, seed=9, trace_level="full", mode="checked")
        b = run(make(), 3, 2, seed=9, trace_level="full", mode="checked")
        assert a.events == b.events
        assert summary_no_ms(a) == summary_no_ms(b)


def test_lazy_and_explicit_runs_are_identical():
    for seed in range(5):
        He = generate_explicit(14, 3, 0.15, seed=seed)
        Hl = LazyHypergraph(14, 3, 0.15, seed=seed)
        a = run(He, 3, 2, seed=seed)
        b = run(Hl, 3, 2, seed=seed)
        assert a.events == b.events
        assert summary_no_ms(a) == summary_no_ms(b)


@pytest.mark.parametrize("n, k, j, p, seeds", [(18, 3, 2, 0.12, 10), (20, 2, 1, 0.06, 6),
                                               (14, 3, 1, 0.02, 10)])
def test_vector_scan_matches_checked_scan(generic_modes, n, k, j, p, seeds):
    """At every trace level: below full, resumed vector scans replay what the
    record's last scan stored; at full they always rescan."""
    for seed in range(seeds):
        H = generate_explicit(n, k, p, seed=seed)
        for level in TRACE_LEVELS:
            a = run(H, k, j, seed=seed, trace_level=level)
            assert "auto" not in generic_modes
            c = run(H, k, j, seed=seed, mode="checked", trace_level=level)
            assert a.events == c.events
            assert summary_no_ms(a) == summary_no_ms(c)
    assert "checked" in generic_modes


def test_full_trace_level_runs_the_vector_scan(generic_modes):
    H = generate_explicit(10, 4, 0.05, seed=1)
    tr = run(H, 4, 2, seed=1, trace_level="full")
    assert not generic_modes
    assert sum(ev["event"] == "query" for ev in tr.events) == tr.queries > 0
    assert replay_trace(tr, H)


def test_subset_cols_lists_subsets_in_lexicographic_order():
    xs = np.array([1, 4, 5, 8, 9, 12], dtype=np.int64)
    for d in range(1, 8):
        cols = subset_cols(xs, d)
        assert len(cols) == d
        assert list(zip(*(c.tolist() for c in cols))) == list(combinations(xs.tolist(), d))


def check_candidates(J, xs, d, key=0x5EED):
    """Every view of Candidates(J, xs, d) against itertools and scalar chain64."""
    xs = np.asarray(xs, dtype=np.int32)
    cands = Candidates(J, xs, d)
    want = {tuple(sorted(J + X)): X for X in combinations(xs.tolist(), d)}
    rows = [cands.row(i) for i in range(cands.nrows)]
    assert sorted(rows) == sorted(want) and len(rows) == len(want)
    assert len(cands) == len(J) + d
    assert all(c.dtype == np.int32 and c.shape == (cands.nrows,) for c in cands)
    assert list(zip(*(c.tolist() for c in cands))) == rows
    assert list(zip(*(c.tolist() for c in cands[1:]))) == [K[1:] for K in rows]
    xcols = cands.xcols()
    assert len(xcols) == d and all(c.shape == (cands.nrows,) for c in xcols)
    assert list(zip(*(c.tolist() for c in xcols))) == [want[K] for K in rows]
    h = cands.hash(key)
    assert h.dtype == np.uint64
    assert h.tolist() == [chain64(key, K) for K in rows]
    assert cands.hash(key).tolist() == h.tolist()  # the cached tables are only read
    return cands


def every_shape(n=9):
    """(J, xs, d, key) for every 2 <= k <= 5, 0 <= j < k, J at either end of
    [n] or spread over it, and xs the rest of [n]."""
    for k in range(2, 6):
        for j in range(0, k):
            for J in [tuple(range(j)), tuple(range(n - j, n)),
                      tuple(range(1, 2 * j, 2)), tuple(range(n - 2 * j, n, 2))]:
                yield J, [v for v in range(n) if v not in J], k - j, k * 31 + j


def test_candidates_match_combinations_for_every_shape():
    for J, xs, d, key in every_shape():
        check_candidates(J, xs, d, key=key)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 7])
def test_candidates_hash_at_tiny_blocks(monkeypatch, block):
    """Slices of a few rows cut every run, and a gap wider than BLOCK is
    split by columns: on every shape, hash is scalar chain64 of each row and
    hash with keep is keep of those hashes."""
    import tightpath.hypergraph as hg

    monkeypatch.setattr(hg, "BLOCK", block)
    keep = lambda a: (a & np.uint64(3)) == 0  # noqa: E731
    for J, xs, d, key in every_shape():
        cands = Candidates(J, np.array(xs, dtype=np.int32), d)
        h = cands.hash(key)
        assert h.tolist() == [chain64(key, cands.row(i)) for i in range(cands.nrows)], (J, d)
        assert np.array_equal(cands.hash(key, keep), keep(h)), (J, d)


def test_candidates_edge_layouts():
    # J at 0 and n-1, adjacent J vertices, empty gaps and gaps smaller than
    # some c_t, a sparse free set, and no candidate at all
    n = 12
    for J, xs, d in [((0, 11), range(1, 11), 2), ((0, 1, 2), range(3, 12), 2),
                     ((4, 5), [0, 1, 2, 3, 6, 7, 8], 3), ((3, 6), [1, 4, 7, 8, 10], 3),
                     ((2, 9), [0, 5, 11], 2), ((5,), [6, 7, 8, 9], 4), ((5,), [0, 11], 1),
                     ((0, 11), [5], 2), ((1, 2), [], 1), ((), range(n), 3)]:
        cands = check_candidates(J, list(xs), d)
        assert cands.nrows == math.comb(len(list(xs)), d)
    empty = Candidates((3, 4), np.array([7], dtype=np.int32), 2)
    assert empty.nrows == 0 and empty.hash(1).size == 0
    assert [c.size for c in empty] == [0, 0, 0, 0]
    assert [c.size for c in empty.xcols()] == [0, 0]
    with pytest.raises(IndexError):
        empty[4]


def test_candidates_rows_form_blocks_with_j_at_fixed_positions():
    # loose (k=3, j=1): low x low, low x high, then high x high
    xs = np.array([0, 1, 2, 4, 5], dtype=np.int32)
    cands = Candidates((3,), xs, 2)
    rows = [cands.row(i) for i in range(cands.nrows)]
    assert rows == [(0, 1, 3), (0, 2, 3), (1, 2, 3),
                    (0, 3, 4), (0, 3, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5),
                    (3, 4, 5)]
    # one free vertex per candidate: the blocks are the gaps of xs, in order
    cands = Candidates((1, 3), xs, 1)
    assert cands.xcols()[0].tolist() == xs.tolist()


def test_vector_scan_columns_are_int32(generic_modes):
    """Every column the scan hands to bulk_query is int32, in every shape."""

    class Spy:
        def __init__(self, H):
            self.H, self.n, self.k, self.dtypes = H, H.n, H.k, set()

        def bulk_query(self, cols):
            self.dtypes.update(c.dtype for c in cols)
            return self.H.bulk_query(cols)

        def query_edge(self, K):
            return self.H.query_edge(K)

    for k in range(2, 6):
        for j in range(1, k):
            H = Spy(LazyHypergraph(k + 6, k, 0.1, seed=k * j))
            run(H, k, j, seed=1)
            assert H.dtypes == {np.dtype(np.int32)}, (k, j)
    assert "auto" not in generic_modes
    xs = np.arange(6)
    for dtype in (np.int32, np.int64):
        assert all(c.dtype == dtype for c in subset_cols(xs.astype(dtype), 3))


def test_vertex_labels_must_fit_int32():
    class Stub:  # nothing of size n is allocated before the check
        n, k = 2**31, 3

    with pytest.raises(ValueError, match="int32"):
        PathFinder(Stub(), j=2)


MID_SCAN_CASES = [(11, 3, 1, 0.05), (9, 3, 2, 0.2), (12, 2, 1, 0.15), (11, 4, 1, 0.02),
                  (8, 4, 2, 0.1), (8, 4, 3, 0.3), (9, 5, 2, 0.04), (8, 5, 3, 0.15)]


def test_kernels_match_generic_scan_at_mid_scan_cutoffs(monkeypatch, generic_modes):
    """Budget and S2 cutoffs at every clock value 1..queries, so cutoffs land
    inside first scans (which hash no priorities unless a candidate succeeds
    or the trace is full) and inside resumed scans (which hash them for the
    Q3 cursor). Budget runs trace events, S2 runs every query."""
    seen = set()
    scan = PathFinder._scan_kernel
    q4_mask = PathFinder._q4_mask

    def spy(self, rec):
        first, t = rec.cursor is None, self.t
        res = scan(self, rec)
        seen.add(((self.k, self.j), self.trace_level, first, res[0], self.t > t))
        return res

    def q4_spy(self, J, cands):
        alive = q4_mask(self, J, cands)
        if not alive.all():
            seen.add(("q4-subset", self.k, self.j))
        return alive

    monkeypatch.setattr(PathFinder, "_scan_kernel", spy)
    monkeypatch.setattr(PathFinder, "_q4_mask", q4_spy)
    for n, k, j, p in MID_SCAN_CASES:
        for seed in range(3):
            H = generate_explicit(n, k, p, seed=seed)
            total = run(H, k, j, seed=seed, mode="checked").queries
            for b in range(1, total + 1):
                for cfg, level in ((StoppingConfig(enabled=frozenset(), budget=b), "events"),
                                   (StoppingConfig(T0=b, enabled=frozenset({"S2"})), "full")):
                    a, c = (run(H, k, j, seed=seed, stopping=cfg, mode=m, trace_level=level)
                            for m in ("auto", "checked"))
                    assert a.events == c.events
                    assert summary_no_ms(a) == summary_no_ms(c)
    assert "auto" not in generic_modes
    for _, k, j, _ in MID_SCAN_CASES:
        for level in ("events", "full"):
            for first in (True, False):
                for outcome in ("exhausted", "success", "stop"):
                    assert ((k, j), level, first, outcome, True) in seen
    # candidates holding two vertices of an explored j-set were masked
    for k, j in [(4, 2), (5, 2), (5, 3)]:
        assert ("q4-subset", k, j) in seen


def test_engines_leave_one_cursor_at_mid_scan_stops():
    """After every budget and S2 stop that leaves an active j-set, both
    engines leave its Q3 cursor at the last query counted, so inspecting the
    stopped finder gives one answer. Budget runs keep a summary trace, whose
    first scans hash no priorities; S2 runs list every query."""
    stopped = 0
    for n, k, j, p in MID_SCAN_CASES:
        for seed in range(3):
            H = generate_explicit(n, k, p, seed=seed)
            total = run(H, k, j, seed=seed, mode="checked").queries
            for b in range(1, total + 1):
                for cfg, level in ((StoppingConfig(enabled=frozenset(), budget=b), "summary"),
                                   (StoppingConfig(T0=b, enabled=frozenset({"S2"})), "full")):
                    a, c = (PathFinder(H, j, seed=seed, stopping=cfg, mode=m, trace_level=level)
                            for m in ("auto", "checked"))
                    a.run()
                    c.run()
                    if c.stack:
                        stopped += 1
                        assert a.stack[-1].cursor == c.stack[-1].cursor
                        assert allowed_candidates(a) == allowed_candidates(c)
    assert stopped > 1000


# more resumable shapes (d = 1), and (4, 2) at n = 9, where a kill can hit a row
# that already held an explored j-set at the record's last scan
RESUME_CASES = MID_SCAN_CASES + [(10, 3, 2, 0.2), (9, 4, 3, 0.2), (8, 5, 4, 0.2), (9, 4, 2, 0.2)]


def test_resumed_scans_match_checked_scan_at_cutoffs(monkeypatch):
    """Budget cutoffs at every clock value 1..queries, at the two trace levels
    (taken in turn) where a resumed vector scan replays its record's stored
    successes and gap counts. A spy classifies each Q4 kill since the
    record's last scan from the explored sets alone, by the size of its part
    S outside J: one row (|S| = d), one vertex short (|S| = d-1) or shorter.
    It shows every branch of the replay fired: fast success and exhaustion,
    gap decrement, success merge, old-dead skip, one-vertex-short kills of a
    j < k-j shape ending in both a fast success and a fast exhaustion, and
    the rescan at a clock cut or after a shorter kill, and no other rescan."""
    seen = set()
    scan = PathFinder._scan_kernel
    q4_mask = PathFinder._q4_mask
    explored_at = {}  # record -> explored j-sets when it last stored a resume

    def q4_spy(self, J, cands):
        seen.add("rescan")
        return q4_mask(self, J, cands)

    def classify(self, rec, later):
        old, J = explored_at[rec], set(rec.jset)
        kinds = set()
        for E in self.explored - old:
            S = tuple(sorted(set(E) - J))
            if len(S) > self.d or any(self.in_path[v] for v in S):
                continue  # E lies in no candidate of J
            if len(S) < self.d:
                kinds.add("one-vertex-short kill" if len(S) == self.d - 1 else "shorter kill")
                continue
            K = tuple(sorted(J.union(S)))
            key = (chain64(self.sigk_key, K), K)
            if old.intersection(combinations(K, self.j)):
                kinds.add("old-dead skip")
            elif key > rec.cursor:
                kinds.add("success merge" if key in {e[:2] for e in later} else "gap decrement")
        return kinds

    def spy(self, rec):
        kinds = classify(self, rec, rec.resume[0]) if rec.resume else None
        seen.discard("rescan")
        res = scan(self, rec)
        rescanned = "rescan" in seen
        if kinds is not None:
            if rescanned:  # only where the clock cuts, or after a shorter kill
                assert res[0] == "stop" or "shorter kill" in kinds
                seen.add("rescan after a shorter kill" if "shorter kill" in kinds
                         else "rescan at a cut")
            else:
                assert "shorter kill" not in kinds
                seen.update({"fast " + res[0]} | kinds)
                if "one-vertex-short kill" in kinds and self.j < self.d:
                    seen.add(("one-vertex-short, j < k-j", res[0]))
        if rec.resume:
            explored_at[rec] = set(self.explored)
        return res

    monkeypatch.setattr(PathFinder, "_scan_kernel", spy)
    monkeypatch.setattr(PathFinder, "_q4_mask", q4_spy)
    for n, k, j, p in RESUME_CASES:
        for seed in range(3):
            H = generate_explicit(n, k, p, seed=seed)
            total = run(H, k, j, seed=seed, mode="checked").queries
            for b in range(1, total + 1):
                cfg = StoppingConfig(enabled=frozenset(), budget=b)
                a, c = (PathFinder(H, j, seed=seed, stopping=cfg, mode=m,
                                   trace_level=("summary", "events")[b % 2])
                        for m in ("auto", "checked"))
                ta, tc = a.run(), c.run()
                assert ta.events == tc.events
                assert summary_no_ms(ta) == summary_no_ms(tc)
                if c.stack:
                    assert a.stack[-1].cursor == c.stack[-1].cursor
    assert {"fast success", "fast exhausted", "gap decrement", "success merge", "old-dead skip",
            "one-vertex-short kill", "rescan at a cut", "rescan after a shorter kill",
            ("one-vertex-short, j < k-j", "success"),
            ("one-vertex-short, j < k-j", "exhausted")} <= seen


def test_every_replay_matches_a_fresh_scan():
    """Whenever a resumed scan replays its record's stored state, the
    successes and gap counts it gets equal those of a fresh scan: the
    candidates past the cursor in the checked scan's order, queried one by
    one. And the state that every successful scan stores, fresh or replayed,
    equals that reference past its new cursor. Budget cutoffs at every clock
    value, over every resumable shape."""
    seen = set()

    def reference(finder, rec):
        later, gaps = [], [0]
        for h, K in finder._scalar_order(rec):
            if (h, K) <= rec.cursor:
                continue
            if finder.H.query_edge(K):
                later.append((h, K))
                gaps.append(0)
            else:
                gaps[-1] += 1
        return later, gaps

    class Finder(PathFinder):
        def _replay(self, rec):
            want = reference(self, rec)
            kept = super()._replay(rec)
            if kept is not None:
                assert kept == want
                seen.add(("replay", self.k, self.j))
            return kept

        def _summary(self, *args):
            self.fresh = True
            return super()._summary(*args)

        def _scan_kernel(self, rec):
            self.fresh = False
            res = super()._scan_kernel(rec)
            if res[0] == "success":
                assert rec.resume[:2] == reference(self, rec)
                seen.add(("fresh" if self.fresh else "replayed", "stored", self.k, self.j))
            return res

    for n, k, j, p in RESUME_CASES:
        for seed in range(3):
            H = generate_explicit(n, k, p, seed=seed)
            total = run(H, k, j, seed=seed, mode="checked").queries
            for b in range(1, total + 1):
                Finder(H, j, seed=seed, trace_level="summary",
                       stopping=StoppingConfig(enabled=frozenset(), budget=b)).run()
    for k, j in [(3, 1), (5, 2), (3, 2), (2, 1)]:
        assert {("replay", k, j), ("fresh", "stored", k, j), ("replayed", "stored", k, j)} <= seen
    for _, k, j, _ in RESUME_CASES:
        assert ("fresh", "stored", k, j) in seen


@pytest.mark.parametrize("J, edges, explore, rebuilt", [
    # two j-sets inside the one row (0, 1, 2, 5), and one through vertex 9,
    # which is on the path outside J and so in no candidate: no rescan
    ((0, 1, 2), [(0, 1, 2, v) for v in (3, 4, 6, 7, 8)], [(0, 1, 5), (0, 2, 5), (1, 2, 9)], 0),
    # (0, 5) kills every row through 5, one vertex short of a row: replayed
    ((0, 1), [(0, 1, v, w) for v, w in combinations(range(2, 9), 2) if (v + w) % 3 == 0],
     [(0, 5)], 0),
    # (5,) is two vertices short of a row: one rescan, then the replay again
    ((0,), [(0, *X) for X in combinations(range(1, 9), 3) if sum(X) % 3 == 0], [(5,)], 1),
])
def test_replayed_kills_match_the_checked_scan(J, edges, explore, rebuilt):
    """Hand-driven k = 4 finders with vertex 9 on the path beside J. After a
    scan of J succeeds, the given j-sets are explored; every later scan of J
    answers as the checked scan does, and auto mode builds candidates again
    only for a kill of fewer than d-1 vertices outside J. Over the seeds, the
    row (0, 1, 2, 5) lies beyond the first cursor, in a gap, at least once."""
    H = ExplicitHypergraph(10, 4, edges)
    beyond = set()
    for seed in range(6):
        runs, builds = {}, []
        for mode in ("auto", "checked"):
            f = PathFinder(H, len(J), seed=seed, mode=mode)
            f.in_path[[*J, 9]] = True
            rec = ActiveRecord(J, 0)
            f.stack = [rec]
            res = f._scan(rec)
            steps = [res]
            for E in explore:
                f.stack.append(ActiveRecord(E, 0))
                f._explore_top()
            f._q4_mask = lambda J, cands, q4=f._q4_mask: builds.append(J) or q4(J, cands)
            while res[0] == "success":  # until J is exhausted
                res = f._scan(rec)
                steps.append((res, f.t, rec.cursor))
            runs[mode] = steps
        assert runs["auto"] == runs["checked"]
        assert len(builds) == rebuilt
        K, first = (0, 1, 2, 5), runs["auto"][0][1]
        beyond.add((chain64(f.sigk_key, K), K) > (chain64(f.sigk_key, first), first))
    assert True in beyond


def test_resumed_scans_break_priority_ties_on_K(monkeypatch):
    """With priorities cut to two bits most candidates tie, so the stored
    successes, the gap counts and the replayed kills, one row or one vertex
    short of a row (k = 3, j = 1), all order by K."""
    import tightpath.pathfinder as pf

    cands_hash, scalar_hash = Candidates.hash, pf.chain64
    monkeypatch.setattr(Candidates, "hash", lambda self, key: cands_hash(self, key) & np.uint64(3))
    monkeypatch.setattr(pf, "chain64", lambda key, K: scalar_hash(key, K) & 3)
    for n, k, j, p in [(14, 3, 2, 0.25), (12, 2, 1, 0.3), (10, 4, 3, 0.2), (9, 5, 4, 0.2),
                       (12, 3, 1, 0.1)]:
        for seed in range(2):
            H = generate_explicit(n, k, p, seed=seed)
            total = run(H, k, j, seed=seed, mode="checked").queries
            for b in range(1, total + 1, max(1, total // 12)):
                cfg = StoppingConfig(enabled=frozenset(), budget=b)
                for level in TRACE_LEVELS:
                    a, c = (run(H, k, j, seed=seed, stopping=cfg, mode=m, trace_level=level)
                            for m in ("auto", "checked"))
                    assert a.events == c.events
                    assert summary_no_ms(a) == summary_no_ms(c)


def test_resumed_vector_scans_query_no_backend():
    """Counting guard on lazy (3, 2) runs: bulk_query is called once per
    first scan with a live candidate and once per resumed scan that fell back
    to building its candidates, and never by a resumed scan answered from its
    record's stored state. (3, 2) has no multi-row kills and these runs no
    clock, so nothing falls back."""

    class Spy:
        def __init__(self, H):
            self.H, self.n, self.k, self.calls = H, H.n, H.k, 0

        def bulk_query(self, cols):
            self.calls += 1
            return self.H.bulk_query(cols)

    counts = {"first": 0, "resumed": 0, "fallback": 0, "dry": 0, "bulk_query": 0, "rebuilt": 0}

    class Finder(PathFinder):
        def _q4_mask(self, J, cands):  # every scan that builds candidates runs it
            counts["rebuilt"] += 1
            return super()._q4_mask(J, cands)

        def _scan_kernel(self, rec):
            kind, t, rebuilt = "first" if rec.cursor is None else "resumed", self.t, counts["rebuilt"]
            res = super()._scan_kernel(rec)
            counts[kind] += 1
            counts["fallback"] += kind == "resumed" and counts["rebuilt"] > rebuilt
            counts["dry"] += kind == "first" and self.t == t  # no live candidate: no query
            return res

    for seed in range(4):
        H = Spy(LazyHypergraph(60, 3, 0.02, seed=seed))
        finder = Finder(H, 2, seed=seed, trace_level="summary")
        assert finder.run().stop_reason == "exhausted"
        counts["bulk_query"] += H.calls
    assert counts["bulk_query"] == counts["first"] - counts["dry"] + counts["fallback"]
    assert counts["fallback"] == 0
    assert counts["resumed"] > counts["first"] // 4 > 0


def test_loose_summary_runs_build_no_subset_table(monkeypatch):
    """A lazy (3, 1) run that no clock cuts hashes its coins and priorities
    and unranks its successes without one gap table: hypergraph.subset_cols
    is never called."""
    import tightpath.hypergraph as hg

    calls, tables = [], hg.subset_cols
    monkeypatch.setattr(hg, "subset_cols", lambda xs, d: calls.append(d) or tables(xs, d))
    positives = 0
    for seed in range(3):
        tr = run(LazyHypergraph(40, 3, 0.01, seed=seed), 3, 1, seed=seed, trace_level="summary")
        assert tr.stop_reason == "exhausted"
        positives += tr.positives
    assert positives > 0
    assert calls == []


@st.composite
def search_cases(draw):
    k = draw(st.integers(2, 5))
    j = draw(st.integers(1, k - 1))
    n = draw(st.integers(k + 1, k + 5))
    p = draw(st.sampled_from([0.01, 0.03, 0.1, 0.3]))
    seed = draw(st.integers(0, 2**32 - 1))
    t = draw(st.integers(1, math.comb(n, k)))
    stop = draw(st.sampled_from([
        StoppingConfig.unbounded(),
        StoppingConfig(enabled=frozenset(), budget=t),
        StoppingConfig(T0=t, enabled=frozenset({"S2"})),
    ]))
    level = draw(st.sampled_from(["summary", "events", "full"]))
    return n, k, j, p, seed, stop, level


@given(search_cases())
@settings(deadline=None, max_examples=300)
def test_auto_generic_and_checked_runs_agree(case):
    """The vector scan (auto) and the generic scan (checked) give equal
    events, query events included, and summaries on random shapes,
    densities, cutoffs and trace levels."""
    n, k, j, p, seed, stop, level = case
    H = generate_explicit(n, k, p, seed=seed)
    a, c = (run(H, k, j, seed=seed, stopping=stop, mode=m, trace_level=level)
            for m in ("auto", "checked"))
    assert a.events == c.events
    assert summary_no_ms(a) == summary_no_ms(c)


def test_full_traces_agree_with_scan_order():
    """A full trace lists every query, and a full-trace vector scan stores no
    resume, so it derives each scan afresh: equal traces mean each query came
    in the generic scan's (priority, K) order, run to exhaustion."""
    cases = [(10, 3, 2, 0.15, seed) for seed in range(3)]
    cases += [(n, k, j, p, 1) for n, k, j, p in [(12, 5, 2, 0.05), (11, 3, 1, 0.05), (9, 4, 2, 0.06),
                                                 (8, 4, 3, 0.3), (8, 5, 3, 0.15)]]
    for n, k, j, p, seed in cases:
        H = generate_explicit(n, k, p, seed=seed)
        a, c = (run(H, k, j, seed=seed, mode=m, trace_level="full") for m in ("auto", "checked"))
        assert a.events == c.events, (n, k, j)
        assert summary_no_ms(a) == summary_no_ms(c)
        assert c.stop_reason == "exhausted" and c.positives > 0, (n, k, j)


def test_search_never_beats_the_oracle():
    for seed in range(15):
        H = generate_explicit(10, 3, 0.2, seed=seed)
        tr = run(H, 3, 2, seed=seed, mode="checked")
        assert tr.max_ell <= longest_path_exact(H, 2).length
    for seed in range(8):
        H = generate_explicit(10, 3, 0.08, seed=seed)
        tr = run(H, 3, 1, seed=seed, mode="checked")
        assert tr.max_ell <= longest_path_exact(H, 1).length


def test_batch_members_and_new_starts_follow_priority_order():
    sigj = derive_key(3, "sigma-j")
    H = generate_explicit(12, 5, 0.06, seed=2)
    tr = run(H, 5, 2, seed=3, mode="checked")
    starts = [tuple(ev["jset"]) for ev in tr.events if ev["event"] == "new_start"]
    keys = [(chain64(sigj, J), J) for J in starts]
    assert keys == sorted(keys)
    batches = [ev for ev in tr.events if ev["event"] == "batch"]
    assert any(len(ev["members"]) > 1 for ev in batches)
    for ev in batches:
        mk = [(chain64(sigj, tuple(J)), tuple(J)) for J in ev["members"]]
        assert mk == sorted(mk)


# -- stopping integration ------------------------------------------------------


def test_s1_stops_at_the_target_length():
    H = ExplicitHypergraph(12, 3, combinations(range(12), 3))
    cfg = StoppingConfig(target_length=3, enabled=frozenset({"S1"}))
    for mode in ("auto", "checked"):
        tr = run(H, 3, 2, seed=0, stopping=cfg, mode=mode)
        assert tr.stop_reason == "S1"
        assert tr.final_ell == tr.max_ell == 3
        assert tr.positives == 3


def test_s2_stops_on_the_query_clock():
    cfg = StoppingConfig(T0=5, enabled=frozenset({"S2"}))
    for mode in ("auto", "checked"):
        tr = run(empty_H(8), 3, 2, seed=1, stopping=cfg, mode=mode)
        assert tr.stop_reason == "S2"
        assert tr.queries == 5


def test_budget_stops_and_is_reported_separately():
    cfg = StoppingConfig(enabled=frozenset(), budget=7)
    for mode in ("auto", "checked"):
        tr = run(empty_H(8), 3, 2, seed=1, stopping=cfg, mode=mode)
        assert tr.stop_reason == "budget"
        assert tr.queries == 7


def test_s2_takes_precedence_over_budget():
    cfg = StoppingConfig(T0=5, enabled=frozenset({"S2"}), budget=5)
    tr = run(empty_H(8), 3, 2, seed=1, stopping=cfg)
    assert tr.stop_reason == "S2"


def test_unbounded_runs_to_exhaustion():
    tr = run(empty_H(6), 3, 2, seed=0)
    assert tr.stop_reason == "exhausted"


def test_run_time_includes_construction(monkeypatch):
    build = _NeutralStream.__init__

    def slow_build(self, *args):
        time.sleep(0.05)
        build(self, *args)

    monkeypatch.setattr(_NeutralStream, "__init__", slow_build)
    assert run(empty_H(6), 3, 2, seed=0).ms >= 50


def test_run_rejects_reentry_and_bad_arguments():
    finder = PathFinder(empty_H(6), j=2)
    finder.run()
    with pytest.raises(RuntimeError):
        finder.run()
    with pytest.raises(ValueError):
        run(empty_H(6), 4, 2)  # arity mismatch with the backend
    with pytest.raises(ValueError):
        run(empty_H(6), 3, 0)
    with pytest.raises(ValueError):
        run(empty_H(6), 3, 3)
    for mode in ("bogus", "generic"):
        with pytest.raises(ValueError):
            PathFinder(empty_H(6), j=2, mode=mode)
    with pytest.raises(ValueError):
        PathFinder(empty_H(6), j=2, trace_level="everything")


# -- traces ---------------------------------------------------------------------


def test_trace_jsonl_roundtrip(tmp_path):
    H = generate_explicit(12, 3, 0.2, seed=5)
    tr = run(H, 3, 2, seed=5, trace_level="full")
    path = tmp_path / "t.jsonl"
    tr.write_jsonl(path)
    back = RunTrace.read_jsonl(path)
    assert back.header() == tr.header()
    assert back.events == tr.events
    assert back.summary() == tr.summary()
    assert replay_trace(back, H)


@pytest.mark.parametrize("backend", [LazyHypergraph, generate_explicit])
def test_numpy_integer_arguments_write_the_python_int_trace(tmp_path, backend):
    def jsonl(n, j, seed):
        tr = run(backend(n, 3, 0.3, seed), 3, j, seed=seed, trace_level="full")
        tr.ms = 0.0
        path = tmp_path / "t.jsonl"
        tr.write_jsonl(path)
        return path.read_text()

    got = jsonl(np.int64(12), np.int64(2), np.int64(5))
    assert got == jsonl(12, 2, 5)
    assert '"event": "extend"' in got
    with pytest.raises(TypeError):
        run(backend(12, 3, 0.3, 5), 3, 2, seed=5.0)


def test_replay_verifies_against_the_backend():
    H = generate_explicit(12, 3, 0.2, seed=6)
    tr = run(H, 3, 2, seed=6, trace_level="full")
    assert replay_trace(tr, H)
    other = generate_explicit(12, 3, 0.2, seed=7)
    with pytest.raises(ValueError):
        replay_trace(tr, other)  # some outcome must differ
    with pytest.raises(ValueError):
        replay_trace(tr, generate_explicit(13, 3, 0.2, seed=6))


def test_replay_catches_tampering():
    H = generate_explicit(12, 3, 0.2, seed=8)
    tr = run(H, 3, 2, seed=8, trace_level="full")
    qi = next(i for i, ev in enumerate(tr.events) if ev["event"] == "query")
    tr.events[qi] = {**tr.events[qi], "outcome": not tr.events[qi]["outcome"]}
    with pytest.raises(ValueError):
        replay_trace(tr, H)
    tr2 = run(H, 3, 2, seed=8, trace_level="full")
    tr2.queries += 1
    with pytest.raises(ValueError):
        replay_trace(tr2, H)


def test_replay_summary_and_events_levels():
    H = generate_explicit(10, 3, 0.2, seed=9)
    assert replay_trace(run(H, 3, 2, seed=9, trace_level="summary"), H)
    assert replay_trace(run(H, 3, 2, seed=9, trace_level="events"), H)


def test_read_jsonl_rejects_malformed_files(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"kind": "nonsense"}\n{"kind": "summary"}\n')
    with pytest.raises(ValueError):
        RunTrace.read_jsonl(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty trace file"):
        RunTrace.read_jsonl(p)
    H = generate_explicit(8, 3, 0.2, seed=0)
    tr = run(H, 3, 2, seed=0)
    tr.write_jsonl(p)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-1]) + "\n")  # drop the summary line
    with pytest.raises(ValueError):
        RunTrace.read_jsonl(p)
    for at, key in ((-1, "max_ell"), (0, "mode")):  # a summary or header key missing
        broken = list(lines)
        line = json.loads(broken[at])
        del line[key]
        broken[at] = json.dumps(line)
        p.write_text("\n".join(broken) + "\n")
        with pytest.raises(ValueError, match=key):
            RunTrace.read_jsonl(p)


# -- completeness of the skip rules ----------------------------------------------


def assert_no_missed_candidates(trace):
    """Replay a full trace; every queried candidate must be disjoint from the
    path and contain no explored j-set, and when a j-set J retires, every
    unqueried candidate disjoint from the path must contain some other
    already-explored j-set."""
    n, k, j = trace.n, trace.k, trace.j
    d = k - j
    path: set[int] = set()
    fresh_stack: list[list[int]] = []
    queried: dict[tuple, set] = {}
    explored: set[tuple] = set()
    for ev in trace.events:
        kind = ev["event"]
        if kind == "new_start":
            path = set(ev["jset"])
            fresh_stack = []
        elif kind == "query":
            J = tuple(ev["jset"])
            X = tuple(sorted(set(ev["edge"]) - set(J)))
            assert path.isdisjoint(X), f"candidate {X} of {J} meets the path"
            assert explored.isdisjoint(combinations(ev["edge"], j)), f"candidate {X} of {J} is Q4-dead"
            queried.setdefault(J, set()).add(X)
        elif kind == "extend":
            fresh = [v for v in ev["edge"] if v not in path]
            fresh_stack.append(fresh)
            path.update(fresh)
        elif kind == "edge_removed":
            for v in fresh_stack.pop():
                path.remove(v)
        elif kind == "explored":
            J = tuple(ev["jset"])
            got = queried.get(J, set())
            outside = [v for v in range(n) if v not in path]
            for X in combinations(outside, d):
                if X in got:
                    continue
                K = tuple(sorted(set(J) | set(X)))
                assert any(
                    sub != J and sub in explored for sub in combinations(K, j)
                ), f"candidate {X} of {J} neither queried nor blocked"
            explored.add(J)
    assert len(explored) == trace.explored


def rebuilt_explored_by(finder):
    """T -> sorted [E \\ T] over explored j-sets E and their subsets T with
    1 <= |E \\ T| <= min(j, k-j), from the explored set alone."""
    index = {}
    for E in finder.explored:
        for i in range(1, min(finder.j, finder.d) + 1):
            for S in combinations(E, i):
                index.setdefault(tuple(v for v in E if v not in S), []).append(S)
    return {T: sorted(parts) for T, parts in index.items()}


def test_every_skipped_candidate_is_justified():
    """Both scans drop Q4-dead candidates through the explored-by index; the
    trace replay checks each query and each skip against explored j-sets alone,
    in both modes over all nine (k, j) with k <= 5."""
    cases = [(9, 3, 2, 0.25), (10, 3, 2, 0.15), (12, 3, 1, 0.04), (10, 4, 2, 0.08),
             (10, 4, 1, 0.012), (9, 4, 3, 0.5), (9, 5, 1, 0.01), (9, 5, 2, 0.03),
             (9, 5, 3, 0.1), (9, 5, 4, 0.6)]
    for (n, k, j, p), mode in product(cases, ("auto", "checked")):
        for seed in range(6):
            H = generate_explicit(n, k, p, seed=seed)
            finder = PathFinder(H, j, seed=seed, mode=mode, trace_level="full")
            tr = finder.run()
            assert tr.stop_reason == "exhausted"
            assert_no_missed_candidates(tr)
            index = {T: sorted(parts) for T, parts in finder.explored_by.items()}
            assert index == rebuilt_explored_by(finder)


# -- pinned traces -----------------------------------------------------------------


def trace_digest(traces):
    """sha256 over each trace's header, events and summary without ms."""
    h = hashlib.sha256()
    for tr in traces:
        for line in (tr.header(), *tr.events, summary_no_ms(tr)):
            h.update(json.dumps(line, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


PINNED_DIGEST = "3c066be99b164e94cf56aa68a6ac6f770d1faf45ce9f47e59f817d5481161be7"


def test_full_traces_match_the_pinned_digest():
    """Full traces of both engines on small explicit instances of every (k, j)
    with 3 <= k <= 5, unbounded and cut by a budget, hash to a pinned digest.
    The engine differentials compare the two engines with each other; this
    pins the code they share (extension, batch activation and order, edge
    removal, the explored-by index, the neutral stream) as well."""
    def traces():
        for k in (3, 4, 5):
            for j in range(1, k):
                for n, c, seed in product((9, 11), (0.5, 2.0), (0, 1)):
                    H = generate_explicit(n, k, c * threshold_p0(n, k, j), seed=seed)
                    for mode, budget in product(("auto", "checked"), (None, 41)):
                        yield run(H, k, j, seed=seed, stopping=StoppingConfig.unbounded(budget),
                                  mode=mode, trace_level="full")
    assert trace_digest(traces()) == PINNED_DIGEST


# -- neutral stream ----------------------------------------------------------------


def brute_priority(n, j, key):
    return sorted(combinations(range(n), j), key=lambda t: (chain64(key, t), t))


def test_neutral_stream_small_universe_order():
    key = derive_key(13, "sigma-j")
    stream = _NeutralStream(12, 2, key, set())
    got = []
    while (row := stream.pop()) is not None:
        got.append(row)
    assert got == brute_priority(12, 2, key)


def test_neutral_stream_skips_discovered():
    key = derive_key(4, "sigma-j")
    order = brute_priority(10, 2, key)
    discovered = set(order[::2])
    stream = _NeutralStream(10, 2, key, discovered)
    first = stream.pop()
    assert first == order[1]
    discovered.add(order[3])  # discovered mid-flight, before the pointer gets there
    assert stream.pop() == order[5]


def pop_all(stream):
    """Every row the stream yields, each marked discovered as the search does."""
    got = []
    while (row := stream.pop()) is not None:
        stream.discovered.add(row)
        got.append(row)
    return got


# (n, j) universes in which, for j >= 2, a first vertex's run of
# C(n-1, j-1) rows is longer than a 5-row slice, and for j >= 3 than a
# 64-row one too
STREAM_SHAPES = [(13, 1), (13, 2), (13, 3), (10, 4)]


@pytest.mark.parametrize("block", [5, 64, None])
@pytest.mark.parametrize("n, j", STREAM_SHAPES)
def test_neutral_stream_matches_brute_order(monkeypatch, n, j, block):
    """Slice edges inside first-vertex runs, across them, and a run longer
    than a slice change nothing: the stream is the brute (priority, J) order,
    and no slice hashes more than BLOCK rows."""
    import tightpath.hypergraph as hg

    if block is not None:
        monkeypatch.setattr(hg, "BLOCK", block)
    slice_rows = []

    def spy(key, cols):
        if np.ndim(key):  # a slice's tails against its repeated prefix states
            slice_rows.append(np.size(key))
        return chain64_np(key, cols)

    monkeypatch.setattr(hg, "chain64_np", spy)
    for seed in (1, 2, 3):
        key = derive_key(seed, "sigma-j")
        assert pop_all(_NeutralStream(n, j, key, set())) == brute_priority(n, j, key)
    assert max(slice_rows, default=0) <= hg.BLOCK
    assert sum(slice_rows) == (3 * math.comb(n, j) if j > 1 else 0)


def spy_bands(monkeypatch):
    """The number of rows in each band the stream builds, in build order."""
    sizes = []
    band = _NeutralStream._band

    def spy(self):
        rows = list(band(self))
        sizes.append(len(rows))
        return iter(rows)

    monkeypatch.setattr(_NeutralStream, "_band", spy)
    return sizes


@pytest.mark.parametrize("block", [5, 64])
@pytest.mark.parametrize("n, j", STREAM_SHAPES)
def test_neutral_stream_small_bands_cover_the_universe_once(monkeypatch, n, j, block):
    """Bands about 3 rows wide, then 4x wider each, cover the universe once,
    with slices full of rows outside the band being built; the pops are the
    brute (priority, J) order."""
    import tightpath.hypergraph as hg
    import tightpath.pathfinder as pf

    monkeypatch.setattr(pf, "BAND", 3)
    monkeypatch.setattr(hg, "BLOCK", block)
    sizes = spy_bands(monkeypatch)
    key = derive_key(8, "sigma-j")
    stream = _NeutralStream(n, j, key, set())
    assert len(sizes) == 1 and sizes[0] < math.comb(n, j)
    assert pop_all(stream) == brute_priority(n, j, key)
    assert len(sizes) > 1 and sum(sizes) == math.comb(n, j)


def test_neutral_stream_crosses_into_the_next_band(monkeypatch):
    """C(2000,2) is far over BAND, so 10 000 pops cross from the first hash
    band into the next and keep the (priority, J) order across it."""
    from tightpath.hypergraph import unrank_colex

    n, j, m = 2000, 2, 10_000
    key = derive_key(21, "sigma-j")
    total = math.comb(n, j)
    cols = unrank_colex(np.arange(total, dtype=np.int64), j, n)
    h = chain64_np(key, [cols[:, 0], cols[:, 1]])
    order = np.lexsort((cols[:, 1], cols[:, 0], h))
    expected = [tuple(int(v) for v in cols[i]) for i in order[:m]]

    sizes = spy_bands(monkeypatch)
    discovered: set = set()
    stream = _NeutralStream(n, j, key, discovered)
    got = []
    for _ in range(m):
        row = stream.pop()
        discovered.add(row)
        got.append(row)
    assert got == expected
    assert len(sizes) == 2 and sizes[0] < m < sum(sizes)


def test_neutral_stream_never_yields_an_unmarked_pop_again():
    """A pop the caller does not mark discovered is not yielded again, in
    its band or a later one: 10 000 unmarked pops at (2000, 2) run past the
    first band and equal the pops of a stream whose caller marks them."""
    n, j, m = 2000, 2, 10_000
    key = derive_key(21, "sigma-j")
    marked = _NeutralStream(n, j, key, set())
    want = []
    for _ in range(m):
        want.append(marked.pop())
        marked.discovered.add(want[-1])
    unmarked = _NeutralStream(n, j, key, set())
    got = [unmarked.pop() for _ in range(m)]
    assert not unmarked.discovered
    assert len(set(got)) == m and got == want
