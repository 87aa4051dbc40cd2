"""Brute-force reference computations: z counts, longest paths, class counts."""

import math
import random
from itertools import combinations

import numpy as np
import pytest

from tightpath import oracle
from tightpath._rng import BLOCK
from tightpath.combinatorics import JTightPath, path_vertex_count, threshold_p0, z_ell
from tightpath.hypergraph import ExplicitHypergraph, generate_explicit, sample_explicit
from tightpath.oracle import (
    OracleResult,
    enumerate_path_classes,
    expectation_monte_carlo,
    longest_path_exact,
    z_ell_bruteforce,
)

from oracles import edge_sets, relabeled


def complete_hypergraph(n, k):
    return ExplicitHypergraph(n, k, combinations(range(n), k))


def chain_hypergraph(n, k, j, ell):
    """Exactly the edges of one j-tight path on 0..v-1, nothing else."""
    path = JTightPath(k, j, tuple(range(path_vertex_count(k, j, ell))))
    return ExplicitHypergraph(n, k, path.edges()), path


def test_z_bruteforce_hand_checked_points():
    # ell=1: all k! orderings of a single edge share its edge set
    assert z_ell_bruteforce(2, 1, 1) == 2
    assert z_ell_bruteforce(3, 2, 1) == 6
    assert z_ell_bruteforce(4, 1, 1) == 24
    # k=3, j=2, ell=2 on vertices 0..3: the first window must be one of
    # the two edges and the last window the other, pinning the end
    # vertices; the middle pair is free. 2 directions * 2 = 4
    assert z_ell_bruteforce(3, 2, 2) == 4
    # k=4, j=2, ell=2: ends are ordered pairs, middle is the shared pair:
    # 2 directions * 2 * 2 * 2 = 16
    assert z_ell_bruteforce(4, 2, 2) == 16


# z at v(ell) in {10, 11}, recorded from the earlier permutation backtracking;
# the points with ell < s + 2 have no closed form to check them
Z_PINS_V10_V11 = {
    (2, 1, 9): 2, (2, 1, 10): 2, (3, 1, 5): 8, (3, 2, 8): 2, (3, 2, 9): 2,
    (4, 1, 3): 144, (4, 2, 4): 64, (4, 3, 7): 2, (4, 3, 8): 2, (5, 2, 3): 288,
    (5, 3, 4): 32, (5, 4, 6): 2, (5, 4, 7): 2, (6, 1, 2): 28800, (6, 2, 2): 2304,
    (6, 4, 3): 64, (6, 5, 5): 4, (6, 5, 6): 2, (7, 3, 2): 6912, (7, 4, 2): 1728,
    (7, 5, 3): 192, (7, 6, 4): 48, (7, 6, 5): 12,
}


@pytest.mark.parametrize("k,j,ell", sorted(Z_PINS_V10_V11))
def test_z_bruteforce_pinned_at_ten_and_eleven_vertices(k, j, ell):
    assert path_vertex_count(k, j, ell) in (10, 11)
    assert z_ell_bruteforce(k, j, ell) == Z_PINS_V10_V11[k, j, ell]


def test_z_bruteforce_rejects_large_paths():
    assert path_vertex_count(6, 2, 3) > 11
    with pytest.raises(ValueError):
        z_ell_bruteforce(6, 2, 3)


def test_longest_path_empty_hypergraph():
    res = longest_path_exact(ExplicitHypergraph(5, 3, []), j=2)
    assert isinstance(res, OracleResult)
    assert res.length == 0
    assert res.witness.ell == 0
    assert not res.censored


def test_longest_path_on_a_bare_chain():
    for k, j, ell in [(3, 2, 4), (3, 1, 3), (4, 2, 3), (5, 3, 3)]:
        H, path = chain_hypergraph(path_vertex_count(k, j, ell) + 2, k, j, ell)
        res = longest_path_exact(H, j)
        assert res.length == ell
        assert edge_sets(res.witness) == edge_sets(path)


def test_longest_path_complete_small():
    H = complete_hypergraph(4, 3)
    # 4 vertices hold a 2-path for j=2 (v=4) but only a single edge for j=1
    assert longest_path_exact(H, 2).length == 2
    assert longest_path_exact(H, 1).length == 1


def test_witness_is_a_path_in_the_instance():
    for seed in range(10):
        H = generate_explicit(9, 3, 0.25, seed=seed)
        res = longest_path_exact(H, 2)
        assert res.witness.ell == res.length
        assert edge_sets(res.witness) <= {frozenset(e) for e in H.edges}


def test_dfs_and_levels_agree():
    """The two enumeration strategies are interchangeable when k-j == 1."""
    for k, n, p, seeds in [(2, 14, 0.15, 10), (3, 10, 0.2, 30), (4, 9, 0.1, 10), (5, 9, 0.06, 6)]:
        for seed in range(seeds):
            H = generate_explicit(n, k, p, seed=seed)
            a = oracle._longest_path_dfs(H, k - 1, 5_000_000)
            b = oracle._longest_path_levels(H, k - 1, 5_000_000)
            assert a.length == b.length
            assert not a.censored and not b.censored
            assert edge_sets(b.witness) <= {frozenset(e) for e in H.edges}


# (length, nodes, censored, witness) of the levels oracle, recorded before its
# completion lookup became a group-id index; budgets unbounded, one below the
# full count (censors in the last level) and half way (censors in level 2)
LEVELS_PINS = {
    (2, "gen", 5_000_000): (14, 1618, False, (23, 8, 4, 10, 26, 15, 38, 20, 30, 29, 12, 17, 7, 11, 14)),
    (2, "gen", 1617): (14, 1616, True, (23, 8, 4, 10, 26, 15, 38, 20, 30, 29, 12, 17, 7, 11, 14)),
    (2, "gen", 838): (5, 682, True, (34, 2, 38, 15, 26, 4)),
    (2, "smp", 5_000_000): (6, 772, False, (112, 48, 87, 7, 132, 92, 149)),
    (2, "smp", 771): (6, 770, True, (112, 48, 87, 7, 132, 92, 149)),
    (2, "smp", 462): (2, 416, True, (17, 5, 114)),
    (3, "gen", 5_000_000): (4, 1026, False, (19, 0, 2, 15, 11, 14)),
    (3, "gen", 1025): (4, 1008, True, (19, 0, 2, 15, 11, 14)),
    (3, "gen", 657): (1, 288, True, (15, 0, 2)),
    (3, "smp", 5_000_000): (3, 1372, False, (86, 35, 74, 11, 70)),
    (3, "smp", 1371): (3, 1370, True, (86, 35, 74, 11, 70)),
    (3, "smp", 1010): (1, 648, True, (76, 0, 4)),
    (4, "gen", 5_000_000): (5, 3563, False, (0, 2, 4, 11, 10, 6, 12, 13)),
    (4, "gen", 3562): (5, 3551, True, (0, 2, 4, 11, 10, 6, 12, 13)),
    (4, "gen", 2381): (1, 1200, True, (7, 0, 1, 2)),
    (4, "smp", 5_000_000): (2, 5016, False, (49, 0, 19, 31, 16)),
    (4, "smp", 5015): (2, 4980, True, (49, 0, 19, 31, 16)),
    (4, "smp", 3744): (1, 2472, True, (30, 0, 2, 5)),
    (5, "gen", 5_000_000): (5, 11454, False, (1, 0, 9, 3, 2, 6, 10, 4, 7)),
    (5, "gen", 11453): (5, 11450, True, (1, 0, 9, 3, 2, 6, 10, 4, 7)),
    (5, "gen", 7947): (1, 4440, True, (9, 0, 1, 2, 3)),
    (5, "smp", 5_000_000): (2, 23424, False, (24, 0, 1, 4, 11, 29)),
    (5, "smp", 23423): (2, 23232, True, (24, 0, 1, 4, 11, 29)),
    (5, "smp", 17472): (1, 11520, True, (24, 0, 1, 4, 11)),
}
PIN_INSTANCES = {
    (2, "gen"): lambda: generate_explicit(40, 2, 0.04, seed=1),
    (2, "smp"): lambda: sample_explicit(150, 2, 0.006, seed=1),
    (3, "gen"): lambda: generate_explicit(22, 3, 0.03, seed=1),
    (3, "smp"): lambda: sample_explicit(100, 3, 6e-4, seed=1),
    (4, "gen"): lambda: generate_explicit(15, 4, 0.04, seed=1),
    (4, "smp"): lambda: sample_explicit(50, 4, 4e-4, seed=1),
    (5, "gen"): lambda: generate_explicit(12, 5, 0.05, seed=1),
    (5, "smp"): lambda: sample_explicit(30, 5, 6e-4, seed=1),
}


def test_levels_oracle_outputs_are_pinned():
    for (k, kind, budget), want in LEVELS_PINS.items():
        res = oracle._longest_path_levels(PIN_INSTANCES[k, kind](), k - 1, budget)
        got = (res.length, res.nodes, res.censored, tuple(res.witness.vertices))
        assert got == want, (k, kind, budget)


def test_dfs_oracle_outputs_are_pinned():
    """(length, nodes, censored, witness) of the DFS oracle, which walks the
    edges in sorted row order; recorded when that walk replaced one in the
    iteration order of ``H.edges`` (uncensored lengths and counts unchanged)."""
    for (n, k, j, p, seed, budget), want in {
        (11, 5, 2, 0.02, 26, 1000): (3, 1001, True, (4, 6, 7, 0, 9, 10, 1, 8, 2, 3, 5)),
        (11, 5, 2, 0.02, 26, 10**6): (3, 1884, False, (4, 6, 7, 0, 9, 10, 1, 8, 2, 3, 5)),
        (11, 5, 3, 0.03, 20, 1000): (4, 1001, True, (6, 9, 5, 8, 0, 3, 1, 2, 7, 4, 10)),
    }.items():
        H = generate_explicit(n, k, p, seed=seed)
        res = oracle._longest_path_dfs(H, j, budget)
        assert (res.length, res.nodes, res.censored, tuple(res.witness.vertices)) == want


@pytest.mark.parametrize("n,k,j,p,seed", [(12, 3, 1, 0.04, 2), (11, 5, 2, 0.02, 26), (11, 5, 3, 0.03, 20)])
def test_censored_dfs_counts_the_tripping_node_only(n, k, j, p, seed):
    """A censored DFS run stops at its first attempt past the budget."""
    H = generate_explicit(n, k, p, seed=seed)
    full = oracle._longest_path_dfs(H, j, 10**7)
    assert not full.censored and full.nodes > 100
    for budget in [*range(0, full.nodes, full.nodes // 40), full.nodes - 1, full.nodes]:
        res = oracle._longest_path_dfs(H, j, budget)
        assert res.censored == (budget < full.nodes), budget
        assert res.nodes == (budget + 1 if res.censored else full.nodes), budget
        assert res.length <= full.length


@pytest.mark.parametrize("n,k,j,p,seed", [(12, 3, 1, 0.04, 2), (11, 5, 3, 0.03, 20)])
def test_dfs_and_class_counts_depend_on_the_edge_set_alone(tmp_path, n, k, j, p, seed):
    edges = [tuple(e) for e in generate_explicit(n, k, p, seed=seed).edge_array().tolist()]
    shuffled = list(edges)
    random.Random(seed).shuffle(shuffled)
    H = ExplicitHypergraph(n, k, edges)
    H.write_text(str(tmp_path / "h.txt"))
    variants = [ExplicitHypergraph(n, k, shuffled), ExplicitHypergraph(n, k, edges[::-1]),
                ExplicitHypergraph(n, k, np.array(shuffled)),
                ExplicitHypergraph.read_text(str(tmp_path / "h.txt"))]
    for budget in (500, 10**7):
        want = oracle._longest_path_dfs(H, j, budget)
        assert all(oracle._longest_path_dfs(V, j, budget) == want for V in variants)
    for ell in (1, 2, 3):
        want = enumerate_path_classes(H, j, ell)
        assert all(enumerate_path_classes(V, j, ell) == want for V in variants)


@pytest.mark.parametrize("k,j,n", [(3, 1, 16), (3, 2, 11), (4, 3, 10)])
def test_exact_optimum_is_monotone_in_p(k, j, n):
    """One seed's generate_explicit instances are nested in p (the coin
    threshold is monotone in p), so the exact optimum cannot fall as c grows."""
    p0 = threshold_p0(n, k, j)
    grew = False
    for seed in range(30):
        lengths = []
        for c in (0.5, 1, 1.5, 2, 3):
            res = longest_path_exact(generate_explicit(n, k, c * p0, seed=seed), j,
                                     node_budget=10**6)
            assert not res.censored, (seed, c)
            lengths.append(res.length)
        assert lengths == sorted(lengths), (seed, lengths)
        grew |= lengths[0] < lengths[-1]
    assert grew


def test_levels_oracle_refuses_vertices_past_int32():
    """At n >= 2**31 the levels oracle's int32 vertex columns would wrap, so
    longest_path_exact runs the DFS there even though k-j == 1."""
    n = 3 * 10**9
    H = ExplicitHypergraph(n, 2, [(0, 5), (5, n - 1)])
    res = longest_path_exact(H, 1)
    assert (res.length, res.witness.vertices, res.censored) == (2, (0, 5, n - 1), False)


def test_node_budget_censors():
    H = complete_hypergraph(7, 3)
    res = longest_path_exact(H, 2, node_budget=1)
    assert res.censored
    assert res.nodes > 1 or res.length == 0
    full = longest_path_exact(H, 2)
    assert not full.censored
    assert full.length >= res.length


def test_negative_node_budget_is_refused():
    H = generate_explicit(8, 3, 0.5, seed=1)
    for j in (1, 2):  # the DFS, then the levels oracle
        with pytest.raises(ValueError, match="node_budget"):
            longest_path_exact(H, j, node_budget=-1)


def test_censored_levels_run_counts_level_one_whole():
    # level 1 holds 138 nodes here; every smaller budget still reports them
    H = generate_explicit(8, 3, 0.5, seed=1)
    for budget in range(138):
        res = oracle._longest_path_levels(H, 2, budget)
        assert (res.censored, res.nodes) == (True, 138), budget
    full = oracle._longest_path_levels(H, 2, 5_000_000)
    assert not full.censored and full.nodes > 138


@pytest.mark.parametrize("block", [1, 3, 64])
def test_levels_oracle_is_unchanged_across_slice_boundaries(monkeypatch, block):
    """Slices of 1, 3 and 64 source rows cut every level, so the pins (censored
    ones included), the DFS agreement and level one's censored count must
    hold as at the default BLOCK."""
    monkeypatch.setattr(oracle, "BLOCK", block)
    test_levels_oracle_outputs_are_pinned()
    test_dfs_and_levels_agree()
    test_censored_levels_run_counts_level_one_whole()


@pytest.mark.parametrize("block", [1, 3, BLOCK])
@pytest.mark.parametrize("k, n", [(2, 7), (3, 5), (3, 8), (4, 7), (5, 7)])
def test_levels_oracle_counts_the_entry_it_skips(monkeypatch, block, k, n):
    """On the complete k-graph with j = k - 1 every vertex sequence is a path
    and every group holds n - j entries, so the entry a row came through sits
    at each position of its group. Its completion is never fresh and is
    skipped, but every row still counts all n - j completions as nodes."""
    monkeypatch.setattr(oracle, "BLOCK", block)
    res = oracle._longest_path_levels(complete_hypergraph(n, k), k - 1, 5_000_000)
    nodes = math.perm(n, k) + (n - k + 1) * sum(math.perm(n, v) for v in range(k, n + 1))
    assert (res.length, res.nodes, res.censored) == (n - k + 1, nodes, False)
    assert res.witness.ell == res.length and sorted(res.witness.vertices) == list(range(n))


@pytest.mark.parametrize("n", [300, 600])
def test_levels_oracle_memory_follows_its_rows(traced_peak, n):
    """tracemalloc's peak over the levels oracle beyond H, at (3, 2) and
    c = 0.7, is at most 64 B per level-1 row (6 m of them) plus 64 B per
    source row of one BLOCK-row slice: no index array is sized by a level's
    candidates."""
    H = sample_explicit(n, 3, 0.7 * threshold_p0(n, 3, 2), seed=7)
    res, peak = traced_peak(oracle._longest_path_levels, H, 2, 5_000_000)
    assert not res.censored and res.nodes > 6 * H.edge_count
    assert peak <= 64 * 6 * H.edge_count + 64 * BLOCK, peak / (6 * H.edge_count)


def test_longest_path_relabel_invariant():
    perm = [5, 9, 0, 7, 3, 8, 1, 6, 2, 4]
    for seed in range(5):
        H = generate_explicit(10, 3, 0.15, seed=seed)
        assert longest_path_exact(H, 2).length == longest_path_exact(relabeled(H, perm), 2).length


def test_class_counts_length_zero():
    H = generate_explicit(8, 3, 0.3, seed=4)
    assert enumerate_path_classes(H, 2, 0) == (math.comb(8, 2), math.perm(8, 2))


def test_class_counts_complete_pairs():
    # shared j-set (C(5,2) choices) plus an unordered pair of distinct
    # third vertices (C(3,2)): 10 * 3 = 30 two-edge paths
    H = complete_hypergraph(5, 3)
    classes, labeled = enumerate_path_classes(H, 2, 2)
    assert classes == 30
    assert labeled == 30 * z_ell(3, 2, 2)


def test_two_edge_classes_are_edge_pairs_meeting_in_j_vertices():
    """A 2-path is exactly an unordered pair of edges that share j vertices."""
    for k, j in [(3, 2), (3, 1), (4, 2)]:
        for seed in range(4):
            H = generate_explicit(9, k, 0.25, seed=seed)
            pairs = sum(len(set(e) & set(f)) == j for e, f in combinations(H.edge_array().tolist(), 2))
            classes, labeled = enumerate_path_classes(H, j, 2)
            assert classes == pairs > 0, (k, j, seed)
            assert labeled == pairs * z_ell(k, j, 2)


def test_class_counts_complete_permutation_identity():
    """On a complete instance every v-sequence is a path: labeled = (n)_v."""
    for n, k, j, ell in [(6, 3, 2, 3), (6, 3, 2, 4), (8, 4, 2, 3), (7, 3, 1, 3)]:
        H = complete_hypergraph(n, k)
        classes, labeled = enumerate_path_classes(H, j, ell)
        v = path_vertex_count(k, j, ell)
        assert labeled == math.perm(n, v)
        assert classes * z_ell(k, j, ell) == labeled


def test_class_counts_random_instances_match_z():
    for seed in range(8):
        H = generate_explicit(9, 3, 0.3, seed=seed)
        for ell in (1, 2, 3):
            classes, labeled = enumerate_path_classes(H, 2, ell)
            assert labeled == classes * z_ell(3, 2, ell)
    for seed in range(4):
        H = generate_explicit(9, 4, 0.2, seed=seed)
        classes, labeled = enumerate_path_classes(H, 2, 2)
        assert labeled == classes * z_ell(4, 2, 2)


def test_class_counts_one_edge_paths_count_edges():
    for seed in range(5):
        H = generate_explicit(8, 3, 0.4, seed=seed)
        classes, labeled = enumerate_path_classes(H, 2, 1)
        assert classes == H.edge_count
        assert labeled == H.edge_count * math.factorial(3)


def test_monte_carlo_degenerate_p():
    mean, se = expectation_monte_carlo(7, 3, 2, 2, 0.0, samples=50, seed=1)
    assert (mean, se) == (0.0, 0.0)
    # p=1 is deterministic: every sample is the complete hypergraph
    mean, se = expectation_monte_carlo(6, 3, 2, 2, 1.0, samples=20, seed=1)
    assert se == 0.0
    assert mean == math.comb(6, 2) * math.comb(4, 2)


def test_monte_carlo_single_edges():
    mean, se = expectation_monte_carlo(6, 3, 2, 1, 0.5, samples=4000, seed=2)
    assert se > 0
    assert abs(mean - 0.5 * math.comb(6, 3)) <= 3 * se


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        expectation_monte_carlo(13, 3, 2, 2, 0.1, samples=10, seed=0)
    with pytest.raises(ValueError):
        expectation_monte_carlo(8, 3, 2, 2, 0.1, samples=0, seed=0)
