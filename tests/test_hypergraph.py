"""Edge-oracle backends: stored, lazy-coin, and rank-sampled."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import tightpath
from tightpath._rng import BLOCK, chain64, chain64_np
from tightpath.combinatorics import threshold_p0
from tightpath.hypergraph import (
    ENUMERATION_BUDGET,
    Candidates,
    EnumerationBudgetError,
    ExplicitHypergraph,
    LazyHypergraph,
    _binom_quantile,
    _sampled_edge_count,
    canonical_kset,
    generate_explicit,
    pack_rows,
    sample_explicit,
    select_subsets,
    unrank_colex,
)


def all_ksets(n, k):
    return list(itertools.combinations(range(n), k))


def test_generate_explicit_extremes():
    full = generate_explicit(7, 3, 1.0, seed=1)
    assert full.edge_count == math.comb(7, 3)
    assert full.edges == frozenset(all_ksets(7, 3))
    empty = generate_explicit(7, 3, 0.0, seed=1)
    assert empty.edge_count == 0


def test_generate_explicit_edge_count_mean():
    # X ~ Bin(C(20,3), 0.1): mean 114, sd 10.13; mean of 1000 draws
    # has se 0.32, so a 3-sigma band is +-0.96
    n, k, p = 20, 3, 0.1
    total = math.comb(n, k)
    counts = [generate_explicit(n, k, p, seed=s).edge_count for s in range(1000)]
    mean = sum(counts) / len(counts)
    se = math.sqrt(total * p * (1 - p) / len(counts))
    assert abs(mean - total * p) < 3 * se


def test_canonical_validation():
    assert canonical_kset([1, 4, 7]) == (1, 4, 7)
    with pytest.raises(ValueError):
        canonical_kset([4, 1, 7])
    with pytest.raises(ValueError):
        canonical_kset([1, 1, 7])
    H = ExplicitHypergraph(6, 3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        H.query_edge((0, 1))  # wrong arity
    with pytest.raises(ValueError):
        H.query_edge((0, 2, 6))  # out of range
    with pytest.raises(ValueError):
        H.query_edge((2, 1, 3))  # not increasing
    with pytest.raises(ValueError):
        ExplicitHypergraph(6, 3, [(0, 1, 9)])
    with pytest.raises(ValueError):
        ExplicitHypergraph(2, 3, [])
    with pytest.raises(ValueError):
        LazyHypergraph(2, 3, 0.5, seed=0)


@pytest.mark.parametrize("make", [
    lambda: ExplicitHypergraph(6, 3, [(0, 1, 2)]),
    lambda: LazyHypergraph(6, 3, 0.5, seed=0),
])
def test_query_edge_raises_each_canonical_message(make):
    H = make()
    for K, message in [
        ((0, 1), "expected a 3-set, got 2 vertices"),
        ((0, 2, 6), r"vertices out of range \[0, 6\): \(0, 2, 6\)"),
        ((-1, 2, 3), r"vertices out of range \[0, 6\): \(-1, 2, 3\)"),
        ((2, 1, 3), r"strictly increasing: \(2, 1, 3\)"),
        ((1, 3, 3), r"strictly increasing: \(1, 3, 3\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            H.query_edge(K)
    assert H.query_edge([0, 1, 2]) in (True, False)


def test_lazy_repeat_query_is_stable():
    H = LazyHypergraph(30, 3, 0.4, seed=11)
    first = [H.query_edge(K) for K in all_ksets(10, 3)]
    second = [H.query_edge(K) for K in all_ksets(10, 3)]
    assert first == second


def test_lazy_and_explicit_flip_the_same_coins():
    """Same seed, same p: the two backends define the same hypergraph."""
    n, k, p, seed = 12, 3, 0.35, 5
    He = generate_explicit(n, k, p, seed)
    Hl = LazyHypergraph(n, k, p, seed)
    for K in all_ksets(n, k):
        assert He.query_edge(K) == Hl.query_edge(K)


def test_lazy_marginal_frequency():
    # P[(0,1,2) is an edge] = 0.3; over 10^4 independent seeds the
    # frequency lands within 3 * sqrt(.3 * .7 / 1e4) = 0.0138
    hits = sum(
        LazyHypergraph(10, 3, 0.3, seed=s).query_edge((0, 1, 2)) for s in range(10_000)
    )
    assert abs(hits / 10_000 - 0.3) < 0.0138


def test_bulk_query_matches_scalar_loop():
    n, k = 15, 3
    He = generate_explicit(n, k, 0.3, seed=2)
    Hl = LazyHypergraph(n, k, 0.3, seed=2)
    ks = all_ksets(n, k)
    cols = [np.array([K[i] for K in ks], dtype=np.int64) for i in range(k)]
    cands = Candidates((), np.arange(n), k)  # every k-set, rows in lexicographic order
    assert [cands.row(i) for i in range(cands.nrows)] == ks
    assert He.bulk_query(cols).tolist() == [He.query_edge(K) for K in ks]
    assert Hl.bulk_query(cands).tolist() == [Hl.query_edge(K) for K in ks]
    assert He.bulk_query(cols).tolist() == Hl.bulk_query(cands).tolist()


def test_lazy_and_explicit_bulk_query_agree_on_one_candidates():
    n, k = 16, 4
    He = generate_explicit(n, k, 0.2, seed=4)
    Hl = LazyHypergraph(n, k, 0.2, seed=4)
    for J in [(0,), (3, 9), (14, 15), (0, 7, 15)]:
        cands = Candidates(J, np.array([v for v in range(n) if v not in J], dtype=np.int32),
                           k - len(J))
        mask = Hl.bulk_query(cands)
        assert mask.tolist() == He.bulk_query(cands).tolist()
        assert mask.tolist() == [Hl.query_edge(cands.row(i)) for i in range(cands.nrows)]
        assert mask.any()


@pytest.mark.parametrize("J, xs, d", [
    # J at both ends of [n] with an adjacent pair: G_0, G_2 and G_4 empty
    ((0, 1, 200, 399), [v for v in range(400) if v not in (0, 1, 200, 399)], 2),
    ((0, 60, 61, 119), [v for v in range(120) if v not in (0, 60, 61, 119)], 3),
    # sparse free sets, J inside them
    ((5, 300), [v for v in range(3, 800, 2) if v != 5], 2),
    ((41, 42), [v for v in range(0, 180, 2) if v != 42], 3),
    # d = 4: two gaps of two or more X vertices, and a three-column prefix table
    ((20, 41), [v for v in range(62) if v not in (20, 41)], 4),
])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_candidates_hash_is_bit_identical_across_slices(J, xs, d, dtype):
    """Beyond 2 BLOCK rows, runs cross slice boundaries; the first and last
    row of every block, and a fixed sample of the rest, hash as scalar
    chain64 of K, and keep sees every slice of the same hashes."""
    cands = Candidates(J, np.array(xs, dtype=dtype), d)
    assert cands.nrows > 2 * BLOCK
    key = 0xC0FFEE ^ d
    h = cands.hash(key)
    ends = [lo for _, lo, _ in cands.blocks][1:] + [cands.nrows]
    sample = sorted({*(lo for _, lo, _ in cands.blocks), *(e - 1 for e in ends),
                     *np.random.default_rng(21).integers(0, cands.nrows, 300).tolist()})
    assert len(cands.blocks) > 1
    for i in sample:
        K = cands.row(i)
        assert K == tuple(int(c[i]) for c in cands)
        assert int(h[i]) == chain64(key, K), (i, K)
    keep = lambda a: (a & np.uint64(7)) == 0  # noqa: E731
    mask = cands.hash(key, keep=keep)
    assert mask.dtype == bool and np.array_equal(mask, keep(h))


def test_bulk_query_keeps_only_the_coin_mask(traced_peak):
    """tracemalloc's peak over a lazy bulk_query of a (3, 1)-shaped Candidates
    is the one-byte mask, a fixed number of hash slices, and O(|xs|) run
    states, at two n a factor 2 apart."""
    for n in (1200, 2400):
        xs = np.array([v for v in range(n) if v != n // 2], dtype=np.int32)
        cands = Candidates((n // 2,), xs, 2)
        H = LazyHypergraph(n, 3, 0.01, seed=3)
        mask, peak = traced_peak(H.bulk_query, cands)
        assert mask.dtype == bool and mask.size == cands.nrows
        assert peak <= cands.nrows + 8 * BLOCK * 8 + 64 * xs.size, (n, peak)


def test_select_subsets_keeps_a_few_slices_beyond_the_kept_rows(traced_peak):
    """tracemalloc's peak over a band walk of the 2-subsets of [n], less the
    kept rows, is a fixed number of BLOCK-row slices plus O(n) run states,
    at two n a factor 4 apart."""
    key, low, top = 0xBADC0DE, np.uint64(1 << 63), np.uint64((1 << 63) + (1 << 52))
    for n in (2000, 8000):
        rows, peak = traced_peak(select_subsets, key, n, 2, lambda h: (h >= low) & (h <= top))
        h = chain64_np(key, list(rows.T))
        assert rows.shape == (h.size, 2) and rows.dtype == np.int64 and h.size > 0
        assert ((h >= low) & (h <= top)).all()
        assert all(int(v) == chain64(key, K) for v, K in zip(h[:50], rows[:50].tolist()))
        assert peak - rows.nbytes <= 16 * BLOCK * 8 + 64 * n, (n, peak)


@pytest.mark.parametrize("n, m", [(2000, 2), (60, 5)])
def test_select_subsets_memory_per_kept_row(traced_peak, n, m):
    """With about half the rows kept (top hash bit clear), tracemalloc's
    peak beyond the returned rows is at most 48 B per kept row, 24 B per
    (m-1)-vertex prefix row and a few BLOCK-row slices: no hash and no
    second copy of a row is kept."""
    key = 0xFEED ^ m
    rows, peak = traced_peak(select_subsets, key, n, m, lambda h: (h >> np.uint64(63)) == 0)
    assert rows.shape[1] == m and 0.45 < len(rows) / math.comb(n, m) < 0.55
    assert peak - rows.nbytes <= 48 * len(rows) + 24 * math.comb(n - 1, m - 1) + 16 * BLOCK * 8, (
        peak - rows.nbytes) / len(rows)


def test_select_subsets_matches_brute_force():
    """Every n <= 9 and 1 <= m <= n under keep-all, keep-none and a top-bit
    band: the rows are the kept itertools.combinations in their order, an
    (len, m) int64 array even when empty."""
    key = 0x5EED
    keeps = (lambda h: np.ones(h.shape, dtype=bool), lambda h: np.zeros(h.shape, dtype=bool),
             lambda h: (h >> np.uint64(62)) == 1)
    for n in range(1, 10):
        for m in range(1, n + 1):
            for keep in keeps:
                rows = select_subsets(key, n, m, keep)
                want = [J for J in itertools.combinations(range(n), m)
                        if keep(np.array([chain64(key, J)], dtype=np.uint64))[0]]
                assert rows.shape == (len(want), m) and rows.dtype == np.int64, (n, m)
                assert [tuple(J) for J in rows.tolist()] == want, (n, m)


def test_bulk_query_wide_vertex_range_fallback():
    # n^k = 255^8 exceeds 2^63, forcing the unpacked membership path
    n, k = 255, 8
    assert n**k > 2**63
    edges = [tuple(range(8)), tuple(range(1, 9)), (0, 3, 9, 27, 81, 100, 200, 254)]
    H = ExplicitHypergraph(n, k, edges)
    probes = edges + [tuple(range(2, 10)), (0, 1, 2, 3, 4, 5, 6, 254)]
    cols = [np.array([K[i] for K in probes], dtype=np.int64) for i in range(k)]
    mask = H.bulk_query(cols)
    assert mask.tolist() == [True, True, True, False, False]
    assert "_packed" not in vars(H)


def test_bulk_query_packs_up_to_the_pack_rows_bound():
    # n^k = 2^62 packs into int64 keys, so no per-row Python loop runs
    n = 2**31
    edges = [(0, n - 1), (5, 7), (n - 2, n - 1)]
    H = ExplicitHypergraph(n, 2, edges)
    probes = edges + [(0, 5), (7, n - 1)]
    cols = [np.array([K[i] for K in probes], dtype=np.int64) for i in range(2)]
    assert H.bulk_query(cols).tolist() == [True, True, True, False, False]
    assert "edges" not in vars(H)


def test_pack_rows_is_base_n_and_refuses_overflow():
    cols = [np.array([0, 3, 9]), np.array([1, 4, 9])]
    assert pack_rows(cols, 10).tolist() == [1, 34, 99]
    assert cols[0].tolist() == [0, 3, 9]  # the columns are only read
    assert pack_rows([np.array([2**31 - 1])] * 2, 2**31).tolist() == [2**62 - 1]
    with pytest.raises(OverflowError):
        pack_rows([np.array([0])] * 3, 2**21 + 1)


def test_bulk_query_empty_hypergraph():
    H = ExplicitHypergraph(9, 3, [])
    ks = all_ksets(9, 3)
    cols = [np.array([K[i] for K in ks], dtype=np.int64) for i in range(3)]
    assert not H.bulk_query(cols).any()


def test_edge_array_sorted_and_write_read_roundtrip(tmp_path):
    H = generate_explicit(11, 4, 0.2, seed=9)
    arr = H.edge_array()
    assert arr.shape == (H.edge_count, 4)
    assert [tuple(row) for row in arr] == sorted(H.edges)
    path = tmp_path / "h.txt"
    H.write_text(str(path))
    H2 = ExplicitHypergraph.read_text(str(path))
    assert (H2.n, H2.k, H2.edges) == (H.n, H.k, H.edges)
    empty = ExplicitHypergraph(5, 2, [])
    empty.write_text(str(path))
    H3 = ExplicitHypergraph.read_text(str(path))
    assert (H3.n, H3.k, H3.edge_count) == (5, 2, 0)


def test_relabeled_preserves_structure():
    H = generate_explicit(9, 3, 0.4, seed=3)
    perm = [4, 7, 0, 8, 2, 6, 1, 5, 3]
    R = H.relabeled(perm)
    assert R.edge_count == H.edge_count
    for e in H.edges:
        assert R.query_edge(tuple(sorted(perm[v] for v in e)))


def test_unrank_colex_orders_by_reversed_tuple():
    """Colex rank r enumerates m-sets sorted by their reversed tuples."""
    n, m = 7, 3
    expected = sorted(itertools.combinations(range(n), m), key=lambda t: t[::-1])
    got = unrank_colex(np.arange(math.comb(n, m)), m, n)
    assert [tuple(row) for row in got] == expected
    # rank identity: rank(S) = sum_i C(c_i, i), 1-indexed positions
    for r, S in enumerate(expected):
        assert r == sum(math.comb(c, i + 1) for i, c in enumerate(S))


def test_unrank_colex_holds_a_few_slices_beyond_its_output(traced_peak):
    """tracemalloc's peak over unranking sorted random ranks at (104, 5),
    less the output, is three int64 slices of BLOCK rows (the remainders,
    the searchsorted column and its table gather) plus the C(c, i) tables,
    at two sizes a factor 4 apart: no per-row copy of the ranks."""
    n, m = 104, 5
    for size in (300_000, 1_200_000):
        ranks = np.sort(np.random.default_rng(size).integers(0, math.comb(n, m), size))
        cols, peak = traced_peak(unrank_colex, ranks, m, n)
        assert cols.shape == (size, m) and cols.dtype == np.int64
        for r, S in zip(ranks[::9973].tolist(), cols[::9973].tolist()):
            assert r == sum(math.comb(c, i + 1) for i, c in enumerate(S)) and S == sorted(set(S))
        assert peak - cols.nbytes <= 32 * BLOCK + 16 * (m + 1) * (n + 1), (size, peak - cols.nbytes)


@pytest.mark.parametrize("block", [5, 64, None])
@pytest.mark.parametrize("n, k", [(13, 2), (13, 3), (10, 4), (9, 5)])
def test_generate_explicit_chunks_keep_exactly_the_lazy_coins(monkeypatch, n, k, block):
    """Vertex 0's run of C(n-1, k-1) k-sets is longer than a 5-row slice, and
    for k >= 3 than a 64-row one too: slice edges inside a run, across runs,
    and at the default size keep exactly the k-sets whose lazy coin lands."""
    import tightpath.hypergraph as hg

    if block is not None:
        monkeypatch.setattr(hg, "BLOCK", block)
    for seed in range(3):
        lazy = LazyHypergraph(n, k, 0.3, seed=seed)
        expected = [K for K in all_ksets(n, k) if lazy.query_edge(K)]
        assert generate_explicit(n, k, 0.3, seed=seed).edge_array().tolist() == \
            [list(K) for K in expected]


def test_generate_explicit_budget_guard():
    assert math.comb(1000, 3) > ENUMERATION_BUDGET  # refused before the walk starts
    with pytest.raises(EnumerationBudgetError, match="166167000"):
        generate_explicit(1000, 3, 0.5, seed=0)


def test_sample_explicit_valid_and_deterministic():
    H1 = sample_explicit(40, 3, 0.01, seed=6)
    H2 = sample_explicit(40, 3, 0.01, seed=6)
    assert H1.edges == H2.edges
    assert (H1.n, H1.k) == (40, 3)
    H3 = sample_explicit(40, 3, 0.01, seed=7)
    assert H3.edges != H1.edges  # 9880 coins, p=.01: collision essentially impossible


def test_sample_explicit_extremes():
    assert sample_explicit(9, 3, 0.0, seed=1).edge_count == 0
    full = sample_explicit(6, 3, 1.0, seed=1)
    assert full.edges == frozenset(all_ksets(6, 3))


@pytest.mark.parametrize("p", [1.5, -0.2, math.nan])
def test_sample_explicit_rejects_a_bad_probability(p):
    with pytest.raises(ValueError, match="probability out of range"):
        sample_explicit(6, 3, p, seed=1)


def test_sample_explicit_refuses_a_count_above_the_cap_before_building_it():
    # mean 6.7e8 edges: the whole quantile window lies above the 5e7 cap
    with pytest.raises(ValueError, match="sampled edge count >= .* too large"):
        sample_explicit(2000, 3, 0.5, seed=1)


# Points (n, k, j, eps) at p = (1 + eps) p0, and the sha256 of the counts of
# seeds 0..9999 as recorded with scipy.stats.binom.ppf before the sampler
# became numpy-only. (100, 3, 2, -0.3) is also perfbench's warm-up trial.
SAMPLED_COUNT_PINS = [
    ((2000, 3, 2, -0.3), "e4c33f6ba897644cd616f127a619178ea3eb35d87dcd3e5d1f24182f0b4193a8"),
    ((1000, 3, 2, -0.3), "5350f1fa1d9c28129f0c960e1053d519fd328125d53a03ad5383a9bcb8181f07"),
    ((600, 3, 2, -0.3), "c975e6d9ecc1dccfa9d8eeffcf52ae40599183a1ef0b76e98af2eb04650c0093"),
    ((100, 3, 2, -0.3), "ade2cbdcbc50af0d07a188bf7c8ae0d914dec20a4addd18f14bc9142cdc88e76"),
    ((30, 3, 2, -0.3), "d9a275580ad108e23e9f1dde61a45b5378d699500ba2ff2af6778249feb831c8"),
    ((200, 4, 3, -0.5), "6ea3e101819628992e364640b39b1465fad2032a01259c11d5e3913560a4f485"),
    ((14, 3, 2, 0.5), "d8eebae2b0614852f91108e157fce484d15b63d4b4926a880e1aaccba935ab19"),
    ((60, 3, 2, 0.3), "0d35412c54d00df39b0ec961054e72c13ac5fd673a8074cc3400ad69407ca6ea"),
]


@pytest.mark.parametrize("point,digest", SAMPLED_COUNT_PINS,
                         ids=["-".join(map(str, pt)) for pt, _ in SAMPLED_COUNT_PINS])
def test_sampled_edge_counts_are_pinned(point, digest):
    n, k, j, eps = point
    total, p = math.comb(n, k), (1 + eps) * threshold_p0(n, k, j)
    counts = [_sampled_edge_count(total, p, seed) for seed in range(10_000)]
    assert hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest() == digest


def test_binom_quantile_matches_the_exact_rational_cdf(monkeypatch):
    """Least x with CDF(x) >= u, against exact fractions; u within 1e-12 of
    every step (relative) takes the correctly rounded path."""
    fsum_calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: fsum_calls.append(1) or fsum(xs))
    for N, p in [(1, 0.3), (7, 0.9), (200, 5e-5), (50, 0.01), (60, 0.5), (364, 0.125)]:
        P, acc, cdf = Fraction(p), Fraction(0), []
        for x in range(N + 1):
            acc += math.comb(N, x) * P**x * (1 - P) ** (N - x)
            cdf.append(acc)
        us = [float(c) * f for c in cdf for f in (1 - 1e-12, 1 + 1e-12)]
        us += [i / 97 for i in range(1, 97)]
        for u in us:
            if 0.0 < u < 1.0:
                want = next(x for x, c in enumerate(cdf) if c >= Fraction(u))
                assert _binom_quantile(u, N, p) == want, (N, p, u)
    assert fsum_calls
    assert _binom_quantile(1.0, 364, 0.125) == 364


def test_subcritical_trial_does_not_import_scipy():
    src = os.path.dirname(os.path.dirname(tightpath.__file__))
    code = (
        "import sys\n"
        "import tightpath\n"
        "from tightpath.combinatorics import threshold_p0\n"
        "from tightpath.hypergraph import sample_explicit\n"
        "from tightpath.oracle import longest_path_exact\n"
        "H = sample_explicit(600, 3, 0.7 * threshold_p0(600, 3, 2), seed=1)\n"
        "assert not longest_path_exact(H, 2).censored\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_sample_explicit_edge_count_mean():
    # same 3-sigma band as the coin generator, 400 seeds
    n, k, p = 20, 3, 0.05
    total = math.comb(n, k)
    counts = [sample_explicit(n, k, p, seed=s).edge_count for s in range(400)]
    mean = sum(counts) / len(counts)
    se = math.sqrt(total * p * (1 - p) / len(counts))
    assert abs(mean - total * p) < 3 * se


def test_instances_from_a_list_a_generator_and_an_array_are_equal():
    edges = [(3, 4, 5), (0, 2, 7), (0, 1, 8), (3, 4, 5), (0, 2, 7)]
    made = [
        ExplicitHypergraph(9, 3, edges),
        ExplicitHypergraph(9, 3, (e for e in edges)),
        ExplicitHypergraph(9, 3, np.array(edges)),
    ]
    for H in made:
        assert H.edge_count == 3  # duplicates collapse
        assert H.edges == {(0, 1, 8), (0, 2, 7), (3, 4, 5)}
        assert H.edge_array().tolist() == [[0, 1, 8], [0, 2, 7], [3, 4, 5]]
        assert all(type(v) is int for e in H.edges for v in e)


def test_bad_edges_raise_the_per_edge_messages(tmp_path):
    bad = [
        ([(0, 1, 2), (0, 1)], "expected a 3-set, got 2 vertices"),
        ([(0, 1, 2), (0, 1, 2, 3)], "expected a 3-set, got 4 vertices"),
        ([(0, 1, 9)], r"vertices out of range \[0, 6\): \(0, 1, 9\)"),
        ([(-1, 1, 2)], r"vertices out of range \[0, 6\): \(-1, 1, 2\)"),
        ([(0, 1, 2), (2, 1, 3)], r"strictly increasing: \(2, 1, 3\)"),
        ([(0, 2, 2)], r"strictly increasing: \(0, 2, 2\)"),
    ]
    path = tmp_path / "bad.txt"
    for edges, message in bad:
        with pytest.raises(ValueError, match=message):
            ExplicitHypergraph(6, 3, edges)
        if len({len(e) for e in edges}) == 1:
            with pytest.raises(ValueError, match=message):
                ExplicitHypergraph(6, 3, np.array(edges))
        path.write_text("6 3\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges))
        with pytest.raises(ValueError, match=message):
            ExplicitHypergraph.read_text(str(path))


def test_non_integer_vertices_raise_naming_the_first_bad_edge():
    for edges, shown in [
        ([(0, 1, 2), (0.5, 1.7, 2.2)], r"\(0.5, 1.7, 2.2\)"),
        (np.array([[0.9, 1.9, 2.9]]), r"\(0.9, 1.9, 2.9\)"),
        ([("0", "1", "2")], r"\('0', '1', '2'\)"),
    ]:
        with pytest.raises(ValueError, match="vertices must be integers: " + shown):
            ExplicitHypergraph(5, 3, edges)
    assert ExplicitHypergraph(5, 3, []).edge_count == 0
    assert ExplicitHypergraph(5, 3, np.empty((0, 3))).edge_count == 0


def test_numpy_integer_arguments_act_as_python_ints():
    lazy = LazyHypergraph(np.int64(10), np.int64(3), 0.5, np.int64(3))
    assert [type(v) for v in (lazy.n, lazy.k, lazy.seed)] == [int, int, int]
    explicit = generate_explicit(np.int64(10), np.int64(3), 0.5, np.int64(3))
    assert (explicit.n, explicit.k) == (10, 3) and type(explicit.n) is int
    assert explicit.edges == generate_explicit(10, 3, 0.5, 3).edges
    for K in itertools.combinations(range(10), 3):
        K_np = tuple(np.array(K))
        assert lazy.query_edge(K_np) == lazy.query_edge(K) == explicit.query_edge(K_np)
    for make in (LazyHypergraph, generate_explicit, sample_explicit):
        with pytest.raises(TypeError):
            make(10, 3, 0.5, 3.0)


def test_edge_array_is_a_sorted_copy():
    H = generate_explicit(12, 3, 0.3, seed=4)
    arr = H.edge_array()
    assert arr.dtype == np.int64
    assert [tuple(row) for row in arr] == sorted(H.edges)
    arr[:] = 0
    assert H.edge_array().tolist() == sorted(map(list, H.edges))


def test_rows_in_any_order_store_the_same_sorted_distinct_rows():
    """Sorted distinct rows are stored as given; any other order, or a
    repeated row, is sorted and de-duplicated to the same rows."""
    rng = np.random.default_rng(5)
    ksets = np.array(list(itertools.combinations(range(9), 3)))
    for _ in range(40):
        rows = ksets[rng.random(len(ksets)) < 0.3]
        for edges in (rows, rows[::-1], rng.permutation(rows), np.repeat(rows, 2, axis=0),
                      np.concatenate([rows, rows[-1:]]), rows[:1], rows[:0]):
            got = ExplicitHypergraph(9, 3, edges).edge_array()
            assert got.dtype == np.int64 and got.shape[1] == 3
            assert [tuple(r) for r in got.tolist()] == sorted(set(map(tuple, edges.tolist())))


def test_generated_instances_and_text_output_are_pinned(tmp_path):
    """Edge sets and write_text bytes recorded before instances became arrays."""
    assert sorted(generate_explicit(8, 3, 0.1, seed=3).edges) == [
        (0, 2, 7), (0, 3, 4), (1, 2, 5), (5, 6, 7)]
    assert sorted(sample_explicit(30, 3, 0.002, seed=5).edges) == [
        (1, 6, 9), (1, 7, 14), (2, 3, 20), (2, 9, 20), (3, 7, 14), (3, 12, 18),
        (3, 26, 29), (4, 9, 16), (6, 9, 14), (12, 20, 25), (15, 17, 20), (16, 17, 18)]
    path = tmp_path / "h.txt"
    for H, count, digest in [
        (generate_explicit(8, 3, 0.1, seed=3), 4,
         "08321e5727c06a6b73538e74520907bf89eae9050029e44a7c328caf1d152a24"),
        (sample_explicit(30, 3, 0.002, seed=5), 12,
         "2bda5e7a97045948355b5952b253a8b0199663700455fffbd6207b1cfee5e8d2"),
        (generate_explicit(14, 4, 0.2, seed=9), 175,
         "0fef840f7f2f6176d297cca51e0bc2c9ef869ce21825106fe59d583ea8ef96b6"),
        (sample_explicit(200, 3, 1e-4, seed=2), 129,
         "4163cb00a4e059bdc14dbaea9feb7637c3e2ca5c9543a7c58e2977bb12aac4c3"),
    ]:
        H.write_text(str(path))
        assert H.edge_count == count
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
