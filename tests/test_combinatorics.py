"""Closed-form calculators against hand values and the brute-force oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightpath.combinatorics import (
    LOOSE_LOWER,
    SUBCRITICAL_LOWER,
    SUBCRITICAL_UPPER,
    SUPERCRITICAL_LOWER,
    SUPERCRITICAL_UPPER,
    JTightPath,
    ShortPathError,
    expected_path_classes,
    expected_path_classes_exact,
    iter_lengths_with_vertex_budget,
    partition_path,
    path_vertex_count,
    structural_params,
    theorem_bounds,
    threshold_p0,
    z_ell,
)
from tightpath.oracle import z_ell_bruteforce


def test_structural_params_known_points():
    p = structural_params(5, 3)
    assert (p.a, p.b, p.s, p.r, p.batch_size) == (1, 1, 2, 1, 2)
    p = structural_params(5, 2)
    assert (p.a, p.b, p.s, p.r, p.batch_size) == (2, 1, 1, 0, 3)
    p = structural_params(2, 1)
    assert (p.a, p.b, p.s, p.r, p.batch_size) == (1, 0, 1, 0, 1)


def test_structural_params_identities_exhaustive():
    for k in range(2, 13):
        for j in range(1, k):
            p = structural_params(k, j)
            d = k - j
            assert p.a % d == k % d and 1 <= p.a <= d
            assert p.a + p.b == d
            assert p.j == p.a + p.r * d
            assert p.s == math.ceil(k / d) - 1 and p.r == p.s - 1 >= 0
            assert p.batch_size == math.comb(d, p.a) >= 1


def test_structural_params_rejects_bad_j():
    with pytest.raises(ValueError):
        structural_params(3, 0)
    with pytest.raises(ValueError):
        structural_params(3, 3)
    with pytest.raises(ValueError):
        structural_params(1, 1)


def test_path_vertex_count():
    assert path_vertex_count(5, 3, 5) == 13
    assert path_vertex_count(5, 2, 5) == 17
    for k, j in ((2, 1), (4, 2), (6, 5)):
        assert path_vertex_count(k, j, 0) == j
    with pytest.raises(ValueError):
        path_vertex_count(3, 2, -1)


def test_threshold_p0_known_points():
    assert threshold_p0(100, 3, 2) == pytest.approx(1 / 98, rel=1e-15)
    assert threshold_p0(100, 2, 1) == pytest.approx(1 / 99, rel=1e-15)
    assert threshold_p0(10, 3, 1) == pytest.approx(1 / 72, rel=1e-15)
    with pytest.raises(ValueError):
        threshold_p0(3, 3, 2)


def test_threshold_p0_log_space_fallback():
    # 1/denominator would overflow float; the lgamma branch must not
    val = threshold_p0(10**80, 8, 4)
    assert 0.0 < val < 1e-300
    assert threshold_p0(10**6, 3, 2) == pytest.approx(1 / 999_998, rel=1e-15)
    assert threshold_p0(10**4, 8, 4) > threshold_p0(10**4 + 1, 8, 4)


def test_z_ell_known_values():
    assert z_ell(2, 1, 4) == 2
    assert z_ell(5, 2, 3) == 288
    assert z_ell(3, 2, 4) == 2
    # closed form written out for (5, 2, 3): 2/1! * (2! 1!)^2 * (3!)^2
    assert z_ell(5, 2, 3) == 2 * (2 * 1) ** 2 * 36


def test_z_ell_matches_bruteforce_small():
    for k, j in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3)):
        sp = structural_params(k, j)
        for ell in iter_lengths_with_vertex_budget(k, j, 9):
            assert z_ell(k, j, ell) == z_ell_bruteforce(k, j, ell), (k, j, ell)
            if ell >= sp.s + 2:
                closed = (
                    2
                    * math.factorial(sp.a) ** (ell - sp.s)
                    * math.factorial(sp.b) ** (ell - sp.s - 1)
                    * math.factorial(k - j) ** (2 * sp.s)
                )
                assert z_ell(k, j, ell) == closed


def test_expected_path_classes_known_point():
    assert expected_path_classes(6, 3, 2, 1, 0.5) == pytest.approx(10.0, rel=1e-12)


def test_expected_path_classes_length_zero_is_jset_count():
    for n, k, j in ((6, 3, 2), (9, 4, 1), (8, 5, 3)):
        for p in (0.0, 0.3, 1.0):
            assert expected_path_classes(n, k, j, 0, p) == pytest.approx(
                math.comb(n, j), rel=1e-12
            )


def test_expected_path_classes_degenerate_cases():
    assert expected_path_classes(4, 3, 2, 5, 0.9) == 0.0
    assert expected_path_classes(20, 3, 2, 3, 0.0) == 0.0
    with pytest.raises(ValueError):
        expected_path_classes(10, 3, 2, 1, 1.5)


def test_expected_path_classes_monotone():
    for p_lo, p_hi in ((0.1, 0.2), (0.3, 0.8)):
        assert expected_path_classes(12, 3, 2, 3, p_lo) <= expected_path_classes(
            12, 3, 2, 3, p_hi
        )
    for n_lo, n_hi in ((8, 9), (10, 40)):
        assert expected_path_classes(n_lo, 3, 2, 3, 0.4) <= expected_path_classes(
            n_hi, 3, 2, 3, 0.4
        )


@given(
    st.integers(4, 12),
    st.sampled_from([(3, 2), (3, 1), (4, 2)]),
    st.integers(0, 3),
    st.fractions(min_value=0, max_value=1),
)
@settings(deadline=None, max_examples=40)
def test_expected_exact_identity(n, kj, ell, p):
    # E * z_ell == (n)_v * p^ell exactly in rational arithmetic
    k, j = kj
    v = path_vertex_count(k, j, ell)
    got = expected_path_classes_exact(n, k, j, ell, p) * z_ell(k, j, ell)
    want = Fraction(math.perm(n, v)) * Fraction(p) ** ell if v <= n else Fraction(0)
    assert got == want
    # the log-space value agrees to float precision
    approx = expected_path_classes(n, k, j, ell, float(p))
    assert math.isclose(approx, float(got / z_ell(k, j, ell)), rel_tol=1e-9, abs_tol=1e-12)


def test_theorem_bounds_known_points():
    n = math.exp(10.0)
    eps = 1 - math.exp(-1.0)  # -ln(1-eps) = 1
    curves = theorem_bounds(n, 3, 2, eps, omega=2.0)
    assert curves[SUBCRITICAL_UPPER] == pytest.approx(22.0, rel=1e-12)

    curves = theorem_bounds(10**4, 3, 2, 0.2, delta=0.5)
    assert curves[SUPERCRITICAL_LOWER] == pytest.approx(1000.0, rel=1e-12)
    assert curves[SUPERCRITICAL_UPPER] == pytest.approx(6000.0, rel=1e-12)

    curves = theorem_bounds(2000, 3, 1, 0.4, delta=0.5)
    assert curves[LOOSE_LOWER] == pytest.approx(10.0, rel=1e-12)
    assert SUPERCRITICAL_LOWER not in curves


def test_theorem_bounds_regime_gating():
    both = theorem_bounds(1000, 3, 2, 0.3, omega=6.0, delta=0.5)
    assert set(both) == {
        SUBCRITICAL_LOWER,
        SUBCRITICAL_UPPER,
        SUPERCRITICAL_LOWER,
        SUPERCRITICAL_UPPER,
    }
    assert both[SUBCRITICAL_LOWER] <= both[SUBCRITICAL_UPPER]
    assert both[SUPERCRITICAL_LOWER] <= both[SUPERCRITICAL_UPPER]
    assert theorem_bounds(1000, 3, 2, 0.3) == {}
    with pytest.raises(ValueError):
        theorem_bounds(1000, 3, 2, 1.2, delta=0.5)
    with pytest.raises(ValueError):
        theorem_bounds(1000, 3, 2, 0.3, omega=-1.0)
    with pytest.raises(ValueError):
        theorem_bounds(1000, 3, 2, 0.3, delta=0.0)


def test_jtightpath_validation_and_edges():
    path = JTightPath(3, 2, (4, 1, 7, 2))
    assert path.ell == 2
    assert path.edges() == [(1, 4, 7), (1, 2, 7)]
    assert path.edge_sets() == {frozenset({1, 4, 7}), frozenset({1, 2, 7})}
    with pytest.raises(ValueError):
        JTightPath(3, 2, (1, 2, 2, 3))
    with pytest.raises(ValueError):
        JTightPath(5, 2, (1, 2, 3, 4))  # 4 vertices: not j + ell*(k-j) for any ell


def test_partition_path_figure_sizes():
    path = JTightPath(5, 2, tuple(range(17)))  # k=5, j=2, ell=5
    parts = partition_path(path)
    assert [p.label for p in parts] == [
        "F1", "A1", "B1", "A2", "B2", "A3", "B3", "A4", "G1",
    ]
    assert [len(p.vertices) for p in parts] == [3, 2, 1, 2, 1, 2, 1, 2, 3]


def test_partition_path_graph_case():
    path = JTightPath(2, 1, (10, 11, 12, 13))  # ell = 3
    parts = {p.label: p.vertices for p in partition_path(path)}
    assert parts == {
        "F1": (10,),
        "A1": (11,),
        "B1": (),
        "A2": (12,),
        "G1": (13,),
    }


def test_partition_path_tight_case_singletons():
    path = JTightPath(3, 2, tuple(range(6)))  # ell = 4, s = 2
    parts = partition_path(path)
    a_or_f = [p for p in parts if not p.label.startswith("B")]
    bs = [p for p in parts if p.label.startswith("B")]
    assert all(len(p.vertices) == 1 for p in a_or_f)
    assert all(p.vertices == () for p in bs)


def test_partition_path_short_raises():
    with pytest.raises(ShortPathError):
        partition_path(JTightPath(3, 2, tuple(range(5))))  # ell = 3 < s+2 = 4


def test_partition_path_covers_in_order_and_permutes():
    rng = random.Random(7)
    for k, j in ((3, 2), (4, 2), (5, 2), (5, 3), (6, 4), (2, 1)):
        sp = structural_params(k, j)
        for _ in range(20):
            ell = rng.randint(sp.s + 2, sp.s + 4)
            v = path_vertex_count(k, j, ell)
            vs = rng.sample(range(v + 30), v)
            path = JTightPath(k, j, tuple(vs))
            parts = partition_path(path)
            flat = [x for p in parts for x in p.vertices]
            assert flat == list(vs)  # disjoint cover in path order
            shuffled = []
            for p in parts:
                seg = list(p.vertices)
                rng.shuffle(seg)
                shuffled.extend(seg)
            other = JTightPath(k, j, tuple(shuffled))
            assert other.edge_sets() == path.edge_sets()


def test_iter_lengths_with_vertex_budget():
    assert list(iter_lengths_with_vertex_budget(3, 2, 9)) == list(range(8))
    assert list(iter_lengths_with_vertex_budget(5, 2, 4)) == [0]
