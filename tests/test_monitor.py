"""Stopping conditions, degree tracking, forbidden-extension counters."""

import math
from collections import Counter
from itertools import combinations

import pytest

from tightpath.combinatorics import threshold_p0
from tightpath.hypergraph import ExplicitHypergraph, LazyHypergraph, generate_explicit
from tightpath.monitor import (
    BUDGET,
    EXHAUSTED,
    S1,
    S2,
    S3,
    S4,
    STOP_REASONS,
    Monitor,
    StoppingConfig,
    default_c_ladder,
)
from tightpath.pathfinder import TRACE_LEVELS, PathFinder, run

from oracles import ForbiddenCounters, forbidden_counts, retreat


def test_c_ladder_values():
    # C0 = 40 ((k-j)!)^2, each later rung multiplied by 2^(3k+4) k!
    assert default_c_ladder(3, 1) == (160.0,)
    assert default_c_ladder(3, 2) == (40.0, 40.0 * 2**13 * 6)
    assert default_c_ladder(3, 2)[1] == 1_966_080.0
    for k, j in [(4, 2), (5, 3), (6, 2), (7, 4)]:
        ladder = default_c_ladder(k, j)
        assert len(ladder) == j
        assert ladder[0] == 40.0 * math.factorial(k - j) ** 2
        assert all(a < b for a, b in zip(ladder, ladder[1:]))


def test_standard_config_formulas():
    cfg = StoppingConfig.standard(100, 3, 2, eps=0.2)
    assert cfg.target_length == 0.5 * 0.2 * 100
    assert cfg.T0 == 100**2 / 0.2
    assert cfg.enabled == frozenset({S1, S2, S3, S4})
    assert cfg.c_ladder == default_c_ladder(3, 2)
    cfg = StoppingConfig.standard(1000, 4, 2, eps=0.1, delta=0.25, budget=99)
    assert cfg.target_length == 0.75 * 0.1 * 1000 / 4
    assert cfg.T0 == 1000**3 / 0.1
    assert cfg.budget == 99


def test_standard_config_refuses_j_1():
    """S1's (1-delta) eps n/(k-j)^2 is the paper's curve for j >= 2 only, as
    loose's is for j = 1 only; the error names the rule to use instead."""
    with pytest.raises(ValueError, match="loose"):
        StoppingConfig.standard(30, 3, 1, eps=0.3)


def test_loose_config_formulas():
    cfg = StoppingConfig.loose(2000, 3, 1, eps=0.4)
    assert cfg.target_length == 0.5 * 0.4**2 * 2000 / 16
    assert cfg.T0 == 0.4 * 2000 * math.comb(1999, 2) / 4
    with pytest.raises(ValueError):
        StoppingConfig.loose(2000, 3, 2, eps=0.4)  # defined for j = 1 only


def test_config_validation():
    with pytest.raises(ValueError):
        StoppingConfig.standard(100, 3, 2, eps=0.0)
    with pytest.raises(ValueError):
        StoppingConfig.loose(100, 3, 1, eps=-0.1)
    with pytest.raises(ValueError):
        StoppingConfig(beta=0.0)
    with pytest.raises(ValueError):
        StoppingConfig(beta=1.0)
    with pytest.raises(ValueError):
        StoppingConfig(target_length=-1)
    with pytest.raises(ValueError):
        StoppingConfig(c_ladder=(2.0, 1.0))
    with pytest.raises(ValueError, match="budget"):
        StoppingConfig(budget=-1)
    with pytest.raises(ValueError, match="budget"):
        StoppingConfig.standard(100, 3, 2, eps=0.3, budget=-5)
    assert StoppingConfig(budget=0).budget == 0
    cfg = StoppingConfig.unbounded()
    assert cfg.enabled == frozenset()
    assert math.isinf(cfg.target_length) and math.isinf(cfg.T0)
    assert STOP_REASONS == (S1, S2, S3, S4, EXHAUSTED, BUDGET, "n/a")


def test_config_refuses_unknown_stop_conditions():
    """A misspelled condition used to leave itself off without a word."""
    for enabled in ({"S5"}, {S1, "s2"}, {"S1", ""}):
        with pytest.raises(ValueError, match="S1-S4"):
            StoppingConfig(enabled=frozenset(enabled))
    assert StoppingConfig(enabled=frozenset({S1, S2, S3, S4})).enabled == {S1, S2, S3, S4}


def test_monitor_cutoff_and_time_reason():
    mon = Monitor(100, 3, 2, StoppingConfig(T0=50, enabled=frozenset({S2}), budget=80))
    assert mon.t_stop == 50
    assert mon.time_reason(49) is None
    assert mon.time_reason(50) == S2
    mon = Monitor(100, 3, 2, StoppingConfig(enabled=frozenset(), budget=80))
    assert mon.t_stop == 80
    assert mon.time_reason(80) == BUDGET
    mon = Monitor(100, 3, 2, StoppingConfig.unbounded())
    assert math.isinf(mon.t_stop)
    assert mon.time_reason(10**12) is None


def test_s2_outranks_budget_at_the_same_clock():
    mon = Monitor(100, 3, 2, StoppingConfig(T0=50, enabled=frozenset({S2}), budget=50))
    assert mon.time_reason(50) == S2


def test_s1_checked_first():
    cfg = StoppingConfig(target_length=0, T0=0, enabled=frozenset({S1, S2}))
    mon = Monitor(100, 3, 2, cfg)
    assert mon.check_stop(0, 0) == S1


def test_s3_fires_at_an_exact_start_count():
    # beta=0.5, n=100: at t=0 the threshold is n^beta/2 = 5 exactly
    cfg = StoppingConfig(beta=0.5, enabled=frozenset({S3}))
    mon = Monitor(100, 3, 2, cfg)
    for i in range(4):
        mon.on_discover((2 * i, 2 * i + 1), new_start=True)
        assert mon.check_stop(0, 0) is None
    mon.on_discover((8, 9), new_start=True)
    assert mon.check_stop(0, 0) == S3


def test_s3_threshold_grows_with_the_clock():
    cfg = StoppingConfig(beta=0.5, enabled=frozenset({S3}))
    mon = Monitor(100, 3, 2, cfg)
    for i in range(5):
        mon.on_discover((2 * i, 2 * i + 1), new_start=True)
    # 2 (k-j)! sqrt(t n^beta / n^(k-j)) + 5 > 5 for any t >= 1
    assert mon.check_stop(0, 1) is None
    assert mon.check_stop(0, 100) is None
    mon.on_discover((10, 11), new_start=True)
    assert mon.check_stop(0, 1) == S3  # 6 >= 5 + 2 sqrt(10/100)


def test_s4_fires_on_the_crossing_discovery():
    # ladder (1, 2), beta=0.5, t=0: the empty-set degree bound is n^beta = 10
    cfg = StoppingConfig(beta=0.5, c_ladder=(1.0, 2.0), enabled=frozenset({S4}))
    mon = Monitor(100, 3, 2, cfg)
    for i in range(9):
        mon.on_discover((2 * i, 2 * i + 1), new_start=i == 0)
        assert mon.check_stop(0, 0) is None
    mon.on_discover((18, 19), new_start=False)
    assert mon.check_stop(0, 0) == S4


def test_s4_needs_a_fresh_touch():
    cfg = StoppingConfig(beta=0.5, c_ladder=(1.0, 2.0), enabled=frozenset({S4}))
    mon = Monitor(100, 3, 2, cfg)
    for i in range(10):
        mon.on_discover((2 * i, 2 * i + 1), new_start=False)
    assert mon.check_stop(0, 0) == S4
    # counts still exceed the bound, but nothing was touched since
    assert mon.check_stop(0, 0) is None


def test_s4_requires_a_full_ladder():
    with pytest.raises(ValueError):
        Monitor(100, 3, 2, StoppingConfig(c_ladder=(1.0,), enabled=frozenset({S4})))


def test_nan_and_negative_thresholds_are_refused():
    """A NaN target or T0 would leave S1 or S2 unable to fire, so the run
    would go on to exhaustion; NaN and negative thresholds raise instead."""
    for kwargs in ({"target_length": math.nan}, {"T0": math.nan}, {"T0": -1.0}):
        with pytest.raises(ValueError, match="target_length|T0"):
            StoppingConfig(**kwargs)
    assert StoppingConfig(target_length=0, T0=0).T0 == 0


def test_paper_rules_refuse_delta_outside_0_1():
    """S1's target is (1-delta) times the paper's length: delta <= 0 would
    put it at or above that curve, and delta >= 1 at or below 0, so S1 would
    fire at once. Both rules raise for such a delta, NaN included."""
    for delta in (-0.5, 0.0, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="delta"):
            StoppingConfig.standard(100, 3, 2, eps=0.2, delta=delta)
        with pytest.raises(ValueError, match="delta"):
            StoppingConfig.loose(100, 3, 1, eps=0.2, delta=delta)


def test_degree_tracker_counts_all_subsets():
    mon = Monitor(100, 3, 2, StoppingConfig.unbounded())
    mon.on_discover((3, 7), new_start=True)
    mon.on_discover((3, 9), new_start=False)
    assert mon.counts[0][()] == 2
    assert mon.counts[1][(3,)] == 2
    assert mon.counts[1][(7,)] == 1
    assert (5,) not in mon.counts[1]


def test_degree_tracker_handedness_identity():
    """Each j-set touches j singletons, so singleton degrees sum to j * count."""
    mon = Monitor(100, 4, 3, StoppingConfig.unbounded())
    jsets = list(combinations(range(7), 3))[:20]
    for jset in jsets:
        mon.on_discover(jset, new_start=False)
    assert mon.counts[0][()] == 20
    assert sum(mon.counts[1].values()) == 3 * 20
    assert sum(mon.counts[2].values()) == 3 * 20  # C(3,2) pairs per j-set


@pytest.mark.parametrize("n, k, j, mode, budget", [
    (60, 3, 2, "auto", 3000), (60, 3, 1, "auto", 8000), (20, 4, 2, "auto", 2000),
    (11, 3, 2, "checked", 100)])
def test_counts_match_a_brute_count_over_the_discovered_jsets(n, k, j, mode, budget):
    """counts[i][I] is the number of discovered j-sets holding the i-set I."""
    p = 2 * threshold_p0(n, k, j)
    H = LazyHypergraph(n, k, p, seed=3) if mode == "auto" else generate_explicit(n, k, p, seed=3)
    finder = PathFinder(H, j, seed=3, stopping=StoppingConfig.unbounded(budget), mode=mode)
    assert finder.run().stop_reason == BUDGET
    assert 1 < len(finder.discovered) < math.comb(n, j)
    brute = [Counter(I for J in finder.discovered for I in combinations(J, i)) for i in range(j)]
    assert finder.monitor.counts == [dict(c) for c in brute]


@pytest.mark.parametrize("T0, budget, want", [
    (40.5, None, (S2, 41)), (40.5, 30, (BUDGET, 30)), (40.5, 41, (S2, 41)),
    (40.5, 60, (S2, 41)), (0.5, None, (S2, 1)), (7.25, 8, (S2, 8))])
def test_a_fractional_t0_stops_both_engines_at_its_ceiling(T0, budget, want):
    """The paper's T0 = n^(k-j+1)/eps is seldom an integer: the clock stops
    at its ceiling, or at a smaller budget, with the same events in both engines."""
    cfg = StoppingConfig(T0=T0, enabled=frozenset({S2}), budget=budget)
    assert Monitor(11, 3, 2, cfg).t_stop == want[1]
    for n, k, j in [(11, 3, 2), (9, 4, 2)]:
        for seed in range(2):
            H = generate_explicit(n, k, 0.08, seed=seed)
            for level in TRACE_LEVELS:
                a, c = (run(H, k, j, seed=seed, stopping=cfg, mode=m, trace_level=level)
                        for m in ("auto", "checked"))
                assert (a.stop_reason, a.queries) == (c.stop_reason, c.queries) == want
                assert a.events == c.events
                assert {**a.summary(), "ms": 0} == {**c.summary(), "ms": 0}


def test_forbidden_counters_enforce_their_bounds():
    ForbiddenCounters(f1=1, f1_bound=2, f2_bound=3.0, f2_exact=3)
    with pytest.raises(AssertionError):
        ForbiddenCounters(f1=3, f1_bound=2, f2_bound=3.0)
    with pytest.raises(AssertionError):
        ForbiddenCounters(f1=1, f1_bound=2, f2_bound=3.0, f2_exact=4)


def fabricated_finder(n=8):
    finder = PathFinder(ExplicitHypergraph(n, 3, []), j=2, mode="checked")
    assert finder._new_start()
    return finder


def test_forbidden_counts_fresh_start():
    finder = fabricated_finder()
    fc = forbidden_counts(finder)
    # nothing outside J is on the path and nothing is explored yet
    assert (fc.f1, fc.f1_bound, fc.f2_exact) == (0, 0, 0)
    assert fc.f2_bound == 2.0  # C(2,1) * maxdeg 1 * C(n-2, 0)


def test_forbidden_counts_after_one_extension():
    finder = fabricated_finder()
    rec = finder.stack[-1]
    x = next(v for v in range(8) if v not in rec.jset)
    K = tuple(sorted(rec.jset + (x,)))
    finder._extend(rec, K)
    finder._activate()
    fc = forbidden_counts(finder)
    # one path vertex outside the new top j-set blocks exactly one candidate
    assert fc.f1 == 1
    assert fc.f1_bound == 1 * 1 * math.comb(8 - 3, 0)
    assert fc.f2_exact == 0


def test_forbidden_counts_sees_explored_blockers():
    finder = fabricated_finder()
    rec = finder.stack[-1]
    x = next(v for v in range(8) if v not in rec.jset)
    K = tuple(sorted(rec.jset + (x,)))
    finder._extend(rec, K)
    finder._activate()
    assert finder._scan(finder.stack[-1]) == ("exhausted",)
    retreat(finder)  # successor explored, edge removed, back at the start j-set
    fc = forbidden_counts(finder)
    assert finder.stack[-1] is rec and finder.ell == 0
    # K = J u {x} again contains the explored successor {J[1], x}
    assert fc.f2_exact == 1
    assert fc.f2_bound >= 1


def test_forbidden_counts_requires_active_stack():
    finder = PathFinder(ExplicitHypergraph(8, 3, []), j=2)
    with pytest.raises(ValueError):
        forbidden_counts(finder)


class StepCountingFinder(PathFinder):
    """Checks the forbidden counters' internal inequalities after every step."""

    def _step(self):
        reason = super()._step()
        if self.stack:
            forbidden_counts(self)
        return reason


def test_forbidden_counts_hold_along_real_runs():
    for seed in range(6):
        H = generate_explicit(10, 3, 0.2, seed=seed)
        finder = StepCountingFinder(H, j=2, seed=seed, mode="checked")
        assert finder.run().stop_reason == "exhausted"
    H = generate_explicit(9, 4, 0.1, seed=2)
    finder = StepCountingFinder(H, j=2, seed=2, mode="checked")
    assert finder.run().stop_reason == "exhausted"
