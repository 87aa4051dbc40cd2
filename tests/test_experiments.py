"""Sweep harness: trial seeding, record plumbing, CSV, aggregation, presets."""

import csv
import math
import time

import pytest

from tightpath import experiments
from tightpath.combinatorics import (
    LOOSE_LOWER,
    SUBCRITICAL_LOWER,
    SUBCRITICAL_UPPER,
    SUPERCRITICAL_LOWER,
    SUPERCRITICAL_UPPER,
    theorem_bounds,
    threshold_p0,
)
from tightpath.experiments import (
    CSV_HEADER,
    MODES,
    PRESETS,
    SUMMARY_HEADER,
    SweepSpec,
    TrialRecord,
    aggregate,
    group_bounds,
    read_csv,
    run_sweep,
    trial_seed,
    write_csv,
    write_summary_csv,
)
from tightpath.hypergraph import generate_explicit, sample_explicit
from tightpath.oracle import longest_path_exact


def small_spec(**over):
    base = dict(k=3, j=2, n_values=(24,), eps_values=(0.3,), trials=3,
                mode="pathfinder_lazy", master_seed=5)
    base.update(over)
    return SweepSpec(**base)


def rows_no_ms(records):
    return [r.row()[:-1] for r in records]


def test_trial_seed_is_injective_and_stable():
    seen = {trial_seed(3, ni, ei, ti) for ni in range(8) for ei in range(10) for ti in range(10)}
    assert len(seen) == 800
    assert trial_seed(3, 1, 2, 3) == trial_seed(3, 1, 2, 3)
    assert trial_seed(3, 1, 2, 3) != trial_seed(4, 1, 2, 3)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(mode="walk")
    with pytest.raises(ValueError):
        small_spec(trials=-1)
    with pytest.raises(ValueError):
        small_spec(eps_values=(0.0,))
    with pytest.raises(ValueError):
        small_spec(eps_values=(1.0,))
    with pytest.raises(ValueError):
        small_spec(eps_values=(-1.2,))
    with pytest.raises(ValueError, match="eps"):
        small_spec(eps_values=(0.3, math.nan))
    with pytest.raises(ValueError, match="query_budget"):
        small_spec(query_budget=-1)
    with pytest.raises(ValueError, match="node_budget"):
        small_spec(node_budget=-1)
    assert (small_spec(query_budget=0).query_budget, small_spec(node_budget=0).node_budget) == (0, 0)


def test_spec_refuses_unknown_stop_conditions():
    """Each trial's StoppingConfig would refuse them, as one error row per
    trial; the spec refuses them before any trial runs."""
    for enabled in (("bogus",), ("S1", "s2"), ("S1", "S2", "S3", "S4", "S5")):
        with pytest.raises(ValueError, match="S1-S4"):
            small_spec(enabled=enabled)
    assert small_spec(enabled=("S1", "S2")).enabled == ("S1", "S2")


def test_spec_refuses_delta_outside_0_1_and_nonpositive_omega():
    """aggregate's bounds need 0 < delta < 1 and omega > 0, so the spec
    refuses any other value, NaN included, before a trial runs."""
    for over in ({"delta": 0.0}, {"delta": 1.0}, {"delta": -0.5}, {"delta": math.nan},
                 {"omega": 0.0}, {"omega": -1.0}, {"omega": math.nan}):
        with pytest.raises(ValueError, match="delta.*omega"):
            small_spec(**over)
    assert (small_spec(delta=0.25).delta, small_spec(omega=0.5).omega) == (0.25, 0.5)


def test_spec_from_config():
    spec = SweepSpec.from_config({
        "k": "3", "j": "2", "n": "60,120", "eps": "-0.3,0.3", "trials": "4",
        "mode": "pathfinder_explicit", "delta": "0.25", "omega": "5",
        "seed": "11", "query_budget": "1000", "node_budget": "2000",
        "enabled": "S1, S2",
    })
    assert spec.n_values == (60, 120)
    assert spec.eps_values == (-0.3, 0.3)
    assert (spec.trials, spec.mode) == (4, "pathfinder_explicit")
    assert (spec.delta, spec.omega, spec.master_seed) == (0.25, 5.0, 11)
    assert (spec.query_budget, spec.node_budget) == (1000, 2000)
    assert spec.enabled == ("S1", "S2")
    defaults = SweepSpec.from_config({"k": "3", "j": "1", "n": "50", "eps": "0.5"})
    assert defaults.trials == 1
    assert defaults.mode == "pathfinder_lazy"
    assert defaults.enabled == ("S1", "S2", "S3", "S4")


def test_spec_from_config_names_a_missing_required_key():
    for key in ("k", "j", "n", "eps"):
        cfg = {"k": "3", "j": "1", "n": "50", "eps": "0.5"}
        del cfg[key]
        with pytest.raises(ValueError, match=f"missing required key '{key}'"):
            SweepSpec.from_config(cfg)


def test_spec_from_config_names_an_unknown_key():
    with pytest.raises(ValueError, match="unknown sweep config key 'trails'"):
        SweepSpec.from_config({"k": "3", "j": "1", "n": "50", "eps": "0.5", "trails": "3"})


def test_zero_trials_gives_an_empty_sweep():
    assert run_sweep(small_spec(trials=0)) == []


def test_sweep_is_deterministic_and_ordered():
    spec = small_spec(n_values=(20, 24), eps_values=(-0.3, 0.3), trials=2)
    a = run_sweep(spec)
    b = run_sweep(spec)
    assert rows_no_ms(a) == rows_no_ms(b)
    assert [(r.n, r.eps, r.trial) for r in a] == [
        (n, e, t) for n in (20, 24) for e in (-0.3, 0.3) for t in range(2)
    ]


def test_parallel_sweep_matches_serial():
    spec = small_spec(trials=4)
    assert rows_no_ms(run_sweep(spec, jobs=1)) == rows_no_ms(run_sweep(spec, jobs=2))


def test_sweep_starts_at_most_one_worker_per_trial(monkeypatch):
    """The pool gets min(jobs, trials) workers, so a large --jobs forks no
    idle processes; a fake pool records the count and runs the trials here."""
    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
    spec = small_spec(trials=3)
    serial = rows_no_ms(run_sweep(spec))
    assert rows_no_ms(run_sweep(spec, jobs=5000)) == serial
    assert rows_no_ms(run_sweep(spec, jobs=2)) == serial
    assert seen == [3, 2]
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(spec, jobs=jobs)
    assert seen == [3, 2]


def test_lazy_and_explicit_sweeps_agree():
    lazy = run_sweep(small_spec(mode="pathfinder_lazy"))
    expl = run_sweep(small_spec(mode="pathfinder_explicit"))
    for a, b in zip(lazy, expl):
        assert (a.L, a.queries, a.new_starts, a.stop_reason, a.seed) == (
            b.L, b.queries, b.new_starts, b.stop_reason, b.seed)
        assert a.edges == -1 and b.edges >= 0


def test_oracle_exact_rows_are_recomputable():
    spec = small_spec(n_values=(16,), eps_values=(0.4,), trials=2, mode="oracle_exact")
    for rec in run_sweep(spec):
        assert rec.p == (1 + rec.eps) * threshold_p0(rec.n, rec.k, rec.j)
        H = generate_explicit(rec.n, rec.k, rec.p, seed=rec.seed)
        assert rec.edges == H.edge_count
        assert rec.L == longest_path_exact(H, rec.j).length
        assert not rec.censored


def test_sampled_subcritical_rows_are_recomputable():
    spec = small_spec(n_values=(30,), eps_values=(-0.4,), trials=2,
                      mode="oracle_enumerate_subcritical")
    for rec in run_sweep(spec):
        H = sample_explicit(rec.n, rec.k, rec.p, seed=rec.seed)
        assert rec.edges == H.edge_count
        assert rec.L == longest_path_exact(H, rec.j).length


def test_sweep_refuses_n_at_most_k():
    """p0 needs n > k, so an n <= k anywhere in the sweep fails at the spec,
    before any trial, not as a censored row with p = nan."""
    for n_values in ((3,), (3, 10), (10, 2)):
        with pytest.raises(ValueError, match="exceed k = 3"):
            small_spec(n_values=n_values)


def test_trial_errors_are_reported_and_never_censored(monkeypatch, capsys):
    def fault(*args, **kwargs):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(experiments, "run_pathfinder", fault)
    recs = run_sweep(small_spec(trials=2))
    assert [(r.censored, r.stop_reason, r.L) for r in recs] == [(False, "error", 0)] * 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"trial (24, 0.3, {i}): RuntimeError: engine fault" for i in range(2)]
    row, = aggregate(recs + [fake_record(n=24, eps=0.3, L=7, trial=2)])
    assert (row["count"], row["censored"], row["L_mean"], row["L_min"]) == (3, 0, 7, 7)


def test_finished_trials_print_a_progress_line(capsys):
    recs = run_sweep(small_spec(trials=2))
    err = capsys.readouterr().err.splitlines()
    assert err == [f"trial (24, 0.3, {r.trial}): {r.stop_reason} L={r.L} ms={r.ms:.1f}"
                   for r in recs]
    assert [r.trial for r in recs] == [0, 1]


def test_oracle_row_time_includes_the_instance(monkeypatch):
    sample = experiments.sample_explicit

    def slow_sample(*args, **kwargs):
        time.sleep(0.05)
        return sample(*args, **kwargs)

    monkeypatch.setattr(experiments, "sample_explicit", slow_sample)
    spec = small_spec(n_values=(20,), eps_values=(-0.4,), trials=1,
                      mode="oracle_enumerate_subcritical")
    assert run_sweep(spec)[0].ms >= 50


def test_explicit_search_row_time_includes_the_instance(monkeypatch):
    generate = experiments.generate_explicit

    def slow_generate(*args, **kwargs):
        time.sleep(0.05)
        return generate(*args, **kwargs)

    monkeypatch.setattr(experiments, "generate_explicit", slow_generate)
    spec = small_spec(trials=1, mode="pathfinder_explicit")
    assert run_sweep(spec)[0].ms >= 50


def test_node_budget_censors_oracle_trials():
    spec = small_spec(n_values=(20,), eps_values=(0.5,), trials=1,
                      mode="oracle_exact", node_budget=1)
    rec = run_sweep(spec)[0]
    assert rec.censored


def test_csv_roundtrip(tmp_path):
    recs = run_sweep(small_spec(n_values=(20, 24), trials=2))
    path = tmp_path / "sweep.csv"
    write_csv(recs, path)
    with open(path) as fh:
        assert fh.readline().strip() == CSV_HEADER
    back = read_csv(path)
    assert len(back) == len(recs)
    for a, b in zip(recs, back):
        assert a.row() == b.row()  # ms was rounded on write; rows are canonical


def test_read_csv_rejects_unknown_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,k,j\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(path)


def fake_record(n=100, eps=0.2, L=5, censored=False, trial=0, k=3, j=2):
    return TrialRecord(n=n, k=k, j=j, eps=eps, p=0.01, seed=1, trial=trial,
                       mode="pathfinder_lazy", L=L, censored=censored, queries=10,
                       new_starts=1, edges=-1, stop_reason="S1", ms=1.0)


def fixed_bounds(monkeypatch, lower, upper):
    """Make aggregate read (lower, upper) as every group's curves."""
    monkeypatch.setattr(experiments, "group_bounds", lambda *args: (lower, upper))


def test_aggregate_with_explicit_bounds(monkeypatch):
    fixed_bounds(monkeypatch, 6, 14)
    recs = [
        fake_record(L=5, trial=0),
        fake_record(L=10, trial=1),
        fake_record(L=15, trial=2),
        fake_record(L=99, trial=3, censored=True),
    ]
    (row,) = aggregate(recs)
    assert (row["count"], row["censored"]) == (4, 1)
    assert (row["L_mean"], row["L_min"], row["L_max"]) == (10, 5, 15)
    assert (row["lower"], row["upper"]) == (6, 14)
    assert row["frac_within"] == pytest.approx(1 / 3)


def test_aggregate_uses_the_bound_curves():
    recs = [fake_record(L=3), fake_record(L=4, trial=1)]
    (row,) = aggregate(recs, delta=0.5)
    lower, upper = group_bounds(100, 3, 2, 0.2, omega=6.0, delta=0.5)
    assert (row["lower"], row["upper"]) == (lower, upper)
    curves = theorem_bounds(100, 3, 2, 0.2, delta=0.5)
    assert lower == curves[SUPERCRITICAL_LOWER]
    assert upper == curves[SUPERCRITICAL_UPPER]


def test_group_bounds_signed_eps():
    lower, upper = group_bounds(100, 3, 2, -0.3, omega=6.0, delta=0.5)
    curves = theorem_bounds(100, 3, 2, 0.3, omega=6.0)
    assert (lower, upper) == (curves[SUBCRITICAL_LOWER], curves[SUBCRITICAL_UPPER])
    lower, _ = group_bounds(2000, 3, 1, 0.4, omega=6.0, delta=0.5)
    assert lower == theorem_bounds(2000, 3, 1, 0.4, delta=0.5)[LOOSE_LOWER]


def test_aggregate_all_censored_group_is_nan(monkeypatch):
    fixed_bounds(monkeypatch, 0, 1)
    recs = [fake_record(censored=True), fake_record(censored=True, trial=1)]
    (row,) = aggregate(recs)
    assert math.isnan(row["L_mean"]) and math.isnan(row["frac_within"])
    assert row["censored"] == 2


def test_aggregate_rejects_mixed_shapes():
    with pytest.raises(ValueError):
        aggregate([fake_record(), fake_record(j=1)])
    assert aggregate([]) == []


def test_write_summary_csv(tmp_path, monkeypatch):
    fixed_bounds(monkeypatch, 1, 9)
    rows = aggregate([fake_record(), fake_record(L=7, trial=1)])
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, path)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == SUMMARY_HEADER.split(",")
    assert len(got) == 2
    assert got[1][0] == "100"


def test_presets_are_well_formed():
    assert set(PRESETS) == {
        "supercritical-tight", "supercritical-loose", "subcritical-oracle", "demo",
    }
    tight = PRESETS["supercritical-tight"]
    assert (tight.k, tight.j, tight.mode) == (3, 2, "pathfinder_lazy")
    assert "S3" not in tight.enabled and "S4" in tight.enabled
    loose = PRESETS["supercritical-loose"]
    assert loose.j == 1
    sub = PRESETS["subcritical-oracle"]
    assert sub.mode == "oracle_enumerate_subcritical"
    assert sub.eps_values[0] < 0
    demo = PRESETS["demo"]
    assert demo.mode == "pathfinder_explicit"
    assert all(spec.mode in MODES for spec in PRESETS.values())
