"""End-to-end command-line checks, run in process via main(argv)."""

from fractions import Fraction

import pytest

from tightpath.cli import main, read_config
from tightpath.combinatorics import expected_path_classes, theorem_bounds, threshold_p0
from tightpath.experiments import read_csv
from tightpath.hypergraph import ExplicitHypergraph, generate_explicit
from tightpath.pathfinder import RunTrace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_dict(out):
    return dict(line.split("=", 1) for line in out.strip().splitlines())


def test_params_output(capsys):
    code, out, _ = run_cli(capsys, "params", "-k", "3", "-j", "2")
    assert code == 0
    assert out == "k=3 j=2 a=1 b=0 s=2 r=1 batch=1\n"
    code, out, _ = run_cli(capsys, "params", "-k", "5", "-j", "2")
    assert code == 0
    assert out == "k=5 j=2 a=2 b=1 s=1 r=0 batch=3\n"


def test_z_output(capsys):
    code, out, _ = run_cli(capsys, "z", "-k", "3", "-j", "2", "-l", "2")
    assert (code, out) == (0, "4\n")
    code, out, _ = run_cli(capsys, "z", "-k", "3", "-j", "2", "-l", "1")
    assert (code, out) == (0, "6\n")


def test_bounds_output(capsys):
    code, out, _ = run_cli(capsys, "bounds", "-k", "3", "-j", "2", "-n", "100",
                           "--eps", "0.2", "--omega", "6", "--delta", "0.5")
    assert code == 0
    vals = dict(line.rsplit("=", 1) for line in out.splitlines())  # a name may hold "="
    assert vals.pop("p0") == repr(threshold_p0(100, 3, 2))
    curves = theorem_bounds(100, 3, 2, 0.2, omega=6.0, delta=0.5)
    assert len(curves) == 4
    assert vals == {name: repr(value) for name, value in curves.items()}


def test_bounds_rejects_bad_eps(capsys):
    code, _, err = run_cli(capsys, "bounds", "-k", "3", "-j", "2", "-n", "100",
                           "--eps", "1.5")
    assert code == 1
    assert "error" in err


def test_bounds_rejects_bad_delta_or_omega(capsys):
    """bounds asks of delta and omega what a sweep does: 0 < delta < 1 and
    omega > 0, so a NaN is refused too."""
    argv = ("bounds", "-k", "3", "-j", "2", "-n", "1000", "--eps", "0.2")
    for flag, value in (("--delta", "1.5"), ("--delta", "1"), ("--delta", "nan"),
                        ("--omega", "nan"), ("--omega", "0")):
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert (code, out) == (1, ""), (flag, value)
        assert err.startswith("error: ") and flag[2:] in err and err.count("\n") == 1


def test_expectation_output(capsys):
    code, out, _ = run_cli(capsys, "expectation", "-k", "3", "-j", "2", "-n", "7",
                           "-l", "2", "-p", "0.25", "--exact", "--mc", "400",
                           "--seed", "1")
    assert code == 0
    vals = summary_dict(out.replace(" mc_se=", "\nmc_se="))
    assert vals["expected"] == repr(expected_path_classes(7, 3, 2, 2, 0.25))
    assert Fraction(vals["exact"]) > 0
    mean = float(vals["mc_mean"].split()[0])
    se = float(vals["mc_se"])
    assert abs(mean - float(vals["expected"])) <= 5 * se + 1e-9


def test_gen_run_oracle_roundtrip(tmp_path, capsys):
    hpath = tmp_path / "h.txt"
    code, out, _ = run_cli(capsys, "gen", "-k", "3", "-n", "14", "-p", "0.2",
                           "--seed", "3", "--out", str(hpath))
    assert code == 0
    H = ExplicitHypergraph.read_text(hpath)
    assert f"edges={H.edge_count}" in out
    assert H.edges == generate_explicit(14, 3, 0.2, seed=3).edges

    tracepath = tmp_path / "t.jsonl"
    code, out, _ = run_cli(capsys, "run", "--hypergraph", str(hpath), "-j", "2",
                           "--trace", str(tracepath), "--trace-level", "full")
    assert code == 0
    stats = summary_dict(out)
    assert stats["stop_reason"] == "exhausted"
    trace = RunTrace.read_jsonl(tracepath)
    assert str(trace.max_ell) == stats["max_ell"]

    code, out, _ = run_cli(capsys, "oracle", "--hypergraph", str(hpath), "-j", "2")
    assert code == 0
    length = int(out.splitlines()[0].split()[0].split("=")[1])
    assert int(stats["max_ell"]) <= length


@pytest.mark.parametrize("p", ["1.5", "-0.2", "nan"])
def test_gen_sample_rejects_a_bad_probability(tmp_path, capsys, p):
    code, out, err = run_cli(capsys, "gen", "--sample", "-k", "3", "-n", "6", "-p", p,
                             "--out", str(tmp_path / "h.txt"))
    assert (code, out) == (1, "")
    assert err.startswith("error: probability out of range")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "h.txt").exists()


def test_run_arity_mismatch(tmp_path, capsys):
    hpath = tmp_path / "h.txt"
    run_cli(capsys, "gen", "-k", "3", "-n", "10", "-p", "0.1", "--out", str(hpath))
    code, _, err = run_cli(capsys, "run", "--hypergraph", str(hpath), "-k", "4", "-j", "2")
    assert code == 1
    assert "uniform" in err


def test_run_rejects_n_and_p_beside_a_hypergraph_file(tmp_path, capsys):
    """The file fixes the instance, so -n or -p beside --hypergraph is an
    error naming the flag, not a value silently ignored."""
    hpath = tmp_path / "h.txt"
    run_cli(capsys, "gen", "-k", "3", "-n", "10", "-p", "0.1", "--out", str(hpath))
    for flag, val in (("-n", "10"), ("-p", "0.1")):
        code, out, err = run_cli(capsys, "run", "--hypergraph", str(hpath), "-j", "2", flag, val)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


def test_run_budget_exit_code(capsys):
    code, out, _ = run_cli(capsys, "run", "-n", "30", "-k", "3", "-p", "0.0",
                           "-j", "2", "--budget", "5")
    assert code == 2
    stats = summary_dict(out)
    assert stats["stop_reason"] == "budget"
    assert stats["queries"] == "5"


def test_negative_budgets_exit_1_with_one_line(tmp_path, capsys):
    code, out, err = run_cli(capsys, "run", "-n", "10", "-k", "3", "-p", "0.1",
                             "-j", "2", "--budget", "-5")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "budget" in err
    hpath = tmp_path / "h.txt"
    run_cli(capsys, "gen", "-k", "3", "-n", "8", "-p", "0.5", "--seed", "1", "--out", str(hpath))
    code, out, err = run_cli(capsys, "oracle", "--hypergraph", str(hpath), "-j", "2",
                             "--node-budget", "-1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "node_budget" in err


def test_run_standard_stopping_flag(capsys):
    code, out, _ = run_cli(capsys, "run", "-n", "40", "-k", "3", "-p", "0.08",
                           "-j", "2", "--stopping", "standard", "--eps", "0.3",
                           "--benchmark", "--seed", "2")
    assert code == 0
    assert summary_dict(out)["stop_reason"] in ("S1", "S2", "exhausted")
    code, _, err = run_cli(capsys, "run", "-n", "40", "-k", "3", "-p", "0.08",
                           "-j", "2", "--stopping", "standard")
    assert code == 1  # --eps is required with a named rule


def test_run_t0_alone_stops_at_s2(capsys):
    """--t0 with --stopping none arms S2 by itself, as it does beside --target."""
    argv = ("run", "-n", "30", "-k", "3", "-j", "2", "-p", "0.2", "--seed", "1")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and int(summary_dict(out)["queries"]) > 5
    for extra in ((), ("--target", "1000")):
        code, out, _ = run_cli(capsys, *argv, "--t0", "5", *extra)
        assert code == 0
        summary = summary_dict(out)
        assert (summary["stop_reason"], summary["queries"]) == ("S2", "5")


def test_run_nan_target_or_t0_exits_1(capsys):
    """A NaN threshold could never fire, so it is refused before the run."""
    argv = ("run", "-n", "30", "-k", "3", "-j", "2", "-p", "0.2", "--seed", "1")
    for flag in ("--target", "--t0"):
        code, out, err = run_cli(capsys, *argv, flag, "nan")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_nan_eps_exits_1(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("k=3\nj=2\nn=20\neps=nan\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "eps" in err and err.count("\n") == 1


def test_run_delta_outside_0_1_exits_1(capsys):
    """--delta sets S1's target (1-delta) eps n/(k-j)^2, so a delta outside
    (0, 1) is refused before the run."""
    argv = ("run", "-n", "30", "-k", "3", "-j", "2", "-p", "0.2", "--stopping", "standard",
            "--eps", "0.2")
    for delta in ("-0.5", "0", "1", "nan"):
        code, out, err = run_cli(capsys, *argv, "--delta", delta)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "delta" in err and err.count("\n") == 1


def test_sweep_bad_delta_or_omega_exits_1_before_any_trial(tmp_path, capsys):
    """A bad delta or omega fails at the config, so no trial CSV is written."""
    trials = tmp_path / "trials.csv"
    for line in ("delta=0", "delta=1.5", "omega=-1"):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"k=3\nj=2\nn=20\neps=0.3\n{line}\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(trials),
                                 "--summary", str(tmp_path / "summary.csv"))
        assert (code, out) == (1, "") and not trials.exists()
        assert err.startswith("error: ") and line.split("=")[0] in err and err.count("\n") == 1


def test_sweep_bad_shape_exits_1_before_any_trial(tmp_path, capsys):
    """A (k, j) outside 1 <= j <= k-1 fails at the config, not as censored rows."""
    trials, cfg = tmp_path / "trials.csv", tmp_path / "sweep.cfg"
    cfg.write_text("k=3\nj=5\nn=20\neps=0.3\ntrials=2\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(trials))
    assert (code, out) == (1, "") and not trials.exists()
    assert err.startswith("error: ") and "tightness j" in err and err.count("\n") == 1


def test_run_target_and_t0_need_stopping_none(capsys):
    """A named rule sets its own S1/S2 thresholds, so --target or --t0 beside
    it is an error naming the flag, not a value silently ignored; --budget
    applies under every rule."""
    argv = ("run", "-n", "40", "-k", "3", "-j", "2", "-p", "0.08", "--seed", "2",
            "--eps", "0.3", "--benchmark")
    for stopping in ("standard", "loose"):
        for flag, val in (("--target", "1"), ("--t0", "5")):
            code, out, err = run_cli(capsys, *argv, "--stopping", stopping, flag, val)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    for j, stopping in (("2", "standard"), ("1", "loose"), ("2", "none")):
        code, out, _ = run_cli(capsys, *argv, "-j", j, "--stopping", stopping, "--budget", "5")
        summary = summary_dict(out)
        assert (code, summary["stop_reason"], summary["queries"]) == (2, "budget", "5")


def test_oracle_censored_exit_code(tmp_path, capsys):
    hpath = tmp_path / "h.txt"
    run_cli(capsys, "gen", "-k", "3", "-n", "12", "-p", "0.3", "--out", str(hpath))
    code, out, _ = run_cli(capsys, "oracle", "--hypergraph", str(hpath), "-j", "2",
                           "--node-budget", "1")
    assert code == 2
    assert "censored=True" in out


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("k = 5  # arity\nj = 2\n")
    code, out, _ = run_cli(capsys, "params", "--config", str(cfg))
    assert (code, out) == (0, "k=5 j=2 a=2 b=1 s=1 r=0 batch=3\n")
    code, out, _ = run_cli(capsys, "params", "--config", str(cfg), "-j", "3")
    assert (code, out) == (0, "k=5 j=3 a=1 b=1 s=2 r=1 batch=2\n")


def test_config_values_are_converted_like_their_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("k=3\nj=2\nlength=2\n")
    assert run_cli(capsys, "z", "--config", str(cfg)) == (0, "4\n", "")
    cfg.write_text("k=3\nj=2\nn=7\nlength=2\np=0.25\n")
    code, out, _ = run_cli(capsys, "expectation", "--config", str(cfg))
    assert (code, out) == (0, f"expected={expected_path_classes(7, 3, 2, 2, 0.25)!r}\n")
    for body, word in [("k=3\nj=2\nlength=two\n", "length"), ("k=3\nj=x\nlength=2\n", "j")]:
        cfg.write_text(body)
        code, out, err = run_cli(capsys, "z", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: config {word}=") and err.count("\n") == 1


def test_config_sets_flags_with_defaults_unless_given(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("n=12\nk=3\np=0.2\nj=2\nmode=checked\ntrace_level=full\n")
    trace = tmp_path / "t.jsonl"
    for extra, mode in [((), "checked"), (("--mode", "auto"), "auto")]:
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg), "--trace", str(trace), *extra)
        head = RunTrace.read_jsonl(trace).header()
        assert (code, head["mode"], head["trace_level"]) == (0, mode, "full")
    cfg.write_text("n=12\nk=3\np=0.2\nj=2\nmode=generic\n")
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error: config mode=") and err.count("\n") == 1


def test_run_refuses_mode_generic(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "-n", "10", "-k", "3", "-p", "0.1", "-j", "2", "--mode", "generic"])
    assert exc.value.code == 1
    assert "invalid choice: 'generic'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["-k", "-n"])
def test_bad_int_flags_are_usage_errors(capsys, flag):
    argv = {"-k": "3", "-n": "10", "-p": "0.1", "-j": "2", flag: "abc"}
    with pytest.raises(SystemExit) as exc:
        main(["run", *(x for kv in argv.items() for x in kv)])
    assert exc.value.code == 1  # 2 means a budget was hit
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"argument {flag}: invalid int value: 'abc'" in err


def test_read_config_parsing(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("# comment only\nnode-budget = 42\n  eps=0.3 # inline\n\n")
    assert read_config(cfg) == {"node_budget": "42", "eps": "0.3"}
    cfg.write_text("no equals sign\n")
    with pytest.raises(ValueError):
        read_config(cfg)


def test_sweep_from_config_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "k=3\nj=2\nn=20,24\neps=0.3\ntrials=2\nmode=pathfinder_explicit\nseed=5\n"
    )
    out_csv = tmp_path / "rows.csv"
    sum_csv = tmp_path / "summary.csv"
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--out",
                           str(out_csv), "--summary", str(sum_csv))
    assert code == 0
    assert "wrote 4 rows" in out
    recs = read_csv(out_csv)
    assert [(r.n, r.trial) for r in recs] == [(20, 0), (20, 1), (24, 0), (24, 1)]
    assert sum_csv.read_text().splitlines()[0].startswith("n,eps,count")


def test_sweep_prints_rows_without_outputs(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("k=3\nj=2\nn=20\neps=0.3\ntrials=2\nmode=pathfinder_lazy\n")
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(line.split(",")[0] == "20" for line in lines)


def test_sweep_trial_errors_exit_1_after_writing_rows(tmp_path, capsys, monkeypatch):
    """A trial that raises is an error row, not a censored one: the sweep
    still writes its rows, then prints errors=k/N to stderr and exits 1."""
    from tightpath import experiments

    def fault(*args, **kwargs):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(experiments, "run_pathfinder", fault)
    out_csv, cfg = tmp_path / "rows.csv", tmp_path / "sweep.cfg"
    cfg.write_text("k=3\nj=2\nn=20\neps=0.3\ntrials=2\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out_csv))
    assert (code, out) == (1, f"wrote 2 rows to {out_csv}\n")
    assert err.splitlines()[-1] == "errors=2/2"
    assert [(r.censored, r.stop_reason) for r in read_csv(out_csv)] == [(False, "error")] * 2


def test_sweep_config_key_errors_exit_1_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    for body, word in [("k=3\nj=2\nn=20\neps=0.3\ntrails=3\n", "'trails'"),
                       ("k=3\nj=2\neps=0.3\n", "'n'")]:
        cfg.write_text(body)
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and word in err and err.count("\n") == 1


def test_sweep_config_may_set_sweep_flags(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"k=3\nj=2\nn=20\neps=0.3\ntrials=2\nout={out_csv}\n")
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert (code, out) == (0, "wrote 2 rows to " + str(out_csv) + "\n")
    assert len(read_csv(out_csv)) == 2


def test_sweep_unknown_preset(capsys):
    code, _, err = run_cli(capsys, "sweep", "--preset", "warp")
    assert code == 1
    assert "unknown preset" in err
    code, _, err = run_cli(capsys, "sweep")
    assert code == 1


def test_sweep_preset_beside_config_sweep_keys_exits_1(tmp_path, capsys):
    """A preset runs its own spec, so config keys that would set one are named
    and refused rather than dropped."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("k=4\nj=2\nn=20\neps=0.3\n")
    code, out, err = run_cli(capsys, "sweep", "--preset", "demo", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "'k'" in err and err.count("\n") == 1


def test_sweep_jobs_below_1_exit_1(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("k=3\nj=2\nn=20\neps=0.3\ntrials=2\n")
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--jobs", jobs)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "jobs" in err and err.count("\n") == 1


def test_verify_suites_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "z-formula")
    assert code == 0
    assert out.startswith("PASS z formula:")
    code, out, _ = run_cli(capsys, "verify", "--suite", "lazy-explicit",
                           "-n", "12", "--trials", "5")
    assert code == 0
    assert "5/5 traces identical" in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle-bound",
                           "-n", "10", "--trials", "5")
    assert code == 0
    assert "5/5 runs within the exact optimum" in out


def test_verify_rejects_zero_k_and_j(capsys):
    """-k 0 and -j 0 are bad values, not requests for the defaults 3 and 2."""
    for suite in ("lazy-explicit", "oracle-bound"):
        for flags in (("-k", "0", "-j", "0"), ("-j", "0")):
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--trials", "2", *flags)
            assert (code, out) == (1, "")
            assert err.startswith("error: ")


def test_verify_rejects_trials_below_1(capsys):
    """--trials 0 would pass every suite on 0/0 runs, so it and any lower
    count exit 1 with one line naming the flag, before any suite prints."""
    for suite in ("lazy-explicit", "oracle-bound", "all"):
        for trials in ("0", "-5"):
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--trials", trials)
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and "--trials" in err and err.count("\n") == 1


def test_verify_oracle_bound_refuses_n_above_its_cap(capsys):
    """The exact oracle runs only up to n = 12, so a larger -n for a run
    that includes oracle-bound is an error before any suite prints."""
    for suite in ("oracle-bound", "all"):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--trials", "1", "-n", "30")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "n <= 12" in err and err.count("\n") == 1
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle-bound", "--trials", "1", "-n", "12")
    assert code == 0 and out.startswith("PASS oracle-bound")


def test_missing_required_values(capsys):
    code, _, err = run_cli(capsys, "params", "-k", "3")
    assert code == 1
    assert "missing required value" in err
    code, _, err = run_cli(capsys, "z", "-k", "3", "-j", "2")
    assert code == 1


def test_run_output_is_deterministic(capsys):
    argv = ("run", "-n", "16", "-k", "3", "-p", "0.15", "-j", "2", "--seed", "4")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("ms=")]
    assert strip(out1) == strip(out2)
