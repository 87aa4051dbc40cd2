#!/usr/bin/env python3
"""tightpath benchmark harness.

Run from the repository root:

    python3 perfbench/run.py --workload tight-lazy --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Each workload is a closed loop with one client: the next timing unit starts
when the previous one returns, in this one process, with no process pool
(``jobs=1``). ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
re-runs the same units with module-boundary spans and prints the per-layer
metrics. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller result file,
with the machine and software environment, goes to ``perfbench/out/``.
README.md in this directory documents the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 7
HELD_OUT_SEED = 1013
PROBES = 5
# Nominal time of each calibration kernel on the reference machine
# (2-core Xeon VM, fast phase).
CAL_REF_S = {"interp": 0.020, "memory": 0.022}

END_TO_END = {"step_us": "us", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "rng.chain64_np.rows": "count",
    "rng.chain64_np.busy_s": "s",
    "rng.chain64_np.ns_per_row": "ns",
    "rng.chain64.calls": "count",
    "hypergraph.unrank_colex.rows": "count",
    "hypergraph.unrank_colex.busy_s": "s",
    "hypergraph.bulk_query.calls": "count",
    "hypergraph.bulk_query.rows": "count",
    "hypergraph.bulk_query.busy_s": "s",
    "hypergraph.bulk_query.hit_ratio": "ratio",
    "hypergraph.query_edge.calls": "count",
    "hypergraph.query_edge.busy_s": "s",
    "hypergraph.sample_explicit.busy_s": "s",
    "hypergraph.generate_explicit.busy_s": "s",
    "hypergraph.edges": "count",
    "pathfinder.init_s": "s",
    "pathfinder.run_s": "s",
    "pathfinder.self_s": "s",
    "pathfinder.queries": "count",
    "pathfinder.new_starts": "count",
    "pathfinder.queries_per_s": "1/s",
    "pathfinder.hashed_per_query": "ratio",
    "monitor.check_stop.calls": "count",
    "monitor.check_stop.busy_s": "s",
    "monitor.on_discover.calls": "count",
    "monitor.on_discover.busy_s": "s",
    "oracle.longest_path_exact.busy_s": "s",
    "oracle.nodes": "count",
    "oracle.nodes_per_s": "1/s",
    "combinatorics.busy_s": "s",
    "trial.self_s": "s",
    "experiments.unreported_s": "s",
    "trace.overhead_frac": "ratio",
}


def environment(seed: int) -> dict:
    """Machine and software facts stored with every result."""
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    commit = "unknown: the checkout is not a git repository"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = res.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "platform": platform.platform(),
        "seed": seed,
        "commit": commit,
    }


def load_golden(workload: str, seed: int) -> list:
    with open(GOLDEN) as fh:
        return json.load(fh).get(workload, {}).get(str(seed), [])


def run_unit(wl, seed: int, unit: int, tracer, golden: list, rows: list, check: bool) -> None:
    """Run one timing unit, appending one row per trial. A trial fails if it
    raises, fails its output check, or differs from its golden record."""
    from workloads import TrialFailure

    expected = golden[unit] if unit < len(golden) else None
    for pos, fn in enumerate(wl.trials(seed, unit)):
        row = {"unit": unit, "pos": pos}
        t0 = time.perf_counter()
        try:
            with tracer.trial(len(rows)):
                trial = fn(tracer)
        except Exception as exc:  # any engine error is a failed trial, never a silent row
            row["wall_s"] = time.perf_counter() - t0
            row["failed"] = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
            rows.append(row)
            continue
        row["wall_s"] = time.perf_counter() - t0
        row.update(output=trial.output, work=trial.work, recorded_ms=trial.recorded_ms,
                   stats=trial.stats)
        if check:
            try:
                trial.check()
            except TrialFailure as exc:
                row["failed"] = str(exc)
            if expected is not None and trial.output != expected[pos]:
                row["failed"] = f"output {trial.output} differs from golden {expected[pos]}"
        rows.append(row)


def _interp_kernel() -> None:
    """Interpreter-bound: Python integer hashing into a set, then numpy uint64
    mixing on a cache-sized array and a sort."""
    h, seen = 0, set()
    for i in range(30000):
        h = ((h ^ i) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 29
        if i % 3 == 0:
            seen.add((i, h & 1023))
    a = np.arange(1 << 18, dtype=np.uint64)
    for _ in range(4):
        a = (a * np.uint64(0xBF58476D1CE4E5B9)) ^ (a >> np.uint64(31))
    np.argsort(a[: 1 << 16])


def _memory_kernel() -> None:
    """Large-array: one multiply-xorshift-compare pass over a 16 MB array,
    far beyond L2, like the arrays of a loose-lazy step."""
    a = np.arange(1 << 21, dtype=np.uint64)
    a *= np.uint64(0xBF58476D1CE4E5B9)
    a ^= a >> np.uint64(31)
    int((a < np.uint64(1 << 62)).sum())


KERNELS = {"interp": _interp_kernel, "memory": _memory_kernel}


def calibrate(kernel: str) -> float:
    """Seconds for one calibration kernel. The kernels share no code with
    tightpath, so they measure how fast the host runs right now. Only the
    kernel in use runs, so the others' arrays do not count in peak RSS."""
    t0 = time.perf_counter()
    KERNELS[kernel]()
    return time.perf_counter() - t0


def closed_loop(wl, seed: int, seconds: float, golden: list) -> tuple[list, list]:
    """Untraced units back to back until ``seconds`` have passed (and at least
    the workload's minimum number of units has run). Returns the trial rows
    and the calibration times taken before the first unit and after each."""
    from workloads import NO_TRACE

    rows: list = []
    cals = [calibrate(wl.calibration)]
    start = time.perf_counter()
    unit = 0
    while unit < wl.min_units or time.perf_counter() - start < seconds:
        run_unit(wl, seed, unit, NO_TRACE, golden, rows, check=True)
        cals.append(calibrate(wl.calibration))
        unit += 1
    return rows, cals


def per_unit_times(rows: list) -> tuple[list, list]:
    """Units without failures, each as (unit index, wall us per unit of work)."""
    units: dict = {}
    for row in rows:
        units.setdefault(row["unit"], []).append(row)
    index, times = [], []
    for unit, unit_rows in units.items():
        work = sum(r.get("work", 0) for r in unit_rows)
        if work and not any("failed" in r for r in unit_rows):
            index.append(unit)
            times.append(sum(r["wall_s"] for r in unit_rows) / work * 1e6)
    return index, times


def probe_setup(workload: str) -> tuple[list, list]:
    """Wall seconds for fresh interpreters to import tightpath and run the
    workload's warm-up unit, which pays any lazy import its first call makes;
    with a calibration before the first probe and after each."""
    times, cals = [], [calibrate("interp")]
    for _ in range(PROBES):
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in 50 ms steps, which would
        # quantize the measurement
        subprocess.run([sys.executable, str(HERE / "run.py"), "--probe", workload],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        cals.append(calibrate("interp"))
    return times, cals


def at_ref_speed(t: float, kernel: str, cal_before: float, cal_after: float) -> float:
    """``t`` rescaled to the reference host speed by the faster of the
    ``kernel`` calibrations on either side of it (interference only slows one
    down)."""
    return t * CAL_REF_S[kernel] / min(cal_before, cal_after)


def warm(wl) -> None:
    from workloads import NO_TRACE

    for fn in wl.warm():
        fn(NO_TRACE)


def layer_metrics(tracer, traced: list, untraced: list) -> dict:
    totals = tracer.totals()

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    nt = len(traced)
    stat = lambda key: sum(r.get("stats", {}).get(key, 0) for r in traced)
    queries = stat("queries")
    m = {}
    for name in ("rng.chain64_np", "hypergraph.unrank_colex", "hypergraph.bulk_query"):
        m[f"{name}.rows"] = get(name, "rows") / nt
        m[f"{name}.busy_s"] = get(name, "busy_s") / nt
    m["rng.chain64_np.ns_per_row"] = ratio(get("rng.chain64_np", "busy_s") * 1e9,
                                            get("rng.chain64_np", "rows"))
    m["rng.chain64.calls"] = tracer.scalar_chain64 / nt
    for name in ("hypergraph.bulk_query", "hypergraph.query_edge", "monitor.check_stop",
                 "monitor.on_discover"):
        m[f"{name}.calls"] = get(name, "calls") / nt
        m[f"{name}.busy_s"] = get(name, "busy_s") / nt
    m["hypergraph.bulk_query.hit_ratio"] = ratio(queries, get("hypergraph.bulk_query", "rows"))
    for name in ("hypergraph.sample_explicit", "hypergraph.generate_explicit",
                 "oracle.longest_path_exact", "combinatorics"):
        m[f"{name}.busy_s"] = get(name, "busy_s") / nt
    m["hypergraph.edges"] = stat("edges") / nt
    m["pathfinder.init_s"] = get("pathfinder.init", "busy_s") / nt
    m["pathfinder.run_s"] = get("pathfinder.run", "busy_s") / nt
    m["pathfinder.self_s"] = get("pathfinder.run", "self_s") / nt
    m["pathfinder.queries"] = queries / nt
    m["pathfinder.new_starts"] = stat("new_starts") / nt
    m["pathfinder.queries_per_s"] = ratio(queries, get("pathfinder.run", "busy_s"))
    m["pathfinder.hashed_per_query"] = ratio(totals["hashed_in_run"], queries)
    m["trial.self_s"] = get("trial", "self_s") / nt
    m["oracle.nodes"] = stat("nodes") / nt
    m["oracle.nodes_per_s"] = ratio(stat("nodes"), get("oracle.longest_path_exact", "busy_s"))
    m["experiments.unreported_s"] = statistics.fmean(
        r["wall_s"] - r["recorded_ms"] / 1000.0 for r in untraced if "recorded_ms" in r)
    m["trace.overhead_frac"] = (sum(r["wall_s"] for r in traced)
                                / sum(r["wall_s"] for r in untraced) - 1.0)
    return m


def bench(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    golden = load_golden(wl.name, args.seed)
    result = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "golden_units": len(golden),
              "environment": environment(args.seed)}
    if args.trace == 0:
        result["setup_probes_s"], result["setup_calibration_s"] = probe_setup(wl.name)
    warm(wl)
    rows, cals = closed_loop(wl, args.seed, args.seconds, golden)
    result["calibration_s"] = cals
    if args.trace == 0:
        per_unit = [at_ref_speed(t, wl.calibration, cals[i], cals[i + 1])
                    for i, t in zip(*per_unit_times(rows))]
        probes, probe_cals = result["setup_probes_s"], result["setup_calibration_s"]
        setup = [at_ref_speed(t, "interp", probe_cals[i], probe_cals[i + 1])
                 for i, t in enumerate(probes)]
        metrics = {
            "step_us": statistics.median(per_unit),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        } if per_unit else {}
        units = END_TO_END
        result["step_us_per_unit"] = per_unit
    else:
        from tracing import Tracer

        tracer = Tracer()
        traced: list = []
        with tracer.install():
            for unit in sorted({r["unit"] for r in rows}):
                run_unit(wl, args.seed, unit, tracer, [], traced, check=False)
        for before, after in zip(rows, traced):
            if "failed" not in before and before.get("output") != after.get("output"):
                before["failed"] = (f"traced output {after.get('output')} differs from "
                                    f"untraced {before['output']}")
        metrics = layer_metrics(tracer, traced, rows) if any("failed" not in r for r in rows) else {}
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
    failed = sum("failed" in r for r in rows)
    result.update(
        wall_s=sum(r["wall_s"] for r in rows),
        trials=len(rows),
        trials_failed=failed,
        failures=[{k: r[k] for k in ("unit", "pos", "failed")} for r in rows if "failed" in r],
        rows=rows,
        metrics={name: {"value": metrics.get(name, 0.0), "unit": unit}
                 for name, unit in units.items()},
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{wl.name:<20} {name:<38} {m['value']:>16.6g} {m['unit']}")
    print(f"{wl.name:<20} trials {len(rows)}, failed {failed}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": len(rows),
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


def bench_all(args) -> int:
    """Every workload in its own process, then one combined JSON line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            print(f"{name}: exit code {res.returncode}", file=sys.stderr)
            return 1
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (golden records exist for {DEFAULT_SEED} "
                         f"and the held-out {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tightpath" / "__init__.py").is_file():
        print("run from the repository root: src/tightpath is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.probe:
        warm(WORKLOADS[args.probe])
        return 0
    if args.workload == "all":
        return bench_all(args)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
