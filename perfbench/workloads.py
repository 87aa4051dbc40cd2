"""The four benchmark workloads and the trial functions that run them.

Every trial composes the same public calls that ``experiments._run_trial``
(for the presets) or the AC-3 acceptance batch (for ``checked-mix``) makes.
A trial function takes a tracer; the untraced benchmark passes ``NO_TRACE``,
whose hooks are no-ops, so the timed and the traced runs execute one code
path. See README.md in this directory for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Optional

from tightpath.combinatorics import JTightPath, threshold_p0
from tightpath.experiments import PRESETS, SweepSpec, trial_seed
from tightpath.hypergraph import LazyHypergraph, generate_explicit, sample_explicit
from tightpath.monitor import StoppingConfig, default_c_ladder
from tightpath.oracle import longest_path_exact
from tightpath.pathfinder import PathFinder
from tightpath._rng import chain64, derive_key

# (k, j, n values, factors, seeds) of the AC-3 acceptance batch.
AC3_MIX = (
    (3, 2, (20, 35, 50), (0.5, 1.5, 3.0), 40),
    (3, 1, (20, 40), (0.5, 1.5), 50),
    (4, 2, (18, 30), (0.5, 1.5), 40),
    (5, 2, (14, 18), (1.0, 2.0), 20),
    (4, 3, (16, 24), (1.0,), 60),
    (5, 3, (14, 18), (1.0,), 40),
)
# One round of checked-mix: every factor of every (k, j) family at the
# family's smallest n. All 25 combos would make a round of 7-9 s, so a run
# would hold only two or three rounds and no median could damp the host's
# slow swings in speed.
AC3_COMBOS = tuple(
    (k, j, ns[0], factor)
    for k, j, ns, factors, _ in AC3_MIX
    for factor in factors
)


class TrialFailure(Exception):
    """A trial's output failed an independent correctness check."""


class NoTrace:
    """Tracer interface with every hook a no-op (the timed runs use this)."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def trial(self, trial_id: int):
        return contextlib.nullcontext()

    def backend(self, H):
        return H

    def watch_monitor(self, monitor) -> None:
        pass


NO_TRACE = NoTrace()


@dataclass
class Trial:
    """What one trial returns: the deterministic output that golden records
    store, the work count that normalizes its time (search steps, or oracle
    nodes), the milliseconds the program itself would have recorded for it,
    counters for the traced report, and a check of its output against the
    instance, which the runner calls outside the timed region."""

    output: dict
    work: int
    recorded_ms: float
    stats: dict
    check: Callable[[], None]


def _check_path(finder: PathFinder, H) -> None:
    """The finder's final path is a j-tight path whose windows are edges of H."""
    flat = tuple(v for block in finder.blocks for v in block)
    path = JTightPath(finder.k, finder.j, flat)
    if path.edges() != finder.edges:
        raise TrialFailure("final path windows differ from the recorded edges")
    missing = [K for K in finder.edges if not H.query_edge(K)]
    if missing:
        raise TrialFailure(f"path edge {missing[0]} is not an edge of the instance")


def _search(spec: SweepSpec, index: int, tracer) -> Trial:
    """One pathfinder_lazy trial of a preset (as experiments._run_trial)."""
    n, eps = spec.n_values[0], spec.eps_values[0]
    seed = trial_seed(spec.master_seed, 0, 0, index)
    p = (1 + eps) * threshold_p0(n, spec.k, spec.j)
    maker = StoppingConfig.loose if spec.j == 1 else StoppingConfig.standard
    stopping = maker(n, spec.k, spec.j, abs(eps), delta=spec.delta,
                     budget=spec.query_budget, enabled=spec.enabled)
    H = LazyHypergraph(n, spec.k, p, seed=seed)
    with tracer.span("pathfinder.init"):
        finder = PathFinder(tracer.backend(H), spec.j, seed=seed, stopping=stopping,
                            trace_level="summary")
    tracer.watch_monitor(finder.monitor)
    with tracer.span("pathfinder.run"):
        tr = finder.run()
    output = {"L": tr.max_ell, "stop_reason": tr.stop_reason, "queries": tr.queries,
              "new_starts": tr.new_starts, "censored": tr.stop_reason == "budget"}

    def check():
        if output["censored"]:
            raise TrialFailure("search hit its query budget")
        if tr.final_ell != len(finder.edges):
            raise TrialFailure("final length differs from the stored path")
        _check_path(finder, H)

    stats = {"queries": tr.queries, "new_starts": tr.new_starts}
    return Trial(output, tr.positives + tr.explored, tr.ms, stats, check)


def _oracle(spec: SweepSpec, index: int, tracer) -> Trial:
    """One oracle_enumerate_subcritical trial of a preset (as
    experiments._run_trial, including its timing of the oracle call)."""
    n, eps = spec.n_values[0], spec.eps_values[0]
    seed = trial_seed(spec.master_seed, 0, 0, index)
    p = (1 + eps) * threshold_p0(n, spec.k, spec.j)
    with tracer.span("hypergraph.sample_explicit"):
        H = sample_explicit(n, spec.k, p, seed=seed)
    t0 = time.perf_counter()
    with tracer.span("oracle.longest_path_exact"):
        res = longest_path_exact(H, spec.j, node_budget=spec.node_budget)
    ms = (time.perf_counter() - t0) * 1000.0
    output = {"L": res.length, "edges": H.edge_count, "nodes": res.nodes,
              "censored": res.censored}

    def check():
        if res.censored:
            raise TrialFailure("oracle hit its node budget")
        if res.witness.ell != res.length:
            raise TrialFailure("oracle witness length differs from the reported length")
        if not all(e in H.edges for e in res.witness.edges()):
            raise TrialFailure("oracle witness uses a k-set that is not an edge")

    return Trial(output, res.nodes, ms, {"edges": H.edge_count, "nodes": res.nodes}, check)


def _checked(key: int, combo: tuple, index: int, tracer) -> Trial:
    """One AC-3 checked run: generate_explicit, then S4-only checked search."""
    k, j, n, factor = combo
    p = min(1.0, factor * threshold_p0(n, k, j))
    seed = chain64(key, (k, j, n, int(factor * 2), index))
    with tracer.span("hypergraph.generate_explicit"):
        H = generate_explicit(n, k, p, seed=seed)
    stopping = StoppingConfig(c_ladder=default_c_ladder(k, j), enabled=frozenset({"S4"}))
    with tracer.span("pathfinder.init"):
        finder = PathFinder(tracer.backend(H), j, seed=seed ^ 0x5EED, mode="checked",
                            stopping=stopping)
    tracer.watch_monitor(finder.monitor)
    with tracer.span("pathfinder.run"):
        tr = finder.run()
    output = {"queries": tr.queries, "ledger": len(finder.queried_ksets)}

    def check():
        if output["ledger"] != tr.queries:
            raise TrialFailure("checked run queried a k-set twice")
        _check_path(finder, H)

    stats = {"queries": tr.queries, "new_starts": tr.new_starts, "edges": H.edge_count}
    return Trial(output, tr.positives + tr.explored, tr.ms, stats, check)


@dataclass(frozen=True)
class Workload:
    """A closed loop of timing units. ``trials(seed, unit)`` lists the trial
    functions of one unit: a single preset trial, or for ``checked-mix`` one
    round with one instance of every combo in ``AC3_COMBOS``. ``warm`` is a
    small unit of the same shape that the harness runs before timing, so
    imports and lazy set-up are paid outside the timed loop. ``golden_units``
    is how many units golden.json records per golden seed. ``sweep(seed)``
    is the SweepSpec whose trials a preset workload's units are (None for
    ``checked-mix``). ``calibration`` names the harness kernel that unit
    times are rescaled by (see README.md)."""

    name: str
    trials: Callable[[int, int], list]
    warm: Callable[[], list]
    min_units: int
    golden_units: int
    sweep: Optional[Callable[[int], SweepSpec]] = None
    calibration: str = "interp"


def _preset(name: str, n: int, seed: int) -> SweepSpec:
    # benchmark scale: the preset's shape and stopping rule at a smaller n
    return dataclasses.replace(PRESETS[name], n_values=(n,), master_seed=seed, trials=1)


def _preset_workload(name: str, preset: str, n: int, warm_n: int, run, min_units: int,
                     golden_units: int, calibration: str = "interp"):
    return Workload(
        name,
        lambda seed, unit: [lambda tracer: run(_preset(preset, n, seed), unit, tracer)],
        lambda: [lambda tracer: run(_preset(preset, warm_n, 0), 0, tracer)],
        min_units,
        golden_units,
        lambda seed: _preset(preset, n, seed),
        calibration,
    )


def _checked_round(seed: int, unit: int) -> list:
    key = derive_key(seed, "acceptance-runs")
    return [lambda tracer, c=c: _checked(key, c, unit, tracer) for c in AC3_COMBOS]


WORKLOADS = {
    w.name: w
    for w in (
        _preset_workload("tight-lazy", "supercritical-tight", 2000, 200, _search, 5, 60),
        # its steps are numpy passes over 7e5-row arrays, whose speed did not
        # follow the interpreter-bound kernel
        _preset_workload("loose-lazy", "supercritical-loose", 1200, 300, _search, 3, 16,
                         calibration="memory"),
        _preset_workload("subcritical-oracle", "subcritical-oracle", 600, 100, _oracle, 5, 50),
        Workload("checked-mix", _checked_round,
                 lambda: [lambda tracer: _checked(0, AC3_COMBOS[0], 0, tracer)], 5, 40),
    )
}
