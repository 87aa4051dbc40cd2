"""Seeded trial sweeps around the threshold p0, with CSV output.

A sweep fixes (k, j) and crosses n values with signed epsilon values: the
trial probability is p = (1 + eps) p0(n, k, j), so negative entries probe the
subcritical side and positive ones the supercritical side. Each (n, eps,
trial) runs one of four modes:

  pathfinder_lazy      search over coin-flip edges flipped on first query
  pathfinder_explicit  search over a materialized instance with the same coin
                       function (identical traces to lazy at equal seeds)
  oracle_exact         exact longest path on a materialized instance
  oracle_enumerate_subcritical
                       exact longest path on instances too large to enumerate
                       k-set by k-set; the instance is drawn by count-then-rank
                       sampling (same distribution, different coins)

Pathfinder trials in supercritical mode use the standard stopping rule for
j >= 2 and the loose-path rule for j = 1; subcritical trials use the same
formulas with |eps|. Oracle trials carry a node budget and set the censored
flag instead of failing. A trial that raises is recorded as an uncensored
row with stop_reason "error", and its exception is printed to stderr, rather
than aborting the sweep; an engine error is never a censored row.

Trial seeds are chain-hashed from (master seed, n index, eps index, trial
index), so streams are reproducible and injective within a sweep. Output is
one CSV row per trial; aggregation groups rows by (n, eps) and reports length
statistics against the bound curves.
"""

from __future__ import annotations

import csv
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence, get_type_hints

from ._rng import chain64, derive_key
from .combinatorics import (
    LOOSE_LOWER,
    SUBCRITICAL_LOWER,
    SUBCRITICAL_UPPER,
    SUPERCRITICAL_LOWER,
    SUPERCRITICAL_UPPER,
    structural_params,
    theorem_bounds,
    threshold_p0,
)
from .hypergraph import generate_explicit, sample_explicit, LazyHypergraph
from .monitor import StoppingConfig
from .oracle import longest_path_exact
from .pathfinder import run as run_pathfinder

MODES = (
    "pathfinder_lazy",
    "pathfinder_explicit",
    "oracle_exact",
    "oracle_enumerate_subcritical",
)


@dataclass(frozen=True)
class SweepSpec:
    k: int
    j: int
    n_values: tuple[int, ...]
    eps_values: tuple[float, ...]
    trials: int
    mode: str
    delta: float = 0.5
    omega: float = 6.0
    master_seed: int = 0
    query_budget: Optional[int] = None
    node_budget: int = 50_000_000
    enabled: tuple[str, ...] = ("S1", "S2", "S3", "S4")

    def __post_init__(self):
        structural_params(self.k, self.j)  # a bad shape fails here, not as censored trials
        if not all(n > self.k for n in self.n_values):  # p0 needs n > k
            raise ValueError(f"every n must exceed k = {self.k}, got {self.n_values}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if not all(0 < abs(e) < 1 for e in self.eps_values):  # NaN fails too
            raise ValueError("eps entries must be nonzero with |eps| < 1")
        if not (0 < self.delta < 1 and self.omega > 0):  # NaN fails too
            raise ValueError(f"need 0 < delta < 1 and omega > 0, got {self.delta}, {self.omega}")
        if self.query_budget is not None and self.query_budget < 0:
            raise ValueError(f"query_budget must be >= 0, got {self.query_budget}")
        if self.node_budget < 0:
            raise ValueError(f"node_budget must be >= 0, got {self.node_budget}")

    @classmethod
    def from_config(cls, cfg: dict) -> "SweepSpec":
        """Build from a flat string mapping (config-file keys mirror fields;
        list values are comma-separated). A missing required key or an
        unknown key raises ValueError naming it."""
        def ints(v):
            return tuple(int(x) for x in str(v).split(","))

        def floats(v):
            return tuple(float(x) for x in str(v).split(","))

        def names(v):
            return tuple(s.strip() for s in str(v).split(",") if s.strip())

        parsers = {  # config key -> (field, parser); the first four are required
            "k": ("k", int), "j": ("j", int), "n": ("n_values", ints),
            "eps": ("eps_values", floats), "trials": ("trials", int), "mode": ("mode", str),
            "delta": ("delta", float), "omega": ("omega", float), "seed": ("master_seed", int),
            "query_budget": ("query_budget", int), "node_budget": ("node_budget", int),
            "enabled": ("enabled", names),
        }
        for key in ("k", "j", "n", "eps"):
            if key not in cfg:
                raise ValueError(f"sweep config is missing required key {key!r}")
        for key in cfg:
            if key not in parsers:
                raise ValueError(f"unknown sweep config key {key!r}")
        kwargs = {"trials": 1, "mode": "pathfinder_lazy"}
        kwargs.update((name, parse(cfg[key])) for key, (name, parse) in parsers.items()
                      if key in cfg)
        return cls(**kwargs)


@dataclass
class TrialRecord:
    n: int
    k: int
    j: int
    eps: float
    p: float
    seed: int
    trial: int
    mode: str
    L: int
    censored: bool
    queries: int
    new_starts: int
    edges: int
    stop_reason: str
    ms: float

    def row(self) -> list:
        """The CSV row: every field in order, censored as 0/1 and ms rounded to 3 places."""
        cells = {f.name: getattr(self, f.name) for f in fields(self)}
        return list((cells | {"censored": int(self.censored), "ms": round(self.ms, 3)}).values())


CSV_HEADER = ",".join(f.name for f in fields(TrialRecord))


def trial_seed(master_seed: int, n_index: int, eps_index: int, trial_index: int) -> int:
    """Deterministic, injective-within-sweep seed for one trial."""
    return chain64(derive_key(master_seed, "sweep-trial"), (n_index, eps_index, trial_index))


def _stopping_for(spec: SweepSpec, n: int, eps: float) -> StoppingConfig:
    mag = abs(eps)
    maker = StoppingConfig.loose if spec.j == 1 else StoppingConfig.standard
    return maker(n, spec.k, spec.j, mag, delta=spec.delta,
                 budget=spec.query_budget, enabled=spec.enabled)


def _run_trial(args) -> TrialRecord:
    spec, n_index, eps_index, trial_index = args
    n = spec.n_values[n_index]
    eps = spec.eps_values[eps_index]
    seed = trial_seed(spec.master_seed, n_index, eps_index, trial_index)
    p = (1 + eps) * threshold_p0(n, spec.k, spec.j)
    base = dict(n=n, k=spec.k, j=spec.j, eps=eps, p=p, seed=seed,
                trial=trial_index, mode=spec.mode)
    t0 = time.perf_counter()  # every mode's ms includes building its instance
    try:
        if spec.mode in ("pathfinder_lazy", "pathfinder_explicit"):
            if spec.mode == "pathfinder_lazy":
                H = LazyHypergraph(n, spec.k, p, seed=seed)
                edges = -1
            else:
                H = generate_explicit(n, spec.k, p, seed=seed)
                edges = H.edge_count
            tr = run_pathfinder(H, spec.k, spec.j, seed=seed,
                                stopping=_stopping_for(spec, n, eps),
                                trace_level="summary")
            out = dict(L=tr.max_ell, censored=tr.stop_reason == "budget", queries=tr.queries,
                       new_starts=tr.new_starts, edges=edges, stop_reason=tr.stop_reason)
        else:
            if spec.mode == "oracle_exact":
                H = generate_explicit(n, spec.k, p, seed=seed)
            else:
                H = sample_explicit(n, spec.k, p, seed=seed)
            res = longest_path_exact(H, spec.j, node_budget=spec.node_budget)
            out = dict(L=res.length, censored=res.censored, queries=0, new_starts=0,
                       edges=H.edge_count, stop_reason="n/a")
    except Exception as exc:  # one failed trial must not abort the sweep
        print(f"trial ({n}, {eps}, {trial_index}): {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return TrialRecord(**base, L=0, censored=False, queries=0, new_starts=0,
                           edges=-1, stop_reason="error", ms=0.0)
    rec = TrialRecord(**base, **out, ms=(time.perf_counter() - t0) * 1000.0)
    print(f"trial ({n}, {eps}, {trial_index}): {rec.stop_reason} L={rec.L} ms={rec.ms:.1f}",
          file=sys.stderr)  # the progress line of a finished trial
    return rec


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[TrialRecord]:
    """All trials of a sweep, in spec order regardless of worker count."""
    tasks = [
        (spec, ni, ei, ti)
        for ni in range(len(spec.n_values))
        for ei in range(len(spec.eps_values))
        for ti in range(spec.trials)
    ]
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1 or len(tasks) <= 1:
        return [_run_trial(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(_run_trial, tasks))


def write_csv(records: Iterable[TrialRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER.split(","))
        for rec in records:
            w.writerow(rec.row())


def read_csv(path) -> list[TrialRecord]:
    """The records of a CSV written by write_csv, each column parsed by its field's type."""
    parse = {name: (lambda v: bool(int(v))) if t is bool else t
             for name, t in get_type_hints(TrialRecord).items()}
    with open(path, newline="") as fh:
        rd = csv.DictReader(fh)
        if rd.fieldnames != CSV_HEADER.split(","):
            raise ValueError(f"unexpected CSV header {rd.fieldnames}")
        return [TrialRecord(**{name: f(row[name]) for name, f in parse.items()}) for row in rd]


SUMMARY_HEADER = "n,eps,count,censored,L_mean,L_min,L_max,lower,upper,frac_within"


def group_bounds(n: int, k: int, j: int, eps: float, omega: float, delta: float):
    """(lower, upper) curve values for one (n, eps) group; eps is signed."""
    if eps < 0:
        curves = theorem_bounds(n, k, j, -eps, omega=omega)
        return curves[SUBCRITICAL_LOWER], curves[SUBCRITICAL_UPPER]
    curves = theorem_bounds(n, k, j, eps, delta=delta)
    lower = curves[LOOSE_LOWER] if j == 1 else curves[SUPERCRITICAL_LOWER]
    return lower, curves[SUPERCRITICAL_UPPER]


def aggregate(records: Sequence[TrialRecord], omega: float = 6.0, delta: float = 0.5,
              bounds: Optional[dict] = None) -> list[dict]:
    """Per-(n, eps) length statistics against the bound curves.

    Censored rows count toward the censoring rate only; their L values (lower
    bounds, not measurements) are excluded from the statistics, and so are
    those of error rows (stop_reason "error"), which measured nothing. `bounds` maps
    (n, eps) to a (lower, upper) pair and overrides the derived curves.
    """
    if not records:
        return []
    ks = {(r.k, r.j) for r in records}
    if len(ks) != 1:
        raise ValueError(f"records mix (k, j) values: {sorted(ks)}")
    (k, j), = ks
    groups: dict[tuple, list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.n, r.eps), []).append(r)
    out = []
    for (n, eps) in sorted(groups):
        grp = groups[(n, eps)]
        ok = [r.L for r in grp if not r.censored and r.stop_reason != "error"]
        if bounds is not None and (n, eps) in bounds:
            lower, upper = bounds[(n, eps)]
        else:
            lower, upper = group_bounds(n, k, j, eps, omega, delta)
        row = {
            "n": n,
            "eps": eps,
            "count": len(grp),
            "censored": sum(r.censored for r in grp),
            "L_mean": sum(ok) / len(ok) if ok else math.nan,
            "L_min": min(ok) if ok else math.nan,
            "L_max": max(ok) if ok else math.nan,
            "lower": lower,
            "upper": upper,
            "frac_within": (sum(lower <= L <= upper for L in ok) / len(ok)) if ok else math.nan,
        }
        out.append(row)
    return out


def write_summary_csv(rows: Sequence[dict], path) -> None:
    cols = SUMMARY_HEADER.split(",")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in rows:
            w.writerow([row[c] for c in cols])


PRESETS: dict[str, SweepSpec] = {
    # supercritical, j >= 2: expect S1 stops at length >= (1-delta) eps n/(k-j)^2.
    # S3 is excluded: when k-j = 1 a whole exploration tree costs only ~n
    # queries, so a first tree that dies early (constant probability) yields
    # a second new start while the S3 threshold is still ~n^beta/2 = O(1),
    # a vacuous trigger the asymptotic formula does not intend. S4's margins
    # at this scale exceed 40x, so it stays on.
    "supercritical-tight": SweepSpec(
        k=3, j=2, n_values=(10_000,), eps_values=(0.2,), trials=10,
        mode="pathfinder_lazy", delta=0.5, master_seed=7, query_budget=10**9,
        enabled=("S1", "S2", "S4"),
    ),
    # supercritical loose paths, j = 1: expect S1 at (1-delta) eps^2 n/(4(k-1)^2)
    "supercritical-loose": SweepSpec(
        k=3, j=1, n_values=(2000,), eps_values=(0.4,), trials=10,
        mode="pathfinder_lazy", delta=0.5, master_seed=7,
    ),
    # subcritical: exact longest path, measured against the log-window curves
    "subcritical-oracle": SweepSpec(
        k=3, j=2, n_values=(2000,), eps_values=(-0.3,), trials=20,
        mode="oracle_enumerate_subcritical", omega=6.0, master_seed=7,
        node_budget=50_000_000,
    ),
    # minutes-scale smoke sweep across the transition; S3/S4 are asymptotic
    # formulas and fire vacuously at toy n, so benchmark mode applies
    "demo": SweepSpec(
        k=3, j=2, n_values=(60, 120), eps_values=(-0.3, 0.3), trials=5,
        mode="pathfinder_explicit", master_seed=1, query_budget=2_000_000,
        enabled=("S1", "S2"),
    ),
}
