#!/usr/bin/env python3
"""Regenerate golden.json, the trial outputs the benchmark checks against.

Run from the repository root on a commit whose outputs are trusted:

    python3 perfbench/make_golden.py [workload ...]

Named workloads are rewritten and the others kept; no name rewrites all.
For the default and the held-out seed it runs each workload's first
``golden_units`` units and stores every trial's deterministic output. Preset
trials are also re-run through ``experiments.run_sweep(spec, jobs=1)`` and must
agree with it field by field, which ties the benchmark's composition of public
calls to the program's own sweep path.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from run import DEFAULT_SEED, GOLDEN, HELD_OUT_SEED  # noqa: E402
from tightpath.experiments import run_sweep  # noqa: E402
from workloads import NO_TRACE, WORKLOADS  # noqa: E402

SWEEP_FIELDS = ("L", "stop_reason", "queries", "new_starts", "edges", "censored")


def golden_units(wl, seed: int) -> list:
    units = []
    for unit in range(wl.golden_units):
        outputs = []
        for fn in wl.trials(seed, unit):
            trial = fn(NO_TRACE)
            trial.check()
            outputs.append(trial.output)
        units.append(outputs)
    if wl.sweep is not None:
        spec = dataclasses.replace(wl.sweep(seed), trials=wl.golden_units)
        for unit, rec in zip(units, run_sweep(spec, jobs=1)):
            out = unit[0]
            for key in SWEEP_FIELDS:
                if key in out and out[key] != getattr(rec, key):
                    raise SystemExit(f"{wl.name} seed {seed} trial {rec.trial}: {key} is "
                                     f"{out[key]} but run_sweep gives {getattr(rec, key)}")
    return units


def main() -> None:
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    for wl in WORKLOADS.values():
        if sys.argv[1:] and wl.name not in sys.argv[1:]:
            continue
        golden[wl.name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            golden[wl.name][str(seed)] = golden_units(wl, seed)
            print(f"{wl.name} seed {seed}: {wl.golden_units} units", flush=True)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
