"""Command-line interface.

Subcommands: params, bounds, z, expectation, gen, run, oracle, sweep, verify.
Common flags: --seed where randomness is involved, --config FILE for flat
key=value defaults of the flags that take a value (explicit flags win), --out
for file outputs.

Exit codes: 0 success; 1 usage or input error, or a sweep trial raised; 2 a
budget was hit or results were censored. A sweep writes its outputs in either
of the last two cases, and prints errors=k/N or censored=k/N.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys

from . import combinatorics, experiments, hypergraph, oracle, pathfinder
from .monitor import StoppingConfig


def read_config(path) -> dict:
    """Flat key=value lines; '#' starts a comment; keys mirror flag names."""
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _merge_config(args: argparse.Namespace, argv: list) -> None:
    """Set each flag that takes a value and is not given on the command line
    from the config file, converted and checked like the flag's own value.
    On/off flags are command-line only; other keys are left to the command."""
    if not getattr(args, "config", None):
        return
    cfg = read_config(args.config)
    # argv[0] is the subcommand; a flag given there is no longer None
    given, _ = args.parser.parse_known_args(argv[1:], argparse.Namespace(**dict.fromkeys(cfg)))
    for a in args.parser._actions:
        if a.dest not in cfg or a.nargs == 0 or getattr(given, a.dest) is not None:
            continue
        raw = cfg[a.dest]
        try:
            val = a.type(raw) if a.type else raw
        except ValueError as exc:
            raise ValueError(f"config {a.dest}={raw!r}: {exc}") from None
        if a.choices is not None and val not in a.choices:
            raise ValueError(f"config {a.dest}={raw!r}: not one of {', '.join(a.choices)}")
        setattr(args, a.dest, val)


def _check_out(*paths) -> None:
    """Raise, before any work, the error that writing to a missing directory would."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def cmd_params(args) -> int:
    p = combinatorics.structural_params(args.k, args.j)
    print(f"k={p.k} j={p.j} a={p.a} b={p.b} s={p.s} r={p.r} batch={p.batch_size}")
    return 0


def cmd_bounds(args) -> int:
    p0 = combinatorics.threshold_p0(args.n, args.k, args.j)
    curves = combinatorics.theorem_bounds(args.n, args.k, args.j, args.eps,
                                          omega=args.omega, delta=args.delta)
    print(f"p0={p0!r}")
    for name in sorted(curves):
        print(f"{name}={curves[name]!r}")
    return 0


def cmd_z(args) -> int:
    print(combinatorics.z_ell(args.k, args.j, args.length))
    return 0


def cmd_expectation(args) -> int:
    n, p = args.n, args.p
    val = combinatorics.expected_path_classes(n, args.k, args.j, args.length, p)
    print(f"expected={val!r}")
    if args.exact:
        frac = combinatorics.expected_path_classes_exact(n, args.k, args.j, args.length, p)
        print(f"exact={frac}")
    if args.mc:
        mean, se = oracle.expectation_monte_carlo(n, args.k, args.j, args.length, p,
                                                  samples=args.mc, seed=args.seed)
        print(f"mc_mean={mean!r} mc_se={se!r}")
    return 0


def cmd_gen(args) -> int:
    _check_out(args.out)
    make = hypergraph.sample_explicit if args.sample else hypergraph.generate_explicit
    H = make(args.n, args.k, args.p, seed=args.seed)
    H.write_text(args.out)
    print(f"n={H.n} k={H.k} edges={H.edge_count} out={args.out}")
    return 0


def _build_stopping(args, n: int) -> StoppingConfig | None:
    budget = args.budget
    if args.stopping in (None, "none"):
        if budget is None and args.target is None and args.t0 is None:
            return None
        target = math.inf if args.target is None else args.target
        t0 = math.inf if args.t0 is None else args.t0
        enabled = frozenset(x for x, on in (("S1", target < math.inf), ("S2", t0 < math.inf)) if on)
        return StoppingConfig(target_length=target, T0=t0, enabled=enabled, budget=budget)
    if args.eps is None:
        raise ValueError("--stopping standard/loose needs --eps")
    for flag, val in (("--target", args.target), ("--t0", args.t0)):
        if val is not None:
            raise ValueError(f"{flag} needs --stopping none, not --stopping {args.stopping}")
    maker = StoppingConfig.loose if args.stopping == "loose" else StoppingConfig.standard
    enabled = ("S1", "S2") if args.benchmark else ("S1", "S2", "S3", "S4")
    return maker(n, args.k, args.j, abs(args.eps), delta=args.delta, budget=budget,
                 enabled=enabled)


def cmd_run(args) -> int:
    _check_out(args.trace)
    seed = args.seed
    if args.hypergraph:
        for flag, val in (("-n", args.n), ("-p", args.p)):
            if val is not None:
                raise ValueError(f"{flag} is for a lazy instance, not beside --hypergraph")
        H = hypergraph.ExplicitHypergraph.read_text(args.hypergraph)
        if args.k is None:
            args.k = H.k
        elif args.k != H.k:
            print(f"error: file is {H.k}-uniform, got -k {args.k}", file=sys.stderr)
            return 1
    else:
        if args.n is None or args.p is None or args.k is None:
            print("error: need --hypergraph or all of -n, -k, -p", file=sys.stderr)
            return 1
        H = hypergraph.LazyHypergraph(args.n, args.k, args.p, seed=seed)
    stopping = _build_stopping(args, H.n)
    trace = pathfinder.run(H, args.k, args.j, seed=seed, stopping=stopping,
                           mode=args.mode, trace_level=args.trace_level)
    if args.trace:
        trace.write_jsonl(args.trace)
    for key, val in trace.summary().items():
        print(f"{key}={val}")
    return 2 if trace.stop_reason == "budget" else 0


def cmd_oracle(args) -> int:
    H = hypergraph.ExplicitHypergraph.read_text(args.hypergraph)
    res = oracle.longest_path_exact(H, args.j, node_budget=args.node_budget, method=args.method)
    print(f"length={res.length} censored={res.censored} nodes={res.nodes}")
    print(f"witness={list(res.witness.vertices)}")
    return 2 if res.censored else 0


def cmd_sweep(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    # keys naming sweep's own flags (out, summary) were merged into args
    cfg = {k: v for k, v in cfg.items() if not hasattr(args, k)}
    if args.preset:
        if args.preset not in experiments.PRESETS:
            print(f"error: unknown preset {args.preset!r}; have "
                  f"{sorted(experiments.PRESETS)}", file=sys.stderr)
            return 1
        if cfg:
            raise ValueError(f"--preset {args.preset} runs its own sweep, "
                             f"so the config keys {sorted(cfg)} would be ignored")
        spec = experiments.PRESETS[args.preset]
    elif args.config:
        spec = experiments.SweepSpec.from_config(cfg)
    else:
        print("error: sweep needs --preset or --config", file=sys.stderr)
        return 1
    _check_out(args.out, args.summary)
    records = experiments.run_sweep(spec, jobs=args.jobs)
    if args.out:
        experiments.write_csv(records, args.out)
        print(f"wrote {len(records)} rows to {args.out}")
    if args.summary:
        rows = experiments.aggregate(records, omega=spec.omega, delta=spec.delta)
        experiments.write_summary_csv(rows, args.summary)
        print(f"wrote {len(rows)} summary rows to {args.summary}")
    if not args.out and not args.summary:
        for rec in records:
            print(",".join(str(x) for x in rec.row()))
    censored = sum(r.censored for r in records)
    if censored:
        print(f"censored={censored}/{len(records)}")
    errors = sum(r.stop_reason == "error" for r in records)
    if errors:  # an engine error is a failure, not a budget hit
        print(f"errors={errors}/{len(records)}", file=sys.stderr)
        return 1
    return 2 if censored else 0


def _verify_z(args) -> bool:
    from .oracle import z_ell_bruteforce

    checked = 0
    for k in range(2, 7):
        for j in range(1, k):
            for ell in combinatorics.iter_lengths_with_vertex_budget(k, j, 9):
                closed = combinatorics.z_ell(k, j, ell)
                brute = z_ell_bruteforce(k, j, ell)
                if closed != brute:
                    print(f"FAIL z({k},{j},{ell}): closed {closed} != brute {brute}")
                    return False
                checked += 1
    print(f"PASS z formula: {checked} (k, j, ell) points match brute force")
    return True


def _verify_lazy_explicit(args) -> bool:
    n = 20 if args.n is None else args.n
    trials, k, j = args.trials, 3 if args.k is None else args.k, 2 if args.j is None else args.j
    same = 0
    for t in range(trials):
        s = experiments.trial_seed(args.seed, 0, 0, t)
        p = 2.0 * combinatorics.threshold_p0(n, k, j)
        He = hypergraph.generate_explicit(n, k, p, seed=s)
        Hl = hypergraph.LazyHypergraph(n, k, p, seed=s)
        te = pathfinder.run(He, k, j, seed=s)
        tl = pathfinder.run(Hl, k, j, seed=s)
        se_, sl = te.summary(), tl.summary()
        se_.pop("ms"), sl.pop("ms")
        if te.events == tl.events and se_ == sl:
            same += 1
    print(f"{'PASS' if same == trials else 'FAIL'} lazy-explicit: "
          f"{same}/{trials} traces identical")
    return same == trials


def _verify_oracle_bound(args) -> bool:
    n = 10 if args.n is None else args.n
    trials, k, j = args.trials, 3 if args.k is None else args.k, 2 if args.j is None else args.j
    good = 0
    for t in range(trials):
        s = experiments.trial_seed(args.seed, 1, 0, t)
        p = 2.0 * combinatorics.threshold_p0(n, k, j)
        H = hypergraph.generate_explicit(n, k, p, seed=s)
        opt = oracle.longest_path_exact(H, j).length
        found = pathfinder.run(H, k, j, seed=s).max_ell
        if found <= opt:
            good += 1
    print(f"{'PASS' if good == trials else 'FAIL'} oracle-bound: "
          f"{good}/{trials} runs within the exact optimum")
    return good == trials


def cmd_verify(args) -> int:
    suites = {
        "z-formula": _verify_z,
        "lazy-explicit": _verify_lazy_explicit,
        "oracle-bound": _verify_oracle_bound,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if "oracle-bound" in names and args.n is not None and args.n > 12:  # the exact oracle's reach
        raise ValueError(f"oracle-bound runs at n <= 12, got -n {args.n}")
    if args.n is not None and args.n <= (k := 3 if args.k is None else args.k):  # p0 needs n > k
        raise ValueError(f"verify needs -n > k = {k}, got -n {args.n}")
    ok = all(suites[name](args) for name in names)
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: the module docstring keeps 2 for censoring."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="tightpath", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, k=True, j=True):
        sp.add_argument("--config", help="flat key=value defaults; flags win")
        if k:
            sp.add_argument("-k", type=int, default=None)
        if j:
            sp.add_argument("-j", type=int, default=None)

    sp = sub.add_parser("params", help="structural parameters a, b, s, r, batch size")
    common(sp)
    sp.set_defaults(func=cmd_params, need=("k", "j"))

    sp = sub.add_parser("bounds", help="threshold p0 and length-bound curves")
    common(sp)
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--omega", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.set_defaults(func=cmd_bounds, need=("k", "j", "n", "eps"))

    sp = sub.add_parser("z", help="equivalence class size z_ell")
    common(sp)
    sp.add_argument("-l", "--length", type=int, default=None)
    sp.set_defaults(func=cmd_z, need=("k", "j", "length"))

    sp = sub.add_parser("expectation", help="expected path-class count")
    common(sp)
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument("-l", "--length", type=int, default=None)
    sp.add_argument("-p", type=float, default=None)
    sp.add_argument("--exact", action="store_true", help="also print the exact fraction")
    sp.add_argument("--mc", type=int, default=0, help="Monte-Carlo sample count")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_expectation, need=("k", "j", "n", "length", "p"))

    sp = sub.add_parser("gen", help="write an explicit instance file")
    common(sp, j=False)
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument("-p", type=float, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sample", action="store_true",
                    help="count-then-rank sampling for large universes")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_gen, need=("k", "n", "p"))

    sp = sub.add_parser("run", help="one search run")
    common(sp)
    sp.add_argument("--hypergraph", help="explicit instance file; else lazy via -n/-p")
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument("-p", type=float, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mode", choices=pathfinder.MODES, default="auto")
    sp.add_argument("--trace", help="write the event trace as JSON lines")
    sp.add_argument("--trace-level", choices=pathfinder.TRACE_LEVELS, default="events")
    sp.add_argument("--stopping", choices=("standard", "loose", "none"), default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--target", type=float, default=None, help="explicit S1 threshold")
    sp.add_argument("--t0", type=float, default=None, help="explicit S2 threshold")
    sp.add_argument("--budget", type=int, default=None, help="hard query cap")
    sp.add_argument("--benchmark", action="store_true", help="disable S3/S4")
    sp.set_defaults(func=cmd_run, need=("j",))

    sp = sub.add_parser("oracle", help="exact longest path on an instance file")
    common(sp, k=False)
    sp.add_argument("--hypergraph", required=True)
    sp.add_argument("--node-budget", type=int, default=5_000_000)
    sp.add_argument("--method", choices=("auto", "dfs", "levels"), default="auto")
    sp.set_defaults(func=cmd_oracle, need=("j",))

    sp = sub.add_parser("sweep", help="run a trial sweep from a config or preset")
    sp.add_argument("--config")
    sp.add_argument("--preset", help=f"one of {sorted(experiments.PRESETS)}")
    sp.add_argument("--out", help="trial CSV path")
    sp.add_argument("--summary", help="aggregated CSV path")
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=cmd_sweep, need=())

    sp = sub.add_parser("verify", help="cross-check suites")
    common(sp)
    sp.add_argument("--suite", choices=("z-formula", "lazy-explicit", "oracle-bound", "all"),
                    default="all")
    sp.add_argument("-n", type=int, default=None, help="default 20; oracle-bound 10, at most 12")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify, need=())
    for sp in sub.choices.values():
        sp.set_defaults(parser=sp)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        _merge_config(args, argv)
        for name in args.need:
            if getattr(args, name, None) is None:
                print(f"error: missing required value for {name!r}", file=sys.stderr)
                return 1
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
