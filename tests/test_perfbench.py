"""The benchmark harness's traced run still fits the package it patches."""

import math
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_checked_mix_unit_records_a_search_span(monkeypatch):
    """``Tracer.install`` patches names in ``pathfinder`` and ``hypergraph``;
    a source change that drops one fails here, not only in a traced benchmark
    run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    with tracer.install():
        for i, fn in enumerate(WORKLOADS["checked-mix"].warm()):
            with tracer.trial(i):
                fn(tracer).check()
    assert "pathfinder.run" in {span[0] for span in tracer.spans}
    assert tracer.scalar_chain64 > 0  # the checked scan hashed through the patch


def test_traced_stream_build_is_attributed_to_construction(monkeypatch):
    """The ``tight-lazy`` warm-up unit (n = 200, j = 2) gives the same output
    traced as untraced, and the neutral stream build's hashing of every j-set
    shows as ``rng.chain64_np`` spans under ``pathfinder.init``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer
    from workloads import NO_TRACE, WORKLOADS

    (unit,) = WORKLOADS["tight-lazy"].warm()
    plain = unit(NO_TRACE).output
    tracer = Tracer()
    with tracer.install():
        with tracer.trial(0):
            traced = unit(tracer)
    traced.check()
    assert traced.output == plain
    names = [span[0] for span in tracer.spans]
    in_init = [span for span in tracer.spans
               if span[0] == "rng.chain64_np" and span[3] >= 0
               and names[span[3]] == "pathfinder.init"]
    assert sum(span[5] for span in in_init) >= math.comb(200, 2)
