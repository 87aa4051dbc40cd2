"""The benchmark harness's traced run still fits the package it patches."""

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
