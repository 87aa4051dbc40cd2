"""Span tracing at module boundaries, installed from the benchmark only.

``Tracer.install()`` swaps wrappers into the ``pathfinder`` and
``hypergraph`` namespaces for ``chain64_np``, ``unrank_colex``, the scalar
``chain64`` and the two ``combinatorics`` calls the finder makes.
``backend()`` hands the finder a delegating backend that records
``bulk_query`` and ``query_edge``; ``watch_monitor()`` wraps the two monitor
hooks on one instance. Nothing is installed in the timed runs.

A span is ``[name, start, end, parent, trial, count]``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``count`` is the rows the
call handled. Scalar ``chain64`` runs millions of times per trial, so it is
counted, not spanned; its time stays in its caller's self time.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

from tightpath import hypergraph, pathfinder

perf_counter = time.perf_counter


def _rows_of_cols(args) -> int:
    """Rows in a column-list argument (chain64_np's second, bulk_query's first)."""
    cols = args[-1]
    return int(np.size(cols[0])) if len(cols) else 0


def _rows_of_first(args) -> int:
    return int(np.size(args[0]))


class _Backend:
    """Delegates to a hypergraph backend, recording the two query calls."""

    def __init__(self, H, tracer: "Tracer"):
        self.n, self.k = H.n, H.k
        self.bulk_query = tracer.wrap(H.bulk_query, "hypergraph.bulk_query", _rows_of_cols)
        self.query_edge = tracer.wrap(H.query_edge, "hypergraph.query_edge")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial_id = -1
        self.scalar_chain64 = 0

    def wrap(self, fn, name: str, count_of=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trial_id,
                   count_of(args) if count_of else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.trial_id, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def trial(self, trial_id: int):
        self.trial_id = trial_id
        return self.span("trial")

    def backend(self, H):
        return _Backend(H, self)

    def watch_monitor(self, monitor) -> None:
        monitor.check_stop = self.wrap(monitor.check_stop, "monitor.check_stop")
        monitor.on_discover = self.wrap(monitor.on_discover, "monitor.on_discover")

    def _count_chain64(self, fn):
        def counted(key, values):
            self.scalar_chain64 += 1
            return fn(key, values)

        return counted

    @contextlib.contextmanager
    def install(self):
        """Wrap the hashing and unranking entry points for the duration."""
        saved = []
        patches = (
            (pathfinder, "chain64_np", self.wrap(pathfinder.chain64_np, "rng.chain64_np", _rows_of_cols)),
            (hypergraph, "chain64_np", self.wrap(hypergraph.chain64_np, "rng.chain64_np", _rows_of_cols)),
            (hypergraph, "unrank_colex", self.wrap(hypergraph.unrank_colex, "hypergraph.unrank_colex", _rows_of_first)),
            (pathfinder, "JTightPath", self.wrap(pathfinder.JTightPath, "combinatorics")),
            (pathfinder, "structural_params", self.wrap(pathfinder.structural_params, "combinatorics")),
            (pathfinder, "chain64", self._count_chain64(pathfinder.chain64)),
            (hypergraph, "chain64", self._count_chain64(hypergraph.chain64)),
        )
        try:
            for module, attr, fn in patches:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, fn)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "header", "fields": ["name", "start", "end", "parent",
                                                              "trial", "count"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def totals(self) -> dict:
        """Per span name: calls, busy seconds, self seconds and rows; plus the
        rows chain64_np hashed inside pathfinder.run spans."""
        child = [0.0] * len(self.spans)
        in_run = [False] * len(self.spans)
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                in_run[i] = in_run[parent]
            if name == "pathfinder.run":
                in_run[i] = True
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "rows": 0})
        hashed_in_run = 0
        for i, (name, start, end, _, _, count) in enumerate(self.spans):
            t = out[name]
            t["calls"] += 1
            t["busy_s"] += end - start
            t["self_s"] += end - start - child[i]
            t["rows"] += count
            if name == "rng.chain64_np" and in_run[i]:
                hashed_in_run += count
        result = dict(out)
        result["hashed_in_run"] = hashed_in_run
        return result
