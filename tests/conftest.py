"""Shared test fixtures."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(f, *args)`` calls f(*args) under tracemalloc and returns
    (its result, the peak bytes traced during the call)."""

    def run(f, *args):
        tracemalloc.start()
        try:
            out = f(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak

    return run
