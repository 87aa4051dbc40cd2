"""The package's public surface, and the reference checkers left to the tests."""

import tightpath
import tightpath.monitor
import tightpath.pathfinder

import oracles

TEST_ONLY = ("ForbiddenCounters", "forbidden_counts", "F2_EXACT_LIMIT",
             "allowed_candidates", "replay_trace", "retreat")


def test_every_exported_name_resolves():
    assert [name for name in tightpath.__all__ if not hasattr(tightpath, name)] == []


def test_test_only_checkers_live_in_the_tests():
    for module in (tightpath, tightpath.pathfinder, tightpath.monitor):
        assert [name for name in TEST_ONLY if hasattr(module, name)] == []
    assert [name for name in TEST_ONLY if not hasattr(oracles, name)] == []


def test_degree_tracker_is_gone():
    """Monitor.counts holds the degree counts: the tracker was deleted, not moved."""
    for module in (tightpath, tightpath.monitor):
        assert not hasattr(module, "DegreeTracker")
