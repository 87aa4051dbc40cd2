"""The package's public surface, and the reference checkers left to the tests."""

import inspect

import tightpath
import tightpath.combinatorics
import tightpath.monitor
import tightpath.pathfinder

import oracles

TEST_ONLY = ("ForbiddenCounters", "forbidden_counts", "F2_EXACT_LIMIT",
             "allowed_candidates", "replay_trace", "retreat",
             "partition_path", "PathPart", "ShortPathError", "edge_sets", "relabeled")


def test_every_exported_name_resolves():
    assert [name for name in tightpath.__all__ if not hasattr(tightpath, name)] == []


def test_every_public_class_and_function_is_exported():
    public = [name for name, obj in vars(tightpath).items()
              if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))]
    assert sorted(set(public) - set(tightpath.__all__)) == []


def test_test_only_checkers_live_in_the_tests():
    for module in (tightpath, tightpath.pathfinder, tightpath.monitor, tightpath.combinatorics):
        assert [name for name in TEST_ONLY if hasattr(module, name)] == []
    assert [name for name in TEST_ONLY if not hasattr(oracles, name)] == []
    assert not hasattr(tightpath.JTightPath, "edge_sets")
    assert not hasattr(tightpath.ExplicitHypergraph, "relabeled")


def test_entry_points_take_no_test_only_switches():
    """No run sets audit, method or bounds, so no entry point takes them."""
    for f in (tightpath.PathFinder, tightpath.run, tightpath.longest_path_exact,
              tightpath.aggregate):
        assert {"audit", "method", "bounds"}.isdisjoint(inspect.signature(f).parameters), f


def test_degree_tracker_is_gone():
    """Monitor.counts holds the degree counts: the tracker was deleted, not moved."""
    for module in (tightpath, tightpath.monitor):
        assert not hasattr(module, "DegreeTracker")
