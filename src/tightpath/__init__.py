"""Depth-first search, exact calculators, and experiments for j-tight paths
in binomial random k-uniform hypergraphs."""

from .combinatorics import (
    JTightPath,
    ShortPathError,
    StructuralParams,
    expected_path_classes,
    partition_path,
    path_vertex_count,
    structural_params,
    theorem_bounds,
    threshold_p0,
    z_ell,
)
from .experiments import (
    PRESETS,
    SweepSpec,
    TrialRecord,
    aggregate,
    read_csv,
    run_sweep,
    write_csv,
    write_summary_csv,
)
from .hypergraph import (
    ExplicitHypergraph,
    LazyHypergraph,
    generate_explicit,
    sample_explicit,
)
from .monitor import (
    DegreeTracker,
    Monitor,
    StoppingConfig,
    default_c_ladder,
)
from .oracle import (
    OracleResult,
    enumerate_path_classes,
    expectation_monte_carlo,
    longest_path_exact,
    z_ell_bruteforce,
)
from .pathfinder import (
    PathFinder,
    RunTrace,
    activate_batch,
    run,
)

__all__ = [
    "DegreeTracker",
    "ExplicitHypergraph",
    "JTightPath",
    "LazyHypergraph",
    "Monitor",
    "OracleResult",
    "PRESETS",
    "PathFinder",
    "RunTrace",
    "ShortPathError",
    "StoppingConfig",
    "StructuralParams",
    "SweepSpec",
    "TrialRecord",
    "activate_batch",
    "aggregate",
    "default_c_ladder",
    "enumerate_path_classes",
    "expectation_monte_carlo",
    "expected_path_classes",
    "generate_explicit",
    "longest_path_exact",
    "partition_path",
    "path_vertex_count",
    "read_csv",
    "run",
    "run_sweep",
    "sample_explicit",
    "structural_params",
    "theorem_bounds",
    "threshold_p0",
    "write_csv",
    "write_summary_csv",
    "z_ell",
]

__version__ = "0.1.0"
