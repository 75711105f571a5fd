"""CONGEST-model testbed for approximate weighted diameter/radius.

Exact graph oracles, a deterministic bandwidth-limited round engine, the
bounded-hop shortest-path pipeline, a cost-accounted randomized extremum
search standing in for quantum maximum finding, and generators plus
exact verifiers for the lower-bound gadget graphs.
"""

__version__ = "0.1.0"

from .graphs import (
    INFINITE,
    DisconnectedGraphError,
    GraphError,
    WeightedGraph,
    contract_unit_edges,
    diameter,
    eccentricity,
    exact_sssp,
    hop_diameter,
    radius,
)
from .engine import (
    BandwidthExceeded,
    CostLedger,
    MaxRoundsExceeded,
    Network,
    NodeProgram,
)
from .toolkit import (
    CongestionFailure,
    LevelTables,
    SkeletonState,
    approx_eccentricity,
    bounded_hop_mssp,
    build_skeleton_state,
    default_eps,
    embed_overlay,
    sssp_on_overlay,
)
from .search import (
    LowConfidenceResult,
    ParameterSchedule,
    SearchTrace,
    SkeletonOracle,
    amplified_max_search,
    approx_diameter,
    approx_radius,
    evaluate_f_i,
)
from .gadgets import (
    GadgetInstance,
    build_gadget,
    eval_F,
    eval_F_prime,
    ownership_schedule,
    validate_schedule,
    verify_reduction,
)

__all__ = [name for name in dir() if not name.startswith("_")]
