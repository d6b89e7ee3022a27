"""Socio-spatial group selection: pick p socially tight members and a venue
minimizing total travel, under a stranger budget and a radius bound.

Exact branch-and-bound solvers (single venue and venue sets), a polynomial
merge heuristic, spatial indexes, an LP-format model exporter, and a
brute-force oracle.
"""

from .balltree import Ball, Balltree, BalltreeNode, build_balltree, mindist_mbr_ball, mindist_point_ball
from .graph import DegreePartition, core_decompose, degree_partition, is_threshold_graph
from .indexes import Indexes, build_indexes
from .ilp import (
    IlpModel,
    enumerate_binary_optimum,
    export_mrgq_model,
    export_ssgq_model,
    validate_assignment,
)
from .model import (
    FamiliarityMode,
    Location,
    Query,
    SearchStats,
    SocialGraph,
    Solution,
    SpatialDataset,
    avg_acquainted,
    distance,
    familiarity_ok,
    is_feasible,
    total_distance,
    unfamiliar_count,
)
from .multi_venue import (
    BoundRecord,
    MagsAudit,
    SelectionRecord,
    mags_solve,
    srdo_seed,
)
from .oracle import OracleBudgetError, OracleResult, brute_force, completion_bound_oracle
from .pruning import (
    PruneConfig,
    avg_familiarity_prune,
    ball_distance_bound,
    distance_prune,
    inner_triangle_bound,
    member_familiarity_prune,
    outer_triangle_ball_bound,
    pool_familiarity_prune,
)
from .rtree import Mbr, Rtree, build_rtree, mindist_point_mbr
from .single_venue import (
    MergeQueues,
    merge_prune,
    merge_rank,
    minimal_order_theta,
    ssgmerge_solve,
    ssgs_solve,
    ssp_solve,
    sso_admits,
)

__all__ = [
    "Ball",
    "Balltree",
    "BalltreeNode",
    "BoundRecord",
    "DegreePartition",
    "FamiliarityMode",
    "IlpModel",
    "Indexes",
    "Location",
    "MagsAudit",
    "Mbr",
    "MergeQueues",
    "OracleBudgetError",
    "OracleResult",
    "PruneConfig",
    "Query",
    "Rtree",
    "SearchStats",
    "SelectionRecord",
    "SocialGraph",
    "Solution",
    "SpatialDataset",
    "avg_acquainted",
    "avg_familiarity_prune",
    "ball_distance_bound",
    "brute_force",
    "build_balltree",
    "build_indexes",
    "build_rtree",
    "completion_bound_oracle",
    "core_decompose",
    "degree_partition",
    "distance",
    "distance_prune",
    "enumerate_binary_optimum",
    "export_mrgq_model",
    "export_ssgq_model",
    "familiarity_ok",
    "inner_triangle_bound",
    "is_feasible",
    "is_threshold_graph",
    "mags_solve",
    "member_familiarity_prune",
    "merge_prune",
    "merge_rank",
    "mindist_mbr_ball",
    "mindist_point_ball",
    "mindist_point_mbr",
    "minimal_order_theta",
    "outer_triangle_ball_bound",
    "pool_familiarity_prune",
    "srdo_seed",
    "ssgmerge_solve",
    "ssgs_solve",
    "sso_admits",
    "ssp_solve",
    "total_distance",
    "unfamiliar_count",
    "validate_assignment",
]
