"""Hierarchical-histogram range queries under LDP (Sections 4.3-4.5).

Public entry point: :class:`HierarchicalHistogram` (the paper's HH_B
framework, instantiated as TreeOUE / TreeHRR / TreeOLH with or without
consistency).  Supporting pieces -- B-adic decompositions, the structural
domain tree and the constrained-inference post-processing -- are exposed for
reuse and testing.
"""

from repro.hierarchy.badic import (
    BAdicInterval,
    badic_decomposition,
    decomposition_size_bound,
    is_badic,
    worst_case_nodes_per_level,
)
from repro.hierarchy.consistency import (
    consistency_violation,
    mean_consistency,
    variance_reduction_factor,
    weighted_averaging,
)
from repro.hierarchy.hh import (
    LEVEL_STRATEGIES,
    HierarchicalClient,
    HierarchicalEstimator,
    HierarchicalHistogram,
    HierarchicalServer,
)
from repro.hierarchy.least_squares import (
    design_matrix,
    least_squares_leaves,
    least_squares_levels,
    range_query_variance_factor,
)
from repro.hierarchy.tree import DomainTree, TreeNode

__all__ = [
    "BAdicInterval",
    "badic_decomposition",
    "decomposition_size_bound",
    "is_badic",
    "worst_case_nodes_per_level",
    "consistency_violation",
    "mean_consistency",
    "variance_reduction_factor",
    "weighted_averaging",
    "LEVEL_STRATEGIES",
    "HierarchicalClient",
    "HierarchicalEstimator",
    "HierarchicalHistogram",
    "HierarchicalServer",
    "design_matrix",
    "least_squares_leaves",
    "least_squares_levels",
    "range_query_variance_factor",
    "DomainTree",
    "TreeNode",
]
