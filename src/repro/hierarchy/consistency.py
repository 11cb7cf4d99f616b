"""Constrained inference (consistency post-processing) for noisy trees.

Section 4.5 of the paper adapts the two-stage least-squares procedure of
Hay et al. (VLDB 2010) to the local model.  Given the unbiased but noisy
per-node fraction estimates produced by the hierarchical-histogram
aggregator, the procedure finds the minimum-L2 adjustment that makes every
parent equal the sum of its children:

* **Stage 1 (weighted averaging, bottom-up).**  Each non-leaf node's value is
  replaced by a weighted combination of its own estimate and the sum of its
  children's adjusted estimates,
  ``f_bar(v) = (B^i - B^{i-1})/(B^i - 1) * f(v)
  + (B^{i-1} - 1)/(B^i - 1) * sum_children f_bar(u)``,
  where ``i`` is the node's height (leaves have height 1).
* **Stage 2 (mean consistency, top-down).**  The residual between a parent
  and the sum of its children is split equally among the children,
  ``f_hat(v) = f_bar(v) + (1/B) * (f_hat(parent) - sum_siblings f_bar)``.

Because the protocol works with *fractions* (level sampling means per-level
counts need not agree), the root's value is known exactly: the fractions of
the whole population sum to one.  We therefore pin the root to 1 before the
top-down stage, which is itself a valid post-processing step and further
reduces the children's error.

The result is the best linear unbiased estimator subject to the tree
constraints (Gauss-Markov, Lemma 4.6), reducing the per-node variance by a
factor of at least ``B / (B + 1)``.

.. deprecated::
    The math now lives in :mod:`repro.core.postprocess` as the
    ``TreeWeightedAveraging`` / ``TreeMeanConsistency`` processors of the
    unified post-processing pipeline (registry token ``"consistency"``).
    :func:`weighted_averaging` and :func:`mean_consistency` remain as thin
    aliases of the two stages; the combined procedure is
    :func:`repro.core.postprocess.tree_enforce_consistency`.  Behavior is
    bit-identical.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.postprocess import (
    _validate_tree_levels,
    tree_mean_consistency,
    tree_weighted_averaging,
)


def weighted_averaging(
    level_values: Sequence[np.ndarray], branching: int
) -> List[np.ndarray]:
    """Stage 1: bottom-up weighted averaging of node estimates.

    Alias of :func:`repro.core.postprocess.tree_weighted_averaging` (the
    canonical home of the math since the pipeline unification).
    """
    return tree_weighted_averaging(level_values, branching)


def mean_consistency(
    level_values: Sequence[np.ndarray],
    branching: int,
    root_value: Optional[float] = None,
) -> List[np.ndarray]:
    """Stage 2: top-down redistribution of parent/children residuals.

    Alias of :func:`repro.core.postprocess.tree_mean_consistency` (the
    canonical home of the math since the pipeline unification).
    """
    return tree_mean_consistency(level_values, branching, root_value=root_value)


def consistency_violation(level_values: Sequence[np.ndarray], branching: int) -> float:
    """Maximum absolute violation of the parent = sum(children) constraint.

    Useful in tests and as a sanity check after post-processing (should be
    at floating-point noise level).
    """
    levels = _validate_tree_levels(level_values, branching)
    worst = 0.0
    for depth in range(len(levels) - 1):
        child_sums = levels[depth + 1].reshape(-1, branching).sum(axis=1)
        worst = max(worst, float(np.max(np.abs(levels[depth] - child_sums))))
    return worst


def variance_reduction_factor(branching: int) -> float:
    """Lemma 4.6 lower bound on the variance reduction: ``B / (B + 1)``."""
    if branching < 2:
        raise ValueError(f"branching factor must be >= 2, got {branching}")
    return branching / (branching + 1.0)
