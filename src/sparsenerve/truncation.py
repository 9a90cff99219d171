"""Truncated Dowker dissimilarities via farthest-point sampling.

Given Lambda and a translation function alpha, produces Gamma with
Lambda <= Gamma <= alpha(Lambda) entrywise.  The truncation follows a
hierarchical tree of farthest points computed from the cover matrix of
(Lambda, alpha(Lambda)): walking the tree leaves-first, each point's row
is minimized against its children's finished rows and clamped back up
to Lambda, so redundancy accumulates toward the root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cover import cover_matrix
from .model import (
    INF,
    DowkerDissimilarity,
    InputValidationError,
    ParentFunction,
    TranslationFunction,
    as_extended_matrix,
)


@dataclass(frozen=True)
class FarthestPointOrder:
    """Greedy insertion order over L with per-point insertion radii.

    ``order[0]`` is the initial point; ``insertion_radius`` (indexed by
    point, not by rank) is the cover distance to the previously inserted
    set at the moment of insertion, infinite for the initial point.
    """

    order: np.ndarray
    insertion_radius: np.ndarray


def farthest_point_sampling(rho, initial_point: int = 0) -> FarthestPointOrder:
    """Greedy farthest-point ordering driven by a cover matrix.

    The distance of l to the inserted set is min over inserted l' of
    rho(l, l').  Ties in the argmax break to the lowest index.
    """
    rho = as_extended_matrix(rho)
    n = rho.shape[0]
    if n == 0:
        raise InputValidationError("empty index set")
    if not (0 <= initial_point < n):
        raise InputValidationError(f"initial point {initial_point} out of range")
    order = np.empty(n, dtype=int)
    radius = np.full(n, INF)
    order[0] = initial_point
    d = rho[:, initial_point].copy()
    d[initial_point] = -INF
    for i in range(1, n):
        li = int(np.argmax(d))
        order[i] = li
        radius[li] = d[li]
        d = np.minimum(d, rho[:, li])
        d[li] = -INF
    return FarthestPointOrder(order=order, insertion_radius=radius)


def truncation_tree(rho, fps: FarthestPointOrder) -> list:
    """Edges (child, parent) of the hierarchical tree of farthest points.

    For each non-initial point l, the parent is the earliest-inserted
    predecessor l' with rho(l, l') equal to l's insertion radius; if no
    predecessor realizes it, the earliest-inserted predecessor minimizing
    rho(l, l') among positive entries, falling back to the initial point.
    """
    rho = as_extended_matrix(rho)
    order = fps.order
    radius = fps.insertion_radius
    edges = []
    for i in range(1, order.size):
        l = int(order[i])
        preds = order[:i]
        realizing = preds[rho[l, preds] == radius[l]]
        if realizing.size:
            psi = int(realizing[0])
        else:
            positive = preds[rho[l, preds] > 0]
            if positive.size:
                psi = int(positive[np.argmin(rho[l, positive])])
            else:
                psi = int(order[0])
        edges.append((l, psi))
    return edges


@dataclass(frozen=True)
class TruncationResult:
    """Truncated dissimilarity together with the tree that produced it."""

    gamma: DowkerDissimilarity
    fps: FarthestPointOrder
    tree: ParentFunction


def truncation_result(
    dd: DowkerDissimilarity,
    alpha: TranslationFunction,
    initial_point: int = 0,
) -> TruncationResult:
    """Run the full truncation and keep the farthest-point tree.

    Gamma starts at alpha(Lambda); walking the tree leaves-first, each
    row is minimized against its children's finished rows and then
    maximized back up to Lambda, so each row dominates its whole subtree
    wherever alpha(Lambda) allows.  Validates alpha on the data scale and
    builds the cover matrix of (Lambda, alpha(Lambda)).
    """
    if not isinstance(dd, DowkerDissimilarity):
        dd = DowkerDissimilarity(dd)
    lam = dd.values
    alpha.validate_on(2.0 * dd.max_finite)
    alpha_lam = alpha(lam)
    rho = cover_matrix(lam, alpha_lam)
    fps = farthest_point_sampling(rho, initial_point)
    edges = truncation_tree(rho, fps)
    parent = np.arange(lam.shape[0])
    for child, par in edges:
        parent[child] = par
    tree = ParentFunction(parent=parent)
    children = tree.children()

    gamma = alpha_lam.copy()
    for l in tree.leaves_first():
        kids = children[l]
        if kids:
            gamma[l] = np.minimum(gamma[l], gamma[kids].min(axis=0))
        gamma[l] = np.maximum(gamma[l], lam[l])
    return TruncationResult(
        gamma=DowkerDissimilarity(gamma),
        fps=fps,
        tree=tree,
    )


def truncate(
    dd: DowkerDissimilarity,
    alpha: TranslationFunction,
    initial_point: int = 0,
) -> DowkerDissimilarity:
    """Truncated dissimilarity Gamma with Lambda <= Gamma <= alpha(Lambda)."""
    return truncation_result(dd, alpha, initial_point).gamma
