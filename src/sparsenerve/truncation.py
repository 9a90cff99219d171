"""Truncated Dowker dissimilarities via farthest-point sampling.

Given Lambda and a translation function alpha, produces Gamma with
Lambda <= Gamma <= alpha(Lambda) entrywise.  Farthest-point sampling under
the cover matrix of (Lambda, alpha(Lambda)) computes only the entries that
a lower bound cannot rule out, one column per inserted point, and records
in the same loop each point's parent in the hierarchical tree of farthest
points; the full |L| x |L| matrix is never built.  Gamma then
walks the insertion order backwards: each point's row, already minimized
against its children's finished rows, is clamped back up to Lambda and
folded into its parent's row, so redundancy accumulates toward the root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cover import cover_column, cover_matrix
from .model import (
    INF,
    DowkerDissimilarity,
    InputValidationError,
    ParentFunction,
    TranslationFunction,
    as_extended_matrix,
    extended_values,
)


@dataclass(frozen=True)
class FarthestPointOrder:
    """Greedy insertion order over L with per-point insertion radii and parents.

    ``order[0]`` is the initial point; ``insertion_radius`` (indexed by
    point, not by rank) is the cover distance to the previously inserted
    set at the moment of insertion, infinite for the initial point.
    ``parent`` (also indexed by point) is the earliest-inserted predecessor
    realizing the insertion radius; the initial point is its own parent.
    """

    order: np.ndarray
    insertion_radius: np.ndarray
    parent: np.ndarray


def farthest_point_sampling(
    lam, alpha_lam, initial_point: int = 0
) -> FarthestPointOrder:
    """Greedy farthest-point ordering under the cover matrix rho of
    (Lambda, alpha(Lambda)), given as ``lam`` and ``alpha_lam`` on one L x W.

    The distance d(l) of l to the inserted set is min over inserted l' of
    rho(l, l').  Ties in the argmax break to the lowest index.  A point's
    parent moves to the newly inserted point only when its distance
    strictly decreases, so it stays on the earliest predecessor realizing
    the minimum (the initial point when every entry is infinite).

    Cover entries are computed only where they could lower d(l).  Each l
    has a home witness h(l) minimizing alpha(Lambda)(l, .), with reach
    r(l) = alpha(Lambda)(l, h(l)).  When l' is inserted, h(l) qualifies in
    the supremum defining rho(l, l') whenever r(l) < Lambda(l', h(l)), so
    rho(l, l') >= Lambda(l', h(l)) then and >= 0 always.  A point whose
    bound already reaches d(l) keeps its distance and its parent, so only
    the other points get their entry computed.  The initial point's full
    column comes from ``cover_matrix``; each later one from
    ``cover_column`` directly, on the arrays validated on entry (a
    ``DowkerDissimilarity`` is not scanned again), gathering the candidate
    rows of alpha(Lambda) a block at a time.
    """
    alpha_dd, lam, alpha_lam = alpha_lam, extended_values(lam), extended_values(alpha_lam)
    if lam.shape != alpha_lam.shape:
        raise InputValidationError(
            f"shape mismatch: {lam.shape} vs {alpha_lam.shape}"
        )
    n = lam.shape[0]
    if n == 0:
        raise InputValidationError("empty index set")
    if not (0 <= initial_point < n):
        raise InputValidationError(f"initial point {initial_point} out of range")
    home = np.argmin(alpha_lam, axis=1)
    reach = alpha_lam[np.arange(n), home]
    order = np.empty(n, dtype=int)
    radius = np.full(n, INF)
    parent = np.full(n, initial_point)
    order[0] = initial_point
    d = cover_matrix(lam[initial_point : initial_point + 1], alpha_dd)[:, 0]
    d[initial_point] = -INF
    for i in range(1, n):
        li = int(np.argmax(d))
        order[i] = li
        radius[li] = d[li]
        # Inserted points sit at -inf, below every bound, so they are never
        # candidates again.
        d[li] = -INF
        far = lam[li, home]
        bound = np.where(reach < far, far, 0.0)
        cand = np.flatnonzero(bound < d)
        if cand.size == 0:
            continue
        col = cover_column(lam[li], alpha_lam, cand)
        near = d[cand]
        parent[cand[col < near]] = li
        d[cand] = np.minimum(near, col)
    return FarthestPointOrder(order=order, insertion_radius=radius, parent=parent)


def truncation_tree(fps: FarthestPointOrder) -> list:
    """Edges (child, parent) of the hierarchical tree of farthest points.

    One edge per non-initial point, in insertion order; the parent is the
    earliest-inserted predecessor realizing the point's insertion radius.
    """
    return [(int(l), int(fps.parent[l])) for l in fps.order[1:]]


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

    Gamma starts at alpha(Lambda); walking the insertion order backwards,
    each row, already minimized against its children's finished rows, is
    maximized back up to Lambda and folded into its parent's row, so each
    row dominates its whole subtree wherever alpha(Lambda) allows.
    Alpha was checked exactly when it was made; alpha(Lambda) is scanned
    once, by ``as_extended_matrix``, as a safety net, and wrapped without
    a copy.  Farthest-point sampling computes only the cover entries of
    (Lambda, alpha(Lambda)) it needs.  Gamma is then folded in
    alpha(Lambda)'s own buffer, so the run holds Lambda and one more
    L x W matrix; made of their entries, Gamma is not scanned again.
    """
    if not isinstance(dd, DowkerDissimilarity):
        dd = DowkerDissimilarity(dd)
    lam = dd.values
    gamma = as_extended_matrix(alpha(lam))
    fps = farthest_point_sampling(dd, DowkerDissimilarity._of_entries(gamma), initial_point)
    tree = ParentFunction(parent=fps.parent)

    # alpha(Lambda), a new array of alpha's making, is no longer read:
    # Gamma starts as it, in place.
    # Children are inserted after their parent, so walking the order
    # backwards finishes every row before it is folded into its parent's.
    gamma.setflags(write=True)
    for l in fps.order[::-1]:
        row = gamma[l]
        np.maximum(row, lam[l], out=row)
        np.minimum(gamma[fps.parent[l]], row, out=gamma[fps.parent[l]])
    return TruncationResult(
        gamma=DowkerDissimilarity._of_entries(gamma),
        fps=fps,
        tree=tree,
    )
