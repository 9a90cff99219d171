"""Minimal restriction times along the truncation tree."""

from __future__ import annotations

import numpy as np

from .model import (
    INF,
    InputValidationError,
    ParentFunction,
    RestrictionTimes,
    extended_values,
    row_blocks,
)


def restriction_times(phi: ParentFunction, lam, gamma) -> RestrictionTimes:
    """Minimal restriction times over the parent tree.

    Each non-root point's raw deadline is the cover-matrix entry
    rho(l, parent(l)) of (Lambda, Gamma): the largest Lambda(parent(l), w)
    over witnesses w with Gamma(l, w) < Lambda(parent(l), w), or 0 if there
    is none.  Only these n entries are computed, never the whole matrix,
    a block of rows at a time (``row_blocks``): the parents' rows of Lambda
    are gathered one block at a time, not as a second L x W matrix.  The
    root's deadline is infinite.  Deadlines then propagate upwards so every
    node carries the maximum raw deadline over its subtree, making parents
    outlive their children's removal.
    """
    lam = extended_values(lam)
    gamma = extended_values(gamma)
    if lam.shape != gamma.shape or lam.shape[0] != len(phi):
        raise InputValidationError("dissimilarities do not match the parent tree")
    p = phi.parent
    raw = np.empty(len(p))
    for rows in row_blocks(len(p), lam.shape[1]):
        lp = lam[p[rows]]
        np.where(gamma[rows] < lp, lp, 0.0).max(axis=1, initial=0.0, out=raw[rows])
    raw[phi.root] = INF
    times = raw.copy()
    for l in phi.leaves_first():
        if l != phi.root:
            times[p[l]] = max(times[p[l]], times[l])
    return RestrictionTimes(times=times, tree=phi)
