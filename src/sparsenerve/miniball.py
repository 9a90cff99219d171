"""Smallest enclosing balls of finite point sets.

``facet_balls`` computes the balls of a whole skeleton, one cardinality at
a time, from the balls one cardinality down.  The smallest enclosing ball
of a set sigma is the circumball of an affinely independent support
subset T (at most D + 1 points in R^D), with its center in the affine
hull of T (Gärtner, "Fast and robust smallest enclosing balls", 1999).
If T is not sigma, T lies in the facet tau that omits a vertex outside T,
and the ball of tau is the ball of sigma, so it holds sigma's opposite
vertex.  Any facet ball that holds its opposite vertex encloses sigma,
and no facet ball is larger than sigma's, so the smallest such radius is
sigma's.  If no facet ball holds its opposite vertex, T is sigma and
sigma's own circumball is its ball.  Circumcenters are built by
Gram-Schmidt on the edge vectors, for a batch of sets at once.

``enclosing_radii`` is the search over every vertex subset's circumball
that needs no facets; ``facet_balls`` falls back to it for the rows whose
own circumball is unusable.  ``miniball`` is Welzl's algorithm (Welzl
1991) on one point set; it is the independent oracle behind
``full_ambient_cech`` and the tests.
"""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np

from .model import InputValidationError

TOLERANCE = 1e-9

# Sets per batch in ``enclosing_radii`` and ``facet_balls``: large enough
# that numpy's per-call cost is spread thin, small enough that the
# temporaries stay below a few MiB.
CHUNK = 1024


def _circumsphere(S: np.ndarray):
    """Center and radius of the sphere through <= dim+1 affinely independent points."""
    if S.shape[0] == 1:
        return S[0].astype(float), 0.0
    U = S[1:] - S[0]
    b = 0.5 * np.sum(U * U, axis=1)
    G = U @ U.T
    try:
        x = np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        x, *_ = np.linalg.lstsq(G, b, rcond=None)
    center = S[0] + x @ U
    radius = float(np.linalg.norm(center - S[0]))
    return center, radius


def miniball(points, tol: float = TOLERANCE):
    """Smallest enclosing ball of the given points.

    Returns ``(center, radius)`` with every point within
    ``radius + tol * (1 + radius)`` of the center.  Deterministic: the
    internal shuffle uses a fixed seed.  Welzl's algorithm in its loop
    form: the recursion goes one level deeper per boundary point, so its
    depth is at most dim + 2 whatever the number of points.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    if P.size == 0 or P.ndim != 2:
        raise InputValidationError("miniball needs a nonempty 2-d point array")
    if not np.isfinite(P).all():
        raise InputValidationError("miniball points must be finite")
    dim = P.shape[1]

    idx = list(range(P.shape[0]))
    random.Random(0).shuffle(idx)

    def ball(n, boundary):
        """Smallest ball of the first n shuffled points with boundary on its sphere."""
        if not boundary:
            c, r = P[idx[0]].astype(float), -1.0
        else:
            c, r = _circumsphere(P[boundary])
            if len(boundary) == dim + 1:
                return c, r
        for i in range(n):
            p = P[idx[i]]
            if np.linalg.norm(p - c) > r + tol * (1.0 + max(r, 0.0)):
                c, r = ball(i, boundary + [idx[i]])
        return c, r

    center, radius = ball(len(idx), [])
    return center, max(radius, 0.0)


def enclosing_radii(X, simplices):
    """Smallest enclosing ball of every row of ``simplices``, from no facets.

    ``X`` is an ``(n, D)`` array of finite points and ``simplices`` an
    ``(m, k)`` integer array of vertex indices, all sets of the same
    cardinality k.  For every vertex subset T of size at most
    min(k, D + 1), the circumball of T with its center in the affine hull
    of T is built for ``CHUNK`` sets at a time; it counts if every vertex
    lies within ``r + TOLERANCE * (1 + r)``, the rule ``miniball`` uses.
    Returns the radii, the smallest r that counts (inf if none does), and
    the ``(m, D)`` centers of those balls.  It builds up to 2^k - 1 balls
    per set, so ``facet_balls`` calls it only for the rows its own rule
    cannot settle.
    """
    X = np.asarray(X, dtype=float)
    S = np.asarray(simplices, dtype=np.intp)
    k = S.shape[1]
    subsets = [
        T for size in range(1, min(k, X.shape[1] + 1) + 1)
        for T in combinations(range(k), size)
    ]
    radii = np.empty(S.shape[0])
    centers = np.empty((S.shape[0], X.shape[1]))
    # Affinely dependent subsets may give non-finite or huge centers; the
    # containment test judges their balls like any other, without warnings.
    with np.errstate(all="ignore"):
        for start in range(0, S.shape[0], CHUNK):
            P = X[S[start : start + CHUNK]]  # (chunk, k, D)
            best = np.full(P.shape[0], np.inf)
            best_center = np.full(P.shape[::2], np.nan)
            for T in subsets:
                center, radius = _circumballs(P[:, T])
                better = _holds(P, center, radius).all(axis=1) & (radius < best)
                best = np.where(better, radius, best)
                best_center[better] = center[better]
            radii[start : start + CHUNK] = best
            centers[start : start + CHUNK] = best_center
    return radii, centers


def facet_balls(X, simplices, facets, facet_radii, facet_centers):
    """Smallest enclosing balls of the rows of ``simplices``, from their facets' balls.

    ``simplices`` is an ``(m, k)`` array of increasing vertex rows, k >= 2,
    and column j of ``facets`` the row, among the (k-1)-sets whose balls
    are ``facet_radii`` and ``facet_centers``, of the facet without vertex
    k - 1 - j (``nerve._facet_table`` order).  A row's radius is the smallest
    radius of a facet ball that holds the opposite vertex, by the rule of
    ``miniball``; if none does, it is the row's own circumball, checked to
    hold every vertex.  A row whose circumball is non-finite or fails that
    check, or that has more than D + 1 vertices, goes to ``enclosing_radii``.
    Works ``CHUNK`` rows at a time and returns the radii and the ``(m, D)``
    centers, for the next cardinality.
    """
    X = np.asarray(X, dtype=float)
    S = np.asarray(simplices, dtype=np.intp)
    radii = np.empty(S.shape[0])
    centers = np.empty((S.shape[0], X.shape[1]))
    with np.errstate(all="ignore"):
        for start in range(0, S.shape[0], CHUNK):
            rows = S[start : start + CHUNK]
            f = facets[start : start + CHUNK]
            r = facet_radii[f]  # (chunk, k)
            # Facet j omits vertex k - 1 - j.
            held = _holds(X[rows[:, ::-1]], facet_centers[f], r)
            j = np.argmin(np.where(held, r, np.inf), axis=1)
            at = np.arange(len(rows))
            radius, center = r[at, j], facet_centers[f[at, j]]
            own = np.flatnonzero(~held.any(axis=1))
            if own.size:
                P = X[rows[own]]
                c, rr = _circumballs(P)
                # More than D + 1 points are affinely dependent: some facet
                # ball should have held them, and their circumball is arbitrary.
                bad = ~(np.isfinite(c).all(axis=1) & _holds(P, c, rr).all(axis=1))
                bad |= S.shape[1] > X.shape[1] + 1
                if bad.any():
                    rr[bad], c[bad] = enclosing_radii(X, rows[own[bad]])
                radius[own], center[own] = rr, c
            radii[start : start + CHUNK] = radius
            centers[start : start + CHUNK] = center
    return radii, centers


def _holds(P, center, radius):
    """Whether each point of ``P`` (m, t, D) lies within ``r + TOLERANCE * (1 + r)``.

    The containment rule of ``miniball``.  Each point has its own ball for
    (m, t, D) centers and (m, t) radii; each set shares one for (m, D) and (m,).
    """
    if center.ndim == 2:
        center, radius = center[:, None, :], radius[:, None]
    return np.linalg.norm(P - center, axis=2) <= radius + TOLERANCE * (1.0 + radius)


def _circumballs(Q: np.ndarray):
    """Centers and radii of the circumballs of ``m`` point sets ``(m, t, D)``.

    The center starts at Q0 and takes in one vertex at a time: with e the
    unit part of the vertex's edge u = Qi - Q0 orthogonal to the earlier
    edges (modified Gram-Schmidt), it moves along e until Qi is as far as
    Q0, which leaves the earlier vertices as far as before.  So the center
    lies in the affine hull of the set and is equidistant from its points.
    Orthogonalizing the edges, rather than solving with their Gram matrix,
    keeps long, thin sets accurate.  An affinely dependent set divides by
    a zero or rounding-sized length, so its center is non-finite or
    arbitrary; that is harmless, as the caller keeps only balls that hold
    every vertex, and the smallest enclosing ball needs no dependent set.
    """
    if Q.shape[1] == 1:
        return Q[:, 0], np.zeros(Q.shape[0])
    c = np.zeros_like(Q[:, 0])  # center - Q0
    basis = []
    for i in range(1, Q.shape[1]):
        u = Q[:, i] - Q[:, 0]
        v = u
        for e in basis:
            v = v - np.sum(v * e, axis=1, keepdims=True) * e
        length = np.linalg.norm(v, axis=1, keepdims=True)
        e = v / length
        # |c + t e - u| = |c + t e| holds for t = (|u|^2 / 2 - u.c) / (u.e),
        # and u.e = length; s is the numerator.
        s = 0.5 * np.sum(u * u, axis=1, keepdims=True) - np.sum(u * c, axis=1, keepdims=True)
        c = c + (s / length) * e
        basis.append(e)
    return Q[:, 0] + c, np.linalg.norm(c, axis=1)
