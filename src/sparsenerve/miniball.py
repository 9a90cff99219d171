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

``miniball`` is Welzl's algorithm (Welzl 1991) on one point set; it is
the independent oracle behind ``full_ambient_cech`` and the tests, and
``facet_balls`` falls back to it, one row at a time, for the rows whose
own circumball is unusable.

The batch kernels work coordinate-major: points are the ``(D, n)``
transpose of the cloud, centers ``(D, m)``, and a batch of sets of k
points is gathered by ``np.take`` into ``(D, k, rows)``, so each
coordinate of each vertex position is one contiguous run over the rows.
A norm or dot product is D whole-run operations summed across the
coordinates by ``_sum_axes``, in the order numpy sums a short last axis,
so the values are those of a ``(rows, k, D)`` layout bit for bit, with no
reduction over a short trailing axis; tests over the k vertices are k
whole-run operations too.  A batch holds about ``CHUNK`` coordinates
(rows x k x D).
"""

from __future__ import annotations

import random

import numpy as np

from .model import InputValidationError

TOLERANCE = 1e-9

# Coordinates (rows x k x D) per batch in ``facet_balls``: 128 KiB per
# float temporary, 1,024 tetrahedra in R^4.
# Whole ambient_torus operations measured this faster than 2^15, whose
# 256 KiB temporaries came back from the allocator as fresh pages (about
# 300 page faults per operation), than 2^13, and than one batch per
# cardinality.
CHUNK = 1 << 14


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


def facet_balls(XT, simplices, facets, facet_radii, facet_centers):
    """Smallest enclosing balls of the rows of ``simplices``, from their facets' balls.

    ``XT`` is the ``(D, n)`` transpose of the points, ``simplices`` an
    ``(m, k)`` array of increasing vertex rows, k >= 2, and column j of
    ``facets`` the row, among the (k-1)-sets whose balls are
    ``facet_radii`` and the ``(D, m')`` ``facet_centers``, of the facet
    without vertex k - 1 - j (``nerve._facet_table`` order).  A row's
    radius is the smallest radius of a facet ball that holds the opposite
    vertex, by the rule of ``miniball``; if none does, it is the row's own
    circumball, checked to hold every vertex.  A row whose circumball is
    non-finite or fails that check, or that has more than D + 1 vertices,
    goes to ``miniball`` on its own.  Both batch passes, the facet test
    over all rows and then the circumballs of the rows no facet ball
    settles, work in batches of about ``CHUNK`` coordinates.  Returns the
    radii and the ``(D, m)`` centers, for the next cardinality.
    """
    S = np.asarray(simplices, dtype=np.intp)
    D, (m, k) = XT.shape[0], S.shape
    radii = np.empty(m)
    centers = np.empty((D, m))
    step = max(1, CHUNK // (k * D))
    unheld = [np.zeros(0, dtype=np.intp)]  # rows that no facet ball holds
    with np.errstate(all="ignore"):
        for start in range(0, m, step):
            f = facets[start : start + step]
            r = facet_radii[f.T]  # (k, rows)
            # Facet j omits vertex k - 1 - j.
            P = np.take(XT, S[start : start + step].T[::-1], axis=1)
            held = _holds(P, np.take(facet_centers, f.T, axis=1), r)
            j = np.argmin(np.where(held, r, np.inf), axis=0)
            at = np.arange(len(f))
            radii[start : start + step] = r[j, at]
            centers[:, start : start + step] = np.take(facet_centers, f[at, j], axis=1)
            unheld.append(start + np.flatnonzero(~held.any(axis=0)))
        own = np.concatenate(unheld)
        for start in range(0, len(own), step):
            rows = own[start : start + step]
            Q = np.take(XT, S[rows].T, axis=1)
            c, rr = _circumballs(Q)
            # More than D + 1 points are affinely dependent: some facet
            # ball should have held them, and their circumball is arbitrary.
            bad = ~(np.isfinite(c).all(axis=0) & _holds(Q, c, rr).all(axis=0))
            bad |= k > D + 1
            for i in np.flatnonzero(bad):
                c[:, i], rr[i] = miniball(XT[:, S[rows[i]]].T)
            radii[rows], centers[:, rows] = rr, c
    return radii, centers


def _sum_axes(A):
    """``A.sum(axis=0)`` in the order numpy sums a contiguous last axis; overwrites A.

    ``np.add.reduce`` over a last axis of n < 8 entries adds them in turn;
    from 8 up it keeps eight running sums, adds them pairwise, then the
    remainder in turn, and above 128 entries it splits in two first
    (numpy's pairwise summation).  Following it on whole ``A[i]`` blocks
    gives the trailing-axis sums of the transposed array bit for bit.
    """
    n = len(A)
    if n == 0:
        return np.zeros(A.shape[1:])
    if n < 8:
        s = A[0]
        for a in A[1:]:
            s += a
        return s
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_axes(A[:half]) + _sum_axes(A[half:])
    r, end = A[:8], n - n % 8
    for i in range(8, end, 8):
        r += A[i : i + 8]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for a in A[end:]:
        s += a
    return s


def _dot(U, V):
    """Dot products of the ``(D, ...)`` vectors of U and V, over axis 0."""
    return _sum_axes(U * V)


def _holds(P, center, radius):
    """Whether each point of ``P`` (D, t, m) lies within ``r + TOLERANCE * (1 + r)``.

    The containment rule of ``miniball``.  Each point has its own ball for
    (D, t, m) centers and (t, m) radii; each set shares one for (D, m) and
    (m,).  Returns a (t, m) mask.
    """
    if center.ndim == 2:
        center = center[:, None]
    d = P - center
    d *= d
    return np.sqrt(_sum_axes(d)) <= radius + TOLERANCE * (1.0 + radius)


def _circumballs(Q: np.ndarray):
    """Centers ``(D, m)`` and radii of the circumballs of ``m`` point sets ``(D, t, m)``.

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
    Q0 = Q[:, 0]
    if Q.shape[1] == 1:
        return Q0, np.zeros(Q.shape[2])
    c = np.zeros_like(Q0)  # center - Q0
    basis = []
    for i in range(1, Q.shape[1]):
        u = Q[:, i] - Q0
        v = u
        for e in basis:
            v = v - _dot(v, e) * e
        length = np.sqrt(_dot(v, v))
        e = v / length
        # |c + t e - u| = |c + t e| holds for t = (|u|^2 / 2 - u.c) / (u.e),
        # and u.e = length; s is the numerator.
        s = 0.5 * _dot(u, u) - _dot(u, c)
        c = c + (s / length) * e
        basis.append(e)
    return Q0 + c, np.sqrt(_dot(c, c))
