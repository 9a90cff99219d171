"""Persistent homology over Z/2 and interleaving verification utilities."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import INF, InputValidationError, TranslationFunction
from .nerve import FilteredComplex


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (dimension, birth, death) triples, canonically sorted.

    Zero-length pairs are dropped from ``points`` but counted in
    ``n_zero_length`` for diagnostics.
    """

    points: tuple
    n_zero_length: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(sorted(self.points)))

    def in_dimension(self, k: int) -> list:
        return [(b, d) for dim, b, d in self.points if dim == k]

    def __len__(self):
        return len(self.points)


def _boundary_columns(K: FilteredComplex):
    """(``K.facet_indices()``, ``K.dims``): the facet table ``make_filtered_complex``
    found, else the one ``facet_indices`` derives, and each simplex's dimension."""
    return K.facet_indices(), K.dims


def _reduce_cohomology(facets, dims, max_dim):
    """Persistence pairs with births in dimensions 0..max_dim, via cohomology.

    ``facets`` and ``dims`` are as ``_boundary_columns`` returns them.
    Dimension 0 is union-find over the edges in filtration order: an edge
    joining two components kills the younger one's oldest vertex (the elder
    rule).  Each dimension k >= 1 reduces the coboundaries of the
    k-simplices, latest simplex first, with the earliest coface as pivot
    (de Silva, Morozov and Vejdemo-Johansson, "Dualities in persistent
    (co)homology", 2011).  Simplices that died in dimension k - 1 reduce to
    zero and are skipped (clearing), and a column whose earliest coface is
    no pivot yet is paired without reduction (an emergent pair), as in
    Bauer's Ripser (J. Appl. Comput. Topol. 5, 2021).

    The coboundaries of dimension k are slices of one sorted array of the
    (facet, coface) pairs of the (k+1)-simplices.  The column being reduced
    is a boolean array ``work`` over all simplices: an addition flips the
    entries of a stored column, and the next pivot is the first set entry
    from the last one up to the largest index touched (``argmax``); none
    means the column is zero and its simplex essential.  A reduced column is
    stored as its set indices, which are then cleared, an emergent one as
    its slice.  Pairs equal those of the boundary-matrix reduction
    ``_reduce_twist``.
    """
    dims = np.asarray(dims)
    # No k-simplex above the top dimension: nothing to reduce there.
    top = min(max_dim, int(dims.max(initial=0)))
    by_dim = [np.flatnonzero(dims == k) for k in range(top + 2)]

    def facets_of(k):
        if k < len(facets):
            return facets[k]
        return np.empty((0, k + 1), np.intp)

    parent = list(range(len(dims)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = []
    deaths = set()
    for e, (a, b) in zip(by_dim[1].tolist(), facets_of(1).tolist()):
        u, v = find(a), find(b)
        if u != v:
            if u > v:
                u, v = v, u
            parent[v] = u
            pairs.append((v, e))
            deaths.add(e)
    essential = [v for v in by_dim[0].tolist() if parent[v] == v]

    n = max(len(dims), 1)
    for k in range(1, top + 1):
        # One sort of facet * n + coface orders the (facet, coface) pairs
        # by facet, then coface, so each coboundary is a sorted slice.
        up = facets_of(k + 1)
        cofaces = np.sort(up * n + by_dim[k + 1][:, None], axis=None) % n
        count = np.bincount(up.ravel(), minlength=n)
        latest = by_dim[k][::-1]
        last = np.cumsum(count)[latest]
        first = last - count[latest]
        lead = np.full(len(latest), -1)  # earliest coface, -1 if none
        has = first < last
        lead[has] = cofaces[first[has]]
        work = np.zeros(len(dims), bool)
        pivots = {}  # pivot coface -> the reduced coboundary owning it
        for i, a, b, low in zip(latest.tolist(), first.tolist(), last.tolist(), lead.tolist()):
            if i in deaths:
                continue
            if low < 0:
                essential.append(i)
                continue
            if low not in pivots:
                pivots[low] = cofaces[a:b]
                pairs.append((i, low))
                continue
            col = cofaces[a:b]
            work[col] = True
            hi = int(col[-1]) + 1
            while low in pivots:
                other = pivots[low]
                work[other] ^= True
                hi = max(hi, int(other[-1]) + 1)
                low += int(work[low:hi].argmax())
                if not work[low]:
                    low = -1
                    break
            if low < 0:
                essential.append(i)
                continue
            col = low + np.flatnonzero(work[low:hi])
            work[col] = False
            pivots[low] = col
            pairs.append((i, low))
        deaths = pivots
    return sorted(pairs), sorted(essential)


def _reduce_twist(cols, dims):
    """Column reduction in decreasing dimension with clearing; a test oracle.

    ``cols[i]`` holds the facet indices of simplex ``i`` and ``dims[i]`` its
    dimension.  Returns (pairs, essential) where pairs are (birth_index,
    death_index) and essential are unpaired creator indices.  The pipeline does not call
    it; it stays in this module because the traced benchmark
    (``perfbench/spans.py``) wraps it by name, and a missing span target
    reads as a null metric.
    """
    n = len(cols)
    pivot = {}
    cleared = [False] * n
    reduced = {}
    creators = set(i for i in range(n) if dims[i] == 0)
    for p in range(max(dims, default=0), 0, -1):
        for j in range(n):
            if dims[j] != p or cleared[j]:
                continue
            col = set(cols[j])
            while col:
                low = max(col)
                other = pivot.get(low)
                if other is None:
                    break
                col ^= reduced[other]
            if col:
                low = max(col)
                pivot[low] = j
                reduced[j] = col
                cleared[low] = True
            else:
                creators.add(j)
    pairs = sorted((low, j) for low, j in pivot.items())
    essential = sorted(i for i in creators if i not in pivot)
    return pairs, essential


def compute_persistence(K: FilteredComplex, max_dim: int) -> PersistenceDiagram:
    """Persistence diagram of a filtered complex over Z/2, dimensions 0..max_dim.

    The complex must be sorted, free of duplicates, downward closed and
    monotone (checked).  Dimension 0 comes from union-find, dimensions
    1..max_dim from persistent cohomology with clearing; the pairs are those
    of the standard boundary-matrix reduction.  Deaths in dimension k need
    (k+1)-simplices, so ``max_dim`` should be at most ``K.dim_cap - 1`` for
    the top dimension to be complete.
    """
    if max_dim < 0:
        raise InputValidationError(f"max_dim must be >= 0, got {max_dim}")
    facets, dims = _boundary_columns(K)
    pairs, essential = _reduce_cohomology(facets, dims, max_dim)
    pairs = np.fromiter(chain.from_iterable(pairs), np.intp, 2 * len(pairs)).reshape(-1, 2)
    born = np.concatenate([pairs[:, 0], np.array(essential, dtype=np.intp)])
    births = K.values[born]
    deaths = np.concatenate([K.values[pairs[:, 1]], np.full(len(essential), INF)])
    kept = births != deaths
    kept[len(pairs) :] = True  # an essential class born at inf is still a point
    points = zip(dims[born[kept]].tolist(), births[kept].tolist(), deaths[kept].tolist())
    return PersistenceDiagram(
        points=tuple(points), n_zero_length=len(kept) - int(np.count_nonzero(kept))
    )


@dataclass(frozen=True)
class InterleavingLine:
    """Polyline (t, alpha(t)) drawn over a persistence diagram."""

    alpha: TranslationFunction
    ts: np.ndarray
    vs: np.ndarray

    def guaranteed(self, birth: float, death: float) -> bool:
        """True when the point is certified to match a true feature."""
        return death > self.alpha(birth)


def interleaving_line(
    alpha: TranslationFunction, t_max: float, samples: int = 256
) -> InterleavingLine:
    """Sample the graph of alpha on [0, t_max]."""
    if t_max <= 0:
        raise InputValidationError("t_max must be positive")
    ts = np.linspace(0.0, t_max, samples)
    return InterleavingLine(alpha=alpha, ts=ts, vs=np.asarray(alpha(ts)))


@dataclass(frozen=True)
class InterleavingReport:
    """Result of attempting an interleaving-compatible partial matching."""

    passed: bool
    unmatched_required: tuple
    messages: tuple = ()


def _box_admissible(alpha, a, e, tol):
    """Can approx point a=(b,d) match exact point e=(b',d') within the alpha box?"""
    for x, y in ((a[0], e[0]), (a[1], e[1])):
        lo = alpha.preimage(x)
        hi = alpha(x)
        if np.isinf(x):
            if not np.isinf(y):
                return False
            continue
        if np.isinf(y):
            return False
        if not (lo - tol <= y <= hi + tol):
            return False
    return True


def _matches_every_row(admissible) -> bool:
    """Does the boolean bipartite matrix have a matching covering all its rows?

    Imports scipy on first call, so that computing diagrams never loads it.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    rows = maximum_bipartite_matching(csr_array(admissible), perm_type="column")
    return bool((rows >= 0).all())


def diagram_interleaving_check(
    exact: PersistenceDiagram,
    approx: PersistenceDiagram,
    alpha: TranslationFunction,
    tol: float = 1e-9,
) -> InterleavingReport:
    """Verify that two diagrams are compatible with an alpha interleaving.

    Per dimension, looks for a partial matching where every point (b, d)
    with d > alpha(b) — on either side — is matched, and matched coordinates
    lie inside each other's alpha boxes [preimage(x), alpha(x)].  For a
    multiplicative alpha this is the multiplicative bottleneck check:
    matched coordinates agree within the factor, unmatched points satisfy
    d <= c * b.  By the Mendelsohn–Dulmage theorem (1958), such a matching
    exists iff one matching covers the required approximate points and
    another covers the required exact points, so each dimension takes two
    maximum bipartite matchings.
    """
    dims = sorted({p[0] for p in exact.points} | {p[0] for p in approx.points})
    unmatched = []
    messages = []
    for k in dims:
        A = approx.in_dimension(k)
        E = exact.in_dimension(k)
        admissible = np.array(
            [[_box_admissible(alpha, a, e, tol) for e in E] for a in A], dtype=bool
        ).reshape(len(A), len(E))
        req_a = np.array([d > alpha(b) + tol for b, d in A], dtype=bool)
        req_e = np.array([d > alpha(b) + tol for b, d in E], dtype=bool)
        if not (
            _matches_every_row(admissible[req_a])
            and _matches_every_row(admissible.T[req_e])
        ):
            unmatched.append(k)
            messages.append(f"dimension {k}: no admissible saturating matching")
    return InterleavingReport(
        passed=not unmatched,
        unmatched_required=tuple(unmatched),
        messages=tuple(messages),
    )
