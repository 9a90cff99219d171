"""Persistent homology over Z/2 and interleaving verification utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import INF, InputValidationError, TranslationFunction, integer_argument
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
    """(``K.facets``, ``K.dims``): each simplex's facets and its dimension."""
    return K.facets, K.dims


def _reduce_cohomology(facets, dims, max_dim):
    """Persistence pairs with births in dimensions 0..max_dim, via cohomology.

    Returns the pairs as an (m, 2) array of (birth, death) indices sorted
    by birth, and the essential births as a sorted array.

    ``facets`` and ``dims`` are as ``_boundary_columns`` returns them.  Each
    dimension works on row numbers within its own simplices (``by_dim``),
    mapped to filtration indices once at the end, so no Python object is
    made per simplex.  Dimension 0 is union-find over vertex ids, which rise
    with filtration position, over the edges in filtration order: an edge
    joining two components kills the younger one's oldest vertex (the elder
    rule).  The scan stops once one component remains.  Each dimension
    k >= 1 reduces the coboundaries of the k-simplices, latest simplex
    first, with the earliest coface as pivot (de Silva, Morozov and
    Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011).
    Simplices that died in dimension k - 1 reduce to zero and are skipped
    (clearing), and a column whose earliest coface is no pivot yet is paired
    without reduction (an emergent pair), as in Bauer's Ripser (J. Appl.
    Comput. Topol. 5, 2021).

    A k-simplex that is the latest facet of its earliest coface forms an
    apparent pair with it: no later simplex has that coface, so its column
    is emergent whatever ran before.  These are paired in bulk, and the loop
    visits only the other columns.  ``owner`` maps an apparent coface to
    its column, whose coboundary is added where a reduced column's pivot
    meets that coface.

    The coboundaries of dimension k are slices of one sorted array of the
    (facet, coface row) pairs of the (k+1)-simplices.  The column being
    reduced is a boolean array ``work`` over the (k+1)-simplices: an
    addition flips the entries of a stored column, and the next pivot is the
    first set entry from the last one up to the largest index touched
    (``argmax``); none means the column is zero and its simplex essential.
    A reduced column is stored as its set rows, which are then cleared, an
    emergent one as its slice.  Pairs equal those of the boundary-matrix
    reduction ``_reduce_twist``.
    """
    dims = np.asarray(dims)
    # No k-simplex above the top dimension: nothing to reduce there.
    top = min(max_dim, int(dims.max(initial=0)))
    by_dim = [np.flatnonzero(dims == k) for k in range(top + 2)]

    def facets_of(k):
        if k < len(facets):
            return facets[k]
        return np.empty((0, k + 1), np.intp)

    u = len(by_dim[0])
    parent = list(range(u))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    born, died = [], []  # vertex ids, edge rows
    ends = np.searchsorted(by_dim[0], facets_of(1))
    # Edges as lists a block at a time, so a scan that stops early converts few.
    edges = (row for lo in range(0, len(ends), 1024) for row in ends[lo : lo + 1024].tolist())
    for e, (a, b) in enumerate(edges):
        a, b = find(a), find(b)
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            born.append(b)
            died.append(e)
            if len(died) == u - 1:
                break
    births = [by_dim[0][born]]
    deaths = [by_dim[1][died]]
    essential = [by_dim[0][[v for v in range(u) if parent[v] == v]]]
    dead = np.array(died, np.intp)  # rows of the k-simplices that died in dimension k - 1

    for k in range(1, top + 1):
        up, rows = facets_of(k + 1), by_dim[k]
        m = len(up)
        # Sorting facet * m + coface row orders the pairs by facet, then
        # coface, so each coboundary is a sorted slice of coface rows.
        cofaces = up * m
        cofaces += np.arange(m)[:, None]
        cofaces = cofaces.ravel()
        cofaces.sort()
        first = np.searchsorted(cofaces, rows * m)
        last = np.searchsorted(cofaces, rows * m + m)
        cofaces %= max(m, 1)
        live = np.ones(len(rows), bool)
        live[dead] = False
        has = first < last
        lead = np.full(len(rows), -1)  # earliest coface, -1 if none
        lead[has] = cofaces[first[has]]
        apparent = live & has
        apparent[apparent] = up[lead[apparent]].max(axis=1) == rows[apparent]
        owner = np.full(m, -1)  # apparent coface -> its column
        owner[lead[apparent]] = np.flatnonzero(apparent)
        births.append(rows[apparent])
        deaths.append(by_dim[k + 1][lead[apparent]])
        essential.append(rows[live & ~has])

        todo = np.flatnonzero(live & has & ~apparent)[::-1]
        work = np.zeros(m, bool)
        pivots = {}  # pivot coface -> the reduced coboundary owning it
        born, died, zero = [], [], []
        columns = zip(todo.tolist(), first[todo].tolist(), last[todo].tolist(), lead[todo].tolist())
        for i, a, b, low in columns:
            if low not in pivots and owner[low] < 0:
                pivots[low] = cofaces[a:b]
                born.append(i)
                died.append(low)
                continue
            col = cofaces[a:b]
            work[col] = True
            hi = int(col[-1]) + 1
            while True:
                other = pivots.get(low)
                if other is None:
                    j = owner[low]
                    if j < 0:
                        break
                    other = cofaces[first[j] : last[j]]
                work[other] ^= True
                hi = max(hi, int(other[-1]) + 1)
                low += int(work[low:hi].argmax())
                if not work[low]:
                    low = -1
                    break
            if low < 0:
                zero.append(i)
                continue
            col = low + np.flatnonzero(work[low:hi])
            work[col] = False
            pivots[low] = col
            born.append(i)
            died.append(low)
        births.append(rows[born])
        deaths.append(by_dim[k + 1][died])
        essential.append(rows[zero])
        dead = np.concatenate([lead[apparent], np.array(died, np.intp)])
    birth, death = np.concatenate(births), np.concatenate(deaths)
    order = np.argsort(birth)
    return np.column_stack((birth[order], death[order])), np.sort(np.concatenate(essential))


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

    Dimension 0 comes from union-find, dimensions 1..max_dim from persistent
    cohomology with clearing; the pairs are those of the standard
    boundary-matrix reduction.  Deaths in dimension k need (k+1)-simplices,
    so ``max_dim`` should be at most ``K.dim_cap - 1`` for the top dimension
    to be complete.  ``FilteredComplex`` checked ``K`` where it was built.
    ``max_dim`` must be an integer (``operator.index``).
    """
    max_dim = integer_argument("max_dim", max_dim)
    if max_dim < 0:
        raise InputValidationError(f"max_dim must be >= 0, got {max_dim}")
    facets, dims = _boundary_columns(K)
    pairs, essential = _reduce_cohomology(facets, dims, max_dim)
    born = np.concatenate([pairs[:, 0], essential])
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
