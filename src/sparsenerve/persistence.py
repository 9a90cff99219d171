"""Persistent homology over Z/2 and interleaving verification utilities."""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

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
    """Facet indices and dimension of every simplex of a checked complex.

    Returns (cols, dims); ``cols[i]`` holds the indices of the facets of
    simplex ``i``.  Raises ``InputValidationError`` where
    ``FilteredComplex.check`` would.
    """
    return K.facet_indices(), [len(s) - 1 for s in K.simplices]


def _reduce_cohomology(cols, dims, max_dim):
    """Persistence pairs with births in dimensions 0..max_dim, via cohomology.

    Dimension 0 is union-find over the edges in filtration order: an edge
    joining two components kills the younger one's oldest vertex (the elder
    rule).  Each dimension k >= 1 reduces the coboundaries of the
    k-simplices, latest simplex first, with the earliest coface as pivot
    (de Silva, Morozov and Vejdemo-Johansson, "Dualities in persistent
    (co)homology", 2011).  Simplices that died in dimension k - 1 reduce to
    zero and are skipped (clearing), and a column whose earliest coface is
    no pivot yet is paired without reduction (an emergent pair).

    A column being reduced is a set, for Z/2 addition, beside a min-heap of
    its entries, which finds each pivot in O(log m) instead of a scan.  The
    heap is lazy: an addition pushes only the entries it brings into the
    set, and entries it cancels stay in the heap until they reach the top,
    where they are popped because the set no longer holds them.  Reduced
    columns are stored as sorted lists.  Clearing, emergent pairs and the
    working-column heap follow Bauer, "Ripser: efficient computation of
    Vietoris-Rips persistence barcodes", J. Appl. Comput. Topol. 5 (2021).
    Pairs equal those of the boundary-matrix reduction ``_reduce_twist``.
    """
    by_dim = [[] for _ in range(max_dim + 2)]
    for i, k in enumerate(dims):
        if k <= max_dim + 1:
            by_dim[k].append(i)

    parent = list(range(len(cols)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = []
    deaths = set()
    for e in by_dim[1]:
        u, v = sorted(find(x) for x in cols[e])
        if u != v:
            parent[v] = u
            pairs.append((v, e))
            deaths.add(e)
    essential = [v for v in by_dim[0] if parent[v] == v]

    for k in range(1, max_dim + 1):
        cofaces = {i: [] for i in by_dim[k]}
        for t in by_dim[k + 1]:
            for f in cols[t]:
                cofaces[f].append(t)
        pivots = {}  # pivot coface -> reduced coboundary owning it
        for i in reversed(by_dim[k]):
            if i in deaths:
                continue
            col = cofaces[i]
            if col and col[0] not in pivots:
                pivots[col[0]] = col
                pairs.append((i, col[0]))
                continue
            work = set(col)
            heap = col.copy()  # sorted, hence already a heap
            while heap:
                low = heap[0]
                if low not in work:
                    heappop(heap)
                    continue
                other = pivots.get(low)
                if other is None:
                    break
                work.symmetric_difference_update(other)
                for t in other:
                    if t in work:
                        heappush(heap, t)
            if work:
                pivots[low] = sorted(work)
                pairs.append((i, low))
            else:
                essential.append(i)
        deaths = pivots
    return sorted(pairs), sorted(essential)


def _reduce_twist(cols, dims):
    """Column reduction in decreasing dimension with clearing; a test oracle.

    Returns (pairs, essential) where pairs are (birth_index, death_index)
    and essential are unpaired creator indices.  The pipeline does not call
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
    cols, dims = _boundary_columns(K)
    pairs, essential = _reduce_cohomology(cols, dims, max_dim)
    values = K.values.tolist()
    points = []
    zero_length = 0
    for birth, death in pairs:
        b, d = values[birth], values[death]
        if b == d:
            zero_length += 1
        else:
            points.append((dims[birth], b, d))
    points.extend((dims[i], values[i], INF) for i in essential)
    return PersistenceDiagram(points=tuple(points), n_zero_length=zero_length)


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
    """Does the boolean bipartite matrix have a matching covering all its rows?"""
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
