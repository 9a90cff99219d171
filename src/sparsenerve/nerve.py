"""Sparse nerve construction: slope points, maximal faces, filtered skeletons.

The sparse nerve of a truncated dissimilarity Gamma with restriction times R
is built from maximal faces emitted per (landmark, witness) pair and expanded
into a (d+1)-skeleton.  The intrinsic and the ambient mode share that
pipeline and differ only in the filtration values: min-max values from the
original Lambda, v(sigma) = min over w of max over l in sigma of
Lambda(l, w), or smallest-enclosing-ball radii of the points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .cover import cover_matrix  # noqa: F401  (perfbench's smoke tests look it up here)
from .ingest import PointCloud, distance_matrix
from .miniball import enclosing_radii, miniball
from .model import (
    DowkerDissimilarity,
    InputValidationError,
    ParentFunction,
    RestrictionTimes,
    SizeLimitError,
    TranslationFunction,
    as_extended_matrix,
)
from .sparsify import restriction_times
from .truncation import truncation_result

# Cells (uint64 words or floats) of the working buffer in the chunked loops
# of maximal_faces and filtration_values; 512 KiB stays in cache.
_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class FilteredComplex:
    """Simplices with filtration values, sorted by (value, cardinality, vertices).

    Closed under faces within the cardinality cap ``dim_cap + 1``; values are
    monotone along face inclusions.
    """

    simplices: tuple
    values: np.ndarray
    dim_cap: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return len(self.simplices)

    def value_of(self) -> dict:
        return dict(zip(self.simplices, self.values.tolist()))

    def check(self):
        """Raise if sortedness, uniqueness, downward closure or monotonicity fail."""
        self.facet_indices()

    def facet_indices(self) -> list:
        """Indices of each simplex's facets, checking the complex in the same pass.

        Entry ``j`` of the tuple for a simplex ``s`` of ``k`` vertices is the
        index of the facet without ``s[k - 1 - j]``; vertices get the empty
        tuple.  Raises ``InputValidationError`` if the simplices are not
        sorted by (value, cardinality, vertices), repeat, miss a facet, or
        enter before one of their facets.
        """
        simplices = self.simplices
        values = self.values
        card = np.fromiter(map(len, simplices), np.intp, len(simplices))
        dv, dc = np.diff(values), np.diff(card)
        desc = np.fromiter(map(operator.gt, simplices[:-1], simplices[1:]), bool)
        tied_desc = (dv == 0) & ((dc < 0) | ((dc == 0) & desc))
        unsorted = np.flatnonzero((dv < 0) | tied_desc)
        if unsorted.size:
            i = unsorted[0]
            raise InputValidationError(
                f"not sorted at {simplices[i]} -> {simplices[i + 1]}"
            )
        facets = _facet_positions(simplices)
        # Sorted and monotone, every facet comes before its simplex.
        counts = np.where(card > 1, card, 0)
        face = np.fromiter(chain.from_iterable(facets), np.intp)
        worse = np.flatnonzero(values[face] > np.repeat(values, counts))
        if worse.size:
            j = worse[0]
            owner = np.searchsorted(np.cumsum(counts), j, side="right")
            raise InputValidationError(
                f"filtration not monotone: {simplices[face[j]]} > {simplices[owner]}"
            )
        return facets


def _facet_positions(simplices) -> list:
    """Positions in ``simplices`` of each simplex's facets, in ``combinations`` order.

    Vertices get the empty tuple.  Raises ``InputValidationError`` on a
    repeated simplex or a missing facet.
    """
    index = {s: i for i, s in enumerate(simplices)}
    if len(index) < len(simplices):
        dup = next(s for i, s in enumerate(simplices) if index[s] != i)
        raise InputValidationError(f"duplicate simplex {dup}")
    position = index.__getitem__
    facets = []
    for s in simplices:
        faces = combinations(s, len(s) - 1) if len(s) > 1 else ()
        try:
            facets.append(tuple(map(position, faces)))
        except KeyError as missing:
            raise InputValidationError(f"missing face {missing.args[0]} of {s}") from None
    return facets


def make_filtered_complex(value_by_simplex: dict, dim_cap: int) -> FilteredComplex:
    """Sort a simplex -> value map into a FilteredComplex."""
    simplices = sorted(value_by_simplex)
    n = len(simplices)
    values = np.fromiter(map(value_by_simplex.__getitem__, simplices), float, n)
    card = np.fromiter(map(len, simplices), np.intp, n)
    order = np.lexsort((card, values)).tolist()
    return FilteredComplex(
        simplices=tuple(map(simplices.__getitem__, order)),
        values=values[order],
        dim_cap=dim_cap,
    )


def slope_points(phi: ParentFunction, R: RestrictionTimes) -> frozenset:
    """Points whose restriction time is not dominated by their children's.

    A point is a slope point iff its restriction time is finite and strictly
    exceeds the maximum restriction time of its children (0 for a childless
    point).  Slope points are subject to the strict-inequality membership
    rule during face construction; the rule is what keeps a removed point
    from re-entering faces at its own removal time.
    """
    times = R.times
    slope = []
    children = phi.children()
    for l in range(len(phi)):
        r_children = max((times[c] for c in children[l]), default=0.0)
        if np.isfinite(times[l]) and r_children < times[l]:
            slope.append(l)
    return frozenset(slope)


def maximal_faces(gamma, R: RestrictionTimes, S: frozenset) -> list:
    """Candidate maximal faces of the sparse nerve, deduplicated.

    For each (l, w) with Gamma(l, w) <= R(l), the face contains every l' with
    R(l) <= R(l'), Gamma(l', w) <= R(l), Gamma(l', w) finite, and — if l' is
    a slope point — Gamma(l', w) strictly below R(l').  Exact duplicates and
    faces contained in another emitted face are dropped.

    Each face is emitted as its membership row packed into bytes, one block
    of witnesses per landmark.  Exact duplicates go in one ``np.unique`` over
    those rows.  For containment, each vertex gets a bitset over the
    distinct faces: the AND of a face's vertex bitsets marks the faces that
    contain it, and the face is kept iff that is itself alone.  Faces come
    back largest first, ties in order of first emission.
    """
    g = as_extended_matrix(gamma)
    times = R.times
    n = g.shape[0]
    s_mask = np.zeros(n, dtype=bool)
    s_mask[list(S)] = True
    ok = np.isfinite(g) & (~s_mask[:, None] | (g < times[:, None]))
    # (w, l'): Gamma where l' may join a face at w, NaN (never <=) elsewhere.
    joins = np.where(ok, g, np.nan).T.copy()

    rows = []
    for l in range(n):
        rl = times[l]
        ws = np.flatnonzero(g[l] <= rl)
        rows.append(np.packbits((joins[ws] <= rl) & (times >= rl), axis=1))
    rows = np.concatenate(rows)
    rows = rows[rows.any(axis=1)]
    if not rows.size:
        return []
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    size = np.bitwise_count(rows[first]).sum(axis=1, dtype=np.intp)
    order = np.lexsort((first, -size))
    rows, size = rows[first[order]], size[order]

    # (face, vertex) pairs, read off the set bits of each nonzero byte.
    face, byte = np.nonzero(rows)
    hit, bit = np.nonzero(np.unpackbits(rows[face, byte][:, None], axis=1))
    face, vertex = face[hit], 8 * byte[hit] + bit
    n_faces = len(size)
    verts = np.full((n_faces, size[0]), n)
    verts[face, np.arange(face.size) - np.repeat(np.cumsum(size) - size, size)] = vertex
    # Bit f of incidence[v] is set iff face f holds v.  Row n is all ones,
    # so the padding in verts leaves an AND unchanged.
    incidence = np.zeros((n + 1, -(-n_faces // 64)), np.uint64)
    np.bitwise_or.at(
        incidence, (vertex, face >> 6), np.uint64(1) << (face & 63).astype(np.uint64)
    )
    incidence[n] = ~np.uint64(0)

    keep = np.empty(n_faces, dtype=bool)
    chunk = max(1, _CHUNK_CELLS // incidence.shape[1])
    for start in range(0, n_faces, chunk):
        stop = min(start + chunk, n_faces)
        # Only a larger face, so an earlier one, can contain a face; the
        # chunk's largest face is its first.
        words = -(-stop // 64)
        v = verts[start:stop, : size[start]]
        acc = incidence[v[:, 0], :words]
        for j in range(1, v.shape[1]):
            acc &= incidence[v[:, j], :words]
        keep[start:stop] = np.bitwise_count(acc).sum(axis=1) == 1
    return [frozenset(f[:k]) for f, k in zip(verts[keep].tolist(), size[keep].tolist())]


def _by_cardinality(simplices):
    """Yield (positions, (m, k) vertex array) per cardinality k of the simplices."""
    card = np.fromiter(map(len, simplices), np.intp, len(simplices))
    for k in np.unique(card).tolist():
        idxs = np.flatnonzero(card == k)
        flat = chain.from_iterable(map(simplices.__getitem__, idxs.tolist()))
        yield idxs, np.fromiter(flat, np.intp, k * idxs.size).reshape(-1, k)


def filtration_values(lam, simplices) -> np.ndarray:
    """min-max filtration values of vertex sets under Lambda, vectorized.

    For a chunk of simplices of one cardinality, takes the running maximum
    of their vertices' Lambda rows in one (chunk, |W|) buffer, then the
    minimum over witnesses.  max and min are exact, so the values do not
    depend on the chunking or the vertex order.
    """
    lam = as_extended_matrix(lam)
    values = np.empty(len(simplices))
    chunk = max(1, _CHUNK_CELLS // max(1, lam.shape[1]))
    for idxs, verts in _by_cardinality(simplices):
        acc = np.empty((min(chunk, len(idxs)), lam.shape[1]))
        for start in range(0, len(idxs), chunk):
            v = verts[start : start + chunk]
            a = acc[: len(v)]
            np.take(lam, v[:, 0], axis=0, out=a)
            for j in range(1, v.shape[1]):
                np.maximum(a, lam[v[:, j]], out=a)
            values[idxs[start : start + chunk]] = a.min(axis=1)
    return values


def skeleton_size(n: int, d: int) -> int:
    """Number of simplices in the full (d+1)-skeleton on n vertices."""
    return sum(math.comb(n, k) for k in range(1, d + 3))


def expand_skeleton(faces, d: int, max_simplices=None) -> set:
    """All subsets of the faces with cardinality <= d+2, deduplicated."""
    cap = d + 2
    if max_simplices is not None:
        for f in faces:
            lower = sum(math.comb(len(f), k) for k in range(1, min(len(f), cap) + 1))
            if lower > max_simplices:
                raise SizeLimitError(lower, max_simplices)
    simplices = set()
    for f in faces:
        base = tuple(sorted(f))
        for k in range(1, min(len(base), cap) + 1):
            simplices.update(combinations(base, k))
        if max_simplices is not None and len(simplices) > max_simplices:
            raise SizeLimitError(len(simplices), max_simplices)
    return simplices


def full_dowker_nerve(lam, d: int, max_simplices=None) -> FilteredComplex:
    """Exact Dowker nerve skeleton: every finite-valued subset of L, card <= d+2.

    Brute-force construction, intended as a small-instance oracle.
    """
    lam = as_extended_matrix(lam)
    n = lam.shape[0]
    if max_simplices is not None and skeleton_size(n, d) > max_simplices:
        raise SizeLimitError(skeleton_size(n, d), max_simplices)
    simplices = []
    for k in range(1, d + 3):
        simplices.extend(combinations(range(n), k))
    values = filtration_values(lam, simplices)
    finite = np.isfinite(values)
    return make_filtered_complex(
        {s: v for s, v, ok in zip(simplices, values, finite) if ok},
        dim_cap=d + 1,
    )


@dataclass(frozen=True)
class SparseNerveResult:
    """Everything produced by one run of the sparsification pipeline."""

    complex: FilteredComplex
    gamma: DowkerDissimilarity
    phi: ParentFunction
    restriction: RestrictionTimes


def _sparse_skeleton(
    dd: DowkerDissimilarity,
    alpha: TranslationFunction,
    d: int,
    initial_point: int,
    max_simplices,
    scale: float = 1.0,
):
    """The pipeline both entry points share, up to filtration values.

    Truncates Lambda to Gamma (validating alpha; farthest-point sampling
    computes only the cover entries it needs), reads the restriction times R
    off the truncation tree, scales them by ``scale``, and expands the
    maximal faces of the sparse nerve of (Gamma, R) into the (d+1)-skeleton.  Returns the
    truncation, R and the simplices in (cardinality, vertices) order;
    callers assign values and sort by them.
    """
    if d < 0:
        raise InputValidationError("homology dimension must be >= 0")
    if max_simplices is not None and max_simplices < 0:
        raise InputValidationError(f"simplex budget must be >= 0, got {max_simplices}")
    tr = truncation_result(dd, alpha, initial_point)
    # Restriction times are homogeneous in (Lambda, Gamma), and scaling by a
    # power of two is exact, so this is exactly ``scale`` times R.
    R = restriction_times(tr.tree, scale * dd.values, scale * tr.gamma.values)
    faces = maximal_faces(tr.gamma.values, R, slope_points(tr.tree, R))
    # (cardinality, vertices) order puts facets before cofaces, as the snap
    # needs, and leaves make_filtered_complex d + 2 sorted runs to merge.
    simplices = sorted(expand_skeleton(faces, d, max_simplices))
    simplices.sort(key=len)
    return tr, R, simplices


def sparse_dowker_nerve(
    dd: DowkerDissimilarity,
    alpha: TranslationFunction,
    d: int,
    initial_point: int = 0,
    max_simplices=None,
) -> SparseNerveResult:
    """Full pipeline: truncate, restrict along the truncation tree, extract the nerve.

    Farthest-point sampling under the cover matrix of (Lambda,
    alpha(Lambda)), computed only where an entry can lower a point's
    distance, drives the truncation; each point's restriction time is read
    off Lambda and Gamma at its parent in the truncation tree.  Using the tree that shaped Gamma
    keeps every point covered by its parent at its restriction time: the
    parent row was minimized against the child's.  Simplices get min-max
    values from Lambda.
    """
    if not isinstance(dd, DowkerDissimilarity):
        dd = DowkerDissimilarity(dd)
    tr, R, simplices = _sparse_skeleton(dd, alpha, d, initial_point, max_simplices)
    values = filtration_values(dd.values, simplices)
    complex_ = make_filtered_complex(dict(zip(simplices, values)), dim_cap=d + 1)
    return SparseNerveResult(complex=complex_, gamma=tr.gamma, phi=tr.tree, restriction=R)


def ambient_cech_nerve(
    points,
    alpha: TranslationFunction,
    d: int,
    initial_point: int = 0,
    max_simplices=None,
) -> FilteredComplex:
    """Sparse approximation of the ambient Cech complex of a Euclidean cloud.

    Runs the intrinsic pipeline on the pairwise distance matrix with doubled
    restriction times and assigns every simplex the smallest-enclosing-ball
    radius of its vertices, so each simplex enters at its value in
    ``full_ambient_cech``.  alpha acts on the intrinsic values (balls
    centered at data points), which can be up to twice the ambient radii:
    the diagram is not alpha-interleaved with the full ambient Cech diagram
    in general, not even at alpha = id.  Random tests pass the interleaving
    check with t -> alpha(2t).  Raises ``InputValidationError`` for an
    empty, zero-dimensional or non-finite cloud, before any distance is
    computed.
    """
    X = PointCloud(points).points
    dd = distance_matrix(X)
    _, _, simplices = _sparse_skeleton(
        dd, alpha, d, initial_point, max_simplices, scale=2.0
    )
    radii = np.empty(len(simplices))
    for idxs, verts in _by_cardinality(simplices):
        radii[idxs] = enclosing_radii(X, verts)
    snapped = _monotone_snap(simplices, radii)
    return make_filtered_complex(dict(zip(simplices, snapped)), dim_cap=d + 1)


def full_ambient_cech(points, d: int) -> FilteredComplex:
    """Exact ambient Cech skeleton with miniball values; small-instance oracle."""
    X = np.asarray(points, dtype=float)
    simplices = [s for k in range(1, d + 3) for s in combinations(range(X.shape[0]), k)]
    radii = [miniball(X[list(s)])[1] for s in simplices]
    snapped = _monotone_snap(simplices, radii)
    return make_filtered_complex(dict(zip(simplices, snapped)), dim_cap=d + 1)


def _monotone_snap(simplices, values) -> list:
    """Lift each value to the max over its facets, in one forward pass.

    Every facet must come before its cofaces in ``simplices``, as in
    (cardinality, vertices) order.  Enclosing-ball radii are monotone under
    inclusion in exact arithmetic; this removes the epsilon-scale violations
    the solver can introduce.
    """
    out = np.asarray(values, dtype=float).tolist()
    for i, facets in enumerate(_facet_positions(simplices)):
        for j in facets:
            if out[j] > out[i]:
                out[i] = out[j]
    return out
