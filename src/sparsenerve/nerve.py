"""Sparse nerve construction: slope points, maximal faces, filtered skeletons.

The sparse nerve of a truncated dissimilarity Gamma with restriction times R
is built from maximal faces emitted once per (restriction time, witness)
pair and expanded into a (d+1)-skeleton by extension: a k-simplex is a
(k-1)-simplex extended by a larger vertex that shares a face with all of
it, so each is made once, in lexicographic order.  The intrinsic and the
ambient mode run one pipeline, skeleton -> facet table -> values ->
complex, and differ in the values: min-max values from the original
Lambda, v(sigma) = min over w of max over l in sigma of Lambda(l, w), or
smallest-enclosing-ball radii of the points on doubled restriction times.

Simplices are stored as integer arrays, one per cardinality k: an (m, k)
array of strictly increasing vertex rows, looked up by its lexicographic
rank in the combinatorial number system, as in Bauer's Ripser (J. Appl.
Comput. Topol. 5, 2021).  Facets are found once, on the skeleton's order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cover import cover_matrix  # noqa: F401  (perfbench's smoke tests look it up here)
from .ingest import PointCloud, distance_matrix
from .miniball import facet_balls, miniball
from .model import (
    DowkerDissimilarity,
    InputValidationError,
    ParentFunction,
    RestrictionTimes,
    SizeLimitError,
    TranslationFunction,
    extended_values,
)
from .sparsify import restriction_times
from .truncation import truncation_result

# Working buffer of the chunked loops of maximal_faces and filtration_values,
# in 8-byte cells: 512 KiB stays in cache.  filtration_values' rank codes are
# narrower, so its buffer holds proportionally more of them.
_CHUNK_CELLS = 1 << 16

# Row gathers per landmark above which filtration_values runs on rank codes.
# Ranking sorts all of Lambda once; the narrower codes save a share of every
# gather.  Measured break-even on Clifford tori of 200-800 points: 60-120
# (torus_fine gathers 225 per landmark, its mult:3 cloud 9).
_RANK_GATHERS = 100

def _wide(n: int, k: int) -> bool:
    """Can lexicographic keys of k-subsets of range(n), or their terms, reach 2**63?"""
    return math.comb(n, min(k, n // 2)) >= 1 << 63


def _binomials(n: int, k: int) -> np.ndarray:
    """(k + 1, n) int64 table of C(v, i) for i <= k and v < n, exact in each row
    i that is not ``_wide(n, i)`` (the rows above may overflow)."""
    table = np.zeros((k + 1, n), np.int64)
    table[0] = 1
    for i in range(1, k + 1):
        # C(v, i) = sum over u < v of C(u, i - 1).
        np.cumsum(table[i - 1, :-1], out=table[i, 1:])
    return table


def _lex_keys(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Keys of (m, k) strictly increasing rows over range(n), in their lexicographic order.

    -sum_j C(n - 1 - v_j, k - j), the rank less C(n, k) - 1, as int64 unless
    ``_wide``; then each row as k big-endian int64 in one void scalar.
    ``table`` is ``_binomials(n, K)`` for some K >= k.
    """
    n, k = table.shape[1], rows.shape[1]
    if _wide(n, k):
        rows = np.ascontiguousarray(rows, dtype=">i8")
        return rows.view(np.dtype((np.void, 8 * k))).reshape(-1)
    up = n - 1 - rows
    keys = -table[k][up[:, 0]]
    for j in range(1, k):
        keys -= table[k - j][up[:, j]]
    return keys


def _vertex_bound(cells) -> int:
    """One more than the largest vertex in any of the arrays (0 if none)."""
    return 1 + max((int(c.max()) for c in cells if c.size), default=-1)


def _combinations(m: int, k: int) -> np.ndarray:
    """(C(m, k), k) table of the k-subsets of range(m), in lexicographic order."""
    table = np.arange(m).reshape(-1, 1)
    for _ in range(k - 1):
        # Extend each row by every v above its last vertex.
        last = table[:, -1]
        count = m - 1 - last
        offset = np.repeat(np.cumsum(count) - count - last - 1, count)
        new = np.arange(offset.size) - offset
        table = np.column_stack((np.repeat(table, count, axis=0), new))
    return table


def _lex_steps(rows: np.ndarray) -> np.ndarray:
    """First non-zero difference of each row and the next: < 0 where the rows descend."""
    step = rows[1:] - rows[:-1]
    first = np.argmax(step != 0, axis=1)
    return step[np.arange(len(step)), first]


def _facet_table(cells, rank=None) -> tuple:
    """Facets of simplices in ``Skeleton`` order, as rows one cardinality down.

    Entry (r, j) of ``table[k - 1]`` is the row in ``cells[k - 2]`` of the
    facet of ``cells[k - 1][r]`` without vertex k - 1 - j
    (``itertools.combinations`` order), found by a binary search of its key
    among the sorted ``_lex_keys`` there.  Raises ``InputValidationError``,
    naming the faulty row of least ``rank`` if given, where a row is not
    increasing and non-negative, repeats, is out of order or misses a facet.
    """

    def first(k, bad):
        return bad[0] if rank is None else bad[np.argmin(rank[k - 1][bad])]

    binomials = _binomials(_vertex_bound(cells), len(cells))
    table, lower = [np.empty((len(c), 0), np.intp) for c in cells[:1]], None
    for k, rows in enumerate(cells, 1):
        if not len(rows):
            # Nothing to key or look up; rows above, if any, miss a face.
            if k > 1:
                table.append(np.empty((0, k), np.intp))
            lower = np.empty(0, np.int64)
            continue
        rising = rows[:, 1:] > rows[:, :-1]
        if (rows[:, 0] < 0).any() or not rising.all():
            bad = np.flatnonzero((rows[:, 0] < 0) | ~rising.all(axis=1))
            raise InputValidationError(
                f"vertices of {tuple(rows[first(k, bad)].tolist())} are not increasing"
                " non-negative integers"
            )
        keys = _lex_keys(rows, binomials)
        # Void keys have no order to compare; their rows do.
        step = _lex_steps(rows) if keys.dtype.kind == "V" else np.diff(keys)
        bad = np.flatnonzero(step <= 0)
        if bad.size:
            r = first(k, bad)
            a, b = tuple(rows[r].tolist()), tuple(rows[r + 1].tolist())
            if step[r] == 0:
                raise InputValidationError(f"duplicate simplex {a}")
            raise InputValidationError(f"simplices not in lexicographic order at {a} -> {b}")
        if k > 1:
            out = np.empty(rows.shape, np.intp)
            for j in range(k):
                face = rows[:, [c for c in range(k) if c != k - 1 - j]]
                query = _lex_keys(face, binomials)
                at = np.searchsorted(lower, query)
                found = np.zeros(len(at), bool)
                if len(lower):  # take() clips the positions past the end
                    found = lower.take(at, mode="clip") == query
                if not found.all():
                    r = first(k, np.flatnonzero(~found))
                    raise InputValidationError(
                        f"missing face {tuple(face[r].tolist())} of {tuple(rows[r].tolist())}"
                    )
                out[:, j] = at
            table.append(out)
        lower = keys
    return tuple(table)


def _set_bits(packed: np.ndarray):
    """(row, column) of every set bit of an ``np.packbits`` matrix, row-major."""
    # numpy finds the nonzero entries of a bool array much faster than of uint8.
    at = np.flatnonzero(packed != 0)
    bits = np.flatnonzero(np.unpackbits(packed.ravel()[at]).view(bool))
    row, byte = np.divmod(at[bits >> 3], packed.shape[1])
    return row, 8 * byte + (bits & 7)


def _incidence(face, vertex, n_faces: int, n: int) -> np.ndarray:
    """(n, ceil(n_faces / 64)) uint64 bitsets from (face, vertex) pairs:
    bit f of row v is set iff face f holds vertex v."""
    incidence = np.zeros((n, -(-n_faces // 64)), np.uint64)
    bit = np.uint64(1) << (face & 63).astype(np.uint64)
    np.bitwise_or.at(incidence, (vertex, face >> 6), bit)
    return incidence


@dataclass(frozen=True)
class Faces:
    """Faces grouped by size, as ``maximal_faces`` returns them.

    ``rows`` holds one (f, m) int64 array per face size m, largest size
    first, each row a strictly increasing vertex row; ``len`` counts faces.
    """

    rows: tuple

    def __len__(self):
        return sum(map(len, self.rows))


@dataclass(frozen=True)
class Skeleton:
    """Simplices without values, grouped by cardinality.

    ``cells[k - 1]`` is an (m, k) int64 array of the k-vertex simplices,
    each a strictly increasing vertex row, rows in lexicographic order and
    without repeats; ``len`` counts simplices.  The cells stop at the
    largest cardinality that has simplices, or at the vertices.
    """

    cells: tuple

    def __len__(self):
        return sum(map(len, self.cells))


@dataclass(frozen=True)
class FilteredComplex:
    """Simplices with filtration values, sorted by (value, cardinality, vertices).

    ``dims[i]`` is the dimension of the i-th simplex and ``values[i]`` its
    value.  ``cells[p]`` holds the p-simplices as an (m, p + 1) array of
    strictly increasing vertex rows in filtration order, so the i-th simplex
    is the next row of ``cells[dims[i]]``.  Closed under faces within the
    cardinality cap ``dim_cap + 1``; values are monotone along face
    inclusions.  ``check`` verifies all of this.
    """

    cells: tuple
    dims: np.ndarray
    values: np.ndarray
    dim_cap: int

    def __post_init__(self):
        cells = tuple(c.copy() for c in _as_cells(self.cells))
        dims = np.array(self.dims, dtype=np.intp)
        values = np.array(self.values, dtype=float)
        if np.isnan(values).any():
            raise InputValidationError("a filtration value is NaN")
        if (
            dims.ndim != 1
            or (dims < 0).any()
            or np.bincount(dims, minlength=len(cells)).tolist() != [len(c) for c in cells]
            or values.shape != dims.shape
        ):
            raise InputValidationError("cells, dims and values of a complex disagree")
        for a in (*cells, dims, values):
            a.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_facets", None)  # set by make_filtered_complex

    def __len__(self):
        return len(self.values)

    @cached_property
    def simplices(self) -> tuple:
        """Vertex tuples of the simplices in filtration order, built on first use."""
        rows = [iter(list(map(tuple, c.tolist()))) for c in self.cells]
        return tuple(next(rows[p]) for p in self.dims.tolist())

    def value_of(self) -> dict:
        return dict(zip(self.simplices, self.values.tolist()))

    def check(self):
        """Raise if sortedness, uniqueness, downward closure or monotonicity fail."""
        self.facet_indices()

    def facet_indices(self) -> tuple:
        """Indices of each simplex's facets, checking the complex in the same pass.

        Returns one array per dimension p: row r of ``facets[p]`` holds the
        indices of the facets of the r-th p-simplex, entry j the facet
        without vertex p - j; ``facets[0]`` has no columns.  Raises
        ``InputValidationError`` if the simplices are not sorted by (value,
        cardinality, vertices), enter before one of their facets, or fail
        ``_facet_table``: it made the table ``make_filtered_complex`` hands
        over, else it runs here on each dimension in lexicographic order.
        """
        cells, dims, values = self.cells, self.dims, self.values
        at = [np.flatnonzero(dims == p) for p in range(len(cells))]

        def simplex(i):
            p = dims[i]
            return tuple(cells[p][np.searchsorted(at[p], i)].tolist())

        dv = np.diff(values)
        unsorted = (dv < 0) | ((dv == 0) & (np.diff(dims) < 0))
        for p, rows in enumerate(cells):
            # Consecutive rows of one dimension that are also consecutive
            # simplices must rise lexicographically where their values tie.
            desc = _lex_steps(rows) < 0
            i, nxt = at[p][:-1][desc], at[p][1:][desc]
            i = i[nxt == i + 1]
            unsorted[i[dv[i] == 0]] = True
        if unsorted.any():
            i = np.flatnonzero(unsorted)[0]
            raise InputValidationError(f"not sorted at {simplex(i)} -> {simplex(i + 1)}")

        facets = self._facets
        if facets is None:
            lex = [np.lexsort(rows.T[::-1]) for rows in cells]
            table = _facet_table(
                [rows[o] for rows, o in zip(cells, lex)], [a[o] for a, o in zip(at, lex)]
            )
            facets = list(table[:1])
            for p in range(1, len(cells)):
                face = np.empty_like(table[p])
                face[lex[p]] = at[p - 1][lex[p - 1]][table[p]]
                facets.append(face)
        for p in range(1, len(cells)):
            worse = np.argwhere(values[facets[p]] > values[at[p]][:, None])
            if worse.size:
                r, j = worse[0]
                raise InputValidationError(
                    f"filtration not monotone: {simplex(facets[p][r, j])} > {simplex(at[p][r])}"
                )
        return tuple(facets)


def make_filtered_complex(cells, values=None, *, dim_cap: int, facets=None) -> FilteredComplex:
    """Sort simplices into a FilteredComplex, by (value, cardinality, vertices).

    ``cells[k - 1]`` holds the k-vertex simplices as in ``Skeleton``, and
    ``values`` their values, cardinality after cardinality.  Tests and
    oracles may pass a dict simplex -> value instead, without ``values``.
    The complex carries ``facets`` (by default ``_facet_table(cells)``) in
    filtration order, unless the table raises: its check then says why.
    """
    if values is None:
        items = sorted(cells.items(), key=lambda sv: (len(sv[0]), tuple(sv[0])))
        if items and not len(items[0][0]):
            raise InputValidationError("the empty simplex is not a simplex of a complex")
        top = len(items[-1][0]) if items else 0
        cells = [[s for s, _ in items if len(s) == k] for k in range(1, top + 1)]
        values = [v for _, v in items]
    cells = _as_cells(cells)
    values = np.asarray(values, dtype=float)
    counts = [len(c) for c in cells]
    if values.shape != (sum(counts),):
        raise InputValidationError("cells and values of a complex disagree")
    card = np.repeat(np.arange(len(cells)), counts)
    # Stable, so tied values keep the (cardinality, vertices) order of the input.
    order = np.lexsort((card, values))
    dims = card[order]
    start = np.cumsum(counts) - counts
    rows = [order[dims == p] - start[p] for p in range(len(cells))]
    K = FilteredComplex(
        cells=tuple(c[r] for c, r in zip(cells, rows)),
        dims=dims,
        values=values[order],
        dim_cap=dim_cap,
    )
    if facets is None:
        try:
            facets = _facet_table(cells)
        except InputValidationError:
            return K
    rank = np.empty_like(order)  # input position -> position in K
    rank[order] = np.arange(len(order))
    table = list(facets[:1])
    for p in range(1, len(cells)):
        table.append(rank[start[p - 1] + facets[p][rows[p]]])
    for t in table:
        t.setflags(write=False)
    object.__setattr__(K, "_facets", tuple(table))
    return K


def _as_cells(cells) -> tuple:
    """``cells[p]`` as an (m, p + 1) int64 array each; raises if one is not."""
    try:
        out = tuple(np.asarray(c, dtype=np.int64) for c in cells)
    except (TypeError, ValueError):
        raise InputValidationError("cells are not arrays of integer rows") from None
    for p, a in enumerate(out):
        if a.size and (a.ndim != 2 or a.shape[1] != p + 1):
            raise InputValidationError(f"cells[{p}] has shape {a.shape}, not (m, {p + 1})")
    return tuple(a.reshape(-1, p + 1) for p, a in enumerate(out))


def slope_points(phi: ParentFunction, R: RestrictionTimes) -> frozenset:
    """Points whose restriction time is not dominated by their children's.

    A point is a slope point iff its restriction time is finite and strictly
    exceeds the maximum restriction time of its children (0 for a childless
    point).  Slope points are subject to the strict-inequality membership
    rule during face construction; the rule is what keeps a removed point
    from re-entering faces at its own removal time.
    """
    times, parent = R.times, phi.parent
    child = np.flatnonzero(parent != np.arange(len(parent)))
    r_children = np.zeros(len(parent))
    np.maximum.at(r_children, parent[child], times[child])
    return frozenset(np.flatnonzero(np.isfinite(times) & (r_children < times)).tolist())


def maximal_faces(gamma, R: RestrictionTimes, S: frozenset) -> Faces:
    """Candidate maximal faces of the sparse nerve, deduplicated.

    For each (l, w) with Gamma(l, w) <= R(l), the face contains every l' with
    R(l) <= R(l'), Gamma(l', w) <= R(l), Gamma(l', w) finite, and — if l' is
    a slope point — Gamma(l', w) strictly below R(l').  Exact duplicates and
    faces contained in another emitted face are dropped.

    The face of (l, w) depends on l only through R(l), so each (R(l), w)
    is emitted once, at its first landmark: a landmark that shares its
    time with earlier ones, as the never-restricted ones share R = inf,
    emits only the witnesses they did not.  Each face is emitted as its
    membership row packed into bytes, one block of witnesses per landmark.
    Exact duplicates go in one ``np.unique`` over those rows.  For
    containment, each vertex gets a bitset over the distinct faces: the AND
    of a face's vertex bitsets marks the faces that contain it, and the
    face is kept iff that is itself alone.  Faces come back largest first,
    ties in order of first emission.
    """
    g = extended_values(gamma)
    times = R.times
    n = g.shape[0]
    s_mask = np.zeros(n, dtype=bool)
    s_mask[list(S)] = True
    ok = np.isfinite(g) & (~s_mask[:, None] | (g < times[:, None]))
    # (w, l'): Gamma where l' may join a face at w, NaN (never <=) elsewhere.
    joins = np.where(ok, g, np.nan).T.copy()
    _, level, count = np.unique(times, return_inverse=True, return_counts=True)
    # A time that several landmarks share -> its witnesses not emitted yet.
    fresh = {}

    rows = []
    for l in range(n):
        rl = times[l]
        ws = np.flatnonzero(g[l] <= rl)
        if count[level[l]] > 1:
            left = fresh.setdefault(level[l], np.ones(g.shape[1], dtype=bool))
            ws = ws[left[ws]]
            left[ws] = False
        rows.append(np.packbits((joins[ws] <= rl) & (times >= rl), axis=1))
    rows = np.concatenate(rows)
    rows = rows[rows.any(axis=1)]
    if not rows.size:
        return Faces(())
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    size = np.bitwise_count(rows[first]).sum(axis=1, dtype=np.intp)
    order = np.lexsort((first, -size))
    rows, size = rows[first[order]], size[order]

    face, vertex = _set_bits(rows)
    n_faces = len(size)
    # Vertex rows padded with their first vertex, which leaves an AND unchanged.
    verts = np.repeat(vertex[np.cumsum(size) - size, None], size[0], axis=1)
    verts[face, np.arange(face.size) - np.repeat(np.cumsum(size) - size, size)] = vertex
    incidence = _incidence(face, vertex, n_faces, n)

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
    verts, size = verts[keep], size[keep]
    # Sizes do not increase down the rows: cut where they drop.
    cuts = np.flatnonzero(size[1:] != size[:-1]) + 1
    return Faces(tuple(
        b[:, :m].copy() for b, m in zip(np.split(verts, cuts), size[np.r_[0, cuts]])
    ))


def filtration_values(lam, cells) -> np.ndarray:
    """min-max filtration values of vertex sets under Lambda, vectorized.

    ``cells`` holds one (m, k) vertex array per cardinality; the values come
    back in one array, cardinality after cardinality.  For a chunk of rows,
    takes the running maximum of their vertices' Lambda rows in one
    (chunk, |W|) buffer, then the minimum over witnesses.  max and min are
    exact, so the values do not depend on the chunking or the vertex order.

    When the rows gather Lambda's rows more than ``_RANK_GATHERS`` times
    per landmark, the loop runs on rank codes: one ``np.unique`` maps each
    entry to its rank among Lambda's distinct entries, in the smallest
    unsigned dtype that holds them, and the minima are looked up in the
    table of distinct values.  Ranking is strictly increasing, so it
    commutes with max and min: the values are Lambda's own entries, bit
    for bit, either way.  The codes move a quarter (uint16) or half
    (uint32) of float64's bytes, which repays the sort only on a
    long enough loop.
    """
    lam = extended_values(lam)
    table, codes = None, lam
    if sum(c.size for c in cells) > _RANK_GATHERS * lam.shape[0]:
        table, codes = np.unique(lam, return_inverse=True)
        codes = codes.reshape(lam.shape).astype(np.min_scalar_type(len(table) - 1))
    chunk = max(1, _CHUNK_CELLS * 8 // (codes.itemsize * max(1, lam.shape[1])))
    out = [np.empty(0, codes.dtype)]
    for verts in cells:
        low = np.empty(len(verts), codes.dtype)
        acc = np.empty((min(chunk, len(verts)), lam.shape[1]), codes.dtype)
        for start in range(0, len(verts), chunk):
            v = verts[start : start + chunk]
            a = acc[: len(v)]
            np.take(codes, v[:, 0], axis=0, out=a)
            for j in range(1, v.shape[1]):
                np.maximum(a, codes[v[:, j]], out=a)
            a.min(axis=1, out=low[start : start + chunk])
        out.append(low)
    out = np.concatenate(out)
    return out if table is None else table[out]


def skeleton_size(n: int, d: int) -> int:
    """Number of simplices in the full (d+1)-skeleton on n vertices."""
    return sum(math.comb(n, k) for k in range(1, min(n, d + 2) + 1))


def expand_skeleton(faces: Faces, d: int, max_simplices=None) -> Skeleton:
    """All subsets of the faces with cardinality <= d+2, each made once.

    Zomorodian's incremental expansion (Computers & Graphics 34, 2010) with
    a face test for its clique test.  Vertices are renumbered in order, and
    edges are the pairs that share a face.  A k-simplex is a lexicographic
    (k-1)-row sigma extended by a vertex c above its last vertex, where c is
    an upper neighbour of that last vertex, is adjacent to sigma's other
    vertices, and the AND of ``_incidence`` over sigma and c is non-zero.
    Extending the rows in order, each by its candidates in increasing
    order, emits every cardinality in lexicographic order, up to
    min(d + 2, the largest face's size).  Raises ``SizeLimitError`` up
    front if the vertices or the largest face's subsets exceed
    ``max_simplices``, else once a chunk takes the count past it.
    """
    if not faces.rows:
        return Skeleton((np.empty((0, 1), np.int64),))
    flat = np.concatenate([b.ravel() for b in faces.rows])
    labels, vertex = np.unique(flat, return_inverse=True)
    u, sizes = len(labels), [b.shape[1] for b in faces.rows]
    # Lower bounds on the count: the vertices, and the largest face's subsets.
    lower = max(u, skeleton_size(sizes[0], d))
    if max_simplices is not None and lower > max_simplices:
        raise SizeLimitError(lower, max_simplices)

    face = np.repeat(np.arange(len(faces)), np.repeat(sizes, [len(b) for b in faces.rows]))
    incidence = _incidence(face, vertex, len(faces), u)
    # Bit b of row a, packed as np.packbits packs it, is set iff a < b share a face.
    adjacent = np.zeros((u, -(-u // 8)), np.uint8)
    pairs = np.triu_indices(sizes[0], 1)
    blocks = np.split(vertex, np.cumsum([b.size for b in faces.rows])[:-1])
    for m, block in zip(sizes, blocks):
        # The pairs of range(m) lead those of range(sizes[0]), in the same order.
        i, j = (p[pairs[1] < m] for p in pairs)
        per = m * max(1, _CHUNK_CELLS // max(1, len(i)))
        for start in range(0, len(block), per):
            rows = block[start : start + per].reshape(-1, m)
            a, b = rows[:, i].ravel(), rows[:, j].ravel()
            bit = np.uint8(0x80) >> (b & 7).astype(np.uint8)
            np.bitwise_or.at(adjacent, (a, b >> 3), bit)
    a, above = _set_bits(adjacent)
    # The upper neighbours of v are above[first[v] : first[v + 1]], increasing.
    first = np.searchsorted(a, np.arange(u + 1))

    total, sigma = u, np.arange(u).reshape(-1, 1)
    cells = [labels.reshape(-1, 1)]
    # A chunk's rows and candidates take about _CHUNK_CELLS words of bitsets.
    step = max(1, _CHUNK_CELLS // incidence.shape[1])
    # A face of the largest size has subsets of every smaller size.
    for k in range(2, min(d + 2, sizes[0]) + 1):
        count = np.diff(first)[sigma[:, -1]]
        ends = np.cumsum(count + 1)
        cuts = np.searchsorted(ends, np.arange(step, ends[-1], step))
        parts = []
        for rows, cnt in zip(np.split(sigma, cuts), np.split(count, cuts)):
            rep = np.repeat(np.arange(len(rows)), cnt)
            at = np.repeat(first[rows[:, -1]] - np.cumsum(cnt) + cnt, cnt)
            c = above[at + np.arange(len(rep))]
            for j in range(k - 2):
                ok = (adjacent[rows[rep, j], c >> 3] << (c & 7)) & 0x80 != 0
                rep, c = rep[ok], c[ok]
            if k > 2:
                common = incidence[rows[:, 0]]
                for j in range(1, k - 1):
                    common &= incidence[rows[:, j]]
                # Faster than .any(axis=1) on short rows.
                ok = np.bitwise_or.reduce(common[rep] & incidence[c], axis=1) != 0
                rep, c = rep[ok], c[ok]
            parts.append(np.column_stack((rows[rep], c)))
            total += len(c)
            if max_simplices is not None and total > max_simplices:
                raise SizeLimitError(total, max_simplices)
        sigma = np.concatenate(parts)
        cells.append(labels[sigma])
    return Skeleton(tuple(cells))


def full_dowker_nerve(lam, d: int, max_simplices=None) -> FilteredComplex:
    """Exact Dowker nerve skeleton: every finite-valued subset of L, card <= d+2.

    Brute-force construction, intended as a small-instance oracle.
    """
    lam = extended_values(lam)
    n = lam.shape[0]
    if max_simplices is not None and skeleton_size(n, d) > max_simplices:
        raise SizeLimitError(skeleton_size(n, d), max_simplices)
    cells = [_combinations(n, k) for k in range(1, d + 3)]
    values = filtration_values(lam, cells)
    finite = np.isfinite(values)
    split = np.cumsum([len(c) for c in cells])[:-1]
    cells = [c[ok] for c, ok in zip(cells, np.split(finite, split))]
    return make_filtered_complex(cells, values[finite], dim_cap=d + 1)


@dataclass(frozen=True)
class SparseNerveResult:
    """Everything produced by one run of the sparsification pipeline."""

    complex: FilteredComplex
    gamma: DowkerDissimilarity
    phi: ParentFunction
    restriction: RestrictionTimes


def _sparse_nerve(dd, alpha, d, initial_point, max_simplices, points=None):
    """The pipeline of both entry points: truncation, R, faces, skeleton,
    facet table, values, complex.

    Truncates Lambda to Gamma (validating alpha; farthest-point sampling
    computes only the cover entries it needs) and reads R off the
    truncation tree.  With ``points``, R is doubled and the values are the
    points' enclosing-ball radii; else they are min-max values from Lambda.
    """
    if d < 0:
        raise InputValidationError("homology dimension must be >= 0")
    if max_simplices is not None and max_simplices < 0:
        raise InputValidationError(f"simplex budget must be >= 0, got {max_simplices}")
    tr = truncation_result(dd, alpha, initial_point)
    R = restriction_times(tr.tree, dd, tr.gamma)
    if points is not None:
        # Restriction times are homogeneous in (Lambda, Gamma), and doubling
        # is exact: these are the times of (2 Lambda, 2 Gamma).  They are
        # distances within the bounded spread ``PointCloud`` checks, or inf,
        # so doubling them cannot overflow.
        R = RestrictionTimes(times=2.0 * R.times, tree=R.tree)
    faces = maximal_faces(tr.gamma, R, slope_points(tr.tree, R))
    cells = expand_skeleton(faces, d, max_simplices).cells
    facets = _facet_table(cells)
    if points is None:
        values = filtration_values(dd, cells)
    else:
        values = ambient_radii(points, cells, facets)
    complex_ = make_filtered_complex(cells, values, dim_cap=d + 1, facets=facets)
    return SparseNerveResult(complex=complex_, gamma=tr.gamma, phi=tr.tree, restriction=R)


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
    return _sparse_nerve(dd, alpha, d, initial_point, max_simplices)


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
    return _sparse_nerve(distance_matrix(X), alpha, d, initial_point, max_simplices, X).complex


def ambient_radii(X, cells, facets) -> np.ndarray:
    """Smallest-enclosing-ball radii of the cells, made monotone, one array.

    ``cells`` holds one lexicographic (m, k) vertex array per cardinality
    k = 1, 2, ..., closed under facets, and ``facets`` their
    ``_facet_table``.  Goes up through the cardinalities: each set's ball
    comes from its facets' balls (``miniball.facet_balls``).
    ``_monotone_snap`` then removes the epsilon-scale violations of
    monotonicity rounding can leave.  The balls' centers go up as ``(D, m)``
    arrays, coordinate-major like the points, which are transposed once.
    """
    XT = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    radii, centers = np.zeros(len(cells[0])), np.take(XT, cells[0][:, 0], axis=1)
    values = [radii]
    for k in range(1, len(cells)):
        radii, centers = facet_balls(XT, cells[k], facets[k], radii, centers)
        values.append(radii)
    return _monotone_snap(np.concatenate(values), facets)


def full_ambient_cech(points, d: int) -> FilteredComplex:
    """Exact ambient Cech skeleton with miniball values; small-instance oracle."""
    X = np.asarray(points, dtype=float)
    cells = [_combinations(X.shape[0], k) for k in range(1, d + 3)]
    radii = [miniball(X[row])[1] for c in cells for row in c]
    facets = _facet_table(cells)
    return make_filtered_complex(
        cells, _monotone_snap(radii, facets), dim_cap=d + 1, facets=facets
    )


def _monotone_snap(values, facets) -> np.ndarray:
    """Lift each value to the max over its facets, one cardinality at a time.

    ``values`` holds one value per simplex, cardinality after cardinality,
    and ``facets`` is the simplices' ``_facet_table``.  Enclosing-ball radii
    are monotone under inclusion in exact arithmetic; this removes the
    epsilon-scale violations rounding can leave.
    """
    out = np.array(values, dtype=float)
    parts = np.split(out, np.cumsum([len(f) for f in facets])[:-1])
    for k in range(1, len(facets)):
        if not len(facets[k]):
            break  # closed under facets: nothing above either
        # One maximum per facet column: numpy's max over a row of k is slow.
        for column in np.take(parts[k - 1], facets[k].T):
            np.maximum(parts[k], column, out=parts[k])
    return out
