"""Sparse nerve construction: slope points, maximal faces, filtered skeletons.

The sparse nerve of a truncated dissimilarity Gamma with restriction times R
is built from maximal faces emitted once per (restriction time, witness)
pair and expanded into a (d+1)-skeleton by extension: a k-simplex is a
(k-1)-simplex extended by a larger vertex that shares a face with all of
it, so each is made once, in lexicographic order.  The intrinsic and the
ambient mode run one pipeline, skeleton (with its facet table) -> values
-> complex, and differ in the values: min-max values from the original
Lambda, v(sigma) = min over w of max over l in sigma of Lambda(l, w), or
smallest-enclosing-ball radii of the points on doubled restriction times.

Simplices are stored as integer arrays, one per cardinality k: an (m, k)
array of strictly increasing vertex rows in lexicographic order.  A row is
its prefix, the row without its last vertex, plus that vertex, and is
looked up by the key row(prefix) * u + position(last vertex) over the u
vertices, one int64 that rises with the rows.  Facets are found once, by
the expansion, which knows both parts of each key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cover import cover_matrix  # noqa: F401  (perfbench's smoke tests look it up here)
from .ingest import PointCloud, distance_matrix
from .miniball import facet_balls, miniball
from .model import (
    _CHUNK_CELLS,
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

# Row gathers per landmark above which filtration_values runs on rank codes.
# Ranking sorts all of Lambda once; the narrower codes save a share of every
# gather.  Measured break-even on Clifford tori of 200-800 points: 60-120
# (torus_fine gathers 225 per landmark, its mult:3 cloud 9).
_RANK_GATHERS = 100

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


def _find(keys: np.ndarray, query: np.ndarray):
    """Row of each query among the sorted ``keys``, and whether it is there."""
    at = np.searchsorted(keys, query)
    if not len(keys):  # take() clips the positions past the end
        return at, np.zeros(at.shape, bool)
    return at, keys.take(at, mode="clip") == query


def _facet_table(cells, rank=None, trie=None) -> tuple:
    """Facets of simplices in ``Skeleton`` order, as rows one cardinality down.

    Entry (r, j) of ``table[k - 1]`` is the row in ``cells[k - 2]`` of the
    facet of ``cells[k - 1][r]`` without vertex k - 1 - j
    (``itertools.combinations`` order).  A k-row's key is
    row(prefix) * u + position(last vertex) among the u vertices
    ``cells[0]``; keys rise exactly where rows do.  ``trie[k - 1]`` is the
    (prefix row, last position) of each k-row, as the expansion hands them
    over; without it, both are found by binary searches (``_find``).  The
    facet without vertex i < k - 1 has the prefix's facet without i as its
    prefix, so it is one search one cardinality down.  Raises
    ``InputValidationError``, naming the faulty row of least ``rank`` if
    given, where a row is not increasing and non-negative, repeats, is out
    of order or misses a facet.
    """

    def first(k, bad):
        return bad[0] if rank is None else bad[np.argmin(rank[k - 1][bad])]

    u = len(cells[0]) if cells else 0
    # keys[k - 1] are those of cells[k - 1]; a vertex's key is its row.
    table, keys = [np.empty((u, 0), np.intp)][: len(cells)], [None]
    for k, rows in enumerate(cells, 1):
        # Column by column: numpy is slow along a short last axis.
        ok = rows[:, 0] >= 0
        for j in range(1, k):
            ok &= rows[:, j] > rows[:, j - 1]
        if not ok.all():
            raise InputValidationError(
                f"vertices of {tuple(rows[first(k, np.flatnonzero(~ok))].tolist())} are not"
                " increasing non-negative integers"
            )
        if k > 1:
            if len(cells[k - 2]) * u >= 1 << 63:
                raise InputValidationError(
                    f"{len(cells[k - 2])} simplices on {u} vertices overflow int64 keys"
                )
            if trie is None:
                pos, known = _find(cells[0][:, 0], rows.T)
                # The prefix's row, through its own prefix one cardinality
                # down; the queries rise with the rows.
                prefix, there = pos[0], known[:-1].all(axis=0)
                for j in range(1, k - 1):
                    prefix, found = _find(keys[j], prefix * u + pos[j])
                    there &= found
                last, landed = pos[-1], known[-1]
            else:
                prefix, last = trie[k - 1]
                there = landed = np.ones(len(rows), bool)
        if k > 1 and there.all() and landed.all():
            keys.append(prefix * u + last)
            step = np.diff(keys[-1])
        else:  # vertices, or rows that miss a facet, reported below
            step = _lex_steps(rows)
        bad = np.flatnonzero(step <= 0)
        if bad.size:
            r = first(k, bad)
            a, b = tuple(rows[r].tolist()), tuple(rows[r + 1].tolist())
            if step[r] == 0:
                raise InputValidationError(f"duplicate simplex {a}")
            raise InputValidationError(f"simplices not in lexicographic order at {a} -> {b}")
        if k == 1:
            continue
        out = np.empty(rows.shape, np.intp)
        for j in range(k):
            if j == 0:
                at, found = prefix, there
            elif k == 2:  # the facet without the first vertex is the last
                at, found = last, landed
            else:
                # The prefix's facet without vertex k - 1 - j, then the last vertex.
                query = table[k - 2][:, j - 1].take(prefix) * u + last
                at, found = _find(keys[k - 2], query)
                found &= landed
            if not found.all():
                r = first(k, np.flatnonzero(~found))
                face = tuple(np.delete(rows[r], k - 1 - j).tolist())
                raise InputValidationError(f"missing face {face} of {tuple(rows[r].tolist())}")
            out[:, j] = at
        table.append(out)
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
    ``facets`` is their ``_facet_table`` where ``expand_skeleton`` made
    both, read-only; it is not an argument, so other skeletons have none.
    """

    cells: tuple
    facets: tuple = field(default=None, init=False)

    def __len__(self):
        return sum(map(len, self.cells))


@dataclass(frozen=True)
class FilteredComplex:
    """Simplices with filtration values, sorted by (value, cardinality, vertices).

    ``dims[i]`` is the dimension of the i-th simplex and ``values[i]`` its
    value.  ``cells[p]`` holds the p-simplices as an (m, p + 1) array of
    strictly increasing vertex rows in filtration order, so the i-th simplex
    is the next row of ``cells[dims[i]]``.  Entry j of ``facets[p][r]`` is
    the index of the facet of ``cells[p][r]`` without vertex p - j.  The
    arrays are read-only.  Closed under faces within the cardinality cap
    ``dim_cap + 1`` and monotone, as ``make_filtered_complex`` checked.
    The constructor builds the complex the same way from each dimension's
    rows in lexicographic order, and raises unless the given order comes
    out; ``facets`` is not an argument.
    """

    cells: tuple
    dims: np.ndarray
    values: np.ndarray
    dim_cap: int
    facets: tuple = field(default=None, init=False)

    def __post_init__(self):
        cells = _as_cells(self.cells)
        dims = np.asarray(self.dims, dtype=np.intp)
        values = np.asarray(self.values, dtype=float)
        if (
            dims.ndim != 1
            or (dims < 0).any()
            or np.bincount(dims, minlength=len(cells)).tolist() != [len(c) for c in cells]
            or values.shape != dims.shape
        ):
            raise InputValidationError("cells, dims and values of a complex disagree")
        lex = [np.lexsort(rows.T[::-1]) for rows in cells]
        given = np.concatenate(
            [np.empty(0, np.intp), *(np.flatnonzero(dims == p)[o] for p, o in enumerate(lex))]
        )
        K, position = _build([c[o] for c, o in zip(cells, lex)], values[given], self.dim_cap)
        # The built position of each given simplex rises iff the given order
        # is the complex's, and first falls at the first pair out of order.
        built = np.empty_like(position)
        built[given] = position
        down = np.flatnonzero(built[1:] < built[:-1])
        if down.size:
            a, b = (K.simplices[i] for i in built[down[0] : down[0] + 2])
            raise InputValidationError(f"not sorted at {a} -> {b}")
        for name in ("cells", "dims", "values", "facets"):
            object.__setattr__(self, name, getattr(K, name))

    def __len__(self):
        return len(self.values)

    @cached_property
    def simplices(self) -> tuple:
        """Vertex tuples of the simplices in filtration order, built on first use."""
        rows = [iter(list(map(tuple, c.tolist()))) for c in self.cells]
        return tuple(next(rows[p]) for p in self.dims.tolist())

    def check(self):
        """Raise unless the cells, dims and values build this complex again."""
        FilteredComplex(self.cells, self.dims, self.values, self.dim_cap)


def make_filtered_complex(cells, values=None, *, dim_cap: int) -> FilteredComplex:
    """Check simplices and sort them into a FilteredComplex, by (value, cardinality, vertices).

    ``cells`` is a ``Skeleton``, whose ``facets`` are used as they are, or
    its ``cells``, k-vertex rows in lexicographic order, checked here by
    ``_facet_table``.  ``values`` follow the cells, cardinality after
    cardinality; tests and oracles may pass a dict simplex -> value
    instead.  Raises ``InputValidationError`` where the cells fail the
    table's checks or a value is NaN or below one of its facets'.
    """
    if isinstance(cells, Skeleton):
        return _build(_as_cells(cells.cells), np.asarray(values, float), dim_cap, cells.facets)[0]
    if values is None:
        items = sorted(cells.items(), key=lambda sv: (len(sv[0]), tuple(sv[0])))
        if items and not len(items[0][0]):
            raise InputValidationError("the empty simplex is not a simplex of a complex")
        top = len(items[-1][0]) if items else 0
        cells = [[s for s, _ in items if len(s) == k] for k in range(1, top + 1)]
        values = [v for _, v in items]
    return _build(_as_cells(cells), np.asarray(values, dtype=float), dim_cap)[0]


def _build(cells, values, dim_cap, facets=None):
    """The complex of lexicographic ``cells`` and the position of each in it.

    Checks the cells (``_facet_table``, unless ``facets`` is theirs) and the
    values: not NaN, and monotone, which a value is where ``_monotone_snap``
    leaves it.  Names the fault first in filtration order.  A stable sort
    keeps tied values in the (cardinality, vertices) order of the input.
    """
    counts = [len(c) for c in cells]
    if values.shape != (sum(counts),):
        raise InputValidationError("cells and values of a complex disagree")
    if np.isnan(values).any():
        raise InputValidationError("a filtration value is NaN")
    card = np.repeat(np.arange(len(cells)), counts)
    order = np.lexsort((card, values))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    start = np.cumsum(counts, dtype=np.intp) - counts
    rank = np.split(position, start[1:])
    if facets is None:
        facets = _facet_table(cells, rank)
    bad = np.flatnonzero(_monotone_snap(values, facets) != values)
    if bad.size:
        # At the lowest cardinality with a fault, the facets' values are as given.
        p = card[bad[0]]
        r = min(bad[card[bad] == p] - start[p], key=rank[p].__getitem__)
        face = facets[p][r][np.argmax(values[start[p - 1] + facets[p][r]] > values[start[p] + r])]
        a, b = tuple(cells[p - 1][face].tolist()), tuple(cells[p][r].tolist())
        raise InputValidationError(f"filtration not monotone: {a} > {b}")
    dims = card[order]
    rows = [order[dims == p] - start[p] for p in range(len(cells))]
    table = list(facets[:1])
    for p in range(1, len(cells)):
        table.append(position[start[p - 1] + facets[p][rows[p]]])
    cells = tuple(c[r] for c, r in zip(cells, rows))
    values = values[order]
    for a in (*cells, dims, values, *table):
        a.setflags(write=False)
    # Checked above: made without the constructor, which would check again.
    K = object.__new__(FilteredComplex)
    vars(K).update(cells=cells, dims=dims, values=values, dim_cap=dim_cap, facets=tuple(table))
    return K, position


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

    The face of (l, w) depends on l only through R(l), so faces are
    emitted in one block per distinct time t, for the witnesses within t
    of one of t's landmarks; the never-restricted ones, at R = inf, make
    one block.  Blocks go by descending time, witnesses ascending, each
    face its membership row packed into bytes; one ``np.unique`` drops
    exact duplicates.  For containment, each vertex gets a bitset over the
    distinct faces: the AND of a face's vertex bitsets marks the faces
    that contain it, and the face is kept iff that is itself alone.  Faces
    come back largest first, ties in order of first emission.  Raises
    ``InputValidationError`` unless R and ``S`` index Gamma's rows.
    """
    g = extended_values(gamma)
    times = R.times
    n = g.shape[0]
    if times.shape != (n,):
        raise InputValidationError(f"{len(times)} restriction times for {n} landmarks")
    slope = np.fromiter(S, np.int64)
    if slope.size and (slope.min() < 0 or slope.max() >= n):
        raise InputValidationError(f"a slope point is outside range({n})")
    s_mask = np.zeros(n, dtype=bool)
    s_mask[slope] = True
    ok = np.isfinite(g) & (~s_mask[:, None] | (g < times[:, None]))
    # (w, l'): Gamma where l' may join a face at w, NaN (never <=) elsewhere,
    # written into one buffer.
    joins = np.full(g.shape[::-1], np.nan)
    np.copyto(joins.T, g, where=ok)
    del ok
    by_time = np.argsort(times)
    level, start = np.unique(times[by_time], return_index=True)
    # (t, w): w is within t of one of t's landmarks.
    near = np.logical_or.reduceat((g <= times[:, None])[by_time], start)
    rows = np.concatenate([
        np.packbits((joins[ws] <= t) & (times >= t), axis=1)
        for t, ws in zip(level[::-1], near[::-1])
    ])
    # Packed: the L x W work arrays go before dedup and containment.
    del joins, near
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
    Raises ``InputValidationError`` where a vertex is not a row of Lambda.

    When the rows gather Lambda's rows more than ``_RANK_GATHERS`` times
    per landmark, the loop runs on rank codes: each entry's rank among
    Lambda's distinct entries, in the smallest unsigned dtype that holds
    them, and the minima are looked up in the table of distinct values.
    Ranking is strictly increasing, so it commutes with max and min: the
    values are Lambda's own entries, bit for bit, either way.  The codes
    move a quarter (uint16) or half (uint32) of float64's bytes, which
    repays the sort only on a long enough loop.  The ranks come from one
    ``np.argsort`` of Lambda (``_rank_codes``), which holds the order and
    one sorted copy, not ``np.unique``'s several.
    """
    lam = extended_values(lam)
    table, codes = None, lam
    if sum(c.size for c in cells) > _RANK_GATHERS * lam.shape[0]:
        table, codes = _rank_codes(lam)
    # Rank codes are narrower than 8 bytes: the buffer holds more of them.
    chunk = max(1, _CHUNK_CELLS * 8 // (codes.itemsize * max(1, lam.shape[1])))
    out = [np.empty(0, codes.dtype)]
    for verts in cells:
        if verts.size and (verts.min() < 0 or verts.max() >= lam.shape[0]):
            raise InputValidationError(f"a vertex is outside range({lam.shape[0]})")
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


def _rank_codes(lam: np.ndarray) -> tuple:
    """Lambda's distinct entries, ascending, and each entry's rank among
    them, in the smallest unsigned dtype that holds the ranks.

    The table and the ranks of ``np.unique(lam, return_inverse=True)``, from
    the same quicksort order: the sorted entries are marked where they
    change, and the running count of the marks after the first, which
    starts at 0 and so ends at the largest rank, is taken in the codes'
    dtype and scattered back.  Holds the order, one sorted copy and the
    marks at once, not ``np.unique``'s flattened copy, sorted copy and two
    int64 index arrays besides.
    """
    order = np.argsort(lam, axis=None)
    ranked = lam.ravel().take(order)
    change = np.empty(lam.size, bool)
    change[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=change[1:])
    table = ranked[change]
    del ranked
    rank = change.astype(np.min_scalar_type(len(table) - 1))
    del change
    rank[:1] = 0
    np.cumsum(rank, dtype=rank.dtype, out=rank)
    codes = np.empty_like(rank)
    codes[order] = rank
    return table, codes.reshape(lam.shape)


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
    min(d + 2, the largest face's size).  The row extended and the vertex
    added give the ``_facet_table`` the skeleton carries.  Raises
    ``SizeLimitError`` up front if the vertices or the largest face's
    subsets exceed ``max_simplices``, else once a chunk takes the count
    past it.
    """
    if not faces.rows:
        return _skeleton([np.empty((0, 1), np.int64)], [None])
    # The expansion's work arrays are freed when it returns, before the
    # facet table is built.
    return _skeleton(*_expand(faces, d, max_simplices))


def _expand(faces: Faces, d: int, max_simplices) -> tuple:
    """``expand_skeleton``'s cells and, per cardinality, the (prefix row,
    last vertex) of each row, for non-empty ``faces``."""
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
    cells, trie = [labels.reshape(-1, 1)], [None]
    # A chunk's rows and candidates take about _CHUNK_CELLS words of bitsets.
    step = max(1, _CHUNK_CELLS // incidence.shape[1])
    # A face of the largest size has subsets of every smaller size.
    for k in range(2, min(d + 2, sizes[0]) + 1):
        count = np.diff(first)[sigma[:, -1]]
        ends = np.cumsum(count + 1)
        cuts = np.searchsorted(ends, np.arange(step, ends[-1], step))
        parts, prefix = [], []
        for offset, rows, cnt in zip(np.r_[0, cuts], np.split(sigma, cuts), np.split(count, cuts)):
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
            prefix.append(offset + rep)
            total += len(c)
            if max_simplices is not None and total > max_simplices:
                raise SizeLimitError(total, max_simplices)
        sigma = np.concatenate(parts)
        cells.append(labels[sigma])
        # A copy, so that the trie does not keep sigma alive.
        trie.append((np.concatenate(prefix), sigma[:, -1].copy()))
    return cells, trie


def _skeleton(cells, trie) -> Skeleton:
    """The skeleton of the expansion's cells, with its facet table, read-only."""
    skeleton, facets = Skeleton(tuple(cells)), _facet_table(cells, trie=trie)
    for a in (*cells, *facets):
        a.setflags(write=False)
    object.__setattr__(skeleton, "facets", facets)
    return skeleton


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
    """The pipeline of both entry points: truncation, R, faces, skeleton
    with its facet table, values, complex.

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
    skeleton = expand_skeleton(faces, d, max_simplices)
    if points is None:
        values = filtration_values(dd, skeleton.cells)
    else:
        values = ambient_radii(points, skeleton.cells, skeleton.facets)
    complex_ = make_filtered_complex(skeleton, values, dim_cap=d + 1)
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
    return make_filtered_complex(cells, _monotone_snap(radii, _facet_table(cells)), dim_cap=d + 1)


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
