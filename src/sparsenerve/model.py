"""Shared domain types: Dowker dissimilarities, translation functions, parent trees.

Dissimilarity values live in the extended half line [0, inf].  We represent
them as float64 with ``numpy.inf`` as the maximum element; NaN is forbidden
everywhere and rejected at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INF = np.inf

# Number of sample points used when checking a translation function.
VALIDATION_SAMPLES = 1024


class InputValidationError(ValueError):
    """Raised when an input object violates its construction contract."""


class SizeLimitError(RuntimeError):
    """Raised when a simplicial complex would exceed the configured size cap."""

    def __init__(self, attempted, limit):
        super().__init__(
            f"simplex budget exceeded: at least {attempted} simplices, limit {limit}"
        )
        self.attempted = attempted
        self.limit = limit


def as_extended_matrix(values) -> np.ndarray:
    """Coerce to a float64 matrix of extended values, rejecting NaN and negatives."""
    a = np.asarray(getattr(values, "values", values), dtype=float)
    if np.isnan(a).any():
        idx = tuple(int(i[0]) for i in np.nonzero(np.isnan(a)))
        raise InputValidationError(f"NaN entry at index {idx}")
    if (a < 0).any():
        idx = tuple(int(i[0]) for i in np.nonzero(a < 0))
        raise InputValidationError(f"negative entry at index {idx}")
    return a


def extended_values(values) -> np.ndarray:
    """A ``DowkerDissimilarity``'s checked matrix, else ``as_extended_matrix(values)``."""
    if isinstance(values, DowkerDissimilarity):
        return values.values
    return as_extended_matrix(values)


@dataclass(frozen=True)
class DowkerDissimilarity:
    """A finite matrix Lambda over L x W with entries in [0, inf].

    Rows index the landmark set L, columns the witness set W.  The matrix
    need not be square.  Instances declared ``metric`` must additionally be
    square, symmetric and zero on the diagonal.
    """

    values: np.ndarray
    metric: bool = False

    def __post_init__(self):
        a = np.array(getattr(self.values, "values", self.values), dtype=float)
        as_extended_matrix(a)
        if a.ndim != 2 or 0 in a.shape:
            raise InputValidationError(f"expected a nonempty 2-d matrix, got shape {a.shape}")
        if self.metric:
            if a.shape[0] != a.shape[1]:
                raise InputValidationError(f"a metric must be square, got shape {a.shape}")
            bad = np.flatnonzero(np.diagonal(a))
            if bad.size:
                i = bad[0]
                raise InputValidationError(f"metric has diagonal entry {a[i, i]} at ({i}, {i})")
            bad = np.argwhere(a != a.T)
            if bad.size:
                i, j = bad[0]
                raise InputValidationError(
                    f"metric is not symmetric: {a[i, j]} at ({i}, {j}), {a[j, i]} at ({j}, {i})"
                )
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @classmethod
    def _of_entries(cls, a: np.ndarray) -> "DowkerDissimilarity":
        """Wrap, unscanned and read-only, a matrix made entrywise from checked
        ones by max or min, which keep entries in [0, inf]."""
        a.setflags(write=False)
        dd = object.__new__(cls)
        object.__setattr__(dd, "values", a)
        object.__setattr__(dd, "metric", False)
        return dd

    @property
    def max_finite(self) -> float:
        finite = self.values[np.isfinite(self.values)]
        return float(finite.max()) if finite.size else 0.0


class TranslationFunction:
    """A non-decreasing map alpha on [0, inf] with alpha(t) >= t.

    Two kinds: ``polynomial`` (ascending coefficients c0, c1, ...) and
    ``tabulated`` (piecewise-linear through given knots, extended additively
    beyond the last knot).  The identity t, the additive t + a (a >= 0) and
    the multiplicative c * t (c >= 1) are the polynomials (0, 1), (a, 1) and
    (0, c).  A degree-1 polynomial c0 + c1 * t is checked exactly: c0 >= 0
    and c1 >= 1.  Other polynomials and tables are checked by dense
    sampling; call :meth:`validate_on` with the data scale before use in a
    pipeline.
    """

    def __init__(self, kind: str, params):
        self.kind = kind
        if kind == "polynomial":
            self.params = tuple(float(c) for c in params)
            if not self.params:
                raise InputValidationError("polynomial needs at least one coefficient")
            if not np.isfinite(self.params).all():
                raise InputValidationError(
                    f"polynomial coefficients must be finite, got {self.params}"
                )
            if len(self.params) != 2:
                self.validate_on(float(VALIDATION_SAMPLES))
            elif not (self.params[0] >= 0 and self.params[1] >= 1):
                raise InputValidationError(
                    f"c0 + c1 * t needs c0 >= 0 and c1 >= 1, got {self.params}"
                )
        elif kind == "tabulated":
            ts, vs = (np.asarray(x, dtype=float) for x in params)
            if ts.ndim != 1 or ts.shape != vs.shape or ts.size < 2:
                raise InputValidationError("tabulated grid needs matching 1-d arrays")
            if not (np.isfinite(ts).all() and np.isfinite(vs).all()):
                raise InputValidationError("tabulated grid and values must be finite")
            if (np.diff(ts) <= 0).any():
                raise InputValidationError("tabulated grid must be strictly increasing")
            self.params = (ts, vs)
            self.validate_on(float(ts[-1]))
        else:
            raise InputValidationError(f"unknown translation kind {kind!r}")

    @classmethod
    def identity(cls):
        return cls.polynomial((0.0, 1.0))

    @classmethod
    def additive(cls, a: float):
        return cls.polynomial((a, 1.0))

    @classmethod
    def multiplicative(cls, c: float):
        return cls.polynomial((0.0, c))

    @classmethod
    def polynomial(cls, coefficients):
        return cls("polynomial", coefficients)

    @classmethod
    def tabulated(cls, ts, values):
        return cls("tabulated", (ts, values))

    @classmethod
    def parse(cls, spec: str) -> "TranslationFunction":
        """Parse a CLI spec: ``id``, ``add:<a>``, ``mult:<c>``, ``poly:<c0>,<c1>,...``."""
        if spec == "id":
            return cls.identity()
        head, sep, rest = spec.partition(":")
        if not sep or head not in ("add", "mult", "poly"):
            raise InputValidationError(f"cannot parse interleaving spec {spec!r}")
        try:
            numbers = [float(c) for c in rest.split(",")]
        except ValueError:
            raise InputValidationError(
                f"cannot parse numbers in interleaving spec {spec!r}"
            ) from None
        if head == "poly":
            return cls.polynomial(numbers)
        if len(numbers) != 1:
            raise InputValidationError(f"{head} takes one number, got {spec!r}")
        if head == "add":
            return cls.additive(numbers[0])
        return cls.multiplicative(numbers[0])

    # Too large for a float: inf, as on the extended half line; 0 * inf is
    # NaN, which the fix below replaces.
    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, t):
        scalar = np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0)
        a = np.asarray(t, dtype=float)
        if self.kind == "polynomial":
            # Horner's rule in place, from the top coefficient down.
            out = np.full_like(a, self.params[-1])
            for c in self.params[-2::-1]:
                out *= a
                out += c
        else:  # tabulated
            ts, vs = self.params
            out = np.where(a > ts[-1], vs[-1] + (a - ts[-1]), np.interp(a, ts, vs))
        out[np.isinf(a)] = INF
        return float(out) if scalar else out

    @np.errstate(invalid="ignore")  # inf - inf is NaN, which no step below -1e-12 matches
    def validate_on(self, upper: float):
        """Sample-check monotonicity and alpha(t) >= t on [0, upper] plus infinity."""
        grid = np.linspace(0.0, max(upper, 1e-9), VALIDATION_SAMPLES)
        vals = self(grid)
        if (vals < grid - 1e-12).any():
            t = grid[np.nonzero(vals < grid - 1e-12)[0][0]]
            raise InputValidationError(
                f"translation function dips below the diagonal near t={t:.6g}"
            )
        if (np.diff(vals) < -1e-12).any():
            t = grid[np.nonzero(np.diff(vals) < -1e-12)[0][0]]
            raise InputValidationError(
                f"translation function decreases near t={t:.6g}"
            )
        if self(INF) != INF:
            raise InputValidationError("translation function must fix infinity")

    def preimage(self, x: float, tol: float = 1e-12) -> float:
        """Smallest t with alpha(t) >= x (inf maps to inf)."""
        if np.isinf(x):
            return INF
        if self.kind == "polynomial" and len(self.params) == 2:
            c0, c1 = self.params
            return max(0.0, (x - c0) / c1)
        lo, hi = 0.0, float(x)  # alpha(x) >= x, so the preimage is <= x
        if self(lo) >= x:
            return 0.0
        while hi - lo > tol * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if self(mid) >= x:
                hi = mid
            else:
                lo = mid
        return hi

    def __repr__(self):
        return f"TranslationFunction({self.kind!r}, {self.params!r})"


@dataclass(frozen=True)
class ParentFunction:
    """A map l -> parent(l) on {0..n-1} whose non-loop edges form a tree.

    Exactly one index is its own parent (the root); every other index
    reaches the root by iterating the map.
    """

    parent: np.ndarray

    def __post_init__(self):
        p = np.array(self.parent, dtype=int)
        if p.ndim != 1 or p.size == 0:
            raise InputValidationError("parent map must be a nonempty 1-d index array")
        if ((p < 0) | (p >= p.size)).any():
            raise InputValidationError("parent index out of range")
        roots = np.nonzero(p == np.arange(p.size))[0]
        if roots.size != 1:
            raise InputValidationError(f"expected exactly one root, found {roots.size}")
        root = int(roots[0])
        # Pointer jumping: up[l] is the ancestor depth[l] steps above l, a
        # distance that doubles each round until up[l] is the root.  After
        # n.bit_length() rounds (2^rounds > n steps) a node whose up is not
        # the root lies on or below a cycle.
        up, depth = p, (p != np.arange(p.size)).astype(int)
        for _ in range(p.size.bit_length()):
            up, depth = up[up], depth + depth[up]
        bad = np.flatnonzero(up != root)
        if bad.size:
            raise InputValidationError(f"cycle through index {bad[0]}")
        p.setflags(write=False)
        object.__setattr__(self, "parent", p)
        object.__setattr__(self, "_root", root)
        object.__setattr__(self, "_depth", depth)

    @property
    def root(self) -> int:
        return self._root

    def __len__(self):
        return self.parent.size

    def children(self) -> list:
        """Child lists per node, excluding the root's self-loop."""
        out = [[] for _ in range(len(self))]
        for l, p in enumerate(self.parent):
            if l != p:
                out[p].append(l)
        return out

    def leaves_first(self) -> np.ndarray:
        """Node order with every child before its parent."""
        return np.argsort(-self._depth, kind="stable")


@dataclass(frozen=True)
class RestrictionTimes:
    """Per-point removal deadlines R over the parent tree; R(root) = inf."""

    times: np.ndarray
    tree: ParentFunction = field(repr=False)

    def __post_init__(self):
        r = as_extended_matrix(np.atleast_1d(np.asarray(self.times, dtype=float)))
        if r.ndim != 1 or r.size != len(self.tree):
            raise InputValidationError("restriction times do not match the tree")
        if not np.isinf(r[self.tree.root]):
            raise InputValidationError("root restriction time must be infinite")
        p = self.tree.parent
        bad = np.nonzero(r[p] < r)[0]
        if bad.size:
            raise InputValidationError(
                f"restriction time of node {int(bad[0])} exceeds its parent's"
            )
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "times", r)
