"""Exact finite-dimensional convex geometry.

Sets are immutable objects described by their parameters, never by point
clouds, and every projection uses a closed form.  Supported variants: point,
ball, halfspace, hyperplane, affine/linear subspace, box, ray, orthant, and
the Minkowski sum of a point or ball with a convex cone.

Conventions
-----------
* Vectors are 1-D float64 numpy arrays; ``as_vector`` coerces and validates.
* Halfspace(normal a, offset b) is {x : <a, x> <= b}; Hyperplane is the
  equality version.  Normals are stored as given (not normalized).
* Subspace bases are stored as rows of a 2-D array and must be orthonormal
  within ``ORTHONORMAL_TOL``.
* Each set kind defines its projection once, as float source, ``_emit`` (see
  :class:`KernelSource`), the one text that the C orbit loop of the operators
  runs lowered and that numpy runs as one column function per set
  (:class:`Emitted`): ``project`` on a point's float64 scalars and
  ``project_many`` on blocks of rows.  So row i of ``project_many(P)``,
  ``project(P[i])``, ``Projector(C).apply(P[i])`` and a projector orbit's
  step from ``P[i]`` are equal bit for bit (a shadow point is ``C.project`` of
  its orbit point), and ``sample_witnesses`` returns a (count, d) array from
  one ``project_many`` call.
* Membership tests are absolute with default tolerance ``MEMBERSHIP_TOL``;
  so is the dual-cone test, which reads only the cone's projector and runs
  row-wise: ``dual_cone_residuals`` tests n vectors with one batched
  projection, and ``dual_cone_contains`` is its one-row case.
* Each set kind states its affine dimension in closed form next to its
  projector (``_aff_dim``), so ``codimension`` runs no factorization.
"""

from __future__ import annotations

import dataclasses
import functools
import textwrap
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteValueError,
    UnsupportedSetError,
)

MEMBERSHIP_TOL = 1e-10
ORTHONORMAL_TOL = 1e-12


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array, checking dimension if given."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {v.shape}")
    if v.size == 0:
        raise DimensionMismatchError("vectors must have positive dimension")
    if not np.all(np.isfinite(v)):
        raise NonFiniteValueError(f"non-finite coordinates in {v!r}")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.size}")
    return v


def _frozen_array(x, dim: int | None = None) -> np.ndarray:
    v = as_vector(x, dim).copy()
    v.setflags(write=False)
    return v


def _frozen_matrix(rows, dim: int | None = None) -> np.ndarray:
    """Coerce to a read-only (k, dim) float64 array; k may be zero."""
    m = np.asarray(rows, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.size and not np.all(np.isfinite(m)):
        raise NonFiniteValueError("non-finite entries in basis/matrix")
    if dim is not None:
        if m.size == 0:
            m = m.reshape(0, dim)
        elif m.shape[1] != dim:
            raise DimensionMismatchError(
                f"expected row length {dim}, got {m.shape[1]}"
            )
    m = m.copy()
    m.setflags(write=False)
    return m


def _check_orthonormal(basis: np.ndarray) -> None:
    gram = basis @ basis.T
    if np.any(np.abs(gram - np.eye(basis.shape[0])) > ORTHONORMAL_TOL):
        raise ValueError("basis rows are not orthonormal within 1e-12")


class KernelSource:
    """Straight-line float source over named locals, built node by node.

    ``x0 .. x{d-1}`` name the input coordinates.  A set kind's or an operator
    node's ``_emit`` appends the lines that compute its value from the names
    it is given and returns the names of the results.  Parameters enter by
    name (``p0``, ``p1``, ...) and their values are kept apart in ``params``,
    so the text depends only on a tree's shape and dimension.  An inner
    product is a plain left-to-right sum of rounded products that starts at
    0.0, so a zero sum is +0.0 as in numpy's; at d = 1 it is numpy's product.

    Every choice goes through ``select`` or ``branch``: both arms are
    computed and ``where`` picks, so the text has no control flow.  A name
    holds one value per point, or one float for all.  numpy's elementwise
    operations round as float's do, unfused, so every point keeps the bits of
    one IEEE double evaluation, the one the C orbit loop runs.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.params: list = []

    def param(self, value) -> str:
        self.params.append(value)
        return f"p{len(self.params) - 1}"

    def vector(self, values) -> list[str]:
        return [self.param(v) for v in np.asarray(values, dtype=float).tolist()]

    def let(self, expr: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        return name

    def lets(self, template: str, *columns) -> list[str]:
        """One ``let`` per coordinate: ``template`` filled from each column."""
        return [self.let(template.format(*names)) for names in zip(*columns)]

    def dot(self, a, b) -> str:
        return self.let(" + ".join(["0.0", *(f"{u} * {v}" for u, v in zip(a, b))]))

    def select(self, cond: str, a: str, b: str) -> str:
        """Expression for ``a`` where ``cond`` holds and ``b`` elsewhere."""
        return f"where({cond}, {a}, {b})"

    def branch(self, cond: str, then, otherwise) -> list[str]:
        """Names holding ``then()`` where ``cond`` holds and ``otherwise()`` else;
        each arm emits its own lines and returns names."""
        cond = self.let(cond)
        return [self.let(self.select(cond, a, b)) for a, b in zip(then(), otherwise())]


# source text -> its compiled ``_bind``, for every set and operator; texts
# hold no parameter values, so this grows only with the shapes in use
_COMPILED: dict = {}

# the value of a node at the points whose coordinates are x0 .. x{d-1}
_COLUMNS = """\
def _bind({params}):
    def value({xs}):
{body}
        return ({ys},)
    return value
"""
_COLUMN_GLOBALS = {
    "bisect_right": functools.partial(np.searchsorted, side="right"),
    "sqrt": np.sqrt,
    "where": np.where,
}

# rows per column-function call in ``Emitted._rows``, so its columns stay cached
_BLOCK_ROWS = 8192


class Emitted:
    """A node whose value is its ``_emit`` source: a set's projection, or an
    operator's map.  numpy runs that source on points and blocks of rows, and
    the C orbit loop of :mod:`fejerlab.operators` runs it on orbits."""

    def _emit(self, src: KernelSource, x: list[str]) -> list[str]:
        """Source of this node's value at the point named ``x``."""
        raise NotImplementedError

    def _columns(self, *columns) -> tuple:
        """The value at the points whose coordinates are ``columns`` (arrays
        or float64 scalars), by ``_emit`` compiled on first use at that
        dimension; a coordinate may come back as one float for every point."""
        functions = self.__dict__.setdefault("_column_functions", {})
        value = functions.get(len(columns))
        if value is None:
            src, xs = KernelSource(), [f"x{i}" for i in range(len(columns))]
            ys = ", ".join(self._emit(src, xs))
            params = ", ".join(f"p{i}" for i in range(len(src.params)))
            body = textwrap.indent("\n".join(src.lines), " " * 8)
            text = _COLUMNS.format(params=params, xs=", ".join(xs), ys=ys, body=body)
            if text not in _COMPILED:
                scope = dict(_COLUMN_GLOBALS)
                exec(compile(text, "<fejerlab kernel>", "exec"), scope)
                _COMPILED[text] = scope["_bind"]
            value = functions[len(columns)] = _COMPILED[text](*src.params)
        # both arms of a choice are computed: the one discarded by Ball and by
        # a ball-summand MinkowskiSum divides by 0 on a center row
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return value(*columns)

    def _rows(self, points: np.ndarray) -> np.ndarray:
        """Row-wise value of an (n, d) float array: row i is the value at
        ``points[i]``, bit for bit."""
        out = np.empty(points.shape)
        for start in range(0, len(points), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            # assigning broadcasts a coordinate returned as one float (a Point's)
            for i, column in enumerate(self._columns(*points[rows].T)):
                out[rows, i] = column
        return out


class ConvexSet(Emitted):
    """A nonempty closed convex set with a closed-form metric projector."""

    dim: int

    # -- public surface -------------------------------------------------

    def project(self, x) -> np.ndarray:
        """Nearest point of the set to ``x``."""
        return np.array(self._columns(*as_vector(x, self.dim)))

    def project_many(self, points) -> np.ndarray:
        """Row-wise projection of an (n, dim) array; row i is ``project(points[i])``."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"expected shape (n, {self.dim}), got {pts.shape}"
            )
        return self._rows(pts)

    def reflect(self, x) -> np.ndarray:
        """Reflection 2 P(x) - x through the set."""
        v = as_vector(x, self.dim)
        return 2.0 * self.project(v) - v

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        v = as_vector(x, self.dim)
        return float(np.linalg.norm(v - self.project(v))) <= tol

    def anchor(self) -> np.ndarray:
        """Canonical point of the set (center/base/nearest-to-origin)."""
        return self.project(np.zeros(self.dim))

    @property
    def is_cone(self) -> bool:
        """True when the set contains 0 and is closed under nonnegative scaling."""
        return False

    # -- kernels (inputs trusted, no validation) ------------------------

    def _aff_dim(self) -> int:
        """Affine dimension of the set, in closed form."""
        raise NotImplementedError

    # -- value semantics -------------------------------------------------

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        for f in dataclasses.fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif a != b:
                return False
        return True

    __hash__ = None


@dataclass(frozen=True, eq=False)
class Point(ConvexSet):
    """The singleton {p}."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen_array(self.coords))

    @property
    def dim(self) -> int:
        return self.coords.size

    def _emit(self, src, x):
        return src.vector(self.coords)

    def _aff_dim(self):
        return 0


@dataclass(frozen=True, eq=False)
class Ball(ConvexSet):
    """Closed Euclidean ball; use :func:`ball` to normalize radius 0 to a Point."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen_array(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0.0:
            raise ValueError("Ball radius must be positive (see geometry.ball)")

    @property
    def dim(self) -> int:
        return self.center.size

    def _emit(self, src, x):
        c, r = src.vector(self.center), src.param(self.radius)
        r2 = src.param(self.radius * self.radius)
        d = src.lets("{} - {}", x, c)
        n2 = src.let(" + ".join(f"{u} * {u}" for u in d))

        def outside():
            s = src.let(f"{r} / sqrt({n2})")
            return src.lets("{} + {} * " + s, c, d)

        return src.branch(f"{n2} <= {r2}", lambda: x, outside)

    def _aff_dim(self):
        return self.dim

    def anchor(self):
        return self.center.copy()


def ball(center, radius: float) -> ConvexSet:
    """Ball constructor that degrades radius 0 to the center Point."""
    if float(radius) < 0.0:
        raise ValueError("radius must be nonnegative")
    if float(radius) == 0.0:
        return Point(center)
    return Ball(center, radius)


@dataclass(frozen=True, eq=False)
class _NormalOffset(ConvexSet):
    """Shared data of Halfspace and Hyperplane: a nonzero normal and an offset.

    The projector divides by the normal's squared norm, so that must be a
    normal float: a subnormal one keeps too few bits to divide by.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _frozen_array(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        # not a field: equality, repr and configs see only normal and offset
        object.__setattr__(self, "_normal_sq", float(self.normal @ self.normal))
        if not self._normal_sq >= np.finfo(float).tiny:
            raise ValueError(
                f"{type(self).__name__} normal must be nonzero, with a squared "
                f"norm of at least {np.finfo(float).tiny:.4g}, got {self._normal_sq!r}"
            )

    @property
    def dim(self) -> int:
        return self.normal.size

    @property
    def is_cone(self) -> bool:
        return self.offset == 0.0

    def _emit_step(self, src, x):
        """The name of the excess <normal, x> - offset, and an emitter of x
        minus its step along the normal."""
        a = src.vector(self.normal)
        excess = src.let(f"{src.dot(x, a)} - {src.param(self.offset)}")
        nsq = src.param(self._normal_sq)

        def moved():
            q = src.let(f"{excess} / {nsq}")
            return src.lets("{} - " + q + " * {}", x, a)

        return excess, moved


@dataclass(frozen=True, eq=False)
class Halfspace(_NormalOffset):
    """{x : <normal, x> <= offset}."""

    def _emit(self, src, x):
        excess, moved = self._emit_step(src, x)
        return src.branch(f"{excess} <= 0.0", lambda: x, moved)

    def _aff_dim(self):
        return self.dim


@dataclass(frozen=True, eq=False)
class Hyperplane(_NormalOffset):
    """{x : <normal, x> = offset}."""

    def _emit(self, src, x):
        return self._emit_step(src, x)[1]()

    def _aff_dim(self):
        return self.dim - 1  # the normal is nonzero


@dataclass(frozen=True, eq=False)
class AffineSubspace(ConvexSet):
    """base + span(basis rows); basis rows orthonormal, possibly empty."""

    base: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", _frozen_array(self.base))
        object.__setattr__(
            self, "basis", _frozen_matrix(self.basis, self.base.size)
        )
        _check_orthonormal(self.basis)

    @classmethod
    def from_spanning(cls, base, vectors) -> "AffineSubspace":
        """Build from arbitrary spanning vectors via QR orthonormalization."""
        base = as_vector(base)
        m = np.asarray(vectors, dtype=float).reshape(-1, base.size)
        if m.shape[0] == 0:
            return cls(base, np.zeros((0, base.size)))
        from scipy.linalg import orth

        q = orth(m.T).T
        return cls(base, q)

    @property
    def dim(self) -> int:
        return self.base.size

    def _emit(self, src, x):
        b = src.vector(self.base)
        span = _emit_span(src, self.basis, src.lets("{} - {}", x, b))
        return src.lets("{} + {}", b, span)

    def _aff_dim(self):
        return self.basis.shape[0]


@dataclass(frozen=True, eq=False)
class LinearSubspace(ConvexSet):
    """span(basis rows); the empty basis gives the zero subspace {0}."""

    basis: np.ndarray
    ambient_dim: int

    def __init__(self, basis, ambient_dim: int | None = None):
        m = np.asarray(basis, dtype=float)
        if ambient_dim is None:
            if m.ndim != 2 or m.shape[1] == 0:
                raise DimensionMismatchError(
                    "ambient_dim is required when the basis is empty"
                )
            ambient_dim = m.shape[1]
        object.__setattr__(self, "basis", _frozen_matrix(basis, int(ambient_dim)))
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        _check_orthonormal(self.basis)

    @property
    def dim(self) -> int:
        return self.ambient_dim

    @property
    def is_cone(self) -> bool:
        return True

    def _emit(self, src, x):
        return _emit_span(src, self.basis, x)

    def _aff_dim(self):
        return self.basis.shape[0]


def _emit_span(src: KernelSource, basis: np.ndarray, d: list[str]) -> list[str]:
    """Float source of basis.T @ (basis @ d); an empty basis gives +0.0."""
    rows = [src.vector(row) for row in basis]
    t = [src.dot(row, d) for row in rows]
    return [src.dot(t, [row[i] for row in rows]) for i in range(len(d))]


def full_space(dim: int) -> LinearSubspace:
    """The whole ambient space as a LinearSubspace (projector = identity)."""
    return LinearSubspace(np.eye(dim))


@dataclass(frozen=True, eq=False)
class Box(ConvexSet):
    """{x : lower <= x <= upper componentwise}; equal bounds pin a coordinate."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _frozen_array(self.lower))
        object.__setattr__(self, "upper", _frozen_array(self.upper, self.lower.size))
        if np.any(self.lower > self.upper):
            raise ValueError("Box requires lower <= upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.size

    def _emit(self, src, x):
        lower, upper = src.vector(self.lower), src.vector(self.upper)
        m = [src.let(src.select(f"{v} > {b}", v, b)) for v, b in zip(x, lower)]
        return [src.let(src.select(f"{v} < {b}", v, b)) for v, b in zip(m, upper)]

    def _aff_dim(self):
        return int(np.count_nonzero(self.upper > self.lower))


@dataclass(frozen=True, eq=False)
class Ray(ConvexSet):
    """{base + t * direction : t >= 0}; direction is normalized at construction."""

    base: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", _frozen_array(self.base))
        d = as_vector(self.direction, self.base.size)
        n = float(np.linalg.norm(d))
        if n == 0.0:
            raise ValueError("Ray direction must be nonzero")
        object.__setattr__(self, "direction", _frozen_array(d / n))

    @property
    def dim(self) -> int:
        return self.base.size

    @property
    def is_cone(self) -> bool:
        return bool(np.all(self.base == 0.0))

    def _emit(self, src, x):
        b, u = src.vector(self.base), src.vector(self.direction)
        t = src.dot(src.lets("{} - {}", x, b), u)
        t = src.let(src.select(f"{t} < 0.0", "0.0", t))
        return src.lets("{} + " + t + " * {}", b, u)

    def _aff_dim(self):
        return 1

    def anchor(self):
        return self.base.copy()


@dataclass(frozen=True, eq=False)
class Orthant(ConvexSet):
    """{x : signs * x >= 0 componentwise} with signs in {-1, +1}."""

    signs: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.signs, dtype=float)
        if s.ndim != 1 or s.size == 0 or not np.all(np.abs(s) == 1.0):
            raise ValueError("Orthant signs must be a vector of +/-1")
        object.__setattr__(self, "signs", _frozen_array(s))

    @property
    def dim(self) -> int:
        return self.signs.size

    @property
    def is_cone(self) -> bool:
        return True

    def _emit(self, src, x):
        signs = src.vector(self.signs)
        return [src.let(src.select(f"{s} * {v} >= 0.0", v, "0.0")) for s, v in zip(signs, x)]

    def _aff_dim(self):
        return self.dim


@dataclass(frozen=True, eq=False)
class MinkowskiSum(ConvexSet):
    """E + K for a convex cone K.

    The projector is implemented for E a Point or Ball and K one of the cone
    variants, by the following case analysis (q = x - anchor of E):

    * E = {p}:  P(x) = p + P_K(q), since p + K is a translate of the cone.
    * E = Ball(c, r):  Ball(c, r) + K = c + {z : dist(z, K) <= r}, the closed
      r-neighborhood of the cone, whose projection moves q radially toward
      P_K(q) until the distance to K equals r.

    Any other summand raises UnsupportedSetError at construction.
    """

    summand: ConvexSet
    cone: ConvexSet

    def __post_init__(self):
        if not isinstance(self.summand, ConvexSet) or not isinstance(
            self.cone, ConvexSet
        ):
            raise TypeError("MinkowskiSum expects ConvexSet operands")
        if not self.cone.is_cone:
            raise UnsupportedSetError(
                "MinkowskiSum requires a cone variant as second operand"
            )
        if self.summand.dim != self.cone.dim:
            raise DimensionMismatchError(
                "MinkowskiSum operands must share the ambient dimension"
            )
        if not isinstance(self.summand, (Point, Ball)):
            name = type(self.summand).__name__
            raise UnsupportedSetError(f"no closed-form projector for {name} + cone")

    @property
    def dim(self) -> int:
        return self.summand.dim

    def _emit(self, src, x):
        if isinstance(self.summand, Point):
            p = src.vector(self.summand.coords)
            return src.lets("{} + {}", p, self.cone._emit(src, src.lets("{} - {}", x, p)))
        c, r = src.vector(self.summand.center), src.param(self.summand.radius)
        q = src.lets("{} - {}", x, c)
        pk = self.cone._emit(src, q)
        delta = src.lets("{} - {}", q, pk)
        dist = src.let(f"sqrt({src.dot(delta, delta)})")

        def outside():
            s = src.let(f"{r} / {dist}")
            return src.lets("{} + {} + {} * " + s, c, pk, delta)

        return src.branch(f"{dist} <= {r}", lambda: x, outside)

    def _aff_dim(self):
        # a cone's affine hull is its span, and a ball is full-dimensional
        return self.dim if isinstance(self.summand, Ball) else self.cone._aff_dim()

    def anchor(self):
        return self.summand.anchor()


# ---------------------------------------------------------------------------
# Cones, codimension, witnesses
# ---------------------------------------------------------------------------


def dual_cone_residuals(K: ConvexSet, vectors) -> np.ndarray:
    """Row-wise ||P_K(-u)|| of an (n, dim) array, from one batched projection.

    By Moreau's decomposition, min <u, k> over unit k in the cone K is
    -||P_K(-u)||, so u lies in the dual cone exactly when its residual is 0.
    """
    if not K.is_cone:
        raise UnsupportedSetError(f"{type(K).__name__} is not a supported cone")
    return np.linalg.norm(K.project_many(-np.asarray(vectors, dtype=float)), axis=1)


def dual_cone_contains(K: ConvexSet, u, tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether <u, k> >= -tol for every unit vector k in the cone K."""
    return float(dual_cone_residuals(K, as_vector(u, K.dim)[None, :])[0]) <= tol


@dataclass(frozen=True)
class CodimResult:
    """Affine dimension and codimension of a set in its ambient space."""

    dim_aff: int
    codim: int


def codimension(C: ConvexSet, ambient_dim: int) -> CodimResult:
    """Exact codimension of the affine hull of ``C``."""
    if ambient_dim != C.dim:
        raise DimensionMismatchError(
            f"set lives in dimension {C.dim}, not {ambient_dim}"
        )
    dim_aff = C._aff_dim()
    return CodimResult(dim_aff=dim_aff, codim=ambient_dim - dim_aff)


def _ball_sample(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    u = rng.standard_normal(dim)
    n = float(np.linalg.norm(u))
    if n == 0.0:
        return np.zeros(dim)
    return u * (radius * rng.uniform() ** (1.0 / dim) / n)


def sample_witnesses(
    C: ConvexSet, count: int, seed: int = 0, radius: float = 10.0
) -> np.ndarray:
    """(count, dim) array of deterministic points of ``C`` within ``radius`` of its anchor.

    The anchor itself is always first.  Every other row is the projection
    of a random point of the ball around the anchor, so membership is exact
    and the radius bound follows from nonexpansiveness of the projector.
    """
    return _sample_witnesses(C, C.anchor(), count, seed, radius)


def _sample_witnesses(
    C: ConvexSet, anchor: np.ndarray, count: int, seed: int, radius: float
) -> np.ndarray:
    """``sample_witnesses`` around ``anchor``, which is ``C.anchor()``."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    draws = [anchor + _ball_sample(rng, C.dim, radius) for _ in range(count - 1)]
    return np.vstack([anchor, C.project_many(np.reshape(draws, (count - 1, C.dim)))])
