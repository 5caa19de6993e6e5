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
* Each set kind has one projection kernel, ``_project``, for a (d,) point or
  an (n, d) array; ``np.vecdot`` and stacked (1, d) matmuls round as the
  single-vector ``a @ b`` does, so row i of ``project_many(P)`` is bit for bit
  ``project(P[i])`` (a shadow point is ``C.project`` of its orbit point), and
  ``sample_witnesses`` returns a (count, d) array from one batched call.
* Membership tests are absolute with default tolerance ``MEMBERSHIP_TOL``;
  so is the dual-cone test, which reads only the cone's projector and runs
  row-wise: ``dual_cone_residuals`` tests n vectors with one batched
  projection, and ``dual_cone_contains`` is its one-row case.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


class ConvexSet:
    """A nonempty closed convex set with a closed-form metric projector."""

    dim: int

    # -- public surface -------------------------------------------------

    def project(self, x) -> np.ndarray:
        """Nearest point of the set to ``x``."""
        return self._project(as_vector(x, self.dim))

    def project_many(self, points) -> np.ndarray:
        """Row-wise projection of an (n, dim) array; row i is ``project(points[i])``."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"expected shape (n, {self.dim}), got {pts.shape}"
            )
        return self._project(pts)

    def reflect(self, x) -> np.ndarray:
        """Reflection 2 P(x) - x through the set."""
        v = as_vector(x, self.dim)
        return 2.0 * self._project(v) - v

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        v = as_vector(x, self.dim)
        return float(np.linalg.norm(v - self._project(v))) <= tol

    def anchor(self) -> np.ndarray:
        """Canonical point of the set (center/base/nearest-to-origin)."""
        return self._project(np.zeros(self.dim))

    @property
    def is_cone(self) -> bool:
        """True when the set contains 0 and is closed under nonnegative scaling."""
        return False

    # -- kernels (inputs trusted, no validation) ------------------------

    def _project(self, x: np.ndarray) -> np.ndarray:
        """Projection of a (dim,) point or of each row of an (n, dim) array."""
        raise NotImplementedError

    def _aff_span(self) -> np.ndarray:
        """Rows spanning aff(C) - aff(C); rank gives the affine dimension."""
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

    def _project(self, x):
        return np.full_like(x, self.coords)

    def _aff_span(self):
        return np.zeros((0, self.dim))


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

    def _project(self, x):
        d = x - self.center
        r = self.radius
        if x.ndim == 1:  # per-step path of iterate: a third of the masked form's cost
            n2 = float(d @ d)
            if n2 <= r * r:
                return x.copy()
            return self.center + d * (r / math.sqrt(n2))
        n2 = np.vecdot(d, d)
        scale = r / np.sqrt(np.maximum(n2, r * r))  # rows inside discard it; no 0 division
        return np.where((n2 <= r * r)[:, None], x, self.center + d * scale[:, None])

    def anchor(self):
        return self.center.copy()

    def _aff_span(self):
        return np.eye(self.dim)


def ball(center, radius: float) -> ConvexSet:
    """Ball constructor that degrades radius 0 to the center Point."""
    if float(radius) < 0.0:
        raise ValueError("radius must be nonnegative")
    if float(radius) == 0.0:
        return Point(center)
    return Ball(center, radius)


@dataclass(frozen=True, eq=False)
class _NormalOffset(ConvexSet):
    """Shared data of Halfspace and Hyperplane: a nonzero normal and an offset."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _frozen_array(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        if not np.linalg.norm(self.normal) > 0.0:
            raise ValueError(f"{type(self).__name__} normal must be nonzero")

    @property
    def dim(self) -> int:
        return self.normal.size


@dataclass(frozen=True, eq=False)
class Halfspace(_NormalOffset):
    """{x : <normal, x> <= offset}."""

    def _project(self, x):
        excess = np.vecdot(x, self.normal) - self.offset
        step = (excess / float(self.normal @ self.normal))[..., None] * self.normal
        return np.where((excess <= 0.0)[..., None], x, x - step)

    def _aff_span(self):
        return np.eye(self.dim)


@dataclass(frozen=True, eq=False)
class Hyperplane(_NormalOffset):
    """{x : <normal, x> = offset}."""

    def _project(self, x):
        excess = np.vecdot(x, self.normal) - self.offset
        return x - (excess / float(self.normal @ self.normal))[..., None] * self.normal

    def _aff_span(self):
        return scipy.linalg.null_space(self.normal.reshape(1, -1)).T


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
        q = scipy.linalg.orth(m.T).T
        return cls(base, q)

    @property
    def dim(self) -> int:
        return self.base.size

    def _project(self, x):
        return self.base + _span_project(self.basis, x - self.base)

    def _aff_span(self):
        return self.basis


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

    def _project(self, x):
        return _span_project(self.basis, x)

    def anchor(self):
        return np.zeros(self.dim)

    def _aff_span(self):
        return self.basis


def _span_project(basis: np.ndarray, d: np.ndarray) -> np.ndarray:
    """basis.T @ (basis @ d), row by row for an (n, dim) d, as (1, dim) matmuls."""
    return ((d[..., None, :] @ basis.T) @ basis)[..., 0, :]


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

    def _project(self, x):
        # not np.clip, whose loops break a +0.0/-0.0 tie one way for a point and
        # the other way for (n, 1) rows; here the bound wins, as in np.clip for a point
        m = np.where(x > self.lower, x, self.lower)
        return np.where(m < self.upper, m, self.upper)

    def _aff_span(self):
        free = self.upper > self.lower
        return np.eye(self.dim)[free]


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

    def _project(self, x):
        t = np.vecdot(x - self.base, self.direction)
        return self.base + np.where(t < 0.0, 0.0, t)[..., None] * self.direction

    def anchor(self):
        return self.base.copy()

    def _aff_span(self):
        return self.direction.reshape(1, -1)


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

    def _project(self, x):
        return np.where(self.signs * x >= 0.0, x, 0.0)

    def _aff_span(self):
        return np.eye(self.dim)


@dataclass(frozen=True, eq=False)
class MinkowskiSum(ConvexSet):
    """E + K for a convex cone K.

    The projector is implemented for E a Point or Ball and K one of the cone
    variants, by the following case analysis (q = x - anchor of E):

    * E = {p}:  P(x) = p + P_K(q), since p + K is a translate of the cone.
    * E = Ball(c, r):  Ball(c, r) + K = c + {z : dist(z, K) <= r}, the closed
      r-neighborhood of the cone, whose projection moves q radially toward
      P_K(q) until the distance to K equals r.

    Any other combination raises UnsupportedSetError at projection time.
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

    @property
    def dim(self) -> int:
        return self.summand.dim

    def _project(self, x):
        if isinstance(self.summand, Point):
            p = self.summand.coords
            return p + self.cone._project(x - p)
        if isinstance(self.summand, Ball):
            c, r = self.summand.center, self.summand.radius
            q = x - c
            pk = self.cone._project(q)
            delta = q - pk
            dist = np.sqrt(np.vecdot(delta, delta))
            scale = (r / np.maximum(dist, r))[..., None]
            return np.where((dist <= r)[..., None], x, c + pk + delta * scale)
        raise UnsupportedSetError(
            f"no closed-form projector for {type(self.summand).__name__} + cone"
        )

    def anchor(self):
        return self.summand.anchor()

    def _aff_span(self):
        return np.vstack([self.summand._aff_span(), self.cone._aff_span()])


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
    span = C._aff_span()
    dim_aff = 0 if span.shape[0] == 0 else int(np.linalg.matrix_rank(span))
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
    if count < 1:
        raise ValueError("count must be >= 1")
    anchor = C.anchor()
    rng = np.random.default_rng(seed)
    draws = [anchor + _ball_sample(rng, C.dim, radius) for _ in range(count - 1)]
    return np.vstack([anchor, C._project(np.reshape(draws, (count - 1, C.dim)))])
