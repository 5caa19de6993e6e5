import itertools
import math
import warnings

import numpy as np
import pytest

from fejerlab.errors import (
    DimensionMismatchError,
    NonFiniteValueError,
    UnsupportedSetError,
)
from fejerlab.geometry import (
    _BLOCK_ROWS,
    AffineSubspace,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    LinearSubspace,
    MinkowskiSum,
    Orthant,
    Point,
    Ray,
    ball,
    codimension,
    dual_cone_contains,
    dual_cone_residuals,
    full_space,
    sample_witnesses,
)
from fejerlab.operators import Projector, Reflector


def _set_zoo(dim=3):
    """One instance of every projectable variant in the given dimension."""
    rng = np.random.default_rng(7)
    e1 = np.eye(dim)[0]
    zoo = [
        Point(rng.uniform(-2, 2, dim)),
        Ball(rng.uniform(-2, 2, dim), 1.5),
        Halfspace(rng.normal(size=dim), 0.7),
        Hyperplane(rng.normal(size=dim), -0.3),
        AffineSubspace.from_spanning(rng.uniform(-1, 1, dim), rng.normal(size=(1, dim))),
        LinearSubspace(np.eye(dim)[:2]),
        Box(-np.ones(dim), np.arange(1.0, dim + 1.0)),
        Ray(rng.uniform(-1, 1, dim), rng.normal(size=dim)),
        Orthant(np.array([1.0] * (dim - 1) + [-1.0])),
        MinkowskiSum(Point(rng.uniform(-1, 1, dim)), Ray(np.zeros(dim), e1)),
        MinkowskiSum(Ball(rng.uniform(-1, 1, dim), 0.8), Orthant(np.ones(dim))),
        MinkowskiSum(Ball(np.zeros(dim), 1.0), LinearSubspace(np.eye(dim)[:1])),
    ]
    return zoo


# ---------------------------------------------------------------------------
# closed-form projection examples
# ---------------------------------------------------------------------------


def test_ball_projection():
    assert np.allclose(Ball([0.0, 0.0], 1.0).project([2.0, 0.0]), [1.0, 0.0])


def test_halfspace_projection():
    C = Halfspace([0.0, 1.0], 0.0)
    assert np.allclose(C.project([3.0, 2.0]), [3.0, 0.0])
    assert np.allclose(C.project([3.0, -2.0]), [3.0, -2.0])


def test_hyperplane_projection_vertical_line():
    # the line {0} x R: both alternation points project onto the origin
    C = Hyperplane([1.0, 0.0], 0.0)
    assert np.array_equal(C.project([1.0, 0.0]), [0.0, 0.0])
    assert np.array_equal(C.project([-1.0, 0.0]), [0.0, 0.0])


def test_linear_subspace_projection():
    C = LinearSubspace([[0.0, 1.0]])
    assert np.allclose(C.project([5.0, 7.0]), [0.0, 7.0])


def test_box_projection():
    C = Box([0.0, 0.0], [1.0, 2.0])
    assert np.allclose(C.project([3.0, -1.0]), [1.0, 0.0])


def test_ray_projection():
    C = Ray([1.0, 1.0], [1.0, 0.0])
    assert np.allclose(C.project([3.0, 5.0]), [3.0, 1.0])
    assert np.allclose(C.project([-4.0, 0.0]), [1.0, 1.0])


def test_orthant_projection():
    C = Orthant([1.0, -1.0])
    assert np.allclose(C.project([2.0, 3.0]), [2.0, 0.0])
    assert np.allclose(C.project([-2.0, -3.0]), [0.0, -3.0])


def test_reflection_examples():
    assert np.allclose(Ball([0.0, 0.0], 1.0).reflect([2.0, 0.0]), [0.0, 0.0])
    assert np.allclose(Hyperplane([1.0, 0.0], 0.0).reflect([3.0, 2.0]), [-3.0, 2.0])


@pytest.mark.parametrize("C", _set_zoo(), ids=lambda c: type(c).__name__)
def test_reflect_fixes_members(C):
    for w in sample_witnesses(C, 5, seed=11, radius=4.0):
        assert np.allclose(C.reflect(w), w, atol=1e-10)


# ---------------------------------------------------------------------------
# projection properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("C", _set_zoo(), ids=lambda c: type(c).__name__)
def test_projection_idempotent(C):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-8, 8, C.dim)
        p = C.project(x)
        assert np.linalg.norm(C.project(p) - p) <= 1e-12
        assert C.contains(p, tol=1e-10)


@pytest.mark.parametrize("C", _set_zoo(), ids=lambda c: type(c).__name__)
def test_variational_inequality(C):
    # <x - Px, c - Px> <= 0 for every c in C characterizes the projection
    rng = np.random.default_rng(5)
    witnesses = sample_witnesses(C, 25, seed=17, radius=20.0)
    for _ in range(10):
        x = rng.uniform(-8, 8, C.dim)
        p = C.project(x)
        for c in witnesses:
            assert float((x - p) @ (c - p)) <= 1e-10


@pytest.mark.parametrize("C", _set_zoo(), ids=lambda c: type(c).__name__)
def test_projector_firmly_nonexpansive(C):
    rng = np.random.default_rng(9)
    for _ in range(30):
        x = rng.uniform(-6, 6, C.dim)
        y = rng.uniform(-6, 6, C.dim)
        px, py = C.project(x), C.project(y)
        lhs = np.sum((px - py) ** 2) + np.sum(((x - px) - (y - py)) ** 2)
        assert lhs <= np.sum((x - y) ** 2) + 1e-10


@pytest.mark.parametrize("C", _set_zoo(), ids=lambda c: type(c).__name__)
def test_reflector_nonexpansive(C):
    rng = np.random.default_rng(13)
    for _ in range(30):
        x = rng.uniform(-6, 6, C.dim)
        y = rng.uniform(-6, 6, C.dim)
        assert np.linalg.norm(C.reflect(x) - C.reflect(y)) <= np.linalg.norm(
            x - y
        ) + 1e-10


def _zero_parameter_sets(dim):
    """Sets through the origin with -0.0 parameters and negative normals, where
    the sign of a zero coordinate depends on the order of the operations."""
    z = np.full(dim, -0.0)
    neg = -np.ones(dim)
    return [
        Point(z),
        Ball(z, 1.0),
        Halfspace(neg, -0.0),
        Hyperplane(neg, 0.0),
        AffineSubspace(z, neg[None, :] / np.sqrt(dim)),
        LinearSubspace(-np.eye(dim)[:1]),
        Box(neg, z),
        Box(z, -neg),
        Ray(z, neg),
        Orthant(neg),
        MinkowskiSum(Point(z), Ray(z, neg)),
        MinkowskiSum(Ball(z, 1.0), Orthant(neg)),
    ]


def _probe_rows(C, seed):
    """Points at scales 1e-3..1e6 with some coordinates set to +/-0.0, every
    signed-zero row, and for a ball (or a sum with a ball summand) its center
    and the 2 * dim points at distance radius along the axes."""
    rng = np.random.default_rng(seed)
    rows = []
    for scale in (1e-3, 1.0, 1e3, 1e6):
        pts = scale * rng.uniform(-5, 5, (40, C.dim))
        pts[rng.random(pts.shape) < 0.1] = 0.0
        pts[rng.random(pts.shape) < 0.1] = -0.0
        rows.append(pts)
    rows.append(np.array(list(itertools.product([0.0, -0.0], repeat=C.dim))))
    ball_ = C.summand if isinstance(C, MinkowskiSum) else C
    if isinstance(ball_, Ball):
        axes = ball_.radius * np.vstack([np.eye(C.dim), -np.eye(C.dim)])
        rows += [ball_.center[None, :], ball_.center + axes]
    return np.vstack(rows)


_ZOO_KINDS = [type(C).__name__ for C in _set_zoo()]


@pytest.mark.parametrize("kind", range(len(_ZOO_KINDS)), ids=_ZOO_KINDS)
def test_project_many_matches_pointwise(kind):
    # each row is bit for bit the projection of its point, signed zeros
    # included, in every block of project_many and on both sides of its edges;
    # the rows repeat the probe rows, whose count divides no block
    B = _BLOCK_ROWS
    for dim in (1, 2, 3, 4):
        C = _set_zoo(dim)[kind]
        pts = _probe_rows(C, seed=23)
        expected = np.array([C.project(x) for x in pts])
        for n in (0, 1, len(pts), B - 1, B, B + 1, 2 * B + 1):
            batch = C.project_many(np.resize(pts, (n, dim)))
            assert batch.shape == (n, dim)
            assert batch.tobytes() == np.resize(expected, (n, dim)).tobytes(), (C, n)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_project_many_matches_pointwise_with_zero_parameters(dim):
    for C in _zero_parameter_sets(dim):
        pts = _probe_rows(C, seed=dim)
        for row, x in zip(C.project_many(pts), pts):
            assert row.tobytes() == C.project(x).tobytes(), (C, x)


def test_ball_rows_at_center_and_on_sphere_stay_put():
    # dyadic data: every difference and every squared norm below is exact
    C = Ball([0.5, -0.0, -1.25], 1.5)
    sphere = C.center + 1.5 * np.vstack([np.eye(3), -np.eye(3)])
    assert np.all(np.sum((sphere - C.center) ** 2, axis=1) == 1.5**2)
    pts = np.vstack([C.center, sphere])
    batch = C.project_many(pts)
    assert batch.tobytes() == pts.tobytes()
    for row, x in zip(batch, pts):
        assert row.tobytes() == C.project(x).tobytes()


def _dot(a, b):
    """Plain left-to-right sum of rounded products, from 0.0."""
    total = 0.0
    for u, v in zip(a, b):
        total += float(u) * float(v)
    return total


def _span(basis, d):
    """basis.T @ (basis @ d) with ``_dot`` sums; an empty basis gives +0.0."""
    t = [_dot(row, d) for row in basis]
    return np.array([_dot(t, basis[:, i]) for i in range(len(d))])


def _reference_project(C, x):
    """Reference single-vector projectors, one closed form per kind; every
    orbit and export depends on ``project`` reproducing their bits.  Every
    inner product is a ``_dot`` sum; a normal's squared norm is the set's
    stored parameter, computed by numpy at construction."""
    if isinstance(C, Point):
        return C.coords.copy()
    if isinstance(C, Ball):
        d = x - C.center
        n2 = _dot(d, d)
        if n2 <= C.radius * C.radius:
            return x.copy()
        return C.center + d * (C.radius / math.sqrt(n2))
    if isinstance(C, Halfspace):
        excess = _dot(x, C.normal) - C.offset
        if excess <= 0.0:
            return x.copy()
        return x - (excess / float(C.normal @ C.normal)) * C.normal
    if isinstance(C, Hyperplane):
        excess = _dot(x, C.normal) - C.offset
        return x - (excess / float(C.normal @ C.normal)) * C.normal
    if isinstance(C, AffineSubspace):
        return C.base + _span(C.basis, x - C.base)
    if isinstance(C, LinearSubspace):
        return _span(C.basis, x)
    if isinstance(C, Box):
        return np.clip(x, C.lower, C.upper)
    if isinstance(C, Ray):
        t = _dot(x - C.base, C.direction)
        return C.base + max(t, 0.0) * C.direction
    if isinstance(C, Orthant):
        return np.where(C.signs * x >= 0.0, x, 0.0)
    if isinstance(C.summand, Point):
        p = C.summand.coords
        return p + _reference_project(C.cone, x - p)
    c, r = C.summand.center, C.summand.radius
    q = x - c
    pk = _reference_project(C.cone, q)
    delta = q - pk
    dist = math.sqrt(_dot(delta, delta))
    if dist <= r:
        return x.copy()
    return c + pk + delta * (r / dist)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_single_vector_projection_keeps_reference_bits(dim):
    for C in _set_zoo(dim) + _zero_parameter_sets(dim):
        for x in _probe_rows(C, seed=dim):
            assert C.project(x).tobytes() == _reference_project(C, x).tobytes(), (C, x)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_float_kernels_follow_project(dim):
    # each set kind has one projection formula, its _emit, compiled over
    # scalars for the operator kernels and over columns for project and
    # project_many: the same float operations in the same order, so the same bits
    for C in _set_zoo(dim) + _zero_parameter_sets(dim):
        P, R = Projector(C), Reflector(C)
        pts = _probe_rows(C, seed=dim)
        for x, row in zip(pts, C.project_many(pts)):
            p = P.apply(x).tobytes()
            assert p == C.project(x).tobytes() == row.tobytes(), (C, x)
            assert R.apply(x).tobytes() == C.reflect(x).tobytes(), (C, x)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_center_rows_among_outside_rows_raise_no_warning(dim):
    # project_many computes both arms of a branch on every row, and the arm
    # that Ball and a ball summand discard divides by 0 on a center row
    c = np.linspace(-1.0, 1.0, dim)
    for C in (
        Ball(c, 1.5),
        MinkowskiSum(Ball(c, 0.8), Orthant(np.ones(dim))),
        MinkowskiSum(Ball(c, 1.0), LinearSubspace(np.eye(dim)[:1])),
    ):
        rows = np.resize(np.vstack([c, c - 5.0, c, c + 5.0]), (_BLOCK_ROWS + 3, dim))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = C.project_many(rows)
            expected = [C.project(x) for x in rows[:4]]
        assert batch.tobytes() == np.resize(expected, rows.shape).tobytes(), C
        assert batch[0].tobytes() == c.tobytes(), C


def test_minkowski_projection_against_cvxpy():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(41)
    d = 3
    cones = [
        Ray(np.zeros(d), np.array([1.0, 2.0, -1.0])),
        Orthant(np.array([1.0, -1.0, 1.0])),
        LinearSubspace(np.linalg.qr(rng.normal(size=(d, 2)))[0].T),
    ]
    summands = [Point(np.array([0.5, -1.0, 2.0])), Ball(np.array([1.0, 0.0, -1.0]), 0.7)]
    for E in summands:
        for K in cones:
            S = MinkowskiSum(E, K)
            for _ in range(3):
                x = rng.uniform(-6, 6, d)
                z = cvxpy.Variable(d)
                k = cvxpy.Variable(d)
                cons = []
                if isinstance(K, Ray):
                    t = cvxpy.Variable(nonneg=True)
                    cons.append(k == t * K.direction)
                elif isinstance(K, Orthant):
                    cons.append(cvxpy.multiply(K.signs, k) >= 0)
                else:
                    w = cvxpy.Variable(K.basis.shape[0])
                    cons.append(k == K.basis.T @ w)
                if isinstance(E, Point):
                    cons.append(z == E.coords + k)
                else:
                    u = cvxpy.Variable(d)
                    cons.append(cvxpy.norm(u) <= E.radius)
                    cons.append(z == E.center + u + k)
                prob = cvxpy.Problem(cvxpy.Minimize(cvxpy.sum_squares(z - x)), cons)
                prob.solve()
                # bound set by solver accuracy; the closed form is exact
                assert np.linalg.norm(S.project(x) - z.value) <= 1e-4


def test_minkowski_unsupported_combination():
    # only a point or ball summand has a projector, so no other is built
    for E in (Halfspace([1.0, 0.0], 0.0), Box([0.0, 0.0], [1.0, 1.0])):
        name = type(E).__name__
        with pytest.raises(UnsupportedSetError, match=f"for {name} \\+ cone"):
            MinkowskiSum(E, Orthant([1.0, 1.0]))


def test_minkowski_requires_cone():
    with pytest.raises(UnsupportedSetError):
        MinkowskiSum(Point([0.0, 0.0]), Ball([0.0, 0.0], 1.0))


# ---------------------------------------------------------------------------
# dual cones
# ---------------------------------------------------------------------------


def _cone_elements(K, rng, count=1000):
    if isinstance(K, Halfspace):  # through 0: reflect the points outside it in
        x = rng.normal(size=(count, K.dim))
        excess = np.maximum(x @ K.normal, 0.0)
        return x - np.outer(2.0 * excess / (K.normal @ K.normal), K.normal)
    if isinstance(K, Ray):
        return np.outer(rng.uniform(0, 10, count), K.direction)
    if isinstance(K, Orthant):
        return K.signs * np.abs(rng.normal(size=(count, K.dim)))
    if isinstance(K, LinearSubspace):
        return rng.normal(size=(count, K.basis.shape[0])) @ K.basis
    raise AssertionError


@pytest.mark.parametrize(
    "K",
    [
        Ray(np.zeros(3), [1.0, -2.0, 0.5]),
        Orthant([1.0, 1.0, -1.0]),
        LinearSubspace(np.eye(3)[:2]),
        LinearSubspace(np.zeros((0, 3)), ambient_dim=3),
        Halfspace([1.0, -2.0, 0.5], 0.0),
    ],
    ids=["ray", "orthant", "subspace", "zero", "halfspace"],
)
def test_dual_cone_agrees_with_brute_force(K):
    rng = np.random.default_rng(29)
    elements = _cone_elements(K, rng) if not (
        isinstance(K, LinearSubspace) and K.basis.shape[0] == 0
    ) else np.zeros((1000, 3))
    for _ in range(50):
        u = rng.uniform(-3, 3, 3)
        margin = float((elements @ u).min())
        if abs(margin) < 1e-6:
            continue  # too close to the boundary for the sampled check
        brute = margin >= -1e-10
        assert dual_cone_contains(K, u, tol=1e-10) == brute


def test_dual_cone_examples():
    quad = Orthant([1.0, 1.0])
    assert dual_cone_contains(quad, [1.0, 1.0])
    assert not dual_cone_contains(quad, [1.0, -1.0])
    Y = LinearSubspace([[0.0, 1.0]])
    assert dual_cone_contains(Y, [5.0, 0.0])  # orthogonal complement
    assert not dual_cone_contains(Y, [0.0, 1e-3])
    # tol bounds <u, k> over unit k: k = (1, 1) / sqrt(2) gives -1.13e-10
    assert not dual_cone_contains(quad, [-0.8e-10, -0.8e-10])
    plane = LinearSubspace([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert not dual_cone_contains(plane, [0.8e-10, 0.8e-10, 5.0])


@pytest.mark.parametrize(
    "K",
    [C for C in _set_zoo() if C.is_cone]
    + [Ray(np.zeros(3), [1.0, -2.0, 0.5]), LinearSubspace(np.zeros((0, 3)), ambient_dim=3)],
    ids=lambda c: type(c).__name__,
)
def test_dual_cone_contains_is_the_one_row_residual(K):
    rng = np.random.default_rng(31)
    us = rng.uniform(-3, 3, (200, 3)) * 10.0 ** rng.integers(-12, 2, (200, 1))
    residuals = dual_cone_residuals(K, us)
    assert residuals.shape == (200,)
    for u, r in zip(us, residuals):
        assert r == pytest.approx(np.linalg.norm(K.project(-u)), rel=1e-12, abs=1e-300)
        for tol in (1e-10, 1e-3):
            assert dual_cone_contains(K, u, tol=tol) == (r <= tol)


def test_dual_cone_rejects_non_cones():
    with pytest.raises(UnsupportedSetError):
        dual_cone_contains(Ball([0.0, 0.0], 1.0), [1.0, 0.0])
    # a ray not through the origin is not a cone
    with pytest.raises(UnsupportedSetError):
        dual_cone_contains(Ray([1.0, 0.0], [1.0, 0.0]), [1.0, 0.0])
    with pytest.raises(UnsupportedSetError):
        dual_cone_residuals(Ball([0.0, 0.0], 1.0), np.ones((3, 2)))


# ---------------------------------------------------------------------------
# codimension
# ---------------------------------------------------------------------------


def test_codimension_examples():
    vertical = Hyperplane([1.0, 0.0], 0.0)  # {0} x R
    assert codimension(vertical, 2).codim == 1
    origin = Point([0.0, 0.0])
    assert codimension(origin, 2).codim == 2
    assert codimension(Ball([0.0, 0.0, 0.0], 1.0), 3).codim == 0


@pytest.mark.parametrize("d", [2, 3, 4, 6])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_codimension_linear_subspace_exact(d, k):
    if k > d:
        pytest.skip("basis larger than dimension")
    C = LinearSubspace(np.eye(d)[:k], ambient_dim=d)
    res = codimension(C, d)
    assert res.dim_aff == k
    assert res.codim == d - k


def test_codimension_misc_variants():
    assert codimension(Ray(np.zeros(3), [1.0, 0.0, 0.0]), 3).codim == 2
    assert codimension(Halfspace([1.0, 1.0], 0.0), 2).codim == 0
    assert codimension(Box([0.0, 0.0], [0.0, 1.0]), 2).codim == 1  # pinned coord
    assert codimension(Orthant([1.0, -1.0]), 2).codim == 0
    # point + ray: affine hull is a line
    S = MinkowskiSum(Point(np.zeros(3)), Ray(np.zeros(3), [0.0, 1.0, 0.0]))
    assert codimension(S, 3).codim == 2
    # ball + anything is full-dimensional
    S2 = MinkowskiSum(Ball(np.zeros(3), 1.0), Ray(np.zeros(3), [0.0, 1.0, 0.0]))
    assert codimension(S2, 3).codim == 0


def _sets_of_every_affine_dimension(d, rng):
    """Every set kind in R^d, degenerate instances included."""
    e1 = np.eye(d)[0]
    pinned = rng.uniform(-1, 1, d)
    lower = rng.uniform(-2, 0, d)
    upper = lower + rng.uniform(0.5, 2, d) * (np.arange(d) % 2)  # odd ones pinned
    sets = [
        Point(rng.uniform(-2, 2, d)),
        Ball(rng.uniform(-2, 2, d), 0.7),
        Halfspace(rng.normal(size=d), 0.3),
        Hyperplane(rng.normal(size=d), -0.4),
        Hyperplane(1.4916681462400413e-154 * e1, 0.0),  # its squared norm is the least normal float
        Box(lower, upper),
        Box(pinned, pinned),  # every coordinate pinned: a point
        Box(lower, lower + 1.0),
        Ray(rng.uniform(-1, 1, d), rng.normal(size=d)),
        Orthant(np.where(rng.uniform(size=d) < 0.5, -1.0, 1.0)),
    ]
    for k in range(d + 1):
        spanning = rng.normal(size=(k, d))
        sets.append(AffineSubspace.from_spanning(rng.uniform(-1, 1, d), spanning))
        sets.append(LinearSubspace(np.eye(d)[:k], ambient_dim=d))
    cones = [
        Ray(np.zeros(d), rng.normal(size=d)),
        Orthant(np.ones(d)),
        LinearSubspace(np.zeros((0, d)), ambient_dim=d),
        LinearSubspace(np.eye(d)[: max(d - 1, 1)]),
        Hyperplane(rng.normal(size=d), 0.0),
    ]
    for K in cones:
        sets.append(MinkowskiSum(Point(rng.uniform(-1, 1, d)), K))
        sets.append(MinkowskiSum(Ball(rng.uniform(-1, 1, d), 0.5), K))
    return sets


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_codimension_closed_form_matches_the_rank_of_the_span(d):
    # the span of aff(C) - aff(C), from 200 projections of points around C
    rng = np.random.default_rng(d)
    for C in _sets_of_every_affine_dimension(d, rng):
        pts = C.project_many(C.anchor() + rng.uniform(-10, 10, (200, d)))
        rank = int(np.linalg.matrix_rank(pts[1:] - pts[0], tol=1e-9))
        res = codimension(C, d)
        assert (res.dim_aff, res.codim) == (rank, d - rank), C


def test_a_normal_whose_norm_underflows_is_rejected():
    # 1e-300 squared underflows to 0.0, so no projector could divide by it
    for d in (1, 2, 3, 4):
        with pytest.raises(ValueError, match="normal must be nonzero"):
            Hyperplane(1e-300 * np.eye(d)[0], 0.0)


@pytest.mark.parametrize("kind", [Hyperplane, Halfspace])
def test_a_normal_whose_squared_norm_is_subnormal_is_rejected(kind):
    # 1e-161 squared is the subnormal 1e-322: dividing by it projected
    # (1, 2) to (-0.012, 2); at 1e-150 the squared norm is a normal float
    with pytest.raises(ValueError, match="normal must be nonzero"):
        kind([1e-161, 0.0], 0.0)
    assert kind([1e-150, 0.0], 0.0).project([1.0, 2.0]).tolist() == [0.0, 2.0]


def _refuse_factorizations(monkeypatch):
    import scipy.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("factorization called")

    for name in ("matrix_rank", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for name in ("null_space", "orth", "svd"):
        monkeypatch.setattr(scipy.linalg, name, refuse)


def test_codimension_of_a_hyperplane_runs_no_factorization(monkeypatch):
    _refuse_factorizations(monkeypatch)
    for d in (1, 2, 3, 4):
        assert codimension(Hyperplane(np.ones(d), 2.0), d).codim == 1
        assert codimension(Box(np.zeros(d), np.eye(d)[0]), d).codim == d - 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_codimension_of_every_set_kind_runs_no_factorization(d, monkeypatch):
    # built first: from_spanning orthonormalizes with a factorization
    sets = _sets_of_every_affine_dimension(d, np.random.default_rng(d))
    _refuse_factorizations(monkeypatch)
    for C in sets:
        assert 0 <= codimension(C, d).codim <= d, C


def test_codimension_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        codimension(Point([0.0, 0.0]), 3)


# ---------------------------------------------------------------------------
# witness sampling
# ---------------------------------------------------------------------------


def test_point_witnesses_repeat():
    p = Point([1.0, 2.0])
    ws = sample_witnesses(p, 4, seed=0)
    assert len(ws) == 4
    for w in ws:
        assert np.array_equal(w, [1.0, 2.0])


def test_hyperplane_witnesses_on_plane():
    C = Hyperplane([1.0, 0.0], 0.0)
    ws = sample_witnesses(C, 3, seed=1, radius=10.0)
    for w in ws:
        assert abs(w[0]) <= 1e-12


def test_ray_witnesses_nonnegative_parameter():
    C = Ray([1.0, -1.0], [0.0, 1.0])
    ws = sample_witnesses(C, 4, seed=2, radius=5.0)
    for w in ws:
        assert w[1] >= -1.0 - 1e-12
        assert abs(w[0] - 1.0) <= 1e-12


@pytest.mark.parametrize("C", _set_zoo(), ids=lambda c: type(c).__name__)
def test_witnesses_members_within_radius(C):
    radius = 6.0
    ws = sample_witnesses(C, 12, seed=4, radius=radius)
    anchor = ws[0]
    assert np.allclose(anchor, C.anchor())
    for w in ws:
        assert C.contains(w, tol=1e-10)
        assert np.linalg.norm(w - anchor) <= radius + 1e-9


@pytest.mark.parametrize("C", _set_zoo(), ids=lambda c: type(c).__name__)
def test_witnesses_are_projected_draws(C):
    # the anchor, then the projection of each draw, in the order the RNG gives them
    ws = sample_witnesses(C, 7, seed=6, radius=3.0)
    assert isinstance(ws, np.ndarray) and ws.shape == (7, C.dim)
    rng = np.random.default_rng(6)
    expected = [C.anchor()]
    for _ in range(6):
        u = rng.standard_normal(C.dim)
        draw = u * (3.0 * rng.uniform() ** (1.0 / C.dim) / np.linalg.norm(u))
        expected.append(C.project(C.anchor() + draw))
    assert ws.tobytes() == np.array(expected).tobytes()
    assert sample_witnesses(C, 1).shape == (1, C.dim)


def test_witnesses_deterministic():
    C = Ball([0.0, 1.0], 2.0)
    a = sample_witnesses(C, 6, seed=5, radius=3.0)
    b = sample_witnesses(C, 6, seed=5, radius=3.0)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_degenerate_ball_becomes_point():
    s = ball([1.0, 2.0], 0.0)
    assert isinstance(s, Point)
    assert np.array_equal(s.coords, [1.0, 2.0])
    assert isinstance(ball([0.0], 1.0), Ball)
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)
    with pytest.raises(ValueError):
        ball([0.0], -1.0)


def test_invalid_constructions():
    with pytest.raises(ValueError):
        Halfspace([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        Hyperplane([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        Box([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        Ray([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        Orthant([1.0, 0.0])
    with pytest.raises(ValueError):
        AffineSubspace([0.0, 0.0], [[1.0, 1.0]])  # not orthonormal
    with pytest.raises(NonFiniteValueError):
        Point([np.nan, 0.0])


def test_ray_direction_normalized():
    r = Ray([0.0, 0.0], [3.0, 4.0])
    assert np.allclose(r.direction, [0.6, 0.8])
    assert np.isclose(np.linalg.norm(r.direction), 1.0)


def test_full_space_projector_is_identity():
    C = full_space(3)
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(C.project(x), x)
    assert codimension(C, 3).codim == 0


def test_value_equality():
    assert Ball([0.0, 1.0], 2.0) == Ball([0.0, 1.0], 2.0)
    assert Ball([0.0, 1.0], 2.0) != Ball([0.0, 1.0], 2.5)
    assert Point([1.0]) != Ball([1.0], 1.0)
    assert MinkowskiSum(Point([0.0]), Orthant([1.0])) == MinkowskiSum(
        Point([0.0]), Orthant([1.0])
    )


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        Ball([0.0, 0.0], 1.0).project([1.0, 2.0, 3.0])
