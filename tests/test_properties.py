"""Property tests over random operator trees of every set kind in d = 1..4.

They assert that ``iterate`` and ``apply`` compute the orbit of a plain-float
reference bit for bit, and that every certificate ``certify`` gives survives
the empirical verifier, also on trees drawn at the boundaries of the
calculus rules.  The calculus follows Bauschke & Combettes, *Convex Analysis
and Monotone Operator Theory in Hilbert Spaces*.
"""

import bisect
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_geometry import _dot, _reference_project

from fejerlab.dynamics import iterate
from fejerlab.geometry import (
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
)
from fejerlab.operators import (
    AffineMap,
    Composition,
    ConvexCombination,
    DouglasRachford,
    Identity,
    Linear,
    Negation,
    Projector,
    Reflector,
    ScalarPiecewiseLinear,
    Translation,
    certify,
    random_scalar_piecewise_linear,
    verify_averaged,
    verify_nonexpansive,
)

STEPS = 30

coords = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
alphas = st.floats(0.01, 0.99)


def vectors(d):
    return st.lists(coords, min_size=d, max_size=d).map(np.array)


def nonzero_vectors(d):
    return vectors(d).filter(lambda v: np.linalg.norm(v) > 1e-3)


def orthogonal(d):
    """Orthogonal matrices: the Q factor of a random square matrix."""
    return st.lists(coords, min_size=d * d, max_size=d * d).map(
        lambda xs: np.linalg.qr(np.reshape(xs, (d, d)))[0]
    )


def orthonormal_rows(d):
    """k orthonormal rows, 0 <= k <= d, from an orthogonal matrix."""
    return st.tuples(orthogonal(d), st.integers(0, d)).map(lambda qk: qk[0].T[: qk[1]])


def cones(d):
    return st.one_of(
        nonzero_vectors(d).map(lambda u: Ray(np.zeros(d), u)),
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d).map(Orthant),
        orthonormal_rows(d).map(lambda rows: LinearSubspace(rows, ambient_dim=d)),
    )


def sets(d):
    points = vectors(d).map(Point)
    balls = st.builds(Ball, vectors(d), st.floats(0.1, 3.0))
    return st.one_of(
        points,
        balls,
        st.builds(Halfspace, nonzero_vectors(d), coords),
        st.builds(Hyperplane, nonzero_vectors(d), coords),
        st.builds(AffineSubspace, vectors(d), orthonormal_rows(d)),
        orthonormal_rows(d).map(lambda rows: LinearSubspace(rows, ambient_dim=d)),
        st.builds(
            lambda lo, width: Box(lo, lo + np.abs(width)), vectors(d), vectors(d)
        ),
        st.builds(Ray, vectors(d), nonzero_vectors(d)),
        cones(d),
        # the sums with a closed-form projector
        st.builds(MinkowskiSum, st.one_of(points, balls), cones(d)),
    )


def matrices(d):
    """Square matrices of spectral norm up to 1.2; about half are expansive."""
    raw = st.lists(coords, min_size=d * d, max_size=d * d).map(
        lambda xs: np.reshape(xs, (d, d))
    )
    return st.builds(
        lambda m, norm: m * (norm / max(np.linalg.norm(m, 2), 1e-300)),
        raw,
        st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1.2)),
    )


@functools.cache  # one strategy per dimension: building them is slow
def operators(d):
    leaves = [
        sets(d).map(Projector),
        st.builds(DouglasRachford, sets(d), sets(d)),
        sets(d).map(Reflector),
        matrices(d).map(Linear),
        st.builds(AffineMap, matrices(d), vectors(d)),
        vectors(d).map(Translation),
        st.just(Negation()),
        st.just(Identity()),
    ]
    if d == 1:
        leaves.append(
            st.integers(0, 2**32 - 1).map(
                lambda seed: random_scalar_piecewise_linear(np.random.default_rng(seed))
            )
        )
    return st.recursive(
        st.one_of(leaves),
        lambda children: st.one_of(
            st.builds(ConvexCombination, alphas, children, children),
            # the relaxations (1 - a) Id + a T, which have their own rule
            st.builds(ConvexCombination, alphas, st.just(Identity()), children),
            st.builds(Composition, children, children),
        ),
        max_leaves=6,
    )


@functools.cache
def rule_boundaries(d):
    """Trees on which a slightly wrong calculus rule overclaims.

    An expansive leaf is s Q with Q orthogonal and ||s Q||_2 = s in (1, 1.1],
    so every pair of points moves apart.  A relaxation (1 - b) Id + b N of an
    isometry N is b-averaged; with N = -Id no smaller constant holds.
    """
    norms = st.floats(1.0, 1.1, exclude_min=True)
    expansive = st.builds(lambda q, s: Linear(s * q), orthogonal(d), norms)
    isometries = st.one_of(st.just(Negation()), orthogonal(d).map(Linear))
    relaxed = st.builds(ConvexCombination, alphas, st.just(Identity()), isometries)
    return st.one_of(
        expansive,
        # two averaged operands with different constants
        st.builds(ConvexCombination, alphas, relaxed, relaxed).filter(
            lambda T: T.left.alpha != T.right.alpha
        ),
        # an expansive operand and a nonexpansive one, on either side: both
        # (1 - a) s Q + a Q and (1 - a) Q + a s Q expand
        st.builds(
            lambda q, s, a: ConvexCombination(a, Linear(s * q), Linear(q)),
            orthogonal(d),
            norms,
            alphas,
        ),
        st.builds(
            lambda q, s, a: ConvexCombination(a, Linear(q), Linear(s * q)),
            orthogonal(d),
            norms,
            alphas,
        ),
    )


def _assert_certificate_holds(T, d):
    cert = certify(T)
    if cert.is_averaged:
        rep = verify_averaged(T, cert.alpha, trials=200, seed=5, dim=d)
    elif cert.is_nonexpansive:
        rep = verify_nonexpansive(T, trials=200, seed=5, dim=d)
    else:
        return
    assert rep.passed, rep.witness


def _reflect(C, x):
    return 2.0 * _reference_project(C, x) - x


def _reference_apply(T, x):
    """T(x) node by node, in the order of operations of each node's ``_emit``,
    on plain floats: every inner product a ``_dot`` sum, every projection
    ``_reference_project``'s."""
    if isinstance(T, Identity):
        return x.copy()
    if isinstance(T, Negation):
        return -x
    if isinstance(T, Translation):
        return x + T.shift
    if isinstance(T, (Linear, AffineMap)):
        mx = np.array([_dot(row, x) for row in T.matrix])
        return mx + T.shift if isinstance(T, AffineMap) else mx
    if isinstance(T, Projector):
        return _reference_project(T.target, x)
    if isinstance(T, Reflector):
        return _reflect(T.target, x)
    if isinstance(T, ConvexCombination):
        left, right = _reference_apply(T.left, x), _reference_apply(T.right, x)
        return (1.0 - T.alpha) * left + T.alpha * right
    if isinstance(T, Composition):
        return _reference_apply(T.outer, _reference_apply(T.inner, x))
    if isinstance(T, DouglasRachford):
        return 0.5 * (x + _reflect(T.second, _reflect(T.first, x)))
    assert isinstance(T, ScalarPiecewiseLinear)
    xs, sl, a = T.breakpoints, T.slopes, T.anchor_value
    ys = np.concatenate([[a], a + np.cumsum(sl[1:-1] * np.diff(xs))])
    t = float(x[0])
    j = bisect.bisect_right(xs.tolist(), t)  # slopes[j] applies at t
    k = j - 1 if j > 0 else 0
    return np.array([ys[k] + sl[j] * (t - xs[k])])


def _reference_orbit(T, x0, n):
    pts = [np.asarray(x0, dtype=float)]
    for _ in range(n):
        pts.append(_reference_apply(T, pts[-1]))
    return np.stack(pts)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), operators(d), vectors(d))))
def test_random_trees_iterate_exactly_and_certify_soundly(case):
    d, T, x0 = case
    want = _reference_orbit(T, x0, STEPS)
    assert iterate(T, x0, STEPS).points.tobytes() == want.tobytes()
    for x, y in zip(want[:-1], want[1:]):
        assert T.apply(x).tobytes() == y.tobytes(), x
    _assert_certificate_holds(T, d)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), rule_boundaries(d))))
def test_certificates_hold_at_the_rule_boundaries(case):
    d, T = case
    _assert_certificate_holds(T, d)
