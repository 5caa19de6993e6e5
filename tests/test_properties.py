"""Property test over random operator trees of every set kind in d = 1..4.

It asserts that ``iterate`` computes the orbit of ``T.apply`` bit for bit,
and that every certificate ``certify`` gives survives the empirical
verifier.  The calculus follows Bauschke & Combettes, *Convex Analysis and
Monotone Operator Theory in Hilbert Spaces*.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


def orthonormal_rows(d):
    """k orthonormal rows, 0 <= k <= d, from the QR factor of a random matrix."""
    square = st.lists(coords, min_size=d * d, max_size=d * d).map(
        lambda xs: np.linalg.qr(np.reshape(xs, (d, d)))[0].T
    )
    return st.tuples(square, st.integers(0, d)).map(lambda qk: qk[0][: qk[1]])


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


def _naive_orbit(T, x0, n):
    pts = [np.asarray(x0, dtype=float)]
    for _ in range(n):
        pts.append(T.apply(pts[-1]))
    return np.stack(pts)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), operators(d), vectors(d))))
def test_random_trees_iterate_exactly_and_certify_soundly(case):
    d, T, x0 = case
    traj = iterate(T, x0, STEPS)
    assert traj.points.tobytes() == _naive_orbit(T, x0, STEPS).tobytes()
    cert = certify(T)
    if cert.is_averaged:
        rep = verify_averaged(T, cert.alpha, trials=200, seed=5, dim=d)
    elif cert.is_nonexpansive:
        rep = verify_nonexpansive(T, trials=200, seed=5, dim=d)
    else:
        return
    assert rep.passed, rep.witness
