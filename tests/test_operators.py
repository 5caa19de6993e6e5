import subprocess

import numpy as np
import pytest

from fejerlab import native
from fejerlab.dynamics import iterate
from fejerlab.errors import DimensionMismatchError, UnsupportedSetError
from fejerlab.geometry import (
    AffineSubspace,
    Ball,
    Halfspace,
    Hyperplane,
    MinkowskiSum,
    Ray,
    sample_witnesses,
)
from fejerlab.operators import (
    AffineMap,
    AveragednessCertificate,
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
    fixed_set_description,
    random_scalar_piecewise_linear,
    two_ball_gap_vector,
    verify_averaged,
    verify_nonexpansive,
)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_negation_on_the_line():
    assert np.array_equal(Negation().apply([5.0]), [-5.0])


def test_translation():
    T = Translation([1.0, -2.0])
    assert np.array_equal(T.apply([0.0, 0.0]), [1.0, -2.0])


def test_dr_fixes_intersection_points():
    A = B = Ball([0.0, 0.0], 1.0)
    T = DouglasRachford(A, B)
    x = np.array([0.5, 0.0])
    assert np.allclose(T.apply(x), x, atol=1e-14)


def test_composition_and_combination():
    T = Composition(Translation([1.0]), Negation())
    assert np.array_equal(T.apply([2.0]), [-1.0])  # outer(inner(x))
    S = ConvexCombination(0.25, Identity(), Negation())
    assert np.allclose(S.apply([4.0]), [0.75 * 4.0 - 0.25 * 4.0])


def test_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        Translation([1.0, 0.0]).apply([1.0])
    with pytest.raises(DimensionMismatchError):
        ConvexCombination(0.5, Translation([1.0]), Translation([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        DouglasRachford(Ball([0.0], 1.0), Ball([0.0, 0.0], 1.0))


def test_dr_equals_definitional_expansion():
    rng = np.random.default_rng(2)
    A = Ball(np.array([0.0, 0.0, 0.0]), 1.0)
    B = Ball(np.array([5.0, 0.0, 0.0]), 1.0)
    dr = DouglasRachford(A, B)
    expanded = ConvexCombination(
        0.5, Identity(), Composition(Reflector(B), Reflector(A))
    )
    for _ in range(1000):
        x = rng.uniform(-8, 8, 3)
        assert np.linalg.norm(dr.apply(x) - expanded.apply(x)) <= 1e-14


def test_scalar_piecewise_linear_evaluation():
    # two breakpoints, three slopes; values accumulated by hand:
    # f(-1) = 0.5, f(2) = 0.5 + 1.0 * 3 = 3.5
    f = ScalarPiecewiseLinear([-1.0, 2.0], [-0.5, 1.0, 0.0], anchor_value=0.5)
    assert f.value_at(-1.0) == 0.5
    assert f.value_at(2.0) == 3.5
    assert f.value_at(5.0) == 3.5  # flat tail
    assert f.value_at(-3.0) == 0.5 + (-0.5) * (-2.0)
    assert np.allclose(f.apply([0.0]), [1.5])


def test_scalar_piecewise_linear_validation():
    with pytest.raises(ValueError):
        ScalarPiecewiseLinear([0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        ScalarPiecewiseLinear([0.0], [0.0, 1.5])
    with pytest.raises(ValueError):
        ScalarPiecewiseLinear([0.0], [0.0])


_PWL = ScalarPiecewiseLinear([-1.0, 2.0], [-0.5, 1.0, 0.0], anchor_value=0.5)
_BALL = Ball([0.0], 1.0)


def _reference_apply(T, x):
    """Each node kind's numpy evaluation, the reference for its float kernel:
    at d = 1 every product in it is one rounded multiplication."""
    if isinstance(T, Identity):
        return +x
    if isinstance(T, Negation):
        return -x
    if isinstance(T, Translation):
        return x + T.shift
    if isinstance(T, Linear):
        return T.matrix @ x
    if isinstance(T, AffineMap):
        return T.matrix @ x + T.shift
    if isinstance(T, Projector):
        return T.target.project(x)
    if isinstance(T, Reflector):
        return T.target.reflect(x)
    if isinstance(T, ConvexCombination):
        left, right = _reference_apply(T.left, x), _reference_apply(T.right, x)
        return (1.0 - T.alpha) * left + T.alpha * right
    if isinstance(T, Composition):
        return _reference_apply(T.outer, _reference_apply(T.inner, x))
    if isinstance(T, DouglasRachford):
        return 0.5 * (x + T.second.reflect(T.first.reflect(x)))
    xs, sl, a = T.breakpoints, T.slopes, T.anchor_value
    ys = np.concatenate([[a], a + np.cumsum(sl[1:-1] * np.diff(xs))])
    t = float(x[0])
    j = int(np.searchsorted(xs, t, side="right"))
    if j == 0:
        return np.array([ys[0] + sl[0] * (t - xs[0])])
    return np.array([ys[j - 1] + sl[j] * (t - xs[j - 1])])


@pytest.mark.parametrize(
    "T",
    [
        pytest.param(Identity(), id="identity"),
        pytest.param(Negation(), id="negation"),
        pytest.param(_PWL, id="piecewise-linear"),
        pytest.param(ConvexCombination(0.3, Identity(), _PWL), id="combination"),
        pytest.param(Composition(Negation(), _PWL), id="composition"),
        pytest.param(Translation([1.0]), id="translation"),
        pytest.param(Linear([[0.5]]), id="linear"),
        pytest.param(Linear([[-0.0]]), id="linear-negative-zero"),
        pytest.param(AffineMap([[0.5]], [1.0]), id="affine"),
        pytest.param(AffineMap([[0.5]], [-0.0]), id="affine-negative-zero"),
        pytest.param(Projector(_BALL), id="projector"),
        pytest.param(Reflector(_BALL), id="reflector"),
        pytest.param(DouglasRachford(_BALL, Ball([3.0], 1.0)), id="douglas-rachford"),
        pytest.param(ConvexCombination(0.3, _PWL, Linear([[0.5]])), id="combination-mixed"),
        pytest.param(Composition(Projector(_BALL), _PWL), id="composition-mixed"),
    ],
)
def test_scalar_flag_per_node_kind(T):
    # every node kind evaluates on floats; at d = 1 its kernel does numpy's
    # arithmetic, signed zeros included, so apply and value_at keep the bits
    # of the node's numpy evaluation
    for t in (-2.5, -1.0, -0.0, 0.0, 0.75, 1.5, 2.0, 3.0):
        y = T.apply([t])
        assert y.dtype == np.float64 and y.shape == (1,)
        assert y.tobytes() == _reference_apply(T, np.array([t])).tobytes(), t
        if isinstance(T, ScalarPiecewiseLinear):
            assert np.array([T.value_at(t)]).tobytes() == y.tobytes(), t


def test_sweep_operators_share_compiled_kernels(monkeypatch):
    # programs are lowered per tree shape and dimension, and parameters are
    # bound per node: the scalar sweep's trees share one program and the
    # codim1 sweep's one per dimension, however many operators a sweep builds
    monkeypatch.setattr(native, "_PROGRAMS", {})
    rng = np.random.default_rng(3)
    for i in range(200):
        R = random_scalar_piecewise_linear(rng)
        T = ConvexCombination(0.1 * (1 + i % 9), Identity(), R)
        iterate(T, [rng.uniform(-10, 10)], 50)
    for i in range(50):
        d = 2 + i % 2
        normal = rng.normal(size=d)
        C = Hyperplane(normal / np.linalg.norm(normal), rng.uniform(-2, 2))
        T = ConvexCombination(rng.uniform(0.05, 0.95), Identity(), Reflector(C))
        iterate(T, rng.uniform(-5, 5, d), 50)
    assert len(native._PROGRAMS) == 3
    # a set's projection, its projector's map and a projector orbit run one
    # lowered program, each node with its own registers
    C = Ball([0.5, -1.0], 2.0)
    x = np.array([4.0, 3.0])
    P = Projector(C)
    y = C.project(x)
    assert P.apply(x).tobytes() == y.tobytes()
    assert iterate(P, x, 3).points[1].tobytes() == y.tobytes()
    assert len(native._PROGRAMS) == 4
    assert P._kernel(2).program is C._kernel(2).program


def test_unsupported_minkowski_sum_raises_on_use():
    # the set is refused when built, so no projector of it exists to apply
    with pytest.raises(UnsupportedSetError):
        Projector(MinkowskiSum(Halfspace([1.0, 0.0], 1.0), Ray([0.0, 0.0], [0.0, 1.0])))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_normalization():
    c = AveragednessCertificate.averaged(0.5)
    assert c.is_firmly_nonexpansive and c.is_averaged and c.alpha == 0.5
    c2 = AveragednessCertificate.averaged(0.3)
    assert c2.is_averaged and not c2.is_firmly_nonexpansive


def test_certify_structural_rules():
    C = Ball([0.0, 0.0], 1.0)
    assert certify(Projector(C)).is_firmly_nonexpansive
    A, B = Ball([0.0] * 3, 1.0), Ball([5.0, 0.0, 0.0], 1.0)
    assert certify(DouglasRachford(A, B)).is_firmly_nonexpansive
    cc = certify(ConvexCombination(0.3, Identity(), Reflector(C)))
    assert cc.is_averaged and cc.alpha == 0.3
    neg = certify(Negation())
    assert neg.is_nonexpansive and not neg.is_averaged
    assert certify(Translation([1.0])).kind == "nonexpansive"
    assert certify(Reflector(C)).kind == "nonexpansive"


def test_certify_linear():
    theta = 0.7
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert certify(Linear(Q)).is_nonexpansive
    assert certify(Linear(0.5 * np.eye(2))).is_nonexpansive
    assert certify(Linear(2.0 * np.eye(2))).kind == "unknown"
    assert certify(AffineMap(0.9 * Q, [1.0, 0.0])).is_nonexpansive


def test_certify_composition_formula():
    C = Hyperplane([1.0, 0.0], 0.0)
    t1 = ConvexCombination(0.25, Identity(), Reflector(C))
    t2 = ConvexCombination(0.5, Identity(), Reflector(C))
    comp = certify(Composition(t1, t2))
    a1, a2 = 0.25, 0.5
    expected = (a1 + a2 - 2 * a1 * a2) / (1 - a1 * a2)
    assert comp.is_averaged
    assert np.isclose(comp.alpha, expected)


def test_certify_identity_combination_with_averaged_inner():
    C = Ball([0.0], 1.0)
    inner = Projector(C)  # firmly nonexpansive, alpha 1/2
    cert = certify(ConvexCombination(0.4, Identity(), inner))
    assert cert.is_averaged and np.isclose(cert.alpha, 0.4 * 0.5)


_P = Projector(Ball([0.0], 1.0))  # firmly nonexpansive
_R = Reflector(Hyperplane([1.0], 0.0))  # nonexpansive
_U = Linear([[2.0]])  # no certificate
_RELAXED = ConvexCombination(0.25, Identity(), Negation())  # 1/4-averaged
_NEAR_ID = ConvexCombination(1.0 - 2.0**-53, Identity(), Negation())
_FIRM = AveragednessCertificate.averaged(0.5)
_NONEXPANSIVE = AveragednessCertificate.nonexpansive()
_UNKNOWN = AveragednessCertificate.unknown()


@pytest.mark.parametrize(
    "T,expected",
    [
        pytest.param(Identity(), _FIRM, id="identity"),
        pytest.param(Negation(), _NONEXPANSIVE, id="negation"),
        pytest.param(Translation([1.0]), _NONEXPANSIVE, id="translation"),
        pytest.param(Linear([[0.5]]), _NONEXPANSIVE, id="linear"),
        pytest.param(_U, _UNKNOWN, id="linear-expansive"),
        pytest.param(AffineMap([[-1.0]], [3.0]), _NONEXPANSIVE, id="affine"),
        pytest.param(AffineMap([[1.5]], [0.0]), _UNKNOWN, id="affine-expansive"),
        pytest.param(_P, _FIRM, id="projector"),
        pytest.param(_R, _NONEXPANSIVE, id="reflector"),
        pytest.param(
            DouglasRachford(Ball([0.0], 1.0), Ball([3.0], 1.0)), _FIRM, id="douglas-rachford"
        ),
        pytest.param(
            ScalarPiecewiseLinear([0.0], [0.5, -1.0]), _NONEXPANSIVE, id="piecewise-linear"
        ),
        # (1 - a) left + a right
        pytest.param(
            ConvexCombination(0.25, Identity(), _R),
            AveragednessCertificate.averaged(0.25),
            id="relax-left-nonexpansive",
        ),
        pytest.param(
            ConvexCombination(0.25, Identity(), _P),
            AveragednessCertificate.averaged(0.125),
            id="relax-left-averaged",
        ),
        pytest.param(
            ConvexCombination(0.25, _R, Identity()),
            AveragednessCertificate.averaged(0.75),
            id="relax-right-nonexpansive",
        ),
        pytest.param(
            ConvexCombination(0.25, _P, Identity()),
            AveragednessCertificate.averaged(0.375),
            id="relax-right-averaged",
        ),
        pytest.param(ConvexCombination(0.25, Identity(), _U), _UNKNOWN, id="relax-unknown"),
        pytest.param(
            ConvexCombination(0.5, _P, _RELAXED),
            AveragednessCertificate.averaged(0.375),
            id="averaged-averaged",
        ),
        pytest.param(ConvexCombination(0.5, _P, _R), _NONEXPANSIVE, id="averaged-nonexpansive"),
        pytest.param(
            ConvexCombination(0.5, Negation(), _R), _NONEXPANSIVE, id="nonexpansive-pair"
        ),
        pytest.param(ConvexCombination(0.5, _U, _P), _UNKNOWN, id="unknown-operand"),
        # outer(inner(x))
        pytest.param(
            Composition(_P, _RELAXED),
            AveragednessCertificate.averaged(4.0 / 7.0),
            id="compose-averaged",
        ),
        pytest.param(Composition(_P, _R), _NONEXPANSIVE, id="compose-nonexpansive"),
        pytest.param(Composition(_U, _P), _UNKNOWN, id="compose-unknown"),
        # a rule's constant that rounds to 0 or to 1 degrades to nonexpansive
        pytest.param(
            ConvexCombination(1e-200, Identity(), ConvexCombination(1e-200, Identity(), _R)),
            _NONEXPANSIVE,
            id="alpha-underflow",
        ),
        pytest.param(Composition(_NEAR_ID, _NEAR_ID), _NONEXPANSIVE, id="alpha-rounds-to-one"),
    ],
)
def test_certify_table(T, expected):
    # dataclass equality: same kind and the same alpha, bit for bit
    assert certify(T) == expected


@pytest.mark.parametrize(
    "T,dim",
    [
        (Projector(Ball([0.0, 1.0], 2.0)), 2),
        (DouglasRachford(Ball([0.0] * 3, 1.0), Ball([4.0, 0.0, 0.0], 2.0)), 3),
        (ConvexCombination(0.2, Identity(), Reflector(Hyperplane([1.0, 1.0], 0.5))), 2),
        (ConvexCombination(0.7, Identity(), Negation()), 1),
        (
            Composition(
                Projector(Ball([0.0, 0.0], 1.5)),
                ConvexCombination(0.5, Identity(), Reflector(Halfspace([0.0, 1.0], 0.0))),
            ),
            2,
        ),
    ],
    ids=["projector", "dr", "relaxed-reflector", "averaged-negation", "composition"],
)
def test_certificates_are_sound(T, dim):
    # every produced averagedness constant must survive the empirical check
    cert = certify(T)
    assert cert.is_averaged
    rep = verify_averaged(T, cert.alpha, trials=1000, seed=3, tol=1e-9, dim=dim)
    assert rep.passed, rep.witness


# ---------------------------------------------------------------------------
# empirical verifiers
# ---------------------------------------------------------------------------


def test_verify_nonexpansive_isometry_and_expansion():
    assert verify_nonexpansive(Negation(), dim=1).passed
    rep = verify_nonexpansive(Linear(2.0 * np.eye(2)), seed=1)
    assert rep.failed
    # doubling map: ||Tx - Ty|| - ||x - y|| equals ||x - y||
    x, y = rep.witness["x"], rep.witness["y"]
    assert np.isclose(rep.witness["violation"], np.linalg.norm(x - y))


@pytest.mark.parametrize("dim", [0, -1, True, 2.0, "2"])
@pytest.mark.parametrize(
    "verify",
    [verify_nonexpansive, lambda T, **kw: verify_averaged(T, 0.5, **kw)],
    ids=["nonexpansive", "averaged"],
)
def test_a_bad_dim_is_a_value_error_that_names_dim(verify, dim):
    # a dimension-free operator takes the dim it is given
    with pytest.raises(ValueError, match=f"^dim must be an integer >= 1, got {dim!r}$"):
        verify(Negation(), dim=dim)


@pytest.mark.parametrize(
    "verify",
    [verify_nonexpansive, lambda T, **kw: verify_averaged(T, 0.5, **kw)],
    ids=["nonexpansive", "averaged"],
)
def test_a_dim_other_than_the_operators_own_is_a_value_error(verify):
    with pytest.raises(ValueError, match=r"^dim is 3, but the operator has dimension 2$"):
        verify(Linear(np.eye(2)), dim=3, trials=5)
    assert verify(Linear(np.eye(2)), dim=2, trials=5).params["dim"] == 2


def test_verify_nonexpansive_dr_two_balls():
    T = DouglasRachford(Ball([0.0] * 3, 1.0), Ball([5.0, 0.0, 0.0], 1.0))
    assert verify_nonexpansive(T, trials=1000, seed=2, tol=1e-9).passed


def test_verify_averaged_projector_and_identity():
    assert verify_averaged(Projector(Ball([0.0, 0.0], 1.0)), 0.5, seed=4).passed
    for alpha in (0.1, 0.5, 0.9):
        assert verify_averaged(Identity(), alpha, dim=2, seed=5).passed


def test_verify_averaged_negation_fails_by_direct_substitution():
    # at the pair (1, 0):  |Tx-Ty|^2 = 1 and the displacement term is 4,
    # so the inequality reads 1 + 4 <= 1 for alpha = 1/2 and fails
    alpha = 0.5
    rep = verify_averaged(Negation(), alpha, dim=1, seed=6)
    assert rep.failed
    x, y = rep.witness["x"], rep.witness["y"]
    gap = float(np.sum((x - y) ** 2))
    expected_violation = 4.0 * (1.0 - alpha) / alpha * gap
    assert np.isclose(rep.witness["violation"], expected_violation)
    for a in np.linspace(0.05, 0.95, 10):
        assert verify_averaged(Negation(), float(a), dim=1, seed=7).failed


def test_random_scalar_maps_are_nonexpansive():
    rng = np.random.default_rng(11)
    for _ in range(25):
        f = random_scalar_piecewise_linear(rng)
        assert np.max(np.abs(f.slopes)) <= 1.0
        assert verify_nonexpansive(f, trials=400, seed=8, tol=1e-9).passed


@pytest.mark.parametrize("excess", [1e-4, 1e-6])
def test_linear_certificate_rejects_norm_just_above_one(excess):
    # U diag(1 + excess, 1 - delta, s) V^T: a power iteration with a fixed
    # budget converges to the top singular value from below and often stops
    # under 1 when the top two are this close
    rng = np.random.default_rng(12)
    for _ in range(20):
        u = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        v = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        delta, s = rng.uniform(0.0, 1e-3), rng.uniform(0.0, 0.9)
        M = u @ np.diag([1.0 + excess, 1.0 - delta, s]) @ v.T
        assert not certify(Linear(M)).is_nonexpansive
        assert not certify(ConvexCombination(0.5, Identity(), Linear(M))).is_averaged


# ---------------------------------------------------------------------------
# generalized fixed sets
# ---------------------------------------------------------------------------


def test_fixed_set_projector():
    C = Ball([1.0, 1.0], 2.0)
    assert fixed_set_description(Projector(C), [0.0, 0.0]) is C


def test_fixed_set_relaxed_reflector():
    C = Hyperplane([0.0, 1.0], 1.0)
    T = ConvexCombination(0.3, Identity(), Reflector(C))
    assert fixed_set_description(T, [0.0, 0.0]) is C


def test_fixed_set_translation_cancellation():
    T = Translation([1.0, -1.0])
    F = fixed_set_description(T, [-1.0, 1.0])
    assert F is not None
    assert F.project([3.0, 4.0]) == pytest.approx([3.0, 4.0])
    assert fixed_set_description(T, [0.0, 0.0]) is None


def test_fixed_set_affine_solves_linear_system():
    rng = np.random.default_rng(13)
    theta = 0.9
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    L = 0.5 * np.eye(2) + 0.5 * Q
    b = rng.uniform(-1, 1, 2)
    v = np.zeros(2)
    T = AffineMap(L, b)
    F = fixed_set_description(T, v)
    assert isinstance(F, AffineSubspace)
    for f in sample_witnesses(F, 6, seed=9, radius=5.0):
        assert np.linalg.norm(T.apply(f) + v - f) <= 1e-8


def test_fixed_set_linear_keeps_a_fixed_direction_when_i_minus_l_is_small():
    # averaged rotation from run_affine_limit_sweep (seed 1167677587, instance
    # 10): I - L has singular values 0.133, 0.133 and 1.1e-16
    L = np.array(
        [
            [0.9972378114370397, 0.005527810715430156, 0.04537658351804103],
            [0.00949132500756492, 0.9795388713585325, -0.12258296789728644],
            [-0.044715833579126646, 0.1228255371557591, 0.976787354356551],
        ]
    )
    fix = fixed_set_description(Linear(L), [0.0, 0.0, 0.0])
    assert fix.basis.shape == (1, 3)
    axis = fix.basis[0]
    assert np.linalg.norm(L @ axis - axis) <= 1e-15


def test_fixed_set_affine_inconsistent_returns_none():
    # (Id - Id) x = b has no solution for nonzero b
    T = AffineMap(np.eye(2), [1.0, 0.0])
    assert fixed_set_description(T, [0.0, 0.0]) is None


def test_fixed_set_two_ball_dr_is_a_ray():
    A = Ball([0.0, 0.0, 0.0], 1.0)
    B = Ball([5.0, 0.0, 0.0], 1.0)
    T = DouglasRachford(A, B)
    v = two_ball_gap_vector(A, B)
    assert np.allclose(v, [-3.0, 0.0, 0.0])
    F = fixed_set_description(T, v)
    assert isinstance(F, Ray)
    # ray of fixed points of v + T: base at the tangency point, aiming away from A
    assert np.allclose(F.base, [1.0, 0.0, 0.0])
    assert np.allclose(F.direction, [1.0, 0.0, 0.0])
    for f in sample_witnesses(F, 8, seed=10, radius=6.0):
        assert np.linalg.norm(T.apply(f) + v - f) <= 1e-8
    # a wrong v gives no description
    assert fixed_set_description(T, [0.0, 0.0, 0.0]) is None


def test_fixed_set_overlapping_balls_unknown():
    A = Ball([0.0, 0.0], 2.0)
    B = Ball([1.0, 0.0], 2.0)
    T = DouglasRachford(A, B)
    assert fixed_set_description(T, [0.0, 0.0]) is None


def test_two_ball_gap_vector_cases():
    A = Ball([0.0, 0.0], 1.0)
    assert np.array_equal(two_ball_gap_vector(A, Ball([1.0, 0.0], 1.0)), [0.0, 0.0])
    assert np.array_equal(two_ball_gap_vector(A, Ball([0.0, 0.0], 2.0)), [0.0, 0.0])
    g = two_ball_gap_vector(A, Ball([0.0, 7.0], 2.0))
    assert np.allclose(g, [0.0, -4.0])


def test_operator_value_equality():
    assert Translation([1.0, 2.0]) == Translation([1.0, 2.0])
    assert Translation([1.0, 2.0]) != Translation([1.0, 3.0])
    a = ConvexCombination(0.5, Identity(), Negation())
    b = ConvexCombination(0.5, Identity(), Negation())
    assert a == b


def _operator_zoo():
    line = Hyperplane([1.0, 2.0], 0.5)
    ballA = Ball([0.0, 0.0], 1.0)
    theta = 0.8
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return [
        Identity(),
        Negation(),
        Translation([1.0, -2.0]),
        Linear(rot),
        AffineMap(0.7 * rot, [0.5, 0.5]),
        Projector(ballA),
        Reflector(line),
        ConvexCombination(0.4, Identity(), Reflector(ballA)),
        Composition(Projector(ballA), Reflector(line)),
        DouglasRachford(ballA, Ball([3.0, 0.0], 0.5)),
        ScalarPiecewiseLinear([-1.0, 0.5], [1.0, -0.3, 0.9], 0.2),
    ]


@pytest.mark.parametrize("T", _operator_zoo(), ids=lambda t: type(t).__name__)
def test_every_constructed_operator_is_nonexpansive(T):
    dim = T.dim if T.dim is not None else 2
    rep = verify_nonexpansive(T, trials=1000, seed=21, tol=1e-9, dim=dim)
    assert rep.passed, rep.witness


def test_the_orbit_loop_source_compiles_without_warnings(tmp_path):
    # the whole C library: the orbit loop, the CSV writer and the float writer;
    # also with the product's flags, as some warnings need the optimizer
    source = tmp_path / "native.c"
    source.write_text(native._SOURCE, encoding="ascii")
    warnings = ["-Wall", "-Wextra", "-Werror"]
    for flags in (["-fsyntax-only"], [*native._CFLAGS, "-c", "-o", str(tmp_path / "native.o")]):
        proc = subprocess.run(
            [*native._compiler(), *warnings, *flags, str(source)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
