import bisect
import dataclasses
import hashlib
import math
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from fejerlab.errors import (
    CertificateRequiredError,
    MonotonicityViolationError,
    NonFiniteValueError,
)
from fejerlab.geometry import (
    AffineSubspace,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    KernelSource,
    LinearSubspace,
    MinkowskiSum,
    Orthant,
    Point,
    Ray,
    sample_witnesses,
)
from fejerlab.operators import (
    AffineMap,
    Composition,
    ConvexCombination,
    DouglasRachford,
    Identity,
    Linear,
    Negation,
    OperatorExpr,
    Projector,
    Reflector,
    ScalarPiecewiseLinear,
    Translation,
    fixed_set_description,
    two_ball_gap_vector,
)
from fejerlab.dynamics import (
    CONVERGED,
    DIVERGING,
    INCONCLUSIVE,
    OSCILLATING,
    Trajectory,
    detect_limit,
    difference_orbit,
    displacement_from_orbit,
    estimate_displacement,
    iterate,
    normalized_from_raw,
    periodic_rows,
    periodic_steps,
    shadow,
)
from fejerlab.scenarios import random_scalar_piecewise_linear


def _naive_orbit(T, x0, n):
    pts = [np.asarray(x0, dtype=float)]
    for _ in range(n):
        pts.append(T.apply(pts[-1]))
    return np.stack(pts)


# ---------------------------------------------------------------------------
# orbit generation
# ---------------------------------------------------------------------------


def test_negation_orbit_alternates():
    traj = iterate(Negation(), [1.0], 4)
    assert np.array_equal(traj.points[:, 0], [1.0, -1.0, 1.0, -1.0, 1.0])


def test_projector_orbit_constant_after_first_step():
    C = Ball([0.0, 0.0], 1.0)
    traj = iterate(Projector(C), [3.0, 4.0], 5)
    assert np.allclose(traj.points[1:], traj.points[1])


def test_translation_orbit_ramp():
    traj = iterate(Translation([0.5, 0.0]), [0.0, 0.0], 3)
    assert np.allclose(traj.points[:, 0], [0.0, 0.5, 1.0, 1.5])


def _sets_on_the_line():
    """One 1-D set of every kind, both orientations where a kind has two."""
    return [
        Point([0.7]),
        Ball([0.3], 1.1),
        Halfspace([2.0], 0.9),
        Halfspace([-0.5], 0.2),
        Hyperplane([3.0], 1.0),
        AffineSubspace([0.4], np.zeros((0, 1))),
        AffineSubspace([0.4], [[1.0]]),
        LinearSubspace(np.zeros((0, 1)), ambient_dim=1),
        LinearSubspace([[1.0]]),
        Box([-0.6], [1.3]),
        Ray([0.2], [1.0]),
        Ray([0.2], [-1.0]),
        Orthant([1.0]),
        Orthant([-1.0]),
        MinkowskiSum(Point([1.0]), Ray([0.0], [1.0])),
        MinkowskiSum(Ball([-1.0], 0.5), Orthant([-1.0])),
    ]


def _projection_trees_on_the_line():
    partner = Halfspace([1.0], -0.4)
    trees = []
    for C in _sets_on_the_line():
        trees.append(ConvexCombination(0.37, Identity(), Reflector(C)))
        trees.append(DouglasRachford(C, Ball([2.5], 0.5) if C == partner else partner))
    return trees


_R = ScalarPiecewiseLinear([-1.0, 1.0], [0.5, -0.8, 0.3], anchor_value=0.7)

# a plain product a * t (+ b) keeps the sign of a zero product where numpy's
# m @ x, which adds it to +0.0, does not; the kernels add it to +0.0 too
_SIGNED_ZERO_STARTS = [
    (Linear([[-0.0]]), [1.5]),
    (Linear([[2.0]]), [-0.0]),
    (AffineMap([[0.5]], [-0.0]), [-0.0]),
]


@pytest.mark.parametrize("float_nodes_only", [True, False])
def test_iterate_matches_naive_evaluation(float_nodes_only):
    # iterate's loop and apply's step come from one kernel source per tree, so
    # the orbit is apply's orbit bit for bit, cycled rows and signed zeros included;
    # the piecewise-linear map runs alone and inside trees with projections,
    # matrices and shifts
    rng = np.random.default_rng(0)
    if float_nodes_only:
        trees = [_R, ConvexCombination(0.4, Identity(), _R), Composition(Negation(), _R)]
        starts = []
    else:
        trees = _projection_trees_on_the_line() + [
            ConvexCombination(0.4, Reflector(Halfspace([1.0], 0.3)), _R),
            Composition(_R, Projector(Ball([0.3], 1.1))),
            Translation([0.25]),
        ]
        starts = _SIGNED_ZERO_STARTS
    cases = [(T, rng.uniform(-5, 5, 1)) for T in trees for _ in range(20)]
    for T, x0 in cases + starts:
        traj = iterate(T, x0, 60)
        assert traj.points.tobytes() == _naive_orbit(T, x0, 60).tobytes(), (T, x0)


def test_early_stall_padding_is_exact():
    # projector orbits hit an exact fixed point at step 1; the rows past it
    # must agree with honest evaluation bit for bit
    C = Ball([1.0, -1.0], 0.5)
    T = Projector(C)
    x0 = np.array([4.0, 2.0])
    traj = iterate(T, x0, 50)
    assert np.array_equal(traj.points, _naive_orbit(T, x0, 50))


def test_period_two_padding_is_exact():
    traj = iterate(Negation(), [2.5], 101)
    assert np.array_equal(traj.points, _naive_orbit(Negation(), [2.5], 101))


def _cyclic_permutation(d):
    return Linear(np.roll(np.eye(d), 1, axis=1))


def _assert_repeats_as_recorded(traj):
    q, p = traj.periodic_from, traj.period
    assert 0 <= q and 1 <= p and q + p < len(traj)
    pts = traj.points
    assert pts[q + p :].tobytes() == pts[q : len(pts) - p].tobytes()


@pytest.mark.parametrize("d", [3, 4])
def test_cycle_of_any_period_pads_exactly(d):
    # a cyclic permutation of the coordinates repeats with period d: the
    # kernel stops there, and the rows past it are apply's orbit bit for bit
    T = _cyclic_permutation(d)
    random_start = np.random.default_rng(d).uniform(-5, 5, d)
    signed_start = [-0.0] + [float(k) for k in range(1, d)]
    for x0 in (random_start, signed_start):
        traj = iterate(T, x0, 100_000)
        assert traj.points.tobytes() == _naive_orbit(T, x0, 100_000).tobytes()
        assert traj.period == d
        _assert_repeats_as_recorded(traj)
    # the -0.0 start comes back as +0.0, so the cycle starts at step 1
    assert math.copysign(1.0, traj.points[d, 0]) == 1.0
    assert traj.periodic_from >= 1


@pytest.mark.parametrize("seed, alpha, period", [(94, 0.8, 4), (98, 0.3, 3)])
def test_averaged_scalar_orbit_ends_in_an_exact_cycle(seed, alpha, period):
    # in floating point the orbit of an averaged map settles into a cycle
    # of a few points near its fixed point, not onto the point itself
    rng = np.random.default_rng(seed)
    T = ConvexCombination(alpha, Identity(), random_scalar_piecewise_linear(rng))
    x0 = [float(rng.uniform(-10, 10))]
    traj = iterate(T, x0, 100_000)
    assert traj.period == period
    _assert_repeats_as_recorded(traj)
    assert traj.points.tobytes() == _naive_orbit(T, x0, 100_000).tobytes()


def test_drifting_orbit_records_no_cycle():
    T = DouglasRachford(Ball([0.0, 0.0, 0.0], 1.0), Ball([5.0, 0.0, 0.0], 1.0))
    traj = iterate(T, [0.0, 3.0, 3.0], 20_000)
    assert traj.periodic_from is None and traj.period is None
    assert periodic_rows(traj) == len(traj)


def test_fixed_points_and_two_cycles_are_recorded():
    fixed = iterate(Projector(Ball([1.0, -1.0], 0.5)), [4.0, 2.0], 50)
    assert fixed.period == 1 and fixed.periodic_from >= 1
    _assert_repeats_as_recorded(fixed)
    flip = iterate(Negation(), [2.5], 101)
    assert flip.period == 2
    _assert_repeats_as_recorded(flip)


def test_a_cycle_is_recorded_only_where_it_was_proved():
    # a permutation of R^5 with cycles of length 3 and 2: the orbit of x
    # repeats with period 3, that of y with period 2, their difference with 6
    P = np.zeros((5, 5))
    P[:3, :3] = np.roll(np.eye(3), 1, axis=1)
    P[3:, 3:] = np.roll(np.eye(2), 1, axis=1)
    T = Linear(P)
    three = iterate(T, [1.0, 2.0, 3.0, 7.0, 7.0], 60)
    two = iterate(T, [4.0, 4.0, 4.0, 1.0, 2.0], 60)
    assert three.period == 3 and two.period == 2
    # the same points, a slice of them, or a shifted orbit: nothing proved it
    for traj in (
        Trajectory(three.points),
        Trajectory(three.points[1:]),
        Trajectory(three.points[::2]),
        normalized_from_raw(three, np.zeros(5)),
    ):
        assert traj.periodic_from is None and traj.period is None
    # a shadow repeats where its base does; a difference from the later
    # start with the lcm of the periods.  Each equals, bit for bit, the same
    # builder on the whole arrays, and holds only its leading rows
    ball = Ball(np.zeros(5), 1.0)
    q3, q2 = three.periodic_from, two.periodic_from
    plain3, plain2 = Trajectory(three.points), Trajectory(two.points)
    for derived, cycle, whole in (
        (shadow(three, ball), (q3, 3), shadow(plain3, ball)),
        (shadow(two, ball), (q2, 2), shadow(plain2, ball)),
        (difference_orbit(three, two), (max(q3, q2), 6), difference_orbit(plain3, plain2)),
        (difference_orbit(two, two), (q2, 2), difference_orbit(plain2, plain2)),
    ):
        assert (derived.periodic_from, derived.period) == cycle
        assert _held_rows(derived) == (sum(cycle) + 1, False)
        assert len(derived) == len(whole) and derived.dim == whole.dim
        assert derived.tail(7).tobytes() == whole.tail(7).tobytes()
        assert derived.points.tobytes() == whole.points.tobytes()
        with pytest.raises(AttributeError):
            derived.period = 1
        with pytest.raises(AttributeError):
            derived.periodic_from = 0
    # one orbit without a recorded cycle: the difference records none either
    assert difference_orbit(three, plain2).period is None
    with pytest.raises(AttributeError):
        three.period = 1
    with pytest.raises(AttributeError):
        three.periodic_from = 0


def test_a_difference_of_two_long_cycles_allocates_only_its_rows():
    a, b = iterate(Negation(), [1.0], 10**6), iterate(Negation(), [0.25], 10**6)
    tracemalloc.start()
    try:
        diff = difference_orbit(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole (10**6 + 1, 1) array alone takes 8 MB
    assert peak < 2**20, peak
    assert (diff.periodic_from, diff.period) == (1, 2)
    assert diff.tail(3)[:, 0].tolist() == [0.75, -0.75, 0.75]


def test_periodic_rows_cover_one_joint_period():
    three = iterate(_cyclic_permutation(3), [1.0, 2.0, 3.0], 100)
    two = iterate(Negation(), [1.0, 2.0, 3.0], 100)
    q3, q2 = three.periodic_from, two.periodic_from
    assert periodic_rows(three) == q3 + 3 + 1
    assert periodic_rows(two) == q2 + 2 + 1
    assert periodic_rows(three, two) == max(q3, q2) + 6 + 1
    assert periodic_rows(three, Trajectory(two.points)) == 101
    # never more rows than the orbits have
    short = iterate(_cyclic_permutation(4), [1.0, 2.0, 3.0, 4.0], 8)
    assert short.period == 4
    assert periodic_rows(short, iterate(_cyclic_permutation(3), [1.0, 2.0, 3.0], 8)) == 9


@pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 1000])
def test_periodic_steps_extend_the_head_values_to_every_step(n):
    # a per-step value of rows k and k + 1, read on the head, then extended
    three = iterate(_cyclic_permutation(3), [1.0, 2.0, 3.0], n)
    two = iterate(Negation(), [1.0, 2.0, 3.0], n)
    for orbits in ((three,), (two,), (three, two), (three, Trajectory(two.points))):
        head = periodic_rows(*orbits)
        per_row = sum(o.rows(0, head)[:, 0] for o in orbits)
        steps = periodic_steps(per_row[1:] - per_row[:-1], *orbits)
        whole = sum(o.points[:, 0] for o in orbits)
        assert steps.tobytes() == (whole[1:] - whole[:-1]).tobytes(), orbits
    full = np.arange(float(n))
    assert periodic_steps(full, three) is full  # values of every step already


# ---------------------------------------------------------------------------
# rows of an orbit that ends in a cycle
# ---------------------------------------------------------------------------


def _held_rows(traj):
    """Rows the trajectory holds, and whether it has built its whole array."""
    return traj._rows.shape[0], traj._points is not None


# periods 1, 2, 3 and 19, two of them from a -0.0 start
_CYCLED = {
    "period-1": (Projector(Ball([1.0, -1.0], 0.5)), [4.0, 2.0], 1),
    "period-2-signed-zero": (Negation(), [-0.0], 2),
    "period-3-signed-zero": (_cyclic_permutation(3), [-0.0, 1.0, 2.0], 3),
    "period-19": (_cyclic_permutation(19), np.arange(19.0) - 3.0, 19),
}


@pytest.mark.parametrize("case", list(_CYCLED))
def test_cycled_orbit_reads_every_row_from_its_computed_rows(case):
    T, x0, period = _CYCLED[case]
    n = 300
    traj, ref = iterate(T, x0, n), _naive_orbit(T, x0, n)
    q, p = traj.periodic_from, traj.period
    assert p == period and q + p < n
    assert _held_rows(traj) == (q + p + 1, False)
    assert len(traj) == n + 1 and traj.dim == ref.shape[1]
    for count in (1, 2, p, p + 1, q + p + 1, n + 1 - q, n + 1):
        tail = traj.tail(count)
        assert tail.shape == (count, traj.dim)
        assert tail.tobytes() == ref[-count:].tobytes(), count
        assert not tail.flags.writeable
    # ranges that start before q, at q and in the cycle; straddle q + p; end
    # inside the computed rows, just past them, and at n + 1
    starts = {0, max(q - 1, 0), q, q + 1, q + p - 1, q + p, q + p + 1, n, n + 1}
    stops = {q, q + p, q + p + 1, q + p + 2, 2 * (q + p) + 1, n, n + 1}
    for start in starts:
        for stop in stops | {start, start + 1}:
            if stop > n + 1 or stop < start:
                continue
            rows = traj.rows(start, stop)
            assert rows.shape == (stop - start, traj.dim)
            assert rows.tobytes() == ref[start:stop].tobytes(), (start, stop)
            assert not rows.flags.writeable
    assert _held_rows(traj) == (q + p + 1, False)  # no reader built the array
    assert traj.points.tobytes() == ref.tobytes()
    assert not traj.points.flags.writeable
    assert traj.points is traj.points  # built once, then kept


def test_a_long_cycled_orbit_keeps_only_its_computed_rows():
    # the kernel proves the 2-cycle at row 3 (q = 1, p = 2): four rows stand
    # for all 10**7 + 1, where a padded orbit held 80 MB
    traj = iterate(Negation(), [1.0], 10**7)
    assert (traj.periodic_from, traj.period) == (1, 2)
    assert len(traj) == 10**7 + 1 and traj.dim == 1
    assert traj.tail(3)[:, 0].tolist() == [1.0, -1.0, 1.0]
    assert traj.rows(10**7 - 1, 10**7 + 1)[:, 0].tolist() == [-1.0, 1.0]
    assert _held_rows(traj) == (4, False)


@pytest.mark.parametrize("cycled", [True, False], ids=["cycled", "plain"])
def test_tail_and_rows_reject_ranges_outside_the_trajectory(cycled):
    traj = iterate(Negation(), [1.0], 9)
    if not cycled:
        traj = Trajectory(traj.points)
    assert (traj.period is not None) == cycled
    for count in (0, -1, 11):  # tail(0) would read points[-0:], every row
        with pytest.raises(ValueError, match="tail"):
            traj.tail(count)
    for start, stop in ((-1, 2), (3, 2), (0, 11), (11, 11)):
        with pytest.raises(ValueError, match="rows"):
            traj.rows(start, stop)
    assert traj.tail(10).tobytes() == traj.points.tobytes()
    assert traj.rows(10, 10).shape == (0, 1)


def test_norm_cap_raises():
    with pytest.raises(NonFiniteValueError):
        iterate(Linear(3.0 * np.eye(2)), [1.0, 1.0], 200)
    with pytest.raises(NonFiniteValueError):
        iterate(Linear(np.array([[3.0]])), [1.0], 200)


def test_norm_cap_names_the_step_that_left_the_range():
    # 3**25 is below the cap of 1e12, 3**26 above it
    with pytest.raises(NonFiniteValueError, match="at step 26$"):
        iterate(Linear([[3.0]]), [1.0], 40)


# (periodic_from, period, sha256 of the rows) of each orbit, pinned from the
# Python orbit loop; starts of -0.0 make the sign check of a repeat matter
_PINNED_CYCLES = {
    "identity": (Identity(), [-0.0, 0.0], 50, (0, 1, "1d2f98f557ef54cd")),
    "projector": (Projector(Ball([1.0, -1.0], 0.5)), [-0.0, 4.0], 50, (3, 1, "eb676f419cc861a1")),
    "negation": (Negation(), [0.0, -0.0], 51, (1, 2, "b13765539c522ec0")),
    "permutation-3": (
        Linear(np.roll(np.eye(3), 1, axis=1)), [-0.0, 1.0, -2.0], 60, (3, 3, "63ca5b1b7f8a534d"),
    ),
    "permutation-19": (
        Linear(np.roll(np.eye(19), 1, axis=1)),
        [-0.0 if k % 2 else float(k) for k in range(19)],
        200,
        (31, 19, "13db652425dfc7bd"),
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_CYCLES))
def test_exact_cycles_keep_their_pinned_rows(name):
    T, x0, n, expected = _PINNED_CYCLES[name]
    traj = iterate(T, x0, n)
    digest = hashlib.sha256(traj.points.tobytes()).hexdigest()[:16]
    assert (traj.periodic_from, traj.period, digest) == expected
    assert traj.points.tobytes() == _naive_orbit(T, x0, n).tobytes()


def test_piecewise_linear_orbit_crosses_every_breakpoint():
    T = ScalarPiecewiseLinear(
        [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
        [-0.9, -0.95, -0.85, -0.9, -0.8, -0.9, -0.95, -0.9],
        anchor_value=2.7,
    )
    xs = T.breakpoints.tolist()
    for x0 in ([-5.0], [3.0]):  # the second start is a breakpoint itself
        traj = iterate(T, x0, 400)
        assert traj.points.tobytes() == _naive_orbit(T, x0, 400).tobytes()
    pieces = {bisect.bisect_right(xs, t) for t in iterate(T, [-5.0], 400).points[:, 0]}
    assert pieces == set(range(len(xs) + 1))
    digest = hashlib.sha256(iterate(T, [-5.0], 400).points.tobytes()).hexdigest()[:16]
    assert digest == "0320e6bd736da033"


def _divisions_and_roots(node, d):
    """The emitted lines of ``node`` at dimension d that divide or take a
    square root, with every name reduced to its kind (t, p or x)."""
    src = KernelSource()
    node._emit(src, [f"x{i}" for i in range(d)])
    return sorted(
        re.sub(r"\b([txp])\d+\b", r"\1", line.strip())
        for line in src.lines
        if " / " in line or "sqrt(" in line
    )


def test_every_emitted_division_and_root_is_listed():
    cone = Orthant([1.0, -1.0])
    sets = [
        Point([0.5, 1.0]),
        Ball([0.5, 1.0], 2.0),
        Halfspace([1.0, 2.0], 0.5),
        Hyperplane([1.0, 2.0], 0.5),
        AffineSubspace([0.5, 1.0], [[0.6, 0.8]]),
        LinearSubspace([[0.6, 0.8]]),
        Box([0.0, 0.0], [1.0, 2.0]),
        Ray([0.5, 1.0], [1.0, 0.0]),
        cone,
        MinkowskiSum(Point([0.5, 1.0]), cone),
        MinkowskiSum(Ball([0.5, 1.0], 2.0), cone),
    ]
    found = {
        f"{type(C).__name__}({type(getattr(C, 'summand', C)).__name__})": _divisions_and_roots(C, 2)
        for C in sets
    }
    assert {k: v for k, v in found.items() if v} == {
        "Ball(Ball)": ["t = p / sqrt(t)"],
        "Halfspace(Halfspace)": ["t = t / p"],
        "Hyperplane(Hyperplane)": ["t = t / p"],
        "MinkowskiSum(Ball)": ["t = p / t", "t = sqrt(t)"],
    }
    # operator nodes add none of their own
    line = Hyperplane([1.0, 2.0], 0.5)
    A = Projector(Point([0.5, 1.0]))
    for T in (
        Identity(), Negation(), Translation([1.0, 2.0]), Linear(np.eye(2)),
        AffineMap(np.eye(2), [1.0, 2.0]), ConvexCombination(0.3, A, Negation()),
        Composition(A, Negation()), DouglasRachford(Point([0.5, 1.0]), Point([1.0, 0.0])),
        Reflector(Point([0.5, 1.0])),
    ):
        assert _divisions_and_roots(T, 2) == [], T
    assert _divisions_and_roots(ScalarPiecewiseLinear([0.0], [0.5, -0.5]), 1) == []
    assert _divisions_and_roots(Projector(line), 2) == ["t = t / p"]


LEAST_NORMAL = 1.4916681462400413e-154  # the least x with x * x >= finfo(float).tiny


@pytest.mark.parametrize(
    "T, starts",
    [
        # a Ball divides by sqrt(n2) only when n2 > r2 >= 0; here r * r is 0.0
        (Projector(Ball([0.0], 1e-200)), [[0.0], [5e-324], [-1e-160], [1e-150]]),
        (Reflector(Ball([1.0, -1.0], 1e-200)), [[1.0, -1.0], [1.0 + 2e-16, -1.0]]),
        # the least normal a Halfspace or Hyperplane accepts has normal² the
        # least normal float
        (Projector(Halfspace([LEAST_NORMAL], 0.0)), [[-1.0], [1e-300], [1.0]]),
        (Projector(Hyperplane([LEAST_NORMAL, 0.0], 0.0)), [[1e-300, 4.0]]),
        # a ball-summand MinkowskiSum divides by dist only when dist > r > 0
        (
            Projector(MinkowskiSum(Ball([0.0, 0.0], 1e-300), Orthant([1.0, 1.0]))),
            [[-0.0, -0.0], [-5e-324, 1.0], [-1e-150, -1e-150], [3.0, -2.0]],
        ),
    ],
    ids=["ball", "ball-reflection", "halfspace", "hyperplane", "minkowski-ball"],
)
def test_emitted_divisions_and_roots_stay_defined(T, starts):
    # every square root is of a sum of squares, and every divisor is
    # positive where its arm runs: at the edge cases neither evaluator raises
    for x0 in starts:
        traj = iterate(T, x0, 20)
        assert traj.points.tobytes() == _naive_orbit(T, x0, 20).tobytes(), x0
    with pytest.raises(ValueError, match="normal must be nonzero"):
        Halfspace([1e-162], 0.0)  # its normal² rounds to 0.0
    with pytest.raises(ValueError, match="normal must be nonzero"):
        Halfspace([np.nextafter(LEAST_NORMAL, 0.0)], 0.0)  # its normal² is subnormal


@dataclass(frozen=True, eq=False)
class _Formula(OperatorExpr):
    """A map of the line given by one line of float source over ``{0}``."""

    text: str

    def __post_init__(self):
        self._install(1)

    def _emit(self, src, x):
        return [src.let(self.text.format(*x))]


@pytest.mark.parametrize(
    "text, x0, step",
    [
        ("1.0 / ({0} - 1.0)", 2.0, 2),
        ("1.0 / ({0} - 1.0)", 1.0, 1),
        ("sqrt({0}) - 1.5", 16.0, 4),
        ("where({0} > 0.5, {0} - 1.0, 1.0 / {0})", 2.5, 6),
    ],
)
def test_iterate_stops_where_apply_gives_inf_or_nan(text, x0, step):
    # both evaluators divide and take roots as IEEE doubles: apply gives inf
    # or NaN at the step, and iterate stops there as past its norm cap
    T = _Formula(text)
    orbit = _naive_orbit(T, [x0], step)
    assert np.all(np.isfinite(orbit[:-1])) and not np.isfinite(orbit[-1, 0])
    with pytest.raises(NonFiniteValueError, match=f"at step {step}$"):
        iterate(T, [x0], step + 5)
    if step > 1:
        assert iterate(T, [x0], step - 1).points.tobytes() == orbit[:-1].tobytes()


@pytest.mark.parametrize(
    "text", ["1.0 / {0}", "1.0 / {0} - 1.0 / {0} + 1.0 / {0}"], ids=["inf", "nan"]
)
def test_a_discarded_arm_that_is_not_finite_leaves_the_orbit_alone(text):
    # at 0.0 the arm not taken is inf or NaN; where picks the other one
    T = _Formula(f"where({{0}} > 0.0, {text}, {{0}} + 2.0)")
    traj = iterate(T, [-2.0], 30)
    assert traj.points[:5, 0].tolist() == [-2.0, 0.0, 2.0, 0.5, 2.0]
    assert traj.points.tobytes() == _naive_orbit(T, [-2.0], 30).tobytes()


def test_nested_where_over_every_comparison_follows_apply():
    T = _Formula(
        "where({0} < -1.0, -{0} * 0.75, where({0} <= 1.0, {0} * 0.5, "
        "where({0} >= 3.0, {0} - 2.0, where({0} > 2.0, 0.25 * {0}, -0.0))))"
    )
    for x0 in (-7.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 9.0):
        traj = iterate(T, [x0], 40)
        assert traj.points.tobytes() == _naive_orbit(T, [x0], 40).tobytes(), x0


@dataclass(frozen=True, eq=False)
class _Lookup(OperatorExpr):
    """t -> items[k] with k = 1 left of 0.0 and k = 3 right of it."""

    def __post_init__(self):
        self._install(1)

    def _emit(self, src, x):
        items = src.param(np.array([0.5, 1.5, 2.5]))
        return [src.let(f"{items}[{src.select(f'{x[0]} < 0.0', '1', '3')}]")]


def test_an_index_out_of_range_raises_in_both_evaluators():
    # the orbit loop checks its list bounds, so it never reads past a list
    T = _Lookup()
    assert T.apply([-1.0]).tolist() == [1.5]
    with pytest.raises(IndexError):
        T.apply([1.0])
    with pytest.raises(IndexError, match="at step 1$"):
        iterate(T, [1.0], 3)


def test_trajectory_points_read_only():
    traj = iterate(Negation(), [1.0], 3)
    with pytest.raises(ValueError):
        traj.points[0, 0] = 7.0


@pytest.mark.parametrize(
    "n_steps", [2.5, 3.0, True, False, np.True_, "3", None],
    ids=["2.5", "3.0", "True", "False", "np.True_", "str", "None"],
)
def test_iterate_rejects_a_non_integer_step_count(n_steps):
    with pytest.raises(ValueError, match="n_steps"):
        iterate(Negation(), [1.0], n_steps)


@pytest.mark.parametrize("n_steps", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_iterate_accepts_python_and_numpy_integers(n_steps):
    orbit = iterate(Negation(), [1.0], n_steps).points[:, 0]
    assert orbit.tolist() == [1.0, -1.0, 1.0, -1.0]


@pytest.mark.parametrize("n_steps", [0, -1, np.int64(0)])
def test_iterate_needs_at_least_one_step(n_steps):
    with pytest.raises(ValueError, match="n_steps"):
        iterate(Negation(), [1.0], n_steps)


def test_trajectory_rejects_zero_dimensional_points():
    with pytest.raises(ValueError, match="vectors must have positive dimension"):
        Trajectory(np.zeros((3, 0)))


def test_trajectory_copies_what_callers_pass():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    traj = Trajectory(a)
    a[0, 0] = 7.0
    assert traj.points[0, 0] == 1.0
    with pytest.raises(ValueError):
        traj.points[0, 0] = 7.0


def test_orbit_builders_hand_over_fresh_arrays(monkeypatch):
    # the builders make their arrays themselves, so they skip the public
    # constructor's copy; the points are read-only all the same
    def copying_constructor_called(self, points):
        raise AssertionError("copied a fresh array")

    monkeypatch.setattr(Trajectory, "__init__", copying_constructor_called)
    raw = iterate(Translation([0.5, -1.0]), [1.0, 2.0], 6)
    other = iterate(Translation([0.5, -1.0]), [0.0, 2.0], 6)
    built = [
        raw,
        normalized_from_raw(raw, [-0.5, 1.0]),
        shadow(raw, Ball([0.0, 0.0], 1.0)),
        difference_orbit(raw, other),
    ]
    for traj in built:
        assert not traj.points.flags.writeable
        with pytest.raises(ValueError):
            traj.points[0, 0] = 7.0
    assert np.all(built[1].points == [1.0, 2.0])
    assert np.all(built[3].points == [1.0, 0.0])


# ---------------------------------------------------------------------------
# normalized and difference orbits
# ---------------------------------------------------------------------------


def test_normalized_orbit_zero_shift_equals_raw():
    T = Negation()
    raw = iterate(T, [1.0], 10)
    norm = normalized_from_raw(raw, [0.0])
    assert np.array_equal(raw.points, norm.points)


def test_normalized_orbit_cancels_translation_drift():
    T = Translation([0.25, -0.5])
    norm = normalized_from_raw(iterate(T, [2.0, 3.0], 20), [-0.25, 0.5])
    assert np.allclose(norm.points, norm.points[0], atol=1e-12)


def test_normalized_orbit_constant_on_generalized_fixed_points():
    A = Ball([0.0, 0.0, 0.0], 1.0)
    B = Ball([5.0, 0.0, 0.0], 1.0)
    T = DouglasRachford(A, B)
    v = two_ball_gap_vector(A, B)
    F = fixed_set_description(T, v)
    for y in sample_witnesses(F, 5, seed=3, radius=4.0):
        norm = normalized_from_raw(iterate(T, y, 200), v)
        drift = np.linalg.norm(norm.points - norm.points[0], axis=1).max()
        assert drift <= 1e-8


def test_difference_orbit_equal_starts_zero():
    T = Negation()
    diff = difference_orbit(iterate(T, [3.0], 10), iterate(T, [3.0], 10))
    assert np.all(diff.points == 0.0)


def test_difference_orbit_negation_alternates():
    diff = difference_orbit(iterate(Negation(), [1.0], 5), iterate(Negation(), [0.0], 5))
    assert np.array_equal(diff.points[:, 0], [1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def test_difference_orbit_affine_is_matrix_power():
    rng = np.random.default_rng(4)
    theta = 1.1
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    L = 0.6 * np.eye(2) + 0.4 * Q
    from fejerlab.operators import AffineMap

    T = AffineMap(L, rng.uniform(-1, 1, 2))
    x0, y0 = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
    diff = difference_orbit(iterate(T, x0, 60), iterate(T, y0, 60))
    expected = x0 - y0
    for n in range(61):
        assert np.linalg.norm(diff.points[n] - expected) <= 1e-10
        expected = L @ expected


def test_difference_orbit_monotonicity_guard():
    with pytest.raises(MonotonicityViolationError):
        T = Linear(2.0 * np.eye(2))
        difference_orbit(iterate(T, [1.0, 0.0], 10), iterate(T, [0.0, 0.0], 10))


def test_difference_orbit_needs_matching_orbits():
    T = Negation()
    with pytest.raises(ValueError):
        difference_orbit(iterate(T, [1.0], 5), iterate(T, [0.0], 6))


def test_shadow_examples():
    C = Hyperplane([1.0, 0.0], 0.0)
    pts = np.array([[(-1.0) ** n, 0.0] for n in range(6)])
    traj = Trajectory(pts)
    sh = shadow(traj, C)
    assert np.array_equal(sh.points, np.zeros((6, 2)))
    inside = Trajectory(np.array([[0.0, 1.0], [0.0, 2.0]]))
    sh2 = shadow(inside, C)
    assert np.array_equal(sh2.points, inside.points)


# ---------------------------------------------------------------------------
# displacement estimation
# ---------------------------------------------------------------------------


def test_estimate_displacement_of_disguised_translation():
    # (1-a) Id + a (Id + 2b) moves every point by exactly b
    b = np.array([0.3, -0.1])
    T = ConvexCombination(0.5, Identity(), Translation(2.0 * b))
    est = estimate_displacement(T, iterate(T, [1.0, 1.0], 500), tail=50)
    assert est.certified
    assert est.method == "step_difference_tail"
    assert np.allclose(est.v, -b, atol=1e-12)
    assert est.residual <= 1e-12


def test_estimate_displacement_vanishes_with_fixed_points():
    C = Ball([1.0, 2.0], 1.0)
    T = ConvexCombination(0.5, Identity(), Reflector(C))
    est = estimate_displacement(T, iterate(T, [5.0, 5.0], 2000), tail=100)
    assert np.linalg.norm(est.v) <= 1e-10


def test_estimate_displacement_requires_certificate():
    T = Translation([1.0])  # certified nonexpansive only
    orbit = iterate(T, [0.0], 100)
    with pytest.raises(CertificateRequiredError):
        estimate_displacement(T, orbit, tail=10)
    est = estimate_displacement(T, orbit, tail=10, allow_uncertified=True)
    assert not est.certified
    assert np.allclose(est.v, [-1.0])


def test_two_ball_displacement_matches_step_difference_estimate():
    A = Ball([0.0, 0.0, 0.0], 1.0)
    B = Ball([5.0, 0.0, 0.0], 1.0)
    T = DouglasRachford(A, B)
    closed = two_ball_gap_vector(A, B)
    assert np.allclose(closed, [-3.0, 0.0, 0.0])
    est = estimate_displacement(T, iterate(T, [0.0, 3.0, 3.0], 30000), tail=500)
    assert np.linalg.norm(est.v - closed) <= 1e-6


def test_displacement_from_orbit_validates_tail():
    traj = iterate(Negation(), [1.0], 10)
    with pytest.raises(ValueError):
        displacement_from_orbit(traj, 11)


@pytest.mark.parametrize("tail", [1, 37, 2000])
def test_displacement_from_orbit_differences_only_the_tail(tail):
    T = DouglasRachford(Ball([0.0, 0.0, 0.0], 1.0), Ball([5.0, 1.0, -2.0], 1.5))
    orbit = iterate(T, [0.3, 3.0, 3.0], 2000)
    seg = (orbit.points[:-1] - orbit.points[1:])[-tail:]
    v = seg.mean(axis=0)
    v_tail, residual = displacement_from_orbit(orbit, tail)
    assert v_tail.tobytes() == v.tobytes()
    assert residual == float(np.linalg.norm(seg - v, axis=1).max())


# ---------------------------------------------------------------------------
# limit detection
# ---------------------------------------------------------------------------


def test_detect_limit_oscillating_two_clusters():
    traj = iterate(Negation(), [1.0], 200)
    est = detect_limit(traj, tail_window=100, tol=1e-9)
    assert est.status == OSCILLATING
    assert est.cluster_points.shape[0] == 2
    assert np.isclose(est.cluster_gap, 2.0)


def test_detect_limit_on_a_long_two_cycle_allocates_no_dense_matrix():
    # a dense n x n distance matrix of this tail alone takes 128 MB
    traj = iterate(Negation(), [0.75], 4000)
    tracemalloc.start()
    try:
        est = detect_limit(traj, 4000, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.status == OSCILLATING
    assert est.cluster_gap == 1.5
    assert peak < 4 * 2**20


def test_detect_limit_diverging_translation():
    traj = iterate(Translation([0.75]), [0.0], 2000)
    est = detect_limit(traj, tail_window=500, tol=1e-9)
    assert est.status == DIVERGING
    assert abs(est.growth_rate - 0.75) <= 1e-12


def test_detect_limit_converged_with_fixed_point_residual():
    C = Hyperplane([1.0, 1.0], 1.0)
    T = ConvexCombination(0.3, Identity(), Reflector(C))
    traj = iterate(T, [4.0, -2.0], 3000)
    est = detect_limit(traj, tail_window=500, tol=1e-9)
    assert est.status == CONVERGED
    assert np.linalg.norm(T.apply(est.limit) - est.limit) <= 1e-6


def test_detect_limit_inconclusive_slow_drift():
    # strictly decreasing but far from settled at this tolerance
    pts = np.array([[10.0 / (n + 1)] for n in range(50)])
    est = detect_limit(Trajectory(pts), tail_window=20, tol=1e-9)
    assert est.status == INCONCLUSIVE
    assert est.reason


def test_detect_limit_constant():
    pts = np.zeros((50, 2))
    est = detect_limit(Trajectory(pts), tail_window=10, tol=1e-12)
    assert est.status == CONVERGED
    assert est.residual == 0.0


def test_detect_limit_validates_window():
    traj = iterate(Negation(), [1.0], 5)
    with pytest.raises(ValueError):
        detect_limit(traj, tail_window=1)
    with pytest.raises(ValueError):
        detect_limit(traj, tail_window=100)


def _pool_tail(case: str, d: int, scale: float, n: int = 300) -> np.ndarray:
    """An (n, d) tail drawn from a few rows, as padded orbits give."""
    rng = np.random.default_rng(d)
    pool = scale * rng.standard_normal((3, d))
    if case == "constant":
        return np.repeat(pool[:1], n, axis=0)
    if case == "two-cycle":
        return pool[np.arange(n) % 2]
    if case == "three-cycle":
        return pool[np.arange(n) % 3]
    if case == "three-row-draws":
        return pool[rng.integers(0, 3, n)]
    if case == "stops-inside":
        # distinct rows shrinking onto a point, then the exact 2-cycle padding
        k = n // 3
        head = pool[2] + scale * 0.5 ** np.arange(k)[:, None] * rng.standard_normal((k, d))
        return np.concatenate([head, pool[np.arange(n - k) % 2]])
    if case == "signed-zeros":
        pool = np.zeros((3, d))
        pool[1:] = -0.0
        pool[2, -1] = scale
        return pool[rng.integers(0, 3, n)]
    raise ValueError(case)


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1.0, 1e6])
@pytest.mark.parametrize(
    "case",
    ["constant", "two-cycle", "three-cycle", "three-row-draws", "stops-inside", "signed-zeros"],
)
def test_detect_limit_diameter_is_the_full_tail_pdist(case, scale):
    for d in (1, 2, 3, 4):
        tail = _pool_tail(case, d, scale)
        traj = Trajectory(np.concatenate([np.full((5, d), 7.0), tail]))
        full = float(pdist(tail).max())
        # at tol == full the verdict flips on the last bit of the diameter
        for tol in (1e-9, full, float(np.nextafter(full, 0.0))):
            est = detect_limit(traj, tail_window=len(tail), tol=tol)
            if full <= tol:
                assert est.status == CONVERGED
                assert est.residual.hex() == full.hex()
                assert est.limit.tobytes() == tail.mean(axis=0).tobytes()
            else:
                assert est.status != CONVERGED
                if est.status == INCONCLUSIVE:
                    assert est.residual.hex() == full.hex()


def test_detect_limit_rejects_non_finite_tail():
    finite = np.ones((20, 2))
    for step, value in [(10, np.inf), (19, -np.inf), (15, np.nan)]:
        pts = finite.copy()
        pts[step, 1] = value
        with pytest.raises(NonFiniteValueError, match=f"point {step} in the tail"):
            detect_limit(Trajectory(pts), tail_window=10)
    with pytest.raises(NonFiniteValueError, match="point 10 in the tail"):
        detect_limit(Trajectory(np.full((20, 2), np.inf)), tail_window=10)
    # a point before the tail is not examined
    pts = finite.copy()
    pts[0] = np.inf
    assert detect_limit(Trajectory(pts), tail_window=10).status == CONVERGED


def test_detect_limit_measures_distances_over_fresh_rows_only(monkeypatch):
    seen = []

    def recording_pdist(rows):
        seen.append(rows.shape)
        return pdist(rows)

    # detect_limit imports pdist from scipy when called
    monkeypatch.setattr("scipy.spatial.distance.pdist", recording_pdist)
    # a projection orbit reaches its fixed point in one step, then is padded
    stopped = iterate(Projector(Ball([0.0, 0.0], 1.0)), [3.0, 4.0], 2000)
    est = detect_limit(stopped, tail_window=500)
    assert est.status == CONVERGED and est.residual == 0.0
    est = detect_limit(stopped, tail_window=len(stopped))
    assert est.status == INCONCLUSIVE and est.residual == pdist(stopped.points[:2])[0]
    cycle = iterate(Negation(), [1.0], 2000)
    assert detect_limit(cycle, tail_window=1000).status == OSCILLATING
    assert seen and all(rows <= 3 for rows, _ in seen)


@pytest.mark.parametrize("period", [3, 5])
def test_detect_limit_measures_a_cycled_tail_over_one_period(monkeypatch, period):
    # no row of a 3- or 5-cycle repeats the row one or two steps before it,
    # so only the recorded cycle keeps the distances to one period's rows
    x0 = [-0.0] + [float(k) for k in range(1, period)]
    traj = iterate(_cyclic_permutation(period), x0, 3000)
    assert traj.period == period
    plain = Trajectory(iterate(_cyclic_permutation(period), x0, 3000).points)
    seen = []

    def recording_pdist(rows):
        seen.append(rows.shape[0])
        return pdist(rows)

    monkeypatch.setattr("scipy.spatial.distance.pdist", recording_pdist)
    for tol in (1e-9, 1e3):  # oscillating, then converged onto the tail mean
        proven = detect_limit(traj, 1000, tol)
        assert seen[0] == period  # the diameter's rows
        seen.clear()
        whole = detect_limit(plain, 1000, tol)
        assert seen[0] == 1000
        seen.clear()
        for f in dataclasses.fields(proven):
            a, b = getattr(proven, f.name), getattr(whole, f.name)
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert a == b and type(a) is type(b), f.name
        assert proven.status == (OSCILLATING if tol < 1.0 else CONVERGED)
    assert traj._points is None


def test_normalized_orbit_with_drift_satisfies_codim1_guarantee():
    # averaged map with nonzero drift along a line: the drift-compensated
    # orbit is Fejer monotone w.r.t. the line (codimension 1), asymptotically
    # regular, and therefore must converge
    from fejerlab.analysis import check_codim1_theorem
    from fejerlab.operators import Composition

    line = Hyperplane([1.0, 0.0], 2.0)  # {x1 = 2}
    b = np.array([0.0, 0.6])  # drift parallel to the line
    T = ConvexCombination(
        0.5, Identity(), Composition(Translation(2.0 * b), Reflector(line))
    )
    v = -b
    raw = iterate(T, [5.0, 1.0], 4000)
    est = estimate_displacement(T, raw, tail=200)
    assert np.allclose(est.v, v, atol=1e-9)
    norm = normalized_from_raw(raw, v)
    rep = check_codim1_theorem(line, norm)
    assert rep.passed
    assert np.isclose(rep.metadata["limit"][0], 2.0, atol=1e-8)


def test_normalized_two_ball_orbit_fejer_at_1e10():
    # monotonicity toward the fixed ray holds to 1e-10 even over long runs
    from fejerlab.analysis import check_fejer

    A = Ball([0.0, 0.0, 0.0], 1.0)
    B = Ball([5.0, 0.0, 0.0], 1.0)
    T = DouglasRachford(A, B)
    v = two_ball_gap_vector(A, B)
    norm = normalized_from_raw(iterate(T, [0.0, 3.0, 3.0], 50_000), v)
    ray = fixed_set_description(T, v)
    rep = check_fejer(norm, ray, witnesses=10, seed=1, tol=1e-10)
    assert rep.passed
