import json
import math

import numpy as np
import pytest

from fejerlab import native
from fejerlab.analysis import (
    check_asymptotic_regularity,
    check_cluster_orthogonality,
    check_codim1_theorem,
    check_connectivity,
    check_fejer,
    check_shadow_superset,
    check_sum_decoupling,
    estimate_cluster_set,
)
from fejerlab.dynamics import Trajectory, iterate
from fejerlab.errors import NonFiniteValueError
from fejerlab.exports import report_to_dict
from fejerlab.geometry import (
    Ball,
    ConvexSet,
    Halfspace,
    Hyperplane,
    LinearSubspace,
    Orthant,
    Point,
    Ray,
    full_space,
    sample_witnesses,
)
from fejerlab.operators import (
    ConvexCombination,
    Identity,
    Linear,
    Negation,
    Projector,
    Reflector,
    Translation,
    verify_averaged,
    verify_nonexpansive,
)
from fejerlab.report import DiagnosticsReport


def alternating(n):
    """x_n = ((-1)^n, 0)."""
    pts = np.zeros((n + 1, 2))
    pts[:, 0] = (-1.0) ** np.arange(n + 1)
    return Trajectory(pts)


def harmonic_rotation(n):
    """Unit-circle walk with angle increments 1/k; steps vanish, no limit."""
    theta = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, n + 1))])
    return Trajectory(np.column_stack([np.cos(theta), np.sin(theta)]))


VERTICAL_LINE = Hyperplane([1.0, 0.0], 0.0)  # {0} x R
ORIGIN = Point([0.0, 0.0])


# ---------------------------------------------------------------------------
# Fejer monotonicity
# ---------------------------------------------------------------------------


def test_fejer_alternating_vs_vertical_line_exact():
    rep = check_fejer(alternating(100), VERTICAL_LINE, witnesses=10, seed=0)
    assert rep.passed
    assert rep.metadata["semantics"].startswith("necessary-condition")
    # squared-distance drops to the anchor witness vanish identically
    assert np.max(np.abs(rep.per_step)) == 0.0


def test_fejer_harmonic_vs_origin():
    rep = check_fejer(harmonic_rotation(2000), ORIGIN, witnesses=5, seed=0)
    assert rep.passed
    assert np.max(np.abs(rep.per_step)) <= 1e-15


def test_fejer_fails_for_drift_away_from_a_point():
    # distances to a point behind the start grow under translation
    traj = iterate(Translation([1.0, 0.0]), [0.0, 0.0], 20)
    rep = check_fejer(traj, Point([-5.0, 0.0]), witnesses=3, seed=0)
    assert rep.failed
    assert rep.witness["increase"] >= 1.0 - 1e-12
    assert rep.witness["step"] == 0


def test_fejer_distances_converge_monotonically():
    # for a passing check the distance to each witness is monotone bounded;
    # its tail oscillation must vanish
    C = Hyperplane([1.0, 1.0], 0.0)
    T = ConvexCombination(0.25, Identity(), Reflector(C))
    traj = iterate(T, [6.0, 1.0], 4000)
    rep = check_fejer(traj, C, witnesses=6, seed=1)
    assert rep.passed
    dists = np.linalg.norm(traj.points - C.project([6.0, 1.0]), axis=1)
    tail = dists[-400:]
    assert tail.max() - tail.min() <= 1e-8


# ---------------------------------------------------------------------------
# asymptotic regularity
# ---------------------------------------------------------------------------


def test_asymptotic_regularity_alternating_fails_at_two():
    rep = check_asymptotic_regularity(alternating(50), tol=1.9)
    assert rep.failed
    assert np.allclose(rep.per_step, 2.0)
    assert rep.witness["step_norm"] == pytest.approx(2.0)


def test_asymptotic_regularity_harmonic_passes():
    n = 20000
    rep = check_asymptotic_regularity(harmonic_rotation(n), tol=1e-4)
    assert rep.passed
    # chord-length identity: step n has norm 2 sin(1/(2(n+1))) <= 1/(n+1)
    steps = rep.per_step
    ns = np.arange(n)
    assert np.all(steps <= 1.0 / (ns + 1.0) + 1e-12)
    assert np.allclose(steps, 2.0 * np.sin(0.5 / (ns + 1.0)), atol=1e-12)


def test_asymptotic_regularity_constant_trajectory():
    rep = check_asymptotic_regularity(Trajectory(np.ones((10, 2))), tol=1e-12)
    assert rep.passed
    assert np.all(rep.per_step == 0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_step_norms_have_the_bits_of_numpy(d):
    rng = np.random.default_rng(40 + d)
    pts = rng.normal(size=(5000, d)) * 10.0 ** rng.integers(-150, 150, (5000, d))
    with np.errstate(over="ignore", under="ignore"):
        numpy_norms = np.linalg.norm(pts[1:] - pts[:-1], axis=1)
    assert native.fejer_step_norms(pts).tobytes() == numpy_norms.tobytes()
    rep = check_asymptotic_regularity(pts)
    assert rep.per_step.tobytes() == numpy_norms.tobytes()
    for bad in (np.nan, np.inf, -np.inf):
        for row in (0, 2500, 4999):
            broken = pts.copy()
            broken[row, d - 1] = bad
            with pytest.raises(NonFiniteValueError, match="trajectory points must be finite"):
                check_asymptotic_regularity(Trajectory(broken))


def test_asymptotic_regularity_allocates_little_more_than_per_step():
    import tracemalloc

    n = 10**6
    orbit = iterate(Translation([1e-3, -2e-3]), [1.0, 2.0], n - 1)
    assert orbit.period is None and orbit.dim == 2
    check_asymptotic_regularity(orbit.rows(0, 10))  # builds the C library outside
    tracemalloc.start()
    try:
        rep = check_asymptotic_regularity(orbit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the step differences, their squares and an (n, d) finiteness mask are gone
    assert rep.per_step.shape == (n - 1,)
    assert peak <= 1.25 * rep.per_step.nbytes, peak / rep.per_step.nbytes


# ---------------------------------------------------------------------------
# sum decoupling
# ---------------------------------------------------------------------------


def test_decoupling_constant_at_summand_point():
    E = Point([1.0, 1.0])
    K = Orthant([1.0, 1.0])
    traj = Trajectory(np.ones((5, 2)))
    rep = check_sum_decoupling(traj, E, K, witnesses=5, seed=0)
    assert rep.passed
    assert rep.metadata["equivalence_agrees"] is True


def test_decoupling_shrinking_along_orthogonal_complement():
    # E = {0}, K = span{e2}: steps must lie in the orthogonal complement
    E = Point([0.0, 0.0])
    K = LinearSubspace([[0.0, 1.0]])
    ts = 5.0 * 0.8 ** np.arange(12)
    traj = Trajectory(np.column_stack([ts, np.zeros(12)]))
    rep = check_sum_decoupling(traj, E, K, witnesses=8, seed=0)
    assert rep.passed
    assert rep.metadata["steps_in_dual_cone"] is True
    assert rep.metadata["equivalence_agrees"] is True


def test_decoupling_fails_when_distance_grows():
    # continue the vertical walk past the nearest point: distances to the
    # summand grow again, witnessed by direct computation
    E = Point([0.0, 0.0])
    K = Ray([0.0, 0.0], [1.0, 0.0])
    pts = np.array([[1.0, 1.0 - 0.5 * n] for n in range(5)])
    traj = Trajectory(pts)
    rep = check_sum_decoupling(traj, E, K, witnesses=5, seed=0)
    assert rep.failed
    assert rep.witness["violated"] == "fejer_vs_summand"
    dists = np.linalg.norm(pts, axis=1)
    assert dists[3] > dists[2]  # the growth the checker must find


def test_decoupling_fails_on_dual_cone_violation():
    E = Point([0.0, 0.0])
    K = Ray([0.0, 0.0], [1.0, 0.0])
    # shrink toward the origin but step along -e1: outside the dual halfspace
    pts = np.array([[4.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    rep = check_sum_decoupling(Trajectory(pts), E, K, witnesses=5, seed=0)
    assert rep.failed
    assert rep.witness["violated"] == "step_in_dual_cone"
    assert rep.metadata["fejer_vs_summand"] == "pass"
    # the direct E + K check must agree with the decoupled verdict
    assert rep.metadata["direct_sum_verdict"] == "fail"
    assert rep.metadata["equivalence_agrees"] is True


def test_decoupling_reports_first_step_outside_dual_cone():
    E = Point([0.0, 0.0])
    K = Ray([0.0, 0.0], [1.0, 0.0])  # dual cone: u_1 >= 0
    # distances to E shrink; steps 2 and 3 have u_1 < 0
    pts = np.array([[0.0, 4.0], [0.0, 2.0], [0.5, 1.0], [0.25, 0.5], [0.1, 0.2]])
    rep = check_sum_decoupling(Trajectory(pts), E, K, witnesses=5, seed=0)
    assert rep.failed
    assert rep.metadata["fejer_vs_summand"] == "pass"
    assert rep.metadata["steps_in_dual_cone"] is False
    assert rep.witness["violated"] == "step_in_dual_cone"
    assert rep.witness["step"] == 2
    assert np.array_equal(rep.witness["step_vector"], pts[3] - pts[2])
    # a residual of 2e-10 is above tol = 1e-10
    pts = np.array([[0.0, 4.0], [0.0, 2.0], [-2e-10, 1.0]])
    rep = check_sum_decoupling(Trajectory(pts), E, K, witnesses=5, seed=0, tol=1e-10)
    assert rep.witness["violated"] == "step_in_dual_cone"
    assert rep.witness["step"] == 1


def test_decoupling_projects_all_steps_in_one_call(monkeypatch):
    n = 100_000
    K = Ray(np.zeros(3), [-1.0, 0.0, 0.0])  # dual cone: u_1 <= 0
    pts = np.zeros((n + 1, 3))
    pts[:, 0] = np.linspace(1.0, 0.0, n + 1)
    calls = []
    project_many = ConvexSet.project_many

    def counting(self, points):
        calls.append(len(points))
        return project_many(self, points)

    monkeypatch.setattr(Ray, "project_many", counting)
    rep = check_sum_decoupling(pts, Point(np.zeros(3)), K, witnesses=3, seed=0)
    assert rep.passed
    assert calls == [n]


def test_check_fejer_rejects_non_finite_points():
    C = Ball([0.0, 0.0], 0.5)
    with pytest.raises(NonFiniteValueError):
        check_fejer([[1.0, 0.0], [np.inf, 0.0], [0.5, 0.0]], C)
    with pytest.raises(NonFiniteValueError):
        check_fejer(Trajectory([[1.0, 0.0], [np.nan, 0.0], [0.5, 0.0]]), C)


@pytest.mark.parametrize(
    "rows",
    [
        [[1e200, 0.0], [2e200, 0.0], [3e200, 0.0]],  # passed: every increase NaN
        [[k * 1e154, 0.0] for k in range(1, 9)],  # failed with an inf increase
    ],
    ids=["1e200", "1e154"],
)
def test_check_fejer_rejects_distances_that_overflow(rows):
    with pytest.raises(NonFiniteValueError, match="trajectory points"):
        check_fejer(rows, Point([0.0, 0.0]))
    with pytest.raises(NonFiniteValueError, match="trajectory points"):
        check_fejer(rows, Point([0.0, 0.0]), witness_radius=1.0)


def test_check_fejer_fails_a_far_walk_with_finite_distances():
    rep = check_fejer([[1e150, 0.0], [2e150, 0.0], [3e150, 0.0]], Point([0.0, 0.0]))
    before, after = rep.witness["distance_before"], rep.witness["distance_after"]
    assert rep.failed and 1e150 <= before < after <= 3e150
    assert rep.metadata["worst_increase"] == after - before
    json.dumps(report_to_dict(rep))  # every value finite, so it exports


@pytest.mark.parametrize("radius", [np.inf, np.nan, 0.0, -1.0])
def test_a_witness_radius_that_is_not_finite_and_positive_is_rejected(radius):
    pts = [[1.0, 0.0], [0.5, 0.0]]
    with pytest.raises(ValueError, match="witness_radius must be finite and positive"):
        check_fejer(pts, Point([0.0, 0.0]), witness_radius=radius)
    cs = estimate_cluster_set(Trajectory(np.tile(pts, (5, 1))), tail_fraction=1.0, radius=0.1)
    with pytest.raises(ValueError, match="witness_radius must be finite and positive"):
        check_cluster_orthogonality(cs, VERTICAL_LINE, witness_radius=radius)


def test_check_cluster_orthogonality_rejects_distances_that_overflow():
    # the clusters are 1e154 apart, a finite distance, but reach + radius is
    # 1.5e154, whose square overflows
    pts = np.tile([[0.0, 5e153], [0.0, -5e153]], (5, 1))
    cs = estimate_cluster_set(Trajectory(pts), tail_fraction=1.0, radius=0.1)
    with pytest.raises(NonFiniteValueError, match="trajectory points"):
        check_cluster_orthogonality(cs, VERTICAL_LINE)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
def test_check_fejer_matches_broadcast_formula(d, scale):
    rng = np.random.default_rng(d)
    pts = scale * rng.normal(size=(300, d))
    C = Ball(scale * rng.normal(size=d), scale)
    rep = check_fejer(pts, C, witnesses=10, seed=5)
    reach = np.linalg.norm(pts - C.anchor(), axis=1).max()
    assert rep.params["witness_radius"] == max(1.0, 2.0 * reach)
    # the (n, w, d) broadcast that check_fejer no longer builds
    ws = np.stack(sample_witnesses(C, 10, seed=5, radius=rep.params["witness_radius"]))
    dists = np.linalg.norm(pts[:, None, :] - ws[None, :, :], axis=2)
    increases = dists[1:] - dists[:-1]
    sq_anchor = np.sum((pts - ws[0]) ** 2, axis=1)
    assert np.array_equal(rep.per_step, sq_anchor[:-1] - sq_anchor[1:])
    assert rep.metadata["worst_increase"] == increases.max()
    assert rep.failed  # a random walk moves away from some witness
    step, widx = np.unravel_index(np.argmax(increases), increases.shape)
    assert rep.witness["step"] == step
    assert np.array_equal(rep.witness["witness_point"], ws[widx])
    assert rep.witness["distance_before"] == dists[step, widx]
    assert rep.witness["distance_after"] == dists[step + 1, widx]
    assert rep.witness["increase"] == increases.max()


def test_check_fejer_takes_the_sets_anchor_once(monkeypatch):
    # the reach and the witnesses share one anchor, a projection for a halfspace
    C = Halfspace(np.array([1.0, 2.0]), 0.5)
    calls = []
    anchor = Halfspace.anchor
    monkeypatch.setattr(Halfspace, "anchor", lambda self: calls.append(self) or anchor(self))
    pts = np.random.default_rng(1).normal(size=(50, 2)) + 3.0
    rep = check_fejer(pts, C, witnesses=6, seed=2)
    assert calls == [C]
    _assert_cdist_report(rep, pts, C, 6, 2)


def _cdist_fejer(pts, C, witnesses, seed, radius=None):
    """check_fejer's figures from whole-array ``cdist``: the radius, the
    witnesses, the (n, w) distances, per_step and the first argmax step and
    witness of the increases."""
    from scipy.spatial.distance import cdist

    if radius is None:
        radius = max(1.0, 2.0 * float(cdist(pts, [C.anchor()]).max()))
    ws = sample_witnesses(C, witnesses, seed=seed, radius=radius)
    dists = cdist(pts, ws)
    sq_anchor = np.sum((pts - ws[0]) ** 2, axis=1)
    increases = dists[1:] - dists[:-1]
    step, widx = np.unravel_index(np.argmax(increases), increases.shape)
    return radius, ws, dists, sq_anchor[:-1] - sq_anchor[1:], int(step), int(widx)


def _assert_cdist_report(rep, pts, C, witnesses, seed, radius=None, tol=1e-10):
    radius, ws, dists, drops, step, widx = _cdist_fejer(pts, C, witnesses, seed, radius)
    worst = dists[step + 1, widx] - dists[step, widx]
    assert rep.params["witness_radius"] == radius
    assert rep.per_step.tobytes() == drops.tobytes()
    assert rep.metadata["worst_increase"] == worst
    assert rep.failed == (worst > tol)
    if rep.failed:
        assert (rep.witness["step"], rep.witness["increase"]) == (step, worst)
        assert rep.witness["witness_point"].tobytes() == ws[widx].tobytes()
        assert rep.witness["distance_before"] == dists[step, widx]
        assert rep.witness["distance_after"] == dists[step + 1, widx]


@pytest.mark.parametrize("rows", [1, 2, 7, 149, 298, 299])
def test_check_fejer_blocks_give_the_whole_array_result(rows):
    # a leading block of rows + 1 rows: the one pass gives the report of the
    # whole-array cdist, and of an exact 3-cycle, which repeats its largest
    # increase every third step, the first of them
    rng = np.random.default_rng(11)
    C = Ball([0.0, 0.0], 0.5)
    cycle, walk = np.tile(rng.normal(size=(3, 2)), (100, 1)), rng.normal(size=(300, 2))
    for pts in (cycle[: rows + 1], walk[: rows + 1]):
        _assert_cdist_report(check_fejer(pts, C, witnesses=7, seed=3), pts, C, 7, 3)
    if rows >= 3:
        assert check_fejer(cycle[: rows + 1], C, witnesses=7, seed=3).witness["step"] < 3


@pytest.mark.parametrize("steps", [7, 4096])
def test_check_fejer_on_a_cycled_orbit_reads_up_to_the_cycle(steps):
    # iterate's proven cycle lets check_fejer stop reading after one period;
    # the report is the one of the same points with no cycle recorded
    permute = Linear(np.roll(np.eye(3), 1, axis=1))
    cases = [
        # projections stop at a fixed point: PASS
        (iterate(Projector(Ball([1.0, -1.0], 0.5)), [4.0, 2.0], steps), Ball([1.0, -1.0], 0.5), "pass"),
        # the permuted coordinates move away from some witness by the same
        # amount every third step: FAIL; the cycle is proven from step 3 on,
        # as the -0.0 start comes back as +0.0
        (iterate(permute, [-0.0, 1.0, 2.5], steps), Ball([0.0, 0.0, 4.0], 1.0), "fail"),
    ]
    for orbit, C, verdict in cases:
        assert orbit.period is not None
        proven = check_fejer(orbit, C, witnesses=7, seed=3)
        plain = check_fejer(Trajectory(orbit.points), C, witnesses=7, seed=3)
        assert proven.verdict == verdict
        assert json.dumps(report_to_dict(proven)) == json.dumps(report_to_dict(plain))
        assert len(proven.per_step) == len(orbit) - 1
    # the first of the repeated largest increases is the witness
    assert orbit.periodic_from == 3 and proven.witness["step"] == 0


def test_check_fejer_reads_the_step_that_closes_the_first_cycle():
    # rows repeat with period 3 from row 3 on; the largest increase is the
    # step from row 5 back to the cycle's first point, the last one read
    pts = np.array([[5.0], [4.0], [3.0]] + [[3.5], [2.0], [1.0]] * 5)
    proven = check_fejer(Trajectory._own(pts.copy(), (3, 3)), Point([0.0]), witnesses=3)
    plain = check_fejer(Trajectory(pts), Point([0.0]), witnesses=3)
    assert proven.witness["step"] == 5 and proven.witness["increase"] == 2.5
    assert json.dumps(report_to_dict(proven)) == json.dumps(report_to_dict(plain))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_fejer_pass_distances_match_cdist_bit_for_bit(d):
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(40 + d)
    for scale in (1e-3, 1.0, 1e3, 1e8):
        for w in (1, 2, 5, 12):
            pts = scale * rng.normal(size=(60, d))
            ws = scale * rng.normal(size=(w, d))
            dists = cdist(pts, ws)
            # two rows and one witness: the pass's only increase carries both
            # of its distances
            for i in range(0, 59, 7):
                for j in range(w):
                    *_, before, after = native.fejer_pass(pts[i : i + 2], ws[j : j + 1])
                    assert (before, after) == (dists[i, j], dists[i + 1, j])
            drops, worst, step, widx, before, after = native.fejer_pass(pts, ws)
            increases = dists[1:] - dists[:-1]
            assert (step, widx) == np.unravel_index(np.argmax(increases), increases.shape)
            assert worst == increases.max() == after - before
            assert (before, after) == (dists[step, widx], dists[step + 1, widx])
            sq_anchor = np.sum((pts - ws[0]) ** 2, axis=1)
            assert drops.tobytes() == (sq_anchor[:-1] - sq_anchor[1:]).tobytes()
            reach = math.sqrt(native.reach2(pts, ws[0]))
            assert 2.0 * reach == 2.0 * cdist(pts, ws[:1]).max()


def test_fejer_pass_names_the_earlier_step_then_the_lower_witness():
    # from 5 to 6, 5, 4: witness 0 gains 1 at step 0, witness 10 at steps 1, 2
    pts = np.array([[5.0], [6.0], [5.0], [4.0]])
    assert native.fejer_pass(pts, np.array([[0.0], [10.0]]))[1:] == (1.0, 0, 0, 5.0, 6.0)
    assert native.fejer_pass(pts, np.array([[10.0], [0.0]]))[1:] == (1.0, 0, 1, 5.0, 6.0)
    assert native.fejer_pass(pts[1:], np.array([[0.0], [10.0]]))[1:] == (1.0, 0, 1, 4.0, 5.0)
    # (0, 0) to (0, 4) and back, twice: both witnesses gain 2 at steps 0 and 2
    up_down = np.array([[0.0, 0.0], [0.0, 4.0], [0.0, 0.0], [0.0, 4.0]])
    ws = np.array([[-3.0, 0.0], [3.0, 0.0]])
    assert native.fejer_pass(up_down, ws)[1:] == (2.0, 0, 0, 3.0, 5.0)
    assert native.fejer_pass(up_down, ws[::-1])[1:] == (2.0, 0, 0, 3.0, 5.0)
    # a lone decrease is the largest increase; a distance that overflows to
    # inf before the step leaves no increase above -inf
    drops, worst, step, widx, *_ = native.fejer_pass(np.array([[2.0], [1.0]]), np.array([[0.0]]))
    assert (worst, step, widx) == (-1.0, 0, 0) and drops.tolist() == [3.0]
    overflow = native.fejer_pass(np.array([[1e200], [0.0]]), np.array([[0.0]]))
    assert overflow[1:4] == (-math.inf, -1, -1)


def test_check_fejer_reports_the_first_of_equal_increases():
    # every witness of a point is the point itself, so each step ties across
    # all of them; steps 1 and 3 tie as well
    pts = np.array([[1.0, 0.0], [0.5, 0.0], [2.0, 0.0], [1.0, 0.0], [2.5, 0.0]])
    rep = check_fejer(pts, Point([0.0, 0.0]), witnesses=4)
    assert (rep.witness["step"], rep.witness["increase"]) == (1, 1.5)
    assert rep.witness["witness_point"].tolist() == [0.0, 0.0]
    _assert_cdist_report(rep, pts, Point([0.0, 0.0]), 4, 0)


def _permuted_orbit(d, steps):
    """A cycled orbit: the coordinates of a seeded point, permuted each step."""
    x0 = np.random.default_rng(d).normal(size=d) * 3.0
    return iterate(_permutation(d), x0, steps)


@pytest.mark.parametrize("radius", [None, 2.5])
@pytest.mark.parametrize("kind", ["array", "trajectory", "cycled"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_check_fejer_matches_cdist_on_every_input_kind(d, kind, radius):
    rng = np.random.default_rng(100 + d)
    C = Ball(rng.normal(size=d), 0.7)
    if kind == "cycled":
        traj, pts = _permuted_orbit(d, 500), _permuted_orbit(d, 500).points
        assert traj.period is not None
    else:
        pts = np.cumsum(rng.normal(size=(500, d)), axis=0) * 10.0 ** (2 * d - 5)
        traj = pts if kind == "array" else Trajectory(pts)
    rep = check_fejer(traj, C, witnesses=9, seed=d, witness_radius=radius)
    _assert_cdist_report(rep, pts, C, 9, d, radius=radius)
    if kind == "cycled":
        assert traj._points is None  # the check read the computed rows only


def test_check_fejer_allocates_little_more_than_per_step():
    import tracemalloc

    n = 10**6
    pts = np.random.default_rng(8).normal(size=(n, 3))
    C = Ball([0.5, 0.0, -0.5], 1.0)
    check_fejer(pts[:10], C)  # builds the C library outside the measurement
    tracemalloc.start()
    try:
        rep = check_fejer(pts, C, witnesses=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # per_step is 8 bytes a row; the (n, d) and (n, w) temporaries are gone
    assert rep.per_step.shape == (n - 1,)
    assert peak < 12 * n, peak / n


# ---------------------------------------------------------------------------
# cluster sets, connectivity, orthogonality
# ---------------------------------------------------------------------------


def test_cluster_set_alternating_two_components_at_gap_two():
    cs = estimate_cluster_set(alternating(400), tail_fraction=0.5, radius=0.1)
    assert cs.representatives.shape[0] == 2
    assert cs.n_components == 2
    reps = cs.representatives[np.argsort(cs.representatives[:, 0])]
    assert np.allclose(reps, [[-1.0, 0.0], [1.0, 0.0]])
    rep = check_connectivity(cs)
    assert rep.failed
    assert rep.witness["components"] == 2
    assert np.isclose(rep.witness["gap"], 2.0)


def test_cluster_set_harmonic_covers_circle_and_connects():
    cs = estimate_cluster_set(harmonic_rotation(100000), tail_fraction=1.0, radius=0.1)
    angles = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    grid = np.column_stack([np.cos(angles), np.sin(angles)])
    dists = np.linalg.norm(
        grid[:, None, :] - cs.representatives[None, :, :], axis=2
    ).min(axis=1)
    assert dists.max() <= 0.2
    assert check_connectivity(cs).passed


def test_cluster_set_convergent_single_representative():
    pts = np.array([[1.0 + 2.0 ** (-n), 0.0] for n in range(30)])
    cs = estimate_cluster_set(Trajectory(pts), tail_fraction=0.5, radius=0.5)
    assert cs.representatives.shape[0] == 1
    assert check_connectivity(cs).passed


def test_cluster_coverage_invariant():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(500, 3))
    cs = estimate_cluster_set(Trajectory(pts), tail_fraction=1.0, radius=0.8)
    dists = np.linalg.norm(
        pts - cs.representatives[cs.assignment], axis=1
    )
    assert dists.max() <= cs.radius + 1e-12


@pytest.mark.parametrize("radius", [0.0, -0.1, float("nan")])
def test_cluster_set_rejects_a_radius_that_is_not_positive(radius):
    with pytest.raises(ValueError, match="radius must be positive"):
        estimate_cluster_set(alternating(40), radius=radius)


@pytest.mark.parametrize("radius", [None, 0.1], ids=["default", "given"])
def test_cluster_set_rejects_a_tail_whose_extent_overflows(radius):
    # finite points 2e200 apart: the bounding-box diagonal overflows, so the
    # default radius would be inf and the linkage distances inf too
    traj = Trajectory(np.tile([[0.0, 1e200], [0.0, -1e200]], (5, 1)))
    with pytest.raises(NonFiniteValueError, match="bounding-box diagonal overflows"):
        estimate_cluster_set(traj, tail_fraction=1.0, radius=radius)


def test_orthogonality_alternating_clusters_vs_vertical_line():
    cs = estimate_cluster_set(alternating(400), radius=0.1)
    rep = check_cluster_orthogonality(cs, VERTICAL_LINE, witnesses=8, seed=0, tol=1e-8)
    assert rep.passed


def test_orthogonality_vacuous_cases():
    pts = np.tile([[2.0, 3.0]], (20, 1))
    single = estimate_cluster_set(Trajectory(pts), radius=0.1)
    assert check_cluster_orthogonality(single, VERTICAL_LINE).passed
    cs = estimate_cluster_set(harmonic_rotation(3000), tail_fraction=1.0, radius=0.1)
    rep = check_cluster_orthogonality(cs, ORIGIN, witnesses=4, seed=0)
    assert rep.passed  # C - C = {0}: nothing to violate


def test_orthogonality_detects_violation():
    # two clusters separated along the line itself cannot be orthogonal to it
    pts = np.tile(np.array([[0.0, 1.0], [0.0, -1.0]]), (10, 1))
    cs = estimate_cluster_set(Trajectory(pts), tail_fraction=1.0, radius=0.1)
    rep = check_cluster_orthogonality(cs, VERTICAL_LINE, witnesses=8, seed=0)
    assert rep.failed


# ---------------------------------------------------------------------------
# shadow superset
# ---------------------------------------------------------------------------


def test_shadow_superset_equal_sets_pass():
    C = A = Ball([0.0, 0.0], 1.0)
    T = ConvexCombination(0.5, Identity(), Reflector(C))
    traj = iterate(T, [3.0, 3.0], 500)
    rep = check_shadow_superset(traj, C, A, tol=1e-6)
    assert rep.passed


def test_shadow_superset_whole_space_superset():
    # A = R^2 makes the A-shadow the sequence itself
    C = Hyperplane([1.0, 0.0], 0.0)
    A = full_space(2)
    T = ConvexCombination(0.25, Identity(), Reflector(C))
    traj = iterate(T, [5.0, 2.0], 2000)
    rep = check_shadow_superset(traj, C, A, tol=1e-6)
    assert rep.passed
    assert rep.metadata["limit_separation"] <= 1e-6


def test_shadow_superset_inconclusive_when_clusters_miss_C():
    C = Point([0.0, 0.0])
    A = Ball([0.0, 0.0], 2.0)
    rep = check_shadow_superset(harmonic_rotation(5000), C, A, tol=1e-6)
    assert rep.verdict == "inconclusive"
    assert "do not all lie in C" in rep.witness["reason"]
    # the cluster points lie on the unit circle, at distance 1 from C
    assert rep.witness["worst_membership_residual"] == pytest.approx(1.0, abs=1e-12)


def test_shadow_superset_precondition():
    C = Ball([5.0, 5.0], 1.0)
    A = Ball([0.0, 0.0], 1.0)  # does not contain C
    with pytest.raises(ValueError):
        check_shadow_superset(alternating(10), C, A)


# ---------------------------------------------------------------------------
# codimension-1 convergence guarantee
# ---------------------------------------------------------------------------


def test_codim1_under_relaxed_reflection_converges():
    # T x - P_C x scales the normal component by |1 - 2 alpha| < 1, so the
    # orbit converges to the projection of the start onto the line
    C = Hyperplane([2.0, 1.0], 1.0)
    alpha = 0.3
    T = ConvexCombination(alpha, Identity(), Reflector(C))
    x0 = np.array([4.0, -1.0])
    rep = check_codim1_theorem(C, iterate(T, x0, 3000))
    assert rep.passed
    assert rep.metadata["codim"] == 1
    assert np.linalg.norm(rep.metadata["limit"] - C.project(x0)) <= 1e-8


def test_codim1_inconclusive_without_asymptotic_regularity():
    rep = check_codim1_theorem(VERTICAL_LINE, trajectory=alternating(200))
    assert rep.verdict == "inconclusive"
    assert "asymptotic regularity" in rep.witness["reason"]
    assert rep.metadata["fejer_verdict"] == "pass"


def test_codim1_inconclusive_wrong_codimension():
    rep = check_codim1_theorem(
        ORIGIN, trajectory=harmonic_rotation(30000), ar_tol=1e-3
    )
    assert rep.verdict == "inconclusive"
    assert "codim is 2" in rep.witness["reason"]


def test_codim1_flags_contradiction_as_failure():
    # a hand-built sequence that is Fejer monotone w.r.t. a codim-1 line and
    # asymptotically regular but (by construction, impossibly) non-convergent
    # cannot exist; emulate the bug path with a sequence that converges too
    # slowly for the detector to certify at the given tolerance
    n = 400
    ts = 1.0 / np.sqrt(np.arange(1, n + 1))
    pts = np.column_stack([ts, np.zeros(n)])
    rep = check_codim1_theorem(
        VERTICAL_LINE,
        trajectory=Trajectory(pts),
        ar_tol=1e-2,
        limit_tol=1e-9,
        tail_window=50,
    )
    assert rep.failed
    assert rep.witness["limit_status"] == "inconclusive"


def test_shadow_onto_affine_set_is_constant():
    # Fejer monotone w.r.t. an affine set means the shadow never moves
    from fejerlab.dynamics import shadow

    C = Hyperplane([2.0, 1.0], 1.0)
    T = ConvexCombination(0.3, Identity(), Reflector(C))
    traj = iterate(T, [4.0, -1.0], 2000)
    assert check_fejer(traj, C, witnesses=6, seed=2).passed
    sh = shadow(traj, C)
    drift = np.linalg.norm(sh.points - sh.points[0], axis=1).max()
    assert drift <= 1e-10


# ---------------------------------------------------------------------------
# checks of an orbit that ends in a cycle read its computed rows
# ---------------------------------------------------------------------------


def _permutation(d):
    return Linear(np.roll(np.eye(d), 1, axis=1))


_DIAGONAL = LinearSubspace(np.ones((1, 3)) / np.sqrt(3.0))

# (operator, start, reference set) of orbits with periods 1, 2, 3 and 19,
# three of them from a -0.0 start
_CYCLED_CHECKS = {
    "period-1-projection": (Projector(Ball([1.0, -1.0], 0.5)), [4.0, 2.0], Hyperplane([1.0, 1.0], 0.0)),
    "period-2-reflection": (
        ConvexCombination(0.3, Identity(), Reflector(Hyperplane([2.0, 1.0], 1.0))),
        [4.0, -1.0],
        Hyperplane([2.0, 1.0], 1.0),
    ),
    "period-1-signed-zero": (Projector(Ball([0.0, 0.0], 1.0)), [-0.0, 3.0], Hyperplane([1.0, 0.0], 0.0)),
    "period-2-signed-zero": (Negation(), [-0.0], Hyperplane([1.0], 0.5)),
    "period-2-fejer-fails": (Negation(), [1.0], Point([0.5])),
    "period-3-signed-zero": (_permutation(3), [-0.0, 1.0, 2.5], _DIAGONAL),
    "period-19": (_permutation(19), np.arange(19.0) - 3.0, Hyperplane(np.eye(19)[0], 0.0)),
}


def _cycled_orbit(case, from_the_cycle):
    """A fresh orbit of the case; ``from_the_cycle`` drops the rows before
    its cycle, so that it repeats from row 0 on."""
    T, x0, _ = _CYCLED_CHECKS[case]
    orbit = iterate(T, x0, 2000)
    q, p = orbit.periodic_from, orbit.period
    assert p is not None and q > 0
    if from_the_cycle:
        orbit = Trajectory._own(orbit.rows(q, q + p + 1).copy(), (0, p), len(orbit) - q)
    return orbit


def _cycle_checks(traj, C):
    return [
        check_fejer(traj, C, witnesses=7, seed=3),
        check_fejer(traj, C, witnesses=7, seed=3, witness_radius=7.5),
        check_asymptotic_regularity(traj),
        check_codim1_theorem(C, traj, witnesses=7, seed=3),
    ]


@pytest.mark.parametrize("from_the_cycle", [False, True], ids=["q>0", "q=0"])
@pytest.mark.parametrize("case", list(_CYCLED_CHECKS))
def test_checks_of_a_cycled_orbit_equal_those_of_its_whole_array(case, from_the_cycle):
    C = _CYCLED_CHECKS[case][2]
    orbit = _cycled_orbit(case, from_the_cycle)
    plain = Trajectory(_cycled_orbit(case, from_the_cycle).points)
    assert (orbit.periodic_from == 0) == from_the_cycle
    for proven, whole in zip(_cycle_checks(orbit, C), _cycle_checks(plain, C)):
        # json.dumps tells -0.0 from 0.0 and writes each float's exact digits
        assert json.dumps(report_to_dict(proven)) == json.dumps(report_to_dict(whole))
        if proven.per_step is not None:
            assert len(proven.per_step) == len(orbit) - 1
            assert proven.per_step.tobytes() == whole.per_step.tobytes()
    assert orbit._points is None  # no check built the whole array


def test_the_cycled_checks_reach_every_verdict():
    # the cases above compare passing and failing Fejer checks (witness step
    # and distances included) and codim-1 checks that reach the limit test
    seen = set()
    for case, (_, _, C) in _CYCLED_CHECKS.items():
        fejer, _, ar, codim1 = _cycle_checks(_cycled_orbit(case, False), C)
        seen |= {("fejer", fejer.verdict), ("ar", ar.verdict), ("codim1", codim1.verdict)}
        if fejer.failed:
            seen.add(("fejer fails after step 0", fejer.witness["step"] > 0))
    assert seen >= {
        ("fejer", "pass"), ("fejer", "fail"), ("ar", "pass"), ("ar", "fail"),
        ("codim1", "pass"), ("codim1", "inconclusive"),
        ("fejer fails after step 0", True),
    }


def test_codim1_check_of_a_long_orbit_keeps_only_its_computed_rows():
    # the under-relaxed reflection settles on its limit within a few hundred
    # steps; the checks read those rows, never the 10**6 + 1 of the orbit
    C = Hyperplane([2.0, 1.0, -1.0], 1.0)
    orbit = iterate(ConvexCombination(0.3, Identity(), Reflector(C)), [4.0, -1.0, 2.0], 10**6)
    assert orbit.period is not None and orbit._rows.shape[0] < 1000
    assert check_codim1_theorem(C, orbit).passed
    for rep in (check_fejer(orbit, C), check_asymptotic_regularity(orbit)):
        assert rep.passed and rep.per_step.shape == (10**6,)
    assert orbit._points is None


# ---------------------------------------------------------------------------
# the verdict rule: a check fails exactly when it has a witness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("witness", [None, {}])
def test_from_witness_without_a_witness_passes(witness):
    rep = DiagnosticsReport.from_witness(
        "c", witness, params={"tol": 1.0}, seed=3, metadata={"m": 2}
    )
    assert rep.verdict == "pass"
    assert rep.witness == {}
    assert (rep.params, rep.seed, rep.metadata) == ({"tol": 1.0}, 3, {"m": 2})


def test_from_witness_with_a_witness_fails_carrying_it():
    per_step = np.arange(3.0)
    witness = {"step": 4}
    rep = DiagnosticsReport.from_witness("c", witness, per_step=per_step)
    assert rep.verdict == "fail"
    assert rep.witness is witness
    assert rep.per_step is per_step
    assert rep.checker == "c"


def _constant(point, n=20):
    return Trajectory(np.tile(point, (n, 1)))


def _slowly_converging():
    ts = 1.0 / np.sqrt(np.arange(1, 401))
    return Trajectory(np.column_stack([ts, np.zeros(400)]))


_TANGENT_BALL = Ball([0.0, -1.0], 1.0)  # touches the line x2 = 0 at the origin
_LINE = Hyperplane([2.0, 1.0], 1.0)

VERDICT_CASES = {
    "fejer-pass": lambda: check_fejer(alternating(100), VERTICAL_LINE),
    "fejer-fail": lambda: check_fejer(
        iterate(Translation([1.0, 0.0]), [0.0, 0.0], 20), Point([-5.0, 0.0]), witnesses=3
    ),
    "ar-pass": lambda: check_asymptotic_regularity(Trajectory(np.ones((10, 2)))),
    "ar-fail": lambda: check_asymptotic_regularity(alternating(50)),
    "decoupling-pass": lambda: check_sum_decoupling(
        Trajectory(np.ones((5, 2))), Point([1.0, 1.0]), Orthant([1.0, 1.0]), witnesses=5
    ),
    "decoupling-fail": lambda: check_sum_decoupling(
        Trajectory(np.array([[4.0, 0.0], [2.0, 0.0], [1.0, 0.0]])),
        Point([0.0, 0.0]),
        Ray([0.0, 0.0], [1.0, 0.0]),
        witnesses=5,
    ),
    "connectivity-pass": lambda: check_connectivity(
        estimate_cluster_set(_constant([2.0, 3.0]), radius=0.1)
    ),
    "connectivity-fail": lambda: check_connectivity(
        estimate_cluster_set(alternating(400), radius=0.1)
    ),
    "orthogonality-pass": lambda: check_cluster_orthogonality(
        estimate_cluster_set(alternating(400), radius=0.1), VERTICAL_LINE, witnesses=8
    ),
    "orthogonality-vacuous-pass": lambda: check_cluster_orthogonality(
        estimate_cluster_set(_constant([2.0, 3.0]), radius=0.1), VERTICAL_LINE
    ),
    "orthogonality-fail": lambda: check_cluster_orthogonality(
        estimate_cluster_set(
            Trajectory(np.tile([[0.0, 1.0], [0.0, -1.0]], (10, 1))),
            tail_fraction=1.0,
            radius=0.1,
        ),
        VERTICAL_LINE,
        witnesses=8,
    ),
    "shadow-pass": lambda: check_shadow_superset(
        _constant([0.0, -0.5]), _TANGENT_BALL, full_space(2)
    ),
    # the A-shadow (1e-3, 0) lies 5e-7 from C, within tol, but the C-shadow
    # is about 9e-4 away from it
    "shadow-fail": lambda: check_shadow_superset(
        _constant([1e-3, 10.0]), _TANGENT_BALL, Halfspace([0.0, 1.0], 0.0)
    ),
    "codim1-pass": lambda: check_codim1_theorem(
        _LINE, iterate(ConvexCombination(0.3, Identity(), Reflector(_LINE)), [4.0, -1.0], 3000)
    ),
    "codim1-fail": lambda: check_codim1_theorem(
        VERTICAL_LINE, _slowly_converging(), ar_tol=1e-2, limit_tol=1e-9, tail_window=50
    ),
    "nonexpansive-pass": lambda: verify_nonexpansive(Negation(), dim=1),
    "nonexpansive-fail": lambda: verify_nonexpansive(Linear(2.0 * np.eye(2)), seed=1),
    "averaged-pass": lambda: verify_averaged(Projector(Ball([0.0, 0.0], 1.0)), 0.5, seed=4),
    "averaged-fail": lambda: verify_averaged(Negation(), 0.5, dim=1),
}


@pytest.mark.parametrize("case", VERDICT_CASES)
def test_a_report_fails_exactly_when_it_carries_a_witness(case):
    rep = VERDICT_CASES[case]()
    assert rep.verdict == case.rsplit("-", 1)[1]
    assert (rep.witness != {}) == rep.failed
