import dataclasses
import inspect
import math

import numpy as np
import pytest

from fejerlab import dynamics, scenarios
from fejerlab.dynamics import (
    CONVERGED,
    Trajectory,
    detect_limit,
    difference_monotonicity_slack,
    iterate,
)
from fejerlab.errors import ConfigError
from fejerlab.geometry import Ball, Halfspace, Hyperplane, Point, Ray
from fejerlab.operators import (
    ConvexCombination,
    DouglasRachford,
    Identity,
    Linear,
    Negation,
)
from fejerlab.scenarios import (
    CheckDef,
    ScenarioSpec,
    TrajectoryDef,
    get_scenario,
    harmonic_rotation_sequence,
    list_scenarios,
    run_affine_limit_sweep,
    run_codim1_sweep,
    run_decoupling_sweep,
    run_scalar_averaged_sweep,
    random_scalar_piecewise_linear,
    run_scenario,
    run_two_ball_sweep,
)

EXPECTED_NAMES = {
    "alternating-pair",
    "harmonic-rotation",
    "negation-r1",
    "pazy-translation",
    "scalar-averaged-sweep",
    "affine-linear-limit",
    "codim1-reflection",
    "decoupling-demo",
    "dr-two-balls-r3",
    "open-problem-p1",
    "open-problem-p2",
    "open-problem-p3",
    "open-problem-p4",
}


def test_registry_contents():
    entries = list_scenarios()
    names = [name for name, _, _ in entries]
    assert len(entries) >= 13
    assert len(set(names)) == len(names)
    assert EXPECTED_NAMES <= set(names)
    for name, description, topic in entries:
        assert description.strip()
        assert topic.strip()


def test_get_scenario_unknown_name():
    with pytest.raises(ConfigError):
        get_scenario("no-such-scenario")


def test_sequences():
    # ((-1)^n, 0) is the orbit of the reflection through the vertical axis
    alt = run_scenario(get_scenario("alternating-pair"), n_steps=4).trajectories["orbit"]
    assert alt.period == 2
    assert alt.points.tobytes() == np.array(
        [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]
    ).tobytes()
    harm = harmonic_rotation_sequence(3)
    theta = np.array([0.0, 1.0, 1.5, 1.5 + 1.0 / 3.0])
    assert np.allclose(harm, np.column_stack([np.cos(theta), np.sin(theta)]))
    assert np.allclose(np.linalg.norm(harm, axis=1), 1.0)


@pytest.mark.parametrize(
    "name",
    sorted(EXPECTED_NAMES),
)
def test_builtin_scenarios_match_expectations(name):
    artifacts = run_scenario(get_scenario(name))
    assert artifacts.all_matched, [
        (o.name, o.expected, o.actual) for o in artifacts.summary if not o.matched
    ]
    assert len(artifacts.summary) == len(get_scenario(name).checks)


def test_alternating_pair_summary_details():
    artifacts = run_scenario(get_scenario("alternating-pair"))
    outcomes = {o.name: o for o in artifacts.summary}
    assert outcomes["fejer"].actual == "pass"
    assert outcomes["asymptotic-regularity"].actual == "fail"
    assert outcomes["limit"].actual == "oscillating"
    limit_report = artifacts.reports["limit"]
    assert np.isclose(limit_report.metadata["cluster_gap"], 2.0)


def test_two_ball_scenario_has_fixed_ray():
    spec = get_scenario("dr-two-balls-r3")
    assert isinstance(spec.sets["fixed-ray"], Ray)


def test_open_problems_carry_no_convergence_expectations():
    for name in ("open-problem-p1", "open-problem-p2", "open-problem-p3",
                 "open-problem-p4"):
        spec = get_scenario(name)
        for check in spec.checks:
            if check.kind == "limit":
                assert check.expect is None


# NaN entries, ragged rows, a 1-D list, no points at all
BAD_POINTS = [[[1.0, 0.0], [np.nan, 0.0], [0.5, 0.0]], [[1.0, 0.0], [0.5]], [1.0, 0.5], []]
POINTS_MESSAGE = r"trajectories.t.points: expected a nonempty finite \(n, d\) array"


def test_scenario_validation_errors(monkeypatch):
    spec = ScenarioSpec(
        name="broken",
        description="",
        topic="",
        trajectories=[TrajectoryDef("orbit", "raw", operator="missing", start=[0.0])],
    )
    with pytest.raises(ConfigError):
        run_scenario(spec)
    spec2 = ScenarioSpec(
        name="broken2",
        description="",
        topic="",
        operators={"T": Negation()},
        trajectories=[TrajectoryDef("orbit", "raw", operator="T", start=[1.0])],
        checks=[CheckDef("limit", "limit", trajectory="nonexistent")],
    )
    with pytest.raises(ConfigError):
        run_scenario(spec2)

    # checks are validated against the check-kind table before any orbit
    import fejerlab.scenarios as scenarios

    def no_orbits(*args, **kwargs):
        raise AssertionError("an orbit was built before validation")

    monkeypatch.setattr(scenarios, "iterate", no_orbits)
    # Douglas-Rachford on a half-space and a ball: no closed-form drift
    dr_mixed = DouglasRachford(Halfspace([1.0], 0.0), Ball([3.0], 1.0))
    for check, message in [
        (CheckDef("c", "fejr", "orbit", "pass"), "unknown check kind 'fejr'"),
        (CheckDef("c", "fejer", "orbit", "pass"), "missing parameter 'set'"),
        (
            CheckDef("c", "fejer", "orbit", "pass", {"set": "nope"}),
            "unknown set reference 'nope'",
        ),
        (
            CheckDef("c", "limit", "orbit", None, {"tolerance": 1e-3}),
            "unknown parameter 'tolerance'",
        ),
        (
            CheckDef("c", "codim1", "orbit", "pass", {"set": "line", "operator": "S"}),
            "unknown parameter 'operator'",
        ),
        (CheckDef("c", "codim1", None, "pass", {"set": "line"}), "missing field 'trajectory'"),
        (
            CheckDef("c", "affine_limit_sweep", None, "pass", {"instance": 3}),
            "unknown parameter 'instance'",
        ),
        (CheckDef("c", "connectivity", None, "pass"), "missing field 'trajectory'"),
        (
            CheckDef("c", "displacement_match", "orbit", None, {"operator": "D"}),
            "checks.c.params.operator: needs a Douglas-Rachford operator on two balls",
        ),
    ]:
        spec3 = ScenarioSpec(
            name="typo",
            description="",
            topic="",
            sets={"line": Hyperplane([1.0], 0.0)},
            operators={"T": Negation(), "D": dr_mixed},
            trajectories=[TrajectoryDef("orbit", "raw", operator="T", start=[1.0])],
            checks=[check],
        )
        with pytest.raises(ConfigError, match=message):
            run_scenario(spec3)

    # trajectory fields are checked per kind, also before any orbit
    from fejerlab.operators import Translation

    for tdef, message in [
        (TrajectoryDef("t", "raw", start=[1.0]), "trajectories.t: missing field 'operator'"),
        (TrajectoryDef("t", "raw", operator="T"), "trajectories.t: missing field 'start'"),
        (
            TrajectoryDef("t", "difference", operator="T", start=[1.0]),
            "trajectories.t: missing field 'partner'",
        ),
        (TrajectoryDef("t", "shadow", set_name="line"), "trajectories.t: missing field 'base'"),
        (TrajectoryDef("t", "shadow", base="orbit"), "trajectories.t: missing field 'set'"),
        (TrajectoryDef("t", "points"), "trajectories.t: missing field 'points'"),
        (TrajectoryDef("t", "normalized", base="orbit"), "trajectories.t: missing field 'shift'"),
        (
            TrajectoryDef("t", "normalized", operator="T", shift=[0.5]),
            "trajectories.t: missing field 'start'",
        ),
        (
            TrajectoryDef("t", "normalized", start=[1.0], shift=[0.5]),
            "trajectories.t: missing field 'operator'",
        ),
        (
            TrajectoryDef("t", "normalized", base="orbit", shift="two_ball"),
            "trajectories.t: missing field 'operator'",
        ),
        (
            TrajectoryDef("t", "normalized", base="orbit", shift="estimate"),
            "trajectories.t: missing field 'operator'",
        ),
        (
            TrajectoryDef("t", "normalized", operator="T", base="orbit", shift="two_ball"),
            "shift 'two_ball' needs a Douglas-Rachford operator",
        ),
        (
            TrajectoryDef("t", "normalized", operator="S", base="orbit", shift="estimate"),
            "trajectories.t: shift 'estimate' needs an operator certified averaged",
        ),
        (
            TrajectoryDef("t", "normalized", operator="T", base="orbit", shift="guess"),
            "trajectories.t: unknown shift 'guess'",
        ),
        (
            TrajectoryDef("t", "normalized", operator="D", base="orbit", shift="two_ball"),
            "trajectories.t: shift 'two_ball' needs a Douglas-Rachford operator on two balls",
        ),
        # vectors must be finite, and have the operator's dimension
        (
            TrajectoryDef("t", "raw", operator="T", start=[[1.0]]),
            r"trajectories.t.start: expected a vector, got shape \(1, 1\)",
        ),
        (
            TrajectoryDef("t", "difference", operator="T", start=[1.0], partner=[np.nan]),
            "trajectories.t.partner: non-finite coordinates",
        ),
        (
            TrajectoryDef("t", "raw", operator="L1", start=[1.0, 2.0]),
            "trajectories.t.start: expected dimension 1, got 2",
        ),
        (
            TrajectoryDef("t", "difference", operator="L2", start=[1.0, 2.0], partner=[1.0]),
            "trajectories.t.partner: expected dimension 2, got 1",
        ),
        (
            TrajectoryDef("t", "normalized", operator="L2", start=[1.0, 2.0], shift=[0.5]),
            "trajectories.t.shift: expected dimension 2, got 1",
        ),
        # explicit points form a nonempty (n, d) array of finite numbers
        *(
            (TrajectoryDef("t", "points", points=points), POINTS_MESSAGE)
            for points in BAD_POINTS
        ),
    ]:
        spec4 = ScenarioSpec(
            name="fields",
            description="",
            topic="",
            sets={"line": Hyperplane([1.0], 0.0)},
            operators={
                "T": Negation(),
                "S": Translation([1.0]),
                "D": dr_mixed,
                "L1": Linear([[0.5]]),
                "L2": Linear(0.5 * np.eye(2)),
            },
            trajectories=[TrajectoryDef("orbit", "raw", operator="T", start=[1.0]), tdef],
        )
        with pytest.raises(ConfigError, match=message):
            run_scenario(spec4)


def test_trajectory_build_errors_fail_the_checks_that_read_them():
    spec = ScenarioSpec(
        name="build-errors",
        description="",
        topic="",
        n_steps=100,
        operators={"E": Linear([[3.0]]), "G": Linear([[1.5]]), "N": Negation()},
        trajectories=[
            TrajectoryDef("blow", "raw", operator="E", start=[1.0]),
            TrajectoryDef("shifted", "normalized", base="blow", shift=[1.0]),
            TrajectoryDef(
                "diff", "difference", operator="G", start=[1.0], partner=[0.0], n_steps=20
            ),
            TrajectoryDef("lonely", "raw", operator="E", start=[2.0]),
            TrajectoryDef("ok", "raw", operator="N", start=[2.0]),
        ],
        checks=[
            CheckDef("via-base", "limit", "shifted", "converged"),
            CheckDef("direct", "asymptotic_regularity", "diff", None),
            CheckDef("fine", "limit", "ok", "oscillating"),
        ],
    )
    artifacts = run_scenario(spec)
    outcomes = {o.name: (o.actual, o.matched) for o in artifacts.summary}
    assert outcomes == {
        "via-base": ("error", False),
        "direct": ("error", False),
        "fine": ("oscillating", True),
        "trajectories.lonely": ("error", False),
    }
    assert artifacts.reports["via-base"].witness["error"].startswith(
        "trajectories.blow: NonFiniteValueError: orbit left the representable range"
    )
    assert artifacts.reports["direct"].witness["error"].startswith(
        "trajectories.diff: MonotonicityViolationError: difference norm grew"
    )
    assert list(artifacts.trajectories) == ["ok"]  # failed ones are not exported


def _count_iterate_calls(monkeypatch):
    """Count the orbits computed, wherever ``iterate`` is called from."""
    import fejerlab.dynamics as dynamics
    import fejerlab.scenarios as scenarios

    calls = []
    original = dynamics.iterate

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "iterate", counted)
    monkeypatch.setattr(scenarios, "iterate", counted)
    return calls


@pytest.mark.parametrize(
    "name, n_steps", [("negation-r1", None), ("open-problem-p3", 3000)]
)
def test_each_distinct_orbit_is_computed_once(monkeypatch, name, n_steps):
    # the difference trajectory reuses the orbit from the shared start
    calls = _count_iterate_calls(monkeypatch)
    run_scenario(get_scenario(name), n_steps=n_steps)
    assert len(calls) == 2


def test_estimated_shift_uses_the_orbit_it_normalizes(monkeypatch):
    from fejerlab.geometry import Ball
    from fejerlab.operators import DouglasRachford, two_ball_gap_vector

    A, B = Ball([0.0, 0.0, 0.0], 1.0), Ball([5.0, 0.0, 0.0], 1.0)
    spec = ScenarioSpec(
        name="estimated-shift",
        description="",
        topic="",
        n_steps=30000,
        operators={"T": DouglasRachford(A, B)},
        trajectories=[
            TrajectoryDef("orbit", "raw", operator="T", start=[0.0, 3.0, 3.0]),
            TrajectoryDef(
                "normalized", "normalized", operator="T", start=[0.0, 3.0, 3.0],
                shift="estimate",
            ),
        ],
    )
    calls = _count_iterate_calls(monkeypatch)
    built = run_scenario(spec).trajectories
    assert len(calls) == 1
    v = built["normalized"].points[1] - built["orbit"].points[1]
    assert np.linalg.norm(v - two_ball_gap_vector(A, B)) <= 1e-6


def test_each_cluster_set_is_estimated_once_per_run(monkeypatch):
    # connectivity and cluster orthogonality with the same tail_fraction and
    # radius read one cluster set; another radius gets its own, and the next
    # run estimates afresh
    calls = []
    original = scenarios.estimate_cluster_set

    def counted(trajectory, **kwargs):
        calls.append(kwargs)
        return original(trajectory, **kwargs)

    monkeypatch.setattr(scenarios, "estimate_cluster_set", counted)
    spec = get_scenario("alternating-pair")
    wide = CheckDef("wide", "connectivity", "orbit", "pass", {"radius": 1.5})
    spec = dataclasses.replace(spec, checks=[*spec.checks, wide])
    for _ in range(2):
        assert run_scenario(spec).all_matched
    once = [{"tail_fraction": 0.5, "radius": 0.1}, {"tail_fraction": 0.5, "radius": 1.5}]
    assert calls == once * 2


def test_run_overrides():
    spec = get_scenario("negation-r1")
    artifacts = run_scenario(spec, n_steps=17)
    assert len(artifacts.trajectories["orbit"]) == 18


def test_scenario_exports_are_reproducible(tmp_path):
    spec = get_scenario("alternating-pair")
    run_scenario(spec, out_dir=tmp_path / "a")
    run_scenario(get_scenario("alternating-pair"), out_dir=tmp_path / "b")
    dir_a = tmp_path / "a" / "alternating-pair"
    dir_b = tmp_path / "b" / "alternating-pair"
    files_a = sorted(p.name for p in dir_a.iterdir())
    files_b = sorted(p.name for p in dir_b.iterdir())
    assert files_a == files_b
    assert "summary.json" in files_a
    assert "orbit.csv" in files_a
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def _scalar_sweep_read_in_full(instances, seed, tol, slack_scale):
    """The failures and the converged count of run_scalar_averaged_sweep at
    its default sizes, from whole orbits and their whole difference."""
    alphas = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    rng = np.random.default_rng(seed)
    failures, converged = [], 0
    for i in range(instances):
        alpha = alphas[i % len(alphas)]
        T = ConvexCombination(alpha, Identity(), random_scalar_piecewise_linear(rng))
        x = float(rng.uniform(-10.0, 10.0))
        y = float(rng.uniform(-10.0, 10.0))
        px, py = iterate(T, [x], 100_000).points, iterate(T, [y], 100_000).points
        diff = Trajectory(px - py)
        a = diff.points[:, 0]
        slack = slack_scale * difference_monotonicity_slack(px, py)
        mag = np.abs(a)
        if float((mag[1:] - mag[:-1] - slack).max()) > 0.0:
            failures.append(
                {"instance": i, "alpha": alpha, "problem": "magnitude_monotonicity"}
            )
            continue
        est = detect_limit(diff, 1000, tol)
        if est.status != CONVERGED:
            failures.append(
                {"instance": i, "alpha": alpha, "problem": "limit", "status": est.status}
            )
            continue
        converged += 1
        beta = abs(1.0 - 2.0 * alpha)
        flips = np.nonzero(a[1:] * a[:-1] < 0.0)[0]
        if flips.size and float(
            (mag[flips + 1] - beta * mag[flips] - slack[flips]).max()
        ) > 0.0:
            failures.append(
                {"instance": i, "alpha": alpha, "problem": "sign_flip_contraction"}
            )
    return failures, converged


@pytest.mark.parametrize(
    "seed, tol, slack_scale",
    [
        (0, 1e-9, 1.0),
        (2025, 1e-9, 1.0),
        (1, 0.0, 1.0),
        # these fail an instance only in the first period of the joint cycle
        (2, 1e-9, 0.0),
        (3, 1e-9, 0.0),
        (15, 1e-9, 0.0),
    ],
)
def test_scalar_sweep_reads_orbits_up_to_their_joint_cycle(
    monkeypatch, seed, tol, slack_scale
):
    # the sweep reads its per-step checks up to the orbits' joint cycle and
    # its limit from their difference, which keeps that cycle; every outcome
    # is the whole-orbit one.
    # Instances fail too: at tol = 0 only exact fixed points converge, and
    # with no slack any growth of |a_n| in a cycle counts
    def scaled_slack(a_points, b_points):
        return slack_scale * difference_monotonicity_slack(a_points, b_points)

    # the growth test of difference_orbit and the sweep's sign-flip test
    monkeypatch.setattr(dynamics, "difference_monotonicity_slack", scaled_slack)
    monkeypatch.setattr(scenarios, "difference_monotonicity_slack", scaled_slack)
    # every failure, not only the first that the report keeps
    failures, counts, _ = run_scalar_averaged_sweep.__wrapped__(instances=27, seed=seed, tol=tol)
    assert (failures, counts["converged"]) == _scalar_sweep_read_in_full(
        27, seed, tol, slack_scale
    )
    if tol == 0.0 or slack_scale == 0.0:
        assert failures


@pytest.mark.parametrize("seed", [0, 7, 2026])
def test_random_orthogonal_draws_what_scipy_ortho_group_draws(seed):
    from scipy.stats import ortho_group

    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for dim in (1, 2, 3, 4):
        for _ in range(3):
            q = scenarios._random_orthogonal(ours, dim, min_angle=0.0)
            assert q.tobytes() == ortho_group.rvs(dim=dim, random_state=theirs).tobytes()


def test_scalar_sweep_records_its_start_span():
    rep = run_scalar_averaged_sweep(instances=2, max_steps=2000, start_span=3.0)
    assert rep.params["start_span"] == 3.0


def test_small_sweeps_pass():
    assert run_scalar_averaged_sweep(instances=12, max_steps=20000, seed=3).passed
    assert run_affine_limit_sweep(instances=6, seed=3).passed
    # instance 10 has ||I - L|| = 0.13 and a fixed direction the default
    # rank cutoff of null_space drops
    assert run_affine_limit_sweep(instances=11, seed=1167677587).passed
    assert run_codim1_sweep(instances=8, seed=3).passed
    assert run_decoupling_sweep(instances=10, seed=3).passed
    assert run_two_ball_sweep(pairs=2, n_steps=30000, seed=3).passed


_ALPHAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
_SCALAR = {"instances": 9, "alphas": _ALPHAS, "max_steps": 100_000, "tail_window": 1000,
           "tol": 1e-9, "start_span": 10.0}
_TWO_BALL = {"pairs": 2, "tail": 1000, "match_tol": 1e-6, "fejer_tol": 1e-9}

# (sweep, arguments, verdict, failures, the first failure's instance and
# problem, converged, params).  Every float compared is an argument, never a
# computed figure, so the pins do not depend on the last bits of LAPACK.
SWEEP_PINS = [
    ("run_scalar_averaged_sweep", {"instances": 9, "seed": 0}, "pass", 0, None, 9, _SCALAR),
    (
        "run_scalar_averaged_sweep", {"instances": 9, "seed": 3, "max_steps": 20_000},
        "pass", 0, None, 9, {**_SCALAR, "max_steps": 20_000},
    ),
    (
        "run_scalar_averaged_sweep", {"instances": 9, "seed": 1, "tol": 0.0},
        "fail", 2, (2, "limit"), 7, {**_SCALAR, "tol": 0.0},
    ),
    (
        "run_scalar_averaged_sweep", {"instances": 3, "max_steps": 100},
        "fail", 3, (0, "limit"), 0,
        {**_SCALAR, "instances": 3, "max_steps": 100, "tail_window": 101},
    ),
    *(
        ("run_affine_limit_sweep", {"instances": 6, "seed": seed}, "pass", 0, None, None,
         {"instances": 6, "dims": [2, 3, 4], "n_steps": 4000, "tol": 1e-6})
        for seed in (0, 3)
    ),
    *(
        ("run_codim1_sweep", {"instances": 6, "seed": seed}, "pass", 0, None, None,
         {"instances": 6, "dims": [2, 3], "n_steps": 3000})
        for seed in (0, 3)
    ),
    *(
        ("run_decoupling_sweep", {"instances": 10, "seed": seed}, *outcome, None,
         {"instances": 10, "witnesses": 10, "tol": 1e-10})
        for seed, outcome in (
            (0, ("pass", 0, None)),
            (1, ("fail", 1, (8, ["equivalence_disagrees"]))),
            (61, ("fail", 1, (3, ["equivalence_disagrees"]))),
        )
    ),
    (
        "run_two_ball_sweep", {"pairs": 2, "n_steps": 30_000, "seed": 3}, "pass", 0, None,
        None, {**_TWO_BALL, "n_steps": 30_000},
    ),
    (
        "run_two_ball_sweep", {"pairs": 2, "n_steps": 1500}, "fail", 2, (0, "displacement"),
        None, {**_TWO_BALL, "n_steps": 1500},
    ),
]


def _typed(value):
    """``value`` with the type of each number, list and string it holds."""
    if isinstance(value, dict):
        return {key: _typed(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value).__name__, value


@pytest.mark.parametrize(
    "sweep, kwargs, verdict, failures, first, converged, params",
    SWEEP_PINS,
    ids=[f"{pin[0][4:]}-{i}" for i, pin in enumerate(SWEEP_PINS)],
)
def test_each_sweep_reports_its_pinned_outcome(
    sweep, kwargs, verdict, failures, first, converged, params
):
    report = getattr(scenarios, sweep)(**kwargs)
    assert (report.verdict, report.metadata["failures"]) == (verdict, failures)
    if first is None:
        assert report.witness == {}
    else:
        failure = report.witness["first_failure"]
        instance = failure.get("instance", failure.get("pair"))
        assert (instance, failure.get("problem", failure.get("problems"))) == first
    assert report.metadata.get("converged") == converged
    assert _typed(report.params) == _typed(params)
    default_seed = inspect.signature(getattr(scenarios, sweep)).parameters["seed"].default
    assert report.seed == kwargs.get("seed", default_seed)


def test_decoupling_sweep_instances_cover_failure_modes():
    # the sweep must exercise both failure directions, not just clean passes
    from fejerlab.scenarios import _decoupling_instance

    rng = np.random.default_rng(5)
    kinds = set()
    for _ in range(30):
        for kind in ("good", "bad_fejer", "bad_cone"):
            inst = _decoupling_instance(rng, kind)
            if inst is not None:
                kinds.add(inst[3])
    assert kinds == {"good", "bad_fejer", "bad_cone"}


def test_expected_outcome_vocabulary_validated():
    spec = ScenarioSpec(
        name="bad-expect",
        description="",
        topic="",
        operators={"T": Negation()},
        trajectories=[TrajectoryDef("orbit", "raw", operator="T", start=[1.0])],
        checks=[CheckDef("limit", "limit", trajectory="orbit", expect="sideways")],
    )
    with pytest.raises(ConfigError, match="unknown expected outcome"):
        run_scenario(spec)


def test_runtime_errors_attach_to_the_failing_check():
    # a tail longer than the trajectory is a runtime error, not a crash
    from fejerlab.geometry import Ball
    from fejerlab.operators import DouglasRachford

    T = DouglasRachford(Ball([0.0, 0.0], 1.0), Ball([5.0, 0.0], 1.0))
    spec = ScenarioSpec(
        name="short-run",
        description="",
        topic="",
        n_steps=10,
        operators={"T": T},
        trajectories=[
            TrajectoryDef("orbit", "raw", operator="T", start=[0.0, 3.0])
        ],
        checks=[
            CheckDef(
                "displacement", "displacement_match", "orbit", "pass",
                {"operator": "T", "tail": 1000},
            )
        ],
    )
    artifacts = run_scenario(spec)
    outcome = artifacts.summary[0]
    assert outcome.actual == "error"
    assert not outcome.matched
    assert "error" in artifacts.reports["displacement"].witness


@pytest.mark.parametrize(
    "key, value, least",
    [("n_steps", 0, 1), ("seed", -1, 0), ("tail_window", 1, 2), ("tol", float("nan"), 0.0)],
)
def test_a_spec_built_in_python_obeys_the_number_rule(monkeypatch, key, value, least):
    # as in a config: a ConfigError with the field path, before any orbit
    def no_orbit(*args, **kwargs):
        raise AssertionError("an orbit was computed")

    monkeypatch.setattr(scenarios, "iterate", no_orbit)
    spec = ScenarioSpec(
        name="numbers",
        description="",
        topic="",
        operators={"T": Negation()},
        trajectories=[TrajectoryDef("o", "raw", operator="T", start=[1.0])],
        checks=[CheckDef("limit", "limit", "o", "oscillating")],
        **{key: value},
    )
    with pytest.raises(ConfigError) as err:
        run_scenario(spec)
    assert str(err.value) == f"scenario.{key}: must be at least {least}, got {value}"


def test_validate_stores_each_number_as_the_rule_reads_it():
    spec = ScenarioSpec(
        name="stored",
        description="",
        topic="",
        n_steps=np.int64(6),
        tol="1e-9",
        sets={"origin": Hyperplane([1.0], 0.0)},
        operators={"T": Negation()},
        trajectories=[
            TrajectoryDef("o", "raw", operator="T", start=(1,), n_steps=4.0),
            TrajectoryDef("d", "difference", operator="T", start=2, partner=np.array([0])),
        ],
        checks=[
            CheckDef("fejer", "fejer", "o", "pass", {"set": "origin", "witnesses": 3.0}),
            CheckDef("sweep", "two_ball_sweep", None, None, {"pairs": "2", "match_tol": "1e-6"}),
        ],
    )
    spec.validate()
    assert (spec.n_steps, spec.tol) == (6, 1e-9)
    assert type(spec.n_steps) is int and type(spec.tol) is float
    o, d = spec.trajectories
    assert (o.start, o.n_steps, d.start, d.partner) == ([1.0], 4, [2.0], [0.0])
    assert type(o.n_steps) is int and type(d.partner[0]) is float
    assert spec.checks[0].params == {"set": "origin", "witnesses": 3}
    assert type(spec.checks[0].params["witnesses"]) is int
    assert spec.checks[1].params == {"pairs": 2, "match_tol": 1e-6}


def test_a_nan_tolerance_fails_a_sweep_comparison(monkeypatch):
    # a NaN tolerance is refused before any orbit, as in a config
    nan = float("nan")
    with monkeypatch.context() as patch:
        patch.setattr(scenarios, "iterate", lambda *a, **k: pytest.fail("orbit computed"))
        for sweep, key in ((run_two_ball_sweep, "match_tol"), (run_affine_limit_sweep, "tol")):
            with pytest.raises(ConfigError) as err:
                sweep(**{key: nan})
            assert str(err.value) == f"{sweep.__name__}.{key}: must be at least 0.0, got nan"
    # NaN compares false: a NaN gap must count as a failure
    assert run_two_ball_sweep(pairs=2, n_steps=30_000, seed=3).verdict == "pass"
    monkeypatch.setattr(
        scenarios, "displacement_from_orbit", lambda orbit, tail: (np.full(3, nan), 0.0)
    )
    nan_gap = run_two_ball_sweep(pairs=2, n_steps=30_000, seed=3)
    assert (nan_gap.verdict, nan_gap.metadata["failures"]) == ("fail", 2)
    assert math.isnan(nan_gap.witness["first_failure"]["gap"])


def test_the_scalar_sweep_takes_a_tail_of_at_most_the_whole_orbit():
    report = run_scalar_averaged_sweep(instances=3, max_steps=100)
    assert report.verdict in ("pass", "fail")
    assert report.params["tail_window"] == 101
    assert run_scalar_averaged_sweep(instances=3, max_steps=200, tail_window=50).params[
        "tail_window"
    ] == 50


@pytest.mark.parametrize(
    "sweep, key",
    [
        (run_scalar_averaged_sweep, "alphas"),
        (run_affine_limit_sweep, "dims"),
        (run_codim1_sweep, "dims"),
    ],
)
def test_a_sweep_over_an_empty_list_is_a_value_error(sweep, key):
    # a ConfigError, which is a ValueError, as for a config's check params
    with pytest.raises(ValueError) as err:
        sweep(instances=2, **{key: ()})
    assert isinstance(err.value, ConfigError)
    assert str(err.value).startswith(f"{sweep.__name__}.{key}: must be a nonempty list of ")
    assert str(err.value).endswith(", got ()")


def test_a_trajectory_step_count_is_checked_with_the_spec():
    # as in a config, before any orbit is built
    def spec(n_steps):
        return ScenarioSpec(
            name="own-steps",
            description="",
            topic="",
            operators={"T": Negation()},
            trajectories=[TrajectoryDef("o", "raw", operator="T", start=[1.0], n_steps=n_steps)],
            checks=[CheckDef("limit", "limit", "o", "oscillating", {"tail_window": 2})],
        )

    with pytest.raises(ConfigError) as err:
        run_scenario(spec(0))
    assert str(err.value) == "trajectories.o.n_steps: must be at least 1, got 0"
    with pytest.raises(ConfigError, match=r"trajectories.o.n_steps: expected an integer"):
        run_scenario(spec(2.5))
    assert run_scenario(spec(np.int64(3))).trajectories["o"].points[:, 0].tolist() == [
        1.0, -1.0, 1.0, -1.0,
    ]


def test_nan_cluster_radius_is_a_value_error_of_the_check():
    # the radius is range-checked with the spec, before any orbit is built
    nan = float("nan")
    for kind, params in (
        ("connectivity", {"radius": nan}),
        ("cluster_orthogonality", {"set": "axis", "radius": nan}),
    ):
        spec = ScenarioSpec(
            name="nan-radius",
            description="",
            topic="",
            sets={"axis": Hyperplane([1.0, 0.0], 0.0)},
            trajectories=[TrajectoryDef("orbit", "harmonic_rotation")],
            checks=[CheckDef("clusters", kind, "orbit", "fail", params)],
        )
        with pytest.raises(ConfigError) as err:
            run_scenario(spec, n_steps=20)
        assert str(err.value) == (
            "checks.clusters.params.radius: must be null or a number > 0, got nan"
        )


@pytest.mark.parametrize(
    "kind, params",
    [
        ("scalar_averaged_sweep", {"instances": 0}),
        ("codim1_sweep", {"instances": -3}),
        ("two_ball_sweep", {"pairs": 0}),
    ],
)
def test_a_sweep_over_no_instances_is_an_error_not_a_pass(kind, params):
    # a sweep that checks nothing must not report pass
    ((key, count),) = params.items()
    spec = ScenarioSpec(
        name="empty-sweep",
        description="",
        topic="",
        checks=[CheckDef("sweep", kind, None, "pass", params)],
    )
    with pytest.raises(ConfigError) as err:
        run_scenario(spec, n_steps=20)
    assert str(err.value) == f"checks.sweep.params.{key}: must be at least 1, got {count}"
    with pytest.raises(ConfigError) as err:
        getattr(scenarios, f"run_{kind}")(**params)
    assert str(err.value) == f"run_{kind}.{key}: must be at least 1, got {count}"


# Every check kind's config surface: the params it accepts with their resolved
# defaults ("run" for the run's value), its set and operator references, and
# whether it reads a trajectory, the trajectory's cluster set, or neither.
CHECK_KIND_SURFACE = {
    "fejer": ({"witnesses": 10, "seed": "run", "tol": 1e-10}, ("set",), (), "trajectory"),
    "asymptotic_regularity": ({"tol": 1e-9}, (), (), "trajectory"),
    "limit": ({"tail_window": "run", "tol": "run"}, (), (), "trajectory"),
    "connectivity": ({"tail_fraction": 0.5, "radius": None}, (), (), "cluster"),
    "cluster_orthogonality": (
        {"tail_fraction": 0.5, "radius": None, "witnesses": 10, "seed": "run", "tol": 1e-8},
        ("set",), (), "cluster",
    ),
    "sum_decoupling": (
        {"witnesses": 10, "seed": "run", "tol": 1e-10}, ("summand", "cone"), (), "trajectory",
    ),
    "shadow_superset": (
        {"tol": 1e-6, "witnesses": 10, "seed": "run"}, ("inner", "outer"), (), "trajectory",
    ),
    "codim1": ({"seed": "run"}, ("set",), (), "trajectory"),
    "nonexpansive": (
        {"trials": 1000, "seed": "run", "tol": 1e-9, "dim": None}, (), ("operator",), None,
    ),
    "displacement_match": ({"tail": 1000, "tol": 1e-6}, (), ("operator",), "trajectory"),
    "scalar_averaged_sweep": (
        {
            "instances": 200, "alphas": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
            "seed": 2025, "max_steps": 100_000, "tail_window": 1000, "tol": 1e-9,
            "start_span": 10.0,
        },
        (), (), None,
    ),
    "affine_limit_sweep": (
        {"instances": 50, "dims": (2, 3, 4), "seed": 2026, "n_steps": 4000, "tol": 1e-6},
        (), (), None,
    ),
    "codim1_sweep": (
        {"instances": 50, "dims": (2, 3), "seed": 2027, "n_steps": 3000}, (), (), None,
    ),
    "decoupling_sweep": (
        {"instances": 50, "seed": 2028, "witnesses": 10, "tol": 1e-10}, (), (), None,
    ),
    "two_ball_sweep": (
        {
            "pairs": 20, "seed": 2029, "n_steps": 100_000, "tail": 1000,
            "match_tol": 1e-6, "fejer_tol": 1e-9,
        },
        (), (), None,
    ),
}


def test_the_check_kind_table_keeps_its_config_surface():
    assert set(scenarios.CHECK_KINDS) == set(CHECK_KIND_SURFACE)
    for name, kind in scenarios.CHECK_KINDS.items():
        defaults = {
            key: "run" if value is scenarios.FROM_RUN else value
            for key, value in kind.defaults.items()
        }
        reads = "cluster" if kind.on_clusters else "trajectory" if kind.needs_trajectory else None
        surface = (defaults, tuple(kind.sets), tuple(kind.operators), reads)
        assert surface == CHECK_KIND_SURFACE[name], name


@pytest.mark.parametrize(
    "kind, params",
    [
        ("fejer", {"set": "axis", "witness_radius": 1.0}),
        ("cluster_orthogonality", {"set": "axis", "witness_radius": 1.0}),
        ("nonexpansive", {"operator": "T", "box": 1.0}),
        ("codim1", {"set": "axis", "witnesses": 3}),
        ("codim1", {"set": "axis", "fejer_tol": 1e-9}),
        ("codim1", {"set": "axis", "ar_tol": 1e-9}),
        ("codim1", {"set": "axis", "limit_tol": 1e-9}),
        ("codim1", {"set": "axis", "tail_window": 10}),
        ("shadow_superset", {"inner": "axis", "outer": "axis", "tail_window": 10}),
        ("connectivity", {"tol": 1e-9}),
    ],
)
def test_a_checker_param_the_kind_does_not_accept_is_refused(kind, params):
    spec = ScenarioSpec(
        name="unaccepted",
        description="",
        topic="",
        sets={"axis": Hyperplane([1.0, 0.0], 0.0)},
        operators={"T": Negation()},
        trajectories=[TrajectoryDef("orbit", "harmonic_rotation")],
        checks=[CheckDef("check", kind, "orbit", None, params)],
    )
    key = list(params)[-1]
    with pytest.raises(ConfigError, match=f"^checks.check.params: unknown parameter '{key}'$"):
        spec.validate()


def _walk_spec(trajectories, checks=(), sets=None):
    return ScenarioSpec(
        name="dims",
        description="",
        topic="",
        sets=sets or {},
        operators={"T": Negation(), "I": Identity()},
        trajectories=[
            TrajectoryDef("walk", "points", points=[[2.0, 0.0], [1.0, 0.0]]),
            *trajectories,
        ],
        checks=list(checks),
    )


@pytest.mark.parametrize(
    "trajectories, checks, sets, message",
    [
        (
            [],
            [CheckDef("fejer", "fejer", "walk", "pass", {"set": "p"})],
            {"p": Point([0.0, 0.0, 0.0])},
            "checks.fejer.params.set: set 'p' has dimension 3, trajectory 'walk' has dimension 2",
        ),
        (
            [TrajectoryDef("circle", "harmonic_rotation")],
            [CheckDef("dec", "sum_decoupling", "circle", "pass", {"summand": "p", "cone": "k"})],
            {"p": Point([0.0, 0.0]), "k": Ray([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])},
            "checks.dec.params.cone: set 'k' has dimension 3, trajectory 'circle' has dimension 2",
        ),
        (
            [TrajectoryDef("orbit", "raw", operator="T", start=[1.0])],
            [CheckDef("clusters", "cluster_orthogonality", "orbit", "pass", {"set": "p"})],
            {"p": Point([0.0, 0.0])},
            "checks.clusters.params.set: set 'p' has dimension 2, trajectory 'orbit' has dimension 1",
        ),
        (
            [TrajectoryDef("shadow", "shadow", base="walk", set_name="b")],
            [],
            {"b": Ball([0.0, 0.0, 0.0], 1.0)},
            "trajectories.shadow.set: set 'b' has dimension 3, base 'walk' has dimension 2",
        ),
        (
            [TrajectoryDef("nz", "normalized", base="walk", shift=[1.0, 0.0, 0.0])],
            [],
            None,
            "trajectories.nz.shift: expected dimension 2, got 3",
        ),
        (
            [TrajectoryDef("nz", "normalized", operator="I", start=[1.0, 2.0], shift=[1.0])],
            [],
            None,
            "trajectories.nz.shift: expected dimension 2, got 1",
        ),
        (
            [TrajectoryDef("diff", "difference", operator="I", start=[1.0], partner=[1.0, 2.0])],
            [],
            None,
            "trajectories.diff.partner: expected dimension 1, got 2",
        ),
    ],
    ids=[
        "fejer-set", "decoupling-cone", "orthogonality-set", "shadow-set", "base-shift",
        "start-shift", "partner",
    ],
)
def test_a_set_or_vector_of_another_dimension_than_its_trajectory_is_refused(
    monkeypatch, trajectories, checks, sets, message
):
    # refused with the spec, before any orbit is computed
    monkeypatch.setattr(scenarios, "iterate", lambda *a, **k: pytest.fail("orbit computed"))
    spec = _walk_spec(trajectories, checks, sets)
    with pytest.raises(ConfigError) as err:
        run_scenario(spec)
    assert str(err.value) == message


def test_a_set_of_the_trajectory_dimension_passes_validation():
    spec = _walk_spec(
        [
            TrajectoryDef("shadow", "shadow", base="walk", set_name="b"),
            TrajectoryDef("nz", "normalized", base="shadow", shift=[1.0, 0.0]),
        ],
        [
            CheckDef("fejer", "fejer", "nz", None, {"set": "b"}),
            CheckDef("walk-fejer", "fejer", "walk", "pass", {"set": "b"}),
        ],
        {"b": Ball([0.0, 0.0], 1.0)},
    )
    assert all(o.matched for o in run_scenario(spec).summary)


def _operator_spec(trajectories, checks):
    spec = _walk_spec(trajectories, checks)
    spec.operators.update(
        D=DouglasRachford(Ball([0.0, 0.0, 0.0], 1.0), Ball([5.0, 0.0, 0.0], 1.0)),
        L=Linear(np.eye(2)),
    )
    return spec


@pytest.mark.parametrize(
    "trajectories, checks, message",
    [
        (
            [],
            [CheckDef("dm", "displacement_match", "walk", "pass", {"operator": "D", "tail": 1})],
            "checks.dm.params.operator: operator 'D' has dimension 3, "
            "trajectory 'walk' has dimension 2",
        ),
        (
            [TrajectoryDef("nz", "normalized", operator="D", base="walk", shift="two_ball")],
            [],
            "trajectories.nz.operator: operator 'D' has dimension 3, base 'walk' has dimension 2",
        ),
        (
            [],
            [CheckDef("ne", "nonexpansive", None, "pass", {"operator": "L", "dim": 3})],
            "checks.ne.params.dim: operator 'L' has dimension 2, got 3",
        ),
    ],
    ids=["check-operator", "shift-operator", "nonexpansive-dim"],
)
def test_an_operator_of_another_dimension_is_refused(monkeypatch, trajectories, checks, message):
    # refused with the spec, before any orbit is computed
    monkeypatch.setattr(scenarios, "iterate", lambda *a, **k: pytest.fail("orbit computed"))
    with pytest.raises(ConfigError) as err:
        run_scenario(_operator_spec(trajectories, checks))
    assert str(err.value) == message


def test_an_operator_of_the_dimension_or_of_none_passes_validation():
    # identity has no dimension: it fits a 2-D walk and a 3-D dim; the
    # estimated shift reads a walk of three rows, the least it accepts
    walk3 = TrajectoryDef("walk3", "points", points=[[2.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    nz = TrajectoryDef("nz", "normalized", operator="I", base="walk3", shift="estimate")
    _operator_spec([walk3, nz], []).validate()
    spec = _operator_spec(
        [],
        [
            CheckDef("ne-own", "nonexpansive", None, "pass", {"operator": "L", "dim": 2}),
            CheckDef("ne-free", "nonexpansive", None, "pass", {"operator": "I", "dim": 3}),
        ],
    )
    reports = run_scenario(spec).reports
    assert (reports["ne-own"].params["dim"], reports["ne-free"].params["dim"]) == (2, 3)
