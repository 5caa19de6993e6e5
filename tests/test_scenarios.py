import numpy as np
import pytest

from fejerlab import scenarios
from fejerlab.dynamics import (
    CONVERGED,
    Trajectory,
    detect_limit,
    difference_monotonicity_slack,
    iterate,
)
from fejerlab.errors import ConfigError
from fejerlab.geometry import Ball, Halfspace, Hyperplane, Ray
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
    alternating_sequence,
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
    alt = alternating_sequence(4)
    assert np.array_equal(alt[:, 0], [1.0, -1.0, 1.0, -1.0, 1.0])
    assert np.all(alt[:, 1] == 0.0)
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
        est = detect_limit(diff, 1000, tol)
        if est.status != CONVERGED:
            failures.append(
                {"instance": i, "alpha": alpha, "problem": "limit", "status": est.status}
            )
            continue
        converged += 1
        a = diff.points[:, 0]
        slack = slack_scale * difference_monotonicity_slack(px, py)
        mag = np.abs(a)
        if float((mag[1:] - mag[:-1] - slack).max()) > 0.0:
            failures.append(
                {"instance": i, "alpha": alpha, "problem": "magnitude_monotonicity"}
            )
            continue
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
    # its limit from the two tails; every outcome is the whole-orbit one.
    # Instances fail too: at tol = 0 only exact fixed points converge, and
    # with no slack any growth of |a_n| in a cycle counts
    seen = []

    def recording_report(checker, failures, params, seed, **counts):
        seen.append((failures, counts["converged"]))

    def scaled_slack(a_points, b_points):
        return slack_scale * difference_monotonicity_slack(a_points, b_points)

    monkeypatch.setattr(scenarios, "_sweep_report", recording_report)
    monkeypatch.setattr(scenarios, "difference_monotonicity_slack", scaled_slack)
    run_scalar_averaged_sweep(instances=27, seed=seed, tol=tol)
    assert seen == [_scalar_sweep_read_in_full(27, seed, tol, slack_scale)]
    if tol == 0.0 or slack_scale == 0.0:
        assert seen[0][0]


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
            trajectories=[TrajectoryDef("orbit", "alternating")],
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
    with pytest.raises(ConfigError, match=f"^checks.sweep.params.{key}: must be an integer >= 1"):
        run_scenario(spec, n_steps=20)
    with pytest.raises(ValueError, match=f"^{key} must be >= 1, got {count}$"):
        getattr(scenarios, f"run_{kind}")(**params)
