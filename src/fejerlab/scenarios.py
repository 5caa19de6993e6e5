"""Built-in experiment scenarios, parameter sweeps, and the scenario runner.

A scenario is declarative: named sets, named operator expressions, trajectory
definitions, and an ordered list of checks with expected verdicts.  A check
whose ``expect`` is None is evidence-only: its outcome is recorded but
counted as a mismatch only when it ends in an error (used for the open
exploratory questions, where a convergence verdict would overclaim).  A
trajectory that cannot be built fails every check that reads it.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    check_asymptotic_regularity,
    check_cluster_orthogonality,
    check_codim1_theorem,
    check_connectivity,
    check_fejer,
    check_shadow_superset,
    check_sum_decoupling,
    estimate_cluster_set,
)
from .dynamics import (
    CONVERGED,
    DIVERGING,
    OSCILLATING,
    Trajectory,
    detect_limit,
    difference_monotonicity_slack,
    difference_orbit,
    displacement_from_orbit,
    estimate_displacement,
    iterate,
    normalized_from_raw,
    periodic_rows,
    shadow,
)
from .errors import ConfigError
from .exports import export_run
from .geometry import (
    Ball,
    ConvexSet,
    Hyperplane,
    LinearSubspace,
    Orthant,
    Point,
    Ray,
    as_vector,
)
from .operators import (
    AffineMap,
    ConvexCombination,
    DouglasRachford,
    Identity,
    Negation,
    Reflector,
    ScalarPiecewiseLinear,
    Translation,
    certify,
    fixed_point_system,
    fixed_set_description,
    random_scalar_piecewise_linear,
    two_ball_gap_vector,
    verify_nonexpansive,
)
from .report import VERDICTS, DiagnosticsReport

__all__ = [
    "TrajectoryDef",
    "CheckDef",
    "ScenarioSpec",
    "CheckOutcome",
    "RunArtifacts",
    "alternating_sequence",
    "harmonic_rotation_sequence",
    "run_scalar_averaged_sweep",
    "run_affine_limit_sweep",
    "run_codim1_sweep",
    "run_decoupling_sweep",
    "run_two_ball_sweep",
    "list_scenarios",
    "get_scenario",
    "run_scenario",
]


# ---------------------------------------------------------------------------
# Example sequences
# ---------------------------------------------------------------------------


def alternating_sequence(n_steps: int) -> np.ndarray:
    """x_n = ((-1)^n, 0): constant distances to the vertical axis, no limit."""
    pts = np.zeros((n_steps + 1, 2))
    pts[:, 0] = (-1.0) ** np.arange(n_steps + 1)
    return pts


def harmonic_rotation_sequence(n_steps: int) -> np.ndarray:
    """Unit-circle walk with angle increments 1/k.

    Steps vanish like 1/n while the partial angles diverge, so every circle
    point is a cluster point.
    """
    theta = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, n_steps + 1))])
    return np.column_stack([np.cos(theta), np.sin(theta)])


# ---------------------------------------------------------------------------
# Parameter sweeps (aggregate checks reused by the acceptance suite)
# ---------------------------------------------------------------------------


def _require_some(name: str, count) -> None:
    """A sweep over no instances would pass having checked nothing."""
    if not count >= 1:
        raise ValueError(f"{name} must be >= 1, got {count}")


def _sweep_report(checker, failures, params, seed, **counts) -> DiagnosticsReport:
    """The first failed instance, if any, is the witness."""
    return DiagnosticsReport.from_witness(
        checker,
        {"first_failure": failures[0]} if failures else None,
        params=params,
        seed=seed,
        metadata={**counts, "failures": len(failures)},
    )


def run_scalar_averaged_sweep(
    instances: int = 200,
    alphas: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    seed: int = 2025,
    max_steps: int = 100_000,
    tail_window: int = 1000,
    tol: float = 1e-9,
    start_span: float = 10.0,
) -> DiagnosticsReport:
    """Difference orbits of averaged scalar maps must converge.

    For T = (1-a) Id + a R with a random nonexpansive piecewise-linear R, the
    sequence a_n = T^n x - T^n y is checked for (i) convergence within
    ``max_steps``, (ii) |a_{n+1}| <= |a_n|, and (iii) the contraction
    |a_{n+1}| <= |1 - 2a| |a_n| at every sign change.
    """
    _require_some("instances", instances)
    rng = np.random.default_rng(seed)
    failures = []
    converged = 0
    for i in range(instances):
        alpha = float(alphas[i % len(alphas)])
        R = random_scalar_piecewise_linear(rng)
        T = ConvexCombination(alpha, Identity(), R)
        x = float(rng.uniform(-start_span, start_span))
        y = float(rng.uniform(-start_span, start_span))
        orbit_x = iterate(T, [x], max_steps)
        orbit_y = iterate(T, [y], max_steps)
        # detect_limit reads the tail only
        tail = orbit_x.tail(tail_window) - orbit_y.tail(tail_window)
        est = detect_limit(Trajectory._own(tail), tail_window, tol)
        if est.status != CONVERGED:
            failures.append(
                {"instance": i, "alpha": alpha, "problem": "limit", "status": est.status}
            )
            continue
        converged += 1
        # the per-step checks below see every value in the rows before the
        # two orbits' joint cycle repeats
        rows = periodic_rows(orbit_x, orbit_y)
        head_x, head_y = orbit_x.points[:rows], orbit_y.points[:rows]
        a = head_x[:, 0] - head_y[:, 0]
        # slack scaled by the iterate magnitude: the difference of two large
        # floating-point orbits cannot be monotone to an absolute 1e-12
        slack = difference_monotonicity_slack(head_x, head_y)
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
    params = {
        "instances": instances,
        "alphas": list(alphas),
        "max_steps": max_steps,
        "tail_window": tail_window,
        "tol": tol,
        "start_span": start_span,
    }
    return _sweep_report(
        "scalar_averaged_sweep", failures, params, seed, converged=converged
    )


def _random_orthogonal(rng, dim: int, min_angle: float = 0.3) -> np.ndarray:
    """Random orthogonal matrix whose nontrivial rotation angles are bounded
    away from zero, keeping orbit convergence observable at desk scale."""
    for _ in range(100):
        # Haar-distributed, drawn as scipy.stats.ortho_group.rvs draws it
        q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
        d = r.diagonal()
        q *= (d / abs(d))[np.newaxis, :]
        angles = np.abs(np.angle(np.linalg.eigvals(q)))
        nontrivial = angles[angles > 1e-9]
        if nontrivial.size == 0 or float(nontrivial.min()) >= min_angle:
            return q
    raise RuntimeError("could not draw a well-conditioned rotation")


def run_affine_limit_sweep(
    instances: int = 50,
    dims: tuple = (2, 3, 4),
    seed: int = 2026,
    n_steps: int = 4000,
    tol: float = 1e-6,
) -> DiagnosticsReport:
    """Difference orbits of averaged affine maps converge to the null-space
    projection of the start difference.

    L = (1-a) Id + a Q with Q orthogonal; the independent oracle projects
    x - y onto null(Id - L) via an orthonormal null-space basis.
    """
    _require_some("instances", instances)
    from scipy.linalg import null_space

    rng = np.random.default_rng(seed)
    failures = []
    for i in range(instances):
        d = int(dims[i % len(dims)])
        q = _random_orthogonal(rng, d)
        alpha = float(rng.uniform(0.3, 0.7))
        L = (1.0 - alpha) * np.eye(d) + alpha * q
        T = AffineMap(L, rng.uniform(-2, 2, d))
        x0 = rng.uniform(-10, 10, d)
        y0 = rng.uniform(-10, 10, d)
        diff = difference_orbit(iterate(T, x0, n_steps), iterate(T, y0, n_steps))
        est = detect_limit(diff, min(500, n_steps), 1e-9)
        M, rcond = fixed_point_system(L)
        null = null_space(M, rcond=rcond)
        target = null @ (null.T @ (x0 - y0)) if null.size else np.zeros(d)
        if est.status != CONVERGED:
            failures.append({"instance": i, "problem": "limit", "status": est.status})
        elif float(np.linalg.norm(est.limit - target)) > tol:
            failures.append(
                {
                    "instance": i,
                    "problem": "limit_mismatch",
                    "gap": float(np.linalg.norm(est.limit - target)),
                }
            )
    params = {"instances": instances, "dims": list(dims), "n_steps": n_steps, "tol": tol}
    return _sweep_report("affine_limit_sweep", failures, params, seed)


def run_codim1_sweep(
    instances: int = 50,
    dims: tuple = (2, 3),
    seed: int = 2027,
    n_steps: int = 3000,
) -> DiagnosticsReport:
    """Under-relaxed hyperplane reflections must satisfy the codimension-1
    convergence guarantee: hypotheses verified, orbit converged.

    Any hypotheses-pass/no-convergence outcome is a FAIL of the whole sweep.
    """
    _require_some("instances", instances)
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(instances):
        d = int(dims[i % len(dims)])
        normal = rng.normal(size=d)
        normal /= np.linalg.norm(normal)
        C = Hyperplane(normal, float(rng.uniform(-2, 2)))
        alpha = float(rng.uniform(0.05, 0.95))
        T = ConvexCombination(alpha, Identity(), Reflector(C))
        x0 = rng.uniform(-5, 5, d)
        rep = check_codim1_theorem(C, iterate(T, x0, n_steps), seed=i, tail_window=500)
        if not rep.passed:
            failures.append(
                {"instance": i, "verdict": rep.verdict, "witness": rep.witness}
            )
    params = {"instances": instances, "dims": list(dims), "n_steps": n_steps}
    return _sweep_report("codim1_sweep", failures, params, seed)


def _dual_cone_interior_point(rng, K: ConvexSet, margin: float = 0.3) -> np.ndarray:
    d = K.dim
    z = rng.normal(size=d)
    if isinstance(K, Ray):
        u = z - min(0.0, float(z @ K.direction)) * K.direction + margin * K.direction
        return u
    if isinstance(K, Orthant):
        return K.signs * (np.abs(z) + margin)
    if isinstance(K, LinearSubspace):
        u = z - K.basis.T @ (K.basis @ z)
        if np.linalg.norm(u) < margin:
            from scipy.linalg import null_space

            comp = null_space(K.basis)
            u = u + margin * comp[:, 0]
        return u
    raise ConfigError(f"unsupported cone {type(K).__name__}")


def _cone_generator(rng, K: ConvexSet) -> np.ndarray:
    if isinstance(K, Ray):
        return K.direction.copy()
    if isinstance(K, Orthant):
        i = int(rng.integers(K.dim))
        e = np.zeros(K.dim)
        e[i] = K.signs[i]
        return e
    if isinstance(K, LinearSubspace):
        return K.basis[0].copy()
    raise ConfigError(f"unsupported cone {type(K).__name__}")


def _decoupling_instance(rng, kind: str):
    """One seeded instance for the decoupling equivalence sweep.

    good:      straight approach toward the summand with steps in the dual
               cone (the true property holds, with margin).
    bad_fejer: one step moves outward, so the distance to the summand anchor
               grows; both the decoupled and the direct check must fail.
    bad_cone:  distances to the (point) summand keep shrinking but one step
               rotates against a cone generator, leaving the dual cone; the
               direct Minkowski-sum check must fail through a cone witness.
    """
    d = int(rng.integers(2, 5))
    cone_choice = int(rng.integers(3))
    if cone_choice == 0:
        K = Ray(np.zeros(d), rng.normal(size=d))
    elif cone_choice == 1:
        K = Orthant(np.where(rng.uniform(size=d) < 0.5, -1.0, 1.0))
    else:
        k = int(rng.integers(1, d))
        K = LinearSubspace(np.linalg.qr(rng.normal(size=(d, k)))[0].T)
    if kind == "bad_cone":
        E = Point(rng.uniform(-2, 2, d))
    elif int(rng.integers(2)) == 0:
        E = Point(rng.uniform(-2, 2, d))
    else:
        E = Ball(rng.uniform(-2, 2, d), float(rng.uniform(0.3, 1.0)))
    anchor = E.anchor()
    u = _dual_cone_interior_point(rng, K)
    w = -u
    wn = float(np.linalg.norm(w))
    r = E.radius if isinstance(E, Ball) else 0.0
    t_min = 1.05 * r / wn if r else 0.2
    ts = np.geomspace(4.0 * t_min + 3.0, t_min, 12)
    pts = anchor + ts[:, None] * w

    if kind == "bad_fejer":
        pts[6] = anchor + (ts[5] * 2.0) * w  # outward jump
    elif kind == "bad_cone":
        k0 = _cone_generator(rng, K)
        w_hat = w / wn
        m = -k0 - float(-k0 @ w_hat) * w_hat
        mn = float(np.linalg.norm(m))
        if mn < 1e-9:
            return None  # generator parallel to the approach: redraw
        m_hat = m / mn
        j = 5
        radius_next = 0.995 * ts[j] * wn
        phi = 0.5
        cand = anchor + radius_next * (np.cos(phi) * w_hat + np.sin(phi) * m_hat)
        step = cand - pts[j]
        if float(step @ k0) > -0.05:
            return None  # rotation failed to leave the dual cone: redraw
        pts = np.vstack([pts[: j + 1], cand])
    return Trajectory(pts), E, K, kind


def run_decoupling_sweep(
    instances: int = 50,
    seed: int = 2028,
    witnesses: int = 10,
    tol: float = 1e-10,
) -> DiagnosticsReport:
    """The decoupled Fejer check (vs E, plus steps in the dual cone) must
    agree in verdict with the direct check against E + K on every instance."""
    _require_some("instances", instances)
    rng = np.random.default_rng(seed)
    kinds = ["good", "bad_fejer", "good", "bad_cone", "good"]
    failures = []
    built = 0
    while built < instances:
        kind = kinds[built % len(kinds)]
        inst = _decoupling_instance(rng, kind)
        if inst is None:
            continue
        traj, E, K, kind = inst
        rep = check_sum_decoupling(traj, E, K, witnesses=witnesses, seed=built, tol=tol)
        expected_pass = kind == "good"
        problems = []
        if rep.metadata["equivalence_agrees"] is not True:
            problems.append("equivalence_disagrees")
        if rep.passed != expected_pass:
            problems.append(f"expected {'pass' if expected_pass else 'fail'}")
        if problems:
            failures.append(
                {
                    "instance": built,
                    "kind": kind,
                    "problems": problems,
                    "metadata": rep.metadata,
                }
            )
        built += 1
    params = {"instances": instances, "witnesses": witnesses, "tol": tol}
    return _sweep_report("decoupling_sweep", failures, params, seed)


def run_two_ball_sweep(
    pairs: int = 20,
    seed: int = 2029,
    n_steps: int = 100_000,
    tail: int = 1000,
    match_tol: float = 1e-6,
    fejer_tol: float = 1e-9,
) -> DiagnosticsReport:
    """Two-ball splitting drift: tail estimate vs closed form, plus Fejer
    monotonicity of the drift-compensated orbit with respect to the fixed ray.
    """
    _require_some("pairs", pairs)
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(pairs):
        ra, rb = rng.uniform(0.5, 2.0, 2)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        dist = float(rng.uniform(ra + rb + 0.5, 10.0))
        ca = rng.uniform(-2, 2, 3)
        cb = ca + dist * direction
        A, B = Ball(ca, float(ra)), Ball(cb, float(rb))
        T = DouglasRachford(A, B)
        x0 = ca + rng.uniform(-3, 3, 3)
        orbit = iterate(T, x0, n_steps)
        v_est, residual = displacement_from_orbit(orbit, tail)
        v_closed = two_ball_gap_vector(A, B)
        gap = float(np.linalg.norm(v_est - v_closed))
        if gap > match_tol:
            failures.append({"pair": i, "problem": "displacement", "gap": gap})
            continue
        ray = fixed_set_description(T, v_closed)
        normalized = normalized_from_raw(orbit, v_closed)
        rep = check_fejer(
            normalized, ray, witnesses=10, seed=i, tol=fejer_tol
        )
        if not rep.passed:
            failures.append({"pair": i, "problem": "fejer", "witness": rep.witness})
    params = {
        "pairs": pairs,
        "n_steps": n_steps,
        "tail": tail,
        "match_tol": match_tol,
        "fejer_tol": fejer_tol,
    }
    return _sweep_report("two_ball_sweep", failures, params, seed)


# ---------------------------------------------------------------------------
# Scenario model
# ---------------------------------------------------------------------------

# report verdicts, plus the statuses a limit check reports
EXPECTED_OUTCOMES = {*VERDICTS, CONVERGED, DIVERGING, OSCILLATING}


@dataclass
class TrajectoryDef:
    """How to build one named trajectory of a scenario."""

    name: str
    kind: str  # a key of TRAJECTORY_KINDS
    operator: str | None = None
    start: list | None = None
    partner: list | None = None
    shift: list | str | None = None  # vector, "two_ball", or "estimate"
    base: str | None = None
    set_name: str | None = None
    points: list | None = None
    n_steps: int | None = None


@dataclass
class CheckDef:
    """One checker invocation with an optional expected outcome.

    ``expect`` is a report verdict (pass/fail/inconclusive), a limit status
    for kind="limit", or None for evidence-only checks.
    """

    name: str
    kind: str  # a key of CHECK_KINDS
    trajectory: str | None = None
    expect: str | None = None
    params: dict = field(default_factory=dict)


@dataclass
class ScenarioSpec:
    name: str
    description: str
    topic: str
    n_steps: int = 1000
    seed: int = 0
    tol: float = 1e-9
    tail_window: int = 1000
    sets: dict = field(default_factory=dict)
    operators: dict = field(default_factory=dict)
    trajectories: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    def validate(self) -> None:
        """Check every name, kind and check parameter against the tables."""
        names = set()
        for t in self.trajectories:
            path = f"trajectories.{t.name}"
            if t.name in names:
                raise ConfigError(f"trajectories: duplicate name {t.name!r}")
            names.add(t.name)
            if t.kind not in TRAJECTORY_KINDS:
                raise ConfigError(f"{path}: unknown trajectory kind {t.kind!r}")
            if t.operator is not None and t.operator not in self.operators:
                raise ConfigError(f"{path}: unknown operator {t.operator!r}")
            if t.set_name is not None and t.set_name not in self.sets:
                raise ConfigError(f"{path}: unknown set {t.set_name!r}")
            if t.base is not None and t.base not in names:
                raise ConfigError(f"{path}: base {t.base!r} must be defined earlier")
            required = TRAJECTORY_KINDS[t.kind][1]
            if callable(required):
                required = required(t)
            for key in required:
                if getattr(t, key) is None:
                    # set_name is spelled "set" in a config
                    key = "set" if key == "set_name" else key
                    raise ConfigError(f"{path}: missing field {key!r}")
            # finite vectors, of the operator's dimension where it has one
            dim = self.operators[t.operator].dim if t.operator is not None else None
            for key in ("start", "partner", "shift"):
                value = getattr(t, key)
                if value is not None and not isinstance(value, str):
                    try:
                        as_vector(value, dim)
                    except ValueError as exc:
                        raise ConfigError(f"{path}.{key}: {exc}") from exc
            if t.points is not None:
                try:
                    pts = np.asarray(t.points, dtype=float)
                except (TypeError, ValueError):  # ragged rows or non-numbers
                    pts = np.empty(0)
                if pts.ndim != 2 or not pts.size or not np.isfinite(pts).all():
                    raise ConfigError(f"{path}.points: expected a nonempty finite (n, d) array")
            if "shift" in required and isinstance(t.shift, str):
                if t.shift not in _SHIFTS:
                    raise ConfigError(f"{path}: unknown shift {t.shift!r}")
                needs, accepts, _ = _SHIFTS[t.shift]
                if not accepts(self.operators[t.operator]):
                    raise ConfigError(f"{path}: shift {t.shift!r} needs {needs}")
        check_names = set()
        for c in self.checks:
            if c.name in check_names:
                raise ConfigError(f"checks: duplicate name {c.name!r}")
            check_names.add(c.name)
            kind = CHECK_KINDS.get(c.kind)
            if kind is None:
                raise ConfigError(f"checks.{c.name}: unknown check kind {c.kind!r}")
            if c.trajectory is not None and c.trajectory not in names:
                raise ConfigError(
                    f"checks.{c.name}: unknown trajectory {c.trajectory!r}"
                )
            if kind.needs_trajectory and c.trajectory is None:
                raise ConfigError(f"checks.{c.name}: missing field 'trajectory'")
            if c.expect is not None and c.expect not in EXPECTED_OUTCOMES:
                raise ConfigError(
                    f"checks.{c.name}: unknown expected outcome {c.expect!r}"
                )
            kind.validate(c.params, self, f"checks.{c.name}.params")


# The least value of each top-level number of a spec (a limit check needs a
# tail of two points; RNG seeds are nonnegative), and the coercion for each
# field type.  Config files and the overrides of run_scenario obey this rule;
# an infinite float breaks it too.
SPEC_LEAST = {"n_steps": 1, "seed": 0, "tol": 0.0, "tail_window": 2}
_CASTS = {"int": int, "float": float}


def spec_number(name: str, value, path: str):
    """``value`` as the number field ``name`` of a :class:`ScenarioSpec`."""
    cast = _CASTS[ScenarioSpec.__dataclass_fields__[name].type]
    # int() would turn true into 1 and truncate 12.7 to 12
    truncates = cast is int and isinstance(value, float) and not value.is_integer()
    try:
        if isinstance(value, bool) or truncates:
            raise ValueError
        out = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        noun = "an integer" if cast is int else "a number"
        raise ConfigError(f"{path}: expected {noun}, got {value!r}") from exc
    least = SPEC_LEAST[name]
    if not out >= least:  # NaN fails the comparison too
        raise ConfigError(f"{path}: must be at least {least}, got {out}")
    if math.isinf(out):
        raise ConfigError(f"{path}: must be finite, got {out}")
    return out


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    expected: str | None
    actual: str
    matched: bool


@dataclass
class RunArtifacts:
    """Everything a scenario run produced."""

    scenario: str
    trajectories: dict
    reports: dict
    summary: list

    @property
    def all_matched(self) -> bool:
        return all(o.matched for o in self.summary)


# ---------------------------------------------------------------------------
# Trajectory kinds
# ---------------------------------------------------------------------------


def _vector(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


# What an operator must be for the closed-form two-ball drift, and the test.
_TWO_BALL_DR = (
    "a Douglas-Rachford operator on two balls",
    lambda op: isinstance(op, DouglasRachford)
    and isinstance(op.first, Ball)
    and isinstance(op.second, Ball),
)

# Named shifts of a normalized trajectory: what the operator must be, the
# test for it, and v computed from the operator and the orbit being shifted.
_SHIFTS = {
    "two_ball": (
        *_TWO_BALL_DR,
        lambda op, raw: two_ball_gap_vector(op.first, op.second),
    ),
    "estimate": (
        "an operator certified averaged",
        lambda op: certify(op).is_averaged,
        lambda op, raw: estimate_displacement(op, raw, min(1000, (len(raw) - 1) // 2)).v,
    ),
}


def _normalized(spec, t, built, n, orbit):
    raw = built[t.base] if t.base is not None else orbit(t.start)
    if isinstance(t.shift, str):
        v = _SHIFTS[t.shift][2](spec.operators[t.operator], raw)
    else:
        v = _vector(t.shift)
    return normalized_from_raw(raw, v)


def _normalized_fields(t):
    """The shift, the base or the operator and start, a named shift's operator."""
    source = ("base",) if t.base is not None else ("operator", "start")
    return ("shift", *source, *(("operator",) if isinstance(t.shift, str) else ()))


# kind: (build(spec, tdef, built, n_steps, orbit), required fields of tdef).
# orbit(start) is the run's raw orbit of tdef.operator from start, computed on
# first use.  The required fields are a tuple, or a function of tdef.
TRAJECTORY_KINDS = {
    "raw": (lambda spec, t, built, n, orbit: orbit(t.start), ("operator", "start")),
    "normalized": (_normalized, _normalized_fields),
    "difference": (
        lambda spec, t, built, n, orbit: difference_orbit(orbit(t.start), orbit(t.partner)),
        ("operator", "start", "partner"),
    ),
    "shadow": (
        lambda spec, t, built, n, orbit: shadow(built[t.base], spec.sets[t.set_name]),
        ("base", "set_name"),
    ),
    "alternating": (lambda spec, t, built, n, orbit: Trajectory(alternating_sequence(n)), ()),
    "harmonic_rotation": (
        lambda spec, t, built, n, orbit: Trajectory(harmonic_rotation_sequence(n)),
        (),
    ),
    "points": (lambda spec, t, built, n, orbit: Trajectory(_vector(t.points)), ("points",)),
}


# ---------------------------------------------------------------------------
# Check kinds
# ---------------------------------------------------------------------------

# A default that takes the run's value: the run's seed and tol, the
# scenario's tail_window.
FROM_RUN = object()


@dataclass(frozen=True)
class CheckKind:
    """How one check kind runs and which ``params`` it accepts.

    ``run(trajectory, expect, **params)`` returns the report and the actual
    outcome that is compared with ``expect``.  The params listed in ``sets``
    and ``operators`` name a set or an operator of the scenario, are
    required, and arrive resolved.  ``operator_rule``, when given, is what
    the named operators must be and the test for it.  Every other accepted
    param is a key of ``defaults``.
    """

    run: Callable
    sets: tuple = ()
    operators: tuple = ()
    defaults: dict = field(default_factory=dict)
    needs_trajectory: bool = True
    operator_rule: tuple | None = None

    def validate(self, params, spec, path: str) -> None:
        if not isinstance(params, dict):
            raise ConfigError(f"{path}: expected a mapping, got {type(params).__name__}")
        for key, value in params.items():
            if key not in self.defaults and key not in self.sets + self.operators:
                raise ConfigError(f"{path}: unknown parameter {key!r}")
            # an infinite tolerance or radius makes every check pass
            if isinstance(value, float) and math.isinf(value):
                raise ConfigError(f"{path}.{key}: must be finite, got {value}")
            if key in _PARAM_RULES and not _PARAM_RULES[key][1](value):
                raise ConfigError(f"{path}.{key}: must be {_PARAM_RULES[key][0]}, got {value!r}")
        if "tol" in params:  # a check's own tol obeys the run's number rule
            spec_number("tol", params["tol"], f"{path}.tol")
        for label, keys, named in (
            ("set", self.sets, spec.sets),
            ("operator", self.operators, spec.operators),
        ):
            for key in keys:
                if params.get(key) is None:
                    raise ConfigError(f"{path}: missing parameter {key!r}")
                if not isinstance(params[key], str) or params[key] not in named:
                    raise ConfigError(
                        f"{path}.{key}: unknown {label} reference {params[key]!r}"
                    )
        if self.operator_rule is not None:
            needs, accepts = self.operator_rule
            for key in self.operators:
                if not accepts(spec.operators[params[key]]):
                    raise ConfigError(f"{path}.{key}: needs {needs}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


# what a check param of this name must be, and its test, checked before any
# orbit is built; a sweep over no instances would pass having checked nothing
_PARAM_RULES = {
    "radius": ("null or a number > 0", lambda v: v is None or _is_number(v) and v > 0.0),
    "tail_fraction": ("a number in (0, 1]", lambda v: _is_number(v) and 0.0 < v <= 1.0),
    "instances": ("an integer >= 1", _is_count),
    "pairs": ("an integer >= 1", _is_count),
}


def _verdict(report):
    return report, report.verdict


def _limit(traj, expect, tail_window, tol):
    est = detect_limit(traj, min(tail_window, len(traj)), tol)
    meta = {"status": est.status}
    for key in ("limit", "residual", "growth_rate", "cluster_gap"):
        val = getattr(est, key)
        if val is not None:
            meta[key] = val
    if est.cluster_points is not None:
        meta["clusters"] = est.cluster_points
    witness = None
    if expect not in (None, est.status):
        witness = {"expected_status": expect, "actual_status": est.status}
    return DiagnosticsReport.from_witness("detect_limit", witness, metadata=meta), est.status


def _displacement_match(traj, expect, operator, tail, tol):
    v_est, residual = displacement_from_orbit(traj, tail)
    v_closed = two_ball_gap_vector(operator.first, operator.second)
    gap = float(np.linalg.norm(v_est - v_closed))
    return _verdict(
        DiagnosticsReport.from_witness(
            "displacement_match",
            None if gap <= tol else {"gap": gap},
            params={"tol": tol, "tail": tail},
            metadata={
                "estimated": v_est,
                "closed_form": v_closed,
                "gap": gap,
                "tail_residual": residual,
            },
        )
    )


def _sweep_kind(name: str) -> CheckKind:
    """A sweep check: its params are the sweep's keyword arguments."""
    params = inspect.signature(globals()[name]).parameters
    # the sweep is looked up when the check runs, as every checker here is
    return CheckKind(
        lambda traj, expect, **kw: _verdict(globals()[name](**kw)),
        defaults={key: p.default for key, p in params.items()},
        needs_trajectory=False,
    )


_WITNESSES = {"witnesses": 10, "seed": FROM_RUN}
_CLUSTERS = {"tail_fraction": 0.5, "radius": None}

CHECK_KINDS = {
    "fejer": CheckKind(
        lambda traj, expect, set, **kw: _verdict(check_fejer(traj, set, **kw)),
        sets=("set",),
        defaults={**_WITNESSES, "tol": 1e-10},
    ),
    "asymptotic_regularity": CheckKind(
        lambda traj, expect, **kw: _verdict(check_asymptotic_regularity(traj, **kw)),
        defaults={"tol": 1e-9},
    ),
    "limit": CheckKind(_limit, defaults={"tail_window": FROM_RUN, "tol": FROM_RUN}),
    "connectivity": CheckKind(
        lambda traj, expect, **kw: _verdict(
            check_connectivity(estimate_cluster_set(traj, **kw))
        ),
        defaults=_CLUSTERS,
    ),
    "cluster_orthogonality": CheckKind(
        lambda traj, expect, set, tail_fraction, radius, **kw: _verdict(
            check_cluster_orthogonality(
                estimate_cluster_set(traj, tail_fraction=tail_fraction, radius=radius),
                set,
                **kw,
            )
        ),
        sets=("set",),
        defaults={**_CLUSTERS, **_WITNESSES, "tol": 1e-8},
    ),
    "sum_decoupling": CheckKind(
        lambda traj, expect, summand, cone, **kw: _verdict(
            check_sum_decoupling(traj, summand, cone, **kw)
        ),
        sets=("summand", "cone"),
        defaults={**_WITNESSES, "tol": 1e-10},
    ),
    "shadow_superset": CheckKind(
        lambda traj, expect, inner, outer, **kw: _verdict(
            check_shadow_superset(traj, inner, outer, **kw)
        ),
        sets=("inner", "outer"),
        defaults={"tol": 1e-6, **_WITNESSES},
    ),
    "codim1": CheckKind(
        lambda traj, expect, set, **kw: _verdict(check_codim1_theorem(set, traj, **kw)),
        sets=("set",),
        defaults={"seed": FROM_RUN},
    ),
    "nonexpansive": CheckKind(
        lambda traj, expect, operator, **kw: _verdict(verify_nonexpansive(operator, **kw)),
        operators=("operator",),
        defaults={"trials": 1000, "seed": FROM_RUN, "tol": 1e-9, "dim": None},
        needs_trajectory=False,
    ),
    "displacement_match": CheckKind(
        _displacement_match,
        operators=("operator",),
        defaults={"tail": 1000, "tol": 1e-6},
        operator_rule=_TWO_BALL_DR,
    ),
    **{
        kind: _sweep_kind(f"run_{kind}")
        for kind in (
            "scalar_averaged_sweep",
            "affine_limit_sweep",
            "codim1_sweep",
            "decoupling_sweep",
            "two_ball_sweep",
        )
    },
}


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _run_check(spec, cdef, built, run_values):
    kind = CHECK_KINDS[cdef.kind]
    named = {
        **dict.fromkeys(kind.sets, spec.sets),
        **dict.fromkeys(kind.operators, spec.operators),
    }
    params = {**kind.defaults, **cdef.params}
    for key, val in params.items():
        if val is FROM_RUN:
            params[key] = run_values[key]
        elif key in named:
            params[key] = named[key][val]
        elif key == "tol":  # YAML reads 1e-9 as a string; validate accepted it
            params[key] = spec_number("tol", val, f"checks.{cdef.name}.params.tol")
    return kind.run(built.get(cdef.trajectory), cdef.expect, **params)


def _raw_orbit(spec, orbits, operator, n, start):
    """The raw orbit of ``operator`` from ``start``, computed once per run."""
    key = (operator, _vector(start).tobytes(), n)
    if key not in orbits:
        orbits[key] = iterate(spec.operators[operator], start, n)
    return orbits[key]


def run_scenario(
    spec: ScenarioSpec,
    n_steps: int | None = None,
    seed: int | None = None,
    tol: float | None = None,
    out_dir: str | Path | None = None,
) -> RunArtifacts:
    """Build all trajectories, run all checks, optionally export artifacts."""
    spec.validate()
    run_values = {
        key: getattr(spec, key) if value is None else spec_number(key, value, key)
        for key, value in (("n_steps", n_steps), ("seed", seed), ("tol", tol))
    }
    run_values["tail_window"] = spec.tail_window
    n = run_values["n_steps"]
    built: dict = {}
    orbits: dict = {}  # the run's raw orbits, by (operator name, start, steps)
    failed: dict = {}  # trajectory not built -> (the one that raised, its error)
    for tdef in spec.trajectories:
        if tdef.base in failed:
            failed[tdef.name] = failed[tdef.base]
            continue
        steps = tdef.n_steps if tdef.n_steps is not None else n
        orbit = functools.partial(_raw_orbit, spec, orbits, tdef.operator, steps)
        try:
            built[tdef.name] = TRAJECTORY_KINDS[tdef.kind][0](spec, tdef, built, steps, orbit)
        except ConfigError:
            raise
        except Exception as exc:  # reported by the checks that read the trajectory
            error = f"trajectories.{tdef.name}: {type(exc).__name__}: {exc}"
            failed[tdef.name] = (tdef.name, error)
    unread = dict.fromkeys(name for name, _ in failed.values())
    reports: dict = {}
    summary: list = []
    for cdef in spec.checks:
        error = None
        if cdef.trajectory in failed:
            source, error = failed[cdef.trajectory]
            unread.pop(source, None)
        else:
            try:
                rep, actual = _run_check(spec, cdef, built, run_values)
            except ConfigError as exc:
                raise ConfigError(f"checks.{cdef.name}: {exc}") from exc
            except Exception as exc:  # runtime error attached to the failing check
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            rep, actual = DiagnosticsReport.from_witness(cdef.kind, {"error": error}), "error"
        matched = error is None and (cdef.expect is None or actual == cdef.expect)
        reports[cdef.name] = rep
        summary.append(CheckOutcome(cdef.name, cdef.expect, actual, matched))
    for name in unread:  # a trajectory that failed and that no check reads
        summary.append(CheckOutcome(f"trajectories.{name}", None, "error", False))
    artifacts = RunArtifacts(spec.name, built, reports, summary)
    if out_dir is not None:
        export_run(artifacts, Path(out_dir))
    return artifacts


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------


def _spec_alternating_pair() -> ScenarioSpec:
    return ScenarioSpec(
        name="alternating-pair",
        description=(
            "The sequence ((-1)^n, 0) keeps every distance to the vertical "
            "axis constant, so the monotonicity check passes with zero "
            "per-step drops, yet the sequence oscillates between two points "
            "at gap 2: step sizes never shrink, so the codimension-1 "
            "convergence guarantee does not apply."
        ),
        topic="Fejer monotone but not asymptotically regular",
        n_steps=200,
        seed=1,
        tol=1e-9,
        tail_window=100,
        sets={"axis": Hyperplane([1.0, 0.0], 0.0)},
        trajectories=[TrajectoryDef("orbit", "alternating")],
        checks=[
            CheckDef("fejer", "fejer", "orbit", "pass", {"set": "axis"}),
            CheckDef(
                "asymptotic-regularity", "asymptotic_regularity", "orbit", "fail",
                {"tol": 1e-9},
            ),
            CheckDef("limit", "limit", "orbit", "oscillating"),
            CheckDef("connectivity", "connectivity", "orbit", "fail", {"radius": 0.1}),
            CheckDef(
                "cluster-orthogonality", "cluster_orthogonality", "orbit", "pass",
                {"set": "axis", "radius": 0.1, "tol": 1e-8},
            ),
        ],
    )


def _spec_harmonic_rotation() -> ScenarioSpec:
    return ScenarioSpec(
        name="harmonic-rotation",
        description=(
            "A unit-circle walk with angle increments 1/k: steps vanish "
            "(asymptotically regular) and the norm stays 1 (Fejer monotone "
            "with respect to the origin), but the divergent angle sum makes "
            "the whole circle cluster; the reference set has codimension 2, "
            "so no convergence is promised.  Cluster estimation uses the "
            "full history: the final half of the walk alone covers only an "
            "arc of length ln 2."
        ),
        topic="asymptotically regular without convergence; codimension 2",
        n_steps=100_000,
        seed=2,
        tol=1e-9,
        tail_window=1000,
        sets={"origin": Point([0.0, 0.0])},
        trajectories=[TrajectoryDef("orbit", "harmonic_rotation")],
        checks=[
            CheckDef("fejer", "fejer", "orbit", "pass", {"set": "origin"}),
            CheckDef(
                "asymptotic-regularity", "asymptotic_regularity", "orbit", "pass",
                {"tol": 1e-4},
            ),
            CheckDef(
                "connectivity", "connectivity", "orbit", "pass",
                {"radius": 0.1, "tail_fraction": 1.0},
            ),
            CheckDef(
                "cluster-orthogonality", "cluster_orthogonality", "orbit", "pass",
                {"set": "origin", "radius": 0.1, "tail_fraction": 1.0},
            ),
            CheckDef("limit", "limit", "orbit", "inconclusive"),
        ],
    )


def _spec_negation_r1() -> ScenarioSpec:
    return ScenarioSpec(
        name="negation-r1",
        description=(
            "Sign flipping on the line: an isometry whose orbits and orbit "
            "differences alternate forever, showing that plain "
            "nonexpansiveness gives no convergence of T^n x - T^n y."
        ),
        topic="orbit differences of an isometry need not converge",
        n_steps=100,
        seed=3,
        tol=1e-9,
        tail_window=50,
        operators={"T": Negation()},
        trajectories=[
            TrajectoryDef("orbit", "raw", operator="T", start=[1.0]),
            TrajectoryDef(
                "difference", "difference", operator="T", start=[1.0], partner=[0.0]
            ),
        ],
        checks=[
            CheckDef("limit", "limit", "orbit", "oscillating"),
            CheckDef("difference-limit", "limit", "difference", "oscillating"),
        ],
    )


def _spec_pazy_translation() -> ScenarioSpec:
    return ScenarioSpec(
        name="pazy-translation",
        description=(
            "A fixed-point-free translation: orbit norms grow without bound "
            "at exactly the shift length per step, the alternative branch of "
            "the boundedness dichotomy for nonexpansive maps."
        ),
        topic="fixed-point-free orbits diverge in norm",
        n_steps=2000,
        seed=4,
        tol=1e-9,
        tail_window=500,
        operators={"T": Translation([0.75])},
        trajectories=[TrajectoryDef("orbit", "raw", operator="T", start=[0.0])],
        checks=[CheckDef("limit", "limit", "orbit", "diverging")],
    )


def _spec_scalar_averaged_sweep() -> ScenarioSpec:
    return ScenarioSpec(
        name="scalar-averaged-sweep",
        description=(
            "Averaged maps on the line: for T = (1-a) Id + a R with R a "
            "random nonexpansive piecewise-linear map, orbit differences "
            "a_n = T^n x - T^n y converge; |a_n| never grows and each sign "
            "change contracts by at least |1 - 2a|."
        ),
        topic="averagedness forces convergence of scalar orbit differences",
        n_steps=20_000,
        seed=5,
        checks=[
            CheckDef(
                "sweep", "scalar_averaged_sweep", None, "pass",
                {"instances": 24, "max_steps": 20_000, "seed": 5},
            )
        ],
    )


def _spec_affine_linear_limit() -> ScenarioSpec:
    return ScenarioSpec(
        name="affine-linear-limit",
        description=(
            "Averaged affine maps x -> Lx + b: orbit differences equal "
            "L^n (x - y) and converge to the projection of x - y onto the "
            "fixed space of L, computed independently from a null-space "
            "basis."
        ),
        topic="affine orbit differences converge to a subspace projection",
        n_steps=4000,
        seed=6,
        checks=[
            CheckDef(
                "sweep", "affine_limit_sweep", None, "pass",
                {"instances": 10, "n_steps": 4000, "seed": 6},
            )
        ],
    )


def _spec_codim1_reflection() -> ScenarioSpec:
    line = Hyperplane([2.0, 1.0], 1.0)
    return ScenarioSpec(
        name="codim1-reflection",
        description=(
            "Under-relaxed reflection through a line in the plane: the orbit "
            "is Fejer monotone with respect to the line (codimension 1) and "
            "asymptotically regular, so it must converge; its limit is the "
            "projection of the start."
        ),
        topic="codimension-1 convergence guarantee",
        n_steps=3000,
        seed=7,
        tail_window=500,
        sets={"line": line},
        operators={"T": ConvexCombination(0.3, Identity(), Reflector(line))},
        trajectories=[
            TrajectoryDef("orbit", "raw", operator="T", start=[4.0, -1.0])
        ],
        checks=[
            CheckDef("fejer", "fejer", "orbit", "pass", {"set": "line"}),
            CheckDef(
                "asymptotic-regularity", "asymptotic_regularity", "orbit", "pass",
                {"tol": 1e-9},
            ),
            CheckDef(
                "guarantee", "codim1", "orbit", "pass",
                {"set": "line"},
            ),
            CheckDef("limit", "limit", "orbit", "converged"),
        ],
    )


def _spec_decoupling_demo() -> ScenarioSpec:
    E = Point([0.0, 0.0])
    K = Ray([0.0, 0.0], [1.0, 0.0])
    w = np.array([-1.0, -0.5])  # -w lies strictly inside the dual halfspace
    ts = 3.0 * 0.75 ** np.arange(12)
    pts = (ts[:, None] * w).tolist()
    return ScenarioSpec(
        name="decoupling-demo",
        description=(
            "Monotone approach to the summand along a direction whose "
            "reversal lies in the dual cone: Fejer monotonicity with respect "
            "to the Minkowski sum E + K decouples into monotonicity with "
            "respect to E plus a dual-cone condition on the steps, and both "
            "routes agree."
        ),
        topic="sum decoupling of Fejer monotonicity",
        n_steps=12,
        seed=8,
        sets={"summand": E, "cone": K},
        trajectories=[TrajectoryDef("walk", "points", points=pts)],
        checks=[
            CheckDef(
                "decoupled", "sum_decoupling", "walk", "pass",
                {"summand": "summand", "cone": "cone"},
            ),
            CheckDef(
                "sweep", "decoupling_sweep", None, "pass",
                {"instances": 10, "seed": 8},
            ),
        ],
    )


def _two_ball_spec(name, description, A, B, x0, n_steps, topic=None, partner=None):
    """Two-ball splitting scenario; a ``partner`` start adds an orbit difference."""
    T = DouglasRachford(A, B)
    v = two_ball_gap_vector(A, B)
    fix_ray = fixed_set_description(T, v)
    sets = {"first": A, "second": B}
    if fix_ray is not None:
        sets["fixed-ray"] = fix_ray
    checks = [
        CheckDef(
            "displacement-match", "displacement_match", "orbit", "pass",
            {"operator": "T", "tail": 1000, "tol": 1e-6},
        ),
        CheckDef(
            "normalized-fejer", "fejer", "normalized", "pass",
            {"set": "fixed-ray", "tol": 1e-9},
        ),
        # evidence only: the tangency geometry converges sublinearly, so the
        # detection tolerance is loose and the residual is recorded
        CheckDef("normalized-limit", "limit", "normalized", None, {"tol": 1e-4}),
    ]
    trajectories = [
        TrajectoryDef("orbit", "raw", operator="T", start=list(x0)),
        TrajectoryDef(
            "normalized", "normalized", operator="T", start=list(x0),
            shift="two_ball", base="orbit",
        ),
    ]
    if partner is not None:
        trajectories.append(
            TrajectoryDef(
                "difference", "difference", operator="T",
                start=list(x0), partner=list(partner),
            )
        )
        checks.append(
            CheckDef("difference-limit", "limit", "difference", None, {"tol": 1e-4})
        )
    return ScenarioSpec(
        name=name,
        description=description,
        topic=topic or "two-ball splitting with drift; conjectured convergence",
        n_steps=n_steps,
        seed=9,
        tail_window=1000,
        sets=sets,
        operators={"T": T},
        trajectories=trajectories,
        checks=checks,
    )


def _spec_dr_two_balls_r3() -> ScenarioSpec:
    return _two_ball_spec(
        "dr-two-balls-r3",
        (
            "Reflect-reflect-average splitting on two disjoint balls in 3-d "
            "space: orbits drift by the gap vector, the drift-compensated "
            "orbit stays Fejer monotone with respect to the fixed ray (a set "
            "of codimension 2, outside every proven convergence criterion), "
            "and its convergence is recorded as evidence only.  Ball "
            "parameters and the start are artifact-chosen defaults.  The "
            "exported trajectory replaces a picture: the first few "
            "drift-compensated points trace the conjectured approach."
        ),
        Ball([0.0, 0.0, 0.0], 1.0),
        Ball([5.0, 0.0, 0.0], 1.0),
        (0.0, 3.0, 3.0),
        100_000,
    )


def _scalar_drift_spec(name, description, topic, seed, anchor_value, v, start, partner):
    """Line probe T = Id + g: g(0) = ``anchor_value`` falls by 2^-i on the
    i-th of twelve unit pieces and is constant beyond them.  Orbit
    differences and the orbit normalized by ``v`` are evidence only."""
    k = 12
    breakpoints = np.arange(0.0, k + 1.0)
    slopes = np.concatenate([[1.0], 1.0 - 0.5 ** np.arange(1.0, k + 1.0), [1.0]])
    T = ScalarPiecewiseLinear(breakpoints, slopes, anchor_value=anchor_value)
    return ScenarioSpec(
        name=name,
        description=description,
        topic=topic,
        n_steps=100_000,
        seed=seed,
        operators={"T": T},
        trajectories=[
            TrajectoryDef(
                "difference", "difference", operator="T", start=[start], partner=[partner]
            ),
            TrajectoryDef(
                "normalized", "normalized", operator="T", start=[start], shift=[v]
            ),
        ],
        checks=[
            CheckDef(
                "nonexpansive", "nonexpansive", None, "pass",
                {"operator": "T", "trials": 500},
            ),
            CheckDef("difference-limit", "limit", "difference", None),
            CheckDef("normalized-limit", "limit", "normalized", None),
        ],
    )


def _spec_open_problem_p1() -> ScenarioSpec:
    # drift g decays geometrically from 1 to 2^-12, then stays constant:
    # T = Id + g has no fixed points and minimal displacement 2^-12.
    return _scalar_drift_spec(
        "open-problem-p1",
        (
            "Probe for the line case with vanishing minimal displacement but "
            "no fixed points.  A map with finitely many linear pieces cannot "
            "realize that class exactly (its displacement infimum is always "
            "attained), so this scenario uses a forward drift decaying to "
            "2^-12: fixed-point free, with tiny nonzero minimal "
            "displacement.  Orbit-difference behaviour is exported as "
            "evidence; no convergence verdict is asserted."
        ),
        "open: scalar maps with v = 0 and no fixed points",
        seed=10,
        anchor_value=1.0,
        v=-(0.5**12),
        start=-2.0,
        partner=-7.0,
    )


def _spec_open_problem_p2() -> ScenarioSpec:
    # same decay pattern on top of a unit drift floor of 1/4: the minimal
    # displacement is attained on the final piece, as it must be for any
    # finitely-piecewise-linear map.
    return _scalar_drift_spec(
        "open-problem-p2",
        (
            "Probe for the line case with nonzero minimal displacement but "
            "empty generalized fixed set.  For maps with finitely many "
            "linear pieces the displacement infimum is always attained, so "
            "the generalized fixed set is never empty and the open case is "
            "out of reach exactly; this scenario documents that boundary "
            "with a drift decaying to a floor of 1/4 and exports the "
            "observed behaviour as evidence."
        ),
        "open: scalar maps with v != 0 and empty generalized fixed set",
        seed=11,
        anchor_value=1.25,
        v=-(0.25 + 0.5**12),
        start=3.0,
        partner=-4.0,
    )


def _spec_open_problem_p3() -> ScenarioSpec:
    return _two_ball_spec(
        "open-problem-p3",
        (
            "Does averagedness with nonzero drift force convergence of orbit "
            "differences beyond the plane?  The two-ball splitting operator "
            "in 3-d space has a fixed ray of codimension 2, one past every "
            "proven criterion; orbit differences and the drift-compensated "
            "orbit are exported as numerical evidence."
        ),
        Ball([0.0, 0.0, 0.0], 1.5),
        Ball([4.0, 1.0, 2.0], 0.75),
        (1.0, 2.0, -1.0),
        50_000,
        topic="open: orbit-difference convergence in dimension >= 3",
        partner=(-2.0, 0.0, 3.0),
    )


def _spec_open_problem_p4() -> ScenarioSpec:
    return _two_ball_spec(
        "open-problem-p4",
        (
            "Strong versus weak convergence of orbit differences.  At desk "
            "scale every space is finite-dimensional, where the two notions "
            "coincide, so this scenario runs the same diagnostics as the "
            "3-d splitting probe and records that the distinction is "
            "invisible here by construction."
        ),
        Ball([0.0, 0.0, 0.0], 1.0),
        Ball([0.0, 0.0, 6.0], 2.0),
        (1.0, -2.0, 0.0),
        50_000,
        topic="open: strong vs weak convergence (coincide at desk scale)",
        partner=(0.0, 4.0, 1.0),
    )


_REGISTRY = {
    "alternating-pair": _spec_alternating_pair,
    "harmonic-rotation": _spec_harmonic_rotation,
    "negation-r1": _spec_negation_r1,
    "pazy-translation": _spec_pazy_translation,
    "scalar-averaged-sweep": _spec_scalar_averaged_sweep,
    "affine-linear-limit": _spec_affine_linear_limit,
    "codim1-reflection": _spec_codim1_reflection,
    "decoupling-demo": _spec_decoupling_demo,
    "dr-two-balls-r3": _spec_dr_two_balls_r3,
    "open-problem-p1": _spec_open_problem_p1,
    "open-problem-p2": _spec_open_problem_p2,
    "open-problem-p3": _spec_open_problem_p3,
    "open-problem-p4": _spec_open_problem_p4,
}


def list_scenarios() -> list[tuple[str, str, str]]:
    """(name, description, topic) for every built-in scenario."""
    out = []
    for name, builder in _REGISTRY.items():
        spec = builder()
        out.append((name, spec.description, spec.topic))
    return out


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; run `fejerlab list` for the registry"
        ) from None
