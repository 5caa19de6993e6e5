"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and never loosened at runtime.
"""

import time

import numpy as np
import pytest

from fejerlab.analysis import check_connectivity, check_fejer, estimate_cluster_set
from fejerlab.dynamics import Trajectory, detect_limit, iterate
from fejerlab.geometry import Hyperplane
from fejerlab.operators import Reflector
from fejerlab.scenarios import (
    get_scenario,
    harmonic_rotation_sequence,
    list_scenarios,
    run_affine_limit_sweep,
    run_codim1_sweep,
    run_decoupling_sweep,
    run_scalar_averaged_sweep,
    run_scenario,
    run_two_ball_sweep,
)


@pytest.fixture
def loaded():
    """What a process loads once, at the first call that needs it: the scipy
    subpackages and the C library.  A criterion that takes it starts its
    timer after that, so run alone it times the same work as in the suite."""
    import scipy.cluster.hierarchy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.spatial.distance  # noqa: F401

    from fejerlab import native

    native.library()


def _announce(number, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_alternating_pair(loaded):
    t0 = time.perf_counter()
    # ((-1)^n, 0): the orbit of the reflection through the vertical axis
    line = Hyperplane([1.0, 0.0], 0.0)
    traj = iterate(Reflector(line), [1.0, 0.0], 200)
    fejer = check_fejer(traj, line, witnesses=10, seed=0, tol=1e-10)
    drops_zero = float(np.max(np.abs(fejer.per_step)))
    steps = np.linalg.norm(traj.points[1:] - traj.points[:-1], axis=1)
    est = detect_limit(traj, tail_window=100, tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = (
        bool(np.all(traj.points[:, 0] == (-1.0) ** np.arange(201)))
        and bool(np.all(traj.points[:, 1] == 0.0))
        and fejer.passed
        and drops_zero <= 1e-15
        and bool(np.all(steps == 2.0))
        and est.status == "oscillating"
        and est.cluster_points.shape[0] == 2
        and abs(est.cluster_gap - 2.0) <= 1e-12
        and elapsed < 0.1
    )
    _announce(
        1,
        ok,
        f"alternating pair: fejer={fejer.verdict}, max|drop|={drops_zero:.1e}, "
        f"limit={est.status}, gap={est.cluster_gap:.12f}, {elapsed:.3f}s",
    )


def test_criterion_2_harmonic_rotation():
    t0 = time.perf_counter()
    n = 100_000
    traj = Trajectory(harmonic_rotation_sequence(n))
    steps = np.linalg.norm(traj.points[1:] - traj.points[:-1], axis=1)
    bound = 1.0 / (np.arange(n) + 1.0) + 1e-12
    steps_ok = bool(np.all(steps <= bound))
    cluster = estimate_cluster_set(traj, tail_fraction=1.0, radius=0.1)
    angles = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    grid = np.column_stack([np.cos(angles), np.sin(angles)])
    coverage = np.linalg.norm(
        grid[:, None, :] - cluster.representatives[None, :, :], axis=2
    ).min(axis=1)
    connected = check_connectivity(cluster).passed
    elapsed = time.perf_counter() - t0
    ok = steps_ok and float(coverage.max()) <= 0.2 and connected and elapsed < 5.0
    _announce(
        2,
        ok,
        f"harmonic rotation: steps<=1/(n+1): {steps_ok}, circle coverage "
        f"{coverage.max():.3f}<=0.2, connected={connected}, {elapsed:.2f}s",
    )


def test_criterion_3_scalar_averaged_theorem():
    t0 = time.perf_counter()
    rep = run_scalar_averaged_sweep(
        instances=200,
        alphas=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        seed=2025,
        max_steps=100_000,
        tail_window=1000,
        tol=1e-9,
    )
    elapsed = time.perf_counter() - t0
    ok = rep.passed and rep.metadata["converged"] == 200 and elapsed < 30.0
    _announce(
        3,
        ok,
        f"scalar averaged maps: {rep.metadata['converged']}/200 difference "
        f"orbits converged, monotone + sign-flip contraction held, {elapsed:.1f}s",
    )


def test_criterion_4_affine_theorem():
    t0 = time.perf_counter()
    rep = run_affine_limit_sweep(
        instances=50, dims=(2, 3, 4), seed=2026, n_steps=4000, tol=1e-6
    )
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 10.0
    _announce(
        4,
        ok,
        f"affine orbit differences match null-space projections on 50 "
        f"instances at 1e-6, {elapsed:.1f}s",
    )


def test_criterion_5_two_ball_displacement():
    t0 = time.perf_counter()
    rep = run_two_ball_sweep(
        pairs=20,
        seed=2029,
        n_steps=100_000,
        tail=1000,
        match_tol=1e-6,
        fejer_tol=1e-9,
    )
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 60.0
    _announce(
        5,
        ok,
        f"two-ball splitting: 20 pairs, tail estimate vs closed form at 1e-6 "
        f"and ray monotonicity at 1e-9, {elapsed:.1f}s",
    )


def test_criterion_6_codim1_regression():
    t0 = time.perf_counter()
    rep = run_codim1_sweep(instances=50, dims=(2, 3), seed=2027, n_steps=3000)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 10.0
    _announce(
        6,
        ok,
        f"codimension-1 guarantee: 50 under-relaxed reflections verified "
        f"hypotheses and converged, {elapsed:.1f}s",
    )


def test_criterion_7_decoupling_equivalence():
    t0 = time.perf_counter()
    rep = run_decoupling_sweep(instances=50, seed=2028, witnesses=10, tol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 10.0
    _announce(
        7,
        ok,
        f"sum decoupling: decoupled and direct verdicts agree on 50 "
        f"instances, {elapsed:.1f}s",
    )


def test_criterion_8_negation_and_pazy(loaded):
    t0 = time.perf_counter()
    negation = run_scenario(get_scenario("negation-r1"))
    pazy = run_scenario(get_scenario("pazy-translation"))
    growth = pazy.reports["limit"].metadata["growth_rate"]
    elapsed = time.perf_counter() - t0
    ok = (
        negation.all_matched
        and {o.name: o.actual for o in negation.summary}["limit"] == "oscillating"
        and pazy.all_matched
        and abs(growth - 0.75) <= 1e-12
        and elapsed < 0.1
    )
    _announce(
        8,
        ok,
        f"negation oscillates; translation diverges at rate "
        f"{growth:.12f} (= shift norm), {elapsed:.3f}s",
    )


def test_criterion_9_cluster_orthogonality_on_builtins():
    # every built-in monotone scenario with >= 2 cluster representatives
    # must pass the orthogonality check at 1e-8
    checked = []
    for name in ("alternating-pair", "harmonic-rotation"):
        artifacts = run_scenario(get_scenario(name))
        outcome = {o.name: o for o in artifacts.summary}["cluster-orthogonality"]
        checked.append((name, outcome.actual))
    ok = all(actual == "pass" for _, actual in checked)
    _announce(9, ok, f"cluster orthogonality at 1e-8: {checked}")


def test_criterion_10_determinism(tmp_path):
    names = [name for name, _, _ in list_scenarios()]
    for sub in ("first", "second"):
        for name in names:
            run_scenario(get_scenario(name), out_dir=tmp_path / sub)
    mismatched = []
    count = 0
    for first in sorted((tmp_path / "first").rglob("*")):
        if not first.is_file():
            continue
        second = tmp_path / "second" / first.relative_to(tmp_path / "first")
        count += 1
        if first.read_bytes() != second.read_bytes():
            mismatched.append(str(first.relative_to(tmp_path / "first")))
    ok = count > 0 and not mismatched
    _announce(
        10,
        ok,
        f"two full-suite runs produced {count} byte-identical files"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
