"""Checkers for Fejer-monotone sequence properties.

Universally quantified properties over an infinite set are necessarily
checked on finite, seeded witness samples; a PASS from such a checker is a
necessary condition, never a proof, and the reports say so in their metadata.
Failures always carry a concrete witness.

:func:`check_fejer` takes its witness distances in one C pass over the rows
(:func:`~fejerlab.native.fejer_pass`), with the bits of ``cdist``: no (n, w)
or (n, d) array is made, only ``per_step``.
:func:`check_asymptotic_regularity` takes its step norms in one C pass as
well (:func:`~fejerlab.native.fejer_step_norms`), with numpy's bits, and
makes only ``per_step``.  The other checkers make batched calls, such as
one projection for the dual-cone test or the membership residuals.

An orbit that ends in an exact cycle repeats its per-step values from the
cycle on.  :func:`check_fejer` and :func:`check_asymptotic_regularity` (and so
:func:`check_codim1_theorem`) compute on its leading rows
(:func:`~fejerlab.dynamics.periodic_rows`) alone and extend their ``per_step``
periodically (:func:`~fejerlab.dynamics.periodic_steps`); each value has the
bits it would have from the whole array, which they never build.  The sum
decoupling and cluster-set checks still read every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import native
from .clustering import greedy_cover, single_linkage
from .dynamics import (
    CONVERGED,
    DEFAULT_TOL,
    Trajectory,
    detect_limit,
    periodic_rows,
    periodic_steps,
    shadow,
)
from .errors import NonFiniteValueError, UnsupportedSetError
from .geometry import (
    ConvexSet,
    MinkowskiSum,
    _sample_witnesses,
    codimension,
    dual_cone_residuals,
    sample_witnesses,
)
from .report import INCONCLUSIVE, DiagnosticsReport

NECESSARY_CONDITION = "necessary-condition (finite witnesses)"


def _finite(rows: np.ndarray) -> np.ndarray:
    if not np.isfinite(rows).all():
        raise NonFiniteValueError("trajectory points must be finite")
    return rows


def _points_of(trajectory) -> np.ndarray:
    if isinstance(trajectory, Trajectory):
        return _finite(trajectory.points)
    return _finite(np.asarray(trajectory, dtype=float))


def _head_of(trajectory) -> np.ndarray:
    """The leading rows that hold every per-step value (:func:`periodic_rows`),
    not yet checked finite: an orbit's rows past them repeat rows in them."""
    if isinstance(trajectory, Trajectory):
        return trajectory.rows(0, periodic_rows(trajectory))
    return np.asarray(trajectory, dtype=float)


def _every_step(trajectory, values: np.ndarray) -> np.ndarray:
    """Per-step values of the whole trajectory from those of its head."""
    if isinstance(trajectory, Trajectory):
        return periodic_steps(values, trajectory)
    return values


def _witness_points(points, C: ConvexSet, count, seed, radius):
    """Witnesses of C; the default radius is twice the points' reach from C's anchor.

    The witnesses lie within the radius of the anchor, since the projector is
    nonexpansive, so no squared distance of a point to one exceeds
    (reach + radius)**2; where that bound overflows, NonFiniteValueError.
    """
    anchor = C.anchor()
    reach = math.sqrt(native.reach2(points, anchor))
    if radius is None:
        # sqrt is correctly rounded, so monotone: the largest distance's bits
        radius = max(1.0, 2.0 * reach)
    elif not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"witness_radius must be finite and positive, got {radius!r}")
    # twice the bound, for the rounding of the sums of squares
    if not math.isfinite(2.0 * (reach + radius) * (reach + radius)):
        raise NonFiniteValueError(
            "trajectory points lie too far from the witnesses of C: "
            "their squared distances overflow"
        )
    return radius, _sample_witnesses(C, anchor, count, seed, radius)


def check_fejer(
    trajectory,
    C: ConvexSet,
    witnesses: int = 10,
    seed: int = 0,
    tol: float = 1e-10,
    witness_radius: float | None = None,
) -> DiagnosticsReport:
    """Distance to every sampled witness of C must be nonincreasing.

    ``per_step`` records the squared-distance drops to the anchor witness.
    Points whose squared distances to the witnesses could overflow raise
    NonFiniteValueError, as non-finite points do.
    """
    # past an orbit's exact cycle the rows repeat, so the largest distance,
    # the first largest increase and each per-step value lie in the rows before
    head = _finite(_head_of(trajectory))
    if head.shape[0] < 2:
        raise ValueError("need at least two trajectory points")
    radius, ws = _witness_points(head, C, witnesses, seed, witness_radius)
    drops, worst, step, widx, before, after = native.fejer_pass(head, ws)
    per_step = _every_step(trajectory, drops)
    params = {
        "witnesses": witnesses,
        "tol": tol,
        "witness_radius": radius,
    }
    meta = {"semantics": NECESSARY_CONDITION, "worst_increase": worst}
    witness = None
    if not worst <= tol:
        witness = {
            "step": step,
            "witness_point": ws[widx],
            "distance_before": before,
            "distance_after": after,
            "increase": worst,
        }
    return DiagnosticsReport.from_witness(
        "check_fejer", witness, params=params, seed=seed, per_step=per_step,
        metadata=meta,
    )


def check_asymptotic_regularity(trajectory, tol: float = 1e-9) -> DiagnosticsReport:
    """Consecutive steps must vanish: the last 10% of step norms stay <= tol.

    The step norms are taken in one C pass over the rows
    (:func:`~fejerlab.native.fejer_step_norms`), which makes only ``per_step``.
    """
    head = _head_of(trajectory)
    norms = native.fejer_step_norms(head)  # a row not finite raises first
    if head.shape[0] < 2:
        raise ValueError("need at least two trajectory points")
    steps = _every_step(trajectory, norms)
    tail_len = max(1, steps.size // 10)
    tail_max = float(steps[-tail_len:].max())
    idx = steps.size - tail_len + int(np.argmax(steps[-tail_len:]))
    witness = None if tail_max <= tol else {"step": idx, "step_norm": tail_max}
    return DiagnosticsReport.from_witness(
        "check_asymptotic_regularity", witness, params={"tol": tol, "tail_length": tail_len},
        per_step=steps, metadata={"tail_max_step": tail_max},
    )


def check_sum_decoupling(
    trajectory,
    E: ConvexSet,
    K: ConvexSet,
    witnesses: int = 10,
    seed: int = 0,
    tol: float = 1e-10,
) -> DiagnosticsReport:
    """Fejer monotonicity with respect to E + K, decoupled.

    Checks (a) Fejer monotonicity with respect to E and (b) every step lies
    in the dual cone of K.  Where the E + K projector is supported the direct
    Fejer check is run as well and the equivalence verdict is recorded.
    """
    pts = _points_of(trajectory)
    fejer_e = check_fejer(pts, E, witnesses=witnesses, seed=seed, tol=tol)
    steps = pts[1:] - pts[:-1]
    # the first step outside the dual cone; a NaN residual counts as outside
    outside = np.flatnonzero(~(dual_cone_residuals(K, steps) <= tol))
    witness = None
    if not fejer_e.passed:
        witness = {**fejer_e.witness, "violated": "fejer_vs_summand"}
    elif outside.size:
        witness = {
            "violated": "step_in_dual_cone",
            "step": int(outside[0]),
            "step_vector": steps[outside[0]],
        }
    direct = None
    try:
        direct = check_fejer(
            pts, MinkowskiSum(E, K), witnesses=witnesses, seed=seed, tol=tol
        )
    except UnsupportedSetError:
        pass
    meta = {
        "semantics": NECESSARY_CONDITION,
        "fejer_vs_summand": fejer_e.verdict,
        "steps_in_dual_cone": not outside.size,
        "direct_sum_verdict": direct.verdict if direct is not None else None,
        "equivalence_agrees": (
            None if direct is None else (witness is None) == direct.passed
        ),
    }
    return DiagnosticsReport.from_witness(
        "check_sum_decoupling", witness, params={"witnesses": witnesses, "tol": tol},
        seed=seed, metadata=meta,
    )


@dataclass(frozen=True)
class ClusterSet:
    """Greedy ball cover of a trajectory tail.

    Every covered point is within ``radius`` of its representative and the
    representatives are pairwise more than ``radius`` apart.
    ``component_labels`` and ``gap`` (the least distance across components, inf
    for one) come from single linkage of the representatives at 2 * radius.
    """

    representatives: np.ndarray
    radius: float
    component_labels: np.ndarray
    assignment: np.ndarray
    gap: float

    @property
    def n_components(self) -> int:
        return int(self.component_labels.max()) + 1


def estimate_cluster_set(
    trajectory,
    tail_fraction: float = 0.5,
    radius: float | None = None,
    tol: float = DEFAULT_TOL,
) -> ClusterSet:
    """Cluster-point estimate from the trajectory tail.

    The default radius is 0.05 * (tail extent + tol) with floor 1e-6, the
    extent being the bounding-box diagonal.  Representatives are chosen
    greedily in trajectory order, so the result is deterministic.  An extent
    that overflows raises NonFiniteValueError, as the distances between tail
    points, which it bounds, could overflow too.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    pts = _points_of(trajectory)
    n_tail = max(1, math.ceil(tail_fraction * pts.shape[0]))
    tail = pts[-n_tail:]
    with np.errstate(over="ignore"):  # an overflow is raised below
        extent = float(np.linalg.norm(tail.max(axis=0) - tail.min(axis=0)))
    if not math.isfinite(extent):
        raise NonFiniteValueError(
            "trajectory tail spreads too far: its bounding-box diagonal overflows"
        )
    if radius is None:
        radius = max(1e-6, 0.05 * (extent + tol))
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    reps, assignment = greedy_cover(tail, radius)
    labels, gap = single_linkage(reps, 2.0 * radius)
    coverage = np.linalg.norm(tail - reps[assignment], axis=1)
    assert float(coverage.max()) <= radius + 1e-12, "greedy cover broke coverage"
    return ClusterSet(reps, float(radius), labels, assignment, gap)


def check_connectivity(cluster: ClusterSet) -> DiagnosticsReport:
    """The estimated cluster set must form one linkage component."""
    n = cluster.n_components
    meta = {"components": n}
    witness = None
    if n != 1:
        meta["gap"] = cluster.gap
        witness = {
            **meta,
            "representatives": cluster.representatives,
            "labels": cluster.component_labels,
        }
    return DiagnosticsReport.from_witness(
        "check_connectivity", witness,
        params={"radius": cluster.radius, "threshold": 2.0 * cluster.radius},
        metadata=meta,
    )


def check_cluster_orthogonality(
    cluster: ClusterSet,
    C: ConvexSet,
    witnesses: int = 10,
    seed: int = 0,
    tol: float = 1e-8,
    witness_radius: float | None = None,
) -> DiagnosticsReport:
    """Differences of cluster representatives must be orthogonal to C - C.

    The tolerance is scaled as tol * (1 + |w_i - w_j| * |c - c'|) to avoid
    spurious failures on large witnesses.
    """
    reps = cluster.representatives
    meta = {"semantics": NECESSARY_CONDITION}
    witness = None
    if reps.shape[0] < 2:
        meta["vacuous"] = True
    else:
        _, ws = _witness_points(reps, C, witnesses, seed, witness_radius)
        ii, jj = np.triu_indices(reps.shape[0], k=1)
        wdiff = reps[ii] - reps[jj]
        kk, ll = np.triu_indices(ws.shape[0], k=1)
        cdiff = ws[kk] - ws[ll]
        inner = np.abs(wdiff @ cdiff.T)
        scale = 1.0 + np.outer(
            np.linalg.norm(wdiff, axis=1), np.linalg.norm(cdiff, axis=1)
        )
        excess = inner - tol * scale
        meta["worst_excess"] = float(excess.max()) if excess.size else 0.0
        if not meta["worst_excess"] <= 0.0:
            p, q = np.unravel_index(int(np.argmax(excess)), excess.shape)
            witness = {
                "representatives": (reps[ii[p]], reps[jj[p]]),
                "witness_pair": (ws[kk[q]], ws[ll[q]]),
                "inner_product": float((wdiff[p] @ cdiff[q])),
            }
    return DiagnosticsReport.from_witness(
        "check_cluster_orthogonality", witness,
        params={"witnesses": witnesses, "tol": tol}, seed=seed, metadata=meta,
    )


def check_shadow_superset(
    trajectory,
    C: ConvexSet,
    A: ConvexSet,
    tol: float = 1e-6,
    witnesses: int = 10,
    seed: int = 0,
    tail_window: int = 500,
) -> DiagnosticsReport:
    """If the A-shadow clusters inside C, both shadows share one limit.

    Requires C to be contained in A (sanity-checked on sampled witnesses).
    The verdict is INCONCLUSIVE when the cluster hypothesis is unmet or a
    shadow limit cannot be detected at the requested tolerance.
    """
    traj = trajectory if isinstance(trajectory, Trajectory) else Trajectory(trajectory)
    for w in sample_witnesses(C, witnesses, seed=seed):
        if not A.contains(w, tol=1e-8):
            raise ValueError("C is not contained in A on sampled witnesses")
    shadow_a = shadow(traj, A)
    shadow_c = shadow(traj, C)
    cluster = estimate_cluster_set(shadow_a)
    reps = cluster.representatives
    worst = float(np.linalg.norm(reps - C.project_many(reps), axis=1).max())
    params = {"tol": tol, "witnesses": witnesses, "tail_window": tail_window}
    if worst > tol:
        return DiagnosticsReport(
            "check_shadow_superset",
            INCONCLUSIVE,
            {
                "reason": "A-shadow cluster points do not all lie in C",
                "worst_membership_residual": worst,
            },
            params=params,
            seed=seed,
        )
    window = min(tail_window, len(traj))
    la = detect_limit(shadow_a, window, tol)
    lc = detect_limit(shadow_c, window, tol)
    if la.status != CONVERGED or lc.status != CONVERGED:
        return DiagnosticsReport(
            "check_shadow_superset",
            INCONCLUSIVE,
            {
                "reason": "shadow limit not detected at the given tolerance",
                "shadow_A_status": la.status,
                "shadow_C_status": lc.status,
            },
            params=params,
            seed=seed,
        )
    sep = float(np.linalg.norm(la.limit - lc.limit))
    witness = (
        None if sep <= tol
        else {"limit_A": la.limit, "limit_C": lc.limit, "separation": sep}
    )
    return DiagnosticsReport.from_witness(
        "check_shadow_superset", witness, params=params, seed=seed,
        metadata={"limit_separation": sep},
    )


def check_codim1_theorem(
    C: ConvexSet,
    trajectory,
    witnesses: int = 10,
    seed: int = 0,
    fejer_tol: float = 1e-10,
    ar_tol: float = 1e-9,
    limit_tol: float = DEFAULT_TOL,
    tail_window: int = 500,
) -> DiagnosticsReport:
    """Codimension-1 convergence guarantee as a composite regression check.

    If codim C = 1 and the orbit is Fejer monotone with respect to C and
    asymptotically regular, the orbit must converge; hypotheses holding
    without convergence is a FAIL that signals an implementation bug.
    Unmet hypotheses give INCONCLUSIVE.
    """
    traj = trajectory if isinstance(trajectory, Trajectory) else Trajectory(trajectory)
    cod = codimension(C, traj.dim)
    fejer = check_fejer(traj, C, witnesses=witnesses, seed=seed, tol=fejer_tol)
    ar = check_asymptotic_regularity(traj, tol=ar_tol)
    meta = {
        "codim": cod.codim,
        "fejer_verdict": fejer.verdict,
        "asymptotic_regularity_verdict": ar.verdict,
    }
    params = {
        "witnesses": witnesses,
        "fejer_tol": fejer_tol,
        "ar_tol": ar_tol,
        "limit_tol": limit_tol,
        "tail_window": tail_window,
    }
    unmet = []
    if cod.codim != 1:
        unmet.append(f"codim is {cod.codim}, not 1")
    if not fejer.passed:
        unmet.append("Fejer monotonicity fails")
    if not ar.passed:
        unmet.append("asymptotic regularity fails")
    if unmet:
        return DiagnosticsReport(
            "check_codim1_theorem",
            INCONCLUSIVE,
            {"reason": "; ".join(unmet)},
            params=params,
            seed=seed,
            metadata=meta,
        )
    limit = detect_limit(traj, min(tail_window, len(traj)), limit_tol)
    meta["limit_status"] = limit.status
    witness = None
    if limit.status == CONVERGED:
        meta["limit"] = limit.limit
    else:
        witness = {
            "reason": "hypotheses hold but the orbit did not converge; "
            "this contradicts the convergence guarantee and signals a bug",
            "limit_status": limit.status,
        }
    return DiagnosticsReport.from_witness(
        "check_codim1_theorem", witness, params=params, seed=seed, metadata=meta
    )
