"""Orbit generation and limit diagnostics.

:func:`iterate` is the only code that iterates an operator.  Derived
trajectories, drift estimates and limit verdicts take the orbits it returns,
so a caller that needs one orbit several times computes it once.

Trajectories are immutable (points array is read-only after construction).
Iteration has two engines that run the one closure ``T.apply`` runs, so the
orbit equals the orbit of ``T.apply`` bit for bit: a numpy engine for every
tree, and a plain-float one on the line for ``_scalar`` trees (Identity,
Negation, ScalarPiecewiseLinear, ConvexCombination, Composition).  Both
terminate a run early when the orbit hits an exact fixed point or an exact
period-2 cycle, padding the remaining points with the (exactly continued)
pattern, and both raise NonFiniteValueError past ``DEFAULT_NORM_CAP``.

So most tails are a few points repeated.  :func:`detect_limit` takes the tail
diameter over the rows that are not exact repeats of the row one or two steps
before, which gives the full-tail diameter bit for bit; its tails must be
finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign

import numpy as np
from scipy.spatial.distance import pdist

from .clustering import component_gap, single_linkage_labels
from .errors import (
    CertificateRequiredError,
    MonotonicityViolationError,
    NonFiniteValueError,
)
from .geometry import ConvexSet, as_vector
from .operators import OperatorExpr, certify

DEFAULT_TAIL_WINDOW = 1000
DEFAULT_TOL = 1e-9
DEFAULT_NORM_CAP = 1e12

CONVERGED = "converged"
DIVERGING = "diverging"
OSCILLATING = "oscillating"
INCONCLUSIVE = "inconclusive"


@dataclass
class Trajectory:
    """A finite sequence of points in R^d, one row per step."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("trajectory points must form a nonempty (n, d) array")
        pts = pts.copy()
        pts.setflags(write=False)
        self.points = pts

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def tail(self, count: int) -> np.ndarray:
        return self.points[-count:]

    def __repr__(self) -> str:
        return f"Trajectory(len={len(self)}, dim={self.dim})"


@dataclass(frozen=True)
class LimitEstimate:
    """Tail-based verdict about the long-run behaviour of a trajectory."""

    status: str
    tail_window: int
    tolerance: float
    limit: np.ndarray | None = None
    residual: float | None = None
    growth_rate: float | None = None
    cluster_points: np.ndarray | None = None
    cluster_labels: np.ndarray | None = None
    cluster_gap: float | None = None
    reason: str | None = None


@dataclass(frozen=True)
class DisplacementEstimate:
    """Estimated drift vector v with the method and its tail residual."""

    v: np.ndarray
    method: str
    residual: float
    certified: bool = True


def _iterate_scalar(fn, x0: float, n_steps: int) -> np.ndarray:
    out = np.empty(n_steps + 1)
    out[0] = cur = float(x0)
    prev = None
    i = 1
    while i <= n_steps:
        nxt = fn(cur)
        if not (-DEFAULT_NORM_CAP <= nxt <= DEFAULT_NORM_CAP):
            raise NonFiniteValueError(
                f"orbit left the representable range at step {i}: {nxt!r}"
            )
        out[i] = nxt
        # a repeat must match in sign too, as 0.0 == -0.0
        if nxt == cur and copysign(1.0, nxt) == copysign(1.0, cur):
            out[i + 1 :] = nxt
            break
        if nxt == prev and copysign(1.0, nxt) == copysign(1.0, prev):
            out[i + 1 :: 2] = cur
            out[i + 2 :: 2] = nxt
            break
        prev, cur = cur, nxt
        i += 1
    return out.reshape(-1, 1)


def _iterate_vector(fn, x0: np.ndarray, n_steps: int) -> np.ndarray:
    out = np.empty((n_steps + 1, x0.size))
    out[0] = cur = x0
    cap2 = DEFAULT_NORM_CAP * DEFAULT_NORM_CAP
    cur_b = cur.tobytes()  # byte images make the exact-repeat tests cheap
    prev = None
    prev_b = None
    i = 1
    while i <= n_steps:
        nxt = fn(cur)
        m2 = float(nxt @ nxt)
        if not m2 <= cap2:  # NaN fails the comparison too
            raise NonFiniteValueError(
                f"orbit left the representable range at step {i}"
            )
        out[i] = nxt
        nxt_b = nxt.tobytes()
        if nxt_b == cur_b:
            out[i + 1 :] = nxt
            break
        if prev_b is not None and nxt_b == prev_b:
            out[i + 1 :: 2] = cur
            out[i + 2 :: 2] = nxt
            break
        prev, prev_b = cur, cur_b
        cur, cur_b = nxt, nxt_b
        i += 1
    return out


def iterate(T: OperatorExpr, x0, n_steps: int) -> Trajectory:
    """Raw orbit x0, Tx0, T^2 x0, ... of length n_steps + 1."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x0 = as_vector(x0, T.dim)
    if T._scalar and x0.size == 1:
        pts = _iterate_scalar(T._fn, float(x0[0]), n_steps)
    else:
        pts = _iterate_vector(T._fn, x0, n_steps)
    return Trajectory(pts)


def normalized_from_raw(raw: Trajectory, v) -> Trajectory:
    """Drift-compensated orbit points[n] = T^n x0 + n * v of a raw orbit."""
    v = as_vector(v, raw.dim)
    steps = np.arange(len(raw), dtype=float)[:, None]
    return Trajectory(raw.points + steps * v)


def difference_monotonicity_slack(
    a_points: np.ndarray, b_points: np.ndarray, tol: float = 1e-12
) -> np.ndarray:
    """Per-step slack for the nonincreasing-norm guard on orbit differences.

    The difference of two floating-point orbits carries cancellation error
    proportional to the iterate magnitude, so the admissible growth is
    ``tol`` scaled by max(1, iterate magnitude); it reduces to plain ``tol``
    for orbits of unit scale.
    """
    scale = np.maximum(
        1.0,
        np.maximum(
            np.abs(a_points).max(axis=1), np.abs(b_points).max(axis=1)
        ),
    )
    return tol * np.maximum(scale[1:], scale[:-1])


def difference_orbit(a: Trajectory, b: Trajectory) -> Trajectory:
    """Orbit of differences T^n x0 - T^n y0 from the raw orbits of x0 and y0.

    Nonexpansiveness forces the norms to be nonincreasing; growth beyond
    :func:`difference_monotonicity_slack` raises MonotonicityViolationError
    since it signals a broken operator rather than interesting dynamics.
    """
    if a.points.shape != b.points.shape:
        raise ValueError("the two orbits must have the same length and dimension")
    diff = a.points - b.points
    norms = np.linalg.norm(diff, axis=1)
    growth = norms[1:] - norms[:-1]
    excess = growth - difference_monotonicity_slack(a.points, b.points)
    if excess.size and float(excess.max()) > 0.0:
        idx = int(np.argmax(excess))
        raise MonotonicityViolationError(
            f"difference norm grew by {growth[idx]:.3e} at step {idx}; "
            "the operator is not nonexpansive"
        )
    return Trajectory(diff)


def shadow(trajectory: Trajectory, C: ConvexSet) -> Trajectory:
    """Projection of every trajectory point onto ``C``."""
    return Trajectory(C.project_many(trajectory.points))


def displacement_from_orbit(orbit: Trajectory, tail: int) -> tuple[np.ndarray, float]:
    """Tail mean of the step differences T^n x - T^{n+1} x and its residual."""
    if tail < 1 or tail >= len(orbit):
        raise ValueError("tail must satisfy 1 <= tail < len(orbit)")
    diffs = orbit.points[:-1] - orbit.points[1:]
    seg = diffs[-tail:]
    v = seg.mean(axis=0)
    residual = float(np.linalg.norm(seg - v, axis=1).max())
    return v, residual


def estimate_displacement(
    T: OperatorExpr,
    orbit: Trajectory,
    tail: int = DEFAULT_TAIL_WINDOW,
    allow_uncertified: bool = False,
) -> DisplacementEstimate:
    """Estimate the drift vector v from the tail of ``orbit``'s step differences.

    ``orbit`` is a raw orbit of ``T``.  The tail-mean estimator is justified
    for averaged operators (the step differences converge to v); for
    anything weaker the caller must opt in with ``allow_uncertified`` and the
    result is flagged as heuristic.
    """
    cert = certify(T)
    certified = cert.is_averaged
    if not certified and not allow_uncertified:
        raise CertificateRequiredError(
            "operator is not certified averaged; pass allow_uncertified=True "
            "to run the estimator heuristically"
        )
    v, residual = displacement_from_orbit(orbit, tail)
    return DisplacementEstimate(
        v=v, method="step_difference_tail", residual=residual, certified=certified
    )


def _oscillation_clusters(tail: np.ndarray, tol: float):
    """Single-linkage clusters of the tail at radius 10 * tol, or None.

    Oscillation requires at least two components, each visited at least
    twice, with the visit order actually returning to an earlier component
    (a drifting hand-over between clusters does not count).
    """
    labels = single_linkage_labels(tail, 10.0 * tol)
    n_comp = int(labels.max()) + 1
    if n_comp < 2:
        return None
    counts = np.bincount(labels, minlength=n_comp)
    if counts.min() < 2:
        return None
    transitions = labels[np.concatenate([[True], labels[1:] != labels[:-1]])]
    if len(set(transitions.tolist())) == len(transitions):
        return None  # each component is one contiguous block: no revisit
    centers = np.stack([tail[labels == c].mean(axis=0) for c in range(n_comp)])
    gap = component_gap(tail, labels)
    return centers, labels, gap


def detect_limit(
    trajectory: Trajectory,
    tail_window: int = DEFAULT_TAIL_WINDOW,
    tol: float = DEFAULT_TOL,
) -> LimitEstimate:
    """Classify the tail as converged, diverging, oscillating or inconclusive.

    Convergence means the tail diameter is within ``tol`` (the limit is the
    tail mean); consecutive-step size is deliberately not used, since steps
    can vanish along non-convergent sequences.  The diameter is measured over
    the tail rows that do not repeat, by value, the row one or two steps
    before them; each dropped row copies a kept one, so the diameter is the
    full tail's.  A non-finite tail raises NonFiniteValueError, as an inf row
    would otherwise count as a repeat of another.
    """
    if tail_window < 2:
        raise ValueError("tail_window must be >= 2")
    if tail_window > len(trajectory):
        raise ValueError("tail_window exceeds the trajectory length")
    tail = trajectory.tail(tail_window)
    bad = ~np.isfinite(tail).all(axis=1)
    if bad.any():
        step = len(trajectory) - tail_window + int(np.argmax(bad))
        raise NonFiniteValueError(f"trajectory point {step} in the tail is not finite")
    # a row equal to the row one or two steps before it adds no new distance
    fresh = np.ones(tail_window, dtype=bool)
    fresh[1:] = (tail[1:] != tail[:-1]).any(axis=1)
    fresh[2:] &= (tail[2:] != tail[:-2]).any(axis=1)
    rows = tail[fresh]
    diameter = float(pdist(rows).max()) if len(rows) > 1 else 0.0
    if diameter <= tol:
        return LimitEstimate(
            CONVERGED,
            tail_window,
            tol,
            limit=tail.mean(axis=0),
            residual=diameter,
        )
    norms = np.linalg.norm(tail, axis=1)
    growth = np.diff(norms)
    if growth.size and np.all(growth > 0.0):
        rate = float((norms[-1] - norms[0]) / (len(norms) - 1))
        if rate >= tol:
            return LimitEstimate(DIVERGING, tail_window, tol, growth_rate=rate)
    clusters = _oscillation_clusters(tail, tol)
    if clusters is not None:
        centers, labels, gap = clusters
        return LimitEstimate(
            OSCILLATING,
            tail_window,
            tol,
            cluster_points=centers,
            cluster_labels=labels,
            cluster_gap=gap,
        )
    return LimitEstimate(
        INCONCLUSIVE,
        tail_window,
        tol,
        residual=diameter,
        reason=f"tail diameter {diameter:.3e} exceeds tolerance without "
        "divergence or revisiting clusters",
    )
