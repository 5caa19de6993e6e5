"""Orbit generation and limit diagnostics.

:func:`iterate` is the only code that iterates an operator.  Derived
trajectories, drift estimates and limit verdicts take the orbits it returns,
so a caller that needs one orbit several times computes it once.

Trajectories are immutable: every array they hand out is read-only.
:func:`iterate` runs the C orbit loop of :mod:`fejerlab.native` on the
program of the operator's float source that ``T.apply`` runs on one row, so
the orbit equals the orbit of ``T.apply`` bit for bit.  The loop ends a run
early when the orbit enters an exact cycle of any period; it raises
NonFiniteValueError at the first step past ``DEFAULT_NORM_CAP`` or not
finite, such as a step that divides by zero.  The trajectory records the row
from which it repeats and the period (``periodic_from``, ``period``) and
keeps only the rows the loop computed, as do the differences and shadows
formed from such orbits: their tails and row ranges are read from those rows
by index arithmetic, and the whole array is built only for a caller that
asks for ``points``.  :func:`periodic_rows` turns the cycle into the leading
rows that a check of per-step values needs to read, and
:func:`periodic_steps` extends the values read there to every step.

So most tails are a few points repeated.  :func:`detect_limit` takes the tail
diameter over one period of a recorded cycle, or else over the rows that do
not repeat the row one or two steps before (the full-tail diameter bit for bit
either way), and clusters a tail by single linkage over its distinct rows; its
tails must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import single_linkage
from .errors import (
    CertificateRequiredError,
    DimensionMismatchError,
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


class Trajectory:
    """A finite sequence of points in R^d, one row per step.

    Every array a trajectory hands out is read-only.  The constructor copies
    what it is given; the orbit builders hand over arrays they have just made
    with :meth:`_own`.

    ``periodic_from`` and ``period`` are set by :func:`iterate`, when its
    kernel saw the orbit repeat, and kept by :func:`difference_orbit` and
    :func:`shadow`: row j + period equals row j bit for bit for every
    j >= periodic_from.  Every other trajectory has None for both.  Such a
    trajectory keeps only its rows [0, q + p], for q = periodic_from and
    p = period, and reads row j >= q as row q + (j - q) mod p.  ``len``,
    ``dim``, :meth:`tail` and :meth:`rows` work from those rows; ``points``,
    the whole (len, dim) array, is built on first use and kept.
    """

    def __init__(self, points):
        self._set_rows(np.array(points, dtype=float))

    @classmethod
    def _own(cls, rows: np.ndarray, cycle=None, length=None) -> "Trajectory":
        """Wrap a fresh float array that no one else holds, without a copy.

        ``rows`` are the leading rows of a trajectory of ``length`` rows
        (all of them by default) that repeats from row q on with period p,
        for ``cycle`` = (q, p).
        """
        traj = cls.__new__(cls)
        traj._set_rows(rows, cycle, length)
        return traj

    def _set_rows(self, rows, cycle=None, length=None) -> None:
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError("trajectory points must form a nonempty (n, d) array")
        if rows.shape[1] < 1:
            raise DimensionMismatchError("vectors must have positive dimension")
        rows.setflags(write=False)
        self._rows = rows
        self._len = rows.shape[0] if length is None else length
        self._points = rows if self._len == rows.shape[0] else None
        self._periodic_from, self._period = cycle or (None, None)

    @property
    def periodic_from(self) -> int | None:
        return self._periodic_from

    @property
    def period(self) -> int | None:
        return self._period

    @property
    def points(self) -> np.ndarray:
        """The whole (len, dim) array, built on first use and kept."""
        if self._points is None:
            self._points = self.rows(0, self._len)
        return self._points

    def __len__(self) -> int:
        return self._len

    @property
    def dim(self) -> int:
        return self._rows.shape[1]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows [start, stop), for 0 <= start <= stop <= len."""
        if not 0 <= start <= stop <= self._len:
            raise ValueError(
                f"rows [{start}, {stop}) outside a trajectory of {self._len} rows"
            )
        if self._points is not None:
            return self._points[start:stop]
        if stop <= self._rows.shape[0]:
            return self._rows[start:stop]
        out = _repeated(self._rows, self._periodic_from, self._period, start, stop)
        out.setflags(write=False)
        return out

    def tail(self, count: int) -> np.ndarray:
        """The last ``count`` rows, for 1 <= count <= len."""
        if not 1 <= count <= self._len:
            raise ValueError(
                f"tail of {count} rows outside a trajectory of {self._len} rows"
            )
        return self.rows(self._len - count, self._len)

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


def iterate(T: OperatorExpr, x0, n_steps: int) -> Trajectory:
    """Raw orbit x0, Tx0, T^2 x0, ... of length n_steps + 1."""
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)):
        raise ValueError(f"n_steps must be an integer, got {n_steps!r}")
    n = int(n_steps)
    if n < 1:
        raise ValueError(f"n_steps must be >= 1, got {n}")
    x0 = as_vector(x0, T.dim)
    pts = np.empty((n + 1, x0.size))
    pts[0] = x0
    cycle = T._kernel(x0.size).run(pts, DEFAULT_NORM_CAP * DEFAULT_NORM_CAP)
    if cycle is None:
        return Trajectory._own(pts)
    # row q + p repeats row q: keep the rows computed up to it
    rows = pts if sum(cycle) == n else pts[: sum(cycle) + 1].copy()
    return Trajectory._own(rows, cycle, n + 1)


def _repeated(head: np.ndarray, q: int, p: int, start: int, stop: int) -> np.ndarray:
    """Entries [start, stop), stop > q, of the sequence that starts with the
    q + p entries of ``head`` and repeats with period p from entry q on: the
    entries before q, then whole periods through a (reps, p) view."""
    lead = max(0, q - start)
    k = (start + lead - q) % p
    reps = -(-(stop - start - lead) // p)
    out = np.empty((lead + reps * p, *head.shape[1:]), dtype=head.dtype)
    out[:lead] = head[start : start + lead]
    period = np.concatenate([head[q + k : q + p], head[q : q + k]])
    out[lead:].reshape(reps, p, *head.shape[1:])[:] = period
    return out[: stop - start]


def _joint_cycle(orbits) -> tuple[int, int] | None:
    """The latest start and the lcm of the periods of the orbits, or None."""
    if any(o.period is None for o in orbits):
        return None
    return max(o.periodic_from for o in orbits), math.lcm(*(o.period for o in orbits))


def periodic_rows(*orbits: Trajectory) -> int:
    """Leading rows of equally long orbits that hold every per-step value.

    A per-step value reads rows k and k + 1 of each orbit.  When every orbit
    repeats, from row q on with the lcm p of their periods, the value at
    k >= q + p equals the one at k - p; so each value, its maximum and its
    first argmax already appear in rows [0, q + p + 1).
    """
    n = len(orbits[0])
    cycle = _joint_cycle(orbits)
    return n if cycle is None else min(n, sum(cycle) + 1)


def periodic_steps(values: np.ndarray, *orbits: Trajectory) -> np.ndarray:
    """Every per-step value of equally long orbits, from ``values``, their
    values on the :func:`periodic_rows` of the orbits.

    From step q on, value k is value q + (k - q) mod p, for the q and p of
    :func:`periodic_rows`, filled as :meth:`Trajectory.rows` fills rows.
    Values that already cover every step are returned as they are.
    """
    n = len(orbits[0]) - 1
    if values.shape[0] == n:
        return values
    return _repeated(values, *_joint_cycle(orbits), 0, n)


def normalized_from_raw(raw: Trajectory, v) -> Trajectory:
    """Drift-compensated orbit points[n] = T^n x0 + n * v of a raw orbit."""
    v = as_vector(v, raw.dim)
    pts = np.arange(len(raw), dtype=float)[:, None] * v
    pts += raw.points  # in place: the sum is the same either way round
    return Trajectory._own(pts)


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
    Both are formed on the :func:`periodic_rows` of the orbits alone; the
    difference keeps their joint cycle.
    """
    if len(a) != len(b) or a.dim != b.dim:
        raise ValueError("the two orbits must have the same length and dimension")
    head = periodic_rows(a, b)
    a_rows, b_rows = a.rows(0, head), b.rows(0, head)
    diff = a_rows - b_rows
    norms = np.linalg.norm(diff, axis=1)
    growth = norms[1:] - norms[:-1]
    excess = growth - difference_monotonicity_slack(a_rows, b_rows)
    if excess.size and float(excess.max()) > 0.0:
        idx = int(np.argmax(excess))
        raise MonotonicityViolationError(
            f"difference norm grew by {growth[idx]:.3e} at step {idx}; "
            "the operator is not nonexpansive"
        )
    return Trajectory._own(diff, _joint_cycle((a, b)), len(a))


def shadow(trajectory: Trajectory, C: ConvexSet) -> Trajectory:
    """Projection of every trajectory point onto ``C``, keeping its cycle."""
    rows = C.project_many(trajectory.rows(0, periodic_rows(trajectory)))
    return Trajectory._own(rows, _joint_cycle((trajectory,)), len(trajectory))


def displacement_from_orbit(orbit: Trajectory, tail: int) -> tuple[np.ndarray, float]:
    """Tail mean of the step differences T^n x - T^{n+1} x and its residual."""
    if tail < 1 or tail >= len(orbit):
        raise ValueError("tail must satisfy 1 <= tail < len(orbit)")
    pts = orbit.tail(tail + 1)
    seg = pts[:-1] - pts[1:]
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
    labels, gap = single_linkage(tail, 10.0 * tol)
    counts = np.bincount(labels)
    if len(counts) < 2 or counts.min() < 2:
        return None
    transitions = labels[np.concatenate([[True], labels[1:] != labels[:-1]])]
    if len(set(transitions.tolist())) == len(transitions):
        return None  # each component is one contiguous block: no revisit
    centers = np.stack([tail[labels == c].mean(axis=0) for c in range(len(counts))])
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
    the tail's distinct rows, so it is the full tail's: one period of the
    cycle, when the orbit records one that the tail covers whole, or else the
    tail rows that do not repeat, by value, the row one or two steps before
    them.  A non-finite tail raises NonFiniteValueError, as an inf row would
    otherwise count as a repeat of another.
    """
    from scipy.spatial.distance import pdist

    if tail_window < 2:
        raise ValueError("tail_window must be >= 2")
    if tail_window > len(trajectory):
        raise ValueError("tail_window exceeds the trajectory length")
    tail = trajectory.tail(tail_window)
    bad = ~np.isfinite(tail).all(axis=1)
    if bad.any():
        step = len(trajectory) - tail_window + int(np.argmax(bad))
        raise NonFiniteValueError(f"trajectory point {step} in the tail is not finite")
    q, p = trajectory.periodic_from, trajectory.period
    if p is not None and len(trajectory) - tail_window >= q and tail_window >= p:
        rows = trajectory.rows(q, q + p)  # the tail's rows, each at least once
    else:
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
