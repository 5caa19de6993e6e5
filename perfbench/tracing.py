"""Span tracer for the benchmark's traced pass.

The tracer works from outside the program: it replaces every public function
of the layer modules, in every ``fejerlab`` module namespace (and module-level
table) that holds a reference to it, by a wrapper that records a span.  Calls
between fejerlab functions resolve module globals at call time, so nested
calls such as ``analysis.check_codim1_theorem -> dynamics.iterate`` are
caught too.  Nothing under ``src/`` is modified; :meth:`Tracer.uninstall`
puts every original back.

A span is ``[name, outer_start, start, end, outer_end, parent, info]``.
``start``/``end`` bracket the wrapped call; ``outer_start``/``outer_end``
also bracket the tracer's own bookkeeping, so a parent's self time excludes
the cost of tracing its children.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time

import numpy as np

LAYERS = (
    "scenarios",
    "operators",
    "geometry",
    "dynamics",
    "analysis",
    "config",
    "exports",
    "cli",
)

# Per-element helpers: a span per call would cost more than the work it
# times, so their time stays with the caller.
UNTRACED = {"geometry.as_vector", "exports.format_float"}

NAME, OUTER_START, START, END, OUTER_END, PARENT, INFO = range(7)


def _bound(sig, args, kwargs):
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _stop_step(points: np.ndarray) -> int:
    """Last step the engine computed, detected as its exact early stop.

    ``iterate`` stops at the first step equal to its predecessor (fixed point)
    or to the point two steps back (2-cycle) and pads the rest, so the first
    such repeat marks the stop.  Returns len(points) - 1 when nothing repeats.
    """
    n = points.shape[0] - 1
    same1 = np.flatnonzero((points[1:] == points[:-1]).all(axis=1))
    same2 = np.flatnonzero((points[2:] == points[:-2]).all(axis=1))
    stops = [n]
    if same1.size:
        stops.append(int(same1[0]) + 1)
    if same2.size:
        stops.append(int(same2[0]) + 2)
    return min(stops)


def _count_iterate(sig, args, kwargs, result):
    pts = result.points
    total = int(_bound(sig, args, kwargs)["n_steps"])
    steps = _stop_step(pts)
    return {"dim": int(pts.shape[1]), "steps": steps, "total": total}


def _count_detect_limit(sig, args, kwargs, result):
    return {"tail_points": int(_bound(sig, args, kwargs)["tail_window"])}


def _count_check_fejer(sig, args, kwargs, result):
    a = _bound(sig, args, kwargs)
    traj = a["trajectory"]
    n = len(traj.points) if hasattr(traj, "points") else len(traj)
    return {
        "pairs": n * int(a["witnesses"]),
        "worst_over_tol": float(result.metadata["worst_increase"]) / float(a["tol"]),
        "passed": result.verdict == "pass",
    }


def _count_trials(sig, args, kwargs, result):
    return {"trials": int(_bound(sig, args, kwargs)["trials"])}


def _count_project_many(sig, args, kwargs, result):
    return {"points": int(len(result))}


def _count_load(sig, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(sig, args, kwargs)["path"])}


def _count_export_trajectory(sig, args, kwargs, result):
    traj = _bound(sig, args, kwargs)["trajectory"]
    return {"rows": len(traj.points), "bytes": os.path.getsize(result)}


def _count_export_report(sig, args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _count_run_scenario(sig, args, kwargs, result):
    return {
        "attempted": len(result.summary),
        "failed": sum(1 for o in result.summary if not o.matched),
    }


def _count_sweep(sig, args, kwargs, result):
    return {"attempted": 1, "failed": int(result.verdict != "pass")}


COUNTERS = {
    "dynamics.iterate": _count_iterate,
    "dynamics.detect_limit": _count_detect_limit,
    "analysis.check_fejer": _count_check_fejer,
    "operators.verify_nonexpansive": _count_trials,
    "operators.verify_averaged": _count_trials,
    "geometry.project_many": _count_project_many,
    "config.load_scenario": _count_load,
    "exports.export_trajectory": _count_export_trajectory,
    "exports.export_report": _count_export_report,
    "scenarios.run_scenario": _count_run_scenario,
    "scenarios.run_scalar_averaged_sweep": _count_sweep,
    "scenarios.run_affine_limit_sweep": _count_sweep,
    "scenarios.run_codim1_sweep": _count_sweep,
    "scenarios.run_decoupling_sweep": _count_sweep,
    "scenarios.run_two_ball_sweep": _count_sweep,
}


class Tracer:
    """Records spans around fejerlab's public functions while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = span[OUTER_END] = clock()
                stack.pop()
                raise
            span[END] = clock()
            stack.pop()
            if counter is not None:
                span[INFO] = counter(sig, args, kwargs, result)
            span[OUTER_END] = clock()
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module, everywhere."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "fejerlab" or name.startswith("fejerlab."))
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"fejerlab.{layer}"]
            for attr, value in vars(mod).items():
                qual = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or qual in UNTRACED
                    or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__
                ):
                    continue
                wrappers[id(value)] = self._wrap(qual, value)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._restore.append((mod.__dict__, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):  # dispatch tables such as _SWEEPS
                    for key, fn in list(value.items()):
                        if id(fn) in wrappers:
                            self._restore.append((value, key, fn))
                            value[key] = wrappers[id(fn)]
        convex_set = modules["fejerlab.geometry"].ConvexSet
        original = convex_set.__dict__["project_many"]
        self._restore.append((convex_set, "project_many", original))
        convex_set.project_many = self._wrap("geometry.project_many", original)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def root(self, name: str):
        """The span that holds one whole pass."""
        span = [name, 0.0, 0.0, 0.0, 0.0, self._stack[-1], None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[OUTER_START] = span[START] = time.perf_counter()
        try:
            yield span
        finally:
            span[END] = span[OUTER_END] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list) -> list:
    """Self time per span: its duration minus the outer intervals of its children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[OUTER_END] - s[OUTER_START]
    return out


def _ancestors(spans, idx):
    p = spans[idx][PARENT]
    while p >= 0:
        yield p
        p = spans[p][PARENT]


def layer_metrics(spans: list, root: int) -> dict:
    """Per-layer metrics of the pass whose root span has index ``root``.

    Returns ``{name: (value, unit)}``; every name is present on every
    workload, reading zero where the layer did no work.
    """
    selft = self_times(spans)
    members = [i for i in range(root + 1, len(spans)) if root in _ancestors(spans, i)]
    s_by: dict = {}
    infos: dict = {}
    for i in members:
        name = spans[i][NAME]
        s_by[name] = s_by.get(name, 0.0) + selft[i]
        infos.setdefault(name, []).append((i, spans[i][INFO]))

    def s(*names):
        return sum(s_by.get(n, 0.0) for n in names)

    def calls(name):
        return len(infos.get(name, ()))

    def total(name, key):
        return sum(info[key] for _, info in infos.get(name, ()))

    m: dict = {}
    # dynamics
    it = [info for _, info in infos.get("dynamics.iterate", ())]
    steps = sum(i["steps"] for i in it)
    points = sum(i["total"] for i in it)
    m["dynamics.iterate.calls"] = (calls("dynamics.iterate"), "count")
    m["dynamics.iterate.steps"] = (steps, "count")
    m["dynamics.iterate.padded_ratio"] = (
        (points - steps) / points if points else 0.0,
        "ratio",
    )
    m["dynamics.iterate.s"] = (s("dynamics.iterate"), "s")
    for d in (1, 2, 3, 4):
        idx = [
            (i, info)
            for i, info in infos.get("dynamics.iterate", ())
            if info["dim"] == d
        ]
        n = sum(info["steps"] for _, info in idx)
        t = sum(selft[i] for i, _ in idx)
        m[f"dynamics.iterate.us_per_step.d{d}"] = (t / n * 1e6 if n else 0.0, "us/step")
    m["dynamics.difference_orbit.s"] = (s("dynamics.difference_orbit"), "s")
    m["dynamics.normalize.s"] = (
        s("dynamics.normalized_from_raw", "dynamics.normalized_orbit"),
        "s",
    )
    m["dynamics.displacement.s"] = (
        s(
            "dynamics.displacement_from_orbit",
            "dynamics.estimate_displacement",
            "dynamics.two_ball_displacement",
        ),
        "s",
    )
    m["dynamics.shadow.s"] = (s("dynamics.shadow"), "s")
    m["dynamics.detect_limit.calls"] = (calls("dynamics.detect_limit"), "count")
    m["dynamics.detect_limit.tail_points"] = (
        total("dynamics.detect_limit", "tail_points"),
        "count",
    )
    m["dynamics.detect_limit.s"] = (s("dynamics.detect_limit"), "s")
    # analysis
    fejer_s = s("analysis.check_fejer")
    pairs = total("analysis.check_fejer", "pairs")
    # headroom of the passing checks; a failing check's ratio says nothing
    worst = [
        info["worst_over_tol"]
        for _, info in infos.get("analysis.check_fejer", ())
        if info["passed"]
    ]
    cluster = (
        "analysis.estimate_cluster_set",
        "analysis.check_connectivity",
        "analysis.check_cluster_orthogonality",
    )
    m["analysis.check_fejer.calls"] = (calls("analysis.check_fejer"), "count")
    m["analysis.check_fejer.pairs"] = (pairs, "count")
    m["analysis.check_fejer.ns_per_pair"] = (
        fejer_s / pairs * 1e9 if pairs else 0.0,
        "ns/pair",
    )
    m["analysis.check_fejer.s"] = (fejer_s, "s")
    m["analysis.check_fejer.worst_over_tol"] = (max(worst) if worst else 0.0, "ratio")
    m["analysis.cluster.s"] = (s(*cluster), "s")
    m["analysis.other_checks.s"] = (
        sum(
            v
            for k, v in s_by.items()
            if k.startswith("analysis.") and k not in cluster and k != "analysis.check_fejer"
        ),
        "s",
    )
    # operators
    verify = ("operators.verify_nonexpansive", "operators.verify_averaged")
    m["operators.certify.calls"] = (calls("operators.certify"), "count")
    m["operators.certify.s"] = (s("operators.certify"), "s")
    m["operators.verify.trials"] = (sum(total(n, "trials") for n in verify), "count")
    m["operators.verify.s"] = (s(*verify), "s")
    m["operators.fixed_set_description.s"] = (s("operators.fixed_set_description"), "s")
    # geometry
    m["geometry.sample_witnesses.calls"] = (calls("geometry.sample_witnesses"), "count")
    m["geometry.sample_witnesses.s"] = (s("geometry.sample_witnesses"), "s")
    m["geometry.project_many.points"] = (total("geometry.project_many", "points"), "count")
    m["geometry.project_many.s"] = (s("geometry.project_many"), "s")
    m["geometry.codimension.s"] = (s("geometry.codimension"), "s")
    # scenarios: checks are counted once, at the outermost scenarios span
    sweeps = [n for n in COUNTERS if n.startswith("scenarios.run_") and n.endswith("_sweep")]
    attempted = failed = 0
    for name in ("scenarios.run_scenario", *sweeps):
        for i, info in infos.get(name, ()):
            if not any(spans[p][NAME].startswith("scenarios.") for p in _ancestors(spans, i)):
                attempted += info["attempted"]
                failed += info["failed"]
    m["scenarios.run_scenario.s"] = (s("scenarios.run_scenario"), "s")
    m["scenarios.sweeps.s"] = (s(*sweeps), "s")
    m["scenarios.checks_attempted"] = (attempted, "count")
    m["scenarios.checks_failed"] = (failed, "count")
    # config
    m["config.load.calls"] = (calls("config.load_scenario"), "count")
    m["config.load.bytes"] = (total("config.load_scenario", "bytes"), "bytes")
    m["config.load.s"] = (s("config.load_scenario"), "s")
    # exports
    traj_s = s("exports.export_trajectory")
    traj_bytes = total("exports.export_trajectory", "bytes")
    m["exports.trajectory.rows"] = (total("exports.export_trajectory", "rows"), "count")
    m["exports.trajectory.bytes"] = (traj_bytes, "bytes")
    m["exports.trajectory.s"] = (traj_s, "s")
    m["exports.trajectory.mb_per_s"] = (
        traj_bytes / traj_s / 1e6 if traj_s > 0 else 0.0,
        "MB/s",
    )
    m["exports.report.bytes"] = (total("exports.export_report", "bytes"), "bytes")
    m["exports.report.s"] = (s("exports.export_report"), "s")
    m["exports.run.s"] = (s("exports.export_run"), "s")
    # cli
    m["cli.main.s"] = (s("cli.main"), "s")
    # whole layers: these and trace.unattributed_s add up to the traced pass
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            sum((v for k, v in s_by.items() if k.startswith(layer + ".")), 0.0),
            "s",
        )
    m["trace.unattributed_s"] = (selft[root], "s")
    m["trace.spans"] = (len(members), "count")
    return m

