"""Flat-file export of trajectories and reports.

Trajectory CSV: header ``n,x1,...,xd``, one row per index, decimals printed
with 17 significant digits so a re-import reproduces every float bit for bit.
The whole body is one ``%``-template per row, mapped over the columns.
Report and summary JSON: one writer, two-space indent, sorted keys, a final
newline; a report's verdict is serialized as a tagged object.  A non-finite
value raises ``ValueError`` naming the file, since JSON has no NaN/Infinity.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .report import DiagnosticsReport


def _jsonable(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write(path, text: str) -> Path:
    path = Path(path)
    try:
        path.write_text(text, encoding="ascii")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return path


def _write_json(obj, path) -> Path:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN and Infinity are not JSON
        raise ValueError(f"cannot write {path}: {exc}") from exc
    return _write(path, text + "\n")


def export_trajectory(trajectory: Trajectory, path) -> Path:
    """Write the trajectory as CSV; returns the path written."""
    pts = trajectory.points
    n, d = pts.shape
    header = "n," + ",".join(f"x{i}" for i in range(1, d + 1))
    row = "%d" + ",%.17g" * d  # 17 significant digits round-trip every float
    body = "\n".join(row % r for r in zip(range(n), *pts.T.tolist()))
    return _write(path, f"{header}\n{body}\n")


def load_trajectory_csv(path) -> np.ndarray:
    """Read back a trajectory CSV written by :func:`export_trajectory`."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    except OSError as exc:
        raise OSError(f"cannot read trajectory from {path}: {exc}") from exc


def report_to_dict(report: DiagnosticsReport) -> dict:
    """Canonical JSON-ready form of a report."""
    verdict: dict = {"type": report.verdict}
    if report.verdict == "fail":
        verdict["witness"] = _jsonable(report.witness)
    elif report.verdict == "inconclusive":
        verdict["reason"] = _jsonable(report.witness)
    return {
        "checker": report.checker,
        "verdict": verdict,
        "params": _jsonable(report.params),
        "seed": report.seed,
        "per_step": _jsonable(report.per_step),
        "metadata": _jsonable(report.metadata),
    }


def export_report(report: DiagnosticsReport, path) -> Path:
    return _write_json(report_to_dict(report), path)


def export_run(artifacts, out_dir) -> Path:
    """Write every trajectory, every report, and the match summary of a run.

    Files go to ``out_dir/<scenario>/``; per-run directories keep concurrent
    scenario runs from contending on file names.
    """
    run_dir = Path(out_dir) / artifacts.scenario
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, traj in artifacts.trajectories.items():
        export_trajectory(traj, run_dir / f"{name}.csv")
    for name, report in artifacts.reports.items():
        export_report(report, run_dir / f"{name}.json")
    summary = {
        "scenario": artifacts.scenario,
        "all_matched": artifacts.all_matched,
        "checks": [dataclasses.asdict(o) for o in artifacts.summary],
    }
    _write_json(summary, run_dir / "summary.json")
    return run_dir
