"""Flat-file export of trajectories and reports.

Trajectory CSV: header ``n,x1,...,xd``, one row per index, each coordinate
as ``"%.17g" % x`` (17 significant digits, so a re-import reproduces every
float bit for bit).  The text is written in blocks of rows by ``fejer_csv``
of :mod:`fejerlab.native`, which rounds each value's 17 digits exactly in
integer arithmetic, once per run of rows that repeat bit for bit within a
block; the library is built at the first export or ``iterate`` of a
process.
Report and summary JSON: one encoder, two-space indent, sorted keys, a final
newline; a report's verdict is serialized as a tagged object, and a float
``per_step`` array is written in blocks of values with the bytes
``json.dumps`` gives, which are those of ``float.__repr__``.  ``fejer_reprs``
of :mod:`fejerlab.native` writes a block's shortest round-trip digits in
integer arithmetic; a block that holds a value outside 0 and
1e-16 <= |v| < 1e17 is written by ``float.__repr__`` instead.  A non-finite
value raises ``ValueError`` naming the file, before the file is opened, since
JSON has no NaN/Infinity.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from pathlib import Path

import numpy as np

from . import native
from .dynamics import Trajectory
from .report import DiagnosticsReport

BLOCK = 8192  # rows of CSV, or values of per_step, formatted at once


@contextlib.contextmanager
def _open(path):
    """The file opened for binary writing; OSError names the path."""
    try:
        with open(path, "wb") as f:
            yield f
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _json_text(obj, path) -> str:
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN and Infinity are not JSON
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _write_json(obj, path) -> Path:
    path = Path(path)
    text = _json_text(obj, path) + "\n"
    with _open(path) as f:
        f.write(text.encode("ascii"))
    return path


def export_trajectory(trajectory: Trajectory, path) -> Path:
    """Write the trajectory as CSV; returns the path written."""
    path, n = Path(path), len(trajectory)
    native.library()  # a missing C compiler raises before the file is opened
    header = "n," + ",".join(f"x{i}" for i in range(1, trajectory.dim + 1)) + "\n"
    with _open(path) as f:
        f.write(header.encode("ascii"))
        for start in range(0, n, BLOCK):
            rows = trajectory.rows(start, min(start + BLOCK, n))
            f.write(native.csv_rows(rows, start))
    return path


def load_trajectory_csv(path) -> np.ndarray:
    """Read back a trajectory CSV written by :func:`export_trajectory`."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    except OSError as exc:
        raise OSError(f"cannot read trajectory from {path}: {exc}") from exc


def _jsonable(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


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
    """Write the report as JSON, as ``json.dumps`` of :func:`report_to_dict`."""
    path, values = Path(path), report.per_step
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.ndim == 1 and values.size):
        return _write_json(report_to_dict(report), path)
    if not np.isfinite(values).all():
        raise ValueError(f"cannot write {path}: Out of range float values are not JSON compliant")
    # in indented JSON only a top-level key follows a newline and exactly two
    # spaces (a newline inside a string is escaped), so this match is unique
    rest = _json_text(report_to_dict(dataclasses.replace(report, per_step=None)), path)
    head, _, tail = rest.partition('\n  "per_step": null')
    native.library()  # a missing C compiler raises before the file is opened
    sep = b",\n    "
    with _open(path) as f:
        f.write(f'{head}\n  "per_step": [\n    '.encode("ascii"))
        for start in range(0, len(values), BLOCK):
            block = values[start : start + BLOCK]
            text = native.reprs(block, sep)
            if text is None:  # a value outside the range of the C digits
                text = sep.decode().join(map(float.__repr__, block.tolist())).encode("ascii")
            if start:
                f.write(sep)
            f.write(text)
        f.write(f"\n  ]{tail}\n".encode("ascii"))
    return path


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
