"""Flat-file export of trajectories and reports.

Trajectory CSV: header ``n,x1,...,xd``, one row per index, each coordinate
as ``"%.17g" % x`` (17 significant digits, so a re-import reproduces every
float bit for bit).  The text is built with numpy, in blocks of rows: every
float's 17 decimal digits come from a double-double product (Dekker 1971)
with a power of ten; a value whose rounding that product cannot decide, and
every subnormal, non-finite or out-of-table value, is formatted by Python's
correctly rounded ``%.17g`` instead.
Report and summary JSON: one encoder, two-space indent, sorted keys, a final
newline; a report's verdict is serialized as a tagged object, and a float
``per_step`` array is written in blocks of values with the bytes
``json.dumps`` gives.  A non-finite value raises ``ValueError`` naming the
file, before the file is opened, since JSON has no NaN/Infinity.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .report import DiagnosticsReport

BLOCK = 8192  # rows of CSV, or values of per_step, formatted at once

# Decimal exponents E whose scale 10**(16 - E) is in the table.  At the ends
# Dekker's split of the scale and of the value neither overflows nor loses
# bits to subnormals; other exponents take the per-value fallback.
_E_MIN, _E_MAX = -280, 280
_SPLITTER = 134217729.0  # 2**27 + 1
_TIE_BAND = 1e-9  # the double-double error on the scaled value is below 1e-13

# Each float is written as a 32-byte row, and a byte holding 0 is unused.
# Byte 1 is the "," before the value and byte 2 its sign.  Bytes 3-6 hold
# "0000" and bytes 7-23 the 17 digits; the text shows some of them, with a
# "." after the first digit, after digit E (positional, E >= 0) or after the
# first zero (positional, E < 0: "0.000ddd"), and then may add "e", the
# exponent's sign and three exponent digits.  Which byte shows which digit
# depends only on (E, the count of significant digits, the sign), so each has
# one template: a 0/1 mask on the digit row, a 0/1 mask on the digit row
# shifted one byte right (the digits after the "."), and constant bytes.
_TEMPLATE_E = range(_E_MIN - 2, _E_MAX + 3)


@functools.cache
def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII text of 0000..9999, one uint32 each, and their trailing zeros."""
    text = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), dtype=np.uint32)
    v = np.arange(10000)
    zeros = sum((v % 10**k == 0).astype(np.uint8) for k in range(1, 5))
    return text, zeros


@functools.cache
def _templates() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks and characters of the 32-byte row, each (key, 32) uint8.

    key = ((E - _TEMPLATE_E.start) * 17 + count - 1) * 2 + signbit.
    """
    e = np.array(_TEMPLATE_E)[:, None, None, None]
    sig = np.arange(1, 18)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    j = np.arange(32)[None, None, None, :] - 3  # bytes 3-6 are cells 0-3
    positional = (e >= -4) & (e < 17)
    small = positional & (e < 0)
    first = np.where(small, 4 + e, 4)
    whole = np.where(positional, np.maximum(e + 1, 0), 1)  # digits before "."
    stop = 4 + np.maximum(sig, whole)
    point = 4 + np.where(positional, e, 0)  # "." follows this cell
    mask = (j <= point) & (first <= j) & (j < stop)
    shifted = (j >= point + 2) & (first < j) & (j <= stop)
    sci = ~positional
    ae = np.abs(e)
    chars = np.select(
        [j == -2, j == -1, (j == point + 1) & (sig > whole), sci & (j == 22), sci & (j == 23),
         sci & (j == 24) & (ae >= 100), sci & (j == 25), sci & (j == 26)],
        [ord(","), neg * ord("-"), ord("."), ord("e"), np.where(e < 0, ord("-"), ord("+")),
         ord("0") + ae // 100, ord("0") + ae // 10 % 10, ord("0") + ae % 10],
    )
    shape = np.broadcast_shapes(mask.shape, chars.shape)
    return tuple(np.broadcast_to(t, shape).reshape(-1, 32).astype(np.uint8)
                 for t in (mask, shifted, chars))


@functools.cache
def _scales() -> tuple[np.ndarray, ...]:
    """10**k for k = 16 - E, as hi + lo with hi split into Dekker halves."""
    ks = range(16 - _E_MAX - 1, 16 - _E_MIN + 2)
    exact = [Fraction(10) ** k for k in ks]
    hi = np.array([float(q) for q in exact])
    lo = np.array([float(q - Fraction(h)) for q, h in zip(exact, hi.tolist())])
    hi_hi, hi_lo = _split(hi)
    return hi, hi_hi, hi_lo, lo


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a == hi + lo exactly, each half with 26 or fewer bits."""
    c = a * _SPLITTER
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """p = a * b rounded and its error: a * b == p + e exactly (Dekker).

    ``b_hi``, ``b_lo`` are :func:`_split` of b.  Each numpy operation rounds
    on its own; none is fused into an FMA.
    """
    p = a * b
    a_hi, a_lo = _split(a)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _scaled_floor(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a * 10**(16 - e)) as int64 and the fraction left over.

    The product is the unevaluated sum p + q of a * hi rounded and of its
    error plus a * lo; below 2**63 it is off by less than 1e-13.
    """
    hi, hi_hi, hi_lo, lo = (np.take(t, _E_MAX + 1 - e) for t in _scales())
    p, q = _two_product(a, hi, hi_hi, hi_lo)
    q += a * lo
    whole = np.floor(p)
    t = (p - whole) + q
    t_whole = np.floor(t)
    return whole.astype(np.int64) + t_whole.astype(np.int64), t - t_whole


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit decimal significand D and exponent E of nonnegative floats.

    Returns (D, E, exact): a rounds to D * 10**(E - 16) at 17 digits, with
    10**16 <= D < 10**17, wherever ``exact``.  Elsewhere D is 0 and the
    rounding was not decided: a is 0, subnormal, not finite or outside the
    exponent table, or its scaled fraction lies within the tie band.
    """
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))  # may be one too high or too low
    exact = (e >= _E_MIN) & (e <= _E_MAX)  # False for 0, subnormals, inf, NaN
    e = np.where(exact, e, 0.0).astype(np.int64)
    a = np.where(exact, a, 1.0)
    d, frac = _scaled_floor(a, e)
    wrong = (d < 10**16) | (d >= 10**17)
    if wrong.any():
        e[wrong] += np.where(d[wrong] < 10**16, -1, 1)
        d[wrong], frac[wrong] = _scaled_floor(a[wrong], e[wrong])
    exact &= (d >= 10**16) & (d < 10**17) & (np.abs(frac - 0.5) >= _TIE_BAND)
    d += frac > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    d[~exact] = 0  # a zero reads "0"; the caller formats other such values
    e += carry
    return d, e, exact


def _format_floats(x: np.ndarray) -> np.ndarray:
    """``"," + "%.17g" % v`` for each v of x, as (n, 32) bytes, 0 for unused."""
    n = len(x)
    d, e, exact = _significands(np.abs(x))
    groups, zeros = _digit_groups()
    head = d // 10**16
    top = d // 10**8 - head * 10**8
    low = d % 10**8
    quads = (top // 10**4, top % 10**4, low // 10**4, low % 10**4)
    text = np.empty((n, 8), dtype=np.uint32)
    text[:, 0] = groups[0]
    text[:, 1] = np.take(groups, head)
    for i, q in enumerate(quads):
        text[:, 2 + i] = np.take(groups, q)
    text[:, 6:] = 0
    trailing = np.take(zeros, quads[3])
    run = quads[3] == 0
    for q in quads[2::-1]:
        trailing += run * np.take(zeros, q)
        run &= q == 0
    key = ((e - _TEMPLATE_E.start) * 17 + (16 - trailing)) * 2 + np.signbit(x)
    mask, shifted, chars = (np.take(t, key, axis=0).reshape(-1) for t in _templates())
    digits = text.view(np.uint8).reshape(-1)
    out = digits * mask
    out[1:] += digits[:-1] * shifted[1:]
    out += chars
    out = out.reshape(n, 32)
    for i in np.flatnonzero(~exact & (x != 0.0)):
        cell = (",%.17g" % x[i]).encode("ascii")
        out[i] = 0
        out[i, 1 : 1 + len(cell)] = np.frombuffer(cell, dtype=np.uint8)
    return out


def _format_index(start: int, n: int) -> np.ndarray:
    """Decimal text of start..start+n-1 as (n, width) bytes, 0 for unused."""
    stop = start + n
    k = -(-len(str(stop - 1)) // 4)  # 4-digit groups
    idx = np.arange(start, stop, dtype=np.int64)
    text = np.empty((n, k), dtype=np.uint32)
    for j in range(k):
        text[:, j] = np.take(_digit_groups()[0], idx // 10 ** (4 * (k - 1 - j)) % 10**4)
    chars = text.view(np.uint8)
    for width in range(len(str(start)), len(str(stop - 1)) + 1):
        # the rows whose index has this many digits blank the same leading zeros
        lo, hi = max(start, 10 ** (width - 1) if width > 1 else 0), min(stop, 10**width)
        chars[lo - start : hi - start, : 4 * k - width] = 0
    return chars


def _csv_block(points: np.ndarray, start: int) -> np.ndarray:
    """The CSV rows of ``points`` (row ``start`` onward) as one text block."""
    n, d = points.shape
    index = _format_index(start, n)
    w = index.shape[1]
    block = np.empty((n, w + 32 * d + 1), dtype=np.uint8)
    block[:, :w] = index
    block[:, w:-1] = _format_floats(points.reshape(-1)).reshape(n, 32 * d)
    block[:, -1] = ord("\n")
    block = block.reshape(-1)
    return np.compress(block != 0, block)


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
    path, pts = Path(path), trajectory.points
    header = "n," + ",".join(f"x{i}" for i in range(1, pts.shape[1] + 1)) + "\n"
    with _open(path) as f:
        f.write(header.encode("ascii"))
        for start in range(0, len(pts), BLOCK):
            f.write(_csv_block(pts[start : start + BLOCK], start))
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
    sep = ",\n    "
    with _open(path) as f:
        f.write(f'{head}\n  "per_step": [\n    '.encode("ascii"))
        for start in range(0, len(values), BLOCK):
            text = sep.join(map(float.__repr__, values[start : start + BLOCK].tolist()))
            f.write(((sep if start else "") + text).encode("ascii"))
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
