"""Wall time, peak RSS and every check outcome of the built-in scenarios at a
large step count, each scenario in a fresh process, printed as one JSON object.

Run from the root of a checkout, against the ``fejerlab`` on ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/registry_at_scale.py [--steps 10000000] [--out] [NAME ...]

With no NAME it runs every built-in scenario, one at a time.  Each runs as
``python -m fejerlab.cli run NAME --steps N``.  Without ``--out`` nothing is
written (``FEJERLAB_OUT`` is removed from the child's environment).  With
``--out`` each scenario writes its files into a fresh temporary directory
(under ``TMPDIR``), which is deleted once the scenario has ended; the run
records ``bytes_written`` and ``files``, the total size and count of the files
it wrote.  At 10^7 steps the whole registry writes about 9.3 GB, one
scenario at a time.  ``wall_s`` is the child's whole life, interpreter
start-up and C library build included; ``peak_rss_mb`` is the child's own
``ru_maxrss``, as ``wait4`` returns it.  ``checks`` holds every outcome the
run printed, and ``other_output`` any line that is not an outcome, such as an
error.  At 10^7 steps the largest scenarios peak near 1.5 GB, so run the tool
on a machine with room for one of them at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from fejerlab.scenarios import list_scenarios

OUTCOME = re.compile(
    r"\[(?P<status>.{4})\] [^/]+/(?P<check>\S+): expected=(?P<expected>\S+) actual=(?P<actual>\S+)"
)


def run_one(name: str, steps: int, out: bool = False) -> dict:
    """Run one scenario in a fresh process and read what it reports; with
    ``out``, let it write into a temporary directory and measure that."""
    if out:
        with tempfile.TemporaryDirectory(prefix="registry-at-scale-") as tmp:
            run = _run_child(name, steps, ["--out", tmp])
            files = [f for f in Path(tmp).rglob("*") if f.is_file()]
            run["bytes_written"] = sum(f.stat().st_size for f in files)
            run["files"] = len(files)
        return run
    return _run_child(name, steps, [])


def _run_child(name: str, steps: int, extra: list) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "FEJERLAB_OUT"}
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "fejerlab.cli", "run", name, "--steps", str(steps), *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    checks, other = {}, []
    for line in out.splitlines():
        m = OUTCOME.fullmatch(line)
        if m is None:
            other.append(line)
            continue
        checks[m["check"]] = {
            "expected": None if m["expected"] == "-" else m["expected"],
            "actual": m["actual"],
            "matched": m["status"] != "MISS",
        }
    return {
        "exit": child.returncode,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),  # Linux: kilobytes
        "checks": checks,
        "other_output": other,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="scenarios to run (default: all)")
    parser.add_argument("--steps", type=int, default=10**7)
    parser.add_argument(
        "--out", action="store_true",
        help="write each scenario's files into a temporary directory, deleted after it",
    )
    args = parser.parse_args(argv)
    names = args.names or [name for name, _, _ in list_scenarios()]
    result = {
        "steps": args.steps,
        "out": args.out,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "scenarios": {name: run_one(name, args.steps, args.out) for name in names},
    }
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
