"""The tier-1 tests against fejerlab's C library built with sanitizers, with
the pass/fail counts of each build printed as one JSON object.

Run from the root of a checkout, against the ``fejerlab`` on ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/sanitize.py

Each build runs the tier-1 suite (``pytest tests``) once, in a child Python
process that first appends the build's flags to ``fejerlab.native._CFLAGS``
in that process only, so the library it compiles on first use carries them:

- ``undefined``: ``-fsanitize=undefined -fno-sanitize-recover=all``, so the
  first undefined behaviour aborts the child;
- ``address``: ``-fsanitize=address``, with the compiler's ``libasan.so``
  preloaded (its runtime must load before any other library) and
  ``ASAN_OPTIONS=detect_leaks=0`` (CPython does not free all its memory at
  exit, so a leak report would name the interpreter).

The child imports the same ``fejerlab`` and runs this checkout's tests.  The
product build's flags do not change, and a process that a test starts
compiles the plain library.  A child that a sanitizer ends is reported with
its exit code, the sanitizer's error and summary lines, and the last lines
of its output.  The exit status is 0 when both builds pass every test they
run.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

from fejerlab import native

ROOT = Path(__file__).resolve().parents[1]

# run by the child: argv[1] is the JSON list of extra flags, argv[2] the file
# that receives the counts
CHILD = """
import json, sys
import pytest
from fejerlab import native

native._CFLAGS += tuple(json.loads(sys.argv[1]))
OUTCOMES = ("passed", "failed", "error", "skipped", "xfailed", "xpassed")


class Counts:
    def pytest_terminal_summary(self, terminalreporter):
        stats = terminalreporter.stats
        counts = {key: len(stats[key]) for key in OUTCOMES if key in stats}
        with open(sys.argv[2], "w", encoding="utf-8") as fh:
            json.dump(counts, fh)


# capture at the sys level only, so a sanitizer's report on fd 2 is not lost
# with pytest's captured output when the sanitizer ends the process
argv = ["-q", "-p", "no:cacheprovider", "--capture=sys", "tests"]
sys.exit(int(pytest.main(argv, plugins=[Counts()])))
"""


def _libasan() -> str:
    out = subprocess.run(
        [*native._compiler(), "-print-file-name=libasan.so"],
        check=True, capture_output=True, text=True,
    )
    return out.stdout.strip()


def builds() -> dict:
    """Each build's extra compiler flags and extra environment."""
    return {
        "undefined": (["-fsanitize=undefined", "-fno-sanitize-recover=all"], {}),
        "address": (
            ["-fsanitize=address"],
            {"LD_PRELOAD": _libasan(), "ASAN_OPTIONS": "detect_leaks=0"},
        ),
    }


def run_build(flags: list, extra_env: dict) -> dict:
    """Tier-1 in a child whose library carries ``flags``; its outcome counts."""
    with tempfile.TemporaryDirectory(prefix="fejerlab-sanitize-") as tmp:
        counts_path = Path(tmp) / "counts.json"
        child = subprocess.run(
            [sys.executable, "-u", "-c", CHILD, json.dumps(flags), str(counts_path)],
            cwd=ROOT, env={**os.environ, **extra_env}, capture_output=True, text=True,
        )
        result = {"flags": flags, "exit": child.returncode}
        if counts_path.exists():
            result["counts"] = json.loads(counts_path.read_text(encoding="utf-8"))
        else:  # the sanitizer's own lines name the fault and where it is
            marks = ("runtime error:", "ERROR:", "SUMMARY:")
            lines = child.stderr.splitlines()
            result["report"] = [line for line in lines if any(m in line for m in marks)]
            result["output_tail"] = lines[-5:] or child.stdout.splitlines()[-5:]
    return result


def main() -> int:
    results = {name: run_build(*build) for name, build in builds().items()}
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "compiler": native._compiler(),
                "builds": results,
            },
            indent=1,
        )
    )
    return 0 if all(r["exit"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
