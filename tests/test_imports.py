"""``import fejerlab`` loads no scipy; each scipy subpackage loads at first use.
The C orbit loop is compiled once per process, at the first ``iterate``."""

import json
import subprocess
import sys
from pathlib import Path

import fejerlab

# run in a fresh interpreter, so no scipy module is loaded before it starts
PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
from fejerlab import cli, scenarios

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["list"])
after_list = scipy_modules()
reports = [
    scenarios.run_scalar_averaged_sweep(instances=9),
    scenarios.run_codim1_sweep(instances=4),
    scenarios.run_affine_limit_sweep(instances=3),
]
print(json.dumps({{
    "code": code,
    "after_list": after_list,
    "verdicts": [r.verdict for r in reports],
    "after_sweeps": scipy_modules(),
}}))
"""


def test_scipy_loads_only_where_a_run_first_needs_it():
    src = str(Path(fejerlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(src=src)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["code"] == 0
    assert out["after_list"] == []
    assert out["verdicts"] == ["pass", "pass", "pass"]
    # the sweeps measure distances, and draw random rotations with numpy
    assert "scipy.spatial.distance" in out["after_sweeps"]
    assert not [m for m in out["after_sweeps"] if m.split(".")[:2] == ["scipy", "stats"]]


# counts the processes started through subprocess, then iterates two shapes
COMPILER_PROBE = """
import contextlib, io, json, subprocess, sys
sys.path.insert(0, {src!r})
started = []

class Counting(subprocess.Popen):
    def __init__(self, args, *rest, **kw):
        started.append(args)
        super().__init__(args, *rest, **kw)

subprocess.Popen = Counting

def ctypes_modules():
    return {{m for m in sys.modules if m.split(".")[0] == "ctypes"}}

import numpy  # numpy loads ctypes itself
baseline = ctypes_modules()
from fejerlab import cli, dynamics, geometry, operators

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["list"])
after_list = {{
    "code": code,
    "ctypes": sorted(ctypes_modules() - baseline),
    "started": len(started),
    "loaded": operators._orbit_loop.cache_info().currsize,
}}
dynamics.iterate(operators.Negation(), [1.0], 10)
balls = geometry.Ball([0.0, 0.0], 1.0), geometry.Ball([3.0, 0.0], 1.0)
dynamics.iterate(operators.DouglasRachford(*balls), [0.0, 2.0], 10)
print(json.dumps({{"after_list": after_list, "started": started}}))
"""


def test_the_orbit_loop_is_compiled_once_at_the_first_iterate():
    src = str(Path(fejerlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", COMPILER_PROBE.format(src=src)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["after_list"] == {"code": 0, "ctypes": [], "started": 0, "loaded": 0}
    assert len(out["started"]) == 1
    assert "-ffp-contract=off" in out["started"][0]


NO_COMPILER_PROBE = """
import subprocess, sys
sys.path.insert(0, {src!r})

def no_compiler(args, **kw):
    raise FileNotFoundError(2, "No such file or directory", args[0])

subprocess.run = no_compiler
from fejerlab import dynamics, operators

try:
    dynamics.iterate(operators.Negation(), [1.0], 3)
except RuntimeError as exc:
    print(exc)
"""


def test_a_missing_compiler_fails_the_first_iterate_clearly():
    src = str(Path(fejerlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", NO_COMPILER_PROBE.format(src=src)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    assert "iterate needs a C compiler for its orbit loop" in proc.stdout
