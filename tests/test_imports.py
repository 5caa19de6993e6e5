"""``import fejerlab`` loads no scipy; each scipy subpackage loads at first use.
The C library is compiled once per process, at the first ``iterate``, Fejér
check or export of a trajectory or of a float ``per_step``, whichever comes
first."""

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


# counts the processes started through subprocess, runs ``list``, then the
# calls named in argv, each a statement; prints the processes started by each
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
import fejerlab
from fejerlab import cli, dynamics, exports, geometry, native, operators

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["list"])
after_list = {{
    "code": code,
    "ctypes": sorted(ctypes_modules() - baseline),
    "started": len(started),
    "loaded": native.library.cache_info().currsize,
}}
balls = geometry.Ball([0.0, 0.0], 1.0), geometry.Ball([3.0, 0.0], 1.0)
calls = []
for statement in sys.argv[1:]:
    before = len(started)
    exec(statement)
    calls.append(started[before:])
print(json.dumps({{"after_list": after_list, "calls": calls}}))
"""

ITERATE = [
    "dynamics.iterate(operators.Negation(), [1.0], 10)",
    "dynamics.iterate(operators.DouglasRachford(*balls), [0.0, 2.0], 10)",
]
EXPORT = "exports.export_trajectory(dynamics.Trajectory(numpy.eye(3)), {path!r})"


def _compiler_probe(*statements) -> dict:
    src = str(Path(fejerlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", COMPILER_PROBE.format(src=src), *statements],
        capture_output=True, text=True, timeout=300, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # import fejerlab and list build nothing and load no ctypes
    assert out["after_list"] == {"code": 0, "ctypes": [], "started": 0, "loaded": 0}
    return out


def test_the_orbit_loop_is_compiled_once_at_the_first_iterate():
    first, second = _compiler_probe(*ITERATE)["calls"]
    assert len(first) == 1 and second == []
    assert "-ffp-contract=off" in first[0]


def test_an_export_first_compiles_once_and_a_later_iterate_nothing(tmp_path):
    path = tmp_path / "t.csv"
    export, *iterates = _compiler_probe(EXPORT.format(path=str(path)), *ITERATE)["calls"]
    assert len(export) == 1 and iterates == [[], []]
    assert path.read_text() == "n,x1,x2,x3\n0,1,0,0\n1,0,1,0\n2,0,0,1\n"


NO_COMPILER_PROBE = """
import subprocess, sys
sys.path.insert(0, {src!r})

def no_compiler(args, **kw):
    raise FileNotFoundError(2, "No such file or directory", args[0])

subprocess.run = no_compiler
import numpy
from fejerlab import dynamics, exports, operators

try:
    {call}
except RuntimeError as exc:
    print(exc)
"""


def _without_compiler(call: str, cwd) -> str:
    src = str(Path(fejerlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", NO_COMPILER_PROBE.format(src=src, call=call)],
        capture_output=True, text=True, timeout=300, check=True, cwd=cwd,
    )
    return proc.stdout


def test_a_missing_compiler_fails_the_first_iterate_clearly(tmp_path):
    message = _without_compiler("dynamics.iterate(operators.Negation(), [1.0], 3)", tmp_path)
    assert "iterate needs a C compiler for its orbit loop" in message
    assert "fejerlab's C library" in message


def test_a_missing_compiler_fails_the_first_export_clearly(tmp_path):
    call = "exports.export_trajectory(dynamics.Trajectory(numpy.zeros((2, 1))), 'never.csv')"
    message = _without_compiler(call, tmp_path)
    assert "export_trajectory for its CSV writer" in message
    assert "fejerlab's C library" in message
    assert not (tmp_path / "never.csv").exists()


def test_a_missing_compiler_fails_the_first_report_export_clearly(tmp_path):
    report = "exports.DiagnosticsReport('check_fejer', 'pass', per_step=numpy.array([0.5]))"
    message = _without_compiler(f"exports.export_report({report}, 'never.json')", tmp_path)
    assert "export_report for its float writer" in message
    assert "fejerlab's C library" in message
    assert not (tmp_path / "never.json").exists()


def test_a_missing_compiler_fails_the_first_fejer_check_clearly(tmp_path):
    call = (
        "from fejerlab import analysis, geometry; "
        "analysis.check_fejer(numpy.zeros((2, 1)), geometry.Point([0.0]))"
    )
    message = _without_compiler(call, tmp_path)
    assert "check_fejer for its witness pass" in message
    assert "fejerlab's C library" in message
