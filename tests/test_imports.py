"""``import fejerlab`` loads no scipy; each scipy subpackage loads at first use."""

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
