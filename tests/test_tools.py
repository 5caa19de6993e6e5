"""The measurement tools under ``tools/`` run end to end at a tiny size, each
in a fresh process, and print one JSON object."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import fejerlab

SRC = Path(fejerlab.__file__).resolve().parents[1]
TOOLS = Path(__file__).resolve().parents[1] / "tools"


def run_tool(name, *args, env=None):
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, str(TOOLS / name), *args],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)  # exactly one JSON object, nothing else


def _all_positive(figures):
    return figures and all(math.isfinite(v) and v > 0.0 for v in figures.values())


def test_registry_at_scale_reports_every_check_matched():
    out = run_tool("registry_at_scale.py", "--steps", "2000", "negation-r1", "codim1-reflection")
    assert (out["steps"], out["out"]) == (2000, False)
    assert list(out["scenarios"]) == ["negation-r1", "codim1-reflection"]
    for run in out["scenarios"].values():
        assert run["exit"] == 0
        assert run["other_output"] == []
        assert run["checks"]
        assert all(check["matched"] for check in run["checks"].values())
    assert set(out["scenarios"]["codim1-reflection"]["checks"]) == {
        "fejer", "asymptotic-regularity", "guarantee", "limit",
    }


def test_registry_at_scale_out_counts_what_each_scenario_wrote(tmp_path):
    out = run_tool(
        "registry_at_scale.py", "--steps", "2000", "--out", "negation-r1", "codim1-reflection",
        env={"TMPDIR": str(tmp_path)},
    )
    assert out["out"] is True
    for run in out["scenarios"].values():
        assert run["exit"] == 0 and run["other_output"] == []
        assert all(check["matched"] for check in run["checks"].values())
        assert run["files"] > 0 and run["bytes_written"] > 0
    # each scenario's directory is gone once it has ended
    assert list(tmp_path.iterdir()) == []


def test_export_per_value_times_both_writers():
    out = run_tool("export_per_value.py", "--values", "1200", "--repeats", "1")
    assert (out["values"], out["repeats"]) == (1200, 1)
    assert set(out["ns_per_value"]) == {
        *(f"csv_rows.d{d}" for d in (1, 2, 3, 4)), "csv_rows.d3.repeated", "reprs",
    }
    assert _all_positive(out["ns_per_value"])


def test_iterate_per_step_times_every_family():
    out = run_tool("iterate_per_step.py", "--steps", "1000", "--repeats", "1")
    assert (out["steps"], out["repeats"]) == (1000, 1)
    assert _all_positive(out["us_per_step"])


def test_checker_per_point_times_every_dimension():
    out = run_tool("checker_per_point.py", "--rows", "1000", "--repeats", "1")
    assert (out["rows"], out["witnesses"], out["repeats"]) == (1000, 10, 1)
    assert set(out["ns_per_row_witness"]) == {f"check_fejer.d{d}" for d in (1, 2, 3, 4)}
    assert _all_positive(out["ns_per_row_witness"])


def test_sweep_scan_records_each_failing_seed():
    out = run_tool("sweep_scan.py", "--first", "0", "--last", "1", "codim1_sweep", "decoupling_sweep")
    assert list(out["sweeps"]) == ["codim1_sweep", "decoupling_sweep"]
    for scan in out["sweeps"].values():
        assert (scan["seeds"], scan["runs"], scan["arguments"]) == ([0, 1], 2, {"instances": 50})
        assert len(scan["sha256"]) == 64 and scan["wall_s"] > 0.0
    assert out["sweeps"]["codim1_sweep"]["failing"] == {}
    # seed 1 of the decoupling sweep fails at instance 8
    ((seed, first),) = out["sweeps"]["decoupling_sweep"]["failing"].items()
    assert (seed, first["instance"], first["problems"]) == ("1", 8, ["equivalence_disagrees"])
