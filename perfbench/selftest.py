"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test collection; it runs
every workload several times and takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BYPASSED = ("long-orbit", "sweeps")  # exports and config do no work here

# counts that later changes may cite: they must repeat exactly for a seed
DETERMINISTIC = (
    "dynamics.iterate.steps",
    "dynamics.iterate.padded_ratio",
    "analysis.check_fejer.pairs",
    "exports.trajectory.bytes",
    "exports.report.bytes",
    "config.load.bytes",
    "scenarios.checks_attempted",
)


# Sweeps left out of the `sweeps` workload because the program fails them at
# these seeds (found by scanning workload seeds 1-150).  Each case passes
# once the program is fixed; the strict xfail then turns into a failure, as a
# reminder to put the sweep back into workloads.SWEEPS.
KNOWN_SWEEP_FAILURES = [
    # instance 10: limit_mismatch, gap 5.55
    ("run_affine_limit_sweep", {"instances": 50, "dims": (2, 3, 4), "seed": 1167677587}),
    # instance 28, bad_cone: the direct E + K check passes, the decoupled
    # check sees a step leave the dual cone (equivalence_disagrees); 22 of
    # the workload seeds 1-150 hit such an instance
    ("run_decoupling_sweep", {"instances": 50, "seed": 2129143654}),
]


def _tiny(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc, proc.stdout.strip().splitlines()


def _result(lines: list) -> dict:
    return json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    """One traced tiny run per workload, shared by the tests below."""
    return {w: _tiny(w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc, lines = _tiny(workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines)
    wall = next(line for line in lines if line.startswith("wall_s = "))
    assert " at reference speed; as timed: median " in wall and " fastest " in wall
    assert any(
        line.startswith("check_fail_ratio = ")
        and f"0 failed of {result['attempted']} checks attempted" in line
        for line in lines
    )
    assert lines[0].startswith("env: ") and any(line.startswith("env-end: ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_with_units(workload, traced):
    proc, lines = traced[workload]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(lines)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {p[0]: p[2] for p in (line.split() for line in lines) if len(p) == 3}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.overhead_ratio"] > 0.0
    assert metrics["trace.unattributed_s"] >= 0.0
    if workload in BYPASSED:
        bypassed = {k: v for k, v in metrics.items() if k.startswith(("exports.", "config."))}
        assert bypassed and not any(bypassed.values()), bypassed
    else:
        assert metrics["exports.trajectory.bytes"] > 0 and metrics["config.load.calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_fixed_seed(workload, traced):
    first = _result(traced[workload][1])["metrics"]
    proc, lines = _tiny(workload, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    second = _result(lines)["metrics"]
    for name in DETERMINISTIC:
        assert first[name] == second[name], name
    assert first["dynamics.iterate.steps"]["value"] > 0


def test_flipped_expect_is_counted_and_fails(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import workloads

    original = workloads.WORKLOADS["registry"]
    flipped = {}

    def setup(seed, size, work):
        inputs = original.setup(seed, size, work)
        data = yaml.safe_load(inputs["configs"][0].read_text())
        data["name"] += "-flipped"
        check = next(c for c in data["checks"] if c.get("expect") == "pass")
        check["expect"] = "fail"
        copy = work / f"{data['name']}.yaml"
        copy.write_text(yaml.safe_dump(data, sort_keys=False))
        inputs["configs"].append(copy)
        flipped.update(scenario=data["name"], check=check["name"])
        return inputs

    monkeypatch.setitem(
        workloads.WORKLOADS, "registry", workloads.Workload(setup, original.run)
    )
    code = run.main(
        ["--workload", "registry", "--size", "tiny", "--trace", "0"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    result = _result(lines)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    prefix = f"FAIL registry/{flipped['scenario']}/{flipped['check']}:"
    assert any(line.startswith(prefix) for line in lines)
    ratio = next(line for line in lines if line.startswith("check_fail_ratio = "))
    assert f"{result['failed']} failed of {result['attempted']}" in ratio


def test_chunked_orbit_is_one_orbit(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import workloads
    from fejerlab import dynamics

    inputs = workloads.setup_long_orbit(3, "tiny", tmp_path)
    watch = workloads.Stopwatch()
    with watch:
        chunked = workloads.long_orbit_points(inputs, watch)
    whole = dynamics.iterate(inputs["T"], inputs["x0"], inputs["chunks"] * inputs["chunk_steps"])
    assert np.array_equal(chunked, whole.points)
    assert 0.0 < watch.scaled[0] and 0.0 < watch.laps[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _tiny("registry", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


@pytest.mark.xfail(strict=True, reason="program defect, left standing; see KNOWN_SWEEP_FAILURES")
@pytest.mark.parametrize("sweep,kwargs", KNOWN_SWEEP_FAILURES)
def test_known_sweep_failures(sweep, kwargs, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from fejerlab import scenarios

    report = getattr(scenarios, sweep)(**kwargs)
    assert report.verdict == "pass", report.witness
