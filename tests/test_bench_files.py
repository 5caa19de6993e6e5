"""Shape of the BENCH_*.json files at the repository root.

Each file records the last stdout line of ``perfbench/run.py`` for runs of
the parent commit and of the change, so that a speed claim can be read from
checked-in numbers.  The test passes when no such file exists.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _problems(bench: dict) -> list[str]:
    out = []
    keys = {"parent": set(), "change": set()}
    for i, run in enumerate(bench.get("runs", [])):
        side = run.get("side")
        if side not in keys:
            out.append(f"runs[{i}]: side must be parent or change, got {side!r}")
            continue
        keys[side].add((run.get("workload"), run.get("seed"), run.get("trace")))
        result = run.get("result", {})
        if result.get("correct") is not True or result.get("failed") != 0:
            out.append(f"runs[{i}]: expected correct: true and failed: 0")
        metrics = result.get("metrics")
        if not metrics:
            out.append(f"runs[{i}]: no metrics")
        for name, metric in (metrics or {}).items():
            value = metric.get("value")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                out.append(f"runs[{i}].{name}: value is not a number: {value!r}")
            if not isinstance(metric.get("unit"), str) or not metric["unit"]:
                out.append(f"runs[{i}].{name}: missing unit")
    if not keys["parent"]:
        out.append("no parent runs")
    if keys["parent"] != keys["change"]:
        out.append(
            "parent and change ran different (workload, seed, trace) sets: "
            f"{sorted(keys['parent'])} vs {sorted(keys['change'])}"
        )
    return out


def test_bench_files_pair_parent_and_change_runs():
    for path in sorted(ROOT.glob("BENCH_*.json")):
        bench = json.loads(path.read_text(encoding="utf-8"))
        assert _problems(bench) == [], path.name


def test_bench_file_checker_flags_bad_records():
    good = {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
    run = {"workload": "sweeps", "seed": 1, "trace": 0, "result": good}
    assert _problems({"runs": [{"side": "parent", **run}, {"side": "change", **run}]}) == []
    assert _problems({"runs": [{"side": "change", **run}]}) != []
    bad_results = [
        {**good, "correct": False},
        {**good, "failed": 1},
        {**good, "metrics": {"wall_s": {"value": "1.5", "unit": "s"}}},
        {**good, "metrics": {"wall_s": {"value": 1.5}}},
        {**good, "metrics": {}},
    ]
    for result in bad_results:
        runs = [{"side": "parent", **run}, {"side": "change", **run, "result": result}]
        assert _problems({"runs": runs}) != [], result
    other_seed = {"side": "change", **run, "seed": 2}
    assert _problems({"runs": [{"side": "parent", **run}, other_seed]}) != []
