"""fejerlab benchmark: end-to-end metrics per workload, per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py                      # every workload, then traced
    python3 perfbench/run.py --workload registry --seed 1 --trace 0

With ``--workload`` the run happens in this one fresh process: set-up (import
fejerlab and generate the inputs from the seed), then passes over the inputs
for ``--seconds`` (default: ``run_seconds`` of BENCHMARK.json).  ``--size
tiny`` shrinks the inputs and makes a single round of passes.  ``--trace 0``
reports the end-to-end metrics of untraced passes; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  At full size
at least two rounds of passes run.  Every pass is checked; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is non-zero when any check failed.  The
workloads, metrics and their expected interactions are described in
DESIGN.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".perfbench_tmp"  # scratch space, removed after the run
SPANS_DIR = ROOT / ".perfbench_spans"  # traced spans, written when a run ends
WORKLOAD_NAMES = ("registry", "long-orbit", "sweeps")
SETUP_REPEATS = 4  # set-ups per run, spread over the run; setup_s is their median
CHILD_TIMEOUT_S = 900


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--seconds", type=float,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    )
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the benchmark's self-test",
    )
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def _load1() -> float:
    fields = _read("/proc/loadavg").split()
    return float(fields[0]) if fields else os.getloadavg()[0]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({type(exc).__name__})"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fejerlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    """Machine, library versions and code measured; read-only use of /proc."""
    import numpy
    import scipy
    import yaml

    cpu = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor() or "unknown",
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")  # within the passes
    return q[0], q[2]


def _setup_in_fresh_process(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-only",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _print_failures(tally) -> None:
    for name, witness in tally.failures:
        print(f"FAIL {name}: {json.dumps(witness, default=repr)}")


def _passes(wl, inputs, work, seconds, tally, watches, min_rounds=1, between=None):
    """Run passes round-robin over ``watches`` until the next would overrun.

    Each round runs one pass per stopwatch, then ``between`` if given; at
    least ``min_rounds`` rounds always run.  Digests (registry only) must
    agree across every pass of the run.
    """
    digests = []
    begin = time.perf_counter()
    rounds = 0
    while True:
        for watch in watches:
            if watch.tracer is not None:
                watch.tracer.install()
            try:
                digest = wl.run(inputs, work, watch, tally)
            finally:
                if watch.tracer is not None:
                    watch.tracer.uninstall()
            if digest is not None:
                if digests:
                    tally.check(
                        "registry/export-digest-repeat", digest == digests[0],
                        {"first": digests[0], "this": digest, "pass": len(digests)},
                    )
                digests.append(digest)
        rounds += 1
        if between is not None:
            between()
        elapsed = time.perf_counter() - begin
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            return


def run_workload(args) -> int:
    load_start = _load1()
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
    try:
        t0 = time.perf_counter()
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        inputs = wl.setup(args.seed, args.size, work)
        setup_first = time.perf_counter() - t0
        import fejerlab

        if SRC.resolve() not in Path(fejerlab.__file__).resolve().parents:
            print(f"error: fejerlab imported from {fejerlab.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_first}))
            return 0
        env = environment()
        print("env: " + json.dumps({**env, "load1_start": load_start}, sort_keys=True))
        tally = workloads.Tally()
        # at full size two rounds at least: the median and quartiles of
        # wall_s have two passes, and the traced counts can be compared
        min_rounds = 2
        if args.size == "tiny":
            args.seconds, min_rounds = 0.0, 1  # one round of passes
        if args.trace:
            metrics = _traced_run(args, wl, inputs, work, tally, min_rounds)
        else:
            # the other set-ups run between rounds of passes, so that they
            # sample the machine at different times of the run
            setups = [setup_first]

            def one_more_setup():
                if len(setups) < SETUP_REPEATS:
                    setups.append(_setup_in_fresh_process(args))

            watch = workloads.Stopwatch()
            _passes(
                wl, inputs, work, args.seconds, tally, [watch], min_rounds, one_more_setup
            )
            while len(setups) < SETUP_REPEATS:
                one_more_setup()
            walls = watch.laps
            q1, q3 = _quartiles(walls)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "wall_s": (statistics.median(watch.scaled), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            print(
                f"setup_s = {metrics['setup_s'][0]:.4f} s "
                f"(median of {len(setups)} set-ups, each in a fresh process: "
                + ", ".join(f"{s:.4f}" for s in setups) + ")"
            )
            print(
                f"wall_s = {metrics['wall_s'][0]:.4f} s (median of {len(walls)} passes "
                f"at reference speed; as timed: median {statistics.median(walls):.4f} s, "
                f"q1 {q1:.4f} s, q3 {q3:.4f} s, fastest {min(walls):.4f} s)"
            )
            print(f"peak_rss_mb = {rss_mb:.1f} MB")
        failed = len(tally.failures)
        print(
            f"check_fail_ratio = {failed / tally.attempted:.6g} ratio "
            f"({failed} failed of {tally.attempted} checks attempted)"
        )
        _print_failures(tally)
        print("env-end: " + json.dumps({"load1_end": _load1()}))
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": tally.attempted,
                    "failed": failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                }
            )
        )
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass


def _traced_run(args, wl, inputs, work, tally, min_rounds) -> dict:
    from tracing import END, INFO, NAME, PARENT, START, Tracer, layer_metrics
    from workloads import Stopwatch

    tracer = Tracer()
    plain, traced = Stopwatch(), Stopwatch(tracer)
    _passes(wl, inputs, work, args.seconds, tally, [plain, traced], min_rounds)
    per_pass = [layer_metrics(tracer.spans, root) for root in traced.roots]
    fastest = per_pass[traced.laps.index(min(traced.laps))]
    metrics = {}
    for name, (value, unit) in fastest.items():
        if unit in ("count", "bytes") or name == "dynamics.iterate.padded_ratio":
            values = [m[name][0] for m in per_pass]
            tally.check(f"trace/{name}/repeats", len(set(values)) == 1, {"values": values})
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (min(traced.laps) / min(plain.laps), "ratio")
    width = max(len(n) for n in metrics)
    print(f"per-layer metrics of the fastest of {len(traced.laps)} traced passes:")
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<{width}}  {shown} {unit}")
    SPANS_DIR.mkdir(exist_ok=True)
    base = tracer.spans[0][START] if tracer.spans else 0.0
    spans = [
        [s[NAME], s[START] - base, s[END] - base, s[PARENT], s[INFO]]
        for s in tracer.spans
    ]
    out = SPANS_DIR / f"{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "info"], "spans": spans}))
    print(f"spans: {len(spans)} written to {out.relative_to(ROOT)}")
    return metrics


def run_all(args) -> int:
    """Every workload in its own fresh process, untraced, then traced."""
    results = {}
    code = 0
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--size", args.size,
            ]
            print(f"== {name} (trace {trace})", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"   {line}")
            if proc.stderr.strip():
                print(proc.stderr.strip(), file=sys.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"   no result (exit code {proc.returncode})")
                return proc.returncode or 1
            results[f"{name}/trace{trace}"] = result
            if proc.returncode != 0:
                code = proc.returncode
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{key}/{m}": v for key, r in results.items() for m, v in r["metrics"].items()
                },
            }
        )
    )
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "fejerlab" / "__init__.py").is_file():
        print(f"error: no fejerlab sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
