"""The benchmark's workloads: seeded inputs, one timed pass, correctness gates.

Each workload has a ``setup`` that turns the workload seed into the inputs the
program receives, and a ``run`` that makes one pass over those inputs.  A
pass is a fixed list of short calls into fejerlab; each is timed on its own
(``with watch.call():``) and scaled by the machine's speed at that moment
(``reference_s``).  The gates that check the outputs run after the clock
stops.  Functions are looked up on their modules at call time so the traced
pass sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fejerlab import cli, config, dynamics, operators, scenarios
from fejerlab.geometry import Ball

# The registry's cheapest scenarios, for the self-test's tiny size.
TINY_REGISTRY = ("alternating-pair", "negation-r1", "codim1-reflection", "decoupling-demo")

# The orbit is computed as consecutive calls of this many steps each, every
# call starting from the last point of the one before; the concatenation is
# the orbit one call would give (test_chunked_orbit_is_one_orbit).  Short
# calls let a pass be timed call by call.
LONG_ORBIT_CHUNKS = {"full": (50, 10_000), "tiny": (4, 5_000)}
DISPLACEMENT_TAIL = 1000
DISPLACEMENT_TOL = 1e-6

# (sweep function, instances per call, sweep seeds per pass, extra keyword
# arguments) per size.  The cost of a sweep depends strongly on its seed (a
# few orbits run to max_steps, most stop early), and the benchmark runs at a
# new workload seed every time: many small sweeps per pass narrow that spread
# and keep each timed call short (see Stability in DESIGN.md).
# run_affine_limit_sweep and run_decoupling_sweep are left out: they fail at
# some sweep seeds (see KNOWN_SWEEP_FAILURES in selftest.py), and a workload
# must not fail at any workload seed.  Their code still runs in `registry`,
# through the affine-linear-limit and decoupling-demo scenarios.
SWEEPS = {
    "full": (
        ("run_scalar_averaged_sweep", 27, 60, {}),
        ("run_codim1_sweep", 50, 20, {"dims": (2, 3)}),
    ),
    "tiny": (
        ("run_scalar_averaged_sweep", 9, 1, {}),
        ("run_codim1_sweep", 2, 1, {"dims": (2, 3)}),
    ),
}


# The reference kernel's time at full machine speed: its fastest time, as
# reference_s measures it, on the 2-vCPU Xeon the bounds were set on.  Any
# fixed value would do; this one makes scaled times read as seconds there.
REF_FAST_S = 0.0003
# While a call runs, the reference is also timed every SAMPLE_S of wall time,
# from a SIGALRM handler, so the speed is followed through long calls.
SAMPLE_S = 0.1


def _reference_kernel() -> float:
    """Fixed work like the program's inner loops: 3-vector numpy steps and
    scalar float steps, with no fejerlab code."""
    x, c = np.array([4.0, -1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    s = 0.3
    for _ in range(120):
        d = x - c
        n = float(np.sqrt(d @ d))
        x = c + d * (0.999 if n > 1.0 else 1.0)
        s = 0.5 * s + 0.25 if s < 1.0 else s - 0.75
        s = -s if s > 0.9 else s + 0.125
    return s + float(x[0])


def reference_s(repeats: int = 5) -> float:
    """Fastest of ``repeats`` runs of the reference kernel: it grows when the
    shared host slows this vCPU down, and not with any change to fejerlab."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Tally:
    """Checks attempted and the failures, each with its name and witness."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, name: str, ok: bool, witness=None) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append((name, witness))


class Stopwatch:
    """Times the program calls of each pass; opens the tracer's root span if
    given.

    ``with watch:`` holds one pass and ``with watch.call():`` one program
    call in it.  ``laps`` gets the summed wall time of each pass's calls.
    Untraced, ``scaled`` gets the same sum with each call's time scaled to
    full machine speed: multiplied by the mean of ``REF_FAST_S / ref`` over
    the reference times sampled before, during and after the call.  So a
    pass during which the host ran this vCPU slowly is not counted slow.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.laps: list = []
        self.scaled: list = []
        self.roots: list = []

    def __enter__(self):
        self.laps.append(0.0)
        self.scaled.append(0.0)
        if self.tracer is not None:
            self._root = self.tracer.root("pass")
            self.roots.append(len(self.tracer.spans))
            self._root.__enter__()
        return self

    def __exit__(self, *exc):
        if self.tracer is not None:
            self._root.__exit__(*exc)
        return False

    @contextlib.contextmanager
    def call(self):
        if self.tracer is not None:  # its spans would count the samples
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.laps[-1] += time.perf_counter() - t0
            return
        refs = [reference_s()]
        sampling = [0.0]  # time spent in the handler, taken off the call

        def sample(signum, frame):
            t = time.perf_counter()
            refs.append(reference_s())
            sampling[0] += time.perf_counter() - t

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            dt -= sampling[0]
            refs.append(reference_s())
            self.laps[-1] += dt
            self.scaled[-1] += dt * statistics.fmean(REF_FAST_S / r for r in refs)


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# registry: every built-in scenario through the CLI, with export
# ---------------------------------------------------------------------------


def setup_registry(seed: int, size: str, work: Path) -> dict:
    names = [name for name, _, _ in scenarios.list_scenarios()]
    if size == "tiny":
        names = [n for n in names if n in TINY_REGISTRY]
    configs = []
    for name in names:
        path = work / f"{name}.yaml"
        config.dump_scenario(scenarios.get_scenario(name), path)
        configs.append(path)
    return {"configs": configs, "seed": seed}


def run_registry(inputs: dict, work: Path, watch: Stopwatch, tally: Tally) -> str:
    """One pass; returns the digest of the exported tree."""
    out = Path(tempfile.mkdtemp(prefix="export-", dir=work))
    try:
        argv = ["run", "--seed", str(inputs["seed"]), "--out", str(out), "--config"]
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), watch:
            for f in inputs["configs"]:
                with watch.call():
                    codes.append(cli.main(argv + [str(f)]))
        for path, code in zip(inputs["configs"], codes):
            _registry_gates(out / path.stem, code, tally)
        return tree_digest(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _registry_gates(run_dir: Path, code: int, tally: Tally) -> None:
    name = run_dir.name
    tally.check(f"registry/{name}/exit-code", code == 0, {"exit_code": code})
    summary_path = run_dir / "summary.json"
    if not summary_path.is_file():
        tally.check(f"registry/{name}/summary", False, "summary.json was not written")
        return
    for c in json.loads(summary_path.read_text())["checks"]:
        witness = None
        if not c["matched"]:
            report = json.loads((run_dir / f"{c['name']}.json").read_text())
            witness = {
                "expected": c["expected"],
                "actual": c["actual"],
                "verdict": report["verdict"],
            }
        tally.check(f"registry/{name}/{c['name']}", c["matched"], witness)


# ---------------------------------------------------------------------------
# long-orbit: one two-ball splitting orbit far past the registry's length
# ---------------------------------------------------------------------------


def setup_long_orbit(seed: int, size: str, work: Path) -> dict:
    # one pair drawn exactly as run_two_ball_sweep draws its pairs
    rng = np.random.default_rng(seed)
    ra, rb = rng.uniform(0.5, 2.0, 2)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    dist = float(rng.uniform(ra + rb + 0.5, 10.0))
    ca = rng.uniform(-2, 2, 3)
    cb = ca + dist * direction
    A, B = Ball(ca, float(ra)), Ball(cb, float(rb))
    x0 = [float(t) for t in ca + rng.uniform(-3, 3, 3)]
    T = operators.DouglasRachford(A, B)
    v = operators.two_ball_gap_vector(A, B)
    chunks, chunk_steps = LONG_ORBIT_CHUNKS[size]
    # the orbit trajectory is filled in by each pass with the computed points
    spec = scenarios.ScenarioSpec(
        name="long-orbit",
        description="seeded two-ball splitting orbit in 3-d space",
        topic="benchmark",
        n_steps=chunks * chunk_steps,
        seed=seed,
        tail_window=1000,
        sets={"first": A, "second": B, "fixed-ray": operators.fixed_set_description(T, v)},
        operators={"T": T},
        trajectories=[
            scenarios.TrajectoryDef("orbit", "points"),
            scenarios.TrajectoryDef(
                "normalized", "normalized", operator="T", start=x0,
                shift="two_ball", base="orbit",
            ),
            scenarios.TrajectoryDef("shadow", "shadow", base="orbit", set_name="first"),
        ],
        checks=[
            scenarios.CheckDef(
                "displacement-match", "displacement_match", "orbit", "pass",
                {"operator": "T", "tail": DISPLACEMENT_TAIL, "tol": DISPLACEMENT_TOL},
            ),
            scenarios.CheckDef(
                "normalized-fejer", "fejer", "normalized", "pass",
                {"set": "fixed-ray", "witnesses": 10, "tol": 1e-9},
            ),
            scenarios.CheckDef("normalized-limit", "limit", "normalized", None, {"tol": 1e-4}),
            scenarios.CheckDef("shadow-limit", "limit", "shadow", None, {"tol": 1e-4}),
        ],
    )
    return {"spec": spec, "v": v, "T": T, "x0": x0, "chunks": chunks, "chunk_steps": chunk_steps}


def long_orbit_points(inputs: dict, watch: Stopwatch) -> np.ndarray:
    """The raw orbit, computed as consecutive ``dynamics.iterate`` calls."""
    x, parts = inputs["x0"], []
    for j in range(inputs["chunks"]):
        with watch.call():
            pts = dynamics.iterate(inputs["T"], x, inputs["chunk_steps"]).points
        parts.append(pts if j == 0 else pts[1:])
        x = pts[-1]
    return np.concatenate(parts)


def run_long_orbit(inputs: dict, work: Path, watch: Stopwatch, tally: Tally) -> None:
    template = inputs["spec"]
    with watch:
        orbit = scenarios.TrajectoryDef("orbit", "points", points=long_orbit_points(inputs, watch))
        spec = replace(template, trajectories=[orbit, *template.trajectories[1:]])
        with watch.call():
            artifacts = scenarios.run_scenario(spec)
    for o in artifacts.summary:
        report = artifacts.reports[o.name]
        witness = None if o.matched else {"actual": o.actual, "witness": report.witness}
        tally.check(f"long-orbit/{o.name}", o.matched, witness)
    # gate computed here, not by the program: tail mean of the steps
    # x_n - x_{n+1} against the closed-form gap vector
    pts = artifacts.trajectories["orbit"].points
    v_est = (pts[-DISPLACEMENT_TAIL - 1] - pts[-1]) / DISPLACEMENT_TAIL
    gap = float(np.linalg.norm(v_est - inputs["v"]))
    tally.check("long-orbit/displacement-gap", gap <= DISPLACEMENT_TOL, {"gap": gap})


# ---------------------------------------------------------------------------
# sweeps: the acceptance theorem sweeps, seeds derived from the workload seed
# ---------------------------------------------------------------------------


def setup_sweeps(seed: int, size: str, work: Path) -> dict:
    rng = np.random.default_rng(seed)
    calls = [
        (fname, {"instances": n, "seed": int(s), **extra})
        for fname, n, seeds, extra in SWEEPS[size]
        for s in rng.integers(0, 2**31 - 1, size=seeds)
    ]
    return {"calls": calls}


def run_sweeps(inputs: dict, work: Path, watch: Stopwatch, tally: Tally) -> None:
    reports = []
    with watch:
        for fname, kw in inputs["calls"]:
            with watch.call():
                reports.append(getattr(scenarios, fname)(**kw))
    for (fname, kw), rep in zip(inputs["calls"], reports):
        tally.check(f"sweeps/{fname}(seed={kw['seed']})", rep.verdict == "pass", rep.witness)


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object


WORKLOADS = {
    "registry": Workload(setup_registry, run_registry),
    "long-orbit": Workload(setup_long_orbit, run_long_orbit),
    "sweeps": Workload(setup_sweeps, run_sweeps),
}
