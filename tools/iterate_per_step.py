"""Microseconds per step of ``fejerlab.dynamics.iterate``, per operator family
and dimension, with the instructions and dispatches of each step, printed as
one JSON object.

Run from the root of a checkout, against the ``fejerlab`` on ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/iterate_per_step.py [--steps 200000] [--repeats 5]

Each family runs ``iterate(T, x0, steps)`` once untimed (this also builds the
C library and lowers the tree) and then ``repeats`` times; the figure is the
fastest run divided by ``steps``.  Every orbit is chosen so that it never
repeats a state, so the loop computes every step: an orbit that stops at an
exact cycle is an error.  The set families move by a translation of 0.5 per
coordinate after their map, inside a set far larger than the orbit, so each
step takes the same arm of every choice: the inside arm for box, ball and
half-space.  Two-ball Douglas-Rachford drifts away from both balls, so its
reflections take the outside arm.

``instructions`` counts the instructions that a family's float source lowers
to, and ``dispatches`` the rows that the orbit machine runs per step once
dependent pairs are fused.  Both are exact counts, so a per-step figure can
be read against them.
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

from fejerlab.dynamics import iterate
from fejerlab.geometry import Ball, Box, Halfspace
from fejerlab.operators import (
    _OPCODES,
    Composition,
    ConvexCombination,
    DouglasRachford,
    Identity,
    Linear,
    Projector,
    Reflector,
    ScalarPiecewiseLinear,
    Translation,
)

DIMS = (1, 2, 3, 4)
FAR = 1e9  # radius and bounds of the sets the translated orbits stay inside


def _rotation(d: int) -> np.ndarray:
    """Rotation by 0.1 rad in the plane of the first two coordinates; at
    d = 1 the scaling by 1 - 2**-30."""
    m = np.eye(d)
    if d == 1:
        m[0, 0] = 1.0 - 2.0**-30
    else:
        c, s = math.cos(0.1), math.sin(0.1)
        m[:2, :2] = [[c, -s], [s, c]]
    return m


def _moved(d: int, T):
    return Composition(Translation(np.full(d, 0.5)), T)


def families(d: int) -> dict:
    """(operator, start) per family name at dimension d."""
    start = np.full(d, 0.3)
    normal = np.ones(d) / math.sqrt(d)
    out = {
        "translation": (Translation(np.full(d, 0.5)), start),
        "rotation": (Linear(_rotation(d)), start),
        "douglas_rachford_two_balls": (
            DouglasRachford(Ball(np.zeros(d), 1.0), Ball(np.eye(d)[0] * 5.0, 1.0)),
            start,
        ),
        "relaxed_halfspace_reflection": (
            _moved(d, ConvexCombination(0.3, Identity(), Reflector(Halfspace(normal, FAR)))),
            start,
        ),
        "box_projection": (_moved(d, Projector(Box(np.full(d, -FAR), np.full(d, FAR)))), start),
        "ball_projection_inside": (_moved(d, Projector(Ball(np.zeros(d), FAR))), start),
    }
    if d == 1:
        pwl = ScalarPiecewiseLinear([-2.0, 0.0, 3.0], [1.0, 1.0, 1.0, 1.0], anchor_value=-1.5)
        out["piecewise_linear"] = (pwl, np.array([-50.0]))
    return out


def per_step(T, x0, steps: int, repeats: int) -> float:
    if iterate(T, x0, steps).period is not None:
        raise RuntimeError(f"the orbit of {type(T).__name__} repeats, so not every step runs")
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        iterate(T, x0, steps)
        best = min(best, time.perf_counter() - t0)
    return best / steps * 1e6


def counts(T, d: int) -> tuple:
    """(instructions, dispatches) of one step of ``T`` at dimension d."""
    code = T._kernel(d).program.code
    pairs = int((code[:, 0] >= _OPCODES["PAIR"]).sum())
    return len(code) + pairs, len(code)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--steps", type=int, default=200_000)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args()
    result, instructions, dispatches = {}, {}, {}
    for d in DIMS:
        for name, (T, x0) in families(d).items():
            key = f"{name}.d{d}"
            result[key] = round(per_step(T, x0, args.steps, args.repeats), 4)
            instructions[key], dispatches[key] = counts(T, d)
    print(
        json.dumps(
            {
                "steps": args.steps,
                "repeats": args.repeats,
                "us_per_step": result,
                "instructions": instructions,
                "dispatches": dispatches,
            }
        )
    )


if __name__ == "__main__":
    main()
