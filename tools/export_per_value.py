"""Nanoseconds per value of fejerlab's two float writers, ``native.csv_rows``
(the trajectory CSV) and ``native.reprs`` (the report floats), printed as one
JSON object.

Run from the root of a checkout, against the ``fejerlab`` on ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/export_per_value.py [--values 300000] [--repeats 5]

The inputs are one seeded array of ``values`` floats, m * 10**q with m
uniform in [1, 10), q uniform in -16..16 and a random sign, so they span
1e-16 <= |v| < 1e17, the range of the writers' own digits.  ``csv_rows`` at
d = 1..4 writes them as ``values // d`` rows of d columns; ``csv_rows.d3.repeated``
writes d = 3 rows that each come twice in a row, so every second row is a
copy of the text before it.  ``reprs`` writes the whole array with the
report's separator.  One untimed call on the first values builds the C
library; each figure is the fastest of ``repeats`` calls divided by the
count of values written.
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

from fejerlab import native

DIMS = (1, 2, 3, 4)
SEP = b",\n    "  # the separator of a report's per_step list


def sample(n: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    m = rng.uniform(1.0, 10.0, n) * rng.choice([-1.0, 1.0], n)
    return m * 10.0 ** rng.integers(-16, 17, n)


def best_ns(write, arg, count: int, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        write(arg)
        best = min(best, time.perf_counter() - t0)
    return best / count * 1e9


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--values", type=int, default=300_000)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args()
    v, repeats = sample(args.values), args.repeats
    native.csv_rows(v[:12].reshape(-1, 3), 0)

    def rows(pts):
        return native.csv_rows(pts, 0)

    cases = {f"csv_rows.d{d}": v[: args.values // d * d].reshape(-1, d) for d in DIMS}
    cases["csv_rows.d3.repeated"] = np.repeat(v[: args.values // 6 * 3].reshape(-1, 3), 2, axis=0)
    result = {name: round(best_ns(rows, pts, pts.size, repeats), 2) for name, pts in cases.items()}
    result["reprs"] = round(best_ns(lambda a: native.reprs(a, SEP), v, len(v), repeats), 2)
    print(json.dumps({"values": args.values, "repeats": repeats, "ns_per_value": result}))


if __name__ == "__main__":
    main()
