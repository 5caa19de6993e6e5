"""Nanoseconds per row and witness of ``fejerlab.analysis.check_fejer``, per
dimension, printed as one JSON object.

Run from the root of a checkout, against the ``fejerlab`` on ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/checker_per_point.py [--rows 1000000] [--witnesses 10] [--repeats 5]

Each dimension checks one seeded random walk of ``rows`` rows, as a plain
array, against a ball; the walk moves away from some witness, so the check
fails and builds its witness as well.  One untimed call on the first rows
builds the C library; the figure is the fastest of ``repeats`` calls divided
by ``rows * witnesses``.
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

from fejerlab.analysis import check_fejer
from fejerlab.geometry import Ball

DIMS = (1, 2, 3, 4)


def per_point(d: int, rows: int, witnesses: int, repeats: int) -> float:
    rng = np.random.default_rng(d)
    pts = np.cumsum(rng.normal(size=(rows, d)), axis=0)
    C = Ball(rng.normal(size=d), 1.0)
    check_fejer(pts[:10], C, witnesses=witnesses)
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        check_fejer(pts, C, witnesses=witnesses)
        best = min(best, time.perf_counter() - t0)
    return best / (rows * witnesses) * 1e9


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rows", type=int, default=1_000_000)
    p.add_argument("--witnesses", type=int, default=10)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args()
    result = {
        f"check_fejer.d{d}": round(per_point(d, args.rows, args.witnesses, args.repeats), 3)
        for d in DIMS
    }
    print(json.dumps({
        "rows": args.rows,
        "witnesses": args.witnesses,
        "repeats": args.repeats,
        "ns_per_row_witness": result,
    }))


if __name__ == "__main__":
    main()
