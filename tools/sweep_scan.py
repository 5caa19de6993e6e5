"""Run the theorem sweeps over a range of seeds and print, as one JSON object,
each sweep's failing seeds with their first failure, a digest of its reports
and its wall time.

Run from the root of a checkout, against the ``fejerlab`` on ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/sweep_scan.py [--first 0] [--last 149] [KIND ...]

A KIND is a sweep's check kind, such as ``decoupling_sweep``; with none it
runs every sweep.  Each sweep runs once per seed at the size in ``SIZES``, in
this process.  ``sha256`` digests the JSON of every report, one line per
seed in order, as ``exports.report_to_dict`` gives it, so two checkouts that
report the same for every seed print the same digest.  ``failing`` maps each
seed whose sweep fails to its first failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

from fejerlab import scenarios
from fejerlab.exports import report_to_dict

# the arguments of each sweep besides its seed: 50 instances, 27 for the
# scalar sweep, and 4 two-ball pairs
SIZES = {
    "scalar_averaged_sweep": {"instances": 27},
    "affine_limit_sweep": {"instances": 50},
    "codim1_sweep": {"instances": 50},
    "decoupling_sweep": {"instances": 50},
    "two_ball_sweep": {"pairs": 4},
}


def scan(kind: str, seeds: range) -> dict:
    """Run the sweep ``kind`` at each seed and summarize its reports."""
    sweep = getattr(scenarios, f"run_{kind}")
    digest = hashlib.sha256()
    failing = {}
    t0 = time.perf_counter()
    for seed in seeds:
        report = report_to_dict(sweep(seed=seed, **SIZES[kind]))
        digest.update(json.dumps(report).encode() + b"\n")
        if report["verdict"]["type"] == "fail":  # a sweep passes or fails
            failing[str(seed)] = report["verdict"]["witness"]["first_failure"]
    return {
        "arguments": SIZES[kind],
        "seeds": [seeds.start, seeds.stop - 1],
        "runs": len(seeds),
        "failing": failing,
        "sha256": digest.hexdigest(),
        "wall_s": round(time.perf_counter() - t0, 3),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kinds", nargs="*", metavar="KIND",
                        help=f"sweeps to scan (default: all of {', '.join(SIZES)})")
    parser.add_argument("--first", type=int, default=0, help="first seed (default 0)")
    parser.add_argument("--last", type=int, default=149, help="last seed (default 149)")
    args = parser.parse_args(argv)
    unknown = [kind for kind in args.kinds if kind not in SIZES]
    if unknown:
        parser.error(f"unknown sweep {unknown[0]!r}; choose from {', '.join(SIZES)}")
    if args.last < args.first:
        parser.error("--last must be at least --first")
    seeds = range(args.first, args.last + 1)
    kinds = args.kinds or list(SIZES)
    print(json.dumps({"sweeps": {kind: scan(kind, seeds) for kind in kinds}}, indent=1))


if __name__ == "__main__":
    main()
