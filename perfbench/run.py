"""Benchmark entry point: one workload, one seed, every metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mesh-steady --seed 1 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (and writes a Chrome trace under ``.perfbench/``).  A table for
humans comes first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mesh-steady", "churn-large", "sharded-ring"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]

    from perfbench import harness

    if args.setup_probe:
        return harness.probe(args.workload, args.seed)
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(result.table())
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
