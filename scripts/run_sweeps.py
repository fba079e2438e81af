#!/usr/bin/env python3
"""Reproduce the main error-bound sweeps and write one CSV per theorem.

Usage: python3 scripts/run_sweeps.py [outdir]
"""

import sys
from pathlib import Path

from relu3d import sweep
from relu3d.targets import TargetSpec
from relu3d.verify import PASS_SLACK


def main():
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "sweep-out")
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = [
        ("poly", range(1, 13), {"coeffs": [0.0, 0.0, 1.0]}),
        ("smooth", range(2, 11),
         {"target": TargetSpec.catalog("reciprocal-shift")}),
        ("analytic-cube", range(2, 11),
         {"target": TargetSpec.catalog("geometric-product", d=1),
          "delta": 0.5}),
        ("ellipse", range(4, 17, 2),
         {"target": TargetSpec.catalog("reciprocal-shift"), "rho": 4.0}),
        ("hermite", range(2, 11),
         {"target": TargetSpec.catalog("cosine", domain="gaussian-line")}),
        ("trig", ("N2", range(6, 17, 2)), {"k": 3, "kind": "cos"}),
        ("lp", ("N1", (4, 8, 12, 16, 24)),
         {"target": TargetSpec.catalog("abs-power", domain="sym-cube"),
          "N2": 20, "p": 2}),
    ]
    failures = 0
    for theorem, values, fixed in jobs:
        path = outdir / f"{theorem}.csv"
        table = sweep(theorem, values, fixed, csv_path=str(path))
        bad = [r.value for r in table.rows
               if r.measured > r.bound * (1.0 + PASS_SLACK)]
        status = "ok" if not bad else f"BOUND FAILURES at {bad}"
        failures += len(bad)
        print(f"{theorem:14s} {len(table.rows)} points -> {path}  {status}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
