#!/usr/bin/env python3
"""Reproduce the error-bound sweep the paper reports for each theorem (its
registry row's paper_sweep) and write one CSV per theorem.

Usage: python3 scripts/run_sweeps.py [outdir]
"""

import sys
from pathlib import Path

from relu3d import THEOREMS, sweep
from relu3d.verify import PASS_SLACK


def main():
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "sweep-out")
    outdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    sweeps = [(t, *spec.paper_sweep) for t, spec in THEOREMS.items()
              if spec.paper_sweep]
    for theorem, values, fixed in sweeps:
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
