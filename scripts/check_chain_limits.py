#!/usr/bin/env python3
"""Check the float limits of the power chains at both ends.

Builds `trig` with k = 1 (cos and sin) for every N2 from 29 up, and
`smooth` of reciprocal-shift for every N from 29 up, measuring each net in
sup norm on 2^16 + 1 points against its bound, until a build is refused.
Exits 1 if a build misses its bound or if the first refusal does not name
the chain's float rounding.

Usage: python3 scripts/check_chain_limits.py
"""

import math
import sys

import numpy as np

from relu3d import TargetSpec
from relu3d.builders import build_smooth1d, build_trig
from relu3d.verify import sup_error

FIRST = 29
RECIPROCAL = TargetSpec.catalog("reciprocal-shift")

# name -> (build at degree n, target, domain)
CHAINS = {
    "trig cos k=1": (lambda n: build_trig(1, n, kind="cos"),
                     lambda p: np.cos(math.pi * p[:, 0]), (-1.0, 1.0)),
    "trig sin k=1": (lambda n: build_trig(1, n, kind="sin"),
                     lambda p: np.sin(math.pi * p[:, 0]), (-1.0, 1.0)),
    "smooth reciprocal-shift": (lambda n: build_smooth1d(RECIPROCAL, n),
                                RECIPROCAL, (0.0, 1.0)),
}


def check(name, build, target, domain):
    """Number of failures of one chain from FIRST up to its refusal."""
    n = FIRST
    worst = 0.0
    while True:
        try:
            rep = build(n)
        except ValueError as exc:
            refused = "float rounding" in str(exc)
            print(f"{name}: built {FIRST}..{n - 1}, worst error {worst:.3g}; "
                  f"{n} refused{'' if refused else ' WRONGLY'}: {exc}")
            return 0 if refused and n > FIRST else 1
        er = sup_error(rep.net, target, domain, bound=rep.theoretical_bound,
                       base_resolution=2 ** 16 + 1)
        worst = max(worst, er.measured)
        if not er.passed:
            print(f"{name}: {n} measured {er.measured:.3g} over its bound "
                  f"{er.bound:.3g}")
            return 1
        n += 1


def main():
    failures = sum(check(name, *spec) for name, spec in CHAINS.items())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
