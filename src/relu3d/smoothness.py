"""Numerical modulus of smoothness on periodic domains.

omega_r(f, t)_p = sup_{|h| <= t} || Delta_h^r f ||_p with the r-th forward
difference Delta_h^r f(x) = sum_{k=0}^r (-1)^(r-k) binom(r, k) f(x + k h),
shifts taken along one coordinate axis at a time and wrapped periodically.
The sup over h is sampled on a geometric ladder, which is exact enough for
the monotone moduli that occur in practice.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import comb

from .polynd import tensor_points

__all__ = ["modulus_smoothness", "r_th_difference"]

H_SAMPLES = 32
QUAD_NODES = 4096


def r_th_difference(fn, pts, h_vec, r):
    """Delta_{h}^r f at the given points (no wrapping; the caller wraps)."""
    pts = np.asarray(pts, dtype=float)
    total = np.zeros(pts.shape[0])
    for k in range(r + 1):
        c = (-1.0) ** (r - k) * comb(r, k, exact=True)
        total += c * np.asarray(fn(pts + k * h_vec), dtype=float)
    return total


def modulus_smoothness(target, r, t, p=2, d=1, half_width=1.0):
    """omega_r(f, t)_p on the periodic cube [-T, T]^d, T = half_width.

    p may be a positive float or math.inf.  Shifts run along each coordinate
    axis; h is sampled geometrically in (t / 2^10, t].
    """
    r = int(r)
    t = float(t)
    if t <= 0:
        raise ValueError("t must be positive")
    T = float(half_width)
    if d == 1:
        n_side = QUAD_NODES
    else:
        n_side = max(64, int(round(QUAD_NODES ** (1.0 / d))))
    u = -T + 2.0 * T * np.arange(n_side) / n_side
    pts = tensor_points([u] * d)

    def wrapped(q):
        z = np.mod(q + T, 2.0 * T) - T
        return target(z)

    cell = (2.0 * T) ** d
    hs = t * np.geomspace(2.0 ** -10, 1.0, H_SAMPLES)
    best = 0.0
    for axis in range(d):
        e = np.zeros(d)
        e[axis] = 1.0
        for h in hs:
            diff = r_th_difference(wrapped, pts, h * e, r)
            if p == math.inf or p == np.inf:
                val = float(np.max(np.abs(diff)))
            else:
                val = float((np.mean(np.abs(diff) ** p) * cell) ** (1.0 / p))
            if val > best:
                best = val
    return best
