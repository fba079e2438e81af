"""Closed-form functional twins of the gadget networks.

Each network built here is a composition of piecewise-linear pieces with
known closed forms (dyadic interpolants of squares, sawtooth folds, product
interpolants).  The twins evaluate those closed forms directly with
vectorized numpy, which makes dense-grid error measurement of very large
compositions feasible; agreement with the actual networks is spot-checked
wherever a twin substitutes for network evaluation.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import net as rnet

__all__ = [
    "square_interp",
    "sym_square_interp",
    "sawtooth",
    "prodhat",
    "prodtil2",
    "chain_poly",
    "trig_net_twin",
    "lp_net_twin",
    "spot_check",
]


def sawtooth(z, s):
    """The s-fold tent composition g_s on [0, 1]: a triangle wave with
    2^(s-1) teeth, g_s(z) = tri(2^(s-1) z)."""
    t = np.asarray(z, dtype=float) * 2.0 ** (s - 1)
    return 1.0 - 2.0 * np.abs(t - np.floor(t) - 0.5)


def square_interp(x, H):
    """Piecewise-linear interpolant of x^2 on [0, 1] with step 2^-H."""
    x = np.asarray(x, dtype=float)
    h = 2.0 ** (-H)
    k = np.clip(np.floor(x / h), 0, 2 ** H - 1)
    lo = k * h
    return lo * lo + (2.0 * lo + h) * (x - lo)


def sym_square_interp(u, H):
    """Piecewise-linear interpolant of u^2 on [-1, 1] with step 2^-H."""
    u = np.asarray(u, dtype=float)
    h = 2.0 ** (-H)
    k = np.clip(np.floor((u + 1.0) / h), 0, 2 ** (H + 1) - 1)
    lo = k * h - 1.0
    return lo * lo + (2.0 * lo + h) * (u - lo)


def prodhat(x, y, H):
    """The [0, 1]^2 product interpolant built from three square gadgets."""
    return (2.0 * square_interp((x + y) * 0.5, H)
            - 2.0 * square_interp(x * 0.5, H)
            - 2.0 * square_interp(y * 0.5, H))


def prodtil2(u, v, H, M=1.0):
    """The [-M, M]^2 product interpolant built from symmetric squares."""
    su, sv = u / M, v / M
    out = (2.0 * sym_square_interp((su + sv) * 0.5, H)
           - 2.0 * sym_square_interp(su * 0.5, H)
           - 2.0 * sym_square_interp(sv * 0.5, H))
    return out * (M * M)


def chain_poly(g, coeffs, H):
    """The accumulating power chain: sum_k coeffs[k] h_k + coeffs[0] with
    h_1 = g and h_k = prodhat(g, h_{k-1})."""
    g = np.asarray(g, dtype=float)
    n = len(coeffs) - 1
    out = np.full_like(g, coeffs[0])
    h = g
    out = out + coeffs[1] * h
    for k in range(2, n + 1):
        h = prodhat(g, h, H)
        out = out + coeffs[k] * h
    return out


def trig_net_twin(x, k, kind, chain_coeffs, chain_H):
    """Closed form of the cos / sin networks from the trig builder."""
    x = np.asarray(x, dtype=float)
    a, H = chain_coeffs, chain_H
    if kind == "cos":
        s = max(0, math.ceil(math.log2(k)))
        y = np.abs(x) * (k / float(2 ** s))
        g = sawtooth(y, s) if s >= 1 else y
        return chain_poly(g, a, H)

    def branch(t):
        sp = max(0, math.ceil(math.log2(k - 0.5)))
        y = np.abs(k * t - 0.5)
        g = sawtooth(y / 2 ** sp, sp) if sp >= 1 else y
        return chain_poly(g, a, H)

    return branch(np.maximum(x, 0.0)) - branch(np.maximum(-x, 0.0))


def _factor_twin(meta, x, jk, eta):
    """Closed form of one 1-D factor of an L^p net: 1 at frequency 0,
    else the cos (eta = 0) or sin (eta = 1) net at frequency jk."""
    if jk == 0:
        return np.ones_like(x)
    kind, H = ("cos", meta["chain_H_cos"]) if eta == 0 \
        else ("sin", meta["chain_H_sin"])
    return trig_net_twin(x, jk, kind, meta["chain_coeffs"], H)


def lp_net_twin(pts, report):
    """Closed form of an L^p builder output, driven by the coefficient map
    recorded in the BuildReport meta (valid for d <= 2)."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    d = report.inputs["d"]
    N1 = report.inputs["N1"]
    meta = report.meta

    @functools.lru_cache(maxsize=None)
    def psi(jk, eta, col):
        return _factor_twin(meta, pts[:, col], jk, eta)

    total = np.full(pts.shape[0], meta["constant"])
    for eta, j, aj in meta["terms"]:
        if d == 1:
            if j[0] == 0:
                continue  # folded into the constant at build time
            total = total + aj * psi(j[0], eta[0], 0)
        elif d == 2:
            u = psi(j[0], eta[0], 0)
            v = psi(j[1], eta[1], 1)
            total = total + aj * prodtil2(u, v, N1, M=2.0)
        else:
            raise NotImplementedError("twin evaluation covers d <= 2")
    return total


def lp_net_twin_grid(axes, report):
    """Tensor-grid variant of lp_net_twin for d = 2: the per-dimension
    factors are tabulated on the 1-d axes once and only the bivariate
    product interpolant runs on the grid, one block of rows at a time
    (net.CHUNK_ELEMENTS values per block, at least one row).  Each value
    is computed alone, so the output does not depend on the block size.
    Returns an (len(axes[0]), len(axes[1])) array."""
    u1, u2 = (np.asarray(ax, dtype=float) for ax in axes)
    meta = report.meta
    N1 = report.inputs["N1"]

    @functools.lru_cache(maxsize=None)
    def table(jk, eta, col):
        return _factor_twin(meta, (u1, u2)[col], jk, eta)

    terms = [(aj, table(j[0], eta[0], 0), table(j[1], eta[1], 1)[None, :])
             for eta, j, aj in meta["terms"]]
    total = np.empty((u1.size, u2.size))
    rows = max(1, rnet.CHUNK_ELEMENTS // max(1, u2.size))
    for a in range(0, u1.size, rows):
        block = total[a:a + rows]
        block[:] = meta["constant"]
        for aj, U, V in terms:
            block += aj * prodtil2(U[a:a + rows, None], V, N1, M=2.0)
    return total


SPOT_TOL = 1e-9


def spot_check(net_eval, twin_eval, pts, where="twin"):
    """Assert the network and its twin agree on the given points."""
    got = np.asarray(net_eval(pts), dtype=float)
    want = np.asarray(twin_eval(pts), dtype=float)
    dev = float(np.max(np.abs(got - want))) if got.size else 0.0
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    if dev > SPOT_TOL * scale:
        raise AssertionError(f"{where} deviates from network by {dev}")
    return dev
