"""The T_n trigonometric approximation operator.

    T_n(f)(x) = int_{-pi}^{pi} [(-1)^(r+1) Delta_t^r(f, x) + f(x)] K_{n,r}(t) dt
              = sum_{k=1}^{r} (-1)^(k+1) binom(r, k) int f(x + kt) K_{n,r}(t) dt.

Substituting u = x + kt and summing the k full periods collapses each term
to ordinary Fourier integrals of f: only frequencies l = jk survive and the
1/k Jacobian cancels against the k periods, so

    T_n(f)(x) = sum_{j=0}^{n} alpha_j [ (int f cos(ju) du) cos(jx)
                                      + (int f sin(ju) du) sin(jx) ],
    alpha_j   = sum_{k=1}^{r} (-1)^(k+1) binom(r, k) a_{jk, r},

with a_{l,r} the kernel's cosine coefficients (zero for l > n).  Note there
is no 1/k factor: alpha_0 = a_0 = 1/(2 pi), which is exactly what makes
T_n reproduce constants; this is cross-checked numerically against the
difference-integral definition in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iproduct

import numpy as np

from .jackson import jackson_kernel
from .polynd import contract, tensor_points
from .targets import parity_values

__all__ = ["TrigOperatorCoeffs", "alpha_coeffs", "trig_operator_parts",
           "apply_Tn_nd"]

DEFAULT_NODES = 4096
# points of a torus grid (nodes ** d); d = 2 uses 1024 ** 2, d = 3 would
# need 1024 ** 3 points of 3 coordinates (about 25 GB)
TORUS_POINT_CAP = 4_000_000


@dataclass
class TrigOperatorCoeffs:
    d: int
    n: int
    r: int
    alpha: np.ndarray          # alpha_0..alpha_n (shared across dimensions)
    parity: tuple              # eta in {0,1}^d
    a: dict = field(default_factory=dict)   # multi-index -> coefficient
    meta: dict = field(default_factory=dict)


def alpha_coeffs(n, r):
    """alpha_j for j = 0..n from the kernel's cosine coefficients."""
    K = jackson_kernel(n, r)
    alpha = np.zeros(n + 1)
    for j in range(n + 1):
        s = 0.0
        for k in range(1, r + 1):
            l = j * k
            a_l = K.a[l] if l <= n else 0.0
            s += (-1.0) ** (k + 1) * math.comb(r, k) * a_l
        alpha[j] = s
    return alpha, K


def trig_operator_parts(target, n, r, d):
    """[(eta, TrigOperatorCoeffs of the eta parity component)] for every
    eta in {0, 1}^d, from one evaluation of the target per sign reflection
    of the torus grid.  A component F rescaled to [-pi, pi]^d expands as
    sum_j a_j prod_k cos(j_k pi x_k - eta_k pi / 2), with a_j = prod_k
    alpha_{j_k} * int F(u) prod_k phi_{j_k}(u_k) du and phi = cos for even
    coordinates, sin for odd ones."""
    d = int(d)
    nodes = _expansion_nodes(n, d)
    values = parity_values(target, _torus_grid(d, nodes))
    return [(eta, _expand(F, n, r, d, eta, nodes))
            for eta, F in values.items()]


def _default_nodes(d):
    return DEFAULT_NODES if d == 1 else 1024


def _expansion_nodes(n, d):
    """The torus nodes per axis of a degree-n expansion over d dimensions.
    Its (n + 1) x nodes cosine matrices are held to TORUS_POINT_CAP
    entries: a larger n raises ValueError before any grid or kernel work."""
    n, nodes = int(n), _default_nodes(d)
    if (n + 1) * nodes > TORUS_POINT_CAP:
        raise ValueError(f"degree {n} is too large: its ({n + 1}, {nodes}) "
                         f"cosine matrix exceeds the cap of "
                         f"{TORUS_POINT_CAP} entries")
    return nodes


def _torus(nodes):
    """The trapezoid nodes of [-pi, pi)."""
    return -math.pi + 2.0 * math.pi * np.arange(nodes) / nodes


def _torus_grid(d, nodes):
    """The tensor grid of the torus nodes, over pi: points of [-1, 1)^d.
    A grid of more than TORUS_POINT_CAP points raises ValueError."""
    # 2^d > TORUS_POINT_CAP is refused before any integer power is formed
    if d >= TORUS_POINT_CAP.bit_length() or nodes ** d > TORUS_POINT_CAP:
        raise ValueError(f"a torus grid of {nodes} nodes per axis over {d} "
                         f"dimensions exceeds its cap of {TORUS_POINT_CAP} "
                         f"points")
    return tensor_points([_torus(nodes)] * d) / math.pi


def _expand(F, n, r, d, parity, nodes):
    """TrigOperatorCoeffs from the component's values F on the torus grid
    (last axis fastest)."""
    n, r = int(n), int(r)
    alpha, K = alpha_coeffs(n, r)
    u = _torus(nodes)
    h = 2.0 * math.pi / nodes
    js = np.arange(n + 1)
    mats = [np.cos(np.outer(js, u)) if eta == 0 else np.sin(np.outer(js, u))
            for eta in parity]
    F = np.asarray(F, dtype=float)
    if d == 1:
        coeff_arr = alpha * (mats[0] @ F * h)
    else:
        coeff_arr = contract([M * h for M in mats], F.reshape([nodes] * d))
        for axis in range(d):
            shape = [1] * d
            shape[axis] = n + 1
            coeff_arr = coeff_arr * alpha.reshape(shape)
    a = {}
    for j in iproduct(range(n + 1), repeat=d):
        v = float(coeff_arr[j])
        if v != 0.0:
            a[j] = v
    return TrigOperatorCoeffs(d=d, n=n, r=r, alpha=alpha, parity=parity,
                              a=a, meta={"kernel_m": K.m, "nodes": nodes})


def apply_Tn_nd(coeffs, pts):
    """Evaluate the tensor trig polynomial of one parity component on
    points in [-1, 1]^d."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    d, n = coeffs.d, coeffs.n
    js = np.arange(n + 1)
    axes = []
    for k in range(d):
        ang = np.outer(pts[:, k], js) * math.pi
        if coeffs.parity[k] == 0:
            axes.append(np.cos(ang))
        else:
            axes.append(np.sin(ang))
    total = np.zeros(pts.shape[0])
    for j, a in coeffs.a.items():
        term = np.full(pts.shape[0], a)
        for k in range(d):
            term = term * axes[k][:, j[k]]
        total += term
    return total
