"""Direct evaluations of the Jackson kernel and of one T_n parity
component, kept as oracles for the tests of ``relu3d.jackson`` and
``relu3d.trig_operator``: the library builds its nets from coefficients
and never evaluates the kernel or the trig polynomial itself.
"""

import math

import numpy as np

from relu3d.polynd import gauss_panels


def kernel_eval(K, t):
    """Evaluate K_{n,r}(t) from its cosine coefficients."""
    t = np.asarray(t, dtype=float)
    ks = np.arange(K.a.size)
    return np.cos(np.outer(t, ks)) @ K.a


def kernel_moments(K, k):
    """Numeric int_{-pi}^{pi} |t|^k K_{n,r}(t) dt (absolute moment; the
    kernel is even, so odd plain moments vanish identically), by 16-point
    Gauss-Legendre on 256 panels.

    The Jackson bound B_r n^-k only covers k <= 2r - 2; larger k rejected.
    """
    k = int(k)
    if k > 2 * K.r - 2:
        raise ValueError(f"moment order {k} exceeds 2r-2 = {2 * K.r - 2}")
    t, w = gauss_panels(-math.pi, math.pi, 256, 16)
    total = 0.0
    # each panel's terms summed, then the panel sums added in order
    for panel in (w * np.abs(t) ** k * kernel_eval(K, t)).reshape(256, 16):
        total += float(np.sum(panel))
    return total


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
