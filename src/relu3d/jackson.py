"""Fejer and generalized Jackson kernels.

K_{n,r}(t) = gamma_{n,r} (sin(m t / 2) / sin(t / 2))^(2r),  m = floor(n/r)+1,

normalized so the integral over [-pi, pi] is 1.  The 2r-th power expands as
m^r times the r-fold self-convolution of the Fejer coefficients
(1 - |k|/m), giving a pure cosine polynomial.  The printed cosine expansion
starts at k = 1, which integrates to zero; the constant (k = 0) term is
required for the normalization and is included here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polynd import gauss_panels

__all__ = ["KernelCoeffs", "fejer_coeffs", "jackson_kernel",
           "kernel_eval", "kernel_moments"]


@dataclass
class KernelCoeffs:
    n: int
    r: int
    m: int
    a: np.ndarray          # cosine coefficients a_0..a_n of the normalized K
    a_tilde: np.ndarray = field(repr=False, default=None)  # pre-normalization

    def __post_init__(self):
        integral = 2.0 * math.pi * self.a[0]
        if abs(integral - 1.0) > 1e-10:
            raise AssertionError(f"kernel normalization off: int K = {integral}")


def fejer_coeffs(m):
    """Fourier coefficients of the Fejer kernel, indexed k = -(m-1)..(m-1)."""
    m = int(m)
    if m < 1:
        raise ValueError("m must be positive")
    k = np.arange(-(m - 1), m)
    return 1.0 - np.abs(k) / m


def jackson_kernel(n, r):
    """KernelCoeffs for K_{n,r}; requires n >= r >= 1."""
    n, r = int(n), int(r)
    if r < 1 or r > n:
        raise ValueError("need n >= r >= 1")
    m = n // r + 1
    base = fejer_coeffs(m)
    conv = base
    for _ in range(r - 1):
        conv = np.convolve(conv, base)
    # (sin(mt/2)/sin(t/2))^(2r) = m^r * F_m(t)^r; conv holds F_m^r's
    # coefficients over k = -r(m-1)..r(m-1)
    a_tilde_full = (float(m) ** r) * conv
    mid = r * (m - 1)
    # fold exponentials into cosines: tilde_a_0 + 2 sum_{k>=1} tilde_a_k cos
    a_tilde = a_tilde_full[mid:]
    if np.any(a_tilde <= 0):
        raise AssertionError("pre-normalization coefficients must be positive")
    total = float(a_tilde_full.sum())
    expected = float(m) ** (2 * r)
    if abs(total - expected) > 1e-8 * expected:
        raise AssertionError(f"sum tilde a = {total}, expected m^2r = {expected}")
    gamma = 1.0 / (2.0 * math.pi * a_tilde[0])
    a = np.zeros(n + 1)
    upto = min(n, mid)
    a[0] = gamma * a_tilde[0]
    a[1:upto + 1] = 2.0 * gamma * a_tilde[1:upto + 1]
    return KernelCoeffs(n=n, r=r, m=m, a=a, a_tilde=a_tilde)


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
