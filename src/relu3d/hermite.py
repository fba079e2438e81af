"""Probabilists' Hermite polynomials, normalized in L^2 of the standard
Gaussian measure, plus expansions and the tail envelope.

Xi_0 = 1, Xi_1 = x, Xi_{n+1} = (x Xi_n - sqrt(n) Xi_{n-1}) / sqrt(n+1),
so <Xi_n, Xi_m>_{gamma_1} = delta_{nm}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iproduct

import numpy as np

from .polynd import contract, tensor_points

__all__ = [
    "hermite_poly_coeffs",
    "hermite_eval",
    "hermite_orthonormality_check",
    "HermiteExpansion",
    "hermite_expansion",
    "hermite_tail_bound",
    "gauss_nodes",
]


def gauss_nodes(Q):
    """Gauss-Hermite nodes and weights for the standard Gaussian measure:
    sum w_i f(x_i) ~ int f dgamma_1 (weights sum to 1)."""
    x, w = np.polynomial.hermite_e.hermegauss(int(Q))
    return x, w / math.sqrt(2.0 * math.pi)


def hermite_poly_coeffs(n):
    """Monomial coefficients c_{n,0..n} of Xi_n.

    The coefficient-sum bound sum_j |c_{n,j}| <= 6^(n/2) is asserted.
    """
    n = int(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    he = np.zeros(n + 1)
    he[n] = 1.0
    mono = np.polynomial.hermite_e.herme2poly(he)
    coeffs = mono / math.sqrt(math.factorial(n))
    total = float(np.sum(np.abs(coeffs)))
    if total > 6.0 ** (n / 2.0) * (1 + 1e-12):
        raise AssertionError(
            f"coefficient sum {total} exceeds 6^(n/2) at n={n}")
    return coeffs


def hermite_eval(n, x):
    """Xi_n(x) by the three-term recurrence (stable, unlike monomials)."""
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = x.copy()
    for k in range(1, n):
        prev, cur = cur, (x * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)
    return cur


def hermite_orthonormality_check(n_max, Q=None):
    """Max deviation of the Gauss-quadrature Gram matrix from identity."""
    n_max = int(n_max)
    if Q is None:
        Q = max(2 * n_max + 16, 40)
    if Q < n_max + 1:
        raise ValueError("need Q >= n_max + 1 quadrature nodes")
    x, w = gauss_nodes(Q)
    vals = np.stack([hermite_eval(n, x) for n in range(n_max + 1)])
    gram = (vals * w) @ vals.T
    return float(np.max(np.abs(gram - np.eye(n_max + 1))))


@dataclass
class HermiteExpansion:
    d: int
    n: int
    coeffs: dict          # multi-index nu -> <f, Xi_nu>
    quadrature_order: int
    meta: dict = field(default_factory=dict)

    def tail_l2(self, beyond):
        """l2 mass of coefficients with any index component > beyond."""
        total = 0.0
        for nu, c in self.coeffs.items():
            if max(nu) > beyond:
                total += c * c
        return math.sqrt(total)


def hermite_expansion(target, n, d=1, Q=None):
    """Tensor Gauss-Hermite coefficients <f, Xi_nu> for 0 <= nu <= n."""
    n = int(n)
    if Q is None:
        Q = max(2 * n + 16, 40)
    if Q < 2 * n:
        raise ValueError(f"quadrature order {Q} below 2n = {2 * n}")
    x, w = gauss_nodes(Q)
    vals = np.stack([hermite_eval(k, x) for k in range(n + 1)])  # (n+1, Q)
    coeffs = {}
    if d == 1:
        f = np.asarray(target(x[:, None]), dtype=float)
        proj = (vals * w) @ f
        coeffs = {(k,): float(proj[k]) for k in range(n + 1)}
    else:
        pts = tensor_points([x] * d)
        F = np.asarray(target(pts), dtype=float).reshape([Q] * d)
        # contract every axis with (Xi_k(x_i) w_i)
        C = contract([vals * w] * d, F)
        for nu in iproduct(range(n + 1), repeat=d):
            coeffs[nu] = float(C[nu])
    return HermiteExpansion(d=d, n=n, coeffs=coeffs, quadrature_order=Q)


def hermite_tail_bound(n, M):
    """Envelope for int_{|x| > M} Xi_n^2 dgamma_1:
    (1/sqrt(2 pi)) (2n)!! (sqrt(6) M)^(2n) e^(-M^2/2), computed in logs."""
    n = int(n)
    M = float(M)
    if M < 1:
        raise ValueError("tail envelope requires M >= 1")
    log = -0.5 * math.log(2.0 * math.pi) - M * M / 2.0 \
        + 2 * n * math.log(math.sqrt(6.0) * M)
    # (2n)!! = 2^n n!
    log += n * math.log(2.0) + math.lgamma(n + 1)
    return math.exp(log)
