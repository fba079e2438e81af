"""Chebyshev interpolation on [0, 1]^d with monomial-basis conversion.

Interpolation happens at Chebyshev points of the first kind (mapped to the
unit cube); coefficients come from the discrete cosine analysis and are then
converted to the monomial basis in the original variable.  The conversion
matrix T_j(2x - 1) -> monomials is exact in integer arithmetic, but its
entries grow like (3 + 2 sqrt 2)^m, so the float sum of the monomials
cancels at high degree; the builders refuse a chain whose estimated
rounding exceeds its bound.
"""

from __future__ import annotations

import numpy as np

from .polynd import PolyND, contract, tensor_points

__all__ = ["chebyshev_tensor_coeffs", "cheb_to_monomial_matrix"]

# the largest degree whose cheb_to_monomial_matrix is finite: its largest
# entry is 4.5e307, and degree 405 holds inf and nan entries
MAX_DEGREE = 404


def _analysis_matrix(m):
    """A with c = A @ f(nodes): discrete Chebyshev analysis at the m+1
    first-kind points nodes[i] = cos(pi (i + 1/2) / (m+1))."""
    i = np.arange(m + 1)
    theta = np.pi * (i + 0.5) / (m + 1)
    nodes = np.cos(theta)
    A = np.zeros((m + 1, m + 1))
    for j in range(m + 1):
        row = np.cos(j * theta) * (2.0 / (m + 1))
        if j == 0:
            row /= 2.0
        A[j] = row
    return A, nodes


def cheb_to_monomial_matrix(m):
    """C with column j = monomial coefficients (in x on [0,1]) of T_j(2x-1).

    Built from the recurrence T_{j+1}(t) = 2 t T_j - T_{j-1} with t = 2x - 1,
    evaluated in float (exact integers up to the double limit).  The entries
    grow like (3 + 2 sqrt 2)^m and stay finite up to m = MAX_DEGREE.
    """
    C = np.zeros((m + 1, m + 1))
    C[0, 0] = 1.0
    if m >= 1:
        C[0, 1] = -1.0
        C[1, 1] = 2.0
    for j in range(1, m):
        # t * T_j with t = 2x - 1: shift-and-scale of the coefficient vector
        tTj = -C[:, j].copy()
        tTj[1:] += 2.0 * C[:-1, j]
        C[:, j + 1] = 2.0 * tTj - C[:, j - 1]
    return C


def chebyshev_tensor_coeffs(target, N, d):
    """Degree-N tensor Chebyshev interpolant of a target on [0, 1]^d,
    converted to monomials and truncated to total degree <= N; monomials
    whose coefficient is exactly zero are left out.  Degrees above
    MAX_DEGREE raise ValueError before any work.

    meta fields: cheb_coeffs (the tensor Chebyshev coefficients) and
    max_abs_coeff (for the C (n+1)^d comparison).
    """
    N = int(N)
    if N > MAX_DEGREE:
        raise ValueError(f"degree {N} is too large: the monomial "
                         f"coefficients of T_{N}(2x - 1) exceed the float "
                         f"range above degree {MAX_DEGREE}")
    A, nodes = _analysis_matrix(N)
    x_nodes = (nodes + 1.0) / 2.0
    pts = tensor_points([x_nodes] * d)
    F = np.asarray(target(pts), dtype=float).reshape([N + 1] * d)
    # per-axis analysis then per-axis monomial conversion
    cheb = contract([A] * d, F)
    coeff = contract([cheb_to_monomial_matrix(N)] * d, cheb)
    coeffs = {}
    for j in np.ndindex(*coeff.shape):
        if sum(j) <= N and coeff[j] != 0.0:
            coeffs[tuple(int(v) for v in j)] = float(coeff[j])
    meta = {
        "cheb_coeffs": cheb,
        "max_abs_coeff": max((abs(a) for a in coeffs.values()), default=0.0),
    }
    return PolyND(d=d, coeffs=coeffs, degree=N, meta=meta)
