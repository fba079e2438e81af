"""Chebyshev interpolation on [0, 1]^d with monomial-basis conversion.

Interpolation happens at Chebyshev points of the first kind (mapped to the
unit cube); coefficients come from the discrete cosine analysis and are then
converted to the monomial basis in the original variable.  The conversion
matrix T_j(2x - 1) -> monomials is exact in integer arithmetic but the
evaluation in doubles loses accuracy beyond degree ~25, which is reported
via a conditioning flag rather than silently.
"""

from __future__ import annotations

import numpy as np

from .polynd import PolyND, contract, tensor_points

__all__ = [
    "chebyshev_interpolant_1d",
    "chebyshev_tensor_coeffs",
    "cheb_to_monomial_matrix",
]

CONDITIONING_LIMIT = 1e12


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
    evaluated in float (exact integers up to the double limit; the growth of
    the entries, about 3^m, is what drives the conditioning flag).
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


def _growth(m):
    """3^m, the growth of the monomial coefficients of T_j(2x - 1), j <= m;
    3.0 ** 647 overflows."""
    if m > 646:
        raise ValueError(f"degree {m} is too large: 3^{m} exceeds the float "
                         f"range")
    return 3.0 ** m


def _conditioning(C, c_cheb):
    """Crude amplification estimate of the basis change."""
    num = float(np.max(np.abs(C) @ np.abs(c_cheb)))
    den = max(float(np.max(np.abs(c_cheb))), 1e-300)
    return num / den


def chebyshev_interpolant_1d(target, m):
    """Degree-m Chebyshev interpolant of the target on [0, 1], returned as a
    univariate PolyND in the monomial basis.

    meta fields: coeff_bound_ok (|c_k| <= 2(m+1)3^m for all k),
    conditioning (amplification estimate), conditioning_warning.
    """
    m = int(m)
    growth = _growth(m)
    A, nodes = _analysis_matrix(m)
    x_nodes = (nodes + 1.0) / 2.0
    f = np.asarray(target(x_nodes[:, None]), dtype=float).reshape(-1)
    c_cheb = A @ f
    C = cheb_to_monomial_matrix(m)
    c_mono = C @ c_cheb
    bound = 2.0 * (m + 1) * growth
    cond = _conditioning(C, c_cheb)
    meta = {
        "cheb_coeffs": c_cheb,
        "coeff_bound": bound,
        "coeff_bound_ok": bool(np.all(np.abs(c_mono) <= bound)),
        "conditioning": cond,
        "conditioning_warning": bool(cond > CONDITIONING_LIMIT or m > 25),
    }
    coeffs = {(k,): float(c_mono[k]) for k in range(m + 1)}
    return PolyND(d=1, coeffs=coeffs, degree=m, meta=meta)


def chebyshev_tensor_coeffs(target, N, d):
    """Tensor Chebyshev coefficients of a target on [0, 1]^d, converted to
    monomials and truncated to total degree <= N.

    meta fields: max_abs_coeff (for the C (n+1)^d comparison), conditioning
    flag as in the univariate case, cheb_max (max |c| over the tensor
    Chebyshev coefficients, d >= 2).
    """
    N = int(N)
    if d == 1:
        poly = chebyshev_interpolant_1d(target, N)
        coeffs = {j: a for j, a in poly.coeffs.items()}
        poly.meta["max_abs_coeff"] = max(abs(a) for a in coeffs.values())
        return poly
    growth = _growth(N)
    A, nodes = _analysis_matrix(N)
    x_nodes = (nodes + 1.0) / 2.0
    pts = tensor_points([x_nodes] * d)
    F = np.asarray(target(pts), dtype=float).reshape([N + 1] * d)
    # per-axis analysis then per-axis monomial conversion
    coeff = contract([A] * d, F)
    cheb_max = float(np.max(np.abs(coeff)))
    coeff = contract([cheb_to_monomial_matrix(N)] * d, coeff)
    coeffs = {}
    it = np.ndindex(*coeff.shape)
    for j in it:
        if sum(j) <= N and coeff[j] != 0.0:
            coeffs[tuple(int(v) for v in j)] = float(coeff[j])
    cond = growth * (N + 1)
    meta = {
        "max_abs_coeff": max((abs(a) for a in coeffs.values()), default=0.0),
        "cheb_max": cheb_max,
        "conditioning": cond,
        "conditioning_warning": bool(cond > CONDITIONING_LIMIT or N > 25),
    }
    return PolyND(d=d, coeffs=coeffs, degree=N, meta=meta)
