"""Multivariate polynomials in the monomial basis, indexed by multi-index."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PolyND", "total_degree_indices", "exact_degree_indices",
           "tensor_points", "contract", "gauss_panels"]


def tensor_points(axes):
    """The tensor grid of the 1-d axes as an (m, len(axes)) point array,
    the last axis varying fastest."""
    if len(axes) == 1:
        return axes[0][:, None]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def contract(mats, F):
    """F with each axis k contracted against mats[k], one axis at a time:
    axis k of the result has length mats[k].shape[0]."""
    for axis, M in enumerate(mats):
        F = np.moveaxis(np.tensordot(M, F, axes=([1], [axis])), 0, axis)
    return F


def gauss_panels(lo, hi, n_panels, order):
    """Composite Gauss-Legendre nodes and weights of the given order on
    n_panels equal panels of [lo, hi], panel by panel."""
    x0, w0 = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * x0).ravel(), (half * w0).ravel()


def exact_degree_indices(d, k):
    """All multi-indices j >= 0 with |j|_1 == k, lexicographic order."""
    if d == 1:
        return [(k,)]
    out = []
    for first in range(k, -1, -1):
        for rest in exact_degree_indices(d - 1, k - first):
            out.append((first,) + rest)
    return out


def total_degree_indices(d, n):
    """All multi-indices with |j|_1 <= n, grouped by ascending degree."""
    out = []
    for k in range(n + 1):
        out.extend(exact_degree_indices(d, k))
    return out


@dataclass
class PolyND:
    """coeffs: {multi-index tuple: coefficient}; degree = max |j|_1 kept."""

    d: int
    coeffs: dict
    degree: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for j in self.coeffs:
            if len(j) != self.d or any(v < 0 for v in j):
                raise ValueError(f"bad multi-index {j} for d={self.d}")
            if sum(j) > self.degree:
                raise ValueError(f"multi-index {j} exceeds degree {self.degree}")

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self.d == 1 and pts.ndim == 1:
            pts = pts[:, None]
        vals = np.zeros(pts.shape[0])
        for j, a in self.coeffs.items():
            if a == 0.0:
                continue
            term = np.full(pts.shape[0], a)
            for axis, power in enumerate(j):
                if power:
                    term = term * pts[:, axis] ** power
            vals += term
        return vals
