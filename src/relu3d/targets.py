"""Built-in catalog of analytically evaluable target functions.

A TargetSpec names a function (catalog id + parameters + dimension + domain)
or carries explicit coefficient data.  Targets are plain callables on
(m, d) point arrays; catalog entries additionally expose the structural
facts the builders need (closed-form power series, factorial derivative
bounds, Gaussian integrability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np
from scipy import integrate

from .polynd import PolyND

__all__ = ["TargetSpec", "catalog_ids", "ParityComponent", "parity_decompose",
           "parity_values", "power_series_truncate"]

# domain descriptors: name -> (lo, hi) per coordinate (None = unbounded)
DOMAINS = {
    "unit-cube": (0.0, 1.0),
    "sym-cube": (-1.0, 1.0),
    "periodic-pi": (-math.pi, math.pi),
    "gaussian-line": (None, None),
}


def _entry(fn, *, smooth_factorial=False, gauss_ok=False, series=None):
    return {"fn": fn, "smooth_factorial": smooth_factorial,
            "gauss_ok": gauss_ok, "series": series}


def _geometric_series(params, N, d):
    """f = 2^-d prod 1/(1 - x_j/2): a_j = 2^-d 2^-|j|, sum |a_j| -> 1."""
    from .polynd import total_degree_indices
    coeffs = {}
    for j in total_degree_indices(d, N):
        coeffs[j] = 2.0 ** (-d) * 2.0 ** (-sum(j))
    return coeffs


_CATALOG = {
    "reciprocal-shift": _entry(
        lambda x, p: 1.0 / (x[:, 0] + p.get("a", 2.0)),
        smooth_factorial=True),  # |f^(n)| = n!/(x+a)^(n+1) <= n! for a >= 1
    "scaled-exponential": _entry(
        lambda x, p: np.exp(x[:, 0] - 1.0),
        smooth_factorial=True),
    "cosine": _entry(
        lambda x, p: np.cos(p.get("omega", 1.0) * x[:, 0]),
        gauss_ok=True),
    "runge": _entry(
        lambda x, p: 1.0 / (1.0 + p.get("c", 1.0) * x[:, 0] ** 2)),
    "quadratic": _entry(lambda x, p: x[:, 0] ** 2, gauss_ok=False),
    "linear": _entry(lambda x, p: x[:, 0], gauss_ok=True),
    "constant": _entry(
        lambda x, p: np.full(x.shape[0], p.get("c", 1.0)), gauss_ok=True),
    "abs": _entry(lambda x, p: np.abs(x[:, 0])),
    "abs-power": _entry(
        lambda x, p: np.abs(x[:, 0]) ** p.get("alpha", 0.5)),
    "step": _entry(lambda x, p: np.sign(x[:, 0])),
    "abs-sum": _entry(lambda x, p: np.sum(np.abs(x), axis=1)),
    "gaussian-bump": _entry(
        lambda x, p: np.exp(-np.sum(x ** 2, axis=1)), gauss_ok=True),
    "geometric-product": _entry(
        lambda x, p: 2.0 ** (-x.shape[1]) * np.prod(1.0 / (1.0 - x / 2.0),
                                                    axis=1),
        smooth_factorial=True, series=_geometric_series),
}


def catalog_ids():
    return sorted(_CATALOG)


@dataclass(frozen=True)
class TargetSpec:
    kind: str = "catalog-function"
    catalog_id: str = ""
    params: tuple = ()              # sorted (key, value) pairs
    d: int = 1
    domain: str = "unit-cube"
    coeffs: tuple = ()              # ((multi-index, value), ...) for explicit

    @staticmethod
    def catalog(catalog_id, d=1, domain="unit-cube", **params):
        if catalog_id not in _CATALOG:
            raise KeyError(f"unknown catalog id {catalog_id!r}; "
                           f"known: {catalog_ids()}")
        if domain not in DOMAINS:
            raise KeyError(f"unknown domain {domain!r}")
        return TargetSpec(kind="catalog-function", catalog_id=catalog_id,
                          params=tuple(sorted(params.items())), d=d,
                          domain=domain)

    @staticmethod
    def from_document(doc):
        return TargetSpec.catalog(doc["catalog_id"],
                                  d=int(doc.get("dimension", 1)),
                                  domain=doc.get("domain", "unit-cube"),
                                  **doc.get("params", {}))

    def to_document(self):
        return {"catalog_id": self.catalog_id, "params": dict(self.params),
                "dimension": self.d, "domain": self.domain}

    # -- evaluation --------------------------------------------------------

    def __call__(self, pts):
        pts = _as_points(pts, self.d)
        if pts.shape[1] != self.d:
            raise ValueError(f"target expects dimension {self.d}")
        if self.kind == "explicit-power-series":
            poly = PolyND(self.d, dict(self.coeffs),
                          max(sum(j) for j, _ in self.coeffs))
            return poly(pts)
        return _CATALOG[self.catalog_id]["fn"](pts, dict(self.params))

    # -- structural facts --------------------------------------------------

    @property
    def smooth_factorial(self):
        """True when |f^(n)| <= n! holds on the unit interval (catalog flag)."""
        return (self.kind == "catalog-function"
                and _CATALOG[self.catalog_id]["smooth_factorial"])

    @property
    def gauss_ok(self):
        """True when f is integrable enough against the Gaussian measure and
        a tail envelope is available."""
        return (self.kind == "catalog-function"
                and _CATALOG[self.catalog_id]["gauss_ok"])

    def series_coeffs(self, N):
        """Closed-form power-series coefficients truncated to degree N."""
        if self.kind == "explicit-power-series":
            return {j: v for j, v in self.coeffs if sum(j) <= N}
        if self.kind == "catalog-function":
            series = _CATALOG[self.catalog_id]["series"]
            if series is not None:
                return series(dict(self.params), N, self.d)
        raise ValueError(f"target {self.catalog_id or self.kind!r} has no "
                         f"closed-form series")

    def gauss_tail_sq(self, M):
        """Closed-ish form for int_{||x||_inf > M} f^2 dgamma_d (d = 1)."""
        if not self.gauss_ok:
            raise ValueError("no Gaussian tail envelope for this target")
        if self.d != 1:
            raise NotImplementedError("tail envelopes are univariate")
        def integrand(x):
            return (float(self(np.array([[x]]))[0]) ** 2
                    * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi))
        lo, _ = integrate.quad(integrand, M, np.inf)
        hi, _ = integrate.quad(integrand, -np.inf, -M)
        return lo + hi


def power_series_truncate(target, N, d=None):
    """PolyND keeping the closed-form series terms with total degree <= N.

    Requires sum |a_j| <= 1 (over the full series), which gives the tail
    bound sup_{[0, 1-delta]^d} |f - P| <= (1 - delta)^N.
    """
    d = target.d if d is None else int(d)
    coeffs = target.series_coeffs(N)
    # the kept mass never exceeds the full-series mass; probe a margin past
    # N to catch targets whose total mass exceeds 1
    probe = target.series_coeffs(N + 8)
    if sum(abs(a) for a in probe.values()) > 1.0 + 1e-9:
        raise ValueError("series coefficient mass exceeds 1; rescale the "
                         "target so that sum |a_j| <= 1")
    return PolyND(d=d, coeffs=coeffs, degree=N)


@dataclass(frozen=True)
class ParityComponent:
    """One of the 2^d even/odd components of a target on [-1, 1]^d.

    eta[k] = 0 for even in coordinate k, 1 for odd.  Evaluation averages the
    2^d sign-reflections of the base target.
    """

    base: TargetSpec
    eta: tuple

    def __call__(self, pts):
        pts = _as_points(pts, self.base.d)
        return _parity_sum(self.eta, _reflections(self.base, pts))


def _as_points(pts, d):
    """pts as an (m, d) float array; a 1-d array is m points when d == 1
    and one point otherwise."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if d == 1 else pts[None, :]
    return pts


def _reflections(base, pts):
    """base(pts * signs) for each sign vector in {1, -1}^d, iproduct order."""
    return [base(pts * np.array(signs))
            for signs in iproduct((1.0, -1.0), repeat=base.d)]


def _parity_sum(eta, reflected):
    """The eta component from the reflected values: their sum, each taken
    with the sign prod_k s_k^eta_k, over 2^d."""
    d = len(eta)
    total = np.zeros(len(reflected[0]))
    for signs, values in zip(iproduct((1.0, -1.0), repeat=d), reflected):
        weight = 1.0
        for k, s in enumerate(signs):
            if eta[k] == 1 and s < 0:
                weight = -weight
        total += weight * values
    return total / (2.0 ** d)


def parity_decompose(target):
    """Split a target on a symmetric cube into its 2^d parity components."""
    d = target.d
    return [ParityComponent(base=target, eta=eta)
            for eta in iproduct((0, 1), repeat=d)]


def parity_values(target, pts):
    """{eta: values of the eta parity component at pts} for every eta in
    {0, 1}^d, from one evaluation of the target per sign reflection."""
    reflected = _reflections(target, _as_points(pts, target.d))
    return {eta: _parity_sum(eta, reflected)
            for eta in iproduct((0, 1), repeat=target.d)}
