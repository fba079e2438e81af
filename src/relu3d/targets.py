"""Built-in catalog of analytically evaluable target functions.

A TargetSpec names a function (catalog id + parameters + dimension +
domain).  Targets are plain callables on (m, d) point arrays; catalog
entries additionally expose the structural facts the builders need
(closed-form power series, factorial derivative bounds, Gaussian
integrability).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .polynd import PolyND

__all__ = ["TargetSpec", "catalog_ids", "ParityComponent", "parity_decompose",
           "parity_values", "power_series_truncate", "finite_values"]

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


def _number(value):
    """True for an int or float; a bool is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TargetSpec:
    catalog_id: str = ""
    params: tuple = ()              # sorted (key, value) pairs
    d: int = 1
    domain: str = "unit-cube"

    @staticmethod
    def catalog(catalog_id, d=1, domain="unit-cube", **params):
        if catalog_id not in _CATALOG:
            raise KeyError(f"unknown catalog id {catalog_id!r}; "
                           f"known: {catalog_ids()}")
        if domain not in DOMAINS:
            raise KeyError(f"unknown domain {domain!r}")
        return TargetSpec(catalog_id=catalog_id,
                          params=tuple(sorted(params.items())), d=d,
                          domain=domain)

    @staticmethod
    def from_document(doc):
        """The TargetSpec of a target document; ValueError unless it is an
        object whose catalog_id and domain are strings, whose dimension is
        a whole number >= 1 and whose params are an object of numbers (a
        nan or inf parameter is left to the refusals of target values
        that are not finite, by finite_values in the builders and by the
        measurements)."""
        dim = doc.get("dimension", 1) if isinstance(doc, dict) else 0
        params = doc.get("params", {}) if isinstance(doc, dict) else None
        if not (_number(dim) and 1 <= dim <= sys.float_info.max
                and dim == int(dim) and isinstance(params, dict)
                and all(_number(v) for v in params.values())
                and all(isinstance(doc.get(k, ""), str)
                        for k in ("catalog_id", "domain"))):
            raise ValueError(f"a target document is an object with a string "
                             f"catalog_id and domain, a whole dimension >= 1 "
                             f"and params of numbers, not {doc!r:.60}")
        return TargetSpec.catalog(doc["catalog_id"], d=int(dim),
                                  domain=doc.get("domain", "unit-cube"),
                                  **params)

    def to_document(self):
        return {"catalog_id": self.catalog_id, "params": dict(self.params),
                "dimension": self.d, "domain": self.domain}

    # -- evaluation --------------------------------------------------------

    def __call__(self, pts):
        pts = _as_points(pts, self.d)
        if pts.shape[1] != self.d:
            raise ValueError(f"target expects dimension {self.d}")
        return _CATALOG[self.catalog_id]["fn"](pts, dict(self.params))

    # -- structural facts --------------------------------------------------

    @property
    def smooth_factorial(self):
        """True when |f^(n)| <= n! holds on the unit interval (catalog flag)."""
        return _CATALOG[self.catalog_id]["smooth_factorial"]

    @property
    def gauss_ok(self):
        """True when f is integrable enough against the Gaussian measure and
        a tail envelope is available."""
        return _CATALOG[self.catalog_id]["gauss_ok"]

    def series_coeffs(self, N):
        """Closed-form power-series coefficients truncated to degree N."""
        series = _CATALOG[self.catalog_id]["series"]
        if series is None:
            raise ValueError(f"target {self.catalog_id!r} has no closed-form "
                             f"series")
        return series(dict(self.params), N, self.d)

    def gauss_tail_sq(self, M):
        """Closed-ish form for int_{||x||_inf > M} f^2 dgamma_d (d = 1)."""
        # imported at its one use: scipy.integrate loads scipy.optimize,
        # special and linalg, which no other relu3d path needs
        from scipy import integrate
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


def power_series_truncate(target, N):
    """PolyND keeping the closed-form series terms with total degree <= N.

    Requires sum |a_j| <= 1 (over the full series), which gives the tail
    bound sup_{[0, 1-delta]^d} |f - P| <= (1 - delta)^N.
    """
    coeffs = target.series_coeffs(N)
    # the kept mass never exceeds the full-series mass; probe a margin past
    # N to catch targets whose total mass exceeds 1
    probe = target.series_coeffs(N + 8)
    if sum(abs(a) for a in probe.values()) > 1.0 + 1e-9:
        raise ValueError("series coefficient mass exceeds 1; rescale the "
                         "target so that sum |a_j| <= 1")
    return PolyND(d=target.d, coeffs=coeffs, degree=N)


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
        return _parity_sum(self.eta, _reflections(self.base, pts,
                                                  self.base.d))


def _as_points(pts, d):
    """pts as an (m, d) float array; a 1-d array is m points when d == 1
    and one point otherwise."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if d == 1 else pts[None, :]
    return pts


def finite_values(target, nodes):
    """target(nodes) as a float array.  A value that is not a finite number
    raises ValueError naming the first such value and its node; target may
    be any callable on (m, d) point arrays."""
    values = np.asarray(target(nodes), dtype=float)
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))
        raise ValueError(f"the target is {values[i]} at the node "
                         f"{nodes[i].tolist()}, not a finite number")
    return values


def _reflections(evaluate, pts, d):
    """evaluate(pts * signs) for each sign vector in {1, -1}^d, iproduct
    order."""
    return [evaluate(pts * np.array(signs))
            for signs in iproduct((1.0, -1.0), repeat=d)]


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
    {0, 1}^d, from one evaluation of the target per sign reflection.  A
    target value that is not finite raises ValueError (finite_values)."""
    reflected = _reflections(lambda p: finite_values(target, p),
                             _as_points(pts, target.d), target.d)
    return {eta: _parity_sum(eta, reflected)
            for eta in iproduct((0, 1), repeat=target.d)}
