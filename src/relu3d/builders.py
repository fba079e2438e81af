"""High-level constructors: one per approximation result.

Each builder assembles gadget blocks and expansion coefficients into a
Net3D and returns a BuildReport carrying the expected size metrics, the
error bound the construction guarantees, and a meta dict with the raw
ingredients (coefficients, derived parameters, and the stated closed-form
height for cross-checking).

Height convention: every builder derives the tower height H as the minimal
integer satisfying the block-level error inequality it needs, and records
the closed-form value ("stated_height" in meta) separately.  The derived
value is the one the network is built with and the one expected_metrics
reports.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from dataclasses import dataclass, field
from itertools import product as iproduct

import numpy as np

from .blocks import (_clip_wires, _fold_wire, _sym_prod_wires,
                     _unit_prod_bank, _unit_prod_wires, periodic_fold_net,
                     product_d_net)
from .builder_dsl import NetBuilder, Wire
from .chebyshev import chebyshev_tensor_coeffs
from .hermite import (check_support, hermite_expansion, hermite_poly_coeffs,
                      hermite_tail_bound)
from .net import (Net3D, SizeMetrics, _forward, _pack, chain, linear_combine,
                  metrics, parallel)
from .polynd import PolyND, exact_degree_indices, tensor_points
from .smoothness import modulus_smoothness
from .targets import TargetSpec, power_series_truncate
from .trig_operator import trig_operator_parts

__all__ = [
    "BuildReport",
    "build_poly1d",
    "build_polyNd",
    "build_smooth1d",
    "build_analytic_cube",
    "build_analytic_ellipse",
    "build_clipped_hermite",
    "choose_hermite_params",
    "HermiteParams",
    "build_hermite_gauss",
    "build_trig",
    "build_lp",
    "expected_size",
    "expected_bound",
    "Param",
    "Measure",
    "TheoremSpec",
    "THEOREMS",
    "THEOREM_IDS",
    "BASELINE_IDS",
]

LOG2E = math.log2(math.e)
LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass
class BuildReport:
    net: Net3D
    expected_metrics: SizeMetrics
    theoretical_bound: float
    bound_formula_id: str
    inputs: dict
    meta: dict = field(default_factory=dict)


def _finish_report(net, width_exp, depth_exp, height_exp, bound, formula_id,
                   inputs, meta):
    got = metrics(net)
    if got.depth != depth_exp or got.height != height_exp:
        raise AssertionError(
            f"built ({got.width},{got.depth},{got.height}), expected depth "
            f"{depth_exp} and height {height_exp} for {formula_id}")
    if got.width > width_exp:
        raise AssertionError(
            f"width {got.width} exceeds expected {width_exp} for {formula_id}")
    expected = SizeMetrics(width=width_exp, depth=depth_exp, height=height_exp,
                           neuron_count=got.neuron_count,
                           param_count=got.param_count)
    return BuildReport(net=net, expected_metrics=expected,
                       theoretical_bound=float(bound),
                       bound_formula_id=formula_id, inputs=inputs, meta=meta)


def _check_rounding(a, name, N, bound, stated):
    """ValueError when a chain's float sum of the monomials a may miss the
    bound (written as stated): trig chains measured off by 1.6 to 2.5 times
    2^-52 sum |a_k|."""
    rounding = 4.0 * 2.0 ** -52 * float(np.sum(np.abs(a)))
    if not rounding <= bound:
        raise ValueError(f"{name} = {N} is too large: the chain's float "
                         f"rounding of {rounding:.3g} exceeds the bound "
                         f"{stated}")


def _min_height(amount, budget):
    """Smallest integer H >= 1 with amount * 2^(-2(H+1)) <= budget;
    ValueError when amount / budget leaves the float range."""
    if budget <= 0:
        raise ValueError("error budget must be positive")
    if amount <= 0:
        return 1
    ratio = float(amount) / float(budget)   # inf, not a numpy warning
    if not math.isfinite(ratio):
        raise ValueError(f"the height for an error of {amount:.4g} within "
                         f"{budget:.4g} is out of the float range")
    H = max(1, math.ceil(0.5 * math.log2(ratio) - 1))
    while amount * 2.0 ** (-2 * (H + 1)) > budget:
        H += 1
    while H > 1 and amount * 2.0 ** (-2 * H) <= budget:
        H -= 1
    return H


def _chain(target, N, name, budget):
    """The power chain of the degree-(N + 1) Chebyshev interpolant of a
    target on [0, 1]: its monomial coefficients a, A = max_{k>=1} |a_k| and
    the minimal height H with A 3m^2 2^(-2(H+1)) <= budget.  ValueError
    when the chain's float rounding exceeds 2^-N."""
    m = N + 1
    a = chebyshev_tensor_coeffs(target, m, 1).coeff_vector_1d()
    _check_rounding(a, name, N, 2.0 ** -N, f"2^-{N}")
    A = max(abs(c) for c in a[1:])
    return a, A, _min_height(A * 3.0 * m * m, budget)


def _poly_amount(coeffs):
    """sum over |j| >= 2 of |a_j| 6 (|j| - 1): build_polyNd's error is this
    amount times 2^(-2(H+1))."""
    return sum(abs(a) * 6.0 * (sum(j) - 1)
               for j, a in coeffs.items() if sum(j) >= 2)


# ---------------------------------------------------------------------------
# accumulating power chains (width 8)


def _unit_chain(b, x_wire, coeffs, H, extra_acc=None,
                prod_wires=_unit_prod_wires):
    """Width-8 chain realizing sum_k coeffs[k] h_k + coeffs[0] on [0, 1].

    h_1 = x and h_k = prodhat(x, h_{k-1}); the running sum rides along as a
    sigma(+/-) pair on the first floor of every product layer.  extra_acc
    (a wire over the layer x_wire lives on) is folded into the accumulator.
    With prod_wires=_sym_prod_wires it is the symmetric chain on [-1, 1]
    (h_k ~ u^k via the [-1, 1]^2 product interpolant, per-layer height
    H + 1).  Requires len(coeffs) >= 3 (degree >= 2).
    """
    n = len(coeffs) - 1
    h = x_wire
    xw = x_wire
    acc = None
    for k in range(2, n + 1):
        L = b.layer()
        pre = coeffs[k - 1] * h
        if acc is not None:
            pre = pre + acc
        if k == 2 and extra_acc is not None:
            pre = pre + extra_acc
        prod, x_c, h_c, rw = prod_wires(L, xw, h, H, riders=[pre, -1.0 * pre])
        b.commit()
        acc = rw[0] - rw[1]
        xw, h = x_c, prod
    return acc + coeffs[n] * h + coeffs[0]


# ---------------------------------------------------------------------------
# polynomials


def build_poly1d(coeffs, H):
    """Network for p(x) = sum a_k x^k on [0, 1]; sizes (8, n-1, H) and sup
    error at most max_k |a_k| 3 n^2 2^(-2(H+1))."""
    a = [float(c) for c in coeffs]
    n = len(a) - 1
    H = int(H)
    if n < 1:
        raise ValueError("need degree n >= 1")
    bound = expected_bound("poly", {"amax": max(abs(c) for c in a[1:]),
                                    "n": n, "H": H})
    inputs = {"n": n, "H": H}
    if n == 1:
        net = Net3D(1, [], _pack(None, [{0: a[1]}], [a[0]]))
        return _finish_report(net, 0, 0, 0, bound, "poly1d", inputs,
                              {"note": "degree 1 is affine, no hidden layers"})
    if H < 1:
        raise ValueError("need H >= 1 for degree >= 2")
    b = NetBuilder(1)
    x = b.input(0)
    out = _unit_chain(b, x, a, H)
    net = b.finish([out])
    return _finish_report(net, 8, n - 1, H, bound, "poly1d", inputs,
                          {"coeffs": a})


def _first_nonzero(j):
    for i, v in enumerate(j):
        if v > 0:
            return i
    raise ValueError("zero multi-index has no factor")


def build_polyNd(poly, H):
    """Network for a d-variate polynomial on [0, 1]^d.

    Layer k emits the approximations h_j of every monomial of total degree
    k + 1 (each from a degree-k parent and one coordinate), so the depth is
    n - 1; the running coefficient sum and the coordinates ride along.
    """
    d, n = poly.d, poly.degree
    H = int(H)
    if n < 1:
        raise ValueError("need total degree n >= 1")
    width_exp = expected_size("polyNd", {"n": n, "H": H, "d": d}).width
    coeffs = dict(poly.coeffs)
    a0 = coeffs.get((0,) * d, 0.0)
    bound = _poly_amount(coeffs) * 2.0 ** (-2 * (H + 1))
    amax = max((abs(a) for j, a in coeffs.items() if sum(j) >= 1), default=0.0)
    stated = expected_bound("polyNd", {"amax": amax, "n": n, "H": H, "d": d})
    inputs = {"d": d, "n": n, "H": H}
    meta = {"stated_bound": stated, "coeffs": coeffs}
    if n == 1:
        row = {}
        for i in range(d):
            e = tuple(1 if q == i else 0 for q in range(d))
            if coeffs.get(e, 0.0) != 0.0:
                row[i] = coeffs[e]
        net = Net3D(d, [], _pack(None, [row], [a0]))
        meta["note"] = "degree 1 is affine, no hidden layers"
        return _finish_report(net, 0, 0, 0, bound, "polyNd", inputs, meta)
    if H < 1:
        raise ValueError("need H >= 1 for degree >= 2")
    b = NetBuilder(d)
    xs = [b.input(i) for i in range(d)]
    x_wires = list(xs)
    unit = lambda i: tuple(1 if q == i else 0 for q in range(d))
    prev = {unit(i): xs[i] for i in range(d)}
    acc = None
    new = prev
    for k in range(1, n):
        L = b.layer()
        pre = Wire.const(0.0)
        for j, w in prev.items():
            c = coeffs.get(j, 0.0)
            if c != 0.0:
                pre = pre + c * w
        if acc is not None:
            pre = pre + acc
        # one shared bank of product towers per layer: one per new monomial
        pairs, idx = [], []
        for j in exact_degree_indices(d, k + 1):
            i = _first_nonzero(j)
            parent = tuple(v - 1 if q == i else v for q, v in enumerate(j))
            pairs.append((x_wires[i], prev[parent]))
            idx.append(j)
        prods, _, rout = _unit_prod_bank(L, pairs, H,
                                         riders=[pre, -1.0 * pre] + x_wires)
        b.commit()
        new = dict(zip(idx, prods))
        acc = rout[0] - rout[1]
        x_wires = list(rout[2:])
        prev = new
    out = acc + a0
    for j, w in new.items():
        c = coeffs.get(j, 0.0)
        if c != 0.0:
            out = out + c * w
    net = b.finish([out])
    return _finish_report(net, width_exp, n - 1, H, bound, "polyNd", inputs,
                          meta)


def build_smooth1d(target, N):
    """Network within 2^-N of a smooth target on [0, 1], via the degree
    N + 1 Chebyshev interpolant.

    The certified bound requires |f^(n)| <= n! (catalog flag); without it
    the same construction is returned with the bound flagged empirical.
    """
    N = int(N)
    if N < 1:
        raise ValueError("need N >= 1")
    m = N + 1
    certified = bool(getattr(target, "smooth_factorial", False))
    interp = 2.0 ** (-2 * m - 1)
    a, A, H = _chain(target, N, "N", 2.0 ** (-N) - interp)
    inner = build_poly1d(a, H)
    stated_proof = math.ceil(0.5 * (math.log2(6) * m
                                    + 3 * math.log2(m + 1)
                                    + math.log2(3) - 1))
    meta = {
        "coeffs": list(a),
        "interpolation_bound": interp,
        "network_bound": A * 3.0 * m * m * 2.0 ** (-2 * (H + 1)),
        "stated_height": expected_size("smooth", {"N": N}).height,
        "stated_height_alt": stated_proof,
        "derivative_bound_certified": certified,
    }
    formula = "smooth1d" if certified else "smooth1d-empirical"
    return _finish_report(inner.net, 8, m - 1, H, 2.0 ** (-N), formula,
                          {"N": N, "H": H}, meta)


def build_analytic_cube(target, N, delta, d=1):
    """Network within 2 (1-delta)^N of an analytic target on [0, 1-delta]^d,
    from its truncated power series (requires sum |a_j| <= 1)."""
    N = int(N)
    delta = float(delta)
    if not 0 < delta < 1:
        raise ValueError("need 0 < delta < 1")
    if N < 1:
        raise ValueError("need N >= 1")
    if target.d != d:
        raise ValueError(f"d={d} disagrees with the target dimension "
                         f"{target.d}")
    poly = power_series_truncate(target, N)
    series = poly.coeffs
    tail = (1.0 - delta) ** N
    amount = _poly_amount(series)
    H = _min_height(amount, tail)
    inner = build_polyNd(poly, H)
    meta = {
        "series": series,
        "truncation_bound": tail,
        "network_bound": amount * 2.0 ** (-2 * (H + 1)),
        "stated_height": expected_size(
            "analytic-cube", {"N": N, "delta": delta, "d": d}).height,
        "domain_halfwidth": 1.0 - delta,
    }
    return _finish_report(inner.net, inner.expected_metrics.width,
                          inner.expected_metrics.depth,
                          inner.expected_metrics.height, 2.0 * tail,
                          "analytic-cube",
                          {"N": N, "delta": delta, "d": d, "H": H}, meta)


def build_analytic_ellipse(target, N, rho, d=1):
    """Network with geometric error decay rho^(-N/sqrt(d)) (up to a fitted
    constant) for a target with geometrically decaying Chebyshev tensor
    coefficients on [0, 1]^d."""
    N = int(N)
    rho = float(rho)
    if rho <= 2.0 ** math.sqrt(d):
        raise ValueError(f"need rho > 2^sqrt(d) = {2.0 ** math.sqrt(d):.4f}")
    poly = chebyshev_tensor_coeffs(target, N, d)
    shape = rho ** (-N / math.sqrt(d))
    _check_rounding(list(poly.coeffs.values()), "N", N, shape,
                    f"rho^(-N/sqrt(d)) = {shape:.3g}")
    amount = _poly_amount(poly.coeffs)
    H = _min_height(amount, shape)
    inner = build_polyNd(poly, H)
    meta = {
        "coeffs": dict(poly.coeffs),
        "max_abs_coeff": poly.meta["max_abs_coeff"],
        "stated_height": expected_size(
            "ellipse", {"N": N, "rho": rho, "d": d}).height,
        "shape": shape,
    }
    return _finish_report(inner.net, inner.expected_metrics.width,
                          inner.expected_metrics.depth,
                          inner.expected_metrics.height, shape,
                          "analytic-ellipse",
                          {"N": N, "rho": rho, "d": d, "H": H}, meta)


# ---------------------------------------------------------------------------
# Hermite


def build_clipped_hermite(n, M, delta, H):
    """Network for the clipped Hermite basis function: equal to an
    approximation of Xi_n on [-M+delta, M-delta], exactly zero outside
    [-M, M], linear interpolation in the transition bands.

    Sizes (8, n, H+1) for n >= 2; interior sup error at most
    (sqrt(6) M)^n 3 n^2 2^(-2(H+1)).
    """
    n = int(n)
    M = float(M)
    delta = float(delta)
    H = int(H)
    if M < 1:
        raise ValueError("need M >= 1")
    if not 0 < delta < M:
        raise ValueError("need 0 < delta < M")
    c = hermite_poly_coeffs(n)
    xi0 = float(c[0])
    b = NetBuilder(1)
    xi, chi = _clip_wires(b.layer(), b.input(0), M, delta)
    b.commit()
    sq6M = math.sqrt(6.0) * M
    bound = sq6M ** n * 3.0 * n * n * 2.0 ** (-2 * (H + 1)) if n >= 2 else 0.0
    inputs = {"n": n, "M": M, "delta": delta, "H": H}
    meta = {
        "coeffs": list(map(float, c)),
        "global_bound": 1.0 + sq6M ** n,
        "transition_bound": 1.0 + 2.0 * sq6M ** n,
        "stated_min_height": (n / 2.0) * math.log2(sq6M) + math.log2(3 * n) - 1
        if n >= 1 else 0.0,
    }
    if n == 0:
        net = b.finish([chi])
        return _finish_report(net, 4, 1, 1, bound, "clipped-hermite", inputs,
                              meta)
    if n == 1:
        net = b.finish([float(c[1]) * xi + xi0 * chi])
        return _finish_report(net, 4, 1, 1, bound, "clipped-hermite", inputs,
                              meta)
    if H < 1:
        raise ValueError("need H >= 1 for n >= 2")
    scaled = [float(c[k]) * M ** k for k in range(n + 1)]
    u = xi * (1.0 / M)
    out = _unit_chain(b, u, scaled, H, extra_acc=xi0 * chi,
                      prod_wires=_sym_prod_wires)
    # the chain contributes c[0] once; the clip correction subtracts Xi_n(0)
    net = b.finish([out - xi0])
    return _finish_report(net, 8, n, H + 1, bound, "clipped-hermite", inputs,
                          meta)


@dataclass(frozen=True)
class HermiteParams:
    M: float
    H: int
    delta: float
    H_star: float = 0.0
    B: float = 0.0
    delta_rule: float = 0.0
    stated_H: float = 0.0

    def __iter__(self):
        return iter((self.M, self.H, self.delta))


DELTA_FLOOR = 1e-4


def choose_hermite_params(n, B):
    """Window M, tower height H, and transition width delta so that the
    clipped basis function is within e^(-B sqrt(n)) of Xi_n in L^2 of the
    Gaussian measure.

    H is the ceiling of the real solution H* of
        (sqrt(6) M)^n 3 n^2 2^(-2(H+1)) = (3/5) e^(-B sqrt(n)).
    The closed-form delta rule 2 sqrt(delta) (1 + 2 (sqrt(6) M)^n)
    <= (1/10) e^(-B sqrt(n)) produces values far below double precision
    resolution for the clip slopes, so delta is floored at 1e-4; the band
    contribution it controls carries a factor e^(-(M-delta)^2/2) that the
    rule ignores, and the measured total stays within the target.
    """
    n = int(n)
    B = float(B)
    if n < 1 or B <= 0:
        raise ValueError("need n >= 1 and B > 0")
    M = math.sqrt(12.0 * n * math.log(6.0 * n) + 24.0 * B * math.sqrt(n))
    sq6M = math.sqrt(6.0) * M
    if n * math.log(sq6M) > LOG_FLOAT_MAX:
        raise ValueError(f"n = {n} is too large: (sqrt(6) M)^n = "
                         f"{sq6M:.4g}^{n} exceeds the float range")
    H_star = 0.5 * (n * math.log2(sq6M) + math.log2(5.0 * n * n)
                    + B * math.sqrt(n) * LOG2E) - 1.0
    H = max(1, math.ceil(H_star))
    log_rule = (-B * math.sqrt(n) - math.log(20.0)
                - math.log1p(2.0 * sq6M ** n))
    delta_rule = math.exp(2.0 * log_rule)
    delta = min(max(delta_rule, DELTA_FLOOR), M / 2.0)
    stated = (0.5 * n * math.log2(sq6M) + math.log2(1.25 * n)
              + 0.5 * B * math.sqrt(n) * LOG2E)
    return HermiteParams(M=M, H=H, delta=delta, H_star=H_star, B=B,
                         delta_rule=delta_rule, stated_H=stated)


def build_hermite_gauss(target, N, d=1, beta=(1.0,)):
    """Gaussian-L^2 approximation of a target by a truncated expansion in
    clipped Hermite basis networks; error e^(-B sqrt(N)) up to a fitted
    constant, B = (prod beta_j)^(1/d) / sqrt(2)."""
    N = int(N)
    d = int(d)
    beta = tuple(float(v) for v in beta)
    if len(beta) != d:
        raise ValueError("need one beta per dimension")
    if not getattr(target, "gauss_ok", False):
        raise ValueError("target lacks a Gaussian integrability certificate")
    B = math.prod(beta) ** (1.0 / d) / math.sqrt(2.0)
    params = choose_hermite_params(N, B)
    M, H, delta = params.M, params.H, params.delta
    bound = expected_bound("hermite", {"N": N, "B": B})
    R = 1.0 + 2.0 * (math.sqrt(6.0) * M) ** N
    if d > 1:
        # the product net below needs the height for 6 (d - 1) R^d / bound
        log_amount = math.log(6.0 * (d - 1)) + d * math.log(R)
        if log_amount - min(0.0, math.log(bound)) > LOG_FLOAT_MAX:
            raise ValueError(f"N = {N} is too large for d = {d}: the "
                             f"product range R^d = {R:.4g}^{d} exceeds the "
                             f"float range")
    exp = hermite_expansion(target, N, d=d)
    basis = {nu: build_clipped_hermite(nu, M, delta, H).net
             for nu in range(N + 1)}
    meta = {
        "params": params,
        "coeffs": dict(exp.coeffs),
        "support": M,
        "tail_envelope": hermite_tail_bound(N, M),
    }
    inputs = {"N": N, "d": d, "beta": beta, "H": H, "delta": delta}
    terms = [(exp.coeffs[nu], [basis[v] for v in nu])
             for nu in iproduct(range(N + 1), repeat=d)]
    if d == 1:
        net = _tensor_sum(terms, 0.0, d, None, None)
        # gauss_l2_error measures only a net that vanishes outside M.  The
        # check runs _forward, not evaluate_array, so that a forward-pass
        # trace counts the measurement's points only
        try:
            check_support(lambda pts: _forward(net, pts.T), M)
        except ValueError as exc:
            raise ValueError(f"N = {N} is too large for d = 1: the built "
                             f"{exc}") from None
        width_exp = expected_size("hermite", {"N": N, "d": d, "B": B}).width
        height_exp = H + 1 if N >= 2 else 1
        return _finish_report(net, width_exp, N + d - 1, height_exp, bound,
                              "hermite-gauss", inputs, meta)
    # d >= 2: per-index product of one-dimensional basis networks
    Hp = _min_height(6.0 * (d - 1) * R ** d, bound)
    meta["product_height"] = Hp
    meta["product_range"] = R
    net = _tensor_sum(terms, 0.0, d, Hp, R)
    got = metrics(net)
    return _finish_report(net, got.width, N + d - 1, got.height, bound,
                          "hermite-gauss", inputs, meta)


def _tensor_sum(terms, const, d, H, M):
    """Net for const + sum of coeff * prod_q factors[q](x_q) over the terms
    (coeff, factors).  With d = 1 the one factor net is used alone; with
    d >= 2 the factors run in parallel under one [-M, M]^d product net of
    height H.  No terms give the constant net."""
    if not terms:
        return Net3D(d, [], _pack(None, [{}], [const]))
    if d == 1:
        nets = [factors[0] for _, factors in terms]
    else:
        prod = product_d_net(d, H, M=M)
        nets = [chain(prod, parallel(factors)) for _, factors in terms]
    return linear_combine(nets, [c for c, _ in terms], const)


# ---------------------------------------------------------------------------
# trigonometric


def _cos_chain(N2, budget):
    """Chebyshev coefficients of cos(pi t) on [0, 1] at degree N2 + 1, the
    minimal chain height meeting the budget, and the interpolation error."""
    m = N2 + 1
    if math.lgamma(m + 2) > LOG_FLOAT_MAX:
        raise ValueError(f"N2 = {N2} is too large: the interpolation bound's "
                         f"{m + 1}! exceeds the float range")
    interp = math.pi ** (m + 1) / (2.0 ** (2 * m + 1) * math.factorial(m + 1))
    a, _, H = _chain(lambda pts: np.cos(math.pi * pts[:, 0]), N2, "N2",
                     budget - interp)
    return tuple(map(float, a)), H, interp


def _chain_nets():
    """A memo of build_poly1d chain nets by (coefficients, height): the
    folds of one build share each chain net, and the memo lives only as
    long as that build."""
    return functools.lru_cache(maxsize=None)(
        lambda a, H: build_poly1d(a, H).net)


def _sin_fold(k, sign):
    """Fold of one odd branch: |k t - 1/2| through sp tent floors at
    t = sigma(sign * x), so that the cosine chain after it approximates
    sin(k pi t)."""
    sp = max(0, math.ceil(math.log2(k - 0.5)))
    b = NetBuilder(1)
    L = b.layer()
    t = L.floor().neuron(sign * b.input(0))
    g = _fold_wire(L, k * t - 0.5, sp, 1.0 / 2 ** sp)
    b.commit()
    return b.finish([g])


def build_trig(k, N2, kind="cos"):
    """Network within 2^-N2 of cos(k pi x) or sin(k pi x) on [-1, 1].

    Each is the cosine polynomial chain composed with a fold.  The cosine
    folds |x| through a sawtooth (periodic_fold_net, width 8); the sine is
    the difference of two mirrored branches evaluated at sigma(x) and
    sigma(-x) (width 16, exactly zero at the origin).
    """
    return _build_trig(k, N2, kind, _chain_nets())


def _build_trig(k, N2, kind, chain_net):
    """build_trig with the chain nets taken from chain_net(a, H)."""
    k = int(k)
    N2 = int(N2)
    if k < 1 or N2 < 1:
        raise ValueError("need k >= 1 and N2 >= 1")
    if kind not in ("cos", "sin"):
        raise ValueError(f"unknown kind {kind!r}")
    bound = expected_bound("trig", {"N2": N2})
    inputs = {"k": k, "N2": N2, "kind": kind}
    if kind == "cos":
        a, H, interp = _cos_chain(N2, bound)
        net = chain(chain_net(a, H), periodic_fold_net(k))
        fold_h = max(0, math.ceil(math.log2(k))) + 1
        width = 8
    else:
        a, H, interp = _cos_chain(N2, bound / 2.0)
        net = linear_combine([chain(chain_net(a, H), _sin_fold(k, 1.0)),
                              chain(chain_net(a, H), _sin_fold(k, -1.0))],
                             [1.0, -1.0], 0.0)
        fold_h = max(0, math.ceil(math.log2(k - 0.5))) + 2
        width = 16
    meta = {"chain_coeffs": list(a), "chain_height": H,
            "interpolation_bound": interp,
            "stated_height": expected_size("trig", inputs).height}
    return _finish_report(net, width, N2 + 1, max(H, fold_h), bound,
                          f"trig-{kind}", inputs, meta)


def _const_one_net():
    """Scalar net that outputs 1 for any input (one dead-weight neuron)."""
    b = NetBuilder(1)
    one = b.layer().floor().neuron(Wire.const(1.0))
    b.commit()
    return b.finish([one])


# ---------------------------------------------------------------------------
# L^p


DROP_TOL = 1e-12


def build_lp(target, N1, N2, r=2, d=1):
    """L^p approximation on [-1, 1]^d: parity components of the target are
    expanded by the kernel trigonometric operator of degree N1, and each
    phase-shifted cosine is realized by a 2^-N2-accurate network; for d > 1
    the factors are combined with the [-2, 2]^d product net at height N1.

    Coefficients below DROP_TOL (relative to the largest) are dropped; the
    dropped mass is recorded in meta.
    """
    N1 = int(N1)
    N2 = int(N2)
    r = int(r)
    d = int(d)
    if N1 < r:
        raise ValueError("need N1 >= r")
    # the chains refuse an N2 they cannot meet before any expansion work
    a_cos, H_cos, _ = _cos_chain(N2, 2.0 ** (-N2))
    _, H_sin, _ = _cos_chain(N2, 2.0 ** (-N2) / 2.0)
    expansions = trig_operator_parts(target, N1, r, d)
    terms = []
    const = 0.0
    scale = max((abs(aj) for _, tc in expansions for aj in tc.a.values()),
                default=0.0)
    dropped = 0.0
    for eta, tc in expansions:
        for j, aj in sorted(tc.a.items()):
            if any(j[q] == 0 and eta[q] == 1 for q in range(d)):
                continue  # a sine factor at frequency 0 vanishes identically
            if abs(aj) <= DROP_TOL * scale:
                dropped += abs(aj)
                continue
            terms.append((eta, j, aj))

    chain_net = _chain_nets()

    @functools.lru_cache(maxsize=None)
    def psi(jk, eta):
        if jk == 0:
            return _const_one_net()
        return _build_trig(jk, N2, "cos" if eta == 0 else "sin",
                           chain_net).net

    factored = []
    for eta, j, aj in terms:
        if d == 1 and j[0] == 0:
            const += aj  # cos(0) = 1
        else:
            factored.append((aj, [psi(j[q], eta[q]) for q in range(d)]))
    net = _tensor_sum(factored, const, d, N1, 2.0)
    got = metrics(net)
    omega = modulus_smoothness(target, r, 1.0 / N1, p=2, d=d)
    norm = _l2_norm(target, d)
    inputs = {"N1": N1, "N2": N2, "r": r, "d": d}
    shape = expected_bound("lp", dict(inputs, omega=omega, norm=norm))
    stated = expected_size("lp", inputs)
    meta = {
        "terms": terms,
        "constant": const,
        "dropped_mass": dropped,
        "chain_coeffs": list(a_cos),
        "chain_H_cos": H_cos,
        "chain_H_sin": H_sin,
        "omega_r": omega,
        "target_l2": norm,
        "stated_width": stated.width,
        "stated_height": stated.height,
        "product_height": N1 if d > 1 else None,
    }
    return _finish_report(net, got.width, got.depth, got.height, shape,
                          "lp-shape-p2", inputs, meta)


def _l2_norm(target, d):
    n = 512 if d == 1 else 96
    u = -1.0 + 2.0 * (np.arange(n) + 0.5) / n
    vals = np.asarray(target(tensor_points([u] * d)), dtype=float)
    return float(math.sqrt(np.mean(vals ** 2) * 2.0 ** d))


# ---------------------------------------------------------------------------
# theorem registry: per result, its construction, parameters, stated size
# and bound, measurement and baseline


class _Strict(dict):
    """A dict whose missing keys raise KeyError("<what> '<key>'")."""

    def __init__(self, items, what):
        super().__init__(items)
        self.what = what

    def __missing__(self, key):
        raise KeyError(f"{self.what} {key!r}")


_REQUIRED = object()


def _floats(value):
    """Floats from a sequence or from a comma-separated string."""
    if isinstance(value, str):
        value = [v for v in value.split(",") if v != ""]
    return [float(v) for v in value]


def _polynd(value):
    """A PolyND as given, or from a {"[j1, ..., jd]": coeff} document."""
    if isinstance(value, PolyND):
        return value
    coeffs = {tuple(int(i) for i in json.loads(k)): float(v)
              for k, v in value.items()}
    degree = max(sum(j) for j in coeffs)
    return PolyND(len(next(iter(coeffs))), coeffs, degree)


@dataclass(frozen=True)
class Param:
    """A typed theorem parameter.

    kind coerces a given value (int, float or a function); a tuple kind
    lists the allowed values, which the builder checks; None keeps the
    value.  A callable default is computed from the parameters normalized
    before this one.  flag: "build" makes it a flag of `relu3d build` and
    `relu3d sweep`, "sweep" of sweep only, "" of neither.  alias is a
    second accepted key.
    """

    name: str
    kind: object = None
    default: object = _REQUIRED
    flag: str = "build"
    alias: str = None

    def coerce(self, value):
        if value is None or not callable(self.kind):
            return value
        try:
            return self.kind(value)
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ValueError(f"bad value {value!r} for {self.name}: "
                             f"{exc}") from exc


@dataclass(frozen=True)
class Measure:
    """How verify measures a build: norm kind ("sup", "lp" or "gauss"),
    target (the name of one of verify's target sources) and domain
    (lo, hi).  A str end names the BuildReport.meta entry that holds it.
    The gauss norm integrates over the whole line and reads the support of
    the clipped network from meta["support"]."""

    norm: str
    target: str
    domain: tuple = (0.0, 1.0)


@dataclass(frozen=True)
class TheoremSpec:
    """One approximation result.

    builder is the construction; build calls it with the normalized
    parameters its argument names.  size and bound are the stated
    formulas: their argument names are the stated quantities they read
    (see expected_size).  sweep_param is the parameter a sweep
    varies by default; paper_sweep, if any, is the sweep the paper reports:
    (values of sweep_param, fixed parameters).  baseline names the plain-2D
    row of the comparison table, if any.
    """

    id: str
    builder: object
    params: tuple
    sweep_param: str
    size: object
    bound: object
    measure: Measure
    baseline: str = None
    paper_sweep: tuple = field(default=None, hash=False)

    def normalize(self, params):
        """Typed parameters from a user dict: aliases resolved, values
        coerced, defaults filled in and d taken from the target.  Keys the
        theorem does not use are dropped."""
        given = dict(params)
        dim = getattr(given.get("target"), "d", None)
        if dim is not None and given.setdefault("d", dim) != dim:
            raise ValueError(f"d={given['d']} disagrees with the target "
                             f"dimension {dim}")
        p = {}
        for prm in self.params:
            value = given.get(prm.name, given.get(prm.alias, _REQUIRED))
            if value is _REQUIRED:
                value = prm.default(p) if callable(prm.default) \
                    else prm.default
            if value is _REQUIRED:
                also = f" (or {prm.alias!r})" if prm.alias else ""
                raise KeyError(f"missing parameter {prm.name!r}{also}")
            p[prm.name] = prm.coerce(value)
        return p

    def build(self, params):
        """The BuildReport of normalized parameters."""
        return _stated(self.builder, params)


def _stated(formula, params):
    """Evaluate a formula on the parameters its argument names."""
    try:
        args = [params[n] for n in inspect.signature(formula).parameters]
    except KeyError as exc:
        raise KeyError(f"missing parameter {exc.args[0]!r}") from exc
    return formula(*args)


def _poly_width(n, d):
    return math.ceil(d + 1 + 6.0 * (math.e * (n + d) / d) ** d)


def _chain_height(N2):
    return N2 + 1 + math.ceil(math.log2(N2 + 1) + 0.5 * math.log2(3))


def _hermite_size(N, d, B):
    inner = 1.0 + 6.0 * math.sqrt(2.0 * N * math.log(6.0 * N)
                                  + 4.0 * B * math.sqrt(N))
    return (max(8 * N * d, N ** d * (4 + d)), N + d - 1,
            math.ceil(0.5 * d * N * math.log2(inner) + math.log2(1.25 * N)
                      + 0.5 * B * LOG2E * math.sqrt(N)))


_TARGET = Param("target", flag="")
_D = Param("d", int, flag="")

THEOREMS = _Strict(((t.id, t) for t in (
    TheoremSpec(
        "poly", build_poly1d,
        (Param("coeffs", _floats), Param("H", int)), "H",
        size=lambda n, H: (8, n - 1, H),
        bound=lambda amax, n, H: amax * 3.0 * n * n * 2.0 ** (-2 * (H + 1)),
        measure=Measure("sup", "coeffs"), baseline="baseline-poly",
        paper_sweep=(range(1, 13), {"coeffs": [0.0, 0.0, 1.0]})),
    TheoremSpec(
        "polyNd", build_polyNd,
        (Param("poly", _polynd, flag="", alias="coeffs_nd"),
         Param("H", int)), "H",
        size=lambda n, H, d: (_poly_width(n, d), n - 1, H),
        bound=lambda amax, n, H, d: (amax * 6.0 * n * 2.0 ** (-2 * (H + 1))
                                     * (math.e * (n + d) / d) ** d),
        measure=Measure("sup", "poly"), baseline="baseline-poly"),
    TheoremSpec(
        "smooth", build_smooth1d,
        (_TARGET, Param("N", int)), "N",
        size=lambda N: (8, N, math.ceil(0.5 * (math.log2(6) * N
                                               + 3 * math.log2(N + 2)
                                               + 2 * math.log2(3)))),
        bound=lambda N: 2.0 ** (-N),
        measure=Measure("sup", "target"),
        paper_sweep=(range(2, 11),
                     {"target": TargetSpec.catalog("reciprocal-shift")})),
    TheoremSpec(
        "analytic-cube", build_analytic_cube,
        (_TARGET, Param("N", int), Param("delta", float), _D), "N",
        size=lambda N, delta, d: (
            _poly_width(N, d), N - 1,
            math.ceil(0.5 * (math.log2(N) + N * math.log2(1 - delta)
                             + d * math.log2(N + d)
                             - d * math.log2(d / math.e) - math.log2(6) - 2))),
        bound=lambda N, delta: 2.0 * (1.0 - delta) ** N,
        measure=Measure("sup", "target", (0.0, "domain_halfwidth")),
        baseline="baseline-analytic",
        paper_sweep=(range(2, 11), {
            "target": TargetSpec.catalog("geometric-product", d=1),
            "delta": 0.5})),
    TheoremSpec(
        "ellipse", build_analytic_ellipse,
        (_TARGET, Param("N", int), Param("rho", float), _D), "N",
        size=lambda N, rho, d: (
            _poly_width(N, d), N - 1,
            math.ceil(0.5 * (d * math.log2((N + 1) * (math.e * (N + d) / d))
                             + math.log2(6 * N)
                             + (N / math.sqrt(d)) * math.log2(rho) - 2))),
        bound=lambda N, rho, d: rho ** (-N / math.sqrt(d)),
        measure=Measure("sup", "target"), baseline="baseline-ellipse",
        paper_sweep=(range(4, 17, 2), {
            "target": TargetSpec.catalog("reciprocal-shift"), "rho": 4.0})),
    TheoremSpec(
        "hermite", build_hermite_gauss,
        (_TARGET, Param("N", int), _D,
         Param("beta", _floats, lambda p: (1.0,) * p["d"], flag="")), "N",
        size=_hermite_size,
        bound=lambda N, B: math.exp(-B * math.sqrt(N)),
        measure=Measure("gauss", "target", (None, None)),
        baseline="baseline-hermite",
        paper_sweep=(range(2, 11), {
            "target": TargetSpec.catalog("cosine", domain="gaussian-line")})),
    TheoremSpec(
        "trig", build_trig,
        (Param("k", int), Param("N2", int),
         Param("kind", ("cos", "sin"), "cos")), "N2",
        size=lambda k, N2: (8, N2 + 1, max(_chain_height(N2),
                                           math.ceil(math.log2(k))
                                           if k > 1 else 0)),
        bound=lambda N2: 2.0 ** (-N2),
        measure=Measure("sup", "trig", (-1.0, 1.0)),
        paper_sweep=(range(6, 17, 2), {"k": 3, "kind": "cos"})),
    TheoremSpec(
        "lp", build_lp,
        (_TARGET, Param("N1", int), Param("N2", int), Param("r", int, 2), _D,
         Param("p", float, 2.0, flag="sweep")), "N1",
        size=lambda N1, N2, d: (max(8 * N1 * d, N1 ** d * (4 + d)), N2 + d,
                                max(_chain_height(N2),
                                    math.ceil(math.log2(N1)))),
        bound=lambda omega, norm, N1, N2, r, d: (
            r ** d * omega + 1.5 * d * norm * (4.0 * N1) ** d * 2.0 ** (-N2)),
        measure=Measure("lp", "target", (-1.0, 1.0)),
        paper_sweep=((4, 8, 12, 16, 24), {
            "target": TargetSpec.catalog("abs-power", domain="sym-cube"),
            "N2": 20, "p": 2})),
)), "unknown theorem id")

THEOREM_IDS = tuple(THEOREMS)

# plain-2D comparison rows: id -> (size formula, bound formula)
BASELINES = {
    "baseline-poly": (lambda N: (1, N, 1), lambda N: 2.0 ** (-N)),
    "baseline-analytic": (lambda N, d: (1, N ** (2 * d), 1),
                          lambda N, delta: (1.0 - delta) ** N),
    "baseline-ellipse": (lambda N, d: (N ** (d + 2), N * N, 1),
                         lambda N: 2.0 ** (-N)),
    "baseline-hermite": (
        lambda N: (0, math.ceil(N * math.log2(max(N, 2)) ** 2), 1),
        lambda N: math.exp(-N ** (1.0 / 3.0))),
}

BASELINE_IDS = tuple(BASELINES)

_FORMULAS = _Strict(
    [(t.id, (t.size, t.bound)) for t in THEOREMS.values()]
    + list(BASELINES.items()), "unknown theorem id")


def expected_size(theorem_id, params):
    """Stated (width, depth, height) for a result id, as a SizeMetrics with
    zero neuron/parameter counts; baseline-* ids give the corresponding
    plain-2D formulas for comparison tables."""
    w, k, h = _stated(_FORMULAS[theorem_id][0], params)
    return SizeMetrics(width=int(w), depth=int(k), height=int(h),
                       neuron_count=0, param_count=0)


def expected_bound(theorem_id, params):
    """Stated error bound for a result id (fitted-constant shape where the
    statement's constant is existential)."""
    return _stated(_FORMULAS[theorem_id][1], params)
