"""Measurement harnesses: norm errors, bound checks, sweeps, and size tables.

All measurements are grid or quadrature based.  Sup errors use a dense grid
whose step divides the dyadic breakpoint lattice of the gadget networks,
plus one local refinement pass around the arg-max.  L^p errors use tensor
Gauss-Legendre panels; Gaussian L^2 errors use composite Gauss-Legendre
panels against the normal density plus a closed-form tail term.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import builders
from .builders import expected_bound, expected_size
from .net import evaluate_array, flatten_to_2d, metrics
from .polynd import gauss_panels, tensor_points
from .targets import DOMAINS, TargetSpec
from .twins import lp_net_twin, lp_net_twin_grid, spot_check

__all__ = [
    "ErrorReport",
    "SweepRow",
    "SweepTable",
    "FitResult",
    "sup_error",
    "lp_error",
    "lp_errors",
    "gauss_l2_error",
    "sweep",
    "fit_and_check",
    "table1_report",
    "TABLE1",
]

PASS_SLACK = 1e-9
SUP_POINT_CAP = 4_000_000
LP_NODES = {1: 2048, 2: 2048, 3: 256}
GAUSS_NODE_CAP = 4_000_000


@dataclass
class ErrorReport:
    norm_kind: str                 # "sup", "lp(p)", or "gauss-l2"
    measured: float
    bound: float
    resolution: dict
    passed: bool = field(init=False)
    fitted_constant: float = None

    def __post_init__(self):
        self.measured = float(self.measured)
        if not math.isfinite(self.measured):
            raise ValueError(f"the measured {self.norm_kind} error is "
                             f"{self.measured}, not a finite number")
        self.bound = float(self.bound)
        self.passed = self.measured <= self.bound * (1.0 + PASS_SLACK)

    def to_document(self):
        return {"norm_kind": self.norm_kind, "measured": self.measured,
                "bound": self.bound, "resolution": dict(self.resolution),
                "pass": self.passed, "fitted_constant": self.fitted_constant}


@dataclass(frozen=True)
class SweepRow:
    value: float
    measured: float
    bound: float
    param_count: int
    width: int
    depth: int
    height: int
    extra: tuple = ()              # sorted (key, value) pairs

    def as_dict(self):
        out = {"value": self.value, "measured": self.measured,
               "bound": self.bound, "param_count": self.param_count,
               "width": self.width, "depth": self.depth,
               "height": self.height}
        out.update(dict(self.extra))
        return out


@dataclass
class SweepTable:
    parameter: str
    rows: list

    def __post_init__(self):
        if not self.rows:
            raise ValueError("sweep table must be nonempty")
        self.rows = sorted(self.rows, key=lambda r: r.value)

    def to_csv(self, path):
        base = ["value", "measured", "bound", "param_count", "width",
                "depth", "height"]
        extra = sorted({k for r in self.rows for k, _ in r.extra})
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["parameter"] + base + extra)
            for r in self.rows:
                d = r.as_dict()
                w.writerow([self.parameter] + [d.get(c, "") for c in
                                               base + extra])
        return path


# ---------------------------------------------------------------------------
# domains and grids


def _domain_bounds(domain):
    """(lo, hi) per coordinate from a DOMAINS key or an explicit pair."""
    if isinstance(domain, str):
        lo, hi = DOMAINS[domain]
    else:
        lo, hi = domain
    if lo is None or hi is None:
        raise ValueError("measurement needs a bounded domain")
    return float(lo), float(hi)


def _abs_diff(net, target, pts):
    got = np.asarray(evaluate_array(net, pts), dtype=float)
    want = np.asarray(target(pts), dtype=float)
    return np.abs(got - want)


# ---------------------------------------------------------------------------
# norm measurements


def sup_error(net, target, domain, base_resolution=None, bound=math.inf):
    """Sup-norm error of a network against a target on a bounded cube.

    The base grid has 2^(H+4) + 1 points per dimension (H the network
    height), so it contains every dyadic breakpoint of the tent gadgets and
    their cell midpoints; the total is capped at 4e6 points (ValueError if
    that leaves fewer than 2 per axis).  One local refinement pass with the
    step halved four times runs around the arg-max.
    """
    lo, hi = _domain_bounds(domain)
    d = net.input_dim
    H = metrics(net).height
    n_side = base_resolution or (2 ** (H + 4) + 1)
    too_wide = d >= SUP_POINT_CAP.bit_length()  # 2^d > SUP_POINT_CAP
    while not too_wide and n_side ** d > SUP_POINT_CAP:
        n_side = (n_side - 1) // 2 + 1
    if too_wide or n_side < 2:
        raise ValueError(f"fewer than 2 points per axis of a sup grid over "
                         f"{d} inputs fit its cap of {SUP_POINT_CAP}")
    axis = np.linspace(lo, hi, n_side)
    pts = tensor_points([axis] * d)
    err = _abs_diff(net, target, pts)
    i = int(np.argmax(err))
    best = float(err[i])
    # refinement: a 33-point-per-axis window around the arg-max with the
    # step halved four times
    step = (hi - lo) / (n_side - 1)
    center = pts[i]
    local_axes = [np.clip(np.linspace(c - step, c + step, 33), lo, hi)
                  for c in center]
    local = tensor_points(local_axes)
    best = max(best, float(np.max(_abs_diff(net, target, local))))
    res = {"kind": "dense-grid", "points_per_dim": int(n_side), "d": d,
           "domain": [lo, hi], "refined": True}
    return ErrorReport(norm_kind="sup", measured=best, bound=bound,
                       resolution=res)


def lp_error(net, target, p, domain, bound=math.inf, eval_grid_fn=None):
    """L^p error by tensor 8-point Gauss-Legendre panels on a bounded cube:
    lp_errors for the one exponent p."""
    return lp_errors(net, target, (p,), domain, bound=bound,
                     eval_grid_fn=eval_grid_fn)[0]


def lp_errors(net, target, ps, domain, bound=math.inf, eval_grid_fn=None):
    """L^p errors for each p in ps by tensor 8-point Gauss-Legendre panels
    on a bounded cube, from one evaluation on the nodes.  Returns one
    ErrorReport per p, in the order of ps.

    p = inf delegates to sup_error.  For large tensor grids an
    eval_grid_fn(axes) -> values array (tensor shape) can replace pointwise
    network evaluation; agreement with the network is the caller's contract
    (see twins.spot_check).  ValueError when some p is not at least 1,
    when the target is not finite at a panel edge, or when the weighted sum
    of |error|^p is not finite or is 0 while some error is not.
    """
    ps = [p if p == math.inf else float(p) for p in ps]
    for p in ps:
        if not p >= 1.0:
            raise ValueError(f"need 1 <= p <= inf, got p = {p}")
    if any(p != math.inf for p in ps):
        lo, hi = _domain_bounds(domain)
        d = net.input_dim
        n = LP_NODES.get(d, 256)
        # composite Gauss-Legendre: 8th-order panels so smooth integrands
        # converge far below the pass slack
        order = 8
        panels = max(1, n // order)
        axis, w_axis = _gauss_panels(lo, hi, panel_width=(hi - lo) / panels,
                                     order=order)
        # the nodes miss a pole at a panel edge (both ends, and 0 on the
        # symmetric cube), so the target is checked there as well
        edges = tensor_points([np.linspace(lo, hi, panels + 1)] * d)
        at_edges = np.asarray(target(edges), dtype=float)
        if not np.isfinite(at_edges).all():
            i = int(np.argmin(np.isfinite(at_edges)))
            raise ValueError(f"the target is {at_edges[i]} at the panel edge "
                             f"{edges[i].tolist()}, not a finite number")
        axes = [axis] * d
        pts = tensor_points(axes)
        want = np.asarray(target(pts), dtype=float)
        if eval_grid_fn is not None:
            got = np.asarray(eval_grid_fn(axes), dtype=float).reshape(-1)
        else:
            got = np.asarray(evaluate_array(net, pts), dtype=float)
        w = w_axis
        for _ in range(d - 1):
            w = np.multiply.outer(w, w_axis)
        w = w.ravel()
        err = np.abs(got - want)
    reports = []
    for p in ps:
        if p == math.inf:
            reports.append(sup_error(net, target, domain, bound=bound))
            continue
        with np.errstate(over="ignore"):   # an overflow is refused below
            power_sum = np.sum(w * err ** p)
        if not (math.isfinite(power_sum) and (power_sum > 0 or not err.any())):
            raise ValueError(f"the weighted sum of |error|^{p:g} is "
                             f"{power_sum}, so the L^{p:g} error cannot be "
                             f"measured in floats")
        res = {"kind": "tensor-gauss-panels", "nodes_per_dim": int(axis.size),
               "d": d, "domain": [lo, hi], "p": p,
               "evaluator": "grid" if eval_grid_fn is not None
               else "pointwise"}
        reports.append(ErrorReport(norm_kind=f"lp({p:g})",
                                   measured=float(power_sum ** (1.0 / p)),
                                   bound=bound, resolution=res))
    return reports


def _gauss_panels(lo, hi, panel_width=0.25, order=16):
    """Composite Gauss-Legendre nodes and weights on [lo, hi] in panels of
    at most panel_width; more than GAUSS_NODE_CAP nodes raise ValueError."""
    panels = (hi - lo) / panel_width
    if not panels * order <= GAUSS_NODE_CAP:
        raise ValueError(f"[{lo}, {hi}] needs about {panels * order:.3g} "
                         f"quadrature nodes, over the cap of {GAUSS_NODE_CAP}")
    return gauss_panels(lo, hi, max(1, int(math.ceil(panels))), order)


GAUSS_PANEL_ORDER = 16


def gauss_l2_error(net, target, M_support, bound=math.inf):
    """L^2 error against the standard Gaussian measure on the line.

    The network must vanish outside [-M_support, M_support] (the clipped
    construction guarantees this); the interior integral runs over
    [-M-2, M+2] by Gauss-weighted composite panels and the tail adds the
    target's own mass outside, from its catalog closed form.  Unknown tails
    are rejected rather than guessed, and so are a negative support and a
    support whose panels would hold more than GAUSS_NODE_CAP nodes.
    """
    if net.input_dim != 1:
        raise NotImplementedError("Gaussian-norm measurement is univariate")
    M = float(M_support)
    if M < 0:   # nan goes on to the node cap, which refuses it
        raise ValueError(f"the support must be nonnegative, got {M}")
    x, w = _gauss_panels(-M - 2.0, M + 2.0, order=GAUSS_PANEL_ORDER)
    probe = np.array([[-M - 2.0], [-M - 1.0], [-M - 0.25],
                      [M + 0.25], [M + 1.0], [M + 2.0]])
    outside = np.max(np.abs(evaluate_array(net, probe)))
    # 1e-6 tolerates rounding dust from large clipped-basis coefficients
    # while still rejecting anything with real mass outside the window
    if outside > 1e-6:
        raise ValueError(
            f"network does not vanish outside [-{M}, {M}] (|value| up to "
            f"{outside:.2e}); clip it to compact support first")
    if not hasattr(target, "gauss_tail_sq"):
        raise ValueError("target has no Gaussian tail envelope")
    tail_sq = target.gauss_tail_sq(M + 2.0)
    diff = _abs_diff(net, target, x[:, None])
    density = np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    interior = math.fsum(w * density * diff ** 2)
    measured = math.sqrt(max(interior, 0.0) + float(tail_sq))
    res = {"kind": "gauss-panels", "panel_order": GAUSS_PANEL_ORDER,
           "window": [-M - 2.0, M + 2.0], "tail_sq": float(tail_sq)}
    return ErrorReport(norm_kind="gauss-l2", measured=measured, bound=bound,
                       resolution=res)


# ---------------------------------------------------------------------------
# sweeps and fitted constants

def _poly1d_target(coeffs):
    c = np.asarray(coeffs, dtype=float)
    return lambda pts: np.polynomial.polynomial.polyval(
        np.asarray(pts, dtype=float)[:, 0], c)


def _trig_target(p):
    k, fn = p["k"], getattr(np, p["kind"])
    return lambda pts: fn(k * math.pi * np.asarray(pts, dtype=float)[:, 0])


# target sources a registry Measure names: normalized params -> callable
_TARGETS = {
    "target": lambda p: p["target"],
    "poly": lambda p: p["poly"],
    "coeffs": lambda p: _poly1d_target(p["coeffs"]),
    "trig": _trig_target,
}


def _sup_norm(rep, target, domain, p):
    return sup_error(rep.net, target, domain, bound=rep.theoretical_bound)


def _lp_norm(rep, target, domain, p):
    grid_fn = None
    d = rep.net.input_dim
    if d >= 2:
        # closed-form twin for the big tensor grids; spot-checked here
        rng = np.random.default_rng(0)
        check = rng.uniform(*domain, size=(128, d))
        spot_check(lambda q: evaluate_array(rep.net, q),
                   lambda q: lp_net_twin(q, rep), check, where="lp twin")
        grid_fn = lambda axes: lp_net_twin_grid(axes, rep)
    return lp_error(rep.net, target, p["p"], domain,
                    bound=rep.theoretical_bound, eval_grid_fn=grid_fn)


def _gauss_norm(rep, target, domain, p):
    return gauss_l2_error(rep.net, target, rep.meta["support"],
                          bound=rep.theoretical_bound)


_NORMS = {"sup": _sup_norm, "lp": _lp_norm, "gauss": _gauss_norm}


def _measure_point(spec, params):
    """Build one network for a sweep point and measure its error as the
    theorem's registry row says.

    Returns (normalized params, BuildReport, ErrorReport)."""
    p = spec.normalize(params)
    rep = spec.build(p)
    m = spec.measure
    domain = tuple(rep.meta[v] if isinstance(v, str) else v
                   for v in m.domain)
    return p, rep, _NORMS[m.norm](rep, _TARGETS[m.target](p), domain, p)


def sweep(theorem_id, param_range, fixed_params, csv_path=None):
    """Build and measure a network per parameter value; rows carry the
    measured error, the builder's bound, and the size metrics.

    param_range is an iterable of values for the theorem's conventional
    sweep parameter, or a (name, values) pair to sweep something else.
    """
    spec = builders.THEOREMS[theorem_id]
    if (isinstance(param_range, tuple) and len(param_range) == 2
            and isinstance(param_range[0], str)):
        name, values = param_range
        if name not in {prm.name for prm in spec.params}:
            raise KeyError(f"{theorem_id} has no parameter {name!r}")
    else:
        name, values = spec.sweep_param, param_range
    rows = []
    for v in values:
        params = dict(fixed_params)
        params[name] = v
        _, rep, er = _measure_point(spec, params)
        got = metrics(rep.net)
        rows.append(SweepRow(value=float(v), measured=er.measured,
                             bound=er.bound, param_count=got.param_count,
                             width=got.width, depth=got.depth,
                             height=got.height))
    table = SweepTable(parameter=name, rows=rows)
    if csv_path is not None:
        table.to_csv(csv_path)
    return table


@dataclass
class FitResult:
    constant: float
    passed: bool
    anomalies: list
    split: int


FIT_MARGIN = 1.25


def fit_and_check(table):
    """Two-phase fitted-constant protocol: fit C = max(measured / bound) on
    the lower half of the sweep, then assert measured <= FIT_MARGIN * C *
    bound on the upper half.  The margin gives headroom for ratios that
    converge to their limiting constant from below, where the raw lower-half
    maximum systematically undershoots; it is far smaller than the
    order-of-magnitude jumps a genuine bound violation produces.  Non-monotone jumps in the
    measured error are flagged."""
    rows = table.rows
    if len(rows) < 6:
        raise ValueError("need at least 6 sweep points for fitting")
    split = len(rows) // 2
    fit_rows, check_rows = rows[:split], rows[split:]
    C = max((r.measured / r.bound) for r in fit_rows if r.bound > 0)
    C = max(C, 1e-300)
    passed = all(r.measured <= FIT_MARGIN * C * r.bound * (1.0 + PASS_SLACK)
                 for r in check_rows)
    anomalies = []
    for prev, cur in zip(rows, rows[1:]):
        ratio_prev = prev.measured / prev.bound if prev.bound > 0 else 0.0
        ratio_cur = cur.measured / cur.bound if cur.bound > 0 else 0.0
        if ratio_prev > 0 and ratio_cur > 4.0 * ratio_prev:
            anomalies.append((prev.value, cur.value, ratio_prev, ratio_cur))
    if anomalies:
        warnings.warn(f"non-monotone bound ratios at {anomalies}",
                      stacklevel=2)
    return FitResult(constant=float(C), passed=bool(passed),
                     anomalies=anomalies, split=split)


# ---------------------------------------------------------------------------
# size-comparison report


# the paper's size-comparison table: the configs `relu3d table1` reports
TABLE1 = (
    [{"row": "poly", "coeffs": [0.0, 0.0, 1.0], "H": H} for H in (6, 10)]
    + [{"row": "analytic-cube",
        "target": TargetSpec.catalog("geometric-product", d=1),
        "N": N, "delta": 0.5} for N in range(4, 11)]
    + [{"row": "ellipse", "target": TargetSpec.catalog("reciprocal-shift"),
        "rho": 4.0, "N": N} for N in (6, 10)]
    + [{"row": "hermite",
        "target": TargetSpec.catalog("cosine", domain="gaussian-line"),
        "N": N} for N in (4, 8)])


def table1_report(configs, csv_path=None):
    """Measured (size, error) of this artifact's constructions next to the
    corresponding plain-2D baseline size formulas.

    Each config is a dict with a "row" key (a theorem id with a baseline
    counterpart) plus the builder parameters; the baseline formulas are
    evaluated with N set to the theorem's sweep parameter.  The flattened 2D
    parameter count of each built network is included as the intra-linked
    2D equivalent.
    """
    rows = []
    for cfg in configs:
        cfg = dict(cfg)
        spec = builders.THEOREMS[cfg.pop("row")]
        if spec.baseline is None:
            raise KeyError(f"no baseline row for {spec.id!r}")
        p, rep, er = _measure_point(spec, cfg)
        got = metrics(rep.net)
        flat = flatten_to_2d(rep.net, pad_width_to=got.width * got.height)
        flat_m = metrics(flat)
        n_val = p[spec.sweep_param]
        bparams = dict(p, N=n_val)
        base_size = expected_size(spec.baseline, bparams)
        base_err = expected_bound(spec.baseline, bparams)
        extra = (("row", spec.id),
                 ("baseline_width", base_size.width),
                 ("baseline_depth", base_size.depth),
                 ("baseline_height", base_size.height),
                 ("baseline_error", base_err),
                 ("flat_width", flat_m.width),
                 ("flat_params", flat_m.param_count))
        rows.append(SweepRow(value=float(n_val), measured=er.measured,
                             bound=er.bound, param_count=got.param_count,
                             width=got.width, depth=got.depth,
                             height=got.height, extra=extra))
    table = SweepTable(parameter="N", rows=rows)
    if csv_path is not None:
        table.to_csv(csv_path)
    return table
