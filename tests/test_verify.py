"""Measurement harnesses: error oracles, sweeps, fitting, size tables."""

import csv
import hashlib
import math

import numpy as np
import pytest

import reference_net
from relu3d import blocks, builders, twins, verify
from relu3d import net as rnet
from relu3d.net import Neuron, evaluate_array, identity_net, metrics
from relu3d.targets import TargetSpec
from relu3d.verify import (TABLE1, ErrorReport, SweepRow, SweepTable,
                           fit_and_check, gauss_l2_error, lp_error, lp_errors,
                           sup_error, sweep, table1_report)


def zero_net():
    layer = ((Neuron(weights={0: 0.0}, bias=0.0),),)
    return reference_net.pack(1, [layer], [{0: 0.0}], [0.0])


# -- ErrorReport / SweepTable invariants -------------------------------------


def test_error_report_pass_rule():
    assert ErrorReport("sup", 1.0, 1.0, {}).passed
    assert ErrorReport("sup", 1.0 + 5e-10, 1.0, {}).passed
    assert not ErrorReport("sup", 1.0 + 1e-8, 1.0, {}).passed


@pytest.mark.parametrize("measured", [math.nan, math.inf, -math.inf])
def test_error_report_refuses_a_non_finite_measurement(measured):
    with pytest.raises(ValueError, match="not a finite number"):
        ErrorReport("sup", measured, 1.0, {})


@pytest.mark.filterwarnings("ignore")   # 1/0, and quad on a nan integrand
def test_sup_and_gauss_errors_of_a_non_finite_target_raise():
    # a nan parameter makes the target nan everywhere; |x|^-1 is inf at 0,
    # a node of the sup grid
    nan_cos = TargetSpec.catalog("cosine", domain="gaussian-line",
                                 omega=math.nan)
    pole = TargetSpec.catalog("abs-power", alpha=-1.0)
    for target in (nan_cos, pole):
        with pytest.raises(ValueError, match="not a finite number"):
            sup_error(blocks.square_net(3), target, (0.0, 1.0))
    rep = builders.build_hermite_gauss(
        TargetSpec.catalog("cosine", domain="gaussian-line"), 4)
    with pytest.raises(ValueError, match="gauss-l2 error is nan"):
        gauss_l2_error(rep.net, nan_cos, rep.meta["support"])


def test_sweep_table_sorted_and_nonempty():
    rows = [SweepRow(3, 0.1, 1, 1, 1, 1, 1), SweepRow(1, 0.3, 1, 1, 1, 1, 1)]
    table = SweepTable("H", rows)
    assert [r.value for r in table.rows] == [1, 3]
    with pytest.raises(ValueError):
        SweepTable("H", [])


# -- sup_error ----------------------------------------------------------------


def test_sup_error_square_gadget_exact():
    net = blocks.square_net(3)
    er = sup_error(net, lambda p: p[:, 0] ** 2, (0.0, 1.0), bound=2.0 ** -8)
    assert er.measured == pytest.approx(2.0 ** -8, rel=1e-10)
    assert er.passed
    assert er.norm_kind == "sup"


def test_sup_error_identity_zero():
    er = sup_error(identity_net(1), lambda p: p[:, 0], (0.0, 1.0))
    assert er.measured == 0.0


def test_sup_error_product_bound():
    net = blocks.product2_unit(5)
    er = sup_error(net, lambda p: p[:, 0] * p[:, 1], (0.0, 1.0),
                   bound=6.0 * 2.0 ** -12)
    assert er.passed


def test_sup_error_rejects_unbounded_domain():
    with pytest.raises(ValueError):
        sup_error(identity_net(1), lambda p: p[:, 0], "gaussian-line")


def test_sup_error_grid_refinement_stability():
    target = TargetSpec.catalog("reciprocal-shift")
    rep = builders.build_smooth1d(target, 6)
    a = sup_error(rep.net, target, (0.0, 1.0), base_resolution=2 ** 10 + 1)
    b = sup_error(rep.net, target, (0.0, 1.0), base_resolution=2 ** 11 + 1)
    assert abs(a.measured - b.measured) <= 0.01 * max(a.measured, b.measured)


@pytest.mark.parametrize("d", [22, 1000])
def test_sup_error_refuses_fewer_than_two_points_per_axis(d):
    # 2^22 points exceed SUP_POINT_CAP; the net needs no hidden layer
    net = reference_net.pack(d, [], [{0: 1.0}], [0.0])
    with pytest.raises(ValueError, match="cap"):
        sup_error(net, lambda p: p[:, 0], (0.0, 1.0))


@pytest.mark.parametrize("d,side", [(1, 2 ** 4 + 1), (2, 2 ** 4 + 1),
                                    (6, 9), (21, 2)])
def test_sup_error_grid_side_under_the_point_cap(d, side, monkeypatch):
    # the largest halving of 2^(H+4) + 1 (H = 0 here) whose d-th power
    # fits the cap; the grid itself is not evaluated
    monkeypatch.setattr(verify, "tensor_points",
                        lambda axes: np.zeros((1, len(axes))))
    monkeypatch.setattr(verify, "_abs_diff",
                        lambda net, target, pts: np.zeros(len(pts)))
    er = sup_error(reference_net.pack(d, [], [{0: 1.0}], [0.0]), None, (0.0, 1.0))
    assert er.resolution["points_per_dim"] == side


# -- lp_error -----------------------------------------------------------------


def test_lp_error_self_is_zero():
    net = blocks.square_net(4)
    er = lp_error(net, lambda p: evaluate_array(net, p), 2, (0.0, 1.0))
    assert er.measured <= 1e-14


def test_lp_error_polynomial_closed_form():
    # int_0^1 (x - x^2)^2 dx = 1/30
    er = lp_error(identity_net(1), lambda p: p[:, 0] ** 2, 2, (0.0, 1.0))
    assert er.measured == pytest.approx(math.sqrt(1.0 / 30.0), abs=1e-10)


def test_lp_error_holder_consistency():
    net = blocks.square_net(2)
    target = lambda p: p[:, 0] ** 2
    e1 = lp_error(net, target, 1, (0.0, 1.0))
    e2 = lp_error(net, target, 2, (0.0, 1.0))
    assert e1.measured <= e2.measured * (1 + 1e-9)   # vol = 1 here


def test_lp_error_decreasing_in_N1():
    target = TargetSpec.catalog("step", domain="sym-cube")
    vals = []
    for N1 in (4, 8, 16):
        rep = builders.build_lp(target, N1, 16)
        er = lp_error(rep.net, target, 2, (-1.0, 1.0))
        assert er.measured > 0
        vals.append(er.measured)
    assert vals[2] < vals[0]


def test_lp_error_quadrature_convergence(monkeypatch):
    target = TargetSpec.catalog("abs-power", domain="sym-cube")
    rep = builders.build_lp(target, 8, 12)
    monkeypatch.setitem(verify.LP_NODES, 1, 2048)
    a = lp_error(rep.net, target, 2, (-1.0, 1.0))
    monkeypatch.setitem(verify.LP_NODES, 1, 4096)
    b = lp_error(rep.net, target, 2, (-1.0, 1.0))
    assert abs(a.measured - b.measured) <= 0.005 * a.measured


def test_lp_error_infinite_p_delegates_to_sup():
    net = blocks.square_net(3)
    er = lp_error(net, lambda p: p[:, 0] ** 2, math.inf, (0.0, 1.0))
    assert er.norm_kind == "sup"
    assert er.measured == pytest.approx(2.0 ** -8, rel=1e-10)


def test_lp_error_rejects_p_below_one():
    with pytest.raises(ValueError):
        lp_error(identity_net(1), lambda p: p[:, 0], 0.5, (0.0, 1.0))


def test_lp_error_rejects_a_nan_p():
    with pytest.raises(ValueError, match="1 <= p"):
        lp_error(identity_net(1), lambda p: p[:, 0], math.nan, (0.0, 1.0))


@pytest.mark.parametrize("shift,p", [(0.0, 2000.0), (0.0, 1e308),
                                     (1e10, 40.0)],
                         ids=["underflow", "underflow-huge-p", "overflow"])
def test_lp_error_refuses_a_power_sum_out_of_float_range(shift, p):
    # the square gadget's errors are at most 2^-8: their 2000th powers
    # underflow to 0; errors of 1e10 overflow at p = 40
    net = blocks.square_net(3)
    with pytest.raises(ValueError, match="cannot be measured"):
        lp_error(net, lambda q: q[:, 0] ** 2 + shift, p, (0.0, 1.0))


def test_lp_error_of_an_exact_net_is_zero_at_any_p():
    net = blocks.square_net(3)
    er = lp_error(net, lambda q: evaluate_array(net, q), 1e308, (0.0, 1.0))
    assert er.measured == 0.0


@pytest.mark.parametrize("name,d", [("step", 1), ("abs-sum", 2)])
def test_lp_errors_match_separate_lp_error_calls(name, d, monkeypatch):
    # one evaluation on the nodes serves every p, with the numbers and
    # resolutions of one lp_error call per p
    target = TargetSpec.catalog(name, d=d, domain="sym-cube")
    rep = builders.build_lp(target, 4, 8, d=d)
    calls = []
    count = lambda fn: lambda *a: calls.append(1) or fn(*a)
    monkeypatch.setattr(verify, "evaluate_array", count(evaluate_array))
    grid = None
    if d == 2:
        grid = count(lambda axes: twins.lp_net_twin_grid(axes, rep))
    want = [lp_error(rep.net, target, p, (-1.0, 1.0), bound=0.5,
                     eval_grid_fn=grid) for p in (1, 2)]
    assert len(calls) == 2
    got = lp_errors(rep.net, target, (1, 2), (-1.0, 1.0), bound=0.5,
                    eval_grid_fn=grid)
    assert len(calls) == 3
    for g, w in zip(got, want):
        assert float(g.measured).hex() == float(w.measured).hex()
        assert (g.norm_kind, g.bound, g.passed, repr(g.resolution)) == \
            (w.norm_kind, w.bound, w.passed, repr(w.resolution))


@pytest.mark.filterwarnings("ignore")   # 0 ** alpha for alpha < 0
@pytest.mark.parametrize("alpha,domain", [(-1.0, "unit-cube"),
                                          (-0.4, "sym-cube")],
                         ids=["pole-at-an-end", "integrable-pole-at-0"])
def test_lp_errors_of_a_target_infinite_at_a_panel_edge_raise(alpha, domain):
    # the Gauss nodes miss x = 0, where |x|^alpha is inf; |x|^-0.4 is
    # square-integrable, but its singular integrand is not resolved either
    target = TargetSpec.catalog("abs-power", domain=domain, alpha=alpha)
    with pytest.raises(ValueError, match=r"inf at the panel edge \[0\.0\], "
                                         r"not a finite number"):
        lp_errors(blocks.square_net(3), target, (1, 2), domain)


def test_lp_errors_refuses_any_bad_p_before_evaluating(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "evaluate_array",
                        lambda *a: calls.append(1) or evaluate_array(*a))
    with pytest.raises(ValueError, match="got p = 0.5"):
        lp_errors(identity_net(1), lambda p: p[:, 0], (2, 0.5), (0.0, 1.0))
    assert calls == []


def test_lp_errors_infinite_p_delegates_to_sup():
    net = blocks.square_net(3)
    target = lambda p: p[:, 0] ** 2
    sup, l2 = lp_errors(net, target, (math.inf, 2), (0.0, 1.0))
    assert sup.norm_kind == "sup" and l2.norm_kind == "lp(2)"
    assert sup.measured == \
        lp_error(net, target, math.inf, (0.0, 1.0)).measured


@pytest.mark.parametrize("budget",
                         [rnet.CHUNK_ELEMENTS, 1, 16 * 300, 10 ** 9],
                         ids=["default", "one-row", "ragged", "one-block"])
def test_lp_net_twin_grid_blocks_are_byte_equal(budget, monkeypatch):
    target = TargetSpec.catalog("abs-sum", d=2, domain="sym-cube")
    rep = builders.build_lp(target, 4, 8, d=2)
    # unequal axes, so a swapped axis shows; 257 rows leave a ragged block
    # of 1 at 16 rows
    axes = (np.linspace(-1.0, 1.0, 257), np.linspace(-1.0, 1.0, 300))
    monkeypatch.setattr(rnet, "CHUNK_ELEMENTS", 10 ** 9)
    full = twins.lp_net_twin_grid(axes, rep)
    monkeypatch.setattr(rnet, "CHUNK_ELEMENTS", budget)
    got = twins.lp_net_twin_grid(axes, rep)
    assert got.shape == (257, 300)
    assert got.tobytes() == full.tobytes()
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)
    assert np.array_equal(got.ravel(), twins.lp_net_twin(pts, rep))


# -- gauss_l2_error -----------------------------------------------------------


def test_gauss_l2_zero_net_vs_linear_target():
    target = TargetSpec.catalog("linear", domain="gaussian-line")
    er = gauss_l2_error(zero_net(), target, 3.0)
    assert er.measured == pytest.approx(1.0, abs=1e-6)


def test_gauss_l2_tail_only_when_net_matches_inside():
    # clipped constant equals the constant target inside the window, so the
    # measured error is essentially the target's own tail mass
    rep = builders.build_clipped_hermite(0, 4.0, 1e-4, 1)
    target = TargetSpec.catalog("constant", domain="gaussian-line")
    er = gauss_l2_error(rep.net, target, 4.0)
    tail = math.sqrt(target.gauss_tail_sq(4.0))
    assert er.measured <= tail * 1.5 + 1e-3


def test_gauss_l2_parseval_cross_check():
    target = TargetSpec.catalog("cosine", domain="gaussian-line")
    rep = builders.build_hermite_gauss(target, 6)
    er = gauss_l2_error(rep.net, target, rep.meta["support"])
    from relu3d.hermite import hermite_expansion
    tail = hermite_expansion(target, 20).tail_l2(6)
    assert er.measured == pytest.approx(tail, rel=0.10)


def test_gauss_l2_rejects_non_compact_net():
    target = TargetSpec.catalog("linear", domain="gaussian-line")
    with pytest.raises(ValueError, match="clip"):
        gauss_l2_error(identity_net(1), target, 2.0)


def test_gauss_l2_rejects_unknown_tail():
    with pytest.raises(ValueError, match="tail"):
        gauss_l2_error(zero_net(), lambda p: p[:, 0], 2.0)


def test_gauss_l2_refuses_a_support_over_the_node_cap():
    target = TargetSpec.catalog("linear", domain="gaussian-line")
    for M in (1e12, math.inf, math.nan):
        with pytest.raises(ValueError, match="nodes"):
            gauss_l2_error(zero_net(), target, M)


def test_gauss_l2_refuses_a_negative_support():
    target = TargetSpec.catalog("cosine", domain="gaussian-line")
    rep = builders.build_hermite_gauss(target, 4)
    for M in (-20.0, -1e-9, -math.inf):
        with pytest.raises(ValueError, match="nonnegative"):
            gauss_l2_error(rep.net, target, M)


def test_hermite_supports_stay_under_the_node_cap():
    for n in (1, 10, 50, 100):
        for B in (0.5, 1.0 / math.sqrt(2.0), 5.0):
            M = builders.choose_hermite_params(n, B).M
            x, _ = verify._gauss_panels(-M - 2.0, M + 2.0,
                                        order=verify.GAUSS_PANEL_ORDER)
            assert x.size <= verify.GAUSS_NODE_CAP


# -- sweep / fit_and_check ----------------------------------------------------


def test_sweep_square_gadget_constant_one(tmp_path):
    # hand-rolled sweep over the square gadget: exact ratio 1 at every H
    rows = []
    for H in range(1, 13):
        net = blocks.square_net(H)
        er = sup_error(net, lambda p: p[:, 0] ** 2, (0.0, 1.0),
                       bound=2.0 ** (-2 * (H + 1)))
        m = metrics(net)
        rows.append(SweepRow(H, er.measured, er.bound, m.param_count,
                             m.width, m.depth, m.height))
    table = SweepTable("H", rows)
    fit = fit_and_check(table)
    assert fit.passed
    assert fit.constant == pytest.approx(1.0, rel=1e-9)
    assert not fit.anomalies


def test_sweep_builder_smooth(tmp_path):
    target = TargetSpec.catalog("reciprocal-shift")
    path = tmp_path / "smooth.csv"
    table = sweep("smooth", range(2, 9), {"target": target},
                  csv_path=str(path))
    assert all(r.measured <= r.bound for r in table.rows)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0][:4] == ["parameter", "value", "measured", "bound"]
    assert len(got) == 1 + len(table.rows)


def test_sweep_rejects_unknown_theorem():
    with pytest.raises(KeyError):
        sweep("mystery", range(2, 8), {})


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(KeyError, match="no parameter"):
        sweep("trig", ("bogus", [1]), {"k": 1})


def test_sweep_takes_d_from_the_target():
    target = TargetSpec.catalog("geometric-product", d=2)
    fixed = {"target": target, "delta": 0.5}
    (row,) = sweep("analytic-cube", [3], fixed).rows
    (same,) = sweep("analytic-cube", [3], dict(fixed, d=2)).rows
    assert row == same
    with pytest.raises(ValueError, match="disagrees"):
        sweep("analytic-cube", [3], dict(fixed, d=1))
    # a plain callable has no dimension to take
    plain = lambda pts: 1.0 / (pts[:, 0] + 2.0)
    assert sweep("smooth", [3], {"target": plain}).rows[0].measured > 0


def test_fit_and_check_needs_six_points():
    rows = [SweepRow(v, 0.1, 1.0, 1, 1, 1, 1) for v in range(5)]
    with pytest.raises(ValueError):
        fit_and_check(SweepTable("N", rows))


def test_fit_and_check_flags_anomalies():
    rows = [SweepRow(v, 0.01, 1.0, 1, 1, 1, 1) for v in range(8)]
    rows[6] = SweepRow(6, 0.9, 1.0, 1, 1, 1, 1)
    with pytest.warns(UserWarning, match="non-monotone"):
        fit = fit_and_check(SweepTable("N", rows))
    assert fit.anomalies


def test_fit_and_check_fails_on_upper_half_violation():
    rows = [SweepRow(v, 0.01, 1.0, 1, 1, 1, 1) for v in range(8)]
    rows[7] = SweepRow(7, 0.5, 1.0, 1, 1, 1, 1)
    with pytest.warns(UserWarning):
        fit = fit_and_check(SweepTable("N", rows))
    assert not fit.passed


# -- table1 -------------------------------------------------------------------


def test_table1_report_columns(tmp_path):
    path = tmp_path / "table1.csv"
    table = table1_report(TABLE1, csv_path=str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {"baseline_width", "baseline_depth", "baseline_error",
            "flat_width", "flat_params", "row"} <= set(rows[0])
    for r in table.rows:
        d = r.as_dict()
        assert d["flat_width"] == d["width"] * d["height"] or \
            d["flat_width"] >= d["width"]


def test_table1_depth_ratio_divergence():
    configs = [c for c in TABLE1 if c["row"] == "analytic-cube"]
    table = table1_report(configs)
    ratios = [r.as_dict()["baseline_depth"] / max(r.depth, 1)
              for r in table.rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_table1_rejects_row_without_baseline():
    with pytest.raises(KeyError):
        table1_report([{"row": "trig", "k": 1, "N2": 8}])


# -- measurement goldens ------------------------------------------------------


def measurement_table():
    """lp_error and gauss_l2_error reports over panel counts that do and do
    not divide their domain evenly."""
    rows = []
    net = blocks.square_net(3)
    square = lambda p: p[:, 0] ** 2
    for domain in ((0.0, 1.0), (0.0, 0.7), (-0.3, 0.9)):
        for p in (1, 1.5, 2, 3):
            er = lp_error(net, square, p, domain)
            rows.append((er.measured, er.resolution))
    target = TargetSpec.catalog("cosine", domain="gaussian-line")
    rep = builders.build_hermite_gauss(target, 4)
    for M in (0.0, 0.3, rep.meta["support"], 7.3):
        if M >= rep.meta["support"]:   # the clipped net vanishes outside it
            er = gauss_l2_error(rep.net, target, M)
            rows.append((er.measured, er.resolution))
        er = gauss_l2_error(zero_net(), target, M)
        rows.append((er.measured, er.resolution))
    return rows


def test_golden_measurements():
    digest = hashlib.sha256(repr(measurement_table()).encode()).hexdigest()
    assert digest == \
        "9634331c77e4b7c9052d0235645044a9c40fffd211d5bef254ca6ba1af68e9d4"
