"""Builder constructions: bounds, exact size metrics, and size formulas."""

import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_net
from relu3d import blocks, builders, trig_operator
from relu3d.builders import (build_analytic_cube, build_analytic_ellipse,
                             build_clipped_hermite, build_hermite_gauss,
                             build_lp, build_poly1d, build_polyNd,
                             build_smooth1d, build_trig,
                             choose_hermite_params, expected_bound,
                             expected_size)
from relu3d.hermite import hermite_eval, hermite_tail_bound
from relu3d.net import Neuron, _compile, evaluate_array, metrics, serialize
from relu3d.polynd import PolyND
from relu3d.targets import TargetSpec
from relu3d.verify import gauss_l2_error, lp_error, sup_error, sweep

UNIT = np.linspace(0.0, 1.0, 4097)[:, None]


def poly_vals(coeffs, xs):
    return np.polynomial.polynomial.polyval(xs[:, 0],
                                            np.asarray(coeffs, dtype=float))


# -- univariate polynomial --------------------------------------------------


@pytest.mark.parametrize("H", [4, 8])
def test_poly1d_cubic_bound_and_metrics(H):
    coeffs = [0.5, -1.0, 0.25, 2.0]
    rep = build_poly1d(coeffs, H)
    n = 3
    err = np.max(np.abs(evaluate_array(rep.net, UNIT)
                        - poly_vals(coeffs, UNIT)))
    bound = max(abs(c) for c in coeffs) * 3 * n * n * 2.0 ** (-2 * (H + 1))
    assert err <= bound
    assert rep.theoretical_bound == pytest.approx(bound)
    m = metrics(rep.net)
    assert (m.width, m.depth, m.height) == (8, n - 1, H)


def test_poly1d_degree5_spec_size():
    rep = build_poly1d([0, 1, 0, 0, 0, 1], 3)
    m = metrics(rep.net)
    assert (m.width, m.depth, m.height) == (8, 4, 3)


def test_poly1d_affine_degenerates():
    rep = build_poly1d([2.0, -3.0], 6)
    xs = UNIT
    assert np.max(np.abs(evaluate_array(rep.net, xs)
                         - (2.0 - 3.0 * xs[:, 0]))) <= 1e-14
    assert metrics(rep.net).depth == 0


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 8),
       st.integers(0, 2 ** 32 - 1))
def test_poly1d_random_coeffs_bound(n, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1, 1, n + 1)
    H = 5
    rep = build_poly1d(coeffs, H)
    err = np.max(np.abs(evaluate_array(rep.net, UNIT)
                        - poly_vals(coeffs, UNIT)))
    assert err <= max(abs(c) for c in coeffs) * 3 * n * n \
        * 2.0 ** (-2 * (H + 1))


# -- multivariate polynomial ------------------------------------------------


def test_polyNd_bivariate_product():
    poly = PolyND(2, {(1, 1): 1.0}, 2)
    H = 8
    rep = build_polyNd(poly, H)
    u = np.linspace(0, 1, 257)
    X, Y = np.meshgrid(u, u)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    err = np.max(np.abs(evaluate_array(rep.net, pts) - pts[:, 0] * pts[:, 1]))
    assert err <= rep.theoretical_bound
    m = metrics(rep.net)
    assert m.depth == 1
    assert m.height == H
    assert m.width <= rep.expected_metrics.width


def test_polyNd_degree4_d2_bound():
    rng = np.random.default_rng(7)
    from relu3d.polynd import total_degree_indices
    coeffs = {j: float(rng.uniform(-1, 1))
              for j in total_degree_indices(2, 4)}
    poly = PolyND(2, coeffs, 4)
    rep = build_polyNd(poly, 7)
    u = np.linspace(0, 1, 129)
    X, Y = np.meshgrid(u, u)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    err = np.max(np.abs(evaluate_array(rep.net, pts) - poly(pts)))
    assert err <= rep.theoretical_bound
    # the tight per-term bound never exceeds the stated one
    assert rep.theoretical_bound <= rep.meta["stated_bound"] * (1 + 1e-12)


# -- smooth -----------------------------------------------------------------


@pytest.mark.parametrize("N", [2, 5, 9, 28])
def test_smooth1d_reciprocal_bound(N):
    target = TargetSpec.catalog("reciprocal-shift")
    rep = build_smooth1d(target, N)
    err = np.max(np.abs(evaluate_array(rep.net, UNIT) - target(UNIT)))
    assert err <= 2.0 ** (-N)
    m = metrics(rep.net)
    assert m.depth == N
    assert m.width <= 8


# -- analytic (cube and ellipse) --------------------------------------------


def test_analytic_cube_d1_bound():
    target = TargetSpec.catalog("geometric-product", d=1)
    for N in (2, 5, 8):
        rep = build_analytic_cube(target, N, 0.5, d=1)
        hw = rep.meta["domain_halfwidth"]
        xs = np.linspace(0, hw, 2049)[:, None]
        err = np.max(np.abs(evaluate_array(rep.net, xs) - target(xs)))
        assert err <= 2.0 * 0.5 ** N
        assert metrics(rep.net).depth == max(N - 1, 0)


def test_analytic_cube_d2_bound():
    target = TargetSpec.catalog("geometric-product", d=2)
    rep = build_analytic_cube(target, 5, 0.5, d=2)
    hw = rep.meta["domain_halfwidth"]
    u = np.linspace(0, hw, 129)
    X, Y = np.meshgrid(u, u)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    err = np.max(np.abs(evaluate_array(rep.net, pts) - target(pts)))
    assert err <= 2.0 * 0.5 ** 5


def test_analytic_cube_requires_series():
    target = TargetSpec.catalog("abs")
    with pytest.raises(ValueError):
        build_analytic_cube(target, 4, 0.5)


def test_analytic_cube_refuses_a_series_whose_mass_past_N_exceeds_1():
    # the terms up to degree 4 have mass 0.75, but with x^6 the series has
    # 1.25, against the hypothesis sum |a_j| <= 1
    target = TargetSpec(kind="explicit-power-series", d=1,
                        coeffs=(((0,), 0.5), ((1,), 0.25), ((6,), 0.5)))
    with pytest.raises(ValueError, match="mass exceeds 1"):
        build_analytic_cube(target, 4, 0.5)


@pytest.mark.parametrize("target_d,d", [(2, 1), (1, 2)])
def test_analytic_cube_refuses_a_dimension_other_than_the_targets(target_d,
                                                                  d):
    target = TargetSpec.catalog("geometric-product", d=target_d)
    with pytest.raises(ValueError):
        build_analytic_cube(target, 3, 0.5, d=d)


def test_analytic_ellipse_error_decay():
    target = TargetSpec.catalog("reciprocal-shift")
    # pole of 1/(x+2) sits at t = -5 after mapping [0,1] to [-1,1]
    rho = 5.0 + math.sqrt(24.0)
    errs = []
    for N in (4, 8, 12):
        rep = build_analytic_ellipse(target, N, rho, d=1)
        xs = np.linspace(0, 1, 4097)[:, None]
        err = np.max(np.abs(evaluate_array(rep.net, xs) - target(xs)))
        assert err <= rep.theoretical_bound
        errs.append(err)
    assert errs[2] < errs[1] < errs[0]


def test_analytic_ellipse_refuses_a_float_rounding_over_its_shape():
    # 1/(x+2) at rho 4: N = 22 measures 3.9e-15 against its shape 5.7e-14;
    # at N = 24 the monomial sum cancels (sum |a_j| = 774) and the net
    # measured 3.5e-13 against 3.6e-15
    target = TargetSpec.catalog("reciprocal-shift")
    rep = build_analytic_ellipse(target, 22, 4.0)
    xs = np.linspace(0, 1, 4097)[:, None]
    err = np.max(np.abs(evaluate_array(rep.net, xs) - target(xs)))
    assert err <= rep.theoretical_bound == 4.0 ** -22
    with pytest.raises(ValueError, match="float rounding"):
        build_analytic_ellipse(target, 24, 4.0)


def test_analytic_ellipse_rejects_small_rho():
    target = TargetSpec.catalog("reciprocal-shift")
    with pytest.raises(ValueError):
        build_analytic_ellipse(target, 6, 1.5, d=1)


# -- clipped Hermite --------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 4, 6])
def test_clipped_hermite_vanishes_outside(n):
    M, delta, H = 4.0, 0.25, 8
    rep = build_clipped_hermite(n, M, delta, H)
    xs = np.concatenate([np.linspace(-M - 5, -M, 64),
                         np.linspace(M, M + 5, 64)])[:, None]
    assert np.max(np.abs(evaluate_array(rep.net, xs))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_clipped_hermite_interior_bound(n):
    M, delta, H = 4.0, 0.25, 10
    rep = build_clipped_hermite(n, M, delta, H)
    xs = np.linspace(-(M - delta), M - delta, 8193)[:, None]
    err = np.max(np.abs(evaluate_array(rep.net, xs)
                        - hermite_eval(n, xs[:, 0])))
    assert err <= rep.theoretical_bound
    m = metrics(rep.net)
    assert (m.width, m.depth, m.height) == (8, n, H + 1)


def test_clipped_hermite_low_orders_exact_inside():
    M, delta = 3.0, 0.5
    core = np.linspace(-(M - delta), M - delta, 257)[:, None]
    rep0 = build_clipped_hermite(0, M, delta, 1)
    assert np.max(np.abs(evaluate_array(rep0.net, core) - 1.0)) <= 1e-12
    rep1 = build_clipped_hermite(1, M, delta, 1)
    assert np.max(np.abs(evaluate_array(rep1.net, core)
                         - core[:, 0])) <= 1e-12


def test_choose_hermite_params_proof_chain():
    for n in (2, 4, 8):
        B = 1.0
        params = choose_hermite_params(n, B)
        M, H, delta = params
        target = math.exp(-B * math.sqrt(n))
        sq6M = math.sqrt(6.0) * M
        # interior term at the chosen (integer) height is within budget
        interior = sq6M ** n * 3 * n * n * 2.0 ** (-2 * (H + 1))
        assert interior <= 0.6 * target * (1 + 1e-9)
        # window tail bound is dominated by the target rate
        tail = math.sqrt(hermite_tail_bound(n, M))
        assert tail <= target
        assert 0 < delta < M / 2 + 1e-12


@pytest.mark.parametrize("n,B", [(129, 0.5), (150, 0.5), (1000, 0.5),
                                 (116, 100.0)])
def test_choose_hermite_params_refuses_an_overflowing_power(n, B):
    with pytest.raises(ValueError, match="float range"):
        choose_hermite_params(n, B)


@pytest.mark.parametrize("n,B", [(128, 0.5), (115, 100.0)])
def test_choose_hermite_params_keeps_the_largest_n_in_range(n, B):
    params = choose_hermite_params(n, B)
    assert n * math.log(math.sqrt(6.0) * params.M) < \
        math.log(sys.float_info.max)


# -- Gaussian-weighted expansion --------------------------------------------


def test_hermite_gauss_bound_and_metrics():
    target = TargetSpec.catalog("cosine", domain="gaussian-line")
    for N in (2, 4, 6):
        rep = build_hermite_gauss(target, N)
        er = gauss_l2_error(rep.net, target, rep.meta["support"],
                            bound=rep.theoretical_bound)
        assert er.passed
        m = metrics(rep.net)
        assert m.depth == N
        assert m.width <= rep.expected_metrics.width


@pytest.mark.parametrize("N", [15, 16])
def test_hermite_gauss_refuses_a_net_its_measurement_refuses(N):
    # at d = 1 the built net reaches 1.2e-6 (N = 15) and 2.1e-5 (N = 16)
    # at gauss_l2_error's probe points outside its support, over the 1e-6
    # that measurement allows; N = 14 reaches 7.2e-7 and builds
    target = TargetSpec.catalog("cosine", domain="gaussian-line")
    with pytest.raises(ValueError, match="does not vanish"):
        build_hermite_gauss(target, N)


@pytest.mark.parametrize("N,d", [(68, 2), (48, 3)])
def test_hermite_gauss_refuses_an_overflowing_product_range(N, d):
    # choose_hermite_params accepts these N; the d-fold product range does not
    choose_hermite_params(N, 1.0 / math.sqrt(2.0))
    target = TargetSpec.catalog("gaussian-bump", d=d, domain="gaussian-line")
    with pytest.raises(ValueError, match="float range"):
        build_hermite_gauss(target, N, d=d, beta=(1.0,) * d)


def test_hermite_gauss_rejects_uncertified_target():
    target = TargetSpec.catalog("abs")
    with pytest.raises(ValueError):
        build_hermite_gauss(target, 4)


# -- trigonometric ----------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_trig_cos_bound(k):
    N2 = 12
    rep = build_trig(k, N2, kind="cos")
    xs = np.linspace(-1, 1, 8193)[:, None]
    err = np.max(np.abs(evaluate_array(rep.net, xs)
                        - np.cos(k * math.pi * xs[:, 0])))
    assert err <= 2.0 ** (-N2)
    m = metrics(rep.net)
    assert m.width <= 8
    assert m.depth == N2 + 1


@pytest.mark.parametrize("k", [1, 3, 6])
def test_trig_sin_bound_and_origin(k):
    N2 = 12
    rep = build_trig(k, N2, kind="sin")
    xs = np.linspace(-1, 1, 8193)[:, None]
    err = np.max(np.abs(evaluate_array(rep.net, xs)
                        - np.sin(k * math.pi * xs[:, 0])))
    assert err <= 2.0 ** (-N2)
    assert abs(evaluate_array(rep.net, np.array([[0.0]]))[0]) <= 1e-14
    m = metrics(rep.net)
    assert m.width <= 16
    assert m.depth == N2 + 1


def test_trig_rejects_bad_kind():
    with pytest.raises(ValueError):
        build_trig(2, 8, kind="tan")


def test_trig_at_N2_28_meets_its_bound():
    rep = build_trig(1, 28)
    xs = np.linspace(-1, 1, 4097)[:, None]
    err = np.max(np.abs(evaluate_array(rep.net, xs)
                        - np.cos(math.pi * xs[:, 0])))
    assert err <= 2.0 ** (-28)


@pytest.mark.parametrize("build", [
    lambda: build_trig(1, 29, kind="cos"),
    lambda: build_trig(1, 29, kind="sin"),
    lambda: build_lp(TargetSpec.catalog("abs-power", domain="sym-cube"),
                     4, 29),
    lambda: build_smooth1d(TargetSpec.catalog("reciprocal-shift"), 29)],
    ids=["cos", "sin", "lp", "smooth"])
def test_trig_chains_refuse_a_float_rounding_over_the_bound(build,
                                                            monkeypatch):
    # at N2 = 29, 4 * 2^-52 * sum |a_k| = 7.1e-9 exceeds 2^-29 = 1.9e-9:
    # the cosine nets of k = 1, 3 and 8 measured 2.7e-9 to 3.5e-9; an L^p
    # build is refused before its expansion.  The smooth chain of 1/(x+2)
    # at N = 29 (2.3e-8 against 1.9e-9) measured 1.07e-8.
    def no_expansion(*args):
        raise AssertionError("trig_operator_parts called")

    monkeypatch.setattr(builders, "trig_operator_parts", no_expansion)
    with pytest.raises(ValueError, match="float rounding"):
        build()


# -- L^p --------------------------------------------------------------------


def test_lp_d1_sqrt_target():
    target = TargetSpec.catalog("abs-power", domain="sym-cube")
    rep = build_lp(target, 16, 16)
    er = lp_error(rep.net, target, 2, (-1.0, 1.0),
                  bound=rep.theoretical_bound)
    assert er.passed
    assert rep.meta["dropped_mass"] <= 1e-8


def test_lp_d1_step_target_p1():
    target = TargetSpec.catalog("step", domain="sym-cube")
    rep = build_lp(target, 16, 16)
    er = lp_error(rep.net, target, 1, (-1.0, 1.0),
                  bound=rep.theoretical_bound)
    assert er.passed


def test_lp_even_target_uses_only_cosines():
    target = TargetSpec.catalog("abs", domain="sym-cube")
    rep = build_lp(target, 8, 10)
    assert all(eta == (0,) for eta, _, _ in rep.meta["terms"])


@pytest.mark.parametrize("name,N2,chains", [
    ("step", 8, 1), ("abs", 8, 1),
    # cosine and sine factors: their budgets give heights 9 and 9 at
    # N2 = 8, so one shared chain, and 9 and 10 at N2 = 9
    ("scaled-exponential", 8, 1), ("scaled-exponential", 9, 2)])
def test_lp_builds_each_cosine_chain_once(name, N2, chains, monkeypatch):
    calls = []
    wire = builders._unit_chain
    monkeypatch.setattr(builders, "_unit_chain",
                        lambda *a, **kw: calls.append(a[3]) or wire(*a, **kw))
    rep = build_lp(TargetSpec.catalog(name, domain="sym-cube"), 8, N2)
    heights = {rep.meta["chain_H_cos"] if eta == (0,)
               else rep.meta["chain_H_sin"]
               for eta, _, _ in rep.meta["terms"]}
    assert sorted(calls) == sorted(heights) and len(calls) == chains


def test_lp_evaluates_the_target_once_per_sign_reflection(monkeypatch):
    # the d = 2 torus grid has 1024^2 points; smaller grids measure the net
    calls = []
    call = TargetSpec.__call__

    def counted(self, pts):
        if len(pts) >= 1024 ** 2:
            calls.append(self)
        return call(self, pts)

    monkeypatch.setattr(TargetSpec, "__call__", counted)
    build_lp(_ABS_SUM, 4, 8, d=2)
    assert len(calls) == 4


def test_lp_rejects_small_degree():
    target = TargetSpec.catalog("abs", domain="sym-cube")
    with pytest.raises(ValueError):
        build_lp(target, 1, 8, r=2)


# -- size and bound formulas ------------------------------------------------


def test_expected_size_known_rows():
    m = expected_size("poly", {"n": 5, "H": 3})
    assert (m.width, m.depth, m.height) == (8, 4, 3)
    b = expected_size("baseline-poly", {"N": 7})
    assert (b.width, b.depth, b.height) == (1, 7, 1)
    a = expected_size("baseline-analytic", {"N": 5, "d": 2})
    assert a.depth == 5 ** 4


def test_expected_bound_known_rows():
    assert expected_bound("poly", {"amax": 1.0, "n": 2, "H": 6}) \
        == pytest.approx(12 * 2.0 ** (-14))
    assert expected_bound("analytic-cube", {"N": 4, "delta": 0.5}) \
        == pytest.approx(2 * 0.5 ** 4)
    assert expected_bound("trig", {"N2": 10}) == pytest.approx(2.0 ** -10)


def test_expected_size_rejects_unknown_id():
    with pytest.raises(KeyError):
        expected_size("mystery", {})
    with pytest.raises(KeyError):
        expected_bound("mystery", {})


def test_expected_size_reports_missing_params():
    with pytest.raises(KeyError, match="missing parameter"):
        expected_size("poly", {"n": 3})


def test_builder_reports_carry_formula_ids():
    rep = build_poly1d([0, 0, 1.0], 4)
    assert rep.bound_formula_id
    assert rep.inputs["H"] == 4
    assert rep.expected_metrics.depth == metrics(rep.net).depth


def test_lp_refuses_a_torus_grid_over_the_cap(monkeypatch):
    # d = 3 would ask for 1024^3 torus points; the cap is checked before
    # any grid is made
    def no_grid(axes):
        raise AssertionError("tensor_points called")

    monkeypatch.setattr(trig_operator, "tensor_points", no_grid)
    target = TargetSpec.catalog("abs-sum", d=3, domain="sym-cube")
    with pytest.raises(ValueError, match="cap of 4000000 points"):
        build_lp(target, 2, 6, d=3)


def test_lp_refuses_a_degree_whose_cosine_matrix_exceeds_the_cap(
        monkeypatch):
    # N1 = 100000 would ask for a (100001, 4096) cosine matrix, 3.05 GiB;
    # the cap is checked before any grid or kernel work
    def no_work(*args):
        raise AssertionError("grid or kernel work started")

    monkeypatch.setattr(trig_operator, "tensor_points", no_work)
    monkeypatch.setattr(trig_operator, "alpha_coeffs", no_work)
    target = TargetSpec.catalog("abs-power", domain="sym-cube")
    with pytest.raises(ValueError, match="cap of 4000000 entries"):
        build_lp(target, 100000, 8)
    # the largest degrees whose matrices fit: 976 * 4096 and 3906 * 1024
    # entries
    for d, n in ((1, 975), (2, 3905)):
        assert trig_operator._expansion_nodes(n, d) == \
            trig_operator._default_nodes(d)
        with pytest.raises(ValueError, match=f"degree {n + 1} is too large"):
            trig_operator._expansion_nodes(n + 1, d)


def test_default_torus_grids_of_one_and_two_dimensions_fit_the_cap():
    for d, nodes in ((1, 4096), (2, 1024)):
        assert trig_operator._default_nodes(d) == nodes
        assert nodes ** d <= trig_operator.TORUS_POINT_CAP


# -- golden outputs ---------------------------------------------------------
# One small config per theorem id: the sha256 of serialize(rep.net) and the
# repr of the measured error and bound a sweep reports, recorded before the
# theorem registry replaced the per-theorem dispatch.  Any drift means a
# construction, a stated formula or a measurement changed.


def _sha(net):
    return hashlib.sha256(serialize(net).encode()).hexdigest()


_GEO1 = TargetSpec.catalog("geometric-product", d=1)
_GEO2 = TargetSpec.catalog("geometric-product", d=2)
_RECIP = TargetSpec.catalog("reciprocal-shift")
_COS = TargetSpec.catalog("cosine", domain="gaussian-line")
_ABS_POW = TargetSpec.catalog("abs-power", domain="sym-cube")
_ABS_SUM = TargetSpec.catalog("abs-sum", d=2, domain="sym-cube")
_GEO2_SYM = TargetSpec.catalog("geometric-product", d=2, domain="sym-cube")
_POLY2 = PolyND(2, {(0, 0): 0.25, (1, 0): -0.5, (1, 1): 1.0, (0, 2): 0.5}, 2)

# case -> (theorem id, sweep params, the same build as a direct call)
GOLDEN_CASES = {
    "poly": ("poly", {"coeffs": [0.5, -1.0, 0.25, 2.0], "H": 4},
             lambda: build_poly1d([0.5, -1.0, 0.25, 2.0], 4)),
    "polyNd": ("polyNd", {"poly": _POLY2, "H": 4},
               lambda: build_polyNd(_POLY2, 4)),
    "smooth": ("smooth", {"target": _RECIP, "N": 3},
               lambda: build_smooth1d(_RECIP, 3)),
    "analytic-cube-d1": ("analytic-cube",
                         {"target": _GEO1, "N": 3, "delta": 0.5},
                         lambda: build_analytic_cube(_GEO1, 3, 0.5)),
    "analytic-cube-d2": ("analytic-cube",
                         {"target": _GEO2, "N": 3, "delta": 0.5, "d": 2},
                         lambda: build_analytic_cube(_GEO2, 3, 0.5, d=2)),
    "ellipse": ("ellipse", {"target": _RECIP, "N": 4, "rho": 4.0},
                lambda: build_analytic_ellipse(_RECIP, 4, 4.0)),
    "hermite": ("hermite", {"target": _COS, "N": 2},
                lambda: build_hermite_gauss(_COS, 2)),
    "trig-cos": ("trig", {"k": 3, "N2": 6, "kind": "cos"},
                 lambda: build_trig(3, 6, kind="cos")),
    "trig-sin": ("trig", {"k": 2, "N2": 6, "kind": "sin"},
                 lambda: build_trig(2, 6, kind="sin")),
    "lp-d1": ("lp", {"target": _ABS_POW, "N1": 4, "N2": 8},
              lambda: build_lp(_ABS_POW, 4, 8)),
    "lp-d2": ("lp", {"target": _ABS_SUM, "N1": 2, "N2": 6, "d": 2},
              lambda: build_lp(_ABS_SUM, 2, 6, d=2)),
}

# case -> (sha256 of serialize, repr(measured), repr(bound))
GOLDEN_VALUES = {
    "analytic-cube-d1": (
        "9386a751a5587fab3b3d26fd3e34af3a6ed7954831a9d1babd151150f80cae57",
        "0.04166666666666663", "0.25"),
    "analytic-cube-d2": (
        "42002d8291e6d864f63cc8d2a7b414a2093e2c2fe886bb2c3f36daa36c4223e2",
        "0.014030612244897933", "0.25"),
    "ellipse": (
        "c7c4839c2b672cd8b9bbd944998697442e7bab1c99de779f187576ae909747f2",
        "0.00045079941976305937", "0.00390625"),
    "hermite": (
        "d3e67fd3c6e67a52ef6f7f503969bdba45c8b6bd78a53a1ae5180d9ff19923a1",
        "0.1258919434848488", "0.36787944117144233"),
    "lp-d1": (
        "a1df6b748ca76dd1983046c919e42858b8317bc50d257ad4049c3f4bea331580",
        "0.07302342990590396", "0.723804136770589"),
    "lp-d2": (
        "d27caf7e999960206335622f57d0ca921214f320b8aecf3dc0211a72c0c1d5e1",
        "0.1670398863438914", "11.103850281699838"),
    "poly": (
        "d59fcc27ff7ebc1ef9e63bae6fe56f8a44f286ba0517d76d547c77e4aab71321",
        "0.01318359375", "0.052734375"),
    "polyNd": (
        "5c963c7e494f5236fb5858857285cf9e862e34637ec45b01b8744376b8792ab9",
        "0.005859375", "0.0087890625"),
    "smooth": (
        "764da7d726d3c8f630922d54c4366578b3d162388b2e0b94a2e7f8c1080d811f",
        "0.0017823436581363983", "0.125"),
    "trig-cos": (
        "b27c5c89c362c1b0ed2e9553f038acfdb67c22bc71c8ec726d3b4c923987a56f",
        "0.0003013950394026299", "0.015625"),
    "trig-sin": (
        "5b75f59d03576e14f439f9bc63fc6f0e6430b478a733f383581ae15a520294e2",
        "7.844031909925997e-05", "0.015625"),
}


def golden_case_values(case):
    theorem, params, build = GOLDEN_CASES[case]
    fixed = dict(params)
    name = next(iter(k for k in ("H", "N", "N2", "N1") if k in fixed))
    value = fixed.pop(name)
    (row,) = sweep(theorem, (name, [value]), fixed).rows
    return _sha(build().net), repr(row.measured), repr(row.bound)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_builds_and_measurements(case):
    assert golden_case_values(case) == GOLDEN_VALUES[case]


def test_golden_cases_cover_every_theorem():
    assert {t for t, _, _ in GOLDEN_CASES.values()} == set(
        builders.THEOREM_IDS)


# case -> forward_sha (conftest) of the case's build, recorded before the
# forward pass ran each layer in contiguous segments of its flat order
GOLDEN_FORWARD = {
    "analytic-cube-d1":
        "ad41bf01a0a4c3f39051b00396b3002143b9acfca1a565b0ea43db7fa020d44f",
    "analytic-cube-d2":
        "08f489d351207aa95219b80b73130809c82e15fbc1b1deb4f8cc6ee2dd071c56",
    "ellipse":
        "edceb5c8585372e626556141b577621ec1df439cd70e73128a9ad44c67da9f2f",
    "hermite":
        "e54cd28354c8cc090338df6147c59123e0ecab52c026f6156e365792b6282948",
    "lp-d1":
        "be0c472a88c6d7df4a97dc1830b7a5907b5de420566d4a1247f646b4b894ebab",
    "lp-d2":
        "3c85ec0662285eaec6d1371ddbdd66633bf9574b330b0c47695e4fb6e29f85ee",
    "poly":
        "175472fe76e3720128984271547f068726da11959d6b598f93415ad8ebd71d2f",
    "polyNd":
        "8926237bdfb708f0946599c8b66eb9ac6d54f01d631c987ff007dd68de671731",
    "smooth":
        "ebee24c3bcafab83b1cd968b307876b6f407a09fbf998d119f6db27c33c02b2d",
    "trig-cos":
        "e0a7087bc7634922957678742ad77e1332860024274fe1a379d47e855528ebf5",
    "trig-sin":
        "d7a5e4a4ef3afa852b02b1afc40fccad5627c2e08b66eb3d7f95d6f9a0dd3f9b",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_forward_outputs(case, forward_sha):
    assert forward_sha(GOLDEN_CASES[case][2]().net) == GOLDEN_FORWARD[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_forward_takes_one_step_per_floor(case):
    net = GOLDEN_CASES[case][2]().net
    progs, _, _ = _compile(net)
    assert [len(p.segments) for p in progs] == [len(layer.floors)
                                                for layer in net.layers]


def _with_fault(parts, kind, k, r):
    """parts with one fault at neuron r (flat) of layer k, or at readout row
    r when k is the depth."""
    input_dim, layers, rows, bias = parts
    layers, rows, bias = list(layers), list(rows), list(bias)
    prev = sum(len(f) for f in layers[k - 1]) if k else input_dim
    if k == len(layers):
        r %= len(rows)
        if kind == "bias":
            bias[r] = math.nan
        else:
            rows[r] = {**rows[r], prev if kind == "index" else 0: math.inf}
        return input_dim, layers, rows, bias
    size = sum(len(f) for f in layers[k])
    if not isinstance(layers[k], tuple) or not size:
        return parts  # an earlier fault removed the layer's neurons
    floors = [list(f) for f in layers[k]]
    r %= size
    fi = 0
    while r >= len(floors[fi]):
        r -= len(floors[fi])
        fi += 1
    nrn = floors[fi][r]
    link = {"floor": (len(floors), 0, 1.0), "huge": (10 ** 400, 0, 1.0),
            "link-index": (fi, len(floors[fi]), 1.0), "forward": (fi, r, 1.0),
            "coeff": (0, 0, math.inf)}.get(kind)
    if kind == "empty":
        floors[fi] = []
    elif kind == "layer":
        layers[k] = floors
    elif link is not None:
        floors[fi][r] = Neuron(nrn.weights, nrn.bias, nrn.intra + (link,))
    elif kind == "bias":
        floors[fi][r] = Neuron(nrn.weights, math.nan, nrn.intra)
    else:
        floors[fi][r] = Neuron({**nrn.weights,
                                prev if kind == "index" else 0: math.inf},
                               nrn.bias, nrn.intra)
    if kind != "layer":
        layers[k] = tuple(tuple(f) for f in floors)
    return input_dim, layers, rows, bias


FAULTS = ("index", "weight", "bias", "floor", "huge", "link-index", "forward",
          "coeff", "empty", "layer")


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_array_checks_match_the_scalar_reference(case):
    net = GOLDEN_CASES[case][2]().net
    parts = reference_net.parts(net)
    reference_net.validate(*parts)
    assert metrics(net) == reference_net.metrics(*parts)
    rng = np.random.default_rng(0)
    depth = len(parts[1])
    for _ in range(24):
        faulty = parts
        for _ in range(rng.integers(1, 3)):  # one or two faults
            faulty = _with_fault(faulty, FAULTS[rng.integers(len(FAULTS))],
                                 int(rng.integers(depth + 1)),
                                 int(rng.integers(1 << 30)))
        want = reference_net.decision(lambda: faulty)
        assert reference_net.array_decision(
            lambda: reference_net.pack(*faulty)) == want
        assert want[0] == "error"


# name -> (sha256 of serialize, the same net's constructor)
GOLDEN_GADGETS = {
    # the tower gadgets: sawtooth, square (with its H = 0 floor), the
    # [0, 1]^2 product, the power chain and the [-M, M]^d product chain
    "sawtooth-1": (
        "0abb4f15a54b402d4cd051a1250594e6162dd7a85c4770245ac30bebe55e91c8",
        lambda: blocks.sawtooth_net(1)),
    "sawtooth-3": (
        "a5eaebe366b9eb67186fac2c257ebae66cc2c740a885af8d3ff7088ab64dbc6e",
        lambda: blocks.sawtooth_net(3)),
    "sawtooth-8": (
        "b6f5f10960b9d5d76ac1fb33aacc4777532082494d3c264b455d188580d7e37a",
        lambda: blocks.sawtooth_net(8)),
    "square-0": (
        "d084fc2360eb18f168ec1821bbe0b34e01662115bc8b3b91b5a1ab26d9a48a3d",
        lambda: blocks.square_net(0)),
    "square-1": (
        "31a11f910689f89f5760b2497419969668f176075261ecdf0090a74ec561a49a",
        lambda: blocks.square_net(1)),
    "square-6": (
        "3b9832b4bcfb093c6cba828b20f52968ab77065c35eb787adc7a4aa1d252990e",
        lambda: blocks.square_net(6)),
    "product2-0": (
        "1fbf91dc7a43b1a0557a34e1d97d3139cd9e648fe894fcdeedd7dad9b4bcc1fd",
        lambda: blocks.product2_unit(0)),
    "product2-1": (
        "1457717cd65f558a779fb75328e9fad7a00d2cac30fbb9e785d41712c2c8d430",
        lambda: blocks.product2_unit(1)),
    "product2-5": (
        "b3112f011a9ca0f044bdadac123a1d40bc20394eff4452448d231d37447acf01",
        lambda: blocks.product2_unit(5)),
    "power-chain-1-3": (
        "993a8723a0ce61943cb8f97b023088e6f73f99e2fed39eb17a6fa5231cc31804",
        lambda: blocks.power_chain_net(1, 3)),
    "power-chain-4-3": (
        "6ab17386e208e43a488e61d8c019cdb59f665404defb7198bf0e10abe41513ff",
        lambda: blocks.power_chain_net(4, 3)),
    "product-d-1-3-2": (
        "10a44c762a995e469dc68b8929f2ad6a37bbdd4dcbdcf5153823b52f97f4a697",
        lambda: blocks.product_d_net(1, 3, M=2.0)),
    "product-d-2-4": (
        "f3b55f914eeb308d656b7bcae7593f0089df9328c9321a82d8d5193d16170846",
        lambda: blocks.product_d_net(2, 4)),
    "product-d-3-4-2": (
        "17cdd80f84ac847be81d946ebee876e448b8b87f632b59b7a5db1caa4504df7e",
        lambda: blocks.product_d_net(3, 4, M=2.0)),
    "periodic-fold-5": (
        "ba2e0d13519f564881dd63e21c64554db2967c04791d217d0f1859664f4c6d84",
        lambda: blocks.periodic_fold_net(5)),
    "clip-window-3-0.5": (
        "71a6ac683138b96e0b3083dac4ccbaf510f862f700ea92eed49ab1f0b6d8a53d",
        lambda: blocks.clip_window_net(3.0, 0.5)),
    "clipped-hermite-0": (
        "0798f8be1ad06d5c648f676c0e51dcc84c1f318e07b5bb68f7f035cf6052a447",
        lambda: build_clipped_hermite(0, 3.0, 0.5, 4).net),
    "clipped-hermite-1": (
        "76beefddd2241846d70f4f02a433f0402ae1e2d0c583c9485fc55387d47c3803",
        lambda: build_clipped_hermite(1, 3.0, 0.5, 4).net),
    "clipped-hermite-4": (
        "8af31bc7c5bf99fd286c56d4e1e7173b8f389b89af407786b69ab7ebacbdf815",
        lambda: build_clipped_hermite(4, 3.0, 0.5, 4).net),
    # trig fold branches: s = sp = 0 at k = 1, one tent floor at k = 2,
    # three at k = 7; the shortest chain (N2 = 1) and a longer one
    "trig-cos-1-1": (
        "d2a9c804b419284d79d27b193ac99f7923978cff4d034bb99dffbeb935b58146",
        lambda: build_trig(1, 1, kind="cos").net),
    "trig-cos-2-1": (
        "fd824f1ed08a93f229caa2f2afb460b6d12d3b8dff80b9a7f0622263f82ded84",
        lambda: build_trig(2, 1, kind="cos").net),
    "trig-cos-7-1": (
        "555782975ea1edb3a06f4823cdb92ef98add501fa2ce37fb9ebd1ee98c368053",
        lambda: build_trig(7, 1, kind="cos").net),
    "trig-cos-1-8": (
        "4f549458e190c7f8bece59f7e6c2791229ebc669404b68bb607548fb1785a4e3",
        lambda: build_trig(1, 8, kind="cos").net),
    "trig-cos-2-8": (
        "4f66e4c8b2f294710615cbf34975bc65fc2c37cd03ddb00005fbe6c2d7728a23",
        lambda: build_trig(2, 8, kind="cos").net),
    "trig-cos-7-8": (
        "a0abc020460c5298dff3c57998d67c1d8c42adeec89907721af03334531fd9be",
        lambda: build_trig(7, 8, kind="cos").net),
    "trig-sin-1-1": (
        "e2ab4e5ea0ca73ab850f6b7f28468fbd31cf24ce394b1296b5ac1253b9c37b5c",
        lambda: build_trig(1, 1, kind="sin").net),
    "trig-sin-2-1": (
        "aeac9c45a85ce08dc3b3a043ac2c1321ec7c530868d006e18b2e4d751a14db4e",
        lambda: build_trig(2, 1, kind="sin").net),
    "trig-sin-7-1": (
        "f9bbe9c745dac814ae0f4165dace3fe28cd9fb9a2c1c8126095bb68e8feae435",
        lambda: build_trig(7, 1, kind="sin").net),
    "trig-sin-1-8": (
        "015602df23e74e895cd07debf9151034dda74f13c84f81bde6b26d3be5978d95",
        lambda: build_trig(1, 8, kind="sin").net),
    "trig-sin-2-8": (
        "b7bd370e535b2d68df76384872409b2b99ec3015d282d9e1ddb8842b9d3e2c0b",
        lambda: build_trig(2, 8, kind="sin").net),
    "trig-sin-7-8": (
        "b54e44ac60b8a1288c1217b89cd24cfcdf9ab54b35de7aaa112f7549dc3bce41",
        lambda: build_trig(7, 8, kind="sin").net),
    # an odd target: the lp goldens above are even and build no sine factor
    "lp-step-4-8": (
        "a5269ffdbd0797c4f1033dbbf28ef1f8f1ad09a45742aba7c0557e3974f7e42c",
        lambda: build_lp(TargetSpec.catalog("step", domain="sym-cube"),
                         4, 8).net),
    # a d = 2 target with terms in all four parity components (25 terms)
    "lp-geo-d2-3-6": (
        "862f8ec0f0e98afbca8db5d7fb93303c1d924e8e72dd38caa2c468f6b16bce5e",
        lambda: build_lp(_GEO2_SYM, 3, 6, d=2).net),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GADGETS))
def test_golden_gadget_hashes(name):
    want, make = GOLDEN_GADGETS[name]
    assert _sha(make()) == want


# the lp-wide-forward benchmark net, build_lp(abs-power, N1=32, N2=24, d=1)
# (108k neurons): sha256 of serialize and of its forward output on 257
# evenly spaced points of [-1, 1]
GOLDEN_LP_WIDE = (
    "0d5b951f9265bdc3a516ea8e5b6068a3e54da73e9ddc98b6546345330812e506",
    "375f98d412fddfd39704c87b4277dd0dbb58b72c51c4dedf483d3325f90076b7")


def test_golden_lp_wide_net():
    net = build_lp(_ABS_POW, 32, 24, d=1).net
    y = evaluate_array(net, np.linspace(-1.0, 1.0, 257))
    assert (_sha(net), hashlib.sha256(y.tobytes()).hexdigest()) == \
        GOLDEN_LP_WIDE


def test_golden_lp_d2_terms_in_every_parity_component():
    rep = build_lp(_GEO2_SYM, 3, 6, d=2)
    terms, dropped = rep.meta["terms"], rep.meta["dropped_mass"]
    assert len(terms) == 25
    assert {eta for eta, _, _ in terms} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert hashlib.sha256(repr((terms, dropped)).encode()).hexdigest() == \
        "5f8979f5d5d5857165fd730b1f7192a8c8a10943aef9184e773b61925ab9ab9f"


# (id, params) -> repr of (width, depth, height) and of the stated bound
GOLDEN_FORMULAS = [
    ("poly", {"n": 3, "H": 4, "amax": 2.0}),
    ("polyNd", {"n": 3, "H": 5, "d": 2, "amax": 0.75}),
    ("smooth", {"N": 5}),
    ("analytic-cube", {"N": 6, "delta": 0.25, "d": 2}),
    ("ellipse", {"N": 7, "rho": 4.5, "d": 2}),
    ("hermite", {"N": 5, "d": 1, "B": 0.7}),
    ("trig", {"k": 5, "N2": 9}),
    ("lp", {"N1": 6, "N2": 10, "d": 2, "r": 2, "omega": 0.03,
            "norm": 1.7}),
    ("baseline-poly", {"N": 7}),
    ("baseline-analytic", {"N": 5, "d": 2, "delta": 0.5}),
    ("baseline-ellipse", {"N": 6, "d": 2}),
    ("baseline-hermite", {"N": 9}),
]
GOLDEN_FORMULA_VALUES = {
    "poly": "(8, 2, 4, 0.052734375)",
    "polyNd": "(281, 2, 5, 0.1522098653191586)",
    "smooth": "(8, 5, 13, 0.03125)",
    "analytic-cube": "(713, 5, 2, 0.35595703125)",
    "ellipse": "(901, 6, 14, 0.0005844710622515605)",
    "hermite": "(40, 5, 17, 0.2090362526821938)",
    "trig": "(8, 10, 15, 0.001953125)",
    "lp": "(216, 12, 16, 2.98875)",
    "baseline-poly": "(1, 7, 1, 0.0078125)",
    "baseline-analytic": "(1, 625, 1, 0.03125)",
    "baseline-ellipse": "(1296, 36, 1, 0.015625)",
    "baseline-hermite": "(0, 91, 1, 0.12491974060580747)",
}


def formula_row(theorem_id, params):
    m = expected_size(theorem_id, params)
    return repr((m.width, m.depth, m.height,
                 expected_bound(theorem_id, params)))


@pytest.mark.parametrize("theorem_id,params", GOLDEN_FORMULAS,
                         ids=[t for t, _ in GOLDEN_FORMULAS])
def test_golden_size_and_bound_formulas(theorem_id, params):
    assert formula_row(theorem_id, params) == \
        GOLDEN_FORMULA_VALUES[theorem_id]


def test_golden_formulas_cover_every_id():
    assert {t for t, _ in GOLDEN_FORMULAS} == set(
        builders.THEOREM_IDS + builders.BASELINE_IDS)


@pytest.mark.parametrize("value", [math.inf, -math.inf, 1e400])
def test_normalize_refuses_an_integer_parameter_out_of_range(value):
    spec = builders.THEOREMS["poly"]
    with pytest.raises(ValueError, match="bad value .* for H"):
        spec.normalize({"coeffs": [0.0, 0.0, 1.0], "H": value})


def min_height_table():
    """_min_height over amounts and budgets spanning its three branches:
    amount <= 0, a first guess that is too low, and one that is too high."""
    return [builders._min_height(a, b)
            for a in (0.0, 1e-3, 0.5, 1.0, 3.0, 1e3, 1e12, 1e200)
            for b in (1e-30, 1e-12, 1e-6, 1e-3, 0.1, 1.0, 10.0)]


@pytest.mark.parametrize("amount, budget", [(1e300, 1e-30), (math.inf, 1.0)])
def test_min_height_refuses_a_ratio_out_of_the_float_range(amount, budget):
    with pytest.raises(ValueError, match="out of the float range"):
        builders._min_height(amount, budget)


def test_golden_min_height():
    digest = hashlib.sha256(repr(min_height_table()).encode()).hexdigest()
    assert digest == \
        "29cbc938b8ea39e5b88ac8e958f3d5e1d164deac6c71b3d8b9bab2d027076235"
