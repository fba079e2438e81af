"""Gadget networks: sawtooth, square, products, power chain, fold, clip."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relu3d import blocks
from relu3d.net import NetFormatError, evaluate, evaluate_array, metrics

UNIT = np.linspace(0.0, 1.0, 4097)[:, None]


def tri(t):
    t = np.asarray(t, dtype=float)
    return 1.0 - 2.0 * np.abs(t - np.floor(t) - 0.5)


# -- sawtooth ---------------------------------------------------------------


def test_sawtooth_tent_values():
    g1 = blocks.sawtooth_net(1)
    assert evaluate(g1, [0.5]) == 1.0
    g2 = blocks.sawtooth_net(2)
    assert evaluate(g2, [0.25]) == 1.0
    assert evaluate(g2, [0.5]) == 0.0
    g3 = blocks.sawtooth_net(3)
    for x in (1 / 8, 3 / 8, 5 / 8, 7 / 8):
        assert evaluate(g3, [x]) == pytest.approx(1.0, abs=1e-15)


def test_sawtooth_rejects_zero():
    with pytest.raises(ValueError):
        blocks.sawtooth_net(0)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 6])
def test_sawtooth_matches_closed_form(s):
    net = blocks.sawtooth_net(s)
    got = evaluate_array(net, UNIT)
    want = tri(UNIT[:, 0] * 2.0 ** (s - 1))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_sawtooth_breakpoint_exactness():
    s = 4
    net = blocks.sawtooth_net(s)
    nodes = np.arange(2 ** s + 1) / 2.0 ** s
    got = evaluate_array(net, nodes[:, None])
    want = tri(nodes * 2.0 ** (s - 1))
    assert np.array_equal(np.round(got, 15), np.round(want, 15))


# -- square -----------------------------------------------------------------


def test_square_h0_is_identity():
    net = blocks.square_net(0)
    assert evaluate(net, [0.3]) == pytest.approx(0.3, abs=1e-15)


@pytest.mark.parametrize("H", [1, 2, 4, 6])
def test_square_node_exactness(H):
    net = blocks.square_net(H)
    nodes = np.arange(2 ** H + 1) / 2.0 ** H
    got = evaluate_array(net, nodes[:, None])
    assert np.max(np.abs(got - nodes ** 2)) <= 1e-14


@pytest.mark.parametrize("H", [1, 3, 5, 8])
def test_square_sup_error_is_quarter_step_squared(H):
    net = blocks.square_net(H)
    mids = (np.arange(2 ** H) + 0.5) / 2.0 ** H
    err = np.abs(evaluate_array(net, mids[:, None]) - mids ** 2)
    assert np.max(err) == pytest.approx(2.0 ** (-2 * (H + 1)), rel=1e-12)


def test_square_error_quarters_per_height_increment():
    sups = []
    for H in range(1, 11):
        net = blocks.square_net(H)
        mids = (np.arange(2 ** H) + 0.5) / 2.0 ** H
        sups.append(np.max(np.abs(evaluate_array(net, mids[:, None])
                                  - mids ** 2)))
    ratios = np.array(sups[:-1]) / np.array(sups[1:])
    assert np.all(np.abs(ratios - 4.0) < 0.04)


# -- bivariate product ------------------------------------------------------


def test_product2_zero_row():
    net = blocks.product2_unit(4)
    ys = np.linspace(0, 1, 65)
    pts = np.column_stack([np.zeros_like(ys), ys])
    assert np.max(np.abs(evaluate_array(net, pts))) <= 1e-14


def test_product2_even_lattice_exact():
    H = 4
    net = blocks.product2_unit(H)
    nodes = 2.0 * np.arange(2 ** (H - 1) + 1) / 2.0 ** H
    X, Y = np.meshgrid(nodes, nodes)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    got = evaluate_array(net, pts)
    assert np.max(np.abs(got - pts[:, 0] * pts[:, 1])) <= 1e-12


@pytest.mark.parametrize("H", [2, 4, 7])
def test_product2_sup_error_bound(H):
    net = blocks.product2_unit(H)
    n = 2 ** min(H + 2, 9) + 1
    u = np.linspace(0, 1, n)
    X, Y = np.meshgrid(u, u)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    err = np.abs(evaluate_array(net, pts) - pts[:, 0] * pts[:, 1])
    assert np.max(err) <= 6.0 * 2.0 ** (-2 * (H + 1))


def test_product2_metrics():
    m = metrics(blocks.product2_unit(5))
    assert m.width <= 6
    assert m.depth == 1
    assert m.height == 5


def test_product2_range():
    net = blocks.product2_unit(3)
    pts = np.random.default_rng(2).uniform(0, 1, size=(10000, 2))
    vals = evaluate_array(net, pts)
    assert np.all(vals >= -1e-12)
    assert np.all(vals <= 1.0 + 1e-12)


# -- multivariate product ---------------------------------------------------


def test_product_d_metrics_and_bound():
    d, H, M = 3, 6, 2.0
    net = blocks.product_d_net(d, H, M=M)
    m = metrics(net)
    assert m.width <= 4 + d
    assert m.depth == d - 1
    assert m.height == H + 1
    rng = np.random.default_rng(3)
    pts = rng.uniform(-M, M, size=(20000, d))
    err = np.abs(evaluate_array(net, pts) - np.prod(pts, axis=1))
    assert np.max(err) <= 6.0 * (d - 1) * M ** d * 2.0 ** (-2 * (H + 1))


def test_product2_sym_corner():
    net = blocks.product_d_net(2, 6, M=1.0)
    got = evaluate(net, [-1.0, 1.0])
    assert abs(got - (-1.0)) <= 6.0 * 2.0 ** (-14)


def test_product_d_zero_factor_node():
    net = blocks.product_d_net(3, 5, M=1.0)
    rng = np.random.default_rng(4)
    ab = rng.uniform(-1, 1, size=(50, 2))
    pts = np.column_stack([np.zeros(50), ab])
    assert np.max(np.abs(evaluate_array(net, pts))) <= 1e-12


def test_product_d_rejects_bad_scale():
    with pytest.raises(ValueError):
        blocks.product_d_net(2, 4, M=0.0)


def test_product_d_degenerates_to_identity():
    net = blocks.product_d_net(1, 4, M=2.0)
    xs = np.linspace(-2, 2, 257)[:, None]
    assert np.max(np.abs(evaluate_array(net, xs) - xs[:, 0])) <= 1e-12


def test_square_gadgets_refuse_heights_whose_divisor_overflows():
    # 4^511 is the largest power of 4 in the float range
    assert metrics(blocks.square_net(511)).height == 511
    assert metrics(blocks.product_d_net(2, 511)).height == 512
    for build in (blocks.square_net, blocks.product2_unit,
                  lambda H: blocks.product_d_net(2, H)):
        with pytest.raises(NetFormatError, match="divisor 4\\^512"):
            build(512)
    with pytest.raises(NetFormatError, match="divisor 4\\^600"):
        blocks.product_d_net(2, 600)


# -- power chain ------------------------------------------------------------


def test_power_chain_base_and_bounds():
    n, H = 4, 6
    net = blocks.power_chain_net(n, H)
    xs = np.linspace(0, 1, 513)[:, None]
    vals = evaluate_array(net, xs)
    assert np.max(np.abs(vals[:, 0] - xs[:, 0])) <= 1e-14
    for k in range(2, n + 1):
        err = np.max(np.abs(vals[:, k - 1] - xs[:, 0] ** k))
        assert err <= 6.0 * (k - 1) * 2.0 ** (-2 * (H + 1))
        assert np.all(vals[:, k - 1] >= -1e-12)
        assert np.all(vals[:, k - 1] <= 1.0 + 1e-12)


def test_power_chain_exact_at_one():
    net = blocks.power_chain_net(4, 5)
    vals = evaluate(net, [1.0])
    assert np.max(np.abs(np.asarray(vals) - 1.0)) <= 1e-12


# -- periodic fold ----------------------------------------------------------


def test_fold_values():
    f1 = blocks.periodic_fold_net(1)
    assert evaluate(f1, [-0.5]) == pytest.approx(0.5, abs=1e-15)
    f2 = blocks.periodic_fold_net(2)
    assert evaluate(f2, [0.5]) == pytest.approx(1.0, abs=1e-15)
    f4 = blocks.periodic_fold_net(4)
    assert evaluate(f4, [1.0]) == pytest.approx(0.0, abs=1e-14)


def test_fold_range_and_symmetry():
    net = blocks.periodic_fold_net(3)
    xs = np.linspace(-1, 1, 2049)[:, None]
    vals = evaluate_array(net, xs)
    assert np.all(vals >= -1e-12)
    assert np.all(vals <= 1.0 + 1e-12)
    assert np.max(np.abs(vals - vals[::-1])) <= 1e-12


def test_fold_matches_cosine_argument():
    # cos(pi * fold_k(x)) should equal cos(k pi x)
    for k in (1, 2, 3, 5, 8):
        net = blocks.periodic_fold_net(k)
        xs = np.linspace(-1, 1, 1025)[:, None]
        vals = evaluate_array(net, xs)
        dev = np.max(np.abs(np.cos(math.pi * vals)
                            - np.cos(k * math.pi * xs[:, 0])))
        assert dev <= 1e-10


# -- clip window ------------------------------------------------------------


def test_clip_window_values():
    M, delta = 4.0, 0.5
    net = blocks.clip_window_net(M, delta)
    xi0, chi0 = evaluate(net, [0.0])
    assert xi0 == pytest.approx(0.0, abs=1e-14)
    assert chi0 == pytest.approx(1.0, abs=1e-14)
    xiM, chiM = evaluate(net, [M])
    assert xiM == pytest.approx(0.0, abs=1e-12)
    assert chiM == pytest.approx(0.0, abs=1e-12)
    xi_mid, _ = evaluate(net, [M - delta / 2.0])
    assert xi_mid == pytest.approx((M - delta) / 2.0, abs=1e-12)


def test_clip_window_identity_in_core():
    M, delta = 3.0, 0.25
    net = blocks.clip_window_net(M, delta)
    xs = np.linspace(-(M - delta), M - delta, 257)[:, None]
    vals = evaluate_array(net, xs)
    assert np.max(np.abs(vals[:, 0] - xs[:, 0])) <= 1e-12
    assert np.max(np.abs(vals[:, 1] - 1.0)) <= 1e-12


def test_clip_window_zero_outside():
    M, delta = 2.0, 0.5
    net = blocks.clip_window_net(M, delta)
    xs = np.concatenate([np.linspace(-M - 3, -M, 64),
                         np.linspace(M, M + 3, 64)])[:, None]
    vals = evaluate_array(net, xs)
    assert np.max(np.abs(vals)) <= 1e-12


def test_clip_window_rejects_bad_delta():
    with pytest.raises(ValueError):
        blocks.clip_window_net(1.0, 1.5)


# -- property checks --------------------------------------------------------


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 6), st.floats(0, 1))
def test_sawtooth_recursion_property(s, x):
    direct = evaluate(blocks.sawtooth_net(s), [x])
    want = float(tri(np.array(x) * 2.0 ** (s - 1)))
    assert direct == pytest.approx(want, abs=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 7))
def test_square_metrics_property(H):
    m = metrics(blocks.square_net(H))
    assert (m.width, m.depth, m.height) == (2, 1, H)
