"""Expansion machinery: Chebyshev, power series, Hermite, Jackson kernels,
the kernel trigonometric operator, parity split, and the smoothness modulus."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from relu3d.chebyshev import cheb_to_monomial_matrix, chebyshev_tensor_coeffs
from relu3d.hermite import (gauss_nodes, hermite_eval, hermite_expansion,
                            hermite_orthonormality_check, hermite_poly_coeffs,
                            hermite_tail_bound)
from relu3d.jackson import fejer_coeffs, jackson_kernel, kernel_eval, \
    kernel_moments
from relu3d.smoothness import modulus_smoothness
from relu3d.targets import (ParityComponent, TargetSpec, parity_decompose,
                            parity_values, power_series_truncate)
from relu3d.trig_operator import (_default_nodes, _torus_grid, alpha_coeffs,
                                  apply_Tn_nd, trig_operator_parts)

# -- Chebyshev --------------------------------------------------------------


def test_chebyshev_reproduces_square():
    poly = chebyshev_tensor_coeffs(lambda p: p[:, 0] ** 2, 2, 1)
    vec = poly.coeff_vector_1d()
    assert np.allclose(vec, [0.0, 0.0, 1.0], atol=1e-12)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 8), st.lists(st.floats(-3, 3), min_size=1, max_size=9))
def test_chebyshev_polynomial_reproduction(m, coeffs):
    coeffs = coeffs[:m + 1]
    c = np.asarray(coeffs + [0.0] * (m + 1 - len(coeffs)))
    poly = chebyshev_tensor_coeffs(
        lambda p: np.polynomial.polynomial.polyval(p[:, 0], c), m, 1)
    assert np.max(np.abs(poly.coeff_vector_1d() - c)) <= 1e-9 * max(
        1.0, np.max(np.abs(c)))


def test_chebyshev_interp_error_reciprocal():
    m = 8
    target = TargetSpec.catalog("reciprocal-shift")
    poly = chebyshev_tensor_coeffs(target, m, 1)
    xs = np.linspace(0, 1, 4097)[:, None]
    resid = np.max(np.abs(poly(xs) - target(xs)))
    # |f^(9)| <= 9!/2^10 on [0,1] for 1/(x+2)
    bound = (math.factorial(m + 1) / 2.0 ** (m + 2)) \
        / (math.factorial(m + 1) * 2.0 ** m)
    assert resid <= bound


def test_chebyshev_coeff_bound_flag():
    # the stated monomial coefficient bound |a_k| <= 2(m+1)3^m
    m = 6
    poly = chebyshev_tensor_coeffs(
        TargetSpec.catalog("cosine", params=()), m, 1)
    assert np.all(np.abs(poly.coeff_vector_1d()) <= 2.0 * (m + 1) * 3.0 ** m)


def test_chebyshev_refuses_degrees_whose_growth_overflows():
    # the monomial conversion matrix is finite up to degree 404 and holds
    # inf and nan entries from 405 on, where every interpolant had
    # non-finite coefficients; from 647 on, 3^m overflows as well
    assert np.all(np.isfinite(cheb_to_monomial_matrix(404)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(cheb_to_monomial_matrix(405)))
    for f in (np.cos, lambda x: 1.0 / (x + 2.0), lambda x: np.exp(x - 1.0)):
        target = lambda p, f=f: f(p[:, 0])
        poly = chebyshev_tensor_coeffs(target, 404, 1)
        assert np.all(np.isfinite(poly.coeff_vector_1d()))
        for m in (405, 646, 647):
            with pytest.raises(ValueError, match=f"degree {m} is too large"):
                chebyshev_tensor_coeffs(target, m, 1)
    for m in (405, 647):
        with pytest.raises(ValueError, match=f"degree {m} is too large"):
            chebyshev_tensor_coeffs(np.cos, m, 2)


def test_cheb_to_monomial_matrix_small_cases():
    C = cheb_to_monomial_matrix(2)
    # T_0 = 1; T_1(2x-1) = 2x - 1; T_2(2x-1) = 8x^2 - 8x + 1
    assert np.allclose(C[:, 0], [1, 0, 0])
    assert np.allclose(C[:, 1], [-1, 2, 0])
    assert np.allclose(C[:, 2], [1, -8, 8])


def test_chebyshev_tensor_product_target():
    poly = chebyshev_tensor_coeffs(lambda p: p[:, 0] * p[:, 1], 2, 2)
    for j, a in poly.coeffs.items():
        want = 1.0 if j == (1, 1) else 0.0
        assert a == pytest.approx(want, abs=1e-10)


# (expansion, target, degree, d) -> sha256 of repr(sorted(coeffs.items())),
# recorded before the axis-by-axis contraction moved into polynd.contract
GOLDEN_TENSOR_EXPANSIONS = {
    ("chebyshev", "geometric-product", 4, 2):
        "65839d4d2dffa6940cbab10d3a1b976dc1f108c51283ec1d0c06a6cbf1f715cc",
    ("hermite", "gaussian-bump", 4, 2):
        "757410a7f308c9587a6dbd20413117dbb13f97dd7ec75d6e820d9f47a5be8b5b",
    ("hermite", "gaussian-bump", 3, 3):
        "249adcf3cbc9c72f4baf497308f98342b6c83f7c7028ca53c03ebb9efd4f6634",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_TENSOR_EXPANSIONS))
def test_golden_tensor_expansion_coefficients(case):
    kind, name, degree, d = case
    target = TargetSpec.catalog(name, d=d)
    if kind == "chebyshev":
        coeffs = chebyshev_tensor_coeffs(target, degree, d).coeffs
    else:
        coeffs = hermite_expansion(target, degree, d=d).coeffs
    digest = hashlib.sha256(repr(sorted(coeffs.items())).encode())
    assert digest.hexdigest() == GOLDEN_TENSOR_EXPANSIONS[case]


def test_chebyshev_coefficient_geometric_decay():
    target = TargetSpec.catalog("reciprocal-shift")
    poly = chebyshev_tensor_coeffs(target, 14, 1)
    c = np.abs(poly.meta["cheb_coeffs"])
    ratios = c[5:13] / c[4:12]
    assert np.all(ratios < 0.5)
    assert np.std(ratios) < 0.1


# -- power series -----------------------------------------------------------


def test_power_series_geometric_mass():
    target = TargetSpec.catalog("geometric-product", d=2)
    poly = power_series_truncate(target, 4)
    assert poly.coeffs[(0, 0)] == pytest.approx(0.25, abs=1e-15)
    assert poly.coeffs[(1, 1)] == pytest.approx(0.25 * 0.25, abs=1e-15)
    mass = sum(abs(a) for a in poly.coeffs.values())
    assert mass <= 1.0 + 1e-12


def test_power_series_residual_bound():
    delta = 0.5
    target = TargetSpec.catalog("geometric-product", d=1)
    for N in (0, 3, 6):
        poly = power_series_truncate(target, N)
        xs = np.linspace(0, 1 - delta, 1025)[:, None]
        resid = np.max(np.abs(poly(xs) - target(xs)))
        assert resid <= (1 - delta) ** N + 1e-12


def test_power_series_rejects_heavy_mass():
    heavy = TargetSpec(kind="explicit-power-series",
                       coeffs=(((0,), 2.0), ((1,), 1.0)), d=1)
    with pytest.raises(ValueError, match="rescale"):
        power_series_truncate(heavy, 4)


# -- Hermite ----------------------------------------------------------------


def test_hermite_low_order_coeffs():
    assert np.allclose(hermite_poly_coeffs(0), [1.0])
    assert np.allclose(hermite_poly_coeffs(1), [0.0, 1.0])
    c2 = hermite_poly_coeffs(2)
    assert np.allclose(c2, [-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)])


def test_hermite_coeff_sum_bound():
    for n in range(13):
        total = np.sum(np.abs(hermite_poly_coeffs(n)))
        assert total <= 6.0 ** (n / 2.0) * (1 + 1e-12)


def test_hermite_eval_values_and_recurrence_agreement():
    assert hermite_eval(2, np.array([0.0]))[0] == pytest.approx(
        -1 / math.sqrt(2), abs=1e-14)
    xs = np.linspace(-4, 4, 257)
    for n in range(13):
        c = hermite_poly_coeffs(n)
        mono = np.polynomial.polynomial.polyval(xs, c)
        dev = np.max(np.abs(hermite_eval(n, xs) - mono))
        assert dev <= 1e-8 * max(1.0, np.max(np.abs(mono)))


def test_hermite_orthonormality():
    assert hermite_orthonormality_check(12) <= 1e-8


def test_hermite_expansion_trivial_targets():
    one = TargetSpec.catalog("constant", domain="gaussian-line")
    exp = hermite_expansion(one, 6)
    for nu, c in exp.coeffs.items():
        want = 1.0 if nu == (0,) else 0.0
        assert c == pytest.approx(want, abs=1e-10)
    lin = TargetSpec.catalog("linear", domain="gaussian-line")
    exp = hermite_expansion(lin, 6)
    for nu, c in exp.coeffs.items():
        want = 1.0 if nu == (1,) else 0.0
        assert c == pytest.approx(want, abs=1e-10)


def test_hermite_expansion_cosine_decay():
    cos = TargetSpec.catalog("cosine", domain="gaussian-line")
    exp = hermite_expansion(cos, 20)
    # exact coefficients: <cos, Xi_nu> = e^(-1/2) (-1)^(nu/2) / sqrt(nu!)
    # for even nu, so the tail past 14 is about |c_16| ~ 1.3e-7
    assert exp.coeffs[(0,)] == pytest.approx(math.exp(-0.5), abs=1e-10)
    assert exp.coeffs[(2,)] == pytest.approx(
        -math.exp(-0.5) / math.sqrt(2), abs=1e-10)
    assert exp.tail_l2(12) <= 1e-5
    assert exp.tail_l2(16) <= 1e-8


def numeric_hermite_tail(n, M):
    def integrand(x):
        return (hermite_eval(n, np.array([x]))[0] ** 2
                * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi))
    hi, _ = integrate.quad(integrand, M, M + 40.0)
    lo, _ = integrate.quad(integrand, -M - 40.0, -M)
    return hi + lo


@pytest.mark.parametrize("M", [2.0, 4.0, 8.0])
def test_hermite_tail_bound_dominates(M):
    for n in range(7):
        assert hermite_tail_bound(n, M) >= numeric_hermite_tail(n, M)


def test_hermite_tail_bound_monotone_in_n():
    vals = [hermite_tail_bound(n, 3.0) for n in range(8)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_gauss_nodes_weights_sum_to_one():
    _, w = gauss_nodes(64)
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)


# -- Jackson kernels --------------------------------------------------------


def test_fejer_coeffs_m3():
    assert np.allclose(fejer_coeffs(3), [1 / 3, 2 / 3, 1.0, 2 / 3, 1 / 3])


def test_jackson_r1_is_normalized_fejer():
    K = jackson_kernel(8, 1)
    assert K.m == 9
    assert 2.0 * math.pi * K.a[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_jackson_normalization_sweep(r):
    for n in range(r, 65, 7):
        K = jackson_kernel(n, r)
        assert abs(2.0 * math.pi * K.a[0] - 1.0) <= 1e-10
        assert np.all(K.a_tilde > 0)


def test_jackson_rejects_r_above_n():
    with pytest.raises(ValueError):
        jackson_kernel(2, 3)


def test_kernel_positivity():
    K = jackson_kernel(12, 2)
    t = np.linspace(-math.pi, math.pi, 10001)
    assert np.min(kernel_eval(K, t)) >= -1e-10


def test_kernel_zeroth_moment_is_one():
    K = jackson_kernel(16, 2)
    assert kernel_moments(K, 0) == pytest.approx(1.0, abs=1e-10)


def test_kernel_moments_reject_high_order():
    K = jackson_kernel(16, 2)
    with pytest.raises(ValueError):
        kernel_moments(K, 3)


@pytest.mark.parametrize("k", [1, 2])
def test_kernel_moment_scaling(k):
    vals = [kernel_moments(jackson_kernel(n, 2), k) * n ** k
            for n in range(8, 65, 8)]
    assert max(vals) <= 2.0 * min(vals) + 1e-9


# -- T_n operator -----------------------------------------------------------


def Tn_periodic(f, n, r, xs):
    """T_n f at points xs of [-pi, pi] for a target f on [-pi, pi]: the
    builders' operator, trig_operator_parts summed over the parities, on
    the pullback g(y) = f(pi y) to [-1, 1], evaluated at xs / pi."""
    g = lambda p: f(np.asarray(p) * math.pi)
    g.d = 1
    ys = np.asarray(xs, dtype=float) / math.pi
    return sum(apply_Tn_nd(c, ys) for _, c in trig_operator_parts(g, n, r, 1))


def _difference_integral(f, n, r, xs):
    """The defining integral T_n f(x) = int [(-1)^(r+1) Delta_t^r f(x)
    + f(x)] K(t) dt, by the trapezoid rule on 4096 torus nodes."""
    K = jackson_kernel(n, r)
    t = -math.pi + 2 * math.pi * np.arange(4096) / 4096
    w = 2 * math.pi / 4096
    Kt = kernel_eval(K, t)
    want = []
    for x in xs:
        delta = np.zeros_like(t)
        for k in range(r + 1):
            delta += (-1.0) ** (r - k) * math.comb(r, k) * f(x + k * t)
        want.append(np.sum(((-1.0) ** (r + 1) * delta + f(x)) * Kt) * w)
    return np.asarray(want)


def test_Tn_reproduces_constants():
    xs = np.linspace(-math.pi, math.pi, 257)
    got = Tn_periodic(lambda p: np.ones(p.shape[0]), 8, 2, xs)
    assert np.max(np.abs(got - 1.0)) <= 1e-10


def test_Tn_matches_difference_integral_definition():
    n, r = 6, 2
    f = lambda u: np.sin(u) + 0.3 * np.cos(2 * u)
    xs = np.linspace(-math.pi, math.pi, 33)
    got = Tn_periodic(lambda p: f(p[:, 0]), n, r, xs)
    assert np.max(np.abs(got - _difference_integral(f, n, r, xs))) <= 1e-10


def test_Tn_linearity():
    n, r = 10, 2
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-2, 2, 2)
    f = lambda p: np.sin(3 * p[:, 0])
    g = lambda p: np.cos(2 * p[:, 0]) + 0.5
    combo = lambda p: a * f(p) + b * g(p)
    xs = np.linspace(-math.pi, math.pi, 101)
    lhs = Tn_periodic(combo, n, r, xs)
    rhs = a * Tn_periodic(f, n, r, xs) + b * Tn_periodic(g, n, r, xs)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def l2_pi(fn_vals, n):
    return math.sqrt(np.mean(fn_vals ** 2) * 2 * math.pi)


def test_Tn_norm_bound_step():
    n, r = 16, 2
    f = lambda p: np.sign(p[:, 0])
    xs = -math.pi + 2 * math.pi * (np.arange(4096) + 0.5) / 4096
    norm_T = l2_pi(Tn_periodic(f, n, r, xs), n)
    norm_f = l2_pi(f(xs[:, None]), n)
    assert norm_T <= r * norm_f * (1 + 1e-9)


def test_Tn_nd_parity_tensor_matches_1d():
    target = TargetSpec.catalog("abs", d=1, domain="sym-cube")
    tc = dict(trig_operator_parts(target, 8, 2, 1))[(0,)]   # even: |x|
    xs = np.linspace(-1, 1, 257)
    got = apply_Tn_nd(tc, xs[:, None])
    # the same operator by its defining integral on [-pi, pi], applied to
    # the periodic extension of |u / pi|
    f = lambda u: np.abs(np.remainder(u + math.pi, 2 * math.pi) - math.pi) \
        / math.pi
    want = _difference_integral(f, 8, 2, xs * math.pi)
    # the expansion's trapezoid integrals of |u / pi| cos(ju) on 4096 nodes
    # err by about h^2 / 12 times the derivative jumps, 4 / pi at most
    h = 2 * math.pi / 4096
    alpha, _ = alpha_coeffs(8, 2)
    tol = np.sum(np.abs(alpha)) * h * h / 12 * 4 / math.pi
    assert np.max(np.abs(got - want)) <= tol


def test_Tn_expansion_of_a_cosine_has_one_coefficient():
    # cos(3 pi y): its cosine integral at frequency 3 is pi, all others 0
    target = TargetSpec.catalog("cosine", domain="sym-cube", omega=3 * math.pi)
    alpha, _ = alpha_coeffs(4, 2)
    parts = dict(trig_operator_parts(target, 4, 2, 1))
    even = dict(parts[(0,)].a)
    assert abs(even.pop((3,)) - math.pi * alpha[3]) <= 1e-12
    rest = list(even.values()) + list(parts[(1,)].a.values())
    assert max(map(abs, rest), default=0.0) <= 1e-12


def test_alpha_zero_reproduces_kernel_constant():
    alpha, K = alpha_coeffs(8, 2)
    assert alpha[0] == pytest.approx(K.a[0], abs=1e-15)


# -- parity decomposition ---------------------------------------------------


def test_parity_components_sum_to_target():
    target = TargetSpec.catalog("abs-sum", d=2, domain="sym-cube")
    comps = parity_decompose(target)
    assert len(comps) == 4
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1, 1, size=(200, 2))
    total = sum(c(pts) for c in comps)
    assert np.max(np.abs(total - target(pts))) <= 1e-12


def test_parity_of_odd_function():
    target = TargetSpec.catalog("step", d=1, domain="sym-cube")
    even, odd = parity_decompose(target)
    pts = np.linspace(-1, 1, 101)[:, None]
    pts = pts[np.abs(pts[:, 0]) > 1e-9]
    assert np.max(np.abs(even(pts))) <= 1e-12
    assert np.max(np.abs(odd(pts) - np.sign(pts[:, 0]))) <= 1e-12


PARITY_TARGETS = ("abs-sum", "geometric-product", "gaussian-bump", "step")


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", PARITY_TARGETS)
def test_parity_values_match_each_component_bitwise(name, d):
    target = TargetSpec.catalog(name, d=d, domain="sym-cube")
    rng = np.random.default_rng(d)
    # the L^p torus grid at d = 1 and 2; its default 1024^3 is too large
    nodes = _default_nodes(d) if d < 3 else 24
    for pts in (rng.uniform(-1, 1, size=(257, d)), _torus_grid(d, nodes)):
        values = parity_values(target, pts)
        assert list(values) == [c.eta for c in parity_decompose(target)]
        for eta, got in values.items():
            assert got.tobytes() == ParityComponent(target, eta)(pts).tobytes()


# -- modulus of smoothness --------------------------------------------------


def test_modulus_zero_for_constants():
    target = TargetSpec.catalog("constant", domain="sym-cube")
    assert modulus_smoothness(target, 2, 0.1, p=2) <= 1e-12


def test_modulus_cosine_first_difference():
    t = 0.01
    target = TargetSpec.catalog("cosine", domain="sym-cube",
                                omega=math.pi)
    got = modulus_smoothness(target, 1, t, p=math.inf)
    want = 2.0 * math.sin(math.pi * t / 2.0)
    assert got == pytest.approx(want, rel=0.02)


def test_modulus_nondecreasing_in_t():
    target = TargetSpec.catalog("abs", domain="sym-cube")
    vals = [modulus_smoothness(target, 2, t, p=2)
            for t in (0.01, 0.05, 0.1, 0.5)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_modulus_of_components_bounded_by_target():
    target = TargetSpec.catalog("abs-power", domain="sym-cube")
    comps = parity_decompose(target)
    t = 0.05
    whole = modulus_smoothness(target, 2, t, p=2)
    for comp in comps:
        assert modulus_smoothness(comp, 2, t, p=2) <= whole * (1 + 0.05)


# -- output goldens ---------------------------------------------------------
# Every output of the quadrature-based expansions, hashed: arrays by their
# float64 bytes, everything else by repr.  Recorded before their node-count
# options, their private quadrature loops and their unread members went.


def _sha(parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _golden_trig_parts():
    pts = np.random.default_rng(3).uniform(-1, 1, size=(65, 2))
    for name in ("abs-power", "step"):
        target = TargetSpec.catalog(name, domain="sym-cube")
        for _, c in trig_operator_parts(target, 8, 2, 1):
            yield from (sorted(c.a.items()), c.alpha, c.meta,
                        apply_Tn_nd(c, pts[:, :1]))
    target = TargetSpec.catalog("abs-sum", d=2, domain="sym-cube")
    c = trig_operator_parts(target, 5, 2, 2)[1][1]
    yield from (sorted(c.a.items()), c.meta, apply_Tn_nd(c, pts))
    target = TargetSpec.catalog("gaussian-bump", d=2, domain="sym-cube")
    for eta, c in trig_operator_parts(target, 4, 2, 2):
        yield from (eta, sorted(c.a.items()), c.meta, apply_Tn_nd(c, pts))


def _golden_kernel_moments():
    for n in range(2, 65):
        for r in range(1, min(n, 3) + 1):
            K = jackson_kernel(n, r)
            yield [kernel_moments(K, k) for k in range(2 * r - 1)]


def _golden_hermite():
    for name in ("cosine", "linear", "constant"):
        target = TargetSpec.catalog(name, domain="gaussian-line")
        for n in (0, 4, 10, 20):
            exp = hermite_expansion(target, n)
            yield from (exp.d, exp.n, sorted(exp.coeffs.items()),
                        exp.tail_l2(n // 2))
    yield [hermite_orthonormality_check(n) for n in range(25)]


def _golden_modulus():
    for name in ("abs-power", "step", "cosine"):
        target = TargetSpec.catalog(name, domain="sym-cube")
        for r in (1, 2, 3):
            for t in (0.01, 0.1):
                yield [modulus_smoothness(target, r, t, p=p)
                       for p in (1, 2, math.inf)]
    target = TargetSpec.catalog("abs-sum", d=2, domain="sym-cube")
    yield modulus_smoothness(target, 2, 0.05, p=2, d=2, half_width=math.pi)


def _golden_power_series():
    for d in (1, 2):
        target = TargetSpec.catalog("geometric-product", d=d)
        for N in range(9):
            poly = power_series_truncate(target, N)
            yield from (poly.d, poly.degree, sorted(poly.coeffs.items()))


GOLDEN_OUTPUTS = {
    "trig_operator_parts": (_golden_trig_parts,
        "6a2777c8212c9790b695d4edbba48203041340877a5eafcc9da7608a94d7aef8"),
    "kernel_moments": (_golden_kernel_moments,
        "e6209c5f3c2df4d5f83ce1a63739c91eff184002a8b2a6c605fc4abfa503c7a6"),
    "hermite": (_golden_hermite,
        "fd94ee2f8e254d3178e3b29d9058a1b5b62a104bec0970df10f54b3f11b2b00a"),
    "modulus_smoothness": (_golden_modulus,
        "9495800557e6ac39d85f2b786fa8858a8a7996d7ad18a789a62db6458f1033e0"),
    "power_series_truncate": (_golden_power_series,
        "8acdfb50cffa3e9bbc711c8c564ecc2836ee0544c8ac682da6ba76987cafa2cc"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_golden_expansion_outputs(name):
    outputs, want = GOLDEN_OUTPUTS[name]
    assert _sha(outputs()) == want

