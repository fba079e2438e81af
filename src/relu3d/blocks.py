"""Reusable network gadgets.

Everything here is assembled from sawtooth towers.  A tower realizes the
iterated tent map g_s (g_1(x) = 2x - 4*sigma(x - 1/2) on [0, 1], and
g_s = -4*sigma(1/2 - g_{s-1}) - 2*g_{s-1} + 2 for s > 1) with two neurons
per floor,

    floor 1:   t_1 = sigma(y - 1/2),        w_1 = sigma(y) = y
    floor j:   t_j = sigma(1/2 - g_{j-1}),  w_j = sigma(g_{j-1}) = g_{j-1}

so that g_1 = 2 w_1 - 4 t_1 and g_j = -4 t_j - 2 w_j + 2 are available as
affine wires (both w-chains stay in [0, 1], so the carries are exact).
The gadgets place several towers side by side on shared floors:

    f_H(x)   = x - sum_{j<=H} g_j(x) / 4^j        (interpolates x^2 on [0,1])
    prodhat  = 2 f_H((x+y)/2) - 2 f_H(x/2) - 2 f_H(y/2)      on [0,1]^2
    F_H(u)   = symmetric version on [-1,1] via y = (u+1)/2, height H+1
    prodtil  = the [-M,M]^d product chain built from F_H
"""

from __future__ import annotations

import math

from .builder_dsl import NetBuilder, Wire
from .net import NetFormatError

__all__ = [
    "sawtooth_net",
    "square_net",
    "product2_unit",
    "product_d_net",
    "power_chain_net",
    "periodic_fold_net",
    "clip_window_net",
    "add_tent_towers",
]


def _check_square_height(H):
    """The square gadgets divide g_j by 4^j, j <= H; 4.0 ** 512 overflows."""
    if H > 511:
        raise NetFormatError(f"height {H} exceeds 511: the square gadget's "
                             f"divisor 4^{H} overflows a float")


def add_tent_towers(layer, ys, s, riders=()):
    """Grow s floors of tent towers over the wires ys (each in [0, 1]).

    Returns (gs, ws, rider_wires): gs[i] = [g_1(ys[i]), ..., g_s(ys[i])] as
    affine wires over the tower neurons, and ws[i] = sigma(ys[i]) = ys[i] is
    the tower's first-floor carry.  Each rider (a wire with
    nonnegative value) is passed through a sigma unit on the first floor,
    alongside the towers' first stage; rider_wires are the pass-through
    outputs.  Floor width is 2*len(ys) (+len(riders) on the first floor).
    """
    if s < 1:
        raise NetFormatError("towers need s >= 1")
    gs = [[] for _ in ys]
    ws = []
    prev = list(ys)
    rider_wires = []
    for stage in range(s):
        fl = layer.floor()
        for i, g in enumerate(prev):
            if stage == 0:
                t = fl.neuron(g - 0.5)
                w = fl.neuron(g)
                ws.append(w)
                g_new = 2 * w - 4 * t
            else:
                t = fl.neuron(0.5 - g)
                w = fl.neuron(g)
                g_new = -4 * t - 2 * w + 2
            gs[i].append(g_new)
            prev[i] = g_new
        if stage == 0:
            for r in riders:
                rider_wires.append(fl.neuron(r))
    return gs, ws, rider_wires


def _tower_sum(f, gs):
    """f - sum_j gs[j-1] / 4^j, one term at a time; f_H when f is a tower's
    carry w_1 and gs = [g_1..g_H] its wires."""
    for j, g in enumerate(gs, start=1):
        f = f - g / (4.0 ** j)
    return f


def _unit_prod_bank(layer, pairs, H, riders=()):
    """Three towers per (x, y) pair, all on shared floors, computing
    prodhat(x, y) on [0, 1]^2 for every pair.

    Returns (prods, ws, rider_wires); ws are the towers' carries, three per
    pair, of (x+y)/2, x/2 and y/2.  Requires H >= 1.
    """
    _check_square_height(H)
    ys = [v for x, y in pairs for v in ((x + y) * 0.5, x * 0.5, y * 0.5)]
    gs, ws, rw = add_tent_towers(layer, ys, H, riders=riders)
    fs = [_tower_sum(w, g) for w, g in zip(ws, gs)]
    prods = [2 * fs[i] - 2 * fs[i + 1] - 2 * fs[i + 2]
             for i in range(0, len(fs), 3)]
    return prods, ws, rw


def _unit_prod_wires(layer, x, y, H, riders=()):
    """prodhat(x, y) on [0, 1]^2 from one pair of _unit_prod_bank.

    Returns (prod, x_carry, y_carry, rider_wires); the carries re-expose the
    inputs as wires over this layer (from the towers on x/2 and y/2).
    Requires H >= 1 (callers special-case H = 0).
    """
    (prod,), ws, rw = _unit_prod_bank(layer, [(x, y)], H, riders=riders)
    return prod, 2 * ws[1], 2 * ws[2], rw


def _sym_prod_wires(layer, u, v, H, riders=()):
    """Three towers computing the [-1, 1]^2 product interpolant of u*v.

    Tower inputs are y_i = (z_i + 1)/2 with z = ((u+v)/2, u/2, v/2); each
    tower has height H+1 and yields F_H(z) = (1 - g_1) - sum g_{j+1}/4^j.
    Returns (prod, u_carry, v_carry, rider_wires); the carries recover u and
    v from the towers' carries w = u/4 + 1/2 and v/4 + 1/2.
    """
    _check_square_height(H)
    zs = [(u + v) * 0.5, u * 0.5, v * 0.5]
    ys = [z * 0.5 + 0.5 for z in zs]
    gs, ws, rw = add_tent_towers(layer, ys, H + 1, riders=riders)
    fs = [_tower_sum(1.0 - g[0], g[1:]) for g in gs]
    prod = 2 * fs[0] - 2 * fs[1] - 2 * fs[2]
    return prod, 4 * ws[1] - 2, 4 * ws[2] - 2, rw


def sawtooth_net(s):
    """Net computing g_s on [0, 1]: width 2, depth 1, height s."""
    s = int(s)
    if s < 1:
        raise NetFormatError("sawtooth_net requires s >= 1")
    b = NetBuilder(1)
    x = b.input(0)
    L = b.layer()
    gs, _, _ = add_tent_towers(L, [x], s)
    b.commit()
    return b.finish([gs[0][-1]])


def square_net(H):
    """Net computing f_H on [0, 1], the piecewise-linear interpolant of x^2
    on the dyadic nodes l / 2^H.  Width 2, depth 1, height max(H, 1)."""
    H = int(H)
    if H < 0:
        raise NetFormatError("square_net requires H >= 0")
    b = NetBuilder(1)
    x = b.input(0)
    L = b.layer()
    if H == 0:
        fl = L.floor()
        w = fl.neuron(x)
        m = fl.neuron(-1.0 * x)  # keep exactness for x <= 0 too
        b.commit()
        return b.finish([w - m])
    _check_square_height(H)
    gs, ws, _ = add_tent_towers(L, [x], H)
    b.commit()
    return b.finish([_tower_sum(ws[0], gs[0])])


def product2_unit(H):
    """prodhat on [0, 1]^2: width 6, depth 1, height max(H, 1);
    sup error <= 6 * 2^(-2(H+1)); exact at even-lattice nodes."""
    H = int(H)
    if H < 0:
        raise NetFormatError("product2_unit requires H >= 0")
    b = NetBuilder(2)
    x, y = b.input(0), b.input(1)
    L = b.layer()
    if H == 0:
        fl = L.floor()
        ws = [fl.neuron(v) for v in [(x + y) * 0.5, x * 0.5, y * 0.5]]
        prod = 2 * ws[0] - 2 * ws[1] - 2 * ws[2]
    else:
        prod, _, _, _ = _unit_prod_wires(L, x, y, H)
    b.commit()
    return b.finish([prod])


def product_d_net(d, H, M=1.0):
    """prodtil on [-M, M]^d: width 4+d (d >= 3) or 6 (d = 2), depth d-1,
    height H+1; sup error <= 6 (d-1) M^d 2^(-2(H+1)).

    Built by the recursion prodtil_k = prodtil_2(prodtil_{k-1}, x_k) on the
    unit cube, with inputs pre-scaled by 1/M and the readout by M^d.
    d = 1 returns the identity on [-M, M] (one pass-through layer)."""
    d = int(d)
    H = int(H)
    M = float(M)
    if M <= 0:
        raise NetFormatError("product_d_net requires M > 0")
    if H < 0:
        raise NetFormatError("product_d_net requires H >= 0")
    b = NetBuilder(max(d, 1))
    inv = 1.0 / M
    if d < 2:
        x = b.input(0)
        L = b.layer()
        fl = L.floor()
        w = fl.neuron(x * (0.5 * inv) + 0.5)
        b.commit()
        return b.finish([(2 * w - 1) * M])
    prod = b.input(0) * inv
    carries = [b.input(i) * inv for i in range(1, d)]
    for _ in range(d - 1):
        L = b.layer()
        prod, _, _, rider_wires = _sym_prod_wires(
            L, prod, carries[0], H,
            riders=[c * 0.5 + 0.5 for c in carries[1:]])
        b.commit()
        carries = [2 * rw - 1 for rw in rider_wires]
    return b.finish([prod * (M ** d)])


def power_chain_net(n, H):
    """Power chain h_1..h_n on [0, 1] (n outputs): h_1 = x and
    h_k = prodhat(x, h_{k-1}); |h_k(x) - x^k| <= 6 (k-1) 2^(-2(H+1))."""
    n = int(n)
    H = max(int(H), 1)
    if n < 1:
        raise NetFormatError("power_chain_net requires n >= 1")
    b = NetBuilder(1)
    x = b.input(0)
    if n == 1:
        L = b.layer()
        fl = L.floor()
        w = fl.neuron(x)
        b.commit()
        return b.finish([Wire(dict(w.terms))])
    h = x
    x_w = x
    hs_prev = []  # wires for h_1..h_{k-2} over the current frontier
    outs = None
    for k in range(2, n + 1):
        L = b.layer()
        prod, x_carry, h_carry, rider_wires = _unit_prod_wires(
            L, x_w, h, H, riders=hs_prev)
        b.commit()
        hs_prev = rider_wires + [h_carry]
        x_w = x_carry
        h = prod
        outs = hs_prev + [h]
    return b.finish(outs)


def _fold_wire(layer, x, s, scale):
    """Fold x inside an open layer: |x| = sigma(x) + sigma(-x) on a new
    first floor, then s tent floors over scale * |x| (which must lie in
    [0, 1]).  Returns g_s(scale |x|) as a wire; |x| itself when s = 0.
    """
    fl = layer.floor()
    absx = fl.neuron(x) + fl.neuron(-1.0 * x)
    if s == 0:
        return absx
    gs, _, _ = add_tent_towers(layer, [absx * scale], s)
    return gs[0][-1]


def periodic_fold_net(k):
    """Net computing g_s((k / 2^s) |x|) on [-1, 1], s = ceil(log2 k).

    One hidden layer; |x| occupies the first floor, the tower the next s
    floors (height s + 1; height 1 when k = 1)."""
    k = int(k)
    if k < 1:
        raise NetFormatError("periodic_fold_net requires k >= 1")
    s = max(0, math.ceil(math.log2(k)))
    b = NetBuilder(1)
    g = _fold_wire(b.layer(), b.input(0), s, k / float(2 ** s))
    b.commit()
    return b.finish([g])


def clip_window_net(M, delta):
    """Two outputs (xi, chi) sharing one floor of 4 neurons.

    xi: identity on [-M+delta, M-delta], 0 outside [-M, M], linear between.
    chi: 1 on [-M+delta, M-delta], 0 outside [-M, M], linear between.
    Breakpoints at +-M and +-(M-delta).
    """
    M = float(M)
    delta = float(delta)
    if not (0 < delta < M):
        raise NetFormatError("clip_window_net requires 0 < delta < M")
    b = NetBuilder(1)
    xi, chi = _clip_wires(b.layer(), b.input(0), M, delta)
    b.commit()
    return b.finish([xi, chi])


def _clip_wires(layer, x, M, delta):
    """The (xi, chi) wires of clip_window_net over one new floor of 4
    neurons in an open layer."""
    fl = layer.floor()
    u1 = fl.neuron(x + M)            # kink at -M
    u2 = fl.neuron(x + (M - delta))  # kink at -(M-delta)
    u3 = fl.neuron(x - (M - delta))  # kink at M-delta
    u4 = fl.neuron(x - M)            # kink at M
    s = (M - delta) / delta
    # xi slopes across the kinks: 0 | -s | 1 | -s | 0
    xi = (-s) * u1 + (s + 1.0) * u2 + (-(s + 1.0)) * u3 + s * u4
    # chi slopes: 0 | 1/delta | 0 | -1/delta | 0
    chi = (1.0 / delta) * (u1 - u2 - u3 + u4)
    return xi, chi
