"""Small internal DSL for wiring intra-linked networks.

A Wire is an affine combination of neuron outputs (or input coordinates).
NetBuilder tracks the layer currently under construction; creating a neuron
from a Wire splits its terms into inbound weights (previous layer / input)
and intra links (earlier neurons of the current layer).

Usage sketch:

    b = NetBuilder(1)
    x = b.input(0)
    L = b.layer()
    f = L.floor()
    t = f.neuron(x - 0.5)       # sigma(x - 1/2)
    w = f.neuron(x)             # sigma(x), carries x on [0, 1]
    b.commit()
    net = b.finish([2 * w - 4 * t])   # readout wire

Wires remain valid as long as their underlying neurons are on the frontier
(the most recently committed layer) or on earlier floors of the layer being
built; using stale wires raises.
"""

from __future__ import annotations

import numpy as np

from .net import Net3D, NetFormatError, _pack, _starts

__all__ = ["NetBuilder", "Wire"]

_INPUT = -1


class _Ref:
    __slots__ = ("layer", "floor", "index", "flat")

    def __init__(self, layer, floor=None, index=None, flat=None):
        self.layer = layer
        self.floor = floor
        self.index = index
        self.flat = flat


class Wire:
    """Affine functional over neuron refs: sum coeff * ref + bias."""

    __slots__ = ("terms", "bias")

    def __init__(self, terms=None, bias=0.0):
        self.terms = dict(terms or {})
        self.bias = float(bias)

    @staticmethod
    def const(value):
        return Wire({}, value)

    def _combine(self, other, sign):
        if not isinstance(other, Wire):
            other = Wire.const(other)
        terms = dict(self.terms)
        for ref, c in other.terms.items():
            terms[ref] = terms.get(ref, 0.0) + sign * c
        return Wire(terms, self.bias + sign * other.bias)

    def __add__(self, other):
        return self._combine(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __rsub__(self, other):
        return (-1.0 * self) + other

    def __mul__(self, scalar):
        s = float(scalar)
        return Wire({r: c * s for r, c in self.terms.items()}, self.bias * s)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / float(scalar))

    def __neg__(self):
        return self * -1.0


class _FloorBuilder:
    def __init__(self, layer_builder, floor_index):
        self._lb = layer_builder
        self.floor_index = floor_index

    def neuron(self, pre):
        """Add sigma(pre) to this floor; returns the output as a Wire."""
        if not isinstance(pre, Wire):
            pre = Wire.const(pre)
        lb = self._lb
        if lb is not lb._nb._open:
            raise NetFormatError("floor belongs to a closed layer")
        k = lb.layer_index
        weights, intra = {}, []
        for ref, c in pre.terms.items():
            if c == 0.0:
                continue
            if ref.layer == k:
                if ref.floor >= self.floor_index:
                    raise NetFormatError(
                        "intra wire must come from an earlier floor")
                intra.append((ref.floor, ref.index, c))
            elif ref.layer == k - 1:
                if ref.flat is None:
                    raise NetFormatError("stale wire (uncommitted source)")
                weights[ref.flat] = weights.get(ref.flat, 0.0) + c
            else:
                raise NetFormatError(
                    f"wire from layer {ref.layer} not visible in layer {k}; "
                    f"carry values forward explicitly")
        intra.sort()
        ref = _Ref(layer=k, floor=self.floor_index,
                   index=len(lb.floors[self.floor_index]))
        lb.floors[self.floor_index].append((weights, pre.bias, tuple(intra)))
        lb.refs.append(ref)
        return Wire({ref: 1.0})


class _LayerBuilder:
    def __init__(self, nb, layer_index):
        self._nb = nb
        self.layer_index = layer_index
        self.floors = []
        self.refs = []

    def floor(self):
        self.floors.append([])
        return _FloorBuilder(self, len(self.floors) - 1)


class NetBuilder:
    def __init__(self, input_dim):
        self.input_dim = int(input_dim)
        self._layers = []
        self._open = None

    def input(self, i):
        if not (0 <= i < self.input_dim):
            raise NetFormatError(f"input index {i} out of range")
        return Wire({_Ref(layer=_INPUT, flat=i): 1.0})

    def layer(self):
        if self._open is not None:
            raise NetFormatError("previous layer not committed")
        self._open = _LayerBuilder(self, len(self._layers))
        return self._open

    def commit(self):
        lb = self._open
        if lb is None:
            raise NetFormatError("no open layer")
        if not lb.floors or any(not f for f in lb.floors):
            raise NetFormatError("layer must have nonempty floors")
        sizes = np.array([len(f) for f in lb.floors], dtype=np.int64)
        # flat indices follow (floor, index) order
        starts = _starts(sizes).tolist()
        for ref in lb.refs:
            ref.flat = starts[ref.floor] + ref.index
        # the layer's neurons, packed in flat order as (weights, bias, intra)
        self._layers.append(_pack(
            sizes, *zip(*(nrn for floor in lb.floors for nrn in floor))))
        self._open = None

    def finish(self, outputs):
        """outputs: list of Wires over the last committed layer (or input)."""
        if self._open is not None:
            raise NetFormatError("open layer pending commit")
        want = len(self._layers) - 1 if self._layers else _INPUT
        rows, bias = [], []
        for out in outputs:
            if not isinstance(out, Wire):
                out = Wire.const(out)
            row = {}
            for ref, c in out.terms.items():
                if c == 0.0:
                    continue
                if ref.layer != want:
                    raise NetFormatError("readout wire not on the last layer")
                row[ref.flat] = row.get(ref.flat, 0.0) + c
            rows.append(row)
            bias.append(out.bias)
        return Net3D(self.input_dim, self._layers, _pack(None, rows, bias))
