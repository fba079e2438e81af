"""Intra-linked ("3D") ReLU networks: representation, evaluation, transforms.

A network is a stack of hidden layers followed by an affine readout (no
activation on the readout).  Each hidden layer is subdivided into ordered
*floors*.  A neuron's pre-activation is

    affine(previous layer outputs) + sum of intra-link terms,

where every intra-link pulls the already-computed activation of a neuron
that appears strictly earlier in the same layer (earlier floor, or earlier
position on the same floor -- the latter only occurs in flattened networks).
Activation is ReLU everywhere except the readout.

Size vocabulary: width = max neurons on any single floor, depth = number of
hidden layers, height = max floor count over layers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

SCHEMA_ID = "relu3d/v1"

__all__ = [
    "Neuron",
    "Layer",
    "Net3D",
    "SizeMetrics",
    "NetFormatError",
    "evaluate",
    "evaluate_batch",
    "evaluate_array",
    "evaluate_exact",
    "metrics",
    "serialize",
    "deserialize",
    "flatten_to_2d",
    "linear_combine",
    "chain",
    "parallel",
    "parallel_shared",
    "identity_net",
]


class NetFormatError(ValueError):
    """Raised for malformed network documents or invariant violations."""


@dataclass(frozen=True)
class Neuron:
    """One ReLU unit.

    weights: sparse affine part over the previous layer's flattened outputs
        (or over the network input for layer 0), as {flat_index: coeff}.
    bias: additive constant.
    intra: intra-layer links as a tuple of (src_floor, src_index, coeff),
        each source strictly preceding this neuron in (floor, index) order.
    """

    weights: dict
    bias: float
    intra: tuple = ()


@dataclass(frozen=True)
class Layer:
    """floors: tuple of floors, each a tuple of Neuron."""

    floors: tuple

    def flat_neurons(self):
        for floor in self.floors:
            for nrn in floor:
                yield nrn

    @property
    def size(self):
        return sum(len(f) for f in self.floors)


@dataclass(frozen=True)
class SizeMetrics:
    width: int
    depth: int
    height: int
    neuron_count: int
    param_count: int


class Net3D:
    """Immutable intra-linked ReLU network with affine (multi-)readout.

    readout_weights: tuple of rows, one per output, each {flat_index: coeff}
    over the last hidden layer (or over the input if there are no hidden
    layers).  Scalar networks have exactly one row; ``evaluate`` returns a
    plain float for those.
    """

    __slots__ = ("input_dim", "layers", "readout_weights", "readout_bias",
                 "_program")

    def __init__(self, input_dim, layers, readout_weights, readout_bias):
        object.__setattr__(self, "input_dim", int(input_dim))
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(self, "readout_weights", tuple(readout_weights))
        object.__setattr__(self, "readout_bias", tuple(float(b) for b in readout_bias))
        object.__setattr__(self, "_program", None)
        _validate(self)

    def __setattr__(self, name, value):
        raise AttributeError("Net3D is immutable")

    @property
    def output_dim(self):
        return len(self.readout_bias)

    def __eq__(self, other):
        if not isinstance(other, Net3D):
            return NotImplemented
        return (self.input_dim == other.input_dim
                and self.layers == other.layers
                and self.readout_weights == other.readout_weights
                and self.readout_bias == other.readout_bias)

    def __hash__(self):
        # a cheap key over fields __eq__ compares, so equal nets hash equally
        return hash((self.input_dim, self.readout_bias,
                     tuple(layer.size for layer in self.layers)))


def _check_finite(value, where):
    if not math.isfinite(value):
        raise NetFormatError(f"non-finite value at {where}")


def _validate(net):
    if net.input_dim < 1:
        raise NetFormatError("input_dim must be positive")
    prev = net.input_dim
    for k, layer in enumerate(net.layers):
        if not isinstance(layer, Layer) or not layer.floors:
            raise NetFormatError(f"layers[{k}] must be a nonempty Layer")
        for fi, floor in enumerate(layer.floors):
            if not floor:
                raise NetFormatError(f"layers[{k}].floors[{fi}] is empty")
            for ni, nrn in enumerate(floor):
                where = f"layers[{k}].floors[{fi}].neurons[{ni}]"
                for idx, w in nrn.weights.items():
                    if not (0 <= idx < prev):
                        raise NetFormatError(
                            f"inbound weight index {idx} out of range at {where}"
                            f" (previous size {prev})")
                    _check_finite(w, where + ".w")
                _check_finite(nrn.bias, where + ".b")
                for (sf, si, coeff) in nrn.intra:
                    if sf < 0 or sf >= len(layer.floors):
                        raise NetFormatError(f"intra source floor {sf} out of "
                                             f"range at {where}")
                    if si < 0 or si >= len(layer.floors[sf]):
                        raise NetFormatError(f"intra source index {si} out of "
                                             f"range at {where}")
                    if (sf, si) >= (fi, ni):
                        raise NetFormatError(
                            f"intra link at {where} must point to a strictly "
                            f"earlier neuron (got floor {sf}, index {si})")
                    _check_finite(coeff, where + ".intra")
        prev = layer.size
    if not net.readout_weights or len(net.readout_weights) != len(net.readout_bias):
        raise NetFormatError("readout must have matching weight rows and biases")
    for oi, row in enumerate(net.readout_weights):
        for idx, w in row.items():
            if not (0 <= idx < prev):
                raise NetFormatError(f"readout weight index {idx} out of range "
                                     f"at readout[{oi}]")
            _check_finite(w, f"readout[{oi}].w")
        _check_finite(net.readout_bias[oi], f"readout[{oi}].b")


def _flat_offsets(layer):
    """Flat index of the first neuron of each floor."""
    offs = []
    acc = 0
    for floor in layer.floors:
        offs.append(acc)
        acc += len(floor)
    return offs


def _sparse_from_rows(rows, n_cols):
    data, indices, indptr = [], [], [0]
    for row in rows:
        for idx, w in sorted(row.items()):
            indices.append(idx)
            data.append(w)
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data, dtype=float),
                          np.array(indices, dtype=np.int64),
                          np.array(indptr, dtype=np.int64)),
                         shape=(len(rows), n_cols))


class _LayerProgram:
    """One hidden layer compiled for the forward pass.

    W, b: the affine part over the previous layer's outputs.  segments:
    (rows, G) for each segment, a run of the flat neuron order, G holding
    the intra-link coefficients of those rows over the neurons before the
    segment (None for the first).  A neuron starts a new segment when one
    of its intra sources lies at or after the current segment's start, so
    no neuron of a segment reads another and each segment takes one step.
    Where no intra link joins two neurons of one floor (every builder,
    merge and pad), each floor starts at most one segment: a layer takes
    at most one step per floor.
    """

    __slots__ = ("W", "b", "segments")

    def __init__(self, layer, prev_size):
        offs = _flat_offsets(layer)
        w_rows, intra_rows, starts = [], [], [0]
        for i, nrn in enumerate(layer.flat_neurons()):
            w_rows.append(nrn.weights)
            irow = {}
            for (sf, si, coeff) in nrn.intra:
                src = offs[sf] + si
                irow[src] = irow.get(src, 0.0) + coeff
            if irow and max(irow) >= starts[-1]:
                starts.append(i)
            intra_rows.append(irow)
        self.W = _sparse_from_rows(w_rows, prev_size)
        self.b = np.array([nrn.bias for nrn in layer.flat_neurons()],
                          dtype=float)
        ends = starts[1:] + [len(intra_rows)]
        self.segments = [
            (slice(a, c), _sparse_from_rows(intra_rows[a:c], a) if a else None)
            for a, c in zip(starts, ends)]


def _compile(net):
    if net._program is None:
        progs = []
        prev = net.input_dim
        for layer in net.layers:
            progs.append(_LayerProgram(layer, prev))
            prev = layer.size
        R = _sparse_from_rows(net.readout_weights, prev)
        c = np.array(net.readout_bias, dtype=float)
        object.__setattr__(net, "_program", (progs, R, c))
    return net._program


def _forward(net, X):
    """X: (input_dim, m) array.  Returns (output_dim, m)."""
    progs, R, c = _compile(net)
    acts = X
    for li, prog in enumerate(progs):
        out = prog.W @ acts
        out += prog.b[:, None]
        for rows, G in prog.segments:
            seg = out[rows]
            if G is not None:
                seg += G @ out[:rows.start]
            np.maximum(seg, 0.0, out=seg)
        if not np.all(np.isfinite(out)):
            raise NetFormatError(f"non-finite activation in layer {li}")
        acts = out
    y = R @ acts + c[:, None]
    if not np.all(np.isfinite(y)):
        raise NetFormatError("non-finite output in the readout")
    return y


def evaluate(net, x):
    """Forward pass on one point.  Scalar nets return a float."""
    y = evaluate_array(net, np.asarray(x, dtype=float).reshape(1, -1))[0]
    return float(y) if net.output_dim == 1 else y


def evaluate_batch(net, points):
    """Forward pass on a sequence (or (m, input_dim) array) of points.

    Returns a list of floats for scalar nets, else a list of arrays.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return []
    out = evaluate_array(net, pts)
    return [float(v) for v in out] if net.output_dim == 1 else list(out)


def evaluate_array(net, pts, chunk=None):
    """Vectorized forward pass.  pts: (m, input_dim), or (m,) when
    input_dim is 1.  Large batches are processed in chunks to bound the
    working set.

    Returns (m,) for scalar nets, else (m, output_dim).
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim < 2:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != net.input_dim:
        raise NetFormatError(f"expected points of length {net.input_dim}, "
                             f"got an array of shape {pts.shape}")
    m = pts.shape[0]
    if chunk is None:
        n_widest = max([net.input_dim] + [l.size for l in net.layers])
        chunk = max(64, min(m, int(4e7 // max(1, n_widest))))
    # an empty batch still runs one (empty) chunk, giving an empty result
    outs = [_forward(net, pts[start:start + chunk].T).T
            for start in range(0, max(m, 1), chunk)]
    y = np.concatenate(outs, axis=0)
    return y[:, 0] if net.output_dim == 1 else y


def evaluate_exact(net, x):
    """Exact-rational forward pass (Fraction arithmetic).

    Intended for gadget tests on dyadic inputs; weights are converted via
    Fraction(float) which is exact for IEEE doubles.
    """
    acts = [Fraction(v) for v in x] if isinstance(x, (list, tuple)) else \
        [Fraction(v) for v in np.atleast_1d(np.asarray(x, dtype=float))]
    if len(acts) != net.input_dim:
        raise NetFormatError("dimension mismatch")
    for layer in net.layers:
        offs = _flat_offsets(layer)
        new = []
        for fi, floor in enumerate(layer.floors):
            for nrn in floor:
                z = Fraction(nrn.bias)
                for idx, w in nrn.weights.items():
                    z += Fraction(w) * acts[idx]
                for (sf, si, coeff) in nrn.intra:
                    z += Fraction(coeff) * new[offs[sf] + si]
                new.append(z if z > 0 else Fraction(0))
        acts = new
    out = []
    for row, b in zip(net.readout_weights, net.readout_bias):
        z = Fraction(b)
        for idx, w in row.items():
            z += Fraction(w) * acts[idx]
        out.append(z)
    return out[0] if len(out) == 1 else out


def metrics(net):
    width = 0
    height = 0
    neuron_count = 0
    param_count = 0
    for layer in net.layers:
        height = max(height, len(layer.floors))
        for floor in layer.floors:
            width = max(width, len(floor))
            neuron_count += len(floor)
            for nrn in floor:
                param_count += sum(1 for w in nrn.weights.values() if w != 0.0)
                param_count += 1 if nrn.bias != 0.0 else 0
                param_count += sum(1 for (_, _, c) in nrn.intra if c != 0.0)
    for row, b in zip(net.readout_weights, net.readout_bias):
        param_count += sum(1 for w in row.values() if w != 0.0)
        param_count += 1 if b != 0.0 else 0
    return SizeMetrics(width=width, depth=len(net.layers), height=height,
                       neuron_count=neuron_count, param_count=param_count)


# ---------------------------------------------------------------------------
# serialization


def _w_doc(weights, n_prev):
    # drop exact zeros first so the dense/sparse choice is canonical: the
    # parser discards zero entries, and round-tripping must be bit-stable
    weights = {i: w for i, w in weights.items() if w != 0.0}
    if n_prev and len(weights) > 0.6 * n_prev:
        dense = [0.0] * n_prev
        for idx, w in weights.items():
            dense[idx] = w
        return dense
    items = sorted(weights.items())
    return {"i": [i for i, _ in items], "v": [v for _, v in items]}


def _w_parse(doc, n_prev, where):
    if isinstance(doc, list):
        if len(doc) != n_prev:
            raise NetFormatError(f"wrong inbound weight length at {where}: "
                                 f"expected {n_prev}, got {len(doc)}")
        return {i: float(v) for i, v in enumerate(doc) if v != 0.0}
    if isinstance(doc, dict) and set(doc) == {"i", "v"}:
        idx, val = doc["i"], doc["v"]
        if len(idx) != len(val):
            raise NetFormatError(f"sparse weight index/value length mismatch "
                                 f"at {where}")
        out = {}
        for i, v in zip(idx, val):
            i = int(i)
            if not (0 <= i < n_prev):
                raise NetFormatError(f"weight index {i} out of range at {where}")
            out[i] = float(v)
        return out
    raise NetFormatError(f"malformed weight document at {where}")


def serialize(net):
    """Return the schema-versioned document (a JSON string)."""
    prev = net.input_dim
    layers = []
    for layer in net.layers:
        floors = []
        for floor in layer.floors:
            neurons = []
            for nrn in floor:
                neurons.append({
                    "w": _w_doc(nrn.weights, prev),
                    "b": nrn.bias,
                    "intra": [{"floor": sf, "index": si, "coeff": c}
                              for (sf, si, c) in nrn.intra],
                })
            floors.append({"neurons": neurons})
        layers.append({"floors": floors})
        prev = layer.size
    doc = {
        "schema": SCHEMA_ID,
        "input_dim": net.input_dim,
        "layers": layers,
        "readout": {
            "w": [_w_doc(row, prev) for row in net.readout_weights],
            "b": list(net.readout_bias),
        },
    }
    # repr-based float formatting: json uses repr(float), which round-trips
    # bit-exactly (shortest representation, <= 17 significant digits).
    return json.dumps(doc)


def _items(doc, key, where):
    """doc[key] (default []) as a list of JSON objects."""
    items = doc.get(key, [])
    if not isinstance(items, list) or not all(isinstance(v, dict)
                                              for v in items):
        raise NetFormatError(f"{where}.{key} must be a list of objects")
    return items


def deserialize(document):
    """Parse a document produced by serialize (str or parsed dict)."""
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise NetFormatError(f"invalid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise NetFormatError("document root must be an object")
    if doc.get("schema") != SCHEMA_ID:
        raise NetFormatError(f"unsupported schema {doc.get('schema')!r} at "
                             f"schema (expected {SCHEMA_ID})")
    try:
        input_dim = int(doc["input_dim"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise NetFormatError("missing or invalid input_dim")
    prev = input_dim
    layers = []
    for k, layer_doc in enumerate(_items(doc, "layers", "document")):
        floors = []
        for fi, floor_doc in enumerate(_items(layer_doc, "floors",
                                              f"layers[{k}]")):
            neurons = []
            for ni, nd in enumerate(_items(floor_doc, "neurons",
                                           f"layers[{k}].floors[{fi}]")):
                where = f"layers[{k}].floors[{fi}].neurons[{ni}]"
                try:
                    weights = _w_parse(nd["w"], prev, where + ".w")
                    bias = float(nd["b"])
                    intra = tuple((int(l["floor"]), int(l["index"]),
                                   float(l["coeff"]))
                                  for l in nd.get("intra", []))
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise NetFormatError(f"malformed neuron at {where}: {exc}")
                neurons.append(Neuron(weights=weights, bias=bias, intra=intra))
            floors.append(tuple(neurons))
        layers.append(Layer(floors=tuple(floors)))
        prev = layers[-1].size
    ro = doc.get("readout")
    if not isinstance(ro, dict) or "w" not in ro or "b" not in ro:
        raise NetFormatError("missing readout section")
    try:
        rows = [_w_parse(rd, prev, f"readout.w[{oi}]")
                for oi, rd in enumerate(ro["w"])]
        bias = [float(b) for b in ro["b"]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise NetFormatError(f"malformed readout: {exc}")
    return Net3D(input_dim, layers, rows, bias)


# ---------------------------------------------------------------------------
# transforms


def flatten_to_2d(net, pad_width_to=None):
    """Merge every layer's floors into a single floor, order preserved.

    Flat indices are unchanged, so inbound weights and readout carry over;
    intra links are rewritten to (floor 0, old flat index).  Optionally pads
    the widest layer with dead neurons (zero weights and bias) up to
    ``pad_width_to`` so that the flattened width equals width x height of the
    original network, matching the 2D-equivalence size statement.
    """
    new_layers = []
    widest = max((l.size for l in net.layers), default=0)
    for layer in net.layers:
        offs = _flat_offsets(layer)
        merged = []
        for fi, floor in enumerate(layer.floors):
            for nrn in floor:
                intra = tuple((0, offs[sf] + si, c) for (sf, si, c) in nrn.intra)
                merged.append(Neuron(weights=nrn.weights, bias=nrn.bias,
                                     intra=intra))
        if pad_width_to and layer.size == widest and layer.size < pad_width_to:
            pad = pad_width_to - layer.size
            merged.extend(Neuron(weights={}, bias=0.0) for _ in range(pad))
            widest = pad_width_to  # pad only one layer
        new_layers.append(Layer(floors=(tuple(merged),)))
    return Net3D(net.input_dim, new_layers, net.readout_weights,
                 net.readout_bias)


def _affine_compose(outer_row, outer_bias, inner_rows, inner_bias):
    """Compose affine maps: outer over inner's outputs -> over inner's basis."""
    new = {}
    b = outer_bias
    for o, w in outer_row.items():
        b += w * inner_bias[o]
        for idx, v in inner_rows[o].items():
            new[idx] = new.get(idx, 0.0) + w * v
    return new, b


def chain(outer, inner):
    """Feed inner's outputs into outer: result(x) = outer(inner(x))."""
    if outer.input_dim != inner.output_dim:
        raise NetFormatError(f"chain mismatch: outer expects {outer.input_dim}"
                             f" inputs, inner produces {inner.output_dim}")
    in_rows = inner.readout_weights
    in_bias = inner.readout_bias
    if not outer.layers:
        rows, biases = [], []
        for row, b in zip(outer.readout_weights, outer.readout_bias):
            nr, nb = _affine_compose(row, b, in_rows, in_bias)
            rows.append(nr)
            biases.append(nb)
        return Net3D(inner.input_dim, inner.layers, rows, biases)
    first = outer.layers[0]
    floors = []
    for floor in first.floors:
        nf = []
        for nrn in floor:
            w, b = _affine_compose(nrn.weights, nrn.bias, in_rows, in_bias)
            nf.append(Neuron(weights=w, bias=b, intra=nrn.intra))
        floors.append(tuple(nf))
    new_first = Layer(floors=tuple(floors))
    return Net3D(inner.input_dim,
                 list(inner.layers) + [new_first] + list(outer.layers[1:]),
                 outer.readout_weights, outer.readout_bias)


def _merge(nets, share_input):
    """Run nets side by side, floors aligned (widths add, heights max).

    Returns (input_dim, layers, readout rows, readout biases).  Inputs are
    concatenated, or with share_input all nets read the same input; outputs
    are concatenated in net order.  Neuron (f, i) of a net moves to
    (f, col[f] + i), col[f] being that net's start column in merged floor f.
    A net shorter than the deepest carries its outputs y through each
    missing layer as (sigma(y), sigma(-y)) pairs on one floor.
    """
    if not nets:
        raise NetFormatError("need at least one net")
    depth = max(len(n.layers) for n in nets)
    if share_input:
        input_dim = nets[0].input_dim
        if any(n.input_dim != input_dim for n in nets):
            raise NetFormatError("shared-input merge requires equal input_dim")
        remap = [range(input_dim)] * len(nets)
    else:
        remap, input_dim = [], 0
        for n in nets:
            remap.append(range(input_dim, input_dim + n.input_dim))
            input_dim += n.input_dim

    # remap[j][i]: merged flat index of net j's flat index i one layer back;
    # reads[j]: net j's readout (rows, biases) over those indices
    reads = [(n.readout_weights, n.readout_bias) for n in nets]
    layers = []
    for k in range(depth):
        parts = []
        for j, n in enumerate(nets):
            if k < len(n.layers):
                parts.append(n.layers[k])
                continue
            rows, bias = reads[j]
            floor = []
            for row, b in zip(rows, bias):
                floor.append(Neuron(weights=row, bias=b))
                floor.append(Neuron(weights={i: -w for i, w in row.items()},
                                    bias=-b))
            parts.append(Layer(floors=(tuple(floor),)))
            reads[j] = ([{2 * o: 1.0, 2 * o + 1: -1.0}
                         for o in range(len(bias))], [0.0] * len(bias))
        floors = [[] for _ in range(max(len(l.floors) for l in parts))]
        cols = []
        for j, layer in enumerate(parts):
            col = []
            for f, floor in enumerate(layer.floors):
                col.append(len(floors[f]))
                floors[f].extend(
                    Neuron(weights={remap[j][i]: w
                                    for i, w in nrn.weights.items()},
                           bias=nrn.bias,
                           intra=tuple((sf, col[sf] + si, c)
                                       for (sf, si, c) in nrn.intra))
                    for nrn in floor)
            cols.append(col)
        merged = Layer(floors=tuple(tuple(f) for f in floors))
        offs = _flat_offsets(merged)
        remap = [[offs[f] + col[f] + i
                  for f, floor in enumerate(layer.floors)
                  for i in range(len(floor))]
                 for layer, col in zip(parts, cols)]
        layers.append(merged)

    rows, bias = [], []
    for j, (n_rows, n_bias) in enumerate(reads):
        for row, b in zip(n_rows, n_bias):
            rows.append({remap[j][i]: v for i, v in row.items()})
            bias.append(b)
    return input_dim, layers, rows, bias


def parallel(nets):
    """Disjoint inputs, concatenated outputs."""
    return Net3D(*_merge(list(nets), share_input=False))


def parallel_shared(nets):
    """Same input for every net, concatenated outputs."""
    return Net3D(*_merge(list(nets), share_input=True))


def linear_combine(nets, coeffs, bias):
    """Scalar net computing sum coeffs[i] * nets[i](x) + bias (shared input)."""
    nets = list(nets)
    coeffs = list(coeffs)
    if len(nets) != len(coeffs):
        raise NetFormatError("one coefficient per net required")
    if any(n.output_dim != 1 for n in nets):
        raise NetFormatError("linear_combine requires scalar nets")
    input_dim, layers, rows, biases = _merge(nets, share_input=True)
    row, b = _affine_compose(dict(enumerate(coeffs)), float(bias), rows,
                             biases)
    return Net3D(input_dim, layers, [row], [b])


def identity_net(dim=1):
    """x -> x via sigma(x) - sigma(-x) pairs (one floor, 2*dim neurons)."""
    floor = []
    for i in range(dim):
        floor.append(Neuron(weights={i: 1.0}, bias=0.0))
        floor.append(Neuron(weights={i: -1.0}, bias=0.0))
    rows = [{2 * i: 1.0, 2 * i + 1: -1.0} for i in range(dim)]
    return Net3D(dim, [Layer(floors=(tuple(floor),))], rows, [0.0] * dim)
