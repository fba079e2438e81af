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

A Net3D stores each hidden layer, and its readout, as a ``Layer`` of
packed arrays; validation, metrics, compilation, serialization and the
compositions work on those arrays.  ``Layer.floors`` reads a hidden layer
as floors of ``Neuron`` objects, built on each read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain as iconcat

import numpy as np

SCHEMA_ID = "relu3d/v1"
# activations (points x neurons of the widest layer) one forward chunk holds:
# 2^19 float64 values, 4 MiB per layer
CHUNK_ELEMENTS = 2 ** 19

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
class SizeMetrics:
    width: int
    depth: int
    height: int
    neuron_count: int
    param_count: int


# ---------------------------------------------------------------------------
# packed rows

_NO_INTS = np.zeros(0, dtype=np.int64)
_NO_FLOATS = np.zeros(0)


def _ptr(counts):
    """Row offsets from per-row entry counts."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _row_ids(ptr):
    """The row of each entry."""
    return np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))


def _take(ptr, rows):
    """Row offsets and entry positions of `rows`, taken in that order."""
    counts = ptr[rows + 1] - ptr[rows]
    new = _ptr(counts)
    return new, np.repeat(ptr[rows] - new[:-1], counts) + np.arange(new[-1])


def _ints(values):
    """int64 array; an object array when a value does not fit (it is out of
    every range that validation accepts)."""
    values = list(values)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _starts(sizes):
    """Flat index of the first neuron of each floor."""
    return np.cumsum(sizes) - sizes


def _row_order(ptr, idx):
    """The stable permutation that puts each row's entries in index order,
    rows kept in order (indices are nonnegative)."""
    width = int(idx.max()) + 1 if len(idx) else 1
    return np.argsort(_row_ids(ptr) * width + idx, kind="stable")


def _cut(items, ptr):
    """items cut at the offsets ptr: one list per row (or floor)."""
    ptr = ptr.tolist()
    return [items[a:b] for a, b in zip(ptr, ptr[1:])]


class Layer:
    """The neurons of one hidden layer, or the readout rows, packed.

    sizes: the floor sizes (None for the readout).  Row r, in flat order,
    has inbound weights w_idx/w_val[w_ptr[r]:w_ptr[r + 1]] in their given
    order with explicit zeros kept, bias bias[r], and intra links
    (l_floor, l_index, l_coeff)[l_ptr[r]:l_ptr[r + 1]] in their given
    order with duplicates kept.  A Layer is immutable (its arrays are
    read-only) and may be shared between nets.  Layers compare with the
    semantics of their floors, weights as maps (any order) and intra links
    in order, and are unhashable.
    """

    __slots__ = ("sizes", "w_ptr", "w_idx", "w_val", "bias", "l_ptr",
                 "l_floor", "l_index", "l_coeff")
    __hash__ = None

    def __init__(self, sizes, w_ptr, w_idx, w_val, bias, l_ptr=None,
                 l_floor=_NO_INTS, l_index=_NO_INTS, l_coeff=_NO_FLOATS):
        if l_ptr is None:
            l_ptr = np.zeros(len(w_ptr), dtype=np.int64)
        for name, arr in zip(self.__slots__, (sizes, w_ptr, w_idx, w_val,
                                              bias, l_ptr, l_floor, l_index,
                                              l_coeff)):
            if arr is not None:
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __setattr__(self, name, value):
        raise AttributeError("Layer is immutable")

    @property
    def size(self):
        return len(self.w_ptr) - 1

    @property
    def floors(self):
        """The floors of a hidden layer as tuples of Neuron, built on each
        read."""
        neurons = [Neuron(weights=w, bias=b, intra=tuple(links))
                   for w, b, links in zip(_weight_dicts(self),
                                          self.bias.tolist(),
                                          _row_links(self))]
        return tuple(tuple(f) for f in _cut(neurons, _ptr(self.sizes)))

    def __eq__(self, other):
        if other.__class__ is not Layer:
            return NotImplemented
        return all(np.array_equal(a, b)
                   for a, b in zip(self._key(), other._key()))

    def _key(self):
        order = _row_order(self.w_ptr, self.w_idx)
        return (self.sizes, self.w_ptr, self.w_idx[order], self.w_val[order],
                self.bias, self.l_ptr, self.l_floor, self.l_index,
                self.l_coeff)


def _pack(sizes, weights, biases, intras=None):
    """Layer from per-row weight dicts, biases and intra-link tuples."""
    w_ptr = _ptr([len(w) for w in weights])
    w_idx = _ints(iconcat.from_iterable(weights))
    w_val = np.fromiter(iconcat.from_iterable(w.values() for w in weights),
                        dtype=float, count=int(w_ptr[-1]))
    bias = np.array(biases, dtype=float).reshape(-1)
    if intras is None:
        return Layer(sizes, w_ptr, w_idx, w_val, bias)
    links = list(iconcat.from_iterable(intras))
    return Layer(sizes, w_ptr, w_idx, w_val, bias,
                 _ptr([len(t) for t in intras]),
                 _ints(t[0] for t in links), _ints(t[1] for t in links),
                 np.array([t[2] for t in links], dtype=float).reshape(-1))


def _weight_dicts(rows):
    idx = _cut(rows.w_idx.tolist(), rows.w_ptr)
    val = _cut(rows.w_val.tolist(), rows.w_ptr)
    return [dict(zip(i, v)) for i, v in zip(idx, val)]


def _row_links(rows):
    """Each row's intra links, a list of (floor, index, coeff) tuples."""
    return _cut(list(zip(rows.l_floor.tolist(), rows.l_index.tolist(),
                         rows.l_coeff.tolist())), rows.l_ptr)


class Net3D:
    """Immutable intra-linked ReLU network with affine (multi-)readout.

    layers: the hidden layers, a tuple of Layer.  readout: a Layer with
    sizes None, one row per output over the last hidden layer (or over
    the input if there are no hidden layers).  Scalar networks have
    exactly one row; ``evaluate`` returns a plain float for those.  The
    builder DSL (``relu3d.builder_dsl.NetBuilder``) makes nets by hand.
    """

    __slots__ = ("input_dim", "layers", "_readout", "_program")

    def __init__(self, input_dim, layers, readout):
        object.__setattr__(self, "input_dim", int(input_dim))
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(self, "_readout", readout)
        object.__setattr__(self, "_program", None)
        _validate(self)

    def __setattr__(self, name, value):
        raise AttributeError("Net3D is immutable")

    @property
    def readout_weights(self):
        return tuple(_weight_dicts(self._readout))

    @property
    def readout_bias(self):
        return tuple(self._readout.bias.tolist())

    @property
    def output_dim(self):
        return len(self._readout.bias)

    def __eq__(self, other):
        if not isinstance(other, Net3D):
            return NotImplemented
        return (self.input_dim == other.input_dim
                and self.layers == other.layers
                and self._readout == other._readout)

    def __hash__(self):
        # a cheap key over fields __eq__ compares, so equal nets hash equally
        return hash((self.input_dim, self.readout_bias,
                     tuple(layer.size for layer in self.layers)))


def _check_finite(value, where):
    if not math.isfinite(value):
        raise NetFormatError(f"non-finite value at {where}")


def _bad_rows(rows, prev):
    """Rows with an out-of-range weight index, a non-finite value or (in
    a hidden layer) an intra link that is out of range or not earlier."""
    bad = ~np.isfinite(rows.bias)
    w_bad = ((rows.w_idx < 0) | (rows.w_idx >= prev)
             | ~np.isfinite(rows.w_val))
    bad[_row_ids(rows.w_ptr)[w_bad]] = True
    if len(rows.l_floor):  # the readout has no links
        row = _row_ids(rows.l_ptr)
        sf, si = rows.l_floor, rows.l_index
        ok = (sf >= 0) & (sf < len(rows.sizes))
        sf_in = np.where(ok, sf, 0).astype(np.int64)
        ok &= (si >= 0) & (si < rows.sizes[sf_in])
        # within range, (floor, index) order is flat order
        ok &= _starts(rows.sizes)[sf_in] + si < row
        bad[row[~(ok & np.isfinite(rows.l_coeff))]] = True
    return np.flatnonzero(bad)


def _row_fault(rows, r, prev, where, fi=None, ni=None):
    """Raise the first fault of row r, in the order the checks are listed."""
    a, b = int(rows.w_ptr[r]), int(rows.w_ptr[r + 1])
    for idx, w in zip(rows.w_idx[a:b].tolist(), rows.w_val[a:b].tolist()):
        if not (0 <= idx < prev):
            if fi is None:
                raise NetFormatError(f"readout weight index {idx} out of "
                                     f"range at {where}")
            raise NetFormatError(f"inbound weight index {idx} out of range "
                                 f"at {where} (previous size {prev})")
        _check_finite(w, where + ".w")
    _check_finite(rows.bias[r], where + ".b")
    a, b = int(rows.l_ptr[r]), int(rows.l_ptr[r + 1])
    for sf, si, coeff in zip(rows.l_floor[a:b].tolist(),
                             rows.l_index[a:b].tolist(),
                             rows.l_coeff[a:b].tolist()):
        if sf < 0 or sf >= len(rows.sizes):
            raise NetFormatError(f"intra source floor {sf} out of range at "
                                 f"{where}")
        if si < 0 or si >= rows.sizes[sf]:
            raise NetFormatError(f"intra source index {si} out of range at "
                                 f"{where}")
        if (sf, si) >= (fi, ni):
            raise NetFormatError(
                f"intra link at {where} must point to a strictly earlier "
                f"neuron (got floor {sf}, index {si})")
        _check_finite(coeff, where + ".intra")


def _validate(net):
    """Vectorized checks; the first fault in (layer, floor, neuron) order
    is raised with the message a neuron-by-neuron pass would give."""
    if net.input_dim < 1:
        raise NetFormatError("input_dim must be positive")
    prev = net.input_dim
    for k, rows in enumerate(net.layers):
        if not isinstance(rows, Layer) or rows.sizes is None \
                or not len(rows.sizes):
            raise NetFormatError(f"layers[{k}] must be a nonempty Layer")
        bad = _bad_rows(rows, prev)
        empty = np.flatnonzero(rows.sizes == 0)
        fi = None
        if len(bad):
            r = int(bad[0])
            fi = int(np.searchsorted(np.cumsum(rows.sizes), r, side="right"))
        if len(empty) and (fi is None or fi > empty[0]):
            raise NetFormatError(f"layers[{k}].floors[{empty[0]}] is empty")
        if fi is not None:
            ni = r - int(_starts(rows.sizes)[fi])
            _row_fault(rows, r, prev,
                       f"layers[{k}].floors[{fi}].neurons[{ni}]", fi, ni)
        prev = rows.size
    ro = net._readout
    if not isinstance(ro, Layer) or ro.sizes is not None:
        raise NetFormatError("readout must be a Layer with sizes None")
    if not ro.size or ro.size != len(ro.bias):
        raise NetFormatError("readout must have matching weight rows and biases")
    bad = _bad_rows(ro, prev)
    if len(bad):
        _row_fault(ro, int(bad[0]), prev, f"readout[{int(bad[0])}]")


def _csr_matrix(val, idx, ptr, shape):
    """scipy CSR matrix.  scipy.sparse is imported here, at the first
    compile, so building, sizing or serializing a net never loads it."""
    from scipy.sparse import csr_matrix
    return csr_matrix((val, idx, ptr), shape=shape)


def _csr(ptr, idx, val, n_cols):
    """CSR matrix of packed rows, indices sorted within each row."""
    order = _row_order(ptr, idx)
    return _csr_matrix(val[order], idx[order], np.array(ptr),
                       (len(ptr) - 1, n_cols))


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

    def __init__(self, rows, prev_size):
        n = rows.size
        self.W = _csr(rows.w_ptr, rows.w_idx, rows.w_val, prev_size)
        self.b = rows.bias
        # links as (row, flat source) entries sorted that way; duplicate
        # links are summed from 0.0 in their given order
        src = _starts(rows.sizes)[rows.l_floor] + rows.l_index
        keys, inv = np.unique(_row_ids(rows.l_ptr) * n + src,
                              return_inverse=True)
        coeff = np.zeros(len(keys))
        np.add.at(coeff, inv, rows.l_coeff)
        row, src = np.divmod(keys, n)
        linked = np.flatnonzero(np.diff(row, append=n))  # last entry per row
        starts = [0]
        for i, s in zip(row[linked].tolist(), src[linked].tolist()):
            if s >= starts[-1]:
                starts.append(i)
        self.segments = []
        for a, c in zip(starts, starts[1:] + [n]):
            G = None
            if a:
                ptr = np.searchsorted(row, np.arange(a, c + 1))
                lo, hi = ptr[0], ptr[-1]
                G = _csr_matrix(coeff[lo:hi], src[lo:hi], ptr - lo,
                                (c - a, a))
            self.segments.append((slice(a, c), G))


def _compile(net):
    if net._program is None:
        progs = []
        prev = net.input_dim
        for rows in net.layers:
            progs.append(_LayerProgram(rows, prev))
            prev = rows.size
        ro = net._readout
        R = _csr(ro.w_ptr, ro.w_idx, ro.w_val, prev)
        object.__setattr__(net, "_program", (progs, R, ro.bias))
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
        # after the ReLU a value is >= 0, +inf or nan, so the max is finite
        # exactly when every value is
        if out.size and not math.isfinite(out.max()):
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


def evaluate_array(net, pts):
    """Vectorized forward pass.  pts: (m, input_dim), or (m,) when
    input_dim is 1.  Large batches are processed in chunks of
    CHUNK_ELEMENTS // widest-layer-size points, but at least 64, so that
    one layer's activations take about 4 MiB.  Each point is independent,
    so the output does not depend on the chunk size.

    Returns (m,) for scalar nets, else (m, output_dim).
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim < 2:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != net.input_dim:
        raise NetFormatError(f"expected points of length {net.input_dim}, "
                             f"got an array of shape {pts.shape}")
    m = pts.shape[0]
    n_widest = max([net.input_dim] + [rows.size for rows in net.layers])
    chunk = max(64, min(m, CHUNK_ELEMENTS // max(1, n_widest)))
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
    for rows in net.layers + (net._readout,):
        hidden = rows.sizes is not None
        offs = _starts(rows.sizes).tolist() if hidden else []
        new = []
        for wts, b, links in zip(_weight_dicts(rows), rows.bias.tolist(),
                                 _row_links(rows)):
            z = Fraction(b)
            for idx, w in wts.items():
                z += Fraction(w) * acts[idx]
            for (sf, si, coeff) in links:
                z += Fraction(coeff) * new[offs[sf] + si]
            new.append(z if z > 0 or not hidden else Fraction(0))
        acts = new
    return acts[0] if len(acts) == 1 else acts


def metrics(net):
    """Size metrics; parameters are the nonzero weights, biases and intra
    coefficients, readout included."""
    sizes = [rows.sizes for rows in net.layers]
    param_count = 0
    for rows in net.layers + (net._readout,):
        param_count += (np.count_nonzero(rows.w_val)
                        + np.count_nonzero(rows.bias)
                        + np.count_nonzero(rows.l_coeff))
    return SizeMetrics(width=max((int(s.max()) for s in sizes), default=0),
                       depth=len(sizes),
                       height=max((len(s) for s in sizes), default=0),
                       neuron_count=sum(int(s.sum()) for s in sizes),
                       param_count=int(param_count))


# ---------------------------------------------------------------------------
# serialization


def _w_docs(rows, n_prev):
    """Each row's weight document.  Exact zeros are dropped first so the
    dense/sparse choice is canonical: the parser discards zero entries, and
    round-tripping must be bit-stable."""
    keep = rows.w_val != 0.0
    ptr = _ptr(np.bincount(_row_ids(rows.w_ptr)[keep], minlength=rows.size))
    order = _row_order(ptr, rows.w_idx[keep])
    idx = _cut(rows.w_idx[keep][order].tolist(), ptr)
    val = _cut(rows.w_val[keep][order].tolist(), ptr)
    docs = []
    for row_idx, row_val in zip(idx, val):
        if n_prev and len(row_idx) > 0.6 * n_prev:
            dense = [0.0] * n_prev
            for i, v in zip(row_idx, row_val):
                dense[i] = v
            docs.append(dense)
        else:
            docs.append({"i": row_idx, "v": row_val})
    return docs


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
    for rows in net.layers:
        neurons = [{"w": w, "b": b,
                    "intra": [{"floor": sf, "index": si, "coeff": c}
                              for (sf, si, c) in links]}
                   for w, b, links in zip(_w_docs(rows, prev),
                                          rows.bias.tolist(),
                                          _row_links(rows))]
        layers.append({"floors": [{"neurons": f} for f in
                                  _cut(neurons, _ptr(rows.sizes))]})
        prev = rows.size
    doc = {
        "schema": SCHEMA_ID,
        "input_dim": net.input_dim,
        "layers": layers,
        "readout": {
            "w": _w_docs(net._readout, prev),
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
    hidden = []
    for k, layer_doc in enumerate(_items(doc, "layers", "document")):
        sizes, weights, biases, intras = [], [], [], []
        for fi, floor_doc in enumerate(_items(layer_doc, "floors",
                                              f"layers[{k}]")):
            neurons = _items(floor_doc, "neurons", f"layers[{k}].floors[{fi}]")
            for ni, nd in enumerate(neurons):
                where = f"layers[{k}].floors[{fi}].neurons[{ni}]"
                try:
                    weights.append(_w_parse(nd["w"], prev, where + ".w"))
                    biases.append(float(nd["b"]))
                    intras.append(tuple((int(l["floor"]), int(l["index"]),
                                         float(l["coeff"]))
                                        for l in nd.get("intra", [])))
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise NetFormatError(f"malformed neuron at {where}: {exc}")
            sizes.append(len(neurons))
        hidden.append(_pack(np.array(sizes, dtype=np.int64), weights, biases,
                            intras))
        prev = len(biases)
    ro = doc.get("readout")
    if not isinstance(ro, dict) or "w" not in ro or "b" not in ro:
        raise NetFormatError("missing readout section")
    try:
        rows = [_w_parse(rd, prev, f"readout.w[{oi}]")
                for oi, rd in enumerate(ro["w"])]
        bias = [float(b) for b in ro["b"]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise NetFormatError(f"malformed readout: {exc}")
    return Net3D(input_dim, hidden, _pack(None, rows, bias))


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
    hidden = []
    widest = max((rows.size for rows in net.layers), default=0)
    for rows in net.layers:
        n, pad = rows.size, 0
        if pad_width_to and n == widest and n < pad_width_to:
            pad = pad_width_to - n
            widest = pad_width_to  # pad only one layer
        hidden.append(Layer(
            np.array([n + pad], dtype=np.int64),
            np.append(rows.w_ptr, np.full(pad, rows.w_ptr[-1])),
            rows.w_idx, rows.w_val, np.append(rows.bias, np.zeros(pad)),
            np.append(rows.l_ptr, np.full(pad, rows.l_ptr[-1])),
            np.zeros(len(rows.l_floor), dtype=np.int64),
            _starts(rows.sizes)[rows.l_floor] + rows.l_index,
            rows.l_coeff))
    return Net3D(net.input_dim, hidden, net._readout)


def _compose(outer, inner, n_basis):
    """outer's rows, read over inner's readout outputs, composed with that
    readout into rows over inner's basis (n_basis columns).

    Row by row and in outer's weight order, each product w * v joins the
    basis column of v: a column's sum starts from 0.0 and the columns keep
    the order they are first met.  The bias is outer's plus each w times
    inner's bias, in the same order.  Sizes and intra links stay outer's.
    """
    row = _row_ids(outer.w_ptr)
    o, w = outer.w_idx, outer.w_val
    counts = inner.w_ptr[o + 1] - inner.w_ptr[o]
    _, pos = _take(inner.w_ptr, o)
    keys = np.repeat(row, counts) * n_basis + inner.w_idx[pos]
    keys, first, inv = np.unique(keys, return_index=True,
                                 return_inverse=True)
    val = np.zeros(len(keys))
    np.add.at(val, inv, np.repeat(w, counts) * inner.w_val[pos])
    order = np.argsort(first)
    new_row, new_idx = np.divmod(keys[order], n_basis)
    bias = np.array(outer.bias)
    np.add.at(bias, row, w * inner.bias[o])
    return Layer(outer.sizes, _ptr(np.bincount(new_row, minlength=outer.size)),
                 new_idx, val[order], bias, outer.l_ptr, outer.l_floor,
                 outer.l_index, outer.l_coeff)


def _last_width(input_dim, hidden):
    """Size of the layer a readout reads."""
    return hidden[-1].size if hidden else input_dim


def chain(outer, inner):
    """Feed inner's outputs into outer: result(x) = outer(inner(x))."""
    if outer.input_dim != inner.output_dim:
        raise NetFormatError(f"chain mismatch: outer expects {outer.input_dim}"
                             f" inputs, inner produces {inner.output_dim}")
    n_basis = _last_width(inner.input_dim, inner.layers)
    if not outer.layers:
        return Net3D(inner.input_dim, inner.layers,
                     _compose(outer._readout, inner._readout, n_basis))
    first = _compose(outer.layers[0], inner._readout, n_basis)
    return Net3D(inner.input_dim,
                 inner.layers + (first,) + outer.layers[1:],
                 outer._readout)


def _stack(blocks, remaps):
    """Concatenate the rows of blocks, remapping each block's weight
    columns by its array in remaps (intra links unchanged)."""
    return Layer(
        None, _ptr(np.concatenate([np.diff(b.w_ptr) for b in blocks])),
        np.concatenate([m[b.w_idx] for b, m in zip(blocks, remaps)]),
        np.concatenate([b.w_val for b in blocks]),
        np.concatenate([b.bias for b in blocks]),
        _ptr(np.concatenate([np.diff(b.l_ptr) for b in blocks])),
        np.concatenate([b.l_floor for b in blocks]),
        np.concatenate([b.l_index for b in blocks]),
        np.concatenate([b.l_coeff for b in blocks]))


def _carry(readout):
    """One floor of (sigma(y), sigma(-y)) pairs for each output y of the
    readout, and the readout that recovers y from them."""
    n = readout.size
    ptr, pos = _take(readout.w_ptr, np.repeat(np.arange(n), 2))
    val = readout.w_val[pos]
    neg = np.repeat(np.arange(2 * n) % 2 == 1, np.diff(ptr))
    val[neg] = -val[neg]
    bias = np.repeat(readout.bias, 2)
    bias[1::2] = -bias[1::2]
    pad = Layer(np.array([2 * n], dtype=np.int64), ptr, readout.w_idx[pos],
                val, bias)
    pairs = Layer(None, np.arange(0, 2 * n + 1, 2), np.arange(2 * n),
                  np.tile([1.0, -1.0], n), np.zeros(n))
    return pad, pairs


def _merge(nets, share_input):
    """Run nets side by side, floors aligned (widths add, heights max).

    Returns (input_dim, hidden layers, readout) as packed rows.  Inputs are
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
        remap = [np.arange(input_dim)] * len(nets)
    else:
        ends = np.cumsum([n.input_dim for n in nets])
        input_dim = int(ends[-1])
        remap = [np.arange(e - n.input_dim, e) for n, e in zip(nets, ends)]

    # remap[j][i]: merged flat index of net j's flat index i one layer back;
    # reads[j]: net j's readout over those indices
    reads = [n._readout for n in nets]
    hidden = []
    for k in range(depth):
        parts = []
        for j, n in enumerate(nets):
            if k < len(n.layers):
                parts.append(n.layers[k])
            else:
                pad, reads[j] = _carry(reads[j])
                parts.append(pad)
        S = np.zeros((len(parts), max(len(p.sizes) for p in parts)),
                     dtype=np.int64)
        for j, p in enumerate(parts):
            S[j, :len(p.sizes)] = p.sizes
        col = np.cumsum(S, axis=0) - S  # part j's start column in floor f
        sizes = S.sum(axis=0)
        starts = _starts(sizes)
        new_remap = []
        for j, p in enumerate(parts):
            fi = np.repeat(np.arange(len(p.sizes)), p.sizes)
            at = np.arange(p.size) - _starts(p.sizes)[fi]
            new_remap.append(starts[fi] + col[j, fi] + at)
        cat = _stack(parts, remap)
        shift = np.concatenate([col[j, p.l_floor]
                                for j, p in enumerate(parts)])
        order = np.argsort(np.concatenate(new_remap))  # merged row -> cat row
        w_ptr, w_pos = _take(cat.w_ptr, order)
        l_ptr, l_pos = _take(cat.l_ptr, order)
        hidden.append(Layer(sizes, w_ptr, cat.w_idx[w_pos],
                            cat.w_val[w_pos], cat.bias[order], l_ptr,
                            cat.l_floor[l_pos],
                            (cat.l_index + shift)[l_pos],
                            cat.l_coeff[l_pos]))
        remap = new_remap
    return input_dim, hidden, _stack(reads, remap)


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
    input_dim, hidden, readout = _merge(nets, share_input=True)
    combo = Layer(None, np.array([0, len(coeffs)]), np.arange(len(coeffs)),
                  np.array(coeffs, dtype=float), np.array([float(bias)]))
    return Net3D(input_dim, hidden,
                 _compose(combo, readout, _last_width(input_dim, hidden)))


def identity_net(dim=1):
    """x -> x via sigma(x) - sigma(-x) pairs (one floor, 2*dim neurons)."""
    pairs = [{i: sign} for i in range(dim) for sign in (1.0, -1.0)]
    rows = [{2 * i: 1.0, 2 * i + 1: -1.0} for i in range(dim)]
    return Net3D(dim, [_pack(np.array([2 * dim]), pairs, [0.0] * (2 * dim))],
                 _pack(None, rows, [0.0] * dim))
