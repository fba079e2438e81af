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
from itertools import chain as iconcat, compress, repeat
from operator import itemgetter, not_

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
        the sources strictly rising in (floor, index) order, each strictly
        preceding this neuron.
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


def _cut(items, ptr):
    """items cut at the offsets ptr: one list per row (or floor)."""
    ptr = ptr.tolist()
    return [items[a:b] for a, b in zip(ptr, ptr[1:])]


class Layer:
    """The neurons of one hidden layer, or the readout rows, packed.

    sizes: the floor sizes (None for the readout).  Row r, in flat order,
    has inbound weights w_idx/w_val[w_ptr[r]:w_ptr[r + 1]], their indices
    strictly rising and explicit zeros kept, bias bias[r], and intra links
    (l_floor, l_index, l_coeff)[l_ptr[r]:l_ptr[r + 1]], their flat
    sources strictly rising, so none repeats.  Net3D refuses a row whose
    indices or sources do not rise.  A Layer is immutable and may be
    shared between nets.  It takes ownership of its arguments: each is
    taken with np.asarray (the values as floats) and made read-only, so
    the caller can no longer write an ndarray that np.asarray did not
    copy.  Layers compare array by array and are unhashable.
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
                arr = np.asarray(arr, dtype=float if name in (
                    "w_val", "bias", "l_coeff") else None)
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
        read; ValueError on the readout."""
        if self.sizes is None:
            raise ValueError("a readout Layer (sizes None) has no floors")
        neurons = [Neuron(weights=w, bias=b, intra=tuple(links))
                   for w, b, links in zip(_weight_dicts(self),
                                          self.bias.tolist(),
                                          _row_links(self))]
        return tuple(tuple(f) for f in _cut(neurons, _ptr(self.sizes)))

    def __eq__(self, other):
        if other.__class__ is not Layer:
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in self.__slots__)


def _int_keys(keys, what):
    """_ints of keys that must each be an int, refused as the reader
    refuses them otherwise: int64 would truncate 0.7 to 0."""
    keys = list(keys)
    if not set(map(type, keys)) <= {int}:
        bad = next(k for k in keys if type(k) is not int)
        raise NetFormatError(f"malformed {what} {bad!r}: expected an "
                             f"integer, got {type(bad).__name__}")
    return _ints(keys)


def _pack(sizes, weights, biases, intras=None):
    """Layer from per-row weight dicts (in any order), biases and
    intra-link tuples (each row's in rising (floor, index) order)."""
    weights = [dict(sorted(w.items())) for w in weights]
    w_ptr = _ptr([len(w) for w in weights])
    w_idx = _int_keys(iconcat.from_iterable(weights), "weight index")
    w_val = np.fromiter(iconcat.from_iterable(w.values() for w in weights),
                        dtype=float, count=int(w_ptr[-1]))
    bias = np.array(biases, dtype=float).reshape(-1)
    if intras is None:
        return Layer(sizes, w_ptr, w_idx, w_val, bias)
    links = list(iconcat.from_iterable(intras))
    return Layer(sizes, w_ptr, w_idx, w_val, bias,
                 _ptr([len(t) for t in intras]),
                 _int_keys((t[0] for t in links), "intra source floor"),
                 _int_keys((t[1] for t in links), "intra source index"),
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


def _is_int(arr):
    """An integer array, or an object array of ints (the form _ints gives
    indices past the int64 range)."""
    return arr.dtype.kind in "iu" or (
        arr.dtype == object and set(map(type, arr.tolist())) <= {int})


def _check_arrays(rows, where):
    """Raise unless the arrays of rows fit together, so that the row checks
    can read them: one dimension each, integer offsets and sizes, integer
    indices, offsets that run from 0 to their entry count without falling,
    paired arrays of one length, one bias per row, floor sizes that sum to
    the rows and no intra link in the readout."""
    if any(getattr(rows, name).ndim != 1 for name in Layer.__slots__
           if getattr(rows, name) is not None):
        raise NetFormatError(f"{where} arrays must be one-dimensional")
    if any(a.dtype.kind not in "iu" for a in (rows.sizes, rows.w_ptr,
                                             rows.l_ptr) if a is not None) \
            or not all(map(_is_int, (rows.w_idx, rows.l_floor, rows.l_index))):
        raise NetFormatError(f"{where} offsets, sizes and indices must be "
                             f"integers")
    n = len(rows.w_ptr) - 1
    for name, entries in (("w_ptr", len(rows.w_idx)),
                          ("l_ptr", len(rows.l_floor))):
        ptr = getattr(rows, name)
        if len(ptr) != n + 1 or n < 0 or ptr[0] != 0 or ptr[-1] != entries \
                or np.any(ptr[1:] < ptr[:-1]):
            raise NetFormatError(f"{where}.{name} must run from 0 to "
                                 f"{entries} without falling, one offset per "
                                 f"row and one more")
    if len(rows.w_val) != len(rows.w_idx) \
            or not len(rows.l_floor) == len(rows.l_index) == len(rows.l_coeff):
        raise NetFormatError(f"{where} index and value arrays differ in "
                             f"length")
    if len(rows.bias) != n:
        raise NetFormatError(f"{where} must have matching weight rows and "
                             f"biases")
    if rows.sizes is None:
        if len(rows.l_floor):
            raise NetFormatError(f"{where} must have no intra links")
    elif np.any(rows.sizes < 0) or rows.sizes.sum() != n:
        raise NetFormatError(f"{where} floor sizes must be nonnegative and "
                             f"sum to its row count {n}")


def _falls(row, keys):
    """The row of each entry whose key does not rise above the key of the
    entry before it in the same row."""
    return row[1:][(row[1:] == row[:-1]) & (keys[1:] <= keys[:-1])]


def _bad_rows(rows, prev):
    """Rows with an out-of-range weight index, a weight index that does
    not rise above the one before it, a non-finite value or (in a hidden
    layer) an intra link that is out of range, not earlier or whose
    source does not rise above the one before it."""
    bad = ~np.isfinite(rows.bias)
    idx, row = rows.w_idx, _row_ids(rows.w_ptr)
    bad[row[(idx < 0) | (idx >= prev) | ~np.isfinite(rows.w_val)]] = True
    bad[_falls(row, idx)] = True
    if len(rows.l_floor):  # the readout has no links
        row = _row_ids(rows.l_ptr)
        sf, si = rows.l_floor, rows.l_index
        ok = (sf >= 0) & (sf < len(rows.sizes))
        sf_in = np.where(ok, sf, 0).astype(np.int64)
        ok &= (si >= 0) & (si < rows.sizes[sf_in])
        # within range, (floor, index) order is flat order
        src = _starts(rows.sizes)[sf_in] + si
        ok &= src < row
        bad[row[~(ok & np.isfinite(rows.l_coeff))]] = True
        bad[_falls(row, src)] = True
    return np.flatnonzero(bad)


def _row_fault(rows, r, prev, where, fi=None, ni=None):
    """Raise the first fault of row r, in the order the checks are listed."""
    a, b = int(rows.w_ptr[r]), int(rows.w_ptr[r + 1])
    last = -1
    for idx, w in zip(rows.w_idx[a:b].tolist(), rows.w_val[a:b].tolist()):
        if not (0 <= idx < prev):
            if fi is None:
                raise NetFormatError(f"readout weight index {idx} out of "
                                     f"range at {where}")
            raise NetFormatError(f"inbound weight index {idx} out of range "
                                 f"at {where} (previous size {prev})")
        if idx == last:
            raise NetFormatError(f"repeated weight index {idx} at {where}")
        if idx < last:
            raise NetFormatError(f"weight index {idx} after {last} at "
                                 f"{where}")
        last = idx
        _check_finite(w, where + ".w")
    _check_finite(rows.bias[r], where + ".b")
    a, b = int(rows.l_ptr[r]), int(rows.l_ptr[r + 1])
    last = (-1, -1)
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
        if (sf, si) == last:
            raise NetFormatError(f"repeated intra source (floor {sf}, index "
                                 f"{si}) at {where}")
        if (sf, si) < last:
            raise NetFormatError(f"intra source (floor {sf}, index {si}) "
                                 f"after (floor {last[0]}, index {last[1]}) "
                                 f"at {where}")
        last = sf, si


def _validate(net):
    """Vectorized checks; the first fault in (layer, floor, neuron) order
    is raised with the message a neuron-by-neuron pass would give."""
    if net.input_dim < 1:
        raise NetFormatError("input_dim must be positive")
    prev = net.input_dim
    for k, rows in enumerate(net.layers):
        if not isinstance(rows, Layer) or rows.sizes is None \
                or not rows.sizes.size:
            raise NetFormatError(f"layers[{k}] must be a nonempty Layer")
        _check_arrays(rows, f"layers[{k}]")
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
    _check_arrays(ro, "readout")
    if not ro.size:
        raise NetFormatError("readout must have matching weight rows and biases")
    bad = _bad_rows(ro, prev)
    if len(bad):
        _row_fault(ro, int(bad[0]), prev, f"readout[{int(bad[0])}]")


def _csr_matrix(val, idx, ptr, shape):
    """scipy CSR matrix that owns copies of its arrays (a Layer's are
    read-only).  scipy.sparse is imported here, at the first compile, so
    building, sizing or serializing a net never loads it."""
    from scipy.sparse import csr_matrix
    return csr_matrix((val, idx, ptr), shape=shape, copy=True)


class _LayerProgram:
    """One hidden layer compiled for the forward pass.

    W, b: the affine part over the previous layer's outputs.  segments:
    (rows, G) for each segment, a run of the flat neuron order, G holding
    the intra-link coefficients of those rows over the neurons before the
    segment (None for the first).  Each row's links rise by flat source
    and repeat none, so G is a slice of the packed links.  A neuron starts
    a new segment when one of its intra sources lies at or after the
    current segment's start, so no neuron of a segment reads another and
    each segment takes one step.
    Where no intra link joins two neurons of one floor (every builder,
    merge and pad), each floor starts at most one segment: a layer takes
    at most one step per floor.
    """

    __slots__ = ("W", "b", "segments")

    def __init__(self, rows, prev_size):
        n = rows.size
        self.W = _csr_matrix(rows.w_val, rows.w_idx, rows.w_ptr,
                             (n, prev_size))
        self.b = rows.bias
        src = _starts(rows.sizes)[rows.l_floor] + rows.l_index
        ptr = rows.l_ptr
        linked = np.flatnonzero(np.diff(ptr))  # the rows with links
        starts = [0]
        # a row's last link has its largest source
        for i, s in zip(linked.tolist(), src[ptr[linked + 1] - 1].tolist()):
            if s >= starts[-1]:
                starts.append(i)
        self.segments = []
        for a, c in zip(starts, starts[1:] + [n]):
            G = None
            if a:
                lo, hi = ptr[a], ptr[c]
                G = _csr_matrix(rows.l_coeff[lo:hi], src[lo:hi],
                                ptr[a:c + 1] - lo, (c - a, a))
            self.segments.append((slice(a, c), G))


def _compile(net):
    if net._program is None:
        progs = []
        prev = net.input_dim
        for rows in net.layers:
            progs.append(_LayerProgram(rows, prev))
            prev = rows.size
        ro = net._readout
        R = _csr_matrix(ro.w_val, ro.w_idx, ro.w_ptr, (ro.size, prev))
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


def _float_texts(values):
    """repr of each float, as json.dumps writes it, in an object array.
    Each distinct bit pattern (so -0.0 apart from 0.0) is formatted once."""
    bits, inv = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(list(map(repr, bits.view(float).tolist())),
                    dtype=object)[inv]


def _int_texts(values):
    """repr of each int of a validated net (an index or a floor, so
    nonnegative and below a layer size), as a list."""
    top = int(values.max()) + 1 if len(values) else 0
    return np.array(list(map(repr, range(top))), dtype=object)[values].tolist()


def _w_texts(rows, n_prev):
    """Each row's weight document text.  Exact zeros are dropped first so
    the dense/sparse choice is canonical: the parser discards zero entries,
    and round-tripping must be bit-stable.  A row with more than
    0.6 n_prev entries is written dense."""
    keep = rows.w_val != 0.0
    ptr = _ptr(np.bincount(_row_ids(rows.w_ptr)[keep], minlength=rows.size))
    idx = rows.w_idx[keep]
    val = _float_texts(rows.w_val[keep])
    texts = [f'{{"i": [{i}], "v": [{v}]}}' for i, v in
             zip(map(", ".join, _cut(_int_texts(idx), ptr)),
                 map(", ".join, _cut(val.tolist(), ptr)))]
    dense = np.flatnonzero(np.diff(ptr) > 0.6 * n_prev)
    if len(dense):
        grid = np.full((len(dense), n_prev), "0.0", dtype=object)
        dense_ptr, pos = _take(ptr, dense)
        grid[_row_ids(dense_ptr), idx[pos]] = val[pos]
        for r, tokens in zip(dense.tolist(), grid.tolist()):
            texts[r] = "[" + ", ".join(tokens) + "]"
    return texts


def serialize(net):
    """Return the schema-versioned document (a JSON string): the text
    json.dumps gives for the document's dicts, written from the packed
    arrays.  Floats are written as repr, which round-trips bit-exactly
    (shortest representation, <= 17 significant digits)."""
    prev = net.input_dim
    layers = []
    for rows in net.layers:
        links = [f'{{"floor": {f}, "index": {i}, "coeff": {c}}}'
                 for f, i, c in zip(_int_texts(rows.l_floor),
                                    _int_texts(rows.l_index),
                                    _float_texts(rows.l_coeff).tolist())]
        neurons = [f'{{"w": {w}, "b": {b}, "intra": [{l}]}}'
                   for w, b, l in zip(_w_texts(rows, prev),
                                      _float_texts(rows.bias).tolist(),
                                      map(", ".join,
                                          _cut(links, rows.l_ptr)))]
        floors = map(", ".join, _cut(neurons, _ptr(rows.sizes)))
        layers.append('{"floors": [%s]}' % ", ".join(
            f'{{"neurons": [{f}]}}' for f in floors))
        prev = rows.size
    ro = net._readout
    return ('{"schema": %s, "input_dim": %d, "layers": [%s], "readout": '
            '{"w": [%s], "b": [%s]}}' % (
                json.dumps(SCHEMA_ID), net.input_dim, ", ".join(layers),
                ", ".join(_w_texts(ro, prev)),
                ", ".join(_float_texts(ro.bias).tolist())))


_W, _B, _I, _V, _FLOOR, _INDEX, _COEFF = map(
    itemgetter, ("w", "b", "i", "v", "floor", "index", "coeff"))
# what a fault in a document raises before it is named
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _number(v):
    """float of a JSON number (an int or a float, not a bool)."""
    if type(v) not in (int, float):
        raise TypeError(f"expected a number, got {type(v).__name__}")
    return float(v)


def _integer(v):
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {type(v).__name__}")
    return v


def _list(v):
    if type(v) is not list:
        raise TypeError(f"expected a list, got {type(v).__name__}")
    return v


def _numbers(values):
    """float array of JSON numbers; TypeError on any other value and
    OverflowError on an int past the float range."""
    if not set(map(type, values)) <= {int, float}:
        raise TypeError("expected numbers")
    return np.array(values, dtype=float)


def _integers(values):
    if not set(map(type, values)) <= {int}:
        raise TypeError("expected integers")
    return _ints(values)


def _items(doc, key, where):
    """doc[key] (default []) as a list of JSON objects."""
    items = doc.get(key, [])
    if not isinstance(items, list) or not all(map(isinstance, items,
                                                  repeat(dict))):
        raise NetFormatError(f"{where}.{key} must be a list of objects")
    return items


def _weight_rows(docs, prev):
    """w_ptr, w_idx, w_val of a list of weight documents: a dense row
    without its zeros, a sparse row as written.  A fault raises one of
    _MALFORMED, unnamed."""
    dense = list(map(isinstance, docs, repeat(list)))
    full = list(compress(docs, dense))
    sparse = list(compress(docs, map(not_, dense)))
    d_row = d_idx = _NO_INTS
    d_val = _NO_FLOATS
    if full:
        if set(map(len, full)) != {prev}:
            raise ValueError("wrong inbound weight length")
        grid = _numbers(list(iconcat.from_iterable(full))).reshape(
            len(full), prev)
        d_row, d_idx = np.nonzero(grid)
        d_val = grid[d_row, d_idx]
    idx, val = list(map(_I, sparse)), list(map(_V, sparse))
    counts = list(map(len, idx))
    if (set(map(len, sparse)) - {2} or set(map(type, idx + val)) - {list}
            or list(map(len, val)) != counts):
        raise ValueError("malformed sparse row")
    s_idx = _integers(list(iconcat.from_iterable(idx)))
    if len(s_idx) and (s_idx.min() < 0 or s_idx.max() >= prev):
        raise ValueError("weight index out of range")
    is_dense = np.array(dense, dtype=bool)
    row = np.concatenate([np.flatnonzero(is_dense)[d_row],
                          np.repeat(np.flatnonzero(~is_dense), counts)])
    w_idx = np.concatenate([d_idx, s_idx])
    order = np.lexsort((w_idx, row))
    row, w_idx = row[order], w_idx[order]
    if np.any((row[1:] == row[:-1]) & (w_idx[1:] == w_idx[:-1])):
        raise ValueError("repeated weight index")
    s_val = _numbers(list(iconcat.from_iterable(val)))
    return (_ptr(np.bincount(row, minlength=len(docs))), w_idx,
            np.concatenate([d_val, s_val])[order])


def _read_layer(layer_doc, k, prev):
    """Hidden layer k from its document, one array conversion per field."""
    floors = [_items(f, "neurons", f"layers[{k}].floors[{fi}]")
              for fi, f in enumerate(_items(layer_doc, "floors",
                                            f"layers[{k}]"))]
    neurons = list(iconcat.from_iterable(floors))
    intras = list(map(dict.get, neurons, repeat("intra"), repeat([])))
    if set(map(type, intras)) - {list}:
        raise TypeError("expected lists")
    links = list(iconcat.from_iterable(intras))
    return Layer(np.array(list(map(len, floors)), dtype=np.int64),
                 *_weight_rows(list(map(_W, neurons)), prev),
                 _numbers(list(map(_B, neurons))),
                 _ptr(list(map(len, intras))),
                 _integers(list(map(_FLOOR, links))),
                 _integers(list(map(_INDEX, links))),
                 _numbers(list(map(_COEFF, links))))


def _w_check(doc, n_prev, where):
    """Raise the first fault of a row's weight document."""
    if isinstance(doc, list):
        if len(doc) != n_prev:
            raise NetFormatError(f"wrong inbound weight length at {where}: "
                                 f"expected {n_prev}, got {len(doc)}")
        for v in doc:
            _number(v)
    elif isinstance(doc, dict) and set(doc) == {"i", "v"}:
        idx, val = _list(doc["i"]), _list(doc["v"])
        if len(idx) != len(val):
            raise NetFormatError(f"sparse weight index/value length mismatch "
                                 f"at {where}")
        seen = set()
        for i, v in zip(idx, val):
            i = _integer(i)
            if not (0 <= i < n_prev):
                raise NetFormatError(f"weight index {i} out of range at {where}")
            if i in seen:
                raise NetFormatError(f"repeated weight index {i} at {where}")
            seen.add(i)
            _number(v)
    else:
        raise NetFormatError(f"malformed weight document at {where}")


def _layer_fault(layer_doc, k, prev):
    """Raise the first fault of layer k's document, neuron by neuron."""
    for fi, floor_doc in enumerate(_items(layer_doc, "floors",
                                          f"layers[{k}]")):
        neurons = _items(floor_doc, "neurons", f"layers[{k}].floors[{fi}]")
        for ni, nd in enumerate(neurons):
            where = f"layers[{k}].floors[{fi}].neurons[{ni}]"
            try:
                _w_check(nd["w"], prev, where + ".w")
                _number(nd["b"])
                for link in _list(nd.get("intra", [])):
                    _integer(link["floor"])
                    _integer(link["index"])
                    _number(link["coeff"])
            except _MALFORMED as exc:
                raise NetFormatError(f"malformed neuron at {where}: {exc}")


def _readout_fault(ro, prev):
    """Raise the first fault of the readout's document, row by row."""
    try:
        for oi, rd in enumerate(_list(ro["w"])):
            _w_check(rd, prev, f"readout.w[{oi}]")
        for b in _list(ro["b"]):
            _number(b)
    except _MALFORMED as exc:
        raise NetFormatError(f"malformed readout: {exc}")


def deserialize(document):
    """Parse a document produced by serialize (str or parsed dict).

    Numbers must be JSON numbers, indices and input_dim integers, and
    sparse rows may not repeat an index.  Each layer is read in one pass
    with array conversions; a layer with a fault is walked again neuron by
    neuron to name its first fault in document order.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except (ValueError, RecursionError) as exc:  # undecodable or nested
            raise NetFormatError(f"invalid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise NetFormatError("document root must be an object")
    if doc.get("schema") != SCHEMA_ID:
        raise NetFormatError(f"unsupported schema {doc.get('schema')!r} at "
                             f"schema (expected {SCHEMA_ID})")
    try:
        input_dim = _integer(doc["input_dim"])
    except (KeyError, TypeError):
        raise NetFormatError("missing or invalid input_dim")
    prev = input_dim
    hidden = []
    for k, layer_doc in enumerate(_items(doc, "layers", "document")):
        try:
            hidden.append(_read_layer(layer_doc, k, prev))
        except _MALFORMED:
            _layer_fault(layer_doc, k, prev)
            raise
        prev = hidden[-1].size
    ro = doc.get("readout")
    if not isinstance(ro, dict) or "w" not in ro or "b" not in ro:
        raise NetFormatError("missing readout section")
    try:
        readout = Layer(None, *_weight_rows(_list(ro["w"]), prev),
                        _numbers(_list(ro["b"])))
    except _MALFORMED:
        _readout_fault(ro, prev)
        raise
    return Net3D(input_dim, hidden, readout)


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
    basis column of v: a column's sum starts from 0.0, and each row's
    columns rise, as a Layer's must.  The bias is outer's plus each w times
    inner's bias, in the same order.  Sizes and intra links stay outer's.
    """
    row = _row_ids(outer.w_ptr)
    o, w = outer.w_idx, outer.w_val
    counts = inner.w_ptr[o + 1] - inner.w_ptr[o]
    _, pos = _take(inner.w_ptr, o)
    keys = np.repeat(row, counts) * n_basis + inner.w_idx[pos]
    keys, inv = np.unique(keys, return_inverse=True)
    val = np.zeros(len(keys))
    np.add.at(val, inv, np.repeat(w, counts) * inner.w_val[pos])
    new_row, new_idx = np.divmod(keys, n_basis)
    bias = np.array(outer.bias)
    np.add.at(bias, row, w * inner.bias[o])
    return Layer(outer.sizes, _ptr(np.bincount(new_row, minlength=outer.size)),
                 new_idx, val, bias, outer.l_ptr, outer.l_floor,
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
