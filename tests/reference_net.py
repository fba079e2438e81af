"""Scalar reference checks of Net3D documents and hand-made parts.

These are the neuron-by-neuron forms of ``relu3d.net``'s validation, size
metrics, document writer and document parser, kept as independent oracles
for the vectorized code: they walk Neuron floors and plain dicts and share
nothing with the packed arrays but ``NetFormatError``, ``Neuron`` and
``SizeMetrics``.  Only ``pack``, which makes nets for relu3d.net to
check, uses its ``_pack`` and ``Net3D``.

A net is given as its parts (input_dim, layers, readout_weights,
readout_bias), each layer a tuple of floors and each floor a tuple of
Neuron; ``parts(net)`` reads them from a Net3D.  ``pack(*parts)`` packs
them into a Net3D, unchecked, so that relu3d.net's own validation sees
hand-made nets that are invalid on purpose (``NetBuilder`` refuses those
while wiring).  ``decision`` and ``array_decision`` give the outcome of
the reference and of relu3d.net in one comparable form.
"""

import json
import math

import numpy as np

from relu3d.net import (SCHEMA_ID, Net3D, NetFormatError, Neuron, SizeMetrics,
                        _pack, metrics as array_metrics)


def parts(net):
    return (net.input_dim, [layer.floors for layer in net.layers],
            net.readout_weights, net.readout_bias)


def pack(input_dim, layers, readout_weights, readout_bias):
    """The Net3D of the parts.  A layer that is not a tuple of floors is
    passed on as it is, for Net3D to refuse."""
    packed = []
    for floors in layers:
        if isinstance(floors, tuple):
            neurons = [nrn for floor in floors for nrn in floor]
            floors = _pack(np.array([len(f) for f in floors], dtype=np.int64),
                           [n.weights for n in neurons],
                           [n.bias for n in neurons],
                           [n.intra for n in neurons])
        packed.append(floors)
    return Net3D(input_dim, packed,
                 _pack(None, list(readout_weights),
                       [float(b) for b in readout_bias]))


def decision(make_parts):
    """("ok", metrics) of the parts make_parts() returns, checked here, or
    ("error", message)."""
    try:
        found = make_parts()
        validate(*found)
    except NetFormatError as exc:
        return "error", str(exc)
    return "ok", metrics(*found)


def array_decision(make_net):
    """The same for the Net3D make_net() returns, checked by relu3d.net."""
    try:
        net = make_net()
    except NetFormatError as exc:
        return "error", str(exc)
    return "ok", array_metrics(net)


def _check_finite(value, where):
    if not math.isfinite(value):
        raise NetFormatError(f"non-finite value at {where}")


def validate(input_dim, layers, readout_weights, readout_bias):
    if input_dim < 1:
        raise NetFormatError("input_dim must be positive")
    prev = input_dim
    for k, floors in enumerate(layers):
        if not isinstance(floors, tuple) or not floors:
            raise NetFormatError(f"layers[{k}] must be a nonempty Layer")
        for fi, floor in enumerate(floors):
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
                last = None
                for (sf, si, coeff) in nrn.intra:
                    if sf < 0 or sf >= len(floors):
                        raise NetFormatError(f"intra source floor {sf} out of "
                                             f"range at {where}")
                    if si < 0 or si >= len(floors[sf]):
                        raise NetFormatError(f"intra source index {si} out of "
                                             f"range at {where}")
                    if (sf, si) >= (fi, ni):
                        raise NetFormatError(
                            f"intra link at {where} must point to a strictly "
                            f"earlier neuron (got floor {sf}, index {si})")
                    _check_finite(coeff, where + ".intra")
                    # the sources rise: none repeats or falls
                    if last == (sf, si):
                        raise NetFormatError(
                            f"repeated intra source (floor {sf}, index {si}) "
                            f"at {where}")
                    if last is not None and (sf, si) < last:
                        raise NetFormatError(
                            f"intra source (floor {sf}, index {si}) after "
                            f"(floor {last[0]}, index {last[1]}) at {where}")
                    last = (sf, si)
        prev = sum(len(f) for f in floors)
    if not readout_weights or len(readout_weights) != len(readout_bias):
        raise NetFormatError("readout must have matching weight rows and biases")
    for oi, row in enumerate(readout_weights):
        for idx, w in row.items():
            if not (0 <= idx < prev):
                raise NetFormatError(f"readout weight index {idx} out of range "
                                     f"at readout[{oi}]")
            _check_finite(w, f"readout[{oi}].w")
        _check_finite(readout_bias[oi], f"readout[{oi}].b")


def metrics(input_dim, layers, readout_weights, readout_bias):
    width = 0
    height = 0
    neuron_count = 0
    param_count = 0
    for floors in layers:
        height = max(height, len(floors))
        for floor in floors:
            width = max(width, len(floor))
            neuron_count += len(floor)
            for nrn in floor:
                param_count += sum(1 for w in nrn.weights.values() if w != 0.0)
                param_count += 1 if nrn.bias != 0.0 else 0
                param_count += sum(1 for (_, _, c) in nrn.intra if c != 0.0)
    for row, b in zip(readout_weights, readout_bias):
        param_count += sum(1 for w in row.values() if w != 0.0)
        param_count += 1 if b != 0.0 else 0
    return SizeMetrics(width=width, depth=len(layers), height=height,
                       neuron_count=neuron_count, param_count=param_count)


def _w_doc(weights, n_prev):
    """A row's weight document.  Exact zeros are dropped first, so the
    dense/sparse choice is canonical."""
    row = sorted((i, v) for i, v in weights.items() if v != 0.0)
    if n_prev and len(row) > 0.6 * n_prev:
        dense = [0.0] * n_prev
        for i, v in row:
            dense[i] = v
        return dense
    return {"i": [i for i, _ in row], "v": [v for _, v in row]}


def serialize(net):
    """The document of a net (one without repeated weight indices in a
    row, as every constructor makes), one dict per neuron through
    json.dumps."""
    input_dim, layers, readout_weights, readout_bias = parts(net)
    prev = input_dim
    layer_docs = []
    for floors in layers:
        layer_docs.append({"floors": [
            {"neurons": [{"w": _w_doc(nrn.weights, prev), "b": nrn.bias,
                          "intra": [{"floor": sf, "index": si, "coeff": c}
                                    for (sf, si, c) in nrn.intra]}
                         for nrn in floor]}
            for floor in floors]})
        prev = sum(len(f) for f in floors)
    return json.dumps({
        "schema": SCHEMA_ID,
        "input_dim": input_dim,
        "layers": layer_docs,
        "readout": {"w": [_w_doc(w, prev) for w in readout_weights],
                    "b": list(readout_bias)},
    })


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


def _w_parse(doc, n_prev, where):
    if isinstance(doc, list):
        if len(doc) != n_prev:
            raise NetFormatError(f"wrong inbound weight length at {where}: "
                                 f"expected {n_prev}, got {len(doc)}")
        return {i: v for i, v in enumerate(map(_number, doc)) if v != 0.0}
    if isinstance(doc, dict) and set(doc) == {"i", "v"}:
        idx, val = _list(doc["i"]), _list(doc["v"])
        if len(idx) != len(val):
            raise NetFormatError(f"sparse weight index/value length mismatch "
                                 f"at {where}")
        out = {}
        for i, v in zip(idx, val):
            i = _integer(i)
            if not (0 <= i < n_prev):
                raise NetFormatError(f"weight index {i} out of range at {where}")
            if i in out:
                raise NetFormatError(f"repeated weight index {i} at {where}")
            out[i] = _number(v)
        return out
    raise NetFormatError(f"malformed weight document at {where}")


def _items(doc, key, where):
    items = doc.get(key, [])
    if not isinstance(items, list) or not all(isinstance(v, dict)
                                              for v in items):
        raise NetFormatError(f"{where}.{key} must be a list of objects")
    return items


def parse(document):
    """The parts of a serialized document, unvalidated."""
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
                    bias = _number(nd["b"])
                    intra = tuple((_integer(l["floor"]), _integer(l["index"]),
                                   _number(l["coeff"]))
                                  for l in _list(nd.get("intra", [])))
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise NetFormatError(f"malformed neuron at {where}: {exc}")
                neurons.append(Neuron(weights=weights, bias=bias, intra=intra))
            floors.append(tuple(neurons))
        layers.append(tuple(floors))
        prev = sum(len(f) for f in floors)
    ro = doc.get("readout")
    if not isinstance(ro, dict) or "w" not in ro or "b" not in ro:
        raise NetFormatError("missing readout section")
    try:
        rows = [_w_parse(rd, prev, f"readout.w[{oi}]")
                for oi, rd in enumerate(_list(ro["w"]))]
        bias = [_number(b) for b in _list(ro["b"])]
    except (TypeError, ValueError, OverflowError) as exc:
        raise NetFormatError(f"malformed readout: {exc}")
    return input_dim, layers, rows, bias
