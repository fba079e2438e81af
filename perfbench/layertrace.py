"""Span tracer that measures relu3d layer by layer from outside the package.

``Tracer.install`` wraps the public functions of each relu3d module listed
in ``LAYERS`` and rebinds every reference to them in every loaded relu3d
module namespace (``builders`` holds its own ``chain``, ``verify`` its own
``evaluate_array``, and so on), so calls between modules are traced too.
``uninstall`` puts the originals back; nothing under ``src/`` changes.

Each call becomes a span: name, layer, start, end, parent span and op id,
kept in memory.  A layer's self time is its span durations minus the time
covered by their direct children.  Work counts (points, flops, bytes, ...)
are attached to the outermost span of a layer only, so a public function
that calls another of the same layer (``evaluate_batch`` calling
``evaluate_array``) is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

import numpy as np

# layer -> (module, attributes); None means every public function defined in
# the module itself (re-exports excluded), a string only those with that prefix
LAYERS = (
    ("net.forward", "relu3d.net", ("evaluate_array", "evaluate_batch",
                                   "evaluate")),
    ("net.compose", "relu3d.net", ("chain", "parallel", "parallel_shared",
                                   "linear_combine", "flatten_to_2d")),
    ("net.construct", "relu3d.net", ("Net3D.__init__",)),
    ("net.serialize", "relu3d.net", ("serialize", "deserialize")),
    ("net.metrics", "relu3d.net", ("metrics",)),
    ("builders", "relu3d.builders", "build_"),
    ("builder_dsl", "relu3d.builder_dsl", ("NetBuilder.commit",
                                           "NetBuilder.finish")),
    ("blocks", "relu3d.blocks", None),
    ("trig_operator", "relu3d.trig_operator", None),
    ("hermite", "relu3d.hermite", None),
    ("chebyshev", "relu3d.chebyshev", None),
    ("smoothness", "relu3d.smoothness", None),
    ("targets", "relu3d.targets", ("TargetSpec.__call__",
                                   "parity_decompose")),
    ("verify", "relu3d.verify", ("sup_error", "lp_error", "gauss_l2_error")),
    ("twins", "relu3d.twins", None),
)

# extra work counts reported per layer, besides self_s, calls and errors;
# verify.points are the points its calls pushed through net.forward
LAYER_COUNTS = {
    "net.forward": ("points", "flops", "bytes", "levels"),
    "net.compose": ("neurons_out",),
    "net.construct": ("neurons",),
    "net.serialize": ("bytes",),
    "targets": ("points",),
    "verify": ("points",),
    "twins": ("points",),
}

WORD = 8  # bytes per float64 value
COST_CACHE = 4  # nets whose NetCost is kept; a workload evaluates few at once


class NetCost:
    """Forward cost of a Net3D, read from its public structure
    (layers, floors, neuron weights, intra links, readout) only.

    nnz: nonzero inbound, intra-link and readout coefficients.
    weight_bytes: those coefficients plus one bias per hidden neuron and
        per output, 8 bytes each, read once per forward call.
    act_words: activations read and written per point: each layer reads
        its inputs and writes its outputs, a layer with intra links reads
        its own outputs back once more, and the readout reads the last
        layer and writes the outputs.
    levels: sequential steps per pass; a layer takes one step per
        intra-link dependency level (one step when it has no links).
    """

    __slots__ = ("nnz", "weight_bytes", "act_words", "levels")

    def __init__(self, net):
        nnz = 0
        biases = net.output_dim
        act_words = 0
        levels = 0
        prev = net.input_dim
        for layer in net.layers:
            offs, acc = [], 0
            for floor in layer.floors:
                offs.append(acc)
                acc += len(floor)
            level = []
            has_intra = False
            for floor in layer.floors:
                for nrn in floor:
                    nnz += sum(1 for w in nrn.weights.values() if w != 0.0)
                    lv = 0
                    for sf, si, c in nrn.intra:
                        if c != 0.0:
                            nnz += 1
                            has_intra = True
                            lv = max(lv, level[offs[sf] + si] + 1)
                    level.append(lv)
            biases += acc
            act_words += prev + acc + (acc if has_intra else 0)
            levels += max(level) + 1
            prev = acc
        for row in net.readout_weights:
            nnz += sum(1 for w in row.values() if w != 0.0)
        act_words += prev + net.output_dim
        self.nnz = nnz
        self.weight_bytes = WORD * (nnz + biases)
        self.act_words = act_words
        self.levels = levels

    def counts(self, points):
        """Work of one forward call over `points` points."""
        return {"points": points,
                "flops": 2 * self.nnz * points,
                "bytes": self.weight_bytes + WORD * self.act_words * points,
                "levels": self.levels}


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "op",
                 "child_s", "counts", "error", "outer")

    def __init__(self, sid, name, layer, parent, op, outer):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.outer = outer
        self.child_s = 0.0
        self.counts = {}
        self.error = False
        self.start = time.perf_counter()
        self.end = None

    def as_list(self):
        return [self.sid, self.name, self.layer, self.start, self.end,
                None if self.parent is None else self.parent.sid, self.op,
                self.counts, self.error]


def _first_rows(args):
    for a in args:
        if isinstance(a, np.ndarray):
            return int(a.shape[0]) if a.ndim else 1
    return 0


def _rows(result):
    if isinstance(result, np.ndarray):
        return int(result.shape[0]) if result.ndim else 1
    if isinstance(result, list):
        return len(result)
    return 1


def _neurons(net):
    return sum(layer.size for layer in net.layers)


class Tracer:
    """Collects spans; `install` / `uninstall` switch the wrappers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = {}       # layer -> open spans of that layer
        self._op = None
        self._patches = []
        self._costs = {}       # id(net) -> (net, NetCost), newest last

    # -- spans ---------------------------------------------------------------

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        outer = self._depth.get(layer, 0) == 0
        sp = Span(len(self.spans), name, layer, parent, self._op, outer)
        self.spans.append(sp)
        self._stack.append(sp)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        return sp

    def _close(self, sp):
        sp.end = time.perf_counter()
        self._stack.pop()
        self._depth[sp.layer] -= 1
        if sp.parent is not None:
            sp.parent.child_s += sp.end - sp.start

    @contextlib.contextmanager
    def root(self, name, op):
        """A root span: one set-up step or one op."""
        self._op = op
        sp = self._open(name, None)
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            self._close(sp)
            self._op = None

    # -- counts --------------------------------------------------------------

    def net_cost(self, net):
        hit = self._costs.pop(id(net), None)
        if hit is None or hit[0] is not net:
            hit = (net, NetCost(net))
        self._costs[id(net)] = hit
        while len(self._costs) > COST_CACHE:
            self._costs.pop(next(iter(self._costs)))
        return hit[1]

    def _count(self, sp, args, result):
        layer = sp.layer
        if layer == "net.forward":
            pts = _rows(result)
            sp.counts = self.net_cost(args[0]).counts(pts)
            for anc in self._stack:
                if anc.layer == "verify" and anc.outer:
                    anc.counts["points"] = anc.counts.get("points", 0) + pts
                    break
        elif layer == "net.compose":
            sp.counts = {"neurons_out": _neurons(result)}
        elif layer == "net.construct":
            sp.counts = {"neurons": _neurons(args[0])}
        elif layer == "net.serialize":
            doc = args[0] if sp.name.endswith(".deserialize") else result
            sp.counts = {"bytes": len(doc) if isinstance(doc, (str, bytes))
                         else 0}
        elif layer in ("targets", "twins"):
            sp.counts = {"points": _first_rows(args)}

    def _wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                sp.error = True
                raise
            finally:
                tracer._close(sp)
            if sp.outer:
                tracer._count(sp, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "relu3d" or n.startswith("relu3d."))
                      and m is not None]
        for layer, modname, attrs in LAYERS:
            mod = sys.modules[modname]
            for qual, owner, attr, fn in _targets(mod, attrs):
                wrapped = self._wrap(layer, qual, fn)
                if owner is not None:
                    self._patches.append((owner, attr, fn))
                    setattr(owner, attr, wrapped)
                    continue
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapped)

    def uninstall(self):
        for obj, attr, fn in reversed(self._patches):
            setattr(obj, attr, fn)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def layer_metrics(self, spans=None):
        """Per-layer metrics over the given spans (default: all), plus
        unattributed_s: root wall time minus the sum of layer self times."""
        spans = self.spans if spans is None else spans
        out = {}
        roots = 0.0
        total_self = 0.0
        for layer, _, _ in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
            out[f"{layer}.errors"] = 0
            for key in LAYER_COUNTS.get(layer, ()):
                out[f"{layer}.{key}"] = 0
        for sp in spans:
            dur = sp.end - sp.start
            if sp.layer is None:
                roots += dur
                continue
            self_s = dur - sp.child_s
            total_self += self_s
            out[f"{sp.layer}.self_s"] += self_s
            out[f"{sp.layer}.calls"] += 1
            out[f"{sp.layer}.errors"] += int(sp.error)
            for key in LAYER_COUNTS.get(sp.layer, ()):
                out[f"{sp.layer}.{key}"] += sp.counts.get(key, 0)
        fwd_s = out["net.forward.self_s"]
        out["net.forward.gflops_per_s"] = (
            out["net.forward.flops"] / fwd_s / 1e9 if fwd_s > 0 else 0.0)
        out["net.forward.gbytes_per_s"] = (
            out["net.forward.bytes"] / fwd_s / 1e9 if fwd_s > 0 else 0.0)
        out["unattributed_s"] = roots - total_self
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "layer", "start", "end",
                                  "parent", "op", "counts", "error"],
                       "spans": [sp.as_list() for sp in self.spans]}, fh)


def _targets(mod, attrs):
    """(qualified name, owning class or None, attribute, function)."""
    if attrs is None or isinstance(attrs, str):
        prefix = attrs or ""
        for name, val in sorted(vars(mod).items()):
            if (inspect.isfunction(val) and val.__module__ == mod.__name__
                    and not name.startswith("_") and name.startswith(prefix)):
                yield f"{mod.__name__}.{name}", None, name, val
        return
    for attr in attrs:
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            yield f"{mod.__name__}.{attr}", owner, meth, vars(owner)[meth]
        else:
            yield f"{mod.__name__}.{attr}", None, attr, getattr(mod, attr)
