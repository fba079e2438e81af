"""The benchmark's workloads.

Each workload is a closed loop with one client: the next op starts when the
previous one has finished.  Ops come in fixed cycles; the seed draws the
inputs (points, or the order of op kinds within a cycle), never the mix, so
every whole cycle does the same work.

A workload provides

    cycle            ops per cycle; trace_cycles: cycles in a traced run
    setup()          fixed work done once before timing (timed as setup_s)
    ops(rng)         endless iterator of op inputs, one cycle at a time
    run(op)          the timed library calls of one op
    points(op, out)  points the op pushed through forward evaluation
    check(op, out)   the oracle, untimed: None, or why the op failed
    check_many(done) the oracle over a list of (op, out) pairs, one reason
                     or None each; the end-to-end run calls it once per
                     check_batch ops
    fingerprint(out) bytes that must repeat exactly with the trace on

relu3d is reached through module attributes (``rnet.evaluate_array``,
``builders.build_lp``, ...) so that the tracer's wrappers are the functions
called while it is installed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from relu3d import builders, twins, verify
from relu3d import net as rnet
from relu3d.targets import TargetSpec

from layertrace import WORD, NetCost


def _cycles(rng, kinds):
    while True:
        for i in rng.permutation(len(kinds)):
            yield kinds[i]


class Workload:
    check_batch = 1

    def check_many(self, done):
        return [self.check(op, out) for op, out in done]


class LpWideForward(Workload):
    name = "lp-wide-forward"
    why = ("the heaviest forward pass: its weights (7.4 MB) and a batch's "
           "activations exceed L2, so affine products and memory traffic "
           "dominate, with no build inside the timed loop")
    cycle = 1
    trace_cycles = 8
    # The twin's cost is mostly per call, not per point: one twin pass over
    # 32 batches costs about as much as over one, so the oracle takes about
    # 1% of a run instead of 28% and a run times more ops.
    check_batch = 32

    # 64-point batches: at 256 points (9 MB of activations per layer) op
    # times drifted about 1.5 times as much with the load that other
    # virtual machines put on a shared host.
    def __init__(self, n1=32, n2=24, points=64):
        self.n1, self.n2, self.n_points = n1, n2, points
        self.target = TargetSpec.catalog("abs-power", d=1, domain="sym-cube")
        self.rep = None

    def setup(self):
        self.rep = None  # release the previous build before the next one
        rep = builders.build_lp(self.target, self.n1, self.n2, d=1)
        rnet.evaluate_array(rep.net, np.linspace(-1.0, 1.0, self.n_points))
        self.rep = rep

    def ops(self, rng):
        while True:
            yield rng.uniform(-1.0, 1.0, size=(self.n_points, 1))

    def run(self, pts):
        return rnet.evaluate_array(self.rep.net, pts)

    def points(self, pts, out):
        return pts.shape[0]

    def check(self, pts, out):
        return self.check_many([(pts, out)])[0]

    def check_many(self, done):
        want = twins.lp_net_twin(np.concatenate([pts for pts, _ in done]),
                                 self.rep)
        whys, start = [], 0
        for pts, out in done:
            stop = start + pts.shape[0]
            try:
                twins.spot_check(lambda q: out, lambda q: want[start:stop],
                                 pts, where="lp twin")
            except AssertionError as exc:
                whys.append(str(exc))
            else:
                whys.append(None)
            start = stop
        return whys

    def fingerprint(self, out):
        return out.tobytes()

    def describe(self):
        net = self.rep.net
        cost = NetCost(net)
        widest = max(layer.size for layer in net.layers)
        return {"op": f"evaluate_array on {self.n_points} fresh points "
                      f"uniform in [-1, 1]",
                "setup": f"build_lp(abs-power, N1={self.n1}, N2={self.n2}, "
                         f"d=1) and one warm forward pass",
                "oracle": f"twins.lp_net_twin on every point, tolerance "
                          f"1e-9 relative, one twin pass per "
                          f"{self.check_batch} ops",
                "arrays": {"neurons": sum(l.size for l in net.layers),
                           "widest_layer": widest,
                           "depth": len(net.layers),
                           "nonzero_coefficients": cost.nnz,
                           "weight_bytes": cost.weight_bytes,
                           "widest_activation_bytes":
                               WORD * widest * self.n_points,
                           "activation_bytes_per_op":
                               WORD * cost.act_words * self.n_points}}


class TrigDeepVerify(Workload):
    """Run by name only: BENCHMARK.json gates the other two workloads, so
    that each gets a longer timed run in the same total time."""

    name = "trig-deep-verify"
    why = ("narrow, deep nets with hundreds of sequential intra levels, "
           "verified on a dense grid with a fresh build every op, as a "
           "user pays on every verification")
    cycle = 8
    trace_cycles = 1

    def __init__(self, n2=24, grid=2 ** 13 + 1):
        self.n2, self.grid = n2, grid
        self.bound = 2.0 ** -n2
        self.ks = list(range(1, self.cycle + 1))

    def setup(self):
        pass

    def ops(self, rng):
        return _cycles(rng, self.ks)

    def run(self, k):
        rep = builders.build_trig(k, self.n2, "cos")
        target = TargetSpec.catalog("cosine", domain="sym-cube",
                                    omega=k * math.pi)
        return verify.sup_error(rep.net, target, (-1.0, 1.0),
                                base_resolution=self.grid, bound=self.bound)

    def points(self, k, report):
        # the base grid plus sup_error's 33-point refinement window
        d = report.resolution["d"]
        return report.resolution["points_per_dim"] ** d + 33 ** d

    def check(self, k, report):
        if not report.passed:
            return (f"cos({k} pi x): sup error {report.measured:.3e} over "
                    f"bound {report.bound:.3e}")
        return None

    def fingerprint(self, report):
        return float(report.measured).hex().encode()

    def describe(self):
        return {"op": f"build_trig(k, {self.n2}, cos) then sup_error "
                      f"against cos(k pi x) on a {self.grid}-point grid",
                "mix": f"k = 1..{self.cycle}, one each per cycle",
                "oracle": f"ErrorReport.passed under bound 2^-{self.n2}"}


class Lp2dComposeBuild(Workload):
    name = "lp2d-compose-build"
    why = ("build-dominated: coefficients, DSL wiring, chain/parallel/"
           "linear_combine, Net3D validation and (de)serialization, with "
           "almost no forward work")
    trace_cycles = 1

    def __init__(self, lp_n1=(4, 6), lp_n2=12, hermite_n=10,
                 check_points=64):
        self.kinds = [("lp", n1) for n1 in lp_n1] + [("hermite", hermite_n)]
        self.cycle = len(self.kinds)
        self.lp_n1, self.lp_n2, self.hermite_n = lp_n1, lp_n2, hermite_n
        self.check_points = check_points
        self.lp_target = TargetSpec.catalog("abs-sum", d=2, domain="sym-cube")
        self.gauss_target = TargetSpec.catalog("cosine",
                                               domain="gaussian-line")

    def setup(self):
        pass

    def ops(self, rng):
        # a fixed kind order: the allocator's peak then repeats run to run
        while True:
            for kind in self.kinds:
                yield kind, rng.uniform(-1.0, 1.0,
                                        size=(self.check_points, 2))

    def run(self, op):
        (kind, n), _ = op
        if kind == "lp":
            rep = builders.build_lp(self.lp_target, n, self.lp_n2, d=2)
            report = None
        else:
            rep = builders.build_hermite_gauss(self.gauss_target, n)
            report = verify.gauss_l2_error(rep.net, self.gauss_target,
                                           rep.meta["support"],
                                           bound=rep.theoretical_bound)
        doc = rnet.serialize(rep.net)
        return rep, report, doc, rnet.deserialize(doc)

    def points(self, op, out):
        report = out[1]
        if report is None:
            return 0
        # gauss_l2_error: six support probes plus composite Gauss panels of
        # width 0.25 over its window
        lo, hi = report.resolution["window"]
        return 6 + math.ceil((hi - lo) / 0.25) * report.resolution[
            "panel_order"]

    def check(self, op, out):
        (kind, n), pts = op
        rep, report, doc, back = out
        if kind == "lp":
            try:
                twins.spot_check(lambda q: rnet.evaluate_array(rep.net, q),
                                 lambda q: twins.lp_net_twin(q, rep), pts,
                                 where="lp twin")
            except AssertionError as exc:
                return str(exc)
        elif not report.passed:
            return (f"hermite N={n}: gauss-l2 error {report.measured:.3e} "
                    f"over bound {report.bound:.3e}")
        if rnet.serialize(back) != doc:
            return f"{kind} {n}: serialize round trip changed the document"
        got, want = rnet.metrics(rep.net), rep.expected_metrics
        if (got.depth, got.height) != (want.depth, want.height):
            return (f"{kind} {n}: depth/height {got.depth}/{got.height}, "
                    f"expected {want.depth}/{want.height}")
        return None

    def fingerprint(self, out):
        rep, report, doc, _ = out
        digest = hashlib.sha256(doc.encode()).hexdigest()
        if report is not None:
            digest += float(report.measured).hex()
        return digest.encode()

    def describe(self):
        lp = ", ".join(f"build_lp(abs-sum, N1={n}, N2={self.lp_n2}, d=2)"
                       for n in self.lp_n1)
        return {"op": "one build, then serialize and deserialize",
                "mix": f"one each per cycle: {lp}; build_hermite_gauss("
                       f"cosine, N={self.hermite_n}) with gauss_l2_error",
                "oracle": f"lp: {self.check_points}-point spot check against "
                          f"twins.lp_net_twin; hermite: ErrorReport.passed; "
                          f"all: re-serialized document equal, metrics depth "
                          f"and height equal expected_metrics"}


WORKLOADS = {w.name: w for w in (LpWideForward, TrigDeepVerify,
                                 Lp2dComposeBuild)}
