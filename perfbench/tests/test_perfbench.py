"""Tests of the benchmark's own machinery: the forward cost model, the
tracer's effect on outputs, and count metrics that must repeat exactly.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from relu3d import blocks, builders, verify  # noqa: E402
from relu3d import net as rnet  # noqa: E402
from relu3d.targets import TargetSpec  # noqa: E402

import run  # noqa: E402
from layertrace import LAYER_COUNTS, LAYERS, NetCost, Tracer  # noqa: E402
from workloads import (Lp2dComposeBuild, LpWideForward,  # noqa: E402
                       TrigDeepVerify)


def test_net_cost_of_square_net_matches_hand_count():
    # square_net(3): one layer of three floors, (t_j, w_j) per floor.
    #   floor 1 reads x:            2 inbound weights
    #   floors 2, 3 read floor j-1: 2 neurons x 2 intra links each = 8
    #   readout: w_1, t_1, t_2, w_2, t_3, w_3                       = 6
    # Levels: floor j depends on floor j-1, so three sequential steps.
    # Activations per point: read x (1), write 6, read the 6 back for the
    # intra links, readout reads 6 and writes 1 -> 20 words.
    cost = NetCost(blocks.square_net(3))
    assert cost.nnz == 2 + 8 + 6
    assert cost.levels == 3
    assert cost.act_words == 1 + 6 + 6 + 6 + 1
    assert cost.weight_bytes == 8 * (16 + 6 + 1)  # coefficients and biases
    assert cost.counts(5) == {"points": 5, "flops": 2 * 16 * 5,
                              "bytes": 184 + 8 * 20 * 5, "levels": 3}


def test_net_cost_without_intra_links_is_one_step_per_layer():
    cost = NetCost(rnet.identity_net(2))
    assert (cost.nnz, cost.levels, cost.act_words) == (4 + 4, 1, 2 + 4 + 4 + 2)


def _outputs():
    rep = builders.build_trig(3, 8, "cos")
    pts = np.linspace(-1.0, 1.0, 257)[:, None]
    target = TargetSpec.catalog("cosine", domain="sym-cube", omega=3 * np.pi)
    er = verify.sup_error(rep.net, target, (-1.0, 1.0), base_resolution=129,
                          bound=rep.theoretical_bound)
    return (rnet.evaluate_array(rep.net, pts).tobytes(),
            rnet.evaluate_batch(rep.net, pts[:5]),
            rnet.evaluate(rep.net, [0.25]),
            er.measured, rnet.serialize(rep.net))


def test_outputs_are_bit_identical_with_trace_on_and_off():
    originals = (rnet.evaluate_array, rnet.Net3D.__init__,
                 verify.evaluate_array, builders.chain)
    off = _outputs()
    tracer = Tracer()
    with tracer, tracer.root("op", 0):
        assert rnet.evaluate_array is not originals[0]
        assert verify.evaluate_array is not originals[2]
        on = _outputs()
    assert on == off
    assert (rnet.evaluate_array, rnet.Net3D.__init__, verify.evaluate_array,
            builders.chain) == originals
    m = tracer.layer_metrics()
    assert m["net.forward.calls"] >= 4 and m["verify.calls"] == 1
    # evaluate_batch calls evaluate_array: its points count once
    assert m["net.forward.points"] == 257 + 5 + 1 + 129 + 33
    assert m["verify.points"] == 129 + 33
    assert m["net.serialize.bytes"] == len(off[-1])


def test_self_times_add_up_to_root_wall_time():
    tracer = Tracer()
    with tracer, tracer.root("op", 0) as root:
        builders.build_lp(TargetSpec.catalog("abs", domain="sym-cube"), 4, 6)
    m = tracer.layer_metrics()
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    wall = root.end - root.start
    assert self_total <= wall
    assert m["unattributed_s"] == pytest.approx(wall - self_total, abs=1e-9)
    assert all(sp.end >= sp.start for sp in tracer.spans)


SMALL = {
    "lp-wide-forward": lambda: LpWideForward(n1=4, n2=8, points=16),
    "trig-deep-verify": lambda: TrigDeepVerify(n2=8, grid=257),
    "lp2d-compose-build": lambda: Lp2dComposeBuild(lp_n1=(2,), lp_n2=6,
                                                   hermite_n=3,
                                                   check_points=8),
}

COUNT_KEYS = [f"{layer}.{key}" for layer, _, _ in LAYERS
              for key in ("calls", "errors") + LAYER_COUNTS.get(layer, ())]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly_and_match_workload(name):
    runs = []
    for seed in (1, 2):
        wl = SMALL[name]()
        metrics, record, attempted, failed, tracer = run.traced(wl, seed)
        assert failed == 0, record["failures"]
        assert attempted == wl.trace_cycles * wl.cycle
        runs.append({k: metrics[k][0] for k in COUNT_KEYS})
        # the forward points the end-to-end run credits to its ops are the
        # ones the tracer sees
        ops_points = sum(sp.counts.get("points", 0) for sp in tracer.spans
                         if sp.layer == "net.forward" and sp.op != "setup")
        gen = wl.ops(np.random.default_rng(seed))
        want = sum(wl.points(op, wl.run(op))
                   for op in (next(gen) for _ in range(attempted)))
        assert ops_points == want
    assert runs[0] == runs[1]
    assert runs[0]["net.forward.calls"] > 0


def _declared(section):
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def test_emitted_metrics_are_the_declared_ones():
    wl = SMALL["trig-deep-verify"]()
    metrics, record, attempted, failed = run.end_to_end(wl, 1, 0.0)
    assert failed == 0 and attempted == run.MIN_OPS
    assert {k: u for k, (_, u) in metrics.items()} == _declared("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())
    metrics = run.traced(SMALL["trig-deep-verify"](), 1)[0]
    assert {k: u for k, (_, u) in metrics.items()} == _declared("per_layer")


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(30))
    value, pct, n = run.tail(samples)
    assert sum(s > value for s in samples) == run.TAIL_BEYOND
    assert (n, pct) == (30, pytest.approx(100.0 * 20 / 30))


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(RuntimeError):
        run.import_relu3d()


def test_batched_oracle_checks_every_op_on_its_own():
    wl = SMALL["lp-wide-forward"]()
    wl.setup()
    gen = wl.ops(np.random.default_rng(3))
    done = [(pts, wl.run(pts)) for pts in (next(gen) for _ in range(5))]
    assert wl.check_many(done) == [None] * 5
    pts, out = done[2]
    done[2] = (pts, out + 1e-3)
    whys = wl.check_many(done)
    assert [w is None for w in whys] == [True, True, False, True, True]
    assert whys[2] == wl.check(*done[2])
