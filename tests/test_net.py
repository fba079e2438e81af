"""Network representation: evaluation, metrics, serialization, transforms."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_net
from relu3d import blocks, builders, verify
from relu3d import net as rnet
from relu3d.builder_dsl import NetBuilder
from relu3d.net import (Net3D, NetFormatError, Neuron, _compile, chain,
                        deserialize, evaluate, evaluate_array,
                        evaluate_batch, evaluate_exact, flatten_to_2d,
                        identity_net, linear_combine, metrics, parallel,
                        parallel_shared, serialize)
from relu3d.targets import TargetSpec
from test_builders import _ABS_POW, GOLDEN_CASES, GOLDEN_GADGETS

GRID = np.linspace(0.0, 1.0, 1001)[:, None]


def single_neuron_net(w, b):
    layer = ((Neuron(weights={0: w}, bias=b),),)
    return reference_net.pack(1, [layer], [{0: 1.0}], [0.0])


# -- evaluation -------------------------------------------------------------


def test_identity_net_evaluates_input():
    net = identity_net(1)
    assert evaluate(net, [0.7]) == pytest.approx(0.7, abs=0)
    assert evaluate(net, [-0.3]) == pytest.approx(-0.3, abs=0)


def test_sawtooth_peak():
    net = blocks.sawtooth_net(1)
    assert evaluate(net, [0.5]) == 1.0
    assert evaluate(net, [0.0]) == 0.0
    assert evaluate(net, [1.0]) == 0.0


def test_square_net_at_interpolation_node():
    net = blocks.square_net(2)
    assert evaluate(net, [0.25]) == pytest.approx(0.0625, abs=1e-15)


def test_evaluate_rejects_dimension_mismatch():
    net = identity_net(1)
    with pytest.raises(NetFormatError):
        evaluate(net, [0.1, 0.2])


@pytest.mark.parametrize("points", [np.zeros((3, 3)), np.zeros((3, 1, 1)),
                                    [0.1, 0.2]])
def test_every_evaluator_rejects_a_wrong_point_width(points):
    net = blocks.product2_unit(2)
    with pytest.raises(NetFormatError, match="expected points of length 2"):
        evaluate_array(net, points)
    with pytest.raises(NetFormatError, match="expected points of length 2"):
        evaluate_batch(net, points)
    with pytest.raises(NetFormatError, match="expected points of length 2"):
        evaluate(net, [0.1, 0.2, 0.3])


def test_evaluate_array_of_no_points_is_empty():
    saw = blocks.sawtooth_net(2)
    assert evaluate_array(saw, np.zeros((0, 1))).shape == (0,)
    pair = parallel([identity_net(1), identity_net(1)])
    assert evaluate_array(pair, np.zeros((0, 2))).shape == (0, 2)


def test_evaluate_rejects_nonfinite_intermediate():
    net = single_neuron_net(1e308, 0.0)
    outer = single_neuron_net(1e308, 0.0)
    both = chain(outer, net)
    with pytest.raises(NetFormatError, match="non-finite activation"):
        evaluate(both, [1e308])


@pytest.mark.parametrize("net,x", [
    (linear_combine([identity_net(1)], [4.0], 0.0), 1e308),
    (reference_net.pack(1, [], [{0: 2.0}], [0.5]), 1e308),
    (reference_net.pack(1, [], [{0: 2.0}], [0.5]), math.nan),
], ids=["overflow", "no-hidden-layers", "nan"])
def test_evaluate_rejects_nonfinite_output(net, x):
    with pytest.raises(NetFormatError, match="non-finite output"):
        evaluate(net, [x])
    with pytest.raises(NetFormatError, match="non-finite output"):
        evaluate_array(net, np.array([[0.25], [x]]))


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
def test_relu_semantics_single_neuron(w, b, x):
    net = single_neuron_net(w, b)
    assert evaluate(net, [x]) == pytest.approx(max(0.0, w * x + b), rel=1e-12,
                                               abs=1e-12)


def test_evaluate_batch_empty_and_order():
    net = blocks.sawtooth_net(1)
    assert evaluate_batch(net, []) == []
    vals = evaluate_batch(net, [[0.5], [0.25], [0.0]])
    assert vals == [1.0, 0.5, 0.0]


def test_evaluate_batch_matches_evaluate_on_dyadics():
    net = blocks.square_net(2)
    pts = np.arange(5)[:, None] / 4.0
    got = evaluate_batch(net, pts)
    for x, v in zip(pts[:, 0], got):
        assert v == pytest.approx(x * x, abs=1e-15)
        assert v == evaluate(net, [x])


def test_evaluate_array_chunking_is_consistent(monkeypatch):
    net = blocks.square_net(4)
    full = evaluate_array(net, GRID)
    # the smallest budget gives the 64-point floor: 15 full chunks and one
    # of 41 points
    monkeypatch.setattr(rnet, "CHUNK_ELEMENTS", 1)
    sizes, forward = [], rnet._forward
    monkeypatch.setattr(rnet, "_forward",
                        lambda n, x: sizes.append(x.shape[1]) or forward(n, x))
    chunked = evaluate_array(net, GRID)
    assert sizes == [64] * 15 + [41]
    assert np.array_equal(full, chunked)


def test_evaluate_array_chunks_the_hermite_gauss_nodes(monkeypatch):
    # the 3,248 nodes on which gauss_l2_error measures the N = 10 Hermite
    # net, whose widest layer holds 1,966 neurons: 4 MiB of activations
    # take 266 points of them
    target = TargetSpec.catalog("cosine", domain="gaussian-line")
    rep = builders.build_hermite_gauss(target, 10)
    net, M = rep.net, rep.meta["support"]
    x, _ = verify._gauss_panels(-M - 2.0, M + 2.0,
                                order=verify.GAUSS_PANEL_ORDER)
    assert x.shape == (3248,)
    whole = rnet._forward(net, x[None, :])[0]
    sizes, forward = [], rnet._forward
    monkeypatch.setattr(rnet, "_forward",
                        lambda n, X: sizes.append(X.shape[1]) or forward(n, X))
    got = evaluate_array(net, x)
    assert len(sizes) > 1 and sum(sizes) == x.size
    assert got.tobytes() == whole.tobytes()


def test_evaluate_exact_on_dyadics():
    from fractions import Fraction
    net = blocks.square_net(3)
    v = evaluate_exact(net, [Fraction(3, 8)])
    assert v == Fraction(9, 64)


def test_evaluation_determinism():
    net = blocks.product2_unit(5)
    pts = np.random.default_rng(0).uniform(0, 1, size=(64, 2))
    a = evaluate_array(net, pts)
    b = evaluate_array(net, pts)
    assert np.array_equal(a, b)


# -- construction invariants ------------------------------------------------


def test_intra_link_must_point_earlier():
    nrn_bad = Neuron(weights={0: 1.0}, bias=0.0, intra=((0, 0, 1.0),))
    layer = ((nrn_bad,),)
    with pytest.raises(NetFormatError):
        reference_net.pack(1, [layer], [{0: 1.0}], [0.0])


def test_forward_intra_link_rejected():
    a = Neuron(weights={0: 1.0}, bias=0.0, intra=((1, 0, 1.0),))
    b = Neuron(weights={0: 1.0}, bias=0.0)
    layer = ((a,), (b,))
    with pytest.raises(NetFormatError):
        reference_net.pack(1, [layer], [{0: 1.0}], [0.0])


def test_nonfinite_weight_rejected():
    with pytest.raises(NetFormatError):
        single_neuron_net(math.inf, 0.0)


def test_out_of_range_weight_index_rejected():
    layer = ((Neuron(weights={3: 1.0}, bias=0.0),),)
    with pytest.raises(NetFormatError):
        reference_net.pack(1, [layer], [{0: 1.0}], [0.0])


def test_a_repeated_readout_weight_index_is_refused():
    # the readers of such a row disagree: the CSR forward pass sums both
    # weights, evaluate_exact keeps the last and deserialize refuses the
    # document serialize writes
    readout = rnet.Layer(None, np.array([0, 2]), np.array([0, 0]),
                         np.array([1.0, 2.0]), np.array([0.0]))
    with pytest.raises(NetFormatError,
                       match=r"^repeated weight index 0 at readout\[0\]$"):
        Net3D(5, [], readout)


def test_a_repeated_hidden_weight_index_is_refused_in_entry_order():
    # neuron 0 of floor 1 reads input 0, input 1, then input 1 again with a
    # nan weight: the repeat is its first fault
    layer = rnet.Layer(np.array([1, 1]), np.array([0, 1, 4]),
                       np.array([0, 0, 1, 1]),
                       np.array([1.0, 2.0, 1.0, math.nan]), np.zeros(2))
    readout = rnet.Layer(None, np.array([0, 1]), np.array([0]),
                         np.array([1.0]), np.array([0.0]))
    with pytest.raises(NetFormatError, match=r"^repeated weight index 1 at "
                       r"layers\[0\]\.floors\[1\]\.neurons\[0\]$"):
        Net3D(2, [layer], readout)


def _one_row(w_idx, w_val):
    return rnet.Layer(None, np.array([0, len(w_idx)]), np.array(w_idx),
                      np.array(w_val), np.array([0.0]))


@pytest.mark.parametrize("hidden", [True, False], ids=["hidden", "readout"])
def test_a_falling_weight_index_is_refused(hidden):
    # the row reads input 2, then input 0 with a nan weight: the fall is
    # its first fault
    row = _one_row([2, 0], [1.0, math.nan])
    if hidden:
        layer = rnet.Layer(np.array([1]), row.w_ptr, row.w_idx, row.w_val,
                           row.bias)
        args, where = ([layer], _one_row([0], [1.0])), \
            r"layers\[0\]\.floors\[0\]\.neurons\[0\]"
    else:
        args, where = ([], row), r"readout\[0\]"
    with pytest.raises(NetFormatError,
                       match=rf"^weight index 0 after 2 at {where}$"):
        Net3D(3, *args)


def _hidden(sizes=(1,), w_ptr=(0, 1), w_idx=(0,), w_val=(1.0,), bias=(0.0,),
            l_ptr=(0, 0)):
    return rnet.Layer(*map(np.array, (sizes, w_ptr, w_idx, w_val, bias,
                                      l_ptr)))


# Layers whose arrays do not fit together; each used to pass Net3D or
# fail with an IndexError or ValueError of its own
INCONSISTENT_LAYERS = {
    "w_ptr-not-from-0": (_hidden(w_ptr=(1, 2), w_idx=(0, 0),
                                 w_val=(1.0, 1.0)), r"layers\[0\]\.w_ptr"),
    "w_ptr-short": (_hidden(w_idx=(0, 1), w_val=(1.0, 1.0)),
                    r"layers\[0\]\.w_ptr"),
    "l_ptr-length": (_hidden(l_ptr=(0, 0, 0)), r"layers\[0\]\.l_ptr"),
    "sizes-sum": (_hidden(sizes=(2,)), r"layers\[0\] floor sizes"),
    "w_val-short": (_hidden(w_ptr=(0, 2), w_idx=(0, 1)),
                    r"layers\[0\] index and value arrays"),
    "bias-long": (_hidden(bias=(0.0, 0.0)),
                  r"layers\[0\] must have matching weight rows and biases"),
    "float-index": (_hidden(w_idx=(0.7,)), r"layers\[0\] .* integers"),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT_LAYERS))
def test_a_layer_whose_arrays_do_not_fit_together_is_refused(case):
    layer, message = INCONSISTENT_LAYERS[case]
    with pytest.raises(NetFormatError, match="^" + message):
        Net3D(2, [layer], _one_row([0], [1.0]))
    if case == "sizes-sum":
        return  # a readout has no floor sizes
    # the same arrays as a readout are refused as well, naming the readout
    ro = rnet.Layer(None, *(getattr(layer, name)
                            for name in rnet.Layer.__slots__[1:]))
    with pytest.raises(NetFormatError,
                       match="^" + message.replace(r"layers\[0\]", "readout")):
        Net3D(2, [], ro)


def test_a_readout_with_intra_links_is_refused():
    ro = rnet.Layer(None, [0, 1], [0], [1.0], [0.0], [0, 1], [0], [0], [1.0])
    with pytest.raises(NetFormatError,
                       match="^readout must have no intra links$"):
        Net3D(2, [], ro)


def test_a_layer_takes_its_arrays_as_lists():
    net = Net3D(1, [], rnet.Layer(None, [0, 1], [0], [1.0], [0.0]))
    assert evaluate(net, [0.25]) == 0.25
    assert net == deserialize(serialize(net))


@pytest.mark.parametrize("readout", [[{0: 1.0}], identity_net(1).layers[0]],
                         ids=["rows", "hidden-layer"])
def test_readout_must_be_a_readout_layer(readout):
    with pytest.raises(NetFormatError, match="readout must be a Layer"):
        Net3D(1, [], readout)


def test_a_readout_layer_has_no_floors():
    with pytest.raises(ValueError, match="readout Layer .* has no floors"):
        identity_net(1)._readout.floors


def test_equal_nets_hash_equally():
    a, b = blocks.square_net(3), blocks.square_net(3)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b, deserialize(serialize(a))}) == 1


def test_net_is_immutable():
    net = identity_net(1)
    with pytest.raises(AttributeError):
        net.input_dim = 2
    # net.layers hands out the stored layers, which nets share
    assert net.layers[0] is net.layers[0]
    with pytest.raises(AttributeError):
        net.layers[0].bias = np.zeros(2)
    with pytest.raises(ValueError, match="read-only"):
        net.layers[0].bias[0] = 1.0


# -- metrics ----------------------------------------------------------------


def test_sawtooth_metrics():
    for s in (1, 2, 5):
        m = metrics(blocks.sawtooth_net(s))
        assert m.depth == 1
        assert m.height == s
        assert m.width == 2


def test_square_net_metrics():
    for H in (1, 3, 7):
        m = metrics(blocks.square_net(H))
        assert (m.width, m.depth, m.height) == (2, 1, H)


def test_metrics_bounds_neuron_count():
    for net in (blocks.square_net(4), blocks.product2_unit(3),
                blocks.product_d_net(3, 4, M=2.0)):
        m = metrics(net)
        assert m.width * m.height * m.depth >= m.neuron_count
        assert m.param_count > 0


def test_param_count_hand_check_sawtooth():
    # g_1: two neurons sigma(y - 1/2), sigma(y); readout -4 t + 2 w:
    # weights 1 + 1, bias 1, readout weights 2 = 5 nonzero params
    m = metrics(blocks.sawtooth_net(1))
    assert m.neuron_count == 2
    assert m.param_count == 5


# -- serialization ----------------------------------------------------------


def test_serialize_roundtrip_bit_exact():
    for net in (blocks.sawtooth_net(3), blocks.product2_unit(4),
                identity_net(2)):
        back = deserialize(serialize(net))
        assert back == net
        pts = np.linspace(-1, 1, 1000)[:, None]
        if net.input_dim == 2:
            pts = np.column_stack([pts[:, 0], pts[:, 0] ** 2])
        a = evaluate_array(net, pts)
        b = evaluate_array(back, pts)
        assert np.array_equal(a, b)


def test_deserialize_rejects_bad_schema():
    doc = json.loads(serialize(identity_net(1)))
    doc["schema"] = "other/v9"
    with pytest.raises(NetFormatError, match="schema"):
        deserialize(doc)


def test_deserialize_rejects_forward_intra():
    doc = json.loads(serialize(blocks.sawtooth_net(2)))
    nrn = doc["layers"][0]["floors"][0]["neurons"][0]
    nrn["intra"] = [{"floor": 1, "index": 0, "coeff": 1.0}]
    with pytest.raises(NetFormatError):
        deserialize(doc)


def test_deserialize_rejects_wrong_weight_length():
    doc = json.loads(serialize(identity_net(1)))
    doc["layers"][0]["floors"][0]["neurons"][0]["w"] = [1.0, 0.0]
    with pytest.raises(NetFormatError):
        deserialize(doc)


def _put(doc, path, value):
    """Set the JSON leaf at path (a tuple of keys and indices)."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("path,value", [
    (("layers",), [1]),
    (("layers",), 1),
    (("layers", 0, "floors"), [1]),
    (("layers", 0, "floors", 0, "neurons"), ["x"]),
    (("layers", 0, "floors", 0, "neurons", 0, "intra"), [1]),
    (("readout", "w"), 5),
    (("readout", "w", 0), {"i": 1, "v": [2]}),
    (("readout", "b"), ["x"]),
])
def test_deserialize_rejects_non_object_parts(path, value):
    doc = json.loads(serialize(identity_net(1)))
    _put(doc, path, value)
    with pytest.raises(NetFormatError):
        deserialize(doc)


def _leaf_paths(doc, path=()):
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    return [p for k, v in items for p in _leaf_paths(v, path + (k,))]


FUZZ_NETS = [identity_net(1), blocks.sawtooth_net(2), blocks.product2_unit(1),
             flatten_to_2d(blocks.square_net(2)),
             parallel([identity_net(1), blocks.sawtooth_net(1)])]
JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([math.inf, -math.inf, 10 ** 400, -1, 2 ** 63]),
    st.text(max_size=3), st.sampled_from([[], {}, [1], {"i": [0]}]))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(range(len(FUZZ_NETS))), st.data())
def test_deserialize_of_mutated_documents_raises_only_net_format_error(
        which, data):
    doc = json.loads(serialize(FUZZ_NETS[which]))
    paths = _leaf_paths(doc)
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1,
                                   max_size=3)):
        _put(doc, path, data.draw(JSON_LEAF))
    for document in (doc, json.dumps(doc)):
        try:
            deserialize(document)
        except NetFormatError:
            pass


@pytest.mark.parametrize("path", [
    ("input_dim",),
    ("readout", "w", 0, "i", 0),
    ("layers", 0, "floors", 1, "neurons", 0, "intra", 0, "floor"),
    ("layers", 0, "floors", 1, "neurons", 0, "intra", 0, "index"),
    ("layers", 0, "floors", 1, "neurons", 0, "intra", 0, "coeff"),
])
@pytest.mark.parametrize("value", [math.inf, 10 ** 400],
                         ids=["inf", "huge"])
def test_deserialize_rejects_overflowing_numbers(path, value):
    doc = json.loads(serialize(blocks.sawtooth_net(2)))
    _put(doc, path, value)
    with pytest.raises(NetFormatError):
        deserialize(json.dumps(doc))


_NEURON = ("layers", 0, "floors", 0, "neurons", 0)
_LINK = ("layers", 0, "floors", 1, "neurons", 0, "intra", 0)
# case -> (path in the sawtooth_net(2) document, value, message part):
# each value used to be coerced (a string or bool to a number, a float to
# an index, a string iterated as a list, the last of two equal indices
# kept)
MISTYPED = {
    "readout-bias-string": (("readout", "b", 0), "7", "got str"),
    "readout-biases-string": (("readout", "b"), "7", "expected a list"),
    "bias-bool": (_NEURON + ("b",), True, "got bool"),
    "dense-weight-string": (_NEURON + ("w", 0), "1", "got str"),
    "sparse-index-string": (("readout", "w", 0, "i", 0), "2", "got str"),
    "sparse-index-float": (("readout", "w", 0, "i", 0), 2.9,
                           "expected an integer, got float"),
    "sparse-value-bool": (("readout", "w", 0, "v", 0), True, "got bool"),
    "sparse-lists-strings": (("readout", "w", 0), {"i": "2", "v": "5"},
                             "expected a list, got str"),
    "sparse-index-repeated": (("readout", "w", 0),
                              {"i": [2, 2], "v": [-4.0, -2.0]},
                              "repeated weight index 2 at readout.w[0]"),
    "intra-floor-float": (_LINK + ("floor",), 0.9,
                          "expected an integer, got float"),
    "intra-index-bool": (_LINK + ("index",), False,
                         "expected an integer, got bool"),
    "intra-coeff-string": (_LINK + ("coeff",), "4", "got str"),
    "intra-empty-string": (_LINK[:-1], "", "expected a list, got str"),
    "input-dim-float": (("input_dim",), 1.9, "invalid input_dim"),
    "input-dim-bool": (("input_dim",), True, "invalid input_dim"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_mistyped_values_are_refused_as_the_reference_refuses_them(case):
    path, value, part = MISTYPED[case]
    doc = json.loads(serialize(blocks.sawtooth_net(2)))
    _put(doc, path, value)
    document = json.dumps(doc)
    want = reference_net.decision(lambda: reference_net.parse(document))
    assert want[0] == "error" and part in want[1], want
    assert reference_net.array_decision(lambda: deserialize(document)) == want


@pytest.mark.parametrize("document", ["[" * 100000 + "]" * 100000,
                                      b'{"schema": "\xff"}'],
                         ids=["nested", "undecodable"])
def test_nested_or_undecodable_json_is_a_format_error(document):
    for parse in (deserialize, reference_net.parse):
        with pytest.raises(NetFormatError, match="invalid JSON"):
            parse(document)


def test_deserialize_names_error_path():
    doc = json.loads(serialize(identity_net(1)))
    doc["layers"][0]["floors"][0]["neurons"][0]["w"] = "junk"
    with pytest.raises(NetFormatError, match=r"layers\[0\]"):
        deserialize(doc)


# -- array checks against the scalar reference ------------------------------


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(range(len(FUZZ_NETS))), st.data())
def test_array_checks_match_the_scalar_reference_on_mutated_documents(
        which, data):
    doc = json.loads(serialize(FUZZ_NETS[which]))
    paths = _leaf_paths(doc)
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1,
                                   max_size=3)):
        _put(doc, path, data.draw(JSON_LEAF))
    for document in (doc, json.dumps(doc)):
        assert reference_net.array_decision(
            lambda: deserialize(document)) == reference_net.decision(
                lambda: reference_net.parse(document))


@pytest.mark.parametrize("path", [
    ("readout", "w", 0, "v", 0),
    ("readout", "b", 0),
    ("layers", 0, "floors", 0, "neurons", 1, "b"),
    ("layers", 0, "floors", 1, "neurons", 0, "intra", 0, "floor"),
    ("layers", 0, "floors", 1, "neurons", 0, "intra", 0, "index"),
    ("layers", 0, "floors", 1, "neurons", 0, "intra", 0, "coeff"),
])
@pytest.mark.parametrize("value", [math.inf, 10 ** 400, 2 ** 63, -1, 1, 2],
                         ids=["inf", "huge", "2^63", "-1", "1", "2"])
def test_array_checks_match_the_scalar_reference_on_single_values(path,
                                                                   value):
    doc = json.loads(serialize(blocks.sawtooth_net(2)))
    _put(doc, path, value)
    document = json.dumps(doc)
    assert reference_net.array_decision(
        lambda: deserialize(document)) == reference_net.decision(
            lambda: reference_net.parse(document))


def test_writer_matches_the_reference_writer_on_every_golden_net():
    nets = {f"fuzz-{i}": net for i, net in enumerate(FUZZ_NETS)}
    nets.update((name, make()) for name, (_, make) in GOLDEN_MERGES.items())
    nets.update((name, make()) for name, (_, make) in GOLDEN_GADGETS.items())
    nets.update((name, make().net)
                for name, (_, _, make) in GOLDEN_CASES.items())
    nets["lp-wide"] = builders.build_lp(_ABS_POW, 32, 24, d=1).net
    for name, net in nets.items():
        assert serialize(net) == reference_net.serialize(net), name


# values whose texts differ from a naive format: a negative zero, the
# smallest subnormal, exponent forms and a sum with 17 digits
EDGE_VALUES = st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2,
                               -1.5])


@st.composite
def packed_rows(draw, n_rows, n_prev, links):
    """Packed rows over n_prev columns: each row's nonzero count is drawn
    about the dense cut 0.6 n_prev (at it and one past it) and explicit
    zeros are added at drawn columns, each row in index order, as a Layer
    holds it.  With links, row r gets links (duplicates allowed) to rows
    before it, as (floor, index) of the floor sizes links gives."""
    cut = math.floor(0.6 * n_prev)
    w_idx, w_val, counts, l_counts, l_flat, l_coeff = [], [], [], [], [], []
    for r in range(n_rows):
        order = draw(st.permutations(range(n_prev)))
        n_nz = min(n_prev, draw(st.sampled_from([0, 1, cut, cut + 1,
                                                 n_prev])))
        n_zero = draw(st.integers(0, n_prev - n_nz))
        vals = draw(st.lists(EDGE_VALUES.filter(bool), min_size=n_nz,
                             max_size=n_nz)) + [0.0] * n_zero
        pos = draw(st.permutations(range(n_nz + n_zero)))
        w_idx += sorted(order[:n_nz + n_zero])
        w_val += [vals[p] for p in pos]
        counts.append(n_nz + n_zero)
        if links is not None and r:
            src = draw(st.lists(st.integers(0, r - 1), max_size=3))
            l_counts.append(len(src))
            l_flat += src + src[:1]  # the first link repeated
            l_counts[-1] += len(src[:1])
            l_coeff += draw(st.lists(EDGE_VALUES, min_size=l_counts[-1],
                                     max_size=l_counts[-1]))
        elif links is not None:
            l_counts.append(0)
    bias = draw(st.lists(EDGE_VALUES, min_size=n_rows, max_size=n_rows))
    w = (np.array(w_idx, dtype=np.int64), np.array(w_val, dtype=float))
    if links is None:
        return rnet.Layer(None, rnet._ptr(counts), *w, np.array(bias))
    starts = np.cumsum(links) - links
    flat = np.array(l_flat, dtype=np.int64)
    floor = np.searchsorted(starts, flat, side="right") - 1
    return rnet.Layer(links, rnet._ptr(counts), *w, np.array(bias),
                      rnet._ptr(l_counts), floor, flat - starts[floor],
                      np.array(l_coeff, dtype=float))


@st.composite
def packed_nets(draw):
    input_dim = draw(st.sampled_from([1, 5, 10]))
    prev, layers = input_dim, []
    for _ in range(draw(st.integers(0, 2))):
        sizes = np.array(draw(st.lists(st.integers(1, 3), min_size=1,
                                       max_size=3)), dtype=np.int64)
        layers.append(draw(packed_rows(int(sizes.sum()), prev, sizes)))
        prev = int(sizes.sum())
    readout = draw(packed_rows(draw(st.integers(1, 2)), prev, None))
    return Net3D(input_dim, layers, readout)


@settings(deadline=None, max_examples=200)
@given(packed_nets())
def test_writer_matches_the_reference_writer_on_packed_nets(net):
    text = serialize(net)
    assert text == reference_net.serialize(net)
    assert serialize(deserialize(text)) == text


def _sparse_rows(doc):
    """The sparse weight documents of a net document, in document order."""
    rows = [nd["w"] for layer in doc["layers"] for floor in layer["floors"]
            for nd in floor["neurons"]] + doc["readout"]["w"]
    return [w for w in rows if isinstance(w, dict)]


def _rising(net):
    return all(np.all((np.diff(rnet._row_ids(rows.w_ptr)) > 0)
                      | (np.diff(rows.w_idx) > 0))
               for rows in net.layers + (net._readout,))


@settings(deadline=None, max_examples=100)
@given(packed_nets(), st.data())
def test_documents_may_hold_sparse_rows_in_any_order(net, data):
    text = serialize(net)
    doc = json.loads(text)
    for w in _sparse_rows(doc):
        pairs = data.draw(st.permutations(list(zip(w["i"], w["v"]))))
        w["i"], w["v"] = [i for i, _ in pairs], [v for _, v in pairs]
    back = deserialize(json.dumps(doc))
    assert _rising(back)
    assert back == deserialize(text)
    assert serialize(back) == text


def test_a_shuffled_repeat_is_refused_as_the_reference_refuses_it():
    doc = json.loads(serialize(five_input_net(
        [{0: 2.0, 3: 1.0}, {2: 1.0}], {0: -1.0, 1: 1.0})))
    doc["layers"][0]["floors"][0]["neurons"][0]["w"] = {
        "i": [3, 0, 3], "v": [1.0, 2.0, 4.0]}
    document = json.dumps(doc)
    want = reference_net.decision(lambda: reference_net.parse(document))
    assert want == ("error", "malformed neuron at layers[0].floors[0]."
                    "neurons[0]: repeated weight index 3 at layers[0]."
                    "floors[0].neurons[0].w")
    assert reference_net.array_decision(lambda: deserialize(document)) == want


# -- equality and hashing ---------------------------------------------------


def two_input_net(weights, intra):
    first = (Neuron(weights={0: 1.0}, bias=0.0),
             Neuron(weights={1: 1.0}, bias=0.0))
    top = (Neuron(weights=weights, bias=0.5, intra=intra),)
    return reference_net.pack(2, [(first, top)], [{2: 1.0}], [0.0])


def test_nets_differing_by_an_explicit_zero_weight_are_unequal():
    a = two_input_net({0: 1.0}, ())
    b = two_input_net({0: 1.0, 1: 0.0}, ())
    assert a != b
    assert metrics(a) == metrics(b)


def test_nets_differing_by_the_order_of_two_intra_links_are_unequal():
    a = two_input_net({}, ((0, 0, 1.0), (0, 1, 2.0)))
    b = two_input_net({}, ((0, 1, 2.0), (0, 0, 1.0)))
    assert a != b


def test_weight_order_does_not_change_equality_or_hash():
    a = two_input_net({0: 1.0, 1: -2.0}, ((0, 0, 1.0),))
    b = two_input_net({1: -2.0, 0: 1.0}, ((0, 0, 1.0),))
    assert a == b and hash(a) == hash(b)


def five_input_net(rows, readout):
    floor = tuple(Neuron(weights=w, bias=0.5) for w in rows)
    return reference_net.pack(5, [(floor,)], [readout], [0.0])


def test_weight_order_and_explicit_zeros_serialize_to_the_same_bytes():
    # a row of 2 nonzeros is a sparse document and one of 4 a dense one;
    # with its explicit zeros the first row would have 4 entries
    want = five_input_net(
        [{3: 1.0, 0: 2.0}, {4: -1.0, 2: 3.0, 0: 1.0, 1: 0.5}, {2: 1.0}],
        {1: 1.0, 0: -1.0})
    reordered = five_input_net(
        [{0: 2.0, 3: 1.0}, {0: 1.0, 1: 0.5, 2: 3.0, 4: -1.0}, {2: 1.0}],
        {0: -1.0, 1: 1.0})
    zeros = five_input_net(
        [{3: 1.0, 1: 0.0, 0: 2.0, 4: 0.0},
         {4: -1.0, 2: 3.0, 0: 1.0, 1: 0.5, 3: 0.0}, {2: 1.0}],
        {1: 1.0, 0: -1.0, 2: 0.0})
    assert zeros != want
    text = serialize(want)
    assert json.loads(text)["layers"][0]["floors"][0]["neurons"][0]["w"] == \
        {"i": [0, 3], "v": [2.0, 1.0]}
    for net in (want, reordered, zeros):
        assert serialize(net) == text
        assert deserialize(serialize(net)) == want


def test_layers_are_unhashable_while_equal_nets_hash_equally():
    net = blocks.square_net(2)
    back = deserialize(serialize(net))
    assert back.layers[0] == net.layers[0]
    for layer in (net.layers[0], back.layers[0]):
        with pytest.raises(TypeError):
            hash(layer)
    assert hash(net) == hash(back)


def composition_parts():
    saw, sq = blocks.sawtooth_net(2), blocks.square_net(3)
    return (saw, sq, blocks.power_chain_net(3, 2), chain(saw, chain(sq, saw)))


def composed_nets(parts):
    return {name: make(*parts) for name, make in sorted(COMPOSITIONS.items())}


def test_round_trips_and_rebuilds_equal_the_composed_net():
    # every composition, merge golden and builder golden: the net's
    # document and its floors, packed again, give the same net
    nets = composed_nets(composition_parts())
    nets.update((name, make()) for name, (_, make) in GOLDEN_MERGES.items())
    nets.update((name, make().net)
                for name, (_, _, make) in GOLDEN_CASES.items())
    for name, net in nets.items():
        back = deserialize(serialize(net))
        rebuilt = reference_net.pack(*reference_net.parts(net))
        for other in (back, rebuilt):
            assert other == net, name
            assert hash(other) == hash(net), name
            assert serialize(other) == serialize(net), name


def test_a_net_built_from_layers_equals_its_composition():
    x0, x1 = ({0: 1.0}, {0: -1.0}), ({1: 1.0}, {1: -1.0})
    floor = tuple(Neuron(weights=w, bias=0.0) for w in x0 + x1)
    by_hand = reference_net.pack(2, [(floor,)],
                                 [{0: 1.0, 1: -1.0}, {2: 1.0, 3: -1.0}],
                                 [0.0, 0.0])
    composed = parallel([identity_net(1), identity_net(1)])
    assert by_hand == composed and hash(by_hand) == hash(composed)
    assert serialize(by_hand) == serialize(composed)


def test_compositions_and_net_io_build_no_neuron_objects(monkeypatch):
    parts = composition_parts()
    nets = composed_nets(parts)
    made = []
    init = Neuron.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Neuron, "__init__", counting_init)
    for name, net in composed_nets(parts).items():
        assert net == nets[name]
        back = deserialize(serialize(net))
        metrics(back)
        evaluate_array(back, np.full((5, net.input_dim), 0.25))
    assert made == []
    layer = nets["chain"].layers[0]
    assert layer.size == nets["chain"].layers[0].size > 0 and made == []
    assert layer.floors and made  # reading a layer's floors builds them


# -- builder DSL ------------------------------------------------------------


def test_dsl_numbers_interleaved_floors_in_floor_index_order():
    # floor 1 gets a neuron before floor 0 is complete; flat order is still
    # (floor, index): a, d on floor 0, then c, e on floor 1
    b = NetBuilder(1)
    x = b.input(0)
    L = b.layer()
    f0, f1 = L.floor(), L.floor()
    a = f0.neuron(x)
    c = f1.neuron(2 * a - 0.25)
    d = f0.neuron(x - 0.5)
    e = f1.neuron(a - d)
    b.commit()
    g = b.layer().floor().neuron(a + 10 * c + 100 * d + 1000 * e)
    b.commit()
    net = b.finish([g])

    floor0 = (Neuron(weights={0: 1.0}, bias=0.0),
              Neuron(weights={0: 1.0}, bias=-0.5))
    floor1 = (Neuron(weights={}, bias=-0.25, intra=((0, 0, 2.0),)),
              Neuron(weights={}, bias=0.0,
                     intra=((0, 0, 1.0), (0, 1, -1.0))))
    top = Neuron(weights={0: 1.0, 2: 10.0, 1: 100.0, 3: 1000.0}, bias=0.0)
    by_hand = reference_net.pack(1, [(floor0, floor1), ((top,),)],
                                 [{0: 1.0}], [0.0])
    assert net.layers[1].floors[0][0].weights == top.weights
    assert serialize(net) == serialize(by_hand)
    for k in range(-8, 17):
        x = Fraction(k, 8)
        ra, rd = max(x, 0), max(x - Fraction(1, 2), 0)
        rc, re = max(2 * ra - Fraction(1, 4), 0), max(ra - rd, 0)
        assert evaluate_exact(net, [x]) == ra + 10 * rc + 100 * rd + 1000 * re


# -- flatten ----------------------------------------------------------------


def test_flatten_sawtooth_height_one():
    net = blocks.sawtooth_net(3)
    flat = flatten_to_2d(net)
    m = metrics(flat)
    assert m.height == 1
    a = evaluate_array(net, GRID)
    b = evaluate_array(flat, GRID)
    assert np.array_equal(a, b)


def test_flatten_preserves_evaluation_product():
    net = blocks.product2_unit(5)
    flat = flatten_to_2d(net)
    pts = np.random.default_rng(1).uniform(0, 1, size=(10000, 2))
    dev = np.max(np.abs(evaluate_array(net, pts) - evaluate_array(flat, pts)))
    assert dev <= 1e-12


def test_flatten_pads_width_to_requested():
    net = blocks.square_net(4)
    m = metrics(net)
    flat = flatten_to_2d(net, pad_width_to=m.width * m.height)
    fm = metrics(flat)
    assert fm.width == m.width * m.height
    assert fm.height == 1
    a = evaluate_array(net, GRID)
    b = evaluate_array(flat, GRID)
    assert np.max(np.abs(a - b)) <= 1e-12


# -- composition ------------------------------------------------------------


def test_linear_combine_reproduces_square_stage():
    # x - g_1(x)/4 is the first square interpolant: value 0.25 at x = 0.5
    g1 = blocks.sawtooth_net(1)
    ident = identity_net(1)
    f1 = linear_combine([ident, g1], [1.0, -0.25], 0.0)
    assert evaluate(f1, [0.5]) == pytest.approx(0.25, abs=1e-15)
    assert evaluate(f1, [0.25]) == pytest.approx(0.125, abs=1e-15)


def test_chain_composes_sawtooths():
    g1 = blocks.sawtooth_net(1)
    g2 = chain(g1, g1)
    assert evaluate(g2, [0.25]) == pytest.approx(1.0, abs=1e-15)
    ref = evaluate_array(blocks.sawtooth_net(2), GRID)
    got = evaluate_array(g2, GRID)
    assert np.max(np.abs(ref - got)) <= 1e-12


def test_chain_into_a_net_with_no_layers_composes_the_readouts():
    # 1/4 + x/2 after g_3, the sawtooth with 4 teeth
    net = chain(builders.build_poly1d([0.25, 0.5], 1).net,
                blocks.sawtooth_net(3))

    def g(x):
        return 2 * x if x <= Fraction(1, 2) else 2 - 2 * x

    for i in range(65):
        x = Fraction(i, 64)
        assert evaluate_exact(net, [float(x)]) == Fraction(1, 4) \
            + g(g(g(x))) / 2


def test_chain_rejects_dimension_mismatch():
    with pytest.raises(NetFormatError):
        chain(blocks.product2_unit(2), identity_net(1))


def test_parallel_identity_pair():
    net = parallel([identity_net(1), identity_net(1)])
    out = evaluate(net, [0.3, -0.8])
    assert np.allclose(out, [0.3, -0.8], atol=0)


def test_parallel_shared_duplicates_input():
    net = parallel_shared([blocks.sawtooth_net(1), identity_net(1)])
    out = evaluate(net, [0.5])
    assert np.allclose(out, [1.0, 0.5], atol=0)


COMPOSITIONS = {
    # power_chain_net and the chain are two layers deeper than the sawtooth
    # and the square, so the merges pad
    "parallel": lambda saw, sq, pw, deep: parallel([saw, pw, sq]),
    "parallel_shared": lambda saw, sq, pw, deep: parallel_shared([saw, pw,
                                                                  sq]),
    "linear_combine": lambda saw, sq, pw, deep: linear_combine(
        [saw, deep, sq], [0.5, -1.0, 0.25], 0.125),
    "chain": lambda saw, sq, pw, deep: chain(pw, sq),
    "flatten_to_2d": lambda saw, sq, pw, deep: flatten_to_2d(
        pw, pad_width_to=16),
}


@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
def test_each_composition_validates_one_net(name, monkeypatch):
    saw, sq = blocks.sawtooth_net(2), blocks.square_net(3)
    parts = (saw, sq, blocks.power_chain_net(3, 2), chain(saw, chain(sq, saw)))
    validated = []
    check = rnet._validate
    monkeypatch.setattr(rnet, "_validate",
                        lambda net: (validated.append(net), check(net)))
    net = COMPOSITIONS[name](*parts)
    assert len(validated) == 1 and validated[0] is net


@settings(deadline=None, max_examples=25)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=4),
       st.floats(-2, 2))
def test_linear_combine_matches_sum(coeffs, bias):
    nets = [blocks.sawtooth_net(s + 1) for s in range(len(coeffs))]
    combo = linear_combine(nets, coeffs, bias)
    xs = np.linspace(0, 1, 97)[:, None]
    want = bias + sum(c * evaluate_array(n, xs)
                      for c, n in zip(coeffs, nets))
    got = evaluate_array(combo, xs)
    assert np.max(np.abs(want - got)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


# -- merge goldens and exact differential checks ----------------------------

# name -> (sha256 of serialize, the merge that builds it), recorded before
# _merge was rewritten as a per-floor column remap
GOLDEN_MERGES = {
    # unequal depth (power_chain_net pads the rest) and height, disjoint input
    "parallel-mixed": (
        "5efb49098ffe6967dda6fe436b3d079a4862f9f58ff21e6d590d7f768185e87b",
        lambda: parallel([blocks.sawtooth_net(1), blocks.square_net(3),
                          blocks.product2_unit(2),
                          blocks.power_chain_net(3, 2)])),
    # same-floor intra links, shifted right by the identity's two columns
    "parallel-shared-flat": (
        "7f1dc0de5d6aa28f4fefce9e1dfaf642445d5b351127a90245b65e289cbe1166",
        lambda: parallel_shared([identity_net(1),
                                 flatten_to_2d(blocks.square_net(3))])),
    "linear-combine-dyadic": (
        "a93ad6cb0066c530aa667cb28984d1e12ef064223bb79bb99e631802ecce392a",
        lambda: linear_combine([blocks.sawtooth_net(2), blocks.square_net(3),
                                identity_net(1)], [0.5, -1.25, 0.75], 0.125)),
    # the entries below were recorded before _merge padded short nets in
    # its own layer loop: a 2-output net padded by two layers, a net with
    # no hidden layers (its zero bias pads to a -0.0 bias), and a sum of
    # nets of depth 0, 1 and 3
    "parallel-padded-clip": (
        "70a2a1e9eb447a5f67491383b521b8bdd0be972364a8e8d7c42e4efc4f73b15d",
        lambda: parallel([blocks.clip_window_net(3.0, 0.5),
                          blocks.power_chain_net(4, 2)])),
    "parallel-affine-part": (
        "5d7cfdcabdbf7226e9bfee0b3968b2e10cfdc2bb277a78fbf965bc188357eae4",
        lambda: parallel([reference_net.pack(2, [],
                                             [{0: 0.5, 1: -0.25}, {1: 2.0}],
                                             [0.0, -0.125]),
                          blocks.power_chain_net(3, 2)])),
    "linear-combine-unequal-depth": (
        "80939fe0253327902c8d314e7cd71800d7ec61f9e845f963a6c18d2a49cc45ed",
        lambda: linear_combine(
            [reference_net.pack(1, [], [{0: 1.0}], [0.0]),
             blocks.square_net(2),
             chain(blocks.sawtooth_net(1),
                   chain(blocks.square_net(3), blocks.sawtooth_net(2)))],
            [0.75, -0.5, 0.25], -0.0625)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MERGES))
def test_golden_merge_hashes(name):
    want, make = GOLDEN_MERGES[name]
    assert hashlib.sha256(serialize(make()).encode()).hexdigest() == want


def flat_square_saw():
    """One floor whose two intra chains interleave: five dependency
    levels, but the flat order starts a new segment eight times."""
    return parallel_shared([flatten_to_2d(blocks.square_net(4)),
                            flatten_to_2d(blocks.sawtooth_net(5))])


# name -> forward_sha (conftest) of the GOLDEN_MERGES net or of
# flat_square_saw, recorded before the forward pass ran each layer in
# contiguous segments of its flat order (the padding entries together with
# their GOLDEN_MERGES hashes)
GOLDEN_MERGE_FORWARD = {
    "flat-square-saw":
        "b1eab1b1767219c370549c3101896f3df0c5afda3f75676a64786d46b1c31e5b",
    "linear-combine-dyadic":
        "1692f5ac276375ae93a3ba419fa9142997245cf31892a3208fdb040e5f8cae05",
    "parallel-mixed":
        "b7d07469488c8d55789eaf70523447d52fbc7d7cfa88afe4c1cafb77e9d4d5c9",
    "parallel-shared-flat":
        "b86b788494c4fdfa020e8340d8955fe60706d79b22fab04ce708bd994a03c6b7",
    "parallel-padded-clip":
        "bf16ee8eaf5a237daac82e86c4f3b92db255f12c069c297fd26520dae4db2504",
    "parallel-affine-part":
        "ca56267bbb1752a85dbb4953eb2567f46def02d0d643377689204c985ca32e0b",
    "linear-combine-unequal-depth":
        "fafea566575d8b10e9d71cf2abb8759a2bd258cf87e0a45a8888a5ad8976543b",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MERGE_FORWARD))
def test_golden_merge_forward_outputs(name, forward_sha):
    make = (GOLDEN_MERGES[name][1] if name in GOLDEN_MERGES
            else flat_square_saw)
    assert forward_sha(make()) == GOLDEN_MERGE_FORWARD[name]


def test_forward_segments_cover_the_flat_order():
    net = flat_square_saw()
    (prog,), _, _ = _compile(net)
    rows = [r for r, _ in prog.segments]
    assert len(rows) == 8
    assert [r.start for r in rows[1:]] == [r.stop for r in rows[:-1]]
    assert rows[0].start == 0 and rows[-1].stop == net.layers[0].size
    assert [G is None for _, G in prog.segments] == [True] + [False] * 7


# small gadgets with exact dyadic arithmetic; the flattened ones carry
# intra links on a single floor
PARTS = {
    "identity": lambda: identity_net(1),
    "identity2": lambda: identity_net(2),
    "saw1": lambda: blocks.sawtooth_net(1),
    "saw3": lambda: blocks.sawtooth_net(3),
    "square0": lambda: blocks.square_net(0),
    "square2": lambda: blocks.square_net(2),
    "prod2": lambda: blocks.product2_unit(2),
    "powers3": lambda: blocks.power_chain_net(3, 2),
    "flat-square3": lambda: flatten_to_2d(blocks.square_net(3)),
    "flat-prod1": lambda: flatten_to_2d(blocks.product2_unit(1)),
}
UNIT_PARTS = ("identity", "saw1", "saw3", "square0", "square2",
              "flat-square3")
DYADIC = st.integers(0, 32).map(lambda k: Fraction(k, 32))
COEFF = st.integers(-16, 16).map(lambda k: k / 8.0)


def _exact(net, x):
    out = evaluate_exact(net, x)
    return out if isinstance(out, list) else [out]


def _floats(net, x):
    """The float forward pass at one point, as exact rationals."""
    out = evaluate_array(net, np.array([[float(v) for v in x]]))
    return [Fraction(v) for v in np.reshape(out, -1)]


@settings(deadline=None, max_examples=30)
@given(st.lists(st.sampled_from(sorted(PARTS)), min_size=1, max_size=4),
       st.booleans(), st.data())
def test_merges_match_their_parts_exactly(names, shared, data):
    parts = [PARTS[n]() for n in names]
    if shared:
        parts = [p for p in parts if p.input_dim == parts[0].input_dim]
        x = data.draw(st.lists(DYADIC, min_size=parts[0].input_dim,
                               max_size=parts[0].input_dim))
        xs = [x] * len(parts)
        net = parallel_shared(parts)
    else:
        xs = [data.draw(st.lists(DYADIC, min_size=p.input_dim,
                                 max_size=p.input_dim)) for p in parts]
        x = [v for xi in xs for v in xi]
        net = parallel(parts)
    want = [v for p, xi in zip(parts, xs) for v in _exact(p, xi)]
    assert _exact(net, x) == want
    assert _floats(net, x) == want
    for p, xi in zip(parts, xs):
        m = metrics(p)
        for flat in (flatten_to_2d(p),
                     flatten_to_2d(p, pad_width_to=m.width * m.height)):
            assert _exact(flat, xi) == _floats(flat, xi) == _exact(p, xi)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.sampled_from(UNIT_PARTS), min_size=1, max_size=4),
       st.data(), COEFF, DYADIC)
def test_linear_combine_and_chain_are_exact(names, data, bias, x):
    parts = [PARTS[n]() for n in names]
    coeffs = data.draw(st.lists(COEFF, min_size=len(parts),
                                max_size=len(parts)))
    combo = linear_combine(parts, coeffs, bias)
    want = Fraction(bias) + sum(Fraction(c) * evaluate_exact(p, [x])
                                for c, p in zip(coeffs, parts))
    assert evaluate_exact(combo, [x]) == want
    # every unit part maps [0, 1] into [0, 1], so any two compose
    outer, inner = parts[0], parts[-1]
    composed = evaluate_exact(outer, [evaluate_exact(inner, [x])])
    assert evaluate_exact(chain(outer, inner), [x]) == composed
