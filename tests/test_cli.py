"""Command-line front end: verbs, exit codes, artifacts, round-trips."""

import csv
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_net import FUZZ_NETS, JSON_LEAF, _leaf_paths, _put

import reference_net
import relu3d
from relu3d import blocks, trig_operator
from relu3d.builders import THEOREM_IDS, THEOREMS
from relu3d.cli import _build_parser, run
from relu3d.net import (deserialize, evaluate_array, identity_net,
                        parallel_shared, serialize)


def build_square(tmp_path):
    out = tmp_path / "sq.net"
    code = run(["build", "--theorem", "poly", "--coeffs", "0,0,1",
                "--H", "6", "-o", str(out)])
    assert code == 0
    return out


def test_build_writes_net_and_report(tmp_path):
    out = build_square(tmp_path)
    assert out.exists()
    report = json.loads((tmp_path / "sq.net.report.json").read_text())
    assert report["theorem"] == "poly"
    assert report["bound"] == pytest.approx(12 * 2.0 ** (-14))
    assert report["metrics"]["width"] == 8
    assert report["metrics"]["height"] == 6


def test_eval_prints_values(tmp_path, capsys):
    out = build_square(tmp_path)
    capsys.readouterr()
    assert run(["eval", str(out), "0.5"]) == 0
    printed = capsys.readouterr().out.strip()
    assert abs(float(printed) - 0.25) <= 3 * 2.0 ** (-14)


def test_eval_round_trips_in_memory_evaluation(tmp_path, capsys):
    out = build_square(tmp_path)
    net = deserialize(out.read_text())
    xs = np.linspace(0, 1, 7)
    capsys.readouterr()
    assert run(["eval", str(out)] + [repr(float(x)) for x in xs]) == 0
    printed = [float(v) for v in capsys.readouterr().out.split()]
    want = evaluate_array(net, xs[:, None])
    assert np.array_equal(np.asarray(printed), want)


def test_size_verb(tmp_path, capsys):
    out = build_square(tmp_path)
    assert run(["size", str(out)]) == 0
    line = capsys.readouterr().out
    assert "width 8" in line
    assert "depth 1" in line
    assert "height 6" in line


def test_verify_pass_and_report(tmp_path, capsys):
    out = build_square(tmp_path)
    code = run(["verify", str(out), "--target", "square", "--norm", "sup"])
    assert code == 0
    doc = json.loads((tmp_path / "sq.net.verify.json").read_text())
    assert doc["pass"] is True
    assert doc["measured"] <= doc["bound"]


def test_verify_bound_failure_exit_code(tmp_path, capsys):
    out = build_square(tmp_path)
    code = run(["verify", str(out), "--target", "square", "--norm", "sup",
                "--bound", "1e-12"])
    assert code == 1
    assert ".verify.json" in capsys.readouterr().out


def test_missing_net_file_is_usage_error(capsys):
    assert run(["verify", "/nonexistent.net", "--target", "square"]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "not json",
    '{"schema": "relu3d/v1", "input_dim": 1, "layers": [1]}',
    '{"schema": "relu3d/v1", "input_dim": Infinity, "layers": [], '
    '"readout": {"w": [[]], "b": [0.0]}}'])
@pytest.mark.parametrize("verb", [["eval"], ["size"],
                                  ["verify", "--target", "square"]])
def test_malformed_net_file_is_usage_error(tmp_path, capsys, text, verb):
    path = tmp_path / "bad.net"
    path.write_text(text)
    args = [verb[0], str(path)] + (["0.5"] if verb == ["eval"] else verb[1:])
    assert run(args) == 2
    assert "network file" in capsys.readouterr().err


@pytest.mark.parametrize("bias", ["7", True], ids=["string", "bool"])
def test_eval_of_a_net_file_with_a_mistyped_number_is_usage_error(
        tmp_path, capsys, bias):
    # the readout bias used to be read as 7.0 or 1.0, and eval printed
    # 0.5 plus that
    doc = json.loads(serialize(identity_net(1)))
    doc["readout"]["b"] = [bias]
    path = tmp_path / "bias.net"
    path.write_text(json.dumps(doc))
    assert run(["eval", str(path), "0.5"]) == 2
    err = capsys.readouterr().err
    assert "expected a number" in err and err.count("\n") == 1, err


# each verb with the file it reads, written as bad.json
JSON_FILE_VERBS = {
    "net": ["size", "bad.json"],
    "params": ["build", "--theorem", "poly", "--coeffs", "0,1", "--H", "2",
               "-o", "x.net", "--params", "bad.json"],
    "report": ["verify", "bad.json", "--target", "square"],
    "table1-config": ["table1", "--config", "bad.json", "-o", "t.csv"],
}


@pytest.mark.parametrize("verb", sorted(JSON_FILE_VERBS))
@pytest.mark.parametrize("content", [b"[" * 100000 + b"]" * 100000,
                                     b'{"schema": "\xff"}'],
                         ids=["nested", "undecodable"])
def test_a_nested_or_undecodable_json_file_is_usage_error(
        tmp_path, capsys, monkeypatch, verb, content):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_bytes(content)
    if verb == "report":  # verify reads bad.json.report.json beside it
        (tmp_path / "bad.json").write_text(serialize(identity_net(1)))
        (tmp_path / "bad.json.report.json").write_bytes(content)
    capsys.readouterr()
    assert run(JSON_FILE_VERBS[verb]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_eval_prints_one_line_per_point_of_a_multi_output_net(tmp_path,
                                                              capsys):
    path = tmp_path / "pair.net"
    path.write_text(serialize(parallel_shared([identity_net(1),
                                               blocks.sawtooth_net(1)])))
    assert run(["eval", str(path), "0.25", "0.5"]) == 0
    assert capsys.readouterr().out == "0.25 0.5\n0.5 1.0\n"


@pytest.mark.parametrize("point", ["inf", "nan", "1e308"])
def test_eval_of_an_unusable_point_is_usage_error(tmp_path, capsys, point):
    out = build_square(tmp_path)
    capsys.readouterr()
    assert run(["eval", str(out), point]) == 2
    assert "non-finite activation" in capsys.readouterr().err


@pytest.mark.parametrize("points", [["0.5,0.5"], ["0.5", "0.5,0.5"], [""]])
def test_eval_of_a_point_of_the_wrong_length_is_usage_error(tmp_path, capsys,
                                                            points):
    out = build_square(tmp_path)
    capsys.readouterr()
    assert run(["eval", str(out)] + points) == 2
    assert "cannot evaluate" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["inf", "nan", "1e308"])
def test_eval_of_a_point_with_a_non_finite_output_is_usage_error(
        tmp_path, capsys, point):
    # degree 1 is affine: the net has no hidden layers, only a readout
    out = tmp_path / "line.net"
    assert run(["build", "--theorem", "poly", "--coeffs", "0.5,2", "--H", "2",
                "-o", str(out)]) == 0
    capsys.readouterr()
    assert run(["eval", str(out), point]) == 2
    assert "non-finite output" in capsys.readouterr().err


def _mutated(data, doc):
    """doc with one to three of its JSON leaves replaced."""
    for path in data.draw(st.lists(st.sampled_from(_leaf_paths(doc)),
                                   min_size=1, max_size=3)):
        _put(doc, path, data.draw(JSON_LEAF))
    return json.dumps(doc)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(range(len(FUZZ_NETS))), st.data())
def test_cli_on_mutated_net_files_exits_0_1_or_2(tmp_path_factory, which,
                                                  data):
    net = FUZZ_NETS[which]
    path = tmp_path_factory.mktemp("fuzz") / "mut.net"
    path.write_text(_mutated(data, json.loads(serialize(net))))
    point = ",".join(["0.25"] * net.input_dim)
    # the Gaussian norm measures on a fixed 1-D quadrature, so the cost of a
    # run does not grow with a mutated input_dim
    for args in (["eval", str(path), point], ["size", str(path)],
                 ["verify", str(path), "--target", "cosine", "--norm",
                  "gauss", "--support", "1", "--bound", "1"]):
        assert run(args) in (0, 1, 2)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_verify_on_mutated_build_reports_exits_0_1_or_2(tmp_path_factory,
                                                        data):
    tmp = tmp_path_factory.mktemp("fuzz")
    out = build_square(tmp)
    report = tmp / "sq.net.report.json"
    report.write_text(_mutated(data, json.loads(report.read_text())))
    for norm in ("sup", "gauss"):
        assert run(["verify", str(out), "--target", "square", "--norm",
                    norm]) in (0, 1, 2)


@pytest.mark.parametrize("report", ["{broken", "[1, 2]"])
def test_corrupt_build_report_is_usage_error(tmp_path, capsys, report):
    out = build_square(tmp_path)
    (tmp_path / "sq.net.report.json").write_text(report)
    assert run(["verify", str(out), "--target", "square"]) == 2
    assert "build report" in capsys.readouterr().err


@pytest.mark.parametrize("report,norm", [
    ('{"bound": "0.5"}', "sup"), ('{"bound": true}', "sup"),
    ('{"bound": 1%s}' % ("0" * 400), "sup"), ('{"bound": Infinity}', "sup"),
    ('{"bound": 1.0, "meta": [3]}', "gauss"),
    ('{"bound": 1.0, "meta": {"support": "3"}}', "gauss")],
    ids=["text-bound", "bool-bound", "huge-bound", "infinite-bound",
         "list-meta", "text-support"])
def test_build_report_numbers_must_be_finite_numbers(tmp_path, capsys,
                                                     report, norm):
    out = build_square(tmp_path)
    (tmp_path / "sq.net.report.json").write_text(report)
    assert run(["verify", str(out), "--target", "square", "--norm",
                norm]) == 2
    assert "build report" in capsys.readouterr().err


@pytest.mark.parametrize("args,err", [
    (["--domain", "gaussian-line"], "bounded domain"),
    (["--domain", "no-such-domain"], "unknown domain"),
    (["--target", "no-such-target"], "unknown catalog id"),
    # the square net is not 0 outside [-1, 1]
    (["--norm", "gauss", "--support", "1"], "does not vanish")])
def test_verify_of_an_unmeasurable_net_is_usage_error(tmp_path, capsys,
                                                      args, err):
    out = build_square(tmp_path)
    capsys.readouterr()
    assert run(["verify", str(out), "--target", "square"] + args) == 2
    assert err in capsys.readouterr().err


@pytest.mark.parametrize("report", [None, "{}"])
def test_verify_without_a_bound_is_usage_error(tmp_path, capsys, report):
    out = build_square(tmp_path)
    path = tmp_path / "sq.net.report.json"
    if report is None:
        path.unlink()
    else:
        path.write_text(report)
    assert run(["verify", str(out), "--target", "square"]) == 2
    assert "--bound" in capsys.readouterr().err
    assert not (tmp_path / "sq.net.verify.json").exists()


def test_verify_bound_flag_replaces_a_deleted_report(tmp_path, capsys):
    out = build_square(tmp_path)
    (tmp_path / "sq.net.report.json").unlink()
    assert run(["verify", str(out), "--target", "square",
                "--bound", "1e-3"]) == 0
    doc = json.loads((tmp_path / "sq.net.verify.json").read_text())
    assert doc["bound"] == 1e-3 and doc["pass"] is True


@pytest.mark.parametrize("args,err", [
    (["--bound", "inf"], "--bound"), (["--bound", "nan"], "--bound"),
    (["--bound", "0"], "positive"), (["--bound", "-1"], "positive"),
    (["--bound", "1", "--norm", "gauss", "--support", "inf"], "--support"),
    (["--bound", "1", "--norm", "gauss", "--support", "nan"], "--support"),
    (["--bound", "1", "--norm", "gauss", "--support", "1e12"], "nodes")],
    ids=["inf-bound", "nan-bound", "zero-bound", "negative-bound",
         "inf-support", "nan-support", "huge-support"])
def test_verify_of_an_unusable_bound_or_support_is_usage_error(
        tmp_path, capsys, args, err):
    out = build_square(tmp_path)
    capsys.readouterr()
    assert run(["verify", str(out), "--target", "square"] + args) == 2
    assert err in capsys.readouterr().err
    assert not (tmp_path / "sq.net.verify.json").exists()


def test_verify_of_a_net_with_22_inputs_is_usage_error(tmp_path, capsys):
    # a sup grid of 2 points per axis over 22 inputs exceeds the point cap
    path = tmp_path / "wide.net"
    path.write_text(serialize(reference_net.pack(22, [], [{0: 1.0}], [0.0])))
    assert run(["verify", str(path), "--target", "linear",
                "--bound", "1"]) == 2
    assert "cannot measure" in capsys.readouterr().err


def build_lp(tmp_path):
    out = tmp_path / "lp.net"
    assert run(["build", "--theorem", "lp", "--target", "abs-power",
                "--domain", "sym-cube", "--N1", "4", "--N2", "8",
                "-o", str(out)]) == 0
    return out


@pytest.mark.parametrize("p", ["nan", "1e308"])
def test_verify_of_an_unmeasurable_lp_exponent_is_usage_error(tmp_path,
                                                              capsys, p):
    # nan has no order; 1e308 underflows every |error|^p to 0
    out = build_lp(tmp_path)
    capsys.readouterr()
    assert run(["verify", str(out), "--target", "abs-power", "--domain",
                "sym-cube", "--norm", "lp", "--p", p]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot measure {out}")
    assert not (tmp_path / "lp.net.verify.json").exists()


def test_sweep_of_a_nan_lp_exponent_is_usage_error(tmp_path, capsys):
    assert run(["sweep", "--theorem", "lp", "--target", "abs-power",
                "--domain", "sym-cube", "--N2", "8", "--values", "2",
                "--p", "nan", "-o", str(tmp_path / "lp.csv")]) == 2
    assert "error: cannot sweep lp" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore")   # 0 ** -1
def test_sweep_of_a_non_finite_measurement_is_usage_error(tmp_path, capsys):
    # the builds succeed; the measurement of |x|^-1 then fails
    params = tmp_path / "ap.json"
    params.write_text(json.dumps(
        {"target": {"catalog_id": "abs-power", "params": {"alpha": -1}}}))
    assert run(["sweep", "--theorem", "smooth", "--params", str(params),
                "--values", "3", "-o", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot sweep smooth: ")
    assert "not a finite number" in err


def test_verify_of_a_negative_gauss_support_is_usage_error(tmp_path, capsys):
    out = tmp_path / "h.net"
    assert run(["build", "--theorem", "hermite", "--target", "cosine",
                "--N", "4", "-o", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", str(out), "--target", "cosine", "--domain",
                "gaussian-line", "--norm", "gauss", "--support", "-20"]) == 2
    assert "error: cannot measure" in capsys.readouterr().err
    assert not (tmp_path / "h.net.verify.json").exists()


@pytest.mark.filterwarnings("ignore")   # 1/0, and quad on a nan integrand
@pytest.mark.parametrize("norm,target", [
    ("sup", {"catalog_id": "cosine", "params": {"omega": float("nan")}}),
    ("sup", {"catalog_id": "abs-power", "params": {"alpha": -1}}),
    ("lp", {"catalog_id": "abs-power", "params": {"alpha": -1}}),
    ("gauss", {"catalog_id": "cosine", "domain": "gaussian-line",
               "params": {"omega": float("nan")}})],
    ids=["nan-sup", "inf-sup", "inf-lp", "nan-gauss"])
def test_verify_of_a_non_finite_target_is_usage_error(tmp_path, capsys, norm,
                                                      target):
    # exit 1 means a bound failure on a real number, not "measured nan"
    if norm != "gauss":
        out = build_square(tmp_path)
    else:
        out = tmp_path / "h.net"
        assert run(["build", "--theorem", "hermite", "--target", "cosine",
                    "--N", "4", "-o", str(out)]) == 0
    params = tmp_path / "target.json"
    params.write_text(json.dumps({"target": target}))
    capsys.readouterr()
    assert run(["verify", str(out), "--params", str(params),
                "--norm", norm]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot measure {out}")
    assert "not a finite number" in err
    assert not Path(str(out) + ".verify.json").exists()


@pytest.mark.parametrize("params", [None, {"target": {
    "catalog_id": "quadratic", "dimension": 5}}], ids=["flag", "document"])
def test_verify_takes_the_dimension_from_the_net(tmp_path, capsys, params):
    # verify has no --d: the target is re-made with the net's input_dim
    out = build_square(tmp_path)
    args = ["verify", str(out)]
    if params is None:
        args += ["--target", "square"]
    else:
        (tmp_path / "d5.json").write_text(json.dumps(params))
        args += ["--params", str(tmp_path / "d5.json")]
    assert run(args) == 0
    assert run(args + ["--d", "3"]) == 2
    assert "unrecognized arguments: --d 3" in capsys.readouterr().err


def test_build_of_an_overflowing_hermite_degree_is_usage_error(tmp_path,
                                                               capsys):
    assert run(["build", "--theorem", "hermite", "--target", "cosine",
                "--domain", "gaussian-line", "--N", "150",
                "-o", str(tmp_path / "h.net")]) == 2
    assert "float range" in capsys.readouterr().err


def test_build_of_a_hermite_net_that_verify_refuses_is_usage_error(
        tmp_path, capsys):
    # the d = 1 net of N = 16 is 2.1e-5 away from 0 outside its support,
    # which verify --norm gauss refuses
    out = tmp_path / "h.net"
    assert run(["build", "--theorem", "hermite", "--target", "cosine",
                "--domain", "gaussian-line", "--N", "16",
                "-o", str(out)]) == 2
    assert "does not vanish" in capsys.readouterr().err
    assert not out.exists()


# theorem -> (degree flags, domain) of a build that evaluates its target on
# expansion nodes: Chebyshev (smooth, ellipse), torus (lp), Gauss-Hermite
NAN_TARGET_BUILDS = {
    "smooth": (["--N", "3"], "unit-cube"),
    "ellipse": (["--N", "4", "--rho", "4"], "unit-cube"),
    "lp": (["--N1", "4", "--N2", "8"], "sym-cube"),
    "hermite": (["--N", "4"], "gaussian-line"),
}


@pytest.mark.parametrize("theorem", sorted(NAN_TARGET_BUILDS))
def test_a_target_not_finite_at_the_nodes_is_usage_error(tmp_path, capsys,
                                                          theorem):
    # cosine with omega = nan is nan at every node: the refusal names the
    # target, not the degree or the built net
    flags, domain = NAN_TARGET_BUILDS[theorem]
    doc = tmp_path / "t.json"
    doc.write_text('{"target": {"catalog_id": "cosine", "domain": "%s", '
                   '"params": {"omega": NaN}}}' % domain)
    assert run(["build", "--theorem", theorem, "--params", str(doc),
                "-o", str(tmp_path / "x.net")] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "not a finite number" in err


@pytest.mark.parametrize("args", [
    ["--theorem", "smooth", "--target", "reciprocal-shift", "--N", "299"],
    ["--theorem", "smooth", "--target", "reciprocal-shift", "--N", "45"],
    ["--theorem", "smooth", "--target", "reciprocal-shift", "--N", "700"],
    ["--theorem", "ellipse", "--target", "reciprocal-shift", "--rho", "4",
     "--N", "300"],
    ["--theorem", "ellipse", "--target", "reciprocal-shift", "--rho", "4",
     "--N", "700"],
    ["--theorem", "ellipse", "--target", "reciprocal-shift", "--rho", "4",
     "--N", "24"],
    ["--theorem", "analytic-cube", "--target", "geometric-product",
     "--delta", "0.9", "--N", "320"],
    ["--theorem", "trig", "--k", "1", "--N2", "169"],
    ["--theorem", "trig", "--k", "1", "--N2", "43"],
    ["--theorem", "lp", "--target", "abs-power", "--N1", "4", "--N2", "1100"],
    ["--theorem", "poly", "--coeffs", "0,0,1", "--H", "2000"]],
    ids=["smooth-height", "smooth-rounding", "smooth-degree", "ellipse-height",
         "ellipse-degree", "ellipse-rounding", "cube-height", "trig-factorial",
         "trig-rounding", "lp-factorial", "poly-square-height"])
def test_build_of_an_overflowing_float_formula_is_usage_error(tmp_path,
                                                             capsys, args):
    assert run(["build"] + args + ["-o", str(tmp_path / "x.net")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot build") and "float" in err
    assert not (tmp_path / "x.net").exists()


def test_build_of_a_torus_grid_over_the_cap_is_usage_error(tmp_path, capsys,
                                                          monkeypatch):
    def no_grid(axes):
        raise AssertionError("tensor_points called")

    monkeypatch.setattr(trig_operator, "tensor_points", no_grid)
    assert run(["build", "--theorem", "lp", "--target", "abs-sum", "--d",
                "3", "--domain", "sym-cube", "--N1", "2", "--N2", "6",
                "-o", str(tmp_path / "lp3.net")]) == 2
    assert "cap of 4000000 points" in capsys.readouterr().err


@pytest.mark.parametrize("N2", ["0", "-3"])
def test_lp_with_N2_below_1_is_usage_error(tmp_path, capsys, N2):
    assert run(["build", "--theorem", "lp", "--target", "abs", "--domain",
                "sym-cube", "--N1", "4", "--N2", N2,
                "-o", str(tmp_path / "x.net")]) == 2
    assert "need N2 >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x.net").exists()


def test_unknown_flag_is_usage_error(capsys):
    assert run(["build", "--theorem", "poly", "--bogus", "1",
                "-o", "/tmp/x.net"]) == 2


def test_unknown_verb_is_usage_error():
    assert run(["frobnicate"]) == 2


def test_missing_build_parameter_is_usage_error(tmp_path, capsys):
    code = run(["build", "--theorem", "smooth",
                "-o", str(tmp_path / "x.net")])
    assert code == 2


def test_sweep_writes_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    code = run(["sweep", "--theorem", "smooth", "--target",
                "reciprocal-shift", "--range", "2:8", "-o", str(path)])
    assert code == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    assert all(float(r["measured"]) <= float(r["bound"]) for r in rows)


def test_sweep_trig_with_param_flag(tmp_path):
    path = tmp_path / "trig.csv"
    code = run(["sweep", "--theorem", "trig", "--param", "N2",
                "--values", "6,8,10", "--k", "3", "-o", str(path)])
    assert code == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["value"]) for r in rows] == [6.0, 8.0, 10.0]


def test_sweep_float_parameter_values(tmp_path):
    path = tmp_path / "delta.csv"
    assert run(["sweep", "--theorem", "analytic-cube", "--target",
                "geometric-product", "--N", "3", "--param", "delta",
                "--values", "0.25,0.5", "-o", str(path)]) == 0
    with open(path, newline="") as fh:
        assert [r["value"] for r in csv.DictReader(fh)] == ["0.25", "0.5"]


@pytest.mark.parametrize("args", [
    ["sweep", "--theorem", "trig", "--k", "2", "--values", "6,x"],
    ["sweep", "--theorem", "trig", "--k", "2", "--range", "6:8:0"],
    ["sweep", "--theorem", "trig", "--k", "2", "--range", "a:b"],
    ["build", "--theorem", "trig", "--k", "0", "--N2", "6"],
])
def test_bad_parameter_values_are_usage_errors(tmp_path, args):
    assert run(args + ["-o", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("args", [
    ["--theorem", "poly", "--coeffs", "0,0,1", "--values", "inf"],
    ["--theorem", "poly", "--coeffs", "0,0,1", "--values", "1e400"],
    ["--theorem", "trig", "--values", "6", "--params", "{doc}"]],
    ids=["inf", "1e400", "document"])
def test_integer_parameters_out_of_range_are_usage_errors(tmp_path, capsys,
                                                          args):
    # JSON reads 1e400 as inf, which no int holds
    doc = tmp_path / "p.json"
    doc.write_text('{"k": 1e400}')
    argv = ["sweep"] + [str(doc) if a == "{doc}" else a for a in args]
    assert run(argv + ["-o", str(tmp_path / "out.csv")]) == 2
    assert "error: " in capsys.readouterr().err


def test_table1_default_config(tmp_path):
    path = tmp_path / "table1.csv"
    assert run(["table1", "-o", str(path)]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    kinds = {r["row"] for r in rows}
    assert {"poly", "analytic-cube"} <= kinds


def test_table1_config_reads_target_documents(tmp_path, capsys):
    config = tmp_path / "rows.json"
    config.write_text(json.dumps([
        {"row": "poly", "coeffs": [0.0, 0.0, 1.0], "H": 3},
        {"row": "analytic-cube", "N": 3, "delta": 0.5,
         "target": {"catalog_id": "geometric-product", "dimension": 1}}]))
    path = tmp_path / "table1.csv"
    assert run(["table1", "--config", str(config), "-o", str(path)]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["row"] for r in rows] == ["poly", "analytic-cube"]
    assert f"wrote {path} (2 rows)" in capsys.readouterr().out


@pytest.mark.parametrize("row,message", [
    ({"row": "trig", "k": 1, "N2": 8}, "no baseline row for 'trig'"),
    ({"row": "poly", "coeffs": [0, 0, 1]}, "missing parameter 'H'"),
    ({"row": "analytic-cube", "N": 3, "delta": 0.5,
      "target": {"catalog_id": "nope", "dimension": 1}},
     "unknown catalog id 'nope'"),
    ({"N": 4}, 'each with a "row" key')],
    ids=["no-baseline", "missing-parameter", "unknown-catalog-id", "no-row"])
def test_table1_config_with_a_bad_row_is_usage_error(tmp_path, capsys, row,
                                                     message):
    config = tmp_path / "rows.json"
    config.write_text(json.dumps([row]))
    path = tmp_path / "table1.csv"
    assert run(["table1", "--config", str(config), "-o", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not path.exists()


def test_build_with_parameter_document(tmp_path):
    doc = {"N": 5, "target": {"catalog_id": "reciprocal-shift",
                              "dimension": 1, "domain": "unit-cube"}}
    params = tmp_path / "p.json"
    params.write_text(json.dumps(doc))
    out = tmp_path / "smooth.net"
    assert run(["build", "--theorem", "smooth", "--params", str(params),
                "-o", str(out)]) == 0
    # flag overrides the document field
    out2 = tmp_path / "smooth2.net"
    assert run(["build", "--theorem", "smooth", "--params", str(params),
                "--N", "3", "-o", str(out2)]) == 0
    rep = json.loads((str(out2) + ".report.json")
                     and (tmp_path / "smooth2.net.report.json").read_text())
    assert rep["inputs"]["N"] == 3


def test_build_trig_and_verify_against_cosine(tmp_path):
    out = tmp_path / "cos.net"
    assert run(["build", "--theorem", "trig", "--k", "2", "--N2", "10",
                "--kind", "cos", "-o", str(out)]) == 0
    net = deserialize(out.read_text())
    xs = np.linspace(-1, 1, 1025)[:, None]
    err = np.max(np.abs(evaluate_array(net, xs)
                        - np.cos(2 * np.pi * xs[:, 0])))
    assert err <= 2.0 ** -10


# -- golden build reports ----------------------------------------------------
# One small `relu3d build` per theorem id.  The sha256 of the network file
# and of the report's bound, expected_metrics, inputs and meta were recorded
# before the theorem registry replaced the per-theorem CLI dispatch.

POLY_ND_DOC = {"coeffs_nd": {"[1, 1]": 1.0, "[2, 0]": 0.5, "[0, 0]": 0.25},
               "H": 4}

BUILD_CASES = {
    "poly": ["--theorem", "poly", "--coeffs", "0.5,-1,0.25,2", "--H", "4"],
    "polyNd": ["--theorem", "polyNd"],
    "smooth": ["--theorem", "smooth", "--target", "reciprocal-shift",
               "--N", "3"],
    "analytic-cube-d1": ["--theorem", "analytic-cube", "--target",
                         "geometric-product", "--N", "3", "--delta", "0.5"],
    "analytic-cube-d2": ["--theorem", "analytic-cube", "--target",
                         "geometric-product", "--d", "2", "--N", "3",
                         "--delta", "0.5"],
    "ellipse": ["--theorem", "ellipse", "--target", "reciprocal-shift",
                "--N", "4", "--rho", "4.0"],
    "hermite": ["--theorem", "hermite", "--target", "cosine", "--domain",
                "gaussian-line", "--N", "2"],
    "trig-cos": ["--theorem", "trig", "--k", "3", "--N2", "6", "--kind",
                 "cos"],
    "trig-sin": ["--theorem", "trig", "--k", "2", "--N2", "6", "--kind",
                 "sin"],
    "lp-d1": ["--theorem", "lp", "--target", "abs-power", "--domain",
              "sym-cube", "--N1", "4", "--N2", "8"],
    "lp-d2": ["--theorem", "lp", "--target", "abs-sum", "--d", "2",
              "--domain", "sym-cube", "--N1", "2", "--N2", "6"],
}

# case -> (sha256 of the network file, sha256 of the report fields)
BUILD_GOLDEN = {
    "analytic-cube-d1": (
        "9386a751a5587fab3b3d26fd3e34af3a6ed7954831a9d1babd151150f80cae57",
        "4aaa5bb59211f2cbe2a9b631fe483d786fc42aae6eb87f15dcd63e03e5dca582"),
    "analytic-cube-d2": (
        "42002d8291e6d864f63cc8d2a7b414a2093e2c2fe886bb2c3f36daa36c4223e2",
        "4d34b7d7dedfb167f6f262e686d599e2e99b0289046e1f3495b8b0147f73f66f"),
    "ellipse": (
        "c7c4839c2b672cd8b9bbd944998697442e7bab1c99de779f187576ae909747f2",
        "4a0b24e9003c22a92cd96955bbb316bbc674af45437533bf8f3f846e43359428"),
    "hermite": (
        "e21f8393955a2ea6f0eb2ce5401bd9576017f53e44a40b55caef15a1075e24c6",
        "52c8053215b8db9b6125d5acfddfa364cc9803b0363eda4037826de18bf81c16"),
    "lp-d1": (
        "fe2b140a0e5cc5b8dbef3c85aa14acd07ddcc41a1ed1aa9156f622248e7c366e",
        "094130f37c90e116c60f261a9686e62a7059daafa53e299bca03414f94eb1d8f"),
    "lp-d2": (
        "ddbd395fe5925c0b378d2ef5ddb959d33b3b0b2a60b3dd4a7d58e02ec8a6c59b",
        "723b74ed7b8107877b1471bd68339adda9f13757b62830301dca67949dbd6689"),
    "poly": (
        "d59fcc27ff7ebc1ef9e63bae6fe56f8a44f286ba0517d76d547c77e4aab71321",
        "3eeae0a485794a9219099fb6556874506f9d227b9be1394aa42332e43f8fe1d3"),
    "polyNd": (
        "b5c3b73a0d1498b42c5de8b943e72db6c70d0cbf28070b97d420a4bc8ae85bf8",
        "61f1481a5226905e28e4bd75cf0a06f73b0aacbd57b4f1c3f579785b0edd5d15"),
    "smooth": (
        "764da7d726d3c8f630922d54c4366578b3d162388b2e0b94a2e7f8c1080d811f",
        "4f0c63873070d44d2de8cd659d0208cd8275b8e722810925401b9b8ecfcf69e6"),
    "trig-cos": (
        "74a2fedb1a37308f7c19d33c738ab2736eb29e0898b48f224784c866f50e922d",
        "6c02d405698db4a84e96071845f65f3861458f80bc27c360fce27c262f19225c"),
    "trig-sin": (
        "5d7dc9e287ea62d24010bc351db6fa474c2956cb38be85ce72a13a58c20abe1d",
        "fcb6d6074ba38e37dee451106f8904830eea20766fe4390c6a1aa02d77cf9f67"),
}


def case_args(case, tmp_path):
    args = list(BUILD_CASES[case])
    if case == "polyNd":
        doc = tmp_path / "poly.json"
        doc.write_text(json.dumps(POLY_ND_DOC))
        args += ["--params", str(doc)]
    return args


def build_case_hashes(case, tmp_path):
    out = tmp_path / f"{case}.net"
    assert run(["build"] + case_args(case, tmp_path) + ["-o", str(out)]) == 0
    report = json.loads((tmp_path / f"{case}.net.report.json").read_text())
    fields = {k: report[k] for k in ("bound", "expected_metrics", "inputs",
                                     "meta")}
    return (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(json.dumps(fields, sort_keys=True)
                           .encode()).hexdigest())


@pytest.mark.parametrize("case", sorted(BUILD_CASES))
def test_build_report_golden(case, tmp_path):
    assert build_case_hashes(case, tmp_path) == BUILD_GOLDEN[case]


# -- theorem registry coverage -----------------------------------------------


def test_build_cases_cover_every_theorem():
    assert {args[1] for args in BUILD_CASES.values()} == set(THEOREM_IDS)


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_every_theorem_sweeps_from_the_cli(theorem, tmp_path):
    # the first build case of the theorem, its sweep parameter flag turned
    # into a one-value sweep (polyNd takes H from its parameter document)
    case = next(c for c, a in BUILD_CASES.items() if a[1] == theorem)
    args = case_args(case, tmp_path)
    flag = "--" + THEOREMS[theorem].sweep_param
    value = str(POLY_ND_DOC["H"])
    if flag in args:
        i = args.index(flag)
        value = args.pop(i + 1)
        args.pop(i)
    path = tmp_path / "sweep.csv"
    assert run(["sweep"] + args + ["--values", value, "-o", str(path)]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["value"]) for r in rows] == [float(value)]


def _flags(parser):
    return set(parser._option_string_actions)


def test_cli_flags_come_from_the_registry():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if a.choices and "build" in
              a.choices]
    target = {"--target", "--domain", "--d", "--params", "--theorem",
              "-o", "--output", "-h", "--help"}
    theorem = {"--coeffs", "--H", "--N", "--N1", "--N2", "--k", "--r",
               "--delta", "--rho", "--kind"}
    assert _flags(parser) == {"-h", "--help"}
    assert _flags(sub.choices["build"]) == target | theorem
    assert _flags(sub.choices["sweep"]) == target | theorem | {
        "--p", "--param", "--values", "--range"}


def test_module_entry_point_exits_with_the_run_code(tmp_path):
    # main() hands run()'s code to sys.exit, as the relu3d command does
    out = build_square(tmp_path)
    src = str(Path(relu3d.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    ok = subprocess.run([sys.executable, "-m", "relu3d.cli", "size", str(out)],
                        env=env, capture_output=True, text=True)
    assert (ok.returncode, ok.stdout.split()[:2]) == (0, ["width", "8"])
    bad = subprocess.run([sys.executable, "-m", "relu3d.cli", "verify",
                          str(out), "--target", "square", "--bound", "nan"],
                         env=env, capture_output=True, text=True)
    assert bad.returncode == 2 and bad.stderr.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["verify", "sq.net", "--params", "ap.json", "--norm", "lp"],
    ["verify", "sq.net", "--params", "ap.json", "--norm", "sup"],
    ["sweep", "--theorem", "smooth", "--params", "ap.json", "--values", "3",
     "-o", "s.csv"],
    ["build", "--theorem", "lp", "--params", "ap.json", "--N1", "4",
     "--N2", "8", "-o", "lp.net"]],
    ids=["verify-lp", "verify-sup", "sweep", "build-lp"])
def test_a_singular_target_prints_one_error_line(tmp_path, args):
    # |x|^-1 on the symmetric cube: numpy warns of 1/0 and of inf - inf,
    # and an explicit check then refuses the non-finite value
    build_square(tmp_path)
    (tmp_path / "ap.json").write_text(json.dumps({"target": {
        "catalog_id": "abs-power", "domain": "sym-cube",
        "params": {"alpha": -1}}}))
    src = str(Path(relu3d.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "relu3d.cli"] + args,
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1, done.stderr


# target documents outside the contract: not an object, a dimension that is
# not a whole number >= 1, params that are not an object of finite numbers,
# a catalog id that is not a string
BAD_TARGETS = {
    "not-an-object": '"linear"',
    "dimension-string": '{"catalog_id": "linear", "dimension": "x"}',
    "dimension-null": '{"catalog_id": "linear", "dimension": null}',
    "dimension-overflow": '{"catalog_id": "linear", "dimension": 1e400}',
    "params-list": '{"catalog_id": "linear", "params": [1]}',
    "param-null": '{"catalog_id": "reciprocal-shift", "params": {"a": null}}',
    "param-string": '{"catalog_id": "cosine", "params": {"omega": "x"}}',
    "param-bool": '{"catalog_id": "cosine", "params": {"omega": true}}',
    "catalog-id-list": '{"catalog_id": ["linear"]}',
}
BAD_TARGET_VERBS = {
    "build": ["build", "--theorem", "smooth", "--N", "3", "-o", "x.net",
              "--params", "t.json"],
    "verify": ["verify", "sq.net", "--params", "t.json"],
    "sweep": ["sweep", "--theorem", "smooth", "--values", "3", "-o", "s.csv",
              "--params", "t.json"],
    "table1": ["table1", "--config", "t.json", "-o", "t.csv"],
}


@pytest.mark.parametrize("verb", sorted(BAD_TARGET_VERBS))
@pytest.mark.parametrize("case", sorted(BAD_TARGETS))
def test_a_malformed_target_document_is_usage_error(tmp_path, capsys,
                                                    monkeypatch, case, verb):
    build_square(tmp_path)
    monkeypatch.chdir(tmp_path)
    doc = ('[{"row": "ellipse", "N": 4, "rho": 4.0, "target": %s}]'
           if verb == "table1" else '{"target": %s}')
    (tmp_path / "t.json").write_text(doc % BAD_TARGETS[case])
    capsys.readouterr()
    assert run(BAD_TARGET_VERBS[verb]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("name", ["relu3d"] + sorted(
    f"relu3d.{m.name}" for m in pkgutil.iter_modules(relu3d.__path__)))
def test_every_exported_name_exists(name):
    # the package has no __all__: each public name it binds must be one
    # that a submodule exports
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        exported = [n for n, v in vars(module).items()
                    if not n.startswith("_") and not inspect.ismodule(v)]
        submodules = [importlib.import_module(f"relu3d.{m.name}")
                      for m in pkgutil.iter_modules(module.__path__)]
        assert set(exported) <= {n for m in submodules for n in m.__all__}
    assert len(exported) == len(set(exported))
    for n in exported:
        assert hasattr(module, n), n


def test_import_loads_no_scipy_quadrature_stack():
    # no scipy module loads at import: scipy.sparse waits for the first
    # compile of a net, scipy.integrate (with the optimize, special and
    # linalg modules it loads) for the first Gaussian-norm measurement
    src = str(Path(relu3d.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, relu3d, relu3d.cli; print(' '.join(sorted(m for m "
             "in sys.modules if m.split('.')[0] == 'scipy')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout.strip()) == (0, "")


# sha256 of the sq.net outputs on the 64 seeded points of the forward_sha
# fixture (conftest), recorded while relu3d.net imported scipy.sparse at
# module level
SQ_NET_FORWARD_SHA = \
    "945cb8cb6f8375806c9b9410836b51495a713dbbd63c82fee26ccd6cee0db65a"

SPARSE_PROBE = """
import hashlib, json, sys
import numpy as np
import relu3d, relu3d.cli

def sparse():
    return sorted(m for m in sys.modules if m.split('.')[:2] ==
                  ['scipy', 'sparse'])

out, seen = sys.argv[1], {}
seen['import'] = sparse()
seen['codes'] = [relu3d.cli.run(['build', '--theorem', 'poly', '--coeffs',
                                 '0,0,1', '--H', '6', '-o', out]),
                 relu3d.cli.run(['size', out])]
seen['build+size'] = sparse()
net = relu3d.deserialize(open(out).read())
pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(64, 1))
y = relu3d.evaluate_array(net, pts)
seen['sha'] = hashlib.sha256(y.tobytes()).hexdigest()
seen['evaluate'] = 'scipy.sparse' in sys.modules
print(json.dumps(seen))
"""


def test_build_and_size_load_no_scipy_sparse(tmp_path):
    # scipy.sparse waits for the first compile of a net, which the forward
    # pass does and build and size never do
    src = str(Path(relu3d.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", SPARSE_PROBE,
                           str(tmp_path / "sq.net")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {"import": [], "codes": [0, 0], "build+size": [],
                    "sha": SQ_NET_FORWARD_SHA, "evaluate": True}
