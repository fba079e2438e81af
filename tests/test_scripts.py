"""The paper's workloads end to end: scripts/run_sweeps.py, the
`relu3d table1` command and the README's Python examples."""

import csv
import hashlib
import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import relu3d
from relu3d.builders import THEOREMS, build_trig
from relu3d.cli import run
from relu3d.net import serialize
from relu3d.verify import SweepRow, SweepTable

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"

# sha256 of the size-comparison CSV and of the repr of the list of sweep
# calls (theorem, swept parameter, values, repr of the fixed parameters)
TABLE1_CSV_SHA = \
    "ba84940eddf458ae541c202612f43a6211b21164e210c853acb7149ecc1370a3"
SWEEP_CALLS_SHA = \
    "e0a3280cb62e61d28a656c23dcc21b9a7d6fb4469b75c2895f1101fbc0b1a1d1"


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_make_table1_writes_every_row(tmp_path, capsys):
    out = tmp_path / "table1.csv"
    assert run(["table1", "-o", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 13
    assert {r["row"] for r in rows} == {"poly", "analytic-cube", "ellipse",
                                        "hermite"}
    assert f"wrote {out}" in capsys.readouterr().out
    assert _sha(out.read_bytes()) == TABLE1_CSV_SHA


@pytest.mark.parametrize("measured, code", [(1.0 + 5e-10, 0), (1.0 + 1e-8, 1)])
def test_run_sweeps_applies_the_pass_slack(measured, code, tmp_path,
                                           monkeypatch, capsys):
    # every theorem's sweep gives one row measuring `measured` against 1.0
    def fake_sweep(theorem, values, fixed, csv_path=None):
        return SweepTable(parameter="N", rows=[SweepRow(
            value=2.0, measured=measured, bound=1.0, param_count=1,
            width=1, depth=1, height=1)])

    monkeypatch.setattr(relu3d, "sweep", fake_sweep)
    monkeypatch.setattr(sys, "argv", ["run_sweeps.py", str(tmp_path)])
    main = runpy.run_path(str(SCRIPTS / "run_sweeps.py"))["main"]
    assert main() == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    for line in lines:
        assert line.endswith("BOUND FAILURES at [2.0]" if code else "ok")


@pytest.mark.parametrize("refusal, shift, code", [
    ("the chain's float rounding of 1e-13 exceeds", 0.0, 0),
    ("error budget must be positive", 0.0, 1),
    ("the chain's float rounding of 1e-13 exceeds", 1.0, 1)],
    ids=["refused", "wrong-refusal", "over-bound"])
def test_check_chain_limits_flags_a_wrong_refusal_or_a_missed_bound(
        refusal, shift, code, capsys):
    # one build (a trig net within 2^-8) at the first degree, then a refusal
    script = runpy.run_path(str(SCRIPTS / "check_chain_limits.py"))
    rep = build_trig(1, 8)

    def build(n):
        if n > script["FIRST"]:
            raise ValueError(refusal)
        return rep

    target = lambda p: np.cos(np.pi * p[:, 0]) + shift
    assert script["check"]("cos", build, target, (-1.0, 1.0)) == code
    assert capsys.readouterr().out.startswith("cos: ")


def test_run_sweeps_makes_the_paper_sweeps(tmp_path, monkeypatch):
    calls = []

    def fake_sweep(theorem, values, fixed, csv_path=None):
        if isinstance(values, tuple) and isinstance(values[0], str):
            name, values = values
        else:
            name = THEOREMS[theorem].sweep_param
        calls.append((theorem, name, list(values), repr(fixed)))
        return SweepTable(parameter=name, rows=[SweepRow(
            value=1.0, measured=0.5, bound=1.0, param_count=1,
            width=1, depth=1, height=1)])

    monkeypatch.setattr(relu3d, "sweep", fake_sweep)
    monkeypatch.setattr(sys, "argv", ["run_sweeps.py", str(tmp_path)])
    main = runpy.run_path(str(SCRIPTS / "run_sweeps.py"))["main"]
    assert main() == 0
    assert len(calls) == 7
    assert _sha(repr(calls).encode()) == SWEEP_CALLS_SHA


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    spaces = []
    for block in blocks:
        spaces.append({})
        exec(compile(block, str(README), "exec"), spaces[-1])
    smooth, registry = spaces   # the sup_error and the THEOREMS examples
    assert smooth["report"].passed
    assert capsys.readouterr().out.split()[-1] == "True"
    assert serialize(registry["rep"].net) == \
        serialize(build_trig(3, 10, kind="cos").net)
