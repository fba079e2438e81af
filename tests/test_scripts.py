"""Scripts under scripts/: each main() runs end to end."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

import relu3d
from relu3d.verify import SweepRow, SweepTable

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_make_table1_writes_every_row(tmp_path, monkeypatch, capsys):
    out = tmp_path / "table1.csv"
    monkeypatch.setattr(sys, "argv", ["make_table1.py", str(out)])
    main = runpy.run_path(str(SCRIPTS / "make_table1.py"))["main"]
    assert main() == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 13
    assert {r["row"] for r in rows} == {"poly", "analytic-cube", "ellipse",
                                        "hermite"}
    assert f"wrote {out}" in capsys.readouterr().out


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
