"""Scripts under scripts/: each main() runs end to end."""

import csv
import runpy
import sys
from pathlib import Path

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
