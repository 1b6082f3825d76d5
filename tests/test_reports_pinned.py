"""CLI reports, byte for byte, against the recorded references: every n = 1
table, and the cells of the fock:2 tables that come from grid volumes.

``fdbench/reference/<workload>/checks.json`` holds the exit code, the check
list and the names of the seed-free report tables of one CLI run; the
tables are stored next to it. These tests only read those files.
"""

import csv
import json
import re
from pathlib import Path

import pytest

from fockdual import cli, fenchel

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "fdbench" / "reference"

CASES = {
    "fock1_selftest": ["all", "--weight-preset", "fock:1", "--degree", "2"],
    "sep1_all": ["all", "--weight", str(ROOT / "fdbench" / "weights" / "sep1.json"),
                 "--degree", "8"],
}

_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+)")


@pytest.mark.parametrize("workload", sorted(CASES))
def test_n1_reports_match_the_recorded_ones(workload, tmp_path, monkeypatch, capsys):
    ref = json.loads((REFERENCE / workload / "checks.json").read_text(encoding="utf-8"))
    # an empty memo, as in a fresh process
    monkeypatch.setattr(fenchel, "_MEMO", {})
    code = cli.main(CASES[workload] + ["--out", str(tmp_path)])
    checks = [[m.group(2), m.group(1)]
              for m in map(_CHECK_LINE.match, capsys.readouterr().out.splitlines()) if m]
    assert code == ref["exit_code"]
    assert checks == ref["checks"]
    assert ref["tables"]
    for name in ref["tables"]:
        assert (tmp_path / name).read_bytes() == (REFERENCE / workload / name).read_bytes(), name


def _cells(path: Path, columns: list, check_id=None) -> list:
    """The named columns of a CSV table, as the strings written, of the rows
    of one check if ``check_id`` is given."""
    with path.open(newline="", encoding="utf-8") as fh:
        return [[row[c] for c in columns] for row in csv.DictReader(fh)
                if check_id is None or row["check_id"] == check_id]


def test_fock2_volume_cells_match_the_recorded_ones(tmp_path, monkeypatch):
    # The other fock:2 cells hold factored Laplace integrals, which differ
    # from the reference by roundoff; every cell computed from a grid volume
    # (the K-condition scan, the sandwich volume and its half width, the
    # Lemma 4 lower bound) is pinned byte for byte.
    ref = REFERENCE / "fock2_all"
    monkeypatch.setattr(fenchel, "_MEMO", {})
    for suite in ("sandwich", "moments", "duality"):
        code = cli.main([suite, "--weight-preset", "fock:2", "--degree", "8",
                         "--out", str(tmp_path)])
        assert code == 0, suite
    name = "duality_kscan.csv"
    assert (tmp_path / name).read_bytes() == (ref / name).read_bytes()
    cols = ["y_1", "y_2", "volume", "half_width"]
    got = _cells(tmp_path / "sandwich_table.csv", cols)
    assert got and got == _cells(ref / "sandwich_table.csv", cols)
    cols = ["alpha_1", "alpha_2", "bound_ln"]
    got = _cells(tmp_path / "moments_checks_detail.csv", cols, "lemma4")
    assert len(got) == 45
    assert got == _cells(ref / "moments_checks_detail.csv", cols, "lemma4")
