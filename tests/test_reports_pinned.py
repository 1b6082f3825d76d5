"""The n = 1 CLI reports, byte for byte, against the recorded references.

``fdbench/reference/<workload>/checks.json`` holds the exit code, the check
list and the names of the seed-free report tables of one CLI run; the
tables are stored next to it. These tests only read those files.
"""

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
