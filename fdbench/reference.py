"""Reference outputs of each workload and the checks a run is held to.

``reference/<workload>/checks.json`` holds the CLI's exit code, its check
list with verdicts, and the names of the report tables that do not depend
on ``--seed``; those tables are stored next to it as recorded.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Largest report_drift a correct run may show. Reports are byte-identical
# today (drift 0); this admits last-digit changes from reordered floating
# point arithmetic and nothing the size of a numerical error budget.
DRIFT_TOLERANCE = 1e-6

# Numbers below this magnitude (residuals at rounding level, truncation
# error estimates) are compared absolutely, on this scale.
DRIFT_FLOOR = 1e-9

# Report tables that read --seed: the Fenchel-Young probes of the conjugate
# suite and the random coefficient sequences of the duality suite. (The
# sandwich suite passes the seed to Monte-Carlo volumes, used only for n > 3.)
SEED_TABLES = ("conjugate_checks.csv", "duality_bounds.csv", "duality_checks.csv")

_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+)")
_NUMBER = re.compile(
    r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def parse_checks(stdout: str) -> list:
    """The ``[PASS] suite:check`` lines the CLI prints, as (check, verdict)."""
    out = []
    for line in stdout.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            out.append((m.group(2), m.group(1)))
    return out


def score_checks(reported: list, reference: list) -> tuple:
    """(attempted, failed) operations of one run.

    An operation is one check of the reference or of the run. It fails when
    it reads FAIL, when its verdict differs from the reference, or when the
    run never reported it (a suite that exited early).
    """
    ref = dict(reference)
    got = dict(reported)
    ids = list(ref) + [c for c in got if c not in ref]
    failed = sum(
        1 for c in ids
        if got.get(c) != "PASS" or ref.get(c) != got.get(c)
    )
    return len(ids), failed


def _cell_drift(a: str, b: str) -> float:
    """Largest relative deviation between the numbers of two report cells.

    Cells whose text differs outside their numbers cannot be compared and
    give ``inf``. Deviations are relative to the larger magnitude, or to
    ``DRIFT_FLOOR`` when both are smaller; equal cells give 0.
    """
    if a == b:
        return 0.0
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return math.inf
    worst = 0.0
    for x, y in zip(map(float, _NUMBER.findall(a)), map(float, _NUMBER.findall(b))):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y), DRIFT_FLOOR)
        worst = max(worst, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    return worst


def _rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def report_drift(out_dir: Path, ref_dir: Path, tables: list) -> float:
    """Largest relative deviation of any cell of ``tables`` from the reference.

    0 when every table is byte-identical; ``inf`` when a table is missing
    or its shape or text differs.
    """
    worst = 0.0
    for name in tables:
        got_path = out_dir / name
        if not got_path.is_file():
            return math.inf
        if got_path.read_bytes() == (ref_dir / name).read_bytes():
            continue
        got, ref = _rows(got_path), _rows(ref_dir / name)
        if len(got) != len(ref) or any(len(g) != len(r) for g, r in zip(got, ref)):
            return math.inf
        for g_row, r_row in zip(got, ref):
            for g, r in zip(g_row, r_row):
                worst = max(worst, _cell_drift(g, r))
    return worst


def load(workload: str) -> tuple:
    """(reference dict, directory of its tables) for one workload."""
    ref_dir = REFERENCE_DIR / workload
    ref = json.loads((ref_dir / "checks.json").read_text(encoding="utf-8"))
    ref["checks"] = [tuple(c) for c in ref["checks"]]
    return ref, ref_dir
