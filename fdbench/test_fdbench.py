"""Self-test of the benchmark on the fast ``fock1_selftest`` workload
(``fockdual all --weight-preset fock:1 --degree 2``).

    python3 -m pytest -q fdbench/test_fdbench.py
"""

import contextlib
import importlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, span_totals  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MODULES = ("_scan", "fenchel", "laplace", "moments", "duality", "cli")


def _bench(*args, bench_dir=BENCH):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), *args],
        cwd=bench_dir.parent, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, group):
    proc = _bench("--workload", "fock1_selftest", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
    wanted = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for name, unit in wanted.items():
        pattern = re.compile(rf"^{re.escape(name)} = \S+ {re.escape(unit)}\b")
        assert any(pattern.match(line) for line in lines), name
    for name in ("ops_failed_frac", "report_drift"):
        assert any(line.startswith(f"{name} = 0.0 ") for line in lines), name


def test_spans_nest_and_wrappers_are_removed(tmp_path):
    mods = [importlib.import_module(f"fockdual.{m}") for m in MODULES]
    cli = mods[-1]
    before = [dict(vars(m)) for m in mods] + [dict(cli._COMMANDS)]
    tracer = Tracer("selftest")
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.run_span("cli.main", cli.main, run.WORKLOADS["fock1_selftest"]
                                   + ["--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    after = [dict(vars(m)) for m in mods] + [dict(cli._COMMANDS)]
    for old, new in zip(before, after):
        assert all(new[k] is v for k, v in old.items())

    export = tracer.export()
    assert set(export["reached"]) == set(export["aliases"])
    spans = export["spans"]
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] == -1
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]
    totals = span_totals(spans)
    assert {f"cli.{s}" for s in run.SUITES} <= set(totals)
    assert all(t["self_s"] >= 0 for t in totals.values())


def test_perturbed_reference_cell_gives_drift(tmp_path):
    ref, ref_dir = reference.load("fock1_selftest")
    assert reference.report_drift(ref_dir, ref_dir, ref["tables"]) == 0.0
    perturbed = tmp_path / "ref"
    shutil.copytree(ref_dir, perturbed)
    table = perturbed / "moments_table.csv"
    lines = table.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[-2] = repr(float(cells[-2]) * (1 + 1e-3))  # ln_value of the first moment
    lines[1] = ",".join(cells)
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    drift = reference.report_drift(ref_dir, perturbed, ref["tables"])
    assert drift == pytest.approx(1e-3, rel=1e-2)


def test_flipped_reference_verdict_is_one_failed_operation():
    ref, _ = reference.load("fock1_selftest")
    checks = ref["checks"]
    flipped = list(checks)
    flipped[3] = (flipped[3][0], "FAIL")
    assert reference.score_checks(checks, checks) == (len(checks), 0)
    assert reference.score_checks(checks, flipped) == (len(checks), 1)
    # a suite that exits early fails every check it did not report
    assert reference.score_checks(checks[:5], checks) == (len(checks), len(checks) - 5)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "fock2_all", "--seed", "0", "--seconds", "1",
                  "--trace", "0", bench_dir=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert proc.stdout == ""
