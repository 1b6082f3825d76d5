"""Exit codes, report artifacts, determinism, and the expected-fail fixture."""

import csv
import filecmp
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fockdual as fd
from fockdual import cli, fenchel, laplace, moments
from fockdual.config import CONJ_STEP, by_dim
from fockdual.fenchel import GridAxis, SampledFunction

SEP1 = Path(__file__).resolve().parents[1] / "fdbench" / "weights" / "sep1.json"


def run_cli(args):
    return cli.main(args)


def _src_env() -> dict:
    """This environment with the package's source tree first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_conjugate_fock_passes(tmp_path):
    assert run_cli(["conjugate", "--weight-preset", "fock:1",
                    "--out", str(tmp_path)]) == 0
    assert (tmp_path / "conjugate_dual_table.csv").exists()
    assert (tmp_path / "conjugate_log_dual_table.csv").exists()
    checks = (tmp_path / "conjugate_checks.csv").read_text()
    assert "closed_form_match,true" in checks


def test_conjugate_power_table(tmp_path):
    assert run_cli(["conjugate", "--weight-preset", "power:4:1",
                    "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "conjugate_dual_table.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[:2] == ["y_1", "value"]
    # phi* = (3/4) y^{4/3}: spot check the last node y = 4
    last = rows[-1].split(",")
    assert float(last[1]) == pytest.approx(0.75 * 4 ** (4 / 3), abs=1e-5)


def test_malformed_weight_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["conjugate", "--weight", str(bad),
                    "--out", str(tmp_path / "out")]) == 2
    missing = tmp_path / "missing.json"
    assert run_cli(["moments", "--weight", str(missing),
                    "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("spec", [
    {"n": 1, "terms": [{"type": "power", "p": "x", "coef": 1}]},
    {"n": 1, "terms": [{"type": "power", "p": None, "coef": 1}]},
    {"n": True, "terms": [{"type": "power", "p": 2, "coef": 1}]},
    # the dual coefficient 1e-300 ** -2 overflows
    {"n": 1, "terms": [{"type": "power", "p": 1.5, "coef": 1e-300}]},
])
def test_bad_term_or_dimension_exits_2(tmp_path, capsys, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert run_cli(["moments", "--weight", str(path), "--degree", "2",
                    "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("fields, name", [
    ('"p": "2", "coef": 1', "p"),
    ('"p": 2, "coef": true', "coef"),
    ('"p": "inf", "coef": 1', "p"),
    ('"p": 2, "coef": "nan"', "coef"),
    ('"p": 1e400, "coef": 1', "p"),
    ('"p": 2, "coef": 1' + "0" * 400, "coef"),
], ids=["p-string", "coef-bool", "p-inf-string", "coef-nan-string", "p-1e400", "coef-huge-int"])
def test_term_field_must_be_a_finite_number(tmp_path, capsys, fields, name):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "terms": [{"type": "power", %s}]}' % fields)
    assert run_cli(["moments", "--weight", str(path), "--degree", "2",
                    "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: term {name!r} must be a finite number")


def test_csv_columns_format_as_cells(tmp_path):
    rows = [(1.5, np.float64(0.1), True, np.bool_(False), 3, "a,b", np.float32(0.5), 1.0),
            (-0.0, np.float64(2e-300), False, np.bool_(True), 4, "c", 7, np.float64(1 / 3))]
    header = [f"c{j}" for j in range(len(rows[0]))]
    path = cli.write_table(tmp_path, "t", header, rows, "csv")
    with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([cli._fmt_cell(v) for v in row] for row in rows)
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_sublinear_weight_exits_2(tmp_path):
    spec = tmp_path / "linear.json"
    spec.write_text(json.dumps(
        {"n": 1, "terms": [{"type": "power", "p": 1.0, "coef": 1.0}]}
    ))
    assert run_cli(["sandwich", "--weight", str(spec),
                    "--out", str(tmp_path / "out")]) == 2


def test_numeric_failure_exits_3(tmp_path, capsys):
    # a valid weight whose numeric dual cannot be conjugated: a failure of
    # the numerics, not of the command line (the radial term, p != 2, is
    # not separable)
    spec = tmp_path / "p3.json"
    spec.write_text(json.dumps({"n": 2, "terms": [{"type": "power", "p": 4, "coef": 0.25},
                                                  {"type": "radial_power", "p": 3, "coef": 1}]}))
    assert run_cli(["identities", "--weight", str(spec),
                    "--out", str(tmp_path / "out")]) == 3
    assert "objective does not decay" in capsys.readouterr().err


def test_float_overflow_exits_3(tmp_path, capsys, monkeypatch):
    # an overflow is a numeric failure (3), never "a check failed" (1)
    def overflow(*args, **kw):
        raise OverflowError("math range error")

    monkeypatch.setattr(moments, "moment_table", overflow)
    assert run_cli(["moments", "--weight-preset", "fock:1",
                    "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "error: math range error\n"


def test_radial_p2_weight_reports_as_fock2(tmp_path):
    # c ||x||^2 / 2 = sum_j c x_j^2 / 2: the weight takes fock:2's separable
    # paths; only the label-gated fock_oracle row tells the reports apart
    spec = tmp_path / "r2.json"
    spec.write_text(json.dumps({"n": 2, "terms": [{"type": "radial_power", "p": 2, "coef": 1}]}))
    radial, fock = tmp_path / "radial", tmp_path / "fock"
    assert run_cli(["all", "--weight", str(spec), "--degree", "4", "--out", str(radial)]) == 0
    assert run_cli(["all", "--weight-preset", "fock:2", "--degree", "4",
                    "--out", str(fock)]) == 0
    names = sorted(p.name for p in fock.iterdir())
    assert names == sorted(p.name for p in radial.iterdir())
    for name in names:
        want = (fock / name).read_bytes()
        if name in ("moments_checks.csv", "summary.csv"):
            want = b"".join(line for line in want.splitlines(keepends=True)
                            if b"fock_oracle" not in line)
            assert want != (fock / name).read_bytes()
        assert (radial / name).read_bytes() == want, name


def test_volume_grid_without_members_exits_3(tmp_path, capsys, monkeypatch):
    # two cells per axis: the fock:3 sublevel set lies between the cell centres
    seam = laplace._sublevel_volume
    monkeypatch.setattr(laplace, "_sublevel_volume",
                        lambda spec, resolution, seed: seam(spec, 2, seed))
    monkeypatch.setattr(fenchel, "_MEMO", {})
    assert run_cli(["sandwich", "--weight-preset", "fock:3",
                    "--out", str(tmp_path / "out")]) == 3
    assert "holds no cell centre of the volume grid" in capsys.readouterr().err


def test_sandwich_reports_do_not_depend_on_the_seed(tmp_path, monkeypatch):
    # at n = 4 every volume is Monte-Carlo, drawn from one fixed stream
    monkeypatch.setattr(laplace, "MC_SAMPLES", 2_000)
    tables = []
    for seed in ("0", "7"):
        monkeypatch.setattr(fenchel, "_MEMO", {})
        out = tmp_path / seed
        code = run_cli(["sandwich", "--weight-preset", "fock:4", "--seed", seed,
                        "--out", str(out)])
        assert code in (0, 1)
        tables.append((out / "sandwich_table.csv").read_bytes())
    assert tables[0] == tables[1]


_TOL = "--tol-identity must be a finite positive tolerance"


@pytest.mark.parametrize("option,value,message", [
    pytest.param("--seed", "-1", "--seed must be nonnegative", id="seed--1"),
    pytest.param("--tol-identity", "nan", _TOL, id="tol-nan"),
    pytest.param("--tol-identity", "inf", _TOL, id="tol-inf"),
    pytest.param("--tol-identity", "0", _TOL, id="tol-0"),
    pytest.param("--tol-identity", "-1", _TOL, id="tol--1"),
])
def test_bad_seed_or_tolerance_is_a_usage_error(tmp_path, capsys, option, value, message):
    # a bad run option exits 2 before any suite starts
    assert run_cli(["sandwich", "--weight-preset", "fock:1", option, value,
                    "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# each option with a value and the RunConfig field it sets
_OPTIONS = [
    ("--weight", "w.json", "weight_path", "w.json"),
    ("--weight-preset", "fock:2", "weight_preset", "fock:2"),
    ("--degree", "3", "max_degree", 3),
    ("--out", "o", "out_dir", "o"),
    ("--format", "json", "fmt", "json"),
    ("--seed", "4", "seed", 4),
    ("--refine", None, "refine", 1),
    ("--tol-identity", "1e-6", "tol_identity", 1e-6),
]


@pytest.mark.parametrize("option,value,field,parsed", _OPTIONS, ids=[o[0] for o in _OPTIONS])
@pytest.mark.parametrize("command", [*cli._COMMANDS, "all"])
def test_every_command_accepts_each_option(command, option, value, field, parsed):
    parser = cli.build_parser()
    opts = vars(parser.parse_args([command, option] + ([] if value is None else [value])))
    default = vars(parser.parse_args([command]))
    assert opts["command"] == command
    assert {k for k in opts if opts[k] != default[k]} == {field} and opts[field] == parsed
    opts.pop("command")
    assert getattr(cli.RunConfig(**opts), field) == parsed


def test_parser_options_are_the_run_config_fields():
    dests = [a.dest for a in cli.build_parser()._actions if a.option_strings and a.dest != "help"]
    assert sorted(dests) == sorted(cli.RunConfig._fields)


@pytest.mark.parametrize("argv", [[], ["bogus"], ["all", "--format", "xml"]],
                         ids=["no-command", "unknown-command", "bad-format"])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_face_probe_past_the_node_budget_exits_3(tmp_path, capsys):
    # one face of the sublevel bounding box at n = 9 holds 2 * 17^8 nodes
    assert run_cli(["moments", "--weight-preset", "fock:9", "--degree", "1",
                    "--out", str(tmp_path)]) == 3
    assert "face probe needs 13951514882 nodes" in capsys.readouterr().err
    # the moment table is written after the checks, so a failed run leaves none
    assert list(tmp_path.glob("moments_table.*")) == []


@pytest.mark.parametrize("n,degree", [(1, 8), (2, 4)])
def test_small_coefficient_quadratic_passes_every_check(tmp_path, n, degree):
    # 0.05 ||x||^2 / 2 is in the class; class_v measures growth relative to
    # the inner radius, so a small coefficient passes
    spec = tmp_path / "w.json"
    spec.write_text(json.dumps({"n": n, "terms": [{"type": "power", "p": 2, "coef": 0.05}]}))
    assert run_cli(["all", "--weight", str(spec), "--degree", str(degree),
                    "--out", str(tmp_path / "out")]) == 0
    assert "class_v,true" in (tmp_path / "out" / "conjugate_checks.csv").read_text()


def test_identities_and_sandwich_pass(tmp_path):
    assert run_cli(["identities", "--weight-preset", "fock:1", "--refine",
                    "--out", str(tmp_path)]) == 0
    text = (tmp_path / "identities_checks.csv").read_text()
    assert "refine_shrink,true" in text
    assert run_cli(["sandwich", "--weight-preset", "fock:1",
                    "--out", str(tmp_path)]) == 0
    table = (tmp_path / "sandwich_table.csv").read_text().splitlines()
    assert len(table) == 10  # header + 9 probe points
    assert all(line.endswith("true") for line in table[1:])


def test_identities_nonconvex_expected_fail(tmp_path, nonconvex_double):
    run = cli.RunConfig(out_dir=str(tmp_path))
    cfg = fd.NumericsConfig(run.refine)
    result = cli.cmd_identities(nonconvex_double, cfg, run)
    checks = dict((c, ok) for c, ok, _ in result.checks)
    assert checks["prop3"]
    assert not checks["prop6_7"]
    assert not result.passed


def test_refine_refines_a_numeric_dual(tmp_path):
    # sep1 has no closed-form dual; its numeric dual samples at the refined step
    nodes, _, _ = fenchel._NumericDual(fd.weight_from_json(SEP1),
                                       fd.DEFAULT.refined())._table(2.0)
    assert nodes[1] - nodes[0] <= by_dim(CONJ_STEP, 1) / 2
    assert run_cli(["identities", "--weight", str(SEP1), "--refine",
                    "--out", str(tmp_path)]) == 0
    assert "refine_shrink,true" in (tmp_path / "identities_checks.csv").read_text()


def test_moments_and_duality_pass(tmp_path):
    assert run_cli(["moments", "--weight-preset", "fock:1", "--degree", "6",
                    "--out", str(tmp_path)]) == 0
    table = fd.MomentTable.from_csv(tmp_path / "moments_table.csv")
    assert table.n == 1 and table.max_degree == 6
    assert run_cli(["duality", "--weight-preset", "fock:1", "--degree", "6",
                    "--out", str(tmp_path)]) == 0
    kscan = (tmp_path / "duality_kscan.csv").read_text().splitlines()
    assert kscan[0] == "alpha_1,product"
    assert len(kscan) == 7


def test_fock4_moments_exit_0(tmp_path):
    # separable Laplace integrals factor over the axes, so no 4-D tensor grid
    assert run_cli(["moments", "--weight-preset", "fock:4", "--degree", "1",
                    "--out", str(tmp_path)]) == 0


def _calls_to(monkeypatch, name):
    calls = []
    original = getattr(fd.duality, name)
    monkeypatch.setattr(fd.duality, name,
                        lambda c, *args, **kw: calls.append(c) or original(c, *args, **kw))
    return calls


@pytest.mark.parametrize("name", ["forward_map", "inverse_map", "isomorphism_bound_check"])
def test_all_calls_each_map_and_the_bound_check_once(tmp_path, monkeypatch, name):
    # nothing is sampled: the bounds are decided from the two tables in one
    # call, and the round trip maps one dense sequence, every index nonzero
    calls = _calls_to(monkeypatch, name)
    assert run_cli(["all", "--weight-preset", "fock:1", "--degree", "2",
                    "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    if name == "isomorphism_bound_check":
        assert isinstance(calls[0], fd.MomentTable) and calls[0].max_degree == 2
    else:
        assert calls[0].re.shape == (3,) and np.all(calls[0].re != 0)


def _report_cells(path: Path) -> dict:
    with path.open(newline="", encoding="utf-8") as fh:
        return {row[0]: row[1:] for row in csv.reader(fh)}


def test_norm_past_the_float_range_decides(tmp_path, capsys):
    # ln r_alpha = ln c + ln c* - 2 ln alpha! stays finite where the norms of
    # fock:1 at degree 200 pass e^709, so the bounds decide. The Stirling
    # envelope fails at this degree (its margin meets the sup error): exit 1
    code = run_cli(["duality", "--weight-preset", "fock:1", "--degree", "200",
                    "--out", str(tmp_path)])
    assert code in (0, 1)
    assert capsys.readouterr().err == ""
    bounds = _report_cells(tmp_path / "duality_bounds.csv")
    assert bounds.pop("alpha_1") == ["ln_r"] and len(bounds) == 201
    assert all(math.isfinite(float(ln_r)) for ln_r, in bounds.values())
    checks = _report_cells(tmp_path / "duality_checks.csv")
    assert checks["bounds_forward"][0] == checks["bounds_inverse"][0] == "true"


@pytest.mark.parametrize("preset", ["power:1.5:1", "power:3:1"])
def test_map_scale_past_the_float_range_decides(tmp_path, capsys, preset):
    # at degree 460 c_alpha / alpha! passes the float range on 40 indices:
    # upward on power:1.5:1 (and on the dual table of power:3:1), downward on
    # power:3:1. The bounds decide from the logs; the round trip and the
    # second formula of ln r_alpha run on the rest and name what they skip
    code = run_cli(["duality", "--weight-preset", preset, "--degree", "460",
                    "--out", str(tmp_path)])
    assert code in (0, 1)
    assert capsys.readouterr().err == ""
    checks = _report_cells(tmp_path / "duality_checks.csv")
    assert checks["bounds_forward"][0] == checks["bounds_inverse"][0] == "true"
    for check_id in ("roundtrip_ulp", "norm_identity_consistency"):
        assert checks[check_id][0] == "true"
        assert checks[check_id][1].endswith(", skipped=40 indices past the float range")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fenchel_young_all_pairs_bound_the_sampled_probes(n, fenchel_young_loop,
                                                          conjugate_bruteforce):
    # the conjugate suite's grid sizes; a dual step that is not a binary
    # fraction, so that each x . xi rounds. The worst gap over every pair is
    # the brute-force conjugate's excess over the grid conjugate, and no
    # seeded probe exceeds it (up to the rounding of a per-axis sum)
    counts, dual_counts = {1: (321, 257), 2: (97, 65), 3: (25, 17)}[n]
    primal = tuple(GridAxis(-6.0, 6.0, counts) for _ in range(n))
    nodes = [a.nodes() for a in primal]
    sym = fenchel.symmetrized_fn(fd.make_separable_power(n, 3.0))
    for f in (SampledFunction(primal, sym.on_axes(nodes)),
              SampledFunction.separable(primal, [p(a) for p, a in zip(sym.axis_profiles, nodes)])):
        conj = fenchel.conjugate_nd(f, [GridAxis(-7.3, 7.3, dual_counts)] * n)
        worst = cli._fenchel_young_gap(f, conj)
        brute = np.max(conjugate_bruteforce(f, conj.axes) - conj.values)
        assert worst == pytest.approx(brute, rel=0, abs=1e-12)
        assert abs(worst) <= 1e-10
        # a conjugate too low by delta_j on axis j raises every gap by their sum
        delta = [0.1 * (j + 1) for j in range(n)]
        low = (SampledFunction(conj.axes, conj.values - sum(delta)) if f.parts is None else
               SampledFunction.separable(conj.axes, [c - d for c, d in zip(conj.parts, delta)]))
        assert cli._fenchel_young_gap(f, low) == pytest.approx(worst + sum(delta), abs=1e-12)
        for seed in range(5):
            assert worst >= max(fenchel_young_loop(f, conj, seed)) - 1e-12


def test_all_never_imports_numpy_random(tmp_path):
    # every check of `all` is exact for a weight with terms at n <= 3, so no
    # suite draws and numpy.random (eleven extension modules) never loads.
    # numpy 2 loads it lazily, on first use; numpy 1.x loads it with itself,
    # so the run is held to the modules `import numpy` loaded (none on 2.x)
    script = (
        "import sys\n"
        "import numpy\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('numpy.random'))\n"
        "print(loaded())\n"
        "from fockdual import cli\n"
        "for i, weight in enumerate(sys.argv[2:]):\n"
        "    option = '--weight' if weight.endswith('.json') else '--weight-preset'\n"
        "    code = cli.main(['all', option, weight, '--degree', '2',\n"
        "                     '--out', f'{sys.argv[1]}/{i}'])\n"
        "    assert code == 0, weight\n"
        "print(loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), "fock:2",
                           str(SEP1), "power:3:2"],
                          env=_src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == lines[0], proc.stdout


def test_json_format(tmp_path):
    assert run_cli(["sandwich", "--weight-preset", "fock:1", "--format", "json",
                    "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "sandwich_table.json").read_text())
    assert isinstance(payload, list) and len(payload) == 9
    assert all(row["verdict"] is True for row in payload)


def _csv_cell(v) -> str:
    """A JSON cell as the CSV report writes it: bools as true/false, floats
    by their shortest repr (so the two agree when they hold one value)."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


def test_json_tables_match_their_csv_twins(tmp_path):
    for fmt in ("csv", "json"):
        assert run_cli(["all", "--weight-preset", "fock:1", "--degree", "2",
                        "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
    stems = sorted(p.stem for p in (tmp_path / "csv").iterdir())
    assert stems == sorted(p.stem for p in (tmp_path / "json").iterdir())
    assert len(stems) == 16
    for stem in stems:
        with (tmp_path / "csv" / f"{stem}.csv").open(newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        payload = json.loads((tmp_path / "json" / f"{stem}.json").read_text())
        if stem == "moments_table":
            assert list(payload) == ["phi_label", "n", "max_degree", "entries"]
            assert (payload["phi_label"], payload["n"], payload["max_degree"]) == \
                ("fock:1", 1, 2)
            payload = [{"alpha_1": e["alpha"][0], "value": e["value"],
                        "ln_value": e["ln_value"], "rel_error": e["rel_error"]}
                       for e in payload["entries"]]
        assert len(payload) == len(rows), stem
        for obj, row in zip(payload, rows):
            assert list(obj) == header, stem
            assert [_csv_cell(v) for v in obj.values()] == row, stem


def test_all_deterministic(tmp_path, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        # each run starts from an empty memo, as a fresh process does
        monkeypatch.setattr(fenchel, "_MEMO", {})
        assert run_cli(["all", "--weight-preset", "fock:1", "--degree", "5",
                        "--seed", "0", "--out", str(out)]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, files_a, shallow=False)
    assert not mismatch and not errors
    assert (out_a / "summary.csv").exists()


def test_seed_changes_no_report(tmp_path, monkeypatch):
    # no check draws: every report of `all` is byte-identical across seeds;
    # --seed stays an option for the callers that pass it
    outs = [tmp_path / "s0", tmp_path / "s1"]
    for seed, out in enumerate(outs):
        monkeypatch.setattr(fenchel, "_MEMO", {})
        assert run_cli(["all", "--weight-preset", "fock:2", "--degree", "4",
                        "--seed", str(seed), "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert len(names) == 16 and names == sorted(p.name for p in outs[1].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(*outs, names, shallow=False)
    assert not mismatch and not errors


def test_exit_hook_leaves_an_in_process_caller_unfrozen(tmp_path):
    # the heap is frozen by an exit hook, never by main() itself
    assert run_cli(["all", "--weight-preset", "fock:1", "--degree", "2",
                    "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == 0 and gc.isenabled()


def test_exit_hook_freezes_the_heap_at_exit():
    # exit hooks run last-registered first: one registered before cli is
    # imported runs after the cli's, and finds the heap frozen
    script = ("import atexit, gc\n"
              "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
              "from fockdual import cli\n"
              "print(gc.get_freeze_count() > 0)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_cli_process_writes_the_in_process_reports(tmp_path, monkeypatch):
    proc = subprocess.run([sys.executable, "-m", "fockdual.cli", "all", "--weight-preset",
                           "fock:1", "--degree", "2", "--out", str(tmp_path / "process")],
                          env=_src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setattr(fenchel, "_MEMO", {})
    assert run_cli(["all", "--weight-preset", "fock:1", "--degree", "2",
                    "--out", str(tmp_path / "in_process")]) == 0
    names = sorted(p.name for p in (tmp_path / "process").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "in_process").iterdir()) and names
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "process", tmp_path / "in_process",
                                               names, shallow=False)
    assert not mismatch and not errors


def test_python_m_fockdual_writes_the_module_cli_reports(tmp_path):
    outs = []
    for module in ("fockdual", "fockdual.cli"):
        out = tmp_path / module
        proc = subprocess.run([sys.executable, "-m", module, "all", "--weight-preset", "fock:1",
                               "--degree", "2", "--out", str(out)],
                              env=_src_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir()) and names
    match, mismatch, errors = filecmp.cmpfiles(*outs, names, shallow=False)
    assert not mismatch and not errors


def test_out_naming_a_file_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli(["sandwich", "--weight-preset", "fock:1", "--out", str(taken)]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no check ran
    assert err.startswith(f"error: --out {taken}: ") and "Traceback" not in err
    assert taken.read_text() == ""


def test_k_condition_over_no_index_says_so(tmp_path):
    # at degree 1 no index of fock:2 has every component >= 1
    for degree, detail in (("1", "K_hat=1.0, scanned=0 indices"), ("2", "K_hat=")):
        out = tmp_path / degree
        assert run_cli(["duality", "--weight-preset", "fock:2", "--degree", degree,
                        "--out", str(out)]) == 0
        rows = list(csv.reader((out / "duality_checks.csv").read_text().splitlines()))
        (row,) = [r for r in rows if r[0] == "k_condition"]
        assert row[2].startswith(detail) and ("scanned" in row[2]) == (degree == "1")
