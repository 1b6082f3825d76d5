"""Command-line verification surface.

One subcommand per library module plus ``all``; each runs that module's
checks on the configured weight and writes CSV or JSON reports. Exit code
0 means every check passed, 1 means a check failed, 2 means the
configuration or usage was invalid, 3 means the numerics failed (an
objective that does not decay, a float overflow, a grid-size guard).
Reports are deterministic: same config and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import gc
import itertools
import json
import math
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import duality, fenchel, laplace, moments, weights
from .config import REFINE_SHRINK, T_FLOOR, TOL_IDENTITY, NumericsConfig
from .fenchel import GridAxis, SampledFunction
from .weights import WeightFunction, WeightSpecError

# scattered probe values (generic offsets avoid accidental grid alignment)
_PROBES_1D = [
    0.0, 0.137, 0.271, 0.31, 0.5, 0.618, 0.731, 0.9, 1.0, 1.234, 1.37, 1.5,
    1.62, 1.81, 2.0, 2.236, 2.41, 2.555, 2.718, 2.89, 3.0, 3.14, 3.37, 3.61, 3.8,
]
_PROBES_AXIS_2D = [0.0, 0.731, 1.37, 2.41, 3.14]
_PROBES_AXIS_3D = [0.0, 1.0, 2.41]


class RunConfig(namedtuple("RunConfig", "weight_path weight_preset max_degree out_dir fmt "
                                        "seed refine tol_identity")):
    """CLI-level configuration (weight source, degree, output, seed); one
    field per command-line option."""

    __slots__ = ()

    def __new__(cls, weight_path: str | None = None, weight_preset: str | None = None,
                max_degree: int = 8, out_dir: str = "fockdual-out", fmt: str = "csv",
                seed: int = 0, refine: int = 0, tol_identity: float = TOL_IDENTITY):
        if max_degree < 0:
            raise WeightSpecError("degree must be nonnegative")
        if fmt not in ("csv", "json"):
            raise WeightSpecError(f"unknown report format {fmt!r}")
        if seed < 0:
            raise WeightSpecError(f"--seed must be nonnegative, got {seed}")
        if not (math.isfinite(tol_identity) and tol_identity > 0):
            raise WeightSpecError(
                f"--tol-identity must be a finite positive tolerance, got {tol_identity}")
        return super().__new__(cls, weight_path, weight_preset, max_degree, out_dir, fmt,
                               seed, refine, tol_identity)


class SuiteResult:
    """One suite's checks, each ``(check_id, passed, detail)``, and its wall
    time; `_suite` fills it in as the suite runs."""

    def __init__(self, command: str, run: RunConfig):
        self.command = command
        self.run = run
        self.checks = []
        self.wall_time = 0.0

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def add(self, check_id: str, ok: bool, detail: str = "") -> None:
        self.checks.append((check_id, bool(ok), detail))
        print(f"[{'PASS' if ok else 'FAIL'}] {self.command}:{check_id}"
              + (f" ({detail})" if detail else ""))

    def table(self, name: str, header: list, rows: list) -> None:
        """Write a report table to the run's output directory."""
        write_table(Path(self.run.out_dir), name, header, rows, self.run.fmt)


def load_weight(run: RunConfig) -> WeightFunction:
    if run.weight_path and run.weight_preset:
        raise WeightSpecError("give either --weight or --weight-preset, not both")
    if run.weight_path:
        return weights.weight_from_json(run.weight_path)
    preset = run.weight_preset or "fock:1"
    return weights.parse_preset(preset)


def _fmt_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _csv_column(cells: tuple):
    """`_fmt_cell` of a column, typed once: csv writes a Python float as its
    repr, an int or str as str and None as an empty cell, so such a column
    passes straight through."""
    kinds = set(map(type, cells))
    if kinds <= {float, int, str, type(None)}:
        return cells
    if kinds <= {float, np.float64}:
        return list(map(float, cells))
    if kinds <= {bool, np.bool_}:
        return ["true" if v else "false" for v in cells]
    return list(map(_fmt_cell, cells))


def write_table(out_dir: Path, name: str, header: list, rows: list, fmt: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = out_dir / f"{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [header, *zip(*map(_csv_column, zip(*rows)))])
    else:
        path = out_dir / f"{name}.json"
        payload = [
            {k: (bool(v) if isinstance(v, (bool, np.bool_)) else
                 float(v) if isinstance(v, (float, np.floating)) else v)
             for k, v in zip(header, row)}
            for row in rows
        ]
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def _probe_points(n: int) -> list:
    axis = _PROBES_1D if n == 1 else _PROBES_AXIS_2D if n == 2 else _PROBES_AXIS_3D
    return [list(p) for p in itertools.product(axis, repeat=n)]


def _axis_weight(w: WeightFunction) -> WeightFunction:
    """The 1-D restriction of a separable weight: the n = 1 weight with the
    same terms, so the same floats, a memo key, and convex by construction."""
    return weights._from_terms(1, w.terms, w.label + "|axis")


# ---------------------------------------------------------------------------
# subcommands


def _suite(body):
    """The suite command ``cmd_<name>(w, cfg, run) -> SuiteResult`` around
    ``body(result, w, cfg, run)``: it times the body and writes the checks
    table after it."""
    name = body.__name__.removeprefix("cmd_")

    def command(w: WeightFunction, cfg: NumericsConfig, run: RunConfig) -> SuiteResult:
        t0 = time.perf_counter()
        result = SuiteResult(name, run)
        body(result, w, cfg, run)
        result.table(f"{name}_checks", ["check_id", "passed", "detail"], result.checks)
        result.wall_time = time.perf_counter() - t0
        return result

    return command


def _fenchel_young_gap(f: SampledFunction, conj: SampledFunction) -> float:
    """The worst x . xi - f(x) - f*(xi) over every pair of grid nodes. For an
    ``f`` with parts the gap is a sum of per-axis gaps, each maximized on its
    own; otherwise the pairs are taken a block of dual nodes at a time."""
    if f.parts is not None:
        return sum(float(np.max(np.multiply.outer(a.nodes(), g.nodes()) - p[:, None] - c))
                   for a, p, g, c in zip(f.axes, f.parts, conj.axes, conj.parts))
    x, xi = (np.stack(np.meshgrid(*[a.nodes() for a in s.axes], indexing="ij"), -1)
             .reshape(-1, f.n) for s in (f, conj))
    fv, cv = f.values.ravel(), conj.values.ravel()
    step = max(1, (1 << 16) // len(x))  # blocks of about 2^16 pairs stay in cache
    worst = -math.inf
    for k in range(0, len(xi), step):
        gaps = xi[k:k + step] @ x.T
        gaps -= fv
        worst = max(worst, float(np.max(gaps.max(axis=1) - cv[k:k + step])))
    return worst


@_suite
def cmd_conjugate(result: SuiteResult, w: WeightFunction, cfg: NumericsConfig,
                  run: RunConfig) -> None:
    report = weights.validate_class_V(w)
    result.add(
        "class_v",
        report.symmetric_ok and report.monotone_ok and report.superlinear_ok,
        f"worst_violation={float(report.worst_violation)!r}",
    )

    # dual weight table on [0, 4]^n, scan-based, against the closed form
    nodes_per_axis = {1: 65, 2: 33}.get(w.n, 9)
    axis = np.linspace(0.0, 4.0, nodes_per_axis)
    numeric_dual = fenchel.numeric_dual_weight(w, cfg)
    dual_tensor = numeric_dual.eval_on_axes([axis] * w.n)
    header = [f"y_{j + 1}" for j in range(w.n)] + ["value"]
    mesh = np.meshgrid(*([axis] * w.n), indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    rows = [tuple(c) + (v,) for c, v in zip(coords.tolist(), dual_tensor.ravel().tolist())]
    closed_form = w.dual()
    if closed_form is not None:
        closed = closed_form.eval(np.stack(mesh, axis=-1)).ravel().tolist()
        header += ["closed_form", "abs_diff"]
        rows = [
            r + (cf, abs(r[-1] - cf)) for r, cf in zip(rows, closed)
        ]
        worst = max(r[-1] for r in rows)
        # the non-separable numeric dual samples on a much coarser grid
        tol = 1e-6 if w.is_separable else 1e-3
        result.add("closed_form_match", worst <= tol, f"max_abs_diff={float(worst)!r}")
    result.table("conjugate_dual_table", header, rows)

    # log-substituted conjugate table on the same dual grid
    if w.is_separable:
        wa = _axis_weight(w)
        fenchel.prefetch_sups(fenchel.log_image(wa), axis[:, None], cfg, T_FLOOR)
        axis_vals = np.array([fenchel.log_conj(wa, [v], cfg) for v in axis])
        log_tensor = weights.add_on_axes(np.zeros((nodes_per_axis,) * w.n),
                                         [axis_vals] * w.n)
    else:
        log_tensor = np.array(
            [fenchel.log_conj(w, c, cfg) for c in coords]
        ).reshape((nodes_per_axis,) * w.n)
    rows = [
        tuple(c) + (v,) for c, v in zip(coords.tolist(), log_tensor.ravel().tolist())
    ]
    result.table("conjugate_log_dual_table", [f"x_{j + 1}" for j in range(w.n)] + ["value"],
                 rows)

    # grid transform invariants: Fenchel-Young and biconjugation
    counts = {1: 321, 2: 97}.get(w.n, 25)
    primal = tuple(GridAxis(-6.0, 6.0, counts) for _ in range(w.n))
    primal_nodes = [a.nodes() for a in primal]
    sym = fenchel.symmetrized_fn(w)
    # a separable weight is sampled, and so conjugated, one axis at a time
    f = (SampledFunction.separable(primal, [p(a) for p, a in zip(sym.axis_profiles, primal_nodes)])
         if w.is_separable else SampledFunction(primal, sym.on_axes(primal_nodes)))
    slope_hi = max(float(np.max(np.abs(np.diff(f.values, axis=j)))) / primal[j].step
                   for j in range(w.n))
    dual_counts = {1: 257, 2: 65}.get(w.n, 17)
    dual_grid = tuple(
        GridAxis(-1.05 * slope_hi, 1.05 * slope_hi, dual_counts) for _ in range(w.n)
    )
    conj = fenchel.conjugate_nd(f, dual_grid)

    fy_worst = _fenchel_young_gap(f, conj)
    result.add("fenchel_young", fy_worst <= 1e-10, f"worst_gap={fy_worst!r}")

    back = fenchel.conjugate_nd(conj, primal)
    interior = tuple(slice(1, -1) for _ in range(w.n))
    resid = float(np.max(np.abs(f.values[interior] - back.values[interior])))
    bound = 0.0
    for j in range(w.n):
        second = np.abs(np.diff(conj.values, n=2, axis=j))
        bound += float(second.max()) / 8.0
    result.add(
        "biconjugation", resid <= 2.0 * bound + 1e-12,
        f"residual={resid!r} bound={(2.0 * bound)!r}",
    )


@_suite
def cmd_identities(result: SuiteResult, w: WeightFunction, cfg: NumericsConfig,
                   run: RunConfig) -> None:
    tol = run.tol_identity
    probes = _probe_points(w.n)

    # prop3 and prop6_7 are two verdicts on one report: the one-sided one
    # reads its positive residuals, the two-sided one its absolute ones
    rep3 = fenchel.verify_identities(w, probes, cfg)
    result.add(
        "prop3", rep3.max_positive_residual <= tol,
        f"max_positive_residual={rep3.max_positive_residual!r}",
    )
    rows = []
    for pt, lhs, rhs in zip(rep3.points, rep3.lhs, rep3.rhs):
        rows.append(("prop3",) + pt + (lhs, rhs, lhs - rhs))

    rep67 = rep3
    if not rep67.max_abs_residual <= tol:
        # one grid refinement before declaring failure
        rep67 = fenchel.verify_identities(w, probes, cfg.refined())
    ok = rep67.max_abs_residual <= tol
    result.add(
        "prop6_7", ok, f"max_abs_residual={rep67.max_abs_residual!r}",
    )
    for pt, lhs, rhs in zip(rep67.points, rep67.lhs, rep67.rhs):
        rows.append(("prop6_7",) + pt + (lhs, rhs, lhs - rhs))
    if run.refine:
        # the refined report, unless the retry above has made it already
        fine = rep67 if rep67 is not rep3 else fenchel.verify_identities(
            w, probes, cfg.refined())
        base = rep67.max_abs_residual
        shrink = base / fine.max_abs_residual if fine.max_abs_residual > 0 else math.inf
        result.add(
            "refine_shrink",
            base <= 1e-12 or shrink >= REFINE_SHRINK,
            f"shrink={shrink!r}",
        )
    result.table(
        "identities_residuals",
        ["check_id"] + [f"x_{j + 1}" for j in range(w.n)] + ["lhs", "rhs", "residual"],
        rows,
    )

    dirs = list(np.eye(w.n))
    if w.n > 1:
        dirs.append(np.ones(w.n) / math.sqrt(w.n))
    radii = [5.0, 10.0]
    prof = fenchel.divergence_profile(w, dirs, radii, cfg)
    ratios = [r for _, r in prof.rows]
    result.add(
        "divergence_ratios", all(b > a for a, b in zip(ratios, ratios[1:])),
        f"ratios={ratios!r}",
    )
    increases = [
        b - a >= 0.8 * (rb - ra)
        for (a, b), (ra, rb) in zip(
            zip(prof.witness_sups, prof.witness_sups[1:]), zip(radii, radii[1:])
        )
    ]
    result.add("divergence_witness", all(increases),
               f"sups={list(prof.witness_sups)!r}")
    div_rows = [("ratio", r, v) for r, v in prof.rows]
    div_rows += [("witness", r, s) for r, s in zip(radii, prof.witness_sups)]
    result.table("identities_divergence", ["kind", "radius", "value"], div_rows)


def _sandwich_grid(n: int) -> list:
    axis = (np.linspace(-2.0, 2.0, 9) if n == 1
            else [-1.5, 0.0, 1.5] if n == 2 else [-1.0, 0.0, 1.0])
    return [list(p) for p in itertools.product(axis, repeat=n)]


@_suite
def cmd_sandwich(result: SuiteResult, w: WeightFunction, cfg: NumericsConfig,
                 run: RunConfig) -> None:
    h = fenchel.symmetrized_fn(w)
    grid = _sandwich_grid(w.n)
    fenchel.prefetch_sups(h, grid, cfg)
    rows = []
    all_ok = True
    worst_err = 0.0
    for y in grid:
        rep = laplace.sandwich_check(h, y, cfg)
        all_ok = all_ok and rep.verdict
        worst_err = max(worst_err, rep.combined_rel_error)
        rows.append(tuple(y) + (
            rep.integral, rep.volume.value, rep.volume.half_width,
            rep.hstar_y, rep.ratio, rep.verdict,
        ))
    result.add("theorem_b", all_ok, f"worst_rel_error={float(worst_err)!r}")
    result.table(
        "sandwich_table",
        [f"y_{j + 1}" for j in range(w.n)]
        + ["integral", "volume", "half_width", "hstar", "ratio", "verdict"],
        rows,
    )


@_suite
def cmd_moments(result: SuiteResult, w: WeightFunction, cfg: NumericsConfig,
                run: RunConfig) -> None:
    table = moments.moment_table(w, run.max_degree, cfg)
    alphas = list(moments.iter_indices(w.n, run.max_degree))
    fenchel.prefetch_sups(fenchel.log_image(w), [a.shifted() for a in alphas], cfg)
    check_rows = []
    lemma2_ok = True
    lemma4_ok = True
    for alpha in alphas:
        entry = table.entry(alpha)
        r2 = moments.lemma2_check(w, alpha, cfg, entry=entry)
        r4 = moments.lemma4_check(w, alpha, cfg, entry=entry)
        lemma2_ok = lemma2_ok and r2.ok
        lemma4_ok = lemma4_ok and r4.ok
        check_rows.append(
            ("lemma2",) + alpha.components + (r2.bound_ln, r2.value_ln, r2.ok)
        )
        check_rows.append(
            ("lemma4",) + alpha.components + (r4.lo_ln, r4.value_ln, r4.ok)
        )
    result.add("lemma2", lemma2_ok)
    result.add("lemma4", lemma4_ok)
    result.table(
        "moments_checks_detail",
        ["check_id"] + [f"alpha_{j + 1}" for j in range(w.n)]
        + ["bound_ln", "value_ln", "passed"],
        check_rows,
    )

    if w.label.startswith("fock:"):
        worst = 0.0
        for alpha in moments.iter_indices(w.n, run.max_degree):
            oracle = moments.fock_oracle(alpha, w.n)
            worst = max(worst, abs(
                math.expm1(table.ln(alpha) - oracle.ln_value)
            ))
        result.add("fock_oracle", worst <= 1e-6, f"max_rel={worst!r}")

    for rate in (2.0, 10.0):
        g = moments.growth_floor(table, rate)
        result.add(
            f"growth_rate_{rate:g}",
            g.log_convex_ok and math.isfinite(g.floor_ln),
            f"floor_ln={g.floor_ln!r}",
        )
    # written once every check has run, so a run that fails leaves no table
    if run.fmt == "csv":
        result.table("moments_table", [f"alpha_{j + 1}" for j in range(w.n)]
                     + ["value", "ln_value", "rel_error"], table.rows())
    else:
        # the JSON table keeps its own layout (`MomentTable.to_json`)
        Path(run.out_dir).mkdir(parents=True, exist_ok=True)
        table.to_json(Path(run.out_dir) / "moments_table.json")


@_suite
def cmd_duality(result: SuiteResult, w: WeightFunction, cfg: NumericsConfig,
                run: RunConfig) -> None:
    w_star = fenchel.dual_weight(w, cfg)
    table = moments.moment_table(w, run.max_degree, cfg)
    table_star = moments.moment_table(w_star, run.max_degree, cfg)

    scan_alphas = [
        a for a in moments.iter_indices(w.n, run.max_degree)
        if all(c >= 1 for c in a.components)
    ]
    krep = duality.k_condition_scan(w, scan_alphas, cfg, phi_dual=w_star)
    result.add("k_condition", all(p > 0 for p in krep.products.values()),
               f"K_hat={krep.K_hat!r}")
    result.table(
        "duality_kscan", [f"alpha_{j + 1}" for j in range(w.n)] + ["product"],
        [a.components + (p,) for a, p in sorted(krep.products.items())],
    )

    alphas = list(moments.iter_indices(w.n, run.max_degree))
    for v in (w, w_star):
        fenchel.prefetch_sups(fenchel.log_image(v), [a.shifted() for a in alphas], cfg)
    stirling_rows = []
    stirling_ok = True
    for alpha in alphas:
        rep = duality.stirling_identity_check(w, alpha, cfg, phi_dual=w_star)
        stirling_ok = stirling_ok and rep.ok
        stirling_rows.append(
            alpha.components + (rep.ln_ratio, rep.ln_lower, rep.ok)
        )
    result.add("stirling_envelope", stirling_ok)
    result.table(
        "duality_stirling",
        [f"alpha_{j + 1}" for j in range(w.n)] + ["ln_ratio", "ln_lower", "passed"],
        stirling_rows,
    )

    # the transform pair is diagonal, so its operator norms are exact: the
    # bounds are decided from the tables, in log space, at every index
    bounds = duality.isomorphism_bound_check(table, table_star, krep.K_hat)
    ln_c, _, scale = table.dense_vectors(run.max_degree)
    # the two checks through the map scale c_alpha / alpha! run where it is a
    # normal float; past the float range (either way) only the logs are exact
    normal = np.isfinite(scale) & (scale >= sys.float_info.min)
    skipped = len(scale) - int(np.count_nonzero(normal))
    note = f", skipped={skipped} indices past the float range" if skipped else ""
    # the round trip of the dense scale vector, each entry scaled into [0.5, 1)
    # by a power of two (exact), so that its image stays in the float range
    b = duality.CoefficientSequence(
        w.n, run.max_degree, np.where(normal, np.frexp(scale)[0], 0.0), np.zeros(len(scale)))
    ulp_worst = duality.roundtrip_ulp_error(b, table)
    # ln r_alpha once more, through the map scale as stored
    ln_c_star = table_star.dense_vectors(run.max_degree)[0]
    via_scale = 2.0 * np.log(scale[normal]) + ln_c_star[normal] - ln_c[normal]
    eq1_worst = float(np.max(np.abs(via_scale - bounds.ln_r[normal]), initial=0.0))
    result.add("bounds_forward", bounds.forward_ok, f"ln_M1={bounds.ln_m1!r}")
    result.add("bounds_inverse", bounds.inverse_ok, f"ln_c_inv={bounds.ln_c_inv!r}")
    result.add("roundtrip_ulp", ulp_worst <= 4.0, f"worst_ulp={ulp_worst!r}{note}")
    result.add("norm_identity_consistency", eq1_worst <= 1e-12,
               f"worst_abs_ln={eq1_worst!r}{note}")
    result.table(
        "duality_bounds", [f"alpha_{j + 1}" for j in range(w.n)] + ["ln_r"],
        [a.components + (v,) for a, v in
         zip(moments.iter_indices(w.n, run.max_degree), bounds.ln_r.tolist())],
    )


_COMMANDS = {
    "conjugate": cmd_conjugate,
    "identities": cmd_identities,
    "sandwich": cmd_sandwich,
    "moments": cmd_moments,
    "duality": cmd_duality,
}


def run_all(w: WeightFunction, cfg: NumericsConfig, run: RunConfig) -> list:
    results = []
    for name in ("conjugate", "identities", "sandwich", "moments", "duality"):
        results.append(_COMMANDS[name](w, cfg, run))
    summary = [
        (r.command, check_id, ok)
        for r in results
        for check_id, ok, _ in r.checks
    ]
    results[-1].table("summary", ["command", "check_id", "passed"], summary)
    return results


def build_parser() -> argparse.ArgumentParser:
    """One parser: the suite to run (or ``all``) and the options every suite
    shares, each declared once."""
    parser = argparse.ArgumentParser(
        prog="fockdual",
        description="Verification suites for conjugation, Laplace bounds, "
                    "moments and the coefficient-level duality transform.",
    )
    parser.add_argument("command", choices=(*_COMMANDS, "all"))
    parser.add_argument("--weight", dest="weight_path", default=None,
                        help="path to a JSON weight spec")
    parser.add_argument("--weight-preset", dest="weight_preset", default=None,
                        help="catalog weight, e.g. fock:2 or power:4:1")
    parser.add_argument("--degree", dest="max_degree", metavar="DEGREE", type=int,
                        default=8, help="moment/scan truncation degree")
    parser.add_argument("--out", dest="out_dir", default="fockdual-out")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--refine", action="count", default=0,
                        help="halve grid steps (repeatable); identities also "
                             "check the residual shrink factor")
    parser.add_argument("--tol-identity", type=float, default=TOL_IDENTITY)
    return parser


# At exit, move every object still tracked by the collector (numpy's and
# fockdual's import heap, about 22k containers) to the permanent generation,
# so that the interpreter's finalizing collections skip it: about 20 ms of
# each CLI process. Reference counting, atexit handlers and the flushing of
# stdout and stderr all still run; only cyclic garbage still alive at exit
# is left uncollected, which Python never promises to finalize, and every
# report is written and closed before main() returns. An exit hook, not a
# call in main(), so that an in-process caller's heap is never frozen.
atexit.register(gc.freeze)


def main(argv=None) -> int:
    opts = vars(build_parser().parse_args(argv))
    command = opts.pop("command")
    try:
        run = RunConfig(**opts)
        w = load_weight(run)
        cfg = NumericsConfig(run.refine)
        if command == "all":
            results = run_all(w, cfg, run)
        else:
            results = [_COMMANDS[command](w, cfg, run)]
    except WeightSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (fenchel.DivergenceError, ValueError, OverflowError) as exc:
        # a numeric failure, a float overflow or a resource guard (grid
        # sizes): not bad usage, and not a check that failed
        print(f"error: {exc}", file=sys.stderr)
        return 3
    total = sum(r.wall_time for r in results)
    ok = all(r.passed for r in results)
    print(f"{'all checks passed' if ok else 'CHECK FAILURES'} "
          f"({total:.1f}s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
