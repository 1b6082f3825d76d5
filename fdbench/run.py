#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the fockdual CLI.

    python3 fdbench/run.py --workload fock2_all --seed 0 --seconds 60 --trace 0

Each workload is one fockdual CLI command. The benchmark starts it as a
fresh process again and again, one after another (a closed loop with one
client), for ``--seconds`` seconds, passing ``--seed`` on to the CLI. The
package is imported from ``src/`` of this checkout; nothing is built.

With ``--trace 0`` it reports, per workload:

* ``run_s``: wall seconds from "weight loaded" to process exit, median over
  the runs that succeeded;
* ``setup_s``: wall seconds from process start to "weight loaded"
  (interpreter, ``import fockdual``, parsing the weight), median over the
  runs and set-up-only processes, one before each run and a few at the
  start, so that the set-ups are spread over the whole measured time;
* ``peak_rss_mb``: the child's peak resident memory, median over runs;
* ``ops_failed_frac``: failed checks over attempted checks, compared with
  the reference verdicts in ``fdbench/reference``;
* ``report_drift``: largest relative deviation of any cell of the
  seed-independent report tables from the reference (0 = byte-identical).

With ``--trace 1`` it measures the plain runs for half the time, then runs
with the span tracer of ``fdbench/tracer.py`` for the other half, and
reports the per-layer metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record`` rewrites the workload's reference from runs at seeds 0 and 1.
The benchmark's own tests: ``python3 -m pytest -q fdbench/test_fdbench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
from tracer import SUITES, span_totals  # noqa: E402

_WEIGHTS = BENCH_DIR.relative_to(ROOT) / "weights"

# Why each workload: see BENCHMARK.json. mixed2_identities is not listed
# there because every run of it fails today (the non-separable numeric dual
# exits 2 with "superlinearity fails"); it is kept so the defect shows as
# ops_failed_frac = 1. mixed2_moments is not listed either: with three
# workloads the runs cannot be long enough for sep1_all (one ~30 s process)
# to read steadily on a shared 2-vCPU host; it stays runnable by name.
# fock1_selftest is the fast case of the self-test.
WORKLOADS = {
    "fock2_all": ["all", "--weight-preset", "fock:2", "--degree", "8"],
    "sep1_all": ["all", "--weight", str(_WEIGHTS / "sep1.json"), "--degree", "8"],
    "mixed2_moments": ["moments", "--weight", str(_WEIGHTS / "mixed2.json"),
                       "--degree", "8"],
    "mixed2_identities": ["identities", "--weight", str(_WEIGHTS / "mixed2.json")],
    "fock1_selftest": ["all", "--weight-preset", "fock:1", "--degree", "2"],
}

SETUP_PROBES = 3  # set-up-only processes at the start, before the first run
CHILD_TIMEOUT_S = 150.0

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = (
    [(f"scan.conjugate_lines.{k}", u) for k, u in
     (("calls", "count"), ("self_s", "s"), ("work", "count"))]
    + [(f"fenchel.truncated_sup.{k}", u) for k, u in
       (("calls", "count"), ("distinct", "count"), ("useful_ratio", "ratio"),
        ("self_s", "s"), ("points", "count"))]
    + [("fenchel.numeric_dual.calls", "count"), ("fenchel.numeric_dual.self_s", "s"),
       ("fenchel.conjugate_nd.calls", "count"), ("fenchel.conjugate_nd.self_s", "s")]
    + [(f"laplace.{f}.{k}", u) for f in ("laplace_integral", "sublevel_volume")
       for k, u in (("calls", "count"), ("self_s", "s"), ("points", "count"))]
    + [("moments.moment_table.calls", "count"), ("moments.moment_table.self_s", "s"),
       ("duality.k_condition_scan.self_s", "s"),
       ("duality.isomorphism_bound_check.self_s", "s")]
    + [(f"cli.{s}.s", "s") for s in SUITES]
    + [("trace.run_s", "s"), ("trace.overhead_s", "s")]
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def run_child(mode: str, workload: str, seed: int, work: Path) -> dict:
    """Start one child process and wait for it; the child is always reaped."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    argv = ([sys.executable, str(BENCH_DIR / "child.py"), str(result_path), mode, "--"]
            + WORKLOADS[workload] + ["--seed", str(seed), "--out", str(work / "out")])
    lock = threading.Lock()
    exited = False

    def kill() -> None:
        with lock:
            if not exited:
                proc.kill()

    with open(work / "stdout", "wb") as so, open(work / "stderr", "wb") as se:
        t_start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=so, stderr=se)
        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            # wait without reaping, so kill() can never hit a recycled pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            t_exit = time.monotonic()
            with lock:
                exited = True
        finally:
            timer.cancel()
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    record = {}
    if result_path.is_file():
        record = json.loads(result_path.read_text(encoding="utf-8"))
    sample = {"exit": proc.returncode, "wall_s": t_exit - t_start,
              "rss_mb": usage.ru_maxrss / 1024.0, "env": record.get("env"),
              "trace": record.get("trace")}
    if "t_loaded" in record:
        sample["setup_s"] = record["t_loaded"] - t_start
        sample["run_s"] = t_exit - record["t_loaded"]
    sample["stdout"] = (work / "stdout").read_text(encoding="utf-8", errors="replace")
    sample["stderr"] = (work / "stderr").read_text(encoding="utf-8", errors="replace")
    return sample


def check_sample(sample: dict, ref: dict, ref_dir: Path, out_dir: Path) -> None:
    """Score a finished run against the reference, in place."""
    attempted, failed = reference.score_checks(
        reference.parse_checks(sample["stdout"]), ref["checks"])
    sample["attempted"], sample["failed"] = attempted, failed
    sample["drift"] = reference.report_drift(out_dir, ref_dir, ref["tables"])
    sample["ok"] = failed == 0 and sample["exit"] == ref["exit_code"]
    if not sample["ok"]:
        sample.pop("run_s", None)  # a failed run has no time


def measure(workload: str, seed: int, mode: str, budget_s: float, work: Path,
            ref: dict, ref_dir: Path, probes: list) -> list:
    """Closed loop: run samples until the next one would overrun ``budget_s``.

    In ``run`` mode a set-up probe goes before each sample and is appended
    to ``probes``."""
    deadline = time.monotonic() + budget_s
    samples = []
    while True:
        if mode == "run":
            probes.extend(setup_probes(workload, seed, 1, work))
        sample = run_child(mode, workload, seed, work / "run")
        check_sample(sample, ref, ref_dir, work / "run" / "out")
        samples.append(sample)
        print(f"  {mode} {len(samples)}: exit {sample['exit']}, wall "
              f"{sample['wall_s']:.3f} s, checks {sample['attempted'] - sample['failed']}"
              f"/{sample['attempted']} ok, drift {sample['drift']!r}", flush=True)
        if mode == "trace" and "TraceError" in sample["stderr"]:
            raise BenchError(f"the tracer failed:\n{sample['stderr']}")
        typical = statistics.median(s["wall_s"] for s in samples)
        if mode == "run":
            typical += probes[-1]["wall_s"]
        if time.monotonic() + typical > deadline:
            return samples


def setup_probes(workload: str, seed: int, count: int, work: Path) -> list:
    probes = []
    for _ in range(count):
        probe = run_child("setup", workload, seed, work / "probe")
        if probe["exit"] != 0 or "setup_s" not in probe:
            raise BenchError(f"set-up probe failed (exit {probe['exit']}):\n"
                             f"{probe['stderr']}")
        probes.append(probe)
    return probes


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _median(values: list):
    return statistics.median(values) if values else None


def _spread(values: list, what: str) -> str:
    text = f"median of {len(values)} {what}"
    if len(values) < 2:
        return text
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{text}; q1 {q1!r}, q3 {q3!r}"


def layer_metrics(export: dict) -> dict:
    """Per-layer metrics of one traced run."""
    totals = span_totals(export["spans"])
    counts = export["counts"]

    def get(name: str, key: str):
        return totals.get(name, {}).get(key, 0)

    out = {}
    for name in ("scan.conjugate_lines", "fenchel.truncated_sup", "fenchel.numeric_dual",
                 "fenchel.conjugate_nd", "laplace.laplace_integral",
                 "laplace.sublevel_volume", "moments.moment_table",
                 "duality.k_condition_scan", "duality.isomorphism_bound_check"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
        out[f"{name}.points"] = counts.get(f"{name}.points", 0)
    calls = out["fenchel.truncated_sup.calls"]
    out["fenchel.truncated_sup.distinct"] = export["sup_distinct"]
    out["fenchel.truncated_sup.useful_ratio"] = (
        export["sup_distinct"] / calls if calls else 1.0)
    out["scan.conjugate_lines.work"] = counts.get("scan.conjugate_lines.work", 0)
    for suite in SUITES:
        out[f"cli.{suite}.s"] = get(f"cli.{suite}", "total_s")
    return out


def check_reach(workload: str, export: dict) -> None:
    """On `all` workloads every wrapped alias must be called at least once,
    so that a rename cannot silently zero a layer."""
    if WORKLOADS[workload][0] != "all":
        return
    missed = sorted(set(export["aliases"]) - set(export["reached"]))
    if not any(s["name"] == "fenchel.numeric_dual" for s in export["spans"]):
        missed.append("evaluation of numeric_dual_weight(...)")
    if missed:
        raise BenchError("traced aliases never reached: " + ", ".join(missed))


def run(args) -> int:
    ref, ref_dir = reference.load(args.workload)
    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        probes = setup_probes(args.workload, args.seed,
                              SETUP_PROBES if args.trace == 0 else 1, work)
        env = dict(probes[0]["env"], src_py_lines=src_lines())
        print("env: " + json.dumps(env, sort_keys=True), flush=True)
        if env["backend"] != "pure":
            print(f"refusing to measure: scan backend is {env['backend']!r}, not the "
                  "tier-1 'pure' backend (set FOCKDUAL_PURE=1)", file=sys.stderr)
            return 3
        print(f"workload {args.workload}: fockdual {' '.join(WORKLOADS[args.workload])} "
              f"--seed {args.seed} (closed loop, 1 client)", flush=True)
        budget = args.seconds if args.trace == 0 else args.seconds / 2
        plain = measure(args.workload, args.seed, "run", budget, work, ref, ref_dir, probes)
        traced = []
        if args.trace:
            traced = measure(args.workload, args.seed, "trace", budget, work, ref, ref_dir,
                             probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    drift = max(s["drift"] for s in samples)
    run_s = [s["run_s"] for s in plain if "run_s" in s]
    setup_s = [s["setup_s"] for s in probes + plain if "setup_s" in s]
    rss = [s["rss_mb"] for s in plain]
    e2e = {"run_s": _median(run_s), "setup_s": _median(setup_s),
           "peak_rss_mb": _median(rss)}
    print(f"run_s = {e2e['run_s']!r} s ({_spread(run_s, 'successful runs')})")
    print(f"setup_s = {e2e['setup_s']!r} s ({_spread(setup_s, 'set-ups')})")
    print(f"peak_rss_mb = {e2e['peak_rss_mb']!r} MB ({_spread(rss, 'runs')})")
    print(f"ops_failed_frac = {failed / attempted!r} ({failed} of {attempted} checks)")
    print(f"report_drift = {drift!r} ({len(ref['tables'])} seed-independent tables)")
    correct = all(s["ok"] for s in samples) and drift <= reference.DRIFT_TOLERANCE

    if not args.trace:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        for s in traced:
            check_reach(args.workload, s["trace"])
        per_run = [layer_metrics(s["trace"]) for s in traced]
        layer = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        traced_run_s = [s["run_s"] for s in traced if "run_s" in s]
        layer["trace.run_s"] = _median(traced_run_s)
        layer["trace.overhead_s"] = (
            layer["trace.run_s"] - e2e["run_s"]
            if layer["trace.run_s"] is not None and e2e["run_s"] is not None else None)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            print(f"{name} = {layer[name]!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def record(args) -> int:
    """Write reference/<workload> from two runs at seeds 0 and 1."""
    work = BENCH_DIR / ".work" / f"record-{os.getpid()}"
    try:
        runs = [run_child("run", args.workload, seed, work / f"seed{seed}") for seed in (0, 1)]
        for r in runs:
            if r["exit"] != 0:
                raise BenchError(f"cannot record a failing run (exit {r['exit']}):\n"
                                 f"{r['stderr']}")
        checks = [reference.parse_checks(r["stdout"]) for r in runs]
        if checks[0] != checks[1]:
            raise BenchError("check verdicts depend on the seed")
        outs = [work / "seed0" / "out", work / "seed1" / "out"]
        tables = sorted(p.name for p in outs[0].glob("*.csv")
                        if p.name not in reference.SEED_TABLES)
        for name in tables:
            if (outs[1] / name).read_bytes() != (outs[0] / name).read_bytes():
                raise BenchError(f"{name} depends on the seed; add it to SEED_TABLES")
        ref_dir = reference.REFERENCE_DIR / args.workload
        shutil.rmtree(ref_dir, ignore_errors=True)
        ref_dir.mkdir(parents=True)
        for name in tables:
            shutil.copyfile(outs[0] / name, ref_dir / name)
        (ref_dir / "checks.json").write_text(
            '{\n "exit_code": 0,\n "checks": [\n  '
            + ",\n  ".join(json.dumps(c) for c in checks[0])
            + f"\n ],\n \"tables\": {json.dumps(tables)}\n}}\n", encoding="utf-8")
        print(f"recorded {len(checks[0])} checks and {len(tables)} tables in {ref_dir}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the workload's reference outputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fockdual" / "__init__.py").is_file():
        print(f"error: no fockdual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        return record(args) if args.record else run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
