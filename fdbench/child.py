"""One fockdual CLI process, as the benchmark runs it.

    python3 fdbench/child.py RESULT.json MODE -- <fockdual CLI arguments>

MODE is ``run`` (plain CLI run), ``setup`` (exit as soon as the weight is
loaded) or ``trace`` (run with the span tracer installed). The package is
imported from ``src/`` of the checkout this file sits in. RESULT.json
receives the CLOCK_MONOTONIC time at which the weight was loaded, and in
``setup`` mode a record of the environment, in ``trace`` mode the spans.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment(fockdual) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps['name']} {deps['version']}"
    except (TypeError, KeyError):
        pass
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        # the scan backend switch may be retired; only the pure kernel remains then
        "backend": getattr(fockdual, "BACKEND", "pure"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
    }


def write(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def main() -> int:
    argv = sys.argv[1:]
    sep = argv.index("--")
    result_path, mode = argv[:sep]
    cli_argv = argv[sep + 1:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fockdual
    from fockdual import cli

    record: dict = {}
    load_weight = cli.load_weight

    def timed_load_weight(run):
        w = load_weight(run)
        record["t_loaded"] = time.monotonic()
        if mode == "setup":
            record["env"] = environment(fockdual)
            write(result_path, record)
            sys.stdout.flush()
            os._exit(0)
        return w

    cli.load_weight = timed_load_weight
    if mode != "trace":
        try:
            return cli.main(cli_argv)
        finally:
            write(result_path, record)

    from tracer import Tracer

    tracer = Tracer(run_id=str(os.getpid()))
    tracer.install()
    try:
        return tracer.run_span("cli.main", cli.main, cli_argv)
    finally:
        tracer.uninstall()
        record["trace"] = tracer.export()
        write(result_path, record)


if __name__ == "__main__":
    sys.exit(main())
