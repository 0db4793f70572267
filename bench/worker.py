"""One solve of one workload, in a fresh process.

Imports wavetrace from the checkout's ``src/`` (timing the import), runs the
workload's CLI commands in this process and writes ``result.json`` into the
solve directory: import time, time to solution, CPU time, peak RSS, exit
codes and the machine and BLAS configuration. With ``--trace 1`` it first
wraps wavetrace's public functions and also writes ``spans.jsonl``.

    python3 bench/worker.py --workload ball-trace --seed 0 --trace 0 --dir DIR
    python3 bench/worker.py --import-only
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
CRASH = 99  # exit code recorded when a command raises instead of exiting


def import_wavetrace():
    """Import wavetrace.cli from the checkout; return it and the seconds taken."""
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import wavetrace.cli

    elapsed = perf_counter() - start
    if not Path(wavetrace.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"wavetrace imported from {wavetrace.cli.__file__}, not from {SRC}")
    return wavetrace.cli, elapsed


def run_command(cli, argv: list[str]) -> int:
    try:
        cli.main(args=argv, prog_name="wavetrace")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        return CRASH
    return 0


def machine_config() -> dict:
    import numpy
    import scipy

    def blas(show_config):
        deps = show_config(mode="dicts").get("Build Dependencies", {})
        return {part: {key: deps.get(part, {}).get(key) for key in ("name", "version")} for part in ("blas", "lapack")}

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
    }


def solve(workload: str, seed: int, trace: bool, solve_dir: Path) -> dict:
    cli, import_s = import_wavetrace()
    tracer = None
    if trace:
        import wavetrace

        tracer = Tracer(run_id=solve_dir.name)
        tracer.install(wavetrace)
    outdir = solve_dir / "out"
    outdir.mkdir()
    commands = workloads.commands(workload, seed, outdir)
    exit_codes = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    for argv in commands:
        if tracer is None:
            exit_codes.append(run_command(cli, argv))
        else:
            exit_codes.append(tracer.call(f"cli.{argv[0]}", run_command, (cli, argv)))
    elapsed = perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.dump(solve_dir / "spans.jsonl")
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    return {
        "import_s": import_s,
        "time_to_solution_s": elapsed,
        "cpu_s": cpu,
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit_codes": exit_codes,
        "commands": commands,
        "machine": machine_config(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--import-only", action="store_true", help="print the import time and exit")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + (workloads.SMOKE_WORKLOAD,))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", type=Path, help="solve directory; created by the caller")
    args = parser.parse_args(argv)
    if args.import_only:
        print(json.dumps({"import_s": import_wavetrace()[1]}))
        return 0
    if args.workload is None or args.dir is None:
        parser.error("--workload and --dir are required")
    result = solve(args.workload, args.seed, bool(args.trace), args.dir)
    (args.dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
