"""wavetrace benchmark: time to spectrum on three workloads, traced per module.

    python3 bench/run.py --workload ball-trace --seed 0 --seconds 20 --trace 0

Run from anywhere; it measures the wavetrace source tree next to this
directory (``src/``) and writes only under ``.bench_out/`` beside it.

``--trace 0`` measures the end-to-end metrics: it imports wavetrace in
fresh processes for ``setup_s``, then runs whole solves, each in a fresh
worker process, until ``--seconds`` have passed (at least one), and
reports medians. ``--trace 1`` runs one untraced and one traced solve and
reports the per-layer metrics of the traced one. Every solve's artifacts
go through the reference checker. The last line printed is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import check
import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 3  # import-only processes per run; every solve adds one more sample

END_TO_END = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A worker process failed or ran out of time; the run has no result."""


@dataclass
class Solve:
    result: dict
    verdict: check.Verdict
    digest: str
    spans: list | None


def run_worker(args: list[str], cwd: Path, log: Path, timeout: float) -> None:
    with open(log, "wb") as f:
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), *args], cwd=cwd, stdout=f, stderr=subprocess.STDOUT, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker ran past {timeout:.0f} s:\n{_tail(log)}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{_tail(log)}")


def _tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-2000:]


def probe_import(run_dir: Path, timeout: float) -> float:
    log = run_dir / "probe.log"
    run_worker(["--import-only"], run_dir, log, timeout)
    return json.loads(log.read_text(encoding="utf-8").splitlines()[-1])["import_s"]


def run_solve(workload: str, seed: int, trace: bool, solve_dir: Path, timeout: float) -> Solve:
    solve_dir.mkdir()
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(trace)), "--dir", str(solve_dir)]
    run_worker(args, solve_dir, solve_dir / "cli.log", timeout)
    result = json.loads((solve_dir / "result.json").read_text(encoding="utf-8"))
    outdir = solve_dir / "out"
    digest = hashlib.sha256()
    for path in workloads.artifacts(outdir):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    spans = None
    if trace:
        with open(solve_dir / "spans.jsonl", encoding="utf-8") as f:
            spans = [json.loads(line) for line in f]
    verdict = check.check(workload, outdir, result["commands"], result["exit_codes"])
    return Solve(result, verdict, digest.hexdigest(), spans)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_run(workload: str, seed: int, seconds: float, run_dir: Path, t0: float):
    setup = [probe_import(run_dir, DEADLINE_S) for _ in range(SETUP_PROBES)]
    solves = []
    first = perf_counter()
    while True:
        remaining = DEADLINE_S - (perf_counter() - t0)
        solves.append(run_solve(workload, seed, False, run_dir / f"solve{len(solves)}", remaining))
        spent = perf_counter() - first
        per_solve = spent / len(solves)
        if spent >= seconds or DEADLINE_S - (perf_counter() - t0) < 1.5 * per_solve:
            break
    setup += [s.result["import_s"] for s in solves]
    metrics = {
        "setup_s": statistics.median(setup),
        "time_to_solution_s": statistics.median(s.result["time_to_solution_s"] for s in solves),
        "cpu_s": statistics.median(s.result["cpu_s"] for s in solves),
        "peak_rss_mb": statistics.median(s.result["peak_rss_mb"] for s in solves),
    }
    return solves, {name: (value, END_TO_END[name]) for name, value in metrics.items()}


def traced_run(workload: str, seed: int, run_dir: Path, t0: float):
    base = run_solve(workload, seed, False, run_dir / "untraced", DEADLINE_S - (perf_counter() - t0))
    traced = run_solve(workload, seed, True, run_dir / "traced", DEADLINE_S - (perf_counter() - t0))
    traced_tts = traced.result["time_to_solution_s"]
    values = layers.layer_metrics(traced.spans, traced_tts)
    values["sweep.k_err_max"] = traced.verdict.k_err_max
    values["cli.artifact_variants"] = len({base.digest, traced.digest})
    values["trace_overhead_frac"] = traced_tts / base.result["time_to_solution_s"] - 1.0
    metrics = {name: (values[name], unit) for name, unit in layers.METRICS.items()}
    return [base, traced], metrics


def main(argv=None) -> int:
    t0 = perf_counter()
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + (workloads.SMOKE_WORKLOAD,))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "wavetrace" / "cli.py").is_file():
        print(f"bench: no wavetrace source tree under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"work-{tag}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        if args.trace:
            solves, metrics = traced_run(args.workload, args.seed, run_dir, t0)
            shutil.copy(run_dir / "traced" / "spans.jsonl", OUT / f"{tag}.spans.jsonl")
        else:
            solves, metrics = timed_run(args.workload, args.seed, args.seconds, run_dir, t0)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = [op for s in solves for op in s.verdict.ops]
    failed = [op for s in solves for op in s.verdict.failed]
    unexpected = [op for s in solves for op in s.verdict.unexpected(args.workload)]
    summary = {"correct": not unexpected, "attempted": len(ops), "failed": len(failed)}
    record = {
        **summary,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_commit": git_commit(),
        "machine": solves[0].result["machine"],
        "commands": solves[0].result["commands"],
        "solves": [
            {
                **{k: s.result[k] for k in ("import_s", "time_to_solution_s", "cpu_s", "peak_rss_mb", "exit_codes")},
                "artifact_sha256": s.digest,
                "ops": [{"name": op.name, "ok": op.ok, "detail": op.detail} for op in s.verdict.ops],
            }
            for s in solves
        ],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} commit={record['git_commit']}")
    print("# machine " + json.dumps(record["machine"], sort_keys=True))
    for i, s in enumerate(solves):
        r = s.result
        print(
            f"# solve {i}: time_to_solution_s={r['time_to_solution_s']:.3f} cpu_s={r['cpu_s']:.3f} "
            f"peak_rss_mb={r['peak_rss_mb']:.1f} exit={r['exit_codes']} sha256={s.digest[:16]}"
        )
        for op in s.verdict.failed:
            known = "" if op in s.verdict.unexpected(args.workload) else " (known defect)"
            print(f"FAILED {op.name}: {op.detail}{known}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(
        f"correct={summary['correct']} attempted={summary['attempted']} failed={summary['failed']} "
        f"fail_frac={summary['failed'] / summary['attempted']:.4g}"
    )
    print(json.dumps({**summary, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
