"""The benchmark's own tests: smoke runs and the reference checker.

    python3 -m pytest bench/test_bench.py

The smoke workload is the Criterion-8 tiny problem (16x32 sphere, 8x16
directions, 300 interior points, 12 samples on [3.0, 3.3]); both of its
runs take a few seconds.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, group):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit in want.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1]), name


def test_per_layer_metrics_match_the_spec():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.METRICS


def write_sweep(outdir: Path, stem: str, dips, samples: int, k_lo: float, k_hi: float):
    ks = [k_lo + (k_hi - k_lo) * i / (samples - 1) for i in range(samples)]
    vals = [0.5] * samples
    (outdir / f"{stem}-sweep.csv").write_text(
        "k,indicator\n" + "".join(f"{k:.17g},{v:.17g}\n" for k, v in zip(ks, vals)), encoding="utf-8"
    )
    payload = {"k_samples": ks, "indicator": vals, "dips": [{"k": k, "multiplicity": m} for k, m in dips]}
    (outdir / f"{stem}-sweep.json").write_text(json.dumps(payload), encoding="utf-8")


BALL_COMMANDS = workloads.commands("ball-trace", 0, Path("out"))
STAR_COMMANDS = workloads.commands("star-cross", 0, Path("out"))
BALL_DIPS = [(3.14160413, 1), (4.493432888, 3), (5.763455483, 5), (6.283180256, 1)]


def ball_failures(tmp_path, dips, exit_code=0):
    write_sweep(tmp_path, "ball", dips, 71, 3.0, 6.5)
    return [op.name for op in check.check("ball-trace", tmp_path, BALL_COMMANDS, [exit_code]).failed]


def test_ball_checker_passes_the_reference_dips(tmp_path):
    assert ball_failures(tmp_path, BALL_DIPS) == []


def test_ball_checker_counts_doctored_artifacts(tmp_path):
    wrong_mult = [BALL_DIPS[0], (BALL_DIPS[1][0], 2)] + BALL_DIPS[2:]
    assert ball_failures(tmp_path, wrong_mult) == ["ball@4.493409"]
    assert ball_failures(tmp_path, BALL_DIPS[:3]) == ["ball@6.283185"]
    assert ball_failures(tmp_path, BALL_DIPS + [(3.9, 1)]) == ["spurious@3.900000"]
    assert len(ball_failures(tmp_path, BALL_DIPS, exit_code=3)) == 4


def test_ball_checker_rejects_a_csv_that_disagrees_with_the_json(tmp_path):
    write_sweep(tmp_path, "ball", BALL_DIPS, 71, 3.0, 6.5)
    csv_path = tmp_path / "ball-sweep.csv"
    csv_path.write_text(csv_path.read_text(encoding="utf-8").replace(",0.5\n", ",0.25\n", 1), encoding="utf-8")
    assert len(check.check("ball-trace", tmp_path, BALL_COMMANDS, [0]).failed) == 4


def star_verdict(tmp_path, trace_mults):
    trace = [(5.629585, trace_mults[0]), (5.713974, trace_mults[1]), (5.870261, trace_mults[2]), (6.326735, trace_mults[3])]
    write_sweep(tmp_path, "star", trace, 76, 5.0, 6.5)
    records = [{"k": k, "multiplicity": m} for k, m in [(5.627349, 1), (5.711219, 2), (5.866486, 2), (6.322584, 1)]]
    (tmp_path / "star-eigs.json").write_text(json.dumps({"records": records}), encoding="utf-8")
    return check.check("star-cross", tmp_path, STAR_COMMANDS, [0, 0])


def test_star_checker_names_the_known_trace_multiplicity_defect(tmp_path):
    verdict = star_verdict(tmp_path, [3, 3, 2, 1])
    assert len(verdict.ops) == 8
    assert [op.name for op in verdict.failed] == ["trace@5.628", "trace@5.712"]
    assert verdict.unexpected("star-cross") == []
    assert star_verdict(tmp_path, [1, 2, 2, 1]).failed == []


def test_star_checker_flags_a_new_failure_as_unexpected(tmp_path):
    verdict = star_verdict(tmp_path, [3, 3, 1, 1])
    assert [op.name for op in verdict.unexpected("star-cross")] == ["trace@5.868"]


def test_verify_checker_counts_a_control_that_passed(tmp_path):
    reports = []
    for name, (n_checks, n_controls) in check.VERIFY_COUNTS.items():
        tol = check.VERIFY_TOLERANCES[name]
        reports += [{"check": name, "expected_failure": False, "passed": True, "residual": 0.0, "tolerance": tol}] * n_checks
        reports += [{"check": name, "expected_failure": True, "passed": False, "residual": 0.5, "tolerance": tol}] * n_controls
    path = tmp_path / "verify.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in reports), encoding="utf-8")
    assert len(check.check("verify-suite", tmp_path, [], [0]).ops) == 44
    assert check.check("verify-suite", tmp_path, [], [0]).failed == []
    reports[24] = {**reports[24], "passed": True, "residual": 0.0}  # first necessity control
    path.write_text("".join(json.dumps(r) + "\n" for r in reports), encoding="utf-8")
    assert [op.name for op in check.check("verify-suite", tmp_path, [], [0]).failed] == ["necessity/control0"]


def span(sid, parent, name, start, end, thread="main"):
    return {"id": sid, "parent": parent, "name": name, "thread": thread, "start": start, "end": end}


def test_shares_split_parallel_time_and_add_up_to_the_root():
    spans = [
        span(1, None, "cli.sweep", 0.0, 10.0),
        span(2, 1, "sweep.sweep_k", 1.0, 5.0),
        span(3, 2, "herglotz.assemble_trace_matrix", 1.0, 5.0, thread=7),
        span(4, 2, "sweep.completeness_indicator", 1.0, 3.0, thread=8),
    ]
    tree = layers.SpanTree(spans)
    shares = tree.shares()
    assert shares["cli"] == pytest.approx(6.0)
    assert shares["herglotz"] == pytest.approx(3.0)  # half of [1, 3], all of [3, 5]
    assert shares["sweep"] == pytest.approx(1.0)
    assert sum(shares.values()) == pytest.approx(10.0)
    assert tree.self_time(spans[1]) == pytest.approx(0.0)
