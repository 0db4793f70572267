"""The benchmark's workloads: the wavetrace CLI commands each one runs.

Every workload is closed-loop with one client: its commands run back to
back in one process, and the next solve starts only after the previous one
has written its artifacts. The workload seed goes to the program's own
``--seed`` option; ``eigs`` takes no seed and is deterministic.
"""

from __future__ import annotations

from pathlib import Path

# Criterion-1 problem at a reduced sample count: 24x48 sphere, 12x24
# directions, 576 interior points (a 1728x288 stacked matrix). 71 samples
# resolve all four dips in [3, 6.5]; 36 samples find only two.
BALL_TRACE = [
    "sweep", "--surface", "ball", "--radius", "1",
    "--ntheta", "24", "--nphi", "48", "--dirs-ntheta", "12", "--dirs-nphi", "24",
    "--interior-count", "576", "--kmin", "3", "--kmax", "6.5", "--samples", "71",
]

# Criterion-6 cross-oracle problem on the star r = 1 + 0.1 Re Y_20 (24x48).
STAR_SURFACE = ["--surface", "star", "--coef", "2,0,0.1", "--ntheta", "24", "--nphi", "48"]
STAR_RANGE = ["--kmin", "5.0", "--kmax", "6.5", "--samples", "76"]
STAR_SWEEP = (
    ["sweep"] + STAR_SURFACE + STAR_RANGE
    + ["--dirs-ntheta", "10", "--dirs-nphi", "20", "--interior-count", "500"]
)
STAR_EIGS = ["eigs"] + STAR_SURFACE + STAR_RANGE + ["--method", "single-layer", "--band-limit", "8"]

# Criterion-8 tiny problem, for the benchmark's own tests: one dip, at pi.
SMOKE = [
    "sweep", "--surface", "ball", "--radius", "1",
    "--ntheta", "16", "--nphi", "32", "--dirs-ntheta", "8", "--dirs-nphi", "16",
    "--interior-count", "300", "--kmin", "3.0", "--kmax", "3.3", "--samples", "12",
]

WORKLOADS = ("ball-trace", "star-cross", "verify-suite")
SMOKE_WORKLOAD = "smoke"


def commands(workload: str, seed: int, workdir: Path) -> list[list[str]]:
    """CLI argument lists for one solve, writing artifacts under workdir."""
    seed_args = ["--seed", str(seed)]
    if workload == "ball-trace":
        return [BALL_TRACE + seed_args + _sweep_outputs(workdir, "ball")]
    if workload == "smoke":
        return [SMOKE + seed_args + _sweep_outputs(workdir, "ball")]
    if workload == "star-cross":
        return [
            STAR_SWEEP + seed_args + _sweep_outputs(workdir, "star"),
            STAR_EIGS + ["--out-json", str(workdir / "star-eigs.json")],
        ]
    if workload == "verify-suite":
        return [["verify", "--inject-off-spectrum"] + seed_args + ["--out", str(workdir / "verify.jsonl")]]
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_outputs(workdir: Path, stem: str) -> list[str]:
    return ["--out-csv", str(workdir / f"{stem}-sweep.csv"), "--out-json", str(workdir / f"{stem}-sweep.json")]


def artifacts(workdir: Path) -> list[Path]:
    """Every CSV, JSON and JSONL artifact a solve wrote, in a fixed order."""
    return sorted(p for p in workdir.iterdir() if p.suffix in (".csv", ".json", ".jsonl"))
