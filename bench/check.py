"""Reference checker: turns one solve's artifacts into pass/fail operations.

The references live here, not in wavetrace. The ball eigenvalues are the
acceptance-suite constants, written out rather than taken from
``wavetrace.spectra.ball_dirichlet_eigs``, so that a regression in the
special functions cannot check itself. The checker reads artifacts with the
standard library only.

An operation is one thing a workload must get right. A command that exits
nonzero fails every operation that reads its artifact.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Unit-ball Dirichlet eigenvalues k = z_{l,n} in [3, 6.5] and their degree l
# (multiplicity 2l + 1): the acceptance-suite constants.
BALL_EIGENVALUES = [
    (math.pi, 0),
    (4.4934094579090642, 1),
    (5.7634591968945498, 2),
    (2 * math.pi, 0),
]
BALL_K_TOL = 1e-3

# Star r = 1 + 0.1 Re Y_20 on [5.0, 6.5]. By the +-m symmetry the l=2
# quintuple splits into m=0 (simple) and the |m|=1, |m|=2 pairs (double);
# the l=0, n=2 eigenvalue stays simple. The centres only assign dips to
# clusters; agreement is judged between the two oracles at STAR_PAIR_TOL.
STAR_CLUSTERS = [(5.628, 1), (5.712, 2), (5.868, 2), (6.325, 1)]
STAR_CLUSTER_WINDOW = 0.03
STAR_PAIR_TOL = 5e-3

# Failures already on record, by operation name and the wrong value seen.
# They still count in `failed`; they do not make the run incorrect. The
# trace oracle counts a neighbouring eigenvalue's sigma as collapsed and
# reports multiplicity 3 for the m=0 and |m|=1 clusters.
KNOWN_DEFECTS = {
    ("star-cross", "trace@5.628"): "multiplicity 3",
    ("star-cross", "trace@5.712"): "multiplicity 3",
}

# verify --inject-off-spectrum: frozen tolerance and expected report counts
# per check name, as (checks that must pass, negative controls that must fail).
VERIFY_TOLERANCES = {
    "necessity": 1e-8,
    "lemma1-orthogonality": 1e-7,
    "green-reduction": 1e-8,
    "decomposition": 1e-5,
}
VERIFY_COUNTS = {
    "necessity": (24, 3),
    "lemma1-orthogonality": (6, 1),
    "green-reduction": (8, 0),
    "decomposition": (2, 0),
}


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Verdict:
    ops: list
    k_err_max: float  # largest distance from a matched dip to its reference

    @property
    def failed(self) -> list:
        return [op for op in self.ops if not op.ok]

    def unexpected(self, workload: str) -> list:
        """Failures that are not the recorded defect, seen in the recorded way."""
        return [
            op for op in self.failed
            if KNOWN_DEFECTS.get((workload, op.name)) != op.detail.split(";")[0]
        ]


def check(workload: str, outdir: Path, commands: list, exit_codes: list) -> Verdict:
    """Judge one solve from its artifacts, the commands that wrote them and their exit codes."""
    if workload in ("ball-trace", "smoke"):
        argv = commands[0]
        k_lo, k_hi = float(_option(argv, "--kmin")), float(_option(argv, "--kmax"))
        dips = _sweep_dips(outdir / "ball-sweep.json", outdir / "ball-sweep.csv", argv, exit_codes[0])
        return check_ball(dips, [(k, l) for k, l in BALL_EIGENVALUES if k_lo <= k <= k_hi])
    if workload == "star-cross":
        trace = _sweep_dips(outdir / "star-sweep.json", outdir / "star-sweep.csv", commands[0], exit_codes[0])
        single = _eigs_records(outdir / "star-eigs.json", exit_codes[1])
        return check_star(trace, single)
    if workload == "verify-suite":
        return check_verify(_verify_reports(outdir / "verify.jsonl", exit_codes[0]))
    raise ValueError(f"unknown workload {workload!r}")


def check_ball(dips, eigenvalues) -> Verdict:
    """Each eigenvalue needs exactly one dip within BALL_K_TOL, with
    multiplicity 2l + 1; every dip near no eigenvalue is a failed operation."""
    ops, errs = [], []
    for k_ref, l in eigenvalues:
        name = f"ball@{k_ref:.6f}"
        if dips is None:
            ops.append(Op(name, False, "no artifact"))
            continue
        near = [d for d in dips if abs(d[0] - k_ref) <= BALL_K_TOL]
        if len(near) != 1:
            ops.append(Op(name, False, f"{len(near)} dips within {BALL_K_TOL}"))
            continue
        k, mult = near[0]
        errs.append(abs(k - k_ref))
        ok = mult == 2 * l + 1
        ops.append(Op(name, ok, f"multiplicity {mult}; want {2 * l + 1}, |dk|={abs(k - k_ref):.1e}"))
    for k, mult in dips or []:
        if all(abs(k - k_ref) > BALL_K_TOL for k_ref, _ in eigenvalues):
            ops.append(Op(f"spurious@{k:.6f}", False, f"dip at {k:.6f} near no eigenvalue"))
    return Verdict(ops, max(errs, default=0.0))


def check_star(trace, single) -> Verdict:
    """For each cluster and oracle: one dip in the cluster, within
    STAR_PAIR_TOL of the other oracle's, with the symmetry multiplicity."""
    oracles = {"trace": trace, "single-layer": single}
    ops, errs = [], []
    for centre, want in STAR_CLUSTERS:
        found = {
            name: None if dips is None else [d for d in dips if abs(d[0] - centre) <= STAR_CLUSTER_WINDOW]
            for name, dips in oracles.items()
        }
        for name, other in (("trace", "single-layer"), ("single-layer", "trace")):
            op = f"{name}@{centre:.3f}"
            mine, theirs = found[name], found[other]
            if mine is None or theirs is None:
                ops.append(Op(op, False, "no artifact"))
                continue
            if len(mine) != 1 or len(theirs) != 1:
                ops.append(Op(op, False, f"{len(mine)} {name} and {len(theirs)} {other} dips in cluster"))
                continue
            (k, mult), (k_other, _) = mine[0], theirs[0]
            gap = abs(k - k_other)
            if name == "trace":
                errs.append(gap)
            if gap > STAR_PAIR_TOL:
                ops.append(Op(op, False, f"oracles {gap:.1e} apart; want <= {STAR_PAIR_TOL}"))
            else:
                ops.append(Op(op, mult == want, f"multiplicity {mult}; want {want}, oracles {gap:.1e} apart"))
    for name, dips in oracles.items():
        for k, _ in dips or []:
            if all(abs(k - centre) > STAR_CLUSTER_WINDOW for centre, _ in STAR_CLUSTERS):
                ops.append(Op(f"{name}-spurious@{k:.6f}", False, f"{name} dip at {k:.6f} in no cluster"))
    return Verdict(ops, max(errs, default=0.0))


def check_verify(reports) -> Verdict:
    """Every check passes and every negative control fails, judged on the
    residual against the frozen tolerance; missing reports fail."""
    ops = []
    for check_name, (n_checks, n_controls) in VERIFY_COUNTS.items():
        tol = VERIFY_TOLERANCES[check_name]
        for control, count in ((False, n_checks), (True, n_controls)):
            kind = "control" if control else "check"
            got = [] if reports is None else [
                r for r in reports if r["check"] == check_name and bool(r["expected_failure"]) == control
            ]
            for i in range(count):
                name = f"{check_name}/{kind}{i}"
                if i >= len(got):
                    ops.append(Op(name, False, "report missing"))
                    continue
                r = got[i]
                residual = float(r["residual"])
                if control:
                    ok = residual > tol and not r["passed"]
                    ops.append(Op(name, ok, f"residual {residual:.1e}; must exceed {tol:.0e}"))
                else:
                    ok = residual <= min(tol, float(r["tolerance"])) and r["passed"]
                    ops.append(Op(name, ok, f"residual {residual:.1e}; must not exceed {tol:.0e}"))
            for r in got[count:]:
                ops.append(Op(f"{check_name}/extra-{kind}", False, "more reports than expected"))
    if reports is not None:
        for r in reports:
            if r["check"] not in VERIFY_COUNTS:
                ops.append(Op(f"unknown/{r['check']}", False, "check name not in the reference"))
    return Verdict(ops, 0.0)


def _option(argv: list, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _sweep_dips(json_path: Path, csv_path: Path, argv: list, exit_code: int):
    """(k, multiplicity) of each refined dip, or None when the sweep failed
    or its CSV and JSON artifacts disagree with each other or the request."""
    if exit_code != 0 or not json_path.is_file() or not csv_path.is_file():
        return None
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    with csv_path.open(newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["k", "indicator"] or len(rows) != int(_option(argv, "--samples")) + 1:
        return None
    ks = [float(r[0]) for r in rows[1:]]
    vals = [float(r[1]) for r in rows[1:]]
    if ks != payload["k_samples"] or vals != payload["indicator"]:
        return None
    if ks[0] != float(_option(argv, "--kmin")) or ks[-1] != float(_option(argv, "--kmax")):
        return None
    if any(not 0.0 <= v <= 1.0 for v in vals):
        return None
    return [(float(d["k"]), int(d["multiplicity"])) for d in payload["dips"]]


def _eigs_records(json_path: Path, exit_code: int):
    if exit_code != 0 or not json_path.is_file():
        return None
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    return [(float(r["k"]), int(r["multiplicity"])) for r in payload["records"]]


def _verify_reports(jsonl_path: Path, exit_code: int):
    if exit_code != 0 or not jsonl_path.is_file():
        return None
    lines = jsonl_path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]
