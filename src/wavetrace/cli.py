"""Command-line front-end: sweeps, eigenvalue oracles, verification, fits.

This module is the one writer of artifacts: the library returns plain
values and records, and the commands here fix every file format (the
sweep CSV at .17g, each JSON payload from the records' fields). Every
artifact embeds its run configuration (a JSON's run_config, the RunConfig
fields its command's options bind; a verify report, its inputs and any
seed it drew from), so any CSV or JSON output can be regenerated
byte-identically with the same BLAS library and kernel. Exit codes follow
the CI contract: 0 success, 1 verification failure, 2 usage/config error,
3 numerical failure.

RunConfig declares every run parameter once: --help shows its defaults,
and RunConfig.check sends a flag or config value of the wrong type or out
of range to exit 2 before any work. The `wavetrace` group maps a numerical
failure in any subcommand to exit 3.
"""

from __future__ import annotations

import json
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from .herglotz import (
    DEFAULT_QR_RTOL,
    IllPosedIndicatorError,
    fit_trace,
    make_trace_spectrum,
    seed_interior_points,
)
from .specfun import HarmonicIndex, sph_harm
from .spectra import (
    EigenvalueRecord,
    InterpolationError,
    _check_band_limit,
    ball_dirichlet_eigs,
    make_single_layer_spectrum,
)
from .surface import _spherical_coords, make_direction_grid, make_star_surface
from .sweep import (
    DEFAULT_DEPTH_RATIO,
    DEFAULT_REFINE_TOL,
    BracketError,
    _one_blas_thread,
    find_dips,
)
from .verify import InconclusiveCheckError, run_default_suite

EXIT_VERIFY_FAIL = 1
EXIT_NUMERICAL = 3

NUMERICAL_ERRORS = (
    IllPosedIndicatorError,
    BracketError,
    InconclusiveCheckError,
    InterpolationError,
    np.linalg.LinAlgError,
    MemoryError,
)


@dataclass
class RunConfig:
    """Everything a run needs; each artifact embeds its command's fields.

    The one place a run parameter's default is written: the commands'
    options show these, and `check` holds each field's range.
    """

    surface: str = "ball"
    radius: float = 1.0
    coefficients: list = field(default_factory=list)  # [[l, m, eps], ...]
    n_theta: int | None = None
    n_phi: int | None = None
    dirs_n_theta: int | None = None
    dirs_n_phi: int | None = None
    k_min: float = 3.0
    k_max: float = 6.5
    samples: int = 350
    seed: int = 0
    interior_count: int | None = None
    refine_tol: float = DEFAULT_REFINE_TOL
    band_limit: int = 8

    def check(self, k_sweep: bool):
        """Usage error for any field of the wrong type or out of range,
        raised before any work.

        A bool is not an int; an int may stand for a float. The
        0 < k_min < k_max relation binds only where a k sweep runs.
        """
        hints = typing.get_type_hints(RunConfig)
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
            if float in kinds:
                kinds += (int,)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise click.UsageError(f"{f.name} must be {f.type}, got {value!r}")
        for name, (ok, rule) in _RANGES.items():
            value = getattr(self, name)
            if value is not None and not ok(value):
                raise click.UsageError(f"{name} must be {rule}, got {value!r}")
        n_theta, dirs_n_theta = _theta_defaults(self.k_max * self.radius)
        caps = {"n_theta": n_theta, "n_phi": 2 * n_theta, "dirs_n_theta": dirs_n_theta, "dirs_n_phi": 2 * dirs_n_theta}
        for name, default in caps.items():
            value = getattr(self, name)
            if value is not None and value > _GRID_CAP * default:
                raise click.UsageError(
                    f"{name} must be at most {_GRID_CAP * default} ({_GRID_CAP}x its k R default), got {value!r}"
                )
        if k_sweep and not (0 < self.k_min < self.k_max):
            raise click.UsageError(f"need 0 < kmin < kmax, got [{self.k_min}, {self.k_max}]")
        if self.surface == "ball" and self.coefficients:
            raise click.UsageError(f"coefficients perturb only the star surface, got {self.coefficients!r} on the ball")

    def resolved(self) -> "RunConfig":
        """Fill resolution defaults from the wavenumber range (k R rules),
        and the interior count from the direction grid they give."""
        cfg = RunConfig(**asdict(self))
        n_theta, dirs_n_theta = _theta_defaults(cfg.k_max * cfg.radius)
        if cfg.n_theta is None:
            cfg.n_theta = n_theta
        if cfg.n_phi is None:
            cfg.n_phi = 2 * cfg.n_theta
        if cfg.dirs_n_theta is None:
            cfg.dirs_n_theta = dirs_n_theta
        if cfg.dirs_n_phi is None:
            cfg.dirs_n_phi = 2 * cfg.dirs_n_theta
        if cfg.interior_count is None:
            cfg.interior_count = max(2 * cfg.dirs_n_theta * cfg.dirs_n_phi, 500)
        return cfg


_RANGES = {
    "surface": (lambda v: v in ("ball", "star"), "'ball' or 'star'"),
    "radius": (lambda v: 0 < v < math.inf, "positive and finite"),
    "dirs_n_phi": (lambda v: v % 2 == 0, "even, so that each direction's antipode is on the grid"),
    "k_max": (lambda v: 0 < v < math.inf, "positive and finite"),
    "samples": (lambda v: v >= 2, "at least 2"),
    "seed": (lambda v: v >= 0, "nonnegative"),
    "interior_count": (lambda v: v >= 1, "positive"),
    "refine_tol": (lambda v: 0 < v < math.inf, "positive and finite"),
    "band_limit": (lambda v: v >= 0, "nonnegative"),
}


# Grid resolutions above _GRID_CAP times their k R default are refused: they
# add no accuracy and their trace matrices outgrow memory.
_GRID_CAP = 4


def _theta_defaults(k_scale: float) -> tuple[int, int]:
    """Default (surface, direction) grid theta resolutions at k R = k_scale.
    A phi resolution defaults to twice the theta resolution in use."""
    return max(20, math.ceil(2 * k_scale) + 10), max(8, math.ceil(k_scale) + 5)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError(f"config file {path} must hold a JSON object")
    return data


def _run_config(ctx: click.Context, config_path: str | None, k_sweep: bool, **flags) -> tuple[RunConfig, dict]:
    """RunConfig defaults, then config-file keys, then flags given on the
    command line; checked, then resolved. The command's fields are the names
    in flags, the RunConfig fields its options bind: a config key outside
    them is a usage error, and the returned run_config holds exactly them."""
    cfg = RunConfig()
    for key, value in _load_config_file(config_path).items():
        if key not in flags:
            raise click.UsageError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    for key, value in flags.items():
        if ctx.get_parameter_source(key) is ParameterSource.COMMANDLINE:
            setattr(cfg, key, value)
    cfg.check(k_sweep)
    cfg = cfg.resolved()
    return cfg, {name: getattr(cfg, name) for name in flags}


def _parse_coef(ctx, param, values) -> list:
    out = []
    for text in values:
        parts = text.split(",")
        if len(parts) != 3:
            raise click.UsageError(f"--coef wants 'l,m,eps', got {text!r}")
        try:
            l, m, eps = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise click.UsageError(f"--coef wants 'l,m,eps' numbers, got {text!r}")
        out.append([l, m, eps])
    return out


def _parse_target(ctx, param, text: str) -> HarmonicIndex:
    parts = text.split(",")
    if len(parts) != 2:
        raise click.UsageError(f"--target wants 'l,m', got {text!r}")
    try:
        l, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise click.UsageError(f"--target wants integers 'l,m', got {text!r}")
    try:
        return HarmonicIndex(l, m)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _build_surface(cfg: RunConfig):
    # the ball is the unperturbed star; RunConfig.check refuses coefficients on it
    try:
        return make_star_surface(cfg.radius, cfg.coefficients, cfg.n_theta, cfg.n_phi)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"bad surface configuration: {exc}")


def _build_dirs(cfg: RunConfig):
    try:
        return make_direction_grid(cfg.dirs_n_theta, cfg.dirs_n_phi)
    except ValueError as exc:
        raise click.UsageError(f"bad direction grid: {exc}")


def _check_writable(path: str):
    parent = Path(path).resolve().parent
    if Path(path).is_dir() or not parent.is_dir() or not os.access(parent, os.W_OK):
        raise click.UsageError(f"output path {path} is not a writable file")


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class _Main(click.Group):
    """The `wavetrace` group: every subcommand runs on one BLAS thread, so
    its artifact does not depend on OPENBLAS_NUM_THREADS, and a numerical
    failure in any subcommand exits 3."""

    def invoke(self, ctx):
        try:
            with _one_blas_thread():
                return super().invoke(ctx)
        except NUMERICAL_ERRORS as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            ctx.exit(EXIT_NUMERICAL)


@click.group(cls=_Main)
def main():
    """Plane-wave trace completeness testbed."""


@main.command("sweep")
@click.option("--surface", type=click.Choice(["ball", "star"]), default=RunConfig.surface, show_default=True)
@click.option("--radius", type=float, default=RunConfig.radius, show_default=True)
@click.option("--coef", "coefficients", multiple=True, callback=_parse_coef,
              help="Star perturbation 'l,m,eps'; repeatable.")
@click.option("--ntheta", "n_theta", type=int, help="Surface polar resolution.")
@click.option("--nphi", "n_phi", type=int, help="Surface azimuthal resolution.")
@click.option("--dirs-ntheta", "dirs_n_theta", type=int)
@click.option("--dirs-nphi", "dirs_n_phi", type=int)
@click.option("--kmin", "k_min", type=float, default=RunConfig.k_min, show_default=True)
@click.option("--kmax", "k_max", type=float, default=RunConfig.k_max, show_default=True)
@click.option("--samples", type=int, default=RunConfig.samples, show_default=True)
@click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
@click.option("--interior-count", type=int)
@click.option("--refine-tol", type=float, default=RunConfig.refine_tol, show_default=True)
@click.option("--out-csv", type=str, default="sweep.csv", show_default=True)
@click.option("--out-json", type=str, default="sweep.json", show_default=True)
@click.option("--config", "config_path", type=str, default=None, help="JSON config file.")
@click.pass_context
def cmd_sweep(ctx, out_csv, out_json, config_path, **flags):
    """Sweep the completeness indicator over k and report dips."""
    cfg, run_config = _run_config(ctx, config_path, k_sweep=True, **flags)
    _check_writable(out_csv)
    _check_writable(out_json)
    if Path(out_csv).resolve() == Path(out_json).resolve():
        raise click.UsageError(f"--out-csv and --out-json name the same file {out_csv}")
    grid = _build_surface(cfg)
    dirs = _build_dirs(cfg)
    interior = seed_interior_points(grid, cfg.interior_count, cfg.seed)
    ks = np.linspace(cfg.k_min, cfg.k_max, cfg.samples)
    values, refined = find_dips(make_trace_spectrum(grid, dirs, interior), ks, cfg.refine_tol)
    _write_text(out_csv, "k,indicator\n" + "".join(f"{k:.17g},{v:.17g}\n" for k, v in zip(ks, values)))
    payload = {
        "config": {
            "indicator": "trace-subspace",
            "surface": grid.descriptor,
            "directions": dirs.descriptor,
            "qr_rtol": float(DEFAULT_QR_RTOL),
            "depth_ratio": float(DEFAULT_DEPTH_RATIO),
            "run_config": run_config,
        },
        "k_samples": ks.tolist(),
        "indicator": values.tolist(),
        "dips": [asdict(dip) for dip in refined],
    }
    _write_text(out_json, _json_dumps(payload))
    click.echo(f"{len(refined)} dip(s) in [{cfg.k_min}, {cfg.k_max}]:")
    click.echo("k_refined        indicator    multiplicity")
    for dip in refined:
        click.echo(f"{dip.k:<16.10g} {dip.indicator:<12.3e} {dip.multiplicity}")


@main.command("eigs")
@click.option("--surface", type=click.Choice(["ball", "star"]), default=RunConfig.surface, show_default=True)
@click.option("--radius", type=float, default=RunConfig.radius, show_default=True)
@click.option("--coef", "coefficients", multiple=True, callback=_parse_coef)
@click.option("--method", type=click.Choice(["analytic", "single-layer"]), default="analytic",
              show_default=True)
@click.option("--ntheta", "n_theta", type=int)
@click.option("--nphi", "n_phi", type=int)
@click.option("--kmin", "k_min", type=float, default=RunConfig.k_min, show_default=True)
@click.option("--kmax", "k_max", type=float, default=RunConfig.k_max, show_default=True)
@click.option("--samples", type=int, default=RunConfig.samples, show_default=True)
@click.option("--refine-tol", type=float, default=RunConfig.refine_tol, show_default=True)
@click.option("--band-limit", type=int, default=RunConfig.band_limit, show_default=True)
@click.option("--out-json", type=str, default="eigs.json", show_default=True)
@click.option("--config", "config_path", type=str, default=None)
@click.pass_context
def cmd_eigs(ctx, method, out_json, config_path, **flags):
    """List Dirichlet eigenvalue candidates from an oracle."""
    cfg, run_config = _run_config(ctx, config_path, k_sweep=method == "single-layer", **flags)
    _check_writable(out_json)
    if method == "analytic":
        if cfg.surface != "ball":
            raise click.UsageError("analytic spectrum exists only for the ball")
        try:
            records = ball_dirichlet_eigs(cfg.radius, cfg.k_max)
        except ValueError as exc:
            raise click.UsageError(f"bad analytic spectrum request: {exc}")
    else:
        grid = _build_surface(cfg)
        try:
            _check_band_limit(grid, cfg.band_limit)
        except ValueError as exc:
            raise click.UsageError(f"bad band limit: {exc}")
        _, dips = find_dips(
            make_single_layer_spectrum(grid, cfg.band_limit, cfg.k_min, cfg.k_max),
            np.linspace(cfg.k_min, cfg.k_max, cfg.samples),
            cfg.refine_tol,
        )
        records = [
            EigenvalueRecord(k=dip.k, multiplicity=dip.multiplicity, source="single-layer")
            for dip in dips
        ]
    payload = {
        "run_config": run_config,
        "method": method,
        "records": [asdict(rec) for rec in records],
    }
    _write_text(out_json, _json_dumps(payload))
    click.echo(f"{len(records)} eigenvalue record(s) up to k = {cfg.k_max}:")
    for rec in records:
        tag = "" if rec.l is None else f"  l={rec.l} n={rec.n}"
        click.echo(f"k = {rec.k:.10g}  mult = {rec.multiplicity}  [{rec.source}]{tag}")


@main.command("verify")
@click.option("--seed", type=int, default=7, show_default=True,
              help="Seeds the necessity checks' directions and the orthogonality checks' densities.")
@click.option("--inject-off-spectrum", is_flag=True, default=False,
              help="Add negative controls that must fail by design.")
@click.option("--out", "out_path", type=str, default=None, help="Also write the JSON lines here.")
def cmd_verify(seed, inject_off_spectrum, out_path):
    """Run the full proof-step verification suite; exit 0 iff all pass."""
    if seed < 0:
        raise click.UsageError(f"seed must be nonnegative, got {seed}")
    if out_path is not None:
        _check_writable(out_path)
    reports = run_default_suite(seed=seed, inject_off_spectrum=inject_off_spectrum)
    lines = [json.dumps(asdict(r), sort_keys=True) for r in reports]
    for line in lines:
        click.echo(line)
    if out_path is not None:
        _write_text(out_path, "\n".join(lines) + "\n")
    genuine_fail = [r for r in reports if not r.expected_failure and not r.passed]
    vacuous_controls = [r for r in reports if r.expected_failure and r.passed]
    n_controls = sum(1 for r in reports if r.expected_failure)
    click.echo(
        f"{len(reports) - len(genuine_fail) - n_controls}/{len(reports) - n_controls} checks passed"
        + (f"; {n_controls} negative control(s) failed as designed" if n_controls else "")
    )
    if genuine_fail or vacuous_controls:
        for r in genuine_fail:
            click.echo(f"FAILED: {r.check} residual={r.residual:.3e} > {r.tolerance:.1e}", err=True)
        for r in vacuous_controls:
            click.echo(f"CONTROL DID NOT DISCRIMINATE: {r.check}", err=True)
        sys.exit(EXIT_VERIFY_FAIL)


@main.command("fit")
@click.option("--target", required=True, callback=_parse_target, help="Spherical-harmonic target 'l,m'.")
@click.option("--k", "k_max", type=float, required=True)
@click.option("--radius", type=float, default=RunConfig.radius, show_default=True)
@click.option("--ntheta", "n_theta", type=int)
@click.option("--nphi", "n_phi", type=int)
@click.option("--dirs-ntheta", "dirs_n_theta", type=int)
@click.option("--dirs-nphi", "dirs_n_phi", type=int)
@click.option("--out-json", type=str, default="fit.json", show_default=True)
@click.option("--config", "config_path", type=str, default=None)
@click.pass_context
def cmd_fit(ctx, target, out_json, config_path, **flags):
    """Fit one spherical-harmonic trace against the plane-wave trace span."""
    # --k is the working wavenumber, so the resolution rules key off it as k_max
    cfg, run_config = _run_config(ctx, config_path, k_sweep=False, **flags)
    _check_writable(out_json)
    grid = _build_surface(cfg)
    dirs = _build_dirs(cfg)
    _, theta, phi = _spherical_coords(grid.nodes)
    residual, density_norm = fit_trace(cfg.k_max, grid, sph_harm(target, theta, phi), dirs)
    payload = {
        "run_config": run_config,
        "target": [target.l, target.m],
        "residual": residual,
        "density_norm": density_norm,
    }
    _write_text(out_json, _json_dumps(payload))
    click.echo(f"relative residual = {residual:.12g}")
    click.echo("density L2 norm   = " + ("none" if density_norm is None else f"{density_norm:.12g}"))


if __name__ == "__main__":
    main()
