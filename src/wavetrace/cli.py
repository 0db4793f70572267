"""Command-line front-end: sweeps, eigenvalue oracles, verification, fits.

This module is the one writer of artifacts: the library returns plain
values and records, and the commands here fix every file format (the
sweep CSV at .17g, each JSON payload from the records' fields). Every
artifact embeds its run configuration (a JSON's run_config, the RunConfig
fields its command's options bind, for eigs its method's; a verify
report, its inputs and any seed it drew from), so any CSV or JSON output
can be regenerated byte-identically with the same BLAS library and
kernel. Exit codes follow the CI contract: 0 success, 1 verification
failure, 2 usage/config error, 3 numerical failure.

RunConfig declares every run parameter once, on its field: the default,
and the flag, help text and range rule of the option that sets it. Each
command names the fields it binds and gets their options from them;
RunConfig.check sends a flag or config value of the wrong type or out of
range to exit 2 before any work. The `wavetrace` group maps both codes
the library's exceptions decide, once for every subcommand: a numerical
failure exits 3, and any other ValueError the library raises on a run's
input exits 2.
"""

from __future__ import annotations

import json
import math
import os
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields
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
    OverflowError,
)


def _comma_tuple(flag: str, form: str, types, text: str) -> list:
    """text's comma-separated fields, one of each type in turn; a usage
    error naming the flag and its form otherwise."""
    try:
        return [kind(part) for kind, part in zip(types, text.split(","), strict=True)]
    except ValueError:
        raise click.UsageError(f"{flag} wants '{form}', got {text!r}")


def _parse_coef(ctx, param, values) -> list:
    return [_comma_tuple("--coef", "l,m,eps", (int, int, float), text) for text in values]


def _parse_target(ctx, param, text: str) -> HarmonicIndex:
    return HarmonicIndex(*_comma_tuple("--target", "l,m", (int, int), text))


def _option(default, flag: str, help: str, rule=None, **extras):
    """A RunConfig field declared with the option that sets it: its flag,
    help text and click extras, and its range rule (ok, text), which
    RunConfig.check applies to a flag and a config value alike."""
    metadata = {"flag": flag, "help": help, "rule": rule, "extras": extras}
    if default == []:
        return field(default_factory=list, metadata=metadata)
    return field(default=default, metadata=metadata)


_POSITIVE_FINITE = (lambda v: 0 < v < math.inf, "positive and finite")


@dataclass
class RunConfig:
    """Everything a run needs; each artifact embeds its command's fields.

    The one place a run parameter is declared: its default, and the flag,
    help text and range rule of its option, which every command binding the
    field shows; `check` applies the rules.
    """

    surface: str = _option("ball", "--surface",
                           "The ball of --radius, or the star r = R0 (1 + sum eps Re Y_lm) of --coef.",
                           (lambda v: v in ("ball", "star"), "'ball' or 'star'"), type=click.Choice(["ball", "star"]))
    radius: float = _option(1.0, "--radius", "Ball radius, or the star's base radius R0.", _POSITIVE_FINITE)
    coefficients: list = _option([], "--coef", "Star perturbation 'l,m,eps'; repeatable.",  # [[l, m, eps], ...]
                                 type=str, multiple=True, callback=_parse_coef)
    n_theta: int | None = _option(None, "--ntheta", "Surface polar resolution.")
    n_phi: int | None = _option(None, "--nphi", "Surface azimuthal resolution.")
    dirs_n_theta: int | None = _option(None, "--dirs-ntheta", "Direction grid polar resolution.")
    dirs_n_phi: int | None = _option(None, "--dirs-nphi", "Direction grid azimuthal resolution; even.",
                                     (lambda v: v % 2 == 0, "even, so that each direction's antipode is on the grid"))
    k_min: float = _option(3.0, "--kmin", "Lower end of the wavenumber range.")
    k_max: float = _option(6.5, "--kmax", "Upper end of the wavenumber range.", _POSITIVE_FINITE)
    samples: int = _option(350, "--samples", "Equispaced wavenumbers sampled on [kmin, kmax].",
                           (lambda v: v >= 2, "at least 2"))
    seed: int = _option(0, "--seed", "Seeds the random interior points, each taken with its n rotations about z "
                        "(n the grids' common rotation order); nothing else draws.", (lambda v: v >= 0, "nonnegative"))
    interior_count: int | None = _option(None, "--interior-count", "Seeded interior points of the indicator, each "
                                         "taken with its n rotations; default max(2 x the direction count, 500).",
                                         (lambda v: v >= 1, "positive"))
    band_limit: int = _option(8, "--band-limit",
                              "Degree L of the harmonics the single-layer matrix is compressed onto.",
                              (lambda v: v >= 0, "nonnegative"))

    def check(self, bound):
        """Usage error for any field of the wrong type or out of range,
        raised before any work.

        A bool is not an int; an int may stand for a float. A grid
        resolution may be at most _GRID_CAP times the default `resolved`
        gives it. The 0 < k_min < k_max relation binds where the fields the
        command binds include k_min, and so does the rule that the samples
        equispaced on [k_min, k_max] ascend strictly, as the sweep needs;
        coefficients go with the star surface and only with it.
        """
        hints = typing.get_type_hints(RunConfig)
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
            if float in kinds:
                kinds += (int,)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise click.UsageError(f"{f.name} must be {f.type}, got {value!r}")
        for f in fields(self):
            value, rule = getattr(self, f.name), f.metadata["rule"]
            if rule is not None and value is not None and not rule[0](value):
                raise click.UsageError(f"{f.name} must be {rule[1]}, got {value!r}")
        defaults = RunConfig(radius=self.radius, k_max=self.k_max).resolved()
        for name in ("n_theta", "n_phi", "dirs_n_theta", "dirs_n_phi"):
            value, cap = getattr(self, name), _GRID_CAP * getattr(defaults, name)
            if value is not None and value > cap:
                raise click.UsageError(f"{name} must be at most {cap} ({_GRID_CAP}x its k R default), got {value!r}")
        if "k_min" in bound and not (0 < self.k_min < self.k_max):
            raise click.UsageError(f"need 0 < kmin < kmax, got [{self.k_min}, {self.k_max}]")
        if "k_min" in bound and not np.all(np.diff(np.linspace(self.k_min, self.k_max, self.samples)) > 0):
            raise click.UsageError(f"[{self.k_min}, {self.k_max}] is too narrow for {self.samples} ascending samples")
        if (self.surface == "star") != bool(self.coefficients):
            raise click.UsageError(f"coefficients go with the star alone, got {self.coefficients!r} on {self.surface}")

    def resolved(self) -> "RunConfig":
        """Fill resolution defaults from the wavenumber range (k R rules; a
        phi resolution defaults to twice the theta resolution in use), and
        the interior count from the direction grid they give."""
        cfg = RunConfig(**asdict(self))
        k_scale = cfg.k_max * cfg.radius
        if cfg.n_theta is None:
            cfg.n_theta = max(20, math.ceil(2 * k_scale) + 10)
        if cfg.n_phi is None:
            cfg.n_phi = 2 * cfg.n_theta
        if cfg.dirs_n_theta is None:
            cfg.dirs_n_theta = max(8, math.ceil(k_scale) + 5)
        if cfg.dirs_n_phi is None:
            cfg.dirs_n_phi = 2 * cfg.dirs_n_theta
        if cfg.interior_count is None:
            cfg.interior_count = max(2 * cfg.dirs_n_theta * cfg.dirs_n_phi, 500)
        return cfg


# Grid resolutions above _GRID_CAP times their k R default are refused: they
# add no accuracy and their trace matrices outgrow memory.
_GRID_CAP = 4


def _run_options(*names):
    """Decorator adding the options of the named RunConfig fields to a
    command, in the order named, each with its field's default."""
    hints = typing.get_type_hints(RunConfig)
    by_name = {f.name: f for f in fields(RunConfig)}

    def decorate(command):
        for name in reversed(names):
            f = by_name[name]
            attrs = {
                "type": (typing.get_args(hints[name]) or (hints[name],))[0],
                "default": None if f.default is MISSING else f.default,
                "show_default": True,
                "help": f.metadata["help"],
                **f.metadata["extras"],
            }
            command = click.option(f.metadata["flag"], name, **attrs)(command)
        return command

    return decorate


_config_option = click.option("--config", "config_path", type=str, default=None, help="JSON config file.")


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


def _run_config(ctx: click.Context, config_path: str | None, bound) -> tuple[RunConfig, dict]:
    """RunConfig defaults, then config-file keys, then run options given on
    the command line; checked, then resolved. bound holds the RunConfig
    fields the command (for eigs, its method) binds: a config key or a
    given run option outside them is a usage error, and the returned
    run_config holds exactly them."""
    cfg = RunConfig()
    run_options = {f.name for f in fields(RunConfig)}
    given = [(key, value) for key, value in ctx.params.items()
             if key in run_options and ctx.get_parameter_source(key) is ParameterSource.COMMANDLINE]
    for key, value in [*_load_config_file(config_path).items(), *given]:
        if key not in bound:
            raise click.UsageError(f"{key!r} is not an option of this run")
        setattr(cfg, key, value)
    cfg.check(bound)
    cfg = cfg.resolved()
    return cfg, {name: getattr(cfg, name) for name in bound}


def _build_surface(cfg: RunConfig):
    # the ball is the unperturbed star; RunConfig.check refuses coefficients on it
    return make_star_surface(cfg.radius, cfg.coefficients, cfg.n_theta, cfg.n_phi)


def _check_writable(path: str):
    parent = Path(path).resolve().parent
    if Path(path).is_dir() or not parent.is_dir() or not os.access(parent, os.W_OK):
        raise click.UsageError(f"output path {path} is not a writable file")


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class _Main(click.Group):
    """The `wavetrace` group: every subcommand runs on one BLAS thread, so
    its artifact does not depend on OPENBLAS_NUM_THREADS; a numerical
    failure in any subcommand exits 3, and any other ValueError the library
    raises on a run's input exits 2, as a usage error does. LinAlgError is
    a ValueError, so the numerical clause comes first."""

    def invoke(self, ctx):
        try:
            with _one_blas_thread():
                return super().invoke(ctx)
        except NUMERICAL_ERRORS as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            ctx.exit(EXIT_NUMERICAL)
        except ValueError as exc:
            click.echo(f"Error: {exc}", err=True)
            ctx.exit(click.UsageError.exit_code)


@click.group(cls=_Main)
def main():
    """Plane-wave trace completeness testbed."""


@main.command("sweep")
@_run_options("surface", "radius", "coefficients", "n_theta", "n_phi", "dirs_n_theta", "dirs_n_phi",
              "k_min", "k_max", "samples", "seed", "interior_count")
@click.option("--out-csv", type=str, default="sweep.csv", show_default=True,
              help="Write the sampled indicator here.")
@click.option("--out-json", type=str, default="sweep.json", show_default=True,
              help="Write the samples, dips and run configuration here.")
@_config_option
@click.pass_context
def cmd_sweep(ctx, out_csv, out_json, config_path, **flags):
    """Sweep the completeness indicator over k and report dips."""
    cfg, run_config = _run_config(ctx, config_path, flags)
    _check_writable(out_csv)
    _check_writable(out_json)
    if Path(out_csv).resolve() == Path(out_json).resolve():
        raise click.UsageError(f"--out-csv and --out-json name the same file {out_csv}")
    grid = _build_surface(cfg)
    dirs = make_direction_grid(cfg.dirs_n_theta, cfg.dirs_n_phi)
    interior = seed_interior_points(grid, cfg.interior_count, cfg.seed)
    ks = np.linspace(cfg.k_min, cfg.k_max, cfg.samples)
    values, refined = find_dips(make_trace_spectrum(grid, dirs, interior), ks)
    rows = "".join(f"{k:.17g},{v:.17g}\n" for k, v in zip(ks, values))
    Path(out_csv).write_text("k,indicator\n" + rows, encoding="utf-8")
    payload = {
        "config": {
            "indicator": "trace-subspace",
            "surface": grid.descriptor,
            "directions": dirs.descriptor,
            "qr_rtol": float(DEFAULT_QR_RTOL),
            "depth_ratio": float(DEFAULT_DEPTH_RATIO),
            "refine_tol": float(DEFAULT_REFINE_TOL),
            "run_config": run_config,
        },
        "k_samples": ks.tolist(),
        "indicator": values.tolist(),
        "dips": [asdict(dip) for dip in refined],
    }
    Path(out_json).write_text(_json_dumps(payload), encoding="utf-8")
    click.echo(f"{len(refined)} dip(s) in [{cfg.k_min}, {cfg.k_max}]:")
    click.echo("k_refined        indicator    multiplicity")
    for dip in refined:
        click.echo(f"{dip.k:<16.10g} {dip.indicator:<12.3e} {dip.multiplicity}")


@main.command("eigs")
@_run_options("surface", "radius", "coefficients")
@click.option("--method", type=click.Choice(["analytic", "single-layer"]), default="analytic",
              show_default=True,
              help="Bessel zeros of the ball, or dips of the single-layer operator on the surface.")
@_run_options("n_theta", "n_phi", "k_min", "k_max", "samples", "band_limit")
@click.option("--out-json", type=str, default="eigs.json", show_default=True,
              help="Write the eigenvalue records and run configuration here.")
@_config_option
@click.pass_context
def cmd_eigs(ctx, method, out_json, config_path, **flags):
    """List Dirichlet eigenvalue candidates from an oracle."""
    cfg, run_config = _run_config(ctx, config_path, ("radius", "k_max") if method == "analytic" else flags)
    _check_writable(out_json)
    if method == "analytic":
        records = ball_dirichlet_eigs(cfg.radius, cfg.k_max)
    else:
        grid = _build_surface(cfg)
        _, dips = find_dips(
            make_single_layer_spectrum(grid, cfg.band_limit, cfg.k_min, cfg.k_max),
            np.linspace(cfg.k_min, cfg.k_max, cfg.samples),
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
    Path(out_json).write_text(_json_dumps(payload), encoding="utf-8")
    click.echo(f"{len(records)} eigenvalue record(s) up to k = {cfg.k_max}:")
    for rec in records:
        tag = "" if rec.l is None else f"  l={rec.l} n={rec.n}"
        click.echo(f"k = {rec.k:.10g}  mult = {rec.multiplicity}  [{rec.source}]{tag}")


@main.command("verify")
@click.option("--seed", type=int, default=7, show_default=True,
              help="Seeds the orthogonality checks' random densities; no other check draws.")
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
        Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
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
@click.option("--k", "k_max", type=float, required=True, help="The wavenumber of the fit.")
@_run_options("radius", "n_theta", "n_phi", "dirs_n_theta", "dirs_n_phi")
@click.option("--out-json", type=str, default="fit.json", show_default=True,
              help="Write the residual, density norm and run configuration here.")
@_config_option
@click.pass_context
def cmd_fit(ctx, target, out_json, config_path, **flags):
    """Fit one spherical-harmonic trace against the plane-wave trace span."""
    # --k is the working wavenumber, so the resolution rules key off it as k_max
    cfg, run_config = _run_config(ctx, config_path, flags)
    _check_writable(out_json)
    grid = _build_surface(cfg)
    dirs = make_direction_grid(cfg.dirs_n_theta, cfg.dirs_n_phi)
    _, theta, phi = _spherical_coords(grid.nodes)
    residual, density_norm = fit_trace(cfg.k_max, grid, sph_harm(target, theta, phi), dirs)
    payload = {
        "run_config": run_config,
        "target": [target.l, target.m],
        "residual": residual,
        "density_norm": density_norm,
    }
    Path(out_json).write_text(_json_dumps(payload), encoding="utf-8")
    click.echo(f"relative residual = {residual:.12g}")
    click.echo("density L2 norm   = " + ("none" if density_norm is None else f"{density_norm:.12g}"))


if __name__ == "__main__":
    main()
