import ast
import hashlib
import importlib.util
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import wavetrace
import wavetrace.cli
import wavetrace.herglotz
import wavetrace.spectra
import wavetrace.sweep
import wavetrace.verify
from wavetrace import BracketError
from wavetrace.cli import EXIT_VERIFY_FAIL, RunConfig, main
from wavetrace.sweep import _blas_threads, _openblas_thread_controls

from conftest import NO_AVX512


@pytest.fixture()
def runner():
    return CliRunner()


FAST_SWEEP = [
    "--kmin", "1.5", "--kmax", "2.5", "--samples", "10",
    "--ntheta", "12", "--nphi", "24",
    "--dirs-ntheta", "6", "--dirs-nphi", "12",
    "--interior-count", "200", "--seed", "42",
]

# Criterion-8 problem: one dip, at pi
CRITERION8_SWEEP = [
    "sweep", "--kmin", "3.0", "--kmax", "3.3", "--samples", "12",
    "--ntheta", "16", "--nphi", "32", "--dirs-ntheta", "8", "--dirs-nphi", "16",
    "--interior-count", "300", "--seed", "42",
]

STAR_SINGLE_LAYER = [
    "eigs", "--surface", "star", "--coef", "2,0,0.1", "--method", "single-layer",
    "--kmin", "2.9", "--kmax", "3.4", "--samples", "26",
    "--ntheta", "16", "--nphi", "32", "--band-limit", "6",
]

# 50 samples on a range this narrow round to repeated wavenumbers
NARROW_K_RANGE = ["--kmin", "3", "--kmax", "3.000000000000001", "--samples", "50"]


# The flags of every subcommand, in the order `--help` lists them: adding,
# removing or moving one changes the command-line contract, so it must
# change this list too
CLI_FLAGS = {
    "sweep": [
        "--surface", "--radius", "--coef", "--ntheta", "--nphi", "--dirs-ntheta", "--dirs-nphi",
        "--kmin", "--kmax", "--samples", "--seed", "--interior-count",
        "--out-csv", "--out-json", "--config", "--help",
    ],
    "eigs": [
        "--surface", "--radius", "--coef", "--method", "--ntheta", "--nphi", "--kmin", "--kmax",
        "--samples", "--band-limit", "--out-json", "--config", "--help",
    ],
    "verify": ["--seed", "--inject-off-spectrum", "--out", "--help"],
    "fit": [
        "--target", "--k", "--radius", "--ntheta", "--nphi", "--dirs-ntheta",
        "--dirs-nphi", "--out-json", "--config", "--help",
    ],
}


def test_flag_sets_unchanged(runner):
    assert set(main.commands) == set(CLI_FLAGS)
    for command, flags in CLI_FLAGS.items():
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0, result.output
        assert re.findall(r"^  (--[\w-]+)", result.output, re.M) == flags, command


def test_benchmark_command_lines_parse(tmp_path):
    # every command line of the benchmark's workloads parses, so a flag the
    # benchmark passes cannot be renamed or removed here unnoticed; nothing runs
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in (*workloads.WORKLOADS, workloads.SMOKE_WORKLOAD):
        for argv in workloads.commands(workload, 0, tmp_path):
            main.commands[argv[0]].make_context(argv[0], argv[1:])


# The RunConfig fields: adding or removing one changes the run parameters,
# so it must change this set too
RUN_CONFIG_FIELDS = {
    "surface", "radius", "coefficients", "n_theta", "n_phi", "dirs_n_theta", "dirs_n_phi",
    "k_min", "k_max", "samples", "seed", "interior_count", "band_limit",
}

# The RunConfig fields each command's options bind, for eigs each method's
# (fit's --k binds k_max): the keys its config file may set, the run options
# its command line may give, and its artifact's run_config holds
COMMAND_FIELDS = {
    "sweep": {
        "surface", "radius", "coefficients", "n_theta", "n_phi", "dirs_n_theta", "dirs_n_phi",
        "k_min", "k_max", "samples", "seed", "interior_count",
    },
    "eigs-analytic": {"radius", "k_max"},
    "eigs-single-layer": {
        "surface", "radius", "coefficients", "n_theta", "n_phi", "k_min", "k_max", "samples",
        "band_limit",
    },
    "fit": {"k_max", "radius", "n_theta", "n_phi", "dirs_n_theta", "dirs_n_phi"},
}


def test_run_config_fields_unchanged():
    assert set(asdict(RunConfig())) == RUN_CONFIG_FIELDS
    # no field is out of every command's reach
    assert set().union(*COMMAND_FIELDS.values()) == RUN_CONFIG_FIELDS


def test_no_command_spells_a_run_option_by_hand():
    # a run option is declared once, on its RunConfig field, so deleting the
    # field deletes its flag, help text and range rule; fit's --k binds k_max
    # under its own flag, and verify's --seed binds no field
    flags = {
        param.opts[0] for command in ("sweep", "eigs") for param in main.commands[command].params
        if param.name in RUN_CONFIG_FIELDS
    }
    assert len(flags) == len(RUN_CONFIG_FIELDS)
    tree = ast.parse(inspect.getsource(wavetrace.cli))
    spelled = [
        decorator.args[0].value
        for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in ("cmd_sweep", "cmd_eigs", "cmd_fit")
        for decorator in node.decorator_list
        if isinstance(decorator, ast.Call) and ast.unparse(decorator.func) == "click.option"
    ]
    assert {"--method", "--target", "--k", "--out-json"} <= set(spelled)
    assert flags.isdisjoint(spelled), sorted(flags.intersection(spelled))


@pytest.mark.parametrize("command", ["sweep", "eigs", "fit"])
def test_help_shows_run_config_defaults(command):
    cmd = main.commands[command]
    ctx = click.Context(cmd, info_name=command)
    defaults = RunConfig()
    bound = [p for p in cmd.params if hasattr(defaults, p.name) and not p.required]
    assert bound
    for param in bound:
        _, help_text = param.get_help_record(ctx)
        default = getattr(defaults, param.name)
        if default is None or default == []:
            assert "[default:" not in help_text, param.name
        else:
            assert f"[default: {default}]" in help_text, param.name


def test_a_flag_reads_the_same_in_every_help():
    # a flag binding the same RunConfig field in several subcommands, and
    # --config, has one help line; verify's --seed binds no field
    bound = {
        "sweep": COMMAND_FIELDS["sweep"],
        "eigs": COMMAND_FIELDS["eigs-analytic"] | COMMAND_FIELDS["eigs-single-layer"],
        "fit": COMMAND_FIELDS["fit"],
        "verify": set(),
    }
    records = {}
    for name, cmd in main.commands.items():
        ctx = click.Context(cmd, info_name=name)
        for param in cmd.params:
            if param.name in bound[name] | {"config_path"}:
                records.setdefault(param.opts[0], {})[name] = param.get_help_record(ctx)
    shared = {flag: set(by_command.values()) for flag, by_command in records.items() if len(by_command) > 1}
    assert set(shared) == {
        "--surface", "--radius", "--coef", "--ntheta", "--nphi", "--dirs-ntheta", "--dirs-nphi",
        "--kmin", "--kmax", "--samples", "--config",
    }
    assert all(len(lines) == 1 for lines in shared.values()), shared
    # these say what they set, not only their default
    for flag in ("--coef", "--ntheta", "--nphi", "--dirs-ntheta", "--dirs-nphi", "--config"):
        [(_, help_text)] = shared[flag]
        assert help_text, flag


@pytest.mark.parametrize("command", sorted(CLI_FLAGS))
def test_every_option_has_help_text(command):
    # a type and a default do not say what an option sets
    params = main.commands[command].params
    assert params
    for param in params:
        assert param.help and param.help.strip(), param.opts[0]


def test_phi_resolution_defaults_to_twice_the_theta_in_use():
    cfg = RunConfig(n_theta=32, dirs_n_theta=14).resolved()
    assert (cfg.n_phi, cfg.dirs_n_phi) == (64, 28)
    default = RunConfig().resolved()
    assert (default.n_phi, default.dirs_n_phi) == (2 * default.n_theta, 2 * default.dirs_n_theta)


def test_interior_count_defaults_from_the_direction_grid():
    # the counts of the benchmark's ball and star sweeps
    assert RunConfig(dirs_n_theta=12, dirs_n_phi=24).resolved().interior_count == 576
    assert RunConfig(dirs_n_theta=10, dirs_n_phi=20).resolved().interior_count == 500
    assert RunConfig(dirs_n_theta=12, dirs_n_phi=24, interior_count=300).resolved().interior_count == 300


def test_grid_cap_admits_the_phi_derived_from_a_capped_theta():
    # at k_max 6.5 the k R theta defaults are 23 and 12, capped at 4x
    RunConfig(n_theta=92, dirs_n_theta=48).check(RUN_CONFIG_FIELDS)
    cfg = RunConfig(n_theta=92, dirs_n_theta=48).resolved()
    cfg.check(RUN_CONFIG_FIELDS)
    for name, value in [("n_theta", 93), ("n_phi", 185), ("dirs_n_theta", 49), ("dirs_n_phi", 97)]:
        with pytest.raises(click.UsageError, match=name):
            RunConfig(**{name: value}).check(RUN_CONFIG_FIELDS)


@pytest.mark.parametrize(
    "args, config",
    [
        ([*STAR_SINGLE_LAYER, "--samples", "1"], None),
        ([*STAR_SINGLE_LAYER, "--band-limit", "-1"], None),
        (["sweep", *FAST_SWEEP, "--interior-count", "0"], None),
        (["sweep", *FAST_SWEEP, "--refine-tol", "0"], None),
        (["eigs", "--radius", "0"], None),
        (["eigs", "--radius", "-1"], None),
        (["fit", "--target", "0,0", "--k", "1.0", "--ridge", "-1"], None),
        (["fit", "--target", "0,0", "--k", "nan"], None),
        (["sweep", *FAST_SWEEP, "--kmax", "inf"], None),
        (["sweep", *FAST_SWEEP, "--seed", "-1"], None),
        (["verify", "--seed", "-1"], None),
        (["sweep", *FAST_SWEEP, "--depth-ratio", "1"], None),
        (["sweep", *FAST_SWEEP, "--threads", "0"], None),
        (["eigs", "--method", "single-layer"], {"samples": "40"}),
        (["eigs"], {"threads": "2"}),
        (["eigs", "--method", "single-layer"], {"band_limit": True}),
        (["eigs"], {"gap_ratio": 0}),
        (["sweep", *FAST_SWEEP, "--surface", "star"], {"coefficients": [5]}),
        (["sweep", "--surface", "star", "--coef", "2,0,0.1"], {"n_theta": 100000000}),
        (["sweep", *FAST_SWEEP, "--dirs-nphi", "100000"], None),
        (["eigs", "--kmax", "64"], None),
        (["eigs", "--radius", "2", "--kmax", "32"], None),
        (["sweep", *FAST_SWEEP, "--surface", "star", "--coef", "2,0,nan"], None),
        ([*STAR_SINGLE_LAYER, "--coef", "2,0,inf"], None),
        (["eigs", "--surface", "star", "--method", "single-layer"], {"coefficients": [[2, 0, float("nan")]]}),
        (["sweep", *FAST_SWEEP, "--depth-ratio", "0.1"], None),
        (["eigs"], {"gap_ratio": 10.0}),
        (["sweep", *FAST_SWEEP, "--threads", "2"], None),
        (["eigs"], {"threads": 2}),
        (["fit", "--target", "0,0", "--k", "1.0"], {"surface": "star", "coefficients": [[2, 0, 0.1]]}),
        (["eigs", "--surface", "star", "--coef", "2,0,0.1", "--ntheta", "12", "--nphi", "24",
          "--kmin", "5", "--kmax", "5.2", "--samples", "5", "--method", "single-layer",
          "--band-limit", "20"], None),
        ([*STAR_SINGLE_LAYER, "--ntheta", "48", "--nphi", "96", "--band-limit", "65"], None),
        (["fit", "--target", "65,0", "--k", "1"], None),
        (["fit", "--target", "1000,0", "--k", "1"], None),
        (["sweep", *FAST_SWEEP, "--surface", "star", "--coef", "65,0,0.01"], None),
        (["sweep", *FAST_SWEEP, "--surface", "star"], {"coefficients": [[2.5, 0, 0.1]]}),
        (["sweep", *FAST_SWEEP, "--surface", "star"], {"coefficients": [[True, 0, 0.1]]}),
        (["sweep", *FAST_SWEEP, "--surface", "star"], {"coefficients": [[2, 0.9, 0.1]]}),
        (["sweep", *FAST_SWEEP, "--surface", "star"], {"coefficients": [["2", 0, 0.1]]}),
        (["sweep", *FAST_SWEEP, "--surface", "star"], {"coefficients": [[2, 0, True]]}),
        (["eigs", "--method", "single-layer", "--coef", "2,0,0.1", "--kmax", "4"], None),
        (["sweep", *FAST_SWEEP, "--coef", "2,0,0.1"], None),
        (["sweep", *FAST_SWEEP], {"coefficients": [[2, 0, 0.1]]}),
        (["sweep", *FAST_SWEEP], {"band_limit": 3}),
        (["sweep", *FAST_SWEEP], {"ridge": 5.0}),
        (["eigs", "--method", "single-layer"], {"seed": 1}),
        (["eigs", "--method", "single-layer"], {"interior_count": 100}),
        (["fit", "--target", "0,0", "--k", "1.0"], {"samples": 10}),
        (["fit", "--target", "0,0", "--k", "1.0"], {"surface": "ball"}),
        (["sweep", *FAST_SWEEP, "--surface", "star", "--coef", "1,2,0.1"], None),
        (["sweep", *FAST_SWEEP, "--surface", "star"], None),
        (["sweep", *FAST_SWEEP], {"surface": "star"}),
        (["eigs", "--method", "single-layer", "--surface", "star"], None),
        (["eigs", "--kmax", "4", "--samples", "10"], None),
        (["eigs", "--surface", "ball", "--kmax", "4"], None),
        (["eigs", "--kmax", "4"], {"band_limit": 3, "samples": 10}),
        (["eigs", "--kmax", "4"], {"surface": "ball"}),
        (["sweep", *FAST_SWEEP, "--refine-tol", "1e-4"], None),
        ([*STAR_SINGLE_LAYER, "--refine-tol", "1e-4"], None),
        (["sweep", *FAST_SWEEP], {"refine_tol": 1e-4}),
        (STAR_SINGLE_LAYER, {"refine_tol": 1e-4}),
        (["sweep", *FAST_SWEEP], {"surface": "cube"}),
        (["eigs", "--method", "single-layer"], {"surface": "cube"}),
        (["sweep", *FAST_SWEEP, *NARROW_K_RANGE], None),
        ([*STAR_SINGLE_LAYER, *NARROW_K_RANGE], None),
    ],
    ids=[
        "eigs-samples-1", "eigs-band-limit-negative", "sweep-interior-count-0", "sweep-refine-tol-0",
        "eigs-radius-0", "eigs-radius-negative", "fit-ridge-negative", "fit-k-nan", "sweep-kmax-inf",
        "sweep-seed-negative", "verify-seed-negative", "sweep-depth-ratio-1", "sweep-threads-0",
        "config-samples-string", "config-threads-string", "config-bool-for-int", "config-gap-ratio-0",
        "config-coefficient-not-a-triple", "config-star-ntheta-huge", "sweep-dirs-nphi-huge",
        "eigs-analytic-kmax-64", "eigs-analytic-kmax-r-64", "sweep-coef-nan", "eigs-coef-inf",
        "config-coefficient-nan", "sweep-depth-ratio-flag-removed", "config-gap-ratio-key-removed",
        "sweep-threads-flag-removed", "config-threads-key-removed", "config-fit-star",
        "eigs-band-limit-above-node-count", "eigs-band-limit-above-max-degree",
        "fit-target-degree-65", "fit-target-degree-1000", "sweep-coef-degree-65",
        "config-coefficient-float-degree", "config-coefficient-bool-degree", "config-coefficient-float-order",
        "config-coefficient-string-degree", "config-coefficient-bool-eps",
        "eigs-coef-on-ball", "sweep-coef-on-ball", "config-coefficients-on-ball",
        "config-sweep-band-limit", "config-sweep-ridge", "config-eigs-seed", "config-eigs-interior-count",
        "config-fit-samples", "config-fit-surface-ball", "sweep-coef-m-above-l",
        "sweep-star-without-coef", "config-star-without-coef", "eigs-star-without-coef",
        "eigs-analytic-samples-flag", "eigs-analytic-surface-flag", "config-eigs-analytic-band-limit",
        "config-eigs-analytic-surface", "sweep-refine-tol-flag-removed", "eigs-refine-tol-flag-removed",
        "config-sweep-refine-tol-key-removed", "config-eigs-refine-tol-key-removed",
        "config-surface-unknown-sweep", "config-surface-unknown-eigs",
        "sweep-k-samples-unresolved", "eigs-k-samples-unresolved",
    ],
)
def test_bad_numeric_input_is_usage_error(runner, tmp_path, args, config):
    if args[0] == "verify":
        out = ["--out", str(tmp_path / "out.jsonl")]
    else:
        out = ["--out-json", str(tmp_path / "out.json")]
    if args[0] == "sweep":
        out += ["--out-csv", str(tmp_path / "out.csv")]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out += ["--config", str(cfg_path)]
    result = runner.invoke(main, [*args, *out])
    assert result.exit_code == 2, result.output
    assert not any((tmp_path / name).exists() for name in ("out.json", "out.csv", "out.jsonl"))


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--surface", "star", "--coef", "1,2"],
        ["sweep", "--surface", "star", "--coef", "1,x,0.1"],
        ["fit", "--k", "1.0", "--target", "1"],
        ["fit", "--k", "1.0", "--target", "1.5,0"],
    ],
    ids=["coef-two-fields", "coef-not-a-number", "target-one-field", "target-float-degree"],
)
def test_malformed_comma_flag_names_the_flag(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"Error: {args[-2]} wants" in result.output


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["sweep", "fit"])
def test_odd_direction_phi_is_usage_error(runner, tmp_path, monkeypatch, command, source):
    # both commands factor real columns on one direction of each antipodal pair
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} started work on a grid it must refuse")

    for name in ("seed_interior_points", "find_dips", "fit_trace"):
        monkeypatch.setattr(wavetrace.cli, name, no_work)
    if source == "flag":
        odd = ["--dirs-nphi", "13"]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dirs_n_phi": 13}))
        odd = ["--config", str(cfg_path)]
    json_path = tmp_path / "out.json"
    if command == "sweep":
        i = FAST_SWEEP.index("--dirs-nphi")
        args = ["sweep", *FAST_SWEEP[:i], *FAST_SWEEP[i + 2 :], "--out-csv", str(tmp_path / "out.csv")]
    else:
        args = ["fit", "--target", "0,0", "--k", "1.0"]
    result = runner.invoke(main, [*args, *odd, "--out-json", str(json_path)])
    assert result.exit_code == 2, result.output
    assert "dirs_n_phi must be even" in result.output
    assert not json_path.exists()


@pytest.mark.parametrize("args", [["sweep", *FAST_SWEEP], STAR_SINGLE_LAYER], ids=["sweep", "eigs"])
def test_k_range_too_narrow_for_its_samples_refused_before_work(runner, tmp_path, monkeypatch, args):
    def no_work(*args, **kwargs):
        raise AssertionError("started work on a k range it must refuse")

    for name in ("seed_interior_points", "make_single_layer_spectrum"):
        monkeypatch.setattr(wavetrace.cli, name, no_work)
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, [*args, *NARROW_K_RANGE])
    assert result.exit_code == 2, result.output
    assert "too narrow for 50 ascending samples" in result.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "error, exit_code, shown",
    [(ValueError("no dip to refine"), 2, "Error: no dip to refine"),
     (np.linalg.LinAlgError("SVD did not converge"), 3, "numerical failure: SVD did not converge")],
    ids=["value-error", "linalg-error"],
)
def test_library_exception_exit_code(runner, tmp_path, monkeypatch, error, exit_code, shown):
    # one map for every subcommand: a LinAlgError is a ValueError but a
    # numerical failure, so it must not exit 2
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(wavetrace.cli, "find_dips", failing)
    before = _blas_threads()
    csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
    result = runner.invoke(main, ["sweep", *FAST_SWEEP, "--out-csv", str(csv_path), "--out-json", str(json_path)])
    assert result.exit_code == exit_code, result.output
    assert shown in result.output
    assert not csv_path.exists() and not json_path.exists()
    assert _blas_threads() == before


class TestSweepCommand:
    def test_usage_error_on_inverted_range(self, runner, tmp_path):
        result = runner.invoke(main, ["sweep", "--kmin", "5", "--kmax", "3"])
        assert result.exit_code == 2

    def test_fast_run_produces_artifacts(self, runner, tmp_path):
        csv_path = tmp_path / "s.csv"
        json_path = tmp_path / "s.json"
        result = runner.invoke(
            main, ["sweep", *FAST_SWEEP, "--out-csv", str(csv_path), "--out-json", str(json_path)]
        )
        assert result.exit_code == 0, result.output
        text = csv_path.read_text()
        assert text.startswith("k,indicator\n")
        assert len(text.strip().splitlines()) == 11
        payload = json.loads(json_path.read_text())
        assert payload["config"]["run_config"]["seed"] == 42
        assert payload["dips"] == []

    def test_repeat_runs_byte_identical(self, runner, tmp_path):
        outs = []
        for tag in ("a", "b"):
            csv_path = tmp_path / f"{tag}.csv"
            json_path = tmp_path / f"{tag}.json"
            result = runner.invoke(
                main,
                ["sweep", *FAST_SWEEP, "--out-csv", str(csv_path), "--out-json", str(json_path)],
            )
            assert result.exit_code == 0, result.output
            outs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert outs[0] == outs[1]

    @pytest.mark.skipif(
        not _openblas_thread_controls(),
        reason="the BLAS exposes no scipy_openblas thread controls, so its thread count may move bytes",
    )
    def test_artifacts_independent_of_blas_threads(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(wavetrace.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        artifacts = []
        for n in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = n
            csv_path, json_path = tmp_path / f"{n}.csv", tmp_path / f"{n}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "wavetrace.cli", *CRITERION8_SWEEP,
                 "--out-csv", str(csv_path), "--out-json", str(json_path)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            artifacts.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert artifacts[0][0] == artifacts[1][0]
        assert artifacts[0][1] == artifacts[1][1]

    def test_refinement_failure_exits_3_with_blas_restored(self, runner, tmp_path, monkeypatch, set_pool_size):
        def no_bracket(spectrum, bracket, tol):
            raise BracketError(f"no interior minimum detected in {list(bracket)}")

        monkeypatch.setattr(wavetrace.sweep, "refine_dip", no_bracket)
        set_pool_size(2)
        before = _blas_threads()
        result = runner.invoke(
            main,
            [*CRITERION8_SWEEP,
             "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(tmp_path / "s.json")],
        )
        assert result.exit_code == 3, result.output
        assert _blas_threads() == before

    def test_unconverged_svd_exits_3(self, runner, tmp_path, monkeypatch):
        # gesdd's info > 0 is a LinAlgError, one of NUMERICAL_ERRORS
        real = wavetrace.herglotz._routine

        def routine(name, dtype):
            gesdd = real(name, dtype)
            return (lambda *args, **kwargs: (*gesdd(*args, **kwargs)[:-1], 1)) if name == "gesdd" else gesdd

        monkeypatch.setattr(wavetrace.herglotz, "_routine", routine)
        result = runner.invoke(
            main,
            [*CRITERION8_SWEEP,
             "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(tmp_path / "s.json")],
        )
        assert result.exit_code == 3, result.output
        assert "numerical failure: gesdd did not converge" in result.output
        assert not (tmp_path / "s.csv").exists()

    def test_detects_pi_dip_with_multiplicity(self, runner, tmp_path):
        json_path = tmp_path / "dip.json"
        result = runner.invoke(
            main,
            [
                "sweep", "--kmin", "3.0", "--kmax", "3.3", "--samples", "16",
                "--ntheta", "20", "--nphi", "40",
                "--dirs-ntheta", "10", "--dirs-nphi", "20",
                "--interior-count", "450", "--seed", "0",
                "--out-csv", str(tmp_path / "dip.csv"), "--out-json", str(json_path),
            ],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(json_path.read_text())
        assert len(payload["dips"]) == 1
        dip = payload["dips"][0]
        assert abs(dip["k"] - np.pi) <= 1e-3
        assert dip["multiplicity"] == 1

    def test_unwritable_output_is_usage_error(self, runner, tmp_path):
        # a missing parent directory, an existing directory, and one file
        # named twice, which the JSON would overwrite with the CSV lost
        same = tmp_path / "out.txt"
        for outputs in (
            ["--out-csv", str(tmp_path / "nope" / "x.csv")],
            ["--out-csv", str(tmp_path)],
            ["--out-csv", str(same), "--out-json", f"{tmp_path}/./{same.name}"],
        ):
            result = runner.invoke(main, ["sweep", *FAST_SWEEP, *outputs])
            assert result.exit_code == 2, result.output
        assert not same.exists()

    @pytest.mark.parametrize("k_range", [("3.0", "3.14"), ("3.15", "3.3")], ids=["below-pi", "above-pi"])
    def test_dip_beyond_the_range_exits_3(self, runner, tmp_path, k_range):
        # the edge sample dips toward pi, which lies outside the range; the
        # later --kmin/--kmax override the Criterion-8 ones
        result = runner.invoke(
            main,
            [*CRITERION8_SWEEP, "--kmin", k_range[0], "--kmax", k_range[1],
             "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(tmp_path / "s.json")],
        )
        assert result.exit_code == 3, result.output
        assert "numerical failure" in result.output
        assert not (tmp_path / "s.csv").exists()

    def test_config_file_with_flag_precedence(self, runner, tmp_path):
        cfg = {"k_min": 1.5, "k_max": 2.5, "samples": 10, "n_theta": 12, "n_phi": 24,
               "dirs_n_theta": 6, "dirs_n_phi": 12, "interior_count": 200, "seed": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        json_path = tmp_path / "out.json"
        result = runner.invoke(
            main,
            ["sweep", "--config", str(cfg_path), "--seed", "99",
             "--out-csv", str(tmp_path / "out.csv"), "--out-json", str(json_path)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(json_path.read_text())
        # flag beats config file; config file beats default
        assert payload["config"]["run_config"]["seed"] == 99
        assert payload["config"]["run_config"]["samples"] == 10


class TestEigsCommand:
    def test_ball_analytic_records(self, runner, tmp_path):
        json_path = tmp_path / "eigs.json"
        result = runner.invoke(
            main,
            ["eigs", "--radius", "1", "--kmax", "6.5",
             "--out-json", str(json_path)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(json_path.read_text())
        mults = [r["multiplicity"] for r in payload["records"]]
        assert mults == [1, 3, 5, 1]
        assert all(r["source"] == "ball-analytic" for r in payload["records"])

    def test_empty_list_below_first_eigenvalue(self, runner, tmp_path):
        json_path = tmp_path / "eigs.json"
        result = runner.invoke(
            main, ["eigs", "--kmax", "3", "--out-json", str(json_path)]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(json_path.read_text())["records"] == []

    def test_star_single_layer_source(self, runner, tmp_path):
        json_path = tmp_path / "eigs.json"
        result = runner.invoke(main, [*STAR_SINGLE_LAYER, "--out-json", str(json_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(json_path.read_text())
        assert len(payload["records"]) == 1
        assert payload["records"][0]["source"] == "single-layer"

    def test_star_static_integral_computed_once(self, runner, tmp_path, monkeypatch):
        calls = []
        original = wavetrace.spectra.static_row_integral

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(wavetrace.spectra, "static_row_integral", counting)
        result = runner.invoke(main, [*STAR_SINGLE_LAYER, "--out-json", str(tmp_path / "e.json")])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_star_single_layer_independent_of_pool_size(self, runner, tmp_path, monkeypatch, set_pool_size):
        seen = []
        original = wavetrace.sweep.ThreadPoolExecutor

        def spy(max_workers):
            seen.append(max_workers)
            return original(max_workers)

        monkeypatch.setattr(wavetrace.sweep, "ThreadPoolExecutor", spy)
        texts = []
        for cpus in (1, 2):
            set_pool_size(cpus)
            json_path = tmp_path / f"eigs{cpus}.json"
            result = runner.invoke(main, [*STAR_SINGLE_LAYER, "--out-json", str(json_path)])
            assert result.exit_code == 0, result.output
            texts.append(json_path.read_text())
        # every pool of the first run had one worker, every pool of the second two
        assert seen == sorted(seen) and set(seen) == {1, 2}
        assert texts[0] == texts[1]

    def test_single_layer_default_samples(self, runner, tmp_path, monkeypatch):
        seen = []

        def spy(spectrum, ks, *args):
            seen.append(len(ks))
            return np.ones(len(ks)), []

        monkeypatch.setattr(wavetrace.cli, "make_single_layer_spectrum", lambda grid, band_limit, k_min, k_max: None)
        monkeypatch.setattr(wavetrace.cli, "find_dips", spy)
        args = [a for a in STAR_SINGLE_LAYER if a not in ("--samples", "26")]
        result = runner.invoke(main, [*args, "--out-json", str(tmp_path / "e.json")])
        assert result.exit_code == 0, result.output
        assert seen == [RunConfig.samples] == [350]

    def test_analytic_star_is_usage_error(self, runner):
        # --surface and --coef are not options of the analytic method
        result = runner.invoke(main, ["eigs", "--surface", "star", "--coef", "2,0,0.1"])
        assert result.exit_code == 2
        assert "'surface' is not an option of this run" in result.output


@pytest.mark.skipif(
    not _openblas_thread_controls(),
    reason="the BLAS exposes no scipy_openblas thread controls, so its thread count may move bytes",
)
@pytest.mark.parametrize(
    "args, out_flag",
    [
        (["eigs", "--kmax", "6.5"], "--out-json"),
        (STAR_SINGLE_LAYER, "--out-json"),
        (["fit", "--target", "0,0", "--k", "3.14159265358979"], "--out-json"),
        (["verify", "--inject-off-spectrum", "--seed", "0"], "--out"),
    ],
    ids=["eigs-analytic", "eigs-single-layer", "fit", "verify"],
)
def test_every_subcommand_artifact_independent_of_blas_threads(tmp_path, args, out_flag):
    # every subcommand runs on one BLAS thread, not only the sweeps
    env = dict(os.environ)
    src = str(Path(wavetrace.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    digests = []
    for n in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = n
        out = tmp_path / f"{n}.out"
        proc = subprocess.run(
            [sys.executable, "-m", "wavetrace.cli", *args, out_flag, str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


# One child process per kernel or SIMD target runs every command of
# KERNEL_RUNS in its working directory, after reporting the kernel each
# bundled OpenBLAS chose and whether numpy dispatches AVX512_SKX code; under
# a forced kernel that OpenBLAS did not take it runs nothing.
_KERNEL_CHILD = """
import ctypes, json, os, sys
from pathlib import Path
import numpy, scipy
from numpy._core._multiarray_umath import __cpu_features__
from wavetrace.cli import main

kernels = set()
for package in (numpy, scipy):
    for path in sorted((Path(package.__file__).parent.parent / f"{package.__name__}.libs").glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            corename = getattr(lib, f"scipy_openblas_get_corename{suffix}", None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                kernels.add(corename().decode().lower())
                break
print(json.dumps({"kernels": sorted(kernels), "avx512_skx": __cpu_features__["AVX512_SKX"]}))
forced = os.environ.get("OPENBLAS_CORETYPE", "").lower()
if kernels and (not forced or kernels == {forced}):
    for argv in json.loads(sys.argv[1]):
        try:
            main(argv)
        except SystemExit as exc:
            if exc.code:
                raise
"""

KERNEL_RUNS = [
    [*CRITERION8_SWEEP, "--out-csv", "sweep.csv", "--out-json", "sweep.json"],
    [*STAR_SINGLE_LAYER, "--out-json", "eigs.json"],
    ["verify", "--inject-off-spectrum", "--seed", "0", "--out", "verify.jsonl"],
    ["fit", "--target", "0,0", "--k", "1.0", "--out-json", "fit-1.json"],
    ["fit", "--target", "0,0", "--k", "3.14159265358979", "--out-json", "fit-pi.json"],
]


def _run_child(workdir: Path, variables: dict) -> tuple[dict, dict]:
    """(the child's report: "kernels", those its OpenBLAS builds report, and
    "avx512_skx"; the artifacts of KERNEL_RUNS parsed) with the environment
    variables set, OPENBLAS_CORETYPE and NPY_DISABLE_CPU_FEATURES unset
    unless given; no artifacts where a forced kernel was not taken."""
    workdir.mkdir()
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(variables)
    src = str(Path(wavetrace.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _KERNEL_CHILD, json.dumps(KERNEL_RUNS)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    artifacts = {}
    for path in workdir.iterdir():
        if path.suffix == ".csv":
            artifacts[path.name] = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
        elif path.suffix == ".jsonl":
            artifacts[path.name] = [json.loads(line) for line in path.read_text().splitlines()]
        else:
            artifacts[path.name] = json.loads(path.read_text())
    return json.loads(proc.stdout.splitlines()[0]), artifacts


@pytest.fixture(scope="module")
def default_kernel_artifacts(tmp_path_factory):
    report, artifacts = _run_child(tmp_path_factory.mktemp("kernels") / "default", {})
    if not report["kernels"]:
        pytest.skip("no bundled scipy-openblas reports its kernel, so none can be forced")
    return artifacts


def _inputs_close(a, b, rel: float) -> bool:
    """Equal report inputs, their floats to rel (at 0, exactly)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_inputs_close(a[key], b[key], rel) for key in a)
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= rel * abs(b)
    return a == b


def _assert_artifacts_agree(got: dict, ref: dict, inputs_rel: float = 0.0):
    # each kernel and each SIMD target rounds differently, so the bytes may
    # change; these bounds sit 50x or more above the spread measured on a
    # SkylakeX machine
    assert set(got) == set(ref) == {
        "sweep.csv", "sweep.json", "eigs.json", "verify.jsonl", "fit-1.json", "fit-pi.json",
    }
    # the sampled indicator to 1e-9 relative (measured 1.5e-12 across
    # kernels, 1.0e-15 across SIMD targets)
    np.testing.assert_allclose(got["sweep.csv"], ref["sweep.csv"], rtol=1e-9, atol=0)
    # dips of both oracles to 1e-12 (measured 4.4e-16), multiplicities equal
    for name, key in [("sweep.json", "dips"), ("eigs.json", "records")]:
        dips, ref_dips = got[name][key], ref[name][key]
        assert ref_dips and [d["multiplicity"] for d in dips] == [d["multiplicity"] for d in ref_dips]
        assert all(abs(d["k"] - r["k"]) <= 1e-12 for d, r in zip(dips, ref_dips)), (dips, ref_dips)
    # every check and control concludes the same, on the same inputs to
    # inputs_rel, residuals to 1e-12 (measured 2.1e-14)
    checks, ref_checks = got["verify.jsonl"], ref["verify.jsonl"]
    assert [(c["check"], c["passed"]) for c in checks] == [(c["check"], c["passed"]) for c in ref_checks]
    assert all(_inputs_close(c["inputs"], r["inputs"], inputs_rel) for c, r in zip(checks, ref_checks))
    assert all(abs(c["residual"] - r["residual"]) <= 1e-12 for c, r in zip(checks, ref_checks))
    # fit residuals to 1e-12 (measured 1.6e-15); the density off the
    # spectrum to 1e-12 relative (measured 1.3e-15), none at pi
    for name in ("fit-1.json", "fit-pi.json"):
        assert abs(got[name]["residual"] - ref[name]["residual"]) <= 1e-12
    assert got["fit-1.json"]["density_norm"] == pytest.approx(ref["fit-1.json"]["density_norm"], rel=1e-12)
    assert got["fit-pi.json"]["density_norm"] is ref["fit-pi.json"]["density_norm"] is None


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_artifacts_agree_across_blas_kernels(tmp_path, default_kernel_artifacts, kernel):
    report, got = _run_child(tmp_path / kernel, {"OPENBLAS_CORETYPE": kernel})
    if report["kernels"] != [kernel.lower()]:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} gave the kernels {report['kernels']}")
    _assert_artifacts_agree(got, default_kernel_artifacts)


def test_artifacts_agree_across_simd_targets(tmp_path, default_kernel_artifacts):
    # numpy's float64 tan, which every plane-wave entry goes through, and its
    # arccos, arctan2 and cbrt on libm's code rather than the AVX-512 one;
    # the verify input computed on the grid, u_N_norm, to 1e-12 relative
    # (measured 2.3e-16), and the single-layer oracle's eigs.json keeps its
    # bytes
    report, got = _run_child(tmp_path / "no-avx512", NO_AVX512)
    if report["avx512_skx"]:
        pytest.skip(f"{NO_AVX512} left AVX512_SKX code dispatched")
    _assert_artifacts_agree(got, default_kernel_artifacts, inputs_rel=1e-12)
    assert got["eigs.json"] == default_kernel_artifacts["eigs.json"]


@pytest.mark.parametrize(
    "args, outputs",
    [
        (CRITERION8_SWEEP, ["--out-csv", "--out-json"]),
        (STAR_SINGLE_LAYER, ["--out-json"]),
        (["eigs", "--kmax", "6.5"], ["--out-json"]),
    ],
    ids=["sweep", "eigs-single-layer", "eigs-analytic"],
)
def test_artifact_regenerates_from_its_run_config(runner, tmp_path, args, outputs):
    # the artifact's run_config as the config file, with only the method and
    # the output paths on the command line, writes the same bytes again
    def run(argv, tag):
        paths = [tmp_path / f"{tag}.{flag[len('--out-'):]}" for flag in outputs]
        result = runner.invoke(main, [*argv, *itertools.chain(*zip(outputs, map(str, paths)))])
        assert result.exit_code == 0, result.output
        return [path.read_bytes() for path in paths]

    first = run(args, "a")
    payload = json.loads(first[-1])
    cfg_path = tmp_path / "cfg.json"
    if args[0] == "sweep":
        cfg_path.write_text(json.dumps(payload["config"]["run_config"]))
        method = []
    else:
        cfg_path.write_text(json.dumps(payload["run_config"]))
        method = ["--method", payload["method"]]
    assert run([args[0], *method, "--config", str(cfg_path)], "b") == first


class TestVerifyCommand:
    def test_default_suite_passes(self, runner, tmp_path):
        out = tmp_path / "reports.jsonl"
        result = runner.invoke(main, ["verify", "--out", str(out)])
        assert result.exit_code == 0, result.output
        text = out.read_text()
        lines = [json.loads(l) for l in text.strip().splitlines()]
        assert all(r["passed"] for r in lines)
        assert any(r["check"] == "necessity" for r in lines)
        assert any(r["check"] == "green-reduction" for r in lines)
        necessity = [line for line in text.splitlines() if '"check": "necessity"' in line]
        assert necessity and all('"passed": true' in line for line in necessity)

    def test_off_spectrum_controls_fail_as_designed(self, runner):
        result = runner.invoke(main, ["verify", "--inject-off-spectrum"])
        assert result.exit_code == 0, result.output
        lines = [json.loads(l) for l in result.output.strip().splitlines() if l.startswith("{")]
        controls = [r for r in lines if r["expected_failure"]]
        assert controls
        assert all(not r["passed"] for r in controls)

    def test_unwritable_output(self, runner, tmp_path):
        for path in (tmp_path / "no" / "x.jsonl", tmp_path):
            result = runner.invoke(main, ["verify", "--out", str(path)])
            assert result.exit_code == 2, result.output

    @pytest.mark.skipif(not _openblas_thread_controls(), reason="the BLAS exposes no scipy_openblas thread controls")
    def test_blas_pinned_during_and_restored_after(self, runner, monkeypatch):
        # at two threads before each run, so that a pin left behind shows:
        # a passing suite, a usage error and a failing check all restore it
        controls = _openblas_thread_controls()
        real_green_reduction = wavetrace.verify.check_green_reduction
        seen = set()

        def failing_green_reduction(*args):
            seen.add(_blas_threads())
            return replace(real_green_reduction(*args), residual=1.0)

        before = _blas_threads()
        for _, put in controls:
            put(2)
        try:
            assert runner.invoke(main, ["verify"]).exit_code == 0
            assert _blas_threads() == (2,) * len(controls)
            assert runner.invoke(main, ["verify", "--seed", "-1"]).exit_code == 2
            assert _blas_threads() == (2,) * len(controls)
            monkeypatch.setattr(wavetrace.verify, "check_green_reduction", failing_green_reduction)
            result = runner.invoke(main, ["verify"])
            assert result.exit_code == EXIT_VERIFY_FAIL, result.output
            assert _blas_threads() == (2,) * len(controls)
        finally:
            for (_, put), n in zip(controls, before):
                put(n)
        assert seen == {(1,) * len(controls)}


def _types(record: dict) -> dict:
    return {key: type(value) for key, value in record.items()}


class TestArtifactSchemas:
    """The exact keys and value types of every artifact. The CLI writes each
    record whole, so a field added to one changes its artifact and this test."""

    def test_sweep(self, runner, tmp_path):
        csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
        result = runner.invoke(main, [*CRITERION8_SWEEP, "--out-csv", str(csv_path), "--out-json", str(json_path)])
        assert result.exit_code == 0, result.output
        assert csv_path.read_text().splitlines()[0] == "k,indicator"
        payload = json.loads(json_path.read_text())
        assert set(payload) == {"config", "k_samples", "indicator", "dips"}
        assert set(payload["config"]) == {
            "indicator", "surface", "directions", "qr_rtol", "depth_ratio", "refine_tol", "run_config",
        }
        assert payload["config"]["refine_tol"] == wavetrace.sweep.DEFAULT_REFINE_TOL
        assert set(payload["config"]["run_config"]) == COMMAND_FIELDS["sweep"]
        assert type(payload["config"]["run_config"]["interior_count"]) is int
        assert {type(v) for v in payload["k_samples"] + payload["indicator"]} == {float}
        assert payload["dips"]
        for dip in payload["dips"]:
            assert _types(dip) == {"k": float, "indicator": float, "multiplicity": int}

    @pytest.mark.parametrize(
        "args, index_type",
        [(["eigs", "--kmax", "6.5"], int), (STAR_SINGLE_LAYER, type(None))],
        ids=["analytic", "single-layer"],
    )
    def test_eigs(self, runner, tmp_path, args, index_type):
        json_path = tmp_path / "eigs.json"
        result = runner.invoke(main, [*args, "--out-json", str(json_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(json_path.read_text())
        assert _types(payload) == {"run_config": dict, "method": str, "records": list}
        assert set(payload["run_config"]) == COMMAND_FIELDS[f"eigs-{payload['method']}"]
        assert payload["records"]
        for record in payload["records"]:
            assert _types(record) == {
                "k": float, "l": index_type, "n": index_type, "multiplicity": int, "source": str,
            }

    def test_verify(self, runner, tmp_path):
        out = tmp_path / "reports.jsonl"
        result = runner.invoke(main, ["verify", "--inject-off-spectrum", "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines
        for line in lines:
            assert _types(line) == {
                "check": str, "inputs": dict, "residual": float, "tolerance": float,
                "passed": bool, "expected_failure": bool,
            }

    def test_fit(self, runner, tmp_path):
        json_path = tmp_path / "fit.json"
        result = runner.invoke(
            main, ["fit", "--target", "0,0", "--k", "3.14159265358979", "--out-json", str(json_path)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(json_path.read_text())
        assert _types(payload) == {
            "run_config": dict, "target": list, "residual": float, "density_norm": type(None),
        }
        assert set(payload["run_config"]) == COMMAND_FIELDS["fit"]


class TestFitCommand:
    def test_lost_direction(self, runner, tmp_path):
        json_path = tmp_path / "fit.json"
        result = runner.invoke(
            main,
            ["fit", "--target", "0,0", "--k", "3.14159265358979", "--out-json", str(json_path)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(json_path.read_text())
        assert abs(payload["residual"] - 1.0) <= 1e-6
        # the target is orthogonal to the trace span: no density, written null
        assert payload["density_norm"] is None
        assert "density L2 norm   = none" in result.output

    def test_representable_target(self, runner, tmp_path):
        json_path = tmp_path / "fit.json"
        result = runner.invoke(
            main, ["fit", "--target", "0,0", "--k", "1.0", "--out-json", str(json_path)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(json_path.read_text())
        assert payload["residual"] <= 1e-8
        assert payload["density_norm"] == pytest.approx(1 / (4 * np.pi * np.sin(1.0)), rel=1e-12)

    def test_invalid_harmonic_index(self, runner):
        result = runner.invoke(main, ["fit", "--target", "5,9", "--k", "1.0"])
        assert result.exit_code == 2

    def test_allocation_failure_exits_3(self, runner, tmp_path, monkeypatch):
        # stands in for a --k too large to allocate; nothing large is allocated
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.1 TiB")

        monkeypatch.setattr(wavetrace.cli, "fit_trace", out_of_memory)
        result = runner.invoke(
            main, ["fit", "--target", "0,0", "--k", "1.0", "--out-json", str(tmp_path / "fit.json")]
        )
        assert result.exit_code == 3, result.output
        assert "numerical failure" in result.output

    def test_wavenumber_too_large_to_allocate_exits_3(self, runner, tmp_path):
        # the k R default resolutions of k = 1e300 overflow an array size
        json_path = tmp_path / "fit.json"
        result = runner.invoke(main, ["fit", "--target", "0,0", "--k", "1e300", "--out-json", str(json_path)])
        assert result.exit_code == 3, result.output
        assert "numerical failure" in result.output
        assert not json_path.exists()
