import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import wavetrace
import wavetrace.spectra
import wavetrace.sweep
from wavetrace import BracketError
from wavetrace.cli import main
from wavetrace.sweep import _blas_threads, _openblas_thread_controls


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


@pytest.mark.parametrize(
    "args",
    [
        [*STAR_SINGLE_LAYER, "--samples", "1"],
        [*STAR_SINGLE_LAYER, "--band-limit", "-1"],
        ["sweep", *FAST_SWEEP, "--interior-count", "0"],
        ["sweep", *FAST_SWEEP, "--refine-tol", "0"],
    ],
    ids=["eigs-samples-1", "eigs-band-limit-negative", "sweep-interior-count-0", "sweep-refine-tol-0"],
)
def test_bad_numeric_input_is_usage_error(runner, tmp_path, args):
    out = ["--out-json", str(tmp_path / "out.json")]
    if args[0] == "sweep":
        out += ["--out-csv", str(tmp_path / "out.csv")]
    result = runner.invoke(main, [*args, *out])
    assert result.exit_code == 2, result.output


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

    def test_refinement_failure_exits_3_with_blas_restored(self, runner, tmp_path, monkeypatch):
        def no_bracket(f, a, b, tol):
            raise BracketError(f"no interior minimum detected in [{a}, {b}]")

        monkeypatch.setattr(wavetrace.sweep, "golden_section_minimize", no_bracket)
        before = _blas_threads()
        result = runner.invoke(
            main,
            [*CRITERION8_SWEEP, "--threads", "2",
             "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(tmp_path / "s.json")],
        )
        assert result.exit_code == 3, result.output
        assert _blas_threads() == before

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
        result = runner.invoke(
            main, ["sweep", *FAST_SWEEP, "--out-csv", str(tmp_path / "nope" / "x.csv")]
        )
        assert result.exit_code == 2

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
            ["eigs", "--surface", "ball", "--radius", "1", "--kmax", "6.5",
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
            main, ["eigs", "--surface", "ball", "--kmax", "3", "--out-json", str(json_path)]
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

    def test_star_single_layer_independent_of_pool_size(self, runner, tmp_path, monkeypatch):
        seen = []
        original = wavetrace.cli.find_dips

        def spy(*args, **kwargs):
            seen.append(inspect.signature(original).bind(*args, **kwargs).arguments["threads"])
            return original(*args, **kwargs)

        monkeypatch.setattr(wavetrace.cli, "find_dips", spy)
        texts = []
        for threads in (1, 2):
            cfg_path = tmp_path / f"threads{threads}.json"
            cfg_path.write_text(json.dumps({"threads": threads}))
            json_path = tmp_path / f"eigs{threads}.json"
            result = runner.invoke(
                main, [*STAR_SINGLE_LAYER, "--config", str(cfg_path), "--out-json", str(json_path)]
            )
            assert result.exit_code == 0, result.output
            texts.append(json_path.read_text())
        assert seen == [1, 2]
        # the artifact records its run configuration, so only that line may differ
        assert texts[0].replace('"threads": 1', '"threads": 2') == texts[1]

    def test_analytic_star_is_usage_error(self, runner):
        result = runner.invoke(main, ["eigs", "--surface", "star", "--coef", "2,0,0.1"])
        assert result.exit_code == 2


class TestVerifyCommand:
    def test_default_suite_passes(self, runner, tmp_path):
        out = tmp_path / "reports.jsonl"
        result = runner.invoke(main, ["verify", "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = [json.loads(l) for l in out.read_text().strip().splitlines()]
        assert all(r["passed"] for r in lines)
        assert any(r["check"] == "necessity" for r in lines)
        assert any(r["check"] == "green-reduction" for r in lines)

    def test_off_spectrum_controls_fail_as_designed(self, runner):
        result = runner.invoke(main, ["verify", "--inject-off-spectrum"])
        assert result.exit_code == 0, result.output
        lines = [json.loads(l) for l in result.output.strip().splitlines() if l.startswith("{")]
        controls = [r for r in lines if r["expected_failure"]]
        assert controls
        assert all(not r["passed"] for r in controls)

    def test_unwritable_output(self, runner, tmp_path):
        result = runner.invoke(main, ["verify", "--out", str(tmp_path / "no" / "x.jsonl")])
        assert result.exit_code == 2


class TestFitCommand:
    def test_lost_direction(self, runner, tmp_path):
        json_path = tmp_path / "fit.json"
        result = runner.invoke(
            main,
            ["fit", "--target", "0,0", "--k", "3.14159265358979", "--surface", "ball",
             "--out-json", str(json_path)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(json_path.read_text())
        assert abs(payload["residual"] - 1.0) <= 1e-6

    def test_representable_target(self, runner, tmp_path):
        json_path = tmp_path / "fit.json"
        result = runner.invoke(
            main, ["fit", "--target", "0,0", "--k", "1.0", "--out-json", str(json_path)]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(json_path.read_text())["residual"] <= 1e-8

    def test_invalid_harmonic_index(self, runner):
        result = runner.invoke(main, ["fit", "--target", "5,9", "--k", "1.0"])
        assert result.exit_code == 2
