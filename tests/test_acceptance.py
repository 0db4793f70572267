"""Acceptance suite: every release criterion at its frozen tolerance.

Each criterion prints one PASS/FAIL line (visible with `pytest -s`, and in
the captured output on failure). Expensive artifacts (the full ball sweep,
the star cross-oracle runs) are computed once in module-scoped fixtures.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from wavetrace import (
    HarmonicIndex,
    bessel_zero,
    check_green_reduction,
    check_decomposition,
    check_lemma1_orthogonality,
    check_necessity,
    detect_dips,
    find_dips,
    fit_trace,
    make_direction_grid,
    make_single_layer_spectrum,
    make_sphere,
    make_star_surface,
    make_trace_spectrum,
    refine_dip,
    seed_interior_points,
    sph_harm,
    sweep_k,
)
from oracles import harmonic_on
from wavetrace.cli import main as cli_main

BALL_EIGENVALUES = [np.pi, 4.4934094579090642, 5.7634591968945498, 2 * np.pi]
BALL_MULTIPLICITIES = [1, 3, 5, 1]
CONTROL_POINTS = [3.5, 5.0, 6.0]


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def ball_sweep():
    """Criterion-1 artifact: full sweep, refined dips, controls, wall time,
    and the indicator calls spent refining and classifying the dips."""
    grid = make_sphere(1.0, 24, 48)
    dirs = make_direction_grid(12, 24)
    t0 = time.perf_counter()
    spectrum = make_trace_spectrum(grid, dirs, seed_interior_points(grid, 2 * dirs.n_directions, seed=0))
    calls = []  # list.append is atomic, so the pool's workers can share it

    def counted(k):
        calls.append(k)
        return spectrum(k)

    ks = np.linspace(3.0, 6.5, 350)
    _, dips = find_dips(counted, ks)
    refined = [(dip.k, dip.indicator, dip.multiplicity) for dip in dips]
    controls = [spectrum(k)[-1] for k in CONTROL_POINTS]
    elapsed = time.perf_counter() - t0
    return {
        "grid": grid,
        "dirs": dirs,
        "refined": refined,
        "controls": controls,
        "elapsed": elapsed,
        "dip_calls": len(calls) - len(ks),
    }


class TestCriterion1TheoremDichotomy:
    def test_exactly_four_dips_at_ball_eigenvalues(self, ball_sweep):
        refined = ball_sweep["refined"]
        ok = len(refined) == 4
        if ok:
            errs = [abs(k - t) for (k, _, _) in refined for t in [min(BALL_EIGENVALUES, key=lambda e: abs(e - k))]]
            ok = all(e <= 1e-3 for e in errs)
        detail = f"{len(refined)} dips at {[f'{k:.5f}' for k, _, _ in refined]}"
        assert report(1, ok and len(refined) == 4, f"dichotomy dips: {detail}")

    def test_refined_dips_match_analytic_eigenvalues(self, ball_sweep):
        refined = ball_sweep["refined"]
        errs = [abs(k - t) for (k, _, _), t in zip(refined, BALL_EIGENVALUES)]
        worst = max(errs, default=np.inf)
        ok = len(refined) == 4 and worst <= 1e-6
        assert report(1, ok, f"refined dips within {worst:.1e} of the analytic eigenvalues (<= 1e-6)")

    def test_indicator_calls_per_dip(self, ball_sweep):
        per_dip = ball_sweep["dip_calls"] / len(ball_sweep["refined"])
        assert report(1, per_dip <= 5, f"{per_dip:.2f} indicator calls per dip, refinement + classification (<= 5)")

    def test_multiplicities(self, ball_sweep):
        mults = [m for (_, _, m) in ball_sweep["refined"]]
        assert report(1, mults == BALL_MULTIPLICITIES, f"multiplicities {mults} vs {BALL_MULTIPLICITIES}")

    def test_indicator_contrast_at_controls(self, ball_sweep):
        dip_vals = [v for (_, v, _) in ball_sweep["refined"]]
        ok = max(dip_vals) <= 0.1 * min(ball_sweep["controls"])
        assert report(
            1, ok,
            f"max dip indicator {max(dip_vals):.2e} <= 0.1 x min control {min(ball_sweep['controls']):.2e}",
        )

    def test_runtime_budget(self, ball_sweep):
        ok = ball_sweep["elapsed"] <= 120.0
        assert report(1, ok, f"sweep + refinement took {ball_sweep['elapsed']:.1f} s (budget 120 s)")


class TestCriterion2Necessity:
    def test_all_modes_all_radii(self):
        worst = 0.0
        dirs = make_direction_grid(12, 24)
        for R in (0.7, 1.0, 2.0):
            grid = make_sphere(R, 40, 80)
            for l in range(4):
                for n in (1, 2):
                    rep = check_necessity(HarmonicIndex(l, 0), n, grid, dirs)
                    worst = max(worst, rep.residual)
                    assert rep.passed, f"necessity failed at l={l}, n={n}, R={R}"
        assert report(2, worst <= 1e-8, f"worst normalized residual {worst:.2e} <= 1e-8")

    def test_off_spectrum_negative_control(self):
        grid = make_sphere(1.0, 40, 80)
        rep = check_necessity(HarmonicIndex(0, 0), 1, grid, make_direction_grid(12, 24), k_factor=1.01)
        assert report(2, rep.residual >= 1e-3, f"control residual {rep.residual:.2e} >= 1e-3")


class TestCriterion3TotalityFailureExact:
    def test_fit_dichotomy(self):
        grid = make_sphere(1.0, 30, 60)
        dirs = make_direction_grid(12, 24)
        target = harmonic_on(grid, 0, 0)
        res_at_pi, _ = fit_trace(np.pi, grid, target, dirs)
        res_at_1, _ = fit_trace(1.0, grid, target, dirs)
        ok = abs(res_at_pi - 1.0) <= 1e-6 and res_at_1 <= 1e-8
        assert report(
            3, ok, f"residual(k=pi) = {res_at_pi:.9f} (=1 within 1e-6); residual(k=1) = {res_at_1:.2e} <= 1e-8"
        )


class TestCriterion4Lemma1:
    def test_orthogonality_all_low_degrees(self):
        grid = make_sphere(1.0, 40, 80)
        dirs = make_direction_grid(12, 24)
        worst = 0.0
        for l in range(3):
            for n in (1, 2):
                rep = check_lemma1_orthogonality(HarmonicIndex(l, min(l, 1)), n, grid, dirs)
                worst = max(worst, rep.residual)
                assert rep.passed
        assert report(4, worst <= 1e-7, f"worst orthogonality residual {worst:.2e} <= 1e-7")

    def test_decomposition_at_both_wavenumbers(self):
        grid = make_sphere(1.0, 30, 60)
        dirs = make_direction_grid(12, 24)
        off = check_decomposition(1.0, grid, dirs)
        at_pi = check_decomposition(np.pi, grid, dirs)
        traces_only, _ = fit_trace(np.pi, grid, harmonic_on(grid, 0, 0), dirs)
        ok = off.passed and at_pi.passed and abs(traces_only - 1.0) <= 1e-6
        assert report(
            4, ok,
            f"decomposition: k=1 residual {off.residual:.2e}; k=pi adjoined {at_pi.residual:.2e}; "
            f"traces-only {traces_only:.6f} (=1)",
        )


class TestCriterion5GreenReduction:
    def test_all_low_degrees(self):
        worst = 0.0
        for l in range(4):
            for n in (1, 2):
                rep = check_green_reduction(HarmonicIndex(l, 0), n, 1.0)
                worst = max(worst, rep.residual)
                assert rep.passed
        assert report(5, worst <= 1e-8, f"worst reduction residual {worst:.2e} <= 1e-8")

    def test_l0_closed_form(self):
        rep = check_green_reduction(HarmonicIndex(0, 0), 1, 1.0)
        volume = rep.inputs["volume_side"]
        ok = abs(volume - 1.0) <= 1e-10
        assert report(5, ok, f"pi^2 int r^2 j0(pi r) dr = {volume:.12f} (=1 within 1e-10)")


class TestCriterion6CrossOracle:
    def test_sphere_three_way_agreement(self, ball_sweep):
        trace_dips = sorted(k for (k, _, _) in ball_sweep["refined"])
        grid = make_sphere(1.0, 24, 48)
        sl = make_single_layer_spectrum(grid, 8, trace_dips[0] - 0.03, trace_dips[-1] + 0.03)
        sl_dips = []
        for center in trace_dips:
            k_star, _ = refine_dip(sl, (center - 0.03, center, center + 0.03), tol=1e-4)
            sl_dips.append(k_star)
        pair_err = max(abs(a - b) for a, b in zip(trace_dips, sl_dips))
        analytic_err = max(
            max(abs(a - t) for a, t in zip(trace_dips, BALL_EIGENVALUES)),
            max(abs(a - t) for a, t in zip(sl_dips, BALL_EIGENVALUES)),
        )
        ok = pair_err <= 5e-3 and analytic_err <= 5e-3
        assert report(
            6, ok,
            f"sphere: trace-vs-single-layer {pair_err:.2e}, vs analytic {analytic_err:.2e} (<= 5e-3)",
        )

    def test_star_surface_agreement(self, set_pool_size):
        star = make_star_surface(1.0, [(2, 0, 0.1)], 24, 48)
        dirs = make_direction_grid(10, 20)
        ks = np.linspace(2.9, 3.4, 26)
        interior = seed_interior_points(star, 500, seed=11)
        trace = make_trace_spectrum(star, dirs, interior)
        trace_dips = detect_dips(sweep_k(trace, ks))
        assert len(trace_dips) == 1
        k = ks[trace_dips[0]]
        k_trace, _ = refine_dip(trace, (k - 0.03, k, k + 0.03), tol=1e-4)
        sl = make_single_layer_spectrum(star, 8, ks[0], ks[-1])
        set_pool_size(1)
        sl_dips = detect_dips(sweep_k(sl, ks))
        assert len(sl_dips) == 1
        k = ks[sl_dips[0]]
        k_sl, _ = refine_dip(sl, (k - 0.03, k, k + 0.03), tol=1e-4)
        ok = abs(k_trace - k_sl) <= 5e-3
        assert report(
            6, ok, f"star: trace dip {k_trace:.6f} vs single-layer dip {k_sl:.6f} "
            f"(diff {abs(k_trace - k_sl):.2e} <= 5e-3)"
        )


class TestCriterion7AnalyticInvariants:
    def test_invariant_suite_under_budget(self):
        from scipy.special import spherical_yn

        from oracles import herglotz_wave
        from wavetrace import sph_bessel_j, sph_bessel_j_deriv

        t0 = time.perf_counter()
        # Wronskian + recurrence
        xs = np.linspace(0.1, 50, 61)
        for l in range(0, 21, 4):
            j, jp = sph_bessel_j(l, xs), sph_bessel_j_deriv(l, xs)
            y = spherical_yn(l, xs)
            ym1 = spherical_yn(l - 1, xs) if l > 0 else np.sin(xs) / xs  # y_{-1} = j_0
            yp = ym1 - (l + 1) / xs * y
            assert np.max(np.abs(j * yp - jp * y - 1 / xs**2) * xs**2) <= 1e-12
        for l in range(1, 20, 4):
            a = sph_bessel_j(l - 1, xs)
            b = sph_bessel_j(l + 1, xs)
            c = (2 * l + 1) / xs * sph_bessel_j(l, xs)
            scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
            assert np.max(np.abs(a + b - c) / np.maximum(scale, 1e-300)) <= 1e-12
        # quadrature exactness
        grid = make_sphere(1.0, 20, 40)
        assert abs(grid.area - 4 * np.pi) <= 1e-12 * 4 * np.pi
        assert abs(np.sum(grid.weights * harmonic_on(grid, 1, 0))) <= 1e-12
        # Y_lm orthonormality
        dirs = make_direction_grid(14, 28)
        theta = np.arccos(dirs.directions[:, 2])
        phi = np.arctan2(dirs.directions[:, 1], dirs.directions[:, 0])
        idx = [(l, m) for l in range(13) for m in range(-l, l + 1)]
        Y = np.array([sph_harm(HarmonicIndex(l, m), theta, phi) for l, m in idx])
        gram = (Y * dirs.weights) @ Y.conj().T
        assert np.abs(gram - np.eye(len(idx))).max() <= 1e-12
        # Jacobi-Anger consistency
        dirs20 = make_direction_grid(20, 40)
        th20 = np.arccos(dirs20.directions[:, 2])
        ph20 = np.arctan2(dirs20.directions[:, 1], dirs20.directions[:, 0])
        x_hat = np.array([0.6, 0.0, 0.8])
        for l, m, kr in [(0, 0, 2.0), (3, 2, 5.0), (8, -5, 8.0)]:
            h = sph_harm(HarmonicIndex(l, m), th20, ph20)
            val = herglotz_wave(1.0, h, dirs20, (kr * x_hat)[None, :])[0]
            expect = (
                4 * np.pi * 1j**l * sph_bessel_j(l, kr)
                * sph_harm(HarmonicIndex(l, m), np.arccos(x_hat[2]), 0.0)
            )
            assert abs(val - expect) <= 1e-10
        elapsed = time.perf_counter() - t0
        assert report(7, elapsed <= 60.0, f"analytic invariant suite green in {elapsed:.1f} s (<= 60 s)")


class TestCriterion8Determinism:
    def test_cli_artifacts_byte_identical(self, tmp_path):
        runner = CliRunner()
        args = [
            "sweep", "--kmin", "3.0", "--kmax", "3.3", "--samples", "12",
            "--ntheta", "16", "--nphi", "32", "--dirs-ntheta", "8", "--dirs-nphi", "16",
            "--interior-count", "300", "--seed", "42",
        ]
        artifacts = []
        for tag in ("first", "second"):
            csv_path = tmp_path / f"{tag}.csv"
            json_path = tmp_path / f"{tag}.json"
            res = runner.invoke(
                cli_main, args + ["--out-csv", str(csv_path), "--out-json", str(json_path)]
            )
            assert res.exit_code == 0, res.output
            artifacts.append((csv_path.read_bytes(), json_path.read_bytes()))
        ok = artifacts[0] == artifacts[1]
        assert report(8, ok, "repeated seeded runs produced byte-identical CSV and JSON")
