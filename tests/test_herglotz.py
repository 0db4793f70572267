import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import wavetrace
from conftest import NO_AVX512
from oracles import (
    brute_force_gram_singular_values,
    complex_trace_fit,
    funk_hecke,
    harmonic_on,
    helmholtz_residual,
    herglotz_wave,
    sphere_plane_wave_integral,
    stacked_trace_matrix,
)
from wavetrace import (
    DirectionGrid,
    HarmonicIndex,
    bessel_zero,
    fit_trace,
    make_direction_grid,
    make_sphere,
    make_star_surface,
    seed_interior_points,
    sph_bessel_j,
    sph_harm,
)
from wavetrace.herglotz import _antipodal_half, _real_columns, _trace_columns

EZ = np.array([0.0, 0.0, 1.0])


class TestHerglotzEval:
    def test_uniform_density_at_origin(self, dirs_12_24):
        h = np.full(dirs_12_24.n_directions, 1 / (4 * np.pi))
        assert herglotz_wave(1.3, h, dirs_12_24, np.zeros((1, 3)))[0] == pytest.approx(
            1.0, rel=1e-13
        )

    def test_uniform_density_radial_profile(self, dirs_12_24):
        # w(x) = 4 pi j_0(k r) for h == 1
        h = np.ones(dirs_12_24.n_directions)
        pts = np.array([[0.2, -0.4, 0.5], [0.0, 0.0, 1.0]])
        vals = herglotz_wave(3.0, h, dirs_12_24, pts)
        for x, v in zip(pts, vals):
            r = np.linalg.norm(x)
            assert v == pytest.approx(4 * np.pi * np.sin(3 * r) / (3 * r), abs=1e-10)

    def test_pairing_with_trace_matches_radial_oracle(self, sphere_30_60, dirs_12_24):
        # sum_j w_j e^{i k beta_j . s} at |s| = 1 equals the surface-pairing value
        node = sphere_30_60.nodes[700]
        h = np.ones(dirs_12_24.n_directions)
        val = herglotz_wave(3.0, h, dirs_12_24, node[None, :])[0]
        assert val == pytest.approx(sphere_plane_wave_integral(3.0, 1.0), abs=1e-10)

    @pytest.mark.parametrize("l,m,kr", [(0, 0, 1.0), (2, 1, 3.0), (5, -3, 6.0), (8, 4, 8.0)])
    def test_jacobi_anger_consistency(self, l, m, kr):
        # h = Y_lm  =>  w(x) = 4 pi i^l j_l(k r) Y_lm(x_hat)
        dirs = make_direction_grid(20, 40)
        theta = np.arccos(dirs.directions[:, 2])
        phi = np.arctan2(dirs.directions[:, 1], dirs.directions[:, 0])
        h = sph_harm(HarmonicIndex(l, m), theta, phi)
        x_hat = np.array([0.48, -0.6, 0.64])
        x_hat /= np.linalg.norm(x_hat)
        val = herglotz_wave(1.0, h, dirs, (kr * x_hat)[None, :])[0]
        tx = np.arccos(x_hat[2])
        px = np.arctan2(x_hat[1], x_hat[0])
        expect = 4 * np.pi * 1j**l * sph_bessel_j(l, kr) * sph_harm(HarmonicIndex(l, m), tx, px)
        assert val == pytest.approx(expect, abs=1e-10)


class TestHelmholtzResidual:
    def test_uniform_density_small_residual(self, dirs_12_24):
        h = np.full(dirs_12_24.n_directions, 1 / (4 * np.pi))
        res = helmholtz_residual(partial(herglotz_wave, 1.0, h, dirs_12_24), 1.0, np.zeros(3), 1e-3)
        assert res <= 1e-5

    def test_second_order_convergence(self, dirs_12_24):
        rng = np.random.default_rng(3)
        h = rng.standard_normal(dirs_12_24.n_directions)
        point = np.array([0.2, 0.1, -0.3])
        w = partial(herglotz_wave, 2.0, h, dirs_12_24)
        r1 = helmholtz_residual(w, 2.0, point, 0.02)
        r2 = helmholtz_residual(w, 2.0, point, 0.01)
        assert 3.5 <= r1 / r2 <= 4.5

    def test_zero_density(self, dirs_12_24):
        h = np.zeros(dirs_12_24.n_directions)
        w = partial(herglotz_wave, 1.0, h, dirs_12_24)
        assert helmholtz_residual(w, 1.0, np.array([0.1, 0.2, 0.3]), 1e-3) == 0.0


def interior_block(k, grid, dirs, pts):
    """The interior rows as the trace spectrum assembles them: real cos/sin
    column pairs at one row weight sqrt(area / P)."""
    return _real_columns(k, pts, np.sqrt(grid.area / len(pts)), dirs.directions, dirs.weights)


# the cos/sin pairs of phases [phi, 0, 0] . [1, 0, 0] = phi exactly, at k
# = 1 and unit weights, and whether AVX512_SKX code is dispatched
_COLUMNS_CHILD = """
import json, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from wavetrace.herglotz import _real_columns
phases = np.array(json.loads(sys.argv[1]))
points = np.column_stack([phases, np.zeros_like(phases), np.zeros_like(phases)])
X = _real_columns(1.0, points, 1.0, np.array([[1.0, 0.0, 0.0]]), np.array([1.0]))
print(json.dumps({"avx512_skx": __cpu_features__["AVX512_SKX"], "columns": X.tolist()}))
"""


def assembled_in_child(phases, env):
    """(AVX512_SKX dispatched?, the P x 2 columns) of _COLUMNS_CHILD, run
    under the environment variables env."""
    src = str(Path(wavetrace.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _COLUMNS_CHILD, json.dumps(list(phases))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout)
    return out["avx512_skx"], np.array(out["columns"])


class TestAssembleTraceMatrix:
    @pytest.mark.parametrize("k", [3.0, np.pi, 3.3, 4.0, 5.7, 6.1, 41.7])
    def test_agrees_with_the_exp_form(self, k):
        # cos and sin of the phase, read as the real and imaginary parts,
        # are the complex exponential to rounding on any libm and any tan:
        # the boundary block as the trace spectrum's real columns, and the
        # interior block, against the whole-matrix expressions
        for star, dirs_shape, n_points in [
            (True, (12, 24), 576), (False, (12, 24), 576), (True, (10, 20), 500), (False, (12, 24), None),
        ]:
            grid = make_star_surface(1.0, [(2, 0, 0.1)], 24, 48) if star else make_sphere(1.0, 24, 48)
            dirs = make_direction_grid(*dirs_shape)
            pts = None if n_points is None else seed_interior_points(grid, n_points, seed=0)
            expected = stacked_trace_matrix(k, grid, dirs, pts)
            X = _real_columns(k, grid.nodes, np.sqrt(grid.weights)[:, None], dirs.directions, dirs.weights)
            if pts is not None:
                X = np.vstack([X, interior_block(k, grid, dirs, pts)])
            A = X[:, 0::2] + 1j * X[:, 1::2]
            assert np.max(np.abs(A - expected) / np.abs(expected)) <= 1e-15

    @pytest.mark.parametrize("env", [{}, NO_AVX512], ids=["default-dispatch", "no-avx512"])
    def test_cos_and_sin_within_two_eps_of_exact(self, env):
        # the tangent half-angle forms against mpmath at the float phase, on
        # numpy's vectorized tan and on libm's: within 2 eps = 4.4e-16
        # (measured 3.0e-16 here; over 2e5 uniform phases in [-50, 50],
        # 3.3e-16 for cos, near 1, and 2.6e-16 for sin)
        phases = [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 2 * np.pi, -2 * np.pi,
                  np.nextafter(np.pi, 0), np.nextafter(np.pi, 4)]
        phases += list(np.random.default_rng(7).uniform(-50, 50, 200))
        avx512, X = assembled_in_child(phases, env)
        if env and avx512:
            pytest.skip(f"{env} left AVX512_SKX code dispatched")
        for phi, (c, s) in zip(phases, X):
            assert abs(mp.mpf(c) - mp.cos(mp.mpf(phi))) <= 2 * np.finfo(float).eps, phi
            assert abs(mp.mpf(s) - mp.sin(mp.mpf(phi))) <= 2 * np.finfo(float).eps, phi

    def test_column_norms_equal_weighted_area(self, sphere_30_60, dirs_12_24):
        # cos^2 + sin^2 = 1: each pair of a direction beta_j of the half grid
        # holds 2 w_j area(S), w_j its weight on the whole grid
        X = _trace_columns(2.0, sphere_30_60, dirs_12_24)
        pair_norms2 = np.sum(X**2, axis=0).reshape(-1, 2).sum(axis=1)
        assert pair_norms2 == pytest.approx(_antipodal_half(dirs_12_24).weights * sphere_30_60.area, rel=1e-12)

    def test_constant_orthogonal_to_columns_at_pi(self, sphere_30_60, dirs_12_24):
        # integral_S e^{i pi beta . s} ds = 4 pi j_0(pi) = 0
        X = _trace_columns(np.pi, sphere_30_60, dirs_12_24)
        overlaps = X.T @ np.sqrt(sphere_30_60.weights)
        assert np.abs(overlaps).max() <= 1e-10

    def test_singular_values_match_refined_gram_oracle(self, dirs_10_20):
        coarse = make_sphere(1.0, 24, 48)
        fine = make_sphere(1.0, 48, 96)
        s_direct = np.linalg.svd(_trace_columns(1.0, coarse, dirs_10_20), compute_uv=False)
        s_oracle = brute_force_gram_singular_values(1.0, fine, dirs_10_20)
        n = min(40, len(s_direct))  # modes above the noise floor
        assert np.abs(s_direct[:n] - s_oracle[:n]).max() <= 1e-8

    def test_invalid_wavenumber(self, sphere_30_60, dirs_10_20):
        with pytest.raises(ValueError, match="wavenumber"):
            fit_trace(0.0, sphere_30_60, harmonic_on(sphere_30_60, 0, 0), dirs_10_20)


class TestFunkHecke:
    def test_vanishes_at_bessel_zero(self):
        assert abs(funk_hecke(HarmonicIndex(0, 0), np.pi, 1.0, EZ)) <= 1e-15

    def test_y00_closed_form(self):
        # 4 pi j_0(1) / sqrt(4 pi) = sqrt(4 pi) sin(1)
        val = funk_hecke(HarmonicIndex(0, 0), 1.0, 1.0, EZ)
        assert val == pytest.approx(np.sqrt(4 * np.pi) * np.sin(1.0), rel=1e-13)

    def test_vanishes_at_l1_zero(self):
        beta = np.array([0.6, 0.0, 0.8])
        assert abs(funk_hecke(HarmonicIndex(1, 0), bessel_zero(1, 1), 1.0, beta)) <= 1e-12

    def test_convention_against_direct_quadrature(self):
        # non-symmetric case pins sph_harm's conjugation convention once and for all
        grid = make_sphere(1.0, 30, 60)
        k = 1.7
        beta = np.array([0.3, -0.5, 0.81])
        beta /= np.linalg.norm(beta)
        quad = np.sum(grid.weights * harmonic_on(grid, 2, 1) * np.exp(1j * k * (grid.nodes @ beta)))
        assert funk_hecke(HarmonicIndex(2, 1), k, 1.0, beta) == pytest.approx(quad, abs=1e-12)


def pseudo_inverse_fit(k, grid, target, dirs):
    """fit_trace's projection written out with its cut at 1e-14 instead of
    DEFAULT_QR_RTOL: (relative residual, density norm) of the truncated
    pseudo-inverse, by one SVD of the real trace columns."""
    b = target * np.sqrt(grid.weights)
    B = np.column_stack([b.real, b.imag])
    U, s, Vh = np.linalg.svd(_trace_columns(k, grid, dirs), full_matrices=False)
    keep = s > 1e-14 * s[0]
    c = U[:, keep].T @ B
    return np.linalg.norm(B - U[:, keep] @ c) / np.linalg.norm(b), np.linalg.norm(Vh[keep].T @ (c / s[keep, None]))


class TestFitTrace:
    def test_lost_direction_residual_is_one(self, sphere_30_60, dirs_12_24):
        target = harmonic_on(sphere_30_60, 0, 0)
        residual, _ = fit_trace(np.pi, sphere_30_60, target, dirs_12_24)
        assert residual == pytest.approx(1.0, abs=1e-6)

    def test_representable_target_tiny_residual(self, sphere_30_60, dirs_12_24):
        target = harmonic_on(sphere_30_60, 0, 0)
        residual, _ = fit_trace(1.0, sphere_30_60, target, dirs_12_24)
        assert residual <= 1e-8

    # scale: the target as given (None) or times a tiny factor. Every cutoff
    # of the fit is relative, so the fit is homogeneous in the target.
    @pytest.mark.parametrize("scale", [None, 1e-12])
    @pytest.mark.parametrize("k", [1.0, 2.0, 2.5])
    def test_density_norm_is_the_funk_hecke_value(self, sphere_30_60, dirs_12_24, k, scale):
        # Funk-Hecke on the unit sphere: the density h = Y_00 / (4 pi j_0(k))
        # has the trace Y_00, so its norm is 1 / (4 pi j_0(k))
        scale = 1.0 if scale is None else scale
        target = scale * harmonic_on(sphere_30_60, 0, 0)
        _, density_norm = fit_trace(k, sphere_30_60, target, dirs_12_24)
        assert density_norm == pytest.approx(scale / (4 * np.pi * sph_bessel_j(0, k)), rel=1e-12)

    @pytest.mark.parametrize("scale", [None, 1e-8])
    @pytest.mark.parametrize("l,m,k", [(2, 1, 1.0), (3, 2, 4.0), (5, 3, 3.0)])
    @pytest.mark.parametrize(
        "coefs, n_theta", [([], 20), ([], 24), ([(2, 0, 0.1)], 24)], ids=["sphere-20x40", "sphere-24x48", "star-24x48"]
    )
    def test_matches_the_complex_fit(self, dirs_10_20, coefs, n_theta, l, m, k, scale):
        # off the spectrum, one real SVD on the half grid fits as the complex
        # SVD over every direction does, for the target as given (None) or
        # times a tiny factor; at an eigenvalue there is no density
        grid = make_star_surface(1.0, coefs, n_theta, 2 * n_theta)
        target = (1.0 if scale is None else scale) * harmonic_on(grid, l, m)
        residual, density_norm = fit_trace(k, grid, target, dirs_10_20)
        expected_residual, expected_norm = complex_trace_fit(k, grid, target, dirs_10_20)
        assert density_norm == pytest.approx(expected_norm, rel=1e-10)
        assert residual == pytest.approx(expected_residual, abs=1e-12)

    def test_non_finite_target_rejected(self, sphere_30_60, dirs_12_24):
        target = harmonic_on(sphere_30_60, 0, 0)
        target[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_trace(1.0, sphere_30_60, target, dirs_12_24)

    def test_column_target_exact(self, sphere_30_60, dirs_12_24):
        # a trace column is in the span: the projection cut at 1e-14 leaves
        # rounding of it, the fit's cutoff less than 1e-8 (measured 2.4e-9)
        target = np.exp(2j * (sphere_30_60.nodes @ dirs_12_24.directions[37]))
        residual, _ = pseudo_inverse_fit(2.0, sphere_30_60, target, dirs_12_24)
        assert residual <= 1e-12
        residual, _ = fit_trace(2.0, sphere_30_60, target, dirs_12_24)
        assert residual <= 1e-8

    def test_zero_target_rejected(self, sphere_30_60, dirs_12_24):
        with pytest.raises(ValueError):
            fit_trace(1.0, sphere_30_60, np.zeros(sphere_30_60.n_nodes), dirs_12_24)

    @pytest.mark.parametrize(
        "l,m,k_eigen", [(0, 0, None), (1, 1, None), (2, -2, None)]
    )
    def test_dichotomy_at_eigenvalues(self, sphere_30_60, dirs_12_24, l, m, k_eigen):
        k = bessel_zero(l, 1)
        target = harmonic_on(sphere_30_60, l, m)
        residual, density_norm = fit_trace(k, sphere_30_60, target, dirs_12_24)
        assert residual == pytest.approx(1.0, abs=1e-6)
        # the target is orthogonal to the trace span: no density fits it, and
        # the norm of a computed one would be rounding
        assert density_norm is None

    def test_density_norm_of_a_mixed_target_at_pi(self, sphere_30_60, dirs_12_24):
        # at k = pi, Y_00 is orthogonal to the trace span and Y_10 is not. The
        # rounding of the Y_00 part (1.6e-3) outweighs the density of a 1e-3
        # Y_10 part, so there is none; a 0.1 part's density norm is its own
        # (measured 0.2% off)
        y00, y10 = harmonic_on(sphere_30_60, 0, 0), harmonic_on(sphere_30_60, 1, 0)
        _, y10_norm = fit_trace(np.pi, sphere_30_60, y10, dirs_12_24)
        _, small_part = fit_trace(np.pi, sphere_30_60, y00 + 1e-3 * y10, dirs_12_24)
        _, large_part = fit_trace(np.pi, sphere_30_60, y00 + 0.1 * y10, dirs_12_24)
        assert small_part is None
        assert large_part == pytest.approx(0.1 * y10_norm, rel=1e-2)

    def test_density_past_the_truncation(self, sphere_30_60, dirs_12_24):
        # j_9(1) = 1.5e-9 puts Y_91's density on singular values below
        # DEFAULT_QR_RTOL: the target reads as orthogonal to the truncated
        # span, and the cut at 1e-14 finds its Funk-Hecke density
        target = harmonic_on(sphere_30_60, 9, 1)
        residual, density_norm = fit_trace(1.0, sphere_30_60, target, dirs_12_24)
        assert residual == pytest.approx(1.0, abs=1e-6)
        assert density_norm is None
        residual, density_norm = pseudo_inverse_fit(1.0, sphere_30_60, target, dirs_12_24)
        assert residual <= 1e-6
        assert density_norm == pytest.approx(1 / (4 * np.pi * sph_bessel_j(9, 1.0)), rel=1e-6)

    @pytest.mark.parametrize("l,m", [(0, 0), (1, 0), (2, 2), (3, -1), (4, 4)])
    def test_dichotomy_off_spectrum(self, sphere_30_60, dirs_12_24, l, m):
        # k = 2.0 is >= 0.05 away from every zero of every j_l, l <= 4
        target = harmonic_on(sphere_30_60, l, m)
        residual, _ = fit_trace(2.0, sphere_30_60, target, dirs_12_24)
        assert residual <= 1e-6

    def test_residual_monotone_under_added_directions(self, sphere_30_60):
        base = make_direction_grid(8, 16)
        rng = np.random.default_rng(5)
        extra = rng.standard_normal((10, 3))
        extra /= np.linalg.norm(extra, axis=1)[:, None]
        delta = 0.01
        # in +- pairs, so that the enlarged grid stays antipodally symmetric
        enlarged = DirectionGrid(
            directions=np.vstack([base.directions, extra, -extra]),
            weights=np.concatenate(
                [base.weights * (1 - delta), np.full(20, delta * 4 * np.pi / 20)]
            ),
        )
        target = harmonic_on(sphere_30_60, 3, 1)
        # the spans cut at 1e-14 are nested; the fit's truncated ones need
        # not be (Y_31 goes from 5.0e-10 to 8.9e-10)
        res_base, _ = pseudo_inverse_fit(2.0, sphere_30_60, target, base)
        res_enlarged, _ = pseudo_inverse_fit(2.0, sphere_30_60, target, enlarged)
        assert res_enlarged <= res_base + 1e-12
