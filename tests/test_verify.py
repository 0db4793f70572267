import numpy as np
import pytest

import wavetrace.sweep
import wavetrace.verify
from oracles import (
    bessel_j_series,
    complex_decomposition_residual,
    harmonic_on,
    herglotz_wave,
    radial_bessel_moment,
)
from wavetrace import (
    HarmonicIndex,
    InconclusiveCheckError,
    bessel_zero,
    check_decomposition,
    check_green_reduction,
    check_lemma1_orthogonality,
    check_necessity,
    eigenfunction_normal_derivative,
    fit_trace,
    make_direction_grid,
    make_sphere,
    run_default_suite,
    sph_harm,
)
from wavetrace.herglotz import _trace_columns
from wavetrace.sweep import _one_blas_thread


class TestNecessity:
    def test_ground_mode_tight_residual(self, sphere_40_80, dirs_12_24):
        rep = check_necessity(HarmonicIndex(0, 0), 1, sphere_40_80, dirs_12_24)
        assert rep.passed
        assert rep.residual <= 1e-10

    def test_l2_mode(self, sphere_40_80, dirs_12_24):
        rep = check_necessity(HarmonicIndex(2, 1), 1, sphere_40_80, dirs_12_24)
        assert rep.passed
        assert rep.residual <= 1e-8

    def test_off_spectrum_control_discriminates(self, sphere_40_80, dirs_12_24):
        rep = check_necessity(HarmonicIndex(0, 0), 1, sphere_40_80, dirs_12_24, k_factor=1.01)
        assert rep.expected_failure
        assert not rep.passed
        assert rep.residual >= 1e-3

    @pytest.mark.parametrize("k_factor", [1.01, 0.97])
    @pytest.mark.parametrize("R", [0.7, 1.0])
    @pytest.mark.parametrize("l,m", [(0, 0), (1, 1), (2, -1)])
    def test_off_spectrum_residual_is_funk_hecke(self, dirs_12_24, l, m, R, k_factor):
        # the pairing with u_N ~ Y_lm is 4 pi R^2 i^l j_l(kR) Y_lm(beta) times
        # u_N's amplitude, so its RMS over the direction sphere, relative to
        # ||u_N|| R, is sqrt(4 pi) |j_l(k_factor z_l1)| for every m; the
        # maximum over some directions would be another number for l >= 1
        rep = check_necessity(HarmonicIndex(l, m), 1, make_sphere(R, 40, 80), dirs_12_24, k_factor=k_factor)
        reference = np.sqrt(4 * np.pi) * abs(bessel_j_series(l, rep.inputs["k"] * R))
        assert rep.residual == pytest.approx(reference, rel=1e-12)

    def test_reproducible_from_seed(self, sphere_40_80, dirs_12_24):
        # the check draws nothing: two runs give the same report, whole
        a = check_necessity(HarmonicIndex(1, 0), 1, sphere_40_80, dirs_12_24)
        b = check_necessity(HarmonicIndex(1, 0), 1, sphere_40_80, dirs_12_24)
        assert a == b


class TestLemma1Orthogonality:
    def test_ground_eigenvalue(self, sphere_40_80, dirs_12_24):
        rep = check_lemma1_orthogonality(HarmonicIndex(0, 0), 1, sphere_40_80, dirs_12_24)
        assert rep.passed
        assert rep.residual <= 1e-8

    def test_matched_harmonic_density_is_funk_hecke_zero(self, sphere_40_80, dirs_12_24):
        # h = Y_lm of the eigen index: the pairing is exactly the vanishing
        # sphere integral, evaluated through the Herglotz route
        idx = HarmonicIndex(1, 0)
        k = bessel_zero(1, 1)
        theta = np.arccos(dirs_12_24.directions[:, 2])
        phi = np.arctan2(dirs_12_24.directions[:, 1], dirs_12_24.directions[:, 0])
        h = sph_harm(idx, theta, phi)
        w_trace = herglotz_wave(k, h, dirs_12_24, sphere_40_80.nodes)
        v_n = eigenfunction_normal_derivative(idx, 1, sphere_40_80)
        inner = np.sum(sphere_40_80.weights * w_trace * np.conj(v_n))
        # the matched trace itself vanishes at the eigenvalue, so the raw
        # pairing is the (zero) closed-form sphere integral
        assert abs(inner) <= 1e-10

    def test_off_spectrum_control(self, sphere_40_80, dirs_12_24):
        rep = check_lemma1_orthogonality(HarmonicIndex(0, 0), 1, sphere_40_80, dirs_12_24, k_factor=1.01)
        assert rep.expected_failure
        assert not rep.passed
        assert rep.residual >= 1e-2

    def test_batched_densities_match_the_per_density_loop(self, sphere_40_80, dirs_12_24):
        # one density at a time, its real part then its imaginary part drawn
        # from the one generator; off the spectrum, so that the residual is
        # no rounding (0.016) and any other draw order would move it
        idx = HarmonicIndex(1, 1)
        rep = check_lemma1_orthogonality(idx, 1, sphere_40_80, dirs_12_24, seed=3, k_factor=1.01)
        A = _trace_columns(rep.inputs["k"], sphere_40_80, dirs_12_24)
        v = eigenfunction_normal_derivative(idx, 1, sphere_40_80) * np.sqrt(sphere_40_80.weights)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(rep.inputs["n_random_densities"]):
            w = A @ (rng.standard_normal(A.shape[1]) + 1j * rng.standard_normal(A.shape[1]))
            worst = max(worst, abs(np.vdot(v, w)) / (np.linalg.norm(w) * np.linalg.norm(v)))
        assert rep.residual == pytest.approx(worst, rel=1e-12)


@pytest.mark.parametrize("check", [check_necessity, check_lemma1_orthogonality])
def test_vanishing_normal_derivative_is_inconclusive(monkeypatch, sphere_40_80, dirs_12_24, check):
    # a u_N that vanished leaves nothing to pair, so neither check may pass on it
    monkeypatch.setattr(
        wavetrace.verify, "eigenfunction_normal_derivative", lambda idx, n, grid: np.zeros(len(grid.weights), complex)
    )
    with pytest.raises(InconclusiveCheckError, match="u_N vanished"):
        check(HarmonicIndex(0, 0), 1, sphere_40_80, dirs_12_24)


class TestGreenReduction:
    def test_l0_closed_form_identity(self):
        # pi^2 integral_0^1 r^2 j_0(pi r) dr = -pi j_0'(pi) = 1
        rep = check_green_reduction(HarmonicIndex(0, 0), 1, 1.0)
        assert rep.passed
        assert rep.residual <= 1e-10
        volume = rep.inputs["volume_side"]
        assert volume == pytest.approx(1.0, abs=1e-10)
        oracle = np.pi**2 * radial_bessel_moment(0, np.pi, 1.0)
        assert volume == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("l,n", [(1, 1), (2, 1), (3, 1), (1, 2), (3, 2)])
    def test_higher_modes(self, l, n):
        rep = check_green_reduction(HarmonicIndex(l, 0), n, 1.0)
        assert rep.passed
        assert rep.residual <= 1e-9

    def test_nonunit_radius(self):
        rep = check_green_reduction(HarmonicIndex(1, 0), 1, 0.7)
        assert rep.passed


class TestDecomposition:
    def test_off_spectrum_traces_suffice(self, sphere_30_60, dirs_12_24):
        rep = check_decomposition(1.0, sphere_30_60, dirs_12_24)
        assert rep.passed
        assert rep.residual <= 1e-5
        assert rep.inputs["eigen_indices"] == []

    def test_at_eigenvalue_needs_normal_derivative(self, sphere_30_60, dirs_12_24):
        with_eig = check_decomposition(np.pi, sphere_30_60, dirs_12_24)
        assert with_eig.passed
        assert with_eig.inputs["eigen_indices"] == [(0, 1)]
        # the traces alone leave Y_00 whole: totality fails at k = pi
        traces_only, _ = fit_trace(np.pi, sphere_30_60, harmonic_on(sphere_30_60, 0, 0), dirs_12_24)
        assert traces_only == pytest.approx(1.0, abs=1e-6)

    def test_suite_checks_resolve_the_residual_on_one_blas_thread(self, sphere_30_60, dirs_12_24):
        # the default suite's two checks: a difference of squared norms has
        # a sqrt(eps) floor and clamps to 0, so it could not pass this
        with _one_blas_thread():
            reports = [
                check_decomposition(1.0, sphere_30_60, dirs_12_24),
                check_decomposition(np.pi, sphere_30_60, dirs_12_24),
            ]
        for rep in reports:
            assert rep.passed
            assert 0 < rep.residual <= 1e-12

    def test_reproducible(self, sphere_30_60, dirs_12_24):
        a = check_decomposition(1.0, sphere_30_60, dirs_12_24)
        b = check_decomposition(1.0, sphere_30_60, dirs_12_24)
        assert a == b

    @pytest.mark.parametrize("seed", range(5))
    def test_worst_case_bounds_a_random_target(self, sphere_30_60, dirs_12_24, seed):
        # off the spectrum the stack is the trace columns alone, so fit_trace
        # gives any one target's residual: every combination of the Y_lm,
        # l <= 4, leaves at most the worst case (7.7e-14; these 1.5e-14 to 3.1e-14)
        worst = check_decomposition(1.0, sphere_30_60, dirs_12_24).residual
        rng = np.random.default_rng(seed)
        target = sum(
            complex(*rng.standard_normal(2)) * harmonic_on(sphere_30_60, l, m)
            for l in range(5)
            for m in range(-l, l + 1)
        )
        residual, _ = fit_trace(1.0, sphere_30_60, target, dirs_12_24)
        assert 0 < residual <= worst

    @pytest.mark.parametrize("l,m", [(1, 1), (2, -1)])
    def test_real_stack_on_a_complex_eigenspace(self, sphere_30_60, dirs_12_24, l, m):
        # at k = z_l1 the eigen normal derivatives are complex for m != 0;
        # the stack takes their real and imaginary parts as real columns.
        # The worst case over every Y_lm, l <= 4, is the complex stack's,
        # and bounds the complex stack's residual of the one Y_lm
        k = bessel_zero(l, 1)
        rep = check_decomposition(k, sphere_30_60, dirs_12_24)
        assert rep.passed
        assert rep.inputs["eigen_indices"] == [(l, 1)]
        targets = [(j, i) for j in range(5) for i in range(-j, j + 1)]
        reference = complex_decomposition_residual(k, 1.0, sphere_30_60, dirs_12_24, targets, [(l, 1)])
        assert rep.residual == pytest.approx(reference, abs=1e-12)
        one = complex_decomposition_residual(k, 1.0, sphere_30_60, dirs_12_24, [(l, m)], [(l, 1)])
        assert one <= reference


class TestDefaultSuite:
    def test_reports_independent_of_the_pool_size(self, monkeypatch):
        # the pool sizes itself from the CPU count; each sampling check has its own generator
        suites = []
        for cpus in (1, 2):
            monkeypatch.setattr(wavetrace.sweep.os, "cpu_count", lambda n=cpus: n)
            suites.append(run_default_suite(seed=0, inject_off_spectrum=True))
        assert len(suites[0]) == 44
        assert suites[0] == suites[1]


class TestReportShape:
    def test_passed_iff_residual_within_tolerance(self, sphere_40_80, dirs_12_24):
        rep = check_necessity(HarmonicIndex(0, 0), 1, sphere_40_80, dirs_12_24)
        assert rep.passed == (rep.residual <= rep.tolerance)
