import sys
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import wavetrace.spectra
import wavetrace.sweep
from wavetrace import (
    HarmonicIndex,
    InterpolationError,
    UnsupportedSurfaceError,
    ball_dirichlet_eigs,
    bessel_zero,
    detect_dips,
    eigenfunction_normal_derivative,
    find_dips,
    make_single_layer_spectrum,
    make_sphere,
    make_star_surface,
    sph_bessel_j,
    sph_bessel_j_deriv,
    static_row_integral,
    sweep_k,
)
from wavetrace.spectra import (
    _CHEB_TAIL_TOL,
    _cheb_start_degree,
    _chebyshev_tail,
    _lobatto_points,
    _orbit_build,
    _sector_statics,
    bandlimited_basis,
)
from wavetrace.surface import SurfaceGrid, _orbit, _spherical_coords
from wavetrace.sweep import _one_blas_thread
from oracles import (
    ball_eigenfunction,
    complex_basis_compression,
    harmonic_on,
    helmholtz_residual,
    single_layer_symbol,
    static_row_integral_adaptive,
)


def nystrom_reference(grid, static_integral):
    """k -> the weighted Nystrom matrix written as whole-matrix expressions,
    with no sectors, transforms or shared buffers: the oracle for the
    library's orbit build. Its k-independent parts are formed once."""
    nodes, w = grid.nodes, grid.weights
    dist = np.linalg.norm(nodes[:, None, :] - nodes[None, :, :], axis=-1)
    np.fill_diagonal(dist, 1.0)
    static = 1.0 / (4 * np.pi * dist)
    static_diag = static_integral - ((static * w[None, :]).sum(axis=1) - static.diagonal() * w)
    sw = np.sqrt(w)
    weight = np.outer(sw, sw) / (4 * np.pi * dist)
    idx = np.arange(len(w))

    def at(k):
        A = np.exp(1j * k * dist) * weight
        A[idx, idx] = 1j * k * w / (4 * np.pi) + static_diag
        return A

    return at


def compressed_rayleigh(grid, k, l, m):
    """The Rayleigh quotient of the weighted Nystrom matrix at k on the
    direction sqrt(w) Y_lm, l <= 8, through the library's compressed build:
    c^H B c / c^H c with c = Q^T y."""
    c = bandlimited_basis(grid, 8).T @ (harmonic_on(grid, l, m) * np.sqrt(grid.weights))
    return (c.conj() @ _orbit_build(grid, 8)[0](k) @ c) / (c.conj() @ c)


# Surfaces of the orbit tests, each with the order of its rotation group
# about z.
ORBIT_SURFACES = {"sphere-24x48": 48, "y20-24x48": 48, "y20-12x24": 24, "y22-24x48": 2, "two-term-24x48": 1}


def orbit_surface(name, request):
    if name == "sphere-24x48":
        return request.getfixturevalue("sphere_24_48")
    if name == "y20-24x48":
        return request.getfixturevalue("star_grid_24_48")
    n_theta = 12 if name == "y20-12x24" else 24
    coefs = {"y20-12x24": [(2, 0, 0.1)], "y22-24x48": [(2, 2, 0.1)], "two-term-24x48": [(3, 2, 0.15), (1, 1, 0.05)]}
    return make_star_surface(1.0, coefs[name], n_theta, 2 * n_theta)


def traced_peak_bytes(fn, *args):
    """Peak bytes traced by tracemalloc while fn(*args) runs, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def direct_spectrum(grid, static_integral, band_limit=8):
    """The compressed single-layer spectrum evaluated directly from the
    whole-matrix reference: the kernel is rebuilt and projected at every k,
    with no interpolation."""
    Q, kernel = bandlimited_basis(grid, band_limit), nystrom_reference(grid, static_integral)

    def singular_values(k):
        return np.linalg.svd(Q.T @ kernel(k) @ Q, compute_uv=False)

    return singular_values


def library_spectrum(grid, band_limit=8):
    """The compressed spectrum from the library's own build at every k, with
    no interpolation."""
    build, _ = _orbit_build(grid, band_limit)

    def singular_values(k):
        return np.linalg.svd(build(k), compute_uv=False)

    return singular_values


def recorded_interpolant(grid, k_min, k_max):
    """The band-limit-8 spectrum on [k_min, k_max], built on 2 workers, with
    the k of every kernel build and the static row integral it used."""
    kernel, static = wavetrace.spectra._compressed_kernel, wavetrace.spectra.static_row_integral
    node_ks, integrals = [], []

    def counting(k, *statics):
        node_ks.append(k)
        return kernel(k, *statics)

    def recording(*args, **kwargs):
        integrals.append(static(*args, **kwargs))
        return integrals[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wavetrace.spectra, "_compressed_kernel", counting)
        mp.setattr(wavetrace.spectra, "static_row_integral", recording)
        mp.setattr(wavetrace.sweep.os, "cpu_count", lambda: 2)
        spectrum = make_single_layer_spectrum(grid, 8, k_min, k_max)
    (g,) = integrals
    return SimpleNamespace(grid=grid, k_min=k_min, k_max=k_max, spectrum=spectrum, node_ks=node_ks, g=g)


@pytest.fixture(scope="module")
def sphere_interpolant(sphere_24_48):
    # the README problem
    return recorded_interpolant(sphere_24_48, 2.9, 3.4)


@pytest.fixture(scope="module")
def star_interpolant(star_grid_24_48):
    # the star-cross problem
    return recorded_interpolant(star_grid_24_48, 5.0, 6.5)


class TestBallDirichletEigs:
    def test_unit_ball_up_to_6p5(self):
        recs = ball_dirichlet_eigs(1.0, 6.5)
        ks = [r.k for r in recs]
        mults = [r.multiplicity for r in recs]
        assert ks == pytest.approx(
            [np.pi, 4.4934094579090642, 5.7634591968945498, 2 * np.pi], abs=1e-8
        )
        assert mults == [1, 3, 5, 1]
        assert [r.l for r in recs] == [0, 1, 2, 0]

    def test_radius_scaling(self):
        recs = ball_dirichlet_eigs(2.0, 2.0)
        assert len(recs) == 1
        assert recs[0].k == pytest.approx(np.pi / 2, rel=1e-14)

    def test_empty_below_first_zero(self):
        assert ball_dirichlet_eigs(1.0, 3.0) == []

    def test_record_invariants(self):
        for rec in ball_dirichlet_eigs(1.0, 12.0):
            assert abs(sph_bessel_j(rec.l, rec.k * 1.0)) <= 1e-12
            assert rec.multiplicity == 2 * rec.l + 1
            assert rec.source == "ball-analytic"

    def test_records_are_the_bessel_zeros(self):
        # every degree below the k R < MAX_DEGREE cap, bit for bit
        recs = ball_dirichlet_eigs(1.0, 63.9)
        assert len(recs) == 497
        assert all(rec.k == bessel_zero(rec.l, rec.n) / 1.0 for rec in recs)

    @pytest.mark.parametrize(
        "R, k_max", [(1.0, np.inf), (1.0, np.nan), (np.inf, 1.0), (np.nan, 1.0)]
    )
    def test_nonfinite_input_rejected(self, R, k_max):
        # an infinite or NaN k_max R would scan degrees forever
        with pytest.raises(ValueError, match="finite"):
            ball_dirichlet_eigs(R, k_max)

    @pytest.mark.parametrize("R, k_max", [(1.0, 70.0), (1.0, 64.0), (2.0, 32.0)])
    def test_degree_cap_rejected_before_any_scan(self, R, k_max, monkeypatch):
        def no_scan(l):
            raise AssertionError(f"scanned the zeros of j_{l}")

        monkeypatch.setattr(wavetrace.spectra, "_bessel_zeros", no_scan)
        with pytest.raises(ValueError, match="below 64"):
            ball_dirichlet_eigs(R, k_max)

    def test_sorted_and_complete_against_dense_scan(self):
        # brute-force scan of j_l sign changes, l <= 9, as a completeness oracle
        recs = ball_dirichlet_eigs(1.0, 9.0)
        ks = np.array([r.k for r in recs])
        assert np.all(np.diff(ks) > 0)
        xs = np.linspace(1e-3, 9.0, 30000)
        count = 0
        for l in range(10):
            vals = sph_bessel_j(l, xs)
            count += int(np.sum(np.abs(np.diff(np.sign(vals))) > 1))
        assert count == len(recs)


class TestBallEigenfunction:
    def test_vanishes_on_boundary(self):
        pts = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, -1.0, 0.0]])
        vals = ball_eigenfunction(HarmonicIndex(1, 0), 1, 1.0, pts)
        assert np.abs(vals).max() <= 1e-12

    def test_center_value_l0(self):
        val = ball_eigenfunction(HarmonicIndex(0, 0), 1, 1.0, np.zeros((1, 3)))[0]
        assert val == pytest.approx(1 / np.sqrt(4 * np.pi), rel=1e-13)

    def test_interior_value_satisfies_helmholtz(self):
        # 7-point FD Laplacian residual at x = (0,0,0.5)
        idx, n, R = HarmonicIndex(1, 0), 1, 1.0
        k = bessel_zero(1, 1) / R
        u = partial(ball_eigenfunction, idx, n, R)
        assert helmholtz_residual(u, k, np.array([0.0, 0.0, 0.5]), 1e-3) <= 1e-5


class TestNormalDerivative:
    def test_l0_closed_form(self, sphere_30_60):
        u_n = eigenfunction_normal_derivative(HarmonicIndex(0, 0), 1, sphere_30_60)
        expect = np.pi * (-1 / np.pi) / np.sqrt(4 * np.pi)  # k j_0'(pi) Y_00
        assert np.abs(u_n - expect).max() <= 1e-13

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_nonvanishing_norm(self, sphere_30_60, l):
        u_n = eigenfunction_normal_derivative(HarmonicIndex(l, 0), 1, sphere_30_60)
        norm = np.sqrt(np.sum(sphere_30_60.weights * np.abs(u_n) ** 2))
        assert norm > 0.1

    @pytest.mark.parametrize("l,n", [(0, 1), (1, 1), (2, 2), (3, 1)])
    def test_norm_matches_orthonormality(self, sphere_30_60, l, n):
        # ||u_N||_{L2(S)} = |k j_l'(kR)| R by Y_lm orthonormality
        u_n = eigenfunction_normal_derivative(HarmonicIndex(l, 1 if l else 0), n, sphere_30_60)
        norm = np.sqrt(np.sum(sphere_30_60.weights * np.abs(u_n) ** 2))
        k = bessel_zero(l, n)
        assert norm == pytest.approx(abs(k * sph_bessel_j_deriv(l, k)), abs=1e-10)

    def test_non_sphere_rejected(self, star_grid_24_48):
        with pytest.raises(UnsupportedSurfaceError):
            eigenfunction_normal_derivative(HarmonicIndex(0, 0), 1, star_grid_24_48)


class TestSingleLayerSymbol:
    def test_vanishes_exactly_at_bessel_zeros(self):
        assert abs(single_layer_symbol(0, np.pi, 1.0)) <= 1e-15
        assert abs(single_layer_symbol(1, bessel_zero(1, 1), 1.0)) <= 1e-15

    def test_l0_closed_form(self):
        # h_0^(1)(x) = -i e^{ix}/x, so lambda_0(1, 1) = j_0(1) e^{i}
        expect = sph_bessel_j(0, 1.0) * np.exp(1j)
        assert single_layer_symbol(0, 1.0, 1.0) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("k", [1.0, 6.0])
    def test_nystrom_agreement(self, sphere_24_48, k):
        # Rayleigh quotients of the matrix on the Y_lm directions vs the
        # symbol, through the compressed build: each direction lies in the
        # band-limit-8 span, so y^H A y = c^H B c with c = Q^T y
        for l in range(6):
            rayleigh = compressed_rayleigh(sphere_24_48, k, l, min(l, 1))
            assert abs(rayleigh - single_layer_symbol(l, k, 1.0)) <= 1e-3

    def test_nystrom_agreement_refines(self, sphere_30_60):
        for l in range(4):
            rayleigh = compressed_rayleigh(sphere_30_60, 1.0, l, 0)
            assert abs(rayleigh - single_layer_symbol(l, 1.0, 1.0)) <= 1e-4


class TestStaticRowIntegral:
    def test_sphere_closed_form(self, sphere_24_48):
        g = static_row_integral(sphere_24_48)
        assert np.abs(g - 1.0).max() == 0.0  # exact identity on the sphere

    def test_near_sphere_star_matches_sphere_closed_form(self):
        # a star with a vanishingly small perturbation takes the rotated rule
        grid = make_star_surface(1.0, [(2, 0, 1e-12)], 12, 24)
        g = static_row_integral(grid)
        assert np.abs(g - 1.0).max() <= 1e-11

    def test_axisymmetric_star_integral_keeps_its_symmetry(self, star_grid_24_48):
        # r = 1 + 0.1 Re Y_20 is invariant under rotations about z and under
        # z -> -z, and the grid's rings and hemispheres map onto each other
        g = static_row_integral(star_grid_24_48).reshape(24, 48)
        assert np.abs(g - g[:, :1]).max() <= 1e-14
        assert np.abs(g - g[::-1]).max() <= 1e-14

    @pytest.mark.parametrize("node", [0, 24 * 5 + 11], ids=["near-pole", "equatorial"])
    def test_star_integral_matches_adaptive_quadrature(self, node):
        eps = 0.1
        grid = make_star_surface(1.0, [(2, 0, eps)], 12, 24)
        _, theta, phi = _spherical_coords(grid.nodes[node])
        assert abs(static_row_integral(grid)[node] - static_row_integral_adaptive(1.0, eps, theta, phi)) <= 1e-12

    @pytest.mark.parametrize("coefs", [[(2, 0, 0.1)], [(3, 2, 0.15), (1, 1, 0.05)]], ids=["y20", "two-term"])
    def test_star_integral_is_finite(self, coefs):
        assert np.isfinite(static_row_integral(make_star_surface(1.0, coefs, 24, 48))).all()

    def test_pool_size_leaves_the_statics_bit_identical(self, set_pool_size):
        # the row blocks fill a shared array block by block; the two-term
        # star has group order 1, so its 288 nodes fill five blocks
        grid = make_star_surface(1.0, [(3, 2, 0.15), (1, 1, 0.05)], 12, 24)
        set_pool_size(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled_g = static_row_integral(grid)
            pooled = _sector_statics(grid, pooled_g)
        finally:
            sys.setswitchinterval(interval)
        set_pool_size(1)
        serial_g = static_row_integral(grid)
        serial = _sector_statics(grid, serial_g)
        assert np.array_equal(pooled_g, serial_g)
        for a, b in zip(pooled, serial):
            assert np.array_equal(a, b)

    def test_interpolant_uses_the_static_integral(self, star_interpolant):
        assert np.array_equal(static_row_integral(star_interpolant.grid), star_interpolant.g)

    def test_unsupported_kind(self):
        from wavetrace import SurfaceGrid

        grid = make_sphere(1.0, 12, 24)
        custom = SurfaceGrid(
            nodes=grid.nodes, weights=grid.weights, descriptor={"kind": "custom"},
        )
        with pytest.raises(UnsupportedSurfaceError):
            static_row_integral(custom)


class TestSingleLayerMatrix:
    def test_symmetric_not_hermitian(self, sphere_24_48):
        # A is complex symmetric, so B = Q^T A Q is too
        B = _orbit_build(sphere_24_48, 8)[0](2.0)
        scale = np.abs(B).max()
        assert np.abs(B - B.T).max() <= 1e-10 * scale
        assert np.abs(B - B.conj().T).max() > 1e-3 * scale

    def test_compressed_sigma_min_off_spectrum(self, sphere_24_48):
        # no j_l(1) = 0 for any l: the compressed operator is well bounded below
        spectrum = make_single_layer_spectrum(sphere_24_48, 8, 1.0, 1.1)
        assert spectrum(1.0)[-1] >= 1e-2

    def test_dip_through_pi(self, sphere_24_48):
        spectrum = make_single_layer_spectrum(sphere_24_48, 8, np.pi - 0.2, np.pi + 0.2)
        at_pi = spectrum(np.pi)[-1]
        assert spectrum(np.pi - 0.2)[-1] >= 10 * at_pi
        assert spectrum(np.pi + 0.2)[-1] >= 10 * at_pi

    @pytest.mark.parametrize("k", [-1.0, 0.0, np.nan, np.inf])
    def test_indicator_rejects_invalid_wavenumber(self, k):
        spectrum = make_single_layer_spectrum(make_sphere(1.0, 8, 16), 4, 1.0, 1.1)
        with pytest.raises(ValueError, match="wavenumber k must be positive"):
            spectrum(k)

    @pytest.mark.parametrize("surface", list(ORBIT_SURFACES))
    def test_orbit_build_matches_whole_matrix_expression(self, surface, request):
        # block-circulant over the rotation group, by FFT, against Q^T A Q
        grid = orbit_surface(surface, request)
        g = static_row_integral(grid)
        Q, build, kernel = bandlimited_basis(grid, 8), _orbit_build(grid, 8)[0], nystrom_reference(grid, g)
        for k in (3.1, 5.6301, 6.4):
            reference = Q.T @ kernel(k) @ Q
            assert np.abs(build(k) - reference).max() <= 1e-13 * np.abs(reference).max()

    @pytest.mark.parametrize("surface", list(ORBIT_SURFACES))
    def test_group_order_from_the_descriptor(self, surface, request):
        # gcd(n_phi, |m| of every term)
        assert _orbit(orbit_surface(surface, request))[0] == ORBIT_SURFACES[surface]

    @pytest.mark.parametrize("surface", ["sphere_24_48", "star_grid_24_48"])
    def test_permuted_nodes_are_refused(self, surface, request):
        grid = request.getfixturevalue(surface)
        perm = np.random.default_rng(5).permutation(grid.n_nodes)
        shuffled = SurfaceGrid(
            nodes=grid.nodes[perm], weights=grid.weights[perm], descriptor=grid.descriptor,
        )
        with pytest.raises(UnsupportedSurfaceError, match="rotated copies of its first sector"):
            make_single_layer_spectrum(shuffled, 8, 3.0, 3.2)
        # the star's static row integral runs its rule on the first sector only
        if surface == "star_grid_24_48":
            with pytest.raises(UnsupportedSurfaceError, match="rotated copies of its first sector"):
                static_row_integral(shuffled)

    def test_grid_other_than_the_descriptor_is_refused(self, sphere_24_48):
        # the descriptor names the product grid the orbit is read from
        half = SurfaceGrid(
            nodes=sphere_24_48.nodes[:576], weights=sphere_24_48.weights[:576], descriptor=sphere_24_48.descriptor,
        )
        with pytest.raises(UnsupportedSurfaceError, match="24x48 sphere descriptor on a grid of 576 nodes"):
            make_single_layer_spectrum(half, 8, 3.0, 3.2)

    def test_memory_one_buffer_per_evaluation(self, sphere_24_48):
        # statics and a build hold arrays of the first sector's N^2 / n
        # entries and of A Q's N M, none of N^2
        g = static_row_integral(sphere_24_48)
        n, group = sphere_24_48.n_nodes, _orbit(sphere_24_48)[0]
        size = n * n / group + n * 81
        statics_peak, _ = traced_peak_bytes(_sector_statics, sphere_24_48, g)
        assert statics_peak <= 3 * 8 * size
        build, _ = _orbit_build(sphere_24_48, 8)
        build_peak, _ = traced_peak_bytes(build, 5.6301)
        assert build_peak <= 1.5 * 16 * size

    def test_build_exponentiates_one_sector_of_rows(self, sphere_24_48, monkeypatch):
        # A's other sectors are rotations of the first: N^2 / n entries go
        # through exp
        build, _ = _orbit_build(sphere_24_48, 8)
        exp, touched = np.exp, []

        def counting(x, *args, **kwargs):
            touched.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting)
        build(5.6301)
        n, group = sphere_24_48.n_nodes, _orbit(sphere_24_48)[0]
        assert 0 < sum(touched) <= n * n / group + n * 81

    def test_basis_is_real(self, sphere_24_48, star_grid_24_48):
        for grid in (sphere_24_48, star_grid_24_48):
            Q = bandlimited_basis(grid, 8)
            assert Q.dtype == np.float64
            assert np.abs(Q.T @ Q - np.eye(81)).max() <= 1e-13

    @pytest.mark.parametrize(
        "surface, ks", [("star_grid_24_48", (5.0, 5.7, 6.5)), ("sphere_24_48", (2.9, 3.4))],
        ids=["star-cross", "sphere"],
    )
    def test_real_compression_keeps_the_complex_singular_values(self, surface, ks, request):
        grid = request.getfixturevalue(surface)
        build, kernel = _orbit_build(grid, 8)[0], nystrom_reference(grid, static_row_integral(grid))
        for k in ks:
            real = np.linalg.svd(build(k), compute_uv=False)
            reference = np.linalg.svd(complex_basis_compression(grid, 8, kernel(k)), compute_uv=False)
            assert np.abs(real - reference).max() <= 1e-14 * reference[0]

    def test_negative_band_limit_rejected(self):
        grid = make_sphere(1.0, 8, 16)
        with pytest.raises(ValueError):
            bandlimited_basis(grid, -1)
        with pytest.raises(ValueError, match=r"band limit must be in \[0, 64\], got -1"):
            make_single_layer_spectrum(grid, -1, 3.0, 3.1)

    def test_band_limit_must_compress(self, monkeypatch):
        star = make_star_surface(1.0, [(2, 0, 0.1)], 12, 24)
        assert bandlimited_basis(star, 15).shape == (288, 256)
        with pytest.raises(ValueError, match="289 harmonics, more than the grid's 288 nodes"):
            bandlimited_basis(star, 16)
        with pytest.raises(ValueError, match=r"must be in \[0, 64\], got 65"):
            bandlimited_basis(make_sphere(1.0, 48, 96), 65)
        # checked before the static row integral runs
        calls = []
        monkeypatch.setattr(wavetrace.spectra, "static_row_integral", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="441 harmonics"):
            make_single_layer_spectrum(star, 20, 5.0, 5.2)
        assert calls == []


class TestSingleLayerInterpolant:
    @pytest.mark.parametrize("problem", ["sphere", "star"])
    def test_matches_direct_evaluation(self, problem, request):
        run = request.getfixturevalue(f"{problem}_interpolant")
        direct = direct_spectrum(run.grid, run.g)
        for k in np.random.default_rng(11).uniform(run.k_min, run.k_max, 8):
            assert np.abs(run.spectrum(k) - direct(k)).max() <= 1e-13

    @pytest.mark.parametrize("problem", ["sphere", "star"])
    def test_nodes_return_direct_values(self, problem, request):
        run = request.getfixturevalue(f"{problem}_interpolant")
        direct = library_spectrum(run.grid)
        interior = next(k for k in run.node_ks if run.k_min < k < run.k_max)
        assert {run.k_min, run.k_max} <= set(run.node_ks)
        for k in (run.k_min, run.k_max, interior):
            # nodes are built on one BLAS thread; so is the reference
            with _one_blas_thread():
                assert np.array_equal(run.spectrum(k), direct(k))

    def test_range_is_enforced(self, sphere_interpolant):
        run = sphere_interpolant
        for k in (np.nextafter(run.k_min, 0.0), np.nextafter(run.k_max, np.inf)):
            with pytest.raises(ValueError, match="outside the interpolated range"):
                run.spectrum(k)
        for k_max in (2.9, 3.4):
            with pytest.raises(ValueError, match="k_min < k_max"):
                make_single_layer_spectrum(make_sphere(1.0, 8, 16), 4, 3.4, k_max)
        with pytest.raises(ValueError, match="wavenumber k must be positive"):
            make_single_layer_spectrum(make_sphere(1.0, 8, 16), 4, 0.0, 2.9)

    def test_unconverged_interpolant_raises(self, monkeypatch):
        monkeypatch.setattr(wavetrace.spectra, "_CHEB_MAX_DEGREE", 8)
        with pytest.raises(InterpolationError, match="not converged at degree 8"):
            make_single_layer_spectrum(make_sphere(1.0, 8, 16), 4, 1.0, 6.5)

    def test_more_workers_than_cores_build_the_same_interpolant(self, set_pool_size):
        # the node builds fill a shared array slot by slot
        grid = make_star_surface(1.0, [(2, 0, 0.1)], 12, 24)
        set_pool_size(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled = make_single_layer_spectrum(grid, 6, 3.0, 3.4)
        finally:
            sys.setswitchinterval(interval)
        set_pool_size(1)
        serial = make_single_layer_spectrum(grid, 6, 3.0, 3.4)
        with _one_blas_thread():
            for k in np.linspace(3.0, 3.4, 7):
                assert np.array_equal(pooled(k), serial(k))

    @pytest.mark.parametrize("problem, degree", [("sphere", 13), ("star", 18)])
    def test_builds_the_lobatto_points_of_the_derived_degree(self, problem, degree, request):
        # h D / 2 is about 0.25 on the sphere and 0.797 on the star: the
        # degree passes the tail test on the first round
        run = request.getfixturevalue(f"{problem}_interpolant")
        assert len(run.node_ks) == degree + 1
        assert sorted(run.node_ks) == sorted(_lobatto_points(run.k_min, run.k_max, degree))

    @pytest.mark.parametrize(
        "surface, band_limit, k_min, k_max",
        [("sphere", 4, 3.0, 3.01), ("sphere", 0, 1.0, 6.5), ("star", 8, 0.2, 8.0), ("star", 12, 5.0, 6.5)],
        ids=["sphere-narrow", "sphere-L0", "star-wide", "star-L12"],
    )
    def test_derived_degree_passes_the_tail_test(self, surface, band_limit, k_min, k_max):
        # the interpolant is built once, at this degree
        grid = make_sphere(1.0, 16, 32) if surface == "sphere" else make_star_surface(1.0, [(2, 0, 0.1)], 16, 32)
        Q, kernel = bandlimited_basis(grid, band_limit), nystrom_reference(grid, static_row_integral(grid))
        diameter = np.linalg.norm(grid.nodes[:, None] - grid.nodes[None], axis=-1).max()
        n = _cheb_start_degree(0.5 * (k_max - k_min), diameter)
        stack = np.array([Q.T @ kernel(k) @ Q for k in _lobatto_points(k_min, k_max, n)])
        assert _chebyshev_tail(stack) <= _CHEB_TAIL_TOL

    def test_short_start_degree_raises(self, star_grid_24_48, monkeypatch):
        # degree 8 misses the tail test on the star-cross problem
        monkeypatch.setattr(wavetrace.spectra, "_cheb_start_degree", lambda *args: 8)
        with pytest.raises(InterpolationError, match="not converged at degree 8"):
            make_single_layer_spectrum(star_grid_24_48, 8, 5.0, 6.5)

    def test_star_cross_dips_from_at_most_33_kernels(self, star_interpolant, monkeypatch, set_pool_size):
        # the star-cross eigs problem; direct evaluation built 108 kernels
        ks = np.linspace(5.0, 6.5, 76)
        run = star_interpolant
        later = []
        set_pool_size(2)
        monkeypatch.setattr(wavetrace.spectra, "_compressed_kernel", lambda *args: later.append(args))
        _, dips = find_dips(run.spectrum, ks)
        assert len(run.node_ks) <= 33
        assert later == []
        _, reference = find_dips(direct_spectrum(run.grid, run.g), ks)
        assert [d.multiplicity for d in dips] == [d.multiplicity for d in reference] == [1, 2, 2, 1]
        assert max(abs(a.k - b.k) for a, b in zip(dips, reference)) <= 1e-10


class TestSingleLayerSweep:
    def test_star_with_zero_perturbation_equals_sphere_run(self, set_pool_size):
        sphere = make_sphere(1.0, 12, 24)
        star0 = make_star_surface(1.0, [(2, 0, 0.0)], 12, 24)
        ks = np.linspace(3.0, 3.3, 7)
        set_pool_size(1)
        a = sweep_k(make_single_layer_spectrum(sphere, 6, 3.0, 3.3), ks)
        b = sweep_k(make_single_layer_spectrum(star0, 6, 3.0, 3.3), ks)
        assert np.abs(a - b).max() <= 1e-12

    def test_sphere_dip_near_pi(self, set_pool_size):
        grid = make_sphere(1.0, 16, 32)
        ks = np.linspace(2.9, 3.4, 41)
        spectrum = make_single_layer_spectrum(grid, 8, 2.9, 3.4)
        set_pool_size(1)
        dips = detect_dips(sweep_k(spectrum, ks))
        assert len(dips) == 1
        assert abs(ks[dips[0]] - np.pi) <= 0.02  # coarse localization

    def test_invalid_range(self, sphere_24_48):
        with pytest.raises(ValueError):
            sweep_k(make_single_layer_spectrum(sphere_24_48, 8, 2.0, 3.0), np.linspace(3.0, 2.0, 10))
