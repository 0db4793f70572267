import os
import sys
from collections import Counter

import numpy as np
import pytest

from wavetrace import (
    BracketError,
    DirectionGrid,
    IllPosedIndicatorError,
    SurfaceGrid,
    bessel_zero,
    detect_dips,
    estimate_multiplicity,
    find_dips,
    make_direction_grid,
    make_single_layer_spectrum,
    make_sphere,
    make_star_surface,
    make_trace_spectrum,
    refine_dip,
    seed_interior_points,
    sweep_k,
)
import scipy.linalg as la
from oracles import (
    complex_trace_spectrum,
    compressed_trace_matrix,
    dft_modes,
    exp_entries,
    library_entries,
    mode_spectrum,
    orbit_points,
    sector_blocks,
    stacked_trace_matrix,
    thin_q_reference,
)
from wavetrace.herglotz import _group_order, _rank_cutoff
from wavetrace.surface import _rotations
from wavetrace.sweep import _blas_threads, _one_blas_thread, _openblas_thread_controls

needs_openblas_controls = pytest.mark.skipif(
    not _openblas_thread_controls(),
    reason="the BLAS exposes no scipy_openblas thread controls, so nothing is pinned",
)


WORKLOADS = ("ball-trace", "star-cross")


def workload_problem(name):
    """A benchmark workload's trace problem at seed 0: the 24x48 sphere with
    12x24 directions and 576 interior points over [3, 6.5] at 71 samples
    (ball-trace), or the star r = 1 + 0.1 Re Y_20 (24x48) with 10x20
    directions and 500 points over [5, 6.5] at 76 samples (star-cross).
    Returns (grid, dirs, interior, ks)."""
    if name == "ball-trace":
        grid, dirs, count, ks = make_sphere(1.0, 24, 48), make_direction_grid(12, 24), 576, np.linspace(3.0, 6.5, 71)
    else:
        grid, dirs = make_star_surface(1.0, [(2, 0, 0.1)], 24, 48), make_direction_grid(10, 20)
        count, ks = 500, np.linspace(5.0, 6.5, 76)
    return grid, dirs, seed_interior_points(grid, count, seed=0), ks


def reference_problem(name):
    """A workload's trace problem at a size its whole-matrix references
    afford: ball-trace keeps its grids (group order 24), samples and four
    dips, with the first 48 of its interior points (an orbit of 1152 rows,
    not 13 824); star-cross is the workload's own."""
    grid, dirs, interior, ks = workload_problem(name)
    return grid, dirs, interior[:48] if name == "ball-trace" else interior, ks


def rotated_star_problem():
    """The star r = 1 + 0.1 Re Y_20 + 0.03 Re Y_31 (20x40) with 10x20
    directions and 400 interior points, and the same problem rotated off the
    z axis: a custom grid, a descriptor-free direction grid and the rotated
    points. Returns (star, dirs, interior, rotated problem)."""
    angle = 0.83
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]]) @ np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
    star = make_star_surface(1.0, [(2, 0, 0.1), (3, 1, 0.03)], 20, 40)
    dirs = make_direction_grid(10, 20)
    interior = seed_interior_points(star, 400, seed=9)
    star_rot = SurfaceGrid(nodes=star.nodes @ rot.T, weights=star.weights, descriptor={"kind": "custom"})
    dirs_rot = DirectionGrid(directions=dirs.directions @ rot.T, weights=dirs.weights)
    return star, dirs, interior, (star_rot, dirs_rot, interior @ rot.T)


@pytest.fixture(scope="module")
def ball_setup():
    return workload_problem("ball-trace")[:3]


class TestCompletenessIndicator:
    def test_collapses_at_eigenvalue(self, ball_setup):
        grid, dirs, interior = ball_setup
        assert make_trace_spectrum(grid, dirs, interior)(np.pi)[-1] <= 0.02

    def test_order_one_off_spectrum(self, ball_setup):
        grid, dirs, interior = ball_setup
        assert make_trace_spectrum(grid, dirs, interior)(2.0)[-1] >= 0.2

    def test_spec_calibration_configuration(self):
        # the frozen calibration run: (30,60) surface, (24,48) directions,
        # 600 seeded interior points
        grid = make_sphere(1.0, 30, 60)
        dirs = make_direction_grid(24, 48)
        interior = seed_interior_points(grid, 600, seed=0)
        assert make_trace_spectrum(grid, dirs, interior)(np.pi)[-1] <= 0.02

    def test_kr_invariance(self):
        dirs = make_direction_grid(10, 20)
        a = make_trace_spectrum(
            make_sphere(1.0, 20, 40), dirs, seed_interior_points(make_sphere(1.0, 20, 40), 500, seed=3)
        )(np.pi)[-1]
        b = make_trace_spectrum(
            make_sphere(2.0, 20, 40), dirs, seed_interior_points(make_sphere(2.0, 20, 40), 500, seed=3)
        )(np.pi / 2)[-1]
        assert a / 2 <= b <= a * 2

    def test_interior_point_outside_rejected(self, ball_setup):
        grid, dirs, _ = ball_setup
        bad = np.array([[0.0, 0.0, 1.2]])
        with pytest.raises(ValueError):
            make_trace_spectrum(grid, dirs, bad)

    @pytest.mark.parametrize(
        "kind, bad, message",
        [
            ("custom", (5.0, 0.0, 0.0), "outside"),
            ("sphere", (np.nan, 0.0, 0.0), "finite"),
            ("custom", (np.nan, 0.0, 0.0), "finite"),
        ],
        ids=["custom-outside", "sphere-nan", "custom-nan"],
    )
    def test_interior_point_outside_or_not_finite_rejected_on_every_grid(self, kind, bad, message):
        # the 8x16 unit sphere's nodes, also under a descriptor with no
        # radius function: one of 40 seeded points moved out, or made NaN,
        # is refused when the points are bound, before any evaluation (a
        # point outside the sphere itself: test_interior_point_outside_rejected)
        sphere = make_sphere(1.0, 8, 16)
        grid = sphere if kind == "sphere" else as_custom(sphere)
        dirs, interior = make_direction_grid(8, 16), seed_interior_points(sphere, 40, seed=0)
        make_trace_spectrum(grid, dirs, interior)
        interior[7] = bad
        with pytest.raises(ValueError, match=message):
            make_trace_spectrum(grid, dirs, interior)

    def test_too_few_interior_points_ill_posed(self):
        # the equator ring of an odd dirs n_theta makes the group order 1, so
        # 10 seeded points are 10 interior rows
        grid = make_sphere(1.0, 16, 32)
        few = seed_interior_points(grid, 10, seed=1)
        with pytest.raises(IllPosedIndicatorError, match="cannot see"):
            make_trace_spectrum(grid, make_direction_grid(9, 16), few)(2.0)

    def test_interior_points_on_the_axis_ill_posed(self):
        # at group order 16, points on the z axis are their own rotations:
        # every mode but 0 has no interior rows to see its directions by
        grid = make_sphere(1.0, 16, 32)
        on_axis = seed_interior_points(grid, 10, seed=1) * [0.0, 0.0, 1.0]
        with pytest.raises(IllPosedIndicatorError, match="cannot see"):
            make_trace_spectrum(grid, make_direction_grid(8, 16), on_axis)(2.0)

    def test_interior_blind_to_a_retained_direction_ill_posed(self):
        # 300 copies of one interior point: as many rows as the seeded points,
        # but an interior block of rank 1, so 108 of the 109 retained
        # directions at k = 2 have sines of 1 to rounding
        grid, dirs, points = criterion8_problem()
        spectrum = make_trace_spectrum(grid, dirs, np.repeat(points[:1], len(points), axis=0))
        for k in (2.0, 3.0, np.pi):
            with pytest.raises(IllPosedIndicatorError, match="cannot see"):
                spectrum(k)

    def test_asymmetric_direction_grid_rejected(self, ball_setup):
        grid, dirs, interior = ball_setup
        # an odd n_phi leaves phi + pi off the grid
        with pytest.raises(ValueError, match="antipodally symmetric"):
            make_trace_spectrum(grid, make_direction_grid(10, 21), interior)
        # every antipode present, but beta and -beta weighted unequally
        tilted = DirectionGrid(
            directions=dirs.directions, weights=dirs.weights * (1 + 0.1 * dirs.directions[:, 2])
        )
        with pytest.raises(ValueError, match="antipodally symmetric"):
            make_trace_spectrum(grid, tilted, interior)

    # away from the star's spectrum, where the indicator is well conditioned
    @pytest.mark.parametrize("k", [2.2, 3.0, 4.0])
    def test_rotation_invariance(self, k):
        # same rotation applied to surface, interior points, and directions
        star, dirs, interior, rotated = rotated_star_problem()
        a = make_trace_spectrum(star, dirs, interior)(k)[-1]
        b = make_trace_spectrum(*rotated)(k)[-1]
        assert abs(a - b) <= 1e-10

    @pytest.mark.parametrize(
        "case, order",
        [("ball-trace", 24), ("star-cross", 4), ("criterion-8", 16),
         ("rotated-star", 1), ("y20-y31-star", 1), ("odd-dirs-ntheta", 1)],
    )
    def test_group_order_from_the_descriptors(self, case, order):
        # gcd of the surface's and the direction grid's rotation orders; 1
        # on custom grids, with an m = 1 term, and when the antipodal half
        # keeps half of the equator ring
        if case in WORKLOADS:
            grid, dirs, _, _ = workload_problem(case)
        elif case == "criterion-8":
            grid, dirs, _ = criterion8_problem()
        elif case == "rotated-star":
            grid, dirs, _ = rotated_star_problem()[3]
        elif case == "y20-y31-star":
            grid, dirs, _, _ = rotated_star_problem()
        else:
            grid, dirs = make_sphere(1.0, 16, 32), make_direction_grid(9, 16)
        assert _group_order(grid, dirs) == order


def raw_trace_spectrum(grid, dirs, interior):
    """The mode-by-mode thin-Q reference with no block QRs, on the orbit of
    the interior points, by explicit rotation and DFT matrices, as a spectrum."""
    n = _group_order(grid, dirs)
    orbit = orbit_points(interior, n)
    return lambda k: mode_spectrum(dft_modes(sector_blocks(k, grid, dirs, orbit, n, exp_entries)), compress=False)


def rfft_modes(blocks):
    """The blocks of sector_blocks by azimuthal mode through numpy's rfft over
    the sectors, as the trace spectrum transforms them; modes 0 and n / 2
    real."""
    n = len(blocks[0])
    transformed = [np.fft.rfft(block, axis=0) for block in blocks]
    return [[h[p].real if 2 * p % n == 0 else h[p] for h in transformed] for p in range(n // 2 + 1)]


def as_custom(grid):
    """The same nodes under a custom descriptor: group order 1."""
    return SurfaceGrid(nodes=grid.nodes, weights=grid.weights, descriptor={"kind": "custom"})


def criterion8_problem(interior_count=300):
    """The Criterion-8 trace problem: a 16x32 sphere, 8x16 directions (M = 128
    real columns) and seeded interior points (seed 42)."""
    grid = make_sphere(1.0, 16, 32)
    return grid, make_direction_grid(8, 16), seed_interior_points(grid, interior_count, seed=42)


class TestFactorization:
    """The trace spectrum factors the stacked matrix on the orbit of the
    interior points one azimuthal mode at a time: each mode's blocks by
    their R factors, one pivoted QR and one SVD of the retained columns'
    boundary rows per mode, under one cut over every mode.

    mode_spectrum on the modes of the library's own orbit points and entries
    (library_entries), through rfft, writes out those same steps, so it pins
    the call sequence, not the arithmetic. The independent checks, on
    complex exponentials, are the uncompressed mode-by-mode route by
    explicit rotation and DFT matrices here (2e-9), the whole matrix
    (TestBlockRoute) and
    TestRealArithmetic::test_indicator_matches_the_complex_form (1e-5)."""

    KS = [3.0, np.pi, 4.4934, 5.7, 6.3]

    @pytest.fixture(scope="class", params=["ball", "star"])
    def problem(self, request):
        if request.param == "ball":
            return criterion8_problem()
        star = make_star_surface(1.0, [(2, 0, 0.1)], 24, 48)
        return star, make_direction_grid(10, 20), seed_interior_points(star, 500, seed=0)

    @staticmethod
    def stepwise(k, grid, dirs, interior):
        n = _group_order(grid, dirs)
        orbit = _rotations(interior, n).reshape(-1, 3)
        return mode_spectrum(rfft_modes(sector_blocks(k, grid, dirs, orbit, n, library_entries)))

    @pytest.mark.parametrize("k", KS)
    def test_matches_thin_q_reference(self, problem, k):
        expected = self.stepwise(k, *problem)
        s = make_trace_spectrum(*problem)(k)
        assert len(s) == len(expected)
        assert np.abs(s - expected).max() <= 1e-13

    @pytest.mark.parametrize("k", [3.0, np.pi, 5.7])
    def test_bit_identical_to_the_stacked_route(self, problem, k):
        # the blocks assembled apart, sector against sector 0, against one
        # stacked array sorted by sector and split again: the same LAPACK
        # calls on the same entries
        assert np.array_equal(make_trace_spectrum(*problem)(k), self.stepwise(k, *problem))

    @pytest.mark.parametrize("k", [3.0, np.pi, 5.7])
    def test_group_order_one_is_the_whole_matrix_route(self, problem, k):
        # under a custom descriptor the same problem has one sector, and the
        # spectrum is the whole-matrix route's: block QRs, a pivoted QR of
        # the stacked R factors, one SVD, all on the seeded points
        grid, dirs, interior = problem
        custom = as_custom(grid)
        assert _group_order(custom, dirs) == 1
        _, expected = thin_q_reference(*compressed_trace_matrix(k, custom, dirs, interior, library_entries))
        assert np.array_equal(make_trace_spectrum(custom, dirs, interior)(k), expected)

    @staticmethod
    def assert_keeps_the_raw_spectrum(k, problem):
        # the block QRs and the FFT change the rounding only: ~2e-10 at most
        # here, where one-ulp entry noise moves the uncompressed route by ~1e-10
        expected = raw_trace_spectrum(*problem)(k)
        s = make_trace_spectrum(*problem)(k)
        assert len(s) == len(expected)  # the same cutoff
        assert np.abs(s - expected).max() <= 2e-9

    def test_compression_keeps_the_raw_spectrum(self, problem):
        for k in self.KS:
            self.assert_keeps_the_raw_spectrum(k, problem)

    def test_compression_keeps_the_raw_dips(self):
        spectrum, ks = criterion8_spectrum("trace")
        _, dips = find_dips(spectrum, ks)
        _, raw = find_dips(raw_trace_spectrum(*criterion8_problem()), ks)
        assert [d.multiplicity for d in dips] == [d.multiplicity for d in raw] == [1]
        assert [d.k for d in dips] == pytest.approx([d.k for d in raw], abs=1e-12)

    @pytest.mark.parametrize("k", [3.0, np.pi])
    def test_short_interior_block_keeps_the_raw_spectrum(self, k):
        # 124 interior points for M = 128 columns (cutoff 119): the interior
        # block is wider than tall and enters the pivoted QR as its own
        # trapezoid. At group order 1: a mode's interior block has P rows for
        # M / n columns, and P < M / n leaves retained directions blind
        grid, dirs, interior = criterion8_problem(124)
        problem = as_custom(grid), dirs, interior
        assert len(problem[2]) < problem[1].n_directions
        self.assert_keeps_the_raw_spectrum(k, problem)

    @staticmethod
    def spy_on(monkeypatch, name):
        """Record (pivoting, dtype, shape) of every call to la.<name>."""
        calls = []
        real = getattr(la, name)

        def spy(a, *args, **kwargs):
            calls.append((bool(kwargs.get("pivoting")), np.asarray(a).dtype, np.shape(a)))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(la, name, spy)
        return calls

    @staticmethod
    def mode_dtypes(n):
        """Modes 0 and n / 2 are real, the others complex."""
        return [np.float64 if 2 * p % n == 0 else np.complex128 for p in range(n // 2 + 1)]

    def test_svd_sees_only_the_small_triangle(self, monkeypatch, problem):
        # one SVD per mode, of its retained columns' boundary rows: at most
        # M / n x cutoff; a complex mode's values count twice
        grid, dirs, _ = problem
        n = _group_order(grid, dirs)
        rows = min(grid.n_nodes, dirs.n_directions) // n
        calls = self.spy_on(monkeypatch, "svd")
        for k in self.KS:
            calls.clear()
            s = make_trace_spectrum(*problem)(k)
            assert [(pivoting, dtype, shape[0]) for pivoting, dtype, shape in calls] == [
                (False, dtype, rows) for dtype in self.mode_dtypes(n)
            ]
            assert sum(shape[1] * (1 if dtype == np.float64 else 2) for _, dtype, shape in calls) == len(s)

    def test_pivoted_qr_factors_real_columns(self, monkeypatch, problem):
        # the real modes 0 and n / 2 factor real columns, the others complex
        grid, dirs, interior = problem
        n = _group_order(grid, dirs)
        N, P, M = grid.n_nodes // n, len(interior), dirs.n_directions // n
        calls = self.spy_on(monkeypatch, "qr")
        make_trace_spectrum(*problem)(3.0)
        dtypes = self.mode_dtypes(n)
        assert [c for c in calls if c[0]] == [(True, dtype, (min(N, M) + min(P, M), M)) for dtype in dtypes]
        # the block QRs only: the boundary's modes, then the interior's
        assert [c for c in calls if not c[0]] == [
            (False, dtype, shape) for shape in ((N, M), (P, M)) for dtype in dtypes
        ]


class TestRealArithmetic:
    """The indicator factors one real cos/sin column pair per antipodal
    direction pair: a unitary mix of the complex columns of beta and -beta,
    so the real matrix keeps the complex one's singular values and the
    indicator keeps its values."""

    # samples off the exact eigenvalues: at k = pi the ball's indicator is
    # ~3e-10, a rounding-level value that neither form determines
    KS = [3.0, 3.8, 4.4934, 5.7, 6.3]

    @pytest.fixture(scope="class", params=WORKLOADS)
    def problem(self, request):
        return workload_problem(request.param)[:3]

    @pytest.mark.parametrize("k", [3.0, 5.7])
    def test_real_matrix_has_the_complex_singular_values(self, problem, k):
        grid, dirs, interior = problem
        expected = la.svdvals(stacked_trace_matrix(k, grid, dirs, interior))
        s = la.svdvals(exp_entries(k, grid, dirs, interior))
        assert s.shape == expected.shape
        assert np.abs(s - expected).max() <= 1e-14 * expected[0]

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_indicator_matches_the_complex_form(self, name):
        # the complex form over every direction, on the orbit of the points
        problem = grid, dirs, interior = reference_problem(name)[:3]
        orbit = orbit_points(interior, _group_order(grid, dirs))
        for k in self.KS:
            expected = complex_trace_spectrum(k, grid, dirs, orbit)[-1]
            assert abs(make_trace_spectrum(*problem)(k)[-1] - expected) <= 1e-5 * expected


class TestBlockRoute:
    """The block route against the whole-matrix route (thin_q_reference on
    the stacked R factors, the route of group order 1) on the same orbit
    points (reference_problem), over the workloads' samples and their
    refined dips."""

    @pytest.fixture(scope="class", params=WORKLOADS)
    def sweeps(self, request):
        grid, dirs, interior, ks = reference_problem(request.param)
        orbit = orbit_points(interior, _group_order(grid, dirs))

        def whole(k):
            return thin_q_reference(*compressed_trace_matrix(k, grid, dirs, orbit, exp_entries))[1]

        return request.param, find_dips(make_trace_spectrum(grid, dirs, interior), ks), find_dips(whole, ks)

    def test_indicator_matches_the_whole_matrix(self, sweeps):
        # ball-trace: 2.0e-14 relative at most. star-cross: 5.4e-8, because
        # the one rank rule cuts mode by mode inside a degree band of the
        # spectrum, where the whole matrix's pivoted QR cuts elsewhere
        name, (values, _), (expected, _) = sweeps
        bound = 1e-12 if name == "ball-trace" else 1e-6
        assert np.max(np.abs(values - expected) / expected) <= bound

    def test_dips_match_the_whole_matrix(self, sweeps):
        name, (_, dips), (_, expected) = sweeps
        assert [d.multiplicity for d in dips] == [d.multiplicity for d in expected]
        assert [d.multiplicity for d in dips] == ([1, 3, 5, 1] if name == "ball-trace" else [1, 2, 2, 1])
        assert [d.k for d in dips] == pytest.approx([d.k for d in expected], abs=1e-12)


def criterion8_spectrum(kind):
    """The Criterion-8 problem on either oracle, with its 12 samples over
    [3.0, 3.3]: a 16x32 sphere; 8x16 directions and 300 interior points
    (seed 42) for the trace oracle, band limit 8 for the single layer."""
    if kind == "trace":
        spectrum = make_trace_spectrum(*criterion8_problem())
    else:
        spectrum = make_single_layer_spectrum(make_sphere(1.0, 16, 32), 8, 3.0, 3.3)
    return spectrum, np.linspace(3.0, 3.3, 12)


class TestSweepK:
    def test_invalid_range(self, ball_setup, set_pool_size):
        grid, dirs, interior = ball_setup
        with pytest.raises(ValueError):
            sweep_k(make_trace_spectrum(grid, dirs, interior), np.linspace(5.0, 3.0, 10))
        for ks in ([3.0, np.nan], [3.0, 3.05, np.inf], [np.nan, 3.0, 3.05]):
            with pytest.raises(ValueError, match="finite"):
                sweep_k(make_trace_spectrum(grid, dirs, interior), ks)
        set_pool_size(1)
        with pytest.raises(ValueError, match="finite"):
            find_dips(lambda k: np.array([abs(k - 3.02) + 1e-3]), [3.0, 3.05, np.nan])

    def test_deterministic_given_seed(self):
        grid = make_sphere(1.0, 16, 32)
        dirs = make_direction_grid(8, 16)
        ks = np.linspace(1.5, 2.5, 9)
        runs = []
        for _ in range(2):
            interior = seed_interior_points(grid, 400, seed=42)
            runs.append(sweep_k(make_trace_spectrum(grid, dirs, interior), ks))
        a, b = runs
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()

    def test_finds_the_pi_dip(self):
        grid = make_sphere(1.0, 20, 40)
        dirs = make_direction_grid(10, 20)
        ks = np.linspace(2.9, 3.4, 26)
        spectrum = make_trace_spectrum(grid, dirs, seed_interior_points(grid, 450, seed=0))
        dips = detect_dips(sweep_k(spectrum, ks))
        assert len(dips) == 1
        assert abs(ks[dips[0]] - np.pi) <= 0.02

    @pytest.mark.parametrize("kind", ["trace", "single-layer"])
    def test_values_independent_of_thread_count(self, kind, set_pool_size):
        spectrum, ks = criterion8_spectrum(kind)
        set_pool_size(1)
        serial = sweep_k(spectrum, ks)
        set_pool_size(2)
        pooled = sweep_k(spectrum, ks)
        assert serial.tobytes() == pooled.tobytes()

    @pytest.mark.parametrize("interior", ["seeded", "short"])
    def test_trace_spectrum_is_finite_descending_and_inside_the_unit_interval(self, interior):
        # sines of principal angles, each below 1: on the Criterion-8 problem
        # the largest stays near 1 - 3.6e-4, and with 124 interior points for
        # M = 128 columns near 1 - 1.4e-8, still far from the ill-posed 1
        spectrum, ks = criterion8_spectrum("trace")
        if interior == "short":
            spectrum = make_trace_spectrum(*criterion8_problem(124))
        for k in ks:
            s = spectrum(k)
            assert np.isfinite(s).all()
            assert np.all(np.diff(s) <= 0)
            assert 0 <= s[-1] and s[0] < 1


class TestDetectDips:
    def test_flat_indicator_no_dips(self):
        assert detect_dips(np.full(50, 0.4)) == []

    def test_two_dips_with_merging(self):
        vals = np.full(60, 0.5)
        vals[10] = 1e-3
        vals[11] = 2e-3  # adjacent flagged samples merge into one dip
        vals[40] = 5e-4
        dips = detect_dips(vals)
        assert len(dips) == 2
        assert vals[dips[0]] == pytest.approx(1e-3)
        assert vals[dips[1]] == pytest.approx(5e-4)

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([], []),
            ([1e-3, 2e-3, 1, 1, 1, 1, 1, 3e-3], [0, 7]),
            ([1, 1, 2e-3, 1e-3, 5e-3, 1e-3, 1, 1], [3]),
            ([1, 1, 1, 0.1, 1, 1, 1], [3]),
            ([0.0, 0.0, 0.0, 0.0], [0]),
        ],
        ids=["empty", "a-run-at-each-end", "tie-first-wins", "at-the-threshold", "every-sample-flagged"],
    )
    def test_dip_indices(self, values, expected):
        # the threshold is DEFAULT_DEPTH_RATIO = 0.1 of the median; the run
        # at the upper end is one sample long
        assert detect_dips(values) == expected


def recorded(spectrum):
    """spectrum, and the list of the k it was evaluated at, in call order."""
    calls = []

    def recording(k):
        calls.append(k)
        return spectrum(k)

    return recording, calls


class TestRefineDip:
    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            refine_dip(lambda x: np.array([(x - 1.0) ** 2]), (0.5, 1.0, 1.5), tol=0.0)

    @pytest.mark.parametrize("seeds", [(1.0, 1.0, 1.5), (1.5, 1.0, 0.5), (0.5, 1.5, 1.0)])
    def test_seeds_must_ascend(self, seeds):
        with pytest.raises(ValueError, match="a < k < b"):
            refine_dip(lambda x: np.array([(x - 1.0) ** 2]), seeds, tol=1e-4)

    def test_stub_quadratic_recovers_minimum(self):
        target = 3.21
        k, s = refine_dip(lambda x: np.array([(x - target) ** 2 + 0.25]), (3.1, 3.2, 3.3), tol=1e-6)
        assert k == pytest.approx(target, abs=1e-5)
        assert s[-1] == pytest.approx(0.25, abs=1e-9)

    def test_monotone_function_raises_bracket_error(self):
        with pytest.raises(BracketError):
            refine_dip(lambda x: np.array([x]), (1.5, 2.0, 2.5), tol=1e-5)

    @pytest.mark.parametrize("tie", ["left", "right"])
    def test_middle_seed_must_be_strictly_lowest(self, tie):
        # a middle seed tied with an end (exactly, in binary) does not show
        # that the minimum is interior
        target = 3.125 if tie == "left" else 3.375
        spectrum, calls = recorded(lambda x: np.array([abs(x - target) + 0.125]))
        with pytest.raises(BracketError):
            refine_dip(spectrum, (3.0, 3.25, 3.5), tol=1e-4)
        assert calls == [3.0, 3.25, 3.5]

    def test_kink_contracts_to_tolerance(self):
        k, _ = refine_dip(lambda x: np.array([abs(x - 1.0) + 0.1]), (0.5, 0.95, 1.4), tol=1e-7)
        assert k == pytest.approx(1.0, abs=1e-6)

    def test_tolerance_wider_than_bracket_still_refines(self):
        k, _ = refine_dip(lambda x: np.array([abs(x - 3.21) + 1e-3]), (3.16, 3.2, 3.24), tol=1.0)
        assert abs(k - 3.21) <= 0.02

    def test_reports_the_evaluated_minimizer(self):
        seen = {}

        def spectrum(x):
            seen[x] = abs(x - 3.14159) + 0.1
            return np.array([seen[x]])

        k, s = refine_dip(spectrum, (3.1, 3.15, 3.2), tol=1e-4)
        assert seen[k] == s[-1] == min(seen.values())

    @pytest.mark.parametrize("shape", ["parabola", "kink"])
    def test_certifies_a_tolerance_wide_bracket(self, shape):
        # on either side of k* a point at most tol/2 away was evaluated and is
        # not lower, so the minimum lies within tol/2 of k*; no k is evaluated twice
        tol, target = 1e-4, 3.14159
        f = (lambda x: (x - target) ** 2 + 1e-3) if shape == "parabola" else (lambda x: abs(x - target) + 1e-3)
        spectrum, calls = recorded(lambda x: np.array([f(x)]))
        k, _ = refine_dip(spectrum, (3.1, 3.15, 3.2), tol=tol)
        assert abs(k - target) <= tol / 2
        assert len(set(calls)) == len(calls)
        for side in (-1, 1):
            assert any(0 < side * (c - k) <= tol / 2 * (1 + 1e-9) and f(c) >= f(k) for c in calls)

    def test_certification_rejects_a_false_vertex(self):
        # an asymmetric kink whose end seeds read the same: the parabola's
        # vertex is the middle seed itself, 0.0625 from the minimum, and only
        # the certifying points show that the search must go on
        target = 3.3125

        def spectrum(x):
            return np.array([0.125 + (0.1875 * (target - x) if x < target else 0.3125 * (x - target))])

        k, _ = refine_dip(spectrum, (3.0, 3.25, 3.5), tol=1e-4)
        assert abs(k - target) <= 5e-5

    def test_parabola_takes_few_evaluations(self):
        # the square of a simple dip's indicator is a parabola, whose vertex
        # the first step hits: 3 seeds, 1 vertex, 2 certifying points
        spectrum, calls = recorded(lambda x: np.array([np.sqrt(4.0 * (x - 3.1416) ** 2 + 1e-8)]))
        k, _ = refine_dip(spectrum, (3.1, 3.15, 3.2), tol=1e-4)
        assert k == pytest.approx(3.1416, abs=1e-7)
        assert len(calls) <= 6

    def test_tolerance_below_floating_point_floor_terminates(self):
        # a bracket cannot shrink below an ulp; the stub fails loudly rather
        # than letting a search that never stops hang the suite
        calls = []

        def spectrum(x):
            calls.append(x)
            if len(calls) > 200:
                raise RuntimeError("refinement did not terminate")
            return np.array([abs(x - 3.14159) + 0.1])

        k, _ = refine_dip(spectrum, (3.1, 3.15, 3.2), tol=1e-17)
        assert k == pytest.approx(3.14159, abs=1e-6)
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_minimum_one_tolerance_inside_an_end_is_interior(self, side):
        # a steep wall one tolerance inside an end seed, a shallow slope down
        # from the other: the middle seed is still lowest, and the minimum
        # next to the end is found, not reported as a bracket end
        a, m, b = 3.15, 3.2, 3.25
        target = m + side * (0.05 - 1e-5)

        def spectrum(x):
            return np.array([0.1 + (10.0 if (x - target) * side > 0 else 1e-4) * abs(x - target)])

        k, _ = refine_dip(spectrum, (a, m, b), tol=1e-5)
        assert k == pytest.approx(target, abs=1e-6)

    def test_refines_ball_eigenvalue(self):
        grid = make_sphere(1.0, 20, 40)
        dirs = make_direction_grid(10, 20)
        interior = seed_interior_points(grid, 500, seed=0)  # the default, max(2 * 200 directions, 500)
        k, s = refine_dip(make_trace_spectrum(grid, dirs, interior), (3.12, 3.14, 3.16), tol=1e-4)
        assert abs(k - np.pi) <= 1e-3
        assert s[-1] <= 1e-3


class TestEstimateMultiplicity:
    def test_simple_eigenvalue(self, ball_setup):
        grid, dirs, interior = ball_setup
        with _one_blas_thread():
            s = make_trace_spectrum(grid, dirs, interior)(np.pi)
        assert estimate_multiplicity(s) == 1

    def test_triple_eigenvalue(self, ball_setup):
        grid, dirs, interior = ball_setup
        with _one_blas_thread():
            s = make_trace_spectrum(grid, dirs, interior)(bessel_zero(1, 1))
        assert estimate_multiplicity(s) == 3

    def test_no_collapsed_value_counts_as_simple(self, set_pool_size):
        # a dip whose spectrum shows no gap is still one collapsed direction
        assert estimate_multiplicity(np.array([1.0, 0.9, 0.8])) == 1

        def spectrum(k):
            # the same spread, scaled so its last entry dips at 3.2
            return (abs(k - 3.2) + 1e-3) * np.array([1.0, 0.9, 0.8]) / 0.8

        set_pool_size(1)
        _, dips = find_dips(spectrum, np.linspace(3.0, 3.4, 21))
        assert len(dips) == 1
        assert dips[0].multiplicity == 1

    @pytest.mark.parametrize(
        "collapsed, expected",
        [
            # the smallest sigma at the refined star trace dips (r = 1 + 0.1 Re Y_20):
            # the 6e-2 values belong to the neighbouring split eigenvalue
            ([3.9e-5, 6.2e-2, 6.3e-2, 0.16], 1),  # k = 5.6296, m = 0
            ([4.2e-6, 4.3e-6, 6.4e-2, 0.11], 2),  # k = 5.7140, |m| = 1
            ([5.4e-6, 5.6e-6, 0.11, 0.12], 2),  # k = 5.8702, |m| = 2; the gap is to the first value above the threshold
            # a ball l = 2 cluster with one neighbour below the threshold
            ([1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 5e-2, 0.3], 5),
        ],
        ids=["star-m0", "star-m1", "star-m2", "ball-l2"],
    )
    def test_counts_below_the_largest_gap(self, collapsed, expected):
        spectrum = np.sort(np.concatenate([collapsed, np.full(40, 0.976)]))[::-1]
        assert estimate_multiplicity(spectrum) == expected


def ball_two_dips():
    """Criterion-8 grids over [3.0, 4.6]: dips at pi (simple) and z_11 (triple)."""
    grid = make_sphere(1.0, 16, 32)
    dirs = make_direction_grid(8, 16)
    spectrum = make_trace_spectrum(grid, dirs, seed_interior_points(grid, 300, seed=42))
    return spectrum, np.linspace(3.0, 4.6, 33)


class TestFindDips:
    def test_pool_size_does_not_change_dips(self, set_pool_size):
        spectrum, ks = ball_two_dips()
        set_pool_size(1)
        serial_values, serial = find_dips(spectrum, ks)
        set_pool_size(2)
        pooled_values, pooled = find_dips(spectrum, ks)
        assert [d.multiplicity for d in serial] == [1, 3]
        assert pooled == serial
        assert pooled_values.tobytes() == serial_values.tobytes()

    @needs_openblas_controls
    def test_blas_pinned_during_and_restored_after(self, set_pool_size):
        # more workers than cores and frequent thread switches, so nested
        # pins interleave
        spectrum, ks = ball_two_dips()
        seen = set()

        def recording(k):
            seen.add(_blas_threads())
            return spectrum(k)

        before = _blas_threads()
        set_pool_size(min(2 * (os.cpu_count() or 1), 16))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, dips = find_dips(recording, ks)
        finally:
            sys.setswitchinterval(interval)
        assert len(dips) == 2
        assert seen == {(1,) * len(before)}
        assert _blas_threads() == before

    @needs_openblas_controls
    def test_blas_restored_after_bracket_error(self, set_pool_size):
        # decreasing past 3.9: the last samples dip, but the refinement
        # bracket's minimum is its right end, not an interior point
        def spectrum(k):
            return np.array([1.0 / (1.0 + 1e4 * max(0.0, k - 3.9) ** 2)])

        before = _blas_threads()
        set_pool_size(2)
        with pytest.raises(BracketError):
            find_dips(spectrum, np.linspace(3.0, 4.0, 11))
        assert _blas_threads() == before

    @pytest.mark.parametrize("side", [-1, 1], ids=["below-kmin", "above-kmax"])
    def test_brackets_stay_inside_the_sweep_range(self, side, set_pool_size):
        # the minimum lies one spacing past an end of the range: the edge
        # sample dips, and its bracket is clipped to the range, so the
        # refinement ends on the bracket end
        ks = np.linspace(3.0, 4.0, 11)
        spacing = ks[1] - ks[0]
        k_min = (ks[-1] if side > 0 else ks[0]) + side * spacing
        seen = []

        def spectrum(k):
            seen.append(k)
            return np.array([1.0 - np.exp(-(((k - k_min) / (4 * spacing)) ** 2))])

        set_pool_size(1)
        with pytest.raises(BracketError):
            find_dips(spectrum, ks)
        assert ks[0] <= min(seen) and max(seen) <= ks[-1]

    @pytest.mark.parametrize("kind", ["trace", "single-layer"])
    def test_pool_size_does_not_change_either_oracle(self, kind, set_pool_size):
        spectrum, ks = criterion8_spectrum(kind)
        set_pool_size(1)
        serial_values, serial = find_dips(spectrum, ks)
        set_pool_size(2)
        pooled_values, pooled = find_dips(spectrum, ks)
        assert len(serial) == 1
        assert pooled == serial
        assert pooled_values.tobytes() == serial_values.tobytes()

    @pytest.mark.parametrize("problem", ["ball-two-dips", "criterion8-trace", "criterion8-single-layer"])
    def test_refinement_reuses_the_sweep(self, problem, set_pool_size):
        # each dip is seeded with the spectra its sweep kept: no k is
        # evaluated twice, sweep samples included, and a dip costs at most
        # 5 evaluations beyond the sweep
        spectrum, ks = ball_two_dips() if problem == "ball-two-dips" else criterion8_spectrum(problem[11:])
        recording, calls = recorded(spectrum)
        set_pool_size(2)
        _, dips = find_dips(recording, ks)
        assert len(dips) == (2 if problem == "ball-two-dips" else 1)
        assert max(Counter(calls).values()) == 1
        assert set(ks) <= set(calls)
        assert len(calls) - len(ks) <= 5 * len(dips)

    @pytest.mark.parametrize("end", [0, -1], ids=["kmin", "kmax"])
    def test_dip_at_a_range_end_raises_before_refining(self, end, set_pool_size):
        # the sampled minimum has no sample beyond it, so nothing is refined
        ks = np.linspace(3.0, 4.0, 11)
        spacing = ks[1] - ks[0]
        spectrum, calls = recorded(lambda k: np.array([1.0 - np.exp(-(((k - ks[end]) / spacing) ** 2))]))
        set_pool_size(1)
        with pytest.raises(BracketError, match="end of the sweep range"):
            find_dips(spectrum, ks)
        assert sorted(calls) == list(ks)

    @pytest.mark.parametrize("kind", ["trace", "single-layer"])
    def test_refined_dip_is_evaluated_once(self, kind, set_pool_size):
        # the dip is classified from the spectrum its refinement computed
        spectrum, ks = criterion8_spectrum(kind)
        calls = Counter()

        def recording(k):
            calls[k] += 1
            return spectrum(k)

        set_pool_size(1)
        _, dips = find_dips(recording, ks)
        assert len(dips) == 1
        assert [calls[dip.k] for dip in dips] == [1]


class TestRankCutoff:
    """One rule: count the pivoted R-diagonal entries above 1e-8 of the leading one."""

    def test_a_decade_drop_near_the_threshold_is_not_a_cut(self):
        # a 20x drop after 1e-6 of the leading entry; three entries above 1e-8 follow it
        rel = np.array([1.0, 1e-3, 1e-6, 5e-8, 3e-8, 2e-8, 1e-9, 1e-12])
        assert _rank_cutoff(3.7 * rel) == 6

    def test_counts_the_entries_above_the_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            diag = 2.5 * np.sort(10.0 ** rng.uniform(-14, 0, 60))[::-1]
            diag[0] = 2.5
            assert _rank_cutoff(diag) == int((diag > 1e-8 * 2.5).sum())

    def test_zero_leading_entry_gives_zero(self):
        assert _rank_cutoff(np.zeros(5)) == 0


class TestRankCutoffStability:
    """An equivalent factorization of the trace matrix moves the retained
    rank by 1-3 columns; the dips and their multiplicities must not care."""

    RANK_SHIFTS = [-3, -2, -1, 1, 2, 3]

    @pytest.fixture(scope="class")
    def ball(self):
        spectrum, ks = ball_two_dips()
        return spectrum, ks, find_dips(spectrum, ks)[1]

    @pytest.fixture(scope="class")
    def star_spectrum(self):
        star = make_star_surface(1.0, [(2, 0, 0.1)], 24, 48)
        return make_trace_spectrum(star, make_direction_grid(10, 20), seed_interior_points(star, 500, seed=0))

    @staticmethod
    def shift_rank_cutoff(monkeypatch, shift):
        monkeypatch.setattr("wavetrace.herglotz._rank_cutoff", lambda diag: _rank_cutoff(diag) + shift)

    @pytest.mark.parametrize("shift", RANK_SHIFTS)
    def test_ball_dips(self, monkeypatch, ball, shift):
        spectrum, ks, reference = ball
        self.shift_rank_cutoff(monkeypatch, shift)
        _, dips = find_dips(spectrum, ks)
        assert [d.multiplicity for d in dips] == [d.multiplicity for d in reference] == [1, 3]
        assert [d.k for d in dips] == pytest.approx([d.k for d in reference], abs=1e-8)

    @pytest.mark.parametrize("shift", RANK_SHIFTS)
    def test_star_multiplicities(self, monkeypatch, star_spectrum, shift):
        # the refined trace dips of r = 1 + 0.1 Re Y_20: |m| = 0, 1, 2
        self.shift_rank_cutoff(monkeypatch, shift)
        ks = [5.629593, 5.713974, 5.870238]
        with _one_blas_thread():
            assert [estimate_multiplicity(star_spectrum(k)) for k in ks] == [1, 2, 2]


@needs_openblas_controls
def test_overlapping_pins_restore_only_when_the_last_leaves():
    # two sweeps on two threads: the first pin leaves while the second is
    # still evaluating
    controls = _openblas_thread_controls()
    before = _blas_threads()
    for _, put in controls:
        put(2)
    try:
        first, second = _one_blas_thread(), _one_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert _blas_threads() == (1,) * len(controls)
        second.__exit__(None, None, None)
        assert _blas_threads() == (2,) * len(controls)
    finally:
        for (_, put), n in zip(controls, before):
            put(n)
