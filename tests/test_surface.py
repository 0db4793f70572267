import re

import numpy as np
import pytest

from oracles import sphere_plane_wave_integral
from wavetrace import (
    DegenerateSurfaceError,
    DirectionGrid,
    HarmonicIndex,
    SurfaceGrid,
    UnsupportedSurfaceError,
    make_direction_grid,
    make_sphere,
    make_star_surface,
    sph_harm,
)
from wavetrace.herglotz import _check_interior
from wavetrace.surface import _orbit


def node_angles(grid):
    r = np.linalg.norm(grid.nodes, axis=1)
    theta = np.arccos(np.clip(grid.nodes[:, 2] / r, -1, 1))
    phi = np.arctan2(grid.nodes[:, 1], grid.nodes[:, 0])
    return theta, phi


class TestMakeSphere:
    def test_area_unit_sphere(self):
        grid = make_sphere(1.0, 20, 40)
        assert grid.area == pytest.approx(4 * np.pi, rel=1e-12)

    def test_area_scales_with_radius(self):
        grid = make_sphere(2.0, 20, 40)
        assert grid.area == pytest.approx(16 * np.pi, rel=1e-12)

    def test_harmonic_integrates_to_zero(self):
        grid = make_sphere(1.0, 30, 60)
        theta, phi = node_angles(grid)
        val = np.sum(grid.weights * sph_harm(HarmonicIndex(1, 0), theta, phi))
        assert abs(val) <= 1e-12

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            make_sphere(1.0, 3, 40)
        with pytest.raises(ValueError):
            make_sphere(1.0, 20, 4)
        with pytest.raises(ValueError):
            make_sphere(-1.0, 20, 40)

    @pytest.mark.parametrize("R", [float("nan"), float("inf"), 0.0, -1.0])
    def test_nonpositive_or_nonfinite_radius_raises(self, R):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            make_sphere(R, 8, 16)


class TestMakeStarSurface:
    def test_zero_perturbation_matches_sphere(self):
        star = make_star_surface(1.0, [], 20, 40)
        sphere = make_sphere(1.0, 20, 40)
        assert np.abs(star.nodes - sphere.nodes).max() <= 1e-14
        assert np.abs(star.weights - sphere.weights).max() <= 1e-14

    def test_area_self_convergence(self):
        coarse = make_star_surface(1.0, [(2, 0, 0.1)], 30, 60)
        fine = make_star_surface(1.0, [(2, 0, 0.1)], 60, 120)
        assert abs(coarse.area - fine.area) / fine.area <= 1e-8

    def test_negative_radius_raises(self):
        with pytest.raises(DegenerateSurfaceError):
            make_star_surface(1.0, [(1, 0, -5.0)], 20, 40)

    @pytest.mark.parametrize("R0", [float("nan"), float("inf"), 0.0, -1.0])
    def test_nonpositive_or_nonfinite_base_radius_raises(self, R0):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            make_star_surface(R0, [(2, 0, 0.1)], 8, 16)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_coefficient_raises(self, eps):
        with pytest.raises(ValueError, match="finite"):
            make_star_surface(1.0, [(2, 0, 0.1), (2, 0, eps)], 20, 40)

    @pytest.mark.parametrize(
        "term",
        [(2.5, 0, 0.1), (True, 0.9, 0.1), (2, 0.9, 0.1), (2, True, 0.1), ("2", 0, 0.1), (2, 0, True),
         5, None, (2, 0)],
        ids=["float-degree", "bool-degree", "float-order", "bool-order", "string-degree", "bool-eps",
             "number", "none", "pair"],
    )
    def test_coerced_perturbation_term_raises(self, term):
        # a coerced term would build another star than the one asked for; a
        # term that is not a triple is refused by the same rule, naming it
        message = f"perturbation terms must be [int l, int m, number eps], got {term!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            make_star_surface(1.0, [term], 8, 16)

    def test_numpy_integer_perturbation_term_accepted(self):
        # descriptors pass back through the same rule, in surface_radius and
        # the single-layer setup; their integers go out as Python ints
        grid = make_star_surface(1.0, [(np.int64(2), np.int32(0), np.float64(0.1))], 8, 16)
        assert grid.descriptor["perturbation"] == [[2, 0, 0.1]]
        assert all(type(v) is int for v in grid.descriptor["perturbation"][0][:2])

    def test_spectral_self_convergence_for_oscillatory_integrand(self):
        # doubling resolution must cut the error at least 10x for analytic data
        pert = [(2, 0, 0.1)]
        k, beta = 10.0, np.array([0.0, 0.0, 1.0])

        def value(nt):
            g = make_star_surface(1.0, pert, nt, 2 * nt)
            return np.sum(g.weights * np.exp(1j * k * (g.nodes @ beta)))

        truth = value(64)
        err_coarse = abs(value(16) - truth)
        err_fine = abs(value(32) - truth)
        assert err_coarse >= 10 * err_fine


class TestDirectionGrid:
    def test_weights_sum_to_4pi(self):
        dirs = make_direction_grid(12, 24)
        assert dirs.weights.sum() == pytest.approx(4 * np.pi, rel=1e-12)

    def test_harmonic_orthogonal_to_constants(self):
        dirs = make_direction_grid(12, 24)
        theta = np.arccos(dirs.directions[:, 2])
        phi = np.arctan2(dirs.directions[:, 1], dirs.directions[:, 0])
        val = np.sum(dirs.weights * sph_harm(HarmonicIndex(2, 1), theta, phi))
        assert abs(val) <= 1e-12

    def test_plane_wave_integral_grid_agreement(self):
        # both must equal 4 pi j_0(3) = 4 pi sin(3)/3, the radial oracle value
        expect = sphere_plane_wave_integral(3.0, 1.0)
        vals = []
        for nt, np_ in [(10, 20), (24, 48)]:
            dirs = make_direction_grid(nt, np_)
            vals.append(np.sum(dirs.weights * np.exp(1j * 3.0 * dirs.directions[:, 2])))
        assert abs(vals[0] - vals[1]) <= 1e-10
        for v in vals:
            assert v == pytest.approx(expect, abs=1e-10)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            make_direction_grid(2, 24)


class TestOrbit:
    """One helper lists the azimuthal sectors of any product grid, for the
    group order or any divisor of it."""

    @pytest.mark.parametrize(
        "grid, n", [(make_sphere(1.0, 24, 48), 4), (make_star_surface(1.0, [(2, 2, 0.1)], 12, 24), 2),
                    (make_direction_grid(12, 24), 24), (make_direction_grid(8, 16), 16)],
        ids=["sphere-divisor", "y22-star", "directions", "directions-8x16"],
    )
    def test_sectors_are_rotated_copies(self, grid, n):
        # the sector t of a divisor n holds every polar row's azimuths
        # 2 pi j / n_phi with j in [t n_phi / n, (t + 1) n_phi / n), in grid order
        points = grid.nodes if isinstance(grid, SurfaceGrid) else grid.directions
        got, order = _orbit(grid, n)
        assert got == n
        assert sorted(order) == list(range(len(points)))
        phi = np.mod(np.arctan2(points[:, 1], points[:, 0]), 2 * np.pi)
        sector = np.floor(phi * n / (2 * np.pi) + 1e-9).astype(int) % n
        assert np.array_equal(sector[order], np.repeat(np.arange(n), len(points) // n))
        assert np.all(np.diff(order.reshape(n, -1), axis=1) > 0)

    def test_group_order_by_default(self):
        assert _orbit(make_sphere(1.0, 24, 48))[0] == 48
        assert _orbit(make_direction_grid(10, 20))[0] == 20

    def test_a_non_divisor_of_the_group_order_is_refused(self):
        # the Y_22 star's group order is 2: its quarter-turns are no symmetry
        with pytest.raises(UnsupportedSurfaceError, match="not 4 rotated copies of its first sector"):
            _orbit(make_star_surface(1.0, [(2, 2, 0.1)], 12, 24), 4)


class TestIntegrateSurface:
    def test_constant(self):
        grid = make_sphere(1.0, 16, 32)
        assert np.sum(grid.weights * np.ones(grid.n_nodes)) == pytest.approx(
            4 * np.pi, rel=1e-12
        )

    def test_plane_wave_closed_form(self):
        grid = make_sphere(1.0, 30, 60)
        vals = np.exp(1j * 2.0 * grid.nodes[:, 2])  # beta = e_z, k = 2
        assert np.sum(grid.weights * vals) == pytest.approx(
            sphere_plane_wave_integral(2.0, 1.0), abs=1e-12
        )


def with_value(a, index, value=np.nan):
    a = np.array(a, dtype=float)
    a[index] = value
    return a


_SPHERE = make_sphere(1.0, 8, 16)
_DIRS = make_direction_grid(6, 12)


def _surface(**changed):
    fields = {"nodes": _SPHERE.nodes, "weights": _SPHERE.weights}
    return SurfaceGrid(**{**fields, **changed}, descriptor=_SPHERE.descriptor)


def _directions(**changed):
    return DirectionGrid(**{"directions": _DIRS.directions, "weights": _DIRS.weights, **changed})


# every comparison with NaN is False, so each check must be written to fail on it
@pytest.mark.parametrize(
    "build",
    [
        lambda: _surface(weights=with_value(_SPHERE.weights, 3)),
        lambda: _surface(weights=with_value(_SPHERE.weights, 3, np.inf)),
        lambda: _surface(nodes=with_value(_SPHERE.nodes, (3, 1))),
        lambda: _directions(weights=with_value(_DIRS.weights, 5)),
        lambda: _directions(directions=with_value(_DIRS.directions, (5, 2))),
        lambda: _check_interior(_SPHERE, [[0.1, 0.0, 0.0], [np.nan, 0.0, 0.0]]),
    ],
    ids=["surface-weight", "surface-weight-inf", "surface-node",
         "direction-weight", "direction", "interior-point"],
)
def test_non_finite_input_rejected(build):
    with pytest.raises(ValueError):
        build()
