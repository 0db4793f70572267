import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import wavetrace
import wavetrace.specfun
from scipy.special import spherical_yn

from oracles import bessel_j_series, central_difference
from wavetrace import (
    HarmonicIndex,
    bessel_zero,
    make_direction_grid,
    sph_bessel_j,
    sph_bessel_j_deriv,
    sph_harm,
)
from wavetrace.specfun import sph_harm_with_grad

# frozen from the mpmath power-series oracle (tests/oracles.py)
J1_AT_1 = 0.30116867893975679
J5_AT_3 = 0.016397480955999103


class TestSphBesselJ:
    def test_j0_at_pi_vanishes(self):
        assert abs(sph_bessel_j(0, np.pi)) < 1e-15

    def test_j0_limit_at_zero(self):
        assert sph_bessel_j(0, 0.0) == 1.0
        assert sph_bessel_j(3, 0.0) == 0.0

    def test_against_series_oracle(self):
        assert sph_bessel_j(1, 1.0) == pytest.approx(J1_AT_1, rel=1e-13)
        assert sph_bessel_j(5, 3.0) == pytest.approx(J5_AT_3, rel=1e-13)

    @pytest.mark.parametrize("l,x", [(0, 0.5), (2, 1.0), (7, 3.0), (12, 4.0), (20, 9.0)])
    def test_series_oracle_unstable_regime(self, l, x):
        # x < l is where naive upward recurrence would lose accuracy
        assert sph_bessel_j(l, x) == pytest.approx(bessel_j_series(l, x), rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sph_bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            sph_bessel_j(0, np.nan)
        with pytest.raises(ValueError):
            sph_bessel_j(0, -1.0)


class TestSphBesselJDeriv:
    def test_j0_deriv_at_pi(self):
        assert sph_bessel_j_deriv(0, np.pi) == pytest.approx(-1 / np.pi, rel=1e-13)

    def test_j0_deriv_vanishes_at_zero(self):
        assert abs(sph_bessel_j_deriv(0, 0.0)) == 0.0
        assert abs(sph_bessel_j_deriv(0, 1e-9)) < 1e-8

    def test_finite_difference_oracle(self):
        fd = central_difference(lambda x: sph_bessel_j(1, x), 2.0, 1e-6)
        assert sph_bessel_j_deriv(1, 2.0) == pytest.approx(fd, abs=1e-8)


class TestSphBesselY:
    def test_closed_form_at_one(self):
        # y_0(x) = -cos(x)/x
        assert spherical_yn(0, 1.0) == pytest.approx(-np.cos(1.0), rel=1e-14)

    def test_closed_form_at_pi(self):
        assert spherical_yn(0, np.pi) == pytest.approx(1 / np.pi, rel=1e-13)

    def test_wronskian_at_l2_x3(self):
        j, y = sph_bessel_j(2, 3.0), spherical_yn(2, 3.0)
        jp = sph_bessel_j_deriv(2, 3.0)
        yp = (spherical_yn(1, 3.0) - spherical_yn(3, 3.0)) / 2 - spherical_yn(2, 3.0) / (2 * 3.0)
        assert j * yp - jp * y == pytest.approx(1 / 9.0, abs=1e-12)


class TestBesselZero:
    def test_l0_zeros_are_multiples_of_pi(self):
        assert bessel_zero(0, 1) == pytest.approx(np.pi, abs=1e-12)
        assert bessel_zero(0, 2) == pytest.approx(2 * np.pi, abs=1e-12)
        assert bessel_zero(0, 7) == pytest.approx(7 * np.pi, abs=1e-12)

    def test_frozen_low_order_zeros(self):
        # frozen from bisection on the series oracle
        assert bessel_zero(1, 1) == pytest.approx(4.4934094579090642, abs=1e-12)
        assert bessel_zero(2, 1) == pytest.approx(5.7634591968945498, abs=1e-12)

    @pytest.mark.parametrize("l,n", [(0, 3), (1, 2), (3, 1), (5, 2), (10, 1), (20, 1)])
    def test_postcondition_residual_and_sign_change(self, l, n):
        z = bessel_zero(l, n)
        assert z > l
        assert abs(sph_bessel_j(l, z)) <= 1e-12
        assert sph_bessel_j(l, z - 1e-6) * sph_bessel_j(l, z + 1e-6) < 0

    def test_zeros_interlace_and_ascend(self):
        zs = [bessel_zero(4, n) for n in range(1, 5)]
        assert all(a < b for a, b in zip(zs, zs[1:]))

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            bessel_zero(0, 0)

    @pytest.mark.parametrize("l", [0, 1, 2, 7, 16, 31, 45, 64])
    def test_zeros_match_mpmath(self, l):
        # z_{l,n} is the n-th zero of the Bessel function J_{l+1/2}
        with mp.workdps(30):
            for n in range(1, 6):
                assert abs(bessel_zero(l, n) - float(mp.besseljzero(l + 0.5, n))) <= 1e-13

    def test_import_leaves_scipy_optimize_unloaded(self):
        # the zeros are refined without scipy.optimize, which costs about
        # 0.2 s of every process start
        src = str(Path(wavetrace.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, wavetrace.cli; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestIntegerArguments:
    """A degree, order or zero index is an integer: a bool or a float is
    refused, not coerced by int()."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: bessel_zero(1.5, 1),
            lambda: bessel_zero(True, 1),
            lambda: bessel_zero(1, 1.9),
            lambda: bessel_zero(1, True),
            lambda: sph_bessel_j(2.7, 1.0),
            lambda: sph_bessel_j(True, 1.0),
            lambda: sph_bessel_j_deriv(2.0, 1.0),
            lambda: HarmonicIndex(1.5, 0),
            lambda: HarmonicIndex(True, 0),
            lambda: HarmonicIndex(1, 0.5),
            lambda: HarmonicIndex(1, False),
        ],
        ids=[
            "zero-float-degree", "zero-bool-degree", "zero-float-index", "zero-bool-index",
            "j-float-degree", "j-bool-degree", "j-deriv-integral-float-degree",
            "index-float-degree", "index-bool-degree", "index-float-order", "index-bool-order",
        ],
    )
    def test_coerced_input_raises(self, call):
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    def test_numpy_integers_accepted(self):
        assert bessel_zero(np.int64(1), np.int32(1)) == bessel_zero(1, 1)
        assert sph_bessel_j(np.int64(2), 1.0) == sph_bessel_j(2, 1.0)
        assert HarmonicIndex(np.int64(2), np.int64(-1)) == HarmonicIndex(2, -1)

    def test_memo_refuses_a_bool_equal_to_a_cached_key(self):
        # True == 1 and hash(True) == hash(1): the memo sees validated ints only
        bessel_zero(1, 1)
        for l, n in ((True, 1), (1, True)):
            with pytest.raises(ValueError, match="must be an integer"):
                bessel_zero(l, n)

    def test_repeat_call_searches_no_more(self, monkeypatch):
        z = bessel_zero(3, 2)

        def no_search(*args, **kwargs):
            raise AssertionError("bessel_zero searched again for a zero it has found")

        monkeypatch.setattr(wavetrace.specfun, "spherical_jn", no_search)
        assert bessel_zero(3, 2) == z


class TestSphHarm:
    def test_y00_is_constant(self):
        assert sph_harm(HarmonicIndex(0, 0), 0.3, 0.7) == pytest.approx(
            1 / np.sqrt(4 * np.pi), rel=1e-14
        )

    def test_y10_vanishes_on_equator(self):
        assert abs(sph_harm(HarmonicIndex(1, 0), np.pi / 2, 0.0)) < 1e-12

    def test_condon_shortley_phase(self):
        # Y_11(pi/2, 0) = -sqrt(3/8pi) under the CS convention
        assert sph_harm(HarmonicIndex(1, 1), np.pi / 2, 0.0) == pytest.approx(
            -np.sqrt(3 / (8 * np.pi)), rel=1e-13
        )

    def test_discrete_orthonormality_to_degree_12(self):
        dirs = make_direction_grid(14, 28)
        theta = np.arccos(dirs.directions[:, 2])
        phi = np.arctan2(dirs.directions[:, 1], dirs.directions[:, 0])
        idx = [(l, m) for l in range(13) for m in range(-l, l + 1)]
        Y = np.array([sph_harm(HarmonicIndex(l, m), theta, phi) for l, m in idx])
        gram = (Y * dirs.weights) @ Y.conj().T
        assert np.abs(gram - np.eye(len(idx))).max() <= 1e-12

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            HarmonicIndex(2, 3)

    def test_degree_above_the_supported_maximum_raises(self):
        # scipy's sph_harm_y returns NaN from about l = 1000; l = 64 is the declared limit
        assert HarmonicIndex(64, -64).l == 64
        with pytest.raises(ValueError, match="exceeds supported maximum 64"):
            HarmonicIndex(65, 0)

    def test_gradient_bit_identical_to_scipy_derivative_mode(self):
        # the Legendre form must reproduce sph_harm_y(..., diff_n=1) exactly,
        # so star surfaces and their artifacts keep their bytes
        from scipy.special import sph_harm_y

        rng = np.random.default_rng(3)
        theta = np.concatenate([rng.uniform(0, np.pi, 2000), [0.0, np.pi, 1e-9, np.pi - 1e-9]])
        phi = np.concatenate([rng.uniform(-np.pi, np.pi, 2000), [0.3, -1.2, 2.0, np.pi]])
        for l in range(13):
            for m in range(-l, l + 1):
                val, grad = sph_harm_y(l, m, theta, phi, diff_n=1)
                got = sph_harm_with_grad(HarmonicIndex(l, m), theta, phi)
                for a, b in zip(got, (val, grad[..., 0], grad[..., 1])):
                    assert np.array_equal(a, b), (l, m)


class TestAnalyticInvariants:
    def test_wronskian_identity(self):
        # j_l y_l' - j_l' y_l = 1/x^2, relative to the 1/x^2 scale
        xs = np.linspace(0.1, 50, 87)
        for l in range(0, 21, 2):
            j = sph_bessel_j(l, xs)
            jp = sph_bessel_j_deriv(l, xs)
            y = spherical_yn(l, xs)
            lm1 = spherical_yn(l - 1, xs) if l > 0 else np.sin(xs) / xs  # y_{-1} = j_0
            yp = lm1 - (l + 1) / xs * y
            assert np.max(np.abs(j * yp - jp * y - 1 / xs**2) * xs**2) <= 1e-12

    def test_three_term_recurrence(self):
        xs = np.linspace(0.2, 50, 73)
        for l in range(1, 21, 3):
            a = sph_bessel_j(l - 1, xs)
            b = sph_bessel_j(l + 1, xs)
            c = (2 * l + 1) / xs * sph_bessel_j(l, xs)
            scale = np.maximum.reduce([np.abs(a), np.abs(b), np.abs(c)])
            assert np.max(np.abs(a + b - c) / np.maximum(scale, 1e-300)) <= 1e-12
