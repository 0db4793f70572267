"""Special functions backing the analytic oracles.

Spherical Bessel functions of the first and second kind, spherical Hankel
functions, their derivatives, positive zeros of j_l, and fully normalized
complex spherical harmonics with the Condon-Shortley phase:

    integral_{S^2} Y_lm conj(Y_l'm') dOmega = delta_ll' delta_mm'

All functions accept scalars or numpy arrays in the argument position and
are pure (no shared mutable state).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.optimize import brentq
from scipy.special import sph_harm_y, sph_legendre_p, spherical_jn, spherical_yn

__all__ = [
    "HarmonicIndex",
    "sph_bessel_j",
    "sph_bessel_j_deriv",
    "sph_bessel_y",
    "sph_hankel1",
    "bessel_zero",
    "sph_harm",
    "sph_harm_with_grad",
]

MAX_DEGREE = 64  # declared support limit for l


@dataclass(frozen=True)
class HarmonicIndex:
    """Angular index (l, m) of a spherical harmonic, with |m| <= l."""

    l: int
    m: int

    def __post_init__(self):
        if self.l < 0:
            raise ValueError(f"degree l must be nonnegative, got {self.l}")
        if abs(self.m) > self.l:
            raise ValueError(f"order m must satisfy |m| <= l, got (l={self.l}, m={self.m})")

    def __str__(self):
        return f"Y({self.l},{self.m})"


def _check_degree(l) -> int:
    l = int(l)
    if l < 0:
        raise ValueError(f"degree l must be nonnegative, got {l}")
    if l > MAX_DEGREE:
        raise ValueError(f"degree l={l} exceeds supported maximum {MAX_DEGREE}")
    return l


def _check_argument(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
    if np.any(x < 0):
        raise ValueError("argument must be nonnegative")
    return x


def sph_bessel_j(l: int, x):
    """Spherical Bessel function of the first kind j_l(x).

    x = 0 is handled by the limit values j_0(0)=1, j_l(0)=0 for l >= 1.
    """
    l = _check_degree(l)
    x = _check_argument(x)
    return spherical_jn(l, x)


def sph_bessel_j_deriv(l: int, x):
    """Derivative j_l'(x), from scipy's spherical_jn(l, x, derivative=True)."""
    l = _check_degree(l)
    x = _check_argument(x)
    return spherical_jn(l, x, derivative=True)


def sph_bessel_y(l: int, x):
    """Spherical Bessel function of the second kind y_l(x); requires x > 0."""
    l = _check_degree(l)
    x = _check_argument(x)
    if np.any(x <= 0):
        raise ValueError("y_l requires x > 0")
    return spherical_yn(l, x)


def sph_hankel1(l: int, x):
    """Spherical Hankel function of the first kind h_l^(1) = j_l + i y_l."""
    l = _check_degree(l)
    x = _check_argument(x)
    if np.any(x <= 0):
        raise ValueError("h_l^(1) requires x > 0")
    return spherical_jn(l, x) + 1j * spherical_yn(l, x)


def _bessel_zeros(l: int):
    """Positive zeros of j_l in ascending order, absolute accuracy ~1e-14.

    Sign changes are bracketed on a grid of spacing pi/8 starting just above
    l -- z_{l,1} > l, so no zero can be missed -- and each bracket is refined
    by Brent's method.
    """
    l = _check_degree(l)
    f = lambda x: spherical_jn(l, x)
    step = np.pi / 8
    x0 = max(float(l), step / 2)
    f0 = f(x0)
    while True:
        x1 = x0 + step
        f1 = f(x1)
        if f0 == 0.0:
            yield x0
        elif f0 * f1 < 0:
            yield float(brentq(f, x0, x1, xtol=1e-14, rtol=8.9e-16))
        x0, f0 = x1, f1


def bessel_zero(l: int, n: int) -> float:
    """n-th positive zero z_{l,n} of j_l, absolute accuracy ~1e-14."""
    n = int(n)
    if n < 1:
        raise ValueError(f"zero index n must be >= 1, got {n}")
    return next(islice(_bessel_zeros(l), n - 1, None))


def sph_harm(idx: HarmonicIndex, theta, phi):
    """Orthonormal complex spherical harmonic Y_lm(theta, phi).

    theta is the polar angle in [0, pi], phi the azimuth; Condon-Shortley
    phase included.
    """
    return sph_harm_y(idx.l, idx.m, np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))


def sph_harm_with_grad(idx: HarmonicIndex, theta, phi):
    """Y_lm together with its angular derivatives (dY/dtheta, dY/dphi), as
    normalized Legendre P_l^m(theta) times e^{i m phi}: bit for bit scipy's
    sph_harm_y(..., diff_n=1), at a fraction of its cost."""
    p, dp = sph_legendre_p(idx.l, idx.m, np.asarray(theta, dtype=float), diff_n=1)
    e = np.exp(1j * idx.m * np.asarray(phi, dtype=float))
    return p * e, dp * e, p * (1j * idx.m * e)
