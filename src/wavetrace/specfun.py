"""Special functions backing the analytic oracles.

Spherical Bessel functions of the first kind, their derivative, positive
zeros of j_l, and fully normalized complex spherical harmonics with the
Condon-Shortley phase:

    integral_{S^2} Y_lm conj(Y_l'm') dOmega = delta_ll' delta_mm'

All functions accept scalars or numpy arrays in the argument position and
are pure; bessel_zero memoizes its results. A degree, order or zero index
must be an integer (numpy integers included): a bool or a float is refused,
not coerced.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.special import sph_harm_y, sph_legendre_p, spherical_jn

__all__ = [
    "HarmonicIndex",
    "sph_bessel_j",
    "sph_bessel_j_deriv",
    "bessel_zero",
    "sph_harm",
]

MAX_DEGREE = 64  # declared support limit for l


@dataclass(frozen=True)
class HarmonicIndex:
    """Angular index (l, m) of a spherical harmonic, with |m| <= l."""

    l: int
    m: int

    def __post_init__(self):
        _check_degree(self.l)
        _check_integer(self.m, "order m")
        if abs(self.m) > self.l:
            raise ValueError(f"order m must satisfy |m| <= l, got (l={self.l}, m={self.m})")


def _check_integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_degree(l) -> int:
    l = _check_integer(l, "degree l")
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


def _bessel_zeros(l: int):
    """Positive zeros of j_l in ascending order, absolute accuracy ~1e-14.

    Sign changes are bracketed on a grid of spacing pi/8 starting just above
    l -- z_{l,1} > l, so no zero can be missed -- and each bracket is refined
    by _newton_zero.
    """
    l = _check_degree(l)
    step = np.pi / 8
    x0 = max(float(l), step / 2)
    f0 = spherical_jn(l, x0)
    while True:
        x1 = x0 + step
        f1 = spherical_jn(l, x1)
        if f0 == 0.0:
            yield x0
        elif f0 * f1 < 0:
            yield _newton_zero(l, x0, x1, f0)
        x0, f0 = x1, f1


def _newton_zero(l: int, a: float, b: float, fa: float) -> float:
    """The zero of j_l in a sign-change bracket [a, b], fa = j_l(a).

    Newton steps on j_l from the midpoint, shrinking the bracket at each
    point; a step that leaves the bracket, or is not shorter than half the
    step before it, is replaced by bisection. Returns after the first step
    shorter than 1e-14 + 4 eps |x|.
    """
    x, last = (a + b) / 2, b - a
    while True:
        fx = float(spherical_jn(l, x))
        if fx == 0.0:
            return x
        if (fx < 0) == (fa < 0):
            a, fa = x, fx
        else:
            b = x
        tol = 1e-14 + 4 * np.finfo(float).eps * abs(x)
        step = fx / float(spherical_jn(l, x, derivative=True))
        if not (abs(step) < tol or (a < x - step < b and abs(step) < abs(last) / 2)):
            step = x - (a + b) / 2
        x, last = x - step, step
        if abs(step) < tol:
            return x


def bessel_zero(l: int, n: int) -> float:
    """n-th positive zero z_{l,n} of j_l, absolute accuracy ~1e-14."""
    l = _check_degree(l)
    n = _check_integer(n, "zero index n")
    if n < 1:
        raise ValueError(f"zero index n must be >= 1, got {n}")
    return _bessel_zero(l, n)


@functools.cache
def _bessel_zero(l: int, n: int) -> float:
    """bessel_zero on validated ints, memoized: each search rescans the
    zeros of j_l below z_{l,n} by scalar scipy calls that hold the GIL."""
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
