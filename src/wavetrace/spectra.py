"""Dirichlet-eigenvalue oracles: the ball spectrum and the single-layer operator.

Two independent detectors of the interior Dirichlet spectrum:

* analytic ball spectrum: k = z_{l,n}/R where j_l(z_{l,n}) = 0, each with
  multiplicity 2l+1, eigenfunctions u = j_l(k r) Y_lm(x_hat);
* the single-layer boundary operator with kernel e^{ikr}/(4 pi r), whose
  kernel degenerates exactly at interior Dirichlet eigenvalues.

The single-layer Nystrom discretization splits the kernel into a smooth
part (e^{ikr} - 1)/(4 pi r), extended by ik/(4 pi) on the diagonal, plus
the static part 1/(4 pi r). The static part is handled by singularity
subtraction: the diagonal entry is g(x_m) - sum_{p != m} sigma_p K0(r_mp),
where g(x) = integral_S ds(y)/(4 pi |x - y|) is the static row integral --
exactly R on a sphere, and computed once per star surface by one product
rule on the sphere of directions, rotated so that its pole points at each
node in turn (Graham & Sloan 2002): the sin(theta') of the rule cancels the
1/r singularity at the pole, and the rule converges spectrally.

Because the continuous operator is compact, raw smallest singular values
of a fine discretization are dominated by unresolved high-degree junk at
every k. Eigenvalue sweeps therefore compress the matrix onto a
bandlimited angular subspace (the real and imaginary parts of Y_lm,
l <= L, orthonormalized in surface weights: a real basis Q spanning the
complex harmonics) and take the singular values of the compressed matrix:
the spectrum that find_dips samples, refines and classifies. Dips of its
smallest value mark the Dirichlet spectrum.

A sphere or star grid is invariant under the rotation by 2 pi / n about z,
n = gcd(n_phi, |m| of every star term), so A is block-circulant over its n
azimuthal sectors (Young, Hao & Martinsson 2012): a build forms only the
first sector's N / n rows and applies A to Q by FFTs over the sectors
(_compressed_kernel), with no N x N array when n > 1. The static row
integral is evaluated on the first sector too.

The compressed matrix B(k) = Q^T A(k) Q is entire in k, so it is built
once per k range as a Chebyshev interpolant (Effenberger & Kressner 2012;
Trefethen, ATAP, 2013) and evaluated by the barycentric formula. B depends
on k through e^{ikr}; on a range of half-width h its Chebyshev
coefficients have modulus 2 |J_m(h r)| <= 2 (h r / 2)^m / m!. So B is
formed directly at the n + 1 Chebyshev-Lobatto points of [k_min, k_max]
for the smallest n with (h D / 2)^(n-2) / (n-2)! <= 1e-14, D the largest
node distance: the last three coefficients are then below 1e-14 of the
leading one. That test still guards the result: a range that fails it
raises InterpolationError. On the 24x48 star over [5, 6.5] at band limit
8 (h D / 2 = 0.797) n is 18: 19 builds of 24 x 1152 kernel rows (the
group order is 48), against one per evaluation (92 for a 76-sample sweep
and its refinements); an evaluation then costs an 81 x 81 SVD, about 1 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile

import numpy as np
from numpy.polynomial.legendre import leggauss

from .herglotz import _check_wavenumber
from .specfun import (
    MAX_DEGREE,
    HarmonicIndex,
    _bessel_zeros,
    bessel_zero,
    sph_bessel_j_deriv,
    sph_harm,
)
from .surface import (
    SurfaceGrid,
    UnsupportedSurfaceError,
    _orbit,
    _spherical_coords,
    _spherical_frame,
    _unit_vectors,
    surface_radius,
)
from .sweep import _map

__all__ = [
    "EigenvalueRecord",
    "InterpolationError",
    "ball_dirichlet_eigs",
    "eigenfunction_normal_derivative",
    "static_row_integral",
    "make_single_layer_spectrum",
]


# Nodes of the static row integral evaluated at once: bounds a block's rule
# points to a few MB at the grids used here.
_STATICS_ROW_BLOCK = 64

# Gauss-Legendre nodes in the polar angle of the static row integral's
# rule; it takes twice as many azimuths.
_POLE_RULE_NODES = 24

# Chebyshev interpolation of the compressed single-layer matrix in k: the
# degree cap, and the trailing-coefficient test (the last _CHEB_TAIL
# coefficients below _CHEB_TAIL_TOL of the leading one).
_CHEB_MAX_DEGREE = 256
_CHEB_TAIL = 3
_CHEB_TAIL_TOL = 1e-14


class InterpolationError(RuntimeError):
    """The k-interpolant of the single-layer matrix did not converge."""


@dataclass(frozen=True)
class EigenvalueRecord:
    """One Dirichlet eigenvalue candidate; k is stored, k^2 is the eigenvalue."""

    k: float
    multiplicity: int
    source: str
    l: int | None = None
    n: int | None = None


def ball_dirichlet_eigs(R: float, k_max: float) -> list[EigenvalueRecord]:
    """All ball Dirichlet eigenvalues k = z_{l,n}/R <= k_max, ascending.

    Degrees l <= k_max*R are scanned; since z_{l,1} > l no higher degree
    can fit. k_max*R must stay below MAX_DEGREE (ValueError before any scan).
    """
    R = float(R)
    k_max = float(k_max)
    if not 0 < R < np.inf:
        raise ValueError(f"radius must be positive and finite, got {R}")
    if not 0 < k_max < np.inf:
        raise ValueError(f"k_max must be positive and finite, got {k_max}")
    cap = k_max * R
    if cap >= MAX_DEGREE:
        raise ValueError(f"k_max * R must be below {MAX_DEGREE}, got {cap}")
    records = (
        EigenvalueRecord(k=z / R, multiplicity=2 * l + 1, source="ball-analytic", l=l, n=n)
        for l in range(int(cap) + 1)
        for n, z in enumerate(takewhile(lambda z: z <= cap, _bessel_zeros(l)), start=1)
    )
    return sorted(records, key=lambda rec: rec.k)


def _sphere_radius(grid: SurfaceGrid) -> float:
    """The radius of a sphere grid; UnsupportedSurfaceError on any other kind."""
    kind = grid.descriptor.get("kind")
    if kind != "sphere":
        raise UnsupportedSurfaceError(f"a ball eigenfunction needs a sphere grid, got {kind!r}")
    return grid.descriptor["radius"]


def eigenfunction_normal_derivative(idx: HarmonicIndex, n: int, grid: SurfaceGrid) -> np.ndarray:
    """Outward normal derivative u_N = k j_l'(kR) Y_lm on a sphere grid of radius R.

    Nonvanishing by construction: j_l' cannot share a zero with j_l.
    """
    R = _sphere_radius(grid)
    k = bessel_zero(idx.l, n) / R
    _, theta, phi = _spherical_coords(grid.nodes)
    return k * sph_bessel_j_deriv(idx.l, k * R) * sph_harm(idx, theta, phi)


def static_row_integral(grid: SurfaceGrid) -> np.ndarray:
    """g(x_m) = integral_S ds(y) / (4 pi |x_m - y|) for every node.

    Sphere:  exact closed form g = R.
    Star:    one product rule on the sphere of directions, rotated so that
             its pole is the node's direction (Graham & Sloan 2002): Gauss-
             Legendre in the polar angle theta' times uniform azimuths. The
             surface y = r(s) s has ds = r sqrt(r^2 + r_theta^2 +
             r_phi^2 / sin^2 theta) dOmega, and the sin theta' of dOmega
             cancels the 1/|x - y| singularity at the pole, so the rule
             converges spectrally. g is invariant under the grid's rotations
             (_orbit), so the rule runs on the first azimuthal sector's
             nodes only, _STATICS_ROW_BLOCK at a time on the sweep layer's
             pool, each block writing only its own nodes' values, and the
             result is tiled over the sectors.
    """
    desc = grid.descriptor
    kind = desc.get("kind")
    if kind == "sphere":
        return np.full(grid.n_nodes, float(desc["radius"]))
    n, order = _orbit(grid)
    sector = grid.nodes[order[: grid.n_nodes // n]]
    t, wt = leggauss(_POLE_RULE_NODES)
    polar = 0.5 * np.pi * (t + 1)
    n_azimuth = 2 * _POLE_RULE_NODES
    T, P = np.meshgrid(polar, np.arange(n_azimuth) * (2 * np.pi / n_azimuth), indexing="ij")
    # the rule's directions in (theta_hat, phi_hat, r_hat) coordinates, and
    # its weights with the 1/(4 pi) of the kernel
    local = _unit_vectors(T.ravel(), P.ravel())
    weights = np.repeat(wt * np.sin(polar) * (np.pi / (4 * n_azimuth)), n_azimuth)
    r_hat, theta_hat, phi_hat = _spherical_frame(*_spherical_coords(sector)[1:])
    frames = np.stack([theta_hat, phi_hat, r_hat], axis=1)
    g = np.empty(len(sector))

    def fill(start: int):
        rows = slice(start, start + _STATICS_ROW_BLOCK)
        y = local @ frames[rows]  # the rule's directions, then y - x
        _, theta, phi = _spherical_coords(y)
        r, rt, rp = surface_radius(desc, theta, phi)
        y *= r[..., None]
        y -= sector[rows, None, :]
        ds = r * np.sqrt(r * r + rt * rt + (rp / np.sin(theta)) ** 2)
        g[rows] = (ds / np.linalg.norm(y, axis=-1)) @ weights

    _map(fill, range(0, len(sector), _STATICS_ROW_BLOCK))
    tiled = np.empty(grid.n_nodes)
    tiled[order] = np.tile(g, n)
    return tiled


def _sector_statics(grid: SurfaceGrid, static_integral: np.ndarray):
    """The node order of _orbit, and the k-independent parts of the first
    sector's rows of the weighted Nystrom matrix, columns in that order:
    the sector's weights, its node distances (unit at each node's own
    column), the off-diagonal weight sqrt(sigma_a) sqrt(sigma_b) /
    (4 pi r_ab), and the static diagonal term. Every array is N / n x N at
    most."""
    n, order = _orbit(grid)
    nodes, w = grid.nodes[order], grid.weights[order]
    m = len(w) // n
    dist = np.sqrt(sum((nodes[:m, None, i] - nodes[None, :, i]) ** 2 for i in range(3)))
    own = np.arange(m)
    dist[own, own] = 1.0
    four_pi_dist = 4 * np.pi * dist
    static_offdiag_rowsum = (w / four_pi_dist).sum(axis=1) - w[:m] / (4 * np.pi)
    sw = np.sqrt(w)
    weight = np.outer(sw[:m], sw) / four_pi_dist
    return order, w[:m], dist, weight, static_integral[order[:m]] - static_offdiag_rowsum


def _compressed_kernel(k: float, Qt, Q_hat, w, dist, weight, static_diag) -> np.ndarray:
    """B(k) = Q^T A(k) Q from the first sector's rows of A(k), with no
    N x N array.

    A is block-circulant over the n sectors: A[sector t, sector t + d] is
    C_d = A[sector 0, sector d]. So (A Q)_t = sum_d C_d Q_{t+d}, which is
    FFT_p(C^_p IFFT_t(Q)_p) with C^ = FFT_d(C): Q_hat holds IFFT_t(Q),
    formed once, and Qt is Q^T with its columns in sector order. The N / n
    x N rows are exponentiated and transformed in one buffer, and B is one
    real product on the float view of A Q.

    C_0 is exactly symmetric, as the distances are, so only its upper
    triangle goes through exp, _STATICS_ROW_BLOCK rows at a time, each
    mirrored into the lower. The blocks C^_0 and, for an even n, C^_n/2
    meet real blocks of Q_hat, and C^_p^T = C^_-p makes them symmetric:
    each is multiplied on its float view (at n = 1, all of A).
    """
    m, N = dist.shape
    n = N // m

    def over_sectors(a):
        # the FFT over the sectors, in place; of length 1 it is the identity
        if n > 1:
            np.fft.fft(a, axis=0, out=a)

    def exp_ik(part):
        np.multiply(1j * k, dist[part], out=rows[part])
        np.exp(rows[part], out=rows[part])

    rows = np.empty((m, N), dtype=complex)
    for start in range(0, m, _STATICS_ROW_BLOCK):
        stop = min(start + _STATICS_ROW_BLOCK, m)
        exp_ik(np.s_[start:stop, start:m])
        rows[stop:m, start:stop] = rows[start:stop, stop:m].T
    exp_ik(np.s_[:, m:])
    rows *= weight
    own = np.arange(m)
    rows[own, own] = 1j * k * w / (4 * np.pi) + static_diag
    blocks = rows.reshape(m, n, m).transpose(1, 0, 2)
    over_sectors(blocks)
    AQ = np.empty((n, m, Q_hat.shape[2]), dtype=complex)
    for p in (0, n // 2) if n % 2 == 0 else (0,):
        # C^_p Q_hat_p = (Q_hat_p^T C^_p)^T: two real products
        AQ[p] = (Q_hat[p].real.T @ blocks[p].view(float)).view(complex).T
    for lo, hi in ((1, (n + 1) // 2), (n // 2 + 1, n)):
        np.matmul(blocks[lo:hi], Q_hat[lo:hi], out=AQ[lo:hi])
    over_sectors(AQ)
    return (Qt @ AQ.reshape(N, -1).view(float)).view(complex)


def _check_band_limit(grid: SurfaceGrid, band_limit: int):
    """ValueError unless 0 <= L <= MAX_DEGREE and the (L+1)^2 harmonics fit
    on the grid's nodes: past the node count the basis spans every
    direction and compresses nothing."""
    if not 0 <= band_limit <= MAX_DEGREE:
        raise ValueError(f"band limit must be in [0, {MAX_DEGREE}], got {band_limit}")
    if (band_limit + 1) ** 2 > grid.n_nodes:
        raise ValueError(
            f"band limit {band_limit} needs {(band_limit + 1) ** 2} harmonics, "
            f"more than the grid's {grid.n_nodes} nodes"
        )


def bandlimited_basis(grid: SurfaceGrid, band_limit: int) -> np.ndarray:
    """Real orthonormal basis (in surface weights) of the angular harmonics
    l <= L: the QR of Re Y_l|m| (m >= 0) and Im Y_l|m| (m < 0), which span
    the same space as the complex Y_lm."""
    _check_band_limit(grid, band_limit)
    _, theta, phi = _spherical_coords(grid.nodes)
    cols = []
    for l in range(band_limit + 1):
        for m in range(-l, l + 1):
            y = sph_harm(HarmonicIndex(l, abs(m)), theta, phi)
            cols.append(y.real if m >= 0 else y.imag)
    Y = np.array(cols).T * np.sqrt(grid.weights)[:, None]
    Q, _ = np.linalg.qr(Y)
    return Q


def _orbit_build(grid: SurfaceGrid, band_limit: int):
    """The callable k -> B(k) = Q^T A(k) Q by _compressed_kernel, and the
    largest node distance. The band limit is checked first; the static row
    integral, the first sector's statics and IFFT_t(Q) are formed once."""
    Q = bandlimited_basis(grid, band_limit)
    order, *statics = _sector_statics(grid, static_row_integral(grid))
    Q = Q[order]
    Q_hat = np.fft.ifft(Q.reshape(-1, len(statics[0]), Q.shape[1]), axis=0)

    def compressed_at(k: float) -> np.ndarray:
        return _compressed_kernel(k, Q.T, Q_hat, *statics)

    return compressed_at, statics[1].max()


def _lobatto_points(k_min: float, k_max: float, n: int) -> np.ndarray:
    """The n + 1 Chebyshev-Lobatto points of [k_min, k_max], cos(j pi / n)
    mapped, from k_max down to k_min exactly."""
    x = np.sin(np.pi * (n - 2 * np.arange(n + 1)) / (2 * n))
    ks = 0.5 * (k_max + k_min) + 0.5 * (k_max - k_min) * x
    ks[0], ks[-1] = k_max, k_min
    return ks


def _chebyshev_tail(values: np.ndarray) -> float:
    """Largest of the last _CHEB_TAIL Chebyshev coefficients of samples at the
    n + 1 Lobatto points, relative to the leading one, in the entrywise max
    norm. Only those rows of the DCT-I are formed."""
    n = len(values) - 1
    rows = np.array([0, *range(n - _CHEB_TAIL + 1, n + 1)])
    halve = np.ones(n + 1)
    halve[[0, -1]] = 0.5
    dct = np.cos(np.pi * np.outer(rows, np.arange(n + 1)) / n) * halve
    norms = np.abs(dct @ values.reshape(n + 1, -1)).max(axis=1) * halve[rows]
    return float(norms[1:].max() / norms[0])


def _cheb_start_degree(half_width: float, diameter: float) -> int:
    """Smallest n with (h D / 2)^(n-2) / (n-2)! <= _CHEB_TAIL_TOL, capped at
    _CHEB_MAX_DEGREE: the bound on the (n-2)-th Chebyshev coefficient of
    e^{ikr}, r <= D, over a k range of half-width h."""
    x = 0.5 * half_width * diameter
    m, bound = 0, 1.0
    while bound > _CHEB_TAIL_TOL and m + 2 < _CHEB_MAX_DEGREE:
        m += 1
        bound *= x / m
    return m + 2


def make_single_layer_spectrum(grid: SurfaceGrid, band_limit: int, k_min: float, k_max: float):
    """Callable k -> singular values (descending) of the bandlimit-compressed
    single-layer matrix B(k) = Q^T A(k) Q on [k_min, k_max], Q the real
    bandlimited_basis; the last one is the indicator.

    B is built at the n + 1 Chebyshev-Lobatto points of the range, n from
    _cheb_start_degree with the largest node distance; InterpolationError
    unless _chebyshev_tail is then within _CHEB_TAIL_TOL. Each build is
    _compressed_kernel on the first azimuthal sector's rows (_orbit checks
    the grid's rotational symmetry first, UnsupportedSurfaceError if it
    fails), so no N x N array is formed when the group order n > 1. The
    static row integral and the builds run on the sweep layer's pool, one
    worker per CPU. An evaluation is a barycentric sum and an SVD of size
    (L+1)^2; at a node it is that node's matrix. The band limit is checked
    before any work; k_min < k_max, and k must be positive and finite, then
    inside [k_min, k_max] (ValueError otherwise).
    """
    k_min, k_max = _check_wavenumber(k_min), _check_wavenumber(k_max)
    if not k_min < k_max:
        raise ValueError(f"need k_min < k_max, got [{k_min}, {k_max}]")
    compressed_at, diameter = _orbit_build(grid, band_limit)

    def build(j: int):
        stack[j] = compressed_at(ks[j])

    n = _cheb_start_degree(0.5 * (k_max - k_min), diameter)
    ks = _lobatto_points(k_min, k_max, n)
    stack = np.empty((n + 1, (band_limit + 1) ** 2, (band_limit + 1) ** 2), dtype=complex)
    _map(build, range(n + 1))
    if _chebyshev_tail(stack) > _CHEB_TAIL_TOL:
        raise InterpolationError(
            f"single-layer interpolant on [{k_min}, {k_max}] not converged at degree {n}"
        )
    weights = (-1.0) ** np.arange(n + 1)
    weights[[0, -1]] *= 0.5

    def compressed(k: float) -> np.ndarray:
        k = _check_wavenumber(k)
        if not k_min <= k <= k_max:
            raise ValueError(f"wavenumber k = {k} outside the interpolated range [{k_min}, {k_max}]")
        at = np.flatnonzero(ks == k)
        if len(at):
            return stack[at[0]]
        c = weights / (k - ks)
        return np.tensordot(c / c.sum(), stack, axes=1)

    def singular_values(k: float) -> np.ndarray:
        return np.linalg.svd(compressed(k), compute_uv=False)

    return singular_values
