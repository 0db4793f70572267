"""Independent oracles the tests check the library against.

These deliberately avoid the library's own code paths: the spherical
Bessel series is summed in mpmath extended precision, derivatives come
from central finite differences, integrals from adaptive quadrature or
brute-force refined grids. The one exception, library_entries, takes the
library's plane-wave entries, for the references that pin the steps after
the assembly bit for bit.

The sphere's closed forms (the Funk-Hecke pairing, the single-layer
symbol, the ball eigenfunctions) and the discrete Herglotz wave are plain
formulas over the library's special functions and grids, with no argument
checks: the references that the library's quadratures, matrices and waves
are checked against.
"""

import math

import mpmath as mp
import numpy as np
import scipy.linalg as la
from scipy.integrate import nquad, quad
from scipy.special import spherical_jn, spherical_yn

from wavetrace.specfun import HarmonicIndex, bessel_zero, sph_bessel_j, sph_harm
from wavetrace.surface import _spherical_coords
from wavetrace.herglotz import DEFAULT_QR_RTOL, _antipodal_half, _rank_cutoff, _real_columns

mp.mp.dps = 40


def bessel_j_series(l: int, x: float) -> float:
    """Power series j_l(x) = sum_s (-1)^s x^{l+2s} / (2^s s! (2l+2s+1)!!)."""
    xm = mp.mpf(x)
    total = mp.mpf(0)
    for s in range(120):
        term = (-1) ** s * xm ** (l + 2 * s) / (2**s * mp.factorial(s) * mp.fac2(2 * l + 2 * s + 1))
        total += term
        if abs(term) < mp.mpf(10) ** (-38) * max(1, abs(total)):
            break
    return float(total)


def central_difference(f, x: float, step: float) -> float:
    return (f(x + step) - f(x - step)) / (2 * step)


def herglotz_wave(k: float, h, dirs, points):
    """The discrete Herglotz wave w(x) = sum_j w_j h_j e^{i k beta_j . x} of
    density coefficients h on a direction grid, at (P, 3) points."""
    return np.exp(1j * k * (points @ dirs.directions.T)) @ (dirs.weights * h)


def helmholtz_residual(u, k: float, point, h_step: float) -> float:
    """|(Delta_h + k^2) u| at one point, Delta_h the 7-point central-difference
    Laplacian of u, a callable from (P, 3) points to values. Second-order
    accurate: O(h_step^2 k^4 |u|) for an exact Helmholtz solution."""
    stencil = np.asarray(point, dtype=float) + np.vstack([np.zeros(3), h_step * np.eye(3), -h_step * np.eye(3)])
    vals = u(stencil)
    return float(abs((vals[1:].sum() - 6.0 * vals[0]) / h_step**2 + k * k * vals[0]))


def harmonic_on(grid, l: int, m: int):
    """Y_lm at the directions of a grid's nodes."""
    _, theta, phi = _spherical_coords(grid.nodes)
    return sph_harm(HarmonicIndex(l, m), theta, phi)


def funk_hecke(idx, k: float, R: float, beta) -> complex:
    """The sphere pairing of Y_lm against one plane wave, in closed form:
    integral_{|s|=R} Y_lm(s_hat) e^{i k beta . s} ds = 4 pi R^2 i^l j_l(kR) Y_lm(beta)."""
    theta = np.arccos(beta[2])
    phi = np.arctan2(beta[1], beta[0])
    return complex(4 * np.pi * R * R * 1j**idx.l * sph_bessel_j(idx.l, k * R) * sph_harm(idx, theta, phi))


def single_layer_symbol(l: int, k: float, R: float) -> complex:
    """Eigenvalue of the single-layer operator on the sphere of radius R
    acting on Y_lm: i k R^2 j_l(kR) h_l^(1)(kR), with h_l^(1) = j_l + i y_l;
    zero exactly when j_l(kR) = 0."""
    x = k * R
    return complex(1j * k * R * R * spherical_jn(l, x) * (spherical_jn(l, x) + 1j * spherical_yn(l, x)))


def ball_eigenfunction(idx, n: int, R: float, points):
    """u(x) = j_l(k |x|) Y_lm(x_hat) with k = z_{l,n}/R: a Dirichlet
    eigenfunction of the ball of radius R."""
    r, theta, phi = _spherical_coords(np.atleast_2d(points))
    return sph_bessel_j(idx.l, bessel_zero(idx.l, n) / R * r) * sph_harm(idx, theta, phi)


def radial_bessel_moment(l: int, k: float, R: float) -> float:
    """integral_0^R r^{l+2} j_l(k r) dr by adaptive quadrature."""
    val, err = quad(lambda r: r ** (l + 2) * bessel_j_series(l, k * r), 0.0, R, limit=200)
    assert err < 1e-12
    return val


def sphere_plane_wave_integral(k: float, radius: float) -> float:
    """integral_{|s|=R} e^{ik beta . s} ds = 4 pi R^2 sin(kR)/(kR), any beta."""
    x = k * radius
    return 4 * np.pi * radius * radius * np.sin(x) / x


def static_row_integral_adaptive(R0: float, eps: float, theta0: float, phi0: float) -> float:
    """g(x) = integral_S ds(y) / (4 pi |x - y|) at the point x = r(theta0) s_hat(theta0, phi0)
    of the star r = R0 (1 + eps Re Y_20), by adaptive quadrature over the
    (theta, phi) parameter rectangle. The rectangle is split at the node,
    so the 1/|x - y| singularity sits at a corner of each of the four pieces.
    Re Y_20 = sqrt(5 / 16 pi) (3 cos^2 theta - 1) is written out here."""
    c = eps * math.sqrt(5 / (16 * math.pi))

    def point(t, p):
        r = R0 * (1 + c * (3 * math.cos(t) ** 2 - 1))
        return r, (r * math.sin(t) * math.cos(p), r * math.sin(t) * math.sin(p), r * math.cos(t))

    _, x = point(theta0, phi0)

    def integrand(p, t):
        r, y = point(t, p)
        r_theta = -6 * R0 * c * math.cos(t) * math.sin(t)
        # |x_theta x x_phi| = r sin(theta) sqrt(r^2 + r_theta^2) when r_phi = 0
        return r * math.sin(t) * math.hypot(r, r_theta) / (4 * math.pi * math.dist(x, y))

    opts = {"epsabs": 1e-13, "epsrel": 1e-13, "limit": 200}
    return sum(
        nquad(integrand, [phis, thetas], opts=opts)[0]
        for thetas in ((0.0, theta0), (theta0, math.pi))
        for phis in ((phi0 - math.pi, phi0), (phi0, phi0 + math.pi))
    )


def brute_force_gram_singular_values(k, grid_fine, dirs):
    """Singular values of the continuous trace operator approximated by a
    refined-quadrature Gram matrix: G_ij = w_i^(1/2) (int_S e^{-ik b_i s}
    e^{ik b_j s} ds) w_j^(1/2), then sqrt of its eigenvalues."""
    E = np.exp(1j * k * (grid_fine.nodes @ dirs.directions.T))
    G = (E.conj().T * grid_fine.weights) @ E
    G = np.sqrt(dirs.weights)[:, None] * G * np.sqrt(dirs.weights)[None, :]
    eig = np.linalg.eigvalsh((G + G.conj().T) / 2)
    return np.sqrt(np.clip(eig, 0, None))[::-1]


def stacked_trace_matrix(k, grid, dirs, interior=None):
    """The weighted trace matrix as whole-matrix exponentials: the N boundary
    rows sqrt(sigma_m) e^{i k beta_j . s_m} sqrt(w_j), then, given P interior
    points x_p, the rows sqrt(area / P) e^{i k beta_j . x_p} sqrt(w_j), one
    uniform weight that makes both blocks commensurate; stacked by a copy."""
    sqrt_w = np.sqrt(dirs.weights)[None, :]
    A = np.sqrt(grid.weights)[:, None] * np.exp(1j * k * (grid.nodes @ dirs.directions.T)) * sqrt_w
    if interior is None:
        return A
    B = np.sqrt(grid.area / len(interior)) * np.exp(1j * k * (interior @ dirs.directions.T)) * sqrt_w
    return np.vstack([A, B])


def complex_trace_fit(k, grid, target, dirs):
    """The trace fit in complex arithmetic over every direction: the
    minimum-norm solution on the left singular vectors above 1e-8 of the
    leading value, by one complex SVD of the stacked trace matrix, for the
    weighted target target * sqrt(sigma). Returns (relative residual,
    ||h||), the unknowns being sqrt(w_j) h_j, so that ||h|| is the
    density's discrete L^2(S^2) norm."""
    A = stacked_trace_matrix(k, grid, dirs)
    b = target * np.sqrt(grid.weights)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    keep = s > s[0] * 1e-8
    c = U[:, keep].conj().T @ b
    h = Vh[keep].conj().T @ (c / s[keep])
    return float(np.linalg.norm(b - U[:, keep] @ c) / np.linalg.norm(b)), float(np.linalg.norm(h))


def complex_decomposition_residual(k, R, grid, dirs, targets, eigen_indices):
    """The decomposition residual with a complex column stack: the trace
    matrix over every direction, then the weighted normal derivatives
    k_n j_l'(k_n R) Y_lm, k_n = z_{l,n}/R, of every (l, n) in eigen_indices
    and every m; projected onto the left singular vectors above 1e-8 of the
    leading value. The targets Y_lm, (l, m) in targets, weighted by
    sqrt(sigma), are orthonormalized to Q; returns the spectral norm
    ||Q - U U^H Q||, the worst relative residual over their combinations."""
    sqrt_w = np.sqrt(grid.weights)
    columns = [stacked_trace_matrix(k, grid, dirs)]
    for l, n in eigen_indices:
        k_n = bessel_zero(l, n) / R
        for m in range(-l, l + 1):
            v_n = k_n * spherical_jn(l, k_n * R, derivative=True) * harmonic_on(grid, l, m)
            columns.append((v_n * sqrt_w)[:, None])
    U, s, _ = np.linalg.svd(np.hstack(columns), full_matrices=False)
    U = U[:, s > s[0] * 1e-8]
    Q, _ = np.linalg.qr(np.column_stack([harmonic_on(grid, l, m) * sqrt_w for l, m in targets]))
    return float(np.linalg.norm(Q - U @ (U.conj().T @ Q), 2))


def complex_trace_spectrum(k, grid, dirs, interior):
    """The trace spectrum factored in complex arithmetic over every direction:
    the thin Q of the pivoted QR of the stacked trace matrix, cut by the
    library's rank rule (the definition of the indicator, not under test),
    and the singular values of its retained boundary rows."""
    Q, R, _ = la.qr(stacked_trace_matrix(k, grid, dirs, interior), mode="economic", pivoting=True)
    cutoff = _rank_cutoff(np.abs(np.diag(R)))
    return la.svd(Q[: grid.n_nodes, :cutoff], compute_uv=False)


def orbit_points(interior, n):
    """The (P, 3) points rotated about z by 2 pi t / n for t = 0, ..., n - 1,
    by explicit rotation matrices: n P points, one rotation after another.
    The trace oracle's interior block."""
    rotations = [
        np.array([[math.cos(a), -math.sin(a), 0.0], [math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]])
        for a in 2 * np.pi * np.arange(n) / n
    ]
    return np.vstack([interior @ rot.T for rot in rotations])


def exp_entries(k, grid, dirs, interior):
    """The stacked trace matrix as the indicator factors it, by complex
    exponentials: one column pair sqrt(2 w) cos, sqrt(2 w) sin per
    antipodal direction pair, the real and imaginary parts of
    stacked_trace_matrix on the half grid."""
    return stacked_trace_matrix(k, grid, _antipodal_half(dirs), interior).view(float)


def library_entries(k, grid, dirs, interior):
    """The same real stacked matrix with the library's own entries: each
    block from herglotz._real_columns at the row weights of
    stacked_trace_matrix, stacked by a copy. A reference built on these
    checks the steps that follow the assembly, not its arithmetic."""
    half = _antipodal_half(dirs)
    blocks = [(grid.nodes, np.sqrt(grid.weights)[:, None]), (interior, np.sqrt(grid.area / len(interior)))]
    return np.vstack([_real_columns(k, points, weight, half.directions, half.weights) for points, weight in blocks])


def compressed_trace_matrix(k, grid, dirs, interior, entries):
    """The real trace matrix (entries: exp_entries or library_entries) with
    each block replaced by the R factor of its own QR, min(N, M) + min(P, M)
    rows for M columns, written with scipy's mode="raw". Returns (matrix,
    number of boundary rows)."""
    A = entries(k, grid, dirs, interior)
    R_B, R_I = (la.qr(rows, mode="raw")[1] for rows in (A[: grid.n_nodes], A[grid.n_nodes :]))
    return np.vstack([R_B, R_I]), len(R_B)


def thin_q_reference(A, n_boundary):
    """The indicator's spectrum written out step by step on one matrix: the
    thin Q of the pivoted QR of A, then a dense SVD of its retained first
    n_boundary rows. On the compressed matrix these are the whole-matrix
    route's own steps. Returns (cutoff, singular values)."""
    Q, R, _ = la.qr(A, mode="economic", pivoting=True)
    cutoff = _rank_cutoff(np.abs(np.diag(R)))
    return cutoff, la.svd(Q[:n_boundary, :cutoff], compute_uv=False)


def _sector(points, n):
    """The azimuthal sector t of each point: its azimuth in [2 pi t / n, 2 pi (t + 1) / n)."""
    phi = np.mod(np.arctan2(points[:, 1], points[:, 0]), 2 * np.pi)
    return np.floor(phi * n / (2 * np.pi) + 1e-9).astype(int) % n


def sector_blocks(k, grid, dirs, orbit, n, entries):
    """The stacked real trace matrix on the orbit of some interior points
    (orbit_points), for a surface and a direction grid invariant under the
    rotation by 2 pi / n, as its boundary and interior blocks of shape (n,
    rows per sector, columns), from the whole matrix (entries: exp_entries
    or library_entries): the boundary rows sorted by sector, each in grid
    order, against the column pairs of the half grid's sector 0."""
    X = entries(k, grid, dirs, orbit)
    rows = np.concatenate([np.argsort(_sector(grid.nodes, n), kind="stable"), np.arange(grid.n_nodes, len(X))])
    X = X[np.ix_(rows, np.repeat(_sector(_antipodal_half(dirs).directions, n) == 0, 2))]
    return [block.reshape(n, -1, X.shape[1]) for block in np.split(X, [grid.n_nodes])]


def dft_modes(blocks):
    """The blocks of sector_blocks by azimuthal mode: for p = 0, ..., n // 2
    the pair sum_t e^{-2 pi i p t / n} X_t, by an explicit DFT matrix
    product; modes 0 and n / 2 are real arrays."""
    n = len(blocks[0])
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n // 2 + 1), np.arange(n)) / n)
    modes = [[np.tensordot(row, block, axes=1) for block in blocks] for row in dft]
    return [[block.real for block in pair] if 2 * p % n == 0 else pair for p, pair in enumerate(modes)]


def mode_spectrum(modes, compress=True):
    """The trace spectrum from the (boundary, interior) pairs of each
    azimuthal mode (dft_modes), written out mode by mode: with compress,
    each block by the R factor of its own QR (mode="raw"); the thin Q of
    the pivoted QR of the mode's stacked blocks; one cut over every mode,
    the R-diagonal entries above DEFAULT_QR_RTOL of the largest; and the
    singular values of each mode's retained boundary rows, twice for a
    complex mode (its conjugate's are the same)."""
    factors = []
    for B, I in modes:
        if compress:
            B, I = (la.qr(block, mode="raw")[1] for block in (B, I))
        Q, R, _ = la.qr(np.vstack([B, I]), mode="economic", pivoting=True)
        factors.append((Q[: len(B)], np.abs(np.diag(R)), 1 if np.isrealobj(B) else 2))
    top = max(diag[0] for _, diag, _ in factors)
    s = [
        np.tile(la.svd(Q_B[:, :kept], compute_uv=False), copies)
        for Q_B, diag, copies in factors
        if (kept := int((diag > DEFAULT_QR_RTOL * top).sum()))
    ]
    return np.sort(np.concatenate(s))[::-1]


def complex_basis_compression(grid, band_limit, A):
    """Q_c^H A Q_c with Q_c the orthonormalized (in surface weights) complex
    harmonics Y_lm, l <= band_limit: the single-layer compression in the
    complex basis, formed by complex matrix products."""
    _, theta, phi = _spherical_coords(grid.nodes)
    Y = np.array(
        [sph_harm(HarmonicIndex(l, m), theta, phi) for l in range(band_limit + 1) for m in range(-l, l + 1)]
    ).T
    Q, _ = np.linalg.qr(Y * np.sqrt(grid.weights)[:, None])
    return Q.conj().T @ (A @ Q)
