"""Plane-wave trace matrices, the trace oracle's spectrum, and trace-span fitting.

A Herglotz wave with square-integrable density h on the direction sphere,

    w(x) = integral_{S^2} h(beta) e^{i k beta . x} dbeta,

is an entire solution of the Helmholtz equation. Discretely, with a
DirectionGrid {beta_j, w_j},

    w(x) ~= sum_j w_j h_j e^{i k beta_j . x}.

The weighted trace matrix A[m, j] = sqrt(sigma_m) e^{i k beta_j . s_m}
sqrt(w_j) realizes the map h -> w|_S between discrete weighted L^2 spaces,
so its singular values approximate those of the continuous trace operator
independently of the grids (up to quadrature error). Fitting a target
surface function against the columns of A, truncated by the spectrum's own
rank rule (singular values above DEFAULT_QR_RTOL of the leading one),
measures its distance to the closure of the plane-wave trace span: the
relative residual is 1 exactly when the target is orthogonal to every
trace, the signature of a lost (rank-collapsed) direction.

The raw smallest singular value of A cannot serve as a completeness
indicator: the trace operator is compact, so any fine discretization has
tiny singular values at every k. The trace oracle, make_trace_spectrum,
stacks A on an interior block: the same plane waves at P seeded points
inside S and at their rotations about z by 2 pi t / n (the orbit of the
points, n P in all), with one row weight sqrt(area(S) / (n P)). Its
spectrum is the singular values of the boundary rows of the stack's
orthonormal factor: the sines of the principal angles between its column
space and functions supported off the boundary, the smallest being the
indicator. Near an interior Dirichlet eigenvalue some plane-wave
combination is O(1) inside but vanishes on S (on the ball, h = Y_lm gives
w = 4 pi i^l j_l(kr) Y_lm with j_l(kR) = 0), driving the indicator toward
zero; away from the spectrum it stays O(1). A sine of 1 to rounding marks
a retained direction the interior points cannot see: the indicator is
then ill-posed.

The columns are real. e^{-i k beta . x} is the complex conjugate
of e^{i k beta . x}, so on an antipodally symmetric direction grid (a
product grid with even n_phi) the columns of beta and -beta span what
cos(k beta . x) and sin(k beta . x) span, with the same singular values.
One assembler, _real_columns, writes those real columns on one direction
of each pair for the sweep, fit_trace and verify alike. It forms both
from one tangent of the half phase, so the entries, and the bytes of
every trace artifact, depend on numpy's float64 tan dispatch (vectorized
on AVX-512, libm elsewhere) as they do on the BLAS kernel.

The group order n is the gcd of the surface's and the direction grid's
rotation orders (surface._rotation_order: n_phi, and for a star also the
|m| of every term), and 1 on custom grids and for a direction grid of odd
n_theta, whose antipodal half keeps half of its equator ring. The surface,
the half direction grid and the orbit are then invariant under the
rotation by 2 pi / n, so with rows and columns listed sector by sector
(surface._orbit) the stacked matrix is block-circulant: the rows of
sector t against the columns of sector u depend on t - u alone. An
evaluation assembles only the first direction sector's columns against
every row, (N + n P) x M / n for M real columns, and a real FFT over the
sectors (numpy's rfft) turns them into the n // 2 + 1 blocks of the
block-diagonalized matrix, one per azimuthal mode p (Allgower, Boehmer,
Georg & Miranda 1992). Modes 0 and n / 2 are real and factored in real
arithmetic; the others are complex, and the conjugate mode n - p has the
same spectrum, which counts twice. At n = 1 the one mode is the whole
matrix, and the route is the whole-matrix one.

Each mode's two blocks, column-major, are reduced to the R factors of
their own QRs (geqrf), at most M / n x M / n each. [B; I] = diag(Q_B,
Q_I) [R_B; R_I] with orthonormal diag(Q_B, Q_I), so [R_B; R_I] keeps the
Gram matrix, pivoted R, retained rank and principal angles of [B; I],
which is never formed; only the rounding differs. The column-pivoted QR
(geqp3) of that stack forms its thin Q. One rank rule holds over every
mode: the retained columns are the R-diagonal entries above
DEFAULT_QR_RTOL of the largest leading one of all modes. A dense SVD of
each mode's retained columns' boundary rows gives its spectrum, and the
trace spectrum is their sorted union. Each step calls scipy's wrapper of
its LAPACK routine directly (_lapack), with the workspace that
scipy.linalg.qr and svd would give it, queried once per shape: the
routine sees what those functions would pass it, without their Python,
which holds the GIL, around every call. geqrf, geqp3 and orgqr release
the GIL while they work; scipy's gesdd holds it (one BLAS thread, two
threads each repeating one call: a 576 x 12 complex geqrf runs 1.3x,
a 12 x 12 complex gesdd 0.84x). On one BLAS thread, as in a sweep, this
fixed sequence of LAPACK calls reproduces the values byte for byte with
the same BLAS library and kernel and the same numpy tan dispatch, given
the interior points.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg as la

from .surface import (
    DirectionGrid,
    SurfaceGrid,
    _orbit,
    _rotation_order,
    _rotations,
    _spherical_coords,
    surface_radius,
)

__all__ = [
    "IllPosedIndicatorError",
    "fit_trace",
    "make_trace_spectrum",
    "seed_interior_points",
]

# Columns whose R-diagonal falls below ~1e-8 of the leading one carry
# directions that double-precision entry noise (1e-16) can only determine
# to ~1e-8; retaining them injects irreproducibility without adding signal.
DEFAULT_QR_RTOL = 1e-8
# A retained direction whose sine is this close to 1 is invisible to the
# interior block (300 copies of one point: 108 of 109 sines); sound problems
# stay below 1 - 1e-8 (1 - 1.3e-5 over the 71-sample ball sweep).
_BLIND_SINE_TOL = 1e-12
# Criterion 3's bound: a fit whose residual is within this of 1 has no
# density above rounding (fit_trace).
_ORTHOGONAL_TOL = 1e-6
# Interior points stay within this fraction of the local surface radius.
_INTERIOR_RADIUS_FRACTION = 0.95


class IllPosedIndicatorError(RuntimeError):
    """Interior block too thin to pin down the retained column space."""


def _check_wavenumber(k: float) -> float:
    k = float(k)
    if not np.isfinite(k) or k <= 0:
        raise ValueError(f"wavenumber k must be positive, got {k}")
    return k


def _real_columns(k: float, points: np.ndarray, row_weight, directions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The plane waves at (P, 3) points as real column pairs, P x 2M for M
    directions of weights w_j: row_weight * cos(k beta_j . x_m) sqrt(w_j),
    then the same with sin; column-major so that LAPACK factors them in
    place, without a copy.

    Both come from one tangent of the half phase, t = tan(phase / 2), the
    phase being points @ directions.T times k: cos = 2 u - 1 and sin =
    2 t u, u = 1 / (1 + t^2). They are within 2 eps = 4.4e-16 of the exact
    values at the float phase (measured 3.3e-16 for cos, near 1, and
    2.6e-16 for sin; libm's cos and sin 0.56e-16), at a third of the cost
    where numpy's tan is vectorized and its cos and sin are not. Each pass
    runs along X's columns, the rows of its (2M, P) transpose."""
    P, M = len(points), len(weights)
    X = np.empty((P, 2 * M), order="F")
    cos, sin = X.T[0::2], X.T[1::2]
    # halving the phase is exact
    t = np.multiply((points @ directions.T).T, 0.5 * k, out=sin)
    np.tan(t, out=t)
    np.multiply(t, t, out=cos)
    cos += 1
    np.divide(2.0, cos, out=cos)
    np.multiply(t, cos, out=sin)
    cos -= 1
    np.multiply(X.T, np.transpose(row_weight), out=X.T)
    pairs = X.T.reshape(M, 2, P)
    np.multiply(pairs, np.sqrt(weights)[:, None, None], out=pairs)
    return X


def _trace_columns(k: float, grid: SurfaceGrid, dirs: DirectionGrid) -> np.ndarray:
    """The weighted trace matrix at k in real arithmetic, N x M: the
    boundary's cos/sin column pairs, rows weighted by sqrt(sigma_m), on one
    direction of each antipodal pair of an antipodally symmetric grid."""
    half = _antipodal_half(dirs)
    k = _check_wavenumber(k)
    return _real_columns(k, grid.nodes, np.sqrt(grid.weights)[:, None], half.directions, half.weights)


def seed_interior_points(grid: SurfaceGrid, count: int, seed: int) -> np.ndarray:
    """Seeded quasi-uniform points strictly inside the surface.

    Directions are isotropic, normalized standard Gaussian triples; radii
    scale as u^(1/3) of 0.95 times the local surface radius, so the cloud
    fills the volume and stays strictly interior.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    u = rng.random(count)
    theta = np.arccos(np.clip(v[:, 2], -1.0, 1.0))
    phi = np.arctan2(v[:, 1], v[:, 0])
    rho, _, _ = surface_radius(grid.descriptor, theta, phi)
    return v * (_INTERIOR_RADIUS_FRACTION * rho * np.cbrt(u))[:, None]


def _check_interior(grid: SurfaceGrid, interior) -> np.ndarray:
    """The points as a (P, 3) array; ValueError unless each is finite and
    inside the surface: inside its radius function on a sphere or star grid,
    else inside the ball through its farthest node."""
    interior = np.atleast_2d(np.asarray(interior, dtype=float))
    if interior.shape[1] != 3:
        raise ValueError("interior points must have shape (P, 3)")
    if not np.isfinite(interior).all():
        raise ValueError("interior points must be finite")
    r, theta, phi = _spherical_coords(interior)
    if grid.descriptor.get("kind") in ("sphere", "star"):
        bound = surface_radius(grid.descriptor, theta, phi)[0] * (1 - 1e-9)
    else:
        bound = np.linalg.norm(grid.nodes, axis=1).max()
    if not np.all(r < bound):
        raise ValueError("interior point on or outside the surface")
    return interior


@functools.cache
def _routine(name: str, dtype: np.dtype):
    """scipy's f2py wrapper of the LAPACK routine name for dtype (orgqr is
    ungqr for a complex dtype)."""
    return la.get_lapack_funcs(name, dtype=dtype)


# Optimal workspace sizes by (routine, dtype, shape), one query each: the
# trace spectrum's mode shapes are the same at every k. Threads that miss
# at once store the same value.
_LWORK: dict[tuple[str, np.dtype, tuple[int, ...]], int] = {}


def _lapack(name: str, a: np.ndarray, *args, **kwargs) -> list:
    """LAPACK's name (geqrf, geqp3, orgqr or gesdd) on a and args, with the
    workspace the scipy.linalg wrappers give it: for the QR routines the
    lwork = -1 query of their safecall, for gesdd the gesdd_lwork rule of
    svd (full_matrices=1, compute_uv=0, the one gesdd call made here).
    Returns the outputs before info; an illegal argument (info < 0) raises
    ValueError naming the routine, and an SVD that does not converge
    (info > 0) LinAlgError."""
    routine = _routine(name, a.dtype)
    key = (name, a.dtype, a.shape)
    if key not in _LWORK:
        if name == "gesdd":
            work = _routine("gesdd_lwork", a.dtype)(*a.shape, compute_uv=0, full_matrices=1)[0]
        else:
            work = routine(a, *args, lwork=-1)[-2][0]
        _LWORK[key] = int(work.real)
    *out, info = routine(a, *args, lwork=_LWORK[key], **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {name}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{name} did not converge")
    return out


def _rank_cutoff(diag: np.ndarray) -> int:
    """Retained column count: the pivoted R-diagonal entries above
    DEFAULT_QR_RTOL of the leading one, 0 if that one is not positive.

    The threshold may cut inside a degree band of the trace spectrum; a
    few columns more or fewer move no dip and no multiplicity."""
    if diag[0] <= 0:
        return 0
    return int((diag / diag[0] > DEFAULT_QR_RTOL).sum())


def _antipodal_half(dirs: DirectionGrid) -> DirectionGrid:
    """One direction of each antipodal pair (beta, -beta), at twice its weight.

    On the half grid, the real columns sqrt(2 w) cos(k beta . x) and
    sqrt(2 w) sin(k beta . x) are the complex columns of beta and -beta,
    sqrt(w) e^{+-i k beta . x}, mixed by a unitary 2x2 matrix.
    """
    D, w = dirs.directions, dirs.weights
    partner = np.argmin(D @ D.T, axis=1)
    if np.abs(D[partner] + D).max() > 1e-12 or np.any(np.abs(w[partner] - w) > 1e-12 * w):
        raise ValueError(
            "real plane-wave columns need an antipodally symmetric direction grid "
            "(each beta paired with -beta at an equal weight; a product grid needs an even n_phi)"
        )
    keep = np.arange(len(w)) < partner
    return DirectionGrid(directions=D[keep], weights=2 * w[keep])


def _group_order(grid: SurfaceGrid, dirs: DirectionGrid) -> int:
    """The order n of the rotation group about z that the trace oracle
    block-diagonalizes over: the gcd of the surface's and the direction
    grid's _rotation_order, or 1 if the direction grid has an odd n_theta,
    whose antipodal half keeps half of its equator ring."""
    if dirs.descriptor.get("n_theta", 0) % 2:
        return 1
    return math.gcd(_rotation_order(grid.descriptor), _rotation_order(dirs.descriptor))


def make_trace_spectrum(grid: SurfaceGrid, dirs: DirectionGrid, interior):
    """Callable k -> singular values (descending) of the boundary rows of the
    orthonormal factor of [boundary; interior]: sines of principal angles,
    each below 1; the last one is the indicator.

    The interior block is the orbit of the P given points under the
    rotations by 2 pi t / n about z, n the grids' _group_order (at n = 1,
    as on custom grids, the points themselves): n P rows, each of weight
    sqrt(area(S) / (n P)), so that the squared weights still sum to the
    area. The stacked matrix is then block-circulant over the n azimuthal
    sectors. An evaluation assembles the first direction sector's columns
    against every row, takes their rfft over the sectors, and factors the
    n // 2 + 1 mode blocks one by one: modes 0 and n / 2 are real and
    factored as such, a complex mode's spectrum counts twice (its conjugate
    mode's is the same). One rank rule cuts every mode, against the largest
    leading R-diagonal entry of all; the spectrum is the sorted union, and
    the zero-rank and blind-sine errors apply to it.

    The direction grid must be antipodally symmetric and the interior points,
    of shape (P, 3), finite and inside the surface (ValueError here, before
    any evaluation); a grid with no radius function is only checked against
    the ball through its farthest node, so on a non-convex custom surface
    the caller must supply points inside it. A sphere or star grid whose
    sectors are not rotated copies of its first is refused
    (UnsupportedSurfaceError, from _orbit). An evaluation raises
    IllPosedIndicatorError if it retains no column, or if a retained
    direction's sine is within _BLIND_SINE_TOL of 1.
    """
    interior = _check_interior(grid, interior)
    half = _antipodal_half(dirs)
    n = _group_order(grid, dirs)
    nodes, directions = np.arange(grid.n_nodes), np.arange(half.n_directions)
    if n > 1:
        # the half of an even-n_theta product grid is its first n_theta / 2
        # rows, so it keeps the sectors of the whole grid
        nodes, directions = _orbit(grid, n)[1], _orbit(dirs, n)[1]
        directions = directions[directions < half.n_directions]
    sector = directions[: half.n_directions // n]
    columns = half.directions[sector], half.weights[sector]
    width = 2 * len(sector)
    upper = np.triu(np.ones((width, width), dtype=bool))
    orbit = _rotations(interior, n).reshape(-1, 3)
    blocks = (
        (grid.nodes[nodes], np.sqrt(grid.weights[nodes])[:, None]),
        (orbit, np.sqrt(grid.area / len(orbit))),
    )

    # modes 0 and n / 2 are real; mode p and its conjugate n - p share one
    # spectrum, which counts twice
    real = [2 * p % n == 0 for p in range(n // 2 + 1)]

    # each mode's two R factors, stacked: the boundary's min(N / n, M / n)
    # rows over the interior's min(P, M / n), zero below their diagonals
    heights = [min(len(points) // n, width) for points, _ in blocks]
    tops = (0, heights[0])

    def factor_block(k: float, points: np.ndarray, row_weight, top: int, rows: int, stacks: list) -> None:
        # one block's rows, sector after sector, against the first sector's
        # columns, transformed over the sectors (over one sector the
        # transform is the identity, and the block is factored in place):
        # each mode's R factor, written into the mode's stack at row top; a
        # block shorter than wide passes as its own trapezoid
        X = _real_columns(k, points, row_weight, *columns).reshape(len(points) // n, n, -1, order="F")
        if n > 1:
            X = np.fft.rfft(X, axis=1)
        for p, stack in enumerate(stacks):
            QR = _lapack("geqrf", X[:, p].real if real[p] else X[:, p], overwrite_a=1)[0]
            np.copyto(stack[top : top + rows], QR[:rows], where=upper[:rows])

    def singular_values(k: float) -> np.ndarray:
        k = _check_wavenumber(k)
        stacks = [np.zeros((sum(heights), width), float if r else complex, order="F") for r in real]
        for block, top, rows in zip(blocks, tops, heights):
            factor_block(k, *block, top, rows, stacks)
        factors = []
        for stack, self_conjugate in zip(stacks, real):
            QR, _, tau, _ = _lapack("geqp3", np.asarray_chkfinite(stack), overwrite_a=1)
            diag = np.abs(np.diagonal(QR))
            # the thin Q, written over QR; its boundary rows come first
            Q, _ = _lapack("orgqr", QR[:, : len(QR)], tau, overwrite_a=1)
            factors.append((Q[: heights[0]], diag, 1 if self_conjugate else 2))
        # one rank rule over every mode, on their R-diagonals pooled: the
        # entries above DEFAULT_QR_RTOL of the largest leading one; each mode
        # keeps its entries down to the last one counted
        pooled = np.sort(np.concatenate([diag for _, diag, _ in factors]))[::-1]
        cutoff = _rank_cutoff(pooled)
        if cutoff == 0:
            raise IllPosedIndicatorError("trace matrix is numerically zero")
        last = pooled[:cutoff][-1]
        values = []
        for Q_B, diag, copies in factors:
            if kept := int((diag >= last).sum()):
                values += [_lapack("gesdd", np.asarray_chkfinite(Q_B[:, :kept]), compute_uv=0)[1]] * copies
        s = np.sort(np.concatenate(values))[::-1]
        blind = int((1 - s <= _BLIND_SINE_TOL).sum())
        if blind:
            raise IllPosedIndicatorError(
                f"the {len(orbit)} interior points cannot see {blind} of the {len(s)} retained directions"
            )
        return s

    return singular_values


def _project_onto_span(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Truncated projection of the real right-hand sides B onto the column
    span of the real matrix A: the singular triplets (u, s, v) of A with s
    above DEFAULT_QR_RTOL of the leading one, the trace spectrum's rank
    rule. Returns the remainder B - U (U^T B), formed directly (a
    difference of squared norms has a floor of sqrt(eps)), and the
    minimum-norm coefficients V (U^T B / s)."""
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    keep = s > DEFAULT_QR_RTOL * s[0]
    c = U[:, keep].T @ B
    return B - U[:, keep] @ c, Vh[keep].T @ (c / s[keep, None])


def fit_trace(k: float, grid: SurfaceGrid, target, dirs: DirectionGrid):
    """Least-squares fit of a surface target by plane-wave traces.

    Projects the weighted target target*sqrt(sigma) onto the truncated
    span of the weighted trace matrix A (_project_onto_span) and returns
    (relative residual, density norm), the norm being the discrete
    L^2(S^2) norm sqrt(sum_j w_j |h_j|^2) of the minimum-norm density h. A
    relative residual of 1 means the target is orthogonal to the whole
    trace span -- totality failed in that direction. The cutoff holds that
    on coarse grids: at 1e-14 a trace column would fit to 6.5e-15, not
    2.4e-9, but on fit's default grids Y_00 at k = 3.14159265358979 would
    read 1 - 2.6e-5, rounding mixing it into the kept singular vectors.

    The density norm is None when the residual is within _ORTHOGONAL_TOL
    of 1, as for a target orthogonal to the span (Y_00 at k = pi) or with
    its density past the cutoff (Y_91 at k = 1). At most 1.4e-3 of the
    target is then in the span, and the rest's rounding outweighs its
    density: at k = pi, Y_00 puts 1.6e-3 into the norm, 1.4e-3 Y_10 only
    3.5e-4 (30x60 sphere, 12x24 directions).

    A is the sweep's real trace matrix, so dirs must be antipodally
    symmetric: a unitary 2x2 per antipodal pair keeps the residual and the
    density norm those of the complex fit over every direction.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (grid.n_nodes,):
        raise ValueError("target length does not match grid")
    if not np.all(np.isfinite(target)):
        raise ValueError("target must be finite")
    b = target * np.sqrt(grid.weights)
    b_norm = np.linalg.norm(b)
    if b_norm == 0:
        raise ValueError("zero target: relative residual undefined")
    remainder, h = _project_onto_span(_trace_columns(k, grid, dirs), np.column_stack([b.real, b.imag]))
    residual = float(np.linalg.norm(remainder) / b_norm)
    if abs(residual - 1) <= _ORTHOGONAL_TOL:
        return residual, None
    # the sqrt(w_j) column weights and the unitary 2x2s keep the L^2(S^2) norm
    return residual, float(np.linalg.norm(h))
