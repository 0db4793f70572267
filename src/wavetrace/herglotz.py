"""Plane-wave trace matrices and trace-span fitting.

A Herglotz wave with square-integrable density h on the direction sphere,

    w(x) = integral_{S^2} h(beta) e^{i k beta . x} dbeta,

is an entire solution of the Helmholtz equation. Discretely, with a
DirectionGrid {beta_j, w_j},

    w(x) ~= sum_j w_j h_j e^{i k beta_j . x}.

The weighted trace matrix A[m, j] = sqrt(sigma_m) e^{i k beta_j . s_m}
sqrt(w_j) realizes the map h -> w|_S between discrete weighted L^2 spaces,
so its singular values approximate those of the continuous trace operator
independently of the grids (up to quadrature error). Fitting a target
surface function against the columns of A measures its distance to the
closure of the plane-wave trace span: the relative residual is 1 exactly
when the target is orthogonal to every trace, the signature of a lost
(rank-collapsed) direction.

The family is closed under beta -> -beta, and e^{-i k beta . x} is the
complex conjugate of e^{i k beta . x}, so over C it spans what the real
functions cos(k beta . x) and sin(k beta . x) span. On an antipodally
symmetric grid (a product grid with even n_phi) the columns of beta and
-beta are conjugates, and the trace matrix carries only real information:
the completeness indicator in `sweep` factors it as those real columns.
"""

from __future__ import annotations

import numpy as np

from .surface import DirectionGrid, SurfaceGrid

__all__ = [
    "assemble_trace_matrix",
    "fit_trace",
]


def _check_wavenumber(k: float) -> float:
    k = float(k)
    if not np.isfinite(k) or k <= 0:
        raise ValueError(f"wavenumber k must be positive, got {k}")
    return k


def assemble_trace_matrix(
    k: float,
    grid: SurfaceGrid,
    dirs: DirectionGrid,
    interior_points=None,
) -> np.ndarray:
    """Weighted trace matrix at k: N boundary rows, then P interior rows.

    Boundary row m is sqrt(sigma_m) e^{i k beta_j . s_m} sqrt(w_j); the
    optional interior rows carry e^{i k beta_j . x_p} at collocation points
    x_p with one uniform row weight sqrt(area(S)/P), so both blocks are
    commensurate. Each block is computed in place in its rows: cos and sin
    of the phase written straight into the real and imaginary parts.
    """
    k = _check_wavenumber(k)
    blocks = [(grid.nodes, np.sqrt(grid.weights)[:, None])]
    if interior_points is not None:
        pts = np.atleast_2d(np.asarray(interior_points, dtype=float))
        if pts.shape[1] != 3:
            raise ValueError("interior points must have shape (P, 3)")
        blocks.append((pts, np.sqrt(grid.area / len(pts))))
    A = np.empty((sum(len(pts) for pts, _ in blocks), dirs.n_directions), dtype=complex)
    sqrt_w = np.sqrt(dirs.weights)[None, :]
    start = 0
    for pts, row_weight in blocks:
        rows = A[start : start + len(pts)]
        phase = k * (pts @ dirs.directions.T)
        for part, wave in ((rows.real, np.cos), (rows.imag, np.sin)):
            wave(phase, out=part)
            np.multiply(row_weight, part, out=part)
            np.multiply(part, sqrt_w, out=part)
        start += len(pts)
    return A


def fit_trace(
    k: float,
    grid: SurfaceGrid,
    target,
    dirs: DirectionGrid,
    ridge: float | None = None,
):
    """Least-squares fit of a surface target by plane-wave traces.

    Solves min_h ||A h - target*sqrt(sigma)||^2 + ridge*||h||^2 over the
    weighted density coefficients and returns (relative residual, density
    norm), the norm being the discrete L^2(S^2) norm sqrt(sum_j w_j |h_j|^2)
    of the fitted density h. ridge=None applies the default
    1e-12 * ||A||^2; ridge=0 solves by truncated-SVD pseudo-inverse. A
    relative residual of 1 means the target is orthogonal to the whole trace
    span -- totality failed in that direction.
    """
    k = _check_wavenumber(k)
    target = np.asarray(target, dtype=complex)
    if target.shape != (grid.n_nodes,):
        raise ValueError("target length does not match grid")
    if not np.all(np.isfinite(target)):
        raise ValueError("target must be finite")
    if ridge is not None and ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    b = target * np.sqrt(grid.weights)
    b_norm = np.linalg.norm(b)
    if b_norm == 0:
        raise ValueError("zero target: relative residual undefined")
    A = assemble_trace_matrix(k, grid, dirs)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    c = U.conj().T @ b
    if ridge is None:
        ridge = 1e-12 * s[0] ** 2
    if ridge == 0:
        keep = s > s[0] * 1e-14
        h_weighted = Vh[keep].conj().T @ (c[keep] / s[keep])
    else:
        h_weighted = Vh.conj().T @ (s / (s * s + ridge) * c)
    residual = float(np.linalg.norm(A @ h_weighted - b) / b_norm)
    # matrix unknowns are sqrt(w_j) h_j; undo the column weighting
    h = h_weighted / np.sqrt(dirs.weights)
    return residual, float(np.sqrt(np.sum(dirs.weights * np.abs(h) ** 2)))
