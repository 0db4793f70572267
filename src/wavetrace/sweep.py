"""Completeness indicator of the plane-wave trace family as a function of k.

The raw smallest singular value of the trace matrix cannot serve as the
indicator: the continuous trace operator is compact, so any fine
discretization has tiny singular values at every k. Instead the stacked
matrix [boundary block; interior block] is orthonormalized by a pivoted
QR, and the indicator is the smallest singular value of the boundary rows
of the orthonormal factor -- the sine of the smallest principal angle
between the stacked-coordinate space and functions supported off the
boundary. Near an interior Dirichlet eigenvalue some plane-wave
combination is O(1) inside the domain but vanishes on the surface (on the
ball, h = Y_lm gives w = 4 pi i^l j_l(kr) Y_lm with j_l(kR) = 0), driving
the indicator toward zero; away from the spectrum it stays O(1).

Every step is real Householder arithmetic. The direction grid is
antipodally symmetric, and the columns of beta and -beta are complex
conjugates, so the pair spans what its real cos and sin columns span; the
stacked matrix is assembled on one direction of each pair and read as
those real columns (a unitary mix of the complex ones: same singular
values, same column space). Each block is first reduced to the R factor
of its own QR (geqrf), at most M x M for M real columns. Since
[B; I] = diag(Q_B, Q_I) [R_B; R_I] and diag(Q_B, Q_I) has orthonormal
columns, the stacked factors [R_B; R_I] have the Gram matrix of [B; I]
and of each block, so they keep its pivoted R, retained rank and
principal angles; only the rounding differs. The column-pivoted QR
(geqp3) of that stack, at most 2M x M, forms its thin Q, and the
retained rank counts the diagonal entries of R above DEFAULT_QR_RTOL of
the leading one. The indicator's spectrum is then the singular values of
the retained columns' boundary rows, the first min(N, M), taken by a
dense SVD of at most M x rank. The QRs run in LAPACK calls that release
the GIL; only that small SVD holds it. The steps are a fixed sequence of
LAPACK calls, run on one BLAS thread in a sweep, so for a fixed BLAS
library the values, and the artifacts built from them, stay reproducible
byte for byte.

Both eigenvalue oracles share one spectrum protocol: a callable k -> the
singular values of a k-dependent matrix, descending as the SVD returns
them, whose last entry is the indicator (boundary_subspace_singular_values
with its grid, directions and interior points bound here;
make_single_layer_spectrum in spectra). find_dips takes any such spectrum
through one path: sample it over k, flag dips scale-free against the
median of the last entries, refine each by a safeguarded parabolic search
on the squared indicator seeded with the sampled minimum and its two neighbours,
whose spectra the sweep kept, and classify it by the largest gap among the
collapsed values of the spectrum the search evaluated at k*. No k is
evaluated twice. Trace sweeps are deterministic given the interior points.

The sweep layer owns the machine's parallelism: while sweep_k, refine_dip
and find_dips run, the OpenBLAS builds bundled with numpy and scipy are
pinned to one thread, and find_dips samples, then refines and classifies,
on pools of `threads` workers. Each evaluation therefore runs the same
single-threaded arithmetic whatever the pool size or OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as la

from .herglotz import assemble_trace_matrix
from .surface import DirectionGrid, SurfaceGrid, _random_unit_vectors, _spherical_coords, surface_radius

__all__ = [
    "Dip",
    "IllPosedIndicatorError",
    "BracketError",
    "seed_interior_points",
    "boundary_subspace_singular_values",
    "sweep_k",
    "detect_dips",
    "refine_dip",
    "estimate_multiplicity",
    "find_dips",
]

# Columns whose R-diagonal falls below ~1e-8 of the leading one carry
# directions that double-precision entry noise (1e-16) can only determine
# to ~1e-8; retaining them injects irreproducibility without adding signal.
DEFAULT_QR_RTOL = 1e-8
DEFAULT_DEPTH_RATIO = 0.1
DEFAULT_GAP_RATIO = 10.0
DEFAULT_REFINE_TOL = 1e-4
# Interior points stay within this fraction of the local surface radius.
_INTERIOR_RADIUS_FRACTION = 0.95
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS builds bundled in the
    numpy and scipy wheels; empty for any other BLAS."""
    controls = []
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so")):
            lib = ctypes.CDLL(str(path))
            for suffix in ("64_", ""):
                try:
                    get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                    put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


def _blas_threads() -> tuple:
    """Current thread count of each bundled OpenBLAS."""
    return tuple(get() for get, _ in _openblas_thread_controls())


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: tuple = ()


@contextmanager
def _one_blas_thread():
    """Pin every bundled OpenBLAS to one thread; restore the counts on exit.

    The setting is process-wide, so pool workers run under their caller's
    pin. Pins are counted across threads: the first to enter saves the
    counts and sets 1, and the last to leave restores them, so pins that
    nest (pool workers) or overlap (sweeps on two threads) never unpin an
    evaluation that is still running.
    """
    global _pin_depth, _pin_saved
    controls = _openblas_thread_controls()
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = _blas_threads()
            for _, put in controls:
                put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for (_, put), n in zip(controls, _pin_saved):
                    put(n)


def _map(fn, items, threads: int | None) -> list:
    """fn over items with BLAS pinned to one thread, results in item order,
    on a pool of `threads` workers (None: the CPU count)."""
    if threads is None:
        threads = os.cpu_count() or 1
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


class IllPosedIndicatorError(RuntimeError):
    """Interior block too thin to pin down the retained column space."""


class BracketError(RuntimeError):
    """Refinement bracket does not contain an interior minimum."""


@dataclass(frozen=True)
class Dip:
    """One refined rank collapse: location, depth, multiplicity."""

    k: float
    indicator: float
    multiplicity: int


def seed_interior_points(grid: SurfaceGrid, count: int, seed: int) -> np.ndarray:
    """Seeded quasi-uniform points strictly inside the surface.

    Directions are isotropic Gaussian draws; radii scale as u^(1/3) of 0.95
    times the local surface radius, so the cloud fills the volume and stays
    strictly interior.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    v = _random_unit_vectors(rng, count)
    u = rng.random(count)
    theta = np.arccos(np.clip(v[:, 2], -1.0, 1.0))
    phi = np.arctan2(v[:, 1], v[:, 0])
    rho = surface_radius(grid.descriptor, theta, phi)
    return v * (_INTERIOR_RADIUS_FRACTION * rho * np.cbrt(u))[:, None]


def default_interior_count(dirs: DirectionGrid) -> int:
    return max(2 * dirs.n_directions, 500)


def _check_interior(grid: SurfaceGrid, interior: np.ndarray):
    interior = np.atleast_2d(np.asarray(interior, dtype=float))
    if interior.shape[1] != 3:
        raise ValueError("interior points must have shape (P, 3)")
    if grid.descriptor.get("kind") in ("sphere", "star"):
        r, theta, phi = _spherical_coords(interior)
        rho = surface_radius(grid.descriptor, theta, phi)
        if not np.all(r < rho * (1 - 1e-9)):  # a NaN point fails too
            raise ValueError("interior point on or outside the surface")
    return interior


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

    On the half grid, the complex trace column sqrt(2 w) e^{i k beta . x}
    read as two floats is the pair sqrt(2 w) cos, sqrt(2 w) sin: the
    columns of beta and -beta mixed by a unitary 2x2 matrix.
    """
    D, w = dirs.directions, dirs.weights
    partner = np.argmin(D @ D.T, axis=1)
    if np.abs(D[partner] + D).max() > 1e-12 or np.any(np.abs(w[partner] - w) > 1e-12 * w):
        raise ValueError(
            "the trace spectrum needs an antipodally symmetric direction grid "
            "(each beta paired with -beta at an equal weight; a product grid needs an even n_phi)"
        )
    keep = np.arange(len(w)) < partner
    return DirectionGrid(directions=D[keep], weights=2 * w[keep])


def boundary_subspace_singular_values(
    k: float, grid: SurfaceGrid, dirs: DirectionGrid, interior
) -> np.ndarray:
    """Singular values (descending) of the boundary block of the orthonormal
    factor of the stacked trace matrix, sines of principal angles and so
    clipped to at most 1; the last one is the indicator. The direction grid
    must be antipodally symmetric (ValueError otherwise). Interior points
    are checked against the surface only on sphere and star grids; on any
    other grid the caller must supply points inside it.

    The boundary and interior blocks are each reduced to their R factor
    before the rank-revealing pivoted QR, which then factors at most 2M x M
    rows for M real columns instead of N + P; the block QRs have
    orthonormal Q factors, so the principal angles are those of the stacked
    matrix itself, up to rounding. Its thin Q is formed whole, and the SVD
    takes the retained columns' boundary rows, at most M x rank."""
    interior = _check_interior(grid, interior)
    # the real cos/sin columns: the complex matrix over the half grid, no copy
    A = assemble_trace_matrix(k, grid, _antipodal_half(dirs), interior_points=interior).view(float)
    # each block by its R factor, min(rows, M) x M: a block shorter than
    # wide passes through as its own trapezoid
    n = grid.n_nodes
    R_B, R_I = (la.qr(rows, mode="raw", check_finite=False)[1] for rows in (A[:n], A[n:]))
    del A  # factored in copies; freed before the steps below
    Q, R, _ = la.qr(np.vstack([R_B, R_I]), mode="economic", pivoting=True, overwrite_a=True)
    cutoff = _rank_cutoff(np.abs(np.diag(R)))
    if cutoff == 0:
        raise IllPosedIndicatorError("trace matrix is numerically zero")
    if len(interior) < cutoff:
        raise IllPosedIndicatorError(
            f"{len(interior)} interior points cannot control a rank-{cutoff} column space"
        )
    # the boundary rows of the retained columns, now the first len(R_B)
    return np.minimum(la.svd(Q[: len(R_B), :cutoff], compute_uv=False), 1.0)


def sweep_k(spectrum, ks, threads: int | None = None) -> np.ndarray:
    """The indicator, spectrum(k)[-1], on an ascending k-grid.

    Evaluations at distinct k run on a thread pool, one BLAS thread each,
    and merge in k order; they overlap only while they sit in calls that
    release the GIL, as the trace spectrum's tall factorization steps do.
    threads=None sizes the pool to the CPU count; threads=1 evaluates one k
    at a time.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1 or len(ks) < 2 or not np.isfinite(ks).all() or ks[0] <= 0 or np.any(np.diff(ks) <= 0):
        raise ValueError("need at least 2 positive, finite, strictly ascending k samples")
    return np.array(_map(lambda k: spectrum(k)[-1], ks, threads))


def detect_dips(values) -> list[int]:
    """Indices of the sampled dips: samples at or below DEFAULT_DEPTH_RATIO *
    median are flagged, and each run of adjacent flags gives its minimum."""
    vals = np.asarray(values, dtype=float)
    if len(vals) == 0:
        return []
    threshold = DEFAULT_DEPTH_RATIO * float(np.median(vals))
    flagged = vals <= threshold
    dips = []
    i = 0
    while i < len(vals):
        if flagged[i]:
            j = i
            while j + 1 < len(vals) and flagged[j + 1]:
                j += 1
            dips.append(i + int(np.argmin(vals[i : j + 1])))
            i = j + 1
        else:
            i += 1
    return dips


def refine_dip(spectrum, bracket, tol: float = DEFAULT_REFINE_TOL):
    """Refine one dip from three seeds a < k < b: (k*, spectrum(k*)) with k*
    minimizing the indicator, the spectrum's last entry, inside (a, b).

    Near a simple eigenvalue the indicator has a kink, c|k - k*|, but its
    square is locally a parabola, c^2 (k - k*)^2 + sigma_0^2. The search
    minimizes the square by safeguarded successive parabolic interpolation:
    each step goes to the vertex through the bracket's ends and its best
    point, the only evaluated points inside it, unless the vertex leaves the
    bracket or is not shorter than half the step before last; then it
    bisects the larger bracket half (Brent's rule, so kinks terminate). The
    steps stop at the first one shorter than the floating-point floor
    2 sqrt(eps) |k|; then k* +- max(tol/2, floor) are evaluated, and if
    neither is lower the tol-wide bracket is certified, else the search goes
    on from the lower one. k* is the best evaluated point and its spectrum
    the one evaluated there; no k is evaluated twice. The middle seed must
    be strictly lowest, or BracketError is raised.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    lo, x, hi = map(float, bracket)
    if not lo < x < hi:
        raise ValueError(f"need seeds a < k < b, got {tuple(bracket)}")
    seen = {}

    def squared(k):
        seen[k] = spectrum(k)
        return float(seen[k][-1]) ** 2

    with _one_blas_thread():
        f_lo, fx, f_hi = squared(lo), squared(x), squared(hi)
        if not (fx < f_lo and fx < f_hi):
            raise BracketError(f"no interior minimum detected in [{lo}, {hi}]")
        step = before_last = hi - lo
        while True:
            # vertex of the parabola through (lo, x, hi)
            r, q = (x - lo) * (fx - f_hi), (x - hi) * (fx - f_lo)
            u = x - ((x - hi) * q - (x - lo) * r) / (2 * (q - r)) if q > r else np.nan
            if not (lo < u < hi and abs(u - x) < abs(before_last) / 2):
                u = (x + hi) / 2 if hi - x > x - lo else (x + lo) / 2
            before_last, step = step, u - x
            floor = 2 * _SQRT_EPS * abs(x)
            converged = abs(step) < floor
            if converged:
                # the side the vertex lies on first: if it is lower, the other need not be evaluated
                d = math.copysign(max(tol / 2, floor), step)
                trials = [t for t in (x + d, x - d) if lo < t < hi]
            else:
                trials = [u]
            for t in trials:
                ft = squared(t)
                if ft < fx:
                    lo, f_lo, hi, f_hi = (x, fx, hi, f_hi) if t > x else (lo, f_lo, x, fx)
                    x, fx = t, ft
                    break
                lo, f_lo, hi, f_hi = (lo, f_lo, t, ft) if t > x else (t, ft, hi, f_hi)
            else:
                if converged:
                    return x, seen[x]


def estimate_multiplicity(singular_values) -> int:
    """Number of collapsed directions in a refined dip's spectrum, at least 1.

    Among the n singular values below median/DEFAULT_GAP_RATIO, cuts at the
    largest ratio between consecutive sorted values, the first value above
    the threshold included, and counts the values below the cut. A
    neighbouring split eigenvalue's half-collapsed values thus stay out of
    the count; on the ball this recovers the eigenvalue multiplicity 2l+1.
    A refined dip is a collapse by construction, so n = 0 is reported as 1.
    """
    s = np.sort(singular_values)
    n = int((s < np.median(s) / DEFAULT_GAP_RATIO).sum())
    gaps = s[1 : n + 1] / s[: min(n, len(s) - 1)]
    return 1 + int(np.argmax(gaps)) if len(gaps) else 1


def find_dips(spectrum, ks, refine_tol: float = DEFAULT_REFINE_TOL, threads: int | None = None):
    """Sweep, detect, refine and classify: returns (sampled values, dips).

    The sweep keeps every sample's spectrum, and each dip is refined from
    its sampled minimum and the two samples beside it, whose spectra are
    looked up, not evaluated again; a sampled minimum at an end of the
    range has no neighbour beyond it and raises BracketError. The dips are
    refined and classified concurrently on a pool of the same size as the
    sweep's; each keeps its own search sequence, so the results do not
    depend on the pool size. Each is classified from the spectrum its
    refinement evaluated at k*.
    """
    ks = np.asarray(ks, dtype=float)
    evaluated = {}

    def known(k):
        if k not in evaluated:
            evaluated[k] = spectrum(k)
        return evaluated[k]

    def refine_and_classify(j: int) -> Dip:
        if j in (0, len(ks) - 1):
            raise BracketError(f"the sampled minimum k={float(ks[j])} is an end of the sweep range")
        k_star, s = refine_dip(known, ks[j - 1 : j + 2], refine_tol)
        return Dip(k=k_star, indicator=float(s[-1]), multiplicity=estimate_multiplicity(s))

    values = sweep_k(known, ks, threads)
    return values, _map(refine_and_classify, detect_dips(values), threads)
