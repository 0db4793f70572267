"""The spectrum protocol and the one sweep -> detect -> refine -> classify path.

Both eigenvalue oracles share one spectrum protocol: a callable k -> the
singular values of a k-dependent matrix, descending as the SVD returns
them, whose last entry is the indicator (make_trace_spectrum in herglotz,
make_single_layer_spectrum in spectra). find_dips takes any such spectrum
through one path: sample it over k, flag dips scale-free against the
median of the last entries, refine each to a certified bracket
DEFAULT_REFINE_TOL wide by a safeguarded parabolic search on the squared
indicator seeded with the sampled minimum and its two neighbours, whose
spectra the sweep kept, and classify it by the largest gap among the
collapsed values of the spectrum the search evaluated at k*. No k is
evaluated twice. This layer knows no oracle and no geometry.

The sweep layer owns the machine's parallelism. _one_blas_thread pins the
OpenBLAS builds bundled with numpy and scipy to one thread: the CLI runs
every subcommand under it, and sweep_k, refine_dip and find_dips take it
too when called as a library. _map is the one place a pool is sized: one
worker per CPU. find_dips samples, then refines and classifies, on such
pools, as do the single-layer oracle's builds and verify's default suite.
Each evaluation or check therefore runs the same single-threaded
arithmetic whatever the pool size or OPENBLAS_NUM_THREADS.
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

__all__ = [
    "Dip",
    "BracketError",
    "sweep_k",
    "detect_dips",
    "refine_dip",
    "estimate_multiplicity",
    "find_dips",
]

DEFAULT_DEPTH_RATIO = 0.1
DEFAULT_GAP_RATIO = 10.0
DEFAULT_REFINE_TOL = 1e-4
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


def _map(fn, items) -> list:
    """fn over items with BLAS pinned to one thread, results in item order,
    on a pool of one worker per CPU."""
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        return list(pool.map(fn, items))


class BracketError(RuntimeError):
    """Refinement bracket does not contain an interior minimum."""


@dataclass(frozen=True)
class Dip:
    """One refined rank collapse: location, depth, multiplicity."""

    k: float
    indicator: float
    multiplicity: int


def sweep_k(spectrum, ks) -> np.ndarray:
    """The indicator, spectrum(k)[-1], on an ascending k-grid.

    Evaluations at distinct k run on a pool of one worker per CPU, one BLAS
    thread each, and merge in k order; they overlap only while they sit in
    calls that release the GIL, as the trace spectrum's QRs do; its SVDs,
    scipy's gesdd, hold it.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1 or len(ks) < 2 or not np.isfinite(ks).all() or ks[0] <= 0 or np.any(np.diff(ks) <= 0):
        raise ValueError("need at least 2 positive, finite, strictly ascending k samples")
    return np.array(_map(lambda k: spectrum(k)[-1], ks))


def detect_dips(values) -> list[int]:
    """Indices of the sampled dips: samples at or below DEFAULT_DEPTH_RATIO *
    median are flagged, and each run of adjacent flags gives its minimum,
    the first on ties."""
    vals = np.asarray(values, dtype=float)
    if len(vals) == 0:
        return []
    flagged = np.flatnonzero(vals <= DEFAULT_DEPTH_RATIO * float(np.median(vals)))
    runs = np.split(flagged, np.flatnonzero(np.diff(flagged) > 1) + 1)
    return [int(run[np.argmin(vals[run])]) for run in runs if len(run)]


def refine_dip(spectrum, bracket, tol: float):
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
    the one evaluated there; the evaluations are cached (functools.cache),
    so no k is evaluated twice. The middle seed must
    be strictly lowest, or BracketError is raised.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    lo, x, hi = map(float, bracket)
    if not lo < x < hi:
        raise ValueError(f"need seeds a < k < b, got {tuple(bracket)}")
    spectrum = functools.cache(spectrum)

    def squared(k):
        return float(spectrum(k)[-1]) ** 2

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
                    return x, spectrum(x)


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


def find_dips(spectrum, ks):
    """Sweep, detect, refine and classify: returns (sampled values, dips).

    The sweep keeps every sample's spectrum in a functools.cache, and each
    dip is refined from its sampled minimum and the two samples beside it,
    whose spectra are looked up, not evaluated again, to a certified
    bracket DEFAULT_REFINE_TOL wide: a constant, like the depth and gap
    rules. A sampled minimum at an
    end of the range has no neighbour beyond it and raises BracketError.
    The dips are refined and classified concurrently on a pool like the
    sweep's; each keeps its own search sequence, so the results do not
    depend on the pool size. Each is classified from the spectrum its
    refinement evaluated at k*.
    """
    ks = np.asarray(ks, dtype=float)
    known = functools.cache(spectrum)

    def refine_and_classify(j: int) -> Dip:
        if j in (0, len(ks) - 1):
            raise BracketError(f"the sampled minimum k={float(ks[j])} is an end of the sweep range")
        k_star, s = refine_dip(known, ks[j - 1 : j + 2], DEFAULT_REFINE_TOL)
        return Dip(k=k_star, indicator=float(s[-1]), multiplicity=estimate_multiplicity(s))

    values = sweep_k(known, ks)
    return values, _map(refine_and_classify, detect_dips(values))
