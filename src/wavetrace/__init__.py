"""Completeness testbed for plane-wave traces {e^{ik beta . s}} on a closed
surface: the trace family loses totality in L^2(S) exactly at interior
Dirichlet eigenvalues of the Laplacian, and this package makes that
dichotomy executable -- indicator sweeps, two independent eigenvalue
oracles, and direct numerical checks of every constructive step."""

from .specfun import (
    HarmonicIndex,
    bessel_zero,
    sph_bessel_j,
    sph_bessel_j_deriv,
    sph_harm,
)
from .surface import (
    DegenerateSurfaceError,
    DirectionGrid,
    SurfaceGrid,
    make_direction_grid,
    make_sphere,
    make_star_surface,
)
from .herglotz import (
    IllPosedIndicatorError,
    fit_trace,
    make_trace_spectrum,
    seed_interior_points,
)
from .spectra import (
    EigenvalueRecord,
    InterpolationError,
    UnsupportedSurfaceError,
    ball_dirichlet_eigs,
    eigenfunction_normal_derivative,
    make_single_layer_spectrum,
    static_row_integral,
)
from .sweep import (
    BracketError,
    Dip,
    detect_dips,
    estimate_multiplicity,
    find_dips,
    refine_dip,
    sweep_k,
)
from .verify import (
    InconclusiveCheckError,
    VerificationReport,
    check_decomposition,
    check_green_reduction,
    check_lemma1_orthogonality,
    check_necessity,
    run_default_suite,
)

__version__ = "0.1.0"
