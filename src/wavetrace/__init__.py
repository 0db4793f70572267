"""Completeness testbed for plane-wave traces {e^{ik beta . s}} on a closed
surface: the trace family loses totality in L^2(S) exactly at interior
Dirichlet eigenvalues of the Laplacian, and this package makes that
dichotomy executable -- indicator sweeps, two independent eigenvalue
oracles, and direct numerical checks of every constructive step.

Each layer's __all__ is the one list of its exports."""

from .specfun import *
from .surface import *
from .herglotz import *
from .spectra import *
from .sweep import *
from .verify import *

__version__ = "0.1.0"
