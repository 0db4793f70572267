import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import wavetrace.sweep
from wavetrace import make_direction_grid, make_sphere, make_star_surface


@pytest.fixture()
def set_pool_size(monkeypatch):
    """Setter of the sweep layer's pool size: the pools take one worker per
    CPU, so it sets the CPU count they read."""

    def set_size(n: int):
        monkeypatch.setattr(wavetrace.sweep.os, "cpu_count", lambda: n)

    return set_size


@pytest.fixture(scope="session")
def sphere_30_60():
    return make_sphere(1.0, 30, 60)


@pytest.fixture(scope="session")
def sphere_24_48():
    return make_sphere(1.0, 24, 48)


@pytest.fixture(scope="session")
def sphere_40_80():
    return make_sphere(1.0, 40, 80)


@pytest.fixture(scope="session")
def dirs_12_24():
    return make_direction_grid(12, 24)


@pytest.fixture(scope="session")
def dirs_10_20():
    return make_direction_grid(10, 20)


@pytest.fixture(scope="session")
def star_grid_24_48():
    return make_star_surface(1.0, [(2, 0, 0.1)], 24, 48)


# numpy's CPU dispatch with its AVX-512 targets switched off, for a child
# process's environment: float64 tan then runs libm, not the vectorized code
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
