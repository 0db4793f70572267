"""Quadrature-bearing discretizations of a closed surface S and of S^2.

Both grids use a product rule: Gauss-Legendre nodes in cos(theta) times a
uniform (trapezoidal) rule in phi. The rule integrates spherical harmonics
exactly up to degree min(2*n_theta - 1, n_phi - 1) and converges spectrally
for analytic integrands, which is what the plane-wave pairings need.

Surfaces are star-shaped, r = rho(theta, phi) about the origin; area
elements come from the analytic tangent vectors of the parametrization, so
the quadrature keeps spectral accuracy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .specfun import HarmonicIndex, sph_harm_with_grad

__all__ = [
    "SurfaceGrid",
    "DirectionGrid",
    "DegenerateSurfaceError",
    "UnsupportedSurfaceError",
    "make_sphere",
    "make_star_surface",
    "make_direction_grid",
]


class DegenerateSurfaceError(ValueError):
    """Raised when a star-shaped radius collapses toward or below zero."""


class UnsupportedSurfaceError(ValueError):
    """Raised when an operation needs a grid kind or layout it does not support."""


# Relative deviation of a grid's azimuthal sectors from rotated copies of
# the first that _orbit tolerates: the product grids' rotations reproduce
# their nodes and weights to about 1e-15.
_ORBIT_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SurfaceGrid:
    """Discretized closed surface: nodes and area weights.

    Attributes
    ----------
    nodes : (N, 3) float array
    weights : (N,) positive area-element weights, summing to area(S)
    descriptor : dict with the shape kind, parameters and resolution
    """

    nodes: np.ndarray
    weights: np.ndarray
    descriptor: dict = field(default_factory=dict)

    def __post_init__(self):
        nodes = _readonly(np.asarray(self.nodes, dtype=float))
        weights = _readonly(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != (len(weights), 3):
            raise ValueError("nodes/weights size mismatch")
        if not np.isfinite(nodes).all():
            raise ValueError("nodes must be finite")
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise ValueError("area weights must be positive and finite")

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    @property
    def area(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class DirectionGrid:
    """Quadrature on the unit sphere of directions: sum of weights = 4*pi."""

    directions: np.ndarray
    weights: np.ndarray
    descriptor: dict = field(default_factory=dict)

    def __post_init__(self):
        directions = _readonly(np.asarray(self.directions, dtype=float))
        weights = _readonly(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "weights", weights)
        if directions.shape != (len(weights), 3):
            raise ValueError("directions/weights size mismatch")
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise ValueError("direction weights must be positive and finite")
        dir_dev = np.abs(np.linalg.norm(directions, axis=1) - 1.0).max()
        if not dir_dev <= 1e-12:
            raise ValueError(f"directions not unit vectors (deviation {dir_dev:.2e})")
        wsum = weights.sum()
        if abs(wsum - 4 * np.pi) > 1e-12 * 4 * np.pi:
            raise ValueError(f"direction weights must sum to 4*pi, got {wsum!r}")

    @property
    def n_directions(self) -> int:
        return len(self.weights)


def _product_angles(n_theta: int, n_phi: int):
    """GL nodes in u=cos(theta) x uniform phi; returns flat theta, phi, du-dphi weights."""
    if n_theta < 4:
        raise ValueError(f"n_theta must be >= 4, got {n_theta}")
    if n_phi < 8:
        raise ValueError(f"n_phi must be >= 8, got {n_phi}")
    u, wu = leggauss(n_theta)
    theta = np.arccos(u)
    phi = np.arange(n_phi) * (2 * np.pi / n_phi)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    W = np.outer(wu, np.full(n_phi, 2 * np.pi / n_phi))
    return T.ravel(), P.ravel(), W.ravel()


def _unit_vectors(theta, phi):
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def _spherical_frame(theta, phi):
    """The unit vectors r_hat, theta_hat, phi_hat at (theta, phi)."""
    ct, cp, sp = np.cos(theta), np.cos(phi), np.sin(phi)
    theta_hat = np.stack([ct * cp, ct * sp, -np.sin(theta)], axis=-1)
    phi_hat = np.stack([-sp, cp, np.zeros_like(phi)], axis=-1)
    return _unit_vectors(theta, phi), theta_hat, phi_hat


def _spherical_coords(points: np.ndarray):
    """Cartesian points (..., 3) -> (r, theta, phi); theta = 0 at the origin."""
    r = np.linalg.norm(points, axis=-1)
    safe = np.where(r > 0, r, 1.0)
    theta = np.arccos(np.clip(points[..., 2] / safe, -1.0, 1.0))
    phi = np.arctan2(points[..., 1], points[..., 0])
    return r, theta, phi


def _normalize_perturbation(perturbation):
    """(HarmonicIndex, eps) pairs of [l, m, eps] terms; a term that is not
    such a triple, or holds a bool, a float l or m or a string, is refused
    (ValueError), not coerced."""
    out = []
    for term in perturbation:
        try:
            l, m, eps = term
        except (TypeError, ValueError):
            l = m = eps = None  # not a triple: fails the kinds below
        kinds = zip((l, m, eps), (numbers.Integral, numbers.Integral, numbers.Real))
        if any(isinstance(v, bool) or not isinstance(v, kind) for v, kind in kinds):
            raise ValueError(f"perturbation terms must be [int l, int m, number eps], got {term!r}")
        out.append((HarmonicIndex(int(l), int(m)), float(eps)))
    return out


def _star_radius_terms(theta, phi, R0, perturbation):
    """r(theta,phi) = R0 (1 + sum eps Re Y_lm) and its angular derivatives."""
    r = np.ones_like(theta)
    rt = np.zeros_like(theta)
    rp = np.zeros_like(theta)
    for idx, eps in perturbation:
        val, dth, dph = sph_harm_with_grad(idx, theta, phi)
        r = r + eps * np.real(val)
        rt = rt + eps * np.real(dth)
        rp = rp + eps * np.real(dph)
    return R0 * r, R0 * rt, R0 * rp


def make_sphere(R: float, n_theta: int, n_phi: int) -> SurfaceGrid:
    """Sphere of radius R: GL x uniform product grid."""
    if not 0 < R < np.inf:
        raise ValueError(f"radius must be positive and finite, got {R}")
    theta, phi, w = _product_angles(n_theta, n_phi)
    shat = _unit_vectors(theta, phi)
    desc = {"kind": "sphere", "radius": float(R), "n_theta": int(n_theta), "n_phi": int(n_phi)}
    return SurfaceGrid(nodes=R * shat, weights=R * R * w, descriptor=desc)


def make_star_surface(R0: float, perturbation, n_theta: int, n_phi: int) -> SurfaceGrid:
    """Star-shaped surface r = R0 (1 + sum eps Re Y_lm).

    Area elements come from the closed-form partial derivatives of the
    parametrization x(theta,phi) = r(theta,phi) * s_hat(theta,phi):

        dS = |x_theta x x_phi| dtheta dphi

    Raises DegenerateSurfaceError when the radius drops below 0.2*R0
    anywhere on the grid.
    """
    if not 0 < R0 < np.inf:
        raise ValueError(f"base radius must be positive and finite, got {R0}")
    pert = _normalize_perturbation(perturbation)
    if not all(np.isfinite(eps) for _, eps in pert):
        raise ValueError(f"perturbation coefficients must be finite, got {[eps for _, eps in pert]}")
    pert = [(idx, eps) for idx, eps in pert if eps != 0.0]
    if not pert:
        return make_sphere(R0, n_theta, n_phi)  # canonical: zero perturbation IS the sphere
    theta, phi, w = _product_angles(n_theta, n_phi)
    r, rt, rp = _star_radius_terms(theta, phi, R0, pert)
    if np.any(r < 0.2 * R0):
        raise DegenerateSurfaceError(
            f"radius drops to {r.min():.3g} (< 0.2*R0 = {0.2 * R0:.3g}); surface degenerate"
        )
    st = np.sin(theta)
    shat, theta_hat, phi_hat = _spherical_frame(theta, phi)
    x_theta = rt[:, None] * shat + r[:, None] * theta_hat
    x_phi = rp[:, None] * shat + (r * st)[:, None] * phi_hat
    jac = np.linalg.norm(np.cross(x_theta, x_phi), axis=1)  # equals r^2 sin(theta) on the sphere
    desc = {
        "kind": "star",
        "R0": float(R0),
        "perturbation": [[idx.l, idx.m, eps] for idx, eps in pert],
        "n_theta": int(n_theta),
        "n_phi": int(n_phi),
    }
    # quadrature weight is for du dphi; dtheta = du / sin(theta)
    return SurfaceGrid(nodes=r[:, None] * shat, weights=w * jac / st, descriptor=desc)


def make_direction_grid(n_theta: int, n_phi: int) -> DirectionGrid:
    """Product quadrature on the unit sphere of directions.

    Exact for spherical polynomials of degree <= min(2*n_theta-1, n_phi-1).
    """
    theta, phi, w = _product_angles(n_theta, n_phi)
    desc = {"kind": "product", "n_theta": int(n_theta), "n_phi": int(n_phi)}
    return DirectionGrid(directions=_unit_vectors(theta, phi), weights=w, descriptor=desc)


def _rotation_order(descriptor: dict) -> int:
    """The order of the group of rotations about z that maps a product grid
    onto itself, read from its descriptor: n_phi for a sphere or a product
    direction grid, gcd(n_phi, |m| of every term) for a star, and 1 for
    any other kind."""
    if descriptor.get("kind") not in ("sphere", "star", "product"):
        return 1
    return math.gcd(descriptor["n_phi"], *(abs(m) for _, m, _ in descriptor.get("perturbation", ())))


def _rotations(points: np.ndarray, n: int) -> np.ndarray:
    """(P, 3) points rotated about z by 2 pi t / n for t = 0, ..., n - 1:
    an (n, P, 3) array whose first entry is the points themselves."""
    angle = (2 * np.pi / n) * np.arange(n)[:, None]
    c, s = np.cos(angle), np.sin(angle)
    x, y, z = points.T
    return np.stack(np.broadcast_arrays(c * x - s * y, s * x + c * y, z), axis=-1)


def _orbit(grid, n: int | None = None) -> tuple[int, np.ndarray]:
    """n and the node order that lists a product grid's n azimuthal sectors
    one after another, each in grid order: by default n is the grid's
    _rotation_order, and any divisor of it regroups the sectors into those
    of n_phi / n azimuths of every polar row. The grid is a sphere or star
    SurfaceGrid, or a product DirectionGrid (its directions are the nodes).
    UnsupportedSurfaceError unless its descriptor names such a grid of as
    many nodes and its sector t is sector 0 rotated by 2 pi t / n, nodes
    and weights to _ORBIT_TOL relative (an n that does not divide the
    group order fails this).
    """
    desc = grid.descriptor
    kind = desc.get("kind")
    if kind not in ("sphere", "star", "product"):
        raise UnsupportedSurfaceError(f"needs a sphere, star or product direction grid, got {kind!r}")
    points = grid.directions if kind == "product" else grid.nodes
    n_theta, n_phi = desc.get("n_theta", 0), desc.get("n_phi", 0)
    if n_theta * n_phi != len(points):
        raise UnsupportedSurfaceError(f"a {n_theta}x{n_phi} {kind} descriptor on a grid of {len(points)} nodes")
    n = _rotation_order(desc) if n is None else n
    order = np.arange(len(points)).reshape(n_theta, n, -1).transpose(1, 0, 2).ravel()
    nodes = points[order].reshape(n, -1, 3)
    weights = grid.weights[order].reshape(n, -1)
    deviation = max(
        np.abs(_rotations(nodes[0], n) - nodes).max() / np.abs(nodes).max(), np.abs(weights / weights[0] - 1).max()
    )
    # `not <=` rather than `>`, so that a NaN fails too
    if not deviation <= _ORBIT_TOL:
        raise UnsupportedSurfaceError(
            f"the {kind} grid is not {n} rotated copies of its first sector (deviation {deviation:.2e})"
        )
    return n, order


def surface_radius(descriptor: dict, theta, phi):
    """Radius function of a sphere or star descriptor with its angular
    derivatives: (rho, rho_theta, rho_phi) at (theta, phi)."""
    kind = descriptor.get("kind")
    theta = np.asarray(theta, dtype=float)
    if kind == "sphere":
        return np.full_like(theta, descriptor["radius"]), np.zeros_like(theta), np.zeros_like(theta)
    if kind == "star":
        pert = _normalize_perturbation(descriptor["perturbation"])
        return _star_radius_terms(theta, np.asarray(phi, dtype=float), descriptor["R0"], pert)
    raise ValueError(f"no radius function for surface kind {kind!r}")
