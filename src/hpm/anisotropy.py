"""Anisotropy profiles, the frequency manifold P, its quasi-norm,
the projection pi_P and the scaling fibres.

For derivative orders alpha = (alpha_1, ..., alpha_d) and the minimal
integer l with l*alpha_k > d for all k, the manifold is

    P = { xi : sum_k |xi_k|^(l alpha_k) = 1 },

the quasi-norm is (sum_k |xi_k|^(l alpha_k))^(1/l), and the fibre through
a point xi of P is eta_k(t) = xi_k t^(1/(l alpha_k)), t > 0.  Projection
along fibres divides component k by the constraint sum raised to
1/(l alpha_k); absolute values are used inside the sum so the map is real
for all sign patterns.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularPointError


def compute_l(alpha, d: int) -> int:
    """Minimal integer l >= 1 with l*alpha_k > d for every k."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size == 0:
        raise DomainError("alpha must be a non-empty vector")
    if np.any(alpha <= 0):
        raise DomainError("all derivative orders must be positive")
    ratio = d / float(alpha.min())
    if not math.isfinite(ratio):
        raise DomainError(f"derivative order {float(alpha.min())!r} is too small: "
                          f"d / alpha_k = {ratio!r} is not finite")
    return int(math.floor(ratio)) + 1


@dataclass(frozen=True)
class AnisotropyProfile:
    """Derivative orders alpha with the derived exponent l and the powers
    l*alpha_k defining the P-constraint.

    l and the exponents are computed from alpha once, never user-supplied."""

    alpha: tuple[float, ...]
    l: int = field(init=False)
    exponents: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        alpha = tuple(float(a) for a in self.alpha)
        l = compute_l(alpha, len(alpha))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "exponents", tuple(l * a for a in alpha))

    @property
    def d(self) -> int:
        return len(self.alpha)


def constraint_sum(xi: np.ndarray, profile: AnisotropyProfile) -> np.ndarray:
    """sum_k |xi_k|^(l alpha_k), vectorized over leading axes of xi (..., d)."""
    xi = np.asarray(xi, dtype=float)
    ex = np.asarray(profile.exponents)
    return np.sum(np.abs(xi) ** ex, axis=-1)


def quasi_norm(xi, profile: AnisotropyProfile):
    """(sum_k |xi_k|^(l alpha_k))^(1/l); zero iff xi = 0."""
    s = constraint_sum(xi, profile)
    return s ** (1.0 / profile.l)


def projection_sum(xi, profile: AnisotropyProfile) -> np.ndarray:
    """The constraint sum S of xi for a projection to P: a DomainError,
    with no overflow warning, unless S is finite and, at every nonzero xi,
    at least the least normal float (a subnormal S has lost the digits
    that put the projection on P, and one that underflows to 0 would send
    xi to the origin), so S is 0 only at xi = 0."""
    xi = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore"):
        s = constraint_sum(xi, profile)
    if not np.all(np.isfinite(s)):
        raise DomainError(f"constraint sum {float(np.max(s))!r} is not finite: "
                          f"projection to P needs a finite sum")
    tiny = s < sys.float_info.min
    if np.any(xi[tiny]):  # a nonzero xi, whose sum is the largest tiny one
        low = float(np.max(s[tiny]))
        raise DomainError(f"constraint sum {low!r} of a nonzero xi "
                          f"{'is subnormal' if low else 'underflows to 0'}: "
                          f"projection to P needs at least {sys.float_info.min!r}")
    return s


def project_to_P(xi, profile: AnisotropyProfile) -> np.ndarray:
    """Project nonzero xi to P along its fibre.

    Component k is xi_k / S^(1/(l alpha_k)) with S the constraint sum; the
    denominator is positive, so each component keeps the sign of xi_k.  An
    S out of range is projection_sum's DomainError, and xi = 0 a
    SingularPointError."""
    xi = np.asarray(xi, dtype=float)
    s = projection_sum(xi, profile)
    if np.any(s == 0):
        raise SingularPointError("projection to P is undefined at the origin")
    ex = np.asarray(profile.exponents)
    return xi / s[..., None] ** (1.0 / ex)


def project_lattice(xi: np.ndarray, profile: AnisotropyProfile) -> np.ndarray:
    """Like project_to_P but maps zero vectors to zero instead of raising;
    used on frequency lattices that contain the origin."""
    xi = np.asarray(xi, dtype=float)
    s = projection_sum(xi, profile)
    ex = np.asarray(profile.exponents)
    # S is 0 only at xi = 0, which a divisor of 1 keeps at 0
    return xi / np.where(s == 0, 1.0, s)[..., None] ** (1.0 / ex)


def fibre_point(xi_P, t, profile: AnisotropyProfile) -> np.ndarray:
    """Point eta on the fibre through xi_P at parameter t > 0:
    eta_k = (xi_P)_k * t^(1/(l alpha_k))."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise DomainError("fibre parameter t must be positive")
    xi_P = np.asarray(xi_P, dtype=float)
    ex = np.asarray(profile.exponents)
    return xi_P * t[..., None] ** (1.0 / ex)


def _sphere_mesh(d: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint mesh of the Euclidean unit sphere S^{d-1}: points (N, d)
    and surface-measure weights (N,)."""
    if resolution < 8:
        raise DomainError(f"mesh resolution must be at least 8, got {resolution}")
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    # hyperspherical midpoint product grid: d-2 polar angles in (0, pi)
    # (none on the circle), one azimuthal angle in [0, 2 pi)
    polar = [(np.arange(resolution) + 0.5) * np.pi / resolution] * (d - 2)
    azim = 2 * np.pi * np.arange(resolution) / resolution
    grids = np.meshgrid(*polar, azim, indexing="ij")
    shape = grids[0].shape
    pts = np.empty(shape + (d,))
    sin_prod = np.ones(shape)
    for j in range(d - 2):
        pts[..., j] = sin_prod * np.cos(grids[j])
        sin_prod = sin_prod * np.sin(grids[j])
    pts[..., d - 2] = sin_prod * np.cos(grids[d - 2])
    pts[..., d - 1] = sin_prod * np.sin(grids[d - 2])
    w = np.ones(shape)
    for j in range(d - 2):
        w = w * np.sin(grids[j]) ** (d - 2 - j)
    w = w * (np.pi / resolution) ** (d - 2) * (2 * np.pi / resolution)
    return pts.reshape(-1, d), w.reshape(-1)


def mesh_P(profile: AnisotropyProfile, resolution: int):
    """Quadrature mesh on P, points (N, d) and weights (N,): a uniform
    Euclidean sphere mesh projected through pi_P.  Covers both signs of
    every axis.  The weights are the sphere mesh's surface measure (a
    fixed reference measure)."""
    pts, w = _sphere_mesh(profile.d, resolution)
    return project_to_P(pts, profile), w
