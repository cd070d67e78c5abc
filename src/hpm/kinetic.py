"""Kinetic machinery for ultraparabolic conservation laws

    div_x f(x, u) - D^2_x . B(x, u) = forcing,

where the diffusion matrix B acts only on the last d - l_split axes:
the sgn kinetic transform, the mixed-homogeneity frequency manifold
|xi_hat|^2 + |xi_tilde|^4 = 1 with its genuine-nonlinearity scan, and a
weak-form residual checker for the Kruzhkov-type entropy inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .anisotropy import _sphere_mesh
from .averaging import NonDegeneracyReport, _cell_width, _scan_measures
from .errors import DomainError, IntegrityError
from .spectral import SpectralField, SpectralGrid, require


# --- flux pairs ---------------------------------------------------------------

@dataclass
class FluxPair:
    """Flux vector f(x, lambda) and symmetric diffusion matrix B(x, lambda)
    with analytic lambda-derivatives.

    The callables are vectorized over lambda: f and dlam_f map (x, lam) to
    lam.shape + (d,), B and dlam_B to lam.shape + (d, d).  Entries b_jk
    with min(j, k) < l_split must vanish identically (hyperbolic axes
    carry no diffusion)."""

    name: str
    d: int
    l_split: int
    f: Callable
    B: Callable
    dlam_f: Callable
    dlam_B: Callable

    def __post_init__(self):
        if not 0 <= self.l_split <= self.d:
            raise DomainError("l_split must lie between 0 and d")
        lam = np.asarray([0.3])
        Bv = np.asarray(self.B(None, lam))
        if Bv.shape[-2:] != (self.d, self.d):
            raise DomainError("B must return d x d matrices")
        asym = float(np.max(np.abs(Bv - np.swapaxes(Bv, -1, -2))))
        if asym > 1e-12:
            raise IntegrityError(f"diffusion matrix B is not symmetric: "
                                 f"asymmetry {asym:.3e} above 1.0e-12")
        # every entry b_jk with min(j, k) < l_split lies outside the
        # parabolic block
        hyp = np.abs(Bv).reshape(-1, self.d, self.d).max(axis=0)
        hyp[self.l_split:, self.l_split:] = 0.0
        j, k = np.unravel_index(np.argmax(hyp), hyp.shape)
        if hyp[j, k] > 0:
            raise IntegrityError(
                f"diffusion must vanish on the hyperbolic axes: largest entry "
                f"|b_jk| = {hyp[j, k]:.3e} at axes j = {j}, k = {k}, above 0")


@dataclass
class FluxValidation:
    ellipticity_constant: float | None
    lipschitz_constant: float

    def to_json_dict(self) -> dict:
        return {"ellipticity": self.ellipticity_constant,
                "lipschitz": self.lipschitz_constant}


def validate_flux(flux: FluxPair, lambda_samples: Sequence[float]) -> FluxValidation:
    """Sampled certificates: the parabolic-block monotonicity constant
    c = min (B~(l1) - B~(l2)) xt.xt / ((l1 - l2)|xt|^2) over l1 > l2 and
    16 fixed unit directions xt, and the flux Lipschitz constant as a
    uniform-continuity modulus.  c <= 0, a NaN c or a Lipschitz estimate
    that is not finite fails the flux pair."""
    lams = np.sort(np.asarray(lambda_samples, dtype=float))
    if lams.size < 2 or np.any(lams[1:] <= lams[:-1]):
        raise DomainError(f"need at least 2 distinct lambda samples, got {lams.tolist()}")
    # every pair l1 > l2 of samples
    lo, hi = np.triu_indices(lams.size, 1)
    gap = lams[hi] - lams[lo]
    tilde = flux.d - flux.l_split
    c_min = None
    if tilde > 0:
        rng = np.random.Generator(np.random.Philox(key=23))
        dirs = rng.standard_normal((16, tilde))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        B = np.asarray(flux.B(None, lams))[:, flux.l_split:, flux.l_split:].real
        quad = np.einsum("ni,pij,nj->pn", dirs, B[hi] - B[lo], dirs)
        # np.min keeps a NaN
        c_min = float(np.min(np.min(quad, axis=1) / gap))
        if not c_min > 0:
            raise IntegrityError(f"parabolic block fails the monotonicity "
                                 f"bound: c_min = {c_min:.3e}, not above 0")
    f = np.asarray(flux.f(None, lams))
    df = f[hi] - f[lo]
    # np.vecdot runs np.linalg.norm's dot kernel
    lip = float(np.max(np.sqrt(np.vecdot(df, df)) / gap))
    if not np.isfinite(lip):
        raise IntegrityError(f"flux fails the uniform-continuity bound: "
                             f"Lipschitz estimate {lip:.3e} is not finite")
    return FluxValidation(c_min, lip)


def _vec(lam, components):
    lam = np.asarray(lam, dtype=float)
    out = np.zeros(lam.shape + (len(components),))
    for k, c in enumerate(components):
        out[..., k] = c(lam)
    return out

def _mat(lam, d, entries):
    lam = np.asarray(lam, dtype=float)
    out = np.zeros(lam.shape + (d, d))
    for (j, k), c in entries.items():
        out[..., j, k] = c(lam)
        out[..., k, j] = c(lam)
    return out


def flux_from_name(name: str, d: int = 2, velocity=None) -> FluxPair:
    """Registry: "burgers-heat" (d = 2, f = (lam^2/2, 0), B_22 = lam) and
    "linear-transport" (f = velocity * lam, B = 0, velocity a d-vector,
    all ones by default)."""
    if name == "burgers-heat":
        return FluxPair(
            name, 2, 1,
            f=lambda x, lam: _vec(lam, [lambda s: s ** 2 / 2, lambda s: 0 * s]),
            B=lambda x, lam: _mat(lam, 2, {(1, 1): lambda s: s}),
            dlam_f=lambda x, lam: _vec(lam, [lambda s: s, lambda s: 0 * s]),
            dlam_B=lambda x, lam: _mat(lam, 2, {(1, 1): lambda s: 1 + 0 * s}),
        )
    if name == "linear-transport":
        v = np.ones(d) if velocity is None else np.asarray(velocity, dtype=float)
        if v.shape != (d,):
            raise DomainError("velocity must be a d-vector")
        return FluxPair(
            name, d, d,
            f=lambda x, lam: np.asarray(lam)[..., None] * v,
            B=lambda x, lam: np.zeros(np.shape(lam) + (d, d)),
            dlam_f=lambda x, lam: np.broadcast_to(v, np.shape(lam) + (d,)),
            dlam_B=lambda x, lam: np.zeros(np.shape(lam) + (d, d)),
        )
    raise DomainError(f"unknown flux name {name!r}")


# --- kinetic transform --------------------------------------------------------

def kinetic_transform(u: np.ndarray, lambda_grid: np.ndarray) -> np.ndarray:
    """h(x, lambda) = sgn(u(x) - lambda) with sgn(0) = 0; the lambda axis
    is appended last."""
    u = np.asarray(u)
    lam = np.asarray(lambda_grid, dtype=float)
    return np.sign(u.real[..., None] - lam)


def exact_lambda_integral(u: np.ndarray, M: float) -> np.ndarray:
    """The piecewise-exact integral int_{-M}^{M} sgn(u - lambda) dlambda,
    which equals 2u identically: (u + M) - (M - u)."""
    u = np.asarray(u)
    if float(np.max(np.abs(u.real))) > M:
        raise DomainError("field values exceed the lambda range [-M, M]")
    return (u.real + M) - (M - u.real)


# --- ultraparabolic manifold --------------------------------------------------

@dataclass(frozen=True)
class UPManifold:
    """The mixed-homogeneity manifold |xi_hat|^2 + |xi_tilde|^4 = 1, with
    xi_hat the first l_split (hyperbolic) components."""

    d: int
    l_split: int

    def __post_init__(self):
        if not 0 <= self.l_split <= self.d:
            raise DomainError("l_split must lie between 0 and d")

    def constraint_value(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        hat2 = np.sum(xi[..., :self.l_split] ** 2, axis=-1)
        til2 = np.sum(xi[..., self.l_split:] ** 2, axis=-1)
        return hat2 + til2 ** 2

    def project(self, xi) -> np.ndarray:
        """Scale (xi_hat, xi_tilde) -> (r xi_hat, sqrt(r) xi_tilde) onto
        the manifold; r is the inverse square root of the constraint."""
        xi = np.asarray(xi, dtype=float)
        c = self.constraint_value(xi)
        if np.any(c == 0):
            raise DomainError("projection undefined at the origin")
        r = c ** -0.5
        out = np.empty_like(xi)
        out[..., :self.l_split] = xi[..., :self.l_split] * r[..., None]
        out[..., self.l_split:] = xi[..., self.l_split:] * np.sqrt(r)[..., None]
        return out

    def mesh(self, resolution: int) -> np.ndarray:
        pts, _ = _sphere_mesh(self.d, resolution)
        return self.project(pts)


def up_symbol(x, xi, lam, flux: FluxPair):
    """Genuine-nonlinearity symbol on the manifold:
    2 pi i sum_{k < l_split} xi_k dlam_f_k + 4 pi^2 <dlam_B xi, xi>,
    vectorized over the leading axes of xi and lam together."""
    xi = np.asarray(xi, dtype=float)
    df = np.asarray(flux.dlam_f(x, lam))
    dB = np.asarray(flux.dlam_B(x, lam))
    hyp = np.sum(df[..., :flux.l_split] * xi[..., :flux.l_split], axis=-1)
    xi = np.broadcast_to(xi, np.broadcast_shapes(xi.shape, dB.shape[:-1]))
    quad = np.einsum("...jk,...j,...k->...", dB, xi, xi)
    return 2j * np.pi * hyp + 4 * np.pi ** 2 * quad


def up_nondegeneracy_scan(flux: FluxPair, x_samples, manifold: UPManifold,
                          lambda_grid: np.ndarray, eps_list,
                          resolution: int = 64) -> NonDegeneracyReport:
    """Measure of {lambda : |up_symbol(x, xi, lambda)| <= eps} for every
    x sample and mesh point xi on the manifold, a block of mesh rows at a
    time.  lambda_grid is a 1-d array of at least 2 uniform, increasing
    midpoints (averaging._cell_width)."""
    lam = np.asarray(lambda_grid, dtype=float)
    dlam = _cell_width(lam, "lambda_grid")

    def symbol_at(x, xi):
        return up_symbol(x, xi[:, None], lam, flux)

    return _scan_measures(symbol_at, list(x_samples), manifold.mesh(resolution),
                          eps_list, dlam, lam.size)


# --- entropy residual ---------------------------------------------------------

@dataclass
class KineticTestFunction:
    """A nonnegative test function with analytically supplied first and
    second derivatives: gradient has shape grid + (d,), hessian grid +
    (d, d)."""

    values: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray | None = None


def _tensor_product_test_function(grid: SpectralGrid, g, g1,
                                  g2=None) -> KineticTestFunction:
    """Assemble prod_k g_k(x_k) with its gradient and, when the second
    derivatives g2 are given, its hessian, from per-axis 1-d samples."""
    d = grid.d
    lattice = grid.spatial_only()

    def product(factor):
        out = np.ones(grid.n_per_axis)
        for k in range(d):
            out = out * lattice.on_axis(factor(k), k)
        return out

    vals = product(lambda k: g[k])
    grad = np.empty(grid.n_per_axis + (d,))
    for j in range(d):
        grad[..., j] = product(lambda k: g1[k] if k == j else g[k])
    hess = None
    if g2 is not None:
        hess = np.empty(grid.n_per_axis + (d, d))
        for j in range(d):
            for i in range(d):
                gij = g2 if i == j else g1
                hess[..., i, j] = product(lambda k: gij[k] if k in (i, j) else g[k])
    return KineticTestFunction(vals, grad, hess)


def bump_test_function(grid: SpectralGrid, center, width) -> KineticTestFunction:
    """Tensor-product C^2 bump prod_k cos^4(pi s_k / 2), s_k = (x_k -
    center_k)/width_k, supported in |s_k| < 1, with exact derivatives."""
    center = np.asarray(center, dtype=float)
    width = np.asarray(width, dtype=float)
    d = grid.d
    g = []
    g1 = []
    g2 = []
    for k in range(d):
        s = (grid.coord_axis(k) - center[k]) / width[k]
        inside = np.abs(s) < 1
        c = np.cos(np.pi * s / 2) * inside
        si = np.sin(np.pi * s / 2)
        g.append(c ** 4)
        g1.append(-2 * np.pi * si * c ** 3 * inside / width[k])
        g2.append(-np.pi ** 2 * (c ** 4 - 3 * si ** 2 * c ** 2) * inside / width[k] ** 2)
    return _tensor_product_test_function(grid, g, g1, g2)


def _bspline2(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m1 = (t >= 0) & (t < 1)
    m2 = (t >= 1) & (t < 2)
    m3 = (t >= 2) & (t < 3)
    out[m1] = t[m1] ** 2 / 2
    out[m2] = (-2 * t[m2] ** 2 + 6 * t[m2] - 3) / 2
    out[m3] = (3 - t[m3]) ** 2 / 2
    return out


def _bspline2_prime(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m1 = (t >= 0) & (t < 1)
    m2 = (t >= 1) & (t < 2)
    m3 = (t >= 2) & (t < 3)
    out[m1] = t[m1]
    out[m2] = 3 - 2 * t[m2]
    out[m3] = t[m3] - 3
    return out


def spline_test_function(grid: SpectralGrid, left, knot_width) -> KineticTestFunction:
    """Tensor product of quadratic B-spline bumps: C^1, piecewise
    quadratic, supported on [left_k, left_k + 3 knot_width_k] per axis.
    Suitable for purely hyperbolic fluxes, which only pair against the
    gradient; the curvature jumps at the knots set the leading quadrature
    error of the weak form."""
    left = np.asarray(left, dtype=float)
    width = np.asarray(knot_width, dtype=float)
    d = grid.d
    g = []
    g1 = []
    for k in range(d):
        t = (grid.coord_axis(k) - left[k]) / width[k]
        g.append(_bspline2(t))
        g1.append(_bspline2_prime(t) / width[k])
    return _tensor_product_test_function(grid, g, g1)


def entropy_residual(u: SpectralField, lam: float, flux: FluxPair,
                     phi: KineticTestFunction) -> float:
    """Weak Kruzhkov pairing at entropy level lambda:

        int sgn(u - lam)(f(., u) - f(., lam)) . (-grad phi)
          - sgn(u - lam)(B(., u) - B(., lam)) : hess phi  dx,

    for the law without sources, against a nonnegative phi (a diffusive
    flux needs phi's hessian).
    Nonpositive up to O(h) for entropy-admissible inputs; genuinely
    positive for anti-entropy shocks."""
    require(u, SpectralField)
    grid = u.grid
    if grid.m != 0:
        raise DomainError("entropy residual expects a scalar x-field")
    if np.min(np.asarray(phi.values, dtype=float)) < 0:
        raise DomainError("test function must be nonnegative")
    uv = np.asarray(u.values).real
    s = np.sign(uv - lam)
    x = None
    fu = np.asarray(flux.f(x, uv))
    fl = np.asarray(flux.f(x, np.full_like(uv, lam)))
    total = -np.einsum("...k,...k->...", s[..., None] * (fu - fl), phi.gradient)
    Bu = np.asarray(flux.B(x, uv))
    if np.max(np.abs(Bu)) > 0:
        if phi.hessian is None:
            raise DomainError("diffusive flux needs the test function hessian")
        Bl = np.asarray(flux.B(x, np.full_like(uv, lam)))
        total = total - s * np.einsum("...jk,...jk->...", Bu - Bl, phi.hessian)
    return float(np.sum(total).real * grid.cell_volume)
