"""Velocity-averaging experiments: exact spectral transport evolution,
velocity averages, compactness decay tables, the principal-symbol
non-degeneracy scanner, splitting-factor diagnostics, and the weak-form
residual of the model equation

    sum_k a_k(x, p) d_{x_k}^{alpha_k} u = G.

The transport solutions are exact in frequency space — every spatial mode
just picks up the phase e^{-2 pi i t a(p).xi} — so averaging effects are
isolated from any scheme diffusion.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .anisotropy import AnisotropyProfile
from .errors import DomainError, SingularPointError, SupportWarning
from .hmeasure import SequenceGenerator
from .multiplier import (
    SymbolOnP,
    _apply_spatial_multiplier,
    apply_projected_symbol,
    fractional_axis_symbol,
    fractional_factor,
    smoothing_inverse,
)
from .spectral import (
    PHYSICAL,
    SpectralField,
    SpectralGrid,
    forward_dft,
    inverse_dft,
)


# --- principal symbol ---------------------------------------------------------

def _eval_coeff(coeff, x, p):
    if callable(coeff):
        return np.asarray(coeff(x, p), dtype=complex)
    return np.asarray(coeff, dtype=complex)


def principal_symbol(x, xi, p, coeffs, profile: AnisotropyProfile):
    """A(x, xi, p) = sum_k a_k(x, p) (2 pi i xi_k)^(alpha_k), the diagonal
    case of mixed_symbol.

    coeffs is either a single callable (x, p) -> (..., d), evaluated once,
    or a sequence of d per-axis entries, each a callable (x, p) -> (...) or
    a constant; the result is vectorized over the leading axes of p."""
    d = profile.d
    if callable(coeffs):
        a = np.asarray(coeffs(x, p), dtype=complex)
        coeffs = [a[..., k] for k in range(d)]
    elif len(coeffs) != d:
        raise DomainError("need one coefficient per spatial axis")
    return mixed_symbol(x, xi, p, [
        (c, (0,) * k + (a,) + (0,) * (d - 1 - k))
        for k, (c, a) in enumerate(zip(coeffs, profile.alpha))])


def mixed_symbol(x, xi, p, terms) -> np.ndarray:
    """General mixed-derivative symbol sum_j c_j(x, p) prod_k (2 pi i
    xi_k)^(orders_jk); terms is a list of (coeff, orders) pairs."""
    xi = np.asarray(xi, dtype=float)
    total = 0.0 + 0.0j
    for coeff, orders in terms:
        factor = 1.0 + 0.0j
        for k, o in enumerate(orders):
            if o != 0:
                factor = factor * fractional_factor(xi[..., k], o)
        total = total + _eval_coeff(coeff, x, p) * factor
    return total


def delta_regularization(symbol_values, delta: float) -> np.ndarray:
    """|A|^2 / (|A|^2 + delta): the regularized indicator that tends to 1
    wherever the symbol stays away from zero."""
    if delta <= 0:
        raise DomainError("delta must be positive")
    a2 = np.abs(np.asarray(symbol_values)) ** 2
    return a2 / (a2 + delta)


# --- non-degeneracy scan ------------------------------------------------------

@dataclass
class NonDegeneracyReport:
    """p-measure of the near-zero sets {p : |A(x, xi, p)| <= eps}."""

    eps_list: tuple[float, ...]
    measures: np.ndarray       # (x_samples, P_points, eps)
    sup_measure: np.ndarray    # (eps,)
    degenerate_flag: bool
    p_domain_measure: float
    threshold_fraction: float = 0.01

    def to_json_dict(self) -> dict:
        return {
            "eps": list(self.eps_list),
            "sup_measure": [float(v) for v in self.sup_measure],
            "degenerate": bool(self.degenerate_flag),
            "p_domain_measure": self.p_domain_measure,
            "threshold_fraction": self.threshold_fraction,
        }

    def rows(self):
        for x_idx in range(self.measures.shape[0]):
            for p_idx in range(self.measures.shape[1]):
                for e_idx, eps in enumerate(self.eps_list):
                    yield x_idx, p_idx, eps, float(self.measures[x_idx, p_idx, e_idx])


def _scan_measures(symbol_at, x_samples, mesh_points, eps_list,
                   cell_measure: float, n_cells: int,
                   threshold_fraction: float = 0.01) -> NonDegeneracyReport:
    eps_list = tuple(float(e) for e in eps_list)
    if any(e <= 0 for e in eps_list) or any(
            b <= a for a, b in zip(eps_list, eps_list[1:])):
        raise DomainError("eps_list must be positive and increasing")
    X, NP = len(x_samples), len(mesh_points)
    eps = np.asarray(eps_list)
    meas = np.empty((X, NP, eps.size))
    for ix, x in enumerate(x_samples):
        for ip, xi in enumerate(mesh_points):
            # counts of |A| <= eps for every eps at once (NaN sorts last)
            absA = np.sort(np.abs(symbol_at(x, xi)), axis=None)
            meas[ix, ip] = cell_measure * np.searchsorted(absA, eps, side="right")
    sup = meas.max(axis=(0, 1))
    domain = cell_measure * n_cells
    flag = bool(sup[0] > threshold_fraction * domain)
    return NonDegeneracyReport(eps_list, meas, sup, flag, domain,
                               threshold_fraction)


def nondegeneracy_scan(coeffs, x_samples, profile: AnisotropyProfile,
                       P_resolution: int, p_grid: np.ndarray,
                       eps_list: Sequence[float],
                       p_cell_measure: float | None = None) -> NonDegeneracyReport:
    """Midpoint-quadrature measure of {p : |A(x, xi, p)| <= eps} for every
    x sample and every mesh point xi on P.

    p_grid is a 1-d array of uniform midpoints (or (N, m) points together
    with an explicit p_cell_measure)."""
    from .anisotropy import mesh_P
    p_grid = np.asarray(p_grid, dtype=float)
    if p_cell_measure is None:
        if p_grid.ndim != 1 or p_grid.size < 2:
            raise DomainError("pass p_cell_measure for non-1d velocity grids")
        p_cell_measure = float(p_grid[1] - p_grid[0])
    mesh = [pt.as_array() for pt in mesh_P(profile, P_resolution)]

    def symbol_at(x, xi):
        vals = principal_symbol(x, xi, p_grid, coeffs, profile)
        if np.shape(vals) != p_grid.shape[:1]:
            # p-independent coefficients give a scalar symbol; the
            # sub-level count still ranges over the whole velocity grid
            vals = np.broadcast_to(vals, p_grid.shape[:1])
        return vals

    return _scan_measures(symbol_at, list(x_samples), mesh, eps_list,
                          p_cell_measure, p_grid.shape[0])


# --- transport evolution ------------------------------------------------------

@dataclass
class TransportProblem:
    """du/dt + a(p) . grad_x u = 0 with zero-spatial-mean initial data."""

    grid: SpectralGrid
    a: Callable | np.ndarray   # (p...) -> (..., d) or sampled (*n_velocity, d)
    generator: SequenceGenerator
    t: float

    def velocity_field(self) -> np.ndarray:
        if callable(self.a):
            coords = np.meshgrid(*[self.grid.velocity_axis(i)
                                   for i in range(self.grid.m)], indexing="ij")
            vals = np.asarray(self.a(*coords), dtype=float)
        else:
            vals = np.asarray(self.a, dtype=float)
        want = self.grid.n_velocity + (self.grid.d,)
        vals = np.broadcast_to(vals, want)
        if not np.all(np.isfinite(vals)):
            raise DomainError("transport velocity a(p) must be finite")
        return vals


def transport_evolve(problem: TransportProblem, n: int) -> SpectralField:
    """Exact solution at time t: every spatial mode xi is multiplied by
    e^(-2 pi i t a(p).xi), so the per-p L2 norm is conserved exactly."""
    u0 = problem.generator.field(n)
    grid = u0.grid
    if grid.m == 0:
        raise DomainError("transport needs velocity axes")
    a = problem.velocity_field()
    xi = grid.frequency_vectors()  # (*spatial, d)
    exponent = np.zeros(grid.shape)
    for k in range(grid.d):
        xk = xi[..., k].reshape(grid.n_per_axis + (1,) * grid.m)
        ak = a[..., k].reshape((1,) * grid.d + grid.n_velocity)
        exponent = exponent + xk * ak
    phase = np.exp(-2j * np.pi * problem.t * exponent)
    U = forward_dft(u0)
    return inverse_dft(U.with_values(U.values * phase))


# --- velocity averaging -------------------------------------------------------

def _rho_on_grid(rho, grid: SpectralGrid) -> np.ndarray:
    if callable(rho):
        coords = np.meshgrid(*[grid.velocity_axis(i) for i in range(grid.m)],
                             indexing="ij")
        vals = np.asarray(rho(*coords), dtype=float)
    else:
        vals = np.asarray(rho, dtype=float)
    return np.broadcast_to(vals, grid.n_velocity)


def velocity_average(u: SpectralField, rho) -> SpectralField:
    """Midpoint quadrature int u(x, p) rho(p) dp; rho should be compactly
    supported inside the velocity box (boundary support only warns)."""
    u.require(PHYSICAL)
    grid = u.grid
    if grid.m == 0:
        raise DomainError("field has no velocity axes to average over")
    rho_vals = _rho_on_grid(rho, grid)
    peak = float(np.max(np.abs(rho_vals)))
    if peak > 0:
        for i in range(grid.m):
            edge = np.moveaxis(rho_vals, i, 0)[[0, -1]]
            if float(np.max(np.abs(edge))) > 1e-12 * peak:
                warnings.warn(
                    f"velocity weight touches the boundary of p-axis {i}",
                    SupportWarning, stacklevel=2)
                break
    dv = grid.velocity_cell_volume
    avg = np.tensordot(np.asarray(u.values), rho_vals,
                       axes=(grid.velocity_axes, tuple(range(grid.m)))) * dv
    return SpectralField(grid.spatial_only(), avg, PHYSICAL)


@dataclass
class DecayTable:
    """Windowed L2 norms of velocity averages along a sequence, with the
    ratios r(n) = norm(n) / norm(n_min)."""

    n_list: tuple[int, ...]
    norms: tuple[float, ...]
    ratios: tuple[float, ...]

    def rows(self):
        return list(zip(self.n_list, self.norms, self.ratios))


def _window_mask(grid: SpectralGrid, window) -> np.ndarray:
    mask = np.ones(grid.n_per_axis, dtype=bool)
    for k, (lo, hi) in enumerate(window):
        L = grid.length_per_axis[k]
        if not 0 <= lo < hi <= L:
            raise DomainError("window must be an ordered sub-box of the torus")
        x = grid.coord_axis(k)
        shp = [1] * grid.d
        shp[k] = x.size
        mask = mask & ((x >= lo) & (x < hi)).reshape(shp)
    return mask


def compactness_metric(gen: SequenceGenerator, rho, window,
                       n_list: Sequence[int]) -> DecayTable:
    """L2 norm of the velocity average over a window, per n.  Strong decay
    of the ratios is the observable footprint of velocity averaging."""
    n_list = tuple(n_list)
    if len(n_list) < 2:
        raise DomainError("need at least 2 sequence indices")
    norms = []
    for n in n_list:
        u = gen.field(n)
        avg = velocity_average(u, rho)
        mask = _window_mask(avg.grid, window)
        norms.append(float(np.sqrt(
            np.sum(np.abs(avg.values[mask]) ** 2) * avg.grid.cell_volume)))
    base = norms[0]
    ratios = tuple(v / base if base > 0 else 0.0 for v in norms)
    return DecayTable(n_list, tuple(norms), ratios)


# --- splitting diagnostic -----------------------------------------------------

def beta_split_weights(tau: float, xi, a_of_p, beta: float) -> tuple[float, float]:
    """Splitting factors of the homogeneous transport analysis:
    w_u = beta^2 |xi|^2 / ((tau + a.xi)^2 + beta^2 |xi|^2) and
    w_g = |tau + a.xi| |xi| / (same denominator); w_u lies in [0, 1]."""
    xi = np.asarray(xi, dtype=float)
    a = np.asarray(a_of_p, dtype=float)
    drift = float(tau + np.dot(a, xi))
    norm = float(np.linalg.norm(xi))
    denom = drift ** 2 + beta ** 2 * norm ** 2
    if denom == 0:
        raise SingularPointError("splitting weights undefined: tau + a.xi and beta|xi| both vanish")
    return (beta ** 2 * norm ** 2 / denom, abs(drift) * norm / denom)


# --- weak form ----------------------------------------------------------------

@dataclass
class WeakTestFunction:
    """A smooth test function g(x, p) with its velocity derivatives
    supplied analytically: p_derivatives maps the multi-index kappa to the
    sampled array of d_p^kappa g."""

    values: np.ndarray
    p_derivatives: dict = field(default_factory=dict)

    def derivative(self, kappa: tuple[int, ...]) -> np.ndarray:
        if all(k == 0 for k in kappa):
            return self.values
        key = tuple(int(k) for k in kappa)
        if key not in self.p_derivatives:
            raise DomainError(f"velocity derivative {key} not supplied")
        return np.asarray(self.p_derivatives[key])


def _coeff_arrays(coeffs, grid: SpectralGrid) -> list[np.ndarray]:
    out = []
    xs = grid.coordinates()
    ps = grid.velocity_coordinates()
    for c in coeffs:
        if callable(c):
            vals = np.asarray(c(*xs, *ps), dtype=complex)
        else:
            vals = np.asarray(c, dtype=complex)
        out.append(np.broadcast_to(vals, grid.shape))
    return out


def weak_form_residual(u: SpectralField, coeffs, G: SpectralField | None,
                       g: WeakTestFunction, kappa: tuple[int, ...],
                       profile: AnisotropyProfile) -> complex:
    """Residual of the weak formulation: the equation pairing

        int sum_k a_k u conj((-d_k)^(alpha_k) g) dx dp
          - (-1)^|kappa| int G conj(d_p^kappa g) dx dp,

    with the x-derivatives applied spectrally and the p-integral by
    midpoint quadrature.  Vanishes (to discretization accuracy) on exact
    solutions with matching forcing."""
    u.require(PHYSICAL)
    grid = u.grid
    if grid.m == 0:
        raise DomainError("the weak form needs velocity axes")
    if len(coeffs) != grid.d:
        raise DomainError("need one coefficient per spatial axis")
    a_vals = _coeff_arrays(coeffs, grid)
    gvals = np.asarray(g.values, dtype=complex)
    if gvals.shape != grid.shape:
        raise DomainError("test function samples do not match the grid")
    # a view: the field freezes its own handle, not the caller's g.values
    Gspec = forward_dft(SpectralField(grid, gvals.view(), PHYSICAL))
    measure = grid.cell_volume * grid.velocity_cell_volume
    lhs = 0.0 + 0.0j
    for k in range(grid.d):
        sym = fractional_axis_symbol(grid, k, profile.alpha[k],
                                     conjugate_direction=True)
        dg = inverse_dft(_apply_spatial_multiplier(Gspec, sym)).values
        lhs = lhs + np.sum(a_vals[k] * np.asarray(u.values) * np.conj(dg)) * measure
    rhs = 0.0 + 0.0j
    if G is not None:
        G.require(PHYSICAL)
        dk = g.derivative(tuple(kappa))
        sign = (-1.0) ** int(sum(kappa))
        rhs = sign * np.sum(np.asarray(G.values) * np.conj(dk)) * measure
    return complex(lhs - rhs)


def build_gn_test_function(u: SpectralField, psi: SymbolOnP, phi,
                           rho1, rho2, profile: AnisotropyProfile,
                           cutoff_radius: float = 1.0) -> SpectralField:
    """The localized test function rho1(p) int (I o A_psi)(phi u(., q))(x)
    rho2(q) dq, where I is the smoothing operator and A_psi the projected
    multiplier.  Bounded by the sup of the composed smooth symbol."""
    u.require(PHYSICAL)
    grid = u.grid
    if grid.m == 0:
        raise DomainError("field has no velocity axes")
    if callable(phi):
        phi = np.asarray(phi(*grid.spatial_only().coordinates()), dtype=complex)
    phi = np.broadcast_to(np.asarray(phi, dtype=complex), grid.n_per_axis)
    fu = u.with_values(np.asarray(u.values)
                       * phi.reshape(grid.n_per_axis + (1,) * grid.m))
    w = smoothing_inverse(apply_projected_symbol(fu, psi, profile),
                          profile, cutoff_radius)
    avg = velocity_average(w, rho2)
    rho1_vals = _rho_on_grid(rho1, grid)
    vals = (np.asarray(avg.values).reshape(grid.n_per_axis + (1,) * grid.m)
            * rho1_vals.reshape((1,) * grid.d + grid.n_velocity))
    return SpectralField(grid, vals, PHYSICAL)
