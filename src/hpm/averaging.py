"""Velocity-averaging experiments: exact spectral transport evolution,
velocity averages, compactness decay tables, and the non-degeneracy
scanner of the principal symbol of the model equation

    sum_k a_k(x, p) d_{x_k}^{alpha_k} u = G.

Transport is an operator on one snapshot: transport_spectrum(u0, a, t)
applies the exact solution operator of du/dt + a(p).grad_x u = 0, which
multiplies every spatial mode xi of u0 by e^{-2 pi i t a(p).xi}, so
averaging effects are isolated from any scheme diffusion, and every mode
evolves on its own.  It therefore runs on a spectral.SpectralBand, the
box of modes where the spectrum can be nonzero (forward_dft gives the
band of every index): the phase is applied as d per-axis factors
e^{-2 pi i t xi_k a_k(p)} at the box's frequencies, each on a small
(|B_k|, 1, ..., n_p) slab.  The p-quadrature acts on the velocity axes
only and so commutes with the spatial DFT: velocity_average works on a
field and on a band alike, and compactness_metric inverts only a band's
d-dimensional average, on its box (spectral.inverse_dft).
The CLI's sequence is n -> transport_spectrum(u0_n, a, t) with
u0_n the envelope's band shifted by n (spectral.oscillated_spectrum),
so its averaging run makes no full-grid pass after the random draw: no
DFT, no phase and no quadrature over the whole grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .anisotropy import AnisotropyProfile, mesh_P
from .errors import DomainError, IntegrityError, SupportWarning
from .multiplier import fractional_factor
from .spectral import SpectralBand, SpectralField, SpectralGrid, forward_dft, inverse_dft

# --- principal symbol ---------------------------------------------------------

def _eval_coeff(coeff, x, p):
    if callable(coeff):
        return np.asarray(coeff(x, p), dtype=complex)
    return np.asarray(coeff, dtype=complex)


def principal_symbol(x, xi, p, coeffs, profile: AnisotropyProfile):
    """A(x, xi, p) = sum_k a_k(x, p) (2 pi i xi_k)^(alpha_k), summed from
    0 + 0j in axis order.

    coeffs is either a single callable (x, p) -> (..., d), evaluated once,
    or a sequence of d per-axis entries, each a callable (x, p) -> (...) or
    a constant; the result is vectorized over the leading axes of p."""
    xi = np.asarray(xi, dtype=float)
    return sum((ak * fractional_factor(xi[..., k], alpha) for k, (ak, alpha)
                in enumerate(zip(_axis_coeffs(coeffs, x, p, profile.d),
                                 profile.alpha))), 0.0 + 0.0j)


def _axis_coeffs(coeffs, x, p, d: int) -> list:
    """The d per-axis coefficient values a_k(x, p), see principal_symbol."""
    if callable(coeffs):
        a = np.asarray(coeffs(x, p), dtype=complex)
        return [a[..., k] for k in range(d)]
    if len(coeffs) != d:
        raise DomainError("need one coefficient per spatial axis")
    return [_eval_coeff(c, x, p) for c in coeffs]


# --- non-degeneracy scan ------------------------------------------------------

@dataclass
class NonDegeneracyReport:
    """p-measure of the near-zero sets {p : |A(x, xi, p)| <= eps}."""

    eps_list: tuple[float, ...]
    measures: np.ndarray       # (x_samples, P_points, eps)
    sup_measure: np.ndarray    # (eps,)
    degenerate_flag: bool
    p_domain_measure: float

    def to_json_dict(self) -> dict:
        return {
            "eps": list(self.eps_list),
            "sup_measure": [float(v) for v in self.sup_measure],
            "degenerate": bool(self.degenerate_flag),
            "p_domain_measure": self.p_domain_measure,
            "threshold_fraction": _THRESHOLD_FRACTION,
        }


_BLOCK_BYTES = 1 << 18  # one (rows, n_cells) complex block of a scan
_THRESHOLD_FRACTION = 0.01  # share of the p-domain above which a scan is degenerate


def _scan_measures(symbol_at, x_samples, mesh: np.ndarray, eps_list,
                   cell_measure: float, n_cells: int) -> NonDegeneracyReport:
    """Measures of {|symbol_at(x, rows)| <= eps}, where NaN never counts,
    with the (M, ...) mesh array cut into blocks of rows, each symbol
    block of shape (rows, n_cells) or broadcastable to it."""
    eps_list = tuple(float(e) for e in eps_list)
    if not eps_list or any(e <= 0 for e in eps_list) or any(
            b <= a for a, b in zip(eps_list, eps_list[1:])):
        raise DomainError("eps_list must be non-empty, positive and increasing")
    if len(x_samples) == 0:
        raise DomainError("x_samples must not be empty")
    rows = max(1, _BLOCK_BYTES // (16 * n_cells))
    meas = np.empty((len(x_samples), len(mesh), len(eps_list)))
    for ix, x in enumerate(x_samples):
        for i in range(0, len(mesh), rows):
            out = meas[ix, i:i + rows]
            absA = np.broadcast_to(np.abs(symbol_at(x, mesh[i:i + rows])),
                                   (len(out), n_cells))
            for ie, eps in enumerate(eps_list):
                out[:, ie] = np.count_nonzero(absA <= eps, axis=1)
    meas *= cell_measure
    sup = meas.max(axis=(0, 1))
    domain = cell_measure * n_cells
    return NonDegeneracyReport(eps_list, meas, sup,
                               bool(sup[0] > _THRESHOLD_FRACTION * domain), domain)


def nondegeneracy_scan(coeffs, x_samples, profile: AnisotropyProfile,
                       P_resolution: int, p_grid: np.ndarray,
                       eps_list: Sequence[float]) -> NonDegeneracyReport:
    """Midpoint-quadrature measure of {p : |A(x, xi, p)| <= eps} for every
    x sample and every mesh point xi on P.

    p_grid is a 1-d array of at least 2 uniform midpoints.  The
    coefficients are evaluated once per x sample; a value that is not
    finite raises IntegrityError."""
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.ndim != 1 or p_grid.size < 2:
        raise DomainError("p_grid must be a 1-d array of at least 2 midpoints")
    mesh, _ = mesh_P(profile, P_resolution)
    # the scan walks rows of the per-axis factors (2 pi i xi_k)^(alpha_k)
    factors = np.stack([fractional_factor(mesh[:, k], a)
                        for k, a in enumerate(profile.alpha)], axis=-1)
    per_x = [_axis_coeffs(coeffs, x, p_grid, profile.d) for x in x_samples]
    for ix, a in enumerate(per_x):
        for k, ak in enumerate(a):
            bad = np.size(ak) - int(np.count_nonzero(np.isfinite(ak)))
            if bad:
                raise IntegrityError(
                    f"coefficient a_{k + 1}(x, p) is not finite at x sample "
                    f"{ix}: {bad} of {np.size(ak)} values")

    def symbol_at(a, F):
        # term by term from 0 + 0j in axis order, as principal_symbol sums,
        # so |A| matches it bit for bit; a constant a_k gives a (rows, 1) column
        return sum((ak * F[:, k, None] for k, ak in enumerate(a)), 0.0 + 0.0j)

    return _scan_measures(symbol_at, per_x, factors, eps_list,
                          float(p_grid[1] - p_grid[0]), p_grid.size)


# --- transport evolution ------------------------------------------------------

def transport_spectrum(u0: SpectralField | SpectralBand, a, t: float) -> SpectralBand:
    """Exact solution at time t of du/dt + a(p) . grad_x u = 0 from the
    snapshot u0 (a field or a band), as a band on u0's box: every spatial
    mode xi is multiplied by e^(-2 pi i t a(p).xi), so the per-p L2 norm
    is conserved exactly.  a is a callable (p...) -> (..., d) or its
    samples (*n_velocity, d); a velocity or a phase that is not finite is
    an IntegrityError."""
    grid = u0.grid
    if grid.m == 0:
        raise DomainError("transport needs velocity axes")
    a = np.broadcast_to(grid.sample_velocity(a), grid.n_velocity + (grid.d,))
    if not np.all(np.isfinite(a)):
        raise IntegrityError("transport velocity a(p) is not finite")
    U = forward_dft(u0) if isinstance(u0, SpectralField) else u0
    # the phase is d per-axis factors, each on a (|B_k|, 1, ..., n_velocity)
    # slab: the first product allocates the output, the rest multiply in
    # place, so no exponent or phase of the whole box is ever built
    out = None
    for k, i in enumerate(U.index):
        xk = grid.on_axis(grid.freq_axis(k)[i], k)
        with np.errstate(all="ignore"):  # an overflow is reported below
            phase = -2j * np.pi * t * (xk * a[..., k])
        if not np.all(np.isfinite(phase)):
            raise IntegrityError(
                f"transport phase 2 pi t a_{k + 1}(p) xi_{k + 1} is not finite")
        factor = np.exp(phase)
        if out is None:
            out = U.values * factor
        else:
            out *= factor
    return U.with_values(out)


def transport_evolve(u0: SpectralField | SpectralBand, a, t: float) -> SpectralField:
    """Exact solution at time t in physical space, see transport_spectrum."""
    return inverse_dft(transport_spectrum(u0, a, t))


# --- velocity averaging -------------------------------------------------------

def _rho_on_grid(rho, grid: SpectralGrid) -> np.ndarray:
    return np.broadcast_to(grid.sample_velocity(rho), grid.n_velocity)


def _rho_at_ends(rho, rho_vals: np.ndarray, grid: SpectralGrid, i: int) -> np.ndarray:
    """The weight at both ends of p-axis i: on the faces p_i = -P_i/2 and
    P_i/2 of the closed box (the other axes at their midpoints) for a
    callable, at the outermost midpoints for sampled values."""
    if not callable(rho):
        return np.moveaxis(rho_vals, i, 0)[[0, -1]]
    axes = [grid.velocity_axis(j) for j in range(grid.m)]
    axes[i] = np.array([-0.5, 0.5]) * grid.velocity_length[i]
    with np.errstate(all="ignore"):  # the quadrature never uses these points
        return np.asarray(rho(*np.meshgrid(*axes, indexing="ij")), dtype=float)


def velocity_average(u: SpectralField | SpectralBand, rho) -> SpectralField | SpectralBand:
    """Midpoint quadrature int u(x, p) rho(p) dp; rho should be compactly
    supported inside the velocity box (boundary support only warns: a
    callable weight must vanish on the faces of the closed box, sampled
    values at the outermost midpoints), and samples of it that are not
    finite are an IntegrityError.  The quadrature acts on the velocity
    axes only, so u may be a field, whose average is a field, or a band,
    whose average is a band on the same box of spatial modes."""
    grid = u.grid
    if grid.m == 0:
        raise DomainError("field has no velocity axes to average over")
    rho_vals = _rho_on_grid(rho, grid)
    bad = rho_vals.size - int(np.count_nonzero(np.isfinite(rho_vals)))
    if bad:
        raise IntegrityError(f"non-finite velocity weight rho(p): {bad} of "
                             f"{rho_vals.size} samples")
    peak = float(np.max(np.abs(rho_vals)))
    if peak > 0:
        for i in range(grid.m):
            edge = _rho_at_ends(rho, rho_vals, grid, i)
            if float(np.max(np.abs(edge))) > 1e-12 * peak:
                warnings.warn(
                    f"velocity weight touches the boundary of p-axis {i}",
                    SupportWarning, stacklevel=2)
                break
    dv = grid.velocity_cell_volume
    avg = np.tensordot(np.asarray(u.values), rho_vals,
                       axes=(grid.velocity_axes, tuple(range(grid.m)))) * dv
    if isinstance(u, SpectralBand):
        return SpectralBand(grid.spatial_only(), avg, u.index)
    return SpectralField(grid.spatial_only(), avg)


@dataclass
class DecayTable:
    """Windowed L2 norms of velocity averages along a sequence, with the
    ratios r(n) = norm(n) / norm(n_min)."""

    n_list: tuple[int, ...]
    norms: tuple[float, ...]
    ratios: tuple[float, ...]


def window_mask(grid: SpectralGrid, window) -> np.ndarray:
    """The grid samples x with lo_k <= x_k < hi_k on every axis for the
    window [(lo_1, hi_1), ...], an ordered sub-box of the torus that holds
    at least one sample; DomainError otherwise."""
    if len(window) != grid.d:
        raise DomainError("window needs one interval per spatial axis")
    mask = np.ones(grid.n_per_axis, dtype=bool)
    xs = grid.coordinates()
    for k, (lo, hi) in enumerate(window):
        if not 0 <= lo < hi <= grid.length_per_axis[k]:
            raise DomainError("window must be an ordered sub-box of the torus")
        mask = mask & (xs[k] >= lo) & (xs[k] < hi)
    if not mask.any():
        raise DomainError(f"window {[list(w) for w in window]} holds no grid sample")
    return mask


def compactness_metric(seq: Callable[[int], SpectralField | SpectralBand], rho,
                       window, n_list: Sequence[int]) -> DecayTable:
    """L2 norm of the velocity average over a window, per n.  Strong decay
    of the ratios is the observable footprint of velocity averaging; a
    zero norm at n_min leaves them undefined, an IntegrityError.  The
    snapshots may be fields or bands; the average of a band is
    transformed back before the window is applied."""
    n_list = tuple(n_list)
    if len(n_list) < 2:
        raise DomainError("need at least 2 sequence indices")
    norms = []
    for n in n_list:
        avg = velocity_average(seq(n), rho)
        if isinstance(avg, SpectralBand):
            avg = inverse_dft(avg)
        values = np.abs(avg.values[window_mask(avg.grid, window)])
        # scaled by the power of two 2^-e of their maximum, which rounds
        # nothing, so that no square of a tiny or huge weight leaves the
        # float range
        e = np.frexp(np.max(values))[1]
        norm = np.sqrt(np.sum(np.ldexp(values, -e) ** 2) * avg.grid.cell_volume)
        norms.append(float(np.ldexp(norm, e)))
    base = norms[0]
    if base == 0:
        raise IntegrityError(f"the windowed average at n_min = {n_list[0]} is 0: "
                             f"the ratios r(n) = norm(n) / norm(n_min) are undefined")
    return DecayTable(n_list, tuple(norms), tuple(v / base for v in norms))
