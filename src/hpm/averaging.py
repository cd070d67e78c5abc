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
from .spectral import (SpectralBand, SpectralField, SpectralGrid, block_rows,
                       forward_dft, increasing, inverse_dft, l2_norm, normal_norm)

# --- principal symbol ---------------------------------------------------------

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
        coeffs = [a[..., k] for k in range(a.shape[-1] if a.ndim else 0)]
    if len(coeffs) != d:
        raise DomainError("need one coefficient per spatial axis")
    return [np.asarray(c(x, p) if callable(c) else c, dtype=complex) for c in coeffs]


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


_THRESHOLD_FRACTION = 0.01  # share of the p-domain above which a scan is degenerate

# the certified screen of _scan_measures and nondegeneracy_scan: the unit
# roundoff, the relative slack kappa of the squared thresholds and the
# floor below which a threshold is left to the exact path
_U = 2.0 ** -53
_KAPPA = 32
_FLOOR = 2.0 ** -500


def _cell_width(grid: np.ndarray, name: str) -> float:
    """The cell measure grid[1] - grid[0] of a 1-d grid of at least 2
    uniform midpoints, strictly increasing, whose steps differ from the
    first by at most rounding: 64 ulps of the grid's largest magnitude,
    which covers the few roundings of lo + (k + 1/2) (hi - lo) / n, the
    midpoints cli._midpoints builds.  DomainError otherwise."""
    if grid.ndim != 1 or grid.size < 2:
        raise DomainError(f"{name} must be a 1-d array of at least 2 midpoints")
    steps = np.diff(grid)
    if not (np.all(np.isfinite(grid)) and np.all(steps > 0)):
        raise DomainError(f"{name} must be finite and strictly increasing")
    if np.max(np.abs(steps - steps[0])) > 64 * np.spacing(
            max(abs(grid[0]), abs(grid[-1]))):
        raise DomainError(f"{name} must be uniform: its steps run from "
                          f"{steps.min()!r} to {steps.max()!r}")
    return float(steps[0])


def _screen_thresholds(eps_list, margins: np.ndarray):
    """Per block, the (eps, 1, 1) squared thresholds at or below which an
    estimate's m^2 counts for certain, and above which it cannot count,
    for the blocks' margins delta, see _scan_measures."""
    eps = np.array(eps_list)
    delta = margins[:, None]
    low = eps - delta
    certain = np.where(low >= _FLOOR, low * low * (1 - _KAPPA * _U), -np.inf)
    possible = np.maximum((eps + delta) ** 2 * (1 + _KAPPA * _U), 2 * _FLOOR ** 2)
    return certain[..., None, None], possible[..., None, None]


def _scan_measures(symbol_at, x_samples, mesh: np.ndarray, eps_list,
                   cell_measure: float, n_cells: int,
                   screen=None) -> NonDegeneracyReport:
    """Measures of {|symbol_at(x, rows)| <= eps}, where NaN never counts,
    with the (M, ...) mesh array cut into blocks of rows whose complex
    symbol, of shape (rows, n_cells) or broadcastable to it, and whose
    comparisons with every eps at once, one reused (eps, rows, n_cells)
    bool stack summed once per block, each fit in one block_rows block.

    screen(x, rows), if given, returns None or, for the blocks of `rows`
    mesh rows, a pair (squares, margins): margins[b] is a margin delta of
    block b, and squares(i, n) the (n, n_cells) values
    m^2 = fl(fl(e_re^2) + fl(e_im^2)) of an estimate e of the symbol of
    the n rows from i on, such that | |e| - |A| | <= delta / (1 + 8u)
    for the symbol A that symbol_at rounds (u = 2^-53), and |e| < 2^501
    where delta is finite.  A block whose margin is inf is not screened.
    Its counts are then bracketed, for each eps, by

        m^2 <= ((eps - delta)_+)^2 (1 - kappa u)   counts for certain,
        m^2 <= (eps + delta)^2 (1 + kappa u)       may count,

    each threshold a few roundings off.  The first implies |A| <= eps
    and the second follows from it, where |A| is np.abs of the symbol:
    hypot within 8u of the modulus, the two squares and their sum within
    3u, the thresholds' four roundings within 4u each way; so kappa >= 23
    suffices and _KAPPA = 32.  For eps - delta below 2^-500 nothing
    counts for certain (eps <= delta among them), and the second
    threshold is at least 2^-999, so the underflow of a square or of a
    subnormal estimate, off by at most 2^-1073, stays inside the slack.
    Where the two counts agree on every row and eps they are the exact
    counts; elsewhere the block is counted from symbol_at.  The screen
    runs under np.errstate(all="ignore"), the exact path under the
    caller's."""
    eps_list = increasing((float(e) for e in eps_list), 1, "eps_list")
    if any(e <= 0 for e in eps_list):
        raise DomainError(f"eps_list must be positive, got {list(eps_list)}")
    if len(x_samples) == 0:
        raise DomainError("x_samples must not be empty")
    rows = block_rows(max(16, len(eps_list)) * n_cells)
    thresholds = np.array(eps_list)[:, None, None]
    below = np.empty((len(eps_list), min(rows, len(mesh)), n_cells), dtype=bool)
    count = np.min_scalar_type(n_cells)  # an integer that holds any count

    def compare(values, limits):
        return np.less_equal(values, limits, out=below[:, :len(values)])

    def tally(hit):
        return hit.view(np.uint8).sum(axis=2, dtype=count).T

    meas = np.empty((len(x_samples), len(mesh), len(eps_list)))
    caller = np.geterr()
    with np.errstate(all="ignore"):
        for ix, x in enumerate(x_samples):
            estimate = screen(x, rows) if screen else None
            if estimate:
                squares, margins = estimate
                certain, possible = _screen_thresholds(eps_list, margins)
            for i in range(0, len(mesh), rows):
                out, b = meas[ix, i:i + rows], i // rows
                if estimate and margins[b] < np.inf:
                    m2 = squares(i, len(out))
                    sure = tally(compare(m2, certain[b]))
                    # every sure hit may count: the counts agree if the totals do
                    if np.count_nonzero(compare(m2, possible[b])) == sure.sum():
                        out[:] = sure
                        continue
                with np.errstate(**caller):
                    out[:] = tally(compare(np.abs(symbol_at(x, mesh[i:i + rows])),
                                           thresholds))
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

    p_grid is a 1-d array of at least 2 uniform, increasing midpoints
    (_cell_width).  The coefficients are evaluated once per x sample; a
    value that is not finite raises IntegrityError.  A block of mesh rows
    that the screen below leaves undecided is counted by principal_symbol.

    When every a_k(x, p) of an x sample is real, a screen counts first
    (_scan_measures): two real GEMMs e = (Re F @ a, Im F @ a) of the
    block's (rows, d) factors F_k = (2 pi i xi_k)^(alpha_k) and the (d, p)
    coefficients, with the margin delta = c (u T + 2^-1074), c = 4 (d + 1),
    T = sum_k max|F_k| max|a_k| over the block and p.  Each plane of e
    and of the exact path is a sum of the same d products a_k Re F_k (or
    a_k Im F_k; a real a_k times F_k rounds each part alone) in some
    order, so each is within gamma_d = d u / (1 - d u) of the exact sum,
    relative to sum_k |a_k| |F_k| <= T, and within d 2^-1075 more where
    products underflow.  Hence | |e| - |A| | <= 2 gamma_d T + 3 d 2^-1075,
    and c = 2 (d + 1) already bounds that times 1 + 8u with the roundings
    of T and of np.abs(F) inside; c takes twice it.  A plane of F that is
    0 at every mesh point, as one is when the alpha_k are all odd or all
    even integers below 100, is left out of e: its plane of A is then 0.
    A block with T >= 2^500, where e might overflow, is not screened."""
    p_grid = np.asarray(p_grid, dtype=float)
    cell = _cell_width(p_grid, "p_grid")
    mesh, _ = mesh_P(profile, P_resolution)
    # the screen's rows of the per-axis factors (2 pi i xi_k)^(alpha_k)
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

    def symbol_at(a, rows):
        return principal_symbol(None, rows[:, None], p_grid, a, profile)

    # the screen's (rows, d) planes of F that are nonzero somewhere
    moduli = np.abs(factors)
    parts = [np.ascontiguousarray(z) for z in (factors.real, factors.imag)
             if np.any(z)]

    def screen(a, rows):
        if any(np.any(ak.imag) for ak in a):
            return None
        # a constant of the sequence form is one 0-d value
        coef = np.array([np.broadcast_to(ak.real, p_grid.shape) for ak in a])
        top = (np.maximum.reduceat(moduli, np.arange(0, len(mesh), rows), axis=0)
               @ np.abs(coef).max(axis=1))
        margins = np.where(top < 2.0 ** 500,
                           4 * (profile.d + 1) * (_U * top + 2.0 ** -1074), np.inf)
        est = np.empty((len(parts), min(rows, len(mesh)), p_grid.size))

        def squares(i, n):
            # e^2 of the first plane, plus that of the second if kept
            m2 = np.matmul(parts[0][i:i + n], coef, out=est[0, :n])
            np.square(m2, out=m2)
            for z, t in zip(parts[1:], est[1:]):
                t = np.matmul(z[i:i + n], coef, out=t[:n])
                np.square(t, out=t)
                m2 += t
            return m2

        return squares, margins

    return _scan_measures(symbol_at, per_x, mesh, eps_list, cell, p_grid.size,
                          screen=screen)


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
    rho_vals = np.broadcast_to(grid.sample_velocity(rho), grid.n_velocity)
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
    """L2 norm of the velocity average over a window, per n of n_list, at
    least 2 strictly increasing indices (a DomainError otherwise), so its
    first entry is n_min.  Strong decay of the ratios is the observable
    footprint of velocity averaging; a zero norm at n_min leaves them
    undefined, an IntegrityError, as is a norm below the normal floats of
    a nonzero average (normal_norm).  The snapshots may be fields or
    bands; the average of a band is transformed back before the window is
    applied."""
    n_list = increasing(n_list, 2, "n_list")
    norms = []
    for n in n_list:
        avg = velocity_average(seq(n), rho)
        if isinstance(avg, SpectralBand):
            avg = inverse_dft(avg)
        windowed = avg.values[window_mask(avg.grid, window)]
        norms.append(normal_norm(l2_norm(windowed, avg.grid.cell_volume), windowed,
                                 f"the windowed average's L2 norm at n = {n}"))
    base = norms[0]
    if base == 0:
        raise IntegrityError(f"the windowed average at n_min = {n_list[0]} is 0: "
                             f"the ratios r(n) = norm(n) / norm(n_min) are undefined")
    return DecayTable(n_list, tuple(norms), tuple(v / base for v in norms))
