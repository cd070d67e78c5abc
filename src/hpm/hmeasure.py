"""Numerical estimation of anisotropic microlocal defect measures.

The central object is the bilinear form

    V_n = sum_xi psi(pi_P(xi)) F(phi_1 u_n)(xi) conj(F(phi_2 u_n)(xi)) vol_xi,

whose limit over a sequence u_n weakly converging to zero defines a measure
on x-space x P.  The measure is discretized on cells: C^1 hat partitions of
unity over a uniform x-grid, and angular sectors on P (for d = 2) or
normalized smooth direction weights (d >= 3).  The x-hats are separable,
kept as d per-axis factors, and no cell's hat is ever formed: a factor on
axis k commutes with the transforms of the other axes, so F(hat_c w) is
built in passes along axes 1..d (multiply by the factor, transform that
axis), and each cell reuses the passes it shares with the previous one.
The P-masks are real, so the cell forms come from real matrix products
(GEMM): every measure is one pass over the cells, in which a row writer
puts the R rows of each cell, the real parts of F(hat_c w_i)
conj(F(hat_c w_j)), into a stack over cells that meets the masks in
their (S, B) storage, plus a second GEMM for the imaginary parts of a
matrix measure (the scalar ones vanish).  A sequence is any callable
n -> u_n of zero-mean snapshots; its K = len(n_list) snapshots, or their
N velocity projections w_i for a matrix measure, are stacked and
transformed together, K N^2 rows per cell.  The snapshots of an
OscillationSequence are one envelope v (given as a field or as a band)
times exp(2 pi i kappa(n).x), kappa(n) on the lattice, minus the mean
m_n = F(v)(-kappa(n)) / |T|, so their spectra follow by the shift rule

    F(hat_c u_n) = roll(F(hat_c v), kappa(n) L) - m_n F(hat_c):

the rows of every n of a cell come from one transform of that cell.
Where m_n = 0, exactly so for a band envelope whose box misses
-kappa(n), the row of (c, n) is the cell's power spectrum
|F(hat_c v)|^2 rolled, formed once per cell.  The weighted trace of a
matrix measure and its x-marginal density come from its entries.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .anisotropy import AnisotropyProfile, project_lattice, project_to_P
from .errors import DomainError, IntegrityError, SupportWarning
from .multiplier import SymbolOnP, projected_symbol_lattice
from .spectral import (
    SpectralBand,
    SpectralField,
    SpectralGrid,
    dft_axis,
    forward_dft,
    inverse_dft,
    require,
    subtract_spatial_mean,
)


# --- limit extrapolation ------------------------------------------------------

def estimate_limit(values) -> tuple:
    """Rate-agnostic tail average along axis 0: mean of the last
    ceil(len/2) entries with the maximal in-tail deviation as error bar.
    A sequence of scalars gives (complex, float); a stack of arrays gives
    the elementwise limit and error arrays."""
    vals = np.asarray(values, dtype=complex)
    if vals.shape[0] < 3:
        raise DomainError("need at least 3 values to extrapolate a limit")
    tail = vals[-math.ceil(vals.shape[0] / 2):]
    avg = np.mean(tail, axis=0)
    return avg, np.max(np.abs(tail - avg), axis=0)


def _check_n_list(n_list) -> tuple[int, ...]:
    n_list = tuple(n_list)
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError("n_list must be increasing with at least 3 entries")
    return n_list


# --- bilinear form ------------------------------------------------------------

def _check_support(phi: np.ndarray, grid: SpectralGrid, label: str) -> None:
    """Warn if phi fails to vanish within 10% of the torus boundary."""
    peak = float(np.max(np.abs(phi)))
    if peak == 0:
        return
    for k in range(grid.d):
        n = grid.n_per_axis[k]
        band = max(1, int(0.1 * n))
        sl = [slice(None)] * phi.ndim
        sl[k] = np.r_[0:band, n - band:n]
        if float(np.max(np.abs(phi[tuple(sl)]))) > 1e-9 * peak:
            warnings.warn(
                f"test function {label} does not vanish near the boundary of axis {k}",
                SupportWarning, stacklevel=3)
            return


def bilinear_form(u: SpectralField, phi1, phi2, psi: SymbolOnP,
                  profile: AnisotropyProfile, via: str = "frequency") -> complex:
    """The H_P-measure generating form for a single snapshot u.

    phi1, phi2 are cut-off functions given as grid arrays or callables of
    the spatial coordinates.  With via="physical" the equivalent form
    int A_{psi o pi_P}(phi1 u) conj(phi2 u) dx is evaluated instead
    (it needs only F(phi1 u)); the two agree to Plancherel accuracy."""
    require(u, SpectralField)
    grid = u.grid
    phi1 = grid.sample(phi1)
    phi2 = grid.sample(phi2)
    _check_support(phi1, grid, "phi1")
    _check_support(phi2, grid, "phi2")
    sym = projected_symbol_lattice(psi, grid, profile)
    F1 = forward_dft(u.with_values(phi1 * u.values)).values
    if via == "frequency":
        conj_F2 = np.conj(forward_dft(u.with_values(phi2 * u.values)).values)
        total = np.sum(sym * F1 * conj_F2) * grid.freq_cell_volume
    elif via == "physical":
        Au = inverse_dft(SpectralBand.full(grid, sym * F1)).values
        total = np.sum(Au * np.conj(phi2 * u.values)) * grid.cell_volume
    else:
        raise DomainError(f"unknown evaluation route {via!r}")
    return complex(total)


# --- sequences ----------------------------------------------------------------

def _lattice_steps(profile: AnisotropyProfile, c, n: int,
                   grid: SpectralGrid) -> list[int]:
    """The integers round(n^(1/alpha_k) c_k L_k) = kappa_k(n) L_k;
    DomainError naming n where one of them is not finite."""
    c = np.asarray(c, dtype=float).tolist()  # Python floats: inf, no warning
    steps = []
    for k in range(profile.d):
        try:
            x = float(n) ** (1.0 / profile.alpha[k]) * c[k] * grid.length_per_axis[k]
        except OverflowError:  # n^(1/alpha_k) beyond the float range
            x = math.inf
        if not math.isfinite(x):
            raise DomainError(f"oscillation frequency is not finite at n={n}: "
                              f"n^(1/alpha_{k}) c_{k} L_{k} = {x}")
        steps.append(round(x))
    return steps


def oscillation_frequency(profile: AnisotropyProfile, c, n: int,
                          grid: SpectralGrid) -> np.ndarray:
    """Lattice frequency kappa(n) riding the fibre through the c-direction:
    kappa_k = round(n^(1/alpha_k) c_k L_k) / L_k."""
    steps = _lattice_steps(profile, c, n, grid)
    return np.array([s / L for s, L in zip(steps, grid.length_per_axis)])


def _lattice_shift(profile: AnisotropyProfile, c, n: int,
                   grid: SpectralGrid) -> tuple[int, ...]:
    """The shift kappa_k(n) L_k mod n_k of each axis, by which multiplying
    with exp(2 pi i kappa(n).x) rolls a spectrum.  Shifts of 0 on every
    axis alias kappa(n) to the zero mode, where the zero-mean snapshot
    is no oscillation: DomainError."""
    shift = tuple(s % nk for s, nk in
                  zip(_lattice_steps(profile, c, n, grid), grid.n_per_axis))
    if not any(shift):
        raise DomainError(f"oscillation frequency vanished at n={n}: kappa(n) "
                          f"aliases to the zero mode of the {grid.n_per_axis} lattice")
    return shift


def oscillation_sequence(profile: AnisotropyProfile, c, envelope: SpectralField,
                         n: int) -> SpectralField:
    """Zero-mean modulated envelope v(x) exp(2 pi i kappa(n).x); the
    frequencies travel up one fibre, so pi_P(kappa(n)) stabilizes."""
    require(envelope, SpectralField)
    grid = envelope.grid
    _lattice_shift(profile, c, n, grid)
    kap = oscillation_frequency(profile, c, n, grid)
    phase = sum(kk * x for kk, x in zip(kap, grid.coordinates()))
    mod = np.exp(2j * np.pi * phase)
    return subtract_spatial_mean(envelope.with_values(envelope.values * mod))


@dataclass(frozen=True)
class OscillationSequence:
    """n -> oscillation_sequence(profile, c, v, n) for the envelope v,
    whose cell forms scalar_hmeasure builds by the shift rule
    (_shifted_products): one transform per cell, not one per (cell, n).

    The envelope is a SpectralField or a SpectralBand; the field (what
    the snapshots modulate) and the band (what the means m_n =
    F(v)(-kappa(n)) / |T| are read from) are each derived once from it.
    A band's m_n is exactly 0.0 where its box misses -kappa(n), and those
    (cell, n) rows are rolled copies of the cell's power spectrum."""

    profile: AnisotropyProfile
    c: Sequence[float]
    envelope: SpectralField | SpectralBand
    physical: SpectralField = field(init=False, repr=False, compare=False)
    spectrum: SpectralBand = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = self.envelope
        if isinstance(v, SpectralField):
            spectrum = forward_dft(v)
        else:
            spectrum, v = v, inverse_dft(v)
        object.__setattr__(self, "physical", v)
        object.__setattr__(self, "spectrum", spectrum)

    def __call__(self, n: int) -> SpectralField:
        return oscillation_sequence(self.profile, self.c, self.physical, n)


# --- cell discretization ------------------------------------------------------

def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _periodic_hat(dist: np.ndarray, spacing: float) -> np.ndarray:
    """C^1 hat of half-width `spacing`; hats at consecutive centres form a
    partition of unity (smoothstep complement identity)."""
    return _smoothstep(1.0 - np.abs(dist) / spacing)


@dataclass
class CellBasis:
    """Hat partitions discretizing x-space and P.

    The x-cell hats are separable: cell c, the row-major index of
    (c_1, ..., c_d), has the hat prod_k x_factors[k][c_k] (along axis k).
    The P-masks are stored as the C-contiguous (S, B) array that the
    cell-form GEMMs read (S lattice points in FFT order, B P-cells);
    p_masks is its transposed (B, *spatial) view, so
    p_masks.reshape(B, -1).T is that storage itself."""

    x_factors: tuple[np.ndarray, ...]  # d arrays (x_cells, n_k), squares sum to one
    p_masks: np.ndarray         # (B, *spatial) view, partition of unity off xi=0

    def cell_indices(self):
        """The multi-indices (c_1, ..., c_d) of the x-cells in row-major order."""
        return np.ndindex(*(f.shape[0] for f in self.x_factors))

    def x_hat(self, cell) -> np.ndarray:
        """The hat of the x-cell with multi-index `cell` on the spatial grid."""
        return functools.reduce(
            np.multiply.outer, [f[i] for f, i in zip(self.x_factors, cell)])


_SCRATCH_BYTES = 1 << 18  # bytes of a P-mask builder's block of rows or scratch


def _angular_masks(pts: np.ndarray, masks: np.ndarray) -> None:
    """The angular-sector hats of the projected 2-d lattice points pts
    (S', 2) into the zeroed rows masks (S', B), one row per point, in
    blocks of rows of at most _SCRATCH_BYTES, each written while it is in
    cache.  A point's hat is nonzero only in the sectors next to its
    angle: the nearest centre m and m +- 1 (sector m +- 2 lies 1.5
    spacings away or more), so the hat formula is evaluated there alone,
    scattered into masks[point, b], and the other entries stay 0."""
    p_cells = masks.shape[1]
    spacing = 2 * np.pi / p_cells
    cang = np.arange(p_cells) * spacing
    width = max(1, _SCRATCH_BYTES // (8 * p_cells))
    for a in range(0, len(pts), width):
        block, rows = pts[a:a + width], masks[a:a + width]
        ang = np.arctan2(block[:, 1], block[:, 0]) % (2 * np.pi)
        nearest = np.rint(ang / spacing).astype(np.intp)
        cols = np.arange(ang.size)
        for offset in (-1, 0, 1):
            b = (nearest + offset) % p_cells
            dist = ang - cang[b]
            dist = (dist + np.pi) % (2 * np.pi) - np.pi
            rows[cols, b] = _periodic_hat(dist, spacing)


def _direction_masks(pts: np.ndarray, profile: AnisotropyProfile,
                     masks: np.ndarray) -> None:
    """Normalized Gaussian weights around B random directions projected
    onto P, at the projected lattice points pts (S', d), into the rows
    masks (S', B), one row per point.

    The points are taken in blocks of one width, each in a (B, width)
    scratch of at most _SCRATCH_BYTES (two points if a pair is larger):
    the squared distances summed one axis at a time, through a second
    scratch of the same size, then exp, the sum over the B weights and the
    division; the scratch is then written transposed into the block's
    rows.  The last block ends at the last point and may overlap the one
    before it, so every block is at least 2 points wide: numpy sums the
    (B, width) scratch over B in axis order, but a (B, 1) column
    pairwise."""
    n, d = pts.shape
    p_cells = masks.shape[1]
    rng = np.random.Generator(np.random.Philox(key=11))
    dirs = rng.standard_normal((p_cells, d))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    centers = project_to_P(dirs, profile)
    sigma = 1.5 * (4.0 / p_cells) ** (1.0 / max(1, d - 1))
    width = min(n, max(2, _SCRATCH_BYTES // (8 * p_cells)))
    g, tmp = np.empty((2, p_cells, width))
    for a in range(0, n, width):
        a = min(a, n - width)
        block = pts[a:a + width]
        np.square(np.subtract(block[:, 0], centers[:, 0, None], out=g), out=g)
        for k in range(1, d):
            g += np.square(np.subtract(block[:, k], centers[:, k, None], out=tmp),
                           out=tmp)
        np.divide(np.negative(g, out=g), 2 * sigma ** 2, out=g)
        np.exp(g, out=g)
        g /= np.sum(g, axis=0)
        masks[a:a + width] = g.T


def make_cell_basis(grid: SpectralGrid, profile: AnisotropyProfile,
                    x_cells: int, p_cells: int) -> CellBasis:
    if x_cells < 1 or p_cells < 1:
        raise DomainError(f"x_cells and p_cells must be positive, got "
                          f"x_cells={x_cells}, p_cells={p_cells}")
    d = grid.d
    # x-cells: tensor products of periodic 1-d hats.  The hats enter the
    # measure form quadratically, so they are normalized to square-sum to
    # one and the cell masses add up to the full measure; since
    # sum_c prod_k h_k^2 = prod_k sum_{c_k} h_k^2, each axis is normalized
    # on its own.
    factors = []
    for k in range(d):
        L = grid.length_per_axis[k]
        spacing = L / x_cells
        centers = np.arange(x_cells) * spacing
        x = grid.coord_axis(k)
        dist = x[None, :] - centers[:, None]
        dist = (dist + L / 2) % L - L / 2
        h = _periodic_hat(dist, spacing)
        factors.append(h / np.sqrt(np.sum(h ** 2, axis=0)))

    # P-cells on the frequency lattice, one (S, B) row per lattice point;
    # flat index 0 is the mode xi = 0 in FFT order, whose row stays 0
    pts = project_lattice(grid.frequency_vectors(), profile).reshape(-1, d)
    masks = np.zeros((len(pts), p_cells))
    if d == 2:
        _angular_masks(pts[1:], masks[1:])
    else:
        _direction_masks(pts[1:], profile, masks[1:])
    return CellBasis(tuple(factors), masks.T.reshape((p_cells,) + grid.n_per_axis))


def _hat_passes(basis: CellBasis, grid: SpectralGrid, w: np.ndarray) -> Callable:
    """cell -> F(hat_c w) over the last d axes of w, as a buffer that the
    next call overwrites.

    hat_c = prod_k f_k[c_k], and the factor on axis k commutes with the
    transforms of the other axes, so F(hat_c w) is built in passes along
    axes 1..d: multiply by f_k[c_k], transform axis k (dft_axis).  The
    pass of axis k depends on c_1..c_k alone, so a call redoes only the
    passes from the first axis where its cell differs from the last one:
    in row-major cell order, sum_k x_cells^k one-axis passes in all, not
    x_cells^d d-dimensional transforms."""
    d = grid.d
    lead = w.ndim - d
    factors = [f.reshape(f.shape + (1,) * (d - 1 - k))
               for k, f in enumerate(basis.x_factors)]
    passes = [np.empty(w.shape, complex) for _ in range(d)]
    held = [None] * d  # the cell prefix (c_1, ..., c_k) that pass k holds

    def transform(cell):
        for k in range(d):
            if held[k] != cell[:k + 1]:
                np.multiply(passes[k - 1] if k else w, factors[k][cell[k]],
                            out=passes[k])
                dft_axis(passes[k], lead + k, grid.length_per_axis[k], out=passes[k])
                held[k] = cell[:k + 1]
        return passes[-1]

    return transform


def _write_products(G: np.ndarray, re: np.ndarray, im) -> None:
    """The real parts of G_i conj(G_j) for the (..., N, S) spectra G into
    re (..., N, N, S), and their imaginary parts into im unless it is None,
    each product rounded on its own: the diagonal imaginary parts cancel
    exactly."""
    a, b = G[..., :, None, :], G[..., None, :, :]
    np.multiply(a.real, b.real, out=re)
    re += a.imag * b.imag
    if im is not None:
        np.multiply(a.imag, b.real, out=im)
        im -= a.real * b.imag


def _snapshot_products(basis: CellBasis, grid: SpectralGrid,
                       W: np.ndarray) -> Callable:
    """The row writer of _stacked_forms for K snapshots of N components
    each, W (K, N, *spatial): the K N^2 rows of a cell are the products
    F(hat_c w_ki) conj(F(hat_c w_kj)) in (k, i, j) order, with imaginary
    parts where _stacked_forms asks for them (N > 1).  The spectra of all
    K N components come from one run of per-axis passes (_hat_passes)."""
    K, N = W.shape[:2]
    transform = _hat_passes(basis, grid, W)

    def rows(cell, re, im):
        G = transform(cell).reshape(K, N, -1)
        _write_products(G, re.reshape(K, N, N, -1),
                        None if im is None else im.reshape(K, N, N, -1))

    return rows


def _stacked_forms(basis: CellBasis, grid: SpectralGrid, rows: Callable,
                   R: int, imag: bool) -> np.ndarray:
    """V[c, r, b] = sum_xi mask_b row_{c,r} vol_xi for the R rows of each
    cell c.  rows(cell, re, im) is called for the cells in row-major order
    and writes the real parts of the cell's R rows into re (R, S), and, if
    imag, their imaginary parts into im (R, S); otherwise im is None and
    the forms are exactly real.

    The masks are real.  The rows of k = max(1, min(C // R, B // (2 R)))
    cells are stacked into a real (k R, S) array that meets the masks'
    own C-contiguous (S, B) storage in one GEMM; the imaginary parts get
    a second stack and GEMM.  A stack holds whole cells, at most B / 2
    rows (half the masks' bytes) unless one cell has more, however many
    cells there are: every call, the last one too, holds at least one
    cell, R rows."""
    B = basis.p_masks.shape[0]
    S = math.prod(grid.n_per_axis)
    cells = list(basis.cell_indices())
    C = len(cells)
    V = np.zeros((C, R, B), dtype=complex)
    vol = grid.freq_cell_volume
    masks_t = basis.p_masks.reshape(B, -1).T
    k = max(1, min(C // R, B // (2 * R)))
    re = np.empty((k, R, S))
    im = np.empty((k, R, S)) if imag else None
    for q, cell in enumerate(cells):
        j = q % k
        rows(cell, re[j], None if im is None else im[j])
        if j == k - 1 or q == C - 1:
            for part, stack in ((V.real, re), (V.imag, im)):
                if stack is not None:
                    forms = stack[:j + 1].reshape(-1, S) @ masks_t
                    part[q - j:q + 1] = forms.reshape(j + 1, R, B) * vol
    return V


def _roll_blocks(shift: Sequence[int], n_per_axis: Sequence[int]) -> list:
    """(destination, source) index pairs that copy np.roll(a, shift) in
    at most 2^d blocks: out[dst] = a[src]."""
    pieces = [[(slice(s, n), slice(0, n - s))]
              + ([(slice(0, s), slice(n - s, n))] if s else [])
              for s, n in zip(shift, n_per_axis)]
    return [tuple(zip(*blocks)) for blocks in itertools.product(*pieces)]


def _band_value(band: SpectralBand, mode: Sequence[int]) -> complex:
    """The band's value at the spatial FFT index `mode`, exactly 0.0 off
    its box."""
    pos = tuple(np.searchsorted(i, m) for i, m in zip(band.index, mode))
    if any(p == i.size or i[p] != m for p, i, m in zip(pos, band.index, mode)):
        return 0.0
    return band.values[pos]


def _shifted_products(seq: OscillationSequence, basis: CellBasis,
                      n_list: Sequence[int]) -> Callable:
    """The row writer of _stacked_forms for the snapshots u_n = v e^{2 pi
    i kappa(n).x} - m_n of seq, one row per n in n_list, by the shift
    rule.

    kappa(n) lies on the lattice, so with the integer shift s(n) of
    _lattice_shift

        F(hat_c u_n) = roll(F(hat_c v), s(n)) - m_n F(hat_c),

    with the mean m_n = F(v)(-kappa(n)) / |T| read off seq.spectrum and
    F(hat_c) the outer product of the 1-d transforms of the separable hat
    factors.  Each cell costs one transform, F(hat_c v), by the per-axis
    passes of _hat_passes.  Where m_n = 0 the row of (c, n) is
    |roll(F(hat_c v), s(n))|^2 = roll(|F(hat_c v)|^2, s(n)): the cell's
    power spectrum, formed once, copied into the row in at most 2^d
    blocks.  Otherwise -m_n F(hat_c) is written into one reused buffer
    as one outer product over the grid, the blocks of the rolled
    F(hat_c v) are added to it, and its power goes into the row."""
    grid = seq.physical.grid
    shifts = [_lattice_shift(seq.profile, seq.c, n, grid) for n in n_list]
    area = math.prod(grid.length_per_axis)
    means = [_band_value(seq.spectrum,
                         [-s % nk for s, nk in zip(shift, grid.n_per_axis)]) / area
             for shift in shifts]
    blocks = [_roll_blocks(shift, grid.n_per_axis) for shift in shifts]
    hat_spectra = [dft_axis(f, 1, L)
                   for f, L in zip(basis.x_factors, grid.length_per_axis)]
    transform = _hat_passes(basis, grid, np.asarray(seq.physical.values))
    power = np.empty(grid.n_per_axis) if 0 in means else None
    G = np.empty(grid.n_per_axis, dtype=complex) if any(means) else None

    def rows(cell, re, im):
        Fhv = transform(cell)
        if power is not None:
            _write_products(Fhv.reshape(1, -1), power.reshape(1, 1, -1), None)
        h = [hk[i] for hk, i in zip(hat_spectra, cell)]
        for flat, mean, run_blocks in zip(re, means, blocks):
            row = flat.reshape(grid.n_per_axis)
            if mean == 0:
                for dst, src in run_blocks:
                    row[dst] = power[src]
                continue
            # G = -m F(hat_c) + roll(F(hat_c v), s(n)): the outer product
            # is written into G itself, the roll added block by block
            np.multiply.outer(functools.reduce(np.multiply.outer, h[:-1], -mean),
                              h[-1], out=G)
            for dst, src in run_blocks:
                G[dst] += Fhv[src]
            _write_products(G.reshape(1, -1), flat.reshape(1, 1, -1), None)

    return rows


# --- estimates ----------------------------------------------------------------

@dataclass
class HMeasureEstimate:
    """A cell-discretized measure: the extrapolated masses with their
    tail error bars."""

    cells: np.ndarray        # (C, B) real
    cell_errors: np.ndarray  # (C, B)


def scalar_hmeasure(seq: Callable[[int], SpectralField],
                    profile: AnisotropyProfile, grid: SpectralGrid,
                    n_list: Sequence[int], x_cells: int,
                    p_cells: int) -> HMeasureEstimate:
    """Estimate the scalar H_P-measure of a sequence n -> u_n of x-only
    fields, each of zero spatial mean (u_n tends weakly to 0; the
    snapshots are used as given, not centred)."""
    n_list = _check_n_list(n_list)
    if grid.m > 0:
        raise DomainError("scalar H-measures take no velocity axes")
    basis = make_cell_basis(grid, profile, x_cells, p_cells)
    # one row per n: by the shift rule from one transform of each cell, or
    # from the transforms of the stacked snapshots
    if isinstance(seq, OscillationSequence):
        rows = _shifted_products(seq, basis, n_list)
    else:
        W = np.stack([seq(n).values for n in n_list])[:, None]
        rows = _snapshot_products(basis, grid, W)
    V = _stacked_forms(basis, grid, rows, len(n_list), False)
    cells, errors = estimate_limit(np.moveaxis(V, 1, 0))  # (n, C, B)
    return HMeasureEstimate(cells.real, errors)


@dataclass
class MatrixMeasure:
    """Matrix of cell measures over a velocity basis, with the weighted
    trace nu = sum_i 2^-(i+1) mu_ii and its x-marginal density."""

    basis_size: int
    entries: np.ndarray        # (N, N, C, B) complex
    errors: np.ndarray         # (N, N, C, B) real
    trace: np.ndarray          # (C, B) real, nonnegative up to tolerance
    marginal: np.ndarray       # (C,) real

    def check_integrity(self, diag_tol: float = 1e-10, cs_slack: float = 1e-9,
                        hermitian_tol: float = 1e-10) -> None:
        """Raise IntegrityError, stating the measured value and the
        tolerance, if a diagonal cell measure is negative, the matrix is
        not Hermitian or |mu_ij| exceeds sqrt(mu_ii mu_jj) in some cell."""
        N = self.basis_size
        diag = self.entries[range(N), range(N)].real
        low = float(np.min(diag))
        if low < -diag_tol:
            raise IntegrityError(f"negative diagonal cell measure: minimum "
                                 f"{low:.3e} below -{diag_tol:.1e}")
        herm = np.abs(self.entries - np.conj(np.swapaxes(self.entries, 0, 1)))
        scale = max(1e-30, float(np.max(np.abs(self.entries))))
        defect = float(np.max(herm))
        if defect > hermitian_tol * scale:
            raise IntegrityError(
                f"matrix measure lost hermitian symmetry: defect {defect:.3e} "
                f"above {hermitian_tol:.1e} x max|mu| = {hermitian_tol * scale:.3e}")
        dpos = np.maximum(diag, 0.0)
        geo = np.sqrt(dpos[:, None] * dpos[None, :])
        if np.any(np.abs(self.entries) > geo + cs_slack):
            excess = float(np.max(np.abs(self.entries) - geo))
            raise IntegrityError(
                f"cellwise Cauchy-Schwarz bound violated: |mu_ij| exceeds "
                f"sqrt(mu_ii mu_jj) by {excess:.3e}, slack {cs_slack:.1e}")


def matrix_hmeasure(seq: Callable[[int], SpectralField], basis: np.ndarray,
                    x_cells: int, p_cells: int, n_list: Sequence[int],
                    profile: AnisotropyProfile) -> MatrixMeasure:
    """Assemble the matrix measure of a velocity-dependent sequence n -> u_n,
    each of zero spatial mean (used as given), against the first N
    functions of an orthonormal velocity basis."""
    n_list = _check_n_list(n_list)
    basis = np.asarray(basis, dtype=complex)
    N = basis.shape[0]
    snapshots = [seq(n) for n in n_list]
    grid = snapshots[0].grid
    if grid.m == 0:
        raise DomainError("matrix measures need velocity axes")
    if basis.shape[1:] != grid.n_velocity:
        raise DomainError("basis samples do not match the velocity grid")
    dv = grid.velocity_cell_volume
    flat = basis.reshape(N, -1)
    gram = flat @ np.conj(flat).T * dv
    if np.max(np.abs(gram - np.eye(N))) > 1e-10:
        raise DomainError("velocity basis is not orthonormal on the grid")
    xgrid = grid.spatial_only()
    cb = make_cell_basis(xgrid, profile, x_cells, p_cells)
    # the velocity projections w_ki(x) = int e_i(p)* u_k(x, p) dp, (K, N, *x)
    vel = (range(1, grid.m + 1), range(grid.d, grid.d + grid.m))
    W = np.stack([np.tensordot(np.conj(basis), u.values, axes=vel)
                  for u in snapshots]) * dv
    K = len(n_list)
    V = _stacked_forms(cb, xgrid, _snapshot_products(cb, xgrid, W), K * N * N, True)
    V = np.moveaxis(V.reshape(len(V), K, N, N, -1), 0, 3)  # (n, N, N, C, B)
    entries, errors = estimate_limit(V)
    weights = 0.5 ** (np.arange(N) + 1)
    trace = np.einsum("i,iicb->cb", weights, entries).real
    marginal = trace.sum(axis=-1)
    return MatrixMeasure(N, entries, errors, trace, marginal)


def cosine_velocity_basis(grid: SpectralGrid, size: int) -> np.ndarray:
    """Orthonormal cosine family on the (single) velocity interval."""
    if grid.m != 1:
        raise DomainError("the cosine basis is defined for one velocity axis")
    P = grid.velocity_length[0]
    p = grid.velocity_axis(0)
    s = (p + P / 2) / P  # in (0, 1)
    out = np.empty((size, p.size))
    out[0] = 1.0 / math.sqrt(P)
    for i in range(1, size):
        out[i] = math.sqrt(2.0 / P) * np.cos(np.pi * i * s)
    return out
