"""Numerical estimation of anisotropic microlocal defect measures.

The central object is the bilinear form

    V_n = sum_xi psi(pi_P(xi)) F(phi_1 u_n)(xi) conj(F(phi_2 u_n)(xi)) vol_xi,

whose limit over a sequence u_n weakly converging to zero defines a measure
on x-space x P.  The measure is discretized on cells: C^1 hat partitions of
unity over a uniform x-grid, and angular sectors on P (for d = 2) or
normalized smooth direction weights (d >= 3).  Matrix-valued measures over
a velocity basis, their weighted trace and its x-marginal density are
assembled from the same forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .anisotropy import AnisotropyProfile, project_lattice, project_to_P
from .errors import DomainError, IntegrityError, SupportWarning
from .multiplier import SymbolOnP, projected_symbol_lattice
from .spectral import (
    FREQUENCY,
    PHYSICAL,
    SpectralField,
    SpectralGrid,
    forward_dft,
    inverse_dft,
    read_field,
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

def _as_grid_array(phi, grid: SpectralGrid) -> np.ndarray:
    if callable(phi):
        return np.asarray(phi(*grid.coordinates()), dtype=complex) * np.ones(grid.n_per_axis)
    return np.asarray(phi, dtype=complex)

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
                  profile: AnisotropyProfile, via: str = "frequency",
                  check_support: bool = True) -> complex:
    """The H_P-measure generating form for a single snapshot u.

    phi1, phi2 are cut-off functions given as grid arrays or callables of
    the spatial coordinates.  With via="physical" the equivalent form
    int A_{psi o pi_P}(phi1 u) conj(phi2 u) dx is evaluated instead; the two
    agree to Plancherel accuracy."""
    u.require(PHYSICAL)
    grid = u.grid
    phi1 = _as_grid_array(phi1, grid)
    phi2 = _as_grid_array(phi2, grid)
    if check_support:
        _check_support(phi1, grid, "phi1")
        _check_support(phi2, grid, "phi2")
    f1 = SpectralField(grid, phi1 * u.values, PHYSICAL)
    f2 = SpectralField(grid, phi2 * u.values, PHYSICAL)
    sym = projected_symbol_lattice(psi, grid, profile)
    F1 = forward_dft(f1)
    F2 = forward_dft(f2)
    if via == "frequency":
        total = np.sum(sym * F1.values * np.conj(F2.values)) * grid.freq_cell_volume
    elif via == "physical":
        Au = inverse_dft(SpectralField(grid, sym * F1.values, FREQUENCY))
        total = np.sum(Au.values * np.conj(f2.values)) * grid.cell_volume
    else:
        raise DomainError(f"unknown evaluation route {via!r}")
    return complex(total)


# --- sequence generators ------------------------------------------------------

def oscillation_frequency(profile: AnisotropyProfile, c, n: int,
                          grid: SpectralGrid) -> np.ndarray:
    """Lattice frequency kappa(n) riding the fibre through the c-direction:
    kappa_k = round(n^(1/alpha_k) c_k L_k) / L_k."""
    c = np.asarray(c, dtype=float)
    kap = np.empty(profile.d)
    for k in range(profile.d):
        L = grid.length_per_axis[k]
        kap[k] = round(n ** (1.0 / profile.alpha[k]) * c[k] * L) / L
    return kap


def oscillation_sequence(profile: AnisotropyProfile, c, envelope: SpectralField,
                         n: int) -> SpectralField:
    """Zero-mean modulated envelope v(x) exp(2 pi i kappa(n).x); the
    frequencies travel up one fibre, so pi_P(kappa(n)) stabilizes."""
    envelope.require(PHYSICAL)
    grid = envelope.grid
    kap = oscillation_frequency(profile, c, n, grid)
    if np.all(kap == 0):
        raise DomainError(f"oscillation frequency vanished at n={n}")
    phase = np.zeros(grid.n_per_axis)
    for k, x in enumerate(grid.coordinates()):
        phase = phase + kap[k] * x.reshape([grid.n_per_axis[j] if j == k else 1
                                            for j in range(grid.d)])
    mod = np.exp(2j * np.pi * phase).reshape(grid.n_per_axis + (1,) * grid.m)
    return subtract_spatial_mean(envelope.with_values(envelope.values * mod))


def concentration_sequence(profile: AnisotropyProfile, envelope: Callable,
                           grid: SpectralGrid, n: int) -> SpectralField:
    """L2-normalized concentration at the torus centre:
    n^(sigma/2) v(n^(1/alpha_1)(x_1 - x_1^0), ...), sigma = sum 1/alpha_k."""
    sigma = sum(1.0 / a for a in profile.alpha)
    coords = []
    for k in range(grid.d):
        x = grid.coord_axis(k) - grid.length_per_axis[k] / 2
        shp = [1] * (grid.d + grid.m)
        shp[k] = x.size
        coords.append((n ** (1.0 / profile.alpha[k])) * x.reshape(shp))
    vals = n ** (sigma / 2) * np.asarray(envelope(*coords), dtype=complex)
    vals = vals * np.ones(grid.shape)
    return subtract_spatial_mean(SpectralField(grid, vals, PHYSICAL))


@dataclass
class SequenceGenerator:
    """A family n -> u_n of zero-spatial-mean fields.

    Zero mean is established once, where a snapshot is produced:
    oscillation_sequence and concentration_sequence subtract it themselves,
    and from_callable and from_files wrap their producer in
    subtract_spatial_mean.  field(n) returns the snapshot unchanged, so a
    producer passed to the constructor directly must already be zero-mean."""

    produce: Callable[[int], SpectralField]

    def field(self, n: int) -> SpectralField:
        return self.produce(n)

    @classmethod
    def oscillation(cls, profile, c, envelope: SpectralField) -> "SequenceGenerator":
        return cls(lambda n: oscillation_sequence(profile, c, envelope, n))

    @classmethod
    def concentration(cls, profile, envelope: Callable,
                      grid: SpectralGrid) -> "SequenceGenerator":
        return cls(lambda n: concentration_sequence(profile, envelope, grid, n))

    @classmethod
    def from_callable(cls, fn: Callable[[int], SpectralField]) -> "SequenceGenerator":
        return cls(lambda n: subtract_spatial_mean(fn(n)))

    @classmethod
    def from_files(cls, paths: Sequence[str]) -> "SequenceGenerator":
        paths = list(paths)
        return cls(lambda n: subtract_spatial_mean(read_field(paths[n])))


# --- velocity mollification ---------------------------------------------------

@dataclass(frozen=True)
class MollifierKernel:
    """A nonnegative smooth kernel with unit mass and compact support in
    the ball of the given radius."""

    func: Callable[..., np.ndarray]
    support_radius: float
    m: int = 1


def standard_mollifier(m: int = 1) -> MollifierKernel:
    """The bump exp(-1/(1-|p|^2)) on |p| < 1, numerically normalized."""
    pts = _mass_quadrature_points(m, 1.0)
    raw = _bump_unnormalized(pts)
    mass = raw.sum() * _mass_quadrature_volume(m, 1.0)
    z = float(mass)

    def fn(*p):
        q = np.stack(np.broadcast_arrays(*p), axis=-1)
        return _bump_unnormalized(q) / z

    return MollifierKernel(fn, support_radius=1.0, m=m)


def _bump_unnormalized(p: np.ndarray) -> np.ndarray:
    r2 = np.sum(p ** 2, axis=-1)
    out = np.zeros(r2.shape)
    inside = r2 < 1
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


def _mass_points_per_axis(m: int) -> int:
    return {1: 8192, 2: 256}.get(m, 48)

def _mass_quadrature_points(m: int, radius: float) -> np.ndarray:
    n = _mass_points_per_axis(m)
    ax = -radius + (np.arange(n) + 0.5) * (2 * radius / n)
    mesh = np.meshgrid(*([ax] * m), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, m)

def _mass_quadrature_volume(m: int, radius: float) -> float:
    n = _mass_points_per_axis(m)
    return (2 * radius / n) ** m


def kernel_mass(kernel: MollifierKernel) -> float:
    """Midpoint quadrature of the kernel over its support box; spectrally
    accurate for smooth compactly supported kernels."""
    pts = _mass_quadrature_points(kernel.m, kernel.support_radius)
    vals = kernel.func(*(pts[:, i] for i in range(kernel.m)))
    return float(np.sum(vals) * _mass_quadrature_volume(kernel.m, kernel.support_radius))


def velocity_mollify(u: SpectralField, k: int, kernel: MollifierKernel) -> SpectralField:
    """Convolve along the velocity axes with the rescaled kernel
    omega_k(p) = k^m omega(k p), discretized on the velocity grid and
    renormalized to unit discrete mass (so the Young bound is exact)."""
    grid = u.grid
    if grid.m == 0:
        raise DomainError("field has no velocity axes")
    if kernel.m != grid.m:
        raise DomainError("kernel dimension does not match the velocity axes")
    if k < 1:
        raise DomainError("mollification index k must be a positive integer")
    if abs(kernel_mass(kernel) - 1.0) > 1e-8:
        raise DomainError("kernel mass differs from 1 beyond tolerance")
    offsets = []
    for i in range(grid.m):
        n = grid.n_velocity[i]
        dp = grid.velocity_length[i] / n
        off = np.fft.fftfreq(n) * n * dp  # signed offsets in wrap order
        shp = [1] * grid.m
        shp[i] = n
        offsets.append(off.reshape(shp))
    scaled = [np.broadcast_to(k * o, grid.n_velocity) for o in offsets]
    ker = kernel.func(*scaled) * (k ** grid.m)
    total = ker.sum()
    if total <= 0:
        raise DomainError("kernel vanishes on the velocity grid at this scale")
    ker = ker / total  # discrete mass exactly one
    axes = grid.velocity_axes
    U = np.fft.fftn(np.asarray(u.values), axes=axes)
    K = np.fft.fftn(ker, axes=tuple(range(grid.m)))
    K = K.reshape((1,) * grid.d + ker.shape)
    out = np.fft.ifftn(U * K, axes=axes)
    return u.with_values(out)


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
    """Hat partitions discretizing x-space and P."""

    x_hats: np.ndarray          # (C, *spatial), partition of unity on the torus
    x_centers: np.ndarray       # (C, d)
    x_cell_volume: float
    p_masks: np.ndarray         # (B, *spatial lattice), partition of unity off xi=0
    p_centers: np.ndarray       # (B, d) reference points on P
    x_cells_per_axis: int


def make_cell_basis(grid: SpectralGrid, profile: AnisotropyProfile,
                    x_cells: int, p_cells: int) -> CellBasis:
    d = grid.d
    # x-cells: tensor products of periodic 1-d hats
    axis_hats = []
    axis_centers = []
    for k in range(d):
        L = grid.length_per_axis[k]
        spacing = L / x_cells
        centers = np.arange(x_cells) * spacing
        x = grid.coord_axis(k)
        dist = x[None, :] - centers[:, None]
        dist = (dist + L / 2) % L - L / 2
        axis_hats.append(_periodic_hat(dist, spacing))
        axis_centers.append(centers)
    hats = None
    for k, h in enumerate(axis_hats):
        shaped = h.reshape((x_cells,) + tuple(
            grid.n_per_axis[k] if j == k else 1 for j in range(d)))
        if hats is None:
            hats = shaped
        else:
            hats = hats[:, None] * shaped[None, :]
            hats = hats.reshape((-1,) + hats.shape[2:])
    # cut-offs enter the measure form quadratically; normalize so the
    # squares sum to one and cell masses add up to the full measure
    hats = hats / np.sqrt(np.sum(hats ** 2, axis=0, keepdims=True))
    centers = np.stack(np.meshgrid(*axis_centers, indexing="ij"), axis=-1).reshape(-1, d)
    cell_vol = 1.0
    for L in grid.length_per_axis:
        cell_vol *= L / x_cells

    # P-cells on the frequency lattice
    xi = grid.frequency_vectors()
    nonzero = ~np.all(xi == 0, axis=-1)
    proj = project_lattice(xi, profile)
    if d == 2:
        ang = np.arctan2(proj[..., 1], proj[..., 0]) % (2 * np.pi)
        spacing = 2 * np.pi / p_cells
        cang = np.arange(p_cells) * spacing
        dist = ang[None, ...] - cang.reshape((p_cells,) + (1,) * ang.ndim)
        dist = (dist + np.pi) % (2 * np.pi) - np.pi
        masks = _periodic_hat(dist, spacing)
        dirs = np.stack([np.cos(cang), np.sin(cang)], axis=-1)
        p_centers = project_to_P(dirs, profile)
    else:
        rng = np.random.Generator(np.random.Philox(key=11))
        dirs = rng.standard_normal((p_cells, d))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        p_centers = project_to_P(dirs, profile)
        sigma = 1.5 * (4.0 / p_cells) ** (1.0 / max(1, d - 1))
        d2 = np.sum((proj[None, ...] - p_centers.reshape(
            (p_cells,) + (1,) * (proj.ndim - 1) + (d,))) ** 2, axis=-1)
        g = np.exp(-d2 / (2 * sigma ** 2))
        masks = g / np.sum(g, axis=0, keepdims=True)
    masks = masks * nonzero[None, ...]
    return CellBasis(hats, centers, cell_vol, masks, p_centers, x_cells)


def _cell_forms(u: SpectralField, basis: CellBasis,
                components: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """All cellwise forms for one snapshot.

    With components = [w_1, ..., w_N] (x-arrays), returns V[i, j, c, b] =
    sum_xi mask_b F(hat_c w_i) conj(F(hat_c w_j)) vol_xi; without
    components, the scalar case V[0, 0, c, b] for w = u."""
    grid = u.grid
    if components is None:
        components = [np.asarray(u.values)]
    C = basis.x_hats.shape[0]
    B = basis.p_masks.shape[0]
    N = len(components)
    V = np.empty((N, N, C, B), dtype=complex)
    vol = grid.freq_cell_volume
    masks = basis.p_masks.reshape(B, -1)
    for c in range(C):
        G = np.empty((N, int(np.prod(grid.n_per_axis))), dtype=complex)
        for i, w in enumerate(components):
            f = SpectralField(grid.spatial_only(), basis.x_hats[c] * w, PHYSICAL)
            G[i] = forward_dft(f).values.ravel()
        inner = np.einsum("bs,is,js->ijb", masks, G, np.conj(G), optimize=True)
        V[:, :, c, :] = inner * vol
    return V


# --- estimates ----------------------------------------------------------------

@dataclass
class HMeasureEstimate:
    """Raw bilinear-form values over n with their extrapolated limits, plus
    an optional cell-discretized measure."""

    values: dict = field(default_factory=dict)        # (pair, symbol, n) -> complex
    extrapolated: dict = field(default_factory=dict)  # (pair, symbol) -> (complex, err)
    cells: np.ndarray | None = None                   # (C, B) extrapolated masses
    cell_errors: np.ndarray | None = None
    basis: CellBasis | None = None
    n_list: tuple[int, ...] = ()


def scalar_hmeasure(gen: SequenceGenerator, profile: AnisotropyProfile,
                    grid: SpectralGrid, n_list: Sequence[int],
                    x_cells: int, p_cells: int,
                    pairs: dict | None = None,
                    symbols: dict | None = None) -> HMeasureEstimate:
    """Estimate the scalar H_P-measure of a sequence of x-only fields.

    pairs maps pair-ids to (phi1, phi2) grid arrays and symbols maps
    symbol-ids to SymbolOnP; for every combination the raw V_n and its
    extrapolation are recorded alongside the cell measure."""
    n_list = _check_n_list(n_list)
    basis = make_cell_basis(grid, profile, x_cells, p_cells)
    est = HMeasureEstimate(basis=basis, n_list=n_list)
    cell_runs = []
    for n in n_list:
        u = gen.field(n)
        cell_runs.append(_cell_forms(u, basis)[0, 0])
        if pairs and symbols:
            for pid, (p1, p2) in pairs.items():
                for sid, psi in symbols.items():
                    est.values[(pid, sid, n)] = bilinear_form(
                        u, p1, p2, psi, profile, check_support=False)
    cells, est.cell_errors = estimate_limit(np.stack(cell_runs))  # (n, C, B)
    est.cells = cells.real
    if pairs and symbols:
        for pid in pairs:
            for sid in symbols:
                seq = [est.values[(pid, sid, n)] for n in n_list]
                est.extrapolated[(pid, sid)] = estimate_limit(seq)
    return est


@dataclass
class MatrixMeasure:
    """Matrix of cell measures over a velocity basis, with the weighted
    trace nu = sum_i 2^-(i+1) mu_ii and its x-marginal density."""

    basis_size: int
    entries: np.ndarray        # (N, N, C, B) complex
    errors: np.ndarray         # (N, N, C, B) real
    trace: np.ndarray          # (C, B) real, nonnegative up to tolerance
    marginal: np.ndarray       # (C,) real
    cell_basis: CellBasis
    n_list: tuple[int, ...]

    def check_integrity(self, diag_tol: float = 1e-10, cs_slack: float = 1e-9,
                        hermitian_tol: float = 1e-10) -> None:
        N = self.basis_size
        diag = self.entries[range(N), range(N)].real
        if np.min(diag) < -diag_tol:
            raise IntegrityError("negative diagonal cell measure")
        herm = np.abs(self.entries - np.conj(np.swapaxes(self.entries, 0, 1)))
        scale = max(1e-30, float(np.max(np.abs(self.entries))))
        if float(np.max(herm)) > hermitian_tol * scale:
            raise IntegrityError("matrix measure lost hermitian symmetry")
        dpos = np.maximum(diag, 0.0)
        bound = np.sqrt(dpos[:, None] * dpos[None, :]) + cs_slack
        if np.any(np.abs(self.entries) > bound):
            raise IntegrityError("cellwise Cauchy-Schwarz bound violated")


def matrix_hmeasure(gen: SequenceGenerator, basis: np.ndarray,
                    x_cells: int, p_cells: int, n_list: Sequence[int],
                    profile: AnisotropyProfile) -> MatrixMeasure:
    """Assemble the matrix measure of a velocity-dependent sequence against
    the first N functions of an orthonormal velocity basis."""
    n_list = _check_n_list(n_list)
    basis = np.asarray(basis, dtype=complex)
    N = basis.shape[0]
    probe = gen.field(n_list[0])
    grid = probe.grid
    if grid.m == 0:
        raise DomainError("matrix measures need velocity axes")
    if basis.shape[1:] != grid.n_velocity:
        raise DomainError("basis samples do not match the velocity grid")
    dv = grid.velocity_cell_volume
    flat = basis.reshape(N, -1)
    gram = flat @ np.conj(flat).T * dv
    if np.max(np.abs(gram - np.eye(N))) > 1e-10:
        raise DomainError("velocity basis is not orthonormal on the grid")
    cb = make_cell_basis(grid.spatial_only(), profile, x_cells, p_cells)
    vel_axes = tuple(range(grid.d, grid.d + grid.m))
    runs = []
    for n in n_list:
        u = gen.field(n) if n != n_list[0] else probe
        comps = [np.tensordot(np.asarray(u.values), np.conj(basis[i]),
                              axes=(vel_axes, tuple(range(grid.m)))) * dv
                 for i in range(N)]
        # velocity projections w_i(x) = int e_i(p)* u(x, p) dp
        xu = SpectralField(grid.spatial_only(), comps[0], PHYSICAL)
        runs.append(_cell_forms(xu, cb, components=comps))
    entries, errors = estimate_limit(np.stack(runs))  # (n, N, N, C, B)
    weights = 0.5 ** (np.arange(N) + 1)
    trace = np.einsum("i,iicb->cb", weights, entries).real
    marginal = trace.sum(axis=-1)
    return MatrixMeasure(N, entries, errors, trace, marginal, cb, n_list)


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


@dataclass
class MarginalReport:
    r_prime: float
    norms: list[float]
    ratios: list[float]
    slicing_ok: bool

    def to_json_dict(self) -> dict:
        return {"r_prime": self.r_prime, "norms": self.norms,
                "ratios": self.ratios, "slicing_ok": self.slicing_ok}


def marginal_density_check(measures: Sequence[MatrixMeasure],
                           r_prime: float) -> MarginalReport:
    """Discrete L^{r'} norms of the marginal density across cell
    refinements, plus the cellwise slicing consistency of the trace."""
    if len(measures) < 2:
        raise DomainError("need matrix measures at >= 2 cell refinements")
    if r_prime <= 1:
        raise DomainError("r' must exceed 1")
    norms = []
    for M in measures:
        if float(np.min(M.trace)) < -1e-9:
            raise IntegrityError("negative conditional cell mass in the trace")
        if float(np.max(np.abs(M.trace.sum(axis=-1) - M.marginal))) > 1e-12:
            raise IntegrityError("trace masses do not sum to the marginal")
        vol = M.cell_basis.x_cell_volume
        dens = np.abs(M.marginal) / vol
        norms.append(float((np.sum(dens ** r_prime) * vol) ** (1.0 / r_prime)))
    ratios = [b / a if a > 0 else float("inf") for a, b in zip(norms, norms[1:])]
    return MarginalReport(r_prime, norms, ratios, slicing_ok=True)
