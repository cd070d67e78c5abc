"""Periodic tensor grids, complex fields and discrete Fourier transforms.

The physical domain is the torus [0, L_1) x ... x [0, L_d), optionally
extended by velocity axes which are centred intervals [-P_i/2, P_i/2)
sampled at cell midpoints.  Transforms act on the spatial axes only and
use the continuum convention

    u_hat(xi) = sum_x u(x) exp(-2 pi i x.xi) * (cell volume),

so that the discrete Plancherel identity

    sum_x |u|^2 * vol_x  ==  sum_xi |u_hat|^2 * vol_xi

holds to rounding.  The frequency lattice on axis k is
{-n_k/2 + 1, ..., n_k/2} / L_k with the Nyquist mode on the positive side;
arrays are stored in FFT (wrap-around) order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    FieldCorruptionError,
    FieldFormatError,
    SpaceTagError,
)

_MAGIC = b"HPFLD1\n"
_MAX_SAMPLES = 1 << 28  # constructor-checked addressable-memory bound

PHYSICAL = "physical"
FREQUENCY = "frequency"


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpectralGrid:
    """Sampling geometry: spatial axes (power-of-two counts) plus optional
    velocity axes (midpoint-sampled intervals, no power-of-two restriction)."""

    n_per_axis: tuple[int, ...]
    length_per_axis: tuple[float, ...]
    n_velocity: tuple[int, ...] = ()
    velocity_length: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n_per_axis", tuple(int(n) for n in self.n_per_axis))
        object.__setattr__(self, "length_per_axis", tuple(float(L) for L in self.length_per_axis))
        object.__setattr__(self, "n_velocity", tuple(int(n) for n in self.n_velocity))
        object.__setattr__(self, "velocity_length", tuple(float(P) for P in self.velocity_length))
        if len(self.n_per_axis) == 0:
            raise DomainError("grid needs at least one spatial axis")
        if len(self.n_per_axis) != len(self.length_per_axis):
            raise DomainError("n_per_axis and length_per_axis disagree in length")
        if len(self.n_velocity) != len(self.velocity_length):
            raise DomainError("n_velocity and velocity_length disagree in length")
        for n in self.n_per_axis:
            if n < 4 or not _is_pow2(n):
                raise DomainError(f"samples per spatial axis must be a power of two >= 4, got {n}")
        for n in self.n_velocity:
            if n < 1:
                raise DomainError("velocity axes need at least one sample")
        for L in self.length_per_axis + self.velocity_length:
            if not (L > 0):
                raise DomainError("axis lengths must be positive")
        total = 1
        for n in self.n_per_axis + self.n_velocity:
            total *= n
        if total > _MAX_SAMPLES:
            raise DomainError(f"total sample count {total} exceeds limit {_MAX_SAMPLES}")

    @property
    def d(self) -> int:
        return len(self.n_per_axis)

    @property
    def m(self) -> int:
        return len(self.n_velocity)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_per_axis + self.n_velocity

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        return tuple(range(self.d))

    @property
    def velocity_axes(self) -> tuple[int, ...]:
        return tuple(range(self.d, self.d + self.m))

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for n, L in zip(self.n_per_axis, self.length_per_axis):
            v *= L / n
        return v

    @property
    def freq_cell_volume(self) -> float:
        v = 1.0
        for L in self.length_per_axis:
            v *= 1.0 / L
        return v

    @property
    def velocity_cell_volume(self) -> float:
        v = 1.0
        for n, P in zip(self.n_velocity, self.velocity_length):
            v *= P / n
        return v

    def coord_axis(self, k: int) -> np.ndarray:
        """Sample positions on spatial axis k: j*L/n, j = 0..n-1."""
        n, L = self.n_per_axis[k], self.length_per_axis[k]
        return np.arange(n) * (L / n)

    def freq_axis(self, k: int) -> np.ndarray:
        """Frequency lattice on axis k in FFT storage order, Nyquist positive."""
        n, L = self.n_per_axis[k], self.length_per_axis[k]
        idx = np.fft.fftfreq(n) * n
        idx[n // 2] = n // 2  # Nyquist to the positive side
        return idx / L

    def velocity_axis(self, i: int) -> np.ndarray:
        """Midpoint samples of the centred velocity interval [-P/2, P/2)."""
        n, P = self.n_velocity[i], self.velocity_length[i]
        return -P / 2 + (np.arange(n) + 0.5) * (P / n)

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Spatial coordinate arrays shaped for broadcasting over the full grid."""
        out = []
        nd = self.d + self.m
        for k in range(self.d):
            shp = [1] * nd
            shp[k] = self.n_per_axis[k]
            out.append(self.coord_axis(k).reshape(shp))
        return tuple(out)

    def velocity_coordinates(self) -> tuple[np.ndarray, ...]:
        out = []
        nd = self.d + self.m
        for i in range(self.m):
            shp = [1] * nd
            shp[self.d + i] = self.n_velocity[i]
            out.append(self.velocity_axis(i).reshape(shp))
        return tuple(out)

    def frequency_vectors(self) -> np.ndarray:
        """Array of shape (*n_per_axis, d) with the frequency vector at each
        spatial lattice site (FFT order)."""
        axes = [self.freq_axis(k) for k in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def spatial_only(self) -> "SpectralGrid":
        if self.m == 0:
            return self
        return SpectralGrid(self.n_per_axis, self.length_per_axis)


@dataclass(frozen=True)
class SpectralField:
    """Complex samples on a grid, tagged physical or frequency.

    The field takes ownership of its values: a complex128 array is frozen
    in place (made read-only), not copied, so pass a copy if you keep
    writing to yours.  Every operation returns a new field, so fields can
    be shared freely between threads."""

    grid: SpectralGrid
    values: np.ndarray = field(repr=False)
    space: str = PHYSICAL

    def __post_init__(self):
        if self.space not in (PHYSICAL, FREQUENCY):
            raise SpaceTagError(f"unknown space tag {self.space!r}")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise DomainError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def require(self, space: str) -> None:
        if self.space != space:
            raise SpaceTagError(f"expected a {space} field, got {self.space}")

    def norm_l2(self) -> float:
        """L2 norm with the measure matching the space tag (velocity axes
        always carry the physical midpoint measure)."""
        if self.space == PHYSICAL:
            vol = self.grid.cell_volume
        else:
            vol = self.grid.freq_cell_volume
        vol *= self.grid.velocity_cell_volume
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * vol))

    def norm_lp(self, p: float) -> float:
        if self.space != PHYSICAL:
            raise SpaceTagError("Lp norms are defined on physical fields")
        vol = self.grid.cell_volume * self.grid.velocity_cell_volume
        return float((np.sum(np.abs(self.values) ** p) * vol) ** (1.0 / p))

    def with_values(self, values: np.ndarray, space: str | None = None) -> "SpectralField":
        return SpectralField(self.grid, values, self.space if space is None else space)


def forward_dft(f: SpectralField) -> SpectralField:
    """Transform the spatial axes to frequency space."""
    f.require(PHYSICAL)
    g = f.grid
    out = np.fft.fftn(np.asarray(f.values), axes=g.spatial_axes) * g.cell_volume
    return SpectralField(g, out, FREQUENCY)


def inverse_dft(F: SpectralField) -> SpectralField:
    """Transform the spatial axes back to physical space."""
    F.require(FREQUENCY)
    g = F.grid
    scale = 1.0
    for n, L in zip(g.n_per_axis, g.length_per_axis):
        scale *= n / L
    out = np.fft.ifftn(np.asarray(F.values), axes=g.spatial_axes) * scale
    return SpectralField(g, out, PHYSICAL)


def subtract_spatial_mean(f: SpectralField) -> SpectralField:
    """Remove the spatial mean at every velocity sample."""
    f.require(PHYSICAL)
    axes = f.grid.spatial_axes
    m = np.mean(f.values, axis=axes, keepdims=True)
    return f.with_values(f.values - m)


def write_field(f: SpectralField, path) -> None:
    """Serialize in the HPFLD1 format: magic, one JSON header line, raw
    little-endian float64 (re, im) pairs, row-major, last axis fastest."""
    g = f.grid
    header = {
        "d": g.d,
        "m": g.m,
        "n": list(g.n_per_axis + g.n_velocity),
        "L": list(g.length_per_axis + g.velocity_length),
        "space": f.space,
    }
    vals = np.ascontiguousarray(f.values)
    flat = np.empty(vals.size * 2, dtype="<f8")
    flat[0::2] = vals.real.ravel()
    flat[1::2] = vals.imag.ravel()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(flat.tobytes())


def read_field(path) -> SpectralField:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise FieldFormatError(f"bad magic {magic!r}")
        header_bytes = bytearray()
        while True:
            c = fh.read(1)
            if not c:
                raise FieldFormatError("unterminated header line")
            if c == b"\n":
                break
            header_bytes.extend(c)
            if len(header_bytes) > 1 << 16:
                raise FieldFormatError("header line too long")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FieldFormatError(f"unparsable header: {exc}") from exc
        for key in ("d", "m", "n", "L", "space"):
            if key not in header:
                raise FieldFormatError(f"header missing key {key!r}")
        d, m = header["d"], header["m"]
        n, L = header["n"], header["L"]
        if not isinstance(d, int) or not isinstance(m, int) or d < 1 or m < 0:
            raise FieldFormatError(f"invalid dimensions d={d}, m={m}")
        if len(n) != d + m or len(L) != d + m:
            raise FieldFormatError("axis lists do not match d + m")
        if header["space"] not in (PHYSICAL, FREQUENCY):
            raise FieldFormatError(f"unknown space tag {header['space']!r}")
        try:
            grid = SpectralGrid(
                tuple(n[:d]), tuple(L[:d]), tuple(n[d:]), tuple(L[d:]))
        except DomainError as exc:
            raise FieldFormatError(str(exc)) from exc
        count = 1
        for nk in n:
            count *= nk
        payload = fh.read()
        if len(payload) != count * 16:
            raise FieldCorruptionError(
                f"payload is {len(payload)} bytes, expected {count * 16}")
        flat = np.frombuffer(payload, dtype="<f8")
        vals = (flat[0::2] + 1j * flat[1::2]).reshape(grid.shape)
        return SpectralField(grid, vals, header["space"])


def band_limited_field(grid: SpectralGrid, rng: np.random.Generator,
                       band_fraction: float = 0.25, real: bool = False) -> SpectralField:
    """Random zero-mean physical field with spectrum confined to the central
    band_fraction of each spatial axis.  Used for test corpora."""
    shape = grid.shape
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for k in range(grid.d):
        n = grid.n_per_axis[k]
        idx = np.fft.fftfreq(n) * n
        keep = np.abs(idx) <= max(1, int(band_fraction * n / 2))
        shp = [1] * len(shape)
        shp[k] = n
        spec = spec * keep.reshape(shp)
    zero = (0,) * grid.d + (slice(None),) * grid.m
    spec[zero] = 0.0
    F = SpectralField(grid, spec * grid.freq_cell_volume, FREQUENCY)
    f = inverse_dft(F)
    if real:
        f = f.with_values(f.values.real.astype(np.complex128))
        f = subtract_spatial_mean(f)
    return f
