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

Field layout: a field u(x, p) is an array of shape
(n_1, ..., n_d, n_p1, ..., n_pm), spatial axes first (in FFT order in
frequency space), then the velocity midpoints.  SpectralGrid owns that
layout: it broadcasts 1-d axis arrays (on_axis, coordinates,
frequencies) and x-only arrays (lift) over the grid, and samples
callables on x or (x, p) (sample) and on p (sample_velocity).  This is
the only module that calls numpy.fft; besides the transforms of fields
it offers dft_axis, the transform of a raw array along one axis, for
callers that build a transform pass by pass.

Spectra can also be built without a transform, and kept on their band.
A SpectralBand holds a spectrum that vanishes outside a box of spatial
modes: the (|B_1|, ..., |B_d|, *n_velocity) values on the box and the
sorted FFT indices B_k of each axis; a full-grid spectrum is the band of
every index, and scatter() puts a band back on the grid.
band_limited_spectrum draws a random band-limited spectrum as a band
(band_limited_field is the inverse DFT of it scattered): it takes the
normal stream of the full grid in chunks of at most _DRAW_CHUNK samples
and keeps the box positions of each, so its memory follows the box
(its time does not: it draws every normal of the grid);
real_part_spectrum gives the spectrum of Re(inverse_dft(F)) plus a
constant, as the Hermitian part (F(xi) + conj F(-xi)) / 2 with -xi taken
mod n_k inside the symmetric box and the constant times prod_k L_k on
the xi = 0 mode; and oscillated_spectrum gives the spectrum of the
zero-mean part of f e^{2 pi i n x_k / L_k}, which is the box shifted by
n lattice points along axis k (its indices mod n_k) with the xi = 0 mode
cleared.  These two work on the box alone, so their cost follows the
band, not the grid.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    FieldCorruptionError,
    FieldFormatError,
    SpaceTagError,
)

_MAGIC = b"HPFLD1\n"
_MAX_SAMPLES = 1 << 28  # constructor-checked addressable-memory bound
_DRAW_CHUNK = 1 << 16  # samples per normal draw of band_limited_spectrum (0.5 MB)

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

    def on_axis(self, values: np.ndarray, axis: int) -> np.ndarray:
        """A 1-d array along grid axis `axis` (spatial axes first, then
        velocity axes), shaped for broadcasting over the full grid."""
        shape = [1] * (self.d + self.m)
        shape[axis] = -1
        return np.reshape(values, shape)

    def lift(self, values: np.ndarray) -> np.ndarray:
        """An array over the spatial axes (or broadcastable to them),
        shaped for broadcasting over the full grid."""
        return np.reshape(values, np.shape(values) + (1,) * self.m)

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Spatial coordinate arrays shaped for broadcasting over the full grid."""
        return tuple(self.on_axis(self.coord_axis(k), k) for k in range(self.d))

    def velocity_coordinates(self) -> tuple[np.ndarray, ...]:
        return tuple(self.on_axis(self.velocity_axis(i), self.d + i)
                     for i in range(self.m))

    def frequencies(self) -> tuple[np.ndarray, ...]:
        """Frequency axes shaped for broadcasting over the spatial lattice
        (FFT order); lift them to reach the velocity axes."""
        lattice = self.spatial_only()
        return tuple(lattice.on_axis(self.freq_axis(k), k) for k in range(self.d))

    def sample(self, f) -> np.ndarray:
        """A constant, an array or a callable of the coordinates
        (x_1, ..., x_d, p_1, ..., p_m) as a complex array of the grid shape."""
        if callable(f):
            f = f(*self.coordinates(), *self.velocity_coordinates())
        return np.broadcast_to(np.asarray(f, dtype=complex), self.shape)

    def sample_velocity(self, f) -> np.ndarray:
        """A constant, an array or a callable of the velocities
        (p_1, ..., p_m), evaluated on the full velocity mesh, as a float
        array; callers broadcast it to the shape they need."""
        if callable(f):
            f = f(*np.meshgrid(*(self.velocity_axis(i) for i in range(self.m)),
                               indexing="ij"))
        return np.asarray(f, dtype=float)

    def frequency_vectors(self) -> np.ndarray:
        """Array of shape (*n_per_axis, d) with the frequency vector at each
        spatial lattice site (FFT order)."""
        return np.stack(np.broadcast_arrays(*self.frequencies()), axis=-1)

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
    """Transform the spatial axes to frequency space.  The transform
    writes into one new array and is scaled there in place (numpy >= 2.0),
    so one full-grid array is allocated; likewise inverse_dft."""
    f.require(PHYSICAL)
    g = f.grid
    out = np.fft.fftn(np.asarray(f.values), axes=g.spatial_axes,
                      out=np.empty(f.values.shape, complex))
    out *= g.cell_volume
    return SpectralField(g, out, FREQUENCY)


def dft_axis(a: np.ndarray, axis: int, length: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """The transform of a raw array along one axis, of the given length
    and a.shape[axis] samples, in forward_dft's convention: applied to
    every spatial axis of a field's values in turn, it is forward_dft up
    to rounding.  out (complex, a's shape) may be a itself."""
    out = np.fft.fft(a, axis=axis, out=out)
    out *= length / a.shape[axis]
    return out


def inverse_dft(F: SpectralField) -> SpectralField:
    """Transform the spatial axes back to physical space."""
    F.require(FREQUENCY)
    g = F.grid
    scale = 1.0
    for n, L in zip(g.n_per_axis, g.length_per_axis):
        scale *= n / L
    out = np.fft.ifftn(np.asarray(F.values), axes=g.spatial_axes,
                       out=np.empty(F.values.shape, complex))
    out *= scale
    return SpectralField(g, out, PHYSICAL)


def subtract_spatial_mean(f: SpectralField) -> SpectralField:
    """Remove the spatial mean at every velocity sample."""
    f.require(PHYSICAL)
    axes = f.grid.spatial_axes
    m = np.mean(f.values, axis=axes, keepdims=True)
    return f.with_values(f.values - m)


def convolve_velocity(f: SpectralField, kernel: Callable[..., np.ndarray]) -> SpectralField:
    """Discrete periodic convolution along the velocity axes:
    out(x, p) = sum_q f(x, p - q) kernel(q), with p - q wrapped onto the
    centred interval [-P/2, P/2) of each axis.  kernel is called once
    with the signed velocity offsets q_1, ..., q_m (multiples of the
    velocity spacing, each of shape n_velocity, in wrap order) and
    returns the kernel samples, used as given (no quadrature weight)."""
    g = f.grid
    offsets = [np.fft.fftfreq(n) * n * (P / n)
               for n, P in zip(g.n_velocity, g.velocity_length)]
    ker = kernel(*np.meshgrid(*offsets, indexing="ij"))
    U = np.fft.fftn(np.asarray(f.values), axes=g.velocity_axes)
    K = np.fft.fftn(ker, axes=tuple(range(g.m)))
    return f.with_values(np.fft.ifftn(U * K, axes=g.velocity_axes))


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
        line = fh.readline((1 << 16) + 1)  # at most 65,536 bytes and "\n"
        if not line.endswith(b"\n"):
            raise FieldFormatError("header line too long" if len(line) > 1 << 16
                                   else "unterminated header line")
        try:
            header = json.loads(line[:-1].decode("utf-8"))
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
        # check the size before reading, so a corrupt header cannot make
        # us read (or allocate for) a payload of the wrong length
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != count * 16:
            raise FieldCorruptionError(
                f"payload is {size} bytes, expected {count * 16}")
        flat = np.frombuffer(fh.read(), dtype="<f8")
        vals = (flat[0::2] + 1j * flat[1::2]).reshape(grid.shape)
        return SpectralField(grid, vals, header["space"])


@dataclass(frozen=True)
class SpectralBand:
    """A spectrum that vanishes outside a box of spatial modes.

    index holds one sorted array of distinct FFT storage indices B_k per
    spatial axis, and values the spectrum on the box B_1 x ... x B_d at
    every velocity sample, an array of shape (|B_1|, ..., |B_d|,
    *n_velocity); every mode outside the box is 0.  A full-grid spectrum
    is the band whose index arrays hold every index (SpectralBand.of),
    and its values are then the full-grid array itself.  Like
    SpectralField, the band freezes its arrays in place."""

    grid: SpectralGrid
    values: np.ndarray = field(repr=False)
    index: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        g = self.grid
        index = tuple(np.asarray(i, dtype=np.intp) for i in self.index)
        if len(index) != g.d or any(
                i.ndim != 1 or np.any(i[1:] <= i[:-1]) or np.any(i < 0) or np.any(i >= n)
                for i, n in zip(index, g.n_per_axis)):
            raise DomainError("a band needs one sorted array of distinct FFT "
                              "indices per spatial axis")
        vals = np.asarray(self.values, dtype=np.complex128)
        shape = tuple(i.size for i in index) + g.n_velocity
        if vals.shape != shape:
            raise DomainError(f"band values shape {vals.shape} does not match "
                              f"its box {shape}")
        for a in (vals, *index):
            a.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "index", index)

    @classmethod
    def of(cls, F: "SpectralField | SpectralBand") -> "SpectralBand":
        """F if it is a band, else the band of every index of the
        spectrum F (its values, not a copy)."""
        if isinstance(F, SpectralBand):
            return F
        F.require(FREQUENCY)
        return cls(F.grid, F.values, tuple(np.arange(n) for n in F.grid.n_per_axis))

    def with_values(self, values: np.ndarray) -> "SpectralBand":
        return SpectralBand(self.grid, values, self.index)

    def scatter(self) -> SpectralField:
        """The spectrum on the full grid, 0 outside the box."""
        out = np.zeros(self.grid.shape, complex)
        out[np.ix_(*self.index)] = self.values
        return SpectralField(self.grid, out, FREQUENCY)


def _positions(index: np.ndarray, wanted) -> np.ndarray:
    """Where the FFT indices `wanted` sit in the sorted band index (for
    real_part_spectrum, which needs -xi and xi = 0 inside the box)."""
    pos = np.searchsorted(index, wanted)
    if np.any(pos == index.size) or np.any(index[pos] != wanted):
        raise DomainError("the Hermitian part needs a box that holds -xi "
                          "with every xi, and xi = 0")
    return pos


def band_limited_spectrum(grid: SpectralGrid, rng: np.random.Generator,
                          band_fraction: float = 0.25) -> SpectralBand:
    """Random spectrum with zero xi = 0 mode, confined to the box of modes
    within max(1, band_fraction * n_k / 2) lattice points of 0 on each
    spatial axis (white along the velocity axes), for 0 < band_fraction
    <= 1.  The draw is the stream of the full grid in C order, its real
    parts and then its imaginary parts, taken in chunks of at most
    _DRAW_CHUNK samples of which only the box positions are kept.
    Chunked draws give the values and the generator state of one draw of
    the grid, so memory follows the box and the chunk, not the grid."""
    if not 0 < band_fraction <= 1:  # NaN fails too
        raise DomainError(f"band_fraction must lie in (0, 1], got {band_fraction!r}")
    index = []
    for n in grid.n_per_axis:
        idx = np.fft.fftfreq(n) * n
        index.append(np.flatnonzero(np.abs(idx) <= max(1, int(band_fraction * n / 2))))
    # the box's positions in the C-order stream: sorted, so the share of
    # each chunk is one slice
    box = np.ix_(*index, *map(np.arange, grid.n_velocity))
    pos = np.ravel_multi_index(box, grid.shape)
    flat = pos.ravel()
    spec = np.empty(pos.shape, complex)
    parts = spec.view(float).reshape(-1, 2)  # columns: real, imaginary
    total = math.prod(grid.shape)
    buf = np.empty(min(_DRAW_CHUNK, total))
    for column in (0, 1):
        for start in range(0, total, _DRAW_CHUNK):
            draw = rng.standard_normal(out=buf[:total - start])
            lo, hi = np.searchsorted(flat, (start, start + draw.size))
            parts[lo:hi, column] = draw[flat[lo:hi] - start]
    spec[(0,) * grid.d] = 0.0  # the indices are sorted, so xi = 0 comes first
    spec *= grid.freq_cell_volume
    return SpectralBand(grid, spec, tuple(index))


def band_limited_field(grid: SpectralGrid, rng: np.random.Generator,
                       band_fraction: float = 0.25) -> SpectralField:
    """Random zero-mean complex physical field, the inverse DFT of
    band_limited_spectrum."""
    return inverse_dft(band_limited_spectrum(grid, rng, band_fraction).scatter())


def real_part_spectrum(F: SpectralField | SpectralBand,
                       offset: float = 0.0) -> SpectralBand:
    """Spectrum of Re(inverse_dft(F)) + offset, without a transform: the
    Hermitian part (F(xi) + conj F(-xi)) / 2 over the spatial axes, with
    -xi taken mod n_k (the Nyquist index maps to itself), and offset
    times the torus volume prod_k L_k added to the xi = 0 mode.  F is a
    band or a full-grid spectrum; the box must hold -xi with every xi,
    and the zero mode."""
    B = SpectralBand.of(F)
    g = B.grid
    neg = np.ix_(*(_positions(i, -i % n) for i, n in zip(B.index, g.n_per_axis)))
    out = np.conjugate(B.values[neg])
    out += B.values
    out *= 0.5
    out[tuple(_positions(i, 0) for i in B.index)] += offset * math.prod(g.length_per_axis)
    return B.with_values(out)


def oscillated_spectrum(F: SpectralField | SpectralBand, n: int, axis: int) -> SpectralBand:
    """Spectrum of f e^{2 pi i n x_axis / L_axis} minus its spatial mean,
    from the spectrum F of f (a band or a full-grid spectrum): the box
    shifted by n lattice points along spatial axis `axis` (taken mod d,
    so -1 is the last spatial axis), its indices taken mod n_k, with the
    xi = 0 mode set to 0 if the shifted box holds it.  Only n mod n_k
    matters; it is reduced first, so n may be any Python int."""
    B = SpectralBand.of(F)
    g = B.grid
    k = axis % g.d
    shifted = (B.index[k] + n % g.n_per_axis[k]) % g.n_per_axis[k]
    order = np.argsort(shifted)
    index = B.index[:k] + (shifted[order],) + B.index[k + 1:]
    out = np.take(B.values, order, axis=k)
    if all(0 in i for i in index):
        out[(0,) * g.d] = 0.0  # sorted indices: xi = 0 comes first
    return SpectralBand(g, out, index)
