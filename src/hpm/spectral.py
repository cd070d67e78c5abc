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

A SpectralField holds physical samples u(x, p), an array of shape
(n_1, ..., n_d, n_p1, ..., n_pm): spatial axes first, then the velocity
midpoints.  SpectralGrid owns that layout: it broadcasts 1-d axis arrays
(on_axis, coordinates, frequencies) and x-only arrays (lift) over the
grid, and samples callables on x or (x, p) (sample) and on p
(sample_velocity).  Every spectrum is a SpectralBand, one that vanishes
outside a box of spatial modes: the (|B_1|, ..., |B_d|, *n_velocity)
values on the box and the sorted FFT indices B_k of each axis.
forward_dft gives the band of every index (SpectralBand.full), scatter()
puts a band on the grid, frequencies() gives its box.  A full-grid band
has a field's shape, so functions check which of the two they were
given (require).  This is the only module that calls numpy.fft; besides
the transforms of fields it offers dft_axis, the transform of a raw
array along one axis, for callers that build a transform pass by pass.

inverse_dft inverts a band with numpy.fft.ifftn in place in its output
array.  Every L2 norm is l2_norm's, whose squares neither underflow nor
overflow; a band's norm_l2 is by Plancherel its inverse DFT's, and a norm
is published only if it is a normal float or the norm of zeros
(normal_norm).
band_limited_spectrum draws a random spectrum as a band, its memory
following the box (band_limited_field is its inverse DFT);
real_part_spectrum and oscillated_spectrum give the spectra of a real
part and of a zero-mean modulation on the box alone, so their cost
follows the band, not the grid.  Fields are stored in the HPFLD1 format,
which holds physical samples only (write_field, read_field).  Every
blocked pass of the package, here and in averaging and hmeasure, takes
its block width from block_rows: at most _BLOCK_BYTES (256 KiB) a block.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    FieldCorruptionError,
    FieldFormatError,
    IntegrityError,
    SpaceTagError,
)

_MAGIC = b"HPFLD1\n"
_MAX_SAMPLES = 1 << 28  # constructor-checked addressable-memory bound
_BLOCK_BYTES = 1 << 18  # the budget of one block of every blocked pass


def block_rows(row_bytes: int) -> int:
    """Rows of row_bytes each in one _BLOCK_BYTES block, at least one."""
    return max(1, _BLOCK_BYTES // row_bytes)


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


def l2_norm(values: np.ndarray, volume: float) -> float:
    """sqrt(sum |values|^2 * volume), the moduli scaled by 2^-e, the power
    of two that bounds the largest, before they are squared, and the root
    scaled back by 2^e.  That rounds nothing, so where no square under- or
    overflows this is the unscaled formula bit for bit, and elsewhere no
    square leaves the float range.  0.0 for an all-zero array or a norm
    below the smallest subnormal."""
    mod = np.abs(values)
    e = np.frexp(np.max(mod, initial=0.0))[1]
    np.square(np.ldexp(mod, -e, out=mod), out=mod)
    return float(np.ldexp(np.sqrt(np.sum(mod) * volume), e))


def normal_norm(norm: float, values: np.ndarray, what: str) -> float:
    """norm, the L2 norm of values, as a result to publish: IntegrityError
    if it is below sys.float_info.min while the values are not all 0, since
    a subnormal norm has lost digits and one of 0 has lost them all."""
    if norm < sys.float_info.min and np.any(values):
        raise IntegrityError(f"{what} is {norm!r}, below the smallest normal float "
                             f"{sys.float_info.min!r}, but its values are not all 0")
    return norm


def require(x, kind: type) -> None:
    """SpaceTagError unless x is a kind: SpectralField (physical samples)
    or SpectralBand (a spectrum)."""
    if not isinstance(x, kind):
        raise SpaceTagError(f"expected a {kind.__name__}, got {type(x).__name__}")


def increasing(values, least: int, name: str) -> tuple:
    """values as a tuple of at least `least` strictly increasing entries,
    or a DomainError naming the list `name`."""
    values = tuple(values)
    if len(values) < least or any(b <= a for a, b in zip(values, values[1:])):
        raise DomainError(f"{name} must be a strictly increasing list of length "
                          f"at least {least}, got {list(values)}")
    return values


@dataclass(frozen=True)
class SpectralField:
    """Complex physical samples on a grid.

    The field takes ownership of its values: a complex128 array is frozen
    in place (made read-only), not copied, so pass a copy if you keep
    writing to yours.  Every operation returns a new field, so fields can
    be shared freely between threads."""

    grid: SpectralGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise DomainError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def norm_l2(self) -> float:
        """L2 norm with the cell measure of x and the midpoint measure of p
        (l2_norm)."""
        vol = self.grid.cell_volume * self.grid.velocity_cell_volume
        return l2_norm(self.values, vol)

    def with_values(self, values: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, values)


def forward_dft(f: SpectralField) -> SpectralBand:
    """Transform the spatial axes to frequency space, as the band of every
    index.  The transform writes into one new array and is scaled there
    in place (numpy >= 2.0), so one full-grid array is allocated;
    likewise inverse_dft."""
    require(f, SpectralField)
    g = f.grid
    out = np.fft.fftn(np.asarray(f.values), axes=g.spatial_axes,
                      out=np.empty(f.values.shape, complex))
    out *= g.cell_volume
    return SpectralBand.full(g, out)


def dft_axis(a: np.ndarray, axis: int, length: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """The transform of a raw array along one axis, of the given length
    and a.shape[axis] samples, in forward_dft's convention: applied to
    every spatial axis of a field's values in turn, it is forward_dft up
    to rounding.  out (complex, a's shape) may be a itself."""
    out = np.fft.fft(a, axis=axis, out=out)
    out *= length / a.shape[axis]
    return out


def inverse_dft(F: SpectralBand) -> SpectralField:
    """Transform the spatial axes back to physical space.  The band is
    placed on the grid in the output array itself and numpy.fft.ifftn
    transforms it there in place, so the result equals numpy.fft.ifftn of
    F.scatter() bit for bit and the output is the only full-grid array."""
    require(F, SpectralBand)
    g = F.grid
    scale = 1.0
    for n, L in zip(g.n_per_axis, g.length_per_axis):
        scale *= n / L
    out = np.zeros(g.shape, complex)
    out[np.ix_(*F.index)] = F.values
    np.fft.ifftn(out, axes=g.spatial_axes, out=out)
    out *= scale
    return SpectralField(g, out)


def subtract_spatial_mean(f: SpectralField) -> SpectralField:
    """Remove the spatial mean at every velocity sample."""
    require(f, SpectralField)
    axes = f.grid.spatial_axes
    m = np.mean(f.values, axis=axes, keepdims=True)
    return f.with_values(f.values - m)


def write_field(f: SpectralField, path) -> None:
    """Serialize physical samples in the HPFLD1 format: magic, one JSON
    header line, raw little-endian float64 (re, im) pairs, row-major,
    last axis fastest."""
    require(f, SpectralField)
    g = f.grid
    header = {
        "d": g.d,
        "m": g.m,
        "n": list(g.n_per_axis + g.n_velocity),
        "L": list(g.length_per_axis + g.velocity_length),
        "space": "physical",
    }
    # a complex128 array in C order already is that payload: no copy
    vals = np.ascontiguousarray(f.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(memoryview(vals).cast("B"))


def read_field(path) -> SpectralField:
    """Read an HPFLD1 file: its header is a JSON object of integers d >= 1
    and m >= 0, d + m integer counts n and finite lengths L, and "space":
    "physical"."""
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
        if not isinstance(header, dict):
            raise FieldFormatError("header is not a JSON object")
        for key in ("d", "m", "n", "L", "space"):
            if key not in header:
                raise FieldFormatError(f"header missing key {key!r}")
        d, m = header["d"], header["m"]
        n, L = header["n"], header["L"]
        if type(d) is not int or type(m) is not int or d < 1 or m < 0:
            raise FieldFormatError(f"invalid dimensions d={d!r}, m={m!r}")
        if not isinstance(n, list) or any(type(nk) is not int for nk in n):
            raise FieldFormatError("sample counts n are not a list of integers")
        if not isinstance(L, list) or not all(
                type(x) in (int, float) and -math.inf < x < math.inf for x in L):
            raise FieldFormatError("lengths L are not a list of finite numbers")
        if len(n) != d + m or len(L) != d + m:
            raise FieldFormatError("axis lists do not match d + m")
        if header["space"] != "physical":
            raise FieldFormatError(f"space tag {header['space']!r} is not 'physical'")
        try:
            grid = SpectralGrid(
                tuple(n[:d]), tuple(L[:d]), tuple(n[d:]), tuple(L[d:]))
        except (DomainError, OverflowError) as exc:  # an int length past the float range
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
        vals = np.frombuffer(fh.read(), dtype="<c16").reshape(grid.shape)
        return SpectralField(grid, vals)


@dataclass(frozen=True)
class SpectralBand:
    """A spectrum that vanishes outside a box of spatial modes.

    index holds one sorted array of distinct FFT storage indices B_k per
    spatial axis, and values the spectrum on the box B_1 x ... x B_d at
    every velocity sample, an array of shape (|B_1|, ..., |B_d|,
    *n_velocity); every mode outside the box is 0.  A full-grid spectrum
    is the band whose index arrays hold every index (SpectralBand.full),
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
    def full(cls, grid: SpectralGrid, values: np.ndarray) -> "SpectralBand":
        """The band of every index: the full-grid spectrum values (taken,
        not copied)."""
        return cls(grid, values, tuple(np.arange(n) for n in grid.n_per_axis))

    def with_values(self, values: np.ndarray) -> "SpectralBand":
        return SpectralBand(self.grid, values, self.index)

    def frequencies(self) -> tuple[np.ndarray, ...]:
        """SpectralGrid.frequencies at the box, for broadcasting over it."""
        return tuple(np.take(f, i, axis=k) for k, (f, i)
                     in enumerate(zip(self.grid.frequencies(), self.index)))

    def frequency_vectors(self) -> np.ndarray:
        """The (|B_1|, ..., |B_d|, d) array of the box's frequency vectors."""
        return np.stack(np.broadcast_arrays(*self.frequencies()), axis=-1)

    def norm_l2(self) -> float:
        """The spectrum's L2 norm (0 off the box), so by Plancherel that
        of its inverse DFT (l2_norm)."""
        vol = self.grid.freq_cell_volume * self.grid.velocity_cell_volume
        return l2_norm(self.values, vol)

    def scatter(self) -> "SpectralBand":
        """The full-grid band of this spectrum, 0 outside the box."""
        out = np.zeros(self.grid.shape, complex)
        out[np.ix_(*self.index)] = self.values
        return SpectralBand.full(self.grid, out)


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
    parts and then its imaginary parts, taken in chunks of block_rows(8)
    samples of which only the box positions are kept.
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
    chunk = block_rows(8)
    buf = np.empty(min(chunk, total))
    for column in (0, 1):
        for start in range(0, total, chunk):
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
    return inverse_dft(band_limited_spectrum(grid, rng, band_fraction))


def real_part_spectrum(F: SpectralBand, offset: float = 0.0) -> SpectralBand:
    """Spectrum of Re(inverse_dft(F)) + offset, without a transform: the
    Hermitian part (F(xi) + conj F(-xi)) / 2 over the spatial axes, with
    -xi taken mod n_k (the Nyquist index maps to itself), and offset
    times the torus volume prod_k L_k added to the xi = 0 mode.  The box
    of F must hold -xi with every xi, and the zero mode."""
    require(F, SpectralBand)
    g = F.grid
    neg = np.ix_(*(_positions(i, -i % n) for i, n in zip(F.index, g.n_per_axis)))
    out = np.conjugate(F.values[neg])
    out += F.values
    out *= 0.5
    out[tuple(_positions(i, 0) for i in F.index)] += offset * math.prod(g.length_per_axis)
    return F.with_values(out)


def oscillated_spectrum(F: SpectralBand, n: int, axis: int) -> SpectralBand:
    """Spectrum of f e^{2 pi i n x_axis / L_axis} minus its spatial mean,
    from the spectrum F of f: the box shifted by n lattice points along
    spatial axis `axis` (taken mod d, so -1 is the last spatial axis), its
    indices taken mod n_k, with the xi = 0 mode set to 0 if the shifted
    box holds it.  Only n mod n_k matters; it is reduced first, so n may
    be any Python int."""
    require(F, SpectralBand)
    g = F.grid
    k = axis % g.d
    shifted = (F.index[k] + n % g.n_per_axis[k]) % g.n_per_axis[k]
    order = np.argsort(shifted)
    index = F.index[:k] + (shifted[order],) + F.index[k + 1:]
    out = np.take(F.values, order, axis=k)
    if all(0 in i for i in index):
        out[(0,) * g.d] = 0.0  # sorted indices: xi = 0 comes first
    return SpectralBand(g, out, index)
