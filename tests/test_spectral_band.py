"""The band pipeline against the full-grid computation, bit for bit.

A band keeps the spectrum on a box of spatial modes only.  Every step of
the transport pipeline (the draw, the Hermitian part, the shift by n,
the transport phase and the velocity quadrature) is written out below on
the full grid, as the pipeline computed it before it ran on the box, and
the band's values scattered onto the grid must equal it exactly."""

import math
import tracemalloc

import numpy as np
import pytest

from hpm import spectral
from hpm.averaging import transport_spectrum, velocity_average
from hpm.errors import DomainError
from hpm.spectral import (
    SpectralBand,
    SpectralField,
    SpectralGrid,
    band_limited_spectrum,
    oscillated_spectrum,
    real_part_spectrum,
)


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


GRIDS = {
    (1, 1): SpectralGrid((16,), (1.5,), n_velocity=(5,), velocity_length=(1.0,)),
    (1, 2): SpectralGrid((8,), (1.0,), n_velocity=(3, 4), velocity_length=(1.0, 2.0)),
    (2, 1): SpectralGrid((8, 16), (1.0, 2.0), n_velocity=(6,), velocity_length=(1.0,)),
    (2, 2): SpectralGrid((16, 8), (2.0, 0.5), n_velocity=(3, 2),
                         velocity_length=(1.0, 0.5)),
    (3, 1): SpectralGrid((4, 8, 16), (0.5, 1.0, 3.0), n_velocity=(3,),
                         velocity_length=(2.0,)),
    (3, 2): SpectralGrid((8, 4, 8), (1.0, 1.0, 1.0), n_velocity=(2, 3),
                         velocity_length=(1.0, 1.0)),
}
FRACTIONS = [0.3, 1.0]


# --- the full-grid computation ------------------------------------------------

def full_draw(grid, r, band_fraction):
    spec = r.standard_normal(grid.shape) + 1j * r.standard_normal(grid.shape)
    for k in range(grid.d):
        n = grid.n_per_axis[k]
        idx = np.fft.fftfreq(n) * n
        spec *= grid.on_axis(np.abs(idx) <= max(1, int(band_fraction * n / 2)), k)
    spec[(0,) * grid.d] = 0.0
    spec *= grid.freq_cell_volume
    return spec


def full_real_part(grid, spec, offset):
    axes = grid.spatial_axes
    out = np.conjugate(np.roll(np.flip(spec, axis=axes), 1, axis=axes))
    out += spec
    out *= 0.5
    out[(0,) * grid.d] += offset * np.prod(grid.length_per_axis)
    return out


def full_shift(grid, spec, n, axis):
    out = np.roll(spec, n, axis=axis % grid.d)
    out[(0,) * grid.d] = 0.0
    return out


def full_transport(grid, spec, a, t):
    out = spec
    for k, xk in enumerate(grid.frequencies()):
        out = out * np.exp(-2j * np.pi * t * (grid.lift(xk) * a[..., k]))
    return out


def full_average(grid, spec, rho_vals):
    return np.tensordot(spec, rho_vals, axes=(grid.velocity_axes, tuple(range(grid.m)))) \
        * grid.velocity_cell_volume


def velocity(grid):
    # a(p) with every component depending on the velocities
    def a(*p):
        s = sum(p)
        return np.stack([0.5 + s * (k + 1) for k in range(grid.d)], axis=-1)
    return a


def weight(grid):
    # vanishes on the faces of the velocity box
    def rho(*p):
        return np.prod([np.cos(np.pi * q / P) ** 2
                        for q, P in zip(p, grid.velocity_length)], axis=0)
    return rho


def envelope(grid, band_fraction, key=3):
    """The CLI's envelope spectrum, as a band and on the full grid."""
    band = real_part_spectrum(band_limited_spectrum(grid, rng(key), band_fraction),
                              offset=1.0)
    full = full_real_part(grid, full_draw(grid, rng(key), band_fraction), 1.0)
    return band, full


def shifts(grid):
    """(n, axis) pairs: a small shift, shifts that wrap the box past n_k/2,
    a full period, backwards, and along negative axes."""
    d, last = grid.d, grid.n_per_axis[-1]
    return [(1, 0), (grid.n_per_axis[0] // 2, 0), (grid.n_per_axis[0], 0),
            (-3, -1), (last // 2 + 1, -1), (-last - 2, d - 1), (2 * last, -d)]


CASES = [(dm, bf) for dm in GRIDS for bf in FRACTIONS]
IDS = [f"d{d}-m{m}-band{bf}" for (d, m), bf in CASES]


@pytest.mark.parametrize("dm,band_fraction", CASES, ids=IDS)
class TestAgainstTheFullGrid:
    def test_draw(self, dm, band_fraction):
        grid = GRIDS[dm]
        r_band, r_full = rng(5), rng(5)
        band = band_limited_spectrum(grid, r_band, band_fraction)
        assert np.array_equal(band.scatter().values, full_draw(grid, r_full, band_fraction))
        # the band consumes exactly the old two draws of the full grid
        assert r_band.standard_normal() == r_full.standard_normal()

    def test_box_of_the_whole_grid(self, dm, band_fraction):
        grid = GRIDS[dm]
        band = band_limited_spectrum(grid, rng(1), band_fraction)
        whole = [np.array_equal(i, np.arange(n))
                 for i, n in zip(band.index, grid.n_per_axis)]
        # band_fraction 1.0 keeps every index, the Nyquist index included
        assert all(whole) == (band_fraction == 1.0)
        assert band.values.shape == tuple(map(len, band.index)) + grid.n_velocity

    def test_hermitian_part(self, dm, band_fraction):
        grid = GRIDS[dm]
        band, full = envelope(grid, band_fraction)
        assert np.array_equal(band.scatter().values, full)

    def test_shifts(self, dm, band_fraction):
        grid = GRIDS[dm]
        band, full = envelope(grid, band_fraction)
        for n, axis in shifts(grid):
            got = oscillated_spectrum(band, n, axis)
            assert np.array_equal(got.scatter().values, full_shift(grid, full, n, axis))
            assert all(np.all(np.diff(i) > 0) for i in got.index)

    def test_shift_depends_on_n_mod_n_k_only(self, dm, band_fraction):
        # n + 2**70 n_k lies beyond int64, but only n mod n_k shapes the band
        grid = GRIDS[dm]
        band, _ = envelope(grid, band_fraction)
        for n, axis in shifts(grid):
            want = oscillated_spectrum(band, n, axis)
            got = oscillated_spectrum(band, n + 2 ** 70 * grid.n_per_axis[axis], axis)
            assert all(map(np.array_equal, got.index, want.index))
            assert np.array_equal(got.values, want.values)

    def test_transport_and_average(self, dm, band_fraction):
        grid = GRIDS[dm]
        band, full = envelope(grid, band_fraction)
        a = grid.sample_velocity(velocity(grid))
        rho = weight(grid)
        rho_vals = np.broadcast_to(grid.sample_velocity(rho), grid.n_velocity)
        for n in (2, grid.n_per_axis[-1] // 2 + 1):
            want = full_transport(grid, full_shift(grid, full, n, -1), a, 0.7)
            got = transport_spectrum(oscillated_spectrum(band, n, -1),
                                     velocity(grid), 0.7)
            assert np.array_equal(got.scatter().values, want)
            avg = velocity_average(got, rho)
            assert isinstance(avg, SpectralBand)
            assert all(map(np.array_equal, avg.index, got.index))
            assert avg.grid == grid.spatial_only()
            assert np.array_equal(avg.scatter().values, full_average(grid, want, rho_vals))


# the draw also runs on grids with no velocity axes
DRAW_GRIDS = {
    **GRIDS,
    (1, 0): SpectralGrid((32,), (1.0,)),
    (2, 0): SpectralGrid((16, 8), (1.0, 2.0)),
    (3, 0): SpectralGrid((8, 4, 16), (1.0, 0.5, 2.0)),
}


class TestStreamedDraw:
    """band_limited_spectrum draws the stream of the full grid in chunks of
    of block_rows(8) samples and keeps the box positions of each."""

    # TestAgainstTheFullGrid.test_draw covers the grids with velocity axes
    @pytest.mark.parametrize("dm", [(1, 0), (2, 0), (3, 0)], ids=lambda dm: f"d{dm[0]}-m0")
    @pytest.mark.parametrize("band_fraction", FRACTIONS)
    def test_draw_without_velocity_axes(self, dm, band_fraction):
        grid = DRAW_GRIDS[dm]
        r_band, r_full = rng(9), rng(9)
        band = band_limited_spectrum(grid, r_band, band_fraction)
        assert np.array_equal(band.scatter().values, full_draw(grid, r_full, band_fraction))
        assert r_band.standard_normal() == r_full.standard_normal()

    # 1 and 7 put chunk edges between neighbouring box positions; 37
    # divides no grid size, so the last chunk is a short one
    @pytest.mark.parametrize("chunk", [1, 7, 37])
    @pytest.mark.parametrize("dm", [(1, 0), (1, 2), (2, 1), (3, 0), (3, 2)],
                             ids=lambda dm: f"d{dm[0]}-m{dm[1]}")
    def test_chunk_edges_inside_the_box(self, monkeypatch, chunk, dm):
        grid = DRAW_GRIDS[dm]
        assert math.prod(grid.shape) % chunk or chunk == 1
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 8 * chunk)
        for band_fraction in FRACTIONS:
            r_band, r_full = rng(2), rng(2)
            band = band_limited_spectrum(grid, r_band, band_fraction)
            assert np.array_equal(band.scatter().values,
                                  full_draw(grid, r_full, band_fraction))
            assert r_band.standard_normal() == r_full.standard_normal()

    def test_draw_memory_follows_the_box(self):
        # the 32 x 256 x 256 grid of the transport workload, at the band of
        # the CLI's envelope: the box is 2.4% of the grid
        grid = SpectralGrid((32, 256), (1.0, 1.0), n_velocity=(256,),
                            velocity_length=(1.0,))
        tracemalloc.start()
        try:
            band = band_limited_spectrum(grid, rng(7), 0.15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert band.values.shape == (5, 39, 256)
        assert peak < 8 * math.prod(grid.shape) / 4

    @pytest.mark.parametrize("band_fraction", [-1.0, 0.0, 1.5, 1e300,
                                               float("inf"), float("nan")])
    def test_band_fraction_outside_the_unit_interval(self, band_fraction):
        with pytest.raises(DomainError, match="band_fraction"):
            band_limited_spectrum(GRIDS[(2, 1)], rng(), band_fraction)


class TestBandRules:
    def test_full_grid_spectrum_is_the_band_of_every_index(self):
        grid = GRIDS[(2, 1)]
        band, full = envelope(grid, 1.0)
        whole = band.scatter()
        assert np.array_equal(whole.values, full)
        assert all(np.array_equal(i, np.arange(n))
                   for i, n in zip(whole.index, grid.n_per_axis))
        assert SpectralBand.full(grid, whole.values).values is whole.values

    def test_hermitian_part_needs_a_symmetric_box(self):
        band, _ = envelope(GRIDS[(2, 1)], 0.3)
        with pytest.raises(DomainError):
            real_part_spectrum(oscillated_spectrum(band, 1, 0))

    @pytest.mark.parametrize("index, shape", [
        ((np.array([0, 2]), np.array([1, 0])), (2, 2, 6)),   # unsorted
        ((np.array([0, 8]), np.array([0, 1])), (2, 2, 6)),   # out of range
        ((np.array([0, 2]),), (2, 6)),                       # one axis short
        ((np.array([0, 2]), np.array([0, 1])), (2, 2, 5)),   # wrong shape
    ])
    def test_malformed_band(self, index, shape):
        with pytest.raises(DomainError):
            SpectralBand(GRIDS[(2, 1)], np.zeros(shape, complex), index)


# --- the inverse DFT of a band ------------------------------------------------

def bits(field):
    return field.values.view(np.uint64)


def ifftn_bits(band):
    """The reference inverse: numpy.fft.ifftn of the band scattered onto
    the grid, scaled by prod_k n_k / L_k as inverse_dft scales."""
    g = band.grid
    out = np.fft.ifftn(band.scatter().values, axes=g.spatial_axes)
    scale = 1.0
    for n, L in zip(g.n_per_axis, g.length_per_axis):
        scale *= n / L
    out *= scale
    return out.view(np.uint64)


def inverted_bands(grid, band_fraction):
    """Bands of every kind the pipeline inverts: the draw, its Hermitian
    part, that part shifted along each axis (boxes whose runs of
    consecutive indices move, split or join as they wrap mod n_k), and
    the band of every index of its scattered spectrum."""
    draw = band_limited_spectrum(grid, rng(4), band_fraction)
    envelope_band = real_part_spectrum(draw, offset=1.0)
    yield draw
    yield envelope_band
    for n, axis in shifts(grid):
        yield oscillated_spectrum(envelope_band, n, axis)
    yield envelope_band.scatter()


INVERSE_CASES = [(dm, bf) for dm in DRAW_GRIDS for bf in (0.1, *FRACTIONS)]


class TestBandInverse:
    """inverse_dft of a band runs numpy.fft.ifftn in place in its output,
    so it equals numpy.fft.ifftn of the band scattered onto the grid bit
    for bit (the sign of zero included)."""

    @pytest.mark.parametrize("dm,band_fraction", INVERSE_CASES,
                             ids=[f"d{d}-m{m}-band{bf}" for (d, m), bf in INVERSE_CASES])
    def test_bitwise_equal_to_the_scattered_inverse(self, dm, band_fraction):
        grid = DRAW_GRIDS[dm]
        for band in inverted_bands(grid, band_fraction):
            got = spectral.inverse_dft(band)
            assert isinstance(got, SpectralField) and got.grid == grid
            assert np.array_equal(bits(got), ifftn_bits(band))

    @pytest.mark.parametrize("dm", [(1, 0), (2, 1), (3, 0)], ids=lambda dm: f"d{dm[0]}-m{dm[1]}")
    def test_nyquist_and_scattered_boxes(self, dm):
        # boxes holding the Nyquist index n_k/2 alone, beside xi = 0, or
        # every other index (one run per index)
        grid = DRAW_GRIDS[dm]
        for pick in (lambda n: [n // 2], lambda n: [0, n // 2], lambda n: range(1, n, 2)):
            index = tuple(np.array(pick(n)) for n in grid.n_per_axis)
            shape = tuple(map(len, index)) + grid.n_velocity
            values = rng(6).standard_normal(shape) + 1j * rng(7).standard_normal(shape)
            band = SpectralBand(grid, values, index)
            assert np.array_equal(bits(spectral.inverse_dft(band)), ifftn_bits(band))

    def test_empty_box_is_the_zero_field(self):
        grid = DRAW_GRIDS[(2, 0)]
        band = SpectralBand(grid, np.zeros((0, 3)), (np.array([], int), np.arange(3)))
        assert np.array_equal(bits(spectral.inverse_dft(band)), ifftn_bits(band))

    def test_output_is_the_only_full_grid_array(self):
        # the band of the catalog's multiplier-apply config: 129^2 of 512^2
        grid = SpectralGrid((512, 512), (1.0, 1.0))
        band = band_limited_spectrum(grid, rng(7), 0.25)
        assert band.values.shape == (129, 129)
        tracemalloc.start()
        try:
            spectral.inverse_dft(band)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 16 * math.prod(grid.shape)

    @pytest.mark.parametrize("dm,band_fraction", CASES, ids=IDS)
    def test_norm_is_the_inverse_dft_norm(self, dm, band_fraction):
        # Plancherel: the modes off the box are 0
        for band in inverted_bands(GRIDS[dm], band_fraction):
            want = spectral.inverse_dft(band).norm_l2()
            assert band.norm_l2() == pytest.approx(want, rel=1e-13)
            assert band.norm_l2() == pytest.approx(band.scatter().norm_l2(), rel=1e-14)
