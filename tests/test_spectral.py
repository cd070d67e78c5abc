import numpy as np
import pytest

from hpm.errors import (
    DomainError,
    FieldCorruptionError,
    FieldFormatError,
    SpaceTagError,
)
from hpm.spectral import (
    FREQUENCY,
    PHYSICAL,
    SpectralField,
    SpectralGrid,
    band_limited_field,
    forward_dft,
    inverse_dft,
    read_field,
    subtract_spatial_mean,
    write_field,
)


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


def random_field(grid, key=0):
    r = rng(key)
    vals = r.standard_normal(grid.shape) + 1j * r.standard_normal(grid.shape)
    return SpectralField(grid, vals, PHYSICAL)


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(DomainError):
            SpectralGrid((12,), (1.0,))

    def test_rejects_tiny_axis(self):
        with pytest.raises(DomainError):
            SpectralGrid((2,), (1.0,))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(DomainError):
            SpectralGrid((8,), (0.0,))

    def test_rejects_oversized_grid(self):
        with pytest.raises(DomainError):
            SpectralGrid((1 << 15, 1 << 15), (1.0, 1.0))

    def test_frequency_lattice_is_integer_over_L(self):
        g = SpectralGrid((8,), (2.0,))
        xi = np.sort(g.freq_axis(0) * 2.0)
        assert np.array_equal(xi, np.arange(-3, 5))

    def test_nyquist_is_positive(self):
        g = SpectralGrid((8,), (1.0,))
        assert g.freq_axis(0)[4] == 4.0


class TestTransforms:
    def test_dc_mode(self):
        g = SpectralGrid((8, 8), (1.0, 1.0))
        f = SpectralField(g, np.full(g.shape, 2.5 + 0j), PHYSICAL)
        F = forward_dft(f)
        assert abs(F.values[0, 0] - 2.5) <= 1e-12
        rest = np.abs(F.values).sum() - abs(F.values[0, 0])
        assert rest <= 1e-12

    def test_pure_mode_unit_mass(self):
        g = SpectralGrid((16,), (1.0,))
        x = g.coord_axis(0)
        f = SpectralField(g, np.exp(2j * np.pi * 3 * x), PHYSICAL)
        F = forward_dft(f)
        assert abs(F.values[3] - 1.0) <= 1e-12
        assert np.sum(np.abs(F.values)) - abs(F.values[3]) <= 1e-12

    def test_plancherel_against_direct_summation(self):
        # oracle: O(n^2) direct DFT on an 8-point grid
        g = SpectralGrid((8,), (2.0,))
        f = random_field(g, key=3)
        x = g.coord_axis(0)
        xi = g.freq_axis(0)
        direct = np.array([
            np.sum(f.values * np.exp(-2j * np.pi * x * s)) * g.cell_volume
            for s in xi])
        F = forward_dft(f)
        assert np.max(np.abs(F.values - direct)) <= 1e-12 * np.max(np.abs(direct))
        lhs = np.sum(np.abs(f.values) ** 2) * g.cell_volume
        rhs = np.sum(np.abs(F.values) ** 2) * g.freq_cell_volume
        assert abs(lhs - rhs) <= 1e-12 * lhs

    def test_round_trip(self):
        g = SpectralGrid((16, 8), (1.0, 3.0))
        f = random_field(g, key=1)
        back = inverse_dft(forward_dft(f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * scale

    def test_single_mass_is_exponential(self):
        g = SpectralGrid((16,), (1.0,))
        spec = np.zeros(16, dtype=complex)
        spec[5] = 1.0
        f = inverse_dft(SpectralField(g, spec, FREQUENCY))
        x = g.coord_axis(0)
        # oracle: pointwise evaluation of e^{2 pi i k x}
        expect = np.exp(2j * np.pi * 5 * x)
        assert np.max(np.abs(f.values - expect)) <= 1e-12

    def test_zero_mass_gives_constant(self):
        g = SpectralGrid((8, 8), (1.0, 1.0))
        spec = np.zeros(g.shape, dtype=complex)
        spec[0, 0] = 1.0
        f = inverse_dft(SpectralField(g, spec, FREQUENCY))
        assert np.max(np.abs(f.values - 1.0)) <= 1e-12

    def test_linearity(self):
        g = SpectralGrid((8, 8), (1.0, 2.0))
        f, h = random_field(g, 1), random_field(g, 2)
        lhs = forward_dft(f.with_values(2.0 * f.values + 3j * h.values)).values
        rhs = 2.0 * forward_dft(f).values + 3j * forward_dft(h).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_conjugate_symmetry_real_field(self):
        g = SpectralGrid((8, 8), (1.0, 1.0))
        vals = rng(4).standard_normal(g.shape)
        F = forward_dft(SpectralField(g, vals, PHYSICAL)).values
        for i in range(8):
            for j in range(8):
                assert abs(F[i, j] - np.conj(F[-i % 8, -j % 8])) <= 1e-12 * np.max(np.abs(F))

    def test_wrong_space_tag(self):
        g = SpectralGrid((8,), (1.0,))
        f = random_field(g)
        with pytest.raises(SpaceTagError):
            inverse_dft(f)
        with pytest.raises(SpaceTagError):
            forward_dft(forward_dft(f))

    def test_velocity_axes_untouched(self):
        g = SpectralGrid((8,), (1.0,), n_velocity=(5,), velocity_length=(2.0,))
        f = random_field(g, 7)
        back = inverse_dft(forward_dft(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_subtract_spatial_mean(self):
        g = SpectralGrid((8,), (1.0,), n_velocity=(3,), velocity_length=(1.0,))
        f = random_field(g, 8)
        z = subtract_spatial_mean(f)
        assert np.max(np.abs(np.mean(z.values, axis=0))) <= 1e-13


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        g = SpectralGrid((8, 4), (1.0, 2.0), n_velocity=(3,), velocity_length=(1.0,))
        f = random_field(g, 9)
        path = tmp_path / "f.fld"
        write_field(f, path)
        back = read_field(path)
        assert back.space == f.space
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_truncated_file(self, tmp_path):
        g = SpectralGrid((8,), (1.0,))
        path = tmp_path / "f.fld"
        write_field(random_field(g), path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FieldCorruptionError):
            read_field(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.fld"
        path.write_bytes(b"NOTFLD\n{}\n")
        with pytest.raises(FieldFormatError):
            read_field(path)

    def test_bad_header_dimension(self, tmp_path):
        path = tmp_path / "f.fld"
        header = b'{"d": 0, "m": 0, "n": [], "L": [], "space": "physical"}'
        path.write_bytes(b"HPFLD1\n" + header + b"\n")
        with pytest.raises(FieldFormatError):
            read_field(path)


class TestBandLimited:
    def test_zero_mean_and_determinism(self):
        g = SpectralGrid((16, 16), (1.0, 1.0))
        f1 = band_limited_field(g, rng(11))
        f2 = band_limited_field(g, rng(11))
        assert np.array_equal(f1.values, f2.values)
        assert abs(np.mean(f1.values)) <= 1e-13


class TestOwnership:
    def test_complex_array_is_shared_and_frozen(self):
        g = SpectralGrid((8, 4), (1.0, 1.0))
        vals = np.zeros(g.shape, dtype=np.complex128)
        f = SpectralField(g, vals, PHYSICAL)
        assert np.shares_memory(f.values, vals)
        assert not vals.flags.writeable
        with pytest.raises(ValueError):
            vals[0, 0] = 1.0

    def test_other_dtypes_are_converted(self):
        g = SpectralGrid((8,), (1.0,))
        vals = np.arange(8.0)
        f = SpectralField(g, vals, PHYSICAL)
        assert f.values.dtype == np.complex128
        assert not np.shares_memory(f.values, vals)
        assert vals.flags.writeable
