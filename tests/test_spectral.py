import os
import warnings

import numpy as np
import pytest

from hpm.anisotropy import AnisotropyProfile
from hpm.errors import (
    DomainError,
    FieldCorruptionError,
    FieldFormatError,
    SpaceTagError,
)
from hpm.spectral import (
    SpectralBand,
    SpectralField,
    SpectralGrid,
    band_limited_field,
    band_limited_spectrum,
    dft_axis,
    forward_dft,
    increasing,
    inverse_dft,
    l2_norm,
    oscillated_spectrum,
    read_field,
    real_part_spectrum,
    subtract_spatial_mean,
    write_field,
)
from hpm.hmeasure import bilinear_form, oscillation_sequence
from hpm.kinetic import entropy_residual
from hpm.multiplier import symbol_from_name


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


def random_field(grid, key=0):
    r = rng(key)
    vals = r.standard_normal(grid.shape) + 1j * r.standard_normal(grid.shape)
    return SpectralField(grid, vals)


class TestIncreasing:
    def test_returns_the_entries_as_a_tuple(self):
        assert increasing([1, 2, 5], 3, "n_list") == (1, 2, 5)
        assert increasing(iter([0.1]), 1, "eps_list") == (0.1,)

    @pytest.mark.parametrize("values, least", [
        ([], 1), ([4, 8], 3), ([8, 4, 16], 2), ([2, 2, 4], 2)])
    def test_short_or_unordered_lists_name_the_list(self, values, least):
        with pytest.raises(DomainError, match=r"^params\.n_list must be a strictly "
                                              rf"increasing list of length at least {least},"):
            increasing(values, least, "params.n_list")


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
        f = SpectralField(g, np.full(g.shape, 2.5 + 0j))
        F = forward_dft(f)
        assert abs(F.values[0, 0] - 2.5) <= 1e-12
        rest = np.abs(F.values).sum() - abs(F.values[0, 0])
        assert rest <= 1e-12

    def test_pure_mode_unit_mass(self):
        g = SpectralGrid((16,), (1.0,))
        x = g.coord_axis(0)
        f = SpectralField(g, np.exp(2j * np.pi * 3 * x))
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
        f = inverse_dft(SpectralBand.full(g, spec))
        x = g.coord_axis(0)
        # oracle: pointwise evaluation of e^{2 pi i k x}
        expect = np.exp(2j * np.pi * 5 * x)
        assert np.max(np.abs(f.values - expect)) <= 1e-12

    def test_zero_mass_gives_constant(self):
        g = SpectralGrid((8, 8), (1.0, 1.0))
        spec = np.zeros(g.shape, dtype=complex)
        spec[0, 0] = 1.0
        f = inverse_dft(SpectralBand.full(g, spec))
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
        F = forward_dft(SpectralField(g, vals)).values
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

    @pytest.mark.parametrize("n, L", [((16,), (1.5,)), ((8, 32), (1.0, 0.25)),
                                      ((8, 4, 16), (2.0, 1.0, 0.5))])
    def test_one_axis_passes_make_forward_dft(self, n, L):
        # every spatial axis in turn, in place and into new arrays
        g = SpectralGrid(n, L)
        f = random_field(g, len(n))
        ref = forward_dft(f).values
        a = np.array(f.values)
        for k in range(g.d):
            dft_axis(a, k, L[k], out=a)
        assert np.max(np.abs(a - ref)) <= 1e-14 * np.max(np.abs(ref))
        b = f.values
        for k in range(g.d):
            b = dft_axis(b, k, L[k])
        assert np.max(np.abs(b - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_subtract_spatial_mean(self):
        g = SpectralGrid((8,), (1.0,), n_velocity=(3,), velocity_length=(1.0,))
        f = random_field(g, 8)
        z = subtract_spatial_mean(f)
        assert np.max(np.abs(np.mean(z.values, axis=0))) <= 1e-13


ISO = AnisotropyProfile((1.0, 1.0))
# every function that takes physical samples, and every one that takes a
# spectrum; the other arguments are never reached
FIELD_FUNCTIONS = {
    "forward_dft": forward_dft,
    "subtract_spatial_mean": subtract_spatial_mean,
    "write_field": lambda f: write_field(f, os.devnull),
    "bilinear_form": lambda f: bilinear_form(f, 1.0, 1.0, symbol_from_name("one", ISO), ISO),
    "oscillation_sequence": lambda f: oscillation_sequence(ISO, (1.0, 0.0), f, 4),
    "entropy_residual": lambda f: entropy_residual(f, 0.0, None, None),
}
BAND_FUNCTIONS = {
    "inverse_dft": inverse_dft,
    "real_part_spectrum": real_part_spectrum,
    "oscillated_spectrum": lambda F: oscillated_spectrum(F, 1, 0),
}


class TestTypeChecks:
    """A full-grid band has a field's shape, so the functions check which
    of the two they were given."""

    @pytest.mark.parametrize("name", FIELD_FUNCTIONS)
    def test_field_functions_reject_a_full_grid_band(self, name):
        g = SpectralGrid((8, 8), (1.0, 1.0))
        band = forward_dft(random_field(g))
        assert band.values.shape == g.shape
        with pytest.raises(SpaceTagError, match="expected a SpectralField, got SpectralBand"):
            FIELD_FUNCTIONS[name](band)

    @pytest.mark.parametrize("name", BAND_FUNCTIONS)
    def test_band_functions_reject_a_field(self, name):
        f = random_field(SpectralGrid((8, 8), (1.0, 1.0)))
        with pytest.raises(SpaceTagError, match="expected a SpectralBand, got SpectralField"):
            BAND_FUNCTIONS[name](f)


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        g = SpectralGrid((8, 4), (1.0, 2.0), n_velocity=(3,), velocity_length=(1.0,))
        f = random_field(g, 9)
        path = tmp_path / "f.fld"
        write_field(f, path)
        back = read_field(path)
        assert isinstance(back, SpectralField)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_signed_zeros_and_infinities_round_trip_bitwise(self, tmp_path):
        # rebuilding re + 1j * im would turn -0 + 5j into 0 + 5j and
        # 1 + inf j into nan + inf j, with a RuntimeWarning
        g = SpectralGrid((4,), (1.0,))
        vals = np.array([complex(-0.0, 5.0), complex(1.0, np.inf), 2 - 3j,
                         complex(-0.0, -0.0)])
        path = tmp_path / "f.fld"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_field(SpectralField(g, vals), path)
            back = read_field(path).values
        assert np.array_equal(back.view(np.uint64), vals.view(np.uint64))

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

    @staticmethod
    def padded_header_file(path, header_bytes, newline=True):
        """A valid one-sample field whose header line is padded with
        spaces to header_bytes bytes, not counting the newline."""
        g = SpectralGrid((4,), (1.0,))
        write_field(SpectralField(g, np.arange(4.0)), path)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        header += b" " * (header_bytes - len(header))
        path.write_bytes(magic + b"\n" + header + b"\n" * newline + payload)

    def test_longest_header_reads(self, tmp_path):
        path = tmp_path / "f.fld"
        self.padded_header_file(path, 1 << 16)
        assert np.array_equal(read_field(path).values, np.arange(4.0))

    def test_header_one_byte_too_long(self, tmp_path):
        path = tmp_path / "f.fld"
        self.padded_header_file(path, (1 << 16) + 1)
        with pytest.raises(FieldFormatError, match="header line too long"):
            read_field(path)

    @pytest.mark.parametrize("header", [b"", b'{"d": 1'])
    def test_eof_before_newline(self, tmp_path, header):
        path = tmp_path / "f.fld"
        path.write_bytes(b"HPFLD1\n" + header)
        with pytest.raises(FieldFormatError, match="unterminated header line"):
            read_field(path)


    # one key of a valid one-axis, 8-sample header replaced by raw JSON,
    # or the whole header
    FIELDS = {"d": "1", "m": "0", "n": "[8]", "L": "[1.0]", "space": '"physical"'}
    BAD_VALUES = [
        ("d", "true"), ("d", "1.0"), ("m", "false"), ("m", "null"),
        ("n", "null"), ("n", '{"a": 8}'), ("n", '["8"]'), ("n", '"8"'),
        ("n", "[8.0]"), ("n", "[true]"),
        ("L", "[null]"), ("L", '"x"'), ("L", "[[1.0]]"), ("L", '["1.5"]'),
        ("L", "[true]"), ("L", "[1e400]"), ("L", "[-1e400]"), ("L", "[NaN]"),
        ("L", "[1" + "0" * 400 + "]"), ("space", '"frequency"'), ("space", "null"),
        ("header", '"d m n L space"'), ("header", "8"),
    ]

    @pytest.mark.parametrize("key, value", [(None, None)] + BAD_VALUES,
                             ids=["valid"] + [f"{k}={v[:12]}" for k, v in BAD_VALUES])
    def test_header_value_types(self, tmp_path, key, value):
        header = value if key == "header" else "{" + ", ".join(
            f'"{k}": {value if k == key else v}' for k, v in self.FIELDS.items()) + "}"
        path = tmp_path / "f.fld"
        path.write_bytes(b"HPFLD1\n" + header.encode() + b"\n" + bytes(16 * 8))
        if key is None:
            assert read_field(path).grid == SpectralGrid((8,), (1.0,))
            return
        with pytest.raises(FieldFormatError):
            read_field(path)


class TestBandLimited:
    def test_zero_mean_and_determinism(self):
        g = SpectralGrid((16, 16), (1.0, 1.0))
        f1 = band_limited_field(g, rng(11))
        f2 = band_limited_field(g, rng(11))
        assert np.array_equal(f1.values, f2.values)
        assert abs(np.mean(f1.values)) <= 1e-13


class TestL2Norm:
    @staticmethod
    def unscaled(values, vol):
        return float(np.sqrt(np.sum(np.abs(values) ** 2) * vol))

    @pytest.mark.parametrize("n, n_p", [((16, 16), ()), ((128, 64), ()),
                                        ((8, 8, 8), ()), ((32,), (6, 5))])
    @pytest.mark.parametrize("L", [1.0, 3.7, 1e-3, 1e20])
    @pytest.mark.parametrize("key", [7, 41])
    def test_norms_are_the_unscaled_formula_bit_for_bit(self, n, n_p, L, key):
        # wherever no square under- or overflows, scaling by a power of two
        # rounds nothing
        g = SpectralGrid(n, (L,) * len(n), n_p, (2.0,) * len(n_p))
        band = band_limited_spectrum(g, rng(key))
        field = inverse_dft(band)
        vx, vp = g.cell_volume, g.velocity_cell_volume
        assert band.norm_l2() == self.unscaled(band.values, g.freq_cell_volume * vp)
        assert field.norm_l2() == self.unscaled(field.values, vx * vp)
        full = forward_dft(field)
        assert full.norm_l2() == self.unscaled(full.values, g.freq_cell_volume * vp)

    @pytest.mark.parametrize("power", [-1000, -600, 600, 1000])
    def test_tiny_or_huge_values_scale_the_norm(self, power):
        # the squares of 2^power leave the float range; the norm does not
        values = random_field(SpectralGrid((16, 8), (1.0, 1.0)), 3).values
        assert l2_norm(values * 2.0 ** power, 0.5) == l2_norm(values, 0.5) * 2.0 ** power

    def test_zero_values_and_an_underflowing_norm_give_0(self):
        assert l2_norm(np.zeros((4, 4), complex), 1.0) == 0.0
        assert l2_norm(np.full(4, 1e-200), 1e-300) == 0.0
        assert l2_norm(np.full(4, 1e-200), 1e-100) == pytest.approx(2e-250, rel=1e-15, abs=0)


class TestOwnership:
    def test_complex_array_is_shared_and_frozen(self):
        g = SpectralGrid((8, 4), (1.0, 1.0))
        vals = np.zeros(g.shape, dtype=np.complex128)
        f = SpectralField(g, vals)
        assert np.shares_memory(f.values, vals)
        assert not vals.flags.writeable
        with pytest.raises(ValueError):
            vals[0, 0] = 1.0

    def test_other_dtypes_are_converted(self):
        g = SpectralGrid((8,), (1.0,))
        vals = np.arange(8.0)
        f = SpectralField(g, vals)
        assert f.values.dtype == np.complex128
        assert not np.shares_memory(f.values, vals)
        assert vals.flags.writeable


class TestLayout:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1])
    def test_helpers_match_explicit_constructions(self, d, m):
        g = SpectralGrid((4, 8, 16)[:d], (1.0, 2.0, 0.5)[:d], (6,) * m, (3.0,) * m)

        def shaped(arr, axis, ndim):
            shp = [1] * ndim
            shp[axis] = arr.size
            return arr.reshape(shp)

        def same(a, b):
            return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)

        for k, x in enumerate(g.coordinates()):
            assert same(x, shaped(g.coord_axis(k), k, d + m))
        for i, p in enumerate(g.velocity_coordinates()):
            assert same(p, shaped(g.velocity_axis(i), d + i, d + m))
        freqs = g.frequencies()
        for k, xi in enumerate(freqs):
            assert same(xi, shaped(g.freq_axis(k), k, d))
        mesh = np.meshgrid(*[g.freq_axis(k) for k in range(d)], indexing="ij")
        assert same(np.stack(np.broadcast_arrays(*freqs), axis=-1),
                    np.stack(mesh, axis=-1))
        assert same(g.frequency_vectors(), np.stack(mesh, axis=-1))
        x_only = rng(d).standard_normal(g.n_per_axis)
        assert same(g.lift(x_only), x_only.reshape(g.n_per_axis + (1,) * m))

        axes = [g.coord_axis(k) for k in range(d)] + \
               [g.velocity_axis(i) for i in range(m)]
        mesh = np.meshgrid(*axes, indexing="ij")

        def f(*xp):
            return sum((j + 1) * c for j, c in enumerate(xp))

        assert same(g.sample(f), f(*mesh).astype(complex))
        assert same(g.sample(2.0), np.full(g.shape, 2.0 + 0j))
        if m:
            assert same(g.sample_velocity(np.cos), np.cos(g.velocity_axis(0)))


class TestPayloadSize:
    def _written(self, tmp_path):
        path = tmp_path / "f.fld"
        write_field(random_field(SpectralGrid((8,), (1.0,))), path)
        return path

    @pytest.mark.parametrize("change", [-16, -1, 1, 16])
    def test_wrong_length_is_corruption(self, tmp_path, change):
        path = self._written(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:change] if change < 0 else data + bytes(change))
        with pytest.raises(FieldCorruptionError, match="expected 128"):
            read_field(path)

    def test_payload_is_not_read_when_the_size_is_wrong(self, tmp_path, monkeypatch):
        import builtins

        from hpm import spectral
        path = self._written(tmp_path)
        path.write_bytes(path.read_bytes() + bytes(16))
        reads = []

        class Spy:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def read(self, size=-1):
                reads.append(size)
                return self.fh.read(size)

            def __getattr__(self, name):
                return getattr(self.fh, name)

        monkeypatch.setattr(spectral, "open",
                            lambda *a, **k: Spy(builtins.open(*a, **k)),
                            raising=False)
        with pytest.raises(FieldCorruptionError):
            read_field(path)
        assert reads and all(0 < size <= 7 for size in reads)


class TestOneAllocationPerTransform:
    GRID = SpectralGrid((32, 64), (1.0, 2.0), n_velocity=(16,),
                        velocity_length=(1.0,))

    def test_bitwise_equal_to_scaled_fft(self):
        g = self.GRID
        f = random_field(g, key=5)
        x = np.array(f.values)
        F = forward_dft(f)
        assert np.array_equal(F.values,
                              np.fft.fftn(x, axes=g.spatial_axes) * g.cell_volume)
        scale = 1.0
        for n, L in zip(g.n_per_axis, g.length_per_axis):
            scale *= n / L
        y = np.array(F.values)
        assert np.array_equal(inverse_dft(F).values,
                              np.fft.ifftn(y, axes=g.spatial_axes) * scale)

    @pytest.mark.parametrize("transform", ["forward", "inverse"])
    def test_peak_memory_is_one_output(self, transform):
        import tracemalloc

        f = random_field(self.GRID, key=6)
        if transform == "inverse":
            f = forward_dft(f)
        op = forward_dft if transform == "forward" else inverse_dft
        tracemalloc.start()
        try:
            op(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * f.values.nbytes


def test_numpy_fft_is_called_only_in_spectral():
    """`spectral` is the one FFT seam of the package, and inside it numpy's
    transforms (all of `numpy.fft` but `fftfreq`) are used only by
    forward_dft, inverse_dft and dft_axis."""
    import ast
    import re
    from pathlib import Path

    import hpm

    pattern = re.compile(r"\b(np|numpy)\.fft\b|from\s+numpy\s+import\s+fft\b")
    offenders = []
    for path in sorted(Path(hpm.__file__).parent.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, offenders

    seam = {"forward_dft", "inverse_dft", "dft_axis"}
    tree = ast.parse((Path(hpm.__file__).parent / "spectral.py").read_text())
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "numpy.fft" or node.module == "numpy"
                    and any(a.name == "fft" for a in node.names)):
                offenders.append(f"spectral.py:{node.lineno}: imports from numpy.fft")
            elif (isinstance(node, ast.Attribute) and node.attr != "fftfreq"
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "fft"
                  and isinstance(node.value.value, ast.Name)
                  and node.value.value.id in ("np", "numpy")
                  and owner not in seam):
                offenders.append(f"spectral.py:{node.lineno}: numpy.fft.{node.attr} "
                                 f"in {owner or 'module scope'}")
    assert not offenders, offenders
