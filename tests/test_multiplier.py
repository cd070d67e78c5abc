import itertools

import numpy as np
import pytest

from hpm.anisotropy import AnisotropyProfile, project_lattice, project_to_P, quasi_norm
from hpm.errors import DomainError, IntegrityError
from hpm.multiplier import (
    _STEP,
    SymbolOnP,
    _central_difference,
    _scan_level,
    _shell_samples,
    apply_projected_symbol,
    fractional_derivative,
    fractional_factor,
    marcinkiewicz_certify,
    projected_symbol_lattice,
    smooth_ramp,
    smoothing_inverse,
    smoothing_symbol_lattice,
    symbol_from_name,
)
from hpm.spectral import (
    SpectralBand,
    SpectralField,
    SpectralGrid,
    band_limited_field,
    band_limited_spectrum,
    forward_dft,
    inverse_dft,
    oscillated_spectrum,
)

ISO2 = AnisotropyProfile((1.0, 1.0))


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


def norm_lp(f: SpectralField, p: float) -> float:
    """The Lp norm of a field with the cell measure of x."""
    return float((np.sum(np.abs(f.values) ** p) * f.grid.cell_volume) ** (1.0 / p))


class TestSmoothRamp:
    def test_endpoints(self):
        s = smooth_ramp(np.array([-1.0, 0.0, 1.0, 2.0]))
        assert np.array_equal(s, [0.0, 0.0, 1.0, 1.0])

    def test_monotone_and_symmetric(self):
        t = np.linspace(0.01, 0.99, 99)
        v = smooth_ramp(t)
        assert np.all(np.diff(v) >= 0)
        assert v[20] < v[50] < v[80]
        assert np.max(np.abs(v + smooth_ramp(1 - t) - 1.0)) <= 1e-12


class TestFractionalFactor:
    XI = np.array([-3.5, -1.0, -0.25, 0.0, 0.25, 1.0, 3.5])

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_integer_orders_are_exact_powers_of_i(self, order):
        got = fractional_factor(self.XI, float(order))
        # (2 pi i xi)^n is (-1)^(n // 2) (2 pi xi)^n, times i for an odd n
        zero, part = (got.real, got.imag) if order % 2 else (got.imag, got.real)
        assert np.all(zero == 0.0)
        assert np.array_equal(part, (-1) ** (order // 2) * np.sign(self.XI) ** order
                              * np.abs(2 * np.pi * self.XI) ** float(order))

    @pytest.mark.parametrize("order", [0.05, 1 / 3, 0.5, 0.75, 1.5, 2.5])
    def test_other_orders_keep_the_exponential_turn(self, order):
        got = fractional_factor(self.XI, order)
        want = (np.abs(2 * np.pi * self.XI) ** order
                * np.exp(1j * order * (np.pi / 2) * np.sign(self.XI)))
        np.testing.assert_array_max_ulp(got.real, want.real, maxulp=1)
        np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=1)


class TestFractionalDerivative:
    def test_order_one_single_mode(self):
        g = SpectralGrid((16, 16), (1.0, 1.0))
        x1, _ = g.coordinates()
        f = SpectralField(g, np.exp(2j * np.pi * x1) * np.ones(g.shape))
        out = fractional_derivative(f, 0, 1.0)
        expect = 2j * np.pi * f.values
        assert np.max(np.abs(out.values - expect)) <= 1e-10

    def test_order_two_single_mode(self):
        g = SpectralGrid((16,), (1.0,))
        x = g.coord_axis(0)
        f = SpectralField(g, np.exp(2j * np.pi * x))
        out = fractional_derivative(f, 0, 2.0)
        assert np.max(np.abs(out.values - (-4 * np.pi ** 2) * f.values)) <= 1e-10

    def test_semigroup_half_orders(self):
        g = SpectralGrid((32, 32), (1.0, 1.0))
        f = band_limited_field(g, rng(1))
        twice = fractional_derivative(fractional_derivative(f, 0, 0.5), 0, 0.5)
        once = fractional_derivative(f, 0, 1.0)
        scale = np.max(np.abs(once.values))
        assert np.max(np.abs(twice.values - once.values)) <= 1e-8 * scale

    def test_general_additivity(self):
        g = SpectralGrid((32,), (1.0,))
        f = band_limited_field(g, rng(2))
        ab = fractional_derivative(fractional_derivative(f, 0, 0.7), 0, 0.6)
        direct = fractional_derivative(f, 0, 1.3)
        scale = np.max(np.abs(direct.values))
        assert np.max(np.abs(ab.values - direct.values)) <= 1e-8 * scale

    def test_zero_mode_annihilated(self):
        g = SpectralGrid((8,), (1.0,))
        f = SpectralField(g, np.full(8, 3.0 + 0j))
        out = fractional_derivative(f, 0, 0.5)
        assert np.max(np.abs(out.values)) <= 1e-13

    def test_invalid_args(self):
        g = SpectralGrid((8,), (1.0,))
        f = SpectralField(g, np.zeros(8))
        with pytest.raises(DomainError):
            fractional_derivative(f, 3, 1.0)
        with pytest.raises(DomainError):
            fractional_derivative(f, 0, -1.0)


class TestProjectedSymbol:
    def test_one_removes_mean(self):
        g = SpectralGrid((16, 16), (1.0, 1.0))
        f = SpectralField(g, rng(3).standard_normal(g.shape) + 2.0)
        out = apply_projected_symbol(f, symbol_from_name("one", ISO2), ISO2)
        expect = f.values - np.mean(f.values)
        assert np.max(np.abs(out.values - expect)) <= 1e-12

    def test_single_mode_scaling(self):
        g = SpectralGrid((16, 16), (1.0, 1.0))
        x1, x2 = g.coordinates()
        f = SpectralField(g, np.exp(2j * np.pi * (3 * x1 + 2 * x2)) * np.ones(g.shape))
        psi = symbol_from_name("coordinate:0", ISO2)
        out = apply_projected_symbol(f, psi, ISO2)
        factor = project_to_P(np.array([3.0, 2.0]), ISO2)[0]
        assert np.max(np.abs(out.values - factor * f.values)) <= 1e-12

    def test_real_even_preserves_real(self):
        # oracle: conjugate-symmetry bookkeeping verified by direct
        # summation of the inverse transform on an 8x8 grid
        g = SpectralGrid((8, 8), (1.0, 1.0))
        vals = rng(4).standard_normal(g.shape)
        f = SpectralField(g, vals)
        psi = symbol_from_name("one", ISO2)
        out = apply_projected_symbol(f, psi, ISO2)
        assert np.max(np.abs(out.values.imag)) <= 1e-12
        sym = projected_symbol_lattice(psi, g, ISO2)
        F = forward_dft(f)
        x1, x2 = g.coordinates()
        xi = g.frequency_vectors()
        direct = np.zeros(g.shape, dtype=complex)
        for i in range(8):
            for j in range(8):
                phase = np.exp(2j * np.pi * (xi[i, j, 0] * x1 + xi[i, j, 1] * x2))
                direct += sym[i, j] * F.values[i, j] * phase * g.freq_cell_volume
        assert np.max(np.abs(direct - out.values)) <= 1e-10

    def test_composition(self):
        g = SpectralGrid((16, 16), (1.0, 1.0))
        f = band_limited_field(g, rng(5))
        p1 = symbol_from_name("coordinate:0", ISO2)
        p2 = symbol_from_name("coordinate:1", ISO2)
        seq = apply_projected_symbol(apply_projected_symbol(f, p1, ISO2), p2, ISO2)
        prod = SymbolOnP(lambda xi: p1.eval(xi) * p2.eval(xi))
        joint = apply_projected_symbol(f, prod, ISO2)
        scale = max(np.max(np.abs(joint.values)), 1e-30)
        assert np.max(np.abs(seq.values - joint.values)) <= 1e-12 * scale

    def test_l2_bound_exact(self):
        g = SpectralGrid((16, 16), (1.0, 1.0))
        f = band_limited_field(g, rng(6))
        psi = symbol_from_name("coordinate:0", ISO2)
        out = apply_projected_symbol(f, psi, ISO2)
        sup = np.max(np.abs(projected_symbol_lattice(psi, g, ISO2)))
        assert out.norm_l2() <= sup * f.norm_l2() * (1 + 1e-12)

    def test_lp_sanity_envelope(self):
        # stability probe: ratio ||A f||_p / ||f||_p over a 50-field
        # corpus stays below 3x the certified constant
        g = SpectralGrid((32, 32), (1.0, 1.0))
        psi = symbol_from_name("coordinate:0", ISO2)
        const = marcinkiewicz_certify(psi, ISO2, 3, 8).constant_estimate
        for key in range(50):
            f = band_limited_field(g, rng(100 + key))
            out = apply_projected_symbol(f, psi, ISO2)
            for p in (4.0 / 3.0, 4.0):
                assert norm_lp(out, p) <= 3.0 * const * norm_lp(f, p)


class TestSmoothing:
    def test_low_modes_zeroed(self):
        g = SpectralGrid((32, 32), (1.0, 1.0))
        sym = smoothing_symbol_lattice(g, ISO2, cutoff_radius=8.0)
        qn = quasi_norm(g.frequency_vectors(), ISO2)
        assert np.max(np.abs(sym[qn <= 4.0])) == 0.0

    def test_high_mode_scaling(self):
        g = SpectralGrid((64, 64), (1.0, 1.0))
        x1, x2 = g.coordinates()
        kappa = np.array([20.0, 9.0])
        f = SpectralField(g, np.exp(2j * np.pi * (kappa[0] * x1 + kappa[1] * x2))
                          * np.ones(g.shape))
        out = smoothing_inverse(f, ISO2, cutoff_radius=4.0)
        expect = f.values / quasi_norm(kappa, ISO2)
        assert np.max(np.abs(out.values - expect)) <= 1e-12

    def test_composed_bound_stable_across_grids(self):
        # composed symbol psi_P (1 - theta) (2 pi i xi_1)^{alpha_1} / qn is
        # bounded; its lattice sup must be grid-stable within 10%
        psi = symbol_from_name("coordinate:0", ISO2)
        sups = []
        for n in (32, 64):
            g = SpectralGrid((n, n), (1.0, 1.0))
            sm = smoothing_symbol_lattice(g, ISO2, cutoff_radius=2.0)
            pr = projected_symbol_lattice(psi, g, ISO2)
            frac = np.abs(2 * np.pi * g.frequency_vectors()[..., 0])
            sups.append(float(np.max(np.abs(sm * pr) * frac)))
        assert abs(sups[1] - sups[0]) <= 0.1 * sups[0]
        g = SpectralGrid((32, 32), (1.0, 1.0))
        f = band_limited_field(g, rng(7))
        comp = fractional_derivative(
            smoothing_inverse(apply_projected_symbol(f, psi, ISO2), ISO2, 2.0),
            0, 1.0)
        assert comp.norm_l2() <= sups[0] * f.norm_l2() * (1 + 1e-10)

    def test_invalid_cutoff(self):
        g = SpectralGrid((8, 8), (1.0, 1.0))
        with pytest.raises(DomainError):
            smoothing_symbol_lattice(g, ISO2, cutoff_radius=0.0)


class TestMarcinkiewicz:
    def test_constant_symbol(self):
        rep = marcinkiewicz_certify(symbol_from_name("one", ISO2), ISO2, 4, 16)
        assert rep.constant_estimate == 1.0
        assert not rep.diverged
        assert all(v <= 1e-9 for b, v in rep.per_beta_sup.items() if sum(b) > 0)

    def test_coordinate_symbol_stable(self):
        psi = symbol_from_name("coordinate:0", ISO2)
        a = marcinkiewicz_certify(psi, ISO2, 4, 16)
        b = marcinkiewicz_certify(psi, ISO2, 5, 24)
        assert not a.diverged and not b.diverged
        assert abs(a.constant_estimate - b.constant_estimate) <= 0.1 * a.constant_estimate

    def test_divergent_symbol_flagged(self):
        psi = symbol_from_name("sin-inverse-quasinorm", ISO2)
        rep = marcinkiewicz_certify(psi, ISO2, 4, 16)
        assert rep.diverged

    def test_shells_minimum(self):
        with pytest.raises(DomainError):
            marcinkiewicz_certify(symbol_from_name("one", ISO2), ISO2, 2, 8)

    @pytest.mark.parametrize("alpha, largest", [((1.0, 2.0), 178), ((1.0, 1.0), 338),
                                                ((1.0, 1.0, 2.0), 135)])
    def test_shells_within_the_float_range(self, alpha, largest):
        # one shell more and the constraint sum at the points the
        # differences reach on the top shell overflows; at 10^12 shells the
        # top fibre parameter does, before any shell is drawn
        profile = AnisotropyProfile(alpha)
        psi = symbol_from_name("one", profile)
        marcinkiewicz_certify(psi, profile, largest, 8)
        for shells in (largest + 1, 10 ** 12):
            with pytest.raises(DomainError, match=f"^{shells} dyadic shells "
                                                  f"leave the float range"):
                marcinkiewicz_certify(psi, profile, shells, 8)

    def test_every_admitted_shell_count_certifies(self):
        # tiny orders put the bottom shells' constraint sums near the least
        # normal float, where a difference step may round a coordinate to
        # 0 (xi_k + h_k - h_k): a count certifies, or the projection of a
        # point its scans reach refuses it as past the float range, at any
        # sample count, and nothing else happens
        outcomes = set()
        for a0, a1 in itertools.product((0.01, 0.012, 0.015, 0.02, 0.03),
                                        (0.5, 1.0, 2.0)):
            profile = AnisotropyProfile((a0, a1))
            psi = symbol_from_name("coordinate:0", profile)
            for shells, samples in itertools.product((3, 4, 5, 6, 8), (8, 24)):
                try:
                    marcinkiewicz_certify(psi, profile, shells, samples)
                    outcomes.add("certified")
                except DomainError as exc:
                    assert str(exc).startswith(f"{shells} dyadic shells leave "
                                               f"the float range")
                    outcomes.add("refused")
        assert outcomes == {"certified", "refused"}

    def test_report_json_shape(self):
        rep = marcinkiewicz_certify(symbol_from_name("one", ISO2), ISO2, 3, 8)
        d = rep.to_json_dict()
        assert set(d) == {"constant", "per_beta", "diverged"}


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(DomainError):
            symbol_from_name("nope", ISO2)

    def test_bump_and_sector_evaluate(self):
        bump = symbol_from_name("bump:center=[1.0, 0.0],width=0.5", ISO2)
        sec = symbol_from_name("sector:axis=0,sign=+", ISO2)
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        bv = bump.eval(pts)
        assert abs(bv[0] - 1.0) <= 1e-12 and abs(bv[1]) <= 1e-12
        sv = sec.eval(pts)
        assert abs(sv[0] - 1.0) <= 1e-12 and abs(sv[1]) <= 1e-12

    def test_bump_center_is_one_number_or_d(self):
        scalar = symbol_from_name("bump:center=0.5,width=0.3", ISO2)
        vector = symbol_from_name("bump:center=[0.5,0.5],width=0.3", ISO2)
        pts = np.array([[0.5, 0.5], [0.6, 0.45]])
        assert np.array_equal(scalar.eval(pts), vector.eval(pts))
        # an integer past the float range is no center either
        for center in ("[0.5]", "[0.5,0.5,0.5]", "[[0.5,0.5]]", "null",
                       str(10 ** 400)):
            with pytest.raises(DomainError, match="center of one number"):
                symbol_from_name(f"bump:center={center},width=0.3", ISO2)


class TestProjectedSymbolLattice:
    """The lattice writes 0 into the mode xi = 0 of the symbol's own
    result; it equals masking the full grid."""

    MIX3 = AnisotropyProfile((1.0, 2.0, 3.0))

    @pytest.mark.parametrize("name", ["one", "coordinate:0", "coordinate:2",
                                      "sector:axis=1,sign=-",
                                      "sin-inverse-quasinorm"])
    def test_equals_masked_evaluation(self, name):
        g = SpectralGrid((16, 8, 32), (1.0, 2.0, 0.5))
        psi = symbol_from_name(name, self.MIX3)
        xi = g.frequency_vectors()
        arg = project_lattice(xi, self.MIX3) if psi.projected else xi
        ref = np.where(np.all(xi == 0, axis=-1), 0.0,
                       np.asarray(psi.eval(arg), dtype=complex))
        sym = projected_symbol_lattice(psi, g, self.MIX3)
        assert sym.dtype == complex and sym.shape == g.n_per_axis
        assert np.array_equal(sym, ref)
        assert sym[0, 0, 0] == 0.0

    TABLE = np.full((8, 8, 2), 4.0 + 0j)

    @pytest.mark.parametrize("result, value", [
        (lambda xi: 2.0 + 1j, 2.0 + 1j),                                  # a scalar
        (lambda xi: np.broadcast_to(np.complex128(3.0), xi.shape[:-1]), 3.0),  # read-only
        (lambda xi: TestProjectedSymbolLattice.TABLE[..., 0], 4.0),       # a view
    ])
    def test_result_not_owned_by_the_lattice(self, result, value):
        g = SpectralGrid((8, 8), (1.0, 1.0))
        sym = projected_symbol_lattice(SymbolOnP(result), g, ISO2)
        assert sym.shape == (8, 8) and sym[0, 0] == 0.0
        assert np.all(sym.ravel()[1:] == value)
        assert np.all(self.TABLE == 4.0)  # the symbol's own data is untouched


def scan_level_per_shell(psi, profile, j_range, samples_per_shell):
    """The certifier's level scan as it was: one shell at a time, each
    multi-index differenced on that shell's samples alone."""
    d = profile.d

    def psi_P(xi):
        arg = project_to_P(xi, profile) if psi.projected else xi
        return np.asarray(psi.eval(arg), dtype=complex)

    betas = [b for b in itertools.product(range(d + 1), repeat=d) if sum(b) <= d]
    sups = dict.fromkeys(betas, 0.0)
    for j in j_range:
        xi = _shell_samples(profile, j, samples_per_shell)
        steps = _STEP * np.maximum(np.abs(xi), 2.0 ** j)
        for b in betas:
            deriv = _central_difference(psi_P, xi, b, steps)
            weight = np.prod(xi ** np.asarray(b), axis=-1)
            sups[b] = max(sups[b], float(np.max(np.abs(weight * deriv))))
    return sups


class TestBatchedCertifier:
    """Each level is one stacked batch of its shells' samples; the sups
    are bitwise those of the shell-by-shell scan."""

    CASES = [((1.0, 2.0), name) for name in (
        "coordinate:0", "coordinate:1", "bump:center=[0.5,0.5],width=0.6",
        "sector:axis=0,sign=+", "sin-inverse-quasinorm")] + \
        [((1.0, 1.0, 2.0), name) for name in (
            "coordinate:2", "bump:center=[0.3,-0.4,0.5],width=0.8",
            "sector:axis=1,sign=-", "sin-inverse-quasinorm")]

    @pytest.mark.parametrize("alpha, name", CASES)
    def test_per_beta_bitwise_per_shell(self, alpha, name):
        profile = AnisotropyProfile(alpha)
        psi = symbol_from_name(name, profile)
        shells, count = 3, 8
        for j_range, n in ((range(-shells, shells), count),
                           (range(-(shells + 2), shells + 2), 2 * count)):
            assert _scan_level(psi, profile, j_range, n) == \
                scan_level_per_shell(psi, profile, j_range, n)
        rep = marcinkiewicz_certify(psi, profile, shells, count)
        want = scan_level_per_shell(psi, profile, range(-(shells + 2), shells + 2),
                                    2 * count)
        assert rep.per_beta_sup == want
        assert rep.constant_estimate == max(want.values())


class TestCertifierNonFinite:
    def test_nan_symbol_is_an_integrity_failure(self):
        # max(0.0, nan) is 0.0: a NaN symbol used to certify constant 0
        psi = SymbolOnP(lambda xi: np.full(xi.shape[:-1], np.nan, dtype=complex),
                        name="nan")
        with pytest.raises(IntegrityError, match="'nan'.*not finite"):
            marcinkiewicz_certify(psi, ISO2, 3, 8)

    def test_one_nan_sample_on_one_shell(self):
        # NaN at one sample point of shell j = 1 of the coarse scan only
        point = _shell_samples(ISO2, 1, 8)[5]

        def one_nan(xi):
            return np.where(np.all(xi == point, axis=-1), np.nan, 1.0).astype(complex)

        psi = SymbolOnP(one_nan, name="one-nan", projected=False)
        with pytest.raises(IntegrityError, match="not finite for beta = \\(0, 0\\)"):
            marcinkiewicz_certify(psi, ISO2, 3, 8)


def lattice_operator(f, symbol):
    """The full-lattice multiplier as it was: transform the whole physical
    field, multiply by the symbol on the whole lattice, transform back."""
    F = forward_dft(f)
    return inverse_dft(F.with_values(F.values * f.grid.lift(symbol)))


class TestBandOperators:
    """On a band, each operator evaluates its symbol on the band's box
    only; on a field, on the box of every index.  Both match the
    full-lattice operator."""

    MIX = AnisotropyProfile((1.0, 2.0))
    GRID = SpectralGrid((32, 16), (1.0, 2.0))

    def operations(self):
        g, profile = self.GRID, self.MIX
        psi = symbol_from_name("coordinate:0", profile)
        return [
            (lambda f: apply_projected_symbol(f, psi, profile),
             projected_symbol_lattice(psi, g, profile)),
            (lambda f: fractional_derivative(f, 1, 0.7),
             fractional_factor(g.frequency_vectors()[..., 1], 0.7)),
            (lambda f: smoothing_inverse(f, profile, 3.0),
             smoothing_symbol_lattice(g, profile, 3.0)),
        ]

    @pytest.mark.parametrize("op", range(3))
    def test_band_matches_lattice(self, op):
        apply, symbol = self.operations()[op]
        band = band_limited_spectrum(self.GRID, rng(21), 0.5)
        out = apply(band)
        assert isinstance(out, SpectralBand)
        assert all(np.array_equal(a, b) for a, b in zip(out.index, band.index))
        got = inverse_dft(out.scatter()).values
        want = lattice_operator(inverse_dft(band.scatter()), symbol).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("op", range(3))
    def test_field_matches_lattice(self, op):
        apply, symbol = self.operations()[op]
        f = SpectralField(self.GRID, rng(22).standard_normal(self.GRID.shape)
                          + 1j * rng(23).standard_normal(self.GRID.shape))
        got = apply(f)
        assert isinstance(got, SpectralField)
        want = lattice_operator(f, symbol).values
        assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(want))
        spectrum = apply(forward_dft(f))
        assert isinstance(spectrum, SpectralBand)
        assert np.array_equal(inverse_dft(spectrum).values, got.values)

    def test_box_symbol_is_the_lattice_symbol_on_the_box(self):
        band = band_limited_spectrum(self.GRID, rng(24), 0.5)
        psi = symbol_from_name("sector:axis=1,sign=-", self.MIX)
        lattice = projected_symbol_lattice(psi, self.GRID, self.MIX)
        assert np.array_equal(projected_symbol_lattice(psi, band, self.MIX),
                              lattice[np.ix_(*band.index)])
        # a box without the mode xi = 0 keeps its first value
        shifted = oscillated_spectrum(band, 9, 0)
        one = symbol_from_name("one", self.MIX)
        assert 0 not in shifted.index[0]
        assert np.all(projected_symbol_lattice(one, shifted, self.MIX) == 1.0)
