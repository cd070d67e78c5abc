import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpm.anisotropy import AnisotropyProfile, mesh_P
from hpm.averaging import (
    DecayTable,
    TransportProblem,
    beta_split_weights,
    build_gn_test_function,
    compactness_metric,
    delta_regularization,
    mixed_symbol,
    nondegeneracy_scan,
    principal_symbol,
    transport_evolve,
    velocity_average,
    weak_form_residual,
    WeakTestFunction,
)
from hpm.errors import DomainError, SingularPointError, SupportWarning
from hpm.hmeasure import SequenceGenerator
from hpm.multiplier import fractional_derivative, symbol_from_name
from hpm.spectral import PHYSICAL, SpectralField, SpectralGrid, band_limited_field

ISO1 = AnisotropyProfile((1.0,))
ISO2 = AnisotropyProfile((1.0, 1.0))
MIX2 = AnisotropyProfile((1.0, 2.0))


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


def midpoints(n, length=1.0):
    return -length / 2 + (np.arange(n) + 0.5) * (length / n)


def compact_bump(p, scale=3.0):
    q = scale * np.asarray(p)
    out = np.zeros_like(q)
    inside = np.abs(q) < 1
    out[inside] = np.exp(-1.0 / (1.0 - q[inside] ** 2))
    return out


class TestPrincipalSymbol:
    def test_first_order_constant(self):
        v = principal_symbol(0.0, np.array([1.0]), 0.0, [1.0], ISO1)
        assert abs(v - 2j * np.pi) <= 1e-14

    def test_transport_symbol(self):
        # [DERIVED] a = (1, p) gives 2 pi i (xi_0 + p xi_1)
        p = midpoints(8)
        v = principal_symbol(0.0, np.array([2.0, 3.0]), p,
                             [1.0, lambda x, q: q], ISO2)
        expect = 2j * np.pi * (2.0 + 3.0 * p)
        assert np.max(np.abs(v - expect)) <= 1e-12

    def test_mixed_orders(self):
        # [DERIVED] alpha = (1, 2): 2 pi i xi_1 a_1 - 4 pi^2 xi_2^2 a_2
        v = principal_symbol(0.0, np.array([1.0, 1.0]), 0.0, [1.0, 1.0], MIX2)
        expect = 2j * np.pi - 4 * np.pi ** 2
        assert abs(v - expect) <= 1e-12

    def test_vector_coefficient_callable(self):
        p = midpoints(8)
        a = lambda x, q: np.stack([np.ones_like(q), q], axis=-1)
        v = principal_symbol(0.0, np.array([2.0, 3.0]), p, a, ISO2)
        expect = 2j * np.pi * (2.0 + 3.0 * p)
        assert np.max(np.abs(v - expect)) <= 1e-12

    def test_wrong_coefficient_count(self):
        with pytest.raises(DomainError):
            principal_symbol(0.0, np.array([1.0, 1.0]), 0.0, [1.0], ISO2)

    def test_mixed_symbol_cross_term(self):
        v = mixed_symbol(0.0, np.array([1.0, 1.0]), 0.0, [(1.0, (1, 1))])
        assert abs(v - (2j * np.pi) ** 2) <= 1e-12


class TestDeltaRegularization:
    def test_tends_to_one_off_zero_set(self):
        p = midpoints(64)
        sym = principal_symbol(0.0, np.array([1.0, 0.0]), p,
                               [1.0, lambda x, q: q], ISO2)
        assert np.min(np.abs(sym)) > 0.1
        prev = None
        for delta in (1e-1, 1e-2, 1e-3):
            reg = delta_regularization(sym, delta)
            assert np.all((0 < reg) & (reg < 1))
            if prev is not None:
                assert np.all(reg >= prev)
            prev = reg
        assert np.min(prev) >= 0.97

    def test_invalid_delta(self):
        with pytest.raises(DomainError):
            delta_regularization(np.array([1.0]), 0.0)


class TestNonDegeneracyScan:
    def test_linear_transport_closed_form(self):
        # [DERIVED] a = (1, p), xi = (0, 1): |A| = 2 pi |p|, so the
        # sub-level measure is eps / pi
        rep = nondegeneracy_scan([1.0, lambda x, p: p], [0.0], ISO2, 16,
                                 midpoints(1024), (0.1, 0.2, 0.4))
        mesh = [pt.as_array() for pt in mesh_P(ISO2, 16)]
        idx = int(np.argmin([abs(m[0]) + abs(m[1] - 1.0) for m in mesh]))
        got = rep.measures[0, idx]
        for eps, m in zip((0.1, 0.2, 0.4), got):
            assert abs(m - eps / np.pi) <= 0.15 * (eps / np.pi)

    def test_nondegenerate_at_small_eps(self):
        rep = nondegeneracy_scan([1.0, lambda x, p: p], [0.0], ISO2, 16,
                                 midpoints(1024), (0.001, 0.01))
        assert not rep.degenerate_flag

    def test_sup_monotone_in_eps(self):
        rep = nondegeneracy_scan([1.0, lambda x, p: p], [0.0], ISO2, 16,
                                 midpoints(256), (0.05, 0.1, 0.2))
        assert np.all(np.diff(rep.sup_measure) >= 0)

    def test_degenerate_constant_coefficients(self):
        # the direction xi_1 + xi_2 = 0 kills the whole symbol at once
        rep = nondegeneracy_scan([1.0, 1.0], [0.0], ISO2, 16,
                                 midpoints(256), (0.05, 0.1))
        assert rep.degenerate_flag
        assert rep.sup_measure[0] >= 0.99 * rep.p_domain_measure

    def test_quadratic_exponent_half(self):
        # [DERIVED] a = (1, p^2) at xi = (0, 1): measure = 2 sqrt(eps/2pi),
        # so log-log slope 1/2
        eps = (0.01, 0.04, 0.16)
        rep = nondegeneracy_scan([1.0, lambda x, p: p ** 2], [0.0], ISO2, 16,
                                 midpoints(4096), eps)
        m = rep.sup_measure
        slope = np.log(m[2] / m[0]) / np.log(eps[2] / eps[0])
        assert abs(slope - 0.5) <= 0.1

    def test_eps_validation(self):
        with pytest.raises(DomainError):
            nondegeneracy_scan([1.0, 1.0], [0.0], ISO2, 16,
                               midpoints(64), (0.2, 0.1))
        with pytest.raises(DomainError):
            nondegeneracy_scan([1.0, 1.0], [0.0], ISO2, 16,
                               midpoints(64), (-0.1, 0.2))

    def test_report_serialization(self):
        rep = nondegeneracy_scan([1.0, lambda x, p: p], [0.0], ISO2, 16,
                                 midpoints(64), (0.1, 0.2))
        d = rep.to_json_dict()
        assert set(d) == {"eps", "sup_measure", "degenerate",
                          "p_domain_measure", "threshold_fraction"}
        rows = list(rep.rows())
        assert len(rows) == 1 * 16 * 2


def pure_mode_generator(grid, kappa):
    phase = sum(k * x for k, x in zip(kappa, grid.coordinates()))
    vals = np.exp(2j * np.pi * phase) * np.ones(grid.shape)
    return SequenceGenerator.from_callable(
        lambda n: SpectralField(grid, vals, PHYSICAL))


class TestTransport:
    def test_zero_velocity_is_identity(self):
        g = SpectralGrid((16,), (1.0,), n_velocity=(8,), velocity_length=(2.0,))
        gen = pure_mode_generator(g, (3,))
        prob = TransportProblem(g, lambda p: np.zeros(p.shape + (1,)), gen, 0.7)
        u0 = gen.field(0)
        u = transport_evolve(prob, 0)
        assert np.max(np.abs(u.values - u0.values)) <= 1e-12

    def test_single_mode_exact_phase(self):
        g = SpectralGrid((16,), (1.0,), n_velocity=(8,), velocity_length=(2.0,))
        gen = pure_mode_generator(g, (3,))
        t = 0.3
        prob = TransportProblem(g, lambda p: p[..., None], gen, t)
        u = transport_evolve(prob, 0)
        x = g.coord_axis(0)[:, None]
        p = g.velocity_axis(0)[None, :]
        # [DERIVED] exact characteristics: u(t, x, p) = u0(x - t p, p)
        oracle = np.exp(2j * np.pi * 3 * (x - t * p))
        assert np.max(np.abs(u.values - oracle)) <= 1e-12

    def test_per_velocity_l2_conserved(self):
        g = SpectralGrid((16, 16), (1.0, 1.0), n_velocity=(8,),
                         velocity_length=(1.0,))
        r = rng(5)
        vals = r.standard_normal(g.shape) + 1j * r.standard_normal(g.shape)
        vals -= vals.mean(axis=(0, 1), keepdims=True)
        u0 = SpectralField(g, vals, PHYSICAL)
        gen = SequenceGenerator.from_callable(lambda n: u0)
        a = lambda p: np.stack([np.ones_like(p), p], axis=-1)
        u = transport_evolve(TransportProblem(g, a, gen, 1.3), 0)
        n0 = np.sqrt(np.sum(np.abs(u0.values) ** 2, axis=(0, 1)))
        n1 = np.sqrt(np.sum(np.abs(u.values) ** 2, axis=(0, 1)))
        assert np.max(np.abs(n1 - n0)) <= 1e-12 * np.max(n0)

    def test_requires_velocity_axes(self):
        g = SpectralGrid((16,), (1.0,))
        gen = pure_mode_generator(g, (1,))
        with pytest.raises(DomainError):
            transport_evolve(TransportProblem(g, lambda p: p, gen, 1.0), 0)


class TestVelocityAverage:
    def test_separable_oracle(self):
        g = SpectralGrid((16,), (1.0,), n_velocity=(32,), velocity_length=(1.0,))
        x = g.coord_axis(0)
        p = g.velocity_axis(0)
        f = np.exp(2j * np.pi * x)
        gfun = compact_bump(p)
        u = SpectralField(g, f[:, None] * gfun[None, :], PHYSICAL)
        avg = velocity_average(u, compact_bump)
        oracle = f * np.sum(gfun ** 2) * g.velocity_cell_volume
        assert np.max(np.abs(avg.values - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        assert avg.grid.m == 0

    def test_zero_weight(self):
        g = SpectralGrid((8,), (1.0,), n_velocity=(8,), velocity_length=(1.0,))
        u = SpectralField(g, np.ones(g.shape), PHYSICAL)
        avg = velocity_average(u, np.zeros(8))
        assert np.max(np.abs(avg.values)) == 0.0

    def test_boundary_weight_warns(self):
        g = SpectralGrid((8,), (1.0,), n_velocity=(8,), velocity_length=(1.0,))
        u = SpectralField(g, np.ones(g.shape), PHYSICAL)
        with pytest.warns(SupportWarning):
            velocity_average(u, np.ones(8))

    def test_requires_velocity_axes(self):
        g = SpectralGrid((8,), (1.0,))
        u = SpectralField(g, np.ones(8), PHYSICAL)
        with pytest.raises(DomainError):
            velocity_average(u, np.ones(8))


class TestCompactness:
    def _oscillating_gen(self, grid):
        from hpm.hmeasure import oscillation_sequence
        env = SpectralField(grid, np.ones(grid.shape, dtype=complex), PHYSICAL)
        return SequenceGenerator.oscillation(ISO2, (0.0, 1.0), env)

    def test_dichotomy(self):
        g = SpectralGrid((8, 64), (1.0, 1.0), n_velocity=(64,),
                         velocity_length=(1.0,))
        gen0 = self._oscillating_gen(g)
        window = ((0.0, 1.0), (0.0, 1.0))
        n_list = (2, 4, 8, 16)

        a_nd = lambda p: np.stack([np.ones_like(p), p], axis=-1)
        prob = TransportProblem(g, a_nd, gen0, 0.5)
        gen_nd = SequenceGenerator.from_callable(
            lambda n: transport_evolve(prob, n))
        tab = compactness_metric(gen_nd, compact_bump, window, n_list)
        assert isinstance(tab, DecayTable)
        assert all(b < a for a, b in zip(tab.ratios, tab.ratios[1:]))
        assert tab.ratios[-1] <= 0.3

        # a independent of p: no averaging, the ratio stays pinned at 1
        a_dg = lambda p: np.stack([np.ones_like(p), np.zeros_like(p)], axis=-1)
        prob2 = TransportProblem(g, a_dg, gen0, 0.5)
        gen_dg = SequenceGenerator.from_callable(
            lambda n: transport_evolve(prob2, n))
        tab2 = compactness_metric(gen_dg, compact_bump, window, n_list)
        assert all(abs(r - 1.0) <= 1e-10 for r in tab2.ratios)

    def test_window_validation(self):
        g = SpectralGrid((8, 8), (1.0, 1.0), n_velocity=(8,),
                         velocity_length=(1.0,))
        gen = self._oscillating_gen(g)
        with pytest.raises(DomainError):
            compactness_metric(gen, compact_bump, ((0.5, 0.2), (0.0, 1.0)), (2, 4))
        with pytest.raises(DomainError):
            compactness_metric(gen, compact_bump, ((0.0, 1.0), (0.0, 1.0)), (2,))


class TestBetaSplit:
    def test_characteristic_direction(self):
        w_u, w_g = beta_split_weights(-2.0, (1.0, 1.0), (1.0, 1.0), 0.5)
        assert abs(w_u - 1.0) <= 1e-14
        assert abs(w_g) <= 1e-14

    def test_vanishing_beta(self):
        vals = [beta_split_weights(1.0, (1.0, 0.0), (0.0, 0.0), b)[0]
                for b in (1.0, 0.1, 0.01)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] <= 1e-3

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5, 5), st.floats(-3, 3), st.floats(-3, 3),
           st.floats(0.01, 2))
    def test_weight_in_unit_interval(self, tau, a1, xi1, beta):
        xi = (xi1, 1.0)
        w_u, w_g = beta_split_weights(tau, xi, (a1, 0.5), beta)
        assert 0.0 <= w_u <= 1.0
        assert w_g >= 0.0

    def test_singular_point(self):
        with pytest.raises(SingularPointError):
            beta_split_weights(0.0, (0.0, 0.0), (1.0, 1.0), 1.0)


class TestWeakForm:
    def _exact_setup(self):
        g = SpectralGrid((16, 16), (1.0, 1.0), n_velocity=(2,),
                         velocity_length=(4.0,))
        x1, x2 = g.coordinates()
        (p,) = g.velocity_coordinates()
        # u = e^{2 pi i k (p x1 - x2)} solves d_1 u + p^{-1}... no:
        # (1) d_1 u + (p) d_2 u with a = (p, 1): p * ik p? use a = (1, p):
        # d_1 u = 2 pi i k p u, d_2 u = -2 pi i k u, so 1*d_1 + p*d_2 = 0
        k = 2
        u = SpectralField(g, np.exp(2j * np.pi * k * (p * x1 - x2))
                          * np.ones(g.shape), PHYSICAL)
        coeffs = [1.0, lambda a1, a2, q: q]
        gv = (np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2)
              * (1.0 + 0.25 * p)) * np.ones(g.shape)
        gfun = WeakTestFunction(gv)
        return g, u, coeffs, gfun

    def test_exact_solution_residual_vanishes(self):
        g, u, coeffs, gfun = self._exact_setup()
        r = weak_form_residual(u, coeffs, None, gfun, (0,), ISO2)
        scale = u.norm_l2() * np.max(np.abs(gfun.values))
        assert abs(r) <= 1e-12 * scale

    def test_zero_field(self):
        g, u, coeffs, gfun = self._exact_setup()
        z = u.with_values(np.zeros_like(np.asarray(u.values)))
        assert weak_form_residual(z, coeffs, None, gfun, (0,), ISO2) == 0

    def test_forcing_consistency(self):
        # [DERIVED] G computed by applying the operator spectrally makes
        # the pairing an exact integration-by-parts identity
        g, _, coeffs, gfun = self._exact_setup()
        u = band_limited_field(g, rng(7))
        (p,) = g.velocity_coordinates()
        d1 = fractional_derivative(u, 0, 1.0)
        d2 = fractional_derivative(u, 1, 1.0)
        G = u.with_values(d1.values + p * np.ones(g.shape) * d2.values)
        r = weak_form_residual(u, coeffs, G, gfun, (0, 0), ISO2)
        scale = u.norm_l2() * np.max(np.abs(gfun.values))
        assert abs(r) <= 1e-10 * scale

    def test_linear_in_field(self):
        g, u, coeffs, gfun = self._exact_setup()
        v = band_limited_field(g, rng(8))
        r1 = weak_form_residual(v, coeffs, None, gfun, (0,), ISO2)
        r2 = weak_form_residual(v.with_values(3.0 * np.asarray(v.values)),
                                coeffs, None, gfun, (0,), ISO2)
        assert abs(r2 - 3.0 * r1) <= 1e-12 * max(1e-30, abs(r1))

    def test_missing_p_derivative(self):
        g, u, coeffs, gfun = self._exact_setup()
        G = u.with_values(np.zeros_like(np.asarray(u.values)))
        with pytest.raises(DomainError):
            weak_form_residual(u, coeffs, G, gfun, (1,), ISO2)


class TestGnTestFunction:
    def _grid(self):
        return SpectralGrid((16, 16), (1.0, 1.0), n_velocity=(16,),
                            velocity_length=(1.0,))

    def test_zero_field_maps_to_zero(self):
        g = self._grid()
        u = SpectralField(g, np.zeros(g.shape), PHYSICAL)
        out = build_gn_test_function(u, symbol_from_name("one", ISO2),
                                     np.ones(g.n_per_axis), compact_bump,
                                     compact_bump, ISO2)
        assert np.max(np.abs(out.values)) == 0.0

    def test_velocity_profile_factorizes(self):
        g = self._grid()
        r = rng(9)
        vals = r.standard_normal(g.shape) + 1j * r.standard_normal(g.shape)
        u = SpectralField(g, vals, PHYSICAL)
        out = build_gn_test_function(u, symbol_from_name("one", ISO2),
                                     np.ones(g.n_per_axis), compact_bump,
                                     compact_bump, ISO2)
        rho1 = compact_bump(g.velocity_axis(0))
        live = rho1 > 1e-6
        ratio = out.values[..., live] / rho1[live]
        spread = np.max(np.abs(ratio - ratio[..., :1]))
        assert spread <= 1e-10 * max(1e-30, np.max(np.abs(ratio)))


class TestPrincipalIsDiagonalMixed:
    def test_callable_evaluated_once_and_matches_mixed(self):
        p = midpoints(16)
        calls = []

        def coeffs(x, q):
            calls.append(1)
            return np.stack([np.ones_like(q), q], axis=-1)

        xi = np.array([2.0, -3.0])
        v = principal_symbol(0.0, xi, p, coeffs, MIX2)
        assert len(calls) == 1
        a = coeffs(0.0, p)
        w = mixed_symbol(0.0, xi, p, [(a[..., 0], (1.0, 0)), (a[..., 1], (0, 2.0))])
        assert np.array_equal(v, w)


class TestWeakFormReference:
    def test_matches_raw_fft_reference(self):
        # the pairing written out with numpy's FFT and the continuum
        # scaling by hand, independent of the spectral module
        g = SpectralGrid((16, 8), (1.0, 2.0), n_velocity=(4,), velocity_length=(2.0,))
        u = band_limited_field(g, rng(3))
        (p,) = g.velocity_coordinates()
        x1, x2 = g.coordinates()
        gv = (np.sin(2 * np.pi * x1) * np.cos(np.pi * x2) * (1.0 + p)) * np.ones(g.shape)
        coeffs = [1.0, lambda a1, a2, q: q]
        r = weak_form_residual(u, coeffs, None, WeakTestFunction(gv), (0,), MIX2)

        vol = (1.0 / 16) * (2.0 / 8)
        spec = np.fft.fftn(gv, axes=(0, 1)) * vol
        a_vals = [np.ones(g.shape), p * np.ones(g.shape)]
        ref = 0.0
        for k in range(2):
            n, L = g.n_per_axis[k], g.length_per_axis[k]
            xi = np.fft.fftfreq(n) * n
            xi[n // 2] = n // 2
            xi = xi / L
            order = MIX2.alpha[k]
            sym = np.abs(2 * np.pi * xi) ** order * np.exp(-1j * order * np.pi / 2 * np.sign(xi))
            shp = [1, 1, 1]
            shp[k] = n
            dg = np.fft.ifftn(spec * sym.reshape(shp), axes=(0, 1)) / vol
            ref = ref + np.sum(a_vals[k] * u.values * np.conj(dg)) * vol * (2.0 / 4)
        assert abs(r - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_leaves_the_test_function_writeable(self):
        g = SpectralGrid((8, 8), (1.0, 1.0), n_velocity=(2,), velocity_length=(1.0,))
        gv = np.ones(g.shape, dtype=complex)
        weak_form_residual(band_limited_field(g, rng(4)), [1.0, 1.0], None,
                           WeakTestFunction(gv), (0,), ISO2)
        assert gv.flags.writeable


class TestScanCounts:
    def test_matches_per_eps_loop_with_ties_and_nan(self):
        from hpm.averaging import _scan_measures
        eps_list = (0.25, 0.5, 1.0, 2.0)
        r = rng(9)
        symbols = {}
        for ip in range(6):
            vals = r.standard_normal(40) + 1j * r.standard_normal(40)
            vals[:4] = eps_list  # |A| exactly on each threshold
            vals[4] = np.nan
            symbols[ip] = vals
        rep = _scan_measures(lambda x, xi: symbols[xi], [0.0], list(range(6)),
                             eps_list, 0.5, 40)
        for ip, vals in symbols.items():
            absA = np.abs(vals)
            for ie, eps in enumerate(eps_list):
                assert rep.measures[0, ip, ie] == 0.5 * int(np.count_nonzero(absA <= eps))
