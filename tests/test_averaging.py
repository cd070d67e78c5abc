import numpy as np
import pytest

from hpm.anisotropy import AnisotropyProfile, mesh_P
from hpm.averaging import (
    DecayTable,
    compactness_metric,
    nondegeneracy_scan,
    principal_symbol,
    transport_evolve,
    velocity_average,
)
from hpm.errors import DomainError, IntegrityError, SupportWarning
from hpm.hmeasure import OscillationSequence
from hpm.spectral import (
    SpectralField,
    SpectralGrid,
    subtract_spatial_mean,
)

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


class TestNonDegeneracyScan:
    def test_linear_transport_closed_form(self):
        # [DERIVED] a = (1, p), xi = (0, 1): |A| = 2 pi |p|, so the
        # sub-level measure is eps / pi
        rep = nondegeneracy_scan([1.0, lambda x, p: p], [0.0], ISO2, 16,
                                 midpoints(1024), (0.1, 0.2, 0.4))
        mesh, _ = mesh_P(ISO2, 16)
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
        # one CSV row per (x sample, mesh point, eps)
        assert rep.measures.shape == (1, 16, 2)


def pure_mode_sequence(grid, kappa):
    phase = sum(k * x for k, x in zip(kappa, grid.coordinates()))
    vals = np.exp(2j * np.pi * phase) * np.ones(grid.shape)
    return lambda n: subtract_spatial_mean(SpectralField(grid, vals))


class TestTransport:
    def test_zero_velocity_is_identity(self):
        g = SpectralGrid((16,), (1.0,), n_velocity=(8,), velocity_length=(2.0,))
        seq = pure_mode_sequence(g, (3,))
        u0 = seq(0)
        u = transport_evolve(u0, lambda p: np.zeros(p.shape + (1,)), 0.7)
        assert np.max(np.abs(u.values - u0.values)) <= 1e-12

    def test_single_mode_exact_phase(self):
        g = SpectralGrid((16,), (1.0,), n_velocity=(8,), velocity_length=(2.0,))
        seq = pure_mode_sequence(g, (3,))
        t = 0.3
        u = transport_evolve(seq(0), lambda p: p[..., None], t)
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
        u0 = SpectralField(g, vals)
        seq = lambda n: subtract_spatial_mean(u0)
        a = lambda p: np.stack([np.ones_like(p), p], axis=-1)
        u = transport_evolve(seq(0), a, 1.3)
        n0 = np.sqrt(np.sum(np.abs(u0.values) ** 2, axis=(0, 1)))
        n1 = np.sqrt(np.sum(np.abs(u.values) ** 2, axis=(0, 1)))
        assert np.max(np.abs(n1 - n0)) <= 1e-12 * np.max(n0)

    def test_requires_velocity_axes(self):
        g = SpectralGrid((16,), (1.0,))
        seq = pure_mode_sequence(g, (1,))
        with pytest.raises(DomainError):
            transport_evolve(seq(0), lambda p: p, 1.0)


class TestVelocityAverage:
    def test_separable_oracle(self):
        g = SpectralGrid((16,), (1.0,), n_velocity=(32,), velocity_length=(1.0,))
        x = g.coord_axis(0)
        p = g.velocity_axis(0)
        f = np.exp(2j * np.pi * x)
        gfun = compact_bump(p)
        u = SpectralField(g, f[:, None] * gfun[None, :])
        avg = velocity_average(u, compact_bump)
        oracle = f * np.sum(gfun ** 2) * g.velocity_cell_volume
        assert np.max(np.abs(avg.values - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        assert avg.grid.m == 0

    def test_zero_weight(self):
        g = SpectralGrid((8,), (1.0,), n_velocity=(8,), velocity_length=(1.0,))
        u = SpectralField(g, np.ones(g.shape))
        avg = velocity_average(u, np.zeros(8))
        assert np.max(np.abs(avg.values)) == 0.0

    def test_boundary_weight_warns(self):
        g = SpectralGrid((8,), (1.0,), n_velocity=(8,), velocity_length=(1.0,))
        u = SpectralField(g, np.ones(g.shape))
        with pytest.warns(SupportWarning):
            velocity_average(u, np.ones(8))

    def test_requires_velocity_axes(self):
        g = SpectralGrid((8,), (1.0,))
        u = SpectralField(g, np.ones(8))
        with pytest.raises(DomainError):
            velocity_average(u, np.ones(8))


class TestCompactness:
    def _oscillating_seq(self, grid):
        env = SpectralField(grid, np.ones(grid.shape, dtype=complex))
        return OscillationSequence(ISO2, (0.0, 1.0), env)

    def test_dichotomy(self):
        g = SpectralGrid((8, 64), (1.0, 1.0), n_velocity=(64,),
                         velocity_length=(1.0,))
        seq0 = self._oscillating_seq(g)
        window = ((0.0, 1.0), (0.0, 1.0))
        n_list = (2, 4, 8, 16)

        a_nd = lambda p: np.stack([np.ones_like(p), p], axis=-1)
        seq_nd = lambda n: subtract_spatial_mean(
            transport_evolve(seq0(n), a_nd, 0.5))
        tab = compactness_metric(seq_nd, compact_bump, window, n_list)
        assert isinstance(tab, DecayTable)
        assert all(b < a for a, b in zip(tab.ratios, tab.ratios[1:]))
        assert tab.ratios[-1] <= 0.3

        # a independent of p: no averaging, the ratio stays pinned at 1
        a_dg = lambda p: np.stack([np.ones_like(p), np.zeros_like(p)], axis=-1)
        seq_dg = lambda n: subtract_spatial_mean(
            transport_evolve(seq0(n), a_dg, 0.5))
        tab2 = compactness_metric(seq_dg, compact_bump, window, n_list)
        assert all(abs(r - 1.0) <= 1e-10 for r in tab2.ratios)

    def test_zero_norm_at_n_min_is_an_integrity_failure(self):
        # a zero weight averages every snapshot to 0: the ratios are 0/0
        g = SpectralGrid((8, 8), (1.0, 1.0), n_velocity=(8,),
                         velocity_length=(1.0,))
        seq = self._oscillating_seq(g)
        with pytest.raises(IntegrityError, match=r"n_min = 2 is 0"):
            compactness_metric(seq, np.zeros(8), ((0.0, 1.0), (0.0, 1.0)), (2, 4))

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_tiny_or_huge_weight_gives_the_unit_weight_ratios(self, scale):
        # the squares of the windowed values would leave the float range;
        # the norms are taken on values scaled by a power of two instead
        g = SpectralGrid((8, 32), (1.0, 1.0), n_velocity=(32,),
                         velocity_length=(1.0,))
        seq0 = self._oscillating_seq(g)
        a = lambda p: np.stack([np.ones_like(p), p], axis=-1)
        seq = lambda n: subtract_spatial_mean(transport_evolve(seq0(n), a, 0.5))
        window = ((0.0, 1.0), (0.25, 0.75))
        unit = compactness_metric(seq, compact_bump, window, (2, 4, 8))
        scaled = compactness_metric(seq, lambda p: scale * compact_bump(p),
                                    window, (2, 4, 8))
        assert scaled.norms == pytest.approx([scale * v for v in unit.norms],
                                             rel=1e-14)
        for r, r1 in zip(scaled.ratios, unit.ratios):
            assert abs(r - r1) <= 2 * np.spacing(r1)
        assert len(set(unit.ratios)) == 3

    def test_window_validation(self):
        g = SpectralGrid((8, 8), (1.0, 1.0), n_velocity=(8,),
                         velocity_length=(1.0,))
        seq = self._oscillating_seq(g)
        with pytest.raises(DomainError):
            compactness_metric(seq, compact_bump, ((0.5, 0.2), (0.0, 1.0)), (2, 4))
        with pytest.raises(DomainError):
            compactness_metric(seq, compact_bump, ((0.0, 1.0), (0.0, 1.0)), (2,))
        # x_1 in [0.01, 0.02) lies between the samples 0 and 1/8
        with pytest.raises(DomainError, match="holds no grid sample"):
            compactness_metric(seq, compact_bump, ((0.01, 0.02), (0.0, 1.0)), (2, 4))


class TestPrincipalIsDiagonalMixed:
    def test_callable_evaluated_once_and_matches_mixed(self):
        p = midpoints(16)
        calls = []

        def coeffs(x, q):
            calls.append(1)
            return np.stack([np.ones_like(q), q], axis=-1)

        v = principal_symbol(0.0, np.array([2.0, -3.0]), p, coeffs, MIX2)
        assert len(calls) == 1
        # [DERIVED] alpha = (1, 2), a = (1, p): 2 pi i 2 + p (2 pi i (-3))^2
        expect = 2j * np.pi * 2 - 4 * np.pi ** 2 * 9 * p
        assert np.max(np.abs(v - expect)) <= 1e-12 * np.max(np.abs(expect))


class TestNonFiniteCoefficients:
    def test_integrity_failure_names_the_x_sample(self):
        def coeffs(x, p):
            bad = np.where(p > 0.25, np.nan, p) if x[0] > 0 else p
            return np.stack([np.ones_like(p), bad], axis=-1)
        with pytest.raises(IntegrityError, match=r"a_2\(x, p\) is not finite at "
                           r"x sample 1: 32 of 128 values"):
            nondegeneracy_scan(coeffs, [np.zeros(2), np.ones(2)], ISO2, 16,
                               midpoints(128), (0.1, 0.2))

    def test_coefficients_evaluated_once_per_x_sample(self):
        calls = []

        def coeffs(x, p):
            calls.append(x)
            return np.stack([np.ones_like(p), p], axis=-1)
        rep = nondegeneracy_scan(coeffs, [np.zeros(2), np.ones(2)], ISO2, 16,
                                 midpoints(64), (0.1, 0.2))
        assert len(calls) == 2
        want = nondegeneracy_scan([1.0, lambda x, p: p], [0.0, 1.0], ISO2, 16,
                                  midpoints(64), (0.1, 0.2))
        assert np.array_equal(rep.measures, want.measures)


class TestWeightBoundary:
    """A callable weight is checked on the faces p_i = +-P_i/2 of the
    closed velocity box; sampled values keep the outermost-midpoint check."""

    def _field(self, n_velocity, velocity_length):
        g = SpectralGrid((8,), (1.0,), n_velocity=n_velocity,
                         velocity_length=velocity_length)
        return SpectralField(g, np.ones(g.shape))

    @pytest.mark.parametrize("n_p", [16, 256])
    def test_weight_vanishing_on_the_faces_is_silent(self, recwarn, n_p):
        u = self._field((n_p,), (1.0,))
        avg = velocity_average(u, lambda p1: np.cos(np.pi * p1) ** 2)
        assert not [w for w in recwarn if issubclass(w.category, SupportWarning)]
        midpoints_ = midpoints(n_p)
        oracle = np.sum(np.cos(np.pi * midpoints_) ** 2) / n_p
        assert np.max(np.abs(avg.values - oracle)) <= 1e-14

    def test_weight_touching_a_face_warns(self):
        u = self._field((8, 4), (1.0, 2.0))
        with pytest.warns(SupportWarning, match="p-axis 1"):
            velocity_average(u, lambda p1, p2: np.cos(np.pi * p1) ** 2 * (1.0 + p2))

    def test_weight_singular_on_a_face_warns(self):
        u = self._field((16,), (1.0,))
        with pytest.warns(SupportWarning):
            velocity_average(u, lambda p1: 1.0 / (0.25 - p1 ** 2))
