import math

import numpy as np
import pytest

from hpm.anisotropy import AnisotropyProfile, project_to_P
from hpm.errors import DomainError, IntegrityError, SupportWarning
from hpm.hmeasure import (
    MatrixMeasure,
    MollifierKernel,
    SequenceGenerator,
    bilinear_form,
    concentration_sequence,
    cosine_velocity_basis,
    estimate_limit,
    kernel_mass,
    make_cell_basis,
    marginal_density_check,
    matrix_hmeasure,
    oscillation_frequency,
    oscillation_sequence,
    scalar_hmeasure,
    standard_mollifier,
    velocity_mollify,
)
from hpm.multiplier import symbol_from_name
from hpm.spectral import PHYSICAL, SpectralField, SpectralGrid, band_limited_field

ISO2 = AnisotropyProfile((1.0, 1.0))
MIX2 = AnisotropyProfile((1.0, 2.0))

# the sin^4 cut-off only vanishes at the exact boundary point, which the
# conservative support check flags; the explicit warning test opts back in
pytestmark = pytest.mark.filterwarnings("ignore::hpm.errors.SupportWarning")


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


def bump2(grid):
    """Smooth cut-off vanishing near the torus boundary."""
    x1, x2 = grid.coordinates()
    return (np.sin(np.pi * x1 / grid.length_per_axis[0]) ** 4
            * np.sin(np.pi * x2 / grid.length_per_axis[1]) ** 4)


class TestEstimateLimit:
    def test_constant_sequence(self):
        avg, err = estimate_limit([2.0, 2.0, 2.0, 2.0])
        assert avg == 2.0 and err == 0.0

    def test_slowly_convergent(self):
        ns = [8, 16, 32, 64, 128, 256]
        avg, err = estimate_limit([3.0 + 1.0 / n for n in ns])
        assert abs(avg - 3.0) <= 0.15
        assert abs(avg - 3.0) <= abs(avg.real - 3.0) + 1e-15
        # the reported error bar covers the residual gap of the tail
        assert err >= abs(3.0 + 1.0 / ns[-1] - avg) - 1e-15

    def test_too_short(self):
        with pytest.raises(DomainError):
            estimate_limit([1.0, 2.0])


class TestBilinearForm:
    def test_identity_symbol_is_centered_energy(self):
        # [DERIVED] psi = 1 off the zero mode gives the Plancherel energy
        # of phi u minus its mean
        g = SpectralGrid((16, 16), (1.0, 1.0))
        u = band_limited_field(g, rng(1))
        phi = bump2(g)
        v = bilinear_form(u, phi, phi, symbol_from_name("one", ISO2), ISO2)
        w = phi * u.values
        w = w - np.mean(w)
        expect = np.sum(np.abs(w) ** 2) * g.cell_volume
        assert abs(v - expect) <= 1e-12 * expect

    def test_hermitian_swap(self):
        g = SpectralGrid((16, 16), (1.0, 1.0))
        u = band_limited_field(g, rng(2))
        x1, x2 = g.coordinates()
        phi1 = bump2(g)
        phi2 = bump2(g) * np.cos(2 * np.pi * x1)
        psi = symbol_from_name("coordinate:0", ISO2)
        a = bilinear_form(u, phi1, phi2, psi, ISO2)
        b = bilinear_form(u, phi2, phi1, psi, ISO2)
        assert abs(a - np.conj(b)) <= 1e-12 * max(1e-30, abs(a))

    def test_frequency_physical_equivalence(self):
        g = SpectralGrid((32, 32), (1.0, 1.0))
        u = band_limited_field(g, rng(3))
        phi = bump2(g)
        psi = symbol_from_name("coordinate:1", ISO2)
        a = bilinear_form(u, phi, phi, psi, ISO2, via="frequency")
        b = bilinear_form(u, phi, phi, psi, ISO2, via="physical")
        assert abs(a - b) <= 1e-10 * max(1e-30, abs(a))

    def test_diagonal_nonnegative(self):
        g = SpectralGrid((16, 16), (1.0, 1.0))
        psi = symbol_from_name("sector:axis=0,sign=+", ISO2)
        for key in range(5):
            u = band_limited_field(g, rng(10 + key))
            v = bilinear_form(u, bump2(g), bump2(g), psi, ISO2)
            assert v.real >= -1e-12
            assert abs(v.imag) <= 1e-12 * max(1e-30, abs(v))

    def test_oscillation_oracle(self):
        # [DERIVED] a modulated envelope localizes at pi_P(kappa):
        # V -> psi(pi_P(kappa)) int phi1 conj(phi2) |v|^2 dx
        g = SpectralGrid((64, 64), (1.0, 1.0))
        x1, x2 = g.coordinates()
        env = 1.0 + 0.3 * np.cos(2 * np.pi * x1) * np.sin(2 * np.pi * x2)
        kappa = np.array([20.0, 0.0])
        u = SpectralField(g, env * np.exp(2j * np.pi * kappa[0] * x1), PHYSICAL)
        phi1 = bump2(g)
        phi2 = bump2(g) * (1.0 + 0.2 * np.sin(2 * np.pi * x2))
        psi = symbol_from_name("coordinate:0", ISO2)
        v = bilinear_form(u, phi1, phi2, psi, ISO2, check_support=False)
        factor = float(project_to_P(kappa, ISO2)[0])
        oracle = factor * np.sum(phi1 * np.conj(phi2) * np.abs(env) ** 2) * g.cell_volume
        assert abs(v - oracle) <= 0.05 * abs(oracle)

    def test_support_warning(self):
        g = SpectralGrid((16, 16), (1.0, 1.0))
        u = band_limited_field(g, rng(4))
        ones = np.ones(g.shape)
        with pytest.warns(SupportWarning):
            bilinear_form(u, ones, ones, symbol_from_name("one", ISO2), ISO2)

    def test_unknown_route(self):
        g = SpectralGrid((8, 8), (1.0, 1.0))
        u = band_limited_field(g, rng(5))
        with pytest.raises(DomainError):
            bilinear_form(u, bump2(g), bump2(g), symbol_from_name("one", ISO2),
                          ISO2, via="nope")


class TestOscillationSequence:
    def test_isotropic_projection_constant(self):
        g = SpectralGrid((32, 32), (1.0, 1.0))
        for n in (4, 8, 16):
            kap = oscillation_frequency(ISO2, (1.0, 0.0), n, g)
            p = project_to_P(kap, ISO2)
            assert np.max(np.abs(p - np.array([1.0, 0.0]))) <= 1e-12

    def test_anisotropic_projection_drift(self):
        # with alpha = (1, 2) the lattice rounding perturbs the projected
        # direction by O(1/n)
        g = SpectralGrid((32, 32), (1.0, 1.0))
        target = project_to_P(np.array([1.0, 1.0]), MIX2)
        errs = []
        for n in (10, 1000):
            kap = oscillation_frequency(MIX2, (1.0, 1.0), n, g)
            errs.append(np.max(np.abs(project_to_P(kap, MIX2) - target)))
        assert errs[1] < errs[0]
        assert errs[1] <= 0.05

    def test_norm_preserved(self):
        g = SpectralGrid((32, 32), (1.0, 1.0))
        env = band_limited_field(g, rng(6))
        u = oscillation_sequence(ISO2, (1.0, 0.0), env, 8)
        # modulation is unimodular and the modulated field has zero mean
        assert abs(u.norm_l2() - env.norm_l2()) <= 1e-10 * env.norm_l2()

    def test_zero_frequency_rejected(self):
        g = SpectralGrid((16, 16), (1.0, 1.0))
        env = band_limited_field(g, rng(7))
        with pytest.raises(DomainError):
            oscillation_sequence(ISO2, (0.0, 0.0), env, 4)


class TestConcentration:
    def test_mass_localizes_at_centre(self):
        prof = AnisotropyProfile((1.0, 1.0))
        g = SpectralGrid((64, 64), (1.0, 1.0))
        envelope = lambda x1, x2: np.exp(-8.0 * (x1 ** 2 + x2 ** 2))
        fracs = []
        for n in (2, 8):
            u = concentration_sequence(prof, envelope, g, n)
            dens = np.abs(u.values) ** 2
            x1, x2 = g.coordinates()
            near = (np.abs(x1 - 0.5) < 0.15) & (np.abs(x2 - 0.5) < 0.15)
            fracs.append(float(dens[near].sum() / dens.sum()))
        assert fracs[1] > fracs[0]
        assert fracs[1] >= 0.95


class TestMollifier:
    def test_standard_kernel_mass(self):
        assert abs(kernel_mass(standard_mollifier(1)) - 1.0) <= 1e-10

    def test_constant_profile_unchanged(self):
        g = SpectralGrid((8,), (1.0,), n_velocity=(16,), velocity_length=(2.0,))
        vals = rng(8).standard_normal((8, 1)) * np.ones((8, 16))
        u = SpectralField(g, vals, PHYSICAL)
        out = velocity_mollify(u, 4, standard_mollifier(1))
        assert np.max(np.abs(out.values - u.values)) <= 1e-12

    def test_young_l2_bound(self):
        g = SpectralGrid((8,), (1.0,), n_velocity=(32,), velocity_length=(2.0,))
        r = rng(9)
        u = SpectralField(g, r.standard_normal(g.shape)
                          + 1j * r.standard_normal(g.shape), PHYSICAL)
        out = velocity_mollify(u, 4, standard_mollifier(1))
        assert out.norm_l2() <= u.norm_l2() * (1 + 1e-12)

    def test_refinement_converges(self):
        g = SpectralGrid((8,), (1.0,), n_velocity=(64,), velocity_length=(2.0,))
        p = g.velocity_axis(0)
        vals = np.ones((8, 1)) * np.sin(np.pi * p)[None, :]
        u = SpectralField(g, vals, PHYSICAL)
        diffs = []
        for k in (4, 16, 64):
            out = velocity_mollify(u, k, standard_mollifier(1))
            diffs.append(float(np.max(np.abs(out.values - u.values))))
        assert diffs[0] > diffs[1] > diffs[2]

    def test_bad_mass_rejected(self):
        g = SpectralGrid((8,), (1.0,), n_velocity=(16,), velocity_length=(2.0,))
        u = SpectralField(g, np.zeros(g.shape), PHYSICAL)
        flat = MollifierKernel(lambda p: np.where(np.abs(p) < 1, 1.0, 0.0),
                               support_radius=1.0, m=1)
        with pytest.raises(DomainError):
            velocity_mollify(u, 4, flat)

    def test_no_velocity_axis(self):
        g = SpectralGrid((8,), (1.0,))
        u = SpectralField(g, np.zeros(8), PHYSICAL)
        with pytest.raises(DomainError):
            velocity_mollify(u, 2, standard_mollifier(1))


class TestCellBasis:
    def test_quadratic_partition_of_unity(self):
        g = SpectralGrid((32, 32), (1.0, 1.0))
        cb = make_cell_basis(g, ISO2, x_cells=4, p_cells=8)
        sq = np.sum(cb.x_hats ** 2, axis=0)
        assert np.max(np.abs(sq - 1.0)) <= 1e-12

    def test_p_masks_partition_off_origin(self):
        g = SpectralGrid((16, 16), (1.0, 1.0))
        cb = make_cell_basis(g, ISO2, x_cells=2, p_cells=8)
        tot = np.sum(cb.p_masks, axis=0)
        nz = tot[tot > 0]
        assert np.max(np.abs(nz - 1.0)) <= 1e-12
        assert tot.ravel()[0] == 0.0  # origin excluded


class TestScalarMeasure:
    def test_oscillation_localizes_in_angle(self):
        g = SpectralGrid((64, 64), (1.0, 1.0))
        env = SpectralField(g, np.ones(g.shape, dtype=complex), PHYSICAL)
        gen = SequenceGenerator.oscillation(ISO2, (1.0, 0.0), env)
        est = scalar_hmeasure(gen, ISO2, g, (8, 12, 16), x_cells=4, p_cells=16)
        total = est.cells.sum()
        assert abs(total - 1.0) <= 1e-6  # unit-mode energy
        by_angle = est.cells.sum(axis=0)
        # direction (1, 0) sits in the angle-0 cell
        adj = by_angle[0] + by_angle[1] + by_angle[-1]
        assert adj >= 0.95 * total

    def test_pair_symbol_extrapolation(self):
        g = SpectralGrid((32, 32), (1.0, 1.0))
        env = SpectralField(g, np.ones(g.shape, dtype=complex), PHYSICAL)
        gen = SequenceGenerator.oscillation(ISO2, (1.0, 0.0), env)
        phi = bump2(g)
        est = scalar_hmeasure(gen, ISO2, g, (4, 6, 8), x_cells=2, p_cells=8,
                              pairs={"d": (phi, phi)},
                              symbols={"x0": symbol_from_name("coordinate:0", ISO2)})
        lim, err = est.extrapolated[("d", "x0")]
        oracle = np.sum(np.abs(phi) ** 2) * g.cell_volume  # psi = 1 at (1, 0)
        assert abs(lim - oracle) <= 0.05 * oracle + err

    def test_bad_n_list(self):
        g = SpectralGrid((16, 16), (1.0, 1.0))
        env = SpectralField(g, np.ones(g.shape, dtype=complex), PHYSICAL)
        gen = SequenceGenerator.oscillation(ISO2, (1.0, 0.0), env)
        with pytest.raises(DomainError):
            scalar_hmeasure(gen, ISO2, g, (4, 4, 8), 2, 8)


class TestMatrixMeasure:
    def _grid(self):
        return SpectralGrid((16, 16), (1.0, 1.0), n_velocity=(32,),
                            velocity_length=(2.0,))

    def _gen(self, grid, basis, coeffs):
        x1 = grid.coord_axis(0)
        prof = sum(c * basis[i] for i, c in enumerate(coeffs))
        mod = np.ones(grid.n_per_axis, dtype=complex)

        def produce(n):
            vals = (np.exp(2j * np.pi * n * x1)[:, None] * mod)[..., None] * prof
            return SpectralField(grid, vals, PHYSICAL)

        return SequenceGenerator.from_callable(produce)

    def test_rank_one_structure(self):
        g = self._grid()
        basis = cosine_velocity_basis(g, 3).astype(complex)
        gen = self._gen(g, basis, (1.0, 0.5, 0.0))
        M = matrix_hmeasure(gen, basis, x_cells=2, p_cells=8,
                            n_list=(4, 6, 8), profile=ISO2)
        M.check_integrity()
        mu = M.entries.sum(axis=(2, 3))
        # [DERIVED] coefficients (1, 0.5, 0) against an orthonormal basis
        # give the rank-one matrix c c^* with unit total energy per mode
        expect = np.outer([1.0, 0.5, 0.0], [1.0, 0.5, 0.0])
        assert np.max(np.abs(mu - expect)) <= 1e-6

    def test_trace_and_marginal(self):
        g = self._grid()
        basis = cosine_velocity_basis(g, 2).astype(complex)
        gen = self._gen(g, basis, (1.0, 0.0))
        M = matrix_hmeasure(gen, basis, 2, 8, (4, 6, 8), ISO2)
        assert abs(M.trace.sum() - 0.5) <= 1e-6  # weight 2^-1 on mu_00
        assert np.max(np.abs(M.trace.sum(axis=-1) - M.marginal)) <= 1e-14

    def test_cell_refinement_consistency(self):
        # the same measure assembled on coarse and fine x-cells carries the
        # same total mass
        g = self._grid()
        basis = cosine_velocity_basis(g, 2).astype(complex)
        gen = self._gen(g, basis, (1.0, 0.3))
        a = matrix_hmeasure(gen, basis, 2, 8, (4, 6, 8), ISO2)
        b = matrix_hmeasure(gen, basis, 4, 8, (4, 6, 8), ISO2)
        assert np.max(np.abs(a.entries.sum(axis=(2, 3))
                             - b.entries.sum(axis=(2, 3)))) <= 1e-3

    def test_non_orthonormal_basis_rejected(self):
        g = self._grid()
        basis = np.ones((2, 32), dtype=complex)
        gen = self._gen(g, basis, (1.0, 0.0))
        with pytest.raises(DomainError):
            matrix_hmeasure(gen, basis, 2, 8, (4, 6, 8), ISO2)

    def test_integrity_catches_tampering(self):
        g = self._grid()
        basis = cosine_velocity_basis(g, 2).astype(complex)
        gen = self._gen(g, basis, (1.0, 0.5))
        M = matrix_hmeasure(gen, basis, 2, 8, (4, 6, 8), ISO2)
        M.entries[0, 1] += 10.0  # break hermitian symmetry
        with pytest.raises(IntegrityError):
            M.check_integrity()


class TestCosineBasis:
    def test_orthonormal_by_quadrature(self):
        g = SpectralGrid((8,), (1.0,), n_velocity=(64,), velocity_length=(2.0,))
        basis = cosine_velocity_basis(g, 4)
        dv = g.velocity_cell_volume
        gram = basis @ basis.T * dv
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-10

    def test_requires_single_axis(self):
        g = SpectralGrid((8,), (1.0,))
        with pytest.raises(DomainError):
            cosine_velocity_basis(g, 2)


class TestMarginalDensity:
    def _measures(self):
        g = SpectralGrid((16, 16), (1.0, 1.0), n_velocity=(32,),
                         velocity_length=(2.0,))
        basis = cosine_velocity_basis(g, 2).astype(complex)
        x1 = g.coord_axis(0)
        mod = np.ones(g.n_per_axis, dtype=complex)

        def produce(n):
            vals = (np.exp(2j * np.pi * n * x1)[:, None] * mod)[..., None] * basis[0]
            return SpectralField(g, vals, PHYSICAL)

        gen = SequenceGenerator.from_callable(produce)
        return [matrix_hmeasure(gen, basis, c, 8, (4, 6, 8), ISO2)
                for c in (2, 4)]

    def test_uniform_density_stable_norms(self):
        rep = marginal_density_check(self._measures(), r_prime=2.0)
        assert rep.slicing_ok
        assert all(0.8 <= r <= 1.25 for r in rep.ratios)

    def test_negative_mass_detected(self):
        ms = self._measures()
        ms[0].trace[0, 0] = -1.0
        with pytest.raises(IntegrityError):
            marginal_density_check(ms, r_prime=2.0)

    def test_argument_validation(self):
        ms = self._measures()
        with pytest.raises(DomainError):
            marginal_density_check(ms[:1], r_prime=2.0)
        with pytest.raises(DomainError):
            marginal_density_check(ms, r_prime=1.0)


class TestZeroMeanOwnership:
    def test_from_callable_subtracts_the_mean(self):
        g = SpectralGrid((16, 8), (1.0, 1.0), n_velocity=(3,), velocity_length=(1.0,))
        x1, _ = g.coordinates()

        def produce(n):
            vals = (2.0 + np.cos(2 * np.pi * n * x1)) * np.ones(g.shape)
            return SpectralField(g, vals, PHYSICAL)

        gen = SequenceGenerator.from_callable(produce)
        for n in (1, 2, 3):
            u = gen.field(n)
            assert np.max(np.abs(np.mean(u.values, axis=(0, 1)))) <= 1e-14

    def test_from_files_subtracts_the_mean(self, tmp_path):
        from hpm.spectral import write_field
        g = SpectralGrid((8, 8), (1.0, 1.0))
        path = tmp_path / "u.fld"
        write_field(SpectralField(g, 3.0 + band_limited_field(g, rng(2)).values,
                                  PHYSICAL), path)
        u = SequenceGenerator.from_files([str(path)]).field(0)
        assert abs(np.mean(u.values)) <= 1e-14

    def test_oscillation_subtracts_once_per_snapshot(self, monkeypatch):
        import hpm.hmeasure as hm
        calls = []
        original = hm.subtract_spatial_mean

        def counting(f):
            calls.append(1)
            return original(f)

        monkeypatch.setattr(hm, "subtract_spatial_mean", counting)
        g = SpectralGrid((16, 16), (1.0, 1.0))
        env = SpectralField(g, np.ones(g.shape, dtype=complex), PHYSICAL)
        gen = SequenceGenerator.oscillation(ISO2, (1.0, 0.0), env)
        for n in (4, 6, 8):
            gen.field(n)
        assert len(calls) == 3


class TestEstimateLimitAlongAxis0:
    def test_stack_matches_per_entry_scalar_estimates(self):
        stack = rng(5).standard_normal((5, 2, 3)) + 1j * rng(6).standard_normal((5, 2, 3))
        avg, err = estimate_limit(stack)
        assert avg.shape == err.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                a, e = estimate_limit(list(stack[:, i, j]))
                assert avg[i, j] == a and err[i, j] == e
