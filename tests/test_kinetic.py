import numpy as np
import pytest

from hpm.errors import DomainError, IntegrityError
from hpm.kinetic import (
    FluxPair,
    UPManifold,
    bump_test_function,
    entropy_residual,
    exact_lambda_integral,
    flux_from_name,
    kinetic_transform,
    spline_test_function,
    up_nondegeneracy_scan,
    up_symbol,
    validate_flux,
)
from hpm.spectral import SpectralField, SpectralGrid


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


def lam_midpoints(n, M=1.0):
    return -M + (np.arange(n) + 0.5) * (2 * M / n)


class TestKineticTransform:
    def test_values_and_shape(self):
        u = np.array([0.5, -0.5])
        lam = lam_midpoints(4)
        h = kinetic_transform(u, lam)
        assert h.shape == (2, 4)
        assert set(np.unique(h)) <= {-1.0, 0.0, 1.0}
        assert np.all(h[0] == np.where(lam < 0.5, 1.0, -1.0))

    def test_sign_zero_convention(self):
        h = kinetic_transform(np.array([0.25]), np.array([0.25]))
        assert h[0, 0] == 0.0

    def test_exact_integral_identity(self):
        u = rng(1).uniform(-0.9, 0.9, size=(16, 16))
        out = exact_lambda_integral(u, 1.0)
        assert np.max(np.abs(out - 2 * u)) <= 1e-12

    def test_midpoint_quadrature_consistent(self):
        # [DERIVED] the midpoint sum of sgn(u - lam) differs from 2u by at
        # most one lambda cell
        u = rng(2).uniform(-0.9, 0.9, size=(32,))
        lam = lam_midpoints(512)
        dlam = lam[1] - lam[0]
        quad = kinetic_transform(u, lam).sum(axis=-1) * dlam
        assert np.max(np.abs(quad - 2 * u)) <= dlam + 1e-12

    def test_range_violation(self):
        with pytest.raises(DomainError):
            exact_lambda_integral(np.array([1.5]), 1.0)


class TestFluxRegistry:
    def test_burgers_heat_values(self):
        flux = flux_from_name("burgers-heat")
        lam = np.array([0.4])
        f = np.asarray(flux.f(None, lam))[0]
        assert np.max(np.abs(f - np.array([0.08, 0.0]))) <= 1e-14
        B = np.asarray(flux.B(None, lam))[0]
        assert abs(B[1, 1] - 0.4) <= 1e-14
        assert np.max(np.abs(B[np.triu_indices(2)][:2])) == 0.0

    def test_linear_transport(self):
        flux = flux_from_name("linear-transport", d=2, velocity=(3.0, 1.0))
        lam = np.array([0.5, -0.5])
        f = np.asarray(flux.f(None, lam))
        assert np.max(np.abs(f - lam[:, None] * np.array([3.0, 1.0]))) <= 1e-14
        assert np.max(np.abs(np.asarray(flux.B(None, lam)))) == 0.0
        with pytest.raises(DomainError):
            flux_from_name("linear-transport", d=2, velocity=(1.0,))

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            flux_from_name("nope")


class TestFluxPairConstruction:
    def test_asymmetric_diffusion_rejected(self):
        def B(x, lam):
            out = np.zeros(np.shape(lam) + (2, 2))
            out[..., 0, 1] = 1.0
            return out
        with pytest.raises(IntegrityError):
            FluxPair("bad", 2, 1, f=lambda x, l: np.zeros(np.shape(l) + (2,)),
                     B=B, dlam_f=lambda x, l: np.zeros(np.shape(l) + (2,)),
                     dlam_B=lambda x, l: np.zeros(np.shape(l) + (2, 2)))

    def test_diffusion_on_hyperbolic_axis_rejected(self):
        def B(x, lam):
            out = np.zeros(np.shape(lam) + (2, 2))
            out[..., 0, 0] = np.asarray(lam)
            return out
        with pytest.raises(IntegrityError):
            FluxPair("bad", 2, 1, f=lambda x, l: np.zeros(np.shape(l) + (2,)),
                     B=B, dlam_f=lambda x, l: np.zeros(np.shape(l) + (2,)),
                     dlam_B=lambda x, l: np.zeros(np.shape(l) + (2, 2)))

    def test_bad_split(self):
        with pytest.raises(DomainError):
            FluxPair("bad", 2, 3, f=lambda x, l: np.zeros(np.shape(l) + (2,)),
                     B=lambda x, l: np.zeros(np.shape(l) + (2, 2)),
                     dlam_f=lambda x, l: np.zeros(np.shape(l) + (2,)),
                     dlam_B=lambda x, l: np.zeros(np.shape(l) + (2, 2)))


class TestValidateFlux:
    def test_burgers_heat_certificates(self):
        flux = flux_from_name("burgers-heat")
        rep = validate_flux(flux, [-1.0, -0.5, 0.0, 0.5, 1.0])
        # [DERIVED] B~ = lambda: exact monotonicity constant 1; the flux
        # Lipschitz modulus on these samples is max (l1 + l2)/2 = 0.75
        assert abs(rep.ellipticity_constant - 1.0) <= 1e-12
        assert abs(rep.lipschitz_constant - 0.75) <= 1e-12
        d = rep.to_json_dict()
        assert set(d) == {"ellipticity", "lipschitz"}

    def test_hyperbolic_flux_has_no_ellipticity(self):
        flux = flux_from_name("linear-transport", d=2, velocity=(1.0, 1.0))
        rep = validate_flux(flux, [-1.0, 0.0, 1.0])
        assert rep.ellipticity_constant is None
        assert abs(rep.lipschitz_constant - np.sqrt(2.0)) <= 1e-12

    def test_antimonotone_diffusion_fails(self):
        def B(x, lam):
            out = np.zeros(np.shape(lam) + (2, 2))
            out[..., 1, 1] = -np.asarray(lam)
            return out
        flux = FluxPair("bad", 2, 1,
                        f=lambda x, l: np.zeros(np.shape(l) + (2,)),
                        B=B, dlam_f=lambda x, l: np.zeros(np.shape(l) + (2,)),
                        dlam_B=lambda x, l: np.zeros(np.shape(l) + (2, 2)))
        with pytest.raises(IntegrityError):
            validate_flux(flux, [-1.0, 0.0, 1.0])

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            validate_flux(flux_from_name("burgers-heat"), [0.0])

    def test_repeated_samples_rejected(self):
        with pytest.raises(DomainError, match="distinct"):
            validate_flux(flux_from_name("burgers-heat"), [1.0, 1.0, 1.0])

    @staticmethod
    def nan_above_half(nan_f, nan_b):
        """burgers-heat with f_1 (nan_f) or b_22 (nan_b) NaN for lambda > 0.5."""
        def cut(v, lam, on):
            return np.where(np.asarray(lam) > 0.5, np.nan, v) if on else v

        def f(x, lam):
            out = np.zeros(np.shape(lam) + (2,))
            out[..., 0] = cut(np.asarray(lam) ** 2 / 2, lam, nan_f)
            return out

        def B(x, lam):
            out = np.zeros(np.shape(lam) + (2, 2))
            out[..., 1, 1] = cut(np.asarray(lam), lam, nan_b)
            return out

        return FluxPair("nan", 2, 1, f=f, B=B,
                        dlam_f=lambda x, l: np.zeros(np.shape(l) + (2,)),
                        dlam_B=lambda x, l: np.zeros(np.shape(l) + (2, 2)))

    def test_nan_monotonicity_estimate_fails(self):
        with pytest.raises(IntegrityError, match="monotonicity.*c_min = nan"):
            validate_flux(self.nan_above_half(True, True), [-1.0, 0.0, 1.0])

    def test_nan_lipschitz_estimate_fails(self):
        with pytest.raises(IntegrityError, match="Lipschitz estimate nan"):
            validate_flux(self.nan_above_half(True, False), [-1.0, 0.0, 1.0])

    @staticmethod
    def cubic_flux(d, l_split, seed):
        """f = lam f1 + lam^2 f2 + lam^3 f3 and B = lam S + lam^3 T, with S
        and T random, symmetric positive definite on the parabolic block and
        zero off it, so B~ increases with lambda."""
        r = rng(seed)
        f1, f2, f3 = r.standard_normal((3, d))
        S, T = np.zeros((2, d, d))
        for M in (S, T):
            A = r.standard_normal((d - l_split, d - l_split))
            M[l_split:, l_split:] = A @ A.T + np.eye(d - l_split)

        def f(x, lam):
            lam = np.asarray(lam, dtype=float)[..., None]
            return lam * f1 + lam ** 2 * f2 + lam ** 3 * f3

        def B(x, lam):
            lam = np.asarray(lam, dtype=float)[..., None, None]
            return lam * S + lam ** 3 * T

        zero = lambda x, lam: np.zeros(np.shape(lam) + (d,))
        return FluxPair("cubic", d, l_split, f=f, B=B, dlam_f=zero,
                        dlam_B=lambda x, lam: np.zeros(np.shape(lam) + (d, d)))

    @staticmethod
    def pairwise(flux, lams):
        """The two constants from one f and B evaluation per sample of each
        pair l1 > l2, the loop validate_flux replaced (kept as its oracle)."""
        def at(g, lam):
            return np.asarray(g(None, np.asarray([lam])))[0]

        lams = sorted(lams)
        pairs = [(l1, l2) for i, l2 in enumerate(lams) for l1 in lams[i + 1:]]
        s = flux.l_split
        dirs = rng(23).standard_normal((16, flux.d - s))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        c = min(float(np.min(np.einsum("ni,ij,nj->n", dirs,
                                       (at(flux.B, l1) - at(flux.B, l2))[s:, s:], dirs)))
                / (l1 - l2) for l1, l2 in pairs) if s < flux.d else None
        lip = max(float(np.linalg.norm(at(flux.f, l1) - at(flux.f, l2))) / (l1 - l2)
                  for l1, l2 in pairs)
        return c, lip

    @pytest.mark.parametrize("make", [
        lambda: flux_from_name("burgers-heat"),
        lambda: flux_from_name("linear-transport", d=3, velocity=(0.3, -1.7, 2.0)),
        lambda: TestValidateFlux.cubic_flux(3, 1, 5),
        lambda: TestValidateFlux.cubic_flux(4, 2, 6),
        lambda: TestValidateFlux.cubic_flux(2, 0, 7),
    ])
    def test_equals_the_pairwise_loop_from_one_call_each(self, make):
        flux = make()
        calls = []
        for name in ("f", "B"):
            def counted(x, lam, g=getattr(flux, name), name=name):
                calls.append(name)
                return g(x, lam)
            setattr(flux, name, counted)
        r = rng(11)
        for n, scale in [(2, 1.0), (3, 1e-3), (9, 1.0), (12, 1e3)]:
            lams = list(r.standard_normal(n) * scale)
            want = self.pairwise(flux, lams)
            calls.clear()
            rep = validate_flux(flux, lams)
            assert sorted(calls) == (["B", "f"] if want[0] is not None else ["f"])
            assert (rep.ellipticity_constant, rep.lipschitz_constant) == want


class TestUPManifold:
    def test_mesh_on_manifold(self):
        man = UPManifold(2, 1)
        pts = man.mesh(32)
        assert np.max(np.abs(man.constraint_value(pts) - 1.0)) <= 1e-10

    def test_projection_idempotent_and_scaled(self):
        man = UPManifold(3, 1)
        v = np.array([0.7, -0.4, 1.3])
        p = man.project(v)
        assert abs(man.constraint_value(p) - 1.0) <= 1e-12
        assert np.max(np.abs(man.project(p) - p)) <= 1e-12
        # mixed-homogeneity dilation invariance of the projected direction
        t = 5.0
        w = np.concatenate([t ** 2 * v[:1], t * v[1:]])
        assert np.max(np.abs(man.project(w) - p)) <= 1e-12

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            UPManifold(2, 1).project(np.zeros(2))

    def test_bad_split(self):
        with pytest.raises(DomainError):
            UPManifold(2, 5)


class TestUPSymbol:
    def test_burgers_heat_closed_form(self):
        # [DERIVED] 2 pi i xi_1 lambda + 4 pi^2 xi_2^2
        flux = flux_from_name("burgers-heat")
        lam = np.array([0.5])
        v = up_symbol(None, np.array([1.0, 0.0]), lam, flux)[0]
        assert abs(v - 1j * np.pi) <= 1e-12
        v = up_symbol(None, np.array([0.0, 1.0]), lam, flux)[0]
        assert abs(v - 4 * np.pi ** 2) <= 1e-12
        v = up_symbol(None, np.array([0.0, -1.0]), lam, flux)[0]
        assert abs(v - 4 * np.pi ** 2) <= 1e-12

    def test_parity_in_hyperbolic_frequency(self):
        flux = flux_from_name("burgers-heat")
        lam = lam_midpoints(8)
        a = up_symbol(None, np.array([0.6, 0.8]), lam, flux)
        b = up_symbol(None, np.array([-0.6, 0.8]), lam, flux)
        assert np.max(np.abs(a.real - b.real)) <= 1e-12
        assert np.max(np.abs(a.imag + b.imag)) <= 1e-12


class TestUPScan:
    def test_burgers_heat_nondegenerate(self):
        flux = flux_from_name("burgers-heat")
        man = UPManifold(2, 1)
        lam = lam_midpoints(256)
        eps = (0.05, 0.1, 0.2)
        rep = up_nondegeneracy_scan(flux, [0.0], man, lam, eps, resolution=16)
        cell = lam[1] - lam[0]
        # [DERIVED] worst mesh point is purely hyperbolic, |A| = 2 pi
        # |lambda|, giving measure eps / pi
        for e, m in zip(eps, rep.sup_measure):
            assert m <= e / np.pi + 2 * cell
        assert abs(rep.sup_measure[-1] - eps[-1] / np.pi) <= 2 * cell
        assert not rep.degenerate_flag

    def test_degenerate_linear_transport(self):
        flux = flux_from_name("linear-transport", d=2, velocity=(1.0, 1.0))
        man = UPManifold(2, 2)
        rep = up_nondegeneracy_scan(flux, [0.0], man, lam_midpoints(64),
                                    (0.01, 0.05), resolution=16)
        # the mesh direction with xi_1 + xi_2 = 0 annihilates the symbol
        # for every lambda at once
        assert rep.degenerate_flag
        assert rep.sup_measure[0] >= 0.99 * rep.p_domain_measure

    def test_lambda_grid_validation(self):
        flux = flux_from_name("burgers-heat")
        with pytest.raises(DomainError):
            up_nondegeneracy_scan(flux, [0.0], UPManifold(2, 1),
                                  np.array([0.0]), (0.1,))


class TestTestFunctions:
    def test_bump_derivatives_match_finite_differences(self):
        g = SpectralGrid((256, 256), (1.0, 1.0))
        phi = bump_test_function(g, (0.5, 0.5), (0.2, 0.3))
        h = 1.0 / 256
        for ax in (0, 1):
            fd = (np.roll(phi.values, -1, axis=ax)
                  - np.roll(phi.values, 1, axis=ax)) / (2 * h)
            err = np.max(np.abs(fd - phi.gradient[..., ax]))
            assert err <= 5e-3 * np.max(np.abs(phi.gradient))
            fd2 = (np.roll(phi.gradient[..., ax], -1, axis=ax)
                   - np.roll(phi.gradient[..., ax], 1, axis=ax)) / (2 * h)
            err2 = np.max(np.abs(fd2 - phi.hessian[..., ax, ax]))
            assert err2 <= 5e-2 * np.max(np.abs(phi.hessian))

    def test_bump_nonnegative_and_compact(self):
        g = SpectralGrid((64, 64), (1.0, 1.0))
        phi = bump_test_function(g, (0.5, 0.5), (0.2, 0.2))
        assert np.min(phi.values) >= 0
        assert phi.values[0, 0] == 0.0

    def test_spline_gradient_matches_finite_differences(self):
        g = SpectralGrid((256, 256), (1.0, 1.0))
        phi = spline_test_function(g, (0.25, 0.25), (0.125, 0.125))
        h = 1.0 / 256
        fd = (np.roll(phi.values, -1, axis=0)
              - np.roll(phi.values, 1, axis=0)) / (2 * h)
        # the centred difference is only first-order at the knot lines,
        # where the spline's second derivative jumps
        assert np.max(np.abs(fd - phi.gradient[..., 0])) \
            <= 3e-2 * np.max(np.abs(phi.gradient))
        assert phi.hessian is None


def stationary_wave_field(grid):
    """u = 0.5 sin(2 pi (x1 - 3 x2)) is constant along (3, 1), hence a
    stationary solution of transport with that velocity."""
    x1, x2 = grid.coordinates()
    return SpectralField(grid, 0.5 * np.sin(2 * np.pi * (x1 - 3 * x2))
                         * np.ones(grid.shape))


def burgers_x2_flux():
    """Inviscid flux f = (lambda, lambda^2 / 2): linear drift in x1 and a
    Burgers nonlinearity along x2."""
    def f(x, lam):
        lam = np.asarray(lam, dtype=float)
        out = np.zeros(lam.shape + (2,))
        out[..., 0] = lam
        out[..., 1] = lam ** 2 / 2
        return out
    return FluxPair("burgers-x2", 2, 2, f=f,
                    B=lambda x, l: np.zeros(np.shape(l) + (2, 2)),
                    dlam_f=lambda x, l: np.stack(
                        [np.ones_like(np.asarray(l, dtype=float)),
                         np.asarray(l, dtype=float)], axis=-1),
                    dlam_B=lambda x, l: np.zeros(np.shape(l) + (2, 2)))


def jump_field(grid, lower, upper):
    x2 = grid.coord_axis(1)
    vals = np.where(x2 < 0.5, lower, upper)[None, :] * np.ones(grid.n_per_axis)
    return SpectralField(grid, vals)


class TestEntropyResidual:
    def test_constant_solution_vanishes(self):
        g = SpectralGrid((64, 64), (1.0, 1.0))
        flux = flux_from_name("linear-transport", d=2, velocity=(3.0, 1.0))
        u = SpectralField(g, np.full(g.shape, 0.3))
        phi = spline_test_function(g, (0.25, 0.25), (0.125, 0.125))
        r = entropy_residual(u, 0.1, flux, phi)
        assert abs(r) <= 1e-12

    def test_smooth_solution_second_order(self):
        # [DERIVED] on a stationary wave the residual is a divergence, so
        # its exact value is 0; with the entropy level above the solution
        # range the only quadrature error comes from the lattice-aligned
        # curvature jumps of the C^1 spline, and doubling the grid divides
        # it by ~4
        flux = flux_from_name("linear-transport", d=2, velocity=(3.0, 1.0))
        res = []
        for n in (32, 64, 128):
            g = SpectralGrid((n, n), (1.0, 1.0))
            u = stationary_wave_field(g)
            phi = spline_test_function(g, (0.25, 0.25), (0.125, 0.125))
            res.append(abs(entropy_residual(u, 0.7, flux, phi)))
        ratios = [b / a for a, b in zip(res, res[1:])]
        for r in ratios:
            assert 0.2 <= r <= 0.8

    def test_entropy_shock_nonpositive(self):
        g = SpectralGrid((128, 128), (1.0, 1.0))
        u = jump_field(g, 1.0, -1.0)  # admissible: u drops across x2 = 0.5
        phi = bump_test_function(g, (0.5, 0.5), (0.2, 0.2))
        r = entropy_residual(u, 0.0, burgers_x2_flux(), phi)
        assert r <= 1e-10

    def test_anti_entropy_shock_positive(self):
        g = SpectralGrid((128, 128), (1.0, 1.0))
        u = jump_field(g, -1.0, 1.0)  # inadmissible rising jump
        phi = bump_test_function(g, (0.5, 0.5), (0.2, 0.2))
        r = entropy_residual(u, 0.0, burgers_x2_flux(), phi)
        assert r >= 0.05

    def test_linearity_in_test_function(self):
        g = SpectralGrid((64, 64), (1.0, 1.0))
        u = jump_field(g, -1.0, 1.0)
        phi = bump_test_function(g, (0.5, 0.5), (0.2, 0.2))
        phi2 = bump_test_function(g, (0.5, 0.5), (0.2, 0.2))
        phi2.values = 2.0 * phi2.values
        phi2.gradient = 2.0 * phi2.gradient
        phi2.hessian = 2.0 * phi2.hessian
        r1 = entropy_residual(u, 0.0, burgers_x2_flux(), phi)
        r2 = entropy_residual(u, 0.0, burgers_x2_flux(), phi2)
        assert abs(r2 - 2.0 * r1) <= 1e-12 * max(1.0, abs(r1))

    def test_negative_test_function_rejected(self):
        g = SpectralGrid((32, 32), (1.0, 1.0))
        u = jump_field(g, -1.0, 1.0)
        phi = bump_test_function(g, (0.5, 0.5), (0.2, 0.2))
        phi.values = phi.values - 0.5
        with pytest.raises(DomainError):
            entropy_residual(u, 0.0, burgers_x2_flux(), phi)

    def test_diffusive_flux_needs_hessian(self):
        g = SpectralGrid((32, 32), (1.0, 1.0))
        u = jump_field(g, -0.5, 0.5)
        phi = spline_test_function(g, (0.25, 0.25), (0.125, 0.125))
        with pytest.raises(DomainError):
            entropy_residual(u, 0.0, flux_from_name("burgers-heat"), phi)
