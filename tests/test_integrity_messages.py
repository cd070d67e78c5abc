"""Integrity failures state the measured value and the tolerance."""

import numpy as np
import pytest

from hpm.errors import IntegrityError
from hpm.hmeasure import MatrixMeasure
from hpm.kinetic import FluxPair, validate_flux


def measure(x_cells=2, p_cells=4):
    """A consistent rank-one 2x2 matrix measure, c c^* per cell."""
    C, B = x_cells ** 2, p_cells
    mass = np.linspace(1.0, 2.0, C * B).reshape(C, B)
    c = np.array([1.0, 0.5j])
    entries = (c[:, None, None, None] * np.conj(c)[None, :, None, None]) * mass
    trace = 0.5 * entries[0, 0].real + 0.25 * entries[1, 1].real
    return MatrixMeasure(2, entries, np.zeros(entries.shape), trace,
                         trace.sum(axis=-1))


class TestMatrixMeasure:
    def test_consistent_measure_passes(self):
        measure().check_integrity()

    def test_negative_diagonal(self):
        M = measure()
        M.entries[1, 1, 0, 2] = -3e-6
        with pytest.raises(IntegrityError, match=r"negative diagonal cell measure: "
                           r"minimum -3\.000e-06 below -1\.0e-10"):
            M.check_integrity()

    def test_hermitian_defect(self):
        M = measure()
        M.entries[0, 1, 1, 1] += 0.25
        # max|mu| is the diagonal mass 2.0 of the last cell
        with pytest.raises(IntegrityError, match=r"hermitian symmetry: defect "
                           r"2\.500e-01 above 1\.0e-10 x max\|mu\| = 2\.000e-10"):
            M.check_integrity()

    def test_cauchy_schwarz(self):
        M = measure()
        # sqrt(mu_00 mu_11) is 0.5 in the first cell
        M.entries[0, 1, 0, 0] = M.entries[1, 0, 0, 0] = 0.75
        with pytest.raises(IntegrityError, match=r"Cauchy-Schwarz bound violated: "
                           r"\|mu_ij\| exceeds sqrt\(mu_ii mu_jj\) by 2\.500e-01, "
                           r"slack 1\.0e-09"):
            M.check_integrity()

    def test_tolerances_unchanged(self):
        M = measure()
        M.entries[0, 1, 0, 0] = M.entries[1, 0, 0, 0] = 0.0
        M.entries[1, 1, 0, 0] = -0.9e-10  # within diag_tol
        M.check_integrity()
        with pytest.raises(IntegrityError, match=r"below -1\.0e-11"):
            M.check_integrity(diag_tol=1e-11)


def flux(B=None, f=None, l_split=1):
    """A 2-d flux pair with zero derivatives."""
    def zeros(*tail):
        return lambda x, lam: np.zeros(np.shape(lam) + tail)
    return FluxPair("probe", 2, l_split, f=f or zeros(2), B=B or zeros(2, 2),
                    dlam_f=zeros(2), dlam_B=zeros(2, 2))


def diffusion(entries):
    """B(x, lam) with the given (j, k) -> callable(lam) entries."""
    def B(x, lam):
        out = np.zeros(np.shape(lam) + (2, 2))
        for (j, k), c in entries.items():
            out[..., j, k] = c(np.asarray(lam))
        return out
    return B


class TestKineticChecks:
    def test_asymmetric_diffusion(self):
        with pytest.raises(IntegrityError, match=r"diffusion matrix B is not "
                           r"symmetric: asymmetry 2\.500e-09 above 1\.0e-12"):
            flux(B=diffusion({(1, 1): lambda s: s, (0, 1): lambda s: 2.5e-9 + 0 * s,
                              (1, 0): lambda s: 0 * s}))

    def test_symmetry_tolerance_unchanged(self):
        # two parabolic axes: an asymmetry of exactly 1e-12 still passes
        B = diffusion({(0, 0): lambda s: s, (1, 1): lambda s: s,
                       (1, 0): lambda s: 0 * s + 1e-12})
        flux(B=B, l_split=0)

    def test_diffusion_on_hyperbolic_axes(self):
        # b_01 = b_10 = 0.3 is the largest entry outside the parabolic block
        with pytest.raises(IntegrityError, match=r"diffusion must vanish on the "
                           r"hyperbolic axes: largest entry \|b_jk\| = 3\.000e-01 "
                           r"at axes j = 0, k = 1, above 0"):
            flux(B=diffusion({(0, 0): lambda s: 0.1 * s, (1, 1): lambda s: s,
                              (0, 1): lambda s: s, (1, 0): lambda s: s}))

    def test_monotonicity(self):
        # B~ = -2 lam: every difference quotient is exactly -2
        bad = flux(B=diffusion({(1, 1): lambda s: -2.0 * s}))
        with pytest.raises(IntegrityError, match=r"parabolic block fails the "
                           r"monotonicity bound: c_min = -2\.000e\+00, not above 0"):
            validate_flux(bad, [-1.0, 0.0, 1.0])

    def test_uniform_continuity(self):
        def f(x, lam):
            lam = np.asarray(lam, dtype=float)
            out = np.zeros(lam.shape + (2,))
            out[..., 0] = np.where(lam > 0.5, np.inf, lam)
            return out
        with pytest.raises(IntegrityError, match=r"flux fails the "
                           r"uniform-continuity bound: Lipschitz estimate inf "
                           r"is not finite"):
            validate_flux(flux(B=diffusion({(1, 1): lambda s: s}), f=f),
                          [-1.0, 0.0, 1.0])
