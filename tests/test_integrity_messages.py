"""Integrity failures state the measured value and the tolerance."""

import numpy as np
import pytest

from hpm.anisotropy import AnisotropyProfile
from hpm.errors import IntegrityError
from hpm.hmeasure import MatrixMeasure, make_cell_basis, marginal_density_check
from hpm.spectral import SpectralGrid

ISO2 = AnisotropyProfile((1.0, 1.0))


def measure(x_cells=2, p_cells=4):
    """A consistent rank-one 2x2 matrix measure, c c^* per cell."""
    cb = make_cell_basis(SpectralGrid((8, 8), (1.0, 1.0)), ISO2, x_cells, p_cells)
    C, B = x_cells ** 2, p_cells
    mass = np.linspace(1.0, 2.0, C * B).reshape(C, B)
    c = np.array([1.0, 0.5j])
    entries = (c[:, None, None, None] * np.conj(c)[None, :, None, None]) * mass
    trace = 0.5 * entries[0, 0].real + 0.25 * entries[1, 1].real
    return MatrixMeasure(2, entries, np.zeros(entries.shape), trace,
                         trace.sum(axis=-1), cb)


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


class TestMarginalDensity:
    def test_negative_trace_mass(self):
        ms = [measure(2), measure(4)]
        ms[1].trace[3, 1] = -2e-3
        with pytest.raises(IntegrityError, match=r"negative conditional cell mass "
                           r"in the trace: minimum -2\.000e-03 below -1\.0e-09"):
            marginal_density_check(ms, r_prime=2.0)

    def test_trace_sum_mismatch(self):
        ms = [measure(2), measure(4)]
        ms[0].marginal[1] += 5e-9
        with pytest.raises(IntegrityError, match=r"trace masses do not sum to the "
                           r"marginal: gap 5\.000e-09 above 1\.0e-12"):
            marginal_density_check(ms, r_prime=2.0)
