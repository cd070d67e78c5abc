"""Cellwise forms of the H-measure estimators against the batched
complex contraction they replaced."""

import numpy as np
import pytest

from hpm.anisotropy import AnisotropyProfile
from hpm.hmeasure import (
    _snapshot_products,
    _stacked_forms,
    cosine_velocity_basis,
    make_cell_basis,
)
from hpm.spectral import (
    SpectralField,
    SpectralGrid,
    band_limited_field,
    forward_dft,
)


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


def einsum_forms(grid, basis, components):
    """The reference: one complex einsum over masks, G and conj(G) per cell."""
    hats = np.stack([basis.x_hat(cell) for cell in basis.cell_indices()])
    C, B = hats.shape[0], basis.p_masks.shape[0]
    N = len(components)
    masks = basis.p_masks.reshape(B, -1)
    V = np.empty((N, N, C, B), dtype=complex)
    for c in range(C):
        G = np.stack([forward_dft(SpectralField(
            grid.spatial_only(), hats[c] * w)).values.ravel()
            for w in components])
        V[:, :, c, :] = np.einsum("bs,is,js->ijb", masks, G, np.conj(G),
                                  optimize=True) * grid.freq_cell_volume
    return V


def snapshot_forms(grid, basis, components):
    """The (N, N, C, B) forms of one snapshot of the components
    [w_1, ..., w_N], through the snapshot row writer ([u]: the scalar
    case, real)."""
    N = len(components)
    rows = _snapshot_products(basis, grid, np.stack(components)[None])
    V = _stacked_forms(basis, grid, rows, N * N, N > 1)
    return np.moveaxis(V.reshape(len(V), N, N, -1), 0, 2)


def scalar_case(d):
    n = (32, 32) if d == 2 else (8, 8, 8)
    alpha = (1.0, 2.0) if d == 2 else (1.0, 1.0, 2.0)
    grid = SpectralGrid(n, (1.0,) * d)
    basis = make_cell_basis(grid, AnisotropyProfile(alpha), 2, 8)
    return grid, basis, [band_limited_field(grid, rng(d), band_fraction=0.5).values]


def matrix_case():
    grid = SpectralGrid((16, 16), (1.0, 1.0), n_velocity=(32,),
                        velocity_length=(2.0,))
    u = band_limited_field(grid, rng(3), band_fraction=0.5)
    vel = cosine_velocity_basis(grid, 3)
    dv = grid.velocity_cell_volume
    comps = [np.tensordot(np.asarray(u.values), vel[i], axes=([2], [0])) * dv
             for i in range(3)]
    basis = make_cell_basis(grid.spatial_only(), AnisotropyProfile((1.0, 1.0)), 2, 8)
    return grid.spatial_only(), basis, comps


CASES = {"scalar-2d": lambda: scalar_case(2), "scalar-3d": lambda: scalar_case(3),
         "matrix-N3": matrix_case}


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_einsum_reference(case):
    grid, basis, comps = CASES[case]()
    V = snapshot_forms(grid, basis, comps)
    ref = einsum_forms(grid, basis, comps)
    assert V.shape == ref.shape
    assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ["scalar-2d", "scalar-3d"])
def test_scalar_forms_are_real(case):
    grid, basis, comps = CASES[case]()
    V = snapshot_forms(grid, basis, comps)
    assert V.shape[:2] == (1, 1)
    assert np.all(V.imag == 0.0)


@pytest.mark.parametrize("case", sorted(CASES))
def test_forms_are_hermitian(case):
    grid, basis, comps = CASES[case]()
    V = snapshot_forms(grid, basis, comps)
    gap = np.abs(V - np.conj(np.swapaxes(V, 0, 1)))
    assert np.max(gap) <= 1e-14 * np.max(np.abs(V))


def test_snapshot_stack_matches_einsum_reference_per_snapshot():
    # K = 3 snapshots of N = 2 components on C = 4 cells: R = 12 rows per
    # cell exceed C, so each GEMM holds the rows of one cell
    grid = SpectralGrid((16, 16), (1.0, 1.0), n_velocity=(32,),
                        velocity_length=(2.0,))
    vel = cosine_velocity_basis(grid, 2)
    dv = grid.velocity_cell_volume
    fields = [band_limited_field(grid, rng(key), band_fraction=0.5).values
              for key in (4, 5, 6)]
    W = np.stack([np.tensordot(vel, u, axes=([1], [2])) for u in fields]) * dv
    xgrid = grid.spatial_only()
    basis = make_cell_basis(xgrid, AnisotropyProfile((1.0, 1.0)), 2, 8)
    V = _stacked_forms(basis, xgrid, _snapshot_products(basis, xgrid, W), 12, True)
    assert V.shape == (4, 12, 8)
    V = np.moveaxis(V.reshape(4, 3, 2, 2, 8), 0, 3)
    for k in range(3):
        ref = einsum_forms(xgrid, basis, list(W[k]))
        assert np.max(np.abs(V[k] - ref)) <= 1e-12 * np.max(np.abs(ref))
