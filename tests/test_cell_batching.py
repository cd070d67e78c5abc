"""The cell discretization against the dense formulas it replaced: cell
forms batched over chunks of cells, bit for bit one GEMM per cell,
separable x-hats, and P-masks evaluated only where they can be nonzero,
or built in blocks, stored as the GEMM's own (S, B) operand; and the
traced working memory of the assembly."""

import math
import tracemalloc

import numpy as np
import pytest

from hpm import cli, hmeasure
from hpm.anisotropy import AnisotropyProfile, project_lattice, project_to_P
from hpm.hmeasure import (
    OscillationSequence,
    _periodic_hat,
    _shifted_products,
    _snapshot_products,
    _stacked_forms,
    cosine_velocity_basis,
    make_cell_basis,
    scalar_hmeasure,
)
from hpm.spectral import SpectralGrid, band_limited_field
from test_cell_forms import einsum_forms, snapshot_forms


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


def dense_hats(grid, x_cells):
    """The dense (C, *spatial) hat stack, normalized over all cells at once."""
    d = grid.d
    hats = None
    for k in range(d):
        L = grid.length_per_axis[k]
        spacing = L / x_cells
        dist = grid.coord_axis(k)[None, :] - (np.arange(x_cells) * spacing)[:, None]
        dist = (dist + L / 2) % L - L / 2
        shaped = _periodic_hat(dist, spacing).reshape((x_cells,) + tuple(
            grid.n_per_axis[k] if j == k else 1 for j in range(d)))
        if hats is None:
            hats = shaped
        else:
            hats = hats[:, None] * shaped[None, :]
            hats = hats.reshape((-1,) + hats.shape[2:])
    return hats / np.sqrt(np.sum(hats ** 2, axis=0, keepdims=True))


def dense_masks(grid, profile, p_cells):
    """Every P-mask evaluated at every lattice point."""
    d = grid.d
    xi = grid.frequency_vectors()
    nonzero = ~np.all(xi == 0, axis=-1)
    proj = project_lattice(xi, profile)
    if d == 2:
        ang = np.arctan2(proj[..., 1], proj[..., 0]) % (2 * np.pi)
        spacing = 2 * np.pi / p_cells
        cang = np.arange(p_cells) * spacing
        dist = ang[None, ...] - cang.reshape((p_cells,) + (1,) * ang.ndim)
        dist = (dist + np.pi) % (2 * np.pi) - np.pi
        masks = _periodic_hat(dist, spacing)
    else:
        gen = np.random.Generator(np.random.Philox(key=11))
        dirs = gen.standard_normal((p_cells, d))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        p_centers = project_to_P(dirs, profile)
        sigma = 1.5 * (4.0 / p_cells) ** (1.0 / max(1, d - 1))
        d2 = np.sum((proj[None, ...] - p_centers.reshape(
            (p_cells,) + (1,) * (proj.ndim - 1) + (d,))) ** 2, axis=-1)
        g = np.exp(-d2 / (2 * sigma ** 2))
        masks = g / np.sum(g, axis=0, keepdims=True)
    return masks * nonzero[None, ...]


# --- batched cell forms -------------------------------------------------------

def scalar_case(d, x_cells):
    n = (32, 32) if d == 2 else (8, 8, 8)
    alpha = (1.0, 2.0) if d == 2 else (1.0, 1.0, 2.0)
    grid = SpectralGrid(n, (1.0,) * d)
    basis = make_cell_basis(grid, AnisotropyProfile(alpha), x_cells, 8)
    return grid, basis, [band_limited_field(grid, rng(d), band_fraction=0.5).values]


def matrix_case(N, x_cells, p_cells):
    grid = SpectralGrid((16, 16), (1.0, 1.0), n_velocity=(32,),
                        velocity_length=(2.0,))
    u = band_limited_field(grid, rng(3), band_fraction=0.5)
    vel = cosine_velocity_basis(grid, N)
    dv = grid.velocity_cell_volume
    comps = [np.tensordot(np.asarray(u.values), vel[i], axes=([2], [0])) * dv
             for i in range(N)]
    basis = make_cell_basis(grid.spatial_only(), AnisotropyProfile((1.0, 1.0)),
                            x_cells, p_cells)
    return grid.spatial_only(), basis, comps


# C cells of R = N^2 rows in stacks of k = max(1, min(C // R, B // (2R)))
# cells, at most B / 2 = 4 rows for B = 8 P-cells: stacks of 4 cells with a
# last one of 1 (scalar-2d-C9), of 4 with a last one of 3 (scalar-3d-C27),
# one cell of 4 rows per stack, above B / 2 (matrix-N2-C9, matrix-N2-C4)
CASES = {"scalar-2d-C9": lambda: scalar_case(2, 3),
         "scalar-3d-C27": lambda: scalar_case(3, 3),
         "matrix-N2-C9": lambda: matrix_case(2, 3, 8),
         "matrix-N2-C4": lambda: matrix_case(2, 2, 8)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_forms_match_einsum_reference(case):
    grid, basis, comps = CASES[case]()
    V = snapshot_forms(grid, basis, comps)
    ref = einsum_forms(grid, basis, comps)
    assert V.shape == ref.shape
    assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case, k", [("scalar-2d-C9", 4), ("scalar-3d-C27", 4),
                                     ("matrix-N2-C9", 1), ("matrix-N2-C4", 1)])
def test_stack_holds_k_cells(case, k):
    """The row writer is handed k distinct stack slots, one per cell of a
    stack."""
    grid, basis, comps = CASES[case]()
    N = len(comps)
    inner = _snapshot_products(basis, grid, np.stack(comps)[None])
    slots = []

    def rows(cell, re, im):
        slots.append(re.__array_interface__["data"][0])
        inner(cell, re, im)

    _stacked_forms(basis, grid, rows, N * N, N > 1)
    assert len(slots) == len(list(basis.cell_indices()))
    assert len(set(slots)) == k


@pytest.mark.parametrize("case", ["scalar-2d-C9", "scalar-3d-C27"])
def test_batched_scalar_forms_are_real(case):
    grid, basis, comps = CASES[case]()
    assert np.all(snapshot_forms(grid, basis, comps).imag == 0.0)


def shifted_case(n, alpha, c, x_cells, p_cells):
    """The CLI's scalar measure: the shift-rule rows of n = 2, 3, 4 (R = 3)
    of the CLI's envelope at Philox key 7."""
    grid = SpectralGrid(n, (1.0,) * len(n))
    profile = AnisotropyProfile(alpha)
    seq = OscillationSequence(profile, c,
                              cli._envelope_spectrum(grid, rng(7), 0.15, 1.0))
    basis = make_cell_basis(grid, profile, x_cells, p_cells)
    return grid, basis, lambda: _shifted_products(seq, basis, [2, 3, 4]), 3, False


def matrix_gemm_case():
    grid, basis, comps = matrix_case(2, 3, 16)
    W = np.stack(comps)[None]
    return grid, basis, lambda: _snapshot_products(basis, grid, W), 4, True


# k = min(C // R, B // (2R)) >= 2 cells a stack: 4 with a last stack of 1
# (2-d, 32^2, C = 25) and of 3 (3-d, 8^3, C = 27), 3 (2-d, 128^2, C = 9),
# 2 cells of R = 4 rows with a last stack of 1 (matrix, C = 9).  OpenBLAS
# with SkylakeX kernels sends a product of M N K <= 10^6 to small-matrix
# kernels whose summation order differs from the blocked GEMM's; the
# 128^2 case puts every call above that size, the others every call below.
GEMM_CASES = {
    "scalar-2d-32": lambda: shifted_case((32, 32), (1.0, 2.0), (1.0, 0.5), 5, 24),
    "scalar-3d-8": lambda: shifted_case((8, 8, 8), (1.0, 1.0, 2.0),
                                        (1.0, 0.0, 0.5), 3, 24),
    "scalar-2d-128": lambda: shifted_case((128, 128), (1.0, 1.0), (1.0, 0.0), 3, 24),
    "matrix-N2": matrix_gemm_case,
}


@pytest.mark.parametrize("case", sorted(GEMM_CASES))
def test_stacked_forms_equal_one_gemm_per_cell(case):
    """The forms of a stack of cells are bit for bit those of one GEMM per
    cell, so the stack rule can change without changing a bit."""
    grid, basis, make_rows, R, imag = GEMM_CASES[case]()
    V = _stacked_forms(basis, grid, make_rows(), R, imag)
    B = basis.p_masks.shape[0]
    masks_t = basis.p_masks.reshape(B, -1).T
    vol = grid.freq_cell_volume
    rows = make_rows()
    re = np.empty((R, masks_t.shape[0]))
    im = np.empty_like(re) if imag else None
    for c, cell in enumerate(basis.cell_indices()):
        rows(cell, re, im)
        assert np.array_equal(V[c].real, re @ masks_t * vol)
        assert np.array_equal(V[c].imag,
                              im @ masks_t * vol if imag else np.zeros((R, B)))


# --- separable hats -----------------------------------------------------------

@pytest.mark.parametrize("n, x_cells", [((64, 32), 4), ((8, 16, 8), 3), ((32,), 5)])
def test_separable_hats_match_dense_normalization(n, x_cells):
    grid = SpectralGrid(n, tuple(1.0 + 0.5 * k for k in range(len(n))))
    cb = make_cell_basis(grid, AnisotropyProfile((1.0,) * len(n)), x_cells, 4)
    hats = np.stack([cb.x_hat(cell) for cell in cb.cell_indices()])
    ref = dense_hats(grid, x_cells)
    assert hats.shape == ref.shape == (x_cells ** len(n),) + n
    assert np.max(np.abs(hats - ref)) <= 1e-15
    assert np.max(np.abs(np.sum(hats ** 2, axis=0) - 1.0)) <= 1e-14


# --- P-masks ------------------------------------------------------------------

@pytest.mark.parametrize("n, alpha", [((64, 32), (1.0, 2.0)),
                                      ((8, 16, 8), (1.0, 1.0, 2.0))])
def test_gemm_operand_is_the_masks_storage(n, alpha):
    """The (S, B) operand the cell forms read is the masks' own storage,
    C-contiguous, not a copy."""
    grid = SpectralGrid(n, (1.0,) * len(n))
    basis = make_cell_basis(grid, AnisotropyProfile(alpha), 2, 5)
    masks_t = basis.p_masks.reshape(5, -1).T
    assert masks_t.shape == (math.prod(n), 5)
    assert masks_t.flags.c_contiguous
    assert np.shares_memory(masks_t, basis.p_masks)


@pytest.mark.parametrize("n, alpha, p_cells", [
    ((256, 256), (1.0, 1.0), 16),      # the 2-d benchmark grid
    ((32, 32, 32), (1.0, 1.0, 2.0), 24),  # the 3-d benchmark grid
    ((64, 32), (1.0, 2.0), 5),
    ((32, 32), (2.0, 1.0), 1),
    ((32, 32), (2.0, 1.0), 2),
    ((32, 32), (2.0, 1.0), 3),
    ((8, 8, 8), (1.0, 2.0, 3.0), 5),
])
def test_masks_bitwise_equal_to_dense_formulas(n, alpha, p_cells):
    grid = SpectralGrid(n, (1.0,) * len(n))
    profile = AnisotropyProfile(alpha)
    cb = make_cell_basis(grid, profile, 2, p_cells)
    assert np.array_equal(cb.p_masks, dense_masks(grid, profile, p_cells))


@pytest.mark.parametrize("budget", [1, 3 * 8 * 16 ** 3, 1 << 30])
def test_mask_blocks_bitwise_equal_to_dense_formulas(monkeypatch, budget):
    """Blocks of 2 lattice points (the least width) overlapping at the end,
    of 614 points with a last one overlapping the one before it (20
    P-cells, 4,095 points off xi = 0), and one block of all points give
    the same bits."""
    monkeypatch.setattr(hmeasure, "_SCRATCH_BYTES", budget)
    grid = SpectralGrid((16, 16, 16), (1.0, 1.0, 1.0))
    profile = AnisotropyProfile((1.0, 1.0, 2.0))
    cb = make_cell_basis(grid, profile, 2, 20)
    assert np.array_equal(cb.p_masks, dense_masks(grid, profile, 20))


# --- working memory -----------------------------------------------------------

MiB = 1 << 20


def traced_peak(fn):
    """fn() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assembly_working_memory():
    """On the two benchmark configs (256^2, alpha = (1, 1), 4^2 x-cells, 16
    P-cells, n_list [8, 16, 24, 32]; 32^3, alpha = (1, 1, 2), 4^3 x-cells,
    24 P-cells, n_list [4, 6, 8]; the CLI's envelope at Philox key 7), the
    basis holds one (S, B) array, the masks, and the measure adds about
    one stack of the cell forms: k = max(1, min(C // R, B // (2R))) cells
    of R rows, at most B / 2 rows (8 on 256^2, 12 on 32^3)."""
    for n, alpha, c, B, n_list in [
            ((256, 256), (1.0, 1.0), (1.0, 0.0), 16, [8, 16, 24, 32]),
            ((32, 32, 32), (1.0, 1.0, 2.0), (1.0, 0.0, 0.5), 24, [4, 6, 8])]:
        grid = SpectralGrid(n, (1.0,) * len(n))
        profile = AnisotropyProfile(alpha)
        seq = OscillationSequence(profile, c,
                                  cli._envelope_spectrum(grid, rng(7), 0.15, 1.0))
        S, C, R = math.prod(n), 4 ** len(n), len(n_list)
        masks = B * S * 8
        basis, peak = traced_peak(lambda: make_cell_basis(grid, profile, 4, B))
        assert basis.p_masks.nbytes == masks
        assert peak <= masks + 2 * MiB
        stack = max(1, min(C // R, B // (2 * R))) * R * S * 8
        est, peak = traced_peak(lambda: scalar_hmeasure(seq, profile, grid, n_list, 4, B))
        assert est.cells.shape == (C, B)
        assert peak <= masks + 2 * MiB + stack + 4 * MiB
