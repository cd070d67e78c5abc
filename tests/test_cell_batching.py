"""The cell discretization against the dense formulas it replaced: cell
forms batched over chunks of cells, bit for bit one GEMM per cell,
shift-rule rows written slab by slab, separable x-hats, and P-masks
evaluated only where they can be nonzero, or built in blocks, stored as
the GEMM's own (S, B) operand; and the traced working memory of the
assembly."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from hpm import cli, hmeasure, spectral
from hpm.anisotropy import AnisotropyProfile, project_lattice, project_to_P
from hpm.hmeasure import (
    OscillationSequence,
    _periodic_hat,
    _shifted_products,
    _snapshot_products,
    _stacked_forms,
    _write_products,
    cosine_velocity_basis,
    make_cell_basis,
    scalar_hmeasure,
)
from hpm.spectral import SpectralGrid, band_limited_field, dft_axis
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
    if p_cells == 1:  # all of P
        masks = np.ones((1,) + nonzero.shape)
    elif d == 2:
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
# one cell of 4 rows per stack, above B / 2 (matrix-N2-C9, matrix-N2-C4);
# the cap of _STACK_BYTES = 3 MiB of rows binds on none of these
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
# The cap of _STACK_BYTES = 3 MiB of rows binds on none of these.
GEMM_CASES = {
    "scalar-2d-32": lambda: shifted_case((32, 32), (1.0, 2.0), (1.0, 0.5), 5, 24),
    "scalar-3d-8": lambda: shifted_case((8, 8, 8), (1.0, 1.0, 2.0),
                                        (1.0, 0.0, 0.5), 3, 24),
    "scalar-2d-128": lambda: shifted_case((128, 128), (1.0, 1.0), (1.0, 0.0), 3, 24),
    "matrix-N2": matrix_gemm_case,
}


def shifts_and_means(seq, n_list):
    """The shifts s(n) and the means m_n of the shift rule."""
    grid = seq.physical.grid
    shifts = [hmeasure._lattice_shift(seq.profile, seq.c, n, grid) for n in n_list]
    means = [hmeasure._band_value(seq.spectrum, [-s % nk for s, nk in zip(
        shift, grid.n_per_axis)]) / math.prod(grid.length_per_axis) for shift in shifts]
    return shifts, means


def full_grid_rows(seq, basis, n_list):
    """The (C, R, S) shift-rule rows by the full-grid formulas the slab
    writer replaced: the power |G|^2 = G.real^2 + G.imag^2 of G =
    roll(F(hat_c v), s(n)), minus m_n F(hat_c) as one outer product over
    the grid where m_n != 0."""
    grid = seq.physical.grid
    shifts, means = shifts_and_means(seq, n_list)
    hat_spectra = [dft_axis(f, 1, L)
                   for f, L in zip(basis.x_factors, grid.length_per_axis)]
    transform = hmeasure._hat_passes(basis, grid, np.asarray(seq.physical.values))
    out = []
    for cell in basis.cell_indices():
        Fhv = transform(cell)
        h = [hk[i] for hk, i in zip(hat_spectra, cell)]
        for shift, mean in zip(shifts, means):
            G = np.roll(Fhv, shift, axis=tuple(range(grid.d)))
            if mean != 0:
                G = functools.reduce(np.multiply.outer, h, -mean) + G
            out.append((G.real * G.real + G.imag * G.imag).ravel())
    return np.reshape(out, (-1, len(n_list), math.prod(grid.n_per_axis)))


# (n, alpha, c, band_fraction, n_list, which m_n are 0).  The envelope's box
# reaches max(1, int(band_fraction n_k / 2)) lattice points from 0 on each
# axis, and m_n = 0 exactly where -kappa(n) lies outside it.
ROW_CASES = {
    "2d-mixed-one-zero": ((32, 32), (1.0, 1.0), (1.0, 0.0), 0.15, (1, 2, 3),
                          [False, False, True]),
    "2d-mixed-several-zero": ((32, 32), (1.0, 1.0), (1.0, 0.0), 0.15, (2, 3, 5, 7),
                              [False, True, True, True]),
    "2d-all-zero": ((32, 32), (1.0, 1.0), (1.0, 0.0), 0.15, (3, 4, 5),
                    [True, True, True]),
    "2d-all-nonzero": ((32, 32), (1.0, 1.0), (1.0, 0.0), 0.5, (2, 3, 4),
                       [False, False, False]),
    # shifts on both axes of a non-square grid: 4 roll blocks a row
    "2d-both-axes": ((32, 16), (1.0, 1.0), (1.0, 0.5), 0.25, (2, 4, 9, 12),
                     [False, False, True, True]),
    "3d-mixed": ((8, 16, 8), (1.0, 1.0, 2.0), (1.0, 0.0, 0.5), 0.5, (1, 2, 3, 4),
                 [False, False, True, True]),
    "3d-all-zero": ((8, 16, 8), (1.0, 1.0, 2.0), (1.0, 0.0, 0.5), 0.15, (2, 3, 4),
                    [True, True, True]),
}


@pytest.mark.parametrize("slab_rows", [None, 3, 1])
@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_slab_rows_bitwise_equal_to_full_grid_formulas(monkeypatch, case, slab_rows):
    """The rows of every cell, written slab by slab, are bit for bit
    those of the full-grid formulas: with the default budget (every roll
    block narrower than one slab), and with slabs of 3 rows and of 1 row
    along axis 0 (blocks spanning several slabs, the last one partial)."""
    n, alpha, c, band_fraction, n_list, zero = ROW_CASES[case]
    grid = SpectralGrid(n, (1.0,) * len(n))
    profile = AnisotropyProfile(alpha)
    seq = OscillationSequence(
        profile, c, cli._envelope_spectrum(grid, rng(7), band_fraction, 1.0))
    basis = make_cell_basis(grid, profile, 2, 8)
    if slab_rows is not None:
        monkeypatch.setattr(spectral, "_BLOCK_BYTES",
                            slab_rows * 16 * math.prod(n[1:]))
    assert [mean == 0 for mean in shifts_and_means(seq, n_list)[1]] == zero
    ref = full_grid_rows(seq, basis, n_list)
    rows = _shifted_products(seq, basis, n_list)
    re = np.empty(ref.shape[1:])
    for q, cell in enumerate(basis.cell_indices()):
        re.fill(np.nan)
        rows(cell, re, None)
        assert np.array_equal(re, ref[q])


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
    """Blocks of 1 lattice point, of 614 points with a short last one (20
    P-cells, 4,095 points off xi = 0), and one block of all points give
    the same bits."""
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", budget)
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
    basis holds one (S, B) array, the masks.  The measure adds one stack of
    the cell forms, k = max(1, min(C // R, B // (2R), 3 MiB // (8 R S)))
    cells of R rows (1 cell of 4 rows on 256^2, 4 cells of 3 rows on
    32^3), and the shift-rule row writer's scratch: the d full-grid
    complex passes of _hat_passes and one slab of at most _BLOCK_BYTES
    with the temporary of its power, at most 3 MiB; no full-grid product
    buffer and no full-grid power spectrum.  1 MiB covers the rest."""
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
        k = max(1, min(C // R, B // (2 * R), 3 * MiB // (8 * R * S)))
        assert k == {2: 1, 3: 4}[len(n)]
        stack = k * R * S * 8
        scratch = len(n) * S * 16 + 2 * spectral._BLOCK_BYTES
        assert scratch <= 3 * MiB
        est, peak = traced_peak(lambda: scalar_hmeasure(seq, profile, grid, n_list, 4, B))
        assert est.cells.shape == (C, B)
        assert peak <= masks + stack + scratch + 1 * MiB


def test_product_temporaries_stay_within_one_block():
    """The rows of a cell of a 128^2 matrix measure of K = 3 snapshots and
    N = 2 components, K N^2 = 12 rows of 1.5 MiB in all, are written a
    block of lattice points at a time: each temporary product of
    _write_products is at most one block, _BLOCK_BYTES, and every product
    is rounded on its own, as over whole rows.  The traced peak also holds
    numpy's ufunc buffers, at most np.getbufsize() values for each of the
    three operands of an operation."""
    K, N, S = 3, 2, 128 * 128
    r = rng(3)
    G = r.standard_normal((K, N, S)) + 1j * r.standard_normal((K, N, S))
    re, im = np.empty((2, K, N, N, S))
    _, peak = traced_peak(lambda: _write_products(G, re, im))
    assert peak <= spectral._BLOCK_BYTES + 3 * 8 * np.getbufsize()
    a, b = G[:, :, None], G[:, None]
    assert np.array_equal(re, a.real * b.real + a.imag * b.imag)
    assert np.array_equal(im, a.imag * b.real - a.real * b.imag)
