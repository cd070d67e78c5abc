"""The cell discretization against the dense formulas it replaced: cell
forms batched over chunks of cells, separable x-hats, P-masks evaluated
only where they can be nonzero, and scalar_hmeasure with its symbol
lattices computed once."""

import numpy as np
import pytest

from hpm.anisotropy import AnisotropyProfile, project_lattice, project_to_P
from hpm.errors import SupportWarning
from hpm.hmeasure import (
    OscillationSequence,
    _cell_forms,
    _periodic_hat,
    bilinear_form,
    cosine_velocity_basis,
    make_cell_basis,
    scalar_hmeasure,
)
from hpm.multiplier import symbol_from_name
from hpm.spectral import SpectralGrid, band_limited_field
from test_cell_forms import einsum_forms


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


def matrix_case(N, x_cells):
    grid = SpectralGrid((16, 16), (1.0, 1.0), n_velocity=(32,),
                        velocity_length=(2.0,))
    u = band_limited_field(grid, rng(3), band_fraction=0.5)
    vel = cosine_velocity_basis(grid, N)
    dv = grid.velocity_cell_volume
    comps = [np.tensordot(np.asarray(u.values), vel[i], axes=([2], [0])) * dv
             for i in range(N)]
    basis = make_cell_basis(grid.spatial_only(), AnisotropyProfile((1.0, 1.0)),
                            x_cells, 8)
    return grid.spatial_only(), basis, comps


# C cells in chunks of k = max(1, C // N^2): one chunk of all cells (scalar),
# chunks of 2 with a last chunk of 1 (N = 2, C = 9), one cell per chunk
CASES = {"scalar-2d-C9": lambda: scalar_case(2, 3),
         "scalar-3d-C27": lambda: scalar_case(3, 3),
         "matrix-N2-C9": lambda: matrix_case(2, 3),
         "matrix-N2-C4": lambda: matrix_case(2, 2)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_forms_match_einsum_reference(case):
    grid, basis, comps = CASES[case]()
    V = _cell_forms(grid, basis, comps)
    ref = einsum_forms(grid, basis, comps)
    assert V.shape == ref.shape
    assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ["scalar-2d-C9", "scalar-3d-C27"])
def test_batched_scalar_forms_are_real(case):
    grid, basis, comps = CASES[case]()
    assert np.all(_cell_forms(grid, basis, comps).imag == 0.0)


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


# --- scalar_hmeasure with hoisted symbol lattices ------------------------------

def test_scalar_hmeasure_values_equal_bilinear_form():
    grid = SpectralGrid((32, 32), (1.0, 1.0))
    profile = AnisotropyProfile((1.0, 2.0))
    x = grid.coordinates()
    phi = np.exp(-40 * ((x[0] - 0.5) ** 2 + (x[1] - 0.5) ** 2)) * np.ones(grid.shape)
    pairs = {"a": (phi, phi), "b": (phi, lambda x1, x2: np.cos(np.pi * x1) ** 2)}
    symbols = {s: symbol_from_name(s, profile) for s in ("one", "coordinate:1")}
    env = band_limited_field(grid, rng(5), band_fraction=0.25)
    seq = OscillationSequence(profile, (1.0, 0.0), env)
    est = scalar_hmeasure(seq, profile, grid, (4, 6, 8), 2, 8,
                          pairs=pairs, symbols=symbols)
    assert len(est.values) == 2 * 2 * 3
    for (pid, sid, n), value in est.values.items():
        p1, p2 = pairs[pid]
        with pytest.warns(SupportWarning):
            form = bilinear_form(seq(n), p1, p2, symbols[sid], profile)
        assert value == form
