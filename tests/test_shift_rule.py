"""The oscillation generator's cell spectra by the shift rule against the
transform of each snapshot, F(hat_c u_n) cell by cell; the checks on
kappa(n) they share; and scalar_hmeasure's pairs and symbols."""

import numpy as np
import pytest

import hpm.hmeasure as hm
from hpm.anisotropy import AnisotropyProfile
from hpm.errors import DomainError
from hpm.hmeasure import (
    SequenceGenerator,
    _cell_forms,
    _stacked_forms,
    make_cell_basis,
    oscillation_frequency,
    oscillation_sequence,
    scalar_hmeasure,
)
from hpm.multiplier import symbol_from_name
from hpm.spectral import PHYSICAL, SpectralField, SpectralGrid, band_limited_field


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


def envelope(grid, key, band_fraction):
    v = band_limited_field(grid, rng(key), band_fraction=band_fraction)
    return v.with_values(v.values + 1.0)


# (n, L, alpha, c, n_list, x_cells, p_cells, band_fraction)
CASES = {
    "1d-negative-c": ((64,), (1.5,), (2.0,), (-1.3,), (2, 3, 5), 3, 4, 0.5),
    # -kappa(n) = (-2, 0), (-3, 0), (-4, 0) lie in the envelope's band
    "2d-mean-in-band": ((32, 32), (1.0, 1.0), (1.0, 1.0), (1.0, 0.0),
                        (2, 3, 4), 2, 8, 0.5),
    "2d-nonsquare-L": ((64, 16), (2.0, 0.5), (1.0, 1.0), (0.75, 1.5),
                       (3, 5, 7), 3, 6, 0.25),
    "2d-anisotropic-negative-c": ((32, 32), (1.0, 1.0), (1.0, 2.0),
                                  (-1.5, 0.75), (4, 9, 16), 4, 8, 0.3),
    "3d-mean-in-band": ((16, 16, 16), (1.0, 1.0, 1.0), (1.0, 1.0, 2.0),
                        (1.0, 0.0, 0.5), (1, 2, 4), 2, 8, 0.5),
    "3d-nonsquare-negative-c": ((16, 8, 32), (1.5, 1.0, 0.5), (1.0, 2.0, 3.0),
                                (-2.0, 1.0, -0.5), (2, 3, 5), 3, 6, 0.4),
}


def case(name):
    n, L, alpha, c, n_list, x_cells, p_cells, band = CASES[name]
    grid = SpectralGrid(n, L)
    profile = AnisotropyProfile(alpha)
    env = envelope(grid, len(n), band)
    gen = SequenceGenerator.oscillation(profile, c, env)
    basis = make_cell_basis(grid, profile, x_cells, p_cells)
    return grid, profile, c, env, gen, basis, n_list


def shifted(grid, gen, basis, n_list):
    return _stacked_forms(basis, grid, gen.cell_spectra(basis, n_list),
                          len(n_list), 1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_shift_rule_matches_transform_of_each_snapshot(name):
    grid, profile, c, env, gen, basis, n_list = case(name)
    V = shifted(grid, gen, basis, n_list)
    ref = np.stack([_cell_forms(gen.field(n), basis) for n in n_list])
    C, B = len(list(basis.cell_indices())), basis.p_masks.shape[0]
    assert V.shape == ref.shape == (len(n_list), 1, 1, C, B)
    assert np.max(np.abs(V - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.all(V.imag == 0.0)


@pytest.mark.parametrize("name", ["2d-mean-in-band", "3d-mean-in-band"])
def test_cases_subtract_a_nonzero_mean(name):
    grid, profile, c, env, gen, basis, n_list = case(name)
    for n in n_list:
        kap = oscillation_frequency(profile, c, n, grid)
        phase = sum(k * x for k, x in zip(kap, grid.coordinates()))
        mean = np.mean(env.values * np.exp(2j * np.pi * phase))
        assert abs(mean) > 1e-3


@pytest.mark.parametrize("name", ["2d-nonsquare-L", "3d-nonsquare-negative-c"])
def test_scalar_hmeasure_equals_the_transform_path(name):
    grid, profile, c, env, gen, basis, n_list = case(name)
    x_cells, p_cells = CASES[name][5:7]
    est = scalar_hmeasure(gen, profile, grid, n_list, x_cells, p_cells)
    ref = scalar_hmeasure(SequenceGenerator(gen.produce), profile, grid, n_list,
                          x_cells, p_cells)
    assert np.max(np.abs(est.cells - ref.cells)) <= 1e-13 * np.max(np.abs(ref.cells))


def count_full_grid_transforms(monkeypatch, grid):
    calls = []
    original = hm.forward_dft

    def counting(f):
        if f.values.shape == grid.shape:
            calls.append(1)
        return original(f)

    monkeypatch.setattr(hm, "forward_dft", counting)
    return calls


def test_transform_count_does_not_grow_with_n_list(monkeypatch):
    grid, profile, c, env, gen, basis, _ = case("2d-anisotropic-negative-c")
    calls = count_full_grid_transforms(monkeypatch, grid)
    counts = []
    for n_list in ((4, 9, 16), (4, 9, 16, 25, 36, 49)):
        calls.clear()
        scalar_hmeasure(gen, profile, grid, n_list, 4, 8)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# --- kappa(n): not finite, or aliased to the zero mode -------------------------

def test_aliased_zero_frequency_raises():
    grid = SpectralGrid((32, 32), (1.0, 1.0))
    profile = AnisotropyProfile((1.0, 1.0))
    env = envelope(grid, 1, 0.25)
    # kappa(n) = (32 n, 0) is a nonzero frequency, but the mode 0 on the grid
    assert oscillation_frequency(profile, (32.0, 0.0), 3, grid)[0] == 96.0
    with pytest.raises(DomainError, match="vanished at n=3"):
        oscillation_sequence(profile, (32.0, 0.0), env, 3)
    gen = SequenceGenerator.oscillation(profile, (32.0, 0.0), env)
    with pytest.raises(DomainError, match="vanished at n=2"):
        scalar_hmeasure(gen, profile, grid, (2, 3, 4), 2, 8)
    # one aliased axis is still an oscillation
    oscillation_sequence(profile, (32.0, 1.0), env, 3)


@pytest.mark.parametrize("alpha, c", [((1.0, 1.0), (1.7e308, 0.0)),
                                      ((0.01, 1.0), (1e300, 0.0))])
def test_frequency_beyond_the_float_range_raises(alpha, c):
    grid = SpectralGrid((16, 16), (1.0, 1.0))
    profile = AnisotropyProfile(alpha)
    with pytest.raises(DomainError, match="not finite at n=4"):
        oscillation_frequency(profile, c, 4, grid)
    gen = SequenceGenerator.oscillation(profile, c, envelope(grid, 1, 0.25))
    with pytest.raises(DomainError, match="not finite at n=4"):
        scalar_hmeasure(gen, profile, grid, (4, 6, 8), 2, 4)


# --- pairs and symbols -----------------------------------------------------------

@pytest.mark.parametrize("given", ["pairs", "symbols"])
def test_pairs_without_symbols_or_symbols_without_pairs_raise(given):
    grid = SpectralGrid((16, 16), (1.0, 1.0))
    profile = AnisotropyProfile((1.0, 1.0))
    gen = SequenceGenerator.oscillation(profile, (1.0, 0.0), envelope(grid, 1, 0.25))
    forms = {"pairs": {"a": (1.0, 1.0)},
             "symbols": {"one": symbol_from_name("one", profile)}}
    with pytest.raises(DomainError, match="pairs and symbols"):
        scalar_hmeasure(gen, profile, grid, (4, 6, 8), 2, 4,
                        **{given: forms[given]})
