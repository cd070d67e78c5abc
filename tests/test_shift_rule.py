"""The oscillation sequence's cell spectra by the shift rule against the
transform of each snapshot, F(hat_c u_n) cell by cell, with the envelope
given as a physical field and as its band, and the checks on kappa(n)
they share."""

import math

import numpy as np
import pytest

import hpm.hmeasure as hm
from hpm.anisotropy import AnisotropyProfile
from hpm.errors import DomainError
from hpm.hmeasure import (
    OscillationSequence,
    _shifted_products,
    _stacked_forms,
    make_cell_basis,
    oscillation_frequency,
    oscillation_sequence,
    scalar_hmeasure,
)
from hpm.spectral import SpectralGrid, band_limited_field, band_limited_spectrum
from test_cell_forms import snapshot_forms


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


def envelope(grid, key, band_fraction):
    v = band_limited_field(grid, rng(key), band_fraction=band_fraction)
    return v.with_values(v.values + 1.0)


def envelope_band(grid, key, band_fraction):
    """The band of envelope(grid, key, band_fraction): the random band
    with the mean 1 on its zero mode."""
    band = band_limited_spectrum(grid, rng(key), band_fraction=band_fraction)
    values = band.values.copy()
    values[(0,) * grid.d] = math.prod(grid.length_per_axis)
    return band.with_values(values)


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


def case(name, form="field"):
    n, L, alpha, c, n_list, x_cells, p_cells, band = CASES[name]
    grid = SpectralGrid(n, L)
    profile = AnisotropyProfile(alpha)
    env = {"field": envelope, "band": envelope_band}[form](grid, len(n), band)
    seq = OscillationSequence(profile, c, env)
    basis = make_cell_basis(grid, profile, x_cells, p_cells)
    return grid, profile, c, env, seq, basis, n_list


def shifted(grid, seq, basis, n_list):
    """The (n, 1, 1, C, B) forms of the shift rule, shaped like a stack of
    the scalar forms of each snapshot."""
    V = _stacked_forms(basis, grid, _shifted_products(seq, basis, n_list),
                       len(n_list), False)
    return np.moveaxis(V, 1, 0)[:, None, None]


@pytest.mark.parametrize("name, form", [
    pytest.param(name, form, id=name if form == "field" else f"{name}-band")
    for form in ("field", "band") for name in sorted(CASES)])
def test_shift_rule_matches_transform_of_each_snapshot(name, form):
    grid, profile, c, env, seq, basis, n_list = case(name, form)
    V = shifted(grid, seq, basis, n_list)
    ref = np.stack([snapshot_forms(grid, basis, [seq(n).values]) for n in n_list])
    C, B = len(list(basis.cell_indices())), basis.p_masks.shape[0]
    assert V.shape == ref.shape == (len(n_list), 1, 1, C, B)
    assert np.max(np.abs(V - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.all(V.imag == 0.0)


@pytest.mark.parametrize("name", ["2d-mean-in-band", "3d-mean-in-band"])
def test_cases_subtract_a_nonzero_mean(name):
    grid, profile, c, env, seq, basis, n_list = case(name)
    for n in n_list:
        kap = oscillation_frequency(profile, c, n, grid)
        phase = sum(k * x for k, x in zip(kap, grid.coordinates()))
        mean = np.mean(env.values * np.exp(2j * np.pi * phase))
        assert abs(mean) > 1e-3


def test_band_envelope_gives_exact_zero_means_off_its_box(monkeypatch):
    # the box of 2d-mean-in-band reaches 8 lattice points from 0 on each
    # axis: -kappa(2) = (-2, 0) lies in it, -kappa(12) and -kappa(13) do not
    grid, profile, c, env, seq, basis, _ = case("2d-mean-in-band", "band")
    seen = []
    original = hm._band_value

    def recording(band, mode):
        seen.append(original(band, mode))
        return seen[-1]

    monkeypatch.setattr(hm, "_band_value", recording)
    _shifted_products(seq, basis, (2, 12, 13))
    assert seen[1:] == [0.0, 0.0]
    kap = oscillation_frequency(profile, c, 2, grid)
    phase = sum(k * x for k, x in zip(kap, grid.coordinates()))
    mean = np.mean(seq.physical.values * np.exp(2j * np.pi * phase))
    assert abs(mean) > 1e-3
    assert abs(seen[0] / math.prod(grid.length_per_axis) - mean) <= 1e-13 * abs(mean)


@pytest.mark.parametrize("name", ["2d-nonsquare-L", "3d-nonsquare-negative-c"])
def test_scalar_hmeasure_equals_the_transform_path(name):
    grid, profile, c, env, seq, basis, n_list = case(name)
    x_cells, p_cells = CASES[name][5:7]
    est = scalar_hmeasure(seq, profile, grid, n_list, x_cells, p_cells)
    ref = scalar_hmeasure(lambda n: seq(n), profile, grid, n_list,
                          x_cells, p_cells)
    assert np.max(np.abs(est.cells - ref.cells)) <= 1e-13 * np.max(np.abs(ref.cells))


def count_full_grid_transforms(monkeypatch, grid):
    """Full-grid forward_dft calls and full-grid one-axis passes (dft_axis)
    through hmeasure's bindings."""
    calls = {"forward_dft": 0, "dft_axis": 0}
    forward, one_axis = hm.forward_dft, hm.dft_axis

    def counting(f):
        calls["forward_dft"] += f.values.shape == grid.shape
        return forward(f)

    def counting_passes(a, axis, length, out=None):
        calls["dft_axis"] += a.shape == grid.shape
        return one_axis(a, axis, length, out)

    monkeypatch.setattr(hm, "forward_dft", counting)
    monkeypatch.setattr(hm, "dft_axis", counting_passes)
    return calls


def test_transform_count_does_not_grow_with_n_list(monkeypatch):
    # 4 x 4 cells: 4 passes along axis 0 and 16 along axis 1, and no
    # full-grid transform (the envelope's was made with the sequence)
    grid, profile, c, env, seq, basis, _ = case("2d-anisotropic-negative-c")
    calls = count_full_grid_transforms(monkeypatch, grid)
    counts = []
    for n_list in ((4, 9, 16), (4, 9, 16, 25, 36, 49)):
        calls.update(forward_dft=0, dft_axis=0)
        scalar_hmeasure(seq, profile, grid, n_list, 4, 8)
        counts.append(dict(calls))
    assert counts == [{"forward_dft": 0, "dft_axis": 4 + 16}] * 2


# --- kappa(n): not finite, or aliased to the zero mode -------------------------

def test_aliased_zero_frequency_raises():
    grid = SpectralGrid((32, 32), (1.0, 1.0))
    profile = AnisotropyProfile((1.0, 1.0))
    env = envelope(grid, 1, 0.25)
    # kappa(n) = (32 n, 0) is a nonzero frequency, but the mode 0 on the grid
    assert oscillation_frequency(profile, (32.0, 0.0), 3, grid)[0] == 96.0
    with pytest.raises(DomainError, match="vanished at n=3"):
        oscillation_sequence(profile, (32.0, 0.0), env, 3)
    seq = OscillationSequence(profile, (32.0, 0.0), env)
    with pytest.raises(DomainError, match="vanished at n=2"):
        scalar_hmeasure(seq, profile, grid, (2, 3, 4), 2, 8)
    # one aliased axis is still an oscillation
    oscillation_sequence(profile, (32.0, 1.0), env, 3)


@pytest.mark.parametrize("alpha, c", [((1.0, 1.0), (1.7e308, 0.0)),
                                      ((0.01, 1.0), (1e300, 0.0))])
def test_frequency_beyond_the_float_range_raises(alpha, c):
    grid = SpectralGrid((16, 16), (1.0, 1.0))
    profile = AnisotropyProfile(alpha)
    with pytest.raises(DomainError, match="not finite at n=4"):
        oscillation_frequency(profile, c, 4, grid)
    seq = OscillationSequence(profile, c, envelope(grid, 1, 0.25))
    with pytest.raises(DomainError, match="not finite at n=4"):
        scalar_hmeasure(seq, profile, grid, (4, 6, 8), 2, 4)
