"""Transport evolution in frequency space and velocity averaging there."""

import numpy as np
import pytest

from hpm.averaging import (
    compactness_metric,
    transport_evolve,
    transport_spectrum,
    velocity_average,
)
from hpm.errors import SpaceTagError
from hpm.spectral import (
    FREQUENCY,
    PHYSICAL,
    SpectralGrid,
    band_limited_field,
    forward_dft,
    inverse_dft,
    subtract_spatial_mean,
)


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


def compact_bump(p):
    return np.where(np.abs(p) < 0.4, np.cos(np.pi * p / 0.8) ** 2, 0.0)


GRIDS = {
    1: SpectralGrid((16,), (1.0,), n_velocity=(8,), velocity_length=(1.0,)),
    2: SpectralGrid((8, 16), (1.0, 2.0), n_velocity=(12,),
                    velocity_length=(1.0,)),
}


def velocity(d):
    if d == 1:
        return lambda p: (0.5 + p)[..., None]
    return lambda p: np.stack([np.ones_like(p), np.sin(3 * p)], axis=-1)


T = 0.7


def snapshots(d, key=3):
    u0 = band_limited_field(GRIDS[d], rng(key), band_fraction=0.5)
    return lambda n: subtract_spatial_mean(u0.with_values(u0.values * (n + 1)))


@pytest.mark.parametrize("d", [1, 2])
def test_evolve_is_inverse_of_spectrum_bitwise(d):
    u0 = snapshots(d)(2)
    U = transport_spectrum(u0, velocity(d), T).scatter()
    assert U.space == FREQUENCY
    u = transport_evolve(u0, velocity(d), T)
    assert u.space == PHYSICAL
    assert np.array_equal(inverse_dft(U).values, u.values)


@pytest.mark.parametrize("d", [1, 2])
def test_separable_phase_matches_full_grid_phase(d):
    grid = GRIDS[d]
    u0 = snapshots(d)(1)
    a = grid.sample_velocity(velocity(d))
    # the full-grid phase e^(-2 pi i t a(p).xi), built in one piece
    xi = grid.frequency_vectors()
    dot = np.einsum("...k,vk->...v", xi, a)
    oracle = forward_dft(u0).values * np.exp(-2j * np.pi * T * dot)
    got = transport_spectrum(u0, velocity(d), T).values
    assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))


@pytest.mark.parametrize("d", [1, 2])
def test_average_of_spectrum_is_spectrum_of_average(d):
    U = transport_spectrum(snapshots(d)(1), velocity(d), T)
    avg_hat = velocity_average(U, compact_bump).scatter()
    assert avg_hat.space == FREQUENCY
    assert avg_hat.grid == GRIDS[d].spatial_only()
    oracle = forward_dft(velocity_average(inverse_dft(U.scatter()), compact_bump)).values
    assert np.max(np.abs(avg_hat.values - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_average_keeps_the_space_tag_checks():
    U = transport_spectrum(snapshots(2)(0), velocity(2), T)
    with pytest.raises(SpaceTagError):
        forward_dft(velocity_average(U, compact_bump).scatter())


@pytest.mark.parametrize("d", [1, 2])
def test_decay_table_same_in_either_space(d):
    seq, a = snapshots(d), velocity(d)
    window = [[0.0, L / 2] for L in GRIDS[d].length_per_axis]
    n_list = (0, 1, 3)
    spectral = compactness_metric(
        lambda n: transport_spectrum(seq(n), a, T),
        compact_bump, window, n_list)
    physical = compactness_metric(
        lambda n: transport_evolve(seq(n), a, T),
        compact_bump, window, n_list)
    assert spectral.n_list == physical.n_list
    for got, want in [(spectral.norms, physical.norms),
                      (spectral.ratios, physical.ratios)]:
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

