"""Transport snapshots built in frequency space: the band-limited spectrum,
the spectrum of a real part, and the shift-and-zero-mean rule."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hpm import averaging, cli, hmeasure, multiplier, spectral
from hpm.errors import SpaceTagError
from hpm.spectral import (
    SpectralBand,
    SpectralField,
    SpectralGrid,
    band_limited_field,
    band_limited_spectrum,
    forward_dft,
    inverse_dft,
    oscillated_spectrum,
    real_part_spectrum,
    subtract_spatial_mean,
)


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


GRIDS = {
    1: SpectralGrid((16,), (1.5,), n_velocity=(3,), velocity_length=(1.0,)),
    2: SpectralGrid((8, 16), (1.0, 2.0), n_velocity=(4,), velocity_length=(1.0,)),
    3: SpectralGrid((4, 8, 8), (0.5, 1.0, 3.0), n_velocity=(2,),
                    velocity_length=(2.0,)),
}


def close(got, want, tol):
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) <= tol * scale


def envelope_spectrum(grid, key=1):
    return real_part_spectrum(band_limited_spectrum(grid, rng(key), 0.5), offset=1.0)


class TestBandLimitedSpectrum:
    def test_draws_the_field_stream(self):
        # two standard normal draws of the full grid shape, in that order,
        # band-masked, zero mode cleared and scaled to the continuum DFT
        g = GRIDS[2]
        r = rng(5)
        want = r.standard_normal(g.shape) + 1j * r.standard_normal(g.shape)
        for k in range(g.d):
            idx = np.fft.fftfreq(g.n_per_axis[k]) * g.n_per_axis[k]
            want = want * g.on_axis(np.abs(idx) <= max(1, int(0.3 * g.n_per_axis[k] / 2)), k)
        want[0, 0, :] = 0.0
        want = want * g.freq_cell_volume
        r2 = rng(5)
        F = band_limited_spectrum(g, r2, 0.3).scatter()
        assert isinstance(F, SpectralBand)
        assert np.array_equal(F.values, want)
        assert r2.standard_normal() == r.standard_normal()

    def test_field_is_its_inverse_dft(self):
        g = GRIDS[3]
        f = band_limited_field(g, rng(2), 0.4)
        F = band_limited_spectrum(g, rng(2), 0.4).scatter()
        assert np.array_equal(f.values, inverse_dft(F).values)


class TestRealPartSpectrum:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("offset", [0.0, 1.0])
    def test_is_the_spectrum_of_the_real_part(self, d, offset):
        # a full random spectrum: odd indices, the Nyquist index and the
        # zero mode all carry energy
        g = GRIDS[d]
        r = rng(d)
        S = SpectralBand.full(g, r.standard_normal(g.shape) + 1j * r.standard_normal(g.shape))
        real = inverse_dft(S).values.real + offset
        want = forward_dft(SpectralField(g, real)).values
        assert close(real_part_spectrum(S, offset).values, want, 1e-13)

    def test_is_hermitian(self):
        g = GRIDS[2]
        H = real_part_spectrum(band_limited_spectrum(g, rng(3), 1.0)).values
        neg = H[(-np.arange(8)) % 8][:, (-np.arange(16)) % 16]
        assert np.array_equal(H, np.conj(neg))

    def test_requires_a_spectrum(self):
        with pytest.raises(SpaceTagError):
            real_part_spectrum(band_limited_field(GRIDS[1], rng(0)))

    def test_imports_no_masked_arrays(self):
        # a membership test by np.isin on the CLI's band of a 256-point
        # axis goes through np.unique, which imports numpy.ma: about 15 ms
        # and 1.3 MB of peak RSS for every process that builds an envelope
        code = "\n".join([
            "import sys, numpy as np",
            "from hpm.spectral import SpectralGrid, band_limited_spectrum, real_part_spectrum",
            "g = SpectralGrid((32, 256), (1.0, 1.0), n_velocity=(4,), velocity_length=(1.0,))",
            "r = np.random.Generator(np.random.Philox(key=7))",
            "real_part_spectrum(band_limited_spectrum(g, r, 0.15), offset=1.0)",
            "sys.exit('numpy.ma' in sys.modules)"])
        src = str(Path(spectral.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr or "numpy.ma was imported"


class TestOscillatedSpectrum:
    CASES = [(1, 0, 3), (2, 0, 2), (2, 1, 5), (2, -1, 3), (3, 2, 1),
             (3, -3, 2), (2, 1, 15), (2, -2, -6), (1, 0, 16)]

    @pytest.mark.parametrize("d,axis,n", CASES)
    def test_matches_the_physical_snapshot(self, d, axis, n):
        # shifts past the band, by a full period, backwards and along
        # negative axes (counted from the last spatial axis)
        g = GRIDS[d]
        E = envelope_spectrum(g)
        env = inverse_dft(E.scatter()).values
        x = g.coordinates()[axis]
        snap = subtract_spatial_mean(SpectralField(
            g, env * np.exp(2j * np.pi * n * x / g.length_per_axis[axis])))
        got = oscillated_spectrum(E, n, axis).scatter()
        assert isinstance(got, SpectralBand)
        assert close(inverse_dft(got).values, snap.values, 1e-13)
        assert close(got.values, forward_dft(snap).values, 1e-13)
        assert np.all(got.values[(0,) * d] == 0)

    def test_leaves_its_input_alone(self):
        E = envelope_spectrum(GRIDS[2])
        before = E.values.copy()
        oscillated_spectrum(E, 3, 1)
        assert np.array_equal(E.values, before)


class TestCliEnvelope:
    @pytest.mark.parametrize("grid", [
        SpectralGrid((8, 16), (2.0, 0.5), n_velocity=(4,), velocity_length=(1.0,)),
        SpectralGrid((16, 8, 4), (3.0, 1.0, 0.25), n_velocity=(3, 2),
                     velocity_length=(1.0, 2.0)),
    ])
    def test_spectrum_inverts_to_the_physical_envelope(self, grid):
        # the envelope as it was built in physical space: the real part of
        # the random field, its spatial mean removed, plus 1
        f = band_limited_field(grid, rng(11), 0.15)
        want = subtract_spatial_mean(f.with_values(f.values.real)).values + 1.0
        got = inverse_dft(cli._envelope_spectrum(grid, rng(11), 0.15, 1.0).scatter()).values
        assert float(np.max(np.abs(got - want))) <= 1e-14 * float(np.max(np.abs(want)))

    @pytest.mark.filterwarnings("ignore::hpm.errors.SupportWarning")
    def test_averaging_makes_no_full_grid_dft(self, tmp_path, monkeypatch):
        calls = {"forward_dft": 0, "subtract_spatial_mean": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in calls:
            original = getattr(spectral, name)
            for mod in (spectral, averaging, hmeasure, multiplier, cli):
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counting(name, original))
        cfg = {"command": "averaging",
               "grid": {"n": [8, 16], "L": [1.0, 2.0], "n_p": [8], "P_len": [1.0]},
               "profile": {"alpha": [1.0, 1.0]}, "seed": 3,
               "params": {"a": ["1.0", "p1"], "t": 0.5, "n_list": [1, 2, 4]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["averaging", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        assert calls == {"forward_dft": 0, "subtract_spatial_mean": 0}
        assert (tmp_path / "out" / "decay.csv").exists()

    def test_averaging_peaks_below_one_full_grid_array(self, tmp_path):
        # the run keeps its spectra on the envelope's band and draws them
        # in chunks of 0.5 MB, so no array of the full grid is ever built
        n, n_p = [16, 128], [128]
        cfg = {"command": "averaging",
               "grid": {"n": n, "L": [1.0, 1.0], "n_p": n_p, "P_len": [1.0]},
               "profile": {"alpha": [1.0, 1.0]}, "seed": 3,
               "params": {"a": ["1.0", "p1"], "t": 0.5, "n_list": [1, 2, 4]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = ["averaging", "--config", str(path), "--out", str(tmp_path / "out")]
        # the first run imports the numpy modules loaded on first use
        # (numpy.random, numpy.fft: about 0.9 MB traced); the second is traced
        assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 8 * math.prod(n + n_p)
