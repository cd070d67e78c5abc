"""The array scans of the P-mesh and the certifier shells against the
one-point-at-a-time loops they replaced, kept here as oracles.

The counts of {p : |A| <= eps} are compared exactly, with eps placed on
values of |A| itself: a last-bit change in |A| would flip such a count."""

import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpm import averaging, cli, spectral
from hpm.anisotropy import (
    AnisotropyProfile,
    fibre_point,
    mesh_P,
    project_to_P,
)
from hpm.averaging import (
    _cell_width,
    _scan_measures,
    nondegeneracy_scan,
    principal_symbol,
)
from hpm.errors import DomainError
from hpm.kinetic import (
    FluxPair,
    UPManifold,
    flux_from_name,
    up_nondegeneracy_scan,
    up_symbol,
)
from hpm.multiplier import _shell_samples

PROFILES = {1: AnisotropyProfile((1.0,)),
            2: AnisotropyProfile((1.0, 2.0)),
            3: AnisotropyProfile((1.0, 1.0, 2.0))}


def midpoints(n, lo=-1.0, hi=1.0):
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def sorted_counts(absA, eps_list):
    """Counts of |A| <= eps for every eps, by a sort (NaN sorts last)."""
    return np.searchsorted(np.sort(absA), eps_list, side="right")


def tie_eps(absA, count=64):
    """Increasing eps taken from the values of |A| themselves."""
    vals = np.unique(absA[np.isfinite(absA) & (absA > 0)])
    picks = np.unique(np.linspace(0, vals.size - 1, count, dtype=int))
    return tuple(float(v) for v in vals[picks])


def per_point_symbols(coeffs, x_samples, profile, resolution, p_grid):
    """principal_symbol at one mesh point at a time, as the scan did."""
    mesh, _ = mesh_P(profile, resolution)
    return np.array([[np.abs(np.broadcast_to(
        principal_symbol(x, xi, p_grid, coeffs, profile), p_grid.shape))
        for xi in mesh] for x in x_samples])


def small_blocks(monkeypatch, rows, n_cells, n_eps=1):
    """A block budget that gives scan blocks of `rows` mesh rows for
    n_eps thresholds."""
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", max(16, n_eps) * n_cells * rows)
    assert spectral.block_rows(max(16, n_eps) * n_cells) == rows


def coefficient_cases():
    def x_dependent(x, p):
        return np.stack([np.ones_like(p) + x[0], p, p * p - x[1]], axis=-1)
    return [
        (1, [lambda x, p: p]),
        (2, [1.0, lambda x, p: p]),
        (2, [lambda x, p: p, lambda x, p: 1.0 - 2.0 * p ** 3]),
        (3, [1.0, lambda x, p: p, lambda x, p: p * p]),
        (3, x_dependent),
        # p-independent coefficients: a scalar symbol over the whole grid
        (2, [1.0, 1.0]),
        (3, [2.0, 0.5, -1.0]),
        # p-independent arrays: a constant array before, between and after
        # the terms that vary with p, and a symbol of constant arrays only
        (2, [lambda x, p: np.full_like(p, 0.75), lambda x, p: p]),
        (3, [lambda x, p: p, lambda x, p: (1.0 + x[0]) * np.ones_like(p),
             lambda x, p: p * p]),
        (3, [lambda x, p: p * p, lambda x, p: p,
             lambda x, p: np.full_like(p, -0.5)]),
        (2, [lambda x, p: (1.0 + x[0]) * np.ones_like(p),
             lambda x, p: np.full_like(p, 0.75)]),
        # nearly p-independent: one step of 1e-12 must reach the counts
        (2, [lambda x, p: 0.75 + 1e-12 * (p > 0.5), lambda x, p: p]),
    ]


def p_independent_arrays(x, p):
    return np.stack([np.full_like(p, 0.75), p, (1.0 + x[0]) * np.ones_like(p)],
                    axis=-1)


class TestBlockedNondegeneracyScan:
    @staticmethod
    def check_per_point_reference(monkeypatch, d, coeffs):
        """The scan's measures against the per-point counts, at eps on the
        values of |A|; returns the per-point |A|, (x samples, mesh, p)."""
        profile = PROFILES[d]
        p_grid = midpoints(96)
        x_samples = [np.zeros(d), np.full(d, 0.25)]
        absA = per_point_symbols(coeffs, x_samples, profile, 8, p_grid)
        eps = tie_eps(absA)
        # 7 rows a block: no mesh size here is a multiple of it
        small_blocks(monkeypatch, 7, p_grid.size, len(eps))
        rep = nondegeneracy_scan(coeffs, x_samples, profile, 8, p_grid, eps)
        assert len(mesh_P(profile, 8)[0]) % 7 != 0
        cell = float(p_grid[1] - p_grid[0])
        want = cell * np.array([[sorted_counts(a, eps) for a in per_x]
                                for per_x in absA])
        assert np.array_equal(rep.measures, want)
        return absA

    @pytest.mark.parametrize("d, coeffs", coefficient_cases())
    def test_bitwise_per_point_reference(self, monkeypatch, d, coeffs):
        self.check_per_point_reference(monkeypatch, d, coeffs)

    @pytest.mark.parametrize("d, coeffs", coefficient_cases())
    def test_exact_path_is_principal_symbol_bit_for_bit(self, monkeypatch, d,
                                                        coeffs):
        # without the screen every block takes the exact path, whose |A| is
        # principal_symbol's at each of its mesh points
        blocks = []
        spy_scan(monkeypatch, screened=False, blocks=blocks)
        absA = self.check_per_point_reference(monkeypatch, d, coeffs)
        n_cells = absA.shape[-1]
        got = np.concatenate([np.broadcast_to(b, (len(b), n_cells)) for b in blocks])
        assert np.array_equal(got, absA.reshape(got.shape))

    @pytest.mark.parametrize("rows", [1, 5, 64, 10 ** 6])
    def test_block_size_does_not_change_measures(self, monkeypatch, rows):
        profile = PROFILES[3]
        p_grid = midpoints(64)
        coeffs = [1.0, lambda x, p: p, lambda x, p: p * p]
        small_blocks(monkeypatch, rows, p_grid.size)
        rep = nondegeneracy_scan(coeffs, [np.zeros(3)], profile, 16, p_grid,
                                 (0.01, 0.1, 0.5, 1.0))
        monkeypatch.undo()
        want = nondegeneracy_scan(coeffs, [np.zeros(3)], profile, 16, p_grid,
                                  (0.01, 0.1, 0.5, 1.0))
        assert np.array_equal(rep.measures, want.measures)

    @pytest.mark.parametrize("rows", [1, 5, 64, 10 ** 6])
    def test_block_size_with_p_independent_arrays(self, monkeypatch, rows):
        profile = PROFILES[3]
        p_grid = midpoints(64)
        x_samples = [np.zeros(3), np.full(3, 0.25)]
        eps = (0.01, 0.1, 0.5, 1.0)
        small_blocks(monkeypatch, rows, p_grid.size, len(eps))
        rep = nondegeneracy_scan(p_independent_arrays, x_samples, profile, 16,
                                 p_grid, eps)
        monkeypatch.undo()
        want = nondegeneracy_scan(p_independent_arrays, x_samples, profile, 16,
                                  p_grid, eps)
        assert np.array_equal(rep.measures, want.measures)

    def test_scalar_symbol_counts_the_whole_grid(self):
        rep = nondegeneracy_scan([1.0, 1.0], [0.0], PROFILES[2], 16,
                                 midpoints(32), (0.5, 100.0))
        counts = rep.measures[0] / rep.p_domain_measure
        assert set(np.unique(counts)) <= {0.0, 1.0}
        assert np.all(counts[:, 1] == 1.0)


class TestScanMeasuresBlocks:
    def test_ties_and_nan_in_array_blocks(self):
        r = np.random.default_rng(5)
        eps_list = (0.25, 0.5, 1.0, 2.0)
        table = r.standard_normal((11, 40)) + 1j * r.standard_normal((11, 40))
        table[:, :4] = eps_list  # |A| exactly on each threshold
        table[::2, 4] = np.nan
        table[3, 5:9] = np.nan
        mesh = np.arange(11.0)[:, None]
        calls = []

        def symbol_at(x, rows):
            calls.append(len(rows))
            return table[rows[:, 0].astype(int)]

        rep = _scan_measures(symbol_at, [0.0], mesh, eps_list, 0.5, 40)
        assert sum(calls) == 11
        for ip in range(11):
            want = 0.5 * sorted_counts(np.abs(table[ip]), eps_list)
            assert np.array_equal(rep.measures[0, ip], want)

    def test_remainder_block(self, monkeypatch):
        small_blocks(monkeypatch, 4, 3)
        seen = []

        def symbol_at(x, rows):
            seen.append(rows[:, 0].tolist())
            return np.ones((len(rows), 3))

        rep = _scan_measures(symbol_at, [0.0], np.arange(10.0)[:, None],
                             (1.0,), 1.0, 3)
        assert seen == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert np.all(rep.measures == 3.0)

    def test_many_thresholds_keep_the_block_budget(self, monkeypatch):
        # 4,096 thresholds on the values of |A| at 7 rows a block: every
        # count is exact, and the comparisons of a block stay in its budget
        r = np.random.default_rng(9)
        table = r.standard_normal((50, 40)) + 1j * r.standard_normal((50, 40))
        absA = np.abs(table)
        vals = np.unique(absA)
        assert vals.size == 2000
        eps = tuple(np.linspace(0.25, 0.5, 2096) * vals[0]) + tuple(vals)
        small_blocks(monkeypatch, 7, 40, len(eps))

        def symbol_at(x, rows):
            return table[rows[:, 0].astype(int)]

        tracemalloc.start()
        try:
            rep = _scan_measures(symbol_at, [0.0], np.arange(50.0)[:, None], eps,
                                 1.0, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for ip in range(50):
            assert np.array_equal(rep.measures[0, ip], sorted_counts(absA[ip], eps))
        assert peak <= rep.measures.nbytes + 2 * spectral._BLOCK_BYTES


def spy_scan(monkeypatch, screened=True, blocks=None):
    """The mesh rows of every block whose exact symbol nondegeneracy_scan
    evaluates, as a list that grows; screened=False drops the screen, so
    every block takes the exact path, the reference.  A list `blocks`
    receives the |A| of each of those blocks."""
    rows_evaluated = []
    inner = averaging._scan_measures

    def scan(symbol_at, *args, screen=None):
        def counted(x, rows):
            rows_evaluated.append(len(rows))
            A = symbol_at(x, rows)
            if blocks is not None:
                blocks.append(np.abs(A))
            return A
        return inner(counted, *args, screen=screen if screened else None)

    monkeypatch.setattr(averaging, "_scan_measures", scan)
    return rows_evaluated


def spy_principal_symbol(monkeypatch):
    """The (x, shape of xi) of every principal_symbol call that
    nondegeneracy_scan makes, as a list that grows."""
    calls = []
    inner = averaging.principal_symbol

    def spy(x, xi, *args):
        calls.append((x, np.shape(xi)))
        return inner(x, xi, *args)

    monkeypatch.setattr(averaging, "principal_symbol", spy)
    return calls


def screened_and_exact(monkeypatch, rows, *args):
    """nondegeneracy_scan(*args) with its screen and without it, at
    `rows` mesh rows a block; returns both reports and the number of mesh
    rows the screened scan counted from the exact symbol."""
    n_cells, eps = np.size(args[4]), args[5]
    small_blocks(monkeypatch, rows, n_cells, len(eps))
    evaluated = spy_scan(monkeypatch)
    got = nondegeneracy_scan(*args)
    monkeypatch.undo()
    small_blocks(monkeypatch, rows, n_cells, len(eps))
    spy_scan(monkeypatch, screened=False)
    want = nondegeneracy_scan(*args)
    monkeypatch.undo()
    return got, want, sum(evaluated)


def assert_same_report(got, want):
    assert np.array_equal(got.measures, want.measures)
    assert np.array_equal(got.sup_measure, want.sup_measure)
    assert got.degenerate_flag == want.degenerate_flag
    assert got.p_domain_measure == want.p_domain_measure


def random_real_case(seed, d):
    """A profile of mixed orders and coefficients a_k(x, p), quadratic in p
    with coefficients affine in x, from a seed."""
    r = np.random.default_rng(seed)
    profile = AnisotropyProfile(tuple(r.choice([0.5, 1.0, 1.5, 2.0, 3.0], d)))
    c = r.standard_normal((d, 3, d + 1))

    def coeffs(x, p):
        xs = np.concatenate([[1.0], x])
        return np.stack([sum((c[k, j] @ xs) * p ** j for j in range(3))
                         for k in range(d)], axis=-1)

    x_samples = list(r.uniform(-1.0, 1.0, (3, d)))
    eps = tuple(np.sort(r.uniform(0.01, 4.0, 5)))
    return profile, coeffs, x_samples, eps


def catalog_nondegeneracy_config(tiny=False):
    """The nondegeneracy config of the benchmark's catalog workload."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return dict(workloads.configs("catalog", 7, tiny=tiny))["nondegeneracy"]


def run_config(tmp_path, cfg, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    code = cli.main([cfg["command"], "--config", str(path),
                     "--out", str(tmp_path / name)])
    return code, {f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())}


class TestCertifiedScreen:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_real_coefficients_give_the_exact_counts(self, monkeypatch,
                                                            d, seed):
        profile, coeffs, x_samples, eps = random_real_case(seed, d)
        p_grid = midpoints(101, -1.5, 2.0)
        mesh_rows = len(mesh_P(profile, 12)[0])
        got, want, evaluated = screened_and_exact(
            monkeypatch, 7, coeffs, x_samples, profile, 12, p_grid, eps)
        assert_same_report(got, want)
        assert evaluated < len(x_samples) * mesh_rows  # the screen decided blocks

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_eps_on_values_of_abs_A_fall_back(self, monkeypatch, d, seed):
        profile, coeffs, x_samples, _ = random_real_case(seed, d)
        p_grid = midpoints(64)
        absA = per_point_symbols(coeffs, x_samples, profile, 8, p_grid)
        eps = tie_eps(absA, 16)
        got, want, evaluated = screened_and_exact(
            monkeypatch, 5, coeffs, x_samples, profile, 8, p_grid, eps)
        assert_same_report(got, want)
        cell = float(p_grid[1] - p_grid[0])
        assert np.array_equal(got.measures, cell * np.array(
            [[sorted_counts(a, eps) for a in per_x] for per_x in absA]))
        assert evaluated > 0

    def test_eps_below_the_margin_falls_back(self, monkeypatch):
        # A = p (2 pi i xi_1 - 2 (2 pi xi_2)^2) is 0 at the midpoint p = 0
        # only: for eps below the margin the screen can be sure of nothing,
        # so only the exact path counts that one cell
        p_grid = midpoints(33)
        assert 0.0 in p_grid
        coeffs = [lambda x, p: p, lambda x, p: -p]
        eps = (1e-300, 1e-200, 1e-20)
        mesh_rows = len(mesh_P(PROFILES[2], 16)[0])
        got, want, evaluated = screened_and_exact(
            monkeypatch, 4, coeffs, [np.zeros(2)], PROFILES[2], 16, p_grid, eps)
        assert_same_report(got, want)
        assert np.all(got.measures == p_grid[1] - p_grid[0])
        assert evaluated == mesh_rows

    def test_complex_coefficients_take_the_exact_path(self, monkeypatch):
        profile, p_grid, eps = PROFILES[3], midpoints(64), (0.01, 0.1, 0.5, 1.0)
        mesh_rows = len(mesh_P(profile, 16)[0])
        evaluated = spy_scan(monkeypatch)
        nondegeneracy_scan([1.0, lambda x, p: p + 0.5j, lambda x, p: p * p],
                           [np.zeros(3)], profile, 16, p_grid, eps)
        assert sum(evaluated) == mesh_rows
        # real values held as complex numbers are screened
        evaluated.clear()
        nondegeneracy_scan([1.0 + 0j, lambda x, p: p + 0j, lambda x, p: p * p],
                           [np.zeros(3)], profile, 16, p_grid, eps)
        assert evaluated == []

    def test_exact_path_holds_one_sum_and_one_term(self, monkeypatch):
        # complex coefficients take the exact path, principal_symbol of each
        # block: at most two (rows, p) complex arrays live at once, the sum
        # so far and one term, besides the (eps, rows, p) bool stack and
        # arrays of the mesh, of p and of the measures, a quarter of one
        # complex term at most
        profile, p_grid, eps = PROFILES[3], midpoints(4096), (0.01, 0.1, 0.5, 1.0)
        rows = 64
        small_blocks(monkeypatch, rows, p_grid.size, len(eps))
        evaluated = spy_scan(monkeypatch)
        tracemalloc.start()
        try:
            nondegeneracy_scan([1.0, lambda x, p: p + 0.5j, lambda x, p: p * p],
                               [np.zeros(3)], profile, 16, p_grid, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(evaluated) == len(mesh_P(profile, 16)[0]) > rows
        block = rows * p_grid.size
        assert peak <= (2 * 16 + len(eps)) * block + 4 * block

    @pytest.mark.parametrize("alpha, planes", [
        ((1.0, 1.0, 1.0), 1), ((2.0, 2.0, 2.0), 1),
        ((1.0, 2.0), 2), ((0.5, 1.5), 2)])
    def test_a_factor_plane_is_left_out_when_it_is_zero(self, monkeypatch, alpha,
                                                        planes):
        # all-odd integer orders give imaginary factors F_k, all-even ones
        # real F_k: one GEMM a block; mixed or fractional orders take two
        profile = AnisotropyProfile(alpha)
        d = profile.d
        p_grid, eps = midpoints(64), (0.01, 0.1, 0.5)
        coeffs = [1.0] + [lambda x, p: p] * (d - 1)
        gemms = []
        matmul = np.matmul

        def spy(*args, **kwargs):
            gemms.append(np.shape(args[0]))
            return matmul(*args, **kwargs)

        monkeypatch.setattr(averaging.np, "matmul", spy)
        got, want, _ = screened_and_exact(monkeypatch, 7, coeffs, [np.zeros(d)],
                                          profile, 16, p_grid, eps)
        assert_same_report(got, want)
        mesh_rows = len(mesh_P(profile, 16)[0])
        assert mesh_rows % 7 != 0
        assert len(gemms) == planes * -(-mesh_rows // 7)
        assert all(shape[1] == d for shape in gemms)

    def test_catalog_config_never_evaluates_the_exact_symbol(self, monkeypatch,
                                                             tmp_path):
        evaluated = spy_scan(monkeypatch)
        code, _ = run_config(tmp_path, catalog_nondegeneracy_config(), "catalog")
        assert code == 0
        assert evaluated == []

    def test_exact_path_calls_principal_symbol_once_per_block(self, monkeypatch):
        # complex coefficients: every block of every x sample is counted
        # from one principal_symbol call on its mesh rows
        profile, p_grid, eps = PROFILES[3], midpoints(64), (0.01, 0.1, 0.5, 1.0)
        mesh_rows = len(mesh_P(profile, 16)[0])
        small_blocks(monkeypatch, 7, p_grid.size, len(eps))
        calls = spy_principal_symbol(monkeypatch)
        x_samples = [np.zeros(3), np.full(3, 0.25)]
        nondegeneracy_scan([1.0, lambda x, p: p + 0.5j, lambda x, p: p * p],
                           x_samples, profile, 16, p_grid, eps)
        blocks = [min(7, mesh_rows - i) for i in range(0, mesh_rows, 7)]
        assert mesh_rows % 7 != 0
        assert calls == [(None, (n, 1, 3)) for _ in x_samples for n in blocks]

    @pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
    def test_catalog_config_never_calls_principal_symbol(self, monkeypatch,
                                                         tmp_path, tiny):
        calls = spy_principal_symbol(monkeypatch)
        code, _ = run_config(tmp_path, catalog_nondegeneracy_config(tiny), "catalog")
        assert code == 0
        assert calls == []

    def test_cli_threshold_below_the_margin_reaches_principal_symbol(
            self, monkeypatch, tmp_path, capsys):
        # a CLI route into the exact path with real coefficients: A is 0 at
        # the midpoint p = 0 of 129, where eps = 1e-300, below the screen's
        # margin, is neither sure nor ruled out, so every block falls back
        cfg = catalog_nondegeneracy_config()
        cfg["params"].update(a=["p", "p*p", "p*p*p"], eps_list=[1e-300, 0.01, 0.5],
                             p_points=129, resolution=16)
        calls = spy_principal_symbol(monkeypatch)
        screened = run_config(tmp_path, cfg, "screened")
        assert screened[0] == 0
        mesh_rows = len(mesh_P(AnisotropyProfile((1.0, 1.0, 1.0)), 16)[0])
        assert sum(shape[0] for _, shape in calls) == mesh_rows
        monkeypatch.undo()
        spy_scan(monkeypatch, screened=False)
        assert screened == run_config(tmp_path, cfg, "exact")
        # one cell, p = 0, at every mesh point
        sup = json.loads(screened[1]["nondegeneracy.json"])["sup_measure"]
        assert sup[0] == pytest.approx(2 / 129, rel=1e-12)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("a, eps", [
        (["1e160", "p", "p*p"], [1e150, 1e159, 1e161]),
        (["1e160*p", "1e160", "p*p"], [1e150, 1e159, 1e161]),
        # thresholds whose squares overflow
        (["1.0", "p", "p*p"], [0.5, 1e200, 1e300]),
    ])
    def test_huge_values_publish_the_exact_path_bytes(self, monkeypatch, tmp_path,
                                                      capsys, a, eps):
        cfg = catalog_nondegeneracy_config()
        cfg["params"].update(a=a, eps_list=eps, p_points=128, resolution=16)
        screened = run_config(tmp_path, cfg, "screened")
        spy_scan(monkeypatch, screened=False)
        assert screened == run_config(tmp_path, cfg, "exact")
        assert screened[0] == 0
        assert capsys.readouterr().err == ""


class TestGridChecks:
    @pytest.mark.parametrize("grid", [
        midpoints(64)[::-1],                        # descending
        np.r_[midpoints(8)[:4], midpoints(8)[4:] + 1e-6],  # one step longer
        np.geomspace(1.0, 2.0, 16),                 # not uniform
        np.array([0.0, 0.5, 0.5, 1.0]),             # a repeated point
        np.array([0.0, 0.5, np.inf]),
        np.array([np.nan, 0.5, 1.0]),
        np.zeros((2, 2)),
        np.array([0.5]),
    ])
    def test_scans_reject_grids_that_are_not_uniform_midpoints(self, grid):
        with pytest.raises(DomainError, match="p_grid"):
            nondegeneracy_scan([1.0, lambda x, p: p], [np.zeros(2)], PROFILES[2],
                               8, grid, (0.1, 1.0))
        flux = flux_from_name("burgers-heat")
        with pytest.raises(DomainError, match="lambda_grid"):
            up_nondegeneracy_scan(flux, [None], UPManifold(flux.d, flux.l_split),
                                  grid, (0.1, 1.0), resolution=8)

    def test_descending_grid_published_a_negative_measure(self):
        # what the unchecked cell measure grid[1] - grid[0] gave before
        with pytest.raises(DomainError, match="strictly increasing"):
            nondegeneracy_scan([1.0, lambda x, p: p], [np.zeros(2)], PROFILES[2],
                               16, midpoints(64)[::-1], (0.1, 1.0))

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(allow_nan=False, allow_infinity=False),
           width=st.floats(min_value=5e-324, allow_infinity=False),
           count=st.sampled_from([2, 3, 7, 64, 256, 1001, 4096]))
    def test_every_grid_of_distinct_midpoints_passes(self, lo, width, count):
        hi = lo + width
        if not (lo < hi and np.isfinite(hi - lo)):
            return
        with np.errstate(all="ignore"):
            grid = cli._midpoints((lo, hi), "params.p_interval", count,
                                  "params.p_points")
        if np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0):
            assert _cell_width(grid, "p_grid") == grid[1] - grid[0]

    @pytest.mark.parametrize("interval", [(-1.0, 1.0), (-1e300, 1e300),
                                          (1e-300, 3e-300), (0.0, 1e-310),
                                          (-2.0 ** 1000, -2.0 ** 999),
                                          (1e15, 1e15 + 1e5)])
    def test_extreme_intervals_pass(self, interval):
        for count in (2, 3, 64, 1024):
            grid = cli._midpoints(interval, "params.p_interval", count,
                                  "params.p_points")
            assert _cell_width(grid, "p_grid") == grid[1] - grid[0]


def shell_samples_one_at_a_time(profile, j, count):
    """The certifier's shell as it was drawn before: one direction, one
    projection and one lift per sample."""
    rng = np.random.Generator(np.random.Philox(key=abs(j) * 2 + (j < 0) + 7))
    pts = []
    while len(pts) < count:
        v = rng.standard_normal(profile.d)
        v /= np.linalg.norm(v)
        if np.min(np.abs(v)) < 0.05:
            continue
        qn = 2.0 ** (j + (len(pts) + 0.5) / count)
        pts.append(fibre_point(project_to_P(v, profile), qn ** profile.l, profile))
    return np.asarray(pts)


class TestShellSamples:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("count", [5, 48, 96])
    def test_bitwise_one_at_a_time(self, d, count):
        profile = PROFILES[d]
        for j in range(-8, 8):
            got = _shell_samples(profile, j, count)
            want = shell_samples_one_at_a_time(profile, j, count)
            assert got.shape == (count, d)
            assert np.array_equal(got, want), j

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_vectorised_norm_is_linalg_norm(self, d):
        v = np.random.Generator(np.random.Philox(key=11)).standard_normal((4096, d))
        want = np.array([np.linalg.norm(row) for row in v])
        assert np.array_equal(np.sqrt(np.vecdot(v, v)), want)


def up_scan_per_point(flux, manifold, lam, eps_list, resolution):
    """up_symbol at one manifold point at a time, counted by a sort."""
    cell = float(lam[1] - lam[0])
    return cell * np.array([[sorted_counts(np.abs(up_symbol(None, xi, lam, flux)),
                                           eps_list)
                             for xi in manifold.mesh(resolution)]])


def quadratic_flux(d, l_split):
    """f = lam f1 + lam^2/2 f2 and B = lam^2/2 B1, with B1 a random symmetric
    matrix that is zero off the parabolic block: the symbol depends on lam
    and has a diffusive part."""
    r = np.random.default_rng(17)
    f1, f2 = r.standard_normal((2, d))
    B1 = r.standard_normal((d, d))
    B1 = B1 + B1.T
    B1[:l_split] = 0.0
    B1[:, :l_split] = 0.0

    def poly(lam, *coefs):
        """sum_k lam^k coefs[k], with lam.shape leading."""
        lam = np.asarray(lam, dtype=float)[(...,) + (None,) * coefs[0].ndim]
        return sum(lam ** k * c for k, c in enumerate(coefs))

    zf, zB = np.zeros(d), np.zeros((d, d))
    return FluxPair(f"quadratic-{d}d", d, l_split,
                    f=lambda x, lam: poly(lam, zf, f1, f2 / 2),
                    B=lambda x, lam: poly(lam, zB, zB, B1 / 2),
                    dlam_f=lambda x, lam: poly(lam, f1, f2),
                    dlam_B=lambda x, lam: poly(lam, zB, B1))


class TestUpScan:
    @pytest.mark.parametrize("make", [
        lambda: flux_from_name("burgers-heat"),
        lambda: flux_from_name("linear-transport", d=2, velocity=(3.0, 1.0)),
        lambda: quadratic_flux(2, 1),
        lambda: quadratic_flux(3, 1),
    ])
    def test_measures_unchanged(self, monkeypatch, make):
        flux = make()
        manifold = UPManifold(flux.d, flux.l_split)
        lam = midpoints(200)
        absA = np.array([np.abs(up_symbol(None, xi, lam, flux))
                         for xi in manifold.mesh(16)])
        eps = tie_eps(absA)
        small_blocks(monkeypatch, 5, lam.size, len(eps))
        rep = up_nondegeneracy_scan(flux, [None], manifold, lam, eps,
                                    resolution=16)
        assert np.array_equal(rep.measures,
                              up_scan_per_point(flux, manifold, lam, eps, 16))
