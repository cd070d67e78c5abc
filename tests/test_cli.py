import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hpm import cli
from hpm.errors import ConfigError, IntegrityError, SupportWarning
from hpm.spectral import SpectralGrid, band_limited_field, read_field

# fuzzed velocity weights may touch the boundary of the velocity box, which
# only warns
pytestmark = pytest.mark.filterwarnings("ignore::hpm.errors.SupportWarning")


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def base_config(command="project", **overrides):
    cfg = {
        "command": command,
        "grid": {"n": [16, 16], "L": [1.0, 1.0]},
        "profile": {"alpha": [1.0, 1.0]},
        "seed": 7,
        "params": {"points": [[3.0, 4.0], [-1.0, 2.0]]},
    }
    cfg.update(overrides)
    return cfg


def run_cli(command, cfg_path, out_dir):
    return cli.main([command, "--config", cfg_path, "--out", str(out_dir)])


def snapshot(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestDeterminism:
    CONFIGS = {
        "project": base_config(),
        "multiplier-apply": base_config(
            "multiplier-apply",
            params={"operation": "projected", "symbol": "coordinate:0"}),
        "multiplier-check": base_config(
            "multiplier-check", params={"symbol": "coordinate:1", "shells": 3,
                                        "samples_per_shell": 8}),
        "hmeasure": base_config(
            "hmeasure", grid={"n": [32, 32], "L": [1.0, 1.0]},
            params={"generator": {"kind": "oscillation", "c": [1.0, 0.0]},
                    "n_list": [4, 6, 8], "x_cells": 2, "p_cells": 8}),
        "averaging": base_config(
            "averaging",
            grid={"n": [8, 32], "L": [1.0, 1.0], "n_p": [16], "P_len": [1.0]},
            params={"a": ["1.0", "p1"], "rho": "cos(pi*p1)**2",
                    "t": 0.5, "n_list": [2, 4, 8]}),
        "nondegeneracy": base_config(
            "nondegeneracy",
            params={"a": ["1.0", "p"], "eps_list": [0.05, 0.2],
                    "p_points": 64, "resolution": 16}),
        "kinetic": base_config(
            "kinetic", params={"flux": "burgers-heat",
                               "lambda": {"points": 64}, "resolution": 16}),
    }

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_rerun_byte_identical(self, command, tmp_path):
        cfg_path = write_config(tmp_path, self.CONFIGS[command])
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert run_cli(command, cfg_path, out1) == 0
        assert run_cli(command, cfg_path, out2) == 0
        s1, s2 = snapshot(out1), snapshot(out2)
        assert s1.keys() == s2.keys() and len(s1) >= 1
        for name in s1:
            assert s1[name] == s2[name], f"artifact {name} differs across reruns"


class TestManifest:
    def test_contains_derived_exponent(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run_cli("project", cfg_path, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["profile"]["l"] == 3
        assert manifest["seed"] == 7
        assert manifest["grid"]["n"] == [16, 16]

    def test_projection_csv_values(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        run_cli("project", cfg_path, out)
        lines = (out / "projections.csv").read_text().splitlines()
        assert lines[0] == "xi_0,xi_1,proj_0,proj_1"
        first = [float(v) for v in lines[1].split(",")]
        assert abs(first[2] - 0.6670) <= 1e-4
        assert abs(first[3] - 0.8893) <= 1e-4


class TestMultiplierCheck:
    def test_constant_symbol_reports_one(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(
            "multiplier-check",
            params={"symbol": "one", "shells": 3, "samples_per_shell": 8}))
        out = tmp_path / "out"
        assert run_cli("multiplier-check", cfg_path, out) == 0
        rep = json.loads((out / "marcinkiewicz.json").read_text())
        assert float(rep["constant"]) == 1.0
        assert rep["diverged"] is False


class TestMultiplierApply:
    @pytest.mark.parametrize("params", [
        {"operation": "projected", "symbol": "coordinate:0"},
        {"operation": "fractional", "axis": 1, "order": 0.5},
        {"operation": "smoothing", "cutoff_radius": 4.0},
    ], ids=lambda p: p["operation"])
    def test_norms_are_those_of_the_fields(self, tmp_path, params):
        # the norms are taken on the bands (Plancherel); the written field
        # and the inverse of the drawn band have them to rounding
        cfg = base_config("multiplier-apply", grid={"n": [64, 32], "L": [1.0, 2.0]},
                          profile={"alpha": [1.0, 2.0]}, params=params)
        out = tmp_path / "out"
        assert run_cli("multiplier-apply", write_config(tmp_path, cfg), out) == 0
        norms = {k: float(v) for k, v in
                 json.loads((out / "norms.json").read_text()).items()}
        grid = SpectralGrid((64, 32), (1.0, 2.0))
        drawn = band_limited_field(grid, np.random.Generator(np.random.Philox(key=7)))
        assert norms["input_l2"] == pytest.approx(drawn.norm_l2(), rel=1e-13)
        written = read_field(out / "output.fld")
        assert norms["output_l2"] == pytest.approx(written.norm_l2(), rel=1e-13)

    def test_peak_below_one_and_a_half_full_grid_arrays(self, tmp_path):
        # the catalog benchmark's config: a 512^2 grid whose drawn band is
        # 129^2; only the output band is inverted, in place in the output
        cfg = base_config("multiplier-apply", grid={"n": [512, 512], "L": [1.0, 1.0]},
                          profile={"alpha": [1.0, 2.0]},
                          params={"operation": "projected", "symbol": "coordinate:0"})
        cfg_path = write_config(tmp_path, cfg)
        tracemalloc.start()
        try:
            code = run_cli("multiplier-apply", cfg_path, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1.5 * 16 * 512 ** 2


class TestErrorHandling:
    def test_empty_alpha_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(profile={"alpha": []}))
        assert run_cli("project", cfg_path, tmp_path / "out") == 2
        assert "alpha" in capsys.readouterr().err

    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys):
        cfg = base_config()
        cfg["bogus"] = 1
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli("project", cfg_path, tmp_path / "out") == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_param_key_exits_2(self, tmp_path):
        cfg = base_config(params={"points": [[1.0, 1.0]], "extra": 1})
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli("project", cfg_path, tmp_path / "out") == 2

    def test_bad_json_reports_line_number(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{\n "command": "project",\n oops\n}\n')
        assert run_cli("project", str(path), tmp_path / "out") == 2
        assert "line 3" in capsys.readouterr().err

    def test_command_mismatch_exits_2(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        assert run_cli("kinetic", cfg_path, tmp_path / "out") == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run_cli("project", str(tmp_path / "nope.json"),
                       tmp_path / "out") == 2

    @pytest.mark.parametrize("data", [
        b"\xff\xfe{}",
        b"[" * 100000,
        b'{"command": "project", "grid": {"n": [16, 16], "L": [1.0, 1.0]}, '
        b'"profile": {"alpha": [1.0, 1.0]}, "seed": ' + b"1" * 5000 + b"}",
    ], ids=["not-utf8", "nested-past-the-recursion-limit", "seed-past-4300-digits"])
    def test_unparsable_config_file_exits_2(self, tmp_path, capsys, data):
        path = tmp_path / "cfg.json"
        path.write_bytes(data)
        out = tmp_path / "out"
        assert run_cli("project", str(path), out) == 2
        err = capsys.readouterr().err
        assert err.startswith("hpm: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unsafe_expression_rejected(self, tmp_path, capsys):
        cfg = base_config(
            "nondegeneracy",
            params={"a": ["__import__('os')", "p"], "eps_list": [0.1],
                    "p_points": 16, "resolution": 16})
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli("nondegeneracy", cfg_path, tmp_path / "out") == 2
        assert "not allowed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_exits_3(self, tmp_path, capsys):
        cfg = TestDeterminism.CONFIGS["averaging"]
        cfg = dict(cfg, params=dict(cfg["params"], rho="p1/0"))
        cfg_path = write_config(tmp_path, cfg)
        assert run_cli("averaging", cfg_path, tmp_path / "out") == 3
        assert "non-finite" in capsys.readouterr().err

    def test_zero_average_exits_3(self, tmp_path, capsys):
        # rho = 0: every norm is 0, so no ratio to n_min is defined
        cfg = TestDeterminism.CONFIGS["averaging"]
        cfg = dict(cfg, params=dict(cfg["params"], rho="0"))
        out = tmp_path / "out"
        assert run_cli("averaging", write_config(tmp_path, cfg), out) == 3
        err = capsys.readouterr().err
        assert err.startswith("hpm: integrity failure: ") and "n_min = 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["1e-300", "1e300"])
    def test_tiny_or_huge_weight_gives_the_unit_weight_ratios(self, tmp_path, scale):
        # the squares of the windowed averages would under- or overflow
        cfg = TestDeterminism.CONFIGS["averaging"]
        rho = cfg["params"]["rho"]
        ratios = {}
        for name, weight in (("unit", rho), ("scaled", f"{scale}*{rho}")):
            scaled = dict(cfg, params=dict(cfg["params"], rho=weight))
            out = tmp_path / name
            assert run_cli("averaging", write_config(tmp_path, scaled), out) == 0
            rows = (out / "decay.csv").read_text().splitlines()[1:]
            ratios[name] = [float(row.split(",")[2]) for row in rows]
        for r, r1 in zip(ratios["scaled"], ratios["unit"], strict=True):
            assert abs(r - r1) <= 2 * np.spacing(r1)

    # the commands that project every frequency of the 32^2 lattice (the
    # P-masks) or of the drawn band's box onto P
    LATTICE_32 = {"n": [32, 32], "L": [1.0, 1.0]}
    PROJECTING = {
        "hmeasure": TestDeterminism.CONFIGS["hmeasure"],
        "projected": base_config("multiplier-apply", grid=LATTICE_32, params={
            "operation": "projected", "symbol": "coordinate:0"}),
        "smoothing": base_config("multiplier-apply", grid=LATTICE_32, params={
            "operation": "smoothing", "cutoff_radius": 4.0}),
    }

    @pytest.mark.parametrize("alpha", [[1.0, 400.0], [1e-20, 1.0]])
    @pytest.mark.parametrize("config", sorted(PROJECTING))
    def test_constraint_sum_overflow_exits_2(self, tmp_path, capsys, config, alpha):
        # sum_k |xi_k|^(l alpha_k) overflows at the largest frequencies
        cfg = dict(self.PROJECTING[config], profile={"alpha": alpha})
        out = tmp_path / "out"
        assert run_cli(cfg["command"], write_config(tmp_path, cfg), out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hpm: profile.alpha = {alpha}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("alpha", [[1.0, 400.0], [1e-20, 1.0]])
    def test_fractional_derivative_ignores_the_profile(self, tmp_path, alpha):
        cfg = base_config("multiplier-apply", grid=self.LATTICE_32,
                          profile={"alpha": alpha},
                          params={"operation": "fractional", "axis": 1, "order": 0.5})
        assert run_cli("multiplier-apply", write_config(tmp_path, cfg),
                       tmp_path / "out") == 0

    def test_output_dir_key_exits_2(self, tmp_path, capsys):
        # --out (or the current directory) is the only output directory
        cfg = base_config(output_dir=str(tmp_path / "elsewhere"))
        assert run_cli("project", write_config(tmp_path, cfg), tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == "hpm: unknown keys in config: ['output_dir']\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("tiny", [1e-308, 5e-324])
    def test_alpha_too_small_for_l_exits_2(self, tmp_path, capsys, tiny):
        # d / alpha_k overflows, so no integer l exists
        cfg_path = write_config(tmp_path, base_config(profile={"alpha": [tiny, 1.0]}))
        assert run_cli("project", cfg_path, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hpm: derivative order {tiny!r} is too small")
        assert err.count("\n") == 1

    def test_seed_outside_philox_keys_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(seed=-1))
        assert run_cli("project", cfg_path, tmp_path / "out") == 2
        assert "seed" in capsys.readouterr().err

    def test_malformed_grid_entry_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(
            grid={"n": [16, "x"], "L": [1.0, 1.0]}))
        assert run_cli("project", cfg_path, tmp_path / "out") == 2
        assert "invalid grid" in capsys.readouterr().err

    def test_integrity_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def boom(grid, profile, params, rng, out):
            raise IntegrityError("synthetic failure")
        monkeypatch.setitem(cli._RUNNERS, "project", boom)
        cfg_path = write_config(tmp_path, base_config())
        assert run_cli("project", cfg_path, tmp_path / "out") == 3
        assert "integrity" in capsys.readouterr().err

    # the module's filter ignores SupportWarnings; here the default shows them
    @pytest.mark.filterwarnings("default::hpm.errors.SupportWarning")
    def test_support_warnings_become_one_line_each(self, tmp_path, monkeypatch, capsys):
        def warns(grid, profile, params, rng, out):
            for message in ("edge", "edge", "face"):
                warnings.warn(message, SupportWarning)
            warnings.warn("other", UserWarning)
        monkeypatch.setitem(cli._RUNNERS, "project", warns)
        cfg_path = write_config(tmp_path, base_config())
        # a warning of another category reaches Python's warning machinery
        with pytest.warns(UserWarning, match="other") as caught:
            assert run_cli("project", cfg_path, tmp_path / "out") == 0
        assert not [w for w in caught if issubclass(w.category, SupportWarning)]
        assert capsys.readouterr().err == "hpm: warning: edge\nhpm: warning: face\n"

    @pytest.mark.filterwarnings("default::hpm.errors.SupportWarning")
    def test_failed_run_prints_no_warning(self, tmp_path, monkeypatch, capsys):
        def warns_then_fails(grid, profile, params, rng, out):
            warnings.warn("edge", SupportWarning)
            raise IntegrityError("synthetic failure")
        monkeypatch.setitem(cli._RUNNERS, "project", warns_then_fails)
        cfg_path = write_config(tmp_path, base_config())
        assert run_cli("project", cfg_path, tmp_path / "out") == 3
        assert capsys.readouterr().err == "hpm: integrity failure: synthetic failure\n"


class TestHelpers:
    def test_emit_plotdata_header_only_when_empty(self, tmp_path):
        path = tmp_path / "empty.dat"
        cli.emit_plotdata([], ["a", "b"], path)
        assert path.read_text() == "# a b\n"

    def test_fmt_roundtrips(self):
        assert cli._fmt(0.1) == repr(0.1)

    def test_json_rejects_non_finite(self, tmp_path):
        with pytest.raises(IntegrityError):
            cli._write_json(tmp_path / "x.json", {"norm": float("nan")})

    def test_safe_expr_numeric_literal(self):
        fn = cli._safe_expr(2.5, ["p"])
        assert fn(p=0.0) == 2.5

    def test_safe_expr_rejects_unknown_name(self):
        with pytest.raises(ConfigError):
            cli._safe_expr("q + 1", ["p"])


def row_writer(path, header, rows, sep):
    """The row writer the column writer replaced, kept as its oracle:
    Python ints by str, an all-float column once per bit pattern."""
    def column(col):
        if all(isinstance(c, float) for c in col):
            uniq, inv = np.unique(np.array(col).view(np.int64), return_inverse=True)
            text = [cli._fmt(v) for v in uniq.view(float).tolist()]
            return [text[i] for i in inv.tolist()]
        return [str(c) if isinstance(c, (int, str)) else cli._fmt(c) for c in col]

    cols = [column(col) for col in zip(*rows, strict=True)]
    path.write_text("\n".join(map(sep.join, [header, *zip(*cols)])) + "\n")


class TestColumnWriter:
    INTS = [3, 0, -7, 2 ** 30, 3, 0]
    BIG = [4, 10 ** 23, 2 ** 63, 5, 4, -(2 ** 70)]  # beyond int64
    FLOATS = [0.0, -0.0, 1e-300, -2.5, 0.1, -0.0]

    @pytest.mark.parametrize("sep", [",", " "])
    @pytest.mark.parametrize("int_dtype", [np.int64, np.int32, object])
    def test_same_bytes_as_the_row_writer(self, tmp_path, sep, int_dtype):
        header = ["i", "f", "big", "g"]
        rows = list(zip(self.INTS, self.FLOATS, self.BIG, self.FLOATS[::-1]))
        row_writer(tmp_path / "rows", header, rows, sep)
        cli._write_csv(tmp_path / "columns", header,
                       [np.array(self.INTS, dtype=int_dtype), np.array(self.FLOATS),
                        np.array(self.BIG, dtype=object), np.array(self.FLOATS[::-1])],
                       sep)
        text = (tmp_path / "columns").read_bytes()
        assert text == (tmp_path / "rows").read_bytes()
        assert text.splitlines()[2] == sep.join(["0", "-0.0", str(10 ** 23), "0.1"]).encode()

    def test_strided_float_column(self, tmp_path):
        pts = np.array([[1.0, -0.0], [0.0, 2.0], [1.0, 3.0]])
        cli._write_csv(tmp_path / "x.csv", ["a", "b"], [*pts.T])
        assert (tmp_path / "x.csv").read_text() == "a,b\n1.0,-0.0\n0.0,2.0\n1.0,3.0\n"

    def test_empty_columns_write_the_header_alone(self, tmp_path):
        cli._write_csv(tmp_path / "x.csv", ["a", "b"],
                       [np.array([], dtype=np.int64), np.array([])])
        assert (tmp_path / "x.csv").read_text() == "a,b\n"

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "x.csv", ["a", "b"],
                           [np.arange(3), np.zeros(2)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_is_an_integrity_failure(self, tmp_path, bad):
        with pytest.raises(IntegrityError, match="non-finite"):
            cli._write_csv(tmp_path / "x.csv", ["a"], [np.array([1.0, bad])])


def leaf_paths(obj, path=()):
    """The key path of every scalar in a JSON object, lists descended."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, value in items:
            yield from leaf_paths(value, path + (key,))
    else:
        yield path


class TestParamsLeafContract:
    """Every leaf of a small config of each command, replaced by one
    hostile value at a time: the run exits 0, 2 or 3, writes at most one
    line to stderr and no traceback, and a failed run leaves no output
    directory."""

    BASES = {
        "project": base_config(),
        "hmeasure": base_config("hmeasure", params={
            "generator": {"kind": "oscillation", "c": [1.0, 0.0]},
            "n_list": [2, 3, 4], "x_cells": 2, "p_cells": 4}),
        "averaging": base_config(
            "averaging", grid={"n": [8, 8], "L": [1.0, 1.0], "n_p": [8], "P_len": [1.0]},
            params={"a": ["1.0", "p1"], "rho": "cos(pi*p1)**2", "t": 0.5,
                    "n_list": [2, 3], "window": [[0.25, 0.75], [0.0, 0.5]],
                    "oscillation_axis": 1}),
        "kinetic": base_config("kinetic", params={
            "flux": "linear-transport", "velocity": [1.0, 0.5],
            "lambda": {"min": -1.0, "max": 1.0, "points": 8},
            "eps_list": [0.05, 0.2], "resolution": 8}),
        "projected": base_config("multiplier-apply", params={
            "operation": "projected", "symbol": "coordinate:0",
            "band_fraction": 0.5}),
        "fractional": base_config("multiplier-apply", params={
            "operation": "fractional", "axis": 1, "order": 0.5,
            "band_fraction": 0.5}),
        "smoothing": base_config("multiplier-apply", params={
            "operation": "smoothing", "cutoff_radius": 2.0, "band_fraction": 0.5}),
        "multiplier-check": base_config("multiplier-check", params={
            "symbol": "bump:center=[0.5,0.5],width=0.6", "shells": 3,
            "samples_per_shell": 4}),
        "nondegeneracy": base_config("nondegeneracy", params={
            "a": ["1.0", "p*p"], "eps_list": [0.05, 0.2], "p_interval": [-1.0, 1.0],
            "p_points": 16, "resolution": 8, "x_samples": [[0.0, 0.5]]}),
    }
    VALUES = [1e308, -1e308, 5e-324, 10 ** 30, -(10 ** 30), -1, 0, "x", True,
              None, [], [1.0]]

    @classmethod
    def _check_leaf(cls, tmp_path, capsys, base, path, value, tag):
        cfg = json.loads(json.dumps(base))
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cls._check_run(tmp_path, capsys, base["command"], cfg,
                       f"{list(path)} = {value!r}", tag)

    @staticmethod
    def _check_run(tmp_path, capsys, command, cfg, where, tag):
        """Run cfg as `command` (its own command leaf may be the hostile
        value) under the contract; its exit code and stderr."""
        out = tmp_path / f"out-{tag}"
        try:
            code = run_cli(command,
                           write_config(tmp_path, cfg, f"{tag}.json"), out)
        except BaseException as exc:  # noqa: BLE001 - the contract is no escape
            pytest.fail(f"{where}: {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3), where
        assert err.count("\n") <= 1 and "Traceback" not in err, (where, err)
        assert out.exists() == (code == 0), where
        return code, err

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_every_leaf_exits_0_2_or_3_cleanly(self, tmp_path, capsys, name):
        base = self.BASES[name]
        assert run_cli(base["command"], write_config(tmp_path, base),
                       tmp_path / "base") == 0
        for i, path in enumerate(leaf_paths(base["params"], ("params",))):
            for j, value in enumerate(self.VALUES):
                self._check_leaf(tmp_path, capsys, base, path, value, f"{i}-{j}")

    # the same values in every leaf outside params: the grid, the profile,
    # the seed and the command
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_every_other_leaf_exits_0_2_or_3_cleanly(self, tmp_path, capsys, name):
        base = self.BASES[name]
        paths = [p for p in leaf_paths(base) if p[0] != "params"]
        assert {p[0] for p in paths} == {"command", "grid", "profile", "seed"}
        for i, path in enumerate(paths):
            for j, value in enumerate(self.VALUES):
                self._check_leaf(tmp_path, capsys, base, path, value, f"{i}-{j}")

    # each base on a grid with one velocity axis added; hmeasure, whose
    # fields are x-only, rejects it naming grid.n_p
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_velocity_axes_exit_0_2_or_3_cleanly(self, tmp_path, capsys, name):
        cfg = json.loads(json.dumps(self.BASES[name]))
        cfg["grid"].update({"n_p": [4], "P_len": [1.0]})
        code, err = self._check_run(tmp_path, capsys, cfg["command"], cfg,
                                    "grid.n_p = [4]", "velocity")
        if name == "hmeasure":
            assert code == 2 and "grid.n_p" in err

    # the same contract for one leaf of one base at a time, replaced by a
    # drawn value: a float of any magnitude (subnormal, NaN and infinite
    # included), an integer up to 10^40 in size, text, a boolean, null or
    # a nested list of these
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_drawn_leaf_values_exit_0_2_or_3_cleanly(self, capsys, data):
        base = self.BASES[data.draw(st.sampled_from(sorted(self.BASES)))]
        path = data.draw(st.sampled_from(list(leaf_paths(base["params"], ("params",)))))
        value = data.draw(st.recursive(
            st.one_of(_WIDE_FLOATS, st.floats(), st.integers(-10 ** 40, 10 ** 40),
                      st.text(max_size=8), st.booleans(), st.none()),
            lambda children: st.lists(children, max_size=3), max_leaves=6))
        with tempfile.TemporaryDirectory() as tmp:
            self._check_leaf(Path(tmp), capsys, base, path, value, "drawn")


class TestFailedRunLeavesNoOutput:
    def _failing(self, tmp_path):
        cfg = TestDeterminism.CONFIGS["averaging"]
        cfg = dict(cfg, params=dict(cfg["params"], rho="p1/0"))
        return write_config(tmp_path, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_new_output_dir_is_not_created(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("averaging", self._failing(tmp_path), out) == 3
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_existing_output_dir_is_unchanged(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("project", write_config(tmp_path, base_config(),
                                               "ok.json"), out) == 0
        (out / "notes.txt").write_text("kept\n")
        before = snapshot(out)
        assert run_cli("averaging", self._failing(tmp_path), out) == 3
        assert snapshot(out) == before

    def test_success_into_existing_dir_replaces_artifacts(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text("stale\n")
        (out / "notes.txt").write_text("kept\n")
        assert run_cli("project", write_config(tmp_path, base_config()), out) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 7
        assert (out / "notes.txt").read_text() == "kept\n"
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "notes.txt", "projections.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]

    def test_config_error_after_grid_leaves_nothing(self, tmp_path):
        cfg = base_config(params={"points": [[1.0]]})
        out = tmp_path / "deep" / "out"
        assert run_cli("project", write_config(tmp_path, cfg), out) == 2
        assert not out.exists()


class TestMalformedParams:
    HMEASURE = TestDeterminism.CONFIGS["hmeasure"]
    AVERAGING = TestDeterminism.CONFIGS["averaging"]

    def _exits_2(self, tmp_path, capsys, cfg, key, **params):
        cfg = dict(cfg, params=dict(cfg["params"], **params))
        out = tmp_path / "out"
        assert run_cli(cfg["command"], write_config(tmp_path, cfg), out) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        # the one error line and nothing else: no warning, no traceback
        assert err.startswith("hpm: ") and err.count("\n") == 1
        assert not out.exists()

    def test_x_cells_not_a_number(self, tmp_path, capsys):
        self._exits_2(tmp_path, capsys, self.HMEASURE, "x_cells", x_cells="many")

    def test_p_cells_not_an_integer(self, tmp_path, capsys):
        self._exits_2(tmp_path, capsys, self.HMEASURE, "p_cells", p_cells=2.5)

    @pytest.mark.parametrize("key, value", [("x_cells", 0), ("p_cells", 0),
                                            ("p_cells", -3)])
    def test_cell_count_not_positive(self, tmp_path, capsys, key, value):
        self._exits_2(tmp_path, capsys, self.HMEASURE, key, **{key: value})

    def test_window_with_wrong_interval_count(self, tmp_path, capsys):
        self._exits_2(tmp_path, capsys, self.AVERAGING, "window",
                      window=[[0.0, 0.5]] * 3)

    def test_window_interval_not_a_pair(self, tmp_path, capsys):
        self._exits_2(tmp_path, capsys, self.AVERAGING, "window",
                      window=[[0.0, 0.5], [0.5]])

    def test_window_without_a_grid_sample(self, tmp_path, capsys):
        # x_1 in [0.01, 0.02) holds none of the samples k/8 of the 8 x 32 grid
        self._exits_2(tmp_path, capsys, self.AVERAGING, "params.window",
                      window=[[0.01, 0.02], [0.0, 1.0]])

    def test_oscillation_axis_out_of_range(self, tmp_path, capsys):
        self._exits_2(tmp_path, capsys, self.AVERAGING, "oscillation_axis",
                      oscillation_axis=5)

    def test_t_not_a_number(self, tmp_path, capsys):
        self._exits_2(tmp_path, capsys, self.AVERAGING, "params.t", t="soon")

    def test_n_list_entry_not_a_number(self, tmp_path, capsys):
        self._exits_2(tmp_path, capsys, self.AVERAGING, "n_list", n_list=[2, "x"])

    CONFIGS = TestDeterminism.CONFIGS
    HMEASURE_3D = base_config(
        "hmeasure", grid={"n": [16, 16, 16], "L": [1.0, 1.0, 1.0]},
        profile={"alpha": [1.0, 1.0, 2.0]},
        params={"generator": {"kind": "oscillation", "c": [1.0, 0.0, 0.5]},
                "n_list": [2, 3, 4], "x_cells": 2, "p_cells": 8})
    MULTIPLIER_CHECK_12 = base_config(
        "multiplier-check", profile={"alpha": [1.0, 2.0]},
        params={"symbol": "coordinate:1", "shells": 3, "samples_per_shell": 8})
    KINETIC_3D = base_config(
        "kinetic", grid={"n": [8, 8, 8], "L": [1.0, 1.0, 1.0]},
        profile={"alpha": [1.0, 1.0, 1.0]},
        params={"flux": "linear-transport", "lambda": {"points": 16},
                "resolution": 8})

    def test_flux_of_the_grid_dimension_runs(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("kinetic", write_config(tmp_path, self.KINETIC_3D), out) == 0
        # a hyperbolic flux: no parabolic block to certify
        assert json.loads((out / "kinetic.json").read_text())["validation"][
            "ellipticity"] is None

    @pytest.mark.parametrize("command, params, needle", [
        ("kinetic", {"resolution": 0}, "resolution"),
        ("kinetic", {"resolution": -3}, "resolution"),
        ("kinetic", {"resolution": 7}, "resolution"),
        ("kinetic", {"flux": "linear-transport", "velocity": "x"},
         "params.velocity"),
        ("kinetic", {"eps_list": []}, "eps_list"),
        ("kinetic", {"lambda": {"min": 1.0, "max": 1.0}}, "params.lambda"),
        ("nondegeneracy", {"eps_list": []}, "eps_list"),
        ("nondegeneracy", {"x_samples": []}, "x_samples"),
        ("nondegeneracy", {"p_points": 1}, "params.p_points"),
        ("multiplier-check", {"samples_per_shell": 0}, "samples_per_shell"),
        ("multiplier-check", {"symbol": 3}, "3"),
        ("multiplier-check", {"symbol": "coordinate:x"}, "coordinate:x"),
        ("multiplier-check", {"symbol": "sector:axis=9"}, "sector:axis=9"),
        ("multiplier-check", {"symbol": "bump:width=0.2"}, "bump:width=0.2"),
        ("multiplier-check", {"symbol": "bump:center=[0.5,,],width=0.2"},
         "bump:center=[0.5,,],width=0.2"),
        ("hmeasure", {"generator": 5}, "params.generator"),
        ("hmeasure", {"n_list": [-8, -4, 8]}, "params.n_list"),
        ("hmeasure-3d", {"n_list": [-8, -4, 8]}, "params.n_list"),
        # new cases go last: the test ids number the cases in order
        ("nondegeneracy", {"p_interval": [1.0, -1.0]}, "params.p_interval"),
        ("nondegeneracy", {"p_interval": [0.0, 0.0]}, "params.p_interval"),
        # symbol parameters: width not finite or <= 0, center not finite,
        # a sector sign other than + or -
        *[("multiplier-check", {"symbol": name}, name) for name in (
            "bump:center=[0.5,0.5],width=0", "bump:center=[0.5,0.5],width=-1",
            "bump:center=[0.5,0.5],width=nan", "bump:center=[0.5,0.5],width=inf",
            "bump:center=[NaN,0.5],width=0.2", "bump:center=[0.5,Infinity],width=0.2",
            "sector:axis=0,sign=x", "sector:axis=1,sign=++")],
        # counts whose largest array would exceed the grid's sample bound
        ("hmeasure", {"x_cells": 10 ** 12}, "params.x_cells"),
        ("hmeasure", {"p_cells": 10 ** 12}, "params.p_cells"),
        ("multiplier-check", {"samples_per_shell": 10 ** 12}, "params.samples_per_shell"),
        ("nondegeneracy", {"resolution": 10 ** 12}, "params.resolution"),
        ("kinetic", {"resolution": 10 ** 12}, "params.resolution"),
        ("nondegeneracy", {"p_points": 10 ** 12}, "params.p_points"),
        ("kinetic", {"lambda": {"points": 10 ** 12}}, "params.lambda.points"),
        # an expression entry that is neither a string nor a number
        ("averaging", {"rho": [1]}, "params.rho must be"),
        ("averaging", {"a": ["1.0", [1]]}, "params.a[1] must be"),
        # dyadic shells beyond the float range for alpha (1, 2): the scan's
        # constraint sums overflow from 179, its fibre parameters from 340
        # and underflow to 0 from 359
        *[("multiplier-check-12", {"shells": s}, "params.shells")
          for s in (179, 340, 359, 10 ** 12)],
        # a band fraction outside (0, 1]
        *[("multiplier-apply", {"band_fraction": v}, "params.band_fraction")
          for v in (-1, 0, 5, 1e300)],
        # scan intervals whose width hi - lo overflows, a single lambda point
        ("nondegeneracy", {"p_interval": [-1e308, 1e308]}, "params.p_interval"),
        ("kinetic", {"lambda": {"min": -1e308, "max": 1e308}}, "params.lambda"),
        ("kinetic", {"lambda": {"points": 1}}, "params.lambda.points"),
        # a velocity for a flux that takes none
        ("kinetic", {"flux": "burgers-heat", "velocity": [1, 2]}, "params.velocity"),
        # points whose constraint sum overflows, or underflows below the
        # normal floor, have no projection onto P
        ("project", {"points": [[1e308, 1e308], [1e200, 1]]}, "params.points[0]"),
        ("project", {"points": [[3.0, 4.0], [1e200, 1]]}, "params.points[1]"),
        ("project", {"points": [[1e-320, 0]]}, "params.points[0]"),
        # a subnormal sum, 1e-321: its projection would miss P by 2e-3
        ("project", {"points": [[1e-107, 0]]}, "params.points[0]"),
        # too few sequence indices, or not increasing
        ("averaging", {"n_list": [4]}, "params.n_list"),
        ("averaging", {"n_list": []}, "params.n_list"),
        ("hmeasure", {"n_list": [8, 4, 2]}, "params.n_list"),
        ("hmeasure", {"n_list": [2, 4]}, "params.n_list"),
        # shells within the float range whose stacked level of samples
        # (2 * 178 + 4 shells of 2 * 200000 rows) would exceed the bound
        ("multiplier-check-12", {"shells": 178, "samples_per_shell": 200000},
         "params.samples_per_shell"),
        # a flux the registry does not hold, or one of another dimension
        ("kinetic", {"flux": "custom-tabulated"}, "unknown flux name 'custom-tabulated'"),
        ("kinetic-3d", {"flux": "burgers-heat"}, "params.flux 'burgers-heat' is 2-d"),
        # keys of another multiplier-apply operation, and operation names
        # that are not strings
        ("multiplier-apply", {"operation": "fractional", "symbol": "no-such-symbol",
                              "cutoff_radius": -5}, "['cutoff_radius', 'symbol']"),
        ("multiplier-apply", {"axis": 1, "order": 0.5}, "['axis', 'order']"),
        ("multiplier-apply", {"operation": "smoothing"}, "['symbol']"),
        ("multiplier-apply", {"operation": []}, "unknown operation []"),
        ("multiplier-apply", {"operation": {"a": 1}}, "unknown operation"),
        # the identity's lambda range is [-1, 1]: M is no key
        ("kinetic", {"M": 1.0}, "['M']"),
        # scans whose (x samples, mesh points, eps) measures would exceed
        # the bound: 2^26 mesh points of P, or of the manifold, times 5 eps
        # or 5 x samples
        *[(command, {"resolution": 2 ** 26, key: value}, f"params.{key}")
          for command, key, value in (
              ("nondegeneracy", "eps_list", [0.1, 0.2, 0.3, 0.4, 0.5]),
              ("nondegeneracy", "x_samples", [[0.0, 0.0]] * 5),
              ("kinetic", "eps_list", [0.1, 0.2, 0.3, 0.4, 0.5]))],
    ])
    def test_malformed_value_exits_2(self, tmp_path, capsys, command, params,
                                     needle):
        cfg = {**self.CONFIGS, "hmeasure-3d": self.HMEASURE_3D,
               "multiplier-check-12": self.MULTIPLIER_CHECK_12,
               "kinetic-3d": self.KINETIC_3D}[command]
        self._exits_2(tmp_path, capsys, cfg, needle, **params)

    def test_lambda_identity_runs_within_rounding(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("kinetic", write_config(tmp_path, self.CONFIGS["kinetic"]),
                       out) == 0
        assert capsys.readouterr().err == ""
        gap = json.loads((out / "kinetic.json").read_text())[
            "lambda_identity_max_error"]
        assert float(gap) <= 4 * 2.0 ** -53

    def test_n_list_past_the_row_bound_exits_2_before_the_draw(
            self, tmp_path, monkeypatch, capsys):
        # one x-cell and one P-cell, but 1,025 rows on 512^2 lattice points:
        # a 1025 x 262144 row stack, past the 2^28 bound; skipping 512 and
        # 1024 keeps every kappa(n) off the zero mode
        def never(*args, **kwargs):
            raise AssertionError("the run drew its envelope")

        monkeypatch.setattr(cli.spectral, "band_limited_spectrum", never)
        n_list = [n for n in range(1, 1028) if n not in (512, 1024)]
        assert len(n_list) == 1025
        cfg = base_config("hmeasure", grid={"n": [512, 512], "L": [1.0, 1.0]},
                          params={"generator": {"kind": "oscillation", "c": [1.0, 0.0]},
                                  "x_cells": 1, "p_cells": 1})
        self._exits_2(tmp_path, capsys, cfg, "params.n_list", n_list=n_list)

    def test_coefficients_past_the_bound_exit_2_before_the_scan(
            self, tmp_path, monkeypatch, capsys):
        # 16,384 x samples of (65,536, 1) complex coefficients each: 2^30
        # elements (16 GiB), past the 2^28 bound, while the (x samples, mesh
        # points, eps) measures are only 16,384 x 2 x 4
        def never(*args, **kwargs):
            raise AssertionError("the run started the scan")

        monkeypatch.setattr(cli.averaging, "nondegeneracy_scan", never)
        cfg = base_config("nondegeneracy", grid={"n": [16], "L": [1.0]},
                          profile={"alpha": [1.0]},
                          params={"a": ["p"], "x_samples": [[0.0]] * 16384,
                                  "p_points": 65536})
        out = tmp_path / "out"
        assert run_cli("nondegeneracy", write_config(tmp_path, cfg), out) == 2
        err = capsys.readouterr().err
        assert err.startswith("hpm: ") and err.count("\n") == 1
        assert "params.x_samples" in err and "params.p_points" in err
        assert not out.exists()

    def test_largest_shell_count_runs_clean(self, tmp_path, capsys):
        # 178 shells keep the alpha (1, 2) scan in the float range
        cfg = dict(self.MULTIPLIER_CHECK_12,
                   params=dict(self.MULTIPLIER_CHECK_12["params"], shells=178))
        out = tmp_path / "out"
        assert run_cli("multiplier-check", write_config(tmp_path, cfg), out) == 0
        assert capsys.readouterr().err == ""
        assert (out / "marcinkiewicz.json").exists()

    @pytest.mark.parametrize("section, value, needle", [
        ("grid", {"n": [16.9, 16], "L": [1.0, 1.0]}, "invalid grid: grid.n[0]"),
        ("grid", {"n": [16, 16], "L": ["1.0", 1.0]}, "invalid grid: grid.L[0]"),
        # JSON 1e400 reads as inf
        ("grid", {"n": [16, 16], "L": [float("inf"), 1.0]}, "invalid grid: grid.L[0]"),
        ("profile", {"alpha": ["2", 1.0]}, "profile.alpha[0]"),
        ("profile", {"alpha": [True, 1.0]}, "profile.alpha[0]"),
        ("profile", {"alpha": "11"}, "profile.alpha"),
        ("seed", True, "seed"),
    ])
    def test_grid_profile_and_seed_follow_the_number_rule(
            self, tmp_path, capsys, section, value, needle):
        self._exits_2(tmp_path, capsys, base_config(**{section: value}), needle)

    @pytest.mark.parametrize("alpha, c", [([1.0, 1.0], [1.7e308, 0.0]),
                                          ([0.01, 1.0], [1e300, 0.0])])
    def test_oscillation_frequency_beyond_float_range_exits_2(
            self, tmp_path, capsys, alpha, c):
        cfg = dict(self.HMEASURE, profile={"alpha": alpha})
        self._exits_2(tmp_path, capsys, cfg, "not finite at n=4",
                      generator={"kind": "oscillation", "c": c})

    def test_oscillation_frequency_aliased_to_zero_exits_2(self, tmp_path, capsys):
        # kappa(n) = (32 n, 0) is the zero mode of the 32 x 32 lattice
        self._exits_2(tmp_path, capsys, self.HMEASURE, "vanished at n=4",
                      generator={"kind": "oscillation", "c": [32.0, 0.0]})

    def test_number_rules(self):
        assert cli._number(3, "v", integer=True) == 3
        assert cli._number(3, "v") == 3.0 and isinstance(cli._number(3, "v"), float)
        for bad in (True, "1", None, [1], float("nan"), float("inf"), 10 ** 400):
            with pytest.raises(ConfigError):
                cli._number(bad, "v")
        for bad in (True, 2.0, "2"):
            with pytest.raises(ConfigError):
                cli._number(bad, "v", integer=True)


# tiny configs whose expressions the sandbox tests vary
TINY = {
    "averaging": base_config(
        "averaging",
        grid={"n": [8, 8], "L": [1.0, 1.0], "n_p": [8], "P_len": [1.0]},
        params={"a": ["1.0", "p1"], "rho": "cos(pi*p1)**2", "t": 0.5,
                "n_list": [2, 3, 4]}),
    "nondegeneracy": base_config(
        "nondegeneracy",
        params={"a": ["1.0", "p"], "eps_list": [0.1], "p_points": 8,
                "resolution": 8}),
}

# each hostile alternative is drawn about one time in four
_ATOMS = ["pi", "0", "1", "2.5", "9", "1e308"]
_HOSTILE_ATOMS = ["q", "sin", "True", "1j", "'s'", "None", "p1.real", "p[0]",
                  "[p1]", "__import__"]
_BINARY = ["+", "-", "*", "/", "**"]
_HOSTILE_BINARY = ["//", "%", "@", "==", " and ", " if p1 else "]
_UNARY = ["-", "+"]
_HOSTILE_UNARY = ["~", "not "]
_CALLEES = ["sin", "cos", "exp", "sqrt", "abs", "tanh"]
_HOSTILE_CALLEES = ["pi", "p1", "lambda", "sin(1)"]
NAMES = {"averaging": ["p1"], "nondegeneracy": ["p", "x1", "x2"]}


def _mostly(valid, hostile):
    return st.one_of(*[st.sampled_from(valid)] * 3, st.sampled_from(hostile))


def expressions(names):
    def combine(children):
        return st.one_of(
            st.tuples(children, _mostly(_BINARY, _HOSTILE_BINARY), children).map(
                lambda t: f"({t[0]}{t[1]}{t[2]})"),
            st.tuples(_mostly(_UNARY, _HOSTILE_UNARY), children).map("".join),
            st.tuples(_mostly(_CALLEES, _HOSTILE_CALLEES), children).map(
                lambda t: f"{t[0]}({t[1]})"))

    atoms = _mostly(names + _ATOMS, _HOSTILE_ATOMS)
    return st.recursive(atoms, combine, max_leaves=10)


def entries(names):
    return st.one_of(*[expressions(names)] * 4, st.text(max_size=16),
                     st.integers(), st.floats(), st.booleans(), st.none())


class TestExpressionSandbox:
    def _run(self, tmp_path, command, **params):
        cfg = TINY[command]
        cfg = dict(cfg, params=dict(cfg["params"], **params))
        return run_cli(command, write_config(tmp_path, cfg), tmp_path / "out")

    @pytest.mark.parametrize("expr", [
        "(lambda q: q.__class__.__mro__[-1].__subclasses__())(p1)",
        "p1.__class__",
        "p1[0]",
        "cos(x=p1)",
        "__import__('os').getcwd()",
        "sin(p1, p1)",
    ])
    def test_hostile_expression_exits_2(self, tmp_path, capsys, expr):
        assert self._run(tmp_path, "averaging", rho=expr) == 2
        err = capsys.readouterr().err
        assert "not allowed" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("expr", ["9**9**9", "1/0", "(-8)**(1/3)"])
    def test_arithmetic_failure_exits_3_promptly(self, tmp_path, capsys, expr):
        start = time.monotonic()
        assert self._run(tmp_path, "averaging", rho=expr) == 3
        assert time.monotonic() - start < 10.0
        assert expr in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(TINY))
    @pytest.mark.parametrize("a", [5, "p1", None])
    def test_expression_list_must_be_a_list(self, tmp_path, capsys, command, a):
        assert self._run(tmp_path, command, a=a) == 2
        assert "params.a" in capsys.readouterr().err

    def test_integer_constants_become_float(self):
        value = cli._safe_expr("2**3 - 1", ["p"])(p=0.0)
        assert value == 7.0 and type(value) is float

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), command=st.sampled_from(sorted(TINY)))
    def test_fuzzed_expressions_exit_0_2_or_3(self, capsys, data, command):
        exprs = entries(NAMES[command])
        params = {"a": data.draw(st.one_of(
            *[st.lists(exprs, min_size=2, max_size=2)] * 4, st.lists(exprs), exprs))}
        if command == "averaging":
            params["rho"] = data.draw(exprs)
        with tempfile.TemporaryDirectory() as tmp:
            assert self._run(Path(tmp), command, **params) in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err


# decimal magnitudes over the whole float range, subnormals and overflow
# to infinity included, and zero
_WIDE_FLOATS = st.one_of(
    st.builds(lambda sign, digit, exp: float(f"{sign}{digit}e{exp}"),
              st.sampled_from("+-"), st.integers(1, 9), st.integers(-325, 310)),
    st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))


def _bump(center, width):
    return f"bump:center=[{','.join(map(repr, center))}],width={width!r}"


class TestFloatRange:
    ALPHAS = [[1.0, 1.0], [1.0, 2.0], [0.5, 3.0]]

    def _run(self, tmp_path, command, alpha, params):
        """Run in a fresh directory tmp_path, with every warning an error."""
        tmp_path.mkdir()
        cfg = base_config(command, profile={"alpha": alpha}, params=params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_cli(command, write_config(tmp_path, cfg), tmp_path / "out")

    @pytest.mark.filterwarnings("error")
    def test_p_masks_underflowing_at_the_origin_run_clean(self, tmp_path, capsys):
        """20,000 P-cells on 8^3: at xi = 0, which projects to the origin,
        every Gaussian weight underflows to 0.  That mode's masks are 0
        and never normalized, so the run exits 0 with finite cells."""
        cfg = base_config(
            "hmeasure", grid={"n": [8, 8, 8], "L": [1.0, 1.0, 1.0]},
            profile={"alpha": [1.0, 1.0, 1.0]},
            params={"generator": {"kind": "oscillation", "c": [1.0, 0.0, 0.5]},
                    "n_list": [2, 3, 4], "x_cells": 1, "p_cells": 20000})
        out = tmp_path / "out"
        assert run_cli("hmeasure", write_config(tmp_path, cfg), out) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "cells.csv").read_text().splitlines()[1:]
        masses = np.array([float(row.split(",")[2]) for row in rows])
        assert masses.shape == (20000,) and np.all(np.isfinite(masses))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("symbol", [
        "bump:center=[0.5,0.5],width=1e200", "bump:center=[0.5,0.5],width=1e-200",
        "bump:center=[1e308,0.5],width=0.2"])
    def test_bump_beyond_the_float_range_runs_clean(self, tmp_path, capsys, symbol):
        check = {"symbol": symbol, "shells": 3, "samples_per_shell": 8}
        assert self._run(tmp_path / "check", "multiplier-check", [1.0, 2.0], check) == 0
        assert self._run(tmp_path / "apply", "multiplier-apply", [1.0, 2.0],
                         {"symbol": symbol}) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "check" / "out" / "marcinkiewicz.json").read_text())
        if "1e200" in symbol:  # the bump is 1 on every sample: the symbol "one"
            assert self._run(tmp_path / "one", "multiplier-check", [1.0, 2.0],
                             dict(check, symbol="one")) == 0
            assert report == json.loads(
                (tmp_path / "one" / "out" / "marcinkiewicz.json").read_text())
        else:  # the bump vanishes on every sample
            assert report["constant"] == 0.0

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(alpha=st.sampled_from(ALPHAS),
           points=st.lists(st.lists(_WIDE_FLOATS, min_size=2, max_size=2),
                           min_size=1, max_size=3),
           center=st.lists(_WIDE_FLOATS, min_size=2, max_size=2),
           width=_WIDE_FLOATS.map(abs))
    def test_fuzzed_float_range_exits_0_2_or_3(self, capsys, alpha, points,
                                                center, width):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            code = self._run(tmp / "project", "project", alpha, {"points": points})
            assert code in (0, 2, 3)
            if code == 0:
                out = tmp / "project" / "out"
                l = json.loads((out / "manifest.json").read_text())["profile"]["l"]
                exps = [l * a for a in alpha]
                rows = (out / "projections.csv").read_text().splitlines()[1:]
                for row in rows:
                    q = [float(v) for v in row.split(",")[2:]]
                    total = sum(abs(qk) ** e for qk, e in zip(q, exps))
                    assert abs(total - 1.0) <= 1e-9, row
            assert capsys.readouterr().err.count("\n") <= 1
            symbol = _bump(center, width)
            for command, params in [
                    ("multiplier-check", {"symbol": symbol, "shells": 2,
                                          "samples_per_shell": 4}),
                    ("multiplier-apply", {"symbol": symbol})]:
                assert self._run(tmp / command, command, alpha, params) in (0, 2, 3)
                assert capsys.readouterr().err.count("\n") <= 1


class TestNonFiniteCoefficients:
    CONFIG = base_config(
        "nondegeneracy", grid={"n": [8, 8], "L": [1.0, 1.0]},
        params={"a": ["1.0", "p/0"], "eps_list": [0.05, 0.2],
                "p_points": 64, "resolution": 16})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [["1.0", "p/0"], ["0*p/0", "p"], ["1.0", "x1/0"]])
    def test_nondegeneracy_exits_3_and_leaves_no_output(self, tmp_path, capsys, a):
        cfg = dict(self.CONFIG, params=dict(self.CONFIG["params"], a=a))
        out = tmp_path / "out"
        assert run_cli("nondegeneracy", write_config(tmp_path, cfg), out) == 3
        err = capsys.readouterr().err
        assert "not finite" in err
        assert err.startswith("hpm: integrity failure: ") and err.count("\n") == 1
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    # a velocity or a weight that divides by zero: exit 3 with the one
    # integrity line, before any quadrature, and no warning on the way
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", [{"a": ["1.0", "p1/0"]}, {"rho": "0*p1/0"}])
    def test_averaging_exits_3_with_one_line(self, tmp_path, capsys, params):
        cfg = TestDeterminism.CONFIGS["averaging"]
        cfg = dict(cfg, params=dict(cfg["params"], **params))
        out = tmp_path / "out"
        assert run_cli("averaging", write_config(tmp_path, cfg), out) == 3
        err = capsys.readouterr().err
        assert err.startswith("hpm: integrity failure: ") and err.count("\n") == 1
        assert "not finite" in err or "non-finite" in err
        assert not out.exists()

    # finite inputs whose arithmetic overflows inside a command (the symbol
    # 1e308 * F of the scan, the quadrature of a 1e308 weight): the run's
    # floating-point boundary ends it with the one integrity line
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, cfg", [
        ("nondegeneracy", dict(CONFIG, params=dict(CONFIG["params"], a=["1e308", "p"]))),
        ("nondegeneracy", base_config(
            "nondegeneracy", grid={"n": [8, 8, 8], "L": [1.0, 1.0, 1.0]},
            profile={"alpha": [1.0, 1.0, 1.0]},
            params={"a": ["1e308", "p", "p*p"], "eps_list": [0.05, 0.2],
                    "p_points": 64, "resolution": 16})),
        ("averaging", dict(TestDeterminism.CONFIGS["averaging"], params=dict(
            TestDeterminism.CONFIGS["averaging"]["params"],
            rho="1e308*cos(pi*p1)**2")))], ids=["nondegeneracy-2d", "nondegeneracy-3d",
                                                "averaging"])
    def test_overflow_inside_a_command_exits_3_with_one_line(self, tmp_path, capsys,
                                                              command, cfg):
        out = tmp_path / "out"
        assert run_cli(command, write_config(tmp_path, cfg), out) == 3
        err = capsys.readouterr().err
        assert err.startswith("hpm: integrity failure: ") and err.count("\n") == 1
        assert "overflow" in err
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


class TestReadmeAveragingExample:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def _readme_config(self):
        text = self.README.read_text()
        start = text.index("```json", text.index("hpm averaging --config"))
        body = text[start + len("```json"):text.index("```", start + 1)]
        cfg = json.loads(body)
        assert cfg["command"] == "averaging"
        return cfg

    def test_writes_nothing_to_stderr(self, tmp_path):
        # run as the console entry point does, in a fresh interpreter that
        # shows every warning the default filters let through
        cfg_path = write_config(tmp_path, self._readme_config())
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from hpm.cli import main; sys.exit(main())",
             "averaging", "--config", cfg_path, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert (tmp_path / "out" / "decay.csv").exists()

    # warnings are errors here: pytest would catch numpy's RuntimeWarnings
    # before they reach stderr
    @pytest.mark.filterwarnings("error")
    def test_n_list_entry_beyond_int64_runs_clean(self, tmp_path, capsys):
        cfg = self._readme_config()
        cfg["params"]["n_list"] = [4, 10 ** 23, 2 ** 63]
        out = tmp_path / "out"
        assert run_cli("averaging", write_config(tmp_path, cfg), out) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "decay.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["4", str(10 ** 23), str(2 ** 63)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", [{"t": 1.7e308}, {"a": ["1e308", "p1"]}])
    def test_overflowing_phase_exits_3_with_one_line(self, tmp_path, capsys, params):
        cfg = self._readme_config()
        cfg["params"].update(params)
        out = tmp_path / "out"
        assert run_cli("averaging", write_config(tmp_path, cfg), out) == 3
        err = capsys.readouterr().err
        assert err.startswith("hpm: integrity failure: transport phase")
        assert err.count("\n") == 1
        assert not out.exists()


class TestWarningLines:
    """`python -m hpm.cli` in a fresh interpreter, whose default filters
    show a SupportWarning: the averaging config with P_len = 2, where the
    default weight cos(pi p1)^2 is 1 on the faces of the velocity box."""

    def _run(self, tmp_path, P_len):
        cfg = TestDeterminism.CONFIGS["averaging"]
        params = {k: v for k, v in cfg["params"].items() if k != "rho"}
        cfg = dict(cfg, grid=dict(cfg["grid"], P_len=[P_len]), params=params)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        return subprocess.run(
            [sys.executable, "-m", "hpm.cli", "averaging", "--config",
             write_config(tmp_path, cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=300)

    def test_boundary_weight_warns_in_one_line(self, tmp_path):
        proc = self._run(tmp_path, 2.0)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ("hpm: warning: velocity weight touches the "
                               "boundary of p-axis 0\n")

    def test_failed_run_prints_its_error_line_alone(self, tmp_path):
        # the weight warns, then every windowed average underflows to 0
        proc = self._run(tmp_path, 5e-324)
        assert proc.returncode == 3
        assert proc.stderr.startswith("hpm: integrity failure: ")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()
