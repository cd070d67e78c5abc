"""Experiment runner: `hpm <command> --config cfg.json [--out dir]`.

Every run is deterministic given (config, seed): all randomness flows from
one counter-based generator keyed by the config seed, and all artifacts
(manifest.json, CSV, JSON, plot data, field files) are written with fixed
formatting so reruns are byte-identical.

Exit codes: 0 success, 2 invalid configuration, 3 numeric integrity
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import averaging, hmeasure, kinetic, multiplier, spectral
from .anisotropy import AnisotropyProfile, project_to_P
from .errors import ConfigError, DomainError, HpmError, IntegrityError

COMMANDS = ("project", "multiplier-apply", "multiplier-check", "hmeasure",
            "averaging", "nondegeneracy", "kinetic")

_TOP_KEYS = {"command", "grid", "profile", "seed", "output_dir", "params"}
_GRID_KEYS = {"n", "L", "n_p", "P_len"}

_SAFE_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
               "abs": np.abs, "pi": np.pi, "tanh": np.tanh}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _safe_expr(expr: str, names: list[str]):
    """Compile a restricted arithmetic expression over the given variable
    names plus a fixed function table."""
    if not isinstance(expr, str):
        value = float(expr)
        return lambda **kw: value
    code = compile(expr, "<config>", "eval")
    for name in code.co_names:
        if name not in names and name not in _SAFE_FUNCS:
            raise ConfigError(f"name {name!r} not allowed in expression {expr!r}")

    def fn(**kw):
        env = dict(_SAFE_FUNCS)
        env.update(kw)
        return eval(code, {"__builtins__": {}}, env)

    return fn


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    for key in ("command", "grid", "profile", "seed"):
        if key not in cfg:
            raise ConfigError(f"config is missing required key {key!r}")
    if cfg["command"] not in COMMANDS:
        raise ConfigError(f"unknown command {cfg['command']!r}")
    _check_keys(cfg["grid"], _GRID_KEYS, "grid")
    _check_keys(cfg["profile"], {"alpha"}, "profile")
    if not isinstance(cfg["seed"], int):
        raise ConfigError("seed must be a 64-bit integer")
    cfg.setdefault("params", {})
    if not isinstance(cfg["params"], dict):
        raise ConfigError("params must be an object")
    return cfg


def _build_grid(spec: dict) -> spectral.SpectralGrid:
    try:
        return spectral.SpectralGrid(
            n_per_axis=tuple(int(v) for v in spec["n"]),
            length_per_axis=tuple(float(v) for v in spec["L"]),
            n_velocity=tuple(int(v) for v in spec.get("n_p", ())),
            velocity_length=tuple(float(v) for v in spec.get("P_len", ())),
        )
    except KeyError as exc:
        raise ConfigError(f"grid is missing key {exc}") from exc


def _build_profile(spec: dict) -> AnisotropyProfile:
    alpha = spec.get("alpha")
    if not alpha:
        raise ConfigError("profile.alpha must be a non-empty list")
    return AnisotropyProfile(tuple(float(a) for a in alpha))


def _fmt(v) -> str:
    if isinstance(v, complex):
        return f"{_fmt(v.real)},{_fmt(v.imag)}"
    return repr(float(v))


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (int, str)) else _fmt(c)
                              for c in row))
    path.write_text("\n".join(lines) + "\n")


def emit_plotdata(rows, columns: list[str], path: Path) -> None:
    """Whitespace-separated numeric columns with a '#' header line."""
    lines = ["# " + " ".join(columns)]
    for row in rows:
        lines.append(" ".join(str(c) if isinstance(c, int) else _fmt(c)
                              for c in row))
    path.write_text("\n".join(lines) + "\n")


# --- command implementations --------------------------------------------------

def _cmd_project(grid, profile, params, rng, out: Path) -> None:
    _check_keys(params, {"points"}, "params")
    pts = np.asarray(params.get("points", []), dtype=float)
    if pts.size == 0 or pts.ndim != 2 or pts.shape[1] != profile.d:
        raise ConfigError("params.points must be a list of d-vectors")
    proj = project_to_P(pts, profile)
    rows = [tuple(p) + tuple(q) for p, q in zip(pts, proj)]
    header = [f"xi_{k}" for k in range(profile.d)] + \
             [f"proj_{k}" for k in range(profile.d)]
    _write_csv(out / "projections.csv", header, rows)


def _cmd_multiplier_apply(grid, profile, params, rng, out: Path) -> None:
    _check_keys(params, {"symbol", "operation", "axis", "order",
                         "cutoff_radius", "band_fraction"}, "params")
    u = spectral.band_limited_field(
        grid, rng, band_fraction=float(params.get("band_fraction", 0.25)))
    op = params.get("operation", "projected")
    if op == "projected":
        psi = multiplier.symbol_from_name(params.get("symbol", "one"), profile)
        v = multiplier.apply_projected_symbol(u, psi, profile)
    elif op == "fractional":
        v = multiplier.fractional_derivative(
            u, int(params.get("axis", 0)), float(params.get("order", 1.0)))
    elif op == "smoothing":
        v = multiplier.smoothing_inverse(
            u, profile, float(params.get("cutoff_radius", 1.0)))
    else:
        raise ConfigError(f"unknown operation {op!r}")
    spectral.write_field(v, out / "output.fld")
    _write_json(out / "norms.json", {
        "input_l2": _fmt(u.norm_l2()), "output_l2": _fmt(v.norm_l2())})


def _cmd_multiplier_check(grid, profile, params, rng, out: Path) -> None:
    _check_keys(params, {"symbol", "shells", "samples_per_shell"}, "params")
    psi = multiplier.symbol_from_name(params.get("symbol", "one"), profile)
    report = multiplier.marcinkiewicz_certify(
        psi, profile, shells=int(params.get("shells", 4)),
        samples_per_shell=int(params.get("samples_per_shell", 24)))
    _write_json(out / "marcinkiewicz.json", report.to_json_dict())


def _make_envelope(grid, rng):
    v = spectral.band_limited_field(grid, rng, band_fraction=0.15, real=True)
    return v.with_values(v.values + 1.0)  # keep the envelope away from zero


def _cmd_hmeasure(grid, profile, params, rng, out: Path) -> None:
    _check_keys(params, {"generator", "n_list", "x_cells", "p_cells"}, "params")
    genspec = params.get("generator", {})
    _check_keys(genspec, {"kind", "c"}, "params.generator")
    if genspec.get("kind", "oscillation") != "oscillation":
        raise ConfigError("only the oscillation generator is wired to the CLI")
    c = genspec.get("c")
    if not c or len(c) != profile.d:
        raise ConfigError("generator.c must be a nonzero d-vector")
    env = _make_envelope(grid, rng)
    gen = hmeasure.SequenceGenerator.oscillation(profile, c, env)
    n_list = [int(n) for n in params.get("n_list", [8, 16, 24, 32])]
    est = hmeasure.scalar_hmeasure(
        gen, profile, grid, n_list,
        x_cells=int(params.get("x_cells", 4)),
        p_cells=int(params.get("p_cells", 16)))
    rows = []
    C, B = est.cells.shape
    for ci in range(C):
        for bi in range(B):
            rows.append((ci, bi, est.cells[ci, bi], est.cell_errors[ci, bi]))
    _write_csv(out / "cells.csv", ["x_cell", "P_cell", "mass", "err"], rows)
    _write_json(out / "hmeasure.json", {
        "total_mass": _fmt(float(est.cells.sum())),
        "n_list": n_list})


def _transport_generator(grid, profile, params, rng):
    a_exprs = params["a"]
    if len(a_exprs) != grid.d:
        raise ConfigError("params.a needs one expression per spatial axis")
    pnames = [f"p{i+1}" for i in range(grid.m)]
    fns = [_safe_expr(e, pnames) for e in a_exprs]

    def a_of_p(*coords):
        env = {n: c for n, c in zip(pnames, coords)}
        comps = [np.broadcast_to(np.asarray(f(**env), dtype=float),
                                 grid.n_velocity) for f in fns]
        return np.stack(comps, axis=-1)

    env_field = _make_envelope(grid, rng)
    axis = int(params.get("oscillation_axis", grid.d - 1))

    def initial(n):
        x = grid.coord_axis(axis)
        shp = [1] * (grid.d + grid.m)
        shp[axis] = x.size
        mod = np.exp(2j * np.pi * n * x / grid.length_per_axis[axis]).reshape(shp)
        return env_field.with_values(env_field.values * mod)

    gen = hmeasure.SequenceGenerator.from_callable(initial)
    problem = averaging.TransportProblem(grid, a_of_p, gen,
                                         t=float(params.get("t", 1.0)))
    # exact transport multiplies the xi = 0 mode by exactly 1, so the
    # evolved snapshots keep the zero mean of the initial data
    return hmeasure.SequenceGenerator(
        lambda n: averaging.transport_evolve(problem, n))


def _cmd_averaging(grid, profile, params, rng, out: Path) -> None:
    _check_keys(params, {"a", "rho", "t", "n_list", "window",
                         "oscillation_axis"}, "params")
    if grid.m == 0:
        raise ConfigError("averaging needs velocity axes (grid.n_p)")
    gen = _transport_generator(grid, profile, params, rng)
    pnames = [f"p{i+1}" for i in range(grid.m)]
    rho_fn = _safe_expr(params.get("rho", "cos(pi*p1)**2"), pnames)

    def rho(*coords):
        env = {n: c for n, c in zip(pnames, coords)}
        return np.broadcast_to(np.asarray(rho_fn(**env), dtype=float),
                               grid.n_velocity)

    window = params.get("window")
    if window is None:
        window = [[0.25 * L, 0.75 * L] for L in grid.length_per_axis]
    n_list = [int(n) for n in params.get("n_list", [4, 8, 16, 32, 64])]
    table = averaging.compactness_metric(gen, rho, window, n_list)
    _write_csv(out / "decay.csv", ["n", "norm", "ratio"], table.rows())
    emit_plotdata(table.rows(), ["n", "norm", "ratio"], out / "decay.dat")


def _cmd_nondegeneracy(grid, profile, params, rng, out: Path) -> None:
    _check_keys(params, {"a", "eps_list", "p_interval", "p_points",
                         "x_samples", "resolution"}, "params")
    a_exprs = params.get("a")
    if not a_exprs or len(a_exprs) != profile.d:
        raise ConfigError("params.a needs one expression per axis")
    fns = [_safe_expr(e, ["p"] + [f"x{k+1}" for k in range(profile.d)])
           for e in a_exprs]
    x_samples = [np.asarray(x, dtype=float)
                 for x in params.get("x_samples", [[0.0] * profile.d])]

    def coeffs(x, p):
        env = {f"x{k+1}": x[k] for k in range(profile.d)}
        env["p"] = p
        return np.stack([np.broadcast_to(np.asarray(f(**env), dtype=float),
                                         np.shape(p)) for f in fns], axis=-1)

    lo, hi = params.get("p_interval", [-1.0, 1.0])
    npts = int(params.get("p_points", 256))
    p_grid = lo + (np.arange(npts) + 0.5) * (hi - lo) / npts
    eps_list = [float(e) for e in params.get("eps_list", [0.01, 0.1, 0.5, 1.0])]
    report = averaging.nondegeneracy_scan(
        coeffs, x_samples, profile, int(params.get("resolution", 32)),
        p_grid, eps_list)
    _write_json(out / "nondegeneracy.json", report.to_json_dict())
    _write_csv(out / "nondegeneracy.csv", ["x_idx", "P_idx", "eps", "measure"],
               report.rows())
    emit_plotdata(zip(report.eps_list, report.sup_measure),
                  ["eps", "sup_measure"], out / "nondegeneracy.dat")


def _cmd_kinetic(grid, profile, params, rng, out: Path) -> None:
    _check_keys(params, {"flux", "velocity", "lambda", "eps_list",
                         "resolution", "M"}, "params")
    flux = kinetic.flux_from_name(params.get("flux", "burgers-heat"),
                                  d=grid.d, velocity=params.get("velocity"))
    lspec = params.get("lambda", {})
    _check_keys(lspec, {"min", "max", "points"}, "params.lambda")
    lo = float(lspec.get("min", -1.0))
    hi = float(lspec.get("max", 1.0))
    npts = int(lspec.get("points", 256))
    lam = lo + (np.arange(npts) + 0.5) * (hi - lo) / npts
    manifold = kinetic.UPManifold(flux.d, flux.l_split)
    eps_list = [float(e) for e in params.get("eps_list", [0.05, 0.2, 1.0])]
    report = kinetic.up_nondegeneracy_scan(
        flux, [None], manifold, lam, eps_list,
        resolution=int(params.get("resolution", 64)))
    M = float(params.get("M", 1.0))
    u = spectral.band_limited_field(grid, rng, band_fraction=0.2, real=True)
    vals = np.asarray(u.values).real
    peak = float(np.max(np.abs(vals)))
    if peak > 0:
        vals = vals * (0.9 * M / peak)
    identity_gap = float(np.max(np.abs(
        kinetic.exact_lambda_integral(vals, M) - 2 * vals)))
    _write_json(out / "kinetic.json", {
        "scan": report.to_json_dict(),
        "lambda_identity_max_error": _fmt(identity_gap),
        "validation": kinetic.validate_flux(
            flux, np.linspace(lo, hi, 9)).to_json_dict(),
    })


_RUNNERS = {
    "project": _cmd_project,
    "multiplier-apply": _cmd_multiplier_apply,
    "multiplier-check": _cmd_multiplier_check,
    "hmeasure": _cmd_hmeasure,
    "averaging": _cmd_averaging,
    "nondegeneracy": _cmd_nondegeneracy,
    "kinetic": _cmd_kinetic,
}


def run(cfg: dict, out_dir: str | None = None) -> int:
    """Execute one experiment config; returns the process exit code."""
    grid = _build_grid(cfg["grid"])
    profile = _build_profile(cfg["profile"])
    if profile.d != grid.d:
        raise ConfigError("profile.alpha length must match the grid dimension")
    out = Path(out_dir or cfg.get("output_dir")
               or os.environ.get("HPM_OUTPUT_DIR") or ".")
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.Philox(key=cfg["seed"]))
    manifest = {
        "command": cfg["command"],
        "grid": {"n": list(grid.n_per_axis), "L": list(grid.length_per_axis),
                 "n_p": list(grid.n_velocity),
                 "P_len": list(grid.velocity_length)},
        "profile": {"alpha": list(profile.alpha), "l": profile.l},
        "seed": cfg["seed"],
        "params": cfg["params"],
    }
    _write_json(out / "manifest.json", manifest)
    _RUNNERS[cfg["command"]](grid, profile, cfg["params"], rng, out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hpm", description="anisotropic microlocal experiment runner")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if cfg["command"] != args.command:
            raise ConfigError(
                f"config command {cfg['command']!r} does not match {args.command!r}")
        return run(cfg, out_dir=args.out)
    except IntegrityError as exc:
        print(f"hpm: integrity failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError, HpmError, OSError) as exc:
        print(f"hpm: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
