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
import ast
import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import averaging, hmeasure, kinetic, multiplier, spectral
from .anisotropy import AnisotropyProfile, constraint_sum, project_to_P
from .errors import ConfigError, DomainError, HpmError, IntegrityError, SupportWarning

COMMANDS = ("project", "multiplier-apply", "multiplier-check", "hmeasure",
            "averaging", "nondegeneracy", "kinetic")

_TOP_KEYS = {"command", "grid", "profile", "seed", "params"}
_GRID_KEYS = {"n", "L", "n_p", "P_len"}

_SAFE_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
               "abs": np.abs, "tanh": np.tanh}
_SAFE_CONSTANTS = {"pi": np.pi}
_SAFE_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _check_tree(node: ast.AST, expr: str, names: list[str]) -> None:
    """Validate the syntax tree of a config expression and make every
    numeric constant in it float (so no integer tower can grow without
    bound).  Only the declared names, _SAFE_CONSTANTS, + - * / **, unary
    +/- and one-argument positional calls of _SAFE_FUNCS are admitted;
    anything else is a ConfigError."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SAFE_OPS):
        _check_tree(node.left, expr, names)
        _check_tree(node.right, expr, names)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _check_tree(node.operand, expr, names)
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        node.value = float(node.value)
    elif isinstance(node, ast.Name):
        if node.id not in names and node.id not in _SAFE_CONSTANTS:
            raise ConfigError(f"name {node.id!r} not allowed in expression {expr!r}")
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if (node.func.id not in _SAFE_FUNCS or node.keywords
                or len(node.args) != 1 or isinstance(node.args[0], ast.Starred)):
            raise ConfigError(f"call {ast.unparse(node)!r} not allowed in "
                              f"expression {expr!r}")
        _check_tree(node.args[0], expr, names)
    else:
        what = type(getattr(node, "op", node)).__name__
        raise ConfigError(f"{what} not allowed in expression {expr!r}")


def _safe_expr(expr: str, names: list[str], where: str = "an expression"):
    """Compile a restricted arithmetic expression over the given variable
    names plus a fixed function table (see _check_tree); an entry that is
    neither a string nor a finite number is a ConfigError naming `where`.
    Evaluation errors and complex values are integrity failures."""
    if not isinstance(expr, str):
        value = _number(expr, where)
        return lambda **kw: value
    try:
        tree = ast.parse(expr, "<config>", mode="eval")
        _check_tree(tree.body, expr, names)
        code = compile(tree, "<config>", "eval")
    except (SyntaxError, ValueError, OverflowError, RecursionError, MemoryError) as exc:
        raise ConfigError(f"invalid expression {expr!r}: {exc}") from None

    env = {"__builtins__": {}, **_SAFE_FUNCS, **_SAFE_CONSTANTS}

    def fn(**kw):
        try:
            with np.errstate(all="ignore"):  # a non-finite value is checked later
                value = eval(code, env, kw)
        except ArithmeticError as exc:  # float ** overflow, division by zero
            raise IntegrityError(f"expression {expr!r} failed: {exc}") from None
        # a negative float to a fractional power is complex
        if isinstance(value, complex) or (isinstance(value, np.ndarray)
                                          and value.dtype.kind == "c"):
            raise IntegrityError(f"expression {expr!r} is not real")
        return value

    return fn


def _compile_stack(exprs: dict, names: list[str]):
    """One callable of the variables `names` (positional, in that order)
    that evaluates every expression of `exprs` (keyed by the config key it
    sits at), broadcasts each result to the shape of the first variable
    (the sample grid; the others are scalars or of the same shape) and
    stacks them on a last axis."""
    fns = [_safe_expr(e, names, where) for where, e in exprs.items()]

    def fn(*args):
        env = dict(zip(names, args))
        shape = np.shape(args[0])
        return np.stack([np.broadcast_to(np.asarray(f(**env), dtype=float), shape)
                         for f in fns], axis=-1)

    return fn


def _number(value, where: str, integer: bool = False):
    """A JSON number from the config (a JSON integer if `integer`, else a
    finite number, returned as float); anything else is a ConfigError."""
    ok = not isinstance(value, bool) and isinstance(
        value, int if integer else (int, float))
    if ok and not integer:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            ok = False
        ok = ok and math.isfinite(value)
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return value


def _numbers(value, where: str, length: int | None = None,
             integer: bool = False) -> list:
    """A JSON list of numbers (of the given length, if any)."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        size = "" if length is None else f" {length}"
        raise ConfigError(f"{where} must be a list of{size} numbers, got {value!r}")
    return [_number(v, f"{where}[{i}]", integer) for i, v in enumerate(value)]


def _param(params: dict, key: str, default, integer: bool = False):
    """params[key] (or the default) as a number, see _number."""
    return _number(params.get(key, default), f"params.{key}", integer)


def _count(value, where: str, elements) -> int:
    """A count from the config (a JSON integer, see _number), rejected
    before anything is allocated when the largest array it sizes, of
    elements(count) elements, would exceed the bound the grid enforces.
    Counts below 1 pass here, for the checks that name their own floor."""
    count = _number(value, where, integer=True)
    if count > 0 and elements(count) > spectral._MAX_SAMPLES:
        raise ConfigError(f"{where} = {count} is too large: its largest array "
                          f"would exceed {spectral._MAX_SAMPLES} elements")
    return count


def _midpoints(interval, where: str, points, points_where: str, elements):
    """The midpoints of `points` (a count, see _count, of at least 2) equal
    cells of the interval (lo, hi), which needs lo < hi and a finite width."""
    lo, hi = interval
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ConfigError(f"{where} needs lo < hi of finite width, got {lo} and {hi}")
    count = _count(points, points_where, elements)
    if count < 2:
        raise ConfigError(f"{points_where} must be at least 2, got {count}")
    return lo + (np.arange(count) + 0.5) * (hi - lo) / count


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
    if not 0 <= _number(cfg["seed"], "seed", integer=True) < 1 << 128:
        raise ConfigError("seed must be an integer in [0, 2**128)")
    cfg.setdefault("params", {})
    if not isinstance(cfg["params"], dict):
        raise ConfigError("params must be an object")
    return cfg


def _build_grid(spec: dict) -> spectral.SpectralGrid:
    try:
        return spectral.SpectralGrid(
            n_per_axis=tuple(_numbers(spec["n"], "grid.n", integer=True)),
            length_per_axis=tuple(_numbers(spec["L"], "grid.L")),
            n_velocity=tuple(_numbers(spec.get("n_p", []), "grid.n_p", integer=True)),
            velocity_length=tuple(_numbers(spec.get("P_len", []), "grid.P_len")),
        )
    except KeyError as exc:
        raise ConfigError(f"grid is missing key {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"invalid grid: {exc}") from None


def _build_profile(spec: dict) -> AnisotropyProfile:
    alpha = _numbers(spec.get("alpha"), "profile.alpha")
    if not alpha:
        raise ConfigError("profile.alpha must be a non-empty list")
    return AnisotropyProfile(tuple(alpha))


def _check_constraint_sum(profile: AnisotropyProfile, at) -> None:
    """ConfigError naming profile.alpha when the constraint sum
    sum_k |xi_k|^(l alpha_k) overflows on the frequencies of `at`, a
    grid's lattice or a band's box, which the command projects onto P.
    The sum grows in every |xi_k|, so it is largest at the corner of the
    largest |xi_k| of each axis."""
    corner = [float(np.max(np.abs(f))) for f in at.frequencies()]
    with np.errstate(over="ignore"):
        total = float(constraint_sum(np.array(corner), profile))
    if not math.isfinite(total):
        raise ConfigError(
            f"profile.alpha = {list(profile.alpha)}: the constraint sum "
            f"sum_k |xi_k|^(l alpha_k) overflows at the frequency {corner}")


def _fmt(v) -> str:
    """Fixed formatting of a published number; non-finite values are
    integrity failures, never results."""
    if isinstance(v, complex):
        return f"{_fmt(v.real)},{_fmt(v.imag)}"
    v = float(v)
    if not math.isfinite(v):
        raise IntegrityError(f"non-finite result {v!r}")
    return repr(v)


def _write_json(path: Path, data) -> None:
    try:
        text = json.dumps(data, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:
        raise IntegrityError(f"non-finite result in {path.name}: {exc}") from exc
    path.write_text(text + "\n")


def _column_text(col: np.ndarray) -> list[str]:
    """A column array as text, one call per distinct value: floats by _fmt,
    per bit pattern (-0.0 and 0.0 stay apart), integers (in an object array
    beyond int64) by str."""
    floats = col.dtype.kind == "f"
    uniq, inv = np.unique(col.view(np.int64) if floats else col, return_inverse=True)
    values = (uniq.view(float) if floats else uniq).tolist()
    text = np.array([_fmt(v) if floats else str(v) for v in values], dtype=object)
    return text[inv].tolist()


def _write_csv(path: Path, header: list[str], columns, sep: str = ",") -> None:
    """The header, then one line per row of the equal-length column arrays
    (_column_text), joined by sep; no rows write the header alone."""
    cols = [_column_text(col) for col in columns]
    path.write_text("\n".join(map(sep.join, [header, *zip(*cols, strict=True)])) + "\n")


def emit_plotdata(columns, names: list[str], path: Path) -> None:
    """Whitespace-separated numeric columns with a '#' header line."""
    _write_csv(path, ["#", *names], columns, " ")


# --- command implementations --------------------------------------------------

def _cmd_project(grid, profile, params, rng, out: Path) -> None:
    _check_keys(params, {"points"}, "params")
    pts = params.get("points", [])
    if not isinstance(pts, list) or not pts:
        raise ConfigError("params.points must be a list of d-vectors")
    pts = np.asarray([_numbers(q, f"params.points[{i}]", profile.d)
                      for i, q in enumerate(pts)])
    # a sum past the float range, or below its normal floor (a subnormal
    # sum has lost the digits that put the projection on P), has no
    # projection to publish
    with np.errstate(over="ignore"):
        sums = constraint_sum(pts, profile).tolist()
    for i, total in enumerate(sums):
        if not sys.float_info.min <= total < math.inf:
            raise ConfigError(
                f"params.points[{i}] has constraint sum {total!r}: projection "
                f"to P needs a finite sum of at least {sys.float_info.min!r}")
    header = [f"xi_{k}" for k in range(profile.d)] + \
             [f"proj_{k}" for k in range(profile.d)]
    _write_csv(out / "projections.csv", header,
               [*pts.T, *project_to_P(pts, profile).T])


# the params keys of each multiplier-apply operation, besides the shared
# "operation" and "band_fraction"
_OPERATION_KEYS = {"projected": {"symbol"}, "fractional": {"axis", "order"},
                   "smoothing": {"cutoff_radius"}}


def _cmd_multiplier_apply(grid, profile, params, rng, out: Path) -> None:
    op_keys = set().union(*_OPERATION_KEYS.values())
    _check_keys(params, {"operation", "band_fraction"} | op_keys, "params")
    op = params.get("operation", "projected")
    if not isinstance(op, str) or op not in _OPERATION_KEYS:
        raise ConfigError(f"unknown operation {op!r}")
    stray = sorted(op_keys.intersection(params) - _OPERATION_KEYS[op])
    if stray:
        raise ConfigError(f"params {stray} do not apply to operation {op!r}")
    band_fraction = _param(params, "band_fraction", 0.25)
    try:
        band = spectral.band_limited_spectrum(grid, rng, band_fraction)
    except DomainError as exc:  # the grid is valid, so the band fraction is not
        raise ConfigError(f"params.band_fraction: {exc}") from None
    # the operator acts on the band's box only, the norms are the bands'
    # (Plancherel), and only the output band is inverted
    if op == "projected":
        psi = multiplier.symbol_from_name(params.get("symbol", "one"), profile)
        _check_constraint_sum(profile, band)
        out_band = multiplier.apply_projected_symbol(band, psi, profile)
    elif op == "fractional":
        out_band = multiplier.fractional_derivative(
            band, _param(params, "axis", 0, integer=True),
            _param(params, "order", 1.0))
    else:
        cutoff_radius = _param(params, "cutoff_radius", 1.0)
        _check_constraint_sum(profile, band)
        out_band = multiplier.smoothing_inverse(band, profile, cutoff_radius)
    spectral.write_field(spectral.inverse_dft(out_band), out / "output.fld")
    _write_json(out / "norms.json", {"input_l2": _fmt(band.norm_l2()),
                                     "output_l2": _fmt(out_band.norm_l2())})


def _cmd_multiplier_check(grid, profile, params, rng, out: Path) -> None:
    _check_keys(params, {"symbol", "shells", "samples_per_shell"}, "params")
    psi = multiplier.symbol_from_name(params.get("symbol", "one"), profile)
    shells = _param(params, "shells", 4, integer=True)
    if not multiplier.shells_in_float_range(profile, shells):
        raise ConfigError(f"params.shells = {shells} is too large: its dyadic "
                          f"shells leave the float range for alpha {profile.alpha}")
    # the refined scan stacks (2 samples_per_shell, d) samples on each of
    # its 2 shells + 4 shells
    samples = _count(params.get("samples_per_shell", 24), "params.samples_per_shell",
                     lambda s: 2 * s * profile.d * (2 * shells + 4))
    report = multiplier.marcinkiewicz_certify(
        psi, profile, shells=shells, samples_per_shell=samples)
    _write_json(out / "marcinkiewicz.json", report.to_json_dict())


def _envelope_spectrum(grid, rng, band_fraction: float, offset: float):
    """The band of Re(band_limited_field(grid, rng, band_fraction)) +
    offset, a real field of mean `offset`: the CLI's one real random field."""
    return spectral.real_part_spectrum(
        spectral.band_limited_spectrum(grid, rng, band_fraction), offset)


def _cmd_hmeasure(grid, profile, params, rng, out: Path) -> None:
    _check_keys(params, {"generator", "n_list", "x_cells", "p_cells"}, "params")
    genspec = params.get("generator", {})
    _check_keys(genspec, {"kind", "c"}, "params.generator")
    if genspec.get("kind", "oscillation") != "oscillation":
        raise ConfigError("only the oscillation generator is wired to the CLI")
    c = _numbers(genspec.get("c"), "params.generator.c", profile.d)
    n_list = _numbers(params.get("n_list", [8, 16, 24, 32]), "params.n_list",
                      integer=True)
    if any(n < 1 for n in n_list):
        raise ConfigError(f"params.n_list entries must be positive, got {n_list}")
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError(f"params.n_list must be increasing with at least 3 "
                          f"entries, got {n_list}")
    # the largest arrays: the (C, S) row stack of the cell forms, with C =
    # x_cells^d cells and S lattice points, the (p_cells, S) P-masks and
    # the (C len(n_list), p_cells) forms
    S = math.prod(grid.n_per_axis)
    x_cells = _count(params.get("x_cells", 4), "params.x_cells",
                     lambda x: x ** grid.d * S)
    p_cells = _count(params.get("p_cells", 16), "params.p_cells",
                     lambda b: b * max(S, max(x_cells, 0) ** grid.d * len(n_list)))
    _check_constraint_sum(profile, grid)  # the P-masks project the lattice
    # the envelope: band 0.15, kept away from zero by its mean 1
    seq = hmeasure.OscillationSequence(profile, c,
                                       _envelope_spectrum(grid, rng, 0.15, 1.0))
    est = hmeasure.scalar_hmeasure(seq, profile, grid, n_list,
                                   x_cells=x_cells, p_cells=p_cells)
    C, B = est.cells.shape
    _write_csv(out / "cells.csv", ["x_cell", "P_cell", "mass", "err"],
               [np.arange(C).repeat(B), np.tile(np.arange(B), C),
                est.cells.ravel(), est.cell_errors.ravel()])
    _write_json(out / "hmeasure.json", {
        "total_mass": _fmt(float(est.cells.sum())),
        "n_list": n_list})


def _cmd_averaging(grid, profile, params, rng, out: Path) -> None:
    _check_keys(params, {"a", "rho", "t", "n_list", "window",
                         "oscillation_axis"}, "params")
    if grid.m == 0:
        raise ConfigError("averaging needs velocity axes (grid.n_p)")
    a_exprs = params.get("a")
    if not isinstance(a_exprs, list) or len(a_exprs) != grid.d:
        raise ConfigError("params.a needs one expression per spatial axis")
    a_of_p = _compile_stack({f"params.a[{k}]": e for k, e in enumerate(a_exprs)},
                            [f"p{i+1}" for i in range(grid.m)])
    env_spec = _envelope_spectrum(grid, rng, 0.15, 1.0)
    axis = _param(params, "oscillation_axis", grid.d - 1, integer=True)
    if not -grid.d <= axis < grid.d:
        raise ConfigError(f"params.oscillation_axis must be a spatial axis, got {axis}")
    t = _param(params, "t", 1.0)
    # the bands of env e^{2 pi i n x / L} minus their means, evolved exactly
    # (the xi = 0 mode keeps its zero), are velocity-averaged on the box
    # before the (small) inverse DFT
    def seq(n):
        return averaging.transport_spectrum(
            spectral.oscillated_spectrum(env_spec, n, axis), a_of_p, t)

    rho_stack = _compile_stack({"params.rho": params.get("rho", "cos(pi*p1)**2")},
                               [f"p{i+1}" for i in range(grid.m)])

    def rho(*p):
        return rho_stack(*p)[..., 0]

    window = params.get("window")
    if window is None:
        window = [[0.25 * L, 0.75 * L] for L in grid.length_per_axis]
    elif isinstance(window, list):
        window = [_numbers(w, f"params.window[{k}]", 2) for k, w in enumerate(window)]
    else:
        raise ConfigError("params.window must be a list of [lo, hi] intervals")
    try:
        averaging.window_mask(grid.spatial_only(), window)
    except DomainError as exc:
        raise ConfigError(f"params.window: {exc}") from None
    n_list = _numbers(params.get("n_list", [4, 8, 16, 32, 64]), "params.n_list",
                      integer=True)
    if len(n_list) < 2:
        raise ConfigError(f"params.n_list needs at least 2 sequence indices, "
                          f"got {n_list}")
    table = averaging.compactness_metric(seq, rho, window, n_list)
    columns = [np.array(table.n_list, dtype=object), np.array(table.norms),
               np.array(table.ratios)]
    _write_csv(out / "decay.csv", ["n", "norm", "ratio"], columns)
    emit_plotdata(columns, ["n", "norm", "ratio"], out / "decay.dat")


def _cmd_nondegeneracy(grid, profile, params, rng, out: Path) -> None:
    _check_keys(params, {"a", "eps_list", "p_interval", "p_points",
                         "x_samples", "resolution"}, "params")
    a_exprs = params.get("a")
    if not isinstance(a_exprs, list) or len(a_exprs) != profile.d:
        raise ConfigError("params.a needs one expression per axis")
    stack = _compile_stack({f"params.a[{k}]": e for k, e in enumerate(a_exprs)},
                           ["p"] + [f"x{k+1}" for k in range(profile.d)])
    x_samples = params.get("x_samples", [[0.0] * profile.d])
    if not isinstance(x_samples, list):
        raise ConfigError("params.x_samples must be a list of d-vectors")
    x_samples = [np.asarray(_numbers(x, f"params.x_samples[{i}]", profile.d))
                 for i, x in enumerate(x_samples)]

    def coeffs(x, p):
        return stack(p, *x)

    # the (N, d) mesh of P, N = resolution^(d-1), and the coefficients on
    # the p grid, (p_points, d)
    resolution = _count(params.get("resolution", 32), "params.resolution",
                        lambda r: r ** (profile.d - 1) * profile.d)
    p_grid = _midpoints(
        _numbers(params.get("p_interval", [-1.0, 1.0]), "params.p_interval", 2),
        "params.p_interval", params.get("p_points", 256), "params.p_points",
        lambda n: n * profile.d)
    eps_list = _numbers(params.get("eps_list", [0.01, 0.1, 0.5, 1.0]),
                        "params.eps_list")
    report = averaging.nondegeneracy_scan(
        coeffs, x_samples, profile, resolution, p_grid, eps_list)
    _write_json(out / "nondegeneracy.json", report.to_json_dict())
    X, N, E = report.measures.shape
    _write_csv(out / "nondegeneracy.csv", ["x_idx", "P_idx", "eps", "measure"],
               [np.arange(X).repeat(N * E), np.tile(np.arange(N).repeat(E), X),
                np.tile(report.eps_list, X * N), report.measures.ravel()])
    emit_plotdata([np.array(report.eps_list), report.sup_measure],
                  ["eps", "sup_measure"], out / "nondegeneracy.dat")


def _cmd_kinetic(grid, profile, params, rng, out: Path) -> None:
    _check_keys(params, {"flux", "velocity", "lambda", "eps_list",
                         "resolution", "M"}, "params")
    velocity = params.get("velocity")
    if velocity is not None:
        velocity = _numbers(velocity, "params.velocity", grid.d)
    flux = kinetic.flux_from_name(params.get("flux", "burgers-heat"),
                                  d=grid.d, velocity=velocity)
    if velocity is not None and flux.name != "linear-transport":
        raise ConfigError(f"params.velocity does not apply to flux {flux.name!r}")
    if flux.d != grid.d:
        raise ConfigError(f"params.flux {flux.name!r} is {flux.d}-d, "
                          f"the grid is {grid.d}-d")
    lspec = params.get("lambda", {})
    _check_keys(lspec, {"min", "max", "points"}, "params.lambda")
    lo = _number(lspec.get("min", -1.0), "params.lambda.min")
    hi = _number(lspec.get("max", 1.0), "params.lambda.max")
    # the (N, d) mesh of the manifold, N = resolution^(d-1), and the flux
    # derivatives at every lambda, (points, d, d)
    resolution = _count(params.get("resolution", 64), "params.resolution",
                        lambda r: r ** (flux.d - 1) * flux.d)
    lam = _midpoints((lo, hi), "params.lambda", lspec.get("points", 256),
                     "params.lambda.points", lambda n: n * flux.d ** 2)
    manifold = kinetic.UPManifold(flux.d, flux.l_split)
    eps_list = _numbers(params.get("eps_list", [0.05, 0.2, 1.0]), "params.eps_list")
    report = kinetic.up_nondegeneracy_scan(
        flux, [None], manifold, lam, eps_list, resolution=resolution)
    M = _param(params, "M", 1.0)
    u = spectral.inverse_dft(_envelope_spectrum(grid, rng, 0.2, 0.0))
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
    """Execute one experiment config; returns the process exit code.

    Artifacts are written to a temporary directory next to the output
    directory (inside it, if it already exists, so its parent need not be
    writable) and moved into it only when the command succeeds: a failed
    run leaves no output directory, or an existing one unchanged."""
    grid = _build_grid(cfg["grid"])
    profile = _build_profile(cfg["profile"])
    if profile.d != grid.d:
        raise ConfigError("profile.alpha length must match the grid dimension")
    out = Path(out_dir or ".")
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
    # the distinct messages of the SupportWarnings the filters show; every
    # other warning goes on to its display
    notes, display = {}, warnings.showwarning

    def show(message, category, *rest, **kw):
        if issubclass(category, SupportWarning):
            notes[str(message)] = None
        else:
            display(message, category, *rest, **kw)

    home = out if out.is_dir() else out.parent
    home.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=home))
    try:
        _write_json(stage / "manifest.json", manifest)
        # one floating-point boundary: an overflow, invalid operation or
        # division by zero that no guard inside caught ends the run
        try:
            with np.errstate(all="raise", under="ignore"), warnings.catch_warnings():
                warnings.showwarning = show
                _RUNNERS[cfg["command"]](grid, profile, cfg["params"], rng, stage)
        except FloatingPointError as exc:
            raise IntegrityError(f"floating-point failure: {exc}") from None
        out.mkdir(exist_ok=True)
        for path in sorted(stage.iterdir()):
            os.replace(path, out / path.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    for note in notes:
        print(f"hpm: warning: {note}", file=sys.stderr)
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
