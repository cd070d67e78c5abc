"""CLI twins of the acceptance criteria: each runs `hpm` configs through
cli.main and reads its artifacts, with the thresholds of its library
criterion in test_acceptance.py (run with -s to see the PASS/FAIL lines).
Criteria 1 and 4-6 have no twin yet; see ROADMAP item 13."""

import csv
import json

import numpy as np
import pytest

from hpm import cli
from hpm.anisotropy import AnisotropyProfile
from test_acceptance import report, rng

ALPHAS = ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0, 2.0))


def run(tmp_path, name: str, cfg: dict) -> dict:
    """Run cfg through cli.main into tmp_path/name, which must exit 0, and
    return its artifacts' bytes by file name."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert cli.main([cfg["command"], "--config", str(path), "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def config(command: str, params: dict, alpha=(1.0, 1.0), grid=None) -> dict:
    return {"command": command,
            "grid": grid or {"n": [16] * len(alpha), "L": [1.0] * len(alpha)},
            "profile": {"alpha": list(alpha)}, "seed": 99, "params": params}


def project(tmp_path, name: str, alpha, points: np.ndarray):
    """`hpm project` on the rows of points: the projections and l."""
    files = run(tmp_path, name, config("project", {"points": points.tolist()}, alpha))
    rows = list(csv.reader(files["projections.csv"].decode().splitlines()))[1:]
    d = len(alpha)
    values = np.array(rows, dtype=float)
    assert np.array_equal(values[:, :d], points)
    l = json.loads(files["manifest.json"])["profile"]["l"]
    return values[:, d:], l


def test_criterion_2_projection_fibration_cli(tmp_path):
    checks = {}
    for alpha in ALPHAS:
        tag = "a" + "".join(str(int(a)) for a in alpha)
        d = len(alpha)
        pts = rng(2).standard_normal((64, d)) * 3 + 0.1
        proj, l = project(tmp_path, tag, alpha, pts)
        ex = l * np.asarray(alpha)
        constraint = np.max(np.abs(np.sum(np.abs(proj) ** ex, axis=-1) - 1.0))
        # one second run: the projections themselves, their fibre points
        # and the dilated points, 64 rows each
        ts = (1e-2, 1.0, 1e3)
        lams = (0.01, 3.7, 250.0)
        again = np.concatenate([proj] + [proj * t ** (1.0 / ex) for t in ts]
                               + [pts * lam ** (1.0 / np.asarray(alpha)) for lam in lams])
        back, _ = project(tmp_path, f"{tag}-again", alpha, again)
        back = back.reshape(1 + len(ts) + len(lams), 64, d)
        checks[f"{tag}_constraint"] = constraint <= 1e-9
        checks[f"{tag}_idempotent"] = np.max(np.abs(back[0] - proj)) <= 1e-9
        checks[f"{tag}_fibre_invariance"] = np.max(np.abs(back[1:4] - proj)) <= 1e-9
        checks[f"{tag}_dilation_invariance"] = np.max(np.abs(back[4:] - proj)) <= 1e-9
    p34, _ = project(tmp_path, "case-3-4", (1.0, 1.0), np.array([[3.0, 4.0]]))
    checks["case_3_4"] = (abs(p34[0, 0] - 0.6670) <= 1e-4
                          and abs(p34[0, 1] - 0.8893) <= 1e-4)
    report(2, "projection-fibration (cli)", checks)


def certify(tmp_path, name: str, symbol: str, shells: int, samples: int,
            alpha=(1.0, 1.0)) -> dict:
    files = run(tmp_path, name, config("multiplier-check", {
        "symbol": symbol, "shells": shells, "samples_per_shell": samples}, alpha))
    return json.loads(files["marcinkiewicz.json"])


def test_criterion_3_multiplier_cli(tmp_path):
    # the fractional semigroup has no twin: multiplier-apply publishes norms
    one = certify(tmp_path, "one", "one", 4, 16)
    ca = certify(tmp_path, "coord-4", "coordinate:0", 4, 16)
    cb = certify(tmp_path, "coord-5", "coordinate:0", 5, 24)
    sin = certify(tmp_path, "sin", "sin-inverse-quasinorm", 4, 16)
    checks = {
        "constant_symbol_is_one": one["constant"] == 1.0 and not one["diverged"],
        "coordinate_stable_10pct": (not ca["diverged"] and not cb["diverged"]
                                    and abs(ca["constant"] - cb["constant"])
                                    <= 0.1 * ca["constant"]),
        "sin_inverse_diverges": sin["diverged"] is True,
    }
    report(3, "multiplier (cli)", checks)


def test_criterion_7_determinism_cli(tmp_path):
    # every command, two of them with GEMMs whose bits the BLAS thread
    # count could move: hmeasure's cell forms and the nondegeneracy
    # scan's screen
    configs = {
        "project": config("project", {"points": [[3.0, 4.0], [-1.0, 2.0], [0.5, -7.0]]},
                          (1.0, 2.0)),
        "multiplier-apply": config("multiplier-apply", {
            "operation": "projected", "symbol": "sector:axis=0,sign=+"}, (1.0, 2.0)),
        "multiplier-check": config("multiplier-check", {
            "symbol": "coordinate:0", "shells": 3, "samples_per_shell": 8}, (1.0, 2.0)),
        "hmeasure": config("hmeasure", {
            "generator": {"kind": "oscillation", "c": [1.0, 0.5]},
            "n_list": [4, 6, 8], "x_cells": 2, "p_cells": 8},
            grid={"n": [32, 32], "L": [1.0, 1.0]}),
        "averaging": config("averaging", {
            "a": ["1.0", "p1"], "rho": "cos(pi*p1)**2", "t": 0.5, "n_list": [2, 4, 8]},
            grid={"n": [8, 32], "L": [1.0, 1.0], "n_p": [16], "P_len": [1.0]}),
        "nondegeneracy": config("nondegeneracy", {
            "a": ["1.0", "p"], "eps_list": [0.05, 0.2], "p_points": 64,
            "resolution": 16}),
        "kinetic": config("kinetic", {
            "flux": "burgers-heat", "lambda": {"points": 64}, "resolution": 16}),
    }
    assert sorted(configs) == sorted(cli.COMMANDS)
    checks = {}
    for name, cfg in configs.items():
        outs = [run(tmp_path, f"{name}-{i}", cfg) for i in (1, 2)]
        checks[f"{name}_byte_identical"] = outs[0] == outs[1] and len(outs[0]) >= 2
    report(7, "determinism (cli)", checks)


# --- a closed-form oracle for the certifier ---------------------------------

def coordinate_sups(alpha, samples: int = 200001) -> dict:
    """max over P of |xi^beta d^beta (psi o pi_P)| for psi = coordinate:0,
    |beta| <= 2, keyed like marcinkiewicz.json's per_beta.

    With x = xi_0, y = xi_1, e = l alpha, S = |x|^e0 + |y|^e1 and
    f = x S^(-1/e0) (which is psi o pi_P), let p = |x|^e0 / S and
    q = |y|^e1 / S, so p + q = 1.  With D_x = x d_x and D_y = y d_y:
    D_x S = e0 p S, D_y S = e1 q S, D_x p = e0 p q, D_y p = -e1 p q,
    D_x q = -e0 p q, D_y q = e1 p q, hence

        x f_x      = D_x f                 = q f
        y f_y      = D_y f                 = -(e1 / e0) q f
        x^2 f_xx   = D_x^2 f - D_x f       = -(1 + e0) p q f
        x y f_xy   = D_y D_x f             = e1 q f (p - q / e0)
        y^2 f_yy   = D_y^2 f - D_y f       = (e1 / e0) q f (1 + e1 (q / e0 - p)).

    Each is invariant along the fibres, so its sup is its max over P,
    where S = 1, f = x and |x| = p^(1/e0); the signs of x and y only
    flip signs, so p runs over [0, 1]."""
    l = AnisotropyProfile(alpha).l
    e0, e1 = l * alpha[0], l * alpha[1]
    p = np.linspace(0.0, 1.0, samples)
    q = 1.0 - p
    f = p ** (1.0 / e0)
    forms = {
        "00": f,
        "10": q * f,
        "01": (e1 / e0) * q * f,
        "20": (1 + e0) * p * q * f,
        "11": e1 * q * f * np.abs(p - q / e0),
        "02": (e1 / e0) * q * f * np.abs(1 + e1 * (q / e0 - p)),
    }
    return {beta: float(np.max(np.abs(v))) for beta, v in forms.items()}


@pytest.mark.parametrize("alpha", [(1.0, 1.0), (1.0, 2.0)])
def test_coordinate_symbol_matches_its_closed_form(tmp_path, alpha):
    # at the catalog setting, 6 shells of 48 samples, every sampled sup
    # lies within 1e-4 relative of its max over P
    published = certify(tmp_path, "coord", "coordinate:0", 6, 48, alpha)["per_beta"]
    oracle = coordinate_sups(alpha)
    assert sorted(published) == sorted(oracle)
    gaps = {beta: abs(published[beta] - sup) / sup for beta, sup in oracle.items()}
    assert max(gaps.values()) <= 1e-4, gaps
