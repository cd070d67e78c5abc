"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line (run with -s to see them)."""

import json
import time

import numpy as np
import pytest

from hpm import cli
from hpm.anisotropy import AnisotropyProfile, constraint_sum, fibre_point, \
    mesh_P, project_to_P
from hpm.averaging import compactness_metric, nondegeneracy_scan, transport_evolve
from hpm.errors import SupportWarning
from hpm.hmeasure import OscillationSequence, bilinear_form, cosine_velocity_basis, \
    matrix_hmeasure, oscillation_sequence, scalar_hmeasure
from hpm.kinetic import UPManifold, bump_test_function, entropy_residual, \
    exact_lambda_integral, flux_from_name, spline_test_function, \
    up_nondegeneracy_scan
from hpm.multiplier import fractional_derivative, marcinkiewicz_certify, \
    symbol_from_name
from hpm.spectral import SpectralField, SpectralGrid, \
    band_limited_field, forward_dft, inverse_dft, subtract_spatial_mean

pytestmark = pytest.mark.filterwarnings("ignore::hpm.errors.SupportWarning")

ISO2 = AnisotropyProfile((1.0, 1.0))


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


def report(num: int, name: str, checks: dict) -> None:
    ok = all(checks.values())
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    if not ok:
        failed = sorted(k for k, v in checks.items() if not v)
        print(f"  failing checks: {failed}")
    assert ok, f"criterion {num} ({name}) failed: " \
               f"{sorted(k for k, v in checks.items() if not v)}"


def test_criterion_1_spectral_integrity():
    start = time.perf_counter()
    g = SpectralGrid((256, 256), (1.0, 1.0))
    r = rng(1)
    f = SpectralField(g, r.standard_normal(g.shape)
                      + 1j * r.standard_normal(g.shape))
    F = forward_dft(f)
    lhs = np.sum(np.abs(f.values) ** 2) * g.cell_volume
    rhs = np.sum(np.abs(F.values) ** 2) * g.freq_cell_volume
    back = inverse_dft(F)
    real = SpectralField(g, r.standard_normal(g.shape))
    R = forward_dft(real).values
    mirrored = R[tuple(np.meshgrid(*(-np.arange(n) % n for n in g.n_per_axis),
                                   indexing="ij"))]
    elapsed = time.perf_counter() - start
    checks = {
        "plancherel": abs(lhs - rhs) <= 1e-12 * lhs,
        "round_trip": float(np.max(np.abs(back.values - f.values)))
                      <= 1e-12 * float(np.max(np.abs(f.values))),
        "conjugate_symmetry": float(np.max(np.abs(R - np.conj(mirrored))))
                              <= 1e-12 * float(np.max(np.abs(R))),
        "runtime_under_10s": elapsed < 10.0,
    }
    report(1, "spectral-integrity", checks)


def test_criterion_2_projection_fibration():
    checks = {}
    for alpha in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0, 2.0)):
        prof = AnisotropyProfile(alpha)
        tag = "a" + "".join(str(int(a)) for a in alpha)
        pts = rng(2).standard_normal((64, prof.d)) * 3 + 0.1
        proj = project_to_P(pts, prof)
        constraint = np.max(np.abs(constraint_sum(proj, prof) - 1.0))
        idem = np.max(np.abs(project_to_P(proj, prof) - proj))
        fib = max(np.max(np.abs(project_to_P(
            np.array([fibre_point(q, t, prof) for q in proj]), prof) - proj))
            for t in (1e-2, 1.0, 1e3))
        dil = 0.0
        for lam in (0.01, 3.7, 250.0):
            scaled = pts * lam ** (1.0 / np.asarray(alpha))
            dil = max(dil, np.max(np.abs(project_to_P(scaled, prof) - proj)))
        checks[f"{tag}_constraint"] = constraint <= 1e-9
        checks[f"{tag}_idempotent"] = idem <= 1e-9
        checks[f"{tag}_fibre_invariance"] = fib <= 1e-9
        checks[f"{tag}_dilation_invariance"] = dil <= 1e-9
    p34 = project_to_P(np.array([3.0, 4.0]), ISO2)
    checks["case_3_4"] = (abs(p34[0] - 0.6670) <= 1e-4
                          and abs(p34[1] - 0.8893) <= 1e-4)
    report(2, "projection-fibration", checks)


def test_criterion_3_multiplier():
    start = time.perf_counter()
    g = SpectralGrid((64, 64), (1.0, 1.0))
    f = band_limited_field(g, rng(3))
    twice = fractional_derivative(fractional_derivative(f, 0, 0.5), 0, 0.5)
    once = fractional_derivative(f, 0, 1.0)
    semi = float(np.max(np.abs(twice.values - once.values))) \
        / float(np.max(np.abs(once.values)))
    one_rep = marcinkiewicz_certify(symbol_from_name("one", ISO2), ISO2, 4, 16)
    coord = symbol_from_name("coordinate:0", ISO2)
    ca = marcinkiewicz_certify(coord, ISO2, 4, 16)
    cb = marcinkiewicz_certify(coord, ISO2, 5, 24)
    sin_rep = marcinkiewicz_certify(
        symbol_from_name("sin-inverse-quasinorm", ISO2), ISO2, 4, 16)
    elapsed = time.perf_counter() - start
    checks = {
        "fractional_semigroup": semi <= 1e-8,
        "constant_symbol_is_one": one_rep.constant_estimate == 1.0
                                  and not one_rep.diverged,
        "coordinate_stable_10pct": (not ca.diverged and not cb.diverged
                                    and abs(ca.constant_estimate - cb.constant_estimate)
                                    <= 0.1 * ca.constant_estimate),
        "sin_inverse_diverges": sin_rep.diverged,
        "runtime_under_60s": elapsed < 60.0,
    }
    report(3, "multiplier", checks)


def test_criterion_4_hmeasure_oracle():
    start = time.perf_counter()
    g = SpectralGrid((256, 256), (1.0, 1.0))
    x1, x2 = g.coordinates()
    env_vals = 1.0 + 0.3 * np.cos(2 * np.pi * x1) * np.sin(2 * np.pi * x2)
    env = SpectralField(g, env_vals.astype(complex))
    c = (1.0, 0.0)
    u32 = oscillation_sequence(ISO2, c, env, 32)
    phi1 = np.sin(np.pi * x1) ** 4 * np.sin(np.pi * x2) ** 4
    phi2 = phi1 * (1.0 + 0.2 * np.sin(2 * np.pi * x2))
    psi = symbol_from_name("coordinate:0", ISO2)
    with pytest.warns(SupportWarning):
        v = bilinear_form(u32, phi1, phi2, psi, ISO2)
    target = project_to_P(np.asarray(c), ISO2)
    oracle = float(target[0]) * np.sum(phi1 * np.conj(phi2)
                                       * np.abs(env_vals) ** 2) * g.cell_volume
    seq = OscillationSequence(ISO2, c, env)
    est = scalar_hmeasure(seq, ISO2, g, (8, 16, 24, 32), x_cells=4, p_cells=16)
    by_angle = est.cells.sum(axis=0)
    adjacent = by_angle[0] + by_angle[1] + by_angle[-1]

    gm = SpectralGrid((16, 16), (1.0, 1.0), n_velocity=(32,),
                      velocity_length=(2.0,))
    basis = cosine_velocity_basis(gm, 3).astype(complex)
    xm = gm.coord_axis(0)
    prof = basis[0] + 0.5 * basis[1]
    mod = np.ones(gm.n_per_axis, dtype=complex)
    mseq = lambda n: subtract_spatial_mean(SpectralField(
        gm, (np.exp(2j * np.pi * n * xm)[:, None] * mod)[..., None] * prof))
    M = matrix_hmeasure(mseq, basis, 2, 8, (4, 6, 8), ISO2)
    try:
        M.check_integrity(diag_tol=1e-10, cs_slack=1e-9, hermitian_tol=1e-10)
        integrity_ok = True
    except Exception:
        integrity_ok = False
    elapsed = time.perf_counter() - start
    checks = {
        "oscillation_oracle_5pct": abs(v - oracle) <= 0.05 * abs(oracle),
        "adjacent_mass_95pct": adjacent >= 0.95 * est.cells.sum(),
        "hermitian_and_cauchy_schwarz": integrity_ok,
        "runtime_under_5min": elapsed < 300.0,
    }
    report(4, "hmeasure-oracle", checks)


def test_criterion_5_averaging_dichotomy():
    start = time.perf_counter()
    g = SpectralGrid((32, 256), (1.0, 1.0), n_velocity=(256,),
                     velocity_length=(1.0,))
    env = SpectralField(g, np.ones(g.shape, dtype=complex))
    seq0 = OscillationSequence(ISO2, (0.0, 1.0), env)

    def bump(p):
        q = 2.0 * np.asarray(p)
        out = np.zeros_like(q)
        inside = np.abs(q) < 1
        out[inside] = np.exp(-1.0 / (1.0 - q[inside] ** 2))
        return out

    n_list = (4, 8, 16, 32, 64)
    window = ((0.0, 1.0), (0.0, 1.0))
    a_nd = lambda p: np.stack([np.ones_like(p), p], axis=-1)
    nd = compactness_metric(
        lambda n: subtract_spatial_mean(transport_evolve(seq0(n), a_nd, 0.2)),
        bump, window, n_list)
    a_dg = lambda p: np.stack([np.ones_like(p), np.zeros_like(p)], axis=-1)
    dg = compactness_metric(
        lambda n: subtract_spatial_mean(transport_evolve(seq0(n), a_dg, 0.2)),
        bump, window, n_list)

    eps = (0.05, 0.1, 0.2)
    p_grid = -0.5 + (np.arange(2048) + 0.5) / 2048
    rep = nondegeneracy_scan([1.0, lambda x, p: p], [0.0], ISO2, 16,
                             p_grid, eps)
    mesh, _ = mesh_P(ISO2, 16)
    idx = int(np.argmin([abs(m[0]) + abs(m[1] - 1.0) for m in mesh]))
    slope_ok = all(abs(m - e / np.pi) <= 0.2 * (e / np.pi)
                   for e, m in zip(eps, rep.measures[0, idx]))
    elapsed = time.perf_counter() - start
    checks = {
        "nondegenerate_r64": nd.ratios[-1] <= 0.25,
        "degenerate_r_min": min(dg.ratios) >= 0.9,
        "eps_linear_law_20pct": slope_ok,
        "runtime_under_5min": elapsed < 300.0,
    }
    report(5, "averaging-dichotomy", checks)


def test_criterion_6_kinetic():
    start = time.perf_counter()
    u = rng(6).uniform(-0.9, 0.9, size=(64, 64))
    identity_gap = float(np.max(np.abs(exact_lambda_integral(u, 1.0) - 2 * u)))

    flux = flux_from_name("burgers-heat")
    man = UPManifold(2, 1)
    lam = -1.0 + (np.arange(512) + 0.5) / 256
    cell = lam[1] - lam[0]
    eps = (0.05, 0.1, 0.2)
    rep = up_nondegeneracy_scan(flux, [0.0], man, lam, eps, resolution=32)
    mesh = man.mesh(32)
    bound_ok = True
    for ip, xi in enumerate(mesh):
        hx = abs(xi[0])
        for ie, e in enumerate(eps):
            bound = (e / (np.pi * hx) if hx > 1e-12 else np.inf)
            if rep.measures[0, ip, ie] > bound + cell:
                bound_ok = False

    lt = flux_from_name("linear-transport", d=2, velocity=(3.0, 1.0))
    gconst = SpectralGrid((64, 64), (1.0, 1.0))
    uconst = SpectralField(gconst, np.full(gconst.shape, 0.3))
    phic = spline_test_function(gconst, (0.25, 0.25), (0.125, 0.125))
    r_const = entropy_residual(uconst, 0.1, lt, phic)

    res = []
    for n in (32, 64, 128):
        gn = SpectralGrid((n, n), (1.0, 1.0))
        xa, xb = gn.coordinates()
        usm = SpectralField(gn, 0.5 * np.sin(2 * np.pi * (xa - 3 * xb))
                            * np.ones(gn.shape))
        phin = spline_test_function(gn, (0.25, 0.25), (0.125, 0.125))
        res.append(abs(entropy_residual(usm, 0.7, lt, phin)))
    ratios = [b / a for a, b in zip(res, res[1:])]

    def burgers_x2():
        def f(x, lamv):
            lamv = np.asarray(lamv, dtype=float)
            out = np.zeros(lamv.shape + (2,))
            out[..., 0] = lamv
            out[..., 1] = lamv ** 2 / 2
            return out
        from hpm.kinetic import FluxPair
        return FluxPair("burgers-x2", 2, 2, f=f,
                        B=lambda x, l: np.zeros(np.shape(l) + (2, 2)),
                        dlam_f=lambda x, l: np.stack(
                            [np.ones_like(np.asarray(l, dtype=float)),
                             np.asarray(l, dtype=float)], axis=-1),
                        dlam_B=lambda x, l: np.zeros(np.shape(l) + (2, 2)))

    anti = []
    for n in (64, 128, 256):
        gn = SpectralGrid((n, n), (1.0, 1.0))
        xj = gn.coord_axis(1)
        vals = np.where(xj < 0.5, -1.0, 1.0)[None, :] * np.ones(gn.n_per_axis)
        uj = SpectralField(gn, vals)
        phj = bump_test_function(gn, (0.5, 0.5), (0.2, 0.2))
        anti.append(entropy_residual(uj, 0.0, burgers_x2(), phj))
    elapsed = time.perf_counter() - start
    checks = {
        "lambda_identity_1e12": identity_gap <= 1e-12,
        "scan_nondegenerate": not rep.degenerate_flag,
        "scan_measure_bound": bound_ok,
        "constant_residual_zero": abs(r_const) <= 1e-12,
        "smooth_doubling_ratio": all(0.2 <= r <= 0.8 for r in ratios),
        "anti_entropy_positive": all(r >= 0.05 for r in anti),
        "runtime_under_2min": elapsed < 120.0,
    }
    report(6, "kinetic", checks)


def test_criterion_7_determinism(tmp_path):
    configs = {
        "averaging": {
            "command": "averaging",
            "grid": {"n": [8, 32], "L": [1.0, 1.0], "n_p": [16],
                     "P_len": [1.0]},
            "profile": {"alpha": [1.0, 1.0]},
            "seed": 99,
            "params": {"a": ["1.0", "p1"], "rho": "cos(pi*p1)**2", "t": 0.5,
                       "n_list": [2, 4, 8]},
        },
        "kinetic": {
            "command": "kinetic",
            "grid": {"n": [16, 16], "L": [1.0, 1.0]},
            "profile": {"alpha": [1.0, 1.0]},
            "seed": 99,
            "params": {"flux": "burgers-heat", "lambda": {"points": 64},
                       "resolution": 16},
        },
    }
    checks = {}
    for name, cfg in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run_id in (1, 2):
            out = tmp_path / f"{name}-{run_id}"
            code = cli.main([name, "--config", str(cfg_path),
                             "--out", str(out)])
            assert code == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        checks[f"{name}_byte_identical"] = (outs[0] == outs[1]
                                            and len(outs[0]) >= 1)
    report(7, "determinism", checks)
