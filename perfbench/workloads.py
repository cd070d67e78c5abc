"""Fixed CLI configs of each benchmark workload.

Every workload is a list of (name, config) pairs that one operation runs
through `hpm.cli.main`, in order, in one child process.  Only the config
`seed` depends on the benchmark seed; everything else is fixed so that
operation cost does not vary with the seed.

`tiny=True` shrinks every config to a size the self-test can run in a
few seconds; the benchmark itself always uses the full sizes.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 7  # the seed of the README example; references are kept for it

_BASE2 = {"n": [16, 16], "L": [1.0, 1.0]}


def _cfg(command, grid, alpha, params):
    return {"command": command, "grid": grid, "profile": {"alpha": alpha},
            "seed": 0, "params": params}


def _transport(tiny):
    # the README averaging config on the acceptance-5 grid: a few large
    # velocity-batched FFTs, the transport phase and mean subtraction
    n, n_p = ([8, 32], [16]) if tiny else ([32, 256], [256])
    n_list = [2, 4, 8] if tiny else [4, 8, 16, 32, 64]
    return [("averaging", _cfg(
        "averaging", {"n": n, "L": [1.0, 1.0], "n_p": n_p, "P_len": [1.0]},
        [1.0, 1.0],
        {"a": ["1.0", "p1"], "rho": "cos(pi*p1)**2", "t": 0.2,
         "n_list": n_list}))]


def _hmeasure(tiny):
    # many small in-cache FFTs and the per-cell einsum: a change to the FFT
    # seam that helps the large transforms of `transport` can cost these
    n2 = [32, 32] if tiny else [256, 256]
    n3 = [16, 16, 16] if tiny else [32, 32, 32]
    return [
        ("hmeasure-2d", _cfg(
            "hmeasure", {"n": n2, "L": [1.0, 1.0]}, [1.0, 1.0],
            {"generator": {"kind": "oscillation", "c": [1.0, 0.0]},
             "x_cells": 2 if tiny else 4, "p_cells": 8 if tiny else 16,
             "n_list": [4, 6, 8] if tiny else [8, 16, 24, 32]})),
        ("hmeasure-3d", _cfg(
            "hmeasure", {"n": n3, "L": [1.0, 1.0, 1.0]}, [1.0, 1.0, 2.0],
            {"generator": {"kind": "oscillation", "c": [1.0, 0.0, 0.5]},
             "x_cells": 2 if tiny else 4, "p_cells": 8 if tiny else 24,
             "n_list": [2, 3, 4] if tiny else [4, 6, 8]})),
    ]


def _project_points(count):
    # a fixed spread of nonzero 3-vectors with mixed signs and scales
    pts = []
    for i in range(count):
        s = 2.0 ** ((i % 9) - 4)
        pts.append([s * ((i % 7) - 3 + 0.5), s * ((i % 5) - 2 + 0.25),
                    s * ((i % 3) - 1 + 0.125)])
    return pts


def _catalog(tiny):
    # every command at small size, run in turn as a user would:
    # projections, scans, the certifier, field I/O and CLI overhead,
    # almost no large FFT
    return [
        ("project", _cfg(
            "project", {"n": [8, 8, 8], "L": [1.0, 1.0, 1.0]}, [1.0, 2.0, 3.0],
            {"points": _project_points(16 if tiny else 256)})),
        ("multiplier-check", _cfg(
            "multiplier-check", _BASE2, [1.0, 2.0],
            {"symbol": "coordinate:0", "shells": 3 if tiny else 6,
             "samples_per_shell": 8 if tiny else 48})),
        ("multiplier-apply", _cfg(
            "multiplier-apply",
            {"n": [32, 32] if tiny else [512, 512], "L": [1.0, 1.0]},
            [1.0, 2.0], {"operation": "projected", "symbol": "coordinate:0"})),
        ("hmeasure", _cfg(
            "hmeasure", {"n": [32, 32], "L": [1.0, 1.0]}, [1.0, 1.0],
            {"generator": {"kind": "oscillation", "c": [1.0, 0.0]},
             "n_list": [4, 6, 8], "x_cells": 2, "p_cells": 8})),
        ("averaging", _cfg(
            "averaging", {"n": [8, 32], "L": [1.0, 1.0], "n_p": [16],
                          "P_len": [1.0]}, [1.0, 1.0],
            {"a": ["1.0", "p1"], "rho": "cos(pi*p1)**2", "t": 0.5,
             "n_list": [2, 4, 8]})),
        ("nondegeneracy", _cfg(
            "nondegeneracy", {"n": [8, 8, 8], "L": [1.0, 1.0, 1.0]},
            [1.0, 1.0, 1.0],
            {"a": ["1.0", "p", "p*p"], "eps_list": [0.01, 0.1, 0.5, 1.0],
             "p_points": 64 if tiny else 1024,
             "resolution": 16 if tiny else 64})),
        ("kinetic", _cfg(
            "kinetic", {"n": [32, 32], "L": [1.0, 1.0]}, [1.0, 1.0],
            {"flux": "burgers-heat", "lambda": {"points": 64 if tiny else 256},
             "resolution": 16 if tiny else 64})),
    ]


_WORKLOADS = {"transport": _transport, "hmeasure": _hmeasure,
             "catalog": _catalog}
NAMES = tuple(_WORKLOADS)


def config_seed(seed: int) -> int:
    """Map any benchmark seed to a valid config seed (a Philox key)."""
    return seed % (1 << 63)


def configs(workload: str, seed: int, tiny: bool = False):
    """The (name, config) pairs of one operation of `workload`."""
    out = []
    for name, cfg in _WORKLOADS[workload](tiny):
        cfg = copy.deepcopy(cfg)
        cfg["seed"] = config_seed(seed)
        out.append((name, cfg))
    return out


def largest_field_bytes(workload: str) -> int:
    """Bytes of the largest complex128 field any config of the workload
    builds (the full grid including velocity axes)."""
    best = 0
    for _, cfg in configs(workload, DEFAULT_SEED):
        count = 1
        for n in cfg["grid"]["n"] + cfg["grid"].get("n_p", []):
            count *= n
        best = max(best, 16 * count)
    return best
