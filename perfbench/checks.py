"""Output checks of one operation, computed independently with numpy.

`check_config` returns a list of failure messages (empty when the
artifacts of one config are correct):

- every number in every artifact is finite (CSV, JSON, plot data and the
  field payload)
- `manifest.json` echoes the config
- `decay.csv`: ratio[0] == 1 and ratio == norm / norm[0]
- `hmeasure.json`: total_mass equals the sum of the `cells.csv` masses
- `projections.csv`: every projected row satisfies sum_k |q_k|^(l alpha_k) = 1
- at the default seed, agreement with the recorded reference fingerprint

`fingerprint` reduces a config's artifacts to a few numbers per file and
column; the reference tolerance is far above the ~1e-13 differences a
different FFT backend gives and far below any wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-14
EXACT_REL = 1e-12  # identities the program computes in one or two roundings

_FIELD_MAGIC = b"HPFLD1\n"


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _json_leaves(obj, prefix=""):
    """(path, value) for every scalar in a JSON document; strings that
    parse as numbers become floats."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _json_leaves(obj[k], f"{prefix}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _json_leaves(v, f"{prefix}/{i}")
    elif isinstance(obj, str):
        num = _number(obj)
        yield prefix, obj if num is None else num
    elif isinstance(obj, bool) or obj is None:
        yield prefix, obj
    else:
        yield prefix, float(obj)


def _table(path: Path, sep):
    """Numeric rows of a CSV (sep=",") or plot-data file (sep=None)."""
    lines = path.read_text().splitlines()
    rows = [[float(v) for v in line.split(sep)] for line in lines[1:] if line]
    width = max((len(r) for r in rows), default=0)
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path.name}: ragged rows")
    return np.array(rows, dtype=float).reshape(len(rows), width)


def _field_values(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if not data.startswith(_FIELD_MAGIC):
        raise ValueError(f"{path.name}: bad magic")
    end = data.index(b"\n", len(_FIELD_MAGIC))
    header = json.loads(data[len(_FIELD_MAGIC):end])
    payload = np.frombuffer(data[end + 1:], dtype="<f8")
    if payload.size != 2 * math.prod(header["n"]):
        raise ValueError(f"{path.name}: payload size does not match header")
    return payload.reshape(-1, 2)  # (re, im) columns


def read_artifact(path: Path):
    """('table', 2-d array) for CSV, plot data and fields; ('json', leaves)."""
    if path.suffix == ".csv":
        return "table", _table(path, ",")
    if path.suffix == ".dat":
        return "table", _table(path, None)
    if path.suffix == ".fld":
        return "table", _field_values(path)
    if path.suffix == ".json":
        return "json", dict(_json_leaves(json.loads(path.read_text())))
    raise ValueError(f"unexpected artifact {path.name}")


def fingerprint(out: Path) -> dict:
    """Per artifact (manifest excluded): column sums, absolute sums, sums
    of squares, minima and maxima of tables; every leaf of JSON files."""
    fp = {}
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json":
            continue
        kind, data = read_artifact(path)
        if kind == "json":
            fp[path.name] = data
        else:
            fp[path.name] = {
                "rows": int(data.shape[0]),
                "sum": data.sum(axis=0).tolist(),
                "abs": np.abs(data).sum(axis=0).tolist(),
                "sq": (data ** 2).sum(axis=0).tolist(),
                "min": data.min(axis=0).tolist(),
                "max": data.max(axis=0).tolist(),
            }
    return fp


def _close(got, want, scale) -> bool:
    return abs(got - want) <= REL_TOL * abs(scale) + ABS_TOL


def compare_fingerprint(got: dict, want: dict) -> list[str]:
    errors = []
    if sorted(got) != sorted(want):
        return [f"artifacts {sorted(got)} differ from reference {sorted(want)}"]
    for name, ref in want.items():
        cur = got[name]
        if "rows" in ref:  # a table; JSON leaf paths all start with "/"
            if cur.get("rows") != ref["rows"] or len(cur["sum"]) != len(ref["sum"]):
                errors.append(f"{name}: table shape differs from reference")
                continue
            for col in range(len(ref["sum"])):
                peak = max(abs(ref["min"][col]), abs(ref["max"][col]))
                pairs = (("sum", ref["abs"][col]), ("abs", ref["abs"][col]),
                         ("sq", ref["sq"][col]), ("min", peak), ("max", peak))
                for stat, scale in pairs:
                    if not _close(cur[stat][col], ref[stat][col], scale):
                        errors.append(f"{name}: column {col} {stat} "
                                      f"{cur[stat][col]!r} != reference {ref[stat][col]!r}")
            continue
        if sorted(cur) != sorted(ref):
            errors.append(f"{name}: keys differ from reference")
            continue
        for key, want_v in ref.items():
            got_v = cur[key]
            if isinstance(want_v, float) and isinstance(got_v, float):
                if not _close(got_v, want_v, want_v):
                    errors.append(f"{name}{key}: {got_v!r} != reference {want_v!r}")
            elif got_v != want_v:
                errors.append(f"{name}{key}: {got_v!r} != reference {want_v!r}")
    return errors


def _finite(name, kind, data) -> list[str]:
    if kind == "table":
        return [] if np.all(np.isfinite(data)) else [f"{name}: non-finite value"]
    bad = [k for k, v in data.items() if isinstance(v, float) and not math.isfinite(v)]
    return [f"{name}{k}: non-finite value" for k in bad]


def _check_manifest(out: Path, cfg: dict) -> list[str]:
    man = json.loads((out / "manifest.json").read_text())
    errors = []
    for key in ("command", "seed", "params"):
        if man.get(key) != cfg[key]:
            errors.append(f"manifest.json: {key} does not echo the config")
    grid = cfg["grid"]
    want_grid = {"n": grid["n"], "L": [float(v) for v in grid["L"]],
                 "n_p": grid.get("n_p", []),
                 "P_len": [float(v) for v in grid.get("P_len", [])]}
    if man.get("grid") != want_grid:
        errors.append("manifest.json: grid does not echo the config")
    alpha = [float(a) for a in cfg["profile"]["alpha"]]
    if man.get("profile", {}).get("alpha") != alpha:
        errors.append("manifest.json: profile.alpha does not echo the config")
    l = man.get("profile", {}).get("l")
    if l != math.floor(len(alpha) / min(alpha)) + 1:
        errors.append(f"manifest.json: l={l!r} is not floor(d/min alpha)+1")
    return errors


def _check_decay(table) -> list[str]:
    norm, ratio = table[:, 1], table[:, 2]
    if ratio[0] != 1.0:
        return [f"decay.csv: ratio[0] = {ratio[0]!r}, expected 1"]
    if not np.allclose(ratio, norm / norm[0], rtol=EXACT_REL, atol=0):
        return ["decay.csv: ratio != norm / norm[0]"]
    return []


def _check_hmeasure(out: Path, summary) -> list[str]:
    cells = read_artifact(out / "cells.csv")[1]
    total = summary["/total_mass"]
    want = float(np.sum(cells[:, 2]))
    if abs(total - want) > EXACT_REL * float(np.sum(np.abs(cells[:, 2]))) + ABS_TOL:
        return [f"hmeasure.json: total_mass {total!r} != sum of cells.csv {want!r}"]
    return []


def _check_projections(out: Path, table) -> list[str]:
    man = json.loads((out / "manifest.json").read_text())
    alpha = np.asarray(man["profile"]["alpha"])
    d = alpha.size
    q = table[:, d:2 * d]
    s = np.sum(np.abs(q) ** (man["profile"]["l"] * alpha), axis=1)
    if not np.allclose(s, 1.0, rtol=0, atol=1e-10):
        worst = float(np.max(np.abs(s - 1.0)))
        return [f"projections.csv: constraint sum off P by {worst:.3g}"]
    return []


def check_config(out: Path, cfg: dict, reference: dict | None) -> list[str]:
    """Failure messages for the artifacts of one config (empty if correct)."""
    if not (out / "manifest.json").is_file():
        return ["manifest.json missing"]
    errors = []
    try:
        errors += _check_manifest(out, cfg)
        parsed = {p.name: read_artifact(p) for p in sorted(out.iterdir())}
        for name, (kind, data) in parsed.items():
            errors += _finite(name, kind, data)
        if "decay.csv" in parsed:
            errors += _check_decay(parsed["decay.csv"][1])
        if "hmeasure.json" in parsed:
            errors += _check_hmeasure(out, parsed["hmeasure.json"][1])
        if "projections.csv" in parsed:
            errors += _check_projections(out, parsed["projections.csv"][1])
        if reference is not None:
            errors += compare_fingerprint(fingerprint(out), reference)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        errors.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    return errors


def digest(out: Path) -> dict:
    """sha256 of every artifact, for the byte-identity check."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}
