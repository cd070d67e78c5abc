"""Span tracer installed from outside the program, in the traced child.

`Tracer.install()` wraps every public function named in `LAYERS` in every
`hpm.*` namespace that binds it (so `hmeasure`'s own `forward_dft`
binding is caught too), and every `numpy.fft` transform (plus `scipy.fft`
when the program has imported it).  Each call records a span: name,
start, end and parent index; spans stay in memory until the child writes
them out.  `self_times` turns spans into per-name call counts and self
time, self time being a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time

LAYERS = {
    "spectral": ("forward_dft", "inverse_dft", "subtract_spatial_mean",
                 "band_limited_field", "write_field"),
    "anisotropy": ("project_to_P", "project_lattice", "mesh_P"),
    "multiplier": ("marcinkiewicz_certify", "apply_projected_symbol",
                   "projected_symbol_lattice"),
    "hmeasure": ("scalar_hmeasure", "make_cell_basis", "oscillation_sequence"),
    "averaging": ("transport_evolve", "velocity_average", "compactness_metric",
                  "nondegeneracy_scan"),
    "kinetic": ("up_nondegeneracy_scan", "exact_lambda_integral",
                "validate_flux"),
    "cli": ("main",),
}

FFT_FUNCS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft",
             "rfftn", "irfftn", "rfft2", "irfft2", "hfft", "ihfft")
FFT_PREFIX = "fft:"  # span names of library transforms: "fft:numpy.fftn"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.extra: dict[int, dict] = {}  # span index -> {"points": ..., "bytes": ...}
        self._stack: list[int] = []
        self.wrapped_libs: list[str] = []

    def wrap(self, name, fn, measure=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if measure is not None:
                self.extra[idx] = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap the layer functions and library transforms; returns the
        names that could not be found (a renamed or removed function)."""
        hpm_modules = [m for name, m in list(sys.modules.items())
                       if m is not None and (name == "hpm" or name.startswith("hpm."))]
        missing = []
        for mod, funcs in LAYERS.items():
            home = sys.modules.get(f"hpm.{mod}")
            for fname in funcs:
                original = getattr(home, fname, None)
                if original is None or not callable(original):
                    missing.append(f"{mod}.{fname}")
                    continue
                measure = _write_field_bytes if fname == "write_field" else None
                wrapped = self.wrap(f"{mod}.{fname}", original, measure)
                for m in hpm_modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
        import numpy.fft
        libs = [("numpy", numpy.fft)]
        if "scipy.fft" in sys.modules:
            libs.append(("scipy", sys.modules["scipy.fft"]))
        for lib, mod in libs:
            self.wrapped_libs.append(mod.__name__)
            for fname in FFT_FUNCS:
                original = getattr(mod, fname, None)
                if original is not None:
                    setattr(mod, fname, self.wrap(
                        f"{FFT_PREFIX}{lib}.{fname}", original, _fft_size))
        return missing

    def spans(self, op_id: int) -> list:
        """[name, start, end, parent, op_id, extra] per span, in call
        order; extra holds FFT sizes or written bytes, else None."""
        return [[n, s, e, p, op_id, self.extra.get(i)] for i, (n, s, e, p)
                in enumerate(zip(self.names, self.start, self.end, self.parent))]


def _fft_size(args, kwargs, result):
    import numpy as np
    a = np.asarray(args[0] if args else kwargs["a"])
    return {"points": int(a.size), "bytes": int(a.nbytes + np.asarray(result).nbytes)}


def _write_field_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def self_times(spans) -> dict:
    """Per span name: {"calls", "self_s", "points", "bytes"} summed over
    the given spans (all of one operation)."""
    children: dict[int, list] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out: dict[str, dict] = {}
    for idx, (name, start, end, _parent, _op, extra) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                    "points": 0, "bytes": 0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - _covered(children.get(idx, []))
        if extra:
            rec["points"] += extra.get("points", 0)
            rec["bytes"] += extra.get("bytes", 0)
    return out
