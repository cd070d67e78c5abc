"""One benchmark operation: `python3 child.py JOB.json`.

Imports `hpm.cli` from the job's source directory, optionally installs the
span tracer, then runs every config of the job through `hpm.cli.main`
exactly as `hpm <command> --config CFG --out DIR` would, one after
another.  Timestamps use the system-wide monotonic clock so the parent can
subtract its own spawn time.  The report is written to the job's
`report` path; stdout and stderr belong to the program.
"""

import json
import sys
import time


def _blas_threads():
    """OpenBLAS thread count of the numpy build, or None if unknown."""
    import ctypes
    import glob
    import os

    import numpy
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _environment():
    import platform

    import numpy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "blas_threads": _blas_threads()}
    if "scipy" in sys.modules:
        env["scipy"] = sys.modules["scipy"].__version__
    return env


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import hpm.cli
    imported = time.monotonic()
    report = {"imported": imported, "hpm_file": hpm.cli.__file__,
              "codes": [], "missing": []}
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        report["missing"] = tracer.install()
    start = time.monotonic()
    for run in job["runs"]:
        code = hpm.cli.main([run["command"], "--config", run["config"],
                             "--out", run["out"]])
        report["codes"].append(code)
        if code != 0:
            break
    report["run_s"] = time.monotonic() - start
    if tracer is not None:
        report["spans"] = tracer.spans(job["op_id"])
        if "scipy.fft" in sys.modules and "scipy.fft" not in tracer.wrapped_libs:
            report["missing"].append("scipy.fft (imported after the tracer)")
    if job["environment"]:
        report["environment"] = _environment()
    with open(job["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
