"""Closed-loop benchmark of the hpm command-line runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports `hpm` from `src/`).
One client, one operation at a time: each operation spawns a fresh child
(`child.py`) that imports `hpm.cli` and runs the workload's configs
through `hpm.cli.main`; the next operation starts only after the child
has exited and its outputs have been checked.  An untimed warm-up
operation comes first, then operations run until S seconds have passed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics from children running the span tracer (untraced
operations are interleaved to measure the tracing overhead).  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
Scratch files, the run environment and the spans go to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

RUN_LIMIT_S = 160.0  # the whole run, warm-up included, stays under this
MIN_TIMED_OPS = 3

# Children run with one OpenBLAS thread.  On a 2-vCPU KVM guest, starting
# the default pool of two threads made `import numpy` about 70 ms slower
# (a third of set-up) for tens of minutes at a time and not at all at
# others, and the second thread made `hmeasure` slower (1.64 s against
# 1.34 s) while doubling its CPU time; so with the pool, set-up time
# followed the host's state rather than the program.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")

# per-layer metric -> (span name, field of tracer.self_times, unit)
LAYER_METRICS = {f"{mod}.{fn}.{field}": (f"{mod}.{fn}", field, unit)
                 for mod, fns in tracer.LAYERS.items() for fn in fns
                 for field, unit in (("calls", "count"), ("self_s", "s"))}
LAYER_METRICS["spectral.write_field.bytes"] = ("spectral.write_field", "bytes", "bytes")
FFT_METRICS = {"fft.calls": ("calls", "count"), "fft.self_s": ("self_s", "s"),
               "fft.points": ("points", "count"),
               "fft.bytes_computed": ("bytes", "bytes")}


def _spawn(job_path: Path, out: Path, err: Path) -> int:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    argv = [sys.executable, str(HERE / "child.py"), str(job_path)]
    return os.posix_spawn(sys.executable, argv, CHILD_ENV, file_actions=actions)


def _wait(pid: int, timeout: float):
    """Wait for the child, killing it after `timeout` seconds; returns
    (exit code, rusage) from wait4."""
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
        if not ready:
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage


def run_op(op_id: int, cfgs, trace: bool, environment: bool,
           timeout: float) -> dict:
    """Run one operation in a fresh child; returns its raw record."""
    opdir = WORK / f"op{op_id}"
    shutil.rmtree(opdir, ignore_errors=True)
    opdir.mkdir(parents=True)
    runs = []
    for name, cfg in cfgs:
        path = opdir / f"{name}.json"
        path.write_text(json.dumps(cfg))
        runs.append({"command": cfg["command"], "config": str(path),
                     "out": str(opdir / name)})
    job = {"src": str(SRC), "runs": runs, "trace": trace, "op_id": op_id,
           "environment": environment, "report": str(opdir / "report.json")}
    job_path = opdir / "job.json"
    job_path.write_text(json.dumps(job))
    spawned = time.monotonic()
    pid = _spawn(job_path, opdir / "stdout.txt", opdir / "stderr.txt")
    code, usage = _wait(pid, timeout)
    rec = {"op_id": op_id, "dir": opdir, "trace": trace, "exit": code,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
           "wall_s": time.monotonic() - spawned,
           "stderr": (opdir / "stderr.txt").read_text(errors="replace")}
    try:
        report = json.loads((opdir / "report.json").read_text())
    except (OSError, ValueError):
        report = None
    rec["report"] = report
    if report is not None:
        rec["setup_s"] = report["imported"] - spawned
        rec["run_s"] = report["run_s"]
    return rec


def verify(rec: dict, cfgs, reference: dict | None, baseline: dict) -> list[str]:
    """Failure messages of one operation.  `baseline` maps config name to
    the artifact digests of the run's first operation and is filled in by
    that operation (the byte-identity check)."""
    errors = []
    if rec["exit"] != 0:
        errors.append(f"child exited with {rec['exit']}")
    if "Traceback (most recent call last)" in rec["stderr"]:
        errors.append("traceback on stderr")
    report = rec["report"]
    if report is None:
        return errors + ["child wrote no report"]
    if not Path(report["hpm_file"]).resolve().is_relative_to(SRC.resolve()):
        errors.append(f"hpm imported from {report['hpm_file']}, not {SRC}")
    if report["codes"] != [0] * len(cfgs):
        errors.append(f"hpm exit codes {report['codes']}")
        return errors
    artifact_bytes = 0
    for name, cfg in cfgs:
        out = rec["dir"] / name
        ref = None if reference is None else reference.get(name)
        if reference is not None and ref is None:
            errors.append(f"{name}: no reference recorded")
        errors += [f"{name}: {e}" for e in checks.check_config(out, cfg, ref)]
        digest = checks.digest(out)
        artifact_bytes += sum(p.stat().st_size for p in out.iterdir())
        if baseline.setdefault(name, digest) != digest:
            errors.append(f"{name}: artifacts differ from the run's first operation")
    rec["artifact_bytes"] = artifact_bytes
    return errors


def _llc_bytes():
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            res = subprocess.run(["getconf", level], capture_output=True,
                                 text=True, timeout=10, check=False)
            value = int(res.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            continue
        if value > 0:
            return value
    return None


def _median(values):
    return float(statistics.median(values)) if values else float("nan")


def end_to_end(timed, attempted, failed) -> dict:
    return {
        "run_s_p50": (_median([r["run_s"] for r in timed if "run_s" in r]), "s"),
        "cpu_s_p50": (_median([r["cpu_s"] for r in timed]), "s"),
        "setup_s": (_median([r["setup_s"] for r in timed if "setup_s" in r]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in timed]), "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(traced, untraced) -> dict:
    per_op = []
    for rec in traced:
        spans = (rec["report"] or {}).get("spans", [])
        stats = tracer.self_times(spans)
        fft = {"calls": 0, "self_s": 0.0, "points": 0, "bytes": 0}
        for name, s in stats.items():
            if name.startswith(tracer.FFT_PREFIX):
                for key in fft:
                    fft[key] += s[key]
        per_op.append((stats, fft, rec.get("artifact_bytes", 0)))
    metrics = {}
    for metric, (span, field, unit) in LAYER_METRICS.items():
        metrics[metric] = (_median([st.get(span, {}).get(field, 0)
                                    for st, _, _ in per_op]), unit)
    for metric, (field, unit) in FFT_METRICS.items():
        metrics[metric] = (_median([fft[field] for _, fft, _ in per_op]), unit)
    metrics["cli.artifact_bytes"] = (_median([b for _, _, b in per_op]), "bytes")
    overhead = (_median([r["run_s"] for r in traced if "run_s" in r])
                - _median([r["run_s"] for r in untraced if "run_s" in r]))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def environment(workload: str, child_env: dict | None) -> dict:
    llc = _llc_bytes()
    field = workloads.largest_field_bytes(workload)
    env = dict(child_env or {})
    env.update({
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "largest_field_bytes": field,
        "largest_field_over_llc": None if not llc else field / llc,
    })
    return env


def _enough(timed, trace: bool) -> bool:
    if trace:
        return any(r["trace"] for r in timed) and any(not r["trace"] for r in timed)
    return len(timed) >= MIN_TIMED_OPS


def bench(workload: str, seed: int, seconds: float, trace: bool,
          log=print, tiny: bool = False, reference: dict | None = None) -> dict:
    """Run the closed loop; returns the result object, the run
    environment and the raw operation records.  `reference` (config name
    -> fingerprint) defaults to `reference.json` at the default seed."""
    cfgs = workloads.configs(workload, seed, tiny)
    if reference is None and seed == workloads.DEFAULT_SEED and not tiny:
        reference = json.loads(REFERENCE.read_text()).get(workload, {})
    baseline: dict = {}
    records = []
    started = time.monotonic()
    measuring_from = None
    op_id = 0
    while True:
        now = time.monotonic()
        if records and now - started + 2 * records[-1]["wall_s"] > RUN_LIMIT_S:
            break
        if (measuring_from is not None and now - measuring_from >= seconds
                and _enough(records[1:], trace)):
            break
        traced_op = trace and op_id % 2 == 1
        rec = run_op(op_id, cfgs, traced_op, environment=op_id == 0,
                     timeout=RUN_LIMIT_S - (now - started))
        rec["errors"] = verify(rec, cfgs, reference, baseline)
        shutil.rmtree(rec["dir"], ignore_errors=True)
        for e in rec["errors"][:10]:
            log(f"op {op_id} FAILED: {e}", file=sys.stderr)
        records.append(rec)
        if measuring_from is None:
            measuring_from = time.monotonic()  # the warm-up op is not timed
        op_id += 1
    attempted = len(records)
    failed = sum(1 for r in records if r["errors"])
    timed = records[1:] or records
    if trace:
        metrics = per_layer([r for r in timed if r["trace"]],
                            [r for r in timed if not r["trace"]])
    else:
        metrics = end_to_end(timed, attempted, failed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    env = environment(workload, (records[0]["report"] or {}).get("environment"))
    env["timed_ops"] = len(timed)
    env["untraced_functions"] = next(
        (r["report"]["missing"] for r in records if r["trace"] and r["report"]), [])
    return {"result": result, "environment": env, "records": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hpm" / "cli.py").is_file():
        print(f"run.py: no hpm sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    result, env = out["result"], out["environment"]
    tag = f"{args.workload}-trace{args.trace}"
    (WORK / f"result-{tag}.json").write_text(json.dumps(
        {"args": vars(args), "environment": env, "result": result}, indent=1) + "\n")
    if args.trace:
        with open(WORK / f"spans-{tag}.jsonl", "w") as fh:
            for rec in out["records"]:
                for span in (rec["report"] or {}).get("spans", []):
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps({"environment": env}))
    unmeasured = [k for k, m in result["metrics"].items() if not math.isfinite(m["value"])]
    if unmeasured:
        print(f"run.py: no operation measured {unmeasured}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
