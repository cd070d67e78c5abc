"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Runs one operation of every workload at tiny size through the real
child and output checks, runs the tracer, and checks that the checks
catch corrupted artifacts.  Exits 0 when every assertion holds.
"""

import copy
import json
import shutil
import sys

import checks
import run
import tracer
import workloads

SEED = 3


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def test_workloads_pass_checks():
    for w in workloads.NAMES:
        cfgs = workloads.configs(w, SEED, tiny=True)
        baseline = {}
        for op_id in (0, 1):
            rec = run.run_op(op_id, cfgs, trace=op_id == 1, environment=False,
                             timeout=60)
            errors = run.verify(rec, cfgs, None, baseline)
            shutil.rmtree(rec["dir"])
            check(errors == [], f"{w}: tiny operation {op_id} passes every check {errors}")
        check(sorted(baseline) == sorted(n for n, _ in cfgs),
              f"{w}: byte-identity baseline covers every config")


def test_tracer_counts_cross_module_calls():
    name, cfg = workloads.configs("hmeasure", SEED, tiny=True)[0]
    rec = run.run_op(0, [(name, cfg)], trace=True, environment=False, timeout=60)
    errors = run.verify(rec, [(name, cfg)], None, {})
    shutil.rmtree(rec["dir"])
    check(errors == [], "traced 2-d hmeasure passes its checks")
    spans = rec["report"]["spans"]
    stats = tracer.self_times(spans)
    p = cfg["params"]
    want = p["x_cells"] ** 2 * len(p["n_list"])
    got = stats["spectral.forward_dft"]["calls"]
    check(got == want, f"forward_dft calls through hmeasure's binding: {got} == "
                       f"x_cells^2 * len(n_list) = {want}")
    fft = sum(s["calls"] for n, s in stats.items() if n.startswith(tracer.FFT_PREFIX))
    check(fft >= got, f"every forward_dft reaches a numpy.fft transform ({fft} >= {got})")
    roots = [s for s in spans if s[3] == -1]
    check([s[0] for s in roots] == ["cli.main"], "cli.main is the only root span")
    total_self = sum(s["self_s"] for s in stats.values())
    root = roots[0][2] - roots[0][1]
    check(abs(total_self - root) <= 1e-6 * root,
          "self times add up to the root span's duration")
    check(rec["report"]["missing"] == [], "every named layer function was found")


def test_self_time_coverage():
    spans = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, None],
             ["c", 2.0, 3.0, 1, 0, None], ["b", 5.0, 6.0, 0, 0, None]]
    stats = tracer.self_times(spans)
    check(stats["a"]["self_s"] == 6.0 and stats["b"]["self_s"] == 3.0
          and stats["b"]["calls"] == 2 and stats["c"]["self_s"] == 1.0,
          "self time is duration minus child coverage")
    check(tracer._covered([(0, 2), (1, 3), (5, 6)]) == 4, "overlapping children counted once")


def _replace(path, old, new):
    text = path.read_text()
    if old not in text:
        raise AssertionError(f"{old!r} not in {path.name}")
    path.write_text(text.replace(old, new, 1))


def _last_row(path, sep):
    return path.read_text().splitlines()[-1].split(sep)


def _bad_ratio(out):
    row = _last_row(out / "decay.csv", ",")
    _replace(out / "decay.csv", ",".join(row), ",".join(row[:2] + ["0.5"]))


def _nan_norm(out):
    _replace(out / "decay.dat", _last_row(out / "decay.dat", " ")[1], "nan")


def _other_seed(out):
    _replace(out / "manifest.json", f'"seed": {workloads.config_seed(SEED)}',
             '"seed": 1')


CORRUPTIONS = [("decay ratio no longer norm/norm[0]", _bad_ratio),
               ("a nan in the plot data", _nan_norm),
               ("a manifest with another seed", _other_seed)]


def test_corruption_raises_error_rate():
    cfgs = workloads.configs("transport", SEED, tiny=True)
    rec = run.run_op(10, cfgs, trace=False, environment=False, timeout=60)
    check(run.verify(rec, cfgs, None, {}) == [], "clean transport operation passes")
    out = rec["dir"] / cfgs[0][0]
    pristine = rec["dir"] / "pristine"
    shutil.copytree(out, pristine)
    for what, corrupt in CORRUPTIONS:
        shutil.rmtree(out)
        shutil.copytree(pristine, out)
        corrupt(out)
        errors = run.verify(rec, cfgs, None, {})
        check(errors != [], f"{what} is caught: {errors[:1]}")
    reference = {cfgs[0][0]: checks.fingerprint(pristine)}
    shutil.rmtree(rec["dir"])
    quiet = lambda *args, **kwargs: None  # noqa: E731
    clean = run.bench("transport", SEED, 0, False, quiet, tiny=True,
                      reference=reference)["result"]
    check(clean["correct"] and clean["failed"] == 0
          and clean["metrics"]["success_rate"]["value"] == 1.0,
          "a run against the operation's own fingerprints has success_rate 1")
    reference[cfgs[0][0]]["decay.csv"]["sum"][-1] *= 1 + 1e-6
    wrong = run.bench("transport", SEED, 0, False, quiet, tiny=True,
                      reference=reference)["result"]
    check(not wrong["correct"] and wrong["failed"] == wrong["attempted"] >= 2
          and wrong["metrics"]["success_rate"]["value"] == 0.0,
          "operations that fail verify are counted into failed and lower "
          f"success_rate (raise error_rate): {wrong['failed']}/{wrong['attempted']}")


def test_byte_identity_and_hmeasure_mass():
    cfgs = workloads.configs("catalog", SEED, tiny=True)
    rec = run.run_op(20, cfgs, trace=False, environment=False, timeout=60)
    baseline = {name: {"manifest.json": "0" * 64} for name, _ in cfgs}
    errors = run.verify(copy.deepcopy(rec), cfgs, None, baseline)
    check(any("differ from the run's first operation" in e for e in errors),
          "artifacts that differ across operations of one run are caught")
    hm = rec["dir"] / "hmeasure" / "hmeasure.json"
    hm.write_text(hm.read_text().replace('"total_mass": "', '"total_mass": "1', 1))
    proj = rec["dir"] / "project" / "projections.csv"
    rows = proj.read_text().splitlines()
    proj.write_text("\n".join(rows[:1] + [rows[1].rsplit(",", 1)[0] + ",0.5"] + rows[2:]) + "\n")
    errors = run.verify(rec, cfgs, None, {})
    shutil.rmtree(rec["dir"])
    check(any(e.startswith("hmeasure: hmeasure.json: total_mass") for e in errors),
          "total_mass that is not the sum of cells.csv is caught")
    check(any(e.startswith("project: projections.csv") for e in errors),
          "a projected point off P is caught")


def test_reference_tolerance():
    cfgs = workloads.configs("catalog", SEED, tiny=True)
    rec = run.run_op(30, cfgs, trace=False, environment=False, timeout=60)
    out = rec["dir"] / "multiplier-apply"
    fp = checks.fingerprint(out)
    shutil.rmtree(rec["dir"])
    check(checks.compare_fingerprint(fp, fp) == [], "a fingerprint matches itself")
    near = copy.deepcopy(fp)
    near["output.fld"]["sum"][0] *= 1 + 1e-13
    near["norms.json"]["/output_l2"] *= 1 + 1e-13
    check(checks.compare_fingerprint(near, fp) == [],
          "1e-13 relative differences (another FFT backend) are accepted")
    far = copy.deepcopy(fp)
    far["norms.json"]["/output_l2"] *= 1 + 1e-6
    check(checks.compare_fingerprint(far, fp) != [], "a 1e-6 relative error is caught")


def test_metric_names_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(run.REFERENCE.read_text())
    check(sorted(bench["workloads"][i]["name"] for i in range(len(bench["workloads"])))
          == sorted(workloads.NAMES), "BENCHMARK.json names every workload")
    e2e = run.end_to_end([], attempted=1, failed=0)
    check([m["name"] for m in bench["end_to_end"]] == list(e2e),
          "end-to-end metrics match BENCHMARK.json")
    layers = run.per_layer([], [])
    check([m["name"] for m in bench["per_layer"]] == list(layers),
          "per-layer metrics match BENCHMARK.json")
    for w in workloads.NAMES:
        names = [n for n, _ in workloads.configs(w, workloads.DEFAULT_SEED)]
        check(sorted(reference.get(w, {})) == sorted(names),
              f"{w}: reference.json covers every config")


def main():
    run.WORK.mkdir(exist_ok=True)
    test_metric_names_match_benchmark_json()
    test_self_time_coverage()
    test_workloads_pass_checks()
    test_tracer_counts_cross_module_calls()
    test_corruption_raises_error_rate()
    test_byte_identity_and_hmeasure_mass()
    test_reference_tolerance()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
