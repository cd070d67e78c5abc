"""Record `reference.json`: the artifact fingerprints of every workload at
the default seed.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right; the
benchmark compares every operation at the default seed against it.
"""

import json
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    reference = {}
    for workload in workloads.NAMES:
        cfgs = workloads.configs(workload, workloads.DEFAULT_SEED)
        rec = run.run_op(0, cfgs, trace=False, environment=False,
                         timeout=run.RUN_LIMIT_S)
        errors = run.verify(rec, cfgs, None, {})
        if errors:
            print(f"{workload}: {errors}", file=sys.stderr)
            return 1
        reference[workload] = {name: checks.fingerprint(rec["dir"] / name)
                               for name, _ in cfgs}
        shutil.rmtree(rec["dir"])
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
