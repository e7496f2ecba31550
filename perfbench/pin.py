#!/usr/bin/env python3
"""Pin the default-seed reports that every benchmark run checks against.

    python3 perfbench/pin.py [WORKLOAD ...]

Rewrites perfbench/reference/<workload>/: one CSV report per job and
pinned.json with clustering.exact_share where the workload matches labels.
Re-pin only when a change alters reports on purpose, and say so in
CHANGES.md.
"""

import json
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads
import check
import tracing
import workloads


def pin(main, workload: str) -> None:
    scratch = run.HERE / "out" / f"pin-{workload}"
    shutil.rmtree(scratch, ignore_errors=True)
    jobs = workloads.materialize(workload, workloads.DEFAULT_SEED, scratch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for job in jobs:
            code = tracer.call(job.name, main, job.argv)
            if code != 0:
                raise SystemExit(f"{workload}/{job.name} exited {code}")
    finally:
        tracer.uninstall()
    ref = check.reference_dir(run.ROOT, workload)
    ref.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        shutil.copyfile(job.out_path, ref / f"{job.name}.csv")
    pinned = {}
    if tracer.current.calls.get(tracing.MATCH):
        share = tracing.layer_metrics(tracer.current)["clustering.exact_share"]
        pinned["clustering.exact_share"] = share
    (ref / "pinned.json").write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"pinned {workload}: {[j.name for j in jobs]} {pinned}")


def main() -> None:
    harness = run.load_program()
    for workload in sys.argv[1:] or sorted(workloads.WORKLOADS):
        pin(harness.main, workload)


if __name__ == "__main__":
    main()
