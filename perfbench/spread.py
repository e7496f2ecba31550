#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload gate-heavy --seeds 1-10 --seconds 20

Runs perfbench/run.py once per seed, one run at a time, and prints for each
metric its median, quartiles and the quartile distance as a share of the
median (quartiles as ``statistics.quantiles(values, n=4)`` gives them). The
runs' result lines go to perfbench/out/spread-<workload>-trace<t>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append({"seed": seed, **line})
        values = {k: round(v["value"], 4) for k, v in line["metrics"].items()}
        print(f"seed {seed}: correct={line['correct']} {values}", flush=True)

    print(f"{args.workload}, trace {args.trace}, {len(results)} runs of {args.seconds:g} s")
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"  {name:34s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.2%}")
    out = HERE / "out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": results, "summary": summary}, indent=2) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
