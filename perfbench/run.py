#!/usr/bin/env python3
"""svperturb benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gate-heavy --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. Load is closed-loop: one process runs one job at a time through
``svperturb.harness.main`` with a config file and an output path, threads=1,
and the BLAS thread count fixed below.

Every run first runs the workload at the default seed under the tracer and
checks its reports against the pinned ones in ``perfbench/reference/``.

``--trace 0`` then measures the end-to-end metrics: ``setup_s`` (median of
fresh interpreters), ``peak_rss_mb`` (a fresh process running the workload
once) and ``trials_per_s`` (median over passes of the job list, repeated
until ``--seconds`` have passed). ``--trace 1`` instead splits the time
between untraced and traced passes and reports the per-layer metrics of the
median traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A job fails when it
raises, exits non-zero or its report fails a check; ``attempted`` and
``failed`` count job executions. Details go to ``perfbench/out/``.
"""

import os

# Set before numpy loads, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "trials_per_s": "trials/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "matcore.calls": "count",
    "matcore.self_s": "s",
    "matcore.failed": "count",
    "matcore.svd.calls": "count",
    "matcore.svd.self_s": "s",
    "matcore.svd.elements": "count",
    "matcore.singular_values.calls": "count",
    "matcore.singular_values.self_s": "s",
    "matcore.singular_values.elements": "count",
    "models.calls": "count",
    "models.self_s": "s",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "subspace.calls": "count",
    "subspace.self_s": "s",
    "resolvent.calls": "count",
    "resolvent.self_s": "s",
    "resolvent.failed": "count",
    "clustering.calls": "count",
    "clustering.self_s": "s",
    "clustering.kmeans.calls": "count",
    "clustering.kmeans.self_s": "s",
    "clustering.exact_share": "fraction",
    "harness.self_s": "s",
    "harness.emit_s": "s",
    "harness.valid_share": "fraction",
    "seeding.calls": "count",
    "trace.wall_s": "s",
    "trace.overhead_share": "fraction",
    "trace.missing": "count",
}
# Metrics that must repeat exactly between traced passes of one run.
EXACT = tuple(
    k
    for k in PER_LAYER
    if k.endswith((".calls", ".elements"))
    or k in ("harness.valid_share", "clustering.exact_share")
)


class SourceMissing(Exception):
    pass


@dataclass
class Outcome:
    """Attempted and failed job executions, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems


@dataclass
class PassResult:
    wall_s: float
    trials: int
    reports: list


def load_program():
    if not (SRC / "svperturb" / "__init__.py").is_file():
        raise SourceMissing(f"no svperturb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import svperturb
    from svperturb import harness

    if Path(svperturb.__file__).resolve().parent != (SRC / "svperturb").resolve():
        raise SourceMissing(f"svperturb imported from {svperturb.__file__}")
    return harness


def run_pass(
    main, jobs, outcome, label, tracer=None, expect=None, pinned=None
) -> PassResult:
    """Run each job once; check its exit code and report structure and, when
    given, byte identity with `expect` and agreement with `pinned` rows."""
    wall = 0.0
    reports = []
    for index, job in enumerate(jobs):
        problems = []
        data = None
        start = time.perf_counter()
        try:
            if tracer is None:
                code = main(job.argv)
            else:
                code = tracer.call(f"{label}/{job.name}", main, job.argv)
        except Exception as exc:  # a crashing job is a failed operation
            code = None
            problems.append(f"raised {type(exc).__name__}: {exc}")
        wall += time.perf_counter() - start
        if code is not None and code != 0:
            problems.append(f"exit code {code}")
        if code == 0:
            data = job.out_path.read_bytes()
            try:
                rows = check.parse(data)
            except (check.ReportError, ValueError) as exc:
                problems.append(f"unreadable report: {exc}")
            else:
                problems.extend(check.structure_problems(rows, job.trials))
                if pinned is not None:
                    problems.extend(check.reference_problems(rows, pinned[index]))
            if expect is not None and data != expect[index]:
                problems.append("report bytes differ from the first pass")
        outcome.record(f"{label}/{job.name}", problems)
        reports.append(data)
    return PassResult(wall_s=wall, trials=sum(j.trials for j in jobs), reports=reports)


def reference_check(main, workload, jobs, outcome) -> None:
    """Default-seed pass under the tracer, compared with the pinned reports."""
    ref_dir = check.reference_dir(ROOT, workload)
    pinned = [check.parse((ref_dir / f"{j.name}.csv").read_bytes()) for j in jobs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_pass(main, jobs, outcome, "reference", tracer=tracer, pinned=pinned)
    finally:
        tracer.uninstall()
    pinned_share = json.loads((ref_dir / "pinned.json").read_text())
    got = tracing.layer_metrics(tracer.current)["clustering.exact_share"]
    want = pinned_share.get("clustering.exact_share")
    if want is not None and not (got == want and got >= 0.99):
        outcome.problems.append(f"clustering.exact_share {got} != pinned {want}")


def run_child(mode, jobs, directory) -> dict:
    jobs_path = directory / f"{mode}-jobs.json"
    jobs_path.write_text(json.dumps([j.argv for j in jobs]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "fresh.py"), mode, str(SRC), str(jobs_path)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} child ran longer than {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"{mode} child exited {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_problems(result, jobs, expect_code) -> list:
    """`expect_code` None means the job must be stopped at its first trial."""
    if "error" in result:
        return [result["error"]]
    return [
        f"{job.name}: returned {code}, expected {expect_code}"
        for job, code in zip(jobs, result["codes"])
        if code != expect_code
    ]


def end_to_end(main, jobs, rss_jobs, out, seconds, outcome) -> tuple[dict, dict]:
    setup = []
    for i in range(SETUP_REPEATS):
        result = run_child("setup", jobs, out)
        if outcome.record(f"setup{i}", child_problems(result, jobs, None)):
            setup.append(result["setup_s"])
    mem = run_child("rss", rss_jobs, out)
    outcome.record("rss", child_problems(mem, rss_jobs, 0))

    passes = []
    expect = None
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        result = run_pass(main, jobs, outcome, f"pass{len(passes)}", expect=expect)
        expect = expect or result.reports
        passes.append(result)
    rates = [p.trials / p.wall_s for p in passes]
    if "error" not in mem:
        fresh = [j.out_path.read_bytes() if j.out_path.exists() else None for j in rss_jobs]
        if fresh != expect:
            outcome.problems.append("fresh-process reports differ from in-process ones")
    metrics = {
        "trials_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": mem.get("peak_rss_mb", 0.0),
    }
    detail = {
        "trials_per_s_samples": rates,
        "setup_s_samples": setup,
        "trials_per_pass": passes[0].trials,
    }
    return metrics, detail


def per_layer(main, jobs, out, seconds, outcome) -> tuple[dict, dict]:
    """Alternate untraced and traced passes, so that both see the same
    machine, and report the median traced pass."""
    tracer = tracing.Tracer()
    plain = []
    traced = []
    expect = None
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        n = len(traced)
        result = run_pass(main, jobs, outcome, f"plain{n}", expect=expect)
        expect = expect or result.reports
        plain.append(result)
        tracer.install()
        try:
            tracer.start_pass()
            result = run_pass(main, jobs, outcome, f"traced{n}", tracer, expect)
        finally:
            tracer.uninstall()
        traced.append(tracer.current)

    per_pass = [tracing.layer_metrics(rec) for rec in traced]
    share = check.valid_share([r for r in expect if r is not None])
    for m in per_pass:
        m["harness.valid_share"] = share
    first = per_pass[0]
    for m in per_pass[1:]:
        moved = [k for k in EXACT if m[k] != first[k]]
        if moved:
            outcome.problems.append(f"exact counts differ between traced passes: {moved}")
            break

    plain_wall = statistics.median(p.wall_s for p in plain)
    order = sorted(range(len(traced)), key=lambda i: per_pass[i]["trace.wall_s"])
    mid = order[(len(order) - 1) // 2]
    metrics = dict(per_pass[mid])
    metrics["trace.overhead_share"] = (metrics["trace.wall_s"] - plain_wall) / plain_wall
    metrics["trace.missing"] = len(tracer.missing)
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    with (out / "spans.jsonl").open("w") as fh:
        for span in traced[mid].spans:
            fh.write(json.dumps(span) + "\n")
    detail = {
        "plain_passes": len(plain),
        "traced_passes": len(traced),
        "plain_wall_s": plain_wall,
        "layer_self_sum_s": layer_sum,
        "missing": tracer.missing,
        "unlisted": tracer.unlisted,
    }
    return metrics, detail


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        harness = load_program()
    except (SourceMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    jobs = workloads.materialize(args.workload, args.seed, out)
    ref_jobs = workloads.materialize(
        args.workload, workloads.DEFAULT_SEED, out / "reference"
    )
    outcome = Outcome()
    reference_check(harness.main, args.workload, ref_jobs, outcome)

    if args.trace:
        metrics, detail = per_layer(harness.main, jobs, out, args.seconds, outcome)
        units = PER_LAYER
    else:
        rss_jobs = workloads.materialize(args.workload, args.seed, out / "fresh")
        metrics, detail = end_to_end(
            harness.main, jobs, rss_jobs, out, args.seconds, outcome
        )
        units = END_TO_END

    env = environment(args.seed)
    correct = not outcome.problems
    failed_share = outcome.failed / outcome.attempted
    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:.6g} {unit}")
    print(
        f"  {'failed_share':34s} {failed_share:.6g} fraction of jobs"
        f" ({outcome.failed}/{outcome.attempted})"
    )
    if args.trace:
        print(f"  layer self times sum to {detail['layer_self_sum_s']:.6g} s")
        print(f"  missing wrapped names: {detail['missing'] or 'none'}")
        print(f"  unlisted cross-layer names: {detail['unlisted'] or 'none'}")
    else:
        n = len(detail["trials_per_s_samples"])
        print(f"  trials_per_s is the median of {n} passes of {detail['trials_per_pass']} trials")
    print(f"  environment {json.dumps(env, sort_keys=True)}")

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "failed_share": failed_share,
        "problems": outcome.problems,
        "detail": detail,
    }
    (out / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
