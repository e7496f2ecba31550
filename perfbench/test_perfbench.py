"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys

import pytest

import check
import run
import tracing
import workloads


@pytest.fixture(scope="module")
def harness():
    return run.load_program()


def _traced_passes(harness, jobs, count):
    tracer = tracing.Tracer()
    tracer.install()
    metrics = []
    try:
        for i in range(count):
            tracer.start_pass()
            run.run_pass(harness.main, jobs, run.Outcome(), f"p{i}", tracer=tracer)
            metrics.append(tracing.layer_metrics(tracer.current))
    finally:
        tracer.uninstall()
    return tracer, metrics


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", ["small-sweep", "gmm-recovery"])
def test_exact_counts_repeat_across_traced_passes(harness, tmp_path, workload):
    jobs = workloads.materialize(workload, 5, tmp_path)
    _, (first, second) = _traced_passes(harness, jobs, 2)
    exact = [k for k in run.EXACT if k in first]
    assert exact
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_layer_self_times_account_for_the_wall(harness, tmp_path):
    jobs = workloads.materialize("small-sweep", 2, tmp_path)
    _, (m,) = _traced_passes(harness, jobs, 1)
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["matcore.svd.calls"] > 0 and m["bounds.calls"] > 0


def test_traced_reports_are_byte_identical(harness, tmp_path):
    jobs = workloads.materialize("small-sweep", 3, tmp_path)
    plain = run.run_pass(harness.main, jobs, run.Outcome(), "plain")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcome = run.Outcome()
        run.run_pass(harness.main, jobs, outcome, "traced", tracer, plain.reports)
    finally:
        tracer.uninstall()
    assert outcome.failed == 0, outcome.problems


def test_missing_name_is_listed_not_read_as_zero(harness, monkeypatch):
    import svperturb.bounds

    monkeypatch.delattr(svperturb.bounds, "singular_values")
    monkeypatch.setitem(
        tracing.BINDINGS, "harness", tracing.BINDINGS["harness"] + ("no_such_name",)
    )
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == [
        "svperturb.bounds.singular_values",
        "svperturb.harness.no_such_name",
    ]


def test_new_cross_layer_binding_is_wrapped_and_listed(harness, monkeypatch):
    import svperturb.models
    from svperturb.matcore import apply_norm

    monkeypatch.setattr(svperturb.models, "apply_norm", apply_norm, raising=False)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert svperturb.models.apply_norm is not apply_norm
    finally:
        tracer.uninstall()
    assert tracer.unlisted == ["svperturb.models.apply_norm"]
    assert svperturb.models.apply_norm is apply_norm


def test_uninstall_restores_every_attribute(harness):
    import svperturb.bounds
    import svperturb.harness

    before = (
        svperturb.harness.svd,
        svperturb.harness.emit_report,
        svperturb.bounds.BoundReport.__dict__["build"],
    )
    tracer = tracing.Tracer()
    tracer.install()
    assert svperturb.harness.svd is not before[0]
    tracer.uninstall()
    after = (
        svperturb.harness.svd,
        svperturb.harness.emit_report,
        svperturb.bounds.BoundReport.__dict__["build"],
    )
    assert after == before


@pytest.mark.parametrize("workload", ["small-sweep", "gmm-recovery"])
def test_default_seed_matches_pinned_reports(harness, tmp_path, workload):
    jobs = workloads.materialize(workload, workloads.DEFAULT_SEED, tmp_path)
    outcome = run.Outcome()
    run.reference_check(harness.main, workload, jobs, outcome)
    assert outcome.attempted == len(jobs)
    assert outcome.failed == 0 and not outcome.problems, outcome.problems


def test_reference_check_tolerates_round_off_but_not_counts():
    ref_dir = check.reference_dir(run.ROOT, "small-sweep")
    pinned = check.parse((ref_dir / "bounds-80x60.csv").read_bytes())
    nudged = [dict(r) for r in pinned]
    for row in nudged:
        if row["ratio_p50"] is not None:
            row["ratio_p50"] *= 1.0 + 1e-9
    assert check.reference_problems(nudged, pinned) == []
    nudged[0]["valid"] += 1
    assert len(check.reference_problems(nudged, pinned)) == 1
    nudged[0]["valid"] -= 1
    moved = next(r for r in nudged if r["ratio_p90"] and r["ratio_p90"] > 0.1)
    moved["ratio_p90"] *= 1.001
    assert len(check.reference_problems(nudged, pinned)) == 1


def test_without_program_sources_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
