import argparse
import itertools
import json
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svperturb.bounds import (
    ALL_OK,
    BoundReport,
    GaussianBoundParams,
    PreconditionFlags,
    gauss_sv_location_check,
    mirsky_check,
    wedin_check,
)
from svperturb.errors import InvalidInputError, InvalidParameterError, NumericalFailureError
from svperturb import harness, matcore
from svperturb.harness import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VIOLATION,
    ExperimentConfig,
    SummaryReport,
    TrialFailure,
    _aggregate,
    emit_report,
    main,
    run_monte_carlo,
)
from svperturb.models import LowRankSpec, low_rank_from_rng, perturb
from svperturb.resolvent import phi_values
from svperturb.seeding import derive_seed

BOUNDS_MODEL = {
    "n_rows": 30,
    "n_cols": 24,
    "singulars": [20.0, 12.0, 6.0],
    "k_lo": 1,
    "k_hi": 1,
    "noise_scale": 0.2,
}


CLI_BOUNDS_MODEL = harness._SCENARIOS["bounds"].model
GMM_MODEL = harness._SCENARIOS["gmm"].model
SUBMATRIX_MODEL = harness._SCENARIOS["submatrix"].model
RESOLVENT_MODEL = harness._SCENARIOS["resolvent"].model

# the keys each factory takes with a default, each with a valid value: with
# the record's own model, every key a CLI model could hold
OPTIONAL_MODEL_KEYS = {
    "bounds": {
        "factor_mode": "haar",
        "coherent_row": 0,
        "k_lo": 1,
        "k_hi": 1,
        "margin": 2.0,
        "tail": 1.0,
        "noise_scale": 1.0,
    },
    "gmm": {"center_mode": "orthogonal", "assignment": "balanced", "tail": 1.0, "restarts": 10},
    "submatrix": {"tail": 1.0, "restarts": 10},
    "resolvent": {
        "margin": 2.0,
        "tail": 1.0,
        "z_factors": [1.0, 1.5, 3.0],
        "signal_rank": 3,
        "dense": True,
    },
    "selftest": {},
}


def stub_factory(monkeypatch, factory) -> None:
    """Run factory in place of the selftest scenario's own."""
    stub = replace(harness._SCENARIOS["selftest"], factory=factory)
    monkeypatch.setitem(harness._SCENARIOS, "selftest", stub)


def wrong_kinds(value) -> list:
    """Values of the wrong kind for a model key whose valid value is value."""
    if isinstance(value, bool):
        return ["true", 1]
    if isinstance(value, int):
        return [True, 2.5, "3"]
    if isinstance(value, float):
        return [True, float("nan"), float("inf"), "1.0"]
    if isinstance(value, str):
        return [1]
    return [value[0], [True]]


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, for
    subprocesses that import svperturb."""
    src = str(Path(harness.__file__).parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def config(**kw):
    base = dict(
        scenario="bounds",
        trials=4,
        base_seed=3,
        theorems=("mirsky:frobenius", "wedin:1:operator"),
        model=dict(BOUNDS_MODEL),
        format="csv",
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            config(scenario="quantum")
        with pytest.raises(InvalidParameterError):
            config(trials=0)
        with pytest.raises(InvalidParameterError):
            config(format="yaml")
        with pytest.raises(InvalidParameterError):
            config(threads=0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig.from_dict(
                {"scenario": "selftest", "trials": 1, "colour": "red"}
            )

    def test_echo_roundtrip(self):
        cfg = config(output="r.csv", threads=3)
        echo = cfg.echo()
        assert echo["scenario"] == "bounds"
        assert echo["theorems"] == ["mirsky:frobenius", "wedin:1:operator"]
        # the run settings output and threads are not echoed
        assert "output" not in echo and "threads" not in echo
        rebuilt = ExperimentConfig.from_dict(echo)
        assert rebuilt == replace(cfg, output=None, threads=1)


class TestTokenValidation:
    def test_unknown_token(self):
        cfg = config(theorems=("mirsky:frobenius", "weyl:1"))
        with pytest.raises(InvalidParameterError):
            run_monte_carlo(cfg)

    def test_wedin_index_out_of_range(self):
        cfg = config(theorems=("wedin:7:operator",))
        with pytest.raises(InvalidParameterError):
            run_monte_carlo(cfg)

    def test_weighted_corollary_reads_the_full_window(self):
        # a statement on [1, rank]: an inner configured window binds the token,
        # and its row is the full window's, bit for bit
        lr = LowRankSpec(600, 560, (2.0e5, 1.2e5))
        rng = np.random.default_rng(7)
        fac = low_rank_from_rng(lr, rng)
        inst = perturb(fac, rng.standard_normal(fac.shape))
        rows = []
        for k_hi in (1, 2):
            params = GaussianBoundParams(600, 560, lr.singulars, 1, k_hi)
            evaluate, args = harness._bind_token("gauss_weighted_corollary", params)
            rows.append(evaluate(harness._BoundsTrial(inst, params, rng), *args))
        assert rows[0] == rows[1]
        assert rows[0][0].preconditions.all_ok and rows[0][0].violated is not None

    def test_bad_norm_token(self):
        cfg = config(theorems=("mirsky:euclid",))
        with pytest.raises(InvalidParameterError):
            run_monte_carlo(cfg)

    def test_readme_lists_exactly_the_fixed_rows(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("Rows of the scenarios with a fixed row set")[1].split("\n\n")[1]
        listed = {
            name: tuple(re.findall(r"`([a-z0-9_]+)`", rows))
            for name, rows in re.findall(r"^- `([a-z]+)`: (.+)$", section, re.M)
        }
        assert listed == {
            "gmm": harness._GMM_ROWS,
            "submatrix": harness._SUBMATRIX_ROWS,
            "resolvent": harness._RESOLVENT_ROWS,
        }

    def test_readme_lists_exactly_the_scenarios(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("Scenarios:")[1].split("\n\n")[1]
        listed = re.findall(r"^- `([a-z]+)` +(.+)$", section, re.M)
        assert listed == [(name, start.help) for name, start in harness._SCENARIOS.items()]

    def test_readme_lists_exactly_the_table_kinds(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("Theorem tokens for the `bounds` scenario")[1]
        bullets = re.findall(r"^- `([a-z0-9_]+)[:`]", section.split("\n\n")[1], re.M)
        assert len(bullets) == len(set(bullets))
        assert set(bullets) == set(harness._BOUNDS_THEOREMS)

    def test_readme_lists_exactly_the_norm_kinds(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rule = readme.split("Every NORM argument obeys one rule")[1].split(")")[0]
        listed = re.findall(r"`([a-z_]+)(?:<[a-z]>)?`", rule)
        examples = {"kyfan": "kyfan2", "schatten": "schatten3"}
        parsed = [matcore.norm_spec_from_token(examples.get(k, k)).kind for k in listed]
        assert parsed == listed
        assert sorted(listed) == sorted(matcore._KINDS)


# Accepted bounds models at the edges of the rank and gap rules: a leading
# value 1e12 times the next (past a 1e-10 relative rank tolerance), tied
# values (a zero gap), and a rank-1 model on a 5 x 4 matrix.
EDGE_MODELS = {
    "wide-spread": {"n_rows": 20, "n_cols": 20, "singulars": [1e12, 0.1]},
    "tied": {"n_rows": 20, "n_cols": 20, "singulars": [3.0, 3.0]},
    "rank-one": {"n_rows": 5, "n_cols": 4, "singulars": [1.0]},
}


GAUSS_KINDS = sorted(k for k in harness._BOUNDS_THEOREMS if k.startswith("gauss_"))


def kind_tokens(kind: str, rank: int) -> list[str]:
    """Every token of a bounds kind at window [1, 1]: each index in 1..rank,
    the operator and the Frobenius norm."""
    texts = {
        harness._rank_index: [str(k) for k in range(1, rank + 1)],
        harness._window_index: ["1"],
        harness._norm: ["operator", "frobenius"],
    }
    validators = harness._BOUNDS_THEOREMS[kind][0]
    return [":".join((kind, *args)) for args in itertools.product(*(texts[v] for v in validators))]


class TestEdgeModels:
    @pytest.mark.parametrize("name", sorted(EDGE_MODELS))
    def test_no_kind_fails_at_runtime(self, name, tmp_path, capsys):
        # every kind binds on every edge model; a numpy warning raises here, so
        # it would show as exit 3
        model = EDGE_MODELS[name]
        rank = len(model["singulars"])
        p = tmp_path / "cfg.json"
        argv = ["bounds", "--config", str(p), "--trials", "3", "--out", str(tmp_path / "r.csv")]
        for kind in sorted(harness._BOUNDS_THEOREMS):
            p.write_text(json.dumps({"theorems": kind_tokens(kind, rank), "model": model}))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main(argv)
            err = capsys.readouterr().err
            assert rc in (EXIT_OK, EXIT_VIOLATION), (kind, rc, err)

    @pytest.mark.parametrize("name", sorted(EDGE_MODELS))
    def test_gaussian_evaluators_fail_closed(self, name):
        # main binds these kinds to constant rows on the edge models, so call
        # each evaluator directly, on the inner and on the full window
        model = EDGE_MODELS[name]
        rank = len(model["singulars"])
        lr = LowRankSpec(model["n_rows"], model["n_cols"], tuple(model["singulars"]))
        rng = np.random.default_rng(derive_seed(3, 0))
        fac = low_rank_from_rng(lr, rng)
        inst = perturb(fac, rng.standard_normal(fac.shape))
        for k_hi in sorted({1, rank}):
            params = GaussianBoundParams(lr.n_rows, lr.n_cols, lr.singulars, 1, k_hi)
            trial = harness._BoundsTrial(inst, params, rng)
            for kind in GAUSS_KINDS:
                for token in kind_tokens(kind, rank):
                    evaluate, args = harness._bind_token(token, params)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        reports = evaluate(trial, *args)
                    for rep in reports:
                        values = [rep.bound_value, rep.empirical_value]
                        if values[1] is not None and not np.isfinite(values[1]):
                            assert rep.violated is True and rep.ratio == np.inf, token
                        if not all(np.isfinite(v) for v in values if v is not None):
                            # never counted as a pass
                            assert not (rep.preconditions.all_ok and rep.violated is False), token

    def test_bind_time_ids_are_the_evaluated_ids(self):
        # a model that meets the Gaussian hypotheses, so every row is evaluated
        lr = LowRankSpec(600, 560, (2.0e5, 1.2e5))
        params = GaussianBoundParams(600, 560, lr.singulars, 1, 2)
        assert params.preconditions.all_ok
        rng = np.random.default_rng(7)
        fac = low_rank_from_rng(lr, rng)
        inst = perturb(fac, rng.standard_normal(fac.shape))
        trial = harness._BoundsTrial(inst, params, rng)
        extra = ["gauss_sin_theta:kyfan2", "gauss_sin_theta:schatten2.50", "gauss_sv_location:2"]
        tokens = [t for kind in GAUSS_KINDS for t in kind_tokens(kind, 2)] + extra
        for token in tokens:
            evaluate, args = harness._bind_token(token, params)
            constant, _ = harness._not_met(evaluate, args, params.preconditions)
            assert [r.theorem_id for r in constant(trial)] == [
                r.theorem_id for r in evaluate(trial, *args)
            ], token


class TestGaussianSkip:
    def test_excluded_model_evaluates_no_gaussian_row(self, tmp_path, monkeypatch, capsys):
        # the command-line model fails dim_ok, snr_ok and gap_ok: every gauss_*
        # row is the same constant not-met row, so no trial evaluates it
        tokens = [t for kind in GAUSS_KINDS for t in kind_tokens(kind, 3)]
        p = tmp_path / "cfg.json"
        model = dict(CLI_BOUNDS_MODEL, k_hi=3)
        p.write_text(json.dumps({"theorems": tokens + ["mirsky:operator"], "model": model}))
        argv = ["bounds", "--config", str(p), "--trials", "4", "--out", str(tmp_path / "a.csv")]
        assert main(argv) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        noted = re.fullmatch(
            r"note: the model fails dim_ok, snr_ok, gap_ok: rows (.+) were not evaluated", err[0]
        )
        assert err[1].startswith("note: no valid trial in rows: gauss_2inf, ")

        def untouched(*args, **kwargs):
            raise AssertionError("a gauss_* row was evaluated")

        for name in (
            "window_residual",
            "window_sin_theta",
            "cross_term_norm",
            "phi_values",
            "row_mass",
            "_unit_vector",
            "linear_bilinear_bound",
        ):
            monkeypatch.setattr(harness, name, untouched)
        argv[-1] = str(tmp_path / "b.csv")
        assert main(argv) == EXIT_OK
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        rows = (tmp_path / "a.csv").read_text().splitlines()
        assert sum(r.startswith("gauss_") and r.endswith(",4,0,0,,,,") for r in rows) == len(tokens)
        # the note names every gauss_* row, and no other
        gauss_ids = [r.split(",")[0] for r in rows if r.startswith("gauss_")]
        assert sorted(noted.group(1).split(", ")) == gauss_ids

    @pytest.mark.parametrize("scale", [40.0, 0.2])
    def test_scaled_noise_evaluates_no_unit_noise_row(self, tmp_path, capsys, scale):
        # the norm event and every gauss_* statement assume unit-variance noise:
        # at scale 40 the event would fail every trial, at 0.2 pass vacuously
        p = tmp_path / "cfg.json"
        tokens = ["spectral_norm_event", "gauss_2inf", "mirsky:operator"]
        model = dict(CLI_BOUNDS_MODEL, noise_scale=scale)
        p.write_text(json.dumps({"theorems": tokens, "model": model}))
        out = tmp_path / "r.csv"
        assert main(["bounds", "--config", str(p), "--trials", "3", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err.splitlines()[:2] == [
            "note: the model fails unit noise: rows spectral_norm_event were not evaluated",
            "note: the model fails dim_ok, snr_ok, gap_ok, unit noise: "
            "rows gauss_2inf were not evaluated",
        ]
        rows = out.read_text().splitlines()
        assert "spectral_norm_event,3,0,0,,,," in rows and "gauss_2inf,3,0,0,,,," in rows
        assert any(r.startswith("mirsky:operator,3,3,0,") for r in rows)

    def test_scaled_noise_note_on_a_gaussian_model(self):
        # a model that meets dim_ok, snr_ok and gap_ok fails only unit noise
        model = harness._ModelKeys(
            {"n_rows": 900, "n_cols": 900, "singulars": [2.0e5, 1.2e5], "noise_scale": 0.5}
        )
        cfg = ExperimentConfig("bounds", theorems=("gauss_2inf",), model=model)
        harness._bounds_factory(cfg)
        assert model.notes == ["the model fails unit noise: rows gauss_2inf were not evaluated"]

    def test_failing_full_window_binds_the_corollary(self, monkeypatch):
        # the inner window [1, 2] of this rank-3 model meets the hypotheses,
        # but sigma_3 misses the SNR floor, so the corollary's [1, 3] fails
        model = harness._ModelKeys(
            {"n_rows": 900, "n_cols": 900, "singulars": [3.6e5, 2.4e5, 1.2e5], "k_hi": 2}
        )
        tokens = ("gauss_weighted_corollary", "gauss_2inf")
        cfg = ExperimentConfig("bounds", theorems=tokens, model=model)

        def untouched(*args, **kwargs):
            raise AssertionError("the corollary was evaluated")

        monkeypatch.setattr(harness, "weighted_corollary_bound", untouched)
        corollary, two_inf = harness._bounds_factory(cfg)(derive_seed(0, 0))
        assert model.notes == [
            "the model fails snr_ok: rows gauss_weighted_corollary were not evaluated"
        ]
        assert corollary.theorem_id == "gauss_weighted_corollary"
        assert corollary.empirical_value is None and not corollary.preconditions.snr_ok
        assert two_inf.preconditions.all_ok and two_inf.violated is not None

    def test_scaled_noise_rows_never_read_all_ok(self):
        # the model meets dim_ok, snr_ok and gap_ok, yet its rows are not met
        model = harness._ModelKeys(
            {"n_rows": 900, "n_cols": 900, "singulars": [2.0e5, 1.2e5], "noise_scale": 0.5}
        )
        tokens = ("gauss_2inf", "gauss_sin_theta:operator", "spectral_norm_event")
        cfg = ExperimentConfig("bounds", theorems=tokens, model=model)
        reports = harness._bounds_factory(cfg)(derive_seed(0, 0))
        assert len(reports) == len(tokens)
        for rep in reports:
            assert not rep.preconditions.all_ok, rep.theorem_id
            assert rep.violated is None and rep.empirical_value is None


# One model of each binding case: every hypothesis met; a window [1, 1] that
# fails gap_ok while the corollary's [1, 2] meets every flag; an inner window
# whose full window [1, 3] fails snr_ok; scaled noise; the command line's model.
BINDING_MODELS = {
    "all-met": {"n_rows": 900, "n_cols": 900, "singulars": [2.0e5, 1.2e5]},
    "edge": {"n_rows": 900, "n_cols": 900, "singulars": [2.0e5, 1.99e5]},
    "rank3-inner": {
        "n_rows": 900, "n_cols": 900, "singulars": [3.6e5, 2.4e5, 1.2e5], "k_hi": 2
    },
    "scaled": {"n_rows": 900, "n_cols": 900, "singulars": [2.0e5, 1.2e5], "noise_scale": 0.5},
    "cli": CLI_BOUNDS_MODEL,
}
# the statements that assume nothing of the noise's distribution
DISTRIBUTION_FREE = {"mirsky", "wedin", "general_sv", "general_sin_theta"}


class TestHypothesisBinding:
    @pytest.mark.parametrize("name", sorted(BINDING_MODELS))
    def test_binding_agrees_with_the_evaluated_flags(self, name, monkeypatch):
        # the factory binds a token to a not-met row exactly when the row its
        # evaluator gives on an instance fails a precondition, or when the
        # statement assumes unit noise and the noise is scaled
        model = BINDING_MODELS[name]
        rank, k_hi = len(model["singulars"]), model.get("k_hi", 1)
        scale = model.get("noise_scale", 1.0)
        tokens = [t for kind in sorted(harness._BOUNDS_THEOREMS) for t in kind_tokens(kind, rank)]
        not_met = set()
        real = harness._not_met

        def recording(evaluate, args, flags):
            not_met.add((evaluate.__name__, *args))
            return real(evaluate, args, flags)

        monkeypatch.setattr(harness, "_not_met", recording)
        cfg = ExperimentConfig("bounds", theorems=tokens, model=harness._ModelKeys(model))
        harness._bounds_factory(cfg)
        lr = LowRankSpec(model["n_rows"], model["n_cols"], tuple(model["singulars"]))
        params = GaussianBoundParams(lr.n_rows, lr.n_cols, lr.singulars, 1, k_hi)
        rng = np.random.default_rng(derive_seed(0, 0))
        fac = low_rank_from_rng(lr, rng)
        inst = perturb(fac, scale * rng.standard_normal(fac.shape))
        trial = harness._BoundsTrial(inst, params, rng)
        for token in tokens:
            evaluate, args = harness._bind_token(token, params)
            fails = not all(rep.preconditions.all_ok for rep in evaluate(trial, *args))
            unit = evaluate.__name__ not in DISTRIBUTION_FREE and scale != 1.0
            assert ((evaluate.__name__, *args) in not_met) == (fails or unit), token

    def test_edge_model_notes_only_the_window_rows(self):
        # the corollary's full window meets every hypothesis, so no note names it
        model = harness._ModelKeys(BINDING_MODELS["edge"])
        tokens = ("gauss_weighted_corollary", "gauss_2inf", "gauss_sv_location:1", "wedin:1:nuclear")
        harness._bounds_factory(ExperimentConfig("bounds", theorems=tokens, model=model))
        assert model.notes == [
            "the model fails gap_ok: rows gauss_2inf, gauss_sv_location:j1 were not evaluated"
        ]


# the eight theorem tokens of the release gate's 900 x 900 bounds job
GATE_TOKENS = (
    "gauss_sin_theta:operator",
    "gauss_sv_location:1",
    "gauss_2inf",
    "gauss_bilinear",
    "gauss_weighted",
    "mirsky:operator",
    "wedin:1:operator",
    "spectral_norm_event",
)


class TestNoiseFacts:
    def test_gate_trial_runs_no_eigvalsh(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        model = harness._ModelKeys(
            {"n_rows": 900, "n_cols": 900, "singulars": [2.0e5, 1.2e5], "k_lo": 1, "k_hi": 1}
        )
        cfg = ExperimentConfig("bounds", theorems=GATE_TOKENS, model=model)
        reports = harness._bounds_factory(cfg)(derive_seed(0, 0))
        assert len(reports) == len(GATE_TOKENS)
        assert all(rep.violated is False for rep in reports)
        assert calls == []

    def test_gate_trial_forms_one_gram(self, monkeypatch):
        import svperturb.models

        shapes = []
        real = matcore._gram

        def counted(a):
            shapes.append(min(a.shape))
            return real(a)

        monkeypatch.setattr(matcore, "_gram", counted)
        monkeypatch.setattr(svperturb.models, "_gram", counted)
        model = harness._ModelKeys(
            {"n_rows": 900, "n_cols": 900, "singulars": [2.0e5, 1.2e5], "k_lo": 1, "k_hi": 1}
        )
        cfg = ExperimentConfig("bounds", theorems=GATE_TOKENS, model=model)
        reports = harness._bounds_factory(cfg)(derive_seed(0, 0))
        assert len(reports) == len(GATE_TOKENS)
        assert shapes == [900]

    def test_gate_trial_working_set(self, monkeypatch):
        # after perturb, a 900 x 900 trial adds at most two traced 900 x 900
        # arrays to its inputs: the noise Gram (or the remainder's Gram in its
        # array) and the Cholesky factor numpy returns; afterwards the
        # instance holds no such array besides the noise
        size, mark, insts = 8 * 900 * 900, [], []
        real = harness.perturb

        def traced(factors, noise):
            mark.append(tracemalloc.get_traced_memory()[0])
            insts.append(real(factors, noise))
            tracemalloc.reset_peak()
            return insts[-1]

        monkeypatch.setattr(harness, "perturb", traced)
        model = harness._ModelKeys(
            {"n_rows": 900, "n_cols": 900, "singulars": [2.0e5, 1.2e5], "k_lo": 1, "k_hi": 1}
        )
        cfg = ExperimentConfig("bounds", theorems=GATE_TOKENS, model=model)
        trial = harness._bounds_factory(cfg)
        tracemalloc.start()
        try:
            reports = trial(derive_seed(0, 0))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == len(GATE_TOKENS)
        (inst,) = insts
        assert (peak - mark[0]) / size <= 2.1
        assert (held - mark[0]) / size <= 0.1
        big = [k for k, v in vars(inst).items() if isinstance(v, np.ndarray) and v.size >= 900**2]
        assert big == ["noise"]

    def test_trailing_reads_keep_no_observed_matrix(self):
        # mirsky:operator, then the whole trailing spectrum: each reads the
        # remainder's Gram, built in the noise Gram's array, so at most that
        # Gram and one product or eigensolver array are alive at a time, and
        # the instance ends holding the noise as its only 900 x 900 array
        size, shape = 8 * 900 * 900, (900, 900)
        rng = np.random.default_rng(derive_seed(0, 0))
        factors = low_rank_from_rng(LowRankSpec(*shape, (2.0e5, 1.2e5)), rng)
        tracemalloc.start()
        try:
            inst = perturb(factors, rng.standard_normal(shape))
            mark = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            mirsky_check(inst, matcore.OPERATOR)
            mirsky_check(inst, matcore.FROBENIUS)
            wedin_check(inst, 2, matcore.FROBENIUS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.svd_observed.singulars.size == 2  # certified
        assert (peak - mark) / size <= 2.1
        big = [k for k, v in vars(inst).items() if isinstance(v, np.ndarray) and v.size >= 900**2]
        assert big == ["noise"]

    def test_spectrum_only_run_skips_the_certificate(self, monkeypatch):
        # above the crossover, rows that read the whole noise spectrum but
        # never the noise norm take one eigensolve of the kept Gram
        calls = {"lanczos": 0, "cholesky": 0, "eigvalsh": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(matcore, "_lanczos_top", counted("lanczos", matcore._lanczos_top))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        shape, singulars = (340, 320), (2.0e4, 1.2e4)
        rng = np.random.default_rng(derive_seed(6, 0))
        factors = low_rank_from_rng(LowRankSpec(*shape, singulars), rng)
        inst = perturb(factors, rng.standard_normal(shape))
        assert inst.svd_observed.singulars.size == 2  # certified
        spectrum = inst.noise_spectrum
        assert calls == {"lanczos": 0, "cholesky": 0, "eigvalsh": 1}
        assert spectrum.tobytes() == matcore.gram_spectrum(inst.noise).tobytes()
        calls["eigvalsh"] = 0
        model = harness._ModelKeys({"n_rows": 340, "n_cols": 320, "singulars": list(singulars)})
        cfg = ExperimentConfig("bounds", theorems=("mirsky:frobenius",), model=model)
        harness._bounds_factory(cfg)(derive_seed(6, 1))
        # the noise spectrum and the trailing observed spectrum, nothing more
        assert calls == {"lanczos": 0, "cholesky": 0, "eigvalsh": 2}

    def test_small_location_reads_the_gram_spectrum(self):
        # below the crossover the location row is phi_values on the noise's
        # Gram spectrum, bit for bit
        shape, singulars = (80, 60), (40.0, 30.0, 20.0)
        rng = np.random.default_rng(derive_seed(5, 0))
        factors = low_rank_from_rng(LowRankSpec(*shape, singulars), rng)
        inst = perturb(factors, rng.standard_normal(shape))
        p = GaussianBoundParams(*shape, singulars, k_lo=1, k_hi=3, margin=2.0, tail=1.0)
        eta = matcore.gram_spectrum(inst.noise)
        trial = harness._BoundsTrial(inst, p, rng)
        for j in (1, 2, 3):
            (got,) = trial.gauss_sv_location(j)
            want = gauss_sv_location_check(
                inst, p, j, lambda z: phi_values(eta, *shape, z).varphi.real
            )
            assert got.bound_value == want.bound_value
            assert got.empirical_value == want.empirical_value


class TestRun:
    def test_rows_sorted_and_counted(self):
        cfg = config()
        summary = run_monte_carlo(cfg)
        ids = [r["theorem_id"] for r in summary.rows]
        assert ids == sorted(ids)
        assert ids == ["mirsky:frobenius", "wedin:k1:operator"]
        for row in summary.rows:
            assert row["trials"] == 4

    def test_general_sv_token_yields_two_rows(self):
        cfg = config(theorems=("general_sv:1",), trials=2)
        summary = run_monte_carlo(cfg)
        ids = [r["theorem_id"] for r in summary.rows]
        assert ids == ["general_sv_lower:k1", "general_sv_upper:k1"]

    def test_sin_theta_below_sqrt_eps_is_measured(self):
        # sin-theta is about 5e-12 here, which arccos reads as 0 or a multiple of
        # 1.49e-8; the Wedin ratio sits within the 1e-9 slack of 1, so count
        # violations rather than test ratio < 1
        model = {"n_rows": 20, "n_cols": 20, "singulars": [1e12, 0.1]}
        theorems = ("wedin:1:frobenius", "general_sin_theta:1:frobenius")
        cfg = config(trials=3, base_seed=5, theorems=theorems, model=model)
        rows = run_monte_carlo(cfg).rows
        assert [(r["valid"], r["violations"]) for r in rows] == [(3, 0), (3, 0)]

    def test_sv_displacement_at_sigma_1_rounding_is_not_a_violation(self):
        # sigma_1 - sigma~_1 cancels to a few ulps of 1e12 (1.2e-4 each), past
        # the 1e-9 slack on a corner cap near 1: the lower row's bound must
        # carry the error bound of a computed singular value
        model = {"n_rows": 20, "n_cols": 20, "singulars": [1e12, 0.1]}
        theorems = ("general_sv:1", "general_sv:2")
        cfg = config(trials=40, base_seed=0, theorems=theorems, model=model)
        rows = run_monte_carlo(cfg).rows
        assert [(r["valid"], r["violations"]) for r in rows] == [(40, 0)] * 4

    def test_threads_do_not_change_results(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)  # three workers on any machine
        cfg1 = config(threads=1)
        cfg2 = config(threads=3)
        s1 = run_monte_carlo(cfg1)
        s2 = run_monte_carlo(cfg2)
        assert s1.rows == s2.rows

    @pytest.mark.parametrize(
        "threads, trials, cpus, workers",
        [(100_000, 1_000, 2, 2), (8, 3, 16, 3), (16, 10, 4, 4), (4, 10, None, 1), (1, 10, 16, 1)],
    )
    def test_workers_never_outnumber_trials_or_cpus(
        self, monkeypatch, threads, trials, cpus, workers
    ):
        # a stand-in pool records its worker count and maps in order, so the
        # large count is never started; one worker takes the serial path
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        stub_factory(monkeypatch, lambda cfg: lambda seed: [])
        run_monte_carlo(ExperimentConfig("selftest", trials, 0, (), {}, threads=threads))
        assert pools == ([workers] if workers > 1 else [])

    def test_deterministic_reruns(self):
        s1 = run_monte_carlo(config())
        s2 = run_monte_carlo(config())
        assert emit_report(s1, "csv") == emit_report(s2, "csv")

    def test_gmm_scenario_rows(self):
        cfg = ExperimentConfig(
            scenario="gmm",
            trials=2,
            base_seed=1,
            theorems=("gmm_recovery", "gmm_embedding_gap"),
            model={
                "n_features": 12,
                "n_samples": 40,
                "n_clusters": 2,
                "center_mode": "orthogonal",
                "center_scale": 25.0,
                "restarts": 4,
            },
        )
        summary = run_monte_carlo(cfg)
        ids = [r["theorem_id"] for r in summary.rows]
        assert ids == ["gmm_embedding_gap", "gmm_recovery"]

    def test_gmm_trial_factorizes_once(self, monkeypatch):
        import svperturb.clustering

        calls = []
        real = svperturb.clustering.leading_svd

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(svperturb.clustering, "leading_svd", counting)
        cfg = ExperimentConfig(
            scenario="gmm",
            trials=3,
            base_seed=1,
            theorems=("gmm_recovery", "gmm_embedding_gap"),
            model={"n_features": 12, "n_samples": 40, "n_clusters": 2, "center_scale": 25.0},
        )
        run_monte_carlo(cfg)
        assert calls == [(12, 40)] * 3

    @pytest.mark.parametrize(
        "scenario, model",
        [
            ("gmm", {"n_features": 12, "n_samples": 40, "n_clusters": 2, "center_scale": 25.0}),
            ("submatrix", dict(n_rows=30, n_cols=24, amplitudes=[20.0], block_rows=8, block_cols=6)),
        ],
    )
    def test_recovery_floor_once_per_run(self, monkeypatch, scenario, model):
        # the hypotheses and floor read the spec alone, so they are computed before trial 0
        calls = []
        real = harness._recovery_floor
        monkeypatch.setattr(harness, "_recovery_floor", lambda *a: calls.append(a) or real(*a))
        summary = run_monte_carlo(ExperimentConfig(scenario, 4, 1, (), model))
        assert len(calls) == 1
        assert all(row["trials"] == 4 for row in summary.rows)

    @pytest.mark.parametrize(
        "scenario, model, notes",
        [
            # the gmm gate's mixture: root^2 about 595 against about 1,921
            (
                "gmm",
                {"n_features": 50, "n_samples": 300, "n_clusters": 3, "center_scale": 9.0e4},
                ["the model fails dim_ok: gmm_* rows count no trial"],
            ),
            (
                "gmm",
                {"n_features": 300, "n_samples": 1500, "n_clusters": 3, "center_scale": 1.0e6},
                [],
            ),
            (
                "submatrix",
                SUBMATRIX_MODEL,
                ["the model fails dim_ok, snr_ok, gap_ok: submatrix_recovery counts no trial"],
            ),
            (
                "submatrix",
                dict(
                    SUBMATRIX_MODEL,
                    n_rows=600,
                    n_cols=600,
                    amplitudes=[6500.0, -6500.0],
                    block_rows=100,
                    block_cols=100,
                ),
                [],
            ),
        ],
    )
    def test_recovery_run_names_failed_hypotheses(self, scenario, model, notes):
        keys = harness._ModelKeys(model)
        harness._SCENARIOS[scenario].factory(ExperimentConfig(scenario, model=keys))
        assert keys.notes == notes

    @pytest.mark.parametrize(
        "model, theorems, noted",
        [
            # the CLI model: root^2 about 198 against 32 * 2 * ln 100, about 295
            (RESOLVENT_MODEL, (), True),
            (RESOLVENT_MODEL, ("local_law",), True),
            (RESOLVENT_MODEL, ("uphiu",), False),
            ({"n_rows": 200, "n_cols": 200}, (), False),
        ],
    )
    def test_resolvent_run_names_failed_local_law(self, model, theorems, noted):
        keys = harness._ModelKeys(model)
        harness._SCENARIOS["resolvent"].factory(ExperimentConfig("resolvent", 1, 0, theorems, keys))
        assert keys.notes == ["the model fails dim_ok: local_law counts no trial"] * noted

    def test_local_law_bound_once_per_run(self, monkeypatch):
        calls = []
        real = harness.local_law_bound
        monkeypatch.setattr(harness, "local_law_bound", lambda *a: calls.append(a) or real(*a))
        model = {"n_rows": 10, "n_cols": 8}
        summary = run_monte_carlo(ExperimentConfig("resolvent", 3, 5, ("local_law",), model))
        assert len(calls) == 1 and summary.rows[0]["trials"] == 3

    def test_selftest_all_pass(self):
        cfg = ExperimentConfig(
            scenario="selftest", trials=1, base_seed=0, theorems=(), model={}
        )
        summary = run_monte_carlo(cfg)
        assert summary.exceeded == []
        assert all(row["violations"] == 0 for row in summary.rows)

    def test_resolvent_scenario_small(self):
        cfg = ExperimentConfig(
            scenario="resolvent",
            trials=2,
            base_seed=5,
            theorems=("phi_identity", "dense_match", "g_norm"),
            model={"n_rows": 10, "n_cols": 8, "dense": True},
        )
        summary = run_monte_carlo(cfg)
        ids = [r["theorem_id"] for r in summary.rows]
        assert ids == ["dense_match", "g_norm", "phi_identity"]
        assert all(row["violations"] == 0 for row in summary.rows)

    @pytest.mark.parametrize("name", ["dense_match", "g_norm", "g_approx1", "g_approx2"])
    def test_named_dense_row_needs_dense(self, tmp_path, capsys, name):
        # n_rows + n_cols > 120, so dense defaults to false: the row would be dropped
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"theorems": [name], "model": {"n_rows": 100, "n_cols": 80}}))
        assert main(["resolvent", "--config", str(p)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"rows {name} need dense: true" in captured.err and captured.out == ""


class TestAggregate:
    def rep(self, tid, bound, emp, prob=0.9, flags=ALL_OK):
        return BoundReport.build(tid, bound, prob, flags, emp)

    def test_rate_and_quantiles(self):
        per_trial = [
            [self.rep("t", 1.0, 0.5)],
            [self.rep("t", 1.0, 2.0)],  # violated
            [self.rep("t", 1.0, 0.25)],
            [self.rep("t", 1.0, 0.75)],
        ]
        rows, exceeded = _aggregate(per_trial)
        row = rows[0]
        assert row["valid"] == 4
        assert row["violations"] == 1
        assert row["rate"] == pytest.approx(0.25)
        ratios = [0.5, 2.0, 0.25, 0.75]
        assert row["ratio_p50"] == pytest.approx(float(np.quantile(ratios, 0.5)))

    def test_invalid_trials_excluded(self):
        bad = PreconditionFlags(True, False, True)
        per_trial = [
            [self.rep("t", 1.0, 2.0, flags=bad)],
            [self.rep("t", 1.0, 0.5)],
        ]
        rows, exceeded = _aggregate(per_trial)
        row = rows[0]
        assert row["trials"] == 2
        assert row["valid"] == 1
        assert row["violations"] == 0
        assert exceeded == []

    def test_exceeded_triggers_on_high_rate(self):
        # floor 0.9 allows a 10% budget; 100% violations far exceeds it
        per_trial = [[self.rep("t", 1.0, 2.0)] for _ in range(50)]
        rows, exceeded = _aggregate(per_trial)
        assert exceeded == ["t"]

    def test_within_budget_not_exceeded(self):
        reports = [[self.rep("t", 1.0, 0.5)] for _ in range(48)]
        reports += [[self.rep("t", 1.0, 2.0)] for _ in range(2)]
        rows, exceeded = _aggregate(reports)
        assert rows[0]["rate"] == pytest.approx(2.0 / 50.0)
        assert exceeded == []

    def test_fail_closed_report_ranks_worst(self):
        per_trial = [
            [self.rep("t", 1.0, 0.5)],
            [BoundReport.build("t", 1.0, 0.5, ALL_OK, np.nan)],
            [self.rep("t", np.nan, 0.25)],
        ]
        row = _aggregate(per_trial)[0][0]
        assert row["violations"] == 2
        assert row["ratio_p50"] == np.inf and row["ratio_p99"] == np.inf

    @given(
        st.lists(st.floats(0.0, 1e6), max_size=60),
        st.integers(0, 5),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    @settings(max_examples=150, deadline=None)
    def test_quantiles_stay_defined_with_failed_trials(self, ratios, failures, bad):
        reports = [[self.rep("t", 1.0, r)] for r in ratios]
        reports += [[self.rep("t", 1.0, bad)] for _ in range(failures)]
        if not reports:
            return
        row = _aggregate(reports)[0][0]
        got = [row["ratio_p50"], row["ratio_p90"], row["ratio_p99"]]
        assert not any(np.isnan(q) for q in got)
        assert got == sorted(got)
        if failures == 0:
            assert got == [float(q) for q in np.quantile(ratios, [0.5, 0.9, 0.99])]
        elif not ratios:
            assert got == [np.inf] * 3
        else:
            # a failed trial ranks above every finite ratio
            worse = np.quantile(ratios + [2e6] * failures, [0.5, 0.9, 0.99])
            for q, w in zip(got, worse):
                assert q == w or (q == np.inf and w >= max(ratios))

    def test_none_empirical_not_valid(self):
        per_trial = [[BoundReport.build("t", 1.0, 0.9, ALL_OK, None)]]
        rows, _ = _aggregate(per_trial)
        assert rows[0]["valid"] == 0
        assert rows[0]["rate"] is None


class TestEmit:
    def summary(self):
        rows = [
            {
                "theorem_id": "t",
                "trials": 3,
                "valid": 2,
                "violations": 0,
                "rate": 0.0,
                "ratio_p50": 0.5,
                "ratio_p90": 0.9,
                "ratio_p99": 0.99,
            },
            {
                "theorem_id": "u",
                "trials": 3,
                "valid": 0,
                "violations": 0,
                "rate": None,
                "ratio_p50": None,
                "ratio_p90": None,
                "ratio_p99": None,
            },
        ]
        return SummaryReport(rows=rows, config={"scenario": "bounds"}, version="0.1.0")

    def test_csv_layout(self):
        text = emit_report(self.summary(), "csv")
        lines = text.splitlines()
        assert lines[0] == (
            "theorem_id,trials,valid,violations,rate,ratio_p50,ratio_p90,ratio_p99"
        )
        assert lines[1] == "t,3,2,0,0.0,0.5,0.9,0.99"
        assert lines[2] == "u,3,0,0,,,,"
        assert text.endswith("\n")

    def test_json_layout(self):
        text = emit_report(self.summary(), "json")
        doc = json.loads(text)
        assert doc["version"] == "0.1.0"
        assert doc["config"] == {"scenario": "bounds"}
        assert doc["rows"][1]["rate"] is None

    def test_json_handles_inf(self):
        s = self.summary()
        s.rows[0]["ratio_p99"] = float("inf")
        doc = json.loads(emit_report(s, "json"))
        assert doc["rows"][0]["ratio_p99"] == "inf"

    def test_unknown_format(self):
        with pytest.raises(InvalidParameterError):
            emit_report(self.summary(), "xml")


class TestMain:
    def test_selftest_exit_zero(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("theorem_id,")

    def test_missing_config_file(self, capsys):
        assert main(["bounds", "--config", "/nonexistent/cfg.json"]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        assert main(["bounds", "--config", str(p)]) == EXIT_CONFIG

    def test_scenario_mismatch(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "gmm"}))
        assert main(["bounds", "--config", str(p)]) == EXIT_CONFIG

    def test_bad_token_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps({"scenario": "bounds", "theorems": ["weyl:1"], "model": BOUNDS_MODEL})
        )
        assert main(["bounds", "--config", str(p), "--trials", "1"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "theorems, model",
        [
            pytest.param(["gauss_sv_location:x"], None, id="gauss_sv_location:x-None"),
            pytest.param(["wedin:1.5:operator"], None, id="wedin:1.5:operator-None"),
            pytest.param(
                ["mirsky:operator"],
                {"n_rows": "x", "n_cols": 60, "singulars": [40.0, 30.0]},
                id="mirsky:operator-model2",
            ),
            pytest.param(["mirsky:two_inf"], None, id="mirsky:two_inf-None"),
            pytest.param(["wedin:1:two_inf"], None, id="wedin:1:two_inf-None"),
            pytest.param(["gauss_sin_theta:max"], None, id="gauss_sin_theta:max-None"),
            pytest.param(["general_sin_theta:1:max"], None, id="general_sin_theta:1:max-None"),
            pytest.param(["mirsky:kyfan99"], None, id="mirsky:kyfan99-None"),
            pytest.param(["mirsky:operator", "mirsky:operator"], None, id="repeat"),
            pytest.param(["mirsky:OPERATOR", "mirsky:operator"], None, id="repeat-case"),
            pytest.param(
                ["gauss_sin_theta:schatten2", "gauss_sin_theta:schatten2.0"],
                None,
                id="repeat-schatten",
            ),
            pytest.param(["gauss_sv_location:1", "gauss_sv_location:01"], None, id="repeat-index"),
            pytest.param(
                ["mirsky:operator"],
                {"n_rows": 80, "n_cols": 60, "singulars": [40.0, 30.0], "noise_scal": 5.0},
                id="unread-key",
            ),
            pytest.param(["mirsky:operator"], dict(CLI_BOUNDS_MODEL, n_rows=80.7), id="n_rows-80.7"),
            pytest.param(["mirsky:operator"], dict(CLI_BOUNDS_MODEL, k_lo=True), id="k_lo-true"),
            pytest.param(
                ["mirsky:operator"], dict(CLI_BOUNDS_MODEL, margin=float("nan")), id="margin-nan"
            ),
            pytest.param(
                ["mirsky:operator"],
                dict(CLI_BOUNDS_MODEL, noise_scale=float("inf")),
                id="noise_scale-inf",
            ),
            pytest.param(
                ["mirsky:operator"], dict(CLI_BOUNDS_MODEL, n_rows=10**400), id="n_rows-1e400"
            ),
        ],
    )
    def test_malformed_token_or_model_is_config_error(self, tmp_path, capsys, theorems, model):
        # rejected when the scenario is built, never as a traceback or a trial failure
        doc = {"theorems": theorems}
        if model is not None:
            doc["model"] = model
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert main(["bounds", "--config", str(p), "--trials", "2"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: invalid config: ")

    @pytest.mark.parametrize(
        "scenario, doc",
        [
            ("gmm", {"model": dict(GMM_MODEL, center_scal=60.0)}),
            ("gmm", {"model": dict(GMM_MODEL, centers=np.eye(3, 50).tolist())}),
            ("gmm", {"theorems": ["gmm_recovery", "gmm_recovery"]}),
            ("submatrix", {"theorems": ["submatrix_recovery", "planted"]}),
            ("resolvent", {"model": {"n_rows": 10, "n_cols": 8, "sparse": True}}),
            ("resolvent", {"theorems": ["uphiu", "g_norm", "uphiu"]}),
            ("selftest", {"theorems": ["nonsense"]}),
            ("selftest", {"model": {"whatever": 3}}),
            ("resolvent", {"model": {"n_rows": 100, "n_cols": 80, "tail": -2.0}}),
            ("gmm", {"model": dict(GMM_MODEL, restarts=0)}),
            ("gmm", {"model": dict(GMM_MODEL, tail=-4)}),
            ("submatrix", {"model": dict(SUBMATRIX_MODEL, restarts=0)}),
            ("submatrix", {"model": dict(SUBMATRIX_MODEL, tail=-4)}),
            ("resolvent", {"model": dict(RESOLVENT_MODEL, dense="false")}),
            ("resolvent", {"model": dict(RESOLVENT_MODEL, z_factors=[float("nan")])}),
            ("resolvent", {"model": dict(RESOLVENT_MODEL, margin=float("inf"))}),
            ("resolvent", {"model": dict(RESOLVENT_MODEL, n_rows=0)}),
            ("resolvent", {"model": dict(RESOLVENT_MODEL, signal_rank=2.9)}),
            ("selftest", {"trials": 2.5}),
            ("selftest", {"trials": True}),
            ("bounds", {"theorems": "mirsky:operator"}),
            ("bounds", {"theorems": []}),
        ],
    )
    def test_unread_key_or_bad_row_is_config_error(self, tmp_path, capsys, scenario, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"trials": 1, **doc}))
        assert main([scenario, "--config", str(p)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: invalid config: ")

    def test_bad_value_of_any_model_key_is_config_error_naming_it(self, tmp_path, capsys):
        # every key of every CLI model and every optional key, given a value
        # of the wrong kind, and each single-key range
        models = {
            scenario: dict(start.model, **OPTIONAL_MODEL_KEYS[scenario])
            for scenario, start in harness._SCENARIOS.items()
        }
        cases = [
            (scenario, key, bad)
            for scenario, model in models.items()
            for key, value in model.items()
            for bad in wrong_kinds(value)
        ]
        # an integer past int64, which no array size or index can take
        cases += [
            (scenario, key, bad)
            for scenario, model in models.items()
            for key, value in model.items()
            if isinstance(value, int) and not isinstance(value, bool)
            for bad in (2**63, -(2**63) - 1, 10**400)
        ]
        cases += [
            ("bounds", "noise_scale", 0.0),
            ("gmm", "center_scale", 0.0),
            ("resolvent", "margin", 1.5),
            ("resolvent", "z_factors", [1.0, 0.5]),
            ("resolvent", "n_rows", 0),
            ("resolvent", "n_cols", 0),
        ]
        p = tmp_path / "cfg.json"
        for scenario, key, bad in cases:
            p.write_text(json.dumps({"model": dict(models[scenario], **{key: bad})}))
            assert main([scenario, "--config", str(p), "--trials", "1"]) == EXIT_CONFIG, (key, bad)
            err = capsys.readouterr().err
            assert err.startswith(f"error: invalid config: model key {key!r}"), (key, bad, err)

    def test_every_default_model_key_is_read(self):
        for scenario, start in harness._SCENARIOS.items():
            model = dict(start.model, **OPTIONAL_MODEL_KEYS[scenario])
            keys = harness._ModelKeys(model)
            start.factory(ExperimentConfig(scenario, 1, 0, start.theorems, keys))
            assert keys.read >= set(model), scenario

    def test_optional_keys_are_the_taken_defaults(self, monkeypatch):
        # a record's model repeats no default its factory takes, and the
        # test's optional keys are exactly the keys taken with a default
        defaults: dict = {}
        take = harness._ModelKeys.take

        def recording(self, key, kind, default=None, **kw):
            if default is not None:
                defaults[key] = default
            return take(self, key, kind, default, **kw)

        monkeypatch.setattr(harness._ModelKeys, "take", recording)
        for scenario, start in harness._SCENARIOS.items():
            defaults.clear()
            keys = harness._ModelKeys(start.model)
            start.factory(ExperimentConfig(scenario, 1, 0, start.theorems, keys))
            repeated = {k for k, v in start.model.items() if k in defaults and defaults[k] == v}
            assert not repeated, scenario
            assert set(defaults) - set(start.model) == set(OPTIONAL_MODEL_KEYS[scenario]), scenario

    @pytest.mark.parametrize("module", ["svperturb", "svperturb.harness"])
    def test_module_entry_point_runs(self, tmp_path, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, "selftest", "--trials", "1"],
            capture_output=True,
            text=True,
            env=_src_env(),
            cwd=tmp_path,
            timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith(",".join(harness._CSV_COLUMNS) + "\n")
        if module == "svperturb":
            assert proc.stderr == ""

    def test_runs_without_loading_scipy(self, tmp_path):
        script = (
            "import json, sys\n"
            "import svperturb\n"
            "from svperturb.harness import _SCENARIOS, main\n"
            "codes = [main([s, '--trials', '1', '--out', s + '.csv']) for s in _SCENARIOS]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=_src_env(),
            cwd=tmp_path,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [EXIT_OK] * len(harness._SCENARIOS)
        assert scipy_modules == []

    def test_linalg_error_while_building_is_runtime(self, monkeypatch, capsys):
        def factory(cfg):
            raise np.linalg.LinAlgError("did not converge")

        stub_factory(monkeypatch, factory)
        assert main(["selftest"]) == EXIT_RUNTIME
        assert "invalid config" not in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["teleport"]) == EXIT_CONFIG

    def test_out_file_and_rerun_identical(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps(
                {
                    "scenario": "bounds",
                    "trials": 3,
                    "base_seed": 11,
                    "theorems": ["mirsky:operator", "spectral_norm_event"],
                    "model": BOUNDS_MODEL,
                }
            )
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["bounds", "--config", str(p), "--out", str(out1)]) == EXIT_OK
        assert main(["bounds", "--config", str(p), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_rows_without_a_valid_trial_are_named_on_stderr(self, tmp_path, capsys):
        # a unit signal under unit noise: no trial has the positive gap wedin needs
        model = {"n_rows": 5, "n_cols": 4, "singulars": [1.0], "k_lo": 1, "k_hi": 1}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"model": model, "trials": 3, "base_seed": 2}))
        assert main(["bounds", "--config", str(p)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "wedin:k1:frobenius,3,0,0,,,,\n" in out
        assert "wedin:k1:operator,3,0,0,,,,\n" in out
        assert err == "note: no valid trial in rows: wedin:k1:frobenius, wedin:k1:operator\n"
        p.write_text(json.dumps({"model": model, "trials": 3, "theorems": ["mirsky:operator"]}))
        assert main(["bounds", "--config", str(p), "--out", str(tmp_path / "r.csv")]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_json_output_contains_config_echo(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(
            ["selftest", "--format", "json", "--out", str(out), "--seed", "4"]
        )
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["config"]["base_seed"] == 4
        assert doc["config"]["scenario"] == "selftest"

    def test_json_echo_lists_the_model_keys_given(self, tmp_path):
        # the CLI's starting model holds only the keys the factory needs; the
        # defaults it fills in are not echoed
        out = tmp_path / "r.json"
        assert main(["bounds", "--format", "json", "--trials", "1", "--out", str(out)]) == EXIT_OK
        config = json.loads(out.read_text())["config"]
        assert config["model"] == {"n_rows": 80, "n_cols": 60, "singulars": [40.0, 30.0, 20.0]}
        assert config["theorems"] == list(harness._SCENARIOS["bounds"].theorems)

    def test_json_bytes_do_not_depend_on_out_or_threads(self, tmp_path):
        # one config written as json to two paths at two thread counts
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"trials": 4, "format": "json", "model": BOUNDS_MODEL}))
        reports = []
        for name, threads in (("one.json", "1"), ("three.json", "3")):
            out = tmp_path / name
            assert main(["bounds", "--config", str(p), "--out", str(out), "--threads", threads]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "selftest", "base_seed": 9}))
        out = tmp_path / "r.json"
        rc = main(
            [
                "selftest",
                "--config",
                str(p),
                "--seed",
                "12",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["config"]["base_seed"] == 12

    def test_base_seed_past_int64_is_reduced_not_rejected(self, tmp_path):
        # derive_seed works mod 2^64, so base_seed takes any integer, unlike a model value
        p = tmp_path / "cfg.json"
        reports = []
        for i, seed in enumerate((5, 5 + 3 * 2**64)):
            p.write_text(json.dumps({"scenario": "selftest", "trials": 2, "base_seed": seed}))
            out = tmp_path / f"{i}.csv"
            assert main(["selftest", "--config", str(p), "--out", str(out)]) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_violation_budget_exit(self, monkeypatch, capsys):
        fake = SummaryReport(rows=[], config={}, version="0.1.0", exceeded=["t"])
        monkeypatch.setattr(harness, "run_monte_carlo", lambda cfg: fake)
        assert main(["selftest"]) == EXIT_VIOLATION
        assert "budget exceeded" in capsys.readouterr().err

    def test_trial_failure_names_trial_and_seed_and_replays(self, tmp_path, monkeypatch, capsys):
        # an InvalidInputError raised inside a trial is a runtime failure,
        # never an invalid config
        bad_seed = derive_seed(7, 2)
        seeds = []  # the seed of the trial running now is seeds[-1]
        real = harness.perturb

        def trial_seed(base_seed, i):
            seeds.append(derive_seed(base_seed, i))
            return seeds[-1]

        def perturb(factors, noise):
            if seeds[-1] == bad_seed:
                raise InvalidInputError("singular values must be nonnegative and descending")
            return real(factors, noise)

        monkeypatch.setattr(harness, "derive_seed", trial_seed)
        monkeypatch.setattr(harness, "perturb", perturb)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"theorems": ["mirsky:operator"], "model": BOUNDS_MODEL}))
        assert main(["bounds", "--config", str(p), "--trials", "4", "--seed", "7"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith(f"error: runtime failure in trial 2 (seed {bad_seed}): ")
        assert "InvalidInputError: singular values must be" in err
        assert "invalid config" not in err
        replay = ["bounds", "--config", str(p), "--trials", "1", "--seed", str(bad_seed)]
        assert main(replay) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith(f"error: runtime failure in trial 0 (seed {bad_seed}): ")

    def test_trial_failure_under_threads(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool path on any machine

        def trial_factory(cfg):
            def trial(seed):
                if seed == derive_seed(11, 3):
                    raise ZeroDivisionError("boom")
                return []

            return trial

        stub_factory(monkeypatch, trial_factory)
        cfg = ExperimentConfig(
            scenario="selftest", trials=5, base_seed=11, theorems=(), model={}, threads=2
        )
        with pytest.raises(TrialFailure) as info:
            run_monte_carlo(cfg)
        assert (info.value.index, info.value.seed) == (3, derive_seed(11, 3))
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_trial_failure_pickles(self):
        # a worker process hands its failure back pickled
        exc = pickle.loads(pickle.dumps(TrialFailure(3, 7)))
        assert (type(exc), exc.index, exc.seed) == (TrialFailure, 3, 7)
        assert str(exc) == "trial 3 (seed 7)"

    def test_trial_failure_pickles_its_cause(self, monkeypatch, capsys):
        # pickling drops __cause__, so the failure carries the cause's type
        # name and message itself, and main prints them from there
        def trial_factory(cfg):
            return lambda seed: 1 / 0

        stub_factory(monkeypatch, trial_factory)
        cfg = ExperimentConfig("selftest", 3, 9, (), {})
        with pytest.raises(TrialFailure) as info:
            run_monte_carlo(cfg)
        exc = pickle.loads(pickle.dumps(info.value))
        assert exc.__cause__ is None
        assert (exc.index, exc.seed) == (0, 9)
        assert exc.cause == "ZeroDivisionError: division by zero"

        def crossed(cfg):
            raise exc

        monkeypatch.setattr(harness, "run_monte_carlo", crossed)
        assert main(["selftest"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == f"error: runtime failure in {exc}: ZeroDivisionError: division by zero\n"
        assert str(exc) == "trial 0 (seed 9)"

    def test_parser_is_built_once_per_process(self, monkeypatch):
        built = []

        class Counting(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "argparse", SimpleNamespace(ArgumentParser=Counting))
        harness._parser.cache_clear()
        try:
            assert main(["selftest", "--trials", "0"]) == EXIT_CONFIG
            first = len(built)
            assert main(["selftest", "--trials", "0"]) == EXIT_CONFIG
            assert main(["nonesuch"]) == EXIT_CONFIG
            assert first > 0 and len(built) == first
        finally:
            harness._parser.cache_clear()

    def test_zj_bracket_failure_is_a_not_met_row(self, tmp_path, monkeypatch, capsys):
        def no_bracket(*args):
            raise NumericalFailureError("no bracket")

        monkeypatch.setattr(harness, "solve_zj", no_bracket)
        p = tmp_path / "cfg.json"
        doc = {"theorems": ["phi_identity", "zj_bracket"], "model": {"n_rows": 10, "n_cols": 8}}
        p.write_text(json.dumps(doc))
        out = tmp_path / "r.csv"
        assert main(["resolvent", "--config", str(p), "--trials", "3", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[2] == "zj_bracket,3,0,0,,,,"
        assert rows[1].startswith("phi_identity,3,3,0,")
        assert "no valid trial in rows: zj_bracket" in capsys.readouterr().err

    def test_runtime_failure_exit(self, monkeypatch, capsys):
        def boom(cfg):
            raise NumericalFailureError("svd collapse")

        monkeypatch.setattr(harness, "run_monte_carlo", boom)
        assert main(["selftest"]) == EXIT_RUNTIME
