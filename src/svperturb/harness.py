"""Monte Carlo driver, report emission and the command line interface.

Each scenario is one _SCENARIOS record: its help line, its factory and the
run the command line starts from.

Trial i draws everything from the generator seeded with
derive_seed(base_seed, i), which run_monte_carlo derives once and hands to
the scenario's trial function, so runs are reproducible for a fixed config
and aggregation is order-independent. Exit codes: 0 success, 1 invalid config,
2 violation budget exceeded (or selftest failure), 3 runtime failure. Any
exception inside a trial is a runtime failure, reported with the trial's
index and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, cached_property
from operator import attrgetter
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import __version__
from .bounds import (
    ALL_OK,
    BoundReport,
    GaussianBoundParams,
    GeneralNoiseParams,
    PreconditionFlags,
    aligned_2inf_bound,
    check_tail,
    cross_term_norm,
    dim_snr_flags,
    gauss_row_id,
    gauss_subspace_bound,
    gauss_subspace_simplified,
    gauss_sv_location_check,
    general_sv_bounds,
    general_subspace_bound,
    linear_bilinear_bound,
    matrix_2inf_bound,
    mirsky_check,
    probability_floor,
    spectral_norm_report,
    two_inf_bound,
    vector_inf_bound,
    wedin_check,
    weighted_corollary_bound,
    weighted_window_bound,
    window_2inf_residual,
    window_residual,
    window_sin_theta,
    window_weighted_residual,
)
from .clustering import (
    KMeansConfig,
    Labeling,
    embedding_gap,
    kmeans,
    match_labels,
    misclassification,
    spectral_embedding,
    spectral_submatrix,
)
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    NumericalFailureError,
)
from .matcore import (
    FROBENIUS,
    NUCLEAR,
    OPERATOR,
    NormSpec,
    apply_norm,
    gauge,
    gram_spectrum,
    kyfan,
    norm_spec_from_token,
    require_norm,
    schatten,
    singular_values,
    svd,
)
from .models import (
    GmmSpec,
    LowRankSpec,
    PerturbationInstance,
    SubmatrixSpec,
    haar_basis,
    low_rank_from_rng,
    perturb,
    plant_submatrices,
    sample_gmm,
)
from .resolvent import (
    dense_resolvent_bilinear,
    far_field_phi,
    linearized_basis,
    linearized_noise,
    local_law_bound,
    local_law_gap,
    margin_offsets,
    min_abs_z,
    phi_values,
    remainder_norms,
    resolvent_bilinear,
    solve_zj,
    uphiu_deviation,
)
from .seeding import derive_seed
from .subspace import (
    aligned_distance,
    principal_angles,
    procrustes_align,
    residual,
    row_mass,
    sin_theta_norm,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2
EXIT_RUNTIME = 3

_FORMATS = ("csv", "json")
_CSV_COLUMNS = (
    "theorem_id",
    "trials",
    "valid",
    "violations",
    "rate",
    "ratio_p50",
    "ratio_p90",
    "ratio_p99",
)


_INT64 = np.iinfo(np.int64)
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _typed(name: str, value, kind, at_least=None, above=None):
    """value checked as kind, else InvalidParameterError. Kinds: int (never a
    bool), float (finite; an integer becomes a float), bool, str, list[kind] (as a
    tuple) and unions. Each number must be >= at_least and > above where given."""
    if get_origin(kind) not in (None, list):  # a union: the option of value's outer type
        options = get_args(kind)
        kind = next((k for k in options if isinstance(value, get_origin(k) or k)), options[0])
    if get_origin(kind) is list:
        if not isinstance(value, (list, tuple)):
            raise InvalidParameterError(f"{name} must be a list, got {value!r}")
        return tuple(_typed(name, v, get_args(kind)[0], at_least, above) for v in value)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float:
        # NaN, +-inf and integers beyond the float range fail the comparison
        ok = number and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind) and (number or kind is not int)
    if not ok:
        raise InvalidParameterError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    if at_least is not None and value < at_least:
        raise InvalidParameterError(f"{name} must be at least {at_least}, got {value!r}")
    if above is not None and value <= above:
        raise InvalidParameterError(f"{name} must be above {above}, got {value!r}")
    return float(value) if kind is float else value


@dataclass(frozen=True)
class ExperimentConfig:
    """One run. Library calls get these defaults; the CLI starts from the
    scenario's _SCENARIOS record."""

    scenario: str
    trials: int = 1
    base_seed: int = 0
    theorems: tuple[str, ...] = ()
    model: dict = field(default_factory=dict)
    output: str | None = None
    format: str = "csv"
    threads: int = 1

    def __post_init__(self):
        if self.scenario not in _SCENARIOS:
            raise InvalidParameterError(f"unknown scenario {self.scenario!r}")
        _typed("trials", self.trials, int, at_least=1)
        _typed("base_seed", self.base_seed, int)
        _typed("threads", self.threads, int, at_least=1)
        object.__setattr__(self, "theorems", _typed("theorems", self.theorems, list[str]))
        if not isinstance(self.model, dict):
            raise InvalidParameterError("model must be a mapping")
        _typed("output", self.output, str | None)
        if _typed("format", self.format, str) not in _FORMATS:
            raise InvalidParameterError(f"format must be one of {_FORMATS}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise InvalidParameterError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)

    def echo(self) -> dict:
        d = asdict(self)
        del d["output"], d["threads"]  # run settings: a report's bytes never depend on them
        d["theorems"] = list(self.theorems)
        return d


@dataclass
class SummaryReport:
    rows: list[dict]
    config: dict
    version: str
    wall_time_s: float = 0.0           # in-memory only, never serialized
    exceeded: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)  # in-memory only: rows that counted no trial


# ---------------------------------------------------------------------------
# model keys, theorem tokens and fixed row sets


class _ModelKeys(dict):
    """A scenario's model; factories read it only through take, which records each key."""

    def __init__(self, model: dict):
        super().__init__(model)
        self.read: set = set()

    def take(self, key: str, kind, default=None, *, at_least=None, above=None):
        """key's value checked as kind (see _typed); if absent, default (unchecked) or an error.
        Every integer must fit numpy's int64, as array sizes and indices do."""
        self.read.add(key)
        if key not in self:
            if default is None:
                raise InvalidParameterError(f"model is missing key {key!r}")
            return default
        name = f"model key {key!r}"
        value = _typed(name, self[key], kind, at_least, above)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, int) and not _INT64.min <= v <= _INT64.max:
                raise InvalidParameterError(f"{name} is outside the 64-bit integer range")
        return value


def _reject_repeats(tokens, keys) -> None:
    """Reject two tokens with one key: they would count each trial twice."""
    seen: dict = {}
    for token, key in zip(tokens, keys):
        if key in seen:
            raise InvalidParameterError(f"theorem tokens {seen[key]!r} and {token!r} repeat a row")
        seen[key] = token


def _fixed_rows(cfg: ExperimentConfig, rows: tuple[str, ...]) -> set[str]:
    """The requested rows of a scenario with a fixed row set (all when none is named)."""
    unknown = set(cfg.theorems) - set(rows)
    if unknown:
        raise InvalidParameterError(f"unknown {cfg.scenario} theorems: {sorted(unknown)}")
    _reject_repeats(cfg.theorems, cfg.theorems)
    return set(cfg.theorems) or set(rows)


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.standard_normal(dim)
    return x / np.linalg.norm(x)


# ---------------------------------------------------------------------------
# bounds scenario


# The bounds theorem table. A token is KIND[:ARG[:ARG]], and each kind is the
# _BoundsTrial method of that name, registered by @_theorem with one validator
# (text, params) -> value per argument, run when the scenario is built, and its
# hypotheses params -> the flags its rows report, kept on the method. A kind with
# hypotheses also assumes unit-variance noise; None marks a distribution-free one.
_BOUNDS_THEOREMS: dict[str, tuple] = {}


def _theorem(*validators, hypotheses=attrgetter("preconditions")):
    def register(evaluate):
        evaluate.hypotheses = hypotheses
        _BOUNDS_THEOREMS[evaluate.__name__] = (validators, evaluate)
        return evaluate

    return register


def _unit_noise_only(p: GaussianBoundParams) -> PreconditionFlags:
    """Hypotheses of a statement on unit-variance noise alone, none of the model's."""
    return ALL_OK


def _bind_token(token: str, params: GaussianBoundParams):
    """Validate a bounds token against the model: (evaluator, parsed args)."""
    kind, *texts = token.split(":")
    entry = _BOUNDS_THEOREMS.get(kind)
    if entry is None or len(texts) != len(entry[0]):
        raise InvalidParameterError(f"unknown theorem token {token!r}")
    validators, evaluate = entry
    return evaluate, [parse(text, params) for parse, text in zip(validators, texts)]


def _rank_index(text: str, p: GaussianBoundParams) -> int:
    if not (text.isascii() and text.isdigit()):
        raise InvalidParameterError(f"index {text!r} is not an integer")
    if not 1 <= int(text) <= p.rank:
        raise InvalidParameterError(f"index {text} outside 1..rank={p.rank}")
    return int(text)


def _window_index(text: str, p: GaussianBoundParams) -> int:
    if not p.k_lo <= _rank_index(text, p) <= p.k_hi:
        raise InvalidParameterError(f"location index {text} outside the window")
    return int(text)


def _norm(text: str, p: GaussianBoundParams) -> NormSpec:
    return require_norm(norm_spec_from_token(text), min(p.n_rows, p.n_cols))


@dataclass
class _BoundsTrial:
    """One bounds trial. The quantities several kinds share are computed on
    first use, at most once per trial."""

    inst: PerturbationInstance
    p: GaussianBoundParams
    rng: np.random.Generator

    @cached_property
    def u_2inf(self) -> float:
        return row_mass(self.inst.svd_signal.left)

    @cached_property
    def general(self) -> tuple[GeneralNoiseParams, ...]:
        """Measured noise caps; entry k - 1 serves index k."""
        sig = self.inst.svd_signal
        core = sig.left.T @ self.inst.noise @ sig.right
        core_bound = float(np.linalg.norm(core, 2))
        e_norm = self.inst.noise_top.value
        return tuple(
            GeneralNoiseParams(e_norm, core_bound, float(np.linalg.norm(core[:k, :k], 2)))
            for k in range(1, sig.vector_count + 1)
        )

    @_theorem(_norm, hypotheses=None)
    def mirsky(self, spec: NormSpec) -> list[BoundReport]:
        return [mirsky_check(self.inst, spec)]

    @_theorem(_rank_index, _norm, hypotheses=None)
    def wedin(self, k: int, spec: NormSpec) -> list[BoundReport]:
        return [wedin_check(self.inst, k, spec)]

    @_theorem(_norm)
    def gauss_sin_theta(self, spec: NormSpec) -> list[BoundReport]:
        p = self.p
        if spec.kind == "operator":
            cross = self.inst.noise_top.value
        else:
            cross = cross_term_norm(self.inst, p.k_lo, p.k_hi, spec)
        emp = window_sin_theta(self.inst, p.k_lo, p.k_hi, spec)
        return [gauss_subspace_bound(p, spec, cross, emp)]

    @_theorem()
    def gauss_sin_theta_simplified(self) -> list[BoundReport]:
        emp = window_sin_theta(self.inst, 1, self.p.k_lo, OPERATOR)
        return [gauss_subspace_simplified(self.p, self.inst.noise_top.value, emp)]

    @_theorem(_window_index)
    def gauss_sv_location(self, j: int) -> list[BoundReport]:
        inst = self.inst

        def phi_at(z):
            # the far-field series where it is certified, else the whole spectrum
            probe = far_field_phi(inst.noise_top, *inst.shape, z)
            return (probe or phi_values(inst.noise_spectrum, *inst.shape, z)).varphi.real

        return [gauss_sv_location_check(inst, self.p, j, phi_at)]

    @_theorem()
    def gauss_2inf(self) -> list[BoundReport]:
        p = self.p
        return [two_inf_bound(p, self.u_2inf, window_2inf_residual(self.inst, p.k_lo, p.k_hi))]

    @_theorem()
    def gauss_vector_inf(self) -> list[BoundReport]:
        k = self.p.k_lo
        emp = float(np.max(np.abs(window_residual(self.inst, k, k))))
        return [vector_inf_bound(self.p, self.u_2inf, emp)]

    @_theorem()
    def gauss_matrix_2inf(self) -> list[BoundReport]:
        emp = window_2inf_residual(self.inst, 1, self.p.k_lo)
        return [matrix_2inf_bound(self.p, self.u_2inf, emp)]

    @_theorem()
    def gauss_2inf_aligned(self) -> list[BoundReport]:
        k = self.p.k_lo
        window_u = row_mass(self.inst.svd_signal.left[:, :k])
        emp = window_2inf_residual(self.inst, 1, k, aligned=True)
        return [aligned_2inf_bound(self.p, self.u_2inf, self.inst.noise_top.value, window_u, emp)]

    def _directional(self, bilinear: bool) -> list[BoundReport]:
        # each token draws x, then y, from the trial generator
        p, inst = self.p, self.inst
        x = _unit_vector(self.rng, inst.shape[0])
        y = _unit_vector(self.rng, p.window)
        xu = float(np.linalg.norm(x @ inst.svd_signal.left))
        xr = x @ window_residual(inst, p.k_lo, p.k_hi)
        lin, bil = linear_bilinear_bound(p, xu, y, (float(np.linalg.norm(xr)), float(abs(xr @ y))))
        return [bil if bilinear else lin]

    @_theorem(hypotheses=attrgetter("directional_preconditions"))
    def gauss_linear(self) -> list[BoundReport]:
        return self._directional(bilinear=False)

    @_theorem(hypotheses=attrgetter("directional_preconditions"))
    def gauss_bilinear(self) -> list[BoundReport]:
        return self._directional(bilinear=True)

    @_theorem()
    def gauss_weighted(self) -> list[BoundReport]:
        p = self.p
        emp = window_weighted_residual(self.inst, p.k_lo, p.k_hi)
        return [weighted_window_bound(p, self.u_2inf, emp)]

    @_theorem(hypotheses=attrgetter("full_window.preconditions"))
    def gauss_weighted_corollary(self) -> list[BoundReport]:
        p = self.p.full_window  # a statement on [1, rank], whatever window is configured
        emp = window_weighted_residual(self.inst, 1, p.rank, aligned=True)
        return [weighted_corollary_bound(p, self.u_2inf, self.inst.noise_top.value, emp)]

    @_theorem(_rank_index, hypotheses=None)
    def general_sv(self, k: int) -> list[BoundReport]:
        return list(general_sv_bounds(self.inst, k, self.general[k - 1]))

    @_theorem(_rank_index, _norm, hypotheses=None)
    def general_sin_theta(self, k: int, spec: NormSpec) -> list[BoundReport]:
        inst, gp = self.inst, self.general[k - 1]
        sigma_k = float(inst.svd_signal.singulars[k - 1])
        emp = window_sin_theta(inst, 1, k, spec)
        return [general_subspace_bound(k, inst.rank(), self.p.delta(k), sigma_k, gp, spec, emp)]

    @_theorem(hypotheses=_unit_noise_only)
    def spectral_norm_event(self) -> list[BoundReport]:
        return [spectral_norm_report(self.inst.noise_top.value, *self.inst.shape)]


def _not_met(evaluate, args, flags: PreconditionFlags):
    """A token under failed hypotheses: its constant rows, with no measured value."""
    rows = [BoundReport.build(gauss_row_id(evaluate.__name__, *args), np.inf, 0.0, flags)]
    return (lambda trial: rows), ()


def _bounds_factory(cfg: ExperimentConfig):
    model = cfg.model
    lr = LowRankSpec(
        n_rows=model.take("n_rows", int),
        n_cols=model.take("n_cols", int),
        singulars=model.take("singulars", list[float]),
        factor_mode=model.take("factor_mode", str, "haar"),
        coherent_row=model.take("coherent_row", int, 0),
    )
    params = GaussianBoundParams(
        n_rows=lr.n_rows,
        n_cols=lr.n_cols,
        singulars=lr.singulars,
        k_lo=model.take("k_lo", int, 1),
        k_hi=model.take("k_hi", int, 1),
        margin=model.take("margin", float, 2.0),
        tail=model.take("tail", float, 1.0),
    )
    noise_scale = model.take("noise_scale", float, 1.0, above=0.0)
    if not cfg.theorems:
        raise InvalidParameterError("bounds needs at least one theorem token")
    bound = [_bind_token(tok, params) for tok in cfg.theorems]
    _reject_repeats(cfg.theorems, [(f.__name__, *args) for f, args in bound])
    for i, (f, args) in enumerate(bound):
        if f.hypotheses is None:  # a distribution-free statement
            continue
        flags = f.hypotheses(params)
        if noise_scale != 1.0:
            # the SNR hypothesis is stated in units of the noise deviation, so
            # scaled noise fails it even when the model's own flags all hold
            flags = replace(flags, snr_ok=False)
        if not flags.all_ok:  # the hypotheses read the model alone: no trial can count these rows
            bound[i] = _not_met(f, args, flags)

    def trial(seed: int) -> list[BoundReport]:
        rng = np.random.default_rng(seed)
        factors = low_rank_from_rng(lr, rng)
        e = rng.standard_normal((lr.n_rows, lr.n_cols))
        if noise_scale != 1.0:
            e *= noise_scale
        t = _BoundsTrial(perturb(factors, e), params, rng)
        # config order: gauss_linear and gauss_bilinear draw from rng
        return [rep for evaluate, args in bound for rep in evaluate(t, *args)]

    return trial


# ---------------------------------------------------------------------------
# gmm and submatrix scenarios

_GMM_ROWS = ("gmm_recovery", "gmm_embedding_gap")
_SUBMATRIX_ROWS = ("submatrix_recovery",)


def _recovery_floor(
    n_rows: int, n_cols: int, k: int, tail: float, sigma_min: float, separations
) -> tuple[PreconditionFlags, float]:
    """Hypotheses and probability floor of the two recovery applications, whose trials
    run even when they fail; separations holds (gap, smallest group size) pairs."""
    dim_ok, snr_ok = dim_snr_flags(n_rows, n_cols, k, tail, sigma_min)
    root = np.sqrt(n_rows) + np.sqrt(n_cols)
    need = 1800.0 * k * np.sqrt((tail + 7.0) * np.log(n_rows + n_cols))
    gap_ok = all(bool(gap >= max(40.0 * root / np.sqrt(n), need)) for gap, n in separations)
    flags = PreconditionFlags(dim_ok=dim_ok, snr_ok=snr_ok, gap_ok=gap_ok)
    return flags, probability_floor(40.0, n_rows, n_cols, tail, flags.all_ok)


def _centers_from_model(model: _ModelKeys, k: int, p: int):
    """The k x p centers: the model's own, or center_scale times the first k axes."""
    if "centers" in model:
        return model.take("centers", list[list[float]])
    mode = model.take("center_mode", str, "orthogonal")
    if mode != "orthogonal":
        raise InvalidParameterError(f"unknown center_mode {mode!r}")
    if k > p:
        raise InvalidParameterError("orthogonal centers need n_clusters <= n_features")
    return model.take("center_scale", float, 1.0, above=0.0) * np.eye(k, p)


def _gmm_factory(cfg: ExperimentConfig):
    model = cfg.model
    k = model.take("n_clusters", int)
    p = model.take("n_features", int)
    n = model.take("n_samples", int)
    spec = GmmSpec(
        n_features=p,
        n_samples=n,
        n_clusters=k,
        centers=_centers_from_model(model, k, p),
        assignment=model.take("assignment", str | list[int], "balanced"),
    )
    tail = check_tail(model.take("tail", float, 1.0))
    kmeans_cfg = KMeansConfig(k=k, restarts=model.take("restarts", int, 10))
    wanted = _fixed_rows(cfg, _GMM_ROWS)
    separations = [(spec.center_gap, spec.min_cluster)]
    flags, prob = _recovery_floor(p, n, k, tail, spec.sigma_min, separations)

    def trial(seed: int) -> list[BoundReport]:
        emb = spectral_embedding(sample_gmm(spec, seed), k)
        reports = []
        if "gmm_recovery" in wanted:
            found, _, _ = kmeans(emb.T, replace(kmeans_cfg, seed=derive_seed(seed, 1)))
            res = match_labels(spec.truth, found)
            reports.append(
                BoundReport.build("gmm_recovery", 0.0, prob, flags, res.misclassification)
            )
        if "gmm_embedding_gap" in wanted:
            gap = embedding_gap(emb, spec.truth_embedding)
            reports.append(
                BoundReport.build("gmm_embedding_gap", spec.center_gap / 5.0, prob, flags, gap)
            )
        return reports

    return trial


def _submatrix_spec_from_model(model: _ModelKeys) -> SubmatrixSpec:
    m = model.take("n_rows", int)
    n = model.take("n_cols", int)
    amps = model.take("amplitudes", list[float])
    if "row_sets" in model or "col_sets" in model:
        row_sets = model.take("row_sets", list[list[int]])
        col_sets = model.take("col_sets", list[list[int]])
    else:
        k = len(amps)
        br = model.take("block_rows", int)
        bc = model.take("block_cols", int)
        if k * br > m or k * bc > n:
            raise InvalidParameterError("blocks do not fit in the matrix")
        row_sets = tuple(tuple(range(i * br, (i + 1) * br)) for i in range(k))
        col_sets = tuple(tuple(range(i * bc, (i + 1) * bc)) for i in range(k))
    return SubmatrixSpec(
        n_rows=m, n_cols=n, row_sets=row_sets, col_sets=col_sets, amplitudes=amps
    )


def _submatrix_factory(cfg: ExperimentConfig):
    model = cfg.model
    spec = _submatrix_spec_from_model(model)
    k = spec.n_blocks
    tail = check_tail(model.take("tail", float, 1.0))
    kmeans_cfg = KMeansConfig(k=k + 1, restarts=model.take("restarts", int, 10))
    _fixed_rows(cfg, _SUBMATRIX_ROWS)
    separations = [(spec.row_gap, spec.min_rows), (spec.col_gap, spec.min_cols)]
    flags, prob = _recovery_floor(spec.n_rows, spec.n_cols, k, tail, spec.sigma_min, separations)

    def trial(seed: int) -> list[BoundReport]:
        x = plant_submatrices(spec, seed)
        labs = spectral_submatrix(x, k, replace(kmeans_cfg, seed=derive_seed(seed, 1)))
        col_res = match_labels(spec.col_truth, labs.cols)
        row_res = match_labels(spec.row_truth, labs.rows)
        emp = max(col_res.misclassification, row_res.misclassification)
        return [BoundReport.build("submatrix_recovery", 0.0, prob, flags, emp)]

    return trial


# ---------------------------------------------------------------------------
# resolvent scenario

# the rows that invert the dense linearization, run only when dense is true
_DENSE_ROWS = ("dense_match", "g_norm", "g_approx1", "g_approx2")
_RESOLVENT_ROWS = (
    "phi_identity",
    "phi_monotone",
    "phi_crude",
    "phi_ring",
    "phi_lipschitz",
    "uphiu",
    "local_law",
    *_DENSE_ROWS,
    "zj_bracket",
)


def _resolvent_factory(cfg: ExperimentConfig):
    model = cfg.model
    n_rows = model.take("n_rows", int, at_least=1)
    n_cols = model.take("n_cols", int, at_least=1)
    margin = model.take("margin", float, 2.0, at_least=2.0)
    tail = check_tail(model.take("tail", float, 1.0))
    z_factors = model.take("z_factors", list[float], (1.0, 1.5, 3.0), at_least=1.0)
    signal_rank = model.take("signal_rank", int, 3)
    dense = model.take("dense", bool, n_rows + n_cols <= 120)
    if not 1 <= signal_rank <= min(n_rows, n_cols):
        raise InvalidParameterError("signal_rank out of range")
    wanted = _fixed_rows(cfg, _RESOLVENT_ROWS)
    if not dense:
        if named := [name for name in _DENSE_ROWS if name in cfg.theorems]:
            raise InvalidParameterError(f"rows {', '.join(named)} need dense: true")
        wanted -= set(_DENSE_ROWS)
    b = margin
    base = min_abs_z(n_rows, n_cols, margin)
    zs = [f * base for f in z_factors] + [complex(base, 0.5 * base)]
    grid = np.linspace(base, 3.0 * base, 25)
    sigma_j = 3.0 * base
    root = np.sqrt(n_rows) + np.sqrt(n_cols)
    norm_event = spectral_norm_report(None, n_rows, n_cols)
    ring, lip = margin_offsets(b)
    ring_lo, ring_hi, lip_lo, lip_hi = 1.0 - ring, 1.0 + ring, 1.0 - lip, 1.0 + lip
    law_dim_ok = bool(root**2 >= 32.0 * (tail + 1.0) * np.log(n_rows + n_cols))
    law_prob = probability_floor(9.0, n_rows, n_cols, tail + 1.0, law_dim_ok)
    law_bounds = [local_law_bound(n_rows, n_cols, margin, tail, z) for z in zs]

    def trial(seed: int) -> list[BoundReport]:
        # rows run in this order, and uphiu, local_law and dense_match draw from rng
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((n_rows, n_cols))
        eta = gram_spectrum(e)
        e_norm = float(eta[0])
        # the six event rows hold on ||E|| <= 2 (sqrt(N) + sqrt(n)), with its floor
        on_event = e_norm <= norm_event.bound_value
        event = (norm_event.probability_floor, PreconditionFlags(True, on_event, True))
        # formed on first use: phi at the z points (phi_values raises inside the spectrum),
        # varphi on the grid, the inverse of base - lin and its Neumann remainders' norms
        probes = cache(lambda: phi_values(eta, n_rows, n_cols, zs))
        grid_phi = cache(
            lambda: np.array([pr.varphi.real for pr in phi_values(eta, n_rows, n_cols, grid)])
        )
        dim = n_rows + n_cols
        inverse = cache(lambda: np.linalg.inv(base * np.eye(dim) - linearized_noise(e)))
        remainders = cache(lambda: remainder_norms(inverse(), base))
        reports: list[BoundReport] = []

        def row(name, bound, value, prob=1.0, flags=ALL_OK):
            reports.append(BoundReport.build(name, bound, prob, flags, value))

        if "phi_identity" in wanted:
            dev = 0.0
            for pr in probes():
                gap = abs(pr.phi1 - pr.phi2 + (n_cols - n_rows) / pr.z)
                dev = max(dev, gap / max(1.0, abs(pr.phi1)))
            row("phi_identity", 1e-8, dev)
        if "phi_monotone" in wanted:
            row("phi_monotone", 0.0, float(max(0.0, -np.min(np.diff(grid_phi())))))
        if "phi_crude" in wanted:
            vals = grid_phi()
            row("phi_crude", 0.0, max(0.0, float(np.max(vals - grid**2)), float(np.max(-vals))))
        if "phi_lipschitz" in wanted:
            worst, vals = 0.0, grid_phi()
            for v0, v1, z0, z1 in zip(vals, vals[1:], grid, grid[1:]):
                dphi, dz2 = abs(v1 - v0), abs(z1**2 - z0**2)
                worst = max(worst, lip_lo * dz2 - dphi, dphi - lip_hi * dz2)
            row("phi_lipschitz", 0.0, max(0.0, worst), *event)
        if "phi_ring" in wanted:
            worst = 0.0
            for pr in probes():
                r = abs(pr.z)
                for phi in (pr.phi1, pr.phi2):
                    worst = max(worst, ring_lo * r - abs(phi), abs(phi) - ring_hi * r)
            row("phi_ring", 0.0, max(0.0, worst), *event)
        if "uphiu" in wanted:
            u = haar_basis(rng, n_rows, signal_rank)
            u_lin = linearized_basis(u, haar_basis(rng, n_cols, signal_rank))
            dev = max(uphiu_deviation(pr, u_lin, n_rows, n_cols) for pr in probes())
            row("uphiu", 1e-8, dev)
        if "local_law" in wanted and not law_dim_ok:  # no trial can count it: it draws nothing
            row("local_law", np.inf, None, law_prob, PreconditionFlags(False, True, True))
        elif "local_law" in wanted:  # at one probe point, drawn after x and y
            x, y, i = _unit_vector(rng, dim), _unit_vector(rng, dim), rng.integers(len(zs))
            row("local_law", law_bounds[i], local_law_gap(e, probes()[i], x, y), law_prob)
        if "zj_bracket" in wanted:
            try:
                zj = solve_zj(eta, n_rows, n_cols, sigma_j, margin)
            except NumericalFailureError:
                row("zj_bracket", 0.0, None, 0.0, PreconditionFlags(True, False, True))
            else:
                row("zj_bracket", 0.0, max(0.0, sigma_j - zj, zj - ring_hi * sigma_j), *event)
        if "dense_match" in wanted:
            x, y = _unit_vector(rng, dim), _unit_vector(rng, dim)
            via_solve = resolvent_bilinear(e, base, x, y)
            via_dense = complex(x @ (inverse() @ y))
            row("dense_match", 1e-8, abs(via_solve - via_dense) / max(1.0, abs(via_dense)))
        z, s = base, e_norm
        bounds = (b / ((b - 1.0) * z), b / (b - 1.0) * s / z**2, b / (b - 1.0) * s**2 / z**3)
        for i, name in enumerate(_DENSE_ROWS[1:]):
            if name in wanted:
                row(name, bounds[i], remainders()[i], *event)
        return reports

    return trial


# ---------------------------------------------------------------------------
# selftest scenario


def _selftest_reports(seed: int) -> list[BoundReport]:
    rng = np.random.default_rng(seed)
    reports: list[BoundReport] = []

    def check(name: str, deviation: float, tol: float = 1e-9):
        reports.append(BoundReport.build(name, tol, 1.0, ALL_OK, float(deviation)))

    # gauge identities on a random spectrum
    vals = rng.uniform(0.5, 3.0, size=6)
    check("selftest:kyfan1_is_operator", abs(gauge(vals, kyfan(1)) - gauge(vals, OPERATOR)))
    check(
        "selftest:kyfan_full_is_nuclear",
        abs(gauge(vals, kyfan(6)) - gauge(vals, NUCLEAR)),
    )
    check(
        "selftest:schatten2_is_frobenius",
        abs(gauge(vals, schatten(2)) - gauge(vals, FROBENIUS)),
    )
    single = np.zeros((4, 5))
    single[1, 2] = 1.0
    for spec in (OPERATOR, FROBENIUS, NUCLEAR, schatten(3), kyfan(2)):
        check(f"selftest:unit_norm_{spec.label}", abs(apply_norm(single, spec) - 1.0))

    # mirsky and wedin on small seeded instances
    for idx, (nr, nc) in enumerate(((12, 8), (10, 10), (6, 14))):
        lr = LowRankSpec(nr, nc, (8.0, 5.0, 3.0))
        factors = low_rank_from_rng(lr, rng)
        e = 0.05 * rng.standard_normal((nr, nc))
        inst = perturb(factors, e)
        for spec in (OPERATOR, FROBENIUS, NUCLEAR, kyfan(2)):
            rep = mirsky_check(inst, spec)
            check(
                f"selftest:mirsky_{idx}_{spec.label}",
                max(0.0, rep.empirical_value - rep.bound_value),
                1e-9,
            )
        for k in (1, 2):
            rep = wedin_check(inst, k, FROBENIUS)
            if rep.violated is not None:
                check(
                    f"selftest:wedin_{idx}_k{k}",
                    max(0.0, rep.empirical_value - rep.bound_value),
                    1e-9,
                )

    # subspace identities; tolerance 1e-7 since angles pass through arccos,
    # whose conditioning near zero caps accuracy around sqrt(eps)
    for idx in range(4):
        amb = int(rng.integers(8, 30))
        d = int(rng.integers(1, min(6, amb // 2) + 1))
        u = haar_basis(rng, amb, d)
        v = haar_basis(rng, amb, d)
        ang = principal_angles(u, v)
        pu = u @ u.T
        pv = v @ v.T
        sv_prod = singular_values(pu @ pv)[:d]
        check(
            f"selftest:proj_product_svals_{idx}",
            float(np.max(np.abs(np.sort(sv_prod) - np.sort(np.cos(ang))))),
            1e-7,
        )
        spect = singular_values(residual(u, v, aligned=True))
        expect = np.sort(2.0 * np.sin(ang / 2.0))[::-1]
        pad = np.zeros(len(spect))
        pad[: len(expect)] = expect
        check(
            f"selftest:aligned_spectrum_{idx}",
            float(np.max(np.abs(np.sort(spect) - np.sort(pad)))),
            1e-7,
        )
        sin_f = sin_theta_norm(u, v, FROBENIUS)
        ali_f = aligned_distance(u, v, FROBENIUS)
        check(
            f"selftest:frobenius_sandwich_{idx}",
            max(0.0, sin_f - ali_f, ali_f - np.sqrt(2.0) * sin_f),
            1e-7,
        )
        proj_res = row_mass(residual(u, v))
        ali_res = row_mass(residual(u, v, aligned=True))
        u_mass = row_mass(u)
        sin_sq = float(np.sin(ang[-1]) ** 2)
        check(
            f"selftest:prop_two_inf_{idx}",
            max(0.0, ali_res - proj_res - u_mass * sin_sq),
            1e-7,
        )

    # procrustes closed forms
    u = haar_basis(rng, 9, 3)
    check("selftest:procrustes_self", float(np.max(np.abs(procrustes_align(u, u) - np.eye(3)))))
    q = haar_basis(rng, 3, 3)
    check(
        "selftest:procrustes_rotation",
        float(np.linalg.norm(residual(u, u @ q, aligned=True))),
        1e-8,
    )
    vec = haar_basis(rng, 7, 1)
    check(
        "selftest:procrustes_flip",
        float(abs(procrustes_align(vec, -vec)[0, 0] + 1.0)),
    )

    # resolvent identities on a small noise draw
    e = rng.standard_normal((8, 5))
    eta = svd(e).singulars
    base = min_abs_z(8, 5, 2.0)
    for zi, z in enumerate((base, complex(base, 3.0))):
        pr = phi_values(eta, 8, 5, z)
        check(
            f"selftest:phi_identity_{zi}",
            abs(pr.phi1 - pr.phi2 + (5 - 8) / complex(z)) / max(1.0, abs(pr.phi1)),
            1e-8,
        )
        x, y = _unit_vector(rng, 13), _unit_vector(rng, 13)
        via_solve = resolvent_bilinear(e, z, x, y)
        via_dense = dense_resolvent_bilinear(e, z, x, y)
        check(
            f"selftest:resolvent_dense_{zi}",
            abs(via_solve - via_dense) / max(1.0, abs(via_dense)),
            1e-8,
        )
    u = haar_basis(rng, 8, 2)
    v = haar_basis(rng, 5, 2)
    pr = phi_values(eta, 8, 5, base)
    check("selftest:uphiu", uphiu_deviation(pr, linearized_basis(u, v), 8, 5), 1e-8)
    pr = phi_values(np.zeros(6), 6, 9, 4.0)
    dev = abs(pr.phi1 - (4.0 - 9.0 / 4.0)) + abs(pr.phi2 - (4.0 - 6.0 / 4.0))
    check("selftest:phi_zero_noise", dev)

    # label matching examples
    t = Labeling(np.array([1, 1, 2, 2]), 2)
    check(
        "selftest:misclass_swap",
        abs(misclassification(t, Labeling(np.array([2, 2, 1, 1]), 2)) - 0.0),
    )
    check(
        "selftest:misclass_half",
        abs(misclassification(t, Labeling(np.array([1, 2, 1, 2]), 2)) - 0.5),
    )
    return reports


def _selftest_factory(cfg: ExperimentConfig):
    _fixed_rows(cfg, ())  # selftest takes no theorem tokens
    return _selftest_reports


# ---------------------------------------------------------------------------
# driver


@dataclass(frozen=True)
class _Scenario:
    """A scenario: its help line, its factory, and the run the command line
    starts from, where no theorems means every row the model admits. model
    holds only the keys the CLI must give: those the factory has no default
    for, and gmm's center_scale, which the CLI sets above the factory's 1."""

    help: str
    factory: Callable[[ExperimentConfig], Callable[[int], list[BoundReport]]]
    trials: int
    theorems: tuple[str, ...] = ()
    model: dict = field(default_factory=dict)


_SCENARIOS = {
    "bounds": _Scenario(
        "perturbation bounds on low-rank plus Gaussian noise",
        _bounds_factory,
        50,
        (
            "mirsky:operator",
            "mirsky:frobenius",
            "mirsky:nuclear",
            "wedin:1:operator",
            "wedin:1:frobenius",
            "spectral_norm_event",
        ),
        dict(n_rows=80, n_cols=60, singulars=[40.0, 30.0, 20.0]),
    ),
    "gmm": _Scenario(
        "spectral clustering recovery on Gaussian mixtures",
        _gmm_factory,
        20,
        model=dict(n_features=50, n_samples=300, n_clusters=3, center_scale=60.0),
    ),
    "submatrix": _Scenario(
        "planted submatrix recovery",
        _submatrix_factory,
        20,
        model=dict(n_rows=200, n_cols=200, amplitudes=[8.0, -8.0], block_rows=40, block_cols=40),
    ),
    "resolvent": _Scenario(
        "linearization resolvent probes",
        _resolvent_factory,
        30,
        model=dict(n_rows=60, n_cols=40),
    ),
    "selftest": _Scenario("deterministic invariant checks", _selftest_factory, 1),
}


class TrialFailure(RuntimeError):
    """An exception raised inside one trial, with the trial's index and seed.

    Trial i draws only from derive_seed(base_seed, i), and derive_seed(s, 0)
    is s, so ``--trials 1 --seed <seed>`` replays the failing trial. cause
    holds the trial's exception as ``TypeName: message``, which, unlike
    ``__cause__``, survives pickling.
    """

    def __init__(self, index: int, seed: int, cause: str = ""):
        super().__init__(f"trial {index} (seed {seed})")
        self.index = index
        self.seed = seed
        self.cause = cause

    def __reduce__(self):
        # the default rebuilds from args, the message alone
        return type(self), (self.index, self.seed, self.cause)


def run_monte_carlo(cfg: ExperimentConfig) -> SummaryReport:
    """Run cfg.trials seeded trials and aggregate per-theorem rows.

    Each scenario factory returns its trial function, which takes the trial
    seed. A ValueError, TypeError or ArithmeticError while the scenario is
    built (a malformed model value or theorem token, or a model value whose
    constants overflow) is re-raised as InvalidParameterError, and
    so is a model key the scenario never reads. An exception inside trial i
    is re-raised as TrialFailure, chained to it. Trials run on
    min(threads, trials, CPU count) threads; one runs them in order.
    """
    start = time.perf_counter()
    model = _ModelKeys(cfg.model)
    try:
        run_trial = _SCENARIOS[cfg.scenario].factory(replace(cfg, model=model))
    except np.linalg.LinAlgError:
        raise
    except (ValueError, TypeError, ArithmeticError) as exc:
        # every model value and theorem token is checked here, before trial 0
        raise InvalidParameterError(str(exc)) from exc
    unread = set(model) - model.read
    if unread:
        raise InvalidParameterError(f"model keys {cfg.scenario} never reads: {sorted(unread)}")

    def trial(i: int) -> list[BoundReport]:
        seed = derive_seed(cfg.base_seed, i)
        try:
            return run_trial(seed)
        except Exception as exc:
            raise TrialFailure(i, seed, f"{type(exc).__name__}: {exc}") from exc

    indices = range(cfg.trials)
    workers = min(cfg.threads, cfg.trials, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(trial, indices))
    else:
        per_trial = [trial(i) for i in indices]
    rows, exceeded, notes = _aggregate(per_trial)
    return SummaryReport(
        rows=rows,
        config=cfg.echo(),
        version=__version__,
        wall_time_s=time.perf_counter() - start,
        exceeded=exceeded,
        notes=notes,
    )


def _aggregate(per_trial: list[list[BoundReport]]):
    """The rows by theorem id, the ids whose violation rate exceeds their
    budget, and one note per reason naming the rows that counted no trial."""
    acc: dict[str, dict] = {}
    for reports in per_trial:
        for rep in reports:
            a = acc.get(rep.theorem_id)
            if a is None:
                a = acc[rep.theorem_id] = dict(
                    trials=0, valid=0, violations=0, ratios=[], budget=0.0, excluded=set()
                )
            a["trials"] += 1
            if rep.preconditions.all_ok and rep.violated is not None:
                a["valid"] += 1
                if rep.violated:
                    a["violations"] += 1
                if rep.ratio is not None:
                    a["ratios"].append(rep.ratio)
                a["budget"] = max(a["budget"], 1.0 - rep.probability_floor)
            else:  # the distinct flags of the trials the row does not count
                a["excluded"].add(rep.preconditions)
    rows, exceeded = [], []
    unjudged: dict[str, list[str]] = {}  # the rows that counted no trial, by why
    for tid in sorted(acc):
        a = acc[tid]
        valid = a["valid"]
        rate = (a["violations"] / valid) if valid else None
        quantiles = _ratio_quantiles(a["ratios"]) if a["ratios"] else [None] * 3
        cells = (tid, a["trials"], valid, a["violations"], rate, *quantiles)
        rows.append(dict(zip(_CSV_COLUMNS, cells)))
        if valid:
            budget = a["budget"]
            margin = 3.0 * np.sqrt(budget * (1.0 - budget) / valid)
            if rate > budget + margin:
                exceeded.append(tid)
        else:  # each hypothesis an excluded trial failed, then whether one measured nothing
            out = a["excluded"]
            why = [f.name for f in fields(ALL_OK) if not all(getattr(x, f.name) for x in out)]
            why += ["no measured value"] * (ALL_OK in out)
            unjudged.setdefault(", ".join(why), []).append(tid)
    notes = [
        f"no valid trial in rows {', '.join(ids)} (failed: {why})" for why, ids in unjudged.items()
    ]
    return rows, exceeded, notes


_RATIO_QUANTILES = (0.5, 0.9, 0.99)


def _ratio_quantiles(ratios: list[float]) -> list[float]:
    """The 0.5, 0.9 and 0.99 linear-interpolation quantiles of the ratios.

    A fail-closed report carries ratio +inf, and numpy interpolates next to
    an infinite value to NaN. Here a quantile whose interpolation touches a
    +inf ratio is +inf, and every other one is numpy's value.
    """
    r = np.sort(np.asarray(ratios, dtype=float))
    finite = r.size - int(np.count_nonzero(np.isposinf(r)))
    if finite == 0:
        return [float("inf")] * len(_RATIO_QUANTILES)
    r[finite:] = r[finite - 1]
    qs = np.quantile(r, _RATIO_QUANTILES)
    touched = np.ceil((r.size - 1) * np.asarray(_RATIO_QUANTILES))
    return [float(q) if t < finite else float("inf") for q, t in zip(qs, touched)]


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _json_safe(v):
    if isinstance(v, float) and not np.isfinite(v):
        return str(v)
    return v


def emit_report(summary: SummaryReport, fmt: str = "csv") -> str:
    """Render the summary; identical input produces identical bytes.

    Wall time is intentionally not serialized.
    """
    if fmt == "csv":
        lines = [",".join(_CSV_COLUMNS)]
        for row in summary.rows:
            lines.append(",".join(_cell(row[c]) for c in _CSV_COLUMNS))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "version": summary.version,
            "config": summary.config,
            "rows": [
                {k: _json_safe(v) for k, v in row.items()} for row in summary.rows
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    raise InvalidParameterError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# CLI


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the command line; ``main`` builds one per process."""
    parser = argparse.ArgumentParser(
        prog="svperturb",
        description="Seeded Monte Carlo verification of matrix perturbation bounds",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, scenario in _SCENARIOS.items():
        sp = sub.add_parser(name, help=scenario.help, description=scenario.help)
        sp.add_argument("--config", help="JSON config file (flags override it)")
        sp.add_argument("--trials", type=int)
        sp.add_argument("--seed", type=int, dest="base_seed", help="base seed")
        sp.add_argument("--out", dest="output", help="output path (stdout when omitted)")
        sp.add_argument("--format", choices=list(_FORMATS))
        sp.add_argument("--threads", type=int)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    # every flag given but --config sets the config field its dest names
    flags = {key: value for key, value in vars(args).items() if value is not None}
    path = flags.pop("config", None)
    start = _SCENARIOS[args.scenario]
    data: dict = {"trials": start.trials, "theorems": start.theorems, "model": start.model}
    if path:
        loaded = json.loads(Path(path).read_text())
        if not isinstance(loaded, dict):
            raise InvalidParameterError("config file must hold a JSON object")
        if "scenario" in loaded and loaded["scenario"] != args.scenario:
            raise InvalidParameterError(
                f"config scenario {loaded['scenario']!r} does not match {args.scenario!r}"
            )
        data.update(loaded)
    return ExperimentConfig.from_dict(data | flags)


_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        cfg = _config_from_args(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        summary = run_monte_carlo(cfg)
        text = emit_report(summary, cfg.format)
        if cfg.output:
            Path(cfg.output).write_text(text)
        else:
            sys.stdout.write(text)
    except TrialFailure as exc:
        print(f"error: runtime failure in {exc}: {exc.cause}", file=sys.stderr)
        return EXIT_RUNTIME
    except (InvalidParameterError, InvalidInputError) as exc:
        # model and theorem-token validation happens when the scenario is built
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailureError, np.linalg.LinAlgError, OSError) as exc:
        print(f"error: runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for note in summary.notes:
        print(f"note: {note}", file=sys.stderr)
    if summary.exceeded:
        print(
            "violation budget exceeded: " + ", ".join(summary.exceeded),
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def cli() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli()
