"""Perturbation-bound evaluators and their empirical counterparts.

Each evaluator returns a BoundReport pairing the theorem's right-hand side
with a measured left-hand side, read from the instance or passed as
empirical. Preconditions are always computed, never assumed; when they fail
the report says so and claims no probability.
Singular-value positions (k, s, j) are 1-based, matching the usual math
indexing. Asymptotic statements with unspecified constants are evaluated
with constant 1 and claim probability 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    EvaluationDomainError,
    InvalidInputError,
    InvalidParameterError,
)
from .matcore import NormSpec, gauge, require_norm
from .models import PerturbationInstance, check_spectrum
from .resolvent import margin_offsets, min_abs_z
from .subspace import _residual, row_mass

VIOLATION_SLACK = 1e-9

_SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class PreconditionFlags:
    """Checked hypotheses: ambient dimension, signal-to-noise, spectral gap."""

    dim_ok: bool
    snr_ok: bool
    gap_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.dim_ok and self.snr_ok and self.gap_ok


ALL_OK = PreconditionFlags(True, True, True)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound; ratio and violated derive from the values.

    violated compares empirical against bound with a 1e-9 relative slack and
    stays None when no empirical value is attached. It fails closed: a NaN
    or infinite empirical value, or a NaN bound, is a violation, never a
    pass, and its ratio is +inf, so ratio quantiles rank it worst. Against
    a bound <= 0 (or -inf) the ratio is +inf for a violation or a positive
    empirical value and 0 otherwise, so a violation never ranks below 1. A
    bound of +inf appears only on precondition-not-met rows, whose empirical
    value is None.
    """

    theorem_id: str
    bound_value: float
    probability_floor: float
    preconditions: PreconditionFlags
    empirical_value: float | None = None
    ratio: float | None = field(init=False)
    violated: bool | None = field(init=False)

    def __post_init__(self):
        put = object.__setattr__  # the dataclass is frozen
        b = float(self.bound_value)
        e = None if self.empirical_value is None else float(self.empirical_value)
        put(self, "bound_value", b)
        put(self, "probability_floor", float(self.probability_floor))
        put(self, "empirical_value", e)
        put(self, "ratio", None if e is None else _ratio(e, b))
        put(self, "violated", None if e is None else _violates(e, b))

    @classmethod
    def build(cls, *args, **kwargs) -> "BoundReport":
        return cls(*args, **kwargs)


def _fails_closed(empirical: float, bound: float) -> bool:
    return not np.isfinite(empirical) or np.isnan(bound)


def _violates(empirical: float, bound: float) -> bool:
    if _fails_closed(empirical, bound):
        return True
    return bool(empirical > bound + VIOLATION_SLACK * max(1.0, bound))


def _ratio(empirical: float, bound: float) -> float:
    # a fail-closed comparison ranks as the worst possible ratio
    if _fails_closed(empirical, bound):
        return float("inf")
    if bound > 0:
        return float(empirical / bound) if np.isfinite(bound) else 0.0
    return float("inf") if empirical > 0 or _violates(empirical, bound) else 0.0


def dim_snr_flags(
    n_rows: int, n_cols: int, rank: int, tail: float, sigma_min: float | None = None
) -> tuple[bool, bool | None]:
    """(dim_ok, snr_ok): the dimension and signal-strength hypotheses on an
    N x n rank-r model. snr_ok is None without sigma_min; the Gaussian
    bounds test r0 instead."""
    root = np.sqrt(n_rows) + np.sqrt(n_cols)
    logsum = np.log(n_rows + n_cols)
    dim_ok = bool(root**2 >= 32.0 * (tail + 7.0) * logsum + 64.0 * np.log(9.0) * rank)
    if sigma_min is None:
        return dim_ok, None
    snr_ok = bool(
        sigma_min
        >= 40.0 * root
        + 3.8e4 * rank * np.sqrt(2.0 * np.log(9.0) * rank + (tail + 7.0) * logsum)
    )
    return dim_ok, snr_ok


def check_tail(tail: float) -> float:
    """The tail rule of every failure budget: (N+n)^-tail must decay."""
    if not tail > 0:
        raise InvalidParameterError("tail exponent must be positive")
    return tail


def probability_floor(count: float, n_rows: int, n_cols: int, tail: float, holds: bool) -> float:
    """1 - count (N+n)^-tail, the failure budget clipped into [0, 1], when
    every precondition of the statement holds; 0 otherwise."""
    if not holds:
        return 0.0
    budget = count * float(n_rows + n_cols) ** (-tail)
    return 1.0 - float(min(1.0, max(0.0, budget)))


def _over_gap(value: float, gap: float) -> float:
    """value / gap; +inf at a zero gap (tied singular values), never NaN."""
    return float(value) / gap if gap > 0 else np.inf


@dataclass(frozen=True)
class GaussianBoundParams:
    """Deterministic inputs of the Gaussian-noise bounds.

    singulars is the full signal spectrum (positive, descending, length r).
    [k_lo, k_hi] selects the singular-vector window, margin is the spectral
    margin parameter (>= 2), tail the polynomial tail exponent (> 0: failure
    probabilities decay like (N+n)^-tail).
    """

    n_rows: int
    n_cols: int
    singulars: tuple[float, ...]
    k_lo: int
    k_hi: int
    margin: float = 2.0
    tail: float = 1.0

    def __post_init__(self):
        singulars = check_spectrum(self.n_rows, self.n_cols, self.singulars)
        object.__setattr__(self, "singulars", singulars)
        if not (1 <= self.k_lo <= self.k_hi <= self.rank):
            raise InvalidParameterError(
                f"need 1 <= k_lo <= k_hi <= rank, got [{self.k_lo}, {self.k_hi}], r={self.rank}"
            )
        if not self.margin >= 2.0:  # NaN fails too
            raise InvalidParameterError("margin must be at least 2")
        check_tail(self.tail)

    @property
    def rank(self) -> int:
        return len(self.singulars)

    @property
    def window(self) -> int:
        return self.k_hi - self.k_lo + 1

    def delta(self, i: int) -> float:
        """Gap below position i: delta(0) = inf, delta(r) = smallest singular."""
        if i < 0 or i > self.rank:
            raise InvalidParameterError(f"gap index {i} out of range")
        if i == 0:
            return np.inf
        if i == self.rank:
            return self.singulars[-1]
        return self.singulars[i - 1] - self.singulars[i]

    @cached_property
    def min_gap(self) -> float:
        return min(self.delta(self.k_lo - 1), self.delta(self.k_hi))

    @cached_property
    def full_window(self) -> "GaussianBoundParams":
        """These params on the full window [1, rank], the corollaries' window."""
        return replace(self, k_lo=1, k_hi=self.rank)

    @cached_property
    def window_lead(self) -> float:
        """3 sqrt(2) (b+1)^2 / (b-1)^2 [window != rank], the leading constant of
        the windowed statements."""
        b = self.margin
        off_full = 0.0 if self.window == self.rank else 1.0
        return 3.0 * _SQRT2 * ((b + 1.0) ** 2 / (b - 1.0) ** 2) * off_full

    @cached_property
    def tail_factor(self) -> float:
        """2 sqrt(2) b^2 / (b-1)^2, the constant of the spectrum-tail terms."""
        b = self.margin
        return 2.0 * _SQRT2 * b**2 / (b - 1.0) ** 2

    @cached_property
    def dim_sum_log(self) -> float:
        return float(np.log(self.n_rows + self.n_cols))

    @cached_property
    def eta(self) -> float:
        b = self.margin
        return float(
            11.0
            * b**2
            / (b - 1.0) ** 2
            * np.sqrt(2.0 * np.log(9.0) * self.rank + (self.tail + 7.0) * self.dim_sum_log)
        )

    @cached_property
    def gamma(self) -> float:
        b = self.margin
        return float(
            9.0
            * b**2
            / (b - 1.0) ** 2
            * np.sqrt(self.rank * (self.tail + 7.0) * self.dim_sum_log)
        )

    @cached_property
    def chi(self) -> float:
        return 1.0 + margin_offsets(self.margin)[0]

    @cached_property
    def xi(self) -> float:
        return 1.0 + margin_offsets(self.margin)[1]

    @cached_property
    def base_radius(self) -> float:
        return min_abs_z(self.n_rows, self.n_cols, self.margin)

    @cached_property
    def k0(self) -> int:
        return min(self.k_lo, self.rank - self.k_lo)

    @cached_property
    def r0(self) -> int | None:
        """Largest index in [k_hi, rank] whose singular value clears the noise
        floor and whose gap clears the window threshold; None if none does."""
        snr_floor = self.base_radius + 80.0 * self.margin * self.eta * self.rank
        gap_floor = 75.0 * self.chi * self.eta * self.rank
        for j in range(self.rank, self.k_hi - 1, -1):
            if self.singulars[j - 1] >= snr_floor and self.delta(j) >= gap_floor:
                return j
        return None

    @cached_property
    def preconditions(self) -> PreconditionFlags:
        dim_ok, _ = dim_snr_flags(self.n_rows, self.n_cols, self.rank, self.tail)
        gap_ok = bool(self.min_gap >= 75.0 * self.chi * self.eta * self.rank)
        return PreconditionFlags(dim_ok=dim_ok, snr_ok=self.r0 is not None, gap_ok=gap_ok)

    @cached_property
    def directional_preconditions(self) -> PreconditionFlags:
        """The preconditions of the directional (linear and bilinear) statements:
        the window's, with their own hypothesis sigma_1 <= n_cols^2 in snr_ok."""
        flags = self.preconditions
        snr_ok = flags.snr_ok and self.singulars[0] <= float(self.n_cols) ** 2
        return replace(flags, snr_ok=snr_ok)

    def probability_floor(self, count: float, holds: bool = True) -> float:
        """probability_floor on this model, holding when the preconditions
        and the statement's own hypothesis `holds` do."""
        return probability_floor(
            count, self.n_rows, self.n_cols, self.tail, self.preconditions.all_ok and holds
        )


@dataclass(frozen=True)
class GeneralNoiseParams:
    """Deterministic noise functionals for the distribution-free bounds.

    op_bound caps the noise operator norm, core_bound the r x r projected
    core, corner_bound the k x k leading corner. They are measured
    (realized) values, so the bounds built on them hold with probability 1.
    """

    op_bound: float
    core_bound: float
    corner_bound: float

    def __post_init__(self):
        if self.op_bound < 0 or self.core_bound < 0 or self.corner_bound < 0:
            raise InvalidParameterError("noise caps must be nonnegative")


def _checked_row_mass(u_2inf: float) -> float:
    """u_2inf, the largest row length of an orthonormal signal factor (see
    subspace.row_mass), checked to lie in [0, 1]."""
    if not 0.0 <= u_2inf <= 1.0 + 1e-8:
        raise InvalidInputError(f"row-mass value {u_2inf} outside [0, 1]")
    return u_2inf


def _window_cols(inst: PerturbationInstance, k_lo: int, k_hi: int) -> slice:
    """The columns of a window of signal vector pairs, which the observed
    factors always hold too."""
    r = inst.rank()
    if not (1 <= k_lo <= k_hi <= r):
        raise InvalidParameterError(f"window [{k_lo}, {k_hi}] out of range (rank {r})")
    return slice(k_lo - 1, k_hi)


def sv_rounding(inst: PerturbationInstance) -> float:
    """min(N, n) eps sigma~_1, the error bound of a computed singular value (a
    backward-stable SVD, then Weyl): sigma_k - sigma~_k cancels to a few ulps of
    sigma_1, 1.2e-4 each at sigma_1 = 1e12, past the slack on a noise-sized bound."""
    return min(inst.shape) * np.finfo(float).eps * float(inst.svd_observed.singulars[0])


def mirsky_check(inst: PerturbationInstance, spec: NormSpec) -> BoundReport:
    """Invariant norm of the singular-value displacement vs the same norm of
    the noise. Deterministic; holds for every draw.

    Under the operator norm only the noise norm and the (r+1)-th observed
    value are read, never the two whole spectra: each displacement past r is
    an observed value, and the largest of those is the (r+1)-th. The bound
    adds the norm of sv_rounding in each entry, the most rounding adds.
    """
    m = min(inst.shape)
    require_norm(spec, m)
    sig = inst.svd_signal.singulars
    if spec.kind == "operator":
        bound = inst.noise_top.value
        held = inst.svd_observed.singulars[: sig.size]
        empirical = max(float(np.max(np.abs(sig - held))), inst.observed_next)
    else:
        bound = gauge(inst.noise_spectrum, spec)
        # thin signal factors hold only the r nonzero values
        diff = np.concatenate((sig, np.zeros(m - sig.size))) - inst.observed_spectrum
        empirical = gauge(diff, spec)
    bound += gauge(np.full(m, sv_rounding(inst)), spec)
    return BoundReport.build(f"mirsky:{spec.label}", bound, 1.0, ALL_OK, empirical)


def wedin_check(inst: PerturbationInstance, k: int, spec: NormSpec) -> BoundReport:
    """Classical sin-theta bound with the observed-gap denominator.

    Requires the observed gap sigma_k(signal) - sigma_{k+1}(observed) > 0;
    otherwise reports precondition-not-met. At k = r the next observed value
    is the instance's observed_next, the one mirsky_check reads.
    """
    require_norm(spec, min(inst.shape))
    r = inst.rank()
    if not 1 <= k <= r:
        raise InvalidParameterError(f"k={k} outside 1..rank={r}")
    sigma_k = inst.svd_signal.singulars[k - 1]
    next_observed = inst.svd_observed.singulars[k] if k < r else inst.observed_next
    gap_hat = float(sigma_k - next_observed)
    theorem_id = f"wedin:k{k}:{spec.label}"
    if gap_hat <= 0.0:
        return BoundReport.build(theorem_id, np.inf, 0.0, PreconditionFlags(True, True, False))
    numerator = max(gauge(vals, spec) for vals in inst.cross_spectra(k, 1, k))
    return BoundReport.build(
        theorem_id, numerator / gap_hat, 1.0, ALL_OK, window_sin_theta(inst, 1, k, spec)
    )


def cross_term_norm(inst: PerturbationInstance, k_lo: int, k_hi: int, spec: NormSpec) -> float:
    """Invariant norm of the direct sum of the two noise cross terms.

    Blocks are the noise compressed between the full signal complement and
    the observed window on each side; the direct-sum norm is the gauge of
    the concatenated singular values (``PerturbationInstance.cross_spectra``).
    """
    require_norm(spec, min(inst.shape))
    _window_cols(inst, k_lo, k_hi)
    return gauge(np.concatenate(inst.cross_spectra(inst.rank(), k_lo, k_hi)), spec)


def gauss_row_id(kind: str, arg: NormSpec | int | None = None) -> str:
    """The row id of the Gaussian statement `kind` at its token argument: the
    norm's label for gauss_sin_theta, j<index> for gauss_sv_location; a kind
    without an argument is its own id."""
    if arg is None:
        return kind
    return f"{kind}:{arg.label}" if isinstance(arg, NormSpec) else f"{kind}:j{arg}"


def _shape_report(theorem_id: str, p: GaussianBoundParams, value: float, empirical) -> BoundReport:
    """A constant-free asymptotic statement: constant 1, no probability."""
    return BoundReport.build(theorem_id, value, 0.0, p.preconditions, empirical)


def gauss_subspace_bound(
    p: GaussianBoundParams, spec: NormSpec, cross_norm: float, empirical=None
) -> BoundReport:
    """Quantitative Gaussian sin-theta bound for the window [k_lo, k_hi].

    spec selects the norm; the operator form carries constant 3 sqrt(2) and
    a window != rank indicator, any other invariant norm the general form
    with constant 6 sqrt(2) and the sqrt(min(window, rank - window)) factor.
    cross_norm is the measured noise cross term: the operator norm of the
    noise for the operator form, the direct-sum window norm otherwise.
    empirical is the measured window sin-theta.
    """
    require_norm(spec, min(p.n_rows, p.n_cols))
    if cross_norm is None or cross_norm < 0:
        raise InvalidParameterError("cross_norm must be a nonnegative measured value")
    b = p.margin
    w = p.window
    if spec.kind == "operator":
        lead = p.window_lead
    else:
        bfac = (b + 1.0) ** 2 / (b - 1.0) ** 2
        lead = 6.0 * _SQRT2 * bfac * np.sqrt(max(min(w, p.rank - w), 0))
    first = _over_gap(lead * p.eta * np.sqrt(w), p.min_gap)
    second = 2.0 * cross_norm / p.singulars[p.k_hi - 1]
    prob = p.probability_floor(20.0)
    return BoundReport.build(
        gauss_row_id("gauss_sin_theta", spec), first + second, prob, p.preconditions, empirical
    )


def gauss_subspace_simplified(p: GaussianBoundParams, e_norm: float, empirical=None) -> BoundReport:
    """Asymptotic corollary shape for the top-k_lo window [1, k_lo].

    Constant-free statement: evaluated with constant 1, claiming probability
    0; never used as a pass/fail gate.
    """
    kk = p.k_lo
    shape = (
        _over_gap(np.sqrt(kk * p.k0) * np.sqrt(p.rank + p.dim_sum_log), p.delta(kk))
        + kk * e_norm / p.singulars[kk - 1]
    )
    return _shape_report("gauss_sin_theta_simplified", p, shape, empirical)


def gauss_sv_location_check(
    inst: PerturbationInstance, p: GaussianBoundParams, j: int, phi_at
) -> BoundReport:
    """Observed-value location event for index j in the window.

    Checks that some window index j0 admits the observed value in its
    location strip and that the resolvent trace function maps the observed
    value near that index's squared signal value. phi_at(z) must return the
    real trace product; it may raise EvaluationDomainError when z falls
    inside the noise spectrum, which is reported as precondition-not-met.
    """
    if not p.k_lo <= j <= p.k_hi:
        raise InvalidParameterError(f"j={j} outside the window [{p.k_lo}, {p.k_hi}]")
    observed = float(inst.svd_observed.singulars[j - 1])
    flags = p.preconditions
    prob = p.probability_floor(10.0)
    theorem_id = gauss_row_id("gauss_sv_location", j)
    try:
        phi_val = float(phi_at(observed))
    except EvaluationDomainError:
        return BoundReport.build(theorem_id, np.inf, 0.0, flags)
    strip = 20.0 * p.chi * p.eta * p.rank
    candidates = range(p.k_lo, p.k_hi + 1)
    residuals = {j0: abs(phi_val - p.singulars[j0 - 1] ** 2) for j0 in candidates}
    admissible = [
        j0
        for j0 in candidates
        if p.singulars[j0 - 1] - strip <= observed <= p.chi * p.singulars[j0 - 1] + strip
    ]
    pool = admissible if admissible else list(candidates)
    j_star = min(pool, key=lambda j0: (residuals[j0], j0))
    threshold = (
        20.0 * p.xi * p.chi * p.eta * p.rank * (observed + p.chi * p.singulars[j_star - 1])
    )
    # an observed value in no strip fails closed, whatever its residual
    value = residuals[j_star] if admissible else np.inf
    return BoundReport.build(theorem_id, threshold, prob, flags, value)


def general_sv_bounds(
    inst: PerturbationInstance, k: int, gp: GeneralNoiseParams
) -> tuple[BoundReport, BoundReport]:
    """Distribution-free displacement bounds for the k-th singular value.

    Lower: the signal value drops by at most the corner cap. Upper: the
    observed value exceeds the signal value by at most the second-order
    correction plus the core cap.

    The lower bound adds sv_rounding, the error bound of a computed
    singular value: the relative slack on a corner cap near 1 does not cover
    sigma_k - sigma~_k's rounding at sigma_1.
    """
    r = inst.rank()
    if not 1 <= k <= r:
        raise InvalidParameterError(f"k={k} outside 1..rank={r}")
    sigma_k = float(inst.svd_signal.singulars[k - 1])
    held = inst.svd_observed.singulars
    observed_k = float(held[k - 1])
    rounding = sv_rounding(inst)
    prob = 1.0
    lower = BoundReport.build(
        f"general_sv_lower:k{k}", gp.corner_bound + rounding, prob, ALL_OK, sigma_k - observed_k
    )
    if observed_k <= 0.0:
        upper = BoundReport.build(
            f"general_sv_upper:k{k}", np.inf, 0.0, PreconditionFlags(True, False, True)
        )
        return lower, upper
    b_cap = gp.op_bound
    upper_value = (
        sigma_k
        + 2.0 * np.sqrt(k) * b_cap**2 / observed_k
        + k * b_cap**3 / observed_k**2
        + gp.core_bound
    )
    upper = BoundReport.build(
        f"general_sv_upper:k{k}", upper_value, prob, ALL_OK, observed_k
    )
    return lower, upper


def general_subspace_bound(
    k: int,
    r: int,
    delta_k: float,
    sigma_k: float,
    gp: GeneralNoiseParams,
    spec: NormSpec,
    empirical=None,
) -> BoundReport:
    """Distribution-free sin-theta bound for the top-k window.

    Requires the gap to dominate twice the core cap; otherwise the report
    says precondition-not-met. empirical is the measured top-k sin-theta.
    """
    if not 1 <= k <= r:
        raise InvalidParameterError(f"k={k} outside 1..r={r}")
    if delta_k < 0 or sigma_k <= 0:
        raise InvalidParameterError("delta_k must be nonnegative and sigma_k positive")
    gap_ok = bool(delta_k >= 2.0 * gp.core_bound)
    flags = PreconditionFlags(True, True, gap_ok)
    core = _over_gap(gp.core_bound, delta_k) + _over_gap(2.0 * gp.op_bound**2, delta_k * sigma_k)
    if spec.kind == "operator":
        first = 2.0 * np.sqrt(k) * core * (1.0 if k < r else 0.0)
        second = 2.0 * gp.op_bound / sigma_k
    else:
        first = 2.0 * np.sqrt(k * min(k, r - k)) * core
        second = 2.0 * k * gp.op_bound / sigma_k
    prob = 1.0 if gap_ok else 0.0
    return BoundReport.build(
        f"general_sin_theta:k{k}:{spec.label}", first + second, prob, flags, empirical
    )


def _row_shape(p: GaussianBoundParams, u: float, scale: float, gap: float) -> float:
    """scale * (sqrt(r + log(N+n)) u / gap + sqrt(r log(N+n)) (1 + u) / sigma_{k_lo}),
    the asymptotic row-wise shape of the leading window."""
    r, lnsum = p.rank, p.dim_sum_log
    sigma_k = p.singulars[p.k_lo - 1]
    near = _over_gap(scale * np.sqrt(r + lnsum), gap) * u
    return near + scale * np.sqrt(r * lnsum) / sigma_k * (1.0 + u)


def vector_inf_bound(p: GaussianBoundParams, u_2inf: float, empirical=None) -> BoundReport:
    """Asymptotic l-inf shape for the k_lo-th left singular vector."""
    gap = min(p.delta(p.k_lo - 1), p.delta(p.k_lo))
    shape = _row_shape(p, _checked_row_mass(u_2inf), 1.0, gap)
    return _shape_report("gauss_vector_inf", p, shape, empirical)


def matrix_2inf_bound(p: GaussianBoundParams, u_2inf: float, empirical=None) -> BoundReport:
    """Asymptotic l2,inf shape for the window [1, k_lo]."""
    shape = _row_shape(p, _checked_row_mass(u_2inf), np.sqrt(p.k_lo), p.delta(p.k_lo))
    return _shape_report("gauss_matrix_2inf", p, shape, empirical)


def aligned_2inf_bound(
    p: GaussianBoundParams, u_2inf: float, e_norm: float, window_u_2inf: float, empirical=None
) -> BoundReport:
    """matrix_2inf_bound plus the alignment remainder e_norm^2 / sigma_{k_lo}^2
    times the row mass window_u_2inf of the signal window [1, k_lo]."""
    shape = _row_shape(p, _checked_row_mass(u_2inf), np.sqrt(p.k_lo), p.delta(p.k_lo))
    remainder = e_norm**2 / p.singulars[p.k_lo - 1] ** 2 * _checked_row_mass(window_u_2inf)
    return _shape_report("gauss_2inf_aligned", p, shape + remainder, empirical)


def two_inf_bound(p: GaussianBoundParams, u_2inf: float, empirical=None) -> BoundReport:
    """Explicit-constant l2,inf bound for the window [k_lo, k_hi]. Indices
    whose signal value exceeds (column count)^2 enter the wide-tail sum.
    u_2inf is the largest row length of the signal's left factor."""
    u = _checked_row_mass(u_2inf)
    first = _over_gap(p.window_lead * u * p.eta * np.sqrt(p.window), p.min_gap)
    col_cut = float(p.n_cols) ** 2
    acc = 0.0
    tail_acc = 0.0
    for i in range(p.k_lo, p.k_hi + 1):
        si = p.singulars[i - 1]
        if si <= col_cut:
            acc += p.gamma**2 / si**2
        else:
            tail_acc += 16.0 * p.n_cols / si**2
    second = p.tail_factor * (1.0 + u) * np.sqrt(acc + tail_acc)
    prob = p.probability_floor(40.0)
    return BoundReport.build("gauss_2inf", first + second, prob, p.preconditions, empirical)


def linear_bilinear_bound(
    p: GaussianBoundParams, x_signal_norm: float, y, empirical=None
) -> tuple[BoundReport, BoundReport]:
    """Directional residual bounds for the window [k_lo, k_hi].

    x_signal_norm is the measured length of the probe direction projected
    on the full signal left factor. y is the window-side unit direction of
    the bilinear form (length = window). Both statements require the top
    signal value to stay below (column count)^2, which their flags report as
    snr_ok (see directional_preconditions). empirical is the measured
    (linear, bilinear) pair.
    """
    if x_signal_norm < 0:
        raise InvalidParameterError("x_signal_norm must be nonnegative")
    y = np.asarray(y, dtype=float).ravel()
    w = p.window
    if y.shape[0] != w:
        raise InvalidParameterError(f"y must have window length {w}, got {y.shape[0]}")
    flags = p.directional_preconditions
    prob = p.probability_floor(40.0, flags.all_ok)
    lead = _over_gap(p.window_lead * x_signal_norm * p.eta, p.min_gap)
    tail_coef = p.tail_factor * p.gamma * (1.0 + x_signal_norm)
    sig = np.asarray(p.singulars[p.k_lo - 1 : p.k_hi])
    linear_val = lead * np.sqrt(w) + tail_coef * np.sqrt(np.sum(1.0 / sig**2))
    y_support = int(np.count_nonzero(y))
    bilinear_val = lead * np.sqrt(y_support) + tail_coef * float(np.sum(np.abs(y) / sig))
    lin_emp, bil_emp = empirical or (None, None)
    linear = BoundReport.build("gauss_linear", linear_val, prob, flags, lin_emp)
    bilinear = BoundReport.build("gauss_bilinear", bilinear_val, prob, flags, bil_emp)
    return linear, bilinear


def weighted_window_bound(p: GaussianBoundParams, u_2inf: float, empirical=None) -> BoundReport:
    """Row-wise bound on the observed-value weighted window [k_lo, k_hi]."""
    u = _checked_row_mass(u_2inf)
    w = p.window
    first = _over_gap(p.window_lead * u * p.eta * p.singulars[p.k_lo - 1] * np.sqrt(w), p.min_gap)
    second = p.tail_factor * (1.0 + u) * np.sqrt(p.gamma**2 * w + 16.0)
    prob = p.probability_floor(40.0)
    return BoundReport.build("gauss_weighted", first + second, prob, p.preconditions, empirical)


def weighted_corollary_bound(
    p: GaussianBoundParams, u_2inf: float, e_norm: float, empirical=None
) -> BoundReport:
    """Aligned corollary of the weighted bound on the full window [1, rank],
    with the measured noise operator norm e_norm."""
    if p.k_lo != 1 or p.k_hi != p.rank:
        raise InvalidParameterError("the corollary needs the full window [1, rank]")
    u = _checked_row_mass(u_2inf)
    b = p.margin
    flags = p.preconditions
    scale = 36.0 * b**4 / (b - 1.0) ** 4 * p.rank * np.sqrt((p.tail + 7.0) * p.dim_sum_log)
    first = scale * (1.0 + u)
    second = 2.0 * u * e_norm**2 / p.singulars[-1]
    prob = p.probability_floor(40.0)
    return BoundReport.build("gauss_weighted_corollary", first + second, prob, flags, empirical)


def spectral_norm_report(e_norm: float | None, n_rows: int, n_cols: int) -> BoundReport:
    """Event ||E|| <= 2 (sqrt(N) + sqrt(n)) of unit Gaussian noise; e_norm None: bound and floor."""
    root_sum = np.sqrt(n_rows) + np.sqrt(n_cols)
    prob = 1.0 - 2.0 * float(np.exp(-(root_sum**2) / 2.0))
    return BoundReport.build("spectral_norm_event", 2.0 * root_sum, max(prob, 0.0), ALL_OK, e_norm)


# Measured left-hand sides on the window [k_lo, k_hi] of held vector pairs.


def window_sin_theta(inst: PerturbationInstance, k_lo: int, k_hi: int, spec: NormSpec) -> float:
    """The larger of the left and right sin-theta norms of the window, from
    the instance's kept spectra: ``max`` of the two ``sin_theta_norm`` values."""
    _window_cols(inst, k_lo, k_hi)
    return max(gauge(values, spec) for values in inst.sin_theta_spectra(k_lo, k_hi))


def window_residual(
    inst: PerturbationInstance, k_lo: int, k_hi: int, aligned: bool = False
) -> np.ndarray:
    """subspace.residual of the observed left window on the signal left
    window, whose bases the instance checked when it was built."""
    w = _window_cols(inst, k_lo, k_hi)
    return _residual(inst.svd_signal.left[:, w], inst.svd_observed.left[:, w], aligned)


def window_2inf_residual(
    inst: PerturbationInstance, k_lo: int, k_hi: int, aligned: bool = False
) -> float:
    """Largest row length of window_residual."""
    return row_mass(window_residual(inst, k_lo, k_hi, aligned))


def window_weighted_residual(
    inst: PerturbationInstance, k_lo: int, k_hi: int, aligned: bool = False
) -> float:
    """window_2inf_residual with the residual's columns scaled by the observed
    window singular values."""
    weights = inst.svd_observed.singulars[k_lo - 1 : k_hi]
    return row_mass(window_residual(inst, k_lo, k_hi, aligned) * weights)
