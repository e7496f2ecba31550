"""Release gate: every bound, identity and recovery guarantee the package
ships is exercised here at full strength, one test per guarantee.

Each test prints one "[gate] name: PASS/FAIL" line with the measured
frequencies. Probabilistic gates compare the violation rate against the
stated failure budget plus three binomial standard errors; deterministic
gates demand zero violations at 1e-9 slack.

The gates on the bounds and submatrix scenarios are ``run_monte_carlo``
configs, the driver an ``svperturb`` run executes: they read the report's
rows (trials, valid, violations, ratio_p99) by theorem id, so a slip in a
shipped row or in the driver fails here. Every bounds gate is one GATES row:
a stream of STREAMS, run once per session and shared by its gates, and caps
taken from its rows' probability floors. A new bounds gate is one more row,
and a new stream one more STREAMS entry.
"""

import functools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from svperturb.bounds import (
    mirsky_check,
    spectral_norm_report,
    wedin_check,
)
from svperturb.clustering import (
    KMeansConfig,
    kmeans,
    match_labels,
    spectral_embedding,
)
from svperturb.harness import ExperimentConfig, run_monte_carlo
from svperturb.harness import main as harness_main
from svperturb.matcore import (
    FROBENIUS,
    NUCLEAR,
    OPERATOR,
    gram_spectrum,
    kyfan,
    singular_values,
)
from svperturb.models import (
    GmmSpec,
    LowRankSpec,
    SubmatrixSpec,
    haar_basis,
    low_rank_from_rng,
    perturb,
    sample_gmm,
)
from svperturb.resolvent import (
    dense_resolvent_bilinear,
    linearized_basis,
    local_law_bound,
    local_law_gap,
    min_abs_z,
    phi_values,
    resolvent_bilinear,
    uphiu_deviation,
)
from svperturb.seeding import derive_seed
from svperturb.subspace import (
    aligned_distance,
    principal_angles,
    residual,
    row_mass,
    sin_theta_norm,
)

SLACK = 1e-9
INVARIANT_NORMS = (OPERATOR, FROBENIUS, NUCLEAR, kyfan(3))

SMALL_SIGMA = (10.0, 8.0, 6.0, 4.0, 2.0)
SMALL_SPEC = LowRankSpec(n_rows=50, n_cols=50, singulars=SMALL_SIGMA)

HEAVY_SIGMA = (2.0e5, 1.2e5)
HEAVY_SEED = 0x5EED_0900
RANK3_SIGMA = (3.6e5, 2.4e5, 1.2e5)

GENERAL_SIGMA = (400.0, 300.0, 200.0, 100.0)

MIRSKY_SEED = 0x5EED_0001
WEDIN_SEED = 0x5EED_0002
SUBSPACE_SEED = 0x5EED_0003
GENERAL_SEED = 0x5EED_0007
RESOLVENT_SEED = 0x5EED_0008
LAW_SEED = 0x5EED_0018
SPECTRAL_SEED = 0x5EED_0009
GMM_SEED = 0x5EED_0010
SUBMATRIX_SEED = 0x5EED_0011
COHERENT_SEED = 777
RANK3_SEED = 778


def _gate(tag: str, info: str, **checks: bool) -> None:
    """Print the gate's one line, PASS when every named check holds, then
    assert the checks, naming each that fails."""
    failed = [name for name, ok in checks.items() if not ok]
    print(f"[gate] {tag}: {'FAIL' if failed else 'PASS'} ({info})", flush=True)
    assert not failed, f"{tag}: {', '.join(failed)} failed"


def _run(scenario: str, trials: int, base_seed: int, model: dict, theorems=()):
    """One run_monte_carlo config: the summary and its rows by theorem id."""
    cfg = ExperimentConfig(scenario, trials, base_seed, tuple(theorems), model)
    summary = run_monte_carlo(cfg)
    return summary, {row["theorem_id"]: row for row in summary.rows}


def _budget_cap(budget: float, trials: int) -> float:
    """The failure budget plus three binomial standard errors."""
    return budget + 3.0 * float(np.sqrt(budget * (1.0 - budget) / trials))


def _rate_cap(count: float, dims: int, tail: float, trials: int) -> float:
    return _budget_cap(min(1.0, count * float(dims) ** (-tail)), trials)


def _scaled_noise_instance(rng):
    """50 x 50 rank-5 draw with the noise norm uniform in [0.1 sigma_r, 2 sigma_1]."""
    fac = low_rank_from_rng(SMALL_SPEC, rng)
    e = rng.standard_normal((50, 50))
    target = rng.uniform(0.1 * SMALL_SIGMA[-1], 2.0 * SMALL_SIGMA[0])
    return perturb(fac, e * (target / singular_values(e)[0]))


def test_mirsky_displacement_bound():
    t0 = time.perf_counter()
    valid = bad = 0
    worst = 0.0
    for i in range(1000):
        rng = np.random.default_rng(derive_seed(MIRSKY_SEED, i))
        inst = _scaled_noise_instance(rng)
        for spec in INVARIANT_NORMS:
            rep = mirsky_check(inst, spec)
            valid += 1
            bad += bool(rep.violated)
            worst = max(worst, rep.ratio)
    wall = time.perf_counter() - t0
    _gate(
        "mirsky",
        f"{valid} checks, {bad} violations, worst ratio {worst:.4f}, {wall:.1f}s",
        no_violation=bad == 0,
        within_30s=wall < 30.0,
    )


def test_wedin_sin_theta_bound():
    valid = bad = skipped = 0
    for i in range(1000):
        rng = np.random.default_rng(derive_seed(WEDIN_SEED, i))
        inst = _scaled_noise_instance(rng)
        for k in range(1, 6):
            for spec in INVARIANT_NORMS:
                rep = wedin_check(inst, k, spec)
                if rep.violated is None:
                    skipped += 1
                else:
                    valid += 1
                    bad += bool(rep.violated)
    _gate(
        "wedin",
        f"{valid} checks with positive gap, {skipped} degenerate, {bad} violations",
        some_valid=valid > 0,
        no_violation=bad == 0,
    )


def test_subspace_identities():
    rng = np.random.default_rng(SUBSPACE_SEED)
    worst_cos = worst_spect = 0.0
    sandwich_bad = prop_bad = 0
    for _ in range(500):
        amb = int(rng.integers(8, 81))
        # keep dim below half the ambient so no angle is forced to zero,
        # where the arccos route loses digits
        d = int(rng.integers(1, min(20, (amb - 1) // 2) + 1))
        u = haar_basis(rng, amb, d)
        v = haar_basis(rng, amb, d)
        ang = principal_angles(u, v)

        prod_sv = singular_values((u @ u.T) @ (v @ v.T))[:d]
        worst_cos = max(
            worst_cos, float(np.max(np.abs(np.sort(prod_sv) - np.sort(np.cos(ang)))))
        )

        resid_o = residual(u, v, aligned=True)
        spect = singular_values(resid_o)
        expect = np.sort(2.0 * np.sin(ang / 2.0))[::-1]
        worst_spect = max(worst_spect, float(np.max(np.abs(spect - expect))))

        sin_f = sin_theta_norm(u, v, FROBENIUS)
        ali_f = aligned_distance(u, v, FROBENIUS)
        if ali_f < sin_f - SLACK or ali_f > np.sqrt(2.0) * sin_f + SLACK:
            sandwich_bad += 1

        # alignment-error inequalities: vector, bilinear and row-wise forms
        x = rng.standard_normal(amb)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(d)
        y /= np.linalg.norm(y)
        sin_sq = float(np.sin(ang[-1]) ** 2)
        xu = float(np.linalg.norm(x @ u))
        resid_p = residual(u, v)
        vec_ok = np.linalg.norm(x @ resid_o) <= np.linalg.norm(x @ resid_p) + xu * sin_sq + SLACK
        bil_ok = abs(x @ resid_o @ y) <= abs(x @ resid_p @ y) + xu * sin_sq + SLACK
        u_mass = row_mass(u)
        row_ok = row_mass(resid_o) <= row_mass(resid_p) + u_mass * sin_sq + SLACK
        if not (vec_ok and bil_ok and row_ok):
            prop_bad += 1
    _gate(
        "subspace-identities",
        f"500 pairs, cos dev {worst_cos:.2e}, residual dev {worst_spect:.2e}, "
        f"sandwich {sandwich_bad}, alignment ineq {prop_bad}",
        cosines=worst_cos <= SLACK,
        residual_spectrum=worst_spect <= SLACK,
        sandwich=sandwich_bad == 0,
        alignment=prop_bad == 0,
    )


# Each bounds stream the release gate reads: its seed, trial count, model and
# theorem tokens in run order, which is the order they draw from the trial
# generator: on the heavy stream gauss_bilinear draws x, then y, before
# gauss_linear does. gauss_weighted_corollary is evaluated on the full window
# [1, rank], which the rank-3 model fails (sigma_3 is below the SNR floor), so
# that stream leaves it out.
EXPLICIT_TOKENS = (
    "gauss_sin_theta:operator",
    "gauss_sin_theta:frobenius",
    "gauss_sin_theta:nuclear",
    "gauss_sin_theta:kyfan2",
    "gauss_sv_location:1",
    "gauss_sv_location:2",
    "gauss_2inf",
    "gauss_linear",
    "gauss_bilinear",
    "gauss_weighted",
)
SHAPE_TOKENS = (
    "gauss_sin_theta_simplified",
    "gauss_vector_inf",
    "gauss_matrix_2inf",
    "gauss_2inf_aligned",
)
STREAMS = {
    "heavy": (
        HEAVY_SEED,
        200,
        {"n_rows": 900, "n_cols": 900, "singulars": list(HEAVY_SIGMA), "k_lo": 1, "k_hi": 1},
        (
            "gauss_sin_theta:operator",
            "gauss_sv_location:1",
            "gauss_2inf",
            "gauss_bilinear",
            "gauss_sin_theta:frobenius",
            "gauss_sin_theta:nuclear",
            "gauss_linear",
            "gauss_weighted_corollary",
        ),
    ),
    # coherent factors: the signal's first left vector is a coordinate axis
    "coherent": (
        COHERENT_SEED,
        20,
        {
            "n_rows": 900,
            "n_cols": 900,
            "singulars": list(HEAVY_SIGMA),
            "factor_mode": "coherent",
            "k_lo": 1,
            "k_hi": 2,
        },
        (*EXPLICIT_TOKENS, "gauss_weighted_corollary", *SHAPE_TOKENS),
    ),
    "general": (
        GENERAL_SEED,
        500,
        {"n_rows": 200, "n_cols": 200, "singulars": list(GENERAL_SIGMA), "k_lo": 1, "k_hi": 1},
        tuple(
            tok
            for k in range(1, 5)
            for tok in (
                f"general_sv:{k}",
                f"general_sin_theta:{k}:operator",
                f"general_sin_theta:{k}:frobenius",
            )
        ),
    ),
    # rank 3 on the inner window [1, 2]: the cross spectra hold four values,
    # so Ky Fan 2 and Schatten-3 differ from nuclear
    "rank3": (
        RANK3_SEED,
        20,
        {"n_rows": 900, "n_cols": 900, "singulars": list(RANK3_SIGMA), "k_lo": 1, "k_hi": 2},
        (*EXPLICIT_TOKENS, "gauss_sin_theta:schatten3", *SHAPE_TOKENS),
    ),
}

# Each gate: its stream and the count c of each capped row's probability floor
# 1 - c (N+n)^-tail, by row id; c = 0 marks a deterministic statement, which
# must show no violation. At window [1, 1] the cross spectra hold two values,
# so the heavy stream's kyfan2 would repeat nuclear. The constant-free shape
# rows claim no probability, so no cap can be taken from a floor: a gate
# prints their p99 ratios ungated.
EXPLICIT_CAPS = {
    "gauss_sin_theta:operator": 20.0,
    "gauss_sin_theta:frobenius": 20.0,
    "gauss_sin_theta:nuclear": 20.0,
    "gauss_sin_theta:kyfan2": 20.0,
    "gauss_sv_location:j1": 10.0,
    "gauss_sv_location:j2": 10.0,
    "gauss_2inf": 40.0,
    "gauss_linear": 40.0,
    "gauss_bilinear": 40.0,
    "gauss_weighted": 40.0,
}
GATES = {
    "gauss-sin-theta": ("heavy", {"gauss_sin_theta:operator": 20.0}),
    # a value in no strip is measured as +inf, a violation
    "sv-location": ("heavy", {"gauss_sv_location:j1": 10.0}),
    "rowwise-bilinear-weighted": (
        "heavy",
        {"gauss_2inf": 40.0, "gauss_bilinear": 40.0, "gauss_weighted_corollary": 40.0},
    ),
    "explicit-constant": (
        "heavy",
        {"gauss_sin_theta:frobenius": 20.0, "gauss_sin_theta:nuclear": 20.0, "gauss_linear": 40.0},
    ),
    "coherent-full-window": ("coherent", {**EXPLICIT_CAPS, "gauss_weighted_corollary": 40.0}),
    "general-noise": (
        "general",
        {
            tid: 0.0
            for k in range(1, 5)
            for tid in (
                f"general_sv_lower:k{k}",
                f"general_sv_upper:k{k}",
                f"general_sin_theta:k{k}:operator",
                f"general_sin_theta:k{k}:frobenius",
            )
        },
    ),
    "rank3-inner-window": ("rank3", {**EXPLICIT_CAPS, "gauss_sin_theta:schatten3": 20.0}),
}


@functools.cache
def _stream(name: str):
    """STREAMS[name] run once per session: its wall time and rows by id."""
    seed, trials, model, tokens = STREAMS[name]
    summary, rows = _run("bounds", trials, seed, model, tokens)
    assert not summary.notes  # the model meets every row's hypotheses
    assert summary.wall_time_s < 600.0
    return summary.wall_time_s, rows


def _p99(row: dict) -> str:
    return "none" if row["ratio_p99"] is None else f"{row['ratio_p99']:.1e}"


@pytest.mark.parametrize("tag", GATES)
def test_bounds_gate(tag):
    """Every capped row is valid on every trial, and its violation rate is
    within its floor's budget plus three binomial standard errors."""
    name, caps = GATES[tag]
    _, trials, model, _ = STREAMS[name]
    dims = model["n_rows"] + model["n_cols"]
    wall, rows = _stream(name)
    results = [(tid, rows[tid], _rate_cap(count, dims, 1.0, trials)) for tid, count in caps.items()]
    info = ", ".join(
        f"{tid} {r['violations']}/{r['valid']} (cap {cap:.4f}, ratio p99 {_p99(r)})"
        for tid, r, cap in results
    )
    shapes = ", ".join(f"{tid} {_p99(rows[tid])}" for tid in SHAPE_TOKENS if tid in rows)
    if shapes:
        info += f"; ungated shape rows, ratio p99: {shapes}"
    checks = {}
    for tid, r, cap in results:
        checks[f"{tid} valid on every trial"] = r["valid"] == trials
        checks[f"{tid} within its cap"] = bool(r["valid"]) and r["violations"] / r["valid"] <= cap
    _gate(tag, f"{info}; stream {name} {wall:.0f}s", **checks)


def test_resolvent_identities():
    rng = np.random.default_rng(RESOLVENT_SEED)
    ident_worst = uphiu_worst = dense_worst = 0.0
    mono_ok = crude_ok = True
    probes = 0
    for _ in range(50):
        nr = int(rng.integers(40, 301))
        nc = int(rng.integers(40, 301))
        e = rng.standard_normal((nr, nc))
        eta = gram_spectrum(e)
        base = min_abs_z(nr, nc, 2.0)
        zs = (base, 1.5 * base, 2.2 * base, 3.0 * base,
              base * complex(1.0, 0.5), base * complex(0.5, 1.0))
        for z in zs:
            pr = phi_values(eta, nr, nc, z)
            ident_worst = max(ident_worst, abs(pr.phi1 - pr.phi2 + (nc - nr) / complex(z)))
            probes += 1
        grid = np.linspace(base, 3.0 * base, 25)
        phis = np.array([phi_values(eta, nr, nc, z).varphi.real for z in grid])
        mono_ok = mono_ok and bool(np.all(np.diff(phis) > 0.0))
        crude_ok = crude_ok and bool(np.all((phis > 0.0) & (phis < grid**2)))
        u = haar_basis(rng, nr, 3)
        v = haar_basis(rng, nc, 3)
        ulin = linearized_basis(u, v)
        for z in (base, 2.0 * base):
            dev = uphiu_deviation(phi_values(eta, nr, nc, z), ulin, nr, nc)
            uphiu_worst = max(uphiu_worst, dev)
    for _ in range(20):
        n = int(rng.integers(8, 41))
        e = rng.standard_normal((n, n))
        base = min_abs_z(n, n, 2.0)
        for z in (base, base * complex(1.0, 0.4)):
            x = rng.standard_normal(2 * n)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(2 * n)
            y /= np.linalg.norm(y)
            dense_worst = max(
                dense_worst,
                abs(resolvent_bilinear(e, z, x, y) - dense_resolvent_bilinear(e, z, x, y)),
            )
    _gate(
        "resolvent-identities",
        f"{probes} probes, identity {ident_worst:.2e}, block dev {uphiu_worst:.2e}, "
        f"dense {dense_worst:.2e}, monotone {mono_ok}, crude {crude_ok}",
        probes=probes == 300,
        identity=ident_worst <= 1e-8,
        monotone=mono_ok,
        crude=crude_ok,
        block=uphiu_worst <= 1e-8,
        dense=dense_worst <= 1e-8,
    )


def test_resolvent_local_law():
    rng = np.random.default_rng(LAW_SEED)
    base = min_abs_z(200, 200, 2.0)
    hits = 0
    trials = 2000
    for i in range(trials):
        e = rng.standard_normal((200, 200))
        zf = rng.uniform(1.0, 3.0)
        z = base * complex(zf, 0.5) if i % 3 == 0 else base * zf
        x = rng.standard_normal(400)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(400)
        y /= np.linalg.norm(y)
        gap = local_law_gap(e, phi_values(gram_spectrum(e), 200, 200, z), x, y)
        hits += gap <= local_law_bound(200, 200, 2.0, 1.0, z)
    budget = 9.0 * 400.0 ** (-2.0)
    floor = 1.0 - budget - 3.0 * float(np.sqrt(budget * (1.0 - budget) / trials))
    freq = hits / trials
    _gate(
        "local-law",
        f"{hits}/{trials} within bound, freq {freq:.5f} >= {floor:.5f}",
        above_floor=freq >= floor,
    )


def test_spectral_norm_event():
    rng = np.random.default_rng(SPECTRAL_SEED)
    over = 0
    for _ in range(500):
        e = rng.standard_normal((200, 200))
        rep = spectral_norm_report(float(gram_spectrum(e)[0]), 200, 200)
        over += bool(rep.violated)
    freq_big = 1.0 - over / 500.0

    batch = rng.standard_normal((100000, 9, 9))
    top = np.linalg.svd(batch, compute_uv=False)[:, 0]
    freq_small = float(np.mean(top <= 2.0 * (3.0 + 3.0)))
    budget = 2.0 * float(np.exp(-18.0))
    floor = 1.0 - budget - 3.0 * float(np.sqrt(budget * (1.0 - budget) / 100000.0))
    _gate(
        "spectral-event",
        f"200-dim freq {freq_big:.4f}, 9-dim freq {freq_small:.6f} >= {floor:.6f}",
        every_200_dim_draw=freq_big == 1.0,
        nine_dim_above_floor=freq_small >= floor,
    )


def test_gmm_recovery():
    t0 = time.perf_counter()
    scale = 9.0e4
    centers = np.zeros((3, 50))
    centers[np.arange(3), np.arange(3)] = scale
    spec = GmmSpec(n_features=50, n_samples=300, n_clusters=3, centers=centers)

    # separation and signal floors of the recovery guarantee (tail 1)
    root = np.sqrt(300.0) + np.sqrt(50.0)
    logsum = np.log(350.0)
    gap_floor = max(40.0 * root / np.sqrt(100.0), 1800.0 * 3.0 * np.sqrt(8.0 * logsum))
    snr_floor = 40.0 * root + 3.8e4 * 3.0 * np.sqrt(2.0 * np.log(9.0) * 3.0 + 8.0 * logsum)
    assert spec.center_gap >= gap_floor
    assert spec.sigma_min >= snr_floor

    exact = 0
    for i in range(100):
        tseed = derive_seed(GMM_SEED, i)
        cfg = KMeansConfig(k=3, restarts=10, seed=derive_seed(tseed, 1))
        found, _, _ = kmeans(spectral_embedding(sample_gmm(spec, tseed), 3).T, cfg)
        exact += match_labels(spec.truth, found).exact

    # practical separation, reported but not gated
    delta = 8.0 * np.sqrt(np.log(300.0))
    centers2 = np.zeros((3, 50))
    centers2[np.arange(3), np.arange(3)] = delta / np.sqrt(2.0)
    spec2 = GmmSpec(n_features=50, n_samples=300, n_clusters=3, centers=centers2)
    rates = []
    for i in range(100):
        tseed = derive_seed(GMM_SEED + 1, i)
        cfg = KMeansConfig(k=3, restarts=10, seed=derive_seed(tseed, 1))
        found, _, _ = kmeans(spectral_embedding(sample_gmm(spec2, tseed), 3).T, cfg)
        rates.append(match_labels(spec2.truth, found).misclassification)
    median_rate = float(np.median(rates))
    wall = time.perf_counter() - t0
    _gate(
        "gmm-recovery",
        f"{exact}/100 exact, practical median misrate {median_rate:.3f} "
        f"(<= 0.05: {median_rate <= 0.05}), {wall:.1f}s",
        exact_99=exact >= 99,
        within_120s=wall < 120.0,
    )


def test_submatrix_recovery():
    amp = 6500.0
    spec = SubmatrixSpec(
        n_rows=600,
        n_cols=600,
        row_sets=(tuple(range(100)), tuple(range(100, 200))),
        col_sets=(tuple(range(100)), tuple(range(100, 200))),
        amplitudes=(amp, -amp),
    )
    root = 2.0 * np.sqrt(600.0)
    logsum = np.log(1200.0)
    gap_floor = max(40.0 * root / np.sqrt(100.0), 1800.0 * 2.0 * np.sqrt(8.0 * logsum))
    snr_floor = 40.0 * root + 3.8e4 * 2.0 * np.sqrt(2.0 * np.log(9.0) * 2.0 + 8.0 * logsum)
    dim_ok = root**2 >= 32.0 * 8.0 * logsum + 64.0 * np.log(9.0) * 2.0
    assert dim_ok
    assert min(spec.row_gap, spec.col_gap) >= gap_floor
    assert spec.sigma_min >= snr_floor

    model = {
        "n_rows": 600,
        "n_cols": 600,
        "amplitudes": [amp, -amp],
        "block_rows": 100,
        "block_cols": 100,
        "restarts": 10,
    }
    _, rows = _run("submatrix", 100, SUBMATRIX_SEED, model)
    # a trial not exact on both axes violates the row's bound 0
    row = rows["submatrix_recovery"]
    exact = row["valid"] - row["violations"]
    _gate("submatrix-recovery", f"{exact}/100 exact on both axes", exact_99=exact >= 99)


REPLAY_CONFIGS = {
    "bounds-heavy": {
        "scenario": "bounds",
        "trials": 2,
        "base_seed": 20260819,
        "theorems": ["gauss_sin_theta:operator", "gauss_sv_location:1", "gauss_2inf"],
        "model": {
            "n_rows": 900,
            "n_cols": 900,
            "singulars": [2.0e5, 1.2e5],
            "k_lo": 1,
            "k_hi": 1,
        },
        "format": "json",
    },
    # the rows that read the noise norm and the (r+1)-th observed value at
    # gate size, where both come from the certified top eigenvalue
    "bounds-heavy-mirsky": {
        "scenario": "bounds",
        "trials": 2,
        "base_seed": 20261019,
        "theorems": ["mirsky:operator", "spectral_norm_event", "gauss_sv_location:1"],
        "model": {
            "n_rows": 900,
            "n_cols": 900,
            "singulars": [2.0e5, 1.2e5],
            "k_lo": 1,
            "k_hi": 1,
        },
        "format": "json",
    },
    # the same rows on a tall model, where the Gram of the noise and of the
    # deflated remainder is the column Gram (N > n)
    "bounds-tall-mirsky": {
        "scenario": "bounds",
        "trials": 2,
        "base_seed": 20261020,
        "theorems": ["mirsky:operator", "spectral_norm_event"],
        "model": {
            "n_rows": 1000,
            "n_cols": 450,
            "singulars": [2.0e5, 1.2e5],
            "k_lo": 1,
            "k_hi": 1,
        },
        "format": "json",
    },
    "bounds-classic": {
        "scenario": "bounds",
        "trials": 5,
        "base_seed": 7,
        "theorems": [
            "mirsky:operator",
            "mirsky:kyfan3",
            "wedin:2:frobenius",
            "general_sv:2",
            "spectral_norm_event",
        ],
        "model": {
            "n_rows": 50,
            "n_cols": 50,
            "singulars": [10.0, 8.0, 6.0, 4.0, 2.0],
            "k_lo": 1,
            "k_hi": 2,
        },
        "format": "csv",
    },
    # one token of each of the 16 bounds kinds; every row has valid > 0
    "bounds-every-kind": {
        "scenario": "bounds",
        "trials": 2,
        "base_seed": 20260823,
        "theorems": [
            "mirsky:schatten3",
            "wedin:2:nuclear",
            "gauss_sin_theta:kyfan2",
            "gauss_sin_theta_simplified",
            "gauss_sv_location:2",
            "gauss_2inf",
            "gauss_vector_inf",
            "gauss_matrix_2inf",
            "gauss_2inf_aligned",
            "gauss_linear",
            "gauss_bilinear",
            "gauss_weighted",
            "gauss_weighted_corollary",
            "general_sv:1",
            "general_sin_theta:1:frobenius",
            "spectral_norm_event",
        ],
        "model": {
            "n_rows": 900,
            "n_cols": 900,
            "singulars": [2.0e5, 1.2e5],
            "k_lo": 1,
            "k_hi": 2,
        },
        "format": "csv",
    },
    # the inner window [1, 1] of a rank-2 model: pins the window indicator
    # term that the full window [1, rank] sets to 0
    "bounds-inner-window": {
        "scenario": "bounds",
        "trials": 2,
        "base_seed": 20261018,
        "theorems": [
            "gauss_sin_theta:operator",
            "gauss_sin_theta:schatten3",
            "gauss_2inf",
            "gauss_vector_inf",
            "gauss_matrix_2inf",
            "gauss_2inf_aligned",
            "gauss_linear",
            "gauss_bilinear",
            "gauss_weighted",
            "general_sin_theta:1:kyfan2",
            "general_sv:2",
        ],
        "model": {
            "n_rows": 900,
            "n_cols": 900,
            "singulars": [2.0e5, 1.2e5],
            "k_lo": 1,
            "k_hi": 1,
        },
        "format": "csv",
    },
    # the command-line model fails the Gaussian hypotheses (dim_ok needs about
    # 550 x 550): pins every gauss_* row with valid 0, next to rows that read
    # the observed trailing spectrum (mirsky) and the leading values
    "bounds-small-gauss": {
        "scenario": "bounds",
        "trials": 6,
        "base_seed": 20261019,
        "theorems": [
            "gauss_sin_theta:operator",
            "gauss_sin_theta:frobenius",
            "gauss_sin_theta_simplified",
            "gauss_sv_location:1",
            "gauss_sv_location:2",
            "gauss_sv_location:3",
            "gauss_2inf",
            "gauss_vector_inf",
            "gauss_matrix_2inf",
            "gauss_2inf_aligned",
            "gauss_linear",
            "gauss_bilinear",
            "gauss_weighted",
            "gauss_weighted_corollary",
            "mirsky:operator",
            "wedin:1:operator",
            "general_sv:1",
        ],
        "model": {
            "n_rows": 80,
            "n_cols": 60,
            "singulars": [40.0, 30.0, 20.0],
            "k_lo": 1,
            "k_hi": 3,
        },
        "format": "csv",
    },
    # the window [1, 1] of a rank-2 model with a narrow gap fails gap_ok, but
    # the corollary's own window [1, 2] meets every hypothesis: pins that
    # its row counts every trial while the window's gauss_2inf counts none
    "bounds-edge-corollary": {
        "scenario": "bounds",
        "trials": 2,
        "base_seed": 5,
        "theorems": ["gauss_weighted_corollary", "gauss_2inf", "mirsky:operator"],
        "model": {
            "n_rows": 900,
            "n_cols": 900,
            "singulars": [2.0e5, 1.99e5],
            "k_lo": 1,
            "k_hi": 1,
        },
        "format": "csv",
    },
    # coherent factors and scaled noise: the only golden off the default model
    "bounds-coherent-scaled": {
        "scenario": "bounds",
        "trials": 20,
        "base_seed": 23,
        "theorems": [
            "mirsky:operator",
            "mirsky:nuclear",
            "wedin:1:frobenius",
            "wedin:3:operator",
            "general_sv:1",
            "general_sin_theta:2:operator",
        ],
        "model": {
            "n_rows": 40,
            "n_cols": 30,
            "singulars": [30.0, 20.0, 10.0],
            "factor_mode": "coherent",
            "coherent_row": 3,
            "noise_scale": 0.5,
        },
        "format": "csv",
    },
    "gmm-strong": {
        "scenario": "gmm",
        "trials": 3,
        "base_seed": 11,
        "model": {
            "n_features": 50,
            "n_samples": 300,
            "n_clusters": 3,
            "center_mode": "orthogonal",
            "center_scale": 9.0e4,
        },
        "format": "csv",
    },
    # both rows have valid > 0, so the report's bytes depend on the k-means labels
    "gmm-valid": {
        "scenario": "gmm",
        "trials": 3,
        "base_seed": 31,
        "model": {
            "n_features": 300,
            "n_samples": 1500,
            "n_clusters": 3,
            "center_mode": "orthogonal",
            "center_scale": 1.0e6,
        },
        "format": "csv",
    },
    "submatrix-small": {
        "scenario": "submatrix",
        "trials": 2,
        "base_seed": 13,
        "model": {
            "n_rows": 150,
            "n_cols": 150,
            "amplitudes": [30.0, -30.0],
            "block_rows": 30,
            "block_cols": 30,
        },
        "format": "json",
    },
    # 600 x 600 meets the recovery preconditions (150 x 150 does not), so
    # every trial counts and the row pins spectral_submatrix's labels
    "submatrix-recovery": {
        "scenario": "submatrix",
        "trials": 4,
        "base_seed": 20261026,
        "model": {
            "n_rows": 600,
            "n_cols": 600,
            "amplitudes": [6500.0, -6500.0],
            "block_rows": 100,
            "block_cols": 100,
            "restarts": 10,
        },
        "format": "json",
    },
    "resolvent-small": {
        "scenario": "resolvent",
        "trials": 4,
        "base_seed": 17,
        "model": {"n_rows": 36, "n_cols": 30},
        "format": "csv",
    },
    # a subset of the resolvent rows, out of table order: pins the rows that
    # run only on request and their draws from the trial generator
    "resolvent-partial": {
        "scenario": "resolvent",
        "trials": 3,
        "base_seed": 23,
        "theorems": ["zj_bracket", "g_approx2", "local_law", "dense_match", "phi_ring", "uphiu"],
        "model": {"n_rows": 100, "n_cols": 80, "dense": True},
        "format": "csv",
    },
    # z_factors starting past 1.0: pins that local_law probes at the base
    # radius, not at the first z point
    "resolvent-offset-z": {
        "scenario": "resolvent",
        "trials": 3,
        "base_seed": 29,
        "model": {
            "n_rows": 100,
            "n_cols": 80,
            "margin": 3.0,
            "z_factors": [1.5, 3.0],
            "dense": True,
        },
        "format": "csv",
    },
    # 100 x 100 meets the local law's dimension hypothesis (36 x 30 does
    # not), so its row counts every trial
    "resolvent-local-law": {
        "scenario": "resolvent",
        "trials": 2,
        "base_seed": 20261027,
        "theorems": ["local_law", "uphiu"],
        "model": {"n_rows": 100, "n_cols": 100},
        "format": "csv",
    },
    "selftest": {"scenario": "selftest", "trials": 3, "base_seed": 19, "format": "json"},
    # no model and no theorems: each pins the command line's starting point
    # of its scenario, its model, theorem list and row order
    "bounds-cli": {"scenario": "bounds", "trials": 3, "base_seed": 20261101, "format": "csv"},
    "gmm-cli": {"scenario": "gmm", "trials": 3, "base_seed": 20261102, "format": "csv"},
    "submatrix-cli": {"scenario": "submatrix", "trials": 3, "base_seed": 20261103, "format": "csv"},
    "resolvent-cli": {"scenario": "resolvent", "trials": 3, "base_seed": 20261104, "format": "csv"},
}


def replay_report(name: str, root: Path) -> bytes:
    """The report of REPLAY_CONFIGS[name], run in process through the command
    line with its config and --out path under root."""
    cfg = REPLAY_CONFIGS[name]
    cfg_path = root / f"{name}.config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = root / f"{name}.report.{cfg['format']}"
    rc = harness_main([cfg["scenario"], "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0, f"{name} exited {rc}"
    return out.read_bytes()


def test_reproducibility_byte_identical(shipped_reports, tmp_path):
    # the session's shipped pass, which the goldens also read, against one
    # rerun under another root: a report's bytes do not depend on its path
    mismatched = [
        name for name in REPLAY_CONFIGS if shipped_reports[name] != replay_report(name, tmp_path)
    ]
    _gate(
        "reproducibility",
        f"{len(REPLAY_CONFIGS)} configs rerun, mismatches: {mismatched or 'none'}",
        byte_identical=not mismatched,
    )
