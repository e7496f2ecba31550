"""Release gate: every bound, identity and recovery guarantee the package
ships is exercised here at full strength, one test per guarantee.

Each test prints one "[gate] name: PASS/FAIL" line with the measured
frequencies. Probabilistic gates compare the violation rate against the
stated failure budget plus three binomial standard errors; deterministic
gates demand zero violations at 1e-9 slack. The 900-dimensional stream is
built once and shared by the three Gaussian-bound gates.
"""

import json
import time

import numpy as np
import pytest

from svperturb.bounds import (
    GaussianBoundParams,
    GeneralNoiseParams,
    gauss_subspace_bound,
    gauss_sv_location_check,
    general_subspace_bound,
    general_sv_bounds,
    linear_bilinear_bound,
    mirsky_check,
    spectral_norm_report,
    two_inf_bound,
    wedin_check,
    weighted_corollary_bound,
    window_2inf_residual,
    window_sin_theta,
    window_weighted_residual,
)
from svperturb.clustering import (
    KMeansConfig,
    kmeans,
    match_labels,
    spectral_embedding,
    spectral_submatrix,
)
from svperturb.harness import main as harness_main
from svperturb.matcore import (
    FROBENIUS,
    NUCLEAR,
    OPERATOR,
    gram_spectrum,
    kyfan,
    singular_values,
    svd,
)
from svperturb.models import (
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
    procrustes_align,
    row_mass,
    sin_theta_norm,
    two_inf_residual,
)

SLACK = 1e-9
INVARIANT_NORMS = (OPERATOR, FROBENIUS, NUCLEAR, kyfan(3))

SMALL_SIGMA = (10.0, 8.0, 6.0, 4.0, 2.0)
SMALL_SPEC = LowRankSpec(n_rows=50, n_cols=50, singulars=SMALL_SIGMA)

HEAVY_SIGMA = (2.0e5, 1.2e5)
HEAVY_TRIALS = 200
HEAVY_SEED = 0x5EED_0900

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


def _line(tag: str, ok: bool, info: str) -> None:
    print(f"[gate] {tag}: {'PASS' if ok else 'FAIL'} ({info})", flush=True)


def _tally(reports):
    valid = sum(1 for r in reports if r.violated is not None)
    bad = sum(1 for r in reports if r.violated)
    return valid, bad


def _rate_cap(count: float, dims: int, tail: float, trials: int) -> float:
    budget = min(1.0, count * float(dims) ** (-tail))
    return budget + 3.0 * float(np.sqrt(budget * (1.0 - budget) / trials))


def _scaled_noise_instance(rng):
    """50 x 50 rank-5 draw with the noise norm uniform in [0.1 sigma_r, 2 sigma_1]."""
    a, _ = low_rank_from_rng(SMALL_SPEC, rng)
    e = rng.standard_normal((50, 50))
    esv = singular_values(e)
    target = rng.uniform(0.1 * SMALL_SIGMA[-1], 2.0 * SMALL_SIGMA[0])
    factor = target / esv[0]
    return perturb(a, e * factor), esv * factor


def test_mirsky_displacement_bound():
    t0 = time.perf_counter()
    valid = bad = 0
    worst = 0.0
    for i in range(1000):
        rng = np.random.default_rng(derive_seed(MIRSKY_SEED, i))
        inst, esv = _scaled_noise_instance(rng)
        for spec in INVARIANT_NORMS:
            rep = mirsky_check(inst, spec, e_singulars=esv)
            valid += 1
            bad += bool(rep.violated)
            worst = max(worst, rep.ratio)
    wall = time.perf_counter() - t0
    ok = bad == 0 and wall < 30.0
    _line(
        "mirsky",
        ok,
        f"{valid} checks, {bad} violations, worst ratio {worst:.4f}, {wall:.1f}s",
    )
    assert bad == 0
    assert wall < 30.0


def test_wedin_sin_theta_bound():
    valid = bad = skipped = 0
    for i in range(1000):
        rng = np.random.default_rng(derive_seed(WEDIN_SEED, i))
        inst, _ = _scaled_noise_instance(rng)
        for k in range(1, 6):
            for spec in INVARIANT_NORMS:
                rep = wedin_check(inst, k, spec)
                if rep.violated is None:
                    skipped += 1
                else:
                    valid += 1
                    bad += bool(rep.violated)
    ok = bad == 0 and valid > 0
    _line("wedin", ok, f"{valid} checks with positive gap, {skipped} degenerate, {bad} violations")
    assert valid > 0
    assert bad == 0


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

        o = procrustes_align(u, v)
        spect = singular_values(u @ o - v)
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
        resid_o = v - u @ o
        resid_p = v - u @ (u.T @ v)
        vec_ok = np.linalg.norm(x @ resid_o) <= np.linalg.norm(x @ resid_p) + xu * sin_sq + SLACK
        bil_ok = abs(x @ resid_o @ y) <= abs(x @ resid_p @ y) + xu * sin_sq + SLACK
        u_mass = row_mass(u)
        row_ok = (
            two_inf_residual(u, v, mode="aligned")
            <= two_inf_residual(u, v, mode="projector") + u_mass * sin_sq + SLACK
        )
        if not (vec_ok and bil_ok and row_ok):
            prop_bad += 1
    ok = worst_cos <= SLACK and worst_spect <= SLACK and sandwich_bad == 0 and prop_bad == 0
    _line(
        "subspace-identities",
        ok,
        f"500 pairs, cos dev {worst_cos:.2e}, residual dev {worst_spect:.2e}, "
        f"sandwich {sandwich_bad}, alignment ineq {prop_bad}",
    )
    assert worst_cos <= SLACK
    assert worst_spect <= SLACK
    assert sandwich_bad == 0
    assert prop_bad == 0


@pytest.fixture(scope="module")
def heavy_stream():
    """200 draws at N = n = 900, rank 2, shared by the three Gaussian gates.

    Instances are built from the generator's exact factors: the observed
    matrix gets its certified leading pairs and their values from
    ``perturb(..., factors=...)``, and no row here reads its trailing
    spectrum; the noise gets its spectrum from ``gram_spectrum``. Only the
    small report rows are kept.
    """
    lr = LowRankSpec(n_rows=900, n_cols=900, singulars=HEAVY_SIGMA)
    p_top = GaussianBoundParams(
        n_rows=900, n_cols=900, singulars=HEAVY_SIGMA, k_lo=1, k_hi=1
    )
    p_full = GaussianBoundParams(
        n_rows=900, n_cols=900, singulars=HEAVY_SIGMA, k_lo=1, k_hi=2
    )
    rows = {"sin_theta": [], "location": [], "two_inf": [], "bilinear": [], "weighted": []}
    t0 = time.perf_counter()
    for i in range(HEAVY_TRIALS):
        tseed = derive_seed(HEAVY_SEED, i)
        rng = np.random.default_rng(tseed)
        a, fac = low_rank_from_rng(lr, rng)
        e = rng.standard_normal((900, 900))
        inst = perturb(a, e, factors=fac)
        esv = gram_spectrum(e)
        e_norm = float(esv[0])
        u_2inf = row_mass(fac.left)

        rep = gauss_subspace_bound(p_top, OPERATOR, e_norm)
        emp = window_sin_theta(inst, 1, 1, OPERATOR)
        rows["sin_theta"].append(rep.with_empirical(emp))

        def phi_at(zv, esv=esv):
            return phi_values(esv, 900, 900, zv).varphi.real

        rows["location"].append(gauss_sv_location_check(inst, p_top, 1, phi_at))

        rep = two_inf_bound(p_top, u_2inf)
        emp = window_2inf_residual(inst, 1, 1)
        rows["two_inf"].append(rep.with_empirical(emp))

        x = rng.standard_normal(900)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(1)
        y /= np.linalg.norm(y)
        xu = float(np.linalg.norm(x @ fac.left))
        _, bil = linear_bilinear_bound(p_top, xu, y)
        uw = fac.left[:, :1]
        utw = inst.svd_observed.left[:, :1]
        resid = utw - uw @ (uw.T @ utw)
        rows["bilinear"].append(bil.with_empirical(float(abs(x @ resid @ y))))

        rep = weighted_corollary_bound(p_full, u_2inf, e_norm)
        emp = window_weighted_residual(inst, 1, 2, aligned=True)
        rows["weighted"].append(rep.with_empirical(emp))
    return {"rows": rows, "wall_s": time.perf_counter() - t0, "p_top": p_top, "p_full": p_full}


def test_gauss_sin_theta_operator(heavy_stream):
    assert heavy_stream["p_top"].preconditions.all_ok
    valid, bad = _tally(heavy_stream["rows"]["sin_theta"])
    cap = _rate_cap(20.0, 1800, 1.0, valid)
    rate = bad / valid
    wall = heavy_stream["wall_s"]
    ok = valid == HEAVY_TRIALS and rate <= cap and wall < 600.0
    _line(
        "gauss-sin-theta",
        ok,
        f"{bad}/{valid} violations, rate {rate:.4f} <= {cap:.4f}, stream {wall:.0f}s",
    )
    assert valid == HEAVY_TRIALS
    assert rate <= cap
    assert wall < 600.0


def test_singular_value_location(heavy_stream):
    reports = heavy_stream["rows"]["location"]
    valid, bad = _tally(reports)
    # a value in no strip is measured as +inf, so a finite value is a membership
    members = sum(1 for r in reports if r.violated is not None and np.isfinite(r.empirical_value))
    cap = _rate_cap(10.0, 1800, 1.0, valid)
    rate = bad / valid
    ok = valid == HEAVY_TRIALS and rate <= cap
    _line(
        "sv-location",
        ok,
        f"{bad}/{valid} violations, {members} strip memberships, rate {rate:.4f} <= {cap:.4f}",
    )
    assert valid == HEAVY_TRIALS
    assert rate <= cap


def test_rowwise_bilinear_weighted(heavy_stream):
    parts = []
    all_ok = True
    for name in ("two_inf", "bilinear", "weighted"):
        valid, bad = _tally(heavy_stream["rows"][name])
        cap = _rate_cap(40.0, 1800, 1.0, valid)
        rate = bad / valid
        part_ok = valid == HEAVY_TRIALS and rate <= cap
        all_ok = all_ok and part_ok
        parts.append(f"{name} {bad}/{valid} (cap {cap:.4f})")
    _line("rowwise-bilinear-weighted", all_ok, ", ".join(parts))
    for name in ("two_inf", "bilinear", "weighted"):
        valid, bad = _tally(heavy_stream["rows"][name])
        assert valid == HEAVY_TRIALS
        assert bad / valid <= _rate_cap(40.0, 1800, 1.0, valid)


def test_general_noise_bounds():
    lr = LowRankSpec(n_rows=200, n_cols=200, singulars=GENERAL_SIGMA)
    gaps = GaussianBoundParams(n_rows=200, n_cols=200, singulars=GENERAL_SIGMA, k_lo=1, k_hi=1)
    valid = bad = 0
    gap_fail = 0
    for i in range(500):
        tseed = derive_seed(GENERAL_SEED, i)
        rng = np.random.default_rng(tseed)
        a, fac = low_rank_from_rng(lr, rng)
        e = rng.standard_normal((200, 200))
        inst = PerturbationInstance(
            signal=a,
            noise=e,
            observed=a + e,
            svd_signal=fac,
            svd_observed=svd(a + e),
        )
        esv = singular_values(e)
        core = fac.left.T @ e @ fac.right
        for k in range(1, 5):
            gp = GeneralNoiseParams(
                op_bound=float(esv[0]),
                core_bound=float(np.linalg.norm(core, 2)),
                corner_bound=float(np.linalg.norm(core[:k, :k], 2)),
            )
            lower, upper = general_sv_bounds(inst, k, gp)
            reps = [lower, upper]
            delta_k = gaps.delta(k)
            sigma_k = float(fac.singulars[k - 1])
            for spec in (OPERATOR, FROBENIUS):
                rep = general_subspace_bound(k, 4, delta_k, sigma_k, gp, spec)
                emp = window_sin_theta(inst, 1, k, spec)
                rep = rep.with_empirical(emp)
                gap_fail += not rep.preconditions.gap_ok
                reps.append(rep)
            for rep in reps:
                if rep.violated is not None:
                    valid += 1
                    bad += bool(rep.violated)
    ok = bad == 0 and gap_fail == 0 and valid == 500 * 4 * 4
    _line("general-noise", ok, f"{valid} checks, {bad} violations, {gap_fail} gap failures")
    assert gap_fail == 0
    assert valid == 500 * 4 * 4
    assert bad == 0


def test_resolvent_identities():
    rng = np.random.default_rng(RESOLVENT_SEED)
    ident_worst = uphiu_worst = dense_worst = 0.0
    mono_ok = crude_ok = True
    probes = 0
    for _ in range(50):
        nr = int(rng.integers(40, 301))
        nc = int(rng.integers(40, 301))
        e = rng.standard_normal((nr, nc))
        eta = svd(e).singulars
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
        noise = svd(e)
        base = min_abs_z(n, n, 2.0)
        for z in (base, base * complex(1.0, 0.4)):
            x = rng.standard_normal(2 * n)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(2 * n)
            y /= np.linalg.norm(y)
            dense_worst = max(
                dense_worst,
                abs(resolvent_bilinear(noise, z, x, y) - dense_resolvent_bilinear(e, z, x, y)),
            )
    ok = (
        probes == 300
        and ident_worst <= 1e-8
        and mono_ok
        and crude_ok
        and uphiu_worst <= 1e-8
        and dense_worst <= 1e-8
    )
    _line(
        "resolvent-identities",
        ok,
        f"{probes} probes, identity {ident_worst:.2e}, block dev {uphiu_worst:.2e}, "
        f"dense {dense_worst:.2e}, monotone {mono_ok}, crude {crude_ok}",
    )
    assert probes == 300
    assert ident_worst <= 1e-8
    assert mono_ok and crude_ok
    assert uphiu_worst <= 1e-8
    assert dense_worst <= 1e-8


def test_resolvent_local_law():
    rng = np.random.default_rng(LAW_SEED)
    base = min_abs_z(200, 200, 2.0)
    hits = 0
    trials = 2000
    for i in range(trials):
        e = rng.standard_normal((200, 200))
        noise = svd(e)
        zf = rng.uniform(1.0, 3.0)
        z = base * complex(zf, 0.5) if i % 3 == 0 else base * zf
        x = rng.standard_normal(400)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(400)
        y /= np.linalg.norm(y)
        gap = local_law_gap(noise, phi_values(noise.singulars, 200, 200, z), x, y)
        hits += gap <= local_law_bound(200, 200, 2.0, 1.0, z)
    budget = 9.0 * 400.0 ** (-2.0)
    floor = 1.0 - budget - 3.0 * float(np.sqrt(budget * (1.0 - budget) / trials))
    freq = hits / trials
    ok = freq >= floor
    _line("local-law", ok, f"{hits}/{trials} within bound, freq {freq:.5f} >= {floor:.5f}")
    assert freq >= floor


def test_spectral_norm_event():
    rng = np.random.default_rng(SPECTRAL_SEED)
    over = 0
    for _ in range(500):
        e = rng.standard_normal((200, 200))
        rep = spectral_norm_report(float(singular_values(e)[0]), 200, 200)
        over += bool(rep.violated)
    freq_big = 1.0 - over / 500.0

    batch = rng.standard_normal((100000, 9, 9))
    top = np.linalg.svd(batch, compute_uv=False)[:, 0]
    freq_small = float(np.mean(top <= 2.0 * (3.0 + 3.0)))
    budget = 2.0 * float(np.exp(-18.0))
    floor = 1.0 - budget - 3.0 * float(np.sqrt(budget * (1.0 - budget) / 100000.0))
    ok = freq_big == 1.0 and freq_small >= floor
    _line(
        "spectral-event",
        ok,
        f"200-dim freq {freq_big:.4f}, 9-dim freq {freq_small:.6f} >= {floor:.6f}",
    )
    assert freq_big == 1.0
    assert freq_small >= floor


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
    probe = sample_gmm(spec, 0)  # the gap and sigma_min depend on the spec alone
    assert probe.center_gap >= gap_floor
    assert probe.sigma_min >= snr_floor

    exact = 0
    for i in range(100):
        tseed = derive_seed(GMM_SEED, i)
        sample = sample_gmm(spec, tseed)
        cfg = KMeansConfig(k=3, restarts=10, seed=derive_seed(tseed, 1))
        found, _, _ = kmeans(spectral_embedding(sample.x, 3).T, cfg)
        exact += match_labels(sample.truth, found).exact

    # practical separation, reported but not gated
    delta = 8.0 * np.sqrt(np.log(300.0))
    centers2 = np.zeros((3, 50))
    centers2[np.arange(3), np.arange(3)] = delta / np.sqrt(2.0)
    spec2 = GmmSpec(n_features=50, n_samples=300, n_clusters=3, centers=centers2)
    rates = []
    for i in range(100):
        tseed = derive_seed(GMM_SEED + 1, i)
        sample = sample_gmm(spec2, tseed)
        cfg = KMeansConfig(k=3, restarts=10, seed=derive_seed(tseed, 1))
        found, _, _ = kmeans(spectral_embedding(sample.x, 3).T, cfg)
        rates.append(match_labels(sample.truth, found).misclassification)
    median_rate = float(np.median(rates))
    wall = time.perf_counter() - t0
    ok = exact >= 99 and wall < 120.0
    _line(
        "gmm-recovery",
        ok,
        f"{exact}/100 exact, practical median misrate {median_rate:.3f} "
        f"(<= 0.05: {median_rate <= 0.05}), {wall:.1f}s",
    )
    assert exact >= 99
    assert wall < 120.0


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
    probe = plant_submatrices(spec, 0)  # the gaps and sigma_min depend on the spec alone
    assert dim_ok
    assert min(probe.row_gap, probe.col_gap) >= gap_floor
    assert probe.sigma_min >= snr_floor

    exact = 0
    for i in range(100):
        tseed = derive_seed(SUBMATRIX_SEED, i)
        sample = plant_submatrices(spec, tseed)
        labs = spectral_submatrix(
            sample.x, 2, KMeansConfig(k=3, restarts=10, seed=derive_seed(tseed, 1))
        )
        row_res = match_labels(sample.row_truth, labs.rows)
        col_res = match_labels(sample.col_truth, labs.cols)
        exact += row_res.exact and col_res.exact
    ok = exact >= 99
    _line("submatrix-recovery", ok, f"{exact}/100 exact on both axes")
    assert exact >= 99


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
    "selftest": {"scenario": "selftest", "trials": 3, "base_seed": 19, "format": "json"},
}


def test_reproducibility_byte_identical(tmp_path):
    mismatched = []
    for name, cfg in REPLAY_CONFIGS.items():
        cfg_path = tmp_path / f"{name}.config.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        out = tmp_path / f"{name}.report.{cfg['format']}"
        for run in (1, 2):
            rc = harness_main(
                [cfg["scenario"], "--config", str(cfg_path), "--out", str(out)]
            )
            assert rc == 0, f"{name} run {run} exited {rc}"
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            mismatched.append(name)
    ok = not mismatched
    _line(
        "reproducibility",
        ok,
        f"{len(REPLAY_CONFIGS)} configs rerun, mismatches: {mismatched or 'none'}",
    )
    assert not mismatched
