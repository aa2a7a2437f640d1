"""Acceptance suite: one test per numbered criterion, frozen configs.

Every test records a one-line PASS/FAIL verdict with the measured value
(printed in the terminal summary) and then asserts the criterion bound.
Monte-Carlo configurations (sizes, seeds, trial counts) are frozen; the
thresholds are never loosened below the stated bounds.
"""

import time

import numpy as np
import pytest
from conftest import record_criterion
from scipy.optimize import brentq

from rectconv import (
    ExperimentConfig,
    ModelParams,
    bbp_experiment,
    canonical_sqrt_spectrum,
    classical_locations,
    delocalization_experiment,
    density_curve,
    edge_universality_experiment,
    find_right_edge,
    local_law_experiment,
    make_spectrum,
    phi,
    rank_experiment,
    rigidity_experiment,
    solve_point,
)


def test_criterion_01_mp_edge_closed_form():
    # all-zero spectrum, c = 0.5, t = 0.25: edge has a closed form
    t0 = time.time()
    spec = make_spectrum(np.zeros(100))
    params = ModelParams(p=100, n=200, t=0.25)
    edge = find_right_edge(spec, params)
    expected = 0.25 * (1.0 + np.sqrt(0.5)) ** 2
    err = abs(edge.lambda_plus - expected)
    elapsed = time.time() - t0
    ok = err <= 1e-8 and elapsed < 1.0
    record_criterion(1, ok, f"closed-form edge error {err:.2e} (<= 1e-8), {elapsed:.2f}s")
    assert ok


def test_criterion_02_self_consistency_battery():
    # 200 random (spectrum, c, t, z) cases, frozen generator
    t0 = time.time()
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(200):
        p = int(rng.integers(20, 150))
        c = float(rng.uniform(0.15, 1.0))
        n = max(p, int(round(p / c)))
        kind = rng.integers(0, 3)
        if kind == 0:
            vals = rng.uniform(0.0, 3.0, p)
        elif kind == 1:
            vals = np.concatenate(
                [rng.uniform(0.5, 1.0, p // 2), rng.uniform(2.0, 2.2, p - p // 2)]
            )
        else:
            vals = np.zeros(p)
            vals[: p // 2] = rng.uniform(0.1, 4.0, p // 2)
        spec = make_spectrum(vals)
        t = float(np.exp(rng.uniform(np.log(0.02), np.log(2.0))))
        E = float(rng.uniform(-2.0, 1.3 * (vals.max() + t * (1 + np.sqrt(c)) ** 2)))
        eta = float(np.exp(rng.uniform(np.log(1e-4), np.log(2.0))))
        cases.append((spec, ModelParams(p=p, n=n, t=t), complex(E, eta)))

    worst_res = 0.0
    worst_gap = 0.0
    herglotz = True
    for spec, params, z in cases:
        a = solve_point(spec, params, z, method="fixed_point")
        b = solve_point(spec, params, z)
        worst_res = max(
            worst_res, abs(phi(spec, params, b.zeta) - z), a.residual, b.residual
        )
        worst_gap = max(worst_gap, abs(a.m - b.m))
        for pt in (a, b):
            if not (pt.m.imag > 0 and (pt.z * pt.m).imag > 0 and pt.zeta.imag > 0):
                herglotz = False
    elapsed = time.time() - t0
    ok = worst_res <= 1e-10 and worst_gap <= 1e-8 and herglotz and elapsed < 30.0
    record_criterion(
        2,
        ok,
        f"200 cases: residual {worst_res:.1e} (<= 1e-10), route gap {worst_gap:.1e} "
        f"(<= 1e-8), herglotz {herglotz}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_03_edge_velocity():
    # analytic velocity against central differences, frozen generator
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(30, 120))
        n = int(p / rng.uniform(0.2, 1.0))
        spec = make_spectrum(np.sort(rng.uniform(0, 2.0, p))[::-1])
        t = float(rng.uniform(0.05, 1.0))
        h = 1e-5 * t
        e0 = find_right_edge(spec, ModelParams(p=p, n=n, t=t))
        ep = find_right_edge(spec, ModelParams(p=p, n=n, t=t + h))
        em = find_right_edge(spec, ModelParams(p=p, n=n, t=t - h))
        fd = (ep.lambda_plus - em.lambda_plus) / (2 * h)
        worst = max(worst, abs(e0.velocity / fd - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    record_criterion(
        3, ok, f"20 configs: worst velocity error {worst:.1e} (< 1e-4), {elapsed:.1f}s"
    )
    assert ok


def test_criterion_04_square_root_edge():
    # density just below the edge: exponent 1/2 and matching prefactor
    t0 = time.time()
    spec = canonical_sqrt_spectrum(500, 1.0)
    params = ModelParams(p=500, n=1000, t=0.1)
    edge = find_right_edge(spec, params)
    x = np.geomspace(1e-4 * 0.01, 0.5 * 0.01, 25)
    rho = density_curve(spec, params, edge.lambda_plus - x)
    slope, log_a = np.polyfit(np.log(x), np.log(rho), 1)
    pref_err = abs(np.exp(log_a) / edge.sqrt_coeff - 1.0)
    elapsed = time.time() - t0
    ok = abs(slope - 0.5) <= 0.05 and pref_err <= 0.10 and elapsed < 120.0
    record_criterion(
        4,
        ok,
        f"slope {slope:.4f} (0.50 +- 0.05), prefactor error {pref_err:.1e} "
        f"(<= 10%), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_05_critical_point_scaling():
    # detachment point above the largest atom grows like t^2
    spec = canonical_sqrt_spectrum(500, 1.0)
    ratios = []
    for t in (0.05, 0.1, 0.2, 0.4):
        edge = find_right_edge(spec, ModelParams(p=500, n=1000, t=t))
        ratios.append(edge.xi_plus / (t * t))
    lo, hi = min(ratios), max(ratios)
    ok = lo >= 0.05 and hi <= 20.0
    record_criterion(5, ok, f"xi_plus/t^2 in [{lo:.2f}, {hi:.2f}] (within [0.05, 20])")
    assert ok


def _mp_unit_cdf(x):
    # distribution function of the all-zero, c = 1, t = 1 law on [0, 4]
    return (2.0 / np.pi) * np.arcsin(np.sqrt(x) / 2.0) + np.sqrt(x * (4.0 - x)) / (
        2.0 * np.pi
    )


def test_criterion_06_quantiles():
    t0 = time.time()
    # part 1: closed-form quantiles at c = 1, t = 1
    p = 50
    spec = make_spectrum(np.zeros(p))
    params = ModelParams(p=p, n=p, t=1.0)
    edge = find_right_edge(spec, params)
    table = classical_locations(spec, params, 20, edge)
    worst_q = 0.0
    for j in range(2, 21):
        target = 1.0 - (j - 1) / p
        ref = brentq(lambda x: _mp_unit_cdf(x) - target, 1e-12, 4.0 - 1e-12, xtol=1e-14)
        worst_q = max(worst_q, abs(table.gamma[j - 1] - ref))
    exact_top = table.gamma[0] == edge.lambda_plus

    # part 2: edge-distance scaling on the canonical fixture at n = 400
    n = 400
    spec2 = canonical_sqrt_spectrum(200, 1.0)
    params2 = ModelParams(p=200, n=n, t=float(n) ** (-1.0 / 6.0))
    edge2 = find_right_edge(spec2, params2)
    table2 = classical_locations(spec2, params2, 20, edge2)
    j = np.arange(2, 21)
    kappa = edge2.lambda_plus - table2.gamma[1:20]
    ratio = kappa / (j ** (2.0 / 3.0) * float(n) ** (-2.0 / 3.0))
    lo, hi = float(ratio.min()), float(ratio.max())
    elapsed = time.time() - t0
    ok = worst_q <= 1e-6 and exact_top and lo >= 0.1 and hi <= 10.0
    record_criterion(
        6,
        ok,
        f"MP quantile error {worst_q:.1e} (<= 1e-6), top exact {exact_top}, "
        f"kappa ratios [{lo:.2f}, {hi:.2f}] in [0.1, 10], {elapsed:.1f}s",
    )
    assert ok


def test_criterion_07_rigidity():
    # frozen config; the gate is the 95th percentile of the per-trial
    # worst normalized deviation over the ranks kept by the experiment's
    # window.  Each lambda_k is measured from the centre of its quantile
    # cell (right mass (k - 1/2)/p), not from its upper edge gamma_k.
    # Analysis and 1000-trial estimates in README.md.
    t0 = time.time()
    n = 400
    spec = canonical_sqrt_spectrum(200, 1.0)
    params = ModelParams(p=200, n=n, t=float(n) ** (-1.0 / 6.0))
    cfg = ExperimentConfig(
        spec=spec, params=params, trials=200, base_seed=1, k_max=20, threads=8
    )
    rep = rigidity_experiment(cfg)
    stat = rep.summary["max_ratio_p95"]
    elapsed = time.time() - t0
    ok = stat <= 5.0 and elapsed < 600.0
    record_criterion(
        7,
        ok,
        f"p95 of per-trial max deviation {stat:.3f} (<= 5), {elapsed:.0f}s",
    )
    assert ok


def test_criterion_08_edge_universality():
    t0 = time.time()
    n = 300
    spec = canonical_sqrt_spectrum(150, 1.0)
    params = ModelParams(p=150, n=n, t=float(n) ** (-1.0 / 6.0))
    cfg = ExperimentConfig(
        spec=spec,
        params=params,
        kinds=("gaussian", "trinary"),
        trials=2000,
        base_seed=21,
        threads=8,
    )
    rep = edge_universality_experiment(cfg)
    ks, ctrl = rep.summary["ks"], rep.summary["ks_control"]
    elapsed = time.time() - t0
    ok = ks <= 0.08 and ctrl <= 0.05 and elapsed < 1800.0
    record_criterion(
        8,
        ok,
        f"KS gaussian/trinary {ks:.4f} (<= 0.08), control {ctrl:.4f} (<= 0.05), "
        f"{elapsed:.0f}s",
    )
    assert ok


def test_criterion_09_averaged_local_law():
    t0 = time.time()
    n = 400
    spec = canonical_sqrt_spectrum(200, 1.0)
    params = ModelParams(p=200, n=n, t=float(n) ** (-1.0 / 6.0))
    cfg = ExperimentConfig(
        spec=spec, params=params, trials=100, base_seed=13, vartheta=0.1, threads=8
    )
    rep = local_law_experiment(cfg)
    stat = rep.summary["avg_p95"]
    grid_points = len(rep.summary["grid"])
    elapsed = time.time() - t0
    ok = stat <= 10.0 and grid_points == 12 and elapsed < 600.0
    record_criterion(
        9,
        ok,
        f"p95 of |m_hat - m| n eta {stat:.3f} (<= 10) on {grid_points}-point grid, "
        f"{elapsed:.0f}s",
    )
    assert ok


def test_criterion_10_delocalization():
    t0 = time.time()
    n = 300
    spec = canonical_sqrt_spectrum(150, 1.0)
    params = ModelParams(p=150, n=n, t=float(n) ** (-1.0 / 6.0))
    cfg = ExperimentConfig(
        spec=spec, params=params, trials=100, base_seed=7, k_max=10, threads=8
    )
    rep = delocalization_experiment(cfg)
    stat = rep.summary["ratio_p95"]
    elapsed = time.time() - t0
    ok = stat <= 10.0 and elapsed < 600.0
    record_criterion(
        10, ok, f"p95 overlap/bound ratio {stat:.3f} (<= 10), {elapsed:.0f}s"
    )
    assert ok


def test_criterion_11_bbp_prediction():
    t0 = time.time()
    n = 400
    spec = make_spectrum(np.zeros(n))
    params = ModelParams(p=n, n=n, t=1.0)
    cfg = ExperimentConfig(spec=spec, params=params, trials=200, base_seed=31, threads=8)

    rep_super = bbp_experiment(cfg, 2.0)
    err_super = rep_super.summary["median_error"]
    ok_super = (
        rep_super.summary["supercritical"]
        and abs(rep_super.summary["prediction"] - 4.5) < 1e-10
        and err_super <= 5.0 * float(n) ** -0.4
    )

    rep_sub = bbp_experiment(cfg, 0.5)
    err_sub = rep_sub.summary["median_error"]
    ok_sub = (not rep_sub.summary["supercritical"]) and err_sub <= 5.0 * float(
        n
    ) ** -0.567
    elapsed = time.time() - t0
    ok = ok_super and ok_sub
    record_criterion(
        11,
        ok,
        f"spike 2.0: median |mu1 - 4.5| = {err_super:.4f} (<= {5.0 * n ** -0.4:.4f}); "
        f"spike 0.5: sticking error {err_sub:.4f} (<= {5.0 * n ** -0.567:.4f}), "
        f"{elapsed:.0f}s",
    )
    assert ok


def test_criterion_12_rank_estimator():
    # gap-ratio tolerance at the natural spacing scale n^{-1/3}
    # (the tolerance is configuration, not a prescribed constant)
    t0 = time.time()
    n = 400
    spec = make_spectrum(np.zeros(200))
    params = ModelParams(p=200, n=n, t=1.0)
    cfg = ExperimentConfig(
        spec=spec,
        params=params,
        trials=200,
        base_seed=41,
        omega=float(n) ** (-1.0 / 3.0),
        threads=8,
    )
    rep_two = rank_experiment(cfg, (3.0, 2.5))
    freq_two = rep_two.summary["frequency"]
    ok_two = rep_two.summary["expected_rank"] == 2 and freq_two >= 0.9

    rep_none = rank_experiment(cfg, ())
    freq_none = rep_none.summary["frequency"]
    ok_none = rep_none.summary["expected_rank"] == 1 and freq_none >= 0.9
    elapsed = time.time() - t0
    ok = ok_two and ok_none
    record_criterion(
        12,
        ok,
        f"two spikes: rank 2 in {freq_two:.0%} (>= 90%); "
        f"no spikes: rank 1 in {freq_none:.0%} (>= 90%), {elapsed:.0f}s",
    )
    assert ok
