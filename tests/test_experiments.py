"""Experiment harness: statistics, reports, determinism."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from rectconv import (
    ExperimentConfig,
    ExperimentReport,
    ModelParams,
    Thresholds,
    TrialRecord,
    bbp_experiment,
    classical_locations,
    delocalization_experiment,
    edge_universality_experiment,
    eta_lower,
    find_right_edge,
    local_law_experiment,
    make_spectrum,
    rank_estimator,
    rank_experiment,
    report_to_json,
    rigidity_experiment,
    run_trial,
    t1_null_experiment,
    t1_statistic,
    write_report_csv,
)
from rectconv import experiments
from rectconv.experiments import _plant


def _record(values):
    return TrialRecord(seed=0, kind="gaussian", singular_values_sq=np.asarray(values, float))


# ---------------------------------------------------------------------------
# detection statistics on crafted spectra


def test_t1_statistic_crafted():
    assert t1_statistic(_record([5.0, 3.0, 1.0])) == pytest.approx(1.0)
    assert t1_statistic(_record([9.0, 5.0, 4.0, 1.0])) == pytest.approx(4.0)


def test_t1_statistic_needs_three():
    with pytest.raises(ValueError):
        t1_statistic(_record([2.0, 1.0]))


def test_rank_estimator_two_spikes():
    # clear gaps after the second value, tiny gap after the third
    mu = [9.0, 4.0, 1.0, 0.99, 0.98, 0.97]
    assert rank_estimator(_record(mu), omega=0.05, ell=3) == 2


def test_rank_estimator_single_spike():
    mu = [10.0, 1.01, 1.0, 0.99]
    assert rank_estimator(_record(mu), omega=0.05, ell=2) == 1


def test_rank_estimator_saturates_at_ell():
    mu = [100.0, 50.0, 25.0, 12.5, 6.25]
    assert rank_estimator(_record(mu), omega=0.05, ell=3) == 3


def test_rank_estimator_validation():
    with pytest.raises(ValueError):
        rank_estimator(_record([3.0, 2.0, 1.0]), omega=0.05, ell=5)
    with pytest.raises(ValueError):
        rank_estimator(_record([3.0, 2.0, 1.0, 0.5]), omega=0.0, ell=2)


def test_plant_replaces_smallest():
    spec = make_spectrum([5.0, 4.0, 3.0, 2.0, 1.0])
    spiked = _plant(spec, [10.0, 0.5])
    assert spiked.p == 5
    assert np.array_equal(spiked.values, [10.0, 5.0, 4.0, 3.0, 0.5])
    unchanged = _plant(spec, [])
    assert np.array_equal(unchanged.values, spec.values)
    with pytest.raises(ValueError):
        _plant(make_spectrum([1.0]), [2.0, 3.0])


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_trials_and_kind():
    spec = make_spectrum([0.0] * 10)
    params = ModelParams(p=10, n=20, t=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(spec=spec, params=params, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(spec=spec, params=params, kinds=("uniform",))
    # every stream maps through a pool of cfg.threads workers
    with pytest.raises(ValueError, match="threads"):
        ExperimentConfig(spec=spec, params=params, threads=0)


# ---------------------------------------------------------------------------
# small end-to-end runs


def _small_cfg(**kw):
    p, n = kw.pop("p", 50), kw.pop("n", 100)
    t = kw.pop("t", float(n) ** (-1.0 / 6.0))
    spec = make_spectrum([0.0] * p)
    params = ModelParams(p=p, n=n, t=t)
    return ExperimentConfig(spec=spec, params=params, **kw)


# ---------------------------------------------------------------------------
# BLAS pinned to one thread inside trial streams


@pytest.fixture
def blas_threads():
    """Thread-count getter of numpy's OpenBLAS, set to 2 for the test."""
    handle = experiments._openblas_threads()
    if handle is None:
        pytest.skip("numpy links a BLAS without the scipy-openblas thread symbols")
    get, set_, _ = handle
    old = get()
    set_(2)
    yield get
    set_(old)


def _spy_trials(monkeypatch, probe):
    """Record probe() inside every trial, from whichever thread runs it.

    Vector trials go through run_trial one at a time and values-only
    trials through _values_trials a chunk at a time; each records one
    probe per trial.
    """
    seen = []
    run_trial, values_trials = experiments.run_trial, experiments._values_trials

    def spy_trial(*args):
        seen.append(probe())
        return run_trial(*args)

    def spy_values(spec, params, kind, seeds):
        seen.extend(probe() for _ in seeds)
        return values_trials(spec, params, kind, seeds)

    monkeypatch.setattr(experiments, "run_trial", spy_trial)
    monkeypatch.setattr(experiments, "_values_trials", spy_values)
    return seen


def test_one_blas_thread_restores_count(blas_threads):
    with experiments._one_blas_thread():
        assert blas_threads() == 1
    assert blas_threads() == 2


def test_one_blas_thread_leaves_blas_working(blas_threads):
    # parking ends the idle workers; the next 2-thread call starts them again
    a = np.random.default_rng(0).standard_normal((400, 400))
    with experiments._one_blas_thread():
        one = a @ a
    assert blas_threads() == 2
    np.testing.assert_allclose(a @ a, one, rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("threads", [1, 3])
def test_stream_pins_blas_once(blas_threads, monkeypatch, threads):
    get, set_, park = experiments._openblas_threads()
    calls = []
    monkeypatch.setattr(
        experiments,
        "_openblas_threads",
        lambda: (get, lambda k: (calls.append(k), set_(k)), lambda: (calls.append("park"), park())),
    )
    seen = _spy_trials(monkeypatch, blas_threads)
    cfg = _small_cfg(p=10, n=20, trials=6, threads=threads)
    for want_vectors in (False, True):
        calls.clear()
        seen.clear()
        records = experiments._run_stream(cfg, cfg.spec, "gaussian", 0, want_vectors)
        assert len(records) == 6
        assert seen == [1] * 6
        # process-wide setting: once on entry and once on exit, never per
        # trial, each followed by parking the idle workers
        assert calls == [1, "park", 2, "park"]
        assert blas_threads() == 2


def test_pooled_stream_restores_blas_when_a_trial_raises(blas_threads, monkeypatch):
    def fail(*args):
        raise FloatingPointError("trial failed")

    monkeypatch.setattr(experiments, "run_trial", fail)
    monkeypatch.setattr(experiments, "_values_trials", fail)
    cfg = _small_cfg(p=10, n=20, trials=6, threads=3)
    for want_vectors in (False, True):
        with pytest.raises(FloatingPointError, match="trial failed"):
            experiments._run_stream(cfg, cfg.spec, "gaussian", 0, want_vectors)
        assert blas_threads() == 2


def test_stream_runs_without_openblas_symbols(monkeypatch):
    handle = experiments._openblas_threads()
    probe = handle[0] if handle is not None else (lambda: None)
    before = probe()
    monkeypatch.setattr(experiments, "_openblas_threads", lambda: None)
    seen = _spy_trials(monkeypatch, probe)
    cfg = _small_cfg(p=10, n=20, trials=4, threads=2)
    records = experiments._run_stream(cfg, cfg.spec, "gaussian", 0)
    assert [r.seed for r in records] == [
        experiments.derive_seed(cfg.base_seed, 0, i) for i in range(4)
    ]
    # another BLAS build keeps its own setting
    assert seen == [before] * 4
    assert probe() == before


@pytest.fixture
def openblas_without_park(monkeypatch):
    """_openblas_threads resolved from a library that lacks blas_thread_shutdown_."""
    if experiments._openblas_threads() is None:
        pytest.skip("numpy links a BLAS without the scipy-openblas thread symbols")
    real = experiments.ctypes.CDLL

    class NoPark:
        def __init__(self, path):
            self._lib = real(path)

        def __getattr__(self, name):
            if name == "blas_thread_shutdown_":
                raise AttributeError(name)
            return getattr(self._lib, name)

    monkeypatch.setattr(experiments.ctypes, "CDLL", NoPark)
    experiments._openblas_threads.cache_clear()
    try:
        yield experiments._openblas_threads()
    finally:
        experiments._openblas_threads.cache_clear()


def test_stream_pins_blas_without_park_symbol(openblas_without_park, monkeypatch):
    get, set_, park = openblas_without_park
    old = get()
    set_(2)
    try:
        assert park() is None
        seen = _spy_trials(monkeypatch, get)
        cfg = _small_cfg(p=10, n=20, trials=5, threads=2)
        rows = experiments._run_stream(cfg, cfg.spec, "gaussian", 0, reduce=lambda rec: rec.seed)
        assert rows == [experiments.derive_seed(cfg.base_seed, 0, i) for i in range(5)]
        assert seen == [1] * 5
        assert get() == 2
    finally:
        set_(old)


@pytest.mark.parametrize("threads", [1, 3])
def test_stream_reducer_rows_in_seed_order(threads):
    cfg = _small_cfg(p=10, n=20, trials=7, threads=threads)
    rows = experiments._run_stream(
        cfg, cfg.spec, "gaussian", 0, reduce=lambda rec: (rec.seed, rec.singular_values_sq.tobytes())
    )
    assert [seed for seed, _ in rows] == [experiments.derive_seed(cfg.base_seed, 0, i) for i in range(7)]
    records = experiments._run_stream(replace(cfg, threads=1), cfg.spec, "gaussian", 0)
    assert rows == [(r.seed, r.singular_values_sq.tobytes()) for r in records]


@pytest.mark.parametrize("trials", [1, 7, 17, 20])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_chunked_values_stream_matches_one_trial_per_seed(threads, trials):
    cfg = _small_cfg(p=30, n=60, trials=trials, threads=threads)
    records = experiments._run_stream(cfg, cfg.spec, "trinary", 4)
    seeds = [experiments.derive_seed(cfg.base_seed, 4, i) for i in range(trials)]
    assert [r.seed for r in records] == seeds
    with experiments._one_blas_thread():
        expected = [run_trial(cfg.spec, cfg.params, "trinary", seed) for seed in seeds]
    assert all(r.kind == "trinary" and r.left_vectors is None for r in records)
    assert [r.singular_values_sq.tobytes() for r in records] == [
        e.singular_values_sq.tobytes() for e in expected
    ]


@pytest.mark.parametrize(
    "trials, threads, sizes",
    [(20, 2, [5] * 4), (17, 2, [5, 4, 4, 4]), (7, 3, [3, 2, 2]), (1, 3, [1]), (17, 1, [6, 6, 5]), (16, 1, [8, 8])],
)
def test_stream_chunks(trials, threads, sizes):
    seeds = list(range(trials))
    chunks = experiments._chunks(seeds, threads)
    assert [len(c) for c in chunks] == sizes
    assert [s for c in chunks for s in c] == seeds


@pytest.mark.parametrize("threads", [1, 3])
def test_stream_reducer_runs_under_blas_pin(blas_threads, threads):
    cfg = _small_cfg(p=10, n=20, trials=5, threads=threads)
    for want_vectors in (True, False):
        seen = experiments._run_stream(
            cfg, cfg.spec, "gaussian", 0, want_vectors=want_vectors, reduce=lambda rec: blas_threads()
        )
        assert seen == [1] * 5
        assert blas_threads() == 2


def test_rigidity_structure():
    cfg = _small_cfg(trials=8, k_max=5, base_seed=7)
    rep = rigidity_experiment(cfg)
    assert rep.name == "rigidity"
    assert isinstance(rep.pass_, bool)
    assert len(rep.per_trial) == 8
    s = rep.summary
    assert 1 <= s["ranks_used"] <= 5
    assert s["ratio_p50"] <= s["ratio_p95"] <= s["ratio_max"]
    assert s["max_ratio_p95"] <= s["ratio_max"] + 1e-12
    assert s["threshold"] == Thresholds().C_rigid
    worst = max(row["max_ratio"] for row in rep.per_trial)
    assert s["ratio_max"] == pytest.approx(worst)


def test_rigidity_deterministic_across_threads():
    a = rigidity_experiment(_small_cfg(trials=6, k_max=4, threads=1))
    b = rigidity_experiment(_small_cfg(trials=6, k_max=4, threads=3))
    assert report_to_json(a) == report_to_json(b)
    assert a.per_trial == b.per_trial


def _mp_unit_cdf(x):
    # distribution function of the all-zero, c = 1, t = 1 law on [0, 4]
    return (2.0 / np.pi) * np.arcsin(np.sqrt(x) / 2.0) + np.sqrt(x * (4.0 - x)) / (2.0 * np.pi)


def test_rigidity_measures_from_cell_centres(mp_unit):
    spec, params = mp_unit
    p, n = params.p, params.n
    cfg = ExperimentConfig(spec=spec, params=params, trials=6, base_seed=3, k_max=5)
    rep = rigidity_experiment(cfg)
    s = rep.summary
    m = s["ranks_used"]
    ref, env = np.array(s["reference"]), np.array(s["envelope"])
    assert m >= 2 and ref.shape == env.shape == (m,)

    # reference k sits at right mass (k - 1/2)/p: the centre of the quantile cell
    for k in range(1, m + 1):
        exact = brentq(
            lambda x: _mp_unit_cdf(x) - (1.0 - (k - 0.5) / p), 1e-12, 4.0 - 1e-12, xtol=1e-14
        )
        assert abs(ref[k - 1] - exact) <= 1e-6

    # the envelope is still taken at the cell edges gamma_k
    edge = find_right_edge(spec, params)
    gamma = classical_locations(spec, params, m, edge).gamma
    ks = np.arange(1, m + 1)
    expected_env = n ** (-2.0 / 3.0) * ks ** (-1.0 / 3.0) + np.array(
        [eta_lower(params, edge.lambda_plus - g) for g in gamma]
    )
    np.testing.assert_allclose(env, expected_env, rtol=1e-9)

    for row in rep.per_trial:
        lam = run_trial(spec, params, "gaussian", row["seed"]).singular_values_sq[:m]
        ratios = np.abs(lam - ref) / env
        assert row["max_ratio"] == pytest.approx(ratios.max(), rel=1e-12)
        assert row["r1"] == pytest.approx(ratios[0], rel=1e-12)


def test_universality_structure():
    cfg = _small_cfg(p=40, n=80, trials=40, kinds=("gaussian", "rademacher"))
    rep = edge_universality_experiment(cfg)
    assert rep.name == "universality"
    s = rep.summary
    assert 0.0 <= s["ks"] <= 1.0 and 0.0 <= s["ks_control"] <= 1.0
    assert len(rep.per_trial) == 40
    # rescaled statistics are O(1)
    assert abs(s["mean_a"]) < 20 and abs(s["mean_b"]) < 20


def test_universality_needs_two_kinds():
    with pytest.raises(ValueError):
        edge_universality_experiment(_small_cfg(trials=4))


def test_t1_null_structure():
    cfg = _small_cfg(p=30, n=60, trials=30, kinds=("gaussian", "trinary"))
    rep = t1_null_experiment(cfg)
    assert rep.name == "t1-null"
    assert {"ks", "median_a", "median_b", "ks_budget"} <= set(rep.summary)
    assert len(rep.per_trial) == 30


def test_t1_null_needs_two_kinds():
    with pytest.raises(ValueError):
        t1_null_experiment(_small_cfg(trials=4))


def _scipy_ks(a, b) -> float:
    with warnings.catch_warnings():
        # the exact p-value can fail to converge; the statistic is set before
        warnings.filterwarnings("ignore", "ks_2samp: Exact calculation unsuccessful", RuntimeWarning)
        return scipy.stats.ks_2samp(a, b).statistic


def _ks_sample(rng, n: int, levels: int, shift: float, n_inf: int) -> np.ndarray:
    x = rng.integers(0, levels, n) + shift if levels else rng.normal(shift, 1.0, n)
    x = x.astype(float)
    x[rng.permutation(n)[:n_inf]] = rng.choice([-np.inf, np.inf], min(n, n_inf))
    return x


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n1=st.integers(1, 80),
    n2=st.integers(1, 80),
    seed=st.integers(0, 2**16),
    levels=st.sampled_from([0, 2, 5, 20]),
    shift=st.sampled_from([0.0, 0.3, 1.0]),
    n_inf=st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
def test_ks_2samp_matches_scipy_bits(n1, n2, seed, levels, shift, n_inf):
    # levels > 0 draws integers, so both samples share values (ties)
    rng = np.random.default_rng(seed)
    a = _ks_sample(rng, n1, levels, 0.0, n_inf[0])
    b = _ks_sample(rng, n2, levels, shift, n_inf[1])
    got = experiments.ks_2samp(a, b)
    assert type(got) is float
    assert got == _scipy_ks(a, b)


@pytest.mark.parametrize("n1, n2", [(10_000, 9_999), (10_001, 9_999)], ids=["exact", "asymptotic"])
def test_ks_2samp_matches_scipy_at_mode_switch(n1, n2):
    # scipy rounds the statistic to a multiple of 1/lcm(n1, n2) only while
    # max(n1, n2) <= 10,000
    rng = np.random.default_rng(31)
    a, b = rng.normal(0.0, 1.0, n1), rng.normal(0.02, 1.0, n2)
    assert experiments.ks_2samp(a, b) == _scipy_ks(a, b)


@pytest.mark.parametrize("where", ["a", "b", "both"])
def test_ks_2samp_nan_propagates(where):
    a, b = np.random.default_rng(3).standard_normal((2, 20))
    if where in ("a", "both"):
        a[5] = np.nan
    if where in ("b", "both"):
        b[0] = np.nan
    assert np.isnan(experiments.ks_2samp(a, b))
    assert np.isnan(_scipy_ks(a, b))


def test_ks_2samp_rejects_empty():
    with pytest.raises(ValueError):
        experiments.ks_2samp([], [1.0])


def test_local_law_structure():
    cfg = _small_cfg(p=60, n=120, trials=5, base_seed=3)
    edge = find_right_edge(cfg.spec, cfg.params)
    lam = edge.lambda_plus
    cfg = ExperimentConfig(
        spec=cfg.spec,
        params=cfg.params,
        trials=5,
        base_seed=3,
        z_grid=(complex(lam, 0.5), complex(lam + 0.02, 0.8)),
    )
    rep = local_law_experiment(cfg)
    assert rep.name == "locallaw"
    s = rep.summary
    assert len(s["grid"]) == 2
    assert s["avg_p95"] <= s["avg_max"]
    assert s["aniso_p95"] <= s["aniso_max"]
    assert len(rep.per_trial) == 5
    for row in rep.per_trial:
        assert row["avg_max"] >= 0 and row["aniso_max"] >= 0


def test_local_law_rejects_out_of_domain_grid():
    cfg = _small_cfg(trials=2)
    edge = find_right_edge(cfg.spec, cfg.params)
    bad = ExperimentConfig(
        spec=cfg.spec,
        params=cfg.params,
        trials=2,
        z_grid=(complex(edge.lambda_plus, 1e-8),),
    )
    with pytest.raises(ValueError):
        local_law_experiment(bad)


def test_delocalization_structure():
    cfg = _small_cfg(p=40, n=80, trials=5, k_max=4, base_seed=9)
    rep = delocalization_experiment(cfg)
    assert rep.name == "delocalization"
    s = rep.summary
    assert s["panel"] == ["e1", "e21", "e40", "random"]
    assert 0 <= s["ratio_p50"] <= s["ratio_p95"] <= s["ratio_max"]
    assert len(rep.per_trial) == 5


def test_bbp_supercritical_branch():
    cfg = _small_cfg(p=30, n=60, t=0.5, trials=20, base_seed=17)
    rep = bbp_experiment(cfg, spike=2.0)
    s = rep.summary
    assert s["supercritical"] is True
    assert s["prediction"] > find_right_edge(cfg.spec, cfg.params).lambda_plus
    assert s["median_error"] >= 0.0
    assert rep.pass_ == (s["median_error"] <= s["bound"])


def test_bbp_subcritical_branch():
    cfg = _small_cfg(p=30, n=60, t=0.5, trials=20, base_seed=17)
    rep = bbp_experiment(cfg, spike=0.01)
    s = rep.summary
    assert s["supercritical"] is False
    assert s["prediction"] == pytest.approx(
        find_right_edge(cfg.spec, cfg.params).lambda_plus
    )
    # sticking envelope is wider than the detachment one at same n
    assert s["bound"] > 0


def test_rank_experiment_structure():
    cfg = _small_cfg(p=30, n=60, t=1.0, trials=20, base_seed=23, omega=0.1, ell=5)
    rep = rank_experiment(cfg, spikes=(3.0, 2.5))
    s = rep.summary
    assert s["expected_rank"] == 2
    assert 0.0 <= s["frequency"] <= 1.0
    assert set(s["omega_sweep"]) == {"0.02", "0.05", "0.1", "0.2"}
    assert all(0.0 <= v <= 1.0 for v in s["omega_sweep"].values())
    assert len(rep.per_trial) == 20
    for row in rep.per_trial:
        assert 1 <= row["estimate"] <= 5


def test_rank_experiment_pure_noise_expects_one():
    cfg = _small_cfg(p=30, n=60, t=1.0, trials=10, base_seed=29)
    rep = rank_experiment(cfg, spikes=())
    assert rep.summary["expected_rank"] == 1
    assert rep.summary["spikes"] == []


# ---------------------------------------------------------------------------
# reports


def test_report_to_json_stable_and_loadable():
    cfg = _small_cfg(trials=4, k_max=3)
    rep = rigidity_experiment(cfg)
    s1, s2 = report_to_json(rep), report_to_json(rep)
    assert s1 == s2
    doc = json.loads(s1)
    assert set(doc) == {"name", "config", "summary", "pass"}
    assert doc["config"]["trials"] == 4


def test_write_report_csv(tmp_path):
    cfg = _small_cfg(trials=4, k_max=3)
    rep = rigidity_experiment(cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(str(a), rep)
    write_report_csv(str(b), rep)
    raw = a.read_text().splitlines()
    assert raw[0] == ",".join(rep.per_trial[0].keys())
    assert len(raw) == 1 + len(rep.per_trial)
    assert a.read_bytes() == b.read_bytes()


def test_write_report_csv_rejects_empty(tmp_path):
    rep = ExperimentReport(name="x", config={}, summary={}, per_trial=[], pass_=True)
    with pytest.raises(ValueError):
        write_report_csv(str(tmp_path / "x.csv"), rep)
