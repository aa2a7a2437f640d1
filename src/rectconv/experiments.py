"""Monte-Carlo experiments checking the edge theory against simulation.

Each experiment compares empirical spectra of the signal-plus-noise model
against deterministic predictions (classical locations, edge law,
deterministic equivalent) and reduces to a single pass/fail against a
frozen threshold.  Trials are data-parallel with per-trial derived seeds,
and each stream runs numpy's BLAS on one thread, so reports are
byte-identical across Python and BLAS thread counts.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .edge import EdgeData, find_right_edge, outlier_location, bbp_threshold
from .ensemble import NOISE_KINDS, TrialRecord, _values_trials, derive_seed, pi_quadratic_form, pi_split_norm, resolvent_quadratic_form, run_trial
from .freeconv import ConvolutionPoint, SolverConfig, SolverError, solve_many
from .quantiles import _locations, classical_locations, eta_lower, in_domain
from .spectrum import ModelParams, Spectrum, make_spectrum
from .stieltjes import _atom_sums

__all__ = [
    "Thresholds",
    "ExperimentConfig",
    "ExperimentReport",
    "rigidity_experiment",
    "edge_universality_experiment",
    "delocalization_experiment",
    "local_law_experiment",
    "t1_statistic",
    "rank_estimator",
    "t1_null_experiment",
    "bbp_experiment",
    "rank_experiment",
    "report_to_json",
    "write_report_csv",
]


@dataclass(frozen=True)
class Thresholds:
    """Frozen acceptance bounds, one per experiment statistic.

    The theorems hold up to unspecified constants and n^eps factors; each
    C_* stands in for that slack as a fixed multiple of the statistic's
    scale, and the budgets and rates bound a distance or a frequency
    directly.  They belong to the frozen acceptance contract and are not
    refitted when a measured value moves.
    """

    C_rigid: float = 5.0  # rigidity: deviations in envelope units
    ks_budget: float = 0.08  # universality and t1 null: KS distance across noise kinds
    ks_control_budget: float = 0.05  # universality: KS distance of a same-kind control pair
    C_avg: float = 10.0  # local law: averaged resolvent error times n eta
    C_aniso: float = 10.0  # local law: anisotropic resolvent error in control units
    C_deloc: float = 10.0  # delocalization: squared overlap in units of its bound
    C_bbp: float = 5.0  # bbp: median outlier error in units of its n-power rate
    rank_rate: float = 0.9  # rank estimator: required frequency of the correct rank


@dataclass(frozen=True)
class ExperimentConfig:
    spec: Spectrum
    params: ModelParams
    kinds: tuple = ("gaussian",)
    trials: int = 100
    base_seed: int = 1
    k_max: int = 20
    vartheta: float = 0.1
    omega: float = 0.05
    ell: int = 10
    threads: int = 1
    z_grid: tuple | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    thresholds: Thresholds = field(default_factory=Thresholds)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        for kind in self.kinds:
            if kind not in NOISE_KINDS:
                raise ValueError(f"unknown noise kind {kind!r}")


@dataclass
class ExperimentReport:
    name: str
    config: dict
    summary: dict
    per_trial: list
    pass_: bool


def _report(name: str, cfg: ExperimentConfig, summary: dict, per_trial: list, ok) -> ExperimentReport:
    """The report of experiment name run on cfg, which passes when ok holds."""
    config = {
        "p": cfg.params.p,
        "n": cfg.params.n,
        "t": cfg.params.t,
        "kinds": list(cfg.kinds),
        "trials": cfg.trials,
        "base_seed": cfg.base_seed,
    }
    return ExperimentReport(name, config, summary, per_trial, bool(ok))


@functools.cache
def _openblas_threads():
    """(get, set, park) functions of numpy's bundled OpenBLAS, or None.

    get and set read and set the thread count.  park is OpenBLAS's own
    blas_thread_shutdown_ (its fork handler calls it): it ends the idle
    worker threads, and the next multi-threaded call starts them again.
    park does nothing where the library does not export it.  Resolved on
    first use, so importing the package loads nothing.  None when numpy
    links another BLAS build, which then keeps its own setting.
    """
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        park = getattr(lib, "blas_thread_shutdown_", None)
        if park is None:
            return get, set_, lambda: None
        park.argtypes, park.restype = [], ctypes.c_int
        return get, set_, park
    return None


@contextmanager
def _one_blas_thread():
    """Run numpy's OpenBLAS on one thread inside the block, then restore it.

    The trial pool is the one layer of parallelism: BLAS threads under it
    would oversubscribe the cores, and OpenBLAS splits sums differently
    with the thread count, which would change report bytes.  Idle OpenBLAS
    workers are parked after each setting: after a multi-threaded call a
    worker spins for about 130 ms, and a lower count does not stop it, so
    it would take a core from the pool; restoring the count starts the
    workers again, and they would spin as long.  The count and the parking
    are process-wide, so both happen once around a whole stream, never per
    trial from the pool threads.
    """
    handle = _openblas_threads()
    if handle is None:
        yield
        return
    get, set_, park = handle
    old = get()
    set_(1)
    park()
    try:
        yield
    finally:
        set_(old)
        park()


_STACK = 8  # most values-only trials one pool task eigensolves at once


def _chunks(seeds: list, threads: int) -> list:
    """Contiguous runs of seeds, one pool task each.

    None is longer than _STACK, and there are as many as a multiple of
    threads where the seeds allow, so the pool's threads get equal work;
    lengths differ by at most one.
    """
    count = min(len(seeds), threads * -(-len(seeds) // (_STACK * threads)))
    k, r = divmod(len(seeds), count)
    ends = [i * k + min(i, r) for i in range(count + 1)]
    return [seeds[a:b] for a, b in zip(ends, ends[1:])]


def _run_stream(cfg: ExperimentConfig, spec: Spectrum, kind: str, stream: int, want_vectors=False, reduce=None):
    """The stream's trials in seed order, or reduce(record) of each one.

    A pool task is a contiguous chunk of the stream's seeds (_chunks).
    Values-only trials are eigensolved in one stack per chunk
    (ensemble._values_trials), since numpy's eigvalsh holds the GIL unless
    (matrices x p) exceeds 500, and unstacked trials would run one at a
    time however many threads the pool has.  Trials with vectors take one
    eigh each, which releases the GIL already; a stack of their U and Y
    would only raise memory.  A reducer runs on the pool thread
    right after each record is made, under the same BLAS pin, so the
    stream holds its rows and never the records.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, so importing the package loads no pool

    seeds = [derive_seed(cfg.base_seed, stream, i) for i in range(cfg.trials)]

    def work(chunk: list) -> list:
        if want_vectors:
            records = (run_trial(spec, cfg.params, kind, seed, True) for seed in chunk)
        else:
            records = _values_trials(spec, cfg.params, kind, chunk)
        return [rec if reduce is None else reduce(rec) for rec in records]

    with _one_blas_thread(), ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return [row for rows in pool.map(work, _chunks(seeds, cfg.threads)) for row in rows]


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def ks_2samp(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b| of the empirical CDFs.

    The bits of scipy.stats.ks_2samp(a, b).statistic from numpy alone:
    importing scipy.stats takes tens of MB and about half a second, and the
    p-value it computes is not used.  Up to 10,000 points a sample scipy's
    exact mode rounds the distance to a multiple of 1/lcm(n1, n2), and so
    does this.  A NaN in either sample gives nan, as scipy's default
    nan_policy="propagate" does; an empty sample raises ValueError.
    A module-level name, so that a profiler can wrap it here.
    """
    a, b = np.sort(a), np.sort(b)
    n1, n2 = len(a), len(b)
    if min(n1, n2) == 0:
        raise ValueError("ks_2samp needs two non-empty samples")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # sorting puts NaN last
        return float("nan")
    both = np.concatenate([a, b])
    diff = np.searchsorted(a, both, side="right") / n1 - np.searchsorted(b, both, side="right") / n2
    lo, hi = np.clip(-diff.min(), 0, 1), diff.max()
    d = float(lo if lo > hi else hi)
    if max(n1, n2) <= 10_000:
        lcm = n1 // math.gcd(n1, n2) * n2
        d = int(np.round(d * lcm)) * 1.0 / lcm
    return d


# ---------------------------------------------------------------------------
# control parameters of the local laws


def _psi(params: ModelParams, point: ConvolutionPoint) -> float:
    eta = point.z.imag
    return float(np.sqrt(max(point.m.imag, 0.0) / (params.n * eta)) + 1.0 / (params.n * eta))


def _varpi(params: ModelParams, edge: EdgeData, z: complex) -> float:
    t = params.t
    kappa = abs(z.real - edge.lambda_plus)
    if z.real <= edge.lambda_plus:
        return t * t + z.imag + t * np.sqrt(kappa + z.imag)
    return t * t + kappa + z.imag


def _phi_control(params: ModelParams, edge: EdgeData, point: ConvolutionPoint) -> float:
    t = params.t
    num = t * _psi(params, point) + np.sqrt(t / params.n)
    return float(num / _varpi(params, edge, point.z))


# ---------------------------------------------------------------------------
# experiments


def rigidity_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Normalized |lambda_k - ref_k| against the rigidity envelope.

    gamma_k (right mass (k-1)/p) is the upper edge of the k-th eigenvalue's
    quantile cell; lambda_k is measured from the cell's centre ref_k, the
    point with right mass (k - 1/2)/p.  The envelope is
    n^(-2/3) k^(-1/3) + eta_l(gamma_k); each trial is summarized by its
    worst rank, and the gate is the 95th percentile of that per-trial
    maximum.  Pooled ratio quantiles are reported alongside.
    """
    spec, params = cfg.spec, cfg.params
    edge = find_right_edge(spec, params)
    k_max = cfg.k_max
    if not (1 <= k_max <= params.p):
        raise ValueError(f"k_max must lie in [1, p], got {k_max}")
    ks = np.arange(1, k_max + 1)
    # one call serves the cell edges and the cell centres
    targets = np.concatenate([ks - 1.0, ks - 0.5]) / params.p
    locs, _ = _locations(spec, params, edge, targets, cfg.solver)
    lam = edge.lambda_plus
    keep = locs[:k_max] > lam - 0.25 * lam  # stay near the edge where the law holds
    ks = ks[keep]
    gamma = locs[:k_max][keep]
    ref = locs[k_max:][keep]
    eta_l = np.array([eta_lower(params, lam - g) for g in gamma])
    envelope = float(params.n) ** (-2.0 / 3.0) * ks ** (-1.0 / 3.0) + eta_l

    records = _run_stream(cfg, spec, cfg.kinds[0], 0)
    ratios = [np.abs(rec.singular_values_sq[:k_max][keep] - ref) / envelope for rec in records]
    per_trial = [
        {"trial": i, "seed": rec.seed, "max_ratio": float(r.max()), "r1": float(r[0])}
        for i, (rec, r) in enumerate(zip(records, ratios))
    ]
    pooled = np.concatenate(ratios)
    p95 = _percentile([row["max_ratio"] for row in per_trial], 95.0)
    summary = {
        "lambda_plus": lam,
        "ranks_used": int(keep.sum()),
        "ratio_p50": _percentile(pooled, 50.0),
        "ratio_p95": _percentile(pooled, 95.0),
        "max_ratio_p95": p95,
        "ratio_max": float(pooled.max()),
        "threshold": cfg.thresholds.C_rigid,
        "reference": ref.tolist(),
        "envelope": envelope.tolist(),
    }
    return _report("rigidity", cfg, summary, per_trial, p95 <= cfg.thresholds.C_rigid)


def _two_kinds(cfg: ExperimentConfig, stat, what: str):
    """stat of each trial of kind a on stream 0 and of kind b on stream 1.

    Checks for two kinds before any trial runs, and applies stat on the
    calling thread.  Returns both samples and their per-trial rows.
    """
    if len(cfg.kinds) < 2:
        raise ValueError(f"{what} needs two noise kinds")
    a, b = (
        np.array([stat(r) for r in _run_stream(cfg, cfg.spec, kind, stream)])
        for stream, kind in enumerate(cfg.kinds[:2])
    )
    rows = [{"trial": i, "stat_a": float(x), "stat_b": float(y)} for i, (x, y) in enumerate(zip(a, b))]
    return a, b, rows


def edge_universality_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Distributional match of the rescaled top eigenvalue across noise kinds.

    Compares n^(2/3) (lambda_1 - lambda_+) between the first two configured
    kinds by the two-sample KS distance, with a same-kind disjoint-seed
    control pair guarding against a miscalibrated budget.
    """
    spec, params = cfg.spec, cfg.params
    scale = float(params.n) ** (2.0 / 3.0)

    @functools.cache
    def lambda_plus() -> float:  # solved on first use, once _two_kinds has found two kinds
        return find_right_edge(spec, params).lambda_plus

    def top(rec: TrialRecord) -> float:
        return scale * (rec.singular_values_sq[0] - lambda_plus())

    sample_a, sample_b, per_trial = _two_kinds(cfg, top, "universality")
    control = np.array([top(r) for r in _run_stream(cfg, spec, cfg.kinds[0], 2)])
    ks_ab = ks_2samp(sample_a, sample_b)
    ks_control = ks_2samp(sample_a, control)
    summary = {
        "lambda_plus": lambda_plus(),
        "ks": ks_ab,
        "ks_control": ks_control,
        "mean_a": float(sample_a.mean()),
        "mean_b": float(sample_b.mean()),
        "var_a": float(sample_a.var()),
        "var_b": float(sample_b.var()),
        "ks_budget": cfg.thresholds.ks_budget,
        "ks_control_budget": cfg.thresholds.ks_control_budget,
    }
    ok = ks_ab <= cfg.thresholds.ks_budget and ks_control <= cfg.thresholds.ks_control_budget
    return _report("universality", cfg, summary, per_trial, ok)


def _deloc_panel(params: ModelParams, base_seed: int):
    p = params.p
    panel = []
    for idx in (0, p // 2, p - 1):
        e = np.zeros(p)
        e[idx] = 1.0
        panel.append((f"e{idx + 1}", e))
    gen = np.random.Generator(np.random.Philox(key=derive_seed(base_seed, 97, 0)))
    u = gen.standard_normal(p)
    panel.append(("random", u / np.linalg.norm(u)))
    return panel


def delocalization_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Squared overlaps of edge left singular vectors against the equivalent's bound.

    For each rank k the bound is eta_l(gamma_k) * [Im Pi_uu(z_k) +
    control(z_k) * ||u||_Pi(z_k)] at z_k = gamma_k + i eta_l(gamma_k).
    """
    spec, params = cfg.spec, cfg.params
    n, p = params.n, params.p
    edge = find_right_edge(spec, params)
    table = classical_locations(spec, params, cfg.k_max, edge, cfg.solver)
    eta_l = np.array([eta_lower(params, edge.lambda_plus - g) for g in table.gamma])
    z_k = table.gamma + 1j * eta_l
    points = solve_many(spec, params, z_k, cfg.solver)
    panel = _deloc_panel(params, cfg.base_seed)

    bounds = np.empty((len(panel), cfg.k_max))
    for k in range(cfg.k_max):
        ctrl = _phi_control(params, edge, points[k])
        for a, (_, u) in enumerate(panel):
            ue = np.concatenate([u, np.zeros(n)])
            im_pi = pi_quadratic_form(spec, params, points[k], ue, ue).imag
            bounds[a, k] = eta_l[k] * (im_pi + ctrl * pi_split_norm(spec, params, points[k], ue))
    if np.any(bounds <= 0):
        a, k = np.argwhere(bounds <= 0)[0]
        raise SolverError(
            f"nonpositive delocalization bound {bounds[a, k]:.3e} for panel vector "
            f"{panel[a][0]} at rank k={k + 1}, z_k={z_k[k]:.17g}"
        )
    P = np.array([u for _, u in panel])

    def ratios(rec: TrialRecord):
        return rec.seed, (P @ rec.left_vectors[:, : cfg.k_max]) ** 2 / bounds

    rows = _run_stream(cfg, spec, cfg.kinds[0], 0, want_vectors=True, reduce=ratios)
    per_trial = [{"trial": i, "seed": seed, "max_ratio": float(r.max())} for i, (seed, r) in enumerate(rows)]
    pooled = np.concatenate([r.ravel() for _, r in rows])
    p95 = _percentile(pooled, 95.0)
    summary = {
        "ratio_p50": _percentile(pooled, 50.0),
        "ratio_p95": p95,
        "ratio_max": float(pooled.max()),
        "panel": [name for name, _ in panel],
        "threshold": cfg.thresholds.C_deloc,
    }
    return _report("delocalization", cfg, summary, per_trial, p95 <= cfg.thresholds.C_deloc)


def _default_z_grid(params: ModelParams, edge: EdgeData) -> tuple:
    lam = edge.lambda_plus
    etas = (float(params.n) ** -0.4, 0.2, 0.5, 1.0)
    return tuple(
        complex(E, eta) for E in (lam - 0.1, lam, lam + 0.05) for eta in etas
    )


def local_law_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Averaged and anisotropic residuals of the resolvent on a spectral grid.

    The averaged statistic is |m_hat - m| * n * eta; the anisotropic one
    normalizes |u^T (G - Pi) v| by (t Psi + sqrt(t/n)) ||u||_Pi ||v||_Pi
    for a fixed random unit pair, from each trial's U and Y (see
    resolvent_quadratic_form).  Every grid point must lie in the
    domain where the bounds are asserted.
    """
    spec, params = cfg.spec, cfg.params
    p, n = params.p, params.n
    edge = find_right_edge(spec, params)
    grid = cfg.z_grid or _default_z_grid(params, edge)
    for z in grid:
        if not in_domain(params, edge, z, cfg.vartheta):
            raise ValueError(f"grid point {z} outside the asserted domain")
    points = solve_many(spec, params, np.array(grid), cfg.solver)

    gen = np.random.Generator(np.random.Philox(key=derive_seed(cfg.base_seed, 98, 0)))
    u = gen.standard_normal(p + n)
    u /= np.linalg.norm(u)
    v = gen.standard_normal(p + n)
    v /= np.linalg.norm(v)

    pi_uv = np.array([pi_quadratic_form(spec, params, pt, u, v) for pt in points])
    denom = np.array(
        [
            (params.t * _psi(params, pt) + np.sqrt(params.t / n))
            * pi_split_norm(spec, params, pt, u)
            * pi_split_norm(spec, params, pt, v)
            for pt in points
        ]
    )
    m_theory = np.array([pt.m for pt in points])
    z_arr = np.array(grid)

    def residuals(rec: TrialRecord):
        m_hat = _atom_sums(rec.singular_values_sq, z_arr, 0)[0]
        avg = np.abs(m_hat - m_theory) * n * z_arr.imag
        aniso = np.abs(resolvent_quadratic_form(rec, z_arr, u, v) - pi_uv) / denom
        return rec.seed, avg, aniso

    rows = _run_stream(cfg, spec, cfg.kinds[0], 0, want_vectors=True, reduce=residuals)
    per_trial = [
        {"trial": i, "seed": seed, "avg_max": float(avg.max()), "aniso_max": float(aniso.max())}
        for i, (seed, avg, aniso) in enumerate(rows)
    ]
    avg_all = np.concatenate([avg for _, avg, _ in rows])
    aniso_all = np.concatenate([aniso for _, _, aniso in rows])
    summary = {
        "grid": [[z.real, z.imag] for z in grid],
        "avg_p95": _percentile(avg_all, 95.0),
        "avg_max": float(avg_all.max()),
        "aniso_p95": _percentile(aniso_all, 95.0),
        "aniso_max": float(aniso_all.max()),
        "C_avg": cfg.thresholds.C_avg,
        "C_aniso": cfg.thresholds.C_aniso,
    }
    ok = summary["avg_p95"] <= cfg.thresholds.C_avg and summary["aniso_p95"] <= cfg.thresholds.C_aniso
    return _report("locallaw", cfg, summary, per_trial, ok)


# ---------------------------------------------------------------------------
# detection statistics


def t1_statistic(record: TrialRecord) -> float:
    """Eigengap ratio (mu_1 - mu_2) / (mu_2 - mu_3) of a trial."""
    mu = record.singular_values_sq
    if mu.shape[0] < 3:
        raise ValueError("need at least three eigenvalues")
    return float((mu[0] - mu[1]) / (mu[1] - mu[2]))


def rank_estimator(record: TrialRecord, omega: float, ell: int) -> int:
    """Smallest i <= ell whose onward gap ratio mu_{i+1}/mu_{i+2} is small.

    Returns ell when no i qualifies; the all-noise case typically returns 1
    because the bulk gap just below the top eigenvalue is already tiny.
    """
    mu = record.singular_values_sq
    if mu.shape[0] < ell + 2:
        raise ValueError(f"need at least ell + 2 = {ell + 2} eigenvalues")
    if not (omega > 0):
        raise ValueError("omega must be positive")
    for i in range(1, ell + 1):
        if mu[i] / mu[i + 1] - 1.0 <= omega:
            return i
    return ell


def t1_null_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """KS comparison of the eigengap-ratio statistic between two noise kinds."""
    sample_a, sample_b, per_trial = _two_kinds(cfg, t1_statistic, "t1 null comparison")
    ks = ks_2samp(sample_a, sample_b)
    summary = {
        "ks": ks,
        "median_a": float(np.median(sample_a)),
        "median_b": float(np.median(sample_b)),
        "ks_budget": cfg.thresholds.ks_budget,
    }
    return _report("t1-null", cfg, summary, per_trial, ks <= cfg.thresholds.ks_budget)


def _plant(spec: Spectrum, spikes) -> Spectrum:
    spikes = list(spikes)
    if len(spikes) > spec.p:
        raise ValueError("more spikes than spectrum slots")
    vals = spec.values.copy()
    if spikes:
        vals = np.concatenate([vals[: spec.p - len(spikes)], np.asarray(spikes, float)])
    return make_spectrum(vals)


def bbp_experiment(cfg: ExperimentConfig, spike: float) -> ExperimentReport:
    """Median accuracy of the outlier prediction for one planted atom.

    Supercritical spikes are matched to the detachment image, subcritical
    ones to the bulk edge, with the weaker n^(-2/3 + 0.1) envelope in the
    sticking regime.
    """
    spec, params = cfg.spec, cfg.params
    edge = find_right_edge(spec, params)
    thr = bbp_threshold(spec, params, edge)
    supercritical = spike > thr
    prediction = (
        outlier_location(spec, params, edge, spike) if supercritical else edge.lambda_plus
    )
    n = float(params.n)
    bound = (
        cfg.thresholds.C_bbp * n**-0.4
        if supercritical
        else cfg.thresholds.C_bbp * n ** (-2.0 / 3.0 + 0.1)
    )

    spiked = _plant(spec, [spike])
    records = _run_stream(cfg, spiked, cfg.kinds[0], 0)
    errors = np.array([abs(r.singular_values_sq[0] - prediction) for r in records])
    per_trial = [
        {"trial": i, "seed": r.seed, "mu1": float(r.singular_values_sq[0])}
        for i, r in enumerate(records)
    ]
    med = float(np.median(errors))
    summary = {
        "spike": spike,
        "threshold_value": thr,
        "supercritical": bool(supercritical),
        "prediction": prediction,
        "median_error": med,
        "bound": bound,
    }
    return _report("bbp", cfg, summary, per_trial, med <= bound)


def rank_experiment(cfg: ExperimentConfig, spikes=()) -> ExperimentReport:
    """Frequency of correct rank recovery, with a sensitivity sweep over omega."""
    spec, params = cfg.spec, cfg.params
    edge = find_right_edge(spec, params)
    thr = bbp_threshold(spec, params, edge)
    expected = sum(1 for s in spikes if s > thr)
    if expected == 0:
        expected = 1  # the estimator bottoms out at rank one under pure noise
    spiked = _plant(spec, spikes)
    records = _run_stream(cfg, spiked, cfg.kinds[0], 0)

    estimates = {
        om: np.array([rank_estimator(r, om, cfg.ell) for r in records])
        for om in sorted(set([cfg.omega, 0.02, 0.05, 0.1, 0.2]))
    }
    sweep = {f"{om:g}": float(np.mean(est == expected)) for om, est in estimates.items()}
    est_main = estimates[cfg.omega]
    qualified = np.array(
        [
            r.singular_values_sq[e] / r.singular_values_sq[e + 1] - 1.0 <= cfg.omega
            for r, e in zip(records, est_main)
        ]
    )
    freq = float(np.mean(est_main == expected))
    per_trial = [
        {"trial": i, "seed": r.seed, "estimate": int(e), "qualified": bool(q)}
        for i, (r, e, q) in enumerate(zip(records, est_main, qualified))
    ]
    summary = {
        "spikes": list(spikes),
        "threshold_value": thr,
        "expected_rank": expected,
        "frequency": freq,
        "unqualified_share": float(np.mean(~qualified)),
        "omega_sweep": sweep,
        "rate_required": cfg.thresholds.rank_rate,
    }
    return _report("rank-sweep", cfg, summary, per_trial, freq >= cfg.thresholds.rank_rate)


# ---------------------------------------------------------------------------
# report output


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(
        {
            "name": report.name,
            "config": report.config,
            "summary": report.summary,
            "pass": report.pass_,
        },
        sort_keys=True,
    )


def write_report_csv(path, report: ExperimentReport) -> None:
    if not report.per_trial:
        raise ValueError("report has no per-trial rows")
    fields = list(report.per_trial[0].keys())
    with open(path, "w") as fh:
        fh.write(",".join(fields) + "\n")
        for row in report.per_trial:
            cells = []
            for k in fields:
                val = row[k]
                cells.append(f"{val:.17g}" if isinstance(val, float) else str(val))
            fh.write(",".join(cells) + "\n")
