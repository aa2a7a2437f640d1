"""Noise sampling, trial records, and the two resolvent routes."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from rectconv import ensemble, experiments
from rectconv import (
    ModelParams,
    NOISE_KINDS,
    TrialRecord,
    assemble_Wt,
    canonical_sqrt_spectrum,
    derive_seed,
    find_right_edge,
    make_spectrum,
    noise_entry,
    pi_apply,
    pi_quadratic_form,
    pi_split_norm,
    rank_estimator,
    resolvent_quadratic_form,
    run_trial,
    sample_noise,
    singular_values_sq,
    solve_point,
    t1_statistic,
)


# ---------------------------------------------------------------------------
# seed derivation


def test_derive_seed_frozen_values():
    # splitmix64 chain; frozen so stored experiment seeds stay reproducible
    assert derive_seed(1, 0, 0) == 3240945917086680547
    assert derive_seed(1, 0, 1) == 3386342914151328739
    assert derive_seed(2**64 - 1, 7, 123456) == 11972512044645374777


def test_derive_seed_distinct_within_base():
    seen = {derive_seed(1, s, i) for s in range(4) for i in range(500)}
    assert len(seen) == 2000


def test_derive_seed_deterministic():
    assert derive_seed(42, 3, 17) == derive_seed(42, 3, 17)


# ---------------------------------------------------------------------------
# noise sampling


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_noise_moments(kind):
    params = ModelParams(p=400, n=500, t=1.0)
    X = sample_noise(params, kind, seed=123)
    n = params.n
    count = X.size
    assert abs(X.mean()) * np.sqrt(n * count) < 4.0
    assert abs(X.var() * n - 1.0) < 0.02
    m4 = np.mean(X**4) * n * n
    expected_m4 = {"gaussian": 3.0, "rademacher": 1.0, "trinary": 3.0}[kind]
    assert abs(m4 - expected_m4) < 0.1


def test_rademacher_support_exact():
    params = ModelParams(p=50, n=80, t=1.0)
    X = sample_noise(params, "rademacher", seed=9)
    assert np.all(np.abs(np.abs(X) - 1.0 / np.sqrt(80)) == 0.0)


def test_trinary_support_exact():
    params = ModelParams(p=50, n=80, t=1.0)
    X = sample_noise(params, "trinary", seed=9)
    amp = np.sqrt(3.0 / 80.0)
    ok = (X == 0.0) | (np.abs(np.abs(X) - amp) < 1e-15)
    assert ok.all()
    # zero fraction is 2/3
    frac = np.mean(X == 0.0)
    assert abs(frac - 2.0 / 3.0) < 0.03


def test_sample_noise_deterministic():
    params = ModelParams(p=30, n=40, t=0.5)
    A = sample_noise(params, "gaussian", seed=777)
    B = sample_noise(params, "gaussian", seed=777)
    assert A.tobytes() == B.tobytes()
    C = sample_noise(params, "gaussian", seed=778)
    assert A.tobytes() != C.tobytes()


# sha256 of sample_noise(ModelParams(p=37, n=53, t=1.0), kind, seed=20240611),
# taken when each kind was mapped into a freshly allocated array
_FROZEN_NOISE_DIGESTS = {
    "gaussian": "5bea34650f260b1fe156d09c03d63832a6fc84904a6ae24c229344c9fceac6b3",
    "rademacher": "1b3319fbc4e3d66788ebcb964f2950c60e357756b36629f79cc77162ec483718",
    "trinary": "2adc9c3e396d3d31f5c486b4883748f108f52b13e3ed8e4e14bd815933d4fece",
}


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_sample_noise_frozen_digest(kind):
    # every byte of a draw is part of the reproducibility contract
    X = sample_noise(ModelParams(p=37, n=53, t=1.0), kind, seed=20240611)
    assert X.shape == (37, 53) and X.dtype == np.float64 and X.flags.c_contiguous
    assert hashlib.sha256(X.tobytes()).hexdigest() == _FROZEN_NOISE_DIGESTS[kind]


def test_sample_noise_kinds_differ():
    params = ModelParams(p=30, n=40, t=0.5)
    A = sample_noise(params, "gaussian", seed=5)
    B = sample_noise(params, "rademacher", seed=5)
    assert not np.array_equal(A, B)


def test_sample_noise_rejects_unknown_kind():
    params = ModelParams(p=10, n=10, t=1.0)
    with pytest.raises(ValueError):
        sample_noise(params, "uniform", seed=1)


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_noise_entry_matches_matrix(kind):
    # entry (i, j) regenerated in isolation must equal the bulk draw
    params = ModelParams(p=23, n=37, t=1.0)
    X = sample_noise(params, kind, seed=404)
    for i, j in [(0, 0), (0, 36), (22, 0), (22, 36), (11, 17), (7, 29)]:
        assert noise_entry(params, kind, 404, i, j) == X[i, j]


# ---------------------------------------------------------------------------
# matrix assembly


def test_assemble_Wt_structure():
    spec = make_spectrum([4.0, 1.0, 0.25])
    params = ModelParams(p=3, n=5, t=0.3)
    X = sample_noise(params, "gaussian", seed=2)
    W = assemble_Wt(spec, params, X)
    assert W.shape == (3, 5)
    signal = W - np.sqrt(0.3) * X
    expect = np.zeros((3, 5))
    expect[[0, 1, 2], [0, 1, 2]] = [2.0, 1.0, 0.5]
    assert np.allclose(signal, expect, atol=1e-15)


def test_assemble_Wt_validates_shapes():
    spec = make_spectrum([1.0, 1.0])
    params = ModelParams(p=2, n=4, t=0.1)
    with pytest.raises(ValueError):
        assemble_Wt(spec, params, np.zeros((3, 4)))
    other = make_spectrum([1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        assemble_Wt(other, params, np.zeros((2, 4)))


def test_singular_values_sq_descending_and_correct():
    rng = np.random.default_rng(0)
    full = rng.standard_normal((6, 9))
    # rank 2: the Gram matrix's zero eigenvalues come out of eigvalsh as
    # rounding noise of either sign, and must not be returned negative
    low = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 9))
    assert np.linalg.eigvalsh(low @ low.T).min() < 0
    for Y, rank in ((full, 6), (low, 2)):
        lam = singular_values_sq(Y)
        assert lam.shape == (6,)
        assert np.all(lam >= 0) and np.all(np.diff(lam) <= 0)
        ref = np.linalg.svd(Y, compute_uv=False)[:rank] ** 2
        npt.assert_allclose(lam[:rank], ref, rtol=1e-12)
        assert np.all(lam[rank:] < 1e-14)


def test_run_trial_vectors():
    small = make_spectrum([2.0] * 4 + [0.0] * 16), ModelParams(p=20, n=30, t=0.4)
    canon = canonical_sqrt_spectrum(150, 1.0), ModelParams(p=150, n=300, t=300 ** (-1.0 / 6.0))
    for spec, params in (small, canon):
        p, n = params.p, params.n
        rec = run_trial(spec, params, "gaussian", seed=11, want_vectors=True)
        U, V = rec.left_vectors, rec.right_vectors
        assert U.shape == (p, p) and V.shape == (n, p)
        assert np.allclose(U.T @ U, np.eye(p), atol=1e-12)
        assert np.allclose(V.T @ V, np.eye(p), atol=1e-12)
        Y = assemble_Wt(spec, params, sample_noise(params, "gaussian", 11))
        recon = U @ np.diag(np.sqrt(rec.singular_values_sq)) @ V.T
        assert np.allclose(recon, Y, atol=1e-10)
        # the Gram route against the SVD of Y: top values, and the top five
        # left vectors up to sign
        U_svd, s, _ = np.linalg.svd(Y, full_matrices=False)
        npt.assert_allclose(rec.singular_values_sq[:20], s[:20] ** 2, rtol=1e-12)
        align = np.abs(np.sum(U[:, :5] * U_svd[:, :5], axis=0))
        npt.assert_allclose(align, 1.0, rtol=0, atol=1e-10)


def test_perfbench_trial_measure_reads_records(monkeypatch):
    # perfbench's trace sizes every record run_trial returns; load its
    # spans module by path so a change to TrialRecord cannot break it unseen
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(module_spec)
    monkeypatch.setitem(sys.modules, "perfbench_spans", spans)
    module_spec.loader.exec_module(spans)
    spec = make_spectrum([1.0] * 3 + [0.0] * 9)
    params = ModelParams(p=12, n=20, t=0.5)
    rec = run_trial(spec, params, "gaussian", seed=5, want_vectors=True)
    measured = spans._measure_trial((spec, params, "gaussian", 5, True), {}, rec)
    assert measured == {"bytes": 8 * (12 + 12 * 12 + 20 * 12)}
    bare = run_trial(spec, params, "gaussian", seed=5)
    assert spans._measure_trial((spec, params, "gaussian", 5), {}, bare) == {"bytes": 8 * 12}


def test_run_trial_without_vectors():
    spec = make_spectrum([0.0] * 10)
    params = ModelParams(p=10, n=20, t=1.0)
    rec = run_trial(spec, params, "trinary", seed=3)
    assert rec.left_vectors is None and rec.right_vectors is None
    assert rec.singular_values_sq.shape == (10,)
    assert rec.kind == "trinary" and rec.seed == 3


def _gram_cases():
    # the universality size, criterion 11's planted atom at p = n, and an
    # all-zero p = n spectrum whose bottom eigenvalues reach the hard edge 0
    canon = canonical_sqrt_spectrum(150, 1.0), ModelParams(p=150, n=300, t=300 ** (-1.0 / 6.0))
    cases = [pytest.param(*canon, kind, id=f"canonical-{kind}") for kind in NOISE_KINDS]
    planted = make_spectrum([2.0] + [0.0] * 399), ModelParams(p=400, n=400, t=1.0)
    zero = make_spectrum([0.0] * 60), ModelParams(p=60, n=60, t=1.0)
    cases.append(pytest.param(*planted, "gaussian", id="planted-2.0"))
    cases.append(pytest.param(*zero, "gaussian", id="zero-square"))
    return cases


@pytest.mark.parametrize("spec,params,kind", _gram_cases())
def test_values_only_trial_matches_svd(spec, params, kind):
    seed = derive_seed(5, 0, 0)
    rec = run_trial(spec, params, kind, seed)
    lam = rec.singular_values_sq
    assert lam.shape == (params.p,)
    assert np.all(lam >= 0) and np.all(np.diff(lam) <= 0)

    Y = assemble_Wt(spec, params, sample_noise(params, kind, seed))
    s = np.linalg.svd(Y, compute_uv=False)
    ref = TrialRecord(seed=seed, kind=kind, singular_values_sq=s * s)
    npt.assert_allclose(lam[:20], ref.singular_values_sq[:20], rtol=1e-12)
    assert t1_statistic(rec) == pytest.approx(t1_statistic(ref), rel=1e-9)
    omega = float(params.n) ** (-1.0 / 3.0)
    assert rank_estimator(rec, omega, 10) == rank_estimator(ref, omega, 10)


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_stacked_values_trials_match_singular_values_sq(kind):
    spec, params = canonical_sqrt_spectrum(150, 1.0), ModelParams(p=150, n=300, t=300 ** (-1.0 / 6.0))
    # stacks of one, of a pool chunk and of the longest chunk
    for count in (1, 5, 8):
        seeds = [derive_seed(5, count, i) for i in range(count)]
        records = ensemble._values_trials(spec, params, kind, seeds)
        assert [r.seed for r in records] == seeds
        for rec, seed in zip(records, seeds):
            assert rec.kind == kind and rec.left_vectors is None and rec.right_vectors is None
            Y = assemble_Wt(spec, params, sample_noise(params, kind, seed))
            assert rec.singular_values_sq.tobytes() == singular_values_sq(Y).tobytes()


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize("t", [0.0, 1e-300, 0.3, 4.0])
def test_in_place_assembly_matches_assemble_Wt(kind, t):
    # zero atoms put sqrt(d_i) = 0 on the diagonal, where 0 + x decides the sign of a zero
    spec = make_spectrum([2.0, 1.0] + [0.0] * 28)
    params = ModelParams(p=30, n=45, t=t)
    for i in range(4):
        seed = derive_seed(9, 0, i)
        W = assemble_Wt(spec, params, sample_noise(params, kind, seed))
        Y = ensemble._signal_plus_noise(spec, params, kind, seed)
        assert np.array_equal(np.signbit(Y), np.signbit(W))
        assert Y.tobytes() == W.tobytes()


def test_run_trial_validates_spectrum_size():
    params = ModelParams(p=2, n=4, t=0.1)
    for spec in (make_spectrum([1.0]), make_spectrum([1.0, 1.0, 1.0])):
        with pytest.raises(ValueError, match="spectrum size"):
            run_trial(spec, params, "gaussian", seed=1)


# ---------------------------------------------------------------------------
# deterministic equivalent


def _pi_setup():
    spec = make_spectrum([3.0, 1.5, 0.5] + [0.0] * 17)
    params = ModelParams(p=20, n=35, t=0.6)
    z = 2.0 + 0.05j
    point = solve_point(spec, params, z)
    return spec, params, point


def test_pi_trace_identity():
    # mean of the signal-block diagonal reproduces the solved transform
    spec, params, point = _pi_setup()
    p, n = params.p, params.n
    total = 0.0 + 0.0j
    for i in range(p):
        e = np.zeros(p + n)
        e[i] = 1.0
        total += pi_quadratic_form(spec, params, point, e, e)
    assert abs(total / p - point.m) < 1e-12


def test_pi_symmetry():
    spec, params, point = _pi_setup()
    rng = np.random.default_rng(8)
    u = rng.standard_normal(55)
    v = rng.standard_normal(55)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    a = pi_quadratic_form(spec, params, point, u, v)
    b = pi_quadratic_form(spec, params, point, v, u)
    assert a == pytest.approx(b, rel=1e-12)


def test_pi_pure_noise_tail():
    # indices past 2p sit on scalar blocks equal to -1/(z b)
    spec, params, point = _pi_setup()
    p, n = params.p, params.n
    e = np.zeros(p + n)
    e[p + n - 1] = 1.0
    qf = pi_quadratic_form(spec, params, point, e, e)
    assert qf == pytest.approx(-1.0 / (point.z * point.b), rel=1e-12)


def test_pi_apply_linear():
    spec, params, point = _pi_setup()
    rng = np.random.default_rng(12)
    u = rng.standard_normal(55)
    v = rng.standard_normal(55)
    lhs = pi_apply(spec, params, point, u + 2.0 * v)
    rhs = pi_apply(spec, params, point, u) + 2.0 * pi_apply(spec, params, point, v)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_pi_apply_rejects_bad_length():
    spec, params, point = _pi_setup()
    with pytest.raises(ValueError):
        pi_apply(spec, params, point, np.zeros(10))


def test_pi_quadratic_form_requires_unit_norm():
    spec, params, point = _pi_setup()
    u = np.ones(55)
    with pytest.raises(ValueError):
        pi_quadratic_form(spec, params, point, u, u)


def test_pi_split_norm_positive():
    spec, params, point = _pi_setup()
    rng = np.random.default_rng(3)
    u = rng.standard_normal(55)
    u /= np.linalg.norm(u)
    w = pi_split_norm(spec, params, point, u)
    assert np.isfinite(w) and w > 0


# ---------------------------------------------------------------------------
# sample resolvent


def _dense_resolvent(Y, z):
    p, n = Y.shape
    rz = np.sqrt(np.asarray(z, dtype=complex))
    M = np.block([[-z * np.eye(p), rz * Y], [rz * Y.T, -z * np.eye(n)]])
    return np.linalg.inv(M)


def _resolvent_fixture():
    spec = make_spectrum([2.5, 1.0] + [0.0] * 23)
    params = ModelParams(p=25, n=40, t=0.7)
    rec = run_trial(spec, params, "gaussian", seed=19, want_vectors=True)
    Y = assemble_Wt(spec, params, sample_noise(params, "gaussian", 19))
    return rec, Y


def test_resolvent_matches_dense_inverse():
    # the factorized bilinear form must equal a brute-force block inverse
    rec, Y = _resolvent_fixture()
    rng = np.random.default_rng(55)
    for z in (1.8 + 0.2j, 0.9 + 0.01j, -0.5 + 0.6j):
        G = _dense_resolvent(Y, z)
        for _ in range(4):
            u = rng.standard_normal(65)
            v = rng.standard_normal(65)
            fast = resolvent_quadratic_form(rec, z, u, v)
            dense = complex(u @ G @ v)
            assert fast == pytest.approx(dense, rel=1e-9, abs=1e-11)


def test_resolvent_vectorized_over_z():
    rec, _ = _resolvent_fixture()
    rng = np.random.default_rng(56)
    u = rng.standard_normal(65)
    v = rng.standard_normal(65)
    zs = np.array([1.8 + 0.2j, 0.9 + 0.01j, -0.5 + 0.6j, 3.0 - 0.4j])
    many = resolvent_quadratic_form(rec, zs, u, v)
    assert isinstance(many, np.ndarray) and many.shape == (4,)
    for z, g in zip(zs, many):
        one = resolvent_quadratic_form(rec, z, u, v)
        assert type(one) is complex
        assert g == pytest.approx(one, rel=1e-13)
    assert type(resolvent_quadratic_form(rec, 1.8 + 0.2j, u, u)) is complex
    with pytest.raises(ValueError):
        resolvent_quadratic_form(rec, np.array([1.0 + 0.1j, 0.5, 2.0 + 0.3j]), u, v)


def test_resolvent_rank_deficient_square():
    # p = n with two exactly zero rows and a rank-2 signal: Y has rank 28,
    # two eigenvalues of Y Y^T are 0 and the form must still match the
    # block inverse, with no 1/s anywhere
    spec = make_spectrum([3.0, 1.0] + [0.0] * 28)
    params = ModelParams(p=30, n=30, t=0.5)
    Y = assemble_Wt(spec, params, sample_noise(params, "gaussian", 23))
    # zero rows at the ends decouple in the tridiagonal reduction, so
    # eigh returns their eigenvalues as exact zeros
    Y[[0, 29]] = 0.0
    lam, U = ensemble._factor(Y)
    zero = lam == 0.0
    assert np.count_nonzero(zero) == 2
    # the lower projections U^T Y x vanish exactly on those two vectors
    assert np.all(Y.T @ U[:, zero] == 0.0)

    rec = TrialRecord(seed=0, kind="gaussian", singular_values_sq=lam, left_vectors=U, matrix=Y)
    V = rec.right_vectors
    assert np.all(V[:, zero] == 0.0)
    npt.assert_allclose(U @ np.diag(np.sqrt(lam)) @ V.T, Y, rtol=0, atol=1e-10)
    rng = np.random.default_rng(57)
    zs = (1.5 + 0.3j, 0.05 + 0.01j, -0.8 + 0.5j)
    for z in zs:
        G = _dense_resolvent(Y, z)
        for _ in range(3):
            u = rng.standard_normal(60)
            v = rng.standard_normal(60)
            assert resolvent_quadratic_form(rec, z, u, v) == pytest.approx(complex(u @ G @ v), rel=1e-9)


def test_resolvent_matches_right_vector_form():
    # the local-law experiment's size and default grid: projecting the lower
    # blocks through Y must agree with the form built on V = Y^T U / s
    n = 400
    spec = canonical_sqrt_spectrum(200, 1.0)
    params = ModelParams(p=200, n=n, t=float(n) ** (-1.0 / 6.0))
    zs = np.array(experiments._default_z_grid(params, find_right_edge(spec, params)))
    assert zs.shape == (12,)
    rng = np.random.default_rng(58)
    u, v = rng.standard_normal((2, 600))
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    for seed in (derive_seed(13, 0, 0), derive_seed(13, 0, 1)):
        rec = run_trial(spec, params, "gaussian", seed, want_vectors=True)
        U, V, lam = rec.left_vectors, rec.right_vectors, rec.singular_values_sq
        s = np.sqrt(lam)
        a1, b1 = np.stack([u[:200], v[:200]]) @ U
        y_u, y_v = s * (np.stack([u[200:], v[200:]]) @ V)
        rz = 1.0 / np.sqrt(zs)
        sums = np.stack([a1 * b1, a1 * y_v + y_u * b1, y_u * y_v]) @ (1.0 / (lam[:, None] - zs[None, :]))
        ref = sums[0] + rz * sums[1] + (sums[2] - u[200:] @ v[200:]) / zs
        npt.assert_allclose(resolvent_quadratic_form(rec, zs, u, v), ref, rtol=1e-12, atol=0)


def test_resolvent_trace_matches_empirical_stieltjes():
    # averaging the top-left diagonal recovers the eigenvalue sum exactly
    spec = make_spectrum([0.0] * 12)
    params = ModelParams(p=12, n=18, t=1.0)
    rec = run_trial(spec, params, "gaussian", seed=27, want_vectors=True)
    z = 1.2 + 0.1j
    total = 0.0 + 0.0j
    for i in range(12):
        e = np.zeros(30)
        e[i] = 1.0
        total += resolvent_quadratic_form(rec, z, e, e)
    assert total / 12 == pytest.approx(np.mean(1.0 / (rec.singular_values_sq - z)), rel=1e-12)


def test_resolvent_requires_vectors_and_complex_z():
    spec = make_spectrum([0.0] * 5)
    params = ModelParams(p=5, n=8, t=1.0)
    bare = run_trial(spec, params, "gaussian", seed=1)
    u = np.zeros(13)
    u[0] = 1.0
    with pytest.raises(ValueError):
        resolvent_quadratic_form(bare, 1.0 + 0.1j, u, u)
    rec = run_trial(spec, params, "gaussian", seed=1, want_vectors=True)
    with pytest.raises(ValueError):
        resolvent_quadratic_form(rec, 2.0, u, u)
    with pytest.raises(ValueError):
        resolvent_quadratic_form(rec, 1.0 + 0.1j, np.zeros(5), u)


def test_resolvent_close_to_pi_at_moderate_size():
    # anisotropic local law, loose tolerance: single draw, macroscopic eta
    spec = make_spectrum([0.0] * 150)
    params = ModelParams(p=150, n=300, t=0.5)
    rec = run_trial(spec, params, "gaussian", seed=444, want_vectors=True)
    point = solve_point(spec, params, 1.0 + 0.5j)
    rng = np.random.default_rng(31)
    for _ in range(3):
        u = rng.standard_normal(450)
        u /= np.linalg.norm(u)
        g = resolvent_quadratic_form(rec, point.z, u, u)
        q = pi_quadratic_form(spec, params, point, u, u)
        assert abs(g - q) < 0.05
