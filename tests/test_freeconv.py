import cmath
import os

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from rectconv import freeconv, stieltjes
from rectconv import (
    ModelParams,
    SolverConfig,
    SolverError,
    canonical_sqrt_spectrum,
    density,
    density_curve,
    density_diagnostics,
    find_right_edge,
    make_spectrum,
    m_v,
    phi,
    phi_derivative,
    solve_many,
    solve_point,
    support_scan,
    write_density_csv,
)
from rectconv.stieltjes import _phi


def mp_m_oracle(z):
    # root of z m^2 + z m + 1 = 0 in the upper half-plane (c = 1, t = 1, zeros)
    r1 = (-z + cmath.sqrt(z * z - 4 * z)) / (2 * z)
    r2 = (-z - cmath.sqrt(z * z - 4 * z)) / (2 * z)
    return r1 if r1.imag > 0 else r2


def test_solver_config_validation():
    SolverConfig()
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


def test_solve_point_mp_quadratic_oracle(mp_unit):
    spec, params = mp_unit
    # the last three sit at the hard edge z -> 0, where g = 1 - c t m_v ~
    # sqrt(|z|): a Newton target absolute in Phi(zeta) - z leaves m short
    # of 1e-10 there
    hard_edge = (1e-6 + 1.8e-4j, 1e-8 + 1e-4j, 1e-6 + 1e-3j)
    for z in (1j, 2.0 + 0.1j, -1.0 + 0.5j, 3.9 + 1e-5j) + hard_edge:
        pt = solve_point(spec, params, z)
        npt.assert_allclose(pt.m, mp_m_oracle(z), rtol=1e-10)
        assert pt.residual <= 1e-12 * max(1.0, abs(z))


@pytest.mark.parametrize(
    "t, z", [(20.0, 10 + 1e-3j), (20.0, 8 + 1e-2j), (50.0, 10 + 1e-3j), (50.0, 20 + 1e-2j)]
)
def test_solve_point_large_t_mp_closed_form(t, z):
    # all-zero d at c = 1: m(z) = m_MP(z/t)/t.  For t this large the bare
    # start m = -1/z at eta = 10 has Re b <= 0, or leads Newton to a wrong
    # root; the start-up fixed-point sweeps are what reach the branch
    spec, params = make_spectrum(np.zeros(50)), ModelParams(p=50, n=50, t=t)
    pt = solve_point(spec, params, z)
    npt.assert_allclose(pt.m, mp_m_oracle(z / t) / t, rtol=1e-10)


@pytest.mark.parametrize("t, z", [(20.0, 10 + 1e-3j), (50.0, 20 + 1e-2j), (300.0, 500 + 0.1j)])
def test_fixed_point_route_large_t_mp_closed_form(t, z):
    # plain damped sweeps converge only linearly at large t: the route took
    # 7,357 sweeps at t = 20 and 5,491 at t = 50, and at t = 300 stalled at
    # residual 2.4e-11; the secant step takes about a hundred
    spec, params = make_spectrum(np.zeros(50)), ModelParams(p=50, n=50, t=t)
    pt = solve_point(spec, params, z, method="fixed_point")
    npt.assert_allclose(pt.m, mp_m_oracle(z / t) / t, rtol=1e-10)
    assert pt.iterations <= 200


def test_solve_point_methods_agree(mp_unit):
    spec, params = mp_unit
    z = 0.5 + 0.01j
    ms = [solve_point(spec, params, z, method=m).m for m in ("hybrid", "fixed_point")]
    npt.assert_allclose(ms[1], ms[0], rtol=1e-10)


def test_solve_point_rejects_bad_method_and_z(mp_unit):
    spec, params = mp_unit
    for method in ("bisect", "newton"):
        with pytest.raises(ValueError, match="unknown method"):
            solve_point(spec, params, 1j, method=method)
    with pytest.raises(ValueError):
        solve_point(spec, params, 1.0 - 1j)  # needs Im z > 0


def test_t_zero_short_circuit():
    spec = make_spectrum([0.5, 1.5, 2.5])
    params = ModelParams(p=3, n=6, t=0.0)
    z = 1.0 + 0.3j
    pt = solve_point(spec, params, z)
    npt.assert_allclose(pt.m, m_v(spec, z), rtol=1e-15)
    assert pt.zeta == z
    assert pt.b == 1.0 + 0j


def test_subordination_invariants_on_grid(canonical_small):
    spec, params = canonical_small
    E = np.linspace(-1.0, 2.5, 30)
    pts = solve_many(spec, params, E + 0.05j)
    for pt in pts:
        assert pt.m.imag > 0
        assert (pt.z * pt.m).imag > 0
        assert pt.zeta.imag > 0
        assert pt.b.real > 0
        # subordination consistency: zeta = b^2 z - b t (1 - c_n)
        zeta = pt.b**2 * pt.z - pt.b * params.t * (1.0 - params.c_n)
        npt.assert_allclose(zeta, pt.zeta, rtol=1e-9)
        # underlined transform bookkeeping
        m_under = params.c_n * pt.m - (1.0 - params.c_n) / pt.z
        npt.assert_allclose(m_under, pt.m_under, rtol=1e-12)


def test_iterations_counted_per_point():
    # a far point converges in fewer steps than one near the spectrum; the
    # batch must not hand every point the count of its slowest member
    n = 400
    spec = canonical_sqrt_spectrum(200, 1.0)
    params = ModelParams(p=200, n=n, t=n ** (-1.0 / 6.0))
    far, near = solve_many(spec, params, [5.0 + 0.01j, 1.9 + 0.01j])
    assert far.iterations < near.iterations
    assert far.iterations == solve_point(spec, params, 5.0 + 0.01j).iterations


def _mixed_batch(canonical_small):
    # one far point and two near the right edge (lambda_plus ~ 1.66)
    spec, params = canonical_small
    return spec, params, np.array([1.0 + 1.0j, 1.6 + 1e-3j, 1.7 + 1e-3j])


def test_fp_iterate_maps_only_unconverged_points(canonical_small, monkeypatch):
    spec, params, z = _mixed_batch(canonical_small)
    batches = []
    real_phi = freeconv._phi

    def recording(d, c, t, zeta, order=0):
        batches.append(zeta.copy())
        return real_phi(d, c, t, zeta, order)

    monkeypatch.setattr(freeconv, "_phi", recording)
    _, steps, _ = freeconv._fp_iterate(spec.values, params.c_n, params.t, z, -1.0 / z, 200, 1e-14)
    assert steps.max() < 200
    assert sum(b.size for b in batches) == steps.sum()
    # the far point converges first and is mapped in exactly its own sweeps:
    # a batch that holds it holds every point
    assert steps[0] < steps[1:].min()
    assert [b.size == z.size for b in batches] == [True] * steps[0] + [False] * (len(batches) - steps[0])


@pytest.mark.parametrize("n", [40, 80])  # c = 1 and c = 1/2
def test_fp_map_matches_direct_formula(n):
    rng = np.random.default_rng(11)
    # clustered atoms: two tight clusters and a few repeats
    vals = np.concatenate([1.0 + 1e-6 * rng.standard_normal(15), 2.0 + 1e-3 * rng.standard_normal(20), [0.5] * 5])
    spec, params = make_spectrum(vals), ModelParams(p=40, n=n, t=0.3)
    d, c, t = spec.values, params.c_n, params.t
    z = rng.uniform(-0.5, 3.5, 40) + 1j * np.logspace(-4, np.log10(3.0), 40)
    solved = np.array([pt.m for pt in solve_many(spec, params, z)])
    for m in (-1.0 / z, solved):
        b = 1.0 + c * t * m
        direct = np.mean(1.0 / (d[:, None] / b - b * z + t * (1.0 - c)), axis=0)
        # the map value a fixed-point sweep forms from its _phi pass
        swept = b * _phi(d, c, t, freeconv._zeta_from_m(c, t, z, m))[-1]
        npt.assert_allclose(swept, direct, rtol=1e-13)


def test_fixed_point_batch_matches_points_alone(canonical_small):
    # every point gets the bits it gets alone.  The second batch mixes eta
    # from 1e-3 to 20: the 20 point starts its sweeps at z itself, the
    # others at eta = 10.  The third is seed-1 battery case
    # 280 (18 iterations) with a partner at half its E (14 iterations),
    # which finish apart in one sweep loop
    spec, params, z = _mixed_batch(canonical_small)
    spec_280, params_280, z_280 = _seed_1_battery_cases((280,))[280]
    batches = [
        (spec, params, z),
        (spec, params, np.array([0.5 + 20j, 1.2 + 0.3j, 1.6 + 2e-2j, 1.7 + 1e-3j])),
        (spec_280, params_280, np.array([z_280, complex(z_280.real / 2, z_280.imag)])),
    ]
    for spec, params, z in batches:
        for pt in solve_many(spec, params, z, method="fixed_point"):
            alone = solve_point(spec, params, pt.z, method="fixed_point")
            assert (pt.m, pt.zeta, pt.residual, pt.iterations) == (alone.m, alone.zeta, alone.residual, alone.iterations)


def _theory_fixture():
    # the p = 200 square-root fixture of the theory benchmark
    n = 400
    return canonical_sqrt_spectrum(200, 1.0), ModelParams(p=200, n=n, t=n ** (-1.0 / 6.0))


def _theory_grid():
    # the 16 x 4 off-axis grid of the theory fixture
    spec, params = _theory_fixture()
    lam = find_right_edge(spec, params).lambda_plus
    etas = np.array([1e-2, 0.05, 0.2, 1.0])
    return spec, params, (lam * np.linspace(0.02, 1.2, 16)[:, None] + 1j * etas[None, :]).ravel()


def test_hybrid_batch_matches_points_alone():
    # the hybrid route gives every point of the grid the bits it gets alone
    spec, params, z = _theory_grid()
    for pt in solve_many(spec, params, z):
        alone = solve_point(spec, params, pt.z)
        assert (pt.m, pt.zeta, pt.residual, pt.iterations) == (alone.m, alone.zeta, alone.residual, alone.iterations)


def test_fixed_point_route_work_and_agreement(monkeypatch):
    # every sweep reads its map value and residual from one _phi pass: the
    # ladder-top start sweeps take 192 columns on this grid and the sweeps
    # at z 508, 700 in all, where sweeps at every ladder level took 1,344.
    # At one constant damping the route takes 16 passes; with a damping
    # that adapted per point it took 27
    spec, params, z = _theory_grid()
    columns = []
    real_phi = freeconv._phi

    def counting_phi(d, c, t, zeta, order=0):
        columns.append(zeta.size)
        return real_phi(d, c, t, zeta, order)

    monkeypatch.setattr(freeconv, "_phi", counting_phi)
    fixed = solve_many(spec, params, z, method="fixed_point")
    assert len(columns) <= 20 and sum(columns) <= 800
    hybrid = solve_many(spec, params, z)
    assert max(abs(a.m - b.m) for a, b in zip(fixed, hybrid)) <= 1e-12


def test_hybrid_route_work(monkeypatch):
    # the hybrid route is the fixed-point sweeps to a loose update, then one
    # Newton solve at z whose steps and backtracking rounds evaluate _phi
    # only on the points still open in them: 756 columns in 17 passes, the
    # ladder-top start sweeps' 192 columns included (1,023 columns on the
    # eta ladder, and 28 passes with a damping that adapted per point)
    spec, params, z = _theory_grid()
    columns = []
    real_phi = freeconv._phi

    def counting(d, c, t, zeta, order=0):
        columns.append(zeta.size)
        return real_phi(d, c, t, zeta, order)

    monkeypatch.setattr(freeconv, "_phi", counting)
    solve_many(spec, params, z)
    assert len(columns) <= 20 and sum(columns) <= 900


def test_newton_level_steps_only_live_points(monkeypatch):
    # energies below the edge of the theory fixture: the even ones seeded at
    # the zeta a solve of their own returns, so they are done on arrival,
    # the odd ones by the edge expansion.  After the opening pass no Newton
    # step or backtracking round takes more than the live points, the
    # Newton-point read takes every point once, and every point gets what
    # it gets in a call of its own
    spec, params = _theory_fixture()
    edge = find_right_edge(spec, params)
    d, c, t = spec.values, params.c_n, params.t
    x = np.geomspace(1e-3, 1.0, 10)
    E, seed = edge.lambda_plus - x, edge.zeta_plus + 1j * np.sqrt(2.0 * x / edge.phi_second)
    solved = freeconv._newton_level(d, c, t, E, seed, 1e-12, 200)
    known = np.arange(E.size) % 2 == 0
    seed = np.where(known, solved[0], seed)
    columns = []
    real_phi = freeconv._phi

    def counting(d, c, t, zeta, order=0):
        columns.append((zeta.size, order))
        return real_phi(d, c, t, zeta, order)

    monkeypatch.setattr(freeconv, "_phi", counting)
    batch = freeconv._newton_level(d, c, t, E, seed, 1e-12, 200)
    assert columns[0] == (E.size, 1) and columns[-1] == (E.size, 0)
    assert max(size for size, _ in columns[1:-1]) <= np.count_nonzero(~known)
    assert np.all(batch[1][known] == 0) and np.all(batch[1][~known] > 0)
    for i in range(E.size):
        alone = freeconv._newton_level(d, c, t, E[i : i + 1], seed[i : i + 1], 1e-12, 200)
        assert all(a.tobytes() == b[i : i + 1].tobytes() for a, b in zip(alone, batch))


def test_newton_level_reads_each_point_at_its_newton_point(monkeypatch):
    # energies below the edge of the theory fixture, seeded by the edge
    # expansion: each point is returned at zeta - (Phi - E)/Phi' with Phi
    # and m_v from that pass, and the two whose read misses tol = 1e-13
    # (9.6e-13 and 2.3e-13) are polished and read again in the same call
    spec, params = _theory_fixture()
    edge = find_right_edge(spec, params)
    d, c, t = spec.values, params.c_n, params.t
    x = np.geomspace(1e-9, 1e-3, 7)
    E, seed = edge.lambda_plus - x, edge.zeta_plus + 1j * np.sqrt(2.0 * x / edge.phi_second)
    reads = []
    real_read = freeconv._newton_point

    def recording(d, c, t, z_l, zeta, F, dph):
        reads.append(zeta.size)
        return real_read(d, c, t, z_l, zeta, F, dph)

    monkeypatch.setattr(freeconv, "_newton_point", recording)
    zeta, _, F, _, mv = freeconv._newton_level(d, c, t, E, seed, 1e-13, 200)
    assert reads == [7, 2] and np.all(np.abs(F) <= 1e-13)
    ph, mv_at = _phi(d, c, t, zeta)
    assert np.array_equal(F, ph - E) and np.array_equal(mv, mv_at)


def _seed_1_battery_cases(picks):
    # seed-1 battery: p in [10, 80], c in {1/4, 1/2, 0.9, 1}, atoms uniform on
    # [0, 4], t log-uniform on [1e-4, 10], E uniform on [-1, lambda_plus + 1],
    # eta log-uniform on [1e-4, 3]; one generator drawn per case in that order
    rng = np.random.default_rng(1)
    cases = {}
    for i in range(max(picks) + 1):
        p = int(rng.integers(10, 81))
        c = float(rng.choice([0.25, 0.5, 0.9, 1.0]))
        spec = make_spectrum(rng.uniform(0, 4, p))
        t = float(np.exp(rng.uniform(np.log(1e-4), np.log(10))))
        params = ModelParams(p=p, n=round(p / c), t=t)
        lam = find_right_edge(spec, params).lambda_plus
        E = float(rng.uniform(-1, lam + 1))
        eta = float(np.exp(rng.uniform(np.log(1e-4), np.log(3))))
        if i in picks:
            cases[i] = (spec, params, complex(E, eta))
    return cases


def test_fixed_point_slow_cases_take_few_sweeps():
    # near a slowly contracting fixed point 1 - f' is small and the secant
    # step is many times |f(m) - m| long.  With that step capped at 4 |r|,
    # case 280 crawled on damped steps through 19,119 sweeps and case 269
    # through 255; uncapped they take 18 and 15, and case 132 takes 23
    # (29 with a damping that adapted per point).  At cases 460 and 527
    # the map's rounding holds |f(m) - m| above 0.01 tol, so they stop
    # only because their residual meets its goal and the update no longer
    # falls (15 and 17 iterations; 203, the whole budget, without that
    # stop)
    picks = (
        (132, 15.786336304912343),
        (269, 12.32311703759688),
        (280, 39.559329334800125),
        (460, 1.919410663643141),
        (527, 2.396300407180337),
    )
    cases = _seed_1_battery_cases(tuple(i for i, _ in picks))
    for i, E in picks:
        spec, params, z = cases[i]
        assert z.real == pytest.approx(E, rel=1e-14)
        fixed = solve_point(spec, params, z, method="fixed_point")
        assert fixed.residual <= 1e-12
        npt.assert_allclose(fixed.m, solve_point(spec, params, z).m, rtol=1e-10)
        assert fixed.iterations <= 40


def _large_t_battery_cases(picks):
    # large-t battery: seeds 0 and 1, 300 cases each (case 300 + i is seed
    # 1's case i); p in [10, 60], c in {1/4, 1/2, 0.9, 1}, atoms uniform on
    # [0, 4] or all zero, t log-uniform on [10, 300], E uniform on
    # [-5, 3t + 10], eta log-uniform on [1e-3, 3]
    cases = {}
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        for i in range(300 * seed, 300 * seed + 300):
            p = int(rng.integers(10, 61))
            c = float(rng.choice([0.25, 0.5, 0.9, 1.0]))
            atoms = rng.uniform(0, 4, p) if rng.integers(0, 2) else np.zeros(p)
            t = float(np.exp(rng.uniform(np.log(10.0), np.log(300.0))))
            E = float(rng.uniform(-5.0, 3.0 * t + 10.0))
            eta = float(np.exp(rng.uniform(np.log(1e-3), np.log(3.0))))
            if i in picks:
                cases[i] = (make_spectrum(atoms), ModelParams(p=p, n=round(p / c), t=t), complex(E, eta))
    return cases


def test_large_t_start_sweeps_take_few_sweeps():
    # with a damping that halved whenever |f(m) - m| grew, the ladder-top
    # start sweeps of these cases crawled through 24 sweeps and 30, then a
    # cap, and the cases took 30/31 and 36/38 iterations (hybrid/fixed
    # point); at one constant damping they take 16/17 and 19/21
    cases = _large_t_battery_cases((10, 146))
    for i, E in ((10, 263.1619714638079), (146, 550.2407053765791)):
        spec, params, z = cases[i]
        assert z.real == pytest.approx(E, rel=1e-14)
        for method in ("hybrid", "fixed_point"):
            assert solve_point(spec, params, z, method=method).iterations <= 25


def test_fixed_point_route_checks_the_residual_every_sweep():
    # these cases met the 0.01 tol update with residuals of 1.02e-12,
    # 1.04e-12 and 1.20e-12 and raised when the residual was checked only
    # between calls of 200 sweeps; checked after every sweep, they meet
    # the contract within a few sweeps more
    cases = _large_t_battery_cases((23, 90, 449))
    for i, E in ((23, 75.576616732316921), (90, 275.32120773919803), (449, 93.756486278871165)):
        spec, params, z = cases[i]
        assert z.real == pytest.approx(E, rel=1e-14)
        fixed = solve_point(spec, params, z, method="fixed_point")
        assert fixed.iterations <= 40
        hybrid = solve_point(spec, params, z).m
        assert abs(fixed.m - hybrid) <= 1e-13 * abs(hybrid)


def test_seed_1_worst_route_gap_is_the_hybrids():
    # the seed-1 battery's largest relative route gap was 5.7e-12, at case
    # 251 (p = 41, t = 3.2e-4, eta = 3.7e-4), and it was the hybrid's own
    # error against a 50-digit root of m = b mean 1/(d - zeta(m)): m was
    # read at the last Newton iterate, where |dm/dz| times the residual
    # left it.  Read at the Newton point, the error there is 1.8e-14.
    # Cases 269 and 280 are the slow fixed-point cases: with the secant
    # step capped, case 269's fixed-point m was 2.95e-13 from the root.
    # Cases 81 and 402 check the hybrid only: its m was 1.20e-13 from the
    # root at case 81 while it walked the eta ladder, and case 402 is its
    # worst case since it seeds Newton at z from the sweeps (9.95e-14).
    # The fixed-point route is 1.06e-13 off at case 402 (1.08e-13 while its
    # damping adapted per point).  Started at z from -1/z with no ladder-top
    # sweeps, the fixed-point route is 1.51e-13 off at case 269 and the
    # hybrid 1.25e-13 at case 402
    mp = pytest.importorskip("mpmath")
    cases = _seed_1_battery_cases((81, 251, 269, 280, 402))
    both = {251: 0.6596819291484486, 269: 12.32311703759688, 280: 39.559329334800125}
    hybrid_only = {81: 3.0923774652457423, 402: 1.6883108236769608}
    for i, E in {**both, **hybrid_only}.items():
        spec, params, z = cases[i]
        assert z.real == pytest.approx(E, rel=1e-14)
        hybrid = solve_point(spec, params, z).m
        with mp.workdps(50):
            d = [mp.mpf(float(x)) for x in spec.values]
            c, t, zz = mp.mpf(params.c_n), mp.mpf(params.t), mp.mpc(z.real, z.imag)

            def residual(m):
                b = 1 + c * t * m
                zeta = b * b * zz - b * t * (1 - c)
                return b * mp.fsum(1 / (x - zeta) for x in d) / len(d) - m

            exact = complex(mp.findroot(residual, mp.mpc(hybrid.real, hybrid.imag)))
        assert abs(hybrid - exact) <= 1e-13 * abs(exact)
        if i in both:
            fixed = solve_point(spec, params, z, method="fixed_point").m
            assert abs(fixed - exact) <= 1e-13 * abs(exact)


def test_phi_inverts_subordination(canonical_small):
    spec, params = canonical_small
    pts = solve_many(spec, params, np.array([0.4, 0.9, 1.4]) + 0.02j)
    for pt in pts:
        npt.assert_allclose(phi(spec, params, pt.zeta), pt.z, rtol=1e-10)


def test_phi_mp_closed_form(mp_unit):
    spec, params = mp_unit
    for zeta in (0.5 + 0.5j, 2.0 + 0j, 1.0 + 1e-8j):
        npt.assert_allclose(phi(spec, params, zeta), (zeta + 1) ** 2 / zeta, rtol=1e-14)
    npt.assert_allclose(phi_derivative(spec, params, 2.0 + 0j), 1 - 1 / 4.0, rtol=1e-14)
    npt.assert_allclose(phi_derivative(spec, params, 2.0 + 0j, order=2), 2 / 8.0, rtol=1e-14)


def test_phi_derivative_matches_finite_difference(canonical_small):
    spec, params = canonical_small
    zeta = 1.3 + 0.2j
    h = 1e-6
    fd1 = (phi(spec, params, zeta + h) - phi(spec, params, zeta - h)) / (2 * h)
    npt.assert_allclose(phi_derivative(spec, params, zeta), fd1, rtol=1e-8)
    fd2 = (
        phi_derivative(spec, params, zeta + h) - phi_derivative(spec, params, zeta - h)
    ) / (2 * h)
    npt.assert_allclose(phi_derivative(spec, params, zeta, order=2), fd2, rtol=1e-7)


def test_density_mp_closed_form(mp_unit):
    spec, params = mp_unit
    for E in (0.5, 1.0, 2.0, 3.5):
        npt.assert_allclose(
            density(spec, params, E),
            np.sqrt((4.0 - E) * E) / (2.0 * np.pi * E),
            rtol=1e-5,
        )
    assert density(spec, params, 5.0) <= 1e-14
    assert density(spec, params, 4.5) <= 1e-14


def test_density_curve_matches_pointwise(canonical_small, mp_unit):
    # a single point walks from the edge on its own path; a curve reaches
    # it from its neighbour: both must land on the same root.  The MP and
    # gapped cases add points outside the support and above the edge
    gapped = make_spectrum([2.0] * 20 + [0.5] * 20), ModelParams(p=40, n=400, t=0.05)
    cases = [
        (canonical_small, np.linspace(0.3, 1.6, 7)),
        (mp_unit, np.array([0.05, 0.7, 2.0, 3.3, 3.999, 4.5, -1.0])),
        (gapped, np.array([0.3, 0.6, 1.2, 1.9, 2.2, 2.4])),
    ]
    for (spec, params), E in cases:
        curve = density_curve(spec, params, E)
        single = np.array([density(spec, params, e) for e in E])
        npt.assert_allclose(curve, single, rtol=1e-12, atol=1e-15)


def test_density_diagnostics_fields(canonical_small):
    # a bulk point is reached by the real-axis walk (residual
    # |Phi(zeta) - E|); a point left of the support reads exactly 0 with
    # zero diagnostics
    spec, params = canonical_small
    rho, info = density_diagnostics(spec, params, [1.0, -0.5])
    assert rho[0] > 0
    assert info["residual"][0] <= 1e-12
    assert info["iterations"][0] >= 1
    assert rho[1] == 0.0
    assert info["residual"][1] == 0.0
    assert info["iterations"][1] == 0


def _off_axis_density(spec, params, E):
    # an independent reference off the real axis: the off-axis solve at
    # eta = 1e-7 and 5e-8, extrapolated to eta = 0
    eta_hi, eta_lo = 1e-7, 5e-8
    cfg = SolverConfig()
    m_hi = freeconv._solve_grid(spec, params, E + 1j * eta_hi, cfg, "hybrid")[0]
    m_lo = freeconv._solve_grid(spec, params, E + 1j * eta_lo, cfg, "hybrid")[0]
    return np.maximum((2.0 * m_lo.imag - m_hi.imag) / np.pi, 0.0)


@pytest.mark.parametrize("n", [50, 100])
def test_density_marchenko_pastur_closed_form(n):
    # all-zero signal, t = 1, c = p/n: rho = sqrt((b - E)(E - a)) / (2 pi c E)
    p = 50
    c = p / n
    spec, params = make_spectrum(np.zeros(p)), ModelParams(p=p, n=n, t=1.0)
    a, b = (1.0 - np.sqrt(c)) ** 2, (1.0 + np.sqrt(c)) ** 2
    E = np.linspace(a, b, 203)[1:-1]
    exact = np.sqrt((b - E) * (E - a)) / (2.0 * np.pi * c * E)
    rho = density_curve(spec, params, E)
    npt.assert_allclose(rho, exact, rtol=0, atol=1e-12)


def test_density_hard_edge_closed_form():
    # c = 1, t = 1, zeros: rho = sqrt((4 - E)/E) / (2 pi) blows up at the
    # hard edge E = 0, where Phi' ~ sqrt(E) and only the relative target
    # keeps zeta to its digits.  Below about E = 1e-16 zeta ~ -1 + i sqrt(E)
    # and g = 1 + 1/zeta loses digits like eps/sqrt(E): no solver does better.
    spec, params = make_spectrum(np.zeros(100)), ModelParams(p=100, n=100, t=1.0)
    E = np.array([1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
    exact = np.sqrt((4.0 - E) / E) / (2.0 * np.pi)
    npt.assert_allclose(density_curve(spec, params, E), exact, rtol=1e-8)
    npt.assert_allclose([density(spec, params, e) for e in E], exact, rtol=1e-8)


def test_density_hard_edge_takes_few_steps():
    # near the hard edge a point stops at the relative Newton stop
    # 1e-8 min(1, E), far above the rounding floor of Phi, and is read at
    # its Newton point; run to a relative target below that floor, these
    # points once took 51, 10, 11, 121 and 200 steps (the whole budget).
    # The first point's count includes the walk's failed attempt and
    # intermediate energy on its way down from the edge
    spec, params = make_spectrum(np.zeros(100)), ModelParams(p=100, n=100, t=1.0)
    E = np.array([1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
    _, diag = density_diagnostics(spec, params, E)
    assert np.all(diag["iterations"] <= [40, 10, 15, 10, 15])
    # the floor there is a few eps sqrt(E): g ~ sqrt(E) carries the rounding
    assert np.all(diag["residual"] <= 1e-14 * np.sqrt(E))


def test_density_walk_matches_ladder(canonical_small):
    # inside the support the walk agrees with the off-axis solve; outside
    # it (left of the support, at and above the edge) the density is exactly
    # 0 where the off-axis solve reads rounding noise
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    ((left, right),) = support_scan(spec, params, -0.5, edge.lambda_plus + 0.2, 0.1).intervals
    assert 0.0 < left < 0.2 and right == edge.lambda_plus
    E = np.linspace(-0.5, edge.lambda_plus + 0.2, 240)
    rho = density_curve(spec, params, E)
    inside = (E > left) & (E < right)
    assert np.all(rho[inside] > 0) and np.all(rho[~inside] == 0.0)
    ref = _off_axis_density(spec, params, E)
    close = inside & (E < edge.lambda_plus - 1e-4)
    npt.assert_allclose(rho[close], ref[close], rtol=1e-8)
    npt.assert_allclose(rho[~inside], ref[~inside], rtol=0, atol=1e-12)


def test_density_walks_every_gapped_component():
    # two well-separated atoms at small t: two support components, each
    # walked down from its own right edge; the gap reads exactly 0
    spec = make_spectrum([2.0] * 20 + [0.5] * 20)
    params = ModelParams(p=40, n=400, t=0.05)
    edge = find_right_edge(spec, params)
    E = np.linspace(0.05, edge.lambda_plus - 1e-3, 160)
    rho, info = density_diagnostics(spec, params, E)
    (a, b), (c, d) = support_scan(spec, params, 0.01, 3.0, 0.1).intervals
    inside = ((E > a) & (E < b)) | ((E > c) & (E < d))
    assert inside[E < 1.0].any() and inside[E > 1.9].all()
    assert np.all(rho[inside] > 0) and np.all(info["iterations"][inside] >= 1)
    assert np.all(rho[~inside] == 0.0) and np.all(info["iterations"][~inside] == 0)
    assert np.any(rho[E < 0.9] > 0.1)
    npt.assert_allclose(rho, _off_axis_density(spec, params, E), rtol=1e-8, atol=1e-10)


def test_density_walk_keeps_its_branch_near_the_atoms():
    # 59 evenly spaced atoms at small t: 18 components, and zeta runs close
    # to the atoms on the real axis.  A predictor that overshoots leads
    # Newton to a real root of Phi = E, where rho reads ~1e-289 instead of
    # 0.02 or more; the walk must reject those roots and step back
    spec, params = make_spectrum(np.linspace(0.0, 5.0, 59)), ModelParams(p=59, n=118, t=0.03)
    edge = find_right_edge(spec, params)
    E = np.linspace(0.01, edge.lambda_plus, 600)[:-1]
    rho = density_curve(spec, params, E)
    intervals = support_scan(spec, params, 0.0, edge.lambda_plus + 1.0, 0.1).intervals
    inside = np.any([(E > a) & (E < b) for a, b in intervals], axis=0)
    assert len(intervals) == 18 and np.all(rho[~inside] == 0.0)
    npt.assert_allclose(rho[inside], _off_axis_density(spec, params, E[inside]), rtol=1e-6)


def _walk_grid(spec, params):
    # a grid, and seven points inside each component however narrow
    lam = find_right_edge(spec, params).lambda_plus
    intervals = support_scan(spec, params, 0.0, lam, 1e-3).intervals
    E = np.sort(np.concatenate([np.linspace(0.0, lam, 401)[1:-1]] + [np.linspace(a, b, 9)[1:-1] for a, b in intervals]))
    return E, intervals


@pytest.mark.parametrize(
    "spec,params,components",
    [
        (make_spectrum([2.0] * 20 + [0.5] * 20), ModelParams(p=40, n=400, t=0.05), 2),
        (make_spectrum(np.linspace(0.0, 5.0, 59)), ModelParams(p=59, n=118, t=0.03), 18),
        (canonical_sqrt_spectrum(200, 1.0), ModelParams(p=200, n=400, t=1.0 / 400), 35),
        # a round's batch spans several atom-sum blocks (8 points at p = 2,000),
        # and some rounds leave one point alone in their last block
        (make_spectrum([2.0] * 1000 + [0.5] * 1000), ModelParams(p=2000, n=20_000, t=0.1), 2),
    ],
    ids=["gapped", "59_atoms", "small_t", "gapped_p2000"],
)
def test_density_components_walk_alone_as_together(spec, params, components):
    # one walk takes every component at once, and each component's rows are
    # the ones it gets when its energies are asked for alone, bit for bit
    E, intervals = _walk_grid(spec, params)
    assert len(intervals) == components
    rho, diag = density_diagnostics(spec, params, E)
    for a, b in intervals:
        inside = (E > a) & (E < b)
        alone, alone_diag = density_diagnostics(spec, params, E[inside])
        assert inside.any() and alone.tobytes() == rho[inside].tobytes()
        assert alone_diag["residual"].tobytes() == diag["residual"][inside].tobytes()
        assert np.array_equal(alone_diag["iterations"], diag["iterations"][inside])


def test_density_walk_rounds(monkeypatch):
    # every track's blocks share each round's Newton call, a track at its
    # edge included: 113 calls for the 35 components of the small-t fixture
    # (170 when each one-point block from an edge took a call of its own)
    spec, params = canonical_sqrt_spectrum(200, 1.0), ModelParams(p=200, n=400, t=1.0 / 400)
    E, _ = _walk_grid(spec, params)
    calls = []
    real_newton = freeconv._newton_level

    def counting(*args):
        calls.append(args[3].size)
        return real_newton(*args)

    monkeypatch.setattr(freeconv, "_newton_level", counting)
    density_diagnostics(spec, params, E)
    assert len(calls) <= 120 and sum(calls) == 801


def test_density_nonnegative_above_edge(canonical_small):
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    E = edge.lambda_plus + np.array([1e-3, 0.1, 0.5])
    rho = density_curve(spec, params, E)
    assert np.all(rho >= 0)
    assert np.all(rho < 1e-4)


def test_density_integrates_to_one(mp_unit):
    # substituting E = u^2 removes the 1/sqrt(E) singularity at the origin,
    # so the trapezoid rule converges cleanly (the integrand becomes the
    # semicircle sqrt(4 - u^2)/pi)
    spec, params = mp_unit
    u = np.linspace(1e-4, 2.0, 2001)
    rho = density_curve(spec, params, u * u)
    mass = np.trapezoid(2.0 * u * rho, u)
    assert abs(mass - 1.0) < 5e-3


def test_support_scan_mp(mp_unit):
    spec, params = mp_unit
    scan = support_scan(spec, params, -1.0, 6.0, 0.05)
    assert len(scan.intervals) == 1
    lo, hi = scan.intervals[0]
    assert abs(hi - 4.0) < 0.05 / 50
    assert lo == pytest.approx(0.0, abs=0.05)


def test_support_scan_returns_exact_components(mp_unit, monkeypatch):
    # the scan clips the exact components to its window and never calls
    # the pointwise density
    spec, params = mp_unit
    monkeypatch.setattr(freeconv, "density", lambda *args, **kwargs: pytest.fail("density called"))
    lam = find_right_edge(spec, params).lambda_plus
    scan = support_scan(spec, params, -1.0, 6.0, 0.05)
    assert scan.intervals == ((0.0, lam),)
    assert support_scan(spec, params, 1.0, 2.0, 0.5).intervals == ((1.0, 2.0),)
    assert support_scan(spec, params, 4.5, 6.0, 0.5).intervals == ()
    gapped = make_spectrum([2.0] * 20 + [0.5] * 20), ModelParams(p=40, n=400, t=0.05)
    full = support_scan(*gapped, 0.0, 3.0, 0.5).intervals
    assert len(full) == 2
    assert support_scan(*gapped, 1.0, 3.0, 0.5).intervals == full[1:]
    assert support_scan(*gapped, 0.5, 2.0, 0.5).intervals == ((0.5, full[0][1]), (full[1][0], 2.0))


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0])
def test_support_edges_mp_closed_form(c):
    # all-zero signal: one component [t (1 - sqrt c)^2, t (1 + sqrt c)^2]
    p = 40
    for t in (0.3, 1.0, 2.5):
        spec, params = make_spectrum(np.zeros(p)), ModelParams(p=p, n=round(p / c), t=t)
        ((lo, hi),) = support_scan(spec, params, -1.0, 20.0, 0.5).intervals
        exact = t * (1.0 - np.sqrt(c)) ** 2, t * (1.0 + np.sqrt(c)) ** 2
        npt.assert_allclose((lo, hi), exact, rtol=0, atol=1e-10)


def test_support_edges_gapped_fixture():
    spec = make_spectrum([2.0] * 20 + [0.5] * 20)
    params = ModelParams(p=40, n=400, t=0.05)
    scan = support_scan(spec, params, 0.0, 3.0, 0.1)
    npt.assert_allclose(
        np.ravel(scan.intervals), [0.447425, 0.651439, 1.856768, 2.259202], rtol=0, atol=1e-6
    )


def test_support_finds_cubed_uniform_narrow_gap():
    # seven components; the gap between the second and third is 2e-4 wide,
    # and the density is about 0.2 at 1e-4 from either side of it
    spec = make_spectrum(np.random.default_rng(3).uniform(size=60) ** 3)
    params = ModelParams(p=60, n=120, t=0.02)
    scan = support_scan(spec, params, 0.0, 2.0, 0.1)
    assert len(scan.intervals) == 7
    gap = scan.intervals[1][1], scan.intervals[2][0]
    npt.assert_allclose(gap, (0.14637, 0.14657), rtol=0, atol=1e-5)
    rho = density_curve(spec, params, [gap[0] - 1e-4, 0.5 * (gap[0] + gap[1]), gap[1] + 1e-4])
    assert rho[1] == 0.0 and rho[0] > 0.1 and rho[2] > 0.1


def _finder_work(spec, params, monkeypatch):
    # atom-sum points and passes of one _support call on a one-component fixture
    edge = find_right_edge(spec, params)
    points = []
    real_sums = stieltjes._atom_sums

    def counting(d, zeta, order):
        points.append(zeta.shape[0])
        return real_sums(d, zeta, order)

    monkeypatch.setattr(stieltjes, "_atom_sums", counting)
    monkeypatch.setattr(freeconv, "_atom_sums", counting)
    comps = freeconv._support(spec.values, params.c_n, params.t, edge)
    assert comps.shape == (1, 4) and comps[0, 1] == edge.lambda_plus
    return sum(points), len(points)


def test_support_finder_work(monkeypatch):
    # the spacing screen searches 4 of the 199 intervals between atoms, and
    # all 4 peak brackets end at x_g with Phi'' > 0, so none is searched:
    # one _support call on the theory fixture evaluates the atom sums at
    # 110 points in 25 passes (200 in 67 with every peak bracket bisected
    # and the grid a pass per column; 6,631 points when every interval was
    # searched)
    points, passes = _finder_work(*_theory_fixture(), monkeypatch)
    assert points <= 120 and passes <= 28


def test_support_finder_work_p1000(monkeypatch):
    # 8 of 999 intervals: 210 points in 35 passes (356 in 71 before the
    # peak brackets were settled at x_g; 28,898 points when every interval
    # was searched)
    n = 2000
    spec, params = canonical_sqrt_spectrum(1000, 1.0), ModelParams(p=1000, n=n, t=n ** (-1.0 / 6.0))
    points, passes = _finder_work(spec, params, monkeypatch)
    assert points <= 230 and passes <= 38


def test_support_lowest_edge_past_a_plateau_of_g():
    # every atom at 1, c = 1, t = 0.999: g = 1 - t/(1 - x) has its zero at
    # x_g = 1e-3, where the floats are so dense that g rounds to exactly 0
    # over about 500 of them on the false side.  The search for x_g used
    # to creep there one float a step for all 100 steps and return the low
    # end of its bracket, which put the lowest left edge at 0.  The edge is
    # Phi = x g^2 at the zero of Phi' = g (g + 2 x g'): with y = 1 - x,
    # y^2 + t y - 2t = 0
    t = 0.999
    spec, params = make_spectrum(np.ones(20)), ModelParams(p=20, n=20, t=t)
    edge = find_right_edge(spec, params)
    comps = freeconv._support(spec.values, params.c_n, params.t, edge)
    y = 0.5 * (np.sqrt(t * t + 8.0 * t) - t)
    exact = (1.0 - y) * (1.0 - t / y) ** 2
    assert comps.shape[0] == 1 and comps[0, 0] == pytest.approx(exact, rel=1e-6) and exact > 1e-10
    # a dense sign scan below x_g: the run with g > 0 and Phi' > 0 maps
    # onto (0, left edge)
    x = np.linspace(0.0, 1e-3, 200_001)[1:]
    ph, slope, mv = _phi(spec.values, params.c_n, params.t, x, 1)
    run = np.flatnonzero((1.0 - t * mv > 0) & (slope > 0))
    assert run[0] == 0 and np.all(np.diff(run) == 1)
    assert abs(ph[run[-1]] - comps[0, 0]) <= 1e-16


@pytest.mark.parametrize("atoms, t, solve", [(np.ones(20), 0.99, slice(None)), (np.r_[np.ones(19), 1.5], 0.9, 0)])
def test_support_zero_of_g_does_not_creep(monkeypatch, atoms, t, solve):
    # c = 1 and x_g near 0, where 1 - x is coarser than x: g rounds to
    # exactly 0 over dozens of floats.  Where the sign test was g > 0 an
    # iterate there was on the false side with a zero step and crept one
    # float an evaluation: all of _support's bracketed solves took 70
    # evaluations (53 of them on x_g) in the first case, and the x_g solve
    # 67 in the second.  With g >= 0 such an iterate ends the solve; here
    # 18 and 13
    spec, params = make_spectrum(atoms), ModelParams(p=20, n=20, t=t)
    edge = find_right_edge(spec, params)
    evals = []
    real_newton = freeconv._bracketed_newton

    def counting(fun, lo, hi, xtol, *args, **kw):
        evals.append(0)

        def counted(x, *a):
            evals[-1] += 1
            return fun(x, *a)

        return real_newton(counted, lo, hi, xtol, *args, **kw)

    monkeypatch.setattr(freeconv, "_bracketed_newton", counting)
    comps = freeconv._support(spec.values, params.c_n, params.t, edge)
    assert comps.shape[0] == 1 and comps[0, 0] > 0
    assert np.sum(evals[solve]) <= 24


def test_support_settled_peak_at_c_one(monkeypatch):
    # two clusters at c = 1: the one kept interval's peak bracket ends at
    # x_g with Phi'' > 0 and is settled there without a search.  Phi'(x_g)
    # is 0 at c = 1 and its computed sign is rounding; read as the peak's
    # value, it opened a gap 1e-28 wide at the bottom of these spectra
    sizes = []
    real_newton = freeconv._bracketed_newton

    def newton(fun, lo, hi, xtol, *args):
        sizes.append(np.size(lo))
        return real_newton(fun, lo, hi, xtol, *args)

    monkeypatch.setattr(freeconv, "_bracketed_newton", newton)
    for t, w in ((2.2, 0.5), (2.7, 0.5), (3.1, 0.1)):
        spec = make_spectrum(np.concatenate([x + w * np.linspace(0.0, 1.0, 20) for x in (1.0, 3.0)]))
        params = ModelParams(p=40, n=40, t=t)
        sizes.clear()
        comps = freeconv._support(spec.values, params.c_n, params.t, find_right_edge(spec, params))
        # the zeros of g (the lowest and the kept interval's), then no peak search
        assert sizes[:2] == [2, 0]
        assert comps.shape[0] == 1 and comps[0, 0] == 0.0


def _dropped_intervals_open(spec, params, points=200):
    # dense sign scan of the intervals between distinct atoms that the
    # spacing screen drops: True where some point of a cosine grid in one
    # of them has g > 0 and Phi' > 0, the mark of a gap
    d, c, t = spec.values, params.c_n, params.t
    a = np.unique(d)
    drop = ~freeconv._gaps_may_open(a, c, t, d.size)
    s = (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, points + 2)[1:-1])) / 2.0
    x = (a[:-1][drop, None] + np.diff(a)[drop, None] * s).ravel()
    _, slope, mv = _phi(d, c, t, x, 1)
    return bool(np.any((1.0 - c * t * mv > 0) & (slope > 0))), drop


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    clusters=st.lists(
        st.tuples(st.floats(0.0, 4.0), st.integers(1, 100), st.floats(np.log(1e-5), np.log(0.1))),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**16),
    ratio=st.sampled_from([1.0, 1.25, 2.0, 4.0]),
    log_t=st.floats(np.log(1e-3), np.log(2.0)),
)
def test_gap_screen_drops_no_gap(clusters, seed, ratio, log_t):
    # up to 400 atoms in up to 4 jittered lattices of log-uniform spacing,
    # so the spacing sweeps through the scale at which gaps start to open
    rng = np.random.default_rng(seed)
    atoms = np.concatenate([x + np.exp(h) * (np.arange(k) + rng.uniform(0.0, 0.8, k)) for x, k, h in clusters])
    spec = make_spectrum(atoms)
    params = ModelParams(p=spec.p, n=int(np.ceil(ratio * spec.p)), t=float(np.exp(log_t)))
    assert not _dropped_intervals_open(spec, params)[0]


def test_gap_screen_keeps_the_gap_and_drops_most():
    # two clusters of 100 atoms: only the interval between them can open,
    # and it does
    spec = make_spectrum(np.concatenate([np.linspace(0.5, 1.0, 100), np.linspace(3.0, 3.5, 100)]))
    params = ModelParams(p=200, n=400, t=0.05)
    opened, drop = _dropped_intervals_open(spec, params)
    assert not opened and np.flatnonzero(~drop).tolist() == [99]
    comps = freeconv._support(spec.values, params.c_n, params.t, find_right_edge(spec, params))
    assert comps.shape[0] == 2 and comps[0, 1] < 1.5 < 2.5 < comps[1, 0]
    # the theory fixture: the screen drops 195 of the 199 intervals
    opened, drop = _dropped_intervals_open(*_theory_fixture())
    assert not opened and drop.sum() >= 190


def _scan_gap_edges(spec, params, lam, points=4000):
    # dense sign scan: on a cosine grid in each interval between distinct
    # atoms (and below the smallest, above the largest), the points with
    # g > 0 and Phi' > 0 map onto the complement of the support.  Returns
    # the images of the first and of the last point of each such run, each
    # with a bound on its distance to the true edge (spacing times Phi')
    d, c, t = spec.values, params.c_n, params.t
    a = np.unique(d)
    reach = 20.0 * max(t, np.sqrt(a[0] * t))
    s = (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, points + 2))) / 2.0
    pieces = [a[0] - reach + reach * s[:-1]]
    pieces += [lo + (hi - lo) * s[1:-1] for lo, hi in zip(a[:-1], a[1:])]
    pieces.append(a[-1] + 2.0 * (lam - a[-1]) * s[1:])
    first, last = [], []
    for x in pieces:
        ph, slope, mv = _phi(d, c, t, x, 1)
        valid = (1.0 - c * t * mv > 0) & (slope > 0)
        h = np.diff(x)
        h = np.maximum(np.append(h[0], h), np.append(h, h[-1]))
        for i in np.flatnonzero(valid[1:] & ~valid[:-1]) + 1:
            first.append((ph[i], 2.0 * h[i] * slope[i]))
        for i in np.flatnonzero(valid[:-1] & ~valid[1:]):
            last.append((ph[i], 2.0 * h[i] * slope[i]))
    return sorted(first), sorted(last)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    clusters=st.lists(
        st.tuples(st.integers(0, 40_000), st.integers(1, 5), st.integers(0, 500)),
        min_size=1,
        max_size=5,
    ),
    ratio=st.sampled_from([1.25, 2.0, 4.0]),
    log_t=st.floats(np.log(1e-3), np.log(2.0)),
)
def test_support_property_random_spectra(clusters, ratio, log_t):
    # clusters of up to 5 atoms on [0, 4.05], in units of 1e-4
    atoms = [1e-4 * (x + spread * k / mult) for x, mult, spread in clusters for k in range(mult)]
    spec = make_spectrum(atoms)
    params = ModelParams(p=spec.p, n=int(np.ceil(ratio * spec.p)), t=float(np.exp(log_t)))
    edge = find_right_edge(spec, params)
    comps = freeconv._support(spec.values, params.c_n, params.t, edge)
    left, right = comps[:, 0], comps[:, 1]
    assert np.all(np.diff(comps[:, :2].ravel()) > 0) and right[-1] == edge.lambda_plus

    # the lowest zero of g is searched from a_0 - 2ct, where g >= 1/2 (up
    # to the rounding of a_0 - 2ct, below 1e-12 on these spectra)
    d, c, t = spec.values, params.c_n, params.t
    assert 1.0 - c * t * _phi(d, c, t, d.min() - 2.0 * c * t)[-1] >= 0.5 - 1e-12

    # positive inside every component, exactly 0 in every gap and outside
    inside = (left[:, None] + (right - left)[:, None] * np.array([0.25, 0.5, 0.75])).ravel()
    outside = np.concatenate([0.5 * (right[:-1] + left[1:]), [-1.0, 1.01 * edge.lambda_plus]])
    if left[0] > 0:
        outside = np.append(outside, 0.5 * left[0])
    assert np.all(density_curve(spec, params, inside) > 0)
    assert np.all(density_curve(spec, params, outside) == 0.0)

    # every edge agrees with the dense sign scan of Phi' and g
    first, last = _scan_gap_edges(spec, params, edge.lambda_plus)
    assert len(first) == len(right)
    for (image, tol), edge_e in zip(first, right):
        assert abs(image - edge_e) <= tol + 1e-12
    last = [(image, tol) for image, tol in last if image > 0]
    opened = left[left > 0]
    assert len(last) == len(opened)
    for (image, tol), edge_e in zip(last, opened):
        assert abs(image - edge_e) <= tol + 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    clusters=st.lists(
        st.tuples(st.integers(0, 40_000), st.integers(1, 5), st.integers(0, 500)),
        min_size=1,
        max_size=5,
    ),
    ratio=st.sampled_from([1.0, 1.1, 2.0, 4.0]),
    log_t=st.floats(np.log(1e-4), np.log(10.0)),
    anchor=st.sampled_from([0.0, 1.0]),
    offset=st.floats(-0.05, 0.3),
    log_eta=st.floats(np.log(1e-4), np.log(3.0)),
)
def test_solver_property_random_spectra(clusters, ratio, log_t, anchor, offset, log_eta):
    # clusters of up to 5 atoms on [0, 4.05], in units of 1e-4; E near the
    # hard edge 0 or near lambda_plus, on either side of it
    atoms = [1e-4 * (x + spread * k / mult) for x, mult, spread in clusters for k in range(mult)]
    spec = make_spectrum(atoms)
    params = ModelParams(p=spec.p, n=int(np.ceil(ratio * spec.p)), t=float(np.exp(log_t)))
    lam = find_right_edge(spec, params).lambda_plus
    z = complex(lam * (anchor + offset), np.exp(log_eta))
    pt = solve_point(spec, params, z)
    assert pt.residual <= SolverConfig().tolerance
    pt.validate(params)
    # the fixed-point route is an independent reference where it returns
    try:
        ref = solve_point(spec, params, z, method="fixed_point")
    except SolverError:
        return
    assert abs(ref.m - pt.m) <= 1e-8


def test_density_needs_positive_t():
    # at t = 0 the measure is atomic: there is no density to evaluate
    spec, params = make_spectrum([0.5, 1.5]), ModelParams(p=2, n=4, t=0.0)
    for f in (density, density_curve, density_diagnostics):
        with pytest.raises(ValueError, match="t = 0"):
            f(spec, params, [1.0] if f is not density else 1.0)


def test_density_walk_failure_names_stage_and_energy(canonical_small):
    # a tolerance no Newton step can meet: the walk cannot reach the point
    spec, params = canonical_small
    with pytest.raises(SolverError, match=r"density walk stage: .*E=0\.5\b"):
        density_curve(spec, params, [0.5], SolverConfig(tolerance=1e-300))


def test_support_scan_right_endpoint_matches_edge(canonical_small):
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    scan = support_scan(spec, params, edge.lambda_plus - 0.4, edge.lambda_plus + 0.4, 0.02)
    assert scan.intervals
    hi = scan.intervals[-1][1]
    assert abs(hi - edge.lambda_plus) < 0.02 / 50


def test_support_scan_requires_positive_t():
    spec = make_spectrum([1.0, 2.0])
    with pytest.raises(ValueError):
        support_scan(spec, ModelParams(p=2, n=4, t=0.0), 0.0, 3.0, 0.1)


def test_dilation_law(canonical_small):
    # scaling every atom by 4 and t by 4 dilates the spectrum by 4: the edge
    # scales by 4 and the sqrt prefactor by 1/8 (density by 1/4, kappa by 4)
    spec, params = canonical_small
    big = make_spectrum(4.0 * spec.values)
    params4 = ModelParams(p=params.p, n=params.n, t=4.0 * params.t)
    e1 = find_right_edge(spec, params)
    e4 = find_right_edge(big, params4)
    npt.assert_allclose(e4.lambda_plus, 4.0 * e1.lambda_plus, rtol=1e-10)
    npt.assert_allclose(e4.sqrt_coeff, e1.sqrt_coeff / 8.0, rtol=1e-10)
    E = 0.7 * e1.lambda_plus
    npt.assert_allclose(
        density(big, params4, 4.0 * E), density(spec, params, E) / 4.0, rtol=1e-6
    )


def test_solver_error_on_unreachable_tolerance(mp_unit):
    spec, params = mp_unit
    cfg = SolverConfig(tolerance=1e-300)
    with pytest.raises(SolverError):
        solve_point(spec, params, 1j, cfg)


def test_write_density_csv_deterministic(tmp_path, canonical_small):
    spec, params = canonical_small
    E = np.linspace(0.5, 1.5, 5)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_density_csv(str(a), spec, params, E)
    write_density_csv(str(b), spec, params, E)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "E,rho,residual,iterations"
    assert len(lines) == 6
    # 17 significant digits round-trip against the same vectorized route;
    # the scalar entry point may differ by machine-epsilon wiggle
    first = float(lines[1].split(",")[1])
    assert first == density_curve(spec, params, E)[0]
    assert first == pytest.approx(density(spec, params, E[0]), rel=1e-12)
