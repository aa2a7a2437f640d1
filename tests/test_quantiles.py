import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import brentq

from rectconv import freeconv, quantiles
from rectconv import (
    ModelParams,
    SolverConfig,
    SolverError,
    canonical_sqrt_spectrum,
    classical_locations,
    density_curve,
    eta_lower,
    find_right_edge,
    in_domain,
    make_spectrum,
    support_scan,
    write_quantile_csv,
)


def test_gamma_one_is_edge(canonical_small):
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    table = classical_locations(spec, params, 5, edge)
    assert table.gamma[0] == edge.lambda_plus


@pytest.mark.parametrize("p,j_max,bound", [(50, 12, 1e-6), (20, 20, 1e-13), (50, 50, 1e-13)])
def test_mp_quantiles_closed_form(p, j_max, bound):
    # c = 1, t = 1: F(x) = (2/pi) arcsin(sqrt(x)/2) + sqrt(x(4-x))/(2 pi);
    # j_max = p reaches down to the hard edge at 0
    spec, params = make_spectrum(np.zeros(p)), ModelParams(p=p, n=p, t=1.0)
    edge = find_right_edge(spec, params)
    table = classical_locations(spec, params, j_max, edge)

    def F(x):
        return 2 / np.pi * np.arcsin(np.sqrt(x) / 2) + np.sqrt(x * (4 - x)) / (2 * np.pi)

    for j in range(2, j_max + 1):
        target = 1.0 - (j - 1) / p
        oracle = brentq(lambda x: F(x) - target, 1e-12, 4.0, xtol=1e-14)
        assert abs(table.gamma[j - 1] - oracle) < bound


def test_mp_quantiles_against_mpmath():
    # criterion 6's locations (p = 50, gamma_2..gamma_20) against 40-digit
    # roots of the closed-form distribution function: 2.0e-15 (2.9e-15
    # when the theta-solve ran on below R's rounding floor from the
    # midpoint of its node bracket, with R read at the last iterate)
    mp = pytest.importorskip("mpmath")
    p = 50
    spec, params = make_spectrum(np.zeros(p)), ModelParams(p=p, n=p, t=1.0)
    gamma = classical_locations(spec, params, 20, find_right_edge(spec, params)).gamma
    with mp.workdps(40):
        for j in range(2, 21):
            target = 1 - mp.mpf(j - 1) / p

            def F(x):
                return 2 / mp.pi * mp.asin(mp.sqrt(x) / 2) + mp.sqrt(x * (4 - x)) / (2 * mp.pi) - target

            root = mp.findroot(F, mp.mpf(float(gamma[j - 1])))
            assert abs(mp.mpf(float(gamma[j - 1])) - root) <= 3e-15


def test_gamma_strictly_decreasing(canonical_small):
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    table = classical_locations(spec, params, 15, edge)
    assert np.all(np.diff(table.gamma) < 0)
    assert table.j_max == 15
    assert table.quad_error <= 1e-6


def _gapped():
    # two support components, each holding half the mass
    return make_spectrum([2.0] * 20 + [0.5] * 20), ModelParams(p=40, n=400, t=0.05)


def _right_mass(spec, params, x):
    # composite 8-point Gauss-Legendre rule in theta on each component
    # [l, r] above x, with E = (l+r)/2 + (r-l)/2 cos(theta): the mass
    # element is smooth there.  One density_curve call per component
    lam = find_right_edge(spec, params).lambda_plus
    s, w = np.polynomial.legendre.leggauss(8)
    panels, mass = 64, 0.0
    for left, right in support_scan(spec, params, 0.0, 2.0 * lam, lam).intervals:
        if right <= x:
            continue
        mid, half = 0.5 * (left + right), 0.5 * (right - left)
        h = 0.5 * np.arccos(np.clip((x - mid) / half, -1.0, 1.0)) / panels
        theta = h * (2.0 * np.arange(panels)[:, None] + 1.0 + s)
        rho = density_curve(spec, params, mid + half * np.cos(theta).ravel()).reshape(theta.shape)
        mass += h * np.sum(w * rho * half * np.sin(theta))
    return mass


def test_mass_against_independent_quadrature(canonical_small):
    # the right mass of gamma_j is (j-1)/p, by a quadrature of the density
    # independent of the closed-form mass
    cases = [(canonical_small, (4, 8, 15)), (_gapped(), (5, 21, 23, 30, 39))]
    for (spec, params), js in cases:
        edge = find_right_edge(spec, params)
        table = classical_locations(spec, params, max(js), edge)
        for j in js:
            assert abs(_right_mass(spec, params, table.gamma[j - 1]) - (j - 1) / params.p) < 1e-10

    # on the gapped spectrum each location is the same, bit for bit, when
    # requested alone, and the half-mass location is the top component's
    # left edge rather than a point in the gap
    spec, params = _gapped()
    edge = find_right_edge(spec, params)
    targets = np.array([0.0, 0.1, 0.45, 0.5, 0.55, 0.7, 0.9])
    x, quad_error = quantiles._locations(spec, params, edge, targets, SolverConfig())
    for tau, got in zip(targets, x):
        assert quantiles._locations(spec, params, edge, [tau], SolverConfig())[0][0] == got
    assert quad_error < 1e-12
    top = support_scan(spec, params, 0.0, 2.0 * edge.lambda_plus, 1.0).intervals[-1]
    assert classical_locations(spec, params, 21, edge).gamma[20] == top[0]


def test_right_mass_closed_form_marchenko_pastur():
    # c = t = 1, every atom at 0: Phi(zeta) = (zeta + 1)^2 / zeta, so zeta(E)
    # is the root of zeta^2 + (2 - E) zeta + 1 on the upper unit circle
    E = np.linspace(0.02, 3.98, 50)
    zeta = 0.5 * (E - 2.0) + 0.5j * np.sqrt(4.0 - (E - 2.0) ** 2)
    R, m = freeconv._right_mass(np.zeros(30), 1.0, 1.0, zeta, -1.0 / zeta)
    F = 2 / np.pi * np.arcsin(np.sqrt(E) / 2) + np.sqrt(E * (4 - E)) / (2 * np.pi)
    npt.assert_allclose(R, 1.0 - F, rtol=0, atol=1e-13)
    npt.assert_allclose(m.imag / np.pi, np.sqrt(E * (4 - E)) / (2 * np.pi * E), rtol=1e-13)
    # the quadrature helper the other mass tests check against reads the
    # same closed form, from the hard edge up
    spec, params = make_spectrum(np.zeros(30)), ModelParams(p=30, n=30, t=1.0)
    for e, r in zip(E[::10], 1.0 - F[::10]):
        assert abs(_right_mass(spec, params, e) - r) < 1e-13
    assert abs(_right_mass(spec, params, 0.0) - 1.0) < 1e-13


def test_right_mass_against_quadrature():
    # c = 0.1 brings in the log g term; zeta from the density walk
    spec, params = _gapped()
    d, c, t = spec.values, params.c_n, params.t
    for left, right, x_c, phi2 in freeconv._support(d, c, t, find_right_edge(spec, params)):
        E = left + (right - left) * np.array([0.9, 0.4, 0.05])
        at = freeconv._walk(d, c, t, ([right], [x_c], [phi2]), E, np.array([3]), SolverConfig())[0]
        R, _ = freeconv._right_mass(d, c, t, at[0], at[3])  # the walk's rows are read at the Newton point
        for e, r in zip(E, R):
            assert abs(r - _right_mass(spec, params, e)) < 1e-10


def _small_t():
    # at t = 1/n the top atoms each keep a component of their own
    return canonical_sqrt_spectrum(200, 1.0), ModelParams(p=200, n=400, t=1.0 / 400)


def test_small_t_masses_are_atom_counts():
    # the mass above each right edge is #{d_i > x_c}/p: the top six
    # components hold 1/p each, so gamma_2..gamma_7 are their left edges
    spec, params = _small_t()
    edge = find_right_edge(spec, params)
    rows = freeconv._support(spec.values, params.c_n, params.t, edge)[::-1]
    counts = [np.count_nonzero(spec.values > x_c) for x_c in rows[:7, 2]]
    assert counts == list(range(7))
    gamma = classical_locations(spec, params, 20, edge).gamma
    assert np.array_equal(gamma[1:7], rows[:6, 0])


def test_small_t_locations_work(monkeypatch):
    # points through the walk's Newton: the Chebyshev-panel quadrature's
    # density walks took 36,893 on this fixture.  Newton calls: an
    # evaluation that restarted a failed target's walk from its component's
    # right edge made 438 here, where every target now goes on from its own
    # last accepted point
    spec, params = _small_t()
    edge = find_right_edge(spec, params)
    calls, columns = [0], [0]
    real = freeconv._newton_level

    def counting(d, c, t, z_l, zeta, tol, max_iter):
        calls[0] += 1
        columns[0] += zeta.shape[0]
        return real(d, c, t, z_l, zeta, tol, max_iter)

    monkeypatch.setattr(freeconv, "_newton_level", counting)
    classical_locations(spec, params, 20, edge)
    assert columns[0] < 36_893 // 10
    assert calls[0] < 438 // 4


def test_theory_fixture_locations_work(monkeypatch):
    # the theory fixture (p = 200, t = n^(-1/6)): the node walk takes 4
    # rounds and the theta-solve 9 evaluations, each one _newton_level
    # call.  15 calls when each solve started at the midpoint of its node
    # bracket and ran on below R's rounding floor
    n = 400
    spec, params = canonical_sqrt_spectrum(200, 1.0), ModelParams(p=200, n=n, t=n ** (-1.0 / 6.0))
    edge = find_right_edge(spec, params)
    calls = []
    real = freeconv._newton_level

    def counting(d, c, t, z_l, zeta, tol, max_iter):
        calls.append(zeta.shape[0])
        return real(d, c, t, z_l, zeta, tol, max_iter)

    monkeypatch.setattr(freeconv, "_newton_level", counting)
    classical_locations(spec, params, 20, edge)
    assert len(calls) < 15


def test_evaluation_failure_names_its_component_and_target(monkeypatch):
    # the node walk succeeds; then every solve in the lower component
    # fails, so the walk of the first bracketed-Newton evaluation there
    # raises, naming that component and its target, not the top one's
    spec, params = _gapped()
    edge = find_right_edge(spec, params)
    gap = freeconv._support(spec.values, params.c_n, params.t, edge)[0, 1]  # the lower component's right edge
    real_newton, real_bracketed = freeconv._newton_level, quantiles._bracketed_newton
    armed = []

    def bracketed(*args, **kwargs):
        armed.append(True)
        return real_bracketed(*args, **kwargs)

    def newton(d, c, t, z_l, zeta, tol, max_iter):
        zeta, used, F, dph, mv = real_newton(d, c, t, z_l, zeta, tol, max_iter)
        return zeta, used, np.where(bool(armed) & (z_l.real < gap), 1.0, F), dph, mv

    monkeypatch.setattr(freeconv, "_newton_level", newton)
    monkeypatch.setattr(quantiles, "_bracketed_newton", bracketed)
    message = r"classical locations: component 1 from the top, target 0.75: density walk stage: no root reached at E=0\.[0-9]"
    with pytest.raises(SolverError, match=message):
        quantiles._locations(spec, params, edge, [0.25, 0.75], SolverConfig())
    assert armed


def test_classical_locations_validates_args(canonical_small):
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    with pytest.raises(ValueError):
        classical_locations(spec, params, 0, edge)
    with pytest.raises(ValueError):
        classical_locations(spec, params, params.p + 1, edge)
    with pytest.raises(ValueError):
        classical_locations(spec, ModelParams(params.p, params.n, 0.0), 5, edge)


def test_eta_lower_closed_forms():
    # t = 0, kappa = 0: n eta^(3/2) = 1
    params = ModelParams(p=500, n=10**6, t=0.0)
    npt.assert_allclose(eta_lower(params, 0.0), 1e-4, rtol=1e-10)
    params = ModelParams(p=50, n=1000, t=0.0)
    npt.assert_allclose(eta_lower(params, 0.0), 1000.0 ** (-2 / 3), rtol=1e-10)


def test_eta_lower_solves_defining_equation():
    params = ModelParams(p=100, n=400, t=0.3)
    for kappa in (0.0, 0.01, 0.5):
        eta = eta_lower(params, kappa)
        npt.assert_allclose(
            params.n * eta * (params.t + np.sqrt(kappa + eta)), 1.0, rtol=1e-9
        )


def test_eta_lower_to_rounding():
    for kappa in (0.0, 1e-12, 1e-3, 10.0):
        for t in (1e-6, 0.3, 10.0):
            for n in (10, 10**4):
                eta = eta_lower(ModelParams(p=1, n=n, t=t), kappa)
                npt.assert_allclose(
                    n * eta * (t + np.sqrt(kappa + eta)), 1.0, rtol=1e-13,
                    err_msg=f"kappa={kappa}, t={t}, n={n}",
                )


def test_eta_lower_large_t_regime():
    # t >= 10 n^(-1/3): eta_l approaches 1/(n t) within 10%
    n = 1000
    t = 10.0 * n ** (-1 / 3)
    params = ModelParams(p=100, n=n, t=t)
    eta = eta_lower(params, 0.0)
    assert abs(eta * n * t - 1.0) < 0.1


def test_eta_lower_monotone_in_kappa():
    params = ModelParams(p=100, n=300, t=0.2)
    etas = [eta_lower(params, k) for k in (0.0, 0.1, 0.5, 2.0)]
    assert np.all(np.diff(etas) < 0)


def test_in_domain_basic_membership(canonical_small):
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    lam = edge.lambda_plus
    assert in_domain(params, edge, complex(lam, 0.5), 0.1)
    assert in_domain(params, edge, complex(lam - 0.1, 0.3), 0.1)
    # eta above the hard ceiling
    assert not in_domain(params, edge, complex(lam, 11.0), 0.1)
    # nonpositive eta never qualifies
    assert not in_domain(params, edge, complex(lam, 0.0), 0.1)
    assert not in_domain(params, edge, complex(lam, -0.1), 0.1)
    # far below the window
    assert not in_domain(params, edge, complex(lam - 10.0, 0.5), 0.1)
    # tiny eta fails the resolution floor
    assert not in_domain(params, edge, complex(lam, 1e-9), 0.1)


def test_in_domain_outside_branch(canonical_small):
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    lam = edge.lambda_plus
    # past the main window's right cap lam + t^2/vartheta the outside flank
    # still covers E up to lam + 0.75 c_V under its own eta floor
    assert in_domain(params, edge, complex(lam + 0.5, 0.05), 0.1)
    assert not in_domain(params, edge, complex(lam + 0.5, 1e-4), 0.1)


def test_write_quantile_csv(tmp_path, canonical_small):
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    table = classical_locations(spec, params, 6, edge)
    path = tmp_path / "q.csv"
    write_quantile_csv(str(path), table, params, edge)
    lines = path.read_text().splitlines()
    assert lines[0] == "j,gamma_j,kappa_j,eta_l_j"
    assert len(lines) == 7
    j, gamma, kappa, eta = lines[1].split(",")
    assert int(j) == 1
    assert float(gamma) == edge.lambda_plus
    assert float(kappa) == 0.0
    assert float(eta) == eta_lower(params, 0.0)
    # byte determinism
    path2 = tmp_path / "q2.csv"
    write_quantile_csv(str(path2), table, params, edge)
    assert path.read_bytes() == path2.read_bytes()
