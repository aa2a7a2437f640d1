import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from rectconv import quantiles
from rectconv import (
    ModelParams,
    SolverConfig,
    classical_locations,
    density,
    eta_lower,
    find_right_edge,
    in_domain,
    make_spectrum,
    write_quantile_csv,
)


def test_gamma_one_is_edge(canonical_small):
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    table = classical_locations(spec, params, 5, edge)
    assert table.gamma[0] == edge.lambda_plus


def test_mp_quantiles_closed_form(mp_unit):
    # c = 1, t = 1: F(x) = (2/pi) arcsin(sqrt(x)/2) + sqrt(x(4-x))/(2 pi)
    spec, params = mp_unit
    p = params.p
    edge = find_right_edge(spec, params)
    table = classical_locations(spec, params, 12, edge)

    def F(x):
        return 2 / np.pi * np.arcsin(np.sqrt(x) / 2) + np.sqrt(x * (4 - x)) / (2 * np.pi)

    for j in range(2, 13):
        target = 1.0 - (j - 1) / p
        oracle = brentq(lambda x: F(x) - target, 1e-12, 4.0, xtol=1e-14)
        assert abs(table.gamma[j - 1] - oracle) < 1e-6


def test_gamma_strictly_decreasing(canonical_small):
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    table = classical_locations(spec, params, 15, edge)
    assert np.all(np.diff(table.gamma) < 0)
    assert table.j_max == 15
    assert table.quad_error <= 1e-6


def test_mass_against_independent_quadrature(canonical_small):
    # adaptive quadrature of the density (sqrt substitution near the edge)
    # re-checks the spline route: integral from gamma_j to lambda_+ = (j-1)/p
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    lam = edge.lambda_plus
    table = classical_locations(spec, params, 8, edge)
    for j in (4, 8):
        u_hi = np.sqrt(lam - table.gamma[j - 1])
        val, err = quad(
            lambda u: 2 * u * density(spec, params, lam - u * u),
            0.0,
            u_hi,
            epsabs=1e-10,
            limit=200,
        )
        assert abs(val - (j - 1) / params.p) < 5e-7


def _gapped():
    # two support components, each holding half the mass
    return make_spectrum([2.0] * 20 + [0.5] * 20), ModelParams(p=40, n=400, t=0.05)


@pytest.mark.parametrize(
    "case,targets",
    [
        ("canonical_small", np.concatenate([np.arange(15) / 100, (np.arange(15) + 0.5) / 100])),
        ("gapped", np.array([0.0, 0.1, 0.45, 0.5, 0.55, 0.7, 0.9])),
    ],
)
def test_locations_match_all_piece_solve(case, targets, request, monkeypatch):
    # solving only the pieces next to each target must give, bit for bit,
    # the smallest root that solving every piece of the spline gives
    spec, params = _gapped() if case == "gapped" else request.getfixturevalue(case)
    edge = find_right_edge(spec, params)
    splines = []
    mass_spline = quantiles._mass_spline

    def spy(spec, params, lam_plus, u_max, cfg):
        out = mass_spline(spec, params, lam_plus, u_max, cfg)
        splines.append((out[0], u_max))
        return out

    monkeypatch.setattr(quantiles, "_mass_spline", spy)
    x, _ = quantiles._locations(spec, params, edge, targets, SolverConfig())
    C, u_max = splines[-1]
    lam = edge.lambda_plus
    for tau, got in zip(targets, x):
        if tau == 0:
            assert got == lam
            continue
        roots = C.solve(tau, extrapolate=False)
        roots = roots[(roots >= 0) & (roots <= u_max)]
        assert got == lam - roots.min() ** 2


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
