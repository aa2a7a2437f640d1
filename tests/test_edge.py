import json

import numpy as np
import numpy.testing as npt
import pytest

from rectconv import edge as edge_mod
from rectconv import (
    EdgeBracketError,
    ModelParams,
    bbp_threshold,
    canonical_sqrt_spectrum,
    edge_report_json,
    edge_velocity,
    find_right_edge,
    make_spectrum,
    outlier_location,
    phi,
    phi_derivative,
    sqrt_coefficient,
)
from rectconv.stieltjes import _phi


def test_mp_unit_edge_closed_forms(mp_unit):
    spec, params = mp_unit
    edge = find_right_edge(spec, params)
    # within 1 ulp of 4
    assert abs(edge.lambda_plus - 4.0) <= np.spacing(4.0)
    npt.assert_allclose(edge.zeta_plus, 1.0, rtol=1e-10)
    npt.assert_allclose(edge.xi_plus, 1.0, rtol=1e-10)
    npt.assert_allclose(edge.velocity, 4.0, rtol=1e-10)
    npt.assert_allclose(edge.sqrt_coeff, 1.0 / (4.0 * np.pi), rtol=1e-10)
    npt.assert_allclose(edge.phi_second, 2.0, rtol=1e-8)


def test_all_zero_general_c_closed_forms():
    # zeros: Phi(zeta) = (zeta + ct)(zeta + t)/zeta, minimized at sqrt(c) t,
    # giving the noise-only edge t (1 + sqrt(c))^2
    for p, n, t in ((60, 120, 0.7), (40, 400, 2.0), (100, 130, 0.25)):
        spec = make_spectrum(np.zeros(p))
        params = ModelParams(p=p, n=n, t=t)
        c = params.c_n
        edge = find_right_edge(spec, params)
        npt.assert_allclose(edge.lambda_plus, t * (1 + np.sqrt(c)) ** 2, rtol=1e-10)
        npt.assert_allclose(edge.zeta_plus, np.sqrt(c) * t, rtol=1e-9)


def test_all_zero_edge_to_rounding():
    # the bracketed Newton on Phi' ends within 4 ulp of the root and takes
    # one more Newton step, so the noise-only edge t (1 + sqrt(c))^2 comes
    # out to rounding for c in {0.1, 0.5, 1}
    for n in (200, 40, 20):
        for t in (1e-4, 0.25, 20.0):
            params = ModelParams(p=20, n=n, t=t)
            edge = find_right_edge(make_spectrum(np.zeros(20)), params)
            expected = t * (1 + np.sqrt(params.c_n)) ** 2
            npt.assert_allclose(edge.lambda_plus, expected, rtol=4 * np.finfo(float).eps, err_msg=f"n={n}, t={t}")


def _edge_family(seed, count):
    # uniform, all-zero and two-cluster spectra, c from {1/4, 1/2, 0.9, 1}
    # (n rounded), t log-uniform on [1e-6, 1e3]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = int(rng.integers(10, 61))
        c = float(rng.choice([0.25, 0.5, 0.9, 1.0]))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            atoms = rng.uniform(0, 4, p)
        elif kind == 1:
            atoms = np.zeros(p)
        else:
            atoms = np.concatenate([rng.uniform(0, 1, p // 2), rng.uniform(2, 3, p - p // 2)])
        t = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e3))))
        yield make_spectrum(atoms), ModelParams(p=p, n=round(p / c), t=t)


def test_edge_bracket_holds():
    # Phi' > 0 at the closed-form top end d1 + c t + sqrt(c t (t + 2 d1)),
    # and Phi' changes sign across zeta_plus: the root is inside the
    # bracket and the solve ends on it.  32 eps clears the rounding of Phi'
    # near its root (16 eps was the most any of 2,000 spectra needed)
    eps = np.finfo(float).eps
    for spec, params in _edge_family(11, 60):
        d, c, t, d1 = spec.values, params.c_n, params.t, spec.top
        hi = d1 + c * t + np.sqrt(c * t * (t + 2.0 * d1))
        zeta = find_right_edge(spec, params).zeta_plus
        slope = _phi(d, c, t, np.array([hi, zeta * (1.0 - 32.0 * eps), zeta * (1.0 + 32.0 * eps)]), 1)[1]
        assert slope[0] > 0.0 and slope[1] < 0.0 < slope[2], (params, slope)


def test_edge_far_and_near_critical_points():
    # the critical point sqrt(c) t of the zero spectrum far out at t = 1e7,
    # and one of [1, 0.5] a few floats above d1 at t = 1e-30
    expected = 1e7 * (1 + np.sqrt(0.5)) ** 2
    found = find_right_edge(make_spectrum(np.zeros(4)), ModelParams(p=4, n=8, t=1e7)).lambda_plus
    assert abs(found - expected) <= np.spacing(expected)
    zeta = find_right_edge(make_spectrum([1.0, 0.5]), ModelParams(p=2, n=4, t=1e-30)).zeta_plus
    assert 1.0 < zeta <= 1.0 + 4 * np.spacing(1.0)


@pytest.mark.parametrize(
    "values, t",
    [(np.zeros(4), 1e-300), (np.zeros(4), 1e-110), ([1.0, 0.5], 1e-34), (np.zeros(4), 1e200), (np.zeros(4), 1e300)],
)
def test_edge_out_of_float_range(values, t):
    # atom sums that overflow or underflow, or a critical point under one
    # float of d1: a valid edge or EdgeBracketError, never a RuntimeWarning
    # (an error under the suite's filter)
    spec = make_spectrum(values)
    try:
        edge = find_right_edge(spec, ModelParams(p=len(values), n=2 * len(values), t=t))
    except EdgeBracketError:
        return
    assert np.isfinite(edge.lambda_plus) and edge.zeta_plus > spec.top and edge.phi_second > 0.0


def test_edge_against_mpmath():
    # lambda_plus against Phi at a 50-digit root of Phi'(x) = 0, from the
    # same double atoms, c and t.  Phi' = 0 there, so lambda_plus is
    # well-conditioned; the worst of these 30 is 1.86 eps
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for spec, params in _edge_family(11, 30):
        found = find_right_edge(spec, params)
        with mp.workdps(50):
            d = [mp.mpf(float(x)) for x in spec.values]
            c, t = mp.mpf(params.c_n), mp.mpf(params.t)

            def phi_and_slope(x):
                mv = mp.fsum(1 / (a - x) for a in d) / len(d)
                g, g1 = 1 - c * t * mv, -c * t * mp.fsum(1 / (a - x) ** 2 for a in d) / len(d)
                return x * g * g + (1 - c) * t * g, g * g + 2 * x * g * g1 + (1 - c) * t * g1

            root = mp.findroot(lambda x: phi_and_slope(x)[1], mp.mpf(found.zeta_plus))
            ref = phi_and_slope(root)[0]
            assert abs(mp.mpf(found.lambda_plus) - ref) <= 4 * eps * abs(ref), params


def test_edge_solve_pass_count(monkeypatch):
    # on the README configuration the solve, its last Newton step and the
    # velocity take 7 _phi passes
    passes = []
    real_phi = edge_mod._phi

    def counting(*args):
        passes.append(args)
        return real_phi(*args)

    monkeypatch.setattr(edge_mod, "_phi", counting)
    find_right_edge(canonical_sqrt_spectrum(200, 1.0), ModelParams(p=200, n=400, t=0.368))
    assert len(passes) <= 11


def test_bracketed_newton_skips_empty_brackets():
    # no points, no evaluation: the support finder hands it empty batches
    def fun(x):
        pytest.fail("fun called on no points")

    out = edge_mod._bracketed_newton(fun, np.empty(0), np.empty(0), 1e-8)
    assert out.shape == (0,)


def test_bracketed_newton_plateau_of_zeros():
    # f = 1 - x below 1 and exactly 0 above, the test f > 0: from the false
    # side every step is 0 and moved one float, so 100 evaluations used to
    # creep from 1.5 and return the bracket's low end 0.0.  After
    # _CREEP_CAP zero steps in a row the point bisects, lands on the true
    # side, and Newton goes on from there
    calls = []

    def fun(x):
        calls.append(x.copy())
        f = np.where(x < 1.0, 1.0 - x, 0.0)
        return f, -np.ones_like(x), f > 0.0

    root = edge_mod._bracketed_newton(fun, [0.0], [3.0], edge_mod._ROOT_XTOL)[0]
    assert root == np.nextafter(1.0, 0.0) and len(calls) == edge_mod._CREEP_CAP + 4 == 12
    # the first _CREEP_CAP + 1 evaluations creep down from the midpoint
    assert np.all(np.diff(np.ravel(calls[: edge_mod._CREEP_CAP + 1])) < 0) and calls[edge_mod._CREEP_CAP + 1][0] == pytest.approx(0.75)


def test_bracketed_newton_starts_inside_the_bracket():
    # a start in the open bracket is the first evaluation; one outside it
    # (or on an end) is replaced by the midpoint
    calls = []

    def fun(x):
        calls.append(x.copy())
        return x - 0.3, np.ones_like(x), x < 0.3

    edge_mod._bracketed_newton(fun, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1e-12, start=np.array([0.25, 1.0, -2.0]))
    assert calls[0].tolist() == [0.25, 0.5, 0.5]


def test_edge_reads_its_solve_point_once():
    # the point the bracketed Newton returns was its last evaluation where
    # Phi' < 0, and that pass gives lambda_plus, Phi' and Phi'' there; the
    # last Newton step is evaluated only where it moves the point.  No
    # point is evaluated twice at order 2 (here the step rounds to 0)
    spec, params = canonical_sqrt_spectrum(200, 1.0), ModelParams(p=200, n=400, t=0.368)
    found = find_right_edge(spec, params)
    passes = []
    real_phi = edge_mod._phi

    def recording(d, c, t, x, order=0):
        if order == 2:
            passes.extend(np.ravel(x).tolist())
        return real_phi(d, c, t, x, order)

    edge_mod._phi = recording
    try:
        again = find_right_edge(spec, params)
    finally:
        edge_mod._phi = real_phi
    assert again == found and len(passes) == len(set(passes))


def test_t_zero_short_circuit():
    spec = make_spectrum([0.3, 1.7, 0.9])
    edge = find_right_edge(spec, ModelParams(p=3, n=5, t=0.0))
    assert edge.lambda_plus == 1.7
    assert edge.xi_plus == 0.0
    assert np.isnan(edge.velocity)
    assert np.isnan(edge.sqrt_coeff)


def test_edge_is_critical_point(canonical_small):
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    assert edge.zeta_plus > spec.top
    assert abs(phi_derivative(spec, params, edge.zeta_plus + 0j)) < 1e-9
    assert edge.phi_second > 0
    npt.assert_allclose(
        phi(spec, params, edge.zeta_plus + 0j).real, edge.lambda_plus, rtol=1e-12
    )


def test_edge_matches_grid_minimum(canonical_small):
    # Phi decreases then increases on (d_1, inf): the edge is its minimum there
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    best = np.inf
    for chunk in np.array_split(np.geomspace(1e-9, 10.0, 1_000_000), 40):
        vals = phi(spec, params, spec.top + chunk + 0j).real
        best = min(best, vals.min())
    assert abs(best - edge.lambda_plus) < 1e-6


def test_velocity_matches_finite_difference(canonical_small):
    spec, params = canonical_small
    h = 1e-6
    e0 = find_right_edge(spec, params)
    ep = find_right_edge(spec, ModelParams(params.p, params.n, params.t + h))
    em = find_right_edge(spec, ModelParams(params.p, params.n, params.t - h))
    fd = (ep.lambda_plus - em.lambda_plus) / (2 * h)
    npt.assert_allclose(e0.velocity, fd, rtol=1e-6)


def test_velocity_positive_for_expanding_edge(canonical_small):
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    assert edge.velocity > 0
    assert edge_velocity(spec, params, edge) == edge.velocity


def test_sqrt_coefficient_consistent_with_density(canonical_small):
    from rectconv import density

    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    x = 1e-3 * params.t**2
    rho = density(spec, params, edge.lambda_plus - x)
    npt.assert_allclose(rho, edge.sqrt_coeff * np.sqrt(x), rtol=0.02)
    assert sqrt_coefficient(spec, params, edge) == edge.sqrt_coeff


def test_xi_scaling_band(canonical_small):
    spec, params = canonical_small
    for t in (0.05, 0.1, 0.2, 0.4):
        edge = find_right_edge(spec, ModelParams(params.p, params.n, t))
        assert 0.05 <= edge.xi_plus / t**2 <= 20.0


def test_bbp_threshold_and_outliers(mp_unit):
    spec, params = mp_unit
    edge = find_right_edge(spec, params)
    assert bbp_threshold(spec, params, edge) == edge.zeta_plus
    npt.assert_allclose(outlier_location(spec, params, edge, 2.0), 4.5, rtol=1e-12)
    with pytest.raises(ValueError):
        outlier_location(spec, params, edge, 0.5)  # subcritical
    # outlier position increases with spike strength and exceeds the edge
    locs = [outlier_location(spec, params, edge, d) for d in (1.5, 2.0, 3.0)]
    assert locs[0] > edge.lambda_plus
    assert locs[0] < locs[1] < locs[2]


def test_outlier_half_c_closed_forms():
    spec = make_spectrum(np.zeros(40))
    params = ModelParams(p=40, n=80, t=1.0)
    edge = find_right_edge(spec, params)
    npt.assert_allclose(edge.lambda_plus, (1 + np.sqrt(0.5)) ** 2, rtol=1e-10)
    # Phi(d) = (d + 0.5)(d + 1)/d for the zero spectrum at c = 0.5, t = 1
    npt.assert_allclose(outlier_location(spec, params, edge, 3.0), 14.0 / 3.0, rtol=1e-12)
    npt.assert_allclose(outlier_location(spec, params, edge, 2.5), 4.2, rtol=1e-12)


def test_outlier_t_zero_is_identity():
    spec = make_spectrum([1.0, 0.5])
    params = ModelParams(p=2, n=4, t=0.0)
    edge = find_right_edge(spec, params)
    assert outlier_location(spec, params, edge, 3.0) == 3.0


def test_edge_report_json_keys(canonical_small):
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    blob = json.loads(edge_report_json(edge, spec, params))
    assert set(blob) == {
        "lambda_plus",
        "zeta_plus",
        "xi_plus",
        "velocity",
        "sqrt_coeff",
        "bbp_threshold",
    }
    assert blob["bbp_threshold"] == edge.zeta_plus


def test_edge_report_json_nan_to_null():
    spec = make_spectrum([1.0, 0.2])
    params = ModelParams(p=2, n=4, t=0.0)
    edge = find_right_edge(spec, params)
    blob = json.loads(edge_report_json(edge, spec, params))
    assert blob["velocity"] is None
    assert blob["sqrt_coeff"] is None
