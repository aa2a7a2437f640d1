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


def _doubling_bracket(d, c, t, d1):
    # the bracket search from the offset eps = 1e-8 max(1, d1): shrink by
    # 100 while Phi' >= 0 there, then double while Phi' < 0
    def slope(x):
        return _phi(d, c, t, x, 1)[1]

    eps = 1e-8 * max(1.0, d1)
    while slope(d1 + eps) >= 0.0:
        eps /= 100.0
    lo, width = d1 + eps, eps
    while slope(d1 + width) < 0.0:
        lo, width = d1 + width, 2.0 * width
    return lo, d1 + width


def test_edge_bracket_starts_at_the_sqrt_scale(monkeypatch):
    # the search starts on the doubling grid next to t^2 and finds the
    # bracket that doubling from eps finds, so zeta_plus keeps its bits
    rng = np.random.default_rng(23)
    cases = [(canonical_sqrt_spectrum(200, 1.0), ModelParams(p=200, n=400, t=0.368))]
    cases += [(make_spectrum(np.zeros(20)), ModelParams(p=20, n=40, t=t)) for t in (1e-6, 30.0)]
    cases += [(make_spectrum(rng.uniform(0, 3, 30)), ModelParams(p=30, n=45, t=t)) for t in (1e-3, 0.1, 2.0)]
    real_newton = edge_mod._bracketed_newton
    for spec, params in cases:
        d, c, t = spec.values, params.c_n, params.t
        lo, hi = _doubling_bracket(d, c, t, spec.top)
        searched = find_right_edge(spec, params).zeta_plus
        # the same solve, handed the bracket that doubling from eps finds
        with monkeypatch.context() as m:
            m.setattr(edge_mod, "_bracketed_newton", lambda fun, _lo, _hi, xtol: real_newton(fun, [lo], [hi], xtol))
            assert find_right_edge(spec, params).zeta_plus == searched
    # on the README configuration the doubling from eps took 27 of 35 passes
    passes = []
    real_phi = edge_mod._phi

    def counting(*args):
        passes.append(args)
        return real_phi(*args)

    monkeypatch.setattr(edge_mod, "_phi", counting)
    find_right_edge(*cases[0])
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


def test_edge_bracket_errors():
    # at t = 1e-30 Phi' stays positive down to d1 + 1e-14; at t = 1e7 the
    # noise-only critical point sqrt(c) t lies beyond d1 + 1e6
    with pytest.raises(EdgeBracketError, match="no sign change"):
        find_right_edge(make_spectrum([1.0, 0.5]), ModelParams(p=2, n=4, t=1e-30))
    with pytest.raises(EdgeBracketError, match="stays negative"):
        find_right_edge(make_spectrum(np.zeros(4)), ModelParams(p=4, n=8, t=1e7))


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
