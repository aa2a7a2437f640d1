import cmath
import os

import numpy as np
import numpy.testing as npt
import pytest

from rectconv import freeconv
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
    with pytest.raises(ValueError):
        SolverConfig(homotopy_factor=1.0)
    with pytest.raises(ValueError):
        SolverConfig(damping=0.0)
    with pytest.raises(ValueError):
        SolverConfig(eta_start=-1.0)


def test_solve_point_mp_quadratic_oracle(mp_unit):
    spec, params = mp_unit
    for z in (1j, 2.0 + 0.1j, -1.0 + 0.5j, 3.9 + 1e-5j):
        pt = solve_point(spec, params, z)
        npt.assert_allclose(pt.m, mp_m_oracle(z), rtol=1e-10)
        assert pt.residual <= 1e-12 * max(1.0, abs(z))


def test_solve_point_methods_agree(mp_unit):
    spec, params = mp_unit
    z = 0.5 + 0.01j
    ms = [solve_point(spec, params, z, method=m).m for m in ("hybrid", "newton", "fixed_point")]
    npt.assert_allclose(ms[1], ms[0], rtol=1e-10)
    npt.assert_allclose(ms[2], ms[0], rtol=1e-10)


def test_solve_point_rejects_bad_method_and_z(mp_unit):
    spec, params = mp_unit
    with pytest.raises(ValueError):
        solve_point(spec, params, 1j, method="bisect")
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
    # gapped cases add points handed to the ladder and points above the edge
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
    # a bulk point is reached by the real-axis walk (eta_used 0, residual
    # |Phi(zeta) - E|); a point left of the support goes to the eta ladder
    spec, params = canonical_small
    rho, info = density_diagnostics(spec, params, [1.0, -0.5])
    assert rho[0] > 0
    assert info["eta_used"][0] == 0.0
    assert info["residual"][0] <= 1e-12
    assert info["iterations"][0] >= 1
    assert rho[1] < 1e-6
    assert info["eta_used"][1] == 5e-8
    assert info["residual"][1] <= 1e-10
    assert info["iterations"][1] >= 1


def _ladder_density(spec, params, E):
    # the extrapolated eta ladder the real-axis walk replaces
    eta_hi, eta_lo = freeconv._DENSITY_ETAS
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
    rho, info = density_diagnostics(spec, params, E)
    npt.assert_allclose(rho, exact, rtol=0, atol=1e-12)
    assert np.all(info["eta_used"] == 0.0)


def test_density_walk_matches_ladder(canonical_small):
    spec, params = canonical_small
    edge = find_right_edge(spec, params)
    E = np.linspace(-0.5, edge.lambda_plus + 0.2, 240)
    rho, info = density_diagnostics(spec, params, E)
    walked = info["eta_used"] == 0.0
    assert walked.sum() > 150
    ref = _ladder_density(spec, params, E)
    close = walked & (E < edge.lambda_plus - 1e-4)
    npt.assert_allclose(rho[close], ref[close], rtol=1e-8)
    assert np.all(rho[E >= edge.lambda_plus] == 0.0)
    handed = ~walked & (E < edge.lambda_plus)
    npt.assert_allclose(rho[handed], ref[handed], rtol=1e-12, atol=1e-15)


def test_density_hands_gapped_spectrum_to_ladder():
    # two well-separated atoms at small t: two support components, and the
    # walk from the right edge must stop at the gap and hand off the rest
    spec = make_spectrum([2.0] * 20 + [0.5] * 20)
    params = ModelParams(p=40, n=400, t=0.05)
    edge = find_right_edge(spec, params)
    E = np.linspace(0.05, edge.lambda_plus - 1e-3, 160)
    rho, info = density_diagnostics(spec, params, E)
    walked = info["eta_used"] == 0.0
    gap = (E > 0.9) & (E < 1.6)
    assert walked.any() and (~walked).any()
    assert np.all(~walked[E < 1.0]) and np.all(walked[E > 1.9])
    assert np.all(rho[gap] < 1e-6)
    assert np.any(rho[E < 0.9] > 0.1)
    npt.assert_allclose(rho, _ladder_density(spec, params, E), rtol=1e-8, atol=1e-10)


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


def test_support_scan_reuses_grid_density(mp_unit, monkeypatch):
    # refinement takes the density at a crossing's grid end from the scan,
    # so each crossing costs only its bisection steps in single-point calls
    spec, params = mp_unit
    step = 0.05
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return density(*args, **kwargs)

    monkeypatch.setattr(freeconv, "density", counting)
    scan = support_scan(spec, params, -1.0, 6.0, step)
    monkeypatch.undo()

    def bisect(a, b):
        # the same refinement, evaluating the density at both ends itself
        fa = density(spec, params, a) - freeconv._SUPPORT_THRESHOLD
        while b - a > step / 100.0:
            mid = 0.5 * (a + b)
            fm = density(spec, params, mid) - freeconv._SUPPORT_THRESHOLD
            if (fa < 0) == (fm < 0):
                a, fa = mid, fm
            else:
                b = mid
        return 0.5 * (a + b)

    E = np.arange(-1.0, 6.0 + step * 0.5, step)
    above = density_curve(spec, params, E) > freeconv._SUPPORT_THRESHOLD
    k0 = int(np.argmax(above))
    k1 = len(E) - 1 - int(np.argmax(above[::-1]))
    assert scan.intervals == ((bisect(E[k0 - 1], E[k0]), bisect(E[k1], E[k1 + 1])),)
    halvings = int(np.ceil(np.log2(100)))  # from one step down to step/100
    assert len(calls) == 2 * halvings  # two crossings, no call at a grid end


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
    assert lines[0] == "E,rho,eta_used,residual,iterations"
    assert len(lines) == 6
    # 17 significant digits round-trip against the same vectorized route;
    # the scalar entry point may differ by machine-epsilon wiggle
    first = float(lines[1].split(",")[1])
    assert first == density_curve(spec, params, E)[0]
    assert first == pytest.approx(density(spec, params, E[0]), rel=1e-12)
