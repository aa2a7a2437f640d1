"""Additive-noise deformation of a signal spectrum.

Solves the self-consistent equation for the Stieltjes transform of the
noise-convolved singular value distribution at noise level t, via the
subordination point zeta: the scalar unknown solving

    F(z, zeta) = 1 + (t(1-c) - S)/(2 zeta) - c t m_v(zeta) = 0,
    S = sqrt(t^2 (1-c)^2 + 4 zeta z),

after which m, b = 1 + c t m, and the companion transform are rational in
m_v(zeta).  The inverse subordination map

    Phi(zeta) = zeta (1 - c t m_v(zeta))^2 + (1-c) t (1 - c t m_v(zeta))

satisfies Phi(zeta(z)) = z and supplies the solver residual.

Off the real axis the solver walks an eta-homotopy ladder from eta_start
down to Im z, warm-starting Newton at each level; a damped fixed-point
sweep on m is the recovery path when a Newton step cannot improve.  All
entry points accept arrays of evaluation points and solve them in
lockstep.

Real-axis densities (t > 0) come from the boundary relation Phi(zeta) = E
with Im zeta > 0, solved by Newton in a walk that starts at the right
edge (seeded by the quadratic expansion of Phi at its critical point)
and steps down through the energies, halving the step whenever Newton
fails.  The walk covers the right-edge component of the support; the
points it does not reach (gaps, the region left of the component,
E <= 0) get the eta ladder at two small eta values and a Richardson
extrapolation.  Energies at or above the edge have density exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edge import EdgeBracketError, find_right_edge
from .spectrum import ModelParams, Spectrum
from .stieltjes import _atom_sums, _check_distance, _phi, m_v

__all__ = [
    "SolverConfig",
    "ConvolutionPoint",
    "SupportScan",
    "SolverError",
    "phi",
    "phi_derivative",
    "solve_point",
    "solve_many",
    "density",
    "density_curve",
    "density_diagnostics",
    "support_scan",
    "write_density_csv",
]

# Two-level extrapolation for the real-axis points the edge walk leaves.
_DENSITY_ETAS = (1e-7, 5e-8)
_DENSITY_CLAMP = -1e-9
_SUPPORT_THRESHOLD = 1e-6
# Edge walk: Newton iterations per step, and the smallest E-step
# relative to max(1, lambda_plus).
_WALK_NEWTON = 8
_WALK_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-12
    max_iterations: int = 200
    eta_start: float = 10.0
    homotopy_factor: float = 0.7
    damping: float = 0.5

    def __post_init__(self) -> None:
        if not (0 < self.tolerance < 1e-3):
            raise ValueError("tolerance out of range")
        if self.max_iterations < 10:
            raise ValueError("max_iterations too small")
        if not self.eta_start > 0:
            raise ValueError("eta_start must be positive")
        if not (0 < self.homotopy_factor < 1):
            raise ValueError("homotopy_factor must lie in (0, 1)")
        if not (0 < self.damping <= 1):
            raise ValueError("damping must lie in (0, 1]")


@dataclass(frozen=True)
class ConvolutionPoint:
    """Solved transform data at one evaluation point z (Im z > 0)."""

    z: complex
    m: complex
    b: complex
    zeta: complex
    m_under: complex
    residual: float
    iterations: int

    def validate(self, params: ModelParams, tolerance: float = 1e-12) -> None:
        """Raise SolverError unless the Herglotz/branch invariants hold."""
        t = params.t
        checks = [
            ("Im m > 0", self.m.imag > 0),
            ("Im zm > 0", (self.z * self.m).imag > 0),
            ("Im zeta > 0", self.zeta.imag > 0),
            ("Re b > 0", self.b.real > 0),
            ("residual", self.residual <= tolerance),
        ]
        if t > 0:
            # coarse magnitude bound from the far-field decay of m
            checks.append(("|m| bound", abs(self.m) <= 10.0 / np.sqrt(t * abs(self.z))))
            recon = self.b**2 * self.z - self.b * t * (1.0 - params.c_n)
            checks.append(("zeta reconstruction", abs(self.zeta - recon) <= 1e-10 * max(1.0, abs(self.zeta))))
        bad = [name for name, ok in checks if not ok]
        if bad:
            raise SolverError(f"invariant violation at z={self.z}: {', '.join(bad)}")


@dataclass(frozen=True)
class SupportScan:
    intervals: tuple
    threshold: float
    step: float


class SolverError(RuntimeError):
    """Self-consistent solve failed; eta_level records where on the ladder."""

    def __init__(self, message: str, eta_level: float | None = None):
        super().__init__(message)
        self.eta_level = eta_level


# ---------------------------------------------------------------------------
# solver kernels (no atom-collision guard; only used off the real axis)


def _branch_sqrt(w: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Square root of w on the sheet continuous with the reference values."""
    s = np.sqrt(w)
    flip = np.abs(-s - ref) < np.abs(s - ref)
    return np.where(flip, -s, s)


def _F_eval(d, c, t, z_l, zeta, s_ref):
    """F, its sqrt factor on the tracked branch, and m_v at zeta."""
    mv = _atom_sums(d, zeta, 0)[0]
    s = _branch_sqrt(t * t * (1.0 - c) ** 2 + 4.0 * zeta * z_l, s_ref)
    F = 1.0 + (t * (1.0 - c) - s) / (2.0 * zeta) - c * t * mv
    return F, s, mv


def _fp_map(d, c, t, z_l, m):
    b = 1.0 + c * t * m
    denom = d[:, None] / b[None, :] - b[None, :] * z_l[None, :] + t * (1.0 - c)
    return (1.0 / denom).mean(axis=0)


def _fp_iterate(d, c, t, z_l, m, alpha, n_steps, tol):
    """Damped fixed-point sweeps on m with per-point adaptive damping.

    Returns (m, per-point steps, converged mask, last update size); a
    point counts the sweeps it entered unconverged.
    """
    k = m.shape[0]
    alpha = np.full(k, alpha)
    delta_prev = np.full(k, np.inf)
    done = np.zeros(k, dtype=bool)
    steps = np.zeros(k, dtype=int)
    for _ in range(n_steps):
        steps += ~done
        f = _fp_map(d, c, t, z_l, m)
        delta = np.abs(f - m)
        target = tol * np.maximum(1.0, np.abs(m))
        done = delta <= target
        if done.all():
            m = np.where(done, m, (1.0 - alpha) * m + alpha * f)
            break
        grow = delta > delta_prev
        alpha = np.where(grow, np.maximum(0.05, alpha * 0.5), np.minimum(1.0, alpha * 1.2))
        m = (1.0 - alpha) * m + alpha * f
        delta_prev = delta
    return m, steps, done, delta_prev


def _zeta_from_m(c, t, z_l, m):
    b = 1.0 + c * t * m
    return b * b * z_l - b * t * (1.0 - c), 2.0 * z_l * b - t * (1.0 - c)


def _newton_level(d, c, t, z_l, zeta, s_ref, tol, max_iter):
    """Newton on F(z_l, .) = 0 for every point, with backtracking.

    Returns updated (zeta, s_ref, mv, per-point iterations, unconverged
    mask); a point counts the steps it entered neither converged nor stuck.
    """
    F, s, mv = _F_eval(d, c, t, z_l, zeta, s_ref)
    absF = np.abs(F)
    used = np.zeros(zeta.shape[0], dtype=int)
    stuck = np.zeros(zeta.shape[0], dtype=bool)
    for _ in range(max_iter):
        done = absF <= tol
        if bool(np.all(done | stuck)):
            break
        used += ~(done | stuck)
        mv1 = _atom_sums(d, zeta, 1)[1]
        Fz = (
            -z_l / (s * zeta)
            - (t * (1.0 - c) - s) / (2.0 * zeta * zeta)
            - c * t * mv1
        )
        step = np.where(done | stuck, 0.0, F / Fz)
        lam = np.ones(zeta.shape[0])
        cand = zeta - step
        Fc, sc, mvc = _F_eval(d, c, t, z_l, cand, s)
        absFc = np.abs(Fc)
        for _ in range(40):
            better = ((absFc < absF) & (cand.imag > 0)) | done | stuck
            if better.all():
                break
            lam = np.where(better, lam, lam * 0.5)
            cand = np.where(better, cand, zeta - lam * step)
            Fc2, sc2, mvc2 = _F_eval(d, c, t, z_l, cand, s)
            Fc = np.where(better, Fc, Fc2)
            sc = np.where(better, sc, sc2)
            mvc = np.where(better, mvc, mvc2)
            absFc = np.abs(Fc)
        improved = (absFc < absF) & (cand.imag > 0) & ~done & ~stuck
        zeta = np.where(improved, cand, zeta)
        F = np.where(improved, Fc, F)
        s = np.where(improved, sc, s)
        mv = np.where(improved, mvc, mv)
        absF = np.abs(F)
        stuck = stuck | (~improved & ~done)
    return zeta, s, mv, used, (absF > tol)


def _ladder(eta_start: float, factor: float, eta_floor: float) -> list:
    levels = []
    e = eta_start
    while e > eta_floor:
        levels.append(e)
        e *= factor
    levels.append(0.0)  # final level pins the exact targets
    return levels


def _solve_grid(spec, params, z, cfg, method):
    d = spec.values
    c, t = params.c_n, params.t
    z = np.asarray(z, dtype=complex).ravel()
    if z.shape[0] == 0:
        raise ValueError("no evaluation points")
    if np.any(~np.isfinite(z)) or np.any(z.imag <= 0):
        raise ValueError("evaluation points must be finite with Im z > 0")

    if t == 0.0:
        mv = m_v(spec, z)
        mv = np.atleast_1d(np.asarray(mv, dtype=complex))
        m_under = c * mv - (1.0 - c) / z
        ones = np.ones_like(mv)
        return mv, ones, z.copy(), m_under, np.zeros(z.shape[0]), np.zeros(z.shape[0], dtype=int)

    eta_t = z.imag
    levels = _ladder(cfg.eta_start, cfg.homotopy_factor, eta_t.min())
    E = z.real

    iters = np.zeros(z.shape[0], dtype=int)
    fp_tol = 0.01 * cfg.tolerance

    # initial state at the top of the ladder
    z_l = E + 1j * np.maximum(eta_t, levels[0])
    m = -1.0 / z_l
    if method in ("hybrid", "fixed_point"):
        m, used, _, _ = _fp_iterate(d, c, t, z_l, m, cfg.damping, 30, fp_tol)
        iters += used
    zeta, s_ref = _zeta_from_m(c, t, z_l, m)
    if np.any((1.0 + c * t * m).real <= 0):
        raise SolverError("initialization lost the Re b > 0 branch", levels[0])

    for eta_level in levels:
        z_l = E + 1j * np.maximum(eta_t, eta_level)
        if method == "fixed_point":
            for _ in range(3):
                m, used, done, _ = _fp_iterate(
                    d, c, t, z_l, m, cfg.damping, cfg.max_iterations, fp_tol
                )
                iters += used
                if done.all():
                    break
            continue

        budget = cfg.max_iterations
        for attempt in range(4):
            zeta, s_ref, mv, used, bad = _newton_level(
                d, c, t, z_l, zeta, s_ref, cfg.tolerance * 0.1, budget
            )
            iters += used
            # the budget is batch-wide: some point was active in every step
            budget -= int(used.max())
            if not bad.any() or method == "newton" or budget <= 0:
                break
            # recovery: damped fixed-point on the stalled points only
            m_bad = mv / (1.0 - c * t * mv)
            m_new, used_fp, _, _ = _fp_iterate(
                d, c, t, z_l[bad], m_bad[bad], cfg.damping, 50, fp_tol
            )
            iters[bad] += used_fp
            zeta_bad, s_bad = _zeta_from_m(c, t, z_l[bad], m_new)
            zeta = zeta.copy()
            s_ref = s_ref.copy()
            zeta[bad] = zeta_bad
            s_ref[bad] = s_bad

    if method == "fixed_point":
        # the update criterion does not bound the map residual directly,
        # so polish until the residual contract itself is met
        for _ in range(12):
            zeta, s_ref = _zeta_from_m(c, t, z, m)
            residual = np.abs(_phi(d, c, t, zeta)[0] - z)
            if np.all(residual <= 0.9 * cfg.tolerance):
                break
            m, used, _, _ = _fp_iterate(
                d, c, t, z, m, cfg.damping, cfg.max_iterations, fp_tol * 0.01
            )
            iters += used
        b = 1.0 + c * t * m
    else:
        ph, mv = _phi(d, c, t, zeta)
        residual = np.abs(ph - z)
        if np.any(residual > cfg.tolerance):
            zeta, s_ref, mv, used, _ = _newton_level(
                d, c, t, z, zeta, s_ref, 1e-15, 30
            )
            iters += used
            ph, mv = _phi(d, c, t, zeta)
            residual = np.abs(ph - z)
        m = mv / (1.0 - c * t * mv)
        b = 1.0 + c * t * m

    m_under = c * m - (1.0 - c) / z
    if np.any(residual > cfg.tolerance):
        j = int(np.argmax(residual))
        raise SolverError(
            f"residual {residual[j]:.3e} exceeds tolerance after ladder "
            f"at E={z[j].real:.17g}, eta={z[j].imag:.3g}",
            0.0,
        )
    return m, b, zeta, m_under, residual, iters


# ---------------------------------------------------------------------------
# public surface


def phi(spec: Spectrum, params: ModelParams, zeta):
    """Inverse subordination map Phi(zeta); reduces to the identity at t = 0."""
    z = np.asarray(zeta, dtype=complex)
    if params.t == 0.0:
        out = z.copy()
    else:
        _check_distance(spec, z)
        out = _phi(spec.values, params.c_n, params.t, z)[0]
    return complex(out) if z.ndim == 0 else out


def phi_derivative(spec: Spectrum, params: ModelParams, zeta, order: int = 1):
    """First or second zeta-derivative of the inverse subordination map."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    z = np.asarray(zeta, dtype=complex)
    if params.t == 0.0:
        out = np.ones_like(z) if order == 1 else np.zeros_like(z)
    else:
        _check_distance(spec, z)
        out = _phi(spec.values, params.c_n, params.t, z, order)[order]
    return complex(out) if z.ndim == 0 else out


def solve_point(
    spec: Spectrum,
    params: ModelParams,
    z: complex,
    cfg: SolverConfig | None = None,
    method: str = "hybrid",
) -> ConvolutionPoint:
    """Solve the self-consistent equation at one point with Im z > 0.

    method selects the route: "hybrid" (default) is homotopy plus Newton
    with fixed-point recovery, "newton" disables the recovery sweeps, and
    "fixed_point" never forms a Newton step, which makes it a genuinely
    independent cross-check of the other two.
    """
    return solve_many(spec, params, [z], cfg, method)[0]


def solve_many(
    spec: Spectrum,
    params: ModelParams,
    z,
    cfg: SolverConfig | None = None,
    method: str = "hybrid",
) -> list:
    if method not in ("hybrid", "newton", "fixed_point"):
        raise ValueError(f"unknown method {method!r}")
    cfg = cfg or SolverConfig()
    m, b, zeta, m_under, residual, iters = _solve_grid(spec, params, z, cfg, method)
    z = np.asarray(z, dtype=complex).ravel()
    points = []
    for j in range(z.shape[0]):
        pt = ConvolutionPoint(
            z=complex(z[j]),
            m=complex(m[j]),
            b=complex(b[j]),
            zeta=complex(zeta[j]),
            m_under=complex(m_under[j]),
            residual=float(residual[j]),
            iterations=int(iters[j]),
        )
        pt.validate(params, cfg.tolerance)
        points.append(pt)
    return points


def _walk_newton(d, c, t, E, zeta, tol):
    """Newton on Phi(zeta) = E from a seed, kept in Im zeta > 0.

    Returns (zeta, Phi', m_v, residual) or None, plus the steps taken.
    Accepts once the residual meets tol and either sits 100 times below
    it or stops falling (the rounding floor); gives up when a residual
    above tol stops falling, an iterate leaves the upper half plane, or
    the iteration budget runs out.
    """
    prev = np.inf
    best = None
    for steps in range(_WALK_NEWTON + 1):
        ph, dph, mv = _phi(d, c, t, zeta, 1)
        F = ph - E
        r = abs(F)
        if r <= tol:
            best = (zeta, dph, mv, r)
            if r <= 0.01 * tol or r >= 0.5 * prev:
                return best, steps
        elif not r < prev:
            return best, steps
        if steps == _WALK_NEWTON:
            break
        zeta = zeta - F / dph
        if not zeta.imag > 0:
            return best, steps + 1
        prev = r
    return best, _WALK_NEWTON


def _walk(d, c, t, edge, E_desc, tol):
    """Real-axis solutions Phi(zeta) = E walked down from the right edge.

    E_desc holds energies below lambda_plus in descending order.  Each
    E-step is seeded by the edge expansion zeta_+ + i sqrt(2 kappa / Phi'')
    while the walk sits at the edge, and by the predictor zeta - h / Phi'
    after that; a step is halved when Newton fails and doubled after a
    success.  The walk ends when the density drops below the support
    threshold or the step falls below the floor.  Returns (rho, residual,
    steps) for the prefix of E_desc it reached.
    """
    lam = edge.lambda_plus
    floor = _WALK_FLOOR * max(1.0, lam)
    E_cur, zeta, slope = lam, complex(edge.zeta_plus), None
    h_allow = np.inf
    in_support = False
    rho = residual = 0.0
    out = []
    for E in E_desc:
        steps = 0
        while E_cur > E:
            h = min(E_cur - E, h_allow)
            E_try = E if h == E_cur - E else E_cur - h
            if slope is None:
                seed = complex(edge.zeta_plus, np.sqrt(2.0 * (lam - E_try) / edge.phi_second))
            else:
                seed = zeta - h / slope
            sol, used = _walk_newton(d, c, t, E_try, seed, tol)
            steps += used
            if sol is None:
                h_allow = 0.5 * h
                if h_allow < floor:
                    return out
                continue
            zeta, slope, mv, residual = sol
            E_cur = E_try
            h_allow = 2.0 * h
            rho = (mv / (1.0 - c * t * mv)).imag / np.pi
            if rho >= _SUPPORT_THRESHOLD:
                in_support = True
            elif in_support:
                return out
        out.append((rho, residual, steps))
    return out


def _ladder_density(spec, params, E, cfg):
    """Density by the eta ladder at both _DENSITY_ETAS, extrapolated to eta = 0."""
    eta_hi, eta_lo = _DENSITY_ETAS
    try:
        m_hi = _solve_grid(spec, params, E + 1j * eta_hi, cfg, "hybrid")
        m_lo = _solve_grid(spec, params, E + 1j * eta_lo, cfg, "hybrid")
    except SolverError as exc:
        raise SolverError(f"density ladder stage: {exc}", exc.eta_level) from exc
    rho = (2.0 * m_lo[0].imag - m_hi[0].imag) / np.pi
    if np.any(rho < _DENSITY_CLAMP):
        j = int(np.argmin(rho))
        raise SolverError(
            f"density ladder stage: extrapolation produced {rho[j]:.3e} < clamp "
            f"at E={E[j]:.17g}",
            eta_lo,
        )
    return np.maximum(rho, 0.0), np.maximum(m_hi[4], m_lo[4]), m_hi[5] + m_lo[5]


def density_diagnostics(spec: Spectrum, params: ModelParams, E, cfg: SolverConfig | None = None):
    """(rho, diagnostics) on an E-array: per point eta_used, residual and
    iteration count.

    Points reached by the edge walk report eta_used = 0, their real-axis
    residual |Phi(zeta) - E| and the Newton steps of the walk segment that
    ended at them; energies at or above lambda_plus report zeros; every
    other point carries the ladder's values at the smaller eta.
    """
    cfg = cfg or SolverConfig()
    E = np.asarray(E, dtype=float).ravel()
    c, t = params.c_n, params.t
    if t == 0.0 and np.any(E <= 0):
        raise ValueError("density at t = 0 needs E > 0")
    k = E.shape[0]
    rho = np.zeros(k)
    diag = {
        "eta_used": np.zeros(k),
        "residual": np.zeros(k),
        "iterations": np.zeros(k, dtype=int),
    }
    ladder = np.ones(k, dtype=bool)
    if t > 0.0:
        try:
            edge = find_right_edge(spec, params)
        except EdgeBracketError:  # no edge to walk from: every point takes the ladder
            edge = None
        if edge is not None:
            ladder = E < edge.lambda_plus
            inside = np.flatnonzero(ladder & (E > 0.0))
            order = inside[np.argsort(-E[inside], kind="stable")]
            walked = _walk(spec.values, c, t, edge, E[order], cfg.tolerance)
            if walked:
                idx = order[: len(walked)]
                rho[idx], diag["residual"][idx], diag["iterations"][idx] = np.array(walked).T
                ladder[idx] = False
    if ladder.any():
        rho[ladder], diag["residual"][ladder], diag["iterations"][ladder] = _ladder_density(
            spec, params, E[ladder], cfg
        )
        diag["eta_used"][ladder] = _DENSITY_ETAS[1]
    return rho, diag


def density(spec: Spectrum, params: ModelParams, E: float, cfg: SolverConfig | None = None) -> float:
    """Spectral density at real energy E: the real-axis edge walk where it
    reaches, the extrapolated eta ladder elsewhere."""
    return float(density_diagnostics(spec, params, [E], cfg)[0][0])


def density_curve(spec: Spectrum, params: ModelParams, E, cfg: SolverConfig | None = None) -> np.ndarray:
    return density_diagnostics(spec, params, E, cfg)[0]


def support_scan(
    spec: Spectrum,
    params: ModelParams,
    lo: float,
    hi: float,
    step: float,
    cfg: SolverConfig | None = None,
) -> SupportScan:
    """Locate density-support intervals in [lo, hi] on a uniform grid.

    Grid cells where the density crosses the fixed threshold are refined
    by bisection to a resolution of step/100.  Intervals truncated by the
    scan window keep the window endpoint.
    """
    if params.t <= 0:
        raise ValueError("support scan needs t > 0")
    if not (hi > lo and step > 0 and step <= (hi - lo)):
        raise ValueError("bad scan window")
    cfg = cfg or SolverConfig()
    E = np.arange(lo, hi + step * 0.5, step)
    rho = density_curve(spec, params, E, cfg)
    above = rho > _SUPPORT_THRESHOLD

    def refine(a: float, b: float, fa: float) -> float:
        # density - threshold changes sign across [a, b]; fa is its value
        # at a, already known from the scan grid
        while b - a > step / 100.0:
            mid = 0.5 * (a + b)
            fm = density(spec, params, mid, cfg) - _SUPPORT_THRESHOLD
            if (fa < 0) == (fm < 0):
                a, fa = mid, fm
            else:
                b = mid
        return 0.5 * (a + b)

    intervals = []
    k = 0
    n_pts = E.shape[0]
    while k < n_pts:
        if not above[k]:
            k += 1
            continue
        start = E[k] if k == 0 else refine(E[k - 1], E[k], rho[k - 1] - _SUPPORT_THRESHOLD)
        while k + 1 < n_pts and above[k + 1]:
            k += 1
        end = E[k] if k == n_pts - 1 else refine(E[k], E[k + 1], rho[k] - _SUPPORT_THRESHOLD)
        intervals.append((float(start), float(end)))
        k += 1
    return SupportScan(intervals=tuple(intervals), threshold=_SUPPORT_THRESHOLD, step=step)


def write_density_csv(path, spec: Spectrum, params: ModelParams, E, cfg: SolverConfig | None = None) -> None:
    rho, diag = density_diagnostics(spec, params, E, cfg)
    E = np.asarray(E, dtype=float).ravel()
    with open(path, "w") as fh:
        fh.write("E,rho,eta_used,residual,iterations\n")
        for j in range(E.shape[0]):
            fh.write(
                f"{E[j]:.17g},{rho[j]:.17g},{diag['eta_used'][j]:.17g},"
                f"{diag['residual'][j]:.17g},{int(diag['iterations'][j])}\n"
            )
