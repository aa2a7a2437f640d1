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
with Im zeta > 0.  The support edges are Phi at the real critical points
of Phi where g = 1 - c t m_v > 0; each component is walked down from its
right edge by Newton, seeded by the quadratic expansion of Phi there, with
the step halved whenever Newton fails.  Energies outside every component
have density exactly 0; at t = 0 the measure is atomic and has none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edge import find_right_edge
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

# Support finder: grid points between consecutive atoms, bisection steps.
_SUPPORT_GRID = 16
_BISECT_STEPS = 40
# Edge walk: Newton iterations per step, and the smallest E-step
# relative to max(1, the component's right edge).
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
    """Self-consistent solve failed; eta_level records where on the ladder
    (None for a failed real-axis density walk)."""

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


def _bisect(pred, lo, hi):
    """Elementwise last point where pred holds; it holds at lo, fails at hi."""
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        keep = pred(mid)
        lo, hi = np.where(keep, mid, lo), np.where(keep, hi, mid)
    return lo


# atoms closer together than the bisection resolves put evaluation points
# on an atom; the inf and nan there read as "g <= 0" and "no run"
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _support(d, c, t, edge):
    """Support components for t > 0, as rows (left, right, x_c, Phi''(x_c)).

    The complement of the support is the image under Phi of the real x off
    the atoms with g = 1 - c t m_v > 0 and Phi' > 0, where Phi increases,
    so every edge is Phi at a critical point; x_c is the one of the right
    edge.  Below the smallest atom Phi' falls from 1 to Phi' <= 0 at the
    zero of g through one sign change, whose image is the lowest left edge
    (clipped at 0).  Between consecutive distinct atoms g falls from +inf to
    -inf through one zero x_g, and Phi' < 0 just above the lower atom and
    at x_g: at most one run with Phi' > 0, found at the largest Phi' (grid,
    then bisection on Phi''), maps onto a gap.  The top edge is edge's.
    """

    def slope(x, order=1):
        return _phi(d, c, t, x, order)[order]

    a = np.unique(d)
    # below L = a_0 - y, m_v <= 1/y and m_v' <= 1/y^2 give g >= 0.9 and Phi' >= 0.6
    L = a[0] - max(10.0 * t, np.sqrt(10.0 * a[0] * t))
    x_g = _bisect(lambda x: c * t * _atom_sums(d, x, 0)[0] < 1.0, np.append(L, a[:-1]), a)

    base, top = a[:-1], x_g[1:]
    h = (top - base) / (_SUPPORT_GRID + 1)
    grid = base[:, None] + h[:, None] * np.arange(1, _SUPPORT_GRID + 1)
    f = np.column_stack([slope(col) for col in grid.T])  # a column at a time: small temporaries
    j = np.arange(base.size), np.argmax(f, axis=1)
    peak = _bisect(lambda x: slope(x, 2) > 0.0, grid[j] - h, np.minimum(grid[j] + h, top))
    f_peak = slope(peak)
    peak = np.where(f_peak > f[j], peak, grid[j])
    run = np.maximum(f_peak, f[j]) > 0.0

    # falling crossings open components, rising ones close them
    x_open = _bisect(lambda x: slope(x) > 0.0, np.append(L, peak[run]), x_g[np.append(True, run)])
    x_close = _bisect(lambda x: slope(x) <= 0.0, base[run], peak[run])
    close = _phi(d, c, t, x_close, 2)
    right = np.append(close[0], edge.lambda_plus)
    left = np.maximum(_phi(d, c, t, x_open)[0], 0.0)
    x_c = np.append(x_close, edge.zeta_plus)
    return np.column_stack((left, right, x_c, np.append(close[2], edge.phi_second)))


def _walk(d, c, t, E_right, x_c, phi2, E_desc, tol):
    """Rows (rho, residual, steps) for E_desc, energies inside one support
    component in descending order, walked down from its right edge E_right.

    A step is seeded by the edge expansion x_c + i sqrt(2 kappa / Phi'')
    while the walk sits at the edge, by the predictor zeta - h / Phi' after
    that; it is halved when Newton fails and doubled after a success.  The
    first energy left when the step falls below the floor raises SolverError.
    """
    floor = _WALK_FLOOR * max(1.0, E_right)
    E_cur, zeta, slope = E_right, complex(x_c), None
    h_allow = np.inf
    out = []
    for E in E_desc:
        steps = 0
        while E_cur > E:
            h = min(E_cur - E, h_allow)
            E_try = E if h == E_cur - E else E_cur - h
            if slope is None:
                seed = complex(x_c, np.sqrt(2.0 * (E_right - E_try) / phi2))
            else:
                seed = zeta - h / slope
            sol, used = _walk_newton(d, c, t, E_try, seed, tol)
            steps += used
            if sol is None:
                h_allow = 0.5 * h
                if h_allow < floor:
                    raise SolverError(f"density walk stage: no root reached at E={E:.17g}")
                continue
            zeta, slope, mv, residual = sol
            E_cur = E_try
            h_allow = 2.0 * h
            rho = (mv / (1.0 - c * t * mv)).imag / np.pi
        out.append((rho, residual, steps))
    return np.reshape(out, (-1, 3)).T


def density_diagnostics(spec: Spectrum, params: ModelParams, E, cfg: SolverConfig | None = None):
    """(rho, diagnostics) on an E-array for t > 0: per point eta_used,
    residual and iteration count.

    Points inside a support component, walked down from its right edge,
    report eta_used = 0, the residual |Phi(zeta) - E| and the Newton steps
    of the walk segment that ended at them; points outside every component
    (E <= 0, gaps, E >= lambda_plus) read 0 throughout.  t = 0: ValueError.
    """
    if params.t == 0.0:
        raise ValueError("no density at t = 0: the measure is atomic")
    cfg = cfg or SolverConfig()
    E = np.asarray(E, dtype=float).ravel()
    d, c, t = spec.values, params.c_n, params.t
    k = E.shape[0]
    rho = np.zeros(k)
    diag = {
        "eta_used": np.zeros(k),
        "residual": np.zeros(k),
        "iterations": np.zeros(k, dtype=int),
    }
    for left, right, x_c, phi2 in _support(d, c, t, find_right_edge(spec, params)):
        inside = np.flatnonzero((E > left) & (E < right))
        order = inside[np.argsort(-E[inside], kind="stable")]
        rho[order], diag["residual"][order], diag["iterations"][order] = _walk(
            d, c, t, right, x_c, phi2, E[order], cfg.tolerance
        )
    return rho, diag


def density(spec: Spectrum, params: ModelParams, E: float, cfg: SolverConfig | None = None) -> float:
    """Spectral density at real energy E for t > 0, by the edge walk."""
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
    """Support components that meet [lo, hi], clipped to it.

    The edges are exact (Phi at the real critical points), so nothing is
    scanned: step is checked and echoed, cfg is unused, and threshold is
    0.0, the density being positive exactly inside the intervals.
    """
    if params.t <= 0:
        raise ValueError("support scan needs t > 0")
    if not (hi > lo and step > 0 and step <= (hi - lo)):
        raise ValueError("bad scan window")
    comps = _support(spec.values, params.c_n, params.t, find_right_edge(spec, params))
    intervals = tuple(
        (float(max(left, lo)), float(min(right, hi)))
        for left, right, _, _ in comps
        if right > lo and left < hi
    )
    return SupportScan(intervals=intervals, threshold=0.0, step=step)


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
