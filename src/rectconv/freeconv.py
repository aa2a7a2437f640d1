"""Additive-noise deformation of a signal spectrum.

Everything runs through one subordination relation.  The inverse
subordination map

    Phi(zeta) = zeta g^2 + (1-c) t g,    g = 1 - c t m_v(zeta),

sends the subordination point zeta(z) back to z, and m = m_v/g,
b = 1 + c t m and the companion transform are rational in m_v(zeta).

Off the real axis the solver walks an eta-homotopy ladder from eta = 10
down to Im z and, at each level z_l, solves Phi(zeta) = z_l by Newton
with backtracking, warm-started from the level above and kept in
Im zeta > 0; a point stops at its target or once it sits at the rounding
floor of Phi.  The last level's residual |Phi(zeta) - z| is the solver's
contract.  The ladder top starts from 30 fixed-point sweeps on m from
m = -1/z: for large t that bare guess can have Re b <= 0 or lead Newton
to a wrong root, and the sweeps reach the Re b > 0 branch.  The same
sweeps, run at every level, make the independent cross-check route.
Their map m -> b m_v(zeta(m)), zeta = b^2 z_l - b t (1-c), runs on the
same atom-sum kernel, and each sweep maps only the points that have not
yet converged.  A sweep takes the secant step on the residual f(m) - m
(Anderson acceleration of depth 1) where it is safe and a damped step
elsewhere, so the route uses map values only.  The levels above the last
only seed the next one, so there the sweeps stop at a loose update; the
last level and the polish at z run to the full tolerance.  All entry
points accept arrays of evaluation points and solve them in lockstep.

Real-axis densities (t > 0) come from the boundary relation Phi(zeta) = E
with Im zeta > 0.  The support edges are Phi at the real critical points
of Phi where g > 0, each found by Newton kept inside the bracket that the
sign of g, Phi' or Phi'' sets.  Each component is walked down from its
right edge in doubling blocks of energies, seeded by the quadratic
expansion of Phi there and then by a linear predictor, and every block
is solved by the ladder's own Newton with its relative target and
iteration budget.  A root counts only inside the disc around its seed
that reaches down to the real axis; after a failure the walk goes on one
point at a time and halves its step.  Energies outside every component
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

_EPS = np.finfo(float).eps
# Support finder: grid points between consecutive atoms.  Its bracketed
# Newton ends a point once the step or the bracket falls below _ROOT_XTOL
# relative (_PEAK_XTOL at the peak of Phi', which only decides whether a
# run exists), and after _ROOT_STEPS evaluations at the latest.
_SUPPORT_GRID = 16
_ROOT_XTOL = 4.0 * _EPS
_PEAK_XTOL = 1e-8
_ROOT_STEPS = 100
# Edge walk: the smallest E-step relative to max(1, the component's
# right edge).
_WALK_FLOOR = 1e-12
# Off-axis ladder: top level, ratio between levels, the fixed-point
# sweeps' initial damping, and the sweeps that start the ladder top.
_ETA_TOP = 10.0
_LADDER_RATIO = 0.7
_DAMPING = 0.5
_START_SWEEPS = 30
# The fixed-point sweeps' secant step may be at most this many times the
# plain update f(m) - m long.
_SECANT_REACH = 4.0
# Fixed-point route: the update tolerance of its levels above the last,
# which only seed the next level (the last runs to 0.01 cfg.tolerance).
_FP_LEVEL_TOL = 1e-6
# Fixed-point polish of the final level: calls of _fp_iterate always
# made while the residual contract is unmet, and the most made at all.
_POLISH_CALLS = 12
_POLISH_MAX = 400


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-12
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if not (0 < self.tolerance < 1e-3):
            raise ValueError("tolerance out of range")
        if self.max_iterations < 10:
            raise ValueError("max_iterations too small")


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


class SolverError(RuntimeError):
    """Self-consistent solve failed.  The message names the stage (ladder
    initialization, the residual after the ladder, the density walk or an
    invariant check) and the point E, eta or z where it failed."""


# ---------------------------------------------------------------------------
# solver kernels (no atom-collision guard; for points off the real axis)


def _fp_map(d, c, t, z_l, m):
    """The fixed-point map m -> b m_v(zeta(m)), b = 1 + c t m.

    mean 1/(d/b - b z_l + t(1-c)) = b mean 1/(d - zeta) with
    zeta = b^2 z_l - b t (1-c), so the map is one pass of the atom-sum
    kernel; it never forms a Newton step.
    """
    b = 1.0 + c * t * m
    return b * _atom_sums(d, _zeta_from_m(c, t, z_l, m), 0)[0]


def _fp_iterate(d, c, t, z_l, m, n_steps, tol):
    """Fixed-point sweeps on m, each point by a safeguarded secant step on
    the residual r = f(m) - m or else by a damped step.

    The secant step m - r (m - m_prev) / (r - r_prev) is Anderson
    acceleration of depth 1 on a scalar unknown: it needs only map values,
    so the route still never forms a Newton step.  A point takes it where
    its |r| fell since its last sweep, the step is at most _SECANT_REACH |r|
    long and it keeps Im m > 0 and Re b > 0.  Otherwise the point takes the
    damped step m + alpha r, whose alpha halves when |r| grew and grows by
    1.2 when it did not.  A point stops once |r| meets tol * max(1, |m|)
    and keeps its m from then on; each sweep maps only the points still
    active.  Returns (m, per-point steps, converged mask); a point counts
    the sweeps it entered.
    """
    k = m.shape[0]
    m = m.copy()
    done = np.zeros(k, dtype=bool)
    steps = np.zeros(k, dtype=int)
    # the live points' index, target, iterate, damping, and last iterate
    # and residual; the first sweep has no history: its r_prev is infinite
    # and its m_prev = m
    live, z_a, m_a = np.arange(k), z_l, m
    alpha, m_prev, r_prev = np.full(k, _DAMPING), m.copy(), np.full(k, np.inf, dtype=complex)
    for sweep in range(n_steps):
        r = _fp_map(d, c, t, z_a, m_a) - m_a
        delta = np.abs(r)
        hit = delta <= tol * np.maximum(1.0, np.abs(m_a))
        if hit.any():
            stop = live[hit]
            done[stop], steps[stop], m[stop] = True, sweep + 1, m_a[hit]
            keep = ~hit
            live, z_a, m_a, r, delta = live[keep], z_a[keep], m_a[keep], r[keep], delta[keep]
            alpha, m_prev, r_prev = alpha[keep], m_prev[keep], r_prev[keep]
            if live.size == 0:
                break
        # where |dm| <= _SECANT_REACH |dr|, the step -r dm / dr is at most
        # _SECANT_REACH |r| long; dr != 0 where |r| fell, and a zero dm (the
        # first sweep) gives no step
        delta_prev = np.abs(r_prev)
        dm, dr = m_a - m_prev, r - r_prev
        near = (delta < delta_prev) & (dm != 0) & (np.abs(dm) <= _SECANT_REACH * np.abs(dr))
        secant = m_a - r * dm / np.where(near, dr, 1.0)
        take = near & (secant.imag > 0) & ((1.0 + c * t * secant).real > 0)
        alpha = np.where(delta > delta_prev, np.maximum(0.05, alpha * 0.5), np.minimum(1.0, alpha * 1.2))
        m_prev, r_prev = m_a, r
        m_a = np.where(take, secant, m_a + alpha * r)
    m[live], steps[live] = m_a, n_steps
    return m, steps, done


def _zeta_from_m(c, t, z_l, m):
    b = 1.0 + c * t * m
    return b * b * z_l - b * t * (1.0 - c)


def _rounding_floor(p, c, t, zeta, mv):
    """Rounding level of Phi(zeta) = zeta g^2 + (1-c) t g, g = 1 - c t m_v:
    the rounding of its terms, plus that of g carried by dPhi/dg, where
    the p-term sum behind m_v is taken to err by sqrt(p) eps |m_v|."""
    g = 1.0 - c * t * mv
    ag = np.abs(g)
    err_g = 1.0 + np.sqrt(p) * c * t * np.abs(mv)
    dphi_dg = np.abs(2.0 * zeta * g + (1.0 - c) * t)
    return _EPS * (np.abs(zeta) * ag * ag + (1.0 - c) * t * ag + dphi_dg * err_g)


def _newton_level(d, c, t, z_l, zeta, tol, max_iter):
    """Newton on Phi(zeta) = z_l for every point, with backtracking.

    z_l is a ladder level off the axis or an energy of the density walk.
    A step is taken only where it lowers |Phi - z_l| and keeps Im zeta > 0,
    and a point stops at |Phi - z_l| <= 0.1 tol min(1, |z_l|), or once two
    iterates in a row have |Phi - z_l| at the rounding floor of Phi at
    their zeta.  The floor is tracked only in calls where some point starts
    with its target below it.  Returns the updated zeta, the per-point
    iterations, and Phi - z_l, Phi' and m_v at that zeta; a point counts
    the steps it entered neither converged nor stuck.
    """
    # relative below |z| = 1: near the hard edge z -> 0, g ~ sqrt(|z|)
    # and an absolute target leaves m short of its digits.  There the
    # target also falls below the rounding floor, where the backtracking
    # still finds a hair of improvement in the noise at every step
    target = 0.1 * tol * np.minimum(1.0, np.abs(z_l))
    ph, dph, mv = _phi(d, c, t, zeta, 1)
    F = ph - z_l
    absF = np.abs(F)
    used = np.zeros(zeta.shape[0], dtype=int)
    stuck = np.zeros(zeta.shape[0], dtype=bool)
    # elsewhere the floor lies far below the target (at most a tenth of it
    # on the theory fixture), and tracking it would cost a 12-point solve
    # about a fifth of its time; settled marks an iterate after one at the
    # floor
    floor = _rounding_floor(d.size, c, t, zeta, mv)
    track = bool(np.any(floor > target))
    at_floor = settled = np.zeros(zeta.shape[0], dtype=bool)
    for _ in range(max_iter):
        if track:
            at_floor = absF <= floor
        done = (absF <= target) | (at_floor & settled)
        if bool(np.all(done | stuck)):
            break
        used += ~(done | stuck)
        step = np.where(done | stuck, 0.0, F / dph)
        lam = np.ones(zeta.shape[0])
        cand = zeta - step
        phc, dphc, mvc = _phi(d, c, t, cand, 1)
        Fc = phc - z_l
        absFc = np.abs(Fc)
        for _ in range(40):
            better = ((absFc < absF) & (cand.imag > 0)) | done | stuck
            if better.all():
                break
            lam = np.where(better, lam, lam * 0.5)
            cand = np.where(better, cand, zeta - lam * step)
            phc2, dphc2, mvc2 = _phi(d, c, t, cand, 1)
            Fc = np.where(better, Fc, phc2 - z_l)
            dphc = np.where(better, dphc, dphc2)
            mvc = np.where(better, mvc, mvc2)
            absFc = np.abs(Fc)
        improved = (absFc < absF) & (cand.imag > 0) & ~done & ~stuck
        settled = np.where(improved, at_floor, settled)
        zeta = np.where(improved, cand, zeta)
        F = np.where(improved, Fc, F)
        dph = np.where(improved, dphc, dph)
        mv = np.where(improved, mvc, mv)
        if track:
            floor = np.where(improved, _rounding_floor(d.size, c, t, cand, mvc), floor)
        absF = np.abs(F)
        stuck = stuck | (~improved & ~done)
    return zeta, used, F, dph, mv


def _ladder(eta_floor: float) -> list:
    levels = []
    e = _ETA_TOP
    while e > eta_floor:
        levels.append(e)
        e *= _LADDER_RATIO
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
    levels = _ladder(eta_t.min())
    E = z.real

    iters = np.zeros(z.shape[0], dtype=int)
    fp_tol = 0.01 * cfg.tolerance

    # initial state at the top of the ladder
    z_l = E + 1j * np.maximum(eta_t, levels[0])
    # the fixed-point route's own top level, like all of its levels above
    # the last, only seeds the next one
    top_tol = fp_tol if method == "hybrid" else _FP_LEVEL_TOL
    m, used, _ = _fp_iterate(d, c, t, z_l, -1.0 / z_l, _START_SWEEPS, top_tol)
    iters += used
    zeta = _zeta_from_m(c, t, z_l, m)
    re_b = (1.0 + c * t * m).real
    if np.any(re_b <= 0):
        j = int(np.argmin(re_b))
        raise SolverError(
            f"initialization lost the Re b > 0 branch (Re b = {re_b[j]:.3e}) "
            f"at ladder top eta={levels[0]:.3g}, E={E[j]:.17g}, eta={eta_t[j]:.3g}"
        )

    for eta_level in levels:
        z_l = E + 1j * np.maximum(eta_t, eta_level)
        if method == "fixed_point":
            # a level above the last only seeds the next one
            tol = fp_tol if eta_level == levels[-1] else _FP_LEVEL_TOL
            for _ in range(3):
                m, used, done = _fp_iterate(d, c, t, z_l, m, cfg.max_iterations, tol)
                iters += used
                if done.all():
                    break
            continue

        zeta, used, F, _, mv = _newton_level(d, c, t, z_l, zeta, cfg.tolerance, cfg.max_iterations)
        iters += used

    if method == "fixed_point":
        # the update criterion does not bound the map residual directly,
        # so polish until the residual contract itself is met: at least
        # _POLISH_CALLS rounds, then on while the worst residual still falls
        worst_prev = np.inf
        for call in range(_POLISH_MAX + 1):
            zeta = _zeta_from_m(c, t, z, m)
            residual = np.abs(_phi(d, c, t, zeta)[0] - z)
            worst = residual.max()
            if worst <= 0.9 * cfg.tolerance or call == _POLISH_MAX:
                break
            if call >= _POLISH_CALLS and not worst < worst_prev:
                break
            worst_prev = worst
            m, used, _ = _fp_iterate(d, c, t, z, m, cfg.max_iterations, fp_tol * 0.01)
            iters += used
        b = 1.0 + c * t * m
    else:
        # the last level's target z_l is z itself
        residual = np.abs(F)
        m = mv / (1.0 - c * t * mv)
        b = 1.0 + c * t * m

    m_under = c * m - (1.0 - c) / z
    if np.any(residual > cfg.tolerance):
        j = int(np.argmax(residual))
        raise SolverError(
            f"residual {residual[j]:.3e} exceeds tolerance after ladder "
            f"at E={z[j].real:.17g}, eta={z[j].imag:.3g}"
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

    method selects the route: "hybrid" (default) starts the ladder top
    with damped fixed-point sweeps and solves every level by Newton;
    "fixed_point" runs the sweeps at every level and never forms a Newton
    step, which makes it an independent cross-check of the default.
    """
    return solve_many(spec, params, [z], cfg, method)[0]


def solve_many(
    spec: Spectrum,
    params: ModelParams,
    z,
    cfg: SolverConfig | None = None,
    method: str = "hybrid",
) -> list:
    if method not in ("hybrid", "fixed_point"):
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


def _bracketed_newton(fun, lo, hi, xtol):
    """Elementwise root in [lo, hi] by Newton kept inside the bracket.

    fun(x) returns (f, f', holds) at the points x, where the test holds is
    true at lo and false at hi; each evaluation moves its side's end to x.
    A step that leaves the bracket is replaced by bisection.  A point stops
    once holds is true and its step is below xtol relative, or once its
    bracket is that narrow; a small step from the false side is doubled,
    to land past the root.  Returns each point's last x where holds is
    true, so the bracket contracts of the callers stay true.

    The edge solve (edge._newton_in_bracket) follows the same rule on one
    point but returns the Newton point x - f/f' from either side, whose
    bits are lambda_plus's, in Python scalar arithmetic; it stays apart.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    out = lo.copy()
    # the live points' index, bracket and iterate
    live = np.arange(lo.size)
    x = 0.5 * (lo + hi)
    for _ in range(_ROOT_STEPS):
        f, df, holds = fun(x)
        lo, hi = np.where(holds, x, lo), np.where(holds, hi, x)
        step = f / df
        tol = xtol * np.maximum(np.abs(lo), np.abs(hi))
        small = np.abs(step) <= tol
        stop = (holds & small) | (hi - lo <= tol)
        out[live[stop]] = lo[stop]
        keep = ~stop
        live, lo, hi, x = live[keep], lo[keep], hi[keep], x[keep]
        if live.size == 0:
            return out
        step, small = step[keep], small[keep]
        # a small step from the false side: twice the step, and one float
        # more, toward the true side
        x = np.where(small, np.nextafter(x - 2.0 * step, lo), x - step)
        x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    out[live] = lo
    return out


# atoms closer together than the float spacing put evaluation points on an
# atom; the inf and nan there read as "g <= 0" and "no run"
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
    then the zero of Phi''), maps onto a gap.  The top edge is edge's.

    Each zero (of g, Phi'' and Phi') is solved by _bracketed_newton on the
    bracket and sign test the derivation gives, with the next derivative
    (Phi''' for the peak) from the same atom-sum pass, and comes back from
    the side of its bracket where the sign test holds.
    """

    def on_phi(order, positive):
        # Newton on the order-th derivative of Phi; the test is its sign
        def fun(x):
            row = _phi(d, c, t, x, order + 1)
            return row[order], row[order + 1], (row[order] > 0.0) == positive

        return fun

    def on_g(x):
        s = _atom_sums(d, x, 1)
        return 1.0 - c * t * s[0], -c * t * s[1], c * t * s[0] < 1.0

    def slope(x):
        return _phi(d, c, t, x, 1)[1]

    a = np.unique(d)
    # below L = a_0 - y, m_v <= 1/y and m_v' <= 1/y^2 give g >= 0.9 and Phi' >= 0.6
    L = a[0] - max(10.0 * t, np.sqrt(10.0 * a[0] * t))
    x_g = _bracketed_newton(on_g, np.append(L, a[:-1]), a, _ROOT_XTOL)

    base, top = a[:-1], x_g[1:]
    h = (top - base) / (_SUPPORT_GRID + 1)
    grid = base[:, None] + h[:, None] * np.arange(1, _SUPPORT_GRID + 1)
    f = np.column_stack([slope(col) for col in grid.T])  # a column at a time: small temporaries
    j = np.arange(base.size), np.argmax(f, axis=1)
    peak = _bracketed_newton(on_phi(2, True), grid[j] - h, np.minimum(grid[j] + h, top), _PEAK_XTOL)
    f_peak = slope(peak)
    peak = np.where(f_peak > f[j], peak, grid[j])
    run = np.maximum(f_peak, f[j]) > 0.0

    # falling crossings open components, rising ones close them
    lo_open, hi_open = np.append(L, peak[run]), x_g[np.append(True, run)]
    x_open = _bracketed_newton(on_phi(1, True), lo_open, hi_open, _ROOT_XTOL)
    x_close = _bracketed_newton(on_phi(1, False), base[run], peak[run], _ROOT_XTOL)
    close = _phi(d, c, t, x_close, 2)
    right = np.append(close[0], edge.lambda_plus)
    left = np.maximum(_phi(d, c, t, x_open)[0], 0.0)
    x_c = np.append(x_close, edge.zeta_plus)
    return np.column_stack((left, right, x_c, np.append(close[2], edge.phi_second)))


def _walk(d, c, t, E_right, x_c, phi2, E_desc, cfg):
    """Rows (rho, residual, iterations) for E_desc, energies inside one
    support component in descending order, walked down from its right edge
    E_right in blocks.

    Each block is seeded from the last accepted point, by the edge
    expansion x_c + i sqrt(2 kappa / Phi'') while the walk sits at the
    edge and by the predictor zeta - (E_cur - E) / Phi' after that, and
    solved by one _newton_level call within cfg.max_iterations steps.  The
    walk accepts the longest prefix whose points meet |Phi - E| <= tol with
    Im zeta > 0 inside the disc around their seed that reaches down to the
    real axis: the atoms and the real roots of Phi(x) = E lie on the axis,
    and Newton from a seed that overshot ends near them, off the branch
    the walk follows.  The block doubles after a full success.  After a
    failure the walk takes one point at a time, halving the step through
    intermediate energies while that point fails; the first energy left
    when the step falls below the floor raises SolverError.
    """
    tol = cfg.tolerance
    floor = _WALK_FLOOR * max(1.0, E_right)
    E_cur, zeta, slope = E_right, None, None
    n = E_desc.shape[0]
    out = np.zeros((3, n))
    i, size, h, pending = 0, 1, np.inf, 0
    while i < n:
        gap = E_cur - E_desc[i]
        # h is finite only while the walk recovers from a failure
        E_blk = np.array([E_cur - h]) if gap > h else E_desc[i : i + size]
        if slope is None:
            seed = x_c + 1j * np.sqrt(2.0 * (E_right - E_blk) / phi2)
        else:
            seed = zeta - (E_cur - E_blk) / slope
        zeta_b, used, F, dph, mv = _newton_level(d, c, t, E_blk, seed, tol, cfg.max_iterations)
        residual = np.abs(F)
        ok = (residual <= tol) & (zeta_b.imag > 0) & (np.abs(zeta_b - seed) <= seed.imag)
        k = E_blk.shape[0] if ok.all() else int(np.argmin(ok))
        if k == 0:
            pending += used[0]
            h, size = 0.5 * min(gap, h), 1
            if h < floor:
                raise SolverError(f"density walk stage: no root reached at E={E_desc[i]:.17g}")
            continue
        E_cur, zeta, slope = E_blk[k - 1], zeta_b[k - 1], dph[k - 1]
        if gap > h:
            pending += used[0]
            h *= 2.0
            continue
        used[0] += pending
        out[:, i : i + k] = (mv[:k] / (1.0 - c * t * mv[:k])).imag / np.pi, residual[:k], used[:k]
        i, h, pending = i + k, np.inf, 0
        size = 2 * size if k == E_blk.shape[0] else 1
    return out


def density_diagnostics(spec: Spectrum, params: ModelParams, E, cfg: SolverConfig | None = None):
    """(rho, diagnostics) on an E-array for t > 0: per point residual and
    iteration count.

    Points inside a support component, walked down from its right edge,
    report the residual |Phi(zeta) - E| and, as iterations, the Newton
    steps of the attempt that accepted them plus those of the failed
    attempts and intermediate energies since the previous accepted point;
    points outside every component (E <= 0, gaps, E >= lambda_plus) read
    0 throughout.  t = 0: ValueError.
    """
    if params.t == 0.0:
        raise ValueError("no density at t = 0: the measure is atomic")
    cfg = cfg or SolverConfig()
    E = np.asarray(E, dtype=float).ravel()
    d, c, t = spec.values, params.c_n, params.t
    k = E.shape[0]
    rho = np.zeros(k)
    diag = {
        "residual": np.zeros(k),
        "iterations": np.zeros(k, dtype=int),
    }
    for left, right, x_c, phi2 in _support(d, c, t, find_right_edge(spec, params)):
        inside = np.flatnonzero((E > left) & (E < right))
        order = inside[np.argsort(-E[inside], kind="stable")]
        rho[order], diag["residual"][order], diag["iterations"][order] = _walk(
            d, c, t, right, x_c, phi2, E[order], cfg
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
    scanned: step is only checked and cfg is unused.  The density is
    positive exactly inside the intervals.
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
    return SupportScan(intervals=intervals)


def write_density_csv(path, spec: Spectrum, params: ModelParams, E, cfg: SolverConfig | None = None) -> None:
    rho, diag = density_diagnostics(spec, params, E, cfg)
    E = np.asarray(E, dtype=float).ravel()
    with open(path, "w") as fh:
        fh.write("E,rho,residual,iterations\n")
        for j in range(E.shape[0]):
            fh.write(
                f"{E[j]:.17g},{rho[j]:.17g},"
                f"{diag['residual'][j]:.17g},{int(diag['iterations'][j])}\n"
            )
