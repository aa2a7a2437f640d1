"""Additive-noise deformation of a signal spectrum.

Everything runs through one subordination relation.  The inverse
subordination map

    Phi(zeta) = zeta g^2 + (1-c) t g,    g = 1 - c t m_v(zeta),

sends the subordination point zeta(z) back to z, and m = m_v/g,
b = 1 + c t m and the companion transform are rational in m_v(zeta).

Off the real axis both routes start at the ladder top, the level
z_l = E + i max(eta, 10), from up to max_iterations fixed-point sweeps on
m from m = -1/z_l: for large t that bare guess can have Re b <= 0 or lead
Newton to a wrong root, and the sweeps reach the Re b > 0 branch.  From
there the same sweeps run straight at z.  Every sweep reads its map value
m -> b m_v(zeta(m)), zeta = b^2 z - b t (1-c), and its residual
|Phi(zeta(m)) - z| from one _phi pass, and maps only the points that have
not yet converged.  A sweep takes the secant step on the residual
f(m) - m (Anderson acceleration of depth 1) where it is safe and a step
damped by the constant 1/2 elsewhere, so the sweeps use map values only.

The default (hybrid) route runs the sweeps at z to a loose update only,
and then solves Phi(zeta) = z by Newton with backtracking, kept in
Im zeta > 0.  Newton stops at a relative residual and is read at its
Newton point zeta - (Phi - z)/Phi', whose residual |Phi(zeta) - z| is the
solver's contract, and a point that misses it there is polished.  Each
Newton step and backtracking round evaluates Phi only at the points still
open in it.  The fixed-point route never forms a Newton step, which makes
it the independent cross-check: at z a point stops once its residual
meets 0.9 tol and either its update meets 0.01 tol or the update no
longer falls, or after max_iterations sweeps.  The two routes share their
start sweeps, and so the branch they choose.  Every point takes its own
sweeps and steps, and the atom sums give a point the same bits in any
batch, so no point's result depends on its batch.  All entry points
accept arrays of evaluation points and solve them in lockstep.

Real-axis densities (t > 0) come from the boundary relation Phi(zeta) = E
with Im zeta > 0.  The support edges are Phi at the real critical points
of Phi where g > 0, each found by Newton kept inside the bracket that the
sign of g, Phi' or Phi'' sets.  One walk follows that branch for densities
and classical locations: each track of energies starts at a support edge
or an accepted point and takes doubling blocks, seeded from its last
accepted point (by the expansion of Phi at the edge, then a linear
predictor) and solved by the off-axis route's Newton.  A root counts only
inside the disc around its seed that reaches down to the real axis, where
the atoms and the real roots of Phi = E lie; after a failure a track takes
one point at a time and halves its step.  Energies outside every component
have density exactly 0; at t = 0 the measure is atomic and has none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edge import _ROOT_XTOL, _bracketed_newton, find_right_edge
from .spectrum import ModelParams, Spectrum
from .stieltjes import _CHUNK, _atom_sums, _check_distance, _phi, m_v

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

# Support finder: grid points between consecutive atoms, and the
# bracketed Newton's relative tolerance at the peak of Phi', which only
# decides whether a run exists (edge._ROOT_XTOL everywhere else).  A peak
# bracket that ends at x_g with Phi''(x_g) > 0 is settled at x_g without
# a search; the lowest zero of g is searched from a_0 - 2ct, where
# m_v <= 1/(2ct) gives g >= 1/2.
_SUPPORT_GRID = 16
_PEAK_XTOL = 1e-8
# Real-axis walk: the smallest E-step relative to max(1, |E|) at a
# track's last accepted point.
_WALK_FLOOR = 1e-12
# Off-axis start: the level eta of the ladder top.  Fixed-point sweeps:
# the damping of every step that is not a secant step.
_ETA_TOP = 10.0
_DAMPING = 0.5
# Sweeps that only seed a Newton solve stop at this relative update.  A
# Newton solve stops at _NEWTON_STOP relative and is read at its Newton
# point, whose residual is about the square of that.
_SEED_TOL = 1e-6
_NEWTON_STOP = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the off-axis routes and the real-axis walk.

    tolerance bounds the residual |Phi(zeta) - z| that a solved point must
    meet.  max_iterations bounds, each on its own, the fixed-point start
    sweeps at the ladder top, each route's sweeps at z, the Newton steps
    at z and each real-axis walk block's Newton steps.
    """

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
    """Self-consistent solve failed.  The message names the stage
    (initialization at the ladder top, the residual at z, the density walk
    or an invariant check) and the point E, eta or z where it failed."""


# ---------------------------------------------------------------------------
# solver kernels (no atom-collision guard; for points off the real axis)


def _fp_iterate(d, c, t, z_l, m, n_steps, tol, goal=None):
    """Fixed-point sweeps on m, each point by a secant step on the residual
    r = f(m) - m or else by a damped step.

    Each sweep maps m -> f(m) = b m_v(zeta(m)), b = 1 + c t m and
    zeta = b^2 z_l - b t (1-c), and reads |Phi(zeta(m)) - z_l| from the
    same _phi pass, so the route never forms a Newton step.  The secant
    step m - r (m - m_prev) / (r - r_prev) is Anderson acceleration of
    depth 1 on a scalar unknown.  A point takes it where its |r| fell since
    its last sweep and the step keeps Im m > 0 and Re b > 0.  Otherwise the
    point takes the damped step m + _DAMPING r.  A point stops once |r|
    meets tol * max(1, |m|) and keeps its m from then on; each sweep maps
    only the points still active.  With a goal a point also needs
    |Phi(zeta(m)) - z_l| <= goal to stop, stops once it meets the goal and
    its |r| did not fall since its last sweep (from then on it only stirs
    rounding), and one still active after n_steps keeps its last mapped m.
    Returns m, the sweeps each point entered and |Phi(zeta(m)) - z_l| (inf
    without a goal).
    """
    k, m = m.shape[0], m.copy()
    steps, res = np.zeros(k, dtype=int), np.full(k, np.inf)
    # the live points' index, target, iterate, and last iterate and
    # residual; the first sweep has no history: its r_prev is infinite and
    # its m_prev = m
    live, z_a, m_a = np.arange(k), z_l, m
    m_prev, r_prev = m.copy(), np.full(k, np.inf, dtype=complex)
    for sweep in range(n_steps):
        ph, mv = _phi(d, c, t, _zeta_from_m(c, t, z_a, m_a))
        r = (1.0 + c * t * m_a) * mv - m_a
        delta, delta_prev = np.abs(r), np.abs(r_prev)
        hit = delta <= tol * np.maximum(1.0, np.abs(m_a))
        if goal is not None:
            res[live] = res_a = np.abs(ph - z_a)
            hit = (hit | (delta >= delta_prev)) & (res_a <= goal)
        if hit.any():
            stop = live[hit]
            steps[stop], m[stop] = sweep + 1, m_a[hit]
            keep = ~hit
            live, z_a, m_a, r, delta = live[keep], z_a[keep], m_a[keep], r[keep], delta[keep]
            m_prev, r_prev, delta_prev = m_prev[keep], r_prev[keep], delta_prev[keep]
            if live.size == 0:
                break
        if goal is not None and sweep == n_steps - 1:
            break  # keep the m whose residual was read
        # dr != 0 where |r| fell, and a zero dm (the first sweep) gives no step
        dm, dr = m_a - m_prev, r - r_prev
        near = (delta < delta_prev) & (dm != 0)
        secant = m_a - r * dm / np.where(near, dr, 1.0)
        take = near & (secant.imag > 0) & ((1.0 + c * t * secant).real > 0)
        m_prev, r_prev = m_a, r
        m_a = np.where(take, secant, m_a + _DAMPING * r)
    m[live], steps[live] = m_a, n_steps
    return m, steps, res


def _zeta_from_m(c, t, z_l, m):
    b = 1.0 + c * t * m
    return b * b * z_l - b * t * (1.0 - c)


def _newton_point(d, c, t, z_l, zeta, F, dph):
    """(zeta*, Phi - z_l, m_v) at the Newton point zeta* = zeta - F / Phi',
    from one order-0 atom-sum pass: where |F| is small the residual there
    is of order |Phi''| |F|^2 / |Phi'|^2."""
    zeta = zeta - F / dph
    ph, mv = _phi(d, c, t, zeta)
    return zeta, ph - z_l, mv


def _newton_level(d, c, t, z_l, zeta, tol, max_iter):
    """Newton on Phi(zeta) = z_l for a batch of points, with backtracking.

    z_l is the evaluation point z off the axis or an energy of the density
    walk.  A step is taken only where it lowers |Phi - z_l| and keeps
    Im zeta > 0.  A point stops at |Phi - z_l| <= _NEWTON_STOP min(1, |z_l|),
    or once no backtracked step lowers it, and is read at its Newton point
    (_newton_point); a point whose read misses |Phi - z_l| <= tol there
    goes on to 0.1 tol min(1, |z_l|) and is read again.  The steps share
    one budget of max_iter.

    Each Newton step and each backtracking round evaluates _phi only on
    the points still open in it, and scatters the results back; _atom_sums
    gives a point the same bits in any batch, so no point's result depends
    on which others are evaluated with it.  Returns zeta, the per-point
    iterations, and Phi - z_l, Phi' and m_v: at the Newton point where its
    residual is no larger than the last iterate's, and Phi' always at the
    last iterate.  A point counts the steps it entered neither converged
    nor stuck.
    """
    # relative below |z| = 1: near the hard edge z -> 0, g ~ sqrt(|z|)
    # and an absolute stop leaves m short of its digits
    scale = np.minimum(1.0, np.abs(z_l))
    target = _NEWTON_STOP * scale
    zeta = zeta.copy()
    ph, dph, mv = _phi(d, c, t, zeta, 1)
    F = ph - z_l
    absF = np.abs(F)
    used = np.zeros(zeta.shape[0], dtype=int)
    stuck = np.zeros(zeta.shape[0], dtype=bool)
    budget, read, rows = max_iter, np.ones(zeta.shape[0], dtype=bool), None
    for polish in (False, True):
        while budget:
            act = np.flatnonzero(~((absF <= target) | stuck))
            if act.size == 0:
                break
            budget -= 1
            used[act] += 1
            # the step's points: their iterate, target, |Phi - z_l| and step
            za, zt, aF = zeta[act], z_l[act], absF[act]
            step = F[act] / dph[act]
            cand = za - step
            phc, dphc, mvc = _phi(d, c, t, cand, 1)
            Fc = phc - zt
            absFc = np.abs(Fc)
            lam = np.ones(act.size)
            for _ in range(40):
                back = np.flatnonzero(~((absFc < aF) & (cand.imag > 0)))
                if back.size == 0:
                    break
                lam[back] *= 0.5
                cand[back] = za[back] - lam[back] * step[back]
                phc2, dphc[back], mvc[back] = _phi(d, c, t, cand[back], 1)
                Fc[back] = phc2 - zt[back]
                absFc[back] = np.abs(Fc[back])
            better = (absFc < aF) & (cand.imag > 0)
            took = act[better]
            zeta[took], F[took], absF[took] = cand[better], Fc[better], absFc[better]
            dph[took], mv[took] = dphc[better], mvc[better]
            stuck[act[~better]] = True
        at = _newton_point(d, c, t, z_l[read], zeta[read], F[read], dph[read])
        keep = (np.abs(at[1]) <= absF[read]) & (at[0].imag > 0)
        rows = rows or [zeta.copy(), F.copy(), mv.copy()]
        for row, new, old in zip(rows, at, (zeta, F, mv)):
            row[read] = np.where(keep, new, old[read])
        miss = read & ~(np.abs(rows[1]) <= tol)
        if polish or not budget or not miss.any():
            break
        # polish the misses; the rest stay idle
        target, read = np.where(miss, 0.1 * tol * scale, np.inf), miss
    return rows[0], used, rows[1], dph, rows[2]


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
        m_under = c * mv - (1.0 - c) / z
        return mv, np.ones_like(mv), z.copy(), m_under, np.zeros(z.shape[0]), np.zeros(z.shape[0], dtype=int)

    eta_t = z.imag
    E = z.real

    # initial state at the ladder top, shared by both routes
    z_l = E + 1j * np.maximum(eta_t, _ETA_TOP)
    m, iters, _ = _fp_iterate(d, c, t, z_l, -1.0 / z_l, cfg.max_iterations, _SEED_TOL)
    re_b = (1.0 + c * t * m).real
    if np.any(re_b <= 0):
        j = int(np.argmin(re_b))
        raise SolverError(
            f"initialization lost the Re b > 0 branch (Re b = {re_b[j]:.3e}) "
            f"at ladder top eta={_ETA_TOP:.3g}, E={E[j]:.17g}, eta={eta_t[j]:.3g}"
        )

    if method == "fixed_point":
        # the sweeps go straight to z: a point stops once |Phi(zeta(m)) - z|
        # meets 0.9 tol and its update meets 0.01 tol or no longer falls
        m, used, residual = _fp_iterate(d, c, t, z, m, cfg.max_iterations, 0.01 * cfg.tolerance, 0.9 * cfg.tolerance)
        iters += used
        zeta = _zeta_from_m(c, t, z, m)
    else:
        # the same sweeps go on at z to the seed update, and one Newton
        # solve at z finishes from there
        m, used, _ = _fp_iterate(d, c, t, z, m, cfg.max_iterations, _SEED_TOL)
        zeta, steps, F, _, mv = _newton_level(d, c, t, z, _zeta_from_m(c, t, z, m), cfg.tolerance, cfg.max_iterations)
        iters += used + steps
        residual = np.abs(F)
        m = mv / (1.0 - c * t * mv)
    b = 1.0 + c * t * m
    m_under = c * m - (1.0 - c) / z
    if np.any(residual > cfg.tolerance):
        j = int(np.argmax(residual))
        raise SolverError(
            f"residual {residual[j]:.3e} exceeds tolerance "
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

    method selects the route.  Both start with fixed-point sweeps at the
    ladder top, eta = max(Im z, 10), and run them on straight at z.
    "hybrid" (default) stops them at a loose update and finishes with one
    Newton solve at z; "fixed_point" runs them to the tolerance and never
    forms a Newton step, which makes it an independent cross-check of the
    default.
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
    # tolist() gives the Python complex, float and int of each field at once
    points = [ConvolutionPoint(*row) for row in zip(*(a.tolist() for a in (z, m, b, zeta, m_under, residual, iters)))]
    for pt in points:
        pt.validate(params, cfg.tolerance)
    return points


# an atom at 0 gives K = 0 and an infinite cap: its interval is kept
@np.errstate(divide="ignore")
def _gaps_may_open(a, c, t, p):
    """Mask of the intervals (a_i, a_{i+1}) between the consecutive distinct
    atoms a where the spacing certificate of _support does not rule out a
    gap; p counts the atoms with their multiplicity."""
    lo, delta = a[:-1], np.diff(a)
    K = 2.0 * lo / (c * t)
    cap = 1.0 + (1.0 + np.sqrt(1.0 + 4.0 * K)) / (2.0 * K)
    # the factor 2 is a margin for rounding
    return ~((lo > 0.0) & (16.0 * c * t * lo / (p * delta**2) >= 2.0 * cap))


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

    Most intervals between atoms are screened out before any root is
    solved.  Take consecutive distinct atoms a < a' with a > 0 and
    delta = a' - a.  Wherever g > 0 on (a, a'), c <= 1 and g' = -c t m_v'
    give Phi' <= g (g - u) with u = 2 c t x m_v'.  Jensen (m_v' >= m_v^2)
    caps g at 1 + sqrt(u / K) with K = 2x / (c t), which is at most u once
    u >= cap = 1 + (1 + sqrt(1 + 4K)) / (2K).  The two atoms give
    m_v' >= 8 / (p delta^2), p counting multiplicity.  So when
    16 c t x / (p delta^2) >= cap, Phi' <= 0 wherever g > 0 and no gap
    opens; x = a is the worst case, since the left side grows with x and
    cap falls.  _gaps_may_open tests this at x = a with a factor 2 to
    spare, and only the lowest interval and the kept ones are searched.

    Each zero (of g, Phi'' and Phi') is solved by _bracketed_newton on the
    bracket and sign test the derivation gives, with the next derivative
    (Phi''' for the peak) from the same atom-sum pass, and comes back from
    the side of its bracket where the sign test holds.  The lowest zero of
    g is bracketed by [a_0 - 2ct, a_0]: every d_i >= a_0, so m_v <= 1/(2ct)
    and g >= 1/2 at a_0 - 2ct.  The grid takes one atom-sum pass, and each
    peak bracket spans the grid points next to its largest Phi'.  A bracket
    whose largest Phi' is at its last grid point ends at x_g; where
    Phi''(x_g) > 0 its peak is settled at x_g, the limit the search would
    bisect to, and only the other brackets are searched.  Phi'(x_g) =
    (1-c) t g' <= 0, so such a bracket has a run only where the grid's
    largest Phi' is positive; Phi' at the computed x_g is not read, since
    at c = 1 its sign is rounding.
    """

    def on_phi(order, positive):
        # Newton on the order-th derivative of Phi; the test is its sign
        def fun(x):
            row = _phi(d, c, t, x, order + 1)
            return row[order], row[order + 1], (row[order] > 0.0) == positive

        return fun

    def on_g(x):
        s = _atom_sums(d, x, 1)
        return 1.0 - c * t * s[0], -c * t * s[1], c * t * s[0] <= 1.0

    def slope(x):
        return _phi(d, c, t, x, 1)[1]

    a = np.unique(d)
    # below L = a_0 - y, m_v <= 1/y and m_v' <= 1/y^2 give g >= 0.9 and Phi' >= 0.6
    L = a[0] - max(10.0 * t, np.sqrt(10.0 * a[0] * t))
    keep = _gaps_may_open(a, c, t, d.size)
    lo_g = np.append(a[0] - 2.0 * c * t, a[:-1][keep])
    x_g = _bracketed_newton(on_g, lo_g, np.append(a[0], a[1:][keep]), _ROOT_XTOL)

    base, top = a[:-1][keep], x_g[1:]
    h = (top - base) / (_SUPPORT_GRID + 1)
    grid = base[:, None] + h[:, None] * np.arange(1, _SUPPORT_GRID + 1)
    f = slope(grid.ravel()).reshape(grid.shape)
    j = np.arange(base.size), np.argmax(f, axis=1)
    # a bracket settled at x_g keeps its grid point and value: Phi'(x_g) <= 0
    end = np.flatnonzero(j[1] == _SUPPORT_GRID - 1)
    search = np.ones(base.size, dtype=bool)
    search[end[_phi(d, c, t, top[end], 2)[2] > 0.0]] = False
    peak, f_peak = grid[j], f[j]
    lo, hi = peak[search] - h[search], np.minimum(peak + h, top)[search]
    peak[search] = _bracketed_newton(on_phi(2, True), lo, hi, _PEAK_XTOL)
    f_peak[search] = slope(peak[search])
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


def _walk(d, c, t, start, E, count, cfg):
    """Walk tracks of energies on the branch Im zeta > 0 of Phi(zeta) = E by
    the module docstring's rules, one _newton_level call a round.

    Track k starts from start = (E_0, zeta_0, s_0)[k], a support edge with
    zeta_0 = x_c real and s_0 = Phi''(x_c) or an accepted point with
    s_0 = Phi', and walks the next count[k] energies of E in their order,
    either way.  A point whose track's zeta is still real takes the edge
    expansion seed, any other the tangent seed.  _atom_sums gives every
    point the bits it gets alone, so no point's result depends on the
    other tracks.  SolverError carries its track as `track`.  Returns the
    rows (zeta, Phi - E, Phi', m_v) at E, read at each point's Newton
    point with Phi' at its last iterate (_newton_level), and each point's
    Newton steps, with those of its track's failed attempts and
    intermediate energies since.
    """
    E_cur, zeta, slope = np.array(start[0], dtype=float), np.array(start[1], dtype=complex), np.array(start[2], dtype=complex)
    pos, size, h, pending = (end := count.cumsum()) - count, np.ones(end.size, dtype=int), np.full(end.size, np.inf), np.zeros(end.size, dtype=int)
    at, steps, tol = np.zeros((4, E.size), dtype=complex), np.zeros(E.size, dtype=int), cfg.tolerance
    while (live := (pos < end).nonzero()[0]).size:
        P, E0, hl = pos[live], E_cur[live], h[live]
        gap = E0 - E[P]
        mid = np.abs(gap) > hl  # h is finite only while a track recovers from a failure
        n = np.minimum(size[live], end[live] - P)
        n[mid] = 1
        first, last = (cs := n.cumsum()) - n, cs - 1
        k, row = (live, P) if last[-1] < n.size else (live.repeat(n), np.arange(last[-1] + 1) + (P - first).repeat(n))
        E_b = E[row]
        if np.count_nonzero(mid):
            E_b[first[mid]] = (E0 - np.copysign(hl, gap))[mid]
        dE, zeta_k, slope_k = E_cur[k] - E_b, zeta[k], slope[k]
        seed = zeta_k - dE / slope_k
        if np.count_nonzero(edge := zeta_k.imag == 0.0):
            seed[edge] = zeta_k[edge] + 1j * np.sqrt(2.0 * dE[edge] / slope_k[edge].real)
        zeta_b, used, F, dph, mv = _newton_level(d, c, t, E_b, seed, tol, cfg.max_iterations)
        ok = (np.abs(F) <= tol) & (zeta_b.imag > 0) & (np.abs(zeta_b - seed) <= seed.imag)
        if np.count_nonzero(ok) == (w := row.size) and not np.count_nonzero(mid):  # every block accepted whole
            E_cur[live], zeta[live], slope[live] = E_b[last], zeta_b[last], dph[last]
            used[first] += pending[live]
            pending[live], size[live], h[live], pos[live] = 0, 2 * n, np.inf, P + n
        else:
            acc = np.minimum(np.minimum.reduceat(np.where(ok, w, np.arange(w)), first) - first, n)
            hit, j = (took := acc > 0) & ~mid, (first + acc - 1)[took]
            E_cur[live[took]], zeta[live[took]], slope[live[took]] = E_b[j], zeta_b[j], dph[j]
            pending[live] += used[first]  # failed attempts and intermediate energies count toward the next point
            used[first[hit]], pending[live[hit]] = pending[live[hit]], 0
            h[live] = np.where(hit, np.inf, np.where(took, 2.0 * hl, 0.5 * np.minimum(np.abs(gap), hl)))
            if np.count_nonzero(stop := h[live] < _WALK_FLOOR * np.maximum(1.0, np.abs(E_cur[live]))):
                exc = SolverError(f"density walk stage: no root reached at E={E[P[stop.argmax()]]:.17g}")
                exc.track = int(live[stop.argmax()])
                raise exc
            size[live] = np.where(hit & (acc == n), 2 * size[live], 1)
            pos[live] = P + np.where(hit, acc, 0)
        at[0, row], at[1, row], at[2, row], at[3, row], steps[row] = zeta_b, F, dph, mv, used  # rewritten once accepted
    return at, steps


def _right_mass(d, c, t, zeta, mv):
    """(R, m) at subordination points zeta, Im zeta > 0, with mv = m_v
    there: the law's mass R = mu((E, inf)) above E = Phi(zeta), and
    m = m_v / g.

    The log-potential L(z) = int log(x - z) dmu(x) has L' = -m and
    Im L(E + i0) = -pi mu((-inf, E)), so R = 1 + Im L / pi.  With
    z = Phi(zeta), m = m_v / g and g' = -c t m_v',
        m Phi' = d/dzeta [-mean log(d - zeta) - c t zeta m_v^2 + (1-c) t m_v + ((1-c)/c) log g],
    so L is minus the bracket up to a constant, in principal logs (kept
    continuous by Im(d - zeta) < 0 and Im g < 0).  Above lambda_plus each
    log(d_i - zeta) has argument -pi and g > 0, so R = 0 fixes the constant;
    at a real critical point x_c with g > 0 the same limit gives
    R = #{d_i > x_c}/p.  The arguments are summed as _atom_sums sums, each
    point along its own row of atoms: O(log p) roundings, whatever the
    batch.
    """
    p = d.shape[0]
    arg = np.empty(zeta.shape[0])
    stride = max(1, _CHUNK // p)
    for lo in range(0, zeta.shape[0], stride):
        z = zeta[lo : lo + stride, None]
        arg[lo : lo + stride] = np.arctan2(-z.imag, d - z.real).sum(axis=1) / p  # Im log(d - zeta)
    g = 1.0 - c * t * mv
    im_L = arg + (c * t * zeta * mv * mv - (1.0 - c) * t * mv).imag - (1.0 - c) / c * np.arctan2(g.imag, g.real)
    return 1.0 + im_L / np.pi, mv / g


def density_diagnostics(spec: Spectrum, params: ModelParams, E, cfg: SolverConfig | None = None):
    """(rho, diagnostics) on an E-array for t > 0: per point residual and
    iteration count.

    One _walk takes every component down from its right edge.  A point
    inside one reports |Phi(zeta) - E| and the Newton steps _walk counts;
    points outside every component (E <= 0, gaps, E >= lambda_plus) read
    0 throughout.  t = 0: ValueError.
    """
    if params.t == 0.0:
        raise ValueError("no density at t = 0: the measure is atomic")
    cfg = cfg or SolverConfig()
    E = np.asarray(E, dtype=float).ravel()
    d, c, t = spec.values, params.c_n, params.t
    comps = _support(d, c, t, find_right_edge(spec, params))
    k = np.searchsorted(comps[:, 1], E, side="right")
    inside = np.flatnonzero(E > np.append(comps[:, 0], np.inf)[k])
    order = inside[np.lexsort((-E[inside], k[inside]))]  # by component, descending in each
    at, steps = _walk(d, c, t, comps[:, 1:].T, E[order], np.bincount(k[inside], minlength=len(comps)), cfg)
    rows = np.zeros((3, E.shape[0]))  # rho, residual, iterations
    rows[:, order] = (at[3] / (1.0 - c * t * at[3])).imag / np.pi, np.abs(at[1]), steps
    return rows[0], {"residual": rows[1], "iterations": rows[2].astype(int)}


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
