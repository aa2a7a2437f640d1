"""Right spectral edge of the noise-convolved density.

The edge is the image of the unique critical point of the inverse
subordination map on the real axis to the right of the top signal
eigenvalue.  Everything here works in real arithmetic on that ray.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .spectrum import ModelParams, Spectrum
from .stieltjes import _phi

__all__ = [
    "EdgeData",
    "EdgeBracketError",
    "find_right_edge",
    "edge_velocity",
    "sqrt_coefficient",
    "bbp_threshold",
    "outlier_location",
    "edge_report_json",
]

# Bracketed Newton (the edge, the support finder, the classical
# locations): a point ends once the step or the bracket falls below
# _ROOT_XTOL relative, and after _ROOT_STEPS evaluations at the latest.
# A point whose f rounds to exactly 0 on the false side creeps one float
# a step; after _CREEP_CAP such steps in a row it bisects instead.
_ROOT_XTOL = 4.0 * np.finfo(float).eps
_ROOT_STEPS = 100
_CREEP_CAP = 8


class EdgeBracketError(RuntimeError):
    """The edge solve failed: the critical point under one float of d_1,
    the solve out of the float range, or a degenerate expansion there."""


@dataclass(frozen=True)
class EdgeData:
    """Right-edge data: location, critical point, and local expansion.

    velocity and sqrt_coeff are NaN at t = 0, where the measure is atomic
    and has no square-root edge.
    """

    lambda_plus: float
    zeta_plus: float
    xi_plus: float
    velocity: float
    sqrt_coeff: float
    phi_second: float


def find_right_edge(spec: Spectrum, params: ModelParams) -> EdgeData:
    """Locate the right edge for t > 0 (t = 0 short-circuits to the top atom).

    Solves the critical-point equation Phi' = 0 by _bracketed_newton on
    Phi', with Phi'' from the same atom-sum pass, in the closed-form
    bracket (d_1, d_1 + delta], delta = c t + sqrt(c t (t + 2 d_1)), from
    its midpoint, and from the point it returns takes the Newton step when
    that step is below _ROOT_XTOL relative.  That point is the solve's last
    evaluation where Phi' < 0, so its pass is reused, and the step is
    evaluated only where it moves the point.

    The bracket holds.  At zeta = d_1 + x, x > 0, g = 1 - c t m_v >= 1 and
    0 < m_v' <= 1/x^2, so Phi' = g^2 - 2 zeta c t m_v' g - (1-c) c t^2 m_v'
    >= g^2 - a g - b with a = 2 zeta c t / x^2 and b = (1-c) c t^2 / x^2.
    While a <= 2 that bound rises with g, so Phi' >= 1 - a - b, and
    a + b = 1 exactly at x = delta: Phi' > 0 at the top end, while
    Phi' -> -inf as zeta -> d_1+.  _bracketed_newton never evaluates the
    ends, so the low end d_1 is safe.  Where its midpoint rounds to d_1, or
    no point it tries has Phi' < 0, the critical point is under one float
    of d_1, and the solve raises EdgeBracketError; so does an atom sum or
    t^2 out of the float range (t far from the scale of d_1).

    Phi'' > 0 on the ray: with y_i = zeta - d_i and means over the atoms,
    Phi'' = 4 c t g mean(d_i / y_i^3) + 2 zeta (c t mean(y_i^-2))^2
    + 2 (1-c) c t^2 mean(y_i^-3), where g >= 1, d_i >= 0 and c <= 1.  So
    Phi' rises through its one root and every Newton step points at it.
    """
    d1 = spec.top
    t = params.t
    if t == 0.0:
        return EdgeData(
            lambda_plus=d1,
            zeta_plus=d1,
            xi_plus=0.0,
            velocity=float("nan"),
            sqrt_coeff=float("nan"),
            phi_second=0.0,
        )

    d, c = spec.values, params.c_n
    held = [None, None]  # the last x with Phi' < 0 and its pass

    def on_slope(x):
        row = _phi(d, c, t, x, 2)
        if row[1][0] < 0.0:
            held[:] = x[0], row
        return row[1], row[2], row[1] < 0.0

    try:
        # an atom sum or t^2 out of the float range fails the solve
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            hi = d1 + c * t + np.sqrt(c * t) * np.sqrt(t + 2.0 * d1)
            # where the first point, the midpoint, rounds to d1, or Phi' < 0
            # at no point tried, the critical point is under one float of d1
            zeta_plus = d1 if 0.5 * (d1 + hi) == d1 else _bracketed_newton(on_slope, [d1], [hi], _ROOT_XTOL)[0]
            if zeta_plus == d1:
                raise EdgeBracketError(f"the critical point is under one float of d1 = {d1} at t = {t}")
            row = held[1] if held[0] == zeta_plus else _phi(d, c, t, np.array([zeta_plus]), 2)
            lambda_plus, s1, phi_second = (v[0] for v in row[:3])
            step = s1 / phi_second
            if abs(step) <= _ROOT_XTOL * zeta_plus and zeta_plus - step != zeta_plus:
                zeta_plus -= step
                lambda_plus, _, phi_second, _ = _phi(d, c, t, zeta_plus, 2)
            if not (lambda_plus > d1 and phi_second > 0.0):
                raise EdgeBracketError(
                    f"degenerate edge solve: lambda={lambda_plus}, phi''={phi_second}"
                )
            edge = EdgeData(
                lambda_plus=float(lambda_plus),
                zeta_plus=float(zeta_plus),
                xi_plus=float(zeta_plus - d1),
                velocity=0.0,
                sqrt_coeff=0.0,
                phi_second=float(phi_second),
            )
            return replace(
                edge,
                velocity=edge_velocity(spec, params, edge),
                sqrt_coeff=sqrt_coefficient(spec, params, edge),
            )
    except FloatingPointError as exc:
        raise EdgeBracketError(f"edge solve out of the float range at t = {t}: {exc}") from exc


def _bracketed_newton(fun, lo, hi, xtol, *args, start=None):
    """Elementwise root in [lo, hi] by Newton kept inside the bracket.

    fun(x, *args) returns (f, f', holds) at the points x, where the test
    holds is true at lo and false at hi; each evaluation moves its side's
    end to x.  args are per-point arrays, passed for the live points only.
    The first x is start, or the midpoint where start is None or outside
    the open bracket.  A step that leaves the bracket is replaced by
    bisection.  So lo and hi themselves are never evaluated (while a float
    lies between them), and an end where fun is singular is safe.  A point
    stops once holds is true and its step is below xtol relative, or once
    its bracket is that narrow; a small step from the false side is
    doubled, to land past the root.  A zero step there moves one float, so
    more than _CREEP_CAP of them in a row (a plateau where f rounds to 0)
    bisect.  Returns each point's last x where holds is true, so the
    bracket contracts of the callers stay true.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    out = lo.copy()
    # the live points' index, bracket and iterate, and their zero steps in
    # a row (a scalar 0 after a round with none)
    live, runs = np.arange(lo.size), 0
    x = 0.5 * (lo + hi) if start is None else np.where((lo < start) & (start < hi), start, 0.5 * (lo + hi))
    for _ in range(_ROOT_STEPS):
        if live.size == 0:
            return out
        f, df, holds = fun(x, *args)
        lo, hi = np.where(holds, x, lo), np.where(holds, hi, x)
        step = f / df
        tol = xtol * np.maximum(np.abs(lo), np.abs(hi))
        small = np.abs(step) <= tol
        stop = (holds & small) | (hi - lo <= tol)
        out[live[stop]] = lo[stop]
        keep = ~stop
        live, lo, hi, x = live[keep], lo[keep], hi[keep], x[keep]
        args = tuple(a[keep] for a in args)
        step, small = step[keep], small[keep]
        new, count = x - step, 0
        if np.count_nonzero(small):
            # a small step left is from the false side: twice the step, and
            # one float more, toward the true side.  A zero step moves one
            # float only, so a run of more than _CREEP_CAP of them bisects
            new = np.where(small, np.nextafter(x - 2.0 * step, lo), new)
            if np.count_nonzero(step == 0.0):
                count = np.where(step == 0.0, 1 + (runs[keep] if np.ndim(runs) else 0), 0)
                new = np.where(count > _CREEP_CAP, 0.5 * (lo + hi), new)
        runs = count
        x = np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi))
    out[live] = lo
    return out


def edge_velocity(spec: Spectrum, params: ModelParams, edge: EdgeData) -> float:
    """dlambda_+/dt expressed through bare-spectrum data at the critical point."""
    c, t = params.c_n, params.t
    if t == 0.0:
        return float("nan")
    zp, lp = edge.zeta_plus, edge.lambda_plus
    mv = _phi(spec.values, c, t, zp)[-1]
    root = np.sqrt(t * t * (1.0 - c) ** 2 + 4.0 * zp * lp)
    return float(
        ((1.0 - c) / (2.0 * zp) - c * mv) * root - (1.0 - c) ** 2 * t / (2.0 * zp)
    )


def sqrt_coefficient(spec: Spectrum, params: ModelParams, edge: EdgeData) -> float:
    """Prefactor A in rho(E) ~ A * sqrt(lambda_+ - E) just inside the edge.

    Writing S = sqrt(t^2(1-c)^2 + 4 zeta z), the imaginary part of the
    inverted subordination relation gives Im m = Im zeta / (c t S), and
    Im zeta = sqrt(2 kappa / Phi'') by the quadratic expansion of Phi at
    its critical point; A collects the constants.
    """
    c, t = params.c_n, params.t
    if t == 0.0:
        return float("nan")
    zp, lp = edge.zeta_plus, edge.lambda_plus
    phi2 = edge.phi_second
    denom = (4.0 * lp * zp + (1.0 - c) ** 2 * t * t) * c * c * t * t * phi2
    if not denom > 0:
        raise EdgeBracketError(f"nonpositive edge-expansion denominator {denom}")
    return float(np.sqrt(2.0 / denom) / np.pi)


def bbp_threshold(spec: Spectrum, params: ModelParams, edge: EdgeData) -> float:
    """Critical signal strength: atoms above it detach from the bulk."""
    return edge.zeta_plus


def outlier_location(spec: Spectrum, params: ModelParams, edge: EdgeData, d: float) -> float:
    """Asymptotic position of the outlier produced by a supercritical atom d."""
    thr = bbp_threshold(spec, params, edge)
    if not d > thr:
        raise ValueError(f"atom {d} is not above the detachment threshold {thr}")
    if params.t == 0.0:
        return float(d)
    return float(_phi(spec.values, params.c_n, params.t, float(d))[0])


def edge_report_json(edge: EdgeData, spec: Spectrum, params: ModelParams) -> str:
    def _clean(x: float):
        return float(x) if np.isfinite(x) else None

    return json.dumps(
        {
            "lambda_plus": _clean(edge.lambda_plus),
            "zeta_plus": _clean(edge.zeta_plus),
            "xi_plus": _clean(edge.xi_plus),
            "velocity": _clean(edge.velocity),
            "sqrt_coeff": _clean(edge.sqrt_coeff),
            "bbp_threshold": _clean(bbp_threshold(spec, params, edge)),
        }
    )
