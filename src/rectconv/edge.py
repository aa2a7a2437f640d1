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

_BRACKET_LIMIT = 1e6
_BRACKET_FLOOR = 1e-14
# Bracketed Newton (the edge, the support finder, the classical
# locations): a point ends once the step or the bracket falls below
# _ROOT_XTOL relative, and after _ROOT_STEPS evaluations at the latest.
# A point whose f rounds to exactly 0 on the false side creeps one float
# a step; after _CREEP_CAP such steps in a row it bisects instead.
_ROOT_XTOL = 4.0 * np.finfo(float).eps
_ROOT_STEPS = 100
_CREEP_CAP = 8


class EdgeBracketError(RuntimeError):
    """The edge solve failed: no sign change of the edge equation on the
    admissible ray, or a degenerate expansion at the critical point."""


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

    Brackets the critical-point equation Phi' = 0 on (d_1, d_1 + 1e6]
    between neighbours of the offsets eps 2^k, eps = 1e-8 * max(1, d_1),
    searched from the one nearest the square-root scale t^2 of xi_plus,
    shrinking toward d_1 if the equation is already positive at eps.  It
    solves the equation by _bracketed_newton on Phi' inside the bracket,
    with Phi'' from the same atom-sum pass, and from the point it returns
    takes the Newton step when that step is below _ROOT_XTOL relative.
    That point is the solve's last evaluation where Phi' < 0, so its pass
    is reused, and the step is evaluated only where it moves the point.

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

    def slope(x: float) -> float:
        return _phi(d, c, t, x, 1)[1]

    scale = max(1.0, d1)
    eps = 1e-8 * scale
    # start at the square-root scale t^2 of xi_plus, on the doubling grid
    # eps 2^k, and step down the grid while the equation is positive: the
    # bracket is the one that doubling from eps finds
    width = eps * 2.0 ** round(np.log2(np.clip(t * t, eps, _BRACKET_LIMIT) / eps))
    while width > eps and slope(d1 + width) >= 0.0:
        width /= 2.0
    if width == eps:
        while slope(d1 + eps) >= 0.0:
            eps /= 100.0
            if eps < _BRACKET_FLOOR * scale:
                raise EdgeBracketError(
                    f"edge equation has no sign change above d1 + {_BRACKET_FLOOR * scale:.3e}"
                )
        width = eps
    # the equation is negative at d1 + width
    lo = d1 + width
    while True:
        width *= 2.0
        if width > _BRACKET_LIMIT:
            raise EdgeBracketError("edge equation stays negative out to d1 + 1e6")
        if slope(d1 + width) >= 0.0:
            break
        lo = d1 + width
    hi = d1 + width

    held = [None, None]  # the last x with Phi' < 0 and its pass

    def on_slope(x):
        row = _phi(d, c, t, x, 2)
        if row[1][0] < 0.0:
            held[:] = x[0], row
        return row[1], row[2], row[1] < 0.0

    zeta_plus = _bracketed_newton(on_slope, [lo], [hi], _ROOT_XTOL)[0]
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


def _bracketed_newton(fun, lo, hi, xtol, *args, start=None):
    """Elementwise root in [lo, hi] by Newton kept inside the bracket.

    fun(x, *args) returns (f, f', holds) at the points x, where the test
    holds is true at lo and false at hi; each evaluation moves its side's
    end to x.  args are per-point arrays, passed for the live points only.
    The first x is start, or the midpoint where start is None or outside
    the open bracket.  A step that leaves the bracket is replaced by
    bisection.  A point stops once holds is true and its step is below
    xtol relative, or once its bracket is that narrow; a small step from
    the false side is doubled, to land past the root.  A zero step there
    moves one float, so more than _CREEP_CAP of them in a row (a plateau
    where f rounds to 0) bisect.  Returns each point's last x where holds
    is true, so the bracket contracts of the callers stay true.
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
