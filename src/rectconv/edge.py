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
# Newton steps on Phi' inside the bracket; a step smaller than
# _NEWTON_XTOL relative to zeta ends the solve.
_NEWTON_STEPS = 200
_NEWTON_XTOL = 4.0 * np.finfo(float).eps


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
    solves the equation by Newton on Phi' inside the bracket, with Phi''
    from the same atom-sum pass.  A step that leaves the bracket, or
    Phi'' <= 0, is replaced by bisection; the solve ends when a step falls
    below 4 ulp of zeta.
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

    zeta_plus = _newton_in_bracket(d, c, t, lo, hi)
    lambda_plus, _, phi_second, _ = _phi(d, c, t, zeta_plus, 2)
    if not (lambda_plus > d1 and phi_second > 0.0):
        raise EdgeBracketError(
            f"degenerate edge solve: lambda={lambda_plus}, phi''={phi_second}"
        )
    edge = EdgeData(
        lambda_plus=lambda_plus,
        zeta_plus=float(zeta_plus),
        xi_plus=float(zeta_plus - d1),
        velocity=0.0,
        sqrt_coeff=0.0,
        phi_second=phi_second,
    )
    return replace(
        edge,
        velocity=edge_velocity(spec, params, edge),
        sqrt_coeff=sqrt_coefficient(spec, params, edge),
    )


def _newton_in_bracket(d, c, t, lo: float, hi: float) -> float:
    """Root of Phi' in [lo, hi], where Phi'(lo) < 0 <= Phi'(hi)."""
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        _, s1, s2, _ = _phi(d, c, t, x, 2)
        if s1 < 0.0:
            lo = x
        else:
            hi = x
        step = s1 / s2 if s2 > 0.0 else np.inf
        if abs(step) <= _NEWTON_XTOL * x:
            return x - step
        # a step that leaves the bracket, or none (Phi'' <= 0): bisect
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
    raise EdgeBracketError(f"edge solve did not converge in [{lo!r}, {hi!r}]")


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
    return _phi(spec.values, params.c_n, params.t, float(d))[0]


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
