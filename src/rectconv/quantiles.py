"""Classical eigenvalue locations and the local comparison scale.

The j-th location gamma_j puts mass (j-1)/p to its right under the
noise-convolved density; the top location is pinned to the edge itself.
The right mass R (freeconv._right_mass) is an exact count of atoms at every
support edge, so a location is an edge or a root of R - (j-1)/p inside one
support component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edge import _ROOT_XTOL, EdgeData, _bracketed_newton
from .freeconv import SolverConfig, SolverError, _right_mass, _support, _walk
from .spectrum import ModelParams, Spectrum

__all__ = [
    "QuantileTable",
    "classical_locations",
    "eta_lower",
    "in_domain",
    "write_quantile_csv",
]

_WALK_NODES = 8  # nodes theta = pi j / 9, j = 1..8, walked on a component holding a target
# R is formed as 1 + Im L / pi, so it carries about one ulp of 1: a root
# in theta is settled once R - tau is within that below 0
_MASS_FLOOR = np.finfo(float).eps
_ETA_STEPS = 100  # Newton steps for eta_l; n = 1e15 needs 27


@dataclass(frozen=True)
class QuantileTable:
    """Descending classical locations gamma_1 > ... > gamma_{j_max}, and
    quad_error, the largest |R(gamma_j) - (j-1)/p| + |m| |Phi(zeta) - E| / pi."""

    gamma: np.ndarray
    j_max: int
    quad_error: float


def _locations(spec, params, edge, targets, cfg):
    """(locations with right mass `targets`, in target order; quad_error).

    One _walk takes each component [l, r] that holds a target strictly
    inside from its right edge over _WALK_NODES nodes, whose R brackets
    every target there; each is then the root of R - tau by _bracketed_newton
    in theta, E = l + (r-l) cos^2(theta/2), slope rho (r-l) sin(theta) / 2,
    from the secant of its node bracket (of the cube of the distance to the
    edge next to one), until R - tau is within _MASS_FLOOR below 0.  An
    evaluation is one _walk call, a track per live target from its last
    accepted point, with R and m read at the walk's Newton point.
    """
    if params.t <= 0:
        raise ValueError("classical locations need t > 0")
    targets = np.asarray(targets, dtype=float)
    if targets.size == 0 or targets.min() < 0 or targets.max() >= 1:
        raise ValueError("right-mass targets must lie in [0, 1)")

    d, c, t, p = spec.values, params.c_n, params.t, spec.p
    rows = _support(d, c, t, edge)[::-1]  # (l, r, x_c, Phi''(x_c)), top first
    left_mass = np.append((p - np.searchsorted(d[::-1], rows[1:, 2], side="right")) / p, 1.0)
    k = np.searchsorted(left_mass, targets)
    x = np.where(targets == 0.0, edge.lambda_plus, rows[k, 0])
    inner = (targets > 0.0) & (targets < left_mass[k])  # else an edge: lambda_plus or a left edge
    if not inner.any():
        return x, 0.0
    tau, comp = targets[inner], k[inner]
    left, width, every = rows[comp, 0], rows[comp, 1] - rows[comp, 0], np.arange(tau.size)

    def walk(start, E, count, who):  # rows (zeta, Phi - E, Phi', m_v) at E for targets who
        try:
            return _walk(d, c, t, start, E, count, cfg)[0]
        except SolverError as exc:  # its message names the energy
            i = who[exc.track]
            raise SolverError(f"classical locations: component {comp[i]} from the top, target {tau[i]:.12g}: {exc}") from None

    theta = np.pi * np.arange(_WALK_NODES + 2) / (_WALK_NODES + 1)
    E = left[:, None] + width[:, None] * np.cos(0.5 * theta[1:-1]) ** 2
    _, first, which = np.unique(comp, return_index=True, return_inverse=True)
    at = walk(rows[comp[first], 1:].T, E[first].ravel(), np.full(first.size, _WALK_NODES), first).reshape(4, first.size, -1)
    R, m = (v.reshape(at.shape[1:])[which] for v in _right_mass(d, c, t, at[0].ravel(), at[3].ravel()))
    at = at[:, which]
    R = np.column_stack((np.append(0.0, left_mass)[comp], R, left_mass[comp]))
    j = np.count_nonzero(R < tau[:, None], axis=1) - 1  # R[j] < tau <= R[j + 1]
    err = tau - R[every, j] + np.where(j > 0, np.abs(m * at[1])[every, j - 1] / np.pi, 0.0)
    node = np.maximum(j, 1) - 1
    E_last, zeta_last, slope_last, one = E[every, node], at[0, every, node], at[2, every, node], np.ones_like(every)

    def mass(theta, i):
        E = left[i] + width[i] * np.cos(0.5 * theta) ** 2
        zeta, F, dph, mv = walk((E_last[i], zeta_last[i], slope_last[i]), E, one[: i.size], i)
        R, m = _right_mass(d, c, t, zeta, mv)
        E_last[i], zeta_last[i], slope_last[i] = E, zeta, dph
        f = R - tau[i]
        err[i] = np.where(f < 0.0, np.abs(f) + np.abs(m * F) / np.pi, err[i])
        # a zero step on the true side ends the point's solve
        return np.where((f < 0.0) & (f >= -_MASS_FLOOR), 0.0, f), m.imag / np.pi * 0.5 * width[i] * np.sin(theta), f < 0.0

    # the solve starts at the secant of its bracket; next to an edge, where
    # R moves as the cube of the distance in theta, at the secant in that cube
    lo, hi = theta[j], theta[j + 1]
    s = (tau - R[every, j]) / (R[every, j + 1] - R[every, j])
    start = lo + (hi - lo) * np.where(j == 0, np.cbrt(s), np.where(j == _WALK_NODES, 1.0 - np.cbrt(1.0 - s), s))
    x[inner] = left + width * np.cos(0.5 * _bracketed_newton(mass, lo, hi, _ROOT_XTOL, every, start=start)) ** 2
    if np.any(np.diff(x[np.argsort(targets, kind="stable")]) >= 0):
        raise SolverError("classical locations failed to decrease strictly")
    return x, float(err.max(initial=0.0))


def classical_locations(
    spec: Spectrum,
    params: ModelParams,
    j_max: int,
    edge: EdgeData,
    cfg: SolverConfig | None = None,
) -> QuantileTable:
    """Table of the top j_max classical locations for t > 0.

    gamma_1 is the edge exactly, and each deeper location's right mass is
    (j-1)/p within quad_error.  A walk that reaches no root raises SolverError.
    """
    if not (1 <= j_max <= params.p):
        raise ValueError(f"j_max must lie in [1, p], got {j_max}")
    targets = (np.arange(1, j_max + 1) - 1.0) / params.p
    gamma, quad_error = _locations(spec, params, edge, targets, cfg or SolverConfig())
    gamma.flags.writeable = False
    return QuantileTable(gamma=gamma, j_max=j_max, quad_error=quad_error)


def eta_lower(params: ModelParams, kappa: float) -> float:
    """Local scale eta_l: the root of f(eta) = n * eta * (t + sqrt(kappa + eta)) - 1.

    f is increasing and convex on eta >= 0, and f(1) >= n - 1 >= 0, so
    Newton from eta = 1 falls monotonically to the root; the solve ends
    when a step no longer lowers eta, which leaves eta within rounding of it.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    n, t = params.n, params.t
    eta = 1.0
    for _ in range(_ETA_STEPS):
        s = np.sqrt(kappa + eta)
        new = eta - (n * eta * (t + s) - 1.0) / (n * (t + s + eta / (2.0 * s)))
        if not new < eta:
            break
        eta = new
    return float(eta)


def in_domain(
    params: ModelParams,
    edge: EdgeData,
    z: complex,
    vartheta: float,
) -> bool:
    """Membership in the spectral domain where the local laws are asserted.

    The domain has a main part reaching 0.375 lambda_plus inside the
    spectrum and an outside flank as wide with a weaker eta floor; both
    cap eta at 10.
    """
    if not (0 < vartheta < 1):
        raise ValueError("vartheta must lie in (0, 1)")
    E, eta = z.real, z.imag
    if not 0 < eta <= 10.0:
        return False
    lam, t, n = edge.lambda_plus, params.t, params.n
    kappa = abs(E - lam)
    floor = float(n) ** vartheta
    main = (
        lam - 0.375 * lam <= E
        and E <= lam + t * t / vartheta
        and n * eta * (t + np.sqrt(kappa + eta)) >= floor
    )
    outside = (
        lam <= E <= lam + 0.375 * lam
        and n * eta * np.sqrt(kappa + eta) >= floor
    )
    return bool(main or outside)


def write_quantile_csv(path, table: QuantileTable, params: ModelParams, edge: EdgeData) -> None:
    lam = edge.lambda_plus
    with open(path, "w") as fh:
        fh.write("j,gamma_j,kappa_j,eta_l_j\n")
        for idx in range(table.j_max):
            kappa = lam - float(table.gamma[idx])
            fh.write(
                f"{idx + 1},{table.gamma[idx]:.17g},{kappa:.17g},"
                f"{eta_lower(params, kappa):.17g}\n"
            )
