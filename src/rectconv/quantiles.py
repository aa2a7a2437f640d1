"""Classical eigenvalue locations and the local comparison scale.

The j-th location gamma_j puts mass (j-1)/p to its right under the
noise-convolved density; the top location is pinned to the edge itself.
The cumulative mass is integrated in the variable u = sqrt(lambda_+ - E),
which removes the square-root singularity at the edge, and cached as a
monotone spline before the per-j root solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edge import EdgeData
from .freeconv import SolverConfig, SolverError, density_curve
from .spectrum import ModelParams, Spectrum

__all__ = [
    "QuantileTable",
    "classical_locations",
    "eta_lower",
    "in_domain",
    "write_quantile_csv",
]

_GRID_POINTS = 2001  # odd, so every other point is the nested coarse grid
_ETA_STEPS = 100  # Newton steps for eta_l; n = 1e15 needs 27


@dataclass(frozen=True)
class QuantileTable:
    """Descending classical locations gamma_1 > ... > gamma_{j_max}."""

    gamma: np.ndarray
    j_max: int
    quad_error: float


def _mass_spline(spec, params, lam_plus, u_max, cfg):
    """Cumulative mass C(u) of the density below the edge, u = sqrt(lam - E).

    Returns the spline on the full grid and on every other grid point;
    the coarse one prices the integration error without new solves.
    """
    from scipy.interpolate import PchipInterpolator

    u = np.linspace(0.0, u_max, _GRID_POINTS)
    E = lam_plus - u * u
    rho = np.zeros(_GRID_POINTS)
    # the density vanishes for E <= 0; only query positive energies
    pos = E > 1e-300
    rho[pos] = density_curve(spec, params, E[pos], cfg)
    g = 2.0 * u * rho
    fine = PchipInterpolator(u, g).antiderivative()
    coarse = PchipInterpolator(u[::2], g[::2]).antiderivative()
    return fine, coarse


def _locations(spec, params, edge, targets, cfg):
    """Locations with right mass `targets` under the density, in target order.

    A zero target is the edge itself.  The cumulative-mass spline covers
    the largest target and is solved near each target; the returned error
    is a grid-halving estimate of the integration error, against which
    each location's defining identity can be re-checked.
    """
    from scipy.interpolate import PPoly

    if params.t <= 0:
        raise ValueError("classical locations need t > 0")
    targets = np.asarray(targets, dtype=float)
    if targets.size == 0 or targets.min() < 0 or targets.max() >= 1:
        raise ValueError("right-mass targets must lie in [0, 1)")
    lam = edge.lambda_plus

    # initial window from the square-root model, then extend until covered
    need = targets.max()
    if need > 0:
        A = edge.sqrt_coeff if np.isfinite(edge.sqrt_coeff) and edge.sqrt_coeff > 0 else 1.0
        kappa_est = (3.0 * need / (2.0 * A)) ** (2.0 / 3.0)
        u_max = min(np.sqrt(2.0 * kappa_est), np.sqrt(lam))
        u_max = max(u_max, np.sqrt(lam) * 1e-3)
    else:
        u_max = np.sqrt(lam) * 0.1

    for _ in range(24):
        C, C2 = _mass_spline(spec, params, lam, u_max, cfg)
        if C(u_max) >= need or u_max >= np.sqrt(lam) * (1 - 1e-12):
            break
        u_max = min(u_max * 1.5, np.sqrt(lam))
    if C(u_max) < need:
        raise SolverError(
            f"window exhausted: mass {float(C(u_max)):.6g} < requested {need:.6g}"
        )

    # C is nondecreasing, so the first root of C = tau lies in the piece
    # ending at the first breakpoint where C reaches tau; solving that piece
    # and its two neighbours finds the same smallest root as solving all
    knots = C(C.x)
    x = np.empty(targets.size)
    u_roots = np.zeros(targets.size)
    for idx, tau in enumerate(targets):
        if tau == 0:
            x[idx] = lam
            continue
        i = int(np.searchsorted(knots, tau))
        lo = max(i - 2, 0)
        near = PPoly.construct_fast(C.c[:, lo : i + 1], C.x[lo : i + 2])
        roots = near.solve(tau, extrapolate=False)
        roots = roots[(roots >= 0) & (roots <= u_max)]
        if roots.size == 0:
            raise SolverError(f"no root for quantile {idx + 1} (right mass {tau:.6g})")
        u_roots[idx] = roots.min()
        x[idx] = lam - u_roots[idx] ** 2

    # grid-halving error estimate from the nested coarse spline
    disc = max(
        (abs(float(C2(u_roots[idx])) - tau) for idx, tau in enumerate(targets) if tau > 0),
        default=0.0,
    )
    quad_error = max(4.0 * disc, 1e-9)

    if np.any(np.diff(x[np.argsort(targets, kind="stable")]) >= 0):
        raise SolverError("classical locations failed to decrease strictly")
    return x, quad_error


def classical_locations(
    spec: Spectrum,
    params: ModelParams,
    j_max: int,
    edge: EdgeData,
    cfg: SolverConfig | None = None,
) -> QuantileTable:
    """Table of the top j_max classical locations for t > 0.

    gamma_1 is the edge exactly; deeper locations come from root solves on
    the cached cumulative-mass spline.  quad_error is a grid-halving
    estimate of the integration error, against which the table's defining
    identity can be re-checked.
    """
    if not (1 <= j_max <= params.p):
        raise ValueError(f"j_max must lie in [1, p], got {j_max}")
    targets = (np.arange(1, j_max + 1) - 1.0) / params.p
    gamma, quad_error = _locations(spec, params, edge, targets, cfg or SolverConfig())
    gamma.flags.writeable = False
    return QuantileTable(gamma=gamma, j_max=j_max, quad_error=quad_error)


def eta_lower(params: ModelParams, kappa: float) -> float:
    """Local scale eta_l: the root of f(eta) = n * eta * (t + sqrt(kappa + eta)) - 1.

    f is increasing and convex on eta >= 0, so Newton from the first power
    of two with f >= 0 falls monotonically to the root; the solve ends when
    a step no longer lowers eta, which leaves eta within rounding of it.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    n, t = params.n, params.t

    def f(eta: float) -> float:
        return n * eta * (t + np.sqrt(kappa + eta)) - 1.0

    eta = 1.0
    while f(eta) < 0:
        eta *= 2.0
    for _ in range(_ETA_STEPS):
        s = np.sqrt(kappa + eta)
        new = eta - f(eta) / (n * (t + s + eta / (2.0 * s)))
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
    if eta <= 0:
        return False
    lam, t, n = edge.lambda_plus, params.t, params.n
    kappa = abs(E - lam)
    floor = float(n) ** vartheta
    main = (
        lam - 0.375 * lam <= E
        and (vartheta > 0 and E <= lam + t * t / vartheta)
        and n * eta * (t + np.sqrt(kappa + eta)) >= floor
        and eta <= 10.0
    )
    outside = (
        lam <= E <= lam + 0.375 * lam
        and n * eta * np.sqrt(kappa + eta) >= floor
        and eta <= 10.0
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
