"""Classical eigenvalue locations and the local comparison scale.

The j-th location gamma_j puts mass (j-1)/p to its right under the
noise-convolved density; the top location is pinned to the edge itself.
On each support component [l, r], E = l + (r-l) cos^2(theta/2) makes the
mass element rho(E) (r-l)/2 sin(theta) smooth in theta at square-root and
hard edges alike.  Chebyshev panels in theta integrate it, summed from the
top edge down, and each location is a root of one panel's antiderivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .edge import _ROOT_XTOL, EdgeData, _bracketed_newton
from .freeconv import SolverConfig, SolverError, _support, density_curve
from .spectrum import ModelParams, Spectrum

__all__ = [
    "QuantileTable",
    "classical_locations",
    "eta_lower",
    "in_domain",
    "write_quantile_csv",
]

# Panels: first-kind Chebyshev nodes (never an edge), and the panels a
# component starts with and an open panel splits into.  The density meets
# its residual tolerance, not rounding, so a panel closes once its last
# three coefficients fall below _TAIL_NOISE tolerances of its component's
# largest first-round coefficient.  The quadrature gives up past _ROUNDS
# rounds or past _MAX_NODES nodes in one round.
_NODES = 32
_SPLIT = 4
_TAIL_NOISE = 100.0
_ROUNDS = 16
_MAX_NODES = 2**18
_NODE_S = cheb.chebpts1(_NODES)
_TO_COEF = np.linalg.inv(cheb.chebvander(_NODE_S, _NODES - 1)).T  # node values -> coefficients
_ETA_STEPS = 100  # Newton steps for eta_l; n = 1e15 needs 27


@dataclass(frozen=True)
class QuantileTable:
    """Descending classical locations gamma_1 > ... > gamma_{j_max}.

    quad_error estimates the mass's error: the sum over the panels of
    width times the largest of their last three Chebyshev coefficients.
    """

    gamma: np.ndarray
    j_max: int
    quad_error: float


def _locations(spec, params, edge, targets, cfg):
    """(locations with right mass `targets`, in target order; quad_error).

    Each round is one density_curve call on the nodes of all open panels,
    which are replaced in place by their parts.  A target within quad_error
    of the mass down to a component's end is that component's left edge.
    Neither the panels nor a root depend on the other targets.
    """
    if params.t <= 0:
        raise ValueError("classical locations need t > 0")
    targets = np.asarray(targets, dtype=float)
    if targets.size == 0 or targets.min() < 0 or targets.max() >= 1:
        raise ValueError("right-mass targets must lie in [0, 1)")

    rows = _support(spec.values, params.c_n, params.t, edge)[::-1]  # (l, r, ...), top first
    comp = np.repeat(np.arange(rows.shape[0]), _SPLIT)
    width = np.full(comp.size, np.pi / _SPLIT)
    lo = np.arange(comp.size) % _SPLIT * width
    coef, todo = np.zeros((comp.size, _NODES)), np.ones(comp.size, dtype=bool)
    for rounds in range(1, _ROUNDS + 1):
        theta = (lo + 0.5 * width)[todo, None] + 0.5 * width[todo, None] * _NODE_S
        left, right = rows[comp[todo], 0][:, None], rows[comp[todo], 1][:, None]
        rho = density_curve(spec, params, (left + (right - left) * np.cos(0.5 * theta) ** 2).ravel(), cfg)
        coef[todo] = (rho.reshape(theta.shape) * (0.5 * (right - left)) * np.sin(theta)) @ _TO_COEF
        tail = np.abs(coef[:, -3:]).max(axis=1)
        if rounds == 1:
            bound = _TAIL_NOISE * cfg.tolerance * np.abs(coef).reshape(-1, _SPLIT * _NODES).max(axis=1)
        todo = ~(tail <= bound[comp])  # a nan density keeps its panel open
        if not todo.any():
            break
        if rounds == _ROUNDS or _SPLIT * _NODES * np.count_nonzero(todo) > _MAX_NODES:
            i = np.argmax(todo)
            raise SolverError(
                f"quantile quadrature unresolved after {rounds} rounds: component {comp[i]} from the top, "
                f"theta in [{lo[i]:.9g}, {lo[i] + width[i]:.9g}], tail {tail[i]:.3g} above {bound[comp[i]]:.3g}"
            )
        parts = np.where(todo, _SPLIT, 1)
        first = np.repeat(np.cumsum(parts) - parts, parts)
        width = np.repeat(width / parts, parts)
        lo = np.repeat(lo, parts) + (np.arange(first.size) - first) * width
        comp, coef, todo = np.repeat(comp, parts), np.repeat(coef, parts, axis=0), np.repeat(todo, parts)

    quad_error = float(np.sum(width * tail))
    anti = cheb.chebint(coef, lbnd=-1.0, axis=1) * (0.5 * width)[:, None]
    end = np.cumsum(anti.sum(axis=1))
    start = np.append(0.0, end[:-1])
    comp_end = end[np.flatnonzero(np.diff(np.append(comp, rows.shape[0])))]
    if targets.max() > comp_end[-1] + quad_error:
        raise SolverError(f"quantile mass: found {comp_end[-1]:.6g}, requested {targets.max():.6g}")

    def mass(theta, i, tau):
        s = 2.0 * (theta - lo[i]) / width[i] - 1.0
        f = start[i] + cheb.chebval(s, anti[i].T, tensor=False) - tau
        return f, cheb.chebval(s, coef[i].T, tensor=False), f < 0.0

    k = np.searchsorted(comp_end, targets - quad_error)
    at_left = np.abs(comp_end[k] - targets) <= quad_error
    inner = (targets > 0) & ~at_left
    i = np.searchsorted(end, targets[inner])
    theta = _bracketed_newton(mass, lo[i], lo[i] + width[i], _ROOT_XTOL, i, targets[inner])
    x = np.where(at_left, rows[k, 0], edge.lambda_plus)
    x[inner] = rows[comp[i], 0] + (rows[comp[i], 1] - rows[comp[i], 0]) * np.cos(0.5 * theta) ** 2

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

    gamma_1 is the edge exactly; each deeper location's right mass, by
    Chebyshev panels on the support components, is (j-1)/p within
    quad_error.  Missing mass or unresolved panels raise SolverError.
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

    def f(eta: float) -> float:
        return n * eta * (t + np.sqrt(kappa + eta)) - 1.0

    eta = 1.0
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
