"""Stieltjes transform of a discrete spectrum and its derivatives.

Everything here is a direct O(p) sum over atoms, written once in
`_atom_sums`; `_phi` builds the inverse subordination map and its
derivatives on top of it.  Callers pass arrays of evaluation points, and
each point gets the bits it gets alone.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .spectrum import Spectrum

__all__ = ["AtomCollisionError", "m_v", "m_v_derivative"]

_GUARD = 1e-14
# Elements of one (points x atoms) block in _atom_sums: 128 KiB real,
# 256 KiB complex.  Blocks this small stay in cache and are mostly reused
# from malloc's heap; blocks of megabytes are mapped afresh and
# page-faulted in on every call.
_CHUNK = 16_384


class AtomCollisionError(ValueError):
    """Evaluation point indistinguishable from a spectrum atom."""


def _check_distance(spec: Spectrum, zeta: np.ndarray) -> None:
    # the atoms are real, so the nearest one to zeta is a neighbour of
    # Re zeta in the ascending atoms
    z, asc = np.ravel(zeta), spec.values[::-1]
    i = np.searchsorted(asc, z.real)
    above, below = asc[np.minimum(i, asc.size - 1)], asc[np.maximum(i - 1, 0)]
    dist = np.minimum(np.abs(above - z), np.abs(below - z))
    if np.any(dist < _GUARD * np.maximum(1.0, np.abs(z))):
        raise AtomCollisionError("evaluation point collides with a spectrum atom")


def _atom_sums(d: np.ndarray, zeta: np.ndarray, order: int) -> np.ndarray:
    """Rows mean (d - zeta)^-(k+1) for k = 0..order, from one atom-sum pass.

    zeta is 1-d; the result has its dtype (real on the ray zeta > max(d),
    complex off the axis).  No atom-collision guard.  Powers are formed by
    products on chunks of (points, atoms) blocks, and each point sums its
    own row, which numpy sums pairwise: O(log p) roundings, and the same
    bits whatever the batch width or chunking.  Each order's row sums go
    straight into the output, and each chunk is divided by p once.
    """
    k, p = zeta.shape[0], d.shape[0]
    out = np.empty((order + 1, k), dtype=np.result_type(zeta, float))
    stride = max(1, _CHUNK // p)
    for lo in range(0, k, stride):
        block = out[:, lo : lo + stride]
        inv = 1.0 / (d - zeta[lo : lo + stride, None])
        power = inv
        for j in range(order + 1):
            if j:
                power = power * inv
            np.add.reduce(power, axis=1, out=block[j])
        # sum / count is the arithmetic of mean(), without its per-call overhead
        block /= p
    return out


def _phi(d: np.ndarray, c: float, t: float, zeta, order: int = 0):
    """Phi, its first `order` zeta-derivatives (order <= 3), and m_v at zeta.

    Phi(zeta) = zeta g^2 + (1-c) t g with g = 1 - c t m_v(zeta) is the
    inverse subordination map.  Returns [Phi, Phi', ..., m_v] in the shape
    of zeta, with its dtype; a scalar zeta gives numpy scalars.
    """
    z = np.asarray(zeta)
    sums = _atom_sums(d, z.reshape(-1), order).reshape((order + 1,) + z.shape)
    mv = sums[0]
    g = 1.0 - c * t * mv
    out = [z * g * g + (1.0 - c) * t * g]
    if order >= 1:
        g1 = -c * t * sums[1]
        out.append(g * g + 2.0 * z * g * g1 + (1.0 - c) * t * g1)
    if order >= 2:
        g2 = -c * t * (2.0 * sums[2])
        out.append(4.0 * g * g1 + 2.0 * z * g1 * g1 + 2.0 * z * g * g2 + (1.0 - c) * t * g2)
    if order >= 3:
        g3 = -c * t * (6.0 * sums[3])
        out.append(6.0 * (g1 * g1 + g * g2 + z * g1 * g2) + 2.0 * z * g * g3 + (1.0 - c) * t * g3)
    out.append(mv)
    return out


def m_v(spec: Spectrum, zeta):
    """Average resolvent trace (1/p) sum_i 1/(d_i - zeta) of the bare spectrum.

    Herglotz on the upper half plane: Im m_v > 0 when Im zeta > 0.  Accepts
    a scalar or ndarray of evaluation points away from the atoms.
    """
    z = np.asarray(zeta, dtype=complex)
    _check_distance(spec, z)
    out = _atom_sums(spec.values, z.reshape(-1), 0)[0]
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def m_v_derivative(spec: Spectrum, zeta, order: int):
    """k-th derivative of m_v, k in {1, 2, 3}: (k!/p) sum_i (d_i - zeta)^-(k+1)."""
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2, or 3, got {order}")
    z = np.asarray(zeta, dtype=complex)
    _check_distance(spec, z)
    out = factorial(order) * _atom_sums(spec.values, z.reshape(-1), order)[order]
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)
