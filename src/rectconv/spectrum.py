"""Signal spectra and model bookkeeping.

A spectrum is the sorted list of eigenvalues of the noiseless signal
covariance; everything downstream (transforms, edges, quantiles) consumes
the immutable containers defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "ModelParams",
    "make_spectrum",
    "canonical_sqrt_spectrum",
    "spectrum_from_text",
]


@dataclass(frozen=True)
class Spectrum:
    """Nonnegative signal eigenvalues in descending order.

    The values array is owned by the instance and must not be mutated.
    """

    values: np.ndarray

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def top(self) -> float:
        return float(self.values[0])


@dataclass(frozen=True)
class ModelParams:
    """Dimensions and noise level for the p x n additive-noise model."""

    p: int
    n: int
    t: float

    def __post_init__(self) -> None:
        if not (1 <= self.p <= self.n):
            raise ValueError(f"need 1 <= p <= n, got p={self.p}, n={self.n}")
        if not (self.t >= 0.0 and np.isfinite(self.t)):
            raise ValueError(f"noise level t must be finite and >= 0, got {self.t}")

    @property
    def c_n(self) -> float:
        return self.p / self.n


def make_spectrum(values) -> Spectrum:
    """Validate and sort eigenvalues into a Spectrum.

    Accepts any iterable of nonnegative finite reals; sorting is descending.
    Idempotent on already-sorted input.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("spectrum must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("spectrum contains non-finite entries")
    if np.any(arr < 0):
        raise ValueError("spectrum contains negative entries")
    out = np.sort(arr)[::-1].copy()
    out.flags.writeable = False
    return Spectrum(values=out)


def canonical_sqrt_spectrum(p: int, edge: float) -> Spectrum:
    """Deterministic spectrum whose counting measure has a square-root profile.

    d_i = edge * (1 - ((i-1)/p)^(2/3)) for i = 1..p, so the number of
    atoms within x of the top behaves like p * (x/edge)^(3/2).
    """
    if p < 2:
        raise ValueError("canonical spectrum needs p >= 2")
    if not (edge > 0):
        raise ValueError("edge must be positive")
    i = np.arange(p, dtype=float)
    return make_spectrum(edge * (1.0 - (i / p) ** (2.0 / 3.0)))


def spectrum_from_text(text: str) -> Spectrum:
    vals = [float(line) for line in text.split("\n") if line.strip()]
    return make_spectrum(vals)
