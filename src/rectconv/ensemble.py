"""Monte-Carlo side: noise sampling, trial records, and quadratic forms.

Sampling is counter-based: a trial's matrix is a pure function of
(seed, i, j), with entry (i, j) consuming exactly the (i*n + j)-th
uniform of a Philox stream keyed by the seed.  Gaussian entries go
through the inverse normal CDF rather than rejection sampling precisely
to keep that bijection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .freeconv import ConvolutionPoint
from .spectrum import ModelParams, Spectrum

__all__ = [
    "NOISE_KINDS",
    "TrialRecord",
    "derive_seed",
    "sample_noise",
    "noise_entry",
    "assemble_Wt",
    "singular_values_sq",
    "run_trial",
    "pi_apply",
    "pi_quadratic_form",
    "pi_split_norm",
    "resolvent_quadratic_form",
]

NOISE_KINDS = ("gaussian", "rademacher", "trinary")

_M64 = (1 << 64) - 1


@dataclass(frozen=True)
class TrialRecord:
    """One simulated draw: eigenvalues of the noisy sample covariance.

    Vectors are populated only when an experiment asks for them:
    left_vectors U (p x p) are the eigenvectors of Y Y^T, ordered like
    singular_values_sq, and matrix is the trial's p x n matrix Y itself.
    Every use of the right singular vectors needs only s V^T x = U^T (Y x),
    so V is not stored; right_vectors derives it on access.
    """

    seed: int
    kind: str
    singular_values_sq: np.ndarray
    left_vectors: np.ndarray | None = None
    matrix: np.ndarray | None = None

    @property
    def right_vectors(self) -> np.ndarray | None:
        """V = Y^T U / s (n x p), s = sqrt(singular_values_sq), so Y = U diag(s) V^T.

        Derived from one product on every access; None without vectors.  A
        column is 0 where s = 0; where s sits at the Gram matrix's rounding
        level (a rank-deficient Y) it is not a unit vector, but s * v = Y^T u
        holds in every column.
        """
        if self.left_vectors is None or self.matrix is None:
            return None
        s = np.sqrt(self.singular_values_sq)
        V = self.matrix.T @ self.left_vectors
        V /= np.where(s > 0.0, s, np.inf)
        return V


def _splitmix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def derive_seed(base_seed: int, stream: int, index: int) -> int:
    """Collision-resistant per-trial seed from (base, stream, trial index)."""
    h = _splitmix(base_seed & _M64)
    h = _splitmix(h ^ _splitmix(stream & _M64))
    h = _splitmix(h ^ _splitmix(index & _M64))
    return h


def _uniforms(seed: int, count: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=seed))
    u = gen.random(count)
    # an exact 0 would map to -inf under the inverse CDF
    return np.maximum(u, 1e-300, out=u)


def _map_uniforms(u: np.ndarray, kind: str, n: int) -> np.ndarray:
    """Entries of variance 1/n from uniforms; the gaussian map overwrites u."""
    root = 1.0 / np.sqrt(n)
    if kind == "gaussian":
        from scipy.special import ndtri

        ndtri(u, out=u)
        u *= root
        return u
    if kind == "rademacher":
        return np.where(u < 0.5, -root, root)
    if kind == "trinary":
        amp = np.sqrt(3.0) * root
        return ((u >= 5.0 / 6.0).view(np.int8) - (u < 1.0 / 6.0).view(np.int8)) * amp
    raise ValueError(f"unknown noise kind {kind!r}; choose from {NOISE_KINDS}")


def sample_noise(params: ModelParams, kind: str, seed: int) -> np.ndarray:
    """p x n noise matrix with iid entries of variance 1/n and zero odd moments."""
    p, n = params.p, params.n
    u = _uniforms(seed, p * n).reshape(p, n)
    return _map_uniforms(u, kind, n)


def noise_entry(params: ModelParams, kind: str, seed: int, i: int, j: int) -> float:
    """Entry (i, j) regenerated in isolation from the counter position i*n + j."""
    pos = i * params.n + j
    bg = np.random.Philox(key=seed)
    # advance() moves whole 128-bit counter blocks, 4 doubles apiece
    bg.advance(pos // 4)
    u = np.random.Generator(bg).random(pos % 4 + 1)[-1:]
    u = np.maximum(u, 1e-300)
    return float(_map_uniforms(u, kind, params.n)[0])


def assemble_Wt(spec: Spectrum, params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Signal-plus-noise matrix: rectangular diagonal sqrt(d_i) plus sqrt(t) X."""
    if spec.p != params.p:
        raise ValueError("spectrum size does not match params.p")
    if X.shape != (params.p, params.n):
        raise ValueError(f"noise shape {X.shape} != {(params.p, params.n)}")
    W = np.zeros((params.p, params.n))
    W[np.arange(params.p), np.arange(params.p)] = np.sqrt(spec.values)
    return W + np.sqrt(params.t) * X


def _signal_plus_noise(spec: Spectrum, params: ModelParams, kind: str, seed: int) -> np.ndarray:
    """assemble_Wt of the trial's noise, built in the noise's own buffer.

    X *= sqrt(t) and then sqrt(d_i) added on the diagonal give assemble_Wt's
    bits, the sign of zero included: off the diagonal 0 + y is y, and no
    noise map yields -0.0.  At t = 0 the noise is zeroed instead, since
    0 * x keeps a negative x's sign where assemble_Wt's 0 + 0 * x does not.
    It saves a p x n zero matrix and a scaled copy.
    """
    if spec.p != params.p:
        raise ValueError("spectrum size does not match params.p")
    Y = sample_noise(params, kind, seed)
    if params.t > 0.0:
        Y *= np.sqrt(params.t)
    else:
        Y.fill(0.0)
    diag = np.arange(params.p)
    Y[diag, diag] += np.sqrt(spec.values)
    return Y


def singular_values_sq(Y: np.ndarray) -> np.ndarray:
    """Eigenvalues of Y Y^T, descending and clipped at 0, from the Gram matrix.

    Forming Y Y^T costs each eigenvalue an absolute error of about
    (p + n) * eps * lambda_1, which is a small relative error only for the
    top of the spectrum; every caller reads the top eigenvalues alone.
    The clip keeps rounding from turning an eigenvalue at 0 (a rank-deficient
    Y) negative.
    """
    return np.maximum(np.linalg.eigvalsh(Y @ Y.T)[::-1], 0.0)


def _factor(Y: np.ndarray):
    """(lam, U) of Y from one eigh of the Gram matrix Y Y^T.

    lam descends and is clipped at 0 like singular_values_sq.  The right
    vectors are not formed: the trial keeps Y instead (see TrialRecord).
    """
    lam, U = np.linalg.eigh(Y @ Y.T)
    return np.maximum(lam[::-1], 0.0), np.ascontiguousarray(U[:, ::-1])


def run_trial(
    spec: Spectrum,
    params: ModelParams,
    kind: str,
    seed: int,
    want_vectors: bool = False,
) -> TrialRecord:
    """Sample one trial and factor it by the Gram route.

    Every trial takes one symmetric eigensolve of the p x p matrix Y Y^T:
    eigenvalues only, or with vectors as well, in which case the record
    keeps the left vectors U and Y itself, and no right vectors are
    formed (see TrialRecord).  No trial factors the p x n matrix Y.  Y is
    assembled in the noise's buffer, with assemble_Wt's bits.  A values-only
    trial is a stack of one (_values_trials), as experiment streams take them.
    """
    if not want_vectors:
        return _values_trials(spec, params, kind, [seed])[0]
    Y = _signal_plus_noise(spec, params, kind, seed)
    lam, U = _factor(Y)
    return TrialRecord(seed=seed, kind=kind, singular_values_sq=lam, left_vectors=U, matrix=Y)


def _values_trials(spec: Spectrum, params: ModelParams, kind: str, seeds) -> list:
    """run_trial(spec, params, kind, seed) for each seed, from one stacked eigvalsh.

    Each trial's Gram matrix Y Y^T goes into a (k, p, p) stack as soon as
    Y is sampled, so no Y outlives its product, and one eigvalsh solves
    the stack.  The stack is what lets pool threads run in parallel:
    numpy's eigvalsh releases the GIL only when (matrices x p) exceeds 500,
    so a single 150 x 150 solve holds it throughout.  LAPACK solves each
    matrix of the stack on its own, so the eigenvalues are run_trial's
    bit for bit.
    """
    grams = np.empty((len(seeds), params.p, params.p))
    for gram, seed in zip(grams, seeds):
        Y = _signal_plus_noise(spec, params, kind, seed)
        np.matmul(Y, Y.T, out=gram)
    lam = np.maximum(np.linalg.eigvalsh(grams)[:, ::-1], 0.0)
    return [TrialRecord(seed=seed, kind=kind, singular_values_sq=row) for seed, row in zip(seeds, lam)]


# ---------------------------------------------------------------------------
# deterministic equivalent


def _pi_blocks(spec: Spectrum, params: ModelParams, point: ConvolutionPoint):
    z = point.z
    B = point.b
    B_under = 1.0 + params.t * point.m_under
    den = z * B * B_under - spec.values  # per signal index
    den0 = z * B * B_under  # pure-noise indices
    return z, B, B_under, den, den0


def pi_apply(spec: Spectrum, params: ModelParams, point: ConvolutionPoint, vec: np.ndarray) -> np.ndarray:
    """Apply the deterministic equivalent matrix to a (p+n)-vector.

    The matrix is a direct sum of 2x2 blocks coupling signal index i with
    noise index p+i, plus scalars on the remaining pure-noise indices, so
    the product costs O(p + n).
    """
    p, n = params.p, params.n
    if vec.shape != (p + n,):
        raise ValueError(f"vector must have length p+n={p + n}")
    z, B, B_under, den, den0 = _pi_blocks(spec, params, point)
    rz = 1.0 / np.sqrt(np.asarray(z, dtype=complex))
    sd = np.sqrt(spec.values)
    u1 = vec[:p]
    u2 = vec[p:]
    out = np.empty(p + n, dtype=complex)
    out[:p] = -(B * u1 + rz * sd * u2[:p]) / den
    out[p : 2 * p] = -(rz * sd * u1 + B_under * u2[:p]) / den
    out[2 * p :] = -B_under * u2[p:] / den0
    return out


def pi_quadratic_form(
    spec: Spectrum,
    params: ModelParams,
    point: ConvolutionPoint,
    u: np.ndarray,
    v: np.ndarray,
) -> complex:
    """Bilinear form u^T Pi(z) v for unit vectors (transpose, not conjugate)."""
    for w in (u, v):
        if abs(np.linalg.norm(w) - 1.0) > 1e-8:
            raise ValueError("quadratic-form vectors must be unit norm")
    return complex(u @ pi_apply(spec, params, point, v))


def pi_split_norm(spec: Spectrum, params: ModelParams, point: ConvolutionPoint, u: np.ndarray) -> float:
    """||Pi (u1, 0)|| + ||Pi (0, u2)||, the norm weight in anisotropic bounds."""
    p, n = params.p, params.n
    top = np.concatenate([u[:p], np.zeros(n)])
    bot = np.concatenate([np.zeros(p), u[p:]])
    return float(
        np.linalg.norm(pi_apply(spec, params, point, top))
        + np.linalg.norm(pi_apply(spec, params, point, bot))
    )


def resolvent_quadratic_form(record: TrialRecord, z, u: np.ndarray, v: np.ndarray):
    """u^T G(z) v for the linearized resolvent, from the trial's factorization.

    z is a scalar, which gives a complex, or a 1-d array, which gives an
    array; every z needs Im z != 0.  With (a1, b1) = U^T (u1, v1), the
    projections of the top blocks, and (y_u, y_v) = U^T Y (u2, v2), the
    lower blocks projected through Y (equal to s V^T (u2, v2)), the block
    identities give the division-free form

        sum_k [a1 b1 + z^(-1/2) (a1 y_v + y_u b1) + y_u y_v / z] / (lam_k - z)
            - u2 . v2 / z,

    where the last term is the pure-noise kernel of the lower block.  No
    1/s appears, so the form is exact where s_k = 0; neither the right
    vectors nor a dense inverse is formed.
    """
    if record.left_vectors is None or record.matrix is None:
        raise ValueError("trial record lacks singular vectors; rerun with want_vectors")
    U = record.left_vectors
    Y = record.matrix
    lam = record.singular_values_sq
    p, n = Y.shape
    if u.shape != (p + n,) or v.shape != (p + n,):
        raise ValueError(f"vectors must have length p+n={p + n}")
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise ValueError("z must be a scalar or a 1-d array")
    if np.any(zs.imag == 0):
        raise ValueError("resolvent evaluation needs Im z != 0")
    za = np.atleast_1d(zs)
    a1, b1, y_u, y_v = np.vstack([u[:p], v[:p], np.stack([u[p:], v[p:]]) @ Y.T]) @ U
    rz = 1.0 / np.sqrt(za)
    sums = np.stack([a1 * b1, a1 * y_v + y_u * b1, y_u * y_v]) @ (1.0 / (lam[:, None] - za[None, :]))
    qf = sums[0] + rz * sums[1] + (sums[2] - u[p:] @ v[p:]) / za
    return complex(qf[0]) if zs.ndim == 0 else qf
