"""Symplectic algebra for Gaussian states.

Shot-noise units throughout: the vacuum has quadrature variance 1 and the
quadrature commutator is [Y_l, Y_m] = 2i Omega_lm. Quadratures are ordered
(Q1, P1, ..., Qn, Pn). Entropic quantities are in bits (base-2 logarithms);
callers that want nats convert once, at the output.

Covariance matrices are plain symmetric numpy arrays; a spectrum takes one
or a stack of them. Displacements play no role in any entropic quantity, so
the callers that need them track them.
Conditioning on a measurement is a Schur complement (`conditional_cov`); on
Alice's encoding it needs none (`key_rates.JointMoments.given_alice`).
"""

from __future__ import annotations

import math

import numpy as np

SYMMETRY_TOL = 1e-10
PHYSICALITY_TOL = 1e-9
PAIRING_TOL = 1e-8
_LN2 = math.log(2.0)
_SWAP_SIGN = np.array([[1.0], [-1.0]])   # V's (Q, P) row pair is (P, -Q) in Omega @ V

# Entries of Z / I used in two-mode blocks.
I2 = np.eye(2)
Z2 = np.diag([1.0, -1.0])


class NumericalFailure(RuntimeError):
    """A numeric check failed on valid arguments (a bracket, monotonicity, a
    closed form, a spectrum of the exact engine's own matrices, or a fit):
    the CLI exits 3, and 2 on a ValueError, a bad argument."""


def symplectic_eigenvalues(cm) -> np.ndarray:
    """Williamson eigenvalues of one 2n x 2n covariance matrix, descending, or
    of each matrix of a (k, 2n, 2n) stack, as a (k, n) array.

    Computed as the moduli of the eigenvalues of Omega @ V, which come in
    +/- pairs for a symmetric V; the pairs are deduplicated. Omega @ V is V
    with each (Q, P) row pair swapped and the P rows negated, zeros as +0.0
    like a matrix product's. Each matrix is checked against its own scale:
    one that is not finite and symmetric, or fails the +/- pairing beyond
    tolerance (a broken CM), raises ValueError for the whole call.
    """
    mat = np.asarray(cm, dtype=float)
    if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2] or mat.shape[-1] % 2:
        raise ValueError(f"covariance matrix must be 2n x 2n, got {mat.shape}")
    abs_mat = np.abs(mat)
    # each matrix's own largest entry, NaN or inf unless the matrix is finite
    amax = abs_mat.max(axis=(-2, -1), keepdims=True)
    atol = SYMMETRY_TOL * np.maximum(1.0, amax)
    if not ((amax < math.inf).all()
            and (np.abs(mat - mat.swapaxes(-1, -2))
                 <= atol + 1e-5 * abs_mat.swapaxes(-1, -2)).all()):
        raise ValueError("covariance matrix is not symmetric or not finite")
    row_pairs = mat.reshape(*mat.shape[:-2], -1, 2, mat.shape[-1])
    om_v = (row_pairs[..., ::-1, :] * _SWAP_SIGN).reshape(mat.shape) + 0.0   # +0.0 zeros
    moduli = np.sort(np.abs(np.linalg.eigvals(om_v)))
    # descending: the larger and the smaller modulus of each +/- pair
    a, b = moduli[..., ::-2], moduli[..., -2::-2]
    # tol[..., :1] is PAIRING_TOL times max(1, each matrix's largest modulus)
    tol = PAIRING_TOL * np.maximum(1.0, a)
    unpaired = np.abs(a - b) > tol + tol[..., :1]
    if unpaired.any():
        k = np.unravel_index(np.argmax(unpaired), unpaired.shape)
        raise ValueError(f"eigenvalues of Omega V fail +/- pairing "
                         f"({a[k]} vs {b[k]}): broken CM")
    return a


def g_entropy(nu: float | np.ndarray) -> float | np.ndarray:
    """Bosonic entropy g(nu) of a single symplectic eigenvalue.

    g(nu) = a log2 a - b log2 b with a = (nu+1)/2, b = (nu-1)/2, in bits.
    It is evaluated as log2(a) + b log1p(1/b) / ln 2, which is the same
    since a = b + 1, but keeps full precision at large nu, where the
    difference form cancels two terms of size nu log2 nu.
    g(1) = 0 (pure-state limit), with a guard band just above 1 to avoid
    evaluating log(0). An ndarray gives the elementwise array.
    """
    if isinstance(nu, np.ndarray):
        if np.any(nu < 1.0 - PHYSICALITY_TOL):
            raise ValueError(f"symplectic eigenvalue must be >= 1, got {np.nanmin(nu)}")
        pure = nu <= 1.0 + 1e-12
        b = np.where(pure, 1.0, (nu - 1.0) / 2.0)
        return np.where(pure, 0.0, np.log2((nu + 1.0) / 2.0)
                        + b * np.log1p(1.0 / b) / _LN2)
    if nu < 1.0 - PHYSICALITY_TOL:
        raise ValueError(f"symplectic eigenvalue must be >= 1, got {nu}")
    if nu <= 1.0 + 1e-12:
        return 0.0
    a = (nu + 1.0) / 2.0
    b = (nu - 1.0) / 2.0
    return math.log2(a) + b * math.log1p(1.0 / b) / _LN2


def spectrum_entropies(nus: np.ndarray) -> list[float]:
    """Von Neumann entropy of each row of a (k, n) symplectic spectrum: the
    sum of g over the row, left to right. Eigenvalues marginally below 1
    from floating-point noise are clamped."""
    return [float(sum(g_entropy(max(nu, 1.0)) for nu in row)) for row in nus.tolist()]


def von_neumann_entropy(cm) -> float:
    """Von Neumann entropy of a Gaussian state: sum of g over the spectrum.

    One matrix only: a stack raises ValueError.
    """
    if np.ndim(cm) != 2:
        raise ValueError(f"covariance matrix must be 2n x 2n, got {np.shape(cm)}")
    return spectrum_entropies(symplectic_eigenvalues(cm)[None])[0]


def conditional_cov(sigma: np.ndarray, keep, obs_rows: np.ndarray,
                    obs_noise=None) -> np.ndarray:
    """Schur-complement conditioning of a joint Gaussian covariance.

    `sigma` is the covariance of a vector of jointly Gaussian variables
    (classical or quadrature, they condition identically at the level of
    second moments). The observed quantities are obs_rows @ y plus optional
    independent Gaussian noise with covariance `obs_noise`; the returned
    matrix is the covariance of the `keep` variables given the observation.
    Rank-deficient observations are handled by pseudo-inversion. A stack
    of covariances (..., n, n), with rows and noise stacked alike or shared,
    is conditioned matrix by matrix.
    """
    sigma = np.asarray(sigma, dtype=float)
    keep = np.asarray(keep, dtype=int)
    obs_rows = np.atleast_2d(np.asarray(obs_rows, dtype=float))
    rows_t = np.swapaxes(obs_rows, -1, -2)
    s_obs = obs_rows @ sigma @ rows_t
    if obs_noise is not None:
        s_obs = s_obs + np.atleast_2d(obs_noise)
    cross = sigma[..., keep, :] @ rows_t
    out = (sigma[..., keep[:, None], keep]
           - cross @ np.linalg.pinv(s_obs) @ np.swapaxes(cross, -1, -2))
    return 0.5 * (out + np.swapaxes(out, -1, -2))
