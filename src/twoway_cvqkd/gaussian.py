"""Symplectic algebra for Gaussian states.

Shot-noise units throughout: the vacuum has quadrature variance 1 and the
quadrature commutator is [Y_l, Y_m] = 2i Omega_lm. Quadratures are ordered
(Q1, P1, ..., Qn, Pn). Entropic quantities are in bits (base-2 logarithms);
callers that want nats convert once, at the output.

Displacements play no role in any entropic quantity, so covariance matrices
are handled on their own and displacement vectors are tracked separately by
the callers that need them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

SYMMETRY_TOL = 1e-10
PHYSICALITY_TOL = 1e-9
PAIRING_TOL = 1e-8

# Entries of Z / I used in two-mode blocks.
I2 = np.eye(2)
Z2 = np.diag([1.0, -1.0])


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form: direct sum of n [[0, 1], [-1, 0]] blocks."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return direct_sum(*([block] * n_modes))


def direct_sum(*mats: np.ndarray) -> np.ndarray:
    """Block-diagonal direct sum of square matrices."""
    dims = [m.shape[0] for m in mats]
    out = np.zeros((sum(dims), sum(dims)))
    pos = 0
    for m, d in zip(mats, dims):
        out[pos : pos + d, pos : pos + d] = m
        pos += d
    return out


def _as_matrix(cm) -> np.ndarray:
    if isinstance(cm, CovarianceMatrix):
        return cm.mat
    return np.asarray(cm, dtype=float)


def symplectic_eigenvalues(cm, pairing_tol: float = PAIRING_TOL) -> np.ndarray:
    """Williamson eigenvalues of a covariance matrix, descending order.

    Computed as the moduli of the eigenvalues of Omega @ V, which come in
    +/- pairs for a symmetric V; the pairs are deduplicated. A failure of
    the +/- pairing beyond tolerance signals a broken covariance matrix.
    """
    mat = _as_matrix(cm)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise ValueError(f"covariance matrix must be 2n x 2n, got {mat.shape}")
    if not np.allclose(mat, mat.T, atol=SYMMETRY_TOL * max(1.0, np.abs(mat).max())):
        raise ValueError("covariance matrix is not symmetric")
    n = mat.shape[0] // 2
    moduli = np.sort(np.abs(np.linalg.eigvals(omega(n) @ mat)))[::-1]
    scale = max(1.0, moduli[0])
    for k in range(n):
        a, b = moduli[2 * k], moduli[2 * k + 1]
        if abs(a - b) > pairing_tol * max(1.0, a) + PAIRING_TOL * scale:
            raise ValueError(
                f"eigenvalues of Omega V fail +/- pairing ({a} vs {b}): broken CM"
            )
    return moduli[::2]


class CovarianceMatrix:
    """A validated 2n x 2n covariance matrix in shot-noise units.

    Validation enforces symmetry, positive definiteness and the uncertainty
    principle (every symplectic eigenvalue >= 1 within tolerance).
    """

    def __init__(self, mat, validate: bool = True):
        mat = np.array(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
            raise ValueError(f"covariance matrix must be 2n x 2n, got {mat.shape}")
        if validate:
            scale = max(1.0, np.abs(mat).max())
            if not np.allclose(mat, mat.T, atol=SYMMETRY_TOL * scale):
                raise ValueError("covariance matrix is not symmetric")
            mat = 0.5 * (mat + mat.T)
            if np.linalg.eigvalsh(mat).min() <= 0:
                raise ValueError("covariance matrix is not positive definite")
            nu_min = symplectic_eigenvalues(mat).min()
            if nu_min < 1.0 - PHYSICALITY_TOL:
                raise ValueError(
                    f"unphysical covariance matrix: min symplectic eigenvalue {nu_min}"
                )
        mat.flags.writeable = False
        self.mat = mat
        self.n_modes = mat.shape[0] // 2

    def __repr__(self):
        return f"CovarianceMatrix(n_modes={self.n_modes})"

    def spectrum(self) -> np.ndarray:
        return symplectic_eigenvalues(self.mat)


def epr_cm(V: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum (EPR) covariance matrix of variance V.

    Diagonal blocks V*I, off-diagonal sqrt(V^2-1)*Z; V = 1 is two vacua.
    """
    if V < 1:
        raise ValueError(f"EPR variance must be >= 1, got {V}")
    c = math.sqrt(V * V - 1.0)
    mat = np.block([[V * I2, c * Z2], [c * Z2, V * I2]])
    return CovarianceMatrix(mat, validate=False)


def g_entropy(nu: float) -> float:
    """Bosonic entropy g(nu) of a single symplectic eigenvalue.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), in bits.
    g(1) = 0 (pure-state limit), with a guard band just above 1 to avoid
    evaluating log(0).
    """
    if nu < 1.0 - PHYSICALITY_TOL:
        raise ValueError(f"symplectic eigenvalue must be >= 1, got {nu}")
    if nu <= 1.0 + 1e-12:
        return 0.0
    a = (nu + 1.0) / 2.0
    b = (nu - 1.0) / 2.0
    return a * math.log2(a) - b * math.log2(b)


def von_neumann_entropy(cm) -> float:
    """Von Neumann entropy of a Gaussian state: sum of g over the spectrum.

    Eigenvalues marginally below 1 from floating-point noise are clamped.
    """
    nus = symplectic_eigenvalues(cm)
    return float(sum(g_entropy(max(nu, 1.0)) for nu in nus))


def log_negativity_epr(V: float) -> float:
    """Log-negativity of the EPR state of variance V.

    Equals max{0, -(1/2) log(2V^2 - 1 - 2V sqrt(V^2-1))}; evaluated in the
    numerically stable form log(V + sqrt(V^2-1)).
    """
    if V < 1:
        raise ValueError(f"EPR variance must be >= 1, got {V}")
    return max(0.0, math.log2(V + math.sqrt(V * V - 1.0)))


def beam_splitter(T: float) -> np.ndarray:
    """Two-mode beam-splitter symplectic of transmission T.

    Quadrature map: out1 = sqrt(T) in1 + sqrt(1-T) in2,
    out2 = -sqrt(1-T) in1 + sqrt(T) in2.
    """
    if not 0.0 <= T <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {T}")
    t, r = math.sqrt(T), math.sqrt(1.0 - T)
    return np.block([[t * I2, r * I2], [-r * I2, t * I2]])


def is_symplectic(S: np.ndarray, tol: float = SYMMETRY_TOL) -> bool:
    n = S.shape[0] // 2
    om = omega(n)
    return np.allclose(S.T @ om @ S, om, atol=tol * 100)


def apply_transform(cm, S: np.ndarray) -> CovarianceMatrix:
    """Covariance update V -> S V S^T under a symplectic (or any linear) map."""
    mat = _as_matrix(cm)
    if S.shape[1] != mat.shape[0]:
        raise ValueError(f"dimension mismatch: S is {S.shape}, CM is {mat.shape}")
    return CovarianceMatrix(S @ mat @ S.T, validate=False)


def conditional_cov(sigma: np.ndarray, keep, obs_rows: np.ndarray,
                    obs_noise=None) -> np.ndarray:
    """Schur-complement conditioning of a joint Gaussian covariance.

    `sigma` is the covariance of a vector of jointly Gaussian variables
    (classical or quadrature, they condition identically at the level of
    second moments). The observed quantities are obs_rows @ y plus optional
    independent Gaussian noise with covariance `obs_noise`; the returned
    matrix is the covariance of the `keep` variables given the observation.
    Rank-deficient observations are handled by pseudo-inversion.
    """
    sigma = np.asarray(sigma, dtype=float)
    keep = np.asarray(keep, dtype=int)
    obs_rows = np.atleast_2d(np.asarray(obs_rows, dtype=float))
    s_obs = obs_rows @ sigma @ obs_rows.T
    if obs_noise is not None:
        s_obs = s_obs + np.atleast_2d(obs_noise)
    cross = sigma[keep, :] @ obs_rows.T
    out = sigma[np.ix_(keep, keep)] - cross @ np.linalg.pinv(s_obs) @ cross.T
    return 0.5 * (out + out.T)


def condition_on_homodyne(cm, mode_index: int, quadrature: str = "Q") -> CovarianceMatrix:
    """Conditional CM after a homodyne detection of one quadrature of one mode.

    Uses the rank-1 pseudo-inverse update; the measurement outcome itself
    does not enter the conditional covariance.
    """
    mat = _as_matrix(cm)
    n = mat.shape[0] // 2
    if not 0 <= mode_index < n:
        raise ValueError(f"mode_index {mode_index} out of range for {n} modes")
    if quadrature not in ("Q", "P"):
        raise ValueError(f"quadrature must be 'Q' or 'P', got {quadrature!r}")
    q = 2 * mode_index + (0 if quadrature == "Q" else 1)
    if mat[q, q] <= 0:
        raise ValueError("measured quadrature has zero variance")
    keep = [i for i in range(2 * n) if i not in (2 * mode_index, 2 * mode_index + 1)]
    row = np.zeros((1, 2 * n))
    row[0, q] = 1.0
    return CovarianceMatrix(conditional_cov(mat, keep, row), validate=False)


def condition_on_heterodyne(cm, mode_index: int) -> CovarianceMatrix:
    """Conditional CM after a heterodyne detection of one mode.

    Equivalent to the Schur complement with (V_mode + I) in the inverted
    block: the detection mixes the mode with a vacuum ancilla.
    """
    mat = _as_matrix(cm)
    n = mat.shape[0] // 2
    if not 0 <= mode_index < n:
        raise ValueError(f"mode_index {mode_index} out of range for {n} modes")
    sl = [2 * mode_index, 2 * mode_index + 1]
    keep = [i for i in range(2 * n) if i not in sl]
    rows = np.zeros((2, 2 * n))
    rows[0, sl[0]] = 1.0
    rows[1, sl[1]] = 1.0
    return CovarianceMatrix(conditional_cov(mat, keep, rows, obs_noise=I2),
                            validate=False)


def random_symplectic(n_modes: int, rng: np.random.Generator,
                      scale: float = 0.3) -> np.ndarray:
    """Random symplectic matrix exp(Omega H) with H random symmetric."""
    d = 2 * n_modes
    h = rng.normal(size=(d, d)) * scale
    h = 0.5 * (h + h.T)
    return expm(omega(n_modes) @ h)


def cm_to_csv(cm, path) -> None:
    """Serialize a CM as row-major CSV with an `n_modes` header line."""
    mat = _as_matrix(cm)
    with open(path, "w") as f:
        f.write(f"n_modes,{mat.shape[0] // 2}\n")
        for row in mat:
            f.write(",".join(f"{x:.17g}" for x in row) + "\n")


def cm_from_csv(path) -> CovarianceMatrix:
    with open(path) as f:
        header = f.readline().strip().split(",")
        if header[0] != "n_modes":
            raise ValueError(f"expected 'n_modes' header, got {header[0]!r}")
        n = int(header[1])
        rows = [[float(x) for x in line.strip().split(",")] for line in f if line.strip()]
    mat = np.array(rows)
    if mat.shape != (2 * n, 2 * n):
        raise ValueError(f"expected a {2*n}x{2*n} matrix, got {mat.shape}")
    return CovarianceMatrix(mat)
