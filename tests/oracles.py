"""Reference implementations that the tests compare the package against.

None of this is used by the package itself:

- the textbook Gaussian building blocks (EPR state, beam splitter, direct
  sum, the n-mode symplectic form, random symplectics) and the
  entangling-cloner symplectic;
- the one-way and two-way output CMs in substitution form, V_K(x, y), whose
  modulation slots are substituted to condition on Alice's encoding, with
  the variance and correlation coefficients they are written in;
- the large-modulation spectrum oracle: per CM and conditioning, the
  symplectic eigenvalues known in closed form, or the product of those
  known only through it, and the closed form of the three finite het2 RR
  eigenvalues that the package extracts numerically;
- Eve's conditional entropy through the fixed large-modulation linear
  estimators, an independent check of general Gaussian conditioning;
- the joint covariances sigma = m sigma_in m^T on the (Q, P) interleaved
  quadratures, with Bob's rows on them, the reference for the exact
  engine's factor halves and the placement the numeric het2 RR
  extraction must reproduce;
- Schur conditioning on the rows of Alice's revealed encoding, the
  reference for the exact engine's zeroed-column factor;
- the covariance-form exact engine that the square-root factor engine
  replaced: Schur complements and one eig(Omega V) per covariance block;
- the exact engine of every finite pair in mpmath, at a precision that
  grows with log10 V and log10 W;
- the one-way exact chain at 50 digits in mpmath: joint moments, Schur
  conditioning on Alice, symplectic spectra, g and the four DR rates;
- the closed-form asymptotic rates at 50 digits in mpmath, as written;
- the two-way joint moments in mpmath, and from them the finite het2 RR
  eigenvalues at 80 digits and V = 1e40, the reference for their closed
  form and for the package's numeric extraction;
- the individual protocols as phase-space beam-splitter relations on
  standard normals, the reference for the simulator's sampling map;
- the Monte-Carlo MI estimator on whole sample arrays, by `lstsq`, the
  reference for the estimator on the normals' covariance;
- the tomography probe moments on whole shot arrays, by `np.mean` and
  `np.cov`, the reference for the streamed probe sampler, and the streamed
  triangular-factor fold of the probe normals, the reference for its Gram
  fold;
- the Gram fold of the normals' moments on one thread, chunk after chunk,
  the reference for the threaded fold;
- the threshold solve by plain bisection, the reference for the lattice
  Newton solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import expm

from twoway_cvqkd import thresholds
from twoway_cvqkd.attacks import AttackParams, excess_noise
from twoway_cvqkd.gaussian import (I2, SYMMETRY_TOL, Z2, conditional_cov,
                                   symplectic_eigenvalues, von_neumann_entropy)
from twoway_cvqkd.key_rates import (DIVERGENT_RR, RATE_DIVERGENT, Method,
                                    NumericalFailure, Protocol, RateResult,
                                    Reconciliation, _joint_for,
                                    _require_rate_params,
                                    asymptotic_rate, finite_pair, mi_from_terms)
from twoway_cvqkd.rng import normal_chunks, normal_matrix
from twoway_cvqkd.simulator import (MI_CAP_BITS, MIN_SAMPLES, MiEstimate,
                                    SimConfig, trajectories)
from twoway_cvqkd.tomography import (DEFAULT_PROBE_DISPLACEMENTS, GaussianChannel,
                                     TomographyDataset)


# ---------------------------------------------------------------------------
# Gaussian building blocks
# ---------------------------------------------------------------------------

def direct_sum(*mats: np.ndarray) -> np.ndarray:
    """Block-diagonal direct sum of square matrices."""
    dims = [m.shape[0] for m in mats]
    out = np.zeros((sum(dims), sum(dims)))
    pos = 0
    for m, d in zip(mats, dims):
        out[pos : pos + d, pos : pos + d] = m
        pos += d
    return out


def epr_cm(V: float) -> np.ndarray:
    """Two-mode squeezed vacuum (EPR) covariance matrix of variance V.

    Diagonal blocks V*I, off-diagonal sqrt(V^2-1)*Z; V = 1 is two vacua.
    """
    if V < 1:
        raise ValueError(f"EPR variance must be >= 1, got {V}")
    c = math.sqrt(V * V - 1.0)
    return np.block([[V * I2, c * Z2], [c * Z2, V * I2]])


def beam_splitter(T: float) -> np.ndarray:
    """Two-mode beam-splitter symplectic of transmission T.

    Quadrature map: out1 = sqrt(T) in1 + sqrt(1-T) in2,
    out2 = -sqrt(1-T) in1 + sqrt(T) in2.
    """
    if not 0.0 <= T <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {T}")
    t, r = math.sqrt(T), math.sqrt(1.0 - T)
    return np.block([[t * I2, r * I2], [-r * I2, t * I2]])


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form: direct sum of n [[0, 1], [-1, 0]] blocks."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    q = np.arange(0, 2 * n_modes, 2)
    out = np.zeros((2 * n_modes, 2 * n_modes))
    out[q, q + 1] = 1.0
    out[q + 1, q] = -1.0
    return out


def is_symplectic(S: np.ndarray, tol: float = SYMMETRY_TOL) -> bool:
    n = S.shape[0] // 2
    om = omega(n)
    return np.allclose(S.T @ om @ S, om, atol=tol * 100)


def random_symplectic(n_modes: int, rng: np.random.Generator,
                      scale: float = 0.3) -> np.ndarray:
    """Random symplectic matrix exp(Omega H) with H random symmetric."""
    d = 2 * n_modes
    h = rng.normal(size=(d, d)) * scale
    h = 0.5 * (h + h.T)
    return expm(omega(n_modes) @ h)


def cloner_transform(params: AttackParams) -> np.ndarray:
    """Symplectic of the entangling cloner on (signal, E, E'') quadratures.

    The beam splitter acts on the signal and Eve's injected mode E; the
    spectator E'' (the other half of her EPR pair) is untouched.
    """
    return direct_sum(beam_splitter(params.T), I2)


def cloner_output_cm(params: AttackParams, signal_variance: float) -> np.ndarray:
    """Output CM over (B, E', E'') for an uncorrelated signal of given variance.

    Used to check the textbook variances (1-T)W + TV on Bob's side and
    (1-T)V + TW on Eve's.
    """
    s = cloner_transform(params)
    v_in = direct_sum(signal_variance * I2, epr_cm(params.W))
    return s @ v_in @ s.T


# ---------------------------------------------------------------------------
# Output-state coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneWayCoefficients:
    """Variances and correlations of the one-way output state.

    b_V and e_V are Bob's and Eve's total output variances, b1 and e1 the
    same conditioned on Alice's encoding; mu and theta are the
    cross-correlations appearing in the joint output CM.
    """

    b_V: float
    e_V: float
    b1: float
    e1: float
    mu: float
    theta: float

    @classmethod
    def evaluate(cls, V: float, params: AttackParams) -> "OneWayCoefficients":
        T, W = params.T, params.W
        return cls(
            b_V=(1 - T) * W + T * V,
            e_V=(1 - T) * V + T * W,
            b1=(1 - T) * W + T,
            e1=(1 - T) + T * W,
            mu=(W - V) * math.sqrt((1 - T) * T),
            theta=math.sqrt((1 - T) * (W * W - 1)),
        )


@dataclass(frozen=True)
class TwoWayCoefficients:
    """Constants of the two-way output CMs and their spectra.

    The large-modulation spectra contain eigenvalue pairs known only through
    their products: f1 f2 = T and h1 h2 = (1-T)^2 for the unconditional Bob
    and Eve spectra, m1 m2 for Eve conditioned on Bob's homodyne estimator,
    and n1 n2 n3 for the finite eigenvalues of Eve conditioned on Bob's
    heterodyne estimators.
    """

    mu_prime: float
    theta_prime: float
    gamma: float
    varsigma: float
    upsilon: float
    f_product: float
    h_product: float
    m_product: float
    n_product: float

    @classmethod
    def evaluate(cls, V: float, params: AttackParams) -> "TwoWayCoefficients":
        T, W = params.T, params.W
        one_way = OneWayCoefficients.evaluate(V, params)
        return cls(
            mu_prime=-math.sqrt(1 - T) * one_way.mu,
            theta_prime=-math.sqrt(1 - T) * one_way.theta,
            gamma=T * (1 - T) * V + (1 - T) ** 2 * W + T * W,
            varsigma=math.sqrt(1 + T * T * (T * T + T - 2)),
            upsilon=math.sqrt(1 + 3 * T + T * T),
            f_product=T,
            h_product=(1 - T) ** 2,
            m_product=math.sqrt((1 - T) ** 3 * (1 + T ** 3) * W / T),
            n_product=(1 + T ** 3 + (1 - T) * (1 + T * T) * W) * W / (T * (1 + T)),
        )


def het2_rr_closed_form(T, W) -> np.ndarray:
    """The three finite eigenvalues of Eve's CM conditioned on Bob's two-way
    heterodyne estimators, at infinite modulation, in closed form.

    n1 = W, and n2, n3 are the roots of x^4 - S x^2 + P^2 = 0 with
    P = n2 n3 = [1 + T^3 + (1-T)(1+T^2) W] / (T(1+T)) and
    S = n2^2 + n3^2 = [(1-T)^4 (1+T)^2 W^2 + 2(1 - T + T^2 - T^4 + T^5 - T^6) W
    + (1 + 5T^2 - 4T^3 + 5T^4 + T^6)] / (T^2 (1+T)^2).
    S was found by integer polynomial fits of the numeric spectrum and
    agrees with an 80-digit rebuild of the whole chain; at W = 1 it is
    P^2 + 1. It is evaluated without cancellation: with D = T(1+T),
    S - 2P = (n2 - n3)^2 is the square of d / D, where
    d = (1-T)[(1-T)(1+T) W + 1 + T^2] has no subtraction, so
    n2 = (sqrt(d^2 + 4 p D) + d) / (2D) with p = D P, and n3 = P / n2. d
    and p are divided by W, so that nothing overflows up to W = 1e300.
    T and W may be arrays; the eigenvalues are on the last axis, in the
    order (n1, n2, n3).
    """
    T, W = np.broadcast_arrays(np.asarray(T, dtype=float), np.asarray(W, dtype=float))
    D = T * (1 + T)
    d = (1 - T) * ((1 - T) * (1 + T) + (1 + T * T) / W)
    p = (1 + T**3) / W + (1 - T) * (1 + T * T)
    n2 = W * (np.sqrt(d * d + 4 * p * D / W) + d) / (2 * D)
    return np.stack([W, n2, W * p / D / n2], axis=-1)


# Fixed asymptotically-optimal linear-estimator coefficients for RR, used as
# an independent cross-check of the general Gaussian conditioning.
def rr_conditional_entropy_estimator(protocol, V: float, params: AttackParams) -> float:
    """Eve's conditional entropy H(E|X_B) via the fixed optimal estimators.

    Bob's variable X_B is turned into a linear estimate K X_B of Eve's
    quadratures and the entropy of the residual covariance is returned.
    The coefficients are the large-modulation optima (-sqrt((1-T)/T) on the
    relevant backward Q/P quadratures, times sqrt(2) for heterodyne), so
    this agrees with general Gaussian conditioning only asymptotically.
    """
    protocol = Protocol(protocol)
    if protocol.collective:
        raise ValueError("estimator conditioning applies to individual protocols")
    T = params.T
    joint = covariance_joint(protocol, V, params)
    rows, noise, _ = bob_rows(protocol, joint, params)
    e_idx = joint.ix["E"]
    k = np.zeros((len(e_idx), rows.shape[0]))
    if protocol is Protocol.HOM:
        k[0, 0] = -math.sqrt((1 - T) / T)          # Q_E'
    elif protocol is Protocol.HET:
        k[0, 0] = k[1, 1] = -math.sqrt(2 * (1 - T) / T)   # Q_E', P_E'
    elif protocol is Protocol.HOM2:
        k[4, 0] = -math.sqrt((1 - T) / T)          # Q_E2'
    elif protocol is Protocol.HET2:
        k[4, 0] = k[5, 1] = -math.sqrt(2 * (1 - T) / T)   # Q_E2', P_E2'
    s_e = joint.sigma[np.ix_(e_idx, e_idx)]
    cross = joint.sigma[e_idx, :] @ rows.T
    s_x = rows @ joint.sigma @ rows.T + noise
    resid = s_e - cross @ k.T - k @ cross.T + k @ s_x @ k.T
    return von_neumann_entropy(resid)


# ---------------------------------------------------------------------------
# The joint covariances, sigma = m sigma_in m^T
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovarianceJoint:
    """A joint's second moments in covariance form, over Alice's classical
    encoding and all output quadratures, (Q, P) per mode.

    `sigma` is m @ sigma_in @ m.T: `m` maps the independent inputs, (Q, P)
    per input mode, whose covariance is `sigma_in`, to the outputs. Inputs
    0 and 1 are Alice's encoding (Q_A, P_A), of variance V - 1 each. `ix`
    maps block names to index lists: "cl" for the classical encoding, "B"
    for Bob's output mode(s), "E" for all of Eve's output modes, "BE", plus
    named scalar quadrature indices ("qa", "qB1", ...).
    """

    sigma: np.ndarray
    m: np.ndarray
    sigma_in: np.ndarray
    ix: dict


def one_way_covariance(V: float, params: AttackParams) -> CovarianceJoint:
    """Covariance form of `key_rates.one_way_joint`, over [Q_A, P_A, Q_B,
    P_B, Q_E', P_E', Q_E'', P_E'']: the encoding and the signal vacuum pass
    the cloner beam splitter against E of Eve's EPR(W) pair (E, E'')."""
    T, W = params.T, params.W
    vbar = V - 1.0
    t, r = math.sqrt(T), math.sqrt(1.0 - T)
    w = np.sqrt(W * W - 1.0)
    # inputs: qa, pa, q0, p0 (signal vacuum), qE, pE, qE'', pE''
    sigma_in = np.diag([vbar, vbar, 1.0, 1.0, W, W, W, W])
    sigma_in[4, 6] = sigma_in[6, 4] = w
    sigma_in[5, 7] = sigma_in[7, 5] = -w
    m = np.zeros((8, 8))
    m[0, 0] = m[1, 1] = 1.0                      # classical encoding
    for k in range(2):                           # k=0: Q rows, k=1: P rows
        m[2 + k, [0 + k, 2 + k, 4 + k]] = [t, t, r]       # Bob
        m[4 + k, [0 + k, 2 + k, 4 + k]] = [-r, -r, t]     # E'
        m[6 + k, 6 + k] = 1.0                             # E'' spectator
    ix = {"cl": [0, 1], "qa": 0, "pa": 1, "B": [2, 3], "qB": 2, "pB": 3,
          "E": [4, 5, 6, 7], "BE": [2, 3, 4, 5, 6, 7]}
    return CovarianceJoint(m @ sigma_in @ m.T, m, sigma_in, ix)


def two_way_covariance(V, params) -> CovarianceJoint:
    """Covariance form of `key_rates.two_way_joint`, over [Q_A, P_A, B1, B2,
    E1', E1'', E2', E2''], (Q, P) per mode: Bob's EPR(V) pair (B1 kept, C1
    sent) passes a cloner (E1, E1''), Alice adds her encoding, and the mode
    returns through a second cloner (E2, E2''). V, params.T and params.W
    are floats, or equal-length 1-D arrays for a stack of joints: this is
    the placement `key_rates._het2_placement` must reproduce entry for
    entry."""
    T, W = params.T, params.W
    vbar = V - 1.0
    t, r = np.sqrt(T), np.sqrt(1.0 - T)
    v, w = np.sqrt(V * V - 1.0), np.sqrt(W * W - 1.0)
    # inputs: qa, pa, B1(2), C1(2), E1(2), E1''(2), E2(2), E2''(2)
    sigma_in = np.zeros(np.shape(V) + (14, 14))
    diag = np.arange(14)
    sigma_in[..., diag, diag] = np.array([vbar, vbar, V, V, V, V, W, W, W, W, W, W, W, W]).T
    for base, corr in ((2, v), (6, w), (10, w)):
        sigma_in[..., base, base + 2] = sigma_in[..., base + 2, base] = corr
        sigma_in[..., base + 1, base + 3] = sigma_in[..., base + 3, base + 1] = -corr
    m = np.zeros(np.shape(V) + (14, 14))

    def put(i, cols, coeffs):
        for j, c in zip(cols, coeffs):
            m[..., i, j] = c

    m[..., 0, 0] = m[..., 1, 1] = 1.0
    for k in range(2):
        qa, qC1, qE1, qE2 = 0 + k, 4 + k, 6 + k, 10 + k
        m[..., 2 + k, 2 + k] = 1.0                                # B1 kept
        # B2 = sqrt(T) (A1 + encoding) + sqrt(1-T) E2, A1 = sqrt(T) C1 + sqrt(1-T) E1
        put(4 + k, [qa, qC1, qE1, qE2], [t, T, t * r, r])
        put(6 + k, [qC1, qE1], [-r, t])                           # E1'
        m[..., 8 + k, 8 + k] = 1.0                                # E1''
        put(10 + k, [qa, qC1, qE1, qE2], [-r, -r * t, -r * r, t])  # E2'
        m[..., 12 + k, 12 + k] = 1.0                              # E2''
    ix = {"cl": [0, 1], "qa": 0, "pa": 1,
          "B": [2, 3, 4, 5], "qB1": 2, "pB1": 3, "qB2": 4, "pB2": 5,
          "E": [6, 7, 8, 9, 10, 11, 12, 13], "BE": list(range(2, 14))}
    return CovarianceJoint(m @ sigma_in @ np.swapaxes(m, -1, -2), m, sigma_in, ix)


def covariance_joint(protocol, V: float, params: AttackParams) -> CovarianceJoint:
    """The covariance form of the protocol's joint, built after the checks
    of `key_rates._joint_for` (V range, EPR overflow, EXACT_V_MAX)."""
    protocol = Protocol(protocol)
    _joint_for(protocol, V, params)
    return (two_way_covariance if protocol.two_way else one_way_covariance)(V, params)


def bob_rows(protocol: Protocol, joint: CovarianceJoint, params: AttackParams):
    """Rows on the covariance joint's variables, ancilla-noise covariance and
    labels of Bob's decoding variables (`key_rates._bob_measurement`, whose
    rows act on one half each). With params.T an array (a stack of joints),
    the rows and the noise stack alike."""
    n = joint.sigma.shape[-1]
    T = params.T
    s2 = math.sqrt(2.0)

    def rows(*coeffs: dict) -> np.ndarray:
        out = np.zeros(np.shape(T) + (len(coeffs), n))
        for i, row in enumerate(coeffs):
            for name, c in row.items():
                out[..., i, joint.ix[name]] = c
        return out

    if protocol in (Protocol.HOM, Protocol.COLL_HOM):
        return rows({"qB": 1.0}), np.zeros((1, 1)), ["Q"]
    if protocol in (Protocol.HET, Protocol.COLL_HET):
        return rows({"qB": 1 / s2}, {"pB": 1 / s2}), 0.5 * np.eye(2), ["Q", "P"]
    if protocol in (Protocol.HOM2, Protocol.COLL_HOM2):
        return rows({"qB2": 1.0, "qB1": -T}), np.zeros((1, 1)), ["Q"]
    return (rows({"qB2": 1 / s2, "qB1": -T / s2}, {"pB2": 1 / s2, "pB1": T / s2}),
            np.multiply.outer((1 + T * T) / 2, np.eye(2)), ["Q", "P"])


def halves_covariance(F: np.ndarray) -> np.ndarray:
    """The covariance, (Q, P) per mode, of factor halves F (2, n, k): F[0]
    F[0]^T on the Q quadratures, F[1] F[1]^T on the P ones, and no Q/P
    correlation."""
    n = F.shape[1]
    out = np.zeros((2 * n, 2 * n))
    out[0::2, 0::2], out[1::2, 1::2] = F[0] @ F[0].T, F[1] @ F[1].T
    return out


# ---------------------------------------------------------------------------
# Schur conditioning on Alice's encoding
# ---------------------------------------------------------------------------

def encoding_rows(protocol: Protocol, joint: CovarianceJoint) -> np.ndarray:
    """Rows selecting the classical variables revealed by Alice's encoding:
    Q_A for homodyne decoding, Q_A and P_A for heterodyne."""
    n = joint.sigma.shape[0]
    idxs = [joint.ix["qa"]] if not protocol.joint_decoding else joint.ix["cl"]
    rows = np.zeros((len(idxs), n))
    for r, i in enumerate(idxs):
        rows[r, i] = 1.0
    return rows


def schur_given_alice(protocol: Protocol, joint: CovarianceJoint, name: str) -> np.ndarray:
    """Block `name` of the joint conditioned on Alice's revealed encoding,
    as a Schur complement on `encoding_rows`."""
    return conditional_cov(joint.sigma, joint.ix[name], encoding_rows(protocol, joint))


def schur_shannon_variances(protocol: Protocol, joint: CovarianceJoint,
                            params: AttackParams) -> np.ndarray:
    """Conditional variances of Bob's decoding variables given Alice's
    revealed encoding, by explicit inversion of her classical block."""
    rows, noise, _ = bob_rows(protocol, joint, params)
    enc = encoding_rows(protocol, joint)
    cross = rows @ joint.sigma @ enc.T
    s_cl = enc @ joint.sigma @ enc.T
    return np.diag(rows @ joint.sigma @ rows.T + noise
                   - cross @ np.linalg.inv(s_cl) @ cross.T)


# ---------------------------------------------------------------------------
# The covariance-form exact engine, block by block
# ---------------------------------------------------------------------------

def covariance_given_alice(joint: CovarianceJoint, protocol: Protocol) -> np.ndarray:
    """A single joint's covariance given the inputs Alice reveals (Q_A, and
    P_A for heterodyne decoding): they are independent of all others, so
    their variance is set to 0."""
    revealed = joint.ix["cl"] if protocol.joint_decoding else [joint.ix["qa"]]
    sigma_in = joint.sigma_in.copy()
    sigma_in[revealed, revealed] = 0.0
    return joint.m @ sigma_in @ joint.m.T


def covariance_shannon_terms(joint: CovarianceJoint, given: np.ndarray, rows: np.ndarray,
                             noise: np.ndarray, labels: list) -> list:
    """(label, total variance, conditional variance) of Bob's decoding rows
    from the joint covariance and its `covariance_given_alice`."""
    total = rows @ joint.sigma @ rows.T + noise
    cond = rows @ given @ rows.T + noise
    return [(lab, float(total[i, i]), float(cond[i, i])) for i, lab in enumerate(labels)]


def per_block_exact_rate(protocol, reconciliation, V: float,
                         params: AttackParams) -> RateResult:
    """The exact engine in covariance form, as the package computed it
    before its square-root factor form, with one `von_neumann_entropy`,
    so one eig(Omega V) call, per covariance block: S(E), S(B), S(B|A),
    then S(E|A) or S(BE) for the collective pairs; S(E), I(A:B), then
    S(E|A) or S(E|B), a Schur complement on Bob's rows, for the individual
    ones. Terms of size V cancel in it, so it leaves its 1/V plateau above
    V = 1e8."""
    protocol = Protocol(protocol)
    recon = Reconciliation(reconciliation)
    _require_rate_params(params)
    if recon is Reconciliation.RR and protocol in DIVERGENT_RR:
        return RateResult(RATE_DIVERGENT, Method.EXACT_FINITE_V)
    joint = covariance_joint(protocol, V, params)
    ix = joint.ix
    given = covariance_given_alice(joint, protocol)

    def entropy(sigma: np.ndarray, name: str) -> float:
        block = slice(ix[name][0], ix[name][-1] + 1)
        return von_neumann_entropy(sigma[block, block])

    try:
        s_e = entropy(joint.sigma, "E")
        if protocol.collective:
            s_b = entropy(joint.sigma, "B")
            i_ab = s_b - entropy(given, "B")
            if recon is Reconciliation.DR:
                rate = i_ab - (s_e - entropy(given, "E"))
            else:
                rate = i_ab - (s_b + s_e - entropy(joint.sigma, "BE"))
        else:
            rows, noise, labels = bob_rows(protocol, joint, params)
            i_ab = mi_from_terms(covariance_shannon_terms(joint, given, rows, noise, labels))
            if recon is Reconciliation.DR:
                s_e_given = entropy(given, "E")
            else:
                s_e_given = von_neumann_entropy(
                    conditional_cov(joint.sigma, ix["E"], rows, noise))
            rate = i_ab - (s_e - s_e_given)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise NumericalFailure(f"{protocol.value} {recon.value} spectrum at T={params.T}, "
                               f"W={params.W}, V={V}: {exc}") from exc
    return RateResult(float(rate), Method.EXACT_FINITE_V)


# ---------------------------------------------------------------------------
# Substitution-form covariance matrices (closed-form conditionals)
# ---------------------------------------------------------------------------

def one_way_cm(kind: str, x: float, y: float, params: AttackParams) -> np.ndarray:
    """One-way output CMs V_K(x, y) with modulation slots substituted.

    The full state is V_K(V, V); conditioning on Q_A substitutes the first
    slot with 1, conditioning on both encodings gives V_K(1, 1). kind is
    "B" (1 mode), "E" (2 modes) or "EB" (3 modes, full modulation only).
    """
    T, W = params.T, params.W
    phi = math.sqrt(T * (W * W - 1))

    def b(v):
        return (1 - T) * W + T * v

    def e(v):
        return (1 - T) * v + T * W

    if kind == "B":
        return np.diag([b(x), b(y)])
    v_e = np.zeros((4, 4))
    v_e[:2, :2] = np.diag([e(x), e(y)])
    v_e[2:, 2:] = W * np.eye(2)
    v_e[0, 2] = v_e[2, 0] = phi
    v_e[1, 3] = v_e[3, 1] = -phi
    if kind == "E":
        return v_e
    if kind == "EB":
        c = OneWayCoefficients.evaluate(x, params)
        f = np.zeros((4, 2))
        f[0, 0], f[1, 1] = c.mu, c.mu
        f[2, 0], f[3, 1] = c.theta, -c.theta
        out = np.zeros((6, 6))
        out[:4, :4] = v_e
        out[4:, 4:] = np.diag([b(x), b(y)])
        out[:4, 4:] = f
        out[4:, :4] = f.T
        return out
    raise ValueError(f"unknown CM kind {kind!r}")


def two_way_cm(kind: str, x: float, y: float, V: float,
               params: AttackParams) -> np.ndarray:
    """Two-way output CMs V_K(x, y) with encoding-variance slots substituted.

    The full state is V_K(vbar, vbar); conditioning on Q_A gives
    V_K(0, vbar) and on both encodings V_K(0, 0). kind is "B" (2 modes) or
    "E" (4 modes).
    """
    T, W = params.T, params.W
    c = TwoWayCoefficients.evaluate(V, params)
    phi = math.sqrt(T * (W * W - 1))
    z = np.diag([1.0, -1.0])
    if kind == "B":
        lam = (T * T * V + (1 - T * T) * W) * np.eye(2) + T * np.diag([x, y])
        out = np.zeros((4, 4))
        out[:2, :2] = V * np.eye(2)
        out[2:, 2:] = lam
        out[:2, 2:] = out[2:, :2] = T * math.sqrt(V * V - 1) * z
        return out
    if kind == "E":
        e_v = (1 - T) * V + T * W
        lam = c.gamma * np.eye(2) + (1 - T) * np.diag([x, y])
        out = np.zeros((8, 8))
        out[0:2, 0:2] = e_v * np.eye(2)
        out[2:4, 2:4] = W * np.eye(2)
        out[4:6, 4:6] = lam
        out[6:8, 6:8] = W * np.eye(2)
        out[0:2, 2:4] = out[2:4, 0:2] = phi * z
        out[0:2, 4:6] = out[4:6, 0:2] = c.mu_prime * np.eye(2)
        out[2:4, 4:6] = out[4:6, 2:4] = c.theta_prime * z
        out[4:6, 6:8] = out[6:8, 4:6] = phi * z
        return out
    raise ValueError(f"unknown CM kind {kind!r}")


# ---------------------------------------------------------------------------
# Large-modulation spectrum oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumPrediction:
    """Large-modulation spectrum: individually known eigenvalues plus, where
    the closed forms fix only a product, the expected product of the
    remaining eigenvalues."""

    known: tuple
    residual_product: float | None = None
    residual_count: int = 0


def asymptotic_spectra(way: int, target: str, conditioning: str,
                       params: AttackParams, V: float) -> SpectrumPrediction:
    """Large-V symplectic spectra of the output CMs, as a test oracle.

    way: 1 or 2 channel uses. target: "B", "E" or "BE". conditioning:
    "none", "qa", "qa_pa" (on Alice's encoding), "hom_b" or "het_b" (on
    Bob's measured variables).
    """
    T, W = params.T, params.W
    c1 = OneWayCoefficients.evaluate(1.0, params)
    b1, e1 = c1.b1, c1.e1
    if way == 1:
        table = {
            ("B", "none"): SpectrumPrediction((T * V,)),
            ("B", "qa"): SpectrumPrediction((math.sqrt(b1 * T * V),)),
            ("B", "qa_pa"): SpectrumPrediction((b1,)),
            ("E", "none"): SpectrumPrediction(((1 - T) * V, W)),
            ("E", "qa"): SpectrumPrediction(
                (math.sqrt(e1 * (1 - T) * V), math.sqrt(W * b1 / e1))),
            ("E", "qa_pa"): SpectrumPrediction((b1, 1.0)),
            ("BE", "none"): SpectrumPrediction((V, 1.0, 1.0)),
            ("E", "hom_b"): SpectrumPrediction(
                (math.sqrt(V * W * (1 - T) / T), 1.0)),
            ("E", "het_b"): SpectrumPrediction(((1 - T + b1) / T, 1.0)),
        }
    elif way == 2:
        c2 = TwoWayCoefficients.evaluate(V, params)
        table = {
            ("B", "none"): SpectrumPrediction(
                (), residual_product=c2.f_product * V * V, residual_count=2),
            ("B", "qa"): SpectrumPrediction(
                (c2.varsigma * V,
                 math.sqrt(T * (1 - T * T) * W * V) / c2.varsigma)),
            ("B", "qa_pa"): SpectrumPrediction(((1 - T * T) * V, W)),
            ("E", "none"): SpectrumPrediction(
                (W, W), residual_product=c2.h_product * V * V, residual_count=2),
            ("E", "qa"): SpectrumPrediction(
                (c2.upsilon * (1 - T) * V,
                 math.sqrt((1 - T * T) * W * V) / c2.upsilon, W, 1.0)),
            ("E", "qa_pa"): SpectrumPrediction(((1 - T * T) * V, W, 1.0, 1.0)),
            ("E", "hom_b"): SpectrumPrediction(
                (W, 1.0), residual_product=c2.m_product * V ** 1.5,
                residual_count=2),
            ("E", "het_b"): SpectrumPrediction(
                ((1 - T * T) * V,), residual_product=c2.n_product,
                residual_count=3),
        }
    else:
        raise ValueError(f"way must be 1 or 2, got {way}")
    try:
        return table[(target, conditioning)]
    except KeyError:
        raise ValueError(f"no asymptotic spectrum for target={target!r}, "
                         f"conditioning={conditioning!r}") from None


def exact_spectrum(way: int, target: str, conditioning: str,
                   params: AttackParams, V: float) -> np.ndarray:
    """Numeric symplectic spectrum of the same CM the oracle predicts."""
    protocol_hom = Protocol.HOM if way == 1 else Protocol.HOM2
    protocol_het = Protocol.HET if way == 1 else Protocol.HET2
    joint = covariance_joint(protocol_hom, V, params)
    idx = joint.ix[target]
    if conditioning == "none":
        block = joint.sigma[np.ix_(idx, idx)]
        return symplectic_eigenvalues(block)
    if conditioning in ("qa", "qa_pa"):
        proto = protocol_hom if conditioning == "qa" else protocol_het
        rows = encoding_rows(proto, joint)
        return symplectic_eigenvalues(conditional_cov(joint.sigma, idx, rows))
    if conditioning in ("hom_b", "het_b"):
        proto = protocol_hom if conditioning == "hom_b" else protocol_het
        rows, noise, _ = bob_rows(proto, joint, params)
        return symplectic_eigenvalues(conditional_cov(joint.sigma, idx, rows, noise))
    raise ValueError(f"unknown conditioning {conditioning!r}")


def spectrum_matches(numeric: np.ndarray, prediction: SpectrumPrediction,
                     rtol: float) -> bool:
    """Check a numeric spectrum against an asymptotic prediction.

    Each individually known eigenvalue must have a numeric partner within
    `rtol` relative error (greedy nearest matching); the product of the
    leftover eigenvalues must match the residual product.
    """
    remaining = sorted(float(nu) for nu in numeric)
    for expect in sorted(prediction.known, reverse=True):
        best = min(remaining, key=lambda nu: abs(nu - expect))
        if abs(best - expect) > rtol * max(abs(expect), 1.0):
            return False
        remaining.remove(best)
    if len(remaining) != prediction.residual_count:
        return False
    if prediction.residual_count:
        product = math.prod(remaining)
        expect = prediction.residual_product
        if abs(product - expect) > prediction.residual_count * rtol * abs(expect):
            return False
    return True


# ---------------------------------------------------------------------------
# The one-way exact chain at 50 digits
# ---------------------------------------------------------------------------

MP_DPS = 50


def _mp_sub(mat, rows, cols):
    return mpmath.matrix([[mat[i, j] for j in cols] for i in rows])


def mp_one_way_joint(V, params: AttackParams):
    """`one_way_covariance` in mpmath, from the same float inputs:
    the 8x8 joint over [Q_A, P_A, Q_B, P_B, Q_E', P_E', Q_E'', P_E'']."""
    T, W = mpmath.mpf(params.T), mpmath.mpf(params.W)
    t, r, w = mpmath.sqrt(T), mpmath.sqrt(1 - T), mpmath.sqrt(W * W - 1)
    sigma_in = mpmath.diag([V - 1, V - 1, 1, 1, W, W, W, W])
    sigma_in[4, 6] = sigma_in[6, 4] = w
    sigma_in[5, 7] = sigma_in[7, 5] = -w
    m = mpmath.zeros(8, 8)
    m[0, 0] = m[1, 1] = 1
    for k in range(2):
        m[2 + k, 0 + k], m[2 + k, 2 + k], m[2 + k, 4 + k] = t, t, r
        m[4 + k, 0 + k], m[4 + k, 2 + k], m[4 + k, 4 + k] = -r, -r, t
        m[6 + k, 6 + k] = 1
    return m * sigma_in * m.T


def mp_two_way_joint(V, params: AttackParams):
    """`two_way_covariance` in mpmath, from the same float inputs: the
    14x14 joint over [Q_A, P_A, B1, B2, E1', E1'', E2', E2''], (Q, P) per mode."""
    T, W = mpmath.mpf(params.T), mpmath.mpf(params.W)
    t, r = mpmath.sqrt(T), mpmath.sqrt(1 - T)
    # inputs: qa, pa, B1(2), C1(2), E1(2), E1''(2), E2(2), E2''(2)
    sigma_in = mpmath.diag([V - 1, V - 1] + [V] * 4 + [W] * 8)
    w = mpmath.sqrt(W * W - 1)
    for base, corr in ((2, mpmath.sqrt(V * V - 1)), (6, w), (10, w)):
        sigma_in[base, base + 2] = sigma_in[base + 2, base] = corr
        sigma_in[base + 1, base + 3] = sigma_in[base + 3, base + 1] = -corr
    m = mpmath.zeros(14, 14)
    m[0, 0] = m[1, 1] = 1
    for k in range(2):
        m[2 + k, 2 + k] = m[8 + k, 8 + k] = m[12 + k, 12 + k] = 1   # B1, E1'', E2''
        for row, coeffs in ((4 + k, (t, T, t * r, r)), (10 + k, (-r, -r * t, -r * r, t))):
            for col, c in zip((k, 4 + k, 6 + k, 10 + k), coeffs):   # B2, E2'
                m[row, col] = c
        m[6 + k, 4 + k], m[6 + k, 6 + k] = -r, t                    # E1'
    return m * sigma_in * m.T


def mp_het2_rr_finite_eigenvalues(T: float, W: float) -> list:
    """The three finite eigenvalues of Eve's CM conditioned on Bob's two-way
    heterodyne estimators (Q_B2 - T Q_B1)/sqrt(2) and (P_B2 + T P_B1)/sqrt(2),
    each with vacuum noise (1 + T^2)/2, descending, at V = 1e40 and 80
    digits, where the O(1/V) tail is below double precision. The joint is
    augmented by the two estimators and Eve's block conditioned on them;
    the eigenvalue growing as (1 - T^2) V is dropped."""
    with mpmath.workdps(80):
        sigma = mp_two_way_joint(mpmath.mpf(10) ** 40, AttackParams(T, W))
        rows = mpmath.zeros(2, 14)
        s2, t = mpmath.sqrt(2), mpmath.mpf(T)
        rows[0, 4], rows[0, 2], rows[1, 5], rows[1, 3] = 1 / s2, -t / s2, 1 / s2, t / s2
        cross = sigma * rows.T
        aug = mpmath.zeros(16, 16)
        aug[:14, :14], aug[:14, 14:], aug[14:, :14] = sigma, cross, cross.T
        aug[14:, 14:] = rows * cross + (1 + t * t) / 2 * mpmath.eye(2)
        cond = mp_conditional(aug, list(range(6, 14)), [14, 15])
        return [float(nu) for nu in mp_symplectic_eigenvalues(cond)[1:]]


def mp_conditional(sigma, keep, obs):
    """Schur complement of the `keep` block on the `obs` variables."""
    cross = _mp_sub(sigma, keep, obs)
    return (_mp_sub(sigma, keep, keep)
            - cross * mpmath.inverse(_mp_sub(sigma, obs, obs)) * cross.T)


def mp_symplectic_eigenvalues(cm) -> list:
    """Moduli of the eigenvalues of Omega V, one of each +/- pair, descending."""
    n = cm.rows // 2
    om = mpmath.zeros(2 * n, 2 * n)
    for k in range(n):
        om[2 * k, 2 * k + 1], om[2 * k + 1, 2 * k] = 1, -1
    moduli = sorted((abs(e) for e in mpmath.eig(om * cm, left=False, right=False)),
                    reverse=True)
    return moduli[::2]


def mp_g(nu):
    """g(nu) = a log2 a - b log2 b, a = (nu+1)/2, b = (nu-1)/2, with
    g = 0 for an eigenvalue within rounding of 1."""
    a, b = (nu + 1) / 2, (nu - 1) / 2
    if b <= mpmath.mpf(10) ** (10 - mpmath.mp.dps):
        return a * mpmath.log(a, 2)
    return a * mpmath.log(a, 2) - b * mpmath.log(b, 2)


def mp_entropy(cm):
    return mpmath.fsum(mp_g(nu) for nu in mp_symplectic_eigenvalues(cm))


def mp_one_way_dr_rate(protocol, V: float, params: AttackParams) -> float:
    """DR rate of hom, het, coll_hom or coll_het at MP_DPS digits.

    I(A:B) is Shannon (half the log-ratio of total to conditional variance
    per decoded quadrature, heterodyne adding a vacuum unit) for the
    individual protocols and Holevo for the collective ones; Eve's term is
    Holevo on Alice's revealed encoding. Every conditional is a Schur
    complement of the joint on Alice's classical variables.
    """
    protocol = Protocol(protocol)
    if protocol.two_way:
        raise ValueError("the mpmath chain covers the one-way protocols")
    B, E = [2, 3], [4, 5, 6, 7]
    enc, q_b = ([0, 1], B) if protocol.joint_decoding else ([0], [2])
    with mpmath.workdps(MP_DPS):
        sigma = mp_one_way_joint(mpmath.mpf(V), params)
        i_ae = mp_entropy(_mp_sub(sigma, E, E)) - mp_entropy(mp_conditional(sigma, E, enc))
        if protocol.collective:
            i_ab = (mp_entropy(_mp_sub(sigma, B, B))
                    - mp_entropy(mp_conditional(sigma, B, enc)))
        else:
            noise = 1 if protocol.joint_decoding else 0
            cond = mp_conditional(sigma, q_b, enc)
            i_ab = mpmath.fsum(mpmath.log((sigma[q, q] + noise) / (cond[i, i] + noise), 2)
                               for i, q in enumerate(q_b)) / 2
        return float(i_ab - i_ae)


def mp_exact_rate(protocol, reconciliation, V: float, params: AttackParams) -> float:
    """`key_rates.exact_rate` of any pair in mpmath, from the same float
    inputs: the joint of `mp_one_way_joint` or `mp_two_way_joint`,
    augmented by Bob's decoding rows and their vacuum noise as in
    `bob_rows`, Schur conditioning (`mp_conditional`) on
    Alice's revealed encoding or on those rows, and `mp_entropy`.

    Terms of size V (and W) cancel in the Schur complements and the
    spectra, so the working precision grows with log10 V and log10 W.
    Divergent collective RR pairs give the -inf sentinel.
    """
    protocol, recon = Protocol(protocol), Reconciliation(reconciliation)
    if recon is Reconciliation.RR and protocol in DIVERGENT_RR:
        return RATE_DIVERGENT
    dps = MP_DPS + int(2 * (math.log10(V) + math.log10(params.W)))
    with mpmath.workdps(dps):
        T, V = mpmath.mpf(params.T), mpmath.mpf(V)
        if protocol.two_way:
            sigma, B, E = mp_two_way_joint(V, params), list(range(2, 6)), list(range(6, 14))
            q_b, p_b, c_b, noise = (4, 2), (5, 3), (-T, T), (1 + T * T) / 2
        else:
            sigma, B, E = mp_one_way_joint(V, params), [2, 3], list(range(4, 8))
            q_b, p_b, c_b, noise = (2,), (3,), (), mpmath.mpf(1) / 2
        enc = [0, 1] if protocol.joint_decoding else [0]
        n = sigma.rows
        # Bob's decoding rows: Q_B (- T Q_B1), and for heterodyne P_B (+ T P_B1)
        # over sqrt(2), with vacuum noise
        rows = mpmath.zeros(len(enc), n)
        for r, idx in enumerate((q_b, p_b)[:len(enc)]):
            for i, c in zip(idx, (1,) + c_b[r:r + 1]):
                rows[r, i] = c / mpmath.sqrt(2) if protocol.joint_decoding else c
        obs = list(range(n, n + len(enc)))
        cross = sigma * rows.T
        aug = mpmath.zeros(n + len(enc), n + len(enc))
        aug[:n, :n], aug[:n, n:], aug[n:, :n] = sigma, cross, cross.T
        aug[n:, n:] = rows * cross + (noise * mpmath.eye(len(enc))
                                      if protocol.joint_decoding else 0)
        S = (lambda keep, on=None: mp_entropy(_mp_sub(aug, keep, keep) if on is None
                                              else mp_conditional(aug, keep, on)))
        if protocol.collective:
            i_ab = S(B) - S(B, enc)
            holevo = (S(E) - S(E, enc) if recon is Reconciliation.DR
                      else S(B) + S(E) - S(B + E))
        else:
            cond = mp_conditional(aug, obs, enc)
            i_ab = mpmath.fsum(mpmath.log(aug[o, o] / cond[i, i], 2)
                               for i, o in enumerate(obs)) / 2
            holevo = S(E) - S(E, enc if recon is Reconciliation.DR else obs)
        return float(i_ab - holevo)


def mp_closed_form_rates(T: float, W: float) -> dict:
    """(protocol, reconciliation) -> closed-form asymptotic rate at MP_DPS
    digits, from the same float T and W, for every finite pair. Each
    formula is written as `key_rates._RATES` writes it, with
    b1 = (1-T)W + T and e1 = (1-T) + TW; het2 RR takes Eve's eigenvalues
    W, n2 and n3 of `het2_rr_closed_form`."""
    P, DR, RR = Protocol, Reconciliation.DR, Reconciliation.RR
    with mpmath.workdps(MP_DPS):
        T, W = mpmath.mpf(T), mpmath.mpf(W)
        g, log2, e = mp_g, (lambda x: mpmath.log(x, 2)), mpmath.e
        b1, e1 = (1 - T) * W + T, (1 - T) + T * W
        hom = log2(T * e1 / ((1 - T) * b1)) / 2 + g(mpmath.sqrt(W * b1 / e1)) - g(W)
        hom2 = log2(T / (1 - T) ** 2) / 2 - g(W)
        D = T * (1 + T)
        d = (1 - T) * ((1 - T) * (1 + T) + (1 + T * T) / W)
        p = (1 + T ** 3) / W + (1 - T) * (1 + T * T)
        n2 = W * (mpmath.sqrt(d * d + 4 * p * D / W) + d) / (2 * D)
        rates = {
            (P.HOM, DR): hom,
            (P.COLL_HOM, DR): hom,
            (P.HET, DR): log2(2 * T / (e * (1 - T) * (1 + b1))) + g(b1) - g(W),
            (P.COLL_HET, DR): log2(T / (1 - T)) - g(W),
            (P.HOM2, DR): hom2,
            (P.COLL_HOM2, DR): hom2,
            (P.HET2, DR): log2(2 * T * (1 + T)
                               / (e * (1 - T) * (1 + T * T + (1 - T * T) * W))) - g(W),
            (P.COLL_HET2, DR): 2 * hom2,
            (P.HOM, RR): log2(W / ((1 - T) * b1)) / 2 - g(W),
            (P.HET, RR): (log2(2 * T / (e * (1 - T) * (1 + b1)))
                          + g((1 - T + b1) / T) - g(W)),
            (P.COLL_HET, RR): log2(1 / (1 - T)) - g(W) - g(b1),
            (P.HOM2, RR): log2((1 - T + T * T) / (1 - T) ** 2) / 2 - g(W),
            (P.HET2, RR): (log2(2 * D / (e * (1 - T) * (1 + T * T + (1 - T * T) * W)))
                           + g(n2) + g(W * p / D / n2) - g(W)),
        }
        return {pair: float(rate) for pair, rate in rates.items()}


def mp_ancilla_nu_min(w_f: float, w_b: float, c: float) -> float:
    """Smaller symplectic eigenvalue of the two-path attack's ancilla CM
    [[W_f I, chi Z], [chi Z, W_b I]], chi^2 = c^2 sqrt((W_f^2-1)(W_b^2-1)),
    from its two-mode invariants Delta = W_f^2 + W_b^2 - 2 chi^2 and
    det = (W_f W_b - chi^2)^2: nu^2 = 2 det / (Delta + sqrt(Delta^2 - 4 det)).
    Both invariants cancel terms of size W^2, so the digits grow with W."""
    with mpmath.workdps(int(2 * math.log10(max(w_f, w_b))) + 40):
        a, b, c = mpmath.mpf(w_f), mpmath.mpf(w_b), mpmath.mpf(c)
        chi2 = c * c * mpmath.sqrt((a * a - 1) * (b * b - 1))
        delta = a * a + b * b - 2 * chi2
        det = (a * b - chi2) ** 2
        return float(mpmath.sqrt(2 * det / (delta + mpmath.sqrt(delta * delta - 4 * det))))


# ---------------------------------------------------------------------------
# Monte-Carlo phase-space reference
# ---------------------------------------------------------------------------

# The individual protocols as beam-splitter relations on (8 one-way, 14
# two-way) standard-normal columns, written independently of the exact
# engine's joint: the reference for the simulator's sampling map.

def _epr_pair(z1: np.ndarray, z2: np.ndarray, V: float, sign: float):
    """Correlated pair with covariance [[V, s v],[s v, V]], v = sqrt(V^2-1)."""
    v = math.sqrt(V * V - 1.0)
    a = math.sqrt(V) * z1
    # the conditional standard deviation sqrt(V - v^2/V) is exactly 1/sqrt(V)
    b = (sign * v / math.sqrt(V)) * z1 + (1.0 / math.sqrt(V)) * z2
    return a, b


def _one_way_block(config: SimConfig, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    T, W = config.params.T, config.params.W
    vbar = config.V - 1.0
    t, r = math.sqrt(T), math.sqrt(1.0 - T)
    qa, pa = math.sqrt(vbar) * z[:, 0], math.sqrt(vbar) * z[:, 1]
    q0, p0 = z[:, 2], z[:, 3]
    qe, pe = math.sqrt(W) * z[:, 4], math.sqrt(W) * z[:, 5]
    qb = t * (qa + q0) + r * qe
    pb = t * (pa + p0) + r * pe
    if config.protocol is Protocol.HOM:
        return qa[:, None], qb[:, None]
    # heterodyne: split on a balanced beam splitter against fresh vacuum
    xq = (qb + z[:, 6]) / math.sqrt(2.0)
    xp = (pb - z[:, 7]) / math.sqrt(2.0)
    return np.column_stack([qa, pa]), np.column_stack([xq, xp])


def _two_way_block(config: SimConfig, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    T, W = config.params.T, config.params.W
    vbar = config.V - 1.0
    t, r = math.sqrt(T), math.sqrt(1.0 - T)
    qa, pa = math.sqrt(vbar) * z[:, 0], math.sqrt(vbar) * z[:, 1]
    qb1, qc1 = _epr_pair(z[:, 2], z[:, 3], config.V, +1.0)
    pb1, pc1 = _epr_pair(z[:, 4], z[:, 5], config.V, -1.0)
    qe1, pe1 = math.sqrt(W) * z[:, 6], math.sqrt(W) * z[:, 7]
    qe2, pe2 = math.sqrt(W) * z[:, 8], math.sqrt(W) * z[:, 9]
    qa1 = t * qc1 + r * qe1
    pa1 = t * pc1 + r * pe1
    qb2 = t * (qa1 + qa) + r * qe2
    pb2 = t * (pa1 + pa) + r * pe2
    if config.protocol is Protocol.HOM2:
        return qa[:, None], (qb2 - T * qb1)[:, None]
    # heterodyne on both kept and returned modes, then combine
    q_minus = (qb1 - z[:, 10]) / math.sqrt(2.0)
    p_plus = (pb1 + z[:, 11]) / math.sqrt(2.0)
    q_cap = (qb2 - z[:, 12]) / math.sqrt(2.0)
    p_cap = (pb2 + z[:, 13]) / math.sqrt(2.0)
    xq = q_cap - T * q_minus
    xp = p_cap + T * p_plus
    return np.column_stack([qa, pa]), np.column_stack([xq, xp])

PHASE_SPACE_BLOCKS = {Protocol.HOM: (_one_way_block, 8), Protocol.HET: (_one_way_block, 8),
                      Protocol.HOM2: (_two_way_block, 14), Protocol.HET2: (_two_way_block, 14)}


def phase_space_map(config: SimConfig) -> np.ndarray:
    """(2d, cols) linear map of the reference block from its standard
    normals to (X_A, X_B), read by feeding it the identity."""
    block, cols = PHASE_SPACE_BLOCKS[config.protocol]
    x_a, x_b = block(config, np.eye(cols))
    return np.column_stack([x_a, x_b]).T


# ---------------------------------------------------------------------------
# Monte-Carlo estimator on whole sample arrays
# ---------------------------------------------------------------------------

def sample_arrays(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """All (X_A, X_B) samples of a run: its trajectory blocks concatenated."""
    blocks = list(trajectories(config))
    return (np.concatenate([x_a for x_a, _ in blocks]),
            np.concatenate([x_b for _, x_b in blocks]))


def lstsq_mi(x_a: np.ndarray, x_b: np.ndarray) -> MiEstimate:
    """Gaussian MI estimate in bits from (n, d) sample arrays of X_A and X_B:
    per dimension of X_B, half the log-ratio of `np.var` to the residual
    variance of an `lstsq` fit on [X_A, 1]."""
    n = x_a.shape[0]
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    design = np.column_stack([x_a, np.ones(n)])
    dof = n - design.shape[1]
    bits, capped = 0.0, False
    var, cond_var = [], []
    for j in range(x_b.shape[1]):
        y = x_b[:, j]
        total = float(np.var(y, ddof=1))
        if total <= 0.0:
            raise ValueError("degenerate sample variance in X_B")
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        cond = float(resid @ resid) / dof
        term = 0.5 * math.log2(total / cond) if cond > 0.0 else math.inf
        if term > MI_CAP_BITS:
            term, capped = MI_CAP_BITS, True
        bits += term
        var.append(total)
        cond_var.append(cond)
    return MiEstimate(bits, capped, tuple(var), tuple(cond_var))


# ---------------------------------------------------------------------------
# Tomography probes on whole shot arrays
# ---------------------------------------------------------------------------

def materialised_probe_dataset(channel: GaussianChannel, n_per_probe: int, seed: int,
                               displacements=DEFAULT_PROBE_DISPLACEMENTS
                               ) -> TomographyDataset:
    """The probe dataset of `simulate_probe_dataset` from materialised shots.

    The same normals, all at once from `normal_matrix`, columns 2k and
    2k + 1 for probe k, are mapped through the Cholesky factor of the
    channel's output CM onto whole (n, 2) shot arrays, whose moments are
    taken by `np.mean` and `np.cov`.
    """
    z = normal_matrix(seed, n_per_probe, 2 * len(displacements))
    gain = channel.gain
    chol = np.linalg.cholesky(gain @ gain.T + channel.noise)
    means, cms = [], []
    for k, d in enumerate(displacements):
        shots = gain @ d + channel.displacement + z[:, 2 * k:2 * k + 2] @ chol.T
        means.append(shots.mean(axis=0))
        cms.append(np.cov(shots, rowvar=False))
    return TomographyDataset(np.asarray(displacements, dtype=float), np.array(means),
                             np.array(cms), n_per_probe)


def qr_normal_moments(seed: int, n: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and covariance of the `normal_chunks` stream by streaming
    TSQR: each chunk is folded into the triangular factor R of [1, z]. Row 0
    of R gives the means of z, the rows below it their centred cross
    products."""
    R = None
    for z in normal_chunks(seed, n, cols):
        z = np.column_stack([np.ones(len(z)), z])
        R = np.linalg.qr(z if R is None else np.vstack([R, z]), mode="r")
    return R[0, 1:] / R[0, 0], R[1:, 1:].T @ R[1:, 1:] / (n - 1)


def serial_normal_moments(seed: int, n: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and covariance of the `normal_chunks` stream by the Gram
    fold on one thread: each chunk's column sum and z^T z added in chunk
    order, the additions `rng.normal_moments` makes on any number of CPUs."""
    total, gram = np.zeros(cols), np.zeros((cols, cols))
    for z in normal_chunks(seed, n, cols):
        total += np.ones(len(z)) @ z
        gram += z.T @ z
    mean = total / n
    return mean, (gram - np.outer(total, mean)) / (n - 1)


# ---------------------------------------------------------------------------
# Threshold solve by bisection
# ---------------------------------------------------------------------------

def bisect_threshold(protocol, reconciliation, T: float) -> float:
    """Maximum tolerable excess noise N at transmission T, by bisection.

    Bisects the asymptotic rate on W in [1, W_hi], expanding the bracket by
    doubling until the rate changes sign, down to a width of W_TOL (read
    when called). Raises NumericalFailure if the rate increases with W
    during expansion or is still positive at the last bracket end below
    W_HI_MAX (2^19), where adjacent doubles are still closer than W_TOL.
    """
    protocol, recon = finite_pair(protocol, reconciliation)

    def rate(w: float) -> float:
        return asymptotic_rate(protocol, recon, AttackParams(T, w)).rate

    r_lo = rate(1.0)
    if r_lo <= 0.0:
        return 0.0
    lo, hi = 1.0, 2.0
    r_prev = r_lo
    while True:
        r_hi = rate(hi)
        if r_hi > r_prev + thresholds.MONOTONE_SLACK:
            raise NumericalFailure(
                f"rate not monotone in W for {protocol.value} {recon.value} at "
                f"T={T}: rate({hi}) = {r_hi} > rate at smaller W = {r_prev}")
        if r_hi <= 0.0:
            break
        lo, r_prev = hi, r_hi
        hi *= 2.0
        if hi > thresholds.W_HI_MAX:
            raise NumericalFailure(
                f"no sign change in W up to {lo} for {protocol.value} "
                f"{recon.value} at T={T}")
    while hi - lo > thresholds.W_TOL:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return excess_noise(AttackParams(T, 0.5 * (lo + hi)))
