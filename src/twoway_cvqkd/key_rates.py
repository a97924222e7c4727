"""Secret-key rates for one-way and two-way coherent-state protocols.

Eight protocol variants are covered: homodyne and heterodyne decoding, each
in individual (incoherent detection) and collective (quantum-memory) form,
over one or two uses of the channel per run. For every variant this module
provides the closed-form asymptotic rate (large modulation) and an exact
finite-modulation engine that rebuilds the full output covariance matrices
from the channel model and computes the same rate from Shannon and Holevo
terms, with no asymptotic shortcuts.

The exact engine works on one joint second-moment matrix over Alice's
classical encoding variables and all output quadratures; marginals,
measurement conditioning and classical conditioning are all Schur
complements of that matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .attacks import AttackParams
from .gaussian import (conditional_cov, g_entropy, symplectic_eigenvalues,
                       von_neumann_entropy)


class NumericalFailure(RuntimeError):
    """A numeric consistency check failed (bracket, monotonicity, spectrum)."""


class Protocol(str, Enum):
    HOM = "hom"
    HET = "het"
    COLL_HOM = "coll_hom"
    COLL_HET = "coll_het"
    HOM2 = "hom2"
    HET2 = "het2"
    COLL_HOM2 = "coll_hom2"
    COLL_HET2 = "coll_het2"

    @property
    def two_way(self) -> bool:
        return self in (Protocol.HOM2, Protocol.HET2, Protocol.COLL_HOM2,
                        Protocol.COLL_HET2)

    @property
    def collective(self) -> bool:
        return self in (Protocol.COLL_HOM, Protocol.COLL_HET, Protocol.COLL_HOM2,
                        Protocol.COLL_HET2)

    @property
    def joint_decoding(self) -> bool:
        """Heterodyne-type protocols encode/decode both quadratures."""
        return self in (Protocol.HET, Protocol.COLL_HET, Protocol.HET2,
                        Protocol.COLL_HET2)


class Reconciliation(str, Enum):
    DR = "dr"
    RR = "rr"


class Method(str, Enum):
    ASYMPTOTIC = "asymptotic"
    EXACT_FINITE_V = "exact"


RATE_DIVERGENT = float("-inf")

# Collective protocols whose RR rate diverges to -infinity.
DIVERGENT_RR = frozenset({Protocol.COLL_HOM, Protocol.COLL_HOM2, Protocol.COLL_HET2})
DIVERGENT_RR_REASON = ("reverse reconciliation diverges for this collective "
                       "protocol: the quantum mutual information I(B:E) is too "
                       "large a bound on Eve's information")


@dataclass(frozen=True)
class RateResult:
    protocol: Protocol
    reconciliation: Reconciliation
    rate: float
    method: Method
    params: AttackParams
    V: float | None = None

    @property
    def divergent(self) -> bool:
        return self.rate == RATE_DIVERGENT


def _require_rate_params(params: AttackParams) -> None:
    if not 0.0 < params.T < 1.0:
        raise ValueError(f"rates require T strictly in (0, 1), got T={params.T}")


@dataclass(frozen=True)
class OneWayCoefficients:
    """Variances and correlations of the one-way output state.

    b_V and e_V are Bob's and Eve's total output variances, b1 and e1 the
    same conditioned on Alice's encoding; phi, mu, theta are the
    cross-correlations appearing in the joint output CM.
    """

    b_V: float
    e_V: float
    b1: float
    e1: float
    phi: float
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
            phi=math.sqrt(T * (W * W - 1)),
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


# ---------------------------------------------------------------------------
# Closed-form asymptotic rates
# ---------------------------------------------------------------------------

def _result(protocol: Protocol, recon: Reconciliation, rate: float,
            params: AttackParams) -> RateResult:
    return RateResult(protocol, recon, rate, Method.ASYMPTOTIC, params)


def rate_dr_coll_het(params: AttackParams) -> RateResult:
    """DR rate of the collective heterodyne protocol: log T/(1-T) - g(W)."""
    _require_rate_params(params)
    T, W = params.T, params.W
    rate = math.log2(T / (1 - T)) - g_entropy(W)
    return _result(Protocol.COLL_HET, Reconciliation.DR, rate, params)


def rate_dr_hom(params: AttackParams) -> RateResult:
    """DR homodyne rate; the collective and individual forms coincide."""
    _require_rate_params(params)
    T, W = params.T, params.W
    c = OneWayCoefficients.evaluate(1.0, params)
    rate = (0.5 * math.log2(T * c.e1 / ((1 - T) * c.b1))
            + g_entropy(math.sqrt(W * c.b1 / c.e1)) - g_entropy(W))
    return _result(Protocol.HOM, Reconciliation.DR, rate, params)


def rate_dr_het(params: AttackParams) -> RateResult:
    _require_rate_params(params)
    T, W = params.T, params.W
    b1 = OneWayCoefficients.evaluate(1.0, params).b1
    rate = (math.log2(2 * T / (math.e * (1 - T) * (1 + b1)))
            + g_entropy(b1) - g_entropy(W))
    return _result(Protocol.HET, Reconciliation.DR, rate, params)


def rate_rr_coll_het(params: AttackParams) -> RateResult:
    _require_rate_params(params)
    T, W = params.T, params.W
    b1 = OneWayCoefficients.evaluate(1.0, params).b1
    rate = math.log2(1 / (1 - T)) - g_entropy(W) - g_entropy(b1)
    return _result(Protocol.COLL_HET, Reconciliation.RR, rate, params)


def rate_rr_hom(params: AttackParams) -> RateResult:
    _require_rate_params(params)
    T, W = params.T, params.W
    b1 = OneWayCoefficients.evaluate(1.0, params).b1
    rate = 0.5 * math.log2(W / ((1 - T) * b1)) - g_entropy(W)
    return _result(Protocol.HOM, Reconciliation.RR, rate, params)


def rate_rr_het(params: AttackParams) -> RateResult:
    _require_rate_params(params)
    T, W = params.T, params.W
    b1 = OneWayCoefficients.evaluate(1.0, params).b1
    rate = (math.log2(2 * T / (math.e * (1 - T) * (1 + b1)))
            + g_entropy((1 - T + b1) / T) - g_entropy(W))
    return _result(Protocol.HET, Reconciliation.RR, rate, params)


def rate_dr_coll_hom2(params: AttackParams) -> RateResult:
    """Two-way DR homodyne rate; collective and individual forms coincide."""
    _require_rate_params(params)
    T, W = params.T, params.W
    rate = 0.5 * math.log2(T / (1 - T) ** 2) - g_entropy(W)
    return _result(Protocol.COLL_HOM2, Reconciliation.DR, rate, params)


def rate_dr_coll_het2(params: AttackParams) -> RateResult:
    """Exactly twice the two-way collective homodyne DR rate."""
    base = rate_dr_coll_hom2(params)
    return _result(Protocol.COLL_HET2, Reconciliation.DR, 2.0 * base.rate, params)


def rate_dr_het2(params: AttackParams) -> RateResult:
    _require_rate_params(params)
    T, W = params.T, params.W
    rate = (math.log2(2 * T * (1 + T)
                      / (math.e * (1 - T) * (1 + T * T + (1 - T * T) * W)))
            - g_entropy(W))
    return _result(Protocol.HET2, Reconciliation.DR, rate, params)


def rate_rr_hom2(params: AttackParams) -> RateResult:
    _require_rate_params(params)
    T, W = params.T, params.W
    rate = 0.5 * math.log2((1 - T + T * T) / (1 - T) ** 2) - g_entropy(W)
    return _result(Protocol.HOM2, Reconciliation.RR, rate, params)


def rate_rr_het2(params: AttackParams) -> RateResult:
    """Two-way individual heterodyne RR rate.

    The three finite eigenvalues of Eve's conditional spectrum are known in
    closed form only through their product, so they are extracted
    numerically at very large modulation and validated against the product
    formula before entering the rate.
    """
    _require_rate_params(params)
    T, W = params.T, params.W
    finite = het2_rr_finite_eigenvalues(params)
    rate = (math.log2(2 * T * (1 + T)
                      / (math.e * (1 - T) * (1 + T * T + (1 - T * T) * W)))
            + sum(g_entropy(n) for n in finite) - 2 * g_entropy(W))
    return _result(Protocol.HET2, Reconciliation.RR, rate, params)


def het2_rr_finite_eigenvalues(params: AttackParams, V: float = 1e8,
                               rel_tol: float = 1e-6) -> np.ndarray:
    """The three finite eigenvalues of Eve's CM conditioned on Bob's
    heterodyne estimators in the two-way protocol.

    Computed from the full conditional spectrum at large modulation; the
    single eigenvalue growing as (1-T^2)V is identified and dropped. The
    finite eigenvalues still carry an O(1/V) truncation tail, which is
    removed by Richardson extrapolation between V/10 and V. The product of
    the remaining three must match the closed form within `rel_tol` or a
    NumericalFailure is raised.
    """
    _require_rate_params(params)

    def finite_at(v: float) -> np.ndarray:
        joint = two_way_joint(v, params)
        rows, noise, _ = _bob_measurement(Protocol.HET2, joint, params)
        cond = conditional_cov(joint.sigma, joint.ix["E"], rows, noise)
        nus = symplectic_eigenvalues(cond)
        diverging = (1 - params.T ** 2) * v
        if abs(nus[0] - diverging) > 0.01 * diverging:
            raise NumericalFailure(
                f"largest conditional eigenvalue {nus[0]} is not within 1% of "
                f"the expected diverging value {diverging}"
            )
        return nus[1:]

    coarse, fine = finite_at(V / 10.0), finite_at(V)
    finite = np.clip((10.0 * fine - coarse) / 9.0, 1.0, None)
    expected = TwoWayCoefficients.evaluate(V, params).n_product
    product = float(np.prod(finite))
    if abs(product - expected) > rel_tol * expected:
        raise NumericalFailure(
            f"eigenvalue product {product} deviates from closed form {expected} "
            f"beyond relative tolerance {rel_tol}"
        )
    return finite


_DR_FORMS = {
    Protocol.HOM: rate_dr_hom,
    Protocol.COLL_HOM: rate_dr_hom,
    Protocol.HET: rate_dr_het,
    Protocol.COLL_HET: rate_dr_coll_het,
    Protocol.HOM2: rate_dr_coll_hom2,
    Protocol.COLL_HOM2: rate_dr_coll_hom2,
    Protocol.HET2: rate_dr_het2,
    Protocol.COLL_HET2: rate_dr_coll_het2,
}

_RR_FORMS = {
    Protocol.HOM: rate_rr_hom,
    Protocol.HET: rate_rr_het,
    Protocol.COLL_HET: rate_rr_coll_het,
    Protocol.HOM2: rate_rr_hom2,
    Protocol.HET2: rate_rr_het2,
}


def asymptotic_rate(protocol, reconciliation, params: AttackParams) -> RateResult:
    """Closed-form asymptotic rate for any (protocol, reconciliation) pair.

    Divergent collective RR combinations return the -inf sentinel.
    """
    protocol = Protocol(protocol)
    recon = Reconciliation(reconciliation)
    if recon is Reconciliation.DR:
        result = _DR_FORMS[protocol](params)
    elif protocol in DIVERGENT_RR:
        _require_rate_params(params)
        return RateResult(protocol, recon, RATE_DIVERGENT, Method.ASYMPTOTIC, params)
    else:
        result = _RR_FORMS[protocol](params)
    return replace(result, protocol=protocol, reconciliation=recon)


# ---------------------------------------------------------------------------
# Exact finite-modulation engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointMoments:
    """Second moments over Alice's classical encoding and all quadratures.

    `sigma` is the full joint covariance; `ix` maps block names to index
    lists: "cl" for the classical encoding (Q_A, P_A), "B" for Bob's
    output mode(s), "E" for all of Eve's output modes, plus named scalar
    quadrature indices ("qa", "qB1", ...).
    """

    sigma: np.ndarray
    ix: dict


def one_way_joint(V: float, params: AttackParams) -> JointMoments:
    """Joint moments of the one-way protocol outputs.

    Variable order: [Q_A, P_A, Q_B, P_B, Q_E', P_E', Q_E'', P_E''], built by
    propagating (encoding + signal vacuum) and Eve's EPR(W) pair through the
    cloner beam splitter.
    """
    if not 1.0 < V < math.inf:
        raise ValueError(f"modulation variance must be finite and exceed 1, got V={V}")
    T, W = params.T, params.W
    vbar = V - 1.0
    t, r = math.sqrt(T), math.sqrt(1.0 - T)
    w = math.sqrt(W * W - 1.0)
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
    sigma = m @ sigma_in @ m.T
    ix = {
        "cl": [0, 1], "qa": 0, "pa": 1,
        "B": [2, 3], "qB": 2, "pB": 3,
        "E": [4, 5, 6, 7],
        "BE": [2, 3, 4, 5, 6, 7],
    }
    return JointMoments(sigma, ix)


def two_way_joint(V: float, params: AttackParams,
                  vbar: float | None = None) -> JointMoments:
    """Joint moments of the two-way protocol outputs.

    Bob's EPR(V) pair (B1 kept, C1 sent) passes through a cloner, Alice adds
    her encoding displacement (classical variance vbar per quadrature,
    default V - 1 for identical resources), and the mode returns through a
    second identical cloner. Variable order:
    [Q_A, P_A, B1, B2, E1', E1'', E2', E2''] with (Q, P) per mode.
    """
    if not 1.0 < V < math.inf:
        raise ValueError(f"modulation variance must be finite and exceed 1, got V={V}")
    if vbar is None:
        vbar = V - 1.0
    if vbar <= 0:
        raise ValueError(f"encoding variance must be positive, got {vbar}")
    T, W = params.T, params.W
    t, r = math.sqrt(T), math.sqrt(1.0 - T)
    v = math.sqrt(V * V - 1.0)
    w = math.sqrt(W * W - 1.0)
    # inputs: qa, pa, B1(2), C1(2), E1(2), E1''(2), E2(2), E2''(2)
    sigma_in = np.diag([vbar, vbar, V, V, V, V, W, W, W, W, W, W, W, W])
    for base, corr in ((2, v), (6, w), (10, w)):
        sigma_in[base, base + 2] = sigma_in[base + 2, base] = corr
        sigma_in[base + 1, base + 3] = sigma_in[base + 3, base + 1] = -corr
    m = np.zeros((14, 14))
    m[0, 0] = m[1, 1] = 1.0
    for k in range(2):
        qa, qC1, qE1, qE2 = 0 + k, 4 + k, 6 + k, 10 + k
        m[2 + k, 2 + k] = 1.0                                     # B1 kept
        # B2 = sqrt(T) (A1 + encoding) + sqrt(1-T) E2, A1 = sqrt(T) C1 + sqrt(1-T) E1
        m[4 + k, [qa, qC1, qE1, qE2]] = [t, T, t * r, r]
        m[6 + k, [qC1, qE1]] = [-r, t]                            # E1'
        m[8 + k, 8 + k] = 1.0                                     # E1''
        m[10 + k, [qa, qC1, qE1, qE2]] = [-r, -r * t, -r * r, t]  # E2'
        m[12 + k, 12 + k] = 1.0                                   # E2''
    sigma = m @ sigma_in @ m.T
    ix = {
        "cl": [0, 1], "qa": 0, "pa": 1,
        "B": [2, 3, 4, 5], "qB1": 2, "pB1": 3, "qB2": 4, "pB2": 5,
        "E": [6, 7, 8, 9, 10, 11, 12, 13],
        "BE": list(range(2, 14)),
    }
    return JointMoments(sigma, ix)


def _joint_for(protocol: Protocol, V: float, params: AttackParams,
               vbar: float | None = None) -> JointMoments:
    if protocol.two_way:
        return two_way_joint(V, params, vbar)
    return one_way_joint(V, params)


def _bob_measurement(protocol: Protocol, joint: JointMoments,
                     params: AttackParams):
    """Rows, ancilla-noise covariance and labels of Bob's decoding variables.

    The rows act on the joint variable vector; heterodyne vacuum ancillas
    enter as independent observation noise. Normalizations follow the
    protocol definitions (2^{-1/2} combining for heterodyne outputs,
    Q_B2 - T Q_B1 for the two-way homodyne estimator).
    """
    n = joint.sigma.shape[0]
    T = params.T
    s2 = math.sqrt(2.0)

    def row(coeffs: dict) -> np.ndarray:
        out = np.zeros(n)
        for name, c in coeffs.items():
            out[joint.ix[name]] = c
        return out

    if protocol in (Protocol.HOM, Protocol.COLL_HOM):
        return np.array([row({"qB": 1.0})]), np.zeros((1, 1)), ["Q"]
    if protocol in (Protocol.HET, Protocol.COLL_HET):
        rows = np.array([row({"qB": 1 / s2}), row({"pB": 1 / s2})])
        return rows, 0.5 * np.eye(2), ["Q", "P"]
    if protocol in (Protocol.HOM2, Protocol.COLL_HOM2):
        return (np.array([row({"qB2": 1.0, "qB1": -T})]), np.zeros((1, 1)), ["Q"])
    if protocol in (Protocol.HET2, Protocol.COLL_HET2):
        rows = np.array([
            row({"qB2": 1 / s2, "qB1": -T / s2}),
            row({"pB2": 1 / s2, "pB1": T / s2}),
        ])
        return rows, ((1 + T * T) / 2) * np.eye(2), ["Q", "P"]
    raise ValueError(f"no measurement model for protocol {protocol}")


def _encoding_rows(protocol: Protocol, joint: JointMoments) -> np.ndarray:
    """Rows selecting the classical variables revealed by Alice's encoding."""
    n = joint.sigma.shape[0]
    idxs = [joint.ix["qa"]] if not protocol.joint_decoding else joint.ix["cl"]
    rows = np.zeros((len(idxs), n))
    for r, i in enumerate(idxs):
        rows[r, i] = 1.0
    return rows


def shannon_terms(protocol, V: float, params: AttackParams,
                  vbar: float | None = None) -> list[tuple[str, float, float]]:
    """Per-dimension (label, total variance, conditional variance) of Bob's
    decoding variable, conditioned on Alice's corresponding encoding."""
    protocol = Protocol(protocol)
    if protocol.collective:
        raise ValueError("Shannon terms are defined for individual protocols only")
    joint = _joint_for(protocol, V, params, vbar)
    rows, noise, labels = _bob_measurement(protocol, joint, params)
    enc = _encoding_rows(protocol, joint)
    total = rows @ joint.sigma @ rows.T + noise
    cross = rows @ joint.sigma @ enc.T
    s_cl = enc @ joint.sigma @ enc.T
    cond = total - cross @ np.linalg.inv(s_cl) @ cross.T
    return [(lab, float(total[i, i]), float(cond[i, i]))
            for i, lab in enumerate(labels)]


def shannon_mi(protocol, V: float, params: AttackParams,
               vbar: float | None = None) -> float:
    """Mutual information I(X_A:X_B) of the individual protocols."""
    return sum(0.5 * math.log2(v / c) for _, v, c in shannon_terms(protocol, V, params, vbar))


def exact_rate(protocol, reconciliation, V: float, params: AttackParams,
               vbar: float | None = None) -> RateResult:
    """Exact finite-modulation secret-key rate.

    Builds the joint output moments, takes Shannon mutual information from
    scalar variances and Holevo terms from symplectic spectra, with
    reverse-reconciliation conditioning done by general Gaussian
    conditioning on Bob's measured variables. Divergent collective RR
    combinations return the -inf sentinel.
    """
    protocol = Protocol(protocol)
    recon = Reconciliation(reconciliation)
    _require_rate_params(params)
    if recon is Reconciliation.RR and protocol in DIVERGENT_RR:
        return RateResult(protocol, recon, RATE_DIVERGENT, Method.EXACT_FINITE_V,
                          params, V)
    joint = _joint_for(protocol, V, params, vbar)
    sigma, ix = joint.sigma, joint.ix
    enc = _encoding_rows(protocol, joint)

    def block(name: str) -> np.ndarray:
        return sigma[np.ix_(ix[name], ix[name])]

    if protocol.collective:
        i_ab = (von_neumann_entropy(block("B"))
                - von_neumann_entropy(conditional_cov(sigma, ix["B"], enc)))
        if recon is Reconciliation.DR:
            i_ae = (von_neumann_entropy(block("E"))
                    - von_neumann_entropy(conditional_cov(sigma, ix["E"], enc)))
            rate = i_ab - i_ae
        else:  # only COLL_HET reaches this branch
            i_be = (von_neumann_entropy(block("B")) + von_neumann_entropy(block("E"))
                    - von_neumann_entropy(block("BE")))
            rate = i_ab - i_be
    else:
        i_ab = shannon_mi(protocol, V, params, vbar)
        # Eve's Holevo information on Alice's encoding (DR) or Bob's decoding (RR)
        if recon is Reconciliation.DR:
            rows, noise = enc, None
        else:
            rows, noise, _ = _bob_measurement(protocol, joint, params)
        i_e = (von_neumann_entropy(block("E"))
               - von_neumann_entropy(conditional_cov(sigma, ix["E"], rows, noise)))
        rate = i_ab - i_e
    return RateResult(protocol, recon, float(rate), Method.EXACT_FINITE_V, params, V)


# Fixed asymptotically-optimal linear-estimator coefficients for RR, used as
# an independent cross-check of the general Gaussian conditioning.
def rr_conditional_entropy_estimator(protocol, V: float, params: AttackParams,
                                     vbar: float | None = None) -> float:
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
    joint = _joint_for(protocol, V, params, vbar)
    rows, noise, _ = _bob_measurement(protocol, joint, params)
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
    joint = _joint_for(protocol_hom, V, params)
    idx = joint.ix[target]
    if conditioning == "none":
        block = joint.sigma[np.ix_(idx, idx)]
        return symplectic_eigenvalues(block)
    if conditioning in ("qa", "qa_pa"):
        proto = protocol_hom if conditioning == "qa" else protocol_het
        rows = _encoding_rows(proto, joint)
        return symplectic_eigenvalues(conditional_cov(joint.sigma, idx, rows))
    if conditioning in ("hom_b", "het_b"):
        proto = protocol_hom if conditioning == "hom_b" else protocol_het
        rows, noise, _ = _bob_measurement(proto, joint, params)
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
