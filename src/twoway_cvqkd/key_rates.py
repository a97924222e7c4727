"""Secret-key rates for one-way and two-way coherent-state protocols.

Eight protocol variants are covered: homodyne and heterodyne decoding, each
in individual (incoherent detection) and collective (quantum-memory) form,
over one or two uses of the channel per run. For every variant this module
provides the closed-form asymptotic rate (large modulation) and an exact
finite-modulation engine that rebuilds the full output covariance matrices
from the channel model and computes the same rate from Shannon and Holevo
terms, with no asymptotic shortcuts.

The closed forms are one table, (protocol, reconciliation) -> f(T, W, xp),
read by `asymptotic_rate` (xp = math) and, on arrays, by threshold sweeps.

The exact engine works on one joint second-moment matrix over Alice's
classical encoding variables and all output quadratures. Marginals are its
blocks and conditioning on Bob's measurement is a Schur complement of it.
Conditioning on Alice's encoding needs neither: the encoding is an
independent input of the linear map that builds the matrix, so the same
map with that input's variance set to 0 gives the conditional moments,
with no subtraction of O(V) terms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .attacks import AttackParams
from .gaussian import (NumericalFailure, conditional_cov, g_entropy,
                       spectrum_entropies, symplectic_eigenvalues)


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


def finite_pair(protocol, reconciliation) -> tuple[Protocol, Reconciliation]:
    """The (Protocol, Reconciliation) members of a pair whose rate is finite;
    a pair in DIVERGENT_RR under RR raises ValueError with the reason."""
    protocol, recon = Protocol(protocol), Reconciliation(reconciliation)
    if recon is Reconciliation.RR and protocol in DIVERGENT_RR:
        raise ValueError(f"unsupported pair {protocol.value}/{recon.value}: "
                         f"{DIVERGENT_RR_REASON}")
    return protocol, recon


class RateResult(NamedTuple):
    """One rate and the method that computed it. A named tuple rather than a
    frozen dataclass: as immutable, and about three times cheaper to build,
    which counts in threshold solves that make one per rate evaluation."""

    rate: float
    method: Method

    @property
    def divergent(self) -> bool:
        return self.rate == RATE_DIVERGENT


def _require_rate_params(params: AttackParams) -> None:
    if not 0.0 < params.T < 1.0:
        raise ValueError(f"rates require T strictly in (0, 1), got T={params.T}")


# ---------------------------------------------------------------------------
# Closed-form asymptotic rates
# ---------------------------------------------------------------------------
# One formula per (protocol, reconciliation) pair, as a function of (T, W).
# `xp` is the math module for one point or numpy for arrays of points, so
# each formula is written once for both. b1 = (1-T)W + T and e1 = (1-T) + TW
# are Bob's and Eve's output variances conditioned on Alice's encoding.

def _dr_coll_het(T, W, xp):
    return xp.log2(T / (1 - T)) - g_entropy(W)


def _dr_hom(T, W, xp):
    """DR homodyne rate; the collective and individual forms coincide."""
    b1, e1 = (1 - T) * W + T, (1 - T) + T * W
    return (0.5 * xp.log2(T * e1 / ((1 - T) * b1))
            + g_entropy(xp.sqrt(W * b1 / e1)) - g_entropy(W))


def _dr_het(T, W, xp):
    b1 = (1 - T) * W + T
    return (xp.log2(2 * T / (math.e * (1 - T) * (1 + b1)))
            + g_entropy(b1) - g_entropy(W))


def _rr_coll_het(T, W, xp):
    b1 = (1 - T) * W + T
    return xp.log2(1 / (1 - T)) - g_entropy(W) - g_entropy(b1)


def _rr_hom(T, W, xp):
    b1 = (1 - T) * W + T
    return 0.5 * xp.log2(W / ((1 - T) * b1)) - g_entropy(W)


def _rr_het(T, W, xp):
    b1 = (1 - T) * W + T
    return (xp.log2(2 * T / (math.e * (1 - T) * (1 + b1)))
            + g_entropy((1 - T + b1) / T) - g_entropy(W))


def _dr_coll_hom2(T, W, xp):
    """Two-way DR homodyne rate; collective and individual forms coincide."""
    return 0.5 * xp.log2(T / (1 - T) ** 2) - g_entropy(W)


def _dr_het2(T, W, xp):
    return (xp.log2(2 * T * (1 + T)
                    / (math.e * (1 - T) * (1 + T * T + (1 - T * T) * W)))
            - g_entropy(W))


def _rr_hom2(T, W, xp):
    return 0.5 * xp.log2((1 - T + T * T) / (1 - T) ** 2) - g_entropy(W)


def _rr_het2(T, W, xp):
    """The three finite eigenvalues of Eve's conditional spectrum are known
    in closed form only through their product, so they are extracted
    numerically by het2_rr_finite_eigenvalues: one point, or every point
    of a sweep step in one stacked solve. On arrays, a point whose
    extraction fails a check gets NaN, and so does every point of a stack
    with a broken matrix."""
    finite = het2_rr_finite_eigenvalues(T, W)
    return (xp.log2(2 * T * (1 + T)
                    / (math.e * (1 - T) * (1 + T * T + (1 - T * T) * W)))
            + sum(g_entropy(n) for n in finite.T) - 2 * g_entropy(W))


_P, _DR, _RR = Protocol, Reconciliation.DR, Reconciliation.RR
_RATES = {
    (_P.HOM, _DR): _dr_hom,
    (_P.COLL_HOM, _DR): _dr_hom,
    (_P.HET, _DR): _dr_het,
    (_P.COLL_HET, _DR): _dr_coll_het,
    (_P.HOM2, _DR): _dr_coll_hom2,
    (_P.COLL_HOM2, _DR): _dr_coll_hom2,
    (_P.HET2, _DR): _dr_het2,
    (_P.COLL_HET2, _DR): lambda T, W, xp: 2.0 * _dr_coll_hom2(T, W, xp),
    (_P.HOM, _RR): _rr_hom,
    (_P.HET, _RR): _rr_het,
    (_P.COLL_HET, _RR): _rr_coll_het,
    (_P.HOM2, _RR): _rr_hom2,
    (_P.HET2, _RR): _rr_het2,
    **{(p, _RR): (lambda T, W, xp: RATE_DIVERGENT) for p in DIVERGENT_RR},
}


def asymptotic_rate(protocol, reconciliation, params: AttackParams) -> RateResult:
    """Closed-form asymptotic rate for any (protocol, reconciliation) pair.

    Divergent collective RR combinations return the -inf sentinel. A NaN
    rate (W so large that the formula overflows) raises NumericalFailure, as
    does a logarithm whose argument underflows to 0 (T near 1e-320). The
    closed form runs on Python floats, so a numpy float64 T or W gives the
    same rate or the same NumericalFailure, not a numpy overflow warning.
    """
    # members pass as they are: an Enum call costs about a tenth of one
    # rate evaluation of a threshold solve
    if type(protocol) is not Protocol or type(reconciliation) is not Reconciliation:
        protocol, reconciliation = Protocol(protocol), Reconciliation(reconciliation)
    _require_rate_params(params)
    T, W = float(params.T), float(params.W)
    try:
        rate = _RATES[protocol, reconciliation](T, W, math)
    except ValueError as exc:
        raise NumericalFailure(f"{protocol.value} {reconciliation.value} closed form at "
                               f"T={T}, W={W}: {exc}") from exc
    if math.isnan(rate):
        raise NumericalFailure(f"{protocol.value} {reconciliation.value} rate is NaN "
                               f"at T={T}, W={W}: the closed form overflows")
    return RateResult(rate, Method.ASYMPTOTIC)


HET2_RR_V = 1e8
# Relative tolerance of the eigenvalue product check in het2_rr_finite_eigenvalues.
HET2_RR_PRODUCT_TOL = 1e-6


def het2_rr_finite_eigenvalues(T, W) -> np.ndarray:
    """The three finite eigenvalues of Eve's CM conditioned on Bob's
    heterodyne estimators in the two-way protocol.

    Computed from the full conditional spectrum at large modulation; the
    single eigenvalue growing as (1-T^2)V is identified and dropped. The
    finite eigenvalues still carry an O(1/V) truncation tail, which is
    removed by Richardson extrapolation between V = HET2_RR_V/10 and
    HET2_RR_V. The product of the remaining three must match the closed
    form n1 n2 n3 = [1 + T^3 + (1-T)(1+T^2)W] W / (T(1+T)) within
    HET2_RR_PRODUCT_TOL.

    T in (0, 1) and W in [1, inf) are floats (one point) or equal-length
    1-D arrays (k points), checked by the callers. The points at both
    modulations are one (2k, 8, 8) stack of conditional CMs, diagonalised
    in one call. One point gives its three eigenvalues or raises
    NumericalFailure for a broken spectrum (with the spectrum's own
    message), the diverging-eigenvalue check (coarse V, then fine V) or the
    product check. k points give a (k, 3) array with a NaN row for each
    point that fails a check, and NaN in every row if any matrix of the
    stack is broken; a W whose EPR correlation overflows raises for the
    whole stack, as in `two_way_joint`.
    """
    point = np.ndim(T) == 0
    T, W = np.atleast_1d(np.asarray(T, dtype=float), np.asarray(W, dtype=float))
    modulations = np.array([[HET2_RR_V / 10.0], [HET2_RR_V]])   # [coarse, fine]
    stack = SimpleNamespace(T=np.tile(T, 2), W=np.tile(W, 2))
    joint = two_way_joint(np.repeat(modulations, T.size), stack)
    rows, noise, _ = _bob_measurement(Protocol.HET2, joint, stack)
    cond = conditional_cov(joint.sigma, joint.ix["E"], rows, noise)
    try:
        nus = symplectic_eigenvalues(cond).reshape(2, T.size, 4)   # Eve's 4 modes
    except ValueError as exc:
        if point:
            raise NumericalFailure(f"het2 RR conditional CM: {exc}") from exc
        return np.full((T.size, 3), np.nan)
    diverging = (1 - T ** 2) * modulations
    expected = (1 + T ** 3 + (1 - T) * (1 + T * T) * W) * W / (T * (1 + T))
    off = np.abs(nus[..., 0] - diverging) > 0.01 * diverging
    finite = np.clip((10.0 * nus[1, :, 1:] - nus[0, :, 1:]) / 9.0, 1.0, None)
    with np.errstate(over="ignore", invalid="ignore"):   # overflow fails the check
        product = np.prod(finite, axis=-1)
        deviates = ~(np.abs(product - expected) <= HET2_RR_PRODUCT_TOL * expected)
    if not point:
        finite[off.any(axis=0) | deviates] = np.nan
        return finite
    for s in range(2):
        if off[s, 0]:
            raise NumericalFailure(
                f"largest conditional eigenvalue {nus[s, 0, 0]} is not within 1% "
                f"of the expected diverging value {diverging[s, 0]}"
            )
    if deviates[0]:
        raise NumericalFailure(
            f"eigenvalue product {product[0]} deviates from closed form {expected[0]} "
            f"beyond relative tolerance {HET2_RR_PRODUCT_TOL}"
        )
    return finite[0]


# ---------------------------------------------------------------------------
# Exact finite-modulation engine
# ---------------------------------------------------------------------------

# Largest variance whose square, in an EPR correlation, is finite.
_SQRT_MAX = math.sqrt(sys.float_info.max)


def _epr_correlation(x):
    """sqrt(x^2 - 1), the correlation of an EPR pair of variance x (a float
    or an array). Raises NumericalFailure where x^2 would overflow, before
    any joint moment is built from it."""
    below = x < _SQRT_MAX   # on a float, numpy's all() costs ~1% of an exact rate
    if not (below if isinstance(below, bool) else below.all()):
        raise NumericalFailure(f"EPR variance {x} overflows: joint moments need "
                               f"V and W below {_SQRT_MAX:.4g}")
    return np.sqrt(x * x - 1.0)


@dataclass(frozen=True)
class JointMoments:
    """Second moments over Alice's classical encoding and all quadratures.

    `sigma` is the full joint covariance, m @ sigma_in @ m.T: `m` maps the
    independent inputs, whose covariance is `sigma_in`, to the outputs.
    Inputs 0 and 1 are Alice's encoding (Q_A, P_A), of variance V - 1
    each. `ix` maps block names to index lists: "cl" for the classical
    encoding (Q_A, P_A), "B" for Bob's output mode(s), "E" for all of Eve's
    output modes, plus named scalar quadrature indices ("qa", "qB1", ...).
    """

    sigma: np.ndarray
    ix: dict
    m: np.ndarray
    sigma_in: np.ndarray

    @staticmethod
    def revealed(protocol: Protocol) -> list[int]:
        """Inputs, and their "cl" outputs, that `protocol` reveals of Alice's
        encoding: Q_A for homodyne decoding, Q_A and P_A for heterodyne."""
        return [0, 1] if protocol.joint_decoding else [0]

    def given_alice(self, protocol: Protocol) -> np.ndarray:
        """A single joint's covariance given the inputs Alice reveals: they
        are independent of all others, so their variance is set to 0."""
        revealed = self.revealed(protocol)
        sigma_in = self.sigma_in.copy()
        sigma_in[revealed, revealed] = 0.0
        return self.m @ sigma_in @ self.m.T

    def input_factor(self) -> np.ndarray:
        """Lower-triangular L with L @ L.T = sigma_in, for a single joint.

        Every input is independent or one half of a pure EPR pair (x, c),
        c^2 = x^2 - 1, whose later half has conditional standard deviation
        exactly 1/sqrt(x). Written so, L stays exact at any x, including
        where sigma_in has rounded c to x and a Cholesky factorization of
        it breaks down."""
        x = np.diag(self.sigma_in)
        L = np.diag(np.sqrt(x))
        for i, j in np.argwhere(np.triu(self.sigma_in, 1)):
            L[j, i] = self.sigma_in[i, j] / np.sqrt(x[i])
            L[j, j] = 1.0 / np.sqrt(x[j])
        return L


def one_way_joint(V: float, params: AttackParams) -> JointMoments:
    """Joint moments of the one-way protocol outputs.

    Variable order: [Q_A, P_A, Q_B, P_B, Q_E', P_E', Q_E'', P_E''], built by
    propagating (encoding + signal vacuum) and Eve's EPR(W) pair through the
    cloner beam splitter. A W whose EPR correlation overflows raises
    NumericalFailure.
    """
    T, W = params.T, params.W
    vbar = V - 1.0
    t, r = math.sqrt(T), math.sqrt(1.0 - T)
    w = _epr_correlation(W)
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
    return JointMoments(sigma, ix, m, sigma_in)


def two_way_joint(V, params) -> JointMoments:
    """Joint moments of the two-way protocol outputs.

    Bob's EPR(V) pair (B1 kept, C1 sent) passes through a cloner, Alice adds
    her encoding displacement (classical variance V - 1 per quadrature),
    and the mode returns through a second identical cloner. Variable order:
    [Q_A, P_A, B1, B2, E1', E1'', E2', E2''] with (Q, P) per mode.

    V, params.T and params.W are floats, or equal-length 1-D arrays for a
    stack of joints (sigma of shape (k, 14, 14)). A V or W whose EPR
    correlation overflows raises NumericalFailure, for a whole stack.
    """
    T, W = params.T, params.W
    vbar = V - 1.0
    t, r = np.sqrt(T), np.sqrt(1.0 - T)
    v = _epr_correlation(V)
    w = _epr_correlation(W)
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
    sigma = m @ sigma_in @ np.swapaxes(m, -1, -2)
    ix = {
        "cl": [0, 1], "qa": 0, "pa": 1,
        "B": [2, 3, 4, 5], "qB1": 2, "pB1": 3, "qB2": 4, "pB2": 5,
        "E": [6, 7, 8, 9, 10, 11, 12, 13],
        "BE": list(range(2, 14)),
    }
    return JointMoments(sigma, ix, m, sigma_in)


# Largest modulation the exact engine accepts. Outside the one-way DR rates,
# terms of size V cancel (Bob's EPR(V) correlation in the two-way joints,
# the RR Schur complement on Bob's measurement, S(B) + S(E) - S(BE)), so
# the rates lose precision in proportion to machine epsilon times V.
EXACT_V_MAX = 1e12


def _joint_for(protocol: Protocol, V: float, params: AttackParams) -> JointMoments:
    """The protocol's joint moments. A V outside (1, inf) raises ValueError.
    A V above EXACT_V_MAX raises NumericalFailure, checked after the build
    so that a V whose EPR correlation overflows keeps that error."""
    if not 1.0 < V < math.inf:
        raise ValueError(f"modulation variance must be finite and exceed 1, got V={V}")
    joint = two_way_joint(V, params) if protocol.two_way else one_way_joint(V, params)
    if V > EXACT_V_MAX:
        raise NumericalFailure(f"modulation variance V={V:g} is above the exact "
                               f"engine's limit of {EXACT_V_MAX:g}, beyond which "
                               f"its rates lose their precision")
    return joint


def _bob_measurement(protocol: Protocol, joint: JointMoments,
                     params: AttackParams):
    """Rows, ancilla-noise covariance and labels of Bob's decoding variables.

    The rows act on the joint variable vector; heterodyne vacuum ancillas
    enter as independent observation noise. Normalizations follow the
    protocol definitions (2^{-1/2} combining for heterodyne outputs,
    Q_B2 - T Q_B1 for the two-way homodyne estimator). With params.T an
    array (a stack of joints), the rows and the noise stack alike.
    """
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
    if protocol in (Protocol.HET2, Protocol.COLL_HET2):
        return (rows({"qB2": 1 / s2, "qB1": -T / s2}, {"pB2": 1 / s2, "pB1": T / s2}),
                np.multiply.outer((1 + T * T) / 2, np.eye(2)), ["Q", "P"])
    raise ValueError(f"no measurement model for protocol {protocol}")


def shannon_terms(protocol, V: float,
                  params: AttackParams) -> list[tuple[str, float, float]]:
    """Per-dimension (label, total variance, conditional variance) of Bob's
    decoding variable, conditioned on Alice's corresponding encoding."""
    protocol = Protocol(protocol)
    if protocol.collective:
        raise ValueError("Shannon terms are defined for individual protocols only")
    joint = _joint_for(protocol, V, params)
    return _shannon_terms(joint, joint.given_alice(protocol),
                          *_bob_measurement(protocol, joint, params))


def _shannon_terms(joint: JointMoments, given: np.ndarray, rows: np.ndarray,
                   noise: np.ndarray, labels: list) -> list[tuple[str, float, float]]:
    total = rows @ joint.sigma @ rows.T + noise
    cond = rows @ given @ rows.T + noise
    return [(lab, float(total[i, i]), float(cond[i, i]))
            for i, lab in enumerate(labels)]


def mi_from_terms(terms) -> float:
    """Gaussian mutual information in bits, sum of (1/2) log2(v/c) over the
    (label, total variance, conditional variance) terms.

    A conditional variance that is not positive and finite means the
    variances cancelled beyond double precision (very large V), and raises
    NumericalFailure.
    """
    bits = 0.0
    for label, v, c in terms:
        if not 0.0 < c < math.inf:
            raise NumericalFailure(f"conditional variance of {label} is {c}: "
                                   f"lost to cancellation at this modulation")
        bits += 0.5 * math.log2(v / c)
    return bits


def exact_rate(protocol, reconciliation, V: float, params: AttackParams) -> RateResult:
    """Exact finite-modulation secret-key rate.

    Builds the joint output moments, takes Shannon mutual information from
    scalar variances and Holevo terms from symplectic spectra; the
    equal-size blocks of the rate, [E, E|A], [E, E|B] or [B, B|A], share
    one spectrum call. Conditioning on Alice's encoding is
    `JointMoments.given_alice`; reverse reconciliation conditions Eve on
    Bob's measured variables by a Schur complement. Divergent collective
    RR combinations return the -inf sentinel. V must be in
    (1, EXACT_V_MAX]; a larger V raises NumericalFailure, as does a
    spectrum of the engine's own matrices that fails its checks (at
    extreme T, W or V).
    """
    protocol = Protocol(protocol)
    recon = Reconciliation(reconciliation)
    _require_rate_params(params)
    if recon is Reconciliation.RR and protocol in DIVERGENT_RR:
        return RateResult(RATE_DIVERGENT, Method.EXACT_FINITE_V)
    joint = _joint_for(protocol, V, params)
    ix = joint.ix
    given = joint.given_alice(protocol)

    def block(sigma: np.ndarray, name: str) -> np.ndarray:
        # the "B", "E" and "BE" blocks are contiguous index ranges
        span = slice(ix[name][0], ix[name][-1] + 1)
        return sigma[span, span]

    def entropies(*cms: np.ndarray) -> list[float]:
        return spectrum_entropies(symplectic_eigenvalues(np.stack(cms)))

    try:
        if protocol.collective:
            s_b, s_b_given = entropies(block(joint.sigma, "B"), block(given, "B"))
            i_ab = s_b - s_b_given
            if recon is Reconciliation.DR:
                s_e, s_e_given = entropies(block(joint.sigma, "E"), block(given, "E"))
                rate = i_ab - (s_e - s_e_given)
            else:  # only COLL_HET reaches this branch
                [s_e] = entropies(block(joint.sigma, "E"))
                [s_be] = entropies(block(joint.sigma, "BE"))
                rate = i_ab - (s_b + s_e - s_be)
        else:
            rows, noise, labels = _bob_measurement(protocol, joint, params)
            # Eve's Holevo information on Alice's encoding (DR) or Bob's decoding (RR)
            e_given = (block(given, "E") if recon is Reconciliation.DR
                       else conditional_cov(joint.sigma, ix["E"], rows, noise))
            s_e, s_e_given = entropies(block(joint.sigma, "E"), e_given)
            i_ab = mi_from_terms(_shannon_terms(joint, given, rows, noise, labels))
            rate = i_ab - (s_e - s_e_given)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise NumericalFailure(f"{protocol.value} {recon.value} spectrum at T={params.T}, "
                               f"W={params.W}, V={V}: {exc}") from exc
    return RateResult(float(rate), Method.EXACT_FINITE_V)
