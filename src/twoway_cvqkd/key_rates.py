"""Secret-key rates for one-way and two-way coherent-state protocols.

Eight protocol variants are covered: homodyne and heterodyne decoding, each
in individual (incoherent detection) and collective (quantum-memory) form,
over one or two uses of the channel per run. For every variant this module
provides the closed-form asymptotic rate (large modulation) and an exact
finite-modulation engine that rebuilds the full output covariance matrices
from the channel model and computes the same rate from Shannon and Holevo
terms, with no asymptotic shortcuts.

The closed forms are one table, (protocol, reconciliation) -> f(T, W, xp),
read by `asymptotic_rate` and threshold solves (xp = math), by sweeps (numpy).

The exact engine works on a square-root factor G of the joint second
moments over Alice's classical encoding and all output quadratures: G maps
independent unit normals to them. Conditioning on Alice's encoding zeroes
its inputs' columns, on Bob's measurement takes one Householder reflection,
and spectra are singular values, so no terms of size V are subtracted.
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
    """One rate and the method that computed it."""

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


@np.errstate(all="ignore")
def _rr_het2(T, W, xp):
    """Eve's finite conditional eigenvalues W, n2, n3 in the factored,
    W-scaled closed form of tests/oracles.het2_rr_closed_form, which
    decides every rate outside the band. A rate that is not finite or lies
    within HET2_RR_BAND of 0 is the numeric rate of
    `het2_rr_finite_eigenvalues`, whose signs the RR reference
    benchmark/reference/figure_bundle_rr.csv pins: its measured error is
    far below the band (see HET2_RR_BAND), so the two rates agree in sign
    outside it. One point is a one-row stack, so its rate is bitwise its
    row in any stack, and it raises the numeric failure of its point. On
    arrays, a failed point is NaN, and so is every point of a broken
    numeric sub-stack."""
    t, w = np.reshape(T, -1), np.reshape(W, -1)
    D = t * (1 + t)
    d = (1 - t) * ((1 - t) * (1 + t) + (1 + t * t) / w)
    p = (1 + t ** 3) / w + (1 - t) * (1 + t * t)
    n2 = w * (np.sqrt(d * d + 4 * p * D / w) + d) / (2 * D)
    g = g_entropy(np.column_stack([w, n2, w * p / D / n2]))
    log_x = np.log2(2 * t * (1 + t) / (math.e * (1 - t) * (1 + t * t + (1 - t * t) * w)))
    rate = log_x + (g[:, 1] + g[:, 2]) - g[:, 0]
    near = ~np.isfinite(rate) | (np.abs(rate) <= HET2_RR_BAND)
    if near.any():
        finite = het2_rr_finite_eigenvalues(*((T, W) if xp is math else (t[near], w[near])))
        gn = g_entropy(np.reshape(finite, (-1, 3)))
        rate[near] = log_x[near] + (gn[:, 0] + gn[:, 1] + gn[:, 2]) - 2 * g[near, 0]
    return rate if xp is np else float(rate[0])


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
    does a logarithm whose argument underflows to 0 (T near 1e-320). T and W
    are taken as Python floats, so a numpy float64 gives the same rate or
    failure. Threshold solves read `_RATES` and come here where a read fails.
    """
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
# het2 RR rates within this many bits of 0 keep the numeric extraction. Where
# its checks pass, its rate lies within 1.44e-6 bits of the closed form, as
# measured for T in [1e-9, 0.9999] and W in [1, 1e6]; no check bounds that
# error, so the margin is measured, not proven, to keep the signs outside.
HET2_RR_BAND = 10 * HET2_RR_PRODUCT_TOL


def het2_rr_finite_eigenvalues(T, W) -> np.ndarray:
    """The three finite eigenvalues of Eve's CM conditioned on Bob's
    heterodyne estimators in the two-way protocol.

    All three have a closed form, which `_rr_het2` takes. It calls this
    numeric extraction only for rates within HET2_RR_BAND of 0 or not
    finite, whose signs the cells of the benchmark's RR reference
    (benchmark/reference/figure_bundle_rr.csv) pin. It works on
    the full conditional spectrum at large modulation; the single
    eigenvalue growing as (1-T^2)V is identified and dropped. The finite
    eigenvalues still carry an O(1/V) truncation tail, which is removed by
    Richardson extrapolation between V = HET2_RR_V/10 and HET2_RR_V. The
    product of the remaining three must match the closed form
    n1 n2 n3 = [1 + T^3 + (1-T)(1+T^2)W] W / (T(1+T)) within
    HET2_RR_PRODUCT_TOL; where that product overflows (subnormal T), no
    product passes.

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
    off = np.abs(nus[..., 0] - diverging) > 0.01 * diverging
    finite = np.clip((10.0 * nus[1, :, 1:] - nus[0, :, 1:]) / 9.0, 1.0, None)
    with np.errstate(over="ignore", invalid="ignore"):   # overflow fails the check
        expected = (1 + T ** 3 + (1 - T) * (1 + T * T) * W) * W / (T * (1 + T))
        product = np.prod(finite, axis=-1)
        deviates = ~((np.abs(product - expected) <= HET2_RR_PRODUCT_TOL * expected)
                     & (expected < math.inf))
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

    def input_factor(self) -> np.ndarray:
        """Lower-triangular L with L @ L.T = sigma_in, for a single joint.

        Every input is independent or one half of a pure EPR pair (x, c),
        c^2 = x^2 - 1 (c = 0 at x = 1), whose later half has conditional
        standard deviation exactly 1/sqrt(x). Written so, L stays exact at
        any x, including where sigma_in has rounded c to x and a Cholesky
        factorization of it breaks down."""
        root = np.sqrt(self.sigma_in.diagonal())
        L = np.diag(root)
        i = np.flatnonzero(self.sigma_in.diagonal(2))   # first halves; partners: + 2
        L[i + 2, i] = self.sigma_in[i, i + 2] / root[i]
        L[i + 2, i + 2] = 1.0 / root[i + 2]
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


# Largest V and W the exact engine accepts. Its factors subtract no terms of
# size V. Lifting the bound, the finite pairs at (T, N) = (0.6, 0.1), (0.2, 0)
# and (0.95, 0.3) match mpmath to 1.4e-12 up to V = 1e22, then fall off a
# cliff: 1.5e-8 at 1e24, 21 at 1e40 (relative to max(1, |rate|)). The factors
# hold the purity of Eve's EPR pairs to about eps W: a loss of ~0.3 eps W
# bits. Each block's largest symplectic eigenvalue must stand
# 1/EXACT_SPECTRUM_TOL above the rounding of F_Q^T F_P, k eps |F_Q| |F_P|
# (Weyl; k inputs, Frobenius).
EXACT_V_MAX, EXACT_W_MAX, EXACT_SPECTRUM_TOL = 1e12, 1e6, 1e-6


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
    rows, noise, labels = _bob_measurement(protocol, joint, params)
    return _shannon_terms(rows @ (joint.m @ joint.input_factor()), noise,
                          joint.revealed(protocol), labels)


def _shannon_terms(x: np.ndarray, noise: np.ndarray, revealed: list,
                   labels: list) -> list[tuple[str, float, float]]:
    """Bob's rows on the input normals, x = rows @ G: squared row norms plus
    the noise, with and without the columns of the inputs Alice reveals."""
    given = x.copy()
    given[:, revealed] = 0.0
    total, cond = ((y * y).sum(axis=1) + noise.diagonal() for y in (x, given))
    return [(lab, float(total[i]), float(cond[i])) for i, lab in enumerate(labels)]


def mi_from_terms(terms) -> float:
    """Gaussian mutual information in bits, sum of (1/2) log2(v/c) over the
    (label, total variance, conditional variance) terms.

    A conditional variance that is not positive and finite raises
    NumericalFailure.
    """
    bits = 0.0
    for label, v, c in terms:
        if not 0.0 < c < math.inf:
            raise NumericalFailure(f"conditional variance of {label} is {c}: "
                                   f"lost to cancellation at this modulation")
        bits += 0.5 * math.log2(v / c)
    return bits


def _given_row(F: np.ndarray, x: np.ndarray, noise: float) -> np.ndarray:
    """Factor half F (n x k) of a block given one row x on the k input
    normals, with noise: the first Householder reflection of the QR of
    [[x, sqrt(noise)], [F, 0]]^T takes x to R's first row, and the other
    rows, transposed, are the conditional factor; the rest only rotates them."""
    v = np.append(x, math.sqrt(noise))
    v[0] += math.copysign(math.sqrt(v @ v), v[0])   # no cancellation in v v^T
    return np.append(F[:, 1:], np.zeros((len(F), 1)), axis=1) - np.outer(
        F @ v[:-1] * (2.0 / (v @ v)), v[1:])


def exact_rate(protocol, reconciliation, V: float, params: AttackParams) -> RateResult:
    """Exact finite-modulation secret-key rate.

    Works on the Q and P halves of the joint's square-root factor G = m @ L:
    every input, output and row here acts on Q or on P alone. Conditioning
    on Alice zeroes the columns of the inputs she reveals, Bob's Shannon
    variances are squared norms of his rows on G, and RR conditions Eve on
    them by `_given_row`. The symplectic eigenvalues of n modes with factor
    halves F_Q, F_P are the top n singular values of F_Q^T F_P, one SVD for
    all blocks (square-root filtering, Kaminski, Bryson & Schmidt, IEEE TAC
    16, 727, 1971): no term of size V is subtracted. Divergent collective RR
    pairs return the -inf sentinel. V above EXACT_V_MAX, W above EXACT_W_MAX
    or an eigenvalue unresolved to EXACT_SPECTRUM_TOL raise NumericalFailure.
    """
    protocol = Protocol(protocol)
    recon = Reconciliation(reconciliation)
    _require_rate_params(params)
    if recon is Reconciliation.RR and protocol in DIVERGENT_RR:
        return RateResult(RATE_DIVERGENT, Method.EXACT_FINITE_V)
    joint = _joint_for(protocol, V, params)
    if params.W > EXACT_W_MAX:
        raise NumericalFailure(f"Eve's EPR variance W={params.W:g} is above the exact "
                               f"engine's limit of {EXACT_W_MAX:g}")
    G = joint.m @ joint.input_factor()
    revealed = joint.revealed(protocol)
    given = G.copy()
    given[:, revealed] = 0.0

    def block(F: np.ndarray, name: str) -> list:
        rows = F[joint.ix[name][0]:joint.ix[name][-1] + 1]   # whole modes, contiguous
        return [rows[0::2, 0::2], rows[1::2, 1::2]]

    try:
        if protocol.collective:   # I(A:B) = S(B) - S(B|A); S(B) cancels in coll_het RR
            i_ab, signed = 0.0, [(-1, block(given, "B")), (-1, block(G, "E"))]
            signed += ([(1, block(G, "B")), (1, block(given, "E"))] if recon is Reconciliation.DR
                       else [(1, block(G, "BE"))])
        else:   # Eve's Holevo information on Alice's encoding (DR) or Bob's decoding (RR)
            rows, noise, labels = _bob_measurement(protocol, joint, params)
            x = rows @ G
            i_ab, e = mi_from_terms(_shannon_terms(x, noise, revealed, labels)), block(G, "E")
            signed = [(-1, e), (1, block(given, "E") if recon is Reconciliation.DR else
                                [_given_row(F, x[h, h::2], noise[h, h]) if h < len(x) else F
                                 for h, F in enumerate(e)])]
        nus = np.linalg.svd(np.array([q.T @ p for _, (q, p) in signed]), compute_uv=False)
        k_eps = len(G) / 2 * sys.float_info.epsilon
        rounding = [k_eps * math.sqrt(np.vdot(q, q) * np.vdot(p, p)) for _, (q, p) in signed]
        if not (np.array(rounding) <= EXACT_SPECTRUM_TOL * nus[:, 0]).all():   # NaN fails too
            raise ValueError(f"rounding of F_Q^T F_P (up to {max(rounding):.3g}) leaves a largest "
                             f"symplectic eigenvalue unresolved to {EXACT_SPECTRUM_TOL:g}")
        s = [spectrum_entropies(nus[k:k + 1, :len(q)])[0] for k, (_, (q, _)) in enumerate(signed)]
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise NumericalFailure(f"{protocol.value} {recon.value} spectrum at T={params.T}, "
                               f"W={params.W}, V={V}: {exc}") from exc
    return RateResult(i_ab + sum(sign * s_k for (sign, _), s_k in zip(signed, s)),
                      Method.EXACT_FINITE_V)
