"""Secret-key rates for one-way and two-way coherent-state protocols.

Eight protocol variants are covered: homodyne and heterodyne decoding, each
in individual (incoherent detection) and collective (quantum-memory) form,
over one or two uses of the channel per run. For every variant this module
provides the closed-form asymptotic rate (large modulation) and an exact
finite-modulation engine that rebuilds the joint second moments of all
outputs from the channel model and computes the same rate from Shannon and
Holevo terms, with no asymptotic shortcuts.

The closed forms are one table, (protocol, reconciliation) -> f(T, W, xp),
read by `asymptotic_rate` and threshold solves (xp = math), by sweeps (numpy).

Each protocol's channel is described once, per quadrature: a map m_h from
the inputs of one quadrature (Alice's encoding, vacua, the EPR pairs of Bob
and Eve) to the outputs, shared by Q and P; the input variances with the
EPR correlations, +c in Q and -c in P; and Bob's measurement rows on the
outputs. The exact engine works on the square-root factor this gives, in
two halves G[h] = m_h L_h (`JointMoments`), L_h the inputs' exact factor:
conditioning on Alice's encoding zeroes a column, on Bob's measurement
takes one Householder reflection, and spectra are singular values, so no
terms of size V are subtracted. The numeric het2 RR extraction places the
same description on the 14 interleaved (Q, P) quadratures and diagonalises
the covariance m sigma_in m^T.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
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
    whole stack, as in `two_way_joint`. The joint covariances are
    m sigma_in m^T of `_het2_placement`.
    """
    point = np.ndim(T) == 0
    T, W = np.atleast_1d(np.asarray(T, dtype=float), np.asarray(W, dtype=float))
    modulations = np.array([[HET2_RR_V / 10.0], [HET2_RR_V]])   # [coarse, fine]
    m, sigma_in, rows, noise = _het2_placement(np.repeat(modulations, T.size),
                                               np.tile(T, 2), np.tile(W, 2))
    cond = conditional_cov(m @ sigma_in @ np.swapaxes(m, -1, -2), list(range(6, 14)),
                           rows, noise)
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


def _het2_placement(V, T, W):
    """The two-way channel and Bob's het2 rows (`_two_way_channel`,
    `_bob_measurement`) on 1-D stacks of k values of V, T and W, placed on
    the 14 joint quadratures [A, B1, B2, E1', E1'', E2', E2''], (Q, P) per
    mode: the input map m and input covariance sigma_in (k, 14, 14), the
    rows (k, 2, 14) and the noise covariance (k, 2, 2)."""
    m_h, x, (first, partner, c) = _two_way_channel(V, T, W)
    m = np.zeros(np.shape(V) + (14, 14))
    m[..., 0::2, 0::2] = m[..., 1::2, 1::2] = m_h.transpose(2, 0, 1)
    sigma_in = np.zeros_like(m)
    diag = np.arange(14)
    sigma_in[..., diag, diag] = np.repeat(x.T, 2, axis=-1)
    for i, j, c_ij in zip(first, partner, c):
        for h, corr in ((0, c_ij), (1, -c_ij)):
            sigma_in[..., 2 * i + h, 2 * j + h] = sigma_in[..., 2 * j + h, 2 * i + h] = corr
    rows_h, noise, _ = _bob_measurement(Protocol.HET2, T)
    rows = np.zeros(np.shape(V) + (2, 14))
    rows[..., 0, 0::2], rows[..., 1, 1::2] = rows_h[0].T, rows_h[1].T
    return m, sigma_in, rows, np.multiply.outer(noise[0], np.eye(2))


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


def _one_way_channel(V, T, W):
    """The one-way channel per quadrature: the map from the inputs [encoding,
    signal vacuum, E, E''] to the outputs [A, B, E', E''], shared by Q and P;
    the input variances; and the EPR pairs (first, partner, correlation),
    +c in Q and -c in P. Alice's encoding and the vacuum pass Eve's cloner
    beam splitter against one half E of her EPR(W) pair; she keeps E''."""
    t, r = math.sqrt(T), math.sqrt(1.0 - T)
    m = np.array([[1.0, 0.0, 0.0, 0.0],
                  [t, t, r, 0.0],
                  [-r, -r, t, 0.0],
                  [0.0, 0.0, 0.0, 1.0]])
    return m, np.array([V - 1.0, 1.0, W, W]), ([2], [3], np.array([_epr_correlation(W)]))


def _two_way_channel(V, T, W):
    """The two-way channel per quadrature, as `_one_way_channel`: inputs
    [encoding, B1, C1, E1, E1'', E2, E2''], outputs [A, B1, B2, E1', E1'',
    E2', E2'']. Bob keeps B1 of his EPR(V) pair and sends C1 through a
    cloner (E1, E1''); Alice adds her encoding, and the mode B2 returns
    through a second cloner (E2, E2''). V, T and W are floats, or
    equal-length 1-D arrays for a stack of channels along a last axis. A V
    or W whose EPR correlation overflows raises NumericalFailure, V first."""
    t, r = np.sqrt(T), np.sqrt(1.0 - T)
    v, w = _epr_correlation(V), _epr_correlation(W)
    o, z = 1.0 + 0.0 * T, 0.0 * T
    # B2 = sqrt(T) (A1 + encoding) + sqrt(1-T) E2, A1 = sqrt(T) C1 + sqrt(1-T) E1
    m = np.array([[o, z, z, z, z, z, z],                    # A
                  [z, o, z, z, z, z, z],                    # B1, kept
                  [t, z, T, t * r, z, r, z],                # B2
                  [z, z, -r, t, z, z, z],                   # E1'
                  [z, z, z, z, o, z, z],                    # E1''
                  [-r, z, -r * t, -r * r, z, t, z],         # E2'
                  [z, z, z, z, z, z, o]])                   # E2''
    return m, np.array([V - 1.0, V, V, W, W, W, W]), ([1, 3, 5], [2, 4, 6], np.array([v, w, w]))


@dataclass(frozen=True)
class JointMoments:
    """Square-root factor of the joint second moments over Alice's
    classical encoding and all output quadratures, by quadrature.

    Every input, channel map and measurement row acts on Q alone or on P
    alone, so the factor is two halves: G[0] maps the Q inputs' independent
    unit normals to the Q outputs, G[1] the P ones, and G[h] @ G[h].T is
    the covariance of the half-h outputs (Q and P are uncorrelated). Each
    half is m_h @ L_h: the channel's per-quadrature map times the inputs'
    factor, sqrt(x) on the diagonal and, for each EPR pair (x, c),
    c^2 = x^2 - 1, c/sqrt(x) and 1/sqrt(x) in the partner's row, exact at
    any x. Row and column 0 are Alice's encoding, of variance V - 1; `ix`
    maps "B" (Bob's modes), "E" (all of Eve's) and "BE" to row slices.
    """

    G: np.ndarray
    ix: dict

    @staticmethod
    def revealed(protocol: Protocol) -> slice:
        """Halves in which `protocol` reveals Alice's encoding, the normal of
        column 0: Q for homodyne decoding, Q and P for heterodyne."""
        return slice(0, 2 if protocol.joint_decoding else 1)

    @classmethod
    def from_channel(cls, channel, ix: dict) -> JointMoments:
        """The factor halves of a (map, input variances, EPR pairs) channel."""
        m, x, (first, partner, c) = channel
        k = len(x)
        diag = np.sqrt(x)
        corr = c / diag[first]
        diag[partner] = 1.0 / diag[partner]
        L = np.zeros((2, k, k))
        L.reshape(2, -1)[:, ::k + 1] = diag
        L[0, partner, first], L[1, partner, first] = corr, -corr
        return cls(m @ L, ix)


def one_way_joint(V: float, params: AttackParams) -> JointMoments:
    """Factor halves of the one-way protocol (`_one_way_channel`). A W whose
    EPR correlation overflows raises NumericalFailure."""
    return JointMoments.from_channel(_one_way_channel(V, params.T, params.W),
                                     {"B": slice(1, 2), "E": slice(2, 4), "BE": slice(1, 4)})


def two_way_joint(V: float, params: AttackParams) -> JointMoments:
    """Factor halves of the two-way protocol (`_two_way_channel`). A V or W
    whose EPR correlation overflows raises NumericalFailure."""
    return JointMoments.from_channel(_two_way_channel(V, params.T, params.W),
                                     {"B": slice(1, 3), "E": slice(3, 7), "BE": slice(1, 7)})


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
    """The protocol's joint factor halves. A V outside (1, inf) raises
    ValueError. A V above EXACT_V_MAX raises NumericalFailure, checked after
    the build so that a V whose EPR correlation overflows keeps that error."""
    if not 1.0 < V < math.inf:
        raise ValueError(f"modulation variance must be finite and exceed 1, got V={V}")
    joint = two_way_joint(V, params) if protocol.two_way else one_way_joint(V, params)
    if V > EXACT_V_MAX:
        raise NumericalFailure(f"modulation variance V={V:g} is above the exact "
                               f"engine's limit of {EXACT_V_MAX:g}, beyond which "
                               f"its rates lose their precision")
    return joint


def _bob_measurement(protocol: Protocol, T):
    """Bob's decoding rows on the half outputs, one per decoded quadrature:
    row h reads half h (Q, then P for heterodyne). Returns the rows, the
    variance of each row's ancilla noise and the labels. Heterodyne vacuum
    ancillas enter as independent observation noise; normalizations follow
    the protocol definitions (2^{-1/2} combining for heterodyne outputs,
    Q_B2 - T Q_B1 for the two-way homodyne estimator). For het2, T may be
    a 1-D array: the rows and noise then stack along a last axis."""
    s2 = math.sqrt(2.0)
    if protocol in (Protocol.HOM, Protocol.COLL_HOM):
        return np.array([[0.0, 1.0, 0.0, 0.0]]), np.zeros(1), ["Q"]
    if protocol in (Protocol.HET, Protocol.COLL_HET):
        return np.array([[0.0, 1 / s2, 0.0, 0.0]] * 2), np.full(2, 0.5), ["Q", "P"]
    if protocol in (Protocol.HOM2, Protocol.COLL_HOM2):
        return np.array([[0.0, -T, 1.0, 0.0, 0.0, 0.0, 0.0]]), np.zeros(1), ["Q"]
    if protocol in (Protocol.HET2, Protocol.COLL_HET2):
        z, h = 0.0 * T, 1 / s2 + 0.0 * T
        return (np.array([[z, -T / s2, h, z, z, z, z], [z, T / s2, h, z, z, z, z]]),
                np.array([(1 + T * T) / 2] * 2), ["Q", "P"])
    raise ValueError(f"no measurement model for protocol {protocol}")


def _decoding(protocol: Protocol, joint: JointMoments, T: float):
    """Bob's decoding rows on the input normals of their halves, x[h] =
    row_h @ G[h], with their noise variances and labels."""
    rows, noise, labels = _bob_measurement(protocol, T)
    return (rows[:, None] @ joint.G[:len(rows)])[:, 0], noise, labels


def shannon_terms(protocol, V: float,
                  params: AttackParams) -> list[tuple[str, float, float]]:
    """Per-dimension (label, total variance, conditional variance) of Bob's
    decoding variable, conditioned on Alice's corresponding encoding."""
    protocol = Protocol(protocol)
    if protocol.collective:
        raise ValueError("Shannon terms are defined for individual protocols only")
    return _shannon_terms(*_decoding(protocol, _joint_for(protocol, V, params), params.T))


def _shannon_terms(x: np.ndarray, noise: np.ndarray,
                   labels: list) -> list[tuple[str, float, float]]:
    """Bob's rows on the input normals of their halves (`_decoding`):
    squared row norms plus the noise, with and without column 0, the normal
    of Alice's encoding, which she reveals in every half Bob decodes."""
    given = x.copy()
    given[:, 0] = 0.0
    total, cond = ((y * y).sum(axis=1) + noise for y in (x, given))
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


def _dots(v: np.ndarray) -> np.ndarray:
    """v[h] @ v[h] for each row h of v."""
    return (v[:, None] @ v[:, :, None])[:, 0, 0]


def _given_rows(F: np.ndarray, x: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Factor halves F (d, n, k) of a block given Bob's rows x (d, k) on the
    k input normals of their halves, with noise: in each half, the first
    Householder reflection of the QR of [[x, sqrt(noise)], [F, 0]]^T takes
    x to R's first row, and the other rows, transposed, are the conditional
    factor; the rest only rotates them."""
    v = np.concatenate([x, np.sqrt(noise)[:, None]], axis=1)
    v[:, 0] += np.copysign(np.sqrt(_dots(v)), v[:, 0])   # no cancellation in v v^T
    out = ((F * v[:, None, :-1]).sum(axis=-1) * (-2.0 / _dots(v))[:, None])[..., None] \
        * v[:, None, 1:]
    out[..., :-1] += F[..., 1:]
    return out


def exact_rate(protocol, reconciliation, V: float, params: AttackParams) -> RateResult:
    """Exact finite-modulation secret-key rate.

    Works on the joint's factor halves G[0] (Q) and G[1] (P), `JointMoments`:
    every input, channel map and measurement row acts on Q or on P alone.
    Alice's reveal zeroes column 0 of one or both halves; Bob's rows are one
    row per half (`_decoding`), his Shannon variances their squared norms,
    and RR conditions Eve on them by `_given_rows`; a block is a row slice
    of both halves. The symplectic eigenvalues of n modes with factor
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
    G, ix = joint.G, joint.ix
    given = G.copy()
    given[joint.revealed(protocol), :, 0] = 0.0
    try:
        if protocol.collective:   # I(A:B) = S(B) - S(B|A); S(B) cancels in coll_het RR
            i_ab, signed = 0.0, [(-1, given[:, ix["B"]]), (-1, G[:, ix["E"]])]
            signed += ([(1, G[:, ix["B"]]), (1, given[:, ix["E"]])]
                       if recon is Reconciliation.DR else [(1, G[:, ix["BE"]])])
        else:   # Eve's Holevo information on Alice's encoding (DR) or Bob's decoding (RR)
            x, noise, labels = _decoding(protocol, joint, params.T)
            i_ab, e = mi_from_terms(_shannon_terms(x, noise, labels)), G[:, ix["E"]]
            signed = [(-1, e), (1, given[:, ix["E"]] if recon is Reconciliation.DR else
                                np.concatenate([_given_rows(e[:len(x)], x, noise),
                                                e[len(x):]]))]
        nus = np.linalg.svd(np.array([F[0].T @ F[1] for _, F in signed]), compute_uv=False)
        k_eps = G.shape[-1] * sys.float_info.epsilon
        rounding = [k_eps * math.sqrt(np.vdot(F[0], F[0]) * np.vdot(F[1], F[1]))
                    for _, F in signed]
        if not (np.array(rounding) <= EXACT_SPECTRUM_TOL * nus[:, 0]).all():   # NaN fails too
            raise ValueError(f"rounding of F_Q^T F_P (up to {max(rounding):.3g}) leaves a largest "
                             f"symplectic eigenvalue unresolved to {EXACT_SPECTRUM_TOL:g}")
        s = [spectrum_entropies(nus[i:i + 1, :F.shape[1]])[0] for i, (_, F) in enumerate(signed)]
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise NumericalFailure(f"{protocol.value} {recon.value} spectrum at T={params.T}, "
                               f"W={params.W}, V={V}: {exc}") from exc
    return RateResult(i_ab + sum(sign * s_i for (sign, _), s_i in zip(signed, s)),
                      Method.EXACT_FINITE_V)
