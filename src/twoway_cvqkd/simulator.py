"""Seeded Monte-Carlo simulation of the individual protocols.

Because every state, channel and measurement involved is Gaussian, the
prepare-and-measure runs can be simulated exactly as classical Gaussian
phase-space trajectories: Alice's modulation, the vacuum and EPR inputs and
Eve's injected thermal ancillas are drawn as correlated normals and pushed
through the beam-splitter relations. No Hilbert-space machinery is needed.

A run streams: `trajectories` yields the per-sample pairs (X_A, X_B) of
encoding and decoding variables one RNG chunk at a time, and
`empirical_mi` folds each block into a small triangular factor and drops
it, so memory stays constant in the number of samples. The output is the
empirical variances and residual variances of X_B and a Gaussian
mutual-information estimate in bits, next to the analytic values from the
exact covariance engine. The samples themselves are not kept; callers that
want them iterate `trajectories(config)` again, which regenerates them
bit for bit. Everything is keyed by a single 64-bit seed and is
bit-identical across repeated or parallel invocations.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .attacks import AttackParams
from .key_rates import Protocol, mi_from_terms, shannon_terms
from .rng import normal_chunks

MIN_SAMPLES = 1000
# Per-dimension ceiling for the MI estimate when the residual variance
# underflows (X_B a deterministic function of X_A).
MI_CAP_BITS = 30.0

_INDIVIDUAL = (Protocol.HOM, Protocol.HET, Protocol.HOM2, Protocol.HET2)


@dataclass(frozen=True)
class SimConfig:
    protocol: Protocol
    V: float
    params: AttackParams
    n_samples: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "protocol", Protocol(self.protocol))
        if self.protocol not in _INDIVIDUAL:
            raise ValueError(f"simulation covers individual protocols only, "
                             f"got {self.protocol.value}")
        if not 1.0 < self.V < math.inf:
            raise ValueError(f"modulation variance must be finite and exceed 1, "
                             f"got V={self.V}")
        if self.n_samples < MIN_SAMPLES:
            raise ValueError(f"need at least {MIN_SAMPLES} samples for MI "
                             f"estimation, got {self.n_samples}")


@dataclass(frozen=True)
class MiEstimate:
    """MI estimate in bits and, per dimension of X_B, the sample variance
    and the residual variance given X_A that it was computed from."""

    bits: float
    capped: bool = False
    var: tuple = ()
    cond_var: tuple = ()


@dataclass(frozen=True)
class SimRun:
    """Moments and MI of one run, per dimension of X_B, empirical next to
    analytic. The samples were streamed through the estimator and are not
    kept: `trajectories(run.config)` yields them again."""

    config: SimConfig
    labels: tuple
    empirical_var: np.ndarray
    empirical_cond_var: np.ndarray
    analytic_var: np.ndarray
    analytic_cond_var: np.ndarray
    mi_empirical: MiEstimate
    mi_analytic_bits: float

    @property
    def seed(self) -> int:
        return self.config.seed


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


def trajectories(config: SimConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(X_A, X_B) sample blocks of a run, one per chunk of
    `rng.normal_chunks`, as (rows, dims) arrays. Concatenated, they are the
    run's n_samples samples; every call yields the same blocks."""
    if config.protocol in (Protocol.HOM, Protocol.HET):
        block, cols = _one_way_block, 8
    else:
        block, cols = _two_way_block, 14
    for z in normal_chunks(config.seed, config.n_samples, cols):
        yield block(config, z)


def empirical_mi(blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> MiEstimate:
    """Gaussian MI estimate in bits from (X_A, X_B) sample blocks.

    Per scalar dimension of X_B: half the log-ratio of the sample variance
    to the residual variance of a least-squares fit on [1, X_A], summed over
    dimensions. Each block, a (rows,) or (rows, dims) array per side, is
    folded in order into the triangular factor R of the design
    Z = [1, X_A, X_B] and then dropped (streaming TSQR), so memory does not
    grow with the number of samples. In column j of R, the entries below
    row 0 hold X_B's centred sum of squares and those below [1, X_A] its
    residual one. R keeps the residual accurate where the moment matrix
    Z^T Z would lose it to cancellation against a much larger Var(X_A).

    A vanishing residual is capped at MI_CAP_BITS per dimension and
    flagged. Both variances are returned with the estimate, so callers
    that report them need no second pass.
    """
    R, n, d_a = None, 0, 0
    for x_a, x_b in blocks:
        d_a = 1 if np.ndim(x_a) == 1 else np.shape(x_a)[1]
        z = np.column_stack([np.ones(len(x_a)), x_a, x_b])
        R = np.linalg.qr(z if R is None else np.vstack([R, z]), mode="r")
        n += len(z)
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    bits, capped = 0.0, False
    var, cond_var = [], []
    for j in range(1 + d_a, R.shape[1]):
        total = float(R[1:, j] @ R[1:, j]) / (n - 1)
        if total <= 0.0:
            raise ValueError("degenerate sample variance in X_B")
        cond = float(R[1 + d_a:, j] @ R[1 + d_a:, j]) / (n - d_a - 1)
        term = 0.5 * math.log2(total / cond) if cond > 0.0 else math.inf
        if term > MI_CAP_BITS:
            term, capped = MI_CAP_BITS, True
        bits += term
        var.append(total)
        cond_var.append(cond)
    return MiEstimate(bits, capped, tuple(var), tuple(cond_var))


def simulate(config: SimConfig) -> SimRun:
    """Run the protocol and compare empirical moments and MI to analytics.

    The analytic terms come first, so a modulation at which they fail
    raises NumericalFailure before any sample is drawn.
    """
    terms = shannon_terms(config.protocol, config.V, config.params)
    mi_analytic = mi_from_terms(terms)
    mi = empirical_mi(trajectories(config))
    return SimRun(
        config=config,
        labels=tuple(lab for lab, _, _ in terms),
        empirical_var=np.array(mi.var),
        empirical_cond_var=np.array(mi.cond_var),
        analytic_var=np.array([v for _, v, _ in terms]),
        analytic_cond_var=np.array([c for _, _, c in terms]),
        mi_empirical=mi,
        mi_analytic_bits=mi_analytic,
    )


def mi_sigma_bits(run: SimRun) -> float:
    """Approximate one-sigma error of the empirical MI estimate in bits.

    For a Gaussian MI estimate the per-dimension standard error is about
    rho / (sqrt(n) ln 2) where rho is the A-B correlation; summed in
    quadrature over dimensions, with a 1/sqrt(2n) floor per dimension.
    """
    n = run.config.n_samples
    var = 0.0
    for v, c in zip(run.analytic_var, run.analytic_cond_var):
        rho_sq = max(0.0, 1.0 - c / v)
        var += max(rho_sq, 0.5) / (n * math.log(2.0) ** 2)
    return math.sqrt(var)


def summary_text(run: SimRun) -> str:
    """Flat key=value summary, one entry per line."""
    lines = [
        f"protocol={run.config.protocol.value}",
        f"T={run.config.params.T:.12g}",
        f"W={run.config.params.W:.12g}",
        f"N={run.config.params.N:.12g}",
        f"V={run.config.V:.12g}",
        f"n={run.config.n_samples}",
        f"seed={run.config.seed}",
    ]
    for j, lab in enumerate(run.labels):
        lines += [
            f"var_{lab}_empirical={run.empirical_var[j]:.12g}",
            f"var_{lab}_analytic={run.analytic_var[j]:.12g}",
            f"cond_var_{lab}_empirical={run.empirical_cond_var[j]:.12g}",
            f"cond_var_{lab}_analytic={run.analytic_cond_var[j]:.12g}",
        ]
    lines += [
        f"mi_empirical_bits={run.mi_empirical.bits:.12g}",
        f"mi_capped={str(run.mi_empirical.capped).lower()}",
        f"mi_analytic_bits={run.mi_analytic_bits:.12g}",
    ]
    return "\n".join(lines) + "\n"


def dump_samples(config: SimConfig, f) -> None:
    """Write the raw per-sample CSV, one column per X_A / X_B dimension, to
    the open text file `f`, block by block from regenerated trajectories."""
    labels = [lab for lab, _, _ in shannon_terms(config.protocol, config.V, config.params)]
    f.write(",".join([f"x_a_{lab}" for lab in labels]
                     + [f"x_b_{lab}" for lab in labels]) + "\n")
    for x_a, x_b in trajectories(config):
        np.savetxt(f, np.column_stack([x_a, x_b]), fmt="%.12g", delimiter=",")
