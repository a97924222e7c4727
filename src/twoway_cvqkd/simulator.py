"""Seeded Monte-Carlo simulation of the individual protocols.

Because every state, channel and measurement involved is Gaussian, the
prepare-and-measure runs can be simulated exactly as classical Gaussian
phase-space trajectories, with no Hilbert-space machinery. The trajectories
sample the exact engine's joint: standard normals pass through its input
factor (Alice's modulation, the vacuum and EPR inputs and Eve's ancillas),
its input map and Bob's measurement rows, plus the heterodyne vacuum
noise. The channel and the measurements are written once, in `key_rates`.

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
from .key_rates import (Protocol, _bob_measurement, _joint_for, mi_from_terms,
                        shannon_terms)
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
        if self.params.T == 0.0:
            raise ValueError("simulation needs a transmission T > 0: the "
                             "excess noise it reports is undefined at T = 0")
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


def _sampling_map(config: SimConfig) -> np.ndarray:
    """(2d, k) map A from k standard normals to the d encoding variables
    X_A that Alice reveals and Bob's d decoding variables X_B: the rows of
    the protocol's joint at Alice's encoding and Bob's measurement rows,
    applied to the joint's input map times its input factor, next to the
    square root of Bob's (diagonal) measurement noise. Normals that no
    output sees are left out."""
    joint = _joint_for(config.protocol, config.V, config.params)
    rows, noise, labels = _bob_measurement(config.protocol, joint, config.params)
    d = len(labels)
    out = joint.m @ joint.input_factor()
    A = np.block([[out[joint.ix["cl"][:d]], np.zeros((d, d))],
                  [rows @ out, np.sqrt(noise)]])
    return A[:, A.any(axis=0)]


def trajectories(config: SimConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(X_A, X_B) sample blocks of a run, one per chunk of
    `rng.normal_chunks`, as (rows, dims) arrays. Concatenated, they are the
    run's n_samples samples; every call yields the same blocks."""
    A = _sampling_map(config)
    d = len(A) // 2
    for z in normal_chunks(config.seed, config.n_samples, A.shape[1]):
        x = z @ A.T
        yield x[:, :d], x[:, d:]


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
