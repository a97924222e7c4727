"""Seeded Monte-Carlo simulation of the individual protocols.

Because every state, channel and measurement involved is Gaussian, the
prepare-and-measure runs can be simulated exactly as classical Gaussian
phase-space trajectories, with no Hilbert-space machinery. The trajectories
sample the exact engine's joint: standard normals pass through its input
factor (Alice's modulation, the vacuum and EPR inputs and Eve's ancillas),
its input map and Bob's measurement rows, plus the heterodyne vacuum
noise. The channel and the measurements are written once, in `key_rates`.
The normals that only Bob's variables read are folded into one triangular
factor per run, so a sample of d encoding and d decoding variables costs
2d normals, whatever the number of modes behind it.

The samples (X_A, X_B) = A z of a run are 2d unit normals z through its
fixed (2d, 2d) sampling map A, so all the estimator reads is the normals'
sample covariance, which `rng.normal_moments` folds one RNG chunk at a
time: no sample is formed and memory is constant in their number.
`empirical_mi` maps that covariance through A into one `MiEstimate`: a
Gaussian mutual-information estimate in bits with the empirical variances
and residual variances of X_B it was computed from. A `SimRun` holds it
next to the analytic values from the exact covariance engine.
`trajectories(config)` yields the samples one chunk at a time. Everything
is keyed by a single 64-bit seed and is bit-identical across repeated or
parallel invocations.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .attacks import AttackParams, require_finite_excess_noise
from .key_rates import (Protocol, _bob_measurement, _joint_for, mi_from_terms,
                        shannon_terms)
from .rng import normal_chunks, normal_moments

MIN_SAMPLES = 1000
# Per-dimension ceiling for the MI estimate when the residual variance
# underflows (X_B a deterministic function of X_A).
MI_CAP_BITS = 30.0


@dataclass(frozen=True)
class SimConfig:
    protocol: Protocol
    V: float
    params: AttackParams
    n_samples: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "protocol", Protocol(self.protocol))
        if self.protocol.collective:
            raise ValueError(f"simulation covers individual protocols only, "
                             f"got {self.protocol.value}")
        require_finite_excess_noise(self.params, "simulation")
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
    """Moments and MI of one run, per dimension of X_B: the empirical ones
    in `mi_empirical`, next to the analytic ones. They come from the
    normals' covariance, and no sample is formed: `trajectories(run.config)`
    yields the samples."""

    config: SimConfig
    labels: tuple
    analytic_var: np.ndarray
    analytic_cond_var: np.ndarray
    mi_empirical: MiEstimate
    mi_analytic_bits: float


def _sampling_map(config: SimConfig) -> np.ndarray:
    """(2d, 2d) map from 2d standard normals to the d encoding variables
    X_A that Alice reveals and Bob's d decoding variables X_B.

    The channel model is the (2d, k) map A: the rows of the protocol's
    joint at Alice's encoding and Bob's measurement rows, applied to the
    joint's input map times its input factor, next to the square root of
    Bob's (diagonal) measurement noise. Each row of X_A reads one normal of
    its own; the block B of X_B's rows on the k - d free normals is replaced
    by R^T, R the triangular factor of B^T. Since B B^T = R^T R, the output
    has the same Gaussian distribution from 2d normals instead of k, and
    the own columns, which carry the modulation, are kept as they are: no
    covariance is formed and nothing is subtracted, so X_A and X_B given
    X_A stay exact at any V.
    """
    joint = _joint_for(config.protocol, config.V, config.params)
    rows, noise, labels = _bob_measurement(config.protocol, joint, config.params)
    d = len(labels)
    out = joint.m @ joint.input_factor()
    A = np.block([[out[joint.ix["cl"][:d]], np.zeros((d, d))],
                  [rows @ out, np.sqrt(noise)]])
    own = A[:d].any(axis=0)
    R = np.linalg.qr(A[d:, ~own].T, mode="r")
    return np.block([[A[:d, own], np.zeros((d, len(R)))],
                     [A[d:, own], R.T]])


def trajectories(config: SimConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(X_A, X_B) sample blocks of a run, one per chunk of
    `rng.normal_chunks` of 2d columns mapped by `_sampling_map`, as
    (rows, d) arrays. Concatenated, they are the run's n_samples samples;
    every call yields the same blocks."""
    A = _sampling_map(config)
    d = len(A) // 2
    for z in normal_chunks(config.seed, config.n_samples, A.shape[1]):
        x = z @ A.T
        yield x[:, :d], x[:, d:]


def empirical_mi(A: np.ndarray, cov: np.ndarray, n: int) -> MiEstimate:
    """Gaussian MI estimate in bits of n samples (X_A, X_B) = A z, from the
    (2d, 2d) sampling map A and the sample covariance `cov` of the n
    standard normals z (`rng.normal_moments`).

    Per scalar dimension of X_B: half the log-ratio of the sample variance
    to the residual variance of a least-squares fit on [1, X_A], summed over
    dimensions. The samples' covariance A cov A^T is R^T R, R the
    triangular factor of L^T A^T, L L^T = cov: column j >= d of R holds
    X_B's variance in all its rows and, times (n - 1) / (n - d - 1), the
    residual one in the rows below d. This is as exact as a QR fold of the
    samples: cov, of unit normals, has a well-conditioned Cholesky factor,
    and Householder QR of the small L^T A^T is column-wise backward stable,
    so the residual is not lost to cancellation against a much larger
    Var(X_A), as it would be in A cov A^T.

    A vanishing residual is capped at MI_CAP_BITS per dimension and
    flagged. Both variances are returned with the estimate.
    """
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    d = len(A) // 2
    R = np.linalg.qr(np.linalg.cholesky(cov).T @ A.T, mode="r")
    bits, capped = 0.0, False
    var, cond_var = [], []
    for j in range(d, 2 * d):
        total = float(R[:, j] @ R[:, j])
        if total <= 0.0:
            raise ValueError("degenerate sample variance in X_B")
        cond = float(R[d:, j] @ R[d:, j]) * (n - 1) / (n - d - 1)
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
    cov = normal_moments(config.seed, config.n_samples, 2 * len(terms))[1]
    mi = empirical_mi(_sampling_map(config), cov, config.n_samples)
    return SimRun(
        config=config,
        labels=tuple(lab for lab, _, _ in terms),
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
            f"var_{lab}_empirical={run.mi_empirical.var[j]:.12g}",
            f"var_{lab}_analytic={run.analytic_var[j]:.12g}",
            f"cond_var_{lab}_empirical={run.mi_empirical.cond_var[j]:.12g}",
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
