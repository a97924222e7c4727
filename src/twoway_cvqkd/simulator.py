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
time: no sample is formed and memory is constant in their number. The
chunks of a long run are drawn on every CPU the process may run on and
added in chunk order, so the covariance, and the run, do not depend on
the CPU count.
`empirical_mi` maps that covariance through A into one `MiEstimate`: a
Gaussian mutual-information estimate in bits with the empirical variances
and residual variances of X_B it was computed from. A `SimRun` holds it
next to the analytic values, from the same build of the protocol's joint.
`trajectories(config)` yields the samples one chunk at a time. Everything
is keyed by a single 64-bit seed and is bit-identical across repeated or
parallel invocations. The command line formats a run and its samples.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .attacks import AttackParams, require_finite_excess_noise
from .key_rates import (Protocol, _bob_measurement, _joint_for, _shannon_terms,
                        mi_from_terms)
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


def _sampling_map(config: SimConfig) -> tuple[np.ndarray, list]:
    """(2d, 2d) map from 2d standard normals to the d encoding variables
    X_A that Alice reveals and Bob's d decoding variables X_B, and Bob's
    Shannon terms (`key_rates.shannon_terms`), both from one joint.

    The channel model is the joint's input map times its input factor,
    read at Alice's revealed encoding (`JointMoments.revealed`) and through
    Bob's measurement rows, next to the square root of Bob's (diagonal)
    measurement noise. Each row of X_A reads the normal of its own input;
    the block B of X_B's rows on the other normals, noise included, is
    replaced by R^T, R the triangular factor of B^T. Since B B^T = R^T R,
    the output has the same Gaussian distribution from 2d normals, and the
    own columns, which carry the modulation, are kept as they are: no
    covariance is formed and nothing is subtracted, so X_A and X_B given
    X_A stay exact at any V.
    """
    joint = _joint_for(config.protocol, config.V, config.params)
    rows, noise, labels = _bob_measurement(config.protocol, joint, config.params)
    own = joint.revealed(config.protocol)
    out = joint.m @ joint.input_factor()
    x_b = rows @ out
    terms = _shannon_terms(x_b, noise, own, labels)
    R = np.linalg.qr(np.hstack([np.delete(x_b, own, 1), np.sqrt(noise)]).T, mode="r")
    return np.block([[out[np.ix_(own, own)], np.zeros((len(own), len(R)))],
                     [x_b[:, own], R.T]]), terms


def trajectories(config: SimConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(X_A, X_B) sample blocks of a run, one per chunk of
    `rng.normal_chunks` of 2d columns mapped by `_sampling_map`, as
    (rows, d) arrays. Concatenated, they are the run's n_samples samples;
    every call yields the same blocks."""
    A, _ = _sampling_map(config)
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
    A, terms = _sampling_map(config)
    mi_analytic = mi_from_terms(terms)
    cov = normal_moments(config.seed, config.n_samples, len(A))[1]
    mi = empirical_mi(A, cov, config.n_samples)
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

