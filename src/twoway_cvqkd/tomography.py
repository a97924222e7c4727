"""Gaussian-channel estimation from moments and the reducibility test.

A one-mode Gaussian channel acts on means as m -> G m + d and on covariance
matrices as V -> G V G^T + N. The channel is completely determined by the
first and second statistical moments of the outputs, so probing with a few
displaced inputs and fitting least squares reconstructs it. The hybrid
two-way protocol uses this to check that the round-trip channel factors as
backward o (displacement) o forward with identical forward and backward
legs; failure of either condition flags a correlated two-path attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import I2, omega
from .rng import normal_chunks

CP_EIG_TOL = 1e-9
# A fitted channel may miss complete positivity by this many sampling sigmas.
CP_SIGMA_FACTOR = 5.0


@dataclass(frozen=True)
class GaussianChannel:
    """One-mode Gaussian channel: gain matrix, additive noise, displacement."""

    gain: np.ndarray
    noise: np.ndarray
    displacement: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        object.__setattr__(self, "gain", np.asarray(self.gain, dtype=float).reshape(2, 2))
        noise = np.asarray(self.noise, dtype=float).reshape(2, 2)
        object.__setattr__(self, "noise", 0.5 * (noise + noise.T))
        object.__setattr__(self, "displacement",
                           np.asarray(self.displacement, dtype=float).reshape(2))

    @classmethod
    def identity(cls) -> "GaussianChannel":
        return cls(np.eye(2), np.zeros((2, 2)))

    @classmethod
    def displacement_map(cls, d) -> "GaussianChannel":
        """Unit-gain, noiseless channel that only displaces (Alice's map)."""
        return cls(np.eye(2), np.zeros((2, 2)), d)

    def cp_defect(self) -> float:
        """Most negative eigenvalue of N + i(Omega - G Omega G^T), 0 if CP."""
        om = omega(1)
        herm = self.noise + 1j * (om - self.gain @ om @ self.gain.T)
        return float(min(np.linalg.eigvalsh(herm).min(), 0.0))

    def is_cp(self) -> bool:
        return self.cp_defect() >= -CP_EIG_TOL

    def apply(self, mean, cov):
        """Push a Gaussian state (mean, covariance) through the channel."""
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        return self.gain @ mean + self.displacement, self.gain @ cov @ self.gain.T + self.noise


def compose(first: GaussianChannel, middle: GaussianChannel,
            last: GaussianChannel) -> GaussianChannel:
    """Composition last o middle o first at the moment level."""
    chain = GaussianChannel.identity()
    for ch in (first, middle, last):
        gain = ch.gain @ chain.gain
        noise = ch.gain @ chain.noise @ ch.gain.T + ch.noise
        disp = ch.gain @ chain.displacement + ch.displacement
        chain = GaussianChannel(gain, noise, disp)
    return chain


def channel_distance(a: GaussianChannel, b: GaussianChannel) -> float:
    """Max-abs elementwise difference over gain, noise and displacement."""
    return max(
        float(np.abs(a.gain - b.gain).max()),
        float(np.abs(a.noise - b.noise).max()),
        float(np.abs(a.displacement - b.displacement).max()),
    )


@dataclass(frozen=True)
class ProbeRecord:
    """Moments observed for one probe input."""

    displacement: np.ndarray
    input_cm: np.ndarray
    output_mean: np.ndarray
    output_cm: np.ndarray
    n_samples: int


@dataclass
class TomographyDataset:
    probes: list[ProbeRecord]

    MIN_SAMPLES = 1000

    def validate(self) -> None:
        if len(self.probes) < 3:
            raise ValueError("need at least 3 probe displacements")
        design = np.array([[*p.displacement, 1.0] for p in self.probes])
        if np.linalg.matrix_rank(design) < 3:
            raise ValueError("probe displacements are rank deficient: "
                             "need 3 affinely independent inputs")
        for p in self.probes:
            if p.n_samples < self.MIN_SAMPLES:
                raise ValueError(f"probe with n={p.n_samples} < {self.MIN_SAMPLES}")

    def statistical_sigma(self) -> float:
        """Rough one-sigma sampling error of the fitted moment estimates."""
        per_probe = [
            float(np.abs(p.output_cm).max()) * math.sqrt(2.0 / p.n_samples)
            for p in self.probes
        ]
        return max(per_probe) / math.sqrt(len(self.probes))


def estimate_channel(data: TomographyDataset) -> GaussianChannel:
    """Least-squares Gaussian-channel fit from probe moments.

    Gain and displacement come from the affine fit of output means against
    input displacements; the additive noise is the probe-averaged residual
    output CM minus gain @ CM_in @ gain^T. Complete positivity is verified
    within CP_SIGMA_FACTOR times the dataset's sampling error.
    """
    data.validate()
    design = np.array([[*p.displacement, 1.0] for p in data.probes])
    targets = np.array([p.output_mean for p in data.probes])
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    gain = coef[:2].T
    disp = coef[2]
    noise = np.mean(
        [p.output_cm - gain @ p.input_cm @ gain.T for p in data.probes], axis=0
    )
    channel = GaussianChannel(gain, noise, disp)
    sigma = data.statistical_sigma()
    if channel.cp_defect() < -(CP_SIGMA_FACTOR * sigma + CP_EIG_TOL):
        raise ValueError(
            f"fitted channel violates complete positivity beyond "
            f"{CP_SIGMA_FACTOR} sigma (defect {channel.cp_defect():.3g}, sigma {sigma:.3g})"
        )
    return channel


@dataclass(frozen=True)
class ReducibilityVerdict:
    """Outcome of the two-path reducibility check.

    kind is one of "reducible", "irreducible", "asymmetric". The deviations
    are max-abs moment differences: `symmetry` between the forward and
    backward channels, `composition` between the measured round trip and
    the composition of the two legs around the publicized encoding map.
    """

    kind: str
    symmetry_deviation: float
    composition_deviation: float
    tolerance: float


def check_reducibility(e1: GaussianChannel, e2: GaussianChannel,
                       e_roundtrip: GaussianChannel, tol: float) -> ReducibilityVerdict:
    """Classify a two-path attack as reducible, asymmetric or irreducible.

    Asymmetric if the forward and backward channels differ beyond `tol`;
    irreducible if the round trip differs from e2 o e1 (Alice's publicized
    map in between is the identity) beyond `tol`; reducible otherwise. A NaN
    or infinite `tol` would call every attack reducible, so it is rejected.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    sym_dev = channel_distance(e1, e2)
    comp_dev = channel_distance(e_roundtrip,
                                compose(e1, GaussianChannel.identity(), e2))
    if sym_dev > tol:
        kind = "asymmetric"
    elif comp_dev > tol:
        kind = "irreducible"
    else:
        kind = "reducible"
    return ReducibilityVerdict(kind, sym_dev, comp_dev, tol)


DEFAULT_PROBE_DISPLACEMENTS = np.array(
    [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [-4.0, 0.0], [0.0, -4.0], [3.0, 3.0]]
)


def simulate_probe_dataset(channel: GaussianChannel, n_per_probe: int, seed: int,
                           displacements: np.ndarray | None = None) -> TomographyDataset:
    """Sample coherent-state probes through a known channel.

    Each probe sends a coherent state (input CM = I) displaced by one row of
    `displacements`; the output moments are sample estimates over
    `n_per_probe` shots mean_k + L z: L is the Cholesky factor of the output
    CM all probes share (physical, so positive definite), and the z of all
    probes are one `rng.normal_chunks` stream, folded into the factor R of
    [1, z] (streaming TSQR) in memory flat in n. Row 0 of R gives the means
    of z, the rows below it their centred cross products.
    """
    if displacements is None:
        displacements = DEFAULT_PROBE_DISPLACEMENTS
    if n_per_probe < TomographyDataset.MIN_SAMPLES:
        raise ValueError(f"probe with n={n_per_probe} < {TomographyDataset.MIN_SAMPLES}")
    m = len(displacements)
    chol = np.linalg.cholesky(channel.apply(np.zeros(2), I2)[1])
    R = None
    for z in normal_chunks(seed, n_per_probe, 2 * m):
        z = np.column_stack([np.ones(len(z)), z])
        R = np.linalg.qr(z if R is None else np.vstack([R, z]), mode="r")
    z_mean = (R[0, 1:] / R[0, 0]).reshape(m, 2)
    z_cov = (R[1:, 1:].T @ R[1:, 1:]).reshape(m, 2, m, 2) / (n_per_probe - 1)
    return TomographyDataset([
        ProbeRecord(displacement=np.asarray(d, dtype=float), input_cm=I2.copy(),
                    output_mean=channel.apply(d, I2)[0] + chol @ z_mean[k],
                    output_cm=chol @ z_cov[k, :, k] @ chol.T, n_samples=n_per_probe)
        for k, d in enumerate(displacements)])
