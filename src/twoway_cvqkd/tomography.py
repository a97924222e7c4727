"""Gaussian-channel estimation from moments and the reducibility test.

A one-mode Gaussian channel acts on means as m -> G m + d and on covariance
matrices as V -> G V G^T + N. The channel is completely determined by the
first and second statistical moments of the outputs, so probing with a few
displaced coherent states (a `TomographyDataset` of probe arrays) and
fitting least squares reconstructs it. The hybrid two-way protocol uses
this to check that the round-trip channel factors as backward o forward
with identical forward and backward legs; failure of either condition
flags a correlated two-path attack, such as `CorrelatedAttackParams`,
which is modelled here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackParams
from .gaussian import I2, PHYSICALITY_TOL, Z2, NumericalFailure
from .rng import normal_moments

CP_EIG_TOL = 1e-9
OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])   # one-mode symplectic form
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
        # halves, not half the sum, which overflows near the largest double
        object.__setattr__(self, "noise", 0.5 * noise + 0.5 * noise.T)
        object.__setattr__(self, "displacement",
                           np.asarray(self.displacement, dtype=float).reshape(2))

    @classmethod
    def identity(cls) -> "GaussianChannel":
        return cls(np.eye(2), np.zeros((2, 2)))

    def cp_defect(self) -> float:
        """Most negative eigenvalue of N + i(Omega - G Omega G^T), 0 if CP."""
        herm = self.noise + 1j * (OMEGA - self.gain @ OMEGA @ self.gain.T)
        return float(min(np.linalg.eigvalsh(herm).min(), 0.0))

    def is_cp(self) -> bool:
        return self.cp_defect() >= -CP_EIG_TOL


def compose(*channels: GaussianChannel) -> GaussianChannel:
    """Composition of `channels` at the moment level, the first applied first."""
    chain = GaussianChannel.identity()
    for ch in channels:
        gain = ch.gain @ chain.gain
        noise = ch.gain @ chain.noise @ ch.gain.T + ch.noise
        disp = ch.gain @ chain.displacement + ch.displacement
        chain = GaussianChannel(gain, noise, disp)
    return chain


def channel_distance(a: GaussianChannel, b: GaussianChannel) -> float:
    """Max-abs elementwise difference over gain, noise and displacement.
    It is NaN if any difference is (inf - inf), without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(np.concatenate([
            (a.gain - b.gain).ravel(), (a.noise - b.noise).ravel(),
            a.displacement - b.displacement]))))


def _ancilla_nu_min(w_f: float, w_b: float, c: float) -> float:
    """Smaller symplectic eigenvalue of the ancillas' joint CM, in closed
    form: D / (sqrt(k^2 + D) + k), k = |W_f - W_b| / 2, D = W_f W_b - chi^2
    = (1 - c^2) W_f W_b + c^2 E, E = (W_f^2 + W_b^2 - 1) / (W_f W_b +
    sqrt((W_f^2 - 1)(W_b^2 - 1))), each over W_f W_b: none cancels or overflows."""
    hi, lo = max(w_f, w_b), min(w_f, w_b)
    root = math.sqrt(math.prod((w - 1.0) / w * ((w + 1.0) / w) for w in (hi, lo)))
    e = (hi / lo + (lo - 1.0) / hi * ((lo + 1.0) / lo)) / (1.0 + root)
    sqrt_d = math.hypot(math.sqrt((1.0 - c) * (1.0 + c)) * math.sqrt(hi) * math.sqrt(lo),
                        abs(c) * math.sqrt(e))
    k = 0.5 * (hi - lo)
    return sqrt_d * (sqrt_d / (math.hypot(k, sqrt_d) + k))


@dataclass(frozen=True)
class CorrelatedAttackParams:
    """Two entangling cloners with EPR-like coupling c between their ancillas.

    The injected ancillas keep their thermal marginals W_f, W_b; their
    cross-covariance is c * ((W_f^2-1)(W_b^2-1))**(1/4) with the Z sign
    pattern (Q correlated, P anti-correlated). c = +-1 saturates the
    physicality bound when W_f = W_b.
    """

    forward: AttackParams
    backward: AttackParams
    correlation: float = 0.0

    def __post_init__(self):
        if not -1.0 <= self.correlation <= 1.0:
            raise ValueError(f"correlation must be in [-1, 1], got {self.correlation}")
        nu_min = _ancilla_nu_min(self.forward.W, self.backward.W, self.correlation)
        if nu_min < 1.0 - PHYSICALITY_TOL:
            raise ValueError(
                f"unphysical correlation {self.correlation} for W_f={self.forward.W}, "
                f"W_b={self.backward.W} (min symplectic eigenvalue {nu_min})"
            )

    def coupling(self) -> float:
        # (W^2 - 1)^(1/4) of each leg without forming W^2, so the coupling is
        # finite (and 0 at correlation 0) for every finite W
        return self.correlation * math.prod(
            (w - 1.0) ** 0.25 * (w + 1.0) ** 0.25 for w in (self.forward.W, self.backward.W))


def correlated_two_mode_channels(
        params: CorrelatedAttackParams) -> tuple[GaussianChannel, GaussianChannel, GaussianChannel]:
    """Forward, backward and actual round-trip channels of the two-path attack.

    The forward and backward legs are ordinary cloner channels with gain
    sqrt(T) I and noise (1-T) W I. The round trip picks up an extra
    Z-patterned noise term 2 sqrt(T_b (1-T_f)(1-T_b)) chi from the ancilla
    coupling, so for c = 0 it equals the composition of the legs exactly and
    for c != 0 it does not. A round-trip noise beyond the largest double is
    inf, without a warning.
    """
    tf, wf = params.forward.T, params.forward.W
    tb, wb = params.backward.T, params.backward.W
    forward = GaussianChannel(math.sqrt(tf) * I2, (1.0 - tf) * wf * I2)
    backward = GaussianChannel(math.sqrt(tb) * I2, (1.0 - tb) * wb * I2)
    cross = 2.0 * math.sqrt(tb * (1.0 - tf) * (1.0 - tb)) * params.coupling()
    with np.errstate(over="ignore"):
        rt_noise = tb * (1.0 - tf) * wf * I2 + (1.0 - tb) * wb * I2 + cross * Z2
    return forward, backward, GaussianChannel(math.sqrt(tf * tb) * I2, rt_noise)


@dataclass(frozen=True)
class TomographyDataset:
    """Moments of m coherent-state probes (input CM = I): the input
    `displacements` (m, 2), the output sample `means` (m, 2) and covariance
    matrices `cms` (m, 2, 2), each over the same `n` shots."""

    displacements: np.ndarray
    means: np.ndarray
    cms: np.ndarray
    n: int

    MIN_SAMPLES = 1000

    def validate(self) -> None:
        design = np.column_stack([self.displacements, np.ones(len(self.displacements))])
        if np.linalg.matrix_rank(design) < 3:
            raise ValueError("probe displacements are rank deficient: "
                             "need 3 affinely independent inputs")
        if self.n < self.MIN_SAMPLES:
            raise ValueError(f"probe with n={self.n} < {self.MIN_SAMPLES}")

    def statistical_sigma(self) -> float:
        """Rough one-sigma sampling error of the fitted moment estimates."""
        return (float(np.abs(self.cms).max()) * math.sqrt(2.0 / self.n)
                / math.sqrt(len(self.cms)))


def estimate_channel(data: TomographyDataset) -> GaussianChannel:
    """Least-squares Gaussian-channel fit from probe moments.

    Gain and displacement come from the affine fit of output means against
    input displacements; the additive noise is the probe average of the
    output CM minus gain @ gain^T, the image of the coherent input CM.
    Complete positivity is verified within CP_SIGMA_FACTOR times the
    dataset's sampling error; a fit that is not finite, whose CP defect is
    NaN, raises NumericalFailure before that.
    """
    data.validate()
    design = np.column_stack([data.displacements, np.ones(len(data.displacements))])
    coef, *_ = np.linalg.lstsq(design, data.means, rcond=None)
    gain = coef[:2].T
    disp = coef[2]
    with np.errstate(over="ignore"):
        noise = np.mean(data.cms - gain @ gain.T, axis=0)
    if not all(np.isfinite(a).all() for a in (gain, disp, noise)):
        raise NumericalFailure(f"fitted channel is not finite: gain {gain.tolist()}, "
                               f"displacement {disp.tolist()}, noise {noise.tolist()}")
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


def require_tolerance(tol: float) -> None:
    """ValueError unless `tol` is positive and finite: a NaN or infinite one
    would call every attack reducible."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def check_reducibility(e1: GaussianChannel, e2: GaussianChannel,
                       e_roundtrip: GaussianChannel, tol: float) -> ReducibilityVerdict:
    """Classify a two-path attack as reducible, asymmetric or irreducible.

    Asymmetric if the forward and backward channels differ beyond `tol`;
    irreducible if the round trip differs from e2 o e1 (Alice's publicized
    map in between is the identity) beyond `tol`; reducible otherwise. `tol`
    must pass `require_tolerance`. A deviation that is inf or NaN, where the
    composition overflows (channels estimated at W ~ 1e200) or a channel is
    already inf, compares with no tolerance: it raises NumericalFailure.
    """
    require_tolerance(tol)
    sym_dev = channel_distance(e1, e2)
    with np.errstate(over="ignore", invalid="ignore"):
        comp_dev = channel_distance(e_roundtrip, compose(e1, e2))
    if not (math.isfinite(sym_dev) and math.isfinite(comp_dev)):
        raise NumericalFailure(f"channel deviations overflow: symmetry "
                               f"{sym_dev}, composition {comp_dev}")
    kind = ("asymmetric" if sym_dev > tol
            else "irreducible" if comp_dev > tol else "reducible")
    return ReducibilityVerdict(kind, sym_dev, comp_dev, tol)


DEFAULT_PROBE_DISPLACEMENTS = np.array(
    [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [-4.0, 0.0], [0.0, -4.0], [3.0, 3.0]]
)


def simulate_probe_dataset(channel: GaussianChannel, n_per_probe: int, seed: int,
                           displacements=DEFAULT_PROBE_DISPLACEMENTS) -> TomographyDataset:
    """Sample coherent-state probes through a known channel.

    Each probe sends a coherent state (input CM = I) displaced by one row d
    of `displacements`; the output moments are sample estimates over
    `n_per_probe` shots G d + d0 + L z: L is the Cholesky factor of the
    output CM G G^T + N all probes share (physical, so positive definite),
    and the z of all probes are one `rng.normal_chunks` stream, two columns
    per probe, whose sample mean and covariance are folded chunk by chunk in
    memory flat in n (`rng.normal_moments`). Moments beyond the largest double
    are inf or NaN, without a warning; `estimate_channel` rejects them.
    """
    if n_per_probe < TomographyDataset.MIN_SAMPLES:
        raise ValueError(f"probe with n={n_per_probe} < {TomographyDataset.MIN_SAMPLES}")
    displacements = np.asarray(displacements, dtype=float)
    m = len(displacements)
    gain = channel.gain
    z_mean, z_cov = normal_moments(seed, n_per_probe, 2 * m)
    k = np.arange(m)
    with np.errstate(over="ignore", invalid="ignore"):
        chol = np.linalg.cholesky(gain @ gain.T + channel.noise)
        # (2, 1) columns: each mean rounds as its probe's matrix-vector product
        means = (gain @ displacements[:, :, None] + channel.displacement[:, None]
                 + chol @ z_mean.reshape(m, 2, 1))[:, :, 0]
        cms = chol @ z_cov.reshape(m, 2, m, 2)[k, :, k] @ chol.T
    return TomographyDataset(displacements, means, cms, n_per_probe)
