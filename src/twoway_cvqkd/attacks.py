"""One-mode Gaussian (entangling-cloner) attacks and a correlated variant.

The canonical collective Gaussian attack on a one-way channel is the
entangling cloner: a beam splitter of transmission T mixes the signal with
one half of Eve's EPR pair of variance W. It is parameterized either by
(T, W) or by (T, N) with excess noise N = (W-1)(1-T)/T.

For testing the hybrid-protocol reducibility check, a synthetic two-path
attack couples the ancillas injected into the forward and backward paths
with an EPR-like correlation of strength c in [-1, 1]; c = 0 reproduces two
independent cloners (a reducible attack), c != 0 makes the round-trip
channel deviate from the composition of its legs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import I2, Z2, symplectic_eigenvalues
from .tomography import GaussianChannel


@dataclass(frozen=True)
class AttackParams:
    """Entangling-cloner parameters: transmission T and EPR variance W.

    Rate formulas require T strictly inside (0, 1); the endpoints are
    accepted here so that transforms remain usable in tests.
    """

    T: float
    W: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.T <= 1.0:
            raise ValueError(f"transmission must be in [0, 1], got {self.T}")
        if not 1.0 <= self.W < math.inf:
            raise ValueError(f"EPR variance must be finite and >= 1, got {self.W}")

    @classmethod
    def from_excess(cls, T: float, N: float) -> "AttackParams":
        return cls(T, w_from_excess(T, N))

    @property
    def N(self) -> float:
        return excess_noise(self)


def excess_noise(params: AttackParams) -> float:
    """Excess noise N = (W - 1)(1 - T)/T, the non-loss part of the noise."""
    if params.T == 0.0:
        raise ValueError("excess noise is undefined at T = 0")
    return (params.W - 1.0) * (1.0 - params.T) / params.T


def w_from_excess(T: float, N: float) -> float:
    """EPR variance W = 1 + N T/(1 - T); inverse of excess_noise."""
    if not 0.0 < T < 1.0:
        raise ValueError(f"transmission must be in (0, 1), got {T}")
    if not 0.0 <= N < math.inf:
        raise ValueError(f"excess noise must be finite and >= 0, got {N}")
    return 1.0 + N * T / (1.0 - T)


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
        nu_min = symplectic_eigenvalues(self.joint_ancilla_cm()).min()
        if nu_min < 1.0 - 1e-9:
            raise ValueError(
                f"unphysical correlation {self.correlation} for W_f={self.forward.W}, "
                f"W_b={self.backward.W} (min symplectic eigenvalue {nu_min})"
            )

    def coupling(self) -> float:
        # (W^2 - 1)^(1/4) of each leg without forming W^2, so the coupling is
        # finite (and 0 at correlation 0) for every finite W
        return self.correlation * math.prod(
            (w - 1.0) ** 0.25 * (w + 1.0) ** 0.25 for w in (self.forward.W, self.backward.W))

    def joint_ancilla_cm(self) -> np.ndarray:
        """Joint CM of the two injected ancillas (E_f, E_b)."""
        chi = self.coupling()
        return np.block([
            [self.forward.W * I2, chi * Z2],
            [chi * Z2, self.backward.W * I2],
        ])


def correlated_two_mode_channels(
        params: CorrelatedAttackParams) -> tuple[GaussianChannel, GaussianChannel, GaussianChannel]:
    """Forward, backward and actual round-trip channels of the two-path attack.

    The forward and backward legs are ordinary cloner channels with gain
    sqrt(T) I and noise (1-T) W I. The round trip picks up an extra
    Z-patterned noise term 2 sqrt(T_b (1-T_f)(1-T_b)) chi from the ancilla
    coupling, so for c = 0 it equals the composition of the legs exactly and
    for c != 0 it does not.
    """
    tf, wf = params.forward.T, params.forward.W
    tb, wb = params.backward.T, params.backward.W
    forward = GaussianChannel(math.sqrt(tf) * I2, (1.0 - tf) * wf * I2)
    backward = GaussianChannel(math.sqrt(tb) * I2, (1.0 - tb) * wb * I2)
    cross = 2.0 * math.sqrt(tb * (1.0 - tf) * (1.0 - tb)) * params.coupling()
    round_trip = GaussianChannel(
        math.sqrt(tf * tb) * I2,
        tb * (1.0 - tf) * wf * I2 + (1.0 - tb) * wb * I2 + cross * Z2,
    )
    return forward, backward, round_trip
