"""One-mode Gaussian (entangling-cloner) attack parameters.

The canonical collective Gaussian attack on a one-way channel is the
entangling cloner: a beam splitter of transmission T mixes the signal with
one half of Eve's EPR pair of variance W. It is parameterized either by
(T, W) or by (T, N) with excess noise N = (W-1)(1-T)/T.

This module is plain arithmetic on the standard library. The correlated
two-path attack that the reducibility check is tested against is a pair of
these cloners with coupled ancillas; it lives in `tomography`, next to the
channel model and the check that read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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


def require_finite_excess_noise(params: AttackParams, user: str) -> None:
    """ValueError naming `user` unless T > 0 and N is finite (N overflows at
    a subnormal T)."""
    if params.T == 0.0 or not math.isfinite(params.N):
        raise ValueError(f"{user} needs a transmission T > 0 at which the excess noise "
                         f"(W - 1)(1 - T)/T it reports is finite, got T={params.T}, W={params.W}")
