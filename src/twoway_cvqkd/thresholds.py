"""Security thresholds: the maximum tolerable excess noise N(T).

For each (protocol, reconciliation) pair the asymptotic rate decreases
monotonically in the attack variance W at fixed transmission T, so the
security boundary rate = 0 has a unique root in W. The solver bisects on W
and reports the threshold as excess noise N = (W - 1)(1 - T)/T; if the rate
is already non-positive in the pure-loss limit W = 1 the threshold is 0.

Curve sweeps over a transmission grid, crossover location between curves,
and the one-way versus two-way dominance report are built on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackParams, excess_noise
from .key_rates import (DIVERGENT_RR, NumericalFailure, Protocol,
                        Reconciliation, asymptotic_rate)

W_TOL = 1e-10
W_HI_MAX = 1e6
# Slack for the monotonicity check during bracket expansion: the rate must
# not increase with W by more than this.
MONOTONE_SLACK = 1e-9
# Width in T to which `crossover` refines each crossing.
CROSSOVER_T_TOL = 1e-4


def default_threads() -> int:
    """Number of workers a sweep uses: always 1, sweeps run serially."""
    return 1


def solve_threshold(protocol, reconciliation, T: float,
                    w_tol: float = W_TOL) -> float:
    """Maximum tolerable excess noise N at transmission T.

    Bisects the asymptotic rate on W in [1, W_hi], expanding the bracket by
    doubling until the rate changes sign. Raises NumericalFailure if the
    rate increases with W during expansion or no sign change is found below
    W_hi = 1e6; raises ValueError for pairs whose rate diverges.
    """
    protocol = Protocol(protocol)
    recon = Reconciliation(reconciliation)
    if recon is Reconciliation.RR and protocol in DIVERGENT_RR:
        raise ValueError(f"no threshold for {protocol.value} {recon.value}: "
                         "the rate diverges to -inf")

    def rate(w: float) -> float:
        return asymptotic_rate(protocol, recon, AttackParams(T, w)).rate

    r_lo = rate(1.0)
    if r_lo <= 0.0:
        return 0.0
    lo, hi = 1.0, 2.0
    r_prev = r_lo
    while True:
        r_hi = rate(hi)
        if r_hi > r_prev + MONOTONE_SLACK:
            raise NumericalFailure(
                f"rate not monotone in W for {protocol.value} {recon.value} at "
                f"T={T}: rate({hi}) = {r_hi} > rate at smaller W = {r_prev}")
        if r_hi <= 0.0:
            break
        lo, r_prev = hi, r_hi
        hi *= 2.0
        if hi > W_HI_MAX:
            raise NumericalFailure(
                f"no sign change in W up to {W_HI_MAX} for {protocol.value} "
                f"{recon.value} at T={T}")
    while hi - lo > w_tol:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return excess_noise(AttackParams(T, 0.5 * (lo + hi)))


@dataclass(frozen=True)
class Grid:
    """Uniform transmission grid, endpoints included, inside (0, 1)."""

    T_min: float = 0.02
    T_max: float = 0.98
    steps: int = 193

    def __post_init__(self):
        if not 0.0 < self.T_min <= self.T_max < 1.0:
            raise ValueError(f"grid must sit inside (0, 1), got "
                             f"[{self.T_min}, {self.T_max}]")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")

    def points(self) -> np.ndarray:
        return np.linspace(self.T_min, self.T_max, self.steps)


@dataclass(frozen=True)
class ThresholdCurve:
    """Threshold N(T) on a grid; failed points carry NaN and an error note."""

    protocol: Protocol
    reconciliation: Reconciliation
    grid: Grid
    T: np.ndarray
    N: np.ndarray
    errors: dict = field(default_factory=dict)


def sweep_curve(protocol, reconciliation, grid: Grid | None = None) -> ThresholdCurve:
    """Solve the threshold at every grid point, in grid order.

    Per-point solver failures are recorded in `errors` (index -> message)
    and surface as NaN in the curve rather than aborting the sweep.
    """
    protocol = Protocol(protocol)
    recon = Reconciliation(reconciliation)
    if grid is None:
        grid = Grid()
    points = grid.points()
    n_vals = np.full(points.shape, np.nan)
    errors: dict[int, str] = {}
    for i, T in enumerate(points):
        try:
            n_vals[i] = solve_threshold(protocol, recon, T)
        except NumericalFailure as exc:
            errors[i] = str(exc)
    return ThresholdCurve(protocol, recon, grid, points, n_vals, errors)


def _require_same_grid(a: ThresholdCurve, b: ThresholdCurve) -> None:
    if a.grid != b.grid:
        raise ValueError(f"curves are on different grids: {a.grid} vs {b.grid}")


def crossover(curve_a: ThresholdCurve, curve_b: ThresholdCurve) -> list[float]:
    """Transmissions where the curves cross, refined by local bisection.

    Grid points where the difference N_a - N_b changes sign are refined to
    CROSSOVER_T_TOL in T by re-solving both thresholds at the bisection
    midpoints. Touching without sign change does not count.
    """
    _require_same_grid(curve_a, curve_b)

    def diff(t: float) -> float:
        return (solve_threshold(curve_a.protocol, curve_a.reconciliation, t)
                - solve_threshold(curve_b.protocol, curve_b.reconciliation, t))

    d = curve_a.N - curve_b.N
    out = []
    for i in range(len(d) - 1):
        if np.isnan(d[i]) or np.isnan(d[i + 1]):
            continue
        if d[i] == 0.0 or d[i] * d[i + 1] >= 0.0:
            continue
        lo, hi = float(curve_a.T[i]), float(curve_a.T[i + 1])
        d_lo = d[i]
        while hi - lo > CROSSOVER_T_TOL:
            mid = 0.5 * (lo + hi)
            d_mid = diff(mid)
            if d_mid == 0.0:
                lo = hi = mid
                break
            if (d_mid > 0) == (d_lo > 0):
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return out


@dataclass(frozen=True)
class SuperadditivityReport:
    """Per-point dominance of a two-way curve over its one-way counterpart.

    `sign` holds +1 where the two-way threshold exceeds the one-way one,
    -1 where it is lower and 0 where they agree to within 1e-12.
    """

    one_way: ThresholdCurve
    two_way: ThresholdCurve
    sign: np.ndarray
    crossovers: list

    @property
    def improved_everywhere(self) -> bool:
        return bool(np.all(self.sign > 0))

    @property
    def no_improvement(self) -> bool:
        return bool(np.all(self.sign == 0))


def superadditivity_report(one_way: ThresholdCurve,
                           two_way: ThresholdCurve) -> SuperadditivityReport:
    _require_same_grid(one_way, two_way)
    delta = two_way.N - one_way.N
    sign = np.zeros(delta.shape, dtype=int)
    sign[delta > 1e-12] = 1
    sign[delta < -1e-12] = -1
    return SuperadditivityReport(one_way, two_way, sign,
                                 crossover(two_way, one_way))
