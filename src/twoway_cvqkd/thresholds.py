"""Security thresholds: the maximum tolerable excess noise N(T).

For each (protocol, reconciliation) pair the asymptotic rate decreases
monotonically in the attack variance W at fixed transmission T, so the
security boundary rate = 0 has a unique root in W. The solver bisects on W
and reports the threshold as excess noise N = (W - 1)(1 - T)/T; if the rate
is already non-positive in the pure-loss limit W = 1 the threshold is 0.

Curve sweeps (all grid points bisected at once), crossover location between
curves and the one-way versus two-way dominance report are built on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackParams, excess_noise
from .key_rates import (_RATES, DIVERGENT_RR, NumericalFailure, Protocol,
                        Reconciliation, asymptotic_rate)

W_TOL = 1e-10
# Bracket ends double from 2 while they stay below this cap, so the last
# one tried is 2^19. It must not grow: adjacent doubles in [2^19, 2^20] are
# 1.16e-10 apart, wider than W_TOL, and a bisection there never stops.
W_HI_MAX = 1e6
# Slack for the monotonicity check during bracket expansion: the rate must
# not increase with W by more than this.
MONOTONE_SLACK = 1e-9
# Width in T to which `crossover` refines each crossing.
CROSSOVER_T_TOL = 1e-4


def default_threads() -> int:
    """Number of workers a sweep uses: always 1, sweeps run serially."""
    return 1


def _finite_pair(protocol, reconciliation) -> tuple[Protocol, Reconciliation]:
    protocol = Protocol(protocol)
    recon = Reconciliation(reconciliation)
    if recon is Reconciliation.RR and protocol in DIVERGENT_RR:
        raise ValueError(f"no threshold for {protocol.value} {recon.value}: "
                         "the rate diverges to -inf")
    return protocol, recon


def solve_threshold(protocol, reconciliation, T: float,
                    w_tol: float = W_TOL) -> float:
    """Maximum tolerable excess noise N at transmission T.

    Bisects the asymptotic rate on W in [1, W_hi], expanding the bracket by
    doubling until the rate changes sign. Raises NumericalFailure if the
    rate increases with W during expansion or is still positive at the last
    bracket end below W_HI_MAX (2^19); raises ValueError for pairs whose
    rate diverges.
    """
    protocol, recon = _finite_pair(protocol, reconciliation)

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
                f"no sign change in W up to {lo} for {protocol.value} "
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
    """Solve the threshold at every grid point, all points at once.

    The points take the steps of `solve_threshold` together, each step one
    array evaluation of the closed form, and stop on the same test, so
    their midpoints and N are the same. A point that fails (a NaN rate, a
    rising rate, no sign change below W_HI_MAX) is solved again by
    `solve_threshold`; if that raises, the point is NaN and `errors` holds
    its message (grid index -> message, in grid order).
    """
    protocol, recon = _finite_pair(protocol, reconciliation)
    rates = _RATES[protocol, recon]
    if grid is None:
        grid = Grid()
    T = grid.points()
    idx = np.arange(T.size)
    r_prev = rates(T, np.ones(T.shape), np)
    N = np.where(r_prev <= 0.0, 0.0, np.nan)
    failed = [idx[np.isnan(r_prev)]]
    idx, r_prev = idx[r_prev > 0.0], r_prev[r_prev > 0.0]
    lo, hi = np.ones(T.shape), np.full(T.shape, 2.0)
    bracketed = [idx[:0]]
    while idx.size:
        r_hi = rates(T[idx], hi[idx], np)
        bad = np.isnan(r_hi) | (r_hi > r_prev + MONOTONE_SLACK)
        failed.append(idx[bad])
        bracketed.append(idx[~bad & (r_hi <= 0.0)])
        grow = ~bad & (r_hi > 0.0)
        idx, r_prev = idx[grow], r_hi[grow]
        lo[idx], hi[idx] = hi[idx], 2.0 * hi[idx]
        over = hi[idx] > W_HI_MAX
        failed.append(idx[over])
        idx, r_prev = idx[~over], r_prev[~over]
    idx = solved = np.concatenate(bracketed)
    while (idx := idx[hi[idx] - lo[idx] > W_TOL]).size:
        mid = 0.5 * (lo[idx] + hi[idx])
        r = rates(T[idx], mid, np)
        lo[idx[r > 0.0]] = mid[r > 0.0]
        hi[idx[r <= 0.0]] = mid[r <= 0.0]
        failed.append(idx[np.isnan(r)])
        idx = idx[~np.isnan(r)]
    W = 0.5 * (lo[solved] + hi[solved])
    N[solved] = (W - 1.0) * (1.0 - T[solved]) / T[solved]
    errors: dict[int, str] = {}
    for i in np.sort(np.concatenate(failed)):
        try:
            N[i] = solve_threshold(protocol, recon, T[i])
        except NumericalFailure as exc:
            N[i], errors[int(i)] = np.nan, str(exc)
    return ThresholdCurve(protocol, recon, grid, T, N, errors)


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
