"""Security thresholds: the maximum tolerable excess noise N(T).

For each (protocol, reconciliation) pair the asymptotic rate decreases
monotonically in the attack variance W at fixed transmission T, so the
security boundary rate = 0 has a unique root in W. The solver brackets the
root by doubling W and reports the threshold as excess noise
N = (W - 1)(1 - T)/T; if the rate is already non-positive in the pure-loss
limit W = 1 the threshold is 0.

Inside the bracket it evaluates the rate only on the points lo + k h of
bisection's lattice, h being the bracket width halved down to W_TOL, and
stops at a lattice cell where the rate changes sign. Regula-falsi steps
with Anderson-Bjorck scaling (Anderson & Bjorck, BIT 13, 253, 1973; the
Illinois halving of Dowell & Jarratt, BIT 11, 168, 1971, as fallback), which
read only the rates at the bracket ends, pick the points and reach the cell
in a few rate evaluations instead of some forty. Where the rate changes by
more than its rounding noise over one cell, the cell is unique and is
bisection's final bracket, so N is bisection's to the bit. For the closed
forms that holds below T = 0.9999; closer to 1, where W is large, two
solves may stop in different cells of the noisy band and N differs in the
14th digit. het2 RR takes bisection's own steps, its rates read ahead in
array calls: its closed form decides the sign outside a band around 0,
and inside it the rate is that of the numeric spectrum, too noisy for
secant steps, so every walk reads the same signs. Every rate is a read of
`key_rates._RATES`; a read that raised ValueError or is not finite takes
`asymptotic_rate`'s rate or failure.

Curve sweeps are built on top: all grid points of all requested curves
are solved at once, in one lockstep walk of the same steps, and each curve
is that of its pair swept alone. So are the crossover location between
curves and the one-way versus two-way dominance report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackParams, excess_noise
from .key_rates import (_RATES, NumericalFailure, Protocol, Reconciliation,
                        _require_rate_params, asymptotic_rate, finite_pair)

W_TOL = 1e-10
# Bracket ends double from 2 up to this cap, which is the last end tried.
# Above 2^19 adjacent doubles are 1.16e-10 apart, wider than W_TOL, so a
# bracket there is refined down to the spacing of doubles instead.
W_HI_MAX = 1e6
# The ladder both solvers climb: [1, 2], [2, 4], ..., [2^19, W_HI_MAX].
BRACKETS = [(2.0 ** k, 2.0 ** (k + 1)) for k in range(19)] + [(2.0 ** 19, W_HI_MAX)]
# Slack for the monotonicity check during bracket expansion: the rate must
# not increase with W by more than this.
MONOTONE_SLACK = 1e-9
# Width in T to which `crossover` refines each crossing.
CROSSOVER_T_TOL = 1e-4
# Both solvers give this pair bisection's own steps (see the module docstring).
BISECTION_ONLY_PAIR = (Protocol.HET2, Reconciliation.RR)
# solve_threshold reads this pair's rates at so many ladder ends, or bisection
# levels, per array call; a call of 7 points costs under 2 one-point calls.
READ_AHEAD_ENDS, READ_AHEAD_LEVELS = 4, 3
LADDER_ENDS = [1.0] + [hi for _, hi in BRACKETS]


def default_threads() -> int:
    """Number of workers a sweep uses: always 1, sweeps run serially."""
    return 1


def _lattice(lo: float, hi: float) -> tuple[float, int]:
    """(h, n): the width of bisection's final cell in the bracket [lo, hi]
    and the number of such cells in it. h is hi - lo halved k times, k the
    least with h at most W_TOL (read when called) or, in the last bracket
    [2^19, W_HI_MAX], at most the spacing of doubles at lo, and n = 2^k.
    k comes from the binary exponents of the width and the bound; halving
    is exact, so (h, n) is bit for bit what a halving loop ends with. Below
    2^19 every lattice point lo + k h is a double, and the midpoint of two
    of them is what bisection computes."""
    width = hi - lo
    m_w, e_w = math.frexp(width)
    m_t, e_t = math.frexp(max(W_TOL, math.ulp(lo)))
    k = max(0, e_w - e_t + (m_w > m_t))
    return math.ldexp(width, -k), 1 << k


def solve_threshold(protocol, reconciliation, T: float) -> float:
    """Maximum tolerable excess noise N at transmission T.

    Brackets the root of the asymptotic rate in W on the ladder BRACKETS,
    then narrows the bracket to one cell of bisection's lattice (see
    `_lattice`) and returns the N of the cell's midpoint. Each point is the
    regula-falsi point of the bracket ends, rounded to the nearest lattice
    point strictly inside the bracket. When the same end is replaced twice
    in a row, the rate kept at the other end is scaled by the
    Anderson-Bjorck factor 1 - r_new / r_replaced (or by 1/2 where that is
    not positive), so that end moves too. The bisection midpoint is taken
    instead when the last three steps did not halve the bracket, when the
    scaled rates no longer differ (they can underflow, and a lattice
    point's rate can be exactly 0), and for het2 RR. So the cell is that of
    plain bisection, in at most 4x its steps. Each rate is a one-point read
    of `key_rates._RATES` on Python floats, and a closed-form solve calls
    no numpy; only het2 RR reads ahead in array calls, under its own
    errstate, at READ_AHEAD_ENDS ladder ends or the midpoints of
    READ_AHEAD_LEVELS bisection levels. A read that raised ValueError or is
    not finite takes `asymptotic_rate`'s rate or error. Raises
    NumericalFailure if the rate rises with W during expansion, is still
    positive at W_HI_MAX or is +inf where regula falsi reads it, and
    ValueError for T outside (0, 1) or a pair whose rate diverges.
    """
    protocol, recon = finite_pair(protocol, reconciliation)
    _require_rate_params(AttackParams(T))
    T, table = float(T), _RATES[protocol, recon]
    batched = (protocol, recon) == BISECTION_ONLY_PAIR
    ahead = {}   # het2 RR: W -> the rate read there in an array call

    def read(ws: list) -> None:
        with np.errstate(all="ignore"):
            try:
                rs = table(np.full(len(ws), T), np.array(ws), np).tolist()
            except (ValueError, NumericalFailure):   # each point on its own then
                rs = [math.nan] * len(ws)
        ahead.update(zip(ws, rs))

    def rate(w: float) -> float:
        try:
            r = ahead.get(w, math.nan) if batched else table(T, w, math)
        except ValueError:
            r = math.nan
        return r if math.isfinite(r) else asymptotic_rate(protocol, recon, AttackParams(T, w)).rate

    if batched:
        read(LADDER_ENDS[:READ_AHEAD_ENDS])
    r_prev = rate(1.0)
    if r_prev <= 0.0:
        return 0.0
    for lo, hi in BRACKETS:
        if batched and hi not in ahead:
            read(LADDER_ENDS[LADDER_ENDS.index(hi):][:READ_AHEAD_ENDS])
        r = rate(hi)
        if r > r_prev + MONOTONE_SLACK:
            raise NumericalFailure(
                f"rate not monotone in W for {protocol.value} {recon.value} at "
                f"T={T}: rate({hi}) = {r} > rate at smaller W = {r_prev}")
        if r <= 0.0:
            break
        r_prev = r
    else:
        raise NumericalFailure(f"no sign change in W up to {hi} for {protocol.value} "
                               f"{recon.value} at T={T}")
    # the bracket is [lo + a h, lo + b h], with rates f_a > 0 >= f_b; f_a and
    # f_b may be scaled down by Anderson-Bjorck steps, the signs are the rates'
    h, b = _lattice(lo, hi)
    a, f_a, f_b = 0, r_prev, r
    # the end the last step replaced (+1 a, -1 b, 0 none) and the bracket
    # widths before the last three steps, oldest first
    side, w_3, w_2, w_1 = 0, math.inf, math.inf, math.inf
    while b - a > 1:
        width = b - a
        # a midpoint whenever the last three steps did not halve the bracket:
        # at most 4x bisection's steps
        if not batched and 2 * width <= w_3 and f_a - f_b > 0.0:
            if f_a == math.inf:   # inf / inf: no regula-falsi point
                raise NumericalFailure(f"{protocol.value} {recon.value} rate is inf at "
                                       f"T={T}, W={lo + a * h}")
            k = min(max(round(a + f_a / (f_a - f_b) * width), a + 1), b - 1)
        else:
            k = (a + b) // 2
            if batched and lo + k * h not in ahead:   # read the next levels' midpoints
                step = max(1, (b - a) >> READ_AHEAD_LEVELS)   # b - a is a power of 2
                read([lo + j * h for j in range(a + step, b, step)])
        r = rate(lo + k * h)
        if r > 0.0:
            if side == 1:
                f_b *= 1.0 - r / f_a if abs(r) < abs(f_a) else 0.5
            a, f_a, side = k, r, 1
        else:
            if side == -1:
                f_a *= 1.0 - r / f_b if abs(r) < abs(f_b) else 0.5
            b, f_b, side = k, r, -1
        w_3, w_2, w_1 = w_2, w_1, width
    return excess_noise(AttackParams(T, 0.5 * ((lo + a * h) + (lo + b * h))))


@dataclass(frozen=True)
class Grid:
    """Uniform transmission grid inside (0, 1), both ends included."""

    T_min: float = 0.02
    T_max: float = 0.98
    steps: int = 193

    def __post_init__(self):
        if not 0.0 < self.T_min <= self.T_max < 1.0:
            raise ValueError(f"grid must sit inside (0, 1), got "
                             f"[{self.T_min}, {self.T_max}]")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.steps == 1 and self.T_min < self.T_max:
            raise ValueError(f"steps must be >= 2 to include both ends of "
                             f"[{self.T_min}, {self.T_max}], got 1")

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


def sweep_curve(protocol, reconciliation, grid: Grid) -> ThresholdCurve:
    """Solve the threshold at every grid point, all points at once: the
    one-pair call of `sweep_curves`."""
    return sweep_curves([(protocol, reconciliation)], grid)[0]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def sweep_curves(pairs, grid: Grid) -> list[ThresholdCurve]:
    """Threshold curves of all `pairs` on one grid, in one lockstep walk.

    The grid is tiled once per pair, each pair's points one contiguous
    block, and every point takes the steps of `solve_threshold` together
    with all the others; at each step each pair's closed form is evaluated
    once, on the array of that pair's points still walking. The points
    climb BRACKETS in lockstep, one evaluation at one W per rung, then
    narrow their brackets with the same step rule on the same lattice and
    up to a one-cell bracket (het2 RR points take only bisection
    midpoints), so their N is that of `solve_threshold` wherever that cell
    is unique (see the module docstring). A point's steps depend on its own
    rates alone, so each curve, and each array its pair's table is called
    with, is that of the pair swept alone. A point that fails (a rate that
    is not finite: NaN, an overflow or the log of 0; a rising rate; no sign
    change up to W_HI_MAX) is solved again by `solve_threshold`, pair by
    pair and index by index; if that raises, the point is NaN and its
    curve's `errors` maps its index to the message.
    """
    pairs = [finite_pair(p, r) for p, r in pairs]
    tables = [_RATES[pair] for pair in pairs]
    n = grid.steps
    starts = n * np.arange(len(pairs) + 1)

    def rates(idx, t, w):   # idx sorted: one table call per pair with points in it
        r = np.empty(t.shape)
        cuts = np.searchsorted(idx, starts).tolist()
        for table, i, j in zip(tables, cuts, cuts[1:]):
            if i < j:
                r[i:j] = table(t[i:j], w[i:j], np)
        return r

    T = np.tile(grid.points(), len(pairs))
    # each point's bracket is [lo + a h, lo + b h], with rates f_a > 0 >= f_b;
    # until it is found, f_a is the rate at the rung's lower end
    f_a = rates(np.arange(T.size), T, np.ones(T.shape))
    finite = np.isfinite(f_a)
    N = np.where(finite & (f_a <= 0.0), 0.0, np.nan)
    failed = [np.flatnonzero(~finite)]
    lo, h, f_b = np.zeros((3, T.size))
    b = np.zeros(T.shape, dtype=np.int64)
    # the points still climbing, all on one rung
    idx = np.flatnonzero(finite & (f_a > 0.0))
    for w_lo, w_hi in BRACKETS:
        if not idx.size:
            break
        r = rates(idx, T[idx], np.full(idx.shape, w_hi))
        bad = ~np.isfinite(r) | (r > f_a[idx] + MONOTONE_SLACK)
        failed.append(idx[bad])
        found, grow = ~bad & (r <= 0.0), ~bad & (r > 0.0)
        lo[idx[found]], f_b[idx[found]] = w_lo, r[found]
        h[idx[found]], b[idx[found]] = _lattice(w_lo, w_hi)
        f_a[idx[grow]] = r[grow]
        idx = idx[grow]
    failed.append(idx)   # still positive at W_HI_MAX
    idx = np.flatnonzero(b)   # the points with a bracket
    t, lo, h, b, f_a, f_b = T[idx], lo[idx], h[idx], b[idx], f_a[idx], f_b[idx]
    a, side = np.zeros(idx.shape, dtype=np.int64), np.zeros(idx.shape, dtype=np.int64)
    widths = [np.full(idx.shape, np.inf)] * 3
    secant = np.repeat([pair != BISECTION_ONLY_PAIR for pair in pairs], n)[idx]
    while idx.size:
        # the step rule of solve_threshold, on arrays
        width = b - a
        with np.errstate(all="ignore"):   # only the secant entries are kept
            guess = np.clip(np.rint(a + f_a / (f_a - f_b) * width), a + 1, b - 1)
        k = np.where(secant & (2 * width <= widths[0]) & (f_a - f_b > 0.0),
                     guess, (a + b) // 2).astype(np.int64)
        r = rates(idx, t, lo + k * h)
        finite = np.isfinite(r)
        up, down = finite & (r > 0.0), finite & (r <= 0.0)
        # the points whose rate is not finite are dropped below, so ~up is down
        f = np.where(up, f_a, f_b)
        with np.errstate(all="ignore"):   # r / f is not kept where f may be 0
            m = np.where(np.abs(r) < np.abs(f), 1.0 - r / f, 0.5)
        f_a = np.where(up, r, np.where(side == -1, f_a * m, f_a))
        f_b = np.where(up, np.where(side == 1, f_b * m, f_b), r)
        side = np.where(up, 1, -1)
        widths = widths[1:] + [width]
        a, b = np.where(up, k, a), np.where(down, k, b)
        done = b - a <= 1
        if (keep := ~done & (up | down)).all():
            continue
        failed.append(idx[~(up | down)])
        W = 0.5 * ((lo[done] + a[done] * h[done]) + (lo[done] + b[done] * h[done]))
        N[idx[done]] = (W - 1.0) * (1.0 - t[done]) / t[done]
        idx, t, lo, h, a, b, f_a, f_b, side, secant = (
            v[keep] for v in (idx, t, lo, h, a, b, f_a, f_b, side, secant))
        widths = [w[keep] for w in widths]
    curves = [ThresholdCurve(p, r, grid, T[i:j], N[i:j])
              for (p, r), i, j in zip(pairs, starts, starts[1:])]
    for i in np.sort(np.concatenate(failed)).tolist():
        curve = curves[i // n]
        try:
            N[i] = solve_threshold(curve.protocol, curve.reconciliation, T[i])
        except NumericalFailure as exc:
            N[i], curve.errors[i % n] = np.nan, str(exc)
    return curves


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
    for i in np.flatnonzero(d[:-1] * d[1:] < 0.0):   # NaN and 0 are no sign change
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
    sign = (delta > 1e-12).astype(int) - (delta < -1e-12)
    return SuperadditivityReport(one_way, two_way, sign,
                                 crossover(two_way, one_way))
