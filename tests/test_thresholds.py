import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from twoway_cvqkd import key_rates, thresholds
from twoway_cvqkd.attacks import AttackParams
from twoway_cvqkd.gaussian import g_entropy
from twoway_cvqkd.key_rates import (_RATES, DIVERGENT_RR, NumericalFailure,
                                    Protocol, Reconciliation, asymptotic_rate,
                                    finite_pair)
from twoway_cvqkd.thresholds import (Grid, crossover, solve_threshold,
                                     superadditivity_report, sweep_curve,
                                     sweep_curves)

from oracles import bisect_threshold, het2_rr_closed_form

FINITE_PAIRS = [(p, r) for p in Protocol for r in Reconciliation
                if not (r is Reconciliation.RR and p in DIVERGENT_RR)]
HET2_RR = (Protocol.HET2, Reconciliation.RR)
CLOSED_FORM_PAIRS = [pair for pair in FINITE_PAIRS if pair != HET2_RR]


def test_threshold_zero_at_3db_boundary():
    assert solve_threshold("coll_het", "dr", 0.5) == 0.0


def test_threshold_zero_at_two_way_pure_loss_root():
    assert solve_threshold("coll_hom2", "dr", (3 - math.sqrt(5)) / 2) == 0.0


def test_threshold_hom_rr_against_scalar_root():
    # independent oracle: root of (1/2) log2(W/(0.5 b1)) - g(W) in W
    def rate(w):
        b1 = 0.5 * w + 0.5
        return 0.5 * math.log2(w / (0.5 * b1)) - g_entropy(w)

    w_root = brentq(rate, 1.0 + 1e-9, 100.0, xtol=1e-12)
    expect = (w_root - 1.0) * 0.5 / 0.5
    assert solve_threshold("hom", "rr", 0.5) == pytest.approx(expect, abs=1e-8)


def test_rate_vanishes_at_threshold():
    for proto, recon, T in (("hom", "dr", 0.7), ("het", "rr", 0.4),
                            ("hom2", "rr", 0.6), ("het2", "dr", 0.8)):
        n = solve_threshold(proto, recon, T)
        params = AttackParams.from_excess(T, n)
        assert abs(asymptotic_rate(proto, recon, params).rate) <= 1e-8


def test_threshold_solver_stability(monkeypatch):
    a = solve_threshold("coll_het", "dr", 0.75)
    monkeypatch.setattr(thresholds, "W_TOL", 2e-10)
    b = solve_threshold("coll_het", "dr", 0.75)
    assert a != b   # the solver reads W_TOL when it is called
    assert abs(a - b) <= 1e-8


def halving_lattice(lo, hi):
    """The cell of bisection in [lo, hi], found by halving the width."""
    tol = max(thresholds.W_TOL, math.ulp(lo))
    h, n = hi - lo, 1
    while h > tol:
        h, n = 0.5 * h, 2 * n
    return h, n


# the default, ties with a power-of-2 width (2^-34, 1), bounds wider than a
# rung (3), and bounds below every ulp on the ladder, where ulp(lo) sets it
@pytest.mark.parametrize("w_tol", [1e-10, 2e-10, 3e-11, 2.0 ** -34, 1e-3, 1.0, 3.0,
                                   1e-300])
def test_lattice_is_the_halving_loop(monkeypatch, w_tol):
    monkeypatch.setattr(thresholds, "W_TOL", w_tol)
    for lo, hi in thresholds.BRACKETS:
        h, n = thresholds._lattice(lo, hi)
        assert (h, n) == halving_lattice(lo, hi) and type(n) is int
        assert lo + n * h == hi
    lo, hi = thresholds.BRACKETS[-1]
    if w_tol == 1e-10:   # the last rung's cell is set by the spacing of doubles
        assert w_tol < thresholds._lattice(lo, hi)[0] <= math.ulp(lo)


# T from 1e-300 to 1 - 1e-12, where some pairs fail
NO_NUMPY_T = [1e-300, 1e-12, 0.02, 0.3, 0.5, 0.7, 0.95, 0.9999, 1 - 1e-12]


def solve_outcome(protocol, recon, T):
    try:
        return solve_threshold(protocol, recon, T)
    except NumericalFailure as exc:
        return str(exc)


def test_closed_form_solves_need_no_numpy(monkeypatch):
    # only het2 RR reads its rates in array calls: a closed-form solve sets
    # up nothing from numpy, and its N or failure is the same without it
    expected = [solve_outcome(p, r, T) for p, r in CLOSED_FORM_PAIRS for T in NO_NUMPY_T]
    assert sum(isinstance(o, float) and o > 0.0 for o in expected) > 50
    monkeypatch.setattr(thresholds, "np", None)
    assert [solve_outcome(p, r, T)
            for p, r in CLOSED_FORM_PAIRS for T in NO_NUMPY_T] == expected


def test_divergent_pair_rejected():
    with pytest.raises(ValueError):
        solve_threshold("coll_hom", "rr", 0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 0.9, 10)
    with pytest.raises(ValueError):
        Grid(0.5, 0.4, 10)
    with pytest.raises(ValueError, match="steps must be >= 1"):
        Grid(0.1, 0.2, 0)
    # one step would keep T_min and silently drop T_max
    with pytest.raises(ValueError, match="steps must be >= 2"):
        Grid(0.1, 0.9, 1)
    assert len(Grid(0.1, 0.9, 17).points()) == 17
    assert Grid(0.5, 0.5, 1).points().tolist() == [0.5]


def test_sweep_overflowing_closed_form_is_a_failed_point():
    # het RR's (1 - T + b1)/T overflows at T = 1e-320; a RuntimeWarning
    # fails the test
    curve = sweep_curve("het", "rr", Grid(1e-320, 0.5, 3))
    assert list(curve.errors) == [0]
    assert "closed form overflows" in curve.errors[0]
    assert np.isnan(curve.N[0])
    for i in (1, 2):
        assert curve.N[i] == solve_threshold("het", "rr", curve.T[i])


def test_float64_transmission_is_a_float():
    # the closed forms run on Python floats: a numpy T neither warns where
    # they overflow nor moves a bit of N
    failures = []
    for T in (np.float64(1e-320), 1e-320):
        with pytest.raises(NumericalFailure, match="closed form overflows") as exc:
            solve_threshold("het", "rr", T)
        failures.append(str(exc.value))
    assert failures[0] == failures[1]
    for protocol, recon in FINITE_PAIRS:
        for T in Grid().points()[::8]:
            assert solve_threshold(protocol, recon, T) == \
                solve_threshold(protocol, recon, float(T))


def test_rr_curves_strictly_positive():
    grid = Grid(0.05, 0.95, 19)
    for proto in ("hom", "het", "coll_het", "hom2", "het2"):
        curve = sweep_curve(proto, "rr", grid)
        assert not curve.errors
        assert np.all(curve.N > 0), proto


def test_crossover_hom2_vs_hom_dr():
    grid = Grid(0.7, 0.95, 26)
    hom2 = sweep_curve("hom2", "dr", grid)
    hom = sweep_curve("hom", "dr", grid)
    points = crossover(hom2, hom)
    assert len(points) == 1
    assert points[0] == pytest.approx(0.86, abs=0.01)


def test_crossover_stops_at_an_exact_zero_midpoint(monkeypatch):
    grid = Grid(0.8, 0.9, 2)
    hom2 = thresholds.ThresholdCurve(Protocol.HOM2, Reconciliation.DR, grid,
                                     grid.points(), np.array([0.2, 0.1]))
    hom = thresholds.ThresholdCurve(Protocol.HOM, Reconciliation.DR, grid,
                                    grid.points(), np.array([0.1, 0.2]))
    solved = []

    def equal_thresholds(protocol, recon, T):
        solved.append(T)
        return 0.15

    monkeypatch.setattr(thresholds, "solve_threshold", equal_thresholds)
    assert crossover(hom2, hom) == [0.5 * (0.8 + 0.9)]
    assert solved == [0.5 * (0.8 + 0.9)] * 2


def test_crossover_self_is_empty():
    grid = Grid(0.3, 0.7, 9)
    curve = sweep_curve("het", "dr", grid)
    assert crossover(curve, curve) == []


def test_no_crossover_het2_vs_het_dr():
    grid = Grid(0.05, 0.95, 31)
    het2 = sweep_curve("het2", "dr", grid)
    het = sweep_curve("het", "dr", grid)
    assert crossover(het2, het) == []


def test_crossover_rejects_grid_mismatch():
    a = sweep_curve("het", "dr", Grid(0.3, 0.7, 9))
    b = sweep_curve("het2", "dr", Grid(0.3, 0.7, 10))
    with pytest.raises(ValueError):
        crossover(a, b)


def test_superadditivity_het_rr():
    grid = Grid(0.1, 0.9, 17)
    report = superadditivity_report(sweep_curve("het", "rr", grid),
                                    sweep_curve("het2", "rr", grid))
    assert report.improved_everywhere
    assert report.crossovers == []


def test_superadditivity_hom_dr_reverses_above_crossover():
    grid = Grid(0.7, 0.95, 26)
    report = superadditivity_report(sweep_curve("hom", "dr", grid),
                                    sweep_curve("hom2", "dr", grid))
    t = grid.points()
    assert np.all(report.sign[t < 0.85] > 0)
    assert np.any(report.sign[t > 0.87] < 0)
    assert len(report.crossovers) == 1


def test_superadditivity_identical_curves():
    grid = Grid(0.3, 0.7, 9)
    curve = sweep_curve("hom", "dr", grid)
    report = superadditivity_report(curve, curve)
    assert report.no_improvement


def scalar_curve(protocol, recon, grid):
    """N and errors of `solve_threshold` point by point: the oracle of the
    batched `sweep_curve`."""
    n, errors = [], {}
    for i, T in enumerate(grid.points()):
        try:
            n.append(solve_threshold(protocol, recon, T))
        except NumericalFailure as exc:
            n.append(math.nan)
            errors[i] = str(exc)
    return np.array(n), errors


@pytest.mark.parametrize("protocol, recon", FINITE_PAIRS,
                         ids=lambda v: v.value)
def test_sweep_matches_scalar_solves(protocol, recon):
    grid = Grid(0.02, 0.98, 25)
    curve = sweep_curve(protocol, recon, grid)
    n, errors = scalar_curve(protocol, recon, grid)
    assert np.array_equal(curve.N, n, equal_nan=True)
    assert curve.errors == errors


def test_sweep_failures_match_scalar_solves():
    # het2 RR's numeric spectrum fails at T = 0.999
    grid = Grid(0.95, 0.999, 8)
    curve = sweep_curve("het2", "rr", grid)
    n, errors = scalar_curve("het2", "rr", grid)
    assert 7 in errors
    assert list(curve.errors.items()) == list(errors.items())
    assert np.array_equal(curve.N, n, equal_nan=True)


def test_sweep_of_broken_het2_stacks_is_the_scalar_sweep(monkeypatch):
    # a stack whose spectrum breaks is NaN in every row; the sweep re-solves
    # each such point by solve_threshold, whose stack of 2 matrices is spared.
    # A sweep step stacks, at 2 modulations each, the points whose rate is
    # not finite or lies in the numeric band: the first broken stack is the
    # first step with 2 or more such points (2 points, 4 matrices here)
    grid = Grid(0.1, 0.9, 5)
    table, steps = _RATES[HET2_RR], []

    def recording(T, W, xp):
        steps.append((T.copy(), W.copy()))
        return table(T, W, xp)

    monkeypatch.setitem(_RATES, HET2_RR, recording)
    expected = sweep_curve("het2", "rr", grid)
    monkeypatch.setitem(_RATES, HET2_RR, table)
    numeric_rows = []
    for T, W in steps:   # the band decided by the oracle's closed-form rate
        n = het2_rr_closed_form(T, W)
        closed = (np.log2(2 * T * (1 + T) / (math.e * (1 - T) * (1 + T * T + (1 - T * T) * W)))
                  + g_entropy(n[:, 1]) + g_entropy(n[:, 2]) - g_entropy(n[:, 0]))
        near = ~np.isfinite(closed) | (np.abs(closed) <= key_rates.HET2_RR_BAND)
        numeric_rows.append(int(near.sum()))
    first = next(k for k in numeric_rows if k >= 2)
    spectrum = key_rates.symplectic_eigenvalues
    broken = []

    def breaking(cm):
        if len(cm) > 2:
            broken.append(len(cm))
            raise ValueError("eigenvalues of Omega V fail +/- pairing: broken CM")
        return spectrum(cm)

    monkeypatch.setattr(key_rates, "symplectic_eigenvalues", breaking)
    curve = sweep_curve("het2", "rr", grid)
    assert broken[0] == 2 * first == 2 * 2
    assert curve.errors == {} and not np.isnan(expected.N).any()
    assert np.array_equal(curve.N, expected.N)


# the bundle order of the command line, then the same pairs shuffled
SHUFFLED_PAIRS = [FINITE_PAIRS[i] for i in
                  np.random.default_rng(20261020).permutation(len(FINITE_PAIRS))]


@pytest.mark.parametrize("grid", [Grid(), Grid(0.9, 0.9999, 31), Grid(1e-320, 0.5, 5),
                                  Grid(0.95, 0.999, 8)], ids=str)
@pytest.mark.parametrize("pairs", [FINITE_PAIRS, SHUFFLED_PAIRS], ids=["ordered", "shuffled"])
def test_sweep_of_many_pairs_is_each_pair_swept_alone(pairs, grid):
    curves = sweep_curves(pairs, grid)
    assert [(c.protocol, c.reconciliation) for c in curves] == pairs
    for (protocol, recon), curve in zip(pairs, curves):
        alone = sweep_curve(protocol, recon, grid)
        assert np.array_equal(curve.T, alone.T)
        assert np.array_equal(curve.N, alone.N, equal_nan=True)
        assert list(curve.errors.items()) == list(alone.errors.items())


SUBNORMAL_GRID = Grid(5e-324, 0.3, 4)
# the pairs whose one-point solve fails at T = 5e-324
SUBNORMAL_FAILURES = {("het", "dr"), ("het2", "dr"), ("het", "rr"), ("het2", "rr")}


@pytest.mark.parametrize("pairs", [
    [("het", "dr")], [("het2", "dr")], [("coll_het2", "dr"), ("het", "dr")],
    [("het", "rr")], [("het2", "rr")],
    [pair for pair in FINITE_PAIRS if pair[1] is Reconciliation.DR],
    [pair for pair in FINITE_PAIRS if pair[1] is Reconciliation.RR],
], ids=lambda pairs: "+".join(f"{p}-{r}" for p, r in pairs) if len(pairs) < 3
   else f"{pairs[0][1].value}-bundle")
def test_sweep_of_a_non_finite_rate_is_the_one_point_solve(pairs):
    # at T = 5e-324 het and het2 take the log of 0 (a -inf rate on arrays, a
    # math domain error on floats) or overflow (NaN): each such point is
    # solved again, so it fails, or is 0, as the one-point solve is; a
    # RuntimeWarning fails the test
    curves = sweep_curves(pairs, SUBNORMAL_GRID)
    failed = set()
    for curve in curves:
        n, errors = scalar_curve(curve.protocol, curve.reconciliation, SUBNORMAL_GRID)
        assert np.array_equal(curve.N, n, equal_nan=True)
        assert list(curve.errors.items()) == list(errors.items())
        if curve.errors:
            assert list(curve.errors) == [0]
            failed.add((curve.protocol.value, curve.reconciliation.value))
    pairs = {(Protocol(p).value, Reconciliation(r).value) for p, r in pairs}
    assert failed == pairs & SUBNORMAL_FAILURES


def _cliffs(T, W, xp):
    """-inf from W = 3 on below T = 0.35, a root at W = 3 (bracket [2, 4]);
    +inf at W = 1 up to T = 0.65, a root at W = 5; a root at W = 7 above."""
    r = np.where(T < 0.35, np.where(W >= 3.0, -np.inf, 1.0 - W / 3.0),
                 np.where(T < 0.65, np.where(W == 1.0, np.inf, 1.0 - W / 5.0),
                          1.0 - W / 7.0))
    return r if xp is np else float(r)


def test_sweep_solves_again_every_point_with_an_infinite_rate(monkeypatch):
    monkeypatch.setitem(_RATES, (Protocol.HOM, Reconciliation.DR), _cliffs)
    solve, solved = thresholds.solve_threshold, []

    def recorded(protocol, recon, T):
        solved.append(T)
        return solve(protocol, recon, T)

    monkeypatch.setattr(thresholds, "solve_threshold", recorded)
    grid = Grid(0.1, 0.9, 9)
    curve = sweep_curve("hom", "dr", grid)
    n, errors = scalar_curve("hom", "dr", grid)
    assert errors == {} and curve.errors == {}
    assert np.array_equal(curve.N, n)
    assert solved == grid.points()[:6].tolist()


def _inf_at_one(T, W, xp):
    """+inf at W = 1 and a root at W = 1.5, inside the first bracket [1, 2]."""
    r = np.where(W == 1.0, np.inf, 1.0 - W / 1.5)
    return r if xp is np else float(r)


def test_infinite_rate_at_the_bracket_end_is_a_numeric_failure(monkeypatch):
    # the first regula-falsi step would divide inf by inf and round NaN
    monkeypatch.setitem(_RATES, (Protocol.HOM, Reconciliation.DR), _inf_at_one)
    message = "hom dr rate is inf at T=0.5, W=1.0"
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        solve_threshold("hom", "dr", 0.5)
    [curve] = sweep_curves([("hom", "dr")], Grid(0.5, 0.5, 1))
    assert np.isnan(curve.N[0]) and curve.errors == {0: message}


def test_het2_rr_steps_of_a_mixed_sweep_are_its_own_sweep(monkeypatch):
    # a sweep step hands each table only its own pair's points: het2 RR's
    # numeric sub-stacks hold the rows they hold when it is swept alone
    grid, table = Grid(0.02, 0.98, 40), _RATES[HET2_RR]
    steps = []

    def recording(T, W, xp):
        steps.append((T.copy(), W.copy()))
        return table(T, W, xp)

    monkeypatch.setitem(_RATES, HET2_RR, recording)
    sweep_curve(*HET2_RR, grid)
    alone = steps.copy()
    steps.clear()
    sweep_curves(SHUFFLED_PAIRS, grid)
    assert len(steps) == len(alone) > 20
    for (T, W), (T_alone, W_alone) in zip(steps, alone):
        assert np.array_equal(T, T_alone) and np.array_equal(W, W_alone)


def test_sweep_bracket_failures_match_scalar_solves(monkeypatch):
    def rate(T, W, xp):
        """A root at W = 10 below T = 0.35, with a NaN next to it at T = 0.2
        and at W = 1 at T = 0.3; a root just above W_HI_MAX up to T = 0.6;
        above, a rate that rises from W = 1 to 2 and is negative at W = 4."""
        nan = ((abs(T - 0.2) < 0.05) & (abs(W - 10.0) < 0.5)
               | (abs(T - 0.3) < 0.05) & (W < 1.5))
        r = np.where(nan, np.nan,
                     np.where(T < 0.35, 1.0 - W / 10.0,
                              np.where(T < 0.6, 1.0 - W / 1.02e6,
                                       1.0 + (W - 1.0) * (3.0 - W))))
        return r if xp is np else float(r)

    monkeypatch.setitem(_RATES, (Protocol.HOM, Reconciliation.DR), rate)
    grid = Grid(0.1, 0.9, 9)
    curve = sweep_curve("hom", "dr", grid)
    n, errors = scalar_curve("hom", "dr", grid)
    assert sorted(errors) == [1, 2, 3, 4, 5, 6, 7, 8]
    assert "rate is NaN" in errors[1] and "rate is NaN" in errors[2]
    assert "no sign change" in errors[3] and "not monotone" in errors[5]
    assert list(curve.errors.items()) == list(errors.items())
    assert np.array_equal(curve.N, n, equal_nan=True)


def test_sweep_rejects_divergent_pair():
    with pytest.raises(ValueError, match="unsupported pair coll_hom/rr: reverse reconciliation"):
        sweep_curve("coll_hom", "rr", Grid(0.3, 0.7, 3))


def test_sweep_climbs_the_bracket_ladder_in_lockstep(monkeypatch):
    assert thresholds.BRACKETS[:-1] == [(2.0 ** k, 2.0 ** (k + 1)) for k in range(19)]
    assert thresholds.BRACKETS[-1] == (2.0 ** 19, thresholds.W_HI_MAX)
    pair, grid = (Protocol.HOM, Reconciliation.DR), Grid(0.55, 0.98, 40)
    expected = sweep_curve(*pair, grid)
    rate, calls = _RATES[pair], []

    def recorded(T, W, xp):
        calls.append((T, W))
        return rate(T, W, xp)

    monkeypatch.setitem(_RATES, pair, recorded)
    curve = sweep_curve(*pair, grid)
    assert np.array_equal(curve.N, expected.N)
    # each point's rung: the first bracket whose upper end has a rate <= 0
    T, ends = grid.points(), np.array([hi for _, hi in thresholds.BRACKETS])
    rung = np.array([np.argmax(rate(np.full(ends.shape, t), ends, np) <= 0.0)
                     for t in T.tolist()])
    assert rung.max() > 2
    assert np.array_equal(calls[0][0], T) and (calls[0][1] == 1.0).all()
    for j in range(rung.max() + 1):
        t, w = calls[1 + j]
        assert np.array_equal(t, T[rung >= j]) and (w == ends[j]).all()
    # then the lattice steps, at varied W
    assert np.unique(calls[rung.max() + 2][1]).size > 1


def counting_rate(monkeypatch, pair):
    """Wrap the closed form of `pair` in _RATES; returns a one-element list
    holding the number of evaluations since the last reset."""
    count, rate = [0], _RATES[pair]

    def counted(T, W, xp):
        count[0] += 1
        return rate(T, W, xp)

    monkeypatch.setitem(_RATES, pair, counted)
    return count


def oracle_points(protocol, recon, T):
    return np.array([bisect_threshold(protocol, recon, t) for t in T.tolist()])


# the default grid and 20 seeded grids of 25 points in (0.02, 0.98)
ORACLE_GRIDS = [Grid()] + [Grid(*sorted(ends), 25) for ends in
                           np.random.default_rng(20261018).uniform(0.02, 0.98, (20, 2))]


@pytest.mark.parametrize("protocol, recon", CLOSED_FORM_PAIRS, ids=lambda v: v.value)
def test_secant_steps_land_on_the_bisection_cell(protocol, recon):
    for grid in ORACLE_GRIDS:
        curve = sweep_curve(protocol, recon, grid)
        expected = oracle_points(protocol, recon, curve.T)
        assert not curve.errors
        assert np.array_equal([solve_threshold(protocol, recon, t)
                               for t in curve.T.tolist()], expected)
        assert np.array_equal(curve.N, expected)


def test_het2_rr_keeps_the_bisection_steps(monkeypatch):
    # 25 grid points and 20 seeded T in [0.9, 0.98], where the RR curves' tail is
    grid = Grid(0.02, 0.98, 25)
    T = np.concatenate([grid.points(), np.random.default_rng(20261019).uniform(0.9, 0.98, 20)])
    expected = oracle_points(*HET2_RR, T)
    assert np.array_equal([solve_threshold(*HET2_RR, t) for t in T.tolist()], expected)
    assert np.array_equal(sweep_curve(*HET2_RR, grid).N, expected[:grid.steps])
    # the solve reads all ladder ends in one array call, then three bisection
    # levels per call: 9 spectrum calls at T = 0.97, where one call per rate
    # evaluation made 44
    spectrum, calls = key_rates.het2_rr_finite_eigenvalues, [0]

    def counted(T, W):
        calls[0] += 1
        return spectrum(T, W)

    monkeypatch.setattr(key_rates, "het2_rr_finite_eigenvalues", counted)
    solve_threshold(*HET2_RR, 0.97)
    assert calls[0] <= 16


def oracle_walk(monkeypatch, T):
    """N of `bisect_threshold` for het2 RR at T, and the W it evaluates."""
    rate, visited = _RATES[HET2_RR], []

    def recorded(T, W, xp):
        visited.append(W)
        return rate(T, W, xp)

    monkeypatch.setitem(_RATES, HET2_RR, recorded)
    n = bisect_threshold(*HET2_RR, T)
    monkeypatch.setitem(_RATES, HET2_RR, rate)
    return n, visited


def test_het2_rr_ignores_nan_off_the_walk(monkeypatch):
    # every array row that bisection does not visit is NaN: the solve still
    # takes each rate of its walk from an array call, none from a scalar one
    n, visited = oracle_walk(monkeypatch, 0.93)
    rate, scalar, off_walk = _RATES[HET2_RR], [], [0]

    def nan_off_the_walk(T, W, xp):
        if xp is math:
            scalar.append(W)
            return rate(T, W, xp)
        off = ~np.isin(W, visited)
        off_walk[0] += off.sum()
        return np.where(off, np.nan, rate(T, W, xp))

    monkeypatch.setitem(_RATES, HET2_RR, nan_off_the_walk)
    assert solve_threshold(*HET2_RR, 0.93) == n
    assert scalar == [] and off_walk[0] > 0


@pytest.mark.parametrize("broken", ["point", "row", "call"])
def test_het2_rr_nan_on_the_walk_is_the_scalar_rate(monkeypatch, broken):
    # a visited point whose array rate is NaN ("row"), or whose array call
    # raised ("call"), takes its one-point rate; where that is NaN too
    # ("point"), the solve raises the one-point message
    n, visited = oracle_walk(monkeypatch, 0.93)
    rate, bad = _RATES[HET2_RR], visited[12]

    def broken_rate(T, W, xp):
        if xp is math:
            return math.nan if broken == "point" and W == bad else rate(T, W, xp)
        if broken == "call":
            raise NumericalFailure("het2 RR conditional CM: broken stack")
        return np.where(W == bad, np.nan, rate(T, W, xp))

    monkeypatch.setitem(_RATES, HET2_RR, broken_rate)
    if broken != "point":
        assert solve_threshold(*HET2_RR, 0.93) == n
        return
    with pytest.raises(NumericalFailure) as expected:
        bisect_threshold(*HET2_RR, 0.93)
    with pytest.raises(NumericalFailure, match="het2 rr rate is NaN") as failure:
        solve_threshold(*HET2_RR, 0.93)
    assert str(failure.value) == str(expected.value)


@pytest.mark.parametrize("T", [0.0, 1.0, 1.5, math.nan])
def test_het2_rr_bad_transmission_is_the_scalar_error(monkeypatch, T):
    # the one-point ValueError, raised before any array call
    rate, array_calls = _RATES[HET2_RR], []

    def recorded(T, W, xp):
        if xp is np:
            array_calls.append(W)
        return rate(T, W, xp)

    monkeypatch.setitem(_RATES, HET2_RR, recorded)
    with pytest.raises(ValueError) as expected:
        bisect_threshold(*HET2_RR, T)
    with pytest.raises(ValueError) as error:
        solve_threshold(*HET2_RR, T)
    assert str(error.value) == str(expected.value)
    assert array_calls == []


def test_rate_evaluations_of_one_solve(monkeypatch):
    count = counting_rate(monkeypatch, (Protocol.HOM, Reconciliation.DR))
    solve_threshold("hom", "dr", 0.7)
    secant = count[0]
    count[0] = 0
    bisect_threshold("hom", "dr", 0.7)
    assert (secant, count[0]) == (11, 36)


def test_clean_closed_form_solves_read_only_the_table(monkeypatch):
    # asymptotic_rate is the failure path of a read: a solve whose reads are
    # all finite calls it 0 times, where one call per read made 11 for hom
    # DR at T = 0.7
    calls = [0]
    public = thresholds.asymptotic_rate

    def counted(*args):
        calls[0] += 1
        return public(*args)

    monkeypatch.setattr(thresholds, "asymptotic_rate", counted)
    count = counting_rate(monkeypatch, (Protocol.HOM, Reconciliation.DR))
    solve_threshold("hom", "dr", 0.7)
    assert (count[0], calls[0]) == (11, 0)
    for protocol, recon in CLOSED_FORM_PAIRS:
        for T in (0.1, 0.5, 0.7, 0.95):
            solve_threshold(protocol, recon, T)
    assert calls[0] == 0


def _rising(T, W, xp):
    """1 + (W - 1)(3 - W): 2 at W = 2, above the rate 1 at W = 1."""
    return 1.0 + (W - 1.0) * (3.0 - W)


# each failure of the former one-point walk: its type, and a pattern of the
# text it raised
FAILURES = [
    ("het", "rr", 5e-324, None, NumericalFailure,
     re.escape("het rr closed form at T=5e-324, W=1.0: math domain error")),
    ("het", "rr", 1e-320, None, NumericalFailure,
     re.escape("het rr rate is NaN at T=1e-320, W=1.0: the closed form overflows")),
    ("hom", "dr", 0.9999994, None, NumericalFailure,
     re.escape("no sign change in W up to 1000000.0 for hom dr at T=0.9999994")),
    ("hom", "dr", 0.7, _rising, NumericalFailure, re.escape(
        "rate not monotone in W for hom dr at T=0.7: rate(2.0) = 2.0 > rate at smaller W = 1.0")),
    # the eigenvalue is the numeric spectrum's: only its leading digits,
    # which LAPACK builds agree on, are pinned
    ("het2", "rr", 0.999, None, NumericalFailure,
     r"largest conditional eigenvalue 207\d\d\.\d+ is not within 1% of the "
     r"expected diverging value 19989\.99999999973"),
] + [
    (protocol, recon, T, None, ValueError, re.escape(text))
    for protocol, recon in (("hom", "dr"), ("het2", "rr"))
    for T, text in ((0.0, "rates require T strictly in (0, 1), got T=0.0"),
                    (1.0, "rates require T strictly in (0, 1), got T=1.0"),
                    (math.nan, "transmission must be in [0, 1], got nan"),
                    (-0.1, "transmission must be in [0, 1], got -0.1"))
]


@pytest.mark.parametrize("protocol, recon, T, rate, error, text", FAILURES,
                         ids=[f"{f[0]}-{f[1]}-{f[2]}{'-rising' if f[3] else ''}"
                              for f in FAILURES])
def test_failures_keep_their_type_and_text(monkeypatch, protocol, recon, T, rate,
                                           error, text):
    if rate is not None:
        monkeypatch.setitem(_RATES, finite_pair(protocol, recon), rate)
    with pytest.raises(error) as failure:
        solve_threshold(protocol, recon, T)
    assert type(failure.value) is error
    assert re.fullmatch(text, str(failure.value))


def test_root_next_to_the_pure_loss_end(monkeypatch):
    # hom DR at T = 0.5000007 has its root at W = 1.0000003, next to the
    # pure-loss end W = 1, where the rate's slope in W diverges
    count = counting_rate(monkeypatch, (Protocol.HOM, Reconciliation.DR))
    n = solve_threshold("hom", "dr", 0.5000007)
    assert count[0] <= 10
    assert n == bisect_threshold("hom", "dr", 0.5000007)


def _step(T, W, xp):
    """1e-300 below W = 1 + 10 T, -1 from there on."""
    r = np.where(W < 1.0 + 10.0 * T, 1e-300, -1.0)
    return r if xp is np else float(r)


def _steep(T, W, xp):
    """exp(100 (1 + 4 T - W)) - 1: nearly flat at -1 past its root."""
    return xp.expm1(100.0 * (1.0 + 4.0 * T - W))


@pytest.mark.parametrize("rate", [_step, _steep], ids=["step", "steep"])
def test_adversarial_rates_cost_steps_not_bits(monkeypatch, rate):
    pair = (Protocol.HOM, Reconciliation.DR)
    monkeypatch.setitem(_RATES, pair, rate)
    count = counting_rate(monkeypatch, pair)
    grid = Grid(0.05, 0.95, 19)
    T, bisection = grid.points(), []
    for t in T.tolist():
        count[0] = 0
        expected = bisect_threshold(*pair, t)
        bisection.append(count[0])
        count[0] = 0
        assert solve_threshold(*pair, t) == expected
        assert count[0] <= 4 * bisection[-1]
    count[0] = 0
    curve = sweep_curve(*pair, grid)
    assert count[0] <= 4 * max(bisection)
    assert not curve.errors
    assert np.array_equal(curve.N, oracle_points(*pair, T))
