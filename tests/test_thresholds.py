import math

import numpy as np
import pytest
from scipy.optimize import brentq

from twoway_cvqkd import thresholds
from twoway_cvqkd.attacks import AttackParams
from twoway_cvqkd.gaussian import g_entropy
from twoway_cvqkd.key_rates import (_RATES, DIVERGENT_RR, NumericalFailure, Protocol,
                                    Reconciliation, asymptotic_rate)
from twoway_cvqkd.thresholds import (Grid, crossover, solve_threshold,
                                     superadditivity_report, sweep_curve)

FINITE_PAIRS = [(p, r) for p in Protocol for r in Reconciliation
                if not (r is Reconciliation.RR and p in DIVERGENT_RR)]


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


def test_divergent_pair_rejected():
    with pytest.raises(ValueError):
        solve_threshold("coll_hom", "rr", 0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 0.9, 10)
    with pytest.raises(ValueError):
        Grid(0.5, 0.4, 10)
    assert len(Grid(0.1, 0.9, 17).points()) == 17


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
    with pytest.raises(ValueError):
        sweep_curve("coll_hom", "rr", Grid(0.3, 0.7, 3))
