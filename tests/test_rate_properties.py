"""Properties of the closed-form rate table and of the exact finite-V
engine over random (T, W, V).

T is drawn from the default threshold grid's range [0.02, 0.98], W
log-uniformly from the threshold solver's bracket [1, 1e6] and V
log-uniformly from [1e2, 1e6]. A point where a rate raises NumericalFailure
(het2 RR's numeric spectrum at very large W) returns no rate and is left
out of the comparison. The 1/V convergence of the exact rates is checked on
the narrower domain where its coefficient is known to stay below 100.
"""

import math

from hypothesis import given, settings, strategies as st

from twoway_cvqkd.attacks import AttackParams
from twoway_cvqkd.key_rates import (DIVERGENT_RR, NumericalFailure, Protocol,
                                    Reconciliation, asymptotic_rate, exact_rate)
from twoway_cvqkd.thresholds import MONOTONE_SLACK, solve_threshold

FINITE_PAIRS = [(p, r) for p in Protocol for r in Reconciliation
                if not (r is Reconciliation.RR and p in DIVERGENT_RR)]

transmissions = st.floats(0.02, 0.98)
attack_variances = st.floats(0.0, 6.0).map(lambda e: 10.0 ** e)
modulations = st.floats(2.0, 6.0).map(lambda e: 10.0 ** e)
fixed = settings(derandomize=True, deadline=None, max_examples=50)


def rate(protocol, recon, T, W):
    try:
        return asymptotic_rate(protocol, recon, AttackParams(T, W)).rate
    except NumericalFailure:
        return None


def exact(protocol, recon, T, W, V):
    try:
        return exact_rate(protocol, recon, V, AttackParams(T, W)).rate
    except NumericalFailure:
        return None


def thermal_loss_bound(protocol, T, W):
    """Thermal-loss bound -log2[(1-T) T^n] - h(n) for a thermal number
    n < T/(1-T), and 0 above (Pirandola et al., Nat. Commun. 8, 15043,
    2017); the cloner's EPR variance W = 2n + 1 is the environment's. At
    W = 1 it is the repeaterless (PLOB) bound -log2(1 - T). Two-way
    protocols use the channel twice."""
    n = (W - 1.0) / 2.0
    if n >= T / (1.0 - T):
        return 0.0
    h = (n + 1.0) * math.log2(n + 1.0) - (n * math.log2(n) if n > 0.0 else 0.0)
    uses = 2 if protocol.two_way else 1
    return -uses * (math.log2(1.0 - T) + n * math.log2(T) + h)


@fixed
@given(transmissions)
def test_pure_loss_rates_respect_plob_bound(T):
    for protocol, recon in FINITE_PAIRS:
        r = asymptotic_rate(protocol, recon, AttackParams(T, 1.0)).rate
        assert r <= thermal_loss_bound(protocol, T, 1.0) + 1e-12, (protocol, recon)


@fixed
@given(transmissions, attack_variances)
def test_rates_respect_thermal_loss_plob_bound(T, W):
    for protocol, recon in FINITE_PAIRS:
        r = rate(protocol, recon, T, W)
        if r is not None:
            assert r <= thermal_loss_bound(protocol, T, W) + 1e-12, (protocol, recon)


@fixed
@given(transmissions, attack_variances, attack_variances)
def test_rates_do_not_increase_in_w(T, w1, w2):
    lo, hi = sorted((w1, w2))
    for protocol, recon in FINITE_PAIRS:
        r_lo, r_hi = rate(protocol, recon, T, lo), rate(protocol, recon, T, hi)
        if r_lo is not None and r_hi is not None:
            assert r_hi <= r_lo + MONOTONE_SLACK, (protocol, recon, lo, hi)


@settings(fixed, max_examples=10)
@given(transmissions)
def test_thresholds_are_non_negative(T):
    for protocol, recon in FINITE_PAIRS:
        assert solve_threshold(protocol, recon, T) >= 0.0, (protocol, recon)


@settings(fixed, max_examples=100)
@given(transmissions, attack_variances)
def test_closed_form_identities(T, W):
    assert rate("coll_het2", "dr", T, W) == 2.0 * rate("coll_hom2", "dr", T, W)
    assert rate("hom", "dr", T, W) == rate("coll_hom", "dr", T, W)
    assert rate("hom2", "dr", T, W) == rate("coll_hom2", "dr", T, W)


@fixed
@given(transmissions, attack_variances, modulations)
def test_exact_rates_respect_plob_bounds(T, W, V):
    for protocol, recon in FINITE_PAIRS:
        for w in (1.0, W):
            r = exact(protocol, recon, T, w, V)
            if r is not None:
                assert r <= thermal_loss_bound(protocol, T, w) + 1e-12, (protocol, recon, w)


@fixed
@given(transmissions, attack_variances, attack_variances, modulations)
def test_exact_rates_do_not_increase_in_w(T, w1, w2, V):
    lo, hi = sorted((w1, w2))
    for protocol, recon in FINITE_PAIRS:
        r_lo, r_hi = exact(protocol, recon, T, lo, V), exact(protocol, recon, T, hi, V)
        if r_lo is not None and r_hi is not None:
            assert r_hi <= r_lo + MONOTONE_SLACK, (protocol, recon, lo, hi)


@fixed
@given(st.floats(0.05, 0.95), st.floats(0.0, 0.3), modulations)
def test_exact_rates_converge_as_one_over_v(T, N, V):
    # the benchmark's exact-rate domain; the 1/V coefficient grows with W
    # beyond it (about 2e6 for het2 DR at T = 0.034, W = 1.5e5)
    W = AttackParams.from_excess(T, N).W
    for protocol, recon in FINITE_PAIRS:
        r_exact, r_asym = exact(protocol, recon, T, W, V), rate(protocol, recon, T, W)
        if r_exact is not None and r_asym is not None:
            assert V * abs(r_exact - r_asym) <= 100.0, (protocol, recon)
