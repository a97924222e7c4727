"""Properties of the closed-form rate table over random (T, W).

T is drawn from the default threshold grid's range [0.02, 0.98] and W
log-uniformly from the threshold solver's bracket [1, 1e6]. A point where a
rate raises NumericalFailure (het2 RR's numeric spectrum at very large W)
returns no rate and is left out of the comparison.
"""

import math

from hypothesis import given, settings, strategies as st

from twoway_cvqkd.attacks import AttackParams
from twoway_cvqkd.key_rates import (DIVERGENT_RR, NumericalFailure, Protocol,
                                    Reconciliation, asymptotic_rate)
from twoway_cvqkd.thresholds import MONOTONE_SLACK, solve_threshold

FINITE_PAIRS = [(p, r) for p in Protocol for r in Reconciliation
                if not (r is Reconciliation.RR and p in DIVERGENT_RR)]

transmissions = st.floats(0.02, 0.98)
attack_variances = st.floats(0.0, 6.0).map(lambda e: 10.0 ** e)
fixed = settings(derandomize=True, deadline=None, max_examples=50)


def rate(protocol, recon, T, W):
    try:
        return asymptotic_rate(protocol, recon, AttackParams(T, W)).rate
    except NumericalFailure:
        return None


@fixed
@given(transmissions)
def test_pure_loss_rates_respect_plob_bound(T):
    # repeaterless bound: -log2(1 - T) bits per channel use (Pirandola et
    # al., Nat. Commun. 8, 15043, 2017); two-way protocols use it twice
    for protocol, recon in FINITE_PAIRS:
        uses = 2 if protocol.two_way else 1
        r = asymptotic_rate(protocol, recon, AttackParams(T, 1.0)).rate
        assert r <= -uses * math.log2(1.0 - T) + 1e-12, (protocol, recon)


@fixed
@given(transmissions, attack_variances)
def test_rates_respect_thermal_loss_plob_bound(T, W):
    # thermal-loss bound -log2[(1-T) T^n] - h(n) for a thermal number
    # n < T/(1-T), and 0 above (Pirandola et al., Nat. Commun. 8, 15043,
    # 2017); the cloner's EPR variance W = 2n + 1 is the environment's
    n = (W - 1.0) / 2.0
    h = (n + 1.0) * math.log2(n + 1.0) - (n * math.log2(n) if n > 0.0 else 0.0)
    for protocol, recon in FINITE_PAIRS:
        uses = 2 if protocol.two_way else 1
        bound = 0.0
        if n < T / (1.0 - T):
            bound = -uses * (math.log2(1.0 - T) + n * math.log2(T) + h)
        r = rate(protocol, recon, T, W)
        if r is not None:
            assert r <= bound + 1e-12, (protocol, recon)


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
