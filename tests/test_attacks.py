import numpy as np
import pytest

from twoway_cvqkd.attacks import AttackParams, excess_noise, w_from_excess
from twoway_cvqkd.gaussian import conditional_cov
from twoway_cvqkd.key_rates import one_way_joint
from twoway_cvqkd.tomography import (CorrelatedAttackParams, GaussianChannel,
                                     _ancilla_nu_min, channel_distance, compose,
                                     correlated_two_mode_channels)

from oracles import (OneWayCoefficients, cloner_output_cm, cloner_transform,
                     is_symplectic, mp_ancilla_nu_min)


def test_excess_noise_values():
    assert excess_noise(AttackParams(0.5, 1.0)) == 0.0
    assert excess_noise(AttackParams(0.5, 2.0)) == pytest.approx(1.0)
    assert excess_noise(AttackParams(1.0 - 1e-12, 5.0)) == pytest.approx(0.0, abs=1e-10)


def test_w_from_excess():
    assert w_from_excess(0.3, 0.0) == 1.0
    assert w_from_excess(0.5, 1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        w_from_excess(0.0, 0.1)
    with pytest.raises(ValueError):
        w_from_excess(0.5, -0.1)


def test_excess_noise_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        T = rng.uniform(0.05, 0.95)
        N = rng.uniform(0.0, 3.0)
        back = excess_noise(AttackParams.from_excess(T, N))
        assert abs(back - N) < 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        AttackParams(-0.1, 1.0)
    with pytest.raises(ValueError):
        AttackParams(0.5, 0.5)


def test_cloner_transform_trivial_limit():
    s = cloner_transform(AttackParams(1.0, 1.0))
    assert np.allclose(s[:2, :], np.hstack([np.eye(2), np.zeros((2, 4))]))
    assert is_symplectic(s)


def test_cloner_output_variances():
    params = AttackParams(0.7, 2.0)
    V = 4.0
    cm = cloner_output_cm(params, V)
    assert cm[0, 0] == pytest.approx((1 - 0.7) * 2.0 + 0.7 * V)   # Bob
    assert cm[2, 2] == pytest.approx((1 - 0.7) * V + 0.7 * 2.0)   # Eve


def test_cloner_reproduces_all_four_variances():
    # total and conditional variances of Bob and Eve from the joint moments
    params = AttackParams(0.65, 1.8)
    V = 5.0
    c = OneWayCoefficients.evaluate(V, params)
    c1 = OneWayCoefficients.evaluate(1.0, params)
    joint = one_way_joint(V, params)
    sigma = joint.sigma
    assert abs(sigma[2, 2] - c.b_V) < 1e-10
    assert abs(sigma[4, 4] - c.e_V) < 1e-10
    enc = np.zeros((2, 8))
    enc[0, 0] = enc[1, 1] = 1.0
    cond_b = conditional_cov(sigma, [2, 3], enc)
    cond_e = conditional_cov(sigma, [4, 5], enc)
    assert abs(cond_b[0, 0] - c1.b1) < 1e-10
    assert abs(cond_e[0, 0] - c1.e1) < 1e-10


def test_correlated_params_validation():
    base = AttackParams(0.7, 1.5)
    with pytest.raises(ValueError):
        CorrelatedAttackParams(base, base, 1.5)
    # very unequal thermal marginals cannot support full coupling strength
    with pytest.raises(ValueError):
        CorrelatedAttackParams(AttackParams(0.7, 1.01), AttackParams(0.7, 5.0), 1.0)
    # equal marginals are physical all the way to |c| = 1, at any W
    for w in (1.5, 1e6, 1e8, 1e300):
        params = AttackParams(0.7, w)
        CorrelatedAttackParams(params, params, 1.0)
        CorrelatedAttackParams(params, params, -1.0)


def test_ancilla_spectrum_matches_mpmath():
    # W_f - 1 and W_b - 1 log-uniform in [1e-8, 1e300], c uniform in [-1, 1];
    # every third point has equal marginals, where |c| = 1 sits on nu = 1
    rng = np.random.default_rng(16)
    tol = 1.0 - 1e-9
    for i in range(600):
        w_f, w_b = (1.0 + 10.0 ** rng.uniform(-8.0, 300.0, size=2)).tolist()
        if i % 3 == 0:
            w_b = w_f
        c = float(rng.uniform(-1.0, 1.0)) if i % 5 else float(rng.choice([-1.0, 1.0]))
        want = mp_ancilla_nu_min(w_f, w_b, c)
        assert _ancilla_nu_min(w_f, w_b, c) == pytest.approx(want, rel=1e-12, abs=0.0)
        if abs(want - tol) < 1e-11:
            continue
        if want < tol:
            with pytest.raises(ValueError, match="unphysical correlation"):
                CorrelatedAttackParams(AttackParams(0.7, w_f), AttackParams(0.7, w_b), c)
        else:
            CorrelatedAttackParams(AttackParams(0.7, w_f), AttackParams(0.7, w_b), c)


def test_coupling_is_finite_at_huge_w():
    # (W^2 - 1)^(1/4) per leg: W^2 overflows above 1.34e154, W itself does not
    for w in (1.5, 1e100, 1e200, 1e308):
        params = AttackParams(0.7, w)
        assert CorrelatedAttackParams(params, params, 0.0).coupling() == 0.0
        chi = CorrelatedAttackParams(params, params, 1.0).coupling()
        assert chi == pytest.approx(np.sqrt(w - 1.0) * np.sqrt(w + 1.0), rel=1e-15)


def test_uncorrelated_round_trip_composes_exactly():
    params = CorrelatedAttackParams(AttackParams(0.7, 1.5), AttackParams(0.7, 1.5), 0.0)
    fwd, bwd, rt = correlated_two_mode_channels(params)
    composed = compose(fwd, GaussianChannel.identity(), bwd)
    assert channel_distance(rt, composed) < 1e-10


def test_correlated_round_trip_deviates():
    tol = 1e-3
    params = CorrelatedAttackParams(AttackParams(0.7, 1.5), AttackParams(0.7, 1.5), 0.9)
    fwd, bwd, rt = correlated_two_mode_channels(params)
    composed = compose(fwd, GaussianChannel.identity(), bwd)
    assert channel_distance(rt, composed) > 10 * tol


def test_deviation_sign_flips_with_correlation():
    def noise_gap(c):
        params = CorrelatedAttackParams(AttackParams(0.7, 1.5),
                                        AttackParams(0.7, 1.5), c)
        fwd, bwd, rt = correlated_two_mode_channels(params)
        composed = compose(fwd, GaussianChannel.identity(), bwd)
        return rt.noise - composed.noise

    plus, minus = noise_gap(0.6), noise_gap(-0.6)
    assert np.allclose(plus, -minus, atol=1e-12)
    assert np.abs(plus).max() > 0


def test_deviation_monotone_in_correlation():
    def dev(c):
        params = CorrelatedAttackParams(AttackParams(0.6, 2.0),
                                        AttackParams(0.6, 2.0), c)
        fwd, bwd, rt = correlated_two_mode_channels(params)
        return channel_distance(rt, compose(fwd, GaussianChannel.identity(), bwd))

    devs = [dev(c) for c in (0.0, 0.2, 0.5, 0.8, 1.0)]
    assert all(b > a for a, b in zip(devs, devs[1:]))
