import itertools
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from twoway_cvqkd.attacks import AttackParams
from twoway_cvqkd.cli import EXIT_OK, main
from twoway_cvqkd.gaussian import (conditional_cov, g_entropy, symplectic_eigenvalues,
                                   von_neumann_entropy)
from twoway_cvqkd import key_rates
from twoway_cvqkd.key_rates import (DIVERGENT_RR, EXACT_V_MAX, EXACT_W_MAX, NumericalFailure,
                                    Protocol, RATE_DIVERGENT, Reconciliation, _RATES,
                                    _decoding, _het2_placement, _joint_for, _shannon_terms,
                                    asymptotic_rate, exact_rate, het2_rr_finite_eigenvalues,
                                    mi_from_terms, one_way_joint, shannon_terms,
                                    two_way_joint)

from oracles import (TwoWayCoefficients, asymptotic_spectra, bob_rows, covariance_joint,
                     exact_spectrum, halves_covariance, het2_rr_closed_form, mp_exact_rate,
                     mp_het2_rr_finite_eigenvalues, mp_closed_form_rates, mp_one_way_dr_rate,
                     one_way_cm, one_way_covariance, per_block_exact_rate,
                     rr_conditional_entropy_estimator, schur_given_alice,
                     schur_shannon_variances, spectrum_matches, two_way_cm, two_way_covariance)

P = AttackParams


def rate(protocol, recon, params) -> float:
    return asymptotic_rate(protocol, recon, params).rate


# --- closed-form values -----------------------------------------------------

def test_dr_coll_het_values():
    assert rate("coll_het", "dr", P(0.5, 1.0)) == pytest.approx(0.0, abs=1e-12)
    assert rate("coll_het", "dr", P(0.75, 1.0)) == pytest.approx(math.log2(3), abs=1e-12)
    assert rate("coll_het", "dr", P(0.5, 3.0)) == pytest.approx(-2.0, abs=1e-12)


def test_dr_hom_pure_loss():
    for T in (0.3, 0.5, 0.7, 0.9):
        assert rate("hom", "dr", P(T, 1.0)) == pytest.approx(
            0.5 * math.log2(T / (1 - T)), abs=1e-12)
    assert rate("hom", "dr", P(0.9, 1.0)) == pytest.approx(0.5 * math.log2(9), abs=1e-12)


def test_dr_het_values():
    assert rate("het", "dr", P(0.5, 1.0)) == pytest.approx(-math.log2(math.e), abs=1e-12)
    root = math.e / (1 + math.e)
    assert abs(rate("het", "dr", P(root, 1.0))) < 1e-12


def test_rr_coll_het_values():
    assert rate("coll_het", "rr", P(0.5, 1.0)) == pytest.approx(1.0, abs=1e-12)
    for T in (0.2, 0.6, 0.9):
        assert rate("coll_het", "rr", P(T, 1.0)) == pytest.approx(
            -math.log2(1 - T), abs=1e-12)
    assert rate("coll_het", "rr", P(0.5, 3.0)) == pytest.approx(
        1.0 - 2.0 - g_entropy(2.0), abs=1e-12)


def test_rr_hom_values():
    for T in (0.1, 0.5, 0.9):
        assert rate("hom", "rr", P(T, 1.0)) == pytest.approx(
            0.5 * math.log2(1 / (1 - T)), abs=1e-12)
        assert rate("hom", "rr", P(T, 1.0)) > 0
    b1 = 0.5 * 2.0 + 0.5
    assert rate("hom", "rr", P(0.5, 2.0)) == pytest.approx(
        0.5 * math.log2(2.0 / (0.5 * b1)) - g_entropy(2.0), abs=1e-12)


def test_rr_het_values():
    T = 0.6
    expect = math.log2(2 * T / (2 * math.e * (1 - T))) + g_entropy((2 - T) / T)
    assert rate("het", "rr", P(T, 1.0)) == pytest.approx(expect, abs=1e-12)
    assert rate("het", "rr", P(0.9, 1.0)) > 0


def test_dr_coll_hom2_values():
    root = (3 - math.sqrt(5)) / 2
    assert abs(rate("coll_hom2", "dr", P(root, 1.0))) < 1e-12
    assert rate("coll_hom2", "dr", P(0.5, 1.0)) == pytest.approx(0.5, abs=1e-12)
    assert rate("coll_hom2", "dr", P(0.5, 3.0)) == pytest.approx(-1.5, abs=1e-12)


def test_dr_coll_het2_doubles_hom2():
    rng = np.random.default_rng(1)
    for _ in range(200):
        params = P(rng.uniform(0.05, 0.95), rng.uniform(1.0, 5.0))
        assert rate("coll_het2", "dr", params) == pytest.approx(
            2.0 * rate("coll_hom2", "dr", params), abs=1e-14)
    assert rate("coll_het2", "dr", P(0.5, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_dr_het2_values():
    assert rate("het2", "dr", P(0.5, 1.0)) == pytest.approx(
        math.log2(1.5 / math.e), abs=1e-12)
    # pure-loss zero crossing: T(1+T) = e(1-T)
    lo, hi = 0.3, 0.9
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if rate("het2", "dr", P(mid, 1.0)) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert root * (1 + root) == pytest.approx(math.e * (1 - root), abs=1e-9)
    assert root == pytest.approx(0.6257507871, abs=1e-6)


def test_rr_hom2_values():
    for T in np.linspace(0.05, 0.95, 19):
        assert rate("hom2", "rr", P(T, 1.0)) > 0
        assert rate("hom2", "rr", P(T, 1.0)) > rate("hom", "rr", P(T, 1.0))
    assert rate("hom2", "rr", P(0.5, 1.0)) == pytest.approx(
        0.5 * math.log2(3), abs=1e-12)


def test_rr_het2_values():
    finite = het2_rr_finite_eigenvalues(0.7, 1.5)
    expect = TwoWayCoefficients.evaluate(1e8, P(0.7, 1.5)).n_product
    assert np.prod(finite) == pytest.approx(expect, rel=1e-6)
    # pure loss at T=0.5: n1 n2 n3 = [1+T^3+(1-T)(1+T^2)]/(T(1+T)) = 7/3
    finite = het2_rr_finite_eigenvalues(0.5, 1.0)
    assert np.prod(finite) == pytest.approx(7.0 / 3.0, rel=1e-6)
    assert rate("het2", "rr", P(0.5, 1.2)) > rate("het", "rr", P(0.5, 1.2))


def test_het2_stack_matches_point_calls():
    # equal rows where a point call returns, NaN rows exactly where it
    # raises; the corners T = 0.999 and W = 1e5 fail their checks
    T, W = (a.ravel() for a in np.meshgrid(np.linspace(0.02, 0.999, 12),
                                           np.geomspace(1.0, 1e5, 9)))
    stacked = het2_rr_finite_eigenvalues(T, W)
    assert stacked.shape == (T.size, 3)
    raised = 0
    for t, w, row in zip(T.tolist(), W.tolist(), stacked):
        try:
            one = het2_rr_finite_eigenvalues(t, w)
        except NumericalFailure:
            assert np.isnan(row).all(), (t, w)
            raised += 1
            continue
        assert np.array_equal(row, one), (t, w)
    assert 0 < raised < T.size


def test_het2_rr_point_rate_is_its_row_in_a_stack():
    # one point's log and g terms are those of a one-row stack, so a solve
    # that mixes array reads and one-point reads sees one rate per point;
    # with the C library's logarithms, 27 of these 1,097 points differed,
    # by up to 3.6e-15 bits
    rng = np.random.default_rng(20261020)
    T, W = rng.uniform(0.02, 0.9999, 1700), 10.0 ** rng.uniform(0.0, 6.0, 1700)
    stacked = _RATES[Protocol.HET2, Reconciliation.RR](T, W, np)
    valid = np.isfinite(stacked)   # the rest fail the product check
    assert valid.sum() >= 1000
    points = [rate("het2", "rr", P(t, w)) for t, w in zip(T[valid].tolist(), W[valid].tolist())]
    assert np.array_equal(points, stacked[valid])


def test_het2_placement_is_the_covariance_joints():
    # the numeric het2 RR spectrum diagonalises m sigma_in m^T of
    # _het2_placement, whose rounding the RR reference CSVs pin: its m,
    # sigma_in, rows and noise must be the covariance oracle's placement
    # entry for entry, signed zeros included (at W = 1, -c is -0.0)
    rng = np.random.default_rng(33)
    T = rng.uniform(1e-3, 0.999, 8)
    W = np.concatenate([[1.0, 1.0], 1.0 + 10.0 ** rng.uniform(-6.0, 6.0, 6)])
    V = np.repeat([1e7, 1e8], 4)
    cov = two_way_covariance(V, SimpleNamespace(T=T, W=W))
    want = (cov.m, cov.sigma_in) + bob_rows(Protocol.HET2, cov, SimpleNamespace(T=T))[:2]
    for got, ref in zip(_het2_placement(V, T, W), want):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_het2_broken_spectrum_raises_on_a_point_and_is_nan_in_a_stack():
    # at W = 1e100 the conditional CM loses its +/- pairing: a point raises
    # with the spectrum's message, and a stack holding it is NaN in every row
    with pytest.raises(NumericalFailure, match="pairing"):
        het2_rr_finite_eigenvalues(0.5, 1e100)
    stacked = het2_rr_finite_eigenvalues(np.array([0.5, 0.5, 0.7]),
                                         np.array([1e100, 1.5, 1.2]))
    assert stacked.shape == (3, 3)
    assert np.isnan(stacked).all()


@pytest.mark.parametrize("W, message", [(1e100, "pairing"), (1e300, "overflows")])
def test_het2_rr_rate_at_tiny_t_takes_the_failing_spectrum(W, message):
    # het2 RR's closed form overflows at T = 1e-300, so the rate takes the
    # numeric spectrum, which fails with its own message
    with pytest.raises(NumericalFailure, match=message):
        asymptotic_rate("het2", "rr", P(1e-300, W))


def test_het2_overflowing_joint_raises_for_a_whole_stack():
    with pytest.raises(NumericalFailure, match="overflows"):
        het2_rr_finite_eigenvalues(np.array([0.5, 0.5]), np.array([1e300, 1.5]))


def test_het2_spectrum_matches_closed_form():
    T, W = (a.ravel() for a in np.meshgrid(np.linspace(0.05, 0.95, 19),
                                           np.geomspace(1.0, 100.0, 13)))
    numeric = np.sort(het2_rr_finite_eigenvalues(T, W), axis=1)
    closed = np.sort(het2_rr_closed_form(T, W), axis=1)
    # within the extraction's own product tolerance; measured worst 4.3e-8
    assert np.abs(numeric / closed - 1.0).max() <= 1e-6
    # at W = 1, S = P^2 + 1 exactly
    n = het2_rr_closed_form(T, 1.0)
    assert np.allclose(n[:, 1] ** 2 + n[:, 2] ** 2, (n[:, 1] * n[:, 2]) ** 2 + 1.0,
                       rtol=1e-13)


def test_het2_closed_form_is_free_of_cancellation():
    # S and P of the oracle's docstring at 80 digits; the direct
    # sqrt(S^2 - 4 P^2) arrangement is off by 1.1e-5 at T = 1 - 1e-9,
    # W = 1e8, and NaN from W = 1e100 on; the factored form's worst is 4.6e-16
    T, W = (a.ravel() for a in np.meshgrid(
        [1e-3, 0.02, 0.3, 0.7, 0.95, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12],
        [1.0, 1.5, 1e3, 1e8, 1e100, 1e300]))
    closed = het2_rr_closed_form(T, W)
    with mpmath.workdps(80):
        for n, t, w in zip(closed.tolist(), T.tolist(), W.tolist()):
            t, w = mpmath.mpf(t), mpmath.mpf(w)
            p = (1 + t**3 + (1 - t) * (1 + t * t) * w) / (t * (1 + t))
            s = ((1 - t)**4 * (1 + t)**2 * w * w
                 + 2 * (1 - t + t**2 - t**4 + t**5 - t**6) * w
                 + (1 + 5 * t**2 - 4 * t**3 + 5 * t**4 + t**6)) / (t * t * (1 + t)**2)
            n2 = mpmath.sqrt((s + mpmath.sqrt(s * s - 4 * p * p)) / 2)
            for got, exact in zip(n, (w, n2, p / n2)):
                assert abs(got / exact - 1) <= 1e-15, (t, w)


def test_het2_spectrum_matches_the_80_digit_chain():
    # the whole chain at V = 1e40 in mpmath: joint, Bob's heterodyne
    # estimators and the Schur conditioning, where the O(1/V) tail is gone
    for T, W in ((0.3, 1.5), (0.7, 1e3), (0.95, 1.0)):
        exact = np.array(mp_het2_rr_finite_eigenvalues(T, W))
        closed = np.sort(het2_rr_closed_form(T, W))[::-1]
        numeric = np.sort(het2_rr_finite_eigenvalues(T, W))[::-1]
        assert np.abs(closed / exact - 1.0).max() <= 1e-13, (T, W)
        # the extraction's own product tolerance; measured worst 1.2e-8 here
        assert np.abs(numeric / exact - 1.0).max() <= 1e-6, (T, W)


def test_closed_forms_on_arrays_match_scalar_rates():
    # every term of every formula is below 32 in magnitude on this grid, so
    # numpy's and the C library's logarithms may part by a few ulp of 32;
    # measured against the result they can reach 512 ulp where it cancels
    T, W = (a.ravel() for a in np.meshgrid(np.linspace(0.02, 0.98, 13),
                                           np.logspace(0.0, 6.0, 13)))
    for (protocol, recon), formula in _RATES.items():
        if recon is Reconciliation.RR and protocol in DIVERGENT_RR:
            continue
        if protocol is Protocol.HET2 and recon is Reconciliation.RR:
            T_p, W_p = T[::7], W[::7]   # its numeric spectrum costs ~1 ms
        else:
            T_p, W_p = T, W
        batch = formula(T_p, W_p, np)
        for t, w, r in zip(T_p, W_p, batch):
            try:
                want = asymptotic_rate(protocol, recon, P(t, w)).rate
            except NumericalFailure:
                assert math.isnan(r), (protocol, recon, t, w)
                continue
            assert abs(r - want) <= 4 * np.spacing(max(abs(want), 32.0)), \
                (protocol, recon, t, w)


def test_closed_forms_match_their_50_digit_evaluation():
    # the table that threshold solves read raw at one point and sweeps on
    # arrays; measured worst 7.1e-15 bits (coll_het2 DR). het2 RR's rates
    # within HET2_RR_BAND of 0 are its numeric spectrum's, held below
    T, W = (a.ravel() for a in np.meshgrid(np.linspace(0.02, 0.98, 11),
                                           np.geomspace(1.0, 1e4, 11)))
    exact = [mp_closed_form_rates(t, w) for t, w in zip(T.tolist(), W.tolist())]
    closed = [(pair, formula) for pair, formula in _RATES.items()
              if not (pair[1] is Reconciliation.RR and pair[0] in DIVERGENT_RR)]
    assert len(closed) == len(exact[0]) == 13
    for pair, formula in closed:
        want = np.array([e[pair] for e in exact])
        band = key_rates.HET2_RR_BAND if pair == (Protocol.HET2, Reconciliation.RR) else -1.0
        held = np.abs(want) > band
        points = [formula(t, w, math) for t, w in zip(T[held].tolist(), W[held].tolist())]
        assert np.abs(np.array(points) - want[held]).max() <= 1e-13, pair
        assert np.abs(formula(T, W, np)[held] - want[held]).max() <= 1e-13, pair


def test_het2_rr_band_holds_the_numeric_noise(monkeypatch):
    # a row outside the band takes the closed form, and must have the sign
    # of the numeric rate it replaces. The bulk, then the edges that walks
    # (W up to 1e6) and the CLI (T near 0 and 1) reach, where most numeric
    # rates fail their checks; measured worst 1.43e-6 bits here
    band, table = key_rates.HET2_RR_BAND, _RATES[Protocol.HET2, Reconciliation.RR]
    rng = np.random.default_rng(20261020)
    domains = [(rng.uniform(1e-3, 0.999, 2500), 10.0 ** rng.uniform(0.0, 4.0, 2500), 2000),
               (10.0 ** rng.uniform(-9.0, -3.0, 600), 10.0 ** rng.uniform(0.0, 6.0, 600), 10),
               (rng.uniform(0.999, 0.9999, 400), 10.0 ** rng.uniform(0.0, 6.0, 400), 40)]
    for T, W, least in domains:
        monkeypatch.setattr(key_rates, "HET2_RR_BAND", math.inf)   # every row numeric
        with np.errstate(all="ignore"):   # the failed rows are NaN
            numeric = table(T, W, np)
        monkeypatch.setattr(key_rates, "HET2_RR_BAND", -1.0)   # every finite row closed
        closed = table(T, W, np)
        passed = np.isfinite(numeric)   # the rest fail a check of the spectrum
        assert passed.sum() >= least and np.isfinite(closed).all()
        assert np.abs(numeric - closed)[passed].max() < band / 4


def test_het2_product_check_fails_where_its_closed_form_overflows():
    # at T = 1e-320 the product n1 n2 n3 overflows to inf, which no product
    # of a finite spectrum may pass
    with pytest.raises(NumericalFailure, match="deviates from closed form inf"):
        het2_rr_finite_eigenvalues(1e-320, 1.0)
    stacked = het2_rr_finite_eigenvalues(np.array([1e-320, 0.5]), np.array([1.0, 1.0]))
    assert np.isnan(stacked[0]).all() and np.isfinite(stacked[1]).all()


def test_divergent_rr_sentinel():
    for proto in DIVERGENT_RR:
        assert asymptotic_rate(proto, "rr", P(0.6, 1.3)).rate == RATE_DIVERGENT
        result = exact_rate(proto, "rr", 100.0, P(0.6, 1.3))
        assert result.divergent
    assert not asymptotic_rate("het", "rr", P(0.6, 1.3)).divergent


def test_rates_reject_boundary_transmission():
    with pytest.raises(ValueError):
        rate("hom", "dr", P(1.0, 1.0))
    with pytest.raises(ValueError):
        asymptotic_rate("het", "dr", P(0.0, 1.0))


def test_rates_decrease_in_w():
    ws = np.linspace(1.0, 6.0, 25)
    for proto in Protocol:
        for recon in Reconciliation:
            if recon is Reconciliation.RR and proto in DIVERGENT_RR:
                continue
            vals = [asymptotic_rate(proto, recon, P(0.7, w)).rate for w in ws]
            assert all(b < a for a, b in zip(vals, vals[1:])), proto


# --- exact engine -----------------------------------------------------------

def test_one_way_joint_matches_closed_form_blocks():
    params = P(0.7, 1.5)
    V = 8.0
    sigma = one_way_covariance(V, params).sigma
    assert np.allclose(sigma[np.ix_([2, 3], [2, 3])],
                       one_way_cm("B", V, V, params), atol=1e-12)
    assert np.allclose(sigma[np.ix_([4, 5, 6, 7], [4, 5, 6, 7])],
                       one_way_cm("E", V, V, params), atol=1e-12)
    # full Eve+Bob block, ordered (E', E'', B)
    idx = [4, 5, 6, 7, 2, 3]
    assert np.allclose(sigma[np.ix_(idx, idx)],
                       one_way_cm("EB", V, V, params), atol=1e-12)
    # the package's factor halves carry the same moments
    assert np.allclose(halves_covariance(one_way_joint(V, params).G), sigma, atol=1e-12)


def test_two_way_joint_matches_closed_form_blocks():
    params = P(0.6, 1.4)
    V = 6.0
    vbar = V - 1.0
    cov = two_way_covariance(V, params)
    assert np.allclose(cov.sigma[np.ix_(cov.ix["B"], cov.ix["B"])],
                       two_way_cm("B", vbar, vbar, V, params), atol=1e-12)
    assert np.allclose(cov.sigma[np.ix_(cov.ix["E"], cov.ix["E"])],
                       two_way_cm("E", vbar, vbar, V, params), atol=1e-12)
    assert np.allclose(halves_covariance(two_way_joint(V, params).G), cov.sigma, atol=1e-12)


_COVARIANCE = {one_way_joint: one_way_covariance, two_way_joint: two_way_covariance}


@pytest.mark.parametrize("build", [one_way_joint, two_way_joint])
def test_entropy_blocks_are_contiguous_ranges(build):
    # exact_rate reads these blocks as row slices of the factor halves, so
    # a reordered joint must fail here rather than have it read the wrong
    # block: each slice carries the modes its name has in the covariance
    params = P(0.6, 1.4)
    joint, cov = build(6.0, params), _COVARIANCE[build](6.0, params)
    for name in ("B", "E", "BE"):
        idx = cov.ix[name]
        np.testing.assert_allclose(halves_covariance(joint.G[:, joint.ix[name]]),
                                   cov.sigma[np.ix_(idx, idx)], rtol=1e-15, atol=0.0)


# (row of G, input) of each EPR partner the joint keeps unmixed: one-way E'';
# two-way E1'' and E2''; first halves stay on the diagonal (two-way B1)
_EPR_PARTNERS = {one_way_joint: [(3, 2)], two_way_joint: [(4, 3), (6, 5)]}


@pytest.mark.parametrize("W", [1.0, 1.5, 1e4, EXACT_W_MAX])
@pytest.mark.parametrize("V", [2.5, 1e3, 95754019.12279658])
@pytest.mark.parametrize("build", [one_way_joint, two_way_joint])
def test_input_factor(build, V, W):
    # G = m_h L_h per half: its Gram is the covariance oracle's Q/Q and P/P
    # block, and an unmixed row of G is its input's factor row, exact at
    # any x: sqrt(x) for a first half or an independent input, and for an
    # EPR partner +-c/sqrt(x) (Q, P) and 1/sqrt(x), c^2 = x^2 - 1 (at W = 1
    # Eve's inputs are vacua: c = 0)
    params = P(0.7, W)
    G, cov = build(V, params).G, _COVARIANCE[build](V, params)
    k = G.shape[-1]
    for h, sign in ((0, 1.0), (1, -1.0)):
        np.testing.assert_allclose(G[h] @ G[h].T, cov.sigma[h::2, h::2], rtol=1e-15, atol=0.0)
        assert np.array_equal(G[h, 0], np.sqrt(V - 1.0) * np.eye(k)[0])   # Alice's encoding
        if build is two_way_joint:
            assert np.array_equal(G[h, 1], np.sqrt(V) * np.eye(k)[1])     # B1, kept
        for row, first in _EPR_PARTNERS[build]:
            want = np.zeros(k)
            want[first] = sign * np.sqrt(W * W - 1.0) / np.sqrt(W)
            want[first + 1] = 1.0 / np.sqrt(W)
            assert np.array_equal(G[h, row], want), (h, row)


def test_substitution_rule_equals_schur_conditioning():
    # conditional CMs by substituting modulation slots agree exactly with
    # Gaussian conditioning on the classical encoding variables
    params = P(0.7, 1.5)
    V = 8.0
    sigma = one_way_covariance(V, params).sigma
    q_row = np.zeros((1, 8)); q_row[0, 0] = 1.0
    qp_rows = np.zeros((2, 8)); qp_rows[0, 0] = qp_rows[1, 1] = 1.0
    for kind, idx in (("B", [2, 3]), ("E", [4, 5, 6, 7])):
        on_q = conditional_cov(sigma, idx, q_row)
        on_qp = conditional_cov(sigma, idx, qp_rows)
        assert np.allclose(on_q, one_way_cm(kind, 1.0, V, params), atol=1e-10)
        assert np.allclose(on_qp, one_way_cm(kind, 1.0, 1.0, params), atol=1e-10)

    cov = two_way_covariance(V, params)
    vbar = V - 1.0
    q_row = np.zeros((1, 14)); q_row[0, 0] = 1.0
    qp_rows = np.zeros((2, 14)); qp_rows[0, 0] = qp_rows[1, 1] = 1.0
    for kind in ("B", "E"):
        idx = cov.ix[kind]
        on_q = conditional_cov(cov.sigma, idx, q_row)
        on_qp = conditional_cov(cov.sigma, idx, qp_rows)
        assert np.allclose(on_q, two_way_cm(kind, 0.0, vbar, V, params), atol=1e-10)
        assert np.allclose(on_qp, two_way_cm(kind, 0.0, 0.0, V, params), atol=1e-10)


@pytest.mark.parametrize("V", [2.5, 1e3])
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_given_alice_matches_schur_conditioning(protocol, V):
    # conditioning by construction (the square-root factor's columns of
    # Alice's revealed inputs zeroed) against a Schur complement on the rows
    # of her revealed encoding: the spectra of the zeroed factor's Gram
    # blocks, and Bob's conditional Shannon variances
    worst = 0.0
    for T in (0.1, 0.5, 0.9):
        for W in (1.0, 1.5, 4.0):
            params = P(T, W)
            joint, cov = _joint_for(protocol, V, params), covariance_joint(protocol, V, params)
            given = joint.G.copy()
            given[joint.revealed(protocol), :, 0] = 0.0
            pairs = [(symplectic_eigenvalues(halves_covariance(given[:, joint.ix[k]])),
                      symplectic_eigenvalues(schur_given_alice(protocol, cov, k)))
                     for k in ("B", "E")]
            if not protocol.collective:
                terms = _shannon_terms(*_decoding(protocol, joint, T))
                pairs.append((np.array([c for _, _, c in terms]),
                              schur_shannon_variances(protocol, cov, params)))
            for got, want in pairs:
                worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    assert worst <= 1e-11


@pytest.mark.parametrize("V", [1e4, 1e8, EXACT_V_MAX])
def test_one_way_dr_rates_match_mpmath_chain(V):
    # the whole one-way chain at 50 digits: joint, Schur conditioning on
    # Alice, eig(Omega V) and g
    worst = 0.0
    for protocol in ("hom", "het", "coll_hom", "coll_het"):
        for T in (0.1, 0.5, 0.9):
            for W in (1.0, 1.5, 4.0):
                params = P(T, W)
                worst = max(worst, abs(exact_rate(protocol, "dr", V, params).rate
                                       - mp_one_way_dr_rate(protocol, V, params)))
    assert worst <= 1e-10


def test_shannon_mi_lossless():
    # noiseless channel: homodyne MI is (1/2) log V, heterodyne log((V+1)/2)
    assert mi_from_terms(shannon_terms("hom", 3.0, P(1.0, 1.0))) == pytest.approx(
        0.5 * math.log2(3.0), abs=1e-12)
    assert mi_from_terms(shannon_terms("het", 3.0, P(1.0, 1.0))) == pytest.approx(
        1.0, abs=1e-12)


def test_exact_rate_rejects_bad_modulation():
    with pytest.raises(ValueError):
        exact_rate("hom", "dr", 1.0, P(0.7, 1.5))


def test_exact_matches_asymptotic_at_large_v():
    params = P(0.7, 1.5)
    for proto in Protocol:
        for recon in Reconciliation:
            if recon is Reconciliation.RR and proto in DIVERGENT_RR:
                continue
            a = asymptotic_rate(proto, recon, params).rate
            e = exact_rate(proto, recon, 1e6, params).rate
            assert abs(a - e) < 1e-3, (proto, recon)


FINITE_PAIRS = [(p, r) for r in Reconciliation for p in Protocol
                if not (r is Reconciliation.RR and p in DIVERGENT_RR)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, NumericalFailure) as exc:
        return type(exc), str(exc)


# |factor - covariance engine| on the points of the test below, as measured
# when the factor engine replaced the covariance one: the covariance
# engine's cancellation of terms of size V grows with V
COVARIANCE_ENGINE_DEV = ((1e4, 1.4e-11), (1e6, 1.3e-9))


def test_stacked_spectra_match_per_block_rates():
    # the square-root factor engine against the covariance engine it
    # replaced, one eig(Omega V) per block, where that engine holds its
    # digits, and against the mpmath engine above
    rng = np.random.default_rng(21)
    points = [P.from_excess(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.0, 0.3)))
              for _ in range(10)]
    modulations = [1.5, 2.5] + [10.0 ** e for e in range(2, 13)]
    for i, ((protocol, recon), V) in enumerate(itertools.product(FINITE_PAIRS, modulations)):
        for params in points[i % 5::5]:   # 13 V per pair cycle every pair through all points
            got = exact_rate(protocol, recon, V, params).rate
            bound = next((dev for v_max, dev in COVARIANCE_ENGINE_DEV if V <= v_max), None)
            if bound is not None:
                old = per_block_exact_rate(protocol, recon, V, params).rate
                assert abs(got - old) <= bound, (protocol, recon, V)
            elif params is points[i % 5]:
                want = mp_exact_rate(protocol, recon, V, params)
                assert abs(got - want) <= 1e-10 * abs(want), (protocol, recon, V)


@pytest.mark.parametrize("V", [1.5, 1e2, 1e6, EXACT_V_MAX])
def test_exact_rate_matches_mpmath(V):
    # every finite pair against the engine in mpmath: Schur complements and
    # eig(Omega V) of the covariance blocks at enough digits for V and W
    for (protocol, recon), (T, N) in itertools.product(FINITE_PAIRS,
                                                       ((0.2, 0.0), (0.6, 0.1), (0.95, 0.3))):
        params = P.from_excess(T, N)
        got = exact_rate(protocol, recon, V, params).rate
        want = mp_exact_rate(protocol, recon, V, params)
        assert abs(got - want) <= 1e-10 * abs(want), (protocol, recon, T, N)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
@pytest.mark.parametrize("protocol, T, W, V", [("het", 1.14e-7, 2.77, 7.0e8),
                                               ("het2", 3e-12, 5.5, 9.5e6)])
def test_exact_rate_at_extreme_t_matches_mpmath(protocol, T, W, V):
    # no check flags these RR rates, which lose digits to rounding: 2.3e-9
    # and 1.9e-9 relative off mpmath, while neighbours in V or W hold 1e-15
    params = P(T, W)
    got = exact_rate(protocol, "rr", V, params).rate
    want = mp_exact_rate(protocol, "rr", V, params)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_exact_rate_holds_its_precision_up_to_exact_w_max():
    # the factor holds the purity of Eve's EPR pairs to about eps W: at the
    # bound every finite pair is within 1e-10 bits of mpmath (relative above
    # 1 bit), and above it the engine fails rather than lose digits
    for (protocol, recon), T in itertools.product(FINITE_PAIRS, (0.1, 0.5, 0.9)):
        params = P(T, EXACT_W_MAX)
        got = exact_rate(protocol, recon, 1e6, params).rate
        want = mp_exact_rate(protocol, recon, 1e6, params)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (protocol, recon, T)
    with pytest.raises(NumericalFailure, match="above the exact engine's limit of 1e\\+06"):
        exact_rate("hom", "dr", 10.0, P(0.5, math.nextafter(EXACT_W_MAX, math.inf)))


def test_stacked_spectra_fail_like_per_block_rates():
    # at the edges of T and W each rate is mpmath's (within 1e-10 bits, or
    # relative above 1 bit) or a NumericalFailure, never a wrong number:
    # the covariance engine printed 0.0 for hom2 DR at W = 1e100 (mpmath:
    # -166 bits) and -28.7 for hom2 RR (mpmath: -156)
    failures = 0
    for (protocol, recon), T, W, V in itertools.product(
            FINITE_PAIRS, (1e-300, 0.9999999), (1.0, 1e100), (2.0, 1e12)):
        got = _outcome(exact_rate, protocol, recon, V, P(T, W))
        if not isinstance(got, key_rates.RateResult):
            assert got[0] is NumericalFailure and "EPR variance W=1e+100" in got[1], \
                (protocol, recon, T, W, V, got)
            failures += 1
        else:
            want = mp_exact_rate(protocol, recon, V, P(T, W))
            assert abs(got.rate - want) <= 1e-10 * max(1.0, abs(want)), (protocol, recon, T, W, V)
    assert failures == 13 * 2 * 2   # every W = 1e100 point, above EXACT_W_MAX


@pytest.mark.parametrize("protocol, recon", FINITE_PAIRS + [(p, Reconciliation.RR)
                                                            for p in sorted(DIVERGENT_RR)])
def test_exact_rate_spectrum_calls(monkeypatch, protocol, recon):
    # one SVD call per rate, on the stack of its blocks' F_Q^T F_P, and no
    # eig(Omega V)
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(key_rates, "symplectic_eigenvalues", None)
    exact_rate(protocol, recon, 100.0, P(0.6, 1.3))
    k = 7 if protocol.two_way else 4   # input normals per quadrature
    if recon is Reconciliation.RR and protocol in DIVERGENT_RR:
        assert calls == []
    elif protocol is Protocol.COLL_HET and recon is Reconciliation.RR:
        assert calls == [(3, k, k)]   # [B|A, E, BE]: S(B) cancels
    elif protocol.collective:
        assert calls == [(4, k, k)]   # [B|A, E, B, E|A]
    else:
        assert calls == [(2, k, k)]   # [E, E|A] or [E, E|B]


def test_estimator_conditioning_matches_general():
    # Eve's conditional entropy via the fixed optimal linear estimators
    # agrees with general Gaussian conditioning at large modulation
    params = P(0.7, 1.5)
    for proto in (Protocol.HOM, Protocol.HET, Protocol.HOM2, Protocol.HET2):
        V = 1e6
        cov = covariance_joint(proto, V, params)
        rows, noise, _ = bob_rows(proto, cov, params)
        general = von_neumann_entropy(
            conditional_cov(cov.sigma, cov.ix["E"], rows, noise))
        est = rr_conditional_entropy_estimator(proto, V, params)
        assert est >= general - 1e-12  # the estimator can only lose information
        assert abs(est - general) < 1e-4, proto


def test_log_base_switch_scales_rates(capsys):
    # the library computes in bits; `cvqkd --log-base e` prints bits * ln 2
    bits = asymptotic_rate("coll_het", "dr", P(0.7, 1.5)).rate
    code = main(["--log-base", "e", "rate", "--protocol", "coll_het",
                 "--recon", "dr", "--T", "0.7", "--W", "1.5"])
    assert code == EXIT_OK
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header.split(",")[5] == "rate_nats"
    assert row.split(",")[5] == f"{bits * math.log(2.0):.12g}"
    assert float(row.split(",")[5]) == pytest.approx(bits * math.log(2.0), abs=1e-12)


# --- spectra ----------------------------------------------------------------

ONE_WAY_SPECTRA = [("B", "none"), ("B", "qa"), ("B", "qa_pa"), ("E", "none"),
                   ("E", "qa"), ("E", "qa_pa"), ("BE", "none"), ("E", "hom_b"),
                   ("E", "het_b")]
TWO_WAY_SPECTRA = [("B", "none"), ("B", "qa"), ("B", "qa_pa"), ("E", "none"),
                   ("E", "qa"), ("E", "qa_pa"), ("E", "hom_b"), ("E", "het_b")]


def test_spectra_match_asymptotics():
    params = P(0.7, 2.0)
    V = 1e6
    for way, cases in ((1, ONE_WAY_SPECTRA), (2, TWO_WAY_SPECTRA)):
        for target, cond in cases:
            num = exact_spectrum(way, target, cond, params, V)
            pred = asymptotic_spectra(way, target, cond, params, V)
            assert spectrum_matches(num, pred, 0.005), (way, target, cond)


def test_spectra_convergence_order():
    # relative deviation from the asymptotic spectra shrinks like 1/V
    params = P(0.7, 2.0)
    cases = [(1, "E", "qa"), (1, "E", "hom_b"), (2, "B", "qa"), (2, "E", "qa")]
    for way, target, cond in cases:
        errs = []
        for V in (1e3, 1e4, 1e5, 1e6):
            num = sorted(exact_spectrum(way, target, cond, params, V), reverse=True)
            pred = asymptotic_spectra(way, target, cond, params, V)
            known = sorted(pred.known, reverse=True)
            errs.append(max(abs(n - k) / k for n, k in zip(num, known)))
        assert all(b < a for a, b in zip(errs, errs[1:])), (way, target, cond)
        order = math.log10(errs[0] / errs[-1]) / 3.0
        assert order >= 0.9, (way, target, cond, order)


def test_two_way_product_spectra():
    # pairs known only through products: f1 f2 = T and h1 h2 = (1-T)^2
    params = P(0.7, 2.0)
    V = 1e6
    nus_b = exact_spectrum(2, "B", "none", params, V)
    assert np.prod(nus_b) == pytest.approx(0.7 * V * V, rel=1e-3)
    assert abs(nus_b[0] - nus_b[1]) > 0.01 * nus_b[0]  # a genuine split
    nus_e = exact_spectrum(2, "E", "none", params, V)
    assert np.prod(nus_e[:2]) == pytest.approx(0.09 * V * V, rel=1e-3)


def test_spectrum_oracle_rejects_unknown():
    with pytest.raises(ValueError):
        asymptotic_spectra(1, "E", "nope", P(0.5, 1.5), 10.0)
    with pytest.raises(ValueError):
        asymptotic_spectra(3, "E", "qa", P(0.5, 1.5), 10.0)
