import math
import tracemalloc

import numpy as np
import pytest

from twoway_cvqkd.attacks import AttackParams, CorrelatedAttackParams, \
    correlated_two_mode_channels
from twoway_cvqkd.cli import EXIT_OK, main
from twoway_cvqkd.rng import CHUNK
from twoway_cvqkd.tomography import (DEFAULT_PROBE_DISPLACEMENTS,
                                     GaussianChannel, ProbeRecord,
                                     TomographyDataset, channel_distance,
                                     check_reducibility, compose,
                                     estimate_channel, simulate_probe_dataset)

from oracles import materialised_probe_dataset

I2 = np.eye(2)


def cloner_channel(T, W):
    return GaussianChannel(math.sqrt(T) * I2, (1 - T) * W * I2)


def test_identity_channel_recovery():
    data = simulate_probe_dataset(GaussianChannel.identity(), 100000, 1)
    fit = estimate_channel(data)
    assert np.allclose(fit.gain, I2, atol=0.02)
    assert np.allclose(fit.noise, np.zeros((2, 2)), atol=0.05)


def test_cloner_channel_recovery():
    data = simulate_probe_dataset(cloner_channel(0.7, 2.0), 100000, 2)
    fit = estimate_channel(data)
    assert np.allclose(fit.gain, math.sqrt(0.7) * I2, atol=0.02)
    assert np.allclose(fit.noise, 0.6 * I2, atol=0.05)


def test_pure_loss_noise_is_vacuum_contribution():
    data = simulate_probe_dataset(cloner_channel(0.5, 1.0), 100000, 3)
    fit = estimate_channel(data)
    assert np.allclose(fit.noise, 0.5 * I2, atol=0.05)


def test_estimation_error_shrinks_with_samples():
    target = cloner_channel(0.7, 2.0)

    def err(n):
        fits = [estimate_channel(simulate_probe_dataset(target, n, 40 + s))
                for s in range(4)]
        return np.mean([channel_distance(f, target) for f in fits])

    errors = [err(n) for n in (1000, 10000, 100000)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[0] > 3 * errors[2]


def test_compose():
    ident = GaussianChannel.identity()
    assert channel_distance(compose(ident, ident, ident), ident) < 1e-15
    # two equal cloners in sequence
    T, W = 0.7, 1.5
    leg = cloner_channel(T, W)
    both = compose(leg, ident, leg)
    assert np.allclose(both.gain, T * I2, atol=1e-12)
    assert np.allclose(both.noise, ((1 - T) * W * T + (1 - T) * W) * I2, atol=1e-12)


def test_compose_associativity():
    rng = np.random.default_rng(8)
    chans = []
    for _ in range(3):
        t = rng.uniform(0.2, 0.9)
        w = rng.uniform(1.0, 3.0)
        d = rng.standard_normal(2)
        chans.append(GaussianChannel(math.sqrt(t) * I2, (1 - t) * w * I2, d))
    a, b, c = chans
    ident = GaussianChannel.identity()
    left = compose(compose(a, ident, b), ident, c)
    right = compose(a, ident, compose(b, ident, c))
    assert channel_distance(left, right) < 1e-12


def test_displacement_map_bookkeeping():
    alice = GaussianChannel.displacement_map([1.5, -0.5])
    leg = cloner_channel(0.64, 1.0)
    total = compose(leg, alice, leg)
    # the displacement applied between the legs is scaled by the second gain
    assert np.allclose(total.displacement, 0.8 * np.array([1.5, -0.5]))


def test_cp_check():
    assert GaussianChannel.identity().is_cp()
    assert cloner_channel(0.7, 1.5).is_cp()
    # attenuation without the mandatory vacuum noise is not a channel
    bad = GaussianChannel(math.sqrt(0.5) * I2, np.zeros((2, 2)))
    assert not bad.is_cp()


def test_dataset_validation():
    good = simulate_probe_dataset(GaussianChannel.identity(), 2000, 5)
    good.validate()
    with pytest.raises(ValueError):
        TomographyDataset(good.probes[:2]).validate()
    with pytest.raises(ValueError):
        # collinear displacements are rank deficient
        collinear = simulate_probe_dataset(
            GaussianChannel.identity(), 2000, 5,
            displacements=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        collinear.validate()
    short = ProbeRecord(np.zeros(2), I2.copy(), np.zeros(2), I2.copy(), 10)
    with pytest.raises(ValueError):
        TomographyDataset([short] * 6).validate()


def test_check_reducibility_verdicts():
    base = AttackParams(0.7, 1.5)
    tol = 0.05
    fwd, bwd, rt = correlated_two_mode_channels(
        CorrelatedAttackParams(base, base, 0.0))
    assert check_reducibility(fwd, bwd, rt, tol).kind == "reducible"
    fwd, bwd, rt = correlated_two_mode_channels(
        CorrelatedAttackParams(base, base, 0.9))
    verdict = check_reducibility(fwd, bwd, rt, tol)
    assert verdict.kind == "irreducible"
    assert verdict.composition_deviation > 10 * tol
    fwd, bwd, rt = correlated_two_mode_channels(
        CorrelatedAttackParams(AttackParams(0.7, 1.5), AttackParams(0.5, 1.5), 0.0))
    assert check_reducibility(fwd, bwd, rt, tol).kind == "asymmetric"
    for bad_tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            check_reducibility(fwd, bwd, rt, bad_tol)


def test_verdict_invariant_under_probe_choice():
    base = AttackParams(0.7, 1.5)
    other_probes = np.array([[0.0, 0.0], [2.0, 1.0], [-1.0, 2.0],
                             [1.0, -2.0], [-2.0, -2.0], [3.0, 0.5]])
    for c, expect in ((0.0, "reducible"), (0.9, "irreducible")):
        fwd, bwd, rt = correlated_two_mode_channels(
            CorrelatedAttackParams(base, base, c))
        for probes in (DEFAULT_PROBE_DISPLACEMENTS, other_probes):
            e1 = estimate_channel(simulate_probe_dataset(fwd, 10000, 60,
                                                         displacements=probes))
            e2 = estimate_channel(simulate_probe_dataset(bwd, 10000, 61,
                                                         displacements=probes))
            ert = estimate_channel(simulate_probe_dataset(rt, 10000, 62,
                                                          displacements=probes))
            assert check_reducibility(e1, e2, ert, 0.1).kind == expect


def test_uncorrelated_deviation_below_noise_floor():
    base = AttackParams(0.7, 1.5)
    fwd, bwd, rt = correlated_two_mode_channels(
        CorrelatedAttackParams(base, base, 0.0))
    datasets = [simulate_probe_dataset(ch, 10000, 70 + k)
                for k, ch in enumerate((fwd, bwd, rt))]
    fits = [estimate_channel(d) for d in datasets]
    verdict = check_reducibility(*fits, tol=0.1)
    floor = sum(d.statistical_sigma() for d in datasets)
    assert verdict.composition_deviation < 3 * floor



def test_streamed_probe_moments_match_materialised_shots():
    # an output CM with off-diagonal entries, so the Cholesky factor mixes
    # the two normals of each shot
    channel = GaussianChannel([[0.8, 0.3], [-0.1, 0.6]], [[1.0, 0.4], [0.4, 0.8]],
                              [0.3, -0.2])
    assert channel.is_cp()
    n = 3 * CHUNK + 17
    streamed = simulate_probe_dataset(channel, n, 11)
    reference = materialised_probe_dataset(channel, n, 11)
    for s, r in zip(streamed.probes, reference.probes, strict=True):
        assert s.n_samples == r.n_samples == n
        assert np.array_equal(s.displacement, r.displacement)
        np.testing.assert_allclose(s.output_mean, r.output_mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(s.output_cm, r.output_cm, rtol=1e-12, atol=0)


def test_probe_sampling_memory_is_flat_in_n():
    def peak(n):
        tracemalloc.start()
        try:
            simulate_probe_dataset(cloner_channel(0.7, 2.0), n, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40 * CHUNK) <= peak(4 * CHUNK) + 2**20


def test_probe_sampling_rejects_too_few_shots():
    for n in (-1, 0, 1, TomographyDataset.MIN_SAMPLES - 1):
        with pytest.raises(ValueError, match=f"probe with n={n} <"):
            simulate_probe_dataset(GaussianChannel.identity(), n, 5)


def test_tomo_check_reference_output(capsys):
    code = main(["tomo-check", "--T", "0.7", "--N", "0.1", "--correlation", "0.9",
                 "--n", "20000", "--seed", "5"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == (
        "verdict=irreducible\n"
        "symmetry_deviation=0.01916585386\n"
        "composition_deviation=0.343610744201\n"
        "tolerance=0.05\n"
    )
