import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from twoway_cvqkd import rng
from twoway_cvqkd.attacks import AttackParams
from twoway_cvqkd.rng import (CHUNK, THREAD_CHUNKS, generator, normal_chunks,
                              normal_matrix, normal_moments)
from twoway_cvqkd.key_rates import shannon_terms
from twoway_cvqkd.simulator import (MI_CAP_BITS, MIN_SAMPLES, SimConfig,
                                    _sampling_map, empirical_mi, mi_sigma_bits,
                                    simulate)

from oracles import lstsq_mi, phase_space_map, sample_arrays, serial_normal_moments


def test_rng_chunking_is_deterministic():
    a = normal_matrix(123, 3 * CHUNK + 17, 4)
    b = normal_matrix(123, 3 * CHUNK + 17, 4)
    assert np.array_equal(a, b)
    # a prefix of a longer draw equals the shorter draw
    c = normal_matrix(123, CHUNK + 5, 4)
    assert np.array_equal(a[: CHUNK + 5], c)


def test_normal_chunks_stack_to_normal_matrix():
    blocks = list(normal_chunks(123, 3 * CHUNK + 17, 4))
    assert [len(b) for b in blocks] == [CHUNK, CHUNK, CHUNK, 17]
    assert np.array_equal(np.concatenate(blocks), normal_matrix(123, 3 * CHUNK + 17, 4))
    # the blocks of a shorter draw are a prefix of the longer one's
    short = list(normal_chunks(123, CHUNK + 5, 4))
    assert np.array_equal(short[0], blocks[0])
    assert np.array_equal(short[1], blocks[1][:5])


def test_rng_streams_independent():
    x = generator(7, 0).standard_normal(100)
    y = generator(7, 1).standard_normal(100)
    assert not np.allclose(x, y)


@pytest.mark.parametrize("seed", [0, 1, 123, 2 ** 32, 2 ** 64 + 5])
@pytest.mark.parametrize("stream", [0, 1, 17, 2 ** 40])
def test_generator_is_the_key_based_philox(seed, stream):
    # Philox seeded by SeedSequence([seed, stream]) takes the sequence's first
    # two 64-bit words as its key: the key-based construction, bit for bit
    key = np.random.SeedSequence([seed, stream]).generate_state(2, np.uint64)
    expected = np.random.Generator(np.random.Philox(key=key))
    got = generator(seed, stream)
    for name in ("counter", "key"):
        assert np.array_equal(got.bit_generator.state["state"][name],
                              expected.bit_generator.state["state"][name])
    assert np.array_equal(got.standard_normal(1000), expected.standard_normal(1000))
    assert np.array_equal(got.integers(0, 2 ** 63, 100), expected.integers(0, 2 ** 63, 100))


def set_cpus(monkeypatch, cpus):
    """Make the process look as if it may run on `cpus` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_normal_moments_bit_identical_on_any_cpu_count(monkeypatch, cpus):
    # the two longest n fold on 2 threads at 2 CPUs and on 2 and 5 at 8, the
    # last chunk of the first one short; frequent thread switches would let
    # an addition out of chunk order show
    set_cpus(monkeypatch, cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (1000, CHUNK, CHUNK + 1, 3 * CHUNK + 17,
                  2 * THREAD_CHUNKS * CHUNK + 17, 40 * CHUNK):
            for cols in (2, 4, 12):
                mean, cov = normal_moments(5, n, cols)
                want_mean, want_cov = serial_normal_moments(5, n, cols)
                assert np.array_equal(mean, want_mean)
                assert np.array_equal(cov, want_cov)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_normal_moments_raises_worker_errors_and_leaves_no_thread(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    before = threading.active_count()
    normal_moments(3, 40 * CHUNK, 4)
    assert threading.active_count() == before

    draw = rng.generator

    def failing(seed, stream):
        if stream == 3:
            raise RuntimeError("chunk 3 failed")
        return draw(seed, stream)

    monkeypatch.setattr(rng, "generator", failing)
    with pytest.raises(RuntimeError, match="chunk 3 failed"):
        normal_moments(3, 40 * CHUNK, 4)
    assert threading.active_count() == before


def test_normal_moments_threads_only_long_streams(monkeypatch):
    set_cpus(monkeypatch, 8)
    started = []
    thread = threading.Thread

    def counted(*args, **kwargs):
        started.append(1)
        return thread(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", counted)
    normal_moments(3, (2 * THREAD_CHUNKS - 1) * CHUNK, 4)
    assert started == []
    normal_moments(3, 3 * THREAD_CHUNKS * CHUNK, 4)
    assert len(started) == 2


def test_simulate_memory_is_flat_in_n(monkeypatch):
    set_cpus(monkeypatch, 2)

    def peak(n):
        config = SimConfig("het2", 1e3, AttackParams(0.7, 1.5), n, 3)
        tracemalloc.start()
        try:
            simulate(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40 * CHUNK) <= peak(4 * CHUNK) + 2**20


def test_config_validation():
    params = AttackParams(0.7, 1.5)
    with pytest.raises(ValueError):
        SimConfig("coll_het", 10.0, params, 10000, 1)
    with pytest.raises(ValueError):
        SimConfig("hom", 0.9, params, 10000, 1)
    with pytest.raises(ValueError):
        SimConfig("hom", 10.0, params, MIN_SAMPLES - 1, 1)
    with pytest.raises(ValueError, match="T > 0"):
        SimConfig("hom", 10.0, AttackParams(0.0, 1.5), 10000, 1)
    with pytest.raises(ValueError, match="is finite"):
        SimConfig("hom", 10.0, AttackParams(1e-320, 1.5), 10000, 1)
    # at W = 1 the excess noise is 0 however small T is
    SimConfig("hom", 10.0, AttackParams(1e-320, 1.0), 10000, 1)


def test_lossless_hom_mi():
    run = simulate(SimConfig("hom", 3.0, AttackParams(1.0, 1.0), 100000, 11))
    expect = 0.5 * math.log2(3.0)
    assert run.mi_analytic_bits == pytest.approx(expect, abs=1e-12)
    assert abs(run.mi_empirical.bits - expect) < 3 * mi_sigma_bits(run)


def test_lossless_het_mi():
    run = simulate(SimConfig("het", 3.0, AttackParams(1.0, 1.0), 100000, 12))
    assert run.mi_analytic_bits == pytest.approx(1.0, abs=1e-12)
    assert abs(run.mi_empirical.bits - 1.0) < 3 * mi_sigma_bits(run)


def test_all_protocols_match_analytics():
    params = AttackParams.from_excess(0.7, 0.1)
    for proto in ("hom", "het", "hom2", "het2"):
        run = simulate(SimConfig(proto, 1e3, params, 100000, 42))
        sigma = mi_sigma_bits(run)
        assert abs(run.mi_empirical.bits - run.mi_analytic_bits) < 3 * sigma, proto
        # empirical variances within 5 sigma of the analytic values
        for j in range(len(run.labels)):
            v = run.analytic_var[j]
            tol = 5 * v * math.sqrt(2.0 / run.config.n_samples)
            assert abs(run.mi_empirical.var[j] - v) < tol, (proto, j)
            c = run.analytic_cond_var[j]
            tol = 5 * c * math.sqrt(2.0 / run.config.n_samples)
            assert abs(run.mi_empirical.cond_var[j] - c) < tol, (proto, j)


def test_hom2_conditional_variance_value():
    # residual noise of Bob's two-way homodyne estimator: at large V the
    # conditional variance tends to (1 - T^2) W from the two injected
    # ancillas, sqrt(1-T)(sqrt(T) E1 + E2)
    T, W = 0.7, 1.5
    run = simulate(SimConfig("hom2", 1e3, AttackParams(T, W), 100000, 9))
    expect = (1 - T * T) * W
    assert run.analytic_cond_var[0] == pytest.approx(expect, rel=0.01)
    tol = 5 * run.analytic_cond_var[0] * math.sqrt(2.0 / run.config.n_samples)
    assert abs(run.mi_empirical.cond_var[0] - run.analytic_cond_var[0]) < tol


def test_large_modulation_epr_pair():
    # the EPR pair's conditional coefficient sqrt(V - v^2/V), v^2 = V^2 - 1,
    # is 1/sqrt(V); evaluated as written it cancels to a negative radicand
    # for about 2 % of V >= 1e8, this one included
    run = simulate(SimConfig("het2", 95754019.12279658,
                             AttackParams.from_excess(0.7, 0.1), 100000, 3))
    assert abs(run.mi_empirical.bits - run.mi_analytic_bits) < 3 * mi_sigma_bits(run)


def _moments(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Covariance of (X_A, X_B) = A z for standard normals z, and of X_B
    given X_A. Each of the d rows of X_A reads one normal of its own, so
    conditioning fixes those normals: their columns drop, with no
    subtraction that would lose precision at large V."""
    d = len(A) // 2
    seen = A[:d] != 0
    assert (seen.sum(axis=1) == 1).all() and (seen.sum(axis=0) <= 1).all()
    free = A[d:, ~seen.any(axis=0)]
    return A @ A.T, free @ free.T


@pytest.mark.parametrize("W", [1.0, 1.5, 4.0])
@pytest.mark.parametrize("T", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("V", [2.5, 1e3, 1e6, 95754019.12279658, 1e10])
@pytest.mark.parametrize("proto", ["hom", "het", "hom2", "het2"])
def test_sampling_map_matches_phase_space_reference(proto, V, T, W):
    # the joint-based map against the beam-splitter relations it replaced;
    # its analytic terms come from the same joint
    config = SimConfig(proto, V, AttackParams(T, W), MIN_SAMPLES, 1)
    A, terms = _sampling_map(config)
    assert terms == shannon_terms(proto, V, config.params)
    got_cov, got_cond = _moments(A)
    want_cov, want_cond = _moments(phase_space_map(config))
    np.testing.assert_allclose(got_cov, want_cov, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(got_cond, want_cond, rtol=1e-13, atol=0.0)


def test_sampling_map_draws_only_the_normals_it_uses():
    params = AttackParams.from_excess(0.7, 0.1)
    widths = {proto: _sampling_map(SimConfig(proto, 1e3, params, MIN_SAMPLES, 1))[0].shape
              for proto in ("hom", "het", "hom2", "het2")}
    # (X_A, X_B) is 2d-dimensional Gaussian: 2d normals per sample
    assert widths == {"hom": (2, 2), "het": (4, 4), "hom2": (2, 2), "het2": (4, 4)}


def test_two_way_signal_gain():
    # Q_B -> sqrt(T) Q_A at large modulation: regression slope approaches
    # sqrt(T)
    T = 0.7
    x_a, x_b = sample_arrays(SimConfig("hom2", 1e4, AttackParams(T, 1.5), 100000, 21))
    slope = np.polyfit(x_a[:, 0], x_b[:, 0], 1)[0]
    assert slope == pytest.approx(math.sqrt(T), rel=0.01)


def test_empirical_mi_capped_on_deterministic_data():
    # X_B = 2 X_A
    A = np.array([[1.0, 0.0], [2.0, 0.0]])
    est = empirical_mi(A, normal_moments(1, 2000, 2)[1], 2000)
    assert est.capped


def test_empirical_mi_flags_zero_residual():
    # at this scale the fit's rounding residue squares to an exact 0.0,
    # while the sample variance is still a normal number
    A = 1e-150 * np.array([[1.0, 0.0], [2.0, 0.0]])
    est = empirical_mi(A, normal_moments(1, 2000, 2)[1], 2000)
    assert est.cond_var == (0.0,)
    assert est.var[0] > 0.0
    assert est.capped
    assert est.bits == MI_CAP_BITS


@pytest.mark.parametrize("n", [1000, 3 * CHUNK + 17])
@pytest.mark.parametrize("V", [2.5, 1e3, 1e6, 1e10, 1e12])
@pytest.mark.parametrize("proto", ["hom", "het", "hom2", "het2"])
def test_streamed_estimator_matches_lstsq(proto, V, n):
    config = SimConfig(proto, V, AttackParams.from_excess(0.7, 0.1), n, 5)
    A = _sampling_map(config)[0]
    got = empirical_mi(A, normal_moments(config.seed, n, len(A))[1], n)
    want = lstsq_mi(*sample_arrays(config))
    assert got.capped == want.capped
    assert got.bits == pytest.approx(want.bits, rel=1e-10, abs=0.0)
    assert got.var == pytest.approx(want.var, rel=1e-10, abs=0.0)
    assert got.cond_var == pytest.approx(want.cond_var, rel=1e-10, abs=0.0)


def test_empirical_mi_independent_data():
    est = empirical_mi(np.eye(2), normal_moments(17, 100000, 2)[1], 100000)
    assert abs(est.bits) < 1e-3
    assert not est.capped


def test_empirical_mi_known_correlation():
    rho = 0.8
    n = 100000
    A = np.array([[1.0, 0.0], [rho, math.sqrt(1 - rho * rho)]])
    expect = -0.5 * math.log2(1 - rho * rho)
    sigma = rho / (math.sqrt(n) * math.log(2.0))
    assert abs(empirical_mi(A, normal_moments(23, n, 2)[1], n).bits - expect) < 3 * sigma


def test_fixed_seed_reproducibility():
    cfg = SimConfig("het2", 1e3, AttackParams.from_excess(0.7, 0.1), 20000, 42)
    a, b = simulate(cfg), simulate(cfg)
    (a_x_a, a_x_b), (b_x_a, b_x_b) = sample_arrays(cfg), sample_arrays(cfg)
    assert np.array_equal(a_x_a, b_x_a)
    assert np.array_equal(a_x_b, b_x_b)
    assert (a.labels, a.mi_empirical, a.mi_analytic_bits) == (b.labels, b.mi_empirical,
                                                               b.mi_analytic_bits)
    assert np.array_equal(a.analytic_var, b.analytic_var)
    assert np.array_equal(a.analytic_cond_var, b.analytic_cond_var)


def test_error_shrinks_with_samples():
    # quadrupling n roughly halves the MI error band; checked as an average
    # over seeds to keep the assertion statistical rather than per-run
    params = AttackParams.from_excess(0.7, 0.1)

    def mean_abs_err(n):
        errs = []
        for seed in range(8):
            run = simulate(SimConfig("hom", 1e3, params, n, 100 + seed))
            errs.append(abs(run.mi_empirical.bits - run.mi_analytic_bits))
        return float(np.mean(errs))

    assert mean_abs_err(4000) > 1.4 * mean_abs_err(64000)

