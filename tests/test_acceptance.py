"""End-to-end acceptance checks.

Each test covers one headline requirement and prints a single PASS/FAIL
line (run pytest with -s to see them inline).
"""

import math
import time

import numpy as np

from twoway_cvqkd.attacks import AttackParams
from twoway_cvqkd.key_rates import (DIVERGENT_RR, Protocol, Reconciliation,
                                    asymptotic_rate, exact_rate,
                                    het2_rr_finite_eigenvalues)
from twoway_cvqkd.simulator import SimConfig, mi_sigma_bits, simulate
from twoway_cvqkd.thresholds import Grid, crossover, superadditivity_report, \
    sweep_curve
from twoway_cvqkd.tomography import CorrelatedAttackParams, check_reducibility, \
    correlated_two_mode_channels, estimate_channel, simulate_probe_dataset

from oracles import (TwoWayCoefficients, asymptotic_spectra, exact_spectrum,
                     sample_arrays, spectrum_matches)


def _report(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_crossover():
    start = time.monotonic()
    grid = Grid(0.7, 0.95, 26)
    points = crossover(sweep_curve("hom2", "dr", grid),
                       sweep_curve("hom", "dr", grid))
    elapsed = time.monotonic() - start
    ok = (len(points) == 1 and abs(points[0] - 0.86) <= 0.01 and elapsed < 10.0)
    _report(ok, "criterion 1 (crossover)",
            f"T_c={points[0]:.4f} (target 0.86 +- 0.01), {elapsed:.1f}s")


def test_criterion_2_superadditivity():
    # RR thresholds are positive on all of (0, 1), so the full grid applies;
    # DR thresholds vanish identically below the pure-loss roots (both
    # curves sit at N=0 there), so strict dominance is tested on the grid
    # portion where the one-way protocols have positive thresholds
    rr_grid = Grid(0.02, 0.98, 97)
    dr_grid = Grid(0.74, 0.98, 97)
    curves = {(p, r): sweep_curve(p, r, dr_grid if r == "dr" else rr_grid)
              for p, r in [("hom", "dr"), ("hom2", "dr"), ("het", "dr"),
                           ("het2", "dr"), ("hom", "rr"), ("hom2", "rr"),
                           ("het", "rr"), ("het2", "rr")]}
    strict = {
        "het2>het dr": bool(np.all(curves[("het2", "dr")].N > curves[("het", "dr")].N)),
        "hom2>hom rr": bool(np.all(curves[("hom2", "rr")].N > curves[("hom", "rr")].N)),
        "het2>het rr": bool(np.all(curves[("het2", "rr")].N > curves[("het", "rr")].N)),
    }
    report = superadditivity_report(curves[("hom", "dr")], curves[("hom2", "dr")])
    t = dr_grid.points()
    t_c = report.crossovers[0] if report.crossovers else float("nan")
    exception_ok = (len(report.crossovers) == 1
                    and np.all(report.sign[t < t_c - 0.005] > 0)
                    and np.all(report.sign[t > t_c + 0.005] < 0))
    ok = all(strict.values()) and exception_ok
    _report(ok, "criterion 2 (superadditivity)",
            f"strict dominance {strict}, sole DR exception hom2 above "
            f"T_c={t_c:.3f}")


def test_criterion_3_closed_form_identities():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        params = AttackParams(rng.uniform(0.02, 0.98), rng.uniform(1.0, 6.0))
        gap = abs(asymptotic_rate("coll_het2", "dr", params).rate
                  - 2.0 * asymptotic_rate("coll_hom2", "dr", params).rate)
        worst = max(worst, gap)
        assert (asymptotic_rate("hom", "dr", params).rate
                == asymptotic_rate("coll_hom", "dr", params).rate)
    params = AttackParams(0.7, 1.5)
    closed = asymptotic_rate("hom", "dr", params).rate
    gap_ind = abs(exact_rate("hom", "dr", 1e6, params).rate - closed)
    gap_coll = abs(exact_rate("coll_hom", "dr", 1e6, params).rate - closed)
    ok = worst < 1e-12 and gap_ind < 1e-3 and gap_coll < 1e-3
    _report(ok, "criterion 3 (closed-form identities)",
            f"het2=2*hom2 worst gap {worst:.2e} over 1000 draws; hom vs "
            f"exact engines: {gap_ind:.2e} (individual), {gap_coll:.2e} "
            f"(collective)")


def test_criterion_4_exact_vs_asymptotic_convergence():
    start = time.monotonic()
    params = AttackParams(0.7, 1.5)
    failures = []
    count = 0
    for proto in Protocol:
        for recon in Reconciliation:
            if recon is Reconciliation.RR and proto in DIVERGENT_RR:
                continue
            count += 1
            a = asymptotic_rate(proto, recon, params).rate
            errs = [abs(exact_rate(proto, recon, V, params).rate - a)
                    for V in (1e3, 1e4, 1e5, 1e6)]
            if not all(y < x for x, y in zip(errs, errs[1:])):
                failures.append(f"{proto.value}/{recon.value} not monotone")
            if errs[-1] >= 1e-3:
                failures.append(f"{proto.value}/{recon.value} err {errs[-1]:.2e}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    _report(ok, "criterion 4 (exact-vs-asymptotic convergence)",
            f"{count} (protocol, recon) pairs monotone and < 1e-3 at V=1e6, "
            f"{elapsed:.1f}s" + (f"; failures: {failures}" if failures else ""))


def test_criterion_4_exact_rate_keeps_its_1_over_v_plateau():
    # V |exact - asymptotic| is the 1/V coefficient of the finite-modulation
    # correction, largest (about 84) near T = 0.95, N = 0; the bound is the
    # benchmark's PLATEAU_MAX. The exact engine subtracts no terms of size
    # V, so every finite pair keeps the plateau on every decade up to
    # EXACT_V_MAX.
    plateau_max = 100.0
    grid = [AttackParams.from_excess(float(T), N)
            for T in np.linspace(0.05, 0.95, 10) for N in (0.0, 0.1, 0.3)]
    finite = [(p, r) for r in Reconciliation for p in Protocol
              if not (r is Reconciliation.RR and p in DIVERGENT_RR)]
    worst = {}
    for V in (10.0 ** e for e in range(2, 13)):
        worst[V] = max(V * abs(exact_rate(p, r, V, prm).rate
                               - asymptotic_rate(p, r, prm).rate)
                       for p, r in finite for prm in grid)
    ok = all(w <= plateau_max for w in worst.values())
    _report(ok, "criterion 4 (1/V plateau)",
            ", ".join(f"max V|exact - asymptotic| = {w:.1f} at V={V:g}"
                      for V, w in worst.items()) + f" (<= {plateau_max:g})")


def test_criterion_5_spectra_oracle():
    params = AttackParams(0.7, 2.0)
    V = 1e6
    cases = ([(1, t, c) for t, c in
              [("B", "none"), ("B", "qa"), ("B", "qa_pa"), ("E", "none"),
               ("E", "qa"), ("E", "qa_pa"), ("BE", "none"), ("E", "hom_b"),
               ("E", "het_b")]]
             + [(2, t, c) for t, c in
                [("B", "none"), ("B", "qa"), ("B", "qa_pa"), ("E", "none"),
                 ("E", "qa"), ("E", "qa_pa"), ("E", "hom_b"), ("E", "het_b")]])
    bad = [case for case in cases
           if not spectrum_matches(exact_spectrum(*case[:3], params, V),
                                   asymptotic_spectra(*case[:3], params, V),
                                   0.005)]
    _report(not bad, "criterion 5 (spectra oracle)",
            f"{len(cases) - len(bad)}/{len(cases)} conditional and "
            f"unconditional spectra within 0.5% at V=1e6, T=0.7, W=2"
            + (f"; failing: {bad}" if bad else ""))


def test_criterion_6_n_product():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        params = AttackParams(rng.uniform(0.05, 0.95), rng.uniform(1.0, 5.0))
        finite = het2_rr_finite_eigenvalues(params.T, params.W)
        expect = TwoWayCoefficients.evaluate(1e8, params).n_product
        worst = max(worst, abs(float(np.prod(finite)) - expect) / expect)
    _report(worst < 1e-6, "criterion 6 (n-product)",
            f"worst relative deviation {worst:.2e} over 100 random (T, W)")


def test_criterion_7_pure_loss_landmarks():
    r_3db = asymptotic_rate("coll_het", "dr", AttackParams(0.5, 1.0)).rate
    # bisect the two-way homodyne DR zero crossing at W=1
    lo, hi = 0.2, 0.6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if asymptotic_rate("coll_hom2", "dr", AttackParams(mid, 1.0)).rate < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    target = (3 - math.sqrt(5)) / 2
    rr_positive = all(
        asymptotic_rate(proto, "rr", AttackParams(T, 1.0)).rate > 0
        for proto in ("hom", "het", "coll_het", "hom2", "het2")
        for T in np.linspace(0.05, 0.95, 19))
    ok = abs(r_3db) < 1e-12 and abs(root - target) <= 1e-6 and rr_positive
    _report(ok, "criterion 7 (pure-loss landmarks)",
            f"coll_het DR zero at T=0.5 (rate {r_3db:.1e}); coll_hom2 root "
            f"{root:.7f} vs {target:.7f}; all RR rates positive at N=0")


def test_criterion_8_monte_carlo():
    start = time.monotonic()
    params = AttackParams.from_excess(0.7, 0.1)
    devs = {}
    for proto in ("hom", "het", "hom2", "het2"):
        config = SimConfig(proto, 1e3, params, 100000, 20260823)
        run = simulate(config)
        devs[proto] = abs(run.mi_empirical.bits
                          - run.mi_analytic_bits) / mi_sigma_bits(run)
        rerun = simulate(config)
        assert run.mi_empirical == rerun.mi_empirical
        assert np.array_equal(sample_arrays(config)[1], sample_arrays(config)[1])
    elapsed = time.monotonic() - start
    ok = all(d < 3.0 for d in devs.values()) and elapsed < 20.0
    _report(ok, "criterion 8 (Monte-Carlo validation)",
            "MI deviations in sigma: "
            + ", ".join(f"{k}={v:.2f}" for k, v in devs.items())
            + f"; byte-identical reruns; {elapsed:.1f}s")


def test_criterion_9_reducibility_discrimination():
    base = AttackParams(0.7, 1.5)
    deviations = {0.0: [], 0.9: []}
    verdict_ok = True
    for c, expected in ((0.0, "reducible"), (0.9, "irreducible")):
        for k in range(10):
            attack = CorrelatedAttackParams(base, base, c)
            fwd, bwd, rt = correlated_two_mode_channels(attack)
            e1 = estimate_channel(simulate_probe_dataset(fwd, 10000, 1000 + k))
            e2 = estimate_channel(simulate_probe_dataset(bwd, 10000, 2000 + k))
            ert = estimate_channel(simulate_probe_dataset(rt, 10000, 3000 + k))
            verdict = check_reducibility(e1, e2, ert, tol=0.1)
            verdict_ok &= verdict.kind == expected
            deviations[c].append(verdict.composition_deviation)
    separation = min(deviations[0.9]) / max(deviations[0.0])
    ok = verdict_ok and separation >= 10.0
    _report(ok, "criterion 9 (reducibility discrimination)",
            f"10/10 verdicts per class, deviation separation "
            f"{separation:.1f}x (>= 10x required)")
