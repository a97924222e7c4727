"""The four benchmark workloads and the checks on their outputs.

Every workload is a closed loop: one caller issues the next operation when
the previous one returns. A pass is a list of `job` operations, timed
together as `job_s`, followed by `extra` single-call queries, each timed
alone for `query_p50_ms` / `query_tail_ms`.
Inputs are drawn from the workload seed. The T of the single queries
follows a seeded golden-ratio sequence per protocol (`TSequence`), which
covers the range evenly however many passes a run makes, so the mix of
cheap and expensive queries is the same from seed to seed.

Each check returns a list of problems `(kind, message)`. Kind "failed"
means the operation produced no usable answer (it raised, exited nonzero
or printed NaN); kind "wrong" means it printed a number that disagrees
with its reference. Both make the operation count as failed; only "wrong"
makes the run incorrect, so the known numeric failures stay visible as
failures without hiding wrong numbers elsewhere.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from twoway_cvqkd import attacks, cli, key_rates, simulator, thresholds

REFERENCE = Path(__file__).resolve().parent / "reference"

# Solver tolerance on W at the seed commit. Two bisections to this width
# agree in W within 2 W_TOL, i.e. in N within 2 W_TOL (1 - T) / T; CSV
# cells carry 12 significant digits on top of that.
W_TOL = 1e-10
CSV_REL = 1e-11
# A threshold query is checked by the sign of the rate 2 W_TOL below and
# above its root, trusted beyond the rate's resolution: double rounding for
# the closed forms, and for het2 RR the relative tolerance (1e-6) to which
# het2_rr_finite_eigenvalues validates its numeric spectrum. Near its root
# that rate is noisy at about 1e-8 bits at the seed.
CLOSED_FORM_RESOLUTION = 1e-12
HET2_RR_RESOLUTION = 1e-6
CROSSOVER_T, CROSSOVER_TOL = 0.86, 0.01
# V * |exact - asymptotic| for V <= PLATEAU_V_MAX. The 1/V coefficient is
# largest near T -> 0.95, N -> 0 (about 84 for coll_het2 DR); above
# V = 1e6 cancellation noise dominates and is only reported.
PLATEAU_V_MAX = 1e6
PLATEAU_MAX = 100.0
MI_SIGMAS = 5.0

DR_PROTOCOLS = ("hom", "het", "coll_het", "hom2", "het2", "coll_hom2", "coll_het2")
RR_PROTOCOLS = ("hom", "het", "hom2", "het2")
FINITE_PAIRS = tuple((p.value, r.value) for r in key_rates.Reconciliation
                     for p in key_rates.Protocol
                     if not (r is key_rates.Reconciliation.RR
                             and p in key_rates.DIVERGENT_RR))
EXACT_V = tuple(10.0 ** e for e in range(2, 13))


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


def run_cli(argv: list) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    items: int = 0            # work items this op completes (samples_per_s)
    keep: Callable[[object], object] | None = None   # what the check needs


@dataclass
class Pass:
    job: list      # commands, timed together as job_s
    extra: list    # single queries, each timed alone (latency samples)


def _exit_problems(res: CliResult) -> list:
    if res.rc != 0:
        return [("failed", f"exit {res.rc}: {res.err.strip()[:160]}")]
    return []


def _csv_rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(lines))


def _threshold_tol(T: float, n_ref: float, n_out: float) -> float:
    return 2.0 * W_TOL * (1.0 - T) / T + CSV_REL * max(abs(n_ref), abs(n_out))


def compare_threshold_csv(text: str, reference: str) -> list:
    """Cell-by-cell check of a threshold CSV against its seed reference."""
    got, ref = _csv_rows(text), _csv_rows(reference)
    if not got or got[0] != ref[0] or len(got) != len(ref):
        return [("wrong", "CSV header or row count differs from the reference")]
    problems = []
    nan_cells = 0
    for row, ref_row in zip(got[1:], ref[1:]):
        if row[0] != ref_row[0]:
            return [("wrong", f"T column differs: {row[0]} vs {ref_row[0]}")]
        T = float(row[0])
        for col, (cell, ref_cell) in enumerate(zip(row[1:], ref_row[1:]), start=1):
            n_out, n_ref = float(cell), float(ref_cell)
            if math.isnan(n_out):
                nan_cells += 1
            elif math.isnan(n_ref):
                if n_out < 0.0:
                    problems.append(("wrong", f"negative threshold at T={row[0]}"))
            elif abs(n_out - n_ref) > _threshold_tol(T, n_ref, n_out):
                problems.append(("wrong", f"{ref[0][col]} at T={row[0]}: "
                                          f"{cell} vs reference {ref_cell}"))
    if nan_cells:
        problems.append(("failed", f"{nan_cells} NaN threshold(s)"))
    return problems


def _every_nth_row(text: str, n: int) -> str:
    """Header and every n-th data row of a CSV: the reference of a grid
    whose points are every n-th point of the reference's grid."""
    header, *rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return "\n".join([header] + rows[::n]) + "\n"


def _cli_op(label: str, argv: list, reference: str, items: int,
            extra_check: Callable[[CliResult], list] | None = None,
            stride: int = 1) -> Op:
    ref_text = _every_nth_row((REFERENCE / reference).read_text(), stride)

    def check(res: CliResult) -> list:
        problems = _exit_problems(res) + compare_threshold_csv(res.out, ref_text)
        if extra_check is not None:
            problems += extra_check(res)
        return problems

    return Op(label, lambda: run_cli(argv), check, items=items)


def _crossover_check(res: CliResult) -> list:
    marks = [ln for ln in res.out.splitlines() if ln.startswith("# crossover")]
    if len(marks) != 1:
        return [("wrong", f"expected one crossover annotation, got {len(marks)}")]
    t_c = float(marks[0].rsplit("T=", 1)[1])
    if abs(t_c - CROSSOVER_T) > CROSSOVER_TOL:
        return [("wrong", f"crossover at T={t_c}, expected "
                          f"{CROSSOVER_T} +/- {CROSSOVER_TOL}")]
    return []


def _rate(protocol: str, recon: str, T: float, W: float) -> float:
    return key_rates.asymptotic_rate(protocol, recon, attacks.AttackParams(T, W)).rate


def _threshold_query(protocol: str, recon: str, T: float) -> Op:
    """One solve_threshold call, checked by the sign of the rate just below
    and just above the returned root (the rate decreases in W)."""

    eps = HET2_RR_RESOLUTION if (protocol, recon) == ("het2", "rr") else CLOSED_FORM_RESOLUTION

    def check(n: float) -> list:
        if not math.isfinite(n) or n < 0.0:
            return [("failed", f"threshold {n}")]
        try:
            if n == 0.0:
                if _rate(protocol, recon, T, 1.0) > eps:
                    return [("wrong", "threshold 0 but rate at W=1 is positive")]
                return []
            w = attacks.w_from_excess(T, n)
            below = _rate(protocol, recon, T, max(1.0, w - 2.0 * W_TOL))
            above = _rate(protocol, recon, T, w + 2.0 * W_TOL)
        except key_rates.NumericalFailure as exc:
            return [("failed", f"rate check: {exc}")]
        if below < -eps or above > eps:
            return [("wrong", f"no rate sign change around W={w}: "
                              f"{below} / {above}")]
        return []

    return Op(f"solve_threshold {protocol} {recon} T={T:.6f}",
              lambda: thresholds.solve_threshold(protocol, recon, T), check)


class TSequence:
    """Seeded points in (lo, hi): a uniform start, then golden-ratio steps.
    Each point is uniform over the seed; consecutive points spread evenly."""

    STEP = (math.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, rng: np.random.Generator, lo: float, hi: float):
        self.u, self.lo, self.hi = float(rng.uniform()), lo, hi

    def __next__(self) -> float:
        self.u = (self.u + self.STEP) % 1.0
        return self.lo + (self.hi - self.lo) * self.u


class ThresholdQueries:
    """`per_protocol` solve_threshold queries per protocol and pass, in
    seeded order, with T from one TSequence per protocol."""

    def __init__(self, recon: str, protocols, per_protocol: int, t_min: float):
        self.recon, self.protocols, self.per_protocol = recon, protocols, per_protocol
        self.t_min, self.sequences = t_min, None

    def make(self, rng) -> list:
        if self.sequences is None:
            self.sequences = {p: TSequence(rng, self.t_min, 0.98) for p in self.protocols}
        ops = [_threshold_query(p, self.recon, next(self.sequences[p]))
               for p in self.protocols for _ in range(self.per_protocol)]
        return [ops[i] for i in rng.permutation(len(ops))]


class ThresholdsDR:
    """Closed-form DR rates, bisection, sweep pool and CSV output."""

    name = "thresholds_dr"
    kernel = "interp"
    job_median = False

    def __init__(self):
        # Below T = 1/2 no one-way DR threshold is positive (the 3 dB loss
        # limit) and half the DR pairs answer 0 after one rate evaluation;
        # over (0.02, 0.98) those would be half the queries and put the
        # median on the edge between 1- and ~40-evaluation queries.
        self.queries = ThresholdQueries("dr", DR_PROTOCOLS, 1, t_min=0.5)

    def warmup(self) -> None:
        thresholds.solve_threshold("hom", "dr", 0.7)

    def make_pass(self, rng) -> Pass:
        grid = 193
        job = [
            _cli_op("figure-bundle dr", ["figure-bundle", "--recon", "dr"],
                    "figure_bundle_dr.csv", grid * len(DR_PROTOCOLS)),
            _cli_op("sweep hom2 dr", ["sweep", "--protocol", "hom2", "--recon", "dr"],
                    "sweep_hom2_dr.csv", grid, _crossover_check),
        ]
        return Pass(job, self.queries.make(rng))


class ThresholdsRR:
    """het2 RR numeric spectra (two 14-variable joints per rate evaluation)."""

    name = "thresholds_rr"
    kernel = "interp"
    # The bundle runs on every 8th point of the default grid (25 points,
    # 0.02:0.98 in steps of 0.04), about 1/8 of the default bundle's work,
    # so that a run has some 20 passes and the speed kernel is sampled
    # between them; with the default grid a run had 3 to 5 passes and its
    # job_s spread by up to 29 % over seeds. A pass of about 1 s averages
    # the machine's fast and slow states, so job_s is the median over the
    # passes, which drops passes hit by a long slow spell.
    job_median = True
    grid_stride = 8

    def __init__(self):
        self.queries = ThresholdQueries("rr", RR_PROTOCOLS, 4, t_min=0.02)

    def warmup(self) -> None:
        thresholds.solve_threshold("het2", "rr", 0.7)

    def make_pass(self, rng) -> Pass:
        steps = (193 - 1) // self.grid_stride + 1
        job = [
            _cli_op("figure-bundle rr",
                    ["figure-bundle", "--recon", "rr", "--grid", f"0.02:0.98:{steps}"],
                    "figure_bundle_rr.csv", steps * len(RR_PROTOCOLS),
                    stride=self.grid_stride),
            # Edge of the accepted domain: at the seed T = 0.999 fails with
            # a numeric failure (exit 3); kept so the defect stays visible.
            _cli_op("sweep het2 rr edge",
                    ["sweep", "--protocol", "het2", "--recon", "rr",
                     "--grid", "0.95:0.999:8"],
                    "sweep_het2_rr_edge.csv", 8),
        ]
        return Pass(job, self.queries.make(rng))


class ExactRates:
    """The exact finite-V engine on every finite pair and V decade."""

    name = "exact_rates"
    kernel = "interp"
    job_median = False
    cli_calls = 2

    def __init__(self):
        self.scaled_dev_max = 0.0   # max V |exact - asymptotic| over V > 1e6
        self.queries = 0            # round-robin index of the single queries

    def warmup(self) -> None:
        key_rates.exact_rate("het2", "rr", 1e4, attacks.AttackParams.from_excess(0.7, 0.1))

    def make_pass(self, rng) -> Pass:
        job = []
        for protocol, recon in FINITE_PAIRS:
            params = attacks.AttackParams.from_excess(float(rng.uniform(0.05, 0.95)),
                                                      float(rng.uniform(0.0, 0.3)))
            asym = {}

            def asym_call(p=protocol, r=recon, prm=params, box=asym):
                box["rate"] = key_rates.asymptotic_rate(p, r, prm).rate
                return box["rate"]

            job.append(Op(f"asymptotic_rate {protocol} {recon}", asym_call,
                          lambda rate: [] if math.isfinite(rate)
                          else [("failed", f"asymptotic rate {rate}")]))
            job += [self._exact_op(protocol, recon, V, params, lambda box=asym: box["rate"])
                    for V in EXACT_V]
        for _ in range(self.cli_calls):
            protocol, recon = FINITE_PAIRS[int(rng.integers(len(FINITE_PAIRS)))]
            T, N = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.0, 0.3))
            V = EXACT_V[int(rng.integers(5))]
            argv = ["rate", "--protocol", protocol, "--recon", recon,
                    "--T", repr(T), "--N", repr(N), "--V", repr(V)]
            job.append(Op(f"cli rate {protocol} {recon} V={V:g}",
                          lambda a=argv: run_cli(a),
                          self._cli_rate_check(protocol, recon, T, N, V), items=1))
        # One single query per pass, cycling through pairs and V decades, so
        # every run times the same mix of 1- and 2-way engines.
        protocol, recon = FINITE_PAIRS[self.queries % len(FINITE_PAIRS)]
        V = EXACT_V[(self.queries // len(FINITE_PAIRS)) % len(EXACT_V)]
        self.queries += 1
        params = attacks.AttackParams.from_excess(float(rng.uniform(0.05, 0.95)),
                                                  float(rng.uniform(0.0, 0.3)))
        query = self._exact_op(protocol, recon, V, params,
                               lambda: key_rates.asymptotic_rate(protocol, recon, params).rate)
        query.items = 0
        return Pass(job, [query])

    def _exact_op(self, protocol: str, recon: str, V: float, params, asymptotic) -> Op:
        return Op(f"exact_rate {protocol} {recon} V={V:g} T={params.T:.6f} W={params.W:.6f}",
                  lambda: key_rates.exact_rate(protocol, recon, V, params).rate,
                  self._exact_check(V, asymptotic), items=1)

    def _exact_check(self, V: float, asymptotic):
        def check(rate: float) -> list:
            if not math.isfinite(rate):
                return [("failed", f"exact rate {rate}")]
            dev = V * abs(rate - asymptotic())
            if V > PLATEAU_V_MAX:
                self.scaled_dev_max = max(self.scaled_dev_max, dev)
            elif dev > PLATEAU_MAX:
                return [("wrong", f"V |exact - asymptotic| = {dev:.4g} > {PLATEAU_MAX}")]
            return []
        return check

    @staticmethod
    def _cli_rate_check(protocol, recon, T, N, V):
        def check(res: CliResult) -> list:
            problems = _exit_problems(res)
            if problems:
                return problems
            rows = _csv_rows(res.out)
            got = rows[1][rows[0].index("rate_bits")]
            want = key_rates.exact_rate(protocol, recon, V,
                                        attacks.AttackParams.from_excess(T, N)).rate
            if got != f"{want:.12g}":
                return [("wrong", f"cli rate {got} vs library {want:.12g}")]
            return []
        return check


def _key_values(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _mi_problems(n: int, analytic_var, analytic_cond, mi_emp: float,
                 mi_an: float, capped: bool) -> list:
    sigma = simulator.mi_sigma_bits(SimpleNamespace(
        config=SimpleNamespace(n_samples=n), analytic_var=analytic_var,
        analytic_cond_var=analytic_cond))
    if capped or not math.isfinite(mi_emp):
        return [("failed", f"empirical MI {mi_emp} (capped={capped})")]
    if abs(mi_emp - mi_an) > MI_SIGMAS * sigma:
        return [("wrong", f"|MI empirical - analytic| = {abs(mi_emp - mi_an):.3g} "
                          f"> {MI_SIGMAS} sigma = {MI_SIGMAS * sigma:.3g}")]
    return []


def _simulate_cli_check(res: CliResult) -> list:
    problems = _exit_problems(res)
    if problems:
        return problems
    kv = _key_values(res.out)
    labels = [k[len("var_"):-len("_analytic")] for k in kv
              if k.startswith("var_") and k.endswith("_analytic")]
    return _mi_problems(int(kv["n"]),
                        [float(kv[f"var_{lab}_analytic"]) for lab in labels],
                        [float(kv[f"cond_var_{lab}_analytic"]) for lab in labels],
                        float(kv["mi_empirical_bits"]), float(kv["mi_analytic_bits"]),
                        kv["mi_capped"] != "false")


def _tomo_check(expected: str):
    def check(res: CliResult) -> list:
        problems = _exit_problems(res)
        if problems:
            return problems
        verdict = _key_values(res.out).get("verdict")
        if verdict != expected:
            return [("wrong", f"verdict {verdict}, expected {expected}")]
        return []
    return check


def _simulate_query_keep(run) -> tuple:
    # Drop the sample arrays so stored outcomes do not inflate peak RSS.
    return (run.config.n_samples, tuple(run.analytic_var), tuple(run.analytic_cond_var),
            run.mi_empirical.bits, run.mi_analytic_bits, run.mi_empirical.capped)


def _simulate_query_check(kept: tuple) -> list:
    return _mi_problems(*kept)


class MonteCarlo:
    """Memory-bound sampling: rng, simulator trajectories and tomography."""

    name = "monte_carlo"
    kernel = "stream"
    job_median = False
    n_simulate = 1_000_000
    n_probe = 200_000
    n_query = 65_536
    queries = 8

    def __init__(self):
        self.query_T = None

    def warmup(self) -> None:
        simulator.simulate(simulator.SimConfig(
            "het2", 1e3, attacks.AttackParams.from_excess(0.7, 0.1),
            simulator.MIN_SAMPLES, 1))

    def make_pass(self, rng) -> Pass:
        def seed() -> str:
            return str(int(rng.integers(2 ** 31)))

        job = []
        for protocol in ("hom", "het", "hom2", "het2"):
            argv = ["simulate", "--protocol", protocol, "--T", "0.7", "--N", "0.1",
                    "--V", "1e3", "--n", str(self.n_simulate), "--seed", seed()]
            job.append(Op(f"simulate {protocol}", lambda a=argv: run_cli(a),
                          _simulate_cli_check, items=self.n_simulate))
        for corr, expected in (("0", "reducible"), ("0.9", "irreducible")):
            argv = ["tomo-check", "--T", "0.7", "--N", "0.1", "--correlation", corr,
                    "--n", str(self.n_probe), "--seed", seed()]
            job.append(Op(f"tomo-check correlation={corr}", lambda a=argv: run_cli(a),
                          _tomo_check(expected)))
        if self.query_T is None:
            self.query_T = TSequence(rng, 0.3, 0.9)
        extra = []
        for T in (next(self.query_T) for _ in range(self.queries)):
            config = simulator.SimConfig(
                "het2", 1e3, attacks.AttackParams.from_excess(float(T), float(rng.uniform(0.0, 0.2))),
                self.n_query, int(rng.integers(2 ** 31)))
            extra.append(Op(f"simulate het2 n={self.n_query} T={T:.6f}",
                            lambda c=config: simulator.simulate(c),
                            _simulate_query_check, keep=_simulate_query_keep))
        return Pass(job, extra)


WORKLOADS = {w.name: w for w in (ThresholdsDR, ThresholdsRR, ExactRates, MonteCarlo)}
