"""Command-line front end.

Subcommands: rate, threshold, sweep, figure-bundle, simulate, tomo-check.
Outputs are deterministic functions of the flags (including the seed), with
12 significant digits so golden files are stable. Each command computes its
whole output and returns it with its exit code; `main` writes it once, to
stdout or `--out`, and maps exceptions to exit codes: 0 success, 2 flag
error, 3 numeric failure, 4 I/O error. A failed command writes nothing and
creates no `--out` file, except a sweep, which writes failed grid points as
`nan` and exits 3. `simulate` formats the simulator's data. Its
`--dump-samples` file opens after the analytic check and before any sample
is drawn, so an unwritable path fails at once and a numeric failure leaves
no file; the trajectories then go to it as CSV, one block at a time.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .attacks import AttackParams, require_finite_excess_noise
from .key_rates import (NumericalFailure, Protocol, Reconciliation, asymptotic_rate,
                        exact_rate, finite_pair, mi_from_terms, shannon_terms)
from .simulator import SimConfig, simulate, trajectories
from .thresholds import Grid, crossover, solve_threshold, sweep_curve, sweep_curves
from .tomography import (CorrelatedAttackParams, check_reducibility,
                         correlated_two_mode_channels, estimate_channel,
                         require_tolerance, simulate_probe_dataset)

EXIT_OK = 0
EXIT_FLAG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# Protocol columns of the threshold figure bundles. DR compares every
# family with a finite rate; RR drops the collective protocols (their rates
# either diverge or, for coll_het, are not part of the individual
# comparison).
DR_BUNDLE = ["hom", "het", "coll_het", "hom2", "het2", "coll_hom2", "coll_het2"]
RR_BUNDLE = [p.value for p in Protocol if not p.collective]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _params(args) -> AttackParams:
    if args.W is not None and args.N is not None:
        raise ValueError("--W and --N are mutually exclusive")
    if args.W is not None:
        return AttackParams(args.T, args.W)
    if args.N is not None:
        return AttackParams.from_excess(args.T, args.N)
    return AttackParams(args.T, 1.0)


def _grid(args) -> Grid:
    if isinstance(args.grid, Grid):   # the default
        return args.grid
    parts = args.grid.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be lo:hi:steps, got {args.grid!r}")
    try:
        return Grid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ValueError(f"bad grid {args.grid!r}: {exc}") from exc


def _sweep_status(curves) -> int:
    """Exit code of a command whose output holds threshold curves.

    A failed grid point is a NaN in the output and a numeric failure: the
    first one is reported on stderr and the exit code is 3.
    """
    for curve in curves:
        if curve.errors:
            i, message = next(iter(curve.errors.items()))
            print(f"error: numeric failure during sweep: {curve.protocol.value} "
                  f"{curve.reconciliation.value} at T={_fmt(curve.T[i])}: {message}",
                  file=sys.stderr)
            return EXIT_NUMERIC
    return EXIT_OK


def cmd_rate(args) -> tuple[str, int]:
    protocol, recon = finite_pair(args.protocol, args.recon)
    params = _params(args)
    if args.V is not None:
        result = exact_rate(protocol, recon, args.V, params)
    else:
        result = asymptotic_rate(protocol, recon, params)
    require_finite_excess_noise(params, "rate")
    # the library computes in bits; nats are converted here, at the output
    rate, unit = result.rate, "bits"
    if args.log_base == "e":
        rate, unit = rate * math.log(2.0), "nats"
    return _lines([
        f"protocol,recon,T,W,N,rate_{unit},method",
        ",".join([protocol.value, recon.value, _fmt(params.T), _fmt(params.W),
                  _fmt(params.N), _fmt(rate), result.method.value]),
    ]), EXIT_OK


def cmd_threshold(args) -> tuple[str, int]:
    n = solve_threshold(args.protocol, args.recon, args.T)   # rejects a divergent pair
    return _lines([
        "protocol,recon,T,N_threshold",
        f"{args.protocol},{args.recon},{_fmt(args.T)},{_fmt(n)}",
    ]), EXIT_OK


def cmd_sweep(args) -> tuple[str, int]:
    protocol, recon = finite_pair(args.protocol, args.recon)
    grid = _grid(args)
    if protocol.two_way:
        one_way = Protocol.HET if protocol.joint_decoding else Protocol.HOM
        curve, base = sweep_curves([(protocol, recon), (one_way, recon)], grid)
        lines = [f"# crossover with {one_way.value} {recon.value} at T={_fmt(t)}"
                 for t in crossover(curve, base)]
    else:
        curve, lines = sweep_curve(protocol, recon, grid), []
    lines.append("T,N_threshold")
    lines += [f"{_fmt(t)},{_fmt(n)}" for t, n in zip(curve.T.tolist(), curve.N.tolist())]
    return _lines(lines), _sweep_status([curve])


def cmd_figure_bundle(args) -> tuple[str, int]:
    recon = Reconciliation(args.recon)
    grid = _grid(args)
    protocols = DR_BUNDLE if recon is Reconciliation.DR else RR_BUNDLE
    curves = sweep_curves([(p, recon) for p in protocols], grid)
    columns = [grid.points().tolist()] + [curve.N.tolist() for curve in curves]
    lines = ["T," + ",".join(protocols)]
    lines += [",".join(map(_fmt, row)) for row in zip(*columns)]
    return _lines(lines), _sweep_status(curves)


def cmd_simulate(args) -> tuple[str, int]:
    config = SimConfig(args.protocol, args.V, _params(args), args.n, args.seed)
    if not args.dump_samples:
        run = simulate(config)
    else:
        # the analytic check `simulate` starts with, run before the file exists
        mi_from_terms(shannon_terms(config.protocol, config.V, config.params))
        with open(args.dump_samples, "w", newline="") as f:
            run = simulate(config)
            # one column per X_A and X_B dimension, written block by block
            f.write(_lines([",".join(f"x_{s}_{lab}" for s in "ab" for lab in run.labels)]))
            for x_a, x_b in trajectories(config):
                f.write(_lines(",".join(map(_fmt, a + b))
                               for a, b in zip(x_a.tolist(), x_b.tolist())))
    params, mi = config.params, run.mi_empirical
    lines = [f"protocol={config.protocol.value}", f"T={_fmt(params.T)}", f"W={_fmt(params.W)}",
             f"N={_fmt(params.N)}", f"V={_fmt(config.V)}", f"n={config.n_samples}",
             f"seed={config.seed}"]
    for j, lab in enumerate(run.labels):
        lines += [f"var_{lab}_empirical={_fmt(mi.var[j])}",
                  f"var_{lab}_analytic={_fmt(run.analytic_var[j])}",
                  f"cond_var_{lab}_empirical={_fmt(mi.cond_var[j])}",
                  f"cond_var_{lab}_analytic={_fmt(run.analytic_cond_var[j])}"]
    lines += [f"mi_empirical_bits={_fmt(mi.bits)}", f"mi_capped={str(mi.capped).lower()}",
              f"mi_analytic_bits={_fmt(run.mi_analytic_bits)}"]
    return _lines(lines), EXIT_OK


def cmd_tomo_check(args) -> tuple[str, int]:
    require_tolerance(args.tol)
    forward = _params(args)
    cparams = CorrelatedAttackParams(forward, forward, args.correlation)
    channels = correlated_two_mode_channels(cparams)
    e1, e2, e_rt = (estimate_channel(simulate_probe_dataset(ch, args.n, args.seed + k))
                    for k, ch in enumerate(channels))
    verdict = check_reducibility(e1, e2, e_rt, args.tol)
    return _lines([
        f"verdict={verdict.kind}",
        f"symmetry_deviation={_fmt(verdict.symmetry_deviation)}",
        f"composition_deviation={_fmt(verdict.composition_deviation)}",
        f"tolerance={_fmt(verdict.tolerance)}",
    ]), EXIT_OK


def _pair_flags(p) -> None:
    p.add_argument("--protocol", choices=[q.value for q in Protocol], required=True)
    p.add_argument("--recon", choices=["dr", "rr"], required=True)


def _attack_flags(p) -> None:
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--W", type=float)
    p.add_argument("--N", type=float)


def _grid_flag(p) -> None:
    p.add_argument("--grid", default=Grid(), help="lo:hi:steps")


def _seed(text: str) -> int:
    """A --seed value; the RNG's seed sequence takes non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, "
                                         f"got {text!r}")
    return int(text)


def _seed_flag(p) -> None:
    p.add_argument("--seed", type=_seed, required=True,
                   help="RNG seed, a non-negative integer (required for "
                        "stochastic commands)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and then reused:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cvqkd",
        description="Secret-key rates, security thresholds and simulations "
                    "for one-way and two-way continuous-variable protocols.",
    )
    parser.add_argument("--log-base", choices=["2", "e"], default="2",
                        help="logarithm base for rates (default 2, bits)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *flag_groups):
        p = sub.add_parser(name, help=help_text)
        for group in flag_groups:
            group(p)
        p.add_argument("--out", help="output file (default stdout)")
        p.set_defaults(func=func)
        return p

    p = command("rate", cmd_rate, "single rate query", _pair_flags, _attack_flags)
    p.add_argument("--V", type=float, help="finite modulation (exact engine)")
    p = command("threshold", cmd_threshold, "tolerable excess noise at one T",
                _pair_flags)
    p.add_argument("--T", type=float, required=True)
    command("sweep", cmd_sweep, "threshold curve over a T grid", _pair_flags, _grid_flag)
    p = command("figure-bundle", cmd_figure_bundle,
                "threshold curves for all protocols, one CSV", _grid_flag)
    p.add_argument("--recon", choices=["dr", "rr"], required=True)
    p = command("simulate", cmd_simulate, "Monte-Carlo protocol run",
                _attack_flags, _seed_flag)
    p.add_argument("--protocol", choices=[q.value for q in Protocol if not q.collective],
                   required=True)
    p.add_argument("--V", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dump-samples", help="optional raw-sample CSV path")
    p = command("tomo-check", cmd_tomo_check,
                "simulate a two-path attack and test reducibility",
                _attack_flags, _seed_flag)
    p.add_argument("--correlation", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True, help="samples per probe")
    p.add_argument("--tol", type=float, default=0.05)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_FLAG if exc.code not in (0, None) else EXIT_OK
    try:
        text, code = args.func(args)
        if args.out:
            with open(args.out, "w", newline="") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAG
    except NumericalFailure as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
