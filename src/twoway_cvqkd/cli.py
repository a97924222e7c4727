"""Command-line front end.

Subcommands: rate, threshold, sweep, figure-bundle, simulate, tomo-check.
All outputs are deterministic functions of the flags (including the seed)
and numbers are printed with 12 significant digits so golden files are
stable. Exit codes: 0 success, 2 flag error, 3 numeric failure, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .attacks import AttackParams, CorrelatedAttackParams, correlated_two_mode_channels
from .key_rates import (DIVERGENT_RR, DIVERGENT_RR_REASON, NumericalFailure,
                        Protocol, Reconciliation, asymptotic_rate, exact_rate)
from .simulator import SimConfig, dump_samples, simulate, summary_text
from .thresholds import Grid, crossover, solve_threshold, sweep_curve
from .tomography import (GaussianChannel, check_reducibility, estimate_channel,
                         simulate_probe_dataset)

EXIT_OK = 0
EXIT_FLAG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# Protocol columns of the threshold figure bundles. DR compares every
# family with a finite rate; RR drops the collective protocols (their rates
# either diverge or, for coll_het, are not part of the individual
# comparison).
DR_BUNDLE = ["hom", "het", "coll_het", "hom2", "het2", "coll_hom2", "coll_het2"]
RR_BUNDLE = ["hom", "het", "hom2", "het2"]


class FlagError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _params_from_args(args) -> AttackParams:
    if args.W is not None and args.N is not None:
        raise FlagError("--W and --N are mutually exclusive")
    if args.W is not None:
        return AttackParams(args.T, args.W)
    if args.N is not None:
        return AttackParams.from_excess(args.T, args.N)
    return AttackParams(args.T, 1.0)


def _parse_grid(text: str) -> Grid:
    parts = text.split(":")
    if len(parts) != 3:
        raise FlagError(f"grid must be lo:hi:steps, got {text!r}")
    try:
        return Grid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise FlagError(f"bad grid {text!r}: {exc}") from exc


def _open_sink(args):
    if args.out:
        try:
            return open(args.out, "w", newline="")
        except OSError as exc:
            raise IOError(str(exc)) from exc
    return sys.stdout


def _check_pair(protocol: Protocol, recon: Reconciliation) -> None:
    if recon is Reconciliation.RR and protocol in DIVERGENT_RR:
        raise FlagError(f"unsupported pair {protocol.value}/{recon.value}: "
                        f"{DIVERGENT_RR_REASON}")


def _sweep_status(curves) -> int:
    """Exit code of a command that has written its threshold curves.

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


def cmd_rate(args) -> int:
    protocol = Protocol(args.protocol)
    recon = Reconciliation(args.recon)
    _check_pair(protocol, recon)
    params = _params_from_args(args)
    if args.V is not None:
        result = exact_rate(protocol, recon, args.V, params)
    else:
        result = asymptotic_rate(protocol, recon, params)
    # the library computes in bits; nats are converted here, at the output
    rate, unit = result.rate, "bits"
    if args.log_base == "e":
        rate, unit = rate * math.log(2.0), "nats"
    sink = _open_sink(args)
    sink.write(f"protocol,recon,T,W,N,rate_{unit},method\n")
    sink.write(",".join([
        protocol.value, recon.value, _fmt(params.T), _fmt(params.W),
        _fmt(params.N), _fmt(rate), result.method.value,
    ]) + "\n")
    if sink is not sys.stdout:
        sink.close()
    return EXIT_OK


def cmd_threshold(args) -> int:
    protocol = Protocol(args.protocol)
    recon = Reconciliation(args.recon)
    try:
        n = solve_threshold(protocol, recon, args.T)
    except ValueError as exc:
        raise FlagError(str(exc)) from exc
    sink = _open_sink(args)
    sink.write("protocol,recon,T,N_threshold\n")
    sink.write(f"{protocol.value},{recon.value},{_fmt(args.T)},{_fmt(n)}\n")
    if sink is not sys.stdout:
        sink.close()
    return EXIT_OK


def cmd_sweep(args) -> int:
    protocol = Protocol(args.protocol)
    recon = Reconciliation(args.recon)
    _check_pair(protocol, recon)
    grid = _parse_grid(args.grid)
    curve = sweep_curve(protocol, recon, grid)
    annotations = []
    if protocol.two_way:
        one_way = Protocol.HOM if protocol in (Protocol.HOM2, Protocol.COLL_HOM2) \
            else Protocol.HET
        base = sweep_curve(one_way, recon, grid)
        for t in crossover(curve, base):
            annotations.append(f"# crossover with {one_way.value} {recon.value} "
                               f"at T={_fmt(t)}")
    sink = _open_sink(args)
    for line in annotations:
        sink.write(line + "\n")
    sink.write("T,N_threshold\n")
    for t, n in zip(curve.T, curve.N):
        sink.write(f"{_fmt(t)},{_fmt(n)}\n")
    if sink is not sys.stdout:
        sink.close()
    return _sweep_status([curve])


def cmd_figure_bundle(args) -> int:
    recon = Reconciliation(args.recon)
    grid = _parse_grid(args.grid)
    protocols = DR_BUNDLE if recon is Reconciliation.DR else RR_BUNDLE
    curves = {p: sweep_curve(p, recon, grid) for p in protocols}
    sink = _open_sink(args)
    sink.write("T," + ",".join(protocols) + "\n")
    for i, t in enumerate(grid.points()):
        row = [_fmt(t)] + [_fmt(curves[p].N[i]) for p in protocols]
        sink.write(",".join(row) + "\n")
    if sink is not sys.stdout:
        sink.close()
    return _sweep_status(curves.values())


def cmd_simulate(args) -> int:
    params = _params_from_args(args)
    config = SimConfig(Protocol(args.protocol), args.V, params, args.n, args.seed)
    run = simulate(config)
    sink = _open_sink(args)
    sink.write(summary_text(run))
    if sink is not sys.stdout:
        sink.close()
    if args.dump_samples:
        dump_samples(config, args.dump_samples)
    return EXIT_OK


def cmd_tomo_check(args) -> int:
    forward = _params_from_args(args)
    cparams = CorrelatedAttackParams(forward, forward, args.correlation)
    fwd, bwd, rt = correlated_two_mode_channels(cparams)
    e1 = estimate_channel(simulate_probe_dataset(fwd, args.n, args.seed))
    e2 = estimate_channel(simulate_probe_dataset(bwd, args.n, args.seed + 1))
    e_rt = estimate_channel(simulate_probe_dataset(rt, args.n, args.seed + 2))
    verdict = check_reducibility(e1, e2, e_rt, args.tol,
                                 GaussianChannel.identity())
    sink = _open_sink(args)
    sink.write(f"verdict={verdict.kind}\n")
    sink.write(f"symmetry_deviation={_fmt(verdict.symmetry_deviation)}\n")
    sink.write(f"composition_deviation={_fmt(verdict.composition_deviation)}\n")
    sink.write(f"tolerance={_fmt(verdict.tolerance)}\n")
    if sink is not sys.stdout:
        sink.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvqkd",
        description="Secret-key rates, security thresholds and simulations "
                    "for one-way and two-way continuous-variable protocols.",
    )
    parser.add_argument("--log-base", choices=["2", "e"], default="2",
                        help="logarithm base for rates (default 2, bits)")
    sub = parser.add_subparsers(dest="command", required=True)
    protocols = [p.value for p in Protocol]

    def add_common(p, with_seed=False):
        p.add_argument("--out", help="output file (default stdout)")
        if with_seed:
            p.add_argument("--seed", type=int, required=True,
                           help="RNG seed (required for stochastic commands)")

    p = sub.add_parser("rate", help="single rate query")
    p.add_argument("--protocol", choices=protocols, required=True)
    p.add_argument("--recon", choices=["dr", "rr"], required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--W", type=float)
    p.add_argument("--N", type=float)
    p.add_argument("--V", type=float, help="finite modulation (exact engine)")
    add_common(p)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("threshold", help="tolerable excess noise at one T")
    p.add_argument("--protocol", choices=protocols, required=True)
    p.add_argument("--recon", choices=["dr", "rr"], required=True)
    p.add_argument("--T", type=float, required=True)
    add_common(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("sweep", help="threshold curve over a T grid")
    p.add_argument("--protocol", choices=protocols, required=True)
    p.add_argument("--recon", choices=["dr", "rr"], required=True)
    p.add_argument("--grid", default="0.02:0.98:193", help="lo:hi:steps")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure-bundle",
                       help="threshold curves for all protocols, one CSV")
    p.add_argument("--recon", choices=["dr", "rr"], required=True)
    p.add_argument("--grid", default="0.02:0.98:193", help="lo:hi:steps")
    add_common(p)
    p.set_defaults(func=cmd_figure_bundle)

    p = sub.add_parser("simulate", help="Monte-Carlo protocol run")
    p.add_argument("--protocol", choices=["hom", "het", "hom2", "het2"],
                   required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--W", type=float)
    p.add_argument("--N", type=float)
    p.add_argument("--V", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dump-samples", help="optional raw-sample CSV path")
    add_common(p, with_seed=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tomo-check",
                       help="simulate a two-path attack and test reducibility")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--W", type=float)
    p.add_argument("--N", type=float)
    p.add_argument("--correlation", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True, help="samples per probe")
    p.add_argument("--tol", type=float, default=0.05)
    add_common(p, with_seed=True)
    p.set_defaults(func=cmd_tomo_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_FLAG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except FlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAG
    except (ValueError,) as exc:
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
