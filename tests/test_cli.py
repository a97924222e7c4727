import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twoway_cvqkd
from twoway_cvqkd import cli, key_rates, simulator
from twoway_cvqkd.attacks import AttackParams
from twoway_cvqkd.cli import (EXIT_FLAG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main)
from twoway_cvqkd.key_rates import (DIVERGENT_RR, Protocol, Reconciliation,
                                    asymptotic_rate)
from twoway_cvqkd.rng import CHUNK
from twoway_cvqkd.simulator import SimConfig

from oracles import sample_arrays

REFERENCE = Path(__file__).resolve().parent.parent / "benchmark" / "reference"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rate_at_3db_boundary(capsys):
    code, out, _ = run(capsys, "rate", "--protocol", "coll_het",
                       "--recon", "dr", "--T", "0.5", "--N", "0")
    assert code == EXIT_OK
    header, row = out.strip().splitlines()
    assert header == "protocol,recon,T,W,N,rate_bits,method"
    fields = row.split(",")
    assert float(fields[5]) == 0.0
    assert fields[6] == "asymptotic"


def test_rate_exact_engine(capsys):
    code, out, _ = run(capsys, "rate", "--protocol", "hom", "--recon", "rr",
                       "--T", "0.7", "--W", "1.5", "--V", "1000")
    assert code == EXIT_OK
    assert out.strip().splitlines()[1].split(",")[6] == "exact"


def test_mutually_exclusive_noise_flags(capsys):
    code, _, err = run(capsys, "rate", "--protocol", "hom", "--recon", "dr",
                       "--T", "0.5", "--W", "1.2", "--N", "0.1")
    assert code == EXIT_FLAG
    assert "mutually exclusive" in err


def test_unsupported_pair_reports_reason(capsys):
    code, _, err = run(capsys, "rate", "--protocol", "coll_hom",
                       "--recon", "rr", "--T", "0.5")
    assert code == EXIT_FLAG
    assert "diverges" in err


def test_threshold_command(capsys):
    code, out, _ = run(capsys, "threshold", "--protocol", "het",
                       "--recon", "rr", "--T", "0.5")
    assert code == EXIT_OK
    assert float(out.strip().splitlines()[1].split(",")[3]) > 0


def test_threshold_failure_names_the_last_bracket_end(capsys):
    # the root lies above W = 1e6, beyond the last bracket end W_HI_MAX
    code, out, err = run(capsys, "threshold", "--protocol", "hom", "--recon", "dr",
                         "--T", "0.9999994")
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == ("error: numeric failure: no sign change in W up to 1000000.0 "
                   "for hom dr at T=0.9999994\n")


def test_threshold_root_between_2_19_and_the_cap(capsys):
    # the root lies near W = 5.3e5, in the last bracket [2^19, W_HI_MAX],
    # where adjacent doubles are 1.16e-10 apart, wider than W_TOL
    T = 0.9999985
    code, out, err = run(capsys, "threshold", "--protocol", "hom", "--recon", "dr",
                         "--T", str(T))
    assert (code, err) == (EXIT_OK, "")
    n = float(out.strip().splitlines()[1].split(",")[3])
    w = AttackParams.from_excess(T, n).W
    assert 2.0 ** 19 < w < 1e6

    def rate(w):
        return asymptotic_rate("hom", "dr", AttackParams(T, w)).rate

    assert rate(w * (1.0 - 1e-9)) > 0.0 > rate(w * (1.0 + 1e-9))


@pytest.mark.parametrize("module", ["twoway_cvqkd", "twoway_cvqkd.cli"])
def test_python_dash_m_runs_the_cli(capsys, module):
    env = dict(os.environ,
               PYTHONPATH=str(Path(twoway_cvqkd.__file__).resolve().parent.parent))
    argv = ["rate", "--protocol", "hom", "--recon", "dr", "--T", "0.7"]
    proc = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True)
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == EXIT_OK
    assert proc.stdout == out != ""
    bad = subprocess.run([sys.executable, "-m", module, *argv, "--bogus"], env=env,
                         capture_output=True, text=True)
    assert bad.returncode == EXIT_FLAG
    assert bad.stdout == ""
    assert "unrecognized arguments: --bogus" in bad.stderr


def test_sweep_includes_crossover_annotation(capsys):
    code, out, _ = run(capsys, "sweep", "--protocol", "hom2", "--recon", "dr",
                       "--grid", "0.7:0.95:11")
    assert code == EXIT_OK
    annotation = [l for l in out.splitlines() if l.startswith("#")]
    assert len(annotation) == 1
    t_c = float(annotation[0].split("T=")[1])
    assert abs(t_c - 0.86) < 0.01


def test_figure_bundle_headers(capsys):
    code, out, _ = run(capsys, "figure-bundle", "--recon", "dr",
                       "--grid", "0.3:0.7:3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "T,hom,het,coll_het,hom2,het2,coll_hom2,coll_het2"
    assert len(lines) == 4
    code, out, _ = run(capsys, "figure-bundle", "--recon", "rr",
                       "--grid", "0.3:0.7:3")
    assert code == EXIT_OK
    assert out.strip().splitlines()[0] == "T,hom,het,hom2,het2"


def test_figure_bundle_empty_grid(capsys):
    # a grid of no points is a flag error, not a header-only CSV
    for command in (["figure-bundle", "--recon", "rr"],
                    ["sweep", "--protocol", "hom", "--recon", "dr"]):
        code, out, err = run(capsys, *command, "--grid", "0.3:0.7:0")
        assert (code, out) == (EXIT_FLAG, "")
        assert "steps must be >= 1, got 0" in err


def test_bad_grid_flag(capsys):
    code, _, err = run(capsys, "sweep", "--protocol", "hom", "--recon", "dr",
                       "--grid", "0.3-0.7-5")
    assert code == EXIT_FLAG
    assert "grid" in err


def test_simulate_deterministic(tmp_path, capsys):
    args = ["simulate", "--protocol", "het2", "--T", "0.7", "--N", "0.1",
            "--V", "1000", "--n", "2000", "--seed", "42"]
    out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["--out", str(out_a)]) == EXIT_OK
    assert main(args + ["--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    assert b"mi_empirical_bits=" in out_a.read_bytes()


def test_simulate_dump_samples(tmp_path, capsys, monkeypatch):
    n = CHUNK + 5
    args = ["simulate", "--protocol", "het2", "--T", "0.7", "--N", "0.1",
            "--V", "1000", "--n", str(n), "--seed", "42"]
    path = tmp_path / "samples.csv"
    code, out, _ = run(capsys, *args, "--dump-samples", str(path))
    assert code == EXIT_OK
    assert "mi_empirical_bits=" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "x_a_Q,x_a_P,x_b_Q,x_b_P"
    assert len(lines) == 1 + n
    x_a, x_b = sample_arrays(SimConfig("het2", 1000.0, AttackParams.from_excess(0.7, 0.1),
                                       n, 42))
    assert lines[1:] == [",".join(f"{x:.12g}" for x in row)
                         for row in np.column_stack([x_a, x_b])]
    # an unwritable dump path fails before any sample is drawn, and prints nothing
    def no_simulation(config):
        raise AssertionError("simulated before opening the dump file")

    monkeypatch.setattr(cli, "simulate", no_simulation)
    code, out, err = run(capsys, *args, "--dump-samples",
                         str(tmp_path / "missing" / "s.csv"))
    assert code == EXIT_IO
    assert out == ""
    assert "i/o failure" in err
    # a run whose analytic check fails exits 3 before the dump file exists
    path = tmp_path / "failed.csv"
    code, out, _ = run(capsys, "simulate", "--protocol", "hom", "--T", "0.7",
                       "--V", "1e300", "--n", "1000", "--seed", "1",
                       "--dump-samples", str(path))
    assert code == EXIT_NUMERIC
    assert out == ""
    assert not path.exists()


def test_simulate_builds_one_joint_per_pass(tmp_path, capsys, monkeypatch):
    # the summary needs one joint; a dump adds the analytic check before
    # the file opens and the regenerated trajectories
    builds = []

    def counted(*args):
        builds.append(args)
        return joint_for(*args)

    joint_for = key_rates._joint_for
    monkeypatch.setattr(key_rates, "_joint_for", counted)
    monkeypatch.setattr(simulator, "_joint_for", counted)
    args = ["simulate", "--protocol", "het2", "--T", "0.7", "--N", "0.1",
            "--V", "1000", "--n", "1000", "--seed", "3"]
    assert run(capsys, *args)[0] == EXIT_OK
    assert len(builds) == 1
    assert run(capsys, *args, "--dump-samples", str(tmp_path / "s.csv"))[0] == EXIT_OK
    assert len(builds) == 1 + 3


def test_simulate_rejects_zero_transmission_before_sampling(tmp_path, capsys, monkeypatch):
    def no_simulation(config):
        raise AssertionError("simulated a run whose summary cannot be printed")

    monkeypatch.setattr(cli, "simulate", no_simulation)
    path = tmp_path / "d.csv"
    code, out, err = run(capsys, "simulate", "--protocol", "hom", "--T", "0", "--W", "1.5",
                         "--V", "10", "--n", "2000000", "--seed", "1",
                         "--dump-samples", str(path))
    assert code == EXIT_FLAG
    assert out == ""
    assert "T > 0" in err
    assert not path.exists()


def test_simulate_rejects_a_transmission_with_infinite_excess_noise(capsys, monkeypatch):
    def no_simulation(config):
        raise AssertionError("simulated a run whose excess noise is not finite")

    monkeypatch.setattr(cli, "simulate", no_simulation)
    # (W - 1)(1 - T)/T overflows at a subnormal T
    code, out, err = run(capsys, "simulate", "--protocol", "het2", "--T", "1e-320",
                         "--W", "1.5", "--V", "1e3", "--n", "2000", "--seed", "1")
    assert code == EXIT_FLAG
    assert out == ""
    assert "excess noise (W - 1)(1 - T)/T it reports is finite" in err


def test_simulate_runs_at_a_tiny_transmission(capsys):
    code, out, err = run(capsys, "simulate", "--protocol", "het2", "--T", "1e-12",
                         "--W", "1.5", "--V", "1e3", "--n", "2000", "--seed", "1")
    assert (code, err) == (EXIT_OK, "")
    assert "N=500000000000\n" in out


def test_simulate_requires_seed(capsys):
    code, _, _ = run(capsys, "simulate", "--protocol", "hom", "--T", "0.7",
                     "--V", "10", "--n", "2000")
    assert code == EXIT_FLAG


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tomo_check_rejects_tolerance_before_sampling(capsys, monkeypatch, tol):
    def no_sampling(*args):
        raise AssertionError("sampled before checking --tol")

    monkeypatch.setattr(cli, "simulate_probe_dataset", no_sampling)
    code, out, err = run(capsys, "tomo-check", "--T", "0.7", "--W", "1.5",
                         "--n", "2000", "--seed", "7", "--tol", tol)
    assert code == EXIT_FLAG
    assert out == ""
    assert "tolerance must be positive and finite" in err


def test_tomo_check_reducible(capsys):
    code, out, _ = run(capsys, "tomo-check", "--T", "0.7", "--W", "1.5",
                       "--correlation", "0", "--n", "2000", "--seed", "7")
    assert code == EXIT_OK
    assert "verdict=reducible" in out


def test_tomo_check_irreducible(capsys):
    code, out, _ = run(capsys, "tomo-check", "--T", "0.7", "--W", "1.5",
                       "--correlation", "0.9", "--n", "2000", "--seed", "7")
    assert code == EXIT_OK
    assert "verdict=irreducible" in out


@pytest.mark.parametrize("W", ["1e6", "1e8"])
def test_tomo_check_takes_full_correlation_at_large_w(capsys, W):
    # equal marginals are physical up to |c| = 1 at any W
    code, _, _ = run(capsys, "tomo-check", "--T", "0.7", "--W", W, "--correlation", "1",
                     "--n", "2000", "--seed", "1")
    assert code == EXIT_OK


def test_tomo_check_at_huge_w(capsys):
    code, out, err = run(capsys, "tomo-check", "--T", "0.7", "--W", "1e100",
                         "--n", "2000", "--seed", "1")
    assert (code, err) == (EXIT_OK, "")
    values = dict(line.split("=") for line in out.splitlines())
    assert sorted(values) == ["composition_deviation", "symmetry_deviation",
                              "tolerance", "verdict"]
    assert all(math.isfinite(float(v)) for k, v in values.items() if k != "verdict")


def test_tomo_check_overflowing_deviation_exits_numeric(capsys):
    # the composition of the estimated legs overflows; a RuntimeWarning
    # fails the test
    code, out, err = run(capsys, "tomo-check", "--T", "0.7", "--W", "1e200",
                         "--n", "2000", "--seed", "1")
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err.startswith("error: numeric failure: channel deviations overflow")


@pytest.mark.parametrize("W", ["1e308", "1.7e308"])
def test_tomo_check_overflowing_noise_fit_exits_numeric(capsys, W):
    # the probe-averaged noise, the probes' output CMs or the round trip's
    # noise overflow, and the fit is rejected before it reaches a deviation;
    # a RuntimeWarning fails the test
    for flags in (["--T", "0.7"], ["--T", "0.7", "--correlation", "0.9"], ["--T", "0.01"]):
        code, out, err = run(capsys, "tomo-check", *flags, "--W", W,
                             "--n", "2000", "--seed", "1")
        assert (code, out) == (EXIT_NUMERIC, ""), flags
        assert err.startswith("error: numeric failure: fitted channel is not finite")
        assert "Warning" not in err


@pytest.mark.parametrize("command", [
    ["simulate", "--protocol", "het2", "--V", "1000"],
    ["tomo-check", "--correlation", "0.9"],
], ids=lambda c: c[0])
def test_negative_seed_is_a_flag_error(capsys, monkeypatch, command):
    # rejected while parsing: sampling would call None and fail the test
    monkeypatch.setattr(cli, "simulate", None)
    monkeypatch.setattr(cli, "simulate_probe_dataset", None)
    code, out, err = run(capsys, *command, "--T", "0.7", "--N", "0.1",
                         "--n", "2000", "--seed", "-1")
    assert (code, out) == (EXIT_FLAG, "")
    assert "argument --seed: seed must be a non-negative integer, got '-1'" in err


def test_output_io_failure(capsys):
    code, _, err = run(capsys, "rate", "--protocol", "hom", "--recon", "dr",
                       "--T", "0.5", "--out", "/nonexistent/dir/x.csv")
    assert code == EXIT_IO
    assert "i/o" in err


def test_log_base_switch(capsys):
    # the library computes in bits; --log-base e converts the printed rate.
    # The nats values themselves are checked in test_gaussian and test_key_rates.
    args = ["rate", "--protocol", "coll_het", "--recon", "dr", "--T", "0.75"]
    code, out_bits, _ = run(capsys, *args)
    assert code == EXIT_OK
    code, out_nats, _ = run(capsys, "--log-base", "e", *args)
    assert code == EXIT_OK
    header_bits, row_bits = out_bits.strip().splitlines()
    header_nats, row_nats = out_nats.strip().splitlines()
    assert header_bits == "protocol,recon,T,W,N,rate_bits,method"
    assert header_nats == "protocol,recon,T,W,N,rate_nats,method"
    bits = float(row_bits.split(",")[5])
    nats = float(row_nats.split(",")[5])
    assert abs(nats - bits * math.log(2.0)) < 1e-9
    code, _, _ = run(capsys, "--log-base", "10", *args)
    assert code == EXIT_FLAG


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main builds the parser once per process; each call must read as it
    # would on a freshly built parser, whatever the calls before it did
    out = tmp_path / "sweep.csv"
    rate = ["rate", "--protocol", "coll_het", "--recon", "dr", "--T", "0.75"]
    calls = [
        (["threshold", "--protocol", "hom", "--recon", "dr", "--T", "0.7"], EXIT_OK),
        (["threshold", "--protocol", "hom", "--recon", "dr"], EXIT_FLAG),
        (["sweep", "--help"], EXIT_OK),
        (["--log-base", "e", *rate], EXIT_OK),
        (rate, EXIT_OK),
        (["sweep", "--protocol", "hom", "--recon", "dr", "--grid", "0.3:0.7:3",
          "--out", str(out)], EXIT_OK),
        (["sweep", "--protocol", "hom", "--recon", "dr", "--grid", "0.3:0.7"], EXIT_FLAG),
    ]

    def outcomes(fresh: bool) -> list:
        got = []
        for argv, _ in calls:
            if fresh:
                cli.build_parser.cache_clear()
            got.append((*run(capsys, *argv), out.read_text() if out.exists() else None))
            out.unlink(missing_ok=True)
        return got

    reused, fresh = outcomes(False), outcomes(True)
    assert reused == fresh
    assert [code for code, *_ in reused] == [code for _, code in calls]
    assert "rate_nats" in reused[3][1] and "rate_bits" in reused[4][1]
    assert reused[5][1] == "" and reused[5][3].startswith("T,N_threshold\n")


def test_importing_the_cli_builds_no_parser():
    code = ("import argparse\n"
            "built, init = [], argparse.ArgumentParser.__init__\n"
            "def counted(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import twoway_cvqkd.cli\n"
            "print(len(built), twoway_cvqkd.cli.build_parser.cache_info().currsize)\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(twoway_cvqkd.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0\n", "")


@pytest.mark.parametrize("argv, message", [
    (["rate", "--protocol", "hom", "--recon", "dr", "--T", "nan"], "transmission"),
    (["rate", "--protocol", "hom", "--recon", "dr", "--T", "0.5", "--W", "nan"],
     "EPR variance must be finite"),
    (["rate", "--protocol", "hom", "--recon", "dr", "--T", "0.5", "--W", "inf"],
     "EPR variance must be finite"),
    (["rate", "--protocol", "hom", "--recon", "dr", "--T", "0.5", "--N", "nan"],
     "excess noise must be finite"),
    (["rate", "--protocol", "hom", "--recon", "dr", "--T", "0.5", "--N", "inf"],
     "excess noise must be finite"),
    (["rate", "--protocol", "hom", "--recon", "rr", "--T", "0.5", "--V", "nan"],
     "modulation variance must be finite"),
    (["rate", "--protocol", "het2", "--recon", "dr", "--T", "0.5", "--V", "inf"],
     "modulation variance must be finite"),
    (["simulate", "--protocol", "het2", "--T", "0.7", "--N", "0.1", "--V", "nan",
      "--n", "2000", "--seed", "3"], "modulation variance must be finite"),
    (["tomo-check", "--T", "0.7", "--W", "nan", "--n", "2000", "--seed", "7"],
     "EPR variance must be finite"),
    (["tomo-check", "--T", "0.7", "--W", "1.5", "--correlation", "0.9", "--n", "2000",
      "--seed", "7", "--tol", "nan"], "tolerance must be positive and finite"),
    (["tomo-check", "--T", "0.7", "--W", "1.5", "--correlation", "0.9", "--n", "2000",
      "--seed", "7", "--tol", "inf"], "tolerance must be positive and finite"),
    # N = (W - 1)(1 - T)/T overflows at a subnormal T, though the rate is finite
    (["rate", "--protocol", "coll_het", "--recon", "dr", "--T", "1e-320", "--W", "1e6"],
     "excess noise (W - 1)(1 - T)/T it reports is finite"),
])
def test_non_finite_inputs_are_flag_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_FLAG
    assert out == ""
    assert message in err


def test_figure_bundle_failed_point_exits_numeric(capsys):
    # het2 RR fails at T = 0.999 (the numeric spectrum misses its product
    # check); the CSV is still written in full, with NaN at that point
    code, out, err = run(capsys, "figure-bundle", "--recon", "rr",
                         "--grid", "0.95:0.999:3")
    assert code == EXIT_NUMERIC
    lines = out.strip().splitlines()
    assert lines[0] == "T,hom,het,hom2,het2"
    assert len(lines) == 4
    assert lines[3].startswith("0.999,") and lines[3].endswith(",nan")
    assert "nan" not in ",".join(lines[1:3])
    assert err.count("error:") == 1
    assert "numeric failure during sweep: het2 rr at T=0.999" in err


# the ids keep the names these cases have always been reported under
@pytest.mark.parametrize("argv, reference, stride, expected", [
    pytest.param(["figure-bundle", "--recon", "dr"], "figure_bundle_dr.csv", 1, EXIT_OK,
                 id="argv0-figure_bundle_dr.csv"),
    pytest.param(["sweep", "--protocol", "hom2", "--recon", "dr"], "sweep_hom2_dr.csv",
                 1, EXIT_OK, id="argv1-sweep_hom2_dr.csv"),
    # every 8th point of the default grid
    pytest.param(["figure-bundle", "--recon", "rr", "--grid", "0.02:0.98:25"],
                 "figure_bundle_rr.csv", 8, EXIT_OK, id="argv2-figure_bundle_rr.csv"),
    # T = 0.999 fails a check of the het2 RR numeric spectrum and is written as nan
    pytest.param(["sweep", "--protocol", "het2", "--recon", "rr", "--grid", "0.95:0.999:8"],
                 "sweep_het2_rr_edge.csv", 1, EXIT_NUMERIC,
                 id="argv3-sweep_het2_rr_edge.csv"),
])
def test_output_matches_reference_csv(capsys, argv, reference, stride, expected):
    code, out, err = run(capsys, *argv)
    assert code == expected
    header, *rows = (REFERENCE / reference).read_text().splitlines(keepends=True)
    assert out == header + "".join(rows[::stride])
    if expected == EXIT_NUMERIC:
        # the eigenvalue is the numeric spectrum's, near the root W ~ 790
        prefix = ("error: numeric failure during sweep: het2 rr at T=0.999: "
                  "largest conditional eigenvalue ")
        suffix = (" is not within 1% of the expected diverging value "
                  "19989.99999999973\n")
        assert err.startswith(prefix) and err.endswith(suffix)
        assert float(err[len(prefix):-len(suffix)]) > 1.01 * 19989.99999999973


def test_rate_keeps_its_sign_at_huge_w(capsys):
    code, out, _ = run(capsys, "rate", "--protocol", "coll_het", "--recon", "rr",
                       "--T", "0.7", "--W", "1e200")
    assert code == EXIT_OK
    assert float(out.strip().splitlines()[1].split(",")[5]) < -1000


@pytest.mark.parametrize("argv, message", [
    (["rate", "--protocol", "hom", "--recon", "dr", "--T", "0.7", "--W", "1e300"],
     "rate is NaN"),
    # these three ids keep the names the cases have always been reported
    # under, from when a cancelled conditional variance stopped them
    pytest.param(["rate", "--protocol", "hom", "--recon", "dr", "--T", "0.7",
                  "--V", "1e17"], "exact engine's limit",
                 id="argv1-conditional variance"),
    pytest.param(["rate", "--protocol", "het2", "--recon", "rr", "--T", "0.7",
                  "--V", "1e17"], "exact engine's limit",
                 id="argv2-conditional variance"),
    pytest.param(["simulate", "--protocol", "hom", "--T", "0.7", "--V", "1e300",
                  "--n", "1000", "--seed", "1"], "exact engine's limit",
                 id="argv3-conditional variance"),
    # het2 RR's closed form overflows at T = 1e-300, so these rates take the
    # numeric spectrum, which fails
    (["rate", "--protocol", "het2", "--recon", "rr", "--T", "1e-300", "--W", "1e100"],
     "pairing"),
    (["rate", "--protocol", "het2", "--recon", "rr", "--T", "1e-300", "--W", "1e300"],
     "overflows"),
    (["rate", "--protocol", "coll_hom2", "--recon", "dr", "--T", "0.7", "--W", "1.5",
      "--V", "1e200"], "overflows"),
    (["rate", "--protocol", "coll_het2", "--recon", "dr", "--T", "0.7", "--W", "1.5",
      "--V", "1e200"], "overflows"),
    (["rate", "--protocol", "coll_het", "--recon", "rr", "--T", "0.7", "--W", "1e200",
      "--V", "10"], "overflows"),
    # the one-way joint never squares V, so only the bound stops these
    (["rate", "--protocol", "hom", "--recon", "dr", "--T", "0.7", "--W", "1.5",
      "--V", "1e200"], "exact engine's limit"),
    (["rate", "--protocol", "hom", "--recon", "dr", "--T", "0.7", "--W", "1.5",
      "--V", "1e13"], "exact engine's limit"),
    # these two ids keep the names the cases were reported under when a
    # covariance spectrum failed its pairing check there: above EXACT_W_MAX
    # the factor no longer holds the purity of Eve's EPR pair (mpmath:
    # -0.579 bits, where the engine would print 0), and at T = 1 - 1e-11
    # cancellation leaves coll_het2's largest B eigenvalue unresolved (it
    # would print 71.0773074595, mpmath 71.0773086508)
    pytest.param(["rate", "--protocol", "hom", "--recon", "dr", "--T", "0.9999999",
                  "--W", "1e100", "--V", "2"],
                 "Eve's EPR variance W=1e+100 is above the exact engine's limit",
                 id="argv11-broken CM"),
    pytest.param(["rate", "--protocol", "coll_het2", "--recon", "dr", "--T",
                  "0.99999999999", "--W", "1.5", "--V", "1e12"],
                 "unresolved to 1e-06", id="argv12-broken CM"),
    # a closed form whose logarithm's argument underflows to 0 at a tiny T
    (["rate", "--protocol", "het", "--recon", "rr", "--T", "1e-300", "--W", "1e100"],
     "math domain error"),
    (["rate", "--protocol", "het", "--recon", "dr", "--T", "1e-200", "--W", "1e200"],
     "math domain error"),
    (["rate", "--protocol", "hom", "--recon", "dr", "--T", "1e-320", "--W", "1e6"],
     "math domain error"),
])
def test_numeric_edges_exit_numeric(capsys, argv, message):
    # a numpy RuntimeWarning on the way fails the test: pytest makes it an error
    code, out, err = run(capsys, *argv)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("error: numeric failure: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("T", ["5e-324", "1e-320"])
def test_het2_rr_threshold_at_subnormal_t_exits_numeric(capsys, T):
    # the product check's closed form overflows there: an overflow warning
    # fails the test, and a product check that passed would print an N
    code, out, err = run(capsys, "threshold", "--protocol", "het2", "--recon", "rr",
                         "--T", T)
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err.startswith("error: numeric failure: eigenvalue product ")
    assert err.endswith(" deviates from closed form inf beyond relative tolerance 1e-06\n")


@pytest.mark.parametrize("protocol, recon", [
    (p.value, r.value) for r in Reconciliation for p in Protocol
    if not (r is Reconciliation.RR and p in DIVERGENT_RR)])
def test_rate_at_the_exact_engine_limit_is_finite(capsys, protocol, recon):
    code, out, err = run(capsys, "rate", "--protocol", protocol, "--recon", recon,
                         "--T", "0.7", "--N", "0.1", "--V", "1e12")
    assert (code, err) == (EXIT_OK, "")
    header, row = out.strip().splitlines()
    assert math.isfinite(float(row.split(",")[header.split(",").index("rate_bits")]))


@pytest.mark.parametrize("argv, expected", [
    (["rate", "--protocol", "coll_hom", "--recon", "rr", "--T", "0.5"], EXIT_FLAG),
    (["rate", "--protocol", "hom", "--recon", "dr", "--T", "0.7", "--W", "1e300"],
     EXIT_NUMERIC),
    (["threshold", "--protocol", "coll_hom", "--recon", "rr", "--T", "0.5"], EXIT_FLAG),
    (["threshold", "--protocol", "hom", "--recon", "dr", "--T", "1.5"], EXIT_FLAG),
    (["simulate", "--protocol", "hom", "--T", "0.7", "--V", "10", "--n", "10",
      "--seed", "1"], EXIT_FLAG),
    (["simulate", "--protocol", "hom", "--T", "0.7", "--V", "1e300", "--n", "1000",
      "--seed", "1"], EXIT_NUMERIC),
    (["tomo-check", "--T", "0.7", "--W", "1.5", "--n", "2000", "--seed", "7",
      "--tol", "nan"], EXIT_FLAG),
    # an argument the exact engine rejects is still a flag error
    (["rate", "--protocol", "hom", "--recon", "dr", "--T", "0.7", "--V", "1"], EXIT_FLAG),
])
def test_failed_command_creates_no_out_file(tmp_path, capsys, argv, expected):
    path = tmp_path / "out.csv"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == expected
    assert out == ""
    assert not path.exists()


@pytest.mark.parametrize("argv, expected", [
    (["rate", "--protocol", "het2", "--recon", "rr", "--T", "0.7", "--N", "0.1",
      "--V", "1e4"], EXIT_OK),
    (["threshold", "--protocol", "het", "--recon", "rr", "--T", "0.5"], EXIT_OK),
    (["sweep", "--protocol", "hom2", "--recon", "dr", "--grid", "0.7:0.95:11"], EXIT_OK),
    (["figure-bundle", "--recon", "rr", "--grid", "0.95:0.999:3"], EXIT_NUMERIC),
    (["simulate", "--protocol", "het2", "--T", "0.7", "--N", "0.1", "--V", "1000",
      "--n", "2000", "--seed", "42"], EXIT_OK),
    (["tomo-check", "--T", "0.7", "--W", "1.5", "--correlation", "0.9", "--n", "2000",
      "--seed", "7"], EXIT_OK),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_out_file_matches_stdout(tmp_path, capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == expected
    assert out
    path = tmp_path / "out.csv"
    code, out_with_file, _ = run(capsys, *argv, "--out", str(path))
    assert code == expected
    assert out_with_file == ""
    assert path.read_text() == out
