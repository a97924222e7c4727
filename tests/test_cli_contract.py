"""The CLI's exit contract over a seeded grid of the accepted domain.

Every command ends in one of two ways: exit 0 with only finite numbers on
stdout, or a documented non-zero exit (2 flag, 3 numeric, 4 I/O) with
nothing on stdout, except a sweep, which prints its failed grid points as
`nan` and exits 3. No exception and no RuntimeWarning escapes `cli.main`.

The grid spans T from 1e-300 to 1 - 1e-6, W from 1 to 1.7e308 (next to the
largest double), the full range of the two-path correlation and V from 2
to 1e12; each rate, threshold and sweep case draws its protocol pair, and
each sampling case its protocol and seed, from one seeded generator.

A hypothesis strategy then drives `rate`, `threshold` and 3-point
`sweep` commands between the grid's values: T log-uniform towards 0 and
towards 1, W log-uniform in [1, 1e307] and V absent or in (1, EXACT_V_MAX].
There, an exit 2 must also be one of the documented domain checks.
"""

import contextlib
import io
import itertools
import math
import random
import re
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from twoway_cvqkd.cli import EXIT_FLAG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from twoway_cvqkd.key_rates import DIVERGENT_RR, EXACT_V_MAX, Protocol

T_VALUES = ["1e-300", "0.01", "0.7", "0.999999"]
W_VALUES = ["1", "1e8", "1e154", "1e300", "1e308", "1.7e308"]
CORRELATIONS = ["0", "0.9", "-1"]
V_FLAGS = [[], ["--V", "2"], ["--V", "1e12"]]

FINITE_PAIRS = [(p.value, r) for p in Protocol for r in ("dr", "rr")
                if not (r == "rr" and p in DIVERGENT_RR)]
SAMPLED = [p.value for p in Protocol if not p.collective]


def _cases() -> list[list[str]]:
    rng = random.Random(17)

    def pair() -> list[str]:
        protocol, recon = rng.choice(FINITE_PAIRS)
        return ["--protocol", protocol, "--recon", recon]

    def seed() -> list[str]:
        return ["--seed", str(rng.randrange(2**32))]

    cases = []
    for T, W, v in itertools.product(T_VALUES, W_VALUES, V_FLAGS):
        cases.append(["rate", *pair(), "--T", T, "--W", W, *v])
        # simulate requires --V: without it, the case is a flag error
        cases.append(["simulate", "--protocol", rng.choice(SAMPLED), "--T", T, "--W", W,
                      *v, "--n", "1000", *seed()])
    for T in T_VALUES:
        cases.append(["threshold", *pair(), "--T", T])
        cases.append(["sweep", *pair(), "--grid", f"{T}:0.999999:3"])
    for T, W, c in itertools.product(T_VALUES, W_VALUES, CORRELATIONS):
        cases.append(["tomo-check", "--T", T, "--W", W, "--correlation", c,
                      "--n", "1000", *seed()])
    return cases


def _numbers(text: str) -> list[float]:
    """Every comma-, '='- or space-separated token of `text` that is a float."""
    numbers = []
    for token in re.split(r"[,=\s]+", text):
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return numbers


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_exit(argv: list[str], code: int, out: str) -> None:
    assert code in (EXIT_OK, EXIT_FLAG, EXIT_NUMERIC, EXIT_IO)
    numbers = _numbers(out)
    if code == EXIT_OK:
        assert out and all(map(math.isfinite, numbers))
    elif argv[0] == "sweep" and code == EXIT_NUMERIC:
        assert any(map(math.isnan, numbers))
        assert all(math.isfinite(x) or math.isnan(x) for x in numbers)
    else:
        assert out == ""


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_exit_contract(argv):
    code, out, _ = _run(argv)
    _check_exit(argv, code, out)


# The domain checks an exit 2 of the drawn commands may report: at a tiny T
# with a large W the excess noise that `rate` prints overflows.
DOMAIN_MESSAGES = (
    "error: rate needs a transmission T > 0 at which the excess noise "
    "(W - 1)(1 - T)/T it reports is finite",
)

# 10^-u tends to 0 and 1 - 10^-u to 1, both strictly inside (0, 1)
transmissions = st.one_of(st.floats(0.3, 320.0).map(lambda u: 10.0 ** -u),
                          st.floats(0.3, 15.9).map(lambda u: 1.0 - 10.0 ** -u))
attack_variances = st.floats(0.0, 307.0).map(lambda e: 10.0 ** e)
modulations = st.floats(-15.0, 12.0).map(lambda e: min(1.0 + 10.0 ** e, EXACT_V_MAX))


@st.composite
def commands(draw) -> list[str]:
    protocol, recon = draw(st.sampled_from(FINITE_PAIRS))
    pair = ["--protocol", protocol, "--recon", recon]
    kind = draw(st.sampled_from(["rate", "threshold", "sweep"]))
    if kind == "threshold":
        return ["threshold", *pair, "--T", repr(draw(transmissions))]
    if kind == "sweep":
        lo, hi = sorted([draw(transmissions), draw(transmissions)])
        return ["sweep", *pair, "--grid", f"{lo!r}:{hi!r}:3"]
    V = draw(st.none() | modulations)
    return ["rate", *pair, "--T", repr(draw(transmissions)),
            "--W", repr(draw(attack_variances)), *([] if V is None else ["--V", repr(V)])]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(commands())
def test_exit_contract_between_the_grid_values(argv):
    code, out, err = _run(argv)
    _check_exit(argv, code, out)
    if code == EXIT_FLAG and not err.startswith("usage: "):
        assert all(line.startswith(DOMAIN_MESSAGES) for line in err.splitlines()), err


# At T = 5e-324 the array closed forms of het and het2 take the log of 0:
# the sweep solves that point again, and it fails with the one-point message
SUBNORMAL_SWEEPS = [["sweep", "--protocol", p, "--recon", r, "--grid", "5e-324:0.3:4"]
                    for p, r in (("het", "dr"), ("het2", "dr"), ("het", "rr"), ("het2", "rr"))]
SUBNORMAL_SWEEPS += [["figure-bundle", "--recon", r, "--grid", "5e-324:0.3:4"]
                     for r in ("dr", "rr")]


@pytest.mark.parametrize("argv", SUBNORMAL_SWEEPS, ids=" ".join)
def test_sweep_point_fails_as_its_threshold(argv):
    code, out, err = _run(argv)
    assert code == EXIT_NUMERIC
    assert out.splitlines()[1].split(",")[0] == "4.94065645841e-324"
    head = re.match(r"error: numeric failure during sweep: (\w+) (\w+) "
                    r"at T=4.94065645841e-324: ", err)
    assert head and err.count("\n") == 1
    code, _, one_point = _run(["threshold", "--protocol", head[1], "--recon", head[2],
                               "--T", "5e-324"])
    assert code == EXIT_NUMERIC
    assert "error: numeric failure: " + err[head.end():] == one_point


def test_two_way_sweep_with_a_failed_base_point_is_its_threshold():
    # coll_het2 DR's one-way base, het DR, fails at T = 5e-324; coll_het2
    # DR itself is 0 there, as its one-point threshold is
    code, out, _ = _run(["sweep", "--protocol", "coll_het2", "--recon", "dr",
                         "--grid", "5e-324:0.3:4"])
    assert (code, out.splitlines()[1]) == (EXIT_OK, "4.94065645841e-324,0")
    code, out, _ = _run(["threshold", "--protocol", "coll_het2", "--recon", "dr",
                         "--T", "5e-324"])
    assert (code, out.splitlines()[1]) == (EXIT_OK, "coll_het2,dr,4.94065645841e-324,0")
