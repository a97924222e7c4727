"""The CLI's exit contract over a seeded grid of the accepted domain.

Every command ends in one of two ways: exit 0 with only finite numbers on
stdout, or a documented non-zero exit (2 flag, 3 numeric, 4 I/O) with
nothing on stdout, except a sweep, which prints its failed grid points as
`nan` and exits 3. No exception and no RuntimeWarning escapes `cli.main`.

The grid spans T from 1e-300 to 1 - 1e-6, W from 1 to 1.7e308 (next to the
largest double), the full range of the two-path correlation and V from 2
to 1e12; each rate, threshold and sweep case draws its protocol pair, and
each sampling case its protocol and seed, from one seeded generator.
"""

import itertools
import math
import random
import re
import warnings

import pytest

from twoway_cvqkd.cli import EXIT_FLAG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from twoway_cvqkd.key_rates import DIVERGENT_RR, Protocol

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


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_exit_contract(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    out = capsys.readouterr().out
    assert code in (EXIT_OK, EXIT_FLAG, EXIT_NUMERIC, EXIT_IO)
    numbers = _numbers(out)
    if code == EXIT_OK:
        assert out and all(map(math.isfinite, numbers))
    elif argv[0] == "sweep" and code == EXIT_NUMERIC:
        assert any(map(math.isnan, numbers))
        assert all(math.isfinite(x) or math.isnan(x) for x in numbers)
    else:
        assert out == ""
