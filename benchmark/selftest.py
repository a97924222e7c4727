"""Self-test of the benchmark's tracer: counts that repeat exactly, and
output that tracing leaves byte-identical.

    python3 benchmark/run.py --selftest

1. A single solve_threshold("hom", "dr", 0.7) makes 1 + doublings +
   bisection steps rate evaluations; the expected number follows from the
   returned root, the doubling bracket and W_TOL alone.
2. The default-grid figure bundles make the numbers of solves and rate,
   het2 RR spectrum and two-way joint evaluations pinned in
   reference/counts.json (recorded at the seed commit).
3. Every command below prints the same bytes with and without tracing.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys

import child
import tracer
import workloads
from twoway_cvqkd import attacks, thresholds

COMMANDS = [
    ["figure-bundle", "--recon", "dr"],
    ["figure-bundle", "--recon", "rr"],
    ["sweep", "--protocol", "hom2", "--recon", "dr"],
    ["sweep", "--protocol", "het2", "--recon", "rr", "--grid", "0.95:0.999:8"],
    ["rate", "--protocol", "het2", "--recon", "rr", "--T", "0.7", "--N", "0.1", "--V", "1e4"],
    ["simulate", "--protocol", "het2", "--T", "0.7", "--N", "0.1", "--V", "1e3",
     "--n", "100000", "--seed", "3"],
    ["tomo-check", "--T", "0.7", "--N", "0.1", "--correlation", "0.9",
     "--n", "20000", "--seed", "5"],
]


def expected_rate_evals(T: float, n_threshold: float) -> int:
    """1 (at W = 1) + doublings up to the first W = 2^k past the root
    + halvings of the last bracket down to W_TOL."""
    root = attacks.w_from_excess(T, n_threshold)
    hi, doublings = 2.0, 1
    while hi < root:
        hi, doublings = 2.0 * hi, doublings + 1
    width, steps = (1.0 if doublings == 1 else hi / 2.0), 0
    while width > workloads.W_TOL:
        width, steps = width / 2.0, steps + 1
    return 1 + doublings + steps


def main() -> int:
    failures = []

    def verify(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    untraced = [workloads.run_cli(argv) for argv in COMMANDS]
    rec = child.install_tracer()

    for attempt in (1, 2):
        start = len(rec.spans)
        n = thresholds.solve_threshold("hom", "dr", 0.7)
        solve = tracer.layer_totals(rec.spans[start:])["thresholds.solve_threshold"]
        got = solve["child_calls"]["key_rates.asymptotic_rate"]
        want = expected_rate_evals(0.7, n)
        verify(got == want, f"solve_threshold hom dr T=0.7 (run {attempt}): "
                            f"{got} rate evaluations, expected {want}")

    pinned = json.loads((workloads.REFERENCE / "counts.json").read_text())
    for argv, before in zip(COMMANDS, untraced):
        start = len(rec.spans)
        after = workloads.run_cli(argv)
        label = " ".join(argv)
        verify((before.rc, before.out) == (after.rc, after.out),
               f"{label}: traced output is byte-identical (exit {after.rc})")
        totals = tracer.layer_totals(rec.spans[start:])
        for name, want in pinned.get(label, {}).items():
            got = totals.get(name, {}).get("calls", 0)
            verify(got == want, f"{label}: {got} calls of {name}, pinned {want}")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
