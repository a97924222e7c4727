"""Benchmark of the twoway_cvqkd package: four closed-loop workloads.

Run from the root of a checkout (the package is imported from `src`):

    python3 benchmark/run.py --workload thresholds_rr --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --all [--seeds 1 2] [--seconds 20]
    python3 benchmark/run.py --selftest

One run starts fresh child processes (PYTHONPATH=src, CVQKD_THREADS
removed from the environment), one at a time. With --trace 0 it times
several set-ups and one untraced measuring window, and prints every
end-to-end metric of BENCHMARK.json. With --trace 1 it runs half the
window untraced and half traced, and prints every per-layer metric plus
the tracing overhead. Outputs are checked in both modes. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.

--all runs every workload untraced on two seeds and traced on the first,
and prints every metric with its unit, the check results, whether the two
seeds agree within each metric's bound, and the tracing overhead.
--selftest pins exactly repeating trace counts and checks that tracing
leaves the command output byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CVQKD_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(*args: str) -> dict:
    """Run child.py with `args` and return the JSON object it prints."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {' '.join(args)} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list) -> tuple:
    """Highest percentile with at least 10 samples beyond it: (value, pct)."""
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def end_to_end(setups: list, run: dict) -> dict:
    lat_ms = [x * 1e3 for x in run["latencies_s"]]
    return {
        "setup_s": statistics.median(setups),
        "job_s": run["job_s"],
        "query_p50_ms": statistics.median(lat_ms),
        "query_tail_ms": tail(lat_ms)[0],
        "samples_per_s": run["samples_per_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    passes = traced["passes"]
    layers, counts = traced["layers"], traced["counts"]

    def layer(name: str) -> dict:
        return layers.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                 "child_busy_s": 0.0, "errors": {}, "child_calls": {}})

    solve = layer("thresholds.solve_threshold")
    rate_evals = solve["child_calls"].get("key_rates.asymptotic_rate", 0)
    solved = solve["calls"] - sum(solve["errors"].values())
    het2 = layer("key_rates.het2_rr_finite_eigenvalues")
    out = {
        "cli.main.calls": layer("cli.main")["calls"],
        "cli.self_s": layer("cli.main")["self_s"],
        "thresholds.solve_threshold.calls": solve["calls"],
        "thresholds.solve_threshold.self_s": solve["self_s"],
        "thresholds.rate_evals": rate_evals,
        "thresholds.sweep_curve.busy_s": layer("thresholds.sweep_curve")["child_busy_s"],
        "thresholds.sweep_curve.wall_s": layer("thresholds.sweep_curve")["busy_s"],
        "thresholds.crossover.busy_s": layer("thresholds.crossover")["busy_s"],
        "thresholds.crossover.resolves":
            layer("thresholds.crossover")["child_calls"].get("thresholds.solve_threshold", 0),
        "thresholds.failed_points": counts.get("thresholds.failed_points", 0),
        "key_rates.asymptotic_rate.calls": layer("key_rates.asymptotic_rate")["calls"],
        "key_rates.asymptotic_rate.self_s": layer("key_rates.asymptotic_rate")["self_s"],
        "key_rates.het2_rr_finite_eigenvalues.calls": het2["calls"],
        "key_rates.het2_rr_finite_eigenvalues.busy_s": het2["busy_s"],
        "key_rates.het2_rr_finite_eigenvalues.self_s": het2["self_s"],
        "key_rates.het2_rr_finite_eigenvalues.numerical_failures":
            het2["errors"].get("NumericalFailure", 0),
        "key_rates.two_way_joint.calls": layer("key_rates.two_way_joint")["calls"],
        "key_rates.two_way_joint.busy_s": layer("key_rates.two_way_joint")["busy_s"],
        "key_rates.exact_rate.calls": layer("key_rates.exact_rate")["calls"],
        "key_rates.exact_rate.self_s": layer("key_rates.exact_rate")["self_s"],
        "key_rates.one_way_joint.busy_s": layer("key_rates.one_way_joint")["busy_s"],
        "key_rates.shannon_terms.busy_s": layer("key_rates.shannon_terms")["busy_s"],
        "gaussian.conditional_cov.calls": layer("gaussian.conditional_cov")["calls"],
        "gaussian.conditional_cov.busy_s": layer("gaussian.conditional_cov")["busy_s"],
        "gaussian.symplectic_eigenvalues.calls": layer("gaussian.symplectic_eigenvalues")["calls"],
        "gaussian.symplectic_eigenvalues.busy_s": layer("gaussian.symplectic_eigenvalues")["busy_s"],
        "gaussian.g_entropy.calls": counts.get("gaussian.g_entropy.calls", 0),
        "rng.normal_matrix.calls": layer("rng.normal_matrix")["calls"],
        "rng.normal_matrix.busy_s": layer("rng.normal_matrix")["busy_s"],
        "rng.normal_matrix.bytes": counts.get("rng.normal_matrix.bytes", 0),
        "rng.generator.calls": counts.get("rng.generator.calls", 0),
        "simulator.simulate.self_s": layer("simulator.simulate")["self_s"],
        "simulator.empirical_mi.busy_s": layer("simulator.empirical_mi")["busy_s"],
        "tomography.simulate_probe_dataset.busy_s":
            layer("tomography.simulate_probe_dataset")["busy_s"],
        "tomography.estimate_channel.busy_s": layer("tomography.estimate_channel")["busy_s"],
        "tomography.check_reducibility.calls": counts.get("tomography.check_reducibility.calls", 0),
    }
    # Totals over the traced window, reported per pass.
    out = {k: v / passes for k, v in out.items()}
    out["thresholds.rate_evals_per_solve"] = rate_evals / solved if solved else 0.0
    out["thresholds.sweep_curve.workers"] = traced["env"]["default_threads"]
    out["key_rates.exact_rate.scaled_dev_max"] = traced["scaled_dev_max"]
    out["trace.overhead_frac"] = traced["job_s"] / untraced["job_s"] - 1.0
    return out


def busy_shares(layers: dict) -> list:
    """Inclusive time of each traced function as a share of all time spent
    inside traced functions (thread time: sweep pool threads add up)."""
    total = sum(t["self_s"] for t in layers.values())
    if total <= 0.0:
        return []
    ranked = sorted(layers.items(), key=lambda kv: -kv[1]["busy_s"])
    return [f"share {name:<46} busy {t['busy_s'] / total:6.1%}  self {t['self_s'] / total:6.1%}"
            for name, t in ranked if t["busy_s"] >= 0.01 * total]


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result object, lines for the reader)."""
    base = [workload, "--seed", str(seed)]
    if trace:
        half = str(seconds / 2.0)
        runs = [run_child(*base, "--seconds", half),
                run_child(*base, "--seconds", half, "--trace")]
        values = per_layer(runs[1], runs[0])
        metrics_spec = SPEC["per_layer"]
    else:
        setups = [run_child(*base, "--seconds", "0", "--setup-only")["setup_s"]
                  for _ in range(SETUP_RUNS)]
        runs = [run_child(*base, "--seconds", str(seconds))]
        values = end_to_end(setups, runs[0])
        metrics_spec = SPEC["end_to_end"]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    wrong = [w for r in runs for w in r["wrong"]]
    wrong_count = sum(r["wrong_count"] for r in runs)
    if trace and runs[0]["digests"][0] != runs[1]["digests"][0]:
        wrong.append("traced output of the first pass differs from the untraced output")
        wrong_count += 1
    main = runs[-1]
    env = main["env"]
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}  passes "
             + "/".join(str(r["passes"]) for r in runs)
             + "  window " + "/".join(f"{r['window_s']:.1f}" for r in runs) + " s",
             "env " + " ".join(f"{k}={v}" for k, v in env.items())]
    metrics = {}
    for m in metrics_spec:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = ""
        if m["name"] == "query_tail_ms":
            pct = tail(main["latencies_s"])[1]
            note = f"  (p{pct:.1f} of {len(main['latencies_s'])} samples)"
        lines.append(f"metric {m['name']:<52} {value:.6g} {m['unit']}{note}")
    if trace:
        lines += busy_shares(main["layers"])
    else:
        lines.append(f"note speed factor {main['speed']:.4f} over {main['kernel_samples']} "
                     f"kernel samples; unscaled job_s mean {statistics.fmean(main['job_raw_s']):.6g}"
                     f" / median {statistics.median(main['job_raw_s']):.6g} s, "
                     f"query_p50_ms {statistics.median(main['latencies_raw_s']) * 1e3:.6g} ms")
        lines.append(f"note peak RSS {main['peak_rss_mb']:.1f} MB is "
                     f"{main['peak_rss_mb'] - main['rss_import_mb']:.1f} MB over the "
                     f"{main['rss_import_mb']:.1f} MB right after import")
    lines.append(f"check failed_frac {failed / attempted:.4g}  (failed {failed} of "
                 f"{attempted} ops)")
    failures = {}
    for r in runs:
        for msg, n in r["failures"].items():
            failures[msg] = failures.get(msg, 0) + n
    for msg, n in sorted(failures.items()):
        lines.append(f"check FAILED x{n}: {msg}")
    for msg in wrong:
        lines.append(f"check WRONG: {msg}")
    lines.append("check outputs " + ("ok" if wrong_count == 0
                                      else f"WRONG in {wrong_count} places"))
    result = {"correct": wrong_count == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def report_all(seeds: list, seconds: float) -> int:
    """Every workload untraced on each seed, traced on the first."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    for workload in WORKLOADS:
        results = []
        for seed in seeds:
            result, lines = measure(workload, seed, seconds, trace=False)
            print("\n".join(lines))
            results.append(result)
            ok &= result["correct"]
        if len(results) > 1:
            for name, bound in bounds.items():
                vals = [r["metrics"][name]["value"] for r in results]
                spread = (max(vals) - min(vals)) / statistics.median(vals)
                verdict = "agree" if spread <= bound else "DIFFER"
                print(f"seeds {workload} {name}: " + " / ".join(f"{v:.6g}" for v in vals)
                      + f"  spread {spread:.3f} (bound {bound}) {verdict}")
        result, lines = measure(workload, seeds[0], seconds, trace=True)
        print("\n".join(lines))
        ok &= result["correct"]
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="report every workload")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--selftest", action="store_true", help="pin trace counts")
    args = ap.parse_args()
    if not (ROOT / "src" / "twoway_cvqkd" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            proc = subprocess.run([sys.executable, str(HERE / "selftest.py")],
                                  env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
            return proc.returncode
        if args.all:
            return report_all(args.seeds, args.seconds)
        if args.workload is None:
            ap.error("--workload, --all or --selftest is required")
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
