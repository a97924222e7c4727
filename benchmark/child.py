"""One benchmark process: import the package, warm up, run one workload.

Started by run.py with PYTHONPATH pointing at the checkout's `src`:

    python3 benchmark/child.py <workload> --seed N --seconds S
        [--setup-only] [--trace] --spawned-at <time.monotonic() of the parent>

Prints one JSON object on stdout. With --setup-only it reports only the
set-up time (process start to package imported and one warm-up op done).
Otherwise it runs passes of the workload until the next pass would end
after S seconds (always at least one), and checks the outputs of each
pass after it, outside the timed region. With --trace the package's public
functions are wrapped by tracer.py; recording is paused during the checks,
so the per-layer totals cover the passes only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _proc_status(field: str) -> int:
    """An integer field of /proc/self/status (VmRSS is in kB)."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} not found in /proc/self/status")


def environment() -> dict:
    import numpy
    import scipy
    import twoway_cvqkd.thresholds as thr
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "default_threads": thr.default_threads(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "threads_after_import": _proc_status("Threads"),
    }


# (module, function, kind): "span" times every call, "count" only counts.
TRACED = [
    ("cli", "main", "span"),
    ("thresholds", "solve_threshold", "span"),
    ("thresholds", "sweep_curve", "span"),
    ("thresholds", "crossover", "span"),
    ("key_rates", "asymptotic_rate", "span"),
    ("key_rates", "het2_rr_finite_eigenvalues", "span"),
    ("key_rates", "two_way_joint", "span"),
    ("key_rates", "one_way_joint", "span"),
    ("key_rates", "exact_rate", "span"),
    ("key_rates", "shannon_terms", "span"),
    ("gaussian", "conditional_cov", "span"),
    ("gaussian", "symplectic_eigenvalues", "span"),
    ("gaussian", "g_entropy", "count"),
    ("rng", "normal_matrix", "span"),
    ("rng", "generator", "count"),
    ("simulator", "simulate", "span"),
    ("simulator", "empirical_mi", "span"),
    ("tomography", "simulate_probe_dataset", "span"),
    ("tomography", "estimate_channel", "span"),
    ("tomography", "check_reducibility", "count"),
]


def install_tracer():
    import tracer
    rec = tracer.Recorder()
    hooks = {
        "rng.normal_matrix": lambda a, k, r: rec.add("rng.normal_matrix.bytes", r.nbytes),
        "thresholds.sweep_curve": lambda a, k, r: rec.add("thresholds.failed_points",
                                                          len(r.errors)),
    }
    for module, func, kind in TRACED:
        name = f"{module}.{func}"
        if kind == "span":
            wrap = lambda fn, n=name: rec.span_wrapper(n, fn, hooks.get(n))
        else:
            wrap = lambda fn, n=name: rec.count_wrapper(n, fn)
        if tracer.patch(module, func, wrap) == 0:
            raise RuntimeError(f"nothing patched for {name}")
    return rec


# Reference kernels that run no package code. On a shared virtual machine
# each CPU switches between a fast and a ~1.9x slower state within a
# second, and the share of slow time changes over minutes; the time of the
# kernel that matches a workload's instruction mix tracks that, and scales
# the run's times to the speed at which the kernel takes its reference
# time. "interp" is interpreter loops plus small LAPACK calls (threshold
# workloads, exact_rates), "stream" is bulk normals plus a BLAS product
# (monte_carlo). Each single query is scaled by the kernel timed right
# before and right after it, on the same thread; the command list of a
# pass by the run's factor.
_LA_INPUTS = None


def _interp_kernel() -> None:
    import math
    import numpy as np
    global _LA_INPUTS
    if _LA_INPUTS is None:
        _LA_INPUTS = np.random.default_rng(1).standard_normal((30, 14, 14))
    s = 0.0
    for i in range(1, 20000):
        s += math.log(i) * 0.5 + (i % 7) / (i + 1.0)
    for a in _LA_INPUTS:
        np.linalg.eigvals(a)
        np.linalg.pinv(a @ a.T)


def _stream_kernel() -> None:
    import numpy as np
    z = np.random.Generator(np.random.Philox(7)).standard_normal((131072, 8))
    (z.T @ z).sum()


KERNELS = {"interp": (_interp_kernel, 0.0063), "stream": (_stream_kernel, 0.0170)}
KERNEL_EVERY_S = 0.5


class SpeedProbe:
    """Times a workload's reference kernel between ops, at most every
    KERNEL_EVERY_S. The run's speed factor is the kernel's reference time
    over its mean time; one factor for the whole run, as single samples are
    noisy."""

    def __init__(self, kernel_name: str):
        self.kernel, self.ref_s = KERNELS[kernel_name]
        self.times, self.last = [], 0.0
        self.kernel()               # the first call pays one-time costs
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        self.kernel()
        self.last = time.perf_counter()
        self.times.append(self.last - start)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= KERNEL_EVERY_S:
            self.sample()

    def once(self) -> float:
        """One kernel time, for the query next to it; not in the factor."""
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def factor(self) -> float:
        return self.ref_s / statistics.fmean(self.times)


def _digest(value) -> str:
    if hasattr(value, "rc"):
        value = (value.rc, value.out, value.err)
    return hashlib.sha256(repr(value).encode()).hexdigest()


def run_op(op):
    start = time.perf_counter()
    try:
        value = op.call()
    except Exception as exc:   # the op failed; record it and keep measuring
        value = exc
    elapsed = time.perf_counter() - start
    if op.keep is not None and not isinstance(value, Exception):
        value = op.keep(value)
    return value, elapsed


def check_pass(done: list, tally: dict) -> None:
    """Check every op of one pass; failures are tallied by op kind."""
    for op, value in done:
        tally["attempted"] += 1
        if isinstance(value, Exception):
            problems = [("failed", f"{type(value).__name__}: {value}")]
        else:
            problems = op.check(value)
        if problems:
            tally["failed"] += 1
        for kind, msg in problems:
            if kind == "wrong":
                tally["wrong"].append(f"{op.label}: {msg}")
            else:
                key = f"{op.label.split(' T=')[0]}: {msg}"
                tally["failures"][key] = tally["failures"].get(key, 0) + 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import twoway_cvqkd
    src = (HERE.parent / "src").resolve()
    if Path(twoway_cvqkd.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported {twoway_cvqkd.__file__}, expected the package in {src}")
    import numpy as np
    import workloads
    rss_import = _proc_status("VmRSS") / 1024.0
    workload = workloads.WORKLOADS[args.workload]()
    workload.warmup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    probe = SpeedProbe(workload.kernel)
    rec = install_tracer() if args.trace else None
    rng = np.random.default_rng(args.seed)
    job_raw, latencies_raw, latencies, digests = [], [], [], []
    item_raw = []     # per pass: (items, seconds of the ops that make them)
    tally = {"attempted": 0, "failed": 0, "wrong": [], "failures": {}}
    window_start = time.perf_counter()
    last = 0.0
    while not digests or time.perf_counter() - window_start + last <= args.seconds:
        pass_start = time.perf_counter()
        plan = workload.make_pass(rng)
        done = []
        job_raw.append(0.0)
        item_raw.append((0, 0.0))
        for op in plan.job:
            value, elapsed = run_op(op)
            done.append((op, value))
            job_raw[-1] += elapsed
            if op.items:
                item_raw[-1] = (item_raw[-1][0] + op.items, item_raw[-1][1] + elapsed)
            probe.maybe_sample()
        before = probe.once()
        for op in plan.extra:
            value, elapsed = run_op(op)
            after = probe.once()
            done.append((op, value))
            latencies_raw.append(elapsed)
            latencies.append(elapsed * probe.ref_s * 2.0 / (before + after))
            before = after
        digests.append(hashlib.sha256("".join(_digest(v) for _, v in done).encode()).hexdigest())
        if rec is not None:
            rec.active = False
        check_pass(done, tally)
        if rec is not None:
            rec.active = True
        last = time.perf_counter() - pass_start
    window_s = time.perf_counter() - window_start
    probe.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = probe.factor()     # times are also reported at reference speed
    if workload.job_median:
        job_s = statistics.median(job_raw) * speed
        samples_per_s = statistics.median(n / t for n, t in item_raw) / speed
    else:
        # Means over the passes, like the kernel's mean that scales them:
        # a short pass runs in either the fast or the slow state, and the
        # median of such passes jumps between the two.
        job_s = statistics.fmean(job_raw) * speed
        samples_per_s = (sum(n for n, _ in item_raw)
                         / (sum(t for _, t in item_raw) * speed))

    result = {
        "setup_s": setup_s,
        "window_s": window_s,
        "passes": len(digests),
        "job_s": job_s,
        "job_raw_s": job_raw,
        "samples_per_s": samples_per_s,
        "latencies_s": latencies,
        "latencies_raw_s": latencies_raw,
        "speed": speed,
        "kernel_samples": len(probe.times),
        "peak_rss_mb": peak_rss_mb,
        "rss_import_mb": rss_import,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "wrong": tally["wrong"][:20],
        "wrong_count": len(tally["wrong"]),
        "failures": tally["failures"],
        "digests": digests,
        "scaled_dev_max": getattr(workload, "scaled_dev_max", 0.0),
        "env": environment(),
    }
    if rec is not None:
        import tracer
        result["layers"] = tracer.layer_totals(rec.spans)
        result["counts"] = rec.counts
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
