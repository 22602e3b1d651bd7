"""Measure the benchmark's own steadiness and write benchmarks/RECORD.json.

    python3 benchmarks/record.py

For every workload: two sets of ten untraced runs, on seeds 1..10 and
11..20, the second set starting after the first has covered every
workload (per set, the quartile spread of each end-to-end metric as a
share of its median, which must stay within the metric's bound, and the
second median against the first); one untraced run on a held-out seed
that was never used while the benchmark was tuned (its metrics must agree
with the first set's medians within the bounds); and one traced run on
seed 1 (each layer's share of operation time and the tracing overhead).
Every run checks its outputs; error_rate is the largest failed/attempted
of any of them.  The
record also holds the environment, the limits of the measurement, and the
predictions of which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 20261017
SEEDS = 10

LIMITS = [
    "The benchmark acts only on its own process and the interpreters it starts to time set-up.",
    "It drops no caches and does no system-wide tracing; per-layer times come from wrappers "
    "installed by the benchmark's own code around dyadlab's public functions.",
    "Peak RSS is VmHWM from /proc/self/status, the high-water mark of the whole run; "
    "resetting it between phases would need a write under /proc, so it includes the "
    "benchmark's own inputs. own_rss_mb estimates those: the growth of VmRSS while the "
    "workload built its inputs plus the largest growth while one operation's fresh inputs "
    "were prepared. getrusage's ru_maxrss is not used because Linux carries it across exec, "
    "so a process spawned by a larger parent reports the parent's peak.",
    "Dense matrices and transform input files are fresh for every operation, and every "
    "verify call has its own --seed. approx, compare, gamma and sequency take only sizes, "
    "so the same argument list repeats within a run: a cache kept across calls inside one "
    "process would show a gain there that a user running one command per process does not see.",
    "The machine is a shared 2-core box: other tenants' load shows up as run-to-run spread.",
    "setup_s is the median wall time of 15 fresh interpreters importing dyadlab.cli, taken "
    "at the start of a run; it follows the shared machine's load over minutes, so it spreads "
    "more from run to run than the other time metrics, and the minimum is no steadier.",
    "bytes_computed counters are sizes of the arrays a call returns, computed, not measured "
    "memory traffic.",
]

# layer metric -> (end-to-end metrics it should move, workloads where it should)
PREDICTIONS = [
    ("best_approx.project.calls, best_approx.project.self_s",
     "ops_per_s, latency_p50_s, latency_p90_s", "approx_cap, project_dense; zero calls on tables_io"),
    ("best_approx.error.calls, best_approx.error.self_s, best_approx.symbol_to_operator.self_s",
     "ops_per_s, latency_p50_s, latency_p90_s", "approx_cap, project_dense"),
    ("best_approx.closed_form.self_s, best_approx.gamma_rule.calls",
     "a small share of ops_per_s", "approx_cap; they build the rows on tables_io"),
    ("walsh.walsh_matrix.calls, walsh.walsh_matrix.self_s, walsh.walsh_matrix.bytes_computed",
     "peak_rss_mb, ops_per_s", "approx_cap, project_dense"),
    ("walsh.sequency_counts.calls, walsh.sequency_counts.self_s, walsh.sequency_counts.pairs",
     "ops_per_s, latency_p90_s", "tables_io; zero calls elsewhere"),
    ("walsh.fwht.calls, walsh.fwht.self_s, walsh.fwht.elements, walsh.fwht.bytes_computed",
     "a small share of ops_per_s", "tables_io, verify_suite"),
    ("walsh.naive.calls, walsh.naive.self_s, walsh.walsh_eval.calls",
     "latency_p50_s, latency_p90_s", "verify_suite"),
    ("dyadic.calls, dyadic.self_s, dyadic.bit_reversal_permutation.hit_ratio",
     "latency_p50_s, latency_p90_s", "verify_suite (naive oracles), tables_io (gray per row)"),
    ("operators.build.calls, operators.build.self_s, operators.build.bytes_computed",
     "peak_rss_mb", "approx_cap"),
    ("operators.walsh_conjugate.self_s, operators.hs.self_s, operators.hs_norm_monte_carlo.self_s",
     "ops_per_s, latencies", "project_dense, verify_suite"),
    ("verify.run.self_s, verify.checks, verify.checks_failed",
     "latency_p50_s, latency_p90_s", "verify_suite"),
    ("cli.main.calls, cli.self_s, cli.bytes_in, cli.bytes_out, cli.exit_nonzero",
     "ops_per_s, latencies", "most of tables_io, under 5 % of approx_cap, none of project_dense"),
]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """One benchmark process: its result, its detail line and its wall time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    wall = time.perf_counter() - start
    lines = out.splitlines()
    detail = json.loads(lines[-2].removeprefix("# detail "))
    return json.loads(lines[-1]), detail, wall


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "git_sha_of_parent": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "l3_cache": l3.read_text().strip() if l3.exists() else None,
        "machine": platform.machine(),
    }


def summarize(runs: list, metrics) -> dict:
    values = {m: [r["metrics"][m]["value"] for r, _, _ in runs] for m in metrics}
    return {
        "seeds": [d["seed"] for _, d, _ in runs],
        "values_by_seed": values,
        "median": {m: statistics.median(v) for m, v in values.items()},
        "quartile_spread": {m: spread(v) for m, v in values.items()},
        "median_run_wall_s": statistics.median(w for _, _, w in runs),
    }


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    seconds = spec["run_seconds"]

    record = {"environment": environment(), "limits": LIMITS, "held_out_seed": HELD_OUT_SEED,
              "predictions": [dict(zip(("layer_metrics", "moves", "on"), p)) for p in PREDICTIONS],
              "workloads": {}}
    # two sets, the second started after the first has run every workload
    seed_sets = [range(1, SEEDS + 1), range(SEEDS + 1, 2 * SEEDS + 1)]
    sets = [{name: [run(name, seed, seconds, 0) for seed in seeds] for name in WORKLOADS}
            for seeds in seed_sets]
    for name in WORKLOADS:
        first, second = (summarize(s[name], bounds) for s in sets)
        details = [d for s in sets for _, d, _ in s[name]]
        held, held_detail, _ = run(name, HELD_OUT_SEED, seconds, 0)
        traced, traced_detail, traced_wall = run(name, 1, seconds, 1)
        layer_s = traced_detail["layer_self_s"]
        op_s = traced["metrics"]["bench.op_s"]["value"]
        own = statistics.median(d["own_rss_mb"] for d in details)

        def against(value, m):
            change = value / first["median"][m] - 1.0
            return {"value": value, "vs_first_median": change, "within_bound": abs(change) <= bounds[m]}

        record["workloads"][name] = {
            "why": whys[name],
            "round": dict(sorted(_round_composition(name).items())),
            "samples_per_percentile": sorted({d["samples"] for d in details}),
            "p50_class": sorted({d["p50_class"] for d in details}),
            "p90_class": sorted({d["p90_class"] for d in details}),
            "own_rss_mb": own,
            "own_share_of_peak_rss": own / first["median"]["peak_rss_mb"],
            "error_rate": max(d["error_rate"] for d in details + [held_detail, traced_detail]),
            "sets": [first, second],
            "second_set_median": {m: against(second["median"][m], m) for m in bounds},
            "held_out": {m: against(held["metrics"][m]["value"], m) for m in bounds},
            "traced": {
                "share_of_op_time": {k: v / op_s for k, v in layer_s.items()},
                "self_s_sum_over_op_s": sum(layer_s.values()) / op_s,
                "trace_overhead": traced["metrics"]["bench.trace_overhead"]["value"],
                "run_wall_s": traced_wall,
            },
        }
        print(name, json.dumps([first["quartile_spread"], second["quartile_spread"]]), flush=True)
    (HERE / "RECORD.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


def _round_composition(name: str) -> dict[str, int]:
    import tempfile
    from collections import Counter

    from workloads import WORKLOADS

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=ROOT) as work:
        return dict(Counter(op.label for op in WORKLOADS[name](1, Path(work)).ops))


if __name__ == "__main__":
    sys.exit(main())
