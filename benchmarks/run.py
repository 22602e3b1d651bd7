"""dyadlab benchmark: four seeded workloads driven in-process.

    python3 benchmarks/run.py --workload approx_cap --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the benchmark imports dyadlab from
its ``src/`` directory and nothing else.  One client runs a closed loop:
each operation starts when the previous one has returned and been checked.
Operations run in whole rounds (fixed proportions, order shuffled from the
seed); after the first round another starts only if it fits in --seconds.

With --trace 0 the last line of stdout reports the end-to-end metrics:
throughput and latency of the operations, peak RSS of this process, and
the set-up time of a fresh interpreter importing ``dyadlab.cli``.  With
--trace 1 the benchmark runs one round untraced and one round with timing
wrappers around every public dyadlab function (see tracing.py), and
reports per-layer metrics instead; spans go to .bench_work/.

Only this process and the interpreters it starts for set-up are touched:
no cache dropping, no system-wide tracing.  Peak RSS cannot be reset
between phases without writing under /proc, so it is the high-water mark
of the whole run (VmHWM), including the benchmark's own inputs.  The
detail line reports those as own_rss_mb: the growth of resident memory
while the workload built its inputs, plus the largest growth while one
operation's fresh inputs were prepared.  Memory figures come from
/proc/self/status, so the benchmark runs on Linux only.

The benchmark's own tests: python3 -m pytest benchmarks/tests
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 15
MIN_OPS = 100


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank q-quantile, refused unless ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < 10:
        raise ValueError(f"{len(ordered)} samples leave fewer than ten beyond the {q} quantile")
    return ordered[rank - 1]


def rss_mb(field: str) -> float:
    """VmRSS (resident now) or VmHWM (high-water mark) of this process, in MiB.

    Linux carries ru_maxrss across exec, so getrusage reports the spawning
    parent's peak when that was larger; VmHWM belongs to this process's own
    memory map.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no {field} in /proc/self/status")


def setup_seconds() -> float:
    """Median wall time of fresh interpreters that import dyadlab.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import dyadlab.cli"]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        if i:  # the first one also writes the bytecode cache
            times.append(time.perf_counter() - start)
    return statistics.median(times)


class Tally:
    """Latencies and failures of the operations one phase ran."""

    def __init__(self):
        self.latencies: list[tuple[float, str]] = []
        self.failed = 0
        self.first_failure = None
        self.input_rss_mb = 0.0  # largest resident growth while preparing inputs

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run(self, ops, tracer=None) -> float:
        """Run ops in order, checking each after its timer stops; return busy time."""
        return sum(self._run_one(op, tracer) for op in ops)

    def _run_one(self, op, tracer) -> float:
        """One operation; its inputs and result are freed when this returns."""
        gc.collect()
        before = rss_mb("VmRSS")
        inputs = op.prepare()
        self.input_rss_mb = max(self.input_rss_mb, rss_mb("VmRSS") - before)
        if tracer:
            tracer.begin_op(self.attempted, op.label)
        start = time.perf_counter()
        try:
            result, error = op.run(inputs), None
        except Exception as exc:  # an operation that raises has failed
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_op()
        if error is None:
            try:
                op.check(result, inputs)
            except Exception as exc:  # CheckError, or a check that cannot parse
                error = exc
        if error is not None:
            self.failed += 1
            self.first_failure = self.first_failure or f"{op.label}: {error!r}"
        self.latencies.append((elapsed, op.size))
        return elapsed

    def summary(self) -> dict:
        times = [t for t, _ in self.latencies]
        ordered = sorted(self.latencies)
        rank90 = math.ceil(0.9 * len(ordered))
        return {
            "ops_per_s": (self.attempted - self.failed) / sum(times),
            "latency_p50_s": statistics.median(times),
            "latency_p90_s": percentile(times, 0.9),
            "samples": len(times),
            "p50_class": ordered[len(ordered) // 2][1],
            "p90_class": ordered[rank90 - 1][1],
        }


def timed_rounds(workload, seconds: float, tally: Tally) -> int:
    """Whole rounds until the next would overrun `seconds`; at least MIN_OPS ops."""
    rounds, elapsed = 0, 0.0
    while True:
        start = time.perf_counter()
        tally.run(workload.round())
        rounds += 1
        last = time.perf_counter() - start
        elapsed += last
        if tally.attempted >= MIN_OPS and elapsed + last > seconds:
            return rounds


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from workloads import WORKLOADS

    setup = None if trace else setup_seconds()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        base_rss = rss_mb("VmRSS")
        workload = WORKLOADS[name](seed, work)
        built_rss = rss_mb("VmRSS") - base_rss
        tally = Tally()
        tally.run(workload.warmup)
        warm_failed = tally.failed
        detail = {"workload": name, "seed": seed}
        if not trace:
            measured = Tally()
            detail["rounds"] = timed_rounds(workload, seconds, measured)
            summary = measured.summary()
            metrics = {
                "ops_per_s": (summary["ops_per_s"], "1/s"),
                "latency_p50_s": (summary["latency_p50_s"], "s"),
                "latency_p90_s": (summary["latency_p90_s"], "s"),
                "peak_rss_mb": (rss_mb("VmHWM"), "MB"),
                "setup_s": (setup, "s"),
            }
            phases = [tally, measured]
        else:
            import tracing

            plain = Tally()
            plain.run(workload.round())
            tracer = tracing.Tracer()
            traced = Tally()
            tracer.install()
            try:
                busy = traced.run(workload.round(), tracer)
            finally:
                tracer.uninstall()
            summary = plain.summary()
            traced_rate = traced.summary()["ops_per_s"]
            values = tracer.metrics()
            values["bench.trace_overhead"] = summary["ops_per_s"] / traced_rate
            phases = [tally, plain, traced]
            values["bench.own_rss_mb"] = built_rss + max(p.input_rss_mb for p in phases)
            per_layer = json.loads(SPEC.read_text())["per_layer"]
            metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in per_layer}
            detail["traced_busy_s"] = busy
            detail["layer_self_s"] = tracer.layer_self_s()
            tracer.write_spans(WORK / f"spans-{name}-{seed}.jsonl")
        detail.update({k: summary[k] for k in ("samples", "p50_class", "p90_class")})
        detail["own_rss_mb"] = built_rss + max(p.input_rss_mb for p in phases)
        attempted = sum(p.attempted for p in phases)
        failed = sum(p.failed for p in phases)
        detail["error_rate"] = failed / attempted
        detail["warmup_failed"] = warm_failed
        detail["first_failure"] = next((p.first_failure for p in phases if p.first_failure), None)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dyadlab" / "cli.py").is_file():
        print(f"error: no dyadlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dyadlab.cli

    if Path(dyadlab.__file__).resolve().parent != SRC / "dyadlab":
        print(f"error: dyadlab imported from {dyadlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
