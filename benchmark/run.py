"""The ovfree benchmark: ``ovfree.cli.run_config`` over seeded workloads.

    python3 benchmark/run.py --workload convolve-cauchy --seed 1 --seconds 25 --trace 0

Each run drives one fresh worker process as a closed loop with one client
(see ``worker.py``).  With ``--trace 0`` it reports the end-to-end metrics:
set-up time, throughput, median and tail item latency, failure ratio and peak
memory.  Set-up time is the median over several fresh interpreters, each
timed from spawn until ``ovfree.cli`` is imported and the workload's first
config is schema-validated.  With ``--trace 1`` it runs the loop untraced for
half the time, then runs the same items in a second fresh process with a
span around every public function of the traced modules (``tracing.py``),
and reports the per-layer metrics and the tracing overhead.

The worker runs with ``OVFREE_THREADS`` set to the number of usable CPUs and
the BLAS thread count at 1.  Every run writes its full record, environment
fingerprint included, to ``.bench_results/`` and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_SAMPLES = 4   # fresh interpreters timed besides the run's own worker
TIME_LIMIT_S = 170.0
BLAS_THREADS = "1"


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest order statistic that still
    has at least ten samples beyond it (the largest sample when n <= 10)."""
    return max(n - 11, 0) if n > 10 else n - 1


def tail(samples):
    """(value, percentile, samples beyond it) for the tail latency."""
    ordered = sorted(samples)
    k = tail_index(len(ordered))
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def child_env() -> dict:
    env = dict(os.environ)
    env["OVFREE_THREADS"] = str(len(os.sched_getaffinity(0)))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


class Worker:
    """A worker process; ``setup_s`` is spawn-to-ready wall time."""

    def __init__(self, args, deadline):
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")] + args,
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
        try:
            line = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - start
            if line.strip() != "ready":
                raise RuntimeError(f"worker did not start: {line.strip()!r}")
        except BaseException:
            self.stop()
            raise

    def result(self):
        try:
            out, _ = self.proc.communicate(
                timeout=max(1.0, self.deadline - time.perf_counter()))
        finally:
            self.stop()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1]) if out.strip() else None

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _common(args):
    return ["--workload", args.workload, "--seed", str(args.seed)]


def measure_setup(args, deadline) -> list:
    """Spawn-to-ready times of fresh interpreters; a first, untimed one
    leaves the byte-code caches written as an installed package has them."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        worker = Worker(_common(args) + ["--probe"], deadline)
        worker.result()
        if i:
            times.append(worker.setup_s)
    return times


def end_to_end(args, deadline):
    setup = measure_setup(args, deadline)
    worker = Worker(_common(args) + ["--seconds", str(args.seconds)], deadline)
    setup.append(worker.setup_s)
    run = worker.result()
    latencies = run["latencies"]
    tail_value, percentile, beyond = tail(latencies)
    attempted, failed = len(latencies), len(run["failures"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (attempted / run["elapsed"], "1/s"),
        "item_p50_s": (statistics.median(latencies), "s"),
        "item_tail_s": (tail_value, "s"),
        "fail_ratio": (failed / attempted, "ratio"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    record = {"setup_samples_s": setup, "latencies_s": latencies,
              "tail": {"percentile": percentile, "samples": attempted,
                       "beyond": beyond},
              "elapsed_s": run["elapsed"], "failures": run["failures"],
              "artifact_sha256": run["shas"], "environment": run["environment"]}
    return metrics, attempted, failed, failed == 0, record


def traced(args, deadline):
    base = Worker(_common(args) + ["--seconds", str(args.seconds / 2.0)],
                  deadline).result()
    count = len(base["latencies"])
    run = Worker(_common(args) + ["--count", str(count), "--trace"],
                 deadline).result()
    failures = dict(base["failures"])
    failures.update(run["failures"])
    for i, (a, b) in enumerate(zip(base["shas"], run["shas"])):
        if a != b:
            failures.setdefault(str(i), "tracing changed the artifact bytes")
    metrics = {name: (run["layers"][name], unit)
               for name, unit, _, _ in tracing.LAYER_METRICS}
    metrics["fail_ratio"] = (len(failures) / count, "ratio")
    metrics["trace.overhead_ratio"] = (run["elapsed"] / base["elapsed"] - 1.0, "ratio")
    record = {"items": count, "untraced_elapsed_s": base["elapsed"],
              "traced_elapsed_s": run["elapsed"], "failures": failures,
              "missing_layers": run["missing_layers"], "spans": run["spans"],
              "environment": run["environment"]}
    correct = not failures and not run["missing_layers"]
    return metrics, count, len(failures), correct, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ovfree", "cli.py")):
        sys.stderr.write(f"no ovfree sources under {ROOT}/src\n")
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    measure = traced if args.trace else end_to_end
    metrics, attempted, failed, correct, record = measure(args, deadline)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:48s} {value:14.6g} {unit}")
    if "item_tail_s" in metrics:
        t = record["tail"]
        print(f"{args.workload:16s} item_tail_s is p{t['percentile']:.1f} of "
              f"{t['samples']} items ({t['beyond']} beyond)")
    for i, reason in list(record["failures"].items())[:10]:
        print(f"{args.workload:16s} failed item {i}: {reason}")
    for name in record.get("missing_layers", ()):
        print(f"{args.workload:16s} layer recorded no calls: {name}")

    record.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}})
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                              "unit": m["unit"]}
                                  for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
