"""One fresh process of a benchmark run.

Imports ``ovfree.cli`` from the checkout's ``src``, schema-validates the
workload's first config and prints ``ready``; the parent times the span
from spawning this process to that line.  In ``run`` mode it then runs the
closed loop: one client, each item starting when the previous one returns,
until ``--seconds`` have passed or ``--count`` items are done.  Artifacts are
captured in memory.  After the timed loop it checks every artifact against
its reference, re-runs a few configs to compare bytes, and prints one JSON
summary line.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def _run_item(cli, config):
    """Run one config; returns (latency_s, exit code or error text, artifact)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code = cli.run_config(config)
    except Exception as exc:  # an escaping error fails the item, not the run
        code = f"{type(exc).__name__}: {exc}"
    finally:
        latency = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    if code != 0 and not isinstance(code, str):
        code = f"exit {code}: {err.getvalue().strip()}"
    return latency, code, out.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "machine": config.get("Machine Information", {}),
        "nproc": len(os.sched_getaffinity(0)),
        "OVFREE_THREADS": os.environ.get("OVFREE_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--count", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import ovfree
    from ovfree import cli
    if os.path.dirname(os.path.abspath(ovfree.__file__)) != os.path.join(SRC, "ovfree"):
        sys.stderr.write(f"ovfree was imported from {ovfree.__file__}, not {SRC}\n")
        return 2

    first = workloads.make_item(args.workload, args.seed, 0)
    cli.jsonschema.validate(first, cli.CONFIG_SCHEMA)
    cli.jsonschema.validate(first["params"], cli.PARAM_SCHEMAS[first["command"]])
    print("ready", flush=True)
    if args.probe:
        return 0

    size = workloads.POOL_SIZE[args.workload]
    pool = [first] + [workloads.make_item(args.workload, args.seed, i)
                      for i in range(1, size)]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install("ovfree")

    latencies, codes, shas, texts = [], [], [], {}
    exhausted, silent = 0.0, set()
    start = time.perf_counter()
    deadline = start + (args.seconds or 0.0)
    end = start
    cycle = workloads.cycle_length(args.workload)
    # whole cycles only, so every run holds the workload's mix exactly
    while (len(latencies) < args.count if args.count is not None
           else time.perf_counter() < deadline or len(latencies) % cycle):
        slot = len(latencies) % size
        latency, code, text = _run_item(cli, pool[slot])
        end = time.perf_counter()
        latencies.append(latency)
        codes.append(code)
        shas.append(_sha(text))
        texts.setdefault(slot, text)
        if tracer is not None:
            # an integral that stopped at max_panels accepted its panels
            # without meeting the tolerance; the artifact gives no sign of it
            now = tracer.counters["measures.adaptive_integral.budget_exhausted"]
            if now > exhausted:
                silent.add(len(latencies) - 1)
                exhausted = now
    elapsed = end - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
    reasons = {}
    for slot, text in texts.items():
        if codes[slot] == 0:
            bad = workloads.check(pool[slot], text)
            if bad:
                reasons[slot] = f"reference: {bad}"
    # Re-runs compare bytes with the timed run's; convolve-cauchy re-runs
    # with one worker thread, since the thread count must not move a byte.
    threads = os.environ.get("OVFREE_THREADS")
    if args.workload == "convolve-cauchy":
        os.environ["OVFREE_THREADS"] = "1"
    try:
        for slot in range(min(workloads.RERUNS[args.workload], len(texts))):
            _, code, text = _run_item(cli, pool[slot])
            if code == 0 and _sha(text) != shas[slot]:
                reasons.setdefault(slot, "bytes differ on re-run with "
                                   f"OVFREE_THREADS={os.environ['OVFREE_THREADS']}")
    finally:
        os.environ["OVFREE_THREADS"] = threads
    failures = {}
    for i, code in enumerate(codes):
        slot = i % size
        if code != 0:
            failures[i] = str(code)
        elif i in silent:
            failures[i] = "adaptive_integral reached max_panels"
        elif shas[i] != shas[slot]:
            failures[i] = "bytes differ from the first run of this config"
        elif slot in reasons:
            failures[i] = reasons[slot]

    summary = {"latencies": latencies, "elapsed": elapsed, "shas": shas,
               "failures": failures, "peak_rss_mb": peak_rss_mb,
               "pool_size": size, "environment": environment()}
    if tracer is not None:
        summary["layers"] = tracer.metrics()
        summary["missing_layers"] = tracing.missing_layers(tracer, args.workload)
        summary["spans"] = {name: [tracer.calls[name], tracer.total[name],
                                   tracer.self_time[name]]
                            for name in sorted(tracer.calls)}
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
