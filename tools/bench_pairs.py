"""Alternating parent/head benchmark pairs, recorded in ``BENCH_<pr>.json``.

    python3 tools/bench_pairs.py --parent ../parent --pr N \\
        --workload convolve-cauchy --seeds 401 402 403 404 405

``--parent`` is a second checkout of the parent commit (a ``git clone`` or
``git worktree``); the head is this checkout.  For each workload, pair i
runs ``benchmark/run.py --trace 0`` once on each side at seed ``seeds[i]``
(a seed may be listed more than once), the parent first in even pairs and
the head first in odd ones.  Each run's record is read out of
``.bench_results/`` as soon as the run ends (two sides that share a
checkout write the same file), with the run's CPU time from
``resource.getrusage(RUSAGE_CHILDREN)``.  Then each side traces the same
fixed item list once, ``benchmark/worker.py --trace`` over one item cycle
of seed ``seeds[0]``, and every per-layer count is divided by that item
count.

Which numbers are exact: for a fixed item list the per-item work counts
(calls, panels, nodes, inverses) are deterministic, so the two sides'
counts differ only where the code does different work.  Wall-clock metrics
and CPU seconds are noisy: on a shared machine the same items can take half
as long again from one run to the next.

The JSON holds each side's commit (with a dirty flag) and environment
fingerprint, every pair, each side's median and quartiles per metric, how
many pairs the head is ahead in, and the per-item layer counts.  The
median changes are printed next to ``BENCHMARK.json``'s bounds for
information only: this script decides nothing, and ``benchmark/run.py``
stays the gate.  It exits 0 once every run has completed.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _commit(side: str) -> dict:
    def git(*args):
        done = subprocess.run(["git", "-C", side, *args], capture_output=True,
                              text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run_once(side: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` on ``side``; its record, read at once."""
    cpu = _children_cpu_s()
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=side, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"run.py on {side} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    path = os.path.join(side, ".bench_results", f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return {"seed": seed, "correct": record["correct"],
            "attempted": record["attempted"], "failed": record["failed"],
            "failures": record["failures"], "tail": record["tail"],
            "cpu_s": _children_cpu_s() - cpu, "wall_s": wall,
            "metrics": {k: v["value"] for k, v in record["metrics"].items()},
            "environment": record["environment"]}


def trace_once(side: str, workload: str, seed: int, items: int,
               count_metrics) -> dict:
    """One traced worker over the first ``items`` items; counts per item."""
    done = subprocess.run(
        [sys.executable, os.path.join("benchmark", "worker.py"), "--workload",
         workload, "--seed", str(seed), "--count", str(items), "--trace"],
        cwd=side, capture_output=True, text=True, env=bench_run.child_env())
    if done.returncode != 0:
        raise RuntimeError(f"worker.py on {side} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    layers = result["layers"]
    return {"items": items, "seed": seed, "failures": result["failures"],
            "missing_layers": result["missing_layers"], "layers": layers,
            "per_item": {name: layers[name] / items
                         for name in count_metrics if name in layers}}


def summarize(values) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs, spec) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the head's
    median change and how many pairs it is ahead in."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        ahead = sum((h < p) if lower else (h > p) for p, h in zip(parent, head))
        mp, mh = statistics.median(parent), statistics.median(head)
        change = mh / mp - 1.0 if mp else 0.0
        worse = change if lower else -change
        out[name] = {"parent": summarize(parent), "head": summarize(head),
                     "median_change": change, "bound": metric["bound"],
                     "within_bound": worse <= metric["bound"],
                     "ahead": ahead, "pairs": len(pairs)}
    cpu_parent = [p["parent"]["cpu_s"] for p in pairs]
    cpu_head = [p["head"]["cpu_s"] for p in pairs]
    out["cpu_s"] = {"parent": summarize(cpu_parent), "head": summarize(cpu_head),
                    "ahead": sum(h < p for p, h in zip(cpu_parent, cpu_head)),
                    "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", help="output path (default: BENCH_<pr>.json in this checkout)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    count_metrics = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    sides = {"parent": args.parent, "head": ROOT}

    report = {"pr": args.pr, "seconds": args.seconds,
              "commits": {k: _commit(v) for k, v in sides.items()},
              "workloads": {}}
    environments = {}
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, args.seconds)
                environments.setdefault(side, pair[side].pop("environment"))
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{len(args.seeds)} seed {seed}: items/s "
                  f"parent {pair['parent']['metrics']['items_per_s']:.4g} "
                  f"head {pair['head']['metrics']['items_per_s']:.4g}", flush=True)
        items = workloads.cycle_length(workload)
        traces = {side: trace_once(path, workload, args.seeds[0], items, count_metrics)
                  for side, path in sides.items()}
        report["workloads"][workload] = {"pairs": pairs, "summary": compare(pairs, spec),
                                         "trace": traces}
    report["environment"] = environments

    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for workload, entry in report["workloads"].items():
        for name, row in entry["summary"].items():
            line = (f"{workload:16s} {name:12s} parent {row['parent']['median']:10.4g} "
                    f"head {row['head']['median']:10.4g} ahead {row['ahead']} of "
                    f"{row['pairs']}")
            if "bound" in row:
                line += (f"  change {row['median_change']:+.1%} (bound "
                         f"{row['bound']:.0%}: "
                         f"{'within' if row['within_bound'] else 'beyond'})")
            print(line)
        parent, head = entry["trace"]["parent"]["per_item"], entry["trace"]["head"]["per_item"]
        for name in count_metrics:
            if parent.get(name) != head.get(name):
                print(f"{workload:16s} per item {name}: {parent.get(name):.6g} -> "
                      f"{head.get(name):.6g}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
