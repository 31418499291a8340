"""Digest of every benchmark pool config's output, for byte-identity checks.

Runs each ``workloads.make_item(W, seed, i)`` with ``i < POOL_SIZE[W]``,
for every workload (or only the workloads named on the command line) and
seeds 1 and 5, through ``ovfree.cli.run_config``,
importing both from this checkout (``benchmark/`` and ``src/``), and
prints one line per config,

    <workload> <seed>:<i> <sha256 of exit code, stdout and stderr>

followed by ``total <sha256 of all those lines>``.  Two checkouts produce
the same artifacts when their outputs are identical.  Run it with the same
environment on both sides, e.g.

    OVFREE_THREADS=$(nproc) OPENBLAS_NUM_THREADS=1 \\
        python3 tools/pool_digest.py > digest.txt

or, to check only some workloads, name them:

    OVFREE_THREADS=$(nproc) OPENBLAS_NUM_THREADS=1 \\
        python3 tools/pool_digest.py convolve-cauchy certify-ov > digest.txt

``--dump FILE`` also writes every config's command, exit code, stdout and
stderr as JSON, keyed like the digest lines (``<workload> <seed>:<i>``), so
that ``tools/pool_compare.py`` can say how far two checkouts' artifacts are
apart, not only whether they differ.
"""

import argparse
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))

import workloads  # noqa: E402
from ovfree import cli  # noqa: E402

SEEDS = (1, 5)


def run(config: dict) -> tuple:
    """Exit code, stdout and stderr of one run_config call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.run_config(config)
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str) -> str:
    """sha256 over the exit code, stdout and stderr of one run."""
    blob = f"{code}\0{out}\0{err}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def main(names, dump=None) -> int:
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        print(f"unknown workload(s) {', '.join(unknown)}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    total = hashlib.sha256()
    outputs = {}
    for workload in [w for w in workloads.WORKLOADS if not names or w in names]:
        for seed in SEEDS:
            for i in range(workloads.POOL_SIZE[workload]):
                config = workloads.make_item(workload, seed, i)
                code, out, err = run(config)
                key = f"{workload} {seed}:{i}"
                outputs[key] = {"command": config["command"], "code": code,
                                "stdout": out, "stderr": err}
                line = f"{key} {digest(code, out, err)}"
                print(line, flush=True)
                total.update((line + "\n").encode("utf-8"))
    print(f"total {total.hexdigest()}")
    if dump is not None:
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump(outputs, fh, indent=1)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", help="workloads to run (default: all)")
    parser.add_argument("--dump", metavar="FILE",
                        help="also write every config's exit code and output as JSON")
    args = parser.parse_args()
    sys.exit(main(args.workloads, args.dump))
