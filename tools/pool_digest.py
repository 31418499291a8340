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
"""

import hashlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))

import workloads  # noqa: E402
from ovfree import cli  # noqa: E402

SEEDS = (1, 5)


def config_digest(config: dict) -> str:
    """sha256 over the exit code, stdout and stderr of one run_config call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.run_config(config)
    finally:
        sys.stdout, sys.stderr = saved
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def main(names) -> int:
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        print(f"unknown workload(s) {', '.join(unknown)}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    total = hashlib.sha256()
    for workload in [w for w in workloads.WORKLOADS if not names or w in names]:
        for seed in SEEDS:
            for i in range(workloads.POOL_SIZE[workload]):
                line = (f"{workload} {seed}:{i} "
                        f"{config_digest(workloads.make_item(workload, seed, i))}")
                print(line, flush=True)
                total.update((line + "\n").encode("utf-8"))
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
