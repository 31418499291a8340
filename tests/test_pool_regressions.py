"""Benchmark pool configs that once failed their reference check.

Each config comes from ``benchmark/workloads.py`` and runs through
``cli.run_config`` exactly as the benchmark runs it; ``workloads.check``
compares the artifact with its independent numpy reference.
"""

import contextlib
import io
import os
import sys

import pytest

from ovfree import cli

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmark")
sys.path.insert(0, BENCHMARK)

import workloads  # noqa: E402


@pytest.mark.parametrize("workload, seed, index", [
    # neumann, equal mode, diagonal entries close together: partial fractions
    # of the one-variable words missed the tail bound (3.6e-8 against 3.3e-8)
    ("moments-short", 7, 466),
])
def test_pool_config_matches_its_reference(workload, seed, index):
    config = workloads.make_item(workload, seed, index)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_config(config)
    assert code == 0, err.getvalue()
    assert workloads.check(config, out.getvalue()) is None
