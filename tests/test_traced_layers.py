"""The benchmark's per-layer tracer still sees every layer it requires.

``benchmark/tracing.py`` fails a traced run when a layer it lists in
``REQUIRED_CALLS`` records no calls.  This runs the same check on one
moments-short cycle, two convolve-cauchy items (dim 2, and dim 4 with its
16-direction Jacobians) and two certify-ov items (a DiracB certify and an
OV-semicircular convolve with Monte Carlo), so a
refactor that moves work out of a traced layer fails here and not only in a
traced benchmark run.
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

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.mark.parametrize("workload, indices", [
    ("moments-short", range(workloads.cycle_length("moments-short"))),
    ("convolve-cauchy", [1]),
    ("convolve-cauchy", [5]),
    ("certify-ov", [0, 5]),
], ids=["moments-short", "convolve-cauchy", "convolve-cauchy-dim4", "certify-ov"])
def test_traced_run_calls_every_required_layer(workload, indices):
    tracer = tracing.Tracer()
    tracer.install("ovfree")
    try:
        for i in indices:
            config = workloads.make_item(workload, SEED, i)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run_config(config)
            assert code == 0, (i, err.getvalue())
    finally:
        tracer.uninstall()
    assert tracing.missing_layers(tracer, workload) == []
