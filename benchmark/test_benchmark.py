"""Self-tests of the benchmark's own arithmetic and inputs.

    python3 -m pytest benchmark
"""

import json
import os
import sys

import pytest

import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("n, index, percentile, beyond", [
    (1000, 989, 99.0, 10),
    (100, 89, 90.0, 10),
    (20, 9, 50.0, 10),
    (11, 0, 100.0 / 11, 10),
    (5, 4, 100.0, 0),
])
def test_tail_is_highest_order_statistic_with_ten_beyond(n, index, percentile, beyond):
    samples = [float(i) for i in reversed(range(n))]
    value, pct, past = run.tail(samples)
    assert run.tail_index(n) == index
    assert value == float(index)
    assert pct == pytest.approx(percentile)
    assert past == beyond


def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(3.0, 4.0), (0.0, 1.0), (0.5, 2.0)]) == 3.0
    assert tracing.union_length([(0.0, 5.0), (1.0, 2.0)]) == 5.0


def test_self_time_subtracts_the_union_of_child_intervals():
    t = tracing.Tracer()
    parent = tracing._Frame("outer")
    # two children on different threads overlap between 1.5 and 2.0
    t.close("inner", parent, [], 1.0, 2.0)
    t.close("inner", parent, [], 1.5, 3.0)
    t.close("outer", None, parent.children, 0.0, 4.0)
    assert t.total["outer"] == 4.0
    assert t.self_time["outer"] == 2.0
    assert t.total["inner"] == 2.5
    assert t.self_time["inner"] == 2.5
    assert t.edges[("outer", "inner")] == 2


def test_nested_spans_on_one_thread():
    t = tracing.Tracer()
    inner = t.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    t.wrap("outer", body)()
    assert t.calls == {"inner": 2, "outer": 1}
    assert t.self_time["outer"] == pytest.approx(
        t.total["outer"] - t.total["inner"], abs=1e-12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload):
    def stream(seed):
        return [json.dumps(workloads.make_item(workload, seed, i), sort_keys=True)
                for i in range(2 * len(workloads._CYCLES[workload]))]

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == [(n, u, b) for n, u, b, _ in tracing.LAYER_METRICS] + [
        ("fail_ratio", "ratio", "lower"), ("trace.overhead_ratio", "ratio", "lower")]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "items_per_s", "item_p50_s", "item_tail_s", "peak_rss_mb"}


def test_references_reject_a_wrong_artifact():
    word = {"word": [[[0.1, 1.0], 1], [[0.0, 3.0], 2]],
            "laws": [{"variant": "cauchy", "location": 0.0, "scale": 1.0}] * 2,
            "mode": "free"}
    ref = workloads._word_product([0.1 + 1j, 3j], word["laws"])
    good = json.dumps({"result": {"value": [ref.real, ref.imag]}})
    bad = json.dumps({"result": {"value": [ref.real * (1 + 1e-6), ref.imag]}})
    config = {"command": "moments", "params": word}
    assert workloads.check(config, good) is None
    assert workloads.check(config, bad) is not None

    killer = {"command": "killer", "params": {"targets": [[0.0, 1.0]]}}
    stage = {"stages": [{"shift": 0.0, "radius": 1.0}], "halfplane_check": True}
    assert workloads.check(killer, json.dumps({"result": stage})) is None
    stage["stages"][0]["radius"] = 1.01
    assert workloads.check(killer, json.dumps({"result": stage})) is not None


def test_tracer_reaches_every_binding_site_and_restores_them():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ovfree import cli, convolution, linalg, transforms

    originals = (convolution.invert_G, transforms.adaptive_integral,
                 linalg.inverse, cli.jsonschema)
    t = tracing.Tracer()
    t.install("ovfree")
    try:
        for site in tracing.REBOUND:
            module, name = site.split(".")
            assert hasattr(getattr(sys.modules[f"ovfree.{module}"], name), "__wrapped__")
        config = workloads.make_item("certify-ov", 3, 0)
        saved = sys.stdout
        sys.stdout = open(os.devnull, "w")
        try:
            assert cli.run_config(config) == 0
        finally:
            sys.stdout.close()
            sys.stdout = saved
        assert t.calls["cli.run_config"] == 1
        assert t.calls["transforms.bloch_certify"] == 1
        assert t.calls["cli.validate"] == 2
        assert t.metrics()["transforms.eval_dG_per_jacobian"] == 4.0
    finally:
        t.uninstall()
    assert (convolution.invert_G, transforms.adaptive_integral,
            linalg.inverse, cli.jsonschema) == originals
