"""``tools/bench_pairs.py`` on a tiny run: both sides are this checkout."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_two_pairs_of_one_checkout(tmp_path):
    out = tmp_path / "BENCH_test.json"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"),
         "--parent", ROOT, "--pr", "test",
         "--workload", "moments-short", "--seeds", "2", "2",
         "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["commits"]["parent"] == report["commits"]["head"]
    entry = report["workloads"]["moments-short"]
    pairs = entry["pairs"]
    assert [p["first"] for p in pairs] == ["parent", "head"]
    for pair in pairs:
        for side in ("parent", "head"):
            run = pair[side]
            assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
            assert run["cpu_s"] > 0
    assert entry["summary"]["items_per_s"]["pairs"] == 2
    parent, head = entry["trace"]["parent"], entry["trace"]["head"]
    assert parent["items"] == head["items"] == 34
    assert parent["per_item"]["cli.run_config.calls"] == 1.0
    assert parent["per_item"] == head["per_item"]
    assert set(report["environment"]) == {"parent", "head"}
