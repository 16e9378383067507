"""``perf/run.py --smoke`` prints every declared metric with its unit."""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from perf import layers, run

ROOT = run.ROOT


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["paths"] == ["perf"]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric(trace):
    spec = _spec()
    started = time.perf_counter()
    out = subprocess.run([sys.executable, os.path.join(ROOT, "perf",
                                                       "run.py"),
                          "--smoke", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    elapsed = time.perf_counter() - started
    assert out.returncode == 0, out.stderr
    assert elapsed < 60.0
    lines = out.stdout.strip().splitlines()
    declared = spec["end_to_end"] + (spec["per_layer"] if trace else [])
    for workload in run.WORKLOADS:
        for metric in declared:
            pattern = (rf"^{re.escape(workload)} {re.escape(metric['name'])}"
                       rf" \S+ {re.escape(metric['unit'])} \(n=\d+\)$")
            assert any(re.match(pattern, line) for line in lines), \
                (workload, metric["name"])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {f"{w}.{m['name']}"
                                      for w in run.WORKLOADS
                                      for m in spec[key]}
    smoke = os.path.join(ROOT, "perf", "out", "smoke")
    with open(os.path.join(smoke, "results.json"), encoding="ascii") as f:
        assert json.load(f)["provenance"]["seed"] == 0
    if trace:
        for workload in run.WORKLOADS:
            with open(os.path.join(smoke, f"{workload}.trace.json"),
                      encoding="ascii") as f:
                spans = json.load(f)["spans"]
            assert spans and {"name", "start", "end", "parent",
                              "request"} <= set(spans[0])


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perf"), tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "perf/run.py", "--workload",
                          "serve-hot", "--seed", "1", "--seconds", "1",
                          "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
