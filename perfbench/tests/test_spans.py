"""The tracer's self times, patching and Chrome trace output, and the
runner's refusal to report outside a checkout."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

from spans import Tracer

PERFBENCH = Path(__file__).resolve().parent.parent


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    with tracer.span("parent", op="pull-1"):
        time.sleep(0.01)
        with tracer.span("child"):
            time.sleep(0.02)
    totals = tracer.totals()
    parent, child = totals["parent"], totals["child"]
    assert abs(parent["self_s"] - (parent["total_s"] - child["total_s"])) < 1e-9
    assert child["self_s"] == child["total_s"]
    assert tracer.top_level_seconds() == parent["total_s"]


def test_patch_records_and_restore_undoes():
    module = types.SimpleNamespace(work=lambda n: list(range(n)))
    original = module.work
    tracer = Tracer()
    with tracer:
        tracer.patch(module, "work", "mod.work", count_of=lambda result, n: len(result))
        module.work(3)
        module.work(4)
    assert module.work is original
    assert tracer.totals()["mod.work"]["calls"] == 2
    assert tracer.counts["mod.work"] == 7


def test_chrome_trace_events_carry_parent_and_operation():
    tracer = Tracer()
    with tracer.span("pull", op="pull-7"):
        with tracer.span("blob_get"):
            pass
    doc = tracer.chrome_trace()
    json.dumps(doc)  # serializable as is
    events = {e["name"]: e for e in doc["traceEvents"]}
    for event in events.values():
        assert event["ph"] == "X"
        assert {"ts", "dur", "pid", "tid"} <= set(event)
        assert event["args"]["op"] == "pull-7"
    assert events["blob_get"]["args"]["parent_id"] == events["pull"]["args"]["span_id"]
    assert events["pull"]["args"]["parent_id"] is None


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pull_analyze",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
