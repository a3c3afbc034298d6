"""Tests of the benchmark itself: span arithmetic, the correctness verdict,
the trace export, and the benchmark's contract with its own files.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import analysis
from perfbench.bench import Bench
from perfbench.check import history_mismatches
from perfbench.run import END_TO_END, PER_LAYER, ROOT
from perfbench.spans import Instrumentation, Recorder, claim_rank
from perfbench.workloads import WORKLOADS
from repro.pared import run_pared
from repro.runtime import spmd_run
from repro.runtime.shm import shutdown_pools


def _span(name, t0, t1, parent=-1, rnd=0):
    return [0, rnd, name, t0, t1, parent, 0, None]


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span("parent", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: covered once
        _span("c", 8.0, 9.0, parent=0),
        _span("b.child", 2.5, 2.75, parent=2),
    ]
    selfs = analysis.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 0.25)
    assert selfs[4] == pytest.approx(0.25)


def test_recorder_nests_spans_and_charges_bytes_inclusively():
    rec = Recorder()
    rec.tracing = True
    rec.mark_round(3)
    with rec.span("outer"):
        with rec.span("inner"):
            rec.add_bytes(100)
        rec.add_bytes(10)
    out = rec.drain()
    outer, inner = out["spans"]
    assert inner[5] == 0 and outer[5] == -1  # parent indices
    assert (outer[6], inner[6]) == (110, 100)
    assert outer[1] == inner[1] == 3
    assert rec.drain()["spans"] == []


def _small(name, **kw):
    return replace(WORKLOADS[name], rounds=2, **kw)


def test_perturbed_history_counts_as_failed_run():
    bench = Bench(_small("corner2d-p2", transport="thread"), seed=0)
    ref, _ = run_pared(bench.cfg)
    assert history_mismatches(ref, ref, 2) == []
    bench.reference = copy.deepcopy(ref)
    assert bench.run_once() is not None

    flipped = copy.deepcopy(ref)
    flipped[1][1]["owner"][0] ^= 1
    bench.reference = flipped
    assert bench.run_once() is None
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "'owner' differs" in bench.problems[0]

    leaky = copy.deepcopy(ref)
    for h in leaky:
        h[0]["local_load"] += 1
    assert any("leaves" in m for m in history_mismatches(leaky, leaky, 2))


def test_trace_json_parses_and_every_rank_has_spans_every_round():
    bench = Bench(_small("corner2d-p2"), seed=0)
    bench.reference = run_pared(bench.w.config(0, transport="thread"))[0]
    shutdown_pools()
    wrappers = Instrumentation()
    try:
        spmd_run(2, claim_rank, transport="shm")
        run = bench.run_once()
    finally:
        wrappers.remove()
        shutdown_pools()
    assert run is not None
    trace = json.loads(analysis.chrome_trace(run, {"workload": "test"}))
    seen = {
        (ev["tid"], ev["args"]["round"])
        for ev in trace["traceEvents"]
        if ev["ph"] == "X" and ev["cat"] != "round"
    }
    assert {(r, rnd) for r in range(2) for rnd in range(2)} <= seen
    layer = analysis.layer_metrics(run)
    assert layer["mesh.refine.redundancy"] == pytest.approx(2.0)
    assert layer["partition.repartition.calls"] >= 1


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corner2d-p1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
