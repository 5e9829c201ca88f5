"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q

They check that ``BENCHMARK.json`` mirrors :mod:`perfbench.design`, that
the traced run finds every layer working or idle where the design table
says (the layer-coverage check), that simulated metrics repeat exactly
for a seed, that a delay injected into one layer is charged to that
layer and moves the predicted end-to-end metric only on the workload
that exercises it, and that the benchmark refuses to run without the
program's source.
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
from typing import Optional

import pytest

from perfbench import design, harness

SHORT = 2.0  # seconds per run; whole blocks up to MIN_OPS run regardless
#: ~750 plan_signature calls per train-iter op make this ~15 ms per op
SIGNATURE_DELAY = ("repro.compiler.cache.plan_signature", 20e-6)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: bool, sabotage: Optional[tuple[str, float]] = None) -> dict:
    harness.bootstrap()
    return harness.run_workload(
        workload, design.DEFAULT_SEED, SHORT, trace, sabotage=sabotage, write_spans=False
    )


def test_benchmark_json_mirrors_design():
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert doc == design.benchmark_json()


def test_design_meets_the_benchmark_json_limits():
    doc = design.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    moved = {m.name for m in design.END_TO_END} | {"vlat_p99_s", "shed_rate"}
    for m in design.PER_LAYER:
        assert set(m.moves) <= moved, m.name
        assert set(m.works_on) | set(m.zero_on) <= set(design.WORKLOAD_NAMES)
        assert not set(m.works_on) & set(m.zero_on)


@pytest.mark.parametrize("workload", design.WORKLOAD_NAMES)
def test_layer_coverage(workload):
    report = run(workload, True)
    assert report["correct"], report["failures"]
    assert report["coverage"] == []
    assert set(report["per_layer"]) == {m.name for m in design.PER_LAYER}


@pytest.mark.parametrize("workload", design.WORKLOAD_NAMES)
def test_outputs_correct_and_simulated_metrics_repeat(workload):
    plain, traced = run(workload, False), run(workload, True)
    assert plain["correct"] and plain["failed"] == 0, plain["failures"]
    assert plain["attempted"] >= design.MIN_OPS
    # The first MIN_OPS ops are the same inputs in both runs.
    assert plain["end_to_end"]["sim_time_s"] == traced["end_to_end"]["sim_time_s"]
    assert plain["summary"] == traced["summary"]
    line = harness.result_line(plain)
    assert set(line["metrics"]) == {m.name for m in design.END_TO_END}
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_sabotaged_layer_is_charged_and_caught():
    base, slow = run("train-iter", True), run("train-iter", True, SIGNATURE_DELAY)
    calls = slow["per_layer"]["compiler.signature_calls"]
    # the busy-wait is wall time; per-layer times are scaled like op times
    injected_ms = calls * SIGNATURE_DELAY[1] * 1e3 * slow["trace_scale"]
    grew = {
        name: slow["per_layer"][name] - base["per_layer"][name]
        for name in base["per_layer"]
        if name.endswith("_ms")
    }
    assert grew["compiler.signature_ms"] >= 0.8 * injected_ms
    assert max(grew, key=grew.get) == "compiler.signature_ms"

    bound = {m.name: m.bound for m in design.END_TO_END}["ops_per_s"]
    plain = run("train-iter", False)["end_to_end"]["ops_per_s"]
    slowed = run("train-iter", False, SIGNATURE_DELAY)["end_to_end"]["ops_per_s"]
    assert slowed < plain * (1 - bound)

    # reshard-cold compiles with the plan cache off: no signature is built
    bypass = run("reshard-cold", False)["end_to_end"]["ops_per_s"]
    bypass_slowed = run("reshard-cold", False, SIGNATURE_DELAY)["end_to_end"]["ops_per_s"]
    assert bypass_slowed > bypass * (1 - bound)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-iter", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
