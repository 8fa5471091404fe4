"""Tests of the benchmark itself: its record, its tracer, its run script.

The recorded outputs (``record.json``) are taken at full size; here the
same workload definitions are validated at reduced size against the
repository's oracles: serve-bursty against the reference engine, and
fleet-sharded against the monolithic simulator.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from repro.eval.report import percentile  # noqa: E402
from repro.runtime.executor import shutdown_pools  # noqa: E402
from repro.serving import (ServingSimulator, generate_trace,  # noqa: E402
                           get_scenario, make_policy)
from repro.serving.reference import run_reference  # noqa: E402

with open(os.path.join(HERE, "record.json"), encoding="utf-8") as _fh:
    RECORD = json.load(_fh)

SEED = 3


def test_bursty_outputs_match_the_reference_engine():
    bursty = workloads.ServeBursty(n=1500)
    outputs, _ = bursty.run(SEED)
    scenario = get_scenario(bursty.scenario)
    rate = scenario.load * bursty.sim.capacity_rps(scenario)
    trace = generate_trace(scenario, rate, bursty.n, workloads.slot(SEED))
    ref = run_reference(bursty.sim, trace)
    ordered = sorted(trace, key=lambda r: r.arrival)
    latencies = [ref.done[r.request_id][0] - r.arrival for r in ordered]
    energies = [ref.done[r.request_id][1] for r in ordered]
    assert not ref.shed
    assert outputs == {"requests": len(ordered),
                       "batches": len(ref.batches),
                       "energy_j": sum(energies),
                       "p50_s": percentile(latencies, 50),
                       "p99_s": percentile(latencies, 99)}


def test_sharded_outputs_match_the_monolithic_simulator():
    n = 3000
    fleet = workloads.FleetSharded(n=n)
    try:
        outputs, stats = fleet.run(SEED)
        detail = fleet.engine(detail=True).run_scenario(
            fleet.scenario, n, workloads.slot(SEED)).detail
    finally:
        shutdown_pools()
    mono = ServingSimulator(
        "SMART", replicas=2, policy=make_policy("timeout", batch_size=8),
        dispatch="shard").run_scenario(fleet.scenario, n,
                                       workloads.slot(SEED))
    assert detail.latencies == mono.latencies
    assert detail.energy_per_request == mono.energy_per_request
    assert outputs["requests"] == len(mono.requests)
    assert outputs["batches"] == len(mono.batches)
    assert outputs["energy_j"] == pytest.approx(mono.total_energy,
                                                rel=1e-12)
    # without detail the percentiles come off the merged digest, within
    # half its 1% bucket width of the exact value
    for q in (50, 99):
        assert outputs[f"p{q}_s"] == pytest.approx(
            mono.latency_percentile(q), rel=0.006)
    assert len(stats["worker_walls_s"]) == 2


@pytest.mark.parametrize("name", sorted(workloads.SIZES))
def test_recorded_work_barely_moves_across_seed_slots(name):
    slots = RECORD[name]
    assert sorted(slots, key=int) == [str(i)
                                      for i in range(workloads.SLOTS)]
    assert {entry["requests"] for entry in slots.values()} == {
        workloads.SIZES[name]}
    batches = [entry["batches"] for entry in slots.values()]
    spread = (max(batches) - min(batches)) / statistics.median(batches)
    assert spread < 0.02


def test_paper_record_is_self_consistent():
    paper = RECORD["paper"]
    assert [tuple(p) for p in paper["ilp_below_greedy"]] == \
        workloads.below_greedy(paper["ilp"], paper["greedy"])
    assert set(paper["headline"]) == set(workloads.PAPER_HEADLINE)
    assert {name: len(v) for name, v in paper["ilp"].items()} == \
        {name: len(v) for name, v in paper["greedy"].items()}


def test_check_flags_any_output_drift():
    expected = RECORD["serve-bursty"]["0"]
    assert workloads.check("serve-bursty", dict(expected), expected) == []
    drifted = dict(expected, p99_s=expected["p99_s"] * (1 + 1e-15))
    assert workloads.check("serve-bursty", drifted, expected)


def test_tracer_is_inert_and_restores_the_originals(tmp_path):
    from repro.serving.events import ClusterEngine

    original = ClusterEngine.__dict__["run"]
    plain, _ = workloads.ServeBursty(n=800).run(SEED)
    tracer = tracing.Tracer(str(tmp_path))
    undo = tracing.install(tracer, tracing.SERVING_WRAPS)
    try:
        tracer.run = "rep0"
        traced, _ = workloads.ServeBursty(n=800).run(SEED)
    finally:
        tracing.uninstall(undo)
    assert traced == plain
    assert ClusterEngine.__dict__["run"] is original
    names = {s["id"]: s["name"] for s in tracer.spans}
    loops = [s for s in tracer.spans if s["name"] == "events.run"]
    assert len(loops) == 1
    assert names[loops[0]["parent"]] == "simulator.run"
    assert {"workload.tracegen", "simulator.prewarm",
            "systolic.layer"} <= set(names.values())


def test_run_refuses_to_start_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "smartbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run(
        [sys.executable, "smartbench/run.py", "--workload", "serve-bursty",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
