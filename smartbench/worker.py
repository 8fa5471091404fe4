"""One benchmark process: set a workload up, then serve repetitions.

Started by ``run.py`` in a fresh interpreter, so its set-up is exactly
what a user of the path pays.  It speaks a line protocol on stdout:

    READY                 set-up finished (the parent times spawn -> here)
    REP {json}            one repetition: walls, CPU, checks, outputs
    DONE {json}           host fingerprint, per-layer metrics

With ``--setup-only`` it exits after READY.  With ``--trace 1`` the
tracer wraps the repro layers before set-up and the DONE line carries
the per-layer metrics; untraced runs install no wrapper at all.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import traceback
from importlib import metadata
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from probe import host_probe  # noqa: E402
import workloads  # noqa: E402


def fingerprint() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "platform": platform.platform(), "machine": platform.machine()}


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reap(timeout_s: float = 30.0) -> None:
    """Shut the repro worker pools and wait for every worker to exit,
    so their CPU time lands in RUSAGE_CHILDREN."""
    executor = sys.modules.get("repro.runtime.executor")
    if executor is not None:
        executor.shutdown_pools()
    deadline = perf_counter() + timeout_s
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - perf_counter()))
        if child.is_alive():
            child.kill()
            child.join()


def emit(tag: str, payload=None) -> None:
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--budget", type=float, default=150.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    started = perf_counter()

    tracer = undo = None
    if args.trace:
        worker_dir = os.path.join(args.out_dir, "worker-spans")
        os.makedirs(worker_dir, exist_ok=True)
        tracer = tracing.Tracer(worker_dir)
        undo = tracing.install(
            tracer, tracing.PAPER_WRAPS if args.workload == "paper"
            else tracing.SERVING_WRAPS)
    workload = workloads.build(args.workload, args.out_dir)
    emit("READY")
    if args.setup_only:
        return 0

    with open(os.path.join(HERE, "record.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    expected = (record["paper"] if args.workload == "paper"
                else record[args.workload][str(workloads.slot(args.seed))])
    host_probe()  # the first probe of a process is discarded
    serve_start = perf_counter()
    reps = []
    slowest = 0.0
    pauses: list[tuple[float, float, float, float]] = []

    def pause() -> None:
        """A probe between two phases of a repetition, kept out of its
        wall and CPU time: (start, end, probe, probe CPU)."""
        cpu = cpu_seconds()
        start = perf_counter()
        probe = host_probe()
        pauses.append((start, perf_counter(), probe, cpu_seconds() - cpu))

    while True:
        rep = {"index": len(reps), "probe_before_s": host_probe()}
        if tracer is not None:
            tracer.run = f"rep{rep['index']}"
        pauses.clear()
        cpu0 = cpu_seconds()
        t0 = perf_counter()
        try:
            outputs, stats = workload.run(args.seed, pause)
            t_end = perf_counter()
            problems = workloads.check(args.workload, outputs, expected)
            if args.workload == "paper":
                rep["ilp_below_greedy"] = len(workloads.below_greedy(
                    outputs["ilp"], expected["greedy"]))
        except Exception:  # noqa: BLE001 — a crash fails the repetition
            t_end = perf_counter()
            outputs, stats = {}, {}
            problems = ["crashed: " + traceback.format_exc(limit=3)]
        reap()
        rep["cpu_s"] = cpu_seconds() - cpu0 - sum(p[3] for p in pauses)
        rep["probe_after_s"] = host_probe()
        # phases between probes: [wall, mean of the probes around it]
        probes = ([rep["probe_before_s"]] + [p[2] for p in pauses]
                  + [rep["probe_after_s"]])
        rep["phases"] = [
            [end - start, (probes[i] + probes[i + 1]) / 2]
            for i, (start, end) in enumerate(zip(
                [t0] + [p[1] for p in pauses],
                [p[0] for p in pauses] + [t_end]))]
        rep["wall_s"] = sum(wall for wall, _ in rep["phases"])
        rep["ok"] = not problems
        rep["problems"] = problems[:5]
        rep["stats"] = stats
        rep["outputs"] = {k: v for k, v in outputs.items()
                          if k not in ("figures", "ilp")}
        reps.append(rep)
        emit("REP", {k: v for k, v in rep.items() if k != "stats"})
        slowest = max(slowest, perf_counter() - t0)
        elapsed = perf_counter() - serve_start
        # run the whole repetitions that fit in --seconds: stop when the
        # next one would end more than half a repetition past it
        if elapsed + elapsed / len(reps) / 2 >= args.seconds:
            break
        if perf_counter() - started + slowest > args.budget:
            break

    done = {"host": fingerprint(),
            "cells": workload.cells,
            "scipy_loaded": "scipy" in sys.modules,
            "networkx_loaded": "networkx" in sys.modules}
    if tracer is not None:
        tracing.uninstall(undo)
        spans = tracer.spans + tracer.worker_spans()
        done["per_layer"] = per_layer(args.workload, workload, spans, reps,
                                      tracing.call_cost_s())
        path = os.path.join(args.out_dir, "spans.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        done["spans_file"] = path
        done["spans"] = len(spans)
    emit("DONE", done)
    return 0


def per_layer(name: str, workload, spans: list[dict], reps: list[dict],
              call_cost: float) -> dict:
    """Every per-layer metric, 0 where the workload skips the layer.

    Set-up work (the prewarm and its cold systolic simulations) is
    reported as set-up total plus the per-repetition median; every
    other metric is the median over repetitions.
    """
    def total(run: str, span_name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans
                   if s["run"] == run and s["name"] == span_name)

    def count(run: str, span_name: str) -> int:
        return sum(1 for s in spans
                   if s["run"] == run and s["name"] == span_name)

    rows = []
    for rep in reps:
        run = f"rep{rep['index']}"
        stats, outputs = rep["stats"], rep["outputs"]
        mine = [s for s in spans if s["run"] == run]
        by_id = {s["id"]: s for s in mine}
        engine = total(run, "events.run")
        # result assembly: ServingSimulator.run minus its engine loop
        assemble = sum(
            (s["end"] - s["start"]) for s in mine
            if s["name"] == "simulator.run") - sum(
            (s["end"] - s["start"]) for s in mine
            if s["name"] == "events.run"
            and by_id.get(s["parent"], {}).get("name") == "simulator.run")
        walls = stats.get("worker_walls_s", [])
        map_s = total(run, "executor.map")
        maps = [s for s in mine if s["name"] == "executor.map"]
        fleet = {"worker_wall_max_s": 0.0, "worker_wall_median_s": 0.0,
                 "skew": 0.0}
        busiest = 0.0
        if walls:
            # the median_low of two shards is the smaller one, so skew
            # reads the larger shard's wall over the smaller one's
            low = statistics.median_low(walls)
            fleet = {"worker_wall_max_s": max(walls),
                     "worker_wall_median_s": low,
                     "skew": max(walls) / low if low else 0.0}
            # no worker can finish before its largest task, nor before
            # an even split of all tasks over the pool
            busiest = max(max(walls), sum(walls) / workloads.MAX_WORKERS)
        memo = stats.get("memo", {})
        requests = outputs.get("requests", 0)
        row = {
            "workload.tracegen_s": total(run, "workload.tracegen"),
            "workload.span_s": total(run, "workload.span"),
            "events.run_s": engine,
            "events.us_per_req": engine / requests * 1e6 if requests else 0.0,
            "events.batches": outputs.get("batches", 0),
            "simulator.assemble_s": assemble,
            "memo.lookups": memo.get("lookups", 0),
            "memo.misses": memo.get("misses", 0),
            "memo.hit_rate": memo.get("hit_rate", 0.0),
            "memo.seed_hits": memo.get("seed_hits", 0),
            "executor.map_s": map_s,
            "executor.overhead_s": map_s - busiest if maps else 0.0,
            "executor.pool_reused": sum(s["stats"].get("pool_reused", 0)
                                        for s in maps),
            "executor.retried": sum(s["stats"].get("retried", 0)
                                    for s in maps),
            "spice.transient_runs": count(run, "spice.transient"),
            "spice.transient_s": total(run, "spice.transient"),
            "compiler.compile_s": total(run, "compiler.compile"),
            "compiler.ilp_s": total(run, "compiler.ilp"),
            "compiler.ilp_layers": count(run, "compiler.ilp"),
            "compiler.ilp_below_greedy": rep.get("ilp_below_greedy", 0),
            "eval.figures_s": total(run, "runtime.run_jobs"),
            "runtime.overhead_s": (total(run, "runtime.run_jobs")
                                   - stats["jobs_s"]
                                   if "jobs_s" in stats else 0.0),
            "trace.overhead_s": len(mine) * call_cost,
            "host.calib_s": (rep["probe_before_s"]
                             + rep["probe_after_s"]) / 2,
            "host.wall_s": rep["wall_s"],
            "host.cpu_s": rep["cpu_s"],
            "rep.simulator.calibrate_s": total(run, "simulator.calibrate"),
            "rep.simulator.prewarm_s": total(run, "simulator.prewarm"),
            "rep.systolic.layer_sims": count(run, "systolic.layer"),
            "rep.systolic.sim_s": total(run, "systolic.layer"),
        }
        for layer, keys in (
                ("sharding", ("worker_wall_max_s", "worker_wall_median_s",
                              "skew")),
                ("geo", ("worker_wall_max_s", "skew"))):
            run_s = total(run, f"{layer}.run")
            row[f"{layer}.run_s"] = run_s
            row[f"{layer}.parent_s"] = run_s - map_s if run_s else 0.0
            for key in keys:
                row[f"{layer}.{key}"] = fleet[key] if run_s else 0.0
        row["geo.remote_frac"] = stats.get("remote_frac", 0.0)
        rows.append(row)

    def median(key: str) -> float:
        return statistics.median(row[key] for row in rows)

    metrics = {key: median(key) for key in rows[0]
               if not key.startswith("rep.")}
    for key, span_name, counted in (
            ("simulator.calibrate_s", "simulator.calibrate", False),
            ("simulator.prewarm_s", "simulator.prewarm", False),
            ("systolic.layer_sims", "systolic.layer", True),
            ("systolic.sim_s", "systolic.layer", False)):
        setup = (count if counted else total)("setup", span_name)
        metrics[key] = setup + median("rep." + key)
    metrics["memo.prewarm_cells"] = workload.cells
    # the modelled design's outputs: 0 where the workload has none
    metrics.update(dict.fromkeys(
        ("sim_p99_us", "sim_mj_per_req", *workloads.PAPER_HEADLINE), 0.0))
    outputs = next((r["outputs"] for r in reps if r["ok"]), {})
    if name == "paper":
        metrics.update(outputs.get("headline", {}))
    elif outputs:
        metrics.update(workloads.sim_metrics(outputs))
    metrics["fail_frac"] = sum(not r["ok"] for r in reps) / len(reps)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
