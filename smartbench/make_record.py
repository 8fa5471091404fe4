"""Regenerate ``record.json``, the outputs every repetition must match.

    python3 smartbench/make_record.py [--workload NAME ...]

For each serving workload and each seed slot it serves one repetition
and stores requests, batches, total energy and p50/p99 latency (exact
floats).  For ``paper`` it stores every figure's rows cut to 12
significant digits, the ILP objective of every compiled layer, and the
greedy objective of the same layer as the floor the ILP should meet.
Layers where the ILP falls below that floor are recorded as known
shortfalls (and a warning is printed); a repetition fails if any other
layer falls below it.

Run it only when a change is meant to move the simulated outputs; the
benchmark's tests (``test_smartbench.py``) validate the serving entries
against the reference engine and the monolithic simulator.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RECORD = os.path.join(HERE, "record.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    record = {}
    if os.path.exists(RECORD):
        with open(RECORD, encoding="utf-8") as handle:
            record = json.load(handle)
    from repro.runtime.executor import shutdown_pools

    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            workload = workloads.build(name, tmp)
            if name == "paper":
                outputs, _ = workload.run(0)
                greedy = workloads.greedy_objectives(workload.compiler,
                                                     workload.networks)
                greedy = workloads.cut(greedy)
                below = workloads.below_greedy(outputs["ilp"], greedy)
                if below:
                    print(f"warning: ILP objective below greedy on "
                          f"{len(below)} of {sum(map(len, greedy.values()))}"
                          f" layers; recorded as a known shortfall",
                          flush=True)
                record[name] = {"figures": outputs["figures"],
                                "ilp": outputs["ilp"], "greedy": greedy,
                                "ilp_below_greedy": below,
                                "headline": outputs["headline"]}
                continue
            record[name] = {}
            for slot in range(workloads.SLOTS):
                outputs, _ = workload.run(slot)
                shutdown_pools()
                record[name][str(slot)] = outputs
                print(name, slot, outputs, flush=True)
    with open(RECORD, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
