"""Span recorder that times the repro layers from outside.

The benchmark never edits the program to trace it: :func:`install`
replaces public functions and methods of the ``repro`` modules with
thin wrappers that open a span around the real call, and
:func:`uninstall` puts the originals back.  Untraced runs install
nothing, so they measure the program exactly as users run it.

A span is ``(id, name, layer, start, end, parent, run, pid)``.  Spans
stay in memory in the process that recorded them.  Pool workers are
forked while a wrapped call is open, so they inherit the wrappers and
the open span stack; each span a worker closes is appended to
``spans-<pid>.jsonl`` in the tracer's directory, which the parent reads
back after it has reaped the pool.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from time import perf_counter

#: (module, owner attribute or "", attribute, span name).  The owner is
#: a class inside the module, or "" for a module-level function.  Only
#: public names are wrapped.  The serving and paper workloads wrap
#: disjoint module sets so a serving run never imports scipy.
SERVING_WRAPS = (
    ("repro.serving.simulator", "", "generate_trace", "workload.tracegen"),
    ("repro.serving.sharding", "", "trace_span", "workload.span"),
    ("repro.serving.events", "ClusterEngine", "run", "events.run"),
    ("repro.serving.simulator", "ServingSimulator", "run",
     "simulator.run"),
    ("repro.serving.simulator", "ServingSimulator", "capacity_rps",
     "simulator.calibrate"),
    ("repro.serving.simulator", "ServingSimulator", "prewarm",
     "simulator.prewarm"),
    ("repro.systolic.simulator", "AcceleratorModel", "simulate_layer",
     "systolic.layer"),
    ("repro.serving.sharding", "", "parallel_map", "executor.map"),
    ("repro.serving.geo", "", "parallel_map", "executor.map"),
    ("repro.serving.sharding", "ShardedEngine", "run_scenario",
     "sharding.run"),
    ("repro.serving.geo", "GeoRouter", "run_scenario", "geo.run"),
)

PAPER_WRAPS = (
    ("repro.systolic.simulator", "AcceleratorModel", "simulate_layer",
     "systolic.layer"),
    ("repro.spice.engine", "TransientSimulator", "run",
     "spice.transient"),
    ("repro.compiler.driver", "NetworkCompiler", "compile_network",
     "compiler.compile"),
    ("repro.compiler.ilp", "IlpCompiler", "compile", "compiler.ilp"),
    ("repro.runtime.engine", "Runtime", "run_jobs", "runtime.run_jobs"),
)


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self, worker_dir: str) -> None:
        self.root_pid = os.getpid()
        self.worker_dir = worker_dir
        self.run = "setup"
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self._next = 0

    def open(self) -> tuple[str, str | None, float]:
        self._next += 1
        span_id = f"{os.getpid()}:{self._next}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        return span_id, parent, perf_counter()

    def close(self, span_id: str, parent: str | None, start: float,
              name: str, extra: dict | None = None) -> None:
        end = perf_counter()
        if self.stack and self.stack[-1] == span_id:
            self.stack.pop()
        span = {"id": span_id, "name": name,
                "layer": name.split(".")[0], "start": start, "end": end,
                "parent": parent, "run": self.run, "pid": os.getpid()}
        if extra:
            span.update(extra)
        if os.getpid() == self.root_pid:
            self.spans.append(span)
        else:
            path = os.path.join(self.worker_dir,
                                f"spans-{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(span) + "\n")

    def worker_spans(self) -> list[dict]:
        """Spans pool workers wrote, read back after they were reaped."""
        spans = []
        for name in sorted(os.listdir(self.worker_dir)):
            if name.startswith("spans-") and name.endswith(".jsonl"):
                with open(os.path.join(self.worker_dir, name),
                          encoding="utf-8") as handle:
                    spans.extend(json.loads(line) for line in handle)
        return spans


def _wrap(tracer: Tracer, func, name: str):
    is_map = name == "executor.map"

    @functools.wraps(func)
    def traced(*args, **kwargs):
        if is_map and kwargs.get("stats") is None:
            # parallel_map only counts pool reuse and retries into a
            # caller-supplied dict; pass one so the tracer can read them
            kwargs["stats"] = {}
        span_id, parent, start = tracer.open()
        try:
            return func(*args, **kwargs)
        finally:
            tracer.close(span_id, parent, start, name,
                         {"stats": dict(kwargs["stats"])} if is_map
                         else None)
    return traced


def install(tracer: Tracer, wraps) -> list[tuple]:
    """Wrap every listed callable; returns what :func:`uninstall` needs."""
    undo = []
    for module_name, owner_name, attr, name in wraps:
        owner = importlib.import_module(module_name)
        if owner_name:
            owner = getattr(owner, owner_name)
        original = owner.__dict__[attr]
        setattr(owner, attr, _wrap(tracer, original, name))
        undo.append((owner, attr, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def call_cost_s(samples: int = 20_000) -> float:
    """Measured cost of one wrapped call over a bare call (s)."""
    scratch = Tracer(worker_dir=os.devnull)

    def noop():
        return None

    wrapped = _wrap(scratch, noop, "trace.calibrate")
    start = perf_counter()
    for _ in range(samples):
        noop()
    bare = perf_counter() - start
    start = perf_counter()
    for _ in range(samples):
        wrapped()
    traced = perf_counter() - start
    return max(traced - bare, 0.0) / samples
