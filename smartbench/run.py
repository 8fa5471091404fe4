"""The repo benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 smartbench/run.py --workload serve-bursty --seed 3 \\
        --seconds 25 --trace 0

Workloads, why each exists and which per-layer metric should move
which end-to-end metric are in ``smartbench/README.md``.

This script imports no repro code (``workloads.py`` imports repro only
inside its workloads).  It times set-up from the outside: it spawns
``worker.py`` in fresh interpreters, measures spawn -> READY of several
set-up-only runs with a host probe between consecutive ones, and
reports the median of the normalised times.  A further worker serves repetitions for
``--seconds``; every repetition's simulated outputs are checked exactly
against ``record.json``.  With ``--trace 0`` the result carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run.

Everything the benchmark writes goes under ``.smartbench-out/`` in the
checkout, which ``.gitignore`` lists: the repro result cache and run
ledger of the run, worker span files, the spans of a traced run and a
JSON copy of every result with the host fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from probe import REF_PROBE_S, host_probe
from workloads import PAPER_HEADLINE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".smartbench-out")


#: Set-up-only runs timed before and after the serving worker of an
#: untraced run; set-up time is the median of them.  Spreading them over
#: the run samples more host states than timing them back to back.
SETUPS_BEFORE, SETUPS_AFTER = 3, 2

#: Whole-run limit (s): the run must end within 180 s.
BUDGET_S = 170.0

#: Serve-phase budget handed to the worker, leaving room for set-ups.
SERVE_BUDGET_S = 140.0

def fail(message: str) -> int:
    print(f"smartbench: {message}", file=sys.stderr)
    return 2


class Worker:
    """One ``worker.py`` process and the lines it has printed so far."""

    #: Workers not yet waited for, stopped if this script is interrupted.
    live: list["Worker"] = []

    def __init__(self, args: list[str], env: dict) -> None:
        self.started = perf_counter()
        self.ready_at: float | None = None
        self.lines: list[str] = []
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        Worker.live.append(self)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            if line == "READY":
                self.ready_at = perf_counter()
            self.lines.append(line)

    def finish(self, deadline: float) -> bool:
        """Wait for exit until ``deadline``; kill on overrun."""
        try:
            self.proc.wait(timeout=max(0.1, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            self.stop()
            return False
        finally:
            self.reader.join(5)
            Worker.live.remove(self)
        # a worker that died early may leave pool workers behind
        self.stop()
        return self.proc.returncode == 0

    def stop(self) -> None:
        """Kill the worker's process group (it leads one, so its pool
        workers go too) and wait for the worker."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    @property
    def setup_s(self) -> float | None:
        return None if self.ready_at is None else self.ready_at - self.started

    def tagged(self, tag: str) -> list[dict]:
        return [json.loads(line[len(tag) + 1:]) for line in self.lines
                if line.startswith(tag + " ")]


def child_env(out_dir: str) -> dict:
    env = dict(os.environ)
    # keep the repro result cache and run ledger inside this run's
    # scratch directory, never in the checkout's tracked files
    env["REPRO_CACHE_DIR"] = os.path.join(out_dir, "cache")
    env["REPRO_RUN_STORE"] = os.path.join(out_dir, "runs.jsonl")
    env.pop("PYTHONPATH", None)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begun = perf_counter()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, interrupted)
    deadline = begun + BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return fail(f"no repro sources under {os.path.join(ROOT, 'src')}; "
                    f"run from the root of a repository checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    out_dir = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = child_env(out_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", out_dir, "--trace", str(args.trace)]

    # (set-up time, mean of the host probes taken either side of it)
    setups: list[tuple[float, float]] = []

    def time_setups(count: int) -> bool:
        before = host_probe()
        for _ in range(0 if args.trace else count):
            worker = Worker([*common, "--setup-only"], env)
            if not worker.finish(deadline) or worker.setup_s is None:
                return False
            after = host_probe()
            setups.append((worker.setup_s, (before + after) / 2))
            before = after
        return True

    host_probe()  # the first probe of a process is discarded
    if not time_setups(SETUPS_BEFORE):
        return fail("a set-up run failed")
    budget = min(SERVE_BUDGET_S, deadline - perf_counter() - 15.0)
    main_run = Worker([*common, "--seconds", str(args.seconds),
                       "--budget", f"{budget:.1f}"], env)
    finished = main_run.finish(deadline)
    if main_run.setup_s is None:
        return fail("the serving worker never finished set-up")
    if not time_setups(SETUPS_AFTER):
        return fail("a set-up run failed")
    reps = main_run.tagged("REP")
    done = main_run.tagged("DONE")
    if not finished or not done:
        # the repetition in flight when the worker died or overran
        # counts as attempted and failed
        reps.append({"ok": False, "wall_s": None,
                     "problems": ["worker died or timed out"]})
    if not [r for r in reps if r["wall_s"] is not None]:
        return fail("no repetition finished")
    done = done[0] if done else {}
    timed = [r for r in reps if r["wall_s"] is not None]
    failed = sum(not r["ok"] for r in reps)
    for rep in reps:
        for problem in rep.get("problems", []):
            print(f"check failed: {problem}", file=sys.stderr)

    lines = [f"smartbench {args.workload} seed={args.seed} "
             f"trace={args.trace}: {len(reps)} repetition(s), "
             f"{failed} failed"]
    host = done.get("host", {})
    lines.append("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    probes = [p for r in timed for p in (r["probe_before_s"],
                                         r["probe_after_s"])]
    lines.append(f"host.calib_s: {statistics.median(probes):.4f} s "
                 f"(min {min(probes):.4f}, max {max(probes):.4f})")
    walls = [r["wall_s"] for r in timed]
    outputs = timed[0]["outputs"]
    extra = {"fail_frac": (failed / len(reps), "ratio")}
    if args.workload == "paper":
        headline = outputs.get("headline", {})
        extra.update({k: (v, "x" if k.endswith("_x") else "ratio")
                      for k, v in headline.items()})
        extra["compiler.ilp_below_greedy"] = (
            timed[0].get("ilp_below_greedy", 0), "count")
    elif outputs:
        extra["sim_p99_us"] = (outputs["p99_s"] * 1e6, "us")
        extra["sim_mj_per_req"] = (
            outputs["energy_j"] / outputs["requests"] * 1e3, "mJ")

    if args.trace:
        if "per_layer" not in done:
            return fail("the traced worker ended without its metrics")
        units = load_units("per_layer")
        if set(done["per_layer"]) != set(units):
            return fail("per-layer metrics differ from BENCHMARK.json: "
                        f"{sorted(set(done['per_layer']) ^ set(units))}")
        metrics = {k: {"value": done["per_layer"][k], "unit": unit}
                   for k, unit in units.items()}
        if done.get("spans_file"):
            lines.append(f"spans: {done['spans']} written to "
                         f"{os.path.relpath(done['spans_file'], ROOT)}")
    else:
        values = {"setup_s": statistics.median(
                      setup * REF_PROBE_S / probe for setup, probe in setups),
                  "wall_norm_s": statistics.median(
                      normalised(r, "wall_s") for r in timed),
                  "cpu_norm_s": statistics.median(
                      normalised(r, "cpu_s") for r in timed),
                  "peak_rss_mb": peak_rss_mb()}
        extra["wall_s"] = (statistics.median(walls), "s")
        extra["cpu_s"] = (statistics.median(r["cpu_s"] for r in timed),
                          "s")
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in load_units("end_to_end").items()}
        lines.append("set-ups (raw): " + ", ".join(
            f"{setup:.3f}" for setup, _ in setups) + " s")
        lines.append("walls: " + ", ".join(f"{w:.3f}" for w in walls)
                     + " s")
    for key, entry in metrics.items():
        lines.append(f"  {key:<32} {entry['value']:>14.6g} {entry['unit']}")
    for key, (value, unit) in extra.items():
        if key not in metrics:
            lines.append(f"  {key:<32} {value:>14.6g} {unit}")
    if args.workload == "paper" and outputs:
        lines.extend(accuracy_lines(outputs.get("headline", {})))
    if done:
        lines.append(f"imports: scipy={done['scipy_loaded']} "
                     f"networkx={done['networkx_loaded']}; "
                     f"prewarm cells={done['cells']}")
    print("\n".join(lines))

    result = {"correct": failed == 0, "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"result": result, "host": host, "report": lines,
                   "repetitions": reps, "setups": setups}, handle,
                  indent=1)
    print(json.dumps(result))
    return 0


def interrupted(signum, _frame) -> None:
    for worker in list(Worker.live):
        worker.stop()
    sys.exit(128 + signum)


def normalised(rep: dict, key: str) -> float:
    """A repetition's time scaled to the reference host speed.

    Each phase of the repetition is scaled by the probes taken on either
    side of it; CPU time takes the wall's overall scale factor.
    """
    wall = sum(phase * REF_PROBE_S / probe for phase, probe in rep["phases"])
    return rep[key] * wall / rep["wall_s"]


def peak_rss_mb() -> float:
    """Largest peak RSS in the process tree (MB): every worker and its
    pool has been waited for, so RUSAGE_CHILDREN covers them all."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


def load_units(kind: str) -> dict:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def accuracy_lines(headline: dict) -> list[str]:
    lines = ["paper headline (SMART vs SHIFT-based SuperNPU, geomean of "
             "the six-model zoo): model vs published"]
    for key, paper in PAPER_HEADLINE.items():
        model = headline.get(key)
        if model is None:
            continue
        lines.append(f"  {key:<28} model {model:.3f}  paper {paper:.3f}  "
                     f"error {(model - paper) / paper:+.1%}")
    lines.append("  (energy ratios are SMART/SHIFT; the paper's 86% and "
                 "71% reductions are ratios 0.14 and 0.29.  The published "
                 "values are the only reference: no held-out data exists.)")
    return lines


if __name__ == "__main__":
    sys.exit(main())
