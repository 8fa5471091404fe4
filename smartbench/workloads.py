"""The four benchmark workloads, driven through the public repro API.

Each workload class does its set-up in ``__init__`` (the imports its
path loads, engine construction and the memo prewarm, i.e. the cold
systolic path) and then serves one repetition per :meth:`run` call.  A
repetition returns ``(outputs, stats)``: ``outputs`` is compared
exactly against ``record.json``; ``stats`` carries the numbers the
per-layer metrics read off the result (worker walls, memo counters).
``run`` calls ``pause()`` between the phases of a long repetition, so
the benchmark can take a host-speed probe there; the pause is not part
of the repetition's time.

Inputs come from a *seed slot*, ``seed % SLOTS``: any seed maps to one
of the recorded slots, so every repetition of every seed has a
recorded output to be checked against.

The failure-storm and retry paths are left out on purpose: with them
the retried count swings 30k-50k across seeds and the serve wall
3.1-4.3 s, and a geo run with storms plus retry collapses to about 1%
SLO attainment, so the work done per run would depend on the seed.
"""

from __future__ import annotations

import math

SLOTS = 16

#: Requests per repetition of the serving workloads.
SIZES = {"serve-bursty": 200_000, "fleet-sharded": 400_000,
         "fleet-geo": 50_000}

#: Pool width of the fleet workloads, pinned so the work does not
#: follow ``os.cpu_count()``.
MAX_WORKERS = 2

#: The SMART paper's published headline (Sec 6): SMART over the
#: SHIFT-based SuperNPU, geomean over the six-model zoo.
PAPER_HEADLINE = {
    "smart_speedup_x": 3.9,
    "smart_batch_speedup_x": 2.2,
    "smart_energy_ratio": 0.14,
    "smart_batch_energy_ratio": 0.29,
}

#: Significant digits kept when figure rows are compared.
DIGITS = 12


def slot(seed: int) -> int:
    return seed % SLOTS


def _no_pause() -> None:
    return None


def _serving_outputs(requests: int, batches: int, energy: float,
                     p50: float, p99: float) -> dict:
    return {"requests": requests, "batches": batches, "energy_j": energy,
            "p50_s": p50, "p99_s": p99}


def _cache_stats(cache) -> dict:
    return {"lookups": cache.lookups, "misses": cache.misses,
            "hit_rate": cache.hit_rate, "seed_hits": cache.seed_hits}


def sim_metrics(outputs: dict) -> dict:
    """The modelled design's serving figures from one repetition."""
    return {"sim_p99_us": outputs["p99_s"] * 1e6,
            "sim_mj_per_req": outputs["energy_j"] / outputs["requests"]
            * 1e3}


class ServeBursty:
    """One process, warm memo: trace generation plus the event loop."""

    name = "serve-bursty"
    scenario = "bursty"

    def __init__(self, n: int = SIZES["serve-bursty"]) -> None:
        from repro.serving import ServingSimulator, make_policy

        self.n = n
        self.sim = ServingSimulator(
            "SMART", replicas=4, policy=make_policy("timeout", batch_size=8),
            dispatch="least_loaded")
        self.cells = len(self.sim.prewarm(self.scenario))

    def run(self, seed: int, pause=_no_pause) -> tuple[dict, dict]:
        result = self.sim.run_scenario(self.scenario, self.n, slot(seed))
        outputs = _serving_outputs(
            len(result.requests), len(result.batches), result.total_energy,
            result.latency_percentile(50), result.latency_percentile(99))
        return outputs, {"memo": _cache_stats(result.cache)}


class FleetSharded:
    """Scale-out: two shard workers fed a warm memo snapshot."""

    name = "fleet-sharded"
    scenario = "steady"

    def __init__(self, n: int = SIZES["fleet-sharded"]) -> None:
        from repro.serving import ServingSimulator, make_policy

        self.n = n
        calibrator = ServingSimulator(
            "SMART", replicas=2, policy=make_policy("timeout", batch_size=8),
            dispatch="shard")
        self.snapshot = calibrator.prewarm(self.scenario)
        self.cells = len(self.snapshot)

    def engine(self, detail: bool = False):
        """The sharded engine; ``detail`` keeps per-request arrays (the
        tests' equivalence path)."""
        from repro.serving import ShardedEngine

        return ShardedEngine(2, replicas=2, policy="timeout", batch_size=8,
                             max_workers=MAX_WORKERS, detail=detail,
                             snapshot=self.snapshot)

    def run(self, seed: int, pause=_no_pause) -> tuple[dict, dict]:
        result = self.engine().run_scenario(self.scenario, self.n,
                                            slot(seed))
        outputs = _serving_outputs(
            result.requests, result.batches, result.energy,
            result.latency_percentile(50), result.latency_percentile(99))
        return outputs, {
            "memo": _cache_stats(result.cache),
            "map_wall_s": result.wall_s,
            "worker_walls_s": [o.wall_s for o in result.outcomes],
        }


class FleetGeo:
    """Four regions on a ring, three backends, follow-the-sun routing."""

    name = "fleet-geo"
    scenario = "diurnal"

    def __init__(self, n: int = SIZES["fleet-geo"]) -> None:
        from repro.serving import (LayerMemoCache, MemoSnapshot,
                                   ServingSimulator, default_regions,
                                   make_policy)

        self.n = n
        cache = LayerMemoCache()
        # the same per-region calibrators GeoRouter builds, sharing one
        # memo, so the snapshot holds every backend's cells
        for region in default_regions(4):
            ServingSimulator(
                region.accelerator, replicas=region.replicas,
                policy=make_policy("timeout", batch_size=8),
                cache=cache).prewarm(self.scenario)
        self.snapshot = MemoSnapshot.from_cache(cache)
        self.cells = len(self.snapshot)

    def run(self, seed: int, pause=_no_pause) -> tuple[dict, dict]:
        from repro.serving import GeoRouter

        router = GeoRouter(4, topology="ring", geo="follow_sun",
                           policy="timeout", batch_size=8,
                           max_workers=MAX_WORKERS, snapshot=self.snapshot)
        result = router.run_scenario(self.scenario, self.n, slot(seed))
        outputs = _serving_outputs(
            result.requests, result.batches, result.energy,
            result.latency_percentile(50), result.latency_percentile(99))
        return outputs, {
            "memo": _cache_stats(result.cache),
            "map_wall_s": result.wall_s,
            "worker_walls_s": [r.outcome.wall_s for r in result.regions],
            "remote_frac": result.remote_frac,
        }


def cut(value):
    """Figure-row values with floats cut to :data:`DIGITS` digits."""
    if isinstance(value, float):
        return f"{value:.{DIGITS}g}"
    if isinstance(value, dict):
        return {str(k): cut(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [cut(v) for v in value]
    return value


def headline(figures: dict) -> dict:
    """Geomean SMART/SHIFT of figs 18-21, from the raw figure rows."""
    from repro.eval import geomean

    def ratio(rows):
        return (geomean([r["SMART"] for r in rows])
                / geomean([r["SHIFT"] for r in rows]))

    return {"smart_speedup_x": ratio(figures["fig18"]),
            "smart_batch_speedup_x": ratio(figures["fig19"]),
            "smart_energy_ratio": ratio(figures["fig20"]),
            "smart_batch_energy_ratio": ratio(figures["fig21"])}


class Paper:
    """Every paper figure inline with no result cache, then the ILP
    compiler over the model zoo.  No serving code runs; the inputs are
    the paper's own, so the seed selects nothing."""

    name = "paper"

    def __init__(self, store_path: str) -> None:
        import repro.eval.experiments  # noqa: F401  (registers figures)
        import repro.spice  # noqa: F401  (fig13's circuit simulator)
        from repro.compiler import NetworkCompiler
        from repro.models import get_model, model_names
        from repro.runtime import Job, Runtime, RunStore, all_experiments

        self.runtime = Runtime(mode="inline", use_cache=False,
                               store=RunStore(store_path))
        self.jobs = [Job(e.name, {}) for e in all_experiments()
                     if e.figure]
        self.compiler = NetworkCompiler()
        self.networks = {name: get_model(name) for name in model_names()}
        self.cells = 0

    def run(self, seed: int, pause=_no_pause) -> tuple[dict, dict]:
        results = self.runtime.run_jobs(self.jobs)
        failed = [r.job.experiment for r in results if not r.ok]
        if failed:
            raise RuntimeError(f"figure jobs failed: {failed}")
        figures = {r.job.experiment: r.rows for r in results}
        pause()
        ilp = {name: [c.schedule.objective_value
                      for c in self.compiler.compile_network(network)]
               for name, network in self.networks.items()}
        outputs = {"figures": cut(figures), "ilp": cut(ilp),
                   "headline": headline(figures)}
        return outputs, {"jobs_s": sum(r.elapsed_s for r in results)}


def greedy_objectives(compiler, networks) -> dict:
    """Per-layer greedy objectives, the floor every ILP layer must meet."""
    from repro.compiler import GreedyCompiler, LayerDag
    from repro.systolic.mapping import WeightStationaryMapping

    greedy = GreedyCompiler(shift_capacity=compiler.shift_capacity,
                            random_capacity=compiler.random_capacity,
                            prefetch_depth=compiler.prefetch_depth)
    out = {}
    for name, network in networks.items():
        out[name] = [
            greedy.compile(LayerDag.from_mapping(
                WeightStationaryMapping(layer, 64, 256),
                max_iterations=compiler.max_iterations)).objective_value
            for layer in network.compute_layers()]
    return out


def check(workload: str, outputs: dict, expected: dict) -> list[str]:
    """Mismatches between one repetition and its record (empty = ok)."""
    if workload != "paper":
        return [f"{key}: got {outputs[key]!r}, recorded {expected[key]!r}"
                for key in ("requests", "batches", "energy_j", "p50_s",
                            "p99_s")
                if outputs[key] != expected[key]]
    problems = []
    for name in sorted(set(expected["figures"]) | set(outputs["figures"])):
        if outputs["figures"].get(name) != expected["figures"].get(name):
            problems.append(f"{name}: figure rows differ from the record")
    if outputs["ilp"] != expected["ilp"]:
        problems.append("ILP objectives differ from the record")
    known = {tuple(pair) for pair in expected["ilp_below_greedy"]}
    for model, layer in below_greedy(outputs["ilp"], expected["greedy"]):
        if (model, layer) not in known:
            problems.append(f"{model} layer {layer}: ILP objective below "
                            f"the greedy schedule's")
    return problems


def below_greedy(ilp: dict, greedy: dict) -> list[tuple[str, int]]:
    """(model, layer) pairs whose ILP objective is below greedy's.

    The greedy schedules respect the same capacity and per-edge load
    envelope as the ILP, so each is a floor an optimal ILP must meet.
    """
    return [(model, i)
            for model, floors in sorted(greedy.items())
            for i, (got, floor) in enumerate(zip(ilp[model], floors))
            if float(got) < float(floor)
            and not math.isclose(float(got), float(floor),
                                 rel_tol=10 ** -DIGITS)]


WORKLOADS = {cls.name: cls
             for cls in (ServeBursty, FleetSharded, FleetGeo, Paper)}


def build(name: str, tmp_dir: str):
    """Set a workload up; ``tmp_dir`` holds any state it writes."""
    if name == "paper":
        import os

        return Paper(os.path.join(tmp_dir, "runs.jsonl"))
    return WORKLOADS[name]()
