"""Sharded scale-out of the serving simulator across worker processes.

One :class:`ShardedEngine` run simulates a single logical trace —
millions of requests — by fanning deterministic shards out through the
:mod:`repro.runtime` process-pool executor.  Each worker streams its
own slice of the global seeded trace (:func:`~repro.serving.workload.
shard_trace`: no process ever materialises the full request list),
serves it on an independent :class:`~repro.serving.events.
ClusterEngine`, and ships back a compact :class:`ShardOutcome`; the
parent merge-reduces those into one :class:`FleetResult` with exact
counters and energy sums, a mergeable :class:`LatencyDigest` for
percentiles, and per-shard telemetry rows tagged with their shard id.

Why this is exact and not merely parallel: the splitter partitions
models by the same ``crc32(model) % replicas`` pin
:class:`~repro.serving.policies.ShardDispatch` homes batches with, so
each replica's entire traffic lands in exactly one shard and replica
state (free times, resident weights, switch charges) never couples
across workers.  Every shard engine holds the *full* replica pool
(preserving indices and the hash fold) and drains at the *global*
trace end via the engine's ``span`` pin.  On such shard-stable cells a
sharded run reproduces the monolithic engine's per-request latencies
and energies bit for bit — ``detail=True`` merges the shards back
into a full :class:`~repro.serving.simulator.ServingResult` and the
equivalence suite (``tests/test_serving_sharding.py``) holds it to
exact tuple equality.

Control-plane features that inherently observe cross-shard state —
autoscaling, work stealing, admission depth, failure re-dispatch,
hedged/degraded resilience — are rejected up front by
:func:`validate_sharding` with a :class:`~repro.errors.ConfigError`
rather than silently drifting.  Deadline-timeout retries *are*
shard-stable (their backoff jitter is a pure hash of seed, request id
and attempt, and retried singletons re-dispatch to the model's home
replica), so ``resilience="retry"`` shards exactly.

The engine itself is fault tolerant: a worker shard that crashes is
re-run with capped exponential backoff (``shard_retries``), and long
runs can checkpoint completed :class:`ShardOutcome` pickles to disk
(``checkpoint=``) so an interrupted run resumes with only the missing
shards.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from dataclasses import dataclass, replace
from itertools import chain
from time import perf_counter
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import ConfigError
from repro.runtime.executor import parallel_map, worker_payload
from repro.serving.batching import make_policy
from repro.serving.policies import make_resilience
from repro.serving.events import FailurePlan, SloPolicy
from repro.serving.memo import CacheStats, LayerMemoCache, MemoSnapshot
from repro.serving.simulator import ServingResult, ServingSimulator
from repro.serving.telemetry import Telemetry
from repro.serving.workload import (
    Request,
    Scenario,
    get_scenario,
    shard_trace,
    trace_span,
)

__all__ = [
    "FleetResult",
    "LatencyDigest",
    "ShardOutcome",
    "ShardedEngine",
    "validate_sharding",
]

#: Dispatch strategies whose decisions depend only on the model being
#: dispatched (never on cross-request engine state), so a model-
#: partitioned trace reproduces them exactly across workers.
SHARD_STABLE_DISPATCH = ("shard",)

#: Resilience policies whose duplicate scheduling depends only on the
#: request itself (deadline + pure seeded jitter) and whose retries
#: re-dispatch to the model's home replica, so they replay identically
#: inside a single shard.
SHARD_STABLE_RESILIENCE = ("retry",)

#: Worker-crash retry backoff never sleeps longer than this (s).
_BACKOFF_CAP_S = 2.0


def validate_sharding(shards: int, *, replicas: int,
                      dispatch: object = "shard", autoscale: str = "",
                      scale: str = "", steal: bool = False,
                      shed: int = 0, fail: int = 0,
                      resilience: object = "",
                      scenarios: Sequence[str | Scenario] = ()) -> None:
    """Reject shard counts and features a sharded run cannot honour.

    Raises:
        ConfigError: whenever the combination would make sharded and
            monolithic results diverge (or the shard count is
            malformed) — the CLI surfaces these as clean exit-2
            errors, matching the ``--scale``/``--flush`` pattern.
    """
    if shards < 1:
        raise ConfigError("shard count must be >= 1")
    if replicas < 1:
        raise ConfigError("cluster needs at least one replica")
    if shards > replicas:
        raise ConfigError(
            f"{shards} shards need at least {shards} replicas (got "
            f"{replicas}); every worker shard must own at least one "
            f"home replica"
        )
    name = dispatch if isinstance(dispatch, str) \
        else getattr(dispatch, "name", "?")
    if name not in SHARD_STABLE_DISPATCH:
        raise ConfigError(
            f"sharded runs need a shard-stable dispatch "
            f"({', '.join(SHARD_STABLE_DISPATCH)}), not '{name}': "
            f"stateful strategies route on cross-request state the "
            f"workers cannot share"
        )
    if autoscale or scale:
        raise ConfigError(
            "sharded runs cannot autoscale: pool changes would couple "
            "shards through the shared replica set"
        )
    if steal:
        raise ConfigError(
            "work stealing moves batches between shard-owned "
            "replicas; disable stealing for sharded runs"
        )
    if shed:
        raise ConfigError(
            "admission control sheds on the global in-system depth, "
            "which no single shard observes; disable shedding for "
            "sharded runs"
        )
    if fail:
        raise ConfigError(
            "failure injection re-dispatches in-flight batches across "
            "shard boundaries; sharded runs must be fault-free"
        )
    res = make_resilience(resilience) if isinstance(resilience, str) \
        else resilience
    if res is not None and res.name not in SHARD_STABLE_RESILIENCE:
        raise ConfigError(
            f"resilience '{res.name}' is not shard-stable: hedged "
            f"duplicates pick the second-best replica from live pool-"
            f"wide state, and degraded fallbacks couple to admission "
            f"shedding — neither is visible to a single shard; "
            f"sharded runs support only "
            f"{', '.join(SHARD_STABLE_RESILIENCE)} (or none)"
        )
    for scenario in scenarios:
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        if scenario.faults:
            raise ConfigError(
                f"scenario '{scenario.name}' injects replica faults; "
                f"failure re-dispatch is not shard-stable"
            )


class LatencyDigest:
    """A mergeable fixed-relative-resolution latency summary.

    Values land in geometric buckets of width ``1 + resolution``, so
    any percentile read off the digest is within ``resolution/2``
    (relative) of the exact nearest-rank value while the digest stays
    O(distinct buckets) — a million served latencies digest into a few
    hundred counters, which is what lets worker shards ship summaries
    instead of per-request arrays.  Count, sum, min and max are exact.
    """

    __slots__ = ("resolution", "counts", "count", "total",
                 "min", "max", "_scale")

    def __init__(self, resolution: float = 0.01) -> None:
        if resolution <= 0:
            raise ConfigError("digest resolution must be positive")
        self.resolution = resolution
        self.counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._scale = 1.0 / math.log1p(resolution)

    def add(self, value: float) -> None:
        """Record one latency (s)."""
        idx = (math.floor(math.log(value) * self._scale)
               if value > 0.0 else -(1 << 62))
        counts = self.counts
        counts[idx] = counts.get(idx, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "LatencyDigest") -> None:
        """Fold another digest (same resolution) into this one."""
        if other.resolution != self.resolution:
            raise ConfigError("cannot merge digests of different "
                              "resolutions")
        counts = self.counts
        for idx, n in other.counts.items():
            counts[idx] = counts.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        """Exact mean of the recorded values."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate nearest-rank percentile ``q`` (in [0, 100]).

        Returns the geometric midpoint of the bucket holding the rank,
        clamped to the exact observed min/max.
        """
        if not self.count:
            raise ConfigError("percentile of an empty digest")
        if not 0.0 <= q <= 100.0:
            raise ConfigError("percentile rank must be in [0, 100]")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for idx in sorted(self.counts):
            seen += self.counts[idx]
            if seen >= rank:
                if idx <= -(1 << 62):
                    return 0.0
                mid = math.exp((idx + 0.5) / self._scale)
                return min(max(mid, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits


@dataclass(frozen=True)
class ShardOutcome:
    """One fleet worker's summary, shipped back to the parent.

    A worker is a shard, or a region on a geo run (``shard`` is then
    the region index).  Counters, energies and busy time are exact;
    latency percentiles travel in the mergeable ``digest``.  ``result``
    carries the full per-request :class:`ServingResult` only when the
    run asked for ``detail`` (the equivalence-test path);
    ``telemetry_rows`` are the worker's trace rows, each already
    tagged with its ``shard`` (or ``region`` name).
    """

    shard: int
    requests: int
    batches: int
    energy: float
    busy_s: float
    first_arrival: float
    last_done: float
    digest: LatencyDigest
    slo_hits: int
    cache: CacheStats
    wall_s: float
    telemetry_rows: tuple = ()
    counters: tuple = ()
    result: Optional[ServingResult] = None


def _worker_simulator(spec: dict, accelerator: str,
                      replicas: int) -> ServingSimulator:
    """Rebuild one fleet worker's simulator from picklable primitives.

    Shared by shard and region workers: ``accelerator``/``replicas``
    are the worker's own pool (the full pool for a shard, the region's
    backend for a region); batching, dispatch, SLO, resilience and
    telemetry come from the spec.  A warm run's :class:`MemoSnapshot`
    arrives via the pool initializer (:func:`~repro.runtime.executor.
    worker_payload`) — shipped once per worker, not pickled into every
    spec — and is installed into the worker's fresh memo so its first
    request already hits warm layer totals.
    """
    payload = worker_payload()
    return ServingSimulator(
        accelerator=accelerator,
        replicas=replicas,
        policy=make_policy(spec["policy"], batch_size=spec["batch_size"]),
        dispatch=spec["dispatch"],
        cache=LayerMemoCache(),
        slo=(SloPolicy(target=spec["slo_us"] * 1e-6)
             if spec["slo_us"] else None),
        telemetry=(Telemetry(events=spec["trace_events"],
                             tick=spec["tick"] or None)
                   if spec["trace"] else None),
        resilience=spec.get("resilience") or None,
        snapshot=(payload.get("memo")
                  if isinstance(payload, dict) else None),
    )


def _tee(stream: Iterable[Request],
         arrivals: dict[int, float]) -> Iterator[Request]:
    """Pass ``stream`` through, noting each request's arrival."""
    for request in stream:
        arrivals[request.request_id] = request.arrival
        yield request


def _fold_worker(spec: dict, sim: ServingSimulator, scenario: Scenario,
                 stream: Iterable[Request], *, shard: int, rate: float,
                 span: tuple[float, float], t_start: float, tag: dict,
                 failures: Optional[FailurePlan] = None,
                 **run_meta) -> ShardOutcome:
    """Serve one fleet worker's request stream into a :class:`ShardOutcome`.

    The part every shard and region worker shares: build the engine,
    tee arrivals (or materialise them under ``detail``), run pinned to
    the global ``span``, then fold per-request latencies into the
    digest, energy and SLO sums.  ``tag`` (``{"shard": k}`` or
    ``{"region": name}``) lands on every telemetry row and, with
    ``run_meta``, on the run header.  A worker whose stream is empty
    — few models and an unlucky hash fold, or a geo policy draining
    its region dry — idles for the whole run, still reporting any
    snapshot cells it was shipped.
    """
    networks = {m: sim.network(m) for m in scenario.mix.models()}
    engine = sim.make_engine(networks, failures=failures,
                             prewarm=spec.get("warm_cells"))
    arrivals: dict[int, float] = {}
    requests: list[Request] = []
    if spec["detail"]:
        requests = list(stream)
        for request in requests:
            arrivals[request.request_id] = request.arrival
        stream = iter(requests)
    else:
        stream = _tee(stream, arrivals)
    telemetry = sim.telemetry
    if telemetry is not None:
        telemetry.begin_run(
            scenario=scenario.name, policy=sim.policy.name,
            dispatch=sim.dispatch, replicas=sim.replicas,
            accelerator=sim.accelerator.name, rate_rps=rate,
            **tag, **run_meta,
        )

    first = next(stream, None)
    if first is None:
        idle_stats = sim.cache.stats
        return ShardOutcome(
            shard=shard, requests=0, batches=0, energy=0.0,
            busy_s=0.0, first_arrival=math.inf, last_done=-math.inf,
            digest=LatencyDigest(), slo_hits=0,
            cache=CacheStats(seeded=idle_stats.seeded,
                             seed_hits=idle_stats.seed_hits),
            wall_s=perf_counter() - t_start,
        )
    outcome = engine.run(chain((first,), stream), span=span)

    slo_target = spec["slo_us"] * 1e-6
    digest = LatencyDigest()
    energy = 0.0
    slo_hits = 0
    for request_id, (done, joules) in outcome.done.items():
        latency = done - arrivals[request_id]
        digest.add(latency)
        energy += joules
        if slo_target and latency <= slo_target:
            slo_hits += 1
    cache = replace(sim.cache.stats)

    rows: tuple = ()
    counters: tuple = ()
    if telemetry is not None:
        for row in telemetry.rows:
            row.update(tag)
        rows = tuple(telemetry.rows)
        counters = tuple(sorted(telemetry.counters.items()))

    result = None
    if spec["detail"]:
        ordered = tuple(requests)
        result = ServingResult(
            accelerator=sim.accelerator.name, replicas=sim.replicas,
            scenario=scenario.name, policy=sim.policy.name,
            rate=rate, requests=ordered,
            latencies=tuple(outcome.done[r.request_id][0] - r.arrival
                            for r in ordered),
            energy_per_request=tuple(outcome.done[r.request_id][1]
                                     for r in ordered),
            batches=outcome.batches, cache=cache, slo_target=slo_target,
            replica_trace=outcome.replica_trace,
        )

    return ShardOutcome(
        shard=shard, requests=len(outcome.done),
        batches=len(outcome.batches), energy=energy,
        busy_s=sum(record.service for record in outcome.batches),
        first_arrival=min(arrivals.values()),
        last_done=max(record.done for record in outcome.batches),
        digest=digest, slo_hits=slo_hits, cache=cache,
        wall_s=perf_counter() - t_start, telemetry_rows=rows,
        counters=counters, result=result,
    )


def _serve_shard(spec: dict) -> ShardOutcome:
    """Serve one shard of the global trace (runs in a worker process).

    Module-level and dict-parameterised so the process pool can pickle
    the call; everything heavier (scenario, networks, memo cache,
    engine) is rebuilt inside the worker.
    """
    t_start = perf_counter()
    scenario = get_scenario(spec["scenario"])
    sim = _worker_simulator(spec, spec["accelerator"], spec["replicas"])
    shard = shard_trace(scenario, spec["rate"], spec["n"], spec["seed"],
                        shards=spec["shards"], shard=spec["shard"],
                        replicas=spec["replicas"],
                        span=spec.get("span"))
    return _fold_worker(spec, sim, scenario, shard, shard=spec["shard"],
                        rate=spec["rate"], span=shard.span,
                        t_start=t_start, tag={"shard": spec["shard"]},
                        shards=spec["shards"])


def _spec_fingerprint(spec: dict) -> str:
    """Stable identity of a sharded run's configuration.

    All of a run's shard specs differ only in ``"shard"``; dropping it
    yields the key a checkpoint is valid for.
    """
    return repr({k: spec[k] for k in sorted(spec) if k != "shard"})


@dataclass(frozen=True)
class _ShardFailure:
    """A worker shard that raised instead of finishing."""

    shard: int
    error: str


def _serve_shard_safe(spec: dict) -> ShardOutcome | _ShardFailure:
    """Crash-isolating wrapper around :func:`_serve_shard`.

    A raising shard comes back as a :class:`_ShardFailure` instead of
    aborting the whole fan-out, so the parent keeps every completed
    :class:`ShardOutcome` and re-runs only the failed shards.  (A
    worker that dies outright — SIGKILL, ``os._exit`` — is caught one
    layer down by :func:`~repro.runtime.executor.parallel_map`'s
    incomplete-only re-run instead.)
    """
    try:
        return _serve_shard(spec)
    except Exception as exc:  # noqa: BLE001 — shard faults are data
        return _ShardFailure(spec["shard"],
                             f"{type(exc).__name__}: {exc}")


@dataclass
class FleetResult:
    """The merge-reduced outcome of one fleet run (sharded or geo).

    Counters, energy, busy time and SLO hits are exact sums over the
    worker outcomes; latency percentiles read off the merged
    :class:`LatencyDigest` (within its resolution).  ``detail`` holds
    the bit-exact merged :class:`ServingResult` when the run was
    started with ``detail=True``.  :meth:`merge` is the one place
    worker outcomes are reduced; :class:`~repro.serving.geo.GeoResult`
    extends it with the geo tier's network economics.
    """

    accelerator: str
    replicas: int
    scenario: str
    policy: str
    dispatch: str
    rate: float
    requests: int
    batches: int
    energy: float
    busy_s: float
    first_arrival: float
    last_done: float
    digest: LatencyDigest
    slo_target: float
    slo_hits: int
    wall_s: float
    cache: CacheStats
    outcomes: tuple[ShardOutcome, ...] = ()
    detail: Optional[ServingResult] = None
    resilience: str = ""
    shard_retries: int = 0

    @classmethod
    def merge(cls, outcomes: tuple[ShardOutcome, ...], *, detail: bool,
              **fields) -> "FleetResult":
        """Exact merge of the worker outcomes, in worker order.

        ``fields`` are the run-level attributes (configuration, rate,
        wall time, and any subclass fields); ``detail`` also
        reassembles the per-request :class:`ServingResult`.
        """
        digest = LatencyDigest()
        cache = CacheStats()
        for outcome in outcomes:
            digest.merge(outcome.digest)
            stats = outcome.cache
            cache.hits += stats.hits
            cache.misses += stats.misses
            cache.energy_hits += stats.energy_hits
            cache.energy_misses += stats.energy_misses
            cache.seeded += stats.seeded
            cache.seed_hits += stats.seed_hits
        result = cls(
            requests=sum(o.requests for o in outcomes),
            batches=sum(o.batches for o in outcomes),
            energy=sum(o.energy for o in outcomes),
            busy_s=sum(o.busy_s for o in outcomes),
            first_arrival=min(o.first_arrival for o in outcomes),
            last_done=max(o.last_done for o in outcomes),
            digest=digest, slo_hits=sum(o.slo_hits for o in outcomes),
            cache=cache, outcomes=outcomes, **fields,
        )
        if detail:
            result.detail = _merge_detail(result)
        return result

    @property
    def shards(self) -> int:
        """Worker count (shards, or regions on a geo run)."""
        return len(self.outcomes)

    @property
    def makespan(self) -> float:
        """Global first arrival to global last completion (s)."""
        if self.last_done <= self.first_arrival:
            return 0.0
        return self.last_done - self.first_arrival

    @property
    def throughput_rps(self) -> float:
        """Simulated served requests per second of sim-time."""
        return self.requests / self.makespan if self.makespan else 0.0

    @property
    def simulated_rps(self) -> float:
        """Aggregate simulated requests per second of *wall* time —
        the scale-out headline the ``serving_scale`` bench records."""
        return self.requests / self.wall_s if self.wall_s else 0.0

    @property
    def mean_batch(self) -> float:
        """Mean dispatched batch size across all workers."""
        return self.requests / self.batches if self.batches else 0.0

    @property
    def utilization(self) -> float:
        """Busy fraction of the pool over the global makespan."""
        available = self.replicas * self.makespan
        return self.busy_s / available if available else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of all requests meeting the SLO (exact)."""
        if not self.slo_target:
            return 1.0
        return self.slo_hits / self.requests if self.requests else 1.0

    @property
    def telemetry_rows(self) -> tuple:
        """Every worker's telemetry rows, shard- or region-tagged,
        concatenated in (worker, emission) order."""
        return tuple(chain.from_iterable(o.telemetry_rows
                                         for o in self.outcomes))

    def latency_percentile(self, q: float) -> float:
        """Latency percentile ``q`` (s): exact when the run kept
        per-request detail, digest-resolution otherwise."""
        if self.detail is not None:
            return self.detail.latency_percentile(q)
        return self.digest.percentile(q)

    def _shape_columns(self) -> dict:
        """Row columns naming the fleet's shape."""
        return {"shards": self.shards}

    def _load_columns(self) -> dict:
        """Row columns between energy and cache hit rate."""
        return {"mean_batch": self.mean_batch,
                "utilization": self.utilization}

    def to_row(self) -> dict:
        """The aggregate row ``repro serve-sim --shards N`` (or
        ``--geo N``) prints."""
        row = {
            "scenario": self.scenario,
            "policy": self.policy,
            **self._shape_columns(),
            "requests": self.requests,
            "rate_rps": self.rate,
            "p50_us": self.latency_percentile(50) * 1e6,
            "p95_us": self.latency_percentile(95) * 1e6,
            "p99_us": self.latency_percentile(99) * 1e6,
            "throughput_rps": self.throughput_rps,
            "agg_rps": self.simulated_rps,
            "energy_per_req_uj": (self.energy / self.requests * 1e6
                                  if self.requests else 0.0),
            **self._load_columns(),
            "cache_hit_rate": self.cache.hit_rate,
        }
        if self.slo_target:
            row["slo_attain"] = self.slo_attainment
        if self.resilience:
            row["resilience"] = self.resilience
        if self.shard_retries:
            row["shard_retries"] = self.shard_retries
        if self.cache.seeded:
            # warm-fleet effectiveness: snapshot cells shipped across
            # all workers and how many turned into warm promotions
            row["memo_seeded"] = self.cache.seeded
            row["warm_hits"] = self.cache.seed_hits
        return row


def _merge_detail(fleet: FleetResult) -> Optional[ServingResult]:
    """Reassemble per-worker ServingResults into the monolithic one.

    Requests (and their latencies/energies) interleave back into
    global request-id order — exactly the monolithic trace order, as
    ids are assigned in arrival order.  Batches from different workers
    have no global dispatch order, so they are canonically sorted; the
    equivalence suite compares them as sets.
    """
    shards = [o.result for o in fleet.outcomes if o.result is not None]
    if not shards:
        return None
    triplets = sorted(
        chain.from_iterable(zip(r.requests, r.latencies,
                                r.energy_per_request) for r in shards),
        key=lambda triplet: triplet[0].request_id,
    )
    requests = tuple(t[0] for t in triplets)
    batches = tuple(sorted(
        chain.from_iterable(r.batches for r in shards),
        key=lambda b: (b.flush, b.start, b.done, b.replica, b.model),
    ))
    return ServingResult(
        accelerator=fleet.accelerator, replicas=fleet.replicas,
        scenario=fleet.scenario, policy=fleet.policy, rate=fleet.rate,
        requests=requests,
        latencies=tuple(t[1] for t in triplets),
        energy_per_request=tuple(t[2] for t in triplets),
        batches=batches, cache=fleet.cache, slo_target=fleet.slo_target,
        replica_trace=((requests[0].arrival, fleet.replicas),),
    )


class ShardedEngine:
    """Fan one logical serving run out across worker processes.

    Args:
        shards: worker shard count (each one independent
            :class:`~repro.serving.events.ClusterEngine` over the full
            replica pool, fed only its models' traffic).
        accelerator: replica configuration scheme name.
        replicas: cluster width; must be >= ``shards``.
        policy: batching policy name (``fixed``/``timeout``).
        batch_size: batching policy batch size.
        dispatch: must be shard-stable (``shard``).
        slo_us: per-request latency SLO (us); 0 disables.
        mode: executor mode (``process``/``thread``/``inline``) — the
            runtime executor falls back to threads transparently where
            process pools are unavailable.
        max_workers: pool width cap (default: executor's own).
        detail: keep per-request arrays and merge a full bit-exact
            :class:`ServingResult` (the equivalence-test path; costs
            O(n) parent memory, leave off at million-request scale).
        trace: record per-shard telemetry (shard-tagged rows on
            ``result.telemetry_rows``).
        tick: telemetry timeline sampling interval (s), when tracing.
        trace_events: include per-request event rows in the trace
            (off keeps only timeline samples — the scale default).
        resilience: client resilience spec string; only shard-stable
            policies (:data:`SHARD_STABLE_RESILIENCE`) are accepted.
        shard_retries: how many times a crashed/raising worker shard
            is re-run (with capped exponential backoff) before the
            run gives up.
        retry_backoff_s: base sleep before the first shard re-run;
            doubles per attempt, capped at ``_BACKOFF_CAP_S``.
        checkpoint: optional path; completed :class:`ShardOutcome`
            pickles land there after every fan-out round, and a rerun
            with the same configuration resumes from them, serving
            only the missing shards.  A checkpoint written by a
            different configuration is ignored and overwritten.
        prewarm: warm-start the fleet (the default).  The parent
            resolves every (config, model, batch) layer cell once,
            snapshots the totals, and broadcasts the snapshot to the
            workers through the pool initializer; the global trace
            span is computed once in the parent and shipped in the
            spec so no worker repeats the span-recording pass.  The
            memo is exact, so warm results are bit-identical to cold
            — pass ``False`` for the cold reference path (the bench
            baseline).
        snapshot: a pre-built :class:`MemoSnapshot` to install into
            the parent's warm cache up front (e.g. totals loaded from
            the persisted memo pool), on top of which ``prewarm``
            fills whatever is missing.
        memo_cache: the parent-side :class:`LayerMemoCache` to
            calibrate and prewarm through; pass a shared instance to
            accumulate warm totals across runs (the ``--persist-memo``
            path), default a fresh private one.

    Raises:
        ConfigError: from :func:`validate_sharding`, for any
            combination whose sharded results would not be exact.
    """

    def __init__(self, shards: int, accelerator: str = "SMART",
                 replicas: int = 2, policy: str = "timeout",
                 batch_size: int = 8, dispatch: str = "shard",
                 slo_us: float = 0.0, mode: str = "process",
                 max_workers: Optional[int] = None,
                 detail: bool = False, trace: bool = False,
                 tick: float = 200e-6,
                 trace_events: bool = False,
                 resilience: str = "",
                 shard_retries: int = 2,
                 retry_backoff_s: float = 0.05,
                 checkpoint: Optional[str] = None,
                 prewarm: bool = True,
                 snapshot: Optional[MemoSnapshot] = None,
                 memo_cache: Optional[LayerMemoCache] = None) -> None:
        validate_sharding(shards, replicas=replicas, dispatch=dispatch,
                          resilience=resilience)
        make_policy(policy, batch_size=batch_size)  # fail fast
        if shard_retries < 0:
            raise ConfigError("shard_retries must be >= 0")
        if retry_backoff_s < 0:
            raise ConfigError("retry_backoff_s must be >= 0")
        self.shards = shards
        self.accelerator = accelerator
        self.replicas = replicas
        self.policy = policy
        self.batch_size = batch_size
        self.dispatch = dispatch
        self.slo_us = slo_us
        self.mode = mode
        self.max_workers = max_workers
        self.detail = detail
        self.trace = trace
        self.tick = tick
        self.trace_events = trace_events
        # normalise "none"/"" to the empty spec so rows stay clean
        self.resilience = \
            resilience if make_resilience(resilience) is not None else ""
        self.shard_retries = shard_retries
        self.retry_backoff_s = retry_backoff_s
        self.checkpoint = checkpoint
        self.prewarm = prewarm
        self._warm_cache = (memo_cache if memo_cache is not None
                            else LayerMemoCache())
        if snapshot is not None:
            snapshot.install(self._warm_cache)

    def run_scenario(self, scenario: Scenario | str, n_requests: int,
                     seed: int = 0) -> FleetResult:
        """Calibrate, shard, fan out, and merge one scenario run."""
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        validate_sharding(self.shards, replicas=self.replicas,
                          dispatch=self.dispatch,
                          resilience=self.resilience,
                          scenarios=(scenario,))
        if n_requests < 1:
            raise ConfigError("trace needs at least one request")
        # calibrate the offered rate exactly as the monolithic path
        # does, so sharded and monolithic runs serve the same trace;
        # the calibrator runs over the parent's warm cache, so its
        # cells feed straight into the broadcast snapshot
        calibrator = ServingSimulator(
            accelerator=self.accelerator, replicas=self.replicas,
            policy=make_policy(self.policy, batch_size=self.batch_size),
            dispatch=self.dispatch,
            cache=self._warm_cache,
        )
        rate = scenario.load * calibrator.capacity_rps(scenario)
        snapshot: Optional[MemoSnapshot] = None
        span: Optional[tuple[float, float]] = None
        warm_cells: Optional[tuple] = None
        if self.prewarm:
            # one parent-side pass resolves every layer cell and the
            # global trace span; workers then skip both — the memo is
            # exact, so nothing downstream changes bit-wise
            snapshot = calibrator.prewarm(scenario)
            span = trace_span(scenario, rate, n_requests, seed)
            warm_cells = tuple(
                (model, batch)
                for model in sorted(scenario.mix.models())
                for batch in range(1, calibrator.policy.max_batch + 1)
            )
        specs = [
            {
                "scenario": scenario.name, "rate": rate,
                "n": n_requests, "seed": seed, "shards": self.shards,
                "shard": shard, "replicas": self.replicas,
                "accelerator": self.accelerator, "policy": self.policy,
                "batch_size": self.batch_size,
                "dispatch": self.dispatch, "slo_us": self.slo_us,
                "detail": self.detail, "trace": self.trace,
                "tick": self.tick, "trace_events": self.trace_events,
                "resilience": self.resilience,
                "span": span, "warm_cells": warm_cells,
            }
            for shard in range(self.shards)
        ]
        t_start = perf_counter()
        fingerprint = _spec_fingerprint(specs[0])
        done = self._load_checkpoint(fingerprint)
        retried = 0
        attempt = 0
        while True:
            pending = [s for s in specs if s["shard"] not in done]
            if not pending:
                break
            if attempt:
                time.sleep(min(
                    self.retry_backoff_s * 2 ** (attempt - 1),
                    _BACKOFF_CAP_S))
            stats: dict = {}
            batch = parallel_map(_serve_shard_safe,
                                 [(s,) for s in pending],
                                 mode=self.mode,
                                 max_workers=self.max_workers,
                                 stats=stats,
                                 payload=({"memo": snapshot}
                                          if snapshot is not None
                                          else None))
            retried += stats.get("retried", 0)
            failures = []
            for item in batch:
                if isinstance(item, ShardOutcome):
                    done[item.shard] = item
                else:
                    failures.append(item)
            self._save_checkpoint(fingerprint, done)
            if not failures:
                break
            attempt += 1
            if attempt > self.shard_retries:
                raise RuntimeError(
                    f"shard {failures[0].shard} still failing after "
                    f"{self.shard_retries} retries: "
                    f"{failures[0].error}")
            retried += len(failures)
        wall = perf_counter() - t_start
        return FleetResult.merge(
            tuple(done[shard] for shard in range(self.shards)),
            detail=self.detail, accelerator=self.accelerator,
            replicas=self.replicas, scenario=scenario.name,
            policy=self.policy, dispatch=self.dispatch, rate=rate,
            slo_target=self.slo_us * 1e-6, wall_s=wall,
            resilience=self.resilience, shard_retries=retried,
        )
    # -- crash recovery --------------------------------------------------
    def _load_checkpoint(self, fingerprint: str) -> dict:
        """Completed shard outcomes from a matching prior run."""
        if not self.checkpoint or not os.path.exists(self.checkpoint):
            return {}
        try:
            with open(self.checkpoint, "rb") as handle:
                payload = pickle.load(handle)
        except Exception:
            return {}  # corrupt/truncated checkpoint: start fresh
        if payload.get("fingerprint") != fingerprint:
            return {}  # different run configuration: start fresh
        return dict(payload.get("outcomes", {}))

    def _save_checkpoint(self, fingerprint: str, done: dict) -> None:
        if not self.checkpoint or not done:
            return
        tmp = f"{self.checkpoint}.tmp"
        with open(tmp, "wb") as handle:
            pickle.dump({"fingerprint": fingerprint,
                         "outcomes": dict(done)}, handle)
        os.replace(tmp, self.checkpoint)
