"""Geo-distributed serving: a router over per-region cluster engines.

A :class:`GeoRouter` run simulates one *planet-scale* trace: every
region admits its own seeded request stream (with its local-time
diurnal crest), a :class:`~repro.serving.policies.GeoDispatchPolicy`
decides which region *serves* each request, and the interconnect
(:mod:`repro.serving.interconnect`) charges the cross-region transfer
as a NETWORK event — the request's effective arrival at its serving
region is its admission instant plus the deterministic comm-time.
Each region then runs as an independent
:class:`~repro.serving.events.ClusterEngine` in its own worker
process (region == shard: the fan-out rides the same
:mod:`repro.runtime` pool, worker fold and exact merge as
:class:`~repro.serving.sharding.ShardedEngine`), and the parent
reduces the per-region :class:`~repro.serving.sharding.ShardOutcome`
summaries into one :class:`GeoResult` — a :class:`~repro.serving.
sharding.FleetResult` plus per-region SLO attainment and energy-cost
rows.

Why this is exact: routing is a pure function of the admission
instant, the home region, and the static fleet plan (capacities,
prices, diurnal phases, interconnect, outage windows) — never of live
engine state — so every worker replays the identical global routing
scan and filters out its own deliveries, exactly as
:func:`~repro.serving.workload.shard_trace` replays the global trace.
The NETWORK delivery queue (an :class:`~repro.serving.events.
EventQueue`) re-sorts admissions into delivery order with bounded
buffering: a delivery can pop as soon as the scan's current admission
time passes it, because every future delivery lands no earlier than
its own (future) admission.

The zero-drift anchor: with one region and stock policies the
regional stream *is* the global trace (same seed, same rate, zero
interconnect delay), so the geo path is bit-identical to the plain
:class:`~repro.serving.simulator.ServingSimulator` run — per-request
latencies and energies — on every stock scenario x policy cell
(``tests/test_serving_geo.py`` holds it there).
"""

from __future__ import annotations

import heapq
import math
import random as _random
from collections import deque
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import ConfigError
from repro.runtime.executor import parallel_map
from repro.serving.batching import make_policy
from repro.serving.events import EventKind, EventQueue, FailurePlan
from repro.serving.interconnect import REQUEST_BYTES, Interconnect
from repro.serving.memo import LayerMemoCache, MemoSnapshot
from repro.serving.policies import (
    RegionFailurePlan,
    make_geo,
    make_resilience,
)
from repro.serving.sharding import (
    FleetResult,
    ShardOutcome,
    _fold_worker,
    _worker_simulator,
)
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import (
    Request,
    Scenario,
    get_scenario,
    shard_seeds,
    stream_trace,
)

__all__ = [
    "GeoResult",
    "GeoRouter",
    "RegionOutcome",
    "RegionSpec",
    "STOCK_REGIONS",
    "default_regions",
    "validate_geo",
]


@dataclass(frozen=True)
class RegionSpec:
    """One serving region of the geo fleet.

    Attributes:
        name: region label (unique within a fleet).
        accelerator: replica configuration scheme (any
            :func:`~repro.core.configs.make_accelerator` scheme —
            the AQFP / SNN backends give regions real service/energy
            diversity).
        replicas: region pool width.
        price: grid energy price (USD per MJ) — what
            ``cheapest_joule`` routing minimises.
        tz: timezone offset of the diurnal wave, in cycle fractions
            (``3/24`` = three hours east of the reference clock).
    """

    name: str
    accelerator: str = "SMART"
    replicas: int = 2
    price: float = 0.09
    tz: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("region name cannot be empty")
        if self.replicas < 1:
            raise ConfigError("region needs at least one replica")
        if self.price < 0:
            raise ConfigError("energy price must be >= 0")
        if not math.isfinite(self.tz):
            raise ConfigError("timezone offset must be finite")


#: The stock fleet palette ``serve-sim --geo N`` draws from: mixed
#: superconductor backends, cheap-to-dear grids, staggered clocks.
STOCK_REGIONS: tuple[RegionSpec, ...] = (
    RegionSpec("us-east", accelerator="SMART", replicas=2,
               price=0.09, tz=0.0),
    RegionSpec("eu-west", accelerator="SNN", replicas=2,
               price=0.17, tz=0.25),
    RegionSpec("ap-south", accelerator="AQFP", replicas=2,
               price=0.05, tz=0.5),
    RegionSpec("us-west", accelerator="SMART", replicas=2,
               price=0.12, tz=0.875),
    RegionSpec("af-north", accelerator="SNN", replicas=1,
               price=0.03, tz=0.375),
)


def default_regions(count: int) -> tuple[RegionSpec, ...]:
    """The first ``count`` stock regions (suffixed past the palette)."""
    if count < 1:
        raise ConfigError("geo fleet needs at least one region")
    regions = []
    for i in range(count):
        spec = STOCK_REGIONS[i % len(STOCK_REGIONS)]
        if i >= len(STOCK_REGIONS):
            spec = replace(spec,
                           name=f"{spec.name}-{i // len(STOCK_REGIONS)}")
        regions.append(spec)
    return tuple(regions)


def validate_geo(regions: Sequence[RegionSpec], *, geo: object = "home",
                 topology: str = "mesh", bandwidth_gbps: float = 10.0,
                 base_latency_us: float = 50.0,
                 payload_bytes: int = REQUEST_BYTES,
                 storms: int = 0) -> None:
    """Reject malformed geo fleets with clean :class:`ConfigError`\\ s.

    The CLI surfaces these as exit-2 usage errors, matching the
    ``--shards``/``--scale`` pattern.
    """
    if not regions:
        raise ConfigError("geo fleet needs at least one region")
    names = [spec.name for spec in regions]
    if len(set(names)) != len(names):
        raise ConfigError("region names must be unique: "
                          + ", ".join(sorted(names)))
    # both constructors carry the real validation
    Interconnect(regions=len(regions), topology=topology,
                 bandwidth_gbps=bandwidth_gbps,
                 base_latency_us=base_latency_us)
    make_geo(geo)
    if payload_bytes < 0:
        raise ConfigError("payload size must be >= 0")
    if storms < 0:
        raise ConfigError("storm count must be >= 0")


def _split_counts(n: int, capacities: Sequence[float]) -> tuple[int, ...]:
    """Split ``n`` requests over regions by capacity share.

    Largest-remainder apportionment: exact total, deterministic ties
    (lower index wins), at least one request per region.
    """
    count = len(capacities)
    if n < count:
        raise ConfigError(
            f"geo runs need at least one request per region "
            f"({n} requests over {count} regions)"
        )
    total = sum(capacities)
    shares = [n * c / total for c in capacities]
    counts = [math.floor(s) for s in shares]
    order = sorted(range(count),
                   key=lambda i: (counts[i] - shares[i], i))
    for i in order[:n - sum(counts)]:
        counts[i] += 1
    for i in range(count):
        if counts[i] == 0:
            donor = max(range(count), key=lambda j: (counts[j], -j))
            counts[donor] -= 1
            counts[i] = 1
    return tuple(counts)


def _region_scenario(scenario: Scenario, tz: float) -> Scenario:
    """The scenario as region-local traffic: its wave shifted by tz."""
    return replace(scenario, phase=scenario.phase + tz) if tz \
        else scenario


class _RouterView:
    """The read-only fleet surface handed to geo dispatch policies.

    See :class:`~repro.serving.policies.GeoDispatchPolicy` for the
    contract.  Everything here derives from the run *plan* (specs,
    calibrated capacities, static estimates) — never from live engine
    state — which is what keeps the routing scan replayable in every
    worker process.
    """

    __slots__ = ("regions", "slo", "_capacities", "_prices",
                 "_energies", "_batch_lats", "_tz", "_icx", "_payload",
                 "_amp", "_cycles", "_base_phase", "_duration",
                 "_window", "_assigned")

    def __init__(self, spec: dict, icx: Interconnect) -> None:
        regions = spec["regions"]
        self.regions = len(regions)
        self.slo = spec["slo_us"] * 1e-6 if spec["slo_us"] else None
        self._capacities = spec["capacities"]
        self._prices = tuple(r[3] for r in regions)
        self._energies = spec["energies"]
        self._batch_lats = spec["batch_lats"]
        self._tz = tuple(r[4] for r in regions)
        self._icx = icx
        self._payload = spec["payload_bytes"]
        scenario = spec["scenario"]
        if scenario.shape == "diurnal":
            process = scenario.process(1.0)
            self._amp = process.amplitude
            self._cycles = process.cycles
            self._base_phase = process.phase
        else:
            self._amp = self._cycles = self._base_phase = 0.0
        total_rate = sum(spec["rates"])
        self._duration = (sum(spec["counts"]) / total_rate
                          if total_rate else 1.0)
        self._window = spec["window_s"]
        self._assigned: tuple[deque, ...] = tuple(
            deque() for _ in regions)

    def capacity(self, i: int) -> float:
        return self._capacities[i]

    def price(self, i: int) -> float:
        return self._prices[i]

    def energy_per_req(self, i: int) -> float:
        return self._energies[i]

    def batch_latency(self, i: int) -> float:
        return self._batch_lats[i]

    def hops(self, src: int, dst: int) -> int:
        return self._icx.hops(src, dst)

    def delay(self, src: int, dst: int) -> float:
        return self._icx.delay(src, dst, self._payload)

    def wave(self, i: int, t: float) -> float:
        """Instantaneous diurnal load factor at region-local time."""
        if not self._amp:
            return 1.0
        frac = t / self._duration
        return 1.0 - self._amp * math.cos(
            2.0 * math.pi * (self._cycles * frac
                             + self._base_phase + self._tz[i]))

    def window_rate(self, i: int, t: float) -> float:
        """Recent assigned request rate (req/s) for region ``i``."""
        assigned = self._assigned[i]
        horizon = t - self._window
        while assigned and assigned[0] < horizon:
            assigned.popleft()
        return len(assigned) / self._window

    def record(self, i: int, t: float) -> None:
        """Note one request assigned to region ``i`` at ``t``."""
        self._assigned[i].append(t)


def _down(outages, region: int, t: float) -> bool:
    return any(o.region == region and o.at <= t < o.until
               for o in outages)


def _times_streams(spec: dict) -> list:
    """Per-region ``(arrival, home)`` streams — the model-free scan."""
    scenario = spec["scenario"]

    def gen(i: int) -> Iterator[tuple[float, int]]:
        regional = _region_scenario(scenario, spec["regions"][i][4])
        process = regional.process(spec["rates"][i])
        rng = _random.Random(spec["seeds"][i])
        for t in process.times(spec["counts"][i], rng):
            yield (t, i)

    return [gen(i) for i in range(len(spec["regions"]))]


def _request_streams(spec: dict) -> list:
    """Per-region ``(arrival, home, Request)`` streams, globally
    unique ascending ids (region id bases), home-region tagged."""
    scenario = spec["scenario"]

    def gen(i: int) -> Iterator[tuple[float, int, Request]]:
        name = spec["regions"][i][0]
        regional = _region_scenario(scenario, spec["regions"][i][4])
        base = spec["bases"][i]
        for r in stream_trace(regional, spec["rates"][i],
                              spec["counts"][i], spec["seeds"][i],
                              region=name):
            yield (r.arrival, i,
                   r if not base else replace(
                       r, request_id=base + r.request_id))

    return [gen(i) for i in range(len(spec["regions"]))]


def _merge_admission_key(item) -> tuple[float, int]:
    return (item[0], item[1])


def _route_scan(spec: dict, streams: Iterable, outages) -> Iterator:
    """Route the merged admission stream into delivery order.

    Yields ``(deliver, serve, home, rerouted, retried, delay, item)``
    tuples in globally ascending delivery time.  The NETWORK
    :class:`~repro.serving.events.EventQueue` is the re-sort buffer: a
    queued delivery pops once the scan's admission clock passes it
    (future deliveries can never land earlier than their own future
    admissions), and the queue drains fully at stream end.

    With a resilience policy on, a storm reroute is modelled as a
    client *failover retry*: the request first travels to the dark
    region (the failed leg), times out, and is re-sent to the healthy
    one — both legs are charged through the NETWORK delay, and the
    tuple's ``retried`` flag marks the double charge.  Without
    resilience the reroute is the pre-PR silent redirect (single leg).
    """
    regions = len(spec["regions"])
    icx = Interconnect(regions=regions, topology=spec["topology"],
                       bandwidth_gbps=spec["bandwidth_gbps"],
                       base_latency_us=spec["base_latency_us"])
    geo = make_geo(spec["geo"])
    view = _RouterView(spec, icx)
    geo.reset(view)
    payload_bytes = spec["payload_bytes"]
    res_on = bool(spec["resilience"])
    queue = EventQueue()
    for item in heapq.merge(*streams, key=_merge_admission_key):
        t, home = item[0], item[1]
        while len(queue) and queue.next_time() <= t:
            yield queue.pop().payload
        serve = geo.route(t, home, view)
        if not 0 <= serve < regions:
            raise ConfigError(
                f"geo policy '{geo.name}' routed to region {serve} "
                f"outside [0, {regions})"
            )
        rerouted = False
        retried = False
        failed_leg = 0.0
        if outages and _down(outages, serve, t):
            live = [i for i in range(regions)
                    if not _down(outages, i, t)]
            if live:
                if res_on:
                    # the failed attempt's transfer is real: charge
                    # the leg to the dark region before the retry leg
                    failed_leg = icx.delay(home, serve, payload_bytes)
                    retried = True
                serve = min(live,
                            key=lambda i: (icx.hops(home, i), i))
                rerouted = True
        view.record(serve, t)
        delay = failed_leg + icx.delay(home, serve, payload_bytes)
        queue.push(t + delay, EventKind.NETWORK,
                   payload=(t + delay, serve, home, rerouted, retried,
                            delay, item))
    while len(queue):
        yield queue.pop().payload


def _arrival_span(spec: dict) -> tuple[float, float]:
    """Global (first, last) admission instant over every region."""
    first, last = math.inf, -math.inf
    for stream in _times_streams(spec):
        t0 = tN = next(stream)[0]
        for tN, _ in stream:
            pass
        first = min(first, t0)
        last = max(last, tN)
    return first, last


def _delivery_span(spec: dict, outages) -> tuple[float, float]:
    """Global (first, last) delivery instant after routing."""
    first, last = math.inf, -math.inf
    for deliver, *_ in _route_scan(spec, _times_streams(spec), outages):
        if deliver < first:
            first = deliver
        if deliver > last:
            last = deliver
    return first, last


@dataclass(frozen=True)
class RegionOutcome:
    """One region's worker summary: engine outcome + network ledger.

    ``outcome`` is the exact per-shard summary the sharded merge
    understands (region == shard); the extra fields are the geo
    tier's network accounting for the region.
    """

    region: str
    index: int
    accelerator: str
    replicas: int
    price: float
    capacity_rps: float
    rate_rps: float
    offered: int
    remote: int
    rerouted: int
    delay_s: float
    outcome: ShardOutcome
    retried: int = 0

    @property
    def cost_usd(self) -> float:
        """Served energy priced at the region's grid (USD)."""
        return self.outcome.energy * self.price / 1e6

    @property
    def slo_attainment(self) -> float:
        served = self.outcome.requests
        return self.outcome.slo_hits / served if served else 1.0


def _serve_geo_region(spec: dict) -> RegionOutcome:
    """Serve one region of a geo run (runs in a worker process).

    Every worker replays the identical global routing scan (regional
    streams -> geo policy -> interconnect delay -> delivery order) and
    feeds its own region's deliveries to an independent cluster
    engine, pinned to the *global* delivery span so all regions drain
    at the same horizon.
    """
    t_start = perf_counter()
    me = spec["region"]
    name, accelerator, replicas, price, _tz = spec["regions"][me]
    scenario = spec["scenario"]
    sim = _worker_simulator(spec, accelerator, replicas)
    # a warm parent resolves the outage windows and the global
    # delivery span once and ships them in the spec — both are pure
    # functions of the plan, so recomputing here (the cold path) gives
    # the identical values, just at one O(n) routing scan per worker
    if "outages" in spec:
        outages = spec["outages"]
    else:
        outages = ()
        if spec["storms"]:
            first, last = _arrival_span(spec)
            outages = RegionFailurePlan(
                count=spec["storms"], seed=spec["seed"],
            ).resolve(first, last, len(spec["regions"]))
    span = spec.get("span")
    if span is None:
        span = _delivery_span(spec, outages)

    net = {"offered": 0, "remote": 0, "rerouted": 0, "retried": 0,
           "delay": 0.0}

    def deliveries() -> Iterator[Request]:
        scan = _route_scan(spec, _request_streams(spec), outages)
        for deliver, serve, home, rerouted, retried, delay, item in scan:
            if home == me:
                net["offered"] += 1
            if serve != me:
                continue
            request = item[2]
            if delay:
                request = replace(request, arrival=deliver)
                net["delay"] += delay
            if home != me:
                net["remote"] += 1
            if rerouted:
                net["rerouted"] += 1
            if retried:
                net["retried"] += 1
            yield request

    outcome = _fold_worker(
        spec, sim, scenario, deliveries(), shard=me,
        rate=spec["rates"][me], span=span, t_start=t_start,
        tag={"region": name},
        failures=(FailurePlan(count=scenario.faults,
                              seed=spec["seeds"][me])
                  if scenario.faults else None),
        regions=len(spec["regions"]), geo=spec["geo"],
    )
    return RegionOutcome(
        region=name, index=me, accelerator=accelerator,
        replicas=replicas, price=price,
        capacity_rps=spec["capacities"][me],
        rate_rps=spec["rates"][me], offered=net["offered"],
        remote=net["remote"], rerouted=net["rerouted"],
        delay_s=net["delay"], outcome=outcome, retried=net["retried"],
    )


@dataclass
class GeoResult(FleetResult):
    """The merge-reduced outcome of one geo run.

    A :class:`~repro.serving.sharding.FleetResult` over the region
    outcomes (region == shard): counters, energy and SLO hits are
    exact sums, latency percentiles read off the merged digest, and
    ``detail`` holds the bit-exact merged :class:`~repro.serving.
    simulator.ServingResult` when the run kept per-request arrays.
    On top it carries the routing setup and each region's network
    ledger, from which the fleet economics (cost, interconnect delay,
    remote share, failover retries) derive.
    """

    geo: str = "home"
    topology: str = "mesh"
    storms: int = 0
    regions: tuple[RegionOutcome, ...] = ()

    @property
    def cost_usd(self) -> float:
        """Fleet energy bill: each region's joules at its grid price."""
        return sum(r.cost_usd for r in self.regions)

    @property
    def net_delay_s(self) -> float:
        """Summed interconnect delay over all delivered requests."""
        return sum(r.delay_s for r in self.regions)

    @property
    def remote_frac(self) -> float:
        """Fraction of requests served outside their home region."""
        remote = sum(r.remote for r in self.regions)
        return remote / self.requests if self.requests else 0.0

    @property
    def retried(self) -> int:
        """Cross-region failover retries (double-charged NETWORK legs
        under a resilience policy)."""
        return sum(r.retried for r in self.regions)

    def _shape_columns(self) -> dict:
        return {"geo": self.geo, "regions": len(self.regions)}

    def _load_columns(self) -> dict:
        n = self.requests
        columns = {
            "usd_per_req": self.cost_usd / n if n else 0.0,
            "net_delay_us": self.net_delay_s / n * 1e6 if n else 0.0,
            "remote_frac": self.remote_frac,
        }
        if self.resilience:
            columns["retried"] = self.retried
        return columns

    def region_rows(self) -> list[dict]:
        """Per-region reporting rows: SLO attainment and $/J economics
        — the dashboard's geo section and the CLI's region table."""
        total = self.requests
        rows = []
        for region in self.regions:
            outcome = region.outcome
            served = outcome.requests
            row = {
                "region": region.region,
                "accelerator": region.accelerator,
                "replicas": region.replicas,
                "requests": served,
                "share": served / total if total else 0.0,
                "p50_us": (outcome.digest.percentile(50) * 1e6
                           if served else 0.0),
                "p95_us": (outcome.digest.percentile(95) * 1e6
                           if served else 0.0),
                "energy_per_req_uj": (outcome.energy / served * 1e6
                                      if served else 0.0),
                "usd_per_mj": region.price,
                "usd_per_req": (region.cost_usd / served
                                if served else 0.0),
                "net_delay_us": (region.delay_s / served * 1e6
                                 if served else 0.0),
                "remote_frac": (region.remote / served
                                if served else 0.0),
                "rerouted": region.rerouted,
            }
            if self.resilience:
                row["retried"] = region.retried
            if self.slo_target:
                row["slo_attain"] = region.slo_attainment
            rows.append(row)
        return rows

    def region_trace_rows(self) -> list[dict]:
        """The per-region summaries as ``ev: "region"`` telemetry rows
        (stamped at run end), ready to append to a saved trace."""
        at = self.last_done if self.requests else 0.0
        return [{"t": at, "ev": "region", "run": 0,
                 "scenario": self.scenario, "policy": self.policy,
                 "geo": self.geo, **row}
                for row in self.region_rows()]


class GeoRouter:
    """Fan one logical serving run out across geo regions.

    Args:
        regions: a region count (drawn from :data:`STOCK_REGIONS`) or
            an explicit sequence of :class:`RegionSpec`.
        topology / bandwidth_gbps / base_latency_us / payload_bytes:
            the interconnect (:class:`~repro.serving.interconnect.
            Interconnect`).
        geo: region-routing policy — a :data:`~repro.serving.policies.
            GEO_POLICIES` name or a :class:`~repro.serving.policies.
            GeoDispatchPolicy` instance.
        storms: region-granularity outage windows to sample
            (:class:`~repro.serving.policies.RegionFailurePlan`);
            arrivals for a dark region reroute to the nearest healthy
            one.
        policy / batch_size / dispatch / slo_us: each region engine's
            batching, replica dispatch and SLO — identical across
            regions so cells stay comparable.
        mode / max_workers: the :func:`~repro.runtime.executor.
            parallel_map` pool (one worker per region).
        detail: keep per-request arrays and merge a full bit-exact
            :class:`~repro.serving.simulator.ServingResult` (the
            zero-drift proof path).
        trace / tick / trace_events: per-region telemetry, rows tagged
            with their region name.
        resilience: client resilience policy spec (``"retry"`` /
            ``"hedge"`` / ``"degrade"``, with ``name:key=value``
            options) applied inside every region engine; a storm
            reroute then also charges the failed NETWORK leg as a
            cross-region failover retry.
        prewarm: warm-start the fleet (the default).  The parent
            resolves every region backend's layer cells once through
            a shared memo, snapshots the totals, and broadcasts the
            snapshot to region workers through the pool initializer;
            the outage windows and the global delivery span are
            resolved once in the parent and shipped in the spec, so
            no worker repeats the O(n) routing scans.  All of it is
            exact — warm results are bit-identical to cold.
        snapshot: a pre-built :class:`~repro.serving.memo.
            MemoSnapshot` installed into the parent's warm cache up
            front (e.g. the persisted memo pool).
        memo_cache: the shared parent-side
            :class:`~repro.serving.memo.LayerMemoCache` to calibrate
            and prewarm through across runs (the ``--persist-memo``
            path); default a fresh private one.

    Raises:
        ConfigError: from :func:`validate_geo` for malformed fleets.
    """

    def __init__(self, regions: int | Sequence[RegionSpec], *,
                 topology: str = "mesh", bandwidth_gbps: float = 10.0,
                 base_latency_us: float = 50.0,
                 payload_bytes: int = REQUEST_BYTES,
                 geo: object = "home", storms: int = 0,
                 policy: str = "timeout", batch_size: int = 8,
                 dispatch: str = "round_robin", slo_us: float = 0.0,
                 mode: str = "process",
                 max_workers: Optional[int] = None,
                 detail: bool = False, trace: bool = False,
                 tick: float = 200e-6,
                 trace_events: bool = False,
                 resilience: str = "",
                 prewarm: bool = True,
                 snapshot: Optional[MemoSnapshot] = None,
                 memo_cache: Optional[LayerMemoCache] = None) -> None:
        if isinstance(regions, int):
            regions = default_regions(regions)
        self.regions: tuple[RegionSpec, ...] = tuple(regions)
        validate_geo(self.regions, geo=geo, topology=topology,
                     bandwidth_gbps=bandwidth_gbps,
                     base_latency_us=base_latency_us,
                     payload_bytes=payload_bytes, storms=storms)
        make_policy(policy, batch_size=batch_size)  # fail fast
        # normalise "none"/"" to the empty spec so rows stay clean
        self.resilience = \
            resilience if make_resilience(resilience) is not None else ""
        self.topology = topology
        self.bandwidth_gbps = bandwidth_gbps
        self.base_latency_us = base_latency_us
        self.payload_bytes = payload_bytes
        self.geo = make_geo(geo).name
        self.storms = storms
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
        self.prewarm = prewarm
        self._warm_cache = (memo_cache if memo_cache is not None
                            else LayerMemoCache())
        if snapshot is not None:
            snapshot.install(self._warm_cache)

    def run_scenario(self, scenario: Scenario | str, n_requests: int,
                     seed: int = 0) -> GeoResult:
        """Calibrate regions, fan the routing scan out, and merge."""
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        if n_requests < 1:
            raise ConfigError("trace needs at least one request")
        fleet = self.regions
        count = len(fleet)
        # per-region calibration: each region's own accelerator and
        # pool set its capacity, exactly as the monolithic path would
        # calibrate that region alone — the single-region zero-drift
        # anchor depends on this equality
        calibrators = [
            ServingSimulator(
                accelerator=spec.accelerator, replicas=spec.replicas,
                policy=make_policy(self.policy,
                                   batch_size=self.batch_size),
                dispatch=self.dispatch,
                # one shared memo across the fleet: the structural
                # keying separates backends, and everything it
                # accumulates feeds the broadcast snapshot
                cache=self._warm_cache,
            )
            for spec in fleet
        ]
        capacities = tuple(cal.capacity_rps(scenario)
                           for cal in calibrators)
        rates = tuple(scenario.load * cap for cap in capacities)
        counts = _split_counts(n_requests, capacities)
        seeds = (seed,) if count == 1 else shard_seeds(seed, count)
        bases = tuple(sum(counts[:i]) for i in range(count))
        # static estimates for the energy-price-aware policy: a full
        # batch's service time and per-request energy on each region's
        # backend, mix-weighted through the same memo the engine uses
        fractions = scenario.mix.fractions()
        batch = calibrators[0].policy.max_batch
        energies = tuple(
            sum(frac * cal.cache.energy_total(cal.accelerator,
                                              cal.network(model),
                                              batch) / batch
                for model, frac in fractions.items())
            for cal in calibrators
        )
        batch_lats = tuple(
            batch * fleet[i].replicas / capacities[i]
            for i in range(count)
        )
        total_rate = sum(rates)
        spec = {
            # the Scenario object itself (frozen, picklable) so custom
            # scenarios — phase-shifted, bespoke mixes — survive the
            # trip to worker processes without a registry round-trip
            "scenario": scenario,
            "regions": tuple(
                (s.name, s.accelerator, s.replicas, s.price, s.tz)
                for s in fleet),
            "topology": self.topology,
            "bandwidth_gbps": self.bandwidth_gbps,
            "base_latency_us": self.base_latency_us,
            "payload_bytes": self.payload_bytes,
            "geo": self.geo, "storms": self.storms,
            "rates": rates, "counts": counts, "seeds": seeds,
            "bases": bases, "capacities": capacities,
            "energies": energies, "batch_lats": batch_lats,
            # a ~100-request observation window for spillover's
            # assigned-rate estimate, scaled to the offered rate
            "window_s": 100.0 / max(total_rate, 1e-12),
            "policy": self.policy, "batch_size": self.batch_size,
            "dispatch": self.dispatch, "slo_us": self.slo_us,
            "seed": seed, "detail": self.detail, "trace": self.trace,
            "tick": self.tick, "trace_events": self.trace_events,
            "resilience": self.resilience,
        }
        snapshot: Optional[MemoSnapshot] = None
        if self.prewarm:
            # warm every region backend's layer cells through the
            # shared memo, then resolve the plan-level scans — outage
            # windows and the global delivery span — once instead of
            # once per worker; all pure functions of the plan, so
            # workers get the identical values they would recompute
            for cal in calibrators:
                cal.prewarm(scenario)
            snapshot = MemoSnapshot.from_cache(self._warm_cache)
            outages: tuple = ()
            if self.storms:
                first, last = _arrival_span(spec)
                outages = RegionFailurePlan(
                    count=self.storms, seed=seed,
                ).resolve(first, last, count)
            spec["outages"] = outages
            spec["span"] = _delivery_span(spec, outages)
            spec["warm_cells"] = tuple(
                (model, b)
                for model in sorted(scenario.mix.models())
                for b in range(1, calibrators[0].policy.max_batch + 1)
            )
        specs = [dict(spec, region=i) for i in range(count)]
        t_start = perf_counter()
        regions = tuple(parallel_map(_serve_geo_region,
                                     [(s,) for s in specs],
                                     mode=self.mode,
                                     max_workers=self.max_workers,
                                     payload=({"memo": snapshot}
                                              if snapshot is not None
                                              else None)))
        wall = perf_counter() - t_start
        return GeoResult.merge(
            tuple(region.outcome for region in regions),
            detail=self.detail,
            accelerator=(fleet[0].accelerator if count == 1
                         else f"geo[{count}]"),
            replicas=sum(region.replicas for region in fleet),
            scenario=scenario.name, policy=self.policy,
            dispatch=self.dispatch, rate=total_rate,
            slo_target=self.slo_us * 1e-6, wall_s=wall,
            resilience=self.resilience, geo=self.geo,
            topology=self.topology, storms=self.storms, regions=regions,
        )
