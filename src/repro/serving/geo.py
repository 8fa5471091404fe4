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
engine state — so the parent routes once and ships each region its
deliveries.  The single routing scan walks compact per-region
``(arrival, home, request_id, model)`` admission streams whose model
draws replay :func:`~repro.serving.workload.stream_trace`'s, and a
heap of NETWORK deliveries (ordered like an :class:`~repro.serving.
events.EventQueue`: delivery instant, then admission order) re-sorts
admissions into delivery order with bounded buffering: a delivery can
pop as soon as the scan's current admission time passes it, because
every future delivery lands no earlier than its own (future)
admission.  Each region worker receives only its own
delivery columns and rebuilds the exact :class:`~repro.serving.
workload.Request`\\ s the regional trace would carry, re-stamped with
their delivery instant.

The zero-drift anchor: with one region and stock policies the
regional stream *is* the global trace (same seed, same rate, zero
interconnect delay), so the geo path is bit-identical to the plain
:class:`~repro.serving.simulator.ServingSimulator` run — per-request
latencies and energies — on every stock scenario x policy cell
(``tests/test_serving_geo.py`` holds it there).
"""

from __future__ import annotations

import heapq
import itertools
import math
import random as _random
from array import array
from collections import deque
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Iterator, Optional, Sequence

from repro.errors import ConfigError
from repro.runtime.executor import parallel_map
from repro.serving.batching import make_policy
from repro.serving.events import FailurePlan
from repro.serving.interconnect import REQUEST_BYTES, Interconnect
from repro.serving.memo import LayerMemoCache, MemoSnapshot
from repro.serving.policies import (
    GeoDispatchPolicy,
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
    burn_draws,
    get_scenario,
    shard_seeds,
    trace_span,
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
    state — which is what lets one routing scan in the parent serve
    every region.  The interconnect is static too, so its hop counts and
    payload delays are tabulated once per scan (``hop_table`` /
    ``delay_table``, keyed ``(src, dst)``) from the same
    :class:`~repro.serving.interconnect.Interconnect` calls.
    """

    __slots__ = ("regions", "slo", "hop_table", "delay_table",
                 "_capacities", "_prices", "_energies", "_batch_lats",
                 "_tz", "_icx", "_payload", "_amp", "_cycles",
                 "_base_phase", "_duration", "_window", "_assigned")

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
        pairs = [(src, dst) for src in range(self.regions)
                 for dst in range(self.regions)]
        self.hop_table = {pair: icx.hops(*pair) for pair in pairs}
        self.delay_table = {pair: icx.delay(*pair, self._payload)
                            for pair in pairs}
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
        try:
            return self.hop_table[src, dst]
        except KeyError:  # out of range: the interconnect's ConfigError
            return self._icx.hops(src, dst)

    def delay(self, src: int, dst: int) -> float:
        try:
            return self.delay_table[src, dst]
        except KeyError:
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
        return len(self._window_at(i, t)) / self._window

    def record(self, i: int, t: float) -> None:
        """Note one request assigned to region ``i`` at ``t``."""
        self._window_at(i, t).append(t)

    def _window_at(self, i: int, t: float) -> deque:
        """Region ``i``'s assignment instants inside the window ending
        at ``t``.  The scan's clock never runs backwards, so expired
        instants can go for good — recording prunes too, which keeps
        the window O(window) for policies that never read it."""
        assigned = self._assigned[i]
        horizon = t - self._window
        while assigned and assigned[0] < horizon:
            assigned.popleft()
        return assigned


def _down(outages, region: int, t: float) -> bool:
    return any(o.region == region and o.at <= t < o.until
               for o in outages)


def _admission_streams(spec: dict) -> list:
    """Per-region ``(arrival, home, request_id, model)`` streams.

    The model draws replay :func:`~repro.serving.workload.
    stream_trace`'s two-RNG scheme, so each tuple names exactly the
    request the regional trace carries without building it: ids are
    globally unique (region id bases) and ``model`` indexes
    ``spec["models"]``.
    """
    scenario = spec["scenario"]
    index = {name: k for k, name in enumerate(spec["models"])}

    def gen(i: int) -> Iterator[tuple[float, int, int, int]]:
        regional = _region_scenario(scenario, spec["regions"][i][4])
        process = regional.process(spec["rates"][i])
        n, seed = spec["counts"][i], spec["seeds"][i]
        rng_models = _random.Random(seed)
        burn_draws(process, n, rng_models)
        sample = regional.mix.sampler()
        rng_times = _random.Random(seed)
        for rid, t in enumerate(process.times(n, rng_times),
                                spec["bases"][i]):
            yield (t, i, rid, index[sample(rng_models)])

    return [gen(i) for i in range(len(spec["regions"]))]


def _uint_code(limit: int) -> str:
    """The narrowest unsigned array typecode for values below ``limit``."""
    return next(code for code in "BHIQ"
                if limit <= 1 << 8 * array(code).itemsize)


def _route_scan(spec: dict, geo: GeoDispatchPolicy, outages) -> tuple:
    """Route the whole fleet once, in delivery order.

    Merges the regional admission streams, asks ``geo`` for each
    request's serving region, charges the interconnect delay, and
    re-sorts through the NETWORK delivery heap: a queued delivery pops
    once the scan's admission clock passes it (future deliveries can
    never land earlier than their own future admissions), and the
    heap drains fully at stream end.  Returns ``(columns, ledgers,
    span)``:

    - ``columns[i]``: region ``i``'s deliveries in delivery order as
      compact ``(request_id, model, deliver, home)`` arrays;
    - ``ledgers[i]``: region ``i``'s network ledger — ``offered``
      (admitted at home), and over the requests it serves ``remote``,
      ``rerouted``, ``retried`` and the delay sum ``delay_s``,
      accumulated in delivery order;
    - ``span``: the global (first, last) delivery instant.

    With a resilience policy on, a storm reroute is modelled as a
    client *failover retry*: the request first travels to the dark
    region (the failed leg), times out, and is re-sent to the healthy
    one — both legs are charged through the NETWORK delay, and the
    ledger's ``retried`` counts the double charge.  Without resilience
    the reroute is a silent redirect (single leg).
    """
    regions = len(spec["regions"])
    icx = Interconnect(regions=regions, topology=spec["topology"],
                       bandwidth_gbps=spec["bandwidth_gbps"],
                       base_latency_us=spec["base_latency_us"])
    view = _RouterView(spec, icx)
    hops, delays = view.hop_table, view.delay_table
    geo.reset(view)
    res_on = bool(spec["resilience"])
    codes = (_uint_code(sum(spec["counts"])),
             _uint_code(len(spec["models"])), "d", _uint_code(regions))
    columns = [tuple(array(code) for code in codes)
               for _ in range(regions)]
    ledgers = [{"offered": 0, "remote": 0, "rerouted": 0, "retried": 0,
                "delay_s": 0.0} for _ in range(regions)]
    # the NETWORK delivery queue: raw (deliver, admission seq, ...)
    # heap entries, so same-instant deliveries pop in admission order
    queue: list = []
    seq = itertools.count()

    def deliver_until(t: float) -> None:
        while queue and queue[0][0] <= t:
            deliver, _, serve, home, delay, rid, model = \
                heapq.heappop(queue)
            ids, models, delivers, homes = columns[serve]
            ids.append(rid)
            models.append(model)
            delivers.append(deliver)
            homes.append(home)
            ledgers[serve]["delay_s"] += delay

    # admissions merge by (instant, home); ids ascend within a home
    for t, home, rid, model in heapq.merge(*_admission_streams(spec)):
        deliver_until(t)
        serve = geo.route(t, home, view)
        if not 0 <= serve < regions:
            raise ConfigError(
                f"geo policy '{geo.name}' routed to region {serve} "
                f"outside [0, {regions})"
            )
        ledgers[home]["offered"] += 1
        failed_leg = 0.0
        if outages and _down(outages, serve, t):
            live = [i for i in range(regions)
                    if not _down(outages, i, t)]
            if live:
                healthy = min(live, key=lambda i: (hops[home, i], i))
                if res_on:
                    # the failed attempt's transfer is real: charge
                    # the leg to the dark region before the retry leg
                    failed_leg = delays[home, serve]
                    ledgers[healthy]["retried"] += 1
                serve = healthy
                ledgers[serve]["rerouted"] += 1
        if serve != home:
            ledgers[serve]["remote"] += 1
        view.record(serve, t)
        delay = failed_leg + delays[home, serve]
        heapq.heappush(queue, (t + delay, next(seq), serve, home, delay,
                               rid, model))
    deliver_until(math.inf)
    delivered = [column[2] for column in columns if column[2]]
    span = (min(d[0] for d in delivered), max(d[-1] for d in delivered))
    return columns, ledgers, span


def _arrival_span(spec: dict) -> tuple[float, float]:
    """Global (first, last) admission instant over every region."""
    spans = [trace_span(_region_scenario(spec["scenario"], region[4]),
                        rate, n, seed)
             for region, rate, n, seed in zip(
                 spec["regions"], spec["rates"], spec["counts"],
                 spec["seeds"])]
    return (min(first for first, _ in spans),
            max(last for _, last in spans))


@dataclass(frozen=True)
class RegionOutcome:
    """One region's summary: engine outcome + network ledger.

    ``outcome`` is the exact per-shard summary the sharded merge
    understands (region == shard), from the region's worker; the
    extra fields are the geo tier's network accounting for the
    region, from the parent's routing scan.
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


def _serve_geo_region(spec: dict) -> ShardOutcome:
    """Serve one region of a geo run (runs in a worker process).

    The parent has already routed the fleet: the spec carries only
    this region's delivery columns, from which the worker rebuilds the
    exact regional :class:`~repro.serving.workload.Request`\\ s (home
    region tag, delivery instant as arrival) and feeds them to an
    independent cluster engine, pinned to the *global* delivery span
    so all regions drain at the same horizon.
    """
    t_start = perf_counter()
    me = spec["region"]
    name, accelerator, replicas, _price, _tz = spec["regions"][me]
    scenario = spec["scenario"]
    sim = _worker_simulator(spec, accelerator, replicas)
    ids, models, delivers, homes = spec["deliveries"]
    home_names = tuple(region[0] for region in spec["regions"])
    stream = map(Request, ids, map(spec["models"].__getitem__, models),
                 delivers, map(home_names.__getitem__, homes))
    return _fold_worker(
        spec, sim, scenario, stream, shard=me,
        rate=spec["rates"][me], span=spec["span"], t_start=t_start,
        tag={"region": name},
        failures=(FailurePlan(count=scenario.faults,
                              seed=spec["seeds"][me])
                  if scenario.faults else None),
        regions=len(spec["regions"]), geo=spec["geo"],
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
            GeoDispatchPolicy` instance, which routes as given (rows
            carry its ``name``).
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
            snapshot to region workers through the pool initializer,
            with the warm cells each engine pre-resolves.  It is
            exact — warm results are bit-identical to cold.  Routing
            does not depend on it: warm or cold, the parent runs the
            one routing scan and ships each region its deliveries.
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
        self._geo_policy = make_geo(geo)
        self.geo = self._geo_policy.name
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
        """Calibrate regions, route once, fan the regions out, merge."""
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
            "geo": self.geo, "models": scenario.mix.models(),
            "rates": rates, "counts": counts, "seeds": seeds,
            "bases": bases, "capacities": capacities,
            "energies": energies, "batch_lats": batch_lats,
            # a ~100-request observation window for spillover's
            # assigned-rate estimate, scaled to the offered rate
            "window_s": 100.0 / max(total_rate, 1e-12),
            "policy": self.policy, "batch_size": self.batch_size,
            "dispatch": self.dispatch, "slo_us": self.slo_us,
            "detail": self.detail, "trace": self.trace,
            "tick": self.tick, "trace_events": self.trace_events,
            "resilience": self.resilience,
        }
        outages: tuple = ()
        if self.storms:
            first, last = _arrival_span(spec)
            outages = RegionFailurePlan(
                count=self.storms, seed=seed,
            ).resolve(first, last, count)
        columns, ledgers, spec["span"] = _route_scan(
            spec, self._geo_policy, outages)
        snapshot: Optional[MemoSnapshot] = None
        if self.prewarm:
            # warm every region backend's layer cells through the
            # shared memo and broadcast the snapshot to the workers
            for cal in calibrators:
                cal.prewarm(scenario)
            snapshot = MemoSnapshot.from_cache(self._warm_cache)
            spec["warm_cells"] = tuple(
                (model, b)
                for model in sorted(scenario.mix.models())
                for b in range(1, calibrators[0].policy.max_batch + 1)
            )
        specs = [dict(spec, region=i, deliveries=columns[i])
                 for i in range(count)]
        t_start = perf_counter()
        outcomes = tuple(parallel_map(_serve_geo_region,
                                      [(s,) for s in specs],
                                      mode=self.mode,
                                      max_workers=self.max_workers,
                                      payload=({"memo": snapshot}
                                               if snapshot is not None
                                               else None)))
        wall = perf_counter() - t_start
        regions = tuple(
            RegionOutcome(
                region=region.name, index=i,
                accelerator=region.accelerator,
                replicas=region.replicas, price=region.price,
                capacity_rps=capacities[i], rate_rps=rates[i],
                outcome=outcome, **ledgers[i])
            for i, (region, outcome) in enumerate(zip(fleet, outcomes)))
        return GeoResult.merge(
            outcomes,
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
