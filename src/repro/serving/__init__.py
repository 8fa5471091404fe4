"""Request-serving simulation on top of the accelerator models.

The production-facing layer: request traffic (Poisson / bursty / ramp
/ diurnal arrivals over the model zoo), dynamic batching, clusters of
homogeneous or mixed accelerator replicas, and a control plane —
SLO-aware autoscaling, failure injection with batch re-dispatch, and
admission control — all running on the discrete-event engine in
:mod:`repro.serving.events`.  Scheduling decisions (replica dispatch,
flush ordering, scaling, admission, work stealing) are pluggable
policies from :mod:`repro.serving.policies`.  A layer-result memo
cache keeps million-request traces cheap, and can persist its totals
across runs through the runtime result cache.

For million-request scale, traces stream (:func:`stream_trace`,
bit-identical to :func:`generate_trace` with O(1) requests resident)
and :class:`ShardedEngine` (:mod:`repro.serving.sharding`) fans a
deterministically sharded trace across worker processes, merging
exact counters plus a mergeable latency digest back into one
:class:`FleetResult`.

On top of the cluster sits the geo tier (:mod:`repro.serving.geo`):
a :class:`GeoRouter` routes region-tagged traffic over a static
:class:`Interconnect` (ring / mesh / tree) to per-region engines,
charging deterministic network delay, and merge-reduces the regional
outcomes with the same merge the sharded engine uses into a
:class:`GeoResult` (a :class:`FleetResult` plus the geo economics).
"""

from repro.serving.batching import (
    FixedSizeBatching,
    POLICIES,
    TimeoutBatching,
    make_policy,
)
from repro.serving.events import (
    AutoscalePolicy,
    ClusterEngine,
    DISPATCH_STRATEGIES,
    Event,
    EventKind,
    EventQueue,
    FailurePlan,
    Outage,
    Replica,
    SloPolicy,
)
from repro.serving.geo import (
    GeoResult,
    GeoRouter,
    RegionOutcome,
    RegionSpec,
    STOCK_REGIONS,
    default_regions,
    validate_geo,
)
from repro.serving.interconnect import (
    Interconnect,
    REQUEST_BYTES,
    TOPOLOGIES,
)
from repro.serving.memo import (
    CacheStats,
    Interner,
    LayerMemoCache,
    MemoSnapshot,
    load_persistent_memo,
    prewarm_cache,
    store_persistent_memo,
)
from repro.serving.policies import (
    AdmissionPolicy,
    CheapestJouleDispatch,
    DISPATCH_POLICIES,
    DegradePolicy,
    DepthAdmission,
    DispatchPolicy,
    EdfFlush,
    FLUSH_POLICIES,
    FastestFinishDispatch,
    FifoFlush,
    FlushPolicy,
    FollowSunDispatch,
    ForecastScalePolicy,
    GEO_POLICIES,
    GeoDispatchPolicy,
    HedgePolicy,
    HomeRegionDispatch,
    LeastLoadedDispatch,
    RESILIENCE_POLICIES,
    ReactiveScalePolicy,
    RegionFailurePlan,
    RegionOutage,
    ResiliencePolicy,
    RetryPolicy,
    RoundRobinDispatch,
    ScalePolicy,
    ShardDispatch,
    SpilloverDispatch,
    WorkStealPolicy,
    make_dispatch,
    make_flush,
    make_geo,
    make_resilience,
    make_scale,
)
from repro.serving.sharding import (
    FleetResult,
    LatencyDigest,
    ShardOutcome,
    ShardedEngine,
    validate_sharding,
)
from repro.serving.simulator import (
    BatchRecord,
    ServingResult,
    ServingSimulator,
)
from repro.serving.telemetry import (
    TRACE_SCHEMA,
    Telemetry,
    load_trace,
)
from repro.serving.workload import (
    ARRIVAL_SHAPES,
    BurstyProcess,
    DiurnalProcess,
    ModelMix,
    PoissonProcess,
    RampProcess,
    Request,
    SCENARIOS,
    Scenario,
    TraceShard,
    burn_draws,
    generate_trace,
    get_scenario,
    shard_key,
    shard_seeds,
    shard_trace,
    stream_trace,
    trace_span,
)

__all__ = [
    "ARRIVAL_SHAPES",
    "AdmissionPolicy",
    "AutoscalePolicy",
    "BatchRecord",
    "BurstyProcess",
    "CacheStats",
    "CheapestJouleDispatch",
    "ClusterEngine",
    "DISPATCH_POLICIES",
    "DISPATCH_STRATEGIES",
    "DegradePolicy",
    "DepthAdmission",
    "DispatchPolicy",
    "DiurnalProcess",
    "EdfFlush",
    "Event",
    "EventKind",
    "EventQueue",
    "FLUSH_POLICIES",
    "FailurePlan",
    "FastestFinishDispatch",
    "FifoFlush",
    "FixedSizeBatching",
    "FleetResult",
    "FlushPolicy",
    "FollowSunDispatch",
    "ForecastScalePolicy",
    "GEO_POLICIES",
    "GeoDispatchPolicy",
    "GeoResult",
    "GeoRouter",
    "HedgePolicy",
    "HomeRegionDispatch",
    "Interconnect",
    "Interner",
    "LatencyDigest",
    "LayerMemoCache",
    "LeastLoadedDispatch",
    "MemoSnapshot",
    "ModelMix",
    "Outage",
    "POLICIES",
    "PoissonProcess",
    "REQUEST_BYTES",
    "RESILIENCE_POLICIES",
    "RampProcess",
    "ReactiveScalePolicy",
    "RegionFailurePlan",
    "RegionOutage",
    "RegionOutcome",
    "RegionSpec",
    "Replica",
    "Request",
    "ResiliencePolicy",
    "RetryPolicy",
    "RoundRobinDispatch",
    "SCENARIOS",
    "STOCK_REGIONS",
    "ScalePolicy",
    "Scenario",
    "ServingResult",
    "ServingSimulator",
    "ShardDispatch",
    "ShardOutcome",
    "ShardedEngine",
    "SloPolicy",
    "SpilloverDispatch",
    "TOPOLOGIES",
    "TRACE_SCHEMA",
    "Telemetry",
    "TimeoutBatching",
    "TraceShard",
    "WorkStealPolicy",
    "burn_draws",
    "default_regions",
    "generate_trace",
    "get_scenario",
    "load_persistent_memo",
    "load_trace",
    "make_dispatch",
    "make_flush",
    "make_geo",
    "make_policy",
    "make_resilience",
    "make_scale",
    "prewarm_cache",
    "shard_key",
    "shard_seeds",
    "shard_trace",
    "store_persistent_memo",
    "stream_trace",
    "trace_span",
    "validate_geo",
    "validate_sharding",
]
