"""Serving layer: sessions (real tokens, simulated clocks) and servers.

Two servers share the same workload/stats types: the paper's batch-1
``LocalServer`` and the iteration-level ``ContinuousBatchingServer``
(optionally priority-aware with swap/recompute preemption, and
optionally session-aware via the radix prefix-KV cache and host KV
tier in :mod:`repro.serving.prefix_cache`).
"""

from .continuous import (
    BatchCostModel,
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    StepKey,
    serving_expert_cache,
)
from .controller import (
    ControllerConfig,
    ControllerStats,
    KnobDecision,
    OnlineController,
)
from .fleet import (
    ROUTING_POLICIES,
    FleetConfig,
    FleetRouter,
    FleetStats,
    RoutingWeightAdapter,
    RoutingWeightConfig,
)
from .metrics import (
    BatchTimeline,
    CachePoint,
    CounterSection,
    ExpertCacheTimeline,
    FaultStats,
    GraphStats,
    PipelineStats,
    PreemptionStats,
    RequestTiming,
    RollingWindow,
    ServingSLO,
    ServingStats,
    SessionStats,
    ShedRecord,
    TimelinePoint,
    percentile,
    percentiles,
)
from .prefix_cache import (
    KVTierConfig,
    MatchProbe,
    PrefixCacheConfig,
    RadixPrefixCache,
)
from .priority import Priority, PriorityConfig
from .resilience import DegradationTracker, ResilienceConfig, RetryState
from .server import (
    LocalServer,
    TimedRequest,
    multi_turn_workload,
    poisson_workload,
)
from .session import (
    GenerationRequest,
    GenerationResult,
    InferenceSession,
    PhaseCostModel,
)
from .traffic import (
    TrafficPhase,
    diurnal_workload,
    flash_crowd_workload,
    hot_set_shift_workload,
    three_phase_scenario,
)

__all__ = [
    "BatchCostModel", "BatchSchedulerConfig", "ContinuousBatchingServer",
    "StepKey", "serving_expert_cache",
    "ControllerConfig", "ControllerStats", "KnobDecision",
    "OnlineController",
    "FleetConfig", "FleetRouter", "FleetStats", "ROUTING_POLICIES",
    "RoutingWeightAdapter", "RoutingWeightConfig",
    "BatchTimeline", "CachePoint", "CounterSection", "ExpertCacheTimeline",
    "FaultStats",
    "GraphStats", "PipelineStats", "PreemptionStats", "RequestTiming",
    "RollingWindow", "ServingSLO",
    "ServingStats", "SessionStats",
    "ShedRecord", "TimelinePoint", "percentile", "percentiles",
    "KVTierConfig", "MatchProbe", "PrefixCacheConfig", "RadixPrefixCache",
    "Priority", "PriorityConfig",
    "DegradationTracker", "ResilienceConfig", "RetryState",
    "LocalServer", "TimedRequest", "multi_turn_workload", "poisson_workload",
    "GenerationRequest", "GenerationResult", "InferenceSession",
    "PhaseCostModel",
    "TrafficPhase", "diurnal_workload", "flash_crowd_workload",
    "hot_set_shift_workload", "three_phase_scenario",
]
