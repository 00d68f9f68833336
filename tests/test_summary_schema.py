"""Ordered summary schema: which keys each feature adds, and in what order.

Value goldens and ``dict ==`` comparisons ignore key order, but the
serving benches ``json.dumps`` summaries without ``sort_keys``, so the
order of the keys is part of every ``BENCH_*.json`` byte.  Each config
below turns on one feature (or a fleet); the test pins the summary's
key list in order and checks that every section whose feature is off
stays ``None`` on the stats.
"""

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    ReplicaFault,
    canonical_chaos_plan,
)
from repro.model import DS3, QW2, MoETransformer, tiny_config
from repro.sched.cuda_graph import GraphCacheConfig
from repro.serving import (
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    ControllerConfig,
    FleetConfig,
    FleetRouter,
    InferenceSession,
    KVTierConfig,
    PrefixCacheConfig,
    Priority,
    PriorityConfig,
    ResilienceConfig,
    ServingSLO,
    multi_turn_workload,
    poisson_workload,
    serving_expert_cache,
)
from repro.tensor import BF16

SESSION = InferenceSession(MoETransformer(tiny_config("tiny-qw")), DS3)
SESSION_QW2 = InferenceSession(MoETransformer(tiny_config("tiny-qw")), QW2)

SECTIONS = ("expert_cache", "faults", "preemptions", "graphs", "sessions",
            "pipeline", "controller")

BASE = ("requests", "ttft_p50_ms", "ttft_p95_ms", "ttft_p99_ms",
        "tpot_p50_ms", "tpot_p95_ms", "tpot_p99_ms", "queue_p95_ms",
        "tokens_per_s", "requests_per_s")
CACHE = ("cache_hit_rate", "cache_evictions", "cache_uploads",
         "cache_bytes_transferred_mb", "cache_stall_ms")
FAULT = ("fault_upload_failures", "fault_retries_attempted",
         "fault_retries_succeeded", "fault_retries_abandoned",
         "fault_shed_requests", "fault_timed_out_requests",
         "fault_degraded_entries", "fault_degraded_iterations",
         "fault_recoveries", "fault_mean_recovery_ms", "fault_stall_ms")
PREEMPT = ("preempt_total", "preempt_swaps", "preempt_recomputes",
           "preempt_resumes", "preempt_swap_out_mb", "preempt_swap_in_mb",
           "preempt_swap_stall_ms", "preempt_recompute_tokens",
           "preempt_shed_while_preempted")
GRAPH = ("graph_captures", "graph_replays", "graph_evictions",
         "graph_capture_stall_ms", "graph_padding_tokens",
         "grouped_gemm_iterations", "grouped_gemm_per_expert_iterations",
         "grouped_gemm_launches_saved")
SESSIONS = ("prefix_hits", "prefix_misses", "prefix_prompt_tokens",
            "prefix_tokens_avoided", "prefix_reuse_fraction",
            "prefix_inserted_tokens", "prefix_evicted_tokens",
            "prefix_peak_gpu_tokens", "tier_parked_tokens",
            "tier_unparked_tokens", "tier_dropped_host_tokens",
            "tier_swap_out_mb", "tier_swap_in_mb", "tier_swap_in_stall_ms",
            "tier_prefetch_hits", "tier_peak_host_tokens")
PIPELINE = ("pipeline_stages", "pipeline_iterations", "pipeline_serial_ms",
            "pipeline_staged_ms", "pipeline_interstage_ms",
            "pipeline_step_speedup")
CTRL = ("ctrl_windows", "ctrl_moves", "ctrl_rollbacks")
CLASSES = tuple(f"{cls}_{key}" for cls in ("interactive", "batch")
                for key in ("requests", "ttft_p50_ms", "ttft_p95_ms",
                            "tpot_p50_ms", "tpot_p95_ms"))
FLEET = ("fleet_replicas", "fleet_kills", "fleet_drains",
         "fleet_killed_in_flight", "fleet_resubmitted", "fleet_shed_on_kill",
         "fleet_affinity_hits", "fleet_affinity_rebalances",
         "fleet_spill_routed", "fleet_deferred_arrivals",
         "fleet_routed_imbalance")


def poisson(n=8, gap=5e5):
    return poisson_workload(n, gap, prompt_len=16, max_new_tokens=4,
                            vocab_size=64, seed=1)


def mixed():
    """BATCH hogs first, INTERACTIVE arrivals behind them: preempts."""
    batch = poisson_workload(4, 2e5, prompt_len=48, max_new_tokens=16,
                             vocab_size=64, seed=1, priority=Priority.BATCH)
    inter = poisson_workload(4, 3e6, prompt_len=8, max_new_tokens=4,
                             vocab_size=64, seed=2,
                             priority=Priority.INTERACTIVE)
    return batch + inter


def turns():
    return multi_turn_workload(n_sessions=3, n_turns=3, system_tokens=16,
                               user_tokens=8, assistant_tokens=8,
                               max_new_tokens=4, vocab_size=64,
                               mean_think_us=2e6, service_allowance_us=1e6,
                               seed=2)


def cache():
    return serving_expert_cache(SESSION,
                                vram_budget_bytes=16 * DS3.expert_bytes(BF16))


def server(session=SESSION, sched=None, **features):
    cfg = dict(kv_budget_tokens=512, max_batch_size=4)
    cfg.update(sched or {})
    return ContinuousBatchingServer(session, BatchSchedulerConfig(**cfg),
                                    **features)


# name -> (server factory, workload factory, sections on, ordered keys)
CASES = {
    "bare": (lambda: server(), poisson, (), BASE),
    "expert_cache": (lambda: server(expert_cache=cache()), poisson,
                     ("expert_cache",), BASE + CACHE),
    "resilience_only": (
        lambda: server(resilience=ResilienceConfig(decode_timeout_us=60e6)),
        poisson, ("faults",), BASE + FAULT),
    "naive_injector": (
        lambda: server(expert_cache=cache(),
                       fault_injector=FaultInjector(canonical_chaos_plan(3))),
        lambda: poisson(n=20, gap=1e6), ("expert_cache", "faults"),
        BASE + CACHE + FAULT
        + tuple(f"fault_retry_attempt_{n}" for n in range(1, 9))),
    "priorities_inert": (lambda: server(priorities=PriorityConfig()),
                         poisson, ("preemptions",), BASE),
    "priorities_preempt": (
        lambda: server(sched=dict(kv_budget_tokens=128, max_batch_size=2),
                       priorities=PriorityConfig(aging_us=None)),
        mixed, ("preemptions",), BASE + CLASSES + PREEMPT),
    "graph_cache": (
        lambda: server(sched=dict(graph_cache=GraphCacheConfig())),
        poisson, ("graphs",), BASE + GRAPH),
    "dispatch_only": (lambda: server(sched=dict(gemm_dispatch="grouped")),
                      poisson, ("graphs",), BASE + GRAPH),
    "prefix_tier": (
        lambda: server(sched=dict(kv_budget_tokens=1024),
                       prefix_cache=PrefixCacheConfig(),
                       kv_tier=KVTierConfig(idle_park_us=5e5)),
        turns, ("sessions",), BASE + SESSIONS),
    "pipeline": (lambda: server(sched=dict(pipeline_stages=2)), poisson,
                 ("pipeline",), BASE + PIPELINE),
    "controller": (
        lambda: server(SESSION_QW2, sched=dict(prefill_chunk_tokens=16),
                       controller=ControllerConfig(
                           slo=ServingSLO(2000, 500), window_us=5e5,
                           chunk_ladder=(8, 16, 32, 64))),
        poisson, ("controller",), BASE + CTRL),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_ordered_summary_keys(name):
    make, workload, enabled, keys = CASES[name]
    stats = make().replay(list(workload()))
    assert list(stats.summary()) == list(keys)
    for section in SECTIONS:
        assert (getattr(stats, section) is None) == (section not in enabled)


def test_resilience_only_reports_faults_at_zero():
    stats = CASES["resilience_only"][0]().replay(list(poisson()))
    faults = {k: v for k, v in stats.summary().items()
              if k.startswith("fault_")}
    assert list(faults) == list(FAULT)
    assert set(faults.values()) == {0.0}


def test_fleet_summary_keys():
    """A 2-replica adaptive fleet with a kill merges across epochs: the
    pipeline section is summed, the other sections are dropped."""
    def replica():
        return server(sched=dict(kv_budget_tokens=2048, pipeline_stages=2))
    router = FleetRouter(
        replica, FleetConfig(n_replicas=2, policy="adaptive"),
        fault_plan=FaultPlan(replicas=(ReplicaFault(1e6, 4e6, replica=0),)))
    stats = router.replay(list(poisson(gap=2e5)))
    assert stats.kills == 1 and len(stats.epoch_stats) > 1
    assert list(stats.summary()) == list(
        BASE + PIPELINE + FLEET
        + ("fleet_weight_updates", "fleet_weight_0", "fleet_weight_1"))
    for section in SECTIONS:
        assert (getattr(stats.merged, section) is None) == (
            section != "pipeline")
