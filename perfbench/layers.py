"""Per-layer metrics: host time from the traced replay, modelled time from stats.

A layer is a module of ``src/repro``.  ``trace_layers`` wraps each
layer's public entry points on a :class:`~tracer.Tracer`; the functions
below turn the spans, the serving stats and the servers' timelines into
the per-layer metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import statistics
from collections import Counter

import numpy as np

import repro.serving.continuous as continuous
import repro.sched.decode as sched_decode
from repro.core import batched_decode_works
from repro.hw.trace import Trace
from repro.model.paged import PagedKVPool
from repro.moe.expert_cache import ExpertCacheManager
from repro.sched import DecodeScheduleConfig, batched_step_time_us, simulate_decode
from repro.serving import (
    BatchCostModel,
    ContinuousBatchingServer,
    FleetRouter,
    InferenceSession,
    OnlineController,
    RadixPrefixCache,
)

SCHEDULER = "scheduler"
SESSION = "session"
PRICING = "pricing"
DES = "des"

# layer -> (owner, entry points).  The scheduler spans are the replay
# loops themselves; every other layer is a child of them.
ENTRY_POINTS = {
    SCHEDULER: [(ContinuousBatchingServer, ("replay",)),
                (FleetRouter, ("replay",))],
    SESSION: [(InferenceSession, ("generate",))],
    # The cost model's public pricing methods, plus the one private helper
    # the server calls directly.
    PRICING: [(BatchCostModel, (
        "attn_window_us", "batched_prefill_us", "dispatch_summary",
        "gemm_dispatch_for", "hybrid_attn_window_us", "kv_swap_bytes",
        "perturbed_cached_hybrid_step_us", "perturbed_cached_step_us",
        "perturbed_decode_step_us", "perturbed_hybrid_step_us",
        "pipeline_factors", "recompute_resume_us", "step_kernel_count",
        "swap_transfer_us", "_cached_key_works"))],
    # The task-graph simulator behind a memo miss, under every name the
    # pricing code reaches it by.
    DES: [(sched_decode, ("batched_step_time_us", "hybrid_step_time_us",
                          "cache_aware_step_time_us")),
          (continuous, ("batched_step_time_us",
                        "cache_aware_step_time_us"))],
    "kvpool": [(PagedKVPool, (
        "allocate", "free", "append", "append_placeholder", "pages_needed",
        "can_fit", "swap_out", "swap_in", "discard_swapped"))],
    "prefix": [(RadixPrefixCache, (
        "probe", "acquire", "release", "insert", "evict_pages",
        "park_idle"))],
    "expert_cache": [(ExpertCacheManager, ("step", "admit",
                                           "fail_upload"))],
    "controller": [(OnlineController, ("tick",))],
}

# Decode pricing calls whose first argument is the batch's context lengths.
_DECODE_PRICING = ("perturbed_decode_step_us", "perturbed_cached_step_us",
                   "perturbed_hybrid_step_us",
                   "perturbed_cached_hybrid_step_us")
TOKEN_SAMPLE = 8


class Probe:
    """What the traced replay saw at the layer boundaries."""

    def __init__(self, requests) -> None:
        self._request_ids = {
            np.asarray(t.request.prompt).tobytes(): i
            for i, t in enumerate(requests)}
        self.generate_keys: list[tuple] = []
        self.token_sample: list[tuple] = []
        self.decode_shapes: Counter = Counter()
        self.context_lens: set[tuple] = set()

    def request_id(self, args, result):
        return self._request_ids.get(np.asarray(args[1].prompt).tobytes())

    def on_generate(self, args, result) -> None:
        request = args[1]
        prompt = np.asarray(request.prompt)
        self.generate_keys.append((prompt.tobytes(), request.max_new_tokens))
        if len(self.token_sample) < TOKEN_SAMPLE:
            self.token_sample.append(
                (prompt.copy(), request.max_new_tokens, result.tokens.copy()))

    def on_decode_pricing(self, args, result) -> None:
        lens = tuple(args[1])
        if lens:
            self.decode_shapes[(len(lens), BatchCostModel._bucket(
                max(lens), BatchCostModel.CTX_BUCKETS))] += 1
            self.context_lens.add(lens)


def trace_layers(tracer, probe: Probe) -> None:
    """Wrap every entry point in ``ENTRY_POINTS`` on ``tracer``."""
    for layer, owners in ENTRY_POINTS.items():
        for owner, names in owners:
            for name in names:
                kwargs = {}
                if layer == SESSION:
                    kwargs = dict(request_of=probe.request_id,
                                  on_call=probe.on_generate)
                elif name in _DECODE_PRICING:
                    kwargs = dict(on_call=probe.on_decode_pricing)
                tracer.wrap(owner, name, layer, **kwargs)


def host_metrics(tracer, probe: Probe, traced_s: float,
                 untraced_s: float) -> dict[str, float]:
    """Calls and self seconds per layer, from the spans."""
    self_s = tracer.self_seconds()
    out: dict[str, float] = {}
    calls = Counter(s.layer for s in tracer.spans)
    gen = probe.generate_keys
    out["session.generate_calls"] = float(calls[SESSION])
    out["session.generate_s"] = self_s.get(SESSION, 0.0)
    out["session.distinct_share"] = (len(set(gen)) / len(gen)) if gen else 0.0
    priced = tracer.outermost({PRICING})
    des = tracer.outermost({DES})
    out["pricing.calls"] = float(len(priced))
    out["pricing.s"] = self_s.get(PRICING, 0.0)
    out["pricing.des_calls"] = float(tracer.reaching({PRICING}, {DES}))
    out["pricing.des_s"] = sum(s.end - s.start for s in des)
    out["pricing.memo_hit_share"] = (
        1.0 - out["pricing.des_calls"] / len(priced) if priced else 0.0)
    for layer in ("kvpool", "prefix", "expert_cache", "controller"):
        out[f"{layer}.calls"] = float(calls[layer])
        out[f"{layer}.s"] = self_s.get(layer, 0.0)
    out["scheduler.self_s"] = self_s.get(SCHEDULER, 0.0)
    out["tracing.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return out


def modelled_metrics(stats, servers, summary: dict) -> dict[str, float]:
    """Deterministic per-layer metrics of one replay."""
    points = [p for s in servers for p in s.timeline.points]
    budgets = [s.timeline.kv_budget_tokens for s in servers
               for _ in s.timeline.points]
    out = {
        "sched.iterations": float(len(points)),
        "sched.batch_mean": (statistics.fmean(p.batch_size for p in points)
                             if points else 0.0),
        "sched.queue_p95_ms": summary["queue_p95_ms"],
        "kv.occupancy_mean": (statistics.fmean(
            p.kv_used_tokens / b for p, b in zip(points, budgets))
            if points else 0.0),
    }
    epochs = getattr(stats, "epoch_stats", [stats])
    sessions = [e.sessions for e in epochs if e.sessions is not None]
    prompt = sum(s.prompt_tokens_total for s in sessions)
    out["prefix.reuse_share"] = (
        sum(s.prefill_tokens_avoided for s in sessions) / prompt
        if prompt else 0.0)
    out["tier.swap_in_stall_ms"] = sum(s.swap_in_stall_us
                                       for s in sessions) / 1e3
    routed = sum(getattr(stats, "routed", []))
    out["fleet.affinity_hit_share"] = (
        stats.affinity_hits / routed if routed else 0.0)
    out["fleet.routed_imbalance"] = summary.get("fleet_routed_imbalance", 0.0)
    out["expert_cache.hit_rate"] = summary.get("cache_hit_rate", 0.0)
    out["expert_cache.stall_ms"] = summary.get("cache_stall_ms", 0.0)
    captures = summary.get("graph_captures", 0.0)
    lookups = captures + summary.get("graph_replays", 0.0)
    out["graph.capture_share"] = captures / lookups if lookups else 0.0
    out["graph.capture_stall_ms"] = summary.get("graph_capture_stall_ms", 0.0)
    grouped = summary.get("grouped_gemm_iterations", 0.0)
    dispatched = grouped + summary.get("grouped_gemm_per_expert_iterations",
                                       0.0)
    out["dispatch.grouped_share"] = grouped / dispatched if dispatched else 0.0
    out["controller.moves"] = summary.get("ctrl_moves", 0.0)
    out["controller.rollbacks"] = summary.get("ctrl_rollbacks", 0.0)
    return out


def _schedule_config(session: InferenceSession) -> DecodeScheduleConfig:
    """The decode schedule ``BatchCostModel`` prices plain steps with."""
    costs = session.costs
    return DecodeScheduleConfig(
        launch_mode=costs.system.launch_mode,
        overlap_cpu_gpu=costs.system.overlap_cpu_gpu,
        top_k=costs.preset.top_k, n_deferred=session.n_deferred)


def _works(session: InferenceSession, context_lens):
    costs = session.costs
    works, _ = batched_decode_works(costs.system, costs.preset,
                                    costs.machine, costs.dtype,
                                    context_lens=list(context_lens))
    return works


STEP_TOKENS = 4


def step_metrics(session: InferenceSession, probe: Probe) -> dict[str, float]:
    """Resource split of the most frequent priced decode shape.

    The shape is priced as a plain batched decode step (no expert-cache
    repricing) through ``repro.sched.simulate_decode`` and read back with
    ``hw.trace.Trace``; busy times are per step.
    """
    keys = ("step.cpu_busy_us", "step.gpu_busy_us", "step.pcie_busy_us",
            "step.host_busy_us", "step.cpu_gpu_overlap_share")
    if not probe.decode_shapes:
        return dict.fromkeys(keys, 0.0)
    (batch, ctx), _ = max(probe.decode_shapes.items(),
                          key=lambda kv: (kv[1], kv[0]))
    sim = simulate_decode(_works(session, [ctx] * batch),
                          _schedule_config(session), session.costs.machine,
                          n_tokens=STEP_TOKENS)
    trace = Trace.from_simulator(sim)
    busy = [trace.busy_time(r) / STEP_TOKENS
            for r in ("cpu", "gpu", "pcie", "host")]
    return dict(zip(keys, busy + [trace.overlap_fraction("cpu", "gpu")]))


FIDELITY_SAMPLE = 12


def memo_error(session: InferenceSession, probe: Probe) -> float:
    """Max |memo - direct| / direct over a sample of priced decode batches.

    The memo prices ``(batch, context bucket)``; the direct price runs
    the simulator on the batch's actual context lengths.
    """
    shapes = sorted(probe.context_lens, key=lambda c: (len(c), max(c), c))
    if not shapes:
        return 0.0
    step = max(1, len(shapes) // FIDELITY_SAMPLE)
    memo = BatchCostModel(session)
    worst = 0.0
    for lens in shapes[::step][:FIDELITY_SAMPLE]:
        direct = batched_step_time_us(_works(session, lens),
                                      _schedule_config(session),
                                      session.costs.machine)
        worst = max(worst, abs(memo.decode_step_us(list(lens)) - direct)
                    / direct)
    return worst
