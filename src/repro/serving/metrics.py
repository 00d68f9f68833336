"""Serving metrics: TTFT/TPOT accounting and percentile summaries."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from ..errors import ConfigError
from .priority import PRIORITY_NAMES, Priority

if TYPE_CHECKING:   # pragma: no cover - import cycle guard (controller
    # imports metrics for ServingSLO; the stats slot only needs the name)
    from .controller import ControllerStats


@dataclass(frozen=True)
class RequestTiming:
    """Simulated timing of one served request (microseconds).

    ``timed_out`` marks a request the resilient server cut off at its
    decode deadline: its timing is still recorded (with the tokens it
    did emit), but goodput accounting never counts it as SLO-attaining.
    ``priority`` carries the request's :class:`~repro.serving.priority.
    Priority` class so summaries can break latency out per class.
    """

    arrival_us: float
    start_us: float
    first_token_us: float      # absolute time the first new token is ready
    finish_us: float
    prompt_tokens: int
    generated_tokens: int
    timed_out: bool = False
    priority: int = int(Priority.STANDARD)

    def __post_init__(self) -> None:
        if not (self.arrival_us <= self.start_us <= self.first_token_us
                <= self.finish_us):
            raise ConfigError("request timing must be monotone")

    @property
    def queue_delay_us(self) -> float:
        return self.start_us - self.arrival_us

    @property
    def ttft_us(self) -> float:
        """Time to first token, measured from arrival."""
        return self.first_token_us - self.arrival_us

    @property
    def tpot_us(self) -> float:
        """Time per output token after the first."""
        if self.generated_tokens <= 1:
            return 0.0
        return (self.finish_us - self.first_token_us) / (self.generated_tokens - 1)

    @property
    def latency_us(self) -> float:
        return self.finish_us - self.arrival_us


def percentile(values: list[float], pct: float) -> float:
    """The ``pct``-th percentile of ``values`` (errors on empty input)."""
    if not values:
        raise ConfigError("no values to summarize")
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def percentiles(values: list[float]) -> dict[str, float]:
    """p50/p95/p99 of ``values`` in one pass (errors on empty input)."""
    if not values:
        raise ConfigError("no values to summarize")
    arr = np.asarray(values, dtype=np.float64)
    p50, p95, p99 = np.percentile(arr, (50, 95, 99))
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


class RollingWindow:
    """Fixed-duration rolling window over timestamped samples.

    Samples are ``(t_us, value)`` pairs appended in non-decreasing time
    order; every query is evaluated *as of* a clock instant and covers
    the half-open interval ``(now_us - window_us, now_us]`` -- a sample
    landing exactly one window ago has just aged out.  Unlike the
    whole-run :func:`percentiles` helper, percentile queries over an
    empty window return 0.0 rather than raising: windows go empty
    routinely under bursty traffic, and the control plane treats "no
    signal this window" as a zero, not an error.  ``rate_per_s``
    divides the window's sample count by the window span, so it doubles
    as a rate counter (add samples with the default ``value=1.0`` to
    count events).
    """

    def __init__(self, window_us: float) -> None:
        if window_us <= 0:
            raise ConfigError("window_us must be positive")
        self.window_us = float(window_us)
        self._times: deque[float] = deque()
        self._values: deque[float] = deque()

    def add(self, t_us: float, value: float = 1.0) -> None:
        """Append one sample; timestamps must be non-decreasing."""
        if self._times and t_us < self._times[-1]:
            raise ConfigError(
                "rolling-window samples must arrive in time order")
        self._times.append(float(t_us))
        self._values.append(float(value))

    def _trim(self, now_us: float) -> None:
        cutoff = now_us - self.window_us
        while self._times and self._times[0] <= cutoff:
            self._times.popleft()
            self._values.popleft()

    def values(self, now_us: float) -> list[float]:
        """The sample values currently inside ``(now_us - window, now_us]``."""
        self._trim(now_us)
        return list(self._values)

    def count(self, now_us: float) -> int:
        """Number of samples inside the window as of ``now_us``."""
        self._trim(now_us)
        return len(self._values)

    def rate_per_s(self, now_us: float) -> float:
        """Samples per second over the window span (0 when empty)."""
        return self.count(now_us) / (self.window_us / 1e6)

    def mean(self, now_us: float) -> float:
        """Mean of the windowed values (0 when the window is empty)."""
        vals = self.values(now_us)
        return sum(vals) / len(vals) if vals else 0.0

    def p50(self, now_us: float) -> float:
        """Windowed median (0 when the window is empty)."""
        vals = self.values(now_us)
        return percentile(vals, 50) if vals else 0.0

    def p95(self, now_us: float) -> float:
        """Windowed 95th percentile (0 when the window is empty)."""
        vals = self.values(now_us)
        return percentile(vals, 95) if vals else 0.0


@dataclass(frozen=True)
class ServingSLO:
    """A TTFT/TPOT service-level objective (milliseconds).

    The framing follows the cloud-grade-SLO line of work: a request counts
    toward *goodput* only if its time-to-first-token and its per-output-
    token latency both meet target.
    """

    ttft_ms: float
    tpot_ms: float

    def __post_init__(self) -> None:
        if self.ttft_ms <= 0 or self.tpot_ms <= 0:
            raise ConfigError("SLO targets must be positive")

    def met_by(self, timing: "RequestTiming") -> bool:
        return (timing.ttft_us <= self.ttft_ms * 1e3
                and timing.tpot_us <= self.tpot_ms * 1e3)


@dataclass(frozen=True)
class TimelinePoint:
    """One decode-iteration sample of the serving engine's state.

    ``n_prefilling`` counts active requests still mid-prefill (holding KV
    pages but not yet decodable) and ``chunk_tokens`` is the prefill
    budget co-scheduled with this iteration's decode batch; both stay 0
    under the monolithic (un-chunked) scheduler.  ``n_preempted`` counts
    requests currently evicted (swapped out or awaiting recompute) --
    always 0 without a priority config.  ``graph_capture_us`` is the
    CUDA-graph capture stall this iteration paid (0 on a replay hit, or
    when no graph cache is configured).  ``prefix_cached_tokens`` /
    ``host_parked_tokens`` are the radix prefix cache's GPU-resident and
    host-tier occupancy after the iteration -- both stay 0 without a
    prefix-cache config.
    """

    t_us: float
    batch_size: int
    kv_used_tokens: int
    n_prefilling: int = 0
    chunk_tokens: int = 0
    n_preempted: int = 0
    graph_capture_us: float = 0.0
    prefix_cached_tokens: int = 0
    host_parked_tokens: int = 0


@dataclass
class BatchTimeline:
    """Per-iteration batch-size and KV-occupancy trajectory.

    The continuous-batching scheduler records one point per decode
    iteration; the trajectory is what the serving benchmark emits so batch
    composition and KV pressure are inspectable over time.
    """

    kv_budget_tokens: int
    points: list[TimelinePoint] = field(default_factory=list)

    def record(self, t_us: float, batch_size: int, kv_used_tokens: int,
               n_prefilling: int = 0, chunk_tokens: int = 0,
               n_preempted: int = 0, graph_capture_us: float = 0.0,
               prefix_cached_tokens: int = 0,
               host_parked_tokens: int = 0) -> None:
        self.points.append(TimelinePoint(t_us, batch_size, kv_used_tokens,
                                         n_prefilling, chunk_tokens,
                                         n_preempted, graph_capture_us,
                                         prefix_cached_tokens,
                                         host_parked_tokens))

    @property
    def n_iterations(self) -> int:
        return len(self.points)

    @property
    def peak_batch_size(self) -> int:
        return max((p.batch_size for p in self.points), default=0)

    @property
    def mean_batch_size(self) -> float:
        if not self.points:
            return 0.0
        return sum(p.batch_size for p in self.points) / len(self.points)

    @property
    def peak_kv_occupancy(self) -> float:
        """Peak fraction of the KV token budget in use."""
        peak = max((p.kv_used_tokens for p in self.points), default=0)
        return peak / self.kv_budget_tokens

    @property
    def n_chunked_iterations(self) -> int:
        """Iterations that co-scheduled a prefill chunk (hybrid or chunk-only)."""
        return sum(1 for p in self.points if p.chunk_tokens > 0)

    @property
    def n_hybrid_iterations(self) -> int:
        """Iterations that ran a prefill chunk alongside a decode batch."""
        return sum(1 for p in self.points
                   if p.chunk_tokens > 0 and p.batch_size > p.n_prefilling)

    def as_dict(self) -> dict:
        """JSON-ready trajectory (times in ms)."""
        return {
            "kv_budget_tokens": self.kv_budget_tokens,
            "iterations": [
                {"t_ms": p.t_us / 1e3, "batch_size": p.batch_size,
                 "kv_used_tokens": p.kv_used_tokens,
                 "n_prefilling": p.n_prefilling,
                 "chunk_tokens": p.chunk_tokens,
                 "n_preempted": p.n_preempted,
                 "graph_capture_us": p.graph_capture_us,
                 "prefix_cached_tokens": p.prefix_cached_tokens,
                 "host_parked_tokens": p.host_parked_tokens}
                for p in self.points
            ],
        }


class CounterSection:
    """One feature's counters, declared as an ordered summary table.

    The serving engine attaches a section to :class:`ServingStats` only
    when its feature is configured, and :meth:`ServingStats.summary`
    flattens every attached section's :meth:`summary` into its own
    keys.  Each ``KEYS`` row is ``(summary key, attribute, divisor)``
    and reports ``getattr(self, attribute) / divisor``: 1 turns a count
    into a float, 1e3 converts µs to ms and 1e6 bytes to MB.  Derived
    values are properties named in the table.
    """

    KEYS: ClassVar[tuple[tuple[str, str, float], ...]] = ()

    def summary(self) -> dict[str, float]:
        """The section's flat counters, in ``KEYS`` order."""
        return {key: getattr(self, attr) / div for key, attr, div in self.KEYS}


@dataclass(frozen=True)
class CachePoint:
    """One decode-iteration sample of the expert cache's behaviour."""

    t_us: float
    hit_tokens: int
    miss_tokens: int
    uploads: int
    evictions: int
    bytes_transferred: float
    stall_us: float

    @property
    def hit_rate(self) -> float:
        total = self.hit_tokens + self.miss_tokens
        return self.hit_tokens / total if total else 0.0


@dataclass
class ExpertCacheTimeline(CounterSection):
    """Per-iteration hit-rate / eviction / transfer trajectory.

    Recorded by :class:`~repro.serving.continuous.ContinuousBatchingServer`
    when a dynamic expert cache is attached.
    """

    KEYS = (("cache_hit_rate", "hit_rate", 1),
            ("cache_evictions", "total_evictions", 1),
            ("cache_uploads", "total_uploads", 1),
            ("cache_bytes_transferred_mb", "total_bytes_transferred", 1e6),
            ("cache_stall_ms", "total_stall_us", 1e3))

    points: list[CachePoint] = field(default_factory=list)

    def record(self, t_us: float, hit_tokens: int, miss_tokens: int,
               uploads: int, evictions: int, bytes_transferred: float,
               stall_us: float) -> None:
        self.points.append(CachePoint(
            t_us, hit_tokens, miss_tokens, uploads, evictions,
            bytes_transferred, stall_us))

    @property
    def n_iterations(self) -> int:
        return len(self.points)

    @property
    def hit_rate(self) -> float:
        """Token-weighted hit rate over the whole run."""
        hits = sum(p.hit_tokens for p in self.points)
        total = hits + sum(p.miss_tokens for p in self.points)
        return hits / total if total else 0.0

    @property
    def total_evictions(self) -> int:
        return sum(p.evictions for p in self.points)

    @property
    def total_uploads(self) -> int:
        return sum(p.uploads for p in self.points)

    @property
    def total_bytes_transferred(self) -> float:
        return sum(p.bytes_transferred for p in self.points)

    @property
    def total_stall_us(self) -> float:
        return sum(p.stall_us for p in self.points)

    def as_dict(self) -> dict:
        """JSON-ready trajectory (times in ms)."""
        return {
            "iterations": [
                {"t_ms": p.t_us / 1e3, "hit_rate": p.hit_rate,
                 "uploads": p.uploads, "evictions": p.evictions,
                 "bytes_transferred": p.bytes_transferred,
                 "stall_us": p.stall_us}
                for p in self.points
            ],
        }


@dataclass
class FaultStats(CounterSection):
    """Fault, retry, shedding, and degradation counters of one serving run.

    On when a fault injector or a resilience policy is active.  The
    summary appends the retry histogram as ``fault_retry_attempt_<n>``.
    """

    KEYS = (("fault_upload_failures", "upload_failures", 1),
            ("fault_retries_attempted", "retries_attempted", 1),
            ("fault_retries_succeeded", "retries_succeeded", 1),
            ("fault_retries_abandoned", "retries_abandoned", 1),
            ("fault_shed_requests", "shed_requests", 1),
            ("fault_timed_out_requests", "timed_out_requests", 1),
            ("fault_degraded_entries", "degraded_entries", 1),
            ("fault_degraded_iterations", "degraded_iterations", 1),
            ("fault_recoveries", "n_recoveries", 1),
            ("fault_mean_recovery_ms", "mean_recovery_us", 1e3),
            ("fault_stall_ms", "fault_stall_us", 1e3))

    upload_failures: int = 0
    retries_attempted: int = 0
    retries_succeeded: int = 0
    retries_abandoned: int = 0
    retry_attempt_histogram: dict[int, int] = field(default_factory=dict)
    shed_requests: int = 0
    timed_out_requests: int = 0
    degraded_entries: int = 0
    degraded_iterations: int = 0
    recovery_times_us: list[float] = field(default_factory=list)
    fault_stall_us: float = 0.0

    def record_retry(self, attempt: int) -> None:
        """Count one retry attempt into the per-attempt histogram."""
        self.retries_attempted += 1
        self.retry_attempt_histogram[attempt] = (
            self.retry_attempt_histogram.get(attempt, 0) + 1)

    @property
    def n_recoveries(self) -> int:
        """Completed returns from degraded mode to normal operation."""
        return len(self.recovery_times_us)

    @property
    def mean_recovery_us(self) -> float:
        """Mean time from entering degraded mode back to normal operation."""
        if not self.recovery_times_us:
            return 0.0
        return sum(self.recovery_times_us) / len(self.recovery_times_us)

    def summary(self) -> dict[str, float]:
        """The ``KEYS`` counters plus one key per retry attempt number."""
        out = super().summary()
        for attempt in sorted(self.retry_attempt_histogram):
            out[f"fault_retry_attempt_{attempt}"] = float(
                self.retry_attempt_histogram[attempt])
        return out


@dataclass
class PreemptionStats(CounterSection):
    """Preemption, swap/recompute, and resume counters of one serving run.

    On when a :class:`~repro.serving.priority.PriorityConfig` is active.
    ``swap_stall_us`` is the total serving-clock time spent moving KV
    pages over PCIe (swap-out plus swap-in, on the possibly degraded
    link); ``recompute_tokens`` counts context tokens discarded by the
    recompute mechanism (each re-enters the prefill pipeline on resume).
    """

    KEYS = (("preempt_total", "preemptions", 1),
            ("preempt_swaps", "swaps", 1),
            ("preempt_recomputes", "recomputes", 1),
            ("preempt_resumes", "resumes", 1),
            ("preempt_swap_out_mb", "swap_out_bytes", 1e6),
            ("preempt_swap_in_mb", "swap_in_bytes", 1e6),
            ("preempt_swap_stall_ms", "swap_stall_us", 1e3),
            ("preempt_recompute_tokens", "recompute_tokens", 1),
            ("preempt_shed_while_preempted", "shed_while_preempted", 1))

    preemptions: int = 0
    swaps: int = 0
    recomputes: int = 0
    resumes: int = 0
    swap_out_bytes: float = 0.0
    swap_in_bytes: float = 0.0
    swap_stall_us: float = 0.0
    recompute_tokens: int = 0
    shed_while_preempted: int = 0

    def summary(self) -> dict[str, float]:
        """Empty until the first preemption fires.

        Every counter is downstream of a preemption, so an *inert*
        priority config (single class, or preemption never triggered)
        leaves the summary bit-identical to the FIFO scheduler's.
        """
        return super().summary() if self.preemptions else {}


@dataclass
class GraphStats(CounterSection):
    """CUDA-graph cache and grouped-GEMM dispatch counters of one run.

    On when a :class:`~repro.sched.cuda_graph.GraphCacheConfig` or a
    non-legacy expert-GEMM dispatch is active.

    ``captures``/``replays``/``evictions`` mirror the
    :class:`~repro.sched.cuda_graph.GraphCache` counters at run end;
    ``capture_stall_us`` is the total serving-clock time spent inside
    capture (the TTFT/TPOT-visible cost the free-replay model ignored).
    ``padding_tokens`` counts decode slots added to round batches up to
    their capture bucket.  The ``grouped_gemm_*`` counters track the
    expert-dispatch arm: iterations priced with the grouped kernel vs the
    per-expert fallback, and the kernel launches the grouped arm avoided
    (``n_hit_experts - 1`` per MoE layer whenever it won).
    """

    KEYS = (("graph_captures", "captures", 1),
            ("graph_replays", "replays", 1),
            ("graph_evictions", "evictions", 1),
            ("graph_capture_stall_ms", "capture_stall_us", 1e3),
            ("graph_padding_tokens", "padding_tokens", 1),
            ("grouped_gemm_iterations", "grouped_gemm_iterations", 1),
            ("grouped_gemm_per_expert_iterations", "per_expert_iterations",
             1),
            ("grouped_gemm_launches_saved", "grouped_gemm_launches_saved",
             1))

    captures: int = 0
    replays: int = 0
    evictions: int = 0
    capture_stall_us: float = 0.0
    padding_tokens: int = 0
    grouped_gemm_iterations: int = 0
    per_expert_iterations: int = 0
    grouped_gemm_launches_saved: int = 0


@dataclass
class PipelineStats(CounterSection):
    """Pipeline-stage pricing counters of one serving run.

    On when ``BatchSchedulerConfig.pipeline_stages > 1``.

    ``serial_us`` is what the same iterations would have cost unsplit
    (the single-GPU price, cache/fault/jitter effects included);
    ``staged_us`` is what the stage-split pricing actually charged, of
    which ``interstage_transfer_us`` went to stage-boundary activation
    handoffs over PCIe.  ``staged_us > serial_us`` is a legitimate
    outcome -- a CPU-bound batch gains nothing from the split but still
    pays the handoffs (pipelining buys VRAM headroom, not speed).
    """

    KEYS = (("pipeline_stages", "n_stages", 1),
            ("pipeline_iterations", "staged_iterations", 1),
            ("pipeline_serial_ms", "serial_us", 1e3),
            ("pipeline_staged_ms", "staged_us", 1e3),
            ("pipeline_interstage_ms", "interstage_transfer_us", 1e3),
            ("pipeline_step_speedup", "step_speedup", 1))

    n_stages: int = 1
    staged_iterations: int = 0
    serial_us: float = 0.0
    staged_us: float = 0.0
    interstage_transfer_us: float = 0.0

    @property
    def step_speedup(self) -> float:
        """Unsplit over staged step time (1.0 before any staged step)."""
        return self.serial_us / self.staged_us if self.staged_us > 0 else 1.0

    @classmethod
    def merged(cls, parts: list["PipelineStats"]) -> "PipelineStats":
        """Field-wise sum of ``parts``; the stage count is the first's."""
        return cls(n_stages=parts[0].n_stages, **{
            f.name: sum(getattr(p, f.name) for p in parts)
            for f in fields(cls) if f.name != "n_stages"})


@dataclass
class SessionStats(CounterSection):
    """Prefix-cache and KV-tier counters of one serving run.

    On when a :class:`~repro.serving.prefix_cache.PrefixCacheConfig` is
    active: ``prefix_*`` keys for radix-cache reuse, ``tier_*`` keys for
    the host-DRAM layer.

    ``prefill_tokens_avoided`` counts prompt tokens served as cached
    page references instead of prefill work; ``swap_*_bytes`` price the
    park/unpark traffic (swap-out runs off the critical path, so only
    ``tier_swap_in_stall_ms`` ever reaches the serving clock);
    ``prefetch_hits`` counts unparks whose ahead-of-turn transfer
    finished before the turn arrived (zero stall).
    """

    KEYS = (("prefix_hits", "prefix_hits", 1),
            ("prefix_misses", "prefix_misses", 1),
            ("prefix_prompt_tokens", "prompt_tokens_total", 1),
            ("prefix_tokens_avoided", "prefill_tokens_avoided", 1),
            ("prefix_reuse_fraction", "reuse_fraction", 1),
            ("prefix_inserted_tokens", "inserted_tokens", 1),
            ("prefix_evicted_tokens", "evicted_tokens", 1),
            ("prefix_peak_gpu_tokens", "peak_gpu_cached_tokens", 1),
            ("tier_parked_tokens", "parked_tokens", 1),
            ("tier_unparked_tokens", "unparked_tokens", 1),
            ("tier_dropped_host_tokens", "dropped_host_tokens", 1),
            ("tier_swap_out_mb", "swap_out_bytes", 1e6),
            ("tier_swap_in_mb", "swap_in_bytes", 1e6),
            ("tier_swap_in_stall_ms", "swap_in_stall_us", 1e3),
            ("tier_prefetch_hits", "prefetch_hits", 1),
            ("tier_peak_host_tokens", "peak_host_tokens", 1))

    prefix_hits: int = 0
    prefix_misses: int = 0
    prompt_tokens_total: int = 0
    prefill_tokens_avoided: int = 0
    inserted_tokens: int = 0
    evicted_tokens: int = 0
    parked_tokens: int = 0
    unparked_tokens: int = 0
    dropped_host_tokens: int = 0
    swap_out_bytes: float = 0.0
    swap_in_bytes: float = 0.0
    swap_in_stall_us: float = 0.0
    prefetch_hits: int = 0
    peak_host_tokens: int = 0
    peak_gpu_cached_tokens: int = 0

    @property
    def reuse_fraction(self) -> float:
        """Fraction of submitted prompt tokens served from the cache."""
        if self.prompt_tokens_total == 0:
            return 0.0
        return self.prefill_tokens_avoided / self.prompt_tokens_total


@dataclass(frozen=True)
class ShedRecord:
    """One request shed from the admission queue before it ever started.

    Shed requests leave no :class:`RequestTiming` (they produced no
    tokens), but their arrivals must still anchor the wall-clock span
    that goodput is computed over -- otherwise shedding late arrivals
    *shrinks* the span and inflates ``goodput_requests_per_s``.
    """

    arrival_us: float
    priority: int = int(Priority.STANDARD)


# Summary keys zeroed out when every submission was shed (see
# ServingStats.summary's degraded path).
_ZERO_SUMMARY_KEYS = (
    "ttft_p50_ms", "ttft_p95_ms", "ttft_p99_ms",
    "tpot_p50_ms", "tpot_p95_ms", "tpot_p99_ms",
    "queue_p95_ms", "tokens_per_s", "requests_per_s",
)


# ServingStats' optional counter sections, in summary order.
_SECTIONS = ("expert_cache", "faults", "preemptions", "graphs", "sessions",
             "pipeline", "controller")


@dataclass
class ServingStats:
    """Aggregate statistics over a batch of served requests.

    Each optional section is a :class:`CounterSection`, ``None`` while
    its feature is off.
    """

    timings: list[RequestTiming] = field(default_factory=list)
    expert_cache: ExpertCacheTimeline | None = None
    faults: FaultStats | None = None
    preemptions: PreemptionStats | None = None
    graphs: GraphStats | None = None
    sessions: SessionStats | None = None
    pipeline: PipelineStats | None = None
    controller: "ControllerStats | None" = None
    shed: list[ShedRecord] = field(default_factory=list)

    def add(self, timing: RequestTiming) -> None:
        self.timings.append(timing)

    def record_shed(self, arrival_us: float,
                    priority: int = int(Priority.STANDARD)) -> None:
        """Record one queue-shed request (arrival only -- it never ran)."""
        self.shed.append(ShedRecord(arrival_us, int(priority)))

    @property
    def n_requests(self) -> int:
        return len(self.timings)

    @property
    def n_shed(self) -> int:
        """Shed submissions, one per :meth:`record_shed` call."""
        return len(self.shed)

    def _values(self, attr: str) -> list[float]:
        return [getattr(t, attr) for t in self.timings]

    def _span_us(self) -> float:
        return (max(t.finish_us for t in self.timings)
                - min(t.arrival_us for t in self.timings))

    def _submitted_span_us(self) -> float:
        """Wall-clock span covering every *submitted* arrival.

        Shed requests never finish, so the span is anchored on the
        earliest arrival (completed or shed) and the latest of any
        finish or shed arrival; a server cannot shrink its accounting
        window by shedding the stragglers.
        """
        arrivals = ([t.arrival_us for t in self.timings]
                    + [s.arrival_us for s in self.shed])
        ends = ([t.finish_us for t in self.timings]
                + [s.arrival_us for s in self.shed])
        if not arrivals:
            return 0.0
        return max(ends) - min(arrivals)

    def _attached_summaries(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in _SECTIONS:
            section = getattr(self, name)
            if section is not None:
                out.update(section.summary())
        return out

    def windowed(self, window_us: float, now_us: float,
                 slo: "ServingSLO | None" = None) -> dict[str, float]:
        """Rolling-window latency percentiles and rate counters.

        Summarizes only the requests that *finished* (and sheds that
        were recorded) inside ``(now_us - window_us, now_us]`` -- the
        signal set the online controller observes, exposed standalone
        for debugging.  Percentiles over an empty window come back 0.0
        and rates come back as true zeros, mirroring
        :class:`RollingWindow` semantics.  With ``slo`` given, windowed
        SLO attainment (over the window's completions plus sheds) is
        included as ``attainment``.
        """
        if window_us <= 0:
            raise ConfigError("window_us must be positive")
        lo = now_us - window_us
        done = [t for t in self.timings if lo < t.finish_us <= now_us]
        sheds = [s for s in self.shed if lo < s.arrival_us <= now_us]
        window_s = window_us / 1e6
        ttfts = [t.ttft_us for t in done]
        tpots = [t.tpot_us for t in done if t.tpot_us > 0]
        out = {
            "window_us": float(window_us),
            "completed": float(len(done)),
            "shed": float(len(sheds)),
            "completions_per_s": len(done) / window_s,
            "shed_per_s": len(sheds) / window_s,
            "ttft_p50_ms": (percentile(ttfts, 50) / 1e3 if ttfts else 0.0),
            "ttft_p95_ms": (percentile(ttfts, 95) / 1e3 if ttfts else 0.0),
            "tpot_p50_ms": (percentile(tpots, 50) / 1e3 if tpots else 0.0),
            "tpot_p95_ms": (percentile(tpots, 95) / 1e3 if tpots else 0.0),
        }
        if slo is not None:
            good = sum(1 for t in done if slo.met_by(t) and not t.timed_out)
            submitted = len(done) + len(sheds)
            out["attainment"] = good / submitted if submitted else 0.0
        return out

    def class_summary(self) -> dict[str, dict[str, float]]:
        """Per-priority-class latency breakdown for classes present.

        Keys are lower-case class names; each value carries the class's
        request count and TTFT/TPOT p50/p95 (TPOT over multi-token
        requests only, 0 when none).
        """
        out: dict[str, dict[str, float]] = {}
        for prio in sorted({t.priority for t in self.timings}):
            timings = [t for t in self.timings if t.priority == prio]
            ttft = percentiles([t.ttft_us for t in timings])
            tpots = [t.tpot_us for t in timings if t.tpot_us > 0]
            tpot = (percentiles(tpots) if tpots
                    else {"p50": 0.0, "p95": 0.0, "p99": 0.0})
            name = PRIORITY_NAMES.get(prio, f"priority{prio}")
            out[name] = {
                "requests": float(len(timings)),
                "ttft_p50_ms": ttft["p50"] / 1e3,
                "ttft_p95_ms": ttft["p95"] / 1e3,
                "tpot_p50_ms": tpot["p50"] / 1e3,
                "tpot_p95_ms": tpot["p95"] / 1e3,
            }
        return out

    def summary(self) -> dict[str, float]:
        """p50/p95/p99 TTFT and per-token latency plus aggregate throughput.

        When every submission was shed (a total chaos storm) there are no
        timings to summarize; instead of raising, the summary comes back
        zeroed with ``degraded_summary = 1.0`` so reporting pipelines
        survive.  Truly empty stats (nothing submitted at all) still
        raise :class:`~repro.errors.ConfigError`.  With more than one
        priority class present, per-class TTFT/TPOT percentiles are
        flattened in as ``<class>_ttft_p95_ms``-style keys.
        """
        if not self.timings:
            if self.n_shed == 0:
                raise ConfigError("no requests recorded")
            out = {"requests": 0.0, "degraded_summary": 1.0}
            out.update({k: 0.0 for k in _ZERO_SUMMARY_KEYS})
            out.update(self._attached_summaries())
            return out
        ttft = percentiles(self._values("ttft_us"))
        tpot_values = [t for t in self._values("tpot_us") if t > 0]
        tpot = (percentiles(tpot_values) if tpot_values
                else {"p50": 0.0, "p95": 0.0, "p99": 0.0})
        total_tokens = sum(t.generated_tokens for t in self.timings)
        span = self._span_us()
        out = {
            "requests": float(self.n_requests),
            "ttft_p50_ms": ttft["p50"] / 1e3,
            "ttft_p95_ms": ttft["p95"] / 1e3,
            "ttft_p99_ms": ttft["p99"] / 1e3,
            "tpot_p50_ms": tpot["p50"] / 1e3,
            "tpot_p95_ms": tpot["p95"] / 1e3,
            "tpot_p99_ms": tpot["p99"] / 1e3,
            "queue_p95_ms": percentile(self._values("queue_delay_us"), 95) / 1e3,
            "tokens_per_s": total_tokens / (span / 1e6) if span > 0 else 0.0,
            "requests_per_s": (self.n_requests / (span / 1e6)
                               if span > 0 else 0.0),
        }
        classes = {t.priority for t in self.timings}
        if len(classes) > 1:
            for name, vals in self.class_summary().items():
                for key, value in vals.items():
                    out[f"{name}_{key}"] = value
        out.update(self._attached_summaries())
        return out

    def goodput(self, slo: ServingSLO,
                priority: int | None = None) -> dict[str, float]:
        """Throughput counting only requests that met ``slo``.

        Returns the fraction of SLO-attaining requests and the goodput in
        requests/s.  Attainment is computed over every *submitted*
        request -- shed requests count against goodput, and timed-out
        requests can never attain -- so a server cannot shed its way to
        a better score.  The wall-clock span likewise covers every
        submitted arrival (shed ones included), not just completed work,
        so shedding stragglers cannot shrink the accounting window.

        ``priority`` restricts good/submitted counting to one priority
        class (span stays the full submitted span, so per-class goodputs
        are comparable and sum sensibly).  When every submission was
        shed the result is zeroed rather than raising, flagged with
        ``degraded_summary = 1.0``.
        """
        timings = self.timings
        shed = self.shed
        n_shed = self.n_shed
        if priority is not None:
            timings = [t for t in timings if t.priority == priority]
            shed = [s for s in shed if s.priority == priority]
            n_shed = len(shed)
        if not self.timings and self.n_shed == 0:
            raise ConfigError("no requests recorded")
        good = sum(1 for t in timings if slo.met_by(t) and not t.timed_out)
        submitted = len(timings) + n_shed
        span = self._submitted_span_us()
        out = {
            "slo_ttft_ms": slo.ttft_ms,
            "slo_tpot_ms": slo.tpot_ms,
            "good_requests": float(good),
            "submitted_requests": float(submitted),
            "attainment": good / submitted if submitted else 0.0,
            "goodput_requests_per_s": (good / (span / 1e6)
                                       if span > 0 else 0.0),
        }
        if not self.timings:
            out["degraded_summary"] = 1.0
        return out
