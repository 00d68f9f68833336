"""The benchmark's three serving workloads, built on the public ``repro.serving`` API.

Every workload is open loop: each request carries a scheduled arrival
time and ``replay`` admits it no earlier than that, so latency counts
from when the request was due and the generator can never run late.

A workload is a seeded request generator plus the deployment that serves
it.  One benchmark seed expands into sub-workloads (sub-seed
``1000 * seed + part``); the modelled metrics pool the timings of the
first ``parts`` of them, so each run measures ``parts`` times as many
requests as one generator call yields.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.model import DS3, QW2, MoETransformer, tiny_config
from repro.sched import GraphCacheConfig
from repro.serving import (
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    ControllerConfig,
    FleetConfig,
    FleetRouter,
    GenerationResult,
    InferenceSession,
    KVTierConfig,
    PrefixCacheConfig,
    ResilienceConfig,
    ServingSLO,
    TimedRequest,
    multi_turn_workload,
    poisson_workload,
    serving_expert_cache,
    three_phase_scenario,
)
from repro.tensor import BF16

# The functional token source: the smallest runnable MoE config.  Token
# values never enter pricing, which uses each workload's paper-scale
# preset; the model only has to produce real tokens.
MODEL = dict(name="tiny", n_layers=1, n_experts=2, top_k=1)
VOCAB = 32

# Arrival-rate multipliers for ``max_rate_at_slo_rps``; 1.0 is nominal.
RATE_LADDER = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

# The host clock times a sub-workload an eighth at a time: one slice is
# every 8th session, 25-28 requests and 0.5-2 s of host time, so one run
# times dozens of replays and covers every slice.
HOST_SLICES = 8


@dataclass
class Deployment:
    """What serves one replay (a server or a fleet router), plus every
    server it creates."""

    runner: object
    servers: list[ContinuousBatchingServer]

    def replay(self, requests: list[TimedRequest]):
        # Looked up per call, so a traced run sees its patched method.
        return self.runner.replay(requests)


@dataclass(frozen=True)
class Workload:
    """One traffic mix: its requests, its deployment and its SLO."""

    name: str
    preset: object
    slo: ServingSLO
    target: float          # share of submitted requests that must meet slo
    parts: int
    make_requests: Callable[[int], list[TimedRequest]]
    deploy: Callable[..., Deployment]

    def requests(self, seed: int, part: int) -> list[TimedRequest]:
        """Sub-workload ``part`` of benchmark seed ``seed``."""
        return self.make_requests(1000 * seed + part)


def make_model() -> MoETransformer:
    return MoETransformer(tiny_config(**MODEL))


def make_session(preset, session_class=None) -> InferenceSession:
    """A fresh session with its phase-cost cache warmed."""
    session = (session_class or InferenceSession)(make_model(), preset)
    for bucket in session.costs.BUCKETS:
        session.costs.prefill_us(bucket)
    session.costs.per_token_us()
    return session


class LengthOnlySession(InferenceSession):
    """A session that emits ``max_new_tokens`` placeholder tokens.

    The serving engine reads a generation only through its length, and
    without a stop token that length is always ``max_new_tokens``, so
    modelled timings are exactly those of the real session.  The untimed
    replays behind the modelled metrics use it to skip the functional
    forward.
    """

    def generate(self, request, on_token=None) -> GenerationResult:
        if request.stop_token is not None:
            raise ValueError("length-only generation needs stop_token=None")
        prompt_len = len(np.atleast_1d(request.prompt))
        return GenerationResult(
            tokens=np.zeros(request.max_new_tokens, dtype=np.int64),
            prefill_us=self.costs.prefill_us(prompt_len),
            per_token_us=self.costs.per_token_us())


def scale_rate(requests: list[TimedRequest],
               factor: float) -> list[TimedRequest]:
    """The same requests arriving ``factor`` times as fast."""
    return [dataclasses.replace(t, arrival_us=t.arrival_us / factor)
            for t in requests]


def host_slice(requests: list[TimedRequest],
               k: int) -> list[TimedRequest]:
    """Slice ``k`` of ``requests``: the sessions whose index is ``k``
    modulo ``HOST_SLICES``, at their scheduled times.

    A session keeps all its turns; a request without a session id is a
    session of its own.  A slice spans the whole arrival range, so it
    keeps every phase and turn depth of the sub-workload at
    1/``HOST_SLICES`` of its load.
    """
    index: dict[object, int] = {}
    return [t for i, t in enumerate(requests)
            if index.setdefault(i if t.session_id is None else t.session_id,
                                len(index)) % HOST_SLICES == k]


def offered_rps(requests: list[TimedRequest]) -> float:
    """Requests per second over the span of the arrivals."""
    span_us = requests[-1].arrival_us - requests[0].arrival_us
    return (len(requests) - 1) / (span_us / 1e6)


def _fixed_span(requests: list[TimedRequest], span_us: float):
    """Rescale arrivals so the last one lands at ``span_us``.

    The seed then varies the arrival pattern but not the offered load.
    """
    return scale_rate(requests, requests[-1].arrival_us / span_us)


# -- chat-affinity -----------------------------------------------------------

CHAT = dict(n_sessions=50, n_turns=4, system_tokens=48, user_tokens=24,
            assistant_tokens=24, max_new_tokens=16, vocab_size=VOCAB,
            mean_think_us=4e6, service_allowance_us=2e6,
            mean_session_offset_us=1.5e6)
CHAT_SPAN_US = 140e6


def _chat_requests(seed: int) -> list[TimedRequest]:
    return _fixed_span(multi_turn_workload(seed=seed, **CHAT), CHAT_SPAN_US)


def _share(server: ContinuousBatchingServer, costs) -> None:
    """Price with ``costs`` instead of the server's own fresh cost model.

    Memo entries are pure functions of the step shape, so sharing one
    model across replays changes no price, only how often the simulator
    runs.  Only the untimed length-only replays share.
    """
    if costs is not None:
        server.costs = costs


def _chat_deploy(session: InferenceSession, costs=None) -> Deployment:
    servers: list[ContinuousBatchingServer] = []

    def make_server():
        server = ContinuousBatchingServer(
            session,
            BatchSchedulerConfig(kv_budget_tokens=8192, max_batch_size=16,
                                 prefill_chunk_tokens=128),
            prefix_cache=PrefixCacheConfig(),
            kv_tier=KVTierConfig(host_budget_tokens=16384))
        _share(server, costs)
        servers.append(server)
        return server

    router = FleetRouter(make_server,
                         FleetConfig(n_replicas=2, policy="session-affinity"))
    return Deployment(router, servers)


# -- decode-skew -------------------------------------------------------------

# At the nominal rate about 40 requests decode in an iteration, and the
# most frequent decode batch is above 32.
DECODE = dict(n_requests=200, mean_interarrival_us=0.7e6, prompt_len=24,
              max_new_tokens=48, vocab_size=VOCAB)
DECODE_CHUNK = 32          # a whole prompt prefills beside the decodes
EXPERT_SLOTS = 16          # GPU-resident experts of the one priced layer
HOT_EXPERTS = 8
HOT_MASS = 0.9
ROUTING_SEED = 0


def _skewed_stream():
    """Expert token counts of one decode step: a skewed draw per batch size.

    Routing skew is a property of the model, not of the traffic sample,
    so the stream does not depend on the workload seed.  One draw per
    batch size keeps the number of distinct priced step shapes, and with
    it the host cost of pricing, bounded.
    """
    rng = np.random.default_rng(ROUTING_SEED)
    hot = rng.permutation(DS3.n_experts)[:HOT_EXPERTS]
    probs = np.full(DS3.n_experts,
                    (1.0 - HOT_MASS) / (DS3.n_experts - HOT_EXPERTS))
    probs[hot] = HOT_MASS / HOT_EXPERTS
    draws: dict[int, np.ndarray] = {}

    def stream(iteration: int, batch: int) -> np.ndarray:
        if batch not in draws:
            draws[batch] = np.random.default_rng(
                (ROUTING_SEED, batch)).multinomial(batch * DS3.top_k, probs)
        return draws[batch].copy()

    return stream


def _decode_requests(seed: int) -> list[TimedRequest]:
    return _fixed_span(poisson_workload(seed=seed, **DECODE),
                       DECODE["n_requests"] * DECODE["mean_interarrival_us"])


def _decode_deploy(session: InferenceSession, costs=None) -> Deployment:
    cache = serving_expert_cache(
        session, vram_budget_bytes=EXPERT_SLOTS * DS3.expert_bytes(BF16))
    server = ContinuousBatchingServer(
        session,
        BatchSchedulerConfig(kv_budget_tokens=8192, max_batch_size=64,
                             prefill_chunk_tokens=DECODE_CHUNK,
                             chunk_policy="prefill-priority",
                             graph_cache=GraphCacheConfig(),
                             gemm_dispatch="auto"),
        expert_cache=cache, routing_stream=_skewed_stream(),
        prefix_cache=PrefixCacheConfig())
    _share(server, costs)
    return Deployment(server, [server])


# -- shift-adaptive ----------------------------------------------------------

SHIFT = dict(prompt_len=32, max_new_tokens=16, vocab_size=VOCAB,
             phase_us=245e6, trough_interarrival_us=3.65e6, peak_factor=3.0,
             burst_factor=3.0, long_prompt_len=384,
             requests_per_phase=(70, 80, 60))
SHIFT_SLO = ServingSLO(ttft_ms=3000, tpot_ms=300)


def _shift_requests(seed: int) -> list[TimedRequest]:
    workload, _ = three_phase_scenario(seed=seed, **SHIFT)
    return workload


def _shift_deploy(session: InferenceSession, costs=None) -> Deployment:
    server = ContinuousBatchingServer(
        session,
        BatchSchedulerConfig(kv_budget_tokens=16384, max_batch_size=4,
                             prefill_chunk_tokens=256),
        resilience=ResilienceConfig(queue_timeout_us=8e6,
                                    decode_timeout_us=12e6),
        controller=ControllerConfig(
            slo=SHIFT_SLO, window_us=2.5e6, warmup_windows=1,
            ewma_alpha=0.5, chunk_ladder=(128, 256, 512, 1024, 2048),
            batch_ladder=(4, 8, 16, 32)))
    _share(server, costs)
    return Deployment(server, [server])


WORKLOADS = {
    w.name: w for w in (
        Workload("chat-affinity", QW2, ServingSLO(ttft_ms=2000, tpot_ms=300),
                 0.8, 12, _chat_requests, _chat_deploy),
        Workload("decode-skew", DS3, ServingSLO(ttft_ms=6000, tpot_ms=800),
                 0.5, 10, _decode_requests, _decode_deploy),
        Workload("shift-adaptive", QW2, SHIFT_SLO,
                 0.9, 40, _shift_requests, _shift_deploy),
    )
}
