"""Tests for the continuous-batching engine and batched decode pricing."""

import numpy as np
import pytest

from repro.core import KTRANSFORMERS, batched_decode_works, run_batched_decode
from repro.errors import ConfigError, KVCacheError
from repro.hw.spec import paper_testbed
from repro.kernels import DEFAULT_ARI_THRESHOLD
from repro.model import DS3, QW2, MoETransformer, tiny_config
from repro.sched.workload import batched_expert_counts
from repro.serving import (
    BatchCostModel,
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    InferenceSession,
    LocalServer,
    ServingSLO,
    TimedRequest,
    poisson_workload,
)
from repro.serving.session import GenerationRequest
from repro.tensor import BF16


@pytest.fixture(scope="module")
def machine():
    return paper_testbed("a100")


@pytest.fixture(scope="module")
def session():
    model = MoETransformer(tiny_config("tiny-qw"))
    return InferenceSession(model, DS3)


def _workload(n, interarrival_us, prompt_len=16, new_tokens=6, seed=7):
    return poisson_workload(
        n_requests=n, mean_interarrival_us=interarrival_us,
        prompt_len=prompt_len, max_new_tokens=new_tokens,
        vocab_size=64, seed=seed,
    )


class TestBatchedAriDispatch:
    """Aggregating the batch's tokens per expert moves the Fig. 7 crossover."""

    def test_batch_crosses_ari_threshold_to_amx(self, machine):
        # Served one-by-one, every active expert sees 1 token <= threshold:
        # the hybrid backend stays on AVX-512 for every expert GEMM.
        _, single = batched_decode_works(
            KTRANSFORMERS, QW2, machine, BF16, context_lens=[64])
        assert single.max_tokens_per_expert <= DEFAULT_ARI_THRESHOLD
        assert single.n_amx == 0
        assert single.n_avx512 == single.n_active

        # The same requests batched: aggregated counts cross the threshold
        # and those experts switch to AMX.
        _, batched = batched_decode_works(
            KTRANSFORMERS, QW2, machine, BF16, context_lens=[64] * 48)
        assert batched.max_tokens_per_expert > DEFAULT_ARI_THRESHOLD
        assert batched.n_amx > 0
        assert batched.dominant_kernel == "amx"
        # Dispatch is per expert: light experts keep the low-latency kernel.
        assert batched.n_avx512 > 0

    def test_custom_threshold_respected(self, machine):
        _, s = batched_decode_works(
            KTRANSFORMERS, QW2, machine, BF16, context_lens=[64] * 48,
            ari_threshold=10_000)
        assert s.n_amx == 0

    def test_summary_counts_consistent(self, machine):
        _, s = batched_decode_works(
            KTRANSFORMERS, QW2, machine, BF16, context_lens=[32] * 8)
        assert s.n_amx + s.n_avx512 == s.n_active
        assert len(s.kernel_names) == len(s.expert_token_counts)
        assert sum(s.expert_token_counts) == 8 * QW2.top_k

    def test_batch1_counts_deterministic(self):
        counts = batched_expert_counts(DS3, 1)
        assert counts.sum() == DS3.top_k
        assert counts.max() == 1

    def test_batched_throughput_scales_sublinearly(self, machine):
        """Coalesced expert GEMMs make a batch cheaper than b separate steps."""
        r1, _ = run_batched_decode(KTRANSFORMERS, DS3, machine,
                                   n_tokens=4, context_lens=[64])
        r8, _ = run_batched_decode(KTRANSFORMERS, DS3, machine,
                                   n_tokens=4, context_lens=[64] * 8)
        assert r8.elapsed_us < 8 * r1.elapsed_us
        assert r8.tokens_per_s > r1.tokens_per_s


class TestBatchCostModel:
    def test_step_cost_grows_with_batch(self, session):
        costs = BatchCostModel(session)
        c1 = costs.decode_step_us([64])
        c8 = costs.decode_step_us([64] * 8)
        assert 0 < c1 < c8 < 8 * c1

    def test_step_cost_cached(self, session):
        costs = BatchCostModel(session)
        first = costs.decode_step_us([64] * 4)
        assert costs.decode_step_us([60, 61, 62, 63]) == first  # same bucket
        assert len(costs._prices) == 1

    def test_dispatch_summary_exposed(self, session):
        costs = BatchCostModel(session)
        s = costs.dispatch_summary([64] * 4)
        assert s.batch_size == 4

    def test_batched_prefill_flat_within_bucket(self, session):
        costs = BatchCostModel(session)
        assert (costs.batched_prefill_us(100)
                == costs.batched_prefill_us(128))
        # Beyond the largest bucket, cost scales with tokens.
        big = costs.batched_prefill_us(16384)
        assert big > costs.batched_prefill_us(8192)

    def test_empty_inputs_rejected(self, session):
        costs = BatchCostModel(session)
        with pytest.raises(ConfigError):
            costs.decode_step_us([])
        with pytest.raises(ConfigError):
            costs.batched_prefill_us(0)

    def test_options_are_keyword_only(self, session):
        # Passing a scheduler config positionally must fail here, not on
        # the first priced step.
        with pytest.raises(TypeError):
            BatchCostModel(session, BatchSchedulerConfig())


class TestSchedulerConfig:
    def test_defaults_valid(self):
        cfg = BatchSchedulerConfig()
        assert cfg.kv_budget_tokens > 0

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            BatchSchedulerConfig(kv_budget_tokens=0)
        with pytest.raises(ConfigError):
            BatchSchedulerConfig(max_batch_size=0)


class TestContinuousBatchingServer:
    def test_serves_all_requests_with_real_tokens(self, session):
        wl = _workload(6, 5e5)
        server = ContinuousBatchingServer(session)
        stats = server.replay(list(wl))
        assert stats.n_requests == 6
        assert all(t.generated_tokens == 6 for t in stats.timings)
        s = stats.summary()
        assert np.isfinite(s["ttft_p95_ms"]) and s["ttft_p95_ms"] > 0
        assert np.isfinite(s["tpot_p95_ms"]) and s["tpot_p95_ms"] > 0

    def test_batches_under_load(self, session):
        """Simultaneous arrivals decode together, not serially."""
        rng = np.random.default_rng(0)
        wl = [TimedRequest(0.0, GenerationRequest(
            prompt=rng.integers(1, 64, size=16), max_new_tokens=6))
            for _ in range(8)]
        server = ContinuousBatchingServer(session)
        server.replay(wl)
        assert server.timeline.peak_batch_size == 8
        assert server.timeline.n_iterations == 6   # one per generated token

    def test_max_batch_size_respected(self, session):
        wl = _workload(8, 1.0)
        server = ContinuousBatchingServer(
            session, BatchSchedulerConfig(max_batch_size=3))
        server.replay(list(wl))
        assert server.timeline.peak_batch_size == 3

    def test_kv_budget_limits_concurrency(self, session):
        # Each request reserves 16 + 6 = 22 tokens -> 2 pages of 16.
        # A 4-page budget admits at most 2 concurrent requests.
        wl = _workload(6, 1.0)
        server = ContinuousBatchingServer(
            session, BatchSchedulerConfig(kv_budget_tokens=64))
        stats = server.replay(list(wl))
        assert stats.n_requests == 6          # queued, not dropped
        assert server.timeline.peak_batch_size <= 2
        assert server.pool.n_slots == 0       # all slots freed at the end
        assert server._reserved_pages == 0

    def test_oversized_request_raises_typed_error(self, session):
        wl = [TimedRequest(0.0, GenerationRequest(
            prompt=np.arange(1, 200), max_new_tokens=4))]
        server = ContinuousBatchingServer(
            session, BatchSchedulerConfig(kv_budget_tokens=64))
        with pytest.raises(KVCacheError):
            server.replay(wl)

    def test_empty_workload_rejected(self, session):
        with pytest.raises(ConfigError):
            ContinuousBatchingServer(session).replay([])

    def test_timings_monotone_and_spaced(self, session):
        wl = _workload(5, 2e5)
        server = ContinuousBatchingServer(session)
        stats = server.replay(list(wl))
        for t in stats.timings:
            assert (t.arrival_us <= t.start_us <= t.first_token_us
                    <= t.finish_us)
        points = server.timeline.points
        assert all(b.t_us > a.t_us for a, b in zip(points, points[1:]))
        occupancy = [p.kv_used_tokens for p in points]
        assert max(occupancy) <= server.pool.budget_tokens

    def test_tokens_match_batch1_server(self, session):
        """Batching changes timing, never token values."""
        wl = _workload(4, 1e5, seed=11)
        cb = ContinuousBatchingServer(session).replay(list(wl))
        b1 = LocalServer(session).replay(list(wl))
        assert ([t.generated_tokens for t in sorted(
            cb.timings, key=lambda t: t.arrival_us)]
            == [t.generated_tokens for t in b1.timings])

    def test_faster_than_batch1_under_load(self, session):
        wl = _workload(10, 1e4, new_tokens=8)
        cb = ContinuousBatchingServer(session).replay(list(wl)).summary()
        b1 = LocalServer(session).replay(list(wl)).summary()
        assert cb["requests_per_s"] > b1["requests_per_s"]
        assert cb["ttft_p95_ms"] < b1["ttft_p95_ms"]

    def test_goodput_under_slo(self, session):
        wl = _workload(6, 1e5)
        stats = ContinuousBatchingServer(session).replay(list(wl))
        loose = stats.goodput(ServingSLO(ttft_ms=1e9, tpot_ms=1e9))
        tight = stats.goodput(ServingSLO(ttft_ms=1e-3, tpot_ms=1e-3))
        assert loose["attainment"] == 1.0
        assert tight["attainment"] == 0.0
        s = stats.summary()
        assert loose["goodput_requests_per_s"] == pytest.approx(
            s["requests_per_s"])
