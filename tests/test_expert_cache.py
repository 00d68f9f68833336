"""Tests for the dynamic hot-expert GPU cache and its serving integration."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hw.roofline import overlapped_transfer_stall_us, pcie_transfer_time_us
from repro.hw.spec import paper_testbed
from repro.model import DS3, MoETransformer, tiny_config
from repro.moe import (
    ExpertCacheConfig,
    ExpertCacheManager,
    RouterConfig,
    balanced_synthetic_logits,
    oracle_hit_rate,
    plan_gpu_residency,
    route,
)
from repro.sched.decode import cache_aware_step_time_us
from repro.sched.workload import MIN_CPU_DISPATCH_US, apply_expert_cache
from repro.serving import (
    BatchCostModel,
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    InferenceSession,
    StepKey,
    poisson_workload,
    serving_expert_cache,
)
from repro.tensor import BF16

MACHINE = paper_testbed("a100")
LINK = MACHINE.interconnect
MB = 1e6


def make_cache(n_layers=2, n_experts=8, capacity=4, **overrides):
    cfg = ExpertCacheConfig(
        n_layers=n_layers, n_experts=n_experts,
        expert_bytes=MB, vram_budget_bytes=capacity * MB, **overrides)
    return ExpertCacheManager(cfg, LINK)


def hot_counts(n_layers, n_experts, hot, tokens=64, hot_mass=0.9, seed=0):
    """Per-layer counts concentrating ``hot_mass`` of tokens on ``hot``."""
    rng = np.random.default_rng(seed)
    probs = np.full(n_experts, (1.0 - hot_mass) / (n_experts - len(hot)))
    probs[list(hot)] = hot_mass / len(hot)
    return np.stack([rng.multinomial(tokens, probs)
                     for _ in range(n_layers)])


class TestConfig:
    def test_capacity_from_budget(self):
        cfg = ExpertCacheConfig(n_layers=1, n_experts=8, expert_bytes=MB,
                                vram_budget_bytes=3.7 * MB)
        assert cfg.capacity_experts == 3

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            ExpertCacheConfig(n_layers=0, n_experts=8, expert_bytes=MB,
                              vram_budget_bytes=MB)
        with pytest.raises(ConfigError):
            ExpertCacheConfig(n_layers=1, n_experts=8, expert_bytes=MB,
                              vram_budget_bytes=0.5 * MB)   # < one expert
        with pytest.raises(ConfigError):
            ExpertCacheConfig(n_layers=1, n_experts=8, expert_bytes=MB,
                              vram_budget_bytes=MB, ewma_alpha=0.0)
        with pytest.raises(ConfigError):
            ExpertCacheConfig(n_layers=1, n_experts=8, expert_bytes=MB,
                              vram_budget_bytes=MB, admit_margin=0.9)


class TestWarmStart:
    def test_seeds_residency(self):
        cache = make_cache()
        cache.warm_start([{0, 1}, {2}])
        assert cache.n_resident == 3
        assert cache.is_resident(0, 0) and cache.is_resident(1, 2)
        assert not cache.is_resident(0, 2)
        assert cache.vram_used_bytes == 3 * MB

    def test_from_placement_plan(self):
        pop = np.array([[5, 0, 0, 1], [0, 7, 0, 0]])
        plan = plan_gpu_residency(pop, vram_budget_bytes=2 * MB,
                                  expert_bytes=MB)
        cache = make_cache(n_layers=2, n_experts=4, capacity=2)
        cache.warm_start(plan)
        assert cache.residency() == plan.gpu_resident

    def test_rejects_bad_plans(self):
        cache = make_cache()
        with pytest.raises(ConfigError):
            cache.warm_start([{0}])            # wrong layer count
        with pytest.raises(ConfigError):
            cache.warm_start([{0, 99}, set()])  # expert out of range
        with pytest.raises(ConfigError):
            cache.warm_start([{0, 1, 2}, {3, 4}])  # exceeds capacity


class TestStep:
    def test_hit_miss_accounting_pre_upload(self):
        cache = make_cache(n_layers=1, n_experts=8, capacity=2)
        counts = np.array([[10, 5, 0, 0, 0, 0, 0, 1]])
        first = cache.step(counts)
        # Nothing resident yet: everything misses, uploads are prefetch.
        assert first.hit_tokens == 0 and first.miss_tokens == 16
        assert first.hit_rate == 0.0
        assert len(first.uploads) == 2          # fills free capacity
        second = cache.step(counts)
        assert second.hit_tokens == 15          # experts 0 and 1 now resident
        assert second.n_hit_experts == 2
        assert second.hit_rate == pytest.approx(15 / 16)

    def test_respects_capacity_and_upload_cap(self):
        cache = make_cache(n_layers=1, n_experts=16, capacity=6,
                           max_uploads_per_step=2)
        counts = hot_counts(1, 16, hot=range(8), seed=1)
        for _ in range(10):
            r = cache.step(counts)
            assert len(r.uploads) <= 2
            assert cache.n_resident <= 6

    def test_eviction_replaces_coldest(self):
        cache = make_cache(n_layers=1, n_experts=8, capacity=2,
                           admit_margin=1.0)
        a = np.array([[20, 20, 0, 0, 0, 0, 0, 0]])
        b = np.array([[0, 0, 30, 30, 0, 0, 0, 0]])
        cache.step(a)
        assert cache.residency() == [{0, 1}]
        for _ in range(8):
            cache.step(b)
        assert cache.residency() == [{2, 3}]
        assert cache.total_evictions == 2
        assert [(l, e) for _, l, e in cache.eviction_log] == [(0, 0), (0, 1)]

    def test_hysteresis_blocks_marginal_swaps(self):
        cache = make_cache(n_layers=1, n_experts=4, capacity=2,
                           admit_margin=2.0)
        cache.step(np.array([[10, 10, 0, 0]]))
        # Equally-hot newcomers never clear a 2x margin over residents.
        for _ in range(20):
            cache.step(np.array([[0, 0, 10, 10]]))
            cache.step(np.array([[10, 10, 0, 0]]))
        assert cache.total_evictions == 0
        assert cache.residency() == [{0, 1}]

    def test_transfer_and_stall_model(self):
        cache = make_cache(n_layers=1, n_experts=8, capacity=4,
                           max_uploads_per_step=4)
        r = cache.step(np.array([[9, 9, 9, 9, 0, 0, 0, 0]]),
                       overlap_window_us=0.0)
        assert len(r.uploads) == 4
        assert r.bytes_transferred == 4 * MB
        assert r.transfer_us == pytest.approx(
            pcie_transfer_time_us(4 * MB, LINK))
        assert r.stall_us == pytest.approx(r.transfer_us)   # nothing hidden
        # A wide-enough attention window hides the whole transfer.
        cache2 = make_cache(n_layers=1, n_experts=8, capacity=4,
                            max_uploads_per_step=4)
        r2 = cache2.step(np.array([[9, 9, 9, 9, 0, 0, 0, 0]]),
                         overlap_window_us=1e9)
        assert r2.stall_us == 0.0

    def test_never_admits_unseen_experts(self):
        cache = make_cache(n_layers=1, n_experts=8, capacity=4)
        r = cache.step(np.array([[5, 0, 0, 0, 0, 0, 0, 0]]))
        assert r.uploads == ((0, 0),)          # only the observed expert

    def test_shape_and_window_validation(self):
        cache = make_cache()
        with pytest.raises(ConfigError):
            cache.step(np.zeros((3, 8)))
        with pytest.raises(ConfigError):
            cache.step(np.zeros((2, 8)), overlap_window_us=-1.0)
        with pytest.raises(ConfigError):
            cache.hit_rate(np.zeros((1, 4)))

    def test_observe_routing(self):
        cfg = RouterConfig(n_experts=8, top_k=2)
        routing = route(balanced_synthetic_logits(
            16, cfg, np.random.default_rng(0)), cfg)
        cache = make_cache(n_layers=2, n_experts=8, capacity=3)
        r = cache.observe_routing(routing, layer=1)
        assert r.total_tokens == 32
        assert all(layer == 1 for layer, _ in r.uploads)


class TestAdaptation:
    def test_recovers_after_hot_set_shift(self):
        n_experts, capacity = 32, 8
        cache = make_cache(n_layers=1, n_experts=n_experts, capacity=capacity)
        hot_a, hot_b = range(0, 8), range(16, 24)
        for i in range(30):
            cache.step(hot_counts(1, n_experts, hot_a, seed=i))
        pre = cache.hit_rate(hot_counts(1, n_experts, hot_a, seed=99))
        rates = []
        for i in range(30):
            r = cache.step(hot_counts(1, n_experts, hot_b, seed=100 + i))
            rates.append(r.hit_rate)
        post = np.mean(rates[-10:])
        oracle = oracle_hit_rate(
            sum(hot_counts(1, n_experts, hot_b, seed=100 + i)
                for i in range(30)), capacity)
        assert rates[0] < 0.3                  # shift tanks the old residency
        assert post >= 0.8 * oracle            # ...and the cache recovers
        assert pre >= 0.8                      # it was adapted before, too

    def test_oracle_hit_rate(self):
        counts = np.array([[10, 5, 1, 0]])
        assert oracle_hit_rate(counts, 1) == pytest.approx(10 / 16)
        assert oracle_hit_rate(counts, 4) == 1.0
        assert oracle_hit_rate(np.zeros((1, 4)), 2) == 0.0
        with pytest.raises(ConfigError):
            oracle_hit_rate(counts, 0)


class TestCacheAwarePricing:
    @pytest.fixture(scope="class")
    def session(self):
        model = MoETransformer(tiny_config("tiny-qw"))
        return InferenceSession(model, DS3)

    def test_apply_expert_cache_scales_with_hits(self, session):
        costs = BatchCostModel(session)
        costs.decode_step_us([64] * 8)
        work = next(w for w in costs._works[StepKey(8, 64)] if w.cpu_routed_us > 0)
        tokens = 8 * DS3.top_k
        half = apply_expert_cache(work, DS3, MACHINE, BF16, tokens,
                                  hit_tokens=tokens // 2, n_hit_experts=8)
        full = apply_expert_cache(work, DS3, MACHINE, BF16, tokens,
                                  hit_tokens=tokens, n_hit_experts=16)
        assert half.cpu_routed_us == pytest.approx(work.cpu_routed_us / 2)
        assert full.cpu_routed_us == MIN_CPU_DISPATCH_US
        assert full.gpu_shared_us > half.gpu_shared_us > work.gpu_shared_us
        with pytest.raises(ValueError):
            apply_expert_cache(work, DS3, MACHINE, BF16, tokens,
                               hit_tokens=tokens + 1, n_hit_experts=1)
        with pytest.raises(ValueError):
            apply_expert_cache(work, DS3, MACHINE, BF16, tokens,
                               hit_tokens=4, n_hit_experts=0)

    def test_higher_hit_rate_is_faster(self, session):
        """CPU expert time dominates decode, so hits buy step time."""
        from repro.moe.expert_cache import CacheStepResult

        costs = BatchCostModel(session)

        def step(hits, n_exp):
            res = CacheStepResult(
                step=0, hit_tokens=hits, miss_tokens=64 - hits,
                n_hit_experts=n_exp, uploads=(), evictions=(),
                bytes_transferred=0.0, transfer_us=0.0, stall_us=0.0)
            return costs.cached_decode_step_us([64] * 8, res)

        cold, warm, hot = step(0, 0), step(32, 8), step(61, 16)
        assert cold == pytest.approx(costs.decode_step_us([64] * 8), rel=0.01)
        assert hot < warm < cold

    def test_stall_added_on_top(self, session):
        from repro.moe.expert_cache import CacheStepResult

        costs = BatchCostModel(session)
        res = CacheStepResult(step=0, hit_tokens=32, miss_tokens=32,
                              n_hit_experts=8, uploads=(), evictions=(),
                              bytes_transferred=0.0, transfer_us=0.0,
                              stall_us=123.0)
        base = costs.cached_decode_step_us(
            [64] * 8, CacheStepResult(step=0, hit_tokens=32, miss_tokens=32,
                                      n_hit_experts=8, uploads=(),
                                      evictions=(), bytes_transferred=0.0,
                                      transfer_us=0.0, stall_us=0.0))
        assert costs.cached_decode_step_us([64] * 8, res) == pytest.approx(
            base + 123.0)

    def test_cache_aware_step_time_validates_stall(self, session):
        from repro.errors import SchedulingError

        costs = BatchCostModel(session)
        costs.decode_step_us([64])
        works = costs._works[StepKey(1, 64)]
        with pytest.raises(SchedulingError):
            cache_aware_step_time_us(works, costs._schedule_config(),
                                     MACHINE, transfer_stall_us=-1.0)


class TestServingIntegration:
    @pytest.fixture(scope="class")
    def session(self):
        model = MoETransformer(tiny_config("tiny-qw"))
        return InferenceSession(model, DS3)

    def _workload(self, seed=3):
        return poisson_workload(n_requests=8, mean_interarrival_us=1e4,
                                prompt_len=16, max_new_tokens=6,
                                vocab_size=64, seed=seed)

    def test_cache_metrics_in_serving_stats(self, session):
        cache = serving_expert_cache(
            session, vram_budget_bytes=32 * DS3.expert_bytes(BF16))
        server = ContinuousBatchingServer(session, expert_cache=cache)
        stats = server.replay(self._workload())
        s = stats.summary()
        for key in ("cache_hit_rate", "cache_evictions", "cache_uploads",
                    "cache_bytes_transferred_mb", "cache_stall_ms"):
            assert key in s and np.isfinite(s[key])
        assert server.cache_timeline.n_iterations > 0
        assert s["cache_uploads"] > 0           # the cache actually filled
        traj = server.cache_timeline.as_dict()["iterations"]
        assert all(0.0 <= p["hit_rate"] <= 1.0 for p in traj)

    def test_no_cache_keeps_summary_clean(self, session):
        server = ContinuousBatchingServer(session)
        s = server.replay(self._workload()).summary()
        assert "cache_hit_rate" not in s
        assert server.cache_timeline is None

    def test_routing_stream_requires_cache(self, session):
        with pytest.raises(ConfigError):
            ContinuousBatchingServer(
                session, routing_stream=lambda i, b: np.zeros(256))


class TestDeterminism:
    """Same seeds in, identical histories out (ISSUE 2 satellite)."""

    def test_cache_eviction_sequence_deterministic(self):
        def run():
            cache = make_cache(n_layers=2, n_experts=16, capacity=6,
                               admit_margin=1.0)
            results = []
            for i in range(40):
                hot = range(0, 4) if i < 20 else range(8, 12)
                results.append(cache.step(
                    hot_counts(2, 16, hot, seed=i), overlap_window_us=50.0))
            return cache, results

        c1, r1 = run()
        c2, r2 = run()
        assert c1.eviction_log == c2.eviction_log
        assert c1.upload_log == c2.upload_log
        assert c1.total_evictions > 0          # the shift forced evictions
        assert [r.hit_rate for r in r1] == [r.hit_rate for r in r2]
        assert c1.residency() == c2.residency()

    def test_server_replay_deterministic(self):
        model = MoETransformer(tiny_config("tiny-qw"))
        session = InferenceSession(model, DS3)
        wl = poisson_workload(n_requests=6, mean_interarrival_us=5e4,
                              prompt_len=16, max_new_tokens=6,
                              vocab_size=64, seed=13)

        def run():
            cache = serving_expert_cache(
                session, vram_budget_bytes=24 * DS3.expert_bytes(BF16))
            server = ContinuousBatchingServer(
                session, BatchSchedulerConfig(), expert_cache=cache)
            return server.replay(list(wl))

        s1, s2 = run(), run()
        assert s1.timings == s2.timings
        assert s1.summary() == s2.summary()
        assert (s1.expert_cache.as_dict() == s2.expert_cache.as_dict())
