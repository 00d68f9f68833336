"""The memoized step price: its fidelity to the direct simulator price,
its bucket ladders and how its key is built.

``BatchCostModel`` prices a decode batch at the ceiling of its context
bucket.  The first context past a bucket is the worst case: it prices at
the next bucket up.  Over that worst case the memo stays within
``TOLERANCE`` of the simulator run on the batch's actual lengths, all the
way to 128k-token contexts.
"""

import pytest

from repro.core import batched_decode_works
from repro.errors import ConfigError
from repro.faults import StepPerturbation
from repro.kernels import DEFAULT_BACKEND, available_backends
from repro.model import DS3, MoETransformer, tiny_config
from repro.moe.expert_cache import CacheStepResult
from repro.sched import batched_step_time_us
from repro.serving import (BatchCostModel, BatchSchedulerConfig,
                           InferenceSession, StepKey)

TOLERANCE = 0.02
CTX_BUCKETS = BatchCostModel.CTX_BUCKETS
CHUNK_BUCKETS = BatchCostModel.CHUNK_BUCKETS
# The context ladder: the four original buckets, then 2^(1/8) steps from
# 4096 to 262144 tokens.
LADDER = (64, 256, 1024, 4096) + tuple(
    round(4096 * 2 ** (k / 8)) for k in range(1, 49))
WORST_CONTEXTS = [b + 1 for b in LADDER if 1024 <= b <= 131072]


@pytest.fixture(scope="module")
def session():
    return InferenceSession(MoETransformer(tiny_config("tiny-qw")), DS3)


# Every batch on the default backend; the other registered backends at
# batch 64, the worst case on the default one.
CASES = [(None, batch) for batch in (1, 32, 64)] + [
    (name, 64) for name in available_backends() if name != DEFAULT_BACKEND]


@pytest.mark.parametrize("backend,batch", CASES)
def test_memo_tracks_direct_price_to_128k(session, backend, batch):
    memo = BatchCostModel(session, backend=backend)
    costs = session.costs
    worst = 0.0
    for ctx in WORST_CONTEXTS:
        lens = [ctx] * batch
        works, _ = batched_decode_works(costs.system, costs.preset,
                                        memo.machine, costs.dtype,
                                        context_lens=lens,
                                        backend=memo.backend)
        direct = batched_step_time_us(works, memo._schedule_config(),
                                      memo.machine)
        err = abs(memo.decode_step_us(lens) / direct - 1.0)
        worst = max(worst, err)
        assert err <= TOLERANCE, (ctx, err)
    assert worst > 0.0          # the grid really crosses bucket edges


def test_larger_chunks_price_higher(session):
    costs = BatchCostModel(session)
    lens = [64] * 8
    assert (costs.hybrid_step_us(lens, 8192)
            > costs.hybrid_step_us(lens, 4096)
            > costs.hybrid_step_us(lens, 2048))


def test_bucket_ladders():
    assert CTX_BUCKETS == LADDER
    assert CHUNK_BUCKETS[:8] == (16, 32, 64, 128, 256, 512, 1024, 2048)
    assert CTX_BUCKETS[-1] == CHUNK_BUCKETS[-1] == 262144


def test_past_the_top_bucket_raises(session):
    costs = BatchCostModel(session)
    with pytest.raises(ConfigError):
        costs.decode_step_us([CTX_BUCKETS[-1] + 1])
    with pytest.raises(ConfigError):
        costs.hybrid_step_us([64], CHUNK_BUCKETS[-1] + 1)


def test_config_rejects_budgets_past_the_top_bucket():
    BatchSchedulerConfig(kv_budget_tokens=CTX_BUCKETS[-1],
                         prefill_chunk_tokens=CHUNK_BUCKETS[-1])
    with pytest.raises(ConfigError, match="kv_budget_tokens"):
        BatchSchedulerConfig(kv_budget_tokens=CTX_BUCKETS[-1] + 1)
    with pytest.raises(ConfigError, match="prefill_chunk_tokens"):
        BatchSchedulerConfig(prefill_chunk_tokens=CHUNK_BUCKETS[-1] + 1)


def test_step_key_decides_the_short_circuits(session):
    costs = BatchCostModel(session)
    idle = CacheStepResult(step=0, hit_tokens=0, miss_tokens=0,
                           n_hit_experts=0, uploads=(), evictions=(),
                           bytes_transferred=0.0, transfer_us=0.0,
                           stall_us=5.0)
    plain = costs.step_key([64] * 4)
    assert plain == StepKey(4, 64)
    assert costs.step_key([64] * 4, 0, idle, StepPerturbation()) == plain
    assert costs.step_key([], 40) == StepKey(0, 0, 64)
    storm = StepPerturbation(cpu_scale=1.3)
    assert costs.step_key([64] * 4, pert=storm).pert == storm.price_key()
    # The stall rides on top of the clean price.
    assert (costs.cached_decode_step_us([64] * 4, idle)
            == costs.price(plain) + 5.0)
    with pytest.raises(ConfigError):
        costs.price(costs.step_key([64] * 4, pert=storm))   # no hook given
