"""Closed-form tests for the pipeline stage-split decode interval model.

``tests/test_multi_gpu_batch_kv.py`` covers the task-graph simulators
(:func:`simulate_pipelined_prefill` / ``_decode``) and the layer-to-stage
assignment; this file locks down the *steady-state interval* model the
continuous-batching scheduler prices decode iterations with
(:func:`stage_works` / :func:`stage_boundary_bytes` /
:func:`interstage_transfer_us` / :func:`staged_interval_us` /
:func:`staged_step_time_us`), plus the :class:`BatchCostModel` pipeline
plumbing built on top of it.
"""

import pytest

from repro.errors import SchedulingError
from repro.hw import paper_testbed
from repro.hw.roofline import pcie_transfer_time_us
from repro.model import DS3, MoETransformer, tiny_config
from repro.sched import (
    DecodeScheduleConfig,
    LaunchMode,
    PipelineConfig,
    batched_step_time_us,
    interstage_transfer_us,
    stage_boundary_bytes,
    stage_works,
    staged_interval_us,
    staged_step_time_us,
)
from repro.sched.workload import DecodeLayerWork
from repro.serving import BatchCostModel, InferenceSession, PipelineStats

MACHINE = paper_testbed("a100")
SCHED = DecodeScheduleConfig(LaunchMode.CUDA_GRAPH, True, top_k=8)


def _work(attn=40.0, shared=25.0, cpu=300.0, xfer=64e3):
    return DecodeLayerWork(gpu_attn_us=attn, gpu_shared_us=shared,
                           cpu_routed_us=cpu, transfer_bytes=xfer,
                           n_gpu_kernels=12)


def _works(n_layers=8, **kw):
    return [_work(**kw) for _ in range(n_layers)]


class TestStageSplit:
    def test_partition_preserves_order_and_layers(self):
        works = [_work(attn=float(k)) for k in range(8)]
        stages = stage_works(works, PipelineConfig(2))
        assert len(stages) == 2
        assert stages[0] + stages[1] == works
        assert [w.gpu_attn_us for w in stages[0]] == [0.0, 1.0, 2.0, 3.0]

    def test_more_stages_than_layers_leaves_trailing_empty(self):
        stages = stage_works(_works(2), PipelineConfig(4))
        assert [len(s) for s in stages] == [1, 1, 0, 0]

    def test_empty_works_raises(self):
        with pytest.raises(SchedulingError):
            stage_works([], PipelineConfig(2))

    def test_boundary_count_matches_nonempty_stages(self):
        works = _works(8)
        for n_stages in (1, 2, 4, 8):
            boundary = stage_boundary_bytes(works, PipelineConfig(n_stages))
            nonempty = sum(
                1 for s in stage_works(works, PipelineConfig(n_stages)) if s)
            assert len(boundary) == nonempty - 1

    def test_boundary_bytes_are_the_boundary_layers(self):
        works = [_work(xfer=float(1000 + k)) for k in range(8)]
        # 2 stages over 8 layers: the only boundary layer is index 4.
        assert stage_boundary_bytes(works, PipelineConfig(2)) == (1004.0,)

    def test_single_stage_has_no_boundaries(self):
        assert stage_boundary_bytes(_works(), PipelineConfig(1)) == ()
        assert interstage_transfer_us(
            _works(), PipelineConfig(1), MACHINE.interconnect) == 0.0

    def test_transfer_pricing_matches_roofline(self):
        works = _works(8, xfer=256e3)
        cfg = PipelineConfig(4)
        expected = sum(
            pcie_transfer_time_us(b, MACHINE.interconnect)
            for b in stage_boundary_bytes(works, cfg))
        assert interstage_transfer_us(
            works, cfg, MACHINE.interconnect) == expected
        assert expected > 0.0


class TestStagedInterval:
    def test_one_stage_is_exactly_the_batched_step(self):
        works = _works()
        serial = batched_step_time_us(works, SCHED, MACHINE)
        assert staged_interval_us(
            works, SCHED, MACHINE, PipelineConfig(1)) == serial
        assert staged_step_time_us(
            works, SCHED, MACHINE, PipelineConfig(1)) == serial

    def test_single_nonempty_stage_collapses_to_serial(self):
        # 1 layer over 2 stages: only stage 0 holds work.
        works = _works(1)
        serial = batched_step_time_us(works, SCHED, MACHINE)
        assert staged_interval_us(
            works, SCHED, MACHINE, PipelineConfig(2)) == serial

    def test_interval_never_beats_serial(self):
        works = _works()
        serial = batched_step_time_us(works, SCHED, MACHINE)
        for n_stages in (2, 3, 4, 8):
            assert staged_interval_us(
                works, SCHED, MACHINE, PipelineConfig(n_stages)) <= serial

    def test_gpu_bound_interval_is_the_slowest_stage(self):
        works = _works(cpu=0.0)
        cfg = PipelineConfig(2)
        serial = batched_step_time_us(works, SCHED, MACHINE)
        slowest = max(
            batched_step_time_us(s, SCHED, MACHINE)
            for s in stage_works(works, cfg) if s)
        got = staged_interval_us(works, SCHED, MACHINE, cfg)
        assert got == min(serial, slowest)
        # With no CPU floor a 2-way split genuinely runs faster.
        assert got < serial

    def test_cpu_floor_serializes_across_stages(self):
        # Routed experts dwarf GPU work: the shared CPU pool floors the
        # interval at the summed expert time, so splitting buys nothing.
        works = _works(attn=1.0, shared=1.0, cpu=500.0, xfer=1e3)
        cfg = PipelineConfig(4)
        floor = sum(w.cpu_routed_us for w in works)
        got = staged_interval_us(works, SCHED, MACHINE, cfg)
        assert got >= floor
        assert got <= batched_step_time_us(works, SCHED, MACHINE)

    def test_step_time_is_interval_plus_handoffs(self):
        works = _works()
        for n_stages in (2, 4):
            cfg = PipelineConfig(n_stages)
            assert staged_step_time_us(works, SCHED, MACHINE, cfg) == (
                staged_interval_us(works, SCHED, MACHINE, cfg)
                + interstage_transfer_us(works, cfg, MACHINE.interconnect))

    def test_interval_closed_form(self):
        # min(serial, max(slowest stage, shared-CPU floor)), exactly.
        works = _works(attn=1.0, shared=1.0, cpu=500.0, xfer=1e6)
        cfg = PipelineConfig(2)
        serial = batched_step_time_us(works, SCHED, MACHINE)
        slowest = max(batched_step_time_us(s, SCHED, MACHINE)
                      for s in stage_works(works, cfg) if s)
        floor = sum(w.cpu_routed_us for w in works)
        assert staged_interval_us(works, SCHED, MACHINE, cfg) == \
            min(serial, max(slowest, floor))


class TestBatchCostModelPipeline:
    @pytest.fixture(scope="class")
    def session(self):
        return InferenceSession(MoETransformer(tiny_config("tiny-qw")), DS3)

    def test_single_stage_factors_are_identity(self, session):
        model = BatchCostModel(session)
        assert model.pipeline_factors([64, 64]) == (1.0, ())
        assert model.staged_decode_step_us([64, 64]) == \
            model.decode_step_us([64, 64])

    def test_factors_shape_and_memoization(self, session):
        model = BatchCostModel(session, pipeline_stages=2)
        ratio, boundary = model.pipeline_factors([64] * 4)
        assert 0.0 < ratio <= 1.0
        assert len(boundary) == 1
        # Same step shape -> the memoized tuple, not a re-simulation.
        assert model.pipeline_factors([64] * 4) is \
            model.pipeline_factors([64] * 4)

    def test_staged_decode_prices_ratio_plus_handoffs(self, session):
        model = BatchCostModel(session, pipeline_stages=2)
        ctx = [64] * 4
        ratio, boundary = model.pipeline_factors(ctx)
        link = session.costs.machine.interconnect
        expected = (model.decode_step_us(ctx) * ratio
                    + sum(pcie_transfer_time_us(b, link) for b in boundary))
        assert model.staged_decode_step_us(ctx) == expected

    def test_staged_decode_matches_direct_stage_pricing(self, session):
        # The ratio decomposition must be exact, not approximate: pricing
        # through pipeline_factors equals pricing the staged step
        # directly from the same per-layer works.
        model = BatchCostModel(session, pipeline_stages=2)
        ctx = [64] * 4
        via_ratio = model.staged_decode_step_us(ctx)
        key = model.step_key(ctx)
        model.decode_step_us(ctx)
        direct = staged_step_time_us(
            model._works[key], model._schedule_config(),
            session.costs.machine, PipelineConfig(2))
        assert via_ratio == direct


class TestPipelineStats:
    def test_summary_keys_and_speedup(self):
        stats = PipelineStats(n_stages=2, staged_iterations=10,
                              serial_us=2000.0, staged_us=1600.0,
                              interstage_transfer_us=40.0)
        s = stats.summary()
        assert s["pipeline_stages"] == 2
        assert s["pipeline_iterations"] == 10
        assert s["pipeline_step_speedup"] == pytest.approx(2000.0 / 1600.0)

    def test_empty_stats_speedup_is_neutral(self):
        assert PipelineStats(n_stages=2).summary()[
            "pipeline_step_speedup"] == 1.0
