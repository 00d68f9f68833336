"""Unit tests for the fleet router: policies, faults, and accounting.

The fleet *bench* (``benchmarks/test_fleet_serving.py``) scores routing
policies on a realistic workload; this file pins the mechanics with
small deterministic workloads: policy selection tables, affinity
stickiness, kill resubmission (nothing lost, nothing double-counted),
drain semantics, shed accounting, and the stats plumbing.
"""

import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan, ReplicaFault
from repro.model import QW2, MoETransformer, tiny_config
from repro.serving import (
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    FleetConfig,
    FleetRouter,
    GenerationRequest,
    InferenceSession,
    Priority,
    ServingSLO,
    TimedRequest,
)

SESSION = InferenceSession(MoETransformer(tiny_config("tiny-qw")), QW2)


def make_server(**sched):
    """A small, fast replica for unit workloads."""
    cfg = dict(kv_budget_tokens=2048, max_batch_size=4)
    cfg.update(sched)
    return ContinuousBatchingServer(SESSION, BatchSchedulerConfig(**cfg))


def req(arrival_us, prompt_len=32, max_new=2, session_id=None,
        priority=Priority.STANDARD):
    """One timed request with a deterministic prompt."""
    prompt = [(i * 7 + prompt_len) % 61 + 1 for i in range(prompt_len)]
    return TimedRequest(arrival_us=arrival_us,
                        request=GenerationRequest(prompt,
                                                  max_new_tokens=max_new),
                        priority=priority, session_id=session_id)


def fleet(n=2, policy="least-loaded", plan=None, **cfg):
    return FleetRouter(make_server,
                       FleetConfig(n_replicas=n, policy=policy, **cfg),
                       fault_plan=plan)


class TestConfigValidation:
    def test_bad_replica_count(self):
        with pytest.raises(ConfigError):
            FleetConfig(n_replicas=0)

    def test_bad_policy(self):
        with pytest.raises(ConfigError):
            FleetConfig(policy="random")

    def test_bad_on_kill(self):
        with pytest.raises(ConfigError):
            FleetConfig(on_kill="retry")

    def test_negative_resubmit_delay(self):
        with pytest.raises(ConfigError):
            FleetConfig(resubmit_delay_us=-1.0)

    def test_fault_targets_missing_replica(self):
        plan = FaultPlan(replicas=(ReplicaFault(1e6, 2e6, replica=5),))
        with pytest.raises(ConfigError):
            fleet(n=2, plan=plan)

    def test_replica_fault_validation(self):
        with pytest.raises(ConfigError):
            ReplicaFault(1e6, 2e6, replica=-1)
        with pytest.raises(ConfigError):
            ReplicaFault(1e6, 2e6, kind="pause")

    def test_empty_workload(self):
        with pytest.raises(ConfigError):
            fleet().replay([])


class TestRoutingPolicies:
    def test_round_robin_rotates(self):
        stats = fleet(n=2, policy="round-robin").replay(
            [req(i * 1e5) for i in range(4)])
        assert stats.routed == [2, 2]
        assert [a[3] for a in stats.assignments] == [0, 1, 0, 1]

    def test_least_loaded_avoids_backlog(self):
        # Request 1 loads replica 0; request 2 lands while it is still
        # estimated busy, so the router picks the idle replica 1.
        stats = fleet(n=2).replay([req(0.0), req(1e4)])
        assert [a[3] for a in stats.assignments] == [0, 1]

    def test_least_loaded_idle_ties_spread(self):
        # Simultaneous-ish arrivals on an idle fleet spread by
        # assignment count instead of all hitting replica 0.
        stats = fleet(n=4).replay(
            [req(0.0), req(0.0), req(0.0), req(0.0)])
        assert sorted(stats.routed) == [1, 1, 1, 1]

    def test_affinity_sticks_across_turns(self):
        wl = [req(0.0, session_id="a"),
              req(1e5, session_id="b"),
              req(2e6, session_id="a"),
              req(2.5e6, session_id="b"),
              req(4e6, session_id="a")]
        stats = fleet(n=2, policy="session-affinity").replay(wl)
        by_sid = {}
        for t_us, sid, _prio, replica in stats.assignments:
            by_sid.setdefault(sid, set()).add(replica)
        assert all(len(replicas) == 1 for replicas in by_sid.values())
        assert by_sid["a"] != by_sid["b"]
        assert stats.affinity_hits == 3        # follow-up turns
        assert stats.affinity_rebalances == 0

    def test_affinity_untagged_falls_back(self):
        stats = fleet(n=2, policy="session-affinity").replay(
            [req(0.0), req(1e4)])
        assert stats.affinity_hits == 0
        assert sum(stats.routed) == 2

    def test_affinity_rebalances_around_dead_replica(self):
        # Session pinned to replica 0; its second turn arrives while
        # replica 0 is killed, so the session remaps (one rebalance) and
        # stays on the new replica afterwards.
        plan = FaultPlan(replicas=(ReplicaFault(1e6, 4e6, replica=0),))
        wl = [req(0.0, session_id="a"),
              req(2e6, session_id="a"),
              req(5e6, session_id="a")]
        stats = fleet(n=2, policy="session-affinity", plan=plan).replay(wl)
        assert stats.affinity_rebalances == 1
        assert stats.assignments[1][3] == 1
        assert stats.assignments[2][3] == 1    # sticky on the new home

    def test_priority_spill_protects_fast_lane(self):
        wl = [req(0.0, priority=Priority.BATCH),
              req(1e4, priority=Priority.BATCH),
              req(2e4, priority=Priority.INTERACTIVE)]
        stats = fleet(n=2, policy="priority-spill").replay(wl)
        batch = [a[3] for a in stats.assignments[:2]]
        interactive = stats.assignments[2][3]
        # Batch traffic spilled away from the protected replica; the
        # interactive arrival takes the least-loaded (protected) one.
        assert stats.spill_routed == 2
        assert interactive not in batch or len(set(batch)) == 1


class TestKillSemantics:
    KILL = FaultPlan(replicas=(ReplicaFault(2e5, 3e6, replica=0),))

    def test_resubmit_loses_nothing(self):
        # The request routed to replica 0 is in flight when the kill
        # lands: it must resubmit and finish elsewhere, exactly once.
        wl = [req(0.0), req(1e4)]
        stats = fleet(n=2, plan=self.KILL).replay(wl)
        assert stats.kills == 1
        assert stats.killed_in_flight == 1
        assert stats.resubmitted == 1
        assert stats.n_requests == 2           # nothing lost
        assert stats.n_shed == 0
        assert len(stats.timings) == 2         # nothing double-counted

    def test_resubmit_delay_shifts_arrival(self):
        stats = fleet(n=2, plan=self.KILL,
                      resubmit_delay_us=5e4).replay([req(0.0), req(1e4)])
        resubmitted = [t for t in stats.timings
                       if t.arrival_us == 2e5 + 5e4]
        assert len(resubmitted) == 1

    def test_shed_on_kill_counts_against_goodput(self):
        stats = fleet(n=2, plan=self.KILL, on_kill="shed").replay(
            [req(0.0), req(1e4)])
        assert stats.shed_on_kill == 1
        assert stats.n_shed == 1
        assert stats.n_requests == 1
        good = stats.goodput(ServingSLO(ttft_ms=1e6, tpot_ms=1e6))
        assert good["attainment"] == pytest.approx(0.5)

    def test_killed_replica_restarts_cold(self):
        # Work routed to replica 0 after the window runs on a fresh
        # server: two epochs, both serving.
        wl = [req(0.0), req(1e4), req(4e6), req(4.01e6)]
        stats = fleet(n=2, plan=self.KILL).replay(wl)
        assert stats.n_requests == 4
        assert len(stats.epoch_stats) >= 2


class TestDrainSemantics:
    DRAIN = FaultPlan(
        replicas=(ReplicaFault(1e5, 3e6, replica=0, kind="drain"),))

    def test_drain_completes_in_flight_work(self):
        # Replica 0 takes a request, then drains: the request still
        # finishes on replica 0 -- no casualties, no resubmission.
        wl = [req(0.0), req(2e5)]
        stats = fleet(n=2, plan=self.DRAIN).replay(wl)
        assert stats.drains == 1
        assert stats.kills == 0
        assert stats.resubmitted == 0
        assert stats.n_requests == 2
        assert stats.routed == [1, 1]          # drained replica skipped
        assert stats.assignments[1][3] == 1

    def test_all_draining_defers_arrivals(self):
        plan = FaultPlan(
            replicas=(ReplicaFault(1e5, 2e6, replica=0, kind="drain"),))
        wl = [req(2e5)]
        stats = fleet(n=1, plan=plan).replay(wl)
        assert stats.deferred_arrivals == 1
        assert stats.n_requests == 1
        # The arrival waited at the router until the window closed.
        assert stats.timings[0].arrival_us == 2e6


class TestFleetStats:
    def test_summary_carries_fleet_counters(self):
        stats = fleet(n=2, policy="round-robin").replay(
            [req(0.0), req(1e5)])
        s = stats.summary()
        assert s["fleet_replicas"] == 2.0
        assert s["fleet_kills"] == 0.0
        assert s["fleet_routed_imbalance"] == 1.0
        assert s["requests"] == 2.0

    def test_idle_replica_summary_is_zeroed(self):
        stats = fleet(n=2).replay([req(0.0)])
        assert stats.replica_summary(1) == {"requests": 0.0}
        assert stats.replica_summary(0)["requests"] == 1.0

    def test_reuse_fraction_without_prefix_cache(self):
        stats = fleet(n=2).replay([req(0.0), req(1e5)])
        assert stats.prefix_reuse_fraction() == 0.0

    def test_merged_pipeline_accounting(self):
        # Staged replicas keep their pipeline counters through the
        # multi-epoch merge.
        router = FleetRouter(
            lambda: make_server(pipeline_stages=2),
            FleetConfig(n_replicas=2, policy="round-robin"))
        stats = router.replay([req(0.0), req(1e5)])
        parts = [e.pipeline for e in stats.epoch_stats]
        assert len(parts) == 2 and stats.merged is not stats.epoch_stats[0]
        s = stats.summary()
        serial = sum(p.serial_us for p in parts)
        staged = sum(p.staged_us for p in parts)
        assert s["pipeline_stages"] == 2.0
        assert s["pipeline_iterations"] == float(
            sum(p.staged_iterations for p in parts)) > 0
        assert s["pipeline_serial_ms"] == serial / 1e3
        assert s["pipeline_staged_ms"] == staged / 1e3
        assert s["pipeline_interstage_ms"] == sum(
            p.interstage_transfer_us for p in parts) / 1e3
        assert s["pipeline_step_speedup"] == serial / staged
