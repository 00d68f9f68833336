"""Fleet-scale serving: N replica servers behind a routing layer.

The paper's hybrid CPU/GPU engine deploys in practice as *replicated*
servers (the Kimi-K2.5 topology: k8s replicas x pipeline stages over a
shared CPU expert pool).  :class:`FleetRouter` models that control
plane: it owns ``n_replicas`` independent
:class:`~repro.serving.continuous.ContinuousBatchingServer` replicas --
each with its own admission queue, KV pool, expert cache, prefix cache,
and graph cache -- and routes a timed workload across them under a
pluggable policy:

- ``"round-robin"`` -- rotate over the replicas currently accepting;
- ``"least-loaded"`` -- estimated-backlog argmin (prefill + decode cost
  from the session's :class:`~repro.serving.session.PhaseCostModel`);
- ``"session-affinity"`` -- sticky ``session_id -> replica`` mapping so
  multi-turn prefix reuse survives routing (falls back to least-loaded
  for untagged or orphaned traffic, counting every rebalance);
- ``"priority-spill"`` -- INTERACTIVE traffic takes the least-loaded
  replica; STANDARD/BATCH spills away from it so the fast lane stays
  clear;
- ``"adaptive"`` -- weighted round-robin whose weights a
  :class:`RoutingWeightAdapter` adapts online from EWMA-smoothed
  inverse backlog (the fleet-level arm of the self-tuning control
  plane in :mod:`repro.serving.controller`): replicas that fall behind
  -- a slow pipeline, a cold restart -- shed routing share until their
  backlog recovers, deterministically via stride scheduling.

Replica-level chaos comes from :class:`~repro.faults.plan.ReplicaFault`
windows in a :class:`~repro.faults.plan.FaultPlan`: a ``"kill"`` window
loses the replica's queued and in-flight requests at its start (the
router resubmits or sheds them per :class:`FleetConfig.on_kill`) and
restarts the replica cold at its end; a ``"drain"`` window stops new
assignments while everything already routed completes.

Determinism: routing is a single chronological sweep over arrival and
kill events with total-ordered tie-breaks, every replica replays its
work on the deterministic single-node engine, and restart resubmission
re-enters the same sweep -- one workload plus one plan replays
bit-identically, which is what the fleet bench and fuzz matrix pin.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..faults.plan import FaultPlan, ReplicaFault
from ..kernels.backend import resolve_backend
from .continuous import ContinuousBatchingServer
from .metrics import PipelineStats, RequestTiming, ServingSLO, ServingStats
from .priority import Priority
from .server import TimedRequest

ROUTING_POLICIES = ("round-robin", "least-loaded", "session-affinity",
                    "priority-spill", "adaptive")

# Event-kind ordinals of the routing sweep: kills close a replica's epoch
# before any same-instant arrival can route to the survivors' new state.
_EV_KILL = 0
_EV_ARRIVAL = 1


@dataclass(frozen=True)
class RoutingWeightConfig:
    """Schedule of the ``"adaptive"`` policy's weight adaptation.

    Weights refresh every ``update_every`` routed arrivals from the
    router's backlog estimates: each replica's target weight is
    proportional to ``1 / (1 + backlog_s)``, EWMA-smoothed with
    ``ewma_alpha`` and floored at ``floor`` of the total so a lagging
    replica keeps a trickle of probe traffic (otherwise its backlog
    estimate could never recover).
    """

    update_every: int = 8
    ewma_alpha: float = 0.5
    floor: float = 0.05

    def __post_init__(self) -> None:
        if self.update_every <= 0:
            raise ConfigError("update_every must be positive")
        if not 0 < self.ewma_alpha <= 1:
            raise ConfigError("ewma_alpha must be in (0, 1]")
        if not 0 <= self.floor < 1:
            raise ConfigError("floor must be in [0, 1)")


class RoutingWeightAdapter:
    """Online routing weights: EWMA inverse backlog + stride assignment.

    The fleet-level counterpart of the per-replica
    :class:`~repro.serving.controller.OnlineController`: instead of
    tuning a replica's knobs it tunes *where traffic goes*.  Every
    arrival the router reports each replica's estimated backlog; every
    ``update_every`` arrivals the weights move (EWMA) toward normalized
    inverse backlog.  Assignment is stride (weighted-round-robin)
    scheduling over the current weights -- each accepting replica
    accrues credit proportional to its weight and the largest credit
    wins (ties break on the lower index) -- so the routing sequence is
    a pure function of the arrival order and the backlog estimates,
    keeping fleet replays bit-reproducible.
    """

    def __init__(self, config: RoutingWeightConfig, n_replicas: int) -> None:
        if n_replicas <= 0:
            raise ConfigError("n_replicas must be positive")
        self.config = config
        self.n = n_replicas
        self.weights = [1.0 / n_replicas] * n_replicas
        self._credits = [0.0] * n_replicas
        self._seen = 0
        self.updates = 0

    def observe(self, backlogs_us: list[float]) -> None:
        """Fold one arrival's backlog estimates into the weights."""
        if len(backlogs_us) != self.n:
            raise ConfigError("one backlog estimate per replica required")
        self._seen += 1
        if self._seen % self.config.update_every:
            return
        self.updates += 1
        raw = [1.0 / (1.0 + b / 1e6) for b in backlogs_us]
        total = sum(raw)
        alpha = self.config.ewma_alpha
        target = [r / total for r in raw]
        mixed = [alpha * t + (1 - alpha) * w
                 for t, w in zip(target, self.weights)]
        floored = [max(m, self.config.floor / self.n) for m in mixed]
        norm = sum(floored)
        self.weights = [f / norm for f in floored]

    def pick(self, accepting: list[int]) -> int:
        """Stride-schedule the next arrival over the accepting replicas."""
        if not accepting:
            raise ConfigError("no accepting replicas to pick from")
        for r in accepting:
            self._credits[r] += self.weights[r]
        choice = max(accepting, key=lambda r: (self._credits[r], -r))
        self._credits[choice] -= sum(self.weights[r] for r in accepting)
        return choice


@dataclass(frozen=True)
class FleetConfig:
    """Fleet topology and routing policy.

    ``on_kill`` decides the fate of requests a ``"kill"`` window
    catches queued or in-flight on the dead replica: ``"resubmit"``
    re-enters them at the kill instant (plus ``resubmit_delay_us``,
    modelling failure detection) to be re-routed across the survivors;
    ``"shed"`` drops them, counted against fleet goodput like any other
    shed submission.  ``routing_weights`` configures the ``"adaptive"``
    policy's :class:`RoutingWeightAdapter` (defaults apply when left
    ``None``); setting it with any other policy is an error.

    ``backends`` models a mixed-hardware fleet: one registered
    :class:`~repro.kernels.backend.KernelBackend` name (or instance, or
    ``None`` for the replica factory's own default) per replica.  The
    router rebinds each freshly created replica server to its entry via
    :meth:`~repro.serving.continuous.ContinuousBatchingServer.
    rebind_backend`, so heterogeneous kernel stacks are pure config.
    Unknown backend names raise :class:`ValueError` at construction
    time; the tuple length must equal ``n_replicas``.
    """

    n_replicas: int = 2
    policy: str = "least-loaded"
    on_kill: str = "resubmit"
    resubmit_delay_us: float = 0.0
    routing_weights: RoutingWeightConfig | None = None
    backends: tuple | None = None

    def __post_init__(self) -> None:
        if self.n_replicas <= 0:
            raise ConfigError("n_replicas must be positive")
        if self.policy not in ROUTING_POLICIES:
            raise ConfigError(
                f"unknown routing policy {self.policy!r}; expected one of "
                f"{ROUTING_POLICIES}")
        if self.on_kill not in ("resubmit", "shed"):
            raise ConfigError(
                f"unknown on_kill {self.on_kill!r}; expected "
                "'resubmit' or 'shed'")
        if self.resubmit_delay_us < 0:
            raise ConfigError("resubmit_delay_us must be >= 0")
        if self.routing_weights is not None and self.policy != "adaptive":
            raise ConfigError(
                "routing_weights only applies to the 'adaptive' policy")
        if self.backends is not None:
            object.__setattr__(self, "backends", tuple(self.backends))
            if len(self.backends) != self.n_replicas:
                raise ConfigError(
                    f"backends must name one backend per replica: got "
                    f"{len(self.backends)} for {self.n_replicas} replicas")
            for b in self.backends:
                resolve_backend(b)   # ValueError on unknown names


@dataclass
class FleetStats:
    """Fleet-level aggregate over every replica's served work.

    ``merged`` holds every surviving :class:`RequestTiming` across
    replicas (sorted by finish time) plus every shed record, so fleet
    TTFT/TPOT percentiles and goodput come straight from the standard
    :class:`~repro.serving.metrics.ServingStats` machinery.  When the
    whole run was one replica epoch, ``merged`` *is* that epoch's stats
    object -- sub-feature summaries (cache/graph/session counters)
    included -- which is what makes a 1-replica fleet bit-identical to
    the bare server.  Multi-epoch runs merge timings and sheds only;
    per-replica feature counters stay visible in ``replica_stats``.
    """

    merged: ServingStats
    n_replicas: int
    policy: str
    routed: list[int]
    assignments: list[tuple]
    replica_stats: list[ServingStats]
    epoch_stats: list[ServingStats]
    kills: int = 0
    drains: int = 0
    killed_in_flight: int = 0
    resubmitted: int = 0
    shed_on_kill: int = 0
    affinity_hits: int = 0
    affinity_rebalances: int = 0
    spill_routed: int = 0
    deferred_arrivals: int = 0
    weight_updates: int = 0
    routing_weights: tuple[float, ...] = ()

    @property
    def timings(self) -> list[RequestTiming]:
        """Every surviving request timing, fleet-wide."""
        return self.merged.timings

    @property
    def n_requests(self) -> int:
        """Requests that finished (each final execution counted once)."""
        return self.merged.n_requests

    @property
    def n_shed(self) -> int:
        """Requests shed fleet-wide (replica sheds + kill casualties)."""
        return self.merged.n_shed

    def summary(self) -> dict[str, float]:
        """The merged serving summary plus flat ``fleet_*`` counters."""
        out = self.merged.summary()
        routed = [float(r) for r in self.routed]
        mean_routed = sum(routed) / len(routed) if routed else 0.0
        out.update({
            "fleet_replicas": float(self.n_replicas),
            "fleet_kills": float(self.kills),
            "fleet_drains": float(self.drains),
            "fleet_killed_in_flight": float(self.killed_in_flight),
            "fleet_resubmitted": float(self.resubmitted),
            "fleet_shed_on_kill": float(self.shed_on_kill),
            "fleet_affinity_hits": float(self.affinity_hits),
            "fleet_affinity_rebalances": float(self.affinity_rebalances),
            "fleet_spill_routed": float(self.spill_routed),
            "fleet_deferred_arrivals": float(self.deferred_arrivals),
            "fleet_routed_imbalance": (max(routed) / mean_routed
                                       if mean_routed > 0 else 0.0),
        })
        if self.policy == "adaptive":
            # Weight-adapter counters appear only under the adaptive
            # policy, so static-policy summaries stay key-identical.
            out["fleet_weight_updates"] = float(self.weight_updates)
            for i, w in enumerate(self.routing_weights):
                out[f"fleet_weight_{i}"] = w
        return out

    def goodput(self, slo: ServingSLO,
                priority: int | None = None) -> dict[str, float]:
        """Fleet goodput: delegates to the merged stats, so attainment
        is over every submitted request (kill-shed casualties included)
        and each resubmitted request's final execution counts once."""
        return self.merged.goodput(slo, priority=priority)

    def replica_summary(self, replica: int) -> dict[str, float]:
        """One replica's serving summary (zeroed when it served nothing)."""
        stats = self.replica_stats[replica]
        if not stats.timings and not stats.shed:
            return {"requests": 0.0}
        return stats.summary()

    def prefix_reuse_fraction(self) -> float:
        """Fleet-wide prefix-cache reuse over every replica epoch.

        Prompt tokens served from replicas' radix caches over all
        submitted prompt tokens -- the cross-replica analogue of
        :attr:`~repro.serving.metrics.SessionStats.reuse_fraction`
        (0 when no replica ran with a prefix cache).
        """
        avoided = total = 0
        for stats in self.epoch_stats:
            if stats.sessions is not None:
                avoided += stats.sessions.prefill_tokens_avoided
                total += stats.sessions.prompt_tokens_total
        return avoided / total if total else 0.0


class FleetRouter:
    """Route a timed workload across N independent server replicas.

    ``make_server`` is the replica factory: called once per replica
    epoch (the stretch between cold starts), so every replica owns
    private admission/KV/cache state and a killed replica genuinely
    restarts cold.  Factories should close over a shared
    :class:`~repro.serving.session.InferenceSession` -- its memoized
    cost model is deterministic, so sharing it never couples replicas'
    pricing.

    The replay is a chronological event sweep (arrivals + kill starts).
    Each replica accumulates an *epoch* of assignments; a kill at ``T``
    closes the epoch, replays it on a fresh server, keeps the timings
    that finished by ``T``, and resubmits or sheds the rest.  Drain
    windows only gate new assignments -- in-flight work completes.
    Remaining epochs replay when the sweep ends.
    """

    def __init__(self, make_server: Callable[[], ContinuousBatchingServer],
                 config: FleetConfig | None = None,
                 fault_plan: FaultPlan | None = None) -> None:
        self.make_server = make_server
        self.config = config or FleetConfig()
        self.fault_plan = fault_plan
        n = self.config.n_replicas
        self._kill_windows: list[list[ReplicaFault]] = [[] for _ in range(n)]
        self._drain_windows: list[list[ReplicaFault]] = [[] for _ in range(n)]
        if fault_plan is not None:
            for w in fault_plan.replicas:
                if w.replica >= n:
                    raise ConfigError(
                        f"replica fault targets replica {w.replica} but the "
                        f"fleet has {n} replicas")
                target = (self._kill_windows if w.kind == "kill"
                          else self._drain_windows)
                target[w.replica].append(w)
        # One probe server for config validation and backlog estimation;
        # it never replays anything.
        self._probe = make_server()

    def _make_replica(self, replica: int) -> ContinuousBatchingServer:
        """A fresh server for one replica epoch, backend-bound if mixed.

        With :attr:`FleetConfig.backends` set, the just-created server is
        rebound to the replica's backend (a ``None`` entry keeps the
        factory's default) before it replays anything.
        """
        server = self.make_server()
        if (self.config.backends is not None
                and self.config.backends[replica] is not None):
            server.rebind_backend(self.config.backends[replica])
        return server

    # -- liveness ------------------------------------------------------------

    def _alive(self, replica: int, t_us: float) -> bool:
        """Whether the replica's process exists at ``t_us``."""
        return not any(w.active_at(t_us)
                       for w in self._kill_windows[replica])

    def _accepting(self, replica: int, t_us: float) -> bool:
        """Whether the replica takes *new* assignments at ``t_us``."""
        return (self._alive(replica, t_us)
                and not any(w.active_at(t_us)
                            for w in self._drain_windows[replica]))

    def _next_accepting_time(self, t_us: float) -> float:
        """Earliest instant >= ``t_us`` at which any replica accepts.

        Window ends are the only instants acceptance can switch on, so
        the candidates are every blocking window's ``end_us``.
        """
        n = self.config.n_replicas
        if any(self._accepting(r, t_us) for r in range(n)):
            return t_us
        ends = sorted({w.end_us
                       for r in range(n)
                       for w in self._kill_windows[r] + self._drain_windows[r]
                       if w.end_us > t_us})
        for cand in ends:
            if any(self._accepting(r, cand) for r in range(n)):
                return cand
        raise ConfigError(
            "fault plan leaves no replica ever accepting again")

    # -- load estimation -----------------------------------------------------

    def _estimate_us(self, timed: TimedRequest) -> float:
        """Estimated service time of one request on an idle replica.

        The session's coarse :class:`~repro.serving.session.
        PhaseCostModel` (prefill + per-token decode) -- a routing
        heuristic, deliberately cheaper and rougher than the batch-aware
        pricing the replica itself will charge.
        """
        costs = self._probe.session.costs
        prompt_len = len(np.atleast_1d(timed.request.prompt))
        return (costs.prefill_us(prompt_len)
                + costs.per_token_us() * timed.request.max_new_tokens)

    # -- policies ------------------------------------------------------------

    def _backlog(self, replica: int, t_us: float) -> float:
        return max(0.0, self._est_finish[replica] - t_us)

    def _least_loaded(self, accepting: list[int], t_us: float) -> int:
        """Estimated-backlog argmin; idle ties spread by assignment count.

        Without the tie-break every idle instant would route to replica
        0 (stable index order), piling session stickiness onto one
        replica under light load.
        """
        return min(accepting, key=lambda r: (self._backlog(r, t_us),
                                             self._n_assigned[r], r))

    def _route(self, timed: TimedRequest, t_us: float,
               accepting: list[int]) -> int:
        """Pick the replica for one arrival, per the configured policy."""
        policy = self.config.policy
        if policy == "round-robin":
            choice = accepting[self._rr % len(accepting)]
            self._rr += 1
            return choice
        if policy == "least-loaded":
            return self._least_loaded(accepting, t_us)
        if policy == "adaptive":
            self._weights.observe(
                [self._backlog(r, t_us)
                 for r in range(self.config.n_replicas)])
            return self._weights.pick(accepting)
        if policy == "session-affinity":
            sid = timed.session_id
            if sid is None:
                return self._least_loaded(accepting, t_us)
            sticky = self._sticky.get(sid)
            if sticky is not None and sticky in accepting:
                self._affinity_hits += 1
                return sticky
            choice = self._least_loaded(accepting, t_us)
            if sticky is not None:
                self._affinity_rebalances += 1
            self._sticky[sid] = choice
            return choice
        # priority-spill: keep the fast lane clear for INTERACTIVE.
        if timed.priority == Priority.INTERACTIVE or len(accepting) == 1:
            return self._least_loaded(accepting, t_us)
        protected = self._least_loaded(accepting, t_us)
        rest = [r for r in accepting if r != protected]
        self._spill_routed += 1
        return self._least_loaded(rest, t_us)

    # -- epoch replay --------------------------------------------------------

    @staticmethod
    def _timing_key(timing: RequestTiming) -> tuple:
        return (timing.arrival_us, timing.prompt_tokens,
                int(timing.priority))

    @staticmethod
    def _request_key(timed: TimedRequest) -> tuple:
        return (timed.arrival_us,
                int(len(np.atleast_1d(timed.request.prompt))),
                int(timed.priority))

    def _close_epoch(self, replica: int,
                     cutoff_us: float | None) -> list[TimedRequest]:
        """Replay the replica's open epoch; return the kill casualties.

        Timings finishing by ``cutoff_us`` survive into the fleet
        aggregate; later ones were queued or in-flight on the dead
        replica, so their requests come back as casualties.  Timings are
        matched to requests by ``(arrival, prompt tokens, priority)`` --
        identical requests are interchangeable, so the match is
        deterministic even under tied arrivals.  ``cutoff_us=None``
        (end-of-sweep close) keeps everything.
        """
        epoch = self._epoch[replica]
        self._epoch[replica] = []
        if not epoch:
            return []
        server = self._make_replica(replica)
        stats = server.replay(list(epoch))
        self._epoch_stats.append(stats)
        self._replica_epochs[replica].append(stats)
        by_key: dict[tuple, list[RequestTiming]] = {}
        for timing in stats.timings:
            by_key.setdefault(self._timing_key(timing), []).append(timing)
        casualties: list[TimedRequest] = []
        for timed in epoch:
            bucket = by_key.get(self._request_key(timed))
            if not bucket:
                continue        # shed inside the epoch: its record merges
            timing = bucket.pop(0)
            if cutoff_us is None or timing.finish_us <= cutoff_us:
                self._kept.append(timing)
                self._replica_kept[replica].append(timing)
            else:
                casualties.append(timed)
        self._shed_records.extend(stats.shed)
        return casualties

    # -- replay --------------------------------------------------------------

    def replay(self, workload: list[TimedRequest]) -> FleetStats:
        """Serve a timed workload across the fleet; returns fleet stats."""
        if not workload:
            raise ConfigError("empty workload")
        n = self.config.n_replicas
        self._epoch: list[list[TimedRequest]] = [[] for _ in range(n)]
        self._est_finish = [0.0] * n
        self._epoch_stats: list[ServingStats] = []
        self._replica_epochs: list[list[ServingStats]] = [
            [] for _ in range(n)]
        self._kept: list[RequestTiming] = []
        self._replica_kept: list[list[RequestTiming]] = [
            [] for _ in range(n)]
        self._shed_records: list = []
        self._sticky: dict[str, int] = {}
        self._n_assigned = [0] * n
        self._rr = 0
        self._weights = RoutingWeightAdapter(
            self.config.routing_weights or RoutingWeightConfig(), n)
        self._affinity_hits = 0
        self._affinity_rebalances = 0
        self._spill_routed = 0
        routed = [0] * n
        assignments: list[tuple] = []
        kills = killed_in_flight = resubmitted = shed_on_kill = 0
        deferred = 0

        heap: list[tuple] = []
        seq = 0
        for timed in sorted(workload, key=lambda t: t.arrival_us):
            heapq.heappush(heap, (timed.arrival_us, _EV_ARRIVAL, seq, timed))
            seq += 1
        for r in range(n):
            for w in self._kill_windows[r]:
                heapq.heappush(heap, (w.start_us, _EV_KILL, seq, (r, w)))
                seq += 1

        while heap:
            t_us, kind, _, payload = heapq.heappop(heap)
            if kind == _EV_KILL:
                r, window = payload
                kills += 1
                casualties = self._close_epoch(r, t_us)
                killed_in_flight += len(casualties)
                # The restarted replica comes back cold and idle.
                self._est_finish[r] = window.end_us
                for timed in casualties:
                    if self.config.on_kill == "shed":
                        shed_on_kill += 1
                        self._shed_records.append(
                            (t_us, int(timed.priority)))
                        continue
                    resubmitted += 1
                    again = dataclasses.replace(
                        timed,
                        arrival_us=t_us + self.config.resubmit_delay_us)
                    heapq.heappush(
                        heap, (again.arrival_us, _EV_ARRIVAL, seq, again))
                    seq += 1
                continue
            timed = payload
            accepting = [r for r in range(n) if self._accepting(r, t_us)]
            if not accepting:
                # Nobody takes work right now: the arrival waits at the
                # router until a window closes.
                t_next = self._next_accepting_time(t_us)
                deferred += 1
                again = dataclasses.replace(timed, arrival_us=t_next)
                heapq.heappush(heap, (t_next, _EV_ARRIVAL, seq, again))
                seq += 1
                continue
            choice = self._route(timed, t_us, accepting)
            self._n_assigned[choice] += 1
            self._epoch[choice].append(timed)
            self._est_finish[choice] = (
                max(self._est_finish[choice], t_us)
                + self._estimate_us(timed))
            routed[choice] += 1
            assignments.append(
                (t_us, timed.session_id, int(timed.priority), choice))

        for r in range(n):
            self._close_epoch(r, None)

        if len(self._epoch_stats) == 1 and not self._shed_records:
            # One epoch, nothing shed at the router: the fleet aggregate
            # *is* that epoch's stats -- sub-feature summaries included.
            # This is the 1-replica == bare-server bit-identity path.
            merged = self._epoch_stats[0]
        else:
            merged = ServingStats()
            # Stable sort by finish time: each epoch's list is already
            # finish-ordered, so ties keep replica-major order.
            for timing in sorted(self._kept,
                                 key=lambda tm: tm.finish_us):
                merged.add(timing)
            for rec in self._shed_records:
                if isinstance(rec, tuple):
                    merged.record_shed(rec[0], rec[1])
                else:
                    merged.shed.append(rec)
            staged = [st.pipeline for st in self._epoch_stats
                      if st.pipeline is not None]
            if staged:
                # Pipeline accounting survives the merge, so fleet
                # summaries keep the pipeline_* keys a staged replica
                # reports.
                merged.pipeline = PipelineStats.merged(staged)

        per_replica: list[ServingStats] = []
        for r in range(n):
            if len(self._replica_epochs[r]) == 1:
                per_replica.append(self._replica_epochs[r][0])
            else:
                stats = ServingStats()
                for timing in self._replica_kept[r]:
                    stats.add(timing)
                per_replica.append(stats)

        drains = sum(len(ws) for ws in self._drain_windows)
        return FleetStats(
            merged=merged,
            n_replicas=n,
            policy=self.config.policy,
            routed=routed,
            assignments=assignments,
            replica_stats=per_replica,
            epoch_stats=list(self._epoch_stats),
            kills=kills,
            drains=drains,
            killed_in_flight=killed_in_flight,
            resubmitted=resubmitted,
            shed_on_kill=shed_on_kill,
            affinity_hits=self._affinity_hits,
            affinity_rebalances=self._affinity_rebalances,
            spill_routed=self._spill_routed,
            deferred_arrivals=deferred,
            weight_updates=self._weights.updates,
            routing_weights=tuple(self._weights.weights),
        )
