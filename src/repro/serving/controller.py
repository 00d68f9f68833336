"""Online self-tuning control plane for the continuous-batching engine.

The serving stack has accumulated a surface of hand-set performance
knobs (``prefill_chunk_tokens``, ``max_batch_size``, cache margins,
timeouts) -- each tuned for one traffic shape and stale the moment the
load shifts.  Following the cloud-grade-SLO framing (serving as an
SLO-attainment *control* problem), :class:`OnlineController` closes the
loop at runtime:

- **signals** -- every decode iteration the engine feeds the controller
  its clock, the finished-request timings, shed records, and queue
  depth; the controller folds them into fixed-duration observation
  windows (windowed TTFT/TPOT percentiles, completion/shed rates, mean
  queue depth), the same quantities
  :meth:`~repro.serving.metrics.ServingStats.windowed` exposes for
  debugging;
- **objective** -- per window, SLO-attaining completions per second
  minus a shed penalty, EWMA-smoothed across windows (the
  ``core/adaptive.py`` thresholding idiom: smooth the signal, then act
  on it);
- **actuation** -- bounded hill-climbing over discrete knob ladders
  (the ``core/autotune.py`` idiom of searching a small candidate set
  against observed cost, here online instead of offline): one knob
  move per decision window, direction steered by which SLO term is
  violated, with **guarded rollback** -- a move that degrades the
  smoothed objective over the next window is reverted and the probe
  direction flipped.

Every decision is a pure function of the observed (deterministic)
simulation, so an adaptive run is bit-reproducible given the workload
seed; with no :class:`ControllerConfig` the engine never constructs a
controller and stays bit-identical to the static-config engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from .metrics import (CounterSection, RollingWindow, ServingSLO, ServingStats,
                      percentile)

KNOB_CHUNK = "prefill_chunk_tokens"
KNOB_BATCH = "max_batch_size"


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the control plane itself (not the knobs it tunes).

    ``slo`` defines the objective: a completion counts only if it met
    the TTFT and TPOT targets.  Decisions fire once per ``window_us``
    of simulated time; the first ``warmup_windows`` windows observe
    without acting (so the pre-adaptation engine prices identically to
    the static config -- pinned by golden).  ``ewma_alpha`` smooths the
    per-window objective; ``rollback_tolerance`` is the relative
    degradation of the smoothed objective a knob move may cause before
    it is reverted.  ``shed_penalty`` charges each shed request that
    many attained completions.

    ``chunk_ladder`` / ``batch_ladder`` are the discrete rungs the
    hill-climber moves ``prefill_chunk_tokens`` / ``max_batch_size``
    over (ascending; an empty ``batch_ladder`` disables that knob).
    The ladders *bound* the search: the controller can never drive a
    knob outside them, which is what makes the hill-climb safe to run
    unattended.
    """

    slo: ServingSLO
    window_us: float = 1_000_000.0
    warmup_windows: int = 1
    ewma_alpha: float = 0.5
    rollback_tolerance: float = 0.05
    shed_penalty: float = 2.0
    chunk_ladder: tuple[int, ...] = (128, 256, 512, 1024, 2048)
    batch_ladder: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.window_us <= 0:
            raise ConfigError("window_us must be positive")
        if self.warmup_windows < 0:
            raise ConfigError("warmup_windows must be >= 0")
        if not 0 < self.ewma_alpha <= 1:
            raise ConfigError("ewma_alpha must be in (0, 1]")
        if self.rollback_tolerance < 0:
            raise ConfigError("rollback_tolerance must be >= 0")
        if self.shed_penalty < 0:
            raise ConfigError("shed_penalty must be >= 0")
        for name, ladder in ((KNOB_CHUNK, self.chunk_ladder),
                             (KNOB_BATCH, self.batch_ladder)):
            if any(v <= 0 for v in ladder):
                raise ConfigError(f"{name} ladder rungs must be positive")
            if list(ladder) != sorted(set(ladder)):
                raise ConfigError(
                    f"{name} ladder must be strictly ascending")
        if not self.chunk_ladder:
            raise ConfigError("chunk_ladder must not be empty")


@dataclass(frozen=True)
class KnobDecision:
    """One window's control decision (the unit of the golden trace).

    ``action`` is ``"observe"`` (warmup / no candidate move),
    ``"move:<knob>:<+1|-1>"`` (a probe step along the ladder),
    ``"keep:<knob>"`` (the previous probe survived its guard window) or
    ``"rollback:<knob>"`` (the probe degraded the objective and was
    reverted).  ``knobs`` snapshots every tuned knob's value *after*
    the decision applied; ``objective`` is the EWMA-smoothed objective
    the decision was based on.
    """

    window: int
    t_us: float
    action: str
    knobs: tuple[tuple[str, int | None], ...]
    objective: float


@dataclass
class ControllerStats(CounterSection):
    """Control-plane counters plus the full per-window decision trace.

    On only when a controller is configured.
    """

    KEYS = (("ctrl_windows", "windows", 1), ("ctrl_moves", "moves", 1),
            ("ctrl_rollbacks", "rollbacks", 1))

    windows: int = 0
    moves: int = 0
    rollbacks: int = 0
    decisions: list[KnobDecision] = field(default_factory=list)

    def trace(self) -> list[tuple]:
        """Compact decision trace: ``(window, action, *knob values)``.

        Knob values appear in sorted-name order, which is what the
        golden regression pins for a fixed seed/scenario.
        """
        return [(d.window, d.action) + tuple(v for _, v in d.knobs)
                for d in self.decisions]


class _KnobState:
    """Hill-climb cursor of one knob: ladder index + probe direction."""

    def __init__(self, name: str, ladder: tuple[int, ...],
                 base: int | None) -> None:
        self.name = name
        self.ladder = ladder
        self.value: int | None = base
        # Cursor starts at the rung nearest the base config's value
        # (None -> the top rung: monolithic prefill behaves like a very
        # large chunk budget); the *value* stays the base value until
        # the first move so warmup windows price exactly the static
        # config.
        if base is None:
            self.idx = len(ladder) - 1
        else:
            self.idx = min(range(len(ladder)),
                           key=lambda i: (abs(ladder[i] - base), i))
        self.direction = 1


class OnlineController:
    """Deterministic windowed hill-climber over scheduler knobs.

    The engine calls :meth:`tick` once per decode iteration; the
    controller consumes newly finished timings and shed records from
    the engine's :class:`~repro.serving.metrics.ServingStats`
    incrementally, and at each window boundary closes the window,
    judges any pending probe move (guarded rollback), and proposes at
    most one new move.  ``tick`` returns the knob overrides to apply
    (or ``None``), keeping actuation in the engine's hands -- the
    controller never touches engine state directly.
    """

    def __init__(self, config: ControllerConfig,
                 base_chunk: int | None, base_batch: int,
                 stats: ControllerStats) -> None:
        self.config = config
        self.stats = stats
        self._knobs = [_KnobState(KNOB_CHUNK, config.chunk_ladder,
                                  base_chunk)]
        if config.batch_ladder:
            self._knobs.append(_KnobState(KNOB_BATCH, config.batch_ladder,
                                          base_batch))
        self._rr = 0                      # round-robin knob cursor
        self._window = 0
        self._next_window_us = config.window_us
        self._ewma: float | None = None
        # (knob, value before the move, smoothed objective at move time)
        self._pending: tuple[_KnobState, int | None, float] | None = None
        self._consumed_timings = 0
        self._consumed_shed = 0
        # Per-window accumulators; TTFT/TPOT ride RollingWindows so the
        # percentile signal matches ServingStats.windowed exactly.
        self._ttft = RollingWindow(config.window_us)
        self._tpot = RollingWindow(config.window_us)
        self._attained = 0
        self._completed = 0
        self._shed = 0
        self._queue_sum = 0
        self._iterations = 0

    # -- signal ingestion ----------------------------------------------------

    def _ingest(self, stats: ServingStats) -> None:
        slo = self.config.slo
        for timing in stats.timings[self._consumed_timings:]:
            self._completed += 1
            if slo.met_by(timing) and not timing.timed_out:
                self._attained += 1
            self._ttft.add(timing.finish_us, timing.ttft_us)
            if timing.tpot_us > 0:
                self._tpot.add(timing.finish_us, timing.tpot_us)
        self._consumed_timings = len(stats.timings)
        self._shed += len(stats.shed) - self._consumed_shed
        self._consumed_shed = len(stats.shed)

    # -- decision logic ------------------------------------------------------

    def _objective(self) -> float:
        """This window's raw objective: penalized goodput (per second)."""
        window_s = self.config.window_us / 1e6
        return (self._attained
                - self.config.shed_penalty * self._shed) / window_s

    def _signal_direction(self, knob: _KnobState, clock: float) -> int:
        """Which way the windowed SLO signals push ``knob``.

        A TTFT violation wants more prefill progress per iteration
        (bigger chunk budget) and more admission headroom (bigger
        batch); a TPOT violation wants shorter iterations (smaller
        chunk budget, smaller batch).  With both or neither violated
        the knob keeps probing in its last direction -- the rollback
        guard turns that into an alternating local search.
        """
        slo = self.config.slo
        ttfts = self._ttft.values(clock)
        tpots = self._tpot.values(clock)
        ttft_bad = bool(ttfts) and percentile(ttfts, 95) > slo.ttft_ms * 1e3
        tpot_bad = bool(tpots) and percentile(tpots, 95) > slo.tpot_ms * 1e3
        if knob.name == KNOB_BATCH:
            queue_deep = (self._iterations > 0
                          and self._queue_sum / self._iterations
                          > (knob.value or 0))
            if (ttft_bad or queue_deep) and not tpot_bad:
                return 1
            if tpot_bad and not (ttft_bad or queue_deep):
                return -1
            return knob.direction
        if ttft_bad and not tpot_bad:
            return 1
        if tpot_bad and not ttft_bad:
            return -1
        return knob.direction

    def _close_window(self, clock: float) -> dict[str, int | None] | None:
        cfg = self.config
        self._window += 1
        self.stats.windows += 1
        raw = self._objective()
        if self._ewma is None:
            self._ewma = raw
        else:
            self._ewma = (cfg.ewma_alpha * raw
                          + (1 - cfg.ewma_alpha) * self._ewma)
        action = "observe"
        moves: dict[str, int | None] | None = None
        if self._pending is not None:
            knob, prev_value, baseline = self._pending
            self._pending = None
            degraded = self._ewma < (baseline
                                     - cfg.rollback_tolerance * abs(baseline)
                                     - 1e-12)
            if degraded:
                # Guarded rollback: the probe hurt; restore the old
                # value, flip the probe direction, and judge the next
                # probe against the pre-move baseline.
                knob.value = prev_value
                knob.idx = _KnobState(knob.name, knob.ladder, prev_value).idx
                knob.direction *= -1
                self.stats.rollbacks += 1
                self._ewma = baseline
                action = f"rollback:{knob.name}"
                moves = {knob.name: prev_value}
            else:
                action = f"keep:{knob.name}"
        elif self._window > cfg.warmup_windows:
            knob = self._knobs[self._rr % len(self._knobs)]
            self._rr += 1
            direction = self._signal_direction(knob, clock)
            new_idx = min(max(knob.idx + direction, 0),
                          len(knob.ladder) - 1)
            if new_idx == knob.idx and knob.ladder[knob.idx] == knob.value:
                # Pinned against a ladder end: probe back inward.
                direction = -direction
                new_idx = min(max(knob.idx + direction, 0),
                              len(knob.ladder) - 1)
            if new_idx != knob.idx or knob.ladder[new_idx] != knob.value:
                self._pending = (knob, knob.value, self._ewma)
                knob.direction = direction
                knob.idx = new_idx
                knob.value = knob.ladder[new_idx]
                self.stats.moves += 1
                action = f"move:{knob.name}:{direction:+d}"
                moves = {knob.name: knob.value}
        self.stats.decisions.append(KnobDecision(
            window=self._window,
            t_us=self._next_window_us,
            action=action,
            knobs=tuple(sorted((k.name, k.value) for k in self._knobs)),
            objective=self._ewma,
        ))
        # Reset the per-window accumulators (the RollingWindows age out
        # on their own -- their span equals the decision window).
        self._attained = 0
        self._completed = 0
        self._shed = 0
        self._queue_sum = 0
        self._iterations = 0
        return moves

    # -- engine-facing entry point -------------------------------------------

    def tick(self, clock: float, stats: ServingStats,
             queue_depth: int) -> dict[str, int | None] | None:
        """One iteration-boundary observation; returns knob overrides.

        Consumes any timings/sheds recorded since the last tick, then
        (when ``clock`` has crossed the current window boundary) closes
        the window and decides.  A long iteration can cross several
        boundaries at once; only one decision fires, and the boundary
        advances past ``clock`` so windows stay wall-clock aligned.
        """
        self._ingest(stats)
        self._iterations += 1
        self._queue_sum += queue_depth
        if clock < self._next_window_us:
            return None
        moves = self._close_window(clock)
        while self._next_window_us <= clock:
            self._next_window_us += self.config.window_us
        return moves
