"""Repository benchmark: open-loop serving workloads on both clocks.

Run from the repository root:

    python3 perfbench/run.py --workload decode-skew --seed 1 --seconds 25 --trace 0

``--trace 0`` replays the workload untraced and prints the end-to-end
metrics; ``--trace 1`` adds a traced replay and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  If an output
check fails, or the program under test cannot be imported, the command
prints no result line and exits non-zero.
"""

import os

# Pin the BLAS and OpenMP pools before numpy loads.  The functional model
# is far too small to gain from threads, and idle pool threads only add
# noise to host timings on a shared machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"

# The default seed, and one kept out of every tuning run so a change can
# be checked on inputs the SLO limits and the ladder were not fitted to.
DEFAULT_SEED = 1
HELDOUT_SEED = 97
MIN_REPLAYS = 8        # at the least, so each of the 8 host slices is timed


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(stats) -> tuple:
    """Everything modelled about one replay, for exact comparison."""
    timings = tuple(
        (t.arrival_us, t.start_us, t.first_token_us, t.finish_us,
         t.prompt_tokens, t.generated_tokens, t.timed_out)
        for t in sorted(stats.timings, key=lambda t: (t.arrival_us,
                                                      t.finish_us)))
    records = getattr(stats, "merged", stats).shed
    shed = tuple(sorted(s.arrival_us for s in records))
    return timings, shed, tuple(sorted(stats.summary().items()))


def digest(stats) -> str:
    """A short hash of ``fingerprint``, comparable across processes."""
    return hashlib.sha256(repr(fingerprint(stats)).encode()).hexdigest()[:16]


def check_outputs(requests, stats) -> None:
    """Every request is accounted for and emits exactly its token budget."""
    timed_out = sum(1 for t in stats.timings if t.timed_out)
    completed = len(stats.timings) - timed_out
    if completed + stats.n_shed + timed_out != len(requests):
        raise CheckFailed(
            f"{completed} completed + {stats.n_shed} shed + {timed_out} "
            f"timed out != {len(requests)} submitted")
    budget: dict[float, list[int]] = {}
    for t in requests:
        budget.setdefault(t.arrival_us, []).append(t.request.max_new_tokens)
    for t in stats.timings:
        if t.timed_out:
            continue
        if t.generated_tokens not in budget.get(t.arrival_us, ()):
            raise CheckFailed(
                f"request due at {t.arrival_us:.0f} us emitted "
                f"{t.generated_tokens} tokens, not max_new_tokens")


class Pool:
    """Timings pooled over a seed's sub-workloads."""

    def __init__(self, slo) -> None:
        self.slo = slo
        self.timings = []
        self.late_waits_us = []
        self.submitted = 0
        self.shed = 0
        self.tokens = 0
        self.span_us = 0.0
        self.batches = []
        self.decode_batches = Counter()

    def add(self, requests, stats, servers) -> None:
        points = [p for s in servers for p in s.timeline.points]
        self.batches += [p.batch_size for p in points]
        self.decode_batches.update(p.batch_size - p.n_prefilling
                                   for p in points
                                   if p.batch_size > p.n_prefilling)
        self.timings += stats.timings
        self.submitted += len(requests)
        self.shed += stats.n_shed
        self.tokens += sum(t.generated_tokens for t in stats.timings)
        first, last = requests[0].arrival_us, requests[-1].arrival_us
        self.span_us += max(t.finish_us for t in stats.timings) - first
        late_us = first + 0.75 * (last - first)
        self.late_waits_us += [t.queue_delay_us for t in stats.timings
                               if t.arrival_us >= late_us]

    def decode_batch_mode(self) -> int:
        """The most frequent number of decoding requests in an iteration."""
        return max(self.decode_batches.items(),
                   key=lambda kv: (kv[1], kv[0]))[0]

    def attainment(self) -> float:
        good = sum(1 for t in self.timings
                   if self.slo.met_by(t) and not t.timed_out)
        return good / self.submitted

    def backlog_grows(self) -> bool:
        """Whether the queue wait at the end of the run eats the TTFT budget.

        A server that keeps up drains its queue between bursts; one that
        does not ends the run with requests waiting longer and longer.
        Requests due in the last quarter of each sub-workload's arrival
        span must wait on average less than half the TTFT limit.
        """
        if not self.late_waits_us:
            return False
        wait_ms = statistics.fmean(self.late_waits_us) / 1e3
        return wait_ms > self.slo.ttft_ms / 2

    def passes(self, target: float) -> bool:
        return self.attainment() >= target and not self.backlog_grows()


def _percentile(values, pct) -> tuple:
    """A latency percentile with its sample count and tail size."""
    value = float(np.percentile(np.asarray(values, dtype=np.float64), pct))
    beyond = sum(1 for v in values if v > value)
    return value, "ms", len(values), f"{beyond} beyond"


def _set_up(w, workloads, seed: int, part: int, k: int | None = None):
    """Generate a sub-workload, or its host slice ``k``; build a fresh,
    warmed session and servers."""
    requests = w.requests(seed, part)
    if k is not None:
        requests = workloads.host_slice(requests, k)
    session = workloads.make_session(w.preset)
    return requests, session, w.deploy(session)


def _timed(fn):
    """``(fn(), host seconds)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def timed_run(w, workloads, seed: int, seconds: float) -> dict:
    """The end-to-end metrics, on both clocks.

    Host clock: one warm-up, then untraced replays of the host slices of
    sub-workload 0 in turn, each after a fresh set-up, until ``seconds``
    have passed.  Every replay of a slice must repeat the modelled stats
    of its first, and so must the ladder's length-only replay of it.
    Modelled clock: the first ``w.parts`` sub-workloads, pooled.
    """
    start = time.perf_counter()
    requests, _, deployment = _set_up(w, workloads, seed, 0, k=0)
    deployment.replay(requests)
    references: dict[int, tuple] = {}
    setups, walls = [], []
    while len(walls) < MIN_REPLAYS or time.perf_counter() - start < seconds:
        k = len(walls) % workloads.HOST_SLICES
        gc.collect()
        (requests, _, deployment), setup_s = _timed(
            lambda: _set_up(w, workloads, seed, 0, k))
        stats, wall_s = _timed(lambda: deployment.replay(requests))
        check_outputs(requests, stats)
        if references.setdefault(k, fingerprint(stats)) != fingerprint(stats):
            raise CheckFailed(f"host slice {k}: same seed, different "
                              "modelled stats")
        setups.append(setup_s)
        walls.append(wall_s)

    ladder = Ladder(w, workloads, seed)
    pool = ladder.pool(1.0)
    max_rate = ladder.max_rate()
    saturated = ladder.pool(workloads.RATE_LADDER[-1])
    sub_workload = w.requests(seed, 0)
    for k, reference in references.items():
        if fingerprint(ladder.replay(
                workloads.host_slice(sub_workload, k))) != reference:
            raise CheckFailed(f"host slice {k}: length-only and real "
                              "replays differ")

    ttft = [t.ttft_us / 1e3 for t in pool.timings]
    tpot = [t.tpot_us / 1e3 for t in pool.timings if t.tpot_us > 0]
    served = sum(1 for t in pool.timings if not t.timed_out)
    metrics = {
        "ttft_p50_ms": _percentile(ttft, 50),
        "ttft_p95_ms": _percentile(ttft, 95),
        "tpot_p50_ms": _percentile(tpot, 50),
        "tpot_p95_ms": _percentile(tpot, 95),
        "output_tokens_per_s": (
            saturated.tokens / (saturated.span_us / 1e6), "1/s",
            saturated.tokens,
            f"tokens at {workloads.RATE_LADDER[-1]:g}x the nominal rate"),
        "slo_attainment": (pool.attainment(), "share", pool.submitted,
                           f"TTFT <= {w.slo.ttft_ms:g} ms and TPOT <= "
                           f"{w.slo.tpot_ms:g} ms"),
        "max_rate_at_slo_rps": (max_rate, "1/s", pool.submitted,
                                f"attainment >= {w.target:g}"),
        "served_share": (served / pool.submitted, "share", pool.submitted,
                         "submitted"),
        "wall_s": (statistics.median(walls), "s", len(walls),
                   f"replays of {len(references)} host slices, median"),
        "setup_s": (statistics.median(setups), "s", len(setups),
                    "set-ups, median"),
        "peak_rss_mb": (_rss_mb(), "MB", 1, "process"),
    }
    failed = pool.submitted - served
    return dict(metrics=metrics, attempted=pool.submitted, failed=failed,
                notes={"shed": pool.shed, "timed_out": failed - pool.shed,
                       "failed_share": failed / pool.submitted,
                       "batch_mean": statistics.fmean(pool.batches),
                       "decode_batch_mode": pool.decode_batch_mode(),
                       "ladder_rungs": len(ladder.pools),
                       "fingerprint": digest(ladder.stats[1.0][0])})


class Ladder:
    """Length-only replays of a seed's first ``w.parts`` sub-workloads.

    Every replay here skips the functional forward and prices through one
    shared cost model; both shortcuts are exact, and ``timed_run`` checks
    that against the real replays of the host slices.  Nothing here is
    timed.
    """

    def __init__(self, w, workloads, seed: int) -> None:
        self.w = w
        self.workloads = workloads
        self.parts = [w.requests(seed, p) for p in range(w.parts)]
        self.session = workloads.make_session(w.preset,
                                              workloads.LengthOnlySession)
        self.costs = None
        self.stats: dict[float, list] = {}
        self.pools: dict[float, Pool] = {}

    def replay(self, requests):
        """``requests`` replayed length-only through the shared cost model."""
        deployment = self.w.deploy(self.session, self.costs)
        stats = deployment.replay(requests)
        check_outputs(requests, stats)
        return stats

    def pool(self, rung: float) -> Pool:
        """All sub-workloads replayed at ``rung`` times the nominal rate."""
        if rung in self.pools:
            return self.pools[rung]
        pool = self.pools[rung] = Pool(self.w.slo)
        self.stats[rung] = []
        for requests in self.parts:
            scaled = self.workloads.scale_rate(requests, rung)
            deployment = self.w.deploy(self.session, self.costs)
            self.costs = deployment.servers[0].costs
            stats = deployment.replay(scaled)
            check_outputs(scaled, stats)
            pool.add(scaled, stats, deployment.servers)
            self.stats[rung].append(stats)
        return pool

    def max_rate(self) -> float:
        """Highest ladder rung whose pooled replay meets the SLO target.

        The walk starts at the nominal rung and moves up while rungs
        pass, or down until one does.
        """
        ladder = self.workloads.RATE_LADDER
        base_rps = statistics.fmean(self.workloads.offered_rps(r)
                                    for r in self.parts)

        def passes(i: int) -> bool:
            return self.pool(ladder[i]).passes(self.w.target)

        i = ladder.index(1.0)
        if passes(i):
            while i + 1 < len(ladder) and passes(i + 1):
                i += 1
            return ladder[i] * base_rps
        while i > 0:
            i -= 1
            if passes(i):
                return ladder[i] * base_rps
        return 0.0


def traced_run(w, workloads, layers, tracer_mod, seed: int) -> dict:
    """One untraced and one traced replay of part 0; per-layer metrics."""
    tracer = tracer_mod.Tracer()
    requests, session, deployment = _set_up(w, workloads, seed, 0)
    stats, untraced_s = _timed(lambda: deployment.replay(requests))
    check_outputs(requests, stats)

    _, _, deployment_t = _set_up(w, workloads, seed, 0)
    probe = layers.Probe(requests)
    layers.trace_layers(tracer, probe)
    try:
        stats_t, traced_s = _timed(lambda: deployment_t.replay(requests))
    finally:
        tracer.restore()
    check_outputs(requests, stats_t)
    if fingerprint(stats_t) != fingerprint(stats):
        raise CheckFailed("same seed, different modelled stats when traced")
    if _digest_elsewhere(w, seed) != digest(stats):
        raise CheckFailed("same seed, different modelled stats in a "
                          "process with another hash seed")
    model = workloads.make_model()
    for prompt, max_new, tokens in probe.token_sample:
        direct = model.generate(prompt, max_new)
        if not (len(direct) == len(tokens) and (direct == tokens).all()):
            raise CheckFailed("session tokens differ from a direct "
                              "MoETransformer.generate")

    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"{w.name}-seed{seed}.jsonl")

    summary = stats.summary()
    values = layers.host_metrics(tracer, probe, traced_s, untraced_s)
    values.update(layers.modelled_metrics(stats, deployment.servers,
                                          summary))
    values.update(layers.step_metrics(session, probe))
    values["pricing.memo_max_rel_err"] = layers.memo_error(session, probe)
    units = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    metrics = {name: (values[name], units[name], len(requests), "requests")
               for name in units}
    failed = sum(1 for t in stats.timings if t.timed_out) + stats.n_shed
    return dict(metrics=metrics, attempted=len(requests), failed=failed,
                notes={"spans": len(tracer.spans),
                       "token_checks": len(probe.token_sample),
                       "untraced_s": untraced_s, "traced_s": traced_s,
                       "fingerprint": digest(stats)})


def _digest_elsewhere(w, seed: int) -> str:
    """``digest`` of part 0's length-only replay, in a fresh process.

    The child runs under a different ``PYTHONHASHSEED``, so modelled
    stats that depend on set or dict order of hashed strings, or on any
    other per-process state, fail the comparison.
    """
    hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    child = subprocess.run(
        [sys.executable, __file__, "--workload", w.name, "--seed", str(seed),
         "--digest"],
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
        capture_output=True, text=True, timeout=150)
    if child.returncode != 0:
        raise CheckFailed(f"digest run failed: {child.stderr.strip()}")
    return child.stdout.strip()


def _declared() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest", action="store_true",
                        help="print only the digest of part 0's modelled "
                             "stats")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.digest:
        session = workloads.make_session(w.preset,
                                         workloads.LengthOnlySession)
        print(digest(w.deploy(session).replay(w.requests(args.seed, 0))))
        return 0
    try:
        if args.trace:
            result = traced_run(w, workloads, layers, tracer, args.seed)
        else:
            result = timed_run(w, workloads, args.seed, args.seconds)
    except CheckFailed as exc:
        print(f"perfbench: output check failed on {w.name}: {exc}",
              file=sys.stderr)
        return 1

    print(f"{w.name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          + "  ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                      for k, v in result["notes"].items()))
    for name, (value, unit, n, what) in result["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} n={n} ({what})")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
