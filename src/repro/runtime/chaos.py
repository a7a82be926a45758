"""Seeded, deterministic chaos orchestration over the full stack.

PRs 2–9 each built a safety net — retries/checkpoints, degraded
fabrics, breaker/coalescing, sharded multi-node — and each is tested
one fault at a time.  This module proves they *compose*: a seeded
:class:`ChaosSchedule` derives a reproducible set of fault events,
drives full end-to-end runs of all three frontends under them —

* **batch** — ``run_sweep`` with scripted worker crashes, injected
  exceptions, hung workers killed by the timeout machinery,
  kill-and-resume against the checkpoint manifest, and corrupt cache
  entries quarantined and recomputed;
* **service** — :class:`~repro.runtime.service.PredictionService`
  under queue saturation, worker-crash bursts tripping the circuit
  breaker, and slow cache I/O;
* **multinode** — :func:`~repro.piuma.multinode.run_multinode` under
  per-shard crashes, permanent shard death, and stragglers, recovered
  by the :class:`~repro.runtime.shard.ShardRecovery` failure model
  (bounded retry, hedged re-execution, partial assembly) —

and then verifies the *recovery invariants* that make the composition
trustworthy:

* **no accepted work lost** — every accepted point/request/shard
  reaches a terminal, structured outcome;
* **bit-identity** — recovered results equal the unfaulted run's on
  every deterministic field (:data:`CHAOS_IDENTITY_FIELDS`; host
  wall-clock excluded);
* **cache / checkpoint consistency** — no torn temp files, every
  surviving manifest line re-reads as the final record, quarantined
  entries are recomputed;
* **breaker returns to closed** — a tripped circuit recovers through
  its half-open probe.

Faults inside tasks ride a :class:`~repro.runtime.faults.FaultyTask`
wrapping the real task as its ``victim``: the carrier's cache /
checkpoint identity **is the victim's** (``key_payload`` delegates), so
resume and bit-identity comparisons run against the exact same keys an
unfaulted run would use; per-attempt behavior lives in on-disk markers,
surviving pool respawns and killed parents.

Surface: ``repro chaos --seed/--schedule/--frontend/--rounds`` with a
JSON verdict artifact, and ``benchmarks/bench_chaos_recovery.py``.
"""

from __future__ import annotations

import json
import pathlib
import random
import time
from dataclasses import dataclass

from repro.runtime.errors import TaskError
from repro.runtime.faults import FaultyTask

#: Frontends the orchestrator can drive.
CHAOS_FRONTENDS = ("batch", "service", "multinode")

#: Batch fault points (``run_sweep``): composed task/pool/cache faults.
BATCH_CHAOS_POINTS = ("worker_crash", "task_raise", "task_hang",
                      "kill_resume", "corrupt_cache")

#: Service fault points (tier seams; see ServiceFaultInjector).
SERVICE_CHAOS_POINTS = ("queue_full", "worker_crash_burst",
                        "slow_cache_io")

#: Multinode fault points (per-shard failure domains).
MULTINODE_CHAOS_POINTS = ("shard_crash", "shard_dead", "shard_straggle")

#: Deterministic record fields compared for bit-identity (everything
#: except host wall-clock: host_wall_s / events_per_s / latency vary
#: run to run, the simulated observables must not).
CHAOS_IDENTITY_FIELDS = (
    "n_vertices", "n_edges", "embedding_dim", "kernel", "gflops",
    "projected_time_ns", "sim_time_ns", "window_edges", "total_edges",
    "memory_utilization", "achieved_bandwidth", "model_gflops",
    "model_time_ns", "efficiency", "events", "tag_stats", "source",
    "scheduler", "engine",
)


def record_identity(record):
    """The deterministic projection of one record (bit-identity key)."""
    return {name: record.get(name) for name in CHAOS_IDENTITY_FIELDS}


# ----------------------------------------------------------------------
# Fault schedules


@dataclass
class ChaosSchedule:
    """A reproducible list of fault events over (frontend, round).

    Events are plain dicts — ``{"round", "frontend", "point"}`` plus a
    ``"target"`` (task/shard index) or ``"value"`` (count / duration)
    where the point needs one — so a schedule round-trips through JSON
    (``--schedule`` files) byte for byte.
    """

    seed: int
    rounds: int
    frontends: tuple
    events: list

    @classmethod
    def generate(cls, seed, frontends=CHAOS_FRONTENDS, rounds=1):
        """Derive the deterministic schedule of ``seed``.

        Every (frontend, round) cell seeds its own RNG stream, so
        adding rounds or dropping a frontend never perturbs the other
        cells' events.  Each cell always includes the frontend's
        acceptance-critical faults (kill-and-resume for batch, a
        breaker-tripping crash burst for service, a permanently dead
        shard for multinode) plus seed-dependent extras.
        """
        frontends = tuple(frontends)
        events = []
        for frontend in frontends:
            for rnd in range(rounds):
                rng = random.Random(f"chaos:{seed}:{frontend}:{rnd}")
                if frontend == "batch":
                    targets = rng.sample(range(_BatchDriver.N_TASKS), 3)
                    events.append(_event(rnd, frontend, "worker_crash",
                                         target=targets[0]))
                    events.append(_event(
                        rnd, frontend,
                        rng.choice(("task_raise", "task_hang")),
                        target=targets[1],
                    ))
                    events.append(_event(rnd, frontend, "kill_resume",
                                         target=targets[2]))
                    if rng.random() < 0.5:
                        events.append(_event(
                            rnd, frontend, "corrupt_cache",
                            target=rng.randrange(_BatchDriver.N_TASKS),
                        ))
                elif frontend == "service":
                    events.append(_event(rnd, frontend, "queue_full",
                                         value=rng.randint(1, 2)))
                    events.append(_event(rnd, frontend,
                                         "worker_crash_burst", value=1))
                    if rng.random() < 0.5:
                        events.append(_event(rnd, frontend,
                                             "slow_cache_io", value=0.02))
                elif frontend == "multinode":
                    targets = rng.sample(
                        range(_MultinodeDriver.N_SHARDS), 3
                    )
                    events.append(_event(rnd, frontend, "shard_dead",
                                         target=targets[0]))
                    events.append(_event(rnd, frontend, "shard_crash",
                                         target=targets[1]))
                    if rng.random() < 0.5:
                        events.append(_event(rnd, frontend,
                                             "shard_straggle",
                                             target=targets[2]))
                else:
                    raise ValueError(
                        f"unknown frontend {frontend!r}; expected one "
                        f"of {CHAOS_FRONTENDS}"
                    )
        return cls(seed=seed, rounds=rounds, frontends=frontends,
                   events=events)

    @classmethod
    def from_json(cls, doc):
        """Load a schedule document (``--schedule`` file)."""
        events = list(doc.get("events", ()))
        known = {
            "batch": BATCH_CHAOS_POINTS,
            "service": SERVICE_CHAOS_POINTS,
            "multinode": MULTINODE_CHAOS_POINTS,
        }
        for event in events:
            frontend = event.get("frontend")
            if frontend not in known:
                raise ValueError(
                    f"event frontend must be one of {CHAOS_FRONTENDS}, "
                    f"got {frontend!r}"
                )
            if event.get("point") not in known[frontend]:
                raise ValueError(
                    f"unknown {frontend} fault point "
                    f"{event.get('point')!r}; expected one of "
                    f"{known[frontend]}"
                )
        frontends = tuple(doc.get(
            "frontends",
            [f for f in CHAOS_FRONTENDS
             if any(e["frontend"] == f for e in events)],
        ))
        rounds = int(doc.get(
            "rounds",
            1 + max((int(e.get("round", 0)) for e in events), default=0),
        ))
        return cls(seed=int(doc.get("seed", 0)), rounds=rounds,
                   frontends=frontends, events=events)

    def to_json(self):
        return {
            "seed": self.seed,
            "rounds": self.rounds,
            "frontends": list(self.frontends),
            "events": [dict(e) for e in self.events],
        }

    def for_round(self, frontend, rnd):
        return [e for e in self.events
                if e["frontend"] == frontend and int(e.get("round", 0)) == rnd]


def _event(rnd, frontend, point, target=None, value=None):
    event = {"round": rnd, "frontend": frontend, "point": point}
    if target is not None:
        event["target"] = int(target)
    if value is not None:
        event["value"] = value
    return event


# ----------------------------------------------------------------------
# Frontend drivers


def _check(invariants, name, passed, detail=""):
    invariants[name] = {"passed": bool(passed), "detail": detail}
    return bool(passed)


def _identity_mismatches(records, baselines):
    """Indexes whose deterministic projection differs from baseline."""
    return [
        i for i, (got, want) in enumerate(zip(records, baselines))
        if got is None or record_identity(got) != record_identity(want)
    ]


class _BatchDriver:
    """Chaos rounds against ``run_sweep`` (+ cache + checkpoint)."""

    N_TASKS = 4

    def __init__(self, workdir):
        self.workdir = pathlib.Path(workdir)
        self._baseline = None

    def tasks(self):
        from repro.runtime.runner import spmm_task

        return [
            spmm_task("products", k, kernel=kernel, max_vertices=512,
                      seed=3)
            for kernel, k in (("dma", 4), ("dma", 8),
                              ("loop", 4), ("loop", 8))
        ]

    def baseline(self):
        """Unfaulted records (memoized; computed inline, no pool)."""
        from repro.runtime.runner import run_sweep

        if self._baseline is None:
            report = run_sweep(self.tasks(), workers=1)
            self._baseline = report.records
        return self._baseline

    def run_round(self, rnd, events):
        from repro.runtime.cache import ResultCache
        from repro.runtime.checkpoint import SweepCheckpoint
        from repro.runtime.runner import run_sweep

        scratch = self.workdir / f"batch-r{rnd}"
        markers = scratch / "markers"
        cache = ResultCache(scratch / "cache")
        tasks = self.tasks()
        baseline = self.baseline()
        invariants = {}
        stats = {"injected": 0, "recovered_retry": 0, "resumed": 0,
                 "rejected": 0, "lost": 0, "quarantined_recovered": 0}

        plans = {}
        hang = False
        kill_resume = None
        corrupt = None
        for event in events:
            point, target = event["point"], event.get("target")
            if point == "worker_crash":
                plans[target] = ("crash", "ok")
            elif point == "task_raise":
                plans[target] = ("raise", "ok")
            elif point == "task_hang":
                plans[target] = ("hang", "ok")
                hang = True
            elif point == "kill_resume":
                kill_resume = target
            elif point == "corrupt_cache":
                corrupt = target
        stats["injected"] = len(plans) + (kill_resume is not None) \
            + (corrupt is not None)

        def wrap(index, task, phase):
            plan = plans.get(index, ("ok",))
            return FaultyTask(
                victim=task, name=f"r{rnd}-{phase}-{index}",
                scratch=str(markers), plan=plan, hang_s=60.0,
            )

        checkpoint = SweepCheckpoint.for_tasks(
            tasks, directory=scratch / "ckpt"
        )

        expected_resume = 0
        pre_resumed = set()
        if kill_resume is not None:
            # Process-kill-and-resume, deterministically emulated: the
            # kill target raises an unretryable divergence, aborting
            # the sweep mid-run under on_error="raise" and leaving a
            # partial fsync'd manifest — the same on-disk state a
            # SIGKILL leaves (the subprocess variant lives in
            # tests/runtime/test_resume_chaos.py).
            phase_a = [
                FaultyTask(victim=task, name=f"r{rnd}-kill-{i}",
                           scratch=str(markers),
                           plan=("diverge",) if i == kill_resume
                           else ("ok",))
                for i, task in enumerate(tasks)
            ]
            try:
                run_sweep(phase_a, workers=2, cache=None,
                          checkpoint=checkpoint, on_error="raise")
            except TaskError:
                pass
            pre_resumed = set(checkpoint.load())
            expected_resume = len(pre_resumed)

        wrapped = [wrap(i, task, "main") for i, task in enumerate(tasks)]
        started = time.perf_counter()
        report = run_sweep(
            wrapped, workers=2, cache=cache, checkpoint=checkpoint,
            resume=kill_resume is not None,
            timeout=5.0 if hang else None, retries=2,
            backoff_s=0.05, backoff_cap_s=0.2, jitter=0.0,
            on_error="fallback",
        )
        wall_s = time.perf_counter() - started
        stats["resumed"] = report.resumed

        lost = [i for i, r in enumerate(report.records)
                if r is None or r.get("source") != "simulation"]
        stats["lost"] = len(lost)
        _check(invariants, "no_lost_work", not lost,
               f"non-simulation outcomes at {lost}" if lost else
               f"{len(report.records)} points terminal and recovered")
        mismatched = _identity_mismatches(report.records, baseline)
        _check(invariants, "bit_identity", not mismatched,
               f"mismatch at {mismatched}" if mismatched else
               "all records bit-identical to the unfaulted run")
        if kill_resume is not None:
            _check(invariants, "resume_consistent",
                   report.resumed == expected_resume,
                   f"resumed {report.resumed}, manifest held "
                   f"{expected_resume}")
        stats["recovered_retry"] = sum(
            1 for i in plans if i not in lost
        )

        # Checkpoint consistency: every surviving manifest line must
        # re-read as the final record for its key.
        manifest = checkpoint.load()
        keys = [cache.key_for(task.key_payload()) for task in tasks]
        by_key = dict(zip(keys, report.records))
        torn = [key for key, record in manifest.items()
                if key not in by_key
                or record_identity(record) != record_identity(by_key[key])]
        _check(invariants, "checkpoint_consistent", not torn,
               f"stale manifest keys: {torn}" if torn else
               f"{len(manifest)} manifest record(s) match final results")

        # Cache consistency: no torn temp litter, no quarantine, every
        # computed point re-readable and identical (resumed points were
        # satisfied from the manifest and legitimately never cached).
        litter = [p.name for p in cache.directory.glob("*.tmp*")]
        stale = [
            i for i, key in enumerate(keys)
            if key not in pre_resumed
            and record_identity(cache.get(key) or {})
            != record_identity(baseline[i])
        ]
        _check(invariants, "cache_consistent",
               not litter and not stale and cache.quarantined() == 0,
               f"litter={litter} stale={stale} "
               f"quarantined={cache.quarantined()}")

        if corrupt is not None:
            # Slow/corrupt cache IO: truncate one entry mid-byte, the
            # next read must quarantine it (never poison a reader) and
            # the re-run must recompute and re-cache bit-identically.
            if cache.get(keys[corrupt]) is None:
                cache.put(keys[corrupt], baseline[corrupt],
                          payload=tasks[corrupt].key_payload())
            path = cache._path(keys[corrupt])
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 2)])
            poisoned = cache.get(keys[corrupt])
            # Heal with the plain victim (inline): the fault already
            # fired during the main sweep, this is the clean recompute.
            requrn = run_sweep([tasks[corrupt]], workers=1, cache=cache)
            healed = cache.get(keys[corrupt])
            ok = (poisoned is None and cache.quarantined() >= 1
                  and healed is not None
                  and record_identity(healed)
                  == record_identity(baseline[corrupt])
                  and record_identity(requrn.records[0])
                  == record_identity(baseline[corrupt]))
            _check(invariants, "quarantine_recovers", ok,
                   "corrupt entry quarantined and recomputed" if ok else
                   f"poisoned={poisoned is not None} "
                   f"quarantined={cache.quarantined()}")
            if ok:
                stats["quarantined_recovered"] = 1

        stats["wall_s"] = wall_s
        return invariants, stats


class _ServiceDriver:
    """Chaos rounds against the tiered PredictionService."""

    def __init__(self, workdir):
        self.workdir = pathlib.Path(workdir)
        self._baseline = {}

    def task(self, k):
        from repro.runtime.runner import spmm_task

        return spmm_task("products", k, max_vertices=512, seed=3)

    def baseline(self, k):
        if k not in self._baseline:
            self._baseline[k] = self.task(k).run()
        return self._baseline[k]

    def run_round(self, rnd, events):
        from repro.runtime.breaker import CLOSED, CircuitBreaker
        from repro.runtime.cache import ResultCache
        from repro.runtime.errors import QueueSaturated
        from repro.runtime.faults import ServiceFaultInjector
        from repro.runtime.service import PredictionService

        values = {e["point"]: e.get("value") for e in events}
        invariants = {}
        stats = {"injected": len(events), "rejected": 0, "lost": 0,
                 "degraded_answers": 0, "recovered_retry": 0}
        cache = ResultCache(self.workdir / f"service-r{rnd}" / "cache")
        faults = ServiceFaultInjector()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=0.3)
        service = PredictionService(
            cache, workers=1, retries=1, task_timeout_s=60.0,
            default_deadline_s=60.0, breaker=breaker, faults=faults,
        )
        started = time.perf_counter()
        try:
            # Clean tier-2 answer, then a tier-1 hit (under slow cache
            # IO when armed) — both bit-identical to the unfaulted run.
            answer = service.predict_task(self.task(4))
            fresh_ok = (answer["tier"] == 2 and
                        record_identity(answer["record"])
                        == record_identity(self.baseline(4)))
            if values.get("slow_cache_io"):
                faults.arm("slow_cache_io", values["slow_cache_io"])
            cached = service.predict_task(self.task(4))
            hit_ok = (cached["tier"] == 1 and
                      record_identity(cached["record"])
                      == record_identity(self.baseline(4)))
            faults.arm("slow_cache_io", 0)
            _check(invariants, "tier_ladder_identity",
                   fresh_ok and hit_ok,
                   f"tier2={answer['tier']} tier1={cached['tier']}")

            # Queue saturation: armed rejections surface as structured
            # backpressure, never as accepted-then-dropped work.
            saturation = int(values.get("queue_full") or 0)
            if saturation:
                faults.arm("queue_full", saturation)
            rejections = 0
            for _ in range(saturation):
                try:
                    service.predict_task(self.task(8))
                except QueueSaturated:
                    rejections += 1
            stats["rejected"] = rejections
            _check(invariants, "saturation_is_backpressure",
                   rejections == saturation,
                   f"{rejections} structured rejection(s)")

            # Crash burst: the sabotaged job fails terminally (crash,
            # retry, crash), trips the breaker, and still yields a
            # structured degraded answer.
            faults.arm("worker_crash_burst",
                       int(values.get("worker_crash_burst") or 1))
            burst = service.predict_task(self.task(16))
            stats["degraded_answers"] += 1
            _check(invariants, "crash_burst_degrades",
                   burst["degraded"] is not None
                   and burst["record"].get("source") == "model_fallback",
                   f"degraded={burst['degraded']}")
            open_now = breaker.snapshot()["state"] != CLOSED
            refused = service.predict_task(self.task(8))
            stats["degraded_answers"] += 1
            _check(invariants, "breaker_trips",
                   open_now and refused["degraded"] == "circuit_open",
                   f"state={breaker.snapshot()['state']} "
                   f"degraded={refused['degraded']}")

            # Half-open probe: after the cooldown the next simulation
            # succeeds, recovers the breaker, and is bit-identical.
            time.sleep(0.35)
            probe = service.predict_task(self.task(16))
            probe_ok = (probe["tier"] == 2 and
                        record_identity(probe["record"])
                        == record_identity(self.baseline(16)))
            if probe_ok:
                stats["recovered_retry"] += 1
            _check(invariants, "recovery_bit_identity", probe_ok,
                   f"tier={probe['tier']} degraded={probe['degraded']}")
            _check(invariants, "breaker_closes",
                   breaker.snapshot()["state"] == CLOSED,
                   f"state={breaker.snapshot()['state']}")

            # Observability: healthz reports the armed/fired counts and
            # quarantine state a chaos operator watches.
            doc = service.healthz()
            fired = doc["fault_injections"]
            _check(invariants, "faults_observable",
                   fired["worker_crash_burst"]["fired"] >= 1
                   and fired["queue_full"]["fired"] == rejections
                   and "quarantined_cache_entries" in doc,
                   json.dumps(fired, sort_keys=True))
        finally:
            drained = service.close(drain=True, timeout=30.0)
        counters = service.scheduler.stats.snapshot()
        accounted = (counters["accepted"]
                     == counters["completed"] + counters["failed"])
        stats["lost"] = 0 if accounted and drained else 1
        _check(invariants, "no_lost_work", accounted and drained,
               f"accepted={counters['accepted']} "
               f"completed={counters['completed']} "
               f"failed={counters['failed']} drained={drained}")
        stats["wall_s"] = time.perf_counter() - started
        return invariants, stats


class _MultinodeDriver:
    """Chaos rounds against the sharded multi-node assembly."""

    N_SHARDS = 4

    def __init__(self, workdir):
        self.workdir = pathlib.Path(workdir)
        self._baseline = None

    def baseline(self):
        from repro.piuma.multinode import run_multinode

        if self._baseline is None:
            estimate, _report = run_multinode(
                "products", self.N_SHARDS, max_vertices=2048,
                sweep_kwargs={"workers": 2},
            )
            self._baseline = estimate
        return self._baseline

    def run_round(self, rnd, events):
        from repro.piuma.config import PIUMAConfig
        from repro.piuma.multinode import multinode_verdict, run_multinode
        from repro.runtime.shard import ShardRecovery

        markers = self.workdir / f"multinode-r{rnd}" / "markers"
        invariants = {}
        stats = {"injected": len(events), "lost": 0, "rejected": 0,
                 "recovered_retry": 0, "recovered_hedge": 0,
                 "degraded_fallback": 0}
        plans = {}
        stragglers = set()
        dead = set()
        for event in events:
            point, target = event["point"], event.get("target")
            if point == "shard_crash":
                plans[target] = ("crash", "ok")
            elif point == "shard_dead":
                plans[target] = ("raise",)
                dead.add(target)
            elif point == "shard_straggle":
                plans[target] = ("hang", "ok")
                stragglers.add(target)

        def sabotage(tasks):
            return [
                FaultyTask(
                    victim=task, name=f"r{rnd}-s{i}",
                    scratch=str(markers), plan=plans.get(i, ("ok",)),
                    hang_s=60.0,
                )
                for i, task in enumerate(tasks)
            ]

        recovery = ShardRecovery(
            retries=2, timeout=30.0,
            hedge_after_s=0.4 if stragglers else None,
        )
        baseline = self.baseline()
        started = time.perf_counter()
        estimate, report = run_multinode(
            "products", self.N_SHARDS, max_vertices=2048,
            sweep_kwargs={"workers": 2}, recovery=recovery,
            task_filter=sabotage,
        )
        stats["wall_s"] = time.perf_counter() - started
        stats["recovery"] = dict(report.recovery)
        stats["degraded_fallback"] = estimate.degraded_shards
        stats["recovered_retry"] = report.recovery["retries"]
        stats["recovered_hedge"] = report.recovery["hedges_won"]

        missing = [i for i, r in enumerate(report.records) if r is None]
        stats["lost"] = len(missing)
        _check(invariants, "no_lost_work", not missing,
               f"missing shard records at {missing}" if missing else
               f"{len(report.records)} shard(s) terminal")
        _check(invariants, "conservation_exact",
               estimate.conserved == baseline.conserved,
               "summed counters equal the unfaulted assembly")
        verdict = multinode_verdict(estimate, PIUMAConfig())
        if dead:
            sources_ok = all(
                estimate.shard_sources[i] == "shard_fallback"
                for i in dead
            )
            _check(invariants, "shard_fallback_provenance",
                   sources_ok and estimate.degraded_shards == len(dead),
                   f"sources={list(estimate.shard_sources)}")
            _check(invariants, "degraded_envelope_verdict",
                   verdict["verdict"] == "degraded",
                   f"verdict={verdict['verdict']} "
                   f"ratio={verdict['ratio']:.3f} "
                   f"envelope={verdict['envelope']}")
            survivors_ok = all(
                estimate.per_shard_ns[i] == baseline.per_shard_ns[i]
                for i in range(self.N_SHARDS) if i not in dead
            )
            _check(invariants, "surviving_shards_bit_identical",
                   survivors_ok,
                   f"per_shard={list(estimate.per_shard_ns)}")
        else:
            _check(invariants, "assembly_bit_identical",
                   estimate.time_ns == baseline.time_ns
                   and estimate.per_shard_ns == baseline.per_shard_ns
                   and estimate.degraded_shards == 0,
                   f"time={estimate.time_ns} vs {baseline.time_ns}")
            _check(invariants, "clean_envelope_verdict",
                   verdict["verdict"] == "ok",
                   f"verdict={verdict['verdict']}")
        # A crash elsewhere in the round can kill the straggler's
        # worker as collateral, so its rescue may come from a retry
        # rather than the hedge — any net that breaks the hang without
        # waiting it out counts.  hang_s is 60 s, so wall < 60 s proves
        # the hang was interrupted.
        live_stragglers = stragglers - dead
        if live_stragglers:
            rescued = all(
                report.records[i]["source"] == "simulation"
                for i in live_stragglers
            )
            _check(invariants, "straggler_recovered",
                   rescued and stats["wall_s"] < 60.0,
                   json.dumps(report.recovery, sort_keys=True))
        stats["verdict"] = verdict
        return invariants, stats


_DRIVERS = {
    "batch": _BatchDriver,
    "service": _ServiceDriver,
    "multinode": _MultinodeDriver,
}


# ----------------------------------------------------------------------
# Orchestrator


def run_chaos(seed=0, frontends=CHAOS_FRONTENDS, rounds=1, schedule=None,
              workdir=None, out=None):
    """Run the chaos campaign; returns the JSON verdict document.

    ``schedule`` (a :class:`ChaosSchedule` or its JSON document)
    overrides the generated one; ``workdir`` holds per-round scratch
    state (caches, manifests, attempt markers) and defaults to a fresh
    temporary directory that is removed afterwards.  The verdict is
    ``{"passed", "seed", "schedule", "results", "stats"}`` where
    ``results[frontend]`` lists one entry per round with its events,
    per-invariant outcomes, and recovery statistics.
    """
    out = out or (lambda text: None)
    if schedule is None:
        schedule = ChaosSchedule.generate(seed, frontends=frontends,
                                          rounds=rounds)
    elif isinstance(schedule, dict):
        schedule = ChaosSchedule.from_json(schedule)
    frontends = tuple(f for f in schedule.frontends if f in frontends) \
        or tuple(schedule.frontends)
    cleanup = workdir is None
    if workdir is None:
        import tempfile

        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    workdir = pathlib.Path(workdir)

    results = {}
    totals = {"injected": 0, "lost": 0, "rejected": 0,
              "recovered_retry": 0, "recovered_hedge": 0,
              "degraded_fallback": 0, "resumed": 0, "wall_s": 0.0}
    passed = True
    started = time.perf_counter()
    try:
        for frontend in frontends:
            driver = _DRIVERS[frontend](workdir)
            rows = []
            for rnd in range(schedule.rounds):
                events = schedule.for_round(frontend, rnd)
                out(f"chaos[{frontend}] round {rnd}: "
                    + (", ".join(e["point"] for e in events) or "no faults"))
                invariants, stats = driver.run_round(rnd, events)
                round_passed = all(v["passed"] for v in invariants.values())
                passed = passed and round_passed
                for name, value in stats.items():
                    if name in totals and isinstance(value, (int, float)):
                        totals[name] += value
                for name, outcome in invariants.items():
                    if not outcome["passed"]:
                        out(f"chaos[{frontend}] round {rnd} FAILED "
                            f"{name}: {outcome['detail']}")
                rows.append({
                    "round": rnd,
                    "events": events,
                    "invariants": invariants,
                    "stats": stats,
                    "passed": round_passed,
                })
            results[frontend] = rows
    finally:
        if cleanup:
            import shutil

            shutil.rmtree(workdir, ignore_errors=True)
    totals["wall_s"] = time.perf_counter() - started
    return {
        "passed": passed,
        "seed": schedule.seed,
        "frontends": list(frontends),
        "rounds": schedule.rounds,
        "schedule": schedule.to_json(),
        "results": results,
        "stats": totals,
    }
