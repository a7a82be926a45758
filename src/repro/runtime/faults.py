"""Deterministic fault injection for the sweep runner and the service.

Testing the resilience layer needs workers that fail *on demand and on
schedule*: crash on the first attempt, succeed on the second; hang
until killed; raise a divergence.  A :class:`FaultyTask` scripts that
behavior as a per-attempt ``plan`` — and because attempts execute in
separate worker processes, the attempt counter lives on disk (one
marker file per attempt in a scratch directory, created exclusively so
concurrent attempts never share a number), which also makes the
schedule survive pool respawns and even a killed-and-resumed parent.

The task implements the full runner protocol (``run`` / ``label`` /
``key_payload`` / ``fallback_record`` / ``shard_fallback_record``).
On its own it is a synthetic task, so every ``run_sweep`` path —
cache, checkpoint, retry, policy — can be exercised without touching
the simulator; given a ``victim`` it wraps a *real* task instead (the
chaos orchestrator's carrier), with the victim's identity and, on an
``"ok"`` attempt, the victim's record.

The *service-scoped* fault points (:class:`ServiceFaultInjector`,
consumed by :class:`~repro.runtime.service.PredictionService`) inject
failures at the tier boundaries rather than inside one task:

* ``queue_full`` — the next N admissions see a saturated queue
  (backpressure / 429 paths without actually filling the queue);
* ``worker_crash_burst`` — the next N scheduled tasks are replaced by
  hard worker-killers (:class:`CrashTask`), driving consecutive
  :class:`~repro.runtime.errors.WorkerCrash` outcomes into the circuit
  breaker deterministically;
* ``slow_cache_io`` — every shared-cache read/write sleeps for the
  armed duration (deadline and degradation paths around tier 1).

All three are count- or toggle-armed from the test, consumed
atomically, and observable (:meth:`ServiceFaultInjector.fired`), so
breaker trip/recover sequences replay exactly.
"""

from __future__ import annotations

import os
import pathlib
import threading
import time
from dataclasses import dataclass

from repro.runtime.errors import SimulationDiverged

#: Scripted per-attempt behaviors.
BEHAVIORS = ("ok", "raise", "crash", "hang", "diverge")


@dataclass(frozen=True)
class FaultyTask:
    """A picklable sweep task with a scripted failure plan.

    Attributes
    ----------
    name:
        Task identity (also the marker-file prefix; keep it unique per
        scratch directory).
    scratch:
        Directory for cross-process attempt markers.
    plan:
        Behavior per attempt, one of :data:`BEHAVIORS`; the last entry
        repeats for all further attempts.  ``("crash", "ok")`` crashes
        the first attempt and succeeds on retry.
    hang_s:
        How long a ``"hang"`` attempt sleeps (default: effectively
        forever, so only a timeout+kill ends it).
    value:
        Payload echoed into the synthetic success record.
    victim:
        Optional real task to wrap.  ``label``, ``key_payload`` and
        both fallbacks are the victim's, so cache keys, checkpoint
        lines, and coalescing identity are exactly what the unfaulted
        run produces; an ``"ok"`` attempt (or a ``"hang"`` that
        survives its sleep) returns ``victim.run()``.
    """

    name: str
    scratch: str
    plan: tuple = ("ok",)
    hang_s: float = 3600.0
    value: float = 1.0
    victim: object = None

    def __post_init__(self):
        for behavior in self.plan:
            if behavior not in BEHAVIORS:
                raise ValueError(f"unknown behavior {behavior!r}")
        if not self.plan:
            raise ValueError("plan must not be empty")

    def label(self):
        if self.victim is not None:
            return self.victim.label()
        return f"fault:{self.name}"

    def key_payload(self):
        if self.victim is not None:
            return self.victim.key_payload()
        return {
            "fault": self.name,
            "plan": list(self.plan),
            "value": self.value,
        }

    def attempts_made(self):
        """How many attempts have started, across all processes."""
        return len(list(pathlib.Path(self.scratch).glob(f"{self.name}.attempt*")))

    def _record_attempt(self):
        """Claim the next attempt number with an exclusively created
        marker, so two attempts racing from different processes can
        never claim the same one."""
        directory = pathlib.Path(self.scratch)
        directory.mkdir(parents=True, exist_ok=True)
        attempt = self.attempts_made() + 1
        while True:
            try:
                with open(directory / f"{self.name}.attempt{attempt}", "x"):
                    return attempt
            except FileExistsError:
                attempt += 1

    def run(self):
        attempt = self._record_attempt()
        behavior = self.plan[min(attempt - 1, len(self.plan) - 1)]
        if behavior == "raise":
            raise RuntimeError(f"injected exception (attempt {attempt})")
        if behavior == "diverge":
            raise SimulationDiverged(
                f"injected divergence (attempt {attempt})", cause="injected"
            )
        if behavior == "crash":
            # Hard worker death: skips all interpreter cleanup, so the
            # parent sees BrokenProcessPool, exactly like a segfault.
            os._exit(17)
        if behavior == "hang":
            time.sleep(self.hang_s)
        if self.victim is not None:
            return self.victim.run()
        return {
            "source": "simulation",
            "name": self.name,
            "value": self.value,
            "attempt": attempt,
            "sim_time_ns": float(attempt),
        }

    def fallback_record(self, error=None):
        if self.victim is not None:
            return self.victim.fallback_record(error)
        return {
            "source": "model_fallback",
            "name": self.name,
            "value": self.value,
            "sim_time_ns": 0.0,
            "error": None if error is None else error.payload(),
        }

    def shard_fallback_record(self, error=None):
        maker = getattr(self.victim, "shard_fallback_record", None)
        if maker is None:
            return self.fallback_record(error)
        return maker(error)


@dataclass(frozen=True)
class CrashTask:
    """A picklable task that kills its worker process immediately.

    Wraps a victim task's identity (label/key payload/fallback pass
    through) so the service's coalescing, cache keying, and tier-0
    degradation all behave exactly as they would for the real task —
    only the worker-side execution is sabotaged.  Used by the
    ``worker_crash_burst`` service fault point.
    """

    victim: object

    def label(self):
        inner = getattr(self.victim, "label", None)
        base = inner() if callable(inner) else "task"
        return f"crash-burst:{base}"

    def key_payload(self):
        return self.victim.key_payload()

    def fallback_record(self, error=None):
        return self.victim.fallback_record(error)

    def run(self):
        # Hard worker death: skips all interpreter cleanup, so the
        # parent sees BrokenProcessPool, exactly like a segfault.
        os._exit(23)


#: Service-scoped fault points (:class:`ServiceFaultInjector.arm`).
SERVICE_FAULT_POINTS = ("queue_full", "worker_crash_burst",
                        "slow_cache_io")


class ServiceFaultInjector:
    """Deterministic fault points at the prediction service's seams.

    Thread-safe: the service consults it from request threads and the
    scheduler pump concurrently.  Disarmed points cost one lock-free
    dictionary miss, so a default (never-armed) injector is free.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._armed = {}
        #: Per-point count of injections actually delivered.
        self._fired = {point: 0 for point in SERVICE_FAULT_POINTS}

    def arm(self, point, value):
        """Arm ``point``.

        ``queue_full`` / ``worker_crash_burst`` take a count (the next
        N events are faulted); ``slow_cache_io`` takes a duration in
        seconds (every cache I/O sleeps that long until disarmed with
        ``0``).
        """
        if point not in SERVICE_FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; "
                f"expected one of {SERVICE_FAULT_POINTS}"
            )
        if value < 0:
            raise ValueError("fault value must be non-negative")
        with self._lock:
            if value:
                self._armed[point] = value
            else:
                self._armed.pop(point, None)

    def fired(self, point):
        """How many times ``point`` actually injected."""
        with self._lock:
            return self._fired[point]

    def armed(self, point=None):
        """Currently armed value(s): still-pending counts / durations.

        With ``point`` returns that point's armed value (0 when
        disarmed); without, a ``{point: value}`` snapshot over every
        fault point — what ``/healthz`` reports so an operator (or the
        chaos orchestrator) can see live injections, not just history.
        """
        with self._lock:
            if point is not None:
                if point not in SERVICE_FAULT_POINTS:
                    raise ValueError(
                        f"unknown fault point {point!r}; "
                        f"expected one of {SERVICE_FAULT_POINTS}"
                    )
                return self._armed.get(point, 0)
            return {p: self._armed.get(p, 0) for p in SERVICE_FAULT_POINTS}

    def _consume(self, point):
        """Consume one count-armed injection; True if it fires."""
        with self._lock:
            remaining = self._armed.get(point, 0)
            if not remaining:
                return False
            remaining -= 1
            if remaining:
                self._armed[point] = remaining
            else:
                del self._armed[point]
            self._fired[point] += 1
            return True

    def queue_full(self):
        """Should this admission be rejected as saturated?"""
        return self._consume("queue_full")

    def sabotage(self, task):
        """Possibly replace ``task`` with a worker-killer (crash burst)."""
        if self._consume("worker_crash_burst"):
            return CrashTask(task)
        return task

    def cache_delay(self):
        """Sleep the armed ``slow_cache_io`` duration (0 when disarmed)."""
        with self._lock:
            delay = self._armed.get("slow_cache_io", 0.0)
            if delay:
                self._fired["slow_cache_io"] += 1
        if delay:
            time.sleep(delay)
        return delay
