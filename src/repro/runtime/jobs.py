"""The dispatch core: the only code in the package that drives a
process pool.

A DES point is a pure function of its task, so executing one is always
the same machine: submit it to a worker process, wait, charge a crash
or a timeout to the task that caused it, retry with backoff, and kill
and respawn the pool when a worker dies or hangs.  :class:`JobScheduler`
is that machine, and it has three callers:

* :class:`~repro.runtime.service.PredictionService` keeps one
  persistent scheduler with bounded admission, coalescing by content
  key, and a circuit breaker;
* :func:`~repro.runtime.runner.run_sweep` and
  :func:`~repro.runtime.shard.run_shards` hand a batch's cache misses
  to a private scheduler (no breaker, no coalescing, ``max_pending``
  equal to the misses) and apply their own exhaustion policy to what
  comes back.  Shards also pass a hedge policy: a straggling job gets a
  second, speculative attempt, and the first result wins.

The pieces:

* :func:`backoff_delay` — the retry-delay policy (exponential with
  deterministic jitter);
* :class:`ExecPool` — a lazily spawned, kill-capable, respawnable
  ``ProcessPoolExecutor`` wrapper (the only sanctioned way to stop a
  hung worker is to kill its process, which takes the pool with it);
* :class:`Job` — one admitted unit of work with a thread-safe
  completion latch, shared by however many callers coalesced onto it;
* :class:`JobScheduler` — the streaming scheduler: bounded admission
  with explicit :class:`~repro.runtime.errors.QueueSaturated`
  backpressure, coalescing of identical in-flight work by content key,
  per-attempt timeouts, bounded retries, hedged stragglers, automatic
  pool respawn, and an optional
  :class:`~repro.runtime.breaker.CircuitBreaker` consulted at admission
  and fed by infrastructure outcomes (crashes / timeouts).
"""

from __future__ import annotations

import heapq
import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

from repro.runtime.errors import (
    CircuitOpen,
    QueueSaturated,
    TaskError,
    TaskTimeout,
    WorkerCrash,
    wrap_failure,
)


def backoff_delay(attempt, backoff_s, backoff_cap_s, jitter, rng):
    """Exponential backoff with multiplicative jitter for one retry."""
    if backoff_s <= 0:
        return 0.0
    base = min(backoff_cap_s, backoff_s * (2 ** max(0, attempt - 1)))
    if jitter > 0:
        base += rng.uniform(0.0, jitter * base)
    return base


def run_task(task):
    """Module-level trampoline so tasks pickle into worker processes."""
    return task.run()


class ExecPool:
    """Lazily spawned, kill-capable, respawnable process pool.

    ``ProcessPoolExecutor`` cannot cancel a running call; the only way
    to stop a hung or wedged worker is to kill its process, which
    breaks the whole pool.  This wrapper owns that lifecycle: the pool
    spawns on first :meth:`submit`, :meth:`close` optionally kills the
    worker processes first, and a closed pool transparently respawns on
    the next submit — so callers express "kill and respawn" as
    ``close(kill=True)`` followed by business as usual.
    """

    def __init__(self, max_workers):
        self.max_workers = max(1, int(max_workers))
        self._pool = None
        #: Lifetime respawn count (observability: /healthz, tests).
        self.spawns = 0

    @property
    def active(self):
        return self._pool is not None

    def submit(self, fn, *args):
        """Submit a call, spawning the pool if needed.

        Propagates whatever the executor raises (e.g. submitting into a
        pool that broke between completions) — the caller decides
        whether to close-and-retry.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self.spawns += 1
        return self._pool.submit(fn, *args)

    def close(self, kill=False):
        """Shut the pool down (``kill=True`` hard-kills workers first).

        Idempotent; a later :meth:`submit` respawns a fresh pool.
        """
        if self._pool is None:
            return
        if kill:
            # The only way to stop a hung (or wedged) worker: the
            # executor API cannot cancel a running call.
            processes = getattr(self._pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.kill()
                except Exception:
                    pass
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None


class Job:
    """One admitted unit of work, shared by every coalesced waiter.

    Created by :meth:`JobScheduler.submit`; callers block on
    :meth:`wait` / :meth:`result`.  A job always reaches exactly one
    terminal state — a record or a :class:`TaskError` — even if every
    waiter gave up long ago (the scheduler never drops accepted work).

    ``attempts`` counts the attempts charged to the job (its failures,
    plus the one that succeeded).  ``started_at`` is the
    ``time.perf_counter()`` dispatch time of the attempt that decided
    the outcome, ``winner`` that attempt's kind (``"primary"``,
    ``"retry"`` or ``"hedge"``), and ``hedged`` whether a speculative
    duplicate was ever launched.
    """

    __slots__ = ("task", "key", "waiters", "attempts", "accepted_at",
                 "started_at", "winner", "hedged", "record", "error",
                 "_done")

    def __init__(self, task, key):
        self.task = task
        self.key = key
        self.waiters = 1
        self.attempts = 0
        self.accepted_at = time.perf_counter()
        self.started_at = None
        self.winner = None
        self.hedged = False
        self.record = None
        self.error = None
        self._done = threading.Event()

    @property
    def done(self):
        return self._done.is_set()

    def wait(self, timeout=None):
        """Block until the job is terminal; False on wait timeout.

        A ``False`` return does *not* cancel the job — it keeps
        running, and its record still lands wherever the scheduler's
        ``on_result`` callback puts it (the service's shared cache).
        """
        return self._done.wait(timeout)

    def result(self, timeout=None):
        """The job's record; raises its :class:`TaskError` on failure.

        Raises :class:`TimeoutError` if the job is not terminal within
        ``timeout`` seconds.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.key or id(self)} not done after {timeout}s"
            )
        if self.error is not None:
            raise self.error
        return self.record

    def _finish(self, record):
        self.record = record
        self._done.set()

    def _fail(self, error):
        self.error = error
        self._done.set()


class SchedulerStats:
    """Lifetime counters of one :class:`JobScheduler` (plain ints)."""

    FIELDS = ("accepted", "coalesced", "rejected_full", "rejected_open",
              "completed", "failed", "retried", "crashes", "timeouts",
              "dispatched", "hedges_launched", "hedges_won",
              "hedges_cancelled")

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def snapshot(self):
        return {name: getattr(self, name) for name in self.FIELDS}


class JobScheduler:
    """Streaming job scheduler over a process pool.

    Work arrives one job at a time, from concurrent frontends (the
    service) or as a batch's misses submitted at once (sweeps and
    shards); either way every attempt goes through the same pump.

    Parameters
    ----------
    workers:
        Process-pool width (also the submission window: at most this
        many attempts execute concurrently, so a job's ``timeout``
        measures execution, not queueing).
    timeout:
        Per-attempt wall-clock budget in seconds; on expiry the worker
        processes are killed, the pool respawned, the expired job
        charged a :class:`TaskTimeout` attempt, and in-flight innocents
        resubmitted uncharged.  ``None`` disables.
    retries:
        Extra attempts per job after a retryable failure.
    max_pending:
        Bound on accepted-but-unfinished jobs (queued + retrying +
        in-flight).  :meth:`submit` raises
        :class:`~repro.runtime.errors.QueueSaturated` beyond it —
        explicit backpressure instead of unbounded queueing.
    breaker:
        Optional :class:`~repro.runtime.breaker.CircuitBreaker`.
        Consulted at admission (refusal raises
        :class:`~repro.runtime.errors.CircuitOpen`); fed
        ``record_failure`` on every crash/timeout *attempt* and
        ``record_success`` on every completion.  Deterministic task
        failures (diverged simulation, invariant violation, a plain
        exception inside ``task.run()``) say nothing about pool health
        and do not touch it.
    on_result / on_failure:
        Callbacks ``(job, record)`` / ``(job, error)`` invoked from the
        scheduler thread when a job turns terminal (including jobs
        failed by :meth:`close`) — the service uses ``on_result`` to
        backfill the shared cache *before* waiters wake.  Exceptions
        are swallowed with a warning: a bookkeeping callback must not
        kill the pump.
    backoff_s / backoff_cap_s / jitter / rng_seed:
        Retry-delay policy (:func:`backoff_delay`).
    hedge:
        Optional hedge policy ``hedge(durations, accepted)``: given the
        run times of the jobs completed so far and the number of jobs
        accepted, the seconds after which a running attempt gets one
        speculative duplicate on a free worker, or ``None`` for "not
        yet".  A job is hedged at most once.  The first attempt to
        succeed wins, the earlier dispatch wins a tie within one wait
        batch, and the loser is cancelled — or, when already running,
        its worker killed with the pool (innocents re-queued
        uncharged).  While one attempt of a job is still running, a
        failed sibling is charged but not retried: the survivor *is*
        the retry.
    poll_s:
        Pause before the pump retries a dispatch the pool refused.  It
        never polls otherwise: it sleeps until an attempt finishes,
        :meth:`submit` or :meth:`close` wakes it, or a timeout, retry
        backoff, or hedge threshold falls due.
    """

    def __init__(self, workers=2, *, timeout=None, retries=0,
                 max_pending=64, breaker=None, on_result=None,
                 on_failure=None, backoff_s=0.25, backoff_cap_s=8.0,
                 jitter=0.0, rng_seed=1729, hedge=None, poll_s=0.05):
        import random

        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.workers = max(1, int(workers))
        self.timeout = timeout
        self.retries = int(retries)
        self.max_pending = int(max_pending)
        self.breaker = breaker
        self.on_result = on_result
        self.on_failure = on_failure
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.jitter = jitter
        self.hedge = hedge
        self.poll_s = poll_s
        self._rng = random.Random(rng_seed)
        self.pool = ExecPool(self.workers)
        self.stats = SchedulerStats()

        self._lock = threading.Lock()
        # Resolved (lock held) to wake the pump from its wait; the pump
        # swaps in a fresh one each time it has fired.
        self._kick = Future()
        self._queue = deque()      # admitted jobs awaiting submission
        self._retry = []           # heap of (ready_at, seq, job)
        self._retry_seq = 0
        self._jobs = {}            # key -> live job (coalescing index)
        # future -> (job, started_at, seq, kind); dict order is dispatch
        # order, and a hedged job has two entries.
        self._inflight = {}
        self._dispatch_seq = 0
        self._durations = []       # run times of completed jobs (hedge)
        self._pending = 0          # queued + retrying + in-flight
        self._closed = False
        self._drain = False
        self._thread = threading.Thread(
            target=self._run, name="job-scheduler", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Frontend API (any thread)

    @property
    def pending(self):
        """Accepted-but-unfinished jobs (queued + retrying + in-flight)."""
        with self._lock:
            return self._pending

    def submit(self, task, key=None):
        """Admit ``task``; returns its (possibly shared) :class:`Job`.

        ``key`` is the coalescing identity — normally the task's
        content-cache key.  If a live job with the same key is already
        accepted, no new work is created: the caller becomes one more
        waiter on that job (one DES run fans out to all of them).
        ``key=None`` disables coalescing for this submission.

        Raises
        ------
        QueueSaturated
            The bounded queue is full.  Carries ``retry_after_s``.
        CircuitOpen
            The breaker is open and no probe slot was available.
        RuntimeError
            The scheduler has been closed.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if key is not None:
                job = self._jobs.get(key)
                if job is not None:
                    job.waiters += 1
                    self.stats.coalesced += 1
                    return job
            if self._pending >= self.max_pending:
                self.stats.rejected_full += 1
                raise QueueSaturated(
                    f"job queue full ({self._pending}/{self.max_pending} "
                    "pending)",
                    retry_after_s=self._retry_after_estimate(),
                    label=self._label(task),
                )
            if self.breaker is not None and not self.breaker.allow():
                self.stats.rejected_open += 1
                raise CircuitOpen(
                    "worker-pool circuit breaker is open",
                    retry_after_s=max(1.0, self.breaker.retry_after_s()),
                    label=self._label(task),
                )
            job = Job(task, key)
            if key is not None:
                self._jobs[key] = job
            self._queue.append(job)
            self._pending += 1
            self.stats.accepted += 1
            self._nudge()
        return job

    def snapshot(self):
        """Structured queue state for ``/healthz``."""
        with self._lock:
            return {
                "workers": self.workers,
                "max_pending": self.max_pending,
                "pending": self._pending,
                "queued": len(self._queue),
                "retrying": len(self._retry),
                "inflight": len(self._inflight),
                "pool_active": self.pool.active,
                "pool_spawns": self.pool.spawns,
                "counters": self.stats.snapshot(),
            }

    def close(self, drain=False, timeout=30.0):
        """Stop the scheduler; returns True if it stopped cleanly.

        ``drain=True`` finishes every accepted job first (bounded by
        ``timeout`` seconds — ``repro serve --drain-timeout``); when
        the budget expires the drain is abandoned and the remaining
        jobs fail with a structured :class:`TaskError`, exactly like
        ``drain=False``.  ``False`` (default) fails queued / retrying /
        in-flight jobs immediately and kills the pool — shutdown is the
        one path allowed to interrupt accepted work, and it does so
        loudly, never silently.
        """
        with self._lock:
            self._closed = True
            self._drain = drain
            self._nudge()
        self._thread.join(timeout)
        drained = not self._thread.is_alive()
        if not drained:
            # Drain budget exhausted: flip to abort mode so the pump
            # fails leftovers loudly instead of waiting forever on a
            # wedged pool, then give it a moment to do so.
            with self._lock:
                self._drain = False
                self._nudge()
            self._thread.join(5.0)
        self.pool.close(kill=True)
        return drained

    # ------------------------------------------------------------------
    # Pump internals (scheduler thread only)

    def _nudge(self):
        """Wake the pump (lock held)."""
        if not self._kick.done():
            self._kick.set_result(None)

    def _label(self, task):
        label = getattr(task, "label", None)
        return label() if callable(label) else None

    def _retry_after_estimate(self):
        # Crude but honest: pending work divided by pool width, scaled
        # by the per-attempt budget (or a 1s floor when unbounded).
        per_job = self.timeout if self.timeout else 1.0
        return max(1.0, self._pending * per_job / self.workers)

    def _run(self):
        try:
            self._pump()
        finally:
            # Also reached if the pump itself fails: every accepted job
            # still turns terminal, so no waiter blocks forever.
            self._abort_remaining()

    def _pump(self):
        while True:
            with self._lock:
                if self._kick.done():
                    self._kick = Future()
                kick = self._kick
                now = time.perf_counter()
                while self._retry and self._retry[0][0] <= now:
                    _ready, _seq, job = heapq.heappop(self._retry)
                    self._queue.append(job)
                if self._closed and not self._drain:
                    return
                while self._queue and len(self._inflight) < self.workers:
                    job = self._queue.popleft()
                    kind = "retry" if job.attempts else "primary"
                    if not self._dispatch(job, kind):
                        self._queue.appendleft(job)
                        break
                due = [self._hedge_stragglers()]
                inflight = dict(self._inflight)
                done_draining = (self._closed and self._drain
                                 and not (inflight or self._queue
                                          or self._retry))
                if self._retry:
                    due.append(self._retry[0][0])
                if inflight and self.timeout is not None:
                    due.append(self.timeout + min(
                        attempt[1] for attempt in inflight.values()))
                if self._queue and len(inflight) < self.workers:
                    # The pool refused a dispatch: try again shortly.
                    due.append(now + self.poll_s)
            if done_draining:
                return
            due = [at for at in due if at is not None]
            wait_s = (max(0.0, min(due) - time.perf_counter())
                      if due else None)
            if not inflight:
                wait([kick], timeout=wait_s)
                continue
            self._pump_inflight(inflight, kick, wait_s)

    def _dispatch(self, job, kind):
        """Submit one attempt of ``job`` (lock held); False if the pool
        broke between completions — it respawns on the next submit."""
        try:
            future = self.pool.submit(run_task, job.task)
        except Exception:
            self.pool.close(kill=False)
            return False
        self._dispatch_seq += 1
        self._inflight[future] = (job, time.perf_counter(),
                                  self._dispatch_seq, kind)
        self.stats.dispatched += 1
        return True

    def _hedge_stragglers(self):
        """Duplicate long-running attempts onto spare workers (lock
        held): at most one hedge per job, and only into a free slot, so
        speculation never delays first-run work.  Returns when the next
        running attempt reaches the threshold, or ``None``."""
        if self.hedge is None or len(self._inflight) >= self.workers:
            return None
        threshold = self.hedge(self._durations, self.stats.accepted)
        if threshold is None:
            return None
        now = time.perf_counter()
        due = []
        for job, started_at, _seq, kind in list(self._inflight.values()):
            if len(self._inflight) >= self.workers:
                return None
            if kind == "hedge" or job.hedged:
                continue
            if now - started_at < threshold:
                due.append(started_at + threshold)
                continue
            job.hedged = True
            if not self._dispatch(job, "hedge"):
                break
            self.stats.hedges_launched += 1
        return min(due, default=None)

    def _pump_inflight(self, inflight, kick, wait_s):
        done, _pending = wait([*inflight, kick], timeout=wait_s,
                              return_when=FIRST_COMPLETED)
        done.discard(kick)
        now = time.perf_counter()
        casualties = {}  # job -> started_at, for a broken pool
        reap = False
        # Resolve in dispatch order, so when a primary and its hedge
        # land in the same wait batch the primary wins.
        for future in sorted(done, key=lambda f: inflight[f][2]):
            with self._lock:
                attempt = self._inflight.pop(future, None)
            if attempt is None:
                continue  # the loser of a race its sibling settled
            job, started_at, _seq, kind = attempt
            try:
                record = future.result()
            except BrokenProcessPool:
                casualties.setdefault(job, started_at)
                continue
            except Exception as raw:
                if job in casualties:
                    continue  # charged once, with the crash, below
                job.started_at = started_at
                error = wrap_failure(
                    raw, self._label(job.task), job.attempts + 1
                )
                reap |= self._attempt_failed(
                    job, error,
                    infra=isinstance(error, (WorkerCrash, TaskTimeout)),
                )
                continue
            job.started_at, job.winner = started_at, kind
            job.attempts += 1
            if self.hedge is not None:
                self._durations.append(now - started_at)
            if kind == "hedge":
                self.stats.hedges_won += 1
            reap |= self._job_done(job, record)
        if casualties:
            # Every sibling future died with the pool; the culprit is
            # indistinguishable, so each job with an attempt in flight
            # is charged one crash attempt and the pool respawns for
            # the rest.  Tracking is cleared first so a retryable
            # charge re-queues the job.
            with self._lock:
                for job, started_at, _seq, _kind in self._inflight.values():
                    casualties.setdefault(job, started_at)
                self._inflight.clear()
            for job, started_at in casualties.items():
                if job.done:
                    continue
                job.started_at = started_at
                self._attempt_failed(job, WorkerCrash(
                    "worker process died",
                    label=self._label(job.task),
                    attempts=job.attempts + 1,
                    cause="BrokenProcessPool",
                ), infra=True)
            self.pool.close(kill=False)
            return
        expired = {}
        if self.timeout is not None:
            now = time.perf_counter()
            with self._lock:
                for job, started_at, _seq, _kind in self._inflight.values():
                    if not job.done and now - started_at >= self.timeout:
                        expired.setdefault(job, started_at)
        if not (reap or expired):
            return
        # Killing a hung worker, or a settled race's still-running
        # loser, kills the whole pool; in-flight innocents are re-queued
        # without being charged an attempt.
        with self._lock:
            innocents = []
            for job, _at, _seq, _kind in self._inflight.values():
                if not (job.done or job in expired or job in innocents):
                    innocents.append(job)
            self._inflight.clear()
            self._queue.extendleft(reversed(innocents))
        self.pool.close(kill=True)
        for job, started_at in expired.items():
            job.started_at = started_at
            self._attempt_failed(job, TaskTimeout(
                f"no result after {self.timeout:.1f}s",
                label=self._label(job.task),
                attempts=job.attempts + 1,
                cause=f"timeout={self.timeout}",
            ), infra=True)

    def _attempt_failed(self, job, error, infra):
        """Charge one failed attempt; True if the job turned terminal
        with a sibling attempt still running (its worker must be
        reaped)."""
        job.attempts = error.attempts
        if isinstance(error, WorkerCrash):
            self.stats.crashes += 1
        elif isinstance(error, TaskTimeout):
            self.stats.timeouts += 1
        if infra and self.breaker is not None:
            self.breaker.record_failure()
        if error.retryable and job.attempts <= self.retries:
            with self._lock:
                if any(attempt[0] is job
                       for attempt in self._inflight.values()):
                    return False  # the running sibling is the retry
                delay = backoff_delay(job.attempts, self.backoff_s,
                                      self.backoff_cap_s, self.jitter,
                                      self._rng)
                heapq.heappush(
                    self._retry,
                    (time.perf_counter() + delay, self._retry_seq, job),
                )
                self._retry_seq += 1
            self.stats.retried += 1
            return False
        running = self._cancel_siblings(job)
        self._fail_job(job, error)
        return running

    def _job_done(self, job, record):
        """Finish ``job``; True if a sibling attempt is still running."""
        if self.breaker is not None:
            self.breaker.record_success()
        running = self._cancel_siblings(job)
        self._job_terminal(job)
        self.stats.completed += 1
        if self.on_result is not None:
            # Backfill callbacks run *before* waiters wake, so a waiter
            # that immediately re-queries the shared cache hits.
            try:
                self.on_result(job, record)
            except Exception as exc:
                warnings.warn(f"on_result callback raised: {exc!r}",
                              RuntimeWarning)
        job._finish(record)
        return running

    def _cancel_siblings(self, job):
        """Cancel a settled job's other in-flight attempts; True if one
        is already running (only killing its worker stops it)."""
        running = False
        with self._lock:
            for future, attempt in list(self._inflight.items()):
                if attempt[0] is not job:
                    continue
                self.stats.hedges_cancelled += 1
                if future.cancel() or future.done():
                    del self._inflight[future]
                else:
                    running = True
        return running

    def _fail_job(self, job, error):
        self._job_terminal(job)
        self.stats.failed += 1
        if self.on_failure is not None:
            try:
                self.on_failure(job, error)
            except Exception as exc:  # pragma: no cover - defensive
                warnings.warn(f"on_failure callback raised: {exc!r}",
                              RuntimeWarning)
        job._fail(error)

    def _job_terminal(self, job):
        with self._lock:
            if job.key is not None and self._jobs.get(job.key) is job:
                del self._jobs[job.key]
            self._pending -= 1

    def _abort_remaining(self):
        """Closed without drain: fail leftovers loudly, kill the pool."""
        with self._lock:
            leftovers = list(self._queue)
            self._queue.clear()
            leftovers.extend(job for _r, _s, job in self._retry)
            self._retry = []
            for job, _at, _seq, _kind in self._inflight.values():
                if not (job.done or job in leftovers):
                    leftovers.append(job)
            self._inflight.clear()
        for job in leftovers:
            self._fail_job(job, TaskError(
                "scheduler closed before the job finished",
                label=self._label(job.task),
                attempts=job.attempts,
                cause="shutdown",
            ))
        self.pool.close(kill=True)
