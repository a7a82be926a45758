"""Online job scheduler: admission, coalescing, retries, breaker feed.

Uses :class:`FaultyTask` throughout — cheap, picklable, and scripted —
so every path (success, crash, hang, saturation) runs in real worker
processes without touching the simulator.
"""

import sys
import threading
import time

import pytest

from repro.runtime import (
    CircuitBreaker,
    FaultyTask,
    JobScheduler,
    QueueSaturated,
    TaskError,
    WorkerCrash,
    cache_key,
)

pytestmark = pytest.mark.timeout(120)


def task_for(tmp_path, name, plan=("ok",), hang_s=3600.0):
    return FaultyTask(name=name, scratch=str(tmp_path), plan=tuple(plan),
                      hang_s=hang_s)


def key_of(task):
    return cache_key(task.key_payload())


class TestBasics:
    def test_submit_and_result(self, tmp_path):
        scheduler = JobScheduler(workers=1)
        try:
            job = scheduler.submit(task_for(tmp_path, "a"))
            record = job.result(timeout=60)
            assert record["source"] == "simulation"
            assert scheduler.stats.completed == 1
        finally:
            scheduler.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            JobScheduler(max_pending=0)
        with pytest.raises(ValueError):
            JobScheduler(retries=-1)

    def test_submit_after_close_refused(self, tmp_path):
        scheduler = JobScheduler(workers=1)
        scheduler.close()
        with pytest.raises(RuntimeError):
            scheduler.submit(task_for(tmp_path, "late"))

    def test_close_fails_pending_jobs_loudly(self, tmp_path):
        scheduler = JobScheduler(workers=1)
        slow = task_for(tmp_path, "slow", plan=("hang",), hang_s=30.0)
        job = scheduler.submit(slow)
        scheduler.close(drain=False)
        assert job.done
        with pytest.raises(TaskError):
            job.result()

    def test_close_reports_aborted_jobs_to_on_failure(self, tmp_path):
        # Shutdown is a terminal outcome like any other: a caller that
        # tracks its jobs through on_failure sees it too.
        failed = []
        scheduler = JobScheduler(
            workers=1, on_failure=lambda job, error: failed.append(error))
        scheduler.submit(task_for(tmp_path, "slow", plan=("hang",),
                                  hang_s=30.0))
        scheduler.close(drain=False)
        assert [error.cause for error in failed] == ["shutdown"]

    def test_close_drain_finishes_accepted_work(self, tmp_path):
        scheduler = JobScheduler(workers=1)
        jobs = [scheduler.submit(task_for(tmp_path, f"d{i}"))
                for i in range(3)]
        scheduler.close(drain=True, timeout=60)
        assert all(job.record is not None for job in jobs)

    def test_pump_wakes_on_events_not_polls(self, tmp_path):
        # With a poll interval far beyond the test, a job submitted
        # while another runs must still dispatch to the free worker at
        # once, and the running job must still time out on its own
        # deadline.
        scheduler = JobScheduler(workers=2, timeout=5.0, poll_s=3600.0)
        try:
            hung = scheduler.submit(task_for(tmp_path, "hung",
                                             plan=("hang",)))
            while scheduler.snapshot()["inflight"] == 0:
                time.sleep(0.01)
            quick = scheduler.submit(task_for(tmp_path, "quick"))
            assert quick.result(timeout=60)["source"] == "simulation"
            assert not hung.done
            with pytest.raises(TaskError) as excinfo:
                hung.result(timeout=60)
            assert excinfo.value.kind == "timeout"
        finally:
            scheduler.close()

    def test_concurrent_submits_never_lose_a_wakeup(self, tmp_path):
        # The pump sleeps until woken, so a lost wake-up would strand a
        # queued job, or keep the pump alive past close(): submit from
        # many threads at a tiny switch interval and require every job
        # to finish and the pump to stop at once.
        interval = sys.getswitchinterval()
        scheduler = JobScheduler(workers=2, poll_s=3600.0)
        barrier = threading.Barrier(8)
        jobs = []

        def client(i):
            barrier.wait()
            for j in range(4):
                jobs.append(scheduler.submit(task_for(tmp_path, f"c{i}.{j}")))
                time.sleep(0.002 * (i % 3))

        try:
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            sys.setswitchinterval(interval)
            assert len(jobs) == 32
            for job in jobs:
                assert job.result(timeout=30)["source"] == "simulation"
            assert scheduler.close(timeout=10)
        finally:
            sys.setswitchinterval(interval)
            scheduler.close()


class TestCoalescing:
    def test_same_key_shares_one_job(self, tmp_path):
        scheduler = JobScheduler(workers=1)
        try:
            slow = task_for(tmp_path, "co", plan=("hang",), hang_s=1.0)
            key = key_of(slow)
            first = scheduler.submit(slow, key=key)
            second = scheduler.submit(slow, key=key)
            assert second is first
            assert first.waiters == 2
            assert scheduler.stats.coalesced == 1
            assert first.result(timeout=60)["source"] == "simulation"
            assert slow.attempts_made() == 1
        finally:
            scheduler.close()

    def test_key_none_never_coalesces(self, tmp_path):
        scheduler = JobScheduler(workers=2)
        try:
            task = task_for(tmp_path, "nc")
            a = scheduler.submit(task, key=None)
            b = scheduler.submit(task, key=None)
            assert a is not b
            a.result(timeout=60)
            b.result(timeout=60)
            assert task.attempts_made() == 2
        finally:
            scheduler.close()

    def test_finished_key_starts_a_fresh_job(self, tmp_path):
        scheduler = JobScheduler(workers=1)
        try:
            task = task_for(tmp_path, "re")
            key = key_of(task)
            scheduler.submit(task, key=key).result(timeout=60)
            again = scheduler.submit(task, key=key)
            again.result(timeout=60)
            assert task.attempts_made() == 2
        finally:
            scheduler.close()


class TestAdmission:
    def test_saturation_raises_with_retry_after(self, tmp_path):
        scheduler = JobScheduler(workers=1, max_pending=2)
        try:
            slow = [task_for(tmp_path, f"s{i}", plan=("hang",), hang_s=0.5)
                    for i in range(3)]
            accepted = [scheduler.submit(t, key=key_of(t)) for t in slow[:2]]
            with pytest.raises(QueueSaturated) as excinfo:
                scheduler.submit(slow[2], key=key_of(slow[2]))
            assert excinfo.value.retry_after_s >= 1.0
            assert excinfo.value.kind == "saturated"
            assert scheduler.stats.rejected_full == 1
            # The accepted requests are never dropped.
            for job in accepted:
                assert job.result(timeout=60)["source"] == "simulation"
        finally:
            scheduler.close()

    def test_coalescing_bypasses_a_full_queue(self, tmp_path):
        # A duplicate of an in-flight config adds no work, so it is
        # admitted even at the pending bound.
        scheduler = JobScheduler(workers=1, max_pending=1)
        try:
            slow = task_for(tmp_path, "dup", plan=("hang",), hang_s=0.5)
            key = key_of(slow)
            first = scheduler.submit(slow, key=key)
            second = scheduler.submit(slow, key=key)
            assert second is first
            first.result(timeout=60)
        finally:
            scheduler.close()


class TestFailures:
    def test_crash_then_retry_succeeds(self, tmp_path):
        scheduler = JobScheduler(workers=1, retries=1, backoff_s=0.01)
        try:
            task = task_for(tmp_path, "cr", plan=("crash", "ok"))
            record = scheduler.submit(task, key=key_of(task)).result(timeout=60)
            assert record["source"] == "simulation"
            assert scheduler.stats.crashes == 1
            assert scheduler.stats.retried == 1
        finally:
            scheduler.close()

    def test_crash_without_retries_is_terminal(self, tmp_path):
        scheduler = JobScheduler(workers=1, retries=0)
        try:
            task = task_for(tmp_path, "dead", plan=("crash",))
            job = scheduler.submit(task, key=key_of(task))
            with pytest.raises(WorkerCrash):
                job.result(timeout=60)
            assert scheduler.stats.failed == 1
        finally:
            scheduler.close()

    def test_timeout_kills_and_charges_the_hung_job(self, tmp_path):
        scheduler = JobScheduler(workers=1, timeout=0.5, retries=0,
                                 poll_s=0.02)
        try:
            task = task_for(tmp_path, "hung", plan=("hang",), hang_s=60.0)
            job = scheduler.submit(task, key=key_of(task))
            with pytest.raises(TaskError) as excinfo:
                job.result(timeout=60)
            assert excinfo.value.kind == "timeout"
            assert scheduler.stats.timeouts == 1
        finally:
            scheduler.close()

    def test_deterministic_failure_does_not_feed_breaker(self, tmp_path):
        breaker = CircuitBreaker(failure_threshold=1)
        scheduler = JobScheduler(workers=1, breaker=breaker)
        try:
            task = task_for(tmp_path, "div", plan=("diverge",))
            job = scheduler.submit(task, key=key_of(task))
            with pytest.raises(TaskError):
                job.result(timeout=60)
            # A diverged simulation says nothing about pool health.
            assert breaker.state == "closed"
            assert breaker.failures == 0
        finally:
            scheduler.close()

    def test_crashes_feed_and_trip_the_breaker(self, tmp_path):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=300.0)
        scheduler = JobScheduler(workers=1, breaker=breaker, retries=0)
        try:
            for i in range(2):
                task = task_for(tmp_path, f"burst{i}", plan=("crash",))
                job = scheduler.submit(task, key=key_of(task))
                job.wait(60)
            assert breaker.state == "open"
            from repro.runtime import CircuitOpen

            with pytest.raises(CircuitOpen) as excinfo:
                scheduler.submit(task_for(tmp_path, "refused"))
            assert excinfo.value.retry_after_s >= 1.0
            assert scheduler.stats.rejected_open == 1
        finally:
            scheduler.close()


class TestHedging:
    def test_hedge_beats_a_straggler_and_the_loser_is_reaped(self,
                                                              tmp_path):
        scheduler = JobScheduler(workers=2, hedge=lambda durations,
                                 accepted: 0.2)
        try:
            task = task_for(tmp_path, "slow", plan=("hang", "ok"),
                            hang_s=60.0)
            job = scheduler.submit(task)
            record = job.result(timeout=60)
            assert record["attempt"] == 2
            assert (job.winner, job.hedged, job.attempts) == \
                ("hedge", True, 1)
            stats = scheduler.stats
            assert (stats.hedges_launched, stats.hedges_won,
                    stats.hedges_cancelled) == (1, 1, 1)
            # The hung primary could only be stopped by killing its
            # worker: the next job runs on a respawned pool.
            assert scheduler.submit(task_for(tmp_path, "next")).result(
                timeout=60)["source"] == "simulation"
            assert scheduler.pool.spawns == 2
        finally:
            scheduler.close()

    def test_no_policy_no_hedges(self, tmp_path):
        scheduler = JobScheduler(workers=2)
        try:
            task = task_for(tmp_path, "calm", plan=("hang", "ok"),
                            hang_s=0.3)
            job = scheduler.submit(task)
            assert job.result(timeout=60)["attempt"] == 1
            assert job.winner == "primary" and not job.hedged
            assert scheduler.stats.hedges_launched == 0
        finally:
            scheduler.close()


class TestCallbacksAndSnapshot:
    def test_on_result_runs_before_waiters_wake(self, tmp_path):
        landed = []
        seen_at_wake = []

        def on_result(job, record):
            landed.append(job.key)

        scheduler = JobScheduler(workers=1, on_result=on_result)
        try:
            task = task_for(tmp_path, "cb")
            job = scheduler.submit(task, key=key_of(task))

            def waiter():
                job.wait(60)
                seen_at_wake.append(list(landed))

            thread = threading.Thread(target=waiter)
            thread.start()
            thread.join(60)
            assert seen_at_wake == [[job.key]]
        finally:
            scheduler.close()

    def test_callback_exception_does_not_kill_the_pump(self, tmp_path):
        def explode(job, record):
            raise RuntimeError("bookkeeping bug")

        scheduler = JobScheduler(workers=1, on_result=explode)
        try:
            with pytest.warns(RuntimeWarning, match="bookkeeping bug"):
                first = scheduler.submit(task_for(tmp_path, "x1"))
                assert first.result(timeout=60)["source"] == "simulation"
            # The pump survived and runs the next job.
            with pytest.warns(RuntimeWarning):
                second = scheduler.submit(task_for(tmp_path, "x2"))
                assert second.result(timeout=60)["source"] == "simulation"
        finally:
            scheduler.close()

    def test_snapshot_shape(self, tmp_path):
        scheduler = JobScheduler(workers=2, max_pending=5)
        try:
            scheduler.submit(task_for(tmp_path, "snap")).result(timeout=60)
            snap = scheduler.snapshot()
            assert snap["workers"] == 2
            assert snap["max_pending"] == 5
            assert snap["pending"] == 0
            assert snap["counters"]["accepted"] == 1
            assert snap["counters"]["completed"] == 1
        finally:
            scheduler.close()
