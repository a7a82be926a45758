"""Fault-injection suite: every resilience path of ``run_sweep``.

Uses :class:`repro.runtime.faults.FaultyTask` — workers that crash,
hang, raise, or diverge on a deterministic per-attempt schedule — to
prove the acceptance properties: injected crash/hang/exception each
leave the sweep completing with submission-ordered records, fallback
points carry Eq.5 provenance, and divergence is never retried.
"""

import multiprocessing

import pytest

from repro.runtime import (
    FaultyTask,
    ResultCache,
    TaskTimeout,
    WorkerCrash,
    run_sweep,
    spmm_task,
)

#: No backoff: retries are immediate, keeping the suite fast while the
#: schedule stays exact (attempt counters live on disk).
FAST = dict(backoff_s=0.0, jitter=0.0)


@pytest.fixture()
def make_task(tmp_path):
    scratch = str(tmp_path / "scratch")

    def _make(name, plan=("ok",), **kwargs):
        return FaultyTask(name=name, scratch=scratch, plan=tuple(plan),
                          **kwargs)

    return _make


class TestCrashRespawn:
    def test_crash_respawns_pool_and_completes_in_order(self, make_task):
        tasks = [make_task("a", ("crash", "ok")),
                 make_task("b"),
                 make_task("c")]
        report = run_sweep(tasks, workers=2, retries=2, **FAST)
        assert [r["name"] for r in report.records] == ["a", "b", "c"]
        assert all(r["source"] == "simulation" for r in report.records)
        assert not report.failures

    def test_crash_exhausted_raises_worker_crash(self, make_task):
        tasks = [make_task("a", ("crash",)), make_task("b")]
        with pytest.raises(WorkerCrash):
            run_sweep(tasks, workers=2, retries=1, **FAST)


class TestTimeouts:
    def test_hang_times_out_then_retry_succeeds(self, make_task):
        tasks = [make_task("h", ("hang", "ok"), hang_s=30.0),
                 make_task("b")]
        report = run_sweep(tasks, workers=2, timeout=1.5, retries=1, **FAST)
        assert report.records[0]["name"] == "h"
        assert report.records[0]["attempt"] == 2
        assert report.records[1]["source"] == "simulation"

    def test_hang_exhausted_raises_timeout(self, make_task):
        tasks = [make_task("h", ("hang",), hang_s=30.0), make_task("b")]
        with pytest.raises(TaskTimeout):
            run_sweep(tasks, workers=2, timeout=1.0, retries=0, **FAST)


class TestExceptionRetry:
    def test_raise_then_retry_then_success_parallel(self, make_task):
        tasks = [make_task("r", ("raise", "raise", "ok")), make_task("b")]
        report = run_sweep(tasks, workers=2, retries=2, **FAST)
        assert report.records[0]["attempt"] == 3
        assert not report.failures

    def test_raise_then_retry_then_success_inline(self, make_task):
        report = run_sweep([make_task("r", ("raise", "ok"))],
                           workers=1, retries=1, **FAST)
        assert report.records[0]["attempt"] == 2

    def test_default_policy_raises_with_context(self, make_task):
        task = make_task("r", ("raise",))
        with pytest.raises(Exception) as err:
            run_sweep([task, make_task("b")], workers=2, retries=0, **FAST)
        assert err.value.label == "fault:r"
        assert err.value.attempts == 1


class TestPolicies:
    def test_skip_keeps_order_and_records_structured_failure(self, make_task):
        tasks = [make_task("a"), make_task("bad", ("raise",)),
                 make_task("c")]
        report = run_sweep(tasks, workers=2, retries=0, on_error="skip",
                           **FAST)
        assert report.records[0]["name"] == "a"
        failed = report.records[1]
        assert failed["source"] == "failed"
        assert failed["error"]["kind"] == "error"
        assert failed["error"]["label"] == "fault:bad"
        assert failed["error"]["attempts"] == 1
        assert report.records[2]["name"] == "c"
        assert len(report.failures) == 1
        assert "degraded" in report.summary()

    def test_fallback_uses_task_fallback_record(self, make_task):
        tasks = [make_task("bad", ("raise",)), make_task("b")]
        report = run_sweep(tasks, workers=2, retries=0,
                           on_error="fallback", **FAST)
        assert report.records[0]["source"] == "model_fallback"
        assert report.records[0]["error"]["kind"] == "error"
        assert report.records[1]["source"] == "simulation"

    def test_divergence_is_never_retried(self, make_task):
        task = make_task("d", ("diverge", "ok"))
        report = run_sweep([task], workers=1, retries=5, on_error="skip",
                           **FAST)
        assert report.records[0]["source"] == "failed"
        assert report.records[0]["error"]["kind"] == "diverged"
        assert task.attempts_made() == 1

    def test_invalid_policy_rejected(self, make_task):
        with pytest.raises(ValueError):
            run_sweep([make_task("a")], workers=1, on_error="ignore")


class TestSpMMFallbackProvenance:
    """Acceptance: a diverging DES point degrades to valid Eq.5 numbers."""

    DIVERGING = dict(max_vertices=512, seed=0, window_edges=512,
                     n_cores=1, max_events=16)

    def test_fallback_record_carries_eq5_numbers(self):
        task = spmm_task("products", 8, **self.DIVERGING)
        report = run_sweep([task], workers=1, on_error="fallback")
        record = report.records[0]
        assert record["source"] == "model_fallback"
        assert record["error"]["kind"] == "diverged"
        assert record["gflops"] > 0
        assert record["model_time_ns"] > 0
        assert record["gflops"] == record["model_gflops"]
        assert record["efficiency"] == 1.0
        # The DES never produced numbers for this point.
        assert record["sim_time_ns"] == 0.0

    def test_fallback_records_are_not_cached(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        task = spmm_task("products", 8, **self.DIVERGING)
        run_sweep([task], workers=1, cache=cache, on_error="fallback")
        rerun = run_sweep([task], workers=1, cache=cache,
                          on_error="fallback")
        assert rerun.cache_hits == 0
        assert rerun.records[0]["source"] == "model_fallback"


class TestFaultHarness:
    def test_plan_validation(self, tmp_path):
        with pytest.raises(ValueError):
            FaultyTask(name="x", scratch=str(tmp_path), plan=("explode",))

    def test_attempt_counter_spans_processes(self, make_task):
        task = make_task("counted", ("raise", "raise", "ok"))
        run_sweep([task, make_task("b")], workers=2, retries=2, **FAST)
        assert task.attempts_made() == 3


def _claim_attempts(scratch, trials, barrier, results):
    """Race the other process into ``_record_attempt`` once per trial."""
    for trial in range(trials):
        barrier.wait(timeout=60)
        task = FaultyTask(name=f"race{trial}", scratch=scratch)
        results.put((trial, task._record_attempt()))


class TestAttemptMarkers:
    def test_concurrent_attempts_claim_distinct_numbers(self, tmp_path):
        """Two processes released together from a barrier into the
        marker writer always come out as attempts 1 and 2 — the
        count-then-create race never hands both the same number."""
        trials = 100
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        results = context.Queue()
        workers = [
            context.Process(
                target=_claim_attempts,
                args=(str(tmp_path), trials, barrier, results),
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        try:
            claimed = {trial: [] for trial in range(trials)}
            for _ in range(2 * trials):
                trial, attempt = results.get(timeout=60)
                claimed[trial].append(attempt)
        finally:
            for worker in workers:
                worker.join(timeout=60)
        assert all(w.exitcode == 0 for w in workers)
        bad = [t for t, a in claimed.items() if sorted(a) != [1, 2]]
        assert not bad, (f"{len(bad)}/{trials} trials collided, e.g. "
                         f"trial {bad[0]}: {claimed[bad[0]]}")


class TestServiceFaultInjector:
    def test_unknown_point_rejected(self):
        from repro.runtime import ServiceFaultInjector

        injector = ServiceFaultInjector()
        with pytest.raises(ValueError, match="unknown fault point"):
            injector.arm("cosmic_rays", 1)
        with pytest.raises(ValueError):
            injector.arm("queue_full", -1)

    def test_count_armed_points_consume_exactly(self):
        from repro.runtime import ServiceFaultInjector

        injector = ServiceFaultInjector()
        injector.arm("queue_full", 2)
        assert injector.queue_full()
        assert injector.queue_full()
        assert not injector.queue_full()
        assert injector.fired("queue_full") == 2

    def test_disarm_with_zero(self):
        from repro.runtime import ServiceFaultInjector

        injector = ServiceFaultInjector()
        injector.arm("queue_full", 5)
        injector.arm("queue_full", 0)
        assert not injector.queue_full()
        assert injector.fired("queue_full") == 0

    def test_sabotage_wraps_identity_transparently(self, make_task):
        from repro.runtime import CrashTask, ServiceFaultInjector

        injector = ServiceFaultInjector()
        victim = make_task("victim")
        assert injector.sabotage(victim) is victim
        injector.arm("worker_crash_burst", 1)
        wrapped = injector.sabotage(victim)
        assert isinstance(wrapped, CrashTask)
        assert wrapped.key_payload() == victim.key_payload()
        assert wrapped.fallback_record() == victim.fallback_record()
        assert "crash-burst" in wrapped.label()
        # Burst exhausted: back to passing tasks through untouched.
        assert injector.sabotage(victim) is victim

    def test_cache_delay_disarmed_is_free(self):
        import time

        from repro.runtime import ServiceFaultInjector

        injector = ServiceFaultInjector()
        started = time.perf_counter()
        assert injector.cache_delay() == 0
        assert time.perf_counter() - started < 0.05
        injector.arm("slow_cache_io", 0.05)
        assert injector.cache_delay() == pytest.approx(0.05)
        assert injector.fired("slow_cache_io") == 1
