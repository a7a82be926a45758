"""Prediction service tier ladder and graceful degradation.

The contract under test: every accepted request resolves to a cached
answer, a DES answer, or a tier-0 model answer flagged
``model_fallback`` — overload (429) is the *only* failure surfaced to
clients, and only before acceptance.  Worker crashes, timeouts, open
breakers, and corrupt caches all degrade, never error.

Most tests drive :meth:`PredictionService.predict_task` with
:class:`FaultyTask` so no DES runs; the query-document path
(:meth:`predict`) is covered by fast ``tier="model"`` and cpu/gpu
queries plus the HTTP suite.
"""

import threading
import time

import pytest

from repro.runtime import (
    CircuitBreaker,
    FaultyTask,
    QueueSaturated,
    ResultCache,
    ServiceFaultInjector,
    cache_key,
)
from repro.runtime.service import PredictionService, parse_query

pytestmark = pytest.mark.timeout(120)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(directory=tmp_path / "cache")


def make_service(cache=None, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("default_deadline_s", 60.0)
    return PredictionService(cache, **kwargs)


def task_for(tmp_path, name, plan=("ok",), hang_s=3600.0):
    return FaultyTask(name=name, scratch=str(tmp_path / "scratch"),
                      plan=tuple(plan), hang_s=hang_s)


def wait_for_backfill(cache, key, timeout=60.0):
    """Block until the scheduler backfills ``key`` into the cache."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cache.get(key) is not None:
            return
        time.sleep(0.02)
    raise AssertionError(f"cache entry {key} never backfilled")


class TestParseQuery:
    def test_minimal(self):
        query = parse_query({"dataset": "products", "k": 64})
        assert query["embedding_dim"] == 64
        assert query["platform"] == "piuma"
        assert query["tier"] == "auto"

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown query field"):
            parse_query({"dataset": "products", "k": 8, "bogus": 1})

    def test_rejects_missing_dataset_or_k(self):
        with pytest.raises(ValueError, match="dataset"):
            parse_query({"k": 8})
        with pytest.raises(ValueError, match="embedding dimension"):
            parse_query({"dataset": "products"})

    def test_rejects_both_k_spellings(self):
        with pytest.raises(ValueError, match="not both"):
            parse_query({"dataset": "products", "k": 8,
                         "embedding_dim": 8})

    def test_rejects_bad_platform_tier_and_values(self):
        with pytest.raises(ValueError, match="platform"):
            parse_query({"dataset": "products", "k": 8,
                         "platform": "tpu"})
        with pytest.raises(ValueError, match="tier"):
            parse_query({"dataset": "products", "k": 8, "tier": "turbo"})
        with pytest.raises(ValueError):
            parse_query({"dataset": "products", "k": 0})
        with pytest.raises(ValueError):
            parse_query({"dataset": "products", "k": 8,
                         "deadline_s": -1})

    def test_degradation_preset_and_severity(self):
        query = parse_query({"dataset": "products", "k": 8,
                             "degradation": "moderate"})
        assert query["degradation"] is not None
        query = parse_query({"dataset": "products", "k": 8,
                             "degradation": {"severity": 0.5}})
        assert query["degradation"] is not None
        with pytest.raises(ValueError, match="preset"):
            parse_query({"dataset": "products", "k": 8,
                         "degradation": "catastrophic"})


class TestTierLadder:
    def test_tier2_then_tier1(self, tmp_path, cache):
        service = make_service(cache)
        try:
            task = task_for(tmp_path, "ladder")
            first = service.predict_task(task)
            assert first["tier"] == 2
            assert first["source"] == "simulation"
            assert first["degraded"] is None
            second = service.predict_task(task)
            assert second["tier"] == 1
            assert second["source"] == "simulation"
            assert task.attempts_made() == 1
        finally:
            service.close()

    def test_tier_model_never_schedules(self, tmp_path, cache):
        service = make_service(cache)
        try:
            task = task_for(tmp_path, "pure0")
            answer = service.predict_task(task, tier="model")
            assert answer["tier"] == 0
            assert answer["source"] == "model"
            assert task.attempts_made() == 0
            assert service.scheduler.stats.accepted == 0
        finally:
            service.close()

    def test_no_cache_still_serves(self, tmp_path):
        service = make_service(cache=None)
        try:
            task = task_for(tmp_path, "nocache")
            assert service.predict_task(task)["tier"] == 2
            # No tier 1 without a cache: runs again.
            assert service.predict_task(task)["tier"] == 2
            assert task.attempts_made() == 2
        finally:
            service.close()

    def test_fallback_answers_are_never_cached(self, tmp_path, cache):
        service = make_service(cache, retries=0)
        try:
            task = task_for(tmp_path, "nf", plan=("crash",))
            answer = service.predict_task(task)
            assert answer["source"] == "model_fallback"
            assert len(cache) == 0
        finally:
            service.close()


class TestCoalescing:
    def test_n_clients_one_execution(self, tmp_path, cache):
        service = make_service(cache)
        try:
            slow = task_for(tmp_path, "fanin", plan=("hang",), hang_s=0.8)
            barrier = threading.Barrier(6)
            answers = []

            def client():
                barrier.wait(timeout=30)
                answers.append(service.predict_task(slow))

            threads = [threading.Thread(target=client) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert len(answers) == 6
            assert {a["tier"] for a in answers} <= {1, 2}
            assert all(a["source"] == "simulation" for a in answers)
            # The acceptance criterion: exactly one DES execution.
            assert slow.attempts_made() == 1
        finally:
            service.close()


class TestGracefulDegradation:
    def test_deadline_expiry_returns_model_fallback_then_backfills(
        self, tmp_path, cache
    ):
        service = make_service(cache)
        try:
            slow = task_for(tmp_path, "dl", plan=("hang",), hang_s=0.6)
            answer = service.predict_task(slow, deadline_s=0.05)
            assert answer["tier"] == 0
            assert answer["source"] == "model_fallback"
            assert answer["degraded"] == "deadline"
            assert answer["pending"] is True
            # The run was not cancelled: it completes and backfills,
            # so the retry is a cache hit with the *simulated* record.
            key = cache.key_for(slow.key_payload())
            wait_for_backfill(cache, key)
            retry = service.predict_task(slow)
            assert retry["tier"] == 1
            assert retry["source"] == "simulation"
        finally:
            service.close()

    def test_terminal_failure_degrades_with_error_payload(
        self, tmp_path, cache
    ):
        service = make_service(cache, retries=0)
        try:
            task = task_for(tmp_path, "tf", plan=("crash",))
            answer = service.predict_task(task)
            assert answer["tier"] == 0
            assert answer["source"] == "model_fallback"
            assert answer["degraded"] == "failed:crash"
            assert answer["record"]["error"]["kind"] == "crash"
        finally:
            service.close()

    def test_crash_burst_trips_breaker_then_recovers(self, tmp_path, cache):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=10.0,
                                 clock=lambda: clock[0])
        faults = ServiceFaultInjector()
        service = make_service(cache, breaker=breaker, faults=faults,
                               retries=0)
        try:
            faults.arm("worker_crash_burst", 2)
            for i in range(2):
                answer = service.predict_task(task_for(tmp_path, f"b{i}"))
                assert answer["degraded"] == "failed:crash"
            assert faults.fired("worker_crash_burst") == 2
            assert breaker.state == "open"
            # While open: instant tier-0 degradation, no scheduling.
            accepted_before = service.scheduler.stats.accepted
            blocked = service.predict_task(task_for(tmp_path, "blocked"))
            assert blocked["degraded"] == "circuit_open"
            assert blocked["source"] == "model_fallback"
            assert blocked["retry_after_s"] > 0
            assert service.scheduler.stats.accepted == accepted_before
            # Cooldown elapses; the half-open probe succeeds (the burst
            # is exhausted) and the breaker closes.
            clock[0] += 11.0
            probe = service.predict_task(task_for(tmp_path, "probe"))
            assert probe["tier"] == 2
            assert probe["source"] == "simulation"
            assert breaker.state == "closed"
        finally:
            service.close()


class TestAdmissionControl:
    def test_saturation_raises_429_material(self, tmp_path, cache):
        service = make_service(cache, workers=1, max_pending=2)
        try:
            slow = [task_for(tmp_path, f"q{i}", plan=("hang",), hang_s=0.5)
                    for i in range(3)]
            pending = []
            for task in slow[:2]:
                pending.append((task, service.predict_task(task,
                                                           deadline_s=0.0)))
            with pytest.raises(QueueSaturated) as excinfo:
                service.predict_task(slow[2])
            assert excinfo.value.retry_after_s >= 1.0
            # Accepted requests are never dropped: both pending jobs
            # finish and backfill even though their waiters left.
            for task, answer in pending:
                assert answer["pending"] is True
                key = cache.key_for(task.key_payload())
                wait_for_backfill(cache, key)
                assert cache.get(key)["source"] == "simulation"
        finally:
            service.close()

    def test_injected_queue_full_fault(self, tmp_path, cache):
        faults = ServiceFaultInjector()
        service = make_service(cache, faults=faults)
        try:
            faults.arm("queue_full", 1)
            with pytest.raises(QueueSaturated):
                service.predict_task(task_for(tmp_path, "inj"))
            # One-shot: the next identical request is served normally.
            answer = service.predict_task(task_for(tmp_path, "inj"))
            assert answer["source"] == "simulation"
            assert faults.fired("queue_full") == 1
        finally:
            service.close()


class TestQueryPath:
    def test_model_tier_piuma_query(self, cache):
        service = make_service(cache)
        try:
            answer = service.predict({"dataset": "products", "k": 8,
                                      "max_vertices": 1024,
                                      "tier": "model"})
            assert answer["tier"] == 0
            assert answer["source"] == "model"
            assert answer["record"]["gflops"] > 0
        finally:
            service.close()

    def test_degraded_model_answer_is_derated(self, cache):
        service = make_service(cache)
        try:
            healthy = service.predict({"dataset": "products", "k": 8,
                                       "max_vertices": 1024,
                                       "tier": "model"})
            degraded = service.predict({"dataset": "products", "k": 8,
                                        "max_vertices": 1024,
                                        "tier": "model",
                                        "degradation": "severe"})
            assert (degraded["record"]["gflops"]
                    < healthy["record"]["gflops"])
        finally:
            service.close()

    @pytest.mark.parametrize("platform", ["cpu", "gpu"])
    def test_platform_queries_are_tier0(self, cache, platform):
        service = make_service(cache)
        try:
            answer = service.predict({"dataset": "products", "k": 8,
                                      "max_vertices": 1024,
                                      "platform": platform})
            assert answer["tier"] == 0
            assert answer["platform"] == platform
            assert answer["record"]["gflops"] > 0
            assert answer["record"]["bound"]
        finally:
            service.close()

    def test_bad_query_counts_and_raises(self, cache):
        service = make_service(cache)
        try:
            with pytest.raises(ValueError):
                service.predict({"dataset": "products"})
            assert service.counters["bad_requests"] == 1
        finally:
            service.close()


class TestTier0Memory:
    """Tier 0 reads a window's |V| and |E| and keeps no graph.

    A server answering ever-new windows analytically would otherwise
    hold one CSR per window in the process's graph memo.
    """

    def test_unseen_windows_leave_the_graph_memo_alone(self, cache):
        from repro.graphs.datasets import get_dataset
        from repro.runtime import runner

        memo = dict(runner._GRAPH_MEMO)
        service = make_service(cache)
        try:
            for seed in range(917_000, 917_020):
                window = {"dataset": "arxiv", "k": 16,
                          "max_vertices": 512, "seed": seed}
                adj = get_dataset("arxiv").materialize(max_vertices=512,
                                                       seed=seed)
                for extra in ({"tier": "model"}, {"platform": "cpu"},
                              {"platform": "gpu"}):
                    answer = service.predict({**window, **extra})
                    assert answer["tier"] == 0
                    assert answer["record"]["n_vertices"] == adj.n_rows
                    assert answer["record"]["n_edges"] == adj.nnz
        finally:
            service.close()
        assert runner._GRAPH_MEMO == memo

    def test_memoized_window_is_reused(self, cache, monkeypatch):
        from repro.graphs.datasets import DatasetSpec, get_dataset
        from repro.runtime import runner

        adj = get_dataset("arxiv").materialize(max_vertices=384,
                                               seed=918_000)
        monkeypatch.setitem(runner._GRAPH_MEMO, ("arxiv", 384, 918_000), adj)

        def refuse(*_args, **_kwargs):
            raise AssertionError("memoized window built again")

        monkeypatch.setattr(DatasetSpec, "materialize", refuse)
        service = make_service(cache)
        try:
            answer = service.predict(
                {"dataset": "arxiv", "k": 16, "max_vertices": 384,
                 "seed": 918_000, "tier": "model"}
            )
        finally:
            service.close()
        assert answer["record"]["n_vertices"] == adj.n_rows
        assert answer["record"]["n_edges"] == adj.nnz

    def test_shape_memo_is_bounded(self):
        from repro.runtime.runner import _window_shape

        maxsize = _window_shape.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 100_000


class TestHealthz:
    def test_structure_and_counters(self, tmp_path, cache):
        service = make_service(cache)
        try:
            service.predict_task(task_for(tmp_path, "h"))
            service.predict_task(task_for(tmp_path, "h"))
            health = service.healthz()
            assert health["status"] == "ok"
            assert health["breaker"]["state"] == "closed"
            assert health["scheduler"]["counters"]["completed"] == 1
            assert health["counters"]["tier2"] == 1
            assert health["counters"]["tier1"] == 1
            assert health["cache"]["entries"] == 1
            assert health["fault_injections"]["queue_full"] == \
                {"armed": 0, "fired": 0}
            assert health["quarantined_cache_entries"] == 0
        finally:
            service.close()

    def test_status_degraded_while_breaker_open(self, tmp_path, cache):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=300.0)
        service = make_service(cache, breaker=breaker, retries=0)
        try:
            service.predict_task(task_for(tmp_path, "sick",
                                          plan=("crash",)))
            assert service.healthz()["status"] == "degraded"
        finally:
            service.close()


class TestCrashSafeRestart:
    def test_restart_against_corrupted_cache_dir(self, tmp_path, cache):
        """A SIGKILL'd service leaves a possibly-truncated cache; a new
        service over the same directory must quarantine, re-simulate,
        and keep serving — never fail a request on a corrupt entry."""
        service = make_service(cache)
        task = task_for(tmp_path, "surv")
        service.predict_task(task)
        service.close()
        # Simulate the kill: truncate the entry mid-file.
        key = cache.key_for(task.key_payload())
        path = cache.directory / f"{key}.json"
        path.write_text(path.read_text()[: path.stat().st_size // 2])

        fresh_cache = ResultCache(directory=cache.directory)
        restarted = make_service(fresh_cache)
        try:
            with pytest.warns(RuntimeWarning, match="quarantined"):
                answer = restarted.predict_task(task)
            # The corrupt entry degraded to a miss -> re-simulated.
            assert answer["tier"] == 2
            assert answer["source"] == "simulation"
            assert fresh_cache.stats.corrupt == 1
            assert fresh_cache.quarantined() == 1
            # And the backfilled entry serves the next hit.
            assert restarted.predict_task(task)["tier"] == 1
        finally:
            restarted.close()
