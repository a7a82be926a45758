"""HTTP frontend contract: structured JSON on every path.

Acceptance property under test: the server never returns an
unstructured 5xx — overload is 429 + ``Retry-After``, malformed input
is a 400 document, unknown paths are 404 documents, and good queries
answer from the tier ladder.  All tests run against an ephemeral-port
server with the DES tier either untouched (``tier=model``) or faulted.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.runtime import ResultCache, ServiceFaultInjector
from repro.runtime.service import PredictionService, make_server

pytestmark = pytest.mark.timeout(120)


@pytest.fixture
def stack(tmp_path):
    faults = ServiceFaultInjector()
    service = PredictionService(
        ResultCache(directory=tmp_path / "cache"),
        workers=1, default_deadline_s=60.0, faults=faults,
    )
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    yield f"http://127.0.0.1:{port}", service, faults
    server.shutdown()
    server.server_close()
    service.close()


def get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, dict(response.headers), json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.load(error)


def post(url, document):
    body = (document if isinstance(document, bytes)
            else json.dumps(document).encode("utf-8"))
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.load(error)


MODEL_QUERY = {"dataset": "products", "k": 8, "max_vertices": 1024,
               "tier": "model"}


class TestPredict:
    def test_post_model_tier(self, stack):
        base, _service, _faults = stack
        status, _headers, doc = post(f"{base}/predict", MODEL_QUERY)
        assert status == 200
        assert doc["tier"] == 0
        assert doc["source"] == "model"
        assert doc["record"]["gflops"] > 0

    def test_get_flat_params(self, stack):
        base, _service, _faults = stack
        status, _headers, doc = get(
            f"{base}/predict?dataset=products&k=8&max_vertices=1024"
            "&tier=model"
        )
        assert status == 200
        assert doc["tier"] == 0

    def test_get_with_json_degradation_param(self, stack):
        base, _service, _faults = stack
        status, _headers, doc = get(
            f"{base}/predict?dataset=products&k=8&max_vertices=1024"
            "&tier=model&degradation=severe"
        )
        assert status == 200
        assert doc["record"]["degradation"]["seed"] is not None

    def test_platform_gpu(self, stack):
        base, _service, _faults = stack
        status, _headers, doc = post(
            f"{base}/predict",
            {"dataset": "products", "k": 8, "max_vertices": 1024,
             "platform": "gpu"},
        )
        assert status == 200
        assert doc["platform"] == "gpu"
        assert doc["tier"] == 0


class TestStructuredErrors:
    def test_unknown_field_is_400(self, stack):
        base, _service, _faults = stack
        status, _headers, doc = post(
            f"{base}/predict", {"dataset": "products", "k": 8, "bogus": 1}
        )
        assert status == 400
        assert doc["error"]["kind"] == "bad_request"
        assert "bogus" in doc["error"]["message"]

    def test_scheduler_field_is_400(self, stack):
        """The event-queue backend is no longer a query knob."""
        base, _service, _faults = stack
        status, _headers, doc = post(
            f"{base}/predict",
            {**MODEL_QUERY, "scheduler": "heap"},
        )
        assert status == 400
        assert doc["error"]["kind"] == "bad_request"
        assert doc["error"]["message"] == "unknown query field(s): scheduler"

    def test_invalid_body_is_400(self, stack):
        base, _service, _faults = stack
        status, _headers, doc = post(f"{base}/predict", b"{not json")
        assert status == 400
        assert doc["error"]["kind"] == "bad_request"

    def test_unknown_dataset_is_400(self, stack):
        base, _service, _faults = stack
        status, _headers, doc = post(
            f"{base}/predict", {"dataset": "reddit", "k": 8,
                                "tier": "model"}
        )
        assert status == 400

    def test_unknown_path_is_404(self, stack):
        base, _service, _faults = stack
        for status, _headers, doc in (get(f"{base}/nope"),
                                      post(f"{base}/nope", {})):
            assert status == 404
            assert doc["error"]["kind"] == "not_found"
            assert "/predict" in doc["error"]["endpoints"]

    def test_saturation_is_429_with_retry_after(self, stack):
        base, _service, faults = stack
        faults.arm("queue_full", 1)
        status, headers, doc = post(
            f"{base}/predict",
            {"dataset": "products", "k": 8, "max_vertices": 1024},
        )
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert doc["error"]["kind"] == "saturated"
        assert doc["error"]["retry_after_s"] >= 1.0


class TestHealthz:
    def test_health_document(self, stack):
        base, _service, _faults = stack
        post(f"{base}/predict", MODEL_QUERY)
        status, _headers, doc = get(f"{base}/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["breaker"]["state"] == "closed"
        assert doc["scheduler"]["max_pending"] == 32
        assert doc["counters"]["requests"] >= 1
        assert doc["cache"]["enabled"] is True

    def test_rejections_visible_in_health(self, stack):
        base, _service, faults = stack
        faults.arm("queue_full", 1)
        post(f"{base}/predict",
             {"dataset": "products", "k": 8, "max_vertices": 1024})
        _status, _headers, doc = get(f"{base}/healthz")
        assert doc["counters"]["rejected"] == 1
        assert doc["fault_injections"]["queue_full"]["fired"] == 1
        assert doc["fault_injections"]["queue_full"]["armed"] == 0

    def test_armed_faults_visible_before_firing(self, stack):
        """An operator must see armed-but-unfired injections: the gap
        between ``armed`` and ``fired`` is the chaos still pending."""
        base, _service, faults = stack
        faults.arm("queue_full", 3)
        faults.arm("worker_crash_burst", 2)
        _status, _headers, doc = get(f"{base}/healthz")
        injections = doc["fault_injections"]
        assert injections["queue_full"] == {"armed": 3, "fired": 0}
        assert injections["worker_crash_burst"] == {"armed": 2,
                                                    "fired": 0}
        assert injections["slow_cache_io"]["armed"] == 0

    def test_quarantined_cache_entries_visible(self, stack):
        """A corrupt cache entry quarantined on read shows up in the
        health document (cache-integrity early-warning signal)."""
        base, service, _faults = stack
        _status, _headers, doc = get(f"{base}/healthz")
        assert doc["quarantined_cache_entries"] == 0
        key = service.cache.key_for({"probe": 1})
        service.cache.put(key, {"source": "simulation", "gflops": 1.0},
                          payload={"probe": 1})
        path = service.cache._path(key)
        path.write_text("{torn json")
        assert service.cache.get(key) is None  # quarantines
        _status, _headers, doc = get(f"{base}/healthz")
        assert doc["quarantined_cache_entries"] == 1
        assert doc["status"] == "ok"


class TestGracefulShutdown:
    def test_sigterm_drains_in_flight_jobs(self, tmp_path):
        """A termination signal stops the accept loop, finishes the
        in-flight tier-2 job, and closes cleanly — the submitted work
        is never dropped."""
        from repro.runtime.service import GracefulShutdown
        from repro.runtime.runner import spmm_task

        service = PredictionService(
            ResultCache(directory=tmp_path / "cache"),
            workers=1, default_deadline_s=60.0,
        )
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        shutdown = GracefulShutdown(server, service, drain_timeout_s=60.0)
        try:
            task = spmm_task("products", 4, max_vertices=512, seed=3)
            key = service.cache.key_for(task.key_payload())
            job = service.scheduler.submit(task, key=key)
            shutdown.trigger(None, None)  # as the signal handler would
            assert shutdown.requested.is_set()
            thread.join(30.0)
            assert not thread.is_alive()  # accept loop exited
            assert shutdown.drain() is True
            assert job.wait(0.0)
            assert job.error is None
            assert job.record["source"] == "simulation"
            counters = service.scheduler.stats.snapshot()
            assert counters["accepted"] == counters["completed"]
        finally:
            server.server_close()
            service.close()

    def test_trigger_is_idempotent(self, tmp_path):
        from repro.runtime.service import GracefulShutdown

        service = PredictionService(None, workers=1)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        shutdown = GracefulShutdown(server, service, drain_timeout_s=5.0)
        try:
            import signal

            shutdown.trigger(signal.SIGTERM, None)
            shutdown.trigger(signal.SIGTERM, None)  # second is a no-op
            assert shutdown.signal_name == "SIGTERM"
            thread.join(30.0)
            assert not thread.is_alive()
            assert shutdown.drain() is True
        finally:
            server.server_close()
            service.close()

    def test_install_and_uninstall_restore_handlers(self, tmp_path):
        import signal

        from repro.runtime.service import GracefulShutdown

        service = PredictionService(None, workers=1)
        server = make_server(service)
        before = signal.getsignal(signal.SIGTERM)
        shutdown = GracefulShutdown(server, service).install()
        try:
            assert signal.getsignal(signal.SIGTERM) == shutdown.trigger
        finally:
            shutdown.uninstall()
            server.server_close()
            service.close()
        assert signal.getsignal(signal.SIGTERM) == before
