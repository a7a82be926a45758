"""HTTP frontend contract: structured JSON on every path.

Acceptance property under test: the server never returns an
unstructured 5xx — overload is 429 + ``Retry-After``, malformed input
is a 400 document, unknown paths are 404 documents, and good queries
answer from the tier ladder.  Protocol errors the stdlib raises are
JSON too, a keep-alive connection stays framed whatever a request's
route, and every response leaves in one write on a ``TCP_NODELAY``
socket.  All tests run against an ephemeral-port server with the DES
tier either untouched (``tier=model``) or faulted.
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.runtime import ResultCache, ServiceFaultInjector
from repro.runtime.service import (
    MAX_BODY_BYTES,
    PredictionRequestHandler,
    PredictionService,
    make_server,
)

pytestmark = pytest.mark.timeout(120)


@pytest.fixture
def server_stack(tmp_path):
    faults = ServiceFaultInjector()
    service = PredictionService(
        ResultCache(directory=tmp_path / "cache"),
        workers=1, default_deadline_s=60.0, faults=faults,
    )
    server = make_server(service)
    # A short poll interval keeps shutdown() at teardown quick.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    port = server.server_address[1]
    yield server, f"http://127.0.0.1:{port}", service, faults
    server.shutdown()
    server.server_close()
    service.close()


@pytest.fixture
def stack(server_stack):
    _server, base, service, faults = server_stack
    return base, service, faults


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


def connect(base):
    """One persistent HTTP/1.1 connection to the stack's server."""
    port = int(base.rsplit(":", 1)[1])
    return http.client.HTTPConnection("127.0.0.1", port, timeout=30)


def exchange(conn, method, path, document=None):
    """One request on ``conn``; returns (status, headers, raw body)."""
    body = None if document is None else json.dumps(document).encode()
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, response.headers, response.read()


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


class TestKeepAliveFraming:
    """Every answer leaves a keep-alive connection framed, and is JSON.

    All requests of a test share one ``http.client`` connection, as a
    load balancer or a closed-loop client would.
    """

    def test_unrouted_body_is_read_before_the_next_request(self, stack):
        base, _service, _faults = stack
        conn = connect(base)
        try:
            status, _headers, body = exchange(conn, "POST", "/nope",
                                              {"padding": "x" * 64})
            assert status == 404
            assert json.loads(body)["error"]["kind"] == "not_found"
            status, _headers, body = exchange(conn, "POST", "/predict",
                                              MODEL_QUERY)
            assert status == 200
            assert json.loads(body)["tier"] == 0
        finally:
            conn.close()

    def test_get_with_a_body_stays_framed(self, stack):
        base, _service, _faults = stack
        conn = connect(base)
        try:
            status, _headers, _body = exchange(conn, "GET", "/healthz",
                                               {"ignored": True})
            assert status == 200
            status, _headers, _body = exchange(conn, "GET", "/healthz")
            assert status == 200
        finally:
            conn.close()

    @pytest.mark.parametrize("method", ["PUT", "DELETE"])
    def test_unsupported_method_is_json(self, stack, method):
        base, _service, _faults = stack
        conn = connect(base)
        try:
            status, headers, body = exchange(conn, method, "/predict")
        finally:
            conn.close()
        assert status == 501
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        error = json.loads(body)["error"]
        assert error["kind"] == "not_implemented"
        assert method in error["message"]

    def test_head_gets_json_headers_and_no_body(self, stack):
        base, _service, _faults = stack
        conn = connect(base)
        try:
            status, headers, body = exchange(conn, "HEAD", "/predict")
        finally:
            conn.close()
        assert status == 501
        assert headers["Content-Type"] == "application/json"
        assert int(headers["Content-Length"]) > 0
        assert body == b""

    @pytest.mark.parametrize("header, value, status, kind", [
        ("Transfer-Encoding", "chunked", 411, "length_required"),
        ("Content-Length", "-1", 400, "bad_request"),
        ("Content-Length", "ten", 400, "bad_request"),
        ("Content-Length", str(MAX_BODY_BYTES + 1), 413, None),
    ])
    def test_unframeable_body_is_answered_and_closes(self, stack, header,
                                                     value, status, kind):
        base, _service, _faults = stack
        conn = connect(base)
        try:
            # Headers only: the server must answer without a body.
            conn.putrequest("POST", "/predict")
            conn.putheader(header, value)
            conn.endheaders()
            response = conn.getresponse()
            document = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == status
        assert response.headers["Connection"] == "close"
        assert response.will_close
        if kind is not None:
            assert document["error"]["kind"] == kind

    @pytest.mark.parametrize("request_head, status", [
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /healthz HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101
         + b"\r\n", 431),
        (b"GET /a b HTTP/1.1\r\n\r\n", 400),
    ])
    def test_stdlib_protocol_errors_are_json(self, stack, request_head,
                                             status):
        base, _service, _faults = stack
        port = int(base.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=30) as sock:
            sock.sendall(request_head)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].split()[1] == str(status)
        assert "Content-Type: application/json" in lines
        assert "Connection: close" in lines
        assert f"Content-Length: {len(body)}" in lines
        assert json.loads(body)["error"]["message"]


class _CountingHandler(PredictionRequestHandler):
    """Records each connection's ``TCP_NODELAY`` and every socket write.

    Writes are logged *before* they reach the socket, so once a client
    holds a whole response, every write of it is already logged.
    """

    def setup(self):
        super().setup()
        server = self.server
        server.nodelay.append(self.connection.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY))
        write = self.wfile.write

        def logged(data):
            server.writes.append(bytes(data))
            return write(data)

        self.wfile.write = logged


class TestWritePath:
    """One socket write per response, on a ``TCP_NODELAY`` socket.

    A head and a body in two writes on a Nagle socket wait for the
    client's delayed ACK; this pins the cause, not a wall-clock bound.
    """

    def test_one_write_per_response_with_nodelay(self, server_stack):
        server, base, _service, faults = server_stack
        server.RequestHandlerClass = _CountingHandler
        server.nodelay, server.writes = [], []
        conn = connect(base)
        try:
            statuses = [
                exchange(conn, "POST", "/predict", MODEL_QUERY)[0],
                exchange(conn, "POST", "/predict",
                         {**MODEL_QUERY, "bogus": 1})[0],
                exchange(conn, "POST", "/nope", {})[0],
            ]
            faults.arm("queue_full", 1)
            statuses.append(exchange(
                conn, "POST", "/predict",
                {"dataset": "products", "k": 8, "max_vertices": 1024},
            )[0])
            statuses.append(exchange(conn, "GET", "/healthz")[0])
        finally:
            conn.close()
        assert statuses == [200, 400, 404, 429, 200]
        assert len(server.nodelay) == 1  # one keep-alive connection
        assert server.nodelay[0] != 0
        assert len(server.writes) == len(statuses)
        assert all(w.startswith(b"HTTP/1.1 ") for w in server.writes)


class _QuickTimeoutHandler(PredictionRequestHandler):
    timeout = 0.2


class TestStalledClients:
    """A client that stops sending cannot hold a server thread."""

    def test_stalled_body_is_408_and_closes(self, server_stack):
        server, base, _service, _faults = server_stack
        server.RequestHandlerClass = _QuickTimeoutHandler
        port = int(base.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 10\r\n\r\n{}")
            started = time.monotonic()
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
            closed_after = time.monotonic() - started
        assert closed_after < 1.0
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].split()[1] == "408"
        assert "Connection: close" in lines
        assert "Content-Type: application/json" in lines
        assert json.loads(body)["error"]["kind"] == "request_timeout"

    def test_keep_alive_sequence_is_unaffected(self, server_stack):
        server, base, _service, _faults = server_stack
        server.RequestHandlerClass = _QuickTimeoutHandler
        port = int(base.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=5) as stalled:
            stalled.sendall(b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                            b"Content-Length: 10\r\n\r\n{}")
            conn = connect(base)
            try:
                statuses = [
                    exchange(conn, "POST", "/predict", MODEL_QUERY)[0]
                    for _ in range(3)
                ] + [exchange(conn, "GET", "/healthz")[0]]
            finally:
                conn.close()
        assert statuses == [200, 200, 200, 200]


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
