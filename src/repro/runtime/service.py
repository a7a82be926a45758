"""Tiered prediction service: simulate once, serve millions.

The paper's deliverable is a *model* of SpMM/GCN scaling on PIUMA; the
natural production shape of that model is a long-running service that
answers "predicted time for (graph, K, platform, degradation)" at
interactive latency.  Queries over the configuration space are hugely
redundant, which a tier ladder exploits:

* **tier 0 — analytical** (microseconds): the Equation 5 PIUMA model
  (bandwidth-derated under a degraded fabric), or the CPU / GPU
  analytical models for ``platform=cpu|gpu``.  Always available; never
  queued.  Records are flagged ``"source": "model"``.
* **tier 1 — shared cache** (sub-millisecond): the content-addressed
  :class:`~repro.runtime.cache.ResultCache` the batch sweeps already
  populate.  Keys are the same SHA-256 content hashes, so a figure
  sweep run yesterday serves an interactive query today.
* **tier 2 — simulation** (seconds): a DES run scheduled through the
  :class:`~repro.runtime.jobs.JobScheduler` worker pool; the result
  backfills the cache *before* waiters wake, so every later identical
  query is a tier-1 hit.

The robustness layer is the point — an always-on frontend only works
because every overload and failure mode has a structured, bounded
outcome:

* **admission control** — the scheduler's queue is bounded; beyond it
  :meth:`PredictionService.predict` raises
  :class:`~repro.runtime.errors.QueueSaturated` (HTTP 429 with
  ``Retry-After``).  Accepted work is never dropped.
* **coalescing** — identical configs in flight share one DES run; all
  waiters fan in on the same :class:`~repro.runtime.jobs.Job`.
* **deadlines with graceful degradation** — a tier-2 answer that
  misses its deadline degrades to the tier-0 answer flagged
  ``"source": "model_fallback"`` (``"degraded": "deadline"``,
  ``"pending": true``); the simulation keeps running and backfills.
* **circuit breaking** — consecutive worker crashes / timeouts trip a
  :class:`~repro.runtime.breaker.CircuitBreaker`; while open, tier 2
  is refused in O(1) and requests degrade to tier 0
  (``"degraded": "circuit_open"``).  Half-open probes recover it.
  Structured state lives in ``/healthz``.
* **crash-safe shared cache** — entries are atomic per-key files;
  corrupt/truncated entries quarantine to ``*.corrupt`` instead of
  poisoning readers, and a ``max_bytes`` LRU budget keeps the
  directory bounded (see :mod:`repro.runtime.cache`).

The HTTP frontend is a stdlib ``ThreadingHTTPServer`` speaking JSON —
``POST /predict`` (full query document), ``GET /predict?...`` (flat
parameters), ``GET /healthz`` — so ``repro serve`` needs no
dependencies the container lacks.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
import warnings
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro.runtime.breaker import CLOSED, CircuitBreaker
from repro.runtime.cache import ResultCache, cache_key
from repro.runtime.errors import CircuitOpen, QueueSaturated
from repro.runtime.faults import ServiceFaultInjector
from repro.runtime.jobs import JobScheduler
from repro.runtime.runner import SpMMTask, _window_shape, spmm_task

#: Platforms a query may target; only PIUMA has a DES (tiers 1-2).
PLATFORMS = ("piuma", "cpu", "gpu")

#: Query tiers: ``auto`` climbs the ladder, ``model`` stops at tier 0.
TIER_MODES = ("auto", "model")


def resolve_degradation(value):
    """Query-document degradation -> :class:`DegradationSpec` or ``None``.

    Accepts a preset name (``"moderate"``), a ``{"severity": f,
    "seed": i}`` document, or a full spec field document.  Unlike the
    CLI's ``--degrade``, file paths are *not* accepted — a network
    query must not read the server's filesystem.
    """
    if value is None:
        return None
    from repro.piuma import DEGRADATION_PRESETS
    from repro.piuma.degradation import DegradationSpec

    if isinstance(value, DegradationSpec):
        return value
    if isinstance(value, str):
        preset = DEGRADATION_PRESETS.get(value)
        if preset is None:
            raise ValueError(
                f"unknown degradation preset {value!r}; expected one of "
                f"{', '.join(sorted(DEGRADATION_PRESETS))}"
            )
        return preset
    if isinstance(value, dict):
        if "severity" in value:
            return DegradationSpec.at_severity(
                float(value["severity"]), seed=int(value.get("seed", 0))
            )
        return DegradationSpec.from_json(value)
    raise ValueError(
        f"degradation must be a preset name or a spec document, "
        f"got {type(value).__name__}"
    )


def parse_query(data):
    """Validate a query document into canonical fields.

    Raises ``ValueError`` on anything malformed — the HTTP layer maps
    that to a structured 400, never a stack trace.
    """
    if not isinstance(data, dict):
        raise ValueError("query must be a JSON object")
    known = {
        "dataset", "embedding_dim", "k", "kernel", "platform",
        "max_vertices", "seed", "window_edges", "overrides",
        "degradation", "tier", "deadline_s",
    }
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown query field(s): {', '.join(sorted(unknown))}")
    dataset = data.get("dataset")
    if not dataset or not isinstance(dataset, str):
        raise ValueError("query needs a 'dataset' name")
    if "embedding_dim" in data and "k" in data:
        raise ValueError("give either 'embedding_dim' or 'k', not both")
    k = data.get("embedding_dim", data.get("k"))
    if k is None:
        raise ValueError("query needs an embedding dimension "
                         "('embedding_dim' or 'k')")
    platform = data.get("platform", "piuma")
    if platform not in PLATFORMS:
        raise ValueError(f"platform must be one of {PLATFORMS}, "
                         f"got {platform!r}")
    tier = data.get("tier", "auto")
    if tier not in TIER_MODES:
        raise ValueError(f"tier must be one of {TIER_MODES}, got {tier!r}")
    overrides = data.get("overrides") or {}
    if not isinstance(overrides, dict):
        raise ValueError("'overrides' must be an object of "
                         "PIUMAConfig fields")
    deadline_s = data.get("deadline_s")
    try:
        query = {
            "dataset": dataset,
            "embedding_dim": int(k),
            "kernel": data.get("kernel", "dma"),
            "platform": platform,
            "max_vertices": int(data.get("max_vertices", 16384)),
            "seed": int(data.get("seed", 0)),
            "window_edges": (None if data.get("window_edges") is None
                             else int(data["window_edges"])),
            "overrides": overrides,
            "degradation": resolve_degradation(data.get("degradation")),
            "tier": tier,
            "deadline_s": None if deadline_s is None else float(deadline_s),
        }
    except (TypeError, ValueError) as error:
        raise ValueError(f"malformed query field: {error}")
    if query["embedding_dim"] < 1:
        raise ValueError("embedding dimension must be >= 1")
    if query["max_vertices"] < 1:
        raise ValueError("max_vertices must be >= 1")
    if query["deadline_s"] is not None and query["deadline_s"] < 0:
        raise ValueError("deadline_s must be non-negative")
    return query


def task_from_query(query):
    """Build the canonical :class:`SpMMTask` for a PIUMA query."""
    task = spmm_task(
        query["dataset"], query["embedding_dim"], kernel=query["kernel"],
        max_vertices=query["max_vertices"], seed=query["seed"],
        window_edges=query["window_edges"], **query["overrides"],
    )
    if query["degradation"] is not None:
        task = task.with_config(degradation=query["degradation"])
    return task


class PredictionService:
    """In-process tier-ladder frontend over the job scheduler.

    Parameters
    ----------
    cache:
        Shared :class:`~repro.runtime.cache.ResultCache` (tier 1 and
        tier-2 backfill); ``None`` disables both, leaving tiers 0/2.
    workers / max_pending / retries / task_timeout_s:
        Tier-2 scheduler shape (see :class:`JobScheduler`): pool width,
        admission bound, per-attempt retry budget and wall-clock cap.
    default_deadline_s:
        How long :meth:`predict` waits for a tier-2 result before
        degrading to tier 0 (per-query ``deadline_s`` overrides; 0
        means "schedule and answer immediately from the model").
    breaker:
        :class:`CircuitBreaker` guarding the pool (default: trip after
        5 consecutive crash/timeout attempts, 30 s cooldown).
    faults:
        :class:`ServiceFaultInjector` consulted at the tier seams
        (tests); the default injector is permanently disarmed.
    """

    def __init__(self, cache=None, *, workers=2, max_pending=32,
                 retries=0, task_timeout_s=None, default_deadline_s=30.0,
                 breaker=None, faults=None):
        self.cache = cache
        self.faults = faults or ServiceFaultInjector()
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=5, reset_timeout_s=30.0
        )
        self.default_deadline_s = default_deadline_s
        self.scheduler = JobScheduler(
            workers=workers, timeout=task_timeout_s, retries=retries,
            max_pending=max_pending, breaker=self.breaker,
            on_result=self._backfill,
        )
        self.started_at = time.time()
        self._lock = threading.Lock()
        self.counters = {
            "requests": 0, "tier0": 0, "tier1": 0, "tier2": 0,
            "degraded": 0, "rejected": 0, "bad_requests": 0,
        }
        self._backfill_warned = False

    # ------------------------------------------------------------------
    # Tier plumbing

    def _count(self, name, n=1):
        with self._lock:
            self.counters[name] += n

    def _backfill(self, job, record):
        """Scheduler callback: completed DES records land in the cache.

        Runs before waiters wake, so a deadline-expired client that
        retries the same query gets a tier-1 hit.  Only genuine
        simulation records are cached (the same rule as the batch
        runner: degraded answers must be recomputed, not memoized).
        """
        if self.cache is None or job.key is None:
            return
        if record.get("source") != "simulation":
            return
        self.faults.cache_delay()
        try:
            self.cache.put(job.key, record,
                           payload=job.task.key_payload())
        except OSError as error:
            if not self._backfill_warned:
                self._backfill_warned = True
                warnings.warn(
                    f"service cache backfill failed ({error}); "
                    "continuing without persisting records",
                    RuntimeWarning,
                )

    def _tier0_record(self, task, error=None, source="model"):
        """Analytical answer for ``task`` (the tier-0 floor).

        Reuses the task's ``fallback_record`` schema; for a degraded
        PIUMA fabric the Equation 5 numbers are re-evaluated at the
        derated effective bandwidth (the same rule ``repro resilience``
        applies), so tier-0 answers track the hardware the query asked
        about.
        """
        record = dict(task.fallback_record(error))
        record["source"] = source
        if isinstance(task, SpMMTask):
            config = task.config()
            if config.degradation is not None:
                from repro.piuma import effective_total_bandwidth, spmm_model

                bandwidth = effective_total_bandwidth(config)
                model = spmm_model(
                    record["n_vertices"], record["n_edges"],
                    task.embedding_dim, config,
                    read_bandwidth=bandwidth, write_bandwidth=bandwidth,
                )
                record.update(
                    gflops=float(model.gflops),
                    projected_time_ns=float(model.time_ns),
                    model_gflops=float(model.gflops),
                    model_time_ns=float(model.time_ns),
                )
        return record

    def _respond(self, tier, record, key, started, *, degraded=None,
                 pending=False, platform="piuma", extra=None):
        if degraded is not None:
            self._count("degraded")
        self._count(f"tier{tier}")
        response = {
            "tier": tier,
            "source": record.get("source"),
            "platform": platform,
            "key": key,
            "pending": pending,
            "degraded": degraded,
            "latency_ms": (time.perf_counter() - started) * 1e3,
            "record": record,
        }
        if extra:
            response.update(extra)
        return response

    # ------------------------------------------------------------------
    # Public API

    def predict(self, data):
        """Answer one query document (see :func:`parse_query`).

        Raises ``ValueError`` for malformed queries and
        :class:`QueueSaturated` when tier 2 is required but the queue
        is full; every other path returns a structured answer.
        """
        self._count("requests")
        try:
            query = parse_query(data)
        except ValueError:
            self._count("bad_requests")
            raise
        started = time.perf_counter()
        if query["platform"] != "piuma":
            record = self._platform_record(query)
            return self._respond(0, record, None, started,
                                 platform=query["platform"])
        task = task_from_query(query)
        return self.predict_task(
            task, tier=query["tier"], deadline_s=query["deadline_s"],
            _started=started, _counted=True,
        )

    def predict_task(self, task, *, key=None, tier="auto",
                     deadline_s=None, _started=None, _counted=False):
        """Tier ladder for one runner-protocol task.

        The in-process equivalent of ``POST /predict`` for callers that
        already hold a task object (benchmarks, tests, batch tooling).
        """
        if not _counted:
            self._count("requests")
        started = time.perf_counter() if _started is None else _started
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        if key is None:
            payload = task.key_payload()
            key = (self.cache.key_for(payload) if self.cache is not None
                   else cache_key(payload))
        if tier == "model":
            return self._respond(0, self._tier0_record(task), key, started)
        # --- tier 1: shared content-addressed cache -------------------
        if self.cache is not None:
            self.faults.cache_delay()
            record = self.cache.get(key)
            if record is not None:
                return self._respond(1, record, key, started)
        # --- tier 2: schedule a DES run -------------------------------
        if self.faults.queue_full():
            self._count("rejected")
            raise QueueSaturated(
                "job queue full (injected fault)", retry_after_s=1.0,
                label=self._task_label(task),
            )
        try:
            job = self.scheduler.submit(self.faults.sabotage(task), key=key)
        except QueueSaturated:
            self._count("rejected")
            raise
        except CircuitOpen as error:
            # Graceful degradation, not an error: the model answers
            # while the pool heals.
            return self._respond(
                0, self._tier0_record(task, source="model_fallback"),
                key, started, degraded="circuit_open",
                extra={"retry_after_s": error.retry_after_s},
            )
        if job.wait(deadline_s):
            if job.error is None:
                return self._respond(2, job.record, key, started)
            # Terminal failure (crash/timeout budget exhausted, or a
            # deterministic divergence): still a structured answer.
            record = self._tier0_record(task, error=job.error,
                                        source="model_fallback")
            return self._respond(
                0, record, key, started,
                degraded=f"failed:{job.error.kind}",
            )
        # Deadline expired; the job keeps running and will backfill the
        # cache, so an identical retry upgrades to tier 1.
        record = self._tier0_record(task, source="model_fallback")
        return self._respond(0, record, key, started,
                             degraded="deadline", pending=True)

    def _task_label(self, task):
        label = getattr(task, "label", None)
        return label() if callable(label) else None

    def _platform_record(self, query):
        """Tier-0 CPU / GPU analytical answer (no DES exists for them)."""
        from repro.graphs.datasets import get_dataset

        n_vertices, n_edges = _window_shape(
            query["dataset"], query["max_vertices"], query["seed"]
        )
        k = query["embedding_dim"]
        if query["platform"] == "cpu":
            from repro.cpu.config import XeonConfig
            from repro.cpu.spmm import spmm_time

            cores = query["overrides"].get("n_cores")
            estimate = spmm_time(n_vertices, n_edges, k, XeonConfig(),
                                 n_cores=cores)
            bound = estimate.bound
        else:
            from repro.gpu.config import A100Config
            from repro.gpu.kernels import spmm_time

            locality = get_dataset(query["dataset"]).locality
            estimate = spmm_time(n_vertices, n_edges, k, A100Config(),
                                 locality=locality)
            bound = estimate.bound
        return {
            "n_vertices": n_vertices,
            "n_edges": n_edges,
            "embedding_dim": int(k),
            "kernel": "spmm",
            "platform": query["platform"],
            "gflops": float(estimate.gflops),
            "projected_time_ns": float(estimate.time_ns),
            "model_gflops": float(estimate.gflops),
            "model_time_ns": float(estimate.time_ns),
            "bound": bound,
            "sim_time_ns": 0.0,
            "source": "model",
        }

    def healthz(self):
        """Structured liveness/health document (``GET /healthz``)."""
        breaker = self.breaker.snapshot()
        with self._lock:
            counters = dict(self.counters)
        cache_info = None
        if self.cache is not None:
            cache_info = {
                "enabled": self.cache.enabled,
                "directory": str(self.cache.directory),
                "entries": len(self.cache),
                "bytes": self.cache.total_bytes(),
                "max_bytes": self.cache.max_bytes,
                "quarantined": self.cache.quarantined(),
                "stats": {
                    "hits": self.cache.stats.hits,
                    "misses": self.cache.stats.misses,
                    "writes": self.cache.stats.writes,
                    "corrupt": self.cache.stats.corrupt,
                    "evictions": self.cache.stats.evictions,
                },
            }
        armed = self.faults.armed()
        return {
            "status": "ok" if breaker["state"] == CLOSED else "degraded",
            "uptime_s": time.time() - self.started_at,
            "counters": counters,
            "breaker": breaker,
            "scheduler": self.scheduler.snapshot(),
            "cache": cache_info,
            # Observability for chaos runs: quarantined cache entries
            # (also under "cache") plus, per fault point, both the
            # still-armed value and the lifetime injection count.
            "quarantined_cache_entries": (
                self.cache.quarantined() if self.cache is not None else 0
            ),
            "fault_injections": {
                point: {"armed": armed.get(point, 0),
                        "fired": self.faults.fired(point)}
                for point in ("queue_full", "worker_crash_burst",
                              "slow_cache_io")
            },
        }

    def close(self, drain=False, timeout=30.0):
        """Stop the tier-2 scheduler; returns True on a clean stop.

        ``drain=True`` lets accepted jobs finish (bounded by
        ``timeout`` seconds); see :meth:`JobScheduler.close`.
        """
        return self.scheduler.close(drain=drain, timeout=timeout)


# ----------------------------------------------------------------------
# HTTP frontend (stdlib only)

#: GET /predict parameters parsed as typed scalars; everything else
#: arrives as a string and is coerced by parse_query.
_GET_INT_PARAMS = ("embedding_dim", "k", "max_vertices", "seed",
                   "window_edges")
_GET_FLOAT_PARAMS = ("deadline_s",)

#: Largest request body the frontend reads; a query document is a few
#: hundred bytes.
MAX_BODY_BYTES = 1 << 20


def _query_from_params(params):
    """Flat ``GET /predict`` parameters -> query document."""
    query = {}
    for name, value in params:
        if name in _GET_INT_PARAMS:
            query[name] = int(value)
        elif name in _GET_FLOAT_PARAMS:
            query[name] = float(value)
        elif name in ("overrides", "degradation"):
            # Structured values ride as JSON inside the parameter;
            # plain strings (preset names) pass through.
            try:
                query[name] = json.loads(value)
            except ValueError:
                query[name] = value
        else:
            query[name] = value
    return query


class PredictionHTTPServer(ThreadingHTTPServer):
    """Threaded JSON frontend bound to one :class:`PredictionService`."""

    daemon_threads = True

    def __init__(self, address, service, out=None):
        self.service = service
        self.out = out
        super().__init__(address, PredictionRequestHandler)


class PredictionRequestHandler(BaseHTTPRequestHandler):
    """``POST /predict`` / ``GET /predict`` / ``GET /healthz``.

    Every response is JSON with an accurate ``Content-Length``; the
    contract of the service is that *no* accepted request produces an
    unstructured 5xx — overload is 429 + ``Retry-After``, bad input is
    400 with an error document, and anything unforeseen is a structured
    500 (the never-expected last resort).  The stdlib's own protocol
    errors (unsupported method, malformed request line, over-long URI,
    too many headers, unsupported HTTP version) are JSON documents too.

    Each response leaves in one socket write, and accepted sockets set
    ``TCP_NODELAY``: a head and a body written separately on a Nagle
    socket hold the body until the client's delayed ACK, ~40 ms on
    Linux.  A request's declared body is read before routing, so no
    answer leaves unread bytes on a keep-alive connection; a body that
    cannot be framed is answered and closes the connection.

    Every socket read times out after :attr:`timeout` seconds.  A body
    that stalls part-way is answered 408 and closes the connection,
    and a keep-alive connection idle that long is closed, so a
    stalled client cannot hold a server thread forever.
    """

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Seconds a socket read may wait: far above the gap between two
    #: requests of a closed-loop client, which sends its next request
    #: as soon as an answer arrives.
    timeout = 60.0

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        if self.server.out is not None:
            self.server.out(f"{self.address_string()} {format % args}")

    def _send(self, status, document, headers=None):
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":  # no head in HTTP/0.9
            self.wfile.write(body)
            return
        # end_headers() would flush the head alone; the blank line and
        # the body join it in the buffer instead, and leave in one write.
        self._headers_buffer.append(b"\r\n")
        if self.command != "HEAD":
            self._headers_buffer.append(body)
        self.flush_headers()

    def send_error(self, code, message=None, explain=None):
        """Protocol errors, including the stdlib's own, as JSON.

        The error ``kind`` is the status's ``HTTPStatus`` name in lower
        case.  As in the stdlib: logged, ``Connection: close``, and no
        body for ``HEAD``.
        """
        try:
            status = HTTPStatus(code)
            kind, message = status.name.lower(), message or status.phrase
        except ValueError:
            kind, message = "http_error", message or str(code)
        self.log_error("code %d, message %s", code, message)
        self._send(code, {"error": {"kind": kind, "message": message}},
                   headers={"Connection": "close"})

    def _read_body(self):
        """The request's declared body, or ``None`` once answered."""
        if "Transfer-Encoding" in self.headers:
            self.send_error(411, "request bodies need a Content-Length; "
                                 "Transfer-Encoding is not supported")
            return None
        lengths = {value.strip() for value
                   in self.headers.get_all("Content-Length", ["0"])}
        length = lengths.pop() if len(lengths) == 1 else ""
        if not (length.isascii() and length.isdigit()):
            self.send_error(400, "invalid Content-Length header")
            return None
        if int(length) > MAX_BODY_BYTES:
            self.send_error(413, f"request body over {MAX_BODY_BYTES} bytes")
            return None
        try:
            return self.rfile.read(int(length))
        except socket.timeout:  # TimeoutError from Python 3.10 on
            self.send_error(408, f"request body not received within "
                                 f"{self.timeout:g} s")
            return None

    def _predict(self, data):
        service = self.server.service
        try:
            result = service.predict(data)
        except QueueSaturated as error:
            retry_after = max(1, int(math.ceil(error.retry_after_s)))
            self._send(429, {"error": error.payload()},
                       headers={"Retry-After": str(retry_after)})
        except (ValueError, KeyError, TypeError) as error:
            self._send(400, {"error": {
                "kind": "bad_request", "message": str(error),
            }})
        except Exception as error:  # pragma: no cover - last resort
            self._send(500, {"error": {
                "kind": "internal", "message": str(error),
                "type": type(error).__name__,
            }})
        else:
            self._send(200, result)

    def _not_found(self, path):
        self._send(404, {"error": {
            "kind": "not_found",
            "message": f"no such endpoint: {path}",
            "endpoints": ["/predict", "/healthz"],
        }})

    def do_GET(self):
        if self._read_body() is None:
            return
        url = urlsplit(self.path)
        if url.path == "/healthz":
            self._send(200, self.server.service.healthz())
        elif url.path == "/predict":
            try:
                data = _query_from_params(parse_qsl(url.query))
            except ValueError as error:
                self._send(400, {"error": {
                    "kind": "bad_request", "message": str(error),
                }})
                return
            self._predict(data)
        else:
            self._not_found(url.path)

    def do_POST(self):
        body = self._read_body()
        if body is None:
            return
        url = urlsplit(self.path)
        if url.path != "/predict":
            self._not_found(url.path)
            return
        try:
            data = json.loads(body or b"{}")
        except ValueError as error:
            self._send(400, {"error": {
                "kind": "bad_request",
                "message": f"request body is not valid JSON: {error}",
            }})
            return
        self._predict(data)


def make_server(service, host="127.0.0.1", port=0, out=None):
    """Bind a :class:`PredictionHTTPServer` (``port=0`` = ephemeral)."""
    return PredictionHTTPServer((host, port), service, out=out)


class GracefulShutdown:
    """SIGTERM/SIGINT -> stop accepting, drain, close — never mid-request.

    ``install()`` registers the handler for the given signals (and
    remembers the previous handlers so tests can restore them); the
    handler itself is :meth:`trigger`, callable directly from tests
    without delivering a real signal.  ``server.shutdown()`` must not
    run on the thread executing ``serve_forever`` (it blocks until the
    serve loop exits), so the trigger hands it to a helper thread and
    returns immediately — the blocked ``serve_forever`` call in the
    main thread then returns, and the CLI finishes the drain.
    """

    def __init__(self, server, service, *, drain_timeout_s=30.0, out=None):
        self.server = server
        self.service = service
        self.drain_timeout_s = drain_timeout_s
        self.out = out or (lambda text: None)
        self.requested = threading.Event()
        self.signal_name = None
        self._previous = {}

    def install(self, signals=None):
        """Register for ``signals`` (default SIGTERM + SIGINT)."""
        import signal as signal_module

        if signals is None:
            signals = (signal_module.SIGTERM, signal_module.SIGINT)
        for signum in signals:
            self._previous[signum] = signal_module.signal(
                signum, self.trigger
            )
        return self

    def uninstall(self):
        """Restore the previously registered handlers."""
        import signal as signal_module

        for signum, previous in self._previous.items():
            signal_module.signal(signum, previous)
        self._previous.clear()

    def trigger(self, signum=None, frame=None):
        """Signal handler body: stop the HTTP accept loop (idempotent)."""
        if self.requested.is_set():
            return
        self.requested.set()
        if signum is not None:
            import signal as signal_module

            try:
                self.signal_name = signal_module.Signals(signum).name
            except ValueError:
                self.signal_name = str(signum)
        # shutdown() blocks until serve_forever's loop notices, and the
        # handler may be running *on* the serve_forever thread — hand
        # it off so the handler returns and the loop can exit.
        threading.Thread(
            target=self.server.shutdown, name="serve-shutdown", daemon=True
        ).start()

    def drain(self):
        """Finish in-flight jobs and close the service; True if clean."""
        pending = self.service.scheduler.pending
        if pending:
            self.out(f"draining {pending} in-flight job(s) "
                     f"(timeout {self.drain_timeout_s:.0f}s)...")
        drained = self.service.close(drain=True,
                                     timeout=self.drain_timeout_s)
        if drained:
            self.out("drained cleanly")
        else:
            self.out("drain timeout expired; remaining jobs failed "
                     "with structured shutdown errors")
        return drained
