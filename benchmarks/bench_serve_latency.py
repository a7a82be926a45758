"""Prediction-service latency tiers and coalescing effectiveness.

The service's value proposition is the latency ladder: a tier-0
analytical answer in well under a millisecond once warm, a tier-1
cache hit in single-digit milliseconds, both orders of magnitude under
the tier-2 DES run they stand in for.  This bench measures the ladder
twice and records the percentiles in
``benchmarks/out/BENCH_serve_latency.json``:

* in process, through :meth:`PredictionService.predict` (query
  parsing, task construction, cache keying — the request path minus
  HTTP);
* over HTTP, as a client sees it: ``POST /predict`` on one keep-alive
  connection to the stdlib frontend.  ``http_overhead_p50_ms`` is the
  median of client latency minus the service's own ``latency_ms``, the
  frontend's share; an in-process number alone cannot show it.

Guards are deliberately loose absolute ceilings (hundreds of ms on
paths that measure fractions of one) — they catch a tier accidentally
falling through to the simulator, not host jitter.  The HTTP tier-1
ceiling of 20 ms sits between what the frontend costs (~1 ms) and a
response held back by Nagle's algorithm and a delayed ACK (~44 ms).

Coalescing effectiveness is measured with real concurrency: N threads
request the same uncached config simultaneously; the scheduler must
accept exactly one DES execution and fan its record out to everyone.
"""

import http.client
import json
import statistics
import threading
import time

from conftest import OUT_DIR

from repro.runtime import ResultCache
from repro.runtime.service import PredictionService, make_server

#: A small window keeps the single tier-2 run in seconds.
QUERY = {"dataset": "products", "k": 8, "max_vertices": 2048, "seed": 7}

TIER0_SAMPLES = 200
TIER1_SAMPLES = 200
COALESCE_CLIENTS = 8


def percentiles(samples_ms):
    ordered = sorted(samples_ms)

    def pct(p):
        return ordered[min(len(ordered) - 1, int(p * len(ordered)))]

    return {
        "p50_ms": pct(0.50),
        "p95_ms": pct(0.95),
        "p99_ms": pct(0.99),
        "mean_ms": statistics.fmean(ordered),
        "max_ms": ordered[-1],
        "samples": len(ordered),
    }


def timed(fn, n):
    samples = []
    for _ in range(n):
        started = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - started) * 1e3)
    return samples


def timed_http(port, document, n):
    """``n`` POSTs of ``document`` on one keep-alive connection.

    Returns the client latencies and, per request, client latency minus
    the service's own ``latency_ms`` (the frontend's share), in ms.
    """
    body = json.dumps(document).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    latencies, overheads = [], []
    try:
        for _ in range(n):
            started = time.perf_counter()
            conn.request("POST", "/predict", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            answer = json.loads(response.read())
            latency_ms = (time.perf_counter() - started) * 1e3
            assert response.status == 200, answer
            latencies.append(latency_ms)
            overheads.append(latency_ms - answer["latency_ms"])
    finally:
        conn.close()
    return latencies, overheads


def test_serve_latency_tiers_and_coalescing(tmp_path, emit):
    cache = ResultCache(directory=tmp_path / "cache")
    service = PredictionService(cache, workers=2, default_deadline_s=300.0)
    try:
        # Warm-up: materialize the graph memo and run the one DES point
        # that backfills tier 1.
        warm_started = time.perf_counter()
        first = service.predict(dict(QUERY))
        tier2_ms = (time.perf_counter() - warm_started) * 1e3
        assert first["tier"] == 2
        assert first["source"] == "simulation"

        tier0 = percentiles(timed(
            lambda: service.predict(dict(QUERY, tier="model")),
            TIER0_SAMPLES,
        ))
        tier1 = percentiles(timed(
            lambda: service.predict(dict(QUERY)), TIER1_SAMPLES
        ))

        # --- the same two tiers over HTTP, one keep-alive connection ---
        server = make_server(service)
        serving = threading.Thread(target=server.serve_forever,
                                   args=(0.05,), daemon=True)
        serving.start()
        try:
            port = server.server_address[1]
            http0, overhead0 = timed_http(port, dict(QUERY, tier="model"),
                                          TIER0_SAMPLES)
            http1, overhead1 = timed_http(port, QUERY, TIER1_SAMPLES)
        finally:
            server.shutdown()
            server.server_close()
        http_tier0 = percentiles(http0)
        http_tier1 = percentiles(http1)
        http_overhead_p50_ms = statistics.median(overhead0 + overhead1)

        # --- coalescing: N concurrent clients, one uncached config ---
        cold = dict(QUERY, k=16)
        barrier = threading.Barrier(COALESCE_CLIENTS)
        answers = []
        answers_lock = threading.Lock()

        def client():
            barrier.wait(timeout=60)
            answer = service.predict(dict(cold))
            with answers_lock:
                answers.append(answer)

        threads = [threading.Thread(target=client)
                   for _ in range(COALESCE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300)
        stats = service.scheduler.stats
        coalescing = {
            "clients": COALESCE_CLIENTS,
            "des_executions": stats.accepted - 1,  # minus the warm-up run
            "coalesced_waiters": stats.coalesced,
            "aliasing_served_from_cache": sum(
                1 for a in answers if a["tier"] == 1
            ),
        }

        # --- guards ---------------------------------------------------
        # Each tier must answer without falling through to the DES; the
        # ceilings are ~100x what the paths measure warm.
        assert tier0["p95_ms"] < 250.0
        assert tier1["p95_ms"] < 250.0
        # A cache hit over HTTP must not wait on the client's delayed
        # ACK (~44 ms when a response leaves in two Nagle writes).
        assert http_tier1["p50_ms"] < 20.0
        # One config, eight concurrent clients, one simulation.
        assert len(answers) == COALESCE_CLIENTS
        assert all(a["source"] == "simulation" for a in answers)
        assert coalescing["des_executions"] == 1
        assert (coalescing["coalesced_waiters"]
                + coalescing["aliasing_served_from_cache"]
                == COALESCE_CLIENTS - 1)

        health = service.healthz()
        payload = {
            "query": QUERY,
            "tier2_cold_ms": tier2_ms,
            "tier0": tier0,
            "tier1": tier1,
            "http_tier0": http_tier0,
            "http_tier1": http_tier1,
            "http_overhead_p50_ms": http_overhead_p50_ms,
            "coalescing": coalescing,
            "counters": health["counters"],
        }
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / "BENCH_serve_latency.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

        lines = [
            f"tier 2 (cold DES + backfill): {tier2_ms:,.0f} ms",
            (f"tier 0 (analytical):  p50 {tier0['p50_ms']:.2f} ms, "
             f"p95 {tier0['p95_ms']:.2f} ms, "
             f"p99 {tier0['p99_ms']:.2f} ms"),
            (f"tier 1 (cache hit):   p50 {tier1['p50_ms']:.2f} ms, "
             f"p95 {tier1['p95_ms']:.2f} ms, "
             f"p99 {tier1['p99_ms']:.2f} ms"),
            (f"over HTTP, tier 0:    p50 {http_tier0['p50_ms']:.2f} ms, "
             f"p95 {http_tier0['p95_ms']:.2f} ms, "
             f"p99 {http_tier0['p99_ms']:.2f} ms"),
            (f"over HTTP, tier 1:    p50 {http_tier1['p50_ms']:.2f} ms, "
             f"p95 {http_tier1['p95_ms']:.2f} ms, "
             f"p99 {http_tier1['p99_ms']:.2f} ms"),
            f"HTTP frontend overhead: p50 {http_overhead_p50_ms:.2f} ms",
            (f"coalescing: {COALESCE_CLIENTS} clients -> "
             f"{coalescing['des_executions']} DES execution(s) "
             f"({coalescing['coalesced_waiters']} coalesced, "
             f"{coalescing['aliasing_served_from_cache']} cache hits)"),
            f"[payload written to {path}]",
        ]
        emit("serve_latency", "\n".join(lines))
    finally:
        service.close()
