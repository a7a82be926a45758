"""The repository benchmark: three workloads users actually run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
        [--trace 0|1]

Workloads (README.md gives each one's rationale):

* ``sweep-cold`` — ops of one cold Fig 5 sweep, each in a fresh
  interpreter (``perfbench/ops.py``);
* ``serve-http`` — sessions of a ``repro serve`` subprocess answering a
  seeded ``/predict`` mix from two closed-loop HTTP clients;
* ``multinode-recover`` — ops of one cold ``repro multinode --recover``
  study, each in a fresh interpreter.

``--seed`` picks the graph-window seeds and the query mix; the default
seed 7 reproduces the windows of ``bench_fig5`` and
``bench_multinode_scaling`` and is checked against pinned output
digests (``pinned.json``; ``--pin`` rewrites them).  ``--trace 1``
alternates untraced and traced ops, prints both sets of end-to-end
numbers, and reports the per-layer metrics of the traced ops.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import http.client
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import layers  # noqa: E402  (sibling modules: the script's directory)
import tracing  # noqa: E402
from ops import digest, simulated  # noqa: E402

DEFAULT_SEED = 7
WORKLOADS = ("sweep-cold", "serve-http", "multinode-recover")
#: A run gives up on hung ops this long after it starts, so that it
#: exits within 180 s even when the program under test hangs.
RUN_BUDGET_S = 130
REQUEST_TIMEOUT_S = 20
SESSION_S = 10.0        # wall of one serve-http session, set-up included
REF_REPEATS = 3         # reference-loop samples per gap between ops

#: Metric name -> unit, from BENCHMARK.json (README.md defines each).
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")


# ----------------------------------------------------------------------
# Host and process measurements


def reference_ms():
    """One fixed pure-Python loop: the host-speed probe."""
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - started) * 1e3


def _status(pid):
    """``(VmRSS, VmHWM)`` of ``pid`` in kB, or ``None`` once it exited."""
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            fields = dict(line.split(b":", 1) for line in handle
                          if line.startswith((b"VmRSS", b"VmHWM")))
    except OSError:
        return None
    if b"VmRSS" not in fields:
        return None
    return int(fields[b"VmRSS"].split()[0]), int(fields[b"VmHWM"].split()[0])


def _descendants(root):
    """Pids of ``root``'s live descendants."""
    parent = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat", "rb") as handle:
                    stat = handle.read()
            except OSError:
                continue
            parent[int(name)] = int(stat[stat.rindex(b")") + 2:].split()[1])
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        children = [p for p, pp in parent.items() if pp == pid]
        tree += children
        todo += children
    return tree


class TreeSampler(threading.Thread):
    """Samples the resident memory of a process tree every 0.1 s."""

    def __init__(self, root):
        super().__init__(daemon=True)
        self.root = root
        self.peak_kb = 0
        self.worker_hwm_kb = {}
        self.done = threading.Event()

    def run(self):
        while True:
            total = 0
            for pid in [self.root, *_descendants(self.root)]:
                status = _status(pid)
                if status is None:
                    continue
                total += status[0]
                if pid != self.root:
                    self.worker_hwm_kb[pid] = status[1]
            self.peak_kb = max(self.peak_kb, total)
            if self.done.wait(0.1):
                return

    def finish(self):
        self.done.set()
        self.join()
        return (self.peak_kb / 1024,
                max(self.worker_hwm_kb.values(), default=0) / 1024)


def _cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def _reap(proc):
    """Kill whatever is left of ``proc``'s process group and wait."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# ----------------------------------------------------------------------
# Batch workloads: sweep-cold, multinode-recover


def run_batch_op(workload, seed, traced, work, timeout):
    work.mkdir(parents=True)
    result_path = work / "result.json"
    cmd = [sys.executable, str(HERE / "ops.py"), workload,
           "--window-seed", str(seed), "--work", str(work),
           "--result", str(result_path)] + (["--trace"] if traced else [])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd, env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, start_new_session=True)
    sampler = TreeSampler(proc.pid)
    sampler.start()
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        output = b"timed out"
    _reap(proc)
    op_s = time.perf_counter() - launched
    peak_mb, worker_mb = sampler.finish()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    op = {"traced": traced, "op_s": op_s,
          "cpu_s": _cpu_s(after) - _cpu_s(before),
          "peak_rss_mb": peak_mb, "worker_rss_mb": worker_mb}
    if proc.returncode != 0 or not result_path.exists():
        tail = output.decode(errors="replace").strip().splitlines()[-3:]
        op["errors"] = [f"exit {proc.returncode}: {' | '.join(tail)}"]
        shutil.rmtree(work, ignore_errors=True)
        return op
    result = json.loads(result_path.read_text())
    op.update(
        setup_s=result["started"] - launched,
        wall_s=result["ended"] - result["started"],
        units=result["units"],
        digest=result["digest"],
        errors=result["errors"],
    )
    if traced:
        region = (int(result["started"] * 1e9), int(result["ended"] * 1e9))
        op["layers"] = layers.op_summary(
            tracing.load(work / "spans"), proc.pid, region)
    shutil.rmtree(work, ignore_errors=True)
    return op


def batch_metrics(ops):
    good = [op for op in ops if "wall_s" in op]
    units = [u for op in good for u in op["units"]]
    wall = sum(op["wall_s"] for op in good)
    return {
        "setup_s": _sampled([op["setup_s"] for op in good]),
        "wall_p50_ms": _sampled([op["wall_s"] * 1e3 for op in good]),
        "des_p50_ms": _sampled([u * 1e3 for u in units]),
        "rate_per_s": (len(units) / wall if wall else 0.0, len(good)),
        "peak_rss_mb": _sampled([op["peak_rss_mb"] for op in good]),
    }


def check_batch(workload, seed, ops, pinned):
    """Mismatch messages; every op must also reproduce the same digest."""
    problems = []
    expected = pinned.get(workload) if seed == DEFAULT_SEED else None
    for index, op in enumerate(ops):
        for error in op.get("errors", ()):
            problems.append(f"op {index}: {error}")
        if "digest" not in op:
            continue
        reference = expected or ops[0].get("digest")
        if op["digest"] != reference:
            problems.append(f"op {index}: output digest {op['digest']} "
                            f"!= {reference}")
            op.setdefault("errors", []).append("digest mismatch")
    return problems


# ----------------------------------------------------------------------
# serve-http

WARM_DATASETS = ("arxiv", "products", "papers", "collab")
WARM_WINDOW = 2048
COLD_DATASET, COLD_WINDOW = "proteins", 1024
#: Requests of each kind in every block of 200.  The counts are an
#: assumption, not recorded traffic: mostly tier-1 repeats, some tier-0
#: queries (a few on windows not yet built), a few percent that reach
#: the DES.  Light requests answer from tiers 0-1 in ~44 ms; heavy ones
#: build a graph window or run the DES for 0.1-0.3 s.
LIGHT = (("repeat", 160), ("model", 16), ("platform", 12))
HEAVY = (("cold", 5), ("new", 7))
BLOCK = 200
MIX_BLOCKS = 100
PIN_PREFIX = 1500
EXPECTED_TIER = {"prewarm": 2, "materialize": 0, "repeat": 1, "model": 0,
                 "platform": 0, "cold": 0, "new": 2}


def serve_mix(seed):
    """Seeded pre-warm set and request sequence of one serve-http run.

    ``repeat`` re-asks a pre-warmed config (tier 1); ``model`` and
    ``platform`` are tier-0 queries on windows set-up materialized;
    ``cold`` is a tier-0 query on a window the server has not built
    yet; ``new`` is a never-seen config that reaches the DES (tier 2).
    The seed picks the graph windows and the order and parameters of
    the requests; the class counts, and so the DES work per run up to
    the window's size, are the same for every seed.
    """
    rng = random.Random(seed)
    window = {"max_vertices": WARM_WINDOW, "seed": seed}
    prewarm = [
        {"dataset": dataset, "k": k, "overrides": {"n_cores": cores},
         **window}
        for dataset in WARM_DATASETS for k, cores in ((32, 2), (64, 4))
    ]
    materialize = [{"dataset": dataset, "k": 64, "tier": "model", **window}
                   for dataset in WARM_DATASETS]
    requests, cold, new = [], 0, 0
    for _ in range(MIX_BLOCKS):
        # Heavy requests sit one per stretch of ~17, at least 10 apart.
        # This is a steadiness device, not a property of traffic: with
        # two closed-loop clients two heavy requests then rarely run at
        # once, where shuffled positions would make a seed's collisions,
        # and so its tier-2 latency, its own.
        heavy = [kind for kind, count in HEAVY for _ in range(count)]
        light = [kind for kind, count in LIGHT for _ in range(count)]
        rng.shuffle(heavy)
        rng.shuffle(light)
        stretch = BLOCK / len(heavy)
        slots = {int(i * stretch) + rng.randrange(6): kind
                 for i, kind in enumerate(heavy)}
        block = [slots.get(i) or light.pop() for i in range(BLOCK)]
        for kind in block:
            k = rng.randrange(8, 257, 8)
            if kind == "repeat":
                doc = rng.choice(prewarm)
            elif kind == "model":
                doc = {"dataset": rng.choice(WARM_DATASETS), "k": k,
                       "tier": "model",
                       "overrides": {"n_cores": rng.choice((1, 2, 4, 8))},
                       **window}
            elif kind == "platform":
                doc = {"dataset": rng.choice(WARM_DATASETS), "k": k,
                       "platform": rng.choice(("cpu", "gpu")), **window}
            elif kind == "cold":
                cold += 1
                doc = {"dataset": COLD_DATASET, "k": k, "tier": "model",
                       "max_vertices": COLD_WINDOW,
                       "seed": seed * 100000 + cold}
            else:
                new += 1
                doc = {"dataset": "products", "k": 64,
                       "overrides": {"n_cores": 4,
                                     "dram_latency_ns": 45.0 + new / 8},
                       **window}
            requests.append((kind, doc))
    return prewarm, materialize, requests


class Client:
    """One persistent HTTP/1.1 connection (closed loop)."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=REQUEST_TIMEOUT_S)

    def post(self, doc):
        body = json.dumps(doc).encode()
        started = time.perf_counter()
        self.conn.request("POST", "/predict", body=body, headers={
            "Content-Type": "application/json"})
        response = self.conn.getresponse()
        payload = response.read()
        latency_ms = (time.perf_counter() - started) * 1e3
        return response.status, payload, latency_ms

    def close(self):
        self.conn.close()


def _answer(client, kind, doc, request_id):
    """Send one request; returns its raw sample and its check result."""
    try:
        status, payload, latency_ms = client.post(doc)
        body = json.loads(payload)
    except (OSError, http.client.HTTPException, ValueError) as error:
        return {"kind": kind, "id": request_id, "status": 0,
                "latency_ms": 0.0, "error": repr(error)}
    sample = {"kind": kind, "id": request_id, "status": status,
              "latency_ms": latency_ms, "key": digest(doc)}
    if status != 200:
        sample["error"] = f"HTTP {status}"
        return sample
    sample.update(tier=body["tier"], server_ms=body["latency_ms"],
                  digest=digest(simulated(body["record"])))
    if body["degraded"] is not None or body["pending"]:
        sample["error"] = f"degraded: {body['degraded']}"
    elif body["tier"] != EXPECTED_TIER[kind]:
        sample["error"] = f"tier {body['tier']} for a {kind} query"
    return sample


def _wait_port(proc, timeout):
    """Read the server's stdout until it announces its port."""
    found = {}

    def read():
        for line in proc.stdout:
            if "listening on http://" in line and "port" not in found:
                found["port"] = int(line.rsplit(":", 1)[1].strip())
                ready.set()
        ready.set()

    ready = threading.Event()
    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    ready.wait(timeout)
    return found.get("port"), reader


def run_session(seed, mix, traced, work, length_s, timeout):
    prewarm, materialize, requests = mix
    work.mkdir(parents=True)
    serve_args = ["--port", "0", "--quiet",
                  "--cache-dir", str(work / "cache")]
    if traced:
        cmd = [sys.executable, str(HERE / "serve_launch.py"),
               str(work / "spans"), *serve_args]
    else:
        cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd, env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    sampler = TreeSampler(proc.pid)
    sampler.start()
    session = {"traced": traced, "samples": [], "setup": []}
    port, reader = _wait_port(proc, timeout)
    clients = []
    try:
        if port is None:
            session["errors"] = ["server did not announce a port"]
            return session
        clients = [Client(port), Client(port)]
        lock = threading.Lock()

        def drain(queue, into):
            while True:
                with lock:
                    if not queue:
                        return
                    index, kind, doc = queue.pop(0)
                client = clients[threading.current_thread().slot]
                into.append(_answer(client, kind, doc, f"w{index}"))

        warm = [(i, "prewarm", doc) for i, doc in enumerate(prewarm)]
        warm += [(len(prewarm) + i, "materialize", doc)
                 for i, doc in enumerate(materialize)]
        _parallel(drain, warm, session["setup"])
        ready = time.perf_counter()
        session["setup_s"] = ready - launched
        end_at = max(launched + length_s, ready + 2.0)
        cursor = iter(range(len(requests)))

        def measure(_queue, into):
            client = clients[threading.current_thread().slot]
            while time.perf_counter() < end_at:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                kind, doc = requests[index]
                into.append(_answer(client, kind, doc, f"r{index}"))

        _parallel(measure, None, session["samples"])
        session["measured_s"] = time.perf_counter() - ready
    finally:
        for client in clients:
            client.close()
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        _reap(proc)
        reader.join(5)
        peak_mb, worker_mb = sampler.finish()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        session.update(cpu_s=_cpu_s(after) - _cpu_s(before),
                       peak_rss_mb=peak_mb, worker_rss_mb=worker_mb)
    if traced:
        session["layers"] = layers.op_summary(
            tracing.load(work / "spans"), proc.pid, None)
    shutil.rmtree(work, ignore_errors=True)
    return session


def _parallel(target, queue, into):
    threads = []
    for slot in range(2):
        thread = threading.Thread(target=target, args=(queue, into))
        thread.slot = slot
        threads.append(thread)
        thread.start()
    for thread in threads:
        thread.join()


def _hits(sessions):
    return [s["latency_ms"] for session in sessions
            for s in session.get("samples", ())
            if "error" not in s and s.get("tier") in (0, 1)]


def _overheads(sessions):
    """Client latency minus the response's own ``latency_ms``."""
    return [s["latency_ms"] - s["server_ms"] for session in sessions
            for s in session.get("samples", ()) if "error" not in s]


def serve_metrics(sessions):
    good = [s for s in sessions if "setup_s" in s]
    samples = [s for session in good for s in session["samples"]]
    misses = [s["latency_ms"] for s in samples
              if "error" not in s and s.get("tier") == 2]
    measured = sum(s["measured_s"] for s in good)
    completed = sum(1 for s in samples if "error" not in s)
    return {
        "setup_s": _sampled([s["setup_s"] for s in good]),
        "wall_p50_ms": _sampled(_hits(good)),
        "des_p50_ms": _sampled(misses),
        "rate_per_s": (completed / measured if measured else 0.0,
                       len(samples)),
        "peak_rss_mb": _sampled([s["peak_rss_mb"] for s in good]),
    }


def check_serve(seed, sessions, pinned):
    """Every answer of one query must be identical across the run, a
    repeat must equal its pre-warm answer, and (default seed) every
    answer must match its pinned digest."""
    expected = dict(pinned.get("serve-http", {})) if seed == DEFAULT_SEED \
        else {}
    seen = {}
    problems = []
    for number, session in enumerate(sessions):
        problems += [f"session {number}: {e}"
                     for e in session.get("errors", ())]
        for sample in session["setup"] + session["samples"]:
            if "digest" not in sample:
                continue
            key, value = sample["key"], sample["digest"]
            reference = expected.get(key) or seen.setdefault(key, value)
            if value[:len(reference)] != reference:
                sample["error"] = f"answer {value} != {reference}"
            if "error" in sample:
                problems.append(f"session {number} {sample['id']} "
                                f"({sample['kind']}): {sample['error']}")
    return problems


# ----------------------------------------------------------------------
# Statistics and reporting


def _raw(op):
    """An op's raw numbers; serve samples as ``[id, kind, status, tier,
    client ms, server ms]``."""
    raw = {k: v for k, v in op.items()
           if k not in ("layers", "setup", "samples")}
    for part in ("setup", "samples"):
        if part in op:
            raw[part] = [[s["id"], s["kind"], s["status"], s.get("tier"),
                          round(s["latency_ms"], 4),
                          round(s.get("server_ms", 0.0), 4)]
                         for s in op[part]]
    return raw


def _sampled(values):
    """``(median, n)``; the median of nothing is 0 with n = 0."""
    return (statistics.median(values) if values else 0.0, len(values))


def environment(seed):
    import numpy

    from repro.piuma.config import PIUMAConfig

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine": PIUMAConfig().resolved_engine,
    }


def print_table(title, columns):
    """Rows of ``name unit value (n=...)`` for one or two sample sets."""
    print(title)
    for name, unit in END_TO_END.items():
        cells = "  ".join(f"{values[name][0]:>12.4f} (n={values[name][1]})"
                          for values in columns)
        print(f"  {name:<14} {unit:<4} {cells}")


def tail_line(name, values):
    """``name = p99 (n=..., k beyond)``, marked when k is below 10."""
    p99, beyond = layers.percentile(values, 99)
    return (f"  {name} = {p99:.4f} (n={len(values)}, {beyond} beyond"
            + (")" if beyond >= 10 else "; too few for a p99)"))


def workload_names(workload, values):
    """The metrics under their per-workload names (``sweep_s``, ...)."""
    if workload == "serve-http":
        return {"hit_p50_ms": values["wall_p50_ms"],
                "miss_p50_ms": values["des_p50_ms"],
                "requests_per_s": values["rate_per_s"]}
    name = "sweep_s" if workload == "sweep-cold" else "multinode_s"
    median, n = values["wall_p50_ms"]
    return {name: (median / 1e3, n)}


def predictions(workload, metrics, summaries, e2e):
    """Judge the three predictions about where time goes on this run."""
    lines = []
    if workload == "serve-http":
        overhead = metrics["http.overhead_p50_ms"]
        hit = e2e["wall_p50_ms"][0]
        verdict = ("confirmed" if hit and overhead / hit >= 0.9
                   and 38 <= overhead <= 48 else "refuted")
        lines.append(f"prediction 1 (http.overhead_p50_ms ~43 of ~44 ms "
                     f"hit_p50_ms): {overhead:.2f} of {hit:.2f} ms -> "
                     f"{verdict}")
    elif workload == "sweep-cold":
        run = sum(s["worker_run_ns"] for s in summaries)
        busy = sum(s["worker_task_ns"] for s in summaries)
        share = run / busy if busy else 0.0
        zero = (metrics["engine.compile_ms"] == 0
                and metrics["ops.drain_ms"] == 0)
        verdict = "confirmed" if share > 0.5 and zero else "refuted"
        lines.append(f"prediction 2 (engine.run most of worker time; "
                     f"compile and drain 0 on the default engine): "
                     f"engine.run {share:.1%} of worker task time, "
                     f"engine.compile_ms {metrics['engine.compile_ms']:g}, "
                     f"ops.drain_ms {metrics['ops.drain_ms']:g} -> {verdict}")
    else:
        calls = metrics["graphs.partition_calls"]
        hedges = metrics["shard.hedges"]
        verdict = "confirmed" if calls == 30 and hedges == 0 else "refuted"
        lines.append(f"prediction 3 (graphs.partition_calls 30 per op, "
                     f"shard.hedges 0): {calls:g} calls, {hedges:g} "
                     f"hedges -> {verdict}")
    return lines


def pin(seed):
    """Rewrite pinned.json from in-process runs of the default seed."""
    from repro.runtime import PredictionService, ResultCache

    pinned = {}
    for workload in ("sweep-cold", "multinode-recover"):
        op = run_batch_op(workload, seed, False, OUT / f"pin-{workload}",
                          RUN_BUDGET_S)
        if op.get("errors"):
            raise SystemExit(f"{workload}: {op['errors']}")
        pinned[workload] = op["digest"]
    prewarm, materialize, requests = serve_mix(seed)
    cache_dir = OUT / "pin-serve"
    service = PredictionService(ResultCache(directory=cache_dir), workers=2)
    answers = {}
    try:
        for doc in prewarm + materialize + [d for _k, d in
                                            requests[:PIN_PREFIX]]:
            key = digest(doc)
            if key not in answers:
                response = json.loads(json.dumps(service.predict(doc)))
                answers[key] = digest(simulated(response["record"]))[:12]
    finally:
        service.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    pinned["serve-http"] = answers
    (HERE / "pinned.json").write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(answers)} serve answers and 2 batch digests")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pinned.json for the default seed")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Compile once up front so no op pays for bytecode compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC),
                    str(HERE)], check=True, env=ENV)
    if args.pin:
        pin(DEFAULT_SEED)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    env = environment(args.seed)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in {
        "workload": args.workload, **env, "seconds": args.seconds,
        "trace": args.trace}.items()))
    pinned = json.loads((HERE / "pinned.json").read_text())
    work_root = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    refs, ops = [], []
    serve = args.workload == "serve-http"
    mix = serve_mix(args.seed) if serve else None
    n_sessions = max(2, round(args.seconds / SESSION_S))
    if args.trace and n_sessions % 2:
        n_sessions += 1
    started = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - started
            traced = bool(args.trace) and len(ops) % 2 == 1
            timeout = max(5.0, RUN_BUDGET_S - elapsed)
            if elapsed > RUN_BUDGET_S:
                break
            if serve:
                if len(ops) == n_sessions:
                    break
            elif ops and (not args.trace or len(ops) >= 2):
                # Stop once the next op would run mostly past --seconds,
                # so a run ends within about half an op of it.
                expected = statistics.median(op["op_s"] for op in ops)
                if elapsed + expected / 2 > args.seconds:
                    break
            refs += [reference_ms() for _ in range(REF_REPEATS)]
            work = work_root / f"op{len(ops)}"
            if serve:
                ops.append(run_session(args.seed, mix, traced, work,
                                       args.seconds / n_sessions, timeout))
            else:
                ops.append(run_batch_op(args.workload, args.seed, traced,
                                        work, timeout))
        refs += [reference_ms() for _ in range(REF_REPEATS)]
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    if serve:
        problems = check_serve(args.seed, ops, pinned)
        samples = [s for op in ops for s in op["setup"] + op["samples"]]
        broken = sum(1 for op in ops if op.get("errors"))
        attempted = len(samples) + broken
        failed = sum(1 for s in samples if "error" in s) + broken
        compute = serve_metrics
    else:
        problems = check_batch(args.workload, args.seed, ops, pinned)
        attempted = len(ops)
        failed = sum(1 for op in ops if op.get("errors"))
        compute = batch_metrics
    untraced = [op for op in ops if not op["traced"]]
    traced_ops = [op for op in ops if op["traced"]]
    values = compute(untraced)
    raw = {"workload": args.workload, **env, "ref_ms": refs,
           "ops": [_raw(op) for op in ops]}
    print("RAW " + json.dumps(raw, separators=(",", ":"), default=str))
    for problem in problems[:20]:
        print(f"MISMATCH {problem}")
    columns = [values]
    title = f"end-to-end ({len(untraced)} untraced op(s))"
    if args.trace:
        columns.append(compute(traced_ops))
        title = (f"end-to-end: untraced ({len(untraced)} op(s)) | "
                 f"traced ({len(traced_ops)} op(s))")
    print_table(title, columns)
    for name, (value, n) in workload_names(args.workload, values).items():
        print(f"  {name} = {value:.4f} (n={n})")
    print(f"  failed_frac = {failed / max(attempted, 1):.4f} "
          f"({failed}/{attempted})")
    if serve:
        print(tail_line("hit_p99_ms", _hits(untraced)))

    if args.trace:
        summaries = [op["layers"] for op in traced_ops if "layers" in op]
        extra = {
            "cpu_s": [op["cpu_s"] for op in traced_ops],
            "worker_rss_mb": [op["worker_rss_mb"] for op in traced_ops],
            "ref_ms": refs,
            # Every response carries its own latency_ms, so the request
            # tails pool every session of the run, traced or not.
            "hit_latencies": _hits(ops) if serve else [],
            "http_overhead": _overheads(ops) if serve else [],
        }
        per_layer = layers.layer_metrics(summaries, extra)
        traced_values = columns[1]
        print("tracing overhead (traced / untraced - 1): " + ", ".join(
            f"{name} {traced_values[name][0] / values[name][0] - 1:+.1%}"
            for name in END_TO_END if values[name][0]))
        if serve:
            print(f"request tails, all {len(ops)} sessions:")
            overhead = extra["http_overhead"]
            print(f"  http.overhead_p50_ms = "
                  f"{per_layer['http.overhead_p50_ms']:.4f} "
                  f"(n={len(overhead)})")
            print(tail_line("http.overhead_p99_ms", overhead))
            print(tail_line("client.hit_p99_ms", extra["hit_latencies"]))
        for line in predictions(args.workload, per_layer, summaries,
                                values):
            print(line)
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": values[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
