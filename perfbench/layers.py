"""Per-layer metrics from the spans of traced ops (see tracing.py).

A span is ``(name, start_ns, end_ns, id, parent, attrs)``;
``load`` pairs each with the pid of the process that recorded it.
:func:`op_summary` reduces one traced op (a batch op, or one server
session of ``serve-http``) to plain numbers, so span files can be
deleted as soon as the op ends; :func:`layer_metrics` pools the
summaries of a run into the metrics listed in ``BENCHMARK.json``.
"""

import statistics

#: Span names that mark a layer boundary and so count as covered time
#: for ``other_frac``; ``task.run`` is the worker-side container whose
#: own time outside these is unattributed.
NAMED = (
    "runner.run_sweep", "shard.run_shards", "shard.subgraph",
    "multinode.assemble", "graphs.materialize", "graphs.partition",
    "kernels.split", "ops.drain", "engine.compile", "engine.run",
    "analytical.eq5", "cache.key", "cache.get", "cache.put",
    "pool.submit", "jobs.submit", "service.predict", "service.parse",
)

MS = 1e-6  # ns -> ms


def _union(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _covered(spans, root):
    """Time of ``root`` covered by named spans nested in it, same pid
    and thread chain (children reachable through parent ids)."""
    pid, (_n, start, end, sid, *_rest) = root
    children = {}
    for p, span in spans:
        if p == pid:
            children.setdefault(span[4], []).append(span)
    found, todo = [], [sid]
    while todo:
        for child in children.get(todo.pop(), ()):
            todo.append(child[3])
            if child[0] in NAMED:
                found.append((max(child[1], start), min(child[2], end)))
    return _union(iv for iv in found if iv[1] > iv[0])


def op_summary(spans, main_pid, region):
    """Reduce one traced op's spans to per-layer numbers.

    ``region`` is the op's timed ``(start_ns, end_ns)`` in the main
    process, or ``None`` for a server session (see ``other_frac``).
    """
    by_name = {}
    for pid, span in spans:
        by_name.setdefault(span[0], []).append((pid, span))

    def durations(name):
        return [(s[2] - s[1]) * MS for _p, s in by_name.get(name, ())]

    tasks = by_name.get("task.run", [])
    worker_tasks = [(p, s) for p, s in tasks if p != main_pid]
    summary = {"worker_task_ns": sum(s[2] - s[1] for _p, s in worker_tasks)}
    summary.update((name, durations(name)) for name in (
        "service.parse", "cache.get", "cache.put", "cache.key",
        "shard.subgraph", "multinode.assemble", "graphs.materialize",
        "graphs.partition", "kernels.split", "ops.drain",
        "engine.compile", "engine.run", "analytical.eq5"))
    summary["materialize_calls"] = len(summary["graphs.materialize"])
    summary["partition_calls"] = len(summary["graphs.partition"])
    runs = by_name.get("engine.run", [])
    summary["events"] = sum(s[5].get("events", 0) for _p, s in runs)
    summary["run_ns"] = sum(s[2] - s[1] for _p, s in runs)
    summary["worker_run_ns"] = sum(s[2] - s[1] for p, s in runs
                                   if p != main_pid)
    gets = by_name.get("cache.get", [])
    summary["cache_hits"] = sum(1 for _p, s in gets if s[5].get("hit"))
    submits = by_name.get("pool.submit", [])
    summary["pool_spawns"] = sum(1 for _p, s in submits
                                 if s[5].get("spawn"))

    # Dispatch: parent-side submit -> worker-side task start, by label.
    starts = {}
    for _p, s in worker_tasks:
        starts.setdefault(s[5]["label"], []).append(s[1])
    summary["dispatch"] = []
    for _p, s in submits:
        later = [t for t in starts.get(s[5]["label"], ()) if t >= s[1]]
        if later:
            summary["dispatch"].append((min(later) - s[1]) * MS)

    # runner.idle_frac: pool capacity of each run_sweep outside tasks.
    summary["idle_frac"] = []
    for _p, s in by_name.get("runner.run_sweep", []):
        width = max((x[5]["width"] for _q, x in submits), default=0)
        if width:
            busy = sum(min(t[2], s[2]) - max(t[1], s[1])
                       for _q, t in worker_tasks
                       if t[2] > s[1] and t[1] < s[2])
            capacity = width * (s[2] - s[1])
            summary["idle_frac"].append(1 - busy / capacity)

    # Shards: slowest / median task per study point, useful attempts.
    points = {}
    for _p, s in tasks:
        if "n_shards" in s[5] and s[5]["n_shards"] > 1 and "error" not in s[5]:
            point = points.setdefault(
                (s[5]["strategy"], s[5]["n_shards"]), {})
            took = s[2] - s[1]
            shard = s[5]["shard"]
            point[shard] = min(took, point.get(shard, took))
    summary["imbalance"] = [
        max(p.values()) / statistics.median(p.values())
        for p in points.values() if p]
    shard_runs = by_name.get("shard.run_shards", [])
    summary["shard_misses"] = sum(s[5].get("misses", 0)
                                  for _p, s in shard_runs)
    summary["shard_attempts"] = sum(s[5].get("attempts", 0)
                                    for _p, s in shard_runs)
    summary["hedges"] = sum(s[5].get("hedges_launched", 0)
                            for _p, s in shard_runs)

    # Scheduler: submit -> worker start, worker end -> answer returned.
    job_submits = by_name.get("jobs.submit", [])
    summary["coalesced"] = sum(1 for _p, s in job_submits
                               if s[5].get("coalesced"))
    summary["rejected"] = sum(1 for _p, s in job_submits
                              if s[5].get("rejected"))
    summary["queue"], summary["collect"] = [], []
    label_of = {}
    for _p, s in job_submits:
        label_of[s[5]["key"]] = s[5]["label"]
        later = [t for t in starts.get(s[5]["label"], ()) if t >= s[1]]
        if later:
            summary["queue"].append((min(later) - s[1]) * MS)
    ends = {}
    for _p, s in worker_tasks:
        ends.setdefault(s[5]["label"], []).append(s[2])
    predicts = by_name.get("service.predict", [])
    tiers = {0: [], 1: [], 2: []}
    summary["degraded"] = 0
    for _p, s in predicts:
        tier = s[5].get("tier")
        if tier in tiers:
            tiers[tier].append((s[2] - s[1]) * MS)
        summary["degraded"] += s[5].get("degraded") is not None
        if tier == 2:
            done = [t for t in ends.get(label_of.get(s[5]["key"]), ())
                    if t <= s[2]]
            if done:
                summary["collect"].append((s[2] - max(done)) * MS)
    for tier, values in tiers.items():
        summary[f"tier{tier}"] = values

    # other_frac: op time outside every named layer.  Main process: the
    # timed region of a batch op.  A server session has none to add: a
    # request's client latency is the HTTP frontend's (client minus
    # server latency) plus the service's, by definition.  Workers: each
    # task.run span.
    total = covered = 0
    if region is not None:
        total += region[1] - region[0]
        top = [(max(s[1], region[0]), min(s[2], region[1]))
               for p, s in spans
               if p == main_pid and s[0] in NAMED and s[4] == 0]
        covered += _union(iv for iv in top if iv[1] > iv[0])
    for root in worker_tasks:
        total += root[1][2] - root[1][1]
        covered += _covered(spans, root)
    summary["other_frac"] = 1 - covered / total if total else 0.0
    return summary


def _median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1], len(ordered) - int(rank)


def _count(summaries, key):
    return _median([len(s[key]) for s in summaries])


def layer_metrics(summaries, extra):
    """Pool traced-op summaries into the per-layer metric values.

    ``extra`` carries the numbers measured outside spans: per op
    ``cpu_s`` and ``worker_rss_mb``, the run's ``ref_ms`` samples, and
    per request ``hit_latencies`` and ``http_overhead``.
    """
    def pooled(key):
        return _median([v for s in summaries for v in s[key]])

    def per_op(key):
        return _median([s[key] for s in summaries])

    gets = sum(len(s["cache.get"]) for s in summaries)
    hits = sum(s["cache_hits"] for s in summaries)
    attempts = sum(s["shard_attempts"] for s in summaries)
    run_s = sum(s["run_ns"] for s in summaries) * 1e-9
    overhead = extra["http_overhead"]
    refs = extra["ref_ms"]
    quartiles = (statistics.quantiles(refs, n=4) if len(refs) > 1
                 else [refs[0]] * 3 if refs else [0.0] * 3)
    hit_p99, _beyond = percentile(extra["hit_latencies"], 99)
    return {
        "http.overhead_p50_ms": _median(overhead),
        "http.overhead_p99_ms": percentile(overhead, 99)[0],
        "client.hit_p99_ms": hit_p99,
        "service.parse_ms": pooled("service.parse"),
        "service.tier0_ms": pooled("tier0"),
        "service.tier1_ms": pooled("tier1"),
        "service.tier2_ms": pooled("tier2"),
        "service.tier0_count": _count(summaries, "tier0"),
        "service.tier1_count": _count(summaries, "tier1"),
        "service.tier2_count": _count(summaries, "tier2"),
        "service.degraded_count": per_op("degraded"),
        "cache.get_ms": pooled("cache.get"),
        "cache.put_ms": pooled("cache.put"),
        "cache.key_ms": pooled("cache.key"),
        "cache.hit_ratio": hits / gets if gets else 0.0,
        "jobs.queue_ms": pooled("queue"),
        "jobs.collect_ms": pooled("collect"),
        "jobs.coalesced": per_op("coalesced"),
        "jobs.rejected": per_op("rejected"),
        "pool.spawns": per_op("pool_spawns"),
        "runner.idle_frac": pooled("idle_frac"),
        "runner.dispatch_ms": pooled("dispatch"),
        "shard.subgraph_ms": pooled("shard.subgraph"),
        "shard.imbalance": pooled("imbalance"),
        "shard.useful_frac": (sum(s["shard_misses"] for s in summaries)
                              / attempts if attempts else 0.0),
        "shard.hedges": per_op("hedges"),
        "multinode.assemble_ms": pooled("multinode.assemble"),
        "graphs.materialize_ms": pooled("graphs.materialize"),
        "graphs.materialize_calls": per_op("materialize_calls"),
        "graphs.partition_ms": pooled("graphs.partition"),
        "graphs.partition_calls": per_op("partition_calls"),
        "kernels.split_ms": pooled("kernels.split"),
        "ops.drain_ms": pooled("ops.drain"),
        "engine.compile_ms": pooled("engine.compile"),
        "engine.run_ms": pooled("engine.run"),
        "engine.events": per_op("events"),
        "engine.events_per_s": (sum(s["events"] for s in summaries) / run_s
                                if run_s else 0.0),
        "analytical.eq5_us": pooled("analytical.eq5") * 1e3,
        "proc.cpu_s": _median(extra["cpu_s"]),
        "proc.worker_rss_mb": _median(extra["worker_rss_mb"]),
        "host.ref_ms": _median(refs),
        "host.ref_iqr_ms": quartiles[2] - quartiles[0],
        "other_frac": max((s["other_frac"] for s in summaries),
                          default=0.0),
    }
