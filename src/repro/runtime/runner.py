"""Process-parallel, fault-tolerant sweep runner over the DES.

Every figure of the paper is a sweep: a grid of (config, dataset,
kernel, embedding-dim) points, each an independent pure function of its
inputs.  The runner exploits exactly that — points are described by
picklable :class:`SpMMTask` records, memoized through the
content-addressed :mod:`repro.runtime.cache`, executed on the dispatch
core (:class:`~repro.runtime.jobs.JobScheduler`), and returned **in
submission order** no matter which worker finished first, so
downstream charts and assertions never depend on scheduling.

Failures are contained, not fatal (see :mod:`repro.runtime.errors`).
The core supplies per-task wall-clock **timeouts** (hung workers are
killed, the pool respawned), bounded **retries** with exponential
backoff and deterministic jitter, and pool **respawn** on worker death;
the runner adds

* an ``on_error`` **policy** once retries are exhausted — ``"raise"``
  (abort the sweep), ``"skip"`` (record a structured failure entry),
  or ``"fallback"`` (degrade the point to the analytical Equation 5
  model, flagged ``"source": "model_fallback"``);
* incremental **checkpointing** through
  :class:`~repro.runtime.checkpoint.SweepCheckpoint`, so a killed
  sweep resumes from its partial results.

Workers materialize graphs themselves (memoized per process), so only
small task descriptors and JSON records cross the process boundary.
"""

from __future__ import annotations

import collections
import functools
import os
import queue
import random
import time
import warnings
from dataclasses import asdict, dataclass, field, replace

from repro.runtime.cache import cache_key
from repro.runtime.errors import TaskError, failure_record, wrap_failure
from repro.runtime.jobs import JobScheduler, SchedulerStats, backoff_delay
from repro.runtime.progress import ProgressTracker

#: Valid ``on_error`` policies of :func:`run_sweep`.
ON_ERROR_POLICIES = ("raise", "skip", "fallback")

#: Byte budget of :data:`_GRAPH_MEMO`, counting each window's
#: ``indptr``, ``indices`` and ``data``.  Every Table I window at the
#: default 16,384 vertices fits at once (about 92 MB together).
GRAPH_MEMO_BYTES = 128 << 20

#: Per-process LRU of materialized graphs: tasks reference datasets by
#: (name, max_vertices, seed), so a worker builds each graph once and
#: reuses it for every point it executes.  Bounded by
#: :data:`GRAPH_MEMO_BYTES`, so a long-lived pool worker holds at most
#: that much however many windows it is asked for.  Not locked: its
#: callers (pool workers, a batch's inline path) run one task at a time.
_GRAPH_MEMO = collections.OrderedDict()


def _window_bytes(adj):
    return adj.indptr.nbytes + adj.indices.nbytes + adj.data.nbytes


def _materialized(dataset, max_vertices, seed):
    from repro.graphs.datasets import get_dataset

    key = (dataset, max_vertices, seed)
    adj = _GRAPH_MEMO.pop(key, None)
    if adj is None:
        adj = get_dataset(dataset).materialize(
            max_vertices=max_vertices, seed=seed
        )
        size = _window_bytes(adj)
        if size > GRAPH_MEMO_BYTES:
            return adj
        held = sum(map(_window_bytes, list(_GRAPH_MEMO.values())))
        while _GRAPH_MEMO and held + size > GRAPH_MEMO_BYTES:
            held -= _window_bytes(_GRAPH_MEMO.popitem(last=False)[1])
    _GRAPH_MEMO[key] = adj
    return adj


@functools.lru_cache(maxsize=4096)
def _window_shape(dataset, max_vertices, seed):
    """``(|V|, |E|)`` of a dataset window, without keeping its CSR.

    The analytical answers (tier 0, the ``"fallback"`` policy) read only
    these two counts.  A window already in :data:`_GRAPH_MEMO` is
    reused; any other is built, counted and dropped, so a long-lived
    server answering ever-new windows holds a few bytes per window
    (bounded by the LRU) instead of a whole graph.
    """
    adj = _GRAPH_MEMO.get((dataset, max_vertices, seed))
    if adj is None:
        from repro.graphs.datasets import get_dataset

        adj = get_dataset(dataset).materialize(
            max_vertices=max_vertices, seed=seed
        )
    return int(adj.n_rows), int(adj.nnz)


@dataclass(frozen=True)
class SpMMTask:
    """One picklable sweep point: simulate one SpMM kernel invocation.

    Attributes
    ----------
    dataset, max_vertices, seed:
        Dataset spec reference and down-scaling parameters — the graph
        is materialized (and memoized) inside the worker process.
    embedding_dim, kernel, window_edges:
        Kernel invocation parameters (see
        :func:`repro.piuma.simulate_spmm`); ``window_edges`` of ``None``
        picks the automatic window.
    overrides:
        Sorted ``(field, value)`` pairs applied on top of the default
        :class:`~repro.piuma.config.PIUMAConfig` — a plain tuple so the
        task stays hashable and canonically ordered.  The pair shape is
        enforced at construction.
    """

    dataset: str
    embedding_dim: int
    kernel: str = "dma"
    max_vertices: int = 16384
    seed: int = 0
    window_edges: int | None = None
    overrides: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        for pair in self.overrides:
            if (
                not isinstance(pair, tuple)
                or len(pair) != 2
                or not isinstance(pair[0], str)
            ):
                raise TypeError(
                    "overrides must be (field, value) pairs of PIUMAConfig "
                    f"fields, got {pair!r}"
                )

    def config(self):
        from repro.piuma.config import PIUMAConfig

        return PIUMAConfig(**dict(self.overrides))

    def with_config(self, **fields):
        """Copy of this task with ``fields`` merged into its overrides.

        Each field replaces any existing pair of that name, and the
        tuple stays canonically sorted; ``degradation=None`` restores
        the healthy fabric.  Every config field is part of the cache
        key, so a sanitized (``check_level``), degraded
        (``degradation``) or reference-engine (``engine``) record never
        aliases a plain one.
        """
        merged = dict(self.overrides)
        merged.update(fields)
        return replace(self, overrides=tuple(sorted(merged.items())))

    def label(self):
        knobs = " ".join(f"{k}={v}" for k, v in self.overrides)
        return (f"{self.dataset}/{self.kernel} K={self.embedding_dim}"
                + (f" {knobs}" if knobs else ""))

    def key_payload(self):
        """JSON-able identity of this point for the content cache.

        Includes *every* config dataclass field (not just the swept
        overrides) and the full dataset spec, so changing a default in
        :class:`PIUMAConfig` or a Table-I count invalidates old records.
        """
        from repro.graphs.datasets import get_dataset

        return {
            "dataset": asdict(get_dataset(self.dataset)),
            "max_vertices": self.max_vertices,
            "seed": self.seed,
            "config": asdict(self.config()),
            "kernel": self.kernel,
            "embedding_dim": self.embedding_dim,
            "window_edges": self.window_edges,
        }

    def run(self):
        """Execute the point; returns a plain-JSON record.

        The record carries both the DES outcome and the matching
        Equation 5 model numbers (cheap to compute, and every consumer
        — calibration, Fig 5, the CLI — wants the ratio).
        """
        adj = _materialized(self.dataset, self.max_vertices, self.seed)
        return self.simulation_record(adj, self.config())

    def fallback_record(self, error=None):
        """Analytical stand-in record for a point whose DES run failed.

        Carries valid Equation 5 numbers under the same schema as
        :meth:`run`, flagged ``"source": "model_fallback"`` (with the
        triggering error payload) so calibration and figures can
        distinguish degraded points from simulated ones.
        """
        n_vertices, n_edges = _window_shape(
            self.dataset, self.max_vertices, self.seed
        )
        return self.model_record(n_vertices, n_edges, self.config(),
                                 error=error)

    def simulation_record(self, adj, config):
        """Record of simulating this task's kernel over the CSR ``adj``."""
        from repro.piuma import simulate_spmm, spmm_model

        result = simulate_spmm(
            adj, self.embedding_dim, config, kernel=self.kernel,
            window_edges=self.window_edges,
        )
        model = spmm_model(adj.n_rows, adj.nnz, self.embedding_dim, config)
        return self._record(adj.n_rows, adj.nnz, config, "simulation", {
            "gflops": float(result.gflops),
            "projected_time_ns": float(result.projected_time_ns),
            "sim_time_ns": float(result.sim_time_ns),
            "window_edges": int(result.window_edges),
            "total_edges": int(result.total_edges),
            "memory_utilization": float(result.memory_utilization),
            "achieved_bandwidth": float(result.achieved_bandwidth),
            "model_gflops": float(model.gflops),
            "model_time_ns": float(model.time_ns),
            "efficiency": (float(result.gflops / model.gflops)
                           if model.gflops > 0 else 0.0),
            "events": int(result.events),
            "host_wall_s": float(result.host_wall_s),
            "events_per_s": float(result.events_per_s),
            "tag_stats": {
                tag: {"count": int(s.count), "bytes": float(s.bytes),
                      "wait_ns": float(s.wait_ns)}
                for tag, s in sorted(result.tag_stats.items())
            },
        })

    def model_record(self, n_vertices, n_edges, config,
                     source="model_fallback", error=None):
        """Equation-5-only record of a ``(n_vertices, n_edges)`` window.

        The model's numbers, with ``efficiency`` 1.0, for a window with
        edges; zeros, with ``efficiency`` 0.0, for one without (a shard
        that owns no edges has nothing to price).
        """
        from repro.piuma import spmm_model

        gflops = time_ns = 0.0
        if n_edges:
            model = spmm_model(n_vertices, n_edges, self.embedding_dim,
                               config)
            gflops, time_ns = float(model.gflops), float(model.time_ns)
        return self._record(n_vertices, n_edges, config, source, {
            "gflops": gflops,
            "projected_time_ns": time_ns,
            "sim_time_ns": 0.0,
            "window_edges": 0,
            "total_edges": int(n_edges),
            "memory_utilization": 0.0,
            "achieved_bandwidth": 0.0,
            "model_gflops": gflops,
            "model_time_ns": time_ns,
            "efficiency": 1.0 if n_edges else 0.0,
            "events": 0,
            "host_wall_s": 0.0,
            "events_per_s": 0.0,
            "tag_stats": {},
        }, error)

    def _record(self, n_vertices, n_edges, config, source, kernel_fields,
                error=None):
        record = {
            "n_vertices": int(n_vertices),
            "n_edges": int(n_edges),
            "embedding_dim": int(self.embedding_dim),
            "kernel": self.kernel,
            **kernel_fields,
            "source": source,
            # Provenance: the DES engine (fast / reference) that
            # produced the record's host-throughput numbers.  Every
            # loop runs on the one binary-heap event queue; its name
            # stays in the record schema.
            "scheduler": "heap",
            "engine": config.engine,
        }
        if config.degradation is not None:
            # Provenance next to "source": a record measured on a
            # degraded fabric must say so wherever it travels (cache,
            # checkpoint manifest, figures, CLI tables).
            record["degradation"] = asdict(config.degradation)
        if error is not None:
            record["error"] = error.payload()
        return record


def spmm_task(dataset, embedding_dim, kernel="dma", max_vertices=16384,
              seed=0, window_edges=None, **config_overrides):
    """Build an :class:`SpMMTask` from keyword config overrides.

    ``spmm_task("products", 256, n_cores=8, dram_latency_ns=90)`` — the
    overrides are canonically sorted so logically equal points always
    produce the same task (and the same cache key).
    """
    return SpMMTask(
        dataset=dataset,
        embedding_dim=embedding_dim,
        kernel=kernel,
        max_vertices=max_vertices,
        seed=seed,
        window_edges=window_edges,
        overrides=tuple(sorted(config_overrides.items())),
    )


#: The config fields :func:`run_sweep` can set on every task at once.
KNOBS = ("check_level", "degradation", "engine")


def with_knobs(tasks, **knobs):
    """``tasks`` with every knob (:data:`KNOBS`) that is not ``None``
    merged into each task's config (:meth:`SpMMTask.with_config`).

    The knobs are config fields, so they are part of a task's cache key
    and of a checkpoint manifest's name: apply them before either is
    taken.  A task without ``with_config`` (a fault wrapper) passes
    through unchanged.
    """
    fields = {name: value for name, value in knobs.items()
              if value is not None}
    return [task.with_config(**fields)
            if fields and hasattr(task, "with_config") else task
            for task in tasks]


def default_workers():
    """Worker count: ``$REPRO_SWEEP_WORKERS`` or ``min(4, cpus)``.

    A non-integer environment value warns and falls back to the default
    rather than crashing the sweep before it starts.
    """
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring non-integer REPRO_SWEEP_WORKERS={env!r}; "
                "using the default worker count",
                RuntimeWarning,
                stacklevel=2,
            )
    return max(1, min(4, os.cpu_count() or 1))


@dataclass
class SweepReport:
    """Outcome of one :func:`run_sweep` call.

    ``records`` is ordered exactly like the submitted task list;
    ``failures`` holds the error payloads of points that ended degraded
    (``"skip"``/``"fallback"`` policies), and ``resumed`` counts points
    restored from a checkpoint manifest.  ``outcomes``, in task order
    too, says how each record was obtained: ``"resumed"``,
    ``"cached"``, ``"computed"``, or ``"failed"`` (degraded by the
    policy), so a caller that batches several logical runs can account
    for each one separately.
    """

    tasks: list
    records: list
    cache_hits: int
    cache_misses: int
    workers: int
    wall_s: float
    failures: list = field(default_factory=list)
    resumed: int = 0
    outcomes: list = field(default_factory=list)

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def summary(self):
        text = (f"{len(self.records)} point(s) in {self.wall_s:.2f}s "
                f"({self.cache_hits} cached, {self.cache_misses} computed, "
                f"{self.workers} worker(s))")
        if self.resumed:
            text += f"; {self.resumed} resumed from checkpoint"
        if self.failures:
            text += f"; {len(self.failures)} degraded/failed"
        return text


def run_sweep(tasks, workers=None, cache=None, progress=None, *,
              timeout=None, retries=0, backoff_s=0.25, backoff_cap_s=8.0,
              jitter=0.25, on_error="raise", checkpoint=None, resume=False,
              check_level=None, degradation=None, engine=None):
    """Run every task; returns a :class:`SweepReport`.

    Parameters
    ----------
    tasks:
        Iterable of :class:`SpMMTask` (or any picklable object with
        ``run()``, ``label()`` and ``key_payload()``; an optional
        ``fallback_record(error)`` enables the ``"fallback"`` policy).
    workers:
        Process count; ``None`` uses :func:`default_workers`, ``1``
        runs inline with no pool at all (timeouts then cannot be
        enforced — there is no worker to kill).
    cache:
        :class:`~repro.runtime.cache.ResultCache`; ``None`` disables
        caching.  Hits are resolved in the parent before any process
        spawns, so a fully warm sweep never forks.  A failing cache
        write (full disk, read-only directory) warns and continues.
    progress:
        :class:`~repro.runtime.progress.ProgressTracker`; ``None``
        creates a silent one.
    timeout:
        Per-task wall-clock budget in seconds (measured from the
        moment the point enters a worker; submission is windowed to the
        pool width so queueing does not count).  On expiry the worker
        processes are killed, the pool respawned, and the point charged
        a :class:`TaskTimeout` attempt; in-flight innocents are
        re-submitted without being charged.
    retries:
        Extra attempts per point after a retryable failure (timeout,
        worker crash, generic exception).  ``SimulationDiverged`` is
        deterministic and never retried.
    backoff_s / backoff_cap_s / jitter:
        Retry delay: ``min(cap, backoff * 2**(attempt-1))`` plus up to
        ``jitter`` of itself (deterministic RNG).
    on_error:
        Policy once attempts are exhausted: ``"raise"`` aborts the
        sweep with the structured error, ``"skip"`` stores a
        ``"source": "failed"`` record, ``"fallback"`` degrades the
        point to the task's analytical model record
        (``"source": "model_fallback"``).
    checkpoint:
        :class:`~repro.runtime.checkpoint.SweepCheckpoint`; completed
        records are flushed incrementally (failures and fallbacks are
        not, so a resumed sweep retries them).
    resume:
        Load the checkpoint manifest first and skip the points it
        already holds.
    check_level / degradation / engine:
        The task knobs, applied by :func:`with_knobs` before any key is
        taken.  ``check_level`` runs every task under the runtime
        invariant sanitizer at that level; an
        :class:`~repro.runtime.errors.InvariantViolation` is
        deterministic and therefore never retried, like
        ``SimulationDiverged``.  ``degradation``, a
        :class:`~repro.piuma.degradation.DegradationSpec`, runs the
        whole sweep on the same degraded fabric and lands in the
        records' ``"degradation"`` provenance field; a
        :class:`~repro.runtime.errors.HardwareExhausted` point is
        deterministic and never retried.  ``engine`` (``"fast"`` or
        ``"reference"``) picks the DES engine: engines are
        bit-identical in results, and the records' ``"engine"``
        provenance field names it.  A caller that names a checkpoint
        manifest applies the knobs itself first (:func:`with_knobs`),
        so that the manifest's name covers them.
    """
    tasks = with_knobs(tasks, check_level=check_level,
                       degradation=degradation, engine=engine)
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
        )
    if retries < 0:
        raise ValueError("retries must be non-negative")
    failures = []

    def exhausted(task, error):
        """Attempts exhausted (or unretryable error): apply on_error."""
        if on_error == "raise":
            raise error
        failures.append(error.payload())
        maker = getattr(task, "fallback_record", None)
        if on_error == "fallback" and maker is not None:
            return maker(error)
        return failure_record(error)

    fields, _stats = run_batch(
        tasks, workers, cache, checkpoint, resume, progress, exhausted,
        timeout=timeout, retries=retries, backoff_s=backoff_s,
        backoff_cap_s=backoff_cap_s, jitter=jitter,
    )
    if checkpoint is not None:
        # The sweep ran to completion: compact the append-only manifest
        # so interrupted-and-resumed campaigns do not grow it without
        # bound (one line per surviving key; crash-safe via rename).
        # The CLI discards the manifest entirely when nothing failed.
        try:
            checkpoint.compact()
        except (OSError, AttributeError):
            pass
    return SweepReport(tasks=tasks, failures=failures, **fields)


def run_batch(tasks, workers, cache, checkpoint, resume, progress,
              exhausted, *, timeout=None, retries=0, backoff_s=0.0,
              backoff_cap_s=0.0, jitter=0.0, hedge=None, annotate=None):
    """The body :func:`run_sweep` and
    :func:`~repro.runtime.shard.run_shards` share.

    Resolves what needs no work first — checkpoint-manifest records
    (``resume``) and cache hits, both reported to ``progress`` as
    cached — then executes the misses: inline when ``workers <= 1`` or
    when a lone miss has no ``timeout`` to enforce, otherwise on a
    private :class:`~repro.runtime.jobs.JobScheduler` (no breaker, no
    coalescing, ``max_pending`` equal to the misses, ``hedge`` passed
    through).  Each computed record is written to the cache and the
    checkpoint as computed (a failing write warns once and continues)
    and reported to ``progress`` with its wall-clock, measured from the
    dispatch of the attempt that produced it.

    ``exhausted(task, error)`` is the caller's policy for a miss whose
    attempts are spent: it returns the degraded record to report (never
    cached or checkpointed, so a later run retries the point) or
    raises, which aborts the batch and kills the pool.
    ``annotate(record, job)`` may replace a record computed on the pool
    in the returned list (not in the cache); inline records are
    returned as computed.

    Returns ``(fields, stats)``: the report fields both callers share
    (``records`` and ``outcomes`` in task order, ``cache_hits``,
    ``cache_misses``, ``workers``, ``wall_s``, ``resumed``) and the
    :class:`~repro.runtime.jobs.SchedulerStats` of the execution.
    """
    if workers is None:
        workers = default_workers()
    if progress is None:
        progress = ProgressTracker(total=len(tasks))
    started = time.perf_counter()
    records = [None] * len(tasks)
    outcomes = [None] * len(tasks)
    keys = [None] * len(tasks)
    if cache is not None or checkpoint is not None:
        for index, task in enumerate(tasks):
            payload = task.key_payload()
            keys[index] = (cache.key_for(payload) if cache is not None
                           else cache_key(payload))
    if checkpoint is not None:
        # Declare the manifest live *before* any point resolves: a
        # resumed batch may restore everything from the manifest and
        # never append again, and gc_manifests judges liveness by
        # mtime — without this, a long-resumed batch's manifest could
        # be collected out from under it by concurrent housekeeping.
        try:
            checkpoint.touch()
        except (OSError, AttributeError):
            pass
    prior = checkpoint.load() if checkpoint is not None and resume else {}
    misses = []
    for index, task in enumerate(tasks):
        record = prior.get(keys[index])
        outcome = "resumed"
        if record is None and cache is not None:
            record = cache.get(keys[index])
            outcome = "cached"
        if record is None:
            misses.append(index)
            continue
        records[index] = record
        outcomes[index] = outcome
        progress.point_done(task.label(), 0.0,
                            record.get("sim_time_ns", 0.0), cached=True)
    warned = []

    def store(what, write):
        # A batch that already paid for the simulation must not die on
        # a bookkeeping write: full disk or a read-only directory
        # degrades to "unpersisted" with one warning.
        try:
            write()
        except OSError as error:
            if not warned:
                warned.append(error)
                warnings.warn(
                    f"{what} write failed ({error}); "
                    "continuing without persisting records",
                    RuntimeWarning,
                )

    def finish(index, record, wall_s, job=None):
        if cache is not None:
            store("result-cache", lambda: cache.put(
                keys[index], record, payload=tasks[index].key_payload()))
        if checkpoint is not None:
            store("checkpoint",
                  lambda: checkpoint.flush(keys[index], record))
        records[index] = (record if job is None or annotate is None
                          else annotate(record, job))
        outcomes[index] = "computed"
        progress.point_done(
            tasks[index].label(), wall_s,
            record.get("sim_time_ns", 0.0), cached=False,
            events=record.get("events", 0),
            host_wall_s=record.get("host_wall_s", 0.0),
        )

    def fail(index, error, wall_s):
        record = exhausted(tasks[index], error)
        records[index] = record
        outcomes[index] = "failed"
        progress.point_done(
            tasks[index].label(), wall_s,
            record.get("sim_time_ns", 0.0), cached=False,
            status=record.get("source"),
        )

    # Inline when a pool buys nothing: one worker, or a lone miss with
    # no timeout that only killing a worker could enforce.
    if not misses or workers <= 1 or (len(misses) == 1 and timeout is None):
        pool_workers = 1
        stats = SchedulerStats()
        rng = random.Random(1729)
        for index in misses:
            attempts = 0
            while True:
                attempts += 1
                stats.dispatched += 1
                began = time.perf_counter()
                try:
                    record = tasks[index].run()
                except Exception as raw:
                    error = wrap_failure(raw, tasks[index].label(), attempts)
                    if error.retryable and attempts <= retries:
                        stats.retried += 1
                        time.sleep(backoff_delay(attempts, backoff_s,
                                                 backoff_cap_s, jitter, rng))
                        continue
                    fail(index, error, time.perf_counter() - began)
                else:
                    finish(index, record, time.perf_counter() - began)
                break
    else:
        pool_workers = min(workers, len(misses))
        landed = queue.SimpleQueue()

        def on_outcome(job, outcome):
            began = job.started_at
            landed.put((job, outcome, 0.0 if began is None
                        else time.perf_counter() - began))

        scheduler = JobScheduler(
            pool_workers, timeout=timeout, retries=retries,
            max_pending=len(misses), backoff_s=backoff_s,
            backoff_cap_s=backoff_cap_s, jitter=jitter, hedge=hedge,
            on_result=on_outcome, on_failure=on_outcome,
        )
        try:
            index_of = {scheduler.submit(tasks[index]): index
                        for index in misses}
            for _ in misses:
                job, outcome, wall_s = landed.get()
                if isinstance(outcome, TaskError):
                    fail(index_of[job], outcome, wall_s)
                else:
                    finish(index_of[job], outcome, wall_s, job)
        finally:
            # Kills the pool: its workers are idle unless a policy
            # raised mid-flight.
            scheduler.close()
        stats = scheduler.stats

    return {
        "records": records,
        "outcomes": outcomes,
        "cache_hits": outcomes.count("cached"),
        "cache_misses": len(misses),
        "workers": pool_workers,
        "wall_s": time.perf_counter() - started,
        "resumed": outcomes.count("resumed"),
    }, stats
