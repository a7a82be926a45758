"""Experiment-execution runtime: sweeps, jobs, cache, serving.

The paper's figures are all sweeps over the (pure, deterministic)
discrete-event simulator.  This package makes experiment execution a
first-class subsystem — batch *and* online:

* :mod:`repro.runtime.runner` — fan independent sweep points across a
  process pool with deterministic result ordering, per-task timeouts,
  bounded retries, pool respawn, and skip/fallback error policies;
* :mod:`repro.runtime.shard` — sharded sweep points for the multi-node
  scale-out scenario: one DES task per graph partition, with exact
  conservation counters and a bit-identity contract at one shard;
* :mod:`repro.runtime.jobs` — the one dispatch core under sweeps,
  shards, and the service: the worker pool (:class:`ExecPool`) and the
  :class:`JobScheduler` that alone drives it, with timeouts, retries,
  hedging, bounded admission, coalescing, and a circuit breaker;
* :mod:`repro.runtime.service` — the tiered prediction frontend
  (``repro serve``): analytical tier 0, shared-cache tier 1, DES
  tier 2 with graceful degradation to the model under deadline,
  saturation, and breaker-open conditions;
* :mod:`repro.runtime.breaker` — the circuit breaker state machine
  (closed / open / half-open) guarding the worker pool;
* :mod:`repro.runtime.cache` — content-addressed on-disk JSON records
  keyed by (config fields, dataset spec, kernel, point, code salt),
  with corrupt-entry quarantine and an LRU ``max_bytes`` budget;
* :mod:`repro.runtime.checkpoint` — append-only sweep manifests for
  crash-safe resume of interrupted campaigns;
* :mod:`repro.runtime.errors` — the failure taxonomy (timeouts, worker
  crashes, diverged simulations, saturation, open circuits) with
  picklable structured payloads;
* :mod:`repro.runtime.progress` — per-point wall-clock / simulated-ns /
  cache-hit / degradation instrumentation;
* :mod:`repro.runtime.faults` — deterministic fault injection for
  testing every failure path, batch and service-scoped;
* :mod:`repro.runtime.chaos` — seeded chaos orchestration composing
  those fault points into reproducible schedules driven end-to-end
  through every frontend, with recovery invariants verified
  (``repro chaos``).

Benchmarks, the ``repro sweep``/``simulate``/``calibrate``/``serve``
CLI commands, and future distributed backends all route through
:func:`run_sweep` and :class:`PredictionService`.
"""

from repro.runtime.breaker import CircuitBreaker
from repro.runtime.cache import (
    CODE_VERSION,
    MANIFEST_NAME,
    CacheStats,
    ResultCache,
    cache_key,
    default_cache_dir,
)
from repro.runtime.checkpoint import SweepCheckpoint, gc_manifests
from repro.runtime.errors import (
    CircuitOpen,
    HardwareExhausted,
    QueueSaturated,
    SimulationDiverged,
    TaskError,
    TaskTimeout,
    WorkerCrash,
    failure_record,
    wrap_failure,
)
from repro.runtime.chaos import (
    CHAOS_FRONTENDS,
    ChaosSchedule,
    run_chaos,
)
from repro.runtime.faults import CrashTask, FaultyTask, ServiceFaultInjector
from repro.runtime.jobs import (
    ExecPool,
    Job,
    JobScheduler,
    SchedulerStats,
    backoff_delay,
)
from repro.runtime.progress import PointMetrics, ProgressTracker
from repro.runtime.runner import (
    ON_ERROR_POLICIES,
    SpMMTask,
    SweepReport,
    default_workers,
    run_sweep,
    spmm_task,
)
from repro.runtime.shard import (
    ShardRecovery,
    ShardRunReport,
    ShardTask,
    aggregate_conserved,
    conserved_counters,
    run_shards,
    shard_geometry,
    shard_subgraph,
    shard_tasks,
)
from repro.runtime.service import (
    GracefulShutdown,
    PredictionService,
    make_server,
    parse_query,
)

__all__ = [
    "CHAOS_FRONTENDS",
    "CODE_VERSION",
    "CacheStats",
    "ChaosSchedule",
    "CircuitBreaker",
    "CircuitOpen",
    "CrashTask",
    "ExecPool",
    "FaultyTask",
    "GracefulShutdown",
    "HardwareExhausted",
    "Job",
    "JobScheduler",
    "MANIFEST_NAME",
    "ON_ERROR_POLICIES",
    "PointMetrics",
    "PredictionService",
    "ProgressTracker",
    "QueueSaturated",
    "ResultCache",
    "SchedulerStats",
    "ServiceFaultInjector",
    "ShardRecovery",
    "ShardRunReport",
    "ShardTask",
    "SimulationDiverged",
    "SpMMTask",
    "SweepCheckpoint",
    "SweepReport",
    "TaskError",
    "TaskTimeout",
    "WorkerCrash",
    "aggregate_conserved",
    "backoff_delay",
    "cache_key",
    "conserved_counters",
    "default_cache_dir",
    "default_workers",
    "failure_record",
    "gc_manifests",
    "make_server",
    "parse_query",
    "run_chaos",
    "run_shards",
    "run_sweep",
    "shard_geometry",
    "shard_subgraph",
    "shard_tasks",
    "spmm_task",
    "wrap_failure",
]
