"""Sharded sweep points: one DES task per graph partition.

The multi-node scale-out scenario (``repro.piuma.multinode``) shards a
graph with :mod:`repro.graphs.partition` and simulates every shard as
its own discrete-event task on one PIUMA node's worth of hardware.  A
:class:`ShardTask` is exactly an :class:`~repro.runtime.runner.SpMMTask`
plus the partition coordinates ``(n_shards, shard, strategy)`` — it
rides the same process pool, content-addressed cache, checkpoint
manifest, retry and fallback machinery.  Its records come from the
same builders (:meth:`~repro.runtime.runner.SpMMTask.simulation_record`
and :meth:`~repro.runtime.runner.SpMMTask.model_record`), so they keep
the full monolithic schema and every downstream consumer (figures,
calibration, the CLI) reads them unchanged; a shard adds only
``"shard"`` (partition/halo geometry) and ``"conserved"`` (counters).

Two contracts make the sharding trustworthy (enforced by
``tests/runtime/test_shard.py``):

* **1-shard identity** — a single-shard task simulates the *identical*
  CSR (same arrays, same auto window, same config), so its DES
  observables are bit-identical to the monolithic task on every engine
  backend;
* **conservation** — shards partition rows and edges exactly, so the
  :func:`conserved_counters` (edges, bytes, DMA descriptors, flops)
  summed over any K-shard decomposition equal the monolithic totals,
  whatever the strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.runtime.runner import (
    SpMMTask,
    SweepReport,
    _materialized,
    run_batch,
)


def shard_subgraph(adj, row_start, row_end):
    """CSR of rows ``[row_start, row_end)`` with *global* column ids.

    Column indices stay in the full graph's vertex space (they name
    feature rows, local or ghost), so the shard matrix keeps the full
    column count.  For the whole-graph range this reproduces ``adj``
    element for element — the 1-shard identity contract.
    """
    from repro.sparse.csr import CSRMatrix

    lo = int(adj.indptr[row_start])
    hi = int(adj.indptr[row_end])
    indptr = adj.indptr[row_start : row_end + 1] - adj.indptr[row_start]
    return CSRMatrix(
        indptr,
        adj.indices[lo:hi],
        adj.data[lo:hi],
        (int(row_end - row_start), adj.n_cols),
    )


def shard_geometry(adj, n_shards, shard, strategy="block"):
    """Partition ``adj`` and slice out one shard with halo accounting.

    Returns ``(sub, info)``: the shard's CSR (global column ids) and a
    plain-JSON geometry dict — row range, owned/local/cut edge counts,
    and the per-owner halo arrays (``recv_edges_by_owner`` counts cut
    edges by remote owner; ``ghosts_by_owner`` counts *distinct* remote
    vertices, i.e. the deduplicated feature rows a halo exchange
    actually ships).
    """
    from repro.graphs.partition import partition_bounds, partition_graph

    part = partition_graph(adj, n_shards, strategy=strategy)
    bounds = partition_bounds(part, n_shards)
    lo, hi = int(bounds[shard]), int(bounds[shard + 1])
    sub = shard_subgraph(adj, lo, hi)
    dst_owner = part[sub.indices] if sub.nnz else np.empty(0, np.int64)
    local = int(np.count_nonzero(dst_owner == shard))
    cut = sub.nnz - local
    recv_edges = np.bincount(dst_owner, minlength=n_shards).astype(np.int64)
    recv_edges[shard] = 0
    # Deduplicated halo: one ghost feature row per distinct remote
    # vertex per exchange (what a real halo actually ships).
    ghosts = np.zeros(n_shards, dtype=np.int64)
    if cut:
        remote = sub.indices[dst_owner != shard]
        unique = np.unique(remote)
        owners = part[unique]
        ghosts = np.bincount(owners, minlength=n_shards).astype(np.int64)
    return sub, {
        "n_shards": int(n_shards),
        "shard": int(shard),
        "strategy": strategy,
        "row_start": lo,
        "row_end": hi,
        "rows": hi - lo,
        "edges": int(sub.nnz),
        "local_edges": local,
        "cut_edges": int(cut),
        "ghost_vertices": int(ghosts.sum()),
        "recv_edges_by_owner": [int(x) for x in recv_edges],
        "ghosts_by_owner": [int(x) for x in ghosts],
    }


def conserved_counters(n_rows, n_edges, embedding_dim, config):
    """Exactly-additive traffic counters of one SpMM (shard or whole).

    Every term is linear in ``(n_rows, n_edges)``, so summing the
    counters of a disjoint row/edge decomposition reproduces the
    monolithic numbers exactly — the conservation oracle of the sharded
    runner.  ``dma_requests`` counts the DMA kernel's fused
    multiply-read descriptors (one per edge, see
    :mod:`repro.piuma.spmm_dma`).
    """
    feature = embedding_dim * config.feature_bytes
    return {
        "rows": int(n_rows),
        "edges": int(n_edges),
        "nnz_bytes": int(n_edges * (config.index_bytes + config.value_bytes)),
        "feature_read_bytes": int(n_edges * feature),
        "output_write_bytes": int(n_rows * feature),
        "dma_requests": int(n_edges),
        "flops": int(2 * n_edges * embedding_dim),
    }


def aggregate_conserved(records):
    """Sum the ``"conserved"`` counters across shard records."""
    totals = {}
    for record in records:
        for key, value in record["conserved"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


@dataclass(frozen=True)
class ShardTask(SpMMTask):
    """One shard of a partitioned graph as a sweep point.

    Attributes (beyond :class:`SpMMTask`)
    -------------------------------------
    n_shards:
        Partition count — one simulated PIUMA node per shard.
    shard:
        This task's shard index in ``[0, n_shards)``.
    strategy:
        Partitioning strategy name
        (:data:`repro.graphs.partition.PARTITION_STRATEGIES`).
    """

    n_shards: int = 1
    shard: int = 0
    strategy: str = "block"

    def __post_init__(self):
        from repro.graphs.partition import PARTITION_STRATEGIES

        super().__post_init__()
        if self.n_shards < 1:
            raise ValueError("n_shards must be positive")
        if not 0 <= self.shard < self.n_shards:
            raise ValueError(
                f"shard must be in [0, {self.n_shards}), got {self.shard}"
            )
        if self.strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"strategy must be one of {PARTITION_STRATEGIES}, "
                f"got {self.strategy!r}"
            )

    def label(self):
        base = super().label()
        return f"{base} [shard {self.shard + 1}/{self.n_shards} " \
               f"{self.strategy}]"

    def key_payload(self):
        """Monolithic payload plus the partition coordinates.

        The extra keys keep shard records from ever aliasing monolithic
        ones in the content cache, even for ``n_shards=1`` (the records
        carry different schemas).
        """
        payload = super().key_payload()
        payload["partition"] = {
            "n_shards": self.n_shards,
            "shard": self.shard,
            "strategy": self.strategy,
        }
        return payload

    def run(self):
        """Simulate this shard; returns the monolithic record schema
        plus ``"shard"`` (partition/halo geometry) and ``"conserved"``
        (exactly-additive traffic counters).

        A shard that owns no edges is legal but has no window to
        simulate: its ``"simulation"`` record is the all-zero Eq.5-only
        one.
        """
        return self._shard_record(simulate=True)

    def fallback_record(self, error=None):
        """Eq.5 stand-in for a failed shard, with shard geometry intact
        (the assembly still needs the halo volumes)."""
        return self._shard_record(error=error)

    def _shard_record(self, simulate=False, error=None):
        adj = _materialized(self.dataset, self.max_vertices, self.seed)
        config = self.config()
        sub, info = shard_geometry(adj, self.n_shards, self.shard,
                                   self.strategy)
        if simulate and sub.nnz:
            record = self.simulation_record(sub, config)
        else:
            record = self.model_record(
                sub.n_rows, sub.nnz, config, error=error,
                source="simulation" if simulate else "model_fallback",
            )
        record["shard"] = info
        record["conserved"] = conserved_counters(
            sub.n_rows, sub.nnz, self.embedding_dim, config
        )
        return record

    def shard_fallback_record(self, error=None):
        """Eq.5 stand-in for a shard whose failure *domain* is exhausted.

        Same schema and numbers as :meth:`fallback_record`, but flagged
        ``"source": "shard_fallback"`` — the provenance the partial
        multi-node assembly uses to widen its envelope verdict instead
        of aborting.  The conserved counters are exact (they depend
        only on geometry), so conservation holds even for a degraded
        assembly.
        """
        record = self.fallback_record(error)
        record["source"] = "shard_fallback"
        return record


# ----------------------------------------------------------------------
# Per-shard failure domains: bounded retry, hedged re-execution,
# degraded fallback.

#: Policies once a shard's failure domain is exhausted.
ON_EXHAUSTED_POLICIES = ("fallback", "raise")


@dataclass(frozen=True)
class ShardRecovery:
    """Failure model of one multi-node run's shard set.

    Each shard is its own failure domain: attempts against it are
    retried up to ``retries`` extra times (crashes, timeouts, and
    generic exceptions; deterministic failures like a diverged
    simulation are never retried), stragglers are *hedged* — a
    speculative duplicate launched on a free worker once the shard has
    been running ``hedge_after_s`` seconds (or, when ``None``,
    ``hedge_factor`` times the median duration of already-finished
    shards, floored at ``min_hedge_s``); first result wins, the loser
    is cancelled, and ties break deterministically toward the earlier
    attempt.  A shard that exhausts its domain is degraded to the
    task's Eq.5 estimate (``"source": "shard_fallback"``) under the
    default ``on_exhausted="fallback"`` policy, or aborts the run under
    ``"raise"``.
    """

    retries: int = 1
    timeout: float | None = None
    hedge_after_s: float | None = None
    hedge_factor: float = 3.0
    min_hedge_s: float = 0.05
    on_exhausted: str = "fallback"

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.on_exhausted not in ON_EXHAUSTED_POLICIES:
            raise ValueError(
                f"on_exhausted must be one of {ON_EXHAUSTED_POLICIES}, "
                f"got {self.on_exhausted!r}"
            )
        if self.hedge_factor <= 1.0:
            raise ValueError("hedge_factor must be > 1")

    def hedge_threshold(self, durations, shards):
        """Seconds after which a running shard is hedged, or ``None``.

        The :class:`~repro.runtime.jobs.JobScheduler` hedge policy:
        ``durations`` are the run times of the shards finished so far
        out of ``shards``.  The adaptive threshold waits until half the
        fleet has reported.
        """
        if self.hedge_after_s is not None:
            return self.hedge_after_s
        if len(durations) * 2 >= max(2, shards):
            median = sorted(durations)[len(durations) // 2]
            return max(self.min_hedge_s, self.hedge_factor * median)
        return None


@dataclass
class ShardRunReport(SweepReport):
    """Outcome of one :func:`run_shards` call.

    A :class:`~repro.runtime.runner.SweepReport` (``records`` and
    ``outcomes`` in submission order, ``failures`` as structured
    payloads, cache and resume accounting) plus the per-run
    ``recovery`` counters — how much work retries, hedges, and
    fallbacks respectively saved.
    """

    recovery: dict = field(default_factory=dict)


def _shard_fallback(task, error):
    """Degrade one exhausted shard: prefer the shard-provenance record."""
    maker = getattr(task, "shard_fallback_record", None)
    if maker is None:
        maker = getattr(task, "fallback_record", None)
    if maker is not None:
        return maker(error)
    from repro.runtime.errors import failure_record

    return failure_record(error)


def run_shards(tasks, recovery=None, *, workers=None, cache=None,
               checkpoint=None, resume=False, progress=None):
    """Run shard tasks under per-shard failure domains with hedging.

    The multi-node counterpart of :func:`~repro.runtime.runner.
    run_sweep`, on the same batch body and dispatch core: same
    submission-order records, content-cache and checkpoint integration,
    pool respawn on crashes — but retries are immediate, failure
    handling is per *shard domain* (see :class:`ShardRecovery`), and
    stragglers are speculatively re-executed on free workers.  Shard
    tasks are deterministic, so whichever of a primary/hedge pair
    finishes first returns the identical record; the race only moves
    wall-clock, never results.  A record computed on the pool carries
    its ``"recovery"`` provenance (attempts, whether it was hedged,
    which attempt won); the cache and checkpoint hold the raw record.

    Returns a :class:`ShardRunReport`.  Degraded (fallback) records are
    never written to the cache or the checkpoint manifest — a later run
    retries those shards, exactly like ``run_sweep``'s policy.
    """
    tasks = list(tasks)
    if recovery is None:
        recovery = ShardRecovery()
    failures = []

    def exhausted(task, error):
        """Failure domain spent: degrade or abort per policy."""
        if recovery.on_exhausted == "raise":
            raise error
        failures.append(error.payload())
        return _shard_fallback(task, error)

    def annotate(record, job):
        return {**record, "recovery": {
            "attempts": job.attempts,
            "hedged": job.hedged,
            "winner": job.winner,
        }}

    fields, stats = run_batch(
        tasks, workers, cache, checkpoint, resume, progress, exhausted,
        timeout=recovery.timeout, retries=recovery.retries,
        hedge=recovery.hedge_threshold, annotate=annotate,
    )
    return ShardRunReport(tasks=tasks, failures=failures, recovery={
        "attempts": stats.dispatched,
        "retries": stats.retried,
        "crashes": stats.crashes,
        "timeouts": stats.timeouts,
        "hedges_launched": stats.hedges_launched,
        "hedges_won": stats.hedges_won,
        "hedges_cancelled": stats.hedges_cancelled,
        "fallbacks": len(failures),
    }, **fields)


def shard_tasks(dataset, embedding_dim, n_shards, strategy="block",
                kernel="dma", max_vertices=16384, seed=0,
                window_edges=None, **config_overrides):
    """Build the ``n_shards`` :class:`ShardTask` list of one multi-node
    run (keyword config overrides canonically sorted, like
    :func:`~repro.runtime.runner.spmm_task`)."""
    overrides = tuple(sorted(config_overrides.items()))
    return [
        ShardTask(
            dataset=dataset,
            embedding_dim=embedding_dim,
            kernel=kernel,
            max_vertices=max_vertices,
            seed=seed,
            window_edges=window_edges,
            overrides=overrides,
            n_shards=n_shards,
            shard=shard,
            strategy=strategy,
        )
        for shard in range(n_shards)
    ]
