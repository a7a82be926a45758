"""Partition-aware multi-node scale-out over the sharded DES.

The paper characterizes GCN scalability up to what one simulated PIUMA
node can show; this module makes multi-node scale-out a *simulated*
scenario instead of the purely analytical treatment in
:mod:`repro.ext.distributed`.  A graph is sharded with
:mod:`repro.graphs.partition` (equal-vertex blocks, or the degree-aware
equal-edge-load blocks in the Accel-GCN lineage), every shard runs as
its own discrete-event task on one node's worth of hardware through the
ordinary sweep machinery (:func:`repro.runtime.run_sweep` — so shards
are checkpointed, retryable, and content-address-cached individually),
and the per-shard windows are assembled into an end-to-end bulk
synchronous estimate:

* **compute** — the slowest shard's projected SpMM time (all nodes
  start a layer together, so the straggler sets the phase length; the
  spread across shards *is* the load-imbalance cost a partition
  strategy pays);
* **halo exchange** — modeled as network ops on the inter-node tier of
  the HyperX: every shard ships one feature vector per *distinct*
  remote vertex it reads (deduplicated ghosts, what a real halo
  actually transfers), per-link volumes taken from the measured cut of
  the concrete partition, each node's send/recv serialized through its
  injection port plus one :attr:`~repro.piuma.config.PIUMAConfig.
  inter_node_latency_ns` round per active peer.

The Eq.5-derived DGAS aggregate
(:func:`repro.ext.distributed.piuma_multinode_spmm_time`) is the
analytical cross-check: a partitioned bulk-synchronous system pays cut
and imbalance costs the no-partition DGAS does not, and the tier-3
conformance envelope (:data:`repro.ext.distributed.MULTINODE_ENVELOPE`)
bounds the ratio between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.shard import aggregate_conserved, run_shards, shard_tasks

#: How much a degraded assembly widens the per-kernel Eq.5 envelope:
#: each failed shard's Eq.5 stand-in can pull the assembled time toward
#: the analytical model on either side, so both bounds relax by
#: ``1 + WIDENING * degraded_fraction``.
DEGRADED_ENVELOPE_WIDENING = 2.0


@dataclass(frozen=True)
class HaloFabric:
    """Inter-node network model of the halo exchange.

    One injection/ejection port per node at ``link_bandwidth_gbps``
    (GB/s == bytes/ns), ``latency_ns`` per message exchange with an
    active peer.  :meth:`from_config` takes both numbers from the
    PIUMA config's inter-node tier, so degradation or sweep overrides
    of the network flow straight into the halo price.
    """

    link_bandwidth_gbps: float
    latency_ns: float
    feature_bytes: int = 4

    @classmethod
    def from_config(cls, config):
        return cls(
            link_bandwidth_gbps=config.network_bandwidth_gbps,
            latency_ns=config.inter_node_latency_ns,
            feature_bytes=config.feature_bytes,
        )

    def exchange_ns(self, send_bytes, recv_bytes, peers):
        """Time one node spends in the halo phase.

        Full-duplex port: send and receive streams overlap, so the
        wire time is the larger of the two volumes, plus one latency
        per active peer (message startup is not pipelined across
        peers — conservative, and irrelevant once volumes dominate).
        """
        wire = max(send_bytes, recv_bytes) / self.link_bandwidth_gbps
        return wire + peers * self.latency_ns


@dataclass(frozen=True)
class MultinodeEstimate:
    """End-to-end multi-node SpMM assembled from per-shard DES windows.

    All times are per SpMM invocation (one GCN layer's aggregation) at
    the *simulated* (possibly down-scaled) graph size; use
    :attr:`scale_factor` to project to the full dataset.
    """

    dataset: str
    n_nodes: int
    strategy: str
    embedding_dim: int
    compute_ns: float          #: slowest shard (bulk-synchronous phase)
    comm_ns: float             #: halo exchange, max over nodes
    per_shard_ns: tuple        #: each shard's projected SpMM time
    shard_edges: tuple         #: each shard's owned edge count
    cut_edges: int             #: edges crossing shards (sum over links)
    total_edges: int           #: edges of the simulated graph
    halo_bytes: int            #: deduplicated ghost feature volume/layer
    send_bytes: tuple          #: per-node halo bytes sent
    recv_bytes: tuple          #: per-node halo bytes received
    balance: float             #: max shard edge load / mean
    conserved: dict            #: summed shard counters (exact)
    scale_factor: float = 1.0  #: full |E| / simulated |E|
    shard_sources: tuple = ()  #: each record's "source" provenance
    degraded_shards: int = 0   #: shards assembled from a fallback

    @property
    def time_ns(self):
        return self.compute_ns + self.comm_ns

    @property
    def comm_share(self):
        return self.comm_ns / self.time_ns if self.time_ns else 0.0

    @property
    def cut_fraction(self):
        return self.cut_edges / self.total_edges if self.total_edges else 0.0

    @property
    def full_time_ns(self):
        """Projection to the full dataset: steady-state throughput
        scaling, the same linear-in-edges projection the single-node
        windowed DES applies (``projected_time_ns``)."""
        return self.time_ns * self.scale_factor

    @property
    def degraded(self):
        """True when any shard was assembled from a fallback record."""
        return self.degraded_shards > 0

    def row(self):
        """Plain-JSON summary (bench columns, CLI tables)."""
        return {
            "dataset": self.dataset,
            "n_nodes": self.n_nodes,
            "strategy": self.strategy,
            "embedding_dim": self.embedding_dim,
            "compute_ns": self.compute_ns,
            "comm_ns": self.comm_ns,
            "time_ns": self.time_ns,
            "full_time_ns": self.full_time_ns,
            "comm_share": self.comm_share,
            "cut_edges": self.cut_edges,
            "cut_fraction": self.cut_fraction,
            "halo_bytes": self.halo_bytes,
            "balance": self.balance,
            "conserved": dict(self.conserved),
            "degraded_shards": self.degraded_shards,
            "shard_sources": list(self.shard_sources),
        }


def assemble_multinode(records, *, dataset, strategy, embedding_dim,
                       fabric, scale_factor=1.0):
    """Assemble shard records into a :class:`MultinodeEstimate`.

    ``records`` are the submission-ordered outputs of the shard tasks
    of one run (each carrying ``"shard"`` geometry and ``"conserved"``
    counters — fallback records qualify, their Eq.5 time standing in
    for the lost window).
    """
    if not records:
        raise ValueError("cannot assemble zero shard records")
    n_nodes = records[0]["shard"]["n_shards"]
    if len(records) != n_nodes:
        raise ValueError(
            f"expected {n_nodes} shard records, got {len(records)}"
        )
    per_shard_ns = tuple(
        float(r["projected_time_ns"]) for r in records
    )
    shard_edges = tuple(int(r["shard"]["edges"]) for r in records)
    total_edges = sum(shard_edges)
    cut_edges = sum(int(r["shard"]["cut_edges"]) for r in records)

    feature = embedding_dim * fabric.feature_bytes
    send = [0] * n_nodes
    recv = [0] * n_nodes
    peers = [set() for _ in range(n_nodes)]
    for r in records:
        p = r["shard"]["shard"]
        for q, ghosts in enumerate(r["shard"]["ghosts_by_owner"]):
            if q == p or not ghosts:
                continue
            volume = ghosts * feature
            recv[p] += volume
            send[q] += volume
            peers[p].add(q)
            peers[q].add(p)
    comm_ns = max(
        (fabric.exchange_ns(send[p], recv[p], len(peers[p]))
         for p in range(n_nodes)),
        default=0.0,
    ) if n_nodes > 1 else 0.0

    mean_edges = total_edges / n_nodes if n_nodes else 0.0
    balance = (max(shard_edges) / mean_edges) if mean_edges > 0 else 1.0
    sources = tuple(r.get("source", "simulation") for r in records)
    return MultinodeEstimate(
        dataset=dataset,
        n_nodes=n_nodes,
        strategy=strategy,
        embedding_dim=embedding_dim,
        compute_ns=max(per_shard_ns),
        comm_ns=comm_ns,
        per_shard_ns=per_shard_ns,
        shard_edges=shard_edges,
        cut_edges=cut_edges,
        total_edges=total_edges,
        halo_bytes=sum(send),
        send_bytes=tuple(send),
        recv_bytes=tuple(recv),
        balance=balance,
        conserved=aggregate_conserved(records),
        scale_factor=scale_factor,
        shard_sources=sources,
        degraded_shards=sum(1 for s in sources if s != "simulation"),
    )


def multinode_verdict(estimate, config, kernel="dma"):
    """Envelope verdict of one assembled estimate, degradation-aware.

    A fully simulated assembly is judged against the per-kernel Eq.5
    DGAS envelope (:data:`repro.ext.distributed.MULTINODE_ENVELOPES`)
    exactly as before: ``"ok"`` inside, ``"violated"`` outside.  When
    shards were assembled from fallback records, each one substitutes
    an analytical Eq.5 time for a DES window, so the envelope *widens*
    by ``1 + DEGRADED_ENVELOPE_WIDENING * degraded_fraction`` on both
    sides and the in-bounds verdict is the explicit ``"degraded"`` —
    the run is answerable, but its number must not be mistaken for a
    clean one.

    Returns ``{"verdict", "ratio", "envelope", "degraded_shards",
    "kernel"}`` (plain JSON).
    """
    from repro.ext.distributed import (
        MULTINODE_ENVELOPES,
        piuma_multinode_spmm_time,
    )

    low, high = MULTINODE_ENVELOPES[kernel]
    dgas_ns = piuma_multinode_spmm_time(
        estimate.conserved["rows"], estimate.total_edges,
        estimate.embedding_dim, config, estimate.n_nodes,
    )
    ratio = estimate.time_ns / dgas_ns if dgas_ns > 0 else 0.0
    widened = 1.0
    if estimate.degraded_shards:
        widened += (DEGRADED_ENVELOPE_WIDENING
                    * estimate.degraded_shards / estimate.n_nodes)
        low, high = low / widened, high * widened
    in_bounds = low <= ratio <= high
    if estimate.degraded_shards:
        verdict = "degraded" if in_bounds else "violated"
    else:
        verdict = "ok" if in_bounds else "violated"
    return {
        "verdict": verdict,
        "ratio": ratio,
        "dgas_ns": dgas_ns,
        "envelope": [low, high],
        "widened": widened,
        "degraded_shards": estimate.degraded_shards,
        "kernel": kernel,
    }


def _run_points(dataset, points, embedding_dim=None, kernel="dma",
                max_vertices=16384, seed=0, window_edges=None,
                config_overrides=None, sweep_kwargs=None,
                checkpoint_dir=None, resume=False, recovery=None,
                task_filter=None):
    """Shard, simulate, and assemble ``(strategy, n_nodes)`` points.

    The shard tasks of every point go out as one batch — one
    :func:`~repro.runtime.shard.run_shards` call under ``recovery``,
    one :func:`~repro.runtime.runner.run_sweep` call otherwise — so
    the points share one scheduler, one process pool, and one
    checkpoint manifest, and no worker idles at a barrier between
    points.  Records return in submission order; each point is
    assembled from its own slice.

    Returns ``(report, results)``: the batch report and, per point in
    order, ``(estimate, outcomes)`` — the assembled
    :class:`MultinodeEstimate` and the report ``outcomes`` of that
    point's shard tasks.
    """
    from repro.graphs.datasets import get_dataset
    from repro.piuma.config import PIUMAConfig
    from repro.runtime.checkpoint import SweepCheckpoint
    from repro.runtime.runner import KNOBS, run_sweep, with_knobs

    spec = get_dataset(dataset)
    if embedding_dim is None:
        embedding_dim = spec.feature_dim
    overrides = dict(config_overrides or {})
    groups = []
    for strategy, n_nodes in points:
        group = shard_tasks(
            dataset, embedding_dim, n_nodes, strategy=strategy,
            kernel=kernel, max_vertices=max_vertices, seed=seed,
            window_edges=window_edges, **overrides,
        )
        if task_filter is not None:
            group = list(task_filter(group))
        groups.append(group)
    kwargs = dict(sweep_kwargs or {})
    # The knobs are part of each task's identity: apply them before the
    # checkpoint manifest is named.
    tasks = with_knobs([task for group in groups for task in group],
                       **{knob: kwargs.pop(knob, None) for knob in KNOBS})
    checkpoint = None
    if checkpoint_dir is not None:
        checkpoint = SweepCheckpoint.for_tasks(tasks, directory=checkpoint_dir)
        kwargs.update(checkpoint=checkpoint, resume=resume)
    if recovery is not None:
        report = run_shards(
            tasks, recovery=recovery,
            workers=kwargs.get("workers"), cache=kwargs.get("cache"),
            checkpoint=checkpoint, resume=resume,
            progress=kwargs.get("progress"),
        )
    else:
        report = run_sweep(tasks, **kwargs)
    if checkpoint is not None and not report.failures:
        checkpoint.discard()
    fabric = HaloFabric.from_config(PIUMAConfig(**overrides))
    results = []
    stop = 0
    for (strategy, n_nodes), group in zip(points, groups):
        start, stop = stop, stop + len(group)
        records = [r for r in report.records[start:stop]
                   if r and "shard" in r]
        if len(records) != n_nodes:
            failed = n_nodes - len(records)
            raise RuntimeError(
                f"{failed} of {n_nodes} shard(s) failed without a fallback "
                "record; re-run with on_error='fallback' or a ShardRecovery "
                "to assemble anyway"
            )
        simulated_edges = sum(r["shard"]["edges"] for r in records)
        scale = (spec.n_edges / simulated_edges
                 if 0 < simulated_edges < spec.n_edges else 1.0)
        estimate = assemble_multinode(
            records,
            dataset=dataset,
            strategy=strategy,
            embedding_dim=embedding_dim,
            fabric=fabric,
            scale_factor=scale,
        )
        results.append((estimate, report.outcomes[start:stop]))
    return report, results


def run_multinode(dataset, n_nodes, strategy="block", embedding_dim=None,
                  kernel="dma", max_vertices=16384, seed=0,
                  window_edges=None, config_overrides=None,
                  sweep_kwargs=None, checkpoint_dir=None, resume=False,
                  recovery=None, task_filter=None):
    """Shard, simulate, and assemble one multi-node point.

    Each shard is a :class:`~repro.runtime.shard.ShardTask` on one
    node's worth of hardware (the default config's 8-core die unless
    ``config_overrides`` says otherwise), executed through
    :func:`repro.runtime.run_sweep` — pass ``sweep_kwargs`` to thread
    workers / cache / timeout / retries / on_error / engine /
    degradation / check_level through unchanged.
    ``checkpoint_dir`` arms per-shard checkpointing (a manifest keyed
    by the shard tasks' identities; ``resume=True`` loads it first), so
    a killed multi-node run restarts from the shards it completed.

    ``recovery`` (a :class:`~repro.runtime.shard.ShardRecovery`) arms
    the per-shard failure model instead: bounded retries per failure
    domain, hedged re-execution of stragglers, and — under its default
    ``"fallback"`` policy — *partial assembly*: a permanently failed
    shard degrades to its Eq.5 estimate with ``"source":
    "shard_fallback"`` provenance, the estimate's
    :attr:`~MultinodeEstimate.degraded_shards` counts it, and
    :func:`multinode_verdict` widens the envelope accordingly; the run
    completes instead of raising.  The shard execution then goes
    through :func:`~repro.runtime.shard.run_shards` (``workers`` /
    ``cache`` / ``progress`` / ``engine`` / ``check_level`` /
    ``degradation`` are honored from ``sweep_kwargs``; the remaining
    sweep knobs are superseded by the recovery spec).

    ``task_filter`` (when given) maps the built shard task list to the
    one actually executed — the chaos orchestrator's injection hook.

    This is the one-point case of :func:`strong_scaling`'s batch.
    Returns ``(estimate, report)``: the assembled
    :class:`MultinodeEstimate` (with :attr:`~MultinodeEstimate.
    scale_factor` projecting to the full dataset size) and the
    underlying :class:`~repro.runtime.runner.SweepReport` (or
    :class:`~repro.runtime.shard.ShardRunReport` under ``recovery``).
    """
    report, [(estimate, _outcomes)] = _run_points(
        dataset, [(strategy, n_nodes)], embedding_dim=embedding_dim,
        kernel=kernel, max_vertices=max_vertices, seed=seed,
        window_edges=window_edges, config_overrides=config_overrides,
        sweep_kwargs=sweep_kwargs, checkpoint_dir=checkpoint_dir,
        resume=resume, recovery=recovery, task_filter=task_filter,
    )
    return estimate, report


def strong_scaling(dataset, nodes=(1, 2, 4, 8), strategies=("block",),
                   embedding_dim=None, kernel="dma", max_vertices=16384,
                   seed=0, window_edges=None, config_overrides=None,
                   sweep_kwargs=None, checkpoint_dir=None, resume=False,
                   recovery=None):
    """Strong-scaling study: fixed problem, growing node count.

    Runs every (strategy, node-count) point as one batch (see
    :func:`run_multinode` for the knobs) and returns ``{"rows": [...],
    "estimates": {...}}`` where each row adds speedup (vs the same
    strategy's 1-node time — or its smallest node count when 1 is not
    swept), parallel efficiency, the Eq.5 DGAS cross-check ratio, and
    the point's own ``cache_hits`` and ``failures`` (fallback shards).
    Under ``recovery`` the study's retry, hedge, and fallback counters
    describe the whole batch, so they are reported once, as
    ``result["recovery"]``.  Shard records are content-addressed, so
    repeated or overlapping studies re-simulate nothing.
    """
    from repro.ext.distributed import piuma_multinode_spmm_time
    from repro.piuma.config import PIUMAConfig

    config = PIUMAConfig(**dict(config_overrides or {}))
    points = [(strategy, n) for strategy in strategies for n in sorted(nodes)]
    report, results = _run_points(
        dataset, points, embedding_dim=embedding_dim, kernel=kernel,
        max_vertices=max_vertices, seed=seed, window_edges=window_edges,
        config_overrides=config_overrides, sweep_kwargs=sweep_kwargs,
        checkpoint_dir=checkpoint_dir, resume=resume, recovery=recovery,
    )

    rows = []
    estimates = {}
    base_times = {}
    for (strategy, n), (estimate, outcomes) in zip(points, results):
        # Speedup is relative to the smallest swept node count
        # (conventionally 1), so speedup == 1.0 there and the ideal
        # curve is n / min(nodes).
        base_time = base_times.setdefault(strategy, estimate.time_ns)
        speedup = base_time / estimate.time_ns if estimate.time_ns else 0.0
        dgas_ns = piuma_multinode_spmm_time(
            estimate.conserved["rows"], estimate.total_edges,
            estimate.embedding_dim, config, n,
        )
        row = estimate.row()
        row["speedup"] = speedup
        row["efficiency"] = speedup / n if n else 0.0
        row["dgas_ns"] = dgas_ns
        row["dgas_ratio"] = (estimate.time_ns / dgas_ns
                             if dgas_ns > 0 else 0.0)
        row["cache_hits"] = outcomes.count("cached")
        row["failures"] = outcomes.count("failed")
        row["envelope_verdict"] = multinode_verdict(
            estimate, config, kernel=kernel,
        )
        rows.append(row)
        estimates[(strategy, n)] = estimate
    result = {"rows": rows, "estimates": estimates}
    if recovery is not None:
        result["recovery"] = dict(report.recovery)
    return result


def scaling_figure(rows, nodes):
    """ASCII strong-scaling figure: speedup per strategy over nodes."""
    from repro.report.figures import series_chart

    strategies = []
    for row in rows:
        if row["strategy"] not in strategies:
            strategies.append(row["strategy"])
    series = []
    for strategy in strategies:
        by_nodes = {r["n_nodes"]: r["speedup"] for r in rows
                    if r["strategy"] == strategy}
        series.append(
            (f"speedup[{strategy}]", [by_nodes.get(n, 0.0) for n in nodes])
        )
    series.append(("ideal", [n / min(nodes) for n in nodes]))
    return series_chart(list(nodes), series, x_label="nodes",
                        value_format="{:.2f}")
