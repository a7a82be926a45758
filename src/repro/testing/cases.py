"""Seeded conformance-case generation with greedy shrinking.

A :class:`ConformanceCase` is one fully-specified DES workload: an
RMAT graph recipe plus the kernel and config knobs of a single
``simulate_spmm`` invocation.  Cases are generated from a seed (the
same ``(n, seed)`` always yields the same population, so CI failures
reproduce locally), serialize to plain JSON (failing cases land in CI
artifacts), and shrink: given a predicate "this case still fails",
:func:`shrink` greedily walks toward the smallest graph/config that
keeps failing, which is what you want to debug, not the scale-9
original.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace

from repro.graphs.rmat import GRAPH500, RMATParams, rmat_graph
from repro.piuma.config import PIUMAConfig
from repro.piuma.degradation import DegradationSpec

#: Knob pools the generator draws from.  Deliberately spans both
#: bandwidth-bound (dma, large K) and latency-bound (loop, small K)
#: regimes, single-core and multi-core, and both RMAT flavors.
_POOLS = {
    "scale": (7, 8, 9),
    "edge_factor": (4, 8, 16),
    "symmetric": (True, False),
    "kernel": ("dma", "loop", "vertex"),
    "embedding_dim": (16, 64, 256),
    "n_cores": (1, 2, 4, 8),
    "threads_per_mtp": (4, 8, 16),
    "dram_latency_ns": (20.0, 45.0, 90.0),
    "dram_bandwidth_scale": (0.5, 1.0, 2.0),
    "window_edges": (1024, 2048),
}

#: Degradation specs a case may carry.  Drawn *after* every knob in
#: ``_POOLS`` and after ``graph_seed`` — a separate trailing draw, so
#: adding this axis changed no previously generated case — and mostly
#: ``None`` (the healthy fabric stays the dominant regime the envelopes
#: are calibrated on).  The degraded entries are mild single-axis
#: specs: fractions and intensities small enough that the kernels
#: complete and the differential oracle's bit-identity leg is the check
#: that matters (the Eq.5 envelopes are only applied to healthy cases).
_DEGRADATION_POOL = (
    None, None, None, None, None, None,
    DegradationSpec(degraded_link_fraction=0.25, link_latency_scale=2.0),
    DegradationSpec(degraded_slice_fraction=0.25,
                    slice_bandwidth_derate=0.75),
    DegradationSpec(stall_slice_fraction=0.25, stall_period_ns=20000.0,
                    stall_duration_ns=500.0),
    DegradationSpec(flaky_dma_fraction=0.25, dma_fail_period=32,
                    dma_retry_backoff_ns=100.0),
)

#: Shard counts a case may carry (the multi-node sharded oracle).
#: Drawn after every historical knob *and* after the degradation draw —
#: the same trailing-draw rule that kept old populations stable when
#: the degradation axis landed — and mostly 1 (monolithic stays the
#: dominant regime; sharded cases exercise the partition/halo path and
#: the Eq.5 multi-node envelope).
_SHARD_POOL = (1, 1, 1, 1, 2, 4)

#: Partitioning strategies a sharded case may use (drawn last of all).
_STRATEGY_POOL = ("block", "degree")


@dataclass(frozen=True)
class ConformanceCase:
    """One seeded DES workload: graph recipe + kernel + config knobs."""

    name: str
    scale: int
    edge_factor: int
    graph_seed: int
    symmetric: bool
    kernel: str
    embedding_dim: int
    n_cores: int
    threads_per_mtp: int
    dram_latency_ns: float
    dram_bandwidth_scale: float
    window_edges: int
    #: Optional hardware-fault spec (``None`` = healthy fabric).
    #: Appended after the original fields so positional construction
    #: of historical cases is unchanged.
    degradation: DegradationSpec | None = None
    #: Shard the case's graph across this many simulated nodes
    #: (1 = the historical monolithic case).  Appended after
    #: ``degradation`` under the same trailing-draw compatibility rule.
    n_shards: int = 1
    #: Partitioning strategy of a sharded case
    #: (:data:`repro.graphs.partition.PARTITION_STRATEGIES`).
    partition_strategy: str = "block"

    def config(self, check_level=0, **overrides):
        """The :class:`PIUMAConfig` this case runs under."""
        fields = {
            "n_cores": self.n_cores,
            "threads_per_mtp": self.threads_per_mtp,
            "dram_latency_ns": self.dram_latency_ns,
            "dram_bandwidth_scale": self.dram_bandwidth_scale,
            "check_level": check_level,
            "degradation": self.degradation,
        }
        fields.update(overrides)
        return PIUMAConfig(**fields)

    def graph(self):
        """Materialize (and memoize) the case's RMAT adjacency."""
        key = (self.scale, self.edge_factor, self.graph_seed, self.symmetric)
        adj = _GRAPH_MEMO.get(key)
        if adj is None:
            adj = _GRAPH_MEMO[key] = rmat_graph(
                RMATParams(
                    scale=self.scale, edge_factor=self.edge_factor,
                    abcd=GRAPH500,
                ),
                seed=self.graph_seed,
                symmetric=self.symmetric,
            )
        return adj

    def to_json(self):
        """Plain-JSON description (CI artifacts, repro instructions)."""
        return asdict(self)

    @classmethod
    def from_json(cls, data):
        degradation = data.get("degradation")
        if isinstance(degradation, dict):
            data = dict(data)
            data["degradation"] = DegradationSpec(**degradation)
        return cls(**data)


_GRAPH_MEMO = {}


def generate_cases(n, seed=0):
    """``n`` deterministic cases drawn from the knob pools.

    The same ``(n, seed)`` always produces the same list, and case
    ``i`` of a longer population equals case ``i`` of a shorter one
    with the same seed (draws are per-case), so "re-run case 17" is
    meaningful across invocations with different ``--cases``.
    """
    if n < 1:
        raise ValueError("need at least one case")
    cases = []
    for index in range(n):
        rng = random.Random(f"{seed}:{index}")
        knobs = {key: rng.choice(pool) for key, pool in _POOLS.items()}
        graph_seed = rng.randrange(1 << 16)
        # Drawn after every historical knob, so the degradation axis
        # changed no previously generated case population.
        degradation = rng.choice(_DEGRADATION_POOL)
        # Drawn after the degradation draw, same compatibility rule:
        # the shard axes changed no case generated before they existed.
        n_shards = rng.choice(_SHARD_POOL)
        partition_strategy = rng.choice(_STRATEGY_POOL)
        cases.append(
            ConformanceCase(
                name=f"case{index:03d}-s{seed}",
                graph_seed=graph_seed,
                degradation=degradation,
                n_shards=n_shards,
                partition_strategy=partition_strategy,
                **knobs,
            )
        )
    return cases


def _shrink_candidates(case):
    """Simpler variants of ``case``, most aggressive first.

    The kernel is never changed (which engine path a failure lives on
    is usually kernel-specific); everything that controls *size* or
    non-default knobs is walked toward the minimum.
    """
    candidates = []

    def emit(**changes):
        candidates.append(replace(case, **changes))

    if case.degradation is not None:
        # Try the healthy fabric first: a failure that survives without
        # the fault spec is a plain engine bug, which is the simpler
        # (and more alarming) reproduction.
        emit(degradation=None)
    if case.n_shards > 1:
        # Same idea for the shard axis: a failure that survives
        # monolithic is not a partition/halo bug.
        emit(n_shards=1, partition_strategy="block")
        emit(n_shards=max(1, case.n_shards // 2))
    if case.scale > 6:
        emit(scale=case.scale - 1)
    if case.edge_factor > 2:
        emit(edge_factor=max(2, case.edge_factor // 2))
    if case.window_edges > 256:
        emit(window_edges=max(256, case.window_edges // 2))
    if case.n_cores > 1:
        emit(n_cores=case.n_cores // 2)
    if case.threads_per_mtp > 1:
        emit(threads_per_mtp=max(1, case.threads_per_mtp // 2))
    if case.embedding_dim > 8:
        emit(embedding_dim=max(8, case.embedding_dim // 2))
    if case.dram_bandwidth_scale != 1.0:
        emit(dram_bandwidth_scale=1.0)
    if case.dram_latency_ns != 45.0:
        emit(dram_latency_ns=45.0)
    if not case.symmetric:
        emit(symmetric=True)
    return candidates


def shrink(case, still_fails, max_attempts=64):
    """Greedily minimize a failing case.

    ``still_fails(candidate)`` must return True when the candidate
    reproduces the original failure.  Classic greedy descent: try each
    simpler variant in order; on the first that still fails, restart
    from it.  Bounded by ``max_attempts`` predicate evaluations, so a
    flaky predicate cannot loop the harness.  Returns the smallest
    still-failing case found (possibly the original).
    """
    attempts = 0
    current = case
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _shrink_candidates(current):
            attempts += 1
            if still_fails(candidate):
                current = replace(candidate, name=current.name + "'")
                improved = True
                break
            if attempts >= max_attempts:
                break
    return current
