"""PIUMA hardware configuration.

Numbers follow the public PIUMA description (Aananthakrishnan et al.,
arXiv:2010.06277, the paper's ref [5]) and the paper's own experiment
setup: cores hold 4 multi-threaded pipelines (MTPs) with 16 threads
each plus 2 single-threaded pipelines (STPs); 8 cores form a die
(Fig 7 calls an 8-core system "1 die"); dies aggregate into a node with
>16K threads; each core hosts a DRAM slice of the distributed global
address space.  DRAM latency defaults to 45 ns — the start of the
paper's latency sweep, i.e. its nominal point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.piuma.degradation import DegradationSpec

#: Valid values of :attr:`PIUMAConfig.engine`: the default engine and
#: the reference loop it is checked against.
ENGINES = ("fast", "reference")


@dataclass(frozen=True)
class PIUMAConfig:
    """Parameters of a simulated PIUMA system.

    Every sensitivity study in the paper is a sweep over one of these
    fields (``dram_latency_ns``, ``dram_bandwidth_scale``,
    ``threads_per_mtp``, ``n_cores``).
    """

    # Topology
    n_cores: int = 8
    cores_per_die: int = 8
    #: Dies per node; cores beyond ``cores_per_die * dies_per_node``
    #: belong to further nodes reached over the optical HyperX tier.
    dies_per_node: int = 32
    mtps_per_core: int = 4
    threads_per_mtp: int = 16
    stps_per_core: int = 2

    # Clocking: MTPs/STPs are single-issue in-order pipelines.
    clock_ghz: float = 2.0

    # DRAM slice per core.
    dram_bandwidth_gbps: float = 25.6  # per-slice GB/s (one DDR channel)
    dram_bandwidth_scale: float = 1.0  # Fig 6 (top) sweep knob
    dram_latency_ns: float = 45.0      # Fig 6 (bottom) / Fig 7 sweep knob

    # Network (HyperX with optical die-to-die and node-to-node links).
    intra_die_latency_ns: float = 15.0
    inter_die_latency_ns: float = 100.0
    inter_node_latency_ns: float = 400.0
    network_bandwidth_gbps: float = 512.0  # per-core injection; generous
                                           # by design (Takeaway 3: net is
                                           # not the bottleneck)

    # Near-memory atomic unit, one per core, serializing RMW updates to
    # the local slice.
    atomic_rate_gbps: float = 51.2
    atomic_overhead_ns: float = 2.0

    # DMA offload engine, one per core, requests serialized in order.
    dma_rate_gbps: float = 128.0       # engine streaming rate (5x slice,
                                       # so the slice stays the bottleneck)
    dma_overhead_ns: float = 0.1       # per-descriptor setup
    dma_issue_instrs: int = 3          # MTP instructions to enqueue a req
    dma_inflight_bytes: int = 32768    # staging-buffer credits per engine

    # Element sizes (bytes) of the hardware kernels (4-byte floats/ids).
    feature_bytes: int = 4
    index_bytes: int = 4
    value_bytes: int = 4
    cache_line_bytes: int = 64

    # Loop-unrolled kernel: compiler unrolls 8 embedding elements.
    unroll: int = 8
    #: MTP instructions per unrolled round of 8 elements: four 8-byte
    #: load issues, four packed MACs, one bookkeeping instruction.
    instrs_per_unrolled_round: int = 9

    # NNZ reads are grouped: one col-index line + one value line covers
    # this many edges.
    nnz_group_edges: int = 8

    #: Max slices a bulk row access stripes across (line interleaving of
    #: the DGAS; capped to bound simulation cost).
    stripe_lines: int = 4

    #: Hash vertex placement across slices (the DGAS default).  False
    #: switches to naive ``v % n_cores`` placement — an ablation showing
    #: the hub-hotspot collapse hashing prevents on power-law graphs.
    hashed_placement: bool = True

    # STP-side kernel launch / teardown overhead.
    launch_overhead_ns: float = 2000.0

    #: DES engine: ``"fast"`` (default) replays op programs compiled
    #: at spawn time (``repro.piuma.vector_engine``) and runs the
    #: reference loop for runs it cannot replay, such as any run at
    #: ``check_level >= 1``; ``"reference"`` always runs the reference
    #: loop, the plain pop/execute/push loop kept as the
    #: differential-test oracle.  Both loops are bit-identical in
    #: results and event accounting (DESIGN.md, "Host performance").
    engine: str = "fast"

    #: Runtime invariant sanitizer level (``repro.piuma.invariants``):
    #: 0 disables all checking (the default — zero overhead), 1 enables
    #: the cheap per-event checks (event-time monotonicity, thread
    #: state-machine legality) plus the post-run resource accounting
    #: cross-checks, 2 additionally tracks per-op byte/stat expectations
    #: and scans the DRAM timelines for interval-order violations.
    #: Violations raise ``repro.runtime.errors.InvariantViolation``.
    check_level: int = 0

    # Simulation watchdogs: hard ceilings on the DES event loop so a
    # buggy kernel generator or pathological sweep point raises
    # ``SimulationDiverged`` instead of hanging a worker forever.  A
    # value of 0 disables the corresponding guard.
    #: Max events (heap pops) per kernel invocation; normal windows
    #: stay well under a few million.
    max_events: int = 50_000_000
    #: Max simulated nanoseconds before the run counts as diverged.
    max_sim_ns: float = 0.0
    #: Max consecutive events with no simulated-time progress (zero-cost
    #: op loops) before the run counts as stalled.
    stall_events: int = 2_000_000

    #: Hardware-fault model (``repro.piuma.degradation``): ``None`` (the
    #: default) simulates a healthy fabric; a
    #: :class:`~repro.piuma.degradation.DegradationSpec` deterministically
    #: degrades links, DRAM slices, DMA engines, and pipelines.  The spec
    #: is a frozen all-primitive dataclass, so it serializes with the
    #: config and participates in the sweep cache key.
    degradation: DegradationSpec | None = None

    def __post_init__(self):
        if self.n_cores < 1:
            raise ValueError("n_cores must be positive")
        if self.threads_per_mtp < 1 or self.mtps_per_core < 1:
            raise ValueError("pipeline counts must be positive")
        if self.dram_bandwidth_gbps <= 0 or self.dram_bandwidth_scale <= 0:
            raise ValueError("bandwidth must be positive")
        if self.dram_latency_ns < 0:
            raise ValueError("latency must be non-negative")
        if self.max_events < 0 or self.max_sim_ns < 0 or self.stall_events < 0:
            raise ValueError("watchdog ceilings must be non-negative")
        if self.check_level not in (0, 1, 2):
            raise ValueError("check_level must be 0, 1, or 2")
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.degradation is not None and not isinstance(
            self.degradation, DegradationSpec
        ):
            raise ValueError(
                "degradation must be a DegradationSpec or None, got "
                f"{type(self.degradation).__name__}"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def resolved_engine(self):
        """Alias of :attr:`engine`, kept for callers outside the package."""
        return self.engine

    @property
    def n_dies(self):
        """Dies spanned by ``n_cores`` (partial dies round up)."""
        return -(-self.n_cores // self.cores_per_die)

    @property
    def threads_per_core(self):
        return self.mtps_per_core * self.threads_per_mtp

    @property
    def n_threads(self):
        """Total MTP threads across the system."""
        return self.n_cores * self.threads_per_core

    @property
    def slice_bandwidth_bytes_per_ns(self):
        """Effective per-slice bandwidth (GB/s == bytes/ns)."""
        return self.dram_bandwidth_gbps * self.dram_bandwidth_scale

    @property
    def total_bandwidth_gbps(self):
        """Aggregate DRAM bandwidth of the system."""
        return self.n_cores * self.slice_bandwidth_bytes_per_ns

    @property
    def instr_ns(self):
        """Nanoseconds per single-issue instruction."""
        return 1.0 / self.clock_ghz

    def with_(self, **changes):
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)

    @classmethod
    def die(cls, **overrides):
        """One die: 8 cores (the Fig 7 system)."""
        return cls(**{"n_cores": 8, **overrides})

    @property
    def cores_per_node(self):
        return self.cores_per_die * self.dies_per_node

    @property
    def n_nodes(self):
        """Nodes spanned by ``n_cores`` (partial nodes round up)."""
        return -(-self.n_cores // self.cores_per_node)

    @classmethod
    def multinode(cls, n_nodes, dies_per_node=1, **overrides):
        """A small multi-node system the DES can afford to simulate.

        Shrinking ``dies_per_node`` keeps the core count tractable while
        still exercising the inter-node latency tier of the DGAS.
        """
        return cls(**{
            "n_cores": n_nodes * dies_per_node * 8,
            "dies_per_node": dies_per_node,
            **overrides,
        })

    @classmethod
    def node(cls, n_dies=32, **overrides):
        """A full PIUMA node.

        32 dies x 8 cores x 64 MTP threads = 16384 threads ("more than
        16K threads" with the STPs included) and ~6.5 TB/s aggregate
        DRAM bandwidth ("TB/s bandwidths").
        """
        return cls(**{"n_cores": n_dies * 8, **overrides})
