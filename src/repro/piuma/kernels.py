"""Kernel runner: window selection, thread spawning, projection.

The PIUMA simulator executes a *window* of edges at full mechanism
fidelity (every NNZ read, feature fetch, DMA request of those edges) and
projects steady-state throughput to the whole graph — the down-scaled
simulation methodology of the paper's ref [18].  Edge-parallel work
division follows Algorithm 2: each of the T hardware threads owns a
contiguous 1/T slice of the edge array, and the simulated window takes
the leading edges of every slice so all cores and pipelines stay
populated exactly as they would be in a full run.

Threads are spawned as one compiled op program while the run can
replay (``Simulator.can_replay``) and the thread factory has a numpy
emitter for its static op stream (``thread_factory.emit``); otherwise
they are spawned as generators and the run takes the reference loop
(``repro.piuma.engine``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.piuma.degradation import thread_placements
from repro.piuma.engine import Simulator
from repro.piuma.invariants import verify_kernel_result
from repro.sparse.spmm import spmm_traffic


@dataclass(frozen=True)
class ThreadWork:
    """The simulated slice of one hardware thread.

    Attributes
    ----------
    core, mtp:
        Hardware placement.
    cols:
        Destination (neighbor) vertex of each simulated edge, in order.
    rows:
        Owning (output) vertex of each simulated edge.
    start_edge:
        Global index of the first simulated edge (placement of NNZ
        reads in the interleaved address space).
    """

    core: int
    mtp: int
    cols: np.ndarray
    rows: np.ndarray
    start_edge: int


@dataclass(frozen=True)
class KernelResult:
    """Outcome of one simulated SpMM kernel invocation.

    Attributes
    ----------
    sim_time_ns:
        End-to-end simulated time of the window (incl. launch overhead).
    window_edges / total_edges:
        Simulated vs full-graph edge counts.
    embedding_dim:
        K.
    gflops:
        Steady-state throughput achieved inside the window.
    projected_time_ns:
        Full-graph kernel time at that throughput (plus launch).
    memory_utilization:
        Mean DRAM-slice busy fraction.
    achieved_bandwidth:
        System DRAM bytes/ns during the window.
    tag_stats:
        Per-category accounting (``nnz``, ``feature``, ``dma_read``...):
        counts, bytes, and thread-blocking wait — the raw material of the
        Fig 8 (right) breakdown.
    events / host_wall_s:
        Host-performance observability: DES events executed and host
        wall-clock seconds the simulation took (see
        :attr:`events_per_s`).
    """

    sim_time_ns: float
    window_edges: int
    total_edges: int
    embedding_dim: int
    gflops: float
    projected_time_ns: float
    memory_utilization: float
    achieved_bandwidth: float
    tag_stats: dict
    events: int = 0
    host_wall_s: float = 0.0

    @property
    def events_per_s(self):
        """Host-side DES throughput (events per wall-clock second)."""
        if self.host_wall_s <= 0.0:
            return 0.0
        return self.events / self.host_wall_s

    def efficiency_vs(self, model_gflops):
        """Fraction of an analytical-model throughput achieved."""
        return self.gflops / model_gflops if model_gflops > 0 else 0.0

    def wait_fraction(self, tag):
        """Share of total blocking wait attributed to ``tag``."""
        total = sum(s.wait_ns for s in self.tag_stats.values())
        if total <= 0:
            return 0.0
        stats = self.tag_stats.get(tag)
        return stats.wait_ns / total if stats else 0.0


def auto_window(config, total_edges, edges_per_thread=48, floor=4096, cap=131072):
    """Pick the simulated window size.

    Every thread should see several NNZ groups to reach steady state, so
    the window grows with the thread count, clamped to keep Python-side
    simulation cost bounded.
    """
    want = config.n_threads * edges_per_thread
    return int(min(total_edges, max(floor, min(want, cap))))


def edge_ranges(adj, starts, stops):
    """``(start, cols, rows)`` of each edge range ``[starts[i], stops[i])``.

    ``rows`` holds the owning row of every edge of the range.  One
    ``searchsorted`` finds the rows of all ranges, and each range's
    ``cols`` and ``rows`` are views.  Ranges must be non-empty.
    """
    lengths = stops - starts
    ends = np.cumsum(lengths)
    # Position j of the concatenation, in range i, is edge
    # j + stops[i] - ends[i].
    edges = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
    edges += np.repeat(stops - ends, lengths)
    rows = np.searchsorted(adj.indptr, edges, side="right") - 1
    return [
        (start, adj.indices[start:stop], rows[end - stop + start:end])
        for start, stop, end in zip(starts.tolist(), stops.tolist(),
                                    ends.tolist())
    ]


def placed_work(adj, config, starts, takes):
    """One :class:`ThreadWork` per thread ``t`` with ``takes[t] > 0``.

    Thread ``t`` simulates edges ``[starts[t], starts[t] + takes[t])``
    at its :func:`thread_placements` slot.
    """
    placements = thread_placements(config)
    threads = np.flatnonzero(takes > 0)
    starts = starts[threads]
    ranges = edge_ranges(adj, starts, starts + takes[threads])
    return [
        ThreadWork(*placements[t], cols, rows, start)
        for t, (start, cols, rows) in zip(threads.tolist(), ranges)
    ]


def split_work(adj, config, window_edges):
    """Build per-thread :class:`ThreadWork` for an edge-parallel window.

    Thread ``t`` owns the contiguous global slice ``[tE/T, (t+1)E/T)``
    (Algorithm 2 line 3) and simulates its leading ``~window/T`` edges.
    A thread whose slice is empty gets no :class:`ThreadWork`.

    Placement comes from :func:`thread_placements`: the historical
    contiguous layout on a healthy fabric (bit-identical results), and
    a redistribution of the same ``T`` work shares over the surviving
    pipelines when the degradation spec disables cores or MTPs.
    """
    n_threads = config.n_threads
    bounds = np.linspace(0, adj.nnz, n_threads + 1).astype(np.int64)
    per_thread = max(1, int(round(window_edges / n_threads)))
    takes = np.minimum(np.diff(bounds), per_thread)
    return placed_work(adj, config, bounds[:-1], takes)


def window_work(adj, config, window_edges=None, splitter=None):
    """The per-thread work :func:`run_spmm_kernel` simulates.

    ``window_edges`` defaults to :func:`auto_window` and ``splitter`` to
    :func:`split_work` (edge-parallel, Algorithm 2).
    """
    if window_edges is None:
        window_edges = auto_window(config, adj.nnz)
    if splitter is None:
        splitter = split_work
    return splitter(adj, config, window_edges)


def run_spmm_kernel(adj, embedding_dim, config, thread_factory,
                    window_edges=None, splitter=None):
    """Simulate one SpMM kernel and project to the full graph.

    Parameters
    ----------
    adj:
        CSR adjacency (typically a down-scaled materialization; only its
        structure matters).
    embedding_dim:
        K.
    config:
        :class:`PIUMAConfig`.
    thread_factory:
        ``f(work: ThreadWork, embedding_dim, config, shared) ->
        generator`` — one of the kernels :func:`~repro.piuma.spmm_kernel`
        returns; ``shared`` is the invocation's op intern table.
    window_edges:
        Simulated window size; default :func:`auto_window`.
    splitter:
        Work-division function ``(adj, config, window) -> [ThreadWork]``;
        default :func:`split_work` (edge-parallel, Algorithm 2).
    """
    if adj.nnz == 0:
        raise ValueError("cannot simulate SpMM on an empty matrix")
    simulator = Simulator(config)
    work_items = window_work(adj, config, window_edges, splitter)
    simulated_edges = sum(len(w.cols) for w in work_items)
    # One op intern table per invocation (ops are immutable, so one
    # instance can serve every thread).
    shared = {}
    # While the run can replay (the default engine, no sanitizer
    # armed), a factory with an emitter (`emit`: its static op stream
    # for every thread at once, in numpy) is compiled in one pass, and
    # the replay loop executes it without generator resumption.  When
    # the run cannot replay or the factory has no emitter (e.g. the
    # dynamic work-stealing kernel, whose stream depends on runtime
    # interleaving), the generators are spawned and the run takes the
    # reference loop.
    emit = getattr(thread_factory, "emit", None)
    if not (emit is not None and simulator.can_replay
            and simulator.spawn_programs(
                emit(work_items, embedding_dim, config, shared),
                [(work.core, work.mtp) for work in work_items])):
        for work in work_items:
            simulator.spawn(
                thread_factory(work, embedding_dim, config, shared=shared),
                work.core, work.mtp,
            )
    end = simulator.run()
    # Steady state excludes the per-thread setup (binary search): in a
    # full run it is amortized over thousands of edges per thread; a
    # down-scaled window would overweight it by orders of magnitude.
    setup = min(simulator.setup_end, end - config.launch_overhead_ns)
    steady = max(end - config.launch_overhead_ns - setup, 1e-9)
    flops = 2.0 * simulated_edges * embedding_dim
    gflops = flops / steady  # flops per ns == GFLOP/s
    total_flops = 2.0 * adj.nnz * embedding_dim
    projected = config.launch_overhead_ns + setup + total_flops / gflops
    result = KernelResult(
        sim_time_ns=end,
        window_edges=simulated_edges,
        total_edges=adj.nnz,
        embedding_dim=embedding_dim,
        gflops=gflops,
        projected_time_ns=projected,
        memory_utilization=simulator.memory_utilization(),
        achieved_bandwidth=simulator.achieved_bandwidth(),
        tag_stats=dict(simulator.stats),
        events=simulator.events,
        host_wall_s=simulator.host_wall_s,
    )
    if config.check_level:
        # Cross-check the reported aggregates against independently
        # recomputed sums from the raw simulator state (the sanitizer's
        # reporting-layer leg; the resource-accounting legs already ran
        # inside Simulator.run).
        verify_kernel_result(result, simulator, config)
    return result
