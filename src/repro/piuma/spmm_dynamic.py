"""Vertex-parallel SpMM with dynamic work stealing.

The paper's CPU kernel uses "dynamic load balancing using OpenMP"; the
same idea fixes the vertex-parallel kernel's hub imbalance on PIUMA:
rows are split into chunks on a shared queue, and each thread pops the
next chunk when it finishes — at the cost of one remote atomic
(queue-pop) per chunk, served by PIUMA's atomic-queue offload engines.
This kernel completes the Section IV-B design space: static edge-
parallel, static vertex-parallel, and dynamic vertex-parallel.
"""

from __future__ import annotations

import numpy as np

from repro.piuma.degradation import thread_placements
from repro.piuma.kernels import edge_ranges
from repro.piuma.ops import DMAOp, Load, PhaseMarker
from repro.piuma.spmm_loop import as_int_list, nnz_line_core, owner_cores


def make_chunks(adj, config, window_edges, rows_per_chunk=None):
    """Split a proportional window into row chunks for the queue.

    Chunk granularity trades steal overhead against balance; the
    default gives ~8 chunks per thread.
    """
    total_edges = adj.nnz
    fraction = min(1.0, window_edges / total_edges) if total_edges else 0.0
    if rows_per_chunk is None:
        want_chunks = max(1, config.n_threads * 8)
        rows_per_chunk = max(1, adj.n_rows // want_chunks)
    row_starts = np.arange(0, adj.n_rows, rows_per_chunk)
    row_ends = np.minimum(row_starts + rows_per_chunk, adj.n_rows)
    lo, hi = adj.indptr[row_starts], adj.indptr[row_ends]
    takes = np.round((hi - lo) * fraction).astype(np.int64)
    keep = takes > 0
    return edge_ranges(adj, lo[keep], lo[keep] + takes[keep])


def dynamic_thread(queue, embedding_dim, config, thread_id, shared=None):
    """Thread generator: pop chunks from the shared queue until empty.

    The queue is plain Python state shared by all generators; each pop
    is charged as a small remote atomic-queue operation (a Load against
    the queue's home slice — the thread must observe the result before
    it can proceed, exactly like a real atomic dequeue).
    """
    n_cores = config.n_cores
    hashed = config.hashed_placement
    group = config.nnz_group_edges
    row_bytes = embedding_dim * config.feature_bytes
    queue_home = 0  # the work queue lives on core 0's slice

    yield PhaseMarker()

    # Interned op instances (see the other kernels): the queue-pop load
    # and buffer-init descriptor are constant; reads/writes vary only by
    # target core.  ``shared`` optionally spans the intern table across
    # all threads of one invocation.
    if shared is None:
        shared = {}
    queue_pop = shared.get("queue_pop")
    if queue_pop is None:
        queue_pop = shared["queue_pop"] = Load(
            nbytes=2 * config.index_bytes, target_core=queue_home,
            tag="queue_pop",
        )
    dma_init = shared.get("dma_init")
    if dma_init is None:
        dma_init = shared["dma_init"] = DMAOp(
            kind="internal", nbytes=0, target_core=0, tag="dma_init"
        )
    nnz_loads = shared.setdefault("nnz", {})    # (core, bytes) -> Load
    read_ops = shared.setdefault("read", {})    # core -> DMAOp
    write_ops = shared.setdefault("write", {})  # core -> DMAOp
    while queue:
        # Atomic dequeue: blocking round trip to the queue's home.
        yield queue_pop
        if not queue:
            break
        start_edge, cols, rows = queue.pop()
        col_cores = owner_cores(cols, n_cores, hashed)
        row_cores = owner_cores(rows, n_cores, hashed)
        rows = as_int_list(rows)
        n_edges = len(rows)
        current_row = rows[0] if n_edges else -1
        current_core = row_cores[0] if n_edges else -1
        for begin in range(0, n_edges, group):
            stop = min(begin + group, n_edges)
            nnz_bytes = (stop - begin) * (
                config.index_bytes + config.value_bytes
            )
            nnz_key = (
                nnz_line_core(start_edge + begin, group, n_cores), nnz_bytes
            )
            op = nnz_loads.get(nnz_key)
            if op is None:
                op = nnz_loads[nnz_key] = Load(
                    nbytes=nnz_bytes, target_core=nnz_key[0], tag="nnz",
                    grouped=2,
                )
            yield op
            for e in range(begin, stop):
                row = rows[e]
                if row != current_row:
                    op = write_ops.get(current_core)
                    if op is None:
                        op = write_ops[current_core] = DMAOp(
                            kind="write", nbytes=row_bytes,
                            target_core=current_core, tag="dma_write",
                        )
                    yield op
                    current_row = row
                    current_core = row_cores[e]
                yield dma_init
                target = col_cores[e]
                op = read_ops.get(target)
                if op is None:
                    op = read_ops[target] = DMAOp(
                        kind="read", nbytes=row_bytes, target_core=target,
                        tag="dma_read",
                    )
                yield op
        if current_row >= 0:
            op = write_ops.get(current_core)
            if op is None:
                op = write_ops[current_core] = DMAOp(
                    kind="write", nbytes=row_bytes,
                    target_core=current_core, tag="dma_write",
                )
            yield op


def simulate_spmm_dynamic(adj, embedding_dim, config, window_edges=None,
                          rows_per_chunk=None):
    """Run the dynamic vertex-parallel kernel; returns a KernelResult."""
    from repro.piuma.engine import Simulator
    from repro.piuma.kernels import KernelResult, auto_window

    if adj.nnz == 0:
        raise ValueError("cannot simulate SpMM on an empty matrix")
    if window_edges is None:
        window_edges = auto_window(config, adj.nnz)
    chunks = make_chunks(adj, config, window_edges, rows_per_chunk)
    simulated_edges = sum(len(cols) for _s, cols, _r in chunks)
    queue = list(reversed(chunks))  # pop() takes from the front chunk
    simulator = Simulator(config)
    shared = {}
    placements = thread_placements(config)
    for t in range(config.n_threads):
        core, mtp = placements[t]
        simulator.spawn(
            dynamic_thread(queue, embedding_dim, config, t, shared=shared),
            core, mtp,
        )
    end = simulator.run()
    setup = min(simulator.setup_end, end - config.launch_overhead_ns)
    steady = max(end - config.launch_overhead_ns - setup, 1e-9)
    flops = 2.0 * simulated_edges * embedding_dim
    gflops = flops / steady
    total_flops = 2.0 * adj.nnz * embedding_dim
    return KernelResult(
        sim_time_ns=end,
        window_edges=simulated_edges,
        total_edges=adj.nnz,
        embedding_dim=embedding_dim,
        gflops=gflops,
        projected_time_ns=config.launch_overhead_ns + setup
        + total_flops / gflops,
        memory_utilization=simulator.memory_utilization(),
        achieved_bandwidth=simulator.achieved_bandwidth(),
        tag_stats=dict(simulator.stats),
        events=simulator.events,
        host_wall_s=simulator.host_wall_s,
    )
