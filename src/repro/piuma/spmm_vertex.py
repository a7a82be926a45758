"""Vertex-parallel SpMM kernel on PIUMA (the Section IV-B alternative).

Rows are divided across threads by *count*, so no binary search and no
atomic write-backs are needed (each row has exactly one writer) — but a
thread that draws hub rows processes far more edges than its peers, and
the kernel barrier waits for the slowest.  On skewed graphs this load
imbalance is why the paper picks edge-parallel for PIUMA, whose remote
atomics make the balanced division cheap.

The kernel otherwise mirrors the DMA-offload data path: grouped NNZ
line fetches, one DMA multiply-read per edge, one plain DMA write per
finished row.
"""

from __future__ import annotations

import numpy as np

from repro.piuma.kernels import placed_work
from repro.piuma.ops import DMAOp, Load
from repro.piuma.spmm_dma import dma_init_op, dma_read_op
from repro.piuma.spmm_loop import (
    as_int_list,
    core_op,
    emit_edge_stream,
    nnz_line_core,
    owner_cores,
    setup_done,
)


def split_work_vertex(adj, config, window_edges):
    """Per-thread :class:`ThreadWork` for a vertex-parallel window.

    Threads own contiguous row ranges of near-equal *row count*
    (Section II-C's vertex-parallel division).  Each thread simulates a
    fraction of its own edges proportional to the global window — so a
    hub-heavy thread simulates proportionally more edges and the window
    exhibits the same imbalance as a full run.
    """
    total_edges = adj.nnz
    fraction = min(1.0, window_edges / total_edges) if total_edges else 0.0
    row_bounds = np.linspace(0, adj.n_rows, config.n_threads + 1).astype(
        np.int64
    )
    edge_bounds = adj.indptr[row_bounds]
    takes = np.round(np.diff(edge_bounds) * fraction).astype(np.int64)
    return placed_work(adj, config, edge_bounds[:-1], takes)


def vertex_parallel_thread(work, embedding_dim, config, shared=None):
    """Thread generator for the vertex-parallel kernel.

    No binary search (row ranges are assigned directly) and regular —
    not atomic — row write-backs.  Ops are interned like the other
    kernels; ``shared`` optionally spans the intern table across all
    threads of one invocation (see ``spmm_dma.dma_thread``).
    """
    n_cores = config.n_cores
    hashed = config.hashed_placement
    group = config.nnz_group_edges
    row_bytes = embedding_dim * config.feature_bytes
    if shared is None:
        shared = {}

    yield setup_done(shared)

    col_cores = owner_cores(work.cols, n_cores, hashed)
    row_cores = owner_cores(work.rows, n_cores, hashed)
    rows = as_int_list(work.rows)
    dma_init = dma_init_op(shared)
    nnz_loads = shared.setdefault("nnz", {})    # (core, bytes) -> Load
    read_ops = shared.setdefault("read", {})    # core -> DMAOp
    write_ops = shared.setdefault("write", {})  # core -> DMAOp
    n_edges = len(rows)
    current_row = rows[0] if n_edges else -1
    current_core = row_cores[0] if n_edges else -1
    for begin in range(0, n_edges, group):
        stop = min(begin + group, n_edges)
        nnz_bytes = (stop - begin) * (config.index_bytes + config.value_bytes)
        nnz_key = (
            nnz_line_core(work.start_edge + begin, group, n_cores), nnz_bytes
        )
        op = nnz_loads.get(nnz_key)
        if op is None:
            op = nnz_loads[nnz_key] = Load(
                nbytes=nnz_bytes, target_core=nnz_key[0], tag="nnz", grouped=2
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
                kind="write", nbytes=row_bytes, target_core=current_core,
                tag="dma_write",
            )
        yield op


def emit_vertex_parallel(work_items, embedding_dim, config, shared):
    """:func:`vertex_parallel_thread`'s op streams for every work item
    at once, as one :class:`~repro.piuma.ops.OpProgram`
    (:func:`~repro.piuma.spmm_loop.emit_edge_stream`, no search)."""
    row_bytes = embedding_dim * config.feature_bytes
    return emit_edge_stream(
        work_items, config, shared,
        (dma_init_op(shared), dma_read_op(shared, row_bytes)),
        core_op(shared, "write", lambda core: DMAOp(
            kind="write", nbytes=row_bytes, target_core=core,
            tag="dma_write",
        )),
        search=False,
    )


#: The op stream is static: replayable runs emit it for all threads.
vertex_parallel_thread.emit = emit_vertex_parallel
