"""DMA-offload SpMM kernel (the contribution of Section IV-B).

Per edge, the MTP thread only (a) reads the NNZ (blocking, grouped with
its neighbors' indices into one line fetch) and (b) enqueues DMA
descriptors: a buffer initialization with the edge weight (engine-only),
a multiply-read of the neighbor's feature vector fused with the
copy-add into the scratchpad accumulation buffer, and — at row
boundaries — an atomic write-back of the finished embedding.  The DMA
engine streams whole vectors, so the thread's pipeline is free and the
only blocking latency left is the NNZ read; with enough threads per MTP
even that disappears from the critical path, giving the latency
insensitivity of Fig 6/7.
"""

from __future__ import annotations

from repro.piuma.ops import AtomicUpdate, DMAOp, Load
from repro.piuma.spmm_loop import (
    as_int_list,
    atomic_write_op,
    binary_search_op,
    core_op,
    emit_edge_stream,
    nnz_line_core,
    owner_cores,
    setup_done,
)


def dma_init_op(shared):
    """The interned scratchpad buffer init: descriptor overhead only,
    no DRAM traffic — one instance covers every edge."""
    op = shared.get("dma_init")
    if op is None:
        op = shared["dma_init"] = DMAOp(
            kind="internal", nbytes=0, target_core=0, tag="dma_init"
        )
    return op


def dma_read_op(shared, row_bytes):
    """Per-core DMA multiply-read of a neighbor's feature vector."""
    return core_op(shared, "read", lambda core: DMAOp(
        kind="read", nbytes=row_bytes, target_core=core, tag="dma_read",
    ))


def dma_thread(work, embedding_dim, config, shared=None):
    """Thread generator for the DMA-offload kernel.

    Ops are interned: the same immutable op is re-yielded for every
    repeated (target, bytes) shape instead of being rebuilt per edge.
    ``shared`` is an optional intern table spanning all threads of one
    kernel invocation (ops are immutable, so cross-thread sharing is
    safe) — it shrinks the op population from O(threads) to O(cores),
    which both cuts construction cost and lets the engine's per-op
    execution-plan cache stay tiny.
    """
    n_cores = config.n_cores
    hashed = config.hashed_placement
    group = config.nnz_group_edges
    row_bytes = embedding_dim * config.feature_bytes
    if shared is None:
        shared = {}

    yield binary_search_op(work, config, shared)
    yield setup_done(shared)

    col_cores = owner_cores(work.cols, n_cores, hashed)
    row_cores = owner_cores(work.rows, n_cores, hashed)
    rows = as_int_list(work.rows)
    # Buffer init with the vectorized edge weight.
    dma_init = dma_init_op(shared)
    nnz_loads = shared.setdefault("nnz", {})    # (core, bytes) -> Load
    read_ops = shared.setdefault("read", {})    # core -> DMAOp
    atomic_ops = shared.setdefault("atomic", {})  # core -> AtomicUpdate
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
                op = atomic_ops.get(current_core)
                if op is None:
                    op = atomic_ops[current_core] = AtomicUpdate(
                        nbytes=row_bytes, target_core=current_core,
                        tag="atomic_write",
                    )
                yield op
                current_row = row
                current_core = row_cores[e]
            yield dma_init
            # Multiply-read of the neighbor feature vector, fused with
            # the scratchpad copy-add.
            target = col_cores[e]
            op = read_ops.get(target)
            if op is None:
                op = read_ops[target] = DMAOp(
                    kind="read", nbytes=row_bytes, target_core=target,
                    tag="dma_read",
                )
            yield op
    if current_row >= 0:
        op = atomic_ops.get(current_core)
        if op is None:
            op = atomic_ops[current_core] = AtomicUpdate(
                nbytes=row_bytes, target_core=current_core, tag="atomic_write"
            )
        yield op


def emit_dma(work_items, embedding_dim, config, shared):
    """:func:`dma_thread`'s op streams for every work item at once, as
    one :class:`~repro.piuma.ops.OpProgram`
    (:func:`~repro.piuma.spmm_loop.emit_edge_stream`)."""
    row_bytes = embedding_dim * config.feature_bytes
    return emit_edge_stream(
        work_items, config, shared,
        (dma_init_op(shared), dma_read_op(shared, row_bytes)),
        atomic_write_op(shared, row_bytes),
    )


#: The op stream is static: replayable runs emit it for all threads.
dma_thread.emit = emit_dma
