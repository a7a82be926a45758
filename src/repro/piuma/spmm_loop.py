"""Loop-unrolled SpMM kernel (the baseline of Section IV-B).

Each MTP thread walks its edge slice: every ``nnz_group_edges`` edges it
fetches the column-index and value lines (a blocking grouped load), then
for each edge streams the neighbor's feature vector through the scalar
pipeline in unrolled rounds — issue 8-element loads, stall on use, MAC
into the register/cache-resident accumulation buffer.  The round-trip
latency of every round sits on the thread's critical path, which is why
this kernel "was challenged with scaling past 8 cores": more cores mean
more remote accesses, longer latency per round, and a fixed thread count
cannot buy it back.
"""

from __future__ import annotations

import math

import numpy as np

from repro.piuma.ops import AtomicUpdate, Load, PhaseMarker, SequentialAccess


def as_int_list(values):
    """Convert an index array to a list of plain Python ints, once.

    Kernel inner loops used to box every element individually with
    ``int(arr[e])`` — one numpy scalar extraction per simulated edge.
    ``ndarray.tolist()`` converts the whole array in C and the loops
    then run over native ints.
    """
    tolist = getattr(values, "tolist", None)
    if tolist is not None:
        return tolist()
    return [int(v) for v in values]


def owner_core(vertex, n_cores, hashed=True):
    """Home slice of a vertex row in the DGAS.

    PIUMA's global address space hash-interleaves blocks across slices;
    plain ``v % n_cores`` would send ~44% of RMAT traffic to slice 0
    (power-law hubs have low-biased id bits) — a hotspot real hardware
    avoids by address hashing, so we hash too (Knuth multiplicative
    mix).  ``hashed=False`` selects the naive placement for ablation.
    """
    if not hashed:
        return int(vertex) % n_cores
    mixed = (int(vertex) * 0x9E3779B1) & 0xFFFFFFFF
    return (mixed >> 16) % n_cores


def owner_cores(vertices, n_cores, hashed=True):
    """Vectorized :func:`owner_core` over an index array → list of ints.

    The kernels resolve the home slice of every simulated edge; calling
    :func:`owner_core` per edge was a measurable share of host time, so
    the whole array is mixed and reduced in numpy and converted to
    native ints once.  Bit-identical to the scalar function: the mix
    product of a sub-2^32 vertex id fits comfortably in int64.
    """
    arr = np.asarray(vertices, dtype=np.int64)
    if not hashed:
        return (arr % n_cores).tolist()
    mixed = (arr * 0x9E3779B1) & 0xFFFFFFFF
    return ((mixed >> 16) % n_cores).tolist()


def nnz_line_core(edge_index, group, n_cores):
    """Home slice of the CSR line holding ``edge_index`` (line interleave)."""
    return (int(edge_index) // group) % n_cores


def binary_search_op(work, config, shared):
    """Algorithm 2 line 4: locate the first owned row via binary search.

    ``log2(|V|)``-ish dependent probes of the row-offset array, each a
    small load to a pseudo-random slice.  The op is interned in the
    kernel's ``shared`` table by (probes, target), so threads that
    search alike share one instance.
    """
    n_rows = max(2, int(work.rows.max()) + 1 if len(work.rows) else 2)
    probes = max(1, int(math.ceil(math.log2(n_rows))))
    target = (work.core * 7 + work.mtp + 3) % config.n_cores
    searches = shared.setdefault("search", {})
    op = searches.get((probes, target))
    if op is None:
        op = searches[(probes, target)] = SequentialAccess(
            n_rounds=probes,
            bytes_per_round=2 * config.index_bytes,
            target_core=target,
            instrs_per_round=4,
            tag="binary_search",
        )
    return op


def setup_done(shared):
    """The kernel's one interned end-of-setup :class:`PhaseMarker`."""
    op = shared.get("setup_done")
    if op is None:
        op = shared["setup_done"] = PhaseMarker()
    return op


def loop_unrolled_thread(work, embedding_dim, config, shared=None):
    """Thread generator for the loop-unrolled kernel.

    Ops are interned: every (target, bytes) shape is built at most once
    and the same immutable instance re-yielded — op construction is
    otherwise a per-edge cost.  ``shared`` optionally spans the intern
    table across all threads of one kernel invocation (see
    ``spmm_dma.dma_thread``).
    """
    n_cores = config.n_cores
    hashed = config.hashed_placement
    group = config.nnz_group_edges
    feature_bytes = config.feature_bytes
    # The tail round (K not a multiple of the unroll) is folded into the
    # uniform rounds; the size error is under one line per edge.
    rounds = max(1, math.ceil(embedding_dim / config.unroll))
    round_bytes = min(embedding_dim, config.unroll) * feature_bytes
    row_bytes = embedding_dim * feature_bytes
    instrs_per_round = config.instrs_per_unrolled_round
    if shared is None:
        shared = {}

    yield binary_search_op(work, config, shared)
    yield setup_done(shared)

    col_cores = owner_cores(work.cols, n_cores, hashed)
    row_cores = owner_cores(work.rows, n_cores, hashed)
    rows = as_int_list(work.rows)
    nnz_loads = shared.setdefault("nnz", {})      # (core, bytes) -> Load
    feature_ops = shared.setdefault("feature", {})  # core -> SequentialAccess
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
                # Row boundary: flush the accumulation buffer.
                # Edge-parallel write-backs are atomic (multiple
                # writers per straddled row) and do not stall the
                # pipeline.
                op = atomic_ops.get(current_core)
                if op is None:
                    op = atomic_ops[current_core] = AtomicUpdate(
                        nbytes=row_bytes, target_core=current_core,
                        tag="atomic_write",
                    )
                yield op
                current_row = row
                current_core = row_cores[e]
            target = col_cores[e]
            op = feature_ops.get(target)
            if op is None:
                op = feature_ops[target] = SequentialAccess(
                    n_rounds=rounds,
                    bytes_per_round=round_bytes,
                    target_core=target,
                    instrs_per_round=instrs_per_round,
                    tag="feature",
                )
            yield op
    if current_row >= 0:
        op = atomic_ops.get(current_core)
        if op is None:
            op = atomic_ops[current_core] = AtomicUpdate(
                nbytes=row_bytes, target_core=current_core, tag="atomic_write"
            )
        yield op


#: Static op stream: safe to compile into an OpProgram for replay.
loop_unrolled_thread.program_safe = True
