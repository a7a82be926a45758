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


def owner_core_array(vertices, n_cores, hashed=True):
    """Vectorized :func:`owner_core` over an index array (``int32``).

    Bit-identical to the scalar function: the mix product of a sub-2^32
    vertex id fits comfortably in int64.
    """
    arr = np.asarray(vertices, dtype=np.int64)
    if not hashed:
        return (arr % n_cores).astype(np.int32)
    mixed = (arr * 0x9E3779B1) & 0xFFFFFFFF
    return ((mixed >> 16) % n_cores).astype(np.int32)


def owner_cores(vertices, n_cores, hashed=True):
    """:func:`owner_core_array` as a list of native ints.

    The kernels resolve the home slice of every simulated edge; calling
    :func:`owner_core` per edge was a measurable share of host time, so
    the whole array is mixed and reduced in numpy and converted to
    native ints once.
    """
    return owner_core_array(vertices, n_cores, hashed).tolist()


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
    top_row = int(work.rows.max()) if len(work.rows) else -1
    return search_op(top_row, work.core, work.mtp, config, shared)


def search_op(top_row, core, mtp, config, shared):
    """:func:`binary_search_op` of a thread on (core, mtp) whose highest
    row is ``top_row`` (-1 for an empty slice)."""
    n_rows = max(2, top_row + 1)
    probes = max(1, int(math.ceil(math.log2(n_rows))))
    target = (core * 7 + mtp + 3) % config.n_cores
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


def core_op(shared, name, build):
    """``get(core)``: the op ``build(core)``, interned per home core in
    ``shared[name]`` — the emitters' form of the generators' per-core
    intern tables (same keys, so both yield the same instances)."""
    ops = shared.setdefault(name, {})

    def get(core):
        op = ops.get(core)
        if op is None:
            op = ops[core] = build(core)
        return op
    return get


def atomic_write_op(shared, row_bytes):
    """Per-core atomic row write-back of the edge-parallel kernels."""
    return core_op(shared, "atomic", lambda core: AtomicUpdate(
        nbytes=row_bytes, target_core=core, tag="atomic_write",
    ))


def intern_codes(table, keys, size, build):
    """Table codes of integer ``keys`` in ``[0, size)``.

    Appends ``build(key)`` to ``table`` once per distinct key, in
    ascending key order, and returns the ``int32`` table index of every
    key — how the emitters turn per-step key arrays (a home core, an
    NNZ line shape) into step codes without a per-step Python call.
    """
    keys = np.asarray(keys, dtype=np.int64)
    used = np.flatnonzero(np.bincount(keys, minlength=size))
    lut = np.zeros(size, dtype=np.int32)
    lut[used] = np.arange(len(table), len(table) + len(used))
    table.extend(build(key) for key in used.tolist())
    return lut[keys]


def emit_edge_stream(work_items, config, shared, edge_ops, flush_op,
                     search=True):
    """Step codes of every thread of one edge-stream kernel invocation.

    The numpy emitter the three SpMM kernels share; their generators
    are the specification it is tested against, step for step.  Per
    thread: the binary-search op (when ``search``), the setup marker,
    then per edge a grouped NNZ load at each group start, a flush of
    the previous row at each row change, and the per-edge ops; then a
    final flush of the last row.  ``edge_ops`` lists the per-edge ops
    in issue order, each an op or a function of the neighbor's home
    core; ``flush_op`` maps a finished row's home core to its
    write-back op.  Ops are interned through ``shared`` exactly as the
    generators intern them, into one table for the invocation, in the
    order their kinds first appear in a thread's stream.  Returns an
    :class:`~repro.piuma.ops.OpProgram` with one thread per work item,
    in order.
    """
    from repro.piuma.ops import OpProgram

    n_cores = config.n_cores
    group = config.nnz_group_edges
    n_threads = len(work_items)
    if not n_threads:
        return OpProgram([], [], [0])
    counts = np.array([len(w.cols) for w in work_items], dtype=np.int64)
    edge_end = np.cumsum(counts)
    edge_start = edge_end - counts
    busy = counts > 0
    rows = np.concatenate([w.rows for w in work_items])
    # Per-edge temporaries are int32 and die with this call, before
    # the run.
    thread = np.repeat(np.arange(n_threads, dtype=np.int32), counts)
    local = np.arange(len(rows), dtype=np.int32)
    local -= edge_start.astype(np.int32)[thread]
    opens = local % group == 0
    # A row change flushes the previous row; a thread's first edge
    # never does.
    flush = np.empty(len(rows), dtype=bool)
    flush[:1] = False
    np.not_equal(rows[1:], rows[:-1], out=flush[1:])
    flush[edge_start[busy]] = False
    # Step layout: thread t spans codes[bounds[t]:bounds[t + 1]], and
    # edge e's first step (its NNZ load, flush or first op) is at[e].
    prefix = 2 if search else 1
    before = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum(opens + flush.astype(np.int32) + len(edge_ops),
              out=before[1:])
    lengths = prefix + before[edge_end] - before[edge_start] + busy
    bounds = np.zeros(n_threads + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    at = before[:-1] + np.repeat(
        (bounds[:-1] + prefix - before[edge_start]).astype(np.int32), counts
    )
    del before, lengths
    codes = np.empty(bounds[-1], dtype=np.int32)
    table = []
    if search:
        top = np.full(n_threads, -1, dtype=np.int64)
        if busy.any():
            top[busy] = np.maximum.reduceat(rows, edge_start[busy])
        searches = [
            search_op(m, w.core, w.mtp, config, shared)
            for m, w in zip(top.tolist(), work_items)
        ]
        index = {}
        for op in searches:
            if id(op) not in index:
                index[id(op)] = len(table)
                table.append(op)
        codes[bounds[:-1]] = [index[id(op)] for op in searches]
    codes[bounds[:-1] + prefix - 1] = len(table)
    table.append(setup_done(shared))
    row_core = owner_core_array(rows, n_cores, config.hashed_placement)
    del rows
    # NNZ line loads, keyed by (home slice of the line, edges in the
    # group): a thread's trailing group may be partial.
    nnz_ops = shared.setdefault("nnz", {})
    entry_bytes = config.index_bytes + config.value_bytes
    first = np.flatnonzero(opens)
    in_group = np.minimum(group, counts[thread[first]] - local[first])
    starts = np.array([w.start_edge for w in work_items], dtype=np.int64)
    line = (starts[thread[first]] + local[first]) // group % n_cores

    def nnz_load(key):
        nnz_key = (key // (group + 1), key % (group + 1) * entry_bytes)
        op = nnz_ops.get(nnz_key)
        if op is None:
            op = nnz_ops[nnz_key] = Load(
                nbytes=nnz_key[1], target_core=nnz_key[0], tag="nnz",
                grouped=2,
            )
        return op

    codes[at[first]] = intern_codes(
        table, line * (group + 1) + in_group, n_cores * (group + 1),
        nnz_load,
    )
    del first, in_group, line, local, thread
    step = at + opens
    del at, opens
    flushed = np.flatnonzero(flush)
    flush_at = step[flushed]
    flush_core = row_core[flushed - 1]
    del flushed
    step += flush
    del flush
    col_core = owner_core_array(
        np.concatenate([w.cols for w in work_items]), n_cores,
        config.hashed_placement,
    )
    for op in edge_ops:
        if callable(op):
            codes[step] = intern_codes(table, col_core, n_cores, op)
        else:
            codes[step] = len(table)
            table.append(op)
        step += 1
    del col_core, step
    codes[np.concatenate((flush_at, bounds[1:][busy] - 1))] = intern_codes(
        table, np.concatenate((flush_core, row_core[edge_end[busy] - 1])),
        n_cores, flush_op,
    )
    return OpProgram(table, codes, bounds)


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


def emit_loop_unrolled(work_items, embedding_dim, config, shared):
    """:func:`loop_unrolled_thread`'s op streams for every work item at
    once, as one :class:`~repro.piuma.ops.OpProgram`
    (:func:`emit_edge_stream`)."""
    rounds = max(1, math.ceil(embedding_dim / config.unroll))
    round_bytes = min(embedding_dim, config.unroll) * config.feature_bytes
    feature = core_op(shared, "feature", lambda core: SequentialAccess(
        n_rounds=rounds, bytes_per_round=round_bytes, target_core=core,
        instrs_per_round=config.instrs_per_unrolled_round, tag="feature",
    ))
    return emit_edge_stream(
        work_items, config, shared, (feature,),
        atomic_write_op(shared, embedding_dim * config.feature_bytes),
    )


#: The op stream is static: replayable runs emit it for all threads.
loop_unrolled_thread.emit = emit_loop_unrolled
