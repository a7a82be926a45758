"""Simulated Dense MM kernel on PIUMA (the ref [21] measurement, rebuilt).

The paper computes PIUMA Dense MM time from "the observed peak FLOPS"
of the SU3 bench characterization.  Here the observation is reproduced
in the DES: MTP threads stream activation rows in via DMA, run the
multiply-accumulate loop on the scalar pipelines (no SIMD — one packed
2-element MAC per instruction), and stream results out.  The kernel
validates the analytical :func:`repro.piuma.densemm.dense_mm_time`
roofline: for square-ish updates the pipelines saturate; for skinny
updates the DMA streams do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.piuma.engine import Simulator
from repro.piuma.ops import Compute, DMAOp, OpProgram
from repro.piuma.spmm_loop import (
    core_op,
    intern_codes,
    owner_core,
    owner_core_array,
    setup_done,
)

#: Scalar instructions per MAC: PIUMA's pipelines have no SIMD, so one
#: MAC is one instruction, plus amortized loop/address bookkeeping.
INSTRS_PER_MAC = 1.25


@dataclass(frozen=True)
class DenseKernelResult:
    """Outcome of one simulated Dense MM window."""

    sim_time_ns: float
    window_rows: int
    total_rows: int
    gflops: float
    projected_time_ns: float
    pipeline_utilization: float


def _mac_op(in_dim, out_dim, shared):
    """The interned MAC burst of one row."""
    op = shared.get("mac")
    if op is None:
        op = shared["mac"] = Compute(
            n_instrs=max(1, int(round(in_dim * out_dim * INSTRS_PER_MAC))),
            tag="dense_mac",
        )
    return op


def dense_thread(rows, in_dim, out_dim, config, core_of_row, shared=None):
    """Thread generator: stream rows, MAC them against the resident W.

    The MAC burst is one op instance and the stream-in/out DMA
    descriptors are interned per target core (the same immutable-op
    reuse as the SpMM kernels).  ``shared`` is an optional intern table
    spanning all threads of one kernel invocation, so a core's threads
    share one compiled replay plan per op instead of one per thread.
    """
    row_in_bytes = in_dim * config.feature_bytes
    row_out_bytes = out_dim * config.feature_bytes
    if shared is None:
        shared = {}
    yield setup_done(shared)
    mac_op = _mac_op(in_dim, out_dim, shared)
    in_ops = shared.setdefault("in", {})    # target core -> DMAOp (stream-in)
    out_ops = shared.setdefault("out", {})  # target core -> DMAOp (stream-out)
    for row in rows:
        target = core_of_row(row)
        op = in_ops.get(target)
        if op is None:
            op = in_ops[target] = DMAOp(
                kind="read", nbytes=row_in_bytes, target_core=target,
                tag="dense_in",
            )
        yield op
        yield mac_op
        op = out_ops.get(target)
        if op is None:
            op = out_ops[target] = DMAOp(
                kind="write", nbytes=row_out_bytes, target_core=target,
                tag="dense_out",
            )
        yield op


def emit_dense(thread_rows, in_dim, out_dim, config, shared):
    """:func:`dense_thread`'s op streams for every thread at once.

    ``thread_rows`` holds each thread's ``range`` of rows, homed by
    :func:`~repro.piuma.spmm_loop.owner_core` under the config's
    placement (what :func:`simulate_dense_mm` passes the generators).
    Per thread: the setup marker, then per row its stream-in DMA, the
    MAC burst and its stream-out DMA.  Returns one
    :class:`~repro.piuma.ops.OpProgram` against one table, interned
    through ``shared`` like the generators.
    """
    counts = np.array([len(rows) for rows in thread_rows], dtype=np.int64)
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(1 + 3 * counts, out=bounds[1:])
    offset = np.cumsum(counts) - counts
    index = np.arange(counts.sum(), dtype=np.int64)
    first = np.array([rows.start for rows in thread_rows], dtype=np.int64)
    target = owner_core_array(
        index + np.repeat(first - offset, counts), config.n_cores,
        config.hashed_placement,
    )
    # A thread's j-th row streams in at bounds[t] + 1 + 3 * j.
    at = 3 * index + np.repeat(bounds[:-1] + 1 - 3 * offset, counts)
    del index, first, offset
    codes = np.empty(bounds[-1], dtype=np.int32)
    table = [setup_done(shared)]
    codes[bounds[:-1]] = 0
    codes[at] = intern_codes(
        table, target, config.n_cores,
        core_op(shared, "in", lambda core: DMAOp(
            kind="read", nbytes=in_dim * config.feature_bytes,
            target_core=core, tag="dense_in",
        )),
    )
    codes[at + 1] = len(table)
    table.append(_mac_op(in_dim, out_dim, shared))
    codes[at + 2] = intern_codes(
        table, target, config.n_cores,
        core_op(shared, "out", lambda core: DMAOp(
            kind="write", nbytes=out_dim * config.feature_bytes,
            target_core=core, tag="dense_out",
        )),
    )
    return OpProgram(table, codes, bounds)


def simulate_dense_mm(n_rows, in_dim, out_dim, config, window_rows=None):
    """Run the Dense MM kernel on a row window and project.

    Parameters
    ----------
    n_rows, in_dim, out_dim:
        ``(n_rows x in_dim) @ (in_dim x out_dim)``; the weight matrix is
        scratchpad-resident (no DRAM traffic).
    config:
        :class:`PIUMAConfig`.
    window_rows:
        Rows simulated (default: enough for every thread to stream a
        few rows, capped).
    """
    if min(n_rows, in_dim, out_dim) < 1:
        raise ValueError("matrix dimensions must be positive")
    if window_rows is None:
        window_rows = int(min(n_rows, max(2048, config.n_threads * 4),
                              32768))
    simulator = Simulator(config)
    n_threads = config.n_threads
    per_thread = max(1, window_rows // n_threads)
    hashed = config.hashed_placement
    thread_rows = [
        range(start, min(start + per_thread, window_rows))
        for start in range(0, min(n_threads * per_thread, window_rows),
                           per_thread)
    ]
    placements = [
        (t // config.threads_per_core,
         (t % config.threads_per_core) // config.threads_per_mtp)
        for t in range(len(thread_rows))
    ]
    spawned_rows = sum(len(rows) for rows in thread_rows)
    # Dense MM's op stream is static: while the run can replay, every
    # thread's steps are emitted at once; otherwise the generators run
    # on the reference loop.
    shared = {}
    if not (simulator.can_replay and simulator.spawn_programs(
            emit_dense(thread_rows, in_dim, out_dim, config, shared),
            placements)):
        for rows, (core, mtp) in zip(thread_rows, placements):
            simulator.spawn(dense_thread(
                rows, in_dim, out_dim, config,
                core_of_row=lambda r: owner_core(r, config.n_cores, hashed),
                shared=shared,
            ), core, mtp)
    end = simulator.run()
    steady = max(end - config.launch_overhead_ns - simulator.setup_end, 1e-9)
    flops = 2.0 * spawned_rows * in_dim * out_dim
    gflops = flops / steady
    total_flops = 2.0 * n_rows * in_dim * out_dim
    horizon = max(end, 1e-9)
    pipes = [p for row in simulator.pipelines for p in row]
    utilization = sum(p.utilization(horizon) for p in pipes) / len(pipes)
    return DenseKernelResult(
        sim_time_ns=end,
        window_rows=spawned_rows,
        total_rows=n_rows,
        gflops=gflops,
        projected_time_ns=config.launch_overhead_ns + total_flops / gflops,
        pipeline_utilization=utilization,
    )
