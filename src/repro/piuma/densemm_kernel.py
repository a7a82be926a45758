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

import math
from dataclasses import dataclass

from repro.piuma.engine import Simulator
from repro.piuma.ops import Compute, DMAOp, OpProgram
from repro.piuma.spmm_loop import owner_core, setup_done

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
    macs = in_dim * out_dim
    instrs = max(1, int(round(macs * INSTRS_PER_MAC)))
    if shared is None:
        shared = {}
    yield setup_done(shared)
    mac_op = shared.get("mac")
    if mac_op is None:
        mac_op = shared["mac"] = Compute(n_instrs=instrs, tag="dense_mac")
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


#: Static op stream: safe to compile into an OpProgram for replay.
dense_thread.program_safe = True


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
    # Dense MM's op stream is static (see dense_thread.program_safe):
    # while the run can replay, drain each generator into an OpProgram.
    shared = {}
    spawned_rows = 0
    for t in range(n_threads):
        start = t * per_thread
        if start >= window_rows:
            break
        rows = range(start, min(start + per_thread, window_rows))
        spawned_rows += len(rows)
        core = t // config.threads_per_core
        mtp = (t % config.threads_per_core) // config.threads_per_mtp
        generator = dense_thread(
            rows, in_dim, out_dim, config,
            core_of_row=lambda r: owner_core(r, config.n_cores, hashed),
            shared=shared,
        )
        if simulator.can_replay:
            simulator.spawn_program(
                OpProgram.from_generator(generator), core, mtp
            )
        else:
            simulator.spawn(generator, core, mtp)
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
