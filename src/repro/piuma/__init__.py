"""PIUMA architecture simulator.

A discrete-event model of Intel's Programmable Integrated Unified
Memory Architecture: multi-threaded pipelines, per-core DMA offload
engines with serialized request queues, per-core DRAM slices in a
distributed global address space, and a HyperX-flavored interconnect.
Two SpMM kernels (loop-unrolled and DMA-offload) run on it, and the
bandwidth-bound analytical model of the paper's Section IV-A provides
the reference curve.
"""

from repro.piuma.analytical import ModelResult, spmm_model
from repro.piuma.config import PIUMAConfig
from repro.piuma.degradation import (
    DEGRADATION_PRESETS,
    DegradationModel,
    DegradationSpec,
    effective_total_bandwidth,
    thread_placements,
)
from repro.piuma.densemm import DenseMMEstimate, dense_mm_time, peak_mac_gflops
from repro.piuma.engine import Simulator
from repro.piuma.gcn import gcn_breakdown as piuma_gcn_breakdown
from repro.piuma.kernels import KernelResult, auto_window, run_spmm_kernel
from repro.piuma.multinode import (
    HaloFabric,
    MultinodeEstimate,
    assemble_multinode,
    run_multinode,
    strong_scaling,
)
from repro.piuma.spmm_dma import dma_thread
from repro.piuma.spmm_loop import loop_unrolled_thread

__all__ = [
    "DEGRADATION_PRESETS",
    "DegradationModel",
    "DegradationSpec",
    "DenseMMEstimate",
    "HaloFabric",
    "KernelResult",
    "ModelResult",
    "MultinodeEstimate",
    "PIUMAConfig",
    "Simulator",
    "assemble_multinode",
    "auto_window",
    "dense_mm_time",
    "dma_thread",
    "effective_total_bandwidth",
    "loop_unrolled_thread",
    "peak_mac_gflops",
    "piuma_gcn_breakdown",
    "run_multinode",
    "run_spmm_kernel",
    "simulate_dense_mm",
    "simulate_gcn",
    "simulate_spmm",
    "spmm_kernel",
    "spmm_model",
    "strong_scaling",
    "thread_placements",
]


def simulate_dense_mm(*args, **kwargs):
    """See :func:`repro.piuma.densemm_kernel.simulate_dense_mm`."""
    from repro.piuma.densemm_kernel import simulate_dense_mm as impl

    return impl(*args, **kwargs)


def simulate_gcn(*args, **kwargs):
    """See :func:`repro.piuma.gcn_sim.simulate_gcn`."""
    from repro.piuma.gcn_sim import simulate_gcn as impl

    return impl(*args, **kwargs)


def simulate_spmm(adj, embedding_dim, config=None, kernel="dma", window_edges=None):
    """Convenience wrapper: simulate one SpMM kernel.

    Parameters
    ----------
    adj:
        CSR adjacency.
    embedding_dim:
        K.
    config:
        :class:`PIUMAConfig` (default: one 8-core die).
    kernel:
        ``"dma"`` (edge-parallel, DMA offload — the paper's winner),
        ``"loop"`` (edge-parallel, scalar loop unrolling) or
        ``"vertex"`` (vertex-parallel DMA: no atomics, but load
        imbalance on skewed graphs).
    window_edges:
        Down-scaled window size (default automatic).
    """
    factory, splitter = spmm_kernel(kernel)
    return run_spmm_kernel(
        adj, embedding_dim, config or PIUMAConfig(), factory, window_edges,
        splitter,
    )


def spmm_kernel(kernel):
    """``(thread_factory, splitter)`` of a named SpMM kernel.

    The names are :func:`simulate_spmm`'s; ``splitter`` is ``None``
    for the edge-parallel kernels (:func:`~repro.piuma.kernels
    .split_work`).
    """
    from repro.piuma.spmm_vertex import split_work_vertex, vertex_parallel_thread

    kernels = {
        "dma": (dma_thread, None),
        "loop": (loop_unrolled_thread, None),
        "vertex": (vertex_parallel_thread, split_work_vertex),
    }
    if kernel not in kernels:
        raise ValueError(f"kernel must be one of {sorted(kernels)}")
    return kernels[kernel]
