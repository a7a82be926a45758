"""DMA offload engine state.

One engine per core.  Requests from all threads of the core are
serialized in arrival order (the property Section IV-C leans on: a
single thread that keeps the engine fed saturates it without help).
The engine itself is latency *tolerant*: it occupies only for descriptor
setup plus streaming time, while the DRAM access latency is paid by the
data, not by the engine — so back-to-back requests pipeline.

This module holds the per-core state only.  The one implementation of
a descriptor is the simulator's DMA dispatch closure
(``Simulator._dispatch[DMAOp]``, built by ``Simulator._make_exec_dma``),
which the reference loop runs; the compiled replay plans
(``vector_engine._build_plan``) build their own DMA rows from the same
resources and repeat its arithmetic, and the differential suite holds
the two to each other.
"""

from __future__ import annotations

import collections

from repro.piuma.resources import FluidResource


class DMAEngine:
    """Per-core DMA engine with an in-order request queue.

    Under a degradation spec an engine may be *dead* (every descriptor
    raises :class:`~repro.runtime.errors.HardwareExhausted` — the
    core's threads cannot offload at all) or *flaky*: every
    ``fail_period``-th descriptor fails and is retried after
    ``retry_backoff_ns``, a delay the issuing thread observes.  Both
    behaviors are pure functions of the submission order, which is
    identical on every engine main loop.
    """

    __slots__ = ("core_id", "_engine", "ops", "bytes_moved",
                 "_inflight", "_inflight_bytes", "_inflight_limit",
                 "_overhead_ns", "alive", "retries",
                 "_fail_period", "_fail_countdown", "_retry_backoff_ns")

    def __init__(self, core_id, config, alive=True, fail_period=0,
                 retry_backoff_ns=0.0):
        self.core_id = core_id
        self._engine = FluidResource(config.dma_rate_gbps, name=f"dma{core_id}")
        self.ops = 0
        self.bytes_moved = 0.0
        self.alive = alive
        self.retries = 0
        self._fail_period = int(fail_period)
        self._fail_countdown = int(fail_period)
        self._retry_backoff_ns = retry_backoff_ns
        self._inflight_limit = config.dma_inflight_bytes
        self._overhead_ns = config.dma_overhead_ns
        # Bounded memory credits: the engine keeps at most
        # ``dma_inflight_bytes`` outstanding at DRAM (its staging-buffer
        # capacity).  This is the backpressure that lets the system reach
        # a steady state instead of dumping unbounded request bursts into
        # the memory timelines, while still allowing many small requests
        # in flight (a per-op limit would starve small embedding dims).
        self._inflight = collections.deque()  # (completion, nbytes)
        self._inflight_bytes = 0.0

    def utilization(self, horizon):
        return self._engine.utilization(horizon)

    @property
    def busy_time(self):
        return self._engine.busy_time

    @property
    def streamed_bytes(self):
        """Bytes the underlying fluid engine served.

        Accounted on the same lines as :attr:`bytes_moved` (the DMA
        dispatch closure and the compiled DMA plans update the two
        together), so the runtime sanitizer can cross-check them: any
        accounting drift between the engine's descriptor bookkeeping
        and its fluid-resource occupancy is a byte-conservation
        violation.
        """
        return self._engine.units_served

    @property
    def requests(self):
        """Requests the underlying fluid engine accepted (== ops)."""
        return self._engine.requests
