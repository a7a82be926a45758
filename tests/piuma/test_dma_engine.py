"""The per-core DMA engine, driven through the simulator's DMA dispatch.

``Simulator._dispatch[DMAOp]`` is the one DMA implementation the
reference loop runs (replay's compiled DMA rows repeat its arithmetic,
held to it by the differential suite); each call executes one
descriptor issued by a thread on ``(core, mtp)`` at ``now`` and returns
``(resume, completion)``.
The engine's own horizon (``DMAEngine._engine.busy_until``) is when it
can accept its next descriptor.
"""

import pytest

from repro.piuma.config import PIUMAConfig
from repro.piuma.engine import Simulator
from repro.piuma.ops import DMAOp


def make_sim(**overrides):
    cfg = PIUMAConfig(**overrides)
    sim = Simulator(cfg)
    return sim, sim._dispatch[DMAOp], cfg


def read(nbytes, target_core=0):
    return DMAOp("read", nbytes, target_core, "dma_read")


def internal(nbytes):
    return DMAOp("internal", nbytes, 0, "dma_init")


class TestDMAEngine:
    def test_internal_op_engine_only(self):
        sim, dma, cfg = make_sim()
        issued, done = dma(internal(0), 0.0, 0, 0)
        assert issued == sim._dma_issue_cost
        assert done == issued + cfg.dma_overhead_ns
        assert sim.bytes_served() == 0

    def test_memory_op_completion_includes_latency(self):
        sim, dma, cfg = make_sim(n_cores=1)
        issued, done = dma(read(1024), 0.0, 0, 0)
        expected = issued + 1024 / cfg.slice_bandwidth_bytes_per_ns
        assert done >= cfg.dram_latency_ns
        assert done == expected + cfg.dram_latency_ns

    def test_requests_serialize_in_order(self):
        """Paper: requests to the same engine are serialized on arrival."""
        sim, dma, cfg = make_sim(n_cores=2)
        duration = 1024 / cfg.dma_rate_gbps + cfg.dma_overhead_ns
        _, first = dma(internal(1024), 0.0, 0, 0)
        _, second = dma(internal(1024), 0.0, 0, 1)
        assert second > first
        assert second - first == pytest.approx(duration)
        # Another core's engine is independent of core 0's queue.
        _, other = dma(internal(1024), 0.0, 1, 0)
        assert other == first

    def test_engine_pipelines_past_memory_latency(self):
        """The engine is latency tolerant: it accepts the next request
        before the previous data movement completes."""
        sim, dma, cfg = make_sim(n_cores=1, dram_latency_ns=500.0)
        _, done = dma(read(1024), 0.0, 0, 0)
        assert sim.dma_engines[0]._engine.busy_until < done
        _, next_done = dma(read(1024), 0.0, 0, 1)
        assert next_done - done < cfg.dram_latency_ns

    def test_striped_targets_split_bytes(self):
        sim, dma, cfg = make_sim(n_cores=4)
        dma(read(4096), 0.0, 0, 0)
        for memory in sim.slices:
            assert memory.bytes_served == pytest.approx(1024)

    def test_credit_backpressure(self):
        """Submissions stall once inflight bytes exceed the staging
        buffer, pacing the engine to the memory drain rate."""
        sim, dma, cfg = make_sim(
            n_cores=1, dma_inflight_bytes=2048, dram_latency_ns=1000.0
        )
        engine = sim.dma_engines[0]._engine
        frees = []
        for _ in range(4):
            dma(read(1024), 0.0, 0, 0)
            frees.append(engine.busy_until)
        # First two fit in the buffer; the third must wait ~a full
        # memory round trip for credits.
        assert frees[1] - frees[0] < 100.0
        assert frees[2] - frees[1] > 500.0

    def test_stats(self):
        sim, dma, cfg = make_sim(n_cores=1)
        dma(read(100), 0.0, 0, 0)
        dma(internal(0), 0.0, 0, 0)
        engine = sim.dma_engines[0]
        assert engine.ops == 2
        assert engine.bytes_moved == 100.0
        assert engine.busy_time > 0
