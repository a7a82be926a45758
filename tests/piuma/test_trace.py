import pytest

from repro.graphs.rmat import RMATParams, rmat_graph
from repro.piuma import PIUMAConfig
from repro.piuma.engine import Simulator
from repro.piuma.kernels import split_work
from repro.piuma.spmm_dma import dma_thread
from repro.piuma.trace import Tracer


def traced_run(capacity=10_000, window=1024):
    adj = rmat_graph(RMATParams(scale=9, edge_factor=8), seed=1)
    config = PIUMAConfig(n_cores=2)
    simulator = Simulator(config)
    tracer = Tracer(simulator, capacity=capacity)
    for work in split_work(adj, config, window):
        simulator.spawn(dma_thread(work, 16, config), work.core, work.mtp)
    simulator.run()
    return tracer


class TestTracer:
    def test_records_events(self):
        tracer = traced_run()
        assert len(tracer.events) > 100
        tags = {e.tag for e in tracer.events}
        assert "nnz" in tags and "dma_read" in tags

    def test_events_time_ordered_issue(self):
        tracer = traced_run()
        times = [e.issued_at for e in tracer.events]
        assert times == sorted(times)

    def test_blocked_time_positive_for_loads(self):
        tracer = traced_run()
        blocked = tracer.blocked_time_by_tag()
        assert blocked["nnz"] > 0

        # Async DMA ops cost only issue slots; a blocking NNZ load
        # stalls its thread for a full memory round trip.
        def per_op(tag):
            events = [e for e in tracer.events if e.tag == tag]
            return sum(e.blocked_ns for e in events) / len(events)

        assert per_op("nnz") > 3 * per_op("dma_read")

    def test_capacity_bound(self):
        tracer = traced_run(capacity=50)
        assert len(tracer.events) == 50
        assert tracer.dropped > 0

    def test_slowest_sorted(self):
        tracer = traced_run()
        slowest = tracer.slowest(5)
        assert len(slowest) == 5
        assert all(
            a.blocked_ns >= b.blocked_ns
            for a, b in zip(slowest, slowest[1:])
        )

    def test_render(self):
        tracer = traced_run(capacity=100)
        text = tracer.render(limit=10)
        assert "tag" in text
        assert "more events" in text

    def test_detach_stops_recording(self):
        adj = rmat_graph(RMATParams(scale=8, edge_factor=4), seed=0)
        config = PIUMAConfig(n_cores=1)
        simulator = Simulator(config)
        tracer = Tracer(simulator)
        tracer.detach()
        for work in split_work(adj, config, 256):
            simulator.spawn(dma_thread(work, 8, config), work.core, work.mtp)
        simulator.run()
        assert len(tracer.events) == 0

    def test_detach_restores_the_sanitizer(self):
        adj = rmat_graph(RMATParams(scale=8, edge_factor=4), seed=0)
        config = PIUMAConfig(n_cores=1, check_level=1)
        simulator = Simulator(config)
        checked = simulator._execute
        tracer = Tracer(simulator)
        tracer.detach()
        assert simulator.__dict__["_execute"] is checked
        for work in split_work(adj, config, 256):
            simulator.spawn(dma_thread(work, 8, config), work.core, work.mtp)
        simulator.run()
        assert len(tracer.events) == 0
        assert simulator.checker.last_event_ns > 0

    def test_validation(self):
        simulator = Simulator(PIUMAConfig(n_cores=1))
        with pytest.raises(ValueError):
            Tracer(simulator, capacity=0)
