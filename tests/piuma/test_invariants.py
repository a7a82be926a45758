"""Unit tests for the runtime invariant sanitizer.

Three angles: clean simulations must pass every level with bit-identical
results (the sanitizer observes, it never perturbs), the structured
error must survive the runner's pickling/context machinery, and
``verify_kernel_result`` must reject tampered aggregates.  The
end-to-end "seeded bug is caught" direction lives in
``tests/testing/test_conformance.py``.
"""

import pickle
import types

import pytest

from repro.graphs.rmat import RMATParams, rmat_graph
from repro.piuma import simulate_spmm
from repro.piuma.config import ENGINES, PIUMAConfig
from repro.piuma.engine import Simulator
from repro.piuma.invariants import (
    INVARIANTS,
    verify_kernel_result,
    violation,
)
from repro.piuma.resources import Timeline
from repro.runtime.errors import InvariantViolation, wrap_failure


@pytest.fixture(scope="module")
def small_graph():
    return rmat_graph(
        RMATParams(scale=7, edge_factor=8), seed=3, symmetric=True
    )


def _run(adj, kernel, check_level, engine):
    config = PIUMAConfig(n_cores=2, check_level=check_level, engine=engine)
    return simulate_spmm(
        adj, 16, config=config, kernel=kernel, window_edges=512
    )


@pytest.mark.parametrize("kernel", ["dma", "loop", "vertex"])
def test_checking_preserves_bit_identity(small_graph, kernel):
    baseline = _run(small_graph, kernel, check_level=0, engine="fast")
    for engine in ENGINES:
        for level in (0, 1, 2):
            result = _run(small_graph, kernel, check_level=level,
                          engine=engine)
            assert result.sim_time_ns == baseline.sim_time_ns
            assert result.gflops == baseline.gflops
            assert result.events == baseline.events
            assert result.memory_utilization == baseline.memory_utilization


def _tiny_simulator(engine="fast"):
    from repro.piuma.ops import Compute

    def tiny_thread():
        yield Compute(16)

    sim = Simulator(PIUMAConfig(n_cores=1, check_level=1, engine=engine))
    sim.spawn(tiny_thread(), 0, 0)
    return sim


class TestSchedulerDrained:
    """The level-1 ``scheduler-drained`` post-run check."""

    def test_scheduler_drained_invariant_fires(self):
        """A stranded entry after run() must trip the invariant."""
        sim = _tiny_simulator()
        sim.run()
        # Simulate the lost-event bug class: an entry the main loop
        # never consumed is still queued when the post-run check walks
        # the event queue.
        sim._heap.append((1.0, sim._seq, 0, None))
        sim._seq += 1
        with pytest.raises(InvariantViolation) as err:
            sim.checker.after_run()
        assert err.value.invariant == "scheduler-drained"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_clean_run_passes_drained_invariant(self, engine):
        """The same level-1 run without the seeded bug completes."""
        sim = _tiny_simulator(engine)
        assert sim.run() > 0.0
        assert sim._heap == []


class TestRegistry:
    def test_levels_are_sane(self):
        for name, (level, description) in INVARIANTS.items():
            assert level in (1, 2), name
            assert description

    def test_violation_builder(self):
        error = violation("event-monotonicity", "went backwards")
        assert isinstance(error, InvariantViolation)
        assert error.invariant == "event-monotonicity"
        assert error.retryable is False
        assert error.kind == "invariant"

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ValueError, match="unknown invariant"):
            violation("made-up-check", "nope")


class TestErrorTaxonomy:
    def test_pickle_round_trip(self):
        error = violation("slice-byte-conservation", "lost 42 bytes")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, InvariantViolation)
        assert clone.invariant == "slice-byte-conservation"
        assert clone.message == "lost 42 bytes"

    def test_with_context_keeps_invariant(self):
        error = violation("stats-recompute", "drift")
        annotated = error.with_context(label="p17", attempts=2)
        assert annotated.invariant == "stats-recompute"
        assert annotated.label == "p17"
        assert annotated.attempts == 2

    def test_wrap_failure_preserves_type(self):
        error = violation("timeline-order", "overlap")
        wrapped = wrap_failure(error, "p3", 1)
        assert isinstance(wrapped, InvariantViolation)
        assert wrapped.retryable is False

    def test_str_names_the_invariant(self):
        assert str(violation("dram-byte-ledger", "off by one")).startswith(
            "dram-byte-ledger:"
        )

    def test_payload_carries_invariant(self):
        assert violation("thread-legality", "x").payload()[
            "invariant"
        ] == "thread-legality"


class TestTimelineValidate:
    def test_healthy_timeline(self):
        timeline = Timeline()
        timeline._starts = [0.0, 10.0, 25.0]
        timeline._ends = [5.0, 20.0, 30.0]
        assert timeline.validate() == []

    def test_detects_overlap(self):
        timeline = Timeline()
        timeline._starts = [0.0, 4.0]
        timeline._ends = [5.0, 9.0]
        assert any("overlaps" in p for p in timeline.validate())

    def test_detects_negative_extent(self):
        timeline = Timeline()
        timeline._starts = [0.0]
        timeline._ends = [-1.0]
        assert any("negative extent" in p for p in timeline.validate())

    def test_detects_diverged_lists(self):
        timeline = Timeline()
        timeline._starts = [0.0, 6.0]
        timeline._ends = [5.0]
        assert any("parallel lists" in p for p in timeline.validate())


class TestConfigValidation:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_accepts_supported_levels(self, level):
        assert PIUMAConfig(check_level=level).check_level == level

    @pytest.mark.parametrize("level", [-1, 3, 7])
    def test_rejects_unsupported_levels(self, level):
        with pytest.raises(ValueError):
            PIUMAConfig(check_level=level)


class TestVerifyKernelResult:
    """Tamper with one aggregate at a time; each must be rejected."""

    def _consistent(self):
        config = PIUMAConfig(n_cores=1, check_level=1)
        launch = config.launch_overhead_ns
        end = launch + 8000.0
        setup = 500.0
        steady = end - launch - setup
        window, total, k = 400, 1600, 16
        gflops = 2.0 * window * k / steady
        slices = [
            types.SimpleNamespace(busy_time=4000.0, bytes_served=40000.0),
            types.SimpleNamespace(busy_time=2000.0, bytes_served=20000.0),
        ]
        simulator = types.SimpleNamespace(
            end_time=end, events=1234, setup_end=setup, slices=slices
        )
        result = types.SimpleNamespace(
            sim_time_ns=end,
            events=1234,
            window_edges=window,
            total_edges=total,
            embedding_dim=k,
            gflops=gflops,
            projected_time_ns=launch + setup + 2.0 * total * k / gflops,
            memory_utilization=(4000.0 / end + 2000.0 / end) / 2,
            achieved_bandwidth=60000.0 / end,
            tag_stats={
                "nnz": types.SimpleNamespace(count=3, bytes=96.0, wait_ns=1.0)
            },
        )
        return result, simulator, config

    def test_consistent_result_passes(self):
        verify_kernel_result(*self._consistent())

    @pytest.mark.parametrize("tamper", [
        {"sim_time_ns": 9999.0},
        {"events": 1},
        {"gflops": 1.0},
        {"projected_time_ns": 5.0},
        {"memory_utilization": 0.99},
        {"achieved_bandwidth": 3.0},
    ])
    def test_tampered_aggregate_rejected(self, tamper):
        result, simulator, config = self._consistent()
        for name, value in tamper.items():
            setattr(result, name, value)
        with pytest.raises(InvariantViolation) as excinfo:
            verify_kernel_result(result, simulator, config)
        assert excinfo.value.invariant == "result-recompute"

    def test_negative_tag_stats_rejected(self):
        result, simulator, config = self._consistent()
        result.tag_stats["nnz"] = types.SimpleNamespace(
            count=-1, bytes=96.0, wait_ns=1.0
        )
        with pytest.raises(InvariantViolation):
            verify_kernel_result(result, simulator, config)

    def test_out_of_range_utilization_rejected(self):
        result, simulator, config = self._consistent()
        result.memory_utilization = 1.5
        with pytest.raises(InvariantViolation):
            verify_kernel_result(result, simulator, config)
