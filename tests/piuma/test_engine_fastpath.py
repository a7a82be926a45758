"""Bit-identity of the two DES main loops.

``PIUMAConfig.engine`` has two values.  The default ``fast`` engine
replays op programs compiled at spawn time in a native loop that adds
every counter per event, and runs the reference loop for any run it
cannot replay; ``reference`` always runs the plain pop/execute/push
loop.  Both loops must produce **bit-identical results** — same
``end_time``, per-tag stats, utilizations, bandwidth, and event count.
This suite pins golden numbers on a fixed window and differentially
fuzzes the loops across a randomized RMAT grid covering every kernel,
so any divergence introduced by a hot-path "optimization" fails loudly.

Every golden and fuzz point runs three legs: the default config at
``check_level=0`` (replay), the reference loop, and the reference loop
with the level-1 sanitizer armed (the loop every checked run takes).
Replay executes the programs the kernels' numpy emitters build, so
``TestEmission`` holds every emitter to its kernel's generators, step
for step, over the same grid and the work-split shapes it misses.
"""

import random

import pytest

from repro.graphs.rmat import rmat_for_size
from repro.piuma import simulate_spmm, spmm_kernel
from repro.piuma.config import ENGINES, PIUMAConfig
from repro.piuma.degradation import DegradationSpec
from repro.piuma.densemm_kernel import dense_thread, emit_dense
from repro.piuma.engine import Simulator
from repro.piuma.kernels import ThreadWork, run_spmm_kernel, window_work
from repro.piuma.ops import DMAOp, OpProgram
from repro.piuma.spmm_dma import dma_thread
from repro.piuma.spmm_dynamic import simulate_spmm_dynamic
from repro.piuma.spmm_loop import owner_core
from repro.runtime.errors import SimulationDiverged
from repro.runtime.shard import shard_geometry
from tests.piuma.test_vector_engine import _capture_runs, _resource_state


def _result_fingerprint(result):
    """Everything the two engine paths must agree on, exactly."""
    return (
        result.sim_time_ns,
        result.gflops,
        result.projected_time_ns,
        result.memory_utilization,
        result.achieved_bandwidth,
        result.window_edges,
        result.events,
        sorted(
            (tag, s.count, s.bytes, s.wait_ns)
            for tag, s in result.tag_stats.items()
        ),
    )


def _both_paths(adj, embedding_dim, kernel="dma", **overrides):
    fast = simulate_spmm(
        adj, embedding_dim,
        PIUMAConfig(engine="fast", **overrides), kernel=kernel,
    )
    ref = simulate_spmm(
        adj, embedding_dim,
        PIUMAConfig(engine="reference", **overrides), kernel=kernel,
    )
    return fast, ref


def _checked_fast_path(adj, embedding_dim, kernel="dma", **overrides):
    """Default engine with the level-1 sanitizer armed (reference loop)."""
    return simulate_spmm(
        adj, embedding_dim,
        PIUMAConfig(engine="fast", check_level=1, **overrides),
        kernel=kernel,
    )


class TestGolden:
    """Pinned results on a fixed window, identical in every loop.

    The float goldens use a tight relative tolerance (libm-level
    differences only); equality across loops is exact.
    """

    @pytest.fixture(scope="class")
    def window(self):
        return rmat_for_size(4096, 4096 * 8, seed=11)

    def test_pinned_end_time_and_stats(self, window):
        fast, ref = _both_paths(window, 64, n_cores=4)
        assert _result_fingerprint(fast) == _result_fingerprint(ref)
        checked = _checked_fast_path(window, 64, n_cores=4)
        assert _result_fingerprint(checked) == _result_fingerprint(fast)
        assert fast.sim_time_ns == pytest.approx(41025.25, rel=1e-12)
        assert fast.gflops == pytest.approx(41.67907254057635, rel=1e-9)
        assert fast.events == 28232
        stats = fast.tag_stats
        assert stats["dma_read"].count == 12288
        assert stats["dma_init"].count == 12288
        assert stats["nnz"].count == 1536
        assert stats["atomic_write"].count == 1352
        assert stats["dma_read"].bytes == pytest.approx(3145728.0)

    def test_loop_kernel_pinned(self, window):
        fast, ref = _both_paths(window, 64, kernel="loop", n_cores=4)
        assert _result_fingerprint(fast) == _result_fingerprint(ref)
        checked = _checked_fast_path(window, 64, kernel="loop", n_cores=4)
        assert _result_fingerprint(checked) == _result_fingerprint(fast)
        assert fast.sim_time_ns == pytest.approx(42644.5625, rel=1e-12)
        assert fast.events == 15944


class TestDifferential:
    """Randomized fuzzing of every loop over an RMAT grid.

    20+ points spanning kernels, core counts, thread counts, embedding
    dims, and graph shapes; every fingerprint field must match exactly.
    """

    def _grid(self):
        rng = random.Random(0xF457)
        points = []
        kernels = ("dma", "loop", "vertex")
        for i in range(21):
            points.append({
                "n_vertices": rng.choice((512, 1024, 2048)),
                "degree": rng.choice((4, 8, 12)),
                "graph_seed": rng.randrange(1000),
                "kernel": kernels[i % len(kernels)],
                "embedding_dim": rng.choice((16, 32, 64)),
                "n_cores": rng.choice((1, 2, 4)),
                "threads_per_mtp": rng.choice((2, 4)),
            })
        return points

    @pytest.mark.parametrize("index", range(21))
    def test_point(self, index, monkeypatch, loop_calls):
        point = self._grid()[index]
        adj = rmat_for_size(
            point["n_vertices"],
            point["n_vertices"] * point["degree"],
            seed=point["graph_seed"],
        )
        sims = _capture_runs(monkeypatch)
        fast, ref = _both_paths(
            adj, point["embedding_dim"], kernel=point["kernel"],
            n_cores=point["n_cores"],
            threads_per_mtp=point["threads_per_mtp"],
        )
        assert _result_fingerprint(fast) == _result_fingerprint(ref), point
        # Every resource field native replay writes back, against the
        # reference loop's live state.
        assert loop_calls == ["replay", "reference"], point
        assert _resource_state(sims[0]) == _resource_state(sims[1]), point
        checked = _checked_fast_path(
            adj, point["embedding_dim"], kernel=point["kernel"],
            n_cores=point["n_cores"],
            threads_per_mtp=point["threads_per_mtp"],
        )
        assert _result_fingerprint(checked) == _result_fingerprint(
            fast
        ), point

    def test_dynamic_kernel(self):
        adj = rmat_for_size(1024, 1024 * 8, seed=5)
        fast = simulate_spmm_dynamic(
            adj, 32, PIUMAConfig(n_cores=2, threads_per_mtp=2)
        )
        ref = simulate_spmm_dynamic(
            adj, 32,
            PIUMAConfig(n_cores=2, threads_per_mtp=2, engine="reference"),
        )
        assert _result_fingerprint(fast) == _result_fingerprint(ref)
        # The work-stealing kernel has no emitter: its threads
        # stay generator-driven and the default run takes the
        # reference loop, checked or not, still bit-identical.
        checked = simulate_spmm_dynamic(
            adj, 32,
            PIUMAConfig(n_cores=2, threads_per_mtp=2, check_level=1),
        )
        assert _result_fingerprint(checked) == _result_fingerprint(fast)

    def test_watchdog_trips_identically(self):
        """The max_events ceiling must fire on the same event with the
        same cause in every loop — the watchdogs count the same
        events in the same global order."""
        adj = rmat_for_size(2048, 2048 * 8, seed=11)
        messages = set()
        for engine in ENGINES:
            config = PIUMAConfig(engine=engine, n_cores=4, max_events=5000)
            with pytest.raises(SimulationDiverged) as err:
                simulate_spmm(adj, 32, config, kernel="dma")
            assert err.value.cause == "max_events", engine
            messages.add(str(err.value))
        assert len(messages) == 1


def _assert_emission_matches(factory, work, embedding_dim, config):
    """The emitted program equals the drained generators: op values,
    per thread, in spawn order."""
    program = factory.emit(work, embedding_dim, config, {})
    assert program.n_threads == len(work)
    shared = {}
    for thread, item in enumerate(work):
        drained = OpProgram.from_generator(
            factory(item, embedding_dim, config, shared=shared)
        )
        assert program.thread_ops(thread) == drained.thread_ops(), thread


def _slices_splitter(adj, config, window_edges):
    """Edge-parallel work plus an empty and a one-edge thread slice."""
    work = window_work(adj, config, window_edges)
    return [
        ThreadWork(core=0, mtp=0, cols=work[0].cols[:0],
                   rows=work[0].rows[:0], start_edge=work[0].start_edge),
        ThreadWork(core=work[1].core, mtp=work[1].mtp,
                   cols=work[1].cols[:1], rows=work[1].rows[:1],
                   start_edge=work[1].start_edge),
    ] + work[2:]


class TestEmission:
    """Every static kernel's numpy emitter against its generators.

    The fuzz grid's graphs and configs for all three SpMM kernels, then
    the shapes the grid's splits do not reach.  The special cases also
    run end to end: replay must match the reference loop.
    """

    @pytest.mark.parametrize("index", range(21))
    def test_grid_point(self, index):
        point = TestDifferential()._grid()[index]
        adj = rmat_for_size(
            point["n_vertices"],
            point["n_vertices"] * point["degree"],
            seed=point["graph_seed"],
        )
        config = PIUMAConfig(n_cores=point["n_cores"],
                             threads_per_mtp=point["threads_per_mtp"])
        for kernel in ("dma", "loop", "vertex"):
            factory, splitter = spmm_kernel(kernel)
            work = window_work(adj, config, None, splitter)
            _assert_emission_matches(
                factory, work, point["embedding_dim"], config,
            )

    CASES = {
        # (config overrides, K, window edges, graph transform, splitter)
        "empty-and-one-edge-slices": ({}, 32, 1024, None,
                                      _slices_splitter),
        # 16 threads x 13 edges: every thread ends in a 5-edge group.
        "partial-nnz-group": ({}, 32, 16 * 13, None, None),
        "unhashed-placement": ({"hashed_placement": False}, 32, None,
                               None, None),
        "k-not-multiple-of-unroll": ({}, 20, None, None, None),
        "dead-cores": ({"n_cores": 4, "degradation": DegradationSpec(
            dead_core_fraction=0.25, seed=3)}, 32, None, None, None),
        "dead-mtps": ({"n_cores": 4, "degradation": DegradationSpec(
            dead_mtp_fraction=0.25, seed=5)}, 32, None, None, None),
        "multinode-shard": ({}, 32, None,
                            lambda adj: shard_geometry(adj, 4, 1)[0], None),
    }

    @pytest.mark.parametrize("kernel", ["dma", "loop", "vertex"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_special_case(self, loop_calls, case, kernel):
        overrides, embedding_dim, window, transform, splitter = \
            self.CASES[case]
        adj = rmat_for_size(1024, 1024 * 8, seed=21)
        if transform is not None:
            adj = transform(adj)
        config = PIUMAConfig(**{"n_cores": 2, "threads_per_mtp": 2,
                                **overrides})
        factory, default_splitter = spmm_kernel(kernel)
        splitter = splitter or default_splitter
        work = window_work(adj, config, window, splitter)
        _assert_emission_matches(factory, work, embedding_dim, config)
        results = [
            run_spmm_kernel(adj, embedding_dim, config.with_(engine=engine),
                            factory, window, splitter)
            for engine in ENGINES
        ]
        assert loop_calls == ["replay", "reference"]
        assert _result_fingerprint(results[0]) == _result_fingerprint(
            results[1]
        )

    @pytest.mark.parametrize("n_cores,window_rows", [
        (4, 4096), (32, 8192), (2, 1000),
    ])
    def test_dense(self, n_cores, window_rows):
        # simulate_dense_mm's split: contiguous row ranges, the last
        # one ragged when the window does not divide evenly.
        config = PIUMAConfig(n_cores=n_cores)
        per = max(1, window_rows // config.n_threads)
        thread_rows = [
            range(start, min(start + per, window_rows))
            for start in range(0, min(config.n_threads * per, window_rows),
                               per)
        ]
        program = emit_dense(thread_rows, 64, 32, config, {})
        shared = {}
        for thread, rows in enumerate(thread_rows):
            drained = OpProgram.from_generator(dense_thread(
                rows, 64, 32, config,
                core_of_row=lambda r: owner_core(r, n_cores),
                shared=shared,
            ))
            assert program.thread_ops(thread) == drained.thread_ops()


class TestStripeTargets:
    def test_fractional_nbytes_truncates(self):
        """Float shares must not grow the stripe count by one line."""
        sim = Simulator(PIUMAConfig(n_cores=8))
        exact = sim._stripe_targets(0, 128)
        noisy = sim._stripe_targets(0, 128.00000000001)
        assert noisy == exact
        assert len(sim._stripe_targets(0, 128.5)) == len(exact)


class TestOpInterning:
    def test_shared_table_interns_across_threads(self):
        """Two threads with one shared table yield identical instances."""
        from repro.piuma.kernels import split_work
        adj = rmat_for_size(512, 4096, seed=1)
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2)
        work = split_work(adj, config, 512)
        assert len(work) >= 2
        shared = {}
        ops_a = list(dma_thread(work[0], 32, config, shared=shared))
        ops_b = list(dma_thread(work[1], 32, config, shared=shared))
        ids_a = {id(op) for op in ops_a if isinstance(op, DMAOp)}
        ids_b = {id(op) for op in ops_b if isinstance(op, DMAOp)}
        assert ids_a & ids_b, "no DMA op instances shared across threads"

    def test_without_shared_table_sequences_equal(self):
        """Sharing the intern table must not change the yielded values."""
        from repro.piuma.kernels import split_work
        adj = rmat_for_size(512, 4096, seed=1)
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2)
        work = split_work(adj, config, 512)[0]
        private = list(dma_thread(work, 32, config))
        shared = list(dma_thread(work, 32, config, shared={}))
        assert private == shared

    def test_dma_kind_validated_at_construction(self):
        with pytest.raises(ValueError):
            DMAOp(kind="sideways", nbytes=0, target_core=0, tag="x")

    def test_dma_payload_validated_at_construction(self):
        # The staging queue holds payloads as integers in both loops,
        # so a fractional payload is rejected before either runs it.
        with pytest.raises(ValueError, match="not whole bytes"):
            DMAOp(kind="read", nbytes=53.5, target_core=0, tag="x")
        assert DMAOp(kind="read", nbytes=64, target_core=0,
                     tag="x").nbytes == 64
