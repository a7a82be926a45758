"""The vector replay engine's internals, held to the fast loop.

``tests/piuma/test_engine_fastpath.py`` pins the end-to-end contract
(bit-identical fingerprints across the engine matrix); this suite aims
at the machinery that makes the vector engine fast enough to matter —
the spawn-time plan cache, the fused ``_merge_backfill``, the deferred
integral counters (full and partial settle legs) — and at which loop a
vector run executes: compiled replay when every thread is a program
and no ``_execute`` hook is bound, the fast loop otherwise (a
generator thread, a wrapped DMA dispatch, the sanitizer armed).
"""

import random

import pytest

from repro.graphs.rmat import rmat_for_size
from repro.piuma import simulate_spmm
from repro.piuma.config import PIUMAConfig
from repro.piuma.degradation import DEGRADATION_PRESETS
from repro.piuma.engine import Simulator
from repro.piuma.kernels import split_work
from repro.piuma.ops import DMAOp, OpProgram
from repro.piuma.resources import Timeline
from repro.piuma.spmm_dma import dma_thread
from repro.piuma import vector_engine
from repro.piuma.vector_engine import _merge_backfill
from repro.runtime.errors import SimulationDiverged


def _fingerprint(result):
    return (
        result.sim_time_ns,
        result.gflops,
        result.memory_utilization,
        result.achieved_bandwidth,
        result.events,
        sorted(
            (tag, s.count, s.bytes, s.wait_ns)
            for tag, s in result.tag_stats.items()
        ),
    )


def _adj():
    return rmat_for_size(1024, 1024 * 8, seed=21)


def _sim_fingerprint(sim):
    return (
        sim.end_time,
        sim.events,
        sorted(
            (tag, s.count, s.bytes, s.wait_ns)
            for tag, s in sim.stats.items()
        ),
    )


def _spawn_all(sim, adj, embedding_dim, config, as_programs):
    """Spawn the DMA kernel's threads, compiled or generator-driven."""
    shared = {}
    for work in split_work(adj, config, 2048):
        generator = dma_thread(work, embedding_dim, config, shared=shared)
        if as_programs:
            sim.spawn_program(
                OpProgram.from_generator(generator), work.core, work.mtp
            )
        else:
            sim.spawn(generator, work.core, work.mtp)


class TestMergeBackfill:
    """``_merge_backfill`` is ``Timeline.backfill`` minus the memmoves.

    The contract is *content* equivalence: same returned end and the
    same interval lists after every single call, on adversarial
    sequences that hit all three mutation cases (extend-predecessor,
    overwrite-successor, plain insert).
    """

    def _differential(self, calls):
        timeline = Timeline()
        starts, ends = [], []
        for arrival, duration in calls:
            # Timeline.backfill returns (start, end); the fused
            # version returns only the end (callers never use start).
            _start, want = timeline.backfill(arrival, duration)
            got = _merge_backfill(starts, ends, arrival, duration)
            assert got == want, (arrival, duration)
            assert list(zip(starts, ends)) == timeline._intervals, (
                arrival, duration,
            )

    def test_randomized_sequences(self):
        rng = random.Random(0xBF11)
        for _ in range(50):
            calls = [
                (
                    rng.uniform(0.0, 500.0),
                    rng.choice((0.25, 1.0, 7.5, 40.0)),
                )
                for _ in range(rng.randrange(1, 120))
            ]
            self._differential(calls)

    def test_epsilon_adjacency(self):
        # Intervals landing within 1e-9 of a neighbor must merge
        # exactly as the original's epsilon does.
        self._differential([
            (0.0, 10.0),
            (10.0 + 5e-10, 5.0),      # merges into the predecessor
            (100.0, 10.0),
            (99.0, 0.5),              # backfills before, then merges
            (50.0, 1.0),
            (49.999999999, 1.0),      # epsilon-close on the left
        ])

    def test_backfill_into_gap(self):
        self._differential([
            (0.0, 10.0), (30.0, 10.0), (5.0, 3.0), (5.0, 20.0),
        ])


class TestPlanCache:
    def test_plans_shared_across_threads(self):
        # Interned ops compile once per (op, core, mtp): with one
        # shared table the cache stays far below total op instances.
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2,
                             engine="vector")
        sim = Simulator(config)
        _spawn_all(sim, _adj(), 32, config, as_programs=True)
        state = sim._vector_state
        assert state is not None
        total_steps = sum(
            len(codes) for _idx, codes, _row, _n in state["rows"]
        )
        assert len(state["progs"]) == len(state["rows"])
        assert len(state["cache"]) < total_steps / 4
        # Healthy DMA kernel: every plan defers integrally.
        assert state["taint"] is False

    def test_full_counts_match_partial_leg(self):
        # The compile-time full-run counts must equal what the slow
        # bincount leg computes for a completed run.
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2,
                             engine="vector")
        sim = Simulator(config)
        _spawn_all(sim, _adj(), 32, config, as_programs=True)
        sim.run()
        state = sim._vector_state
        pcs = sim._program_pcs
        partial = vector_engine._partial_uid_counts(
            state["rows"], pcs, len(state["uids"])
        )
        assert partial == state["full"]


class TestEquivalence:
    def test_compiled_matches_generator_driven(self):
        # The same work spawned as compiled programs (vector) and as
        # generators (fast) — the raw simulator state must agree.
        adj = _adj()
        vec_cfg = PIUMAConfig(n_cores=2, threads_per_mtp=2,
                              engine="vector")
        vec = Simulator(vec_cfg)
        _spawn_all(vec, adj, 32, vec_cfg, as_programs=True)
        vec.run()
        fast_cfg = PIUMAConfig(n_cores=2, threads_per_mtp=2)
        fast = Simulator(fast_cfg)
        _spawn_all(fast, adj, 32, fast_cfg, as_programs=False)
        fast.run()
        assert _sim_fingerprint(vec) == _sim_fingerprint(fast)

    def test_mixed_program_and_generator_threads(self):
        # Half the threads compiled, half generator-driven: the run
        # goes to the fast loop and still matches.
        adj = _adj()
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2,
                             engine="vector")
        sim = Simulator(config)
        shared = {}
        work_items = split_work(adj, config, 2048)
        for i, work in enumerate(work_items):
            generator = dma_thread(work, 32, config, shared=shared)
            if i % 2 == 0:
                sim.spawn_program(
                    OpProgram.from_generator(generator),
                    work.core, work.mtp,
                )
            else:
                sim.spawn(generator, work.core, work.mtp)
        sim.run()
        fast_cfg = PIUMAConfig(n_cores=2, threads_per_mtp=2)
        fast = Simulator(fast_cfg)
        _spawn_all(fast, adj, 32, fast_cfg, as_programs=False)
        fast.run()
        assert _sim_fingerprint(sim) == _sim_fingerprint(fast)

    def test_wrapped_dma_dispatch_falls_back(self):
        # Anything that replaces the DMA dispatch entry (the mutation
        # harness, instrumentation) must stay on-path: compile_thread
        # leaves threads uncompiled rather than routing compiled plans
        # around the wrapper, and the run goes to the fast loop.
        adj = _adj()
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2,
                             engine="vector")
        sim = Simulator(config)
        inner = sim._dispatch[DMAOp]
        calls = []

        def wrapper(op, now, core, mtp):
            calls.append(op)
            return inner(op, now, core, mtp)

        sim._dispatch[DMAOp] = wrapper
        _spawn_all(sim, adj, 32, config, as_programs=True)
        state = sim._vector_state
        assert state is None or not state["progs"]
        sim.run()
        assert calls, "wrapped dispatch was never invoked"
        fast_cfg = PIUMAConfig(n_cores=2, threads_per_mtp=2)
        fast = Simulator(fast_cfg)
        _spawn_all(fast, adj, 32, fast_cfg, as_programs=False)
        fast.run()
        assert _sim_fingerprint(sim) == _sim_fingerprint(fast)

    def test_checked_replay_at_level2(self):
        # At check_level=2 the vector engine runs the fast loop with
        # the sanitizer on every op; results still bit-identical.
        adj = _adj()
        vec = simulate_spmm(
            adj, 32,
            PIUMAConfig(n_cores=2, engine="vector", check_level=2),
        )
        fast = simulate_spmm(adj, 32, PIUMAConfig(n_cores=2))
        assert _fingerprint(vec) == _fingerprint(fast)


class TestLoopSelection:
    """Which main loop a vector-engine run executes.

    Compiled replay (``_replay_programs``) needs every thread compiled
    and no ``_execute`` hook bound; every other run goes to
    ``Simulator._run_fast``, which drives the programs' generator
    views.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        run_fast = Simulator._run_fast
        replay = vector_engine._replay_programs

        def spy_fast(sim):
            calls.append("fast")
            return run_fast(sim)

        def spy_replay(*args):
            calls.append("replay")
            return replay(*args)

        monkeypatch.setattr(Simulator, "_run_fast", spy_fast)
        monkeypatch.setattr(vector_engine, "_replay_programs", spy_replay)
        return calls

    def test_unchecked_programs_replay(self, calls):
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2,
                             engine="vector")
        sim = Simulator(config)
        _spawn_all(sim, _adj(), 32, config, as_programs=True)
        sim.run()
        assert calls == ["replay"]

    def test_checked_run_takes_fast_loop(self, calls):
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2,
                             engine="vector", check_level=1)
        sim = Simulator(config)
        _spawn_all(sim, _adj(), 32, config, as_programs=True)
        sim.run()
        assert calls == ["fast"]

    def test_generator_thread_takes_fast_loop(self, calls):
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2,
                             engine="vector")
        sim = Simulator(config)
        _spawn_all(sim, _adj(), 32, config, as_programs=True)
        work = split_work(_adj(), config, 2048)[0]
        sim.spawn(dma_thread(work, 32, config), work.core, work.mtp)
        sim.run()
        assert calls == ["fast"]

    def test_detached_tracer_lets_the_run_replay(self, calls):
        from repro.piuma.trace import Tracer

        config = PIUMAConfig(n_cores=2, threads_per_mtp=2,
                             engine="vector")
        sim = Simulator(config)
        Tracer(sim).detach()
        assert "_execute" not in sim.__dict__
        _spawn_all(sim, _adj(), 32, config, as_programs=True)
        sim.run()
        assert calls == ["replay"]

    @pytest.mark.parametrize("kernel", ["spmm", "dense"])
    def test_checked_kernel_spawns_generators(self, calls, monkeypatch,
                                              kernel):
        """A sanitized run cannot replay, so nothing is compiled."""
        from repro.piuma.densemm_kernel import simulate_dense_mm

        def refuse(*_args, **_kwargs):
            raise AssertionError("compiled a run that cannot replay")

        monkeypatch.setattr(OpProgram, "from_generator", refuse)
        monkeypatch.setattr(vector_engine, "compile_thread", refuse)
        config = PIUMAConfig(n_cores=2, engine="vector", check_level=1)
        if kernel == "spmm":
            simulate_spmm(_adj(), 16, config, window_edges=1024)
        else:
            simulate_dense_mm(256, 16, 16, config, window_rows=256)
        assert calls == ["fast"]

    def test_wrapped_dma_dispatch_takes_fast_loop(self, calls):
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2,
                             engine="vector")
        sim = Simulator(config)
        inner = sim._dispatch[DMAOp]
        sim._dispatch[DMAOp] = (
            lambda op, now, core, mtp: inner(op, now, core, mtp)
        )
        _spawn_all(sim, _adj(), 32, config, as_programs=True)
        sim.run()
        assert calls == ["fast"]


class TestDegradedPresets:
    @pytest.mark.parametrize("preset", sorted(DEGRADATION_PRESETS))
    def test_preset_bit_identical_checked(self, preset):
        # Every shipped degradation preset: compiled replay (vector,
        # check_level=0) must reproduce the sanitized fast path
        # (check_level=1) bit-for-bit on a degraded fabric too (stall
        # windows, retries, rerouting).
        adj = _adj()
        spec = DEGRADATION_PRESETS[preset]
        results = {}
        for engine, check_level in (("fast", 1), ("vector", 0)):
            results[engine] = simulate_spmm(
                adj, 32,
                PIUMAConfig(n_cores=4, check_level=check_level,
                            engine=engine, degradation=spec),
            )
        assert _fingerprint(results["vector"]) == _fingerprint(
            results["fast"]
        )


class TestWatchdogParity:
    """Divergence ceilings trip at the *same event* on every engine.

    The deferred counters make this subtle: a mid-run raise must
    settle the executed prefix exactly (the partial bincount leg), so
    the structured payloads — cause, event count, simulated time —
    must match the fast path's.
    """

    def _trip(self, engine, **ceilings):
        config = PIUMAConfig(n_cores=2, engine=engine, **ceilings)
        with pytest.raises(SimulationDiverged) as err:
            simulate_spmm(_adj(), 16, config, window_edges=1024)
        return err.value.payload()

    @pytest.mark.parametrize("ceilings", [
        {"max_events": 700},
        {"max_sim_ns": 400.0},
    ], ids=["max_events", "max_sim_ns"])
    def test_trip_payloads_match_fast(self, ceilings):
        assert self._trip("vector", **ceilings) == self._trip(
            "fast", **ceilings
        )

    def test_stall_trip_matches_fast(self):
        # A zero-cost spinner is generator-driven under both engines
        # (no program): the stall detector must fire identically.
        from repro.piuma.ops import Compute

        payloads = {}
        for engine in ("fast", "vector"):
            sim = Simulator(
                PIUMAConfig(n_cores=1, engine=engine, stall_events=100)
            )

            def spinner():
                while True:
                    yield Compute(n_instrs=0, tag="spin")

            sim.spawn(spinner(), 0, 0)
            with pytest.raises(SimulationDiverged) as err:
                sim.run()
            payloads[engine] = err.value.payload()
        assert payloads["vector"] == payloads["fast"]

    def test_partial_settle_is_exact(self):
        # After a max_events trip, the vector engine's settled stats
        # must equal the fast path's live accounting at the same event
        # — the partial (bincount) settle leg, exercised end-to-end.
        stats = {}
        for engine in ("fast", "vector"):
            config = PIUMAConfig(n_cores=2, engine=engine,
                                 max_events=900)
            sim = Simulator(config)
            _spawn_all(sim, _adj(), 16, config,
                       as_programs=(engine == "vector"))
            with pytest.raises(SimulationDiverged):
                sim.run()
            stats[engine] = (
                sim.events,
                sorted(
                    (tag, s.count, s.bytes, s.wait_ns)
                    for tag, s in sim.stats.items()
                ),
            )
        assert stats["vector"] == stats["fast"]
