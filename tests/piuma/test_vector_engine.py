"""Compiled-program replay, the default engine's loop for static kernels.

``tests/piuma/test_engine_fastpath.py`` pins the end-to-end contract
(bit-identical fingerprints across every loop); this suite aims at the
machinery that makes replay fast enough to matter — the spawn-time
per-(op, core) plan cache, the native loop's timeline backfill, the
counters it adds live per event, the write-back of every resource field
with its type, the release of every replayed simulator and of the
native buffers, the native core's build and load — and at which loop a
default-engine run executes: native compiled replay when every thread
is a program, no ``_execute`` hook is bound and the native core loaded
(fractional stripe shares included), the reference loop otherwise (a
generator thread, a wrapped DMA dispatch, the sanitizer armed, no
working compiler).
"""

import ctypes
import gc
import os
import random
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.rmat import rmat_for_size
from repro.piuma import simulate_spmm
from repro.piuma.config import PIUMAConfig
from repro.piuma.degradation import DEGRADATION_PRESETS
from repro.piuma.engine import Simulator
from repro.piuma.kernels import split_work
from repro.piuma.ops import (
    AtomicUpdate, Compute, DMAOp, Load, OpProgram, PhaseMarker,
    SequentialAccess, Store,
)
from repro.piuma.resources import Timeline
from repro.piuma.spmm_dma import dma_thread
from repro.piuma import native, vector_engine
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


def _typed(value):
    """``value`` with every leaf paired with its type, so ``==`` also
    compares types: ``5 == 5.0``, but ``(int, 5) != (float, 5.0)``."""
    if isinstance(value, (list, tuple)):
        return [_typed(item) for item in value]
    return (type(value), value)


def _resource_state(sim):
    """Every counter and horizon of every resource, exact floats and
    their types.

    The resource counters (``units_served``, ``requests``,
    ``bytes_served``, ``ops``, ``bytes_moved``) only exist here, not in
    the kernel fingerprint, so this is what holds the native loop's
    counters to the reference loop's; the rest is every field the
    native loop copies back (timelines with their retired busy time,
    priority horizons, staging queues, failure countdowns,
    ``setup_end``), so a field it forgets fails here.  Every leaf
    carries its type, so a write-back that turns an int counter into a
    float fails too.
    """
    def fluid(r):
        return (r.busy_until, r.busy_time, r.units_served, r.requests)

    return _typed((
        [fluid(p) for row in sim.pipelines for p in row],
        [fluid(a) for a in sim.atomic_units],
        [fluid(i) for i in sim.network._injection],
        [
            (s.bytes_served, s.requests, s._priority_busy,
             s._priority_horizon, s._timeline._starts, s._timeline._ends,
             s._timeline._retired_busy)
            for s in sim.slices
        ],
        [
            (e.ops, e.bytes_moved, e.retries, fluid(e._engine),
             list(e._inflight), e._inflight_bytes, e._fail_countdown)
            for e in sim.dma_engines
        ],
        sim.setup_end,
    ))


def _capture_runs(monkeypatch):
    """Every simulator :meth:`Simulator.run` runs, in call order."""
    sims = []
    run = Simulator.run

    def spy_run(self):
        sims.append(self)
        return run(self)

    monkeypatch.setattr(Simulator, "run", spy_run)
    return sims


def _spawn_all(sim, adj, embedding_dim, config, as_programs,
               per_thread=False):
    """Spawn the DMA kernel's threads, compiled or generator-driven.

    Compiled threads are registered as the kernels register them, one
    emitted program for all threads (generators when the run cannot
    replay), or with ``per_thread`` one drained program per
    ``spawn_program`` call.
    """
    shared = {}
    work_items = split_work(adj, config, 2048)
    if as_programs and not per_thread and sim.spawn_programs(
            dma_thread.emit(work_items, embedding_dim, config, shared),
            [(work.core, work.mtp) for work in work_items]):
        return
    for work in work_items:
        generator = dma_thread(work, embedding_dim, config, shared=shared)
        if as_programs:
            sim.spawn_program(
                OpProgram.from_generator(generator), work.core, work.mtp
            )
        else:
            sim.spawn(generator, work.core, work.mtp)


class TestMergeBackfill:
    """The native loop's backfill is ``Timeline.backfill`` minus the
    memmoves.

    The contract is *content* equivalence: same returned end and the
    same interval arrays after every single call, on adversarial
    sequences that hit all three mutation cases (extend-predecessor,
    overwrite-successor, plain insert).  ``piuma_backfill`` exports the
    loop's own function for this.
    """

    def _differential(self, calls):
        backfill = native.load().piuma_backfill
        timeline = Timeline()
        cap = len(calls)
        starts, ends = np.zeros(cap), np.zeros(cap)
        n = ctypes.c_int64(0)
        for arrival, duration in calls:
            # Timeline.backfill returns (start, end); the native one
            # returns only the end (callers never use start).
            _start, want = timeline.backfill(arrival, duration)
            got = backfill(starts.ctypes.data, ends.ctypes.data,
                           ctypes.byref(n), cap, arrival, duration)
            assert got == want, (arrival, duration)
            assert list(zip(starts[:n.value].tolist(),
                            ends[:n.value].tolist())) == \
                timeline._intervals, (arrival, duration)

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
        # Interned ops compile once per (op, core): one plan serves
        # every thread, on any MTP of the core, that issues the op.
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2)
        sim = Simulator(config)
        _spawn_all(sim, _adj(), 32, config, as_programs=True)
        state = sim._vector_state
        assert state is not None
        assert len(state.starts) == len(sim._threads)
        # One flat step list: every thread's plan ids, then plan 0.
        steps = np.concatenate(state.steps)
        assert steps.dtype == np.int32 and len(steps) == state.n_steps
        assert state.plan_i[0][0] == vector_engine.PLAN_END
        ends = state.starts[1:] + [len(steps)]
        threads = [steps[lo:hi].tolist() for lo, hi in zip(state.starts, ends)]
        assert all(uids[-1] == 0 and 0 not in uids[:-1] for uids in threads)
        total_steps = len(steps) - len(threads)
        assert len(state.plans) < total_steps / 4
        # One plan per distinct (op, core): threads on different MTPs
        # of a core step through the same plan ids.
        assert {core for core, _mtp in {
            (core, mtp) for _gen, core, mtp in sim._threads
        }} == {0, 1}
        plans_by_mtp = {}
        for (_gen, core, mtp), uids in zip(sim._threads, threads):
            plans_by_mtp.setdefault((core, mtp), set()).update(uids[:-1])
        for core in (0, 1):
            shared = set.intersection(
                *(uids for (c, _m), uids in plans_by_mtp.items()
                  if c == core)
            )
            assert shared, core
        assert len({uid for uids in plans_by_mtp.values() for uid in uids}) \
            == len(state.plans)

    def test_setup_ops_interned(self):
        # The per-thread setup ops (the binary search and the phase
        # marker) come from the kernel's shared table, so they add a
        # handful of plans per core rather than two per thread.
        config = PIUMAConfig(n_cores=2, threads_per_mtp=4)
        adj = _adj()
        shared = {}
        programs = [
            OpProgram.from_generator(
                dma_thread(work, 32, config, shared=shared))
            for work in split_work(adj, config, 2048)
        ]
        markers = {id(op) for p in programs for op in p.table
                   if isinstance(op, PhaseMarker)}
        searches = {id(p.table[0]) for p in programs}
        shapes = {(p.table[0].n_rounds, p.table[0].target_core)
                  for p in programs}
        assert len(programs) == 32
        assert len(markers) == 1
        # One binary-search op per (probe count, target slice).
        assert len(searches) == len(shapes) < len(programs)

    def test_live_counters_match_reference_accounting(self):
        # The native loop adds every counter per event, in handler
        # order; the totals must equal the reference loop's per-event
        # accounting on every resource, not just in the kernel
        # fingerprint.
        adj = _adj()
        replayed = Simulator(PIUMAConfig(n_cores=2, threads_per_mtp=2))
        _spawn_all(replayed, adj, 32, replayed.config, as_programs=True)
        replayed.run()
        reference = Simulator(
            PIUMAConfig(n_cores=2, threads_per_mtp=2, engine="reference")
        )
        _spawn_all(reference, adj, 32, reference.config,
                   as_programs=False)
        reference.run()
        assert _sim_fingerprint(replayed) == _sim_fingerprint(reference)
        assert _resource_state(replayed) == _resource_state(reference)


class TestEquivalence:
    def test_compiled_matches_generator_driven(self, loop_calls):
        # The same work spawned as compiled programs (replay; one
        # emitted program, and one drained program per thread) and as
        # generators (the reference loop) — the raw simulator state
        # must agree.
        adj = _adj()
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2)
        generators = Simulator(config)
        _spawn_all(generators, adj, 32, config, as_programs=False)
        generators.run()
        for per_thread in (False, True):
            replayed = Simulator(config)
            _spawn_all(replayed, adj, 32, config, as_programs=True,
                       per_thread=per_thread)
            replayed.run()
            assert _sim_fingerprint(replayed) == _sim_fingerprint(
                generators)
            assert _resource_state(replayed) == _resource_state(
                generators)
        assert loop_calls == ["reference", "replay", "replay"]

    def test_mixed_program_and_generator_threads(self):
        # Half the threads compiled, half generator-driven: the run
        # goes to the reference loop and still matches.
        adj = _adj()
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2)
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
        replayed = Simulator(config)
        _spawn_all(replayed, adj, 32, config, as_programs=True)
        replayed.run()
        assert _sim_fingerprint(sim) == _sim_fingerprint(replayed)

    def test_wrapped_dma_dispatch_falls_back(self):
        # Anything that replaces the DMA dispatch entry (the mutation
        # harness, instrumentation) must stay on-path: nothing is
        # compiled rather than routing compiled plans around the
        # wrapper, and the run goes to the reference loop.
        adj = _adj()
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2)
        sim = Simulator(config)
        inner = sim._dispatch[DMAOp]
        calls = []

        def wrapper(op, now, core, mtp):
            calls.append(op)
            return inner(op, now, core, mtp)

        sim._dispatch[DMAOp] = wrapper
        assert not sim.can_replay
        _spawn_all(sim, adj, 32, config, as_programs=True)
        assert sim._vector_state is None
        sim.run()
        assert calls, "wrapped dispatch was never invoked"
        replayed = Simulator(config)
        _spawn_all(replayed, adj, 32, config, as_programs=True)
        replayed.run()
        assert _sim_fingerprint(sim) == _sim_fingerprint(replayed)

    @pytest.mark.parametrize("preset", [None, "moderate"])
    def test_fractional_amounts_replay_exactly(self, loop_calls, preset):
        # Every op kind with non-integral amounts (instructions, bytes,
        # stripe shares): the native loop adds them per event in
        # handler order, so replay matches the reference loop down to
        # every counter, on a healthy and a degraded fabric.
        rng = random.Random(0xF4AC)
        n_cores = 4
        threads = []
        for _ in range(24):
            ops = []
            for _ in range(rng.randrange(5, 40)):
                target = rng.randrange(n_cores)
                ops.append(rng.choice((
                    lambda: Compute(rng.uniform(0.5, 9.5)),
                    lambda: Load(rng.uniform(1.0, 300.0), target, "load",
                                 grouped=rng.randrange(1, 4),
                                 priority=rng.random() < 0.5),
                    lambda: SequentialAccess(rng.randrange(1, 4),
                                             rng.uniform(8.0, 200.0),
                                             target, 2, "seq"),
                    lambda: Store(rng.uniform(1.0, 500.0), target, "store"),
                    lambda: AtomicUpdate(rng.uniform(1.0, 300.0), target,
                                         "atomic"),
                    # Three-line payloads: a share of 1/3 per slice.
                    lambda: DMAOp(rng.choice(("read", "write", "internal")),
                                  rng.randrange(129, 193), target, "dma"),
                ))())
            threads.append(ops)
        config = PIUMAConfig(
            n_cores=n_cores, threads_per_mtp=2,
            degradation=preset and DEGRADATION_PRESETS[preset],
        )
        sims = []
        for engine in ("fast", "reference"):
            sim = Simulator(config.with_(engine=engine))
            for t, ops in enumerate(threads):
                core, mtp = t % n_cores, (t // n_cores) % 4
                if engine == "fast":
                    sim.spawn_program(OpProgram.from_generator(ops),
                                      core, mtp)
                else:
                    sim.spawn((op for op in ops), core, mtp)
            sim.run()
            sims.append(sim)
        assert loop_calls == ["replay", "reference"]
        assert _sim_fingerprint(sims[0]) == _sim_fingerprint(sims[1])
        assert _resource_state(sims[0]) == _resource_state(sims[1])

    def test_dense_kernel_bit_identical(self):
        # DenseMM replays by default too: replay and the reference
        # loop, checked and unchecked, agree exactly.
        from repro.piuma.densemm_kernel import simulate_dense_mm

        for n_cores, shape in ((4, (4096, 64, 32)),
                               (32, (1 << 20, 256, 256))):
            results = [
                simulate_dense_mm(*shape, PIUMAConfig(n_cores=n_cores,
                                                      **knobs))
                for knobs in ({}, {"check_level": 1},
                              {"engine": "reference"})
            ]
            assert results[0] == results[1] == results[2], n_cores

    def test_checked_replay_at_level2(self):
        # At check_level=2 the default engine runs the reference loop
        # with the sanitizer on every op; results still bit-identical
        # to the unchecked, replayed run.
        adj = _adj()
        checked = simulate_spmm(
            adj, 32, PIUMAConfig(n_cores=2, check_level=2),
        )
        replayed = simulate_spmm(adj, 32, PIUMAConfig(n_cores=2))
        assert _fingerprint(checked) == _fingerprint(replayed)


class TestLoopSelection:
    """Which main loop a default-engine run executes.

    Native compiled replay (``_replay_native``) needs every thread
    compiled, no ``_execute`` hook bound and the native core loaded;
    every other run goes to ``Simulator._run_reference``, which drives
    the programs' generator views.
    """

    @pytest.mark.parametrize("kernel", ["spmm", "dense"])
    def test_default_static_kernels_replay(self, loop_calls, kernel):
        """A default-config static kernel at level 0 replays."""
        from repro.piuma.densemm_kernel import simulate_dense_mm

        config = PIUMAConfig(n_cores=2)
        if kernel == "spmm":
            simulate_spmm(_adj(), 16, config, window_edges=1024)
        else:
            simulate_dense_mm(256, 16, 16, config, window_rows=256)
        assert loop_calls == ["replay"]

    @pytest.mark.parametrize("kernel", ["dma", "loop", "vertex", "dense"])
    def test_static_kernels_emit_without_draining(self, loop_calls,
                                                  monkeypatch, kernel):
        """A default-engine run emits its programs: no generator is
        drained, and the run replays."""
        from repro.piuma.densemm_kernel import simulate_dense_mm

        drains = []
        from_generator = OpProgram.from_generator

        def spy_drain(generator):
            drains.append(generator)
            return from_generator(generator)

        monkeypatch.setattr(OpProgram, "from_generator", spy_drain)
        config = PIUMAConfig(n_cores=2)
        if kernel == "dense":
            simulate_dense_mm(256, 16, 16, config, window_rows=256)
        else:
            simulate_spmm(_adj(), 16, config, kernel=kernel,
                          window_edges=1024)
        assert drains == []
        assert loop_calls == ["replay"]

    def test_unchecked_programs_replay(self, loop_calls):
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2)
        sim = Simulator(config)
        _spawn_all(sim, _adj(), 32, config, as_programs=True)
        sim.run()
        assert loop_calls == ["replay"]

    def test_checked_run_takes_reference_loop(self, loop_calls):
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2, check_level=1)
        sim = Simulator(config)
        _spawn_all(sim, _adj(), 32, config, as_programs=True)
        assert sim._vector_state is None
        sim.run()
        assert loop_calls == ["reference"]

    def test_generator_thread_takes_reference_loop(self, loop_calls):
        # A generator spawned after the emitted program loses replay:
        # the reference loop runs the compiled threads' generator
        # views, with the generator-driven run's results.
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2)
        work = split_work(_adj(), config, 2048)[0]
        sims = []
        for as_programs in (True, False):
            sim = Simulator(config)
            _spawn_all(sim, _adj(), 32, config, as_programs=as_programs)
            sim.spawn(dma_thread(work, 32, config), work.core, work.mtp)
            sim.run()
            sims.append(sim)
        assert loop_calls == ["reference", "reference"]
        assert _sim_fingerprint(sims[0]) == _sim_fingerprint(sims[1])
        assert _resource_state(sims[0]) == _resource_state(sims[1])

    def test_detached_tracer_lets_the_run_replay(self, loop_calls):
        from repro.piuma.trace import Tracer

        config = PIUMAConfig(n_cores=2, threads_per_mtp=2)
        sim = Simulator(config)
        Tracer(sim).detach()
        assert "_execute" not in sim.__dict__
        _spawn_all(sim, _adj(), 32, config, as_programs=True)
        sim.run()
        assert loop_calls == ["replay"]

    @pytest.mark.parametrize("kernel", ["spmm", "dense"])
    def test_checked_kernel_spawns_generators(self, loop_calls,
                                              monkeypatch, kernel):
        """A sanitized run cannot replay, so nothing is emitted or
        compiled."""
        from repro.piuma import densemm_kernel
        from repro.piuma.densemm_kernel import simulate_dense_mm

        def refuse(*_args, **_kwargs):
            raise AssertionError("compiled a run that cannot replay")

        monkeypatch.setattr(OpProgram, "from_generator", refuse)
        monkeypatch.setattr(vector_engine, "compile_programs", refuse)
        monkeypatch.setattr(dma_thread, "emit", refuse)
        monkeypatch.setattr(densemm_kernel, "emit_dense", refuse)
        config = PIUMAConfig(n_cores=2, check_level=1)
        if kernel == "spmm":
            simulate_spmm(_adj(), 16, config, window_edges=1024)
        else:
            simulate_dense_mm(256, 16, 16, config, window_rows=256)
        assert loop_calls == ["reference"]

    def test_reference_engine_compiles_nothing(self, loop_calls,
                                               monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("compiled a reference-engine run")

        monkeypatch.setattr(OpProgram, "from_generator", refuse)
        monkeypatch.setattr(vector_engine, "compile_programs", refuse)
        monkeypatch.setattr(dma_thread, "emit", refuse)
        simulate_spmm(_adj(), 16, PIUMAConfig(n_cores=2,
                                              engine="reference"),
                      window_edges=1024)
        assert loop_calls == ["reference"]

    def test_wrapped_dma_dispatch_takes_reference_loop(self, loop_calls):
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2)
        sim = Simulator(config)
        inner = sim._dispatch[DMAOp]
        sim._dispatch[DMAOp] = (
            lambda op, now, core, mtp: inner(op, now, core, mtp)
        )
        _spawn_all(sim, _adj(), 32, config, as_programs=True)
        sim.run()
        assert loop_calls == ["reference"]

    def test_fractional_share_replays(self, loop_calls, monkeypatch):
        # K=40 rows are 160 bytes, three cache lines, so a DMA read
        # stripes 53.33 bytes over three slices.  The native loop adds
        # that fractional share per event in handler order, as the
        # reference handlers do, so the run replays its emitted program
        # (no generator drained) and matches the reference loop down to
        # every resource counter.
        drains = []
        from_generator = OpProgram.from_generator

        def spy_drain(generator):
            drains.append(generator)
            return from_generator(generator)

        monkeypatch.setattr(OpProgram, "from_generator", spy_drain)
        sims = _capture_runs(monkeypatch)
        adj = _adj()
        config = PIUMAConfig(n_cores=4, threads_per_mtp=2)
        result = simulate_spmm(adj, 40, config, window_edges=1024)
        assert loop_calls == ["replay"]
        assert drains == []
        assert any(s.bytes_served != int(s.bytes_served)
                   for s in sims[0].slices)
        reference = simulate_spmm(
            adj, 40, config.with_(engine="reference"), window_edges=1024,
        )
        assert _fingerprint(result) == _fingerprint(reference)
        assert _resource_state(sims[0]) == _resource_state(sims[1])


def _rss_mb():
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class TestReplayLeak:
    """A replayed simulator, and every buffer of the native loop, is
    freed once its caller drops it."""

    def test_replayed_simulators_are_freed(self, monkeypatch):
        refs = []
        replay = vector_engine._replay_native

        def spy_replay(sim, *args):
            refs.append(weakref.ref(sim))
            return replay(sim, *args)

        monkeypatch.setattr(vector_engine, "_replay_native", spy_replay)
        adj = _adj()
        for _ in range(3):
            simulate_spmm(adj, 16, PIUMAConfig(n_cores=2),
                          window_edges=1024)
        gc.collect()
        assert len(refs) == 3
        assert [ref() for ref in refs] == [None, None, None]

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="reads resident memory from /proc")
    def test_rss_flat_over_replays(self, loop_calls):
        # The native loop allocates its event queue and queue heads and
        # works in arrays the caller sizes; 60 replays of a 256-thread
        # point must leave resident memory where 5 left it.
        adj = _adj()
        config = PIUMAConfig(n_cores=4)
        for _ in range(5):
            simulate_spmm(adj, 64, config)
        gc.collect()
        before = _rss_mb()
        for _ in range(60):
            simulate_spmm(adj, 64, config)
        gc.collect()
        assert loop_calls == ["replay"] * 65
        assert _rss_mb() - before < 4.0

    def test_run_drops_compiled_state(self):
        config = PIUMAConfig(n_cores=2, threads_per_mtp=2)
        sim = Simulator(config)
        _spawn_all(sim, _adj(), 32, config, as_programs=True)
        assert sim._vector_state is not None
        sim.run()
        assert sim._vector_state is None


class TestDegradedPresets:
    @pytest.mark.parametrize("preset", sorted(DEGRADATION_PRESETS))
    def test_preset_bit_identical_checked(self, preset, monkeypatch,
                                          loop_calls):
        # Every shipped degradation preset: compiled replay (default
        # engine, check_level=0) must reproduce the sanitized
        # reference loop (check_level=1) bit-for-bit on a degraded
        # fabric too (stall windows, retries, rerouting), down to
        # every resource field the native loop writes back.
        adj = _adj()
        spec = DEGRADATION_PRESETS[preset]
        sims = _capture_runs(monkeypatch)
        results = {}
        for check_level in (1, 0):
            results[check_level] = simulate_spmm(
                adj, 32,
                PIUMAConfig(n_cores=4, check_level=check_level,
                            degradation=spec),
            )
        assert loop_calls == ["reference", "replay"]
        assert _fingerprint(results[0]) == _fingerprint(results[1])
        assert _resource_state(sims[1]) == _resource_state(sims[0])


class TestWatchdogParity:
    """Divergence ceilings trip at the *same event* in every loop.

    The structured payloads — cause, event count, simulated time — and
    every counter at the trip must match the reference loop's: the
    native loop stops mid-stream with every counter added up to the
    tripping event, and Python writes them back before raising.
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
        assert self._trip("fast", **ceilings) == self._trip(
            "reference", **ceilings
        )

    def test_stall_trip_matches_fast(self, loop_calls):
        # A zero-cost spinner program: the stall detector must fire
        # identically in replay and in the reference loop.
        from repro.piuma.ops import Compute

        spin = Compute(n_instrs=0, tag="spin")
        payloads = {}
        for engine in ("fast", "reference"):
            sim = Simulator(
                PIUMAConfig(n_cores=1, engine=engine, stall_events=100)
            )
            sim.spawn_program(OpProgram.from_generator([spin] * 200), 0, 0)
            with pytest.raises(SimulationDiverged) as err:
                sim.run()
            payloads[engine] = err.value.payload()
        assert loop_calls == ["replay", "reference"]
        assert payloads["reference"] == payloads["fast"]

    def test_live_counters_exact_at_trip(self):
        # After a max_events trip, the replay's live counters must
        # equal the reference loop's accounting at the same event.
        state = {}
        for as_programs in (True, False):
            config = PIUMAConfig(n_cores=2, max_events=900)
            sim = Simulator(config)
            _spawn_all(sim, _adj(), 16, config, as_programs=as_programs)
            with pytest.raises(SimulationDiverged):
                sim.run()
            state[as_programs] = (
                sim.events,
                sorted(
                    (tag, s.count, s.bytes, s.wait_ns)
                    for tag, s in sim.stats.items()
                ),
                _resource_state(sim),
            )
        assert state[True] == state[False]


class TestNativeBuild:
    """Building and loading the native replay core."""

    def test_no_compiler_takes_reference_loop(self, loop_calls,
                                              monkeypatch, tmp_path):
        # A compiler command that does not exist and an empty cache:
        # one RuntimeWarning, no replay, the reference loop, the same
        # results.
        adj = _adj()
        config = PIUMAConfig(n_cores=2)
        replayed = simulate_spmm(adj, 16, config, window_edges=1024)
        monkeypatch.setattr(native, "compiler",
                            lambda: ["no-such-compiler-for-replay"])
        monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(native, "_lib", native._UNSET)
        with pytest.warns(RuntimeWarning) as caught:
            assert not Simulator(config).can_replay
            fallback = simulate_spmm(adj, 16, config, window_edges=1024)
        assert [str(w.message) for w in caught if
                issubclass(w.category, RuntimeWarning)] == [
            str(caught[0].message)]
        assert "native replay core unavailable" in str(caught[0].message)
        assert loop_calls == ["replay", "reference"]
        assert _fingerprint(fallback) == _fingerprint(replayed)
        assert list(tmp_path.iterdir()) == []

    def test_fresh_interpreter_loads_without_subprocess(self):
        native.load()
        code = textwrap.dedent("""
            import os
            import subprocess

            def refuse(*args, **kwargs):
                raise AssertionError("started a subprocess")

            subprocess.Popen = refuse
            os.fork = os.posix_spawn = os.system = refuse
            from repro.piuma import native
            assert native.load() is not None
        """)
        src = Path(native.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
