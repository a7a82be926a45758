"""Discrete-event simulator core.

Threads are Python generators yielding :mod:`repro.piuma.ops` records;
the simulator executes each op against fluid resources (MTP pipelines,
DMA engines, DRAM slices, network ports) and resumes the generator at
the op's completion (blocking ops) or issue time (asynchronous ops).
The event queue therefore holds exactly one entry per runnable thread —
the simulation costs at most one heap operation per yielded op.

This is a *down-scaled* simulator in the sense of the paper's ref [18]:
kernels simulate a bounded edge window at full mechanism fidelity and
project steady-state throughput to the full graph.

The simulator has two main loops (see DESIGN.md, "Host performance"):

* compiled replay (:mod:`repro.piuma.vector_engine`), a C loop that
  runs op programs compiled at spawn time.  ``PIUMAConfig.engine="fast"``
  (the default) takes it whenever every thread is a compiled program,
  nothing hooks ``_execute`` and the native core loaded;
* the reference loop, the plain pop/execute/push loop kept as the
  semantics oracle.  ``engine="reference"`` always takes it, and so
  does every run replay cannot take: a sanitizer or tracer armed, a
  generator-driven thread.

Both loops share one event queue, a :mod:`heapq` list, and produce
bit-identical results — same ``end_time``, per-tag stats, resource
utilizations, and watchdog/event accounting — which the differential
suite in ``tests/piuma/test_engine_fastpath.py`` enforces.
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict

from repro.piuma import native, vector_engine
from repro.piuma.degradation import DegradationModel
from repro.piuma.dma import DMAEngine
from repro.piuma.network import Network
from repro.piuma.ops import (
    AtomicUpdate,
    Compute,
    DMAOp,
    Load,
    PhaseMarker,
    SequentialAccess,
    Store,
)
from repro.piuma.invariants import InvariantChecker
from repro.piuma.resources import DRAMSlice, FluidResource
from repro.runtime.errors import HardwareExhausted, SimulationDiverged


class TagStats:
    """Aggregate accounting for one op tag.

    A hand-written ``__slots__`` class (not a dataclass): three fields
    are updated once per executed op, and slot stores are measurably
    cheaper than instance-dict stores on that path.
    """

    __slots__ = ("count", "bytes", "wait_ns")

    def __init__(self, count=0, bytes=0.0, wait_ns=0.0):
        self.count = count
        self.bytes = bytes
        self.wait_ns = wait_ns  # blocking time charged to threads

    def __repr__(self):
        return (
            f"TagStats(count={self.count}, bytes={self.bytes}, "
            f"wait_ns={self.wait_ns})"
        )

    def __eq__(self, other):
        if not isinstance(other, TagStats):
            return NotImplemented
        return (
            self.count == other.count
            and self.bytes == other.bytes
            and self.wait_ns == other.wait_ns
        )


class Simulator:
    """Event-driven PIUMA model for one kernel invocation.

    Parameters
    ----------
    config:
        :class:`repro.piuma.config.PIUMAConfig`.

    Attributes
    ----------
    events:
        Generator resumptions executed by the last :meth:`run` (the
        DES event count; identical in every loop).
    host_wall_s:
        Host wall-clock seconds the last :meth:`run` took.
    """

    def __init__(self, config):
        self.config = config
        # Resolved degradation state (None on a healthy fabric).  Static
        # for the simulator's lifetime: both main loops see identical
        # link/slice/engine/pipeline state, which is what keeps them
        # bit-identical under faults.
        degradation = DegradationModel.for_config(config)
        self.degradation = degradation
        self.network = Network(config, degradation=degradation)
        if degradation is None:
            self.slices = [
                DRAMSlice(
                    config.slice_bandwidth_bytes_per_ns,
                    config.dram_latency_ns,
                    name=f"dram{c}",
                )
                for c in range(config.n_cores)
            ]
            self.dma_engines = [
                DMAEngine(c, config) for c in range(config.n_cores)
            ]
        else:
            self.slices = []
            self.dma_engines = []
            for c in range(config.n_cores):
                bw, lat, period, duration = degradation.slice_parameters(
                    c, config.slice_bandwidth_bytes_per_ns,
                    config.dram_latency_ns,
                )
                self.slices.append(DRAMSlice(
                    bw, lat, name=f"dram{c}",
                    stall_period_ns=period, stall_duration_ns=duration,
                ))
                alive, fail_period, backoff = degradation.dma_parameters(c)
                self.dma_engines.append(DMAEngine(
                    c, config, alive=alive, fail_period=fail_period,
                    retry_backoff_ns=backoff,
                ))
        self.atomic_units = [
            FluidResource(config.atomic_rate_gbps, name=f"atomic{c}")
            for c in range(config.n_cores)
        ]
        # One fluid pipeline per MTP, shared by its threads.
        instr_rate = config.clock_ghz  # instructions per ns
        self.pipelines = [
            [
                FluidResource(instr_rate, name=f"mtp{c}.{m}")
                for m in range(config.mtps_per_core)
            ]
            for c in range(config.n_cores)
        ]
        self.stats = defaultdict(TagStats)
        self.end_time = 0.0
        self.setup_end = 0.0  # latest PhaseMarker across threads
        self.events = 0
        self.host_wall_s = 0.0
        # The event queue: a heapq list of (when, seq, idx, value)
        # entries, one per runnable thread.  Tuple order is the global
        # event order (time, then FIFO by sequence number).
        self._heap = []
        self._seq = 0
        self._threads = []
        # Replay compile state (vector_engine.ReplayState): the
        # per-(op, core) plan rows and the flat step list, built at
        # spawn_programs time so run() only replays; run() drops it.
        self._vector_state = None
        # Memoized stripe-target core lists, keyed by (base_core,
        # nbytes) — recomputing them per edge was a measurable share of
        # host time.
        self._stripe_cache = {}
        # Constants of the inlined DMA issue-slot reserve (identical
        # floats to FluidResource.reserve's `amount / rate + 0.0`).
        self._dma_issue_instrs = config.dma_issue_instrs
        self._dma_issue_cost = config.dma_issue_instrs / instr_rate + 0.0
        # Type-dispatch table replacing the isinstance ladder: one dict
        # lookup selects the handler.  The DMA handler — a couple of
        # invocations per simulated edge — is a closure over pre-bound
        # resources rather than a method, eliminating both the
        # per-invocation ``self`` lookups and the layered calls.
        # Replay runs only while the table holds this very closure.
        self._exec_dma = self._make_exec_dma()
        self._dispatch = {
            PhaseMarker: self._exec_phase_marker,
            Compute: self._exec_compute,
            Load: self._exec_load,
            SequentialAccess: self._exec_sequential,
            Store: self._exec_store,
            AtomicUpdate: self._exec_atomic,
            DMAOp: self._exec_dma,
        }
        # Runtime invariant sanitizer (repro.piuma.invariants): at
        # check_level>=1 it installs an instance `_execute` wrapper —
        # the same hook a Tracer uses — which rules replay out, so the
        # reference loop routes every op through it; at level 0
        # nothing is constructed.
        self.checker = (
            InvariantChecker(self, config.check_level)
            if config.check_level
            else None
        )

    # -- thread management ---------------------------------------------------

    def spawn(self, generator, core, mtp):
        """Register a thread generator pinned to (core, mtp)."""
        self._check_placement(core, mtp)
        idx = len(self._threads)
        self._threads.append((generator, core, mtp))
        self._push(0.0, idx, None)

    def _check_placement(self, core, mtp):
        if not 0 <= core < self.config.n_cores:
            raise ValueError("core out of range")
        if not 0 <= mtp < self.config.mtps_per_core:
            raise ValueError("mtp out of range")

    def spawn_programs(self, program, placements):
        """Register every thread of a compiled multi-thread program.

        ``program`` is an :class:`~repro.piuma.ops.OpProgram` (one op
        table, one flat step-code array) and ``placements`` gives each
        of its threads' ``(core, mtp)``, in spawn order.  When the run
        can replay, the whole program is compiled in one pass
        (:func:`~repro.piuma.vector_engine.compile_programs`) and every
        thread is registered with its generator view, which the
        reference loop runs should replay be lost later.  Returns False
        and registers nothing when the run cannot replay (including
        after a generator thread was spawned); the caller then spawns
        its generators.
        """
        if len(placements) != program.n_threads:
            raise ValueError("one placement per program thread")
        for core, mtp in placements:
            self._check_placement(core, mtp)
        if not self.can_replay:
            return False
        views = vector_engine.compile_programs(self, program, placements)
        if views is None:
            return False
        for view, (core, mtp) in zip(views, placements):
            idx = len(self._threads)
            self._threads.append((view, core, mtp))
            self._push(0.0, idx, None)
        return True

    def spawn_program(self, program, core, mtp):
        """Register a one-thread :class:`~repro.piuma.ops.OpProgram`.

        Goes through the same compile as :meth:`spawn_programs`; when
        the run cannot replay, the program's generator view is spawned
        instead, so the reference loop runs it unchanged.
        """
        if not self.spawn_programs(program, [(core, mtp)]):
            self.spawn(program.replay(), core, mtp)

    @property
    def can_replay(self):
        """Whether :meth:`run` can still replay compiled programs.

        Replay takes the default engine, no ``_execute`` hook bound
        (the sanitizer binds one in ``__init__``), the DMA dispatch
        entry ``__init__`` built (a wrapper must stay on-path), and the
        native replay core (:mod:`repro.piuma.native`, built on first
        use).  Kernels read it before emitting their programs, so a run
        that cannot replay spawns plain generators and emits nothing.
        """
        return (self.config.engine == "fast"
                and "_execute" not in self.__dict__
                and self._dispatch[DMAOp] is self._exec_dma
                and native.load() is not None)

    def _push(self, when, idx, value):
        heapq.heappush(self._heap, (when, self._seq, idx, value))
        self._seq += 1

    # -- op execution ----------------------------------------------------------

    def _memory_read(self, now, src_core, dst_core, nbytes, priority=False):
        """Round trip: request travels to the slice, data comes back."""
        arrival = now + self.network.latency(src_core, dst_core)
        done = self.slices[dst_core].request(arrival, nbytes, priority=priority)
        return done + self.network.latency(dst_core, src_core)

    def _stripe_targets(self, base_core, nbytes):
        """Slices touched by a bulk row access.

        Feature rows are line-interleaved across consecutive slices in
        the DGAS, so a multi-line row (and with it the traffic of a hub
        vertex) spreads over several memory controllers instead of
        hammering one.  Striping is capped to bound simulation cost; the
        cap still spreads hub load well below the per-slice mean.

        ``nbytes`` is truncated to an integer before the ceil-division:
        callers that split a payload into fluid shares can pass floats,
        and float ceil-div would let representation noise (e.g.
        ``128.00000000001``) grow the stripe count by one line.
        """
        key = (base_core, nbytes)
        targets = self._stripe_cache.get(key)
        if targets is None:
            cfg = self.config
            lines = (
                int(nbytes) + cfg.cache_line_bytes - 1
            ) // cfg.cache_line_bytes
            if lines < 1:
                lines = 1
            n = min(cfg.stripe_lines, lines, cfg.n_cores)
            n_cores = cfg.n_cores
            targets = [(base_core + i) % n_cores for i in range(n)]
            self._stripe_cache[key] = targets
        return targets

    # -- per-op handlers (type-dispatch table) --------------------------------

    def _exec_phase_marker(self, op, now, core, mtp):
        if now > self.setup_end:
            self.setup_end = now
        return now, now

    def _exec_compute(self, op, now, core, mtp):
        _start, end = self.pipelines[core][mtp].reserve(now, op.n_instrs)
        self._account(op.tag, 0, 0.0)
        return end, end

    def _exec_load(self, op, now, core, mtp):
        _start, issued = self.pipelines[core][mtp].reserve(now, op.grouped)
        done = self._memory_read(
            issued, core, op.target_core, op.nbytes, priority=op.priority
        )
        self._account(op.tag, op.nbytes, done - issued)
        return done, done

    def _exec_sequential(self, op, now, core, mtp):
        # Dependent round trips: the thread's time is (all issue
        # slots) + (bandwidth service of all bytes, with queueing)
        # + one latency round trip per round.  Bytes are charged to
        # the slice in one aggregate reservation at issue time so
        # shared resources are only ever touched in global event
        # order (reserving at future times would corrupt the FIFO
        # horizons of other threads).
        _start, issued = self.pipelines[core][mtp].reserve(
            now, op.n_rounds * op.instrs_per_round
        )
        network = self.network
        slices = self.slices
        total_bytes = op.n_rounds * op.bytes_per_round
        targets = self._stripe_targets(op.target_core, total_bytes)
        share = total_bytes / len(targets)
        served = issued
        worst_trip = 0.0
        for dst in targets:
            hop = network.latency(core, dst)
            slice_ = slices[dst]
            done = slice_.request(issued + hop, share) + hop
            if done > served:
                served = done
            trip = 2 * hop + slice_.latency_ns
            if trip > worst_trip:
                worst_trip = trip
        # request() already charged one DRAM latency (plus hops);
        # the remaining n_rounds - 1 dependent trips are pure delay
        # on this thread only.
        done = served + (op.n_rounds - 1) * worst_trip
        self._account(op.tag, total_bytes, done - issued)
        return done, done

    def _exec_store(self, op, now, core, mtp):
        _start, issued = self.pipelines[core][mtp].reserve(now, 1)
        network = self.network
        slices = self.slices
        targets = self._stripe_targets(op.target_core, op.nbytes)
        share = op.nbytes / len(targets)
        done = issued
        for dst in targets:
            arrival = network.transfer(issued, core, dst, share)
            end = slices[dst].request(arrival, share)
            if end > done:
                done = end
        self._account(op.tag, op.nbytes, 0.0)
        return issued, done

    def _exec_atomic(self, op, now, core, mtp):
        _start, issued = self.pipelines[core][mtp].reserve(now, 1)
        arrival = self.network.transfer(
            issued, core, op.target_core, op.nbytes
        )
        _ustart, unit_done = self.atomic_units[op.target_core].reserve(
            arrival, op.nbytes, extra_time=self.config.atomic_overhead_ns
        )
        # RMW: the unit reads the current row and writes the sum.
        done = self.slices[op.target_core].request(
            unit_done, 2 * op.nbytes
        )
        self._account(op.tag, 2 * op.nbytes, 0.0)
        return issued, done

    def _make_exec_dma(self):
        """Build the DMA handler as a closure over pre-bound resources.

        This is the simulator's one DMA implementation: the reference
        loop dispatches DMA ops through it, and the compiled replay
        plans (``vector_engine._build_plan``) repeat its arithmetic
        expression for expression, which the differential suite holds
        to it.  It is the hottest code in the simulator (a couple of
        executions per simulated edge), so the pipeline issue-slot
        reserve, the engine's staging-credit bookkeeping and occupancy
        (:class:`~repro.piuma.dma.DMAEngine` state), the network
        injection, and the DRAM slice request are all inlined here
        against the resources' slots — bit-identical to the layered
        ``FluidResource.reserve``/``Network.transfer``/
        ``DRAMSlice.request`` calls.  Its per-(op, core) plan cache is
        private to the reference loop.
        """
        pipelines = self.pipelines
        engines = self.dma_engines
        stats = self.stats
        network = self.network
        injections = network._injection
        slices = self.slices
        stripe_targets = self._stripe_targets
        issue_cost = self._dma_issue_cost
        issue_instrs = self._dma_issue_instrs
        # Per-(op, core) execution plans.  The kernels intern their op
        # instances and every thread is pinned to one core, so each
        # (op, core) pair recurs thousands of times with the same
        # stripe targets, share, injection port, per-target latency and
        # service time, and staging limit — all of which are pure
        # functions of the op and the topology.  Resolving them once
        # turns the per-invocation work into slot updates only.  Every
        # precomputed float is built from the exact expression the
        # layered path evaluates, so results stay bit-identical.
        #
        # Keys are (id(op), core): op value-equality hashing walks the
        # slots and is far too slow for this path, and identity is the
        # right notion anyway (plans describe the interned instance).
        # `pinned` keeps every planned op alive so its id can never be
        # reused by a different op.
        plans = {}
        plans_get = plans.get
        pinned = []

        def build_plan(op, core):
            engine = engines[core]
            if not engine.alive:
                # Raised before caching: a dead engine never gets a
                # plan, so the fast path below cannot bypass the check.
                raise HardwareExhausted(
                    f"DMA engine on core {core} is dead",
                    cause="dead-dma",
                )
            eng = engine._engine
            nbytes = op.nbytes
            duration = nbytes / eng.rate + engine._overhead_ns
            if op.kind == "internal":
                plan = (None, duration)
            else:
                raw = stripe_targets(op.target_core, nbytes)
                share = nbytes / len(raw)
                inj = injections[core]
                resolved = []
                for dst_core in raw:
                    memory = slices[dst_core]
                    lat = (
                        None if dst_core == core
                        else network.latency(core, dst_core)
                    )
                    resolved.append((
                        memory, memory._timeline, lat,
                        share / memory.rate, memory.latency_ns,
                    ))
                limit = engine._inflight_limit
                if nbytes > limit:
                    limit = nbytes
                plan = (
                    resolved, duration, share, inj, share / inj.rate, limit
                )
            plans[(id(op), core)] = plan
            pinned.append(op)
            return plan

        def exec_dma(op, now, core, mtp):
            pipe = pipelines[core][mtp]
            busy = pipe.busy_until
            issued = (now if now > busy else busy) + issue_cost
            pipe.busy_until = issued
            pipe.busy_time += issue_cost
            pipe.units_served += issue_instrs
            pipe.requests += 1
            nbytes = op.nbytes
            engine = engines[core]
            eng = engine._engine
            plan = plans_get((id(op), core))
            if plan is None:
                plan = build_plan(op, core)
            if engine._fail_period:
                # Flaky engine: every Nth descriptor fails and is
                # retried after a fixed backoff the issuing thread
                # observes.  Pure function of descriptor order —
                # identical on every main loop.  The wait is thread
                # delay, not pipeline or engine occupancy, so
                # conservation holds untouched.
                engine._fail_countdown -= 1
                if not engine._fail_countdown:
                    engine._fail_countdown = engine._fail_period
                    engine.retries += 1
                    issued += engine._retry_backoff_ns
            targets = plan[0]
            if targets is None:
                duration = plan[1]
                busy = eng.busy_until
                start = issued if issued > busy else busy
                done = start + duration
                eng.busy_until = done
                eng.busy_time += duration
                eng.units_served += nbytes
                eng.requests += 1
                engine.ops += 1
                engine.bytes_moved += nbytes
            else:
                _targets, duration, share, inj, inj_service, limit = plan
                # Staging-buffer credits: retire requests that
                # completed by now, then wait for the oldest ones until
                # the payload fits (backpressure toward the issuing
                # threads' descriptor stream).
                gate = issued
                inflight = engine._inflight
                inflight_bytes = engine._inflight_bytes
                popleft = inflight.popleft
                while inflight and inflight[0][0] <= gate:
                    inflight_bytes -= popleft()[1]
                while inflight and inflight_bytes + nbytes > limit:
                    retired, size = popleft()
                    inflight_bytes -= size
                    if retired > gate:
                        gate = retired
                # Engine descriptor + streaming occupancy.
                busy = eng.busy_until
                start = gate if gate > busy else busy
                engine_free = start + duration
                eng.busy_until = engine_free
                eng.busy_time += duration
                eng.units_served += nbytes
                eng.requests += 1
                engine.ops += 1
                engine.bytes_moved += nbytes
                # Stripe the payload: inject remote shares, charge each
                # slice's timeline (saturated-FIFO fast path inline).
                completion = start
                for memory, timeline, lat, service, lat_ns in targets:
                    if lat is None:
                        arrival = start
                    else:
                        busy = inj.busy_until
                        sent = (start if start > busy else busy) + inj_service
                        inj.busy_until = sent
                        inj.busy_time += inj_service
                        inj.units_served += share
                        inj.requests += 1
                        arrival = sent + lat
                    if memory.stall_period_ns:
                        # Stalling slice: route through the layered
                        # bulk_request, which applies the stall-window
                        # deferral before the same timeline fast path
                        # (identical service/latency arithmetic).
                        end = memory.bulk_request(arrival, share)
                        if end > completion:
                            completion = end
                        continue
                    memory.bytes_served += share
                    memory.requests += 1
                    starts = timeline._starts
                    if starts and arrival >= starts[-1]:
                        ends = timeline._ends
                        last_end = ends[-1]
                        begin = last_end if last_end > arrival else arrival
                        end = begin + service
                        if begin <= last_end + 1e-9:
                            if end > last_end:
                                ends[-1] = end
                        else:
                            starts.append(begin)
                            ends.append(end)
                    else:
                        _begin, end = timeline.backfill(arrival, service)
                    end += lat_ns
                    if end > completion:
                        completion = end
                inflight.append((completion, nbytes))
                engine._inflight_bytes = inflight_bytes + nbytes
                done = completion
            record = stats[op.tag]
            record.count += 1
            record.bytes += nbytes
            return issued, done
        return exec_dma

    def _execute(self, op, now, core, mtp):
        """Run one op; returns (resume_time, completion_time)."""
        handler = self._dispatch.get(op.__class__)
        if handler is None:
            raise TypeError(f"unknown op {op!r}")
        return handler(op, now, core, mtp)

    def _account(self, tag, nbytes, wait_ns):
        record = self.stats[tag]
        record.count += 1
        record.bytes += nbytes
        record.wait_ns += wait_ns

    # -- main loop -------------------------------------------------------------

    def run(self):
        """Run all spawned threads to completion; returns kernel ns.

        The returned time includes the STP launch overhead and the
        implicit global barrier (latest completion of any asynchronous
        op), matching how the paper measures kernel time.

        Watchdogs: the config's ``max_events`` / ``max_sim_ns`` /
        ``stall_events`` ceilings bound the loop, raising
        :class:`~repro.runtime.errors.SimulationDiverged` instead of
        spinning forever on a buggy kernel or pathological point.

        :func:`~repro.piuma.vector_engine.run_programs` replays the
        compiled programs when it can (only ``engine="fast"`` compiles
        any) and runs :meth:`_run_reference`, the differential-test
        oracle, otherwise.  Both loops produce bit-identical results.
        The compiled programs are dropped when the run ends.
        """
        started = time.perf_counter()
        try:
            result = vector_engine.run_programs(self)
            if self.checker is not None:
                self.checker.after_run()
            return result
        finally:
            self._vector_state = None
            self.host_wall_s = time.perf_counter() - started

    def _diverged_events(self, events, now):
        return SimulationDiverged(
            f"event ceiling exceeded after {events - 1:,} events "
            f"at {now:.0f} simulated ns",
            cause="max_events",
        )

    def _diverged_sim_ns(self, now):
        return SimulationDiverged(
            f"simulated-time ceiling exceeded "
            f"({now:.0f} ns > {self.config.max_sim_ns:.0f} ns)",
            cause="max_sim_ns",
        )

    def _diverged_stall(self, stalled, now):
        return SimulationDiverged(
            f"no simulated-time progress over {stalled:,} "
            f"consecutive events at {now:.0f} ns",
            cause="stall",
        )

    def _run_reference(self):
        """The plain pop/execute/push loop.

        ``engine="reference"`` always runs it, and so does every run
        that cannot replay (a sanitizer or tracer hooked on
        ``_execute``, a generator thread).  Kept as the semantics
        oracle: the differential suite asserts that replay reproduces
        it bit-for-bit.
        """
        cfg = self.config
        heap = self._heap
        latest = 0.0
        events = 0
        stalled = 0
        last_now = -1.0
        try:
            while heap:
                now, _seq, idx, value = heapq.heappop(heap)
                events += 1
                if not events & 2047:
                    # Periodically retire DRAM-timeline history: event
                    # time is non-decreasing and every future
                    # allocation arrives at or after it, so intervals
                    # ending 1 ns before `now` are dead weight
                    # (Timeline.compact is result-transparent at any
                    # event boundary).
                    cutoff = now - 1.0
                    for s in self.slices:
                        s.retire_before(cutoff)
                if cfg.max_events and events > cfg.max_events:
                    raise self._diverged_events(events, now)
                if cfg.max_sim_ns and now > cfg.max_sim_ns:
                    raise self._diverged_sim_ns(now)
                if now == last_now:
                    stalled += 1
                    if cfg.stall_events and stalled > cfg.stall_events:
                        raise self._diverged_stall(stalled, now)
                else:
                    stalled = 0
                    last_now = now
                generator, core, mtp = self._threads[idx]
                try:
                    op = generator.send(value)
                except StopIteration:
                    latest = max(latest, now)
                    continue
                resume, completion = self._execute(op, now, core, mtp)
                latest = max(latest, completion)
                self._push(resume, idx, completion)
        finally:
            self.events = events
        self.end_time = latest + self.config.launch_overhead_ns
        return self.end_time

    # -- reporting ---------------------------------------------------------------

    @property
    def events_per_s(self):
        """Host-side DES throughput of the last :meth:`run`."""
        if self.host_wall_s <= 0.0:
            return 0.0
        return self.events / self.host_wall_s

    def memory_utilization(self):
        """Mean DRAM-slice busy fraction over the kernel."""
        horizon = self.end_time or 1.0
        values = [s.utilization(horizon) for s in self.slices]
        return sum(values) / len(values)

    def priority_memory_utilization(self):
        """Mean DRAM-slice demand-read (priority) busy fraction.

        A sub-account of :meth:`memory_utilization`: priority service
        also occupies the bulk timeline, so this reports how much of the
        slice occupancy is pipeline demand reads rather than DMA bulk.
        """
        horizon = self.end_time or 1.0
        values = [s.priority_utilization(horizon) for s in self.slices]
        return sum(values) / len(values)

    def bytes_served(self):
        return sum(s.bytes_served for s in self.slices)

    def achieved_bandwidth(self):
        """System-wide achieved DRAM bandwidth in bytes/ns (== GB/s)."""
        if not self.end_time:
            return 0.0
        return self.bytes_served() / self.end_time
