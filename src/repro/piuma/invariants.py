"""Runtime invariant sanitizer for the PIUMA discrete-event simulator.

Every conclusion the reproduction draws is a memory-system accounting
claim, so a silent accounting bug in the simulator corrupts everything
downstream.  This module is the guard rail that lets the hot paths keep
being rewritten (DESIGN.md, "Host performance") without fear: a
pluggable checker that watches the reference main loop and the shared
resources, raising a structured
:class:`~repro.runtime.errors.InvariantViolation` the moment the
simulation's books stop balancing.

``PIUMAConfig.check_level`` selects the depth:

* **0** (default) — checking fully disabled; the simulator does not
  even construct a checker, so the hot loops are untouched.
* **1** — cheap per-event checks (event-time monotonicity, thread
  state-machine legality) plus post-run resource accounting
  cross-checks (slice byte/occupancy conservation, DMA engine byte
  conservation, pipeline busy floors, peak-bandwidth ceilings, kernel
  aggregate recomputation).  Overhead on the DES hot loop is bounded
  (<10% on the Fig 5 medium point; enforced by
  ``benchmarks/bench_host_perf.py``).
* **2** — everything above, plus per-op ledgers (DMA bytes requested
  vs serviced, per-tag stats recomputation, DRAM byte expectations)
  and periodic structural scans of the DRAM busy-interval timelines.

The checker installs itself the same way :class:`repro.piuma.trace.Tracer`
does — by binding the instance ``_execute`` slot.  A bound hook rules
compiled replay out, so every checked run takes the reference main
loop, which routes every op through the hook, and a Tracer stacked on
top keeps working.  Compiled replay is held to this checked loop by
the differential oracle (``repro.testing.oracle``), not by the checker.
"""

from __future__ import annotations

from repro.piuma.ops import (
    AtomicUpdate,
    Compute,
    DMAOp,
    Load,
    PhaseMarker,
    SequentialAccess,
    Store,
)
from repro.runtime.errors import InvariantViolation

#: Registry of every named invariant the sanitizer can report, with the
#: level at which it becomes active.  The ``invariant`` field of a
#: raised :class:`InvariantViolation` is always one of these keys.
INVARIANTS = {
    "event-monotonicity": (1, "global event time never decreases"),
    "thread-legality": (1, "op resume/completion times respect "
                           "now <= resume <= completion"),
    "slice-busy-bound": (1, "DRAM-slice busy time never exceeds the "
                            "simulated wall clock"),
    "slice-byte-conservation": (1, "slice timeline occupancy x rate "
                                   "equals the bytes it served"),
    "slice-peak-bandwidth": (1, "slice throughput never exceeds its "
                                "configured peak bandwidth"),
    "priority-subaccount": (1, "priority (demand-read) busy time is a "
                               "sub-account of total slice busy time"),
    "engine-byte-conservation": (1, "DMA descriptor bookkeeping matches "
                                    "the engine's fluid occupancy"),
    "pipeline-busy-floor": (1, "fluid resources are busy at least as "
                               "long as their served units require"),
    "result-recompute": (1, "KernelResult aggregates match sums "
                            "recomputed from the raw simulator state"),
    "degradation-silence": (1, "hardware disabled by the degradation "
                               "spec stays silent: dead pipelines "
                               "execute nothing, dead DMA engines "
                               "accept no descriptors"),
    "scheduler-drained": (1, "the event queue is empty after a "
                             "completed run — no stranded events"),
    "dma-request-conservation": (2, "DMA bytes requested by ops equal "
                                    "bytes the engines moved"),
    "dram-byte-ledger": (2, "slice bytes served equal the per-op DRAM "
                            "byte ledger"),
    "stats-recompute": (2, "per-tag stats match independently "
                           "recomputed counts and bytes"),
    "timeline-order": (2, "DRAM busy-interval timelines stay sorted "
                          "and non-overlapping"),
}

#: Ops between two structural timeline scans at ``check_level>=2``.
_SCAN_PERIOD = 4096


def violation(name, message):
    """Build the structured error for one named invariant."""
    if name not in INVARIANTS:
        raise ValueError(f"unknown invariant {name!r}")
    return InvariantViolation(message, invariant=name)


class InvariantChecker:
    """Watches one :class:`~repro.piuma.engine.Simulator` run.

    Constructed (and installed) by ``Simulator.__init__`` when
    ``config.check_level > 0``; :meth:`after_run` is invoked by
    ``Simulator.run`` once the main loop completes.
    """

    __slots__ = (
        "simulator", "level", "last_event_ns", "op_count",
        "dma_requested", "dram_expected", "tag_counts", "tag_bytes",
    )

    def __init__(self, simulator, level):
        if level < 1:
            raise ValueError("checker requires check_level >= 1")
        self.simulator = simulator
        self.level = level
        self.last_event_ns = 0.0
        self.op_count = 0
        self.dma_requested = 0.0
        self.dram_expected = 0.0
        self.tag_counts = {}
        self.tag_bytes = {}
        self._install(simulator)

    # -- per-op hook ---------------------------------------------------------

    def _install(self, sim):
        """Bind the checking wrapper as the instance ``_execute``.

        The wrapper dispatches through the simulator's type table
        directly (one call instead of two per op) and then runs the
        per-event checks; all mutable check state lives on this slotted
        checker, reached through one closure cell.
        """
        dispatch_get = sim._dispatch.get
        state = self
        level2 = self.level >= 2

        def checked_execute(op, now, core, mtp):
            handler = dispatch_get(op.__class__)
            if handler is None:
                raise TypeError(f"unknown op {op!r}")
            resume, completion = handler(op, now, core, mtp)
            # Event-time monotonicity: the reference loop executes
            # ops in global event order, so the issue time seen here
            # can never run backwards.
            if now < state.last_event_ns:
                raise violation(
                    "event-monotonicity",
                    f"event time ran backwards: {now:.3f} ns after "
                    f"{state.last_event_ns:.3f} ns ({op!r})",
                )
            state.last_event_ns = now
            # Thread state-machine legality: a thread resumes at or
            # after the op's issue time, and the op's side effects can
            # complete no earlier than the thread resumes.
            if resume < now or completion < resume:
                raise violation(
                    "thread-legality",
                    f"illegal thread transition for {op!r}: issued at "
                    f"{now:.3f} ns, resume {resume:.3f} ns, completion "
                    f"{completion:.3f} ns",
                )
            if level2:
                state._track(op)
            return resume, completion

        sim._execute = checked_execute

    def _track(self, op):
        """Level-2 per-op ledgers (bytes by destination, stats by tag)."""
        cls = op.__class__
        if cls is DMAOp:
            nbytes = op.nbytes
            self.dma_requested += nbytes
            stat_bytes = nbytes
            if op.kind != "internal":
                self.dram_expected += nbytes
        elif cls is Load:
            stat_bytes = op.nbytes
            self.dram_expected += stat_bytes
        elif cls is SequentialAccess:
            stat_bytes = op.n_rounds * op.bytes_per_round
            self.dram_expected += stat_bytes
        elif cls is Store:
            stat_bytes = op.nbytes
            self.dram_expected += stat_bytes
        elif cls is AtomicUpdate:
            stat_bytes = 2 * op.nbytes
            self.dram_expected += stat_bytes
        elif cls is Compute:
            stat_bytes = 0
        else:  # PhaseMarker and friends: no accounting at all
            return
        tag = op.tag
        self.tag_counts[tag] = self.tag_counts.get(tag, 0) + 1
        self.tag_bytes[tag] = self.tag_bytes.get(tag, 0.0) + stat_bytes
        self.op_count += 1
        if not self.op_count % _SCAN_PERIOD:
            self.scan_timelines()

    # -- post-run checks -----------------------------------------------------

    def scan_timelines(self):
        """Structural scan of every slice's busy-interval timeline."""
        for slice_ in self.simulator.slices:
            problems = slice_._timeline.validate()
            if problems:
                raise violation(
                    "timeline-order",
                    f"{slice_.name}: " + "; ".join(problems),
                )
            if slice_._priority_busy < 0 or slice_._priority_horizon < 0:
                raise violation(
                    "priority-subaccount",
                    f"{slice_.name}: negative priority accounting "
                    f"(busy {slice_._priority_busy:.3f}, horizon "
                    f"{slice_._priority_horizon:.3f})",
                )

    def after_run(self):
        """Post-run cross-checks against the completed simulator state."""
        sim = self.simulator
        # A completed run must have consumed every queued event.
        stranded = len(sim._heap)
        if stranded:
            raise violation(
                "scheduler-drained",
                f"{stranded} queued event{'' if stranded == 1 else 's'} "
                "left in the event queue after run()",
            )
        if self.level >= 2:
            # Structural problems first: a corrupted timeline makes the
            # occupancy sums below meaningless, so attribute the failure
            # to the structure, not to a derived conservation check.
            self.scan_timelines()
        horizon = sim.end_time
        tol_ns = 1e-6 * (horizon + 1.0)
        for slice_ in sim.slices:
            busy = slice_.busy_time
            nbytes = slice_.bytes_served
            if busy > horizon + tol_ns:
                raise violation(
                    "slice-busy-bound",
                    f"{slice_.name} busy {busy:.3f} ns exceeds the "
                    f"{horizon:.3f} ns wall clock",
                )
            # The timeline is charged exactly nbytes / rate per request
            # (bulk and priority alike), so occupancy x rate must equal
            # the served bytes.  Losing either side of that equation is
            # the classic silent accounting bug.
            drift = abs(busy * slice_.rate - nbytes)
            if drift > 1e-6 * nbytes + 1.0:
                raise violation(
                    "slice-byte-conservation",
                    f"{slice_.name} served {nbytes:.1f} B but its "
                    f"timeline explains {busy * slice_.rate:.1f} B "
                    f"(busy {busy:.3f} ns at {slice_.rate:g} B/ns)",
                )
            if nbytes > slice_.rate * (horizon + tol_ns) + 1.0:
                raise violation(
                    "slice-peak-bandwidth",
                    f"{slice_.name} served {nbytes:.1f} B in "
                    f"{horizon:.3f} ns — exceeds the configured "
                    f"{slice_.rate:g} B/ns peak",
                )
            priority = slice_.priority_busy_time
            if priority < 0 or priority > busy + tol_ns:
                raise violation(
                    "priority-subaccount",
                    f"{slice_.name} priority busy {priority:.3f} ns "
                    f"outside [0, {busy:.3f}] ns total busy",
                )
        for engine in sim.dma_engines:
            drift = abs(engine.bytes_moved - engine.streamed_bytes)
            if drift > 1e-6 * engine.bytes_moved + 1e-6:
                raise violation(
                    "engine-byte-conservation",
                    f"dma{engine.core_id} bookkeeping moved "
                    f"{engine.bytes_moved:.1f} B but its fluid engine "
                    f"served {engine.streamed_bytes:.1f} B",
                )
            if engine.ops != engine.requests:
                raise violation(
                    "engine-byte-conservation",
                    f"dma{engine.core_id} accepted {engine.ops} ops but "
                    f"its fluid engine saw {engine.requests} requests",
                )
        fluids = [p for row in sim.pipelines for p in row]
        fluids += sim.atomic_units
        fluids += [e._engine for e in sim.dma_engines]
        fluids += list(sim.network._injection)
        for resource in fluids:
            floor = resource.units_served / resource.rate
            if resource.busy_time + 1e-6 * (floor + 1.0) < floor:
                raise violation(
                    "pipeline-busy-floor",
                    f"{resource.name} busy {resource.busy_time:.3f} ns "
                    f"cannot have served {resource.units_served:.1f} "
                    f"units at {resource.rate:g}/ns "
                    f"(needs >= {floor:.3f} ns)",
                )
        degradation = getattr(sim, "degradation", None)
        if degradation is not None:
            # Disabled hardware must stay silent.  Work redistribution
            # (thread_placements) may never place a thread on a dead
            # core or MTP, and no kernel may slip a descriptor past a
            # dead DMA engine.  Note the *slices* and atomic units of a
            # dead core stay in service deliberately — the distributed
            # global address space survives the core's compute — so
            # only pipelines and DMA engines are checked.
            for core in degradation.dead_cores:
                for pipe in sim.pipelines[core]:
                    if pipe.requests:
                        raise violation(
                            "degradation-silence",
                            f"{pipe.name} on dead core {core} executed "
                            f"{pipe.requests} reservations",
                        )
            for core, mtp in degradation.dead_mtps:
                pipe = sim.pipelines[core][mtp]
                if pipe.requests:
                    raise violation(
                        "degradation-silence",
                        f"dead pipeline {pipe.name} executed "
                        f"{pipe.requests} reservations",
                    )
            for core in degradation.dead_dma:
                engine = sim.dma_engines[core]
                if engine.ops or engine.requests:
                    raise violation(
                        "degradation-silence",
                        f"dead dma{core} accepted {engine.ops} ops",
                    )
        if self.level >= 2:
            self._check_ledgers()

    def _check_ledgers(self):
        """Level-2 conservation: per-op ledgers vs engine-side sums."""
        sim = self.simulator
        moved = sum(e.bytes_moved for e in sim.dma_engines)
        if abs(moved - self.dma_requested) > 1e-6 * self.dma_requested + 1.0:
            raise violation(
                "dma-request-conservation",
                f"DMA ops requested {self.dma_requested:.1f} B but the "
                f"engines moved {moved:.1f} B",
            )
        served = sum(s.bytes_served for s in sim.slices)
        if abs(served - self.dram_expected) > 1e-6 * self.dram_expected + 1.0:
            raise violation(
                "dram-byte-ledger",
                f"slices served {served:.1f} B but executed ops "
                f"prescribe {self.dram_expected:.1f} B",
            )
        stats = sim.stats
        tags = set(stats) | set(self.tag_counts)
        for tag in sorted(tags):
            record = stats.get(tag)
            count = record.count if record is not None else 0
            nbytes = record.bytes if record is not None else 0.0
            want_count = self.tag_counts.get(tag, 0)
            want_bytes = self.tag_bytes.get(tag, 0.0)
            if count != want_count:
                raise violation(
                    "stats-recompute",
                    f"tag {tag!r}: stats count {count} but "
                    f"{want_count} ops executed",
                )
            if abs(nbytes - want_bytes) > 1e-6 * want_bytes + 1.0:
                raise violation(
                    "stats-recompute",
                    f"tag {tag!r}: stats bytes {nbytes:.1f} but ops "
                    f"prescribe {want_bytes:.1f}",
                )


def verify_kernel_result(result, simulator, config):
    """Cross-check :class:`~repro.piuma.kernels.KernelResult` aggregates.

    Recomputes the derived quantities (steady-state throughput,
    projection, utilization, achieved bandwidth) from the raw simulator
    state and compares them against what the kernel runner stored —
    catching drift between the accounting and the reporting layer.
    Called by ``run_spmm_kernel`` when ``config.check_level >= 1``.
    """
    end = simulator.end_time
    if result.sim_time_ns != end:
        raise violation(
            "result-recompute",
            f"sim_time_ns {result.sim_time_ns} != simulator end_time {end}",
        )
    if result.events != simulator.events:
        raise violation(
            "result-recompute",
            f"events {result.events} != simulator events "
            f"{simulator.events}",
        )
    launch = config.launch_overhead_ns
    setup = min(simulator.setup_end, end - launch)
    steady = max(end - launch - setup, 1e-9)
    flops = 2.0 * result.window_edges * result.embedding_dim
    gflops = flops / steady
    if abs(result.gflops - gflops) > 1e-9 * max(gflops, 1.0):
        raise violation(
            "result-recompute",
            f"gflops {result.gflops} != recomputed {gflops} "
            f"(steady window {steady:.3f} ns)",
        )
    if gflops > 0:
        total_flops = 2.0 * result.total_edges * result.embedding_dim
        projected = launch + setup + total_flops / gflops
        if abs(result.projected_time_ns - projected) > 1e-9 * projected:
            raise violation(
                "result-recompute",
                f"projected_time_ns {result.projected_time_ns} != "
                f"recomputed {projected}",
            )
    slices = simulator.slices
    horizon = end or 1.0
    utilization = sum(
        min(1.0, s.busy_time / horizon) for s in slices
    ) / len(slices)
    if not 0.0 <= result.memory_utilization <= 1.0 or abs(
        result.memory_utilization - utilization
    ) > 1e-9:
        raise violation(
            "result-recompute",
            f"memory_utilization {result.memory_utilization} != "
            f"recomputed {utilization}",
        )
    served = sum(s.bytes_served for s in slices)
    bandwidth = served / end if end else 0.0
    if abs(result.achieved_bandwidth - bandwidth) > 1e-9 * max(bandwidth, 1.0):
        raise violation(
            "result-recompute",
            f"achieved_bandwidth {result.achieved_bandwidth} != "
            f"recomputed {bandwidth}",
        )
    for tag, stats in result.tag_stats.items():
        if stats.count < 0 or stats.bytes < 0 or stats.wait_ns < -1e-9:
            raise violation(
                "result-recompute",
                f"tag {tag!r} has negative accounting: {stats!r}",
            )
