"""Mutation smoke-checks for the runtime invariant sanitizer.

The sanitizer (``repro.piuma.invariants``) is itself code, and a
checker that never fires is indistinguishable from a checker that
works.  Each mutation here perturbs one *known accounting line* of the
engine — the kind of silent bookkeeping bug the sanitizer exists to
catch — and records which named invariant must fire, at which
``check_level``.  The conformance harness (and the CI lane) runs every
mutation once and fails if the expected invariant does not trip: a
seeded-fault test of the safety net, not of the simulator.  A checked
run cannot replay, so every mutation runs on the reference loop.

Mutations patch *class* attributes (``DRAMSlice.request``,
``Timeline.backfill``, ``FluidResource.reserve``, ``Simulator``
internals) because the engine's inlined hot paths close over instances
and dicts, not over module globals; everything the hot loops reach via
a bound-method or dispatch-dict lookup is patchable here, and each
patch is restored on exit even when the run raises.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace

from repro.piuma.engine import Simulator
from repro.piuma.ops import DMAOp
from repro.piuma.resources import DRAMSlice, FluidResource, Timeline
from repro.runtime.errors import InvariantViolation
from repro.testing.cases import ConformanceCase
from repro.testing.oracle import run_case


@contextlib.contextmanager
def _slice_lost_bytes():
    """Drop half the served bytes from the slice's ledger.

    The timeline still carries the full occupancy, so
    ``busy_time * rate`` explains more bytes than ``bytes_served``
    claims — the classic one-sided accounting edit.
    """
    original = DRAMSlice.request

    def patched(self, now, nbytes, priority=False):
        done = original(self, now, nbytes, priority=priority)
        self.bytes_served -= 0.5 * nbytes
        return done

    DRAMSlice.request = patched
    try:
        yield
    finally:
        DRAMSlice.request = original


@contextlib.contextmanager
def _timeline_free_bandwidth():
    """Grant every DRAM window without recording any occupancy.

    The timeline stays empty forever (nothing is ever inserted, so
    every inlined fast path keeps falling through to ``backfill``),
    while ``bytes_served`` keeps growing: infinite free bandwidth.
    """
    original = Timeline.backfill

    def patched(self, arrival, duration):
        return arrival, arrival + duration

    Timeline.backfill = patched
    try:
        yield
    finally:
        Timeline.backfill = original


@contextlib.contextmanager
def _pipeline_time_travel():
    """Make pipeline reservations complete in the distant past."""
    original = FluidResource.reserve

    def patched(self, now, amount, extra_time=0.0):
        start, end = original(self, now, amount, extra_time=extra_time)
        return start, end - 1.0e6

    FluidResource.reserve = patched
    try:
        yield
    finally:
        FluidResource.reserve = original


@contextlib.contextmanager
def _busy_time_leak():
    """Under-account fluid busy time by half the service just charged."""
    original = FluidResource.reserve

    def patched(self, now, amount, extra_time=0.0):
        start, end = original(self, now, amount, extra_time=extra_time)
        self.busy_time -= 0.5 * (amount / self.rate + extra_time)
        return start, end

    FluidResource.reserve = patched
    try:
        yield
    finally:
        FluidResource.reserve = original


@contextlib.contextmanager
def _dma_lost_bytes():
    """Leak a quarter of every DMA payload from the engine's ledger.

    The hot DMA handler is a closure inlined against the resources, so
    the accounting line itself cannot be patched; instead the dispatch
    entry is wrapped post-construction (the checker reads the dispatch
    dict live, so the wrapper is on-path).
    """
    original_init = Simulator.__init__

    def patched_init(self, config):
        original_init(self, config)
        handler = self._dispatch[DMAOp]
        engines = self.dma_engines

        def lossy(op, now, core, mtp):
            result = handler(op, now, core, mtp)
            if op.nbytes:
                engines[core].bytes_moved -= 0.25 * op.nbytes
            return result

        self._dispatch[DMAOp] = lossy

    Simulator.__init__ = patched_init
    try:
        yield
    finally:
        Simulator.__init__ = original_init


@contextlib.contextmanager
def _stats_drift():
    """Inflate per-tag byte stats by 64 B per accounted op."""
    original = Simulator._account

    def patched(self, tag, nbytes, wait_ns):
        original(self, tag, nbytes + 64, wait_ns)

    Simulator._account = patched
    try:
        yield
    finally:
        Simulator._account = original


@contextlib.contextmanager
def _timeline_overlap():
    """Leave an out-of-order (zero-extent) interval on the timeline.

    Zero extent keeps every occupancy sum intact — only the structural
    ordering is corrupted, so precisely the level-2 timeline scan can
    see it.  Hooked into ``compact`` (the periodic history retirement)
    rather than the allocation path, so the corruption is refreshed
    after every retirement and is still present when the post-run scan
    walks the lists.
    """
    original = Timeline.compact

    def patched(self, cutoff):
        original(self, cutoff)
        starts = self._starts
        if starts:
            bad = starts[-1] - 5.0
            starts.append(bad)
            self._ends.append(bad)

    Timeline.compact = patched
    try:
        yield
    finally:
        Timeline.compact = original


@dataclass(frozen=True)
class Mutation:
    """One seeded accounting perturbation and what must catch it.

    ``invariant`` is the name (``repro.piuma.invariants.INVARIANTS``)
    that must fire; ``level`` is the minimum ``check_level`` at which
    it is guaranteed to.  ``kernel`` picks a workload that exercises
    the perturbed line (e.g. only the dma kernel issues ``DMAOp``).
    """

    name: str
    invariant: str
    level: int
    kernel: str
    description: str
    patch: object = field(repr=False)


MUTATIONS = {
    m.name: m
    for m in (
        Mutation(
            name="slice_lost_bytes",
            invariant="slice-byte-conservation",
            level=1,
            kernel="loop",
            description="DRAMSlice.request drops half of bytes_served",
            patch=_slice_lost_bytes,
        ),
        Mutation(
            name="timeline_free_bandwidth",
            invariant="slice-byte-conservation",
            level=1,
            kernel="dma",
            description="Timeline.backfill grants windows without "
                        "recording occupancy",
            patch=_timeline_free_bandwidth,
        ),
        Mutation(
            name="pipeline_time_travel",
            invariant="thread-legality",
            level=1,
            kernel="loop",
            description="FluidResource.reserve completes 1 ms in the past",
            patch=_pipeline_time_travel,
        ),
        Mutation(
            name="busy_time_leak",
            invariant="pipeline-busy-floor",
            level=1,
            kernel="loop",
            description="FluidResource.reserve under-accounts busy_time "
                        "by half",
            patch=_busy_time_leak,
        ),
        Mutation(
            name="dma_lost_bytes",
            invariant="engine-byte-conservation",
            level=1,
            kernel="dma",
            description="DMA dispatch leaks a quarter of bytes_moved",
            patch=_dma_lost_bytes,
        ),
        Mutation(
            name="stats_drift",
            invariant="stats-recompute",
            level=2,
            kernel="loop",
            description="Simulator._account inflates tag bytes by 64 B/op",
            patch=_stats_drift,
        ),
        Mutation(
            name="timeline_overlap",
            invariant="timeline-order",
            level=2,
            kernel="dma",
            description="Timeline.backfill appends one out-of-order "
                        "interval",
            patch=_timeline_overlap,
        ),
    )
}

#: Small fixed workload the smoke-check runs mutations on; the kernel
#: field is overridden per mutation.
SMOKE_CASE = ConformanceCase(
    name="mutation-smoke",
    scale=7,
    edge_factor=8,
    graph_seed=13,
    symmetric=True,
    kernel="dma",
    embedding_dim=64,
    n_cores=4,
    threads_per_mtp=8,
    dram_latency_ns=45.0,
    dram_bandwidth_scale=1.0,
    window_edges=1024,
)


def run_mutation(name, check_level=None, case=None):
    """Run the smoke case under one mutation.

    Returns the :class:`InvariantViolation` the sanitizer raised, or
    ``None`` if the perturbed run completed silently (which the
    conformance harness treats as a failure of the safety net).
    ``check_level`` defaults to the mutation's guaranteed level.
    """
    mutation = MUTATIONS[name]
    if case is None:
        case = SMOKE_CASE
    case = replace(case, kernel=mutation.kernel)
    level = mutation.level if check_level is None else check_level
    with mutation.patch():
        try:
            run_case(case, check_level=level)
        except InvariantViolation as error:
            return error
    return None
