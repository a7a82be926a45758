"""Compiled-program replay, the default engine's loop for static kernels.

The reference loop (``Simulator._run_reference``) pays, per event, a
heap push and pop, a generator resumption, a type-table dispatch and a
handler frame.  For the static SpMM/dense kernels every thread's op
stream is a pure function of the work split, known before ``run()``:
the kernels emit all of them at once with numpy into one
:class:`~repro.piuma.ops.OpProgram`, and on the default engine
:meth:`Simulator.run` replays that program here instead.

* **Plan compilation** (at ``spawn_programs`` time, one pass per
  program): every ``(op, core)`` pair the program's threads use is
  compiled once to a numeric *plan row* — a kind code, the issuing
  core, the tag record, a flag, the DMA payload, the timing floats and
  what one execution adds to each counter — plus one *target row* per
  DRAM slice it touches.  The four MTPs of a core share the plan; the
  thread's pipeline is bound at replay time.  Every float is built
  from the exact expression of the reference handlers
  (``engine.py``/``resources.py``/``dma.py``).
* **Replay** is one C loop (``_replay.c``, built and loaded by
  :mod:`repro.piuma.native`) over one flat ``int32`` array of plan ids,
  each thread's run ending in plan 0.  :func:`run_programs` copies the
  mutable state into arrays, calls the loop, writes every field back
  and raises what the loop reports (a watchdog trip, a dead DMA
  engine) with the reference loop's message, at the same event.  The
  loop adds every counter the reference handlers add
  (``units_served``/``requests``/``bytes_served``/``ops``/
  ``bytes_moved``/tag ``count``/``bytes``/``wait_ns``) per event, in
  the handlers' order, so float sums round exactly as theirs do.

The loop keeps the reference loop's exact ``(when, seq)`` event order:
a thread whose resume time strictly precedes every queued event keeps
running without a heap round trip, and a thread switch replaces the
heap head (the pushed entry can never beat it: sequence numbers only
grow).  Event accounting, the watchdog ceilings and the ``events &
2047`` compaction cadence are the reference loop's too.

Replay runs only when every thread is a compiled program and
``Simulator.can_replay`` holds (the default engine, no ``_execute``
hook bound, the engine's own DMA dispatch entry, the native library
loaded).  Every other run goes to ``_run_reference``, which drives
each program's generator view.  The compiled state lives on
``Simulator._vector_state`` from the first ``spawn_programs`` until
:meth:`Simulator.run` returns, which drops it.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.piuma import native
from repro.piuma.ops import (
    OP_ATOMIC,
    OP_DMA_INTERNAL,
    OP_DMA_READ,
    OP_DMA_WRITE,
    OP_LOAD,
    OP_PHASE,
    OP_SEQUENTIAL,
    OP_STORE,
    op_kind_code,
)
from repro.runtime.errors import HardwareExhausted

#: Plan kinds, the first column of a plan row (``_replay.c``).
PLAN_END = 0
PLAN_PHASE = 1
PLAN_COMPUTE = 2
PLAN_LOAD = 3
PLAN_SEQUENTIAL = 4
PLAN_STORE = 5
PLAN_ATOMIC = 6
PLAN_DMA_INTERNAL = 7
PLAN_DMA = 8
PLAN_DMA_DEAD = 9

_NO_FLOATS = (0.0,) * 7

#: Return codes of the native loop.
(RUN_DONE, RUN_MAX_EVENTS, RUN_MAX_SIM_NS, RUN_STALL, RUN_DEAD_DMA,
 RUN_NO_MEMORY, RUN_OVERFLOW) = range(7)

#: Rows of the loop's resource tables: ``fluid_t``, ``dma_t``,
#: ``slice_t`` and ``tag_t`` of ``_replay.c``, field for field.  Counts
#: are ``int64`` and come back as ints, every other field as a float.
_FLUID = np.dtype([("busy_until", "f8"), ("busy_time", "f8"),
                   ("units_served", "f8"), ("requests", "i8")])
_DMA = np.dtype([("inflight_bytes", "f8"), ("backoff_ns", "f8"),
                 ("bytes_moved", "f8"), ("fail_period", "i8"),
                 ("countdown", "i8"), ("retries", "i8"), ("ops", "i8")])
_SLICE = np.dtype([(name, "f8") for name in (
    "retired_busy", "priority_horizon", "priority_busy", "stall_period",
    "stall_duration", "bytes_served")] + [("requests", "i8")])
_TAG = np.dtype([("wait_ns", "f8"), ("bytes", "f8"), ("count", "i8")])


class _Args(ctypes.Structure):
    """``replay_args_t`` of ``_replay.c``, field for field."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "steps", "plan_i", "plan_f", "target_i", "target_f",
        "thread_pipe", "pcs")] + [
        ("n_heap", ctypes.c_int64)] + [
        (name, ctypes.c_void_p) for name in (
            "heap_when", "heap_seq", "heap_idx")] + [
        (name, ctypes.c_int64) for name in ("n_cores", "n_pipes")] + [
        (name, ctypes.c_void_p) for name in (
            "fluid", "dma", "slices", "tags",
            "tl_starts", "tl_ends", "tl_off", "tl_cap", "tl_len",
            "q_when", "q_bytes", "q_off", "q_cap", "q_len")] + [
        (name, ctypes.c_double) for name in (
            "issue_cost", "max_events", "max_sim_ns", "stall_limit",
            "setup_end")] + [
        (name, ctypes.c_int64) for name in (
            "seq", "events", "stalled", "dead_core")] + [
        ("now", ctypes.c_double), ("latest", ctypes.c_double)]


def _stripes(sim, core, target_core, nbytes):
    """``(share, rows)`` of a store or DMA striped from ``core``: the
    handlers' ``share`` and one ``(slice, remote, lat, service, lat_ns,
    share)`` target row per slice of ``Simulator._stripe_targets``."""
    raw = sim._stripe_targets(target_core, nbytes)
    share = nbytes / len(raw)
    rows = []
    for dst in raw:
        slice_ = sim.slices[dst]
        remote = dst != core
        rows.append((dst, remote,
                     sim.network.latency(core, dst) if remote else 0.0,
                     share / slice_.rate, slice_.latency_ns, share))
    return share, rows


def _build_plan(sim, op, core):
    """Compile one (op, core) pair to a plan row.

    Every float here is produced by the same expression the reference
    handlers evaluate (``engine.py``/``resources.py``/``dma.py``), so
    replay arithmetic is bit-identical.  Pipeline durations divide by
    the configured instruction rate, which every pipeline of the
    simulator shares, so one plan serves all MTPs of the core.
    Returns ``(kind, flag, payload, floats, targets)``: the plan's
    kind, flag and DMA payload, its ``(dur, lat, x, inj, units, bytes,
    amount)`` floats, and the ``(slice, remote, lat, service, lat_ns,
    bytes)`` rows of the slices one execution touches (their meaning
    per kind is ``_replay.c``'s).  ``units``, ``bytes``, ``amount`` and
    a target's ``bytes`` are what one execution adds to the counters.
    """
    kind = op_kind_code(op)
    if kind == OP_PHASE:
        return PLAN_PHASE, 0, 0, _NO_FLOATS, ()
    rate = sim.config.clock_ghz
    network = sim.network
    slices = sim.slices
    if kind == OP_DMA_READ or kind == OP_DMA_WRITE or kind == OP_DMA_INTERNAL:
        engine = sim.dma_engines[core]
        issue_instrs = sim._dma_issue_instrs
        if not engine.alive:
            return PLAN_DMA_DEAD, 0, 0, (
                0.0, 0.0, 0.0, 0.0, issue_instrs, 0.0, 0.0), ()
        nbytes = op.nbytes
        duration = nbytes / engine._engine.rate + engine._overhead_ns
        if kind == OP_DMA_INTERNAL:
            return PLAN_DMA_INTERNAL, 0, 0, (
                duration, 0.0, 0.0, 0.0, issue_instrs, nbytes, nbytes), ()
        share, targets = _stripes(sim, core, op.target_core, nbytes)
        limit = engine._inflight_limit
        if nbytes > limit:
            limit = nbytes
        return PLAN_DMA, 0, nbytes, (
            duration, 0.0, limit, share / network._injection[core].rate,
            issue_instrs, nbytes, nbytes,
        ), targets
    if kind == OP_LOAD:
        nbytes = op.nbytes
        dst = op.target_core
        slice_ = slices[dst]
        return PLAN_LOAD, bool(op.priority), 0, (
            op.grouped / rate + 0.0, network.latency(core, dst),
            network.latency(dst, core), 0.0, op.grouped, nbytes, 0.0,
        ), [(dst, False, 0.0, nbytes / slice_.rate, slice_.latency_ns,
             nbytes)]
    if kind == OP_SEQUENTIAL:
        n_units = op.n_rounds * op.instrs_per_round
        total_bytes = op.n_rounds * op.bytes_per_round
        raw = sim._stripe_targets(op.target_core, total_bytes)
        share = total_bytes / len(raw)
        targets = []
        worst_trip = 0.0
        for dst in raw:
            hop = network.latency(core, dst)
            slice_ = slices[dst]
            targets.append((dst, False, hop, share / slice_.rate,
                            slice_.latency_ns, share))
            trip = 2 * hop + slice_.latency_ns
            if trip > worst_trip:
                worst_trip = trip
        return PLAN_SEQUENTIAL, 0, 0, (
            n_units / rate + 0.0, 0.0, (op.n_rounds - 1) * worst_trip, 0.0,
            n_units, total_bytes, 0.0,
        ), targets
    if kind == OP_STORE:
        share, targets = _stripes(sim, core, op.target_core, op.nbytes)
        return PLAN_STORE, 0, 0, (
            1 / rate + 0.0, 0.0, 0.0,
            share / network._injection[core].rate + 0.0, 1, op.nbytes, 0.0,
        ), targets
    if kind == OP_ATOMIC:
        nbytes = op.nbytes
        dst = op.target_core
        remote = dst != core
        inj = network._injection[core]
        aunit = sim.atomic_units[dst]
        slice_ = slices[dst]
        two = 2 * nbytes
        return PLAN_ATOMIC, remote, 0, (
            1 / rate + 0.0,
            network.latency(core, dst) if remote else 0.0,
            nbytes / aunit.rate + sim.config.atomic_overhead_ns,
            (nbytes / inj.rate + 0.0) if remote else 0.0,
            1, two, nbytes,
        ), [(dst, False, 0.0, two / slice_.rate, slice_.latency_ns, two)]
    # kind == OP_COMPUTE
    return PLAN_COMPUTE, 0, 0, (
        op.n_instrs / rate + 0.0, 0.0, 0.0, 0.0, op.n_instrs, 0, 0.0), ()


class ReplayState:
    """Spawn-time compile state of one simulator.

    Lives on ``Simulator._vector_state`` from the first
    :func:`compile_programs` until the run ends.

    Attributes
    ----------
    plans:
        ``(id(op), core) -> uid``: the plan compiled for a table entry
        on a core.  Plan ``uid`` has the integer row ``plan_i[uid]``
        (kind, core, record, first target row, target count, flag, DMA
        payload, padding) and the float row ``plan_f[uid]`` (dur, lat,
        x, inj, units, bytes, amount), and its op is ``ops[uid]``.  Uid
        0 is ``PLAN_END``, the step that ends every thread.
    target_i / target_f:
        The target rows, ``(slice, remote)`` and ``(lat, service,
        lat_ns, bytes)``, each plan's rows contiguous and in plan order.
    tags:
        The tags of the stats records plans charge, each mapped to its
        index among them.
    steps:
        The flat step list in ``int32`` chunks, one per registration:
        every registered thread's plan ids, thread after thread, each
        followed by a 0.
    starts / pipes:
        Per thread, in spawn order: its first pc in the flat step list
        and its pipeline index (``core * mtps_per_core + mtp``).
    """

    __slots__ = ("plans", "plan_i", "plan_f", "target_i", "target_f",
                 "tags", "ops", "steps", "n_steps", "starts", "pipes")

    def __init__(self):
        self.plans = {}
        self.plan_i = [(PLAN_END,) + (0,) * 7]
        self.plan_f = [_NO_FLOATS]
        self.target_i = []
        self.target_f = []
        self.tags = {}
        self.ops = [None]
        self.steps = []
        self.n_steps = 0
        self.starts = []
        self.pipes = []


def compile_programs(sim, program, placements):
    """Compile a registered program, every thread in one pass.

    Called by :meth:`Simulator.spawn_programs` at spawn time (the
    resources every plan reads exist from ``__init__``), so ``run()``
    itself only replays.  Plans are built only for the (table entry,
    core) pairs the program's threads use, once per ``(op, core)``
    across registrations, in table order (so the run creates per-tag
    stats records in the order the kernels' streams first reach each
    tag); every step then maps to its plan in one numpy gather, and the
    threads' plan ids join the flat step list, each thread followed by
    plan 0.  Only called while ``Simulator.can_replay`` holds.
    Returns one generator view per thread (:func:`_thread_view`), which
    the caller registers; the program itself is not kept.  Returns
    None, dropping what was compiled, when a thread without a program
    was spawned first: such a run cannot replay.
    """
    state = sim._vector_state or ReplayState()
    if len(state.starts) != len(sim._threads):
        sim._vector_state = None
        return None
    sim._vector_state = state
    table = program.table
    n_cores = sim.config.n_cores
    lengths = np.diff(program.bounds)
    # Entry-major (table entry, core) pair of every step.
    pair = program.codes * np.int32(n_cores)
    pair += np.repeat(
        np.array([core for core, _mtp in placements], dtype=np.int32),
        lengths,
    )
    used = np.flatnonzero(np.bincount(pair, minlength=len(table) * n_cores))
    lut = np.zeros(len(table) * n_cores, dtype=np.int32)
    plans = state.plans
    for key in used.tolist():
        entry, core = divmod(key, n_cores)
        op = table[entry]
        uid = plans.get((id(op), core))
        if uid is None:
            kind, flag, payload, floats, targets = _build_plan(sim, op, core)
            uid = plans[(id(op), core)] = len(state.ops)
            record = (0 if kind == PLAN_PHASE
                      else state.tags.setdefault(op.tag, len(state.tags)))
            state.plan_i.append((kind, core, record, len(state.target_i),
                                 len(targets), flag, payload, 0))
            state.plan_f.append(floats)
            for dst, remote, *target_floats in targets:
                state.target_i.append((dst, remote))
                state.target_f.append(target_floats)
            state.ops.append(op)
        lut[key] = uid
    # Each thread's steps, then its PLAN_END slot (uid 0).
    uids = np.insert(lut[pair], program.bounds[1:], 0)
    del pair, lut
    starts = (program.bounds[:-1] + np.arange(len(placements))).tolist()
    base = state.n_steps
    state.starts.extend(start + base for start in starts)
    state.steps.append(uids)
    state.n_steps += len(uids)
    mtps = sim.config.mtps_per_core
    state.pipes.extend(core * mtps + mtp for core, mtp in placements)
    return [
        _thread_view(state.ops, uids, start, start + length)
        for start, length in zip(starts, lengths.tolist())
    ]


def _thread_view(ops, uids, lo, hi):
    """Generator view of one compiled thread: its op sequence, read
    back from its plan ids (ignores sent values), so the reference
    loop can run the thread should the run lose replay after spawn."""
    for uid in uids[lo:hi].tolist():
        yield ops[uid]


def run_programs(sim):
    """Run every spawned thread; returns kernel ns.

    Replays the compiled programs natively when every thread is one
    and ``Simulator.can_replay`` still holds (never on the reference
    engine, which compiles nothing); otherwise runs
    :meth:`Simulator._run_reference`, which drives every program's
    generator view with identical results.
    """
    state = sim._vector_state
    if (state is None or not sim.can_replay
            or len(state.starts) != len(sim._threads)):
        return sim._run_reference()
    return _replay_native(sim, state)


def _pack(columns, room, dtypes):
    """Lay per-resource sequences out in one buffer per column.

    ``columns[r]`` holds resource ``r``'s parallel sequences (a
    timeline's starts and ends); each resource gets a region with
    ``room[r]`` free slots after its entries.  Returns the buffers and
    the regions' offsets, capacities and lengths.
    """
    lengths = np.array([len(cols[0]) for cols in columns], dtype=np.int64)
    caps = lengths + room.astype(np.int64)
    offsets = np.zeros(len(caps), dtype=np.int64)
    np.cumsum(caps[:-1], out=offsets[1:])
    buffers = [np.empty(int(caps.sum()), dtype) for dtype in dtypes]
    for cols, off, n in zip(columns, offsets.tolist(), lengths.tolist()):
        for buffer, col in zip(buffers, cols):
            buffer[off:off + n] = col
    return buffers + [offsets, caps, lengths]


def _unpack(buffers, offsets, lengths):
    """Each region's sequences back as lists (inverse of :func:`_pack`)."""
    for off, n in zip(offsets.tolist(), lengths.tolist()):
        yield [buffer[off:off + n].tolist() for buffer in buffers]


def _replay_native(sim, state):
    """The native replay entry: every thread is a compiled program.

    Copies the mutable simulator state into arrays, runs the C loop
    (``piuma_replay`` in ``_replay.c``), writes every field back, and
    raises what the loop reports at the event it reports it.  Event
    order, event counts, watchdog trip points, and all accounting are
    identical to ``_run_reference``.
    """
    heap = sim._heap
    if any(entry[3] is not None for entry in heap):
        raise RuntimeError("replay requires a fresh event queue")
    cfg = sim.config
    steps = (state.steps[0] if len(state.steps) == 1
             else np.concatenate(state.steps))
    plan_i = np.array(state.plan_i, dtype=np.int64)
    target_i = np.array(state.target_i, dtype=np.int64).reshape(-1, 2)
    # Room each timeline and staging queue may need: one interval per
    # slice touch and one entry per striped DMA, over every step.
    runs = np.bincount(steps, minlength=len(plan_i))
    kinds, cores, n_targets = plan_i[:, 0], plan_i[:, 1], plan_i[:, 4]
    touches = np.bincount(target_i[:, 0], np.repeat(runs, n_targets),
                          cfg.n_cores)
    striped = kinds == PLAN_DMA
    pushes = np.bincount(cores[striped], runs[striped], cfg.n_cores)
    engines = sim.dma_engines
    slices = sim.slices
    pipes = [pipe for row in sim.pipelines for pipe in row]
    fluids = (pipes + sim.network._injection + sim.atomic_units
              + [engine._engine for engine in engines])
    records = [sim.stats[tag] for tag in state.tags]
    tl = _pack([(s._timeline._starts, s._timeline._ends) for s in slices],
               touches, (np.float64, np.float64))
    q = _pack([tuple(zip(*e._inflight)) or ((), ()) for e in engines],
              pushes, (np.float64, np.int64))
    pcs = np.array(state.starts, dtype=np.int64)
    arrays = dict(
        steps=steps, plan_i=plan_i,
        plan_f=np.array(state.plan_f, dtype=np.float64),
        target_i=target_i,
        target_f=np.array(state.target_f, dtype=np.float64).reshape(-1, 4),
        thread_pipe=np.array(state.pipes, dtype=np.int64), pcs=pcs,
        heap_when=np.array([e[0] for e in heap], dtype=np.float64),
        heap_seq=np.array([e[1] for e in heap], dtype=np.int64),
        heap_idx=np.array([e[2] for e in heap], dtype=np.int64),
        fluid=np.array([(r.busy_until, r.busy_time, r.units_served,
                         r.requests) for r in fluids], dtype=_FLUID),
        dma=np.array([(e._inflight_bytes, e._retry_backoff_ns,
                       e.bytes_moved, e._fail_period, e._fail_countdown,
                       e.retries, e.ops) for e in engines], dtype=_DMA),
        slices=np.array([
            (s._timeline._retired_busy, s._priority_horizon,
             s._priority_busy, s.stall_period_ns, s.stall_duration_ns,
             s.bytes_served, s.requests)
            for s in slices], dtype=_SLICE),
        tags=np.array([(r.wait_ns, r.bytes, r.count) for r in records],
                      dtype=_TAG),
        **dict(zip(("tl_starts", "tl_ends", "tl_off", "tl_cap", "tl_len"),
                   tl)),
        **dict(zip(("q_when", "q_bytes", "q_off", "q_cap", "q_len"), q)),
    )
    inf = float("inf")
    args = _Args(
        n_heap=len(heap), n_cores=cfg.n_cores, n_pipes=len(pipes),
        issue_cost=sim._dma_issue_cost,
        max_events=float(cfg.max_events or inf),
        max_sim_ns=float(cfg.max_sim_ns or inf),
        stall_limit=float(cfg.stall_events or inf),
        setup_end=sim.setup_end, seq=sim._seq,
        **{name: array.ctypes.data for name, array in arrays.items()},
    )
    code = native.load().piuma_replay(ctypes.byref(args))
    if code == RUN_NO_MEMORY:
        raise MemoryError("native replay could not allocate its queue")

    for fluid, row in zip(fluids, arrays["fluid"].tolist()):
        (fluid.busy_until, fluid.busy_time, fluid.units_served,
         fluid.requests) = row
    for engine, (inflight, _, moved, _, countdown, retries, ops), entries \
            in zip(engines, arrays["dma"].tolist(),
                   _unpack(q[:2], q[2], q[4])):
        engine._inflight_bytes = inflight
        engine.bytes_moved = moved
        engine._fail_countdown = countdown
        engine.retries = retries
        engine.ops = ops
        engine._inflight.clear()
        engine._inflight.extend(zip(*entries))
    for slice_, (retired, horizon, priority, _, _, served, requests), \
            (starts, ends) in zip(slices, arrays["slices"].tolist(),
                                  _unpack(tl[:2], tl[2], tl[4])):
        slice_._timeline._starts[:] = starts
        slice_._timeline._ends[:] = ends
        slice_._timeline._retired_busy = retired
        slice_._priority_horizon = horizon
        slice_._priority_busy = priority
        slice_.bytes_served = served
        slice_.requests = requests
    for record, row in zip(records, arrays["tags"].tolist()):
        record.wait_ns, record.bytes, record.count = row
    sim.setup_end = args.setup_end
    sim._seq = args.seq
    sim.events = args.events
    left = arrays["heap_idx"][:args.n_heap]
    heap[:] = sorted(zip(arrays["heap_when"][:args.n_heap].tolist(),
                         arrays["heap_seq"][:args.n_heap].tolist(),
                         left.tolist(), pcs[left].tolist()))

    if code == RUN_DONE:
        sim.end_time = args.latest + cfg.launch_overhead_ns
        return sim.end_time
    if code == RUN_MAX_EVENTS:
        raise sim._diverged_events(args.events, args.now)
    if code == RUN_MAX_SIM_NS:
        raise sim._diverged_sim_ns(args.now)
    if code == RUN_STALL:
        raise sim._diverged_stall(args.stalled, args.now)
    if code == RUN_DEAD_DMA:
        raise HardwareExhausted(
            f"DMA engine on core {args.dead_core} is dead",
            cause="dead-dma",
        )
    raise RuntimeError(f"native replay failed with code {code}")
