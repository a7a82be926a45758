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
  core, the tag record, a flag, an integral constant and four floats —
  plus one *target row* per DRAM slice it touches.  The four MTPs of a
  core share the plan; the thread's pipeline is bound at replay time.
  Every float is built from the exact expression of the reference
  handlers, and DMA timing comes from (and fills) the per-(op, core)
  plan cache of the dispatch closure in ``engine.py``.
* **Replay** is one C loop (``_replay.c``, built and loaded by
  :mod:`repro.piuma.native`) over one flat ``int32`` array of plan ids,
  each thread's run ending in plan 0.  :func:`run_programs` copies the
  mutable state into arrays, calls the loop, writes every field back
  and raises what the loop reports (a watchdog trip, a dead DMA
  engine) with the reference loop's message, at the same event.
* **Deferred counters**: monotone counters the run never *reads*
  (``units_served``/``requests``/``bytes_served``/``ops``/
  ``bytes_moved``/tag ``count``/``bytes``) are settled once after the
  loop from per-plan execution counts (one ``numpy.bincount`` over
  every thread's executed step prefix).  Every deferred addend is
  checked integral at compile time, and sums of integers below 2**53
  are exact in IEEE doubles *in any order*, so the totals are
  bit-identical to the reference's per-event accumulation; a run with
  a non-integral addend (a fractional stripe share) runs the reference
  loop instead.  Order-dependent floats (``busy_until``/``busy_time``
  chains, ``wait_ns``) stay live in event order.

The loop keeps the reference loop's exact ``(when, seq)`` event order:
a thread whose resume time strictly precedes every queued event keeps
running without a heap round trip, and a thread switch replaces the
heap head (the pushed entry can never beat it: sequence numbers only
grow).  Event accounting, the watchdog ceilings and the ``events &
2047`` compaction cadence are the reference loop's too.

Replay runs only when every thread is a compiled program and
``Simulator.can_replay`` holds (the default engine, no ``_execute``
hook bound, the engine's own DMA dispatch entry, every deferred addend
integral, the native library loaded).  Every other run goes to
``_run_reference``, which drives each program's generator view.  The
compiled state lives on ``Simulator._vector_state`` from the first
``spawn_programs`` until :meth:`Simulator.run` returns, which drops it.
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
    DMAOp,
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

_NO_FLOATS = (0.0, 0.0, 0.0, 0.0)

#: Return codes of the native loop.
(RUN_DONE, RUN_MAX_EVENTS, RUN_MAX_SIM_NS, RUN_STALL, RUN_DEAD_DMA,
 RUN_NO_MEMORY, RUN_OVERFLOW) = range(7)


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
            "fluid", "dma_f", "dma_i", "slices", "wait_ns",
            "tl_starts", "tl_ends", "tl_off", "tl_cap", "tl_len",
            "q_when", "q_bytes", "q_off", "q_cap", "q_len")] + [
        (name, ctypes.c_double) for name in (
            "issue_cost", "max_events", "max_sim_ns", "stall_limit",
            "setup_end")] + [
        (name, ctypes.c_int64) for name in (
            "seq", "events", "stalled", "dead_core", "dead_pipe")] + [
        ("now", ctypes.c_double), ("latest", ctypes.c_double)]


def _collapse(entries, addends):
    """Intern one plan's raw deferred-counter entries.

    Returns a tuple of ``(obj, attrname, int_amount)`` triples — the
    per-execution counter delta of one plan, each triple shared through
    ``addends`` by every plan that adds the same amount to the same
    counter — or ``None`` when any amount is not integral (fractional
    stripe shares), which rules out replay for the whole run: mixing
    batched integral adds with live fractional adds on the same counter
    would change float rounding order.  Zero amounts are dropped
    (value-identical no-ops); a counter may appear more than once, and
    the settle pass adds its triples up.
    """
    out = []
    for obj, attr, amount in entries:
        if amount:
            i = int(amount)
            if i != amount:
                return None
            key = (id(obj), attr, i)
            triple = addends.get(key)
            if triple is None:
                triple = addends[key] = (obj, attr, i)
            out.append(triple)
    return tuple(out)


def _build_plan(sim, op, core, exec_dma):
    """Compile one (op, core) pair to a plan row.

    Every float here is produced by the same expression the reference
    handlers evaluate (``engine.py``/``resources.py``/``dma.py``), so
    replay arithmetic is bit-identical.  Pipeline durations divide by
    the configured instruction rate, which every pipeline of the
    simulator shares, so one plan serves all MTPs of the core.
    Returns ``(kind, flag, count, floats, targets, units, deferred)``:
    the plan's kind, flag, integral constant and ``(dur, lat, x, inj)``
    floats (their meaning per kind is ``_replay.c``'s), the ``(slice,
    remote, lat, service, lat_ns)`` rows of the slices one execution
    touches, the pipeline instructions one execution charges (``None``
    for a phase marker, which charges no pipeline request), and the raw
    ``(obj, attr, amount)`` entries of every other deferred counter one
    execution adds (see :func:`_collapse`).
    """
    kind = op_kind_code(op)
    if kind == OP_PHASE:
        return PLAN_PHASE, 0, 0, _NO_FLOATS, (), None, ()
    rate = sim.config.clock_ghz
    network = sim.network
    slices = sim.slices
    record = sim.stats[op.tag]
    if kind == OP_DMA_READ or kind == OP_DMA_WRITE or kind == OP_DMA_INTERNAL:
        engine = sim.dma_engines[core]
        issue_instrs = sim._dma_issue_instrs
        if not engine.alive:
            # The issue slot is accounted live when the run trips here,
            # so the raising step is never settled.
            return PLAN_DMA_DEAD, 0, 0, _NO_FLOATS, (), issue_instrs, ()
        dma_plan = exec_dma.plans.get((id(op), core))
        if dma_plan is None:
            dma_plan = exec_dma.build_plan(op, core)
        eng = engine._engine
        nbytes = op.nbytes
        entries = [
            (eng, "units_served", nbytes), (eng, "requests", 1),
            (engine, "ops", 1), (engine, "bytes_moved", nbytes),
            (record, "count", 1), (record, "bytes", nbytes),
        ]
        if dma_plan[0] is None:
            return PLAN_DMA_INTERNAL, 0, 0, (dma_plan[1], 0.0, 0.0, 0.0), \
                (), issue_instrs, entries
        resolved, duration, share, inj, inj_service, limit = dma_plan
        targets = []
        remote = 0
        raw = sim._dma_stripe_targets(op.target_core, nbytes)
        for (memory, _tl, lat, service, lat_ns), (_m, dst) in zip(
                resolved, raw):
            targets.append((dst, lat is not None,
                            0.0 if lat is None else lat, service, lat_ns))
            remote += lat is not None
            # A stalling slice is accounted like any other: its addends
            # are integral or the plan rules replay out.
            entries.append((memory, "bytes_served", share))
            entries.append((memory, "requests", 1))
        if remote:
            # One injection per remote target, folded.  A fractional
            # share still rules replay out: every target carries it in
            # its own entry.
            entries.append((inj, "units_served", share * remote))
            entries.append((inj, "requests", remote))
        return PLAN_DMA, 0, nbytes, (duration, 0.0, limit, inj_service), \
            targets, issue_instrs, entries
    if kind == OP_LOAD:
        nbytes = op.nbytes
        dst = op.target_core
        slice_ = slices[dst]
        return PLAN_LOAD, bool(op.priority), 0, (
            op.grouped / rate + 0.0, network.latency(core, dst),
            network.latency(dst, core), 0.0,
        ), [(dst, False, 0.0, nbytes / slice_.rate, slice_.latency_ns)], \
            op.grouped, [
                (slice_, "bytes_served", nbytes), (slice_, "requests", 1),
                (record, "count", 1), (record, "bytes", nbytes),
            ]
    if kind == OP_SEQUENTIAL:
        n_units = op.n_rounds * op.instrs_per_round
        total_bytes = op.n_rounds * op.bytes_per_round
        raw = sim._stripe_targets(op.target_core, total_bytes)
        share = total_bytes / len(raw)
        targets = []
        worst_trip = 0.0
        entries = [(record, "count", 1), (record, "bytes", total_bytes)]
        for dst in raw:
            hop = network.latency(core, dst)
            slice_ = slices[dst]
            targets.append((dst, False, hop, share / slice_.rate,
                            slice_.latency_ns))
            entries.append((slice_, "bytes_served", share))
            entries.append((slice_, "requests", 1))
            trip = 2 * hop + slice_.latency_ns
            if trip > worst_trip:
                worst_trip = trip
        return PLAN_SEQUENTIAL, 0, op.n_rounds - 1, (
            n_units / rate + 0.0, 0.0, worst_trip, 0.0,
        ), targets, n_units, entries
    if kind == OP_STORE:
        nbytes = op.nbytes
        raw = sim._stripe_targets(op.target_core, nbytes)
        share = nbytes / len(raw)
        inj = network._injection[core]
        targets = []
        entries = [(record, "count", 1), (record, "bytes", nbytes)]
        for dst in raw:
            slice_ = slices[dst]
            remote = dst != core
            targets.append((dst, remote,
                            network.latency(core, dst) if remote else 0.0,
                            share / slice_.rate, slice_.latency_ns))
            if remote:
                entries.append((inj, "units_served", share))
                entries.append((inj, "requests", 1))
            entries.append((slice_, "bytes_served", share))
            entries.append((slice_, "requests", 1))
        return PLAN_STORE, 0, 0, (
            1 / rate + 0.0, 0.0, 0.0, share / inj.rate + 0.0,
        ), targets, 1, entries
    if kind == OP_ATOMIC:
        nbytes = op.nbytes
        dst = op.target_core
        remote = dst != core
        inj = network._injection[core]
        aunit = sim.atomic_units[dst]
        slice_ = slices[dst]
        two = 2 * nbytes
        entries = [
            (aunit, "units_served", nbytes), (aunit, "requests", 1),
            (slice_, "bytes_served", two), (slice_, "requests", 1),
            (record, "count", 1), (record, "bytes", two),
        ]
        if remote:
            entries.append((inj, "units_served", nbytes))
            entries.append((inj, "requests", 1))
        return PLAN_ATOMIC, remote, 0, (
            1 / rate + 0.0,
            network.latency(core, dst) if remote else 0.0,
            nbytes / aunit.rate + sim.config.atomic_overhead_ns,
            (nbytes / inj.rate + 0.0) if remote else 0.0,
        ), [(dst, False, 0.0, two / slice_.rate, slice_.latency_ns)], 1, \
            entries
    # kind == OP_COMPUTE
    return PLAN_COMPUTE, 0, 0, (op.n_instrs / rate + 0.0, 0.0, 0.0, 0.0), \
        (), op.n_instrs, [(record, "count", 1)]


class ReplayState:
    """Spawn-time compile state of one simulator.

    Lives on ``Simulator._vector_state`` from the first
    :func:`compile_programs` until the run ends.

    Attributes
    ----------
    plans:
        ``(id(op), core) -> uid``: the plan compiled for a table entry
        on a core.  Plan ``uid`` has the integer row ``plan_i[uid]``
        (kind, core, record, first target row, target count, flag,
        count, padding), the float row ``plan_f[uid]`` (dur, lat, x,
        inj), the pipeline instructions ``units[uid]`` one execution
        charges (``None`` for a phase marker) and the deferred counter
        deltas ``deferred[uid]`` (:func:`_collapse`), their ``(obj,
        attr, amount)`` addends interned across plans through
        ``addends`` — most plans of a run repeat the same few — and its
        op is ``ops[uid]``.  Uid 0 is ``PLAN_END``, the step that ends
        every thread.
    target_i / target_f:
        The target rows, ``(slice, remote)`` and ``(lat, service,
        lat_ns)``, each plan's rows contiguous and in plan order.
    tags:
        The tags whose records plans charge ``wait_ns`` to, each
        mapped to its index among them.
    steps:
        The flat step list in ``int32`` chunks, one per registration:
        every registered thread's plan ids, thread after thread, each
        followed by a 0.
    starts / pipes:
        Per thread, in spawn order: its first pc in the flat step list
        and its pipeline index (``core * mtps_per_core + mtp``).
    keys / cores:
        ``uid * mtps_per_core + mtp`` of every step (chunked like
        ``steps``), which the settle pass counts, and each plan's core.
    replayable:
        False once compiling ruled replay out for this run (see
        :func:`compile_programs`); ``Simulator.can_replay`` then reads
        False and the tables are empty.
    """

    __slots__ = ("plans", "plan_i", "plan_f", "target_i", "target_f",
                 "tags", "units", "deferred",
                 "addends", "ops", "steps", "n_steps", "starts", "pipes",
                 "keys", "cores", "replayable")

    def __init__(self):
        self.plans = {}
        self.plan_i = [(PLAN_END,) + (0,) * 7]
        self.plan_f = [(0.0,) * 4]
        self.target_i = []
        self.target_f = []
        self.tags = {}
        self.units = [None]
        self.deferred = [()]
        self.addends = {}
        self.ops = [None]
        self.steps = []
        self.n_steps = 0
        self.starts = []
        self.pipes = []
        self.keys = []
        self.cores = [0]
        self.replayable = True


def compile_programs(sim, program, placements):
    """Compile a registered program, every thread in one pass.

    Called by :meth:`Simulator.spawn_programs` at spawn time (the
    resources every plan reads exist from ``__init__``), so ``run()``
    itself only replays.  Plans are built only for the (table entry,
    core) pairs the program's threads use, once per ``(op, core)``
    across registrations, in table order (so per-tag stats records are
    created in the order the kernels' streams first reach each tag);
    every step then maps to its plan in one numpy gather, and the
    threads' plan ids join the flat step list, each thread followed by
    plan 0.  Only called while ``Simulator.can_replay`` holds.
    Returns one generator view per thread (:func:`_thread_view`), which
    the caller registers; the program itself is not kept.  Returns
    None, having ruled replay out for the run and freed what was
    compiled, when a thread without a program was spawned first or a
    plan has a non-integral deferred addend.
    """
    state = sim._vector_state
    if state is None:
        state = sim._vector_state = ReplayState()
    if len(state.starts) != len(sim._threads):
        _rule_out(sim)
        return None
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
    exec_dma = sim._dispatch[DMAOp]
    plans = state.plans
    addends = state.addends
    for key in used.tolist():
        entry, core = divmod(key, n_cores)
        op = table[entry]
        uid = plans.get((id(op), core))
        if uid is None:
            kind, flag, count, floats, targets, units, entries = \
                _build_plan(sim, op, core, exec_dma)
            deferred = _collapse(entries, addends)
            if (deferred is None or count != int(count)
                    or (units is not None and units != int(units))):
                _rule_out(sim)
                return None
            uid = plans[(id(op), core)] = len(state.units)
            record = (0 if kind == PLAN_PHASE
                      else state.tags.setdefault(op.tag, len(state.tags)))
            state.plan_i.append((kind, core, record, len(state.target_i),
                                 len(targets), flag, int(count), 0))
            state.plan_f.append(floats)
            for dst, remote, lat, service, lat_ns in targets:
                state.target_i.append((dst, remote))
                state.target_f.append((lat, service, lat_ns))
            state.ops.append(op)
            state.units.append(units)
            state.cores.append(core)
            state.deferred.append(deferred)
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
    keys = uids * np.int32(mtps)
    keys += np.repeat(
        np.array([mtp for _core, mtp in placements], dtype=np.int32),
        lengths + 1,
    )
    state.keys.append(keys)
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


def _rule_out(sim):
    """Give replay up for this run and free what was compiled."""
    state = sim._vector_state = ReplayState()
    state.replayable = False


def _settle(sim, state, pcs):
    """Add the deferred counters of every executed step.

    ``pcs`` gives every thread's final pc, so thread ``t`` executed the
    steps ``[starts[t], pcs[t])`` of the flat step list — exact even
    when the run raised mid-stream (watchdog, dead DMA), so the settled
    totals match what the reference loop would have accumulated live
    up to the same event.  One ``bincount`` keyed by (plan, MTP) counts
    them; a plan belongs to one core, so the key names the pipeline
    too.  When every thread ran to its end, all steps are counted,
    end steps included (plan 0 charges nothing).  The counts and
    ``n * amount`` are integers (numpy ``int64`` for the pipeline
    counters, Python ints for the rest); the float adds at the end are
    exact while a counter stays below 2**53, which is the same bound at
    which the reference's own per-event float accumulation would start
    rounding.
    """
    n_steps = state.n_steps
    mtps = sim.config.mtps_per_core
    n_plans = len(state.units)
    keys = (state.keys[0] if len(state.keys) == 1
            else np.concatenate(state.keys))
    starts = np.array(state.starts, dtype=np.int64)
    pcs = np.array(pcs, dtype=np.int64)
    ends = np.append(starts[1:], n_steps) - 1
    if not np.array_equal(pcs, ends):
        # +1 at every start, -1 at every final pc (pc <= the thread's
        # end step, which precedes the next start, so no two collide).
        ran = np.zeros(n_steps + 1, dtype=np.int32)
        ran[starts] += 1
        ran[pcs] -= 1
        keys = keys[np.cumsum(ran[:-1], dtype=np.int32).astype(bool)]
        del ran
    counts = np.bincount(
        keys, minlength=n_plans * mtps
    ).reshape(n_plans, mtps)
    del keys
    units = np.array([u or 0 for u in state.units], dtype=np.int64)
    issues = np.array([u is not None for u in state.units], dtype=np.int64)
    cores = np.array(state.cores, dtype=np.int64)
    pipe_units = np.zeros((sim.config.n_cores, mtps), dtype=np.int64)
    np.add.at(pipe_units, cores, counts * units[:, None])
    pipe_requests = np.zeros((sim.config.n_cores, mtps), dtype=np.int64)
    np.add.at(pipe_requests, cores, counts * issues[:, None])
    for core, mtp in zip(*np.nonzero(pipe_requests)):
        pipe = sim.pipelines[core][mtp]
        pipe.units_served += int(pipe_units[core, mtp])
        pipe.requests += int(pipe_requests[core, mtp])
    totals = {}
    t_get = totals.get
    for uid, n in enumerate(counts.sum(axis=1).tolist()):
        if n:
            for obj, attr, amount in state.deferred[uid]:
                key = (id(obj), attr)
                cur = t_get(key)
                if cur is None:
                    totals[key] = [obj, attr, n * amount]
                else:
                    cur[2] += n * amount
    for obj, attr, total in totals.values():
        setattr(obj, attr, getattr(obj, attr) + total)


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
    pcs = np.array(state.starts, dtype=np.int64)
    try:
        return _replay_native(sim, state, pcs)
    finally:
        _settle(sim, state, pcs)


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


def _replay_native(sim, state, pcs):
    """The native replay entry: every thread is a compiled program.

    Copies the mutable simulator state into arrays, runs the C loop
    (``piuma_replay`` in ``_replay.c``), writes every field back, and
    raises what the loop reports at the event it reports it.  Event
    order, event counts, watchdog trip points, and all accounting are
    identical to ``_run_reference``.  ``pcs`` (in: each thread's start
    pc) receives every thread's final pc.
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
    dma = kinds == PLAN_DMA
    pushes = np.bincount(cores[dma], runs[dma], cfg.n_cores)
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
    arrays = dict(
        steps=steps, plan_i=plan_i,
        plan_f=np.array(state.plan_f, dtype=np.float64),
        target_i=target_i,
        target_f=np.array(state.target_f, dtype=np.float64).reshape(-1, 3),
        thread_pipe=np.array(state.pipes, dtype=np.int64), pcs=pcs,
        heap_when=np.array([e[0] for e in heap], dtype=np.float64),
        heap_seq=np.array([e[1] for e in heap], dtype=np.int64),
        heap_idx=np.array([e[2] for e in heap], dtype=np.int64),
        fluid=np.array([(r.busy_until, r.busy_time) for r in fluids],
                       dtype=np.float64),
        dma_f=np.array([(e._inflight_bytes, e._retry_backoff_ns)
                        for e in engines], dtype=np.float64),
        dma_i=np.array([(e._fail_period, e._fail_countdown, e.retries)
                        for e in engines], dtype=np.int64),
        slices=np.array([
            (s._timeline._retired_busy, s._priority_horizon,
             s._priority_busy, s.stall_period_ns, s.stall_duration_ns)
            for s in slices], dtype=np.float64),
        wait_ns=np.array([r.wait_ns for r in records], dtype=np.float64),
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

    for fluid, (busy_until, busy_time) in zip(fluids,
                                              arrays["fluid"].tolist()):
        fluid.busy_until = busy_until
        fluid.busy_time = busy_time
    for engine, (inflight, _), (_, countdown, retries), entries in zip(
            engines, arrays["dma_f"].tolist(), arrays["dma_i"].tolist(),
            _unpack(q[:2], q[2], q[4])):
        engine._inflight_bytes = inflight
        engine._fail_countdown = countdown
        engine.retries = retries
        engine._inflight.clear()
        engine._inflight.extend(zip(*entries))
    for slice_, (retired, horizon, priority, _, _), (starts, ends) in zip(
            slices, arrays["slices"].tolist(), _unpack(tl[:2], tl[2], tl[4])):
        slice_._timeline._starts[:] = starts
        slice_._timeline._ends[:] = ends
        slice_._timeline._retired_busy = retired
        slice_._priority_horizon = horizon
        slice_._priority_busy = priority
    for record, wait_ns in zip(records, arrays["wait_ns"].tolist()):
        record.wait_ns = wait_ns
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
        pipe = pipes[args.dead_pipe]
        pipe.units_served += sim._dma_issue_instrs
        pipe.requests += 1
        raise HardwareExhausted(
            f"DMA engine on core {args.dead_core} is dead",
            cause="dead-dma",
        )
    raise RuntimeError(f"native replay failed with code {code}")
