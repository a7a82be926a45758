"""Compiled-program replay, the default engine's loop for static kernels.

The reference loop (``Simulator._run_reference``) pays, per event, a
heap push and pop, a generator resumption, a type-table dispatch, a
handler frame, and the attribute chains inside the handler.  For
the static SpMM/dense kernels every thread's op stream is a pure
function of the work split, known before ``run()`` — the kernels emit
all of them at once with numpy into one
:class:`~repro.piuma.ops.OpProgram` (an interned op table plus a flat
step-code array) and, on ``PIUMAConfig.engine="fast"``,
:meth:`Simulator.run` replays that program here instead:

* **Plan compilation** (at ``spawn_programs`` time, one pass per
  program): every ``(op, core)`` pair the program's threads use is
  compiled once to a replay *closure*
  ``fn(now, pipe) -> (resume, completion)``.  The four MTPs of a core
  share it: the thread's pipeline is the one argument, and default
  arguments pre-bind everything else the handlers would look up per
  event — resource objects (DRAM slice, raw timeline lists, DMA
  engine, injection port, atomic unit), memoized network latencies,
  and every precomputed float (pipeline and service durations, stripe
  shares, staging limits) — built from the *exact* expressions of the
  reference handlers, so results stay bit-identical.  Striped-DMA
  closures are source-generated per target shape with the stripe loop
  unrolled (:func:`_dma_factory`).  DMA timing comes from (and fills)
  the per-(op, core) plan cache of the dispatch closure in
  ``engine.py``.
* **Replay** (the hot loop): every thread's closures sit in one flat
  step list, each thread's run ending in a sentinel; per event,
  ``prog[pc](now, pipe)`` — no generator, no dispatch ladder, no
  handler attribute chains, no plan lookup; every constant is a
  ``LOAD_FAST``.
* **Deferred counters** (batch accounting): monotone counters the run
  never *reads* (``units_served``/``requests``/``bytes_served``/
  ``ops``/``bytes_moved``/tag ``count``/``bytes``) are left out of the
  replay bodies and settled once after the loop from per-plan
  execution counts (one ``numpy.bincount`` over every thread's
  executed step prefix).  This is exact, not approximate: every deferred addend
  is checked integral at compile time, and sums of integers below
  2**53 are exact in IEEE doubles *in any order*, so the batched
  totals are bit-identical to the reference's per-event accumulation.
  A run with a non-integral addend anywhere (a fractional stripe
  share) is not replayed: it runs the reference loop, which accounts
  every event live.  Order-dependent float state (``busy_until``/
  ``busy_time`` chains, ``wait_ns``) always stays live in event order.

Global event order is *semantic* (threads contend on shared FIFO
resources), so the loop keeps the exact ``(when, seq)`` total order of
the reference loop on the same binary heap.  Two shortcuts leave that
order unchanged: a thread whose resume time strictly precedes every
queued event keeps running without a heap round trip (the skipped
push would have been popped next), and a thread switch fuses the push
and pop into one ``heappushpop`` (the pushed entry can never beat the
queued head: sequence numbers only grow, and ties break by sequence).
Event accounting (every op plus the final program exhaustion counts
one event), the watchdog ceilings and the ``events & 2047`` compaction
cadence are the reference loop's, so ``SimulationDiverged`` trips at
exactly the same event in both loops.

Replay runs only when every thread is a compiled program and
``Simulator.can_replay`` holds: the default engine, no ``_execute``
hook bound, the engine's own DMA dispatch entry, and every deferred
addend integral.  Every other run goes to ``_run_reference``, which
drives each program's generator view: the reference engine, a
sanitizer or tracer armed (``check_level >= 1``), a thread without a
registered program (custom factories, the dynamic work-stealing kernel
whose op stream depends on runtime interleaving), a wrapped DMA
dispatch entry, or a fractional addend.  The kernels read
``can_replay`` before emitting, and a fractional addend is found while
compiling, before any thread is registered, so a run that cannot
replay spawns generators only.

The compiled state lives on ``Simulator._vector_state`` from the first
``spawn_programs`` until :meth:`Simulator.run` returns, which drops it:
the closures bind the simulator's resources, so holding them past the
run would keep every replayed simulator's compiled form alive.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappushpop

import numpy as np

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

def _merge_backfill(starts, ends, arrival, duration):
    """``Timeline.backfill`` with the insert-then-merge memmoves fused out.

    The original inserts the new interval and then deletes it (or its
    swallowed successors) again while merging — two O(n) ``list``
    memmoves per call on timelines that run hundreds of live intervals.
    Measured on the Fig 5 medium point, ~89% of backfills net zero
    growth (the new interval merges into a neighbor within the epsilon),
    so this version computes the merge window *first* and then applies
    the single cheapest list mutation: extending the predecessor's end
    in place, overwriting one swallowed successor, or — only when
    nothing merges — a genuine insert.

    Content evolution is bit-identical to ``Timeline.backfill``: same
    candidate rule, same progressive successor merge, same 1e-9 epsilon,
    same final interval lists after every call (pre-existing neighbors
    are always further than the epsilon apart — they would have been
    merged when created — so the original's merge loops never cascade
    past the window computed here).  The first-fit scan keeps a plain
    assignment where the original keeps a running max: interval ends
    are strictly increasing (disjoint, sorted, gaps wider than the
    epsilon) and ``ends[index]`` always exceeds the entry candidate
    (``starts[index] > arrival`` by bisection), so the max never binds.
    Returns the granted window's end (callers never use the start).
    """
    n = len(starts)
    index = bisect_right(starts, arrival)
    if index > 0:
        prev_end = ends[index - 1]
        candidate = prev_end if prev_end > arrival else arrival
    else:
        candidate = arrival
    while index < n:
        if starts[index] - candidate >= duration:
            break
        candidate = ends[index]
        index += 1
    end = candidate + duration
    # Progressive merge window [index, j): successors the new interval
    # touches, with the running merged end (same order of max updates
    # as the original's successor loop).
    merged = end
    j = index
    while j < n and starts[j] <= merged + 1e-9:
        e = ends[j]
        if e > merged:
            merged = e
        j += 1
    if index > 0 and candidate <= ends[index - 1] + 1e-9:
        # Extends the predecessor in place (candidate >= its end by the
        # candidate rule, so the merged end can only grow it).
        if merged > ends[index - 1]:
            ends[index - 1] = merged
        if j > index:
            del starts[index:j]
            del ends[index:j]
    elif j > index:
        # Overwrite the first swallowed successor, drop the rest.
        starts[index] = candidate
        ends[index] = merged
        if j > index + 1:
            del starts[index + 1:j]
            del ends[index + 1:j]
    else:
        starts.insert(index, candidate)
        ends.insert(index, end)
    return end


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


#: Compiled healthy-DMA replay templates, keyed by plan shape
#: ``(lat_flags, has_fail)``.  One ``exec`` per shape ever (a handful
#: per topology); the per-plan cost is one factory call that binds the
#: plan's constants as default arguments of the returned closure.
_DMA_TEMPLATES = {}


def _dma_factory(lat_flags, has_fail):
    """Source-compile one healthy-DMA replay body per plan shape.

    The DMA dispatch closure (``Simulator._make_exec_dma``) pays, per
    event, a loop over target tuples and a lookup for every plan
    constant.  Here the target loop is unrolled (``lat_flags[i]`` tells
    whether target ``i`` is remote — the only per-target control flow)
    and every constant is bound as a default argument of the generated
    closure, so the replay body runs on ``LOAD_FAST`` alone.
    Arithmetic is copied expression-for-expression from that closure:
    same order, same operands, same floats.  The closure signature is
    ``fn(now, pipe)`` returning ``(resume, completion)``.
    """
    key = (lat_flags, has_fail)
    factory = _DMA_TEMPLATES.get(key)
    if factory is not None:
        return factory
    defaults = [
        "engine=engine", "eng=eng", "inj=inj", "duration=duration",
        "inj_service=inj_service", "limit=limit", "nbytes=nbytes",
        "fail=fail", "issue_cost=issue_cost", "br=bisect_right",
        # The inflight deque lives for the simulator's lifetime
        # (created once in DMAEngine.__init__, only ever mutated), so
        # the deque and its bound methods are plan constants.
        "inflight=engine._inflight",
        "popleft=engine._inflight.popleft",
        "append=engine._inflight.append",
    ]
    any_remote = any(lat_flags)
    for i, remote in enumerate(lat_flags):
        defaults.append(f"s{i}=targets[{i}][0]")
        defaults.append(f"e{i}=targets[{i}][1]")
        if remote:
            defaults.append(f"l{i}=targets[{i}][2]")
        defaults.append(f"v{i}=targets[{i}][3]")
        defaults.append(f"n{i}=targets[{i}][4]")
    src = [
        "def _factory(engine, eng, inj, duration, inj_service, limit,",
        "             nbytes, fail, issue_cost, targets):",
        "    def _run(now, pipe,",
    ]
    for chunk in range(0, len(defaults), 4):
        src.append("             " + ", ".join(defaults[chunk:chunk + 4])
                   + ",")
    src[-1] = src[-1].rstrip(",") + "):"
    w = src.append
    w("        busy = pipe.busy_until")
    w("        issued = (now if now > busy else busy) + issue_cost")
    w("        pipe.busy_until = issued")
    w("        pipe.busy_time += issue_cost")
    if has_fail:
        w("        engine._fail_countdown -= 1")
        w("        if not engine._fail_countdown:")
        w("            engine._fail_countdown = fail")
        w("            engine.retries += 1")
        w("            issued += engine._retry_backoff_ns")
    w("        gate = issued")
    w("        inflight_bytes = engine._inflight_bytes")
    w("        while inflight and inflight[0][0] <= gate:")
    w("            inflight_bytes -= popleft()[1]")
    w("        while inflight and inflight_bytes + nbytes > limit:")
    w("            retired, size = popleft()")
    w("            inflight_bytes -= size")
    w("            if retired > gate:")
    w("                gate = retired")
    w("        busy = eng.busy_until")
    w("        start = gate if gate > busy else busy")
    w("        eng.busy_until = start + duration")
    w("        eng.busy_time += duration")
    w("        completion = start")
    if any_remote:
        w("        inj_busy = inj.busy_until")
        w("        inj_bt = inj.busy_time")
    for i, remote in enumerate(lat_flags):
        if remote:
            w("        sent = (start if start > inj_busy else inj_busy)"
              " + inj_service")
            w("        inj_busy = sent")
            w("        inj_bt += inj_service")
            w(f"        arrival = sent + l{i}")
        else:
            w("        arrival = start")
        w(f"        if s{i} and arrival >= s{i}[-1]:")
        w(f"            last_end = e{i}[-1]")
        w("            begin = last_end if last_end > arrival"
          " else arrival")
        w(f"            end = begin + v{i}")
        w("            if begin <= last_end + 1e-9:")
        w("                if end > last_end:")
        w(f"                    e{i}[-1] = end")
        w("            else:")
        w(f"                s{i}.append(begin)")
        w(f"                e{i}.append(end)")
        w("        else:")
        w(f"            nn = len(s{i})")
        w(f"            ix = br(s{i}, arrival)")
        w("            if ix > 0:")
        w(f"                pe = e{i}[ix - 1]")
        w("                cand = pe if pe > arrival else arrival")
        w("            else:")
        w("                cand = arrival")
        w("            while ix < nn:")
        w(f"                if s{i}[ix] - cand >= v{i}:")
        w("                    break")
        w(f"                cand = e{i}[ix]")
        w("                ix += 1")
        w(f"            end = cand + v{i}")
        w("            mg = end")
        w("            jj = ix")
        w(f"            while jj < nn and s{i}[jj] <= mg + 1e-9:")
        w(f"                ee = e{i}[jj]")
        w("                if ee > mg:")
        w("                    mg = ee")
        w("                jj += 1")
        w(f"            if ix > 0 and cand <= e{i}[ix - 1] + 1e-9:")
        w(f"                if mg > e{i}[ix - 1]:")
        w(f"                    e{i}[ix - 1] = mg")
        w("                if jj > ix:")
        w(f"                    del s{i}[ix:jj]")
        w(f"                    del e{i}[ix:jj]")
        w("            elif jj > ix:")
        w(f"                s{i}[ix] = cand")
        w(f"                e{i}[ix] = mg")
        w("                if jj > ix + 1:")
        w(f"                    del s{i}[ix + 1:jj]")
        w(f"                    del e{i}[ix + 1:jj]")
        w("            else:")
        w(f"                s{i}.insert(ix, cand)")
        w(f"                e{i}.insert(ix, end)")
        w(f"        end += n{i}")
        w("        if end > completion:")
        w("            completion = end")
    if any_remote:
        w("        inj.busy_until = inj_busy")
        w("        inj.busy_time = inj_bt")
    w("        append((completion, nbytes))")
    w("        engine._inflight_bytes = inflight_bytes + nbytes")
    w("        return issued, completion")
    w("    return _run")
    namespace = {"bisect_right": bisect_right}
    exec("\n".join(src), namespace)
    factory = namespace["_factory"]
    _DMA_TEMPLATES[key] = factory
    return factory


def _phase_plan(sim):
    def _run(now, pipe, sim=sim):
        if now > sim.setup_end:
            sim.setup_end = now
        return now, now
    return _run


def _dead_dma_plan(core_id, issue_cost, issue_instrs):
    # Accounts the issue slot live and raises — at the same event the
    # reference would — so the raising step is never settled.
    def _run(now, pipe, core_id=core_id, issue_cost=issue_cost,
             issue_instrs=issue_instrs):
        busy = pipe.busy_until
        issued = (now if now > busy else busy) + issue_cost
        pipe.busy_until = issued
        pipe.busy_time += issue_cost
        pipe.units_served += issue_instrs
        pipe.requests += 1
        raise HardwareExhausted(
            f"DMA engine on core {core_id} is dead",
            cause="dead-dma",
        )
    return _run


def _dma_internal_plan(engine, eng, duration, fail, issue_cost):
    def _run(now, pipe, engine=engine, eng=eng, duration=duration,
             fail=fail, issue_cost=issue_cost):
        busy = pipe.busy_until
        issued = (now if now > busy else busy) + issue_cost
        pipe.busy_until = issued
        pipe.busy_time += issue_cost
        if fail:
            engine._fail_countdown -= 1
            if not engine._fail_countdown:
                engine._fail_countdown = fail
                engine.retries += 1
                issued += engine._retry_backoff_ns
        busy = eng.busy_until
        start = issued if issued > busy else busy
        completion = start + duration
        eng.busy_until = completion
        eng.busy_time += duration
        return issued, completion
    return _run


def _dma_stall_plan(engine, eng, targets_v, duration, share, inj,
                    inj_service, limit, nbytes, fail, issue_cost):
    # General striped-DMA body: at least one target slice stalls
    # periodically (degraded topology), so every target keeps the
    # ``stall_period_ns`` check and stalling ones route through
    # ``bulk_request`` (which accounts itself live).
    def _run(now, pipe, engine=engine, eng=eng, targets_v=targets_v,
             duration=duration, share=share, inj=inj,
             inj_service=inj_service, limit=limit, nbytes=nbytes,
             fail=fail, issue_cost=issue_cost, merge=_merge_backfill):
        busy = pipe.busy_until
        issued = (now if now > busy else busy) + issue_cost
        pipe.busy_until = issued
        pipe.busy_time += issue_cost
        if fail:
            engine._fail_countdown -= 1
            if not engine._fail_countdown:
                engine._fail_countdown = fail
                engine.retries += 1
                issued += engine._retry_backoff_ns
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
        busy = eng.busy_until
        start = gate if gate > busy else busy
        eng.busy_until = start + duration
        eng.busy_time += duration
        completion = start
        inj_busy = inj.busy_until
        inj_bt = inj.busy_time
        for memory, starts, ends, lat, service, lat_ns in targets_v:
            if lat is None:
                arrival = start
            else:
                sent = (
                    start if start > inj_busy else inj_busy
                ) + inj_service
                inj_busy = sent
                inj_bt += inj_service
                arrival = sent + lat
            if memory.stall_period_ns:
                end = memory.bulk_request(arrival, share)
                if end > completion:
                    completion = end
                continue
            if starts and arrival >= starts[-1]:
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
                end = merge(starts, ends, arrival, service)
            end += lat_ns
            if end > completion:
                completion = end
        inj.busy_until = inj_busy
        inj.busy_time = inj_bt
        inflight.append((completion, nbytes))
        engine._inflight_bytes = inflight_bytes + nbytes
        return issued, completion
    return _run


def _load_plan(g_dur, lat1, slice_, starts, ends, service, lat_ns, lat2,
               record, priority, stall_p, stall_d):
    def _run(now, pipe, g_dur=g_dur, lat1=lat1, slice_=slice_,
             starts=starts, ends=ends, service=service, lat_ns=lat_ns,
             lat2=lat2, record=record, priority=priority,
             stall_p=stall_p, stall_d=stall_d, merge=_merge_backfill):
        busy = pipe.busy_until
        start = now if now > busy else busy
        issued = start + g_dur
        pipe.busy_until = issued
        pipe.busy_time += g_dur
        arrival = issued + lat1
        if stall_p:
            phase = arrival % stall_p
            if phase < stall_d:
                arrival = arrival + (stall_d - phase)
        if starts and arrival >= starts[-1]:
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
            end = merge(starts, ends, arrival, service)
        if priority:
            horizon = slice_._priority_horizon
            pstart = arrival if arrival > horizon else horizon
            pend = pstart + service
            slice_._priority_horizon = pend
            slice_._priority_busy += service
            done = pend + lat_ns + lat2
        else:
            done = end + lat_ns + lat2
        record.wait_ns += done - issued
        return done, done
    return _run


def _atomic_plan(dur1, lat, inj, inj_service, aunit, a_dur, starts, ends,
                 service, lat_ns, stall_p, stall_d):
    def _run(now, pipe, dur1=dur1, lat=lat, inj=inj,
             inj_service=inj_service, aunit=aunit, a_dur=a_dur,
             starts=starts, ends=ends, service=service, lat_ns=lat_ns,
             stall_p=stall_p, stall_d=stall_d, merge=_merge_backfill):
        busy = pipe.busy_until
        start = now if now > busy else busy
        issued = start + dur1
        pipe.busy_until = issued
        pipe.busy_time += dur1
        if lat is None:
            arrival = issued
        else:
            busy = inj.busy_until
            sent = (issued if issued > busy else busy) + inj_service
            inj.busy_until = sent
            inj.busy_time += inj_service
            arrival = sent + lat
        busy = aunit.busy_until
        ustart = arrival if arrival > busy else busy
        unit_done = ustart + a_dur
        aunit.busy_until = unit_done
        aunit.busy_time += a_dur
        if stall_p:
            phase = unit_done % stall_p
            if phase < stall_d:
                unit_done = unit_done + (stall_d - phase)
        if starts and unit_done >= starts[-1]:
            last_end = ends[-1]
            begin = last_end if last_end > unit_done else unit_done
            end = begin + service
            if begin <= last_end + 1e-9:
                if end > last_end:
                    ends[-1] = end
            else:
                starts.append(begin)
                ends.append(end)
        else:
            end = merge(starts, ends, unit_done, service)
        return issued, end + lat_ns
    return _run


def _sequential_plan(dur, targets, nm1, worst_trip, record):
    def _run(now, pipe, dur=dur, targets=targets, nm1=nm1,
             worst_trip=worst_trip, record=record, merge=_merge_backfill):
        busy = pipe.busy_until
        start = now if now > busy else busy
        issued = start + dur
        pipe.busy_until = issued
        pipe.busy_time += dur
        served = issued
        for starts, ends, hop, service, lat_ns, stall_p, stall_d in targets:
            arrival = issued + hop
            if stall_p:
                phase = arrival % stall_p
                if phase < stall_d:
                    arrival = arrival + (stall_d - phase)
            if starts and arrival >= starts[-1]:
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
                end = merge(starts, ends, arrival, service)
            done_t = end + lat_ns + hop
            if done_t > served:
                served = done_t
        done = served + nm1 * worst_trip
        record.wait_ns += done - issued
        return done, done
    return _run


def _store_plan(dur1, targets):
    def _run(now, pipe, dur1=dur1, targets=targets, merge=_merge_backfill):
        busy = pipe.busy_until
        start = now if now > busy else busy
        issued = start + dur1
        pipe.busy_until = issued
        pipe.busy_time += dur1
        done = issued
        for (starts, ends, lat, service, lat_ns, stall_p, stall_d, inj,
             inj_service) in targets:
            if lat is None:
                arrival = issued
            else:
                busy = inj.busy_until
                sent = (issued if issued > busy else busy) + inj_service
                inj.busy_until = sent
                inj.busy_time += inj_service
                arrival = sent + lat
            if stall_p:
                phase = arrival % stall_p
                if phase < stall_d:
                    arrival = arrival + (stall_d - phase)
            if starts and arrival >= starts[-1]:
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
                end = merge(starts, ends, arrival, service)
            end += lat_ns
            if end > done:
                done = end
        return issued, done
    return _run


def _compute_plan(dur):
    def _run(now, pipe, dur=dur):
        busy = pipe.busy_until
        start = now if now > busy else busy
        end = start + dur
        pipe.busy_until = end
        pipe.busy_time += dur
        return end, end
    return _run


def _build_plan(sim, op, core, exec_dma):
    """Compile one (op, core) pair to a replay closure.

    Every float here is produced by the same expression the reference
    handlers evaluate (``engine.py``/``resources.py``/``dma.py``), so
    replay arithmetic is bit-identical.  Pipeline durations divide by
    the configured instruction rate, which every pipeline of the
    simulator shares, so one closure serves all MTPs of the core.
    Returns ``(fn, units, deferred)``: ``fn(now, pipe) -> (resume,
    completion)`` executes one step on the thread's pipeline; ``units``
    is the pipeline instructions one execution charges (``None`` for a
    phase marker, which charges no pipeline request); ``deferred`` is
    the raw ``(obj, attr, amount)`` entries of every other deferred
    counter one execution adds (see :func:`_collapse`), or ``None``
    when a live-accounted addend is not integral.
    """
    kind = op_kind_code(op)
    if kind == OP_PHASE:
        return _phase_plan(sim), None, ()
    rate = sim.config.clock_ghz
    network = sim.network
    slices = sim.slices
    record = sim.stats[op.tag]
    if kind == OP_DMA_READ or kind == OP_DMA_WRITE or kind == OP_DMA_INTERNAL:
        engine = sim.dma_engines[core]
        issue_cost = sim._dma_issue_cost
        issue_instrs = sim._dma_issue_instrs
        if not engine.alive:
            return _dead_dma_plan(core, issue_cost, issue_instrs), \
                issue_instrs, ()
        dma_plan = exec_dma.plans.get((id(op), core))
        if dma_plan is None:
            dma_plan = exec_dma.build_plan(op, core)
        fail = engine._fail_period
        eng = engine._engine
        nbytes = op.nbytes
        entries = [
            (eng, "units_served", nbytes), (eng, "requests", 1),
            (engine, "ops", 1), (engine, "bytes_moved", nbytes),
            (record, "count", 1), (record, "bytes", nbytes),
        ]
        if dma_plan[0] is None:
            return _dma_internal_plan(
                engine, eng, dma_plan[1], fail, issue_cost,
            ), issue_instrs, entries
        resolved, duration, share, inj, inj_service, limit = dma_plan
        targets_v = []
        hot_targets = []
        stalled = False
        tainted = False
        remote = 0
        for memory, timeline, lat, service, lat_ns in resolved:
            targets_v.append((
                memory, timeline._starts, timeline._ends, lat, service,
                lat_ns,
            ))
            hot_targets.append((
                timeline._starts, timeline._ends, lat, service, lat_ns,
            ))
            if lat is not None:
                remote += 1
            if memory.stall_period_ns:
                # bulk_request accounts this target live inside the
                # call; a fractional share there still taints the
                # slice's counter for the whole run.
                stalled = True
                if share != int(share):
                    tainted = True
            else:
                entries.append((memory, "bytes_served", share))
                entries.append((memory, "requests", 1))
        if remote:
            # One injection per remote target, folded.  A fractional
            # share still rules replay out: every target carries it in
            # its own entry or taints the plan.
            entries.append((inj, "units_served", share * remote))
            entries.append((inj, "requests", remote))
        if stalled:
            return _dma_stall_plan(
                engine, eng, tuple(targets_v), duration, share, inj,
                inj_service, limit, nbytes, fail, issue_cost,
            ), issue_instrs, None if tainted else entries
        factory = _dma_factory(
            tuple(lat is not None for _s, _e, lat, _v, _n in hot_targets),
            bool(fail),
        )
        return factory(
            engine, eng, inj, duration, inj_service, limit, nbytes, fail,
            issue_cost, hot_targets,
        ), issue_instrs, entries
    if kind == OP_LOAD:
        grouped = op.grouped
        nbytes = op.nbytes
        dst = op.target_core
        slice_ = slices[dst]
        timeline = slice_._timeline
        return _load_plan(
            grouped / rate + 0.0, network.latency(core, dst), slice_,
            timeline._starts, timeline._ends, nbytes / slice_.rate,
            slice_.latency_ns, network.latency(dst, core), record,
            op.priority, slice_.stall_period_ns, slice_.stall_duration_ns,
        ), grouped, [
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
            timeline = slice_._timeline
            targets.append((
                timeline._starts, timeline._ends, hop,
                share / slice_.rate, slice_.latency_ns,
                slice_.stall_period_ns, slice_.stall_duration_ns,
            ))
            entries.append((slice_, "bytes_served", share))
            entries.append((slice_, "requests", 1))
            trip = 2 * hop + slice_.latency_ns
            if trip > worst_trip:
                worst_trip = trip
        return _sequential_plan(
            n_units / rate + 0.0, tuple(targets), op.n_rounds - 1,
            worst_trip, record,
        ), n_units, entries
    if kind == OP_STORE:
        nbytes = op.nbytes
        raw = sim._stripe_targets(op.target_core, nbytes)
        share = nbytes / len(raw)
        inj = network._injection[core]
        inj_service = share / inj.rate + 0.0
        targets = []
        entries = [(record, "count", 1), (record, "bytes", nbytes)]
        for dst in raw:
            slice_ = slices[dst]
            timeline = slice_._timeline
            lat = None if dst == core else network.latency(core, dst)
            targets.append((
                timeline._starts, timeline._ends, lat,
                share / slice_.rate, slice_.latency_ns,
                slice_.stall_period_ns, slice_.stall_duration_ns,
                inj, inj_service,
            ))
            if lat is not None:
                entries.append((inj, "units_served", share))
                entries.append((inj, "requests", 1))
            entries.append((slice_, "bytes_served", share))
            entries.append((slice_, "requests", 1))
        return _store_plan(
            1 / rate + 0.0, tuple(targets),
        ), 1, entries
    if kind == OP_ATOMIC:
        nbytes = op.nbytes
        dst = op.target_core
        remote = dst != core
        inj = network._injection[core] if remote else None
        inj_service = (nbytes / inj.rate + 0.0) if remote else 0.0
        lat = network.latency(core, dst) if remote else None
        aunit = sim.atomic_units[dst]
        a_dur = nbytes / aunit.rate + sim.config.atomic_overhead_ns
        slice_ = slices[dst]
        timeline = slice_._timeline
        two = 2 * nbytes
        entries = [
            (aunit, "units_served", nbytes), (aunit, "requests", 1),
            (slice_, "bytes_served", two), (slice_, "requests", 1),
            (record, "count", 1), (record, "bytes", two),
        ]
        if remote:
            entries.append((inj, "units_served", nbytes))
            entries.append((inj, "requests", 1))
        return _atomic_plan(
            1 / rate + 0.0, lat, inj, inj_service, aunit, a_dur,
            timeline._starts, timeline._ends, two / slice_.rate,
            slice_.latency_ns, slice_.stall_period_ns,
            slice_.stall_duration_ns,
        ), 1, entries
    # kind == OP_COMPUTE
    n_instrs = op.n_instrs
    return _compute_plan(n_instrs / rate + 0.0), n_instrs, [
        (record, "count", 1),
    ]


class _ReplayExhausted(Exception):
    """Control-flow sentinel: a program's trailing step raises it.

    Replaces a per-event ``pc == end_pc`` bound check in the tight
    loop: every compiled step list carries :func:`_exhaust` past the
    last real op, and executing it raises this (prebuilt) instance.
    The handler performs the program-exhaustion event — the replay
    analogue of the final ``StopIteration`` resumption, counted
    identically in every loop.
    """


_EXHAUSTED = _ReplayExhausted()


def _exhaust(now, pipe, exc=_EXHAUSTED):
    raise exc


class ReplayState:
    """Spawn-time compile state of one simulator.

    Lives on ``Simulator._vector_state`` from the first
    :func:`compile_programs` until the run ends.

    Attributes
    ----------
    plans:
        ``(id(op), core) -> uid``: the plan compiled for a table entry
        on a core.  Plan ``uid`` has the replay closure ``fns[uid]``,
        the pipeline instructions ``units[uid]`` one execution charges
        (``None`` for a phase marker) and the deferred counter deltas
        ``deferred[uid]`` (:func:`_collapse`), their ``(obj, attr,
        amount)`` addends interned across plans through ``addends`` —
        most plans of a run repeat the same few — and its op is
        ``ops[uid]``.  Uid 0 is the :func:`_exhaust` sentinel.
    steps:
        The flat step list: every registered thread's step closures,
        thread after thread, each followed by :func:`_exhaust`.
    starts / pipes:
        Per thread, in spawn order: its first pc in ``steps`` and its
        pipeline.
    keys / cores:
        ``uid * mtps_per_core + mtp`` of every step (``int32`` chunks,
        one per registration, sentinel slots included), which the
        settle pass counts and the threads' generator views read, and
        each plan's core.
    replayable:
        False once compiling ruled replay out for this run (see
        :func:`compile_programs`); ``Simulator.can_replay`` then reads
        False and the tables are empty.
    """

    __slots__ = ("plans", "fns", "units", "deferred", "addends", "ops",
                 "steps", "starts", "pipes", "keys", "cores", "replayable")

    def __init__(self):
        self.plans = {}
        self.fns = [_exhaust]
        self.units = [None]
        self.deferred = [()]
        self.addends = {}
        self.ops = [None]
        self.steps = []
        self.starts = []
        self.pipes = []
        self.keys = []
        self.cores = [0]
        self.replayable = True


def compile_programs(sim, program, placements):
    """Compile a registered program, every thread in one pass.

    Called by :meth:`Simulator.spawn_programs` at spawn time (the
    resources every plan binds exist from ``__init__``), so ``run()``
    itself only replays.  Plans are built only for the (table entry,
    core) pairs the program's threads use, once per ``(op, core)``
    across registrations, in table order (so per-tag stats records are
    created in the order the kernels' streams first reach each tag);
    every step then maps to its plan in one numpy gather, and the
    threads' closures join the flat step list, each thread followed by
    the :func:`_exhaust` sentinel.  Only called while
    ``Simulator.can_replay`` holds.  Returns one generator view per
    thread (:func:`_thread_view`), which the caller registers; the
    program itself is not kept.  Returns None, having ruled replay out
    for the run and freed what was compiled, when a thread without a
    program was spawned first or a plan has a non-integral deferred
    addend.
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
            fn, units, entries = _build_plan(sim, op, core, exec_dma)
            deferred = None if entries is None else _collapse(entries,
                                                              addends)
            if deferred is None or (units is not None
                                    and units != int(units)):
                _rule_out(sim)
                return None
            uid = plans[(id(op), core)] = len(state.fns)
            state.fns.append(fn)
            state.ops.append(op)
            state.units.append(units)
            state.cores.append(core)
            state.deferred.append(deferred)
        lut[key] = uid
    # Each thread's steps, then its sentinel slot (uid 0).
    uids = np.insert(lut[pair], program.bounds[1:], 0)
    del pair, lut
    fns = np.empty(len(state.fns), dtype=object)
    fns[:] = state.fns
    starts = (program.bounds[:-1] + np.arange(len(placements))).tolist()
    base = len(state.steps)
    state.starts.extend(start + base for start in starts)
    if base:
        state.steps.extend(fns[uids].tolist())
    else:
        state.steps = fns[uids].tolist()
    del fns
    mtps = sim.config.mtps_per_core
    uids *= np.int32(mtps)
    uids += np.repeat(
        np.array([mtp for _core, mtp in placements], dtype=np.int32),
        lengths + 1,
    )
    state.keys.append(uids)
    pipelines = sim.pipelines
    state.pipes.extend(pipelines[core][mtp] for core, mtp in placements)
    return [
        _thread_view(state.ops, uids, start, start + length, mtps)
        for start, length in zip(starts, lengths.tolist())
    ]


def _thread_view(ops, keys, lo, hi, mtps):
    """Generator view of one compiled thread: its op sequence, read
    back from its step keys (ignores sent values), so the reference
    loop can run the thread should the run lose replay after spawn."""
    for key in keys[lo:hi].tolist():
        yield ops[key // mtps]


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
    too.  When every thread ran to its sentinel, all steps are counted,
    sentinels included (plan 0 charges nothing).  The counts and
    ``n * amount`` are integers (numpy ``int64`` for the pipeline
    counters, Python ints for the rest); the float adds at the end are
    exact while a counter stays below 2**53, which is the same bound at
    which the reference's own per-event float accumulation would start
    rounding.
    """
    n_steps = len(state.steps)
    mtps = sim.config.mtps_per_core
    n_plans = len(state.fns)
    keys = (state.keys[0] if len(state.keys) == 1
            else np.concatenate(state.keys))
    starts = np.array(state.starts, dtype=np.int64)
    pcs = np.array(pcs, dtype=np.int64)
    sentinels = np.append(starts[1:], n_steps) - 1
    if not np.array_equal(pcs, sentinels):
        # +1 at every start, -1 at every final pc (pc <= the thread's
        # sentinel, which precedes the next start, so no two collide).
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

    Replays the compiled programs when every thread is one and
    ``Simulator.can_replay`` still holds (never on the reference
    engine, which compiles nothing); otherwise runs
    :meth:`Simulator._run_reference`, which drives every program's
    generator view with identical results.
    """
    state = sim._vector_state
    if (state is None or not sim.can_replay
            or len(state.starts) != len(sim._threads)):
        return sim._run_reference()
    pcs = list(state.starts)
    try:
        return _replay_programs(sim, state.steps, state.starts,
                                state.pipes, pcs)
    finally:
        _settle(sim, state, pcs)


def _replay_programs(sim, prog, starts, pipes, pcs):
    """The replay loop: every thread is a compiled program.

    ``prog`` is the flat step list and ``starts`` each thread's first
    pc in it.  Each heap entry carries the thread's pc in the value
    slot (programs never consume a resumption value), every thread's
    steps end in a sentinel (:class:`_ReplayExhausted` replaces a
    per-event bound check), and the three watchdog comparisons share
    one fused guard.  Event order, event counts, watchdog trip points,
    and all accounting are identical to ``_run_reference`` — only the
    per-event constant drops.  ``pcs`` receives every thread's final pc.
    """
    cfg = sim.config
    slices = sim.slices
    pending = sim._heap
    # Spawn pushed (0.0, seq, idx, None) entries; rewrite the value
    # slot to the starting pc.  (when, seq) are untouched and seq is
    # unique, so the heap invariant is preserved.
    for i, entry in enumerate(pending):
        if entry[3] is not None:
            raise RuntimeError("replay requires a fresh event queue")
        pending[i] = (entry[0], entry[1], entry[2], starts[entry[2]])
    heappop_ = heappop
    heappushpop_ = heappushpop
    inf = float("inf")
    max_events = cfg.max_events or inf
    max_sim_ns = cfg.max_sim_ns or inf
    stall_limit = cfg.stall_events or inf
    latest = 0.0
    events = 0
    stalled = 0
    last_now = -1.0
    seq = sim._seq
    idx = -1
    pc = 0
    try:
        while pending:
            now, _seq, idx, pc = heappop_(pending)
            pipe = pipes[idx]
            try:
                while True:
                    events += 1
                    if not events & 2047:
                        # Same boundary as _run_reference: retire dead
                        # DRAM timeline history (result-transparent).
                        cutoff = now - 1.0
                        for s in slices:
                            s.retire_before(cutoff)
                    if (events > max_events or now > max_sim_ns
                            or now == last_now):
                        if events > max_events:
                            raise sim._diverged_events(events, now)
                        if now > max_sim_ns:
                            raise sim._diverged_sim_ns(now)
                        stalled += 1
                        if stalled > stall_limit:
                            raise sim._diverged_stall(stalled, now)
                    else:
                        stalled = 0
                        last_now = now
                    resume, completion = prog[pc](now, pipe)
                    pc += 1
                    if completion > latest:
                        latest = completion
                    if pending and pending[0][0] <= resume:
                        # Fused switch; the pushed entry can never beat
                        # the queue head (resume >= head's when, larger
                        # seq on ties), so (when, seq) order is exact.
                        now, _seq, idx, pc = heappushpop_(
                            pending, (resume, seq, idx, pc)
                        )
                        seq += 1
                        pipe = pipes[idx]
                        continue
                    now = resume
            except _ReplayExhausted:
                # Program exhausted: the replay analogue of the final
                # StopIteration resumption — same event count.  Every
                # raise of the one prebuilt sentinel would otherwise
                # prepend this frame to its traceback, and those
                # frames would keep every replayed simulator alive.
                _EXHAUSTED.__traceback__ = None
                pcs[idx] = pc
                if now > latest:
                    latest = now
    finally:
        # pcs for suspended threads live in their queue entries; the
        # in-flight thread's is in the local.  Exhausted threads were
        # synced by the handler above, so on a mid-run raise the
        # executed-prefix counts match the reference's live
        # accounting up to the same event.
        for entry in pending:
            pcs[entry[2]] = entry[3]
        if idx >= 0:
            pcs[idx] = pc
        sim._seq = seq
        sim.events = events
    sim.end_time = latest + cfg.launch_overhead_ns
    return sim.end_time
