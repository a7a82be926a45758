"""Compiled-program replay main loop (``PIUMAConfig.engine="vector"``).

The fast path (``engine.py:_run_fast``) still pays, per event, a
generator resumption, a type-table dispatch, a handler frame, and the
attribute chains inside the handler.  For the static SpMM/dense kernels
the entire op stream of a thread is known before ``run()`` — the kernels
compile it into an :class:`~repro.piuma.ops.OpProgram` (struct-of-arrays
codes over an interned op table).  This loop replays those programs:

* **Plan compilation** (at ``spawn_program`` time): every unique
  ``(op, core, mtp)`` triple is compiled to a replay *closure*
  ``fn(now, live) -> (resume, completion)`` whose default arguments
  pre-bind everything the handlers would look up per event — resource
  objects (pipeline, DRAM slice, raw timeline lists, DMA engine,
  injection port, atomic unit), memoized network latencies, and every
  precomputed float (pipeline and service durations, stripe shares,
  staging limits) — built from the *exact* expressions of the
  reference handlers, so results stay bit-identical.  Striped-DMA
  closures are additionally source-generated per target shape with the
  stripe loop unrolled (:func:`_dma_factory`).  DMA timing comes from
  (and fills) the per-(op, core) plan cache the dispatch closure in
  ``engine.py`` already maintains.
* **Replay** (the hot loop): per event, ``prog[pc](now, live)`` — no
  generator, no dispatch ladder, no handler attribute chains, no plan
  lookup; every constant is a ``LOAD_FAST``.
* **Deferred counters** (batch accounting): monotone counters the run
  never *reads* (``units_served``/``requests``/``bytes_served``/
  ``ops``/``bytes_moved``/tag ``count``/``bytes``) are dropped from the
  per-event bodies and settled once after the loop, from per-plan
  execution counts (``numpy.bincount`` over each program's executed
  code prefix).  This is exact, not approximate: every deferred addend
  is validated integral at assembly, and sums of integers below 2**53
  are exact in IEEE doubles *in any order*, so the batched totals are
  bit-identical to the reference's per-event accumulation.  One
  non-integral addend anywhere (fractional stripe shares on degraded
  topologies) flips the whole run to live per-event accounting — same
  bodies, one flag.
  Order-dependent float state (``busy_until``/``busy_time`` chains,
  ``wait_ns``) always stays live in event order.

Global event order is *semantic* (threads contend on shared FIFO
resources), so the loop keeps the exact ``(when, seq)`` total order of
the other engines: the same binary heap, the same fused
``heappushpop`` thread switch, the same peek-ahead continuation rule,
the same event accounting (every op plus the final program exhaustion
counts one event), the same watchdog ceilings, and the same
``events & 2047`` compaction cadence as ``_run_fast`` — so
``SimulationDiverged`` trips at exactly the same event on every
engine.

Replay runs only when every thread is a compiled program and no
``_execute`` hook is bound.  Every other run goes to ``_run_fast``,
which drives each program's generator view: a sanitizer or tracer
armed (``check_level >= 1``), a thread without a registered program
(custom factories, the dynamic work-stealing kernel whose op stream
depends on runtime interleaving), or a wrapped DMA dispatch entry.
So at ``check_level >= 1`` the vector engine runs the fast loop.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappushpop

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a soft dependency
    _np = None

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


def _collapse(entries):
    """Fold raw deferred-counter entries into per-(obj, attr) integers.

    Returns a tuple of ``(obj, attrname, int_amount)`` triples — the
    per-execution counter delta of one plan — or ``None`` when any
    amount is not integral (fractional stripe shares), which disables
    deferral for the whole run: mixing batched integral adds with live
    fractional adds on the same counter would change float rounding
    order.  Zero amounts are dropped (value-identical no-ops).
    """
    acc = {}
    for obj, attr, amount in entries:
        if amount:
            i = int(amount)
            if i != amount:
                return None
            key = (id(obj), attr)
            cur = acc.get(key)
            if cur is None:
                acc[key] = [obj, attr, i]
            else:
                cur[2] += i
    return tuple(map(tuple, acc.values()))


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
    ``fn(now, live)`` returning ``(resume, completion)``.
    """
    key = (lat_flags, has_fail)
    factory = _DMA_TEMPLATES.get(key)
    if factory is not None:
        return factory
    defaults = [
        "pipe=pipe", "engine=engine", "eng=eng", "inj=inj",
        "record=record", "duration=duration", "share=share",
        "inj_service=inj_service", "limit=limit", "nbytes=nbytes",
        "fail=fail", "issue_cost=issue_cost",
        "issue_instrs=issue_instrs", "br=bisect_right",
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
        defaults.append(f"m{i}=memories[{i}]")
    src = [
        "def _factory(pipe, engine, eng, inj, record, duration, share,",
        "             inj_service, limit, nbytes, fail, issue_cost,",
        "             issue_instrs, targets, memories, merge):",
        "    def _run(now, live,",
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
    w("        if live:")
    w("            pipe.units_served += issue_instrs")
    w("            pipe.requests += 1")
    w("            eng.units_served += nbytes")
    w("            eng.requests += 1")
    w("            engine.ops += 1")
    w("            engine.bytes_moved += nbytes")
    for i, remote in enumerate(lat_flags):
        if remote:
            w("            inj.units_served += share")
            w("            inj.requests += 1")
        w(f"            m{i}.bytes_served += share")
        w(f"            m{i}.requests += 1")
    w("            record.count += 1")
    w("            record.bytes += nbytes")
    w("        return issued, completion")
    w("    return _run")
    namespace = {"bisect_right": bisect_right}
    exec("\n".join(src), namespace)
    factory = namespace["_factory"]
    _DMA_TEMPLATES[key] = factory
    return factory


def _phase_plan(sim):
    def _run(now, live, sim=sim):
        if now > sim.setup_end:
            sim.setup_end = now
        return now, now
    return _run


def _dead_dma_plan(pipe, core_id, issue_cost, issue_instrs):
    # Accounts the issue slot live and raises — at the same event the
    # reference would — so the deferred delta for this plan is empty.
    def _run(now, live, pipe=pipe, core_id=core_id,
             issue_cost=issue_cost, issue_instrs=issue_instrs):
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


def _dma_internal_plan(pipe, engine, eng, duration, nbytes, record,
                       fail, issue_cost, issue_instrs):
    def _run(now, live, pipe=pipe, engine=engine, eng=eng,
             duration=duration, nbytes=nbytes, record=record,
             fail=fail, issue_cost=issue_cost,
             issue_instrs=issue_instrs):
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
        if live:
            pipe.units_served += issue_instrs
            pipe.requests += 1
            eng.units_served += nbytes
            eng.requests += 1
            engine.ops += 1
            engine.bytes_moved += nbytes
            record.count += 1
            record.bytes += nbytes
        return issued, completion
    return _run


def _dma_stall_plan(pipe, engine, eng, targets_v, duration, share, inj,
                    inj_service, limit, nbytes, record, fail,
                    issue_cost, issue_instrs):
    # General striped-DMA body: at least one target slice stalls
    # periodically (degraded topology), so every target keeps the
    # ``stall_period_ns`` check and stalling ones route through
    # ``bulk_request`` (which accounts itself live).
    def _run(now, live, pipe=pipe, engine=engine, eng=eng,
             targets_v=targets_v, duration=duration, share=share,
             inj=inj, inj_service=inj_service, limit=limit,
             nbytes=nbytes, record=record, fail=fail,
             issue_cost=issue_cost, issue_instrs=issue_instrs,
             merge=_merge_backfill):
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
        if live:
            pipe.units_served += issue_instrs
            pipe.requests += 1
            eng.units_served += nbytes
            eng.requests += 1
            engine.ops += 1
            engine.bytes_moved += nbytes
            for memory, _s, _e, lat, _srv, _ln in targets_v:
                if lat is not None:
                    inj.units_served += share
                    inj.requests += 1
                if not memory.stall_period_ns:
                    memory.bytes_served += share
                    memory.requests += 1
            record.count += 1
            record.bytes += nbytes
        return issued, completion
    return _run


def _load_plan(pipe, g_dur, g_units, lat1, slice_, starts, ends,
               service, lat_ns, lat2, nbytes, record, priority,
               stall_p, stall_d):
    def _run(now, live, pipe=pipe, g_dur=g_dur, g_units=g_units,
             lat1=lat1, slice_=slice_, starts=starts, ends=ends,
             service=service, lat_ns=lat_ns, lat2=lat2, nbytes=nbytes,
             record=record, priority=priority, stall_p=stall_p,
             stall_d=stall_d, merge=_merge_backfill):
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
        if live:
            pipe.units_served += g_units
            pipe.requests += 1
            slice_.bytes_served += nbytes
            slice_.requests += 1
            record.count += 1
            record.bytes += nbytes
        record.wait_ns += done - issued
        return done, done
    return _run


def _atomic_plan(pipe, dur1, lat, inj, inj_service, nbytes, aunit,
                 a_dur, slice_, starts, ends, service, lat_ns, stall_p,
                 stall_d, two, record):
    def _run(now, live, pipe=pipe, dur1=dur1, lat=lat, inj=inj,
             inj_service=inj_service, nbytes=nbytes, aunit=aunit,
             a_dur=a_dur, slice_=slice_, starts=starts, ends=ends,
             service=service, lat_ns=lat_ns, stall_p=stall_p,
             stall_d=stall_d, two=two, record=record,
             merge=_merge_backfill):
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
        if live:
            pipe.units_served += 1
            pipe.requests += 1
            if lat is not None:
                inj.units_served += nbytes
                inj.requests += 1
            aunit.units_served += nbytes
            aunit.requests += 1
            slice_.bytes_served += two
            slice_.requests += 1
            record.count += 1
            record.bytes += two
        return issued, end + lat_ns
    return _run


def _sequential_plan(pipe, dur, n_units, targets, nm1, worst_trip,
                     total_bytes, record):
    def _run(now, live, pipe=pipe, dur=dur, n_units=n_units,
             targets=targets, nm1=nm1, worst_trip=worst_trip,
             total_bytes=total_bytes, record=record,
             merge=_merge_backfill):
        busy = pipe.busy_until
        start = now if now > busy else busy
        issued = start + dur
        pipe.busy_until = issued
        pipe.busy_time += dur
        served = issued
        for (slice_, starts, ends, hop, service, lat_ns, stall_p,
             stall_d, share) in targets:
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
        if live:
            pipe.units_served += n_units
            pipe.requests += 1
            for (slice_, _s, _e, _h, _srv, _ln, _sp, _sd,
                 share_t) in targets:
                slice_.bytes_served += share_t
                slice_.requests += 1
            record.count += 1
            record.bytes += total_bytes
        record.wait_ns += done - issued
        return done, done
    return _run


def _store_plan(pipe, dur1, targets, nbytes, record):
    def _run(now, live, pipe=pipe, dur1=dur1, targets=targets,
             nbytes=nbytes, record=record, merge=_merge_backfill):
        busy = pipe.busy_until
        start = now if now > busy else busy
        issued = start + dur1
        pipe.busy_until = issued
        pipe.busy_time += dur1
        done = issued
        for (slice_, starts, ends, lat, service, lat_ns, stall_p,
             stall_d, share, inj, inj_service) in targets:
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
        if live:
            pipe.units_served += 1
            pipe.requests += 1
            for (slice_, _s, _e, lat, _srv, _ln, _sp, _sd, share_t,
                 inj_t, _is) in targets:
                if lat is not None:
                    inj_t.units_served += share_t
                    inj_t.requests += 1
                slice_.bytes_served += share_t
                slice_.requests += 1
            record.count += 1
            record.bytes += nbytes
        return issued, done
    return _run


def _compute_plan(pipe, dur, n_instrs, record):
    def _run(now, live, pipe=pipe, dur=dur, n_instrs=n_instrs,
             record=record):
        busy = pipe.busy_until
        start = now if now > busy else busy
        end = start + dur
        pipe.busy_until = end
        pipe.busy_time += dur
        if live:
            pipe.units_served += n_instrs
            pipe.requests += 1
            record.count += 1
        return end, end
    return _run


def _build_plan(sim, op, kind, core, mtp, exec_dma):
    """Compile one (op, core, mtp) triple to a replay closure.

    Every float here is produced by the same expression the reference
    handlers evaluate (``engine.py``/``resources.py``/``dma.py``), so
    replay arithmetic is bit-identical.  Returns ``(fn, deferred)``
    where ``fn(now, live) -> (resume, completion)`` executes one step
    with the plan's constants pre-bound as default arguments, and
    ``deferred`` is the plan's per-execution counter delta (see
    :func:`_collapse`), or ``None`` when the plan forces live
    accounting.
    """
    pipe = sim.pipelines[core][mtp]
    network = sim.network
    slices = sim.slices
    stats = sim.stats
    if kind == OP_PHASE:
        return _phase_plan(sim), ()
    record = stats[op.tag]
    if kind == OP_DMA_READ or kind == OP_DMA_WRITE or kind == OP_DMA_INTERNAL:
        engine = sim.dma_engines[core]
        if not engine.alive:
            return _dead_dma_plan(
                pipe, core, sim._dma_issue_cost, sim._dma_issue_instrs,
            ), ()
        dma_plan = exec_dma.plans.get((id(op), core))
        if dma_plan is None:
            dma_plan = exec_dma.build_plan(op, core)
        fail = engine._fail_period
        eng = engine._engine
        nbytes = op.nbytes
        entries = [
            (pipe, "units_served", sim._dma_issue_instrs),
            (pipe, "requests", 1),
            (eng, "units_served", nbytes), (eng, "requests", 1),
            (engine, "ops", 1), (engine, "bytes_moved", nbytes),
            (record, "count", 1), (record, "bytes", nbytes),
        ]
        if dma_plan[0] is None:
            return _dma_internal_plan(
                pipe, engine, eng, dma_plan[1], nbytes, record, fail,
                sim._dma_issue_cost, sim._dma_issue_instrs,
            ), _collapse(entries)
        resolved, duration, share, inj, inj_service, limit = dma_plan
        targets_v = []
        hot_targets = []
        live_targets = []
        stalled = False
        tainted = False
        for memory, timeline, lat, service, lat_ns in resolved:
            targets_v.append((
                memory, timeline._starts, timeline._ends, lat, service,
                lat_ns,
            ))
            hot_targets.append((
                timeline._starts, timeline._ends, lat, service, lat_ns,
            ))
            live_targets.append((memory, lat))
            if lat is not None:
                entries.append((inj, "units_served", share))
                entries.append((inj, "requests", 1))
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
        if stalled:
            return _dma_stall_plan(
                pipe, engine, eng, tuple(targets_v), duration, share,
                inj, inj_service, limit, nbytes, record, fail,
                sim._dma_issue_cost, sim._dma_issue_instrs,
            ), None if tainted else _collapse(entries)
        factory = _dma_factory(
            tuple(lat is not None for _m, lat in live_targets),
            bool(fail),
        )
        fn = factory(
            pipe, engine, eng, inj, record, duration, share,
            inj_service, limit, nbytes, fail, sim._dma_issue_cost,
            sim._dma_issue_instrs, hot_targets,
            [memory for memory, _lat in live_targets], _merge_backfill,
        )
        return fn, _collapse(entries)
    if kind == OP_LOAD:
        grouped = op.grouped
        g_dur = grouped / pipe.rate + 0.0
        nbytes = op.nbytes
        dst = op.target_core
        slice_ = slices[dst]
        timeline = slice_._timeline
        return _load_plan(
            pipe, g_dur, grouped, network.latency(core, dst), slice_,
            timeline._starts, timeline._ends, nbytes / slice_.rate,
            slice_.latency_ns, network.latency(dst, core), nbytes,
            record, op.priority, slice_.stall_period_ns,
            slice_.stall_duration_ns,
        ), _collapse([
            (pipe, "units_served", grouped), (pipe, "requests", 1),
            (slice_, "bytes_served", nbytes), (slice_, "requests", 1),
            (record, "count", 1), (record, "bytes", nbytes),
        ])
    if kind == OP_SEQUENTIAL:
        n_units = op.n_rounds * op.instrs_per_round
        dur = n_units / pipe.rate + 0.0
        total_bytes = op.n_rounds * op.bytes_per_round
        raw = sim._stripe_targets(op.target_core, total_bytes)
        share = total_bytes / len(raw)
        targets = []
        worst_trip = 0.0
        entries = [
            (pipe, "units_served", n_units), (pipe, "requests", 1),
            (record, "count", 1), (record, "bytes", total_bytes),
        ]
        for dst in raw:
            hop = network.latency(core, dst)
            slice_ = slices[dst]
            timeline = slice_._timeline
            targets.append((
                slice_, timeline._starts, timeline._ends, hop,
                share / slice_.rate, slice_.latency_ns,
                slice_.stall_period_ns, slice_.stall_duration_ns, share,
            ))
            entries.append((slice_, "bytes_served", share))
            entries.append((slice_, "requests", 1))
            trip = 2 * hop + slice_.latency_ns
            if trip > worst_trip:
                worst_trip = trip
        return _sequential_plan(
            pipe, dur, n_units, tuple(targets), op.n_rounds - 1,
            worst_trip, total_bytes, record,
        ), _collapse(entries)
    if kind == OP_STORE:
        nbytes = op.nbytes
        raw = sim._stripe_targets(op.target_core, nbytes)
        share = nbytes / len(raw)
        inj = network._injection[core]
        inj_service = share / inj.rate + 0.0
        targets = []
        entries = [
            (pipe, "units_served", 1), (pipe, "requests", 1),
            (record, "count", 1), (record, "bytes", nbytes),
        ]
        for dst in raw:
            slice_ = slices[dst]
            timeline = slice_._timeline
            lat = None if dst == core else network.latency(core, dst)
            targets.append((
                slice_, timeline._starts, timeline._ends, lat,
                share / slice_.rate, slice_.latency_ns,
                slice_.stall_period_ns, slice_.stall_duration_ns, share,
                inj, inj_service,
            ))
            if lat is not None:
                entries.append((inj, "units_served", share))
                entries.append((inj, "requests", 1))
            entries.append((slice_, "bytes_served", share))
            entries.append((slice_, "requests", 1))
        return _store_plan(
            pipe, 1 / pipe.rate + 0.0, tuple(targets), nbytes, record,
        ), _collapse(entries)
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
            (pipe, "units_served", 1), (pipe, "requests", 1),
            (aunit, "units_served", nbytes), (aunit, "requests", 1),
            (slice_, "bytes_served", two), (slice_, "requests", 1),
            (record, "count", 1), (record, "bytes", two),
        ]
        if remote:
            entries.append((inj, "units_served", nbytes))
            entries.append((inj, "requests", 1))
        return _atomic_plan(
            pipe, 1 / pipe.rate + 0.0, lat, inj, inj_service, nbytes,
            aunit, a_dur, slice_, timeline._starts, timeline._ends,
            two / slice_.rate, slice_.latency_ns,
            slice_.stall_period_ns, slice_.stall_duration_ns, two,
            record,
        ), _collapse(entries)
    # kind == OP_COMPUTE
    n_instrs = op.n_instrs
    return _compute_plan(
        pipe, n_instrs / pipe.rate + 0.0, n_instrs, record,
    ), _collapse([
        (pipe, "units_served", n_instrs), (pipe, "requests", 1),
        (record, "count", 1),
    ])


class _ReplayExhausted(Exception):
    """Control-flow sentinel: a program's trailing plan raises it.

    Replaces a per-event ``pc == end_pc`` bound check in the tight
    loop: the compiled plan list carries one extra closure past the
    last real op, and executing it raises this (prebuilt) instance.
    The handler performs the program-exhaustion event — the replay
    analogue of the final ``StopIteration`` resumption, counted
    identically on every engine.
    """


_EXHAUSTED = _ReplayExhausted()


def _exhaust_plan():
    def _run(now, live, exc=_EXHAUSTED):
        raise exc
    return _run


def compile_thread(sim, idx, program, core, mtp):
    """Compile one registered program into its replay closure list.

    Called by :meth:`Simulator.spawn_program` at spawn time (the
    resources every plan binds exist from ``__init__``), so ``run()``
    itself only replays — compilation is program setup, amortized like
    the generator drain in :meth:`OpProgram.from_generator`.  State
    accumulates on ``sim._vector_state``: the per-(op, core, mtp) plan
    cache, the deduplicated deferred-counter table (uids), and the
    per-thread rows the settle pass consumes.
    """
    state = sim._vector_state
    if state is None:
        state = sim._vector_state = {
            "cache": {}, "uids": [], "rows": [], "progs": {},
            "full": [], "taint": False,
        }
    cache_get = state["cache"].get
    cache = state["cache"]
    deferred_by_uid = state["uids"]
    exec_dma = sim._dispatch[DMAOp]
    if getattr(exec_dma, "plans", None) is None:
        # The DMA dispatch entry has been wrapped or replaced (the
        # mutation harness does this; so can any instrumentation).
        # Compiled plans would route around the wrapper, so leave the
        # thread uncompiled: run_vector then hands the whole run to the
        # fast loop, which keeps the wrapper on-path.
        return
    table = program.table
    kinds = program.kind_codes
    by_code = []
    uid_row = []
    for i, op in enumerate(table):
        key = (id(op), core, mtp)
        entry = cache_get(key)
        if entry is None:
            fn, deferred = _build_plan(sim, op, int(kinds[i]),
                                       core, mtp, exec_dma)
            if deferred is None:
                # Non-integral deferred amount somewhere: the whole
                # run must account live (all-or-nothing exactness).
                state["taint"] = True
                deferred = ()
            entry = (fn, deferred, len(deferred_by_uid))
            deferred_by_uid.append(deferred)
            cache[key] = entry
        by_code.append(entry[0])
        uid_row.append(entry[2])
    codes = program.step_codes()
    plan_list = [by_code[c] for c in codes]
    plan_list.append(_exhaust_plan())
    state["progs"][idx] = plan_list
    state["rows"].append((idx, program.codes, uid_row, len(table)))
    # Precompute this thread's full-run contribution to the per-uid
    # execution counts: when the run completes (every pc at its
    # program length — the overwhelmingly common case), the settle
    # pass skips the per-thread bincounts entirely.
    full = state["full"]
    grow = len(deferred_by_uid) - len(full)
    if grow > 0:
        full.extend([0] * grow)
    for c in codes:
        full[uid_row[c]] += 1


def _apply_deferred(defer_info, pcs):
    """Settle the batched counters from per-plan execution counts.

    For every program thread, ``pcs`` gives the executed step prefix —
    exact even when the run raised mid-stream (watchdog, dead DMA), so
    the settled totals match what the reference loop would have
    accumulated live up to the same event.  ``n * amount`` and the
    running totals are Python ints (arbitrary precision); the single
    float add per counter at the end is exact while the counter stays
    below 2**53, which is the same bound at which the reference's own
    per-event float accumulation would start rounding.
    """
    thread_rows, deferred_by_uid, full_counts = defer_info
    complete = True
    for idx, codes, _uid_row, _n_table in thread_rows:
        if pcs[idx] < len(codes):
            complete = False
            break
    if complete:
        # Every program ran to exhaustion (the common case): the
        # per-uid counts were accumulated once at compile time.
        uid_counts = full_counts
    else:
        uid_counts = _partial_uid_counts(
            thread_rows, pcs, len(deferred_by_uid)
        )
    totals = {}
    t_get = totals.get
    for uid, n in enumerate(uid_counts):
        if n:
            for obj, attr, amount in deferred_by_uid[uid]:
                key = (id(obj), attr)
                cur = t_get(key)
                if cur is None:
                    totals[key] = [obj, attr, n * amount]
                else:
                    cur[2] += n * amount
    for obj, attr, total in totals.values():
        setattr(obj, attr, getattr(obj, attr) + total)


def _partial_uid_counts(thread_rows, pcs, n_uids):
    """Per-uid execution counts from the executed step prefixes.

    The slow settle leg, needed only when a run raised mid-stream
    (watchdog, dead DMA): bincount each thread's executed prefix.
    """
    uid_counts = [0] * n_uids
    for idx, codes, uid_row, n_table in thread_rows:
        pc = pcs[idx]
        if not pc:
            continue
        if _np is not None and isinstance(codes, _np.ndarray):
            counts = _np.bincount(
                codes if pc >= len(codes) else codes[:pc],
                minlength=n_table,
            ).tolist()
        else:
            counts = [0] * n_table
            for c in codes[:pc]:
                counts[c] += 1
        for i in range(n_table):
            n = counts[i]
            if n:
                uid_counts[uid_row[i]] += n
    return uid_counts


def run_vector(sim):
    """Execute all spawned threads under the replay loop; returns ns.

    Replay needs every thread compiled and no ``_execute`` hook bound.
    Any other run — a sanitizer or tracer armed (``check_level >= 1``),
    a generator-driven thread, a wrapped DMA dispatch entry (which
    leaves threads uncompiled, see :func:`compile_thread`) — runs on
    :meth:`Simulator._run_fast`, which drives every program's generator
    view with identical results.
    """
    state = sim._vector_state
    n_threads = len(sim._threads)
    if (not sim.can_replay or state is None
            or len(state["progs"]) != n_threads):
        return sim._run_fast()
    progs = [state["progs"][idx] for idx in range(n_threads)]
    live = state["taint"]
    defer_info = (
        None if live else (state["rows"], state["uids"], state["full"])
    )
    return _replay_programs(sim, progs, [0] * n_threads, live, defer_info)


def _replay_programs(sim, progs, pcs, live, defer_info):
    """The replay loop: every thread is a compiled program.

    Each heap entry carries the thread's pc in the value slot (programs
    never consume a resumption value), programs are sentinel-terminated
    (:class:`_ReplayExhausted` replaces a per-event bound check), and
    the three watchdog comparisons share one fused guard.  Event order,
    event counts, watchdog trip points, and all accounting are
    identical to ``_run_fast`` — only the per-event constant drops.
    """
    cfg = sim.config
    slices = sim.slices
    pending = sim._heap
    # Spawn pushed (0.0, seq, idx, None) entries; rewrite the value
    # slot to the starting pc.  (when, seq) are untouched and seq is
    # unique, so the heap invariant is preserved.
    for i, entry in enumerate(pending):
        if entry[3] is not None:
            raise RuntimeError("vector replay requires a fresh event queue")
        pending[i] = (entry[0], entry[1], entry[2], 0)
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
            prog = progs[idx]
            try:
                while True:
                    events += 1
                    if not events & 2047:
                        # Same boundary as _run_fast: retire dead DRAM
                        # timeline history (result-transparent).
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
                    resume, completion = prog[pc](now, live)
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
                        prog = progs[idx]
                        continue
                    now = resume
            except _ReplayExhausted:
                # Program exhausted: the replay analogue of the final
                # StopIteration resumption — same event count.
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
            e_pc = entry[3]
            if e_pc:
                pcs[entry[2]] = e_pc
        if idx >= 0:
            pcs[idx] = pc
        sim._seq = seq
        sim.events = events
        sim._program_pcs = pcs
        if not live and defer_info:
            _apply_deferred(defer_info, pcs)
    sim.end_time = latest + cfg.launch_overhead_ns
    return sim.end_time
