/*
 * Native replay core of the PIUMA discrete-event simulator.
 *
 * Runs the op programs that repro.piuma.vector_engine compiles at spawn
 * time: one flat step array of plan ids, every thread's steps followed
 * by plan 0 (PLAN_END), and one numeric row per (op, core) plan.  Every
 * plan body is the reference handler's arithmetic transcribed
 * expression for expression (engine.py, resources.py), so results are
 * bit-identical to the reference loop given these rules:
 *
 *   - every float is a double and the library is built with
 *     -ffp-contract=off, so no multiply-add is fused;
 *   - integral byte counts, countdowns and request counts are int64, as
 *     Python keeps them as ints; mixed adds convert to double exactly as
 *     Python does;
 *   - counters accumulate per event in handler order, so every float
 *     sum rounds as the reference's does;
 *   - stall deferral uses fmod, which equals Python's float % because
 *     both operands are non-negative;
 *   - timeline compaction sums retired intervals left to right, as
 *     Timeline.compact does.
 *
 * The loop keeps the reference loop's exact (when, seq) event order, its
 * event counting, watchdog trip points and compaction cadence.  It never
 * calls back into Python: watchdog trips and a dead DMA engine are
 * returned as codes, and the caller raises.  All resource state lives in
 * caller-owned arrays; the only allocations are the event queue and two
 * small per-core tables, freed before returning.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Plan kinds: vector_engine.PLAN_*. */
enum {
    PLAN_END = 0,
    PLAN_PHASE = 1,
    PLAN_COMPUTE = 2,
    PLAN_LOAD = 3,
    PLAN_SEQUENTIAL = 4,
    PLAN_STORE = 5,
    PLAN_ATOMIC = 6,
    PLAN_DMA_INTERNAL = 7,
    PLAN_DMA = 8,
    PLAN_DMA_DEAD = 9
};

/* Return codes: vector_engine.RUN_*. */
enum {
    RUN_DONE = 0,
    RUN_MAX_EVENTS = 1,
    RUN_MAX_SIM_NS = 2,
    RUN_STALL = 3,
    RUN_DEAD_DMA = 4,
    RUN_NO_MEMORY = 5,
    RUN_OVERFLOW = 6
};

/* One plan (vector_engine.ReplayState): its integer row, padded to one
 * 64-byte cache line, and its float row: timing constants, then what
 * one execution adds to the counters (the pipeline's instructions, the
 * tag record's bytes, and the payload of an atomic or DMA, which its
 * atomic unit or DMA engine serves and an atomic injects). */
typedef struct {
    int64_t kind, core, record, t0, nt, flag, payload, pad;
} plan_i_t;

typedef struct {
    double dur, lat, x, inj;
    double units, bytes, amount;
} plan_f_t;

/* One slice a plan touches; `bytes` is what the slice serves, and what
 * a remote store or DMA target injects. */
typedef struct {
    int64_t slice, remote;
} target_i_t;

typedef struct {
    double lat, service, lat_ns, bytes;
} target_f_t;

/* FluidResource. */
typedef struct {
    double busy_until, busy_time, units_served;
    int64_t requests;
} fluid_t;

/* DMAEngine: staging and failure state, and its own counters. */
typedef struct {
    double inflight_bytes, backoff_ns, bytes_moved;
    int64_t fail_period, countdown, retries, ops;
} dma_t;

/* DRAMSlice, with its timeline's retired busy time. */
typedef struct {
    double retired_busy, priority_horizon, priority_busy;
    double stall_period, stall_duration, bytes_served;
    int64_t requests;
} slice_t;

/* TagStats. */
typedef struct {
    double wait_ns, bytes;
    int64_t count;
} tag_t;

typedef struct {
    /* Programs. */
    const int32_t *steps;
    const plan_i_t *plan_i;
    const plan_f_t *plan_f;
    const target_i_t *target_i;
    const target_f_t *target_f;
    const int64_t *thread_pipe;
    int64_t *pcs;               /* in: start pcs; out: final pcs */
    /* Event queue: in, the spawned entries; out, the entries left. */
    int64_t n_heap;
    double *heap_when;
    int64_t *heap_seq;
    int64_t *heap_idx;
    /* Resources: the fluid ones are the n_pipes pipelines, then per
     * core the injection ports, atomic units and DMA engines; the rest
     * have one row per core.  Tags are the plans' records. */
    int64_t n_cores;
    int64_t n_pipes;
    fluid_t *fluid;
    dma_t *dma;
    slice_t *slices;
    tag_t *tags;
    /* Slice timelines: slice s owns [tl_off[s], tl_off[s] + tl_cap[s]),
     * its live intervals start at tl_off[s]; tl_len is in/out. */
    double *tl_starts;
    double *tl_ends;
    const int64_t *tl_off;
    const int64_t *tl_cap;
    int64_t *tl_len;
    /* DMA staging queues, laid out like the timelines. */
    double *q_when;
    int64_t *q_bytes;
    const int64_t *q_off;
    const int64_t *q_cap;
    int64_t *q_len;
    /* Limits; 0 ceilings are passed as +inf. */
    double issue_cost;
    double max_events;
    double max_sim_ns;
    double stall_limit;
    /* In/out scalars. */
    double setup_end;
    int64_t seq;
    /* Out. */
    int64_t events;
    int64_t stalled;
    int64_t dead_core;
    double now;
    double latest;
} replay_args_t;

/* An event: the thread `idx` resumes at `when`; its pc is pcs[idx]. */
typedef struct {
    double when;
    int64_t seq, idx;
} entry_t;

typedef struct {
    double *s, *e;
    int64_t len, cap;
    int full;       /* set when the caller-sized region would overflow */
} timeline_t;

static inline int before(const entry_t *a, const entry_t *b)
{
    return a->when < b->when || (a->when == b->when && a->seq < b->seq);
}

/* The event queue is a 4-ary min-heap on (when, seq): half the depth of
 * a binary heap, and a node's children share a cache line or two.  Any
 * correct heap pops the same sequence, since seq is unique. */
static void sift_down(entry_t *heap, int64_t n, int64_t i)
{
    entry_t item = heap[i];
    for (;;) {
        int64_t child = 4 * i + 1;
        if (child >= n)
            break;
        int64_t best = child;
        int64_t last = child + 4 < n ? child + 4 : n;
        for (int64_t c = child + 1; c < last; c++)
            if (before(&heap[c], &heap[best]))
                best = c;
        if (!before(&heap[best], &item))
            break;
        heap[i] = heap[best];
        i = best;
    }
    heap[i] = item;
}

static void erase(double *s, double *e, int64_t n, int64_t lo, int64_t hi)
{
    memmove(s + lo, s + hi, (size_t)(n - hi) * sizeof(double));
    memmove(e + lo, e + hi, (size_t)(n - hi) * sizeof(double));
}

/* Timeline.backfill on parallel arrays: the earliest window of
 * `duration` at or after `arrival`, merged into its neighbors within
 * 1e-9, with the single cheapest array mutation.  Returns the granted
 * window's end. */
static double backfill(timeline_t *t, double arrival, double duration)
{
    double *s = t->s, *e = t->e;
    int64_t n = t->len;
    /* bisect_right(starts, arrival), without data-dependent branches. */
    int64_t index = 0;
    if (n) {
        const double *base = s;
        for (int64_t len = n; len > 1; len -= len / 2)
            base = base[len / 2] <= arrival ? base + len / 2 : base;
        index = (base - s) + (*base <= arrival);
    }
    double candidate;
    if (index > 0) {
        double prev_end = e[index - 1];
        candidate = prev_end > arrival ? prev_end : arrival;
    } else {
        candidate = arrival;
    }
    while (index < n) {
        if (s[index] - candidate >= duration)
            break;
        candidate = e[index];
        index++;
    }
    double end = candidate + duration;
    double merged = end;
    int64_t j = index;
    while (j < n && s[j] <= merged + 1e-9) {
        if (e[j] > merged)
            merged = e[j];
        j++;
    }
    if (index > 0 && candidate <= e[index - 1] + 1e-9) {
        if (merged > e[index - 1])
            e[index - 1] = merged;
        if (j > index) {
            erase(s, e, n, index, j);
            t->len = n - (j - index);
        }
    } else if (j > index) {
        s[index] = candidate;
        e[index] = merged;
        if (j > index + 1) {
            erase(s, e, n, index + 1, j);
            t->len = n - (j - index - 1);
        }
    } else if (n < t->cap) {
        size_t tail = (size_t)(n - index) * sizeof(double);
        memmove(s + index + 1, s + index, tail);
        memmove(e + index + 1, e + index, tail);
        s[index] = candidate;
        e[index] = end;
        t->len = n + 1;
    } else {
        t->full = 1;
    }
    return end;
}

/* Timeline.allocate: the saturated-FIFO fast path, else backfill. */
static inline double allocate(timeline_t *t, double arrival, double service)
{
    int64_t n = t->len;
    if (n && arrival >= t->s[n - 1]) {
        double last_end = t->e[n - 1];
        double begin = last_end > arrival ? last_end : arrival;
        double end = begin + service;
        if (begin <= last_end + 1e-9) {
            if (end > last_end)
                t->e[n - 1] = end;
        } else if (n < t->cap) {
            t->s[n] = begin;
            t->e[n] = end;
            t->len = n + 1;
        } else {
            t->full = 1;
        }
        return end;
    }
    return backfill(t, arrival, service);
}

/* FluidResource.reserve: `units` arriving at `now`, served for `dur`
 * ns.  Returns the end of service. */
static inline double reserve(fluid_t *r, double now, double dur,
                             double units)
{
    double start = now > r->busy_until ? now : r->busy_until;
    double end = start + dur;
    r->busy_until = end;
    r->busy_time += dur;
    r->units_served += units;
    r->requests++;
    return end;
}

/* DRAMSlice._stall_defer, applied when the slice has stall windows. */
static inline double stall_defer(const slice_t *sl, double now)
{
    if (sl->stall_period == 0.0)
        return now;
    double phase = fmod(now, sl->stall_period);
    if (phase < sl->stall_duration)
        return now + (sl->stall_duration - phase);
    return now;
}

/* DRAMSlice.bulk_request past the stall deferral: the slice's counters
 * and its timeline.  Returns the end of service. */
static inline double serve(slice_t *sl, timeline_t *t, double arrival,
                           const target_f_t *tf)
{
    sl->bytes_served += tf->bytes;
    sl->requests++;
    return allocate(t, arrival, tf->service);
}

/* A flaky engine fails every fail_period-th descriptor, retried after a
 * backoff the issuing thread observes.  Returns the issue time. */
static inline double retry(dma_t *d, double issued)
{
    if (d->fail_period && !--d->countdown) {
        d->countdown = d->fail_period;
        d->retries++;
        issued += d->backoff_ns;
    }
    return issued;
}

/* Timeline.compact: retire intervals ending before `cutoff`. */
static void compact(timeline_t *t, slice_t *sl, double cutoff)
{
    int64_t n = t->len, drop = 0;
    while (drop < n && t->e[drop] < cutoff)
        drop++;
    if (drop) {
        double retired = 0.0;
        for (int64_t i = 0; i < drop; i++)
            retired += t->e[i] - t->s[i];
        sl->retired_busy += retired;
        erase(t->s, t->e, n, 0, drop);
        t->len = n - drop;
    }
}

/* Exported for the backfill differential test. */
double piuma_backfill(double *starts, double *ends, int64_t *len,
                      int64_t cap, double arrival, double duration)
{
    timeline_t t = {starts, ends, *len, cap, 0};
    double end = backfill(&t, arrival, duration);
    *len = t.len;
    return t.full ? NAN : end;
}

int piuma_replay(replay_args_t *a)
{
    const int32_t *steps = a->steps;
    const plan_i_t *plan_i = a->plan_i;
    const plan_f_t *plan_f = a->plan_f;
    const target_i_t *target_i = a->target_i;
    const target_f_t *target_f = a->target_f;
    const int64_t *thread_pipe = a->thread_pipe;
    int64_t *pcs = a->pcs;
    int64_t n_cores = a->n_cores;
    fluid_t *pipes = a->fluid;
    fluid_t *inj = pipes + a->n_pipes;
    fluid_t *atomic = inj + n_cores;
    fluid_t *eng = atomic + n_cores;
    dma_t *dma = a->dma;
    slice_t *slices = a->slices;
    tag_t *tags = a->tags;
    double *q_when = a->q_when;
    int64_t *q_bytes = a->q_bytes;
    const double issue_cost = a->issue_cost;
    const double max_events = a->max_events;
    const double max_sim_ns = a->max_sim_ns;
    const double stall_limit = a->stall_limit;

    int64_t n = a->n_heap;
    entry_t *heap = malloc((size_t)(n ? n : 1) * sizeof(entry_t));
    timeline_t *tl = malloc((size_t)(n_cores ? n_cores : 1)
                            * sizeof(timeline_t));
    int64_t *q_head = calloc((size_t)(n_cores ? n_cores : 1),
                             sizeof(int64_t));
    if (!heap || !tl || !q_head) {
        free(heap);
        free(tl);
        free(q_head);
        return RUN_NO_MEMORY;
    }
    for (int64_t i = 0; i < n; i++) {
        heap[i].when = a->heap_when[i];
        heap[i].seq = a->heap_seq[i];
        heap[i].idx = a->heap_idx[i];
    }
    for (int64_t i = (n - 2) / 4; i >= 0 && n > 1; i--)
        sift_down(heap, n, i);
    for (int64_t c = 0; c < n_cores; c++) {
        tl[c].s = a->tl_starts + a->tl_off[c];
        tl[c].e = a->tl_ends + a->tl_off[c];
        tl[c].len = a->tl_len[c];
        tl[c].cap = a->tl_cap[c];
        tl[c].full = 0;
    }
    int full = 0;

    int code = RUN_DONE;
    int64_t events = 0, stalled = 0, seq = a->seq;
    int64_t idx = -1, pc = 0;
    double now = 0.0, latest = 0.0, last_now = -1.0;
    double setup_end = a->setup_end;

    while (n) {
        entry_t top = heap[0];
        heap[0] = heap[--n];
        if (n)
            sift_down(heap, n, 0);
        now = top.when;
        idx = top.idx;
        pc = pcs[idx];
        fluid_t *pipe = pipes + thread_pipe[idx];
        for (;;) {
            events++;
            if (!(events & 2047)) {
                double cutoff = now - 1.0;
                for (int64_t c = 0; c < n_cores; c++)
                    compact(&tl[c], &slices[c], cutoff);
            }
            if ((double)events > max_events || now > max_sim_ns
                    || now == last_now) {
                if ((double)events > max_events) {
                    code = RUN_MAX_EVENTS;
                    goto done;
                }
                if (now > max_sim_ns) {
                    code = RUN_MAX_SIM_NS;
                    goto done;
                }
                stalled++;
                if ((double)stalled > stall_limit) {
                    code = RUN_STALL;
                    goto done;
                }
            } else {
                stalled = 0;
                last_now = now;
            }
            const int32_t uid = steps[pc];
            const plan_i_t *pi = plan_i + uid;
            const plan_f_t *pf = plan_f + uid;
            double resume, completion;
            switch (pi->kind) {
            case PLAN_END:
                /* Program exhausted: the final StopIteration event. */
                pcs[idx] = pc;
                if (now > latest)
                    latest = now;
                goto next_thread;
            case PLAN_PHASE:
                if (now > setup_end)
                    setup_end = now;
                resume = completion = now;
                break;
            case PLAN_COMPUTE:
                resume = completion = reserve(pipe, now, pf->dur, pf->units);
                break;
            case PLAN_LOAD: {
                const target_f_t *tf = target_f + pi->t0;
                int64_t s = target_i[pi->t0].slice;
                slice_t *sl = slices + s;
                double issued = reserve(pipe, now, pf->dur, pf->units);
                double arrival = stall_defer(sl, issued + pf->lat);
                double end = serve(sl, &tl[s], arrival, tf);
                double done_t;
                if (pi->flag) {
                    double horizon = sl->priority_horizon;
                    double pstart = arrival > horizon ? arrival : horizon;
                    double pend = pstart + tf->service;
                    sl->priority_horizon = pend;
                    sl->priority_busy += tf->service;
                    done_t = pend + tf->lat_ns + pf->x;
                } else {
                    done_t = end + tf->lat_ns + pf->x;
                }
                tags[pi->record].wait_ns += done_t - issued;
                resume = completion = done_t;
                break;
            }
            case PLAN_SEQUENTIAL: {
                double issued = reserve(pipe, now, pf->dur, pf->units);
                double served = issued;
                for (int64_t t = pi->t0; t < pi->t0 + pi->nt; t++) {
                    const target_f_t *tf = target_f + t;
                    slice_t *sl = slices + target_i[t].slice;
                    double end = serve(sl, &tl[target_i[t].slice],
                                       stall_defer(sl, issued + tf->lat), tf);
                    double done_t = end + tf->lat_ns + tf->lat;
                    if (done_t > served)
                        served = done_t;
                }
                /* x: the delay of the remaining dependent round trips. */
                double done_t = served + pf->x;
                tags[pi->record].wait_ns += done_t - issued;
                resume = completion = done_t;
                break;
            }
            case PLAN_STORE: {
                double issued = reserve(pipe, now, pf->dur, pf->units);
                double done_t = issued;
                for (int64_t t = pi->t0; t < pi->t0 + pi->nt; t++) {
                    const target_f_t *tf = target_f + t;
                    slice_t *sl = slices + target_i[t].slice;
                    double arrival = issued;
                    if (target_i[t].remote)
                        arrival = reserve(inj + pi->core, issued, pf->inj,
                                          tf->bytes) + tf->lat;
                    double end = serve(sl, &tl[target_i[t].slice],
                                       stall_defer(sl, arrival), tf)
                                 + tf->lat_ns;
                    if (end > done_t)
                        done_t = end;
                }
                resume = issued;
                completion = done_t;
                break;
            }
            case PLAN_ATOMIC: {
                const target_f_t *tf = target_f + pi->t0;
                int64_t s = target_i[pi->t0].slice;
                double issued = reserve(pipe, now, pf->dur, pf->units);
                double arrival = issued;
                if (pi->flag)
                    arrival = reserve(inj + pi->core, issued, pf->inj,
                                      pf->amount) + pf->lat;
                double unit_done = reserve(atomic + s, arrival, pf->x,
                                           pf->amount);
                double end = serve(slices + s, &tl[s],
                                   stall_defer(slices + s, unit_done), tf);
                resume = issued;
                completion = end + tf->lat_ns;
                break;
            }
            case PLAN_DMA_INTERNAL: {
                int64_t c = pi->core;
                double issued = retry(dma + c, reserve(pipe, now, issue_cost,
                                                       pf->units));
                completion = reserve(eng + c, issued, pf->dur, pf->amount);
                dma[c].ops++;
                dma[c].bytes_moved += pf->amount;
                resume = issued;
                break;
            }
            case PLAN_DMA: {
                int64_t c = pi->core;
                int64_t nbytes = pi->payload;
                double issued = retry(dma + c, reserve(pipe, now, issue_cost,
                                                       pf->units));
                /* Staging-buffer credits. */
                double gate = issued;
                double inflight = dma[c].inflight_bytes;
                double *qw = q_when + a->q_off[c];
                int64_t *qb = q_bytes + a->q_off[c];
                int64_t head = q_head[c], len = a->q_len[c];
                while (len && qw[head] <= gate) {
                    inflight -= (double)qb[head];
                    head++;
                    len--;
                }
                while (len && inflight + (double)nbytes > pf->x) {
                    double retired = qw[head];
                    inflight -= (double)qb[head];
                    head++;
                    len--;
                    if (retired > gate)
                        gate = retired;
                }
                double b = eng[c].busy_until;
                double start = gate > b ? gate : b;
                reserve(eng + c, start, pf->dur, pf->amount);
                dma[c].ops++;
                dma[c].bytes_moved += pf->amount;
                completion = start;
                for (int64_t t = pi->t0; t < pi->t0 + pi->nt; t++) {
                    const target_f_t *tf = target_f + t;
                    slice_t *sl = slices + target_i[t].slice;
                    double arrival = start;
                    if (target_i[t].remote)
                        arrival = reserve(inj + c, start, pf->inj, tf->bytes)
                                  + tf->lat;
                    double end = serve(sl, &tl[target_i[t].slice],
                                       stall_defer(sl, arrival), tf)
                                 + tf->lat_ns;
                    if (end > completion)
                        completion = end;
                }
                /* Append (completion, nbytes), first sliding the live
                 * entries to the region start when the tail is at the
                 * end or the dead prefix outgrows them. */
                if (head + len == a->q_cap[c] || (head > 64 && head > len)) {
                    memmove(qw, qw + head, (size_t)len * sizeof(double));
                    memmove(qb, qb + head, (size_t)len * sizeof(int64_t));
                    head = 0;
                }
                if (len < a->q_cap[c]) {
                    qw[head + len] = completion;
                    qb[head + len] = nbytes;
                    len++;
                } else {
                    full = 1;
                }
                q_head[c] = head;
                a->q_len[c] = len;
                dma[c].inflight_bytes = inflight + (double)nbytes;
                resume = issued;
                break;
            }
            default:    /* PLAN_DMA_DEAD: the issue slot, then the trip */
                reserve(pipe, now, issue_cost, pf->units);
                a->dead_core = pi->core;
                code = RUN_DEAD_DMA;
                goto done;
            }
            if (pi->kind != PLAN_PHASE) {
                tags[pi->record].count++;
                tags[pi->record].bytes += pf->bytes;
            }
            pc++;
            if (completion > latest)
                latest = completion;
            if (n && heap[0].when <= resume) {
                /* Thread switch: the pushed entry never beats the head
                 * (resume >= its when, larger seq on ties), so replacing
                 * the head and sifting down is push-then-pop. */
                entry_t next = heap[0];
                heap[0].when = resume;
                heap[0].seq = seq++;
                heap[0].idx = idx;
                pcs[idx] = pc;
                sift_down(heap, n, 0);
                now = next.when;
                idx = next.idx;
                pc = pcs[idx];
                pipe = pipes + thread_pipe[idx];
                continue;
            }
            now = resume;
        }
next_thread:
        ;
    }

done:
    for (int64_t i = 0; i < n; i++) {
        a->heap_when[i] = heap[i].when;
        a->heap_seq[i] = heap[i].seq;
        a->heap_idx[i] = heap[i].idx;
    }
    if (idx >= 0)
        pcs[idx] = pc;
    for (int64_t c = 0; c < n_cores; c++) {
        a->tl_len[c] = tl[c].len;
        full |= tl[c].full;
        int64_t head = q_head[c];
        if (head) {
            double *qw = q_when + a->q_off[c];
            int64_t *qb = q_bytes + a->q_off[c];
            memmove(qw, qw + head, (size_t)a->q_len[c] * sizeof(double));
            memmove(qb, qb + head, (size_t)a->q_len[c] * sizeof(int64_t));
        }
    }
    a->n_heap = n;
    a->setup_end = setup_end;
    a->seq = seq;
    a->events = events;
    a->stalled = stalled;
    a->now = now;
    a->latest = latest;
    free(heap);
    free(tl);
    free(q_head);
    if (full)
        return RUN_OVERFLOW;
    return code;
}
