"""Host performance of the DES engine across its main loops.

This bench measures how fast the *simulator itself* runs on the host
(events per wall-clock second), not anything about PIUMA.  It executes
the Fig 5 medium point (`products` window, K=256, 8 cores) through
every main loop the engine ships, selected by the unified
``PIUMAConfig.engine`` knob:

* ``fast``: peek-ahead continuation over the binary heap —
  type-dispatch with a fused DMA closure, per-op execution plans,
  timeline compaction, fused ``heappushpop`` switch;
* ``vector``: compiled op-program replay
  (``repro.piuma.vector_engine``) — every (op, core, mtp) plan is
  compiled at ``spawn_program`` time into a constant-bound closure,
  ``run()`` only replays them in exact (when, seq) event order with
  deferred integral counters settled post-run;
* ``reference``: the plain pop/execute/push loop kept as the
  semantics oracle.

All engines must produce bit-identical simulation results (also
enforced by ``tests/piuma/test_engine_fastpath.py``,
``tests/piuma/test_vector_engine.py`` and ``repro check``); here the
bench additionally guards the performance relationships.  Thresholds
are *relative* ratios measured in the same process with the rounds
interleaved round-robin across engines — host-frequency drift during
the bench then hits every engine equally instead of biasing whichever
ran last — so the guards are machine-independent and tolerant of slow
CI hosts.  Each engine reports the *median* of its rounds (stable
against one noisy round in either direction, unlike best-of) and the
raw per-round samples go into the JSON artifact so a flaky CI run can
be diagnosed from the record alone.

On the vector engine's expectations, honestly: moving plan compilation
to spawn time leaves ``run()`` a pure replay loop, measured ~1.85-2.05x
the fast path on this point (CPython 3.11) — short of the 2.5x this
engine was sized for.  The measured decomposition (DESIGN.md section
8) shows why: of the ~2.05 us/event replay cost, ~0.55 us is the
per-switch ``heappushpop`` on a ~500-entry queue (the exact
(when, seq) total order is the bit-identity contract, so the switch
cannot be elided) and ~1 us is the DRAM-timeline backfill/merge
charges of the striped DMAs (interval placement feeds back into
simulated time, so it cannot be batched out of the loop).  Both costs
are semantic, not overhead.  The guard asserts a 1.7x floor on the
median per-round ratio — high enough that losing the deferred-counter
machinery, spawn-time plan compilation, or the sentinel-terminated
tight loop each trips it immediately, low enough that a noisy shared
CI host does not — and the recorded columns track the real ratio.

The reference loop shares the kernel-side optimizations (op interning,
vectorized owner-core resolution, memoized topology tables), so the
fast/reference ratio *understates* the improvement over the pre-PR
engine; the recorded baseline below is the pre-PR engine measured on
the same point (best of 5 ``Simulator.run`` walls, same host class).
"""

import json
import statistics
import time

from conftest import OUT_DIR, PRODUCTS_WINDOW

from repro.graphs.datasets import get_dataset
from repro.piuma import simulate_spmm
from repro.piuma.config import PIUMAConfig

K = 256
N_CORES = 8
ROUNDS = 7

#: Pre-PR engine on this point (commit before the fast-path work):
#: best-of-5 ``Simulator.run`` wall seconds and the derived events/s,
#: measured with the same methodology as this bench.  Recorded — not
#: re-measured — because the old engine no longer exists in the tree.
PRE_PR_BASELINE = {
    "host_wall_s": 0.8151,
    "events_per_s": 67575,
    "method": "best-of-5 run() wall of the pre-fast-path engine, "
              "products 16384/seed7 K=256 n_cores=8",
}

#: Engines benched, in round order (the unified config knob).  The
#: vector engine runs immediately after the fast path inside every
#: round so the guarded pair is measured back-to-back — the tightest
#: pairing against host-frequency drift.
BACKENDS = ("fast", "vector", "reference")

#: Floor on the median per-round vector/fast ratio (see docstring).
VECTOR_VS_FAST_FLOOR = 1.7


def _run_once(adj, engine, check_level=0):
    return simulate_spmm(
        adj, K, PIUMAConfig(
            n_cores=N_CORES, check_level=check_level, engine=engine,
        )
    )


def _signature(result):
    return (
        result.sim_time_ns, result.gflops, result.memory_utilization,
        result.achieved_bandwidth, result.events, result.tag_stats,
    )


def test_host_perf(emit):
    adj = get_dataset("products").materialize(**{
        "max_vertices": PRODUCTS_WINDOW["max_vertices"],
        "seed": PRODUCTS_WINDOW["seed"],
    })
    started = time.perf_counter()
    # One untimed warmup pass per engine (JIT-free, but it faults in
    # code objects, datasets, and the branch predictor), then ROUNDS
    # timed rounds interleaved round-robin so host drift is unbiased.
    results = {}
    for engine in BACKENDS:
        results[engine] = _run_once(adj, engine)
    checked = _run_once(adj, "fast", check_level=1)
    # The checked run rides in the same rounds as the engines so every
    # guard below is a same-round paired ratio — a host that slows down
    # halfway through the bench slows both sides of each pair.
    samples = {engine: [] for engine in BACKENDS}
    checked_samples = []
    for _ in range(ROUNDS):
        for engine in BACKENDS:
            samples[engine].append(_run_once(adj, engine).host_wall_s)
        checked_samples.append(
            _run_once(adj, "fast", check_level=1).host_wall_s
        )
    wall = time.perf_counter() - started

    # Bit-identical simulation results on every engine.
    fast = results["fast"]
    for engine, result in results.items():
        assert _signature(result) == _signature(fast), (
            f"{engine} engine diverged from the fast path"
        )

    # The sanitizer observes, it never perturbs: level 1 must be
    # bit-identical to the unchecked run.
    assert _signature(checked) == _signature(fast)

    medians = {
        engine: statistics.median(rounds)
        for engine, rounds in samples.items()
    }
    checked_s = statistics.median(checked_samples)
    columns = {
        engine: {
            "engine": engine,
            "host_wall_s": medians[engine],
            "events_per_s": fast.events / medians[engine],
            "rounds_host_wall_s": samples[engine],
        }
        for engine in BACKENDS
    }
    fast_evs = columns["fast"]["events_per_s"]
    vec_evs = columns["vector"]["events_per_s"]
    ref_evs = columns["reference"]["events_per_s"]

    def vs_fast(engine):
        # Rounds are interleaved, so pairing each engine round with
        # the fast round of the same sweep cancels host-frequency
        # drift; the median of the per-round ratios is far more stable
        # than a ratio of independent medians.
        ratios = [
            f / b for f, b in zip(samples["fast"], samples[engine])
        ]
        return statistics.median(ratios)

    vs_ref = 1 / vs_fast("reference")
    vec_vs_fast = vs_fast("vector")
    vs_pre_pr = fast_evs / PRE_PR_BASELINE["events_per_s"]
    check_overhead = statistics.median(
        [c / f for c, f in zip(checked_samples, samples["fast"])]
    )

    payload = {
        "point": {
            "dataset": "products",
            **PRODUCTS_WINDOW,
            "embedding_dim": K,
            "n_cores": N_CORES,
            "rounds": ROUNDS,
            "method": "median of interleaved rounds, warmup excluded",
        },
        "events": fast.events,
        "sim_time_ns": fast.sim_time_ns,
        **columns,
        "checked_level1": {
            "engine": "fast",
            "host_wall_s": checked_s,
            "events_per_s": checked.events / checked_s,
            "rounds_host_wall_s": checked_samples,
        },
        "check_level1_overhead": check_overhead,
        "fast_vs_reference": vs_ref,
        "vector_vs_fast": vec_vs_fast,
        "pre_pr_baseline": PRE_PR_BASELINE,
        "fast_vs_pre_pr": vs_pre_pr,
        "bench_wall_s": wall,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_host_perf.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    emit(
        "host_perf",
        "\n".join([
            f"point: products {PRODUCTS_WINDOW} K={K} n_cores={N_CORES} "
            f"({fast.events:,} DES events, median of {ROUNDS} "
            "interleaved rounds)",
            f"fast (heap):      {medians['fast']:.4f}s  "
            f"({fast_evs:,.0f} events/s)",
            f"vector replay:    {medians['vector']:.4f}s  "
            f"({vec_evs:,.0f} events/s)",
            f"reference:        {medians['reference']:.4f}s  "
            f"({ref_evs:,.0f} events/s)",
            f"check_level=1:    {checked_s:.4f}s  "
            f"({check_overhead:.3f}x the unchecked fast path)",
            f"fast vs reference: {vs_ref:.2f}x",
            f"vector vs fast: {vec_vs_fast:.2f}x",
            f"fast vs pre-PR engine (recorded "
            f"{PRE_PR_BASELINE['events_per_s']:,} ev/s): {vs_pre_pr:.2f}x",
            f"[written to {path}]",
        ]),
    )

    # Tolerant, machine-independent regression guard: the fast path
    # must beat the reference loop measured on the same host in the
    # same process.  The margin is deliberately thin — the reference
    # loop shares the closure/interning/compaction work, so the
    # loop-only delta is ~1.15x and CI noise must not flake the lane.
    # (The committed JSON tracks the absolute numbers; asserting those
    # would flake across CI machines.)
    assert vs_ref >= 1.05, (
        f"fast path only {vs_ref:.2f}x the reference loop "
        f"({fast_evs:,.0f} vs {ref_evs:,.0f} events/s)"
    )

    # The vector replay engine must hold its measured lead over the
    # fast path (median per-round ratio of back-to-back runs, same
    # process).  Losing spawn-time plan compilation, the deferred
    # counters, or the sentinel-terminated tight loop each costs well
    # over this margin; see DESIGN.md section 8 for the decomposition.
    assert vec_vs_fast >= VECTOR_VS_FAST_FLOOR, (
        f"vector engine at {vec_vs_fast:.2f}x the fast path "
        f"({vec_evs:,.0f} vs {fast_evs:,.0f} events/s) — below the "
        f"{VECTOR_VS_FAST_FLOOR}x floor"
    )

    # The level-1 sanitizer promises <10% hot-loop overhead (DESIGN.md,
    # "Runtime invariant sanitizer").  Same-process ratio, so the bound
    # is machine-independent; measured ~1.01x, leaving real headroom.
    assert check_overhead < 1.10, (
        f"check_level=1 costs {check_overhead:.3f}x the unchecked fast "
        f"path ({checked_s:.4f}s vs {medians['fast']:.4f}s) — over the "
        "10% budget"
    )
