"""Host performance of the DES across its main loops.

This bench measures how fast the *simulator itself* runs on the host
(events per wall-clock second), not anything about PIUMA.  It executes
the Fig 5 medium point (`products` window, K=256, 8 cores) through
every main loop the engine ships:

* ``replay``: the default engine (``PIUMAConfig()``) at
  ``check_level=0``, which replays op programs compiled at
  ``spawn_program`` time (``repro.piuma.vector_engine``) — one
  constant-bound closure per (op, core), ``run()`` only replays them in
  exact (when, seq) event order, deferred integral counters settled
  post-run;
* ``peek-ahead``: the same point with every thread spawned as a
  generator (``repro.testing.oracle.run_peek_ahead``), so the default
  engine runs ``Simulator._run_fast`` — type-dispatch with a fused DMA
  closure, per-op execution plans, timeline compaction, fused
  ``heappushpop`` switch.  It is the loop every run the engine cannot
  replay takes, checked runs included;
* ``reference``: the plain pop/execute/push loop kept as the
  semantics oracle.

All loops must produce bit-identical simulation results (also enforced
by ``tests/piuma/test_engine_fastpath.py``,
``tests/piuma/test_vector_engine.py`` and ``repro check``); here the
bench additionally guards the performance relationships.  Thresholds
are *relative* ratios measured in the same process with the rounds
interleaved round-robin across loops — host-frequency drift during
the bench then hits every loop equally instead of biasing whichever
ran last — so the guards are machine-independent and tolerant of slow
CI hosts.  Each loop reports the *median* of its rounds (stable
against one noisy round in either direction, unlike best-of) and the
raw per-round samples go into the JSON artifact so a flaky CI run can
be diagnosed from the record alone.

Each column times ``Simulator.run`` (``host_wall_s``).  Replay moves
the op-stream drain and plan compilation out of ``run()`` into spawn
time, so the artifact also records each loop's whole-point wall
(``point_wall_s``: work split, spawn, drain, compile, run, projection).

On replay's expectations, honestly: ``run()`` measures ~1.85-2.05x
the peek-ahead loop on this point (CPython 3.11) — short of the 2.5x
the replay loop was sized for.  The measured decomposition (DESIGN.md
section 8) shows why: of the ~2.05 us/event replay cost, ~0.55 us is
the per-switch ``heappushpop`` on a ~500-entry queue (the exact
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
peek-ahead/reference ratio *understates* the improvement over the
pre-PR engine; the recorded baseline below is the pre-PR engine
measured on the same point (best of 5 ``Simulator.run`` walls, same
host class).
"""

import json
import statistics
import time

from conftest import OUT_DIR, PRODUCTS_WINDOW

from repro.graphs.datasets import get_dataset
from repro.piuma import simulate_spmm
from repro.piuma.config import PIUMAConfig
from repro.testing.oracle import run_peek_ahead

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

#: Loops benched, in round order.  Replay runs immediately after the
#: peek-ahead loop inside every round so the guarded pair is measured
#: back-to-back — the tightest pairing against host-frequency drift.
LOOPS = ("peek-ahead", "replay", "reference")

#: Floor on the median per-round replay/peek-ahead ratio (see
#: docstring).
REPLAY_VS_PEEK_AHEAD_FLOOR = 1.7


def _run_once(adj, loop, check_level=0):
    """One point on ``loop``; returns ``(KernelResult, point wall s)``."""
    config = PIUMAConfig(
        n_cores=N_CORES, check_level=check_level,
        engine="reference" if loop == "reference" else "fast",
    )
    started = time.perf_counter()
    if loop == "peek-ahead":
        result = run_peek_ahead(adj, K, config)
    else:
        result = simulate_spmm(adj, K, config)
    return result, time.perf_counter() - started


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
    # One untimed warmup pass per loop (JIT-free, but it faults in
    # code objects, datasets, and the branch predictor), then ROUNDS
    # timed rounds interleaved round-robin so host drift is unbiased.
    results = {loop: _run_once(adj, loop)[0] for loop in LOOPS}
    # A checked run cannot replay: it takes the peek-ahead loop with
    # the sanitizer's _execute hook bound.
    checked = _run_once(adj, "replay", check_level=1)[0]
    # The checked run rides in the same rounds as the loops so every
    # guard below is a same-round paired ratio — a host that slows down
    # halfway through the bench slows both sides of each pair.
    samples = {loop: [] for loop in LOOPS}
    walls = {loop: [] for loop in LOOPS}
    checked_samples = []
    for _ in range(ROUNDS):
        for loop in LOOPS:
            result, wall = _run_once(adj, loop)
            samples[loop].append(result.host_wall_s)
            walls[loop].append(wall)
        checked_samples.append(
            _run_once(adj, "replay", check_level=1)[0].host_wall_s
        )
    wall = time.perf_counter() - started

    # Bit-identical simulation results in every loop.
    base = results["replay"]
    for loop, result in results.items():
        assert _signature(result) == _signature(base), (
            f"{loop} loop diverged from replay"
        )

    # The sanitizer observes, it never perturbs: level 1 must be
    # bit-identical to the unchecked run.
    assert _signature(checked) == _signature(base)

    medians = {
        loop: statistics.median(rounds) for loop, rounds in samples.items()
    }
    checked_s = statistics.median(checked_samples)
    columns = {
        loop: {
            "loop": loop,
            "host_wall_s": medians[loop],
            "events_per_s": base.events / medians[loop],
            "point_wall_s": statistics.median(walls[loop]),
            "rounds_host_wall_s": samples[loop],
            "rounds_point_wall_s": walls[loop],
        }
        for loop in LOOPS
    }
    peek_evs = columns["peek-ahead"]["events_per_s"]
    replay_evs = columns["replay"]["events_per_s"]
    ref_evs = columns["reference"]["events_per_s"]

    def vs_peek_ahead(loop):
        # Rounds are interleaved, so pairing each loop's round with
        # the peek-ahead round of the same sweep cancels host-frequency
        # drift; the median of the per-round ratios is far more stable
        # than a ratio of independent medians.
        ratios = [
            p / b for p, b in zip(samples["peek-ahead"], samples[loop])
        ]
        return statistics.median(ratios)

    peek_vs_ref = 1 / vs_peek_ahead("reference")
    replay_vs_peek = vs_peek_ahead("replay")
    vs_pre_pr = peek_evs / PRE_PR_BASELINE["events_per_s"]
    # Measured against the loop a checked run takes.
    check_overhead = statistics.median(
        [c / p for c, p in zip(checked_samples, samples["peek-ahead"])]
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
        "events": base.events,
        "sim_time_ns": base.sim_time_ns,
        "loops": columns,
        "checked_level1": {
            "loop": "peek-ahead",
            "host_wall_s": checked_s,
            "events_per_s": checked.events / checked_s,
            "rounds_host_wall_s": checked_samples,
        },
        "check_level1_overhead_vs_peek_ahead": check_overhead,
        "peek_ahead_vs_reference": peek_vs_ref,
        "replay_vs_peek_ahead": replay_vs_peek,
        "pre_pr_baseline": PRE_PR_BASELINE,
        "peek_ahead_vs_pre_pr": vs_pre_pr,
        "bench_wall_s": wall,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_host_perf.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def row(label, loop):
        column = columns[loop]
        return (f"{label:<18}{column['host_wall_s']:.4f}s  "
                f"({column['events_per_s']:,.0f} events/s; whole point "
                f"{column['point_wall_s']:.4f}s)")

    emit(
        "host_perf",
        "\n".join([
            f"point: products {PRODUCTS_WINDOW} K={K} n_cores={N_CORES} "
            f"({base.events:,} DES events, median of {ROUNDS} "
            "interleaved rounds)",
            row("replay (default):", "replay"),
            row("peek-ahead:", "peek-ahead"),
            row("reference:", "reference"),
            f"check_level=1:    {checked_s:.4f}s  "
            f"({check_overhead:.3f}x the unchecked peek-ahead loop)",
            f"replay vs peek-ahead: {replay_vs_peek:.2f}x",
            f"peek-ahead vs reference: {peek_vs_ref:.2f}x",
            f"peek-ahead vs pre-PR engine (recorded "
            f"{PRE_PR_BASELINE['events_per_s']:,} ev/s): {vs_pre_pr:.2f}x",
            f"[written to {path}]",
        ]),
    )

    # Tolerant, machine-independent regression guard: the peek-ahead
    # loop must beat the reference loop measured on the same host in
    # the same process.  The margin is deliberately thin — the
    # reference loop shares the closure/interning/compaction work, so
    # the loop-only delta is ~1.15x and CI noise must not flake the
    # lane.  (The committed JSON tracks the absolute numbers; asserting
    # those would flake across CI machines.)
    assert peek_vs_ref >= 1.05, (
        f"peek-ahead loop only {peek_vs_ref:.2f}x the reference loop "
        f"({peek_evs:,.0f} vs {ref_evs:,.0f} events/s)"
    )

    # Replay must hold its measured lead over the peek-ahead loop
    # (median per-round ratio of back-to-back runs, same process).
    # Losing spawn-time plan compilation, the deferred counters, or
    # the sentinel-terminated tight loop each costs well over this
    # margin; see DESIGN.md section 8 for the decomposition.
    assert replay_vs_peek >= REPLAY_VS_PEEK_AHEAD_FLOOR, (
        f"replay at {replay_vs_peek:.2f}x the peek-ahead loop "
        f"({replay_evs:,.0f} vs {peek_evs:,.0f} events/s) — below the "
        f"{REPLAY_VS_PEEK_AHEAD_FLOOR}x floor"
    )

    # The level-1 sanitizer promises <10% hot-loop overhead (DESIGN.md,
    # "Runtime invariant sanitizer") over the loop a checked run takes,
    # the peek-ahead loop.  Same-process ratio, so the bound is
    # machine-independent; measured ~1.01-1.09x.
    assert check_overhead < 1.10, (
        f"check_level=1 costs {check_overhead:.3f}x the unchecked "
        f"peek-ahead loop ({checked_s:.4f}s vs "
        f"{medians['peek-ahead']:.4f}s) — over the 10% budget"
    )
