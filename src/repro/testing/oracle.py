"""Three-way differential oracle: replay vs sanitized reference vs Eq. 5.

Replay executes the op programs the kernels' numpy emitters build, so
a case first holds those programs to the kernel's generators step for
step (:func:`emission_failures`).  The DES's two main loops, compiled
replay and the reference loop, promise *bit-identical* results
(DESIGN.md, "Host performance"), so the first leg compares every
observable of a
:class:`~repro.piuma.kernels.KernelResult` exactly — no tolerances.  A
checked run cannot replay, so that leg runs the default engine
unchecked (replay) against the reference engine with the sanitizer
armed.  The second leg checks both against the analytical
Equation 5 model: the DES has real mechanisms the model ignores
(latency chains, issue slots, queueing), so exact agreement is neither
expected nor desirable, but the efficiency ratio lives inside a
per-kernel envelope.  A simulator accounting bug that slips past the
runtime sanitizer tends to move that ratio wildly (double-counted
bytes halve it; lost occupancy inflates it past 1), which is what the
envelope is for — it is a tripwire, not a precision claim.
"""

from __future__ import annotations

from repro.piuma import effective_total_bandwidth, simulate_spmm, spmm_model
from repro.runtime.errors import InvariantViolation

#: Per-kernel (min, max) bounds on DES gflops / Eq.5 model gflops,
#: calibrated on the seeded case population (see
#: ``tests/testing/test_conformance.py::test_envelopes_calibrated``)
#: with ~2x headroom below and ~1.5x above the observed extremes.
#: The dma kernel tracks the bandwidth-bound model closely; the loop
#: kernel is latency-bound (Section IV-B) and lands far below it; the
#: vertex kernel sits between.
ENVELOPES = {
    "dma": (0.25, 1.70),
    "loop": (0.03, 1.10),
    "vertex": (0.12, 1.35),
}

def run_case(case, check_level=0, engine="fast"):
    """Execute one conformance case on one engine of
    :data:`~repro.piuma.config.ENGINES`; returns the ``KernelResult``."""
    return simulate_spmm(
        case.graph(),
        case.embedding_dim,
        config=case.config(check_level=check_level, engine=engine),
        kernel=case.kernel,
        window_edges=case.window_edges,
    )


def result_signature(result):
    """Every observable that must be bit-identical across engines."""
    return {
        "sim_time_ns": result.sim_time_ns,
        "gflops": result.gflops,
        "projected_time_ns": result.projected_time_ns,
        "events": result.events,
        "window_edges": result.window_edges,
        "memory_utilization": result.memory_utilization,
        "achieved_bandwidth": result.achieved_bandwidth,
        "tag_stats": {
            tag: (s.count, s.bytes, s.wait_ns)
            for tag, s in sorted(result.tag_stats.items())
        },
    }


def run_sharded_case(case, check_level=0, engine="fast"):
    """Simulate every shard of a sharded case on one engine.

    The case's graph is partitioned ``case.n_shards`` ways with
    ``case.partition_strategy`` (the exact code path of the multi-node
    runner, via :func:`repro.runtime.shard.shard_geometry`) and each
    non-empty shard runs its own ``simulate_spmm``.  Returns a list of
    ``(KernelResult | None, geometry)`` pairs, shard order.
    """
    from repro.runtime.shard import shard_geometry

    adj = case.graph()
    config = case.config(check_level=check_level, engine=engine)
    shards = []
    for index in range(case.n_shards):
        sub, info = shard_geometry(
            adj, case.n_shards, index, case.partition_strategy
        )
        result = None
        if sub.nnz:
            result = simulate_spmm(
                sub, case.embedding_dim, config=config, kernel=case.kernel,
                window_edges=case.window_edges,
            )
        shards.append((result, info))
    return shards


def case_signature(case, outcome):
    """Bit-identity signature of a case outcome, monolithic or sharded.

    Monolithic outcomes (a ``KernelResult``) keep the historical flat
    signature; sharded outcomes (the list from :func:`run_sharded_case`)
    nest one signature per shard, so a divergence report names the
    offending shard.
    """
    if case.n_shards <= 1:
        return result_signature(outcome)
    return {
        f"shard{index}": (result_signature(result)
                          if result is not None else None)
        for index, (result, _info) in enumerate(outcome)
    }


def assembled_case_estimate(case, shards):
    """Assemble a sharded case's end-to-end multi-node estimate.

    Runs the same bulk-synchronous assembly as the ``repro multinode``
    runner (slowest shard + halo exchange on the inter-node tier), so
    the tier-3 envelope below checks the code path users see.
    """
    from repro.piuma.multinode import HaloFabric, assemble_multinode
    from repro.runtime.shard import conserved_counters

    config = case.config()
    records = [
        {
            "projected_time_ns": (float(result.projected_time_ns)
                                  if result is not None else 0.0),
            "shard": info,
            "conserved": conserved_counters(
                info["rows"], info["edges"], case.embedding_dim, config
            ),
        }
        for result, info in shards
    ]
    return assemble_multinode(
        records,
        dataset=case.name,
        strategy=case.partition_strategy,
        embedding_dim=case.embedding_dim,
        fabric=HaloFabric.from_config(config),
    )


def model_efficiency(case, result):
    """DES gflops as a fraction of the Eq. 5 model's prediction.

    For a case carrying a degradation spec the model is re-evaluated
    under the *derated* aggregate bandwidth (per-slice derates and
    stall duty cycles folded in — see ``effective_total_bandwidth``),
    so the envelope keeps measuring mechanism overhead rather than the
    fault injection itself.  On a healthy case the derated bandwidth
    equals the configured one and the ratio is unchanged.
    """
    adj = case.graph()
    config = case.config()
    bandwidth = effective_total_bandwidth(config)
    model = spmm_model(
        adj.n_rows, adj.nnz, case.embedding_dim, config,
        read_bandwidth=bandwidth, write_bandwidth=bandwidth,
    )
    return result.gflops / model.gflops if model.gflops > 0 else 0.0


def _first_divergence(emitted, drained):
    """Index of the first step where two op sequences differ, or None."""
    for step, (got, want) in enumerate(zip(emitted, drained)):
        if got != want:
            return step
    if len(emitted) != len(drained):
        return min(len(emitted), len(drained))
    return None


def emission_failures(case):
    """Hold the case's emitted op programs to its drained generators.

    A replayed run executes what the kernel's numpy emitter
    (``thread_factory.emit``) builds, not what its generators yield,
    so the two must agree op for op.  For the case's window (or every
    non-empty shard's), the emitted program of each thread is compared
    with that thread's drained generator; the first diverging (kernel,
    thread, step) becomes one ``emission`` failure record.
    """
    from repro.piuma import spmm_kernel
    from repro.piuma.kernels import window_work
    from repro.runtime.shard import shard_geometry

    factory, splitter = spmm_kernel(case.kernel)
    config = case.config()
    adj = case.graph()
    if case.n_shards <= 1:
        windows = [("", adj)]
    else:
        windows = [
            (f" shard {index}", shard_geometry(
                adj, case.n_shards, index, case.partition_strategy)[0])
            for index in range(case.n_shards)
        ]
    for where, graph in windows:
        if not graph.nnz:
            continue
        work = window_work(graph, config, case.window_edges, splitter)
        program = factory.emit(work, case.embedding_dim, config, {})
        shared = {}
        for thread, item in enumerate(work):
            emitted = program.thread_ops(thread)
            drained = list(factory(item, case.embedding_dim, config,
                                   shared=shared))
            step = _first_divergence(emitted, drained)
            if step is not None:
                return [{
                    "case": case.name,
                    "check": "emission",
                    "detail": (
                        f"{case.kernel} kernel{where} thread {thread} "
                        f"step {step}: emitted "
                        f"{emitted[step] if step < len(emitted) else 'end'}"
                        f", drained "
                        f"{drained[step] if step < len(drained) else 'end'}"
                    ),
                }]
    return []


def differential_failures(case, check_level=2):
    """Run the oracle on one case; returns failure records (empty = pass).

    The case runs twice: on the default engine at ``check_level=0``,
    where it replays compiled op programs, and on the reference engine
    with the sanitizer armed at ``check_level``.  A checked run cannot
    replay, so this pairing is what holds replay to the sanitized
    reference loop.  The two results are compared bit-for-bit.
    Before either run, the case's emitted programs are compared with
    its drained generators (:func:`emission_failures`), so an emission
    bug is named at its first diverging step rather than as an engine
    mismatch.  Each failure is a plain dict: ``{"case", "check",
    "detail"}`` with ``check`` one of ``emission``,
    ``invariant:<engine>``, ``engine-mismatch``, or
    ``model-envelope:<engine>``.  An ``InvariantViolation`` raised by
    the sanitizer is captured as a failure record rather than
    propagating — the harness reports, it does not crash.
    """
    sharded = case.n_shards > 1
    run = run_sharded_case if sharded else run_case
    failures = emission_failures(case)
    results = {}
    for engine, level in (("fast", 0), ("reference", check_level)):
        try:
            results[engine] = run(case, check_level=level, engine=engine)
        except InvariantViolation as error:
            failures.append({
                "case": case.name,
                "check": f"invariant:{engine}",
                "detail": str(error),
            })
    if len(results) == 2:
        fast = case_signature(case, results["fast"])
        reference = case_signature(case, results["reference"])
        diverged = sorted(
            key for key in fast if fast[key] != reference[key]
        )
        if diverged:
            failures.append({
                "case": case.name,
                "check": "engine-mismatch",
                "detail": (
                    "fast and reference engines disagree on "
                    f"{', '.join(diverged)}: "
                    + "; ".join(
                        f"{key} fast={fast[key]!r} "
                        f"reference={reference[key]!r}"
                        for key in diverged[:3]
                    )
                ),
            })
    if sharded:
        # Tier-3 oracle of the sharded path: the assembled end-to-end
        # multi-node time must live inside the Eq.5-derived DGAS
        # envelope of ``repro.ext.distributed``.  Degraded-fabric cases
        # are exempt (the analytical DGAS aggregate knows nothing of
        # fault derating) — their load-bearing check is the per-shard
        # bit-identity leg above.
        if case.degradation is None and results:
            from repro.ext.distributed import multinode_envelope_failure

            adj = case.graph()
            config = case.config()
            for engine, shards in results.items():
                estimate = assembled_case_estimate(case, shards)
                detail = multinode_envelope_failure(
                    estimate.time_ns, adj.n_rows, adj.nnz,
                    case.embedding_dim, config, case.n_shards,
                    kernel=case.kernel,
                )
                if detail is not None:
                    failures.append({
                        "case": case.name,
                        "check": f"multinode-envelope:{engine}",
                        "detail": detail,
                    })
        return failures
    low, high = ENVELOPES[case.kernel]
    for engine, result in results.items():
        efficiency = model_efficiency(case, result)
        if not low <= efficiency <= high:
            failures.append({
                "case": case.name,
                "check": f"model-envelope:{engine}",
                "detail": (
                    f"{case.kernel} kernel at {efficiency:.4f} of the "
                    f"Eq.5 model, outside [{low}, {high}] "
                    f"(DES {result.gflops:.2f} GF)"
                ),
            })
    return failures
