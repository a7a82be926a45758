"""Command-line interface.

``python -m repro <command>`` exposes the characterization workflows
without writing any Python:

* ``datasets``  — print Table I.
* ``breakdown`` — GCN execution-time breakdown of one dataset on one
  platform (Figs 3/4/10, one row).
* ``speedup``   — cross-platform speedups for one dataset (Fig 9 row).
* ``simulate``  — run the PIUMA DES on a (down-scaled) dataset.
* ``sweep``     — run a DES grid through the cached, process-parallel
  sweep runner (``repro.runtime``); ``--degrade`` runs the whole grid
  on a deterministically faulted fabric.
* ``multinode`` — partition-aware multi-node scale-out: shard a graph
  (block or degree-aware blocks), simulate every shard as its own DES
  task, assemble the halo-exchange estimate and strong-scaling curve.
* ``resilience`` — graceful-degradation curve: SpMM slowdown vs the
  fraction of degraded fabric, against the derated Eq.5 envelope.
* ``check``     — differential conformance suite + invariant-sanitizer
  mutation smoke-checks (``repro.testing``).
* ``advise``    — the Fig 2 contour as a decision rule.
* ``serve``     — the tiered prediction service: a JSON HTTP endpoint
  answering prediction queries from the analytical models (tier 0),
  the shared result cache (tier 1), or a scheduled DES run (tier 2),
  with admission control, coalescing, and a circuit breaker.
* ``cache``     — inspect / garbage-collect / clear the shared
  content-addressed result cache.
"""

from __future__ import annotations

import argparse
import sys

from repro.piuma.config import ENGINES


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GCN-on-PIUMA characterization toolkit (ISPASS 2023 "
                    "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print the Table I catalog")

    breakdown = sub.add_parser(
        "breakdown", help="execution-time breakdown on one platform"
    )
    breakdown.add_argument("dataset")
    breakdown.add_argument(
        "--platform", choices=("cpu", "gpu", "piuma"), default="cpu"
    )
    breakdown.add_argument("--hidden", type=int, default=64,
                           help="hidden embedding dimension")

    speedup = sub.add_parser(
        "speedup", help="PIUMA/GPU speedups over the Xeon baseline"
    )
    speedup.add_argument("dataset")
    speedup.add_argument("--hidden", type=int, default=64)

    simulate = sub.add_parser(
        "simulate", help="run the PIUMA discrete-event simulator"
    )
    simulate.add_argument("dataset")
    simulate.add_argument("--kernel", choices=("dma", "loop", "vertex"),
                          default="dma")
    simulate.add_argument("--cores", type=int, default=8)
    simulate.add_argument("--hidden", type=int, default=64)
    simulate.add_argument("--latency-ns", type=float, default=45.0)
    simulate.add_argument("--bandwidth-scale", type=float, default=1.0)
    simulate.add_argument("--threads-per-mtp", type=int, default=16)
    simulate.add_argument("--max-vertices", type=int, default=16384,
                          help="down-scale the graph to this many vertices")
    simulate.add_argument("--engine", choices=ENGINES, default="fast",
                          help="DES engine: fast (replays compiled op "
                               "programs) or reference (bit-identical "
                               "results; host speed only)")
    simulate.add_argument("--no-cache", action="store_true",
                          help="bypass the on-disk result cache")

    sweep = sub.add_parser(
        "sweep",
        help="run a simulator grid through the cached parallel runner",
    )
    sweep.add_argument("--dataset", default="products")
    sweep.add_argument("--kernel", choices=("dma", "loop", "vertex"),
                       default="dma")
    sweep.add_argument("--dims", type=int, nargs="+", default=None,
                       help="embedding dims (default: the Fig 3 grid)")
    sweep.add_argument("--cores", type=int, nargs="+", default=[8])
    sweep.add_argument("--latency-ns", type=float, nargs="+",
                       default=[45.0])
    sweep.add_argument("--bandwidth-scale", type=float, nargs="+",
                       default=[1.0])
    sweep.add_argument("--threads-per-mtp", type=int, nargs="+",
                       default=[16])
    sweep.add_argument("--max-vertices", type=int, default=16384)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: min(4, CPUs), "
                            "or $REPRO_SWEEP_WORKERS)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")
    sweep.add_argument("--clear-cache", action="store_true",
                       help="invalidate (delete) all cached records first")
    sweep.add_argument("--cache-dir", default=None,
                       help="cache location (default benchmarks/out/.cache "
                            "or $REPRO_CACHE_DIR)")
    sweep.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-point wall-clock budget in seconds; hung "
                            "workers are killed and the point retried "
                            "(needs >= 2 workers)")
    sweep.add_argument("--retries", type=int, default=0,
                       help="extra attempts per point after a timeout, "
                            "worker crash, or exception")
    sweep.add_argument("--on-error", choices=("raise", "skip", "fallback"),
                       default="raise",
                       help="policy once retries are exhausted: abort the "
                            "sweep, record a structured failure, or degrade "
                            "the point to the Eq.5 analytical model")
    sweep.add_argument("--check-level", type=int, default=None,
                       choices=(0, 1, 2),
                       help="run every point under the runtime invariant "
                            "sanitizer at this level (default: off)")
    sweep.add_argument("--resume", action="store_true",
                       help="resume an interrupted sweep from its "
                            "checkpoint manifest (under the cache dir)")
    sweep.add_argument("--profile", action="store_true",
                       help="report host DES throughput (events/s) and "
                            "the slowest computed points")
    sweep.add_argument("--engine", choices=ENGINES, default=None,
                       help="run every point on this DES engine: fast "
                            "(the default; replays compiled op programs, "
                            "or runs the reference loop under "
                            "--check-level) or reference (bit-identical "
                            "results; host speed only; records carry an "
                            "\"engine\" provenance field)")
    sweep.add_argument("--degrade", default=None, metavar="SPEC",
                       help="run the whole grid on a degraded fabric: a "
                            "preset name (mild, moderate, severe, links, "
                            "slices, dma, compute) or a JSON spec file")

    multinode = sub.add_parser(
        "multinode",
        help="partition-aware multi-node scale-out: shard the graph, "
             "simulate every shard as its own DES task, assemble the "
             "halo-exchange estimate and the strong-scaling curve",
    )
    multinode.add_argument("--dataset", default="papers")
    multinode.add_argument("--nodes", type=int, nargs="+",
                           default=[1, 2, 4, 8],
                           help="node counts of the strong-scaling study "
                                "(one shard per node)")
    multinode.add_argument("--strategy",
                           choices=("block", "degree", "both"),
                           default="both",
                           help="partitioning strategy: equal-vertex "
                                "blocks, degree-aware equal-edge-load "
                                "blocks, or a side-by-side comparison")
    multinode.add_argument("--kernel", choices=("dma", "loop", "vertex"),
                           default="dma")
    multinode.add_argument("--hidden", type=int, default=None,
                           help="embedding dimension (default: the "
                                "dataset's feature dim)")
    multinode.add_argument("--max-vertices", type=int, default=16384,
                           help="down-scale the graph to this many "
                                "vertices before sharding")
    multinode.add_argument("--seed", type=int, default=0)
    multinode.add_argument("--workers", type=int, default=None,
                           help="process-pool size across shard tasks")
    multinode.add_argument("--no-cache", action="store_true",
                           help="bypass the on-disk result cache")
    multinode.add_argument("--cache-dir", default=None,
                           help="cache location (default "
                                "benchmarks/out/.cache or $REPRO_CACHE_DIR)")
    multinode.add_argument("--timeout", type=float, default=None,
                           metavar="S",
                           help="per-shard wall-clock budget in seconds")
    multinode.add_argument("--retries", type=int, default=0,
                           help="extra attempts per shard after a timeout, "
                                "worker crash, or exception")
    multinode.add_argument("--on-error",
                           choices=("raise", "skip", "fallback"),
                           default="raise",
                           help="policy once retries are exhausted; "
                                "\"fallback\" degrades lost shards to the "
                                "Eq.5 model so the assembly still closes")
    multinode.add_argument("--check-level", type=int, default=None,
                           choices=(0, 1, 2),
                           help="run every shard under the runtime "
                                "invariant sanitizer at this level")
    multinode.add_argument("--resume", action="store_true",
                           help="resume interrupted runs from their "
                                "per-shard checkpoint manifests")
    multinode.add_argument("--engine", choices=ENGINES, default=None,
                           help="DES engine for every shard: fast (the "
                                "default; replays compiled op programs) "
                                "or reference (bit-identical results; "
                                "host speed only)")
    multinode.add_argument("--degrade", default=None, metavar="SPEC",
                           help="run every shard on a degraded fabric: a "
                                "preset name or a JSON spec file")
    multinode.add_argument("--recover", action="store_true",
                           help="arm the per-shard failure model: "
                                "bounded retries per shard domain, "
                                "hedged re-execution of stragglers, and "
                                "partial assembly (failed shards degrade "
                                "to Eq.5 with shard_fallback provenance "
                                "and a widened-envelope verdict instead "
                                "of aborting); --retries/--timeout feed "
                                "the recovery spec")
    multinode.add_argument("--hedge-after", type=float, default=None,
                           metavar="S",
                           help="with --recover: launch a speculative "
                                "duplicate of any shard still running "
                                "after S seconds (first result wins; "
                                "default: adaptive, 3x the median shard "
                                "time)")
    multinode.add_argument("--json", default=None, metavar="PATH",
                           help="write the scaling rows as a JSON artifact")

    resilience = sub.add_parser(
        "resilience",
        help="graceful-degradation curve: SpMM slowdown vs fraction of "
             "degraded fabric, with the derated Eq.5 model as envelope",
    )
    resilience.add_argument("--dataset", default="products")
    resilience.add_argument("--kernel", choices=("dma", "loop", "vertex"),
                            default="dma")
    resilience.add_argument("--hidden", type=int, default=256)
    resilience.add_argument("--cores", type=int, default=8)
    resilience.add_argument("--max-vertices", type=int, default=16384)
    resilience.add_argument("--seed", type=int, default=7,
                            help="graph down-scaling seed (default: the "
                                 "Fig 5 medium-point window)")
    resilience.add_argument("--severities", type=float, nargs="+",
                            default=[0.0, 0.25, 0.5, 0.75, 1.0],
                            help="degraded-fraction grid; the fault sets "
                                 "nest with severity, so the curve is "
                                 "monotone by construction")
    resilience.add_argument("--fault-seed", type=int, default=0,
                            help="seed of the degradation membership draws")
    resilience.add_argument("--check-level", type=int, default=1,
                            choices=(0, 1, 2),
                            help="invariant sanitizer level armed inside "
                                 "every point (default 1)")
    resilience.add_argument("--engine", choices=ENGINES, default="fast",
                            help="DES engine for the curve: fast "
                                 "(replays compiled op programs at "
                                 "--check-level 0, runs the reference "
                                 "loop at 1 or above) or reference "
                                 "(bit-identical results; host speed "
                                 "only)")
    resilience.add_argument("--verify-engines", action="store_true",
                            help="run every point twice, unchecked on "
                                 "--engine fast (compiled replay) and on "
                                 "the reference engine at --check-level, "
                                 "and require bit-identity; the curve "
                                 "comes from the reference run (both "
                                 "runs bypass the result cache)")
    resilience.add_argument("--workers", type=int, default=None)
    resilience.add_argument("--no-cache", action="store_true",
                            help="bypass the on-disk result cache")
    resilience.add_argument("--json", default=None, metavar="PATH",
                            help="write the curve as a JSON artifact")

    check = sub.add_parser(
        "check",
        help="differential conformance suite: bit-identity of compiled "
             "replay and the sanitized reference loop, Eq.5 envelope, "
             "metamorphic relations, and invariant-sanitizer mutation "
             "smoke-checks",
    )
    check.add_argument("--level", type=int, default=2, choices=(0, 1, 2),
                       help="invariant sanitizer level armed inside every "
                            "differential run's reference leg; the replay "
                            "leg runs unchecked (default 2)")
    check.add_argument("--cases", type=int, default=25,
                       help="seeded conformance cases to generate")
    check.add_argument("--seed", type=int, default=0,
                       help="case-population seed")
    check.add_argument("--no-metamorphic", action="store_true",
                       help="skip the metamorphic relations")
    check.add_argument("--no-mutations", action="store_true",
                       help="skip the mutation smoke-checks")
    check.add_argument("--artifact", default=None, metavar="PATH",
                       help="write the JSON report (incl. any shrunk "
                            "failing case) to this path")
    check.add_argument("--quiet", action="store_true",
                       help="only print the final summary line")

    advise = sub.add_parser(
        "advise", help="predict the CPU SpMM share for a (|V|, density)"
    )
    advise.add_argument("vertices", type=float)
    advise.add_argument("density", type=float)
    advise.add_argument("--hidden", type=int, default=256)

    calibrate = sub.add_parser(
        "calibrate",
        help="measure the DES efficiency vs the Eq.5 model on a grid",
    )
    calibrate.add_argument("--dataset", default="products")
    calibrate.add_argument("--max-vertices", type=int, default=8192)
    calibrate.add_argument("--cores", type=int, nargs="+",
                           default=[1, 2, 4, 8])
    calibrate.add_argument("--dims", type=int, nargs="+",
                           default=[8, 64, 256])
    calibrate.add_argument("--workers", type=int, default=None,
                           help="process-pool size for the grid")
    calibrate.add_argument("--no-cache", action="store_true",
                           help="bypass the on-disk result cache")

    validate = sub.add_parser(
        "validate", help="run the simulator invariant self-test"
    )
    validate.add_argument("--dataset", default="products")
    validate.add_argument("--max-vertices", type=int, default=8192)
    validate.add_argument("--hidden", type=int, default=64)

    roofline = sub.add_parser(
        "roofline", help="place the GCN kernels on a platform roofline"
    )
    roofline.add_argument(
        "--platform", choices=("cpu", "gpu", "piuma"), default="piuma"
    )
    roofline.add_argument("--dataset", default="products")

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument(
        "name",
        help="experiment id: table1, fig2 ... fig10 (see DESIGN.md)",
    )
    experiment.add_argument("--max-vertices", type=int, default=16384)

    report = sub.add_parser(
        "report", help="run every experiment into one markdown report"
    )
    report.add_argument("--max-vertices", type=int, default=8192)
    report.add_argument("--output", default=None,
                        help="write to a file instead of stdout")
    report.add_argument("--only", nargs="+", default=None,
                        help="subset of experiment ids")

    serve = sub.add_parser(
        "serve",
        help="run the tiered prediction service (JSON over HTTP): "
             "analytical tier 0, cached tier 1, simulated tier 2",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8023,
                       help="listen port (0 picks an ephemeral port)")
    serve.add_argument("--workers", type=int, default=None,
                       help="DES worker processes (default: min(4, CPUs), "
                            "or $REPRO_SWEEP_WORKERS)")
    serve.add_argument("--max-pending", type=int, default=32,
                       help="admission bound: pending tier-2 jobs beyond "
                            "this are rejected with HTTP 429 + Retry-After")
    serve.add_argument("--retries", type=int, default=1,
                       help="extra DES attempts after a worker crash or "
                            "timeout before degrading to the model")
    serve.add_argument("--task-timeout", type=float, default=120.0,
                       metavar="S",
                       help="per-attempt DES wall-clock budget; hung "
                            "workers are killed (0 disables)")
    serve.add_argument("--deadline", type=float, default=30.0, metavar="S",
                       help="default per-request deadline before the "
                            "answer degrades to the tier-0 model "
                            "(queries may override with 'deadline_s')")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive crash/timeout attempts that trip "
                            "the circuit breaker")
    serve.add_argument("--breaker-reset", type=float, default=30.0,
                       metavar="S",
                       help="breaker cooldown before a half-open probe")
    serve.add_argument("--cache-dir", default=None,
                       help="shared result-cache location (default "
                            "benchmarks/out/.cache or $REPRO_CACHE_DIR)")
    serve.add_argument("--cache-max-bytes", type=int, default=None,
                       help="LRU size budget for the shared cache "
                            "(default: unbounded)")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without the shared cache (tiers 0/2 "
                            "only)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request log lines")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="S",
                       help="on SIGTERM/SIGINT: stop accepting, wait up "
                            "to this long for in-flight jobs to finish, "
                            "then close (remaining jobs fail with "
                            "structured shutdown errors)")

    chaos = sub.add_parser(
        "chaos",
        help="seeded deterministic chaos campaign: composed fault "
             "schedules (crashes, hangs, kill+resume, saturation, "
             "corrupt cache, dead shards) against the batch, service, "
             "and multinode frontends, with the recovery invariants "
             "verified (no lost work, bit-identity, breaker closes)",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="schedule-derivation seed (each "
                            "(frontend, round) cell has its own stream)")
    chaos.add_argument("--rounds", type=int, default=1,
                       help="chaos rounds per frontend")
    chaos.add_argument("--frontend",
                       choices=("batch", "service", "multinode", "all"),
                       default="all",
                       help="which frontend(s) to torture (default all)")
    chaos.add_argument("--schedule", default=None, metavar="PATH",
                       help="JSON fault-schedule file to replay instead "
                            "of deriving one from --seed/--rounds")
    chaos.add_argument("--artifact", default=None, metavar="PATH",
                       help="write the JSON verdict document (schedule, "
                            "per-invariant outcomes, recovery stats)")
    chaos.add_argument("--workdir", default=None, metavar="DIR",
                       help="scratch directory kept after the run for "
                            "postmortems (default: temp dir, removed)")

    cache = sub.add_parser(
        "cache",
        help="inspect or maintain the shared content-addressed result "
             "cache",
    )
    cache.add_argument("action", choices=("stats", "gc", "clear"),
                       help="stats: size/hygiene summary; gc: evict LRU "
                            "entries beyond --max-bytes; clear: delete "
                            "every record")
    cache.add_argument("--cache-dir", default=None,
                       help="cache location (default benchmarks/out/.cache "
                            "or $REPRO_CACHE_DIR)")
    cache.add_argument("--max-bytes", type=int, default=None,
                       help="size budget for gc (required for gc)")
    cache.add_argument("--entries", type=int, default=0, metavar="N",
                       help="stats: also list the N most recently used "
                            "records")
    return parser


def _cmd_datasets(_args, out):
    from repro.graphs.datasets import OGB_TABLE_I
    from repro.report.tables import format_number, format_table

    rows = [
        [s.name, format_number(s.n_vertices), format_number(s.n_edges),
         f"{s.avg_degree:.1f}", s.task, f"{s.locality:.2f}"]
        for s in OGB_TABLE_I
    ]
    out(format_table(
        ["name", "|V|", "|E|", "avg deg", "task", "locality"],
        rows, title="Table I — OGB datasets",
    ))
    return 0


def _cmd_breakdown(args, out):
    from repro.report.figures import breakdown_chart
    from repro.report.tables import format_time_ns
    from repro.workloads.gcn_workload import workload_for

    workload = workload_for(args.dataset, args.hidden)
    if args.platform == "cpu":
        from repro.cpu.config import XeonConfig
        from repro.cpu.gcn import gcn_breakdown

        result = gcn_breakdown(workload, XeonConfig())
    elif args.platform == "gpu":
        from repro.gpu.config import A100Config
        from repro.gpu.gcn import gcn_breakdown

        result = gcn_breakdown(workload, A100Config())
    else:
        from repro.piuma.config import PIUMAConfig
        from repro.piuma.gcn import gcn_breakdown

        result = gcn_breakdown(workload, PIUMAConfig.node())
    label = f"{args.dataset} K={args.hidden} on {args.platform}"
    out(breakdown_chart([(label, result)]))
    out(f"total: {format_time_ns(result.total)}")
    return 0


def _cmd_speedup(args, out):
    from repro.core.speedup import compare_platforms
    from repro.cpu.config import XeonConfig
    from repro.gpu.config import A100Config
    from repro.piuma.config import PIUMAConfig
    from repro.report.tables import format_table
    from repro.workloads.gcn_workload import workload_for

    comparison = compare_platforms(
        workload_for(args.dataset, args.hidden),
        XeonConfig(), A100Config(), PIUMAConfig.node(),
    )
    out(format_table(
        ["platform", "GCN speedup", "SpMM speedup"],
        [[p, f"{comparison.gcn_speedup(p):.2f}x",
          f"{comparison.spmm_speedup(p):.2f}x"]
         for p in ("piuma", "gpu")],
        title=f"{args.dataset} K={args.hidden} vs dual-socket Xeon",
    ))
    return 0


def _cmd_simulate(args, out):
    from repro.report.tables import format_time_ns
    from repro.runtime import ResultCache, run_sweep, spmm_task

    task = spmm_task(
        args.dataset, args.hidden, kernel=args.kernel,
        max_vertices=args.max_vertices,
        n_cores=args.cores,
        dram_latency_ns=args.latency_ns,
        dram_bandwidth_scale=args.bandwidth_scale,
        threads_per_mtp=args.threads_per_mtp,
        engine=args.engine,
    )
    cache = ResultCache(enabled=not args.no_cache)
    report = run_sweep([task], workers=1, cache=cache)
    record = report.records[0]
    out(f"graph: {record['n_vertices']:,} vertices, "
        f"{record['n_edges']:,} edges "
        f"(window {record['window_edges']:,} edges)")
    out(f"kernel {args.kernel}, {args.cores} cores, "
        f"{args.threads_per_mtp} threads/MTP, "
        f"{args.latency_ns:.0f} ns DRAM")
    out(f"achieved {record['gflops']:.1f} GFLOP/s "
        f"({record['efficiency']:.0%} of the Eq.5 model); "
        f"memory utilization {record['memory_utilization']:.0%}")
    out(f"projected kernel time: "
        f"{format_time_ns(record['projected_time_ns'])}")
    if report.cache_hits:
        out("(served from the result cache; --no-cache to re-simulate)")
    return 0


def _resolve_degradation(value):
    """``--degrade`` argument -> :class:`DegradationSpec`.

    Accepts a preset name from :data:`DEGRADATION_PRESETS` or the path
    of a JSON file holding the spec's fields.
    """
    import json
    import pathlib

    from repro.piuma import DEGRADATION_PRESETS
    from repro.piuma.degradation import DegradationSpec

    preset = DEGRADATION_PRESETS.get(value)
    if preset is not None:
        return preset
    path = pathlib.Path(value)
    if path.is_file():
        return DegradationSpec.from_json(json.loads(path.read_text()))
    raise ValueError(
        f"--degrade {value!r} is neither a preset "
        f"({', '.join(sorted(DEGRADATION_PRESETS))}) nor a JSON spec file"
    )


def _cmd_sweep(args, out):
    from repro.report.tables import format_table
    from repro.runtime import (
        ProgressTracker,
        ResultCache,
        SweepCheckpoint,
        gc_manifests,
        run_sweep,
        spmm_task,
    )
    from repro.runtime.runner import with_knobs
    from repro.workloads.sweeps import EMBEDDING_SWEEP, grid

    dims = tuple(args.dims) if args.dims else EMBEDDING_SWEEP
    points = grid(
        n_cores=args.cores,
        embedding_dim=dims,
        dram_latency_ns=args.latency_ns,
        dram_bandwidth_scale=args.bandwidth_scale,
        threads_per_mtp=args.threads_per_mtp,
    )
    tasks = [
        spmm_task(
            args.dataset, point.pop("embedding_dim"), kernel=args.kernel,
            max_vertices=args.max_vertices, seed=args.seed, **point,
        )
        for point in points
    ]
    # Apply the knobs *before* deriving the checkpoint manifest: each is
    # part of a task's identity, so a checked, degraded or
    # reference-engine sweep never shares a manifest (or cache records)
    # with a plain one.
    spec = _resolve_degradation(args.degrade) if args.degrade else None
    tasks = with_knobs(tasks, check_level=args.check_level,
                       degradation=spec, engine=args.engine)
    cache = ResultCache(directory=args.cache_dir,
                        enabled=not args.no_cache)
    if args.clear_cache:
        out(f"cleared {cache.clear()} cached record(s)")
    removed = gc_manifests(directory=cache.directory)
    if removed:
        out(f"garbage-collected {removed} abandoned sweep manifest(s)")
    checkpoint = SweepCheckpoint.for_tasks(tasks, directory=cache.directory)
    progress = ProgressTracker(total=len(tasks), out=out)
    report = run_sweep(tasks, workers=args.workers, cache=cache,
                       progress=progress, timeout=args.timeout,
                       retries=args.retries, on_error=args.on_error,
                       checkpoint=checkpoint, resume=args.resume)
    rows = []
    for task, record in zip(report.tasks, report.records):
        over = dict(task.overrides)
        row = [over["n_cores"], task.embedding_dim,
               f"{over['dram_latency_ns']:.0f}",
               f"{over['dram_bandwidth_scale']:g}",
               over["threads_per_mtp"]]
        if record.get("source") == "failed":
            row += [f"failed:{record['error']['kind']}", "-", "-", "-"]
        else:
            mark = "*" if record.get("source") == "model_fallback" else ""
            row += [f"{record['gflops']:.1f}{mark}",
                    f"{record['model_gflops']:.1f}",
                    f"{record['efficiency']:.2f}",
                    f"{record['memory_utilization']:.0%}"]
        rows.append(row)
    out(format_table(
        ["cores", "K", "lat ns", "bw", "thr/MTP",
         "DES GF", "model GF", "eff", "mem util"],
        rows,
        title=f"{args.dataset}/{args.kernel} sweep "
              f"({args.max_vertices:,}-vertex window)",
    ))
    if report.resumed:
        out(f"resumed {report.resumed} point(s) from "
            f"{checkpoint.path.name}")
    if report.failures:
        out(f"{len(report.failures)} point(s) degraded "
            "(* = Eq.5 model fallback):")
        for entry in report.failures:
            out(f"  - {entry['label']}: {entry['kind']} after "
                f"{entry['attempts']} attempt(s) — {entry['message']}")
    out(progress.summary())
    if args.profile:
        for line in progress.profile_lines():
            out(line)
    out(f"cache: {cache.stats}")
    if args.degrade:
        out(f"degraded fabric: --degrade {args.degrade} (records carry "
            "a \"degradation\" provenance field)")
    if args.engine:
        out(f"DES engine: --engine {args.engine} "
            "(bit-identical results; host speed only)")
    # The sweep ran to completion (possibly degraded): its manifest has
    # served its purpose.  Failed points are deliberately not recorded
    # in it, so a later --resume rerun would retry exactly those.
    if not report.failures:
        checkpoint.discard()
    return 0


def _cmd_multinode(args, out):
    import json
    import pathlib

    from repro.ext.distributed import MULTINODE_ENVELOPES
    from repro.piuma.multinode import scaling_figure, strong_scaling
    from repro.report.tables import format_table, format_time_ns
    from repro.runtime import ResultCache

    nodes = sorted(set(args.nodes))
    if any(n < 1 for n in nodes):
        raise ValueError("--nodes must be positive")
    strategies = (("block", "degree") if args.strategy == "both"
                  else (args.strategy,))
    cache = ResultCache(directory=args.cache_dir,
                        enabled=not args.no_cache)
    sweep_kwargs = {
        "workers": args.workers,
        "cache": cache,
        "timeout": args.timeout,
        "retries": args.retries,
        "on_error": args.on_error,
        "check_level": args.check_level,
        "engine": args.engine,
    }
    if args.degrade:
        sweep_kwargs["degradation"] = _resolve_degradation(args.degrade)
    recovery = None
    if args.recover:
        from repro.runtime.shard import ShardRecovery

        recovery = ShardRecovery(
            retries=max(args.retries, 1), timeout=args.timeout,
            hedge_after_s=args.hedge_after,
        )
    result = strong_scaling(
        args.dataset, nodes=tuple(nodes), strategies=strategies,
        embedding_dim=args.hidden, kernel=args.kernel,
        max_vertices=args.max_vertices, seed=args.seed,
        sweep_kwargs=sweep_kwargs, checkpoint_dir=cache.directory,
        resume=args.resume, recovery=recovery,
    )
    rows = result["rows"]
    out(format_table(
        ["strategy", "nodes", "time", "speedup", "eff",
         "comm%", "cut%", "balance", "halo MB", "dgas x"],
        [[r["strategy"], r["n_nodes"], format_time_ns(r["time_ns"]),
          f"{r['speedup']:.2f}x", f"{r['efficiency']:.2f}",
          f"{100 * r['comm_share']:.1f}", f"{100 * r['cut_fraction']:.1f}",
          f"{r['balance']:.3f}", f"{r['halo_bytes'] / 1e6:.2f}",
          f"{r['dgas_ratio']:.2f}"]
         for r in rows],
        title=f"{args.dataset}/{args.kernel} multi-node strong scaling "
              f"({args.max_vertices:,}-vertex window per study)",
    ))
    out(scaling_figure(rows, nodes))
    full = next((r for r in rows if r["n_nodes"] == max(nodes)), None)
    if full is not None and full["full_time_ns"] != full["time_ns"]:
        out(f"full-scale projection ({args.dataset}): "
            f"{format_time_ns(full['full_time_ns'])} per SpMM at "
            f"{max(nodes)} nodes ({full['strategy']})")
    low, high = MULTINODE_ENVELOPES[args.kernel]
    if args.degrade:
        # Same exemption as the conformance oracle: the analytical DGAS
        # aggregate knows nothing of fault derating.
        breaches = []
        out(f"Eq.5 DGAS envelope [{low}, {high}]: skipped "
            f"(degraded fabric '{args.degrade}')")
    elif recovery is not None:
        # The failure model widens the envelope per degraded shard and
        # renders an explicit verdict instead of a raw ratio check.
        breaches = [r for r in rows
                    if r["envelope_verdict"]["verdict"] == "violated"]
        degraded = [r for r in rows
                    if r["envelope_verdict"]["verdict"] == "degraded"]
        out(f"Eq.5 DGAS envelope [{low}, {high}]: "
            + (f"VIOLATED at {len(breaches)} point(s)" if breaches
               else (f"held — {len(degraded)} point(s) on a "
                     "shard_fallback-widened envelope" if degraded
                     else "held at every point")))
        for r in degraded:
            verdict = r["envelope_verdict"]
            out(f"  {r['strategy']}/{r['n_nodes']} nodes: "
                f"{verdict['degraded_shards']} shard(s) degraded to "
                f"Eq.5 fallback, envelope widened x{verdict['widened']:.2f}"
                f" (ratio {verdict['ratio']:.2f})")
        # The study ran as one batch: its counters are already totals.
        stats = result["recovery"]
        if stats["retries"] or stats["hedges_launched"]:
            out("recovery: "
                f"{stats['retries']} retried shard attempt(s), "
                f"{stats['hedges_won']}/"
                f"{stats['hedges_launched']} hedge(s) won, "
                f"{stats['fallbacks']} fallback(s)")
    else:
        breaches = [r for r in rows if not low <= r["dgas_ratio"] <= high]
        out(f"Eq.5 DGAS envelope [{low}, {high}]: "
            + ("held at every point" if not breaches
               else f"VIOLATED at {len(breaches)} point(s)"))
    failures = sum(r["failures"] for r in rows)
    if failures:
        out(f"{failures} shard(s) degraded to the Eq.5 fallback")
    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "dataset": args.dataset,
            "kernel": args.kernel,
            "max_vertices": args.max_vertices,
            "seed": args.seed,
            "nodes": nodes,
            "strategies": list(strategies),
            "envelope": [low, high],
            "rows": rows,
        }, indent=2, sort_keys=True) + "\n")
        out(f"scaling rows written to {path}")
    return 0 if not breaches else 1


#: Record fields that must be bit-identical between unchecked replay
#: and the reference engine (``repro resilience --verify-engines``).
_ENGINE_IDENTITY_FIELDS = (
    "sim_time_ns", "gflops", "projected_time_ns", "events",
    "window_edges", "memory_utilization", "achieved_bandwidth",
    "tag_stats",
)


def _cmd_resilience(args, out):
    import json
    import pathlib

    from repro.piuma import effective_total_bandwidth, spmm_model
    from repro.piuma.degradation import DegradationSpec
    from repro.report.tables import format_table
    from repro.runtime import ResultCache, run_sweep, spmm_task
    from repro.testing.oracle import ENVELOPES

    severities = [float(s) for s in args.severities]
    if sorted(severities) != severities:
        raise ValueError("--severities must be non-decreasing")
    if args.verify_engines and args.engine == "reference":
        raise ValueError("--verify-engines compares unchecked replay on "
                         "--engine fast with the reference engine; pick "
                         "--engine fast")

    def task_for(severity, engine=args.engine):
        task = spmm_task(
            args.dataset, args.hidden, kernel=args.kernel,
            max_vertices=args.max_vertices, seed=args.seed,
            n_cores=args.cores, engine=engine,
        )
        if severity > 0.0:
            task = task.with_config(degradation=DegradationSpec.at_severity(
                severity, seed=args.fault_seed,
            ))
        return task

    tasks = [task_for(s) for s in severities]
    mismatches = []
    if args.verify_engines:
        # A checked run cannot replay, so the identity check pairs
        # unchecked replay with the reference loop at --check-level;
        # the sanitized reference run gives the curve.  Both legs
        # bypass the cache: a cached record would verify nothing.
        uncached = ResultCache(enabled=False)
        replay = run_sweep(tasks, workers=args.workers, cache=uncached,
                           check_level=0)
        report = run_sweep(
            [task_for(s, engine="reference") for s in severities],
            workers=args.workers, cache=uncached,
            check_level=args.check_level,
        )
        for severity, got, ref in zip(
            severities, replay.records, report.records
        ):
            diverged = [
                name for name in _ENGINE_IDENTITY_FIELDS
                if got[name] != ref[name]
            ]
            if diverged:
                mismatches.append((severity, diverged))
    else:
        report = run_sweep(tasks, workers=args.workers,
                           cache=ResultCache(enabled=not args.no_cache),
                           check_level=args.check_level)

    low, high = ENVELOPES[args.kernel]
    baseline = report.records[0]["sim_time_ns"]
    rows, curve = [], []
    monotone = True
    in_envelope = True
    previous = None
    for severity, record in zip(severities, report.records):
        config = task_for(severity).config()
        bandwidth = effective_total_bandwidth(config)
        model = spmm_model(
            record["n_vertices"], record["n_edges"], args.hidden, config,
            read_bandwidth=bandwidth, write_bandwidth=bandwidth,
        )
        efficiency = (record["gflops"] / model.gflops
                      if model.gflops > 0 else 0.0)
        slowdown = (record["sim_time_ns"] / baseline
                    if baseline > 0 else 0.0)
        if previous is not None and record["sim_time_ns"] < previous:
            monotone = False
        previous = record["sim_time_ns"]
        if not low <= efficiency <= high:
            in_envelope = False
        rows.append([
            f"{severity:.2f}", f"{record['sim_time_ns']:,.0f}",
            f"{slowdown:.2f}x", f"{bandwidth:.0f}",
            f"{record['gflops']:.1f}", f"{model.gflops:.1f}",
            f"{efficiency:.2f}",
        ])
        curve.append({
            "severity": severity,
            "sim_time_ns": record["sim_time_ns"],
            "slowdown": slowdown,
            "effective_bandwidth_gbps": bandwidth,
            "gflops": record["gflops"],
            "derated_model_gflops": model.gflops,
            "derated_efficiency": efficiency,
            "degradation": record.get("degradation"),
        })
    out(format_table(
        ["severity", "sim ns", "slowdown", "bw GB/s",
         "DES GF", "derated model GF", "eff"],
        rows,
        title=f"graceful degradation — {args.dataset}/{args.kernel} "
              f"K={args.hidden}, {args.cores} cores "
              f"({args.max_vertices:,}-vertex window)",
    ))

    passed = monotone and in_envelope and not mismatches
    out(f"monotone slowdown: {'yes' if monotone else 'NO'}; "
        f"derated Eq.5 envelope [{low}, {high}]: "
        f"{'held' if in_envelope else 'VIOLATED'}")
    if args.verify_engines:
        if mismatches:
            for severity, diverged in mismatches:
                out(f"engine mismatch at severity {severity:.2f}: "
                    + ", ".join(diverged))
        else:
            out("fast and reference engines bit-identical at every "
                "severity (unchecked replay vs the reference loop at "
                f"--check-level {args.check_level})")
    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "point": {
                "dataset": args.dataset, "kernel": args.kernel,
                "embedding_dim": args.hidden, "n_cores": args.cores,
                "max_vertices": args.max_vertices, "seed": args.seed,
                "fault_seed": args.fault_seed,
                "check_level": args.check_level,
            },
            "curve": curve,
            "monotone": monotone,
            "envelope": [low, high],
            "in_envelope": in_envelope,
            "engines_verified": bool(args.verify_engines),
            "engine_mismatches": [
                {"severity": s, "fields": d} for s, d in mismatches
            ],
            "passed": passed,
        }, indent=2, sort_keys=True) + "\n")
        out(f"curve written to {path}")
    return 0 if passed else 1


def _cmd_check(args, out):
    from repro.testing import run_conformance

    report = run_conformance(
        n_cases=args.cases,
        seed=args.seed,
        check_level=args.level,
        metamorphic=not args.no_metamorphic,
        mutations=not args.no_mutations,
        artifact=args.artifact,
        out=None if args.quiet else out,
    )
    out(report.summary())
    for failure in report.failures:
        out(f"  - {failure['case']} {failure['check']}: "
            f"{failure['detail']}")
    for failure in report.mutation_failures:
        out(f"  - mutation {failure['mutation']}: {failure['detail']}")
    if report.shrunk is not None:
        out(f"  shrunk repro ({report.shrunk['check']}): "
            f"{report.shrunk['case']}")
    return 0 if report.passed else 1


def _cmd_advise(args, out):
    from repro.core.contour import spmm_fraction
    from repro.cpu.config import XeonConfig

    fraction = spmm_fraction(
        int(args.vertices), args.density, XeonConfig(),
        embedding_dim=args.hidden,
    )
    verdict = (
        "accelerator-favored" if fraction >= 0.6
        else "mixed" if fraction >= 0.4 else "CPU/GPU-favored"
    )
    out(f"SpMM share of a K={args.hidden} GCN layer on CPU: "
        f"{fraction:.0%} -> {verdict}")
    return 0


def _cmd_calibrate(args, out):
    from repro.report.tables import format_table
    from repro.runtime import ResultCache, run_sweep
    from repro.validation import calibration_from_records, calibration_tasks

    tasks = calibration_tasks(
        args.dataset, core_counts=tuple(args.cores),
        embedding_dims=tuple(args.dims), max_vertices=args.max_vertices,
    )
    cache = ResultCache(enabled=not args.no_cache)
    report = run_sweep(tasks, workers=args.workers, cache=cache)
    result = calibration_from_records(report.tasks, report.records)
    n_vertices = report.records[0]["n_vertices"]
    out(format_table(
        ["cores", "K", "DES GF", "model GF", "efficiency"],
        result.table_rows(),
        title=f"DMA-kernel calibration on {args.dataset}/"
              f"{n_vertices:,} vertices",
    ))
    out(f"mean {result.mean_efficiency:.2f}, "
        f"min {result.min_efficiency:.2f}; "
        f"recommended node-projection efficiency: {result.recommended:.2f}")
    return 0


def _cmd_validate(args, out):
    from repro.graphs.datasets import get_dataset
    from repro.validation import run_all_checks

    adj = get_dataset(args.dataset).materialize(
        max_vertices=args.max_vertices, seed=0
    )
    reports = run_all_checks(adj, embedding_dim=args.hidden)
    failures = 0
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        out(f"[{status}] {report.name}: {report.detail}")
        failures += not report.passed
    return 1 if failures else 0


def _cmd_roofline(args, out):
    from repro.graphs.datasets import get_dataset
    from repro.report.roofline import (
        KernelPoint,
        cpu_roofline,
        gpu_roofline,
        piuma_roofline,
        render_roofline,
        spmm_kernel_point,
    )

    spec = get_dataset(args.dataset)
    v, e = spec.n_vertices, spec.n_edges + spec.n_vertices
    if args.platform == "cpu":
        from repro.cpu.config import XeonConfig
        from repro.cpu.spmm import spmm_time

        config = XeonConfig()
        roofline = cpu_roofline(config)
        achieved = spmm_time(v, e, 256, config).gflops
    elif args.platform == "gpu":
        from repro.gpu.config import A100Config
        from repro.gpu.kernels import spmm_time as gpu_spmm

        config = A100Config()
        roofline = gpu_roofline(config)
        achieved = gpu_spmm(v, e, 256, config, spec.locality).gflops
    else:
        from repro.piuma import spmm_model
        from repro.piuma.config import PIUMAConfig

        config = PIUMAConfig.node()
        roofline = piuma_roofline(config)
        achieved = spmm_model(v, e, 256, config).gflops * 0.88
    gemm_intensity = 2 * 256 * 256 / ((256 + 256) * 4)
    gemm = KernelPoint(
        "dense K=256", gemm_intensity,
        min(roofline.peak_gflops * 0.6,
            roofline.attainable(gemm_intensity)),
    )
    spmm_point = spmm_kernel_point(v, e, 256, achieved)
    out(render_roofline(roofline, [spmm_point, gemm]))
    return 0


def _cmd_experiment(args, out):
    from repro.experiments import ExperimentContext, run_experiment

    context = ExperimentContext(max_vertices=args.max_vertices)
    out(run_experiment(args.name, context))
    return 0


def _cmd_report(args, out):
    import pathlib

    from repro.experiments import ExperimentContext
    from repro.report.markdown import generate_report

    context = ExperimentContext(max_vertices=args.max_vertices)
    text = generate_report(context, experiments=args.only)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n")
        out(f"report written to {args.output}")
    else:
        out(text)
    return 0


def _cmd_serve(args, out):
    from repro.runtime import (
        CircuitBreaker,
        GracefulShutdown,
        PredictionService,
        ResultCache,
        default_workers,
        make_server,
    )

    cache = None
    if not args.no_cache:
        cache = ResultCache(directory=args.cache_dir,
                            max_bytes=args.cache_max_bytes)
    service = PredictionService(
        cache,
        workers=args.workers or default_workers(),
        max_pending=args.max_pending,
        retries=args.retries,
        task_timeout_s=args.task_timeout or None,
        default_deadline_s=args.deadline,
        breaker=CircuitBreaker(
            failure_threshold=args.breaker_threshold,
            reset_timeout_s=args.breaker_reset,
        ),
    )
    server = make_server(service, host=args.host, port=args.port,
                         out=None if args.quiet else out)
    host, port = server.server_address[:2]
    out(f"repro serve listening on http://{host}:{port}")
    out("endpoints: POST /predict (JSON query), "
        "GET /predict?dataset=...&k=..., GET /healthz")
    if cache is not None:
        out(f"shared cache: {cache.directory}"
            + (f" (budget {cache.max_bytes:,} bytes)"
               if cache.max_bytes else ""))
    shutdown = GracefulShutdown(server, service,
                                drain_timeout_s=args.drain_timeout,
                                out=out).install()
    try:
        server.serve_forever()
        if shutdown.signal_name:
            out(f"{shutdown.signal_name} received; draining before "
                "shutdown")
    except KeyboardInterrupt:
        out("interrupted; shutting down")
    finally:
        shutdown.uninstall()
        server.server_close()
        shutdown.drain()
    return 0


def _cmd_cache(args, out):
    from repro.report.tables import format_table
    from repro.runtime import ResultCache

    cache = ResultCache(directory=args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        out(f"cleared {removed} cached record(s) from {cache.directory} "
            "(stale tmp files, quarantined entries, and the eviction "
            "manifest swept too)")
        return 0
    if args.action == "gc":
        if args.max_bytes is None:
            raise ValueError("cache gc needs --max-bytes (the size "
                             "budget to evict down to)")
        evicted = cache.gc(max_bytes=args.max_bytes)
        out(f"evicted {evicted} least-recently-used record(s); "
            f"{len(cache)} remaining, {cache.total_bytes():,} bytes "
            f"(budget {args.max_bytes:,})")
        return 0
    entries = cache.entries()
    out(f"cache directory: {cache.directory}")
    out(f"{len(entries)} record(s), {cache.total_bytes():,} bytes")
    quarantined = cache.quarantined()
    if quarantined:
        out(f"{quarantined} corrupt entr(ies) quarantined (*.corrupt) — "
            "inspect or delete them; they are never read again")
    manifest = cache.read_manifest()
    if manifest:
        out(f"last gc: evicted {manifest['evicted_last_gc']} record(s) "
            f"down to {manifest['bytes']:,} bytes "
            f"(budget {manifest['max_bytes']:,})")
    if args.entries and entries:
        recent = list(reversed(entries))[:args.entries]
        out(format_table(
            ["key", "bytes", "age"],
            [[key[:16] + "…", f"{size:,}", _age(mtime)]
             for key, size, mtime in recent],
            title=f"{len(recent)} most recently used",
        ))
    return 0


def _age(mtime):
    import time

    seconds = max(0.0, time.time() - mtime)
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"


def _cmd_chaos(args, out):
    import json
    import pathlib

    from repro.runtime.chaos import CHAOS_FRONTENDS, ChaosSchedule, run_chaos

    frontends = (CHAOS_FRONTENDS if args.frontend == "all"
                 else (args.frontend,))
    schedule = None
    if args.schedule:
        doc = json.loads(pathlib.Path(args.schedule).read_text())
        schedule = ChaosSchedule.from_json(doc)
        out(f"replaying schedule {args.schedule} "
            f"({len(schedule.events)} event(s), seed {schedule.seed})")
    verdict = run_chaos(
        seed=args.seed, frontends=frontends, rounds=args.rounds,
        schedule=schedule, workdir=args.workdir, out=out,
    )
    from repro.report.tables import format_table

    rows = []
    for frontend in verdict["frontends"]:
        for row in verdict["results"][frontend]:
            for name, outcome in row["invariants"].items():
                rows.append([
                    frontend, row["round"], name,
                    "ok" if outcome["passed"] else "FAIL",
                    outcome["detail"][:48],
                ])
    out(format_table(
        ["frontend", "round", "invariant", "verdict", "detail"], rows,
        title=f"chaos campaign (seed {verdict['seed']}, "
              f"{verdict['rounds']} round(s))",
    ))
    stats = verdict["stats"]
    out(f"faults injected: {stats['injected']}; "
        f"recovered by retry: {stats['recovered_retry']}; "
        f"by hedge: {stats['recovered_hedge']}; "
        f"degraded fallbacks: {stats['degraded_fallback']}; "
        f"structured rejections: {stats['rejected']}; "
        f"resumed points: {stats['resumed']}; "
        f"LOST: {stats['lost']}")
    out("verdict: " + ("PASSED — every invariant held under fault "
                       "composition" if verdict["passed"]
                       else "FAILED — see the table above"))
    if args.artifact:
        path = pathlib.Path(args.artifact)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(verdict, indent=2, sort_keys=True,
                                   default=str) + "\n")
        out(f"verdict artifact written to {path}")
    return 0 if verdict["passed"] else 1


_COMMANDS = {
    "datasets": _cmd_datasets,
    "breakdown": _cmd_breakdown,
    "speedup": _cmd_speedup,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "multinode": _cmd_multinode,
    "resilience": _cmd_resilience,
    "check": _cmd_check,
    "advise": _cmd_advise,
    "calibrate": _cmd_calibrate,
    "validate": _cmd_validate,
    "roofline": _cmd_roofline,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "cache": _cmd_cache,
    "chaos": _cmd_chaos,
}


def main(argv=None, out=print):
    """CLI entry point; returns a process exit code."""
    from repro.runtime.errors import TaskError

    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except TaskError as error:
        out(f"error: {error.kind}: {error}")
        out("hint: completed points are checkpointed — rerun with "
            "--resume to continue, or --on-error skip|fallback to "
            "finish despite failures")
        return 3
    except (KeyError, ValueError) as error:
        out(f"error: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
