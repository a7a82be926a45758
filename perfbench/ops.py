"""One batch operation of the benchmark, in a fresh interpreter.

    python3 perfbench/ops.py WORKLOAD --window-seed N --work DIR
        --result FILE [--trace]

``sweep-cold`` runs the paper's Fig 5 grid through ``run_sweep`` with
the default engine and pool width; ``multinode-recover`` runs the
``repro multinode --recover`` strong-scaling study (the same library
call that subcommand makes).  Both write into an empty cache under
``DIR``.  The op times only the call itself and checks its outputs
after the timed region; the result goes to ``FILE`` as JSON.
"""

import argparse
import hashlib
import json
import os
import sys
import time

FIG5_CORES = (1, 2, 4, 8, 16, 32)
FIG5_KERNELS = ("dma", "loop")
FIG5_K = 256
STUDY_NODES = (1, 2, 4, 8)
STUDY_STRATEGIES = ("block", "degree")
STUDY_K = 128
WINDOW = 16384

#: Host-clock fields: the only record fields that differ between runs.
HOST_FIELDS = ("host_wall_s", "events_per_s")


def digest(document):
    text = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def simulated(record):
    return {k: v for k, v in record.items() if k not in HOST_FIELDS}


def sweep_cold(seed, cache):
    from repro.runtime import ProgressTracker, run_sweep, spmm_task

    tasks = [
        spmm_task("products", FIG5_K, kernel=kernel, max_vertices=WINDOW,
                  seed=seed, n_cores=cores)
        for cores in FIG5_CORES for kernel in FIG5_KERNELS
    ]
    progress = ProgressTracker(total=len(tasks))
    started = time.perf_counter()
    report = run_sweep(tasks, cache=cache, progress=progress)
    ended = time.perf_counter()

    errors = []
    if report.failures or report.cache_hits:
        errors.append(f"{len(report.failures)} failure(s), "
                      f"{report.cache_hits} cache hit(s) in a cold sweep")
    errors += [f"point {i}: source {r.get('source')}"
               for i, r in enumerate(report.records)
               if r.get("source") != "simulation"]
    return started, ended, {
        "units": [p.wall_s for p in progress.points if not p.cached],
        "digest": digest([simulated(r) for r in report.records]),
        "errors": errors,
    }


def multinode_recover(seed, cache):
    from repro.piuma.config import PIUMAConfig
    from repro.piuma.multinode import strong_scaling
    from repro.runtime import ProgressTracker
    from repro.runtime.runner import _materialized
    from repro.runtime.shard import ShardRecovery, conserved_counters

    progress = ProgressTracker(total=sum(STUDY_NODES) * 2)
    # The keyword set `repro multinode --recover` passes by default.
    sweep_kwargs = {
        "workers": None, "cache": cache, "timeout": None, "retries": 0,
        "on_error": "raise", "check_level": None, "engine": None,
        "scheduler": None, "progress": progress,
    }
    started = time.perf_counter()
    study = strong_scaling(
        "papers", nodes=STUDY_NODES, strategies=STUDY_STRATEGIES,
        embedding_dim=STUDY_K, kernel="dma", max_vertices=WINDOW,
        seed=seed, sweep_kwargs=sweep_kwargs,
        checkpoint_dir=cache.directory, resume=False,
        recovery=ShardRecovery(retries=1),
    )
    ended = time.perf_counter()

    rows = study["rows"]
    adj = _materialized("papers", WINDOW, seed)
    whole = conserved_counters(adj.n_rows, adj.nnz, STUDY_K, PIUMAConfig())
    errors = []
    for row in rows:
        where = f"{row['strategy']}@{row['n_nodes']}"
        if row["conserved"] != whole:
            errors.append(f"{where}: shard counters do not sum to the "
                          "monolithic totals")
        if row["failures"] or row["degraded_shards"]:
            errors.append(f"{where}: {row['degraded_shards']} shard_fallback")
        if row["envelope_verdict"]["verdict"] != "ok":
            errors.append(f"{where}: verdict "
                          f"{row['envelope_verdict']['verdict']}")
    stable = [{k: v for k, v in row.items() if k != "recovery"}
              for row in rows]
    return started, ended, {
        "units": [p.wall_s for p in progress.points if not p.cached],
        "digest": digest(stable),
        "errors": errors,
    }


WORKLOADS = {"sweep-cold": sweep_cold, "multinode-recover": multinode_recover}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--window-seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.runtime import ResultCache

    if args.trace:
        import tracing

        tracing.install(os.path.join(args.work, "spans"))
    cache = ResultCache(directory=os.path.join(args.work, "cache"))
    started, ended, result = WORKLOADS[args.workload](args.window_seed,
                                                      cache)
    if args.trace:
        tracing.dump()
    result.update(started=started, ended=ended)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
