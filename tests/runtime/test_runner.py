"""Sweep-runner correctness: ordering, cache equivalence, parallelism.

The load-bearing property: however a sweep executes — sequentially, in
a process pool, cold, or from a warm cache — it returns records that
are *byte-identical* (canonical JSON) to each other and to the direct,
runner-free ``simulate_spmm`` path.
"""

import json
import os

import pytest

from repro.graphs.datasets import get_dataset
from repro.piuma import simulate_spmm
from repro.piuma.config import ENGINES
from repro.runtime import (
    FaultyTask,
    ProgressTracker,
    ResultCache,
    SpMMTask,
    SweepCheckpoint,
    default_workers,
    run_sweep,
    spmm_task,
)
from repro.runtime.shard import shard_tasks

WINDOW = dict(max_vertices=512, seed=0, window_edges=512)


def small_tasks():
    return [
        spmm_task("products", k, **WINDOW, n_cores=cores)
        for cores in (1, 2)
        for k in (8, 16)
    ]


#: Host-side measurements of *this run* — wall-clock dependent by
#: nature, so excluded from the byte-identity comparisons (the
#: simulation content must still match to the last bit).
HOST_TIMING_FIELDS = ("host_wall_s", "events_per_s")


def canon(records):
    stripped = [
        {k: v for k, v in record.items() if k not in HOST_TIMING_FIELDS}
        for record in records
    ]
    return json.dumps(stripped, sort_keys=True)


class TestOrderingAndEquivalence:
    def test_records_follow_task_order(self):
        tasks = small_tasks()
        report = run_sweep(tasks, workers=1)
        assert len(report.records) == len(tasks)
        for task, record in zip(report.tasks, report.records):
            assert record["embedding_dim"] == task.embedding_dim

    def test_sequential_equals_direct_path(self):
        task = spmm_task("products", 8, **WINDOW, n_cores=2)
        record = run_sweep([task], workers=1).records[0]
        adj = get_dataset("products").materialize(max_vertices=512, seed=0)
        direct = simulate_spmm(adj, 8, task.config(), kernel="dma",
                               window_edges=512)
        assert record["gflops"] == direct.gflops
        assert record["projected_time_ns"] == direct.projected_time_ns
        assert record["window_edges"] == direct.window_edges

    def test_parallel_equals_sequential(self):
        """Process-pool execution must not change a single byte of the
        results, only the wall-clock."""
        tasks = small_tasks()
        sequential = run_sweep(tasks, workers=1)
        parallel = run_sweep(tasks, workers=4)
        assert parallel.workers >= 2
        assert canon(parallel.records) == canon(sequential.records)

    def test_warm_cache_equals_cold(self, tmp_path):
        tasks = small_tasks()
        cache = ResultCache(directory=tmp_path)
        cold = run_sweep(tasks, workers=1, cache=cache)
        warm = run_sweep(tasks, workers=1, cache=cache)
        assert cold.cache_misses == len(tasks) and cold.cache_hits == 0
        assert warm.cache_hits == len(tasks) and warm.cache_misses == 0
        assert canon(warm.records) == canon(cold.records)

    def test_changed_point_misses_warm_cache(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        run_sweep(small_tasks(), workers=1, cache=cache)
        changed = [
            spmm_task("products", k, **WINDOW, n_cores=cores,
                      dram_latency_ns=90.0)
            for cores in (1, 2)
            for k in (8, 16)
        ]
        report = run_sweep(changed, workers=1, cache=cache)
        assert report.cache_hits == 0

    def test_salt_bump_invalidates_whole_sweep(self, tmp_path):
        tasks = small_tasks()
        run_sweep(tasks, workers=1,
                  cache=ResultCache(directory=tmp_path, salt="v1"))
        report = run_sweep(tasks, workers=1,
                           cache=ResultCache(directory=tmp_path, salt="v2"))
        assert report.cache_hits == 0

    def test_partial_warm_sweep_mixes_hits_and_misses(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        tasks = small_tasks()
        run_sweep(tasks[:2], workers=1, cache=cache)
        report = run_sweep(tasks, workers=1, cache=cache)
        assert report.cache_hits == 2
        assert report.cache_misses == len(tasks) - 2
        # And the mixed run still matches an all-cold baseline.
        baseline = run_sweep(tasks, workers=1)
        assert canon(report.records) == canon(baseline.records)

    def test_outcomes_name_where_each_record_came_from(self, tmp_path):
        """Per-task accounting, for callers that batch several runs."""
        ok = [FaultyTask(name=f"ok{i}", scratch=str(tmp_path))
              for i in range(3)]
        dead = FaultyTask(name="dead", scratch=str(tmp_path),
                          plan=("raise",))
        cache = ResultCache(directory=tmp_path / "cache")
        checkpoint = SweepCheckpoint(tmp_path / "sweep.manifest.jsonl")
        run_sweep(ok[:1], workers=1, checkpoint=checkpoint)
        run_sweep(ok[1:2], workers=1, cache=cache)
        report = run_sweep(ok + [dead], workers=1, cache=cache,
                           checkpoint=checkpoint, resume=True,
                           on_error="skip")
        assert report.outcomes == ["resumed", "cached", "computed",
                                   "failed"]
        assert (report.resumed, report.cache_hits,
                report.cache_misses) == (1, 1, 2)


class TestInstrumentation:
    def test_progress_tracker_sees_every_point(self, tmp_path):
        tasks = small_tasks()
        cache = ResultCache(directory=tmp_path)
        run_sweep(tasks, workers=1, cache=cache)
        lines = []
        progress = ProgressTracker(total=len(tasks), out=lines.append)
        report = run_sweep(tasks, workers=1, cache=cache,
                           progress=progress)
        assert progress.done == len(tasks)
        assert progress.cache_hits == len(tasks)
        assert len(lines) == len(tasks)
        assert all("cache" in line for line in lines)
        assert "4/4" in progress.summary()
        assert report.summary().startswith("4 point(s)")

    def test_record_schema(self):
        record = run_sweep(
            [spmm_task("products", 8, **WINDOW, n_cores=1)], workers=1
        ).records[0]
        for field in (
            "gflops", "projected_time_ns", "sim_time_ns",
            "memory_utilization", "achieved_bandwidth", "model_gflops",
            "model_time_ns", "efficiency", "tag_stats", "n_vertices",
            "n_edges", "window_edges", "total_edges",
        ):
            assert field in record, field
        # JSON-serializable end to end (no numpy scalars leaking out).
        json.dumps(record)
        for stats in record["tag_stats"].values():
            assert set(stats) == {"count", "bytes", "wait_ns"}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_provenance_fields(self, engine):
        """Every record names the engine that ran and the one event
        queue (perfbench's pinned record digests include both)."""
        task = spmm_task("products", 8, **WINDOW, n_cores=1, engine=engine)
        shard = shard_tasks("products", 8, 2, n_cores=1, engine=engine,
                            **WINDOW)[0]
        for record in (task.run(), task.fallback_record(), shard.run()):
            assert record["engine"] == engine
            assert record["scheduler"] == "heap"

    def test_task_label_names_the_point(self):
        task = spmm_task("products", 64, **WINDOW, n_cores=4)
        label = task.label()
        assert "products" in label and "K=64" in label
        assert "n_cores=4" in label


class TestRobustnessSatellites:
    def test_default_workers_integer_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert default_workers() == 3

    def test_default_workers_non_integer_env_warns_and_falls_back(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_SWEEP_WORKERS"):
            workers = default_workers()
        assert workers == max(1, min(4, os.cpu_count() or 1))

    def test_overrides_must_be_field_value_pairs(self):
        with pytest.raises(TypeError):
            SpMMTask(dataset="products", embedding_dim=8,
                     overrides=("n_cores",))
        with pytest.raises(TypeError):
            SpMMTask(dataset="products", embedding_dim=8,
                     overrides=((2, "n_cores"),))
        with pytest.raises(TypeError):
            SpMMTask(dataset="products", embedding_dim=8,
                     overrides=(("n_cores", 2, 3),))
        # The canonical builder still produces valid tasks.
        assert spmm_task("products", 8, n_cores=2).overrides == (
            ("n_cores", 2),
        )

    def test_cache_put_failure_does_not_abort_sweep(
        self, monkeypatch, tmp_path
    ):
        cache = ResultCache(directory=tmp_path)

        def full_disk(key, record, payload=None):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache, "put", full_disk)
        task = spmm_task("products", 8, **WINDOW, n_cores=1)
        with pytest.warns(RuntimeWarning, match="cache write failed"):
            report = run_sweep([task], workers=1, cache=cache)
        assert report.records[0]["gflops"] > 0
        assert report.cache_misses == 1

    def test_records_carry_simulation_provenance(self):
        record = run_sweep(
            [spmm_task("products", 8, **WINDOW, n_cores=1)], workers=1
        ).records[0]
        assert record["source"] == "simulation"


class TestValidationIntegration:
    def test_calibration_via_runner_matches_inline_path(self):
        """The runner-backed calibrate CLI path must reproduce the
        original in-process calibration numbers exactly."""
        from repro.validation import (
            calibrate_spmm_efficiency,
            calibration_from_records,
            calibration_tasks,
        )

        adj = get_dataset("power-12").materialize(max_vertices=2048, seed=0)
        inline = calibrate_spmm_efficiency(
            adj, core_counts=(1, 2), embedding_dims=(8,)
        )
        tasks = calibration_tasks(
            "power-12", core_counts=(1, 2), embedding_dims=(8,),
            max_vertices=2048,
        )
        report = run_sweep(tasks, workers=1)
        routed = calibration_from_records(report.tasks, report.records)
        assert routed.mean_efficiency == pytest.approx(
            inline.mean_efficiency
        )
        assert [p.des_gflops for p in routed.points] == [
            p.des_gflops for p in inline.points
        ]


class TestGraphMemo:
    """The per-process window memo is an LRU bounded by array bytes."""

    WINDOWS = [("arxiv", 512, seed) for seed in range(6)]

    @pytest.fixture
    def memo(self, monkeypatch):
        from collections import OrderedDict

        from repro.runtime import runner

        sizes = [runner._window_bytes(get_dataset(d).materialize(
            max_vertices=v, seed=s)) for d, v, s in self.WINDOWS]
        # Room for any two of the windows, and never for three.
        cap = 2 * max(sizes)
        assert sum(sorted(sizes)[:3]) > cap
        monkeypatch.setattr(runner, "GRAPH_MEMO_BYTES", cap)
        monkeypatch.setattr(runner, "_GRAPH_MEMO", OrderedDict())
        return runner

    def held(self, runner):
        return sum(map(runner._window_bytes, runner._GRAPH_MEMO.values()))

    def test_bytes_stay_under_the_cap(self, memo):
        for window in self.WINDOWS:
            memo._materialized(*window)
            assert self.held(memo) <= memo.GRAPH_MEMO_BYTES
            assert list(memo._GRAPH_MEMO)[-1] == window
        assert len(memo._GRAPH_MEMO) < len(self.WINDOWS)

    def test_hit_returns_the_same_object(self, memo):
        first = memo._materialized(*self.WINDOWS[0])
        assert memo._materialized(*self.WINDOWS[0]) is first

    def test_hit_refreshes_recency(self, memo):
        a = memo._materialized(*self.WINDOWS[0])
        memo._materialized(*self.WINDOWS[1])
        memo._materialized(*self.WINDOWS[0])
        memo._materialized(*self.WINDOWS[2])
        assert self.WINDOWS[1] not in memo._GRAPH_MEMO
        assert memo._materialized(*self.WINDOWS[0]) is a

    def test_rebuilt_after_eviction_is_identical(self, memo):
        first = memo._materialized(*self.WINDOWS[0])
        for window in self.WINDOWS[1:]:
            memo._materialized(*window)
        assert self.WINDOWS[0] not in memo._GRAPH_MEMO
        again = memo._materialized(*self.WINDOWS[0])
        assert again is not first
        for name in ("indptr", "indices", "data"):
            a, b = getattr(again, name), getattr(first, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_window_over_the_cap_is_returned_not_kept(self, memo,
                                                      monkeypatch):
        memo._materialized(*self.WINDOWS[0])
        monkeypatch.setattr(memo, "GRAPH_MEMO_BYTES", 1)
        big = memo._materialized(*self.WINDOWS[1])
        assert big.nnz > 0
        assert list(memo._GRAPH_MEMO) == [self.WINDOWS[0]]
