"""The per-shard failure model: retry, hedging, partial assembly.

DESIGN.md §13: a multi-node run is a set of independent failure
domains (one per shard).  :func:`run_shards` gives each domain a
bounded retry budget, speculatively re-executes stragglers (first
result wins, the loser is cancelled), and — when a domain exhausts its
budget under the default ``"fallback"`` policy — degrades that shard
to its Eq.5 estimate with ``"source": "shard_fallback"`` provenance so
the assembly completes with an explicit degraded-envelope verdict
instead of aborting the whole campaign.
"""

import pytest

from repro.piuma.config import PIUMAConfig
from repro.piuma.multinode import (
    multinode_verdict,
    run_multinode,
    strong_scaling,
)
from repro.runtime.cache import ResultCache
from repro.runtime.checkpoint import SweepCheckpoint
from repro.runtime.errors import TaskError
from repro.runtime.faults import FaultyTask
from repro.runtime.progress import ProgressTracker
from repro.runtime.shard import (
    ON_EXHAUSTED_POLICIES,
    ShardRecovery,
    ShardRunReport,
    ShardTask,
    run_shards,
    shard_tasks,
)

pytestmark = pytest.mark.timeout(300)


def _faulty(scratch, name, plan, **kwargs):
    return FaultyTask(name=name, scratch=str(scratch), plan=plan,
                      **kwargs)


class TestShardRecoverySpec:
    def test_defaults(self):
        spec = ShardRecovery()
        assert spec.retries == 1
        assert spec.on_exhausted == "fallback"
        assert spec.hedge_after_s is None

    @pytest.mark.parametrize("bad", [
        {"retries": -1},
        {"on_exhausted": "explode"},
        {"hedge_factor": 1.0},
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            ShardRecovery(**bad)

    def test_policies_constant(self):
        assert set(ON_EXHAUSTED_POLICIES) == {"fallback", "raise"}


class TestBoundedRetry:
    def test_injected_exception_recovers_on_retry(self, tmp_path):
        tasks = [_faulty(tmp_path, "flaky", ("raise", "ok")),
                 _faulty(tmp_path, "steady", ("ok",))]
        report = run_shards(tasks, ShardRecovery(retries=2), workers=2)
        assert isinstance(report, ShardRunReport)
        assert [r["source"] for r in report.records] == \
            ["simulation", "simulation"]
        assert report.records[0]["recovery"]["attempts"] >= 2
        assert report.recovery["retries"] >= 1
        assert not report.failures

    def test_worker_crash_recovers_on_retry(self, tmp_path):
        tasks = [_faulty(tmp_path, "boom", ("crash", "ok")),
                 _faulty(tmp_path, "calm", ("ok",))]
        report = run_shards(tasks, ShardRecovery(retries=2), workers=2)
        assert [r["source"] for r in report.records] == \
            ["simulation", "simulation"]
        assert report.recovery["crashes"] >= 1

    def test_exhausted_budget_degrades_to_fallback(self, tmp_path):
        tasks = [_faulty(tmp_path, "dead", ("raise",)),
                 _faulty(tmp_path, "fine", ("ok",))]
        report = run_shards(tasks, ShardRecovery(retries=1), workers=2)
        assert report.records[0]["source"] == "model_fallback"
        assert report.records[1]["source"] == "simulation"
        assert report.recovery["fallbacks"] == 1
        assert len(report.failures) == 1
        assert report.failures[0]["label"] == "fault:dead"

    def test_on_exhausted_raise_propagates(self, tmp_path):
        tasks = [_faulty(tmp_path, "fatal", ("raise",))]
        with pytest.raises(TaskError):
            run_shards(
                tasks,
                ShardRecovery(retries=0, on_exhausted="raise"),
                workers=2,
            )

    def test_timeout_kills_and_retries(self, tmp_path):
        # hedge_after_s is pinned high so the adaptive hedger does not
        # rescue the hung shard first — this test wants the timeout.
        tasks = [_faulty(tmp_path, "stuck", ("hang", "ok")),
                 _faulty(tmp_path, "quick", ("ok",))]
        report = run_shards(
            tasks,
            ShardRecovery(retries=2, timeout=3.0, hedge_after_s=60.0),
            workers=2,
        )
        assert [r["source"] for r in report.records] == \
            ["simulation", "simulation"]
        assert report.recovery["timeouts"] >= 1

    def test_lone_shard_timeout_is_enforced(self, tmp_path):
        """A single pending shard under a timeout still runs on the
        pool, where a hang can be killed: the timeout is charged and
        the retry succeeds instead of the hang being waited out."""
        tasks = [_faulty(tmp_path, "lone", ("hang", "ok"), hang_s=8.0)]
        report = run_shards(
            tasks,
            ShardRecovery(retries=1, timeout=1.0, hedge_after_s=60.0),
            workers=2,
        )
        assert report.recovery["timeouts"] == 1
        assert report.records[0]["source"] == "simulation"

    def test_inline_path_retries_without_a_pool(self, tmp_path):
        tasks = [_faulty(tmp_path, "solo", ("raise", "ok"))]
        report = run_shards(tasks, ShardRecovery(retries=1), workers=1)
        assert report.workers == 1
        assert report.records[0]["source"] == "simulation"


class TestHedging:
    def test_straggler_loses_to_hedge(self, tmp_path):
        """The primary hangs; the speculative duplicate finishes first
        and wins, and the hung loser is cancelled, not awaited."""
        tasks = [
            _faulty(tmp_path, "slow", ("hang", "ok"), hang_s=60.0),
            _faulty(tmp_path, "a", ("ok",)),
            _faulty(tmp_path, "b", ("ok",)),
        ]
        report = run_shards(
            tasks,
            ShardRecovery(retries=1, timeout=120.0, hedge_after_s=0.3),
            workers=2,
        )
        assert report.wall_s < 60.0
        assert all(r["source"] == "simulation" for r in report.records)
        assert report.recovery["hedges_launched"] >= 1
        assert report.recovery["hedges_won"] >= 1
        assert report.records[0]["recovery"]["hedged"] is True
        assert report.records[0]["recovery"]["winner"] == "hedge"

    def test_no_hedges_without_stragglers(self, tmp_path):
        tasks = [_faulty(tmp_path, f"t{i}", ("ok",)) for i in range(3)]
        report = run_shards(
            tasks, ShardRecovery(retries=1, hedge_after_s=30.0),
            workers=2,
        )
        assert report.recovery["hedges_launched"] == 0
        assert all(r["recovery"]["hedged"] is False
                   for r in report.records)


class TestCacheAndCheckpoint:
    def test_cache_hits_resolve_without_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = [_faulty(tmp_path / "m1", "warm", ("ok",))]
        first = run_shards(tasks, ShardRecovery(), workers=1,
                           cache=cache)
        # Second run would raise if executed — the cache answers.
        rerun = [_faulty(tmp_path / "m2", "warm", ("ok",))]
        second = run_shards(rerun, ShardRecovery(), workers=1,
                            cache=cache)
        assert second.cache_hits == 1
        assert second.records == first.records

    def test_fallback_records_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = [_faulty(tmp_path / "m", "dud", ("raise",))]
        report = run_shards(tasks, ShardRecovery(retries=0), workers=1,
                            cache=cache)
        assert report.records[0]["source"] == "model_fallback"
        assert cache.get(cache.key_for(tasks[0].key_payload())) is None

    def test_resume_restores_completed_shards(self, tmp_path):
        tasks = [_faulty(tmp_path / "m1", f"p{i}", ("ok",))
                 for i in range(2)]
        checkpoint = SweepCheckpoint.for_tasks(
            tasks, directory=tmp_path / "ckpt"
        )
        run_shards(tasks, ShardRecovery(), workers=1,
                   checkpoint=checkpoint)
        rerun = [_faulty(tmp_path / "m2", f"p{i}", ("ok",))
                 for i in range(2)]
        report = run_shards(rerun, ShardRecovery(), workers=1,
                            checkpoint=checkpoint, resume=True)
        assert report.resumed == 2


_POINT = dict(max_vertices=2048, seed=0)


def _sabotage(plans, scratch):
    def apply(tasks):
        return [
            FaultyTask(victim=task, name=f"s{i}", scratch=str(scratch),
                       plan=plans.get(i, ("ok",)), hang_s=60.0)
            for i, task in enumerate(tasks)
        ]
    return apply


class TestPartialAssembly:
    @pytest.fixture(scope="class")
    def baseline(self):
        estimate, _report = run_multinode(
            "products", 4, sweep_kwargs={"workers": 2}, **_POINT
        )
        return estimate

    def test_clean_recovery_run_is_bit_identical(self, baseline,
                                                 tmp_path):
        estimate, report = run_multinode(
            "products", 4, sweep_kwargs={"workers": 2},
            recovery=ShardRecovery(retries=1), **_POINT
        )
        assert estimate.time_ns == baseline.time_ns
        assert estimate.per_shard_ns == baseline.per_shard_ns
        assert estimate.degraded_shards == 0
        assert not estimate.degraded
        verdict = multinode_verdict(estimate, PIUMAConfig())
        assert verdict["verdict"] == "ok"
        assert verdict["widened"] == 1.0

    def test_dead_shard_degrades_instead_of_raising(self, baseline,
                                                    tmp_path):
        """One permanently failed shard: the run completes, the failed
        shard carries shard_fallback provenance, conservation still
        sums exactly, and the verdict is an explicit ``degraded``."""
        estimate, report = run_multinode(
            "products", 4, sweep_kwargs={"workers": 2},
            recovery=ShardRecovery(retries=1),
            task_filter=_sabotage({2: ("raise",)}, tmp_path), **_POINT
        )
        assert estimate.degraded
        assert estimate.degraded_shards == 1
        assert estimate.shard_sources[2] == "shard_fallback"
        assert estimate.conserved == baseline.conserved
        # Surviving shards are untouched by the neighbor's death.
        for i in (0, 1, 3):
            assert estimate.per_shard_ns[i] == baseline.per_shard_ns[i]
        verdict = multinode_verdict(estimate, PIUMAConfig())
        assert verdict["verdict"] == "degraded"
        assert verdict["widened"] > 1.0
        assert verdict["degraded_shards"] == 1
        low, high = verdict["envelope"]
        assert low <= verdict["ratio"] <= high

    def test_crashed_shard_recovers_bit_identically(self, baseline,
                                                    tmp_path):
        estimate, report = run_multinode(
            "products", 4, sweep_kwargs={"workers": 2},
            recovery=ShardRecovery(retries=2),
            task_filter=_sabotage({0: ("crash", "ok")}, tmp_path),
            **_POINT
        )
        assert estimate.degraded_shards == 0
        assert estimate.time_ns == baseline.time_ns
        assert estimate.per_shard_ns == baseline.per_shard_ns
        assert report.recovery["crashes"] >= 1

    def test_without_recovery_a_dead_shard_still_raises(self, tmp_path):
        """The legacy path is unchanged: a skipped shard aborts the
        assembly, and the error now points at the recovery spec."""
        with pytest.raises(RuntimeError, match="ShardRecovery"):
            run_multinode(
                "products", 4,
                sweep_kwargs={"workers": 2, "on_error": "skip"},
                task_filter=_sabotage({1: ("raise",)}, tmp_path),
                **_POINT
            )

    def test_verdict_violated_outside_widened_envelope(self, baseline):
        """Even a degraded run is bounded: a ratio outside the widened
        envelope is still ``violated``, not silently excused."""
        verdict = multinode_verdict(baseline, PIUMAConfig(),
                                    kernel="vertex")
        # The dma-kernel estimate judged against the (tighter) vertex
        # envelope: the check itself must be live, whatever the verdict.
        assert verdict["verdict"] in ("ok", "violated")
        assert verdict["kernel"] == "vertex"


class TestStudyRecovery:
    """A strong-scaling study under ``recovery=`` is one shard batch."""

    STUDY = dict(nodes=(1, 2), strategies=("block", "degree"),
                 embedding_dim=32, max_vertices=1024, seed=3)

    def test_failures_count_only_the_points_fallbacks(self, monkeypatch):
        run = ShardTask.run

        def dead_shard(self):
            if (self.strategy, self.n_shards, self.shard) == ("degree", 2, 1):
                raise RuntimeError("injected shard death")
            return run(self)

        monkeypatch.setattr(ShardTask, "run", dead_shard)
        study = strong_scaling(
            "arxiv", sweep_kwargs={"workers": 1},
            recovery=ShardRecovery(retries=0), **self.STUDY
        )
        failures = {(r["strategy"], r["n_nodes"]):
                    (r["failures"], r["degraded_shards"])
                    for r in study["rows"]}
        assert failures == {("block", 1): (0, 0), ("block", 2): (0, 0),
                            ("degree", 1): (0, 0), ("degree", 2): (1, 1)}
        assert study["recovery"]["fallbacks"] == 1
        assert study["recovery"]["attempts"] == 6

    def test_runs_with_the_benchmark_keyword_set(self, tmp_path):
        """``perfbench/ops.py``'s ``multinode-recover`` op passes exactly
        this dict, ``"scheduler": None`` included; under ``recovery=``
        the study must read only the keys it honors."""
        cache = ResultCache(directory=tmp_path)
        progress = ProgressTracker(total=6)
        sweep_kwargs = {
            "workers": None, "cache": cache, "timeout": None, "retries": 0,
            "on_error": "raise", "check_level": None, "engine": None,
            "scheduler": None, "progress": progress,
        }
        study = strong_scaling(
            "arxiv", sweep_kwargs=sweep_kwargs,
            checkpoint_dir=cache.directory, resume=False,
            recovery=ShardRecovery(retries=1), **self.STUDY
        )
        assert [r["failures"] for r in study["rows"]] == [0, 0, 0, 0]
        assert study["recovery"]["fallbacks"] == 0
        assert progress.done == 6
        assert not list(tmp_path.glob("*.manifest.jsonl"))
