"""Degradation through the sweep runtime: provenance, cache, determinism.

The runtime-facing promises of the degraded-fabric model: a spec rides
the task's override tuple into the content-addressed cache key (healthy
and degraded records can never collide), every degraded record carries
a ``"degradation"`` provenance field next to ``"source"``, and the same
seed + spec produces bit-identical records however the sweep executes —
sequentially, across a process pool, across a pool-respawn retry, and
across a checkpoint ``--resume``.
"""

import json
from dataclasses import asdict

import pytest

from repro.piuma.degradation import DEGRADATION_PRESETS, DegradationSpec
from repro.runtime import (
    HardwareExhausted,
    ResultCache,
    SweepCheckpoint,
    cache_key,
    run_sweep,
    spmm_task,
)

WINDOW = dict(max_vertices=512, seed=0, window_edges=512)
SPEC = DegradationSpec.at_severity(0.5)

#: Wall-clock-dependent record fields excluded from byte-identity.
HOST_TIMING_FIELDS = ("host_wall_s", "events_per_s")


def degraded_task(embedding_dim=8, n_cores=2, spec=SPEC):
    return spmm_task(
        "products", embedding_dim, **WINDOW, n_cores=n_cores,
    ).with_config(degradation=spec)


def canon(records):
    stripped = [
        {k: v for k, v in record.items() if k not in HOST_TIMING_FIELDS}
        for record in records
    ]
    return json.dumps(stripped, sort_keys=True)


class TestTaskAndCacheIdentity:
    def test_with_degradation_merges_override(self):
        task = degraded_task()
        assert task.config().degradation == SPEC
        assert dict(task.overrides)["degradation"] == SPEC

    def test_with_degradation_none_restores_healthy(self):
        task = degraded_task().with_config(degradation=None)
        assert task.config().degradation is None

    def test_healthy_and_degraded_keys_never_collide(self):
        healthy = spmm_task("products", 8, **WINDOW, n_cores=2)
        keys = {cache_key(healthy.key_payload())}
        keys.add(cache_key(degraded_task().key_payload()))
        for preset in DEGRADATION_PRESETS.values():
            keys.add(cache_key(
                healthy.with_config(degradation=preset).key_payload()
            ))
        # SPEC is the "moderate" preset, so those two keys *should*
        # alias (equal specs are the same point); everything else is
        # distinct.
        assert len(keys) == 1 + len(DEGRADATION_PRESETS)

    def test_spec_seed_is_part_of_the_key(self):
        a = degraded_task(spec=SPEC)
        b = degraded_task(spec=SPEC.with_(seed=1))
        assert cache_key(a.key_payload()) != cache_key(b.key_payload())

    def test_cached_degraded_record_round_trips(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        task = degraded_task()
        cold = run_sweep([task], workers=1, cache=cache)
        warm = run_sweep([task], workers=1, cache=cache)
        assert warm.cache_hits == 1
        assert canon(cold.records) == canon(warm.records)
        assert warm.records[0]["degradation"] == asdict(SPEC)


class TestProvenance:
    def test_degraded_record_carries_spec(self):
        record = run_sweep([degraded_task()], workers=1).records[0]
        assert record["source"] == "simulation"
        assert record["degradation"] == asdict(SPEC)

    def test_healthy_record_has_no_degradation_field(self):
        record = run_sweep(
            [spmm_task("products", 8, **WINDOW, n_cores=2)], workers=1
        ).records[0]
        assert "degradation" not in record

    def test_fallback_record_carries_spec_too(self):
        record = degraded_task().fallback_record()
        assert record["source"] == "model_fallback"
        assert record["degradation"] == asdict(SPEC)

    def test_run_sweep_degradation_kwarg_rewrites_tasks(self):
        tasks = [spmm_task("products", 8, **WINDOW, n_cores=2)]
        report = run_sweep(tasks, workers=1, degradation=SPEC)
        assert report.records[0]["degradation"] == asdict(SPEC)
        assert report.tasks[0].config().degradation == SPEC

    def test_exhausted_fabric_is_a_structured_failure(self):
        dead = degraded_task(spec=DegradationSpec(dead_dma_fraction=1.0))
        with pytest.raises(HardwareExhausted):
            run_sweep([dead], workers=1)
        # Never retried, surfaced as a payload under the skip policy.
        report = run_sweep([dead], workers=1, on_error="skip", retries=2)
        failure = report.records[0]
        assert failure["source"] == "failed"
        assert failure["error"]["kind"] == "exhausted"
        assert failure["error"]["attempts"] == 1


class TestDeterminism:
    def test_pool_equals_sequential(self):
        tasks = [degraded_task(k, cores)
                 for cores in (1, 2) for k in (8, 16)]
        sequential = run_sweep(tasks, workers=1)
        pooled = run_sweep(tasks, workers=4)
        assert canon(sequential.records) == canon(pooled.records)

    def test_identical_across_pool_respawn_retry(self, tmp_path):
        """A record computed on attempt 2 (after a worker death forced a
        pool respawn) must be bit-identical to a clean first-attempt
        run of the same degraded task."""
        from repro.runtime.faults import FaultyTask

        clean = run_sweep([degraded_task()], workers=1).records[0]
        crasher = FaultyTask(
            name="respawn", scratch=str(tmp_path), plan=("crash", "ok")
        )
        report = run_sweep(
            [crasher, degraded_task()], workers=2, retries=1
        )
        assert crasher.attempts_made() >= 2
        retried = report.records[1]
        assert canon([clean]) == canon([retried])

    def test_identical_across_resume(self, tmp_path):
        tasks = [degraded_task(k) for k in (8, 16)]
        cache = ResultCache(directory=tmp_path, enabled=False)
        checkpoint = SweepCheckpoint.for_tasks(tasks, directory=tmp_path)
        full = run_sweep(tasks, workers=1, cache=cache,
                         checkpoint=checkpoint)
        # Simulate an interrupted campaign: the manifest survives with
        # only the first point, the rerun resumes the rest.
        records = checkpoint.load()
        first_key = cache_key(tasks[0].key_payload())
        checkpoint.discard()
        checkpoint.flush(first_key, records[first_key])
        resumed = run_sweep(tasks, workers=1, cache=cache,
                            checkpoint=checkpoint, resume=True)
        assert resumed.resumed == 1
        assert canon(full.records) == canon(resumed.records)
