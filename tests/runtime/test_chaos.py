"""The chaos orchestrator: deterministic schedules, verified recovery.

The campaign itself is the test fixture of record for fault
*composition* — these tests pin the orchestrator's own contracts:
schedules derive deterministically from the seed and round-trip
through JSON; the task wrapper preserves the victim's cache identity
(what every resume / bit-identity invariant rests on); and a full
campaign over all three frontends passes with zero lost accepted work.
"""

import json

import pytest

from repro.runtime.chaos import (
    BATCH_CHAOS_POINTS,
    CHAOS_FRONTENDS,
    CHAOS_IDENTITY_FIELDS,
    ChaosSchedule,
    record_identity,
    run_chaos,
)
from repro.runtime.errors import SimulationDiverged
from repro.runtime.faults import FaultyTask
from repro.runtime.runner import spmm_task

pytestmark = pytest.mark.timeout(600)


class TestChaoticTask:
    """The chaos carrier: a :class:`FaultyTask` wrapping a real victim."""

    def test_key_payload_is_the_victims(self, tmp_path):
        victim = spmm_task("products", 8, max_vertices=512, seed=3)
        wrapped = FaultyTask(victim=victim, name="w", plan=("ok",),
                             scratch=str(tmp_path))
        assert wrapped.key_payload() == victim.key_payload()
        assert victim.label() in wrapped.label()

    def test_ok_attempt_runs_the_victim(self, tmp_path):
        victim = spmm_task("products", 8, max_vertices=512, seed=3)
        wrapped = FaultyTask(victim=victim, name="w", plan=("ok",),
                             scratch=str(tmp_path))
        assert record_identity(wrapped.run()) == \
            record_identity(victim.run())
        assert wrapped.attempts_made() == 1

    def test_plan_script_survives_across_instances(self, tmp_path):
        """Attempt markers live on disk, so a respawned process (a new
        deserialized instance) continues the same script."""
        victim = spmm_task("products", 8, max_vertices=512, seed=3)
        first = FaultyTask(victim=victim, name="w",
                           plan=("raise", "ok"), scratch=str(tmp_path))
        with pytest.raises(RuntimeError, match="injected"):
            first.run()
        clone = FaultyTask(victim=victim, name="w",
                           plan=("raise", "ok"), scratch=str(tmp_path))
        assert clone.run()["source"] == "simulation"

    def test_diverge_raises_unretryable(self, tmp_path):
        victim = spmm_task("products", 8, max_vertices=512, seed=3)
        wrapped = FaultyTask(victim=victim, name="d",
                             plan=("diverge",), scratch=str(tmp_path))
        with pytest.raises(SimulationDiverged):
            wrapped.run()

    def test_rejects_unknown_behaviors(self, tmp_path):
        victim = spmm_task("products", 8, max_vertices=512, seed=3)
        with pytest.raises(ValueError):
            FaultyTask(victim=victim, name="x", plan=("explode",),
                       scratch=str(tmp_path))
        with pytest.raises(ValueError):
            FaultyTask(victim=victim, name="x", plan=(),
                       scratch=str(tmp_path))

    def test_forwards_fallback_records(self, tmp_path):
        victim = spmm_task("products", 8, max_vertices=512, seed=3)
        wrapped = FaultyTask(victim=victim, name="f", plan=("ok",),
                             scratch=str(tmp_path))
        assert wrapped.fallback_record(None)["source"] == \
            "model_fallback"


class TestChaosSchedule:
    def test_same_seed_same_schedule(self):
        a = ChaosSchedule.generate(7, rounds=2)
        b = ChaosSchedule.generate(7, rounds=2)
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        seen = {json.dumps(ChaosSchedule.generate(s, rounds=2).to_json(),
                           sort_keys=True)
                for s in range(6)}
        assert len(seen) > 1

    def test_cells_are_independent_streams(self):
        """Adding rounds or dropping frontends never perturbs the
        events of the other (frontend, round) cells."""
        one = ChaosSchedule.generate(5, rounds=1)
        two = ChaosSchedule.generate(5, rounds=2)
        assert [e for e in two.events if e["round"] == 0] == one.events
        solo = ChaosSchedule.generate(5, frontends=("batch",), rounds=1)
        assert solo.events == [e for e in one.events
                               if e["frontend"] == "batch"]

    def test_json_round_trip(self):
        schedule = ChaosSchedule.generate(3, rounds=2)
        wire = json.loads(json.dumps(schedule.to_json()))
        again = ChaosSchedule.from_json(wire)
        assert again.to_json() == schedule.to_json()

    def test_every_cell_has_the_acceptance_faults(self):
        schedule = ChaosSchedule.generate(11, rounds=3)
        for rnd in range(3):
            batch = {e["point"]
                     for e in schedule.for_round("batch", rnd)}
            assert "kill_resume" in batch
            service = {e["point"]
                       for e in schedule.for_round("service", rnd)}
            assert "worker_crash_burst" in service
            multinode = {e["point"]
                         for e in schedule.for_round("multinode", rnd)}
            assert "shard_dead" in multinode

    def test_points_are_known(self):
        schedule = ChaosSchedule.generate(0, rounds=2)
        for event in schedule.events:
            if event["frontend"] == "batch":
                assert event["point"] in BATCH_CHAOS_POINTS

    def test_from_json_rejects_unknown_points(self):
        with pytest.raises(ValueError, match="fault point"):
            ChaosSchedule.from_json({
                "seed": 0,
                "events": [{"round": 0, "frontend": "batch",
                            "point": "meteor_strike"}],
            })
        with pytest.raises(ValueError, match="frontend"):
            ChaosSchedule.from_json({
                "seed": 0,
                "events": [{"round": 0, "frontend": "mainframe",
                            "point": "worker_crash"}],
            })

    def test_generate_rejects_unknown_frontend(self):
        with pytest.raises(ValueError, match="unknown frontend"):
            ChaosSchedule.generate(0, frontends=("mainframe",))


class TestIdentityProjection:
    def test_excludes_host_clock_fields(self):
        assert "host_wall_s" not in CHAOS_IDENTITY_FIELDS
        assert "events_per_s" not in CHAOS_IDENTITY_FIELDS
        record = {"sim_time_ns": 1.0, "host_wall_s": 0.2, "events": 9}
        twin = {"sim_time_ns": 1.0, "host_wall_s": 99.0, "events": 9}
        assert record_identity(record) == record_identity(twin)

    def test_detects_simulated_drift(self):
        record = {"sim_time_ns": 1.0}
        drifted = {"sim_time_ns": 1.5}
        assert record_identity(record) != record_identity(drifted)


@pytest.mark.slow
class TestCampaign:
    def test_full_campaign_passes_with_zero_lost_work(self, tmp_path):
        """The acceptance run: every frontend, one seeded round — all
        invariants hold and no accepted work is lost."""
        verdict = run_chaos(seed=0, rounds=1, workdir=tmp_path)
        assert verdict["passed"] is True
        assert verdict["stats"]["lost"] == 0
        assert verdict["stats"]["injected"] >= 6
        assert set(verdict["results"]) == set(CHAOS_FRONTENDS)
        batch = verdict["results"]["batch"][0]["invariants"]
        assert batch["no_lost_work"]["passed"]
        assert batch["bit_identity"]["passed"]
        assert batch["checkpoint_consistent"]["passed"]
        service = verdict["results"]["service"][0]["invariants"]
        assert service["breaker_closes"]["passed"]
        assert service["no_lost_work"]["passed"]
        multinode = verdict["results"]["multinode"][0]["invariants"]
        assert multinode["shard_fallback_provenance"]["passed"]
        assert multinode["degraded_envelope_verdict"]["passed"]
        assert multinode["conservation_exact"]["passed"]

    def test_schedule_replay_reproduces_the_verdict_shape(self,
                                                          tmp_path):
        """Replaying an explicit schedule document drives exactly the
        scheduled faults (the ``--schedule`` contract)."""
        schedule = {
            "seed": 42,
            "rounds": 1,
            "frontends": ["multinode"],
            "events": [
                {"round": 0, "frontend": "multinode",
                 "point": "shard_dead", "target": 3},
            ],
        }
        verdict = run_chaos(schedule=schedule,
                            frontends=("multinode",),
                            workdir=tmp_path)
        assert verdict["passed"] is True
        assert verdict["seed"] == 42
        row = verdict["results"]["multinode"][0]
        assert row["events"] == schedule["events"]
        assert row["stats"]["degraded_fallback"] == 1
        assert row["stats"]["verdict"]["verdict"] == "degraded"

    def test_cli_writes_artifact_and_exits_zero(self, tmp_path,
                                                capsys):
        from repro.cli import main

        artifact = tmp_path / "chaos.json"
        code = main([
            "chaos", "--seed", "1", "--frontend", "multinode",
            "--rounds", "1", "--artifact", str(artifact),
            "--workdir", str(tmp_path / "work"),
        ])
        assert code == 0
        doc = json.loads(artifact.read_text())
        assert doc["passed"] is True
        assert doc["schedule"]["events"]
        out = capsys.readouterr().out
        assert "PASSED" in out
