"""Tests for the differential conformance subsystem itself.

The acceptance bar lives here: at least four seeded accounting
perturbations, each caught by its *named* invariant at
``check_level >= 1``.  The rest covers the machinery around that bar —
deterministic case generation, shrinking, JSON round-trips, the
calibrated Eq. 5 envelopes, the loops the oracle pairs, and the
orchestrator.
"""

import json

import pytest

from repro.runtime.errors import InvariantViolation
from repro.testing import (
    MUTATIONS,
    ConformanceCase,
    differential_failures,
    generate_cases,
    run_case,
    run_conformance,
    run_mutation,
    shrink,
)
from repro.testing.metamorphic import metamorphic_failures
from repro.testing.oracle import ENVELOPES, model_efficiency


class TestCaseGeneration:
    def test_deterministic(self):
        assert generate_cases(6, seed=3) == generate_cases(6, seed=3)

    def test_prefix_stable_across_population_size(self):
        # "Re-run case 2" means the same case whatever --cases was.
        assert generate_cases(6, seed=3)[:3] == generate_cases(3, seed=3)

    def test_seed_changes_population(self):
        assert generate_cases(4, seed=0) != generate_cases(4, seed=1)

    def test_knobs_drawn_from_pools(self):
        for case in generate_cases(10, seed=0):
            assert case.kernel in ("dma", "loop", "vertex")
            assert case.scale in (7, 8, 9)
            assert case.n_cores in (1, 2, 4, 8)

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            generate_cases(0)

    def test_json_round_trip(self):
        case = generate_cases(1, seed=9)[0]
        clone = ConformanceCase.from_json(
            json.loads(json.dumps(case.to_json()))
        )
        assert clone == case


class TestShrinking:
    def test_shrinks_toward_minimum(self):
        case = generate_cases(1, seed=2)[0]
        # A "failure" that only needs embedding_dim >= 16: everything
        # else should be walked to its floor.
        shrunk = shrink(case, lambda c: c.embedding_dim >= 16)
        assert shrunk.embedding_dim == 16
        assert shrunk.scale == 6
        assert shrunk.n_cores == 1
        assert shrunk.kernel == case.kernel  # never changed
        assert shrunk.name.startswith(case.name)
        assert shrunk.name.endswith("'")

    def test_unshrinkable_failure_returns_original(self):
        case = generate_cases(1, seed=2)[0]
        assert shrink(case, lambda c: c == case) == case

    def test_attempt_budget_respected(self):
        case = generate_cases(1, seed=2)[0]
        calls = []

        def predicate(candidate):
            calls.append(candidate)
            return True

        shrink(case, predicate, max_attempts=5)
        assert len(calls) <= 5


class TestMutationsCaught:
    """>= 4 seeded perturbations, each caught by its named invariant
    at check_level >= 1."""

    def test_at_least_four_level1_mutations(self):
        assert sum(1 for m in MUTATIONS.values() if m.level == 1) >= 4

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_sanitizer_fires_with_exact_attribution(self, name):
        # Every seeded perturbation must be caught by its named
        # invariant.  A checked run cannot replay, so it takes the
        # reference loop; replay's counters are held to that loop by
        # the differential oracle instead.
        mutation = MUTATIONS[name]
        assert mutation.level >= 1
        error = run_mutation(name)
        assert isinstance(error, InvariantViolation), (
            f"sanitizer missed mutation {name!r}"
        )
        assert error.invariant == mutation.invariant

    def test_mutations_are_clean_without_sanitizer(self):
        # Patches restore themselves: a clean run after the whole
        # mutation battery must still pass the full-depth sanitizer.
        case = generate_cases(1, seed=0)[0]
        assert differential_failures(case, check_level=2) == []


class TestOracle:
    def test_envelopes_calibrated(self):
        # Every kernel's DES-vs-Eq.5 efficiency must sit inside its
        # published envelope on the seeded population the harness uses;
        # reshaping the fluid model means recalibrating ENVELOPES.
        seen = set()
        for case in generate_cases(12, seed=0):
            efficiency = model_efficiency(case, run_case(case))
            low, high = ENVELOPES[case.kernel]
            assert low <= efficiency <= high, (
                f"{case.name} ({case.kernel}): {efficiency:.4f} "
                f"outside [{low}, {high}]"
            )
            seen.add(case.kernel)
        assert seen == set(ENVELOPES)

    def test_clean_case_has_no_failures(self):
        case = generate_cases(1, seed=0)[0]
        assert differential_failures(case, check_level=2) == []

    def test_level0_engine_matrix(self):
        # At check_level=0 both legs run unchecked: replay against the
        # plain reference loop.
        case = generate_cases(1, seed=0)[0]
        assert differential_failures(case, check_level=0) == []

    def test_replay_checked_against_sanitized_reference(self, loop_calls):
        # A checked run cannot replay, so the oracle pairs one
        # unchecked replay with one sanitized reference run.
        case = generate_cases(1, seed=0)[0]
        assert case.n_shards == 1
        assert differential_failures(case, check_level=2) == []
        assert sorted(loop_calls) == ["reference", "replay"]


def test_metamorphic_relations_hold_on_smoke_case():
    case = generate_cases(1, seed=0)[0]
    assert metamorphic_failures(case) == []


class TestRunConformance:
    def test_small_population_passes(self, tmp_path):
        artifact = tmp_path / "report" / "conformance.json"
        report = run_conformance(
            n_cases=2, seed=0, check_level=2,
            metamorphic=False, mutations=False, artifact=artifact,
        )
        assert report.passed
        assert report.cases == 2
        assert "PASS" in report.summary()
        data = json.loads(artifact.read_text())
        assert data["passed"] is True
        assert data["check_level"] == 2

    def test_progress_callback_sees_every_case(self):
        lines = []
        report = run_conformance(
            n_cases=2, seed=0, check_level=1,
            metamorphic=False, mutations=False, out=lines.append,
        )
        assert report.passed
        assert sum(": ok" in line for line in lines) == 2
