"""The sharded axis of the conformance population.

A case may now carry ``(n_shards, partition_strategy)``: the oracle
then runs every shard through the engine matrix (bit-identity per
shard) and holds the *assembled* multi-node estimate inside the
Eq.5-derived DGAS envelope of ``repro.ext.distributed``.  The axis
rides the trailing-draw compatibility rule — populations generated
before it existed are byte-for-byte unchanged.
"""

import pytest

from repro.graphs.partition import PARTITION_STRATEGIES
from repro.testing import generate_cases, run_sharded_case, shrink
from repro.testing.cases import _SHARD_POOL, ConformanceCase
from repro.testing.oracle import (
    assembled_case_estimate,
    case_signature,
    differential_failures,
    run_case,
)


def _first_sharded(n=200, seed=0, healthy=None):
    for case in generate_cases(n, seed=seed):
        if case.n_shards <= 1:
            continue
        if healthy is not None and (case.degradation is None) != healthy:
            continue
        return case
    raise AssertionError("no sharded case in population")


class TestGeneration:
    def test_trailing_draw_keeps_historical_knobs(self):
        # The shard axis is drawn after every historical knob, so the
        # pre-shard fields of the seeded population must match a
        # pinned sample generated before the axis existed.
        case = generate_cases(1, seed=0)[0]
        historical = {
            "scale": case.scale, "edge_factor": case.edge_factor,
            "graph_seed": case.graph_seed, "kernel": case.kernel,
            "embedding_dim": case.embedding_dim, "n_cores": case.n_cores,
            "window_edges": case.window_edges,
        }
        assert historical == {
            "scale": 9, "edge_factor": 16, "graph_seed": 23794,
            "kernel": "loop", "embedding_dim": 16, "n_cores": 4,
            "window_edges": 2048,
        }

    def test_population_contains_sharded_and_monolithic(self):
        cases = generate_cases(60, seed=0)
        shard_counts = {case.n_shards for case in cases}
        assert 1 in shard_counts
        assert shard_counts - {1}, "no sharded case drawn in 60"
        assert shard_counts <= set(_SHARD_POOL)
        strategies = {c.partition_strategy for c in cases if c.n_shards > 1}
        assert strategies <= set(PARTITION_STRATEGIES)

    def test_defaults_keep_old_json_loadable(self):
        # A case serialized before the shard axis has no such keys.
        case = generate_cases(1, seed=0)[0]
        data = case.to_json()
        del data["n_shards"], data["partition_strategy"]
        clone = ConformanceCase.from_json(data)
        assert clone.n_shards == 1
        assert clone.partition_strategy == "block"


class TestShrinking:
    def test_monolithic_tried_first(self):
        case = _first_sharded()
        tried = []
        shrink(case, lambda c: tried.append(c) or False, max_attempts=8)
        assert any(c.n_shards == 1 for c in tried)

    def test_shard_count_halves(self):
        case = _first_sharded()
        if case.n_shards < 4:
            case = ConformanceCase(**{**case.to_json(), "n_shards": 4})
        shrunk = shrink(case, lambda c: c.n_shards >= 2)
        assert shrunk.n_shards == 2


class TestShardedOracle:
    def test_signature_nests_per_shard(self):
        case = _first_sharded()
        shards = run_sharded_case(case, engine="fast")
        sig = case_signature(case, shards)
        assert set(sig) == {f"shard{i}" for i in range(case.n_shards)}
        # Monolithic outcomes keep the historical flat signature.
        mono = generate_cases(1, seed=0)[0]
        flat = case_signature(mono, run_case(mono))
        assert "sim_time_ns" in flat

    def test_assembly_conserves_edges(self):
        case = _first_sharded()
        shards = run_sharded_case(case, engine="fast")
        estimate = assembled_case_estimate(case, shards)
        assert estimate.total_edges == case.graph().nnz
        assert estimate.n_nodes == case.n_shards
        assert estimate.compute_ns > 0

    def test_healthy_sharded_case_passes_all_legs(self):
        case = _first_sharded(healthy=True)
        assert differential_failures(case, check_level=2) == []

    def test_degraded_sharded_case_skips_envelope(self):
        case = _first_sharded(healthy=False)
        failures = differential_failures(case, check_level=2)
        assert not [f for f in failures
                    if f["check"].startswith("multinode-envelope")]

    @pytest.mark.slow
    def test_engine_matrix_bit_identical_on_sharded_case(self):
        # Every shard replays unchecked and runs the reference loop
        # with the level-1 sanitizer armed.
        case = _first_sharded(healthy=True)
        assert differential_failures(case, check_level=1) == []
