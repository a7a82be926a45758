"""Degraded-fabric model: spec, membership, rerouting, placements.

Covers the deterministic fault-injection layer of the DES
(``repro.piuma.degradation``): spec validation and serialization, the
nested (monotone) membership draws, the link max-rule that keeps the
graceful-degradation curve monotone, thread redistribution over
surviving pipelines, the stall-window arithmetic, the network memo
invalidation (the historical stale-memo hazard), and a randomized
fast-vs-reference differential fuzz under fault specs — the degraded
mirror of ``tests/piuma/test_engine_fastpath.py``.
"""

import random

import pytest

from repro.graphs.rmat import rmat_for_size
from repro.piuma import simulate_spmm
from repro.piuma.config import PIUMAConfig
from repro.piuma.degradation import (
    DEGRADATION_PRESETS,
    DegradationModel,
    DegradationSpec,
    _hit,
    effective_total_bandwidth,
    thread_placements,
)
from repro.piuma.network import Network
from repro.piuma.resources import DRAMSlice
from repro.runtime.errors import HardwareExhausted


class TestSpec:
    def test_defaults_trivial(self):
        assert DegradationSpec().is_trivial
        assert DegradationSpec.at_severity(0.0).is_trivial

    @pytest.mark.parametrize("fields", [
        {"degraded_link_fraction": 1.5},
        {"link_down_fraction": -0.1},
        {"link_latency_scale": 0.5},
        {"slice_bandwidth_derate": 0.0},
        {"slice_bandwidth_derate": 1.5},
        {"stall_period_ns": 100.0, "stall_duration_ns": 100.0},
        {"dma_fail_period": 0},
    ])
    def test_validation(self, fields):
        with pytest.raises(ValueError):
            DegradationSpec(**fields)

    def test_at_severity_range(self):
        with pytest.raises(ValueError):
            DegradationSpec.at_severity(1.5)
        with pytest.raises(ValueError):
            DegradationSpec.at_severity(-0.1)

    def test_json_round_trip(self):
        spec = DegradationSpec.at_severity(0.5, seed=3)
        assert DegradationSpec.from_json(spec.to_json()) == spec

    def test_with_replaces(self):
        spec = DegradationSpec(flaky_dma_fraction=0.5)
        assert spec.with_(flaky_dma_fraction=0.0).is_trivial

    def test_presets_nontrivial(self):
        for name, spec in DEGRADATION_PRESETS.items():
            assert isinstance(spec, DegradationSpec), name
            assert not spec.is_trivial, name

    def test_config_rejects_bad_spec_type(self):
        with pytest.raises(ValueError):
            PIUMAConfig(degradation={"seed": 0})

    def test_trivial_spec_builds_no_model(self):
        assert DegradationModel.for_config(
            PIUMAConfig(degradation=DegradationSpec())
        ) is None
        assert DegradationModel.for_config(PIUMAConfig()) is None


class TestMembership:
    def test_hit_monotone_in_fraction(self):
        """Fixed unit hash vs a growing threshold: sets can only grow."""
        for index in range(64):
            hits = [
                _hit(0, "slice", index, f)
                for f in (0.1, 0.3, 0.5, 0.7, 0.9)
            ]
            assert hits == sorted(hits), index

    def test_membership_deterministic_across_models(self):
        config = PIUMAConfig(n_cores=8)
        spec = DegradationSpec.at_severity(0.5)
        a = DegradationModel(spec, config)
        b = DegradationModel(spec, config)
        assert a.degraded_slices == b.degraded_slices
        assert a.flaky_dma == b.flaky_dma
        assert a.link_state(0, 5) == b.link_state(0, 5)

    def test_severity_sets_nest(self):
        config = PIUMAConfig(n_cores=8)
        models = [
            DegradationModel(DegradationSpec.at_severity(s), config)
            for s in (0.25, 0.5, 1.0)
        ]
        for small, large in zip(models, models[1:]):
            assert small.degraded_slices <= large.degraded_slices
            assert small.stalling_slices <= large.stalling_slices
            for pair in ((0, 1), (2, 5), (3, 7)):
                s_slow, s_down = small.link_state(*pair)
                l_slow, l_down = large.link_state(*pair)
                assert l_slow >= s_slow and l_down >= s_down

    def test_seed_moves_membership(self):
        config = PIUMAConfig(n_cores=64)
        spec = DegradationSpec(degraded_slice_fraction=0.5)
        a = DegradationModel(spec, config)
        b = DegradationModel(spec.with_(seed=99), config)
        assert a.degraded_slices != b.degraded_slices

    def test_dead_dma_excluded_from_flaky(self):
        config = PIUMAConfig(n_cores=16)
        model = DegradationModel(
            DegradationSpec(dead_dma_fraction=0.5, flaky_dma_fraction=1.0),
            config,
        )
        assert not model.dead_dma & model.flaky_dma
        assert model.dead_dma | model.flaky_dma == set(range(16))


class TestLinks:
    def _network(self, spec, n_cores=8):
        config = PIUMAConfig(n_cores=n_cores, degradation=spec)
        return config, Network(config)

    def test_healthy_links_untouched(self):
        config, net = self._network(DegradationSpec(flaky_dma_fraction=0.5))
        healthy = Network(PIUMAConfig(n_cores=8))
        for dst in range(8):
            assert net.latency(0, dst) == healthy.latency(0, dst)

    def test_slow_link_scaled(self):
        spec = DegradationSpec(
            degraded_link_fraction=1.0, link_latency_scale=3.0
        )
        config, net = self._network(spec)
        healthy = Network(PIUMAConfig(n_cores=8))
        assert net.latency(0, 0) == 0.0
        for dst in range(1, 8):
            assert net.latency(0, dst) == 3.0 * healthy.latency(0, dst)

    def test_down_never_undercuts_slow(self):
        """Max-rule: adding link-down on top of slow can only add cost."""
        slow = DegradationSpec(
            degraded_link_fraction=1.0, link_latency_scale=4.0
        )
        both = slow.with_(link_down_fraction=1.0)
        _, slow_net = self._network(slow)
        _, both_net = self._network(both)
        healthy = Network(PIUMAConfig(n_cores=8))
        for dst in range(1, 8):
            assert (healthy.latency(0, dst)
                    <= slow_net.latency(0, dst)
                    <= both_net.latency(0, dst))

    def test_reroute_at_least_direct(self):
        spec = DegradationSpec(link_down_fraction=0.5)
        config, net = self._network(spec)
        healthy = Network(PIUMAConfig(n_cores=8))
        for src in range(8):
            for dst in range(8):
                assert net.latency(src, dst) >= healthy.latency(src, dst)


class TestThreadPlacements:
    def test_healthy_matches_historical_formula(self):
        config = PIUMAConfig(n_cores=4, threads_per_mtp=8)
        per_core = config.threads_per_core
        per_mtp = config.threads_per_mtp
        expected = [
            (t // per_core, (t % per_core) // per_mtp)
            for t in range(config.n_threads)
        ]
        assert thread_placements(config) == expected

    def test_dead_core_gets_no_threads(self):
        config = PIUMAConfig(
            n_cores=4,
            degradation=DegradationSpec(dead_core_fraction=0.3),
        )
        model = DegradationModel.for_config(config)
        assert model.dead_cores, "fixture spec must kill at least one core"
        placements = thread_placements(config)
        assert len(placements) == config.n_threads
        used = {core for core, _mtp in placements}
        assert not used & model.dead_cores
        assert used == set(range(4)) - model.dead_cores

    def test_all_dead_raises_structured(self):
        config = PIUMAConfig(
            n_cores=2, degradation=DegradationSpec(dead_core_fraction=1.0)
        )
        with pytest.raises(HardwareExhausted) as info:
            thread_placements(config)
        assert info.value.kind == "exhausted"
        assert info.value.retryable is False
        assert info.value.cause == "dead-compute"


class TestStallWindows:
    def test_defer_inside_window(self):
        s = DRAMSlice(1.0, 10.0, stall_period_ns=100.0,
                      stall_duration_ns=20.0)
        assert s._stall_defer(0.0) == 20.0
        assert s._stall_defer(10.0) == 20.0
        assert s._stall_defer(119.9) == pytest.approx(120.0)

    def test_defer_outside_window_identity(self):
        s = DRAMSlice(1.0, 10.0, stall_period_ns=100.0,
                      stall_duration_ns=20.0)
        assert s._stall_defer(20.0) == 20.0
        assert s._stall_defer(55.0) == 55.0

    def test_stall_only_delays_service(self):
        healthy = DRAMSlice(1.0, 10.0)
        stalling = DRAMSlice(1.0, 10.0, stall_period_ns=100.0,
                             stall_duration_ns=20.0)
        for start in (0.0, 5.0, 30.0, 95.0, 130.0):
            assert (stalling.bulk_request(start, 64.0)
                    >= healthy.bulk_request(start, 64.0))

    def test_duration_must_fit_period(self):
        with pytest.raises(ValueError):
            DRAMSlice(1.0, 10.0, stall_period_ns=10.0,
                      stall_duration_ns=10.0)


class TestEffectiveBandwidth:
    def test_healthy_equals_config_aggregate(self):
        config = PIUMAConfig(n_cores=8)
        assert effective_total_bandwidth(config) == \
            config.total_bandwidth_gbps

    def test_full_derate_arithmetic(self):
        spec = DegradationSpec(
            degraded_slice_fraction=1.0, slice_bandwidth_derate=0.5,
            stall_slice_fraction=1.0, stall_period_ns=100.0,
            stall_duration_ns=25.0,
        )
        config = PIUMAConfig(n_cores=4, degradation=spec)
        expected = 4 * config.slice_bandwidth_bytes_per_ns * 0.5 * 0.75
        assert effective_total_bandwidth(config) == pytest.approx(expected)

    def test_monotone_in_severity(self):
        values = [
            effective_total_bandwidth(PIUMAConfig(
                n_cores=8,
                degradation=DegradationSpec.at_severity(s),
            ))
            for s in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert values == sorted(values, reverse=True)


def _fingerprint(result):
    return (
        result.sim_time_ns,
        result.gflops,
        result.projected_time_ns,
        result.memory_utilization,
        result.achieved_bandwidth,
        result.window_edges,
        result.events,
        sorted(
            (tag, s.count, s.bytes, s.wait_ns)
            for tag, s in result.tag_stats.items()
        ),
    )


class TestSimulatorUnderFaults:
    def _adj(self):
        return rmat_for_size(1024, 1024 * 8, seed=3)

    def test_dead_dma_raises_before_completion(self):
        config = PIUMAConfig(
            n_cores=2,
            degradation=DegradationSpec(dead_dma_fraction=1.0),
        )
        with pytest.raises(HardwareExhausted):
            simulate_spmm(self._adj(), 32, config)

    def test_flaky_dma_slower_than_healthy(self):
        healthy = simulate_spmm(
            self._adj(), 32, PIUMAConfig(n_cores=2)
        )
        flaky = simulate_spmm(
            self._adj(), 32, PIUMAConfig(
                n_cores=2,
                degradation=DegradationSpec(
                    flaky_dma_fraction=1.0, dma_fail_period=8,
                    dma_retry_backoff_ns=200.0,
                ),
            ),
        )
        assert flaky.sim_time_ns > healthy.sim_time_ns

    def test_compute_preset_completes_checked(self):
        config = PIUMAConfig(
            n_cores=4, check_level=1,
            degradation=DEGRADATION_PRESETS["compute"],
        )
        result = simulate_spmm(self._adj(), 32, config)
        assert result.sim_time_ns > 0

    def test_healthy_unchanged_by_trivial_spec(self):
        """degradation=None and a trivial spec are the same fabric."""
        base = simulate_spmm(self._adj(), 32, PIUMAConfig(n_cores=2))
        trivial = simulate_spmm(
            self._adj(), 32,
            PIUMAConfig(n_cores=2, degradation=DegradationSpec()),
        )
        assert _fingerprint(base) == _fingerprint(trivial)


class TestDifferentialUnderFaults:
    """Randomized engine-matrix fuzz with degradation armed.

    The degraded mirror of ``test_engine_fastpath.TestDifferential``:
    21 points spanning kernels, core counts, and randomized fault specs
    run through the replay and reference main loops — every
    fingerprint field must match exactly.  The reference leg runs with
    the level-1 sanitizer armed; the replay leg runs the fast engine at
    ``check_level=0``, the only level at which it replays compiled
    programs.
    """

    def _grid(self):
        rng = random.Random(0xDE64)
        kernels = ("dma", "loop", "vertex")
        points = []
        for i in range(21):
            spec = DegradationSpec(
                seed=rng.randrange(1000),
                degraded_link_fraction=rng.choice((0.0, 0.25, 0.5)),
                link_latency_scale=rng.choice((2.0, 4.0)),
                link_down_fraction=rng.choice((0.0, 0.25)),
                degraded_slice_fraction=rng.choice((0.0, 0.5)),
                slice_bandwidth_derate=rng.choice((0.5, 0.75)),
                stall_slice_fraction=rng.choice((0.0, 0.5)),
                stall_period_ns=20000.0,
                stall_duration_ns=rng.choice((500.0, 2000.0)),
                flaky_dma_fraction=rng.choice((0.0, 0.5)),
                dma_fail_period=rng.choice((16, 64)),
                dma_retry_backoff_ns=100.0,
                dead_core_fraction=rng.choice((0.0, 0.3)),
                dead_mtp_fraction=rng.choice((0.0, 0.25)),
            )
            points.append({
                "n_vertices": rng.choice((512, 1024)),
                "degree": rng.choice((4, 8)),
                "graph_seed": rng.randrange(1000),
                "kernel": kernels[i % len(kernels)],
                "embedding_dim": rng.choice((16, 32)),
                "n_cores": rng.choice((2, 4)),
                "threads_per_mtp": rng.choice((2, 4)),
                "spec": spec,
            })
        return points

    @pytest.mark.parametrize("index", range(21))
    def test_point(self, index):
        point = self._grid()[index]
        adj = rmat_for_size(
            point["n_vertices"],
            point["n_vertices"] * point["degree"],
            seed=point["graph_seed"],
        )
        results = {}
        for engine, check_level in (("reference", 1), ("fast", 0)):
            try:
                results[engine] = simulate_spmm(
                    adj, point["embedding_dim"],
                    PIUMAConfig(
                        n_cores=point["n_cores"],
                        threads_per_mtp=point["threads_per_mtp"],
                        engine=engine,
                        check_level=check_level,
                        degradation=point["spec"],
                    ),
                    kernel=point["kernel"],
                )
            except HardwareExhausted as error:
                results[engine] = ("exhausted", error.cause)
        fast, reference = results["fast"], results["reference"]
        if isinstance(fast, tuple) or isinstance(reference, tuple):
            # Structured exhaustion must be engine-independent too.
            assert fast == reference, point
        else:
            assert _fingerprint(fast) == _fingerprint(reference), point
