import pytest

from repro.piuma.config import ENGINES, PIUMAConfig
from repro.piuma.network import Network


class TestConfig:
    def test_defaults_are_one_die(self):
        cfg = PIUMAConfig()
        assert cfg.n_cores == 8
        assert cfg.n_dies == 1

    def test_thread_counts(self):
        cfg = PIUMAConfig(n_cores=2, mtps_per_core=4, threads_per_mtp=16)
        assert cfg.threads_per_core == 64
        assert cfg.n_threads == 128

    def test_node_exceeds_16k_threads(self):
        """Paper: 'A single PIUMA node supports concurrent execution of
        more than 16K threads' (with the STP threads on top)."""
        node = PIUMAConfig.node()
        assert node.n_threads >= 16384

    def test_node_terabyte_bandwidth(self):
        """Paper: 'aggregate ... TB/s bandwidths' per node."""
        node = PIUMAConfig.node()
        assert node.total_bandwidth_gbps >= 1000.0

    def test_bandwidth_scale_knob(self):
        cfg = PIUMAConfig(dram_bandwidth_scale=2.0)
        assert cfg.slice_bandwidth_bytes_per_ns == pytest.approx(51.2)

    def test_with_replaces_fields(self):
        cfg = PIUMAConfig().with_(dram_latency_ns=360.0)
        assert cfg.dram_latency_ns == 360.0
        assert cfg.n_cores == 8

    def test_die_constructor(self):
        assert PIUMAConfig.die().n_cores == 8
        assert PIUMAConfig.die(threads_per_mtp=4).threads_per_mtp == 4

    def test_partial_die_rounds_up(self):
        assert PIUMAConfig(n_cores=9).n_dies == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            PIUMAConfig(n_cores=0)
        with pytest.raises(ValueError):
            PIUMAConfig(dram_latency_ns=-1.0)
        with pytest.raises(ValueError):
            PIUMAConfig(dram_bandwidth_scale=0.0)
        with pytest.raises(ValueError):
            PIUMAConfig(threads_per_mtp=0)

    def test_one_engine_knob(self):
        assert ENGINES == ("fast", "reference")
        assert PIUMAConfig().engine == "fast"
        assert PIUMAConfig().resolved_engine == "fast"
        for engine in ENGINES:
            assert PIUMAConfig(engine=engine).resolved_engine == engine

    @pytest.mark.parametrize("knob", (
        {"scheduler": "heap"},
        {"engine_fast_path": True},
    ))
    def test_removed_engine_knobs_rejected(self, knob):
        with pytest.raises(TypeError):
            PIUMAConfig(**knob)

    @pytest.mark.parametrize("engine", ("auto", "calendar", "vector"))
    def test_removed_engine_names_rejected(self, engine):
        with pytest.raises(ValueError, match="engine must be one of"):
            PIUMAConfig(engine=engine)


class TestNetwork:
    def test_local_is_free(self):
        net = Network(PIUMAConfig(n_cores=8))
        assert net.latency(3, 3) == 0.0

    def test_intra_die(self):
        cfg = PIUMAConfig(n_cores=8)
        net = Network(cfg)
        assert net.latency(0, 7) == cfg.intra_die_latency_ns

    def test_inter_die(self):
        cfg = PIUMAConfig(n_cores=16)
        net = Network(cfg)
        assert net.latency(0, 8) == cfg.inter_die_latency_ns

    def test_symmetry(self):
        net = Network(PIUMAConfig(n_cores=32))
        for pair in ((0, 5), (0, 20), (9, 9)):
            assert net.latency(*pair) == net.latency(*reversed(pair))

    def test_transfer_local_bypasses(self):
        net = Network(PIUMAConfig(n_cores=8))
        assert net.transfer(5.0, 2, 2, 1000) == 5.0

    def test_transfer_remote_adds_latency(self):
        cfg = PIUMAConfig(n_cores=8)
        net = Network(cfg)
        arrival = net.transfer(0.0, 0, 1, 64)
        assert arrival >= cfg.intra_die_latency_ns

    def test_mean_remote_latency_grows_with_system(self):
        small = Network(PIUMAConfig(n_cores=8)).mean_remote_latency()
        large = Network(PIUMAConfig(n_cores=32)).mean_remote_latency()
        assert large > small

    def test_single_core_mean_latency_zero(self):
        assert Network(PIUMAConfig(n_cores=1)).mean_remote_latency() == 0.0

    def test_mean_remote_latency_matches_bruteforce(self):
        """Memoized mean equals the plain average over every destination
        (including the free self hop — stripes touch the local slice)."""
        cfg = PIUMAConfig(n_cores=32)
        net = Network(cfg)
        expected = sum(net.latency(0, dst) for dst in range(32)) / 32
        assert net.mean_remote_latency() == expected

    def test_mean_remote_latency_memoized(self):
        net = Network(PIUMAConfig(n_cores=16))
        first = net.mean_remote_latency()
        assert net.mean_remote_latency() is net._mean_remote
        assert net.mean_remote_latency() == first

    def test_latency_cache_consistent(self):
        """Memoized pair latencies agree with a fresh Network's."""
        cfg = PIUMAConfig(n_cores=16)
        warm = Network(cfg)
        for src in range(16):
            for dst in range(16):
                warm.latency(src, dst)
        cold = Network(cfg)
        for (src, dst), value in warm._latency_cache.items():
            assert cold.latency(src, dst) == value
