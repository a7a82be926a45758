"""The multi-node assembly layer: halo fabric, estimate, strong scaling.

Covers the bulk-synchronous assembly arithmetic (slowest shard +
bounded halo exchange), the conservation of the summed shard counters
through :func:`assemble_multinode`, and the ``strong_scaling`` study
the ``repro multinode`` command and the scaling benchmark sit on.
"""

import pytest

from repro.ext.distributed import piuma_multinode_spmm_time
from repro.piuma.config import PIUMAConfig
from repro.piuma.degradation import DEGRADATION_PRESETS
from repro.piuma.multinode import (
    HaloFabric,
    assemble_multinode,
    multinode_verdict,
    run_multinode,
    scaling_figure,
    strong_scaling,
)
from repro.runtime.cache import ResultCache
from repro.runtime.checkpoint import SweepCheckpoint
from repro.runtime.jobs import ExecPool
from repro.runtime.shard import (
    ShardRecovery,
    ShardTask,
    conserved_counters,
    shard_tasks,
)

SWEEP = {"workers": 1}  # inline, no process pool in unit tests


def _records(n_shards, strategy="block"):
    return [
        task.run()
        for task in shard_tasks("arxiv", 32, n_shards, strategy=strategy,
                                max_vertices=1024, seed=3)
    ]


class TestHaloFabric:
    def test_exchange_is_full_duplex_plus_latency(self):
        fabric = HaloFabric(link_bandwidth_gbps=2.0, latency_ns=100.0)
        # max(send, recv) on the wire, one latency per active peer.
        assert fabric.exchange_ns(800.0, 200.0, peers=3) == 400.0 + 300.0
        assert fabric.exchange_ns(200.0, 800.0, peers=0) == 400.0

    def test_from_config_reads_the_inter_node_tier(self):
        config = PIUMAConfig()
        fabric = HaloFabric.from_config(config)
        assert fabric.link_bandwidth_gbps == config.network_bandwidth_gbps
        assert fabric.latency_ns == config.inter_node_latency_ns
        assert fabric.feature_bytes == config.feature_bytes


class TestAssembleMultinode:
    def test_rejects_empty_and_short_record_lists(self):
        fabric = HaloFabric(1.0, 0.0)
        with pytest.raises(ValueError):
            assemble_multinode([], dataset="x", strategy="block",
                               embedding_dim=8, fabric=fabric)
        records = _records(2)
        with pytest.raises(ValueError, match="shard records"):
            assemble_multinode(records[:1], dataset="x", strategy="block",
                               embedding_dim=8, fabric=fabric)

    def test_single_node_has_no_communication(self):
        estimate = assemble_multinode(
            _records(1), dataset="arxiv", strategy="block",
            embedding_dim=32, fabric=HaloFabric(1.0, 100.0),
        )
        assert estimate.comm_ns == 0.0
        assert estimate.comm_share == 0.0
        assert estimate.cut_fraction == 0.0
        assert estimate.time_ns == estimate.compute_ns

    @pytest.mark.parametrize("strategy", ["block", "degree"])
    def test_conserves_monolithic_totals(self, strategy):
        records = _records(4, strategy)
        estimate = assemble_multinode(
            records, dataset="arxiv", strategy=strategy,
            embedding_dim=32, fabric=HaloFabric(1.0, 0.0),
        )
        whole = conserved_counters(
            estimate.conserved["rows"], estimate.total_edges, 32,
            PIUMAConfig(),
        )
        assert estimate.conserved == whole
        assert sum(estimate.shard_edges) == estimate.total_edges

    def test_compute_is_the_straggler(self):
        records = _records(4)
        estimate = assemble_multinode(
            records, dataset="arxiv", strategy="block",
            embedding_dim=32, fabric=HaloFabric(1.0, 0.0),
        )
        assert estimate.compute_ns == max(estimate.per_shard_ns)
        assert estimate.balance >= 1.0

    def test_halo_volume_is_symmetric_and_bounded(self):
        records = _records(4)
        estimate = assemble_multinode(
            records, dataset="arxiv", strategy="block",
            embedding_dim=32, fabric=HaloFabric(1.0, 0.0),
        )
        # Every byte sent is a byte received, and the deduplicated
        # ghost volume can never exceed one feature row per cut edge.
        assert sum(estimate.send_bytes) == sum(estimate.recv_bytes)
        assert estimate.halo_bytes == sum(estimate.send_bytes)
        assert 0 < estimate.halo_bytes <= estimate.cut_edges * 32 * 4

    def test_scale_factor_projects_linearly(self):
        estimate = assemble_multinode(
            _records(2), dataset="arxiv", strategy="block",
            embedding_dim=32, fabric=HaloFabric(1.0, 0.0), scale_factor=10.0,
        )
        assert estimate.full_time_ns == pytest.approx(estimate.time_ns * 10)
        row = estimate.row()
        assert row["full_time_ns"] == pytest.approx(estimate.full_time_ns)
        assert row["n_nodes"] == 2


class TestRunMultinode:
    def test_end_to_end_point(self):
        estimate, report = run_multinode(
            "arxiv", 2, max_vertices=1024, seed=3, embedding_dim=32,
            sweep_kwargs=SWEEP,
        )
        assert estimate.n_nodes == 2
        assert estimate.comm_ns > 0
        assert not report.failures
        # The down-scaled run projects to the full dataset edge count.
        assert estimate.scale_factor > 1.0

    def test_checkpoint_discarded_on_success(self, tmp_path):
        _estimate, _report = run_multinode(
            "arxiv", 2, max_vertices=1024, seed=3, embedding_dim=32,
            sweep_kwargs=SWEEP, checkpoint_dir=tmp_path,
        )
        assert not list(tmp_path.glob("*.jsonl"))


class TestManifestIdentity:
    """The task knobs are part of the checkpoint manifest's name, so
    runs that differ only in a knob never share a manifest."""

    KNOBS = {
        "healthy": {},
        "moderate": {"degradation": DEGRADATION_PRESETS["moderate"]},
        "checked": {"check_level": 1},
        "reference": {"engine": "reference"},
    }

    @pytest.mark.parametrize("recovery", [None, ShardRecovery(retries=0)],
                             ids=["sweep", "recover"])
    def test_each_knob_names_its_own_manifest(self, tmp_path, monkeypatch,
                                              recovery):
        flushed = set()
        flush = SweepCheckpoint.flush

        def track(self, key, record):
            flushed.add(self.path.name)
            flush(self, key, record)

        monkeypatch.setattr(SweepCheckpoint, "flush", track)
        names = {}
        for run, knobs in self.KNOBS.items():
            flushed.clear()
            run_multinode("arxiv", 2, max_vertices=1024,
                          checkpoint_dir=tmp_path, recovery=recovery,
                          sweep_kwargs={**SWEEP, **knobs})
            [names[run]] = flushed
        assert len(set(names.values())) == len(self.KNOBS)
        # A run with no knob keeps the name it had before the knobs
        # joined the manifest identity, so its old manifests resume.
        assert names["healthy"] == "sweep-e645f0f77af51f64.manifest.jsonl"


class TestStrongScaling:
    @pytest.fixture(scope="class")
    def study(self):
        return strong_scaling(
            "arxiv", nodes=(1, 2, 4), strategies=("block", "degree"),
            embedding_dim=32, max_vertices=1024, seed=3,
            sweep_kwargs=SWEEP,
        )

    def test_one_row_per_strategy_node_pair(self, study):
        assert len(study["rows"]) == 6
        assert set(study["estimates"]) == {
            (s, n) for s in ("block", "degree") for n in (1, 2, 4)
        }

    def test_speedup_normalized_at_smallest_node_count(self, study):
        for strategy in ("block", "degree"):
            rows = [r for r in study["rows"] if r["strategy"] == strategy]
            assert rows[0]["n_nodes"] == 1
            assert rows[0]["speedup"] == pytest.approx(1.0)
            assert all(0 < r["efficiency"] <= r["speedup"] for r in rows)

    def test_rows_carry_comparison_columns(self, study):
        for row in study["rows"]:
            assert row["dgas_ns"] > 0
            assert row["dgas_ratio"] > 0
            assert "balance" in row and "cut_fraction" in row

    def test_degree_balances_better_on_skewed_graph(self, study):
        by = {(r["strategy"], r["n_nodes"]): r for r in study["rows"]}
        assert by[("degree", 4)]["balance"] <= by[("block", 4)]["balance"]

    def test_scaling_figure_mentions_every_strategy(self, study):
        figure = scaling_figure(study["rows"], (1, 2, 4))
        assert "speedup[block]" in figure
        assert "speedup[degree]" in figure
        assert "ideal" in figure


STUDY = dict(embedding_dim=32, max_vertices=1024, seed=3)
NODES = (1, 2, 4)
STRATEGIES = ("block", "degree")


@pytest.fixture
def spawns(monkeypatch):
    """Counts the process pools spawned while the test runs."""
    pools = []
    init = ExecPool.__init__

    def track(self, *args, **kwargs):
        init(self, *args, **kwargs)
        pools.append(self)

    monkeypatch.setattr(ExecPool, "__init__", track)
    return lambda: sum(pool.spawns for pool in pools)


def _per_point_rows():
    """The study's rows built from one inline ``run_multinode`` call
    per point, each with its own report."""
    config = PIUMAConfig()
    rows = []
    for strategy in STRATEGIES:
        base = None
        for n in NODES:
            estimate, report = run_multinode(
                "arxiv", n, strategy=strategy, sweep_kwargs=SWEEP, **STUDY
            )
            base = estimate.time_ns if base is None else base
            speedup = base / estimate.time_ns
            dgas_ns = piuma_multinode_spmm_time(
                estimate.conserved["rows"], estimate.total_edges, 32,
                config, n,
            )
            row = estimate.row()
            row.update(
                speedup=speedup, efficiency=speedup / n, dgas_ns=dgas_ns,
                dgas_ratio=estimate.time_ns / dgas_ns,
                cache_hits=report.cache_hits,
                failures=len(report.failures),
                envelope_verdict=multinode_verdict(estimate, config),
            )
            rows.append(row)
    return rows


class TestStudyBatch:
    """A study runs as one batch: one pool, one manifest, and each row
    still accounts for its own point."""

    def test_one_pool_per_study_same_rows(self, tmp_path, spawns):
        study = strong_scaling(
            "arxiv", nodes=NODES, strategies=STRATEGIES,
            sweep_kwargs={"workers": 2,
                          "cache": ResultCache(directory=tmp_path)},
            recovery=ShardRecovery(retries=1), **STUDY
        )
        assert spawns() == 1
        assert study["rows"] == _per_point_rows()
        # The counters describe the one batch: 2 x (1 + 2 + 4) shards.
        assert study["recovery"]["attempts"] == 14

    def test_single_manifest_discarded_on_success(self, tmp_path,
                                                  monkeypatch):
        manifests = set()
        flush = SweepCheckpoint.flush

        def track(self, key, record):
            manifests.add(self.path)
            flush(self, key, record)

        monkeypatch.setattr(SweepCheckpoint, "flush", track)
        strong_scaling("arxiv", nodes=NODES, strategies=STRATEGIES,
                       sweep_kwargs=SWEEP, checkpoint_dir=tmp_path, **STUDY)
        assert len(manifests) == 1
        assert not list(tmp_path.glob("*.jsonl"))

    def test_warm_point_counts_only_its_own_hits(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        sweep = {"workers": 1, "cache": cache}
        run_multinode("arxiv", 2, strategy="degree", sweep_kwargs=sweep,
                      **STUDY)
        study = strong_scaling("arxiv", nodes=NODES, strategies=STRATEGIES,
                               sweep_kwargs=sweep, **STUDY)
        hits = {(r["strategy"], r["n_nodes"]): r["cache_hits"]
                for r in study["rows"]}
        assert hits == {
            (s, n): 2 if (s, n) == ("degree", 2) else 0
            for s in STRATEGIES for n in NODES
        }

    def test_warm_rerun_dispatches_nothing(self, tmp_path, monkeypatch,
                                           spawns):
        cache = ResultCache(directory=tmp_path)
        cold = strong_scaling(
            "arxiv", nodes=NODES, strategies=STRATEGIES,
            sweep_kwargs={"workers": 1, "cache": cache}, **STUDY
        )

        def refuse(self):
            raise AssertionError(f"{self.label()} ran on a warm cache")

        monkeypatch.setattr(ShardTask, "run", refuse)
        warm = strong_scaling(
            "arxiv", nodes=NODES, strategies=STRATEGIES,
            sweep_kwargs={"workers": 2, "cache": cache}, **STUDY
        )
        assert spawns() == 0
        assert ([r["cache_hits"] for r in warm["rows"]]
                == [r["n_nodes"] for r in warm["rows"]])
        assert [{**r, "cache_hits": 0} for r in warm["rows"]] == cold["rows"]
