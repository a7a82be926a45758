"""The sharded-DES oracle: 1-shard identity and exact conservation.

Two contracts make the multi-node sharding trustworthy (DESIGN.md §12):

* a single-shard :class:`ShardTask` is *bit-identical* to the plain
  monolithic :class:`SpMMTask` on every engine backend — sharding adds
  no numerical surface of its own;
* the :func:`conserved_counters` of any K-shard decomposition sum
  exactly to the monolithic totals, whatever the partitioning strategy
  — no edge, byte, descriptor, or flop is created or lost at a shard
  boundary.
"""

import numpy as np
import pytest

from repro.graphs.rmat import RMATParams, rmat_graph
from repro.piuma.config import PIUMAConfig
from repro.piuma.multinode import run_multinode
from repro.runtime.errors import TaskError
from repro.runtime.runner import _materialized, spmm_task
from repro.runtime.shard import (
    ShardTask,
    aggregate_conserved,
    conserved_counters,
    shard_geometry,
    shard_subgraph,
    shard_tasks,
)
from repro.piuma.config import ENGINES

#: Kernel observables of the monolithic record schema that must be
#: bit-equal between a 1-shard task and the plain task.  Host-clock
#: fields (``host_wall_s``, ``events_per_s``) are deliberately absent:
#: they measure the machine running the test, not the simulation.
_BIT_FIELDS = (
    "n_vertices", "n_edges", "gflops", "projected_time_ns", "sim_time_ns",
    "window_edges", "total_edges", "memory_utilization",
    "achieved_bandwidth", "model_gflops", "model_time_ns", "efficiency",
    "events", "tag_stats", "scheduler", "engine",
)

_POINT = dict(dataset="arxiv", embedding_dim=32, max_vertices=1024, seed=3)


@pytest.fixture(scope="module")
def adj():
    return rmat_graph(RMATParams(scale=9, edge_factor=8), seed=11,
                      symmetric=True)


class TestShardSubgraph:
    def test_whole_range_reproduces_matrix(self, adj):
        sub = shard_subgraph(adj, 0, adj.n_rows)
        assert sub.shape == adj.shape
        assert np.array_equal(sub.indptr, adj.indptr)
        assert np.array_equal(sub.indices, adj.indices)
        assert np.array_equal(sub.data, adj.data)

    def test_slices_concatenate_to_whole(self, adj):
        mid = adj.n_rows // 2
        top = shard_subgraph(adj, 0, mid)
        bottom = shard_subgraph(adj, mid, adj.n_rows)
        assert top.n_rows + bottom.n_rows == adj.n_rows
        assert top.nnz + bottom.nnz == adj.nnz
        # Columns stay global: both halves keep the full column count.
        assert top.n_cols == bottom.n_cols == adj.n_cols
        assert np.array_equal(
            np.concatenate([top.indices, bottom.indices]), adj.indices
        )


class TestShardGeometry:
    @pytest.mark.parametrize("strategy", ["block", "degree"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    def test_rows_edges_partition_exactly(self, adj, n_shards, strategy):
        infos = [
            shard_geometry(adj, n_shards, s, strategy)[1]
            for s in range(n_shards)
        ]
        assert sum(i["rows"] for i in infos) == adj.n_rows
        assert sum(i["edges"] for i in infos) == adj.nnz
        for info in infos:
            assert info["local_edges"] + info["cut_edges"] == info["edges"]
            assert sum(info["recv_edges_by_owner"]) == info["cut_edges"]
            # Deduplicated ghosts never exceed the cut edges that need
            # them, and a shard never ghosts its own vertices.
            assert info["ghost_vertices"] <= info["cut_edges"]
            assert info["recv_edges_by_owner"][info["shard"]] == 0
            assert info["ghosts_by_owner"][info["shard"]] == 0

    def test_single_shard_cuts_nothing(self, adj):
        _sub, info = shard_geometry(adj, 1, 0)
        assert info["cut_edges"] == 0
        assert info["ghost_vertices"] == 0
        assert info["local_edges"] == adj.nnz


class TestConservation:
    @pytest.mark.parametrize("strategy", ["block", "degree"])
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_shard_counters_sum_to_monolithic(self, n_shards, strategy):
        tasks = shard_tasks(
            "arxiv", 32, n_shards, strategy=strategy,
            max_vertices=1024, seed=3,
        )
        records = [task.run() for task in tasks]
        whole = spmm_task(**_POINT).run()
        expected = conserved_counters(
            whole["n_vertices"], whole["n_edges"], 32, tasks[0].config()
        )
        assert aggregate_conserved(records) == expected

    def test_counters_are_linear(self):
        from repro.piuma.config import PIUMAConfig

        config = PIUMAConfig()
        a = conserved_counters(10, 100, 64, config)
        b = conserved_counters(7, 33, 64, config)
        both = conserved_counters(17, 133, 64, config)
        assert {k: a[k] + b[k] for k in a} == both


class TestOneShardBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_identical_to_monolithic_on_every_engine(self, engine):
        mono = spmm_task(**_POINT, engine=engine).run()
        sharded = shard_tasks("arxiv", 32, 1, max_vertices=1024, seed=3,
                              engine=engine)[0].run()
        for field in _BIT_FIELDS:
            assert sharded[field] == mono[field], field

    def test_cache_keys_never_alias(self):
        """Shard records carry extra schema, so even the bit-identical
        1-shard point must not share the monolithic cache entry."""
        mono = spmm_task(**_POINT)
        shard = shard_tasks("arxiv", 32, 1, max_vertices=1024, seed=3)[0]
        assert shard.key_payload() != mono.key_payload()
        assert shard.key_payload()["partition"] == {
            "n_shards": 1, "shard": 0, "strategy": "block",
        }


class TestShardTask:
    def test_validates_partition_coordinates(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardTask(dataset="arxiv", embedding_dim=32, n_shards=0)
        with pytest.raises(ValueError, match="shard"):
            ShardTask(dataset="arxiv", embedding_dim=32, n_shards=2, shard=2)
        with pytest.raises(ValueError, match="strategy"):
            ShardTask(dataset="arxiv", embedding_dim=32, n_shards=2,
                      shard=0, strategy="metis")

    def test_label_names_the_shard(self):
        task = shard_tasks("arxiv", 32, 4, strategy="degree")[2]
        assert "[shard 3/4 degree]" in task.label()

    def test_record_keeps_monolithic_schema(self):
        record = shard_tasks("arxiv", 32, 2, max_vertices=1024, seed=3)[0]
        record = record.run()
        mono = spmm_task(**_POINT).run()
        assert set(mono) <= set(record)
        assert record["shard"]["n_shards"] == 2
        assert record["conserved"]["edges"] == record["n_edges"]

    def test_fallback_record_keeps_geometry(self):
        task = shard_tasks("arxiv", 32, 2, max_vertices=1024, seed=3)[1]
        record = task.fallback_record(TaskError("boom", label=task.label()))
        assert record["source"] == "model_fallback"
        assert record["error"]["message"] == "boom"
        assert record["shard"]["shard"] == 1
        # The Eq.5 stand-in still prices the shard's own work, and the
        # halo volumes survive for the assembly.
        assert record["projected_time_ns"] > 0
        assert record["conserved"]["edges"] == record["shard"]["edges"]


class TestEmptyShard:
    """Shard 23 of the 32-way block split of the 64-vertex ``arxiv``
    window owns 2 rows and no edges: a real window, nothing to
    simulate."""

    ZERO_FIELDS = (
        "gflops", "projected_time_ns", "sim_time_ns", "window_edges",
        "total_edges", "memory_utilization", "achieved_bandwidth",
        "model_gflops", "model_time_ns", "events",
    )

    @pytest.fixture
    def task(self):
        return shard_tasks("arxiv", 64, 32, max_vertices=64)[23]

    def test_run_records_an_empty_simulation(self, task):
        record = task.run()
        assert record["source"] == "simulation"
        assert record["n_edges"] == 0
        for name in self.ZERO_FIELDS:
            assert record[name] == 0, name
        assert record["tag_stats"] == {}
        assert record["efficiency"] == 0.0
        assert record["conserved"]["rows"] == 2
        assert record["conserved"]["edges"] == 0

    def test_fallback_record_prices_nothing(self, task):
        record = task.fallback_record(TaskError("boom", label=task.label()))
        assert record["source"] == "model_fallback"
        for name in ("gflops", "projected_time_ns", "model_gflops",
                     "model_time_ns", "efficiency"):
            assert record[name] == 0.0, name
        assert record["conserved"]["rows"] == 2
        assert record["conserved"]["edges"] == 0

    def test_multinode_assembles_empty_shards(self):
        estimate, report = run_multinode(
            "arxiv", 32, max_vertices=64, embedding_dim=64,
            sweep_kwargs={"workers": 1},
        )
        empty = [r for r in report.records if r["shard"]["edges"] == 0]
        assert len(empty) == 3
        assert all(r["source"] == "simulation" for r in empty)
        adj = _materialized("arxiv", 64, 0)
        assert estimate.conserved == conserved_counters(
            adj.n_rows, adj.nnz, 64, PIUMAConfig()
        )
        assert estimate.degraded_shards == 0
