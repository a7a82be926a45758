"""Kernel-level behavior of the simulated SpMM implementations.

These tests assert the *shapes* the paper reports, on a small RMAT
graph and small PIUMA configs so the whole module runs in seconds.
"""

import numpy as np
import pytest

from repro.graphs.rmat import RMATParams, rmat_graph
from repro.piuma import PIUMAConfig, simulate_spmm, spmm_model
from repro.piuma.degradation import DegradationSpec, thread_placements
from repro.piuma.kernels import ThreadWork, auto_window, split_work
from repro.piuma.spmm_loop import nnz_line_core, owner_core


@pytest.fixture(scope="module")
def adj():
    return rmat_graph(RMATParams(scale=12, edge_factor=16), seed=1)


def efficiency(adj, embedding_dim, config, kernel):
    result = simulate_spmm(adj, embedding_dim, config, kernel=kernel)
    model = spmm_model(adj.n_rows, adj.nnz, embedding_dim, config)
    return result.efficiency_vs(model.gflops)


class TestPlacement:
    def test_owner_core_in_range(self):
        for v in range(200):
            assert 0 <= owner_core(v, 8) < 8

    def test_owner_core_spreads_hubs(self):
        """Low-biased RMAT hub ids must not concentrate on slice 0."""
        counts = [0] * 8
        for v in range(0, 4096, 2):  # even ids, low-bit biased
            counts[owner_core(v, 8)] += 1
        assert max(counts) < 2 * min(counts) + 8

    def test_nnz_line_interleaves(self):
        cores = {nnz_line_core(e, 8, 4) for e in range(0, 256, 8)}
        assert cores == {0, 1, 2, 3}


class TestWindowing:
    def test_auto_window_bounds(self):
        cfg = PIUMAConfig(n_cores=1)
        assert auto_window(cfg, 10**9) >= 4096
        assert auto_window(cfg, 10**9) <= 131072
        assert auto_window(cfg, 100) == 100

    def test_split_covers_all_threads(self, adj):
        cfg = PIUMAConfig(n_cores=2)
        work = split_work(adj, cfg, auto_window(cfg, adj.nnz))
        assert len(work) == cfg.n_threads
        cores = {w.core for w in work}
        assert cores == {0, 1}

    def test_split_rows_match_edges(self, adj):
        cfg = PIUMAConfig(n_cores=1)
        for w in split_work(adj, cfg, 2048):
            assert len(w.rows) == len(w.cols)
            # Row of each edge must own it in the CSR.
            for offset in (0, len(w.cols) - 1):
                e = w.start_edge + offset
                r = w.rows[offset]
                assert adj.indptr[r] <= e < adj.indptr[r + 1]


def per_range_rows(adj, lo, stop):
    return np.searchsorted(
        adj.indptr, np.arange(lo, stop, dtype=np.int64), side="right"
    ) - 1


def per_thread_split(adj, config, window_edges):
    """The original ``split_work``: one ``searchsorted`` per thread."""
    placements = thread_placements(config)
    bounds = np.linspace(0, adj.nnz, config.n_threads + 1).astype(np.int64)
    per_thread = max(1, int(round(window_edges / config.n_threads)))
    work = []
    for t in range(config.n_threads):
        start, end = int(bounds[t]), int(bounds[t + 1])
        stop = min(end, start + per_thread)
        if stop <= start:
            continue
        core, mtp = placements[t]
        work.append(ThreadWork(core=core, mtp=mtp,
                               cols=adj.indices[start:stop],
                               rows=per_range_rows(adj, start, stop),
                               start_edge=start))
    return work


def per_thread_vertex_split(adj, config, window_edges):
    """The original ``split_work_vertex``: one loop step per thread."""
    fraction = min(1.0, window_edges / adj.nnz) if adj.nnz else 0.0
    placements = thread_placements(config)
    row_bounds = np.linspace(0, adj.n_rows, config.n_threads + 1).astype(
        np.int64)
    work = []
    for t in range(config.n_threads):
        lo = int(adj.indptr[int(row_bounds[t])])
        hi = int(adj.indptr[int(row_bounds[t + 1])])
        take = int(round((hi - lo) * fraction))
        if take <= 0:
            continue
        core, mtp = placements[t]
        work.append(ThreadWork(core=core, mtp=mtp,
                               cols=adj.indices[lo:lo + take],
                               rows=per_range_rows(adj, lo, lo + take),
                               start_edge=lo))
    return work


def per_chunk_make_chunks(adj, config, window_edges, rows_per_chunk):
    """The original ``make_chunks``: one loop step per row chunk."""
    fraction = min(1.0, window_edges / adj.nnz) if adj.nnz else 0.0
    chunks = []
    for row_start in range(0, adj.n_rows, rows_per_chunk):
        row_end = min(row_start + rows_per_chunk, adj.n_rows)
        lo, hi = int(adj.indptr[row_start]), int(adj.indptr[row_end])
        take = int(round((hi - lo) * fraction))
        if take > 0:
            chunks.append(ThreadWork(0, 0, adj.indices[lo:lo + take],
                                     per_range_rows(adj, lo, lo + take), lo))
    return chunks


class TestSplitOracle:
    """One ``searchsorted`` per window, identical to one per thread."""

    DEGRADED = DegradationSpec(dead_core_fraction=0.3, dead_mtp_fraction=0.3,
                               seed=5)

    def assert_same_work(self, got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.core, g.mtp, g.start_edge) == (w.core, w.mtp,
                                                     w.start_edge)
            assert type(g.start_edge) is int
            for a, b in ((g.cols, w.cols), (g.rows, w.rows)):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("degraded", [False, True],
                             ids=["healthy", "degraded"])
    @pytest.mark.parametrize("n_cores", [1, 8, 32])
    def test_matches_per_thread_loop(self, adj, n_cores, degraded):
        config = PIUMAConfig(n_cores=n_cores,
                             degradation=self.DEGRADED if degraded else None)
        for window in (auto_window(config, adj.nnz), 1, 5000, adj.nnz):
            self.assert_same_work(split_work(adj, config, window),
                                  per_thread_split(adj, config, window))

    def test_degraded_placements_differ(self):
        healthy = thread_placements(PIUMAConfig(n_cores=8))
        degraded = thread_placements(
            PIUMAConfig(n_cores=8, degradation=self.DEGRADED))
        assert healthy != degraded

    @pytest.mark.parametrize("n_cores", [1, 8, 32])
    def test_graph_smaller_than_thread_count(self, n_cores):
        small = rmat_graph(RMATParams(scale=4, edge_factor=2), seed=3)
        config = PIUMAConfig(n_cores=n_cores)
        assert small.nnz < config.n_threads
        work = split_work(small, config, auto_window(config, small.nnz))
        # Threads whose slice is empty get no work.
        assert len(work) == small.nnz
        self.assert_same_work(work, per_thread_split(
            small, config, auto_window(config, small.nnz)))

    @pytest.mark.parametrize("degraded", [False, True],
                             ids=["healthy", "degraded"])
    @pytest.mark.parametrize("n_cores", [1, 8, 32])
    def test_vertex_split_matches_per_thread_loop(self, adj, n_cores,
                                                  degraded):
        from repro.piuma.spmm_vertex import split_work_vertex

        config = PIUMAConfig(n_cores=n_cores,
                             degradation=self.DEGRADED if degraded else None)
        for window in (auto_window(config, adj.nnz), 1, 5000, adj.nnz):
            self.assert_same_work(
                split_work_vertex(adj, config, window),
                per_thread_vertex_split(adj, config, window))

    @pytest.mark.parametrize("rows_per_chunk", [1, 7, 64, 5000])
    def test_chunks_match_per_chunk_loop(self, adj, rows_per_chunk):
        from repro.piuma.spmm_dynamic import make_chunks

        config = PIUMAConfig(n_cores=2)
        for window in (1, 777, 5000, adj.nnz):
            got = make_chunks(adj, config, window, rows_per_chunk)
            self.assert_same_work(
                [ThreadWork(0, 0, cols, rows, lo) for lo, cols, rows in got],
                per_chunk_make_chunks(adj, config, window, rows_per_chunk))

    def test_rows_are_views_of_one_array(self, adj):
        work = split_work(adj, PIUMAConfig(n_cores=8), 4096)
        base = work[0].rows.base
        assert base is not None
        assert all(w.rows.base is base for w in work)


class TestKernelResults:
    def test_rejects_empty_matrix(self):
        from repro.sparse.csr import CSRMatrix

        empty = CSRMatrix([0, 0], [], [], (1, 1))
        with pytest.raises(ValueError):
            simulate_spmm(empty, 8, PIUMAConfig(n_cores=1))

    def test_rejects_unknown_kernel(self, adj):
        with pytest.raises(ValueError):
            simulate_spmm(adj, 8, PIUMAConfig(n_cores=1), kernel="avx")

    def test_projection_scales_with_graph(self, adj):
        cfg = PIUMAConfig(n_cores=1)
        r = simulate_spmm(adj, 8, cfg, window_edges=2048)
        assert r.window_edges <= 2048 + cfg.n_threads
        assert r.projected_time_ns > r.sim_time_ns * 0.5
        assert r.total_edges == adj.nnz

    def test_tag_stats_present(self, adj):
        r = simulate_spmm(adj, 8, PIUMAConfig(n_cores=1), window_edges=2048)
        assert "nnz" in r.tag_stats
        assert "dma_read" in r.tag_stats

    def test_wait_fraction_sums_below_one(self, adj):
        r = simulate_spmm(adj, 8, PIUMAConfig(n_cores=1), window_edges=2048)
        total = sum(r.wait_fraction(t) for t in r.tag_stats)
        assert total == pytest.approx(1.0)


class TestPaperShapes:
    """The headline claims of Section IV, at reduced scale."""

    def test_dma_near_model_single_core(self, adj):
        assert efficiency(adj, 64, PIUMAConfig(n_cores=1), "dma") > 0.85

    def test_dma_within_band_at_eight_cores(self, adj):
        assert efficiency(adj, 64, PIUMAConfig(n_cores=8), "dma") > 0.8

    def test_loop_competitive_at_low_core_count(self, adj):
        assert efficiency(adj, 64, PIUMAConfig(n_cores=2), "loop") > 0.75

    @pytest.mark.slow
    def test_loop_collapses_past_eight_cores(self, adj):
        """Fig 5: loop-unrolled under 40% of the model at high core
        counts while DMA stays close."""
        cfg = PIUMAConfig(n_cores=16)
        loop = efficiency(adj, 64, cfg, "loop")
        dma = efficiency(adj, 64, cfg, "dma")
        assert loop < 0.5
        assert dma > 0.75
        assert dma > 1.8 * loop

    def test_dma_bandwidth_scaling_linear(self, adj):
        """Fig 6 top: throughput linear in DRAM-slice bandwidth."""
        base = simulate_spmm(
            adj, 64, PIUMAConfig(n_cores=2, dram_bandwidth_scale=1.0)
        ).gflops
        double = simulate_spmm(
            adj, 64, PIUMAConfig(n_cores=2, dram_bandwidth_scale=2.0)
        ).gflops
        assert double / base == pytest.approx(2.0, rel=0.15)

    def test_latency_insensitive_with_full_threads(self, adj):
        """Fig 6 bottom: flat up to 360 ns with 16 threads/MTP."""
        cfg = PIUMAConfig(n_cores=2)
        base = simulate_spmm(adj, 64, cfg).gflops
        slow = simulate_spmm(
            adj, 64, cfg.with_(dram_latency_ns=360.0)
        ).gflops
        assert slow > 0.75 * base

    def test_latency_sensitivity_single_thread_small_k(self, adj):
        """Fig 7: one thread/MTP loses latency tolerance at K=8..."""
        cfg = PIUMAConfig(n_cores=2, threads_per_mtp=1)
        base = simulate_spmm(adj, 8, cfg).gflops
        slow = simulate_spmm(adj, 8, cfg.with_(dram_latency_ns=360.0)).gflops
        assert slow < 0.6 * base

    def test_latency_tolerance_single_thread_large_k(self, adj):
        """... but keeps it at K=256 (DMA requests are big enough)."""
        cfg = PIUMAConfig(n_cores=2, threads_per_mtp=1)
        base = simulate_spmm(adj, 256, cfg).gflops
        slow = simulate_spmm(adj, 256, cfg.with_(dram_latency_ns=360.0)).gflops
        assert slow > 0.75 * base

    def test_nnz_traffic_share_shrinks_with_k(self, adj):
        """Fig 8 right: '2-NNZs are read for every 8 DMA reads and
        writes' at K=8 versus every 256 at K=256 — the NNZ share of
        memory traffic collapses as the embedding dimension grows."""
        cfg = PIUMAConfig(n_cores=2)

        def nnz_byte_share(result):
            total = sum(s.bytes for s in result.tag_stats.values())
            return result.tag_stats["nnz"].bytes / total

        small = nnz_byte_share(simulate_spmm(adj, 8, cfg))
        large = nnz_byte_share(simulate_spmm(adj, 256, cfg))
        assert large < small / 8

    def test_deterministic(self, adj):
        cfg = PIUMAConfig(n_cores=2)
        a = simulate_spmm(adj, 16, cfg).gflops
        b = simulate_spmm(adj, 16, cfg).gflops
        assert a == b
