import numpy as np
import pytest

from repro.graphs.rmat import (
    GRAPH500,
    UNIFORM,
    RMATParams,
    rmat_edges,
    rmat_for_size,
    rmat_graph,
)


class TestParams:
    def test_counts(self):
        p = RMATParams(scale=10, edge_factor=16)
        assert p.n_vertices == 1024
        assert p.n_edges == 16384

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            RMATParams(scale=4, edge_factor=2, abcd=(0.5, 0.5, 0.5, 0.5))

    def test_rejects_negative_probability(self):
        # Sums to 1, but the quadrant thresholds a <= a+b <= a+b+c
        # no longer hold.
        with pytest.raises(ValueError, match="non-negative"):
            RMATParams(scale=4, edge_factor=2, abcd=(0.6, -0.1, 0.3, 0.2))

    def test_zero_probability_quadrant_is_never_taken(self):
        src, dst = rmat_edges(
            RMATParams(scale=6, edge_factor=8, abcd=(0.5, 0.0, 0.5, 0.0)),
            seed=4,
        )
        # b = d = 0: every edge stays in the left column.
        assert dst.max() == 0 and src.max() > 0

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            RMATParams(scale=-1, edge_factor=2)

    def test_rejects_zero_edge_factor(self):
        with pytest.raises(ValueError):
            RMATParams(scale=4, edge_factor=0)


class TestGeneration:
    def test_deterministic_by_seed(self):
        p = RMATParams(scale=8, edge_factor=8)
        s1, d1 = rmat_edges(p, seed=3)
        s2, d2 = rmat_edges(p, seed=3)
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(d1, d2)

    def test_different_seeds_differ(self):
        p = RMATParams(scale=8, edge_factor=8)
        s1, _ = rmat_edges(p, seed=1)
        s2, _ = rmat_edges(p, seed=2)
        assert not np.array_equal(s1, s2)

    def test_endpoints_in_range(self):
        p = RMATParams(scale=6, edge_factor=4)
        src, dst = rmat_edges(p, seed=0)
        assert src.min() >= 0 and src.max() < 64
        assert dst.min() >= 0 and dst.max() < 64

    def test_edge_count(self):
        p = RMATParams(scale=7, edge_factor=5)
        src, dst = rmat_edges(p, seed=0)
        assert src.shape[0] == p.n_edges == dst.shape[0]

    def test_skewed_has_higher_max_degree_than_uniform(self):
        skew = rmat_graph(RMATParams(10, 16, GRAPH500), seed=0)
        flat = rmat_graph(RMATParams(10, 16, UNIFORM), seed=0)
        assert skew.row_degrees().max() > flat.row_degrees().max()

    def test_symmetric_graph_is_symmetric(self):
        g = rmat_graph(RMATParams(7, 8), seed=5, symmetric=True)
        dense = g.to_dense()
        np.testing.assert_allclose(dense, dense.T)

    def test_same_stream_as_one_draw_per_level(self):
        # The level loop's reused buffer draws the stream of one
        # ``rng.random(n_edges)`` call per level.
        p = RMATParams(scale=9, edge_factor=3, abcd=(0.45, 0.15, 0.3, 0.1))
        rng = np.random.default_rng(11)
        src = np.zeros(p.n_edges, dtype=np.int64)
        dst = np.zeros(p.n_edges, dtype=np.int64)
        a, b, c, _ = p.abcd
        for _ in range(p.scale):
            draws = rng.random(p.n_edges)
            right = ((draws >= a) & (draws < a + b)) | (draws >= a + b + c)
            src = (src << 1) | (draws >= a + b)
            dst = (dst << 1) | right
        s, d = rmat_edges(p, seed=11)
        assert s.dtype == d.dtype == np.int64
        np.testing.assert_array_equal(s, src)
        np.testing.assert_array_equal(d, dst)


class TestForSize:
    def test_matches_vertex_budget(self):
        g = rmat_for_size(n_vertices=1000, n_edges=8000, seed=0)
        assert g.shape == (1000, 1000)

    def test_edge_budget_approximate(self):
        g = rmat_for_size(n_vertices=1000, n_edges=8000, seed=0)
        # Coalescing removes duplicates; within 40% is structural parity.
        assert 0.6 * 8000 <= g.nnz <= 8000

    def test_non_power_of_two(self):
        g = rmat_for_size(n_vertices=300, n_edges=1200, seed=1)
        assert g.shape == (300, 300)
        assert g.indices.max() < 300

    def test_rejects_zero_vertices(self):
        with pytest.raises(ValueError):
            rmat_for_size(0, 10)

    @pytest.mark.parametrize("falsy", [0, None, False])
    def test_falsy_symmetric_keeps_the_whole_edge_budget(self, falsy):
        # A falsy ``symmetric`` neither mirrors nor halves the budget.
        plain = rmat_for_size(500, 4000, seed=2)
        g = rmat_for_size(500, 4000, seed=2, symmetric=falsy)
        np.testing.assert_array_equal(g.indptr, plain.indptr)
        np.testing.assert_array_equal(g.indices, plain.indices)

    def test_symmetric_halves_the_budget_and_mirrors(self):
        g = rmat_for_size(500, 4000, seed=2, symmetric=1)
        dense = g.to_dense()
        np.testing.assert_array_equal(dense, dense.T)
        assert g.nnz <= 4000
