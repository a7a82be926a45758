"""Recursive-MATrix (RMAT) graph generator.

The paper uses the SNAP RMAT generator for its linear sweeps (Fig 2) and
for the ``power-16``/``power-22`` graphs in Fig 9.  This is a
from-scratch, vectorized implementation of the standard RMAT scheme: a
``2^scale x 2^scale`` adjacency matrix is subdivided recursively into
quadrants, and each edge independently descends ``scale`` levels choosing
a quadrant with probabilities ``(a, b, c, d)``.

``(0.25, 0.25, 0.25, 0.25)`` yields an Erdos-Renyi-like uniform degree
distribution (what Fig 2's "uniform degree" sweep needs);
``(0.57, 0.19, 0.19, 0.05)`` is the Graph500 power-law setting used for
the ``power-*`` graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix

#: Graph500 quadrant probabilities (skewed, power-law-like degrees).
GRAPH500 = (0.57, 0.19, 0.19, 0.05)

#: Uniform quadrant probabilities (Erdos-Renyi-like degrees).
UNIFORM = (0.25, 0.25, 0.25, 0.25)


@dataclass(frozen=True)
class RMATParams:
    """Parameters of one RMAT generation run.

    Attributes
    ----------
    scale:
        ``log2`` of the number of vertices.
    edge_factor:
        Average edges per vertex; ``n_edges = edge_factor * 2**scale``.
    abcd:
        Quadrant probabilities; must sum to 1.
    """

    scale: int
    edge_factor: float
    abcd: tuple = GRAPH500

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be non-negative")
        if self.edge_factor <= 0:
            raise ValueError("edge_factor must be positive")
        if len(self.abcd) != 4 or abs(sum(self.abcd) - 1.0) > 1e-9:
            raise ValueError("abcd must be four probabilities summing to 1")
        if min(self.abcd) < 0:
            raise ValueError("abcd probabilities must be non-negative")

    @property
    def n_vertices(self):
        return 1 << self.scale

    @property
    def n_edges(self):
        return int(round(self.edge_factor * self.n_vertices))


def rmat_edges(params, seed=0):
    """Generate RMAT edge endpoints.

    Returns ``(src, dst)`` int64 arrays of length ``params.n_edges``.
    Duplicate edges and self loops are kept (coalescing, if wanted, is
    the caller's choice via CSR conversion), matching SNAP behaviour.

    Each level draws one uniform per edge into a reused buffer (the
    same stream as one ``rng.random(n_edges)`` call per level) and
    shifts the two quadrant bits into the endpoints in place, in
    ``int32`` while ``scale <= 30``.
    """
    rng = np.random.default_rng(seed)
    n_edges = params.n_edges
    a, b, c, _ = params.abcd
    ab, abc = a + b, a + b + c
    dtype = np.int32 if params.scale <= 30 else np.int64
    src = np.zeros(n_edges, dtype=dtype)
    dst = np.zeros(n_edges, dtype=dtype)
    draws = np.empty(n_edges, dtype=np.float64)
    down = np.empty(n_edges, dtype=bool)
    right = np.empty(n_edges, dtype=bool)
    far = np.empty(n_edges, dtype=bool)
    for _ in range(params.scale):
        rng.random(out=draws)
        # Quadrants in row-major order: a=(0,0), b=(0,1), c=(1,0), d=(1,1).
        # Right is [a, a+b) or [a+b+c, 1); with non-negative
        # probabilities a <= a+b, so [a, a+b) is (>= a) xor (>= a+b).
        np.greater_equal(draws, ab, out=down)
        np.greater_equal(draws, a, out=right)
        np.greater_equal(draws, abc, out=far)
        right ^= down
        right |= far
        src <<= 1
        src |= down
        dst <<= 1
        dst |= right
    return src.astype(np.int64, copy=False), dst.astype(np.int64, copy=False)


def rmat_graph(params, seed=0, symmetric=False):
    """Generate an RMAT graph as a CSR adjacency matrix.

    Duplicate edges are summed by the CSR conversion.

    Parameters
    ----------
    params:
        :class:`RMATParams`.
    seed:
        Deterministic generator seed.
    symmetric:
        When true, every edge is mirrored so the adjacency is symmetric
        (undirected graph), as GCN normalization expects.
    """
    src, dst = rmat_edges(params, seed)
    if symmetric:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    n = params.n_vertices
    return CSRMatrix.from_edges(src, dst, shape=(n, n))


def rmat_for_size(n_vertices, n_edges, abcd=GRAPH500, seed=0, symmetric=False):
    """Generate an RMAT-like graph matched to a vertex/edge budget.

    The smallest scale with ``2**scale >= n_vertices`` is generated and
    vertex ids are folded onto ``[0, n_vertices)`` so arbitrary (non
    power-of-two) sizes can be matched — this is how the synthetic OGB
    catalog materializes Table I shapes.
    """
    if n_vertices < 1:
        raise ValueError("n_vertices must be positive")
    scale = max(1, int(np.ceil(np.log2(n_vertices))))
    directed_edges = max(1, n_edges // 2) if symmetric else n_edges
    params = RMATParams(
        scale=scale,
        edge_factor=max(directed_edges / (1 << scale), 1e-9),
        abcd=abcd,
    )
    src, dst = rmat_edges(params, seed)
    if n_vertices != 1 << scale:
        np.remainder(src, n_vertices, out=src)
        np.remainder(dst, n_vertices, out=dst)
    if symmetric:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return CSRMatrix.from_edges(src, dst, shape=(n_vertices, n_vertices))
