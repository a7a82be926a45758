"""Shared fixtures: small deterministic graphs used across the suite."""

import random

import numpy as np
import pytest

from repro.graphs.rmat import RMATParams, rmat_graph
from repro.sparse.csr import CSRMatrix


@pytest.fixture(autouse=True)
def _pin_global_seeds():
    """Reset the global RNGs before every test.

    Library code takes explicit seeds or Generator objects, but a test
    that reaches for ``np.random`` / ``random`` directly must not
    inherit state from whichever test ran before it.
    """
    random.seed(1234)
    np.random.seed(1234)


@pytest.fixture
def tiny_csr():
    """A fixed 4x4 matrix with known structure.

    [[0, 2, 0, 0],
     [1, 0, 3, 0],
     [0, 0, 0, 0],
     [4, 0, 0, 5]]
    """
    indptr = [0, 1, 3, 3, 5]
    indices = [1, 0, 2, 0, 3]
    data = [2.0, 1.0, 3.0, 4.0, 5.0]
    return CSRMatrix(indptr, indices, data, (4, 4))


@pytest.fixture
def small_rmat():
    """A deterministic skewed RMAT graph, 256 vertices, ~2k edges."""
    return rmat_graph(RMATParams(scale=8, edge_factor=8), seed=42, symmetric=True)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def loop_calls(monkeypatch):
    """Names of the DES main loops run in this test, in call order.

    ``"replay"`` for native compiled replay (its entry point,
    ``vector_engine._replay_native``) and ``"reference"`` for
    ``Simulator._run_reference``.  Only runs in this process are seen.
    """
    from repro.piuma import vector_engine
    from repro.piuma.engine import Simulator

    calls = []
    run_reference = Simulator._run_reference
    replay = vector_engine._replay_native

    def spy_reference(sim):
        calls.append("reference")
        return run_reference(sim)

    def spy_replay(*args):
        calls.append("replay")
        return replay(*args)

    monkeypatch.setattr(Simulator, "_run_reference", spy_reference)
    monkeypatch.setattr(vector_engine, "_replay_native", spy_replay)
    return calls
