"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_cycle() -> ArrayGraph:
    """A 12-node cycle: connected, sparse, minimum degree 2."""
    return generators.cycle_graph(12)


@pytest.fixture
def small_path() -> ArrayGraph:
    """A 10-node path: connected, minimum degree 1."""
    return generators.path_graph(10)


@pytest.fixture
def small_star() -> ArrayGraph:
    """A 9-node star: diameter 2, very uneven degrees."""
    return generators.star_graph(9)


@pytest.fixture
def small_digraph() -> ArrayDiGraph:
    """A 8-node directed cycle (strongly connected, out-degree 1)."""
    from repro.graphs import directed_generators

    return directed_generators.directed_cycle(8)
