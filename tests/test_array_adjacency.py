"""Property-style randomized tests for the array graph substrate.

:class:`DynamicGraph` / :class:`DynamicDiGraph` act as the oracle: every
randomized operation sequence is applied to both representations and all
observable state must agree — degrees, membership, edge sets, neighbour
row order, sampling, and the structural invariants (no self loops, no
duplicates).  Capacity doubling is crossed deliberately so growth bugs
cannot hide below the initial allocation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.adjacency import DynamicDiGraph, DynamicGraph
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph, GraphMemoryError
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen


def random_edge_sequence(n, count, rng):
    """A seeded edge stream with duplicates and self loops mixed in."""
    us = rng.integers(n, size=count)
    vs = rng.integers(n, size=count)
    return list(zip(us.tolist(), vs.tolist()))


class TestArrayGraphOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_add_sequence_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        oracle = DynamicGraph(n)
        array = ArrayGraph(n)
        for u, v in random_edge_sequence(n, 4 * n, rng):
            assert oracle.add_edge(u, v) == array.add_edge(u, v)
        assert array.number_of_edges() == oracle.number_of_edges()
        assert array.edge_list() == oracle.edge_list()
        assert np.array_equal(array.degrees(), oracle.degrees())
        assert array.min_degree() == oracle.min_degree()
        assert array.max_degree() == oracle.max_degree()
        for u in range(n):
            # Same contents *and* same insertion order per row.
            assert array.neighbors(u).tolist() == list(oracle.neighbors(u))
        for u, v in random_edge_sequence(n, 50, rng):
            assert array.has_edge(u, v) == oracle.has_edge(u, v)
        assert np.array_equal(array.adjacency_matrix(), oracle.adjacency_matrix())
        assert array == oracle  # cross-representation equality

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_add_matches_sequential_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 30))
        oracle = DynamicGraph(n)
        array = ArrayGraph(n)
        for _ in range(6):
            chunk = random_edge_sequence(n, n, rng)
            assert array.add_edges_batch(chunk) == oracle.add_edges_batch(chunk)
        assert array == oracle
        for u in range(n):
            assert array.neighbors(u).tolist() == list(oracle.neighbors(u))

    def test_no_self_loops_or_duplicates_ever(self):
        rng = np.random.default_rng(3)
        g = ArrayGraph(12)
        g.add_edges_batch(random_edge_sequence(12, 300, rng))
        seen = set()
        for u in range(12):
            row = g.neighbors(u).tolist()
            assert u not in row, "self loop stored"
            assert len(row) == len(set(row)), "duplicate neighbour stored"
            for v in row:
                seen.add((min(u, v), max(u, v)))
        assert len(seen) == g.number_of_edges()

    def test_growth_across_capacity_doubling(self):
        # A star forces one node's row through every doubling boundary.
        n = 70
        g = ArrayGraph(n)
        caps = {g.capacity}
        for leaf in range(1, n):
            g.add_edge(0, leaf)
            caps.add(g.capacity)
            assert g.degree(0) == leaf
            assert g.neighbors(0).tolist() == list(range(1, leaf + 1))
        assert g.capacity >= n - 1
        assert caps == {4, 8, 16, 32, 64, 128}, "capacity must grow by doubling"
        oracle = DynamicGraph(n, [(0, leaf) for leaf in range(1, n)])
        assert g == oracle

    def test_random_neighbor_uniform_over_fixed_seed(self):
        g = gen.star_graph(9)  # hub 0, leaves 1..8
        rng = np.random.default_rng(42)
        counts = np.zeros(9, dtype=int)
        draws = 8000
        for _ in range(draws):
            counts[g.random_neighbor(0, rng)] += 1
        assert counts[0] == 0
        expected = draws / 8
        assert np.all(np.abs(counts[1:] - expected) < 5 * np.sqrt(expected))

    def test_bulk_random_neighbors_matches_list_backend_stream(self):
        fast = gen.erdos_renyi_graph(30, 0.2, rng=np.random.default_rng(8))
        oracle = fast.to_dynamic()
        nodes = np.arange(30)
        draws_list = oracle.random_neighbors(nodes, np.random.default_rng(77))
        draws_array = fast.random_neighbors(nodes, np.random.default_rng(77))
        assert np.array_equal(draws_list, draws_array)

    def test_bulk_sampling_handles_isolated_and_sentinel_nodes(self):
        g = ArrayGraph(5, [(0, 1)])
        rng = np.random.default_rng(0)
        out = g.random_neighbors(np.array([0, 2, -1, 1]), rng)
        assert out[0] == 1 and out[3] == 0
        assert out[1] == -1 and out[2] == -1

    def test_copy_is_independent(self):
        g = gen.cycle_graph(10)
        h = g.copy()
        h.add_edge(0, 5)
        assert not g.has_edge(0, 5)
        assert h.has_edge(0, 5)

    def test_roundtrip_conversions(self):
        fast = gen.erdos_renyi_graph(20, 0.3, rng=np.random.default_rng(4))
        oracle = fast.to_dynamic()
        assert isinstance(oracle, DynamicGraph)
        back = ArrayGraph.from_graph(oracle)
        assert oracle == fast and back == fast
        for u in range(fast.n):
            # Both directions keep every row's insertion order.
            assert list(oracle.neighbors(u)) == fast.neighbors(u).tolist()
            assert back.neighbors(u).tolist() == fast.neighbors(u).tolist()
        added = oracle.add_edge(0, 19)
        assert fast.has_edge(0, 19) != added  # the twin is an independent copy

    @pytest.mark.parametrize("seed", range(3))
    def test_edges_argument_matches_sequential_inserts(self, seed):
        rng = np.random.default_rng(400 + seed)
        edges = random_edge_sequence(15, 60, rng)
        oracle = DynamicGraph(15, edges)
        array = ArrayGraph(15, iter(edges))
        assert array == oracle
        for u in range(15):
            assert array.neighbors(u).tolist() == list(oracle.neighbors(u))

    @pytest.mark.parametrize("seed", range(3))
    def test_subgraph_matches_oracle(self, seed):
        rng = np.random.default_rng(500 + seed)
        host = gen.erdos_renyi_graph(25, 0.3, rng=rng)
        members = rng.permutation(25)[:12].tolist()
        sub, mapping = host.subgraph(members)
        ref, ref_mapping = host.to_dynamic().subgraph(members)
        assert isinstance(sub, ArrayGraph)
        assert mapping == ref_mapping
        assert sub == ref
        for u in range(len(members)):
            assert sub.neighbors(u).tolist() == list(ref.neighbors(u))

    def test_subgraph_rejects_bad_selections(self):
        g = gen.cycle_graph(6)
        with pytest.raises(ValueError, match="duplicate"):
            g.subgraph([0, 1, 1])
        with pytest.raises(IndexError):
            g.subgraph([0, 6])
        with pytest.raises(IndexError):
            g.subgraph([-1, 2])

    def test_out_of_range_nodes_rejected(self):
        g = ArrayGraph(4)
        with pytest.raises(IndexError):
            g.add_edge(0, 4)
        with pytest.raises(IndexError):
            g.add_edges_batch([(0, 9)])
        with pytest.raises(ValueError):
            g.random_neighbor(0, np.random.default_rng(0))  # isolated



class TestGraphMemoryGuard:
    """Allocations past physical RAM fail loudly instead of ending in an OOM kill."""

    @pytest.mark.parametrize("cls", [ArrayGraph, ArrayDiGraph])
    def test_construction_beyond_ram_raises(self, cls):
        # The membership bitset alone is n²/8 = 128 GiB.
        with pytest.raises(GraphMemoryError, match=r"n=1048576") as info:
            cls(2**20)
        assert isinstance(info.value, MemoryError)
        assert "bytes" in str(info.value) and "physical RAM" in str(info.value)

    @pytest.mark.parametrize("cls", [ArrayGraph, ArrayDiGraph])
    def test_growth_beyond_ram_raises(self, cls):
        g = cls(1024)
        with pytest.raises(GraphMemoryError, match=r"n=1024"):
            g._ensure_capacity(10**9)
        assert g.capacity == 4  # the failed growth left the graph untouched

    def test_non_growing_path_never_checks(self, monkeypatch):
        from repro.graphs import array_adjacency

        g = ArrayGraph(8)
        monkeypatch.setattr(array_adjacency, "_physical_memory", lambda: 0)
        g._ensure_capacity(g.capacity)  # no allocation, so no check
        with pytest.raises(GraphMemoryError):
            g._ensure_capacity(g.capacity + 1)


class TestArrayDiGraphOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_add_sequence_matches_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(5, 30))
        oracle = DynamicDiGraph(n)
        array = ArrayDiGraph(n)
        for u, v in random_edge_sequence(n, 4 * n, rng):
            assert oracle.add_edge(u, v) == array.add_edge(u, v)
        assert array.number_of_edges() == oracle.number_of_edges()
        assert array.edge_list() == oracle.edge_list()
        assert np.array_equal(array.out_degrees(), oracle.out_degrees())
        assert np.array_equal(array.in_degrees(), oracle.in_degrees())
        for u in range(n):
            assert array.out_neighbors(u).tolist() == list(oracle.out_neighbors(u))
        assert np.array_equal(array.adjacency_matrix(), oracle.adjacency_matrix())
        assert array == oracle

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_add_matches_sequential_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(5, 25))
        oracle = DynamicDiGraph(n)
        array = ArrayDiGraph(n)
        for _ in range(5):
            chunk = random_edge_sequence(n, n, rng)
            assert array.add_edges_batch(chunk) == oracle.add_edges_batch(chunk)
        assert array == oracle

    def test_bulk_out_sampling_matches_list_backend_stream(self):
        fast = dgen.random_strongly_connected_digraph(20, rng=np.random.default_rng(6))
        base = fast.to_dynamic()
        nodes = np.arange(20)
        a = base.random_out_neighbors(nodes, np.random.default_rng(13))
        b = fast.random_out_neighbors(nodes, np.random.default_rng(13))
        assert np.array_equal(a, b)

    def test_out_neighbors_at_gather_parity(self):
        fast = dgen.random_strongly_connected_digraph(15, rng=np.random.default_rng(2))
        base = fast.to_dynamic()
        rng = np.random.default_rng(21)
        nodes = rng.integers(15, size=30)
        idx = np.where(
            base.out_degrees()[nodes] > 0,
            rng.integers(1 << 30, size=30) % np.maximum(base.out_degrees()[nodes], 1),
            -1,
        )
        a = base.out_neighbors_at(nodes, idx)
        b = fast.out_neighbors_at(nodes, idx)
        assert np.array_equal(a, b)
        assert np.all((a >= 0) == (idx >= 0))  # -1 sentinel passthrough

    def test_growth_across_capacity_doubling(self):
        n = 40
        g = ArrayDiGraph(n)
        for v in range(1, n):
            g.add_edge(0, v)
        assert g.out_degree(0) == n - 1
        assert g.capacity >= n - 1
        assert g.out_neighbors(0).tolist() == list(range(1, n))
        assert g.in_degrees().sum() == n - 1

    def test_to_undirected_forgets_direction(self):
        g = ArrayDiGraph(4, [(0, 1), (1, 0), (2, 3)])
        und = g.to_undirected()
        assert und.edge_list() == [(0, 1), (2, 3)]
