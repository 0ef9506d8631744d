"""Property tests: word-packed bitset kernels ≡ naive boolean references.

Every kernel in :mod:`repro.graphs.bitset` has a one-line ``bool``-matrix
reference; hypothesis drives random matrices, random digraphs and random
edge batches through both and demands identical answers.  The closure
kernels are additionally checked against the original per-node Python BFS
(kept in :mod:`repro.graphs.closure` as the oracle), and the packed
membership storage of the array backend is pinned to the list backend's
behaviour under batches containing self loops and duplicates.  Every
kernel that returns or updates packed rows keeps two layout invariants:
rows are ``words_for(n)`` words wide and the padding bits above ``n`` in
the last word stay clear.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.push import PushDiscovery
from repro.graphs import bitset, closure
from repro.graphs import generators as gen
from repro.graphs.adjacency import DynamicDiGraph, DynamicGraph
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph

FAST = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def bool_matrices(draw, max_rows=9, max_bits=140):
    """A random boolean matrix whose width crosses word boundaries."""
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    n_bits = draw(st.integers(min_value=0, max_value=max_bits))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.random((rows, n_bits)) < draw(st.floats(min_value=0.0, max_value=1.0))


@st.composite
def digraph_edge_lists(draw, max_nodes=12, max_edges=40):
    """A random (n, directed edge list) pair; repeats and self loops allowed."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return n, edges


# --------------------------------------------------------------------------- #
# pack / unpack / bit ops
# --------------------------------------------------------------------------- #
class TestPackUnpack:
    @FAST
    @given(bool_matrices())
    def test_roundtrip(self, mat):
        packed = bitset.pack_bool_matrix(mat)
        assert packed.dtype == np.uint64
        assert packed.shape == (mat.shape[0], bitset.words_for(mat.shape[1]))
        assert np.array_equal(bitset.unpack_bool_matrix(packed, mat.shape[1]), mat)

    @FAST
    @given(bool_matrices())
    def test_popcounts_match_sum(self, mat):
        packed = bitset.pack_bool_matrix(mat)
        assert np.array_equal(bitset.row_popcounts(packed), mat.sum(axis=1))
        assert bitset.count_total(packed) == int(mat.sum())

    def test_zeros_allocates_word_rows(self):
        bits = bitset.zeros(5, 130)
        assert bits.shape == (5, 3)
        assert bits.dtype == np.uint64
        assert bitset.count_total(bits) == 0

    def test_memory_is_an_eighth_of_bool(self):
        n = 512
        assert bitset.zeros(n, n).nbytes * 8 == np.zeros((n, n), dtype=bool).nbytes


class TestBitOps:
    def test_scalar_ops_accept_numpy_integers_on_full_words(self):
        """Regression: a NumPy column index once pushed a word with bit 63 set
        through ``int64`` and overflowed (neighbour rows hand out ``np.int64``)."""
        bits = bitset.zeros(2, 128)
        for col in (np.int64(63), np.int64(127), np.int64(5)):
            bitset.set_bit(bits, np.int64(1), col)
        assert bitset.get_bit(bits, np.int64(1), np.int64(63))
        assert bitset.get_bit(bits, 1, np.int64(5))
        assert not bitset.get_bit(bits, 1, np.int64(4))
        g = ArrayGraph(70, [(0, v) for v in range(1, 70)])
        row = g.neighbors(0)  # np.int64 entries; node 0's first word is full
        assert g.has_edge(0, row[62]) and not g.has_edge(row[0], row[62])

    @FAST
    @given(bool_matrices(max_rows=8, max_bits=100), st.integers(0, 2**31 - 1))
    def test_get_set_clear_bits_match_reference(self, mat, seed):
        rows, n_bits = mat.shape
        if rows == 0 or n_bits == 0:
            return
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 25))
        rs = rng.integers(0, rows, size=k)
        cs = rng.integers(0, n_bits, size=k)

        packed = bitset.pack_bool_matrix(mat)
        assert np.array_equal(bitset.get_bits(packed, rs, cs), mat[rs, cs])

        bitset.set_bits(packed, rs, cs)
        ref = mat.copy()
        ref[rs, cs] = True
        assert np.array_equal(bitset.unpack_bool_matrix(packed, n_bits), ref)

        bitset.clear_bits(packed, rs, cs)
        ref[rs, cs] = False
        assert np.array_equal(bitset.unpack_bool_matrix(packed, n_bits), ref)

    @FAST
    @given(bool_matrices(max_rows=8, max_bits=100), st.integers(0, 2**31 - 1))
    def test_or_rows_matches_any(self, mat, seed):
        rows, n_bits = mat.shape
        if rows == 0:
            return
        rng = np.random.default_rng(seed)
        sel = np.flatnonzero(rng.random(rows) < 0.5)
        packed = bitset.pack_bool_matrix(mat)
        merged = bitset.or_rows(packed, sel)
        ref = mat[sel].any(axis=0) if sel.size else np.zeros(n_bits, dtype=bool)
        assert np.array_equal(
            bitset.unpack_bool_matrix(merged.reshape(1, -1), n_bits)[0], ref
        )

    @FAST
    @given(bool_matrices(max_rows=8, max_bits=100), st.integers(0, 2**31 - 1))
    def test_rows_or_into_matches_reference(self, mat, seed):
        """Scatter row-union delivery ≡ per-delivery ``|=`` on the bool matrix,
        including duplicate destinations and the chunked gather path."""
        rows, n_bits = mat.shape
        if rows == 0 or n_bits == 0:
            return
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 30))
        dst = rng.integers(0, rows, size=k)
        src = rng.integers(0, rows, size=k)
        packed = bitset.pack_bool_matrix(mat)
        bitset.rows_or_into(packed, dst, bitset.pack_bool_matrix(mat), src, chunk=3)
        ref = mat.copy()
        for d, s in zip(dst.tolist(), src.tolist()):
            ref[d] |= mat[s]
        assert np.array_equal(bitset.unpack_bool_matrix(packed, n_bits), ref)
        # payload-row form (one pre-gathered row per delivery)
        packed2 = bitset.pack_bool_matrix(mat)
        bitset.rows_or_into(packed2, dst, bitset.pack_bool_matrix(mat[src]), chunk=7)
        assert np.array_equal(bitset.unpack_bool_matrix(packed2, n_bits), ref)

    def test_rows_or_into_rejects_misaligned_payloads(self):
        bits = bitset.zeros(4, 10)
        with pytest.raises(ValueError):
            bitset.rows_or_into(bits, np.array([0, 1]), bitset.zeros(3, 10))
        with pytest.raises(ValueError):
            bitset.rows_or_into(bits, np.array([0, 1]), bits, np.array([0]))

    @FAST
    @given(bool_matrices(max_rows=8, max_bits=100), st.integers(0, 2**31 - 1))
    def test_delta_edges_matches_reference(self, mat, seed):
        rows, n_bits = mat.shape
        if rows == 0 or n_bits == 0 or rows != n_bits:
            return
        rng = np.random.default_rng(seed)
        grown = mat | (rng.random(mat.shape) < 0.3)
        old = bitset.pack_bool_matrix(mat)
        new = bitset.pack_bool_matrix(grown)
        us, vs = bitset.delta_edges(old, new, n_bits, directed=True)
        ref_us, ref_vs = np.nonzero(grown & ~mat)
        assert np.array_equal(us, ref_us) and np.array_equal(vs, ref_vs)
        # The undirected form reports each edge once (u < v) and never a
        # self loop, so the reference excludes the diagonal (k=1).
        uu, vu = bitset.delta_edges(old, new, n_bits, directed=False)
        ref_uu, ref_vu = np.nonzero(np.triu(grown & ~mat, k=1))
        assert np.array_equal(uu, ref_uu) and np.array_equal(vu, ref_vu)
        assert bool((uu < vu).all())

    @FAST
    @given(bool_matrices(max_rows=7, max_bits=80))
    def test_indices_and_transpose(self, mat):
        rows, n_bits = mat.shape
        packed = bitset.pack_bool_matrix(mat)
        for u in range(rows):
            assert np.array_equal(
                bitset.indices_from_bits(packed[u], n_bits), np.flatnonzero(mat[u])
            )
        if rows == n_bits:
            transposed = bitset.transpose_bits(packed, n_bits)
            assert np.array_equal(bitset.unpack_bool_matrix(transposed, n_bits), mat.T)


# --------------------------------------------------------------------------- #
# closure / reachability kernels vs the Python-BFS oracle
# --------------------------------------------------------------------------- #
class TestClosureKernels:
    @FAST
    @given(digraph_edge_lists())
    def test_closure_matches_bfs_oracle(self, n_edges):
        n, edges = n_edges
        g = DynamicDiGraph(n, edges)
        assert np.array_equal(
            closure.reachability_matrix(g), closure.reachability_matrix_bfs(g)
        )

    @FAST
    @given(digraph_edge_lists())
    def test_reachable_from_matches_bfs_oracle(self, n_edges):
        n, edges = n_edges
        g = DynamicDiGraph(n, edges)
        for source in range(n):
            assert closure.reachable_from(g, source) == closure.reachable_from_bfs(g, source)

    @FAST
    @given(digraph_edge_lists())
    def test_kernels_agree_across_backends(self, n_edges):
        n, edges = n_edges
        g_list = DynamicDiGraph(n, edges)
        g_array = ArrayDiGraph.from_graph(g_list)
        assert np.array_equal(
            closure.reachability_matrix(g_list), closure.reachability_matrix(g_array)
        )
        assert closure.transitive_closure_edges(g_list) == closure.transitive_closure_edges(
            g_array
        )
        assert closure.is_transitively_closed(g_list) == closure.is_transitively_closed(
            g_array
        )

    @FAST
    @given(digraph_edge_lists())
    def test_bfs_distances_bits_matches_queue_bfs(self, n_edges):
        n, edges = n_edges
        g = DynamicDiGraph(n, edges)
        bits = closure.adjacency_bits(g)
        for source in range(n):
            ref = np.full(n, -1, dtype=np.int64)
            ref[source] = 0
            frontier = [source]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for u in frontier:
                    for v in g.out_neighbors(u):
                        if ref[v] < 0:
                            ref[v] = d
                            nxt.append(v)
                frontier = nxt
            assert np.array_equal(bitset.bfs_distances_bits(bits, source), ref)


# --------------------------------------------------------------------------- #
# packed membership storage ≡ naive bool-matrix graph behaviour
# --------------------------------------------------------------------------- #
class TestPackedMembershipStorage:
    @FAST
    @given(digraph_edge_lists(max_nodes=10, max_edges=35))
    def test_undirected_batches_match_bool_reference(self, n_edges):
        """Random batches (self loops, duplicates included) against DynamicGraph."""
        n, edges = n_edges
        ref = DynamicGraph(n)
        g = ArrayGraph(n)
        half = len(edges) // 2
        for batch in (edges[:half], edges[half:]):
            assert g.add_edges_batch(batch) == ref.add_edges_batch(batch)
        assert np.array_equal(g.adjacency_matrix(), ref.adjacency_matrix())
        assert np.array_equal(
            bitset.unpack_bool_matrix(g.adjacency_bits(), n), ref.adjacency_matrix()
        )
        for u, v in edges:
            assert g.has_edge(u, v) == ref.has_edge(u, v)
        assert not any(g.has_edge(u, u) for u in range(n))

    @FAST
    @given(digraph_edge_lists(max_nodes=10, max_edges=35))
    def test_directed_batches_match_bool_reference(self, n_edges):
        n, edges = n_edges
        ref = DynamicDiGraph(n)
        g = ArrayDiGraph(n)
        half = len(edges) // 2
        for batch in (edges[:half], edges[half:]):
            assert g.add_edges_batch(batch) == ref.add_edges_batch(batch)
        assert np.array_equal(g.adjacency_matrix(), ref.adjacency_matrix())
        for u, v in edges:
            assert g.has_edge(u, v) == ref.has_edge(u, v)
        assert not any(g.has_edge(u, u) for u in range(n))

    def test_membership_memory_is_packed(self):
        n = 256
        g = ArrayGraph(n)
        assert g.membership_nbytes() * 8 == np.zeros((n, n), dtype=bool).nbytes
        d = ArrayDiGraph(n)
        assert d.membership_nbytes() == g.membership_nbytes()


# --------------------------------------------------------------------------- #
# packed layout invariants: row width and clear padding bits
# --------------------------------------------------------------------------- #
def _assert_packed_layout(bits, n):
    """Rows are ``words_for(n)`` words wide; no bit at column >= n is set."""
    bits = np.asarray(bits)
    assert bits.dtype == np.uint64
    assert bits.shape[-1] == bitset.words_for(n)
    if n % 64 and bits.size:
        padding = np.uint64((2**64 - 1) ^ ((1 << (n % 64)) - 1))
        assert not (bits[..., -1] & padding).any()


class TestPackedLayoutInvariants:
    @FAST
    @given(st.integers(min_value=1, max_value=140), st.integers(0, 2**31 - 1))
    @example(n=1, seed=0)
    @example(n=63, seed=1)
    @example(n=64, seed=2)
    @example(n=65, seed=3)
    @example(n=128, seed=4)
    @example(n=140, seed=5)
    def test_kernels_keep_width_and_clear_padding(self, n, seed):
        rng = np.random.default_rng(seed)
        mat = rng.random((n, n)) < rng.random()
        packed = bitset.pack_bool_matrix(mat)
        _assert_packed_layout(packed, n)

        rows = rng.integers(0, n, size=int(rng.integers(0, n + 1)))
        _assert_packed_layout(bitset.or_rows(packed, rows), n)

        dst = bitset.pack_bool_matrix(rng.random((n, n)) < 0.1)
        k = int(rng.integers(1, 2 * n + 1))
        bitset.rows_or_into(
            dst, rng.integers(0, n, size=k), packed, rng.integers(0, n, size=k), chunk=7
        )
        _assert_packed_layout(dst, n)
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n + 1))
        bitset.or_into_range(dst, lo, packed[lo:hi])
        _assert_packed_layout(dst, n)

        reach = bitset.transitive_closure_bits(packed, n)
        _assert_packed_layout(reach, n)
        m = int(rng.integers(0, n + 1))
        bitset.closure_add_edges(
            reach, rng.integers(0, n, size=m), rng.integers(0, n, size=m)
        )
        _assert_packed_layout(reach, n)
        _assert_packed_layout(bitset.reachable_bits(packed, int(rng.integers(0, n))), n)
        _assert_packed_layout(bitset.transpose_bits(packed, n), n)

        g = ArrayGraph(n)
        for _ in range(3):
            m = int(rng.integers(0, 2 * n + 1))
            g.add_edges_batch_arrays(
                rng.integers(0, n, size=m), rng.integers(0, n, size=m)
            )
            _assert_packed_layout(g.adjacency_bits(), n)


class TestGoldenTraceRegression:
    """The storage swap must not move a single trace byte (no RNG change)."""

    def test_array_backend_reproduces_golden_push_trace(self):
        golden = json.loads(
            (Path(__file__).parent / "data" / "golden_push_cycle_n64.json").read_text()
        )
        graph = gen.cycle_graph(golden["n"])
        process = PushDiscovery(graph, rng=golden["seed"])
        assert isinstance(process.graph, ArrayGraph)
        # Storage really is packed words, not bytes.
        n = golden["n"]
        assert process.graph.membership_nbytes() == bitset.words_for(n) * 8 * n
        result = process.run_to_convergence(record_history=True)
        replayed = [
            [r.round_index, [[int(u), int(v)] for u, v in r.added_edges]]
            for r in result.history
            if r.added_edges
        ]
        assert result.rounds == golden["rounds"]
        assert replayed == golden["added_by_round"]
