"""The NumPy-array graph substrate every process runs on.

:class:`ArrayGraph` and :class:`ArrayDiGraph` store neighbour lists in one
preallocated 2-D ``int64`` array (one row per node, amortized column
doubling) plus a word-packed membership matrix, so per-round work is
whole-array operations:

* ``random_neighbors(nodes, rng)`` — one ``rng.random(m)`` draw and one
  fancy-indexed gather for a whole batch of nodes;
* ``add_edges_batch(edges)`` — vectorized duplicate/self-loop rejection
  with first-occurrence order preserved, then O(1) slot writes for the
  (few) genuinely new edges.

Edges are only ever added, the paper's append-only contract.

Packed memory model
-------------------
Membership lives in ``uint64`` bitset rows (:mod:`repro.graphs.bitset`):
bit ``v`` of row ``u`` is the edge ``(u, v)``, so the matrix costs
``n² / 8`` bytes and batch membership tests, completeness predicates and
the closure/reachability kernels all run word-parallel (64 pairs per
machine-word operation).  ``adjacency_bits()`` exposes the packed rows
directly (read-only) so :mod:`repro.graphs.closure` and
:mod:`repro.graphs.properties` can run their kernels with zero conversion
cost.  An allocation that could never fit — the membership matrix of a
huge ``n``, or a neighbour block grown past physical memory — raises
:class:`GraphMemoryError` up front instead of thrashing into an OOM kill.

The reference oracle
--------------------
:class:`~repro.graphs.adjacency.DynamicGraph` keeps per-node Python lists
and samples through the same :mod:`repro.graphs.sampling` rules, so a
process run on an ``ArrayGraph`` reproduces the exact seeded trace of the
same run on the ``DynamicGraph`` with identical neighbour rows
(:meth:`ArrayGraph.to_dynamic`).  ``tests/test_backend_equivalence.py``
pins this contract draw for draw.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs import bitset
from repro.graphs.adjacency import DynamicDiGraph, DynamicGraph
from repro.graphs.sampling import masked_counts, uniform_indices

__all__ = ["ArrayGraph", "ArrayDiGraph", "GraphMemoryError"]

_MIN_CAPACITY = 4


def _round_up_pow2(value: int) -> int:
    """Smallest power of two >= max(value, _MIN_CAPACITY)."""
    cap = _MIN_CAPACITY
    while cap < value:
        cap *= 2
    return cap


class GraphMemoryError(MemoryError):
    """A graph allocation would exceed the host's physical memory."""


def _physical_memory() -> Optional[int]:
    """Physical RAM in bytes, or ``None`` where ``sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _check_allocation(n: int, nbytes: int, what: str) -> None:
    """Raise :class:`GraphMemoryError` when ``nbytes`` exceeds physical RAM."""
    ram = _physical_memory()
    if ram is not None and nbytes > ram:
        raise GraphMemoryError(
            f"{what} for n={n} needs {nbytes} bytes ({nbytes / 2**30:.1f} GiB), "
            f"more than the {ram} bytes ({ram / 2**30:.1f} GiB) of physical RAM"
        )


def _initial_bytes(n: int, vectors: int) -> int:
    """Bytes of a fresh graph: neighbour block, ``vectors`` degree vectors, bitset rows."""
    return 8 * n * (_MIN_CAPACITY + vectors + bitset.words_for(n))


def _grown_block(n: int, block: np.ndarray, cap: int, needed: int) -> np.ndarray:
    """``block`` (``n × cap``) copied into a ``-1``-padded power-of-two-wide one.

    The old and the new block are alive together during the copy, so both
    count against the memory check.
    """
    new_cap = _round_up_pow2(needed)
    _check_allocation(n, 8 * n * (cap + new_cap), f"growing neighbour rows to width {new_cap}")
    grown = np.full((n, new_cap), -1, dtype=np.int64)
    grown[:, :cap] = block
    return grown


class ArrayGraph:
    """Undirected simple graph with preallocated NumPy neighbour storage.

    Parameters
    ----------
    n:
        Number of nodes (``0 .. n-1``).
    edges:
        Optional initial edges; duplicates and self loops are ignored.

    Notes
    -----
    API-compatible with :class:`~repro.graphs.adjacency.DynamicGraph` for
    everything the processes, metrics and tests touch.  Neighbour rows
    keep insertion order; :meth:`neighbors` returns a live array slice
    that callers must not mutate.
    """

    __slots__ = ("_n", "_nbr", "_deg", "_bits", "_num_edges", "_cap")

    #: dispatch flag: undirected graphs expose degree()/neighbors().
    directed = False

    def __init__(self, n: int, edges: Optional[Iterable[Tuple[int, int]]] = None) -> None:
        if n < 0:
            raise ValueError(f"number of nodes must be non-negative, got {n}")
        self._n = int(n)
        _check_allocation(self._n, _initial_bytes(self._n, 1), "an ArrayGraph")
        self._cap = _MIN_CAPACITY
        self._nbr = np.full((self._n, self._cap), -1, dtype=np.int64)
        self._deg = np.zeros(self._n, dtype=np.int64)
        self._bits = bitset.zeros(self._n, self._n)
        self._num_edges = 0
        if edges is not None:
            self.add_edges_batch(list(edges))

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def capacity(self) -> int:
        """Current neighbour-row capacity (grows by doubling)."""
        return self._cap

    def number_of_nodes(self) -> int:
        """Number of nodes (alias of :attr:`n`)."""
        return self._n

    def number_of_edges(self) -> int:
        """Number of distinct undirected edges currently present."""
        return self._num_edges

    def nodes(self) -> range:
        """Iterate over node identifiers ``0 .. n-1``."""
        return range(self._n)

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        self._check_node(u)
        return int(self._deg[u])

    def degrees(self) -> np.ndarray:
        """Return a copy of the degree vector as an ``int64`` numpy array."""
        return self._deg.copy()

    def min_degree(self) -> int:
        """Minimum degree over all nodes (0 for an empty graph with nodes)."""
        if self._n == 0:
            return 0
        return int(self._deg.min())

    def max_degree(self) -> int:
        """Maximum degree over all nodes (0 for an empty graph with nodes)."""
        if self._n == 0:
            return 0
        return int(self._deg.max())

    def neighbors(self, u: int) -> np.ndarray:
        """Neighbour row of ``u`` in insertion order (live view; do not mutate)."""
        self._check_node(u)
        return self._nbr[u, : self._deg[u]]

    def neighbor_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """The padded neighbour-row block and the degree vector (live views).

        Row ``u`` holds ``neighbors(u)`` in insertion order in its first
        ``deg[u]`` slots (``-1`` padding beyond).  This is the whole-graph
        input of the baselines' vectorized payload expansion; callers must
        not mutate either array.
        """
        return self._nbr, self._deg

    def has_edge(self, u: int, v: int) -> bool:
        """Return True if the undirected edge ``(u, v)`` is present."""
        if u == v:
            return False
        return bitset.get_bit(self._bits, u, v)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over the edges as canonical ``(min, max)`` pairs."""
        us, vs = np.nonzero(np.triu(bitset.unpack_bool_matrix(self._bits, self._n)))
        return iter(zip(us.tolist(), vs.tolist()))

    def edge_list(self) -> List[Tuple[int, int]]:
        """Return a sorted list of canonical edges (useful for tests)."""
        return list(self.edges())

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, u: int, v: int) -> bool:
        """Add the undirected edge ``(u, v)``; True when genuinely new."""
        self._check_node(u)
        self._check_node(v)
        if u == v or bitset.get_bit(self._bits, u, v):
            return False
        self._ensure_capacity(int(max(self._deg[u], self._deg[v])) + 1)
        self._append(u, v)
        bitset.set_bit(self._bits, u, v)
        bitset.set_bit(self._bits, v, u)
        self._num_edges += 1
        return True

    def add_edges_from(self, edges: Iterable[Tuple[int, int]]) -> int:
        """Add many edges; return how many were actually new."""
        return len(self.add_edges_batch(list(edges)))

    def add_edges_batch(self, edges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Vectorized batch insert; returns the new edges in first-occurrence order.

        Matches :meth:`DynamicGraph.add_edges_batch` exactly: self loops and
        duplicates (within the batch or against the graph) are rejected, the
        first occurrence of each new edge wins, and the returned tuples keep
        the proposal's original orientation.
        """
        if len(edges) == 0:
            return []
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= self._n):
            raise IndexError(f"edge endpoint out of range [0, {self._n})")
        return self.add_edges_batch_arrays(arr[:, 0], arr[:, 1])

    def add_edges_batch_arrays(self, us: np.ndarray, vs: np.ndarray) -> List[Tuple[int, int]]:
        """Array-argument core of :meth:`add_edges_batch` (same contract).

        The hot path of the vectorized round engine: endpoints arrive as the
        arrays a propose kernel produced, so no tuple round-trip happens.
        Already-present edges are filtered *before* the within-batch dedupe
        (the two commute), so late rounds — where almost every proposal
        already exists — skip the sort entirely.
        """
        if us.shape[0] == 0:
            return []
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        cand = np.flatnonzero((lo != hi) & ~bitset.get_bits(self._bits, lo, hi))
        if cand.size == 0:
            return []
        if cand.size > 1:
            keys = lo[cand] * np.int64(self._n) + hi[cand]
            _, first = np.unique(keys, return_index=True)
            if first.size != cand.size:
                first.sort()
                cand = cand[first]
        add_u, add_v = us[cand], vs[cand]
        self._write_new_edges(add_u, add_v)
        bitset.set_bits(self._bits, add_u, add_v)
        bitset.set_bits(self._bits, add_v, add_u)
        self._num_edges += add_u.shape[0]
        return list(zip(add_u.tolist(), add_v.tolist()))

    def _write_new_edges(self, add_u: np.ndarray, add_v: np.ndarray) -> None:
        """Scatter the mutual neighbour entries for verified-new edges.

        Grouped slot assignment: interleaving the endpoints (u-entry before
        v-entry, batch order preserved by the stable sort) reproduces the
        exact append order of sequential :meth:`add_edge` calls, which keeps
        neighbour rows identical to the reference oracle's.
        """
        k = add_u.shape[0]
        ends = np.empty(2 * k, dtype=np.int64)
        vals = np.empty(2 * k, dtype=np.int64)
        ends[0::2] = add_u
        ends[1::2] = add_v
        vals[0::2] = add_v
        vals[1::2] = add_u
        grow = np.bincount(ends, minlength=self._n)
        self._ensure_capacity(int((self._deg + grow).max()))
        order = np.argsort(ends, kind="stable")
        se = ends[order]
        run_start = np.flatnonzero(np.concatenate(([True], se[1:] != se[:-1])))
        run_length = np.diff(np.concatenate((run_start, [se.size])))
        offsets = np.arange(se.size) - np.repeat(run_start, run_length)
        self._nbr[se, self._deg[se] + offsets] = vals[order]
        self._deg += grow

    def _append(self, u: int, v: int) -> None:
        """Write the mutual neighbour entries for a new edge (capacity ensured)."""
        deg = self._deg
        self._nbr[u, deg[u]] = v
        self._nbr[v, deg[v]] = u
        deg[u] += 1
        deg[v] += 1

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._cap:
            return
        self._nbr = _grown_block(self._n, self._nbr, self._cap, needed)
        self._cap = self._nbr.shape[1]

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def random_neighbors(self, nodes: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """Vectorized uniform neighbour sample for a whole batch of nodes.

        Same draw-stream contract as :meth:`DynamicGraph.random_neighbors`:
        exactly ``rng.random(len(nodes))`` is consumed and indices come from
        :func:`repro.graphs.sampling.uniform_indices`, so both substrates map
        the same seed to the same choices.  ``-1`` marks invalid entries.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        u = rng.random(nodes.shape[0])
        safe, counts = masked_counts(nodes, self._deg)
        idx = uniform_indices(u, counts)
        # Inlined gather (same result as neighbors_at, fewer passes).
        gathered = self._nbr[safe, np.maximum(idx, 0)]
        return np.where(idx >= 0, gathered, -1)

    def neighbors_at(self, nodes: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Gather ``neighbors(nodes[i])[idx[i]]`` per element (``-1`` passthrough)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        idx = np.asarray(idx, dtype=np.int64)
        valid = idx >= 0
        gathered = self._nbr[np.where(valid, nodes, 0), np.where(valid, idx, 0)]
        return np.where(valid, gathered, -1)

    def random_neighbor(self, u: int, rng: np.random.Generator) -> int:
        """Sample a uniformly random neighbour of ``u`` (scalar API parity)."""
        k = int(self._deg[u])
        if k == 0:
            raise ValueError(f"node {u} has no neighbors to sample from")
        return int(self._nbr[u, int(rng.integers(k))])

    def random_neighbor_pair(self, u: int, rng: np.random.Generator) -> Tuple[int, int]:
        """Sample two independent uniform neighbours of ``u`` (with replacement)."""
        k = int(self._deg[u])
        if k == 0:
            raise ValueError(f"node {u} has no neighbors to sample from")
        i = int(rng.integers(k))
        j = int(rng.integers(k))
        return int(self._nbr[u, i]), int(self._nbr[u, j])

    # ------------------------------------------------------------------ #
    # derived quantities / conversions
    # ------------------------------------------------------------------ #
    def is_complete(self) -> bool:
        """True when every pair of distinct nodes is connected."""
        return self._num_edges == self._n * (self._n - 1) // 2

    def missing_edges(self) -> int:
        """Number of node pairs not yet connected by an edge."""
        return self._n * (self._n - 1) // 2 - self._num_edges

    def adjacency_matrix(self) -> np.ndarray:
        """Return the dense boolean adjacency matrix (symmetric, zero diagonal)."""
        return bitset.unpack_bool_matrix(self._bits, self._n)

    def adjacency_bits(self) -> np.ndarray:
        """The packed membership rows (``uint64``, n²/8 bits; live view, do not mutate).

        Row ``u``, bit ``v`` is the edge ``(u, v)``; symmetric with a zero
        diagonal.  This is the zero-copy input format of the closure and
        reachability kernels in :mod:`repro.graphs.bitset`.
        """
        return self._bits

    def membership_nbytes(self) -> int:
        """Bytes spent on the packed membership matrix (≈ n²/8)."""
        return int(self._bits.nbytes)

    def copy(self) -> "ArrayGraph":
        """Return an independent deep copy of the graph."""
        g = ArrayGraph(self._n)
        g._cap = self._cap
        g._nbr = self._nbr.copy()
        g._deg = self._deg.copy()
        g._bits = self._bits.copy()
        g._num_edges = self._num_edges
        return g

    @classmethod
    def from_graph(cls, graph: DynamicGraph) -> "ArrayGraph":
        """Build an :class:`ArrayGraph` preserving per-node neighbour order.

        Preserving insertion order (not just the edge set) is what makes a
        seeded run trace-identical to the same run on ``graph``.
        """
        g = cls(graph.n)
        if graph.n == 0:
            return g
        g._ensure_capacity(graph.max_degree())
        for u in graph.nodes():
            row = graph.neighbors(u)
            g._nbr[u, : len(row)] = row
        g._deg = graph.degrees()
        edge_arr = np.asarray(graph.edge_list(), dtype=np.int64).reshape(-1, 2)
        if edge_arr.size:
            bitset.set_bits(g._bits, edge_arr[:, 0], edge_arr[:, 1])
            bitset.set_bits(g._bits, edge_arr[:, 1], edge_arr[:, 0])
        g._num_edges = graph.number_of_edges()
        return g

    def to_dynamic(self) -> DynamicGraph:
        """The reference-oracle twin: a :class:`DynamicGraph` with identical rows.

        Every neighbour row keeps its insertion order, so a process seeded
        alike runs draw for draw the same on both graphs.
        """
        g = DynamicGraph(self._n)
        g._neighbors = [self._nbr[u, :d].tolist() for u, d in enumerate(self._deg.tolist())]
        g._edge_set = set(self.edges())
        g._degrees = self._deg.copy()
        g._num_edges = self._num_edges
        return g

    def subgraph(self, nodes: Sequence[int]) -> Tuple["ArrayGraph", Dict[int, int]]:
        """The induced subgraph on ``nodes`` plus the relabelling map.

        Same contract as :meth:`DynamicGraph.subgraph`: nodes are relabelled
        ``0 .. k-1`` in the order given, and the edges are inserted in sorted
        host-label order, so the subgraph's neighbour rows (and any seeded
        run on it) do not depend on how the host was built.
        """
        mapping = {orig: new for new, orig in enumerate(nodes)}
        if len(mapping) != len(nodes):
            raise ValueError("duplicate nodes in subgraph selection")
        labels = np.asarray(nodes, dtype=np.int64).reshape(-1)
        if labels.size and (labels.min() < 0 or labels.max() >= self._n):
            raise IndexError(f"subgraph node out of range [0, {self._n})")
        induced = bitset.unpack_bool_matrix(self._bits[labels], self._n)[:, labels]
        i, j = np.nonzero(induced & (labels[:, None] < labels[None, :]))
        order = np.lexsort((labels[j], labels[i]))
        sub = ArrayGraph(labels.size)
        sub.add_edges_batch_arrays(i[order], j[order])
        return sub, mapping

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ArrayGraph, DynamicGraph)):
            return self._n == other.n and self.edge_list() == other.edge_list()
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("ArrayGraph is mutable and unhashable")

    def __repr__(self) -> str:
        return f"ArrayGraph(n={self._n}, m={self._num_edges}, cap={self._cap})"

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise IndexError(f"node {u} out of range [0, {self._n})")


class ArrayDiGraph:
    """Directed simple graph with preallocated NumPy out-neighbour storage.

    Mirrors :class:`~repro.graphs.adjacency.DynamicDiGraph` the way
    :class:`ArrayGraph` mirrors :class:`DynamicGraph`: out-neighbour rows in
    a 2-D array with amortized doubling, membership in word-packed
    ``uint64`` bitset rows (n²/8 bytes), in-degrees as counters for metrics.
    """

    __slots__ = ("_n", "_out", "_out_deg", "_in_deg", "_bits", "_num_edges", "_cap")

    #: dispatch flag: directed graphs expose out_degree()/out_neighbors().
    directed = True

    def __init__(self, n: int, edges: Optional[Iterable[Tuple[int, int]]] = None) -> None:
        if n < 0:
            raise ValueError(f"number of nodes must be non-negative, got {n}")
        self._n = int(n)
        _check_allocation(self._n, _initial_bytes(self._n, 2), "an ArrayDiGraph")
        self._cap = _MIN_CAPACITY
        self._out = np.full((self._n, self._cap), -1, dtype=np.int64)
        self._out_deg = np.zeros(self._n, dtype=np.int64)
        self._in_deg = np.zeros(self._n, dtype=np.int64)
        self._bits = bitset.zeros(self._n, self._n)
        self._num_edges = 0
        if edges is not None:
            self.add_edges_batch(list(edges))

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def capacity(self) -> int:
        """Current out-neighbour-row capacity (grows by doubling)."""
        return self._cap

    def number_of_nodes(self) -> int:
        """Number of nodes (alias of :attr:`n`)."""
        return self._n

    def number_of_edges(self) -> int:
        """Number of distinct directed edges currently present."""
        return self._num_edges

    def nodes(self) -> range:
        """Iterate over node identifiers ``0 .. n-1``."""
        return range(self._n)

    def out_degree(self, u: int) -> int:
        """Out-degree of node ``u``."""
        self._check_node(u)
        return int(self._out_deg[u])

    def in_degree(self, u: int) -> int:
        """In-degree of node ``u``."""
        self._check_node(u)
        return int(self._in_deg[u])

    def out_degrees(self) -> np.ndarray:
        """Return a copy of the out-degree vector."""
        return self._out_deg.copy()

    def in_degrees(self) -> np.ndarray:
        """Return a copy of the in-degree vector."""
        return self._in_deg.copy()

    def out_neighbors(self, u: int) -> np.ndarray:
        """Out-neighbour row of ``u`` in insertion order (live view; do not mutate)."""
        self._check_node(u)
        return self._out[u, : self._out_deg[u]]

    def out_neighbor_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """The padded out-neighbour-row block and out-degree vector (live views).

        Directed counterpart of :meth:`ArrayGraph.neighbor_rows`; callers
        must not mutate either array.
        """
        return self._out, self._out_deg

    def has_edge(self, u: int, v: int) -> bool:
        """Return True if the directed edge ``u -> v`` is present."""
        return bitset.get_bit(self._bits, u, v)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over directed edges ``(u, v)`` in canonical order."""
        us, vs = np.nonzero(bitset.unpack_bool_matrix(self._bits, self._n))
        return iter(zip(us.tolist(), vs.tolist()))

    def edge_list(self) -> List[Tuple[int, int]]:
        """Return a sorted list of directed edges."""
        return list(self.edges())

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, u: int, v: int) -> bool:
        """Add the directed edge ``u -> v``; True when genuinely new."""
        self._check_node(u)
        self._check_node(v)
        if u == v or bitset.get_bit(self._bits, u, v):
            return False
        self._ensure_capacity(int(self._out_deg[u]) + 1)
        self._out[u, self._out_deg[u]] = v
        self._out_deg[u] += 1
        self._in_deg[v] += 1
        bitset.set_bit(self._bits, u, v)
        self._num_edges += 1
        return True

    def add_edges_from(self, edges: Iterable[Tuple[int, int]]) -> int:
        """Add many directed edges; return how many were actually new."""
        return len(self.add_edges_batch(list(edges)))

    def add_edges_batch(self, edges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Vectorized batch insert; returns the new edges in first-occurrence order."""
        if len(edges) == 0:
            return []
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= self._n):
            raise IndexError(f"edge endpoint out of range [0, {self._n})")
        return self.add_edges_batch_arrays(arr[:, 0], arr[:, 1])

    def add_edges_batch_arrays(self, us: np.ndarray, vs: np.ndarray) -> List[Tuple[int, int]]:
        """Array-argument core of :meth:`add_edges_batch` (same contract).

        Same structure as the undirected version: filter present edges
        first, dedupe the (usually few) remaining candidates, then scatter
        the new out-entries with grouped slot assignment.
        """
        if us.shape[0] == 0:
            return []
        cand = np.flatnonzero((us != vs) & ~bitset.get_bits(self._bits, us, vs))
        if cand.size == 0:
            return []
        if cand.size > 1:
            keys = us[cand] * np.int64(self._n) + vs[cand]
            _, first = np.unique(keys, return_index=True)
            if first.size != cand.size:
                first.sort()
                cand = cand[first]
        add_u, add_v = us[cand], vs[cand]
        grow = np.bincount(add_u, minlength=self._n)
        self._ensure_capacity(int((self._out_deg + grow).max()))
        order = np.argsort(add_u, kind="stable")
        su = add_u[order]
        run_start = np.flatnonzero(np.concatenate(([True], su[1:] != su[:-1])))
        run_length = np.diff(np.concatenate((run_start, [su.size])))
        offsets = np.arange(su.size) - np.repeat(run_start, run_length)
        self._out[su, self._out_deg[su] + offsets] = add_v[order]
        self._out_deg += grow
        self._in_deg += np.bincount(add_v, minlength=self._n)
        bitset.set_bits(self._bits, add_u, add_v)
        self._num_edges += add_u.shape[0]
        return list(zip(add_u.tolist(), add_v.tolist()))

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._cap:
            return
        self._out = _grown_block(self._n, self._out, self._cap, needed)
        self._cap = self._out.shape[1]

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def random_out_neighbors(self, nodes: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """Vectorized uniform out-neighbour sample (``-1`` sentinel, bulk draws).

        Draw-stream identical to :meth:`DynamicDiGraph.random_out_neighbors`.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        u = rng.random(nodes.shape[0])
        safe, counts = masked_counts(nodes, self._out_deg)
        idx = uniform_indices(u, counts)
        # Inlined gather (same result as out_neighbors_at, fewer passes).
        gathered = self._out[safe, np.maximum(idx, 0)]
        return np.where(idx >= 0, gathered, -1)

    def out_neighbors_at(self, nodes: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Gather ``out_neighbors(nodes[i])[idx[i]]`` per element (``-1`` passthrough)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        idx = np.asarray(idx, dtype=np.int64)
        valid = idx >= 0
        gathered = self._out[np.where(valid, nodes, 0), np.where(valid, idx, 0)]
        return np.where(valid, gathered, -1)

    def random_out_neighbor(self, u: int, rng: np.random.Generator) -> int:
        """Sample a uniformly random out-neighbour of ``u`` (scalar API parity)."""
        k = int(self._out_deg[u])
        if k == 0:
            raise ValueError(f"node {u} has no out-neighbors to sample from")
        return int(self._out[u, int(rng.integers(k))])

    # ------------------------------------------------------------------ #
    # derived quantities / conversions
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self) -> np.ndarray:
        """Return the dense boolean adjacency matrix (``mat[u, v]`` iff ``u -> v``)."""
        return bitset.unpack_bool_matrix(self._bits, self._n)

    def adjacency_bits(self) -> np.ndarray:
        """The packed out-edge membership rows (live view, do not mutate).

        Row ``u``, bit ``v`` is the directed edge ``u -> v`` — the zero-copy
        input of the bitset closure/reachability kernels.
        """
        return self._bits

    def membership_nbytes(self) -> int:
        """Bytes spent on the packed membership matrix (≈ n²/8)."""
        return int(self._bits.nbytes)

    def copy(self) -> "ArrayDiGraph":
        """Return an independent deep copy of the digraph."""
        g = ArrayDiGraph(self._n)
        g._cap = self._cap
        g._out = self._out.copy()
        g._out_deg = self._out_deg.copy()
        g._in_deg = self._in_deg.copy()
        g._bits = self._bits.copy()
        g._num_edges = self._num_edges
        return g

    @classmethod
    def from_graph(cls, graph: DynamicDiGraph) -> "ArrayDiGraph":
        """Build an :class:`ArrayDiGraph` preserving per-node out-neighbour order."""
        g = cls(graph.n)
        if graph.n == 0:
            return g
        out_deg = graph.out_degrees()
        g._ensure_capacity(int(out_deg.max()) if out_deg.size else 0)
        for u in graph.nodes():
            row = graph.out_neighbors(u)
            g._out[u, : len(row)] = row
        g._out_deg = out_deg
        g._in_deg = graph.in_degrees()
        edge_arr = np.asarray(graph.edge_list(), dtype=np.int64).reshape(-1, 2)
        if edge_arr.size:
            bitset.set_bits(g._bits, edge_arr[:, 0], edge_arr[:, 1])
        g._num_edges = graph.number_of_edges()
        return g

    def to_dynamic(self) -> DynamicDiGraph:
        """The reference-oracle twin: a :class:`DynamicDiGraph` with identical rows."""
        g = DynamicDiGraph(self._n)
        g._out = [self._out[u, :d].tolist() for u, d in enumerate(self._out_deg.tolist())]
        g._edge_set = set(self.edges())
        g._out_degrees = self._out_deg.copy()
        g._in_degrees = self._in_deg.copy()
        g._num_edges = self._num_edges
        return g

    def to_undirected(self) -> ArrayGraph:
        """Return the undirected graph obtained by forgetting edge direction."""
        g = ArrayGraph(self._n)
        g.add_edges_batch(self.edge_list())
        return g

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ArrayDiGraph, DynamicDiGraph)):
            return self._n == other.n and self.edge_list() == other.edge_list()
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("ArrayDiGraph is mutable and unhashable")

    def __repr__(self) -> str:
        return f"ArrayDiGraph(n={self._n}, m={self._num_edges}, cap={self._cap})"

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise IndexError(f"node {u} out of range [0, {self._n})")
