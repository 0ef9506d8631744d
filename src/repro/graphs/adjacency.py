"""Per-node-list graphs: the reference oracle for the array substrate.

The processes run on :mod:`repro.graphs.array_adjacency`; these classes
are the straightforward implementation they are checked against.  Handed
one of them directly, a process takes its per-node reference path, and
because both sample through :mod:`repro.graphs.sampling` the seeded trace
matches the array run's draw for draw (``tests/test_backend_equivalence.py``).

The discovery processes of the paper perform exactly two hot operations on
the evolving graph, many times per round:

* ``add_edge(u, v)`` — possibly a duplicate, in which case nothing changes;
* ``random_neighbor(u, rng)`` — sample a neighbour of ``u`` uniformly.

Both are O(1) amortised here.  Each node keeps an append-only neighbour
list (a Python ``list`` of ints — appends are amortised O(1) and uniform
sampling is a single index), and edge membership is tracked in a hash set
so duplicate additions are rejected in O(1) without scanning the list.

The classes deliberately do **not** support edge deletion: the paper's
processes only ever add edges, and the append-only restriction is what
makes the structures this simple and this fast.  (Node churn in
:mod:`repro.core.variants` is modelled by masking participation, not by
deleting edges.)

Two classes are provided:

``DynamicGraph``
    Undirected simple graph on nodes ``0 .. n-1``.

``DynamicDiGraph``
    Directed simple graph (no self loops, no parallel edges) with
    out-neighbour lists; the directed two-hop walk only ever follows and
    adds out-edges.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graphs.sampling import masked_counts, uniform_indices

__all__ = ["DynamicGraph", "DynamicDiGraph"]


def _normalize_edge(u: int, v: int) -> Tuple[int, int]:
    """Return the canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class DynamicGraph:
    """An undirected simple graph supporting O(1) edge-add and neighbour sampling.

    Parameters
    ----------
    n:
        Number of nodes.  Nodes are the integers ``0 .. n-1``.
    edges:
        Optional iterable of ``(u, v)`` pairs to add initially.  Duplicate
        pairs and self loops are ignored, mirroring the paper's processes
        (adding an existing edge is a no-op).

    Notes
    -----
    The structure is append-only — edges can be added but never removed.
    This matches the monotone evolution of the discovery processes and is
    what allows every operation here to be O(1) amortised.
    """

    __slots__ = ("_n", "_neighbors", "_edge_set", "_num_edges", "_degrees")

    #: dispatch flag: undirected graphs expose degree()/neighbors().
    directed = False

    def __init__(self, n: int, edges: Optional[Iterable[Tuple[int, int]]] = None) -> None:
        if n < 0:
            raise ValueError(f"number of nodes must be non-negative, got {n}")
        self._n = int(n)
        self._neighbors: List[List[int]] = [[] for _ in range(self._n)]
        self._edge_set: Set[Tuple[int, int]] = set()
        self._num_edges = 0
        self._degrees = np.zeros(self._n, dtype=np.int64)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

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
        return int(self._degrees[u])

    def degrees(self) -> np.ndarray:
        """Return a copy of the degree vector as an ``int64`` numpy array."""
        return self._degrees.copy()

    def min_degree(self) -> int:
        """Minimum degree over all nodes (0 for an empty graph with nodes)."""
        if self._n == 0:
            return 0
        return int(self._degrees.min())

    def max_degree(self) -> int:
        """Maximum degree over all nodes (0 for an empty graph with nodes)."""
        if self._n == 0:
            return 0
        return int(self._degrees.max())

    def neighbors(self, u: int) -> Sequence[int]:
        """Return the neighbour list of ``u``.

        The returned list is the live internal list — callers must not
        mutate it.  Order is insertion order, which is irrelevant for the
        uniform sampling performed by the processes.
        """
        self._check_node(u)
        return self._neighbors[u]

    def has_edge(self, u: int, v: int) -> bool:
        """Return True if the undirected edge ``(u, v)`` is present."""
        if u == v:
            return False
        return _normalize_edge(u, v) in self._edge_set

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over the edges as canonical ``(min, max)`` pairs."""
        return iter(self._edge_set)

    def edge_list(self) -> List[Tuple[int, int]]:
        """Return a sorted list of canonical edges (useful for tests)."""
        return sorted(self._edge_set)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, u: int, v: int) -> bool:
        """Add the undirected edge ``(u, v)``.

        Returns True if a new edge was added, False if the edge already
        existed or ``u == v`` (self loops are never added, matching the
        paper's processes where connecting a node to itself is vacuous).
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            return False
        key = _normalize_edge(u, v)
        if key in self._edge_set:
            return False
        self._edge_set.add(key)
        self._neighbors[u].append(v)
        self._neighbors[v].append(u)
        self._degrees[u] += 1
        self._degrees[v] += 1
        self._num_edges += 1
        return True

    def add_edges_from(self, edges: Iterable[Tuple[int, int]]) -> int:
        """Add many edges; return how many were actually new."""
        added = 0
        for u, v in edges:
            if self.add_edge(u, v):
                added += 1
        return added

    def add_edges_batch(self, edges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Add a batch of proposed edges; return the genuinely new ones in order.

        Sequential application: within the batch the *first* occurrence of
        each new edge wins, exactly as if :meth:`add_edge` were called in
        order.  ``ArrayGraph`` implements the same contract vectorised;
        the round engine relies on both producing identical results.
        """
        return [(u, v) for u, v in edges if self.add_edge(u, v)]

    def add_edges_batch_arrays(self, us: np.ndarray, vs: np.ndarray) -> List[Tuple[int, int]]:
        """Array-argument form of :meth:`add_edges_batch` (same contract)."""
        return [
            (u, v) for u, v in zip(us.tolist(), vs.tolist()) if self.add_edge(u, v)
        ]

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def random_neighbors(self, nodes: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """Sample one uniform neighbour for each node in ``nodes`` (bulk).

        Consumes exactly ``rng.random(len(nodes))`` and maps the uniforms to
        neighbour indices with :func:`repro.graphs.sampling.uniform_indices`,
        so the draw stream matches ``ArrayGraph``'s.  Entries that are
        ``-1`` or isolated yield ``-1`` (they still consume their uniform).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        u = rng.random(nodes.shape[0])
        safe, counts = masked_counts(nodes, self._degrees)
        idx = uniform_indices(u, counts)
        return self.neighbors_at(safe, idx)

    def neighbors_at(self, nodes: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Gather ``neighbors(nodes[i])[idx[i]]`` per element (``-1`` passthrough)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        idx = np.asarray(idx, dtype=np.int64)
        out = np.full(nodes.shape[0], -1, dtype=np.int64)
        sel = np.flatnonzero(idx >= 0)
        if sel.size:
            nbrs = self._neighbors
            out[sel] = [
                nbrs[node][i] for node, i in zip(nodes[sel].tolist(), idx[sel].tolist())
            ]
        return out

    def random_neighbor(self, u: int, rng: np.random.Generator) -> int:
        """Sample a uniformly random neighbour of ``u``.

        Raises ``ValueError`` if ``u`` is isolated — the paper assumes a
        connected starting graph so every node has at least one neighbour.
        """
        nbrs = self._neighbors[u]
        if not nbrs:
            raise ValueError(f"node {u} has no neighbors to sample from")
        return nbrs[int(rng.integers(len(nbrs)))]

    def random_neighbor_pair(self, u: int, rng: np.random.Generator) -> Tuple[int, int]:
        """Sample two independent uniformly random neighbours of ``u``.

        This is the triangulation (push) primitive: the two draws are with
        replacement, exactly as in the paper ("chooses two random
        neighbors"; if both draws coincide the added edge is a self loop
        and hence a no-op).
        """
        nbrs = self._neighbors[u]
        if not nbrs:
            raise ValueError(f"node {u} has no neighbors to sample from")
        k = len(nbrs)
        i = int(rng.integers(k))
        j = int(rng.integers(k))
        return nbrs[i], nbrs[j]

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
        mat = np.zeros((self._n, self._n), dtype=bool)
        for u, v in self._edge_set:
            mat[u, v] = True
            mat[v, u] = True
        return mat

    def copy(self) -> "DynamicGraph":
        """Return an independent deep copy of the graph."""
        g = DynamicGraph(self._n)
        g._edge_set = set(self._edge_set)
        g._neighbors = [list(nbrs) for nbrs in self._neighbors]
        g._num_edges = self._num_edges
        g._degrees = self._degrees.copy()
        return g

    def subgraph(self, nodes: Sequence[int]) -> Tuple["DynamicGraph", Dict[int, int]]:
        """Return the induced subgraph on ``nodes`` plus the relabelling map.

        The subgraph's nodes are relabelled ``0 .. k-1`` in the order given;
        the returned dict maps original labels to new labels.  Used by the
        subset/group-discovery corollary (run the process restricted to a
        connected induced subgraph).
        """
        mapping = {orig: new for new, orig in enumerate(nodes)}
        if len(mapping) != len(nodes):
            raise ValueError("duplicate nodes in subgraph selection")
        sub = DynamicGraph(len(nodes))
        node_set = set(nodes)
        # Sorted iteration keeps the subgraph's neighbour-list insertion order
        # independent of the host's edge-set hash order, so restricted runs
        # are reproducible from a seed regardless of the host graph.
        for u, v in sorted(self._edge_set):
            if u in node_set and v in node_set:
                sub.add_edge(mapping[u], mapping[v])
        return sub, mapping

    @classmethod
    def from_adjacency_matrix(cls, mat: np.ndarray) -> "DynamicGraph":
        """Build a graph from a square boolean/0-1 adjacency matrix.

        The matrix is symmetrised (an edge is added if either direction is
        set) and the diagonal is ignored.
        """
        arr = np.asarray(mat)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {arr.shape}")
        n = arr.shape[0]
        g = cls(n)
        us, vs = np.nonzero(arr)
        for u, v in zip(us.tolist(), vs.tolist()):
            if u < v:
                g.add_edge(u, v)
            elif v < u:
                g.add_edge(v, u)
        return g

    @classmethod
    def from_networkx(cls, nx_graph) -> "DynamicGraph":
        """Build a DynamicGraph from a networkx graph with integer-convertible nodes.

        Nodes are relabelled to ``0 .. n-1`` in sorted order.
        """
        nodes = sorted(nx_graph.nodes())
        mapping = {node: i for i, node in enumerate(nodes)}
        g = cls(len(nodes))
        for u, v in nx_graph.edges():
            g.add_edge(mapping[u], mapping[v])
        return g

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (requires networkx)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(self._n))
        nx_graph.add_edges_from(self._edge_set)
        return nx_graph

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicGraph):
            return NotImplemented
        return self._n == other._n and self._edge_set == other._edge_set

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable; defined for clarity
        raise TypeError("DynamicGraph is mutable and unhashable")

    def __repr__(self) -> str:
        return f"DynamicGraph(n={self._n}, m={self._num_edges})"

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise IndexError(f"node {u} out of range [0, {self._n})")


class DynamicDiGraph:
    """A directed simple graph with O(1) edge-add and out-neighbour sampling.

    The directed two-hop walk only follows out-edges and only adds
    out-edges, so only out-neighbour lists are maintained for sampling;
    in-degrees are tracked as counters for metrics.
    """

    __slots__ = ("_n", "_out", "_edge_set", "_num_edges", "_out_degrees", "_in_degrees")

    #: dispatch flag: directed graphs expose out_degree()/out_neighbors().
    directed = True

    def __init__(self, n: int, edges: Optional[Iterable[Tuple[int, int]]] = None) -> None:
        if n < 0:
            raise ValueError(f"number of nodes must be non-negative, got {n}")
        self._n = int(n)
        self._out: List[List[int]] = [[] for _ in range(self._n)]
        self._edge_set: Set[Tuple[int, int]] = set()
        self._num_edges = 0
        self._out_degrees = np.zeros(self._n, dtype=np.int64)
        self._in_degrees = np.zeros(self._n, dtype=np.int64)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

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
        return int(self._out_degrees[u])

    def in_degree(self, u: int) -> int:
        """In-degree of node ``u``."""
        self._check_node(u)
        return int(self._in_degrees[u])

    def out_degrees(self) -> np.ndarray:
        """Return a copy of the out-degree vector."""
        return self._out_degrees.copy()

    def in_degrees(self) -> np.ndarray:
        """Return a copy of the in-degree vector."""
        return self._in_degrees.copy()

    def out_neighbors(self, u: int) -> Sequence[int]:
        """Live out-neighbour list of ``u`` (do not mutate)."""
        self._check_node(u)
        return self._out[u]

    def has_edge(self, u: int, v: int) -> bool:
        """Return True if the directed edge ``u -> v`` is present."""
        return (u, v) in self._edge_set

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over directed edges ``(u, v)``."""
        return iter(self._edge_set)

    def edge_list(self) -> List[Tuple[int, int]]:
        """Return a sorted list of directed edges."""
        return sorted(self._edge_set)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, u: int, v: int) -> bool:
        """Add the directed edge ``u -> v``; returns True if it is new.

        Self loops are rejected (return False) just like duplicates.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            return False
        key = (u, v)
        if key in self._edge_set:
            return False
        self._edge_set.add(key)
        self._out[u].append(v)
        self._out_degrees[u] += 1
        self._in_degrees[v] += 1
        self._num_edges += 1
        return True

    def add_edges_from(self, edges: Iterable[Tuple[int, int]]) -> int:
        """Add many directed edges; return how many were actually new."""
        added = 0
        for u, v in edges:
            if self.add_edge(u, v):
                added += 1
        return added

    def add_edges_batch(self, edges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Add a batch of proposed directed edges; return the new ones in order."""
        return [(u, v) for u, v in edges if self.add_edge(u, v)]

    def add_edges_batch_arrays(self, us: np.ndarray, vs: np.ndarray) -> List[Tuple[int, int]]:
        """Array-argument form of :meth:`add_edges_batch` (same contract)."""
        return [
            (u, v) for u, v in zip(us.tolist(), vs.tolist()) if self.add_edge(u, v)
        ]

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def random_out_neighbors(self, nodes: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """Sample one uniform out-neighbour per node (bulk; ``-1`` sentinel).

        Same draw-stream contract as :meth:`DynamicGraph.random_neighbors`:
        exactly ``rng.random(len(nodes))`` is consumed regardless of which
        entries are valid.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        u = rng.random(nodes.shape[0])
        safe, counts = masked_counts(nodes, self._out_degrees)
        idx = uniform_indices(u, counts)
        return self.out_neighbors_at(safe, idx)

    def out_neighbors_at(self, nodes: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Gather ``out_neighbors(nodes[i])[idx[i]]`` per element (``-1`` passthrough)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        idx = np.asarray(idx, dtype=np.int64)
        out = np.full(nodes.shape[0], -1, dtype=np.int64)
        sel = np.flatnonzero(idx >= 0)
        if sel.size:
            lists = self._out
            out[sel] = [
                lists[node][i] for node, i in zip(nodes[sel].tolist(), idx[sel].tolist())
            ]
        return out

    def random_out_neighbor(self, u: int, rng: np.random.Generator) -> int:
        """Sample a uniformly random out-neighbour of ``u``.

        Raises ``ValueError`` if ``u`` has no out-edges.
        """
        nbrs = self._out[u]
        if not nbrs:
            raise ValueError(f"node {u} has no out-neighbors to sample from")
        return nbrs[int(rng.integers(len(nbrs)))]

    # ------------------------------------------------------------------ #
    # derived quantities / conversions
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self) -> np.ndarray:
        """Return the dense boolean adjacency matrix (``mat[u, v]`` iff ``u -> v``)."""
        mat = np.zeros((self._n, self._n), dtype=bool)
        for u, v in self._edge_set:
            mat[u, v] = True
        return mat

    def copy(self) -> "DynamicDiGraph":
        """Return an independent deep copy of the digraph."""
        g = DynamicDiGraph(self._n)
        g._edge_set = set(self._edge_set)
        g._out = [list(nbrs) for nbrs in self._out]
        g._num_edges = self._num_edges
        g._out_degrees = self._out_degrees.copy()
        g._in_degrees = self._in_degrees.copy()
        return g

    def to_undirected(self) -> DynamicGraph:
        """Return the undirected graph obtained by forgetting edge direction."""
        g = DynamicGraph(self._n)
        for u, v in self._edge_set:
            g.add_edge(u, v)
        return g

    @classmethod
    def from_adjacency_matrix(cls, mat: np.ndarray) -> "DynamicDiGraph":
        """Build a digraph from a square boolean/0-1 adjacency matrix."""
        arr = np.asarray(mat)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {arr.shape}")
        g = cls(arr.shape[0])
        us, vs = np.nonzero(arr)
        for u, v in zip(us.tolist(), vs.tolist()):
            if u != v:
                g.add_edge(u, v)
        return g

    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` (requires networkx)."""
        import networkx as nx

        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(range(self._n))
        nx_graph.add_edges_from(self._edge_set)
        return nx_graph

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicDiGraph):
            return NotImplemented
        return self._n == other._n and self._edge_set == other._edge_set

    def __hash__(self) -> int:  # pragma: no cover
        raise TypeError("DynamicDiGraph is mutable and unhashable")

    def __repr__(self) -> str:
        return f"DynamicDiGraph(n={self._n}, m={self._num_edges})"

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise IndexError(f"node {u} out of range [0, {self._n})")
