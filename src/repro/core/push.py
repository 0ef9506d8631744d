"""The push discovery (triangulation) process — paper §3.

In each round, each node ``u`` draws two neighbours ``v`` and ``w``
uniformly at random (independently, with replacement) from its current
neighbourhood and adds the undirected edge ``(v, w)``.  If ``v == w`` or
the edge already exists nothing changes.  Operationally ``u`` "introduces"
``v`` and ``w`` to each other by sending each the other's ID — two
``O(log n)``-bit messages per node per round.

Theorem 8: on any connected undirected graph the process reaches the
complete graph in ``O(n log² n)`` rounds w.h.p.; Theorem 9 gives the
``Ω(n log k)`` lower bound when ``k`` edges are missing.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.core.base import BatchProposals, DiscoveryProcess, UpdateSemantics
from repro.graphs.array_adjacency import ArrayGraph
from repro.graphs.sampling import uniform_indices

__all__ = ["PushDiscovery"]


class PushDiscovery(DiscoveryProcess):
    """The triangulation process on an undirected graph.

    Parameters
    ----------
    graph:
        Connected undirected starting graph (mutated in place).
    rng:
        Seed or :class:`numpy.random.Generator`.
    semantics:
        Synchronous (default, the paper's model) or sequential updates.
    without_replacement:
        Ablation flag: when True and a node has at least two neighbours,
        the two introduced neighbours are drawn *without* replacement, so a
        node never wastes a round introducing a neighbour to itself.  The
        paper's process uses with-replacement sampling (default False).
    """

    #: a push round sends each chosen neighbour the other's ID.
    MESSAGES_PER_NODE = 2

    def __init__(
        self,
        graph: ArrayGraph,
        rng: Union[np.random.Generator, int, None] = None,
        semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
        without_replacement: bool = False,
    ) -> None:
        if getattr(graph, "directed", True):
            raise TypeError("PushDiscovery requires an undirected graph (DynamicGraph or ArrayGraph)")
        super().__init__(graph, rng, semantics)
        self.without_replacement = without_replacement

    def propose(self, node: int) -> Optional[Tuple[int, int]]:
        """Sample the pair of neighbours that ``node`` introduces this round."""
        nbrs = self.graph.neighbors(node)
        k = len(nbrs)
        if k == 0:
            return None
        if self.without_replacement and k >= 2:
            i = int(self.rng.integers(k))
            j = int(self.rng.integers(k - 1))
            if j >= i:
                j += 1
            return nbrs[i], nbrs[j]
        v, w = self.graph.random_neighbor_pair(node, self.rng)
        if v == w:
            # Introducing a neighbour to itself adds nothing; still counts
            # as the node's action (and its messages) for this round.
            return None
        return v, w

    def propose_batch(self, nodes: np.ndarray) -> BatchProposals:
        """Vectorized push round: all nodes' neighbour pairs in two bulk draws."""
        if not self._propose_is(PushDiscovery):
            return super().propose_batch(nodes)
        return self._propose_batch_kernel(nodes)

    def _propose_batch_kernel(self, nodes: np.ndarray) -> BatchProposals:
        """The raw kernel, draw-stream-identical on every graph substrate.

        With replacement (the paper's process): one ``rng.random(m)`` per
        introduced endpoint, mapped to indices by the shared sampling rule.
        Without replacement: two bulk draws over ``k`` and ``k - 1`` slots
        with the collision-shift, so no draw is wasted on ``v == w``.
        """
        graph = self.graph
        if self.without_replacement:
            u = self.rng.random((2, nodes.shape[0]))
            deg = graph.degrees()[nodes]
            i = uniform_indices(u[0], deg)
            j = uniform_indices(u[1], deg - 1)
            j = np.where(j >= i, j + 1, j)
            vs = graph.neighbors_at(nodes, i)
            ws = graph.neighbors_at(nodes, np.where(deg >= 2, j, -1))
            valid = deg >= 2
        else:
            vs = graph.random_neighbors(nodes, self.rng)
            ws = graph.random_neighbors(nodes, self.rng)
            valid = (vs >= 0) & (vs != ws)
        pos = np.flatnonzero(valid)
        return BatchProposals(nodes.shape[0], vs[pos], ws[pos], pos)

    def is_converged(self) -> bool:
        """The absorbing state of the undirected processes is the complete graph."""
        return self.graph.is_complete()
