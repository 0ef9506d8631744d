"""The Random Pointer Jump algorithm (referenced in the paper's §5).

"Each node gets to know all the neighbors of a random neighbor in each
step": node ``u`` picks a uniformly random (out-)neighbour ``v`` and copies
``v``'s entire (out-)neighbour list into its own.  Like Name Dropper the
messages are Θ(n) IDs in the worst case, and on directed graphs the
Harchol-Balter et al. example gives it an Ω(n) round lower bound.

We provide both the directed form (the one discussed in the paper, used
as a baseline for the directed two-hop walk experiments) and an undirected
form for the undirected comparison sweep.  On the array substrate both
forms expand every pulled payload — the chosen neighbour's whole row —
from the padded (out-)neighbour block in one gather and apply the round
through the graph's batched row-union insert, with degree sums feeding
the ``messages_sent``/``bits_sent`` accounting.  Sequential rounds, and a
reference-oracle :class:`~repro.graphs.adjacency.DynamicGraph`, run the
per-node reference loop.

Trace contract: synchronous rounds draw one bulk ``rng.random(n)`` per
round (the shared draw convention), sequential rounds one
``rng.integers`` per active node; payloads are snapshotted against the
round-start graph, so both paths produce identical seeded traces.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.baselines._packed import concat_rows, packed_rows
from repro.core.base import BatchProposals, DiscoveryProcess, RoundResult, UpdateSemantics
from repro.graphs.closure import transitive_closure_edges

__all__ = ["RandomPointerJump"]


class RandomPointerJump(DiscoveryProcess):
    """Random Pointer Jump on an undirected or directed graph.

    * Undirected graph: ``u`` learns (connects to) every current neighbour
      of a random neighbour ``v``; converges to the complete graph.
    * Directed graph: ``u`` adds out-edges to all out-neighbours of a random
      out-neighbour ``v``; converges to the transitive closure of ``G_0``.
    """

    MESSAGES_PER_NODE = 1

    def __init__(
        self,
        graph,
        rng: Union[np.random.Generator, int, None] = None,
        semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    ) -> None:
        super().__init__(graph, rng, semantics)
        # Flag-based: array graphs and the reference oracle classify alike.
        self._directed = bool(getattr(graph, "directed", False))
        if self._directed:
            closure = transitive_closure_edges(graph)
            self._missing = {e for e in closure if not graph.has_edge(*e)}
        else:
            self._missing = None

    def _neighbors(self, u: int) -> List[int]:
        if self._directed:
            return list(self.graph.out_neighbors(u))
        return list(self.graph.neighbors(u))

    def _bulk_targets(self, nodes: np.ndarray) -> np.ndarray:
        """One bulk uniform (out-)neighbour draw for the whole round."""
        if self._directed:
            return self.graph.random_out_neighbors(nodes, self.rng)
        return self.graph.random_neighbors(nodes, self.rng)

    def _synchronous_round(self, result: RoundResult, active: np.ndarray) -> None:
        """One synchronous round: the packed kernel on array graphs, else the reference loop."""
        packed = packed_rows(self.graph)
        if packed is not None:
            self._packed_round(result, active, *packed)
        else:
            self._reference_round(result, active)

    def _scalar_target(self, u: int) -> Optional[int]:
        """One ``rng.integers`` draw for the sequential per-node path."""
        nbrs = self._neighbors(u)
        if not nbrs:
            return None
        return nbrs[int(self.rng.integers(len(nbrs)))]

    def _sequential_round(self, result: RoundResult, active: np.ndarray) -> None:
        """Sequential ablation: participating nodes act in order on the evolving graph."""
        for u in active.tolist():
            v = self._scalar_target(u)
            if v is None:
                continue
            self._apply_action(u, self._neighbors(v), result)

    def _reference_round(self, result: RoundResult, active: np.ndarray) -> None:
        """Synchronous reference round: snapshot payloads, then apply in node order.

        One uniform per *participating* node, matching the packed round's
        draw stream for any activation schedule.
        """
        graph = self.graph
        targets = self._bulk_targets(active)
        actions: List[Tuple[int, List[int]]] = []
        for k, u in enumerate(active.tolist()):
            v = int(targets[k])
            if v < 0:
                continue
            actions.append((u, self._neighbors(v)))
        for u, payload in actions:
            self._apply_action(u, payload, result)

    def _packed_round(
        self,
        result: RoundResult,
        active: np.ndarray,
        rows: np.ndarray,
        deg: np.ndarray,
        bits: np.ndarray,
    ) -> None:
        """Synchronous packed round: gather every pulled row in one expansion.

        The pulled payloads are the chosen neighbours' padded rows,
        flattened in participating-node order, so the batched insert
        reproduces the reference path's first-occurrence edge order exactly
        and neighbour rows stay aligned with the reference loop.
        """
        graph = self.graph
        targets = self._bulk_targets(active)
        valid = targets >= 0
        pullers = active[valid]
        result.messages_sent = 2 * int(pullers.size)  # request + bulk reply each
        chosen = targets[valid]
        counts = deg[chosen]
        result.bits_sent = int((1 + counts).sum()) * self._id_bits
        if pullers.size == 0:
            return
        payload = concat_rows(rows, deg, chosen)
        learners = np.repeat(pullers, counts)
        keep = learners != payload
        learners, payload = learners[keep], payload[keep]
        result.attach_batch(
            BatchProposals(
                int(pullers.size),
                learners,
                payload,
                np.repeat(np.arange(pullers.size, dtype=np.int64), counts)[keep],
            )
        )
        result.added_edges = graph.add_edges_batch_arrays(learners, payload)

    def _note_added_edges(self, added: List[Tuple[int, int]]) -> None:
        """Keep the directed closure-deficit set current for a batch of new edges."""
        super()._note_added_edges(added)
        if self._missing is not None and added:
            self._missing.difference_update(added)

    def _apply_action(self, u: int, payload: List[int], result: RoundResult) -> None:
        result.messages_sent += 2  # request + bulk reply
        result.bits_sent += (1 + len(payload)) * self._id_bits
        for w in payload:
            if w == u:
                continue
            result.proposed_edges.append((u, w))
            if self.graph.add_edge(u, w):
                result.added_edges.append((u, w))

    def is_converged(self) -> bool:
        """Complete graph (undirected) or transitive closure (directed)."""
        if self._directed:
            return not self._missing
        return self.graph.is_complete()

    def default_round_cap(self) -> int:
        """Pointer jump is Ω(n) on bad directed instances; cap at a large multiple of n log n."""
        n = max(self.graph.n, 2)
        log_n = float(np.log2(n)) + 1.0
        return int(40 * n * log_n) + 100
