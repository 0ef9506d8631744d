"""The Name Dropper algorithm of Harchol-Balter, Leighton and Lewin (PODC 1999).

As described in the paper's introduction: "in each round, each node chooses
a random neighbor and sends all the IP addresses it knows".  The receiver
merges the sender's whole neighbour set into its own.  Name Dropper
converges in O(log² n) rounds but each message carries up to Θ(n) node IDs
— exactly the bandwidth cost the gossip processes avoid.

The implementation has the same round/metric interface as the gossip
processes, so the baselines plug into the identical experiment harness
(``make_process``/``ExperimentSpec``/CLI).  It has two round paths:

* the **packed round** (an :class:`~repro.graphs.array_adjacency.ArrayGraph`,
  synchronous): targets come from one bulk draw, all payloads are
  expanded from the padded neighbour-row block in one gather, and the
  whole round's deliveries go through the graph's batched edge insert.
  A delivery merges the sender's bitset membership row into the
  recipient's, and popcount/degree deltas feed the
  ``messages_sent``/``bits_sent`` accounting;
* the **per-node reference loop** (sequential rounds, or a
  reference-oracle :class:`~repro.graphs.adjacency.DynamicGraph`): one
  payload list per sender, one ``add_edge`` per delivered ID.

Trace contract: synchronous rounds draw one bulk ``rng.random(n)`` per
round (the shared draw convention of :mod:`repro.graphs.sampling`), and
sequential rounds draw exactly one ``rng.integers`` per active node; both
paths therefore produce identical seeded traces
(``tests/test_backend_equivalence.py``, goldens under ``tests/data/``).
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from repro.baselines._packed import packed_rows, require_undirected, rows_with_self
from repro.core.base import BatchProposals, DiscoveryProcess, RoundResult, UpdateSemantics

__all__ = ["NameDropper"]


class NameDropper(DiscoveryProcess):
    """Name Dropper: push your entire known set to one random neighbour per round.

    Knowledge is represented directly by the evolving graph: node ``u``
    "knows" exactly its current neighbours (plus itself).  When ``u``
    name-drops to ``v``, edges ``(v, w)`` are added for every ``w`` known to
    ``u`` (including ``(v, u)`` itself, which is already present).
    """

    MESSAGES_PER_NODE = 1

    def __init__(
        self,
        graph,
        rng: Union[np.random.Generator, int, None] = None,
        semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    ) -> None:
        require_undirected(graph, "NameDropper")
        super().__init__(graph, rng, semantics)

    def _synchronous_round(self, result: RoundResult, active: np.ndarray) -> None:
        """One synchronous round: the packed kernel on array graphs, else the reference loop."""
        packed = packed_rows(self.graph)
        if packed is not None:
            self._packed_round(result, active, *packed)
        else:
            self._reference_round(result, active)

    def _sequential_round(self, result: RoundResult, active: np.ndarray) -> None:
        """Sequential ablation: participating nodes act in order on the evolving graph.

        Each active node draws exactly one ``rng.integers`` for its target
        — the stream the trace contract pins.  (An earlier version
        pre-sampled a discarded synchronous pass first, consuming two draws
        per node; fixing that legitimately changed the sequential stream
        and the goldens were regenerated.)
        """
        for u in active.tolist():
            nbrs = self.graph.neighbors(u)
            if len(nbrs) == 0:
                continue
            v = self.graph.random_neighbor(u, self.rng)
            payload = list(nbrs) + [u]
            self._apply_action(u, v, payload, result)

    def _reference_round(self, result: RoundResult, active: np.ndarray) -> None:
        """Synchronous reference round: per-node payload loop, bulk target draw.

        One uniform per *participating* node — the packed round consumes the
        identical stream, so subset schedules stay trace-equivalent on both
        paths.
        """
        graph = self.graph
        targets = graph.random_neighbors(active, self.rng)
        # Snapshot every payload against the round-start graph first.
        actions: List[Tuple[int, int, List[int]]] = []
        for k, u in enumerate(active.tolist()):
            v = int(targets[k])
            if v < 0:
                continue
            actions.append((u, v, list(graph.neighbors(u)) + [u]))
        for u, v, payload in actions:
            self._apply_action(u, v, payload, result)

    def _packed_round(
        self,
        result: RoundResult,
        active: np.ndarray,
        rows: np.ndarray,
        deg: np.ndarray,
        bits: np.ndarray,
    ) -> None:
        """Synchronous packed round on the array substrate.

        Same bulk target draw as the reference round, then the whole
        round's payloads — each active sender's neighbour row plus itself —
        are expanded in one gather and delivered through the graph's batched
        row-union insert, preserving the reference path's first-occurrence
        edge order exactly (so neighbour rows, and hence future draws,
        stay aligned with the reference loop).
        """
        graph = self.graph
        targets = graph.random_neighbors(active, self.rng)
        valid = targets >= 0
        senders = active[valid]
        result.messages_sent = int(senders.size)
        counts = deg[senders]
        result.bits_sent = int((counts + 1).sum()) * self._id_bits
        if senders.size == 0:
            return
        payload = rows_with_self(rows, deg, senders)
        recipients = np.repeat(targets[valid], counts + 1)
        keep = recipients != payload
        recipients, payload = recipients[keep], payload[keep]
        result.attach_batch(
            BatchProposals(
                int(senders.size),
                recipients,
                payload,
                np.repeat(np.arange(senders.size, dtype=np.int64), counts + 1)[keep],
            )
        )
        result.added_edges = graph.add_edges_batch_arrays(recipients, payload)

    def _apply_action(self, u: int, v: int, payload: List[int], result: RoundResult) -> None:
        result.messages_sent += 1
        result.bits_sent += len(payload) * self._id_bits
        for w in payload:
            if w == v:
                continue
            result.proposed_edges.append((v, w))
            if self.graph.add_edge(v, w):
                result.added_edges.append((v, w))

    def is_converged(self) -> bool:
        """Name Dropper also converges to the complete graph."""
        return self.graph.is_complete()

    def default_round_cap(self) -> int:
        """Name Dropper needs only O(log² n) rounds; cap generously above that."""
        n = max(self.graph.n, 2)
        log_n = float(np.log2(n)) + 1.0
        return int(100 * log_n * log_n) + 50
