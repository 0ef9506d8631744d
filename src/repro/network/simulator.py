"""The synchronous message-passing simulator.

Owns the node agents, the RNG, the failure model and all accounting.  A
round consists of asking the protocol to :meth:`run_round`; the protocol
sends messages through :meth:`NetworkSimulator.send`, which enforces the
paper's locality model (a node may only address IDs it knows or was just
handed — :class:`~repro.network.message.LocalityError` otherwise), applies
the failure model, and counts messages/bits both globally and per
``(node, round)``.  The simulator additionally maintains the *global* view
of who knows whom (as a :class:`DynamicGraph`) purely for measurement —
the nodes never see it.

The asynchronous counterpart (:mod:`repro.network.async_simulator`) drives
the very same protocol state transitions from timestamped delivery events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

import numpy as np

from repro.baselines._packed import require_undirected
from repro.graphs.adjacency import DynamicGraph
from repro.network.failures import FailureModel, NoFailures
from repro.network.message import LocalityError, Message, id_bits_for
from repro.network.node import NetworkNode
from repro.network.protocols import GossipProtocol, resolve_protocol

__all__ = ["NetworkSimulator", "SimulationStats"]


@dataclass
class SimulationStats:
    """Cumulative accounting for one simulation."""

    rounds: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bits_sent: int = 0
    discoveries: int = 0
    per_round_messages: List[int] = field(default_factory=list)
    per_round_bits: List[int] = field(default_factory=list)
    #: largest number of bits any single node sent in each round.
    per_round_max_node_bits: List[int] = field(default_factory=list)


class NetworkSimulator:
    """Synchronous round simulator for the message-level protocols.

    Parameters
    ----------
    graph:
        The starting topology.  Each node's initial contact list is its
        neighbour list in this graph (same insertion order, so the push
        protocol reproduces the graph-level process draw for draw).  The
        graph object itself is *not* mutated; the simulator keeps its own
        measurement copy.
    protocol:
        A protocol instance or one of the names ``"push"``, ``"pull"``,
        ``"name_dropper"``.
    rng:
        Seed or :class:`numpy.random.Generator`.
    failures:
        A :class:`FailureModel`; reliable delivery by default.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        protocol: Union[GossipProtocol, str] = "push",
        rng: Union[np.random.Generator, int, None] = None,
        failures: Optional[FailureModel] = None,
    ) -> None:
        # Capability check (not an isinstance against one graph class):
        # any undirected neighbour-protocol graph — the array substrate or
        # the list-based oracle — is a valid topology; directed graphs
        # still raise TypeError.
        require_undirected(graph, "NetworkSimulator")
        self.n = graph.n
        self.nodes: List[NetworkNode] = [
            NetworkNode(u, list(graph.neighbors(u))) for u in graph.nodes()
        ]
        self.protocol = resolve_protocol(protocol)
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.failures = failures if failures is not None else NoFailures()
        self.round_index = 0
        self.stats = SimulationStats()
        # Global measurement view of who-knows-whom (the nodes never see this).
        self.knowledge_graph = graph.copy()
        self._id_bits = id_bits_for(self.n)
        self._round_messages = 0
        self._round_bits = 0
        self._round_node_bits = np.zeros(self.n, dtype=np.int64)
        # IDs each node was handed *this round* by delivered messages
        # (sender identity + payload IDs): the "just introduced" part of
        # the locality rule.
        self._introductions: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------ #
    # services used by the protocols
    # ------------------------------------------------------------------ #
    def send(self, message: Message) -> bool:
        """Account for ``message`` and apply the failure model; True = delivered.

        Raises :class:`LocalityError` when the sender addresses an ID it
        neither knows as a contact nor was handed this round (by a
        delivered message's sender identity or payload).
        """
        sender = self.nodes[message.sender]
        if not (
            sender.knows(message.receiver)
            or message.receiver in self._introductions.get(message.sender, ())
        ):
            raise LocalityError(
                f"node {message.sender} cannot address node {message.receiver}: "
                f"not a contact and never introduced ({message.kind.value} message)"
            )
        self.stats.messages_sent += 1
        bits = message.bits(self.n)
        self.stats.bits_sent += bits
        self._round_messages += 1
        self._round_bits += bits
        self._round_node_bits[message.sender] += bits
        if self.failures.delivered(message, self.rng):
            self.stats.messages_delivered += 1
            handed = self._introductions.setdefault(message.receiver, set())
            handed.add(message.sender)
            handed.update(message.payload)
            return True
        self.stats.messages_dropped += 1
        return False

    def record_discovery(self, node: int, contact: int) -> None:
        """Register that ``node`` learned about ``contact`` (measurement only)."""
        self.stats.discoveries += 1
        self.knowledge_graph.add_edge(node, contact)

    # ------------------------------------------------------------------ #
    # round loop
    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """Execute one protocol round."""
        self._round_messages = 0
        self._round_bits = 0
        self._round_node_bits[:] = 0
        self._introductions = {}
        self.protocol.run_round(self)
        self.round_index += 1
        self.stats.rounds += 1
        self.stats.per_round_messages.append(self._round_messages)
        self.stats.per_round_bits.append(self._round_bits)
        self.stats.per_round_max_node_bits.append(int(self._round_node_bits.max()))

    def is_converged(self) -> bool:
        """True when every node knows every other node."""
        return all(node.degree() == self.n - 1 for node in self.nodes)

    def run_to_convergence(self, max_rounds: int) -> SimulationStats:
        """Run until full discovery or ``max_rounds`` *additional* rounds.

        The budget is per-call: a second call runs up to ``max_rounds``
        further rounds (it used to be compared against the cumulative
        round count, which silently shrank — or zeroed — later budgets).
        """
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        rounds_run = 0
        while not self.is_converged() and rounds_run < max_rounds:
            self.step()
            rounds_run += 1
        return self.stats

    # ------------------------------------------------------------------ #
    # measurement helpers
    # ------------------------------------------------------------------ #
    def contact_graph(self) -> DynamicGraph:
        """The current who-knows-whom graph reconstructed from node state."""
        g = DynamicGraph(self.n)
        for node in self.nodes:
            for c in node.contacts:
                g.add_edge(node.node_id, c)
        return g

    def max_bits_per_node_round(self) -> int:
        """Largest bits any *single* node sent in any single round.

        This is the quantity the paper's per-node bandwidth claims are
        about: for the push protocol it stays ``O(log n)`` (two IDs per
        round); for Name Dropper it grows to ``Θ(n log n)``.  For pull it
        can exceed the requester-side budget because one node may answer
        every request that lands on it in a round.  (An earlier version
        returned the per-node *average* under this name; that average is
        still available as :meth:`max_round_mean_bits_per_node`.)
        """
        if not self.stats.per_round_max_node_bits:
            return 0
        return max(self.stats.per_round_max_node_bits)

    def max_round_mean_bits_per_node(self) -> int:
        """Largest per-round *average* bits per node (total bits / n).

        A smoother load measure than :meth:`max_bits_per_node_round`: it
        bounds the mean per-node traffic of the busiest round, not the
        busiest node's.
        """
        if not self.stats.per_round_bits:
            return 0
        return int(np.ceil(max(self.stats.per_round_bits) / max(self.n, 1)))

    def __repr__(self) -> str:
        return (
            f"NetworkSimulator(protocol={self.protocol.name!r}, n={self.n}, "
            f"round={self.round_index})"
        )
