"""The event-driven network simulator.

The engine advances a virtual clock through a deterministic event heap
(:mod:`repro.network.events`): nodes originate protocol messages at
periodic *ticks*, every message is delivered by its own timestamped event
after a latency drawn from a pluggable
:class:`~repro.network.events.LatencyModel`, and faults are first-class
events — message loss (a :class:`~repro.network.failures.FailureModel`),
node leave/join churn, and partition/heal.  Dead contacts are detected and
evicted through periodic liveness pings.

The default configuration *is* the paper's synchronous model: tick 1.0,
``FixedLatency(0.25)`` (so pull's request, reply and connect all land
inside the tick that sent them), ``NoFailures``, and no churn, partitions
or pings.  There a tick is exactly one lock-step round, and
``tests/test_network.py`` pins the round-by-round trajectories.  Every
other knob relaxes one assumption of that model.

The engine enforces the model's locality (a node can only address IDs it
holds or has heard of — :class:`~repro.network.message.LocalityError`
otherwise) and charges every protocol message's bits to its sender in the
tick window it is sent in, so the per-node bandwidth claims
(:meth:`AsyncNetworkSimulator.max_bits_per_node_round`) are measured, not
assumed.

Event ordering is deterministic per seed: the heap breaks time ties by
insertion sequence, all protocol randomness flows through one generator,
and churn/ping randomness comes from separate seeded generators so fault
machinery never perturbs protocol draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.baselines._packed import require_undirected
from repro.graphs.adjacency import DynamicGraph
from repro.network.events import (
    ChurnSchedule,
    Event,
    EventKind,
    EventQueue,
    FixedLatency,
    LatencyModel,
    PartitionSchedule,
)
from repro.network.failures import FailureModel, NoFailures
from repro.network.message import LocalityError, Message, MessageKind
from repro.network.node import NetworkNode
from repro.network.protocols import GossipProtocol, resolve_protocol

__all__ = ["AsyncNetworkSimulator", "AsyncSimulationStats"]

#: message kinds that belong to the liveness machinery, not the protocol.
_LIVENESS_KINDS = (MessageKind.PING, MessageKind.PONG)


@dataclass
class AsyncSimulationStats:
    """Cumulative accounting for one simulation."""

    time: float = 0.0
    ticks: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    #: delivered to a node that was down at delivery time.
    messages_lost_dead: int = 0
    #: cut by an active partition at delivery time.
    messages_lost_partition: int = 0
    bits_sent: int = 0
    discoveries: int = 0
    joins: int = 0
    leaves: int = 0
    pings_sent: int = 0
    pongs_received: int = 0
    evictions: int = 0
    #: protocol messages and bits sent in each tick window (liveness
    #: pings excluded); tick 0's entry exists from construction on.
    per_tick_messages: List[int] = field(default_factory=list)
    per_tick_bits: List[int] = field(default_factory=list)
    #: largest number of bits any single node sent in each tick window.
    per_tick_max_node_bits: List[int] = field(default_factory=list)


class AsyncNetworkSimulator:
    """Event-queue simulator for the message-level discovery protocols.

    Parameters
    ----------
    graph:
        Starting topology; node ``u``'s initial contact list is its
        neighbour list (insertion order preserved, so the push protocol
        reproduces the graph-level process draw for draw).  The graph
        itself is not mutated.
    protocol:
        A :class:`GossipProtocol` instance or one of ``"push"``,
        ``"pull"``, ``"name_dropper"``.
    rng:
        Seed or generator for all *protocol* randomness.
    failures:
        Per-message loss model applied at send time (default: reliable).
    latency:
        Per-message delivery delay (default ``FixedLatency(0.25)``).
    tick_interval:
        Virtual time between activations.  A tick is a synchronous round
        while all latencies stay below this (below a third of it for
        pull, whose rounds are three message hops deep).
    churn:
        Optional :class:`ChurnSchedule` of leave/join events.
    partitions:
        Optional :class:`PartitionSchedule` of partition/heal events.
    ping_interval, ping_timeout, ping_misses:
        Enable liveness probing by passing ``ping_interval``: every alive
        node pings one random contact each interval and evicts it after
        ``ping_misses`` *consecutive* probes go unanswered for
        ``ping_timeout`` each (a single miss is not proof of death when
        the failure model also drops pings).  Ping target/loss/latency
        randomness uses a generator seeded with ``liveness_seed`` so the
        protocol stream is untouched.
    record_events:
        Keep a log of processed events (``event_log``) for determinism
        tests and debugging.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        protocol: Union[GossipProtocol, str] = "push",
        rng: Union[np.random.Generator, int, None] = None,
        failures: Optional[FailureModel] = None,
        latency: Optional[LatencyModel] = None,
        tick_interval: float = 1.0,
        churn: Optional[ChurnSchedule] = None,
        partitions: Optional[PartitionSchedule] = None,
        ping_interval: Optional[float] = None,
        ping_timeout: float = 2.0,
        ping_misses: int = 3,
        liveness_seed: int = 0x5EED,
        record_events: bool = False,
    ) -> None:
        require_undirected(graph, "AsyncNetworkSimulator")
        if tick_interval <= 0.0:
            raise ValueError(f"tick_interval must be positive, got {tick_interval}")
        if ping_interval is not None and ping_interval <= 0.0:
            raise ValueError(f"ping_interval must be positive, got {ping_interval}")
        if ping_misses < 1:
            raise ValueError(f"ping_misses must be at least 1, got {ping_misses}")
        self.n = graph.n
        self.nodes: List[NetworkNode] = [
            NetworkNode(u, list(graph.neighbors(u))) for u in graph.nodes()
        ]
        self.protocol = resolve_protocol(protocol)
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.failures = failures if failures is not None else NoFailures()
        self.latency = latency if latency is not None else FixedLatency(0.25)
        self.tick_interval = float(tick_interval)
        self.ping_interval = None if ping_interval is None else float(ping_interval)
        self.ping_timeout = float(ping_timeout)
        self.ping_misses = int(ping_misses)
        self.stats = AsyncSimulationStats()
        self.knowledge_graph = graph.copy()
        self.event_log: Optional[List[Tuple[float, int, str, object]]] = (
            [] if record_events else None
        )

        self._alive = [True] * self.n
        self._clock = 0.0
        self._queue = EventQueue()
        self._heard_of: Dict[int, Set[int]] = {}
        self._group_of: Optional[Dict[int, int]] = None
        self._liveness_rng = np.random.default_rng(liveness_seed)
        self._pending_pings: Dict[int, Tuple[int, int]] = {}
        self._miss_counts: Dict[Tuple[int, int], int] = {}
        self._next_ping_id = 0
        self._node_bits: List[int] = []
        self._open_tick_window()

        # Fault schedules go on the heap first so a fault at time t takes
        # effect before the tick at t (ticks are pushed lazily, with later
        # sequence numbers).
        for entry in (churn.entries if churn is not None else ()):
            if not (0 <= entry.node < self.n):
                raise ValueError(f"churn node {entry.node} out of range for n={self.n}")
            kind = EventKind.LEAVE if entry.kind == "leave" else EventKind.JOIN
            self._queue.push(entry.time, kind, entry.node)
        for entry in (partitions.entries if partitions is not None else ()):
            if entry.groups is None:
                self._queue.push(entry.time, EventKind.HEAL)
                continue
            group_of: Dict[int, int] = {}
            for i, group in enumerate(entry.groups):
                for u in group:
                    if not (0 <= u < self.n):
                        raise ValueError(f"partition node {u} out of range for n={self.n}")
                    if group_of.setdefault(u, i) != i:
                        raise ValueError(f"partition node {u} is listed in more than one group")
            self._queue.push(entry.time, EventKind.PARTITION, entry.groups)
        if self.ping_interval is not None:
            for u in range(self.n):
                self._queue.push(self.ping_interval, EventKind.PING_TIMER, u)
        self._queue.push(0.0, EventKind.TICK)

    # ------------------------------------------------------------------ #
    # services used by the protocols
    # ------------------------------------------------------------------ #
    def send(self, message: Message) -> bool:
        """Dispatch ``message`` at the current virtual time.

        Enforces the locality model (:class:`LocalityError` when the
        sender addresses an ID it neither holds as a contact nor ever
        heard of), applies the failure model at send time, and — when the
        message survives — schedules its delivery event after a latency
        drawn from the latency model.  Returns True when delivery was
        scheduled (the message may still be lost to churn or a partition
        when it arrives).
        """
        sender = self.nodes[message.sender]
        if not (
            sender.knows(message.receiver)
            or message.receiver in self._heard_of.get(message.sender, ())
        ):
            raise LocalityError(
                f"node {message.sender} cannot address node {message.receiver}: "
                f"not a contact and never heard of ({message.kind.value} message)"
            )
        liveness = message.kind in _LIVENESS_KINDS
        rng = self._liveness_rng if liveness else self.rng
        stats = self.stats
        if liveness:
            if message.kind is MessageKind.PING:
                stats.pings_sent += 1
        else:
            bits = message.bits(self.n)
            stats.messages_sent += 1
            stats.bits_sent += bits
            stats.per_tick_messages[-1] += 1
            stats.per_tick_bits[-1] += bits
            sender_bits = self._node_bits[message.sender] + bits
            self._node_bits[message.sender] = sender_bits
            if sender_bits > stats.per_tick_max_node_bits[-1]:
                stats.per_tick_max_node_bits[-1] = sender_bits
        if not self.failures.delivered(message, rng):
            if not liveness:
                stats.messages_dropped += 1
            return False
        delay = self.latency.sample(message, rng)
        self._queue.push(self._clock + delay, EventKind.MESSAGE, message)
        return True

    def record_discovery(self, node: int, contact: int) -> None:
        """Register that ``node`` learned about ``contact`` (measurement only)."""
        self.stats.discoveries += 1
        self.knowledge_graph.add_edge(node, contact)

    # ------------------------------------------------------------------ #
    # event loop
    # ------------------------------------------------------------------ #
    def run_ticks(self, ticks: int) -> AsyncSimulationStats:
        """Advance through ``ticks`` further activations.

        Processes every event scheduled before the tick *after* the last
        requested one, so in the default configuration the post-call
        state is the synchronous model's after the same number of rounds.
        """
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        target = self.stats.ticks + ticks
        while self._queue:
            head = self._queue.peek()
            if head.kind is EventKind.TICK and self.stats.ticks >= target:
                break
            event = self._queue.pop()
            self._clock = event.time
            self.stats.time = event.time
            self._handle(event)
        return self.stats

    def run_to_convergence(self, max_ticks: int) -> AsyncSimulationStats:
        """Run until every alive node knows every other alive node.

        The ``max_ticks`` budget is per-call: a second call runs up to
        ``max_ticks`` further ticks.
        """
        if max_ticks < 0:
            raise ValueError("max_ticks must be non-negative")
        ticks_run = 0
        while not self.is_converged() and ticks_run < max_ticks:
            self.run_ticks(1)
            ticks_run += 1
        return self.stats

    def _handle(self, event: Event) -> None:
        if self.event_log is not None:
            self.event_log.append(
                (event.time, event.seq, event.kind.value, self._log_data(event))
            )
        if event.kind is EventKind.TICK:
            self._handle_tick()
        elif event.kind is EventKind.MESSAGE:
            self._handle_message(event.data)
        elif event.kind is EventKind.LEAVE:
            if self._alive[event.data]:
                self._alive[event.data] = False
                self.stats.leaves += 1
        elif event.kind is EventKind.JOIN:
            if not self._alive[event.data]:
                self._alive[event.data] = True
                self.stats.joins += 1
        elif event.kind is EventKind.PARTITION:
            self._group_of = {
                u: i for i, group in enumerate(event.data) for u in group
            }
        elif event.kind is EventKind.HEAL:
            self._group_of = None
        elif event.kind is EventKind.PING_TIMER:
            self._handle_ping_timer(event.data)
        elif event.kind is EventKind.PING_TIMEOUT:
            self._handle_ping_timeout(event.data)

    def _handle_tick(self) -> None:
        # Tick 0's window is opened at construction, so sends made before
        # the first tick are charged to it.
        if self.stats.ticks:
            self._open_tick_window()
        active = [node for node in self.nodes if self._alive[node.node_id]]
        for message in self.protocol.initiate_batch(active, self):
            self.send(message)
        self.stats.ticks += 1
        self._queue.push(self._clock + self.tick_interval, EventKind.TICK)

    def _handle_message(self, message: Message) -> None:
        liveness = message.kind in _LIVENESS_KINDS
        if not self._alive[message.receiver]:
            if not liveness:
                self.stats.messages_lost_dead += 1
            return
        if self._partition_cuts(message.sender, message.receiver):
            if not liveness:
                self.stats.messages_lost_partition += 1
            return
        heard = self._heard_of.setdefault(message.receiver, set())
        heard.add(message.sender)
        heard.update(message.payload)
        if message.kind is MessageKind.PING:
            (ping_id,) = message.payload
            self.send(
                Message(
                    MessageKind.PONG,
                    message.receiver,
                    message.sender,
                    (ping_id,),
                    message.round_index,
                )
            )
            return
        if message.kind is MessageKind.PONG:
            (ping_id,) = message.payload
            pending = self._pending_pings.pop(ping_id, None)
            if pending is not None:
                self.stats.pongs_received += 1
                self._miss_counts.pop(pending, None)
            return
        self.stats.messages_delivered += 1
        receiver = self.nodes[message.receiver]
        for follow_up in self.protocol.on_deliver(receiver, message, self):
            self.send(follow_up)

    def _handle_ping_timer(self, u: int) -> None:
        node = self.nodes[u]
        if self._alive[u] and node.degree() > 0:
            contact = node.contacts[int(self._liveness_rng.integers(node.degree()))]
            ping_id = self._next_ping_id
            self._next_ping_id += 1
            self._pending_pings[ping_id] = (u, contact)
            self.send(Message(MessageKind.PING, u, contact, (ping_id,), self.stats.ticks))
            self._queue.push(
                self._clock + self.ping_timeout, EventKind.PING_TIMEOUT, ping_id
            )
        # Reschedule even while down — the node may rejoin.
        self._queue.push(self._clock + self.ping_interval, EventKind.PING_TIMER, u)

    def _handle_ping_timeout(self, ping_id: int) -> None:
        pending = self._pending_pings.pop(ping_id, None)
        if pending is None:
            return
        u, contact = pending
        if not self._alive[u]:
            self._miss_counts.pop(pending, None)
            return
        misses = self._miss_counts.get(pending, 0) + 1
        if misses < self.ping_misses:
            self._miss_counts[pending] = misses
            return
        self._miss_counts.pop(pending, None)
        if self.nodes[u].remove_contact(contact):
            self.stats.evictions += 1

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _open_tick_window(self) -> None:
        """Start the per-tick bandwidth entry that sends are charged to."""
        # Bits each node sent in the current tick window.
        self._node_bits = [0] * self.n
        stats = self.stats
        stats.per_tick_messages.append(0)
        stats.per_tick_bits.append(0)
        stats.per_tick_max_node_bits.append(0)

    def _partition_cuts(self, a: int, b: int) -> bool:
        if self._group_of is None:
            return False
        return self._group_of.get(a, -1) != self._group_of.get(b, -1)

    @staticmethod
    def _log_data(event: Event) -> object:
        if event.kind is EventKind.MESSAGE:
            msg = event.data
            return (msg.kind.value, msg.sender, msg.receiver, msg.payload)
        return event.data

    # ------------------------------------------------------------------ #
    # measurement
    # ------------------------------------------------------------------ #
    def is_alive(self, node_id: int) -> bool:
        """True while ``node_id`` is up."""
        return self._alive[node_id]

    def alive_nodes(self) -> List[int]:
        """IDs of the currently-up nodes."""
        return [u for u in range(self.n) if self._alive[u]]

    def is_converged(self) -> bool:
        """True when every alive node knows every *other alive* node.

        Dead contacts may linger in lists (until pings evict them) — they
        do not block convergence; neither do down nodes' stale views.
        """
        alive = [self.nodes[u] for u in range(self.n) if self._alive[u]]
        return all(
            node.knows(other.node_id)
            for node in alive
            for other in alive
            if other is not node
        )

    def contact_graph(self) -> DynamicGraph:
        """The current who-knows-whom graph reconstructed from node state."""
        g = DynamicGraph(self.n)
        for node in self.nodes:
            for c in node.contacts:
                g.add_edge(node.node_id, c)
        return g

    def max_bits_per_node_round(self) -> int:
        """Largest bits any *single* node sent in any single tick.

        This is the quantity the paper's per-node bandwidth claims are
        about: for the push protocol it stays ``O(log n)`` (two IDs per
        round); for Name Dropper it grows to ``Θ(n log n)``.  For pull it
        can exceed the requester-side budget because one node may answer
        every request that lands on it in a round.
        """
        return max(self.stats.per_tick_max_node_bits)

    def max_round_mean_bits_per_node(self) -> int:
        """Largest per-tick *average* bits per node (total bits / n, rounded up).

        A smoother load measure than :meth:`max_bits_per_node_round`: it
        bounds the mean per-node traffic of the busiest tick, not the
        busiest node's.
        """
        return -(-max(self.stats.per_tick_bits) // max(self.n, 1))

    def __repr__(self) -> str:
        return (
            f"AsyncNetworkSimulator(protocol={self.protocol.name!r}, n={self.n}, "
            f"time={self._clock:.2f}, ticks={self.stats.ticks}, "
            f"alive={sum(self._alive)})"
        )
