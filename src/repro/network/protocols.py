"""The discovery protocols expressed as per-message state transitions.

Each protocol is split into two engine-agnostic pieces:

* :meth:`GossipProtocol.initiate_batch` — given the nodes that act in this
  activation (a synchronous round or an async tick) and a
  :class:`ProtocolContext`, sample the messages those nodes originate.
* :meth:`GossipProtocol.on_deliver` — apply one delivered message's state
  transition at the receiver and return any follow-up messages (e.g. the
  ``PULL_REPLY`` answering a ``PULL_REQUEST``).

The synchronous :class:`~repro.network.simulator.NetworkSimulator` drives
these through the default :meth:`GossipProtocol.run_round` (a FIFO
breadth-first message loop, which reproduces the classic phase structure:
all requests, then all replies, then all connects); the asynchronous
:class:`~repro.network.async_simulator.AsyncNetworkSimulator` drives the
very same transitions from timestamped delivery events.  The transitions
are therefore written once and shared between both engines.

Per-protocol shapes:

* **Push**: each acting node sends two ``INTRODUCE`` messages, one to each
  chosen neighbour, carrying the other neighbour's ID.
* **Pull**: ``PULL_REQUEST`` to a random neighbour; the delivered request
  triggers a ``PULL_REPLY`` carrying a random ID from the replier's
  reply snapshot; the delivered reply is *recorded at the requester* and
  triggers a ``CONNECT`` that informs the discovered node.  (The requester
  keeps the ID as soon as the reply arrives — an earlier implementation
  only recorded it if the outgoing ``CONNECT`` was also delivered, which
  silently discarded knowledge under message loss.)
* **Name Dropper**: each acting node sends its entire contact list (plus
  its own ID) to one random neighbour.

All sampling is done against activation-start snapshots so the protocols
match the synchronous semantics of the graph-level processes; the push
protocol draws through the same bulk convention as the vectorized round
engine (one ``rng.random(n)`` block per sampling stage, indices mapped by
:func:`repro.graphs.sampling.uniform_indices`), so it stays draw-for-draw
identical to :class:`repro.core.push.PushDiscovery` when given the same
seed and starting graph — on the array graph or the reference oracle, and
under either simulation engine.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graphs.sampling import uniform_indices
from repro.network.message import Message, MessageKind
from repro.network.node import NetworkNode

__all__ = [
    "ProtocolContext",
    "GossipProtocol",
    "PushProtocol",
    "PullProtocol",
    "NameDropperProtocol",
    "protocol_names",
    "resolve_protocol",
]


class ProtocolContext:
    """Engine services a protocol needs while generating/applying messages.

    Parameters
    ----------
    rng:
        The generator all protocol draws go through.
    round_index:
        The logical activation index stamped onto created messages (the
        round number for the synchronous engine, the tick index for the
        async one).
    reply_snapshots:
        Mapping of node id to the contact tuple replies are sampled from.
        The synchronous engine passes round-start snapshots (so replies
        are drawn from :math:`G_t` exactly like the graph-level two-hop
        walk); the async engine passes nothing and replies sample the
        replier's *current* contacts at delivery time.
    record_discovery:
        Callback ``(node_id, contact_id)`` invoked whenever a node stores
        a previously unknown contact.
    """

    __slots__ = ("rng", "round_index", "_reply_snapshots", "_record")

    def __init__(
        self,
        rng: np.random.Generator,
        round_index: int,
        record_discovery,
        reply_snapshots: Dict[int, Tuple[int, ...]] = None,
    ) -> None:
        self.rng = rng
        self.round_index = round_index
        self._record = record_discovery
        self._reply_snapshots = reply_snapshots

    def reply_contacts(self, node: NetworkNode) -> Sequence[int]:
        """The contact list ``node`` answers pull requests from."""
        if self._reply_snapshots is not None:
            return self._reply_snapshots[node.node_id]
        return node.contacts

    def record_discovery(self, node_id: int, contact_id: int) -> None:
        """Report a stored-for-the-first-time contact to the engine."""
        self._record(node_id, contact_id)


class GossipProtocol(abc.ABC):
    """Interface for a message-level discovery protocol."""

    #: short name used by the simulator factories and the experiments.
    name: str = "abstract"

    @abc.abstractmethod
    def initiate_batch(
        self, nodes: Sequence[NetworkNode], ctx: ProtocolContext
    ) -> List[Message]:
        """Messages originated by ``nodes`` at one activation.

        ``nodes`` is the list of currently acting nodes (all of them in the
        synchronous engine; the alive subset under churn in the async one).
        Sampling must read only activation-start state — implementations
        never apply state changes here.
        """

    @abc.abstractmethod
    def on_deliver(
        self, receiver: NetworkNode, message: Message, ctx: ProtocolContext
    ) -> List[Message]:
        """Apply ``message`` at ``receiver``; return follow-up messages.

        This is the single definition of each message kind's state
        transition, shared by both simulation engines.  Follow-ups are
        returned (not sent) so the engine controls delivery.
        """

    def run_round(self, simulator) -> None:
        """Execute one synchronous round on ``simulator``.

        A FIFO loop over the outbox: initiation messages first, then each
        delivered message's follow-ups in delivery order.  Because
        follow-ups append behind the remaining initiations, this replays
        the classic phase structure (all requests, then all replies, then
        all connects) and—under ``NoFailures``—consumes the RNG in exactly
        the order the phase-structured implementation did.  All messages
        go through ``simulator.send`` (failure model, locality check and
        accounting); transitions run only for delivered messages.
        """
        ctx = ProtocolContext(
            rng=simulator.rng,
            round_index=simulator.round_index,
            record_discovery=simulator.record_discovery,
            reply_snapshots={
                node.node_id: tuple(node.contacts) for node in simulator.nodes
            },
        )
        outbox = deque(self.initiate_batch(simulator.nodes, ctx))
        while outbox:
            message = outbox.popleft()
            if simulator.send(message):
                receiver = simulator.nodes[message.receiver]
                outbox.extend(self.on_deliver(receiver, message, ctx))


def _absorb_payload(
    receiver: NetworkNode, message: Message, ctx: ProtocolContext
) -> None:
    """Store every payload ID at ``receiver``, reporting new ones."""
    for contact in message.payload:
        if receiver.add_contact(contact):
            ctx.record_discovery(receiver.node_id, contact)


class PushProtocol(GossipProtocol):
    """Triangulation as messages: introduce two random contacts to each other."""

    name = "push"

    def initiate_batch(self, nodes, ctx):
        # Bulk draw convention: one rng.random(len(nodes)) block per chosen
        # endpoint, so this protocol consumes the same stream as
        # PushDiscovery.propose_batch on the same seed.
        rng = ctx.rng
        degrees = np.array([node.degree() for node in nodes], dtype=np.int64)
        first = uniform_indices(rng.random(len(nodes)), degrees)
        second = uniform_indices(rng.random(len(nodes)), degrees)
        messages: List[Message] = []
        for node, i, j in zip(nodes, first.tolist(), second.tolist()):
            if i < 0:
                continue
            v = node.contacts[i]
            w = node.contacts[j]
            if v == w:
                continue
            messages.append(
                Message(MessageKind.INTRODUCE, node.node_id, v, (w,), ctx.round_index)
            )
            messages.append(
                Message(MessageKind.INTRODUCE, node.node_id, w, (v,), ctx.round_index)
            )
        return messages

    def on_deliver(self, receiver, message, ctx):
        _absorb_payload(receiver, message, ctx)
        return []


class PullProtocol(GossipProtocol):
    """Two-hop walk as messages: request / reply / connect."""

    name = "pull"

    def initiate_batch(self, nodes, ctx):
        messages: List[Message] = []
        for node in nodes:
            if node.degree() == 0:
                continue
            v = node.random_contact(ctx.rng)
            messages.append(
                Message(MessageKind.PULL_REQUEST, node.node_id, v, (), ctx.round_index)
            )
        return messages

    def on_deliver(self, receiver, message, ctx):
        if message.kind is MessageKind.PULL_REQUEST:
            # Answer with a random contact from the reply snapshot.
            contacts = ctx.reply_contacts(receiver)
            if not contacts:
                return []
            w = contacts[int(ctx.rng.integers(len(contacts)))]
            return [
                Message(
                    MessageKind.PULL_REPLY,
                    receiver.node_id,
                    message.sender,
                    (w,),
                    ctx.round_index,
                )
            ]
        if message.kind is MessageKind.PULL_REPLY:
            # The requester keeps the handed ID the moment the reply lands;
            # the CONNECT below only *informs* the discovered node.  (Tying
            # the requester's record to the CONNECT's delivery made a node
            # forget an ID it had already received whenever the follow-up
            # was dropped.)
            (w,) = message.payload
            if receiver.add_contact(w):
                ctx.record_discovery(receiver.node_id, w)
            if w == receiver.node_id:
                return []
            return [
                Message(
                    MessageKind.CONNECT,
                    receiver.node_id,
                    w,
                    (receiver.node_id,),
                    ctx.round_index,
                )
            ]
        if message.kind is MessageKind.CONNECT:
            _absorb_payload(receiver, message, ctx)
            return []
        raise ValueError(f"pull protocol cannot handle {message.kind!r}")


class NameDropperProtocol(GossipProtocol):
    """Name Dropper as messages: bulk knowledge transfer to one random neighbour."""

    name = "name_dropper"

    def initiate_batch(self, nodes, ctx):
        messages: List[Message] = []
        for node in nodes:
            if node.degree() == 0:
                continue
            v = node.random_contact(ctx.rng)
            payload = tuple(node.contacts) + (node.node_id,)
            messages.append(
                Message(MessageKind.KNOWLEDGE, node.node_id, v, payload, ctx.round_index)
            )
        return messages

    def on_deliver(self, receiver, message, ctx):
        _absorb_payload(receiver, message, ctx)
        return []


_PROTOCOLS = {
    "push": PushProtocol,
    "pull": PullProtocol,
    "name_dropper": NameDropperProtocol,
}


def protocol_names() -> List[str]:
    """All registered protocol names (the CLI ``--protocol`` choices)."""
    return sorted(_PROTOCOLS)


def resolve_protocol(protocol) -> GossipProtocol:
    """Instantiate ``protocol`` when given by name; pass instances through."""
    if isinstance(protocol, GossipProtocol):
        return protocol
    try:
        return _PROTOCOLS[protocol]()
    except (KeyError, TypeError):
        raise KeyError(
            f"unknown protocol {protocol!r}; known: {sorted(_PROTOCOLS)}"
        ) from None
