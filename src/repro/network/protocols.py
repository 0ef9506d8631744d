"""The discovery protocols expressed as per-message state transitions.

Each protocol is two pieces, driven by
:class:`~repro.network.async_simulator.AsyncNetworkSimulator`:

* :meth:`GossipProtocol.initiate_batch` — given the nodes that act at one
  tick and the engine, sample the messages those nodes originate.
* :meth:`GossipProtocol.on_deliver` — apply one delivered message's state
  transition at the receiver and return any follow-up messages (e.g. the
  ``PULL_REPLY`` answering a ``PULL_REQUEST``).

Per-protocol shapes:

* **Push**: each acting node sends two ``INTRODUCE`` messages, one to each
  chosen neighbour, carrying the other neighbour's ID.
* **Pull**: ``PULL_REQUEST`` to a random neighbour; the delivered request
  triggers a ``PULL_REPLY`` carrying a random ID from the replier's
  current contacts; the delivered reply is *recorded at the requester* and
  triggers a ``CONNECT`` that informs the discovered node.  (The requester
  keeps the ID as soon as the reply arrives — an earlier implementation
  only recorded it if the outgoing ``CONNECT`` was also delivered, which
  silently discarded knowledge under message loss.)
* **Name Dropper**: each acting node sends its entire contact list (plus
  its own ID) to one random neighbour.

Initiation samples tick-start state only.  In the engine's default
configuration every ``PULL_REQUEST`` lands before any reply or
``CONNECT``, so a replier's current contacts *are* its round-start
contacts and all three protocols follow the synchronous semantics of the
graph-level processes.  The push protocol draws through the same bulk
convention as the vectorized round engine (one ``rng.random(n)`` block
per sampling stage, indices mapped by
:func:`repro.graphs.sampling.uniform_indices`), so it stays draw-for-draw
identical to :class:`repro.core.push.PushDiscovery` when given the same
seed and starting graph.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from repro.graphs.sampling import uniform_indices
from repro.network.message import Message, MessageKind
from repro.network.node import NetworkNode

if TYPE_CHECKING:
    from repro.network.async_simulator import AsyncNetworkSimulator

__all__ = [
    "GossipProtocol",
    "PushProtocol",
    "PullProtocol",
    "NameDropperProtocol",
    "protocol_names",
    "resolve_protocol",
]


class GossipProtocol(abc.ABC):
    """Interface for a message-level discovery protocol."""

    #: short name used by the simulator factories and the experiments.
    name: str = "abstract"

    @abc.abstractmethod
    def initiate_batch(
        self, nodes: Sequence[NetworkNode], sim: "AsyncNetworkSimulator"
    ) -> List[Message]:
        """Messages originated by ``nodes`` at the current tick.

        ``nodes`` is the list of currently acting (alive) nodes.  Draws go
        through ``sim.rng`` and messages are stamped with ``sim.stats.ticks``.
        Sampling must read only tick-start state — implementations never
        apply state changes here.
        """

    @abc.abstractmethod
    def on_deliver(
        self, receiver: NetworkNode, message: Message, sim: "AsyncNetworkSimulator"
    ) -> List[Message]:
        """Apply ``message`` at ``receiver``; return follow-up messages.

        This is the single definition of each message kind's state
        transition.  New contacts are reported through
        ``sim.record_discovery`` and follow-ups carry ``message``'s round
        index.  They are returned (not sent) so the engine controls
        delivery.
        """


def _absorb_payload(
    receiver: NetworkNode, message: Message, sim: "AsyncNetworkSimulator"
) -> None:
    """Store every payload ID at ``receiver``, reporting new ones."""
    for contact in message.payload:
        if receiver.add_contact(contact):
            sim.record_discovery(receiver.node_id, contact)


class PushProtocol(GossipProtocol):
    """Triangulation as messages: introduce two random contacts to each other."""

    name = "push"

    def initiate_batch(self, nodes, sim):
        # Bulk draw convention: one rng.random(len(nodes)) block per chosen
        # endpoint, so this protocol consumes the same stream as
        # PushDiscovery.propose_batch on the same seed.
        rng = sim.rng
        tick = sim.stats.ticks
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
            messages.append(Message(MessageKind.INTRODUCE, node.node_id, v, (w,), tick))
            messages.append(Message(MessageKind.INTRODUCE, node.node_id, w, (v,), tick))
        return messages

    def on_deliver(self, receiver, message, sim):
        _absorb_payload(receiver, message, sim)
        return []


class PullProtocol(GossipProtocol):
    """Two-hop walk as messages: request / reply / connect."""

    name = "pull"

    def initiate_batch(self, nodes, sim):
        messages: List[Message] = []
        for node in nodes:
            if node.degree() == 0:
                continue
            v = node.random_contact(sim.rng)
            messages.append(
                Message(MessageKind.PULL_REQUEST, node.node_id, v, (), sim.stats.ticks)
            )
        return messages

    def on_deliver(self, receiver, message, sim):
        if message.kind is MessageKind.PULL_REQUEST:
            # Answer with a random current contact.
            if receiver.degree() == 0:
                return []
            w = receiver.random_contact(sim.rng)
            return [
                Message(
                    MessageKind.PULL_REPLY,
                    receiver.node_id,
                    message.sender,
                    (w,),
                    message.round_index,
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
                sim.record_discovery(receiver.node_id, w)
            if w == receiver.node_id:
                return []
            return [
                Message(
                    MessageKind.CONNECT,
                    receiver.node_id,
                    w,
                    (receiver.node_id,),
                    message.round_index,
                )
            ]
        if message.kind is MessageKind.CONNECT:
            _absorb_payload(receiver, message, sim)
            return []
        raise ValueError(f"pull protocol cannot handle {message.kind!r}")


class NameDropperProtocol(GossipProtocol):
    """Name Dropper as messages: bulk knowledge transfer to one random neighbour."""

    name = "name_dropper"

    def initiate_batch(self, nodes, sim):
        messages: List[Message] = []
        for node in nodes:
            if node.degree() == 0:
                continue
            v = node.random_contact(sim.rng)
            payload = tuple(node.contacts) + (node.node_id,)
            messages.append(
                Message(MessageKind.KNOWLEDGE, node.node_id, v, payload, sim.stats.ticks)
            )
        return messages

    def on_deliver(self, receiver, message, sim):
        _absorb_payload(receiver, message, sim)
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
