"""Protocol messages and bit accounting.

The paper's model allows each node to send messages of at most
``O(log n)`` bits per round — i.e. a constant number of node IDs.  Every
message here carries an explicit payload of node IDs and knows its own
size in bits, so the simulator can verify the per-round bandwidth budget
of the gossip protocols and expose the Θ(n)-bit messages of the baselines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

from repro.core.base import id_bits

__all__ = ["MessageKind", "Message", "LocalityError", "id_bits_for"]


class LocalityError(ValueError):
    """A node addressed a message to an ID it has never been handed.

    The paper's model only lets a node contact IDs it knows: current
    contacts, nodes it has heard from, or IDs carried by a payload
    delivered to it.  The simulator raises this instead of silently
    delivering a message that no real deployment could route.
    """


def id_bits_for(n: int) -> int:
    """Bits needed to name one node out of ``n`` (at least 1).

    Alias of :func:`repro.core.base.id_bits` — the single authority for the
    per-ID bit cost — kept for the network layer's historical API.
    """
    return id_bits(n)


class MessageKind(str, enum.Enum):
    """The message types used by the discovery protocols."""

    #: push: "here is the ID of a node you should connect to" (sent by the introducer).
    INTRODUCE = "introduce"
    #: pull: "please send me the ID of one of your neighbours".
    PULL_REQUEST = "pull_request"
    #: pull: the reply carrying one neighbour ID.
    PULL_REPLY = "pull_reply"
    #: pull: "I am connecting to you" notification to the discovered node.
    CONNECT = "connect"
    #: name dropper: bulk transfer of every ID the sender knows.
    KNOWLEDGE = "knowledge"
    #: async liveness probe sent to a contact (payload: ping id).
    PING = "ping"
    #: async liveness acknowledgement (payload: the echoed ping id).
    PONG = "pong"


@dataclass(frozen=True)
class Message:
    """One protocol message.

    Attributes
    ----------
    kind:
        The protocol-level message type.
    sender, receiver:
        Node IDs of the endpoints.  Sending requires that the receiver is
        a current contact of the sender *or* was introduced to it (heard
        from it, or handed its ID in a delivered payload) — the simulator
        enforces the locality the paper's model assumes and raises
        :class:`LocalityError` on violations.
    payload:
        The node IDs carried by the message (possibly empty for requests).
    round_index:
        The tick (round) whose activation started the exchange; follow-ups
        carry the index of the message they answer.
    """

    kind: MessageKind
    sender: int
    receiver: int
    payload: Tuple[int, ...] = field(default_factory=tuple)
    round_index: int = 0

    def bits(self, n: int) -> int:
        """Payload size in bits for a network of ``n`` nodes.

        Requests with empty payloads still cost one ID's worth of bits
        (the sender must identify itself).
        """
        return max(1, len(self.payload)) * id_bits_for(n)
