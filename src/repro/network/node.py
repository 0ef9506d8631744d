"""The node agent: local state only.

A :class:`NetworkNode` knows nothing about the global graph — it holds an
insertion-ordered contact list (the IDs it has discovered so far, i.e. its
current neighbours) and answers protocol events.  The simulator owns
message delivery; the node only mutates its own state.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

__all__ = ["NetworkNode"]


class NetworkNode:
    """A host participating in the discovery protocol.

    Parameters
    ----------
    node_id:
        This node's identifier (its "IP address" in the paper's P2P story).
    initial_contacts:
        The IDs of the node's neighbours in the starting graph, in
        insertion order.
    """

    __slots__ = ("node_id", "_contacts", "_contact_set")

    def __init__(self, node_id: int, initial_contacts: Iterable[int] = ()) -> None:
        self.node_id = int(node_id)
        self._contacts: List[int] = []
        self._contact_set = set()
        for c in initial_contacts:
            self.add_contact(c)

    # ------------------------------------------------------------------ #
    # contact management
    # ------------------------------------------------------------------ #
    @property
    def contacts(self) -> Sequence[int]:
        """The node's current contact list (live; do not mutate)."""
        return self._contacts

    def knows(self, other: int) -> bool:
        """True when ``other`` is already a contact."""
        return other in self._contact_set

    def add_contact(self, other: int) -> bool:
        """Record a newly discovered contact; returns True when it was new.

        Self-references are ignored (a node does not store itself).
        """
        other = int(other)
        if other == self.node_id or other in self._contact_set:
            return False
        self._contact_set.add(other)
        self._contacts.append(other)
        return True

    def remove_contact(self, other: int) -> bool:
        """Forget a contact (liveness eviction); returns True when it was known."""
        other = int(other)
        if other not in self._contact_set:
            return False
        self._contact_set.discard(other)
        self._contacts.remove(other)
        return True

    def degree(self) -> int:
        """Number of known contacts."""
        return len(self._contacts)

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def random_contact(self, rng: np.random.Generator) -> int:
        """A uniformly random contact; raises if the node knows nobody."""
        if not self._contacts:
            raise ValueError(f"node {self.node_id} has no contacts to sample from")
        return self._contacts[int(rng.integers(len(self._contacts)))]

    def __repr__(self) -> str:
        return f"NetworkNode(id={self.node_id}, contacts={len(self._contacts)})"
