"""Event primitives for the network simulator.

Everything the engine schedules is an :class:`Event` on one
:class:`EventQueue` — a binary heap ordered by ``(time, seq)``, where
``seq`` is a monotonically increasing insertion counter.  The tie-break
makes event processing *fully deterministic*: two runs with the same seed
and the same schedules pop exactly the same events in exactly the same
order, which is what makes the default configuration (sub-tick fixed
latency) the paper's synchronous rounds, draw for draw.

The module also holds the pluggable ingredients of the failure story:

* :class:`LatencyModel` — per-message delivery delay
  (:class:`FixedLatency` draws nothing from the RNG, so zero-variance
  runs consume only the protocol's own draws;
  :class:`UniformLatency` / :class:`ExponentialLatency` add jitter).
* :class:`ChurnSchedule` — timestamped node leave/join events, either
  written explicitly or generated by :meth:`ChurnSchedule.poisson` from a
  rate (with its own seed, so churn never perturbs protocol draws).
* :class:`PartitionSchedule` — timestamped partition/heal events; while a
  partition is active, messages crossing group boundaries are lost.
"""

from __future__ import annotations

import abc
import enum
import heapq
from dataclasses import dataclass
from typing import Any, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "EventKind",
    "Event",
    "EventQueue",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "ExponentialLatency",
    "ChurnSchedule",
    "PartitionSchedule",
]


class EventKind(enum.Enum):
    """Everything that can happen in the network simulator."""

    #: cohort activation: all alive nodes originate their protocol messages.
    TICK = "tick"
    #: a message arrives at its receiver.
    MESSAGE = "message"
    #: a node comes (back) up.
    JOIN = "join"
    #: a node goes down.
    LEAVE = "leave"
    #: the network splits into groups (data: sequence of node groups).
    PARTITION = "partition"
    #: the partition heals.
    HEAL = "heal"
    #: a node's liveness-probe timer fires.
    PING_TIMER = "ping_timer"
    #: a liveness probe went unanswered for the timeout (data: ping id).
    PING_TIMEOUT = "ping_timeout"


class Event(NamedTuple):
    """One scheduled occurrence; ordered by ``(time, seq)`` only.

    A plain tuple, so the heap compares events in C.  ``seq`` is unique
    per queue, so the comparison never reaches ``kind`` or ``data``.
    """

    time: float
    seq: int
    kind: EventKind
    data: Any = None


class EventQueue:
    """Deterministic timestamped event heap.

    Ties in ``time`` are broken by insertion order (``seq``), never by
    payload comparison, so processing order is a pure function of the
    push sequence.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._next_seq = 0

    def push(self, time: float, kind: EventKind, data: Any = None) -> Event:
        """Schedule ``kind`` at ``time``; returns the created event."""
        if not np.isfinite(time) or time < 0.0:
            raise ValueError(f"event time must be finite and non-negative, got {time}")
        event = Event(float(time), self._next_seq, kind, data)
        self._next_seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        """The earliest event without removing it."""
        return self._heap[0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


# --------------------------------------------------------------------------- #
# latency models
# --------------------------------------------------------------------------- #
class LatencyModel(abc.ABC):
    """Per-message delivery delay (in simulated time units)."""

    @abc.abstractmethod
    def sample(self, message, rng: np.random.Generator) -> float:
        """Delay between send and delivery of ``message``."""


class FixedLatency(LatencyModel):
    """Constant delay; consumes no randomness.

    The zero-variance model and the engine's default: with
    ``FixedLatency(d)`` and ``3 * d`` below the tick interval, every
    message of a round — pull's request, reply and connect included —
    lands inside its own tick, so a tick is exactly one synchronous round
    (and, because nothing is drawn from the RNG here, consumes only the
    protocol's draws).
    """

    def __init__(self, delay: float = 0.25) -> None:
        if delay < 0.0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.delay = float(delay)

    def sample(self, message, rng: np.random.Generator) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"FixedLatency({self.delay})"


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not (0.0 <= low <= high):
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, message, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class ExponentialLatency(LatencyModel):
    """Heavy-ish tailed delay: ``base + Exponential(mean)``."""

    def __init__(self, mean: float, base: float = 0.0) -> None:
        if mean <= 0.0 or base < 0.0:
            raise ValueError(f"need mean > 0 and base >= 0, got {mean}, {base}")
        self.mean = float(mean)
        self.base = float(base)

    def sample(self, message, rng: np.random.Generator) -> float:
        return self.base + float(rng.exponential(self.mean))

    def __repr__(self) -> str:
        return f"ExponentialLatency({self.mean}, base={self.base})"


# --------------------------------------------------------------------------- #
# fault schedules
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ChurnEntry:
    time: float
    kind: str  # "leave" | "join"
    node: int


class ChurnSchedule:
    """Timestamped node leave/join events.

    Entries are ``(time, "leave" | "join", node_id)``.  A leave takes the
    node down: it stops acting at ticks, and messages arriving while it is
    down are lost.  A join brings it back up with the contact list it had
    when it left (crash-recovery semantics); the ID space is fixed, so
    "join" always means *rejoin* of a known ID.
    """

    def __init__(self, entries: Iterable[Tuple[float, str, int]] = ()) -> None:
        parsed = []
        for time, kind, node in entries:
            if kind not in ("leave", "join"):
                raise ValueError(f"churn kind must be 'leave' or 'join', got {kind!r}")
            if time < 0.0:
                raise ValueError(f"churn time must be non-negative, got {time}")
            parsed.append(_ChurnEntry(float(time), kind, int(node)))
        # Stable sort: same-time entries keep their authored order.
        self.entries: List[_ChurnEntry] = sorted(parsed, key=lambda e: e.time)

    @classmethod
    def poisson(
        cls,
        n: int,
        rate: float,
        horizon: float,
        seed: int,
        downtime: float = 5.0,
    ) -> "ChurnSchedule":
        """Random churn: leaves arrive as a Poisson process of ``rate``.

        Each arrival takes one uniformly chosen node down for ``downtime``
        time units (nodes already scheduled down are skipped).  The
        schedule is generated up front from its *own* seeded generator, so
        identical parameters give identical churn without consuming any
        draws from the protocol RNG.
        """
        if rate < 0.0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        entries: List[Tuple[float, str, int]] = []
        if rate == 0.0 or n == 0:
            return cls(entries)
        rng = np.random.default_rng(seed)
        down_until = np.zeros(n)
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= horizon:
                break
            node = int(rng.integers(n))
            if down_until[node] > t:
                continue
            entries.append((t, "leave", node))
            entries.append((t + downtime, "join", node))
            down_until[node] = t + downtime
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"ChurnSchedule({len(self.entries)} events)"


@dataclass(frozen=True)
class _PartitionEntry:
    time: float
    groups: Optional[Tuple[Tuple[int, ...], ...]]  # None = heal


class PartitionSchedule:
    """Timestamped partition/heal events.

    Each entry is ``(time, groups)`` where ``groups`` is a sequence of
    node-ID groups (nodes not listed form one implicit remainder group),
    or ``(time, None)`` to heal.  While a partition is active, a message
    whose endpoints sit in different groups at *delivery* time is lost —
    messages already in flight when the split happens are cut too.
    """

    def __init__(
        self, entries: Iterable[Tuple[float, Optional[Sequence[Sequence[int]]]]] = ()
    ) -> None:
        parsed = []
        for time, groups in entries:
            if time < 0.0:
                raise ValueError(f"partition time must be non-negative, got {time}")
            frozen = (
                None
                if groups is None
                else tuple(tuple(int(u) for u in group) for group in groups)
            )
            parsed.append(_PartitionEntry(float(time), frozen))
        self.entries: List[_PartitionEntry] = sorted(parsed, key=lambda e: e.time)

    @classmethod
    def split_heal(
        cls,
        split_time: float,
        heal_time: float,
        groups: Sequence[Sequence[int]],
    ) -> "PartitionSchedule":
        """One partition into ``groups`` at ``split_time``, healed at ``heal_time``."""
        if heal_time < split_time:
            raise ValueError("heal_time must not precede split_time")
        return cls([(split_time, groups), (heal_time, None)])

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"PartitionSchedule({len(self.entries)} events)"
