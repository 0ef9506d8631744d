"""Activation schedules: which nodes act in a round.

The paper's model activates *every* node in *every* round.  The conclusion
asks what happens when "only a subset of nodes participate in forming
connections"; this module provides pluggable activation schedules for that
study and for an asynchronous-style model where a random subset of expected
size one acts per tick (the classic way to compare synchronous round bounds
against asynchronous wall-clock bounds).

Schedules compose with any :class:`DiscoveryProcess` through
:class:`ScheduledProcess`, which overrides ``participating_nodes``.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Sequence, Union

import numpy as np

from repro.core.base import DiscoveryProcess, RoundResult

__all__ = [
    "ActivationSchedule",
    "FullActivation",
    "BernoulliActivation",
    "FixedSubsetActivation",
    "RoundRobinActivation",
    "PoissonLikeActivation",
    "ScheduledProcess",
]


class ActivationSchedule(abc.ABC):
    """Decides which nodes act in a given round."""

    @abc.abstractmethod
    def active_nodes(self, n: int, round_index: int, rng: np.random.Generator) -> Iterable[int]:
        """Return the node IDs that act in round ``round_index`` of an n-node process."""


class FullActivation(ActivationSchedule):
    """Every node acts every round — the paper's synchronous model."""

    def active_nodes(self, n: int, round_index: int, rng: np.random.Generator) -> Iterable[int]:
        return range(n)


class BernoulliActivation(ActivationSchedule):
    """Each node independently acts with probability ``p`` each round."""

    def __init__(self, p: float) -> None:
        if not (0.0 < p <= 1.0):
            raise ValueError(f"p must be in (0, 1], got {p}")
        self.p = p

    def active_nodes(self, n: int, round_index: int, rng: np.random.Generator) -> Iterable[int]:
        mask = rng.random(n) < self.p
        return np.flatnonzero(mask).tolist()


class FixedSubsetActivation(ActivationSchedule):
    """Only a fixed subset of nodes ever acts (the rest are passive listeners).

    Node IDs are validated eagerly: negatives are rejected at construction,
    and IDs beyond the process's node count are rejected at first use.  An
    out-of-range ID is a configuration error — silently shrinking the
    active set would make a subset experiment measure something other than
    what was asked for.
    """

    def __init__(self, subset: Sequence[int]) -> None:
        subset = list(subset)
        if not subset:
            raise ValueError("the active subset must be non-empty")
        self.subset: List[int] = sorted(set(int(u) for u in subset))
        if self.subset[0] < 0:
            raise ValueError(f"active node ids must be non-negative, got {self.subset[0]}")

    def active_nodes(self, n: int, round_index: int, rng: np.random.Generator) -> Iterable[int]:
        if self.subset[-1] >= n:
            raise ValueError(
                f"active subset contains node {self.subset[-1]}, but the process "
                f"has only {n} nodes (valid ids are 0..{n - 1})"
            )
        return list(self.subset)


class RoundRobinActivation(ActivationSchedule):
    """Exactly one node acts per tick, cycling through node IDs in order.

    ``n`` ticks of this schedule perform the same amount of work as one
    synchronous round, so convergence tick-counts divided by ``n`` are
    directly comparable with the paper's round bounds.
    """

    def active_nodes(self, n: int, round_index: int, rng: np.random.Generator) -> Iterable[int]:
        return [round_index % n]


class PoissonLikeActivation(ActivationSchedule):
    """One uniformly random node acts per tick (asynchronous-style activation)."""

    def active_nodes(self, n: int, round_index: int, rng: np.random.Generator) -> Iterable[int]:
        return [int(rng.integers(n))]


class ScheduledProcess:
    """Wrap a process so its per-round participation follows a schedule.

    The wrapper monkey-patches ``participating_nodes`` on the wrapped
    process instance; everything else (stepping, convergence, metrics)
    passes through untouched, so the wrapped process can be used with the
    normal run loop and the experiment harness.

    The wrapper is a full stand-in for the process: ``rng``,
    ``round_index``, the running totals, ``metrics`` and the degree-cache
    accessors all pass through, so recorders and the experiment harness
    never need to reach into ``.process``.  Rounds executed through the
    wrapper (``step`` or ``run``) are additionally collected in
    :attr:`history`.
    """

    def __init__(self, process: DiscoveryProcess, schedule: ActivationSchedule) -> None:
        if not isinstance(process, DiscoveryProcess):
            # Only the base round machinery consults participating_nodes();
            # patching it onto another wrapper (e.g. a ShardedProcess over a
            # row-OR process, whose multi-shard rounds assume full
            # activation) would be a silent
            # no-op — the exact failure mode this module exists to prevent.
            raise TypeError(
                f"ScheduledProcess wraps DiscoveryProcess instances, got "
                f"{type(process).__name__}; apply the schedule to the inner process"
            )
        self.process = process
        self.schedule = schedule
        #: per-round results of every round executed through this wrapper.
        self.history: List[RoundResult] = []
        self._install()

    def _install(self) -> None:
        process = self.process
        schedule = self.schedule

        def participating_nodes() -> Iterable[int]:
            return schedule.active_nodes(process.graph.n, process.round_index, process.rng)

        process.participating_nodes = participating_nodes  # type: ignore[method-assign]

    # Pass-through conveniences so the wrapper can be used like a process.
    def step(self):
        """Execute one scheduled round."""
        result = self.process.step()
        self.history.append(result)
        return result

    def run(self, max_rounds, until=None, record_history=False, callbacks=()):
        """Run the wrapped process with the schedule applied."""
        callbacks = list(callbacks)
        callbacks.append(lambda _process, result: self.history.append(result))
        return self.process.run(
            max_rounds, until=until, record_history=record_history, callbacks=callbacks
        )

    def run_to_convergence(self, max_rounds=None, record_history=False, callbacks=()):
        """Run the wrapped process to convergence with the schedule applied."""
        callbacks = list(callbacks)
        callbacks.append(lambda _process, result: self.history.append(result))
        return self.process.run_to_convergence(
            max_rounds=max_rounds, record_history=record_history, callbacks=callbacks
        )

    def is_converged(self) -> bool:
        """Delegate to the wrapped process."""
        return self.process.is_converged()

    def degree_view(self):
        """The wrapped process's incremental degree cache (for recorders)."""
        return self.process.degree_view()

    def cached_min_degree(self) -> int:
        """The wrapped process's incremental minimum degree."""
        return self.process.cached_min_degree()

    @property
    def graph(self):
        """The wrapped process's graph."""
        return self.process.graph

    @property
    def rng(self) -> np.random.Generator:
        """The wrapped process's generator (schedules and proposals share it)."""
        return self.process.rng

    @property
    def round_index(self) -> int:
        """Rounds executed so far by the wrapped process."""
        return self.process.round_index

    @property
    def semantics(self):
        """The wrapped process's update semantics."""
        return self.process.semantics

    @property
    def total_edges_added(self) -> int:
        """Total new edges created by the wrapped process."""
        return self.process.total_edges_added

    @property
    def total_messages(self) -> int:
        """Total protocol messages sent by the wrapped process."""
        return self.process.total_messages

    @property
    def total_bits(self) -> int:
        """Total payload bits sent by the wrapped process."""
        return self.process.total_bits

    @property
    def metrics(self) -> dict:
        """Running totals of the wrapped process as one dict."""
        return {
            "rounds": self.process.round_index,
            "edges_added": self.process.total_edges_added,
            "messages": self.process.total_messages,
            "bits": self.process.total_bits,
        }
