"""Process interface and the one round skeleton every process runs on.

The paper's model is synchronous: in round ``t`` every node acts on the
*same* snapshot ``G_t`` and all added edges appear together in ``G_{t+1}``.
Because the graphs are append-only and a synchronous round samples every
proposal before it applies any, that contract holds without copying the
graph.

:meth:`DiscoveryProcess.step` is the only place a round is defined.  It
turns ``participating_nodes()`` into an ``int64`` array once, runs either
:meth:`~DiscoveryProcess._synchronous_round` (the paper's model) or
:meth:`~DiscoveryProcess._sequential_round` (an ablation: nodes act in
order and see edges added earlier in the same round), and ends in
:meth:`~DiscoveryProcess._finish_round`, which hands the round's new edges
to :meth:`~DiscoveryProcess._note_added_edges` and advances the round
index and the running totals.  The sharded engine ends its rounds in the
same ``_finish_round``.

A process extends exactly one of three points:

* ``propose_batch`` — a vectorized sampling kernel for the synchronous
  round (push, pull, the directed walk, the faulty variants).  The base
  implementation calls :meth:`~DiscoveryProcess.propose` per node, so a
  customised ``propose`` (the churn wrapper, a user subclass) keeps its
  exact per-node draws;
* a whole round — ``_synchronous_round`` / ``_sequential_round`` — for
  the payload baselines, whose messages carry neighbour sets rather than
  one proposed edge;
* ``_note_added_edges`` — per-edge state beyond the graph (the directed
  processes' closure deficit), fed by every insertion path: both round
  lanes, the sharded merge and the public
  :meth:`~DiscoveryProcess.apply_edge`.

The bulk draw convention is shared by the array graph substrate and the
reference-oracle list graphs (see :mod:`repro.graphs.sampling`), which
makes seeded traces identical on both.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.adjacency import DynamicDiGraph, DynamicGraph
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph

__all__ = [
    "UpdateSemantics",
    "RoundResult",
    "RunResult",
    "BatchProposals",
    "DiscoveryProcess",
    "id_bits",
]

GraphLike = Union[DynamicGraph, DynamicDiGraph, ArrayGraph, ArrayDiGraph]
Edge = Tuple[int, int]


def id_bits(n: int) -> int:
    """Bits needed to name one node among ``n`` — ``max(1, ceil(log2 n))``.

    This is the paper's ``O(log n)``-bit message payload unit.  It is the
    single authority for bit accounting: the round engine (both the bulk
    and the per-node accounting paths) and the message-level network layer
    all charge ``id_bits(n)`` per transmitted node ID, so the two layers
    can never drift apart on ``bits_sent``.  Degenerate sizes are pinned by
    tests: a 1- or 2-node system still pays 1 bit per ID.
    """
    return max(1, (max(int(n), 2) - 1).bit_length())


def _node_array(nodes: Iterable[int]) -> np.ndarray:
    """``nodes`` as an ``int64`` array, order preserved (``range`` without a Python loop)."""
    if isinstance(nodes, range):
        return np.arange(nodes.start, nodes.stop, nodes.step, dtype=np.int64)
    if not isinstance(nodes, np.ndarray):
        nodes = list(nodes)
    return np.asarray(nodes, dtype=np.int64).reshape(-1)


class UpdateSemantics(str, enum.Enum):
    """When edges proposed during a round become visible.

    ``SYNCHRONOUS``
        All proposals are sampled against the round-start graph ``G_t`` and
        applied together afterwards (the paper's model).
    ``SEQUENTIAL``
        Nodes act in index order and immediately apply their edge, so later
        nodes in the same round can already exploit it (ablation).
    """

    SYNCHRONOUS = "synchronous"
    SEQUENTIAL = "sequential"


class RoundResult:
    """Outcome of a single round.

    Attributes
    ----------
    round_index:
        Zero-based index of the round that was executed.
    proposed_edges:
        Every edge proposed by some node this round (including duplicates
        and already-present edges), in node order.  Materialised lazily
        when the round came from a vectorized kernel — hot convergence
        loops never touch it, so they never pay for the tuple conversion.
    added_edges:
        The subset of proposals that were genuinely new edges.
    messages_sent:
        Number of protocol messages this round (for bit accounting).
    bits_sent:
        Total message payload in bits, assuming ``ceil(log2 n)``-bit node IDs.
    """

    __slots__ = ("round_index", "added_edges", "messages_sent", "bits_sent", "_proposed", "_batch")

    def __init__(self, round_index: int) -> None:
        self.round_index = round_index
        self._proposed: Optional[List[Edge]] = []
        self._batch: Optional["BatchProposals"] = None
        self.added_edges: List[Edge] = []
        self.messages_sent = 0
        self.bits_sent = 0

    @property
    def proposed_edges(self) -> List[Edge]:
        """This round's proposals as tuples (materialised on first access)."""
        if self._proposed is None:
            self._proposed = self._batch.edges() if self._batch is not None else []
        return self._proposed

    def attach_batch(self, batch: "BatchProposals") -> None:
        """Record the array-form proposals, deferring tuple conversion."""
        self._batch = batch
        self._proposed = None

    @property
    def num_added(self) -> int:
        """Number of new edges created this round."""
        return len(self.added_edges)

    def __repr__(self) -> str:
        return (
            f"RoundResult(round_index={self.round_index}, "
            f"added={self.num_added}, messages={self.messages_sent}, bits={self.bits_sent})"
        )


class BatchProposals:
    """Array-form result of a synchronous round's sampling stage.

    Every ``propose_batch`` returns this, so the round engine stays in
    NumPy all the way to the batched edge insert.  ``us``/``vs`` hold the endpoints of the
    *valid* proposals only, in node order; ``pos`` maps each proposal back
    to its index among the round's ``count`` participating nodes (used by
    the faulty variants to align their bulk failure draw).
    """

    __slots__ = ("count", "us", "vs", "pos")

    def __init__(self, count: int, us: np.ndarray, vs: np.ndarray, pos: np.ndarray) -> None:
        self.count = count
        self.us = us
        self.vs = vs
        self.pos = pos

    def edges(self) -> List[Edge]:
        """The proposals as plain ``(u, v)`` tuples in node order."""
        return list(zip(self.us.tolist(), self.vs.tolist()))


@dataclass
class RunResult:
    """Outcome of running a process until convergence or a round limit.

    Attributes
    ----------
    rounds:
        Number of rounds executed.
    converged:
        True when the stopping predicate was satisfied (rather than the
        round limit being hit).
    total_edges_added:
        Total number of new edges created over the run.
    total_messages:
        Total protocol messages over the run.
    total_bits:
        Total message payload bits over the run.
    history:
        Optional per-round results (present when ``record_history=True``).
    """

    rounds: int
    converged: bool
    total_edges_added: int
    total_messages: int
    total_bits: int
    history: Optional[List[RoundResult]] = None


class DiscoveryProcess(abc.ABC):
    """Common machinery for all discovery processes.

    :meth:`step` is the one round skeleton (see the module docstring):
    participants as an ``int64`` array, then :meth:`_synchronous_round` or
    :meth:`_sequential_round`, then :meth:`_finish_round`.  Subclasses
    implement :meth:`is_converged` and extend exactly one of
    :meth:`propose_batch` (with the matching scalar :meth:`propose`), the
    round methods, or :meth:`_note_added_edges`.  Both base round lanes
    charge :attr:`MESSAGES_PER_NODE` messages of one node ID each per
    participating node.

    Parameters
    ----------
    graph:
        The starting graph; it is mutated in place.  Pass ``graph.copy()``
        if the caller needs to keep the original.  An :class:`ArrayGraph`
        (what the generators build) runs the vectorized kernels; a
        reference-oracle :class:`DynamicGraph` with the same neighbour rows
        produces the identical seeded trace.
    rng:
        A :class:`numpy.random.Generator` or an integer seed.  Every random
        choice of the process flows through this generator.
    semantics:
        Synchronous (paper model, default) or sequential updates.
    """

    #: messages sent per participating node per round (overridden by subclasses).
    MESSAGES_PER_NODE: int = 2

    def __init__(
        self,
        graph: GraphLike,
        rng: Union[np.random.Generator, int, None] = None,
        semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    ) -> None:
        self.graph = graph
        if isinstance(rng, np.random.Generator):
            self.rng = rng
        else:
            self.rng = np.random.default_rng(rng)
        self.semantics = UpdateSemantics(semantics)
        self.round_index = 0
        self.total_edges_added = 0
        self.total_messages = 0
        self.total_bits = 0
        self._id_bits = id_bits(graph.n)
        # Incrementally-maintained convergence counters (built lazily by
        # degree_view): the cached (out-)degree vector, the edge count it
        # reflects, and a lazily-refreshed minimum degree.
        self._deg_cache: Optional[np.ndarray] = None
        self._deg_cache_edges = -1
        self._min_deg = 0
        self._min_deg_dirty = True

    # ------------------------------------------------------------------ #
    # the process definition
    # ------------------------------------------------------------------ #
    def propose(self, node: int) -> Optional[Edge]:
        """Return the edge node ``node`` proposes this round, or None.

        The proposal must be sampled from the process's local rule using
        only ``self.graph`` and ``self.rng``.  Returning ``None`` means the
        node makes no proposal (e.g. an isolated node in a variant).
        Processes that define whole rounds instead (the payload baselines)
        have no per-node rule.
        """
        raise NotImplementedError(
            f"{type(self).__name__} defines whole rounds, not per-node proposals"
        )

    @abc.abstractmethod
    def is_converged(self) -> bool:
        """True when the process has reached its absorbing state."""

    def participating_nodes(self) -> Iterable[int]:
        """Nodes that act this round (all nodes by default)."""
        return self.graph.nodes()

    def propose_batch(self, nodes: np.ndarray) -> BatchProposals:
        """Collect every node's proposal for one synchronous round.

        The base implementation calls :meth:`propose` per node, in order, so
        a customised ``propose`` keeps its exact per-node draws.  The
        concrete processes override this with vectorized kernels and fall
        back here whenever ``propose`` has been customised.
        """
        us: List[int] = []
        vs: List[int] = []
        pos: List[int] = []
        for k, node in enumerate(nodes.tolist()):
            edge = self.propose(node)
            if edge is not None:
                us.append(edge[0])
                vs.append(edge[1])
                pos.append(k)
        return BatchProposals(
            nodes.shape[0],
            np.asarray(us, dtype=np.int64),
            np.asarray(vs, dtype=np.int64),
            np.asarray(pos, dtype=np.int64),
        )

    def apply_proposals(self, batch: BatchProposals) -> List[Edge]:
        """Insert a synchronous round's proposals; return the new edges in order.

        The batched insert matches sequential first-occurrence application
        exactly.  Per-edge state is updated later, by :meth:`_finish_round`.
        """
        return self.graph.add_edges_batch_arrays(batch.us, batch.vs)

    def apply_edge(self, edge: Edge) -> bool:
        """Insert one edge outside a round; returns True when new.

        The new edge goes through :meth:`_note_added_edges`, so per-edge
        state (degree counters, a closure deficit) stays current.
        """
        added = self.graph.add_edge(*edge)
        if added:
            self._note_added_edges([edge])
        return added

    # ------------------------------------------------------------------ #
    # incrementally-maintained convergence counters
    # ------------------------------------------------------------------ #
    def degree_view(self) -> np.ndarray:
        """The (out-)degree vector as a read-only cached array.

        Built lazily from the graph on first use, then patched in
        O(#added edges) per round by :meth:`_note_added_edges` instead of
        recomputed/copied O(n) every convergence check.  Self-healing: if
        the graph was mutated outside the round engine (direct
        ``graph.add_edge`` calls), the cached edge count disagrees and the
        vector is rebuilt from the graph.  Callers must not mutate the
        returned array.
        """
        m = self.graph.number_of_edges()
        if self._deg_cache is None or self._deg_cache_edges != m:
            graph = self.graph
            self._deg_cache = graph.out_degrees() if graph.directed else graph.degrees()
            self._deg_cache_edges = m
            self._min_deg_dirty = True
        return self._deg_cache

    def cached_min_degree(self) -> int:
        """Minimum (out-)degree via the incremental cache.

        The vector minimum is recomputed only when some node at the current
        minimum gained an edge since the last query (degrees never decrease
        under the append-only contract), so convergence predicates that
        poll every round usually pay O(1).
        """
        deg = self.degree_view()
        if self._min_deg_dirty:
            self._min_deg = int(deg.min()) if deg.size else 0
            self._min_deg_dirty = False
        return self._min_deg

    def _note_added_edges(self, added: List[Edge]) -> None:
        """Fold genuinely-new edges into per-edge state; here, the degree counters.

        Every insertion path ends here: :meth:`_finish_round` (both round
        lanes and the sharded merge) and :meth:`apply_edge`.  Subclasses
        with more per-edge state extend this and call ``super()``.
        """
        if self._deg_cache is None:
            return
        if not added:
            return
        arr = np.asarray(added, dtype=np.int64).reshape(-1, 2)
        ends = arr[:, 0] if self.graph.directed else arr.ravel()
        deg = self._deg_cache
        if not self._min_deg_dirty and bool((deg[ends] == self._min_deg).any()):
            self._min_deg_dirty = True
        np.add.at(deg, ends, 1)
        self._deg_cache_edges += len(added)

    def _propose_is(self, owner: type) -> bool:
        """True when ``self.propose`` is exactly ``owner.propose`` (not customised).

        Vectorized ``propose_batch`` kernels are only valid when the scalar
        rule they mirror is the one in effect; both subclass overrides and
        instance-level patches (e.g. the churn wrapper) force the fallback.
        """
        return "propose" not in self.__dict__ and type(self).propose is owner.propose

    # ------------------------------------------------------------------ #
    # the round skeleton
    # ------------------------------------------------------------------ #
    def step(self) -> RoundResult:
        """Execute one round under the configured update semantics and return its result."""
        result = RoundResult(round_index=self.round_index)
        active = _node_array(self.participating_nodes())
        if self.semantics is UpdateSemantics.SYNCHRONOUS:
            self._synchronous_round(result, active)
        else:
            self._sequential_round(result, active)
        return self._finish_round(result)

    def _synchronous_round(self, result: RoundResult, active: np.ndarray) -> None:
        """Sample every participant's proposal against ``G_t``, then insert them together."""
        batch = self.propose_batch(active)
        result.attach_batch(batch)
        result.messages_sent = self.MESSAGES_PER_NODE * batch.count
        result.bits_sent = result.messages_sent * self._id_bits
        result.added_edges = self.apply_proposals(batch)

    def _sequential_round(self, result: RoundResult, active: np.ndarray) -> None:
        """Ablation: participants act in order, each seeing the edges added before it."""
        graph = self.graph
        for node in active.tolist():
            edge = self.propose(node)
            if edge is None:
                continue
            result.proposed_edges.append(edge)
            if graph.add_edge(*edge):
                result.added_edges.append(edge)
        result.messages_sent = self.MESSAGES_PER_NODE * active.shape[0]
        result.bits_sent = result.messages_sent * self._id_bits

    def _finish_round(self, result: RoundResult) -> RoundResult:
        """Fold the round's new edges into per-edge state and advance the counters."""
        self._note_added_edges(result.added_edges)
        self.round_index += 1
        self.total_edges_added += result.num_added
        self.total_messages += result.messages_sent
        self.total_bits += result.bits_sent
        return result

    def run(
        self,
        max_rounds: int,
        until: Optional[Callable[["DiscoveryProcess"], bool]] = None,
        record_history: bool = False,
        callbacks: Sequence[Callable[["DiscoveryProcess", RoundResult], None]] = (),
    ) -> RunResult:
        """Run rounds until convergence, a custom predicate, or ``max_rounds``.

        Parameters
        ----------
        max_rounds:
            Hard cap on the number of rounds executed by this call.
        until:
            Optional extra stopping predicate evaluated after every round
            (in addition to :meth:`is_converged`).
        record_history:
            When True, keep every :class:`RoundResult` in the returned
            :class:`RunResult` (memory grows linearly with rounds).
        callbacks:
            Callables invoked after every round with ``(process, result)``
            — used by the metrics recorder and the trace collector.
        """
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        history: Optional[List[RoundResult]] = [] if record_history else None
        converged = self.is_converged() or (until is not None and until(self))
        rounds_run = 0
        while not converged and rounds_run < max_rounds:
            result = self.step()
            rounds_run += 1
            if history is not None:
                history.append(result)
            for callback in callbacks:
                callback(self, result)
            converged = self.is_converged() or (until is not None and until(self))
        return RunResult(
            rounds=rounds_run,
            converged=converged,
            total_edges_added=self.total_edges_added,
            total_messages=self.total_messages,
            total_bits=self.total_bits,
            history=history,
        )

    def run_to_convergence(
        self,
        max_rounds: Optional[int] = None,
        record_history: bool = False,
        callbacks: Sequence[Callable[["DiscoveryProcess", RoundResult], None]] = (),
    ) -> RunResult:
        """Run until :meth:`is_converged` holds, with a safety cap.

        The default cap is a generous multiple of the paper's upper bounds
        (``40 · n · (log₂ n + 1)²`` for undirected processes) so a stuck run
        cannot loop forever; hitting the cap returns ``converged=False``.
        """
        if max_rounds is None:
            max_rounds = self.default_round_cap()
        return self.run(max_rounds, record_history=record_history, callbacks=callbacks)

    def default_round_cap(self) -> int:
        """A generous safety cap derived from the paper's upper bound for the process."""
        n = max(self.graph.n, 2)
        log_n = float(np.log2(n)) + 1.0
        return int(40 * n * log_n * log_n) + 100

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.graph.n}, round={self.round_index}, "
            f"edges={self.graph.number_of_edges()})"
        )
