"""Process construction and single-run measurement helpers.

The experiment layer refers to processes by short string names
(``"push"``, ``"pull"``, ``"directed_pull"``, ``"name_dropper"``,
``"pointer_jump"``, ``"flooding"``) so that sweeps, benchmarks and the CLI
can be configured declaratively.  :func:`make_process` resolves a name to
a configured process instance; :func:`measure_convergence_rounds` is the
one-call entry point used by most experiments.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.flooding import NeighborhoodFlooding
from repro.baselines.name_dropper import NameDropper
from repro.baselines.pointer_jump import RandomPointerJump
from repro.core.base import DiscoveryProcess, RunResult, UpdateSemantics
from repro.core.directed import DirectedTwoHopWalk
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.core.variants import FaultyPullDiscovery, FaultyPushDiscovery
from repro.graphs.adjacency import DynamicDiGraph, DynamicGraph
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph

__all__ = [
    "PROCESS_REGISTRY",
    "make_process",
    "check_shards",
    "run_process",
    "measure_convergence_rounds",
    "process_names",
]

GraphLike = Union[DynamicGraph, DynamicDiGraph, ArrayGraph, ArrayDiGraph]

#: name -> (constructor, requires_directed_graph)
PROCESS_REGISTRY: Dict[str, Tuple[Callable[..., DiscoveryProcess], bool]] = {
    "push": (PushDiscovery, False),
    "pull": (PullDiscovery, False),
    "directed_pull": (DirectedTwoHopWalk, True),
    "name_dropper": (NameDropper, False),
    "pointer_jump": (RandomPointerJump, False),
    "pointer_jump_directed": (RandomPointerJump, True),
    "flooding": (NeighborhoodFlooding, False),
    "faulty_push": (FaultyPushDiscovery, False),
    "faulty_pull": (FaultyPullDiscovery, False),
}

def process_names() -> Sequence[str]:
    """All registered process names."""
    return sorted(PROCESS_REGISTRY)


def check_shards(name: str, shards: int) -> None:
    """Raise ``ValueError`` unless process ``name`` can run with ``shards`` row shards.

    ``shards=1`` suits every process.  More shards suit only the row-OR
    processes of :data:`repro.simulation.sharding.SHARDABLE_PROCESSES`;
    the message names the refused process and lists the shardable ones.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    if shards == 1:
        return
    # Imported here: sharding sits one layer above the engine registry.
    from repro.simulation.sharding import SHARDABLE_PROCESSES

    shardable = [n for n, (ctor, _) in PROCESS_REGISTRY.items() if ctor in SHARDABLE_PROCESSES]
    if name not in shardable:
        raise ValueError(
            f"process {name!r} cannot be sharded (shards={shards}); "
            f"shardable processes: {sorted(shardable)}"
        )


def make_process(
    name: str,
    graph: GraphLike,
    rng: Union[np.random.Generator, int, None] = None,
    semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    shards: int = 1,
    shard_seed: Union[int, np.random.SeedSequence, None] = None,
    shard_parallel: Optional[bool] = None,
    **kwargs,
) -> DiscoveryProcess:
    """Build a process by registry name over ``graph`` (used as passed).

    ``shards > 1`` wraps the process in
    :class:`repro.simulation.sharding.ShardedProcess`, which runs each
    round's row unions over contiguous row shards and OR-merges the packed
    deltas.  Only flooding, Name Dropper and pointer jump are shardable
    (see :func:`check_shards`).  ``shard_seed`` feeds the per-round shard
    streams (e.g. the trial's ``SeedSequence``); ``shard_parallel``
    selects the process-pool path (``None`` = auto by size).  ``shards=1``
    returns the plain process — draw-for-draw identical to not passing
    ``shards`` at all.

    Raises ``KeyError`` for unknown names, ``TypeError`` when the graph
    kind does not match the process (e.g. an undirected graph passed to
    ``"directed_pull"``) and ``ValueError``, before building anything,
    when the process cannot run with ``shards`` shards.
    """
    try:
        ctor, needs_directed = PROCESS_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown process {name!r}; known: {list(process_names())}") from None
    check_shards(name, shards)
    directed_graph = bool(getattr(graph, "directed", False))
    if needs_directed and not directed_graph:
        raise TypeError(f"process {name!r} requires a directed graph")
    if not needs_directed and directed_graph and name != "pointer_jump_directed":
        # pointer_jump accepts both kinds; all other undirected processes do not.
        if name != "pointer_jump":
            raise TypeError(f"process {name!r} requires an undirected graph")
    process = ctor(graph, rng=rng, semantics=semantics, **kwargs)
    if shards > 1:
        from repro.simulation.sharding import ShardedProcess

        return ShardedProcess(process, shards=shards, seed=shard_seed, parallel=shard_parallel)
    return process


def run_process(
    process: DiscoveryProcess,
    max_rounds: Optional[int] = None,
    callbacks: Sequence[Callable] = (),
    record_history: bool = False,
) -> RunResult:
    """Run ``process`` to convergence with a safety cap (thin wrapper)."""
    return process.run_to_convergence(
        max_rounds=max_rounds, callbacks=callbacks, record_history=record_history
    )


def measure_convergence_rounds(
    name: str,
    graph: GraphLike,
    rng: Union[np.random.Generator, int, None] = None,
    max_rounds: Optional[int] = None,
    semantics: UpdateSemantics = UpdateSemantics.SYNCHRONOUS,
    copy_graph: bool = True,
    shards: int = 1,
    shard_seed: Union[int, np.random.SeedSequence, None] = None,
    shard_parallel: Optional[bool] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Union[str, "os.PathLike", None] = None,
    **kwargs,
) -> RunResult:
    """Build the named process over (a copy of) ``graph`` and run it to convergence.

    This is the workhorse of every scaling experiment: one call, one
    :class:`RunResult` whose ``rounds`` field is the convergence time.
    ``shards > 1`` routes each round through the sharded engine (see
    :func:`make_process`).

    ``checkpoint_every=k`` with ``checkpoint_dir`` writes an exact
    checkpoint (``round_<index>`` stem) after every ``k``-th completed
    round; an interrupted run can then be continued draw-for-draw with
    :func:`repro.simulation.checkpoint.resume_from_checkpoint`.
    """
    work_graph = graph.copy() if copy_graph else graph
    process = make_process(
        name,
        work_graph,
        rng=rng,
        semantics=semantics,
        shards=shards,
        shard_seed=shard_seed,
        shard_parallel=shard_parallel,
        **kwargs,
    )
    callbacks = ()
    if checkpoint_every:
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        # Imported lazily: checkpoint sits one layer above the engine.
        from repro.simulation.checkpoint import periodic_checkpointer

        callbacks = (periodic_checkpointer(checkpoint_dir, checkpoint_every),)
    try:
        return process.run_to_convergence(max_rounds=max_rounds, callbacks=callbacks)
    finally:
        close = getattr(process, "close", None)
        if close is not None:
            close()
