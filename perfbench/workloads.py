"""The benchmark's workloads: seeded inputs, one trial, and the correctness gate.

A *trial* builds the starting graph from generated edges, constructs the
process (or the async simulator), runs it to convergence and checks the
result.  Everything the program receives is generated here from the
``(seed, trial index)`` pair; the program is driven only through
``make_process``, ``run_to_convergence``, ``periodic_checkpointer`` and
``AsyncNetworkSimulator`` (plus the checkpoint loader for the resume
check), never with a backend or workload name.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import ArrayGraph, DynamicGraph, NameDropper, NeighborhoodFlooding
from repro import PullDiscovery, PushDiscovery, make_process
from repro.core.base import BatchProposals, DiscoveryProcess
from repro.graphs import bitset
from repro.network.async_simulator import AsyncNetworkSimulator
from repro.network.events import UniformLatency
from repro.network.failures import DropUniform
from repro.network.protocols import PushProtocol
from repro.simulation import checkpoint
from repro.simulation.sharding import ShardedProcess

from host import children_hwm_mib, hwm_mib
from spans import Tracer

clock = time.perf_counter
MIB = float(1 << 20)

#: processes whose rounds send exactly MESSAGES_PER_NODE messages per node
GOSSIP = frozenset({"push", "pull"})
#: shard kinds that publish the packed membership rows to the pool
ROWBLOCK_KINDS = frozenset({"flooding", "name_dropper", "pointer_jump"})


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
def cycle_edges(n: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """A cycle through all ``n`` nodes in a seed-drawn order."""
    order = rng.permutation(n)
    return order, np.roll(order, -1)


def sparse_connected_edges(n: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """A random spanning tree plus ``n // 2`` random chords.

    The tree is a random recursive tree over a seed-drawn node order (each
    node attaches to a uniform earlier one), so degrees are skewed; chords
    that repeat an edge or close a self loop are dropped by the graph.
    """
    order = rng.permutation(n)
    earlier = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    chords = rng.integers(0, n, size=(2, n // 2))
    return (
        np.concatenate([order[1:], chords[0]]),
        np.concatenate([order[earlier], chords[1]]),
    )


# --------------------------------------------------------------------------- #
# workload table
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Phase:
    """One process run to convergence on a fresh graph."""

    process: str
    shards: int = 1
    checkpoint_every: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    #: distinct seeded trials per run; their mean is the reported figure
    trials: int
    edges: Callable[[int, np.random.Generator], Tuple[np.ndarray, np.ndarray]]
    phases: Tuple[Phase, ...] = ()
    #: run the async simulator instead of in-process phases
    is_async: bool = False
    #: trials executed at least (a repeat must reproduce the first run)
    min_runs: int = 1
    #: the calibration loop whose bottleneck matches the workload's
    reference: str = "interp"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("push-cycle", 768, 8, cycle_edges, (Phase("push"),)),
        Workload(
            "pull-sparse-ckpt",
            512,
            16,
            sparse_connected_edges,
            (Phase("pull", checkpoint_every=512),),
        ),
        Workload(
            "payload-sharded",
            2048,
            1,
            cycle_edges,
            (Phase("flooding", shards=2), Phase("name_dropper", shards=2)),
            min_runs=2,
            reference="memory",
        ),
        Workload("async-push", 64, 24, cycle_edges, is_async=True),
    )
}


def round_cap(n: int) -> int:
    """The engine's default cap, ``40 n (log2 n + 1)^2 + 100``, for the async run."""
    log_n = float(np.log2(max(n, 2))) + 1.0
    return int(40 * max(n, 2) * log_n * log_n) + 100


# --------------------------------------------------------------------------- #
# trial result and the correctness gate
# --------------------------------------------------------------------------- #
@dataclass
class TrialResult:
    index: int
    setup_s: float = 0.0
    converge_s: float = 0.0
    rounds: int = 0
    #: everything that must repeat exactly for the same seed
    identity: tuple = ()
    failures: List[str] = field(default_factory=list)
    #: per-layer figures measured or computed outside the spans
    info: Dict[str, float] = field(default_factory=dict)
    rss_mib: float = 0.0


def check_run(name: str, process, graph, result, initial_edges: int) -> List[str]:
    """The gate every in-process run passes; an empty list means correct."""
    n = graph.n
    full = n * (n - 1) // 2
    failures = []
    if not (result.converged and process.is_converged()):
        failures.append(f"{name}: not converged after {result.rounds} rounds")
    if graph.number_of_edges() != full:
        failures.append(f"{name}: {graph.number_of_edges()} edges, expected {full}")
    if process.total_edges_added != full - initial_edges:
        failures.append(
            f"{name}: {process.total_edges_added} edges added, expected {full - initial_edges}"
        )
    if result.rounds > process.default_round_cap():
        failures.append(f"{name}: {result.rounds} rounds exceeds the cap")
    if name in GOSSIP:
        per_node = type(getattr(process, "process", process)).MESSAGES_PER_NODE
        expected = per_node * n * result.rounds
        if process.total_messages != expected:
            failures.append(f"{name}: {process.total_messages} messages, expected {expected}")
    return failures


def graph_digest(graph) -> str:
    """Digest of the neighbour rows in insertion order (the edge application order)."""
    nbr, deg = graph.neighbor_rows()
    digest = hashlib.blake2b(np.ascontiguousarray(deg).tobytes(), digest_size=16)
    digest.update(np.ascontiguousarray(nbr[:, : int(deg.max(initial=0))]).tobytes())
    return digest.hexdigest()


def _counters(process) -> tuple:
    return (
        process.round_index,
        process.total_edges_added,
        process.total_messages,
        process.total_bits,
        graph_digest(process.graph),
    )


# --------------------------------------------------------------------------- #
# tracing hooks
# --------------------------------------------------------------------------- #
def _count_proposals(t: Tracer, args, result) -> None:
    if isinstance(result, BatchProposals):
        t.count("core.proposals", result.us.shape[0])


def _count_added(t: Tracer, args, result) -> None:
    t.count("core.added", len(result))


def _count_samples(t: Tracer, args, result) -> None:
    t.count("graphs.samples", result.shape[0])


def _insert_probe(start_capacity: int):
    last = [start_capacity]

    def probe(t: Tracer, args, result) -> None:
        t.count("graphs.offered", args[1].shape[0])
        t.count("graphs.added", len(result))
        capacity = args[0].capacity
        if capacity != last[0]:
            t.count("graphs.capacity_growths")
            last[0] = capacity

    return probe


def _shard_round_probe(t: Tracer, args) -> None:
    """Computed per-round work of a sharded round, from its round-start state."""
    sharded = args[0]
    graph = sharded.graph
    nbr, deg = graph.neighbor_rows()
    bits = graph.adjacency_bits()
    shm = nbr.nbytes + deg.nbytes
    if sharded.kind in ROWBLOCK_KINDS:
        shm += bits.nbytes
    if sharded.kind == "flooding":
        rows = int(deg.sum())  # every receiver ORs each neighbour's row
    elif sharded.kind == "name_dropper":
        rows = int(np.count_nonzero(deg))  # every sender's row reaches one target
    else:
        rows = 0
    t.count("sharding.rounds")
    t.count("sharding.shm_bytes", shm)
    t.count("graphs.or_words", rows * bits.shape[1])


def install_spans(tracer: Tracer, graph) -> None:
    """Wrap the public calls into each layer (class level; see :mod:`spans`)."""
    for cls in (PushDiscovery, PullDiscovery):
        tracer.wrap(cls, "propose_batch", "core.propose", _count_proposals)
    for cls in (PushDiscovery, PullDiscovery, NeighborhoodFlooding, NameDropper):
        tracer.wrap(cls, "is_converged", "core.check")
    tracer.wrap(DiscoveryProcess, "step", "core.step")
    tracer.wrap(DiscoveryProcess, "apply_proposals", "core.apply", _count_added)
    tracer.wrap(ArrayGraph, "random_neighbors", "graphs.sample", _count_samples)
    if isinstance(graph, ArrayGraph):
        tracer.wrap(
            ArrayGraph, "add_edges_batch_arrays", "graphs.insert", _insert_probe(graph.capacity)
        )
    tracer.wrap(bitset.DeltaRows, "or_into_range", "graphs.delta_or")
    tracer.wrap(bitset.DeltaRows, "new_edges", "graphs.delta_extract")
    tracer.wrap(ShardedProcess, "step", "sharding.step", pre=_shard_round_probe)
    # periodic_checkpointer's callback looks save_checkpoint up at call time.
    tracer.wrap(checkpoint, "save_checkpoint", "checkpoint.save")
    tracer.wrap(AsyncNetworkSimulator, "run_ticks", "network.loop")
    tracer.wrap(AsyncNetworkSimulator, "is_converged", "network.check")
    tracer.wrap(AsyncNetworkSimulator, "send", "network.send")
    tracer.wrap(PushProtocol, "initiate_batch", "network.protocol")
    tracer.wrap(PushProtocol, "on_deliver", "network.protocol")


# --------------------------------------------------------------------------- #
# one trial
# --------------------------------------------------------------------------- #
def _build(cls, n: int, us: np.ndarray, vs: np.ndarray):
    graph = cls(n)
    graph.add_edges_batch_arrays(us, vs)
    return graph


def _resume_check(ckdir: Path, process, info: Dict[str, float]) -> List[str]:
    """Restore the last snapshot, run it out, and compare the final counters."""
    info["checkpoint.snapshots"] += len(list(ckdir.glob("round_*.json")))
    info["checkpoint.bytes"] += sum(p.stat().st_size for p in ckdir.iterdir())
    start = clock()
    restored = checkpoint.restore_process(
        checkpoint.load_checkpoint(checkpoint.latest_checkpoint(ckdir))
    )
    info["checkpoint.restore_s"] += clock() - start
    try:
        restored.run_to_convergence()
        if _counters(restored) != _counters(process):
            return ["resume from the last snapshot ended with different counters"]
        return []
    finally:
        close = getattr(restored, "close", None)
        if close is not None:
            close()


def _run_phase(
    phase: Phase,
    n: int,
    edges: Tuple[np.ndarray, np.ndarray],
    rng: np.random.Generator,
    out: TrialResult,
    scratch: Path,
    tracer: Optional[Tracer],
) -> None:
    start = clock()
    graph = _build(ArrayGraph, n, *edges)
    process = make_process(phase.process, graph, rng=rng, shards=phase.shards)
    out.setup_s += clock() - start
    initial_edges = graph.number_of_edges()
    ckdir = None
    callbacks = ()
    if phase.checkpoint_every:
        ckdir = Path(tempfile.mkdtemp(prefix="ckpt-", dir=scratch))
        saver = checkpoint.periodic_checkpointer(ckdir, phase.checkpoint_every)
        if tracer is not None:
            saver = tracer.wrap_callable(saver, "checkpoint.callback")
        callbacks = (saver,)
    try:
        if tracer is not None:
            install_spans(tracer, graph)
            tracer.run_id += 1
            start = clock()
            try:
                with tracer.span("core.run"):
                    result = process.run_to_convergence(callbacks=callbacks)
            finally:
                tracer.restore()
        else:
            start = clock()
            result = process.run_to_convergence(callbacks=callbacks)
        out.converge_s += clock() - start
        if phase.shards > 1:
            workers = children_hwm_mib()
            out.info["sharding.worker_rss_mib"] = max(
                out.info.get("sharding.worker_rss_mib", 0.0), workers
            )
            out.info["sharding.pool_failures"] += process.pool_failures
            out.rss_mib = max(out.rss_mib, hwm_mib() + workers)
        out.rounds += result.rounds
        out.failures += check_run(phase.process, process, graph, result, initial_edges)
        out.identity += (phase.process,) + _counters(process)
        nbr, _deg = graph.neighbor_rows()
        out.info["graphs.nbr_mib"] = max(out.info["graphs.nbr_mib"], nbr.nbytes / MIB)
        out.info["graphs.bits_mib"] = max(
            out.info["graphs.bits_mib"], graph.membership_nbytes() / MIB
        )
        if ckdir is not None:
            out.failures += _resume_check(ckdir, process, out.info)
    finally:
        close = getattr(process, "close", None)
        if close is not None:
            close()
        if ckdir is not None:
            shutil.rmtree(ckdir, ignore_errors=True)


def _run_async(
    n: int,
    edges: Tuple[np.ndarray, np.ndarray],
    rng: np.random.Generator,
    out: TrialResult,
    tracer: Optional[Tracer],
) -> None:
    start = clock()
    graph = _build(DynamicGraph, n, *edges)
    sim = AsyncNetworkSimulator(
        graph,
        "push",
        rng=rng,
        failures=DropUniform(0.1),
        latency=UniformLatency(0.05, 0.3),
    )
    out.setup_s += clock() - start
    cap = round_cap(n)
    if tracer is not None:
        install_spans(tracer, graph)
        tracer.run_id += 1
        start = clock()
        try:
            with tracer.span("network.run"):
                stats = sim.run_to_convergence(cap)
        finally:
            tracer.restore()
    else:
        start = clock()
        stats = sim.run_to_convergence(cap)
    elapsed = clock() - start
    out.converge_s += elapsed
    out.rounds += stats.ticks
    full = n * (n - 1) // 2
    if not sim.is_converged():
        out.failures.append(f"async: not converged after {stats.ticks} ticks")
    if stats.ticks > cap:
        out.failures.append(f"async: {stats.ticks} ticks exceeds the cap {cap}")
    if sim.knowledge_graph.number_of_edges() != full:
        out.failures.append(
            f"async: knowledge graph has {sim.knowledge_graph.number_of_edges()} edges, expected {full}"
        )
    accounted = (
        stats.messages_delivered
        + stats.messages_dropped
        + stats.messages_lost_dead
        + stats.messages_lost_partition
    )
    if accounted != stats.messages_sent:
        out.failures.append(
            f"async: delivered + dropped = {accounted} != {stats.messages_sent} sent"
        )
    contacts = hashlib.blake2b(digest_size=16)
    for node in sim.nodes:
        contacts.update(np.asarray(node.contacts, dtype=np.int64).tobytes())
    out.identity += (
        stats.ticks,
        stats.messages_sent,
        stats.messages_delivered,
        stats.messages_dropped,
        stats.discoveries,
        stats.bits_sent,
        contacts.hexdigest(),
    )
    out.info["network.sent"] = stats.messages_sent
    out.info["network.delivered"] = stats.messages_delivered
    # Every tick and every scheduled delivery is one processed event.
    out.info["network.events"] = stats.ticks + stats.messages_sent - stats.messages_dropped
    out.rss_mib = max(out.rss_mib, hwm_mib())


def run_trial(
    workload: Workload, seed: int, index: int, scratch: Path, tracer: Optional[Tracer] = None
) -> TrialResult:
    """Trial ``index`` of ``workload`` for ``seed``: same arguments, same trajectory."""
    streams = np.random.SeedSequence([seed, index]).spawn(1 + max(1, len(workload.phases)))
    edges = workload.edges(workload.n, np.random.default_rng(streams[0]))
    out = TrialResult(index=index)
    out.info.update(
        {
            "graphs.nbr_mib": 0.0,
            "graphs.bits_mib": 0.0,
            "sharding.pool_failures": 0,
            "checkpoint.snapshots": 0,
            "checkpoint.bytes": 0,
            "checkpoint.restore_s": 0.0,
        }
    )
    if workload.is_async:
        _run_async(workload.n, edges, np.random.default_rng(streams[1]), out, tracer)
    else:
        for phase, stream in zip(workload.phases, streams[1:]):
            _run_phase(
                phase, workload.n, edges, np.random.default_rng(stream), out, scratch, tracer
            )
    out.rss_mib = max(out.rss_mib, hwm_mib())
    return out
