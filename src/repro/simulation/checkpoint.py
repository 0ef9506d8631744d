"""Exact trial checkpoint/resume: snapshot a running process, restart it later.

Long experiments must survive worker death and process restarts (the
ROADMAP's simulation-as-a-service prerequisite), so this module serialises
the *complete* dynamic state of a trial — graph, process counters, and the
RNG — and restores it so that a resumed run is **draw-for-draw identical**
to the uninterrupted one: same contact graphs round by round, same final
bit-generator state.  The property is pinned by ``tests/test_checkpoint.py``
for every registered process, and for the row-OR processes sharded too.

Checkpoint file format (version 1)
----------------------------------
A checkpoint is two files sharing one stem, written atomically (temp file
in the target directory + ``os.replace``) and in order:

``<stem>.npz``
    The array payload (NumPy ``savez``): the padded (out-)neighbour rows
    trimmed to the occupied width, the degree vector, and per-process
    extras (the directed walk's packed target-closure rows and live
    :class:`~repro.graphs.closure.IncrementalClosure` rows, directed
    pointer jump's missing-closure pair list).  Packed membership bitsets
    and in-degrees are *derived* state — they are rebuilt exactly from the
    rows on restore and never stored.
``<stem>.json``
    The envelope, written **after** the payload so it is the commit point:
    ``format`` and ``version`` fields, a ``checksum`` block holding the
    SHA-256 of the ``.npz`` bytes, the ``meta`` block (process registry
    name, graph-substrate tag, semantics, round/message/bit counters, the
    directed deficit counter, shard configuration), and the full
    ``rng_state`` — the process generator's ``bit_generator.state`` dict.

Compatibility policy: the loader accepts exactly
:data:`CHECKPOINT_VERSION`.  Any format evolution bumps the version and
must ship an explicit migration; a mismatched version, a wrong checksum,
or a truncated envelope all raise :class:`CheckpointError` rather than
resuming from silently corrupt state.  The graph-substrate tag is written
as ``"array"`` and ignored on read: every checkpoint restores onto an
:class:`~repro.graphs.array_adjacency.ArrayGraph` (or ``ArrayDiGraph``),
including version-1 files captured from the list-based reference graphs,
whose rows carry the same insertion order.

What is checkpointable
----------------------
Every process constructible through the registry
(:data:`repro.simulation.engine.PROCESS_REGISTRY`) on an array graph,
plain or wrapped in :class:`~repro.simulation.sharding.ShardedProcess`.
Instance-patched processes (a :class:`~repro.core.variants.ChurnModel`
overlay's guarded ``propose``) and unregistered subclasses raise
:class:`CheckpointError`: their extra state lives outside the format.
A checkpoint whose meta asks for ``shards > 1`` on a process that is no
longer shardable (push, pull or the directed walk, written by an older
version) fails :func:`restore_process` with the ``ValueError`` of
:func:`~repro.simulation.engine.check_shards`, before any round runs.
"""

from __future__ import annotations

import hashlib
import io as _io
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.base import DiscoveryProcess, RunResult, UpdateSemantics
from repro.core.directed import DirectedTwoHopWalk
from repro.core.push import PushDiscovery
from repro.baselines.pointer_jump import RandomPointerJump
from repro.graphs import bitset
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph, _round_up_pow2
from repro.simulation.engine import PROCESS_REGISTRY, make_process
from repro.simulation.io import atomic_write_bytes
from repro.simulation.sharding import ShardedProcess

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "TrialCheckpoint",
    "save_checkpoint",
    "write_checkpoint",
    "load_checkpoint",
    "restore_process",
    "resume_from_checkpoint",
    "periodic_checkpointer",
    "latest_checkpoint",
]

PathLike = Union[str, Path]

CHECKPOINT_FORMAT = "repro-gossip-trial-checkpoint"
CHECKPOINT_VERSION = 1

_ROUND_STEM = re.compile(r"^round_(\d+)$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be captured, written, verified, or restored."""


@dataclass
class TrialCheckpoint:
    """In-memory form of one checkpoint: envelope metadata plus array payload.

    ``meta`` mirrors the JSON envelope's ``meta`` block; ``arrays`` holds
    the ``.npz`` payload; ``rng_state`` is the generator's
    ``bit_generator.state`` dict (restored verbatim, which is what makes
    resumed draws identical).
    """

    meta: Dict[str, object]
    arrays: Dict[str, np.ndarray]
    rng_state: Dict[str, object]
    version: int = CHECKPOINT_VERSION

    @property
    def process_name(self) -> str:
        """Registry name of the checkpointed process."""
        return str(self.meta["process"])

    @property
    def round_index(self) -> int:
        """Round the checkpoint was taken at (rounds completed so far)."""
        return int(self.meta["round_index"])


# --------------------------------------------------------------------------- #
# capture
# --------------------------------------------------------------------------- #
def _registry_name(process: DiscoveryProcess) -> str:
    """Reverse registry lookup by exact type (subclasses are distinct entries)."""
    directed = bool(getattr(process.graph, "directed", False))
    for name, (ctor, needs_directed) in PROCESS_REGISTRY.items():
        if ctor is type(process) and needs_directed == directed:
            return name
    raise CheckpointError(
        f"{type(process).__name__} is not a registered process; only registry "
        f"processes are checkpointable (known: {sorted(PROCESS_REGISTRY)})"
    )


def _graph_payload(graph) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Neighbour rows + degrees: the complete graph state.

    Rows are stored trimmed to the occupied width; everything else (packed
    membership bits, in-degrees, the capacity padding) is derived on
    restore.  Insertion order inside each row is preserved, which is the
    property the draw-stream contract rests on.
    """
    if not isinstance(graph, (ArrayGraph, ArrayDiGraph)):
        raise CheckpointError(
            f"only processes on an ArrayGraph or ArrayDiGraph are checkpointable, "
            f"not on the {type(graph).__name__} reference oracle"
        )
    directed = graph.directed
    rows, deg = graph.out_neighbor_rows() if directed else graph.neighbor_rows()
    width = int(deg.max()) if deg.size else 0
    meta = {
        "n": graph.n,
        "directed": directed,
        "num_edges": graph.number_of_edges(),
        "capacity": graph.capacity,
    }
    arrays = {
        "nbr": np.ascontiguousarray(rows[:, : max(width, 1)], dtype=np.int64),
        "deg": np.ascontiguousarray(deg, dtype=np.int64),
    }
    return meta, arrays


def capture_checkpoint(process: DiscoveryProcess) -> TrialCheckpoint:
    """Snapshot ``process`` (plain or :class:`ShardedProcess`) into memory."""
    sharded_meta: Dict[str, object] = {"shards": 1}
    if isinstance(process, ShardedProcess):
        sharded_meta = {
            "shards": process.shards,
            "shard_entropy": int(process._entropy),
            "shard_parallel": bool(process._parallel),
        }
        process = process.process
    if "propose" in process.__dict__ or "participating_nodes" in process.__dict__:
        raise CheckpointError(
            "process has instance-patched hooks (e.g. a ChurnModel overlay); "
            "its extra state lies outside the checkpoint format"
        )
    name = _registry_name(process)
    graph_meta, arrays = _graph_payload(process.graph)

    # Constructor kwargs, keyed by exact type: the faulty variants subclass
    # push/pull but do not accept ``without_replacement``.
    kwargs: Dict[str, object] = {}
    if type(process) is PushDiscovery:
        kwargs["without_replacement"] = bool(process.without_replacement)
    if hasattr(process, "failure_prob"):
        kwargs["failure_prob"] = float(process.failure_prob)
        kwargs["participation_prob"] = float(process.participation_prob)

    meta: Dict[str, object] = {
        "process": name,
        "backend": "array",  # version-1 key, ignored on restore
        "semantics": process.semantics.value,
        "round_index": process.round_index,
        "total_edges_added": process.total_edges_added,
        "total_messages": process.total_messages,
        "total_bits": process.total_bits,
        "process_kwargs": kwargs,
        **graph_meta,
        **sharded_meta,
    }
    if isinstance(process, DirectedTwoHopWalk):
        meta["deficit"] = int(process._deficit)
        arrays["target_bits"] = process._target_bits
        arrays["closure_reach"] = process._closure.reach
    if isinstance(process, RandomPointerJump) and process._missing is not None:
        meta["has_missing"] = True
        missing = np.asarray(sorted(process._missing), dtype=np.int64).reshape(-1, 2)
        arrays["missing"] = missing
    return TrialCheckpoint(
        meta=meta,
        arrays=arrays,
        rng_state=process.rng.bit_generator.state,
    )


# --------------------------------------------------------------------------- #
# serialisation
# --------------------------------------------------------------------------- #
def _stem(path: PathLike) -> Path:
    """Normalise a checkpoint path (stem, ``.json`` or ``.npz``) to its stem."""
    p = Path(path)
    if p.suffix in (".json", ".npz"):
        return p.with_suffix("")
    return p


def save_checkpoint(process: DiscoveryProcess, path: PathLike) -> Path:
    """Checkpoint ``process`` under ``path`` (stem); returns the envelope path."""
    return write_checkpoint(capture_checkpoint(process), path)


def write_checkpoint(checkpoint: TrialCheckpoint, path: PathLike) -> Path:
    """Write a captured checkpoint under ``path`` (stem); returns the envelope path.

    Writes ``<stem>.npz`` first, then the ``<stem>.json`` envelope carrying
    the payload's SHA-256 — the envelope is the commit point, so a crash
    mid-write never leaves a checkpoint that both exists and fails to load.
    """
    stem = _stem(path)
    buffer = _io.BytesIO()
    np.savez(buffer, **checkpoint.arrays)
    payload = buffer.getvalue()
    atomic_write_bytes(stem.with_suffix(".npz"), payload)
    envelope = {
        "format": CHECKPOINT_FORMAT,
        "version": checkpoint.version,
        "checksum": {"algorithm": "sha256", "npz": hashlib.sha256(payload).hexdigest()},
        "meta": checkpoint.meta,
        "rng_state": checkpoint.rng_state,
    }
    target = stem.with_suffix(".json")
    atomic_write_bytes(target, (json.dumps(envelope, indent=2, sort_keys=True) + "\n").encode())
    return target


def load_checkpoint(path: PathLike) -> TrialCheckpoint:
    """Load and verify a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` on a missing file, invalid/truncated
    JSON, an unknown format or version, or a payload checksum mismatch.
    """
    stem = _stem(path)
    envelope_path = stem.with_suffix(".json")
    npz_path = stem.with_suffix(".npz")
    try:
        raw = envelope_path.read_text()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint envelope {envelope_path}: {exc}") from exc
    try:
        envelope = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint envelope {envelope_path} is not valid JSON "
            f"(truncated or corrupt write?): {exc}"
        ) from exc
    if not isinstance(envelope, dict) or envelope.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{envelope_path} is not a {CHECKPOINT_FORMAT} envelope")
    version = envelope.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION} only)"
        )
    try:
        payload = npz_path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint payload {npz_path}: {exc}") from exc
    checksum = envelope.get("checksum", {})
    expected = checksum.get("npz")
    digest = hashlib.sha256(payload).hexdigest()
    if expected != digest:
        raise CheckpointError(
            f"checkpoint payload {npz_path} fails its checksum "
            f"(expected sha256 {expected}, got {digest}); refusing to resume"
        )
    with np.load(_io.BytesIO(payload)) as npz:
        arrays = {key: npz[key] for key in npz.files}
    return TrialCheckpoint(
        meta=envelope["meta"],
        arrays=arrays,
        rng_state=envelope["rng_state"],
        version=int(version),
    )


# --------------------------------------------------------------------------- #
# restore
# --------------------------------------------------------------------------- #
def _restore_rng(state: Dict[str, object]) -> np.random.Generator:
    """Rebuild a generator whose bit generator is in exactly ``state``."""
    name = state.get("bit_generator")
    ctor = getattr(np.random, str(name), None)
    if ctor is None:
        raise CheckpointError(f"unknown bit generator {name!r} in checkpoint RNG state")
    bit_generator = ctor()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _restore_array_graph(meta: Dict[str, object], rows: np.ndarray, deg: np.ndarray):
    """Rebuild an array graph from trimmed rows (bits/in-degrees derived)."""
    n = int(meta["n"])
    directed = bool(meta["directed"])
    cap = max(_round_up_pow2(rows.shape[1] if n else 1), int(meta.get("capacity") or 0))
    nbr = np.full((n, cap), -1, dtype=np.int64)
    nbr[:, : rows.shape[1]] = rows
    flat_owners = np.repeat(np.arange(n, dtype=np.int64), deg)
    flat_targets = rows[flat_owners, _slot_indices(deg)] if flat_owners.size else flat_owners
    if directed:
        graph = ArrayDiGraph(n)
        graph._cap = cap
        graph._out = nbr
        graph._out_deg = deg.copy()
        graph._in_deg = np.bincount(flat_targets, minlength=n).astype(np.int64)
        if flat_owners.size:
            bitset.set_bits(graph._bits, flat_owners, flat_targets)
        graph._num_edges = int(deg.sum())
    else:
        graph = ArrayGraph(n)
        graph._cap = cap
        graph._nbr = nbr
        graph._deg = deg.copy()
        if flat_owners.size:
            bitset.set_bits(graph._bits, flat_owners, flat_targets)
        graph._num_edges = int(deg.sum()) // 2
    if graph._num_edges != int(meta["num_edges"]):
        raise CheckpointError(
            f"checkpoint graph payload is inconsistent: rows encode "
            f"{graph._num_edges} edges, envelope says {meta['num_edges']}"
        )
    return graph


def _slot_indices(deg: np.ndarray) -> np.ndarray:
    """Column indices ``0..deg[u]-1`` per node, flattened in node order."""
    total = int(deg.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(np.cumsum(deg) - deg, deg)
    return np.arange(total, dtype=np.int64) - starts


def restore_process(checkpoint: TrialCheckpoint) -> DiscoveryProcess:
    """Rebuild the checkpointed process, ready to continue draw-for-draw."""
    meta = checkpoint.meta
    rows = np.asarray(checkpoint.arrays["nbr"], dtype=np.int64)
    deg = np.asarray(checkpoint.arrays["deg"], dtype=np.int64)
    graph = _restore_array_graph(meta, rows, deg)
    rng = _restore_rng(checkpoint.rng_state)
    shards = int(meta.get("shards", 1))
    process = make_process(
        checkpoint.process_name,
        graph,
        rng=rng,
        semantics=UpdateSemantics(meta["semantics"]),
        shards=shards,
        shard_seed=int(meta["shard_entropy"]) if shards > 1 else None,
        shard_parallel=bool(meta["shard_parallel"]) if shards > 1 else None,
        **dict(meta.get("process_kwargs") or {}),
    )
    inner = process.process if isinstance(process, ShardedProcess) else process
    inner.round_index = int(meta["round_index"])
    inner.total_edges_added = int(meta["total_edges_added"])
    inner.total_messages = int(meta["total_messages"])
    inner.total_bits = int(meta["total_bits"])
    # The constructors recompute the closure bookkeeping from the restored
    # graph (exact, because these processes only ever add closure-internal
    # edges); overwrite with the stored rows anyway so the restored state
    # is the checkpoint, not an invariant argument about it.
    if isinstance(inner, DirectedTwoHopWalk):
        inner._target_bits = np.asarray(checkpoint.arrays["target_bits"], dtype=np.uint64)
        inner._closure.reach = np.asarray(checkpoint.arrays["closure_reach"], dtype=np.uint64)
        inner._deficit = int(meta["deficit"])
    if isinstance(inner, RandomPointerJump) and meta.get("has_missing"):
        missing = np.asarray(checkpoint.arrays["missing"], dtype=np.int64).reshape(-1, 2)
        inner._missing = {(int(u), int(v)) for u, v in missing}
    return process


# --------------------------------------------------------------------------- #
# run-loop integration
# --------------------------------------------------------------------------- #
def periodic_checkpointer(checkpoint_dir: PathLike, every: int):
    """A run-loop callback that checkpoints every ``every`` completed rounds.

    Checkpoints are written as ``round_<index>`` stems under
    ``checkpoint_dir`` (index = rounds completed, zero-padded so
    lexicographic order is round order).
    """
    if every < 1:
        raise ValueError(f"checkpoint period must be >= 1, got {every}")
    directory = Path(checkpoint_dir)

    def callback(process: DiscoveryProcess, result) -> None:
        if process.round_index % every == 0:
            save_checkpoint(process, directory / f"round_{process.round_index:08d}")

    return callback


def latest_checkpoint(checkpoint_dir: PathLike) -> Path:
    """The highest-round ``round_*`` checkpoint stem under ``checkpoint_dir``."""
    directory = Path(checkpoint_dir)
    best: Optional[Tuple[int, Path]] = None
    for candidate in directory.glob("round_*.json"):
        match = _ROUND_STEM.match(candidate.stem)
        if match is None:
            continue
        key = (int(match.group(1)), candidate.with_suffix(""))
        if best is None or key[0] > best[0]:
            best = key
    if best is None:
        raise CheckpointError(f"no round_* checkpoints found under {directory}")
    return best[1]


def resume_from_checkpoint(
    path: PathLike,
    max_rounds: Optional[int] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[PathLike] = None,
    record_history: bool = False,
) -> RunResult:
    """Restore a checkpoint and run it to convergence.

    The returned :class:`RunResult` reports ``rounds`` as the process's
    total round count *since the start of the trial* (not just the rounds
    executed after the resume), so a resumed run's result equals the
    uninterrupted run's.  ``checkpoint_every``/``checkpoint_dir`` continue
    periodic checkpointing from where the interrupted run left off.
    """
    process = restore_process(load_checkpoint(path))
    callbacks = ()
    if checkpoint_every:
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        callbacks = (periodic_checkpointer(checkpoint_dir, checkpoint_every),)
    try:
        result = process.run_to_convergence(
            max_rounds=max_rounds, callbacks=callbacks, record_history=record_history
        )
        return replace(result, rounds=process.round_index)
    finally:
        close = getattr(process, "close", None)
        if close is not None:
            close()
