"""Exact checkpoint/resume: the draw-for-draw equivalence contract.

The property pinned here is the crash-tolerance substrate's whole point:
a run checkpointed at any round and resumed — in this process or a fresh
one — reproduces the uninterrupted run exactly (same contact graphs, same
counters, same bit-generator end state), for every registered process,
sharded and not.  Version-1 files captured from processes on the
list-based reference graphs still restore (onto array graphs) and resume
to the same end state.  The format tests pin the failure modes: truncated
envelopes, checksum mismatches and foreign versions all refuse to resume
instead of continuing from corrupt state.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.graphs.array_adjacency import ArrayDiGraph, ArrayGraph
from repro.simulation import checkpoint
from repro.simulation.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    capture_checkpoint,
    latest_checkpoint,
    load_checkpoint,
    restore_process,
    resume_from_checkpoint,
    save_checkpoint,
    write_checkpoint,
)
from repro.simulation.engine import (
    PROCESS_REGISTRY,
    make_process,
    measure_convergence_rounds,
)
from repro.simulation.sharding import SHARDABLE_PROCESSES, ShardedProcess

ALL_NAMES = sorted(PROCESS_REGISTRY)
SHARDABLE_NAMES = sorted(
    name
    for name, (ctor, _) in PROCESS_REGISTRY.items()
    if ctor in SHARDABLE_PROCESSES
)
N = 12
SEED = 20120614
CHECKPOINT_AT = 4  # run this many rounds (capped by convergence) before snapshotting


def canon(edges):
    return sorted((int(u), int(v)) for u, v in edges)


def build(name: str, shards: int = 1, oracle: bool = False):
    """The seeded test process; ``oracle=True`` runs it on the list-based twin graph."""
    rng = np.random.default_rng(SEED)
    _, needs_directed = PROCESS_REGISTRY[name]
    if needs_directed:
        graph = dgen.make_directed_family("random_strong", N, rng)
    else:
        graph = gen.make_family("cycle", N, rng)
    return make_process(
        name,
        graph.to_dynamic() if oracle else graph,
        rng=rng,
        shards=shards,
        shard_seed=777 if shards > 1 else None,
        shard_parallel=False if shards > 1 else None,
    )


def assert_same_end_state(a, b) -> None:
    """The two processes agree on every piece of observable end state."""
    assert a.round_index == b.round_index
    assert a.total_edges_added == b.total_edges_added
    assert a.total_messages == b.total_messages
    assert a.total_bits == b.total_bits
    assert canon(a.graph.edges()) == canon(b.graph.edges())
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert a.is_converged() == b.is_converged()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_resume_equivalence_every_process(name, tmp_path):
    """checkpoint-at-k + resume == uninterrupted, for the whole registry."""
    uninterrupted = build(name)
    interrupted = build(name)
    interrupted.run(max_rounds=CHECKPOINT_AT)
    k = interrupted.round_index  # fast convergers stop before CHECKPOINT_AT
    path = save_checkpoint(interrupted, tmp_path / f"round_{k:08d}")
    resumed = restore_process(load_checkpoint(path))
    assert_same_end_state(interrupted, resumed)

    uninterrupted.run_to_convergence()
    resumed.run_to_convergence()
    assert_same_end_state(uninterrupted, resumed)


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("name", SHARDABLE_NAMES)
def test_resume_equivalence_sharded(name, shards, tmp_path):
    """The sharded wrapper checkpoints and resumes through the same format."""
    uninterrupted = build(name, shards=shards)
    interrupted = build(name, shards=shards)
    interrupted.run(max_rounds=CHECKPOINT_AT)
    k = interrupted.round_index
    path = save_checkpoint(interrupted, tmp_path / f"round_{k:08d}")
    resumed = restore_process(load_checkpoint(path))
    try:
        if shards > 1:
            assert isinstance(resumed, ShardedProcess)
            assert resumed.shards == interrupted.shards
        uninterrupted.run_to_convergence()
        resumed.run_to_convergence()
        assert_same_end_state(uninterrupted, resumed)
    finally:
        for process in (uninterrupted, interrupted, resumed):
            close = getattr(process, "close", None)
            if close is not None:
                close()


def _list_graph_payload(graph):
    """The version-1 writer's list branch: rows copied out of the per-node lists."""
    deg = graph.out_degrees() if graph.directed else graph.degrees()
    row = graph.out_neighbors if graph.directed else graph.neighbors
    rows = np.full((graph.n, max(int(deg.max()), 1)), -1, dtype=np.int64)
    for u in graph.nodes():
        rows[u, : deg[u]] = row(u)
    meta = {
        "n": graph.n,
        "directed": graph.directed,
        "num_edges": graph.number_of_edges(),
        "capacity": 0,
    }
    return meta, {"nbr": rows, "deg": deg}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_list_graph_checkpoint_resumes_on_array_graph(name, tmp_path, monkeypatch):
    """A version-1 file captured on the reference oracle (meta ``"backend": "list"``)
    restores onto an array graph and resumes to the uninterrupted run's counters."""
    uninterrupted = build(name, oracle=True)
    uninterrupted.run_to_convergence()
    interrupted = build(name, oracle=True)
    interrupted.run(max_rounds=CHECKPOINT_AT)
    with monkeypatch.context() as patch:
        patch.setattr(checkpoint, "_graph_payload", _list_graph_payload)
        legacy = capture_checkpoint(interrupted)
    legacy.meta["backend"] = "list"
    path = write_checkpoint(legacy, tmp_path / "legacy")
    assert json.loads(path.read_text())["meta"]["backend"] == "list"

    resumed = restore_process(load_checkpoint(path))
    assert isinstance(resumed.graph, (ArrayGraph, ArrayDiGraph))
    assert_same_end_state(interrupted, resumed)
    resumed.run_to_convergence()
    assert_same_end_state(uninterrupted, resumed)


def test_oracle_graph_not_checkpointable():
    with pytest.raises(CheckpointError, match="reference oracle"):
        capture_checkpoint(build("push", oracle=True))


def test_resume_from_checkpoint_reports_total_rounds(tmp_path):
    """resume_from_checkpoint's RunResult equals the uninterrupted run's."""
    uninterrupted = build("push")
    reference = uninterrupted.run_to_convergence()

    interrupted = build("push")
    interrupted.run(max_rounds=CHECKPOINT_AT)
    path = save_checkpoint(interrupted, tmp_path / "snap")
    result = resume_from_checkpoint(path)
    assert result.rounds == reference.rounds
    assert result.converged == reference.converged
    assert result.total_edges_added == reference.total_edges_added
    assert result.total_messages == reference.total_messages
    assert result.total_bits == reference.total_bits


def test_resume_in_fresh_process(tmp_path):
    """A brand-new interpreter resumes to the same end state (true crash shape)."""
    uninterrupted = build("pull")
    uninterrupted.run_to_convergence()

    interrupted = build("pull")
    interrupted.run(max_rounds=CHECKPOINT_AT)
    path = save_checkpoint(interrupted, tmp_path / "snap")

    script = (
        "import json, sys\n"
        "from repro.simulation.checkpoint import load_checkpoint, restore_process\n"
        f"process = restore_process(load_checkpoint({str(path)!r}))\n"
        "process.run_to_convergence()\n"
        "print(json.dumps({\n"
        "    'rounds': process.round_index,\n"
        "    'edges': sorted((int(u), int(v)) for u, v in process.graph.edges()),\n"
        "    'rng': str(process.rng.bit_generator.state),\n"
        "}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        cwd=str(Path(__file__).resolve().parent.parent),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    fresh = json.loads(out.stdout)
    assert fresh["rounds"] == uninterrupted.round_index
    assert [tuple(edge) for edge in fresh["edges"]] == canon(uninterrupted.graph.edges())
    assert fresh["rng"] == str(uninterrupted.rng.bit_generator.state)


def test_periodic_checkpoints_via_measure(tmp_path):
    """measure_convergence_rounds(checkpoint_every=) writes resumable snapshots."""
    rng = np.random.default_rng(SEED)
    graph = gen.make_family("cycle", N, rng)
    reference = measure_convergence_rounds(
        "push", graph, rng=np.random.default_rng(SEED), checkpoint_every=3,
        checkpoint_dir=tmp_path,
    )
    stems = sorted(p.stem for p in tmp_path.glob("round_*.json"))
    assert stems, "no checkpoints written"
    assert all(int(s.split("_")[1]) % 3 == 0 for s in stems)

    latest = latest_checkpoint(tmp_path)
    assert latest.stem == stems[-1]
    result = resume_from_checkpoint(latest)
    assert result.rounds == reference.rounds
    assert result.total_edges_added == reference.total_edges_added


def test_checkpoint_requires_dir():
    rng = np.random.default_rng(SEED)
    graph = gen.make_family("cycle", N, rng)
    with pytest.raises(ValueError, match="checkpoint_dir"):
        measure_convergence_rounds("push", graph, rng=rng, checkpoint_every=5)


def test_envelope_format_and_checksum(tmp_path):
    process = build("push")
    process.run(max_rounds=2)
    path = save_checkpoint(process, tmp_path / "snap")
    envelope = json.loads(path.read_text())
    assert envelope["format"] == "repro-gossip-trial-checkpoint"
    assert envelope["version"] == CHECKPOINT_VERSION
    assert envelope["checksum"]["algorithm"] == "sha256"
    assert envelope["meta"]["process"] == "push"
    assert envelope["meta"]["backend"] == "array"  # version-1 key, kept for old readers
    assert envelope["meta"]["round_index"] == process.round_index


def test_load_rejects_truncated_envelope(tmp_path):
    process = build("push")
    process.run(max_rounds=2)
    path = save_checkpoint(process, tmp_path / "snap")
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="JSON"):
        load_checkpoint(path)


def test_load_rejects_corrupt_payload(tmp_path):
    process = build("push")
    process.run(max_rounds=2)
    path = save_checkpoint(process, tmp_path / "snap")
    npz = path.with_suffix(".npz")
    data = npz.read_bytes()
    npz.write_bytes(data[:-1] + bytes([data[-1] ^ 0xFF]))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_load_rejects_unknown_version(tmp_path):
    process = build("push")
    process.run(max_rounds=2)
    path = save_checkpoint(process, tmp_path / "snap")
    envelope = json.loads(path.read_text())
    envelope["version"] = CHECKPOINT_VERSION + 1
    path.write_text(json.dumps(envelope))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_load_rejects_missing_payload(tmp_path):
    process = build("push")
    process.run(max_rounds=2)
    path = save_checkpoint(process, tmp_path / "snap")
    path.with_suffix(".npz").unlink()
    with pytest.raises(CheckpointError, match="payload"):
        load_checkpoint(path)


def test_latest_checkpoint_empty_dir(tmp_path):
    with pytest.raises(CheckpointError, match="no round_"):
        latest_checkpoint(tmp_path)


def test_instance_patched_process_not_checkpointable():
    from repro.core.variants import ChurnModel

    process = build("push")
    ChurnModel(process, rng=1)
    with pytest.raises(CheckpointError, match="instance-patched"):
        capture_checkpoint(process)


def test_unregistered_process_not_checkpointable():
    from repro.core.push import PushDiscovery

    class Custom(PushDiscovery):
        pass

    rng = np.random.default_rng(SEED)
    process = Custom(gen.make_family("cycle", N, rng), rng=rng)
    with pytest.raises(CheckpointError, match="not a registered process"):
        capture_checkpoint(process)
