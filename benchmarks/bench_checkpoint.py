"""Checkpoint overhead and crash-recovery latency.

Prices the crash-tolerance substrate added in PR7:

* **snapshot overhead** — one full Name Dropper convergence run on a
  cycle (array graph, n = 1024) without checkpointing vs the same run
  with ``checkpoint_every=10``.  Name Dropper's payload-heavy rounds
  (neighbor-list gossip) are the realistic case for checkpointing long
  trials, and the overhead budget is < 10% at this cadence — the
  acceptance bar for shipping periodic snapshots by default in sweeps.
  Both runs must converge to identical rounds/edges (checkpointing is
  observationally free).
* **single-snapshot cost** — best-of-reps wall milliseconds for one
  ``save_checkpoint`` of a mid-run process (the marginal cost a caller
  pays per ``checkpoint_every`` rounds).
* **recovery latency** — simulate a mid-run kill by abandoning the
  checkpointed run at its last snapshot, then time (a) ``load_checkpoint``
  + ``restore_process`` (the restart-to-ready gap) and (b) the resumed
  tail run to convergence.  The resumed run must reproduce the
  uninterrupted run's rounds and edge count exactly — recovery is the
  draw-for-draw contract from ``tests/test_checkpoint.py``, just priced.

Results are printed; the overhead budget is asserted at full size.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.graphs import generators as gen
from repro.simulation.checkpoint import (
    latest_checkpoint,
    load_checkpoint,
    restore_process,
    resume_from_checkpoint,
    save_checkpoint,
)
from repro.simulation.engine import make_process, measure_convergence_rounds

from _bench_helpers import BENCH_SEED, print_table, run_once, trial_count

PROCESS = "name_dropper"
FAMILY = "cycle"
N = 1024
SMOKE_N = 256
CHECKPOINT_EVERY = 10
SNAPSHOT_WARMUP_ROUNDS = 12  # mid-run state for the single-snapshot timing


def _fresh_graph(n: int):
    return gen.make_family(FAMILY, n, np.random.default_rng(BENCH_SEED))


def _time_run(n: int, reps: int, checkpoint_dir=None) -> dict:
    """Best-of-``reps`` wall seconds for one full convergence run."""
    best = float("inf")
    rounds = edges = 0
    for _ in range(reps):
        start = time.perf_counter()
        result = measure_convergence_rounds(
            PROCESS,
            _fresh_graph(n),
            rng=np.random.default_rng(BENCH_SEED),
            copy_graph=False,
            checkpoint_every=CHECKPOINT_EVERY if checkpoint_dir else 0,
            checkpoint_dir=checkpoint_dir,
        )
        best = min(best, time.perf_counter() - start)
        rounds, edges = result.rounds, result.total_edges_added
    return {"seconds": best, "rounds": rounds, "edges": edges}


def _time_single_snapshot(n: int, reps: int, out_dir: Path) -> float:
    """Best-of-``reps`` milliseconds for one mid-run ``save_checkpoint``."""
    process = make_process(
        PROCESS, _fresh_graph(n), rng=np.random.default_rng(BENCH_SEED)
    )
    process.run(max_rounds=SNAPSHOT_WARMUP_ROUNDS)
    best = float("inf")
    for rep in range(reps):
        start = time.perf_counter()
        save_checkpoint(process, out_dir / f"single_{rep}")
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _time_recovery(checkpoint_dir: Path, reps: int) -> dict:
    """Restore-to-ready and resumed-tail wall times from the last snapshot."""
    latest = latest_checkpoint(checkpoint_dir)
    restore_ms = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        restore_process(load_checkpoint(latest))
        restore_ms = min(restore_ms, (time.perf_counter() - start) * 1e3)

    start = time.perf_counter()
    result = resume_from_checkpoint(latest)
    resume_seconds = time.perf_counter() - start
    return {
        "resumed_from_round": load_checkpoint(latest).round_index,
        "restore_ms": restore_ms,
        "resume_seconds": resume_seconds,
        "rounds": result.rounds,
        "edges": result.total_edges_added,
    }


def test_checkpoint_overhead_and_recovery(benchmark, smoke, tmp_path):
    """Snapshot overhead vs a clean run, plus crash-recovery latency."""
    n = SMOKE_N if smoke else N
    reps = trial_count(smoke, 3)
    checkpoint_dir = tmp_path / "snapshots"

    def measure():
        base = _time_run(n, reps)
        timed = _time_run(n, reps, checkpoint_dir=checkpoint_dir)
        # Checkpointing must be observationally free.
        assert timed["rounds"] == base["rounds"]
        assert timed["edges"] == base["edges"]
        overhead = timed["seconds"] / base["seconds"] - 1.0
        snapshots = len(list(checkpoint_dir.glob("round_*.json")))
        snapshot_ms = _time_single_snapshot(n, reps, tmp_path / "single")

        recovery = _time_recovery(checkpoint_dir, reps)
        # The resumed run replays the uninterrupted trajectory exactly.
        assert recovery["rounds"] == base["rounds"]
        assert recovery["edges"] == base["edges"]
        return {
            "runs": [
                {"mode": "clean", **base},
                {
                    "mode": f"checkpoint_every={CHECKPOINT_EVERY}",
                    **timed,
                    "snapshots": snapshots,
                    "overhead_fraction": overhead,
                },
            ],
            "snapshot_ms": snapshot_ms,
            "recovery": recovery,
        }

    results = run_once(benchmark, measure)
    print_table(
        f"PR7 checkpoint overhead ({PROCESS} on {FAMILY}, n={n}, array graph)",
        results["runs"],
        ["mode", "seconds", "rounds", "edges", "snapshots", "overhead_fraction"],
    )
    print_table(
        "PR7 crash recovery (resume from last snapshot)",
        [results["recovery"]],
        ["resumed_from_round", "restore_ms", "resume_seconds", "rounds", "edges"],
    )
    print(f"single snapshot: {results['snapshot_ms']:.2f} ms")

    if smoke:
        return
    overhead = results["runs"][1]["overhead_fraction"]
    assert overhead < 0.10, f"checkpoint overhead {overhead:.1%} exceeds the 10% budget"
