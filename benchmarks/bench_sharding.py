"""Sharded round execution shoot-outs.

Measures the sharded round engine (:mod:`repro.simulation.sharding`)
against the unsharded array kernels at n ≥ 2048:

* **flooding end-to-end** — full convergence runs; flooding's row-union
  rounds are the heaviest per-round workload in the repo (Θ(n · m) IDs
  delivered), so they are where row sharding pays.  Sharded rounds are
  semantically identical to unsharded ones for flooding (the process is
  deterministic), so the speedup column compares equal work.  Even on a
  single-core host the in-process sharded path wins by confining each
  scatter to an L2-sized row block; on multi-core hosts the process-pool
  path (measured separately as mode="pool") adds core scaling on top.

Push, pull and the directed walk are not shardable: their rounds propose
O(n) edges, so a shard's work is smaller than the merge and pool round
trip sharding adds (on a 2-core host, a push round at n=4096 took 1.7 ms
unsharded and 6.5 ms on a 2-shard pool).

Two further measurements:

* **incremental vs recompute closure maintenance** — maintaining packed
  all-pairs reachability under per-round edge batches via
  :class:`repro.graphs.closure.IncrementalClosure` (row-OR propagation per
  batch endpoint) against a full Warshall
  :func:`repro.graphs.bitset.transitive_closure_bits` recompute per batch
  — the machinery that makes the directed walk's closure-deficit tracking
  affordable at large n;
* **sharded payload shoot-out** — fixed-round per-round wall time of
  Name Dropper and Random Pointer Jump sharded vs unsharded, plus a
  cross-shard-count trajectory-invariance assertion.

Results are printed; the acceptance ratios are asserted at full size.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.flooding import NeighborhoodFlooding
from repro.baselines.name_dropper import NameDropper
from repro.baselines.pointer_jump import RandomPointerJump
from repro.graphs import bitset
from repro.graphs import generators as gen
from repro.graphs.closure import IncrementalClosure
from repro.simulation.sharding import ShardedProcess

from _bench_helpers import BENCH_SEED, print_table, run_once, trial_count

SIZES = [2048, 4096]
SMOKE_SIZES = [256]
SHARD_COUNTS = [2, 4, 8]
SMOKE_SHARD_COUNTS = [2]

# --- PR5 knobs ------------------------------------------------------------- #
CLOSURE_SIZES = [512, 1024]
SMOKE_CLOSURE_SIZES = [128]
CLOSURE_BATCHES = 8
CLOSURE_BATCH_EDGES = 64
REGISTRY_N = 2048
SMOKE_REGISTRY_N = 256
REGISTRY_DEGREE = 128
REGISTRY_ROUNDS = 4
REGISTRY_SHARDS = [2, 4]
SMOKE_REGISTRY_SHARDS = [2]


def _time_flooding(n: int, shards: int, parallel, reps: int) -> dict:
    """Best-of-``reps`` wall seconds for one full flooding convergence run."""
    best = float("inf")
    rounds = edges = 0
    for _ in range(reps):
        process = NeighborhoodFlooding(gen.cycle_graph(n), rng=BENCH_SEED)
        start = time.perf_counter()
        if shards == 1:
            result = process.run_to_convergence()
        else:
            with ShardedProcess(process, shards=shards, parallel=parallel) as sharded:
                result = sharded.run_to_convergence()
        best = min(best, time.perf_counter() - start)
        rounds, edges = result.rounds, result.total_edges_added
    return {"seconds": best, "rounds": rounds, "edges": edges}


def test_sharding_shootout(benchmark, smoke):
    """Sharded vs unsharded round execution at n >= 2048."""
    sizes = SMOKE_SIZES if smoke else SIZES
    shard_counts = SMOKE_SHARD_COUNTS if smoke else SHARD_COUNTS
    reps = trial_count(smoke, 2)

    def measure():
        results = {"flooding": []}
        for n in sizes:
            flood_reps = reps if n <= 2048 else 1
            base = _time_flooding(n, 1, False, flood_reps)
            rows = [{"n": n, "shards": 1, "mode": "unsharded", **base, "speedup": 1.0}]
            for shards in shard_counts:
                timed = _time_flooding(n, shards, False, flood_reps)
                assert timed["rounds"] == base["rounds"]
                assert timed["edges"] == base["edges"]
                rows.append(
                    {
                        "n": n,
                        "shards": shards,
                        "mode": "in-process",
                        **timed,
                        "speedup": base["seconds"] / timed["seconds"],
                    }
                )
            results["flooding"].extend(rows)
        # One pool-path row at the largest size prices the multiprocess
        # round-trip honestly (it only wins when cores are available).
        n = sizes[-1]
        pool = _time_flooding(n, shard_counts[-1], True, 1)
        base_s = next(
            r["seconds"] for r in results["flooding"] if r["n"] == n and r["shards"] == 1
        )
        results["flooding"].append(
            {
                "n": n,
                "shards": shard_counts[-1],
                "mode": "pool",
                **pool,
                "speedup": base_s / pool["seconds"],
            }
        )
        return results

    results = run_once(benchmark, measure)
    print_table(
        "PR4 sharded flooding (end-to-end convergence)",
        results["flooding"],
        ["n", "shards", "mode", "seconds", "rounds", "speedup"],
    )

    if smoke:
        return
    best = max(
        r["speedup"]
        for r in results["flooding"]
        if r["n"] >= 2048 and r["shards"] > 1
    )
    # Acceptance: sharded rounds beat unsharded rounds at n >= 2048 even
    # on this host (multi-core hosts add pool scaling on top).
    assert best > 1.0, f"no multi-shard speedup recorded (best {best:.3f}x)"


# --------------------------------------------------------------------------- #
# incremental closure maintenance + the sharded payload baselines
# --------------------------------------------------------------------------- #
def _random_digraph_bits(n: int, rng: np.random.Generator, density: float = 0.01):
    mat = rng.random((n, n)) < density
    np.fill_diagonal(mat, False)
    return bitset.pack_bool_matrix(mat)


def _closure_maintenance(n: int, reps: int) -> dict:
    """Best-of-``reps`` maintenance seconds over CLOSURE_BATCHES edge batches.

    Both strategies start from the same closed matrix; the timed region is
    the per-batch maintenance only (the one-off seed Warshall is shared).
    """
    rng = np.random.default_rng(BENCH_SEED)
    bits = _random_digraph_bits(n, rng)
    batches = []
    for _ in range(CLOSURE_BATCHES):
        us = rng.integers(0, n, size=CLOSURE_BATCH_EDGES).astype(np.int64)
        vs = rng.integers(0, n, size=CLOSURE_BATCH_EDGES).astype(np.int64)
        keep = us != vs
        batches.append((us[keep], vs[keep]))
    best_inc = best_re = float("inf")
    for _ in range(reps):
        inc = IncrementalClosure(bits.copy(), n)
        start = time.perf_counter()
        for us, vs in batches:
            inc.add_edges(us, vs)
        best_inc = min(best_inc, time.perf_counter() - start)

        current = bits.copy()
        recomputed = None
        start = time.perf_counter()
        for us, vs in batches:
            bitset.set_bits(current, us, vs)
            recomputed = bitset.transitive_closure_bits(current, n)
        best_re = min(best_re, time.perf_counter() - start)
        assert recomputed is not None and np.array_equal(inc.closure_bits(), recomputed)
    return {
        "n": n,
        "batches": CLOSURE_BATCHES,
        "batch_edges": CLOSURE_BATCH_EDGES,
        "incremental_s": best_inc,
        "recompute_s": best_re,
        "speedup": best_re / best_inc,
    }


def _registry_process(name: str, n: int):
    """One payload baseline on its benchmark workload.

    Both start from a dense Watts–Strogatz graph (average degree
    ``REGISTRY_DEGREE``) so the rounds are in the row-union regime where
    shard locality pays — on a sparse start the O(n²/8) delta accumulator
    dominates and sharding is pure overhead.
    """
    rng = np.random.default_rng(BENCH_SEED)
    graph = gen.watts_strogatz_graph(n, REGISTRY_DEGREE, 0.05, rng)
    if name == "name_dropper":
        return NameDropper(graph, rng=BENCH_SEED)
    return RandomPointerJump(graph, rng=BENCH_SEED)


def _time_registry_rounds(name: str, n: int, shards: int, rounds: int) -> dict:
    """Wall seconds for ``rounds`` rounds of one payload baseline."""
    process = _registry_process(name, n)
    per_round = []
    start = time.perf_counter()
    if shards == 1:
        for _ in range(rounds):
            per_round.append(process.step().num_added)
    else:
        with ShardedProcess(process, shards=shards, parallel=False) as sharded:
            for _ in range(rounds):
                per_round.append(sharded.step().num_added)
    seconds = time.perf_counter() - start
    return {
        "process": name,
        "n": n,
        "shards": shards,
        "seconds": seconds,
        "per_round_ms": seconds / rounds * 1e3,
        "edges": process.total_edges_added,
        "per_round_added": per_round,
    }


def test_pr5_incremental_closure_and_sharded_registry(benchmark, smoke):
    """Incremental-vs-recompute closure + the payload baselines sharded."""
    closure_sizes = SMOKE_CLOSURE_SIZES if smoke else CLOSURE_SIZES
    registry_n = SMOKE_REGISTRY_N if smoke else REGISTRY_N
    shard_counts = SMOKE_REGISTRY_SHARDS if smoke else REGISTRY_SHARDS
    reps = trial_count(smoke, 3)

    def measure():
        results = {"closure": [], "registry": []}
        for n in closure_sizes:
            results["closure"].append(_closure_maintenance(n, reps))
        for name in ("name_dropper", "pointer_jump"):
            rows = [_time_registry_rounds(name, registry_n, 1, REGISTRY_ROUNDS)]
            base_s = rows[0]["seconds"]
            for shards in shard_counts:
                timed = _time_registry_rounds(name, registry_n, shards, REGISTRY_ROUNDS)
                timed["speedup"] = base_s / timed["seconds"]
                rows.append(timed)
            # Per-round added-edge counts agree across shard counts (the
            # exact edge-trajectory identity is pinned by
            # tests/test_sharding.py; under --smoke only one shard count
            # runs, so this comparison is trivially satisfied there).
            sharded_rounds = {tuple(r["per_round_added"]) for r in rows[1:]}
            assert len(sharded_rounds) == 1
            rows[0]["speedup"] = 1.0
            results["registry"].extend(rows)
        return results

    results = run_once(benchmark, measure)
    print_table(
        "PR5 closure maintenance under edge batches (incremental vs recompute)",
        results["closure"],
        ["n", "batches", "batch_edges", "incremental_s", "recompute_s", "speedup"],
    )
    print_table(
        "Sharded payload baselines (fixed rounds, in-process shards)",
        results["registry"],
        ["process", "n", "shards", "seconds", "per_round_ms", "speedup"],
    )

    # Acceptance: incremental maintenance beats recompute at every size.
    worst = min(r["speedup"] for r in results["closure"])
    assert worst > 1.0, f"incremental closure slower than recompute ({worst:.3f}x)"
