"""E1 — Theorem 8: push (triangulation) upper bound O(n log² n) on undirected graphs.

Regenerates the convergence-round scaling series for the push process over
several graph families and reports the fitted growth law plus the
rounds / (n ln² n) ratios that must stay bounded.  The sweeps run on the
generators' array graphs; a dedicated shoot-out times the per-node
reference paths (the same run on the list-based ``DynamicGraph`` oracle)
against the array kernels at the largest configured n to pin the
vectorization speedup (the measured rounds are seed-identical).

``--smoke`` shrinks everything to one tiny configuration for CI.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.scaling import measure_scaling
from repro.core.push import PushDiscovery
from repro.graphs import generators
from repro.simulation import bounds, stats

from _bench_helpers import BENCH_SEED, print_table, run_once

SIZES = [16, 32, 64, 96]
SMOKE_SIZES = [8, 12]
#: sizes for the oracle shoot-out; the largest is where vectorization pays.
SPEEDUP_SIZES = [96, 192, 384]
FAMILIES = ["cycle", "path", "star", "erdos_renyi", "barabasi_albert"]
#: the reference oracle ("list") and the array graph ("array")
SUBSTRATES = ["list", "array"]


@pytest.mark.parametrize("family", FAMILIES)
def test_e1_push_scaling(benchmark, family, smoke):
    """Push convergence rounds vs n for one family, with the Theorem-8 fit."""
    sizes = SMOKE_SIZES if smoke else SIZES
    trials = 1 if smoke else 3
    measurement = run_once(
        benchmark,
        measure_scaling,
        "push",
        family,
        sizes=sizes,
        trials=trials,
        seed=BENCH_SEED,
        poly_exponent=1.0,
    )
    print_table(f"E1 push scaling on {family}", measurement.as_rows())
    fit = measurement.power_log_fit
    print(
        f"fit: rounds ~ {fit.coefficient:.3g} * n * (ln n)^{fit.log_exponent:.2f} "
        f"(R^2={fit.r_squared:.3f}); pure power-law exponent "
        f"{measurement.power_fit.exponent:.2f}"
    )
    if smoke:
        return  # tiny sizes cannot support the asymptotic shape assertions
    # Shape assertions (paper: between n log n and n log^2 n).
    ok, info = stats.bounded_ratio(
        sizes, measurement.mean_rounds, bounds.n_log2_n, spread_tolerance=10.0
    )
    assert ok, f"rounds drifted away from the n log^2 n shape: {info}"
    assert 0.9 < measurement.power_fit.exponent < 2.0


def test_e1_backend_speedup(benchmark, smoke):
    """Oracle vs array wall-clock at the largest configured n (seed-identical runs).

    The acceptance bar for the array kernels is a >=3x speedup over the
    per-node reference paths at the top size (measured ~3.9x on the
    reference machine); the assertion uses a noise-tolerant 2x so shared CI
    runners do not flake, and prints the measured ratio for the record.
    """
    n = 24 if smoke else SPEEDUP_SIZES[-1]
    base = generators.cycle_graph(n)

    def convergence_seconds(substrate: str):
        best, rounds = float("inf"), -1
        for _ in range(1 if smoke else 2):
            graph = base.to_dynamic() if substrate == "list" else base.copy()
            process = PushDiscovery(graph, rng=BENCH_SEED)
            start = time.perf_counter()
            result = process.run_to_convergence()
            best = min(best, time.perf_counter() - start)
            rounds = result.rounds
        return best, rounds

    def shootout():
        return {substrate: convergence_seconds(substrate) for substrate in SUBSTRATES}

    timings = run_once(benchmark, shootout)
    (list_s, list_rounds) = timings["list"]
    (array_s, array_rounds) = timings["array"]
    speedup = list_s / array_s
    print(
        f"\n=== E1 oracle shoot-out (push on cycle, n={n}) ===\n"
        f"list:  {list_s * 1e3:8.1f} ms  ({list_rounds} rounds)\n"
        f"array: {array_s * 1e3:8.1f} ms  ({array_rounds} rounds)\n"
        f"speedup: {speedup:.2f}x"
    )
    assert list_rounds == array_rounds, "oracle and array must converge in identical rounds"
    if not smoke:
        assert speedup >= 2.0, f"array kernels only {speedup:.2f}x faster at n={n}"
