"""Degradation study: discovery time when the synchronous idealization is relaxed.

The paper's analysis assumes lock-step rounds with instant, reliable
delivery; that model is the event engine's default configuration, and
every other setting drops one of its assumptions.  This benchmark
quantifies what each costs.  All runs use the push protocol on a cycle
and report *tick inflation*: mean ticks to full discovery divided by the
synchronous model's mean rounds on the same seeds.

Axes:

* ``parity``   — a different deterministic sub-tick latency, no faults.
  The run must replay the synchronous one draw for draw, so the inflation
  is exactly 1.0 (asserted per seed, not just on the mean).
* ``jitter``   — uniform per-message latency of growing width.  Once
  messages straddle tick boundaries the engines decouple, yet push barely
  slows down: a late introduction is simply used a tick later, so the
  inflation stays near 1 even at multi-tick latencies.
* ``drop``     — iid message loss at growing rates (no liveness pings:
  nobody is dead, eviction would only thrash).
* ``churn``    — Poisson leave/rejoin with liveness pings evicting dead
  contacts; convergence is judged among the alive nodes.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import generators as gen
from repro.network import (
    AsyncNetworkSimulator,
    ChurnSchedule,
    DropUniform,
    FixedLatency,
    UniformLatency,
)

from _bench_helpers import BENCH_SEED, print_table, run_once, trial_count

N = 32
MAX_TICKS = 20_000
JITTER_WIDTHS = [0.5, 1.5, 3.0]
DROP_RATES = [0.05, 0.1, 0.2]
CHURN_RATES = [0.01, 0.03]


def _async_ticks(n: int, seed: int, **kwargs) -> tuple[int, bool]:
    sim = AsyncNetworkSimulator(
        gen.cycle_graph(n),
        protocol="push",
        rng=np.random.default_rng(seed),
        **kwargs,
    )
    sim.run_to_convergence(max_ticks=MAX_TICKS)
    return sim.stats.ticks, sim.is_converged()


def test_async_degradation(benchmark, smoke):
    n = 12 if smoke else N
    trials = trial_count(smoke, 3)
    seeds = [BENCH_SEED + t for t in range(trials)]

    def measure():
        sync_rounds = []
        for seed in seeds:
            # The engine's defaults are the synchronous model.
            ticks, converged = _async_ticks(n, seed)
            assert converged
            sync_rounds.append(ticks)
        baseline = float(np.mean(sync_rounds))

        rows = [
            {
                "axis": "sync",
                "setting": "-",
                "mean_ticks": baseline,
                "converged": trials,
                "inflation": 1.0,
            }
        ]

        # Parity: latency below one tick, no faults -> exact sync replay.
        parity = []
        for seed, expected in zip(seeds, sync_rounds):
            ticks, converged = _async_ticks(n, seed, latency=FixedLatency(0.45))
            assert converged
            assert ticks == expected, (
                f"async parity broken: {ticks} ticks vs {expected} sync rounds (seed {seed})"
            )
            parity.append(ticks)
        rows.append(
            {
                "axis": "parity",
                "setting": "fixed 0.45",
                "mean_ticks": float(np.mean(parity)),
                "converged": trials,
                "inflation": float(np.mean(parity)) / baseline,
            }
        )

        for width in JITTER_WIDTHS:
            ticks = [
                _async_ticks(n, seed, latency=UniformLatency(0.05, width)) for seed in seeds
            ]
            rows.append(
                {
                    "axis": "jitter",
                    "setting": f"U(0.05, {width})",
                    "mean_ticks": float(np.mean([t for t, _ in ticks])),
                    "converged": sum(c for _, c in ticks),
                    "inflation": float(np.mean([t for t, _ in ticks])) / baseline,
                }
            )

        for rate in DROP_RATES:
            ticks = [
                _async_ticks(
                    n, seed, latency=FixedLatency(0.45), failures=DropUniform(rate)
                )
                for seed in seeds
            ]
            rows.append(
                {
                    "axis": "drop",
                    "setting": f"p={rate}",
                    "mean_ticks": float(np.mean([t for t, _ in ticks])),
                    "converged": sum(c for _, c in ticks),
                    "inflation": float(np.mean([t for t, _ in ticks])) / baseline,
                }
            )

        for rate in CHURN_RATES:
            ticks = []
            for seed in seeds:
                churn = ChurnSchedule.poisson(
                    n, rate=rate, horizon=float(MAX_TICKS), seed=seed + 1, downtime=5.0
                )
                ticks.append(
                    _async_ticks(
                        n,
                        seed,
                        latency=FixedLatency(0.45),
                        churn=churn,
                        ping_interval=1.0,
                        ping_timeout=2.0,
                    )
                )
            rows.append(
                {
                    "axis": "churn",
                    "setting": f"rate={rate}",
                    "mean_ticks": float(np.mean([t for t, _ in ticks])),
                    "converged": sum(c for _, c in ticks),
                    "inflation": float(np.mean([t for t, _ in ticks])) / baseline,
                }
            )
        return rows

    rows = run_once(benchmark, measure)
    print_table(f"async degradation vs sync baseline (push on a {n}-cycle)", rows)
    by_key = {(row["axis"], row["setting"]): row for row in rows}

    # Every configuration still reaches full discovery within the budget.
    assert all(row["converged"] == trials for row in rows)
    # The degenerate configuration is exactly the synchronous run.
    assert by_key[("parity", "fixed 0.45")]["inflation"] == 1.0
    if smoke:
        # The magnitude assertions below are calibrated for the full
        # size; a single tiny-n trial is too noisy to pin them.
        return
    # The headline finding: push is latency-tolerant but loss-sensitive.
    # A late introduction is simply used a tick later (nodes keep
    # initiating every tick regardless of what is in flight), so even
    # multi-tick jitter stays within ~10% of the baseline — while losing
    # a fifth of the messages costs a clearly measurable factor.
    assert by_key[("jitter", f"U(0.05, {JITTER_WIDTHS[-1]})")]["inflation"] < 1.2
    assert by_key[("drop", f"p={DROP_RATES[-1]}")]["inflation"] > 1.2
