#!/usr/bin/env python
"""P2P resource discovery: the message-level protocols with bandwidth accounting.

The paper's first motivating application: hosts in a peer-to-peer overlay
must discover the IP addresses of all other hosts, but every message may
carry only O(log n) bits.  This example runs the *message-passing*
implementation (every node sees only its own contact table) and compares
the gossip protocols against the Name Dropper baseline on:

* rounds to full discovery,
* peak per-node per-round bandwidth,
* total traffic,

optionally under message loss (``--drop``).

Run with::

    python examples/p2p_resource_discovery.py [--n 64] [--drop 0.1] [--seed 1]
"""

from __future__ import annotations

import argparse

from repro.graphs import generators
from repro.network.async_simulator import AsyncNetworkSimulator
from repro.network.failures import DropUniform, NoFailures
from repro.network.message import id_bits_for


def run_protocol(name: str, n: int, drop: float, seed: int) -> dict:
    """Run one protocol to full discovery and return its accounting row."""
    import numpy as np

    # The same seed yields the same starting overlay for every protocol.
    topology = generators.random_connected_graph(
        n, extra_edge_prob=0.02, rng=np.random.default_rng(seed)
    )
    failures = DropUniform(drop) if drop > 0 else NoFailures()
    # Default latency and tick: one tick is one synchronous round.
    sim = AsyncNetworkSimulator(topology, protocol=name, rng=seed, failures=failures)
    sim.run_to_convergence(max_ticks=200_000)
    return {
        "protocol": name,
        "rounds": sim.stats.ticks,
        "discovered_all": sim.is_converged(),
        "peak_bits_per_node_round": sim.max_bits_per_node_round(),
        "total_messages": sim.stats.messages_sent,
        "dropped": sim.stats.messages_dropped,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=64, help="number of hosts")
    parser.add_argument("--drop", type=float, default=0.0, help="message drop probability")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    print(f"P2P resource discovery with {args.n} hosts (drop={args.drop})")
    print(f"budget for an O(log n)-bit message: {id_bits_for(args.n)} bits per ID")
    print("-" * 78)
    header = (
        f"{'protocol':14s} {'rounds':>8s} {'all found':>10s} "
        f"{'peak bits/node/round':>22s} {'messages':>10s} {'dropped':>8s}"
    )
    print(header)
    for name in ("push", "pull", "name_dropper"):
        row = run_protocol(name, args.n, args.drop, args.seed)
        print(
            f"{row['protocol']:14s} {row['rounds']:>8d} {str(row['discovered_all']):>10s} "
            f"{row['peak_bits_per_node_round']:>22d} {row['total_messages']:>10d} "
            f"{row['dropped']:>8d}"
        )
    print()
    print(
        "Take-away: the gossip protocols (push/pull) stay within a few IDs per\n"
        "node per round — deployable on bandwidth-constrained networks — while\n"
        "Name Dropper finishes in far fewer rounds but ships whole contact\n"
        "tables in single messages."
    )


if __name__ == "__main__":
    main()
