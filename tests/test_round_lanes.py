"""Seeded pins for the round lanes the golden traces do not replay.

The goldens under ``tests/data/`` cover only the default synchronous
processes.  This module pins every other way a round can run: the
sequential ablation, without-replacement push, the directed walk and
directed pointer jump, the faulty variants, the per-node fallback that a
``ChurnModel`` forces, activation schedules, and in-process sharding of
the row-OR processes.
Each case records the round count, the three running totals and a digest
of every round's added edges (hashed over ``int`` values, so NumPy and
Python integers digest alike), on the array graph and, where a process
accepts it, on its reference-oracle twin.

Regenerate ``LANE_PINS`` (intentional convention changes only) with
``PYTHONPATH=src python tests/test_round_lanes.py``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Tuple

import pytest

from repro.baselines.flooding import NeighborhoodFlooding
from repro.baselines.name_dropper import NameDropper
from repro.baselines.pointer_jump import RandomPointerJump
from repro.core.base import UpdateSemantics
from repro.core.directed import DirectedTwoHopWalk
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.core.scheduler import BernoulliActivation, ScheduledProcess
from repro.core.variants import ChurnModel, FaultyPullDiscovery, FaultyPushDiscovery
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.simulation.sharding import ShardedProcess

SEQ = UpdateSemantics.SEQUENTIAL
FAULTS = dict(failure_prob=0.2, participation_prob=0.7)
CHURN_ROUNDS = 400


def _undirected(substrate: str):
    graph = gen.cycle_graph(16)
    return graph.to_dynamic() if substrate == "oracle" else graph


def _directed(substrate: str):
    graph = dgen.directed_cycle(10)
    return graph.to_dynamic() if substrate == "oracle" else graph


def _process_case(factory: Callable) -> Callable:
    """A case that runs one process (or wrapper) to convergence."""

    def run(substrate: str):
        process = factory(substrate)
        return process, process.step, process.is_converged, process.default_round_cap()

    return run


def _scheduled_case(factory: Callable) -> Callable:
    """A case that runs a process under ``BernoulliActivation(0.5)``."""

    def run(substrate: str):
        process = factory(substrate)
        scheduled = ScheduledProcess(process, BernoulliActivation(0.5))
        return process, scheduled.step, scheduled.is_converged, process.default_round_cap()

    return run


def _churn_case(factory: Callable) -> Callable:
    """A case that alternates churn and process rounds, as ``ChurnModel.run`` does."""

    def run(substrate: str):
        process = factory(substrate)
        churn = ChurnModel(process, leave_prob=0.05, join_prob=0.3, rng=11)

        def step():
            churn.churn_step()
            return process.step()

        return process, step, churn.active_pairs_complete, CHURN_ROUNDS

    return run


def _sharded_case(factory: Callable) -> Callable:
    """A case that runs an in-process three-shard round engine (array graphs only)."""

    def run(substrate: str):
        sharded = ShardedProcess(factory("array"), shards=3, seed=7, parallel=False)
        return sharded, sharded.step, sharded.is_converged, sharded.default_round_cap()

    return run


CASES: Dict[str, Callable] = {
    "push_sequential": _process_case(lambda s: PushDiscovery(_undirected(s), rng=1, semantics=SEQ)),
    "pull_sequential": _process_case(lambda s: PullDiscovery(_undirected(s), rng=2, semantics=SEQ)),
    "push_without_replacement": _process_case(
        lambda s: PushDiscovery(_undirected(s), rng=3, without_replacement=True)
    ),
    "walk_synchronous": _process_case(lambda s: DirectedTwoHopWalk(_directed(s), rng=4)),
    "walk_sequential": _process_case(
        lambda s: DirectedTwoHopWalk(_directed(s), rng=5, semantics=SEQ)
    ),
    "pointer_jump_directed": _process_case(lambda s: RandomPointerJump(_directed(s), rng=6)),
    "pointer_jump_directed_sequential": _process_case(
        lambda s: RandomPointerJump(_directed(s), rng=7, semantics=SEQ)
    ),
    "faulty_push": _process_case(lambda s: FaultyPushDiscovery(_undirected(s), rng=8, **FAULTS)),
    "faulty_pull": _process_case(lambda s: FaultyPullDiscovery(_undirected(s), rng=9, **FAULTS)),
    "faulty_push_sequential": _process_case(
        lambda s: FaultyPushDiscovery(_undirected(s), rng=10, semantics=SEQ, **FAULTS)
    ),
    "faulty_pull_sequential": _process_case(
        lambda s: FaultyPullDiscovery(_undirected(s), rng=11, semantics=SEQ, **FAULTS)
    ),
    "churn_push": _churn_case(lambda s: PushDiscovery(_undirected(s), rng=12)),
    "churn_faulty_pull": _churn_case(
        lambda s: FaultyPullDiscovery(_undirected(s), rng=13, **FAULTS)
    ),
    "scheduled_push": _scheduled_case(lambda s: PushDiscovery(_undirected(s), rng=14)),
    "scheduled_flooding": _scheduled_case(lambda s: NeighborhoodFlooding(_undirected(s), rng=15)),
    "sharded_flooding": _sharded_case(lambda s: NeighborhoodFlooding(_undirected(s), rng=19)),
    "sharded_name_dropper": _sharded_case(lambda s: NameDropper(_undirected(s), rng=20)),
    "sharded_pointer_jump": _sharded_case(lambda s: RandomPointerJump(_undirected(s), rng=21)),
    "sharded_pointer_jump_directed": _sharded_case(
        lambda s: RandomPointerJump(_directed(s), rng=22)
    ),
}

#: sharding partitions packed rows, so the sharded cases run on array graphs only.
SUBSTRATES = {
    name: ("array",) if name.startswith("sharded_") else ("array", "oracle") for name in CASES
}


def trace(name: str, substrate: str) -> Tuple[int, int, int, int, str]:
    """``(rounds, edges, messages, bits, digest)`` of one case run to its stop."""
    process, step, done, cap = CASES[name](substrate)
    digest = hashlib.sha256()
    rounds = 0
    while not done() and rounds < cap:
        for u, v in step().added_edges:
            digest.update(f"{int(u)},{int(v)};".encode())
        digest.update(b"|")
        rounds += 1
    return (
        rounds,
        process.total_edges_added,
        process.total_messages,
        process.total_bits,
        digest.hexdigest()[:16],
    )


LANE_PINS: Dict[Tuple[str, str], Tuple[int, int, int, int, str]] = {
    ('push_sequential', 'array'): (39, 104, 1248, 4992, '27b11c311d5fba8b'),
    ('push_sequential', 'oracle'): (39, 104, 1248, 4992, '27b11c311d5fba8b'),
    ('pull_sequential', 'array'): (57, 104, 2736, 10944, 'e233450280325e70'),
    ('pull_sequential', 'oracle'): (57, 104, 2736, 10944, 'e233450280325e70'),
    ('push_without_replacement', 'array'): (35, 104, 1120, 4480, 'a2b3b188b026a64c'),
    ('push_without_replacement', 'oracle'): (35, 104, 1120, 4480, 'a2b3b188b026a64c'),
    ('walk_synchronous', 'array'): (46, 80, 1380, 5520, '4912b0891f95a72f'),
    ('walk_synchronous', 'oracle'): (46, 80, 1380, 5520, '4912b0891f95a72f'),
    ('walk_sequential', 'array'): (58, 80, 1740, 6960, '685ce6ead2f10ae8'),
    ('walk_sequential', 'oracle'): (58, 80, 1740, 6960, '685ce6ead2f10ae8'),
    ('pointer_jump_directed', 'array'): (5, 80, 100, 1020, '0af53f1c4cc705b9'),
    ('pointer_jump_directed', 'oracle'): (5, 80, 100, 1020, '0af53f1c4cc705b9'),
    ('pointer_jump_directed_sequential', 'array'): (4, 80, 80, 820, 'f8567b87d3763b17'),
    ('pointer_jump_directed_sequential', 'oracle'): (4, 80, 80, 820, 'f8567b87d3763b17'),
    ('faulty_push', 'array'): (89, 104, 1966, 7864, '2c76b63dabeab051'),
    ('faulty_push', 'oracle'): (89, 104, 1966, 7864, '2c76b63dabeab051'),
    ('faulty_pull', 'array'): (60, 104, 2046, 8184, '9659a47e097202c0'),
    ('faulty_pull', 'oracle'): (60, 104, 2046, 8184, '9659a47e097202c0'),
    ('faulty_push_sequential', 'array'): (117, 104, 2620, 10480, '9638549b84f793f5'),
    ('faulty_push_sequential', 'oracle'): (117, 104, 2620, 10480, '9638549b84f793f5'),
    ('faulty_pull_sequential', 'array'): (110, 104, 3801, 15204, '8f485f470b115f6a'),
    ('faulty_pull_sequential', 'oracle'): (110, 104, 3801, 15204, '8f485f470b115f6a'),
    ('churn_push', 'array'): (68, 101, 2176, 8704, 'a0a6ca990f773152'),
    ('churn_push', 'oracle'): (68, 101, 2176, 8704, 'a0a6ca990f773152'),
    ('churn_faulty_pull', 'array'): (73, 103, 2439, 9756, '8851672c05fc6082'),
    ('churn_faulty_pull', 'oracle'): (73, 103, 2439, 9756, '8851672c05fc6082'),
    ('scheduled_push', 'array'): (87, 104, 1374, 5496, '70f62aa2058e2d42'),
    ('scheduled_push', 'oracle'): (87, 104, 1374, 5496, '70f62aa2058e2d42'),
    ('scheduled_flooding', 'array'): (5, 104, 311, 13056, '96902ad360363bbb'),
    ('scheduled_flooding', 'oracle'): (5, 104, 311, 13056, '63ba4e144ab994b7'),
    ('sharded_flooding', 'array'): (3, 104, 224, 6272, '0e47a70c06613f69'),
    ('sharded_name_dropper', 'array'): (7, 104, 112, 4368, '08b283168ff0d3ab'),
    ('sharded_pointer_jump', 'array'): (5, 104, 160, 2236, 'b114877697b44ce3'),
    ('sharded_pointer_jump_directed', 'array'): (6, 80, 120, 1336, '983407a6208f607e'),
}


@pytest.mark.parametrize(
    "name,substrate", [(name, sub) for name in CASES for sub in SUBSTRATES[name]]
)
def test_lane_matches_pin(name, substrate):
    assert trace(name, substrate) == LANE_PINS[(name, substrate)]


if __name__ == "__main__":
    print("LANE_PINS = {")
    for name in CASES:
        for substrate in SUBSTRATES[name]:
            print(f"    ({name!r}, {substrate!r}): {trace(name, substrate)!r},")
    print("}")
