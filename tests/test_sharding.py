"""The sharded round engine's trace contract and plumbing.

Only the row-OR processes (flooding, Name Dropper, pointer jump) shard.
Three-way contract (see :mod:`repro.simulation.sharding`):

* ``shards=1`` delegates to the wrapped process — draw-for-draw identical
  to the unsharded process;
* a fixed ``(seed, shard count)`` always reproduces the same trajectory,
  in-process and on the process pool alike;
* the per-round shard streams are shard-count invariant, so the edge
  trajectory is *identical* for any ``shards >= 2`` (trivially so for the
  deterministic flooding).

Push, pull, the directed walk and the faulty variants are refused.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.flooding import NeighborhoodFlooding
from repro.baselines.name_dropper import NameDropper
from repro.baselines.pointer_jump import RandomPointerJump
from repro.core.base import UpdateSemantics
from repro.core.directed import DirectedTwoHopWalk
from repro.core.pull import PullDiscovery
from repro.core.push import PushDiscovery
from repro.core.variants import FaultyPullDiscovery, FaultyPushDiscovery
from repro.graphs import bitset
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.simulation.engine import PROCESS_REGISTRY, make_process
from repro.simulation.experiment import ExperimentSpec
from repro.simulation.runner import run_trials
from repro.simulation.sharding import SHARDABLE_PROCESSES, ShardPlan, ShardedProcess


def canon(edges):
    return [tuple(sorted((int(u), int(v)))) for u, v in edges]


def trajectory(process_cls, n, seed, shards, rounds=6, parallel=False, **kwargs):
    """Per-round canonical added-edge lists of a sharded run."""
    process = process_cls(gen.cycle_graph(n), rng=seed, **kwargs)
    with ShardedProcess(process, shards=shards, parallel=parallel) as sharded:
        return [sorted(canon(sharded.step().added_edges)) for _ in range(rounds)]


def directed_trajectory(process_cls, n, seed, shards, rounds=6, parallel=False):
    """Per-round ordered added-edge lists of a sharded run on a strong digraph."""
    process = process_cls(dgen.thm15_strong_lower_bound(n), rng=seed)
    with ShardedProcess(process, shards=shards, parallel=parallel) as sharded:
        return [
            sorted((int(u), int(v)) for u, v in sharded.step().added_edges)
            for _ in range(rounds)
        ]


class TestShardPlan:
    def test_bounds_cover_rows_contiguously(self):
        plan = ShardPlan(10, 3)
        assert plan.bounds == [(0, 3), (3, 6), (6, 10)]
        assert plan.bounds[0][0] == 0 and plan.bounds[-1][1] == 10
        for (_, hi), (lo, _) in zip(plan.bounds, plan.bounds[1:]):
            assert hi == lo

    def test_shards_clamped_to_n(self):
        assert ShardPlan(4, 9).shards == 4
        assert ShardPlan(0, 3).shards == 1

    def test_invalid_counts_raise(self):
        with pytest.raises(ValueError):
            ShardPlan(8, 0)
        with pytest.raises(ValueError):
            ShardPlan(-1, 2)


class TestShardMergeKernels:
    def test_or_into_range_matches_reference(self):
        rng = np.random.default_rng(0)
        mat = rng.random((9, 130)) < 0.3
        block = rng.random((4, 130)) < 0.3
        dst = bitset.pack_bool_matrix(mat)
        bitset.or_into_range(dst, 3, bitset.pack_bool_matrix(block))
        ref = mat.copy()
        ref[3:7] |= block
        assert np.array_equal(bitset.unpack_bool_matrix(dst, 130), ref)

    def test_or_into_range_rejects_bad_ranges(self):
        dst = bitset.zeros(4, 64)
        with pytest.raises(ValueError):
            bitset.or_into_range(dst, 2, bitset.zeros(3, 64))
        with pytest.raises(ValueError):
            bitset.or_into_range(dst, 0, bitset.zeros(2, 128))

    def test_delta_rows_edges_and_ranges(self):
        base = bitset.zeros(6, 6)
        bitset.set_bit(base, 0, 1)
        bitset.set_bit(base, 1, 0)
        delta = bitset.DeltaRows(6, 6)
        # duplicate proposals and an already-present edge collapse correctly
        delta.add_edges(np.array([0, 2, 2]), np.array([1, 4, 4]))
        block = bitset.zeros(2, 6)
        bitset.set_bit(block, 0, 5)  # row 3 learns 5
        bitset.set_bit(block, 1, 3)  # row 4 learns 3 (mirror of a row-block merge)
        delta.or_into_range(3, block)
        us, vs = delta.new_edges(base)
        assert list(zip(us.tolist(), vs.tolist())) == [(2, 4), (3, 5)]

    def test_delta_rows_directed_drops_self_loops_only(self):
        delta = bitset.DeltaRows(4, 4)
        delta.add_edges(np.array([1, 2, 3]), np.array([0, 2, 1]), directed=True)
        us, vs = delta.new_edges(bitset.zeros(4, 4), directed=True)
        assert list(zip(us.tolist(), vs.tolist())) == [(1, 0), (3, 1)]


class TestTraceContract:
    def test_flooding_sharded_equals_unsharded_rounds(self):
        """Flooding draws no randomness: sharded rounds add the same edge sets."""
        plain = NeighborhoodFlooding(gen.cycle_graph(32), rng=0)
        ref = []
        while not plain.is_converged():
            ref.append(sorted(canon(plain.step().added_edges)))
        for shards in (2, 3):
            proc = NeighborhoodFlooding(gen.cycle_graph(32), rng=0)
            with ShardedProcess(proc, shards=shards, parallel=False) as sharded:
                got = []
                while not sharded.is_converged():
                    got.append(sorted(canon(sharded.step().added_edges)))
            assert got == ref
            assert proc.total_messages == plain.total_messages
            assert proc.total_bits == plain.total_bits

    def test_run_to_convergence_completes_the_graph(self):
        proc = NameDropper(gen.cycle_graph(16), rng=1)
        with ShardedProcess(proc, shards=2) as sharded:
            result = sharded.run_to_convergence(record_history=True)
        assert result.converged
        assert proc.graph.is_complete()
        assert result.rounds == len(result.history)
        assert sum(r.num_added for r in result.history) == result.total_edges_added


class TestFullRegistryTraceContract:
    """The payload baselines (Name Dropper, pointer jump) shard like flooding."""

    def test_shardable_set_is_the_row_or_kinds(self):
        assert set(SHARDABLE_PROCESSES) == {
            NeighborhoodFlooding,
            NameDropper,
            RandomPointerJump,
        }

    @pytest.mark.parametrize("process_cls", [NameDropper, RandomPointerJump])
    def test_shards_1_is_draw_for_draw_unsharded_payload(self, process_cls):
        plain = process_cls(gen.cycle_graph(20), rng=5)
        ref = [sorted(canon(plain.step().added_edges)) for _ in range(6)]
        wrapped = process_cls(gen.cycle_graph(20), rng=5)
        sharded = ShardedProcess(wrapped, shards=1)
        got = [sorted(canon(sharded.step().added_edges)) for _ in range(6)]
        assert got == ref
        assert plain.rng.bit_generator.state == wrapped.rng.bit_generator.state

    @pytest.mark.parametrize("process_cls", [NameDropper, RandomPointerJump])
    def test_fixed_seed_fixed_trajectory_payload(self, process_cls):
        assert trajectory(process_cls, 24, 7, shards=3) == trajectory(
            process_cls, 24, 7, shards=3
        )

    @pytest.mark.parametrize("process_cls", [NameDropper, RandomPointerJump])
    def test_cross_shard_count_equivalence_payload(self, process_cls):
        reference = trajectory(process_cls, 24, 7, shards=2)
        for shards in (3, 4, 5):
            assert trajectory(process_cls, 24, 7, shards=shards) == reference

    def test_cross_shard_count_equivalence_directed_pointer_jump(self):
        reference = directed_trajectory(RandomPointerJump, 20, 9, shards=2)
        for shards in (3, 4):
            assert directed_trajectory(RandomPointerJump, 20, 9, shards=shards) == reference

    @pytest.mark.parametrize("process_cls", [NameDropper, RandomPointerJump])
    def test_sharded_payload_rounds_complete_the_graph(self, process_cls):
        proc = process_cls(gen.cycle_graph(16), rng=1)
        with ShardedProcess(proc, shards=2) as sharded:
            result = sharded.run_to_convergence()
        assert result.converged
        assert proc.graph.is_complete()

    def test_sharded_directed_pointer_jump_tracks_closure(self):
        proc = RandomPointerJump(
            dgen.thm15_strong_lower_bound(12), rng=2
        )
        with ShardedProcess(proc, shards=3) as sharded:
            result = sharded.run_to_convergence()
        assert result.converged
        assert proc.is_converged()
        assert not proc._missing

    @pytest.mark.parametrize(
        "process_cls, graph_factory",
        [
            (NameDropper, lambda: gen.star_graph(20)),
            (RandomPointerJump, lambda: gen.cycle_graph(20)),
        ],
    )
    def test_round_accounting_matches_unsharded_start_state(
        self, process_cls, graph_factory
    ):
        """Messages are activation-shaped: round 0 matches the unsharded round 0."""
        plain = process_cls(graph_factory(), rng=3)
        ref = plain.step()
        proc = process_cls(graph_factory(), rng=3)
        with ShardedProcess(proc, shards=4) as sharded:
            got = sharded.step()
        assert got.messages_sent == ref.messages_sent
        if process_cls is NameDropper:
            # name-dropper payload sizes depend only on the round-start degrees
            assert got.bits_sent == ref.bits_sent

    @pytest.mark.parametrize("process_cls", [NameDropper, RandomPointerJump])
    def test_parallel_matches_serial_new_kinds(self, process_cls):
        serial = trajectory(process_cls, 24, 5, shards=3, rounds=4)
        parallel = trajectory(process_cls, 24, 5, shards=3, rounds=4, parallel=True)
        assert parallel == serial


class TestParallelPath:
    """The process-pool path is semantics-identical to the in-process path."""

    def test_parallel_flooding_matches_serial(self):
        serial = trajectory(NeighborhoodFlooding, 32, 0, shards=3, rounds=4)
        parallel = trajectory(
            NeighborhoodFlooding, 32, 0, shards=3, rounds=4, parallel=True
        )
        assert parallel == serial


class TestValidation:
    @pytest.mark.parametrize(
        "process",
        [
            lambda: PushDiscovery(gen.cycle_graph(8), rng=0),
            lambda: PullDiscovery(gen.cycle_graph(8), rng=0),
            lambda: DirectedTwoHopWalk(dgen.directed_cycle(8), rng=0),
            lambda: FaultyPushDiscovery(gen.cycle_graph(8), failure_prob=0.1, rng=0),
            lambda: FaultyPullDiscovery(gen.cycle_graph(8), failure_prob=0.1, rng=0),
        ],
        ids=["push", "pull", "directed_pull", "faulty_push", "faulty_pull"],
    )
    def test_rejects_unshardable_process(self, process):
        # The gossip kinds propose O(n) edges a round, so sharding never
        # pays and they have no kernel.  Kernel registration is exact-type:
        # a subclass that customises the round must opt in explicitly.
        with pytest.raises(ValueError, match="no sharded round kernel"):
            ShardedProcess(process(), shards=2)

    def test_rejects_list_backend(self):
        with pytest.raises(ValueError, match="reference oracle"):
            ShardedProcess(NameDropper(gen.cycle_graph(8).to_dynamic(), rng=0), shards=2)

    def test_rejects_sequential_semantics(self):
        proc = NameDropper(
            gen.cycle_graph(8), rng=0, semantics=UpdateSemantics.SEQUENTIAL
        )
        with pytest.raises(ValueError, match="synchronous"):
            ShardedProcess(proc, shards=2)

    def test_rejects_patched_activation(self):
        from repro.core.scheduler import FixedSubsetActivation, ScheduledProcess

        proc = NameDropper(gen.cycle_graph(8), rng=0)
        ScheduledProcess(proc, FixedSubsetActivation([0, 1]))
        with pytest.raises(ValueError, match="full activation"):
            ShardedProcess(proc, shards=2)

    def test_schedule_cannot_wrap_sharded_process(self):
        """The reverse composition is rejected too: a schedule patched onto a
        ShardedProcess would be a silent no-op (multi-shard rounds assume
        full activation) — the exact bug class this PR's headline fix closed."""
        from repro.core.scheduler import FixedSubsetActivation, ScheduledProcess

        proc = NameDropper(gen.cycle_graph(8), rng=0)
        sharded = ShardedProcess(proc, shards=2)
        with pytest.raises(TypeError, match="inner process"):
            ScheduledProcess(sharded, FixedSubsetActivation([0, 1]))


class TestHarnessPlumbing:
    def test_make_process_requires_array_backend_for_shards(self):
        with pytest.raises(ValueError, match="packed rows"):
            make_process("flooding", gen.cycle_graph(8).to_dynamic(), rng=0, shards=2)

    def test_make_process_accepts_graph_already_on_array_backend(self):
        """The generators' array graphs pass the shard gate as built."""
        proc = make_process("flooding", gen.cycle_graph(8), rng=0, shards=2)
        assert isinstance(proc, ShardedProcess)
        proc.close()

    def test_make_process_rejects_nonpositive_shards(self):
        for shards in (0, -2):
            with pytest.raises(ValueError, match=">= 1"):
                make_process("push", gen.cycle_graph(8), rng=0, shards=shards)

    @pytest.mark.parametrize(
        "name", ["push", "pull", "directed_pull", "faulty_push", "faulty_pull"]
    )
    def test_make_process_refuses_gossip_shards_by_name(self, name):
        """The refusal names the registry entry and the shardable ones, and
        comes before the process (or its graph check) is built."""
        ctor, needs_directed = PROCESS_REGISTRY[name]
        with pytest.raises(ValueError) as excinfo:
            make_process(name, gen.cycle_graph(8).to_dynamic(), rng=0, shards=2)
        message = str(excinfo.value)
        assert repr(name) in message and ctor.__name__ not in message
        assert "'flooding'" in message and "'name_dropper'" in message
        # shards=1 builds every process as before
        graph = dgen.directed_cycle(8) if needs_directed else gen.cycle_graph(8)
        assert type(make_process(name, graph, rng=0, shards=1)) is ctor

    def test_make_process_builds_sharded_wrapper(self):
        proc = make_process("name_dropper", gen.cycle_graph(12), rng=0, shards=3)
        assert isinstance(proc, ShardedProcess)
        assert proc.shards == 3
        run = proc.run_to_convergence()
        proc.close()
        assert run.converged

    def test_run_trials_with_shards_is_deterministic(self):
        spec = ExperimentSpec(
            process="name_dropper",
            family="cycle",
            n=24,
            trials=2,
            shards=2,
            shard_parallel=False,
        )
        a = run_trials(spec, root_seed=99)
        b = run_trials(spec, root_seed=99)
        assert [(t.rounds, t.edges_added, t.messages) for t in a] == [
            (t.rounds, t.edges_added, t.messages) for t in b
        ]
        assert all(t.converged for t in a)

    def test_run_trials_shards_1_matches_presharding_results(self):
        """shards=1 specs reproduce the exact pre-sharding trial results."""
        base = ExperimentSpec(process="pull", family="cycle", n=20, trials=2)
        sharded = ExperimentSpec(
            process="pull", family="cycle", n=20, trials=2, shards=1
        )
        a = run_trials(base, root_seed=7)
        b = run_trials(sharded, root_seed=7)
        assert [(t.rounds, t.edges_added) for t in a] == [
            (t.rounds, t.edges_added) for t in b
        ]
