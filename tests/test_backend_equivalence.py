"""Oracle equivalence: the array graphs reproduce the reference oracle's seeded traces.

The vectorized kernels on :class:`ArrayGraph` are only trustworthy if they
are *bit-identical* to the per-node reference paths a process takes on a
:class:`DynamicGraph` with the same neighbour rows: same RNG stream
consumption, same neighbour choices, same per-round added edges, same
totals.  These tests run every process to convergence on seeded graph
families, once on the generator's array graph and once on its
``to_dynamic()`` oracle twin, and compare everything the trace exposes.
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
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.graphs.adjacency import DynamicGraph
from repro.graphs.array_adjacency import ArrayGraph
from repro.simulation.engine import make_process

SEEDS = [0, 7, 20120614]

UNDIRECTED_FAMILIES = {
    "path": lambda: gen.path_graph(28),
    "star": lambda: gen.star_graph(28),
    # the registered experiment family (connectivity-repaired Erdős–Rényi)
    "erdos_renyi": lambda: gen.make_family("erdos_renyi", 28, np.random.default_rng(99)),
}

DIRECTED_FAMILIES = {
    "bidirected_path": lambda: dgen.bidirected_path(16),
    "bidirected_star": lambda: dgen.bidirected_star(16),
    "random_strong": lambda: dgen.random_strongly_connected_digraph(
        16, rng=np.random.default_rng(99)
    ),
}


def on_graph(base_graph, kind):
    """A fresh copy of ``base_graph``: the ``"array"`` graph or its ``"list"`` oracle twin."""
    return base_graph.to_dynamic() if kind == "list" else base_graph.copy()


def run_trace(process_cls, base_graph, seed, kind, normalize=False, **kwargs):
    """Run to convergence and return every trace-visible quantity.

    ``normalize=True`` canonicalises undirected edge orientation — needed
    for flooding, whose packed round reports new edges as ``u < v`` while
    the reference loop records them in delivery orientation (same edge sets).
    """
    graph = on_graph(base_graph, kind)
    process = process_cls(graph, rng=seed, **kwargs)
    result = process.run_to_convergence(record_history=True)

    def canon(u, v):
        u, v = int(u), int(v)
        return (u, v) if not normalize or u < v else (v, u)

    per_round_added = [
        frozenset(canon(u, v) for u, v in r.added_edges) for r in result.history
    ]
    return {
        "rounds": result.rounds,
        "converged": result.converged,
        "added": per_round_added,
        "messages": result.total_messages,
        "bits": result.total_bits,
        "edges": sorted((int(u), int(v)) for u, v in process.graph.edge_list()),
    }


class TestUndirectedEquivalence:
    @pytest.mark.parametrize("family", sorted(UNDIRECTED_FAMILIES))
    @pytest.mark.parametrize("process_cls", [PushDiscovery, PullDiscovery])
    def test_push_pull_trace_identical(self, process_cls, family):
        base = UNDIRECTED_FAMILIES[family]()
        for seed in SEEDS:
            ref = run_trace(process_cls, base, seed, "list")
            fast = run_trace(process_cls, base, seed, "array")
            assert ref["rounds"] == fast["rounds"]
            assert ref["converged"] and fast["converged"]
            assert ref["added"] == fast["added"]
            assert ref["messages"] == fast["messages"]
            assert ref["bits"] == fast["bits"]
            assert ref["edges"] == fast["edges"]

    def test_push_without_replacement_trace_identical(self):
        base = gen.path_graph(20)
        ref = run_trace(PushDiscovery, base, 5, "list", without_replacement=True)
        fast = run_trace(PushDiscovery, base, 5, "array", without_replacement=True)
        assert ref == fast

    @pytest.mark.parametrize("process_cls", [FaultyPushDiscovery, FaultyPullDiscovery])
    def test_faulty_variants_trace_identical(self, process_cls):
        base = gen.path_graph(20)
        kwargs = {"failure_prob": 0.25, "participation_prob": 0.75}
        ref = run_trace(process_cls, base, 11, "list", **kwargs)
        fast = run_trace(process_cls, base, 11, "array", **kwargs)
        assert ref == fast


class TestBaselineEquivalence:
    """The three baselines are trace-identical on the oracle too."""

    @pytest.mark.parametrize("family", sorted(UNDIRECTED_FAMILIES))
    @pytest.mark.parametrize(
        "process_cls", [NameDropper, RandomPointerJump, NeighborhoodFlooding]
    )
    def test_baseline_trace_identical(self, process_cls, family):
        base = UNDIRECTED_FAMILIES[family]()
        for seed in SEEDS:
            ref = run_trace(process_cls, base, seed, "list", normalize=True)
            fast = run_trace(process_cls, base, seed, "array", normalize=True)
            assert ref == fast

    @pytest.mark.parametrize("family", sorted(DIRECTED_FAMILIES))
    def test_directed_pointer_jump_trace_identical(self, family):
        base = DIRECTED_FAMILIES[family]()
        for seed in SEEDS:
            ref = run_trace(RandomPointerJump, base, seed, "list")
            fast = run_trace(RandomPointerJump, base, seed, "array")
            assert ref == fast

    @pytest.mark.parametrize("process_cls", [NameDropper, RandomPointerJump])
    def test_sequential_baseline_trace_identical(self, process_cls):
        """Sequential rounds use scalar draws; both graphs consume the same stream."""
        base = gen.path_graph(18)
        ref = run_trace(
            process_cls, base, 13, "list", semantics=UpdateSemantics.SEQUENTIAL
        )
        fast = run_trace(
            process_cls, base, 13, "array", semantics=UpdateSemantics.SEQUENTIAL
        )
        assert ref == fast

    @pytest.mark.parametrize("process_cls", [NameDropper, RandomPointerJump])
    def test_exact_added_order_parity(self, process_cls):
        """Name Dropper / pointer jump packed rounds reproduce the exact edge
        application order of the reference loop (not just the sets) — the
        invariant that keeps neighbour rows, and hence future draws, aligned."""
        base = gen.cycle_graph(24)
        runs = {}
        for kind in ("list", "array"):
            process = process_cls(on_graph(base, kind), rng=9)
            result = process.run_to_convergence(record_history=True)
            runs[kind] = [
                [(int(u), int(v)) for u, v in r.added_edges] for r in result.history
            ]
        assert runs["list"] == runs["array"]


class TestDirectedEquivalence:
    @pytest.mark.parametrize("family", sorted(DIRECTED_FAMILIES))
    def test_directed_trace_identical(self, family):
        base = DIRECTED_FAMILIES[family]()
        for seed in SEEDS:
            ref = run_trace(DirectedTwoHopWalk, base, seed, "list")
            fast = run_trace(DirectedTwoHopWalk, base, seed, "array")
            assert ref["rounds"] == fast["rounds"]
            assert ref["converged"] and fast["converged"]
            assert ref["added"] == fast["added"]
            assert ref["messages"] == fast["messages"]
            assert ref["bits"] == fast["bits"]
            assert ref["edges"] == fast["edges"]


class TestEngineOnEitherGraph:
    def test_make_process_oracle_equivalence(self):
        base = gen.cycle_graph(24)
        results = {}
        for kind in ("list", "array"):
            proc = make_process("push", on_graph(base, kind), rng=17)
            run = proc.run_to_convergence()
            results[kind] = (run.rounds, run.total_messages, run.total_bits)
        assert results["list"] == results["array"]

    @pytest.mark.parametrize("name", ["name_dropper", "pointer_jump", "flooding"])
    def test_make_process_runs_baselines_on_either_graph(self, name):
        """Baselines run on the array graph and the oracle with identical seeded totals."""
        base = gen.cycle_graph(16)
        results = {}
        for kind, graph_cls in (("list", DynamicGraph), ("array", ArrayGraph)):
            proc = make_process(name, on_graph(base, kind), rng=3)
            assert type(proc.graph) is graph_cls
            run = proc.run_to_convergence()
            assert run.converged
            results[kind] = (run.rounds, run.total_messages, run.total_bits)
        assert results["list"] == results["array"]

    def test_pointer_jump_classifies_array_graphs(self):
        """Handed an array graph directly, pointer jump picks the right mode."""
        directed = make_process("pointer_jump_directed", dgen.directed_cycle(8), rng=0)
        assert directed._directed
        assert directed.run_to_convergence().converged
        undirected = make_process("pointer_jump", gen.cycle_graph(8), rng=0)
        assert not undirected._directed
        assert undirected.run_to_convergence().converged

    def test_process_runs_on_the_graph_it_is_given(self):
        base = gen.cycle_graph(12)
        assert PushDiscovery(base, rng=0).graph is base
        oracle = base.to_dynamic()
        assert PushDiscovery(oracle, rng=0).graph is oracle

    def test_neighbor_rows_stay_aligned_after_convergence(self):
        """The strong invariant behind trace equality: identical row order."""
        base = gen.path_graph(18)
        ref = PushDiscovery(base.to_dynamic(), rng=9)
        ref.run_to_convergence()
        fast = PushDiscovery(base.copy(), rng=9)
        fast.run_to_convergence()
        for u in range(base.n):
            assert list(ref.graph.neighbors(u)) == fast.graph.neighbors(u).tolist()


@pytest.mark.slow
class TestLargeEquivalenceSweep:
    """Full-size sweep (n close to the benchmark scale); run with -m slow."""

    def test_push_large_cycle_trace_identical(self):
        base = gen.cycle_graph(96)
        ref = run_trace(PushDiscovery, base, 20120614, "list")
        fast = run_trace(PushDiscovery, base, 20120614, "array")
        assert ref == fast

    def test_pull_large_er_trace_identical(self):
        base = gen.erdos_renyi_graph(96, 0.08, rng=np.random.default_rng(1))
        ref = run_trace(PullDiscovery, base, 20120614, "list")
        fast = run_trace(PullDiscovery, base, 20120614, "array")
        assert ref == fast
