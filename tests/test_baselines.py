"""Unit tests for the baseline algorithms (Name Dropper, Pointer Jump, Flooding)."""

import numpy as np
import pytest

from repro.baselines.flooding import NeighborhoodFlooding
from repro.baselines.name_dropper import NameDropper
from repro.baselines.pointer_jump import RandomPointerJump
from repro.core.base import UpdateSemantics
from repro.core.push import PushDiscovery
from repro.graphs import directed_generators as dgen
from repro.graphs import generators as gen
from repro.graphs.adjacency import DynamicDiGraph
from repro.graphs.closure import is_transitively_closed


class TestNameDropper:
    def test_requires_undirected(self):
        with pytest.raises(TypeError):
            NameDropper(DynamicDiGraph(3, [(0, 1)]))

    def test_requires_undirected_array_backend(self):
        with pytest.raises(TypeError):
            NameDropper(dgen.directed_cycle(6))

    def test_rejects_non_graph_objects(self):
        with pytest.raises(TypeError, match="protocol"):
            NameDropper(type("NotAGraph", (), {"directed": False})())

    def test_accepts_array_graph(self):
        graph = gen.cycle_graph(12)
        proc = NameDropper(graph, rng=0)
        assert proc.run_to_convergence().converged
        assert graph.is_complete()

    def test_converges_fast(self):
        g = gen.path_graph(16)
        proc = NameDropper(g, rng=0)
        result = proc.run_to_convergence()
        assert result.converged
        assert g.is_complete()
        # polylogarithmic: far fewer rounds than n
        assert result.rounds < 16

    def test_messages_are_large(self):
        g = gen.complete_graph(16)
        # one step on an (almost) complete graph sends ~n IDs per message
        g2 = gen.complete_minus_matching(16, 1)
        proc = NameDropper(g2, rng=0)
        result = proc.step()
        id_bits = int(np.ceil(np.log2(16)))
        # each of the 16 nodes sends one message with ~15 IDs
        assert result.bits_sent > 16 * 10 * id_bits

    def test_round_cap_polylog(self):
        # Name Dropper's safety cap is polylogarithmic, hence far below the
        # O(n log^2 n)-shaped cap of the push process at the same size.
        nd_cap = NameDropper(gen.cycle_graph(64), rng=0).default_round_cap()
        push_cap = PushDiscovery(gen.cycle_graph(64), rng=0).default_round_cap()
        assert nd_cap < push_cap / 10

    def test_propose_not_used(self):
        proc = NameDropper(gen.cycle_graph(8), rng=0)
        with pytest.raises(NotImplementedError):
            proc.propose(0)

    def test_much_fewer_rounds_than_push(self):
        nd_rounds = NameDropper(gen.cycle_graph(24), rng=1).run_to_convergence().rounds
        push_rounds = PushDiscovery(gen.cycle_graph(24), rng=1).run_to_convergence().rounds
        assert nd_rounds < push_rounds


class TestNameDropperDrawStream:
    """The RNG contract of both update semantics, pinned generator-state-exact."""

    @pytest.mark.parametrize("substrate", ["list", "array"])
    def test_sequential_draws_once_per_active_node(self, substrate):
        """Regression for the double-draw bug: one ``rng.integers`` per active
        node, and the round's effect equals the manual index-order replay
        (the old code pre-sampled a discarded pass first, consuming two
        draws per node and corrupting the sampling stream)."""
        base = gen.path_graph(10)
        proc = NameDropper(
            base.to_dynamic() if substrate == "list" else base.copy(),
            rng=np.random.default_rng(123),
            semantics=UpdateSemantics.SEQUENTIAL,
        )
        proc.step()
        replay = base.copy()
        rng = np.random.default_rng(123)
        for u in replay.nodes():
            nbrs = list(replay.neighbors(u))
            if not nbrs:
                continue
            v = nbrs[int(rng.integers(len(nbrs)))]
            for w in nbrs + [u]:
                if w != v:
                    replay.add_edge(v, w)
        assert sorted(map(tuple, proc.graph.edge_list())) == replay.edge_list()
        # Identical generator states <=> identical draw counts and kinds.
        assert proc.rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("substrate", ["list", "array"])
    def test_synchronous_consumes_one_bulk_draw(self, substrate):
        """A synchronous round consumes exactly ``rng.random(n)`` — the shared
        bulk-draw convention that makes the oracle trace-identical."""
        base = gen.path_graph(10)
        proc = NameDropper(
            base.to_dynamic() if substrate == "list" else base, rng=np.random.default_rng(7)
        )
        proc.step()
        rng = np.random.default_rng(7)
        rng.random(10)
        assert proc.rng.bit_generator.state == rng.bit_generator.state

    def test_sequential_differs_from_synchronous(self):
        """Same seed, different semantics: sequential nodes exploit edges added
        earlier in the same round, so the first round already diverges."""
        base = gen.star_graph(9)
        sync = NameDropper(base.copy(), rng=2, semantics=UpdateSemantics.SYNCHRONOUS)
        seq = NameDropper(base.copy(), rng=2, semantics=UpdateSemantics.SEQUENTIAL)
        sync_added = sync.step().num_added
        seq_added = seq.step().num_added
        # The star's hub name-drop floods a leaf with every ID; under
        # sequential semantics later leaves can already use those edges.
        assert sync_added != seq_added or sync.graph.edge_list() != seq.graph.edge_list()


class TestRandomPointerJump:
    def test_undirected_converges_to_complete(self):
        g = gen.cycle_graph(12)
        proc = RandomPointerJump(g, rng=0)
        result = proc.run_to_convergence()
        assert result.converged
        assert g.is_complete()

    def test_directed_converges_to_closure(self):
        g = dgen.directed_cycle(8)
        proc = RandomPointerJump(g, rng=0)
        result = proc.run_to_convergence()
        assert result.converged
        assert is_transitively_closed(g)
        assert g.number_of_edges() == 8 * 7

    def test_directed_weakly_connected(self):
        g = dgen.layered_dag(3, 2)
        proc = RandomPointerJump(g, rng=1)
        assert proc.run_to_convergence().converged
        assert is_transitively_closed(g)

    def test_propose_not_used(self):
        with pytest.raises(NotImplementedError):
            RandomPointerJump(gen.cycle_graph(6), rng=0).propose(0)

    def test_public_apply_edge_keeps_directed_closure_deficit(self):
        """An edge inserted through the public ``apply_edge`` leaves the
        directed closure deficit, so the run still reports convergence."""
        g = dgen.directed_path(5)
        proc = RandomPointerJump(g, rng=0)
        assert proc.apply_edge((0, 4))
        assert (0, 4) not in proc._missing
        result = proc.run_to_convergence()
        assert result.converged
        assert is_transitively_closed(g)

    def test_already_converged_digraph(self):
        g = dgen.complete_digraph(5)
        proc = RandomPointerJump(g, rng=0)
        assert proc.is_converged()
        assert proc.run_to_convergence().rounds == 0

    def test_directed_array_backend_converges_to_closure(self):
        g = dgen.directed_cycle(8)
        proc = RandomPointerJump(g, rng=0)
        assert proc.run_to_convergence().converged
        assert is_transitively_closed(g)
        assert g.number_of_edges() == 8 * 7

    def test_sequential_semantics_sees_same_round_edges(self):
        """Sequential pointer jump applies immediately: later nodes can pull
        neighbour sets that already grew this round."""
        proc = RandomPointerJump(
            gen.path_graph(12), rng=3, semantics=UpdateSemantics.SEQUENTIAL
        )
        result = proc.run_to_convergence()
        assert result.converged
        assert proc.graph.is_complete()


class TestNeighborhoodFlooding:
    def test_requires_undirected(self):
        with pytest.raises(TypeError):
            NeighborhoodFlooding(DynamicDiGraph(3, [(0, 1)]))

    def test_requires_undirected_array_backend(self):
        with pytest.raises(TypeError):
            NeighborhoodFlooding(dgen.directed_cycle(6))

    def test_accepts_array_graph(self):
        graph = gen.path_graph(17)
        proc = NeighborhoodFlooding(graph, rng=0)
        result = proc.run_to_convergence()
        assert result.converged
        assert graph.is_complete()
        assert result.rounds <= 6

    def test_packed_round_accounting_matches_reference(self):
        """One packed round reports the same messages/bits/added-edge set as
        the reference triple loop on the same starting graph."""
        base = gen.make_family("erdos_renyi", 24, np.random.default_rng(5))
        ref = NeighborhoodFlooding(base.to_dynamic(), rng=0).step()
        fast = NeighborhoodFlooding(base.copy(), rng=0).step()
        assert fast.messages_sent == ref.messages_sent
        assert fast.bits_sent == ref.bits_sent
        canon = lambda edges: {tuple(sorted((int(u), int(v)))) for u, v in edges}
        assert canon(fast.added_edges) == canon(ref.added_edges)

    def test_packed_round_skips_proposal_materialisation(self):
        """The packed round never builds the Θ(n·m) proposal list (documented
        contract: accounting and added_edges are exact, proposals stay empty)."""
        proc = NeighborhoodFlooding(gen.cycle_graph(12), rng=0)
        result = proc.step()
        assert result.num_added > 0
        assert result.proposed_edges == []

    def test_converges_in_log_diameter_rounds(self):
        g = gen.path_graph(17)  # diameter 16
        proc = NeighborhoodFlooding(g, rng=0)
        result = proc.run_to_convergence()
        assert result.converged
        assert g.is_complete()
        # knowledge radius roughly doubles per round: ceil(log2(16)) + small slack
        assert result.rounds <= 6

    def test_propose_not_used(self):
        with pytest.raises(NotImplementedError):
            NeighborhoodFlooding(gen.cycle_graph(6), rng=0).propose(0)

    def test_uses_far_more_bits_per_round_than_push(self):
        flood_g = gen.cycle_graph(16)
        flood = NeighborhoodFlooding(flood_g, rng=0)
        flood_result = flood.run_to_convergence()
        push_g = gen.cycle_graph(16)
        push = PushDiscovery(push_g, rng=0)
        push.step()
        flood_bits_per_round = flood_result.total_bits / flood_result.rounds
        assert flood_bits_per_round > 10 * push.total_bits


class TestBaselineComparison:
    def test_rounds_ordering_flooding_namedropper_push(self):
        """The round-complexity ordering the paper describes: flooding <= name dropper << push."""
        seeds = [0, 1]
        flood = np.mean(
            [NeighborhoodFlooding(gen.cycle_graph(20), rng=s).run_to_convergence().rounds for s in seeds]
        )
        nd = np.mean(
            [NameDropper(gen.cycle_graph(20), rng=s).run_to_convergence().rounds for s in seeds]
        )
        push = np.mean(
            [PushDiscovery(gen.cycle_graph(20), rng=s).run_to_convergence().rounds for s in seeds]
        )
        assert flood <= nd <= push
        assert push > 5 * nd
