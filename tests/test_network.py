"""Unit tests for the message-passing substrate (messages, nodes, protocols, simulator).

Every simulator here is :class:`AsyncNetworkSimulator` in its default
configuration — tick 1.0, ``FixedLatency(0.25)``, no churn, partitions or
pings — which is the paper's synchronous round model.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.push import PushDiscovery
from repro.network.async_simulator import AsyncNetworkSimulator
from repro.network.failures import DropUniform, FailureModel, NoFailures
from repro.network.message import LocalityError, Message, MessageKind, id_bits_for
from repro.network.node import NetworkNode
from repro.graphs import generators as gen

#: lock-step trajectories recorded from the retired synchronous round
#: simulator (a FIFO outbox per round, replies drawn from round-start
#: contact snapshots), kept as the spec of the synchronous model.
SYNC_TRAJECTORIES = Path(__file__).parent / "data" / "sync_model_trajectories.json"


class DropKind(FailureModel):
    """Test helper: drop every message of one kind, deliver the rest."""

    def __init__(self, kind: MessageKind) -> None:
        self.kind = kind

    def delivered(self, message: Message, rng: np.random.Generator) -> bool:
        return message.kind is not self.kind


class TestMessage:
    def test_id_bits(self):
        assert id_bits_for(2) == 1
        assert id_bits_for(16) == 4
        assert id_bits_for(17) == 5
        assert id_bits_for(1) == 1

    def test_bits_accounting(self):
        msg = Message(MessageKind.INTRODUCE, 0, 1, (2,))
        assert msg.bits(16) == 4
        bulk = Message(MessageKind.KNOWLEDGE, 0, 1, tuple(range(10)))
        assert bulk.bits(16) == 40
        req = Message(MessageKind.PULL_REQUEST, 0, 1, ())
        assert req.bits(16) == 4  # empty payload still costs one ID


class TestNetworkNode:
    def test_initial_contacts(self):
        node = NetworkNode(3, [1, 2])
        assert node.degree() == 2
        assert node.knows(1) and node.knows(2)
        assert not node.knows(0)

    def test_add_contact_rules(self):
        node = NetworkNode(0)
        assert node.add_contact(1) is True
        assert node.add_contact(1) is False
        assert node.add_contact(0) is False  # never stores itself
        assert node.degree() == 1

    def test_remove_contact(self):
        node = NetworkNode(0, [1, 2, 3])
        assert node.remove_contact(2) is True
        assert node.remove_contact(2) is False  # already gone
        assert list(node.contacts) == [1, 3]
        assert not node.knows(2)

    def test_random_contact(self, rng):
        node = NetworkNode(0, [1, 2, 3])
        seen = {node.random_contact(rng) for _ in range(100)}
        assert seen == {1, 2, 3}
        with pytest.raises(ValueError):
            NetworkNode(0).random_contact(rng)


class TestFailureModels:
    def test_no_failures_always_delivers(self, rng):
        model = NoFailures()
        msg = Message(MessageKind.INTRODUCE, 0, 1, (2,))
        assert all(model.delivered(msg, rng) for _ in range(20))

    def test_drop_uniform_rate(self, rng):
        model = DropUniform(0.5)
        msg = Message(MessageKind.INTRODUCE, 0, 1, (2,))
        delivered = sum(model.delivered(msg, rng) for _ in range(2000))
        assert 850 < delivered < 1150
        with pytest.raises(ValueError):
            DropUniform(1.0)


class TestSimulator:
    @pytest.mark.parametrize("protocol", ["push", "pull", "name_dropper"])
    def test_protocols_converge_to_full_discovery(self, protocol):
        sim = AsyncNetworkSimulator(gen.cycle_graph(10), protocol=protocol, rng=3)
        stats = sim.run_to_convergence(max_ticks=20_000)
        assert sim.is_converged()
        assert stats.ticks > 0
        assert stats.messages_delivered == stats.messages_sent  # no failures by default

    def test_contact_graph_matches_knowledge_graph(self):
        sim = AsyncNetworkSimulator(gen.cycle_graph(8), protocol="push", rng=1)
        for _ in range(20):
            sim.run_ticks(1)
        assert sim.contact_graph() == sim.knowledge_graph

    def test_contacts_stay_symmetric_under_push_and_pull(self):
        for protocol in ("push", "pull"):
            sim = AsyncNetworkSimulator(gen.path_graph(8), protocol=protocol, rng=2)
            for _ in range(30):
                sim.run_ticks(1)
            for node in sim.nodes:
                for c in node.contacts:
                    assert sim.nodes[c].knows(node.node_id)

    def test_push_protocol_matches_graph_process_exactly(self):
        """Same seed + same start graph -> identical evolution, round for round."""
        start = gen.cycle_graph(9)
        sim = AsyncNetworkSimulator(start.copy(), protocol="push", rng=np.random.default_rng(11))
        proc_graph = start.copy()
        proc = PushDiscovery(proc_graph, rng=np.random.default_rng(11))
        for _ in range(25):
            sim.run_ticks(1)
            proc.step()
            assert sim.contact_graph() == proc_graph

    def test_message_failures_are_counted(self):
        sim = AsyncNetworkSimulator(
            gen.cycle_graph(10), protocol="push", rng=4, failures=DropUniform(0.5)
        )
        for _ in range(10):
            sim.run_ticks(1)
        assert sim.stats.messages_dropped > 0
        assert (
            sim.stats.messages_delivered + sim.stats.messages_dropped
            == sim.stats.messages_sent
        )

    def test_push_per_node_bits_stay_logarithmic(self):
        n = 32
        sim = AsyncNetworkSimulator(gen.cycle_graph(n), protocol="push", rng=5)
        for _ in range(50):
            sim.run_ticks(1)
        # push: each node sends 2 messages of one ID each per round
        assert sim.max_bits_per_node_round() <= 2 * id_bits_for(n)

    def test_name_dropper_per_node_bits_grow(self):
        n = 32
        sim = AsyncNetworkSimulator(gen.cycle_graph(n), protocol="name_dropper", rng=5)
        sim.run_to_convergence(max_ticks=100)
        # once knowledge saturates, a single message carries ~n IDs
        assert sim.max_bits_per_node_round() > 5 * id_bits_for(n)

    def test_run_to_convergence_respects_cap(self):
        sim = AsyncNetworkSimulator(gen.cycle_graph(30), protocol="push", rng=0)
        stats = sim.run_to_convergence(max_ticks=3)
        assert stats.ticks == 3
        assert not sim.is_converged()
        with pytest.raises(ValueError):
            sim.run_to_convergence(max_ticks=-1)

    def test_repr(self):
        sim = AsyncNetworkSimulator(gen.cycle_graph(5), protocol="pull", rng=0)
        assert "pull" in repr(sim)


class TestPullReplyRetention:
    """Regression: the requester keeps an ID handed by a delivered PULL_REPLY.

    The old implementation recorded the discovery at *both* endpoints only
    when the follow-up CONNECT was delivered, so dropping CONNECTs made
    the requester forget knowledge it had already received.
    """

    def test_requester_records_reply_even_when_connect_dropped(self):
        sim = AsyncNetworkSimulator(
            gen.cycle_graph(12),
            protocol="pull",
            rng=7,
            failures=DropKind(MessageKind.CONNECT),
        )
        for _ in range(30):
            sim.run_ticks(1)
        # Replies were delivered, so requesters must have learned new IDs
        # even though every CONNECT was lost (before the fix: zero
        # discoveries, every contact list still the initial one).
        assert sim.stats.discoveries > 0
        assert any(node.degree() > 2 for node in sim.nodes)

    def test_discovered_node_only_learns_via_connect(self):
        """The CONNECT keeps its one job: informing the discovered node."""
        sim = AsyncNetworkSimulator(
            gen.cycle_graph(12),
            protocol="pull",
            rng=7,
            failures=DropKind(MessageKind.PULL_REPLY),
        )
        for _ in range(30):
            sim.run_ticks(1)
        # No reply ever arrives, so no requester learns anything and no
        # CONNECT is ever sent: the whole process stalls.
        assert sim.stats.discoveries == 0
        assert all(node.degree() == 2 for node in sim.nodes)

    def test_no_failures_trajectory_unchanged_by_fix(self):
        """Under NoFailures the fix is invisible: same per-round evolution."""
        a = AsyncNetworkSimulator(gen.cycle_graph(10), protocol="pull", rng=21)
        b = AsyncNetworkSimulator(gen.cycle_graph(10), protocol="pull", rng=21)
        for _ in range(15):
            a.run_ticks(1)
            b.run_ticks(1)
            assert a.contact_graph() == b.contact_graph()
        assert a.stats.discoveries == b.stats.discoveries


class TestPerNodeBitAccounting:
    """Regression: max_bits_per_node_round reports the busiest *node*."""

    def test_true_max_differs_from_round_average(self):
        # Star: round 1 of Name Dropper has the centre ship n IDs while
        # every leaf ships 2, so the true per-node max is ~n IDs but the
        # per-node average is ~3.  The old implementation returned the
        # average under the max's name.
        n = 16
        sim = AsyncNetworkSimulator(gen.star_graph(n), protocol="name_dropper", rng=0)
        sim.run_ticks(1)
        id_bits = id_bits_for(n)
        assert sim.max_bits_per_node_round() == n * id_bits
        assert sim.max_round_mean_bits_per_node() <= 4 * id_bits
        assert sim.max_bits_per_node_round() > sim.max_round_mean_bits_per_node()

    def test_per_tick_max_node_bits_tracked(self):
        sim = AsyncNetworkSimulator(gen.cycle_graph(8), protocol="push", rng=1)
        for _ in range(5):
            sim.run_ticks(1)
        assert len(sim.stats.per_tick_max_node_bits) == 5
        assert max(sim.stats.per_tick_max_node_bits) == sim.max_bits_per_node_round()
        # push: nobody ever sends more than two one-ID messages per round.
        assert sim.max_bits_per_node_round() <= 2 * id_bits_for(8)

    def test_empty_simulation_reports_zero(self):
        sim = AsyncNetworkSimulator(gen.cycle_graph(8), protocol="push", rng=1)
        assert sim.max_bits_per_node_round() == 0
        assert sim.max_round_mean_bits_per_node() == 0

    def test_one_complete_entry_per_tick(self):
        # Pull's replies and connects are sent inside the tick that sent
        # the requests, so each tick's entry holds its whole exchange.
        sim = AsyncNetworkSimulator(gen.cycle_graph(10), protocol="pull", rng=4)
        sim.run_ticks(1)
        stats = sim.stats
        assert stats.per_tick_messages == [stats.messages_sent]
        assert stats.messages_sent > 2 * sim.n  # requests, replies and connects
        assert stats.per_tick_bits == [stats.bits_sent]
        sim.run_ticks(2)
        assert len(stats.per_tick_bits) == 3
        assert sum(stats.per_tick_bits) == stats.bits_sent

    def test_liveness_pings_are_not_charged(self):
        sim = AsyncNetworkSimulator(
            gen.cycle_graph(8), protocol="push", rng=1, ping_interval=0.5
        )
        sim.run_ticks(4)
        assert sim.stats.pings_sent > 0
        assert sum(sim.stats.per_tick_messages) == sim.stats.messages_sent
        assert sum(sim.stats.per_tick_bits) == sim.stats.bits_sent


class TestPerCallRoundBudget:
    """Regression: run_to_convergence's max_ticks is a per-call budget."""

    def test_two_consecutive_calls_each_get_the_budget(self):
        sim = AsyncNetworkSimulator(gen.cycle_graph(30), protocol="push", rng=0)
        sim.run_to_convergence(max_ticks=3)
        assert sim.stats.ticks == 3
        # Before the fix this second call compared against the cumulative
        # count and silently ran zero rounds.
        sim.run_to_convergence(max_ticks=3)
        assert sim.stats.ticks == 6
        assert not sim.is_converged()
        with pytest.raises(ValueError):
            sim.run_to_convergence(max_ticks=-1)

    def test_budget_still_stops_at_convergence(self):
        sim = AsyncNetworkSimulator(gen.cycle_graph(8), protocol="name_dropper", rng=2)
        sim.run_to_convergence(max_ticks=10_000)
        rounds = sim.stats.ticks
        assert sim.is_converged()
        sim.run_to_convergence(max_ticks=10_000)
        assert sim.stats.ticks == rounds  # converged: no further rounds


class TestLocalityEnforcement:
    """The simulator rejects sends to IDs the sender was never handed."""

    def test_non_local_send_rejected(self):
        sim = AsyncNetworkSimulator(gen.path_graph(6), protocol="push", rng=0)
        stranger = Message(MessageKind.INTRODUCE, 0, 5, (3,))
        with pytest.raises(LocalityError):
            sim.send(stranger)
        # Nothing was accounted for the rejected message.
        assert sim.stats.messages_sent == 0

    def test_local_send_accepted(self):
        sim = AsyncNetworkSimulator(gen.path_graph(6), protocol="push", rng=0)
        assert sim.send(Message(MessageKind.INTRODUCE, 0, 1, (2,))) is True
        assert sim.stats.messages_sent == 1

    def test_protocols_never_violate_locality(self):
        # Every protocol's full message flow stays within the rule — the
        # pull CONNECT (addressed to a node learned this round) included.
        for protocol in ("push", "pull", "name_dropper"):
            sim = AsyncNetworkSimulator(
                gen.cycle_graph(12), protocol=protocol, rng=3, failures=DropUniform(0.3)
            )
            for _ in range(40):
                sim.run_ticks(1)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _sync_cases():
    cases = json.loads(SYNC_TRAJECTORIES.read_text())["cases"]
    return [
        pytest.param(case, id=f"{case['protocol']}-{case['graph']}-seed{case['seed']}-{case['failures']}")
        for case in cases
    ]


_SYNC_GRAPHS = {
    "cycle16": lambda: gen.cycle_graph(16),
    "star12": lambda: gen.star_graph(12),
    "random24": lambda: gen.random_connected_graph(24, extra_edge_prob=0.05, rng=3),
}


class TestSynchronousModel:
    """The default-configured engine replays the lock-step round model.

    Each case pins, for 40 rounds, every node's contact list (in insertion
    order) after every round, and at the end the message, bit and
    discovery totals, the busiest sender's bits in each round and the RNG
    state.  Pull under random loss is absent on purpose: the lock-step
    model drew request k's loss, then its reply, then request k+1's loss,
    while the engine draws every request's loss at the tick and the
    replies after — the same law in a different draw order.
    """

    @pytest.mark.parametrize("case", _sync_cases())
    def test_replays_pinned_trajectory(self, case):
        failures = NoFailures() if case["failures"] == "none" else DropUniform(0.2)
        sim = AsyncNetworkSimulator(
            _SYNC_GRAPHS[case["graph"]](),
            protocol=case["protocol"],
            rng=case["seed"],
            failures=failures,
        )
        contacts = []
        for _ in range(len(case["rounds"])):
            sim.run_ticks(1)
            contacts.append(_digest([tuple(node.contacts) for node in sim.nodes]))
        assert contacts == case["rounds"]
        stats = sim.stats
        assert stats.messages_sent == case["messages_sent"]
        assert stats.messages_dropped == case["messages_dropped"]
        assert stats.bits_sent == case["bits_sent"]
        assert stats.discoveries == case["discoveries"]
        assert stats.per_tick_max_node_bits == case["busiest_sender_bits"]
        rng_state = json.dumps(sim.rng.bit_generator.state, sort_keys=True)
        assert _digest(rng_state) == case["rng"]
