"""Pinning the silent-no-op guard bug class shut (PR 5).

Two seed-era layers still gated on ``isinstance(graph, DynamicGraph)``:
``EvolutionTracker`` silently recorded zero snapshots on an ``ArrayGraph``,
and the lock-step network simulator rejected ``ArrayGraph`` topologies outright —
the same failure mode PR 3 removed from the baselines and PR 4 removed
from the activation schedules.  These tests

* run every recorder/callback (``EvolutionTracker``, the E8 degree-growth
  watcher, ``MetricsRecorder``, ``TraceRecorder``) over **both** graph
  classes — the array substrate and the list-based reference oracle — and
  assert non-empty, matching output;
* assert no ``isinstance(.., DynamicGraph)`` guard survives outside
  ``repro/graphs/`` (a lint-style sweep over the source tree), so the bug
  class cannot silently return.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.analysis.degree_growth import _MinDegreeWatcher
from repro.core.metrics import MetricsRecorder
from repro.graphs import generators as gen
from repro.network.async_simulator import AsyncNetworkSimulator
from repro.simulation.engine import make_process
from repro.simulation.trace import TraceRecorder
from repro.social.evolution import EvolutionTracker, simulate_social_evolution
from repro.social.group_discovery import discover_group

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the graph classes a process can run on: the reference oracle and the array graph
SUBSTRATES = ["list", "array"]


def on_substrate(graph, substrate):
    """``graph`` itself, or its list-based oracle twin for ``"list"``."""
    return graph.to_dynamic() if substrate == "list" else graph


def run_with_callback(substrate, callback, n=16, rounds=12, seed=3):
    proc = make_process("push", on_substrate(gen.cycle_graph(n), substrate), rng=seed)
    proc.run(rounds, callbacks=[callback])
    return proc


class TestRecordersOnBothBackends:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_evolution_tracker_records_snapshots(self, substrate):
        """Fails before the fix: the array graph recorded zero snapshots."""
        tracker = EvolutionTracker(every=4, probe_nodes=6, rng=1)
        run_with_callback(substrate, tracker)
        assert len(tracker.snapshots) > 0
        assert all(s.num_edges > 0 for s in tracker.snapshots)

    def test_evolution_tracker_backend_equivalence(self):
        """Same seed, same snapshots on either graph class."""
        rows = {}
        for substrate in SUBSTRATES:
            tracker = EvolutionTracker(every=4, probe_nodes=6, rng=1)
            run_with_callback(substrate, tracker)
            rows[substrate] = tracker.as_rows()
        assert rows["list"] == rows["array"]

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_metrics_recorder_records(self, substrate):
        recorder = MetricsRecorder()
        run_with_callback(substrate, recorder)
        assert len(recorder.history) > 0
        assert recorder.edges_series().max() > 0

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_trace_recorder_records(self, substrate):
        recorder = TraceRecorder()
        run_with_callback(substrate, recorder)
        assert len(recorder.trace) > 0
        assert max(recorder.trace.min_degree) >= 2

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_degree_growth_watcher_records(self, substrate):
        watcher = _MinDegreeWatcher([3, 4])
        run_with_callback(substrate, watcher, rounds=60)
        assert watcher.hit_round  # at least one threshold reached

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_simulate_social_evolution_backends(self, substrate):
        snaps = simulate_social_evolution(
            on_substrate(gen.cycle_graph(14), substrate), rounds=12, every=4, seed=2
        )
        assert len(snaps) >= 2  # baseline + at least one recorded round


class TestAsyncNetworkSimulatorBackends:
    def test_accepts_array_graph_topology(self):
        """Fails before the fix: TypeError for ArrayGraph."""
        topo = gen.cycle_graph(10)
        sim = AsyncNetworkSimulator(topo, protocol="push", rng=3)
        stats = sim.run_to_convergence(max_ticks=20_000)
        assert sim.is_converged()
        assert stats.discoveries > 0

    def test_same_seed_same_rounds_across_backends(self):
        list_sim = AsyncNetworkSimulator(
            gen.cycle_graph(10).to_dynamic(), protocol="push", rng=7
        )
        array_sim = AsyncNetworkSimulator(gen.cycle_graph(10), protocol="push", rng=7)
        a = list_sim.run_to_convergence(max_ticks=20_000)
        b = array_sim.run_to_convergence(max_ticks=20_000)
        assert (a.ticks, a.messages_sent, a.discoveries) == (
            b.ticks,
            b.messages_sent,
            b.discoveries,
        )

    def test_still_rejects_directed_graphs(self):
        from repro.graphs.adjacency import DynamicDiGraph

        with pytest.raises(TypeError):
            AsyncNetworkSimulator(DynamicDiGraph(3, [(0, 1)]))


class TestGroupDiscoveryBackends:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_discover_group_runs_on_backend(self, substrate):
        host = gen.barabasi_albert_graph(48, 3, np.random.default_rng(0))
        result = discover_group(
            on_substrate(host, substrate), k=10, process="push", seed=5
        )
        assert result.converged
        assert result.group_size == 10

    def test_discover_group_list_array_equivalence(self):
        """The E9 scenario is trace-identical on either host graph for a fixed seed."""
        host = gen.barabasi_albert_graph(48, 3, np.random.default_rng(0))
        results = {
            substrate: discover_group(
                on_substrate(host, substrate), k=10, process="push", seed=5
            )
            for substrate in SUBSTRATES
        }
        assert results["list"].members == results["array"].members
        assert results["list"].rounds == results["array"].rounds


class TestNoStaleBackendGuards:
    """Thin shim: the guard sweep lives in repro-lint's capability-guard rule.

    The one-off AST sweep this class used to carry was generalized into
    ``repro.quality`` (see ``docs/linting.md``); this delegation keeps the
    historical entry point (and the CI step name) meaningful.
    """

    def test_no_isinstance_dynamicgraph_outside_graphs_layer(self):
        from repro.quality import run_lint

        offenders = run_lint(
            [SRC_ROOT], rules=["capability-guard"]
        )
        assert not offenders, (
            "stale isinstance(DynamicGraph) backend guards found (use the "
            "capability checks from baselines/_packed.py instead): "
            f"{[str(f) for f in offenders]}"
        )
