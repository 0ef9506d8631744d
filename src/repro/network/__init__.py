"""Message-passing substrate: the resource-discovery protocols as explicit messages.

The graph-level processes in :mod:`repro.core` are the mathematical
objects the paper analyses.  This subpackage re-implements them as
*distributed protocols*: every node is an agent holding only its local
neighbour table, and all information moves through explicit messages with
bit-accounted payloads.  The per-message state transitions live in
:mod:`repro.network.protocols` and are driven by one event engine,
:class:`AsyncNetworkSimulator` (per-message latency from
:mod:`repro.network.events`, message loss, node churn, partitions and
ping-based liveness eviction).

Its default configuration is the paper's idealization — lock-step rounds
with reliable delivery — and every other setting relaxes one assumption
of it.  The engine enforces the model's locality (a node can only address
IDs it was actually handed — :class:`LocalityError` otherwise) and reports
true per-``(node, tick)`` bandwidth.  Tests cross-validate that the
protocol implementations induce exactly the same random graph evolution
as the graph-level processes; experiment E10 uses the message accounting
for the bandwidth comparison against Name Dropper / flooding, and
``benchmarks/bench_async.py`` measures how discovery degrades when the
synchronous idealization is relaxed.
"""

from repro.network.message import LocalityError, Message, MessageKind, id_bits_for
from repro.network.node import NetworkNode
from repro.network.protocols import (
    GossipProtocol,
    PushProtocol,
    PullProtocol,
    NameDropperProtocol,
    resolve_protocol,
)
from repro.network.failures import (
    DropBurst,
    DropUniform,
    FailureModel,
    FaultInjector,
    InjectedFault,
    NoFailures,
)
from repro.network.events import (
    ChurnSchedule,
    Event,
    EventKind,
    EventQueue,
    ExponentialLatency,
    FixedLatency,
    LatencyModel,
    PartitionSchedule,
    UniformLatency,
)
from repro.network.async_simulator import AsyncNetworkSimulator, AsyncSimulationStats

__all__ = [
    "Message",
    "MessageKind",
    "LocalityError",
    "id_bits_for",
    "NetworkNode",
    "GossipProtocol",
    "PushProtocol",
    "PullProtocol",
    "NameDropperProtocol",
    "resolve_protocol",
    "AsyncNetworkSimulator",
    "AsyncSimulationStats",
    "FailureModel",
    "NoFailures",
    "DropUniform",
    "DropBurst",
    "FaultInjector",
    "InjectedFault",
    "Event",
    "EventKind",
    "EventQueue",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "ExponentialLatency",
    "ChurnSchedule",
    "PartitionSchedule",
]
