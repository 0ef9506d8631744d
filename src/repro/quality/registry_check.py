"""The ``registry-consistency`` project-scope checker.

A process registered "half-way" — present in ``PROCESS_REGISTRY`` but
missing from ``SHARDABLE_PROCESSES``, or registered with a name the CLI
does not offer — produces runtime ``KeyError``/``ValueError`` only on the
path a user happens to exercise.  This checker imports the live
registries, freezes them into a JSON-able :class:`RegistrySnapshot`, and
runs :func:`cross_check` — a pure function over that snapshot, so tests
can feed it broken fixture snapshots without monkeypatching modules.

Invariants enforced:

1. Every registered process class is shardable unless listed in the
   documented ``UNSHARDABLE_PROCESSES`` exemption set.
2. ``UNSHARDABLE_PROCESSES`` names only registered processes (no stale
   exemptions).
3. Every shard kernel kind is declared in ``SHARD_KINDS``.
4. The checkpoint reverse lookup ``(ctor, needs_directed) -> name`` is
   unambiguous for every registry entry.
5. The CLI ``choices=``/defaults for ``--process``, ``--family`` and
   ``--protocol`` agree with the registries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.quality.framework import Checker, Finding, register_checker

__all__ = [
    "RegistrySnapshot",
    "collect_snapshot",
    "cross_check",
    "RegistryConsistencyChecker",
]


@dataclass(frozen=True)
class RegistrySnapshot:
    """JSON-able freeze of every registry the system dispatches through."""

    #: process name -> (constructor qualname, needs_directed)
    process_registry: Mapping[str, Tuple[str, bool]]
    #: shardable constructor qualname -> shard kernel kind
    shardable: Mapping[str, str]
    #: registry names exempt from the sharding requirement (documented)
    unshardable: Tuple[str, ...]
    #: kernel kinds ``_run_kernel`` implements
    shard_kinds: Tuple[str, ...]
    #: undirected / directed graph family names
    families: Tuple[str, ...]
    directed_families: Tuple[str, ...]
    #: network protocol names
    protocols: Tuple[str, ...]
    #: CLI: subcommand -> option dest -> (choices or None, default)
    cli: Mapping[str, Mapping[str, Tuple[Optional[Tuple[str, ...]], object]]] = field(
        default_factory=dict
    )

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "RegistrySnapshot":
        """Rebuild a snapshot from its JSON form (fixture-corpus tests)."""
        raw_registry = payload["process_registry"]
        assert isinstance(raw_registry, Mapping)
        raw_shardable = payload["shardable"]
        assert isinstance(raw_shardable, Mapping)
        raw_cli = payload.get("cli", {})
        assert isinstance(raw_cli, Mapping)
        cli: Dict[str, Dict[str, Tuple[Optional[Tuple[str, ...]], object]]] = {}
        for sub, opts in raw_cli.items():
            assert isinstance(opts, Mapping)
            cli[str(sub)] = {
                str(dest): (
                    tuple(str(c) for c in spec[0]) if spec[0] is not None else None,
                    spec[1],
                )
                for dest, spec in opts.items()
            }
        return cls(
            process_registry={
                str(k): (str(v[0]), bool(v[1])) for k, v in raw_registry.items()
            },
            shardable={str(k): str(v) for k, v in raw_shardable.items()},
            unshardable=tuple(str(x) for x in _seq(payload["unshardable"])),
            shard_kinds=tuple(str(x) for x in _seq(payload["shard_kinds"])),
            families=tuple(str(x) for x in _seq(payload["families"])),
            directed_families=tuple(str(x) for x in _seq(payload["directed_families"])),
            protocols=tuple(str(x) for x in _seq(payload["protocols"])),
            cli=cli,
        )


def _seq(value: object) -> Sequence[object]:
    assert isinstance(value, Sequence) and not isinstance(value, (str, bytes))
    return value


def collect_snapshot() -> RegistrySnapshot:
    """Freeze the live registries (imports the simulation/CLI layers)."""
    from repro import cli as repro_cli
    from repro.graphs.directed_generators import DIRECTED_FAMILY_REGISTRY
    from repro.graphs.generators import FAMILY_REGISTRY
    from repro.network.protocols import protocol_names
    from repro.simulation.engine import PROCESS_REGISTRY
    from repro.simulation.sharding import (
        SHARD_KINDS,
        SHARDABLE_PROCESSES,
        UNSHARDABLE_PROCESSES,
    )

    cli: Dict[str, Dict[str, Tuple[Optional[Tuple[str, ...]], object]]] = {}
    parser = repro_cli.build_parser()
    for action in getattr(parser, "_actions"):
        subparsers = getattr(action, "choices", None)
        if not isinstance(subparsers, dict):
            continue
        for sub_name, sub_parser in subparsers.items():
            opts: Dict[str, Tuple[Optional[Tuple[str, ...]], object]] = {}
            for sub_action in getattr(sub_parser, "_actions"):
                dest = getattr(sub_action, "dest", None)
                if not dest or dest == "help":
                    continue
                choices = getattr(sub_action, "choices", None)
                opts[str(dest)] = (
                    tuple(str(c) for c in choices) if choices is not None else None,
                    getattr(sub_action, "default", None),
                )
            cli[str(sub_name)] = opts

    return RegistrySnapshot(
        process_registry={
            name: (ctor.__qualname__, bool(needs_directed))
            for name, (ctor, needs_directed) in PROCESS_REGISTRY.items()
        },
        shardable={
            ctor.__qualname__: kind for ctor, kind in SHARDABLE_PROCESSES.items()
        },
        unshardable=tuple(sorted(UNSHARDABLE_PROCESSES)),
        shard_kinds=tuple(sorted(SHARD_KINDS)),
        families=tuple(sorted(FAMILY_REGISTRY)),
        directed_families=tuple(sorted(DIRECTED_FAMILY_REGISTRY)),
        protocols=tuple(protocol_names()),
        cli=cli,
    )


#: which CLI option on which subcommand must agree with which registry;
#: "registry" keys map into the check below.
_CLI_EXPECTATIONS: Tuple[Tuple[str, str, str], ...] = (
    ("run", "process", "processes"),
    ("scaling", "process", "processes"),
    ("nonmonotone", "process", "processes"),
    ("group", "process", "processes"),
    ("run", "family", "all_families"),
    ("scaling", "family", "all_families"),
    ("group", "host_family", "families"),
    ("async", "family", "families"),
    ("directed", "family", "directed_families"),
    ("async", "protocol", "protocols"),
)


def cross_check(snapshot: RegistrySnapshot) -> List[Tuple[str, str]]:
    """Pure consistency check.  Returns ``(anchor, message)`` pairs.

    ``anchor`` names the registry whose definition site the finding should
    point at: ``process_registry``, ``shardable``, ``unshardable``,
    ``shard_kinds``, ``checkpoint`` or ``cli``.
    """
    problems: List[Tuple[str, str]] = []
    registry_names = set(snapshot.process_registry)

    # 1. every registered process is shardable or a documented exemption
    unshardable = set(snapshot.unshardable)
    shardable_ctors = set(snapshot.shardable)
    for name, (ctor, _directed) in sorted(snapshot.process_registry.items()):
        if name in unshardable:
            continue
        if ctor not in shardable_ctors:
            problems.append(
                (
                    "shardable",
                    f"process {name!r} ({ctor}) is registered but has no shard "
                    "kernel in SHARDABLE_PROCESSES and is not listed in "
                    "UNSHARDABLE_PROCESSES",
                )
            )

    # 2. no stale exemptions
    for name in sorted(unshardable - registry_names):
        problems.append(
            (
                "unshardable",
                f"UNSHARDABLE_PROCESSES names unknown process {name!r}",
            )
        )

    # 3. every shard kernel kind is declared
    declared_kinds = set(snapshot.shard_kinds)
    for ctor, kind in sorted(snapshot.shardable.items()):
        if kind not in declared_kinds:
            problems.append(
                (
                    "shard_kinds",
                    f"shard kind {kind!r} (for {ctor}) is not declared in SHARD_KINDS",
                )
            )

    # 4. checkpoint reverse lookup must be unambiguous
    by_key: Dict[Tuple[str, bool], List[str]] = {}
    for name, key in snapshot.process_registry.items():
        by_key.setdefault(key, []).append(name)
    for key, names in sorted(by_key.items()):
        if len(names) > 1:
            problems.append(
                (
                    "checkpoint",
                    f"registry entries {sorted(names)} share (ctor, directed)="
                    f"{key}; the checkpoint reverse lookup cannot distinguish "
                    "them",
                )
            )

    # 5. CLI choices and defaults agree with the registries
    expected_sets: Dict[str, set] = {
        "processes": registry_names,
        "families": set(snapshot.families),
        "directed_families": set(snapshot.directed_families),
        "all_families": set(snapshot.families) | set(snapshot.directed_families),
        "protocols": set(snapshot.protocols),
    }
    for sub, dest, registry_key in _CLI_EXPECTATIONS:
        opts = snapshot.cli.get(sub)
        if opts is None:
            problems.append(("cli", f"CLI subcommand {sub!r} is missing"))
            continue
        if dest not in opts:
            problems.append(("cli", f"CLI {sub!r} has no --{dest} option"))
            continue
        choices, default = opts[dest]
        expected = expected_sets[registry_key]
        if choices is None:
            problems.append(
                (
                    "cli",
                    f"CLI {sub!r} --{dest} has no choices= — new registry "
                    "entries would be accepted or rejected only at runtime",
                )
            )
        elif not (set(choices) <= expected):
            problems.append(
                (
                    "cli",
                    f"CLI {sub!r} --{dest} offers {sorted(set(choices) - expected)} "
                    f"which the {registry_key} registry does not define",
                )
            )
        if default is not None and default not in expected:
            problems.append(
                (
                    "cli",
                    f"CLI {sub!r} --{dest} default {default!r} is not in the "
                    f"{registry_key} registry",
                )
            )
    return problems


#: anchor key -> (module import path, symbol whose definition line we point at)
_ANCHORS: Dict[str, Tuple[str, str]] = {
    "process_registry": ("repro.simulation.engine", "PROCESS_REGISTRY"),
    "shardable": ("repro.simulation.sharding", "SHARDABLE_PROCESSES"),
    "unshardable": ("repro.simulation.sharding", "UNSHARDABLE_PROCESSES"),
    "shard_kinds": ("repro.simulation.sharding", "SHARD_KINDS"),
    "checkpoint": ("repro.simulation.engine", "PROCESS_REGISTRY"),
    "cli": ("repro.cli", "def build_parser"),
}


def _anchor_site(anchor: str) -> Tuple[str, int]:
    """Resolve an anchor key to ``(file, line)`` of the symbol definition."""
    import importlib

    module_name, symbol = _ANCHORS[anchor]
    module = importlib.import_module(module_name)
    module_file = getattr(module, "__file__", None)
    if module_file is None:  # pragma: no cover - frozen/namespace edge
        return module_name, 1
    path = Path(module_file)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:  # pragma: no cover - source not on disk
        return str(path), 1
    for idx, line in enumerate(lines, start=1):
        if line.startswith(symbol):
            return str(path), idx
    return str(path), 1


@register_checker
class RegistryConsistencyChecker(Checker):
    """Project-scope wrapper: live snapshot -> :func:`cross_check` -> findings."""

    rule_id = "registry-consistency"
    description = (
        "cross-check PROCESS_REGISTRY, sharding support, checkpoint lookup, "
        "family registries and CLI choices"
    )
    scope = "project"

    def check_project(self, root: Optional[Path]) -> Iterator[Finding]:
        problems = cross_check(collect_snapshot())
        for anchor, message in problems:
            path, line = _anchor_site(anchor)
            yield Finding(path=path, line=line, rule=self.rule_id, message=message)
