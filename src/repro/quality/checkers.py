"""Built-in syntax checkers for repro-lint.

Each checker closes one bug class that the reproduction's contracts
depend on (see ``docs/linting.md`` for the rule-by-rule rationale):

* ``determinism`` — every random draw must flow from an explicit seed.
* ``capability-guard`` — backend dispatch by capability, never by
  ``isinstance`` against a concrete graph class.
* ``exception-hygiene`` — no broad handler may swallow silently.
* ``atomic-write`` — result files go through ``io.atomic_write_*``.

Importing this module is the "load the built-in rules" hook (framework
does it lazily); the flow-sensitive CFG/dataflow rules arrive with its
``flow_checkers`` import.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set

from repro.quality.flow_checkers import WRITE_MODE_CHARS, _open_mode
from repro.quality.framework import (
    Checker,
    FileContext,
    Finding,
    _canonical_name,
    _import_aliases,
    register_checker,
)

__all__ = [
    "DeterminismChecker",
    "CapabilityGuardChecker",
    "ExceptionHygieneChecker",
    "AtomicWriteChecker",
]


# --------------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------------- #
#: stdlib ``random`` module functions that draw from (or reseed) the hidden
#: global Mersenne Twister state — any of these voids replayability.
_STDLIB_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "vonmisesvariate",
        "gammavariate",
        "betavariate",
        "paretovariate",
        "weibullvariate",
        "binomialvariate",
        "seed",
        "getrandbits",
        "randbytes",
    }
)

#: wall-clock reads: seeds or decisions derived from these differ run to run.
_WALL_CLOCK_FNS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register_checker
class DeterminismChecker(Checker):
    """Ban entropy sources that bypass the explicit-seed discipline.

    Flags: unseeded ``np.random.default_rng()``, draws from numpy's global
    state (``np.random.<fn>(...)``), stdlib ``random.<fn>(...)`` draws, and
    wall-clock reads (``time.time``, ``datetime.now`` and friends).  All
    randomness must flow from a caller-provided seed or
    ``np.random.Generator`` so that traces replay draw for draw.
    """

    rule_id = "determinism"
    description = (
        "ban unseeded default_rng(), global np.random/random draws and "
        "wall-clock entropy sources"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _canonical_name(node.func, aliases)
            if name is None:
                continue
            if name == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx,
                        node.lineno,
                        "unseeded np.random.default_rng() — thread an explicit "
                        "seed/Generator through the caller (determinism contract)",
                    )
            elif name.startswith("numpy.random."):
                # Draw functions are lowercase (`random`, `shuffle`, `seed`);
                # the capitalized names (`Generator`, `SeedSequence`, bit
                # generators) are constructors over explicit seed material.
                tail = name[len("numpy.random.") :]
                if "." not in tail and tail != "default_rng" and tail.islower():
                    yield self.finding(
                        ctx,
                        node.lineno,
                        f"np.random.{tail}() draws from numpy's hidden global "
                        "state — use an explicit np.random.Generator",
                    )
            elif name.startswith("random."):
                tail = name[len("random.") :]
                if tail in _STDLIB_RANDOM_FNS:
                    yield self.finding(
                        ctx,
                        node.lineno,
                        f"random.{tail}() uses the stdlib global RNG — use an "
                        "explicit np.random.Generator",
                    )
            elif name in _WALL_CLOCK_FNS:
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"{name}() is a wall-clock entropy source — seeds and "
                    "decisions must not depend on the clock",
                )


# --------------------------------------------------------------------------- #
# capability-guard
# --------------------------------------------------------------------------- #
@register_checker
class CapabilityGuardChecker(Checker):
    """Ban ``isinstance(..., DynamicGraph | DynamicDiGraph)`` dispatch.

    Such guards silently no-op on the array backend (the PR 5 recorder
    bug).  Code must branch on capabilities (``hasattr``/protocol methods)
    instead.  ``repro/graphs/`` itself — the layer that *implements* the
    backends — is exempt.
    """

    rule_id = "capability-guard"
    description = (
        "ban isinstance checks against concrete graph backends outside "
        "repro/graphs/ (use capability checks)"
    )

    GUARD_NAMES = frozenset({"DynamicGraph", "DynamicDiGraph"})

    def applies_to(self, path: Path) -> bool:
        parts = path.parts
        return not ("repro" in parts and "graphs" in parts)

    def _names_in(self, node: ast.AST) -> Set[str]:
        found: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
        return found

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                guarded = self._names_in(node.args[1]) & self.GUARD_NAMES
                if guarded:
                    yield self.finding(
                        ctx,
                        node.lineno,
                        f"isinstance against {sorted(guarded)} silently no-ops on "
                        "other backends — dispatch on capabilities instead",
                    )


# --------------------------------------------------------------------------- #
# exception-hygiene
# --------------------------------------------------------------------------- #
#: method names whose call counts as "the handler reported the failure"
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)
_BROAD_TYPES = frozenset({"Exception", "BaseException"})


@register_checker
class ExceptionHygieneChecker(Checker):
    """Flag bare/broad ``except`` handlers that swallow silently.

    A broad handler (bare, ``Exception`` or ``BaseException``) is fine when
    it re-raises, logs, or *uses* the bound exception (e.g. records it into
    a ``TrialResult``).  What it may not do is discard the failure with
    nothing observable — that is how lost shared-memory segments and
    silently-wrong sweeps happen.
    """

    rule_id = "exception-hygiene"
    description = (
        "flag bare/broad except handlers that neither re-raise, log, nor "
        "use the caught exception"
    )

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        )
        for t in types:
            if isinstance(t, ast.Name) and t.id in _BROAD_TYPES:
                return True
            if isinstance(t, ast.Attribute) and t.attr in _BROAD_TYPES:
                return True
        return False

    def _handler_reports(self, handler: ast.ExceptHandler) -> bool:
        bound = handler.name
        for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
            if isinstance(node, ast.Raise):
                return True
            if bound and isinstance(node, ast.Name) and node.id == bound:
                return True
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in _LOG_METHODS:
                    return True
                if isinstance(func, ast.Attribute) and func.attr in {
                    "warn",
                    "print_exc",
                }:
                    return True  # warnings.warn / traceback.print_exc
        return False

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._is_broad(node) and not self._handler_reports(node):
                caught = (
                    "bare except"
                    if node.type is None
                    else f"except {ast.unparse(node.type)}"
                )
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"{caught} swallows the failure — re-raise, log, or handle "
                    "the bound exception explicitly",
                )


# --------------------------------------------------------------------------- #
# atomic-write
# --------------------------------------------------------------------------- #
@register_checker
class AtomicWriteChecker(Checker):
    """Ban direct writable ``open()`` outside ``simulation/io.py``.

    A crash mid-``write`` leaves a torn result file that a resumed sweep
    will happily read.  All result persistence must go through
    ``repro.simulation.io.atomic_write_bytes/text`` (tempfile +
    ``os.replace``), so the writable-open primitives are confined to that
    module.
    """

    rule_id = "atomic-write"
    description = (
        "ban writable open()/write_text/write_bytes outside simulation/io.py "
        "(use io.atomic_write_*)"
    )

    def applies_to(self, path: Path) -> bool:
        return not (path.name == "io.py" and "simulation" in path.parts)

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        # The mode is read the way resource-leak reads it: second for
        # builtin open and module functions, first for a path's method.
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            opener = None
            if isinstance(func, ast.Name) and func.id == "open":
                opener = "open"
            elif isinstance(func, ast.Attribute) and func.attr == "open":
                opener = ".open"  # Path.open / os.open-style wrappers
            elif isinstance(func, ast.Attribute) and func.attr == "fdopen":
                opener = "os.fdopen"
            if opener is not None:
                mode = _open_mode(node, aliases)
                if mode is not None and set(mode) & WRITE_MODE_CHARS:
                    yield self.finding(
                        ctx,
                        node.lineno,
                        f"writable {opener}(..., {mode!r}) outside simulation/io.py "
                        "— use io.atomic_write_bytes/atomic_write_text",
                    )
                continue
            if isinstance(func, ast.Attribute) and func.attr in {
                "write_text",
                "write_bytes",
            }:
                yield self.finding(
                    ctx,
                    node.lineno,
                    f".{func.attr}() is a non-atomic write — use "
                    "io.atomic_write_bytes/atomic_write_text",
                )
