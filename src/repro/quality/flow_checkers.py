"""Flow-sensitive repro-lint rules over the CFG/dataflow layer.

PR 7 found three bug classes *dynamically* — leaked ``/dev/shm``
segments, RNG generators reused across pool submissions, unpicklable
payloads handed to a ``ProcessPoolExecutor``.  The syntax-level checkers
in :mod:`repro.quality.checkers` cannot see any of them, because each is
a property of *paths*, not of single statements.  These checkers close
them statically:

* ``resource-leak`` — an acquired resource (``SharedMemory``,
  ``tempfile.mkstemp``, a writable ``open`` handle, an executor) must
  reach its release on **every** CFG path out of the scope, exceptional
  edges included.  Ownership transfers (returning the handle, storing it
  on ``self``, passing it to another call) end the local obligation; a
  ``self.attr`` store instead creates a class-level obligation — the
  class must release the attribute *somewhere* (that is the check that
  catches a ``_SharedBlock.release`` with the ``unlink`` deleted).
* ``rng-discipline`` — a ``numpy.random.Generator`` that flows into a
  pool ``submit(...)`` payload must have been constructed from
  ``SeedSequence.spawn(...)`` / ``SeedSequence(..., spawn_key=...)``
  material, and the parent may not draw from it again afterwards (the
  determinism hazard behind PR 4/7's per-round respawn design).
* ``pickle-safety`` — arguments at ``submit(...)`` call sites must not
  be lambdas, functions defined inside a function, or bound methods /
  instances of classes that are not importable at module level: all of
  them fail to pickle only once a worker pool is actually in play.

All three rules are intra-procedural: every call is opaque, so a callee
that releases a handle or draws from an escaped generator is not seen.

Known imprecision (see ``docs/linting.md``): passing a handle to *any*
call transfers ownership, the single-copy ``finally`` merges
continuations, and only locally-constructed generators are typed.
All three rules err quiet on unknowns and loud on paths they can prove.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.quality.cfg import CFG, CFGNode, EXCEPTION, ScopeNode, build_cfg
from repro.quality.dataflow import (
    Analysis,
    ReachingDefinitions,
    assigned_names,
    solve_forward,
)
from repro.quality.framework import (
    Checker,
    FileContext,
    Finding,
    _canonical_name,
    _import_aliases,
    register_checker,
)

__all__ = [
    "ResourceLeakChecker",
    "RngDisciplineChecker",
    "PickleSafetyChecker",
]


# --------------------------------------------------------------------------- #
# scope discovery shared by the three rules
# --------------------------------------------------------------------------- #
@dataclass
class _Scope:
    """One analysable scope with its graph, dataflow facts and context."""

    node: ScopeNode
    name: str
    cfg: CFG
    reaching: ReachingDefinitions
    #: function names bound inside an enclosing (or this) *function* body —
    #: none of them is importable at module level, so none pickles
    local_funcs: FrozenSet[str]
    #: class names bound inside an enclosing (or this) function body
    local_classes: FrozenSet[str]
    #: the nearest enclosing class is itself defined inside a function
    class_is_local: bool


def _shallow_defs(body: Sequence[ast.stmt]) -> Tuple[Set[str], Set[str]]:
    """Function/class names bound in ``body`` without entering new scopes."""
    funcs: Set[str] = set()
    classes: Set[str] = set()
    stack: List[ast.stmt] = list(body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs.add(stmt.name)
            continue  # its body is a new scope
        if isinstance(stmt, ast.ClassDef):
            classes.add(stmt.name)
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            # compound statements hold their sub-statements in list fields
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for sub in getattr(stmt, field, []) or []:
                inner = getattr(sub, "body", None)
                if isinstance(sub, ast.stmt):
                    continue  # already queued via iter_child_nodes
                if inner:
                    stack.extend(s for s in inner if isinstance(s, ast.stmt))
    return funcs, classes


def _iter_scopes(tree: ast.Module) -> Iterator[_Scope]:
    """Yield the module scope and every function scope, outermost first."""

    def make(
        scope: ScopeNode,
        name: str,
        funcs: FrozenSet[str],
        classes: FrozenSet[str],
        class_is_local: bool,
    ) -> _Scope:
        cfg = build_cfg(scope, name)
        return _Scope(
            node=scope,
            name=name,
            cfg=cfg,
            reaching=ReachingDefinitions(cfg, scope),
            local_funcs=funcs,
            local_classes=classes,
            class_is_local=class_is_local,
        )

    def walk(
        body: Sequence[ast.stmt],
        prefix: str,
        funcs: FrozenSet[str],
        classes: FrozenSet[str],
        in_function: bool,
        class_is_local: bool,
    ) -> Iterator[_Scope]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own_funcs, own_classes = _shallow_defs(stmt.body)
                child_funcs = funcs | frozenset(own_funcs)
                child_classes = classes | frozenset(own_classes)
                name = f"{prefix}{stmt.name}"
                yield make(stmt, name, child_funcs, child_classes, class_is_local)
                yield from walk(
                    stmt.body, name + ".", child_funcs, child_classes, True, class_is_local
                )
            elif isinstance(stmt, ast.ClassDef):
                yield from walk(
                    stmt.body,
                    f"{prefix}{stmt.name}.",
                    funcs,
                    classes,
                    in_function,
                    class_is_local or in_function,
                )
            else:
                nested = [
                    s
                    for field in ("body", "orelse", "finalbody")
                    for s in getattr(stmt, field, [])
                ]
                for handler in getattr(stmt, "handlers", []):
                    nested.extend(handler.body)
                for case in getattr(stmt, "cases", []):
                    nested.extend(case.body)
                if nested:
                    yield from walk(
                        nested, prefix, funcs, classes, in_function, class_is_local
                    )

    yield make(tree, "<module>", frozenset(), frozenset(), False)
    yield from walk(tree.body, "", frozenset(), frozenset(), False, False)


# --------------------------------------------------------------------------- #
# small expression helpers
# --------------------------------------------------------------------------- #
def _iter_calls(parts: Sequence[ast.AST]) -> Iterator[ast.Call]:
    for part in parts:
        for sub in ast.walk(part):
            if isinstance(sub, ast.Call):
                yield sub


def _call_arg_exprs(call: ast.Call) -> List[ast.expr]:
    return list(call.args) + [kw.value for kw in call.keywords]


def _is_submit_call(call: ast.Call) -> bool:
    """A pool submission: ``<executor>.submit(...)`` of any executor."""
    return isinstance(call.func, ast.Attribute) and call.func.attr == "submit"


# --------------------------------------------------------------------------- #
# the resource / RNG model shared by the flow rules
# --------------------------------------------------------------------------- #
WRITE_MODE_CHARS = frozenset("wax+")

#: method names that discharge the matching action on the receiver
RELEASE_METHODS: Dict[str, str] = {
    "close": "close",
    "unlink": "unlink",
    "shutdown": "shutdown",
}

#: ``os.*`` functions that discharge an action on their first argument
OS_RELEASES: Dict[str, str] = {
    "os.close": "close",
    "os.unlink": "unlink",
    "os.remove": "unlink",
    "os.replace": "unlink",
    "os.rename": "unlink",
}

ACTION_HINT: Dict[str, str] = {
    "close": ".close()",
    "unlink": ".unlink() (or os.unlink/os.replace for paths)",
    "shutdown": ".shutdown()",
}

#: Generator methods that consume draws (advancing the stream)
DRAW_METHODS = frozenset(
    {
        "random",
        "integers",
        "choice",
        "shuffle",
        "permutation",
        "permuted",
        "uniform",
        "normal",
        "standard_normal",
        "standard_exponential",
        "standard_gamma",
        "exponential",
        "poisson",
        "binomial",
        "beta",
        "gamma",
        "bytes",
    }
)

GENERATOR_CTORS = frozenset({"numpy.random.default_rng", "numpy.random.Generator"})


def _kwarg(call: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _open_mode(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """The constant mode string of an ``open``-family call, if present.

    Builtin ``open`` and module functions, whose receiver resolves through
    the imports (``gzip.open(path, 'wt')``, ``os.fdopen(fd, 'wb')``), take
    the mode second; a method on a path object (``Path(p).open('w')``,
    ``target.open('w')``) takes it first.
    """
    root = call.func
    while isinstance(root, ast.Attribute):
        root = root.value
    position = 1 if isinstance(root, ast.Name) and (root is call.func or root.id in aliases) else 0
    candidates: List[ast.expr] = list(call.args[position : position + 1])
    mode_kw = _kwarg(call, "mode")
    if mode_kw is not None:
        candidates.append(mode_kw)
    for candidate in candidates:
        if isinstance(candidate, ast.Constant) and isinstance(candidate.value, str):
            return candidate.value
    return None


def resource_of_call(
    call: ast.Call, aliases: Dict[str, str]
) -> Optional[Tuple[str, FrozenSet[str]]]:
    """``(description, required actions)`` if ``call`` acquires a resource."""
    name = _canonical_name(call.func, aliases)
    if name is None:
        if isinstance(call.func, ast.Attribute) and call.func.attr == "open":
            mode = _open_mode(call, aliases)
            if mode is not None and set(mode) & WRITE_MODE_CHARS:
                return (f"writable .open(..., {mode!r}) handle", frozenset({"close"}))
        return None
    if name == "multiprocessing.shared_memory.SharedMemory":
        create = _kwarg(call, "create")
        if isinstance(create, ast.Constant) and create.value is True:
            return (
                "shared_memory.SharedMemory(create=True)",
                frozenset({"close", "unlink"}),
            )
        return ("shared_memory.SharedMemory attachment", frozenset({"close"}))
    if name in ("open", "os.fdopen") or name.endswith(".open"):
        mode = _open_mode(call, aliases)
        if mode is not None and set(mode) & WRITE_MODE_CHARS:
            return (f"writable {name}(..., {mode!r}) handle", frozenset({"close"}))
        return None
    if name in (
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
    ):
        return (name.rsplit(".", 1)[1], frozenset({"shutdown"}))
    return None


def stored_names(expr: Optional[ast.AST]) -> Set[str]:
    """Names whose *object itself* is stored/aliased by ``expr``.

    ``shm`` in ``refs.append(shm)`` or ``pair = (fd, tmp)`` aliases the
    resource; ``f`` in ``f.read()`` or ``f.name`` does not (only a
    method/attribute of it is used).  Containers recurse, attribute and
    subscript accesses stop.
    """
    names: Set[str] = set()
    if expr is None:
        return names
    if isinstance(expr, ast.Name):
        names.add(expr.id)
    elif isinstance(expr, ast.Starred):
        names |= stored_names(expr.value)
    elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        for element in expr.elts:
            names |= stored_names(element)
    elif isinstance(expr, ast.Dict):
        for key in expr.keys:
            names |= stored_names(key)
        for value in expr.values:
            names |= stored_names(value)
    elif isinstance(expr, ast.IfExp):
        names |= stored_names(expr.body) | stored_names(expr.orelse)
    elif isinstance(expr, (ast.Await, ast.Yield, ast.YieldFrom)):
        names |= stored_names(getattr(expr, "value", None))
    return names


# --------------------------------------------------------------------------- #
# resource-leak
# --------------------------------------------------------------------------- #
#: an unmet obligation: (variable, required action, alloc line, description)
_Obligation = Tuple[str, str, int, str]


@dataclass
class _NodeEffects:
    """Precomputed per-node gen/kill facts for the obligation analysis."""

    gens: Tuple[_Obligation, ...] = ()
    releases: FrozenSet[Tuple[str, str]] = frozenset()
    escapes: FrozenSet[str] = frozenset()
    rebinds: FrozenSet[str] = frozenset()


class _ObligationAnalysis(Analysis[FrozenSet[_Obligation]]):
    """Forward may-analysis: which acquisitions are still unreleased here.

    Union join: an obligation present at an exit means *some* path
    reaches that exit without discharging it.  Acquisitions apply on
    normal edges only (on an exceptional edge the assignment never
    bound).  Releases and ownership-transferring escapes apply on both:
    a ``close()`` that raises was still the release attempt (flagging
    "your release might itself fail" would indict every correct
    ``finally``), and a handle that reached another call is no longer
    ours to prove.
    """

    def __init__(self, effects: Dict[int, _NodeEffects]) -> None:
        self._effects = effects

    def bottom(self) -> FrozenSet[_Obligation]:
        return frozenset()

    def join(
        self, a: FrozenSet[_Obligation], b: FrozenSet[_Obligation]
    ) -> FrozenSet[_Obligation]:
        return a | b

    def flow(
        self, node: CFGNode, state: FrozenSet[_Obligation], edge_kind: str
    ) -> FrozenSet[_Obligation]:
        fx = self._effects.get(node.index)
        if fx is None:
            return state
        if edge_kind == EXCEPTION:
            if not fx.escapes and not fx.releases:
                return state
            return frozenset(
                o
                for o in state
                if o[0] not in fx.escapes and (o[0], o[1]) not in fx.releases
            )
        kept = frozenset(
            o
            for o in state
            if o[0] not in fx.escapes
            and o[0] not in fx.rebinds
            and (o[0], o[1]) not in fx.releases
        )
        return kept | frozenset(fx.gens)


@register_checker
class ResourceLeakChecker(Checker):
    """Every acquired resource must reach its release on all CFG paths.

    Locals are tracked flow-sensitively (see
    :class:`_ObligationAnalysis`); resources stored on ``self`` become a
    class-level obligation — some method of the class must discharge
    every required action on that attribute, or the acquisition is
    flagged.  ``with``-managed handles are released by construction and
    never tracked.
    """

    rule_id = "resource-leak"
    description = (
        "shared memory, temp files, writable handles and executors must be "
        "released on every path (exceptional paths included)"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for scope in _iter_scopes(ctx.tree):
            yield from self._check_scope(scope, aliases, ctx)
        yield from self._check_classes(ctx.tree, aliases, ctx)

    # -- local (flow-sensitive) obligations ----------------------------- #
    def _node_effects(
        self, node: CFGNode, aliases: Dict[str, str]
    ) -> Optional[_NodeEffects]:
        stmt = node.stmt
        parts = node.evaluated()
        gens: List[_Obligation] = []
        releases: Set[Tuple[str, str]] = set()
        escapes: Set[str] = set()

        if node.kind == "stmt" and isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = stmt.value
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if isinstance(value, ast.Call):
                resource = resource_of_call(value, aliases)
                canonical = _canonical_name(value.func, aliases)
                if canonical == "tempfile.mkstemp" and len(targets) == 1:
                    target = targets[0]
                    if isinstance(target, ast.Tuple) and len(target.elts) == 2:
                        fd_t, path_t = target.elts
                        if isinstance(fd_t, ast.Name):
                            gens.append(
                                (fd_t.id, "close", node.line, "tempfile.mkstemp() fd")
                            )
                        if isinstance(path_t, ast.Name):
                            gens.append(
                                (path_t.id, "unlink", node.line, "tempfile.mkstemp() path")
                            )
                elif resource is not None and len(targets) == 1:
                    target = targets[0]
                    if isinstance(target, ast.Name):
                        desc, actions = resource
                        for action in sorted(actions):
                            gens.append((target.id, action, node.line, desc))

        # Releases: the os.* forms (checked first — ``os.close(fd)`` must
        # not read as a ``close`` method on a receiver named ``os``), then
        # the method form on the tracked name.
        for call in _iter_calls(parts):
            func = call.func
            canonical = _canonical_name(func, aliases)
            if canonical in OS_RELEASES:
                if call.args and isinstance(call.args[0], ast.Name):
                    releases.add((call.args[0].id, OS_RELEASES[canonical]))
                continue
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in RELEASE_METHODS
            ):
                releases.add((func.value.id, RELEASE_METHODS[func.attr]))
            # Ownership transfer: the handle itself passed to any call.
            for arg in _call_arg_exprs(call):
                escapes |= stored_names(arg)

        # Ownership transfer: returned, raised, yielded, aliased, deleted.
        if node.kind == "stmt":
            if isinstance(stmt, ast.Return):
                # Only the object itself transfers — ``return shm`` hands
                # ownership to the caller, ``return shm.size`` does not
                # (call arguments inside the value were judged above).
                escapes |= stored_names(stmt.value)
            elif isinstance(stmt, ast.Raise):
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                        escapes.add(sub.id)
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    escapes |= stored_names(target)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                escapes |= stored_names(stmt.value)
            elif isinstance(stmt, ast.Expr):
                escapes |= stored_names(stmt.value)  # bare yield/await
        elif node.kind == "with" and isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                escapes |= stored_names(item.context_expr)

        gen_names = {g[0] for g in gens}
        rebinds = frozenset(name for name in assigned_names(node) if name not in gen_names)
        if not gens and not releases and not escapes and not rebinds:
            return None
        return _NodeEffects(
            gens=tuple(gens),
            releases=frozenset(releases),
            escapes=frozenset(escapes),
            rebinds=rebinds,
        )

    def _check_scope(
        self,
        scope: _Scope,
        aliases: Dict[str, str],
        ctx: FileContext,
    ) -> Iterator[Finding]:
        effects: Dict[int, _NodeEffects] = {}
        any_gen = False
        for node in scope.cfg.stmt_nodes():
            fx = self._node_effects(node, aliases)
            if fx is not None:
                effects[node.index] = fx
                any_gen = any_gen or bool(fx.gens)
        if not any_gen:
            return
        in_states = solve_forward(scope.cfg, _ObligationAnalysis(effects))
        at_exit = in_states[scope.cfg.exit]
        at_raise = in_states[scope.cfg.raise_exit]
        for obligation in sorted(at_exit | at_raise):
            var, action, line, desc = obligation
            where = (
                "on an exceptional path"
                if obligation not in at_exit
                else "on some path"
            )
            yield self.finding(
                ctx,
                line,
                f"{desc} held by {var!r} may never reach "
                f"{ACTION_HINT[action]} {where} out of {scope.name} — release "
                "it in a finally block (or hand ownership off explicitly)",
            )

    # -- class-level (self-attribute) obligations ----------------------- #
    def _check_classes(
        self, tree: ast.Module, aliases: Dict[str, str], ctx: FileContext
    ) -> Iterator[Finding]:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            acquisitions: List[Tuple[str, FrozenSet[str], int, str]] = []
            satisfied: Set[Tuple[str, str]] = set()
            for sub in ast.walk(cls):
                if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                    resource = resource_of_call(sub.value, aliases)
                    if resource is not None:
                        for target in sub.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                desc, actions = resource
                                acquisitions.append(
                                    (target.attr, actions, sub.lineno, desc)
                                )
                if isinstance(sub, ast.Call):
                    func = sub.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in RELEASE_METHODS
                        and isinstance(func.value, ast.Attribute)
                        and isinstance(func.value.value, ast.Name)
                        and func.value.value.id == "self"
                    ):
                        satisfied.add((func.value.attr, RELEASE_METHODS[func.attr]))
                    canonical = _canonical_name(func, aliases)
                    if canonical in OS_RELEASES and sub.args:
                        first = sub.args[0]
                        if (
                            isinstance(first, ast.Attribute)
                            and isinstance(first.value, ast.Name)
                            and first.value.id == "self"
                        ):
                            satisfied.add((first.attr, OS_RELEASES[canonical]))
            for attr, actions, line, desc in acquisitions:
                missing = sorted(a for a in actions if (attr, a) not in satisfied)
                if missing:
                    hints = " and ".join(ACTION_HINT[a] for a in missing)
                    yield self.finding(
                        ctx,
                        line,
                        f"{desc} stored on self.{attr} but class {cls.name} "
                        f"never calls {hints} on it — the segment outlives "
                        "every instance",
                    )


# --------------------------------------------------------------------------- #
# rng-discipline
# --------------------------------------------------------------------------- #
class _EscapedSetAnalysis(Analysis[FrozenSet[str]]):
    """Forward may-analysis of names escaped into a pool submission."""

    def __init__(
        self, gen_at: Dict[int, FrozenSet[str]], rebinds: Dict[int, FrozenSet[str]]
    ) -> None:
        self._gen_at = gen_at
        self._rebinds = rebinds

    def bottom(self) -> FrozenSet[str]:
        return frozenset()

    def join(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        return a | b

    def transfer(self, node: CFGNode, state: FrozenSet[str]) -> FrozenSet[str]:
        state -= self._rebinds.get(node.index, frozenset())
        return state | self._gen_at.get(node.index, frozenset())


@register_checker
class RngDisciplineChecker(Checker):
    """Spawn-derived streams only may cross a pool boundary, and one way.

    Draw-for-draw determinism under sharding/retry rests on the PR 4
    convention: every worker derives its stream from
    ``SeedSequence(entropy, spawn_key=...)`` / ``SeedSequence.spawn()``,
    and the parent never touches a stream once a worker owns it.  This
    rule checks both halves at every ``submit(...)`` site.
    """

    rule_id = "rng-discipline"
    description = (
        "generators crossing a pool submit() must be SeedSequence.spawn-"
        "derived and never drawn from again in the parent"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for scope in _iter_scopes(ctx.tree):
            yield from self._check_scope(scope, aliases, ctx)

    # -- construction provenance ---------------------------------------- #
    def _generator_def(
        self, node: CFGNode, aliases: Dict[str, str]
    ) -> Optional[Tuple[str, Optional[ast.expr]]]:
        """``(name, seed expr)`` if ``node`` binds a Generator to a Name."""
        stmt = node.stmt
        if node.kind != "stmt" or not isinstance(stmt, ast.Assign):
            return None
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            return None
        value = stmt.value
        if not isinstance(value, ast.Call):
            return None
        if _canonical_name(value.func, aliases) in GENERATOR_CTORS:
            seed = value.args[0] if value.args else _kwarg(value, "seed")
            return (stmt.targets[0].id, seed)
        return None

    def _spawn_derived(
        self,
        expr: Optional[ast.expr],
        at_node: int,
        scope: _Scope,
        aliases: Dict[str, str],
        seen: Set[Tuple[str, int]],
    ) -> bool:
        """Whether ``expr`` provably derives from spawn/spawn_key material."""
        if expr is None:
            return False
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr == "spawn":
                return True
            canonical = _canonical_name(func, aliases)
            if canonical == "numpy.random.SeedSequence":
                return _kwarg(expr, "spawn_key") is not None
            return False
        if isinstance(expr, ast.Subscript):
            return self._spawn_derived(expr.value, at_node, scope, aliases, seen)
        if isinstance(expr, ast.Name):
            key = (expr.id, at_node)
            if key in seen:
                return False
            seen.add(key)
            defs = scope.reaching.def_nodes(expr.id, at_node)
            if not defs or len(scope.reaching.defs_of(expr.id, at_node)) != len(defs):
                return False  # entry-bound or unknown provenance
            for def_node in defs:
                stmt = def_node.stmt
                if not isinstance(stmt, ast.Assign):
                    return False
                if not self._spawn_derived(
                    stmt.value, def_node.index, scope, aliases, seen
                ):
                    return False
            return True
        return False

    # -- payload expansion ---------------------------------------------- #
    def _payload_names(
        self, call: ast.Call, at_node: int, scope: _Scope, depth: int = 2
    ) -> Set[str]:
        """Names flowing into the submit payload, one aliasing hop deep."""
        names: Set[str] = set()
        for arg in _call_arg_exprs(call):
            names |= stored_names(arg)
        frontier = set(names)
        for _ in range(depth):
            expanded: Set[str] = set()
            for name in frontier:
                for def_node in scope.reaching.def_nodes(name, at_node):
                    stmt = def_node.stmt
                    if isinstance(stmt, ast.Assign):
                        expanded |= stored_names(stmt.value)
            new = expanded - names
            if not new:
                break
            names |= new
            frontier = new
        return names

    def _check_scope(
        self,
        scope: _Scope,
        aliases: Dict[str, str],
        ctx: FileContext,
    ) -> Iterator[Finding]:
        gen_defs: Dict[int, Tuple[str, Optional[ast.expr]]] = {}
        for node in scope.cfg.stmt_nodes():
            found = self._generator_def(node, aliases)
            if found is not None:
                gen_defs[node.index] = found
        if not gen_defs:
            return

        escaped_at: Dict[int, FrozenSet[str]] = {}
        rebinds: Dict[int, FrozenSet[str]] = {}
        findings: List[Finding] = []
        for node in scope.cfg.stmt_nodes():
            bound = assigned_names(node)
            if bound:
                rebinds[node.index] = frozenset(bound)
            for call in _iter_calls(node.evaluated()):
                if not _is_submit_call(call):
                    continue
                submitted = self._payload_names(call, node.index, scope)
                escaping: Set[str] = set()
                for name in sorted(submitted):
                    reaching_defs = scope.reaching.defs_of(name, node.index)
                    gen_sites = [i for i in reaching_defs if i in gen_defs]
                    if not gen_sites:
                        continue
                    escaping.add(name)
                    for site in gen_sites:
                        _, seed = gen_defs[site]
                        if not self._spawn_derived(seed, site, scope, aliases, set()):
                            findings.append(
                                self.finding(
                                    ctx,
                                    node.line,
                                    f"generator {name!r} flows into a pool "
                                    "submit() but does not derive from "
                                    "SeedSequence.spawn()/spawn_key material "
                                    f"(constructed at line {scope.cfg.node(site).line}) "
                                    "— worker streams must be spawn-derived",
                                )
                            )
                if escaping:
                    escaped_at[node.index] = escaped_at.get(
                        node.index, frozenset()
                    ) | frozenset(escaping)
        yield from findings
        if not escaped_at:
            return

        in_states = solve_forward(
            scope.cfg, _EscapedSetAnalysis(escaped_at, rebinds)
        )
        for node in scope.cfg.stmt_nodes():
            escaped = in_states[node.index]
            if not escaped:
                continue
            for call in _iter_calls(node.evaluated()):
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in DRAW_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in escaped
                ):
                    yield self.finding(
                        ctx,
                        node.line,
                        f"parent draws from generator {func.value.id!r} after it "
                        "escaped into a pool submit() — the worker owns that "
                        "stream now; respawn a child stream instead",
                    )


# --------------------------------------------------------------------------- #
# pickle-safety
# --------------------------------------------------------------------------- #
@register_checker
class PickleSafetyChecker(Checker):
    """Pool ``submit(...)`` payloads must survive the pickle boundary.

    Lambdas, functions defined inside functions, and bound methods or
    instances of classes that are not importable at module level all
    pickle by qualified name — and fail only at runtime, inside a
    worker, after the pool is already live.  Flag them at the submit
    site instead.
    """

    rule_id = "pickle-safety"
    description = (
        "no lambdas, locally-defined functions, or bound methods of "
        "non-module-level classes in pool submit() arguments"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for scope in _iter_scopes(ctx.tree):
            yield from self._check_scope(scope, ctx)

    def _local_instance_def(self, name: str, at_node: int, scope: _Scope) -> bool:
        """Whether ``name``'s reaching defs instantiate a local class."""
        defs = scope.reaching.def_nodes(name, at_node)
        for def_node in defs:
            stmt = def_node.stmt
            if (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Name)
                and stmt.value.func.id in scope.local_classes
            ):
                return True
        return False

    def _check_arg(
        self, arg: ast.expr, node: CFGNode, scope: _Scope, ctx: FileContext
    ) -> Iterator[Finding]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Lambda):
                yield self.finding(
                    ctx,
                    getattr(sub, "lineno", node.line),
                    "lambda in a pool submit() payload cannot be pickled — "
                    "use a module-level function",
                )
        if isinstance(arg, ast.Name):
            if arg.id in scope.local_funcs:
                yield self.finding(
                    ctx,
                    node.line,
                    f"{arg.id!r} is defined inside a function; it pickles by "
                    "qualified name and will fail in the worker — move it to "
                    "module level",
                )
                return
            for def_node in scope.reaching.def_nodes(arg.id, node.index):
                stmt = def_node.stmt
                if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Lambda):
                    yield self.finding(
                        ctx,
                        node.line,
                        f"{arg.id!r} is bound to a lambda (line "
                        f"{def_node.line}) — not picklable across the pool "
                        "boundary",
                    )
                    return
            if self._local_instance_def(arg.id, node.index, scope):
                yield self.finding(
                    ctx,
                    node.line,
                    f"{arg.id!r} is an instance of a class defined inside a "
                    "function — instances of non-module-level classes cannot "
                    "be pickled",
                )
        elif isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name):
            owner = arg.value.id
            if owner == "self" and scope.class_is_local:
                yield self.finding(
                    ctx,
                    node.line,
                    f"bound method self.{arg.attr} of a class defined inside "
                    "a function cannot be pickled — hoist the class to module "
                    "level or submit a module-level function",
                )
            elif owner != "self" and self._local_instance_def(
                owner, node.index, scope
            ):
                yield self.finding(
                    ctx,
                    node.line,
                    f"bound method {owner}.{arg.attr} of a non-module-level "
                    "class cannot be pickled across the pool boundary",
                )

    def _check_scope(self, scope: _Scope, ctx: FileContext) -> Iterator[Finding]:
        for node in scope.cfg.stmt_nodes():
            for call in _iter_calls(node.evaluated()):
                if not _is_submit_call(call):
                    continue
                for arg in _call_arg_exprs(call):
                    yield from self._check_arg(arg, node, scope, ctx)
