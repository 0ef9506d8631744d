"""The repro-lint framework: checker registry, pragmas, findings, runner.

The reproduction's guarantees — draw-for-draw backend equivalence,
deterministic sharding per ``(seed, k)``, exact checkpoint/resume, atomic
result files — rest on code discipline that a test suite can only sample.
This module turns that discipline into *static* rules: each
:class:`Checker` closes one bug class over the whole source tree, every
run, before any test executes.

Architecture
------------
* :class:`Finding` — one structured report: ``(path, line, rule, message)``.
* :class:`Checker` — base class.  A checker receives a parsed
  :class:`FileContext` per source file.
* :data:`CHECKER_REGISTRY` / :func:`register_checker` — rule-id keyed
  plugin registry.  Adding a checker is: subclass, set ``rule_id`` and
  ``description``, decorate with ``@register_checker``.
* Suppression — a ``# repro-lint: allow[rule-id]`` comment suppresses
  findings of that rule on its own line; a comment-only line suppresses
  the *next* line (for constructs too long to annotate in place).  Every
  suppression must name rule ids; malformed, unknown-rule and *unused*
  pragmas are themselves findings (rule ``pragma``), so stale
  suppressions cannot accumulate.

Entry points: :func:`run_lint` (library), :func:`main` (``python -m
repro.quality`` and the ``repro-gossip lint`` subcommand).
"""

from __future__ import annotations

import ast
import fnmatch
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

__all__ = [
    "Finding",
    "FileContext",
    "Checker",
    "CHECKER_REGISTRY",
    "register_checker",
    "run_lint",
    "lint_text",
    "main",
    "github_annotation",
    "write_report",
    "PRAGMA_RULE",
    "PARSE_RULE",
]

#: rule id for pragma-syntax findings (malformed / unknown-rule / unused)
PRAGMA_RULE = "pragma"
#: rule id for files the linter cannot parse
PARSE_RULE = "parse"

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint\s*:\s*(?P<verb>[A-Za-z-]+)\s*(?:\[(?P<rules>[^\]]*)\])?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One structured lint report, sortable into canonical (path, line) order."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (the ``--format json`` payload)."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class FileContext:
    """Everything a file-scope checker needs about one source file."""

    path: Path
    display: str
    source: str
    tree: ast.Module


# --------------------------------------------------------------------------- #
# shared AST helpers (defined here, the leaf module, so every checker layer
# can use them without creating import cycles)
# --------------------------------------------------------------------------- #
def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the canonical dotted module/object they bind.

    ``import numpy as np`` -> ``{"np": "numpy"}``; ``from datetime import
    datetime as dt`` -> ``{"dt": "datetime.datetime"}``.  Only top-of-tree
    walk — nested/function-local imports are included too (the canonical
    name is what matters, not where the binding happened).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                canonical = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never bind the banned stdlib names
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def _canonical_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an expression to a canonical dotted name, or ``None``.

    Walks ``Attribute`` chains down to a root ``Name`` and substitutes the
    import alias.  Chains rooted in anything else (a call result, a
    subscript) resolve to ``None`` — ``default_rng(0).random()`` is a draw
    from an *explicitly seeded* generator and must not be flagged.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


class Checker:
    """Base class for repro-lint rules.

    Subclasses set :attr:`rule_id` (the pragma-addressable identifier) and
    :attr:`description`, then implement :meth:`check_file`.
    :meth:`applies_to` lets a rule exempt whole paths (the layer that
    legitimately owns the banned construct).
    """

    rule_id: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def applies_to(self, path: Path) -> bool:
        """Whether this rule runs on ``path`` (``True`` unless overridden)."""
        return True

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one parsed source file."""
        return iter(())

    def finding(self, ctx_or_path: object, line: int, message: str) -> Finding:
        """Build a finding carrying this checker's rule id."""
        display = (
            ctx_or_path.display
            if isinstance(ctx_or_path, FileContext)
            else str(ctx_or_path)
        )
        return Finding(path=display, line=line, rule=self.rule_id, message=message)


#: rule id -> checker class.  Populated by :func:`register_checker`.
CHECKER_REGISTRY: Dict[str, Type[Checker]] = {}


def register_checker(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator: add ``cls`` to :data:`CHECKER_REGISTRY` by rule id."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must define a non-empty rule_id")
    if cls.rule_id in (PRAGMA_RULE, PARSE_RULE):
        raise ValueError(f"rule id {cls.rule_id!r} is reserved by the framework")
    existing = CHECKER_REGISTRY.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"rule id {cls.rule_id!r} already registered by {existing.__name__}"
        )
    CHECKER_REGISTRY[cls.rule_id] = cls
    return cls


# --------------------------------------------------------------------------- #
# suppression pragmas
# --------------------------------------------------------------------------- #
@dataclass
class _Pragma:
    """One parsed ``allow[...]`` pragma: where it sits, what it suppresses."""

    comment_line: int
    target_line: int
    rules: Tuple[str, ...]
    used: Set[str] = field(default_factory=set)


class PragmaSheet:
    """Per-file suppression state: parsed pragmas plus their own findings.

    ``allow`` maps a target line to the rule ids suppressed there; usage
    is tracked per pragma so stale suppressions surface as ``pragma``
    findings after the file's checkers have run.
    """

    def __init__(self, display: str, source: str) -> None:
        self.display = display
        self.pragmas: List[_Pragma] = []
        self.syntax_findings: List[Finding] = []
        self._parse(source)

    def _parse(self, source: str) -> None:
        lines = source.splitlines()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return  # the parse-rule finding already covers unreadable files
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            # Only the tool name followed by a colon is pragma syntax;
            # prose that merely mentions repro-lint is not parsed.
            if re.search(r"repro-lint\s*:", tok.string) is None:
                continue
            row = tok.start[0]
            match = _PRAGMA_RE.search(tok.string)
            if match is None or match.group("verb") != "allow" or not match.group("rules"):
                self.syntax_findings.append(
                    Finding(
                        path=self.display,
                        line=row,
                        rule=PRAGMA_RULE,
                        message=(
                            "malformed repro-lint pragma (expected "
                            "'# repro-lint: allow[rule-id]'): " + tok.string.strip()
                        ),
                    )
                )
                continue
            rules = tuple(
                r.strip() for r in match.group("rules").split(",") if r.strip()
            )
            unknown = [r for r in rules if r not in CHECKER_REGISTRY]
            for rule in unknown:
                self.syntax_findings.append(
                    Finding(
                        path=self.display,
                        line=row,
                        rule=PRAGMA_RULE,
                        message=(
                            f"pragma names unknown rule {rule!r}; registered rules: "
                            f"{sorted(CHECKER_REGISTRY)}"
                        ),
                    )
                )
            rules = tuple(r for r in rules if r in CHECKER_REGISTRY)
            if not rules:
                continue
            # A comment-only line suppresses the next physical line.
            prefix = lines[row - 1][: tok.start[1]] if row - 1 < len(lines) else ""
            target = row + 1 if not prefix.strip() else row
            self.pragmas.append(_Pragma(comment_line=row, target_line=target, rules=rules))

    def filter(self, findings: Iterable[Finding]) -> List[Finding]:
        """Drop findings a pragma suppresses, marking those pragmas used."""
        kept: List[Finding] = []
        for finding in findings:
            suppressed = False
            for pragma in self.pragmas:
                if pragma.target_line == finding.line and finding.rule in pragma.rules:
                    pragma.used.add(finding.rule)
                    suppressed = True
            if not suppressed:
                kept.append(finding)
        return kept

    def unused_findings(self, active_rules: Set[str]) -> List[Finding]:
        """``pragma`` findings for every suppression that suppressed nothing.

        Only rules in ``active_rules`` are judged — a pragma for a rule
        that was not selected this run cannot be called stale.
        """
        stale: List[Finding] = []
        for pragma in self.pragmas:
            for rule in pragma.rules:
                if rule in active_rules and rule not in pragma.used:
                    stale.append(
                        Finding(
                            path=self.display,
                            line=pragma.comment_line,
                            rule=PRAGMA_RULE,
                            message=(
                                f"unused suppression: no {rule!r} finding on line "
                                f"{pragma.target_line} to allow (stale pragma?)"
                            ),
                        )
                    )
        return stale


# --------------------------------------------------------------------------- #
# the runner
# --------------------------------------------------------------------------- #
def _iter_python_files(paths: Sequence[object]) -> Iterator[Path]:
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(str(raw))
        candidates: Iterable[Path]
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def _excluded(display: str, patterns: Sequence[str]) -> bool:
    """Whether ``display`` matches any ``--exclude`` glob.

    Patterns are matched against the display path as given and with a
    leading ``*/`` added, so ``tests/data/*`` excludes the fixture corpus
    whether the run was invoked with relative or absolute paths.
    """
    for pattern in patterns:
        if fnmatch.fnmatch(display, pattern) or fnmatch.fnmatch(
            display, "*/" + pattern
        ):
            return True
    return False


def _make_checkers(rules: Optional[Sequence[str]]) -> List[Checker]:
    if rules is None:
        selected = sorted(CHECKER_REGISTRY)
    else:
        unknown = sorted(set(rules) - set(CHECKER_REGISTRY))
        if unknown:
            raise KeyError(
                f"unknown lint rule(s) {unknown}; registered: {sorted(CHECKER_REGISTRY)}"
            )
        selected = list(dict.fromkeys(rules))
    return [CHECKER_REGISTRY[rule]() for rule in selected]


def run_lint(
    paths: Sequence[object],
    rules: Optional[Sequence[str]] = None,
    exclude: Sequence[str] = (),
) -> List[Finding]:
    """Lint ``paths`` (files or directories) and return unsuppressed findings.

    ``rules`` selects a subset of :data:`CHECKER_REGISTRY` (default: all).
    ``exclude`` drops files whose display path matches any glob.

    Findings come back sorted by ``(path, line, rule)``; an empty list is
    a clean run.
    """
    # Importing registers the built-in checkers exactly once.
    from repro.quality import checkers as _checkers  # noqa: F401

    checkers = _make_checkers(rules)
    findings: List[Finding] = []
    sheets: Dict[str, PragmaSheet] = {}

    for path in _iter_python_files(paths):
        display = str(path)
        if _excluded(display, exclude):
            continue
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(
                Finding(display, 1, PARSE_RULE, f"cannot read file: {exc}")
            )
            continue
        sheet = PragmaSheet(display, source)
        sheets[display] = sheet
        findings.extend(sheet.syntax_findings)
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            findings.append(
                Finding(display, exc.lineno or 1, PARSE_RULE, f"syntax error: {exc.msg}")
            )
            continue
        ctx = FileContext(path=path, display=display, source=source, tree=tree)
        raw: List[Finding] = []
        for checker in checkers:
            if checker.applies_to(path):
                raw.extend(checker.check_file(ctx))
        findings.extend(sheet.filter(raw))

    # Stale-suppression sweep over the files we actually linted, judging
    # only the rules that actually ran.
    active_rules = {c.rule_id for c in checkers}
    for sheet in sheets.values():
        findings.extend(sheet.unused_findings(active_rules))

    return sorted(findings)


def lint_text(
    source: str,
    display: str = "<memory>",
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint a source string (test/tooling helper)."""
    from repro.quality import checkers as _checkers  # noqa: F401

    checker_objs = _make_checkers(rules)
    findings: List[Finding] = []
    sheet = PragmaSheet(display, source)
    findings.extend(sheet.syntax_findings)
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        findings.append(
            Finding(display, exc.lineno or 1, PARSE_RULE, f"syntax error: {exc.msg}")
        )
        return sorted(findings)
    ctx = FileContext(path=Path(display), display=display, source=source, tree=tree)
    raw: List[Finding] = []
    for checker in checker_objs:
        if checker.applies_to(Path(display)):
            raw.extend(checker.check_file(ctx))
    findings.extend(sheet.filter(raw))
    findings.extend(sheet.unused_findings({c.rule_id for c in checker_objs}))
    return sorted(findings)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def _default_paths() -> List[str]:
    import repro

    package_file = repro.__file__
    if package_file is None:  # pragma: no cover - namespace-package edge
        raise SystemExit("cannot locate the repro package to lint; pass paths")
    return [str(Path(package_file).parent)]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.quality`` entry point.  Exit 0 clean, 1 findings."""
    import argparse

    # Register built-ins before --rules choices are computed.
    from repro.quality import checkers as _checkers  # noqa: F401

    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Determinism & resource-safety static analysis for the "
            "repro-gossip source tree."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--rules",
        nargs="+",
        choices=sorted(CHECKER_REGISTRY),
        default=None,
        help="run only these rules (default: all registered rules)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "github"],
        default="text",
        help=(
            "finding output format (github emits ::error workflow-command "
            "annotations)"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the findings as a JSON report to PATH (atomically)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print registered rule ids with descriptions and exit",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="GLOB",
        help="skip files whose path matches GLOB (repeatable)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(CHECKER_REGISTRY):
            print(f"{rule_id:22s} {CHECKER_REGISTRY[rule_id].description}")
        return 0

    paths: Sequence[object] = args.paths or _default_paths()
    findings = run_lint(paths, rules=args.rules, exclude=args.exclude)
    if args.output:
        write_report(args.output, paths, args.rules, findings)
    if args.format == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    elif args.format == "github":
        for finding in findings:
            print(github_annotation(finding))
        label = "finding" if len(findings) == 1 else "findings"
        print(f"repro-lint: {len(findings)} {label} in {len(paths)} path(s)")
    else:
        for finding in findings:
            print(finding)
        label = "finding" if len(findings) == 1 else "findings"
        print(f"repro-lint: {len(findings)} {label} in {len(paths)} path(s)")
    return 1 if findings else 0


def _annotation_escape(value: str, *, property_value: bool = False) -> str:
    """Escape per GitHub's workflow-command rules (order matters: % first)."""
    value = value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if property_value:
        value = value.replace(":", "%3A").replace(",", "%2C")
    return value


def github_annotation(finding: Finding) -> str:
    """One finding as a GitHub Actions ``::error`` annotation line."""
    file_prop = _annotation_escape(finding.path, property_value=True)
    title = _annotation_escape(f"repro-lint [{finding.rule}]", property_value=True)
    message = _annotation_escape(finding.message)
    return (
        f"::error file={file_prop},line={finding.line},title={title}::{message}"
    )


def write_report(
    output: str,
    paths: Sequence[object],
    rules: Optional[Sequence[str]],
    findings: Sequence[Finding],
) -> None:
    """Write a JSON lint report to ``output`` atomically.

    Imported lazily from the io layer so that merely importing the lint
    framework never pulls the simulation package in.
    """
    from repro.simulation.io import atomic_write_text

    report = {
        "tool": "repro-lint",
        "paths": [str(p) for p in paths],
        "rules": sorted(rules) if rules else sorted(CHECKER_REGISTRY),
        "count": len(findings),
        "findings": [f.as_dict() for f in findings],
    }
    atomic_write_text(output, json.dumps(report, indent=2) + "\n")
