"""Tests for the CFG/dataflow layer and the three flow-sensitive lint rules.

Five layers of coverage:

* CFG construction — path enumeration through branches, loops and
  ``try/finally`` (exceptional edges included);
* reaching definitions — joins at branch merges, parameter entry defs;
* fixture corpus — the ``bad_*`` twins fire, the ``allowed_*`` twins
  pass under all three flow rules together;
* the resource model — which calls acquire what, which expressions
  alias a handle, and how an opaque call ends a local obligation;
* mutation — the seeded ``_SharedBlock`` unlink-removal mutant, a
  parent-side RNG-reuse mutant and the runner pool-leak mutant each
  produce exactly one finding, and the unmutated sources stay clean.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.quality import lint_text, run_lint
from repro.quality.cfg import CFG, EXCEPTION, build_cfg
from repro.quality.dataflow import ENTRY_DEF, ReachingDefinitions
from repro.quality.flow_checkers import resource_of_call, stored_names
from repro.quality.framework import (
    Finding,
    _import_aliases,
    github_annotation,
    main,
)

DATA = Path(__file__).parent / "data" / "lint"
SRC_ROOT = Path(__file__).parents[1] / "src" / "repro"

FLOW_RULES = ["resource-leak", "rng-discipline", "pickle-safety"]


def _function_cfg(src: str, name: str) -> tuple[CFG, ast.FunctionDef]:
    tree = ast.parse(src)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return build_cfg(node), node
    raise AssertionError(f"no function {name!r} in source")


def _lines(cfg: CFG, path: list[int]) -> list[int]:
    return [cfg.node(i).line for i in path if cfg.node(i).line]


# --------------------------------------------------------------------------- #
# CFG construction
# --------------------------------------------------------------------------- #
class TestCfgConstruction:
    def test_branch_enumerates_both_arms(self):
        cfg, _ = _function_cfg(
            "def f(c):\n"
            "    if c:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    return a\n",
            "f",
        )
        normal = [p for p in cfg.paths() if p[-1] == cfg.exit]
        assert len(normal) == 2
        arms = {tuple(_lines(cfg, p)) for p in normal}
        assert arms == {(2, 3, 6), (2, 5, 6)}

    def test_if_without_else_falls_through(self):
        cfg, _ = _function_cfg(
            "def f(c):\n    if c:\n        a = 1\n    return c\n", "f"
        )
        normal = [p for p in cfg.paths() if p[-1] == cfg.exit]
        assert {tuple(_lines(cfg, p)) for p in normal} == {(2, 3, 4), (2, 4)}

    def test_loop_has_back_edge_and_loop_free_paths(self):
        cfg, _ = _function_cfg(
            "def f(n):\n"
            "    total = 0\n"
            "    while n:\n"
            "        total = total + n\n"
            "        n = n - 1\n"
            "    return total\n",
            "f",
        )
        # the loop body's last statement flows back to the loop head
        head = next(n for n in cfg.stmt_nodes() if n.kind == "loop")
        last = next(n for n in cfg.stmt_nodes() if n.line == 5)
        assert (head.index, "normal") in cfg.successors(last.index)
        # enumerated paths never revisit a node
        for path in cfg.paths():
            assert len(path) == len(set(path))

    def test_early_return_and_raise_reach_their_exits(self):
        cfg, _ = _function_cfg(
            "def f(c):\n"
            "    if c:\n"
            "        return 1\n"
            "    raise ValueError(c)\n",
            "f",
        )
        endings = {p[-1] for p in cfg.paths()}
        assert endings == {cfg.exit, cfg.raise_exit}

    def test_break_leaves_the_loop(self):
        cfg, _ = _function_cfg(
            "def f(items):\n"
            "    for item in items:\n"
            "        if item:\n"
            "            break\n"
            "    return items\n",
            "f",
        )
        assert any(
            4 in _lines(cfg, p) and 5 in _lines(cfg, p)
            for p in cfg.paths()
            if p[-1] == cfg.exit
        )

    def test_try_finally_runs_on_both_kinds_of_exit(self):
        cfg, _ = _function_cfg(
            "def f(x):\n"
            "    try:\n"
            "        risky(x)\n"
            "    finally:\n"
            "        cleanup(x)\n",
            "f",
        )
        cleanup = next(n for n in cfg.stmt_nodes() if n.line == 5 and n.kind == "stmt")
        normal = [p for p in cfg.paths() if p[-1] == cfg.exit]
        exceptional = [p for p in cfg.paths() if p[-1] == cfg.raise_exit]
        assert normal and exceptional
        # the finally body is on every completed normal path and on the
        # re-raise path (entered through the synthetic gate)
        assert all(cleanup.index in p for p in normal)
        assert any(cleanup.index in p for p in exceptional)

    def test_except_handler_is_an_exceptional_continuation(self):
        cfg, _ = _function_cfg(
            "def f(x):\n"
            "    try:\n"
            "        risky(x)\n"
            "    except ValueError:\n"
            "        x = 0\n"
            "    return x\n",
            "f",
        )
        risky = next(n for n in cfg.stmt_nodes() if n.line == 3)
        assert any(kind == EXCEPTION for _, kind in cfg.successors(risky.index))
        handled = [p for p in cfg.paths() if p[-1] == cfg.exit]
        assert any(5 in _lines(cfg, p) for p in handled)

    def test_catch_all_handler_blocks_outward_propagation(self):
        cfg, _ = _function_cfg(
            "def f(x):\n"
            "    try:\n"
            "        risky(x)\n"
            "    except BaseException:\n"
            "        raise\n"
            "    return x\n",
            "f",
        )
        dispatch = next(n for n in cfg.nodes if n.kind == "dispatch")
        assert all(kind != EXCEPTION for _, kind in cfg.successors(dispatch.index))

    def test_nested_function_bodies_are_opaque(self):
        cfg, _ = _function_cfg(
            "def f(x):\n"
            "    def inner():\n"
            "        return open('w')\n"
            "    return inner\n",
            "f",
        )
        lines = {n.line for n in cfg.stmt_nodes()}
        assert 3 not in lines  # inner's body is not part of f's CFG


# --------------------------------------------------------------------------- #
# reaching definitions
# --------------------------------------------------------------------------- #
class TestReachingDefinitions:
    def test_branch_merge_joins_definitions(self):
        cfg, fn = _function_cfg(
            "def f(c):\n"
            "    x = 1\n"
            "    if c:\n"
            "        x = 2\n"
            "    return x\n",
            "f",
        )
        reaching = ReachingDefinitions(cfg, fn)
        ret = next(n for n in cfg.stmt_nodes() if n.line == 5)
        def_lines = sorted(n.line for n in reaching.def_nodes("x", ret.index))
        assert def_lines == [2, 4]

    def test_parameters_are_entry_defs(self):
        cfg, fn = _function_cfg("def f(c):\n    return c\n", "f")
        reaching = ReachingDefinitions(cfg, fn)
        ret = next(n for n in cfg.stmt_nodes() if n.line == 2)
        assert reaching.defs_of("c", ret.index) == frozenset({ENTRY_DEF})
        assert reaching.def_nodes("c", ret.index) == []

    def test_rebinding_kills_the_earlier_definition(self):
        cfg, fn = _function_cfg(
            "def f():\n    x = 1\n    x = 2\n    return x\n", "f"
        )
        reaching = ReachingDefinitions(cfg, fn)
        ret = next(n for n in cfg.stmt_nodes() if n.line == 4)
        assert [n.line for n in reaching.def_nodes("x", ret.index)] == [3]

    def test_loop_carried_definition_reaches_the_head(self):
        cfg, fn = _function_cfg(
            "def f(n):\n"
            "    x = 0\n"
            "    while n:\n"
            "        x = x + 1\n"
            "    return x\n",
            "f",
        )
        reaching = ReachingDefinitions(cfg, fn)
        ret = next(n for n in cfg.stmt_nodes() if n.line == 5)
        assert sorted(n.line for n in reaching.def_nodes("x", ret.index)) == [2, 4]


# --------------------------------------------------------------------------- #
# fixture corpus
# --------------------------------------------------------------------------- #
class TestFlowFixtureCorpus:
    @pytest.mark.parametrize("rule", FLOW_RULES)
    def test_bad_fixture_fires(self, rule):
        fixture = DATA / f"bad_{rule.replace('-', '_')}.py"
        findings = run_lint([fixture], rules=[rule])
        assert findings, f"{fixture.name} must produce {rule} findings"
        assert all(f.rule == rule for f in findings)
        assert all(f.path == str(fixture) and f.line > 0 for f in findings)

    @pytest.mark.parametrize("rule", FLOW_RULES)
    def test_allowed_twin_passes(self, rule):
        fixture = DATA / f"allowed_{rule.replace('-', '_')}.py"
        findings = run_lint([fixture], rules=[rule])
        assert findings == [], [str(f) for f in findings]

    def test_allowed_corpus_clean_under_all_flow_rules(self):
        # pragmas from one flow rule must not read as stale to another
        for rule in FLOW_RULES:
            fixture = DATA / f"allowed_{rule.replace('-', '_')}.py"
            findings = run_lint([fixture], rules=FLOW_RULES)
            assert findings == [], [str(f) for f in findings]

    def test_bad_resource_leak_covers_every_kind(self):
        findings = run_lint(
            [DATA / "bad_resource_leak.py"],
            rules=["resource-leak"],
        )
        blob = "\n".join(f.message for f in findings)
        for marker in ("SharedMemory", "mkstemp", "open", "ProcessPoolExecutor"):
            assert marker in blob
        # the class-level obligation (close present, unlink missing)
        assert any("class BrokenBlock" in f.message for f in findings)

    def test_exceptional_path_leak_is_reported_as_such(self):
        findings = lint_text(
            "def f(path, payload):\n"
            "    handle = open(path, 'w')\n"
            "    handle.write(payload)\n"
            "    handle.close()\n",
            rules=["resource-leak"],
        )
        assert len(findings) == 1
        assert "exceptional path" in findings[0].message


# --------------------------------------------------------------------------- #
# the resource model: acquisitions, aliasing stores, ownership transfers
# --------------------------------------------------------------------------- #
_ACQUIRE_HEADER = """\
import gzip
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from multiprocessing import shared_memory
from pathlib import Path
"""


def _acquisition(expr: str):
    tree = ast.parse(_ACQUIRE_HEADER + expr + "\n")
    call = tree.body[-1].value
    assert isinstance(call, ast.Call)
    return resource_of_call(call, _import_aliases(tree))


class TestResourceModel:
    @pytest.mark.parametrize(
        "expr, marker, actions",
        [
            ("shared_memory.SharedMemory(create=True, size=8)", "create=True", {"close", "unlink"}),
            ("shared_memory.SharedMemory(name='seg')", "attachment", {"close"}),
            # a non-constant create= is not provably an owner: attachment only
            ("shared_memory.SharedMemory(create=flag, size=8)", "attachment", {"close"}),
            ("open(path, 'w')", "'w'", {"close"}),
            ("open(path, mode='ab')", "'ab'", {"close"}),
            ("open(path, 'r+')", "'r+'", {"close"}),
            ("os.fdopen(fd, 'wb')", "os.fdopen", {"close"}),
            ("target.open(mode='x')", "target.open", {"close"}),
            ("Path(p).open(mode='a')", ".open(", {"close"}),
            # a method takes its mode first, a module function second
            ("Path(p).open('w')", "'w'", {"close"}),
            ("target.open('w')", "target.open", {"close"}),
            ("gzip.open(path, 'wt')", "gzip.open", {"close"}),
            ("ProcessPoolExecutor(max_workers=2)", "ProcessPoolExecutor", {"shutdown"}),
            ("ThreadPoolExecutor()", "ThreadPoolExecutor", {"shutdown"}),
        ],
    )
    def test_acquiring_calls(self, expr, marker, actions):
        acquired = _acquisition(expr)
        assert acquired is not None, expr
        description, required = acquired
        assert marker in description
        assert required == frozenset(actions)

    @pytest.mark.parametrize(
        "expr",
        [
            "open(path)",
            "open(path, 'rb')",
            "open(path, mode)",  # mode unknown: quiet
            "target.open()",
            "target.open('r')",
            # mkstemp is tracked through its tuple unpacking, not here
            "tempfile.mkstemp()",
            "print(path, 'w')",
        ],
    )
    def test_non_acquiring_calls(self, expr):
        assert _acquisition(expr) is None

    @pytest.mark.parametrize(
        "expr, names",
        [
            ("shm", {"shm"}),
            ("(fd, tmp)", {"fd", "tmp"}),
            ("[head, *rest]", {"head", "rest"}),
            ("{key: handle}", {"key", "handle"}),
            ("a if flag else b", {"a", "b"}),
            ("await handle", {"handle"}),
            ("handle.read()", set()),
            ("handle.name", set()),
            ("handles[0]", set()),
        ],
    )
    def test_stored_names(self, expr, names):
        value = ast.parse(expr, mode="eval").body
        assert stored_names(value) == names

    def test_stored_names_of_nothing(self):
        assert stored_names(None) == set()

    @pytest.mark.parametrize(
        "transfer",
        ["register(h)", "registry.add(h)", "register(handle=h)", "register([h])"],
    )
    def test_argument_to_any_call_transfers_ownership(self, transfer):
        # Every call is opaque, so a callee may keep or release the handle:
        # the local obligation ends at the call (docs/linting.md, "Known
        # imprecision").
        src = f"def f(path, register, registry):\n    h = open(path, 'w')\n    {transfer}\n"
        assert lint_text(src, rules=["resource-leak"]) == []

    def test_without_a_transfer_the_leak_is_reported(self):
        src = "def f(path):\n    h = open(path, 'w')\n    h.write('x')\n"
        findings = lint_text(src, rules=["resource-leak"])
        assert len(findings) == 1
        assert "open" in findings[0].message

    def test_opaque_factory_result_is_untracked(self):
        # A pool built by a helper is not known to be a pool here, so a
        # missing shutdown() is not reported (the intra-procedural limit).
        src = (
            "def make_pool():\n"
            "    return ThreadPoolExecutor()\n"
            "\n"
            "def f(job):\n"
            "    pool = make_pool()\n"
            "    pool.submit(job)\n"
        )
        assert lint_text(src, rules=["resource-leak"]) == []


# --------------------------------------------------------------------------- #
# mutation: the seeded mutants each produce exactly one finding
# --------------------------------------------------------------------------- #
_SHARDING = SRC_ROOT / "simulation" / "sharding.py"
_RUNNER = SRC_ROOT / "simulation" / "runner.py"

_RNG_CLEAN = """\
import numpy as np


def submit_round(pool, worker, entropy):
    seq = np.random.SeedSequence(entropy)
    rng = np.random.default_rng(seq.spawn(1)[0])
    future = pool.submit(worker, rng)
    payload = future
    return payload
"""


class TestMutationCatches:
    def test_unmutated_sharding_is_clean(self):
        findings = lint_text(
            _SHARDING.read_text(), str(_SHARDING), rules=["resource-leak"]
        )
        assert findings == [], [str(f) for f in findings]

    def test_shared_block_unlink_removal_is_caught(self):
        src = _SHARDING.read_text()
        assert "self.shm.unlink()" in src, "mutation target moved"
        mutant = src.replace("self.shm.unlink()", "pass")
        findings = lint_text(mutant, "sharding_mutant.py", rules=["resource-leak"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "resource-leak"
        assert "unlink" in finding.message
        assert "_SharedBlock" in finding.message

    def test_parent_rng_reuse_is_caught(self):
        assert lint_text(_RNG_CLEAN, rules=["rng-discipline"]) == []
        mutant = _RNG_CLEAN.replace(
            "payload = future", "payload = (future, rng.random())"
        )
        findings = lint_text(mutant, "rng_mutant.py", rules=["rng-discipline"])
        assert len(findings) == 1
        assert findings[0].rule == "rng-discipline"
        assert "escaped" in findings[0].message

    def test_runner_pool_shutdown_stays_covered(self):
        # a raising submit loop must not leak the pool
        findings = lint_text(
            _RUNNER.read_text(), str(_RUNNER), rules=["resource-leak"]
        )
        assert findings == [], [str(f) for f in findings]

    def test_runner_pool_leak_is_caught(self):
        # Move the submit loop of _run_trials_pooled above its try: a
        # raising submit() then skips the finally that shuts the pool down.
        src = _RUNNER.read_text()
        try_at = src.index("        try:\n            # Submitting inside the try")
        loop_at = src.index("            for job in pending:\n", try_at)
        submit = "futures[job[1]] = pool.submit(_run_single_trial, payload)\n"
        loop_end = src.index(submit, loop_at) + len(submit)
        loop = textwrap.indent(textwrap.dedent(src[loop_at:loop_end]), " " * 8)
        mutant = src[:try_at] + loop + src[try_at:loop_at] + src[loop_end:]
        ast.parse(mutant)
        findings = lint_text(mutant, "runner_mutant.py", rules=["resource-leak"])
        assert len(findings) == 1, [str(f) for f in findings]
        assert findings[0].rule == "resource-leak"
        assert "ProcessPoolExecutor" in findings[0].message


# --------------------------------------------------------------------------- #
# output formats (--format github, --output report)
# --------------------------------------------------------------------------- #
class TestOutputFormats:
    def test_github_format_emits_error_annotations(self, capsys):
        code = main(
            [
                str(DATA / "bad_resource_leak.py"),
                "--rules",
                "resource-leak",
                "--format",
                "github",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert ",line=" in out
        assert "findings in" in out  # the summary line still prints

    def test_github_annotation_escaping(self):
        annotation = github_annotation(
            Finding("a,b:c.py", 3, "rule", "multi\nline % message")
        )
        assert annotation.startswith("::error file=a%2Cb%3Ac.py,line=3,")
        assert "%0A" in annotation and "%25" in annotation
        assert "\n" not in annotation

    def test_output_report_is_written_atomically(self, tmp_path, capsys):
        report_path = tmp_path / "nested" / "report.json"
        code = main(
            [
                str(DATA / "bad_pickle_safety.py"),
                "--rules",
                "pickle-safety",
                "--output",
                str(report_path),
            ]
        )
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["tool"] == "repro-lint"
        assert report["rules"] == ["pickle-safety"]
        assert report["count"] == len(report["findings"]) > 0
        assert all(
            set(item) == {"path", "line", "rule", "message"}
            for item in report["findings"]
        )
        assert not list(report_path.parent.glob("*.tmp"))  # no torn temp left

    def test_cli_subcommand_forwards_github_and_output(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        report_path = tmp_path / "report.json"
        code = cli_main(
            [
                "lint",
                str(DATA / "allowed_pickle_safety.py"),
                "--rules",
                "pickle-safety",
                "--format",
                "github",
                "--output",
                str(report_path),
            ]
        )
        assert code == 0
        assert json.loads(report_path.read_text())["count"] == 0


# --------------------------------------------------------------------------- #
# the real tree, under the flow rules specifically
# --------------------------------------------------------------------------- #
class TestSourceTreeFlowClean:
    # src/repro itself is linted under every rule by
    # tests/test_repro_lint.py::TestSourceTreeIsClean.
    def test_benchmarks_and_trace_generator_pass(self):
        targets = [
            Path(__file__).parents[1] / "benchmarks",
            Path(__file__).parent / "make_golden_traces.py",
        ]
        findings = run_lint(
            targets, rules=["determinism", *FLOW_RULES]
        )
        assert findings == [], "\n" + "\n".join(str(f) for f in findings)
