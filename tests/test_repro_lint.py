"""Tests for the repro-lint static-analysis subsystem (`repro.quality`).

Three layers of coverage:

* fixture corpus — for every file-scope rule, a known-bad snippet under
  ``tests/data/lint/`` must fire and its pragma'd twin must pass;
* framework semantics — pragma targeting, malformed/unknown/stale pragma
  findings, parse-error findings, rule selection, CLI exit codes;
* the real tree — ``src/repro/`` lints clean end-to-end (registry
  cross-check included), which is the contract CI enforces.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.quality import CHECKER_REGISTRY, Finding, lint_text, main, run_lint
from repro.quality.registry_check import (
    RegistryConsistencyChecker,
    RegistrySnapshot,
    collect_snapshot,
    cross_check,
)

DATA = Path(__file__).parent / "data" / "lint"
SRC_ROOT = Path(__file__).parents[1] / "src" / "repro"

FILE_RULES = ["determinism", "capability-guard", "exception-hygiene", "atomic-write"]


# --------------------------------------------------------------------------- #
# fixture corpus: every rule fires on its bad twin, passes on the allowed one
# --------------------------------------------------------------------------- #
class TestFixtureCorpus:
    @pytest.mark.parametrize("rule", FILE_RULES)
    def test_bad_fixture_fires(self, rule):
        fixture = DATA / f"bad_{rule.replace('-', '_')}.py"
        findings = run_lint([fixture], rules=[rule], include_project=False)
        assert findings, f"{fixture.name} must produce {rule} findings"
        assert all(f.rule == rule for f in findings)
        assert all(f.path == str(fixture) and f.line > 0 for f in findings)

    @pytest.mark.parametrize("rule", FILE_RULES)
    def test_allowed_twin_passes(self, rule):
        fixture = DATA / f"allowed_{rule.replace('-', '_')}.py"
        findings = run_lint([fixture], rules=[rule], include_project=False)
        assert findings == [], [str(f) for f in findings]

    def test_bad_corpus_counts(self):
        # The bad determinism fixture has one violation per entropy source.
        fixture = DATA / "bad_determinism.py"
        findings = run_lint([fixture], rules=["determinism"], include_project=False)
        assert len(findings) >= 5  # default_rng, np draw, 2 stdlib, 2 wall-clock

    def test_allowed_corpus_is_fully_clean(self):
        # All rules together (pragmas from one rule must not trip another).
        for rule in FILE_RULES:
            fixture = DATA / f"allowed_{rule.replace('-', '_')}.py"
            findings = run_lint([fixture], include_project=False)
            assert findings == [], [str(f) for f in findings]


# --------------------------------------------------------------------------- #
# framework semantics
# --------------------------------------------------------------------------- #
class TestPragmas:
    def test_same_line_pragma_suppresses(self):
        src = "import numpy as np\nrng = np.random.default_rng()  # repro-lint: allow[determinism]\n"
        assert lint_text(src) == []

    def test_previous_line_pragma_suppresses_next_line(self):
        src = (
            "import numpy as np\n"
            "# repro-lint: allow[determinism]\n"
            "rng = np.random.default_rng()\n"
        )
        assert lint_text(src) == []

    def test_pragma_only_covers_its_line(self):
        src = (
            "import numpy as np\n"
            "a = np.random.default_rng()  # repro-lint: allow[determinism]\n"
            "b = np.random.default_rng()\n"
        )
        findings = lint_text(src)
        assert [f.line for f in findings] == [3]
        assert findings[0].rule == "determinism"

    def test_pragma_only_covers_its_rule(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro-lint: allow[atomic-write]\n"
        )
        rules = {f.rule for f in lint_text(src)}
        # The determinism finding survives AND the misdirected pragma is stale.
        assert rules == {"determinism", "pragma"}

    def test_malformed_pragma_is_a_finding(self):
        findings = lint_text("x = 1  # repro-lint: allow\n")
        assert [f.rule for f in findings] == ["pragma"]
        assert "malformed" in findings[0].message

    def test_unknown_rule_pragma_is_a_finding(self):
        findings = lint_text("x = 1  # repro-lint: allow[no-such-rule]\n")
        assert [f.rule for f in findings] == ["pragma"]
        assert "no-such-rule" in findings[0].message

    def test_unused_pragma_is_a_finding(self):
        findings = lint_text("x = 1  # repro-lint: allow[determinism]\n")
        assert [f.rule for f in findings] == ["pragma"]
        assert "unused" in findings[0].message

    def test_pragma_for_unselected_rule_is_not_stale(self):
        # Running a rule subset must not call other rules' pragmas unused.
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro-lint: allow[determinism]\n"
        )
        assert lint_text(src, rules=["atomic-write"]) == []

    def test_multi_rule_pragma(self):
        src = (
            "import numpy as np\n"
            "from pathlib import Path\n"
            "def f(p):\n"
            "    # repro-lint: allow[determinism, atomic-write]\n"
            "    Path(p).write_text(str(np.random.default_rng()))\n"
        )
        assert lint_text(src) == []


class TestFramework:
    def test_syntax_error_is_a_parse_finding(self):
        findings = lint_text("def broken(:\n")
        assert [f.rule for f in findings] == ["parse"]

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(KeyError):
            run_lint([DATA / "bad_determinism.py"], rules=["nope"])

    def test_findings_are_sorted_and_printable(self):
        findings = run_lint(
            [DATA / "bad_determinism.py", DATA / "bad_atomic_write.py"],
            include_project=False,
        )
        assert findings == sorted(findings)
        rendered = str(findings[0])
        assert findings[0].path in rendered and f"[{findings[0].rule}]" in rendered

    def test_registry_has_the_five_shipped_rules(self):
        assert set(FILE_RULES) | {"registry-consistency"} <= set(CHECKER_REGISTRY)

    def test_io_py_is_exempt_from_atomic_write(self):
        checker = CHECKER_REGISTRY["atomic-write"]()
        assert not checker.applies_to(SRC_ROOT / "simulation" / "io.py")
        assert checker.applies_to(SRC_ROOT / "analysis" / "report.py")

    def test_graphs_layer_is_exempt_from_capability_guard(self):
        checker = CHECKER_REGISTRY["capability-guard"]()
        assert not checker.applies_to(SRC_ROOT / "graphs" / "adjacency.py")
        assert checker.applies_to(SRC_ROOT / "simulation" / "engine.py")


# --------------------------------------------------------------------------- #
# registry-consistency
# --------------------------------------------------------------------------- #
class TestRegistryConsistency:
    def test_allowed_snapshot_is_clean(self):
        snapshot = RegistrySnapshot.from_json(
            json.loads((DATA / "allowed_registry.json").read_text())
        )
        assert cross_check(snapshot) == []

    def test_bad_snapshot_fires_every_invariant(self):
        snapshot = RegistrySnapshot.from_json(
            json.loads((DATA / "bad_registry.json").read_text())
        )
        problems = cross_check(snapshot)
        anchors = {anchor for anchor, _ in problems}
        assert anchors == {
            "shardable",
            "unshardable",
            "shard_kinds",
            "checkpoint",
            "cli",
        }
        messages = "\n".join(m for _, m in problems)
        assert "ghost" in messages  # stale exemption
        assert "pull_v2" in messages  # undeclared shard kind
        assert "push2" in messages  # ambiguous checkpoint lookup
        assert "carrier_pigeon" in messages  # bad CLI default

    def test_live_registries_are_consistent(self):
        assert cross_check(collect_snapshot()) == []

    def test_live_break_is_detected(self, monkeypatch):
        # Un-exempt the faulty variants: they are registered but unshardable,
        # so the invariant "registered => shardable or exempt" must fire.
        import repro.simulation.sharding as sharding

        monkeypatch.setattr(sharding, "UNSHARDABLE_PROCESSES", frozenset())
        findings = list(RegistryConsistencyChecker().check_project(None))
        assert findings
        assert all(isinstance(f, Finding) for f in findings)
        assert any("faulty_push" in f.message for f in findings)
        # The finding anchors at the SHARDABLE_PROCESSES definition site.
        assert any(f.path.endswith("sharding.py") and f.line > 1 for f in findings)


# --------------------------------------------------------------------------- #
# CLI entry points
# --------------------------------------------------------------------------- #
class TestCli:
    def test_exit_one_on_findings(self, capsys):
        assert main([str(DATA / "bad_determinism.py"), "--no-registry"]) == 1
        out = capsys.readouterr().out
        assert "[determinism]" in out

    def test_exit_zero_on_clean(self, capsys):
        assert main([str(DATA / "allowed_determinism.py"), "--no-registry"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main([str(DATA / "bad_atomic_write.py"), "--no-registry", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload and all(
            set(item) == {"path", "line", "rule", "message"} for item in payload
        )

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in FILE_RULES + ["registry-consistency"]:
            assert rule in out

    def test_rule_selection(self, capsys):
        code = main(
            [str(DATA / "bad_determinism.py"), "--no-registry", "--rules", "atomic-write"]
        )
        assert code == 0  # determinism violations invisible to atomic-write

    def test_repro_gossip_lint_subcommand(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", "--list-rules"]) == 0
        assert "determinism" in capsys.readouterr().out
        assert cli_main(["lint", str(DATA / "bad_determinism.py"), "--no-registry"]) == 1


# --------------------------------------------------------------------------- #
# the real tree
# --------------------------------------------------------------------------- #
class TestSourceTreeIsClean:
    def test_src_repro_lints_clean_end_to_end(self):
        findings = run_lint([SRC_ROOT])
        assert findings == [], "\n" + "\n".join(str(f) for f in findings)


# --------------------------------------------------------------------------- #
# the satellite RNG fixes: explicit-seed contract regression tests
# --------------------------------------------------------------------------- #
class TestExplicitSeedContract:
    def test_generators_reject_none(self):
        from repro.graphs import generators as gen

        with pytest.raises(ValueError, match="explicit rng"):
            gen.erdos_renyi_graph(10, 0.5)

    def test_directed_generators_reject_none(self):
        from repro.graphs import directed_generators as dgen

        with pytest.raises(ValueError, match="explicit rng"):
            dgen.random_digraph(10, 0.5)

    def test_generators_accept_int_seed(self):
        from repro.graphs import generators as gen

        a = gen.erdos_renyi_graph(16, 0.3, rng=7)
        b = gen.erdos_renyi_graph(16, 0.3, rng=np.random.default_rng(7))
        assert sorted(a.edge_list()) == sorted(b.edge_list())

    def test_lemma2_rejects_none_and_accepts_int(self):
        from repro.analysis import theory

        with pytest.raises(ValueError, match="explicit rng"):
            theory.lemma2_empirical_quantile(m=20, trials=10)
        f1, b1 = theory.lemma2_empirical_quantile(m=20, trials=10, rng=3)
        f2, b2 = theory.lemma2_empirical_quantile(
            m=20, trials=10, rng=np.random.default_rng(3)
        )
        assert (f1, b1) == (f2, b2)

    def test_deterministic_families_still_work_without_rng(self):
        from repro.graphs import generators as gen

        assert gen.make_family("cycle", 8).n == 8
