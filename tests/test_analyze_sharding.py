"""Tests for the linter's reporting surface.

Covers ``--format sarif``, ``--prune-baseline``, the catalog-keyed
findings cache and the noqa edge cases, all exercised on the
determinism fixture, whose one-per-rule plants give a known set of
findings.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analyze import (
    AstCache,
    LintFinding,
    all_rules,
    catalog_hash,
    lint_paths,
    load_baseline,
    prune_baseline,
    to_sarif,
    write_baseline,
)
from repro.analyze.index import load_index
from repro.cli import main
from repro.errors import UnknownRuleError

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"

#: The one-per-rule plants in ``bad_determinism.py``, the fixture the
#: SARIF, baseline-pruning, findings-cache and noqa tests lint.
DETERMINISM_FIXTURE = FIXTURES / "bad_determinism.py"
DETERMINISM_RULES = ("DT201", "DT202", "DT203", "DT204")


class TestSarif:
    def test_document_shape(self):
        report = lint_paths([DETERMINISM_FIXTURE], fail_on="warning")
        doc = to_sarif(report)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert set(DETERMINISM_RULES) <= rule_ids
        results = run["results"]
        assert {r["ruleId"] for r in results} == set(DETERMINISM_RULES)
        assert all(r["baselineState"] == "new" for r in results)
        assert all(
            "reproLint/v1" in r["partialFingerprints"] for r in results
        )

    def test_baselined_findings_are_unchanged(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        first = lint_paths([DETERMINISM_FIXTURE], fail_on="warning")
        write_baseline(baseline, first.findings)
        rerun = lint_paths(
            [DETERMINISM_FIXTURE], baseline=baseline, fail_on="warning"
        )
        states = {
            r["baselineState"] for r in to_sarif(rerun)["runs"][0]["results"]
        }
        assert states == {"unchanged"}

    def test_cli_format_sarif_is_parseable(self, capsys):
        main(["lint", str(DETERMINISM_FIXTURE), "--format", "sarif",
              "--fail-on", "warning"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["$schema"].endswith(".json")
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"


class TestPruneBaseline:
    @staticmethod
    def _ghost():
        return LintFinding(
            rule="DT202", severity="error", path="gone.py", line=1,
            scope="gone", message="fixed long ago",
        )

    def test_prune_drops_only_stale_entries(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        report = lint_paths([DETERMINISM_FIXTURE], fail_on="warning")
        write_baseline(baseline, [*report.findings, self._ghost()])
        kept, pruned = prune_baseline(baseline, report.findings)
        assert (kept, pruned) == (len(DETERMINISM_RULES), 1)
        assert len(load_baseline(baseline)) == len(DETERMINISM_RULES)

    def test_normal_run_warns_about_stale_entries(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, [self._ghost()])
        report = lint_paths(
            [DETERMINISM_FIXTURE], baseline=baseline, fail_on="warning"
        )
        rendered = report.render()
        assert "stale baseline entr" in rendered
        assert "--prune-baseline" in rendered

    def test_cli_prune_requires_a_baseline(self, capsys):
        assert main(
            ["lint", str(DETERMINISM_FIXTURE), "--prune-baseline"]
        ) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_cli_prune_rewrites_the_file(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        report = lint_paths([DETERMINISM_FIXTURE], fail_on="warning")
        write_baseline(baseline, [*report.findings, self._ghost()])
        assert main(
            ["lint", str(DETERMINISM_FIXTURE), "--baseline", str(baseline),
             "--prune-baseline"]
        ) == 0
        assert "pruned 1 stale baseline entry" in capsys.readouterr().out
        assert len(load_baseline(baseline)) == len(DETERMINISM_RULES)


class TestCatalogKeyedCache:
    def test_findings_are_cached_across_runs(self, tmp_path):
        cache_path = tmp_path / "ast.cache"
        cold = lint_paths(
            [DETERMINISM_FIXTURE], cache=AstCache(cache_path),
            fail_on="warning",
        )
        warm = lint_paths(
            [DETERMINISM_FIXTURE], cache=AstCache(cache_path),
            fail_on="warning",
        )
        assert warm.cache_misses == 0
        assert [f.as_dict() for f in warm.findings] == [
            f.as_dict() for f in cold.findings
        ]

    def test_catalog_change_drops_findings_keeps_trees(self, tmp_path):
        cache_path = tmp_path / "ast.cache"
        first = AstCache(cache_path)
        lint_paths([DETERMINISM_FIXTURE], cache=first, fail_on="warning")
        key = first.findings_key(
            [source.content_hash
             for source in load_index([DETERMINISM_FIXTURE]).files],
            [rule.id for rule in all_rules()],
        )
        assert AstCache(cache_path).findings_for(key) is not None
        edited = AstCache(cache_path, catalog="rules-were-edited")
        assert edited.findings_for(key) is None
        rerun = lint_paths(
            [DETERMINISM_FIXTURE], cache=edited, fail_on="warning"
        )
        # Parsing is rule-independent: the AST store must survive.
        assert rerun.cache_hits == 1 and rerun.cache_misses == 0

    def test_catalog_hash_is_stable_within_a_process(self):
        assert catalog_hash() == catalog_hash()


class TestNoqaEdgeCases:
    def test_multiple_rules_in_one_comment(self, tmp_path):
        bad = tmp_path / "wall.py"
        bad.write_text(
            "import random\n"
            "import time\n"
            "from repro.sim.engine import ClockedModule\n"
            "class M(ClockedModule):\n"
            "    component = 'm'\n"
            "    level = None\n"
            "    def tick(self, cycle):\n"
            "        return time.time() + random.random()"
            "  # repro: noqa[DT201, DT202]\n"
        )
        report = lint_paths([bad], fail_on="warning")
        assert report.findings == []
        assert report.suppressed == 2

    def test_noqa_on_multiline_statement_covers_the_span(self, tmp_path):
        bad = tmp_path / "wall.py"
        bad.write_text(
            "import random\n"
            "x = (  # repro: noqa[DT202]\n"
            "    1\n"
            "    + random.random()\n"
            ")\n"
        )
        report = lint_paths([bad], fail_on="warning")
        assert report.findings == []
        assert report.suppressed == 1

    def test_noqa_on_def_header_does_not_cover_the_body(self, tmp_path):
        bad = tmp_path / "wall.py"
        bad.write_text(
            "import random\n"
            "def f(  # repro: noqa[DT202]\n"
            "    scale,\n"
            "):\n"
            "    return scale * random.random()\n"
        )
        report = lint_paths([bad], fail_on="warning")
        assert [f.rule for f in report.findings] == ["DT202"]

    def test_unknown_rule_name_is_a_typed_error(self, tmp_path):
        bad = tmp_path / "wall.py"
        bad.write_text("x = 1  # repro: noqa[DT999]\n")
        with pytest.raises(UnknownRuleError) as excinfo:
            lint_paths([bad])
        assert "DT999" in str(excinfo.value)
        assert "--list-rules" in str(excinfo.value)

    def test_unknown_rule_name_exits_two_from_cli(self, tmp_path, capsys):
        bad = tmp_path / "wall.py"
        bad.write_text("x = 1  # repro: noqa[ZZ000]\n")
        assert main(["lint", str(bad)]) == 2
        assert "ZZ000" in capsys.readouterr().err

    def test_docstrings_mentioning_noqa_are_inert(self, tmp_path):
        ok = tmp_path / "docs.py"
        ok.write_text(
            '"""Suppress with ``# repro: noqa[XX999]`` on the line."""\n'
            "x = 1\n"
        )
        report = lint_paths([ok])
        assert report.findings == [] and report.suppressed == 0
