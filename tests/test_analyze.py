"""Tests for :mod:`repro.analyze`, the framework-contract linter.

The seeded fixture files under ``tests/data/lint_fixtures/`` plant one
example of every rule violation; ``good_module.py`` exercises the same
constructs done right and must stay silent.  The self-lint test at the
bottom is the real deliverable: the package's own source passes every
rule with an empty baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analyze import (
    FAIL_ON,
    FAMILIES,
    RULES,
    AstCache,
    LintFinding,
    all_rules,
    apply_baseline,
    lint_paths,
    load_baseline,
    resolve_rules,
    write_baseline,
)
from repro.check import MODES, static_check
from repro.cli import main
from repro.errors import AnalysisError, CounterKindError
from repro.sim.module import Counters

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: rule -> expected hit count in the seeded fixtures.
EXPECTED = {
    "IF101": 2,  # HalfDeclared: neither component nor level
    "IF102": 1,  # Silent has no tick
    "IF103": 2,  # attribute reach-in + getattr string literal
    "DT201": 1,  # time.time() in tick
    "DT202": 1,  # random.random()
    "DT203": 1,  # set iteration in tick
    "DT204": 1,  # id() in tick
    "WR301": 1,  # dangling FixtureSink
    "WR302": 1,  # sink driven twice
    "WR303": 1,  # two modules literally named "dup"
    "WR304": 1,  # ISSUE_LOG mutated in Hub.record
    "WR305": 1,  # Hub.shared_scratch class dict
    "SW401": 2,  # class-level lambda + open() on self
    "SW402": 1,  # Task carrying a lambda
}


@pytest.fixture(scope="module")
def fixture_report():
    return lint_paths([FIXTURES], fail_on="warning")


class TestRuleCatalog:
    def test_every_rule_registered_with_known_family(self):
        assert len(all_rules()) == len(EXPECTED)
        for rule in all_rules():
            assert rule.id[:2] in FAMILIES
            assert rule.severity in ("warning", "error")
            assert rule.rationale

    def test_resolve_by_family_prefix(self):
        determinism = resolve_rules(["DT"])
        assert sorted(r.id for r in determinism) == [
            "DT201", "DT202", "DT203", "DT204",
        ]

    def test_resolve_unknown_rule_raises(self):
        with pytest.raises(AnalysisError):
            resolve_rules(["XX999"])


class TestSeededFixtures:
    def test_every_rule_fires_exactly_as_planted(self, fixture_report):
        counts = {}
        for finding in fixture_report.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        assert counts == EXPECTED

    def test_severities_follow_the_registry(self, fixture_report):
        for finding in fixture_report.findings:
            assert finding.severity == RULES[finding.rule].severity

    def test_good_and_suppressed_files_stay_silent(self, fixture_report):
        flagged = {finding.path for finding in fixture_report.findings}
        assert not any("good_module" in path for path in flagged)
        assert not any("suppressed" in path for path in flagged)

    def test_noqa_suppression_is_counted_not_silent(self, fixture_report):
        assert fixture_report.suppressed == 1

    def test_gate_fails_on_fresh_errors(self, fixture_report):
        assert not fixture_report.ok
        assert len(fixture_report.errors) == 11
        assert len(fixture_report.warnings) == 6


class TestNoqa:
    def test_bare_noqa_suppresses_any_rule(self, tmp_path):
        bad = tmp_path / "wall.py"
        bad.write_text(
            "import random\n"
            "x = random.random()  # repro: noqa\n"
        )
        report = lint_paths([bad])
        assert report.findings == []
        assert report.suppressed == 1

    def test_scoped_noqa_only_covers_listed_rules(self, tmp_path):
        bad = tmp_path / "wall.py"
        bad.write_text(
            "import random\n"
            "x = random.random()  # repro: noqa[DT201]\n"
        )
        report = lint_paths([bad])
        assert [f.rule for f in report.findings] == ["DT202"]
        assert report.suppressed == 0


class TestBaseline:
    def test_round_trip_grandfathers_everything(self, tmp_path, fixture_report):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, fixture_report.findings)
        rerun = lint_paths(
            [FIXTURES], baseline=baseline_path, fail_on="warning"
        )
        assert rerun.ok
        assert rerun.findings == []
        assert len(rerun.grandfathered) == sum(EXPECTED.values())
        assert rerun.stale_baseline == []

    def test_fingerprint_survives_line_shifts(self):
        first = LintFinding(
            rule="DT202", severity="error", path="a.py", line=10,
            scope="m", message="msg",
        )
        moved = LintFinding(
            rule="DT202", severity="error", path="a.py", line=99,
            scope="m", message="msg",
        )
        assert first.fingerprint == moved.fingerprint

    def test_stale_entries_are_reported(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        ghost = LintFinding(
            rule="DT202", severity="error", path="gone.py", line=1,
            scope="gone", message="was fixed long ago",
        )
        write_baseline(baseline_path, [ghost])
        fresh, grandfathered, stale = apply_baseline(
            [], load_baseline(baseline_path)
        )
        assert fresh == [] and grandfathered == []
        assert [entry["path"] for entry in stale] == ["gone.py"]

    def test_corrupt_baseline_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{\"format\": \"something-else\"}")
        with pytest.raises(AnalysisError):
            load_baseline(bad)


class TestAstCache:
    def test_second_run_is_all_hits(self, tmp_path):
        cache_path = tmp_path / "ast.cache"
        cold = lint_paths([FIXTURES], cache=AstCache(cache_path))
        assert cold.cache_misses > 0 and cold.cache_hits == 0
        warm = lint_paths([FIXTURES], cache=AstCache(cache_path))
        assert warm.cache_misses == 0
        assert warm.cache_hits == cold.cache_misses
        assert [f.as_dict() for f in warm.findings] == [
            f.as_dict() for f in cold.findings
        ]


class TestCli:
    def test_lint_fixtures_exits_nonzero(self, capsys):
        assert main(["lint", str(FIXTURES), "--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_rule_selection_by_family(self, capsys):
        assert main(["lint", str(FIXTURES), "--rules", "IF",
                     "--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "IF10" in out
        assert "DT20" not in out and "WR30" not in out and "SW40" not in out

    def test_json_report(self, tmp_path, capsys):
        json_path = tmp_path / "lint.json"
        main(["lint", str(FIXTURES), "--json", str(json_path)])
        capsys.readouterr()
        payload = json.loads(json_path.read_text())
        assert payload["ok"] is False
        assert payload["errors"] == 11
        assert {f["rule"] for f in payload["findings"]} == set(EXPECTED)

    def test_write_then_apply_baseline(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        assert main(["lint", str(FIXTURES), "--fail-on", "warning",
                     "--write-baseline", str(baseline_path)]) == 0
        assert main(["lint", str(FIXTURES), "--fail-on", "warning",
                     "--baseline", str(baseline_path)]) == 0
        out = capsys.readouterr().out
        assert "grandfathered" in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in EXPECTED:
            assert rule_id in out

    def test_bad_fail_on_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", str(FIXTURES), "--fail-on", "everything"])

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", str(FIXTURES), "--rules", "XX999"]) == 2


class TestFailOnPolicy:
    def test_fail_on_error_ignores_warnings(self, tmp_path):
        bad = tmp_path / "warn_only.py"
        bad.write_text(
            "from repro.sim.module import Module\n"
            "class Chatty(Module):\n"
            "    component = 'chatty'\n"
            "    level = None\n"
            "    journal = []\n"
        )
        strict = lint_paths([bad], fail_on="warning")
        lax = lint_paths([bad], fail_on="error")
        assert [f.rule for f in strict.findings] == ["WR305"]
        assert not strict.ok
        assert lax.ok

    def test_fail_on_values_are_stable(self):
        assert FAIL_ON == ("error", "warning")


class TestStaticPillar:
    def test_mode_is_registered(self):
        assert "static" in MODES

    def test_violations_map_from_lint_errors(self):
        findings = static_check(paths=[FIXTURES])
        rules_seen = {f.message.split()[0] for f in findings
                      if f.severity == "violation"}
        assert rules_seen == {
            rule_id for rule_id, count in EXPECTED.items()
            if RULES[rule_id].severity == "error"
        }

    def test_package_source_is_a_clean_pillar(self):
        findings = static_check(paths=[REPO_SRC])
        assert [f for f in findings if f.severity == "violation"] == []
        assert any("clean" in f.message for f in findings)


class TestSelfLint:
    def test_repo_source_lints_clean_with_empty_baseline(self):
        report = lint_paths([REPO_SRC], fail_on="error")
        assert report.errors == [], "\n" + report.render()
        assert report.ok

    def test_cli_self_lint_exit_zero(self, capsys):
        assert main(["lint", str(REPO_SRC)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_committed_baseline_is_empty(self):
        baseline_path = REPO_SRC.parents[1] / "lint-baseline.json"
        assert load_baseline(baseline_path) == {}


class TestCounterKinds:
    def test_add_then_peak_on_one_name_raises(self):
        counters = Counters()
        counters.add("issued")
        with pytest.raises(CounterKindError):
            counters.peak("issued", 5)

    def test_peak_then_add_on_one_name_raises(self):
        counters = Counters()
        counters.peak("occupancy", 3)
        with pytest.raises(CounterKindError):
            counters.add("occupancy")

    def test_same_kind_reuse_is_fine(self):
        counters = Counters()
        counters.add("issued", 2)
        counters.add("issued", 3)
        counters.peak("occupancy", 1)
        counters.peak("occupancy", 4)
        assert counters.get("issued") == 5
        assert counters.get("occupancy") == 4

    def test_reset_forgets_kinds(self):
        counters = Counters()
        counters.add("issued")
        counters.reset()
        counters.peak("issued", 7)
        assert counters.get("issued") == 7
