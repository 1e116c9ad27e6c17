"""Documentation consistency guards.

Docs drift silently; these tests pin the load-bearing claims — that the
files DESIGN.md points at exist, that every experiment has its benchmark,
that relative links between the docs resolve, and that the application
tables match the registry.
"""

import re
from pathlib import Path

import pytest

from repro.tracegen.suites import APPLICATIONS, app_names

REPO = Path(__file__).resolve().parent.parent


class TestDesignDoc:
    def test_design_exists_and_confirms_paper(self):
        text = (REPO / "DESIGN.md").read_text()
        assert "Swift-Sim" in text
        assert "matches the target paper" in text

    def test_every_referenced_bench_file_exists(self):
        text = (REPO / "DESIGN.md").read_text()
        for match in re.findall(r"benchmarks/(test_\w+\.py)", text):
            assert (REPO / "benchmarks" / match).exists(), match

    def test_every_bench_file_is_in_the_index(self):
        text = (REPO / "DESIGN.md").read_text()
        for path in (REPO / "benchmarks").glob("test_*.py"):
            assert path.name in text, f"{path.name} missing from DESIGN.md"

    def test_experiment_ids_cover_all_tables_and_figures(self):
        text = (REPO / "DESIGN.md").read_text()
        for experiment_id in ("T1", "T2", "F4e", "F4s", "F4a", "F5", "F6"):
            assert f"| {experiment_id} |" in text, experiment_id


class TestReadme:
    def test_readme_quickstart_names_real_api(self):
        text = (REPO / "README.md").read_text()
        import repro
        for name in ("AccelSimLike", "SwiftSimBasic", "SwiftSimMemory",
                     "SwiftSimAnalytic", "get_preset", "make_app",
                     "ModelingPlan", "PlanSimulator"):
            assert name in text
            assert hasattr(repro, name), name

    def test_readme_example_scripts_exist(self):
        text = (REPO / "README.md").read_text()
        for match in re.findall(r"`(\w+\.py)`", text):
            if (REPO / "examples" / match).exists():
                continue
            assert match in ("setup.py",), f"README references missing {match}"


class TestWorkloadDoc:
    def test_app_table_matches_registry(self):
        text = (REPO / "DESIGN.md").read_text()
        for name in app_names():
            assert name.upper() in text or name in text, name

    def test_suite_names_in_design(self):
        text = (REPO / "DESIGN.md").read_text().lower()
        for suite in {APPLICATIONS[name][0] for name in APPLICATIONS}:
            assert suite in text, suite


#: ``[text](target)``, text possibly wrapped across lines; the target
#: is the first whitespace-free run inside the parentheses.
_MD_LINK = re.compile(r"\[[^\]]*\]\(\s*([^)\s]+)[^)]*\)")


def _doc_pages():
    pages = [REPO / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    return pages + sorted((REPO / "docs").glob("*.md"))


class TestDocLinks:
    def test_relative_links_resolve(self):
        checked = 0
        broken = []
        for page in _doc_pages():
            for target in _MD_LINK.findall(page.read_text()):
                if "://" in target or target.startswith(("#", "mailto:")):
                    continue
                path = target.split("#", 1)[0]
                checked += 1
                if not (page.parent / path).exists():
                    broken.append(f"{page.relative_to(REPO)} -> {target}")
        assert not broken, broken
        assert checked, "no relative links found; the scan matched nothing"


class TestExamplesRunnable:
    @pytest.mark.parametrize(
        "script",
        sorted(p.name for p in (REPO / "examples").glob("*.py")),
    )
    def test_example_compiles(self, script):
        source = (REPO / "examples" / script).read_text()
        compile(source, script, "exec")  # syntax + top-level sanity
