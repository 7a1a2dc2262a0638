"""Tier-1 guards for the docs layer.

CI has a dedicated docs job (link check + example smoke run); these tests
keep the same guarantees inside the tier-1 suite so a broken docs change
cannot land even when only the default suite runs.
"""

from __future__ import annotations

import importlib.util
import py_compile
from pathlib import Path

import pytest

from repro.codecs import available_codecs

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DOCS = REPO_ROOT / "docs"


def _load_check_links():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO_ROOT / "tools" / "check_links.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsPages:
    def test_required_pages_exist(self):
        for page in ("architecture.md", "codecs.md", "evaluation.md",
                     "native.md", "performance.md", "robustness.md",
                     "service.md", "storage.md"):
            assert (DOCS / page).is_file(), f"docs/{page} is missing"

    def test_every_registered_codec_documented(self):
        text = (DOCS / "codecs.md").read_text(encoding="utf-8")
        missing = [name for name in available_codecs() if f"`{name}`" not in text]
        assert not missing, f"codecs missing from docs/codecs.md: {missing}"

    def test_readme_links_docs_and_reference_baseline(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for needle in ("docs/architecture.md", "docs/codecs.md",
                       "docs/evaluation.md", "docs/native.md",
                       "docs/performance.md", "docs/robustness.md",
                       "docs/service.md", "docs/storage.md",
                       "_kernels/reference.py"):
            assert needle in readme, f"README.md should mention {needle}"

    def test_service_page_documents_every_fault_site_and_status(self):
        from repro.faultinject import SERVICE_KINDS, SERVICE_SITES

        text = (DOCS / "service.md").read_text(encoding="utf-8")
        missing = [site for site in SERVICE_SITES if f"`{site}`" not in text]
        assert not missing, \
            f"fault sites missing from docs/service.md: {missing}"
        for kind in SERVICE_KINDS:
            assert kind in text, f"docs/service.md should cover kind {kind!r}"
        for status in ("207", "413", "429", "503", "504"):
            assert status in text, \
                f"docs/service.md should document status {status}"

    def test_robustness_page_documents_every_engine_fault(self):
        from repro.faultinject import KINDS, SITES

        text = (DOCS / "robustness.md").read_text(encoding="utf-8")
        missing = [name for name in KINDS + SITES if f"`{name}`" not in text]
        assert not missing, \
            f"engine fault kinds/sites missing from docs/robustness.md: {missing}"

    def test_robustness_page_documents_every_backend_and_degrade_mode(self):
        from repro.engine.supervisor import BACKENDS, ON_DEGRADE

        text = (DOCS / "robustness.md").read_text(encoding="utf-8")
        missing = [name for name in BACKENDS + ON_DEGRADE
                   if f"`{name}`" not in text]
        assert not missing, \
            f"engine knobs missing from docs/robustness.md: {missing}"

    def test_roadmap_points_to_performance_page(self):
        roadmap = (REPO_ROOT / "ROADMAP.md").read_text(encoding="utf-8")
        assert "docs/performance.md" in roadmap


class TestLinkChecker:
    def test_no_broken_intra_repo_links(self, capsys):
        checker = _load_check_links()
        assert checker.main([]) == 0, capsys.readouterr().err

    def test_detects_broken_link(self, tmp_path):
        checker = _load_check_links()
        bad = tmp_path / "bad.md"
        bad.write_text("see [missing](no/such/file.md)", encoding="utf-8")
        problems = checker.check_file(bad)
        assert len(problems) == 1 and "no/such/file.md" in problems[0]

    def test_ignores_external_links_anchors_and_code_blocks(self, tmp_path):
        checker = _load_check_links()
        page = tmp_path / "ok.md"
        page.write_text(
            "[web](https://example.com) [anchor](#section) "
            "`[code](fake.md)`\n```\n[fenced](also/fake.md)\n```\n",
            encoding="utf-8")
        assert checker.check_file(page) == []

    def test_unpaired_backtick_does_not_swallow_later_links(self, tmp_path):
        checker = _load_check_links()
        page = tmp_path / "typo.md"
        page.write_text("a stray `backtick\n[broken](missing.md)\nmore `code`\n",
                        encoding="utf-8")
        problems = checker.check_file(page)
        assert len(problems) == 1 and "missing.md" in problems[0]

    def test_root_relative_links_resolve_against_repo_root(self, tmp_path):
        checker = _load_check_links()
        page = tmp_path / "root.md"
        page.write_text("[arch](/docs/architecture.md) [bad](/docs/nope.md)",
                        encoding="utf-8")
        problems = checker.check_file(page)
        assert len(problems) == 1 and "/docs/nope.md" in problems[0]


class TestExampleScripts:
    @pytest.mark.parametrize("script", sorted(
        path.name for path in (REPO_ROOT / "examples").glob("*.py")))
    def test_examples_compile(self, script, tmp_path):
        # CI's docs job *runs* pacf_compression.py; tier-1 just guarantees
        # every example stays syntactically valid.
        py_compile.compile(str(REPO_ROOT / "examples" / script),
                           cfile=str(tmp_path / (script + "c")), doraise=True)

    def test_pacf_example_is_referenced_from_readme(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "pacf_compression.py" in readme
