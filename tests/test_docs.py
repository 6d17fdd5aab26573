"""Documentation system: generated CLI reference, doc pages, docstrings.

Documentation is treated as a build artifact with the same drift
protection as code:

* ``docs/cli.md`` is generated from the live argument parser and must be
  byte-identical to an in-process regeneration;
* the documentation pages exist and their relative links resolve;
* every module under ``src/`` carries a module docstring (the local
  equivalent of the ruff D100/D104 gate CI runs).
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"

PAGES = ["architecture.md", "performance.md", "fleet.md", "glossary.md", "cli.md",
         "resource-models.md", "faults.md"]


def load_gen_cli_reference():
    """Import ``docs/gen_cli_reference.py`` as a module (docs is not a package)."""
    path = DOCS / "gen_cli_reference.py"
    spec = importlib.util.spec_from_file_location("gen_cli_reference", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("gen_cli_reference", module)
    spec.loader.exec_module(module)
    return module


class TestCliReference:
    def test_committed_cli_md_matches_the_live_parser(self):
        gen = load_gen_cli_reference()
        committed = (DOCS / "cli.md").read_text(encoding="utf-8")
        assert committed == gen.render(), (
            "docs/cli.md is out of sync with repro.cli.build_parser(); "
            "regenerate with: PYTHONPATH=src python docs/gen_cli_reference.py"
        )

    def test_reference_covers_every_subcommand(self):
        content = (DOCS / "cli.md").read_text(encoding="utf-8")
        for command in [
            "repro list", "repro grid", "repro figure", "repro bench",
            "repro generate", "repro fuzz",
            "repro fleet", "repro fleet run", "repro fleet describe",
        ]:
            assert f"## `{command}`" in content, f"missing section for {command}"

    def test_check_mode_detects_drift(self, tmp_path, monkeypatch):
        gen = load_gen_cli_reference()
        stale = tmp_path / "cli.md"
        stale.write_text("# stale\n", encoding="utf-8")
        monkeypatch.setattr(gen, "OUTPUT", stale)
        assert gen.main(["--check"]) == 1
        assert gen.main([]) == 0
        assert gen.main(["--check"]) == 0


class TestDocPages:
    @pytest.mark.parametrize("page", PAGES)
    def test_page_exists_and_is_nonempty(self, page):
        path = DOCS / page
        assert path.is_file(), f"docs/{page} is missing"
        assert path.read_text(encoding="utf-8").strip(), f"docs/{page} is empty"

    def test_readme_links_every_docs_page(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for page in PAGES:
            assert f"docs/{page}" in readme, f"README does not link docs/{page}"

    def test_relative_links_resolve(self):
        broken = []
        for source in [*DOCS.glob("*.md"), REPO_ROOT / "README.md"]:
            text = source.read_text(encoding="utf-8")
            for target in re.findall(r"\]\(([^)#]+)(?:#[^)]*)?\)", text):
                if target.startswith(("http://", "https://", "../")):
                    continue
                if not (source.parent / target).exists():
                    broken.append(f"{source.relative_to(REPO_ROOT)}: {target}")
        assert not broken, "broken doc links:\n" + "\n".join(broken)

    def test_glossary_defines_the_load_bearing_terms(self):
        glossary = (DOCS / "glossary.md").read_text(encoding="utf-8").lower()
        for term in ["head task", "frame", "request", "cell", "session",
                     "admission tier", "uxcost", "fair share",
                     "resource model", "kv cache", "continuous batching",
                     "interaction chain", "fault window", "failover",
                     "retry budget", "goodput"]:
            assert term in glossary, f"glossary is missing {term!r}"


class TestModuleDocstrings:
    """Local mirror of the ruff D100/D104 CI gate (scoped to src/)."""

    def test_every_src_module_has_a_docstring(self):
        missing = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if not ast.get_docstring(tree):
                missing.append(str(path.relative_to(REPO_ROOT)))
        assert not missing, "modules without a module docstring:\n" + "\n".join(missing)
