"""Documentation system: generated CLI reference, doc pages, docstrings.

Documentation is treated as a build artifact with the same drift
protection as code:

* ``docs/cli.md`` is generated from the live argument parser and must be
  byte-identical to an in-process regeneration;
* the glossary's policy-constants table lists every scheduling-policy
  constant with the value the code holds, and its engine, batching,
  fleet and sweep table and its platform and model table hold the
  code's values too;
* the documentation pages exist and their relative links resolve;
* every module under ``src/`` carries a module docstring (the local
  equivalent of the ruff D100/D104 gate CI runs).
"""

import ast
import importlib
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
            "repro list", "repro grid", "repro figure",
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


#: Modules whose public upper-case constants are scheduling policy.
POLICY_MODULES = ["repro.core.config", "repro.core.adaptivity", "repro.core.frame_drop",
                  "repro.schedulers.planaria", "repro.schedulers.veltair"]


def policy_constant_rows():
    """``{dotted name: value}`` from the glossary's constants tables.

    The section runs from "Policy constants" to the next ``##`` heading,
    so it covers the engine, batching, fleet and sweep table too.
    """
    text = (DOCS / "glossary.md").read_text(encoding="utf-8")
    section = text.split("### Policy constants", 1)[1].split("\n## ", 1)[0]
    return {
        name: ast.literal_eval(value)
        for name, value in re.findall(r"^\| `(repro\.[\w.]+)` \| `([^`]+)` \|", section, re.M)
    }


class TestPolicyConstants:
    def test_table_values_match_the_code(self):
        rows = policy_constant_rows()
        assert rows
        for dotted, value in rows.items():
            module_name, _, name = dotted.rpartition(".")
            actual = getattr(importlib.import_module(module_name), name)
            assert (type(actual), actual) == (type(value), value), dotted

    def test_engine_fleet_and_sweep_constants_have_rows(self):
        rows = policy_constant_rows()
        for dotted in ("repro.sim.engine.RETRY_BUDGET", "repro.sim.engine.RETRY_BACKOFF_MS",
                       "repro.sim.resource_models.MAX_BATCH",
                       "repro.sim.resource_models.BATCH_ALPHA",
                       "repro.sim.resource_models.KV_BUDGET_RATIO",
                       "repro.fleet.simulator.SESSION_RETRY_BUDGET",
                       "repro.fleet.simulator.SESSION_RETRY_BACKOFF_MS",
                       "repro.metrics.quantiles.PROBABILITIES",
                       "repro.experiments.sweeps.GRID_VALUES"):
            assert dotted in rows, dotted

    def test_platform_and_model_constants_have_rows(self):
        rows = policy_constant_rows()
        for dotted in ("repro.hardware.accelerator.DEFAULT_SRAM_BYTES",
                       "repro.hardware.accelerator.DEFAULT_DRAM_BANDWIDTH_GBPS",
                       "repro.hardware.accelerator.DEFAULT_CLOCK_HZ",
                       "repro.models.zoo.skipnet.SKIP_PROBABILITY",
                       "repro.models.zoo.rapid_rl.EXIT_PROBABILITY"):
            assert dotted in rows, dotted

    def test_every_policy_constant_has_a_row(self):
        rows = policy_constant_rows()
        missing = []
        for module_name in POLICY_MODULES:
            path = REPO_ROOT / "src" / (module_name.replace(".", "/") + ".py")
            tree = ast.parse(path.read_text(encoding="utf-8"))
            # Module-level assignments only: imported names belong to their
            # own module's row.
            names = [
                target.id
                for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Name)
            ]
            missing += [
                f"{module_name}.{name}" for name in names
                if name.isupper() and not name.startswith("_")
                and f"{module_name}.{name}" not in rows
            ]
        assert not missing, "policy constants missing from docs/glossary.md:\n" + "\n".join(missing)


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
