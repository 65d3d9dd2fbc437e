"""Sanity checks on the example scripts.

CI runs every example end to end in the ``tests`` job (``Run every
example``: each ``examples/*.py`` with ``PYTHONPATH=src``, failing on a
non-zero exit).  These tests are the fast guard against bit-rot: every
example must parse, carry a module docstring explaining its scenario,
define a ``main()`` entry point, and only import names that the public
API actually exposes.
"""

import ast
from pathlib import Path

import pytest

import repro

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
class TestExampleScripts:
    def _parse(self, path: Path) -> ast.Module:
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def test_parses_and_has_docstring(self, path):
        tree = self._parse(path)
        assert ast.get_docstring(tree), f"{path.name} is missing a module docstring"

    def test_defines_main_and_guard(self, path):
        tree = self._parse(path)
        function_names = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        assert "main" in function_names
        assert "__main__" in path.read_text(encoding="utf-8")

    def test_top_level_repro_imports_exist(self, path):
        tree = self._parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro":
                for alias in node.names:
                    assert hasattr(repro, alias.name), (
                        f"{path.name} imports repro.{alias.name}, which is not exported"
                    )


def test_expected_examples_present():
    names = {path.name for path in EXAMPLE_FILES}
    assert {"quickstart.py", "query_optimizer.py", "near_duplicate_tuning.py",
            "general_join_two_collections.py"}.issubset(names)
    assert len(names) >= 3
