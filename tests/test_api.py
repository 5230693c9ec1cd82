"""The package's export list and the names the demos import from it."""

import ast
import importlib
from pathlib import Path

import pytest

import lipnet

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_names_resolve_and_are_unique():
    missing = [name for name in lipnet.__all__ if not hasattr(lipnet, name)]
    assert missing == []
    assert len(set(lipnet.__all__)) == len(lipnet.__all__)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_from_lipnet_resolve(demo):
    # demos do not run in the test suite, so a deleted name would break one unseen
    missing = []
    for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "lipnet" or node.module.startswith("lipnet.")):
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(module, a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "lipnet":
                    importlib.import_module(a.name)
    assert missing == []
