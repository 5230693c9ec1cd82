"""The package's export list, the names the demos import from it, the fast
demos run end to end, and the callers of every tensor op."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

import lipnet

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
PACKAGE = Path(lipnet.__file__).resolve().parent


def test_all_names_resolve_and_are_unique():
    missing = [name for name in lipnet.__all__ if not hasattr(lipnet, name)]
    assert missing == []
    assert len(set(lipnet.__all__)) == len(lipnet.__all__)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_from_lipnet_resolve(demo):
    # the slow demos do not run in the test suite, so a deleted name would break one unseen
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


@pytest.mark.parametrize("name", ["01_autodiff_and_gradcheck.py",
                                  "03_guarantee_and_synthetic_oracle.py"])
def test_fast_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS[0].parent / name), run_name="__main__")
    assert capsys.readouterr().out


def test_every_tensor_op_has_a_caller():
    # a public op that no other module calls and lipnet does not export is dead code
    tree = ast.parse((PACKAGE / "tensor.py").read_text(encoding="utf-8"))
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "tensor.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):  # f(...) or module.f(...)
                    called.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
    assert sorted(public - called - set(lipnet.__all__)) == []
