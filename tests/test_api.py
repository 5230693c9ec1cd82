"""The package's export list, the names the demos and the benchmark read
from it, the fast demos run end to end, and the callers of every public function."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import lipnet
from lipnet import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))
PACKAGE = Path(lipnet.__file__).resolve().parent
# Names the tracer still probes after the program deleted them: tensor.matmul
# with the fusion into tensor.affine, data.corrupt when sweep's noise moved to
# regularizer.perturb. The tracer's tables follow in the next benchmark change
# (ROADMAP), and then this list empties.
STALE_TRACE_NAMES = ["data.corrupt", "tensor.matmul"]
# Every module whose public functions must have a caller; cli's cmd_* functions
# are reached through cli.COMMANDS, never called by name.
CALLED_MODULES = sorted(p.stem for p in PACKAGE.glob("*.py")
                        if p.stem not in ("__init__", "cli"))


def _unresolved_lipnet_reads(script: Path) -> list[str]:
    """Names a script imports from lipnet, and attributes it reads from the
    lipnet modules it imports, that do not resolve."""
    tree = ast.parse(script.read_text(encoding="utf-8"))
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "lipnet"):
            module = importlib.import_module(node.module)
            for a in node.names:
                try:
                    modules[a.asname or a.name] = importlib.import_module(
                        f"{node.module}.{a.name}")
                except ModuleNotFoundError:
                    if not hasattr(module, a.name):
                        missing.append(f"{node.module}.{a.name}")
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "lipnet":
                    importlib.import_module(a.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


def _lipnet_calls(script: Path):
    """(label, callable, call node) for each call in a script to a name it
    imports from lipnet, or to an attribute of a lipnet module it imports."""
    tree = ast.parse(script.read_text(encoding="utf-8"))
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "lipnet"):
            module = importlib.import_module(node.module)
            for a in node.names:
                names[a.asname or a.name] = getattr(module, a.name, None)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in names:
            yield f.id, names[f.id], node
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
              and inspect.ismodule(names.get(f.value.id))):
            yield f"{f.value.id}.{f.attr}", getattr(names[f.value.id], f.attr, None), node


def _load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_names_resolve_and_are_unique():
    missing = [name for name in lipnet.__all__ if not hasattr(lipnet, name)]
    assert missing == []
    assert len(set(lipnet.__all__)) == len(lipnet.__all__)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_from_lipnet_resolve(demo):
    # the slow demos do not run in the test suite, so a deleted name would break one unseen
    assert _unresolved_lipnet_reads(demo) == []


@pytest.mark.parametrize("script", BENCHMARKS, ids=lambda p: p.name)
def test_benchmark_reads_from_lipnet_resolve(script):
    # the benchmark changes apart from the program and runs only in its own
    # pipeline, so a renamed name would break it unseen
    assert _unresolved_lipnet_reads(script) == []


def test_benchmark_calls_into_lipnet_fit_their_signatures():
    # like the names above, a call that no longer binds would fail only in the
    # benchmark's own pipeline; calls that spread *args or **kwargs are skipped
    checked, unbound = 0, []
    for script in BENCHMARKS:
        for label, fn, call in _lipnet_calls(script):
            if fn is None or any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                continue
            checked += 1
            try:
                inspect.signature(fn).bind(*call.args, **{k.arg: k for k in call.keywords})
            except TypeError as e:
                unbound.append(f"{script.name}:{call.lineno} {label}: {e}")
    assert checked > 0 and unbound == []


def test_benchmark_trace_names_resolve():
    # the tracer finds its targets by name; a stale one fails or drops its spans
    tracing = _load_script(ROOT / "benchmarks" / "tracing.py")
    names = set(tracing.CLOCK_NAMES) | set(tracing.PROBES)
    names |= {".".join(t) for t in tracing.EXTRA_TARGETS + tracing.METHOD_TARGETS}
    missing = []
    for name in sorted(names):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"lipnet.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == STALE_TRACE_NAMES


def test_benchmark_grid_config_loads(tmp_path):
    workloads = _load_script(ROOT / "benchmarks" / "workloads.py")
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(workloads.GridWorkload()._config(0, 1500, 500, 2)),
                    encoding="utf-8")
    cfg = cli.load_config(path)
    assert (cfg["workers"], cfg["synthetic_train_n"], cfg["epochs"]) == (2, 1500, 2)


@pytest.mark.parametrize("name", ["01_autodiff_and_gradcheck.py",
                                  "03_guarantee_and_synthetic_oracle.py"])
def test_fast_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS[0].parent / name), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("module", CALLED_MODULES)
def test_every_public_function_has_a_caller(module):
    # a public function that no other module in the package calls and lipnet
    # does not export is dead code, or private to its module
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == module:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):  # f(...) or module.f(...)
                called.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
    assert sorted(public - called - set(lipnet.__all__)) == []


def test_only_apply_calls_the_layer_ops():
    # one dispatch from layer kind to tensor op: build_model and forward both go
    # through layers._apply, so a kind cannot mean one thing at build and another later
    ops = {"conv2d", "affine", "relu", "reshape", "softmax"}
    tree = ast.parse((PACKAGE / "layers.py").read_text(encoding="utf-8"))
    apply = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_apply"]
    inside = {id(n) for a in apply for n in ast.walk(a)}
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ops and id(node) not in inside]
    assert apply and found == []


def test_each_rule_lives_beside_its_only_caller():
    # the tape-free walk decides its own chunk size and when it takes a helper thread, and
    # the CLI its study commands' rules: layers keeps only the thread primitives and
    # training only what train and sweep use, so no other module names these rules
    split_callers, named = set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)  # only a call has one
                if getattr(func, "id", getattr(func, "attr", None)) == "_blas_threads_split":
                    split_callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
                # names read or bound, imported names and defined functions alike
                for name in (getattr(node, "id", getattr(node, "attr", None)),
                             getattr(node, "name", None)):
                    named.setdefault(name, set()).add(path.stem)
    assert split_callers == {"regularizer._eager_passes", "cli._run_cells"}
    for rule, owner in (("_EAGER_ROWS", "regularizer"), ("_HELPER_ROWS", "regularizer"),
                        ("_check_ratios", "cli"), ("SENSITIVITY_PARAMS", "cli"),
                        ("_check_deltas", "cli"), ("_sensitivity_runs", "cli")):
        assert named.get(rule) == {owner}, rule


def test_every_helper_thread_comes_from_one_primitive():
    # when lipnet hands work to a second thread is decided in layers._helper alone: no other
    # function makes an executor, the grid's cell pool aside, and no other module asks
    # whether the caller is alone
    pools, asks = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                names = {getattr(node, "id", getattr(node, "attr", None))}
                names |= {alias.name for alias in getattr(node, "names", [])
                          if isinstance(alias, ast.alias)}
                if "ThreadPoolExecutor" in names and not isinstance(top, ast.ImportFrom):
                    pools.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
                if "_lone_caller" in names:
                    asks.add(path.stem)
    assert pools == {"layers._helper", "cli._run_cells"}
    assert asks == {"layers"}


def test_only_the_cli_stages_call_train_and_sweep():
    # every command trains through cli._train_to and sweeps through
    # cli._sweep_to, so no second "train several recipes, then sweep" loop
    # can grow next to the runner that grid, ratio-study and sensitivity share
    allowed = {"train": "cli._train_to", "sweep": "cli._sweep_to"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in allowed and allowed[name] != f"{path.stem}.{fn.name}":
                    found.append(f"{path.stem}.{fn.name}:{node.lineno} calls {name}")
    assert found == []


def _writes(call: ast.Call) -> bool:
    """Whether a call makes a directory or writes a file by itself: mkdir,
    makedirs, write_text, write_bytes, or an open with a writing mode."""
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    if name in ("mkdir", "makedirs", "write_text", "write_bytes"):
        return True
    # the mode is open's second argument, Path.open's first, or mode=
    modes = call.args[:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return name == "open" and any(
        isinstance(m, ast.Constant) and isinstance(m.value, str)
        and re.fullmatch(r"[rbt]*[wax+][rwaxbt+]*", m.value) for m in modes)


def test_only_ioutil_makes_directories_and_writes_files():
    # every output reaches disk through ioutil's atomic write, which also
    # makes its directory; reads (config, IDX files, checkpoints) stay free
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "ioutil.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and _writes(node)]
    assert found == []


def test_package_imports_only_the_stdlib_and_numpy():
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names == {"numpy"}


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]


def test_package_version_is_the_code_version():
    # outputs record lipnet.VERSION as code_version; pip records pyproject's
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["version"] == lipnet.__version__


def test_import_lipnet_leaves_scipy_unloaded():
    code = "import sys, lipnet; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert out.stdout.strip() == "False"
