"""End-to-end CLI behavior: artifacts, determinism, exit codes, resume."""

import contextlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lipnet import (HyperParams, LipschitzParams, build_blobs_mlp, build_mnist_model,
                    checkpoint_bytes, derive_int, save_checkpoint, save_idx, sweep, train)
from lipnet import cli, layers
from lipnet.cli import IDX_STANDARD_NAMES, main

SRC = Path(cli.__file__).resolve().parents[1]
NAN = float("nan")  # json.dumps writes it as NaN, which json.load accepts
INF = float("inf")  # and this one as Infinity

BASE_CFG = {
    "dataset": "synthetic_blobs",
    "model": "blobs_mlp",
    "synthetic_train_n": 200,
    "synthetic_test_n": 100,
    "epochs": 1,
    "batch_size": 20,
    "lr": 0.1,
    "sweep_sigmas": [0.0, 0.5],
}


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = dict(BASE_CFG)
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


def run_subprocess(*argv, **kwargs):
    """lipnet in a fresh interpreter; kwargs go to subprocess.run (env is merged)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **kwargs.pop("env", {}))
    subprocess.run([sys.executable, "-m", "lipnet.cli", *map(str, argv)], check=True,
                   capture_output=True, env=env, **kwargs)


def eval_rows(out: Path) -> list:
    return json.loads((out / "eval_report.json").read_text())["rows"]


def run_command(command, cfg, out, checkpoint):
    """command is a subcommand and its flags, as in "guarantee --checkpoint
    --synthetic"; --checkpoint is given the checkpoint path."""
    name, *flags = command.split()
    flags = [a for f in flags for a in ([f, checkpoint] if f == "--checkpoint" else [f])]
    return run(name, "--config", cfg, "--out", out, *flags)


@contextlib.contextmanager
def counted_loaders():
    """Pass-through wrappers that record every data generation and checkpoint load."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("synthetic_blobs", "load_checkpoint"):
            real = getattr(cli, name)
            mp.setattr(cli, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
        yield calls


@contextlib.contextmanager
def small_oracle(trials=50, seeds=1):
    """guarantee --synthetic with a smaller sample budget than the module's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "ORACLE_TRIALS", trials)
        mp.setattr(cli, "ORACLE_SEEDS", seeds)
        yield


@pytest.fixture()
def loader_calls():
    with counted_loaders() as calls:
        yield calls


@pytest.fixture(scope="session")
def blobs_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(build_blobs_mlp(seed=0), path)
    return path


def test_train_writes_artifacts_and_resolved_config(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--config", cfg, "--out", out) == 0
    for name in ("model.ckpt", "train_record.csv", "train_epochs.csv",
                 "timings.json", "resolved_config.json"):
        assert (out / name).exists(), name
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["command"] == "train"
    assert resolved["method"] == "standard"
    assert resolved["epochs"] == 1
    assert "_explicit_keys" not in resolved


@pytest.mark.parametrize("command", ["train", "sweep --checkpoint", "grid", "ratio-study",
                                     "sensitivity", "guarantee --checkpoint --synthetic"])
def test_resolved_config_names_the_command_and_is_written_last(tmp_path, blobs_ckpt,
                                                               command):
    out = tmp_path / "out"
    with small_oracle():
        assert run_command(command, write_cfg(tmp_path, **TINY_CFG), out, blobs_ckpt) == 0
    resolved = out / "resolved_config.json"
    doc = json.loads(resolved.read_text())
    assert doc["command"] == command.split()[0]
    assert set(doc) == set(cli.CONFIG_DEFAULTS) | {"command", "method", "code_version",
                                                   "sigma_units"}
    others = [p for p in out.iterdir() if p.is_file() and p != resolved]
    assert others and all(p.stat().st_mtime_ns <= resolved.stat().st_mtime_ns for p in others)


def test_train_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("train", "--config", cfg, "--out", a) == 0
    assert run("train", "--config", cfg, "--out", b) == 0
    for name in ("model.ckpt", "train_record.csv", "train_epochs.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_output_files_get_the_mode_open_would_give(tmp_path):
    # the atomic write's temp file is owner-only until it is given the umask's mode
    out = tmp_path / "run"
    run_subprocess("train", "--config", write_cfg(tmp_path), "--out", out, umask=0o022)
    modes = {p.name: oct(p.stat().st_mode & 0o777) for p in out.iterdir()}
    assert len(modes) == 5 and set(modes.values()) == {"0o644"}, modes


@pytest.mark.skipif(layers._OPENBLAS_THREADS is None, reason="no OpenBLAS loaded")
def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the reproducibility domain is the numpy build and the BLAS kernel, not the threads;
    # at 2 threads and more sweep and the audit also run their chunks on a helper thread
    cfg = write_cfg(tmp_path, dataset="synthetic_digits", model="mnist_cnn",
                    synthetic_train_n=800, synthetic_test_n=733, audit_n=733,
                    batch_size=100, beta=10.0, l_n=0.005)
    for threads in ("1", "2", "4"):
        env, out = {"OPENBLAS_NUM_THREADS": threads}, tmp_path / threads
        run_subprocess("train", "--config", cfg, "--out", out / "train", env=env)
        for command in ("sweep", "guarantee"):
            run_subprocess(command, "--config", cfg, "--out", out / command,
                           "--checkpoint", out / "train" / "model.ckpt", env=env)
    for name in ("train/model.ckpt", "sweep/eval_report.csv", "sweep/eval_report.json",
                 "guarantee/guarantee_report.json"):
        want = (tmp_path / "1" / name).read_bytes()
        for threads in ("2", "4"):
            assert (tmp_path / threads / name).read_bytes() == want, (name, threads)


def test_seed_override_lands_in_resolved_config(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--config", cfg, "--out", out, "--seed", 123) == 0
    assert json.loads((out / "resolved_config.json").read_text())["seed"] == 123


def test_sweep_reads_checkpoint_and_reports(tmp_path):
    cfg = write_cfg(tmp_path)
    trained = tmp_path / "trained"
    swept = tmp_path / "swept"
    assert run("train", "--config", cfg, "--out", trained) == 0
    assert run("sweep", "--config", cfg, "--out", swept,
               "--checkpoint", trained / "model.ckpt") == 0
    rows = eval_rows(swept)
    assert [r["sigma_test"] for r in rows] == [0.0, 0.5]
    assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)
    assert {p.name for p in swept.iterdir()} == {
        "eval_report.csv", "eval_report.json", "resolved_config.json"}


def test_eval_reports_carry_no_training_recipe(tmp_path):
    # resolved_config.json is the one record of a recipe; sweep's checkpoint
    # was trained with another config than the one sweep reads
    trained, swept, grid = tmp_path / "trained", tmp_path / "swept", tmp_path / "grid"
    assert run("train", "--config", write_cfg(tmp_path, "a.json", beta=10.0, lr=0.05),
               "--out", trained) == 0
    assert run("sweep", "--config", write_cfg(tmp_path, "b.json", lr=0.5, epochs=3),
               "--out", swept, "--checkpoint", trained / "model.ckpt") == 0
    assert run("grid", "--config", write_cfg(tmp_path, "c.json", grid_sigma_train=[]),
               "--out", grid) == 0
    for report in (swept / "eval_report.json", grid / "standard" / "eval_report.json"):
        meta = json.loads(report.read_text())["metadata"]
        assert {"model_hash", "dataset"} <= set(meta) and "hyperparams" not in meta


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["train", "sweep --checkpoint", "guarantee --checkpoint"])
def test_run_failure_writes_nothing_under_out(tmp_path, capsys, command):
    # beta 1e300 diverges in the first step; the checkpoint is corrupt
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + b"\x00" * 16)
    cfg = write_cfg(tmp_path, sigma_train=0.5, beta=1e300, l_n=1e-9)
    out = tmp_path / "out"
    assert run_command(command, cfg, out, bad) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_sweep_without_checkpoint_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert run("sweep", "--config", cfg, "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, learning_rate=0.1)  # typo for lr
    assert run("train", "--config", cfg, "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert "learning_rate" in err and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def write_idx_split(data_dir, split, n=20):
    """Write only the given split ("train" or "test") of 28x28 IDX digits."""
    data_dir.mkdir(exist_ok=True)
    rng = np.random.default_rng(0)
    save_idx(rng.integers(0, 256, size=(n, 28, 28)), rng.integers(0, 10, size=n),
             data_dir / IDX_STANDARD_NAMES[f"{split}_images"],
             data_dir / IDX_STANDARD_NAMES[f"{split}_labels"])


def test_train_needs_only_the_train_split(tmp_path, monkeypatch):
    monkeypatch.delenv("LIPNET_DATA_DIR", raising=False)
    write_idx_split(tmp_path / "data", "train")
    cfg = write_cfg(tmp_path, dataset="idx", data_dir=str(tmp_path / "data"),
                    model="mnist_cnn", batch_size=10)
    assert run("train", "--config", cfg, "--out", tmp_path / "run") == 0
    assert (tmp_path / "run" / "model.ckpt").exists()


def test_sweep_needs_only_the_test_split(tmp_path, monkeypatch):
    monkeypatch.delenv("LIPNET_DATA_DIR", raising=False)
    write_idx_split(tmp_path / "data", "test")
    save_checkpoint(build_mnist_model(seed=0), tmp_path / "model.ckpt")
    cfg = write_cfg(tmp_path, dataset="idx", data_dir=str(tmp_path / "data"),
                    model="mnist_cnn")
    assert run("sweep", "--config", cfg, "--out", tmp_path / "swept",
               "--checkpoint", tmp_path / "model.ckpt") == 0
    assert [r["n"] for r in eval_rows(tmp_path / "swept")] == [20, 20]


def test_missing_idx_data_fails_before_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LIPNET_DATA_DIR", raising=False)
    cfg = write_cfg(tmp_path, dataset="idx")
    assert run("train", "--config", cfg, "--out", tmp_path / "x") == 2
    assert "train_images" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_corrupt_checkpoint_is_run_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + b"\x00" * 16)
    assert run("sweep", "--config", cfg, "--out", tmp_path / "x",
               "--checkpoint", bad) == 1
    assert "ValueError" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "guarantee"])
def test_a_missing_checkpoint_is_usage_error_before_any_load(
        tmp_path, capsys, loader_calls, command):
    cfg = write_cfg(tmp_path, l_n=0.01)
    missing, out = tmp_path / "nope.ckpt", tmp_path / "x"
    assert run(command, "--config", cfg, "--out", out, "--checkpoint", missing) == 2
    assert str(missing) in capsys.readouterr().err
    assert loader_calls == []
    assert not out.exists()


def test_grid_trains_all_cells_and_summarizes(tmp_path):
    cfg = write_cfg(tmp_path, grid_sigma_train=[0.5], grid_beta=[10.0],
                    grid_l_n=[0.005])
    out = tmp_path / "grid"
    assert run("grid", "--config", cfg, "--out", out) == 0
    lines = (out / "grid_summary.csv").read_text().strip().split("\n")
    assert lines[0] == "method,sigma_train,beta,l_n,acc_sigma_0,acc_sigma_0p5"
    assert len(lines) == 3
    assert lines[1].startswith("standard,") and lines[2].startswith("proposed,")
    assert "failed_cells" not in json.loads((out / "resolved_config.json").read_text())
    # each cell records its own recipe: the grid's config without the axes and
    # workers, plus the cell's regularizer
    for cell, lip, method in [("standard", (0.0, 0.0, 0.01), "standard"),
                              ("s0p5_b10_l0p005", (0.5, 10.0, 0.005), "proposed")]:
        resolved = json.loads((out / cell / "resolved_config.json").read_text())
        assert (resolved["sigma_train"], resolved["beta"], resolved["l_n"]) == lip
        assert (resolved["command"], resolved["method"]) == ("grid", method)
        assert resolved["epochs"] == BASE_CFG["epochs"]
        assert not any(k.startswith("grid_") or k == "workers" for k in resolved)
        assert not (out / cell / "DONE").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_records_cell_failure_and_continues(tmp_path, capsys):
    # beta=1e300 overflows within a step; the other cells must still finish
    cfg = write_cfg(tmp_path, grid_sigma_train=[0.5], grid_beta=[10.0, 1e300],
                    grid_l_n=[1e-9])
    out = tmp_path / "grid"
    assert run("grid", "--config", cfg, "--out", out) == 1
    bad = out / "s0p5_b1e300_l1em09"
    assert "TrainingDivergedError" in (bad / "error.txt").read_text()
    assert not (bad / "resolved_config.json").exists()
    assert (out / "standard" / "resolved_config.json").exists()
    assert (out / "s0p5_b10_l1em09" / "resolved_config.json").exists()
    assert capsys.readouterr().err == "error: 1 grid cell(s) failed: ['s0p5_b1e300_l1em09']\n"
    assert len((out / "grid_summary.csv").read_text().split()) == 3


GRID_AXES = dict(grid_sigma_train=[0.5], grid_beta=[10.0], grid_l_n=[0.005, 0.01])


def checkpoint_stamps(out: Path) -> dict:
    return {p.parent.name: p.stat().st_mtime_ns for p in out.glob("*/model.ckpt")}


@pytest.mark.parametrize("change", [{}, {"workers": 2}])
def test_grid_resume_skips_done_cells(tmp_path, change):
    out = tmp_path / "grid"
    assert run("grid", "--config", write_cfg(tmp_path, "a.json", **GRID_AXES), "--out", out) == 0
    stamps = checkpoint_stamps(out)
    assert len(stamps) == 3
    cfg = write_cfg(tmp_path, "b.json", **GRID_AXES, **change)
    assert run("grid", "--config", cfg, "--out", out) == 0
    assert checkpoint_stamps(out) == stamps


def test_grid_trains_only_a_new_cell(tmp_path, monkeypatch):
    out = tmp_path / "grid"
    assert run("grid", "--config", write_cfg(tmp_path, "a.json", **GRID_AXES), "--out", out) == 0
    ran, real_run_cell = [], cli._run_cell

    def run_cell(cfg, cell_dir, *args):
        ran.append(cell_dir.name)
        return real_run_cell(cfg, cell_dir, *args)

    monkeypatch.setattr(cli, "_run_cell", run_cell)
    cfg = write_cfg(tmp_path, "b.json", **dict(GRID_AXES, grid_l_n=[0.005, 0.01, 0.02]))
    assert run("grid", "--config", cfg, "--out", out) == 0
    assert ran == ["s0p5_b10_l0p02"]
    assert len((out / "grid_summary.csv").read_text().split()) == 5


def test_grid_retrains_cells_written_by_another_code_version(tmp_path, monkeypatch):
    # code_version is part of a cell's recipe, so a version bump retrains every cell
    cfg = write_cfg(tmp_path, **GRID_AXES)
    out = tmp_path / "grid"
    monkeypatch.setattr(cli, "VERSION", "0.1.0")
    assert run("grid", "--config", cfg, "--out", out) == 0
    monkeypatch.undo()
    ran, real_run_cell = [], cli._run_cell

    def run_cell(cfg, cell_dir, *args):
        ran.append(cell_dir.name)
        return real_run_cell(cfg, cell_dir, *args)

    monkeypatch.setattr(cli, "_run_cell", run_cell)
    assert run("grid", "--config", cfg, "--out", out) == 0
    assert ran == ["standard", "s0p5_b10_l0p005", "s0p5_b10_l0p01"]
    resolved = json.loads((out / "standard" / "resolved_config.json").read_text())
    assert resolved["code_version"] == cli.VERSION != "0.1.0"


def cell_files(out: Path) -> dict:
    """Every file a grid wrote, by path under out, except the wall-clock timings."""
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
            if p.is_file() and p.name != "timings.json"}


@pytest.mark.parametrize("change", [{"sweep_sigmas": [0.0, 1.0]}, {"epochs": 2}])
def test_grid_rerun_with_a_changed_recipe_matches_a_fresh_grid(tmp_path, change):
    # a cell counts as done only under the recipe its resolved_config.json records
    cfg = write_cfg(tmp_path, "a.json", **GRID_AXES)
    changed = write_cfg(tmp_path, "b.json", **GRID_AXES, **change)
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    assert run("grid", "--config", cfg, "--out", rerun) == 0
    assert run("grid", "--config", changed, "--out", rerun) == 0
    assert run("grid", "--config", changed, "--out", fresh) == 0
    assert cell_files(rerun) == cell_files(fresh)  # grid_summary.csv included


@pytest.mark.parametrize("command,first,second", [("grid", "standard", "s0p5_b10_l0p005"),
                                                   ("ratio-study", "ratio_0", "ratio_1"),
                                                   ("sensitivity", "baseline", "control")])
def test_grid_rerun_clears_a_cell_error(tmp_path, monkeypatch, capsys, command, first, second):
    # the three commands share one runner, so each records, prints and reruns a failed cell
    calls, real_run_cell = [], cli._run_cell

    def fail_first(cfg, cell_dir, *args):
        calls.append(cell_dir.name)
        if len(calls) == 1:
            raise RuntimeError("first attempt fails")
        return real_run_cell(cfg, cell_dir, *args)

    monkeypatch.setattr(cli, "_run_cell", fail_first)
    cfg = write_cfg(tmp_path, grid_sigma_train=[0.5], grid_beta=[10.0], grid_l_n=[0.005],
                    ratios=[0.5, 1.0], sensitivity_deltas={"control": 1.0})
    out = tmp_path / "out"
    assert run(command, "--config", cfg, "--out", out) == 1
    assert capsys.readouterr().err == f"error: 1 {command} cell(s) failed: ['{first}']\n"
    assert (out / first / "error.txt").exists()
    # the grid and the ratio table list the finished cells; sensitivity needs them all
    assert {p.name for p in out.iterdir() if p.is_file()} == {
        "grid": {"grid_summary.csv", "resolved_config.json"},
        "ratio-study": {"ratio_study.csv", "resolved_config.json"},
        "sensitivity": {"resolved_config.json"}}[command]
    assert run(command, "--config", cfg, "--out", out) == 0
    assert calls == [first, second, first]
    assert not (out / first / "error.txt").exists()
    assert (out / first / "resolved_config.json").exists()


@pytest.mark.parametrize("command", ["grid", "ratio-study", "sensitivity"])
def test_grid_parallel_workers_match_serial(tmp_path, command):
    study = dict(GRID_AXES, sigma_train=0.5, beta=10.0, ratios=[0.5, 1.0, 0.3],
                 sensitivity_deltas={"beta": 5.0, "control": 1.0})
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(command, "--config", write_cfg(tmp_path, "serial.json", **study), "--out", a) == 0
    assert run(command, "--config", write_cfg(tmp_path, "par.json", workers=2, **study),
               "--out", b) == 0
    # the pool runs at a lower BLAS thread count, which must not move a byte
    files = {out: cell_files(out) for out in (a, b)}
    for out, workers in ((a, 1), (b, 2)):  # the command's own record names its workers
        assert json.loads(files[out].pop(Path("resolved_config.json")))["workers"] == workers
    assert {f.name for f in files[a]} >= {"model.ckpt", "train_record.csv", "train_epochs.csv",
                                          "eval_report.csv", "eval_report.json"}
    assert files[a] == files[b]  # the summary file included
    # each run counts its own perturbed passes, even while others run alongside
    cells = [p.name for p in a.iterdir() if p.is_dir()]
    assert len(cells) == 3
    for cell in cells:
        serial, par = (json.loads((d / cell / "timings.json").read_text())["meta"]
                       for d in (a, b))
        assert par["perturbed_passes"] == serial["perturbed_passes"]
        beta = json.loads((a / cell / "resolved_config.json").read_text())["beta"]
        assert serial["perturbed_passes"] == (0 if beta == 0 else serial["n_steps"])


@pytest.mark.parametrize("workers,failing,openblas_found,cells_done", [
    (1, None, True, 0),
    (2, None, True, 0),
    (2, "s0p5_b10_l0p005", True, 0),  # a raising cell still restores the count
    (2, None, False, 0),              # no OpenBLAS found: the count is left alone
    (2, None, True, 2),               # a resumed grid splits by the cells left to run
])
def test_grid_splits_blas_threads_while_the_pool_runs(tmp_path, monkeypatch, blas_count,
                                                      workers, failing, openblas_found,
                                                      cells_done):
    count = blas_count or (lambda: None)
    ends_workers = blas_count is not None and layers._OPENBLAS_THREADS[2] is not None
    out = tmp_path / "grid"
    cfg = write_cfg(tmp_path, workers=workers, **GRID_AXES)
    if cells_done:
        assert run("grid", "--config", cfg, "--out", out) == 0
        (out / "s0p5_b10_l0p01" / "resolved_config.json").unlink()
    if not openblas_found:
        monkeypatch.setattr(layers, "_OPENBLAS_THREADS", None)
    seen, helpers, real_run_cell = [], [], cli._run_cell

    def run_cell(cfg, cell_dir, *args):
        seen.append(count())
        if cell_dir.name == failing:
            raise RuntimeError("cell failed on purpose")
        return real_run_cell(cfg, cell_dir, *args)

    def helper_pool(**kwargs):  # the executor of every probe's and sweep's helper thread
        helpers.append(kwargs)
        return ThreadPoolExecutor(**kwargs)

    monkeypatch.setattr(cli, "_run_cell", run_cell)
    monkeypatch.setattr(layers, "ThreadPoolExecutor", helper_pool)
    assert run("grid", "--config", cfg, "--out", out) == (1 if failing else 0)
    if failing:
        assert "RuntimeError" in (out / failing / "error.txt").read_text()
    assert len(seen) == 3 - cells_done
    if blas_count is None:
        pytest.skip("no OpenBLAS loaded, so there is no thread count to check")
    split = workers > 1 and openblas_found and not cells_done
    assert seen == [1 if split else 2] * (3 - cells_done)
    # each epoch's probe (200 rows, two chunks) gets a helper thread only when the cell
    # has the BLAS threads to split and OpenBLAS can end its idle worker; the sweep's
    # 100 rows are one chunk and walk alone
    helped = not split and openblas_found and ends_workers
    assert len(helpers) == BASE_CFG["epochs"] * (3 - cells_done) * helped
    assert blas_count() == 2


def _grid_blas_calls(tmp_path, monkeypatch):
    """The sets, stops and cell starts of a 3-cell grid at workers 2 and a fake count of 4."""
    calls, state, in_flight = [], {"count": 4}, []

    def put(n):
        calls.append(f"set({n}) with {len(in_flight)} cells in flight")
        state["count"] = n

    def stop():
        calls.append(f"stop with {len(in_flight)} cells in flight")

    real_run_cell = cli._run_cell

    def run_cell(*args):
        in_flight.append(args[1].name)
        calls.append(f"cell at {state['count']}")
        try:
            return real_run_cell(*args)
        finally:
            in_flight.remove(args[1].name)

    monkeypatch.setattr(layers, "_OPENBLAS_THREADS", (lambda: state["count"], put, stop))
    monkeypatch.setattr(cli, "_run_cell", run_cell)
    cfg = write_cfg(tmp_path, workers=2, synthetic_test_n=300, **GRID_AXES)
    assert run("grid", "--config", cfg, "--out", tmp_path / "grid") == 0
    return calls


def test_a_grid_pool_never_ends_the_workers_under_its_cells(tmp_path, monkeypatch):
    # at 4 threads and 2 workers each cell runs at a count of 2, so its probes and sweep
    # could split it, yet no set or stop may come while a sibling cell may be in a GEMM
    assert _grid_blas_calls(tmp_path, monkeypatch) == [
        "set(2) with 0 cells in flight", "stop with 0 cells in flight", *["cell at 2"] * 3,
        "set(4) with 0 cells in flight", "stop with 0 cells in flight"]


def test_a_grid_beside_another_thread_leaves_the_blas_count_alone(tmp_path, monkeypatch,
                                                                  another_thread):
    # the in-process caller's own thread may be inside BLAS: no set, and no stop to hang it
    assert _grid_blas_calls(tmp_path, monkeypatch) == ["cell at 4"] * 3


def test_blas_split_restores_on_any_exit_and_skips_one_way(blas_count):
    if blas_count is None:
        pytest.skip("no OpenBLAS loaded, so there is no thread count to check")
    with layers._blas_threads_split(1):
        assert blas_count() == 2
    with pytest.raises(KeyboardInterrupt), layers._blas_threads_split(2):
        assert blas_count() == 1
        raise KeyboardInterrupt
    assert blas_count() == 2


@pytest.mark.parametrize("axes", [
    {"grid_l_n": [0.005, 0.0050000001]},   # equal in %g form
    {"grid_l_n": [0.005, 0.005]},          # exact duplicate
    {"grid_beta": [0.0]},                  # a beta-0 cell next to the baseline
])
def test_grid_cells_sharing_a_directory_are_usage_error(tmp_path, capsys, axes):
    cfg = write_cfg(tmp_path, **{"grid_sigma_train": [0.5], "grid_beta": [10.0],
                                 "grid_l_n": [0.005], **axes})
    out = tmp_path / "grid"
    assert run("grid", "--config", cfg, "--out", out) == 2
    assert "share a directory name" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,overrides,message", [
    ("grid", {"grid_sigma_train": [0.0], "grid_beta": [10.0]}, "sigma_train"),
    ("grid", {"grid_l_n": [-1.0]}, "l_n"),
    ("grid", {"lr": -1.0}, "lr"),  # read by every cell, checked once up front
    ("guarantee", {"l_n": -1.0}, "l_n"),
    ("sensitivity", {"sigma_train": 0.5, "beta": 10.0, "l_n": 0.01,
                     "sensitivity_deltas": {"l_n": -0.02}}, "l_n"),
    ("sensitivity", {"sensitivity_deltas": {"beta": "abc"}}, "sensitivity_deltas"),
    ("sensitivity", {"sensitivity_deltas": {"control": 0}}, "nonzero"),
    ("sensitivity", {"sensitivity_deltas": {"foo": 1.0}}, "unknown"),
    ("sensitivity", {"sensitivity_deltas": {"lr": 1.0}}, "unknown"),
    ("sensitivity", {"sensitivity_deltas": {"beta": 0.0}}, "nonzero"),
    # the deltas' names and sizes are checked at load, for every command
    ("train", {"sensitivity_deltas": {"foo": 1.0}}, "unknown"),
    ("train", {"sensitivity_deltas": {"beta": 0.0}}, "nonzero"),
    ("sensitivity", {"sigma_eval": -1}, "sigma_eval"),
    ("grid", {"sweep_sigmas": [0.0, -0.5]}, "sweep_sigmas"),
    ("sweep", {"sweep_sigmas": [0.0, -0.5]}, "sweep_sigmas"),
    ("ratio-study", {"sweep_sigmas": [0.0, -0.5]}, "sweep_sigmas"),
    ("ratio-study", {"ratios": [0]}, "ratios"),
    ("ratio-study", {"ratios": [1.5]}, "ratios"),
    ("ratio-study", {"ratios": [0.5, -0.1]}, "ratios"),
    ("ratio-study", {"ratios": []}, "ratios"),
    ("train", {"synthetic_train_n": "many"}, "synthetic_train_n"),
    ("train", {"train_limit": "x"}, "train_limit"),
    ("train", {"arch_seed": "x"}, "arch_seed"),
    ("grid", {"corruption_seed": "x"}, "corruption_seed"),
    ("grid", {"workers": "two"}, "workers"),
    ("sweep", {"synthetic_test_n": [100]}, "synthetic_test_n"),
    ("sensitivity", {"synthetic_seed": "x"}, "synthetic_seed"),
    ("guarantee", {"l_n": 0.01, "audit_sigma": "x"}, "audit_sigma"),
    ("guarantee", {"l_n": 0.01, "audit_n": "many"}, "audit_n"),
    ("guarantee", {"l_n": 0.01, "beta": "x"}, "beta"),
    ("sweep", {"sweep_sigmas": [0.5, 0.0, 0.5]}, "distinct"),
    ("grid", {"sweep_sigmas": [0.5, 0.0, 0.5]}, "distinct"),
    ("ratio-study", {"sweep_sigmas": [0.5, 0.0, 0.5]}, "distinct"),
    # every comparison with NaN is false, so each range rule must still reject it
    ("sweep", {"sweep_sigmas": [0.0, NAN]}, "sweep_sigmas"),
    ("guarantee", {"l_n": NAN}, "l_n"),
    ("train", {"lr": NAN}, "lr"),
    ("train", {"sigma_train": 0.5, "beta": NAN}, "beta"),
    ("train", {"sigma_train": NAN, "beta": 10.0}, "sigma_train"),
    ("train", {"lr_drops": [[1, NAN]]}, "lr_drops"),
    ("sensitivity", {"sigma_eval": NAN}, "sigma_eval"),
    ("sensitivity", {"sensitivity_deltas": {"control": NAN}}, "finite"),
    ("sensitivity", {"sensitivity_deltas": {"beta": INF}}, "finite"),
    ("sensitivity", {"sensitivity_deltas": {"beta": -INF}}, "finite"),
    # sizes and counts are at least 1
    ("train", {"synthetic_train_n": 0}, "synthetic_train_n"),
    ("train", {"synthetic_train_n": -5}, "synthetic_train_n"),
    ("sweep", {"synthetic_test_n": 0}, "synthetic_test_n"),
    # a key's type is its default's: no truncated float, no bool as an int
    ("train", {"epochs": 2.9}, "epochs"),
    ("train", {"epochs": True}, "epochs"),
    ("train", {"lr": "0.05"}, "lr"),
    ("grid", {"grid_include_standard": "false"}, "grid_include_standard"),
    # the flags are those a command needs to reach the code that reads the key
    ("train", {"lr": -1.0}, "lr"),
    ("train", {"train_limit": 0}, "train_limit"),
    ("train", {"model": "foo"}, "model"),
    ("sweep --checkpoint", {"lr": -1.0}, "lr"),
    ("sweep --checkpoint", {"sweep_sigmas": []}, "sweep_sigmas"),
    ("grid", {"workers": 0}, "workers"),
    ("guarantee --checkpoint", {"l_n": 0.01, "audit_sigma": 0.0}, "audit_sigma"),
    ("guarantee --checkpoint", {"l_n": 0.01, "audit_sigma": NAN}, "audit_sigma"),
    ("guarantee --checkpoint", {"l_n": 0.01, "audit_n": 0}, "audit_n"),
    # every float is finite, so Infinity fails its type, not a run
    ("train", {"lr": INF}, "lr"),
    ("train", {"sigma_train": 0.5, "beta": INF}, "beta"),
    ("sweep --checkpoint", {"sweep_sigmas": [INF]}, "sweep_sigmas"),
    ("grid", {"grid_l_n": [INF]}, "grid_l_n"),
    ("sensitivity", {"sigma_eval": INF}, "sigma_eval"),
    ("guarantee", {"l_n": INF}, "l_n"),
    # list and dict elements are floats: no string, no bool
    ("sweep --checkpoint", {"sweep_sigmas": ["0.5"]}, "sweep_sigmas"),
    ("sweep --checkpoint", {"sweep_sigmas": [True, 0.0]}, "sweep_sigmas"),
    ("ratio-study", {"ratios": [True]}, "ratios"),
    ("grid", {"grid_beta": ["10"]}, "grid_beta"),
    ("sensitivity", {"sensitivity_deltas": {"beta": True}}, "sensitivity_deltas"),
    # a key's rule runs for every command, also one that never reads the key
    ("guarantee", {"l_n": 0.01, "lr": -1.0}, "lr"),
    ("guarantee", {"l_n": 0.01, "dataset": "foo"}, "dataset"),
    ("guarantee", {"l_n": 0.01, "sigma_train": 0.0, "beta": 10.0}, "sigma_train"),
    # an lr drop epoch is an int, never truncated
    ("train", {"lr_drops": [[1.9, 10.0]]}, "lr_drops"),
    ("train", {"lr_drops": [[True, 10.0]]}, "lr_drops"),
    # a negative seed fails the model build at load, before the data loads
    ("train", {"seed": -1}, "seed"),
    ("sensitivity", {"arch_seed": -1}, "arch_seed"),
    ("train --seed -1", {}, "seed"),
    # keys that earlier versions read are unknown now, at their old defaults too
    ("guarantee --checkpoint --synthetic", {"l_n": 0.01, "n_classes": 10}, "n_classes"),
    ("guarantee --synthetic", {"l_n": 0.01, "synthetic_trials": 10000}, "synthetic_trials"),
    ("guarantee --synthetic", {"l_n": 0.01, "synthetic_seeds": 5}, "synthetic_seeds"),
    ("guarantee --synthetic", {"l_n": 0.01, "synthetic_l": 1.0}, "synthetic_l"),
    ("guarantee --synthetic", {"l_n": 0.01, "synthetic_dim": 2}, "synthetic_dim"),
    ("ratio-study", {"train_ratio": 1.0}, "train_ratio"),
    ("train", {"train_ratio": 0.5}, "train_ratio"),  # train no longer subsamples
])
def test_invalid_run_params_are_usage_errors_before_any_output(
        tmp_path, capsys, loader_calls, blobs_ckpt, command, overrides, message):
    cfg = write_cfg(tmp_path, **overrides)
    out = tmp_path / "x"
    assert run_command(command, cfg, out, blobs_ckpt) == 2
    err = capsys.readouterr().err
    assert message in err and "ValueError" not in err
    assert loader_calls == []
    assert not out.exists()


# Small enough that every command runs in milliseconds: one grid cell, one
# ratio, one delta and few audit samples; the tests that run the synthetic
# oracle shrink its budget with small_oracle().
TINY_CFG = dict(BASE_CFG, synthetic_train_n=40, synthetic_test_n=20, l_n=0.01,
                grid_include_standard=False, grid_sigma_train=[0.5], grid_beta=[10.0],
                grid_l_n=[0.01], ratios=[1.0], sensitivity_deltas={"control": 1.0},
                audit_n=10)
ALL_COMMANDS = ("train", "sweep --checkpoint", "grid", "ratio-study", "sensitivity",
                "guarantee --checkpoint --synthetic")
# (value, is_mistake): a mistake is never valid for any key, and "wrong type"
# is True, or "x" for the one bool key; the others are valid for some keys.
MUTATIONS = [(m, True) for m in ("wrong type", NAN, INF, -INF, [True], ["x"])]
MUTATIONS += [(m, False) for m in (0, -1, [])]


@given(key=st.sampled_from(sorted(cli.CONFIG_DEFAULTS)), mutation=st.sampled_from(MUTATIONS))
def test_config_mutation_is_a_usage_error_or_runs(blobs_ckpt, key, mutation):
    """Setting one key to one mutation never exits 1. A mistake exits 2, and
    every exit 2 comes before any output and any data or checkpoint load."""
    mutation, is_mistake = mutation
    if mutation == "wrong type":
        mutation = "x" if type(cli.CONFIG_DEFAULTS[key]) is bool else True
    with tempfile.TemporaryDirectory() as tmp, counted_loaders() as calls, small_oracle():
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(dict(TINY_CFG, **{key: mutation})), encoding="utf-8")
        for command in ALL_COMMANDS:
            out = Path(tmp) / command.split()[0]
            calls.clear()
            code = run_command(command, cfg, out, blobs_ckpt)
            assert code == 2 if is_mistake else code in (0, 2), (command, code)
            if code == 2:
                assert calls == [] and not out.exists(), command


def test_load_config_checks_model_and_seed_without_building_the_model(tmp_path, monkeypatch):
    def build(seed):
        raise AssertionError("load_config built the model")

    monkeypatch.setitem(layers.MODEL_REGISTRY, "mnist_cnn", build)
    cfg = cli.load_config(write_cfg(tmp_path, model="mnist_cnn", arch_seed=3))
    assert (cfg["model"], cfg["arch_seed"]) == ("mnist_cnn", 3)


def test_guarantee_requires_explicit_l_n(tmp_path, capsys):
    cfg = write_cfg(tmp_path)  # no l_n key
    assert run("guarantee", "--config", cfg, "--out", tmp_path / "x") == 2
    assert "l_n" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--synthetic"]])
@pytest.mark.parametrize("model,width", [("mnist_cnn", 10), ("blobs_mlp", 2)])
def test_guarantee_labels_are_the_models_classes(tmp_path, model, width, flags):
    assert layers.build_registered(model, 0).layers[-2].out_features == width
    cfg = write_cfg(tmp_path, model=model, l_n=0.01)
    out = tmp_path / "g"
    with small_oracle():
        assert run("guarantee", "--config", cfg, "--out", out, *flags) == 0
    payload = json.loads((out / "guarantee_report.json").read_text())
    # one-hot labels sit sqrt(2) apart at any count, so only the count moves
    assert payload["guarantee"] == {"rho": 0.7071067811865476, "l_n": 0.01,
                                    "radius": 70.71067811865476, "label_set_size": width,
                                    "conditional_on": "f is l_n-Lipschitz"}
    # rho is stated once, inside guarantee
    assert set(payload) == ({"guarantee", "synthetic"} if flags else {"guarantee"})


def test_guarantee_synthetic_oracle_clean(tmp_path):
    cfg = write_cfg(tmp_path, l_n=0.01)
    out = tmp_path / "g"
    with small_oracle(trials=500, seeds=2):
        assert run("guarantee", "--config", cfg, "--out", out, "--synthetic") == 0
    synth = json.loads((out / "guarantee_report.json").read_text())["synthetic"]
    assert (synth["lipschitz_l"], synth["dim"], synth["trials_per_seed"]) == (1.0, 2, 500)
    assert synth["violations_per_seed"] == [0, 0]
    assert "total_violations" not in synth
    ce = synth["counterexample"]
    assert ce["label_before"] != ce["label_after"]


def test_guarantee_synthetic_oracle_runs_the_module_budget(tmp_path):
    out = tmp_path / "g"
    assert run("guarantee", "--config", write_cfg(tmp_path, l_n=0.01), "--out", out,
               "--synthetic") == 0
    synth = json.loads((out / "guarantee_report.json").read_text())["synthetic"]
    assert (synth["lipschitz_l"], synth["dim"], synth["trials_per_seed"]) == (1.0, 2, 10000)
    assert synth["violations_per_seed"] == [0] * 5


def test_guarantee_audit_with_checkpoint(tmp_path):
    cfg = write_cfg(tmp_path, l_n=0.01, audit_n=50)
    trained = tmp_path / "trained"
    assert run("train", "--config", cfg, "--out", trained) == 0
    out = tmp_path / "g"
    assert run("guarantee", "--config", cfg, "--out", out,
               "--checkpoint", trained / "model.ckpt") == 0
    audit = json.loads((out / "guarantee_report.json").read_text())["audit"]
    assert audit["sigma"] == 0.5
    assert 0.0 <= audit["fraction_exceeding_l_n"] <= 1.0
    assert "fraction_within" not in audit


CELL_FILES = {"model.ckpt", "train_record.csv", "train_epochs.csv", "timings.json",
              "eval_report.csv", "eval_report.json", "resolved_config.json"}


def ratio_rows(out: Path) -> list:
    """ratio_study.csv's (ratio, sigma_test, accuracy) rows as floats."""
    lines = (out / "ratio_study.csv").read_text().split()
    assert lines[0] == "ratio,sigma_test,accuracy"
    return [tuple(map(float, line.split(","))) for line in lines[1:]]


def test_ratio_study_command(tmp_path):
    cfg = write_cfg(tmp_path, ratios=[0.5, 1.0, 0.5], epochs=2, batch_size=10, seed=4,
                    corruption_seed=777)
    out = tmp_path / "r"
    assert run("ratio-study", "--config", cfg, "--out", out) == 0
    # one cell per entry of ratios, a repeated one included, each with train's
    # and sweep's files and its own recipe
    assert {p.name for p in out.iterdir()} == {"ratio_study.csv", "resolved_config.json",
                                              "ratio_0", "ratio_1", "ratio_2"}
    ratios = (0.5, 1.0, 0.5)
    for i, ratio in enumerate(ratios):
        assert {p.name for p in (out / f"ratio_{i}").iterdir()} == CELL_FILES
        resolved = json.loads((out / f"ratio_{i}" / "resolved_config.json").read_text())
        assert (resolved["command"], resolved["train_ratio"]) == ("ratio-study", ratio)
        assert resolved["seed"] == derive_int(4, "ratio", i)
        assert "ratios" not in resolved and "workers" not in resolved
    rows = ratio_rows(out)
    assert [r[:2] for r in rows] == [(r, s) for r in ratios for s in (0.0, 0.5)]
    # each ratio's cell is a direct train + sweep with the seed derived from
    # its index, on the command's initial model, bit for bit
    train_ds, test_ds = cli.load_datasets(cli.load_config(cfg))
    for i, ratio in enumerate(ratios):
        hp = HyperParams(lip=LipschitzParams(0.75, 0.0, 0.01), lr=0.1, epochs=2,
                         batch_size=10, train_ratio=ratio, seed=derive_int(4, "ratio", i))
        model, _ = train(build_blobs_mlp(4), train_ds, hp)
        assert (out / f"ratio_{i}" / "model.ckpt").read_bytes() == checkpoint_bytes(model)
        direct = sweep(model, test_ds, [0.0, 0.5], corruption_seed=777)
        assert [r[2] for r in rows[2 * i:2 * i + 2]] == [row.accuracy for row in direct.rows]


def test_ratio_study_more_data_no_worse(tmp_path):
    cfg = write_cfg(tmp_path, synthetic_train_n=600, synthetic_test_n=300, ratios=[0.1, 1.0],
                    sweep_sigmas=[0.0], epochs=3, batch_size=10, seed=4)
    out = tmp_path / "r"
    assert run("ratio-study", "--config", cfg, "--out", out) == 0
    acc = {ratio: accuracy for ratio, _, accuracy in ratio_rows(out)}
    assert acc[1.0] >= acc[0.1] - 0.05


def test_killed_ratio_study_resumes(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, ratios=[0.5, 1.0, 0.5])
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    assert run("ratio-study", "--config", cfg, "--out", rerun) == 0
    # killed before ratio_1 wrote its record: the rerun trains that cell alone
    (rerun / "ratio_1" / "resolved_config.json").unlink()
    ran, real_run_cell = [], cli._run_cell

    def run_cell(cfg, cell_dir, *args):
        ran.append(cell_dir.name)
        return real_run_cell(cfg, cell_dir, *args)

    monkeypatch.setattr(cli, "_run_cell", run_cell)
    assert run("ratio-study", "--config", cfg, "--out", rerun) == 0
    assert ran == ["ratio_1"]
    assert run("ratio-study", "--config", cfg, "--out", fresh) == 0
    assert (rerun / "ratio_study.csv").read_bytes() == (fresh / "ratio_study.csv").read_bytes()
    assert cell_files(rerun) == cell_files(fresh)


def test_sensitivity_command(tmp_path):
    cfg = write_cfg(tmp_path, sigma_train=0.5, beta=10.0, l_n=0.01, seed=4, corruption_seed=99,
                    sensitivity_deltas={"beta": 5.0, "control": 1.0})
    out = tmp_path / "s"
    assert run("sensitivity", "--config", cfg, "--out", out) == 0
    # a baseline cell and one per delta, each swept at sigma_eval alone
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["baseline", "beta", "control"]
    for cell, beta in (("baseline", 10.0), ("beta", 15.0), ("control", 10.0)):
        assert {p.name for p in (out / cell).iterdir()} == CELL_FILES
        resolved = json.loads((out / cell / "resolved_config.json").read_text())
        assert (resolved["command"], resolved["beta"]) == ("sensitivity", beta)
        assert resolved["sweep_sigmas"] == [0.5]
        assert not {"sensitivity_deltas", "sigma_eval", "workers"} & set(resolved)
    payload = json.loads((out / "sensitivity_report.json").read_text())
    by_name = {e["param"]: e for e in payload["entries"]}
    assert set(by_name) == {"beta", "control"}
    # the control cell retrains with nothing changed, so it reads exactly 0
    control, beta = by_name["control"], by_name["beta"]
    assert control["sensitivity"] == 0.0
    assert control["acc_after"] == control["acc_before"]
    assert beta["acc_before"] == control["acc_before"]
    assert beta["sensitivity"] == (beta["acc_after"] - beta["acc_before"]) / 5.0
    # before is the baseline cell's accuracy at sigma_eval, in percentage points
    assert control["acc_before"] == eval_rows(out / "baseline")[0]["accuracy"] * 100.0
    hp = HyperParams(lip=LipschitzParams(0.5, 10.0, 0.01), lr=0.1, epochs=1, batch_size=20,
                     seed=4)
    assert payload["baseline"] == json.loads(json.dumps(hp.as_dict()))
    assert payload["metadata"]["units"] == "percentage points"
    ref = payload["metadata"]["reference_cifar10"]
    assert (ref["sigma_train"], ref["beta"], ref["l_n"]) == (87.20, 2.55, -28.89)


@pytest.mark.parametrize("command", ["sensitivity", "ratio-study"])
def test_init_comes_from_arch_seed(tmp_path, monkeypatch, command):
    seeds = []
    real = cli.build_registered
    monkeypatch.setattr(cli, "build_registered",
                        lambda name, seed: seeds.append(seed) or real(name, seed))
    cfg = write_cfg(tmp_path, arch_seed=5, seed=3, ratios=[1.0],
                    sensitivity_deltas={"control": 1.0})
    assert run(command, "--config", cfg, "--out", tmp_path / "o") == 0
    assert seeds and set(seeds) == {5}


def test_sensitivity_runs_on_the_default_regularizer(tmp_path):
    # BASE_CFG sets no regularizer key, so the default deltas shift the defaults
    out = tmp_path / "s"
    assert run("sensitivity", "--config", write_cfg(tmp_path), "--out", out) == 0
    payload = json.loads((out / "sensitivity_report.json").read_text())
    assert {e["param"] for e in payload["entries"]} == {"sigma_train", "beta", "l_n"}


def test_missing_out_flag_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["train", "--checkpoint", "x"],
    ["grid", "--checkpoint", "x"],
    ["sensitivity", "--checkpoint", "x"],
    ["ratio-study", "--checkpoint", "x"],
    ["sweep", "--checkpoint", "x", "--synthetic"],
])
def test_flag_the_command_does_not_read_is_argparse_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_config_file_not_found(tmp_path, capsys):
    assert run("train", "--config", tmp_path / "absent.json",
               "--out", tmp_path / "x") == 2
    assert "not found" in capsys.readouterr().err


def test_config_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run("train", "--config", bad, "--out", tmp_path / "x") == 2
    assert "JSON" in capsys.readouterr().err
