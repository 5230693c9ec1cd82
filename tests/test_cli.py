"""End-to-end CLI behavior: artifacts, determinism, exit codes, resume."""

import contextlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lipnet import (EvalReport, build_blobs_mlp, build_mnist_model, save_checkpoint,
                    save_idx)
from lipnet import cli, layers
from lipnet.cli import IDX_STANDARD_NAMES, main

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


def test_train_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("train", "--config", cfg, "--out", a) == 0
    assert run("train", "--config", cfg, "--out", b) == 0
    for name in ("model.ckpt", "train_record.csv", "train_epochs.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


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
    report = EvalReport.from_csv_text((swept / "eval_report.csv").read_text())
    assert [r.sigma_test for r in report.rows] == [0.0, 0.5]
    assert all(0.0 <= r.accuracy <= 1.0 for r in report.rows)
    assert {p.name for p in swept.iterdir()} == {
        "eval_report.csv", "eval_report.json", "resolved_config.json"}


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
    report = EvalReport.from_csv_text((tmp_path / "swept" / "eval_report.csv").read_text())
    assert [r.n for r in report.rows] == [20, 20]


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


def test_grid_trains_all_cells_and_summarizes(tmp_path):
    cfg = write_cfg(tmp_path, grid_sigma_train=[0.5], grid_beta=[10.0],
                    grid_l_n=[0.005])
    out = tmp_path / "grid"
    assert run("grid", "--config", cfg, "--out", out) == 0
    assert (out / "standard" / "DONE").exists()
    assert (out / "s0p5_b10_l0p005" / "DONE").exists()
    lines = (out / "grid_summary.csv").read_text().strip().split("\n")
    assert lines[0] == "method,sigma_train,beta,l_n,acc_sigma_0,acc_sigma_0p5"
    assert len(lines) == 3
    assert lines[1].startswith("standard,") and lines[2].startswith("proposed,")
    assert json.loads((out / "resolved_config.json").read_text())["failed_cells"] == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_records_cell_failure_and_continues(tmp_path, capsys):
    # beta=1e300 overflows within a step; the other cells must still finish
    cfg = write_cfg(tmp_path, grid_sigma_train=[0.5], grid_beta=[10.0, 1e300],
                    grid_l_n=[1e-9])
    out = tmp_path / "grid"
    assert run("grid", "--config", cfg, "--out", out) == 1
    bad = out / "s0p5_b1e300_l1em09"
    assert "TrainingDivergedError" in (bad / "error.txt").read_text()
    assert not (bad / "DONE").exists()
    assert (out / "standard" / "DONE").exists()
    assert (out / "s0p5_b10_l1em09" / "DONE").exists()
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["failed_cells"] == ["s0p5_b1e300_l1em09"]
    assert "failed" in capsys.readouterr().err


def test_grid_resume_skips_done_cells(tmp_path):
    cfg = write_cfg(tmp_path, grid_sigma_train=[0.5], grid_beta=[10.0],
                    grid_l_n=[0.005])
    out = tmp_path / "grid"
    assert run("grid", "--config", cfg, "--out", out) == 0
    stamp = (out / "standard" / "model.ckpt").stat().st_mtime_ns
    assert run("grid", "--config", cfg, "--out", out) == 0
    assert (out / "standard" / "model.ckpt").stat().st_mtime_ns == stamp


GRID_AXES = dict(grid_sigma_train=[0.5], grid_beta=[10.0], grid_l_n=[0.005, 0.01])


def test_grid_parallel_workers_match_serial(tmp_path):
    cfg1 = write_cfg(tmp_path, "serial.json", **GRID_AXES)
    cfg2 = write_cfg(tmp_path, "par.json", workers=2, **GRID_AXES)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("grid", "--config", cfg1, "--out", a) == 0
    assert run("grid", "--config", cfg2, "--out", b) == 0
    assert (a / "grid_summary.csv").read_bytes() == (b / "grid_summary.csv").read_bytes()
    # the pool runs at a lower BLAS thread count, which must not move a byte
    cell_files = sorted(p.relative_to(a) for p in a.glob("*/*") if p.name != "timings.json")
    assert {f.name for f in cell_files} >= {"model.ckpt", "train_record.csv", "train_epochs.csv",
                                            "eval_report.csv", "eval_report.json"}
    assert cell_files == sorted(p.relative_to(b) for p in b.glob("*/*")
                                if p.name != "timings.json")
    for f in cell_files:
        assert (a / f).read_bytes() == (b / f).read_bytes(), f
    # each run counts its own perturbed passes, even while others run alongside
    for cell in ("standard", "s0p5_b10_l0p005", "s0p5_b10_l0p01"):
        serial, par = (json.loads((d / cell / "timings.json").read_text())["meta"]
                       for d in (a, b))
        assert par["perturbed_passes"] == serial["perturbed_passes"]
        want = 0 if cell == "standard" else serial["n_steps"]
        assert serial["perturbed_passes"] == want


@pytest.fixture()
def blas_count():
    """The loaded OpenBLAS's thread count getter, or None without OpenBLAS.
    The count is 2 during the test, so a split shows on any host and an
    earlier test cannot hide a count that was never restored."""
    blas = cli._openblas_threads()
    if blas is None:
        yield None
        return
    get, put = blas
    original = get()
    put(2)
    yield get
    put(original)


@pytest.mark.parametrize("workers,failing,openblas_found", [
    (1, None, True),
    (2, None, True),
    (2, "s0p5_b10_l0p005", True),  # a raising cell still restores the count
    (2, None, False),              # no OpenBLAS found: the count is left alone
])
def test_grid_splits_blas_threads_while_the_pool_runs(tmp_path, monkeypatch, blas_count,
                                                      workers, failing, openblas_found):
    count = blas_count or (lambda: None)
    if not openblas_found:
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    seen, real_run_cell = [], cli._run_cell

    def run_cell(cfg, cell_dir, *args):
        seen.append(count())
        if cell_dir.name == failing:
            raise RuntimeError("cell failed on purpose")
        return real_run_cell(cfg, cell_dir, *args)

    monkeypatch.setattr(cli, "_run_cell", run_cell)
    out = tmp_path / "grid"
    cfg = write_cfg(tmp_path, workers=workers, **GRID_AXES)
    assert run("grid", "--config", cfg, "--out", out) == (1 if failing else 0)
    if failing:
        assert "RuntimeError" in (out / failing / "error.txt").read_text()
    assert len(seen) == 3
    if blas_count is None:
        pytest.skip("no OpenBLAS loaded, so there is no thread count to check")
    assert seen == [1 if workers > 1 and openblas_found else 2] * 3
    assert blas_count() == 2


def test_blas_split_restores_on_any_exit_and_skips_one_way(blas_count):
    if blas_count is None:
        pytest.skip("no OpenBLAS loaded, so there is no thread count to check")
    with cli._blas_threads_split(1):
        assert blas_count() == 2
    with pytest.raises(KeyboardInterrupt), cli._blas_threads_split(2):
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
    # the deltas' names and sizes are checked at load, for every command
    ("train", {"sensitivity_deltas": {"foo": 1.0}}, "unknown"),
    ("train", {"sensitivity_deltas": {"beta": 0.0}}, "nonzero"),
    ("sensitivity", {"sigma_eval": -1}, "sigma_eval"),
    ("grid", {"sweep_sigmas": [0.0, -0.5]}, "sweep_sigmas"),
    ("sweep", {"sweep_sigmas": [0.0, -0.5]}, "sweep_sigmas"),
    ("ratio-study", {"sweep_sigmas": [0.0, -0.5]}, "sweep_sigmas"),
    ("ratio-study", {"ratios": [0]}, "ratios"),
    ("train", {"synthetic_train_n": "many"}, "synthetic_train_n"),
    ("train", {"train_limit": "x"}, "train_limit"),
    ("train", {"arch_seed": "x"}, "arch_seed"),
    ("grid", {"corruption_seed": "x"}, "corruption_seed"),
    ("grid", {"workers": "two"}, "workers"),
    ("sweep", {"synthetic_test_n": [100]}, "synthetic_test_n"),
    ("sensitivity", {"synthetic_seed": "x"}, "synthetic_seed"),
    ("guarantee", {"l_n": 0.01, "n_classes": "ten"}, "n_classes"),
    ("guarantee", {"l_n": 0.01, "audit_sigma": "x"}, "audit_sigma"),
    ("guarantee", {"l_n": 0.01, "audit_n": "many"}, "audit_n"),
    ("guarantee", {"l_n": 0.01, "synthetic_l": "one"}, "synthetic_l"),
    ("guarantee", {"l_n": 0.01, "synthetic_dim": None}, "synthetic_dim"),
    ("guarantee", {"l_n": 0.01, "synthetic_seeds": "five"}, "synthetic_seeds"),
    ("guarantee", {"l_n": 0.01, "synthetic_trials": 1e999}, "synthetic_trials"),
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
    ("guarantee", {"l_n": 0.01, "synthetic_trials": -1}, "synthetic_trials"),
    ("guarantee", {"l_n": 0.01, "synthetic_seeds": 0}, "synthetic_seeds"),
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
    ("guarantee --checkpoint --synthetic", {"l_n": 0.01, "n_classes": 1}, "n_classes"),
    ("guarantee --checkpoint --synthetic", {"l_n": 0.01, "n_classes": -1}, "n_classes"),
    ("guarantee --checkpoint --synthetic", {"l_n": 0.01, "synthetic_l": 0.0}, "synthetic_l"),
    ("guarantee --checkpoint --synthetic", {"l_n": 0.01, "synthetic_l": NAN}, "synthetic_l"),
    ("guarantee --checkpoint --synthetic", {"l_n": 0.01, "synthetic_dim": 0}, "synthetic_dim"),
    ("guarantee --checkpoint --synthetic", {"l_n": 0.01, "synthetic_trials": -1},
     "synthetic_trials"),
    ("guarantee --checkpoint --synthetic", {"l_n": 0.01, "synthetic_seeds": 0},
     "synthetic_seeds"),
    # every float is finite, so Infinity fails its type, not a run
    ("train", {"lr": INF}, "lr"),
    ("train", {"sigma_train": 0.5, "beta": INF}, "beta"),
    ("guarantee --synthetic", {"l_n": 0.01, "synthetic_l": INF}, "synthetic_l"),
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
# ratio, one delta, and few synthetic trials and audit samples.
TINY_CFG = dict(BASE_CFG, synthetic_train_n=40, synthetic_test_n=20, l_n=0.01,
                grid_include_standard=False, grid_sigma_train=[0.5], grid_beta=[10.0],
                grid_l_n=[0.01], ratios=[1.0], sensitivity_deltas={"control": 1.0},
                synthetic_trials=50, synthetic_seeds=1, audit_n=10)
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
    with tempfile.TemporaryDirectory() as tmp, counted_loaders() as calls:
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


def test_guarantee_reports_radius(tmp_path):
    cfg = write_cfg(tmp_path, l_n=0.01)
    out = tmp_path / "g"
    assert run("guarantee", "--config", cfg, "--out", out) == 0
    payload = json.loads((out / "guarantee_report.json").read_text())
    g = payload["guarantee"]
    assert g["radius"] == pytest.approx(g["rho"] / 0.01)
    assert g["label_set_size"] == 10
    assert set(payload) == {"guarantee"}  # rho is stated once, inside guarantee


def test_guarantee_synthetic_oracle_clean(tmp_path):
    cfg = write_cfg(tmp_path, l_n=0.01, synthetic_trials=500, synthetic_seeds=2)
    out = tmp_path / "g"
    assert run("guarantee", "--config", cfg, "--out", out, "--synthetic") == 0
    synth = json.loads((out / "guarantee_report.json").read_text())["synthetic"]
    assert synth["violations_per_seed"] == [0, 0]
    assert "total_violations" not in synth
    ce = synth["counterexample"]
    assert ce["label_before"] != ce["label_after"]


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


def test_ratio_study_command(tmp_path):
    cfg = write_cfg(tmp_path, ratios=[0.5, 1.0], sweep_sigmas=[0.0])
    out = tmp_path / "r"
    assert run("ratio-study", "--config", cfg, "--out", out) == 0
    lines = (out / "ratio_study.csv").read_text().strip().split("\n")
    assert lines[0] == "ratio,sigma_test,accuracy"
    assert len(lines) == 3
    assert {p.name for p in out.iterdir()} == {"ratio_study.csv", "resolved_config.json"}


def test_sensitivity_command(tmp_path):
    cfg = write_cfg(tmp_path, sigma_train=0.5, beta=10.0, l_n=0.01,
                    sensitivity_deltas={"beta": 5.0, "control": 1.0})
    out = tmp_path / "s"
    assert run("sensitivity", "--config", cfg, "--out", out) == 0
    payload = json.loads((out / "sensitivity_report.json").read_text())
    by_name = {e["param"]: e for e in payload["entries"]}
    assert by_name["control"]["sensitivity"] == 0.0
    assert set(by_name) == {"beta", "control"}
    ref = payload["metadata"]["reference_cifar10"]
    assert (ref["sigma_train"], ref["beta"], ref["l_n"]) == (87.20, 2.55, -28.89)
    assert payload["baseline"]["lr"] == 0.1


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
