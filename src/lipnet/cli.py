"""Command-line entry point.

Subcommands: train | sweep | grid | sensitivity | guarantee | ratio-study.
Configuration is a flat JSON document; unknown keys are a hard error so
typos cannot silently fall back to defaults. Every command writes its fully
resolved config next to its outputs and never writes outside --out.

Exit codes: 0 success, 1 run failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from dataclasses import replace

import numpy as np

from .data import (LabeledDataset, load_idx, synthetic_blobs, synthetic_digits)
from .ioutil import atomic_write_text
from .layers import _registered, build_registered, load_checkpoint, save_checkpoint
from .regularizer import (COUNTEREXAMPLE_SCALE, LipschitzParams, RampClassifier,
                          audit_empirical_k, counterexample_outside_radius, guarantee,
                          one_hot_labels, verify_theorem1_synthetic)
from .reports import (EvalReport, write_eval_report, write_json,
                      write_ratio_table, write_sensitivity_report,
                      write_train_record)
from .seeding import derive_int, derive_rng
from .training import (HyperParams, _check_deltas, _check_ratios, _check_sigmas,
                       _sensitivity_runs, ratio_study, sensitivity, sweep, train)
from .version import VERSION

DATA_DIR_ENV = "LIPNET_DATA_DIR"

IDX_STANDARD_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

CONFIG_DEFAULTS = {
    # data
    "dataset": "idx",            # idx | synthetic_digits | synthetic_blobs
    "data_dir": None,            # fallback: $LIPNET_DATA_DIR
    "train_images": None,
    "train_labels": None,
    "test_images": None,
    "test_labels": None,
    "train_limit": None,         # keep only the first N training samples
    "synthetic_train_n": 6000,
    "synthetic_test_n": 1000,
    "synthetic_seed": 1234,
    # model
    "model": "mnist_cnn",
    "arch_seed": None,           # defaults to seed
    # optimizer / schedule
    "lr": 0.05,
    "epochs": 5,
    "batch_size": 100,
    "lr_drops": [],
    "train_ratio": 1.0,
    "seed": 0,
    "momentum": 0.0,
    # regularizer
    "sigma_train": 0.75,         # unused while beta is 0
    "beta": 0.0,
    "l_n": 0.01,
    # evaluation
    "sweep_sigmas": [0.0, 0.5, 1.0],
    "corruption_seed": 9000,
    # grid
    "grid_sigma_train": [0.5, 0.75],
    "grid_beta": [10.0],
    "grid_l_n": [0.005, 0.01],
    "grid_include_standard": True,
    "workers": 1,
    # ratio study
    "ratios": [0.1, 0.3, 1.0],
    # sensitivity
    "sensitivity_deltas": {"sigma_train": 0.25, "beta": 1.0, "l_n": 0.005},
    "sigma_eval": 0.5,
    # guarantee
    "n_classes": 10,
    "synthetic_trials": 10000,
    "synthetic_seeds": 5,
    "synthetic_l": 1.0,
    "synthetic_dim": 2,
    "audit_sigma": 0.5,
    "audit_n": 1000,
}

REFERENCE_SENSITIVITIES_CIFAR10 = {
    "sigma_train": 87.20, "beta": 2.55, "l_n": -28.89,
    "note": "externally reported CIFAR-10 sensitivities, annotation only, not asserted",
}


class ConfigError(ValueError):
    pass


# None defaults that hold an int when set; every other None default is a path.
_OPTIONAL_INTS = ("train_limit", "arch_seed")
# Sizes, counts and the audit noise level; each must be > 0 (train_limit when set).
_POSITIVE = ("train_limit", "synthetic_train_n", "synthetic_test_n", "synthetic_trials",
             "synthetic_seeds", "workers", "audit_n", "audit_sigma")


def _as(kind: type, value):
    """value as kind: a float is any finite JSON number, anything else must be
    exactly kind, so "many", 2.9, true or "false" is a usage error."""
    # the bound is False for NaN, ±Infinity and an int too large for a float
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is float or type(value) is not kind:
        wanted = "a finite number" if kind is float else kind.__name__
        raise ValueError(f"expected {wanted}, got {value!r}")
    return value


def _typed(key: str, value):
    """value as the type of key's default, elements included: every list but
    lr_drops holds floats, lr_drops [int, float] pairs, the deltas floats."""
    default = CONFIG_DEFAULTS[key]
    if value is None and default is None:
        return None
    value = _as(int if key in _OPTIONAL_INTS else str if default is None else type(default),
                value)
    if key == "lr_drops":
        return [[_as(int, e), _as(float, f)] for e, f in (_as(list, d) for d in value)]
    if type(value) is list:
        return [_as(float, v) for v in value]
    if type(value) is dict:
        return {name: _as(float, v) for name, v in value.items()}
    if key in _POSITIVE and not value > 0:
        raise ValueError(f"must be > 0, got {value}")
    return value


def load_config(path, seed_override=None) -> dict:
    cfg = dict(CONFIG_DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                user = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {path}: {e}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = sorted(set(user) - set(CONFIG_DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        cfg.update(user)
        cfg["_explicit_keys"] = sorted(user)
    else:
        cfg["_explicit_keys"] = []
    if seed_override is not None:
        cfg["seed"] = seed_override
    for key in CONFIG_DEFAULTS:
        cfg[key] = _checked(key, _typed, key, cfg[key])
    # Every key's library rule runs here, for every command, so a mistake in
    # any key exits 2 before anything loads, trains or is written.
    if cfg["dataset"] not in ("idx", "synthetic_digits", "synthetic_blobs"):
        raise ConfigError(f"unknown dataset kind: {cfg['dataset']!r} (config key 'dataset')")
    _checked("model", _registered, cfg["model"])
    _checked("seed/arch_seed", np.random.SeedSequence, _arch_seed(cfg))
    _checked("lr/epochs/batch_size/lr_drops/train_ratio/momentum/sigma_train/beta/l_n",
             _hp_from_cfg, cfg)
    _checked("grid_sigma_train/grid_beta/grid_l_n", _grid_cells, cfg)
    _checked("sweep_sigmas", _check_sigmas, cfg["sweep_sigmas"])
    _checked("sigma_eval", _check_sigmas, [cfg["sigma_eval"]])
    _checked("ratios", _check_ratios, cfg["ratios"])
    _checked("sensitivity_deltas", _check_deltas, cfg["sensitivity_deltas"])
    _checked("n_classes/synthetic_l/synthetic_dim", lambda: RampClassifier(
        cfg["synthetic_l"], one_hot_labels(cfg["n_classes"]), cfg["synthetic_dim"]))
    return cfg


def _checked(key: str, rule, *args):
    """rule(*args), whose ValueError is a mistake in config key `key` (exit 2)."""
    try:
        return rule(*args)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{e} (config key {key!r})") from None


def _hp_from_cfg(cfg) -> HyperParams:
    return HyperParams(lip=LipschitzParams(cfg["sigma_train"], cfg["beta"], cfg["l_n"]),
                       lr=cfg["lr"], epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                       lr_drops=cfg["lr_drops"], train_ratio=cfg["train_ratio"],
                       seed=cfg["seed"], momentum=cfg["momentum"])


def _resolve_idx_path(cfg, key):
    if cfg[key]:
        p = Path(cfg[key])
        if not p.exists():
            raise ConfigError(f"dataset path for {key} does not exist: {p}")
        return p
    data_dir = cfg["data_dir"] or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise ConfigError(f"no {key} path: set it in the config, or set data_dir, "
                          f"or export {DATA_DIR_ENV}")
    base = Path(data_dir) / IDX_STANDARD_NAMES[key]
    for candidate in (base, base.with_name(base.name + ".gz")):
        if candidate.exists():
            return candidate
    raise ConfigError(f"no {key} file under {data_dir} "
                      f"(looked for {base.name}[.gz])")


def _load_split(cfg, split: str) -> LabeledDataset:
    """The "train" or "test" split per the config. Raises ConfigError before
    anything has been written, so failed runs leave no partial outputs. The
    two splits are seeded independently, so either loads alone."""
    kind = cfg["dataset"]
    if kind == "idx":
        ds = load_idx(_resolve_idx_path(cfg, f"{split}_images"),
                      _resolve_idx_path(cfg, f"{split}_labels"))
    else:
        maker = synthetic_digits if kind == "synthetic_digits" else synthetic_blobs
        ds = maker(cfg[f"synthetic_{split}_n"], derive_int(cfg["synthetic_seed"], split))
    n = cfg["train_limit"]
    if split == "train" and n is not None and n < ds.n:
        ds = LabeledDataset(ds.images[:n], ds.labels[:n], ds.provenance)
    return ds


def load_datasets(cfg):
    """(train, test) per the config, for commands that use both."""
    return _load_split(cfg, "train"), _load_split(cfg, "test")


def _arch_seed(cfg) -> int:
    return cfg["seed"] if cfg["arch_seed"] is None else cfg["arch_seed"]


def _method(beta: float) -> str:
    return "standard" if beta == 0 else "proposed"


def _write_resolved_config(cfg, out: Path, command: str, extra: dict | None = None) -> None:
    doc = {k: v for k, v in cfg.items() if not k.startswith("_")}
    doc["command"] = command
    doc["method"] = _method(cfg["beta"])
    doc["code_version"] = VERSION
    doc["sigma_units"] = "pixel units on [0,1]-scaled inputs"
    if extra:
        doc.update(extra)
    write_json(out / "resolved_config.json", doc)


def cmd_train(cfg, out: Path) -> int:
    hp = _hp_from_cfg(cfg)
    train_ds = _load_split(cfg, "train")
    model = build_registered(cfg["model"], _arch_seed(cfg))
    model, record = train(model, train_ds, hp)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "model.ckpt")
    write_train_record(record, out)
    _write_resolved_config(cfg, out, "train")
    return 0


def cmd_sweep(cfg, out: Path, checkpoint=None) -> int:
    if checkpoint is None:
        raise ConfigError("sweep needs --checkpoint")
    test_ds = _load_split(cfg, "test")
    model = load_checkpoint(build_registered(cfg["model"], _arch_seed(cfg)), checkpoint)
    report = sweep(model, test_ds, cfg["sweep_sigmas"], cfg["corruption_seed"],
                   hyperparams=_hp_from_cfg(cfg).as_dict())
    out.mkdir(parents=True, exist_ok=True)
    write_eval_report(report, out)
    _write_resolved_config(cfg, out, "sweep")
    return 0


def _cell_name(lip: LipschitzParams) -> str:
    if lip.beta == 0:
        return "standard"
    txt = f"s{lip.sigma_train:g}_b{lip.beta:g}_l{lip.l_n:g}"
    return txt.replace(".", "p").replace("+", "").replace("-", "m")


def _grid_cells(cfg):
    cells = []
    if cfg["grid_include_standard"]:
        cells.append(LipschitzParams(0.0, 0.0, cfg["l_n"]))
    for s in cfg["grid_sigma_train"]:
        for b in cfg["grid_beta"]:
            for l in cfg["grid_l_n"]:
                cells.append(LipschitzParams(s, b, l))
    if not cells:
        raise ValueError("grid is empty: no standard baseline and no cells")
    names = [_cell_name(lip) for lip in cells]
    shared = sorted({n for n in names if names.count(n) > 1})
    if shared:
        raise ValueError(f"grid cells share a directory name: {shared}; axis values "
                         f"must differ in their %g form, and every beta-0 cell "
                         f"is named 'standard'")
    return cells


def _run_cell(cfg, cell_dir: Path, lip: LipschitzParams, train_ds, test_ds):
    hp = replace(_hp_from_cfg(cfg), lip=lip)
    model = build_registered(cfg["model"], _arch_seed(cfg))
    model, record = train(model, train_ds, hp)
    report = sweep(model, test_ds, cfg["sweep_sigmas"], cfg["corruption_seed"],
                   hyperparams=hp.as_dict())
    cell_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, cell_dir / "model.ckpt")
    write_train_record(record, cell_dir)
    write_eval_report(report, cell_dir)
    (cell_dir / "DONE").write_text("ok\n", encoding="utf-8")
    return report


# OpenBLAS exports its thread controls under a build-specific name. numpy's
# ILP64 build is tried first, so scipy's own OpenBLAS, if loaded, is not picked.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"))


def _openblas_threads():
    """(get, set) of the loaded OpenBLAS's process-wide thread count, or None
    when no OpenBLAS is loaded or /proc/self/maps cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f
                     if "openblas" in line.lower() and ".so" in line}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        for lib in libs:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _blas_threads_split(ways: int):
    """Share the BLAS threads among `ways` concurrent callers while the block
    runs, so they do not oversubscribe the cores, then restore the count.
    Does nothing for one way or without OpenBLAS."""
    blas = _openblas_threads() if ways > 1 else None
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(max(1, before // ways))
    try:
        yield
    finally:
        put(before)


def cmd_grid(cfg, out: Path) -> int:
    """Train + sweep every (sigma_train, beta, l_n) cell plus the standard
    baseline. Cells with a DONE marker are skipped, so an interrupted grid
    resumes; per-cell failures are recorded and the other cells continue."""
    cells = _grid_cells(cfg)
    sigmas = sorted(cfg["sweep_sigmas"])
    workers = cfg["workers"]
    train_ds, test_ds = load_datasets(cfg)
    out.mkdir(parents=True, exist_ok=True)

    def run_one(lip: LipschitzParams):
        cell_dir = out / _cell_name(lip)
        if (cell_dir / "DONE").exists():
            return "skipped"
        try:
            _run_cell(cfg, cell_dir, lip, train_ds, test_ds)
            return "ok"
        except Exception as e:  # recorded, grid continues
            cell_dir.mkdir(parents=True, exist_ok=True)
            (cell_dir / "error.txt").write_text(f"{type(e).__name__}: {e}\n",
                                                encoding="utf-8")
            return "failed"

    if workers == 1:
        outcomes = [run_one(lip) for lip in cells]
    else:
        # the thread count is process-wide, so it is lowered only while the pool runs
        with (_blas_threads_split(min(workers, len(cells))),
              ThreadPoolExecutor(max_workers=workers) as pool):
            outcomes = list(pool.map(run_one, cells))

    header = ["method", "sigma_train", "beta", "l_n"]
    header += [f"acc_sigma_{s:g}".replace(".", "p") for s in sigmas]
    lines = [",".join(header)]
    failed = []
    for lip, outcome in zip(cells, outcomes):
        cell_dir = out / _cell_name(lip)
        if outcome == "failed" or not (cell_dir / "DONE").exists():
            failed.append(_cell_name(lip))
            continue
        report = EvalReport.from_csv_text(
            (cell_dir / "eval_report.csv").read_text(encoding="utf-8"))
        acc = {row.sigma_test: row.accuracy for row in report.rows}
        cells_txt = [_method(lip.beta), repr(lip.sigma_train), repr(lip.beta), repr(lip.l_n)]
        cells_txt += [repr(acc[s]) for s in sigmas]
        lines.append(",".join(cells_txt))
    atomic_write_text(out / "grid_summary.csv", "\n".join(lines) + "\n")
    _write_resolved_config(cfg, out, "grid", {"failed_cells": failed})
    if failed:
        print(f"error: {len(failed)} grid cell(s) failed: {failed}", file=sys.stderr)
        return 1
    return 0


def cmd_sensitivity(cfg, out: Path) -> int:
    baseline = _hp_from_cfg(cfg)
    deltas = cfg["sensitivity_deltas"]
    # the shifted runs depend on the baseline, so they cannot be checked at load
    _checked("sensitivity_deltas", _sensitivity_runs, baseline, deltas)
    train_ds, test_ds = load_datasets(cfg)
    report = sensitivity(baseline, deltas, train_ds, test_ds, cfg["sigma_eval"],
                         lambda: build_registered(cfg["model"], _arch_seed(cfg)),
                         corruption_seed=cfg["corruption_seed"])
    report.metadata["reference_cifar10"] = dict(REFERENCE_SENSITIVITIES_CIFAR10)
    out.mkdir(parents=True, exist_ok=True)
    write_sensitivity_report(report, out)
    _write_resolved_config(cfg, out, "sensitivity")
    return 0


def cmd_guarantee(cfg, out: Path, checkpoint=None, synthetic=False) -> int:
    if "l_n" not in cfg["_explicit_keys"]:
        raise ConfigError("guarantee requires an explicit 'l_n' config key "
                          "(plus optional: n_classes, audit_sigma, audit_n, "
                          "synthetic_trials, synthetic_seeds, synthetic_l, synthetic_dim)")
    labels = one_hot_labels(cfg["n_classes"])
    payload = {"guarantee": guarantee(LipschitzParams(l_n=cfg["l_n"]), labels).as_dict()}

    if checkpoint is not None:
        test_ds = _load_split(cfg, "test")
        model = load_checkpoint(build_registered(cfg["model"], _arch_seed(cfg)), checkpoint)
        stats = audit_empirical_k(model, test_ds, cfg["audit_sigma"], cfg["audit_n"],
                                  derive_rng(cfg["seed"], "audit"), l_n=cfg["l_n"])
        payload["audit"] = dict(stats.as_dict(), sigma=cfg["audit_sigma"])

    if synthetic:
        oracle = RampClassifier(cfg["synthetic_l"], labels, cfg["synthetic_dim"])
        per_seed = [verify_theorem1_synthetic(oracle, cfg["synthetic_trials"],
                                              derive_rng(cfg["seed"], "thm1", i))
                    for i in range(cfg["synthetic_seeds"])]
        _, _, before, after = counterexample_outside_radius(oracle)
        payload["synthetic"] = {
            "lipschitz_l": oracle.l, "dim": oracle.dim,
            "trials_per_seed": cfg["synthetic_trials"],
            "violations_per_seed": per_seed,
            "counterexample": {"distortion_norm_over_radius": COUNTEREXAMPLE_SCALE,
                               "label_before": before, "label_after": after},
        }

    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "guarantee_report.json", payload)
    _write_resolved_config(cfg, out, "guarantee")
    return 0


def cmd_ratio_study(cfg, out: Path) -> int:
    hp = _hp_from_cfg(cfg)
    train_ds, test_ds = load_datasets(cfg)
    rows = ratio_study(train_ds, test_ds, cfg["ratios"], hp, cfg["sweep_sigmas"],
                       lambda: build_registered(cfg["model"], _arch_seed(cfg)),
                       corruption_seed=cfg["corruption_seed"])
    out.mkdir(parents=True, exist_ok=True)
    write_ratio_table(rows, out)
    _write_resolved_config(cfg, out, "ratio-study")
    return 0


COMMANDS = {
    "train": cmd_train,
    "sweep": cmd_sweep,
    "grid": cmd_grid,
    "sensitivity": cmd_sensitivity,
    "guarantee": cmd_guarantee,
    "ratio-study": cmd_ratio_study,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipnet",
        description="Train and audit Lipschitz-regularized classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="flat JSON config; defaults are used when omitted")
        p.add_argument("--out", type=Path, required=True,
                       help="output directory (all artifacts go here)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if name in ("sweep", "guarantee"):
            p.add_argument("--checkpoint", type=Path, default=None,
                           help="checkpoint to evaluate")
        if name == "guarantee":
            p.add_argument("--synthetic", action="store_true",
                           help="also run the exact synthetic oracle")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k in ("checkpoint", "synthetic")}
    try:
        cfg = load_config(args.config, seed_override=args.seed)
        return COMMANDS[args.command](cfg, args.out, **flags)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
