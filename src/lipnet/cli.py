"""Command-line entry point.

Subcommands: train | sweep | grid | sensitivity | guarantee | ratio-study.
Configuration is a flat JSON document; unknown keys are a hard error so
typos cannot silently fall back to defaults. Every command writes its fully
resolved config next to its outputs and never writes outside --out.

Exit codes: 0 success, 1 run failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import (LabeledDataset, load_idx, synthetic_blobs, synthetic_digits)
from .ioutil import atomic_write_text
from .layers import (_blas_threads_split, _registered, build_registered, forward,
                     load_checkpoint, save_checkpoint)
from .regularizer import (COUNTEREXAMPLE_SCALE, ORACLE_DIM, ORACLE_L, ORACLE_SEEDS,
                          ORACLE_TRIALS, LipschitzParams, RampClassifier, audit_empirical_k,
                          counterexample_outside_radius, guarantee, one_hot_labels,
                          verify_theorem1_synthetic)
from .reports import _csv_text, write_eval_report, write_json, write_train_record
from .seeding import derive_int, derive_rng
from .tensor import Tensor
from .training import HyperParams, _check_sigmas, sweep, train
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
_POSITIVE = ("train_limit", "synthetic_train_n", "synthetic_test_n", "workers", "audit_n",
             "audit_sigma")


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
    _checked("lr/epochs/batch_size/lr_drops/momentum/sigma_train/beta/l_n", _hp_from_cfg, cfg)
    _checked("grid_sigma_train/grid_beta/grid_l_n", _grid_cells, cfg)
    _checked("sweep_sigmas", _check_sigmas, cfg["sweep_sigmas"])
    _checked("sigma_eval", _check_sigmas, [cfg["sigma_eval"]])
    _checked("ratios", _check_ratios, cfg["ratios"])
    _checked("sensitivity_deltas", _check_deltas, cfg["sensitivity_deltas"])
    return cfg


def _checked(key: str, rule, *args):
    """rule(*args), whose ValueError is a mistake in config key `key` (exit 2)."""
    try:
        return rule(*args)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{e} (config key {key!r})") from None


def _hp_from_cfg(cfg) -> HyperParams:
    # train_ratio is no config key: only a ratio-study cell's config sets it
    return HyperParams(lip=LipschitzParams(cfg["sigma_train"], cfg["beta"], cfg["l_n"]),
                       lr=cfg["lr"], epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                       lr_drops=cfg["lr_drops"], train_ratio=cfg.get("train_ratio", 1.0),
                       seed=cfg["seed"], momentum=cfg["momentum"])


def _resolve_idx_path(cfg, key):
    if cfg[key]:
        p = Path(cfg[key])
        if not p.is_file():
            raise ConfigError(f"dataset path for {key} is not a file: {p}")
        return p
    data_dir = cfg["data_dir"] or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise ConfigError(f"no {key} path: set it in the config, or set data_dir, "
                          f"or export {DATA_DIR_ENV}")
    base = Path(data_dir) / IDX_STANDARD_NAMES[key]
    for candidate in (base, base.with_name(base.name + ".gz")):
        if candidate.is_file():
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


def _resolved_config(cfg, command: str) -> dict:
    """What resolved_config.json records: the config plus what ran it."""
    doc = {k: v for k, v in cfg.items() if not k.startswith("_")}
    doc["command"] = command
    doc["method"] = _method(cfg["beta"])
    doc["code_version"] = VERSION
    doc["sigma_units"] = "pixel units on [0,1]-scaled inputs"
    return doc


def _model(cfg):
    return build_registered(cfg["model"], _arch_seed(cfg))


def _train_to(out: Path, cfg, train_ds, hp: HyperParams):
    """A freshly trained model, whose model.ckpt and training record go under out."""
    model, record = train(_model(cfg), train_ds, hp)
    save_checkpoint(model, out / "model.ckpt")
    write_train_record(record, out)
    return model


def _sweep_to(out: Path, cfg, model, test_ds) -> None:
    write_eval_report(sweep(model, test_ds, cfg["sweep_sigmas"], cfg["corruption_seed"]), out)


def cmd_train(cfg, out: Path) -> int:
    _train_to(out, cfg, _load_split(cfg, "train"), _hp_from_cfg(cfg))
    return 0


def cmd_sweep(cfg, out: Path, checkpoint=None) -> int:
    if checkpoint is None:
        raise ConfigError("sweep needs --checkpoint")
    test_ds = _load_split(cfg, "test")
    _sweep_to(out, cfg, load_checkpoint(_model(cfg), checkpoint), test_ds)
    return 0


def _cell_name(lip: LipschitzParams) -> str:
    if lip.beta == 0:
        return "standard"
    txt = f"s{lip.sigma_train:g}_b{lip.beta:g}_l{lip.l_n:g}"
    return txt.replace(".", "p").replace("+", "").replace("-", "m")


def _grid_cells(cfg) -> dict:
    """{directory name: the cell's own config}: the grid's config without the
    grid axes and workers, plus the cell's sigma_train, beta and l_n."""
    lips = []
    if cfg["grid_include_standard"]:
        lips.append(LipschitzParams(0.0, 0.0, cfg["l_n"]))
    for s in cfg["grid_sigma_train"]:
        for b in cfg["grid_beta"]:
            for l in cfg["grid_l_n"]:
                lips.append(LipschitzParams(s, b, l))
    if not lips:
        raise ValueError("grid is empty: no standard baseline and no cells")
    names = [_cell_name(lip) for lip in lips]
    shared = sorted({n for n in names if names.count(n) > 1})
    if shared:
        raise ValueError(f"grid cells share a directory name: {shared}; axis values "
                         f"must differ in their %g form, and every beta-0 cell "
                         f"is named 'standard'")
    common = {k: v for k, v in cfg.items() if not k.startswith("grid_") and k != "workers"}
    return {name: dict(common, **vars(lip)) for name, lip in zip(names, lips)}


def _run_cell(cfg, cell_dir: Path, train_ds, test_ds, command: str) -> None:
    """Train and sweep one cell with its own config. Its resolved_config.json,
    written last, is the record that the cell finished with that recipe."""
    for name in ("resolved_config.json", "error.txt"):
        (cell_dir / name).unlink(missing_ok=True)
    _sweep_to(cell_dir, cfg, _train_to(cell_dir, cfg, train_ds, _hp_from_cfg(cfg)), test_ds)
    write_json(cell_dir / "resolved_config.json", _resolved_config(cfg, command))


def _run_cells(command: str, cfg, out: Path, cells: dict) -> dict:
    """Train + sweep each {name: cell config} under out/name; returns the
    sweep rows of every finished cell by name. A cell whose
    resolved_config.json matches its current config is done and skipped, so
    an interrupted run resumes and a changed recipe retrains; per-cell
    failures are recorded and printed, and the other cells continue."""
    workers = cfg["workers"]
    train_ds, test_ds = load_datasets(cfg)

    def done(name: str) -> bool:
        try:
            text = (out / name / "resolved_config.json").read_text(encoding="utf-8")
            return json.loads(text) == _resolved_config(cells[name], command)
        except (OSError, ValueError):  # missing or unreadable: not done
            return False

    def run_one(name: str) -> None:
        try:
            _run_cell(cells[name], out / name, train_ds, test_ds, command)
        except Exception as e:  # recorded, the other cells continue
            atomic_write_text(out / name / "error.txt", f"{type(e).__name__}: {e}\n")

    todo = [name for name in cells if not done(name)]
    ways = min(workers, len(todo))
    if ways < 2:  # on the calling thread, where a cell's tape-free passes may take a helper
        for name in todo:
            run_one(name)
    else:
        # the count is process-wide: it is lowered only while the pool runs, by the cells it runs
        with _blas_threads_split(ways), ThreadPoolExecutor(max_workers=ways) as pool:
            list(pool.map(run_one, todo))

    rows, failed = {}, []
    for name in cells:
        if not done(name):
            failed.append(name)
            continue
        report = json.loads((out / name / "eval_report.json").read_text(encoding="utf-8"))
        rows[name] = report["rows"]
    if failed:
        print(f"error: {len(failed)} {command} cell(s) failed: {failed}", file=sys.stderr)
    return rows


def cmd_grid(cfg, out: Path) -> int:
    """Train + sweep every (sigma_train, beta, l_n) cell plus the standard
    baseline, and summarize the finished cells in grid_summary.csv."""
    cells = _grid_cells(cfg)
    rows = _run_cells("grid", cfg, out, cells)
    header = ["method", "sigma_train", "beta", "l_n"]
    header += [f"acc_sigma_{s:g}".replace(".", "p") for s in sorted(cfg["sweep_sigmas"])]
    summary = [[_method(cell["beta"]), cell["sigma_train"], cell["beta"], cell["l_n"],
                *(row["accuracy"] for row in rows[name])]
               for name, cell in cells.items() if name in rows]
    atomic_write_text(out / "grid_summary.csv", _csv_text(header, summary))
    return 0 if len(rows) == len(cells) else 1


SENSITIVITY_PARAMS = ("sigma_train", "beta", "l_n", "control")


def _check_deltas(deltas: dict) -> None:
    """sensitivity's rule for its deltas alone, already floats (_typed): a nonempty map
    from known parameter names to finite nonzero steps."""
    if not deltas:
        raise ValueError("sensitivity: deltas must be nonempty")
    unknown = set(deltas) - set(SENSITIVITY_PARAMS)
    if unknown:
        raise ValueError(f"sensitivity: unknown parameters {sorted(unknown)}, "
                         f"allowed: {list(SENSITIVITY_PARAMS)}")
    for name, delta in sorted(deltas.items()):
        if not (np.isfinite(delta) and delta != 0.0):
            raise ValueError(f"sensitivity: delta {name}={delta} must be finite and nonzero")


def _sensitivity_runs(baseline: LipschitzParams, deltas: dict) -> list:
    """(name, delta, shifted regularizer) per delta in name order, or a
    ValueError before anything trains."""
    _check_deltas(deltas)
    runs = []
    for name, delta in sorted(deltas.items()):
        lip = baseline if name == "control" else replace(
            baseline, **{name: getattr(baseline, name) + delta})
        runs.append((name, delta, lip))
    return runs


def cmd_sensitivity(cfg, out: Path) -> int:
    """Finite-difference sensitivity of the accuracy at sigma_eval, in
    percentage points, to each regularizer parameter: a baseline cell and one
    cell per shifted recipe, all with the baseline's initial model and data
    order, so the "control" cell, which shifts nothing, reads exactly 0."""
    baseline = _hp_from_cfg(cfg)
    # the shifted runs depend on the baseline, so they cannot be checked at load
    runs = _checked("sensitivity_deltas", _sensitivity_runs, baseline.lip,
                    cfg["sensitivity_deltas"])
    common = {k: v for k, v in cfg.items()
              if k not in ("workers", "sensitivity_deltas", "sigma_eval")}
    common["sweep_sigmas"] = [cfg["sigma_eval"]]
    cells = {"baseline": common, **{name: dict(common, **vars(lip)) for name, _, lip in runs}}
    rows = _run_cells("sensitivity", cfg, out, cells)
    if len(rows) < len(cells):
        return 1
    acc = {name: cell_rows[0]["accuracy"] * 100.0 for name, cell_rows in rows.items()}
    before = acc["baseline"]
    entries = [{"param": name, "delta": delta, "acc_before": before, "acc_after": acc[name],
                "sensitivity": (acc[name] - before) / delta} for name, delta, _ in runs]
    metadata = {"sigma_eval": cfg["sigma_eval"], "units": "percentage points",
                "corruption_seed": cfg["corruption_seed"], "code_version": VERSION,
                "reference_cifar10": dict(REFERENCE_SENSITIVITIES_CIFAR10)}
    write_json(out / "sensitivity_report.json",
               {"baseline": baseline.as_dict(), "entries": entries, "metadata": metadata})
    return 0


def cmd_guarantee(cfg, out: Path, checkpoint=None, synthetic=False) -> int:
    if "l_n" not in cfg["_explicit_keys"]:
        raise ConfigError("guarantee requires an explicit 'l_n' config key")
    model = _model(cfg)  # --checkpoint loads into it; the labels span its output width
    labels = one_hot_labels(forward(model, Tensor(np.zeros((1, *model.input_shape)))).shape[1])
    payload = {"guarantee": guarantee(LipschitzParams(l_n=cfg["l_n"]), labels).as_dict()}

    if checkpoint is not None:
        test_ds = _load_split(cfg, "test")
        load_checkpoint(model, checkpoint)
        stats = audit_empirical_k(model, test_ds, cfg["audit_sigma"], cfg["audit_n"],
                                  derive_rng(cfg["seed"], "audit"), l_n=cfg["l_n"])
        payload["audit"] = dict(stats.as_dict(), sigma=cfg["audit_sigma"])

    if synthetic:
        oracle = RampClassifier(ORACLE_L, labels, ORACLE_DIM)
        per_seed = [verify_theorem1_synthetic(oracle, ORACLE_TRIALS,
                                              derive_rng(cfg["seed"], "thm1", i))
                    for i in range(ORACLE_SEEDS)]
        _, _, before, after = counterexample_outside_radius(oracle)
        payload["synthetic"] = {
            "lipschitz_l": oracle.l, "dim": oracle.dim,
            "trials_per_seed": ORACLE_TRIALS,
            "violations_per_seed": per_seed,
            "counterexample": {"distortion_norm_over_radius": COUNTEREXAMPLE_SCALE,
                               "label_before": before, "label_after": after},
        }

    write_json(out / "guarantee_report.json", payload)
    return 0


def _check_ratios(ratios) -> list[float]:
    """ratio-study's rule for training fractions."""
    ratios = [float(r) for r in ratios]
    if not ratios or any(not 0.0 < r <= 1.0 for r in ratios):
        raise ValueError(f"ratio-study: ratios must be a nonempty list in (0, 1], got {ratios}")
    return ratios


def cmd_ratio_study(cfg, out: Path) -> int:
    """One cell per entry of ratios, each training on that fraction of the
    training split with its own derived seed, from the command's initial model."""
    common = {k: v for k, v in cfg.items() if k not in ("workers", "ratios")}
    common["arch_seed"] = _arch_seed(cfg)
    cells = {f"ratio_{i}": dict(common, seed=derive_int(cfg["seed"], "ratio", i), train_ratio=r)
             for i, r in enumerate(cfg["ratios"])}
    rows = _run_cells("ratio-study", cfg, out, cells)
    table = [(cell["train_ratio"], row["sigma_test"], row["accuracy"])
             for name, cell in cells.items() for row in rows.get(name, ())]
    atomic_write_text(out / "ratio_study.csv",
                      _csv_text(["ratio", "sigma_test", "accuracy"], table))
    return 0 if len(rows) == len(cells) else 1


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
        if flags.get("checkpoint") is not None and not flags["checkpoint"].is_file():
            raise ConfigError(f"checkpoint file not found: {flags['checkpoint']}")
        cfg = load_config(args.config, seed_override=args.seed)
        code = COMMANDS[args.command](cfg, args.out, **flags)
        # written last, so a command that raises leaves nothing under --out
        write_json(args.out / "resolved_config.json", _resolved_config(cfg, args.command))
        return code
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
