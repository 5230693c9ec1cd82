"""Result containers and their file formats.

All CSV output is comma-separated with a header row, '.' decimals, UTF-8 and
LF line endings. Floats are written with repr() so files round-trip to the
exact in-memory values and identical runs produce byte-identical files.
Wall-clock timings never go into CSVs for the same reason.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ioutil import atomic_write_text

EVAL_CSV_COLUMNS = ("sigma_test", "accuracy", "mean_confidence_correct", "mean_k", "n")
TRAIN_CSV_COLUMNS = ("step", "loss_usual", "loss_lipschitz", "mean_k", "loss_total")
EPOCH_CSV_COLUMNS = ("epoch", "train_acc")


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (bool, np.bool_)):
                raise TypeError("booleans have no CSV encoding here")
            if isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            elif isinstance(v, (float, np.floating)):
                cells.append(_fmt_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _json_safe(obj):
    """NaN/inf become null so emitted JSON stays strictly parseable."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    return obj


def write_json(path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class EvalRow:
    sigma_test: float
    accuracy: float
    mean_confidence_correct: float
    mean_k: float
    n: int


@dataclass
class EvalReport:
    """One evaluate() result per tested noise level, rows sorted by sigma."""
    rows: list
    metadata: dict = field(default_factory=dict)

    def to_csv_text(self) -> str:
        return _csv_text(EVAL_CSV_COLUMNS, [
            (r.sigma_test, r.accuracy, r.mean_confidence_correct, r.mean_k, r.n)
            for r in self.rows])

    def as_dict(self) -> dict:
        return {"rows": [vars(r) for r in self.rows], "metadata": self.metadata}


def write_eval_report(report: EvalReport, out_dir) -> None:
    """eval_report.csv (one row per sigma) + eval_report.json (rows and
    metadata)."""
    out_dir = Path(out_dir)
    atomic_write_text(out_dir / "eval_report.csv", report.to_csv_text())
    write_json(out_dir / "eval_report.json", report.as_dict())


@dataclass(frozen=True)
class StepRecord:
    step: int
    loss_usual: float
    loss_lipschitz: float
    mean_k: float
    loss_total: float


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_acc: float
    wall_time: float


@dataclass
class TrainRecord:
    steps: list
    epochs: list
    meta: dict = field(default_factory=dict)


def write_train_record(record: TrainRecord, out_dir) -> None:
    """train_record.csv (per step), train_epochs.csv (per epoch, no wall
    time) and timings.json (where the nondeterministic numbers live)."""
    out_dir = Path(out_dir)
    atomic_write_text(out_dir / "train_record.csv", _csv_text(TRAIN_CSV_COLUMNS, [
        (s.step, s.loss_usual, s.loss_lipschitz, s.mean_k, s.loss_total)
        for s in record.steps]))
    atomic_write_text(out_dir / "train_epochs.csv", _csv_text(
        EPOCH_CSV_COLUMNS, [(e.epoch, e.train_acc) for e in record.epochs]))
    write_json(out_dir / "timings.json", {
        "epoch_wall_time": [e.wall_time for e in record.epochs],
        "total_wall_time": sum(e.wall_time for e in record.epochs),
        "meta": record.meta})
