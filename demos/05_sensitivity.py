"""
Which hyperparameter actually matters?
======================================

Finite-difference sensitivity of noisy-test accuracy to each regularizer
knob, holding everything else (init, data order, corruption noise) fixed.
The control row retrains with nothing changed; determinism makes its
sensitivity exactly zero, which is the calibration that gives the other
rows meaning.

Runs ``lipnet sensitivity`` in a temporary output directory, one cell for
the baseline and one per shifted knob, and reads ``sensitivity_report.json``.
"""

import json
import tempfile
from pathlib import Path

from lipnet.cli import main

CONFIG = {"dataset": "synthetic_digits", "synthetic_train_n": 3000, "synthetic_test_n": 1000,
          "model": "mnist_cnn", "sigma_train": 0.75, "beta": 10.0, "l_n": 0.005,
          "lr": 0.05, "epochs": 3, "batch_size": 100, "seed": 0, "corruption_seed": 9000,
          "sigma_eval": 0.5,
          "sensitivity_deltas": {"sigma_train": 0.25, "beta": 1.0, "l_n": 0.005,
                                 "control": 1.0}}

with tempfile.TemporaryDirectory() as tmp:
    cfg, out = Path(tmp) / "sensitivity.json", Path(tmp) / "sensitivity"
    cfg.write_text(json.dumps(CONFIG), encoding="utf-8")
    if main(["sensitivity", "--config", str(cfg), "--out", str(out)]) != 0:
        raise SystemExit("sensitivity failed")
    report = json.loads((out / "sensitivity_report.json").read_text(encoding="utf-8"))

print("accuracy at sigma_test=0.5, in percentage points\n")
print(f"{'param':>12s} {'delta':>7s} {'before':>8s} {'after':>8s} {'sens':>9s}")
for e in report["entries"]:
    print(f"{e['param']:>12s} {e['delta']:7.3f} {e['acc_before']:8.2f} "
          f"{e['acc_after']:8.2f} {e['sensitivity']:9.2f}")
