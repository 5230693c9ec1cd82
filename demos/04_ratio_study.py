"""
Robustness as a function of training-set size
==============================================

Trains the same architecture on growing fractions of the synthetic digit
corpus, for both recipes, and tabulates accuracy under test noise. The gap
at small ratios is the interesting part: the regularizer acts as a prior
that pays off most when data is scarce.

Each recipe runs as ``lipnet ratio-study`` in a temporary output directory,
one cell per ratio, and the table is read from its ``ratio_study.csv``.
"""

import csv
import json
import tempfile
from pathlib import Path

from lipnet.cli import main

CONFIG = {"dataset": "synthetic_digits", "synthetic_train_n": 5000, "synthetic_test_n": 1000,
          "model": "mnist_cnn", "lr": 0.05, "epochs": 5, "batch_size": 100, "seed": 0,
          "ratios": [0.1, 0.3, 1.0], "sweep_sigmas": [0.0, 0.5], "corruption_seed": 9000}
RECIPES = {"standard": {},
           "proposed": {"sigma_train": 0.75, "beta": 10.0, "l_n": 0.005}}

tables = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, recipe in RECIPES.items():
        cfg, out = Path(tmp) / f"{name}.json", Path(tmp) / name
        cfg.write_text(json.dumps(dict(CONFIG, **recipe)), encoding="utf-8")
        if main(["ratio-study", "--config", str(cfg), "--out", str(out)]) != 0:
            raise SystemExit(f"ratio-study failed for the {name} recipe")
        with open(out / "ratio_study.csv", encoding="utf-8") as f:
            tables[name] = [[float(v) for v in row] for row in list(csv.reader(f))[1:]]

print(f"{'ratio':>6s} {'sigma':>6s}  {'standard':>9s}  {'proposed':>9s}")
for row_std, row_prop in zip(tables["standard"], tables["proposed"]):
    ratio, sigma, acc_std = row_std
    acc_prop = row_prop[2]
    print(f"{ratio:6.2f} {sigma:6.2f}  {acc_std:9.3f}  {acc_prop:9.3f}")
