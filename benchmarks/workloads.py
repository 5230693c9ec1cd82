"""The four workloads. Each generates its inputs from the workload seed, runs
the program through its public API, and checks the program's outputs.

Every call into lipnet goes through a module attribute (``training.train``,
not a name bound at import), so that a Tracer installed around a call sees
it. The output checks use functions bound at import, which stay untraced.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from lipnet import cli, data, layers, regularizer, reports, training
from lipnet.data import LabeledDataset, batches
from lipnet.layers import checkpoint_bytes, forward
from lipnet.regularizer import LipschitzParams
from lipnet.seeding import derive_int, derive_key, derive_rng
from lipnet.tensor import Graph, Tensor, backward, cross_entropy
from lipnet.training import SGD, HyperParams

STANDARD = LipschitzParams()
README_REGULARIZER = LipschitzParams(sigma_train=0.75, beta=10.0, l_n=0.005)
CORRUPTION_SEED = 9000
AUDIT_SIGMA = 0.5

# Accuracy floors: far below every seed tried, far above chance (0.1), so
# they catch broken training rather than an unlucky seed.
TRAIN_ACC_FLOOR = 0.7
NOISY_ACC_FLOOR = 0.3


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class Checks:
    """Counts attempted and failed operations and the reasons they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._first: dict = {}

    def op(self, label, fn, *args):
        """Run one operation; an exception or a failed expectation inside it
        marks it failed. Returns fn's result, or None if it raised."""
        self.attempted += 1
        before = len(self.errors)
        out = None
        try:
            out = fn(*args)
        except Exception:  # reported, and the run is marked incorrect
            self.errors.append(f"{label}: {traceback.format_exc()}")
        if len(self.errors) > before:
            self.failed += 1
        return out

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def same(self, key: str, value) -> None:
        """Every repeat must reproduce the first repeat's value exactly."""
        first = self._first.setdefault(key, value)
        self.expect(value == first, f"{key} differs from the first repeat")


def _digits(n: int, seed: int, tag: str) -> LabeledDataset:
    return data.synthetic_digits(n, derive_int(seed, "bench", tag))


def _sweep_and_audit(model, test, sigmas, audit_seed, checks, out: Path | None):
    """One sweep (reports written when out is given) and one audit over the
    whole test set. Returns the sweep report."""
    report = training.sweep(model, test, sigmas, CORRUPTION_SEED)
    stats = regularizer.audit_empirical_k(model, test, AUDIT_SIGMA, test.n,
                                          derive_rng(audit_seed, "audit"))
    if out is not None:
        reports.write_eval_report(report, out)
        reports.write_json(out / "audit.json", stats.as_dict())
    checks.same("sweep rows", [repr(tuple(vars(r).values())) for r in report.rows])
    checks.same("audit k", stats.values().tobytes())
    checks.expect(bool(np.isfinite(stats.values()).all()), "audit k not finite")
    noisy = report.rows[-1].accuracy
    checks.expect(report.rows[0].accuracy >= TRAIN_ACC_FLOOR,
                  f"clean accuracy {report.rows[0].accuracy} below floor")
    checks.expect(noisy >= NOISY_ACC_FLOOR, f"noisy accuracy {noisy} below floor")
    return report


class TrainWorkload:
    """Per task: one 2-epoch train() call on 5000 synthetic digits, batch
    100, with the README recipe (plain SGD, lr 0.05); the checkpoint and the
    training record written as ``lipnet train`` does; then a sweep and an
    audit of the trained model on 2000 test digits. Evaluating inside every
    task spreads those timings over the whole run, like the step timings."""

    train_n, test_n, epochs = 5000, 2000, 2
    sigmas = (0.0, 0.25, 0.5)

    def __init__(self, name: str, lip: LipschitzParams):
        self.name = name
        self.lip = lip

    def setup(self, seed: int, work: Path, checks: Checks) -> dict:
        ds = _digits(self.train_n, seed, "train")
        test = _digits(self.test_n, seed, "test")
        hp = HyperParams(lip=self.lip, lr=0.05, epochs=self.epochs, batch_size=100,
                         seed=derive_int(seed, "bench", "run"))
        arch = derive_int(seed, "bench", "arch")
        warm = LabeledDataset(ds.images[:500], ds.labels[:500], ds.provenance)
        training.train(layers.build_mnist_model(arch), warm, replace(hp, epochs=1))
        checks.same("training data", sha256(ds.images.tobytes()))
        return {"seed": seed, "ds": ds, "test": test, "hp": hp, "arch": arch}

    def task(self, st: dict, work: Path, checks: Checks) -> None:
        model, record = training.train(layers.build_mnist_model(st["arch"]), st["ds"], st["hp"])
        out = work / "train"
        out.mkdir(parents=True, exist_ok=True)
        layers.save_checkpoint(model, out / "model.ckpt")
        reports.write_train_record(record, out)
        checks.expect(all(math.isfinite(s.loss_total) for s in record.steps),
                      "non-finite training loss")
        checks.same("checkpoint sha256", sha256((out / "model.ckpt").read_bytes()))
        checks.same("train_record.csv", (out / "train_record.csv").read_bytes())
        n_steps = record.meta["n_steps"]
        expected = n_steps if self.lip.beta > 0 else 0
        checks.expect(record.meta["perturbed_passes"] == expected,
                      f"perturbed_passes {record.meta['perturbed_passes']} != {expected}")
        acc = record.epochs[-1].train_acc
        checks.expect(acc >= TRAIN_ACC_FLOOR, f"train accuracy {acc} below floor")
        report = _sweep_and_audit(model, st["test"], self.sigmas, st["seed"], checks, None)
        st["model"], st["final_train_acc"] = model, acc
        st["noisy_acc"] = report.rows[-1].accuracy

    def post(self, st: dict, work: Path, checks: Checks) -> dict:
        if self.lip.beta == 0:
            checks.expect(checkpoint_bytes(st["model"]) == checkpoint_bytes(
                self._plain_training(st)),
                "beta=0 training is not bitwise plain cross-entropy SGD")
        return {"final_train_acc": st["final_train_acc"], "noisy_acc": st["noisy_acc"]}

    def _plain_training(self, st: dict):
        """The same recipe with no regularizer code in the loop (criterion 8)."""
        hp = st["hp"]
        model = layers.build_mnist_model(st["arch"])
        opt = SGD(hp.momentum)
        for epoch in range(1, hp.epochs + 1):
            for xb, yb in batches(st["ds"], hp.batch_size, derive_key(hp.seed, "shuffle", epoch)):
                graph = Graph()
                loss = cross_entropy(forward(model, Tensor(xb), graph), yb, graph)
                model.zero_grad()
                backward(loss, graph)
                opt.step(model.params, hp.lr)
        return model


class EvalAuditWorkload:
    """A model trained in set-up (regularized, momentum 0.9, 2 epochs on 2000
    digits), then per task: a sweep over five sigma_test values on 2000
    held-out digits (500-row batches), its reports, and an audit of k over
    the same 2000 rows (200-row batches). No tape and no backward pass."""

    name = "eval_audit"
    train_n, test_n = 2000, 2000
    sigmas = (0.0, 0.125, 0.25, 0.375, 0.5)

    def setup(self, seed: int, work: Path, checks: Checks) -> dict:
        ds = _digits(self.train_n, seed, "train")
        test = _digits(self.test_n, seed, "heldout")
        hp = HyperParams(lip=README_REGULARIZER, lr=0.05, momentum=0.9, epochs=2,
                         batch_size=100, seed=derive_int(seed, "bench", "run"))
        model, record = training.train(
            layers.build_mnist_model(derive_int(seed, "bench", "arch")), ds, hp)
        acc = record.epochs[-1].train_acc
        checks.expect(acc >= TRAIN_ACC_FLOOR, f"set-up train accuracy {acc} below floor")
        checks.same("set-up checkpoint sha256", sha256(checkpoint_bytes(model)))
        return {"seed": seed, "model": model, "test": test, "final_train_acc": acc}

    def task(self, st: dict, work: Path, checks: Checks) -> None:
        st["report"] = _sweep_and_audit(st["model"], st["test"], self.sigmas,
                                        st["seed"], checks, work / "eval")

    def post(self, st: dict, work: Path, checks: Checks) -> dict:
        return {"final_train_acc": st["final_train_acc"],
                "noisy_acc": st["report"].rows[-1].accuracy}


class GridWorkload:
    """``lipnet grid`` through ``lipnet.cli.main``: the default five cells
    (standard plus sigma {0.5, 0.75} x l_n {0.005, 0.01} at beta 10) on
    1500 training and 500 test digits generated by the command, 2 epochs
    with momentum 0.9, workers=2; then an audit of each cell's checkpoint on
    the 500 test digits. Set-up runs a tiny warm-up grid and generates the
    test digits for the audit."""

    name = "grid_parallel"
    sigmas = (0.0, 0.25, 0.5)

    def _config(self, seed: int, train_n: int, test_n: int, epochs: int) -> dict:
        return {"dataset": "synthetic_digits", "model": "mnist_cnn",
                "synthetic_train_n": train_n, "synthetic_test_n": test_n,
                "synthetic_seed": derive_int(seed, "bench", "grid-data"),
                "seed": derive_int(seed, "bench", "grid"), "epochs": epochs,
                "batch_size": 100, "lr": 0.05, "momentum": 0.9,
                "sweep_sigmas": list(self.sigmas),
                "corruption_seed": CORRUPTION_SEED, "workers": 2}

    def _grid(self, cfg_path: Path, out: Path, checks: Checks) -> None:
        shutil.rmtree(out, ignore_errors=True)
        rc = cli.main(["grid", "--config", str(cfg_path), "--out", str(out)])
        checks.expect(rc == 0, f"lipnet grid exited {rc}")

    def setup(self, seed: int, work: Path, checks: Checks) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        warm_path = work / "warm.json"
        warm_path.write_text(json.dumps(self._config(seed, 200, 100, 1)), encoding="utf-8")
        self._grid(warm_path, work / "warm", checks)
        cfg = self._config(seed, 1500, 500, 2)
        cfg_path = work / "grid.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        _, test = cli.load_datasets(cli.load_config(cfg_path))
        return {"seed": seed, "cfg_path": cfg_path, "arch": cfg["seed"], "test": test,
                "mismatch": []}

    def task(self, st: dict, work: Path, checks: Checks) -> None:
        out = work / "grid"
        self._grid(st["cfg_path"], out, checks)
        summary = (out / "grid_summary.csv").read_text(encoding="utf-8")
        cells = sorted(p for p in out.iterdir() if p.is_dir())
        checks.expect(len(cells) == 5, f"{len(cells)} grid cells, expected 5")
        digest = [sha256(summary.encode())]
        accs, mismatch = [], 0
        for cell in cells:
            for name in ("model.ckpt", "train_record.csv", "eval_report.csv"):
                digest.append(sha256((cell / name).read_bytes()))
            epochs = (cell / "train_epochs.csv").read_text(encoding="utf-8").split()
            accs.append(float(epochs[-1].split(",")[1]))
            meta = json.loads((cell / "timings.json").read_text(encoding="utf-8"))["meta"]
            expected = 0 if cell.name == "standard" else meta["n_steps"]
            mismatch += meta["perturbed_passes"] != expected
        checks.same("grid outputs sha256", digest)
        rows = [line.split(",") for line in summary.split()[1:]]
        st["final_train_acc"] = sum(accs) / len(accs)
        st["noisy_acc"] = sum(float(r[-1]) for r in rows) / len(rows)
        checks.expect(st["final_train_acc"] >= TRAIN_ACC_FLOOR,
                      f"grid mean train accuracy {st['final_train_acc']} below floor")
        checks.expect(st["noisy_acc"] >= NOISY_ACC_FLOOR,
                      f"grid mean noisy accuracy {st['noisy_acc']} below floor")
        st["mismatch"].append(mismatch)
        for cell in cells:
            model = layers.load_checkpoint(layers.build_mnist_model(st["arch"]),
                                           cell / "model.ckpt")
            stats = regularizer.audit_empirical_k(model, st["test"], AUDIT_SIGMA,
                                                  st["test"].n, derive_rng(st["seed"], "audit"))
            checks.same(f"audit k {cell.name}", stats.values().tobytes())

    def post(self, st: dict, work: Path, checks: Checks) -> dict:
        return {"final_train_acc": st["final_train_acc"], "noisy_acc": st["noisy_acc"]}


WORKLOADS = {w.name: w for w in (
    TrainWorkload("train_standard", STANDARD),
    TrainWorkload("train_regularized", README_REGULARIZER),
    EvalAuditWorkload(),
    GridWorkload(),
)}
