"""One test per shipped acceptance criterion, in order.

Criteria that need the real MNIST IDX files (1, 2, 3, 7, 10) skip with an
explicit reason when the files are absent: this test environment has no
network route, so they cannot be fetched here. Point LIPNET_DATA_DIR at a
directory holding train-images-idx3-ubyte[.gz] and friends to run them.
Everything else runs in full on every invocation.
"""

import json
import math
import os
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from lipnet import (Graph, HyperParams, LipschitzParams, SGD, Tensor,
                    audit_empirical_k, backward, build_mnist_model,
                    checkpoint_bytes, compute_rho,
                    counterexample_outside_radius, forward, gradcheck,
                    load_idx, one_hot_labels, sweep,
                    synthetic_digits, train, verify_theorem1_synthetic,
                    LabeledDataset, RampClassifier)
from lipnet.cli import DATA_DIR_ENV, IDX_STANDARD_NAMES
from lipnet.cli import main as cli_main
from lipnet.data import batches
from lipnet.regularizer import aggregated_loss
from lipnet.seeding import derive_key, derive_rng
from lipnet.tensor import cross_entropy

SIGMAS = (0.0, 0.5, 1.0)
SEEDS = (0, 1, 2)
CORRUPTION_SEED = 9000
TRAIN_LIMIT = 55000
RECIPE = dict(lr=0.05, epochs=5, batch_size=100)

STANDARD = LipschitzParams()
PROPOSED = LipschitzParams(sigma_train=0.75, beta=10.0, l_n=0.005)
GRID = (LipschitzParams(0.5, 10.0, 0.005), LipschitzParams(0.5, 10.0, 0.01),
        PROPOSED, LipschitzParams(0.75, 10.0, 0.01))


def report(n: int, ok: bool, detail: str = "") -> None:
    line = f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line


def _mnist_dir():
    root = os.environ.get(DATA_DIR_ENV)
    if not root:
        return None
    root = Path(root)
    for name in IDX_STANDARD_NAMES.values():
        if not ((root / name).exists() or (root / (name + ".gz")).exists()):
            return None
    return root


requires_mnist = pytest.mark.skipif(
    _mnist_dir() is None,
    reason="MNIST IDX files not found: this environment has no network route "
           "to fetch them; export LIPNET_DATA_DIR to a directory holding "
           "train-images-idx3-ubyte[.gz] etc. to enable this criterion")


class MnistLab:
    """Lazily trains and caches (cell, seed, ratio) runs shared by criteria."""

    def __init__(self, root: Path):
        self.root = root
        self._train_ds = None
        self._test_ds = None
        self._runs: dict = {}
        self.train_seconds: dict = {}

    def _path(self, key: str) -> Path:
        base = self.root / IDX_STANDARD_NAMES[key]
        return base if base.exists() else base.with_name(base.name + ".gz")

    @property
    def train_ds(self):
        if self._train_ds is None:
            ds = load_idx(self._path("train_images"), self._path("train_labels"))
            self._train_ds = LabeledDataset(ds.images[:TRAIN_LIMIT],
                                            ds.labels[:TRAIN_LIMIT], ds.provenance)
        return self._train_ds

    @property
    def test_ds(self):
        if self._test_ds is None:
            self._test_ds = load_idx(self._path("test_images"),
                                     self._path("test_labels"))
        return self._test_ds

    def run(self, lip: LipschitzParams, seed: int, ratio: float = 1.0):
        """(model, {sigma_test: accuracy}) for one trained cell."""
        key = (lip, seed, ratio)
        if key not in self._runs:
            hp = HyperParams(lip=lip, train_ratio=ratio, seed=seed, **RECIPE)
            t0 = time.perf_counter()
            model, _ = train(build_mnist_model(seed), self.train_ds, hp)
            self.train_seconds[key] = time.perf_counter() - t0
            rep = sweep(model, self.test_ds, SIGMAS, CORRUPTION_SEED)
            self._runs[key] = (model, {r.sigma_test: r.accuracy for r in rep.rows})
        return self._runs[key]


@pytest.fixture(scope="session")
def mnist():
    root = _mnist_dir()
    if root is None:
        pytest.skip("MNIST IDX files not found")
    return MnistLab(root)


@requires_mnist
def test_criterion_01_reference_accuracy_bands(mnist):
    """Desk-scale protocol on the 55k/10k split, 3 seeds each: the standard
    recipe (beta=0) must land at 0.97+-0.02 / 0.92+-0.04 / 0.65+-0.08 mean
    accuracy for test noise 0 / 0.5 / 1.0, the regularized recipe
    (sigma_train=0.75, beta=10, l_n=0.005) at 0.98+-0.02 / 0.96+-0.03 /
    0.78+-0.08, and the six runs must finish within 15 minutes."""
    bands = {
        STANDARD: {0.0: (0.97, 0.02), 0.5: (0.92, 0.04), 1.0: (0.65, 0.08)},
        PROPOSED: {0.0: (0.98, 0.02), 0.5: (0.96, 0.03), 1.0: (0.78, 0.08)},
    }
    ok = True
    details = []
    for lip, targets in bands.items():
        name = "std" if lip.beta == 0 else "prop"
        for sigma, (center, tol) in sorted(targets.items()):
            mean = float(np.mean([mnist.run(lip, s)[1][sigma] for s in SEEDS]))
            if not center - tol <= mean <= center + tol:
                ok = False
            details.append(f"{name}@{sigma:g}={mean:.3f}")
    wall = sum(mnist.train_seconds[(lip, s, 1.0)] for lip in bands for s in SEEDS)
    ok = ok and wall < 900.0
    report(1, ok, " ".join(details) + f" wall={wall:.0f}s")


@requires_mnist
def test_criterion_02_every_grid_cell_beats_standard(mnist):
    """At test noise 0.5 and 1.0, every regularized grid cell
    ((0.5|0.75) x beta 10 x (0.005|0.01)) must beat the standard baseline
    for a majority of the 3 seeds."""
    ok = True
    details = []
    for lip in GRID:
        for sigma in (0.5, 1.0):
            wins = sum(mnist.run(lip, s)[1][sigma] >
                       mnist.run(STANDARD, s)[1][sigma] for s in SEEDS)
            details.append(f"s{lip.sigma_train:g}/l{lip.l_n:g}@{sigma:g}={wins}/3")
            if wins < 2:
                ok = False
    report(2, ok, " ".join(details))


@requires_mnist
def test_criterion_03_doubling_l_n_costs_little(mnist):
    """At sigma_train 0.75 and test noise 1.0, mean accuracy with l_n=0.01
    must stay within 0.03 of the l_n=0.005 cell."""
    tight = float(np.mean([mnist.run(PROPOSED, s)[1][1.0] for s in SEEDS]))
    loose = float(np.mean([mnist.run(LipschitzParams(0.75, 10.0, 0.01), s)[1][1.0]
                           for s in SEEDS]))
    ok = loose <= tight + 0.03
    report(3, ok, f"l_n=0.005: {tight:.3f}, l_n=0.01: {loose:.3f}")


def test_criterion_04_synthetic_guarantee_exact():
    """10^4 uniform samples inside the rho/L ball, 5 seeds, on a map that is
    exactly L-Lipschitz: zero label flips; a crafted point at 1.5x the radius
    flips; the whole check finishes in under 5 seconds."""
    labels = one_hot_labels(10)
    oracle = RampClassifier(1.0, labels, dim=2)
    t0 = time.perf_counter()
    violations = [verify_theorem1_synthetic(oracle, 1.0, labels, 10_000,
                                            derive_rng(s, "thm1"))
                  for s in range(5)]
    x, d, before, after = counterexample_outside_radius(oracle, 1.0, labels)
    wall = time.perf_counter() - t0
    ok = sum(violations) == 0 and before != after and wall < 5.0
    report(4, ok, f"violations={violations} flip={before}->{after} wall={wall:.2f}s")


def test_criterion_05_rho_closed_form_and_brute_force():
    """Half the minimum pairwise distance of the 10 one-hot labels equals
    sqrt(2)/2 to 1e-12 and matches an exhaustive brute-force scan."""
    labels = one_hot_labels(10)
    rho = compute_rho(labels)
    brute = 0.5 * min(math.dist(a, b)
                      for a, b in combinations(labels.tolist(), 2))
    ok = abs(rho - math.sqrt(2.0) / 2.0) < 1e-12 and abs(rho - brute) < 1e-12
    report(5, ok, f"rho={rho!r} brute={brute!r}")


def test_criterion_06_gradcheck_full_architecture():
    """Central-difference gradcheck (step 1e-5) of the aggregated loss on the
    full conv architecture with the hinge active on every sample: max relative
    error below 1e-4, finishing in under 60 seconds."""
    ds = synthetic_digits(4, seed=3)
    params = LipschitzParams(sigma_train=0.5, beta=10.0, l_n=1e-6)
    labels = ds.labels

    def loss_fn(model, x, graph):
        # fresh stream per call so repeated evaluations see identical noise
        return aggregated_loss(model, x, labels, params,
                               derive_rng(7, "gc"), graph)[0]

    model = build_mnist_model(seed=0)
    _, parts = aggregated_loss(model, Tensor(ds.images), labels, params,
                               derive_rng(7, "gc"))
    assert parts["lipschitz"] > 0.0, "hinge must be active for this check"
    t0 = time.perf_counter()
    rep = gradcheck(model, loss_fn, Tensor(ds.images), tol=1e-4, step=1e-5,
                    samples_per_param=40, rng=np.random.default_rng(0))
    wall = time.perf_counter() - t0
    ok = rep.passed and rep.max_rel_error < 1e-4 and wall < 60.0
    report(6, ok, f"max_rel_err={rep.max_rel_error:.2e} wall={wall:.1f}s")


@requires_mnist
def test_criterion_07_audit_k_ordering(mnist):
    """Mean empirical quotient at sigma 0.5 over 1000 test samples: the
    regularized model must sit strictly below the standard one, 3 of 3 seeds."""
    ok = True
    details = []
    for s in SEEDS:
        std = audit_empirical_k(mnist.run(STANDARD, s)[0], mnist.test_ds,
                                0.5, 1000, derive_rng(s, "audit"))
        prop = audit_empirical_k(mnist.run(PROPOSED, s)[0], mnist.test_ds,
                                 0.5, 1000, derive_rng(s, "audit"))
        details.append(f"seed{s}: {prop.mean:.4f}<{std.mean:.4f}")
        if not prop.mean < std.mean:
            ok = False
    report(7, ok, " ".join(details))


def test_criterion_08_beta_zero_is_bitwise_plain_training(perturb_calls):
    """beta=0 must run zero perturbed passes and produce per-step losses and
    final weights bit-identical to a loop with the regularizer stubbed out."""
    ds = synthetic_digits(500, seed=21)
    hp = HyperParams(lr=0.05, epochs=2, batch_size=50, seed=9)
    full, record = train(build_mnist_model(seed=9), ds, hp)
    passes = len(perturb_calls)

    # the stub: plain cross-entropy SGD, no regularizer code in the loop
    stub = build_mnist_model(seed=9)
    opt = SGD(hp.momentum)
    stub_losses = []
    for epoch in range(1, hp.epochs + 1):
        for xb, yb in batches(ds, hp.batch_size, derive_key(hp.seed, "shuffle", epoch)):
            graph = Graph()
            loss = cross_entropy(forward(stub, Tensor(xb), graph), yb, graph)
            stub_losses.append(loss.item())
            stub.zero_grad()
            backward(loss, graph)
            opt.step(stub.params, hp.lr)

    same_losses = stub_losses == [s.loss_total for s in record.steps]
    same_weights = checkpoint_bytes(full) == checkpoint_bytes(stub)
    ok = passes == 0 and record.meta["perturbed_passes"] == 0 \
        and same_losses and same_weights
    report(8, ok, f"passes={passes} losses_equal={same_losses} "
                  f"weights_equal={same_weights}")


def test_criterion_09_reruns_are_byte_identical(tmp_path):
    """The same config and seed, run twice through the CLI, must produce
    byte-identical checkpoints and CSV reports."""
    cfg = {
        "dataset": "synthetic_digits", "model": "mnist_cnn",
        "synthetic_train_n": 600, "synthetic_test_n": 200,
        "epochs": 2, "batch_size": 50, "lr": 0.05, "seed": 7,
        "sigma_train": 0.5, "beta": 10.0, "l_n": 0.005,
        "sweep_sigmas": [0.0, 0.5],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli_main(["sweep", "--config", str(cfg_path),
                         "--out", str(out / "sweep"),
                         "--checkpoint", str(out / "model.ckpt")]) == 0
    compared = ["model.ckpt", "train_record.csv", "train_epochs.csv",
                "sweep/eval_report.csv"]
    mismatched = [name for name in compared
                  if (tmp_path / "one" / name).read_bytes()
                  != (tmp_path / "two" / name).read_bytes()]
    report(9, not mismatched, f"compared={len(compared)} mismatched={mismatched}")


@requires_mnist
def test_criterion_10_low_data_ordering(mnist):
    """With 30% of the training data, the regularized recipe must beat the
    standard one at test noise 0.5 for at least 2 of 3 seeds."""
    wins = 0
    details = []
    for s in SEEDS:
        prop = mnist.run(PROPOSED, s, ratio=0.3)[1][0.5]
        std = mnist.run(STANDARD, s, ratio=0.3)[1][0.5]
        details.append(f"seed{s}: {prop:.3f} vs {std:.3f}")
        wins += prop > std
    report(10, wins >= 2, f"wins={wins}/3 " + " ".join(details))
