"""Training loop and the evaluation protocol.

Everything here is deterministic given (seed, hyperparams, data): noise,
shuffling and subsampling all come from named streams derived from the run
seed, and test corruption from an explicit corruption seed, so reruns produce
byte-identical checkpoints and records.
"""

from __future__ import annotations

import hashlib
import math
import operator
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import regularizer
from .data import LabeledDataset, batches, subsample
from .layers import Model, _helper, checkpoint_bytes
from .regularizer import LipschitzParams, _eager_passes, aggregated_loss
from .reports import EpochRecord, EvalReport, EvalRow, StepRecord, TrainRecord
from .seeding import derive_key, derive_rng
from .tensor import Graph, Tensor, backward
from .version import VERSION


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class HyperParams:
    """One training run's knobs.

    lr_drops is a tuple of (epoch, factor) pairs: at the start of that epoch
    the current learning rate is divided by the factor. Epochs are 1-based,
    strictly increasing, and must lie within [1, epochs]. momentum is plain
    classical momentum and defaults to off. train_ratio subsamples the
    training set; of the commands, only a ratio-study cell sets it.
    """
    lip: LipschitzParams = LipschitzParams()
    lr: float = 0.05
    epochs: int = 5
    batch_size: int = 100
    lr_drops: tuple = ()
    train_ratio: float = 1.0
    seed: int = 0
    momentum: float = 0.0

    def __post_init__(self):
        if not 0 < self.lr < math.inf:  # written so that NaN fails too
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.train_ratio <= 1.0:
            raise ValueError(f"train_ratio must be in (0, 1], got {self.train_ratio}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        drops = tuple((operator.index(e), float(f)) for e, f in self.lr_drops)
        object.__setattr__(self, "lr_drops", drops)
        last = 0
        for e, f in drops:
            if not 1 <= e <= self.epochs:
                raise ValueError(f"lr drop at epoch {e} outside [1, {self.epochs}]")
            if e <= last:
                raise ValueError("lr drop epochs must be strictly increasing")
            if not f > 0:
                raise ValueError(f"lr drop factor must be > 0, got {f}")
            last = e

    def as_dict(self) -> dict:
        return asdict(self)


class SGD:
    """Plain stochastic gradient descent with optional classical momentum
    (velocity = mu * velocity + grad; param -= lr * velocity)."""

    def __init__(self, momentum: float = 0.0):
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, params: dict, lr: float) -> None:
        for name, p in params.items():
            if p.grad is None:
                continue
            v = self.velocity.get(name)
            if self.momentum > 0.0:
                if v is None:
                    v = self.velocity[name] = p.grad.copy()
                else:  # in place: the same roundings as momentum * v + grad
                    v *= self.momentum
                    v += p.grad
                p.data -= lr * v
            else:  # lr * grad in one kept array; fresh ones let glibc trim the heap every step
                p.data -= self.velocity.setdefault(name, np.multiply(p.grad, lr, out=v))


TRAIN_ACC_PROBE_CAP = 5000  # per-epoch train accuracy uses at most this many samples


def _epoch_steps(ds: LabeledDataset, hp: HyperParams, epoch: int, noise_rng, run):
    """The epoch's (x, labels, drawn) steps in shuffled order. At beta > 0 step i+1's perturbed
    copy is queued on run (train's layers._helper) as step i is handed out, so on a helper thread
    the draw runs while step i trains, and drawn is its future; at beta 0 drawn is None."""
    steps = ((Tensor(xb), yb) for xb, yb in
             batches(ds, hp.batch_size, derive_key(hp.seed, "shuffle", epoch)))
    # a lazy generator: pulling a step queues its draw, through the module attribute
    queued = ((x, y, run(regularizer.perturb, x, hp.lip.sigma_train, noise_rng)
               if hp.lip.beta > 0 else None) for x, y in steps)
    ahead = next(queued, None)
    while ahead is not None:
        step, ahead = ahead, next(queued, None)
        yield step


def train(model: Model, ds: LabeledDataset, hp: HyperParams):
    """SGD on the aggregated loss. Returns (model, TrainRecord).

    Applies hp.train_ratio subsampling first. Aborts on a non-finite loss
    with the offending step's loss parts in the message.

    At beta > 0 each step's noise is drawn one step ahead on an epoch's
    layers._helper, in step order from the one stream, so the bytes are those
    of inline draws. Any thread has ended before the per-epoch probe.
    """
    if hp.train_ratio < 1.0:
        ds = subsample(ds, hp.train_ratio, derive_key(hp.seed, "subset"))
    probe = LabeledDataset(ds.images[:TRAIN_ACC_PROBE_CAP],
                           ds.labels[:TRAIN_ACC_PROBE_CAP], ds.provenance)
    opt = SGD(hp.momentum)
    noise_rng = derive_rng(hp.seed, "noise")
    drops = dict(hp.lr_drops)
    lr = hp.lr
    steps: list[StepRecord] = []
    epochs: list[EpochRecord] = []
    passes = 0
    step_i = 0
    for epoch in range(1, hp.epochs + 1):
        if epoch in drops:
            lr /= drops[epoch]
        t0 = time.perf_counter()
        with _helper(hp.lip.beta > 0) as run:
            for x, yb, drawn in _epoch_steps(ds, hp, epoch, noise_rng, run):
                graph = Graph()
                loss, parts = aggregated_loss(model, x, yb, hp.lip, noise_rng, graph, drawn)
                total = loss.item()
                if not math.isfinite(total):
                    raise TrainingDivergedError(
                        f"non-finite loss at step {step_i}: total={total} "
                        f"usual={parts['usual']} lipschitz={parts['lipschitz']}")
                model.zero_grad()
                backward(loss, graph)
                opt.step(model.params, lr)
                passes += parts["perturbed_passes"]
                steps.append(StepRecord(step_i, parts["usual"], parts["lipschitz"],
                                        parts["mean_k"], total))
                step_i += 1
        epochs.append(EpochRecord(epoch, evaluate(model, probe)["accuracy"],
                                  time.perf_counter() - t0))
    meta = {"perturbed_passes": passes,
            "n_train": ds.n, "n_steps": step_i, "final_lr": lr}
    return model, TrainRecord(steps, epochs, meta)


def _acc_conf(probs: np.ndarray, labels: np.ndarray):
    predicted = probs.argmax(axis=1)
    correct = predicted == labels
    accuracy = float(correct.mean())
    if correct.any():
        conf = float(probs[np.flatnonzero(correct), labels[correct]].mean())
    else:
        conf = float("nan")
    return accuracy, conf


def evaluate(model: Model, ds: LabeledDataset) -> dict:
    """Accuracy (argmax, ties to the lowest class) and mean confidence over
    the correctly classified samples. Pure: no RNG, no model mutation."""
    accuracy, conf = _acc_conf(_eager_passes(model, ds.images)[0], ds.labels)
    return {"accuracy": accuracy, "mean_confidence_on_correct": conf}


def _check_sigmas(sigmas) -> list[float]:
    """sweep's rule for test-noise levels."""
    sigmas = [float(s) for s in sigmas]
    if not sigmas or any(not 0 <= s < math.inf for s in sigmas) or len(set(sigmas)) < len(sigmas):
        raise ValueError(f"sweep: sigmas must be a nonempty list of distinct finite values >= 0, "
                         f"got {sigmas}")
    return sigmas


def sweep(model: Model, clean_test: LabeledDataset, sigmas, corruption_seed: int) -> EvalReport:
    """One evaluation row per test-noise level, rows sorted by sigma.

    Corruption is seeded per sigma from corruption_seed only, so every model
    swept with the same seed sees identical corrupted inputs. mean_k is the
    empirical quotient between corrupted and clean outputs (NaN at sigma 0).
    All levels share one clean pass (regularizer._eager_passes), and each
    sigma's noise is drawn in row order from its one stream.
    """
    sigmas = sorted(_check_sigmas(sigmas))
    noisy = [s for s in sigmas if s != 0.0]

    def level(probs, k):  # a row's values: the walk then holds no level's arrays past its own
        return *_acc_conf(probs, clean_test.labels), float("nan") if k is None else float(k.mean())

    clean_probs, passes = _eager_passes(model, clean_test.images, [
        (s, derive_rng(corruption_seed, "sigma", repr(s))) for s in noisy], level)
    levels = {0.0: level(clean_probs, None), **dict(zip(noisy, passes))}
    rows = [EvalRow(sigma, *levels[sigma], clean_test.n) for sigma in sigmas]
    metadata = {
        "model_hash": hashlib.sha256(checkpoint_bytes(model)).hexdigest(),
        "dataset": clean_test.provenance.as_dict(),
        "corruption_seed": int(corruption_seed),
        "code_version": VERSION,
    }
    return EvalReport(rows, metadata)
