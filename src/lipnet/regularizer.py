"""Lipschitz-continuity regularization.

The training-time pieces: Gaussian input perturbation, the per-sample
quotient estimate k(x) = ||f(x_bar) - f(x)|| / ||x_bar - x||, and the hinge
penalty beta * max(0, k - l_n) that is added to the task loss. The
analysis-time pieces: the rho / l_n distortion-radius guarantee and an
exactly-Lipschitz synthetic classifier used to check that guarantee against
brute sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import Model, _eager_probs, forward
from .tensor import Graph, Tensor, _acc, _record, add, cross_entropy, rows

NORM_EPS = 1e-12  # input norms are clamped to it; output rows with a smaller norm get no gradient


@dataclass(frozen=True)
class LipschitzParams:
    """Hyperparameters of the regularizer.

    sigma_train is the std of the input noise (pixel units for [0,1]-scaled
    images), beta the penalty weight, l_n the Lipschitz constant the network
    is pushed toward. beta == 0 disables the regularizer entirely and must
    reproduce plain training.
    """
    sigma_train: float = 0.0
    beta: float = 0.0
    l_n: float = 0.01

    def __post_init__(self):
        if self.sigma_train < 0:
            raise ValueError(f"sigma_train must be >= 0, got {self.sigma_train}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.l_n <= 0:
            raise ValueError(f"l_n must be > 0, got {self.l_n}")
        if self.beta > 0 and self.sigma_train <= 0:
            raise ValueError("beta > 0 needs sigma_train > 0 to draw perturbations")


@dataclass
class KStatistics:
    """Per-sample quotient estimates plus summary stats.

    per_sample_k is on the graph during training and eager in the audit.
    fraction_exceeding_l_n is NaN when no l_n was supplied.
    """
    per_sample_k: Tensor
    mean: float
    max: float
    fraction_exceeding_l_n: float

    def values(self) -> np.ndarray:
        return self.per_sample_k.data

    def as_dict(self) -> dict:
        return {"mean": self.mean, "max": self.max,
                "fraction_exceeding_l_n": self.fraction_exceeding_l_n,
                "n": int(self.values().shape[0])}


def _k_statistics(k: Tensor, l_n: float | None) -> KStatistics:
    v = k.data
    frac = float(np.mean(v > l_n)) if l_n is not None else float("nan")
    return KStatistics(k, float(v.mean()), float(v.max()), frac)


def perturb(x: Tensor, sigma: float, rng) -> Tensor:
    """x_bar = x + N(0, sigma) drawn independently per component.

    No clipping: the perturbed input may leave [0,1], keeping ||x_bar - x||
    an unbiased noise norm. sigma = 0 returns a bit-exact copy.
    """
    if sigma < 0:
        raise ValueError(f"perturb: sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return Tensor(x.data.copy())
    return Tensor(x.data + rng.normal(0.0, sigma, size=x.shape))


def quotient(f_x: Tensor, f_x_bar: Tensor, x: np.ndarray, x_bar: np.ndarray,
             graph: Graph | None = None) -> Tensor:
    """Per-row k_i = ||f(x_bar_i) - f(x_i)|| / max(||x_bar_i - x_i||, NORM_EPS).

    One tape node when a graph is given: gradients flow to f(x_bar) and f(x),
    the input difference is a constant, and a row whose output difference has
    norm below NORM_EPS gets a zero gradient. graph=None runs eagerly.
    """
    dx = (x_bar - x).reshape(x.shape[0], -1)
    inv = 1.0 / np.maximum(np.sqrt((dx * dx).sum(axis=1)), NORM_EPS)
    df = f_x_bar.data - f_x.data
    n = np.sqrt((df * df).sum(axis=1))
    out = Tensor(n * inv)

    def rule(g):
        gn = g * inv
        safe = np.where(n >= NORM_EPS, n, 1.0)
        gdf = np.where(n >= NORM_EPS, gn / safe, 0.0)[:, None] * df
        _acc(f_x_bar, gdf)
        _acc(f_x, -gdf)

    return _record(graph, "quotient", (f_x, f_x_bar), out, rule)


def lipschitz_loss(k: KStatistics, params: LipschitzParams,
                   graph: Graph | None = None) -> Tensor:
    """Hinge penalty: mean over the batch of beta * max(0, k_i - l_n).

    Per-sample hinge first, then the batch mean, so every violating sample
    contributes with slope beta / batch. Exactly zero when all k_i <= l_n.
    """
    kt = k.per_sample_k
    c = params.beta / kt.shape[0]
    excess = kt.data - params.l_n
    out = Tensor(np.maximum(excess, 0.0).sum() * c)

    def rule(g):
        _acc(kt, g * c * (excess > 0.0))

    return _record(graph, "lipschitz_loss", (kt,), out, rule)


def aggregated_loss(model: Model, x: Tensor, labels, params: LipschitzParams,
                    rng, graph: Graph | None = None):
    """Training loss L = L_usual + L_Lipschitz.

    L_usual is cross-entropy on the clean inputs only. With beta == 0 the
    returned tensor IS that cross-entropy (one plain forward pass, no
    perturbed rows, bit-identical to plain training). With beta > 0 the clean
    and perturbed rows share one forward pass over [x; x_bar]. Returns
    (loss, parts) where parts carries float values of both terms, the batch
    mean k for logging, and the number of perturbed passes run (0 or 1).
    """
    if params.beta == 0:
        usual = cross_entropy(forward(model, x, graph), labels, graph)
        parts = {"usual": usual.item(), "lipschitz": 0.0, "mean_k": float("nan"),
                 "perturbed_passes": 0}
        return usual, parts
    x_bar = perturb(x, params.sigma_train, rng)
    b = x.shape[0]
    both = forward(model, Tensor(np.concatenate([x.data, x_bar.data])), graph)
    f_x, f_x_bar = rows(both, 0, b, graph), rows(both, b, 2 * b, graph)
    usual = cross_entropy(f_x, labels, graph)
    k = _k_statistics(quotient(f_x, f_x_bar, x.data, x_bar.data, graph), params.l_n)
    lip = lipschitz_loss(k, params, graph)
    total = add(usual, lip, graph)
    parts = {"usual": usual.item(), "lipschitz": lip.item(), "mean_k": k.mean,
             "perturbed_passes": 1}
    return total, parts


def compute_rho(labels) -> float:
    """Half the minimum pairwise Euclidean distance between distinct label
    vectors, by exhaustive scan. Duplicates are removed first."""
    arr = np.asarray(labels, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    distinct = np.unique(arr, axis=0)
    m = distinct.shape[0]
    if m < 2:
        raise ValueError(f"compute_rho: needs >= 2 distinct labels, got {m}")
    best = math.inf
    for i in range(m):
        for j in range(i + 1, m):
            d = float(np.linalg.norm(distinct[i] - distinct[j]))
            if d < best:
                best = d
    return 0.5 * best


def one_hot_labels(n_classes: int) -> np.ndarray:
    return np.eye(n_classes)


@dataclass(frozen=True)
class GuaranteeReport:
    """Distortion radius rho / l_n.

    The guarantee is conditional: it holds only if the trained network really
    is l_n-Lipschitz, which the regularizer encourages but does not certify.
    """
    rho: float
    l_n: float
    radius: float
    label_set_size: int

    def as_dict(self) -> dict:
        return {"rho": self.rho, "l_n": self.l_n, "radius": self.radius,
                "label_set_size": self.label_set_size,
                "conditional_on": "f is l_n-Lipschitz"}


def guarantee(params: LipschitzParams, labels) -> GuaranteeReport:
    """Any distortion with ||d|| < rho / l_n cannot change the label of an
    l_n-Lipschitz classifier that outputs exact label vectors."""
    arr = np.asarray(labels, dtype=np.float64)
    rho = compute_rho(arr)
    n = np.unique(arr if arr.ndim > 1 else arr[:, None], axis=0).shape[0]
    return GuaranteeReport(rho=rho, l_n=params.l_n,
                           radius=rho / params.l_n, label_set_size=n)


class RampClassifier:
    """An exactly L-Lipschitz map from R^dim to the label simplex.

    Output is one-hot class_a on one half-space, one-hot class_b on the
    other, joined by a linear ramp along axis 0 of width ||y_b - y_a|| / L.
    The slope along axis 0 inside the ramp is exactly L and every other
    direction is flat, so L is the true Lipschitz constant, not a bound.
    """

    def __init__(self, l: float, labels, dim: int = 2,
                 class_a: int = 0, class_b: int = 1, plateau_span: float = 100.0):
        if l <= 0:
            raise ValueError(f"RampClassifier: L must be > 0, got {l}")
        self.l = float(l)
        self.labels = np.asarray(labels, dtype=np.float64)
        self.dim = int(dim)
        self.class_a = class_a
        self.class_b = class_b
        self.y_a = self.labels[class_a]
        self.y_b = self.labels[class_b]
        gap = float(np.linalg.norm(self.y_b - self.y_a))
        if gap == 0:
            raise ValueError("RampClassifier: class_a and class_b share a label vector")
        self.ramp_width = gap / self.l
        self.plateau_span = float(plateau_span) * self.ramp_width

    def outputs(self, points: np.ndarray) -> np.ndarray:
        """Label-space outputs, shape (n, label_dim)."""
        points = np.atleast_2d(points)
        t = np.clip(points[:, 0] / self.ramp_width, 0.0, 1.0)
        return self.y_a + t[:, None] * (self.y_b - self.y_a)

    def classify(self, points: np.ndarray) -> np.ndarray:
        """Nearest label vector (ties go to the lowest class index)."""
        out = self.outputs(points)
        d2 = ((out[:, None, :] - self.labels[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1)

    def sample_base(self, n: int, rng) -> np.ndarray:
        """Base points on the two plateaus, edge-adjacent points included."""
        points = rng.uniform(-1.0, 1.0, size=(n, self.dim))
        offset = rng.uniform(0.0, self.plateau_span, size=n)
        side = rng.integers(0, 2, size=n)
        points[:, 0] = np.where(side == 0, -offset, self.ramp_width + offset)
        return points

    def counterexample(self, distance: float):
        """A base point on the class_a plateau edge and a distortion of the
        given norm aimed along the ramp. Flips the label whenever distance
        exceeds half the ramp width."""
        x = np.zeros(self.dim)
        d = np.zeros(self.dim)
        d[0] = distance
        return x, d


def sample_in_ball(n: int, dim: int, radius: float, rng) -> np.ndarray:
    """n points uniform in the OPEN ball of the given radius."""
    z = rng.normal(size=(n, dim))
    norms = np.maximum(np.linalg.norm(z, axis=1), NORM_EPS)
    r = radius * rng.random(n) ** (1.0 / dim) * (1.0 - 1e-9)
    return z * (r / norms)[:, None]


def verify_theorem1_synthetic(oracle, l: float, labels, n_trials: int, rng,
                              radius_scale: float = 1.0) -> int:
    """Count label changes under distortions ||d|| < radius_scale * rho / L.

    The oracle must expose classify(points) and sample_base(n, rng). With
    radius_scale <= 1 and an exactly L-Lipschitz oracle the count must be 0;
    larger scales probe outside the guaranteed region.
    """
    rho = compute_rho(labels)
    base = oracle.sample_base(n_trials, rng)
    d = sample_in_ball(n_trials, base.shape[1], radius_scale * rho / l, rng)
    return int(np.sum(oracle.classify(base) != oracle.classify(base + d)))


def counterexample_outside_radius(oracle, l: float, labels,
                                  scale: float = 1.5):
    """A distortion of norm scale * rho / L that DOES change the label,
    showing the radius cannot be much enlarged. Returns (x, d, before,
    after); raises if the constructed pair fails to flip."""
    rho = compute_rho(labels)
    x, d = oracle.counterexample(scale * rho / l)
    before, after = oracle.classify(np.stack([x, x + d]))
    if before == after:
        raise AssertionError("constructed counterexample did not flip the label")
    return x, d, int(before), int(after)


def audit_empirical_k(model: Model, dataset, sigma: float, n: int, rng,
                      l_n: float | None = None) -> KStatistics:
    """Bulk, non-differentiable k over n samples drawn from the dataset.

    One fresh noise draw per sample; clean and perturbed rows go through
    sweep's eager forward. Reproducible bit-exactly for a given rng state.
    """
    if sigma <= 0:
        raise ValueError(f"audit_empirical_k: sigma must be > 0, got {sigma}")
    if n < 1:
        raise ValueError(f"audit_empirical_k: n must be >= 1, got {n}")
    idx = np.sort(rng.permutation(dataset.n)[:n])
    x = dataset.images[idx]
    x_bar = perturb(Tensor(x), sigma, rng).data
    k = quotient(Tensor(_eager_probs(model, x)), Tensor(_eager_probs(model, x_bar)), x, x_bar)
    return _k_statistics(k, l_n)
