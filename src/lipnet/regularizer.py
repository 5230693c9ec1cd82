"""Lipschitz-continuity regularization.

The training-time pieces: Gaussian input perturbation, the per-sample
quotient estimate k(x) = ||f(x_bar) - f(x)|| / ||x_bar - x||, and the hinge
penalty beta * max(0, k - l_n) that is added to the task loss. The
analysis-time pieces: the rho / l_n distortion-radius guarantee and an
exactly-Lipschitz synthetic classifier used to check that guarantee against
brute sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import _EAGER_ROWS, Model, _eager_helper, _now, forward
from .tensor import Graph, Tensor, _acc, _record, add, cross_entropy, rows

NORM_EPS = 1e-12  # input norms are clamped to it; output rows with a smaller norm get no gradient
COUNTEREXAMPLE_SCALE = 1.5  # counterexample_outside_radius's distortion norm over rho / L
# The synthetic oracle of `lipnet guarantee --synthetic`: its L and input dim, and
# ORACLE_SEEDS draws of ORACLE_TRIALS in-ball distortions each.
ORACLE_L = 1.0
ORACLE_DIM = 2
ORACLE_TRIALS = 10000
ORACLE_SEEDS = 5


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
        if not 0 <= self.sigma_train < np.inf:  # written so that NaN fails too
            raise ValueError(f"sigma_train must be finite and >= 0, got {self.sigma_train}")
        if not self.beta >= 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not self.l_n > 0:
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
    if not 0 <= sigma < np.inf:
        raise ValueError(f"perturb: sigma must be finite and >= 0, got {sigma}")
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


def _eager_passes(model: Model, x: np.ndarray, noise=(), keep=lambda f, k: (f, k)):
    """Every tape-free pass: (f(x), [keep(f(x_bar), k) for each (sigma, rng) in noise]) with
    x_bar = perturb(x, sigma, rng). One loop walks the clean stream, then each noisy one, in
    pairs (mine, theirs) of 100-row chunks: the helper (_eager_helper's, or _now inline) draws
    theirs (the caller slices a clean one), forwards and compares it; the caller forwards and
    compares mine, waits for that draw and draws the next. So each stream is drawn in row order,
    one whole-array draw's values, holding f(x), one stream's rows and two chunks' temporaries."""
    chunks = [slice(s, s + _EAGER_ROWS) for s in range(0, len(x), _EAGER_ROWS)]
    f_x, noisy = None, []

    def draw(sl, sigma, rng):  # the clean stream's chunks are x's own rows
        return x[sl] if rng is None else perturb(Tensor(x[sl]), sigma, rng).data

    def compare(sl, x_bar):  # f(x_bar) and its k against f(x); the clean stream, first, has none
        f = forward(model, Tensor(x_bar)).data
        return f, None if f_x is None else quotient(Tensor(f_x[sl]), Tensor(f), x[sl], x_bar).data

    with _eager_helper(len(x)) as helper:
        run = helper.submit if helper else _now
        for sigma, rng in [(0.0, None), *noise]:
            out, x_bar = [], draw(chunks[0], sigma, rng)
            for mine, theirs, nxt in zip(chunks[::2], chunks[1::2], chunks[2::2] + [None]):
                drawn = (_now if rng is None else run)(draw, theirs, sigma, rng)  # here if clean
                ahead = run(lambda sl, d: compare(sl, d.result()), theirs, drawn)
                out.append(compare(mine, x_bar))
                drawn.result()  # the next pair's draw follows theirs in the stream
                x_bar = draw(nxt, sigma, rng) if nxt else None
                out.append(ahead.result())
            if len(chunks) % 2:  # an odd last chunk is the caller's alone
                out.append(compare(chunks[-1], x_bar))
            if f_x is None:
                f_x = np.concatenate([f for f, _ in out])
            else:  # no name keeps this stream's arrays while the next one is walked
                noisy.append(keep(*(np.concatenate(part) for part in zip(*out))))
    return f_x, noisy


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
                    rng, graph: Graph | None = None, drawn=None):
    """Training loss L = L_usual + L_Lipschitz.

    L_usual is cross-entropy on the clean inputs only. With beta == 0 the
    returned tensor IS that cross-entropy (one plain forward pass, no
    perturbed rows, bit-identical to plain training). With beta > 0 the clean
    and perturbed rows share one forward pass over [x; x_bar]. x_bar is
    drawn's result, waited for here, when training drew it ahead as a future
    of perturb(x, params.sigma_train, rng); with drawn None it is drawn here
    from rng. Returns (loss, parts) where parts carries float values of both
    terms, the batch mean k for logging, and the number of perturbed passes
    run (0 or 1).
    """
    if params.beta == 0:
        usual = cross_entropy(forward(model, x, graph), labels, graph)
        parts = {"usual": usual.item(), "lipschitz": 0.0, "mean_k": float("nan"),
                 "perturbed_passes": 0}
        return usual, parts
    x_bar = perturb(x, params.sigma_train, rng) if drawn is None else drawn.result()
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
    best = min(np.linalg.norm(distinct[i + 1:] - distinct[i], axis=1).min()
               for i in range(m - 1))
    return 0.5 * float(best)


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

    Output is label 0 on one half-space, label 1 on the other, joined by a
    linear ramp along axis 0 of width ||y_1 - y_0|| / L. The slope along axis
    0 inside the ramp is exactly L and every other direction is flat, so L is
    the true Lipschitz constant, not a bound, and rho / L is the exact radius.
    """

    def __init__(self, l: float, labels, dim: int = 2):
        if not l > 0:
            raise ValueError(f"RampClassifier: L must be > 0, got {l}")
        if dim < 1:
            raise ValueError(f"RampClassifier: dim must be >= 1, got {dim}")
        self.l = float(l)
        self.labels = np.asarray(labels, dtype=np.float64)
        if len(self.labels) < 2:
            raise ValueError(f"RampClassifier: needs >= 2 labels, got {len(self.labels)}")
        self.dim = int(dim)
        self.y_a, self.y_b = self.labels[0], self.labels[1]
        gap = float(np.linalg.norm(self.y_b - self.y_a))
        if gap == 0:
            raise ValueError("RampClassifier: labels 0 and 1 share a label vector")
        self.ramp_width = gap / self.l
        self.rho = compute_rho(self.labels)

    def outputs(self, points: np.ndarray) -> np.ndarray:
        """Label-space outputs, shape (n, label_dim)."""
        points = np.atleast_2d(points)
        t = np.clip(points[:, 0] / self.ramp_width, 0.0, 1.0)
        return self.y_a + t[:, None] * (self.y_b - self.y_a)

    def classify(self, points: np.ndarray) -> np.ndarray:
        """Nearest label vector (ties go to the lowest class index), one label at a time."""
        out = self.outputs(points)
        best, nearest = np.full(len(out), np.inf), np.zeros(len(out), dtype=np.intp)
        for i, y in enumerate(self.labels):
            d2 = ((out - y) ** 2).sum(axis=1)
            best, nearest = np.minimum(best, d2), np.where(d2 < best, i, nearest)
        return nearest

    def sample_base(self, n: int, rng) -> np.ndarray:
        """Base points on the two plateaus, each 100 ramp widths deep, edge-adjacent
        points included."""
        points = rng.uniform(-1.0, 1.0, size=(n, self.dim))
        offset = rng.uniform(0.0, 100.0 * self.ramp_width, size=n)
        side = rng.integers(0, 2, size=n)
        points[:, 0] = np.where(side == 0, -offset, self.ramp_width + offset)
        return points


def sample_in_ball(n: int, dim: int, radius: float, rng) -> np.ndarray:
    """n points uniform in the OPEN ball of the given radius."""
    z = rng.normal(size=(n, dim))
    norms = np.maximum(np.linalg.norm(z, axis=1), NORM_EPS)
    r = radius * rng.random(n) ** (1.0 / dim) * (1.0 - 1e-9)
    return z * (r / norms)[:, None]


def verify_theorem1_synthetic(oracle: RampClassifier, n_trials: int, rng) -> int:
    """Count label changes under distortions ||d|| < rho / L of the oracle's
    plateau points. The oracle is exactly L-Lipschitz, so the count must be 0."""
    base = oracle.sample_base(n_trials, rng)
    d = sample_in_ball(n_trials, oracle.dim, oracle.rho / oracle.l, rng)
    return int(np.sum(oracle.classify(base) != oracle.classify(base + d)))


def counterexample_outside_radius(oracle: RampClassifier):
    """A distortion of norm COUNTEREXAMPLE_SCALE * rho / L from the label-0
    plateau edge along the ramp that DOES change the label, showing the radius
    cannot be much enlarged. Returns (x, d, before, after); raises if the pair
    fails to flip."""
    x = np.zeros(oracle.dim)
    d = np.zeros(oracle.dim)
    d[0] = COUNTEREXAMPLE_SCALE * oracle.rho / oracle.l
    before, after = oracle.classify(np.stack([x, x + d]))
    if before == after:
        raise AssertionError("constructed counterexample did not flip the label")
    return x, d, int(before), int(after)


def audit_empirical_k(model: Model, dataset, sigma: float, n: int, rng,
                      l_n: float | None = None) -> KStatistics:
    """Bulk, non-differentiable k over n samples drawn from the dataset.

    One fresh noise draw per sample, in row order from rng, through the
    tape-free walk of evaluate and sweep (_eager_passes). Reproducible
    bit-exactly for a given rng state, with or without its helper thread.
    """
    if not 0 < sigma < np.inf:
        raise ValueError(f"audit_empirical_k: sigma must be finite and > 0, got {sigma}")
    if n < 1:
        raise ValueError(f"audit_empirical_k: n must be >= 1, got {n}")
    idx = np.sort(rng.permutation(dataset.n)[:n])
    _, [(_, k)] = _eager_passes(model, dataset.images[idx], [(sigma, rng)])
    return _k_statistics(Tensor(k), l_n)
