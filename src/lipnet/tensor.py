"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every differentiable operation takes an optional ``graph`` argument. When a
Graph is passed, the operation appends a node (operands, output, backward
rule) to it; ``backward`` then replays the tape in reverse. With
``graph=None`` the operation is evaluated eagerly with no recording, which
is what evaluation-only code paths use.

Stored gradients are never written in place. ``accumulate_grad`` keeps the
first contribution by reference (it may be an upstream node's gradient, a
view of it, or an array another operand also holds) and adds later ones out
of place, so one array can safely back several ``grad`` slots.

The ops here are the network's layers, its task loss and the tape plumbing
(``add``, ``reshape``, ``rows``). The Lipschitz term has no ops here:
``regularizer.quotient`` and ``regularizer.lipschitz_loss`` each record one
node with a hand-written rule through ``_record`` and ``_acc``.

Every layer is one tape node: ``conv2d`` and ``affine`` each add their bias
themselves. ``conv2d`` unrolls its input channel-major: ``cols`` has shape
``(C*kh*kw, N*Ho*Wo)``, filled by kh*kw strided slice copies, so the forward
pass is one GEMM ``kernel(F, C*kh*kw) @ cols``, to whose fresh output the bias
is added in place before the transpose to NCHW; the backward pass mirrors it
in the kernel-gradient GEMM and in col2im.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """An n-dimensional float64 array plus an optional gradient slot.

    ``data`` is always C-contiguous float64. ``grad`` starts as None; the
    first accumulation during a backward pass stores its array by reference.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        # ascontiguousarray alone would promote 0-d scalars to 1-d
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if any(n <= 0 for n in arr.shape):
            raise ValueError(f"tensor extents must be positive, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        # out of place: g may be shared with other tensors' grad slots
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Node:
    """One recorded operation: operand refs, output ref and a backward rule."""

    __slots__ = ("name", "inputs", "output", "rule")

    def __init__(self, name, inputs, output, rule):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.rule = rule


class Graph:
    """Append-only tape of recorded operations.

    Nodes are appended at creation time, so operands always precede their
    consumers and a single reverse sweep is a valid backpropagation order.
    A graph is single-use: it is rebuilt every forward pass.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.backward_done = False

    def record(self, name, inputs, output, rule) -> None:
        output.requires_grad = True  # to chain its gradient to its operands
        self.nodes.append(Node(name, inputs, output, rule))


def _acc(t: Tensor, g) -> None:
    # trainable leaves and tape outputs take gradients; constant leaves are skipped
    if t.requires_grad:
        t.accumulate_grad(g)


def _record(graph, name, inputs, out, rule) -> Tensor:
    if graph is not None:
        graph.record(name, inputs, out, rule)
    return out


def add(a: Tensor, b: Tensor, graph: Graph | None = None) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def rule(g):
        _acc(a, g)
        _acc(b, g)

    return _record(graph, "add", (a, b), out, rule)


def affine(x: Tensor, w: Tensor, b: Tensor, graph: Graph | None = None) -> Tensor:
    """x[m,k] @ w[k,n] + b[n] broadcast over rows (a dense layer)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ValueError(f"affine: needs x[m,k], w[k,n] and b[n], got {x.shape}, {w.shape}, {b.shape}")
    y = x.data @ w.data
    y += b.data
    out = Tensor(y)

    def rule(g):
        _acc(x, g @ w.data.T)
        _acc(w, x.data.T @ g)
        _acc(b, g.sum(axis=0))

    return _record(graph, "affine", (x, w, b), out, rule)


def reshape(a: Tensor, shape, graph: Graph | None = None) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def rule(g):
        _acc(a, g.reshape(a.shape))

    return _record(graph, "reshape", (a,), out, rule)


def rows(a: Tensor, start: int, stop: int, graph: Graph | None = None) -> Tensor:
    """Rows [start, stop) of a; backward scatters g into those rows of a zero gradient."""
    if not 0 <= start < stop <= a.shape[0]:
        raise ValueError(f"rows: [{start}, {stop}) is not a nonempty range of {a.shape[0]} rows")
    out = Tensor(a.data[start:stop])

    def rule(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            ga[start:stop] = g
            a.accumulate_grad(ga)

    return _record(graph, "rows", (a,), out, rule)


def relu(a: Tensor, graph: Graph | None = None) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def rule(g):
        _acc(a, g * (a.data > 0.0))

    return _record(graph, "relu", (a,), out, rule)


def softmax(a: Tensor, graph: Graph | None = None) -> Tensor:
    """Row-wise softmax with row-max subtraction for overflow safety."""
    if a.data.ndim != 2:
        raise ValueError(f"softmax: expects [rows, labels], got {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    out = Tensor(s)

    def rule(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        _acc(a, s * (g - dot))

    return _record(graph, "softmax", (a,), out, rule)


def cross_entropy(p: Tensor, labels, graph: Graph | None = None) -> Tensor:
    """Mean over rows of -log p[row, label]. ``p`` holds probabilities."""
    if p.data.ndim != 2:
        raise ValueError(f"cross_entropy: expects [rows, labels], got {p.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    rows, l = p.shape
    if labels.shape != (rows,):
        raise ValueError(f"cross_entropy: need {rows} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= l:
        raise ValueError(f"cross_entropy: label out of range [0, {l})")
    picked = np.maximum(p.data[np.arange(rows), labels], 1e-300)
    out = Tensor(-np.log(picked).mean())

    def rule(g):
        dp = np.zeros_like(p.data)
        dp[np.arange(rows), labels] = -float(g) / (rows * picked)
        _acc(p, dp)

    return _record(graph, "cross_entropy", (p,), out, rule)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, padding: int = 0,
           graph: Graph | None = None) -> Tensor:
    """Batched 2-D cross-correlation (no kernel flip) plus a per-channel bias, NCHW layout.

    Output height is floor((H + 2*padding - kh) / stride) + 1, and likewise
    for width. Implemented as a channel-major im2col + one matrix product.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ValueError(f"conv2d: expects NCHW input and FCkhkw kernel, got {x.shape} and {kernel.shape}")
    n, c, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if ck != c:
        raise ValueError(f"conv2d: input has {c} channels but kernel expects {ck}")
    if bias.shape != (f,):
        raise ValueError(f"conv2d: bias shape {bias.shape}, kernel has {f} filters")
    stride = int(stride)
    padding = int(padding)
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"conv2d: padding must be >= 0, got {padding}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if hp < kh or wp < kw:
        raise ValueError(
            f"conv2d: zero-extent output, padded input {hp}x{wp} smaller than kernel {kh}x{kw}")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1

    # channel-major padded input (C, N, Hp, Wp)
    xt = x.data.transpose(1, 0, 2, 3)
    if padding:
        xp = np.zeros((c, n, hp, wp))
        xp[:, :, padding:padding + h, padding:padding + w] = xt
    else:
        xp = xt
    # one strided copy per tap: (C, kh, kw, N, Ho, Wo) -> (C*kh*kw, N*Ho*Wo)
    cols = np.empty((c, kh, kw, n, ho, wo))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i:i + ho * stride:stride, j:j + wo * stride:stride]
    del xp  # freed early, like cols below: two eager chunks may be in flight at once
    cols = cols.reshape(c * kh * kw, n * ho * wo)
    w2 = kernel.data.reshape(f, -1)
    y = w2 @ cols
    if graph is None:  # no rule will read cols
        del cols
    y += bias.data[:, None]
    out = Tensor(np.ascontiguousarray(y.reshape(f, n, ho, wo).transpose(1, 0, 2, 3)))

    def rule(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(f, n * ho * wo)
        _acc(kernel, (g2 @ cols.T).reshape(f, c, kh, kw))
        _acc(bias, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dcols = (w2.T @ g2).reshape(c, kh, kw, n, ho, wo)
            dxp = np.zeros((c, n, hp, wp))
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i:i + ho * stride:stride, j:j + wo * stride:stride] += dcols[:, i, j]
            x.accumulate_grad(dxp[:, :, padding:padding + h, padding:padding + w].transpose(1, 0, 2, 3))

    # bias stays in the rule's closure, like cols: benchmarks/tracing.py unpacks a
    # conv2d node's inputs as exactly (x, kernel), and nothing in lipnet reads them
    return _record(graph, "conv2d", (x, kernel), out, rule)


def backward(loss: Tensor, graph: Graph) -> None:
    """Run the tape in reverse, accumulating gradients from a scalar loss.

    Each recorded node's rule executes exactly once. A graph can only be
    walked backward once; build a fresh graph per forward pass.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if graph.backward_done:
        raise RuntimeError("backward: graph already walked backward; build a new graph")
    graph.backward_done = True
    loss.accumulate_grad(np.ones_like(loss.data))
    for node in reversed(graph.nodes):
        g = node.output.grad
        if g is None:
            g = np.zeros_like(node.output.data)
        node.rule(g)


class GradCheckReport:
    """Per-parameter maximum relative error of analytic vs numeric gradients."""

    def __init__(self, per_param: dict[str, float], tol: float):
        self.per_param = per_param
        self.tol = tol
        self.max_rel_error = max(per_param.values()) if per_param else 0.0
        self.passed = self.max_rel_error < tol

    def __repr__(self):
        return (f"GradCheckReport(max_rel_error={self.max_rel_error:.3e}, "
                f"tol={self.tol:.1e}, passed={self.passed})")


def gradcheck(model, loss_fn, x: Tensor, tol: float = 1e-4, step: float = 1e-5,
              samples_per_param: int | None = None, rng=None) -> GradCheckReport:
    """Compare analytic parameter gradients against central differences.

    ``loss_fn(model, x, graph)`` must return a scalar Tensor and be
    deterministic given the parameters (seed any noise internally).
    ``samples_per_param`` limits the number of checked components per
    parameter tensor (seeded choice); None checks every component.
    Relative error uses a 1e-6 denominator floor so that components whose
    gradient is numerically zero on both sides compare as equal.
    """
    if tol <= 0:
        raise ValueError("gradcheck: tol must be positive")
    graph = Graph()
    loss = loss_fn(model, x, graph)
    for p in model.params.values():
        p.zero_grad()
    backward(loss, graph)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in model.params.items()}

    if rng is None:
        rng = np.random.default_rng(0)
    per_param = {}
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        if samples_per_param is None or samples_per_param >= flat.size:
            idx = np.arange(flat.size)
        else:
            idx = rng.choice(flat.size, size=samples_per_param, replace=False)
        worst = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            lp = loss_fn(model, x, None).item()
            flat[i] = orig - step
            lm = loss_fn(model, x, None).item()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * step)
            a = analytic[name].reshape(-1)[i]
            denom = max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, abs(a - numeric) / denom)
        per_param[name] = worst
    return GradCheckReport(per_param, tol)
