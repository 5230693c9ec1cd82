"""Outside-in tracing of lipnet.

A Tracer replaces module attributes of the lipnet package with timing
wrappers and keeps one span (name, start, end, parent, phase, thread, info)
per call in memory. No program file is changed: the wrappers are
installed by rebinding names in every ``lipnet.*`` module namespace that
holds the original function, because ``layers`` and ``regularizer`` import
the tensor ops by name (``from .tensor import conv2d``), and in module-level
dicts such as ``cli.COMMANDS`` that hold functions by value.

Backward time per op comes from wrapping each recorded ``Node.rule`` just
before the original ``backward`` walks the tape.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

MODULES = ("tensor", "layers", "regularizer", "training", "data", "cli",
           "reports", "ioutil")

# Private or method names that mark layer boundaries no public function has.
EXTRA_TARGETS = (("cli", "_run_cell"),)
METHOD_TARGETS = (("training", "SGD", "step"),)

# The step clock: the few boundaries the untraced end-to-end run needs.
CLOCK_NAMES = frozenset({
    "regularizer.aggregated_loss", "training.SGD.step", "training.train",
    "training.sweep", "regularizer.audit_empirical_k",
})


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "thread", "info")

    def __init__(self, name, parent, phase, thread):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.thread = thread
        self.start = self.end = 0.0
        self.info = None

    @property
    def dur(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _conv_shapes(x_shape, k_shape, out_shape):
    n, c = x_shape[0], x_shape[1]
    f, _, kh, kw = k_shape
    ho, wo = out_shape[2], out_shape[3]
    macs = n * f * ho * wo * c * kh * kw
    im2col_bytes = n * ho * wo * c * kh * kw * 8
    return macs, im2col_bytes


def _probe_conv2d(args, kwargs, out):
    x, kernel = args[0], args[1]
    macs, im2col = _conv_shapes(x.shape, kernel.shape, out.shape)
    return {"flops": 2 * macs, "im2col_bytes": im2col}


def _probe_matmul(args, kwargs, out):
    (m, k), n = args[0].shape, args[1].shape[1]
    return {"flops": 2 * m * k * n}


def _probe_lipschitz_loss(args, kwargs, out):
    k = _arg(args, kwargs, 0, "k").values()
    l_n = _arg(args, kwargs, 1, "params").l_n
    return {"active": int((k > l_n).sum()), "total": int(k.shape[0])}


PROBES = {
    "layers.forward": lambda a, kw, out: {
        "rows": _arg(a, kw, 1, "x").shape[0], "graph": _arg(a, kw, 2, "graph") is not None},
    "tensor.conv2d": _probe_conv2d,
    "tensor.matmul": _probe_matmul,
    "tensor.backward": lambda a, kw, out: {"nodes": len(_arg(a, kw, 1, "graph").nodes)},
    "regularizer.lipschitz_loss": _probe_lipschitz_loss,
    "regularizer.audit_empirical_k": lambda a, kw, out: {"n": int(out.values().shape[0])},
    "training.train": lambda a, kw, out: {"n": int(out[1].meta["n_train"])
                                          * len(out[1].epochs)},
    "training.sweep": lambda a, kw, out: {"n": sum(r.n for r in out.rows)},
    "data.corrupt": lambda a, kw, out: {"n": out.n},
    "data.synthetic_digits": lambda a, kw, out: {"n": out.n},
    "ioutil.atomic_write_bytes": lambda a, kw, out: {"n": len(_arg(a, kw, 1, "blob"))},
}


def _backward_flops(node, on_tape):
    """FLOPs a node's backward rule needs, from shapes and which operands
    receive gradients (trainable leaves and tape intermediates)."""
    def wants(t):
        return t.requires_grad or id(t) in on_tape

    if node.name == "conv2d":
        x, kernel = node.inputs
        macs, _ = _conv_shapes(x.shape, kernel.shape, node.output.shape)
        return 2 * macs * (wants(kernel) + wants(x))
    if node.name == "matmul":
        a, b = node.inputs
        (m, k), n = a.shape, b.shape[1]
        return 2 * m * k * n * (wants(a) + wants(b))
    return 0


class Tracer:
    """Rebinds lipnet functions to span-recording wrappers while installed.

    ``names`` limits the wrapped functions (None wraps every public function
    of MODULES plus the extra targets). ``phase`` is copied into each new
    span, so the caller can tell set-up spans from measured ones.
    """

    def __init__(self, names=None):
        self.names = names
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, probe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None, tracer.phase,
                        threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if probe is not None:
                span.info = probe(args, kwargs, out)
            return out

        return traced

    def _with_rule_spans(self, backward):
        tracer = self

        @functools.wraps(backward)
        def backward_with_rule_spans(loss, graph):
            on_tape = {id(n.output) for n in graph.nodes}
            for node in graph.nodes:
                info = {"flops": _backward_flops(node, on_tape)}
                node.rule = tracer.wrap("bwd." + node.name, node.rule,
                                        lambda a, kw, out, info=info: info)
            return backward(loss, graph)

        return backward_with_rule_spans

    def _targets(self):
        """(qualified name, original function) for every wrap target."""
        out = []
        for mod_name in MODULES:
            mod = sys.modules[f"lipnet.{mod_name}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                out.append((f"{mod_name}.{attr}", fn))
        for mod_name, attr in EXTRA_TARGETS:
            out.append((f"{mod_name}.{attr}", getattr(sys.modules[f"lipnet.{mod_name}"], attr)))
        if self.names is not None:
            out = [(q, fn) for q, fn in out if q in self.names]
        return out

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for qual, fn in self._targets():
            inner = self._with_rule_spans(fn) if qual == "tensor.backward" else fn
            wrappers[id(fn)] = self.wrap(qual, inner, PROBES.get(qual))
        for name, mod in list(sys.modules.items()):
            if name != "lipnet" and not name.startswith("lipnet."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._undo.append((setattr, mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._undo.append((dict.__setitem__, value, key, item))
                            value[key] = wrappers[id(item)]
        for mod_name, cls_name, meth in METHOD_TARGETS:
            qual = f"{mod_name}.{cls_name}.{meth}"
            if self.names is not None and qual not in self.names:
                continue
            cls = getattr(sys.modules[f"lipnet.{mod_name}"], cls_name)
            original = vars(cls)[meth]
            self._undo.append((setattr, cls, meth, original))
            setattr(cls, meth, self.wrap(qual, original))

    def uninstall(self) -> None:
        for restore, owner, key, value in reversed(self._undo):
            restore(owner, key, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump_csv(self, path) -> None:
        """Write spans as CSV: id, parent id, name, phase, thread, start, end."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        lines = ["id,parent,name,phase,thread,start,end"]
        for i, s in enumerate(self.spans):
            parent = ids.get(id(s.parent), -1) if s.parent is not None else -1
            lines.append(f"{i},{parent},{s.name},{s.phase},{s.thread},"
                         f"{s.start!r},{s.end!r}")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
