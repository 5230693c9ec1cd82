"""Layer stacks, the reference 28x28 conv net, a model registry, checkpoints.

A Model maps image batches to class-probability rows (the stack always ends
in softmax). ``_apply`` alone maps a layer kind to its tensor op. build_model
runs every layer once on a one-row zero batch, so the ops' own checks reject
a misconfigured stack before it reaches forward().

It also holds lipnet's generic thread primitives, _lone_caller, _now,
_blas_threads_split and _helper; each caller keeps its own rule for them.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import struct
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ioutil import atomic_write_bytes
from .tensor import Graph, Tensor, affine, conv2d, relu, reshape, softmax

CHECKPOINT_MAGIC = b"LIPN"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a stack; geometry fields are only read for its kind.

    conv2d uses out_channels/kernel_size/stride/padding, dense uses
    out_features. Input extents come from the previous layer's output.
    """
    kind: str
    out_channels: int = 0
    kernel_size: int = 0
    stride: int = 1
    padding: int = 0
    out_features: int = 0


class Model:
    """An ordered layer stack with named parameters.

    ``params`` iterates in creation order (layer order), which fixes the
    checkpoint record order and the optimizer update order.
    """

    def __init__(self, layers, params, input_shape):
        self.layers = list(layers)
        self.params: dict[str, Tensor] = params
        self.input_shape = tuple(input_shape)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def _apply(params, i: int, spec: LayerSpec, x: Tensor, graph: Graph | None = None) -> Tensor:
    """Layer i of a stack on x: the one place a layer kind maps to its tensor op."""
    if spec.kind == "conv2d":
        return conv2d(x, params[f"{i}.conv2d.weight"], params[f"{i}.conv2d.bias"],
                      spec.stride, spec.padding, graph)
    if spec.kind == "dense":
        return affine(x, params[f"{i}.dense.weight"], params[f"{i}.dense.bias"], graph)
    if spec.kind == "relu":
        return relu(x, graph)
    if spec.kind == "flatten":
        return reshape(x, (x.shape[0], -1), graph)
    if spec.kind == "softmax":
        return softmax(x, graph)
    raise ValueError(f"unknown layer kind {spec.kind!r}")


def build_model(specs, input_shape, seed: int) -> Model:
    """He-init parameters from the seed, running each layer once on a zero row.

    The stack must end with softmax (outputs are probability rows) and
    softmax may not appear anywhere else. Geometry the ops reject raises a
    ValueError naming the layer.
    """
    specs = list(specs)
    if not specs or specs[-1].kind != "softmax":
        raise ValueError("model stack must end with a softmax layer")
    for i, s in enumerate(specs[:-1]):
        if s.kind == "softmax":
            raise ValueError(f"layer {i}: softmax is only valid as the final layer")

    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    i, spec = 0, specs[0]  # a bad input_shape is reported as layer 0's
    try:
        x = Tensor(np.zeros((1, *input_shape)))
        for i, spec in enumerate(specs):
            # fan-in is x's second extent; an input of the wrong rank is the op's to reject
            c = x.shape[1] if x.data.ndim > 1 else 1
            if spec.kind == "conv2d":
                k = spec.kernel_size
                # kernel_size 0 draws an empty kernel, which the Tensor rejects
                std = math.sqrt(2.0 / (c * k * k)) if k else 0.0
                w = rng.normal(0.0, std, size=(spec.out_channels, c, k, k))
                params[f"{i}.conv2d.weight"] = Tensor(w, requires_grad=True)
                params[f"{i}.conv2d.bias"] = Tensor(np.zeros(spec.out_channels), requires_grad=True)
            elif spec.kind == "dense":
                w = rng.normal(0.0, math.sqrt(2.0 / c), size=(c, spec.out_features))
                params[f"{i}.dense.weight"] = Tensor(w, requires_grad=True)
                params[f"{i}.dense.bias"] = Tensor(np.zeros(spec.out_features), requires_grad=True)
            x = _apply(params, i, spec, x)
    except ValueError as e:
        raise ValueError(f"layer {i} ({spec.kind}): {e}") from None
    return Model(specs, params, input_shape)


def forward(model: Model, x: Tensor, graph: Graph | None = None) -> Tensor:
    """Run the stack on a batch; rows of the result are probability vectors."""
    expected = (x.shape[0],) + model.input_shape
    if x.shape != expected:
        raise ValueError(f"forward: input shape {x.shape}, model expects {expected}")
    for i, spec in enumerate(model.layers):
        x = _apply(model.params, i, spec, x, graph)
    return x


# OpenBLAS exports its thread controls under a build-specific name. numpy's
# ILP64 build is tried first, so scipy's own OpenBLAS, if loaded, is not picked.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"))


def _find_openblas_threads():
    """(get, set, stop) of the loaded OpenBLAS's process-wide thread count and worker
    shutdown (stop None if absent), or None without OpenBLAS or /proc/self/maps."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f
                     if "openblas" in line.lower() and ".so" in line}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        for lib in libs:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                stop = getattr(lib, "blas_thread_shutdown_", None)
                if stop is not None:
                    stop.argtypes, stop.restype = [], ctypes.c_int
                return get, put, stop
    return None


# numpy, imported above, has loaded its BLAS; the maps scan costs about 0.4 ms, so it runs once
_OPENBLAS_THREADS = _find_openblas_threads()


def _lone_caller() -> bool:
    """Whether the caller is the process's only Python thread (threads not started through
    `threading` go unseen): only it splits the BLAS count or gets a _helper thread."""
    return threading.active_count() == 1


def _now(fn, *args) -> Future:
    """fn(*args) run at once, as a finished future: a helper's share of the work without one."""
    (done := Future()).set_result(fn(*args))
    return done


@contextlib.contextmanager
def _blas_threads_split(ways: int):
    """Split the BLAS count among `ways` concurrent callers while the block runs, so they
    do not oversubscribe the cores, then restore it; yields whether it split. Each set also
    ends OpenBLAS's workers if it can: idle ones spin on a core for 0.1-0.2 s after threaded
    calls and sets, and the next threaded call restarts them. Count and shutdown are
    process-wide, and the shutdown can hang another thread's threaded call, so it splits only
    for a _lone_caller, for 2 or more ways, with OpenBLAS, at a count of 2 or more."""
    blas = _OPENBLAS_THREADS
    if ways < 2 or blas is None or not _lone_caller() or blas[0]() < 2:
        yield False
        return
    get, put, stop = blas

    def set_count(n: int) -> None:
        put(n)
        if stop is not None:
            stop()

    before = get()
    set_count(max(1, before // ways))
    try:
        yield True
    finally:
        set_count(before)


@contextlib.contextmanager
def _helper(wanted: bool):
    """Every helper thread of lipnet: yields run(fn, *args) -> Future, a one-worker pool's submit
    if wanted holds and the caller is a _lone_caller, else _now. The thread ends with the block."""
    if not (wanted and _lone_caller()):
        yield _now
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        yield pool.submit


def build_mnist_model(seed: int) -> Model:
    """The 28x28 grayscale reference net: conv 8@5x5/s2/p2, dense 128, dense 10."""
    specs = [
        LayerSpec("conv2d", out_channels=8, kernel_size=5, stride=2, padding=2),
        LayerSpec("relu"),
        LayerSpec("flatten"),
        LayerSpec("dense", out_features=128),
        LayerSpec("relu"),
        LayerSpec("dense", out_features=10),
        LayerSpec("softmax"),
    ]
    return build_model(specs, (1, 28, 28), seed)


def build_blobs_mlp(seed: int) -> Model:
    """Small dense net for the built-in 2-D two-class blob dataset."""
    specs = [
        LayerSpec("dense", out_features=32),
        LayerSpec("relu"),
        LayerSpec("dense", out_features=2),
        LayerSpec("softmax"),
    ]
    return build_model(specs, (2,), seed)


MODEL_REGISTRY = {"mnist_cnn": build_mnist_model, "blobs_mlp": build_blobs_mlp}


def _registered(name: str):
    """The builder registered as name; a ValueError lists the known names."""
    try:
        return MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise ValueError(f"unknown model {name!r}; registered: {known}") from None


def build_registered(name: str, seed: int) -> Model:
    return _registered(name)(seed)


def checkpoint_bytes(model: Model) -> bytes:
    """Serialize named parameters: magic, u32 version, then per-parameter
    records (u32 name length, name, u32 rank, u32 extents, float64 payload),
    all little-endian. Round-trips bit-exactly."""
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    for name, p in model.params.items():
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", p.data.ndim))
        chunks.append(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
        chunks.append(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return b"".join(chunks)


def save_checkpoint(model: Model, path) -> None:
    atomic_write_bytes(path, checkpoint_bytes(model))


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Parse a checkpoint file back into an ordered name->array mapping.

    Every malformed input raises a ValueError that names the path.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic {blob[:4]!r})")
    off = 4
    try:
        (version,) = struct.unpack_from("<I", blob, off)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: checkpoint format version {version}, "
                             f"expected {CHECKPOINT_VERSION}")
        off = 8
        out: dict[str, np.ndarray] = {}
        while off < len(blob):
            (nlen,) = struct.unpack_from("<I", blob, off)
            off += 4
            name = blob[off:off + nlen].decode("utf-8")
            if name in out:
                raise ValueError(f"{path}: parameter {name!r} appears twice")
            off += nlen
            (rank,) = struct.unpack_from("<I", blob, off)
            off += 4
            extents = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            end = off + 8 * math.prod(extents)
            if end > len(blob):
                raise ValueError(f"{path}: truncated checkpoint payload for {name!r}")
            out[name] = np.frombuffer(blob[off:end], dtype="<f8").reshape(extents).copy()
            off = end
    except (struct.error, UnicodeDecodeError) as e:
        raise ValueError(f"{path}: truncated or malformed checkpoint "
                         f"at byte {off}: {e}") from None
    return out


def load_checkpoint(model: Model, path) -> Model:
    """Load parameters into a freshly built model; names and shapes must match."""
    arrays = read_checkpoint(path)
    if set(arrays) != set(model.params):
        missing = sorted(set(model.params) - set(arrays))
        extra = sorted(set(arrays) - set(model.params))
        raise ValueError(f"{path}: parameter names do not match model "
                         f"(missing {missing}, unexpected {extra})")
    for name, arr in arrays.items():
        p = model.params[name]
        if arr.shape != p.data.shape:
            raise ValueError(f"{path}: {name} has shape {arr.shape}, model expects {p.data.shape}")
        p.data = np.ascontiguousarray(arr)
    return model
