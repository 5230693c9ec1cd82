"""Dataset ingestion and preparation: IDX parsing, subsampling, batching,
and two built-in synthetic datasets that need no downloaded files (2-D blobs
and procedural 28x28 digits)."""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .ioutil import atomic_write_bytes
from .layers import _helper
from .seeding import derive_rng

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxError(ValueError):
    """An IDX file that cannot be parsed, or an image/label pair that disagrees."""


@dataclass(frozen=True)
class Provenance:
    """A dataset's file or generator and its seed; derived datasets keep it."""
    source: str
    seed: int | None = None

    def as_dict(self) -> dict:
        return {"source": self.source, "seed": self.seed}


@dataclass
class LabeledDataset:
    """Images (float64, in [0,1] from load_idx and synthetic_digits) plus int labels.

    Instances are treated as immutable after construction; derived datasets
    share arrays where contents are unchanged.
    """
    images: np.ndarray
    labels: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError(f"{self.images.shape[0]} images but {self.labels.shape[0]} labels")
        if self.labels.shape[0] == 0:
            raise ValueError("empty dataset")
        if self.labels.min() < 0 or self.labels.max() >= 10:
            raise ValueError("labels must lie in [0, 10)")

    @property
    def n(self) -> int:
        return self.labels.shape[0]


def _read_maybe_gzip(path) -> bytes:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:2] != b"\x1f\x8b":
        return blob
    try:
        return gzip.decompress(blob)
    except (EOFError, OSError, zlib.error) as e:  # gzip.BadGzipFile is an OSError
        raise IdxError(f"{path}: corrupt gzip stream: {e}") from None


def _parse_idx(blob: bytes, expect_magic: int, path) -> np.ndarray:
    if len(blob) < 8:
        raise IdxError(f"{path}: only {len(blob)} bytes, no header")
    (magic,) = struct.unpack_from(">I", blob, 0)
    if magic != expect_magic:
        raise IdxError(f"{path}: magic 0x{magic:08x}, expected 0x{expect_magic:08x}")
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(blob) < header_len:
        raise IdxError(f"{path}: header cut short")
    dims = struct.unpack_from(f">{ndim}I", blob, 4)
    count = math.prod(dims)  # exact: np.prod wraps at 2**64
    payload = memoryview(blob)[header_len:]  # a view: no copy of the payload
    if len(payload) < count:
        raise IdxError(f"{path}: payload has {len(payload)} bytes, expected {count}")
    if len(payload) > count:
        raise IdxError(f"{path}: {len(payload) - count} trailing bytes after payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Parse an IDX image/label file pair (plain or gzip).

    Pixels are big-endian u8, scaled to [0,1] by /255. The image and label
    counts are cross-checked.
    """
    images_u8 = _parse_idx(_read_maybe_gzip(images_path), IDX_IMAGE_MAGIC, images_path)
    labels_u8 = _parse_idx(_read_maybe_gzip(labels_path), IDX_LABEL_MAGIC, labels_path)
    if images_u8.shape[0] != labels_u8.shape[0]:
        raise IdxError(f"{images_path} has {images_u8.shape[0]} images but "
                       f"{labels_path} has {labels_u8.shape[0]} labels")
    n, h, w = images_u8.shape
    images = np.divide(images_u8.reshape(n, 1, h, w), 255.0, dtype=np.float64)  # one copy
    try:
        return LabeledDataset(images, labels_u8.astype(np.int64),
                              Provenance(source=str(images_path)))
    except ValueError as e:  # no images, or a label outside [0, 10)
        raise IdxError(f"{images_path}, {labels_path}: {e}") from None


def save_idx(images_u8: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write a u8 image stack (N,H,W) and labels (N,) in IDX layout."""
    images_u8 = np.asarray(images_u8, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, h, w = images_u8.shape
    atomic_write_bytes(images_path,
                       struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w) + images_u8.tobytes())
    atomic_write_bytes(labels_path,
                       struct.pack(">II", IDX_LABEL_MAGIC, labels.shape[0]) + labels.tobytes())


def subsample(ds: LabeledDataset, ratio: float, seed) -> LabeledDataset:
    """Uniform sample without replacement of floor(ratio*N) items.

    Selected indices keep their original relative order; a ratio that keeps
    every sample returns ds itself.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"subsample: ratio must be in (0, 1], got {ratio}")
    size = int(ratio * ds.n)
    if size < 1:
        raise ValueError(f"subsample: ratio {ratio} of {ds.n} samples selects nothing")
    if size == ds.n:
        return ds
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.permutation(ds.n)[:size])
    return LabeledDataset(ds.images[idx], ds.labels[idx], ds.provenance)


def batches(ds: LabeledDataset, batch_size: int, shuffle_seed):
    """One epoch of (images, labels) batches in a seeded shuffled order.

    The final short batch is included. Call once per epoch with a derived
    per-epoch seed to reshuffle.
    """
    if batch_size < 1:
        raise ValueError(f"batches: batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(shuffle_seed).permutation(ds.n)
    for start in range(0, ds.n, batch_size):
        idx = order[start:start + batch_size]
        yield ds.images[idx], ds.labels[idx]


_BLOB_CENTERS = ((-1.5, -1.5), (1.5, 1.5))
_BLOB_STD = 0.5  # about one point in 10^5 falls on the other centre's side of the midline


def synthetic_blobs(n: int, seed: int) -> LabeledDataset:
    """Two well-separated 2-D Gaussian clusters; labels 0 and 1."""
    rng = derive_rng(seed, "blobs")
    labels = rng.integers(0, 2, size=n)
    c = np.asarray(_BLOB_CENTERS, dtype=np.float64)
    points = c[labels] + rng.normal(0.0, _BLOB_STD, size=(n, 2))
    return LabeledDataset(points, labels, Provenance(source="synthetic_blobs", seed=seed))


# 5x7 digit glyphs, one string per row, '#' = ink.
_DIGIT_GLYPHS = [
    (".###.", "#...#", "#..##", "#.#.#", "##..#", "#...#", ".###."),
    ("..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."),
    (".###.", "#...#", "....#", "...#.", "..#..", ".#...", "#####"),
    ("#####", "...#.", "..#..", "...#.", "....#", "#...#", ".###."),
    ("...#.", "..##.", ".#.#.", "#..#.", "#####", "...#.", "...#."),
    ("#####", "#....", "####.", "....#", "....#", "#...#", ".###."),
    ("..##.", ".#...", "#....", "####.", "#...#", "#...#", ".###."),
    ("#####", "....#", "...#.", "..#..", ".#...", ".#...", ".#..."),
    (".###.", "#...#", "#...#", ".###.", "#...#", "#...#", ".###."),
    (".###.", "#...#", "#...#", ".####", "....#", "...#.", ".##.."),
]


def _digit_templates() -> np.ndarray:
    """The ten glyphs rendered as 28x28 float templates."""
    out = np.zeros((10, 28, 28))
    for d, rows in enumerate(_DIGIT_GLYPHS):
        bitmap = np.array([[1.0 if ch == "#" else 0.0 for ch in row] for row in rows])
        big = np.kron(bitmap, np.ones((4, 4)))  # 28 x 20
        out[d, :, 4:24] = big
    return out


# Rows per chunk; its blocks of one blur radius hold about 64 images, which stay in cache. On a
# 2-core Xeon 5000 digits took 80-89 ms in chunks of 256, 83-87 at 512, 92-96 at 128 or 1024.
_DIGIT_ROWS = 256
_HELPER_DIGITS = 128  # the helper gained in 8 of 9 timing runs here but in only 6 of 9 at 64


def synthetic_digits(n: int, seed: int) -> LabeledDataset:
    """Procedural ten-class 28x28 digit images: glyph templates with random shift, blur,
    stroke intensity, and clipped pixel noise. Deterministic in the seed; pixels stay in [0,1].
    From _HELPER_DIGITS digits a layers._helper thread draws the noise, then helps blur."""
    rng = derive_rng(seed, "digits")
    labels = rng.integers(0, 10, size=n)
    shifts = rng.integers(-3, 4, size=(n, 2))
    blurs = rng.uniform(0.4, 1.3, size=n)
    strengths = rng.uniform(0.6, 1.0, size=n)
    # image i is its template moved by shifts[i], zeros filling in behind
    padded = np.pad(_digit_templates(), ((0, 0), (3, 3), (3, 3)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (28, 28), axis=(1, 2))
    images, radii = np.empty((n, 1, 28, 28)), _blur_radii(blurs)
    chunks = [slice(s, s + _DIGIT_ROWS) for s in range(0, n, _DIGIT_ROWS)]
    todo = [None, None] + chunks[::-1]  # popped in row order; a None ends a thread

    def draw(rows):  # straight into the images: rng.normal(0, 0.06)'s values, chunk by chunk
        np.multiply(rng.standard_normal(out=images[rows]), 0.06, out=images[rows])

    def blur():
        for rows in iter(todo.pop, None):  # list.pop is atomic: each chunk is taken once
            ink = np.empty_like(images[rows, 0])  # blurred glyphs times stroke strength
            for r in np.unique(radii[rows]):  # one numpy call per blur radius
                b = rows.start + np.flatnonzero(radii[rows] == r)
                glyphs = windows[labels[b], 3 - shifts[b, 0], 3 - shifts[b, 1]]
                ink[b - rows.start] = _gaussian_blur(glyphs, blurs[b]) * strengths[b, None, None]
            drawn[rows.start].result()  # noise + ink == ink + noise, bit for bit
            np.clip(images[rows, 0] + ink, 0.0, 1.0, out=images[rows, 0])

    with _helper(n >= _HELPER_DIGITS) as run:
        drawn = {rows.start: run(draw, rows) for rows in chunks}  # a helper draws, then blurs
        helped = run(blur)
        blur()
        helped.result()
    return LabeledDataset(images, labels, Provenance(source="synthetic_digits", seed=seed))


def _blur_radii(sigmas: np.ndarray) -> np.ndarray:
    """Kernel radius per sigma: int(4 sigma + 0.5), scipy's default truncation."""
    return (4.0 * sigmas + 0.5).astype(np.int64)


def _gaussian_blur(images: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Each image of a (B, H, W) stack blurred by its own sigma; the sigmas
    share one kernel radius. Bitwise scipy.ndimage.gaussian_filter: the same
    normalised kernel and 'reflect' edges, and the centre tap first, then
    each symmetric pair from the outermost inward, rows then columns."""
    (radius,) = np.unique(_blur_radii(sigmas))
    taps = np.arange(-radius, radius + 1)
    weights = np.exp((-0.5 / (sigmas * sigmas))[:, None] * taps ** 2)
    weights = (weights / weights.sum(axis=1, keepdims=True))[:, :, None, None]
    for _ in range(2):  # axis 1 each time, then swap it with axis 2
        h = images.shape[1]
        ext = np.pad(images, ((0, 0), (radius, radius), (0, 0)), mode="symmetric")
        images = ext[:, radius:radius + h] * weights[:, radius]
        pair = np.empty_like(images)  # one buffer for every tap pair
        for j in range(radius, 0, -1):
            np.add(ext[:, radius - j:radius - j + h], ext[:, radius + j:radius + j + h],
                   out=pair)
            pair *= weights[:, radius - j]
            images += pair
        images = images.transpose(0, 2, 1)
    return images
