"""Dataset ingestion and preparation: IDX parsing, subsampling, Gaussian
test corruption, batching, and two built-in synthetic datasets that need no
downloaded files (2-D blobs and procedural 28x28 digits)."""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .seeding import derive_rng, seed_repr

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxError(ValueError):
    """Base for IDX parsing failures."""


class IdxMagicError(IdxError):
    pass


class IdxTruncatedError(IdxError):
    pass


class IdxCountMismatchError(IdxError):
    pass


@dataclass(frozen=True)
class Provenance:
    source: str
    sigma_test: float = 0.0
    subset_ratio: float = 1.0
    seed: int | list[int] | None = None

    def as_dict(self) -> dict:
        return {"source": self.source, "sigma_test": self.sigma_test,
                "subset_ratio": self.subset_ratio, "seed": self.seed}


@dataclass
class LabeledDataset:
    """Images (float64, [0,1] when uncorrupted) plus integer labels.

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
        raise IdxTruncatedError(f"{path}: only {len(blob)} bytes, no header")
    (magic,) = struct.unpack_from(">I", blob, 0)
    if magic != expect_magic:
        raise IdxMagicError(f"{path}: magic 0x{magic:08x}, expected 0x{expect_magic:08x}")
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(blob) < header_len:
        raise IdxTruncatedError(f"{path}: header cut short")
    dims = struct.unpack_from(f">{ndim}I", blob, 4)
    count = math.prod(dims)  # exact: np.prod wraps at 2**64
    payload = blob[header_len:]
    if len(payload) < count:
        raise IdxTruncatedError(f"{path}: payload has {len(payload)} bytes, expected {count}")
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
        raise IdxCountMismatchError(
            f"{images_path} has {images_u8.shape[0]} images but "
            f"{labels_path} has {labels_u8.shape[0]} labels")
    n, h, w = images_u8.shape
    images = images_u8.astype(np.float64).reshape(n, 1, h, w) / 255.0
    return LabeledDataset(images, labels_u8.astype(np.int64),
                          Provenance(source=str(images_path)))


def save_idx(images_u8: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write a u8 image stack (N,H,W) and labels (N,) in IDX layout."""
    images_u8 = np.asarray(images_u8, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, h, w = images_u8.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w))
        f.write(images_u8.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def subsample(ds: LabeledDataset, ratio: float, seed) -> LabeledDataset:
    """Uniform sample without replacement of floor(ratio*N) items.

    Selected indices keep their original relative order, so ratio=1.0 is the
    identity (same arrays, same order).
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"subsample: ratio must be in (0, 1], got {ratio}")
    size = int(ratio * ds.n)
    if size < 1:
        raise ValueError(f"subsample: ratio {ratio} of {ds.n} samples selects nothing")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.permutation(ds.n)[:size])
    prov = replace(ds.provenance, subset_ratio=ratio * ds.provenance.subset_ratio)
    if size == ds.n:
        return LabeledDataset(ds.images, ds.labels, prov)
    return LabeledDataset(ds.images[idx], ds.labels[idx], prov)


def corrupt(ds: LabeledDataset, sigma_test: float, seed) -> LabeledDataset:
    """Add per-pixel N(0, sigma_test) noise. No clipping: corrupted pixels
    may leave [0,1], which keeps the perturbation norm unbiased. sigma_test=0
    returns a bit-identical copy. Labels are untouched."""
    if sigma_test < 0:
        raise ValueError(f"corrupt: sigma_test must be >= 0, got {sigma_test}")
    prov = replace(ds.provenance, sigma_test=float(sigma_test), seed=seed_repr(seed))
    if sigma_test == 0:
        return LabeledDataset(ds.images, ds.labels, prov)
    rng = np.random.default_rng(seed)
    noisy = ds.images + rng.normal(0.0, sigma_test, size=ds.images.shape)
    return LabeledDataset(noisy, ds.labels, prov)


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


def synthetic_blobs(n: int, seed: int, centers=((-1.5, -1.5), (1.5, 1.5)),
                    std: float = 0.5) -> LabeledDataset:
    """Two well-separated 2-D Gaussian clusters; labels 0 and 1."""
    rng = derive_rng(seed, "blobs")
    labels = rng.integers(0, 2, size=n)
    c = np.asarray(centers, dtype=np.float64)
    points = c[labels] + rng.normal(0.0, std, size=(n, 2))
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


def synthetic_digits(n: int, seed: int) -> LabeledDataset:
    """Procedural ten-class 28x28 digit images: glyph templates with random
    shift, blur, stroke intensity, and clipped pixel noise. Deterministic in
    the seed; pixels stay in [0,1]."""
    rng = derive_rng(seed, "digits")
    templates = _digit_templates()
    labels = rng.integers(0, 10, size=n)
    shifts = rng.integers(-3, 4, size=(n, 2))
    blurs = rng.uniform(0.4, 1.3, size=n)
    strengths = rng.uniform(0.6, 1.0, size=n)
    noise = rng.normal(0.0, 0.06, size=(n, 28, 28))
    images = np.empty((n, 1, 28, 28))
    for i in range(n):
        img = _place_shifted(templates[labels[i]], shifts[i, 0], shifts[i, 1])
        img = ndimage.gaussian_filter(img, blurs[i]) * strengths[i]
        images[i, 0] = np.clip(img + noise[i], 0.0, 1.0)
    return LabeledDataset(images, labels, Provenance(source="synthetic_digits", seed=seed))


def _place_shifted(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(img)
    h, w = img.shape
    ys = slice(max(dy, 0), min(h + dy, h))
    xs = slice(max(dx, 0), min(w + dx, w))
    ys_src = slice(max(-dy, 0), min(h - dy, h))
    xs_src = slice(max(-dx, 0), min(w - dx, w))
    out[ys, xs] = img[ys_src, xs_src]
    return out
