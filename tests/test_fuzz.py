"""Mutation fuzzing of the two binary readers: a truncated, bit-flipped or
extended file must fail with the reader's ValueError, never anything else."""

import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipnet import IdxError, build_blobs_mlp, checkpoint_bytes, load_idx, read_checkpoint
from lipnet.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC


def flip_bit(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def mutants(blob: bytes):
    """blob cut short, with one bit flipped, or with bytes appended."""
    return st.one_of(
        st.integers(0, len(blob) - 1).map(lambda i: blob[:i]),
        st.integers(0, 8 * len(blob) - 1).map(lambda bit: flip_bit(blob, bit)),
        st.binary(min_size=1, max_size=16).map(lambda tail: blob + tail))


def idx_pair(n=12, h=4, w=3) -> tuple[bytes, bytes]:
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(n, h, w), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    return (struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w) + images.tobytes(),
            struct.pack(">II", IDX_LABEL_MAGIC, n) + labels.tobytes())


CHECKPOINT = checkpoint_bytes(build_blobs_mlp(seed=0))
PLAIN = idx_pair()
GZIPPED = tuple(gzip.compress(b, mtime=0) for b in PLAIN)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200)
@given(mutants(CHECKPOINT))
def test_mutated_checkpoint_raises_only_value_error_naming_path(workdir, blob):
    path = workdir / "m.ckpt"
    path.write_bytes(blob)
    try:
        read_checkpoint(path)
    except ValueError as e:
        assert str(path) in str(e)


@pytest.mark.parametrize("pair", [PLAIN, GZIPPED], ids=["plain", "gzip"])
@settings(max_examples=200)
@given(which=st.integers(0, 1), data=st.data())
def test_mutated_idx_pair_raises_only_value_error(workdir, pair, which, data):
    paths = (workdir / "images", workdir / "labels")
    blobs = list(pair)
    blobs[which] = data.draw(mutants(blobs[which]))
    for path, blob in zip(paths, blobs):
        path.write_bytes(blob)
    try:
        load_idx(*paths)
    except IdxError as e:
        assert str(paths[which]) in str(e)
