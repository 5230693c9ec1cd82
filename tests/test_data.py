"""IDX parsing, corruption, subsampling, batching, synthetic datasets."""

import gzip
import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from lipnet import (IdxCountMismatchError, IdxError, IdxMagicError,
                    IdxTruncatedError, LabeledDataset, Provenance, batches,
                    corrupt, load_idx, save_idx, subsample, synthetic_blobs,
                    synthetic_digits)
from lipnet.data import IDX_IMAGE_MAGIC
from lipnet.seeding import derive_key


def write_pair(tmp_path, n=20, h=6, w=5, seed=0, gz=False):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, h, w)).astype(np.uint8)
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    ip, lp = tmp_path / "imgs", tmp_path / "labs"
    save_idx(images, labels, ip, lp)
    if gz:
        for p in (ip, lp):
            gzp = p.with_suffix(".gz")
            gzp.write_bytes(gzip.compress(p.read_bytes()))
            p.unlink()
        ip, lp = ip.with_suffix(".gz"), lp.with_suffix(".gz")
    return images, labels, ip, lp


def test_idx_round_trip(tmp_path):
    images, labels, ip, lp = write_pair(tmp_path)
    ds = load_idx(ip, lp)
    assert ds.images.shape == (20, 1, 6, 5)
    assert ds.images.dtype == np.float64
    np.testing.assert_array_equal(ds.images[:, 0] * 255.0, images.astype(np.float64))
    np.testing.assert_array_equal(ds.labels, labels)
    assert 0.0 <= ds.images.min() and ds.images.max() <= 1.0


def test_idx_gzip_transparent(tmp_path):
    images, labels, ip, lp = write_pair(tmp_path, gz=True)
    ds = load_idx(ip, lp)
    np.testing.assert_array_equal(ds.images[:, 0] * 255.0, images.astype(np.float64))


def test_idx_magic_error(tmp_path):
    images, labels, ip, lp = write_pair(tmp_path)
    blob = bytearray(ip.read_bytes())
    blob[3] = 0x99
    ip.write_bytes(bytes(blob))
    with pytest.raises(IdxMagicError, match="magic"):
        load_idx(ip, lp)


def test_idx_truncation_error(tmp_path):
    images, labels, ip, lp = write_pair(tmp_path)
    ip.write_bytes(ip.read_bytes()[:-7])
    with pytest.raises(IdxTruncatedError):
        load_idx(ip, lp)


def test_idx_trailing_bytes_error(tmp_path):
    images, labels, ip, lp = write_pair(tmp_path)
    ip.write_bytes(ip.read_bytes() + b"\x00")
    with pytest.raises(IdxError, match="trailing"):
        load_idx(ip, lp)


@pytest.mark.parametrize("damage", ["cut", "flip", "append"])
def test_idx_corrupt_gzip_is_idx_error_naming_path(tmp_path, damage):
    images, labels, ip, lp = write_pair(tmp_path, gz=True)
    blob = bytearray(ip.read_bytes())
    if damage == "cut":
        del blob[len(blob) // 2:]
    elif damage == "flip":
        blob[len(blob) // 2] ^= 0xFF
    else:
        blob += b"abc"
    ip.write_bytes(bytes(blob))
    with pytest.raises(IdxError, match=re.escape(str(ip))):
        load_idx(ip, lp)


@pytest.mark.parametrize("payload", [b"", b"\x00" * 5], ids=["empty", "5_bytes"])
def test_idx_extent_product_does_not_wrap(tmp_path, payload):
    # 2**31 * 2**31 * 4 == 2**64, which a uint64 product wraps to 0
    images, labels, ip, lp = write_pair(tmp_path)
    ip.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2**31, 2**31, 4) + payload)
    with pytest.raises(IdxTruncatedError, match=re.escape(str(ip))):
        load_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    images, labels, ip, lp = write_pair(tmp_path)
    save_idx(images, labels[:-1], ip, lp)
    with pytest.raises(IdxCountMismatchError):
        load_idx(ip, lp)


def test_dataset_validation():
    with pytest.raises(ValueError, match="labels"):
        LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), Provenance("x"))
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 10]), Provenance("x"))


@given(st.integers(1, 40), st.floats(0.01, 1.0))
def test_subsample_size_floor(n, ratio):
    ds = synthetic_blobs(max(n, 2), seed=0)
    want = int(ratio * ds.n)
    if want < 1:
        with pytest.raises(ValueError):
            subsample(ds, ratio, seed=1)
    else:
        assert subsample(ds, ratio, seed=1).n == want


def test_subsample_identity_at_ratio_one():
    ds = synthetic_blobs(50, seed=3)
    out = subsample(ds, 1.0, seed=9)
    assert out.images is ds.images and out.labels is ds.labels


def test_subsample_preserves_order_and_is_seeded():
    ds = synthetic_digits(60, seed=5)
    a = subsample(ds, 0.5, seed=2)
    b = subsample(ds, 0.5, seed=2)
    c = subsample(ds, 0.5, seed=3)
    np.testing.assert_array_equal(a.images, b.images)
    assert (a.labels != c.labels).any() or (a.images != c.images).any()
    # selected rows appear in original relative order
    idx = [int(np.flatnonzero((ds.images == img).all(axis=(1, 2, 3)))[0])
           for img in a.images[:10]]
    assert idx == sorted(idx)


def test_corrupt_sigma_zero_bit_identical():
    ds = synthetic_digits(10, seed=1)
    out = corrupt(ds, 0.0, seed=4)
    assert out.images.tobytes() == ds.images.tobytes()
    assert out.provenance.sigma_test == 0.0


def test_corrupt_records_seed_losslessly():
    ds = synthetic_blobs(4, seed=0)
    key = derive_key(3, "sigma", "0.5")
    assert corrupt(ds, 0.5, key).provenance.seed == key
    assert corrupt(ds, 0.5, np.int64(7)).provenance.seed == 7
    assert corrupt(ds, 0.0, None).provenance.seed is None


def test_corrupt_is_seeded_and_unclipped():
    ds = synthetic_digits(50, seed=1)
    a = corrupt(ds, 1.0, seed=4)
    b = corrupt(ds, 1.0, seed=4)
    c = corrupt(ds, 1.0, seed=5)
    assert a.images.tobytes() == b.images.tobytes()
    assert a.images.tobytes() != c.images.tobytes()
    assert a.images.min() < 0.0 and a.images.max() > 1.0  # no clipping
    np.testing.assert_array_equal(a.labels, ds.labels)


def test_corrupt_noise_is_gaussian():
    ds = synthetic_digits(100, seed=1)
    sigma = 0.7
    noise = (corrupt(ds, sigma, seed=8).images - ds.images).ravel()
    assert abs(noise.mean()) < 0.01
    assert abs(noise.std() - sigma) < 0.01
    assert stats.kstest(noise / sigma, "norm").pvalue > 1e-3


def test_corrupt_rejects_negative_sigma():
    with pytest.raises(ValueError):
        corrupt(synthetic_blobs(4, seed=0), -0.1, seed=0)


def test_batches_partition_exactly_once():
    ds = synthetic_blobs(25, seed=2)
    seen = []
    for xb, yb in batches(ds, 4, shuffle_seed=7):
        assert xb.shape[0] == yb.shape[0]
        seen.extend(xb[:, 0].tolist())
    assert len(seen) == 25
    assert sorted(seen) == sorted(ds.images[:, 0].tolist())


def test_batches_shuffle_depends_on_seed():
    ds = synthetic_blobs(30, seed=2)
    a = np.concatenate([y for _, y in batches(ds, 10, shuffle_seed=1)])
    b = np.concatenate([y for _, y in batches(ds, 10, shuffle_seed=1)])
    c = np.concatenate([y for _, y in batches(ds, 10, shuffle_seed=2)])
    np.testing.assert_array_equal(a, b)
    assert (a != c).any()


def test_synthetic_blobs_structure():
    ds = synthetic_blobs(400, seed=9)
    assert ds.images.shape == (400, 2)
    assert set(np.unique(ds.labels)) == {0, 1}
    centers = np.array([ds.images[ds.labels == c].mean(axis=0) for c in (0, 1)])
    np.testing.assert_allclose(centers[0], [-1.5, -1.5], atol=0.15)
    np.testing.assert_allclose(centers[1], [1.5, 1.5], atol=0.15)


def test_synthetic_digits_structure():
    ds = synthetic_digits(300, seed=9)
    twin = synthetic_digits(300, seed=9)
    assert ds.images.shape == (300, 1, 28, 28)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert set(np.unique(ds.labels)) == set(range(10))
    assert ds.images.tobytes() == twin.images.tobytes()
    # same class still varies between draws
    zero_idx = np.flatnonzero(ds.labels == 0)[:2]
    assert (ds.images[zero_idx[0]] != ds.images[zero_idx[1]]).any()
