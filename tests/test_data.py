"""IDX parsing, subsampling, batching, synthetic datasets."""

import gzip
import hashlib
import re
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import ndimage

import lipnet.data
from lipnet import (IdxError, LabeledDataset, Provenance, batches, load_idx, save_idx,
                    subsample, synthetic_blobs, synthetic_digits)
from lipnet.data import IDX_IMAGE_MAGIC, _blur_radii, _gaussian_blur


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
    with pytest.raises(IdxError, match="magic 0x00000899, expected 0x00000803"):
        load_idx(ip, lp)


def test_idx_truncation_error(tmp_path):
    images, labels, ip, lp = write_pair(tmp_path)
    ip.write_bytes(ip.read_bytes()[:-7])
    with pytest.raises(IdxError, match="payload has .* bytes, expected"):
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
    with pytest.raises(IdxError, match=re.escape(f"{ip}: payload has {len(payload)} bytes")):
        load_idx(ip, lp)


def test_idx_errors_are_one_class():
    # callers catch IdxError and read its message; no subclass tells the faults apart
    assert [n for n in lipnet.__all__ if n.startswith("Idx")] == ["IdxError"]
    assert not [n for n in vars(lipnet.data) if n.startswith("Idx") and n != "IdxError"]


def test_idx_count_mismatch(tmp_path):
    images, labels, ip, lp = write_pair(tmp_path)
    save_idx(images, labels[:-1], ip, lp)
    with pytest.raises(IdxError, match=re.escape(f"{ip} has 20 images but {lp} has 19 labels")):
        load_idx(ip, lp)


@pytest.mark.parametrize("n,label,fault", [(20, 10, "labels must lie in [0, 10)"),
                                           (0, 0, "empty dataset")],
                         ids=["label_10", "no_images"])
def test_idx_pair_that_is_no_dataset_is_idx_error_naming_both_files(tmp_path, n, label, fault):
    # well-formed files whose contents LabeledDataset refuses
    images, labels, ip, lp = write_pair(tmp_path, n=n)
    save_idx(images, np.full(n, label), ip, lp)
    with pytest.raises(IdxError, match=re.escape(f"{ip}, {lp}: {fault}")):
        load_idx(ip, lp)


def test_load_idx_keeps_one_float64_copy(tmp_path, traced_peak):
    # the payload is read as a view of the file's bytes and scaled into the one float64 array;
    # a copy of the payload and a second float64 array would not fit under the bound
    images, labels, ip, lp = write_pair(tmp_path, n=5000, h=28, w=28)
    peak = traced_peak(lambda: load_idx(ip, lp))
    assert peak < 8 * images.nbytes + 2 * images.nbytes
    ds = load_idx(ip, lp)
    assert ds.images.tobytes() == (images.astype(np.float64)[:, None] / 255.0).tobytes()


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


def test_derived_datasets_keep_the_generator_provenance():
    ds = synthetic_blobs(40, seed=3)
    assert ds.provenance.as_dict() == {"source": "synthetic_blobs", "seed": 3}
    assert subsample(ds, 0.5, seed=9).provenance is ds.provenance


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


@pytest.mark.parametrize("where", ["alone", "beside another thread"])
def test_synthetic_digits_bytes_are_pinned(where, request):
    # the sha256 of these images from the per-image scipy generator, which the
    # batched numpy one replaced: every synthetic dataset, checkpoint and
    # report stays byte for byte what it was, with the helper thread (alone)
    # and without it (beside another thread)
    if where != "alone":
        request.getfixturevalue("another_thread")
    ds = synthetic_digits(3000, seed=5)
    assert hashlib.sha256(ds.images.tobytes()).hexdigest() == (
        "1012fa9c0eb6e724e0b2c48f782b5da1781b525b5c9885a357b211e3c84eeb0c")


@pytest.mark.parametrize("n", [1, 63, 64, 65, lipnet.data._HELPER_DIGITS, 255, 256, 257, 513, 733])
def test_the_digit_helper_leaves_every_byte_in_place(n, monkeypatch):
    monkeypatch.setattr(lipnet.data, "_HELPER_DIGITS", 1)
    helped = synthetic_digits(n, seed=5)
    monkeypatch.setattr(lipnet.data, "_HELPER_DIGITS", 10**9)
    inline = synthetic_digits(n, seed=5)
    assert helped.images.tobytes() == inline.images.tobytes()
    assert helped.labels.tobytes() == inline.labels.tobytes()


def test_zero_digits_is_an_empty_dataset():
    with pytest.raises(ValueError, match="empty dataset"):
        synthetic_digits(0, seed=5)


@pytest.mark.parametrize("n", [2000, 5000])
def test_the_digits_hold_one_dataset_sized_array(n, traced_peak):
    # the pixel noise is drawn straight into the images, so with both threads at work the rest
    # stays under the tape-free walk's 12 MB, which a second dataset-sized array would exceed
    assert traced_peak(lambda: synthetic_digits(n, seed=5)) < n * 28 * 28 * 8 + 12e6


class _NoiseWitness:
    """A digits rng that records (thread, out array) of each standard_normal call, after
    sleeping `delay_s` seconds before it draws."""

    def __init__(self, rng, work):
        self._rng, self._work = rng, work

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, *args, out=None, **kwargs):
        time.sleep(self._work["delay_s"])
        self._work["fills"].append((threading.current_thread(), out))
        return self._rng.standard_normal(*args, out=out, **kwargs)


@pytest.fixture()
def digit_work(monkeypatch):
    """(thread, out array) of each draw of synthetic_digits' pixel noise, and (thread, sigmas)
    of each _gaussian_blur call. A blur on the caller takes 2 ms longer, so the caller cannot
    finish every chunk while the helper draws; setting `delay_s` slows every draw, and setting
    `fail_on` to "caller" or "helper" makes that thread's blur raise."""
    work = {"fills": [], "blurs": [], "delay_s": 0.0, "fail_on": None}
    derive, blur = lipnet.data.derive_rng, lipnet.data._gaussian_blur
    monkeypatch.setattr(lipnet.data, "derive_rng",
                        lambda *args: _NoiseWitness(derive(*args), work))

    def witness(images, sigmas):
        here = threading.current_thread()
        work["blurs"].append((here, sigmas))
        side = "caller" if here is threading.main_thread() else "helper"
        if side == "caller":
            time.sleep(0.002)
        if side == work["fail_on"]:
            raise RuntimeError("blur failed on purpose")
        return blur(images, sigmas)

    monkeypatch.setattr(lipnet.data, "_gaussian_blur", witness)
    return work


@pytest.mark.parametrize("where", ["alone", "alone with slow draws", "beside another thread",
                                   "below the row rule"])
def test_the_helper_draws_the_noise_and_both_threads_blur(where, digit_work, helper_starts,
                                                           request):
    # alone, the helper makes every draw, one per chunk in row order, straight into the images,
    # and both threads blur; otherwise no helper starts and everything runs on the caller.
    # Either way each row is blurred once. A chunk's noise is added only after its draw has
    # ended, so draws slowed to 20 ms each leave every byte as it was
    main = threading.main_thread()
    if where == "beside another thread":
        request.getfixturevalue("another_thread")
    if where == "alone with slow draws":
        digit_work["delay_s"] = 0.02
    n = lipnet.data._HELPER_DIGITS - 1 if where == "below the row rule" else 2000
    ds = synthetic_digits(n, seed=5)
    sigmas = np.concatenate([s for _, s in digit_work["blurs"]])
    assert sigmas.size == np.unique(sigmas).size == n  # distinct draws: each row once
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    chunk, row_bytes = lipnet.data._DIGIT_ROWS, ds.images[0].nbytes
    drawers = [t for t, _ in digit_work["fills"]]
    drawn = [((out.ctypes.data - ds.images.ctypes.data) // row_bytes, len(out))
             for _, out in digit_work["fills"]]  # (first row, rows) of each draw
    assert drawn == [(s, min(chunk, n - s)) for s in range(0, n, chunk)]
    threads = {t for t, _ in digit_work["blurs"]}
    if where.startswith("alone"):
        helper = drawers[0]
        assert helper_starts == ["data.synthetic_digits"] and helper is not main
        assert set(drawers) == {helper} and main in threads and threads <= {main, helper}
        if where == "alone":  # slow draws keep the caller waiting, so it may take every chunk
            assert helper in threads
    else:
        assert helper_starts == [] and set(drawers) == threads == {main}
    digit_work["delay_s"] = 0.0
    assert ds.images.tobytes() == synthetic_digits(n, seed=5).images.tobytes()


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_failing_blur_on_either_thread_fails_the_call(failing, digit_work):
    # the autouse no_thread_outlives_the_test fixture checks that the helper has ended
    digit_work["fail_on"] = failing
    with pytest.raises(RuntimeError, match="on purpose"):
        synthetic_digits(2000, seed=5)
    assert any(t is not threading.main_thread() for t, _ in digit_work["blurs"])


# each side at least twice the largest radius, int(4 * 1.3 + 0.5) = 5
@given(sigmas=st.lists(st.floats(0.4, 1.3), min_size=1, max_size=4),
       shape=st.sampled_from([(28, 28), (10, 10), (10, 17), (19, 12)]),
       seed=st.integers(0, 2**32 - 1))
def test_gaussian_blur_is_bitwise_scipy(sigmas, shape, seed):
    sigmas = np.array(sigmas)
    sigmas = sigmas[_blur_radii(sigmas) == _blur_radii(sigmas[:1])]  # one radius per call
    images = np.random.default_rng(seed).random((sigmas.size, *shape))
    got = _gaussian_blur(images, sigmas)
    for image, sigma, blurred in zip(images, sigmas, got):
        assert blurred.tobytes() == ndimage.gaussian_filter(image, sigma).tobytes()
