"""Model construction, forward geometry, and the checkpoint wire format."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipnet import (CHECKPOINT_VERSION, LayerSpec, Model, Tensor, build_blobs_mlp,
                    build_mnist_model, build_model, build_registered,
                    checkpoint_bytes, forward, load_checkpoint,
                    read_checkpoint, save_checkpoint)


def test_mnist_model_shapes_and_param_count():
    model = build_mnist_model(seed=0)
    # conv 8x1x5x5 + 8, dense 1568x128 + 128, dense 128x10 + 10
    assert model.n_params == (8 * 25 + 8) + (1568 * 128 + 128) + (128 * 10 + 10)
    out = forward(model, Tensor(np.zeros((3, 1, 28, 28))))
    assert out.shape == (3, 10)


def test_forward_rows_are_probabilities():
    model = build_mnist_model(seed=1)
    x = Tensor(np.random.default_rng(0).random((4, 1, 28, 28)))
    p = forward(model, x).data
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p > 0).all()


def test_forward_validates_input_shape():
    model = build_blobs_mlp(seed=1)
    with pytest.raises(ValueError, match="expects"):
        forward(model, Tensor(np.ones((2, 3))))


def test_build_model_requires_final_softmax():
    with pytest.raises(ValueError, match="softmax"):
        build_model([LayerSpec("dense", out_features=4)], (2,), seed=0)
    with pytest.raises(ValueError, match="final"):
        build_model([LayerSpec("softmax"), LayerSpec("dense", out_features=4),
                     LayerSpec("softmax")], (2,), seed=0)


def test_bad_geometry_errors_name_layer():
    with pytest.raises(ValueError, match="layer 0"):
        build_model([LayerSpec("conv2d", out_channels=2, kernel_size=3), LayerSpec("softmax")],
                    (2,), seed=0)
    with pytest.raises(ValueError, match="dense"):
        build_model([LayerSpec("dense", out_features=4), LayerSpec("softmax")], (1, 8, 8), seed=0)
    with pytest.raises(ValueError, match=re.escape(
            "layer 0 (conv2d): conv2d: stride must be >= 1, got 0")):
        build_model([LayerSpec("conv2d", out_channels=2, kernel_size=3, stride=0),
                     LayerSpec("flatten"), LayerSpec("softmax")], (1, 8, 8), seed=0)


def test_unknown_kind_is_rejected_by_build_and_forward():
    mlp = build_blobs_mlp(seed=0)
    layers = [LayerSpec("dropout") if s.kind == "relu" else s for s in mlp.layers]
    with pytest.raises(ValueError, match=re.escape("layer 1 (dropout): unknown layer kind")):
        build_model(layers, (2,), seed=0)
    # a Model built directly skips build_model's pass; forward must not skip the layer
    with pytest.raises(ValueError, match="dropout"):
        forward(Model(layers, mlp.params, (2,)), Tensor(np.ones((3, 2))))


geometry = st.integers(-2, 6)
layer_specs = st.one_of(
    st.sampled_from([LayerSpec("relu"), LayerSpec("flatten"), LayerSpec("dropout")]),
    st.builds(LayerSpec, st.just("dense"), out_features=geometry),
    st.builds(LayerSpec, st.just("conv2d"), out_channels=geometry, kernel_size=geometry,
              stride=geometry, padding=geometry))


@settings(max_examples=200)
@given(st.lists(layer_specs, max_size=3), st.lists(st.integers(-1, 6), max_size=3),
       st.integers(0, 2**32 - 1))
def test_build_model_returns_a_working_model_or_raises_value_error(body, shape, seed):
    # the ops' own checks are the only geometry checks, so anything they let
    # through must run; anything else is a ValueError, never another type
    try:
        model = build_model(body + [LayerSpec("softmax")], tuple(shape), seed)
    except ValueError:
        return
    x = np.random.default_rng(seed).random((2, *shape))
    p = forward(model, Tensor(x)).data
    assert p.ndim == 2 and p.shape[0] == 2
    assert (p >= 0).all()
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_init_is_seeded_and_he_scaled():
    a = build_mnist_model(seed=7)
    b = build_mnist_model(seed=7)
    c = build_mnist_model(seed=8)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    assert any((a.params[n].data != c.params[n].data).any() for n in a.params)
    w = a.params["3.dense.weight"].data
    assert abs(w.std() - np.sqrt(2.0 / 1568)) < 0.005
    assert (a.params["0.conv2d.bias"].data == 0).all()


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = build_mnist_model(seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(build_mnist_model(seed=99), path)
    for name in model.params:
        assert loaded.params[name].data.tobytes() == model.params[name].data.tobytes()
    assert checkpoint_bytes(loaded) == checkpoint_bytes(model)


def test_checkpoint_magic_and_version_errors(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_checkpoint(path)
    good = checkpoint_bytes(build_blobs_mlp(seed=0))
    bumped = good[:4] + (CHECKPOINT_VERSION + 1).to_bytes(4, "little") + good[8:]
    path.write_bytes(bumped)
    with pytest.raises(ValueError, match=str(CHECKPOINT_VERSION)):
        read_checkpoint(path)


def test_checkpoint_truncation_error(tmp_path):
    blob = checkpoint_bytes(build_blobs_mlp(seed=0))
    path = tmp_path / "cut.ckpt"
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(ValueError, match="truncat"):
        read_checkpoint(path)


@pytest.mark.parametrize("cut", ["header", "first_record", "trailing"])
def test_malformed_checkpoint_is_value_error_naming_path(tmp_path, cut):
    blob = checkpoint_bytes(build_blobs_mlp(seed=0))
    bad = {"header": blob[:6], "first_record": blob[:10],
           "trailing": blob + b"\x00\x00"}[cut]
    path = tmp_path / f"{cut}.ckpt"
    path.write_bytes(bad)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_checkpoint(path)


def test_checkpoint_rejects_a_repeated_parameter(tmp_path):
    # a second record of one name would otherwise replace the first unseen
    model = build_blobs_mlp(seed=0)
    name, w = b"0.dense.weight", model.params["0.dense.weight"].data
    record = struct.pack(f"<I{len(name)}sI{w.ndim}I", len(name), name, w.ndim, *w.shape)
    path = tmp_path / "twice.ckpt"
    path.write_bytes(checkpoint_bytes(model) + record + np.full(w.shape, 7.0).tobytes())
    with pytest.raises(ValueError, match=re.escape(f"{path}: parameter '0.dense.weight'")):
        read_checkpoint(path)


def test_load_checkpoint_validates_names_and_shapes(tmp_path):
    path = tmp_path / "mlp.ckpt"
    save_checkpoint(build_blobs_mlp(seed=0), path)
    with pytest.raises(ValueError):
        load_checkpoint(build_mnist_model(seed=0), path)


def test_registry():
    assert build_registered("blobs_mlp", seed=0).input_shape == (2,)
    assert build_registered("mnist_cnn", seed=0).input_shape == (1, 28, 28)
    with pytest.raises(ValueError, match="registered"):
        build_registered("definitely_not_registered", seed=0)
