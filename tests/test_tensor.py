"""Tensor-op unit tests: every backward rule against central differences,
plus the tape and error contracts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lipnet.tensor as T
from lipnet.tensor import Graph, Tensor, backward


def finite_diff(f, arrays, step=1e-6):
    """Central-difference gradients of scalar f(arrays) wrt each array."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = f(arrays)
            flat[i] = orig - step
            lm = f(arrays)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2 * step)
        grads.append(g)
    return grads


def weighted_sum(out, w, graph):
    """sum(out * w) as a 1x1 tape loss: the flattened out times a weight column."""
    column = Tensor(np.broadcast_to(w, out.shape).reshape(-1, 1))
    return T.affine(T.reshape(out, (1, -1), graph), column, Tensor(np.zeros(1)), graph)


def check_op(op, shapes, seed=0, atol=1e-7, rtol=1e-5):
    """Backward rule of op(*tensors) vs finite differences of a weighted sum."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    w = rng.normal(size=op(*[Tensor(a) for a in arrays]).shape)

    def scalar(arrs):
        return float((op(*[Tensor(a) for a in arrs]).data * w).sum())

    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    graph = Graph()
    loss = weighted_sum(op(*tensors, graph=graph), w, graph)
    backward(loss, graph)
    numeric = finite_diff(scalar, [a.copy() for a in arrays])
    for t, num in zip(tensors, numeric):
        np.testing.assert_allclose(t.grad, num, atol=atol, rtol=rtol)


def test_add_backward():
    check_op(T.add, [(3, 4), (3, 4)])


def test_affine_backward():
    check_op(T.affine, [(3, 4), (4, 5), (5,)])


def test_reshape_backward():
    check_op(lambda a, graph=None: T.reshape(a, (2, 6), graph), [(3, 4)])


def test_rows_backward():
    check_op(lambda a, graph=None: T.rows(a, 1, 3, graph), [(4, 3)])


def test_rows_rejects_empty_or_out_of_range():
    a = Tensor(np.ones((4, 2)))
    for start, stop in ((2, 2), (-1, 2), (3, 5)):
        with pytest.raises(ValueError, match="rows"):
            T.rows(a, start, stop)


def test_relu_backward():
    # values away from 0 so the kink cannot corrupt the finite difference
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    a[np.abs(a) < 0.1] = 0.5
    t = Tensor(a, requires_grad=True)
    graph = Graph()
    backward(weighted_sum(T.relu(t, graph), 1.0, graph), graph)
    np.testing.assert_array_equal(t.grad, (a > 0).astype(float))


def test_softmax_backward():
    check_op(T.softmax, [(3, 5)])


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 2), (1, 1), (3, 0)])
def test_conv2d_backward(stride, padding):
    check_op(lambda x, k, b, graph=None: T.conv2d(x, k, b, stride, padding, graph),
             [(2, 2, 7, 7), (3, 2, 3, 3), (3,)])


def test_cross_entropy_backward():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])

    def scalar(arrs):
        return T.cross_entropy(T.softmax(Tensor(arrs[0])), labels).item()

    t = Tensor(logits.copy(), requires_grad=True)
    graph = Graph()
    backward(T.cross_entropy(T.softmax(t, graph), labels, graph), graph)
    numeric = finite_diff(scalar, [logits.copy()])[0]
    np.testing.assert_allclose(t.grad, numeric, atol=1e-7, rtol=1e-5)


def conv2d_reference(x, k, b, stride, padding):
    """Independent brute-force cross-correlation oracle plus per-channel bias."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    for r in range(n):
        for o in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[r, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[r, o, i, j] = (patch * k[o]).sum() + b[o]
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 2), (2, 1)])
def test_conv2d_forward_oracle(stride, padding):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 8, 8))
    k = rng.normal(size=(4, 3, 5, 5))
    b = rng.normal(size=4)
    got = T.conv2d(Tensor(x), Tensor(k), Tensor(b), stride, padding).data
    np.testing.assert_allclose(got, conv2d_reference(x, k, b, stride, padding),
                               atol=1e-12, rtol=1e-12)


def test_conv2d_rejects_bad_geometry():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    b = Tensor(np.zeros(3))
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(np.zeros((3, 99, 3, 3))), b)  # channel mismatch
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(np.zeros((3, 2, 3, 3))), b, stride=0)
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(np.zeros((3, 2, 9, 9))), b)  # kernel larger than input
    with pytest.raises(ValueError, match="bias"):
        T.conv2d(x, Tensor(np.zeros((3, 2, 3, 3))), Tensor(np.zeros(2)))


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.floats(-10, 10))
def test_softmax_translation_invariant(row, shift):
    a = np.array([row])
    p1 = T.softmax(Tensor(a)).data
    p2 = T.softmax(Tensor(a + shift)).data
    np.testing.assert_allclose(p1, p2, atol=1e-12)
    assert abs(p1.sum() - 1.0) < 1e-12
    assert (p1 > 0).all()


def test_softmax_extreme_logits_stay_finite():
    p = T.softmax(Tensor(np.array([[1e4, -1e4, 0.0]]))).data
    assert np.isfinite(p).all()
    assert abs(p.sum() - 1.0) < 1e-12


def test_add_shape_error_names_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 2\)"):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


@pytest.mark.parametrize("x,w,b", [
    ((2, 3, 4), (4, 2), (2,)),
    ((2, 3), (3, 2), (1, 2)),
    ((2, 3), (4, 2), (2,)),
    ((2, 3), (3, 2), (3,)),
], ids=["3d_x", "2d_bias", "inner_dims", "bias_length"])
def test_affine_rejects_bad_shapes(x, w, b):
    with pytest.raises(ValueError, match="affine"):
        T.affine(Tensor(np.zeros(x)), Tensor(np.zeros(w)), Tensor(np.zeros(b)))


def test_cross_entropy_label_validation():
    p = T.softmax(Tensor(np.zeros((2, 3))))
    with pytest.raises(ValueError):
        T.cross_entropy(p, np.array([0, 3]))
    with pytest.raises(ValueError):
        T.cross_entropy(p, np.array([0]))


def test_graph_is_single_use():
    t = Tensor(np.ones(3), requires_grad=True)
    graph = Graph()
    loss = weighted_sum(t, 1.0, graph)
    backward(loss, graph)
    with pytest.raises(RuntimeError):
        backward(loss, graph)


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    graph = Graph()
    out = T.relu(t, graph)
    with pytest.raises(ValueError):
        backward(out, graph)


def test_eager_mode_records_nothing():
    graph = Graph()
    out = T.add(Tensor(np.ones(2)), Tensor(np.ones(2)), None)
    assert len(graph) == 0
    assert out._on_tape is False


def test_constant_leaves_get_no_grad():
    a = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.full(3, 2.0))  # constant
    w = Tensor(np.full((3, 1), 2.0))  # constant weight column
    b = Tensor(np.zeros(1))  # constant bias
    graph = Graph()
    backward(T.affine(T.reshape(T.add(a, c, graph), (1, 3), graph), w, b, graph), graph)
    np.testing.assert_array_equal(a.grad, np.full(3, 2.0))
    assert c.grad is None and w.grad is None and b.grad is None


def test_grad_accumulates_across_shared_operand():
    a = Tensor(np.ones(2), requires_grad=True)
    graph = Graph()
    backward(weighted_sum(T.add(a, a, graph), 1.0, graph), graph)
    np.testing.assert_array_equal(a.grad, np.full(2, 2.0))


# Gradients are stored by reference, so one array can back several grad
# slots. These graphs share an upstream gradient between tensors that later
# receive a second contribution; an in-place accumulation would leak that
# contribution into every tensor sharing the array.

def test_grad_by_reference_add_same_operand():
    # add(t, t) stores t's first contribution as the array z also holds
    def op(t, c, graph=None):
        z = T.rows(c, 0, 3, graph)
        return T.add(T.add(t, t, graph), z, graph)

    check_op(op, [(3, 4), (3, 4)])


def test_grad_by_reference_shared_upstream_then_second_contribution():
    # the adds hand one array to p and q; both get more afterwards
    def op(a, b, v, w, graph=None):
        p, q = T.rows(a, 1, 3, graph), T.rows(b, 0, 2, graph)
        zero = Tensor(np.zeros(4))
        side = T.add(T.affine(p, w, zero, graph), T.affine(q, w, zero, graph), graph)
        return T.add(T.add(T.add(p, q, graph), v, graph), side, graph)

    check_op(op, [(3, 4), (3, 4), (2, 4), (4, 4)])


def test_tensor_is_float64_contiguous():
    a = np.asfortranarray(np.ones((3, 2), dtype=np.float32))
    t = Tensor(a)
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]


def test_tensor_rejects_zero_extent():
    with pytest.raises(ValueError):
        Tensor(np.zeros((0, 3)))


def test_cross_entropy_hand_value():
    # -log(p[label]) averaged: rows pick 0.5 and 0.25
    p = Tensor(np.array([[0.5, 0.5], [0.75, 0.25]]))
    got = T.cross_entropy(p, np.array([0, 1])).item()
    want = -(np.log(0.5) + np.log(0.25)) / 2
    assert abs(got - want) < 1e-12
