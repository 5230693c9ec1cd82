"""The quotient, hinge penalty, aggregated loss, k audit and the
distortion-radius machinery, each against an independent oracle."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial.distance import pdist

from lipnet import (Graph, GuaranteeReport, LipschitzParams, RampClassifier,
                    Tensor, aggregated_loss, audit_empirical_k, backward,
                    build_blobs_mlp, build_mnist_model, compute_rho,
                    counterexample_outside_radius, forward,
                    gradcheck, guarantee, lipschitz_loss, one_hot_labels,
                    perturb, sample_in_ball, synthetic_blobs, synthetic_digits,
                    verify_theorem1_synthetic)
from lipnet.regularizer import _k_statistics, quotient
from lipnet.seeding import derive_rng
from lipnet.tensor import add, affine, cross_entropy, reshape


def drawn_k(f, x, sigma, rng):
    """Per-row k of the analytic map f (array -> array) over one perturb draw."""
    x_bar = perturb(Tensor(x), sigma, rng).data
    return quotient(Tensor(f(x)), Tensor(f(x_bar)), x, x_bar).data


def test_params_validation():
    for sigma in (-0.1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="sigma_train"):
            LipschitzParams(sigma_train=sigma)
    with pytest.raises(ValueError):
        LipschitzParams(beta=-1.0)
    with pytest.raises(ValueError):
        LipschitzParams(l_n=0.0)
    with pytest.raises(ValueError, match="sigma_train"):
        LipschitzParams(sigma_train=0.0, beta=1.0)
    LipschitzParams(sigma_train=0.5, beta=1.0, l_n=0.01)  # valid


@pytest.mark.parametrize("field", ["beta", "l_n"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_params_reject_non_finite_beta_and_l_n(field, value):
    # an infinite l_n would report a guarantee radius of 0.0, and an infinite beta would
    # only fail in training, as a NaN loss from 0 * inf
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        LipschitzParams(sigma_train=0.5, **{field: value})


def test_perturb_sigma_zero_bit_exact():
    x = Tensor(np.linspace(0, 1, 12).reshape(3, 4))
    out = perturb(x, 0.0, np.random.default_rng(0))
    assert out.data.tobytes() == x.data.tobytes()
    assert out is not x


def test_perturb_deterministic_given_seed():
    x = Tensor(np.zeros((4, 4)))
    a = perturb(x, 0.5, np.random.default_rng(42))
    b = perturb(x, 0.5, np.random.default_rng(42))
    assert a.data.tobytes() == b.data.tobytes()


def test_perturb_monte_carlo_moments():
    # 10^6 draws at sigma=0.5: mean 0 +- 0.002, std 0.5 +- 0.002, and normal
    x = Tensor(np.zeros((1000, 1000)))
    noise = perturb(x, 0.5, np.random.default_rng(7)).data
    assert abs(noise.mean()) < 0.002
    assert abs(noise.std() - 0.5) < 0.002
    assert stats.kstest(noise.ravel() / 0.5, "norm").pvalue > 1e-3
    # no clipping: noisy digits leave [0,1] on both sides
    noisy = perturb(Tensor(synthetic_digits(50, seed=1).images), 1.0,
                    np.random.default_rng(4)).data
    assert noisy.min() < 0.0 and noisy.max() > 1.0


def test_perturb_rejects_negative_sigma():
    for sigma in (-1e-9, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="sigma"):
            perturb(Tensor(np.zeros(3)), sigma, np.random.default_rng(0))


def test_quotient_linear_map_is_exact():
    # f(x) = 2x gives k = 2 for every sample and sigma
    x = np.random.default_rng(0).random((8, 3))
    for sigma in (0.1, 1.0, 3.0):
        k = drawn_k(lambda z: z @ (2.0 * np.eye(3)).T, x, sigma, np.random.default_rng(1))
        np.testing.assert_allclose(k, 2.0, atol=1e-10)


def test_quotient_matches_drawn_noise_quotient():
    # for f(x) = Ax, k_i == ||A n_i|| / ||n_i|| with the actually drawn noise
    a = np.random.default_rng(3).normal(size=(4, 4))
    x = np.random.default_rng(4).random((6, 4))
    k = drawn_k(lambda z: z @ a.T, x, 0.7, np.random.default_rng(55))
    noise = np.random.default_rng(55).normal(0.0, 0.7, size=x.shape)
    want = np.linalg.norm(noise @ a.T, axis=1) / np.linalg.norm(noise, axis=1)
    np.testing.assert_allclose(k, want, atol=1e-10)


def test_quotient_constant_map_is_zero():
    k = _k_statistics(Tensor(drawn_k(np.zeros_like, np.ones((5, 2)), 0.5,
                                     np.random.default_rng(0))), None)
    np.testing.assert_array_equal(k.values(), 0.0)
    assert k.mean == 0.0 and k.max == 0.0


def test_quotient_square_map_near_derivative():
    # f(x) = x^2 at x=1 with tiny sigma: k -> |f'(1)| = 2
    x = np.ones((1, 1))
    for i in range(100):
        k = drawn_k(np.square, x, 1e-4, np.random.default_rng(i))
        assert 2.0 - 0.01 <= float(k[0]) <= 2.0 + 0.01


def weighted_sum(t, w, graph):
    """sum(t * w) over a 1-D tensor, as a 1x1 loss that backward accepts."""
    column = Tensor(np.broadcast_to(w, t.shape).reshape(-1, 1))
    return affine(reshape(t, (1, -1), graph), column, Tensor(np.zeros(1)), graph)


def test_quotient_gradcheck_both_outputs():
    rng = np.random.default_rng(11)
    x = rng.random((5, 6))
    x_bar = x + rng.normal(0.0, 0.3, size=x.shape)
    leaves = SimpleNamespace(params={
        "f_x": Tensor(rng.normal(size=(5, 3)), requires_grad=True),
        "f_x_bar": Tensor(rng.normal(size=(5, 3)), requires_grad=True)})
    w = rng.normal(size=5)

    def loss_fn(m, _, graph):
        k = quotient(m.params["f_x"], m.params["f_x_bar"], x, x_bar, graph)
        return weighted_sum(k, w, graph)

    report = gradcheck(leaves, loss_fn, None, tol=1e-6)
    assert report.passed, report.per_param


def test_quotient_zero_output_difference_has_zero_gradient():
    # row 0 has f(x_bar) == f(x); row 1 has ||df|| = 5 over ||dx|| = 1
    f_x = Tensor(np.array([[1.0, 2.0], [0.0, 0.0]]), requires_grad=True)
    f_x_bar = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    graph = Graph()
    k = quotient(f_x, f_x_bar, np.zeros((2, 1)), np.ones((2, 1)), graph)
    np.testing.assert_array_equal(k.data, [0.0, 5.0])
    backward(weighted_sum(k, 1.0, graph), graph)
    for t, sign in ((f_x_bar, 1.0), (f_x, -1.0)):
        assert np.isfinite(t.grad).all()
        np.testing.assert_array_equal(t.grad[0], [0.0, 0.0])
        np.testing.assert_allclose(t.grad[1], [sign * 0.6, sign * 0.8])


def make_k_stats(values, l_n=0.01):
    return _k_statistics(Tensor(np.asarray(values, dtype=np.float64)), l_n)


def test_hinge_hand_arithmetic():
    # single sample: 10 * (0.5 - 0.01) = 4.9
    loss = lipschitz_loss(make_k_stats([0.5]), LipschitzParams(0.5, 10.0, 0.01))
    assert abs(loss.item() - 4.9) < 1e-12
    # inactive hinge
    loss = lipschitz_loss(make_k_stats([0.005]), LipschitzParams(0.5, 10.0, 0.01))
    assert loss.item() == 0.0
    # per-sample hinge then mean: mean(0.01, 0) = 0.005 at beta 1
    loss = lipschitz_loss(make_k_stats([0.02, 0.005]), LipschitzParams(0.5, 1.0, 0.01))
    assert abs(loss.item() - 0.005) < 1e-12


@given(st.lists(st.floats(0, 0.1), min_size=1, max_size=12))
def test_hinge_zero_iff_all_within(ks):
    params = LipschitzParams(0.5, 3.0, 0.01)
    loss = lipschitz_loss(make_k_stats(ks), params).item()
    if all(k <= 0.01 for k in ks):
        assert loss == 0.0
    else:
        assert loss > 0.0


def test_hinge_gradcheck_away_from_kink():
    params = LipschitzParams(0.5, 4.0, 0.01)
    leaves = SimpleNamespace(params={
        "k": Tensor(np.array([0.5, 0.001, 0.02, 0.3, 0.009]), requires_grad=True)})

    def loss_fn(m, _, graph):
        return lipschitz_loss(_k_statistics(m.params["k"], params.l_n), params, graph)

    report = gradcheck(leaves, loss_fn, None, tol=1e-6)
    assert report.passed, report.per_param


def test_hinge_slope_is_beta_over_batch():
    params = LipschitzParams(0.5, 6.0, 0.01)
    stats = make_k_stats([0.5, 0.001, 0.02])
    graph = Graph()
    stats.per_sample_k.requires_grad = True
    loss = lipschitz_loss(stats, params, graph)
    backward(loss, graph)
    np.testing.assert_allclose(stats.per_sample_k.grad, [2.0, 0.0, 2.0], atol=1e-12)


def test_aggregated_loss_beta_zero_is_plain_cross_entropy(perturb_calls):
    model = build_blobs_mlp(seed=2)
    ds = synthetic_blobs(16, seed=3)
    x = Tensor(ds.images)
    loss, parts = aggregated_loss(model, x, ds.labels, LipschitzParams(),
                                  np.random.default_rng(0))
    assert perturb_calls == []
    want = cross_entropy(forward(model, x), ds.labels).item()
    assert loss.item() == want  # bit-identical, not approximately
    assert parts["lipschitz"] == 0.0


def test_aggregated_loss_inactive_hinge_equals_usual():
    model = build_blobs_mlp(seed=2)
    ds = synthetic_blobs(16, seed=3)
    params = LipschitzParams(sigma_train=0.3, beta=10.0, l_n=1e9)
    loss, parts = aggregated_loss(model, Tensor(ds.images), ds.labels, params,
                                  np.random.default_rng(0))
    assert loss.item() == parts["usual"]
    assert parts["lipschitz"] == 0.0


def test_aggregated_loss_decomposition():
    model = build_blobs_mlp(seed=2)
    ds = synthetic_blobs(16, seed=3)
    params = LipschitzParams(sigma_train=0.5, beta=10.0, l_n=1e-4)
    loss, parts = aggregated_loss(model, Tensor(ds.images), ds.labels, params,
                                  np.random.default_rng(0))
    assert parts["lipschitz"] > 0.0
    assert abs(loss.item() - (parts["usual"] + parts["lipschitz"])) < 1e-10


def test_aggregated_loss_gradcheck_active_hinge():
    model = build_blobs_mlp(seed=5)
    ds = synthetic_blobs(12, seed=6)
    params = LipschitzParams(sigma_train=0.5, beta=10.0, l_n=1e-4)
    labels = ds.labels

    def loss_fn(m, x, graph):
        return aggregated_loss(m, x, labels, params, derive_rng(99, "gc"), graph)[0]

    report = gradcheck(model, loss_fn, Tensor(ds.images))
    assert report.passed, report.per_param


def test_aggregated_loss_fused_pass_equals_two_forward_passes():
    # reference: the clean and perturbed rows forwarded separately, same x_bar
    model = build_mnist_model(seed=3)
    ds = synthetic_digits(6, seed=4)
    x = Tensor(ds.images)
    params = LipschitzParams(sigma_train=0.5, beta=10.0, l_n=1e-4)

    def grads(loss, graph):
        model.zero_grad()
        backward(loss, graph)
        return {name: p.grad.copy() for name, p in model.params.items()}

    graph = Graph()
    loss, parts = aggregated_loss(model, x, ds.labels, params,
                                  np.random.default_rng(8), graph)
    assert parts["lipschitz"] > 0.0
    fused = grads(loss, graph)

    x_bar = perturb(x, params.sigma_train, np.random.default_rng(8))
    graph = Graph()
    f_x, f_x_bar = forward(model, x, graph), forward(model, x_bar, graph)
    k = _k_statistics(quotient(f_x, f_x_bar, x.data, x_bar.data, graph), params.l_n)
    ref_loss = add(cross_entropy(f_x, ds.labels, graph),
                   lipschitz_loss(k, params, graph), graph)
    ref = grads(ref_loss, graph)

    np.testing.assert_allclose(loss.item(), ref_loss.item(), rtol=1e-12, atol=0)
    for name in ref:
        np.testing.assert_allclose(fused[name], ref[name], rtol=1e-12, atol=1e-12,
                                   err_msg=name)


@pytest.mark.parametrize("beta,nodes", [(0.0, 8), (10.0, 13)])
def test_aggregated_loss_tape_length_mnist_cnn(beta, nodes):
    # 7 layers, one node each, plus cross-entropy; beta > 0 adds 2 rows, the
    # quotient, the hinge and add
    ds = synthetic_digits(4, seed=1)
    params = LipschitzParams(sigma_train=0.5 if beta else 0.0, beta=beta, l_n=0.005)
    graph = Graph()
    aggregated_loss(build_mnist_model(seed=0), Tensor(ds.images), ds.labels, params,
                    np.random.default_rng(0), graph)
    assert len(graph.nodes) == nodes


def test_compute_rho_one_hot_ten():
    rho = compute_rho(one_hot_labels(10))
    assert abs(rho - np.sqrt(2.0) / 2.0) < 1e-12


def test_compute_rho_one_hot_thousand():
    assert compute_rho(one_hot_labels(1000)) == np.sqrt(2.0) / 2.0


def test_compute_rho_matches_pdist_oracle():
    for seed in range(5):
        labels = np.random.default_rng(seed).normal(size=(7, 3))
        want = 0.5 * pdist(labels).min()
        assert abs(compute_rho(labels) - want) < 1e-12


def test_compute_rho_scalar_labels_and_dedup():
    assert compute_rho(np.array([0.0, 1.0])) == 0.5
    assert compute_rho(np.array([0.0, 1.0, 1.0, 0.0])) == 0.5  # duplicates removed
    with pytest.raises(ValueError):
        compute_rho(np.array([2.0, 2.0]))


@given(st.floats(-5, 5), st.floats(0.1, 10))
def test_compute_rho_translation_and_scale(shift, scale):
    labels = one_hot_labels(4)
    base = compute_rho(labels)
    assert abs(compute_rho(labels + shift) - base) < 1e-9
    assert abs(compute_rho(labels * scale) - base * scale) < 1e-9


def test_guarantee_report_fields():
    report = guarantee(LipschitzParams(l_n=0.01), one_hot_labels(10))
    assert isinstance(report, GuaranteeReport)
    assert abs(report.radius - 70.71067811865476) < 1e-9
    assert abs(report.radius * report.l_n - report.rho) < 1e-12
    assert report.label_set_size == 10


def test_guarantee_radius_homogeneous():
    labels = one_hot_labels(10)
    r1 = guarantee(LipschitzParams(l_n=0.01), labels).radius
    r2 = guarantee(LipschitzParams(l_n=0.1), labels).radius
    assert abs(r1 - 10.0 * r2) < 1e-9
    for c in (2.0, 5.0, 0.25):
        rc = guarantee(LipschitzParams(l_n=0.01 * c), labels).radius
        assert abs(rc - r1 / c) < 1e-9 * max(1.0, r1 / c)


def test_ramp_classifier_is_exactly_l_lipschitz():
    labels = one_hot_labels(10)
    for l in (0.5, 1.0, 4.0):
        oracle = RampClassifier(l, labels, dim=3)
        rng = np.random.default_rng(0)
        p = rng.normal(scale=oracle.ramp_width, size=(400, 3))
        q = rng.normal(scale=oracle.ramp_width, size=(400, 3))
        df = np.linalg.norm(oracle.outputs(p) - oracle.outputs(q), axis=1)
        dx = np.linalg.norm(p - q, axis=1)
        assert (df <= l * dx * (1 + 1e-12) + 1e-12).all()
        # the bound is attained inside the ramp along axis 0
        a = np.zeros((1, 3))
        b = np.zeros((1, 3))
        a[0, 0] = 0.25 * oracle.ramp_width
        b[0, 0] = 0.75 * oracle.ramp_width
        ratio = np.linalg.norm(oracle.outputs(a) - oracle.outputs(b)) / \
            np.linalg.norm(a - b)
        assert abs(ratio - l) < 1e-12


def test_sample_in_ball_strictly_inside():
    pts = sample_in_ball(5000, 3, 2.0, np.random.default_rng(0))
    norms = np.linalg.norm(pts, axis=1)
    assert (norms < 2.0).all()
    assert norms.max() > 1.9  # actually fills the ball


def test_verify_theorem1_zero_violations_five_seeds():
    oracle = RampClassifier(1.0, one_hot_labels(10), dim=2)
    for seed in range(5):
        assert verify_theorem1_synthetic(oracle, 2000, derive_rng(seed, "thm1")) == 0


def test_verify_theorem1_radius_halves_when_l_doubles():
    labels = one_hot_labels(10)
    one, two = RampClassifier(1.0, labels), RampClassifier(2.0, labels)
    for seed in range(5):
        assert verify_theorem1_synthetic(two, 2000, derive_rng(seed, "thm1")) == 0
    norm_one = np.linalg.norm(counterexample_outside_radius(one)[1])
    norm_two = np.linalg.norm(counterexample_outside_radius(two)[1])
    assert norm_two == 0.5 * norm_one


def test_counterexample_outside_radius_flips():
    labels = one_hot_labels(10)
    oracle = RampClassifier(0.8, labels, dim=2)
    x, d, before, after = counterexample_outside_radius(oracle)
    assert before != after
    assert oracle.rho == compute_rho(labels)
    np.testing.assert_allclose(np.linalg.norm(d),
                               1.5 * compute_rho(labels) / 0.8, atol=1e-12)


@pytest.mark.parametrize("l,dim,n_classes", [(0.0, 2, 10), (float("nan"), 2, 10), (1.0, 0, 10),
                                              (1.0, 2, 1), (1.0, 2, 0)])
def test_ramp_classifier_rejects_bad_l_dim_and_label_count(l, dim, n_classes):
    with pytest.raises(ValueError, match="RampClassifier"):
        RampClassifier(l, one_hot_labels(n_classes), dim=dim)


def broadcast_classify(oracle, points):
    """The nearest label by one (n, m, label_dim) array of differences."""
    out = oracle.outputs(points)
    return np.argmin(((out[:, None, :] - oracle.labels[None, :, :]) ** 2).sum(axis=2), axis=1)


@given(st.integers(2, 12), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_classify_matches_broadcast_argmin(m, width, one_hot, seed):
    # small integer labels repeat and tie often; ties must go to the lowest index
    rng = np.random.default_rng(seed)
    labels = one_hot_labels(m) if one_hot else rng.integers(0, 3, size=(m, width)) * 1.0
    assume(not np.array_equal(labels[0], labels[1]))
    oracle = RampClassifier(1.0, labels)
    t = np.concatenate([[-1.0, 0.0, 0.5, 1.0, 2.0], rng.uniform(-0.5, 1.5, size=40)])
    points = np.zeros((t.size, 2))
    points[:, 0] = t * oracle.ramp_width
    got = oracle.classify(points)
    np.testing.assert_array_equal(got, broadcast_classify(oracle, points))
    if one_hot:
        assert got[2] == 0  # the ramp's midpoint is as near label 1 as label 0


def test_classify_memory_does_not_grow_with_label_count_squared(traced_peak):
    # the broadcast difference array is 500 * 200 * 200 floats, 160 MB
    oracle = RampClassifier(1.0, one_hot_labels(200))
    points = oracle.sample_base(500, np.random.default_rng(0))
    assert traced_peak(lambda: oracle.classify(points)) < 16e6


def test_audit_constant_model_all_zero():
    # zero weights: every input maps to the uniform row, so f is constant
    model = build_blobs_mlp(seed=1)
    for p in model.params.values():
        p.data[...] = 0.0
    ds = synthetic_blobs(40, seed=1)
    stats = audit_empirical_k(model, ds, 0.5, 30, np.random.default_rng(0), l_n=0.01)
    np.testing.assert_array_equal(stats.values(), 0.0)
    assert stats.fraction_exceeding_l_n == 0.0


def test_audit_reproducible_bit_exact():
    model = build_blobs_mlp(seed=1)
    ds = synthetic_blobs(100, seed=2)
    a = audit_empirical_k(model, ds, 0.5, 50, np.random.default_rng(3), l_n=0.01)
    b = audit_empirical_k(model, ds, 0.5, 50, np.random.default_rng(3), l_n=0.01)
    assert a.values().tobytes() == b.values().tobytes()
    assert a.mean == b.mean and a.max == b.max


def test_audit_caps_n_and_reports_fraction():
    model = build_blobs_mlp(seed=1)
    ds = synthetic_blobs(30, seed=2)
    stats = audit_empirical_k(model, ds, 0.5, 10_000, np.random.default_rng(0), l_n=1e-9)
    assert stats.values().shape == (30,)
    assert stats.fraction_exceeding_l_n == 1.0
    assert stats.max >= stats.mean >= 0.0


def test_audit_rejects_non_positive_sigma():
    model = build_blobs_mlp(seed=1)
    ds = synthetic_blobs(20, seed=2)
    for sigma in (0.0, -0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="sigma"):
            audit_empirical_k(model, ds, sigma, 10, np.random.default_rng(0))


def test_audit_rejects_n_below_one():
    model = build_blobs_mlp(seed=1)
    ds = synthetic_blobs(20, seed=2)
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            audit_empirical_k(model, ds, 0.5, n, np.random.default_rng(0))


def test_audit_equals_unchunked_reference(perturb_calls):
    # same rows, same rng draws, one unchunked forward per side: 733 rows span
    # seven full chunks and a partial one, each drawn by its own perturb call
    model = build_mnist_model(seed=4)
    ds = synthetic_digits(800, seed=5)
    audit = audit_empirical_k(model, ds, 0.5, 733, np.random.default_rng(6))
    assert len(perturb_calls) == 8
    rng = np.random.default_rng(6)
    x = ds.images[np.sort(rng.permutation(ds.n)[:733])]
    x_bar = x + rng.normal(0.0, 0.5, size=x.shape)
    want = quotient(forward(model, Tensor(x)), forward(model, Tensor(x_bar)), x, x_bar)
    np.testing.assert_allclose(audit.values(), want.data, rtol=1e-12, atol=0)
