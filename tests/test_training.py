"""Training loop determinism and the evaluation protocol."""

import contextlib
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lipnet import (SGD, HyperParams, LabeledDataset, LipschitzParams, Provenance, Tensor,
                    TrainingDivergedError, audit_empirical_k, build_blobs_mlp,
                    build_mnist_model, checkpoint_bytes, evaluate, save_checkpoint, sweep,
                    synthetic_blobs, synthetic_digits, train)
from lipnet import layers, regularizer, training
from lipnet.regularizer import _eager_passes, quotient
from lipnet.reports import write_train_record
from lipnet.seeding import derive_key, derive_rng


def zeroed_blobs_model():
    model = build_blobs_mlp(seed=0)
    for p in model.params.values():
        p.data[...] = 0.0
    return model


def oracle_blobs_model():
    # hidden units h0=relu(x1+x2), h1=relu(-x1-x2); +-100 logit margins
    model = zeroed_blobs_model()
    model.params["0.dense.weight"].data[:, 0] = (1.0, 1.0)
    model.params["0.dense.weight"].data[:, 1] = (-1.0, -1.0)
    model.params["2.dense.weight"].data[0, :] = (-100.0, 100.0)
    model.params["2.dense.weight"].data[1, :] = (100.0, -100.0)
    return model


def test_hyperparams_validation():
    for bad in (dict(lr=0.0), dict(lr=-1.0), dict(epochs=0), dict(batch_size=0),
                dict(train_ratio=0.0), dict(train_ratio=1.5), dict(momentum=1.0),
                dict(momentum=-0.1)):
        with pytest.raises(ValueError):
            HyperParams(**bad)


@pytest.mark.parametrize("lr", [np.inf, -np.inf, np.nan])
def test_hyperparams_reject_a_non_finite_lr(lr):
    with pytest.raises(ValueError, match="^lr must be finite"):
        HyperParams(lr=lr)


def test_sgd_momentum_leaves_grad_unchanged():
    # stored gradients may be shared arrays, so the optimizer must not write them
    grad = np.array([1.0, -2.0, 3.0])
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = SGD(momentum=0.9)
    for _ in range(3):
        p.grad = grad
        opt.step({"w": p}, lr=0.1)
        assert p.grad is grad
        np.testing.assert_array_equal(grad, [1.0, -2.0, 3.0])
    np.testing.assert_allclose(p.data, -0.1 * (1 + 1.9 + 2.71) * grad)


@given(n=st.integers(1, 6), momentum=st.floats(0.0, 1.0, exclude_max=True),
       lr=st.floats(1e-3, 1.0), n_steps=st.integers(3, 5), data=st.data())
def test_sgd_momentum_in_place_is_the_recurrence_bit_for_bit(n, momentum, lr, n_steps, data):
    values = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n).map(np.array)
    start = data.draw(values)
    grads = [data.draw(values) for _ in range(n_steps)]
    p = Tensor(start.copy(), requires_grad=True)
    opt = SGD(momentum)
    want, v = start.copy(), None
    for step, g in enumerate(grads, start=1):
        p.grad = g
        opt.step({"w": p}, lr)
        v = g.copy() if v is None else momentum * v + g
        want -= lr * v
        assert opt.velocity["w"] is not p.grad
        if step == 2:
            velocity = opt.velocity["w"]
        elif step == 3:
            assert opt.velocity["w"] is velocity
    np.testing.assert_array_equal(p.data, want)


def test_hyperparams_lr_drops_rules():
    with pytest.raises(ValueError, match="outside"):
        HyperParams(epochs=3, lr_drops=((4, 10.0),))
    with pytest.raises(ValueError, match="increasing"):
        HyperParams(epochs=5, lr_drops=((3, 10.0), (3, 2.0)))
    with pytest.raises(ValueError, match="factor"):
        HyperParams(epochs=5, lr_drops=((3, 0.0),))
    hp = HyperParams(epochs=5, lr_drops=[[2, 10], [4, 2]])
    assert hp.lr_drops == ((2, 10.0), (4, 2.0))


@pytest.mark.parametrize("epoch", [2.9, 2.0, "2"])
def test_lr_drop_epoch_must_be_an_int(epoch):
    # int() would read 2.9 as epoch 2 and drop the rate a whole epoch early
    with pytest.raises(TypeError):
        HyperParams(epochs=3, lr_drops=[[epoch, 10.0]])


def test_train_blobs_to_high_accuracy(blobs_train, blobs_test, quick_hp):
    model, record = train(build_blobs_mlp(seed=0), blobs_train, quick_hp)
    assert evaluate(model, blobs_test)["accuracy"] >= 0.99
    assert record.meta["n_steps"] == len(record.steps)
    assert record.epochs[-1].train_acc >= 0.99


def test_train_same_seed_bit_identical(blobs_train, quick_hp):
    m1, r1 = train(build_blobs_mlp(seed=0), blobs_train, quick_hp)
    m2, r2 = train(build_blobs_mlp(seed=0), blobs_train, quick_hp)
    assert checkpoint_bytes(m1) == checkpoint_bytes(m2)
    assert [s.loss_total for s in r1.steps] == [s.loss_total for s in r2.steps]


def test_train_regularizer_suppresses_audit_k(blobs_train, blobs_test, quick_hp):
    prop_hp = replace(quick_hp,
                      lip=LipschitzParams(sigma_train=0.5, beta=10.0, l_n=0.005))
    std, _ = train(build_blobs_mlp(seed=0), blobs_train, quick_hp)
    prop, _ = train(build_blobs_mlp(seed=0), blobs_train, prop_hp)
    a_std = audit_empirical_k(std, blobs_test, 0.5, 300, np.random.default_rng(5))
    a_prop = audit_empirical_k(prop, blobs_test, 0.5, 300, np.random.default_rng(5))
    assert a_prop.mean < a_std.mean


def test_train_counts_perturbed_passes(blobs_train, quick_hp):
    _, record = train(build_blobs_mlp(seed=0), blobs_train, quick_hp)
    assert record.meta["perturbed_passes"] == 0
    prop_hp = replace(quick_hp,
                      lip=LipschitzParams(sigma_train=0.5, beta=10.0, l_n=0.005))
    _, record = train(build_blobs_mlp(seed=0), blobs_train, prop_hp)
    assert record.meta["perturbed_passes"] == record.meta["n_steps"]


def test_train_ratio_subsamples(blobs_train, quick_hp):
    hp = replace(quick_hp, train_ratio=0.25)
    _, record = train(build_blobs_mlp(seed=0), blobs_train, hp)
    assert record.meta["n_train"] == 150


def test_lr_drops_change_final_lr_and_weights(blobs_train, quick_hp):
    hp = replace(quick_hp, lr_drops=((2, 10.0), (4, 2.0)))
    m_drop, record = train(build_blobs_mlp(seed=0), blobs_train, hp)
    assert record.meta["final_lr"] == pytest.approx(quick_hp.lr / 20.0)
    m_flat, record = train(build_blobs_mlp(seed=0), blobs_train, quick_hp)
    assert record.meta["final_lr"] == quick_hp.lr
    assert checkpoint_bytes(m_drop) != checkpoint_bytes(m_flat)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_raises_with_step(blobs_train):
    hp = HyperParams(lr=1e160, epochs=1, batch_size=20, seed=0)
    with pytest.raises(TrainingDivergedError, match="step"):
        train(build_blobs_mlp(seed=0), blobs_train, hp)


REGULARIZED = LipschitzParams(sigma_train=0.75, beta=10.0, l_n=0.005)


def _watch_steps(monkeypatch):
    """The Python thread count at each training step."""
    at_step, real_loss = [], training.aggregated_loss

    def counted_loss(*args, **kwargs):
        at_step.append(threading.active_count())
        return real_loss(*args, **kwargs)

    monkeypatch.setattr(training, "aggregated_loss", counted_loss)
    return at_step


@pytest.mark.parametrize("where", ["alone", "beside another thread"])
def test_each_step_draws_once_ahead_alone_and_inline_beside_a_thread(
        where, blobs_train, quick_hp, perturb_calls, helper_starts, monkeypatch, request):
    # the draw of step i+1 runs on one helper thread per epoch while step i trains; beside
    # another Python thread, as in a grid's pool, every draw stays on the calling thread
    at_step = _watch_steps(monkeypatch)
    if where != "alone":
        request.getfixturevalue("another_thread")
    before = threading.active_count()
    _, record = train(build_blobs_mlp(0), blobs_train, replace(quick_hp, lip=REGULARIZED))
    n_steps = record.meta["n_steps"]
    assert len(perturb_calls) == len(at_step) == n_steps
    if where == "alone":
        assert not any(t is threading.main_thread() for t in perturb_calls)
        assert helper_starts.count("training.train") == quick_hp.epochs
        assert set(at_step) == {before + 1}
    else:
        assert all(t is threading.main_thread() for t in perturb_calls)
        assert "training.train" not in helper_starts and set(at_step) == {before}
    assert threading.active_count() == before


# the second is the CLI's default regularizer: noise set, but no penalty to spend it on
@pytest.mark.parametrize("lip", [LipschitzParams(), LipschitzParams(sigma_train=0.75, beta=0.0)])
def test_beta_zero_training_draws_nothing_and_starts_no_thread(lip, blobs_train, quick_hp,
                                                               perturb_calls, helper_starts,
                                                               monkeypatch):
    # criterion 8: plain training runs no regularizer code, a draw thread included
    at_step = _watch_steps(monkeypatch)
    before = threading.active_count()
    train(build_blobs_mlp(0), blobs_train, replace(quick_hp, lip=lip))
    assert perturb_calls == [] and "training.train" not in helper_starts
    assert set(at_step) == {before}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("failure", ["divergence", "draw"])
def test_no_draw_thread_outlives_a_failed_train(failure, blobs_train, monkeypatch):
    hp = HyperParams(lip=REGULARIZED, lr=0.1, epochs=1, batch_size=20, seed=0)
    if failure == "divergence":
        hp, error = replace(hp, lr=1e160), TrainingDivergedError
    else:
        real, drawn = regularizer.perturb, []

        def third_draw_fails(*args):
            drawn.append(1)
            if len(drawn) == 3:
                raise RuntimeError("draw failed on purpose")
            return real(*args)

        monkeypatch.setattr(regularizer, "perturb", third_draw_fails)
        error = RuntimeError
    before = threading.active_count()
    with pytest.raises(error):
        train(build_blobs_mlp(0), blobs_train, hp)
    assert threading.active_count() == before


def test_the_per_epoch_probe_still_takes_its_helper(blobs_train, quick_hp, monkeypatch,
                                                    blas_count):
    # the draw thread has ended before the probe, so the probe's split sees a lone caller
    if blas_count is None or layers._OPENBLAS_THREADS[2] is None:
        pytest.skip("no OpenBLAS loaded that can end its workers")
    probes, real_split = [], layers._blas_threads_split

    @contextlib.contextmanager
    def witnessed_split(ways):
        with real_split(ways) as split:
            probes.append(split)
            yield split

    monkeypatch.setattr(regularizer, "_blas_threads_split", witnessed_split)
    train(build_blobs_mlp(0), blobs_train, replace(quick_hp, lip=REGULARIZED))
    assert probes == [True] * quick_hp.epochs
    assert blas_count() == 2


def test_drawing_ahead_leaves_every_byte_in_place(tmp_path, perturb_calls, request):
    # 350 rows: three full batches and a short one per epoch, each drawn at its own shape
    ds = synthetic_digits(350, 8)
    hp = HyperParams(lip=REGULARIZED, lr=0.05, momentum=0.9, epochs=3, batch_size=100, seed=6)
    outputs = []
    for where in ("alone", "beside another thread"):
        if where != "alone":
            request.getfixturevalue("another_thread")
        model, record = train(build_mnist_model(4), ds, hp)
        out = tmp_path / where
        save_checkpoint(model, out / "model.ckpt")
        write_train_record(record, out)
        outputs.append([(out / name).read_bytes() for name in
                        ("model.ckpt", "train_record.csv", "train_epochs.csv")])
    assert outputs[0] == outputs[1]
    n = len(perturb_calls) // 2
    assert n == 12 and not any(t is threading.main_thread() for t in perturb_calls[:n])
    assert all(t is threading.main_thread() for t in perturb_calls[n:])


def test_evaluate_oracle_model(blobs_test):
    out = evaluate(oracle_blobs_model(), blobs_test)
    assert out["accuracy"] == 1.0
    assert out["mean_confidence_on_correct"] > 0.999


def test_evaluate_uniform_model_breaks_ties_low(blobs_test):
    # all-zero logits: every prediction is class 0 at confidence 1/2
    out = evaluate(zeroed_blobs_model(), blobs_test)
    assert out["accuracy"] == float((blobs_test.labels == 0).mean())
    assert out["mean_confidence_on_correct"] == 0.5


def test_evaluate_is_pure(blobs_test):
    model = build_blobs_mlp(seed=3)
    before = checkpoint_bytes(model)
    first = evaluate(model, blobs_test)
    second = evaluate(model, blobs_test)
    assert first == second
    assert checkpoint_bytes(model) == before


@pytest.mark.parametrize("command", ["evaluate", "sweep", "audit", "evaluate_with_helper",
                                     "sweep_with_helper", "audit_with_helper"])
def test_memory_is_bounded_by_the_chunk_not_the_dataset(command, monkeypatch, request,
                                                        traced_peak):
    # conv2d's im2col buffer is 2000 * 25 * 14 * 14 floats (78 MB) in one pass.
    # sweep and the audit draw, forward and compare their noisy rows 100 at a
    # time; the audit also holds the rows it samples, here all 2000 (12.5 MB).
    # With the helper thread two forwards are in flight, two noisy ones in sweep and the
    # audit, with at most one drawn chunk beside them, under the same bounds.
    command, with_helper, _ = command.partition("_with_helper")
    if not with_helper:
        monkeypatch.setattr(layers, "_OPENBLAS_THREADS", None)
    elif request.getfixturevalue("blas_count") is None:
        pytest.skip("no OpenBLAS loaded, so the tape-free passes get no helper thread")
    model = build_mnist_model(4)
    ds = synthetic_digits(2000, 5)
    run, held = {
        "evaluate": (lambda: evaluate(model, ds), 0),
        "sweep": (lambda: sweep(model, ds, [0.0, 0.5, 1.0], corruption_seed=7), 0),
        "audit": (lambda: audit_empirical_k(model, ds, 0.5, ds.n, np.random.default_rng(0)),
                  ds.images.nbytes),
    }[command]
    assert traced_peak(run) < 12e6 + held


def test_sweep_sigma_zero_row_matches_evaluate(blobs_test):
    model = oracle_blobs_model()
    report = sweep(model, blobs_test, [0.0], corruption_seed=7)
    row = report.rows[0]
    want = evaluate(model, blobs_test)
    assert row.accuracy == want["accuracy"]
    assert row.mean_confidence_correct == want["mean_confidence_on_correct"]
    assert np.isnan(row.mean_k)
    assert row.n == blobs_test.n


def test_sweep_sorts_rows_and_validates(blobs_test):
    model = build_blobs_mlp(seed=0)
    report = sweep(model, blobs_test, [1.0, 0.0, 0.5], corruption_seed=7)
    assert [r.sigma_test for r in report.rows] == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError, match="nonempty"):
        sweep(model, blobs_test, [], corruption_seed=7)
    for sigma in (-0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite values >= 0"):
            sweep(model, blobs_test, [sigma], corruption_seed=7)


def test_sweep_metadata_identifies_model(blobs_test):
    import hashlib
    model = build_blobs_mlp(seed=0)
    meta = sweep(model, blobs_test, [0.0], corruption_seed=7).metadata
    assert meta["model_hash"] == hashlib.sha256(checkpoint_bytes(model)).hexdigest()
    assert meta["corruption_seed"] == 7
    assert meta["dataset"]["source"] == blobs_test.provenance.source


def test_sweep_same_seed_same_corruption(blobs_test):
    # two different models swept with one seed face identical noise
    r1 = sweep(oracle_blobs_model(), blobs_test, [0.5], corruption_seed=7)
    r2 = sweep(oracle_blobs_model(), blobs_test, [0.5], corruption_seed=7)
    assert r1.rows == r2.rows


def _tape_free_passes(ds, out, starts):
    """sweep, evaluate, the audit, the bare walk with one noise stream and a 2-epoch train
    with its per-epoch probe; the last item says whether the bare walk added a helper to
    starts, the test's helper_starts."""
    model = build_mnist_model(4)
    report = sweep(model, ds, [0.0, 0.5, 1.0], corruption_seed=7)
    scores = evaluate(model, ds)
    k = audit_empirical_k(model, ds, 0.5, ds.n, np.random.default_rng(3)).values()
    before = len(starts)
    clean, [(noisy, walk_k)] = _eager_passes(model, ds.images, [(0.5, np.random.default_rng(5))])
    walk_helped = len(starts) > before
    trained, record = train(build_mnist_model(4), ds, HyperParams(epochs=2, seed=3))
    write_train_record(record, out)
    return ([vars(r) for r in report.rows], scores, k.tobytes(), clean.tobytes(),
            noisy.tobytes(), walk_k.tobytes(), checkpoint_bytes(trained),
            (out / "train_epochs.csv").read_bytes(), walk_helped)


@pytest.mark.parametrize("n", [1, 99, 100, 101, 149, 150, 199, 200, 733, 2000])
def test_the_helper_thread_leaves_every_bit_in_place(n, monkeypatch, blas_count, tmp_path,
                                                     helper_starts):
    if blas_count is None:
        pytest.skip("no OpenBLAS loaded, so the tape-free passes get no helper thread")
    ds = synthetic_digits(n, 5)
    *threaded, helped = _tape_free_passes(ds, tmp_path / "threaded", helper_starts)
    monkeypatch.setattr(layers, "_OPENBLAS_THREADS", None)
    *serial, alone = _tape_free_passes(ds, tmp_path / "serial", helper_starts)
    assert helped == (n >= regularizer._HELPER_ROWS) and not alone  # below 1.5 chunks, alone
    assert repr(threaded[:2]) == repr(serial[:2])  # NaN mean_k at sigma 0 compares by repr
    for a, b in zip(threaded[2:], serial[2:]):
        assert a == b


def _native_threads() -> int:
    """Threads of this process that Python did not start, numpy's OpenBLAS workers
    among them (a scipy loaded by other tests may hold its own)."""
    return len(os.listdir("/proc/self/task")) - threading.active_count()


@pytest.mark.parametrize("block", ["helper", "split"])
def test_no_idle_blas_worker_is_left_spinning(block, blas_count, monkeypatch):
    # after a threaded GEMM the worker spin-waits on the second core and set(1) leaves it;
    # a set that starts a worker leaves that one spinning too
    if blas_count is None or layers._OPENBLAS_THREADS[2] is None:
        pytest.skip("no OpenBLAS loaded that can end its workers")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to list this process's threads")
    a = np.random.default_rng(0).random((400, 400))
    a @ a
    working, inside = _native_threads(), []
    if block == "helper":  # counted as the walk's helper block opens, inside its split
        real_helper = regularizer._helper
        monkeypatch.setattr(regularizer, "_helper",
                            lambda wanted: inside.append(_native_threads()) or real_helper(wanted))
        _eager_passes(build_blobs_mlp(0), np.zeros((2 * regularizer._EAGER_ROWS, 2)))
    else:
        with layers._blas_threads_split(2):
            inside.append(_native_threads())
    [ended] = inside
    assert ended < working
    assert blas_count() == 2
    assert _native_threads() == ended  # the restoring set starts no worker that stays
    a @ a  # OpenBLAS starts its workers again for the next threaded call
    assert _native_threads() > ended


# A thread loops a threaded product while the main thread runs the public tape-free
# passes and a regularized train; it prints whether the thread joined, how many products
# it made while they ran, and how many differ from the product taken before the loop.
_BESIDE_A_BLAS_THREAD = """
import json, threading
import numpy as np
from lipnet import (HyperParams, LipschitzParams, audit_empirical_k, build_mnist_model,
                    evaluate, sweep, synthetic_digits, train)

rng = np.random.default_rng(0)
a, b = rng.random((600, 600)), rng.random((600, 600))
want, done, stats = (a @ b).tobytes(), threading.Event(), {"products": 0, "differing": 0}

def products():
    while not done.is_set():
        stats["differing"] += (a @ b).tobytes() != want
        stats["products"] += 1

thread = threading.Thread(target=products, daemon=True)  # a stuck one cannot hold the exit
thread.start()
model, ds = build_mnist_model(4), synthetic_digits(2000, 5)
before = stats["products"]
for _ in range(2):
    evaluate(model, ds)
    sweep(model, ds, [0.0, 0.5], corruption_seed=7)
    audit_empirical_k(model, ds, 0.5, ds.n, np.random.default_rng(0))
    train(build_mnist_model(4), synthetic_digits(300, 6), HyperParams(
        lip=LipschitzParams(sigma_train=0.75, beta=10.0, l_n=0.005), epochs=2))
during = stats["products"] - before
done.set()
thread.join(10)
print(json.dumps({"joined": not thread.is_alive(), "during": during, **stats}))
"""


@pytest.mark.skipif(layers._OPENBLAS_THREADS is None or layers._OPENBLAS_THREADS[2] is None,
                    reason="no OpenBLAS loaded that can end its workers")
def test_the_public_passes_leave_another_threads_blas_calls_alone():
    # a count split would give that thread's products other bits, and a worker shutdown
    # while it is inside a threaded product can hang it; the timeout fails such a hang
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=str(Path(layers.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _BESIDE_A_BLAS_THREAD], capture_output=True,
                         text=True, env=env, timeout=30)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["joined"] and result["during"] > 0 and result["differing"] == 0, result


@pytest.mark.parametrize("count,can_stop,rows,where", [
    (2, True, 200, "alone"), (1, True, 200, "alone"), (2, False, 200, "alone"),
    (None, None, 200, "alone"),
    (2, True, 149, "alone"),  # below one and a half chunks: the thread costs more than it gains
    (2, True, 199, "alone"),  # a partial second chunk: the second thread gains more
    (2, True, 200, "pool"),   # off the main thread, as in a grid's pool
    (2, True, 200, "beside an idle thread")])  # which could be inside BLAS
def test_the_helper_ends_the_workers_after_each_set(count, can_stop, rows, where, monkeypatch,
                                                    request):
    # count None: no OpenBLAS found; can_stop False: a library without the shutdown call
    calls, state = [], {"count": count}

    def put(n):
        calls.append(f"set({n})")
        state["count"] = n

    real_helper, runs = regularizer._helper, []

    @contextlib.contextmanager
    def witnessed_helper(wanted):
        with real_helper(wanted) as run:
            calls.append("walk")
            runs.append(run)
            yield run

    def walk():
        _eager_passes(build_blobs_mlp(0), np.zeros((rows, 2)))
        return runs[0]

    stop = (lambda: calls.append("stop")) if can_stop else None
    blas = None if count is None else (lambda: state["count"], put, stop)
    monkeypatch.setattr(layers, "_OPENBLAS_THREADS", blas)
    monkeypatch.setattr(regularizer, "_helper", witnessed_helper)
    if where == "beside an idle thread":
        request.getfixturevalue("another_thread")
    if where == "pool":
        with ThreadPoolExecutor(max_workers=1) as pool:
            run = pool.submit(walk).result()
    else:
        run = walk()
    helped = count == 2 and can_stop and rows >= regularizer._HELPER_ROWS and where == "alone"
    assert (run is not layers._now) == helped
    assert calls == (["set(1)", "stop", "walk", "set(2)", "stop"] if helped else ["walk"])


@pytest.mark.parametrize("command", ["evaluate", "sweep", "audit"])
def test_a_one_chunk_pass_starts_no_helper(command, monkeypatch, helper_starts):
    # below one and a half chunks the thread, the split and the workers' restart cost more than
    # the second thread gains: 120 digits took 1.97 ms with the helper against 1.49 ms without
    calls = helper_starts  # the helper's start, in order among the sets and stops
    blas = (lambda: 2, lambda n: calls.append(f"set({n})"), lambda: calls.append("stop"))
    monkeypatch.setattr(layers, "_OPENBLAS_THREADS", blas)
    model = build_blobs_mlp(0)
    run = {"evaluate": lambda ds: evaluate(model, ds),
           "sweep": lambda ds: sweep(model, ds, [0.0, 0.5], corruption_seed=7),
           "audit": lambda ds: audit_empirical_k(model, ds, 0.5, ds.n, np.random.default_rng(0))}
    for n, expected in ((regularizer._HELPER_ROWS - 1, []),
                        (regularizer._HELPER_ROWS, ["set(1)", "stop", "regularizer._eager_passes",
                                                    "set(2)", "stop"])):
        calls.clear()
        run[command](synthetic_blobs(n, 3))
        assert calls == expected


@pytest.mark.parametrize("command", ["sweep", "audit"])
@pytest.mark.parametrize("failing", ["clean_forward", "noise_draw"])
def test_a_failing_helper_stops_both_threads(command, failing, monkeypatch, blas_count):
    # row i of the data is (i, 0), so a chunk names its first row; in both passes the
    # helper takes the chunk at row 300 while the caller works on the one at row 200
    if blas_count is None:
        pytest.skip("no OpenBLAS loaded, so sweep and the audit get no helper thread")
    rows = np.column_stack([np.arange(733.0), np.zeros(733)])
    ds = LabeledDataset(rows, np.zeros(733, dtype=np.int64), Provenance("row index"))
    model = build_blobs_mlp(0)
    # forward(model, x) and perturb(x, sigma, rng): module, name, x's position
    module, name, at = {"clean_forward": (regularizer, "forward", 1),
                        "noise_draw": (regularizer, "perturb", 0)}[failing]
    real, taken = getattr(module, name), []

    def fail_at_row_300(*args):
        taken.append(int(args[at].data[0, 0]))
        if taken[-1] == 300:
            assert threading.current_thread() is not threading.main_thread()
            raise RuntimeError("chunk failed on purpose")
        return real(*args)

    monkeypatch.setattr(module, name, fail_at_row_300)
    before = threading.active_count()
    run = {"sweep": lambda: sweep(model, ds, [0.0, 0.5], corruption_seed=7),
           "audit": lambda: audit_empirical_k(model, ds, 0.5, ds.n, np.random.default_rng(0))}
    with pytest.raises(RuntimeError, match="on purpose"):
        run[command]()
    assert sorted(taken) == [0, 100, 200, 300]  # nobody takes a chunk after the failure
    assert blas_count() == 2
    assert threading.active_count() == before


@pytest.mark.parametrize("n", [150, 500, 733, 2000])  # 2, 5, 8 (the last partial) and 20 chunks
@pytest.mark.parametrize("where", ["helper", "alone"])
def test_each_noise_stream_draws_every_value_once(n, where, monkeypatch, request,
                                                  helper_starts):
    # the two threads draw a stream's chunks in turn; a chunk skipped or drawn twice would
    # leave its rng away from where one whole-array draw of the same shape leaves it
    if where == "alone":
        monkeypatch.setattr(layers, "_OPENBLAS_THREADS", None)
    elif request.getfixturevalue("blas_count") is None:
        pytest.skip("no OpenBLAS loaded, so sweep and the audit get no helper thread")
    streams = []
    monkeypatch.setattr(training, "derive_rng",
                        lambda *tags: streams.append(derive_rng(*tags)) or streams[-1])
    model, ds, audit_rng = build_blobs_mlp(0), synthetic_blobs(n, 3), np.random.default_rng(0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads trade the interpreter often, so a race would show
    try:
        sweep(model, ds, [0.0, 0.5, 1.0], corruption_seed=7)
        audit_empirical_k(model, ds, 0.5, ds.n, audit_rng)
    finally:
        sys.setswitchinterval(interval)
    assert helper_starts == ["regularizer._eager_passes"] * (2 if where == "helper" else 0)
    for sigma, rng in zip([0.5, 1.0], streams, strict=True):
        want = derive_rng(7, "sigma", repr(sigma))
        want.normal(0.0, sigma, size=ds.images.shape)
        assert rng.bit_generator.state == want.bit_generator.state
    want = np.random.default_rng(0)
    want.permutation(ds.n)
    want.normal(0.0, 0.5, size=ds.images.shape)
    assert audit_rng.bit_generator.state == want.bit_generator.state


def test_both_threads_draw_and_forward_every_noisy_stream(monkeypatch, blas_count):
    # in each stream the helper draws, forwards and compares the odd chunks and the caller the
    # even ones, and the draws are made one at a time in row order, handed thread to thread.
    # Pixel (0, 0, 0) of row i reads i / 100, so a chunk's first row names it through the noise.
    if blas_count is None:
        pytest.skip("no OpenBLAS loaded, so sweep gets no helper thread")
    digits = synthetic_digits(2000, 5)
    images = digits.images.copy()
    images[:, 0, 0, 0] = np.arange(digits.n) / 100.0
    ds = LabeledDataset(images, digits.labels, digits.provenance)
    real_forward, real_perturb, forwards, draws, drawing = (
        regularizer.forward, regularizer.perturb, [], [], [])

    def seen(x):  # (first row, whether the caller took it)
        on_caller = threading.current_thread() is threading.main_thread()
        return 100 * round(x.data[0, 0, 0, 0]), on_caller

    def forward(model, x):
        forwards.append(seen(x))
        return real_forward(model, x)

    def perturb(x, sigma, rng):
        assert not drawing, "two draws of one stream at once"
        draws.append(seen(x))
        drawing.append(draws[-1])
        try:
            if not draws[-1][1]:
                time.sleep(0.002)  # a slow draw on the helper, which the caller must wait for
            return real_perturb(x, sigma, rng)
        finally:
            drawing.pop()

    monkeypatch.setattr(regularizer, "forward", forward)
    monkeypatch.setattr(regularizer, "perturb", perturb)
    sweep(build_mnist_model(4), ds, [0.0, 0.01, 0.02], corruption_seed=7)
    turns = [(row, row % 200 == 0) for row in range(0, digits.n, 100)]  # even chunks: the caller's
    assert draws == turns * 2
    assert len(forwards) == 3 * len(turns)  # the clean stream, then each sigma's
    for stream in (forwards[:20], forwards[20:40], forwards[40:]):
        assert sorted(stream) == turns


def test_sweep_rows_equal_one_whole_array_draw_per_sigma():
    # 733 rows: seven full chunks and a partial one, drawn chunk by chunk from
    # the sigma's stream, give the bytes of one whole-array draw and forward
    model = build_mnist_model(4)
    ds = synthetic_digits(733, 5)
    report = sweep(model, ds, [0.5, 1.0], corruption_seed=9)
    clean = _eager_passes(model, ds.images)[0]
    for row in report.rows:
        sigma = row.sigma_test
        rng = np.random.default_rng(derive_key(9, "sigma", repr(sigma)))
        x_bar = ds.images + rng.normal(0.0, sigma, size=ds.images.shape)
        probs = _eager_passes(model, x_bar)[0]
        k = quotient(Tensor(clean), Tensor(probs), ds.images, x_bar).data
        correct = probs.argmax(axis=1) == ds.labels
        assert row.accuracy == float(correct.mean())
        assert row.mean_confidence_correct == float(probs[correct, ds.labels[correct]].mean())
        assert row.mean_k == float(k.mean())
