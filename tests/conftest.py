import numpy as np
import pytest

from lipnet import HyperParams, LipschitzParams, layers, regularizer, synthetic_blobs

try:
    from hypothesis import settings

    # derandomize: every run draws the same examples, so tier-1 is reproducible
    settings.register_profile("ci", deadline=None, max_examples=50, derandomize=True)
    settings.load_profile("ci")
except ImportError:
    pass


@pytest.fixture(scope="session")
def blobs_train():
    return synthetic_blobs(600, seed=11)


@pytest.fixture(scope="session")
def blobs_test():
    return synthetic_blobs(300, seed=12)


@pytest.fixture(scope="session")
def quick_hp():
    # ~240 steps; enough for the linearly separable blobs
    return HyperParams(lip=LipschitzParams(), lr=0.1, epochs=4, batch_size=10, seed=4)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def perturb_calls(monkeypatch):
    """One entry per regularizer.perturb call made during the test.

    aggregated_loss and the noisy pass that sweep and audit_empirical_k share
    look perturb up in their module, so every perturbed pass of training and
    every noise draw of sweep and the audit goes through here.
    """
    calls = []
    original = regularizer.perturb

    def witness(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(regularizer, "perturb", witness)
    return calls


@pytest.fixture()
def blas_count():
    """The loaded OpenBLAS's thread count getter, or None without OpenBLAS.
    The count is 2 during the test, so a split shows on any host (and sweep
    and the audit get their helper thread), and an earlier test cannot hide
    a count that was never restored."""
    blas = layers._OPENBLAS_THREADS
    if blas is None:
        yield None
        return
    get, put, _ = blas
    original = get()
    put(2)
    yield get
    put(original)
