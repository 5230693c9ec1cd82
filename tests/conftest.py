import faulthandler
import os
import threading
import traceback
import tracemalloc
from pathlib import Path

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

WATCHDOG_S = 300  # the slowest tier-1 test takes seconds; one this long is stuck
_TERMINAL = pytest.StashKey[int]()


def pytest_configure(config):
    # pytest captures the stderr of a running test into a file that a process exiting
    # mid-test never shows, so the watchdog writes to a copy of fd 2 taken before any test
    config.stash[_TERMINAL] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_TERMINAL])


@pytest.fixture(autouse=True)
def deadlock_watchdog(request):
    """Ends the run with every thread's stack if a test outlasts WATCHDOG_S, so a deadlock
    fails tier-1 instead of blocking it. faulthandler's watchdog is a C thread, not a
    threading.Thread, so it does not count as a second Python thread for the BLAS split."""
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=request.config.stash[_TERMINAL])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fails a test that ends with a Python thread it did not start with. Every lipnet helper
    thread comes from layers._helper and ends with its block; one left running would make every
    later caller look like it has company, which silently switches off every split and helper."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads outlived the test: {left}"


@pytest.fixture()
def traced_peak():
    """traced_peak(fn): the tracemalloc peak, in bytes, of running fn() from a fresh start.
    Every thread's Python and numpy allocations count; tracing stops even if fn raises."""
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


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
    """One entry per regularizer.perturb call made during the test: the thread that made it.

    aggregated_loss, training's draw-ahead and the noisy pass that sweep and
    audit_empirical_k share look perturb up in its module, so every noise draw
    of training, sweep and the audit goes through here, whether layers._helper
    runs it on its thread or on the caller.
    """
    calls = []
    original = regularizer.perturb

    def witness(*args, **kwargs):
        calls.append(threading.current_thread())
        return original(*args, **kwargs)

    monkeypatch.setattr(regularizer, "perturb", witness)
    return calls


@pytest.fixture()
def helper_starts(monkeypatch):
    """One entry per helper thread started during the test, appended as its pool is made: the
    lipnet function that asked layers._helper for it, such as "training.train",
    "regularizer._eager_passes" or "data.synthetic_digits" (None when a test asks directly).
    Every helper thread of lipnet is a one-worker pool made by layers._helper."""
    starts, real = [], layers.ThreadPoolExecutor
    package = Path(layers.__file__).parent

    def pool(*args, **kwargs):
        starts.append(next((f"{Path(f.filename).stem}.{f.name}"
                            for f in reversed(traceback.extract_stack())
                            if Path(f.filename).parent == package
                            and Path(f.filename).stem != "layers"), None))
        return real(*args, **kwargs)

    monkeypatch.setattr(layers, "ThreadPoolExecutor", pool)
    return starts


@pytest.fixture()
def blas_count():
    """The loaded OpenBLAS's thread count getter, or None without OpenBLAS.
    The count is 2 during the test, so a split shows on any host (and every
    tape-free pass of regularizer._HELPER_ROWS rows or more gets its helper thread
    while the test runs no other Python thread), and an earlier test cannot
    hide a count that was never restored."""
    blas = layers._OPENBLAS_THREADS
    if blas is None:
        yield None
        return
    get, put, _ = blas
    original = get()
    put(2)
    yield get
    put(original)


@pytest.fixture()
def another_thread():
    """An idle Python thread alive through the test, as a caller's own threads would be;
    while it lives, lipnet leaves the BLAS count and OpenBLAS's workers alone."""
    idle = threading.Event()
    thread = threading.Thread(target=idle.wait)
    thread.start()
    yield thread
    idle.set()
    thread.join()
