"""
Which hyperparameter actually matters?
======================================

Finite-difference sensitivity of noisy-test accuracy to each regularizer
knob, holding everything else (init, data order, corruption noise) fixed.
The control row retrains with nothing changed; determinism makes its
sensitivity exactly zero, which is the calibration that gives the other
rows meaning.
"""

from lipnet import (HyperParams, LipschitzParams, build_mnist_model,
                    sensitivity, synthetic_digits)

train_ds = synthetic_digits(3000, seed=100)
test_ds = synthetic_digits(1000, seed=101)

baseline = HyperParams(lip=LipschitzParams(sigma_train=0.75, beta=10.0,
                                           l_n=0.005),
                       lr=0.05, epochs=3, batch_size=100, seed=0)
deltas = {"sigma_train": 0.25, "beta": 1.0, "l_n": 0.005, "control": 1.0}

report = sensitivity(baseline, deltas, train_ds, test_ds, sigma_eval=0.5,
                     new_model=lambda: build_mnist_model(seed=0), corruption_seed=9000)

print("accuracy at sigma_test=0.5, in percentage points\n")
print(f"{'param':>12s} {'delta':>7s} {'before':>8s} {'after':>8s} {'sens':>9s}")
for e in report.entries:
    print(f"{e.param:>12s} {e.delta:7.3f} {e.acc_before:8.2f} "
          f"{e.acc_after:8.2f} {e.sensitivity:9.2f}")
