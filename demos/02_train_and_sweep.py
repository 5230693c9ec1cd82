"""
Standard vs regularized training under test-time noise
======================================================

Trains the reference conv net twice on the built-in synthetic digit corpus,
once plain and once with the Lipschitz hinge, then sweeps both over
increasing Gaussian test corruption and audits the empirical quotient.
The regularized model should hold its accuracy longer and show a visibly
smaller mean k.
"""

import numpy as np

from lipnet import (HyperParams, LipschitzParams, audit_empirical_k,
                    build_mnist_model, sweep, synthetic_digits, train)

SIGMAS = [0.0, 0.5, 1.0]

train_ds = synthetic_digits(5000, seed=100)
test_ds = synthetic_digits(1000, seed=101)

recipes = {
    "standard": HyperParams(lr=0.05, epochs=5, batch_size=100, seed=0),
    "proposed": HyperParams(lip=LipschitzParams(sigma_train=0.75, beta=10.0,
                                                l_n=0.005),
                            lr=0.05, epochs=5, batch_size=100, seed=0),
}

reports = {}
models = {}
for name, hp in recipes.items():
    model, record = train(build_mnist_model(seed=0), train_ds, hp)
    models[name] = model
    reports[name] = sweep(model, test_ds, SIGMAS, corruption_seed=9000)
    print(f"{name}: {record.meta['n_steps']} steps, "
          f"{record.meta['perturbed_passes']} perturbed passes, "
          f"final train acc {record.epochs[-1].train_acc:.3f}")

# accuracy side by side, one row per test-noise level
print(f"\n{'sigma_test':>10s}  {'standard':>9s}  {'proposed':>9s}")
for r_std, r_prop in zip(reports["standard"].rows, reports["proposed"].rows):
    print(f"{r_std.sigma_test:10.2f}  {r_std.accuracy:9.3f}  {r_prop.accuracy:9.3f}")

# the quantity the hinge actually controls
print(f"\n{'audit':>10s}  {'mean k':>9s}  {'max k':>9s}")
for name, model in models.items():
    stats = audit_empirical_k(model, test_ds, 0.5, 1000,
                              np.random.default_rng(1), l_n=0.005)
    print(f"{name:>10s}  {stats.mean:9.4f}  {stats.max:9.4f}")
