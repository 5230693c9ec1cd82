"""
Robustness as a function of training-set size
=============================================

Trains the same architecture on growing fractions of the synthetic digit
corpus, for both recipes, and tabulates accuracy under test noise. The gap
at small ratios is the interesting part: the regularizer acts as a prior
that pays off most when data is scarce.
"""

from lipnet import (HyperParams, LipschitzParams, build_mnist_model,
                    ratio_study, synthetic_digits)

RATIOS = [0.1, 0.3, 1.0]
SIGMAS = [0.0, 0.5]

train_ds = synthetic_digits(5000, seed=100)
test_ds = synthetic_digits(1000, seed=101)

recipes = {
    "standard": HyperParams(lr=0.05, epochs=5, batch_size=100, seed=0),
    "proposed": HyperParams(lip=LipschitzParams(sigma_train=0.75, beta=10.0,
                                                l_n=0.005),
                            lr=0.05, epochs=5, batch_size=100, seed=0),
}

tables = {name: ratio_study(train_ds, test_ds, RATIOS, hp, SIGMAS,
                            lambda: build_mnist_model(seed=0), corruption_seed=9000)
          for name, hp in recipes.items()}

print(f"{'ratio':>6s} {'sigma':>6s}  {'standard':>9s}  {'proposed':>9s}")
for row_std, row_prop in zip(tables["standard"], tables["proposed"]):
    ratio, sigma, acc_std = row_std
    acc_prop = row_prop[2]
    print(f"{ratio:6.2f} {sigma:6.2f}  {acc_std:9.3f}  {acc_prop:9.3f}")
