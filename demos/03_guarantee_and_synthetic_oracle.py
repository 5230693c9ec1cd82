"""
The distortion-radius guarantee, checked against an exact construction
======================================================================

If a classifier is L-Lipschitz and its label vectors sit at pairwise
distance >= 2*rho, no input distortion smaller than rho/L can change a
confident prediction. This script computes the radius for one-hot labels,
then hammers a synthetically constructed, exactly-L-Lipschitz classifier
with uniform in-ball distortions, and finally shows the guarantee is tight
by flipping a label just outside the radius.
"""

import numpy as np

from lipnet import (LipschitzParams, RampClassifier, compute_rho,
                    counterexample_outside_radius, guarantee, one_hot_labels,
                    verify_theorem1_synthetic)
from lipnet.seeding import derive_rng

labels = one_hot_labels(10)
rho = compute_rho(labels)
print(f"rho (half min pairwise label distance) = {rho!r}")
print(f"sqrt(2)/2                              = {float(np.sqrt(2.0) / 2.0)!r}")

# the promised radius scales as 1/L_n
for l_n in (0.005, 0.01, 0.1):
    rep = guarantee(LipschitzParams(l_n=l_n), labels)
    print(f"l_n = {l_n:<6g} -> guaranteed radius rho/l_n = {rep.radius:.3f}")

# an exactly 1-Lipschitz classifier: two one-hot plateaus joined by a ramp
oracle = RampClassifier(1.0, labels, dim=2)
print(f"\nramp width = {oracle.ramp_width:.4f} (= 2*rho at L = 1), "
      f"radius rho/L = {oracle.rho / oracle.l:.4f}")

trials = 10_000
for seed in range(5):
    v = verify_theorem1_synthetic(oracle, trials, derive_rng(seed, "thm1"))
    print(f"seed {seed}: {trials} in-ball distortions, {v} label flips")

# just outside the radius the bound no longer protects anything
x, d, before, after = counterexample_outside_radius(oracle)
print(f"\ndistortion of norm {np.linalg.norm(d):.4f} "
      f"(radius is {oracle.rho / oracle.l:.4f}): label {before} -> {after}")
