#!/usr/bin/env python3
"""Covariance estimation when coordinates go missing at random.

Draws factor-model samples x = B z, hides each coordinate independently
with probability 1 - p_j, and rebuilds Sigma = B B^T with the
inverse-probability-weighted estimator.  Shows the error shrinking with
n and the k-sparse deviation staying under its calibrated bound.
"""

import numpy as np

from sparse_hw import covest as cv
from sparse_hw.streams import stream

d, m = 5, 3
b = stream(21, 0).standard_normal((d, m))
p = (0.9, 0.7, 0.5, 0.8, 0.6)
model = cv.MultivariateModel(b=b, alpha=1.0, p=p)
sigma = model.sigma()

print("IPW estimator error vs sample size (average over 200 replicates)")
print(f"{'n':>6} {'max entry error':>16}")
for n in (50, 200, 800, 3200):
    mean, _ = cv.ipw_replicate_stats(model, n, 200, seed=5)
    print(f"{n:>6} {np.abs(mean - sigma).max():>16.4f}")

# One concrete draw: observed values are zero-filled where masked.
values, masks = cv.generate_samples(model, 400, seed=8)
est = cv.ipw_estimator(values, model.p_array())
print(f"\nsingle draw at n=400: max |est - sigma| = {np.abs(est - sigma).max():.4f}")
print(f"observed fraction per coordinate: {masks.mean(axis=0)}")

# k-sparse deviation: the largest spectral norm among k x k principal
# submatrices of (est - sigma), computed exactly by enumeration.
dev = est - sigma
print("\nk-sparse deviation of the n=400 estimate:")
for k in (1, 2, 3, 5):
    print(f"  rip_{k} = {cv.rip_k(dev, k):.4f}")

# Compare the k = 2 deviation quantiles against the theoretical rhs
# shape over a few confidence levels t.
n, k = 400, 2
reps = 200
rips = np.empty(reps)
for i in range(reps):
    v, _ = cv.generate_samples(model, n, seed=100, stream_id=i)
    rips[i] = cv.rip_k(cv.ipw_estimator(v, model.p_array()) - sigma, k)
print(f"\nempirical rip_2 over {reps} replicates at n={n}:")
ts = np.array([1.0, 2.0, 4.0])
levels = np.maximum(0.0, 1.0 - 2.0 * np.exp(-ts))
rhs = cv.rip_bound_rhs(ts, k, model, n, theta_budget=128).value
for t, level, q, r in zip(ts, levels, np.quantile(rips, levels), rhs):
    print(f"  t={t}: quantile({level:.3f}) = {q:.4f}, bound rhs = {r:.4f}")
