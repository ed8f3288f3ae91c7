#!/usr/bin/env python3
"""Monte Carlo verification of a quadratic-form tail.

Simulates S = xi^T A xi for a sparse heavy-tailed vector, compares the
empirical survival curve against the calibrated bound shape, fits the
far-tail decay exponent, and runs the exhaustive decoupling check on a
small instance.
"""

import numpy as np

from sparse_hw import bounds as bd
from sparse_hw import quadform_mc as qf
from sparse_hw.rv_models import DistributionSpec, SparseModel
from sparse_hw.streams import stream

# Instance: 10x10 diagonal-free symmetric, alpha = 1 Weibull base, p = 0.4.
rng = stream(3, 0)
g = rng.standard_normal((10, 10))
a = 0.5 * (g + g.T)
np.fill_diagonal(a, 0.0)
model = SparseModel(p=(0.4,) * 10, base=DistributionSpec(kind="weibull", alpha=1.0))
inst = qf.QuadFormInstance(a, model)

t_grid = np.geomspace(5.0, 150.0, 16)
tail = qf.simulate_tail(inst, t_grid, 500_000, seed=9)
print(f"centered quadratic form, mean subtraction at E S = {inst.mean():.4f}")
print(f"{'t':>8} {'survival':>10} {'ci_low':>10} {'ci_high':>10}")
for t, s, lo, hi in zip(tail.t_grid, tail.survival, tail.ci_low, tail.ci_high):
    print(f"{t:>8.2f} {s:>10.2e} {lo:>10.2e} {hi:>10.2e}")

# Calibrate the refined bound shape with a single constant at the first
# usable grid point; the Wilson lower limits must stay dominated after it.
L = 2.0
shape = bd.TailBound(bd.f_sparse_regimes(bd.functionals(a, model.p_array(), 1.0)))
dom = qf.dominance_check(tail, shape.exponent(tail.t_grid / L**2), rel_slack=0.05)
print(f"\ndominance: ok={dom.ok} c_hat={dom.c_hat:.3f} over {dom.n_points} points")

# Far-tail decay: for alpha = 1 the product of two coordinates gives
# survival ~ exp(-c sqrt(t)), so the fitted slope sits near 0.5.
fit = qf.tail_slope_fit(tail)
print(f"slope fit: beta={fit.slope:.3f} (r^2={fit.r_squared:.4f}) on {fit.n_points} points")

# Decoupling on a tiny instance: the exact L_r ratio between the
# quadratic and bilinear forms stays below the universal constant 8.
small = np.array([[0.0, 1.0, -0.5], [1.0, 0.0, 0.25], [-0.5, 0.25, 0.0]])
print("\nexhaustive decoupling ratios (sparse Rademacher, p = 0.6):")
for r in (2.0, 4.0, 8.0):
    ratio = qf.decoupling_check_exhaustive(small, r, p=np.full(3, 0.6))
    print(f"  r={r:>3}: {ratio:.4f}")
