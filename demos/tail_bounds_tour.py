#!/usr/bin/env python3
"""A tour of the quadratic-form tail bounds.

Builds a small sparse instance, evaluates every applicable bound family
over a threshold grid, and shows how the sparsity-weighted functionals
gamma1/gamma2 shrink as coordinates get dropped.  Every functional is read
from a `Functionals` record, which computes each one once.
"""

import numpy as np

from sparse_hw import bounds as bd
from sparse_hw import matrix_norms as mn
from sparse_hw.streams import stream

# A 6x6 symmetric test matrix with zero diagonal.
rng = stream(12, 0)
g = rng.standard_normal((6, 6))
a = 0.5 * (g + g.T)
np.fill_diagonal(a, 0.0)

alpha = 1.0
L = 2.0  # psi_1 constant of the standard symmetric Weibull base

print("matrix functionals at three retention levels")
print(f"{'p':>5} {'gamma1':>10} {'gamma2':>10} {'w_spec':>10} {'rw_max':>10}")
for p_scalar in (1.0, 0.5, 0.1):
    f = mn.Functionals(a, p_scalar)
    print(
        f"{p_scalar:>5} {f.gamma1:>10.4f} {f.gamma2:>10.4f}"
        f" {f.weighted_spectral:>10.4f} {f.row_weighted_max:>10.4f}"
    )

# gamma1 <= ||A||_F^2 and gamma2 <= ||A||_{2->2} always, with equality at p = 1
print(f"\n||A||_F^2 = {f.frobenius**2:.4f}, ||A||_2->2 = {f.spectral:.4f}")

# Tabulate the bound families over t in one call.  The comparison returns
# one entry per family, valued on the whole grid; non-applicable families
# carry applicable=False.  bd.functionals checks that A is symmetric.
f = bd.functionals(a, np.full(6, 0.3), alpha)
t_grid = np.geomspace(1.0, 200.0, 8)
print(f"\nbound values at alpha={alpha}, p=0.3, L={L}")
comp = bd.comparison_bounds(t_grid, f, L=L)
names = [k for k, v in comp.items() if v.applicable]
print(f"{'t':>8} " + " ".join(f"{n[:14]:>14}" for n in names))
for i, t in enumerate(t_grid):
    print(f"{t:>8.2f} " + " ".join(f"{comp[n].value[i]:>14.3e}" for n in names))

# The refined four-regime bound is never worse than the two-regime one
# by more than a factor of e (exponent gap at most 1).
two = bd.TailBound(bd.hw_sparse_regimes(f))
four = bd.TailBound(bd.f_sparse_regimes(f))
tn = t_grid / L**2
gap = two.exponent(tn) - four.exponent(tn)
print(f"\nexponent gap (two-regime minus refined): min={gap.min():.3f} max={gap.max():.3f}")
print("refined exponent never trails by more than 1:", bool(np.all(gap <= 1.0 + 1e-12)))
