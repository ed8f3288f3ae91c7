#!/usr/bin/env python3
"""Sparsified sketching of a low-rank matrix.

Approximates a rank-k matrix X by U~ Q Q^T V~^T / p where Q has sparse
sub-Gaussian entries.  Shows the error falling like 1/sqrt(r), the cost
of sparsity, and the coherence-based error bound.
"""

import numpy as np

from sparse_hw import sketchlr as sk
from sparse_hw.streams import stream

# Rank-8 target, 48x32.
rng = stream(6, 0)
x = rng.standard_normal((48, 8)) @ rng.standard_normal((8, 32))
fact = sk.thin_svd(x)
print(f"target: {x.shape[0]}x{x.shape[1]}, detected rank {fact.rank}")
mu_col, mu_row = fact.coherences
print(f"column coherence {mu_col:.3f}, row coherence {mu_row:.3f}")
print(f"spectral norm {fact.s[0]:.3f}, frobenius {np.linalg.norm(x, 'fro'):.3f}")

print("\nmedian entrywise error over 30 sketch seeds")
print(f"{'r':>4} {'p=1.0':>10} {'p=0.5':>10} {'p=0.25':>10}")
for r in (8, 16, 32, 64, 128):
    row = []
    for p in (1.0, 0.5, 0.25):
        errs = [
            sk.low_rank_approx(x, r, p, seed=40 + s, allow_wide=True, fact=fact)[2]
            for s in range(30)
        ]
        row.append(float(np.median(errs)))
    print(f"{r:>4} " + " ".join(f"{v:>10.3f}" for v in row))

# eps is the tightest that the condition on r certifies at this r, and the
# entrywise bound at that eps depends on X, r and p but not on the seed.
eps, bound = sk.sketch_bound(fact, 64, 0.5, eta=0.1, c1=1.0)
fu, fv, error_max = sk.low_rank_approx(x, 64, 0.5, seed=1, allow_wide=True, fact=fact)
print(f"\nr=64, p=0.5: eps={eps:.3f}")
print(f"entrywise bound {bound:.3f} vs realized error {error_max:.3f}")

# Output rank never exceeds min(detected rank, r); Y = fu fv^T / p.
sv = np.linalg.svd(fu @ fv.T / 0.5, compute_uv=False)
print(f"output singular values beyond rank 8 are numerically zero: {sv[8] <= 1e-9 * sv[0]}")
