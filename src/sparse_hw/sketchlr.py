"""Low-rank approximation with sparsified random sketches.

Given X of rank k with thin SVD X = U S V^T, split the factors as
Utilde = U S^(1/2), Vtilde = V S^(1/2) and draw a k x r matrix Q with
iid entries r^(-1/2) * delta * xi (delta ~ Bernoulli(p), xi centered
unit-variance sub-Gaussian).  The sketch output is

    Y = (1/p) * Utilde Q Q^T Vtilde^T,

an unbiased estimate of X (E Q Q^T = p I_k) of rank at most min(k, r),
held in factored form.  The entrywise error obeys, with probability at
least 1 - eta,

    ||X - Y||_inf <= (k eps / (p sqrt(mn))) sqrt(mu_col mu_row) ||X||_{2->2}

whenever r >= C1 log(mn / eta) max{p / eps^2, 1 / eps}, where mu_col and
mu_row are the column/row space coherences of X.

Column j of Q is one row of rv_models.sample_sparse_matrix, the
package's sparse sampler, drawn from stream (seed, j).  eps and the
bound depend on X, r, p, eta and C1 but not on the seed, so
`sketch_bound` computes both once per r, eps being the smallest that
the condition on r admits; `low_rank_approx` draws one sketch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rv_models import DistributionSpec, SparseModel, sample_sparse_matrix
from .streams import stream

# thin_svd keeps the singular values s_i >= RANK_TOL * s_1.
RANK_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class FactoredMatrix:
    """Thin SVD triple (U, S, V) with X = U diag(S) V^T: U and V have orthonormal
    columns, one per singular value in S, finite, nonnegative and descending."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    truncated: bool = False

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        s = np.asarray(self.s, dtype=float)
        v = np.asarray(self.v, dtype=float)
        k = s.size
        if u.ndim != 2 or v.ndim != 2 or u.shape[1] != k or v.shape[1] != k:
            raise ValueError("factor shapes do not agree")
        if not np.all(np.isfinite(s)) or np.any(s < 0) or np.any(np.diff(s) > 0):
            raise ConfigError("singular values must be finite, nonnegative and descending")
        for w, name in ((u, "U"), (v, "V")):
            if k and not np.allclose(w.T @ w, np.eye(k), atol=ORTHONORMALITY_TOL):
                raise ValueError(f"{name} columns are not orthonormal")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "v", v)

    @property
    def rank(self) -> int:
        return self.s.size

    @functools.cached_property
    def coherences(self) -> tuple[float, float]:
        """(mu_col, mu_row): (rows / k) max_i ||W^T e_i||_2^2 of W = U and of W = V,
        for rank k >= 1 (low_rank_approx rejects a zero X)."""
        k = self.rank
        return tuple(w.shape[0] / k * float((w * w).sum(axis=1).max()) for w in (self.u, self.v))

    def u_tilde(self) -> np.ndarray:
        return self.u * np.sqrt(self.s)

    def v_tilde(self) -> np.ndarray:
        return self.v * np.sqrt(self.s)


def thin_svd(x) -> FactoredMatrix:
    """Thin SVD truncated at the relative tolerance RANK_TOL.

    Keeps singular values with s_i >= RANK_TOL * s_1 (a tie at the
    boundary keeps the larger rank).  A discarded positive tail marks
    the factorization `truncated`: the input was only approximately
    low-rank and the sketch guarantees then apply to the truncation.
    """
    m = np.asarray(x, dtype=float)
    if m.ndim != 2:
        raise ConfigError("X must be 2-D")
    if not np.all(np.isfinite(m)):
        raise ConfigError("X entries must be finite")
    if m.size == 0 or not np.any(m):
        return FactoredMatrix(
            u=np.zeros((m.shape[0], 0)), s=np.zeros(0), v=np.zeros((m.shape[1], 0))
        )
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s >= RANK_TOL * s[0]
    k = int(np.sum(keep))
    truncated = bool(np.any(s[k:] > 0.0))
    return FactoredMatrix(u=u[:, :k], s=s[:k], v=vt[:k].T, truncated=truncated)


def sparsified_sketch(k: int, r: int, p: float, seed: int, xi: str = "gaussian") -> np.ndarray:
    """k x r matrix (k, r >= 1) with iid entries r^(-1/2) * delta * xi.

    Column j is one row of rv_models.sample_sparse_matrix, for k
    coordinates kept with probability p and the unit base law xi
    ("gaussian" or "rademacher"), drawn
    from stream (seed, j): columns can be produced in parallel, and
    widening r only appends columns.
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be positive")
    if not (0.0 < p <= 1.0):
        raise ConfigError("p must lie in (0, 1]")
    if xi not in ("gaussian", "rademacher"):
        raise ValueError("xi must be 'gaussian' or 'rademacher'")
    model = SparseModel((p,) * k, DistributionSpec(kind=xi))
    q = np.empty((r, k))
    for j in range(r):
        sample_sparse_matrix(model, 1, stream(seed, j), out=q[j : j + 1])
    q /= math.sqrt(r)
    return q.T


def sketch_bound(
    fact: FactoredMatrix, r: int, p: float, eta: float, c1: float
) -> tuple[float, float]:
    """(eps, bound) of the module's theorem at r for X = fact, shared by every seed.

    eps is the smallest with r >= c1 log(mn / eta) max{p / eps^2, 1 / eps}.
    A coherence is at least 1 in exact arithmetic; one that computes below 1
    (a square orthonormal factor can give 1 - 2^-53) counts as 1.  p lies in
    (0, 1], as sparsified_sketch checks, eta in (0, 1), and c1 is positive.
    """
    if not (0.0 < eta < 1.0):
        raise ConfigError("eta must lie in (0, 1)")
    if not c1 > 0:
        raise ValueError("c1 must be positive")
    m, n = fact.u.shape[0], fact.v.shape[0]
    ell = c1 * math.log(m * n / eta)
    eps = max(math.sqrt(ell * p / r), ell / r)
    mu_col, mu_row = (max(mu, 1.0) for mu in fact.coherences)
    bound = fact.rank * eps / (p * math.sqrt(m * n)) * math.sqrt(mu_col * mu_row) * float(fact.s[0])
    if not math.isfinite(bound):
        raise ConfigError(f"the entrywise error bound is {bound}: it overflows a float")
    return eps, bound


def low_rank_approx(
    x,
    r: int,
    p: float,
    seed: int,
    xi: str = "gaussian",
    allow_wide: bool = False,
    fact: FactoredMatrix | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Sparsified sketch approximation of X at target rank r.

    Returns (fu, fv, error_max): Y = fu @ fv.T / p in factored form and
    error_max = max |X - Y|.

    r is required to stay within the detected rank k; pass
    allow_wide=True to sketch with r > k anyway (the output rank stays
    at most k, the extra columns only average down the variance).
    fact, when given, must be thin_svd(x), so that many
    sketches of one X share a single SVD.
    """
    m = np.asarray(x, dtype=float)
    if fact is None:
        fact = thin_svd(m)
    k = fact.rank
    if k == 0:
        raise ConfigError("X is zero; nothing to sketch")
    if r > k and not allow_wide:
        raise ConfigError(
            f"target rank r={r} exceeds detected rank k={k}; pass allow_wide=True to proceed"
        )
    q = sparsified_sketch(k, r, p, seed, xi)
    with np.errstate(over="ignore", invalid="ignore"):  # checked on error_max below
        fu = fact.u_tilde() @ q
        fv = fact.v_tilde() @ q
        error_max = float(np.max(np.abs(m - (fu @ fv.T) / p)))
    if not math.isfinite(error_max):
        raise ConfigError(f"the sketch error of X at r={r} is {error_max}")
    return fu, fv, error_max
