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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .streams import stream

# thin_svd keeps the singular values s_i >= RANK_TOL * s_1.
RANK_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-8
# A coherence is at least 1 in exact arithmetic, but coherence() of a square
# orthonormal factor comes out up to 5 eps below 1 in random trials.
COHERENCE_ROUNDING = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class FactoredMatrix:
    """Thin SVD triple (U, S, V) with X = U diag(S) V^T."""

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
            raise ValueError("singular values must be finite, nonnegative and descending")
        for w, name in ((u, "U"), (v, "V")):
            if k and not np.allclose(w.T @ w, np.eye(k), atol=ORTHONORMALITY_TOL):
                raise ValueError(f"{name} columns are not orthonormal")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "v", v)

    @property
    def rank(self) -> int:
        return self.s.size

    def u_tilde(self) -> np.ndarray:
        return self.u * np.sqrt(self.s)

    def v_tilde(self) -> np.ndarray:
        return self.v * np.sqrt(self.s)

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


def thin_svd(x) -> FactoredMatrix:
    """Thin SVD truncated at the relative tolerance RANK_TOL.

    Keeps singular values with s_i >= RANK_TOL * s_1 (a tie at the
    boundary keeps the larger rank).  A discarded positive tail marks
    the factorization `truncated`: the input was only approximately
    low-rank and the sketch guarantees then apply to the truncation.
    """
    m = np.asarray(x, dtype=float)
    if m.ndim != 2:
        raise ValueError("X must be 2-D")
    if not np.all(np.isfinite(m)):
        raise ValueError("X entries must be finite")
    if m.size == 0 or not np.any(m):
        return FactoredMatrix(
            u=np.zeros((m.shape[0], 0)), s=np.zeros(0), v=np.zeros((m.shape[1], 0))
        )
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s >= RANK_TOL * s[0]
    k = int(np.sum(keep))
    truncated = bool(np.any(s[k:] > 0.0))
    return FactoredMatrix(u=u[:, :k], s=s[:k], v=vt[:k].T, truncated=truncated)


def coherence(w) -> float:
    """Coherence (m / k) max_i ||W^T e_i||_2^2 of an orthonormal frame.

    Validates orthonormality and cross-checks the trace identity
    (row norms sum to k) before trusting the row maximum.
    """
    m = np.asarray(w, dtype=float)
    if m.ndim != 2 or m.shape[1] == 0:
        raise ValueError("W must be 2-D with at least one column")
    rows, k = m.shape
    if rows < k:
        raise ValueError("W must be a tall frame")
    if not np.allclose(m.T @ m, np.eye(k), atol=ORTHONORMALITY_TOL):
        raise ValueError("W columns are not orthonormal")
    row_sq = (m * m).sum(axis=1)
    if abs(float(row_sq.sum()) - k) > 1e-10 * max(1.0, k):
        raise ValueError("trace identity violated; frame is not orthonormal")
    return rows / k * float(row_sq.max())


@dataclass(frozen=True)
class SketchSpec:
    """Shape and law of the sparsified sketch matrix Q."""

    k: int
    r: int
    p: float
    seed: int
    xi: str = "gaussian"

    def __post_init__(self) -> None:
        if self.k < 1 or self.r < 1:
            raise ValueError("k and r must be positive")
        if not (0.0 < self.p <= 1.0):
            raise ValueError("p must lie in (0, 1]")
        if self.xi not in ("gaussian", "rademacher"):
            raise ValueError("xi must be 'gaussian' or 'rademacher'")


def sparsified_sketch(spec: SketchSpec) -> np.ndarray:
    """k x r matrix with iid entries r^(-1/2) * delta * xi.

    Column j draws from stream (seed, j), so columns can be produced in
    parallel and the matrix is reproducible column by column.
    """
    q = np.empty((spec.k, spec.r))
    for j in range(spec.r):
        rng = stream(spec.seed, j)
        delta = rng.random(spec.k) < spec.p
        if spec.xi == "gaussian":
            xi = rng.standard_normal(spec.k)
        else:
            xi = (rng.integers(0, 2, size=spec.k) * 2 - 1).astype(float)
        q[:, j] = np.where(delta, xi, 0.0) / math.sqrt(spec.r)
    return q


def theorem_bound_22(
    k: int, eps: float, p: float, m: int, n: int, mu_col: float, mu_row: float, spec_norm: float
) -> float:
    """Entrywise error bound (k eps / (p sqrt(mn))) sqrt(mu_col mu_row) ||X||.

    A coherence up to COHERENCE_ROUNDING below 1 is rounding and counts as 1.
    """
    if k < 1 or m < 1 or n < 1:
        raise ValueError("k, m, n must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    if not min(mu_col, mu_row) >= 1.0 - COHERENCE_ROUNDING:
        raise ValueError("coherences are at least 1")
    mu_col, mu_row = max(mu_col, 1.0), max(mu_row, 1.0)
    if spec_norm < 0:
        raise ValueError("spec_norm must be nonnegative")
    return k * eps / (p * math.sqrt(m * n)) * math.sqrt(mu_col * mu_row) * spec_norm


def sketch_admissible(
    r: int, eps: float, p: float, m: int, n: int, eta: float = 0.1, c1: float = 1.0
) -> bool:
    """Whether r >= c1 log(mn / eta) max{p / eps^2, 1 / eps}."""
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    if eps <= 0 or c1 <= 0:
        raise ValueError("eps and c1 must be positive")
    need = c1 * math.log(m * n / eta) * max(p / eps**2, 1.0 / eps)
    return r + 1e-9 >= need


def smallest_admissible_eps(
    r: int, p: float, m: int, n: int, eta: float = 0.1, c1: float = 1.0
) -> float:
    """Tightest eps the admissibility condition certifies at this r."""
    ell = c1 * math.log(m * n / eta)
    return max(math.sqrt(ell * p / r), ell / r)


@dataclass(frozen=True)
class SketchResult:
    """Sketch output in factored form: Y = scale * fu @ fv.T."""

    fu: np.ndarray
    fv: np.ndarray
    scale: float
    detected_rank: int
    r: int
    p: float
    seed: int
    xi: str
    eps: float
    eta: float
    c1: float
    bound: float
    admissible: bool
    truncated: bool
    error_max: float

    @cached_property
    def y(self) -> np.ndarray:
        return self.scale * (self.fu @ self.fv.T)


def low_rank_approx(
    x,
    r: int,
    p: float,
    seed: int,
    xi: str = "gaussian",
    eta: float = 0.1,
    c1: float = 1.0,
    allow_wide: bool = False,
    fact: FactoredMatrix | None = None,
) -> SketchResult:
    """Sparsified sketch approximation of X at target rank r.

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
        raise ValueError("X is zero; nothing to sketch")
    if r > k and not allow_wide:
        raise ValueError(
            f"target rank r={r} exceeds detected rank k={k}; pass allow_wide=True to proceed"
        )
    spec = SketchSpec(k=k, r=r, p=p, seed=seed, xi=xi)
    q = sparsified_sketch(spec)
    with np.errstate(over="ignore", invalid="ignore"):  # checked on error_max below
        fu = fact.u_tilde() @ q
        fv = fact.v_tilde() @ q
        error_max = float(np.max(np.abs(m - (fu @ fv.T) / p)))
    if not math.isfinite(error_max):
        raise ValueError(f"the sketch error of X at r={r} is {error_max}")
    eps = smallest_admissible_eps(r, p, m.shape[0], m.shape[1], eta=eta, c1=c1)
    mu_col = coherence(fact.u)
    mu_row = coherence(fact.v)
    spec_norm = float(fact.s[0])
    bound = theorem_bound_22(k, eps, p, m.shape[0], m.shape[1], mu_col, mu_row, spec_norm)
    return SketchResult(
        fu=fu,
        fv=fv,
        scale=1.0 / p,
        detected_rank=k,
        r=r,
        p=p,
        seed=seed,
        xi=xi,
        eps=eps,
        eta=eta,
        c1=c1,
        bound=bound,
        admissible=sketch_admissible(r, eps, p, m.shape[0], m.shape[1], eta=eta, c1=c1),
        truncated=fact.truncated,
        error_max=error_max,
    )
