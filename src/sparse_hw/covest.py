"""Covariance estimation from partially observed heavy-tailed samples.

Data model: latent factors xi in R^m with centered, unit-variance,
alpha-sub-exponential entries; observed vector X = delta o (B xi) where
delta masks each coordinate independently with retention probability
p_j > 0.  The target is Sigma = B B^T.  The inverse-probability-weighted
(IPW) estimator divides each empirical second moment by the probability
that it is observed, which restores unbiasedness under masking.

`rip_k` measures the worst k-sparse quadratic deviation
sup{ |theta^T M theta| : ||theta||_2 <= 1, ||theta||_0 <= k }, equal to
the largest spectral norm among k x k principal submatrices, for one
matrix or for each matrix of a stack.  It prunes the enumeration with a
certified bound (branch and bound with spectral bounds, as in Moghaddam,
Weiss & Avidan, NIPS 2006): ||S||_2 <= ||S||_F, which costs k^2 flops a
submatrix, raised by a relative margin (1e-12, plus 4 k^2 eps for large
k) that covers rounding in both the bound and `eigvalsh`.  A submatrix
whose bound is below the largest spectral norm already found cannot
hold the maximum, so it is never decomposed; every maximum is still one
exact `eigvalsh` value, the same as full enumeration gives.  The
RIP_TOP_FIRST largest-bound subsets of each matrix in a block are
decomposed before the rest, so the running maximum is high by the time
the bound is tested.  Subsets go in blocks of at most RIP_BLOCK_ENTRIES
(matrices x subsets) cells, the size of each array a block allocates,
so memory stays about 1 MiB an array however close comb(d, k) comes to
RIP_ENUM_BUDGET.

`expected_frob_sq_exact` evaluates E || B^T Diag(delta) A_{theta,p}
Diag(delta) B ||_F^2 in closed form.  Writing G = B B^T, the expectation
expands over index quadruples (l, k, p, q) with weight

    W = (prod of p_u over distinct indices u) / (denom(l,k) denom(p,q)),
    denom(i,j) = p_i p_j if i != j else p_i,

which covers all 15 equality patterns of the four indices.  A direct
case enumeration that stops at single-pair, triple and quadruple
coincidences misses the three double-pair patterns (l=p,k=q), (l=k,p=q),
(l=q,p=k); those carry strictly positive weight for generic inputs, so
the uniform weight form above is the one that matches Monte Carlo.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import matrix_norms as mn
from .errors import BudgetExceededError
from .quadform_mc import _run_chunks, check_sample_budget
from .rv_models import AlphaParam, DistributionSpec, sample_base
from .streams import stream

RIP_ENUM_BUDGET = 10**6
RIP_BLOCK_ENTRIES = 1 << 17  # (matrices, subsets) cells in one block of subsets
RIP_TOP_FIRST = 8  # largest-bound subsets a matrix decomposes first in each block
EXACT_FROB_BUDGET = 10**9  # number of weighted quadruple terms


@dataclass(frozen=True)
class MultivariateModel:
    """Masked linear factor model X = delta o (B xi)."""

    b: np.ndarray
    alpha: float
    p: tuple[float, ...]
    base: DistributionSpec | None = None

    def __post_init__(self) -> None:
        m = np.asarray(self.b, dtype=float)
        if m.ndim != 2:
            raise ValueError("B must be a 2-D array")
        if not np.all(np.isfinite(m)):
            raise ValueError("B entries must be finite")
        with np.errstate(over="ignore"):  # raised below
            if not np.all(np.isfinite(m @ m.T)):
                raise ValueError("Sigma = B B^T overflows a float")
        AlphaParam(self.alpha)
        p = tuple(float(v) for v in np.atleast_1d(np.asarray(self.p, dtype=float)))
        if len(p) != m.shape[0]:
            raise ValueError("p must have one entry per row of B")
        if not all(0.0 < v <= 1.0 for v in p):  # NaN too
            raise ValueError("retention probabilities must lie in (0, 1]")
        base = self.base
        if base is None:
            base = DistributionSpec(kind="weibull", alpha=self.alpha, unit_variance=True)
        if base.variance() != 1.0:
            raise ValueError("factor entries must have unit variance")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "b", m)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "base", base)

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    @property
    def n_factors(self) -> int:
        return self.b.shape[1]

    def p_array(self) -> np.ndarray:
        return np.asarray(self.p, dtype=float)

    def sigma(self) -> np.ndarray:
        return self.b @ self.b.T


def generate_samples(
    model: MultivariateModel, n: int, seed: int, stream_id: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (values, masks), both (n, d); values are already masked.

    A masked coordinate is 0 in values and 0 in masks, so an observed
    exact zero stays distinguishable via the mask array.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = stream(seed, stream_id)
    masks = rng.random((n, model.dim)) < model.p_array()
    xi = sample_base(model.base, (n, model.n_factors), rng)
    values = np.where(masks, xi @ model.b.T, 0.0)
    return values, masks.astype(np.uint8)


def ipw_estimator(values, p) -> np.ndarray:
    """Inverse-probability-weighted covariance estimate from masked values.

    Masked entries must be zero-filled (as generate_samples emits them):
    the estimator only uses products of observed values because every
    product with a masked coordinate vanishes.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("values must be a nonempty (n, d) array")
    q = np.asarray(p, dtype=float)
    if q.shape != (x.shape[1],):
        raise ValueError("p must have one entry per column")
    if np.any(q <= 0.0) or np.any(q > 1.0):
        raise ValueError("IPW requires retention probabilities in (0, 1]")
    n = x.shape[0]
    g = x.T @ x / n
    est = g / np.outer(q, q)
    np.fill_diagonal(est, np.diag(g) / q)
    return est


def save_samples(directory, model: MultivariateModel, values, masks, seed: int, prefix="samples"):
    """Persist a draw as CSV pair plus a JSON manifest."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    np.savetxt(d / f"{prefix}_values.csv", np.asarray(values, dtype=float), delimiter=",")
    np.savetxt(d / f"{prefix}_masks.csv", np.asarray(masks, dtype=int), delimiter=",", fmt="%d")
    manifest = {
        "b": model.b.tolist(),
        "p": list(model.p),
        "alpha": model.alpha,
        "base": json.loads(model.base.to_json()),
        "seed": seed,
        "n": int(np.asarray(values).shape[0]),
        "files": {"values": f"{prefix}_values.csv", "masks": f"{prefix}_masks.csv"},
    }
    with open(d / f"{prefix}_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def ipw_replicate_stats(
    model: MultivariateModel,
    n: int,
    replicates: int,
    seed: int,
    threads: int = 1,
    chunk: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the IPW estimate over many replicates.

    Replicate batches of the fixed chunk size draw from chunk-indexed
    streams on a pool of `threads` workers, and their sums accumulate in
    chunk order, so the result does not depend on the thread count.
    More than MC_SAMPLE_BUDGET samples in all (replicates x n) raise
    BudgetExceededError before anything is drawn.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    check_sample_budget(replicates * n, "replicates x n")
    d = model.dim
    q = model.p_array()
    ii = np.arange(d)

    def batch(c: int, take: int) -> tuple[np.ndarray, np.ndarray]:
        rng = stream(seed, c)
        masks = rng.random((take, n, d)) < q
        xi = sample_base(model.base, (take, n, model.n_factors), rng)
        values = np.where(masks, xi @ model.b.T, 0.0)
        g = np.einsum("cnd,cne->cde", values, values) / n
        est = g / np.outer(q, q)
        est[:, ii, ii] = np.einsum("cdd->cd", g) / q
        return est.sum(axis=0), (est * est).sum(axis=0)

    s1 = np.zeros((d, d))
    s2 = np.zeros((d, d))
    for sum1, sum2 in _run_chunks(batch, replicates, threads, chunk):
        s1 += sum1
        s2 += sum2
    mean = s1 / replicates
    var = np.maximum(s2 / replicates - mean * mean, 0.0) * replicates / (replicates - 1)
    se = np.sqrt(var / replicates)
    return mean, se


def rip_k(m, k: int, budget: int = RIP_ENUM_BUDGET) -> float | np.ndarray:
    """Exact k-sparse operator norm by pruned principal-submatrix enumeration.

    m is one (d, d) matrix, giving a float, or a stack (R, d, d), giving
    an array of R values; a 2-D call is a stack of one.  The quadratic
    form only sees the symmetric part of each matrix.

    Subsets are enumerated in blocks of at most RIP_BLOCK_ENTRIES // R,
    so each (R, subsets) array of a block has at most RIP_BLOCK_ENTRIES
    cells.  In each block every submatrix S gets the upper bound
    ub = ||S||_F (1 + margin) on ||S||_2; each matrix's RIP_TOP_FIRST
    largest-ub subsets are decomposed first, then every other subset
    whose ub reaches the largest spectral norm found so far for its
    matrix (`>=`, so ties are decomposed too), and that maximum carries
    over to the next block.
    The margin, 1e-12 plus 4 k^2 eps, covers rounding in ub and in
    `eigvalsh`.  ub also adds k 2^-537, which covers the squares that
    underflow, and the smallest normal float, which covers subnormal
    rounding; a square that overflows makes ub inf, which only means the
    subset is decomposed.  Each maximum is the `eigvalsh` value of full
    enumeration, whatever the blocking and the stack.

    Raises ValueError on an empty stack, on inf or NaN entries (in any
    matrix of a stack), or on a symmetric part that overflows.  Raises
    BudgetExceededError when comb(d, k) exceeds the budget; use
    rip_k_lower_random for a lower bound in that regime.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("M must be square, or a stack of square matrices")
    if a.ndim == 3 and len(a) == 0:
        raise ValueError("M is an empty stack")
    d = a.shape[-1]
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    if not np.all(np.isfinite(sym)):
        raise ValueError("M has inf or NaN entries, or its symmetric part overflows")
    n_subsets = math.comb(d, k)
    if n_subsets > budget:
        raise BudgetExceededError(
            f"comb({d}, {k}) = {n_subsets} exceeds the enumeration budget {budget}; "
            "rip_k_lower_random gives a certified lower bound instead"
        )
    sym = sym.reshape(-1, d, d)
    r = sym.shape[0]
    with np.errstate(over="ignore"):  # an infinite bound only means no pruning
        squares = np.square(sym).reshape(r, d * d)
    margin = 1e-12 + 4 * k * k * np.finfo(float).eps
    rows = np.arange(r)
    best = np.zeros(r)
    subsets = itertools.combinations(range(d), k)
    block = max(1, RIP_BLOCK_ENTRIES // r)
    for start in range(0, n_subsets, block):
        size = min(block, n_subsets - start)
        flat = itertools.chain.from_iterable(itertools.islice(subsets, size))
        idx = np.fromiter(flat, dtype=np.intp, count=size * k).reshape(size, k)
        # one (R, size) gather a cell: no (R, size, k^2) temporary
        with np.errstate(over="ignore"):
            frob2 = np.zeros((r, size))
            for i, j in itertools.product(range(k), repeat=2):
                frob2 += squares[:, idx[:, i] * d + idx[:, j]]
            frob = np.sqrt(frob2)
            ub = (frob + k * 2.0**-537) * (1.0 + margin) + np.finfo(float).tiny
        first = min(RIP_TOP_FIRST, size)
        top = np.argpartition(ub, size - first, axis=1)[:, size - first :]
        top_norms = _spectral_norms(sym, rows.repeat(first), idx[top.ravel()])
        best = np.maximum(best, top_norms.reshape(r, first).max(axis=1))
        todo = ub >= best[:, None]
        todo[rows[:, None], top] = False
        who, which = np.nonzero(todo)
        np.maximum.at(best, who, _spectral_norms(sym, who, idx[which]))
    return float(best[0]) if a.ndim == 2 else best


def _spectral_norms(sym: np.ndarray, who: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """||sym[who[i]][idx[i]][:, idx[i]]||_2 for each i, by one `eigvalsh` call."""
    ev = np.linalg.eigvalsh(sym[who[:, None, None], idx[:, :, None], idx[:, None, :]])
    # eigenvalues come out ascending: the largest |eigenvalue| is at an end
    return np.abs(ev[:, [0, -1]]).max(axis=1)


def rip_k_lower_random(m, k: int, n_draws: int = 10**4, seed: int = 0) -> float:
    """Certified lower bound on rip_k from random k-sparse directions."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("M must be square")
    d = a.shape[0]
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    rng = stream(seed, 0)
    best = 0.0
    chunk = max(1, min(n_draws, (1 << 22) // (k * k)))
    left = n_draws
    while left > 0:
        block = min(chunk, left)
        left -= block
        supports = np.argsort(rng.random((block, d)), axis=1)[:, :k]
        v = rng.standard_normal((block, k))
        norms = np.linalg.norm(v, axis=1)
        good = norms > 0.0
        v[good] /= norms[good, None]
        sub = a[supports[:, :, None], supports[:, None, :]]
        vals = np.abs(np.einsum("bi,bij,bj->b", v[good], sub[good], v[good]))
        if vals.size:
            best = max(best, float(vals.max()))
    return best


def a_theta_p(theta, p) -> np.ndarray:
    """Weight matrix with diagonal theta_j^2 / p_j and off-diagonal
    theta_j theta_k / (p_j p_k)."""
    t = np.asarray(theta, dtype=float)
    q = np.asarray(p, dtype=float)
    if t.ndim != 1 or t.shape != q.shape:
        raise ValueError("theta and p must be vectors of equal length")
    if np.any(q <= 0.0) or np.any(q > 1.0):
        raise ValueError("p must lie in (0, 1]")
    u = t / q
    out = np.outer(u, u)
    np.fill_diagonal(out, t * t / q)
    return out


def expected_frob_sq_exact(b, theta, p) -> float:
    """E || B^T Diag(delta) A_{theta,p} Diag(delta) B ||_F^2, exact.

    Gram reduction: with G = B B^T the expectation is
    sum_{l,k,pp,qq} W * theta_l theta_k theta_pp theta_qq G[l,pp] G[k,qq]
    with the uniform equality-pattern weight W from the module docstring.
    The outer pair (l, k) runs over the support of theta only: any other
    term carries the factor theta_l theta_k = 0 and adds exactly 0.0, so
    skipping it leaves every bit of the sum unchanged.  Cost is
    O(s^2 d^2) for a theta with s nonzero entries (O(d^4) when dense),
    independent of m; the budget guard still counts d^4.
    """
    bm = np.asarray(b, dtype=float)
    t = np.asarray(theta, dtype=float)
    q = np.asarray(p, dtype=float)
    if bm.ndim != 2:
        raise ValueError("B must be 2-D")
    d = bm.shape[0]
    if t.shape != (d,) or q.shape != (d,):
        raise ValueError("theta and p must have one entry per row of B")
    if np.any(q <= 0.0) or np.any(q > 1.0):
        raise ValueError("p must lie in (0, 1]")
    if d**4 > EXACT_FROB_BUDGET:
        raise BudgetExceededError(f"d^4 = {d**4} exceeds budget {EXACT_FROB_BUDGET}")
    g = bm @ bm.T
    idx = np.arange(d)
    pp, qq = np.meshgrid(idx, idx, indexing="ij")
    denom_pq = np.where(pp == qq, q[pp], q[pp] * q[qq])
    outer_theta = np.outer(t, t)
    support = np.flatnonzero(t).tolist()
    total = 0.0
    for l in support:
        for k in support:
            e_lk = q[l] * (q[k] if k != l else 1.0)
            extra_p = np.where((pp == l) | (pp == k), 1.0, q[pp])
            extra_q = np.where((qq == l) | (qq == k) | (qq == pp), 1.0, q[qq])
            denom_lk = q[l] * q[k] if l != k else q[l]
            w = e_lk * extra_p * extra_q / (denom_lk * denom_pq)
            total += t[l] * t[k] * np.sum(w * outer_theta * np.outer(g[l], g[k]))
    return float(total)


def expected_frob_sq_mc(
    b, theta, p, n_samples: int = 10**5, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo estimate of the masked-conjugation second moment.

    Returns (mean, standard error); the masks are the only randomness.
    """
    bm = np.asarray(b, dtype=float)
    a = a_theta_p(theta, p)
    q = np.asarray(p, dtype=float)
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    rng = stream(seed, 0)
    d = bm.shape[0]
    delta = (rng.random((n_samples, d)) < q).astype(float)
    bd = delta[:, :, None] * bm[None, :, :]
    inner = np.einsum("de,nej->ndj", a, bd)
    m_all = np.einsum("ndm,ndj->nmj", bd, inner)
    vals = np.sum(m_all * m_all, axis=(1, 2))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_samples))
    return mean, se


def k1_k2_terms(model: MultivariateModel, theta) -> tuple[float, float]:
    """Per-direction constants of the k-sparse deviation bound.

    K1 = ||B||_{2->2} (||Diag(sqrt(p)) B||_F + ||B||_{2->2}) ||theta o 1/p||_2^2
    K2 = sqrt(E || B^T Diag(delta) A_{theta,p} Diag(delta) B ||_F^2)
    """
    t = np.asarray(theta, dtype=float)
    q = model.p_array()
    if t.shape != (model.dim,):
        raise ValueError("theta must have one entry per row of B")
    k1 = _k1_scale(model) * float(np.sum((t / q) ** 2))
    return k1, math.sqrt(expected_frob_sq_exact(model.b, t, q))


def _k1_scale(model: MultivariateModel) -> float:
    """||B||_{2->2} (||Diag(sqrt(p)) B||_F + ||B||_{2->2}), the theta-free factor of K1."""
    spec_b = mn.opnorm(model.b, 2, 2)
    weighted_fro = float(np.linalg.norm(np.sqrt(model.p_array())[:, None] * model.b, "fro"))
    return spec_b * (weighted_fro + spec_b)


@dataclass(frozen=True)
class RipBound:
    value: float | np.ndarray
    term_k2: float | np.ndarray
    term_k1_34: float | np.ndarray
    term_k1_alpha: float | np.ndarray
    sup_k1: float
    sup_k2: float
    log_term: float | np.ndarray
    thetas_evaluated: int


def check_theta_budget(d: int, k: int, theta_budget: int) -> None:
    """Raise BudgetExceededError if the d + theta_budget directions of
    rip_bound_rhs may sum more than EXACT_FROB_BUDGET terms of K2.

    The exact K2 of a direction with s nonzero entries sums s^2 d^2
    weighted terms, and s <= k.
    """
    if (d + theta_budget) * k * k * d * d > EXACT_FROB_BUDGET:
        raise BudgetExceededError(
            f"theta_budget = {theta_budget}: {d} + theta_budget directions of up to "
            f"k^2 d^2 = {k * k * d * d} terms exceed the K2 budget of {EXACT_FROB_BUDGET} terms"
        )


def rip_bound_rhs(
    t,
    k: int,
    model: MultivariateModel,
    n: int,
    theta_budget: int = 128,
    seed: int = 0,
) -> RipBound:
    """High-probability bound on rip_k(Sigma_hat - Sigma) from n samples.

    With u = t + k log(48 e d / k) the bound is
    sqrt(u / n) sup K2 + (u^{3/4} / n^{3/4} + u^{2/alpha} / n) sup K1,
    both sups over k-sparse unit directions.  sup K1 is closed form
    (all mass on the smallest p); sup K2 is maximized over the axis
    directions plus theta_budget random k-sparse directions, one K2
    kernel call each (K1 is not needed per direction, so ||B||_{2->2} is
    computed once).  t may be a scalar or an array: both sups are
    computed once for all of it.  check_theta_budget runs before any
    direction is drawn.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):  # NaN fails >= too
        raise ValueError("t must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    d = model.dim
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    check_theta_budget(d, k, theta_budget)
    q = model.p_array()
    u = t + k * math.log(48.0 * math.e * d / k)
    sup_k1 = _k1_scale(model) / float(np.min(q)) ** 2

    rng = stream(seed, 0)
    thetas = [np.eye(d)[i] for i in range(d)]
    for _ in range(theta_budget):
        support = rng.choice(d, size=k, replace=False)
        v = rng.standard_normal(k)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        th = np.zeros(d)
        th[support] = v / nv
        thetas.append(th)
    sup_k2 = max(math.sqrt(expected_frob_sq_exact(model.b, th, q)) for th in thetas)

    term_k2 = np.sqrt(u / n) * sup_k2
    term_k1_34 = np.power(u / n, 0.75) * sup_k1
    term_k1_alpha = np.power(u, 2.0 / model.alpha) / n * sup_k1
    return RipBound(
        value=term_k2 + term_k1_34 + term_k1_alpha,
        term_k2=term_k2,
        term_k1_34=term_k1_34,
        term_k1_alpha=term_k1_alpha,
        sup_k1=sup_k1,
        sup_k2=sup_k2,
        log_term=u,
        thetas_evaluated=len(thetas),
    )
