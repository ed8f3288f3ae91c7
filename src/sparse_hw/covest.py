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
the bound is tested.  BLOCK_ENTRIES (2^17 entries, 1 MiB of float64)
bounds the largest array of a `rip_k` block (matrices x subsets) and of
an `ipw_batches` draw, however large the stack, the replicate count or
comb(d, k) <= RIP_ENUM_BUDGET, unless one replicate alone is larger.

`expected_frob_sq_exact` evaluates E || B^T Diag(delta) A_{theta,p}
Diag(delta) B ||_F^2 in closed form, where A_{theta,p} has diagonal
theta_j^2 / p_j and off-diagonal theta_j theta_k / (p_j p_k).  Writing G = B B^T, the expectation
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

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import matrix_norms as mn
from . import quadform_mc as qf
from .errors import BudgetExceededError, ConfigError
from .rv_models import AlphaParam, DistributionSpec, sample_base
from .streams import stream

RIP_ENUM_BUDGET = 10**6
BLOCK_ENTRIES = 1 << 17  # entries of the largest array of a rip_k block or an IPW batch
RIP_TOP_FIRST = 8  # largest-bound subsets a matrix decomposes first in each block
EXACT_FROB_BUDGET = 10**9  # number of weighted quadruple terms
IPW_BATCH = 512  # the most replicates that ipw_batches draws and estimates at once
RIP_DIRECTION_KEY = (0, 2**64 - 1)  # of rip_bound_rhs's directions; no seeded stream reaches it
_SAMPLES = "samples"  # file name stem of save_samples


@dataclass(frozen=True)
class MultivariateModel:
    """Masked linear factor model X = delta o (B xi), xi_i iid unit-variance W_s(alpha).

    B is a finite 2-D array whose B B^T is finite, and p has one entry per
    row of B, each in (0, 1].
    """

    b: np.ndarray
    alpha: float
    p: tuple[float, ...]

    def __post_init__(self) -> None:
        m = np.asarray(self.b, dtype=float)
        if m.ndim != 2:
            raise ConfigError("B must be a 2-D array")
        if not np.all(np.isfinite(m)):
            raise ConfigError("B entries must be finite")
        with np.errstate(over="ignore"):  # raised below
            if not np.all(np.isfinite(m @ m.T)):
                raise ConfigError("Sigma = B B^T overflows a float")
        AlphaParam(self.alpha)
        p = tuple(float(v) for v in np.atleast_1d(np.asarray(self.p, dtype=float)))
        if len(p) != m.shape[0]:
            raise ValueError("p must have one entry per row of B")
        if not all(0.0 < v <= 1.0 for v in p):  # NaN too
            raise ConfigError("retention probabilities must lie in (0, 1]")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "b", m)
        object.__setattr__(self, "p", p)

    @property
    def base(self) -> DistributionSpec:
        """The law of each factor entry xi_i."""
        return DistributionSpec(kind="weibull", alpha=self.alpha, unit_variance=True)

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

    @functools.cached_property
    def k1_scale(self) -> float:
        """||B||_{2->2} (||Diag(sqrt(p)) B||_F + ||B||_{2->2}), the theta-free factor of K1."""
        spec_b = mn.opnorm(self.b, 2, 2)
        return spec_b * (mn.frobenius(np.sqrt(self.p_array())[:, None] * self.b) + spec_b)


def generate_samples(
    model: MultivariateModel, n: int, seed: int, stream_id: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (values, masks), both (n, d) for n >= 1; values are already masked.

    A masked coordinate is 0 in values and 0 in masks, so an observed
    exact zero stays distinguishable via the mask array.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = stream(seed, stream_id)
    masks = rng.random((n, model.dim)) < model.p_array()
    xi = sample_base(model.base, (n, model.n_factors), rng)
    values = xi @ model.b.T
    # np.where(masks, values, 0.0) in place: a float's bit pattern times 0 is
    # +0.0's (a float multiply by the mask would leave -0.0 and NaN there)
    bits = values.view(np.uint64)
    np.multiply(bits, masks, out=bits)
    return values, masks.astype(np.uint8)


def ipw_estimator(values, p) -> np.ndarray:
    """Inverse-probability-weighted covariance estimate from masked values.

    values is one (n, d) draw, giving a (d, d) estimate, or a stack
    (..., n, d) of draws, giving one estimate per draw; a 2-D call is
    x^T x / n weighted entrywise.  Masked entries must be zero-filled (as
    generate_samples emits them): the estimator only uses products of
    observed values because every product with a masked coordinate
    vanishes.  p, one entry per column in (0, 1], is a MultivariateModel's.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim < 2 or x.shape[-2] < 1:
        raise ValueError("values must be a nonempty (n, d) array or a stack of them")
    q = np.asarray(p, dtype=float)
    g = np.swapaxes(x, -1, -2) @ x / x.shape[-2]
    # a p_i^2 that underflows to 0 puts NaN on the diagonal, which the next line overwrites
    with np.errstate(divide="ignore", invalid="ignore"):
        est = g / np.outer(q, q)
    ii = np.arange(q.size)
    est[..., ii, ii] = g[..., ii, ii] / q
    return est


def save_samples(directory, model: MultivariateModel, values, masks, seed: int):
    """Persist a draw as CSV pair plus a JSON manifest."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    np.savetxt(d / f"{_SAMPLES}_values.csv", np.asarray(values, dtype=float), delimiter=",")
    np.savetxt(d / f"{_SAMPLES}_masks.csv", np.asarray(masks, dtype=int), delimiter=",", fmt="%d")
    manifest = {
        "b": model.b.tolist(),
        "p": list(model.p),
        "alpha": model.alpha,
        "base": asdict(model.base),
        "seed": seed,
        "n": int(np.asarray(values).shape[0]),
        "files": {"values": f"{_SAMPLES}_values.csv", "masks": f"{_SAMPLES}_masks.csv"},
    }
    with open(d / f"{_SAMPLES}_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def _batch_size(model: MultivariateModel, n: int) -> int:
    """Replicates in one IPW batch: IPW_BATCH, or fewer to keep its draw within BLOCK_ENTRIES."""
    return max(1, min(IPW_BATCH, BLOCK_ENTRIES // (n * max(model.dim, model.n_factors))))


def ipw_batches(model, n: int, replicates: int, seed: int, reduce, threads: int = 1) -> list:
    """reduce(estimates) of each batch of IPW replicates, in batch order, on `threads` workers.

    The replicates, at least 2, come in batches: batch c of `take`
    (_batch_size; the last is ragged) is one
    generate_samples(model, take * n, seed, c) draw whose rows
    [j n, (j+1) n) are replicate j, and reduce gets its one stacked
    ipw_estimator call, (take, d, d).  More than MC_SAMPLE_BUDGET samples
    (replicates x n) raise BudgetExceededError before anything is drawn.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    qf.check_sample_budget(replicates * n, "replicates x n")

    def batch(c: int, take: int):
        values, _ = generate_samples(model, take * n, seed, c)
        return reduce(ipw_estimator(values.reshape(take, n, model.dim), model.p_array()))

    # looked up in quadform_mc at each call, so a wrapper put there (a test's spy,
    # perfbench's tracer) sees these batches too
    return qf._run_chunks(batch, replicates, threads, _batch_size(model, n))


def first_replicate(model: MultivariateModel, n: int, replicates: int, seed: int):
    """(values, masks) of replicate 0 of ipw_batches: the first n rows of batch 0's draw."""
    values, masks = generate_samples(model, min(_batch_size(model, n), replicates) * n, seed, 0)
    return values[:n], masks[:n]


def ipw_replicate_stats(
    model: MultivariateModel, n: int, replicates: int, seed: int, threads: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the IPW estimates of ipw_batches, summed in batch order."""

    def sums(est: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):  # raised below
            return est.sum(axis=0), (est * est).sum(axis=0)

    batches = ipw_batches(model, n, replicates, seed, sums, threads)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        mean = sum(s1 for s1, _ in batches) / replicates
        var = sum(s2 for _, s2 in batches) / replicates - mean * mean
        var = np.maximum(var, 0.0) * replicates / (replicates - 1)
    if not np.all(np.isfinite(var)):
        raise ConfigError("the IPW estimates or their squares overflow a float: B is too large")
    return mean, np.sqrt(var / replicates)


def rip_k(m, k: int) -> float | np.ndarray:
    """Exact k-sparse operator norm by pruned principal-submatrix enumeration.

    m is one (d, d) matrix, giving a float, or a stack (R, d, d), giving
    an array of R values; a 2-D call is a stack of one.  The quadratic
    form only sees the symmetric part of each matrix.

    A stack runs in sub-stacks of max(1, BLOCK_ENTRIES // comb(d, k))
    matrices, and a sub-stack of r matrices takes its subsets in blocks
    of BLOCK_ENTRIES // r, so each (r, subsets) array has at most
    BLOCK_ENTRIES cells.  In each block every submatrix S gets the upper bound
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
    enumeration, so a matrix's value is `==` alone and in any stack.

    k lies in [1, d], as rip_bound_rhs checks.  Raises ValueError on an
    empty stack, ConfigError on inf or NaN entries (in any matrix of a
    stack, such as an overflowing IPW estimate) or on a symmetric part that
    overflows, and BudgetExceededError when comb(d, k) exceeds
    RIP_ENUM_BUDGET.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("M must be square, or a stack of square matrices")
    if a.ndim == 3 and len(a) == 0:
        raise ValueError("M is an empty stack")
    d = a.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    if not np.all(np.isfinite(sym)):
        raise ConfigError("M has inf or NaN entries, or its symmetric part overflows")
    n_subsets = math.comb(d, k)
    if n_subsets > RIP_ENUM_BUDGET:
        raise BudgetExceededError(
            f"comb({d}, {k}) = {n_subsets} exceeds the enumeration budget {RIP_ENUM_BUDGET}"
        )
    sym = sym.reshape(-1, d, d)
    size = max(1, BLOCK_ENTRIES // n_subsets)
    best = [_sub_stack_maxima(sym[i : i + size], k, n_subsets) for i in range(0, len(sym), size)]
    return float(best[0][0]) if a.ndim == 2 else np.concatenate(best)


def _sub_stack_maxima(sym: np.ndarray, k: int, n_subsets: int) -> np.ndarray:
    """rip_k of each matrix of the symmetric stack sym, in blocks of its comb(d, k) subsets."""
    r, d, _ = sym.shape
    with np.errstate(over="ignore"):  # an infinite bound only means no pruning
        squares = np.square(sym).reshape(r, d * d)
    margin = 1e-12 + 4 * k * k * np.finfo(float).eps
    rows = np.arange(r)
    best = np.zeros(r)
    subsets = itertools.combinations(range(d), k)
    block = max(1, BLOCK_ENTRIES // r)
    for start in range(0, n_subsets, block):
        size = min(block, n_subsets - start)
        flat = itertools.chain.from_iterable(itertools.islice(subsets, size))
        idx = np.fromiter(flat, dtype=np.intp, count=size * k).reshape(size, k)
        # one (R, size) gather a cell: no (R, size, k^2) temporary
        with np.errstate(over="ignore"):
            frob2 = np.zeros((r, size))
            for i, j in itertools.product(range(k), repeat=2):
                frob2 += squares[:, idx[:, i] * d + idx[:, j]]
            # ub = (sqrt(frob2) + k 2^-537) (1 + margin) + tiny, in frob2's memory
            ub = np.sqrt(frob2, out=frob2)
            ub += k * 2.0**-537
            ub *= 1.0 + margin
            ub += np.finfo(float).tiny
        first = min(RIP_TOP_FIRST, size)
        top = np.argpartition(ub, size - first, axis=1)[:, size - first :]
        top_norms = _spectral_norms(sym, rows.repeat(first), idx[top.ravel()])
        best = np.maximum(best, top_norms.reshape(r, first).max(axis=1))
        todo = ub >= best[:, None]
        todo[rows[:, None], top] = False
        who, which = np.nonzero(todo)
        np.maximum.at(best, who, _spectral_norms(sym, who, idx[which]))
    return best


def _spectral_norms(sym: np.ndarray, who: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """||sym[who[i]][idx[i]][:, idx[i]]||_2 for each i, by one `eigvalsh` call."""
    ev = np.linalg.eigvalsh(sym[who[:, None, None], idx[:, :, None], idx[:, None, :]])
    # eigenvalues come out ascending: the largest |eigenvalue| is at an end
    return np.abs(ev[:, [0, -1]]).max(axis=1)


def expected_frob_sq_exact(b, theta, p) -> float:
    """E || B^T Diag(delta) A_{theta,p} Diag(delta) B ||_F^2, exact.

    Gram reduction: with G = B B^T the expectation is
    sum_{l,k,pp,qq} W * theta_l theta_k theta_pp theta_qq G[l,pp] G[k,qq]
    with the uniform equality-pattern weight W from the module docstring.
    The outer pair (l, k) runs over the support of theta only: any other
    term carries the factor theta_l theta_k = 0 and adds exactly 0.0, so
    skipping it leaves every bit of the sum unchanged.  Cost is
    O(s^2 d^2) for a theta with s nonzero entries (O(d^4) when dense),
    independent of m; the budget guard still counts d^4.  B, theta and p
    are a MultivariateModel's b, a direction with one entry per row of B,
    and the model's p, as k1_k2_terms passes them.
    """
    bm = np.asarray(b, dtype=float)
    t = np.asarray(theta, dtype=float)
    q = np.asarray(p, dtype=float)
    d = bm.shape[0]
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


def k1_k2_terms(model: MultivariateModel, theta) -> tuple[float, float]:
    """Per-direction constants of the k-sparse deviation bound.

    K1 = ||B||_{2->2} (||Diag(sqrt(p)) B||_F + ||B||_{2->2}) ||theta o 1/p||_2^2
    K2 = sqrt(E || B^T Diag(delta) A_{theta,p} Diag(delta) B ||_F^2)

    theta has one entry per row of B, as rip_bound_rhs builds it.
    """
    t = np.asarray(theta, dtype=float)
    q = model.p_array()
    k1 = model.k1_scale * float(np.sum((t / q) ** 2))
    return k1, math.sqrt(expected_frob_sq_exact(model.b, t, q))


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


def rip_bound_rhs(t, k: int, model: MultivariateModel, n: int, theta_budget: int) -> RipBound:
    """High-probability bound on rip_k(Sigma_hat - Sigma) from n >= 1 samples, at t >= 0.

    With u = t + k log(48 e d / k) the bound is
    sqrt(u / n) sup K2 + (u^{3/4} / n^{3/4} + u^{2/alpha} / n) sup K1,
    both sups over k-sparse unit directions.  sup K1 is closed form
    (all mass on the smallest p); sup K2 is the largest k1_k2_terms K2
    over the axis directions plus theta_budget random k-sparse directions
    from stream RIP_DIRECTION_KEY, the same at every run seed.  t may be
    a scalar or an array: both sups are computed once for all of it.
    More than EXACT_FROB_BUDGET terms of K2 in the d + theta_budget
    directions (s^2 d^2 for s <= k nonzero entries) raise
    BudgetExceededError before any direction is drawn.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):  # NaN fails >= too
        raise ValueError("t must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    d = model.dim
    if not 1 <= k <= d:
        raise ConfigError("need 1 <= k <= d")
    if (d + theta_budget) * k * k * d * d > EXACT_FROB_BUDGET:
        raise BudgetExceededError(
            f"theta_budget = {theta_budget}: {d} + theta_budget directions of up to "
            f"k^2 d^2 = {k * k * d * d} terms exceed the K2 budget of {EXACT_FROB_BUDGET} terms"
        )
    p_min = float(np.min(model.p_array()))
    if p_min**2 == 0.0:  # sup K1 divides by it
        raise ConfigError(f"p = {p_min:g} underflows to 0 when squared")
    u = t + k * math.log(48.0 * math.e * d / k)
    sup_k1 = model.k1_scale / p_min**2

    rng = stream(*RIP_DIRECTION_KEY)
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
    sup_k2 = max(k1_k2_terms(model, th)[1] for th in thetas)

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
