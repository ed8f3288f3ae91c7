"""Monte Carlo verification engine for quadratic-form tails.

Sampling is chunked: chunk c draws from the SFC64 stream
streams.chunk_stream(seed, c), a pure function of (seed, c), and integer
exceedance counts and per-chunk moment sums are merged in chunk order,
so results are bit-identical for any number of worker threads (the
thread pool only changes who computes a chunk, not what it contains or
the order of the reduction).  A run splits into chunks of MC_CHUNK
samples (the last one ragged).  Within a chunk, rows are drawn and
evaluated in blocks of MC_BLOCK_ENTRIES // dim rows that reuse the
chunk's buffers, so memory does not grow with the chunk size.  The
quadratic statistic is evaluated from the upper triangle of A in column
panels (_quadform); it equals (x @ A * x).sum(1) up to rounding.

Centering is analytic: E xi^T A xi = sum_i a_ii p_i E zeta_i^2, never a
sample mean, so tail estimates are not contaminated by centering noise.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import matrix_norms as mn
from .errors import BudgetExceededError
from .rv_models import DistributionSpec, SparseModel, sample_sparse_matrix
from .streams import chunk_sizes
# bound as `stream`, the name under which the benchmark tracer counts chunk generators
from .streams import chunk_stream as stream

# Samples in one Monte Carlo chunk, the unit of a stream and of a pool task.
MC_CHUNK = 1 << 16
# A chunk is drawn and evaluated in blocks of about this many sample entries
# (1 MiB of float64), so a block and its statistic stay in cache.
MC_BLOCK_ENTRIES = 1 << 17
# The most samples one Monte Carlo run may draw (4.3e9); a larger n_samples
# raises BudgetExceededError before anything is drawn.
MC_SAMPLE_BUDGET = 1 << 32


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion k / n."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class QuadFormInstance:
    """Quadratic form S = xi^T A xi under a sparse coordinate model."""

    a: np.ndarray
    model: SparseModel

    def __post_init__(self) -> None:
        m = np.asarray(self.a, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("A must be square")
        if not np.array_equal(m, m.T):
            raise ValueError("A must be symmetric; use bounds.symmetrize first")
        if m.shape[0] != self.model.dim:
            raise ValueError("matrix size and model dimension differ")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "a", m)

    def mean(self) -> float:
        """E S = sum_i a_ii p_i E zeta_i^2, computed analytically."""
        return float(np.diag(self.a) @ self.model.coordinate_variances())


@dataclass
class EmpiricalTail:
    """Survival estimates P{|stat - center| >= t} over a threshold grid."""

    t_grid: np.ndarray
    survival: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n_samples: int


def check_sample_budget(samples: int, what: str = "n_samples") -> None:
    """Raise BudgetExceededError if a run would draw more than MC_SAMPLE_BUDGET samples."""
    if samples > MC_SAMPLE_BUDGET:
        raise BudgetExceededError(
            f"{what} = {samples} exceeds the Monte Carlo budget of {MC_SAMPLE_BUDGET} samples"
        )


def _run_chunks(worker, n_samples: int, threads: int, chunk_size: int) -> list:
    """Evaluate worker(chunk_index, chunk_len) for every chunk.

    Returns results ordered by chunk index regardless of thread count;
    an exception comes from the lowest chunk that raised.  Each pool task
    runs under the caller's np.errstate, which numpy keeps per thread.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    sizes = chunk_sizes(n_samples, chunk_size)
    if threads <= 1 or len(sizes) <= 1:
        return [worker(c, sz) for c, sz in enumerate(sizes)]
    err = np.geterr()

    def task(c: int, sz: int):
        with np.errstate(**err):
            return worker(c, sz)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(task, c, sz) for c, sz in enumerate(sizes)]
        return [f.result() for f in futures]


@dataclass(frozen=True)
class _Blockwise:
    """A statistic of samples of model, block by block.

    evaluate(out, y, x) writes the statistic of the k rows of the (k, dim)
    sample block x into out, of shape (k,), and may use y, a (k, width)
    scratch block.
    """

    model: SparseModel
    evaluate: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    width: int = 0


def _quadform(a: np.ndarray, model: SparseModel) -> _Blockwise:
    # 2 x^T W x, W = triu(A, 1) + diag(A) / 2 (never 2 A, which overflows sooner
    # than x @ A); x @ W in about n / 64 column panels with edges on multiples
    # of 8, panel [s, e) reading rows :e of W only: 2/3 of the flops at n = 200
    n = a.shape[0]
    w = np.triu(a, 1)
    w.flat[:: n + 1] = a.diagonal() / 2
    k = max(1, (n + 32) // 64)
    edges = [8 * round(i * n / (8 * k)) for i in range(k)] + [n]

    def evaluate(out, y, x):
        for s, e in zip(edges, edges[1:]):
            np.matmul(x[:, :e], w[:e, s:e], out=y[:, s:e])
        y *= x
        y.sum(axis=1, out=out)
        out *= 2

    return _Blockwise(model, evaluate, a.shape[1])


def _deviations(
    reduce, stat: _Blockwise, center: float, n_samples: int, seed: int, threads: int
) -> list:
    """reduce(|statistic - center|) for every chunk of MC_CHUNK samples, in chunk order.

    A chunk draws from stream (seed, c) in consecutive blocks of
    max(1, MC_BLOCK_ENTRIES // dim) rows (the last one ragged), and each
    block's statistic is evaluated into the chunk's deviations before
    the next block is drawn into the same buffers.  Any inf or NaN
    deviation raises ValueError with their number, because a reduction
    would otherwise count or sum it silently.  More than MC_SAMPLE_BUDGET
    samples raise BudgetExceededError first.
    """
    check_sample_budget(n_samples)
    dim = stat.model.dim
    block = max(1, MC_BLOCK_ENTRIES // dim)

    def worker(c: int, sz: int) -> tuple:
        rng = stream(seed, c)
        rows = min(block, sz)
        x = np.empty((rows, dim))
        y = np.empty((rows, stat.width))
        dev = np.empty(sz)
        with np.errstate(over="ignore", invalid="ignore"):  # counted instead
            for start in range(0, sz, rows):
                k = min(rows, sz - start)
                sample_sparse_matrix(stat.model, k, rng, out=x[:k])
                stat.evaluate(dev[start : start + k], y[:k], x[:k])
            dev -= center
            np.abs(dev, out=dev)
            return reduce(dev), dev.size - int(np.count_nonzero(np.isfinite(dev)))

    chunks = _run_chunks(worker, n_samples, threads, MC_CHUNK)
    nonfinite = sum(bad for _, bad in chunks)
    if nonfinite:
        raise ValueError(f"{nonfinite} of {n_samples} simulated statistics are inf or NaN")
    return [value for value, _ in chunks]


def _simulate(
    stat: _Blockwise, center: float, t_grid, n_samples: int, seed: int, threads: int
) -> EmpiricalTail:
    """Empirical survival of |statistic - center| over t_grid with Wilson
    intervals."""
    ts = np.sort(np.asarray(t_grid, dtype=float))
    if ts.ndim != 1 or ts.size == 0 or not np.all(ts >= 0):  # NaN fails >= too
        raise ValueError("t_grid must be a nonempty nonnegative vector")

    def exceedances(dev: np.ndarray) -> np.ndarray:
        # searchsorted over the sorted deviations counts all thresholds at once
        dev.sort()
        return dev.size - np.searchsorted(dev, ts, side="left")

    chunks = _deviations(exceedances, stat, center, n_samples, seed, threads)
    counts = np.sum(chunks, axis=0)
    lows, highs = np.array([wilson_interval(int(k), n_samples) for k in counts]).T
    return EmpiricalTail(
        t_grid=ts,
        survival=counts / n_samples,
        ci_low=lows,
        ci_high=highs,
        n_samples=n_samples,
    )


def simulate_tail(
    inst: QuadFormInstance, t_grid, n_samples: int, seed: int, threads: int = 1
) -> EmpiricalTail:
    """Empirical survival of |S - E S| over t_grid with Wilson intervals."""
    stat = _quadform(inst.a, inst.model)
    return _simulate(stat, inst.mean(), t_grid, n_samples, seed, threads)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    r_squared: float
    n_points: int
    t_window: tuple[float, float]


def usable_window(tail: EmpiricalTail) -> np.ndarray:
    """Mask of grid points t > 0 where survival is resolved and in the far tail.

    Points need at least 10 exceedances (rules out pure noise) and
    survival at most 0.05 (rules out the bulk), so 0 < survival < 1.
    """
    floor = 10 / tail.n_samples
    return (tail.survival >= floor) & (tail.survival <= 0.05) & (tail.t_grid > 0)


def tail_slope_fit(tail: EmpiricalTail) -> SlopeFit:
    """Least-squares slope of log(-log survival) against log t over usable_window.

    For survival ~ exp(-c t^beta) the slope estimates beta.
    """
    mask = usable_window(tail)
    if int(mask.sum()) < 4:
        raise ValueError("fewer than 4 usable grid points for the slope fit")
    x = np.log(tail.t_grid[mask])
    y = np.log(-np.log(tail.survival[mask]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return SlopeFit(
        slope=float(slope),
        r_squared=r2,
        n_points=int(mask.sum()),
        t_window=(float(tail.t_grid[mask].min()), float(tail.t_grid[mask].max())),
    )


@dataclass(frozen=True)
class DominanceResult:
    """Single-constant calibration of an exponent shape against a tail.

    c_hat is fitted at the first usable grid point; ok means the
    Wilson lower limit of survival stays below exp(-c_hat * exponent)
    at every later usable point, up to rel_slack on the exponent.
    """

    c_hat: float
    ok: bool
    n_points: int
    min_margin: float
    t_calibration: float


def dominance_check(
    tail: EmpiricalTail, exponent_values, rel_slack: float = 0.0
) -> DominanceResult:
    """Calibrate c at the first usable point; test dominance on the rest.

    The usable points are those of usable_window with a positive exponent.
    Verification margins use the Wilson lower limit, so a point only
    fails when the data refutes the bound rather than merely fluctuating
    above it.  rel_slack discounts the required exponent by that
    fraction; sub-leading tail terms make the effective constant drift
    a few percent over a finite window even for correct shapes, while a
    wrong regime exponent loses a factor >= 2, so a slack around 0.1
    separates the two cleanly.
    """
    ev = np.asarray(exponent_values, dtype=float)
    if ev.shape != tail.t_grid.shape:
        raise ValueError("exponent grid and t grid differ in shape")
    idx = np.flatnonzero(usable_window(tail) & (ev > 0.0))
    if idx.size < 2:
        raise ValueError("need at least 2 usable grid points for calibration")
    c_hat = -math.log(tail.survival[idx[0]]) / ev[idx[0]]
    neg_log_low = -np.log(tail.ci_low[idx[1:]])
    rest = neg_log_low - (1.0 - rel_slack) * c_hat * ev[idx[1:]]
    return DominanceResult(
        c_hat=float(c_hat),
        ok=bool(np.all(rest >= 0.0)),
        n_points=int(idx.size),
        min_margin=float(rest.min()),
        t_calibration=float(tail.t_grid[idx[0]]),
    )


# The moment orders r of lower_bound_check's fit.
LOWER_BOUND_ORDERS = (2.0, 4.0, 6.0, 8.0)


@dataclass(frozen=True)
class LowerBoundReport:
    """Anti-concentration summary over a grid of moment orders."""

    degenerate: bool
    r_grid: tuple[float, ...]
    moments: tuple[float, ...]
    exceed_probs: tuple[float, ...]
    kappa: float
    c1: float
    pz_ok: bool


def lower_bound_check(a, alpha: float, n_samples: int = 200_000, seed: int = 0) -> LowerBoundReport:
    """Check that |S| exceeds half its L_r norm with probability e^{-O(r)}.

    Base is the symmetric Weibull with the given alpha, fully retained
    (p = 1).  Fits log P{|S| >= L_r / 2} = log kappa - c1 * r over r in
    LOWER_BOUND_ORDERS and also checks the second-moment
    anti-concentration inequality P{|S| >= L_2 / 2} >= (L_2^2 / L_4^2)^2 / 4.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("A must be square")
    if not np.array_equal(m, m.T):
        raise ValueError("A must be symmetric")
    if np.any(np.diag(m) != 0.0):
        raise ValueError("lower-bound check requires a diagonal-free matrix")
    if np.all(m == 0.0):
        return LowerBoundReport(True, LOWER_BOUND_ORDERS, (), (), math.nan, math.nan, False)
    model = SparseModel(
        p=(1.0,) * m.shape[0], base=DistributionSpec(kind="weibull", alpha=alpha)
    )
    stat = _quadform(m, model)
    dev = np.concatenate(_deviations(lambda d: d, stat, 0.0, n_samples, seed, 1))
    moments = tuple(float(np.mean(dev**r) ** (1.0 / r)) for r in LOWER_BOUND_ORDERS)
    probs = tuple(float(np.mean(dev >= mom / 2)) for mom in moments)
    if any(q == 0.0 for q in probs):
        raise ValueError("no exceedances at some order; increase n_samples")
    coeff = np.polyfit(np.asarray(LOWER_BOUND_ORDERS), np.log(np.asarray(probs)), 1)
    l2 = float(np.mean(dev**2)) ** 0.5
    l4 = float(np.mean(dev**4)) ** 0.25
    pz_floor = (l2**2 / l4**2) ** 2 / 4.0
    pz_ok = float(np.mean(dev >= l2 / 2)) >= pz_floor
    return LowerBoundReport(
        degenerate=False,
        r_grid=LOWER_BOUND_ORDERS,
        moments=moments,
        exceed_probs=probs,
        kappa=float(np.exp(coeff[1])),
        c1=float(-coeff[0]),
        pz_ok=pz_ok,
    )


def simulate_linear_tail(
    a_vec, model: SparseModel, t_grid, n_samples: int, seed: int, threads: int = 1
) -> EmpiricalTail:
    """Empirical survival of |sum_i a_i xi_i| over t_grid.

    The base law is centered, so the linear form needs no centering term.
    """
    a = np.asarray(a_vec, dtype=float)
    if a.ndim != 1 or a.size != model.dim:
        raise ValueError("a must be a vector matching the model dimension")

    def linear(out, y, x):
        np.matmul(x, a, out=out)

    stat = _Blockwise(model, linear)
    return _simulate(stat, 0.0, t_grid, n_samples, seed, threads)


def simulate_norm_tail(
    a, model: SparseModel, t_grid, n_samples: int, seed: int, threads: int = 1
) -> EmpiricalTail:
    """Empirical survival of | ||A xi||_2 - sqrt(p) ||A||_F | over t_grid.

    Requires uniform retention probability and a unit-variance base, the
    regime where sqrt(p) ||A||_F is the right centering.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[1] != model.dim:
        raise ValueError("A columns must match the model dimension")
    p = model.p_array()
    if np.any(p != p[0]) or p[0] <= 0.0:
        raise ValueError("norm concentration needs a uniform positive p")
    if model.base.variance() != 1.0:
        raise ValueError("norm concentration needs a unit-variance base")
    center = math.sqrt(p[0]) * mn.frobenius(m)

    def norm(out, y, x):
        # the arithmetic of np.linalg.norm(x @ m.T, axis=1)
        np.matmul(x, m.T, out=y)
        y *= y
        y.sum(axis=1, out=out)
        np.sqrt(out, out=out)

    stat = _Blockwise(model, norm, m.shape[0])
    return _simulate(stat, center, t_grid, n_samples, seed, threads)
