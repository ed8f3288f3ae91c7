"""Independent reference implementations used only by the tests.

Everything here is deliberately written with different algorithms from
the library (cyclic Jacobi instead of power iteration, literal
pattern-by-pattern sums instead of a classifier) so agreement is
evidence, not tautology.

The exception is the `*_loop`, `*_unblocked`, `*_one_power`,
`*_two_pass`, `*_block` and `*_reference` oracles at the end: they are
the plain loops, whole-sample statistics and earlier kernels that the
library's batched and blocked kernels replace.  The tests demand
bit-equal (==) results from `rip_k_loop`, `expected_frob_sq_loop` and
`dual_rows_one_power`, and from `opnorm_block_reference`: the block of
restarts with its bookkeeping on every row, so its value, restart count
and flag must equal opnorm_detail's.  `dual_rows_two_pass` and
`opnorm_two_pass_block` are the arithmetic from before each half-step
took one power, held within a derived ulp count and 1e-12 relative.
`opnorm_loop` runs its restarts one at a time through matrix-vector
products, each to its own convergence or the iteration cap, where the
library multiplies blocks and drops restarts that cannot catch up; so
its value is compared within 1e-12 relative and its convergence flag
exactly.  All three build their start block with `sign_starts`, a loop
over primes and entries that the tests compare with the package's
block by ==; `gaussian_starts` is the random block the package drew
before, kept as the reference for the search-quality test.  The
`*_unblocked` statistics run on the rows of `blocked_draws` stacked
into one sample, and are compared with == on integer-valued draws,
where BLAS gives the same bits for any number of rows per product.

The last section holds former package code that no command runs:
`rip_k_lower_random`, `a_theta_p`, `expected_frob_sq_mc`,
`save_matrix_csv`, `save_matrix_bin` and `reconstruct` (once the method
FactoredMatrix.reconstruct), moved here with their bodies unchanged.
They are not independent algorithms.  They are the random lower bound
of acceptance 08, the Monte Carlo mask moment that acceptance 09 and
the covest tests compare `expected_frob_sq_exact` with, the writers of
the matrix files the loading tests read, and the product U diag(S) V^T
that the thin_svd tests compare with X.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from sparse_hw.matrix_norms import _ALTMAX_MAX_ITER, _ALTMAX_TOL, OpnormResult, _as_matrix, lp_norm
from sparse_hw.rv_models import _retained, sample_base, sample_sparse_matrix
from sparse_hw.streams import chunk_sizes, chunk_stream, stream


def jacobi_eigen_spectral(a: np.ndarray, sweeps: int = 60, tol: float = 1e-14) -> float:
    """Spectral norm of symmetric a via cyclic Jacobi rotations."""
    m = np.array(a, dtype=float)
    n = m.shape[0]
    if n == 1:
        return abs(m[0, 0])
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += m[p, q] ** 2
                if m[p, q] == 0.0:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * m[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                m = rot.T @ m @ rot
        if off < tol:
            break
    return float(np.max(np.abs(np.diag(m))))


def jacobi_svd(x: np.ndarray, sweeps: int = 60, tol: float = 1e-28):
    """One-sided Jacobi SVD. Returns (u, s, v) with x = u diag(s) v^T.

    Columns of the working copy are orthogonalized pairwise; singular
    values come out as column norms, sorted descending.
    """
    a = np.array(x, dtype=float)
    m, n = a.shape
    transposed = False
    if m < n:
        a = a.T
        m, n = a.shape
        transposed = True
    v = np.eye(n)
    for _ in range(sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = a[:, p] @ a[:, p]
                aqq = a[:, q] @ a[:, q]
                apq = a[:, p] @ a[:, q]
                if apq * apq <= tol * app * aqq:
                    continue
                rotated = True
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ap = a[:, p].copy()
                a[:, p] = c * ap - s * a[:, q]
                a[:, q] = s * ap + c * a[:, q]
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
        if not rotated:
            break
    s = np.linalg.norm(a, axis=0)
    order = np.argsort(s)[::-1]
    s = s[order]
    v = v[:, order]
    u = np.zeros((m, n))
    for j in range(n):
        if s[j] > 0:
            u[:, j] = a[:, order[j]] / s[j]
    if transposed:
        return v, s, u
    return u, s, v


def _lr_sphere_points(n: int, r: float, n_random: int, seed: int) -> np.ndarray:
    """Points covering the unit l_r sphere in R^n: simplex grid + random."""
    pts = []
    steps = 24 if n == 3 else max(4, int(round(2000 ** (1.0 / max(n - 1, 1)))))
    # deterministic sweep: weights w on the simplex, signs on each orthant
    for comp in itertools.product(range(steps + 1), repeat=n - 1):
        if sum(comp) > steps:
            continue
        w = np.array(list(comp) + [steps - sum(comp)], dtype=float) / steps
        mag = w ** (1.0 / r) if r != math.inf else (w > 0).astype(float)
        pts.append(mag)
    base = np.array(pts)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    det = (base[:, None, :] * signs[None, :, :]).reshape(-1, n)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_random, n))
    if r == math.inf:
        norms = np.max(np.abs(g), axis=1)
    else:
        norms = np.sum(np.abs(g) ** r, axis=1) ** (1.0 / r)
    rand = g / norms[:, None]
    return np.vstack([det, rand])


def opnorm_grid(a: np.ndarray, r1: float, r2: float, n_random: int = 60_000, seed: int = 1) -> float:
    """Brute-force sup ||Ax||_{r2} over ||x||_{r1} = 1 on a point cloud."""
    m = np.asarray(a, dtype=float)
    x = _lr_sphere_points(m.shape[1], r1, n_random, seed)
    y = x @ m.T
    if r2 == math.inf:
        vals = np.max(np.abs(y), axis=1)
    else:
        vals = np.sum(np.abs(y) ** r2, axis=1) ** (1.0 / r2)
    return float(vals.max())


def sparse_rademacher_atoms(p: float):
    """(values, probs) of a single delta*zeta coordinate, Rademacher base."""
    if p == 1.0:
        return [(-1.0, 0.5), (1.0, 0.5)]
    return [(-1.0, p / 2), (0.0, 1.0 - p), (1.0, p / 2)]


def enumerate_quadform(a: np.ndarray, p: float):
    """All (value, prob) pairs of x^T A x, sparse Rademacher coordinates."""
    n = a.shape[0]
    out = []
    for combo in itertools.product(sparse_rademacher_atoms(p), repeat=n):
        x = np.array([c[0] for c in combo])
        prob = math.prod(c[1] for c in combo)
        out.append((float(x @ a @ x), prob))
    return out


def exact_survival(a: np.ndarray, p: float, t_grid) -> np.ndarray:
    """P{|x^T A x - E| > t} by full enumeration."""
    pairs = enumerate_quadform(a, p)
    mean = sum(v * q for v, q in pairs)
    out = []
    for t in t_grid:
        out.append(sum(q for v, q in pairs if abs(v - mean) > t))
    return np.array(out)


def exact_quadform_moment(a: np.ndarray, p: float, r: float) -> float:
    """L_r norm of x^T A x (not centered) by full enumeration."""
    pairs = enumerate_quadform(a, p)
    return sum(q * abs(v) ** r for v, q in pairs) ** (1.0 / r)


def exact_bilinear_moment(a: np.ndarray, p: float, r: float) -> float:
    """L_r norm of x^T A y for independent copies, by full enumeration."""
    n = a.shape[0]
    atoms = sparse_rademacher_atoms(p)
    total = 0.0
    for cx in itertools.product(atoms, repeat=n):
        x = np.array([c[0] for c in cx])
        px = math.prod(c[1] for c in cx)
        for cy in itertools.product(atoms, repeat=n):
            y = np.array([c[0] for c in cy])
            py = math.prod(c[1] for c in cy)
            total += px * py * abs(x @ a @ y) ** r
    return total ** (1.0 / r)


def masked_frob_sq_reference(b: np.ndarray, theta: np.ndarray, p: np.ndarray) -> float:
    """E || B^T D A_{theta,p} D B ||_F^2 by literal expansion.

    D = diag(delta), delta_j ~ Bernoulli(p_j) independent.  Expands the
    Frobenius square into the quadruple index sum and takes expectations
    term by term: E delta_S = prod_{j in distinct(S)} p_j.  Quartic cost
    in d, quadratic in m, with no pattern classification at all.
    """
    bb = np.asarray(b, dtype=float)
    th = np.asarray(theta, dtype=float)
    q = np.asarray(p, dtype=float)
    d, m = bb.shape
    amat = np.outer(th / q, th / q)
    np.fill_diagonal(amat, th * th / q)
    total = 0.0
    for i in range(m):
        for j in range(m):
            # (B^T D A D B)_{ij} = sum_{l,k} b_{li} delta_l a_{lk} delta_k b_{kj}
            for l in range(d):
                for k in range(d):
                    for s in range(d):
                        for t in range(d):
                            e_delta = 1.0
                            for u in {l, k, s, t}:
                                e_delta *= q[u]
                            total += (
                                bb[l, i]
                                * amat[l, k]
                                * bb[k, j]
                                * bb[s, i]
                                * amat[s, t]
                                * bb[t, j]
                                * e_delta
                            )
    return total


@functools.cache
def _legendre_2000() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(2000)


def psi_alpha_legendre(kind: str, beta: float, alpha: float) -> float:
    """psi_alpha norm of W_s(beta) (kind "weibull") or of N(0, 1) by Gauss-Legendre.

    Writes E exp(|x|^alpha / t^alpha) as an integral over u, with
    |x| = u^(1/beta), u ~ Exp(1), for the Weibull and |x| = sqrt(2u),
    u = Z^2 / 2 of density e^-u / sqrt(pi u), for the Gaussian.  The
    substitution u = 1500 s^4 over s in [0, 1] smooths both densities
    at 0, and 2000 Legendre nodes integrate it.  The norm is found by
    bisection on log t, not on the exponent as in the library.
    """
    x, w = _legendre_2000()
    s = 0.5 * (x + 1.0)
    u = 1500.0 * s**4
    du = 0.5 * w * 6000.0 * s**3
    if kind == "weibull":
        mag, weight = u ** (1.0 / beta), du
    else:
        mag, weight = np.sqrt(2.0 * u), du / np.sqrt(math.pi * u)

    def moment(t: float) -> float:
        with np.errstate(over="ignore"):
            return float(weight @ np.exp((mag / t) ** alpha - u))

    lo, hi = -600.0, 600.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if moment(math.exp(mid)) <= 2.0:
            hi = mid
        else:
            lo = mid
    return math.exp(hi)


def rip_k_loop(m: np.ndarray, k: int) -> float:
    """rip_k with one eigvalsh call per k-subset, in enumeration order."""
    a = np.asarray(m, dtype=float)
    sym = 0.5 * (a + a.T)
    best = 0.0
    for subset in itertools.combinations(range(a.shape[0]), k):
        idx = np.asarray(subset)
        ev = np.linalg.eigvalsh(sym[np.ix_(idx, idx)])
        best = max(best, abs(float(ev[0])), abs(float(ev[-1])))
    return best


def expected_frob_sq_loop(b: np.ndarray, theta: np.ndarray, p: np.ndarray) -> float:
    """expected_frob_sq_exact with the outer (l, k) pair over all d^2 indices."""
    bm = np.asarray(b, dtype=float)
    t = np.asarray(theta, dtype=float)
    q = np.asarray(p, dtype=float)
    d = bm.shape[0]
    g = bm @ bm.T
    idx = np.arange(d)
    pp, qq = np.meshgrid(idx, idx, indexing="ij")
    denom_pq = np.where(pp == qq, q[pp], q[pp] * q[qq])
    outer_theta = np.outer(t, t)
    total = 0.0
    for l in range(d):
        for k in range(d):
            e_lk = q[l] * (q[k] if k != l else 1.0)
            extra_p = np.where((pp == l) | (pp == k), 1.0, q[pp])
            extra_q = np.where((qq == l) | (qq == k) | (qq == pp), 1.0, q[qq])
            denom_lk = q[l] * q[k] if l != k else q[l]
            w = e_lk * extra_p * extra_q / (denom_lk * denom_pq)
            total += t[l] * t[k] * np.sum(w * outer_theta * np.outer(g[l], g[k]))
    return float(total)


def _dual_maximizer(z: np.ndarray, r: float) -> tuple[np.ndarray, float]:
    """Unit-||.||_r vector x maximizing <z, x>; the value is ||z||_{r*}.

    r = 1 puts all mass on one argmax coordinate, r = inf takes signs.
    """
    value_r = r / (r - 1.0) if not math.isinf(r) and r > 1.0 else (math.inf if r == 1.0 else 1.0)
    val = lp_norm(z, value_r)
    if val == 0.0:
        x = np.zeros_like(z)
        if x.size:
            x[0] = 1.0
        return x, 0.0
    if r == 1.0:
        x = np.zeros_like(z)
        i = int(np.argmax(np.abs(z)))
        x[i] = math.copysign(1.0, z[i])
        return x, val
    if math.isinf(r):
        return np.sign(np.where(z == 0.0, 1.0, z)), val
    rstar = r / (r - 1.0)
    x = np.sign(z) * (np.abs(z) / np.max(np.abs(z))) ** (rstar - 1.0)
    nx = lp_norm(x, r)
    return x / nx, val


def sign_starts(restarts: int, n: int) -> np.ndarray:
    """opnorm_detail's start block, one entry at a time.

    Row 0 is all ones; row k >= 1 is -1 where frac(i sqrt(q)) < 1/2 and +1
    elsewhere, i = 1..n, for the k-th prime q, found by trial division.
    """
    primes: list[int] = []
    q = 2
    while len(primes) < restarts - 1:
        if all(q % p for p in primes if p * p <= q):
            primes.append(q)
        q += 1
    rows = [[1.0] * n]
    for q in primes:
        row = []
        for i in range(1, n + 1):
            v = math.sqrt(q) * i
            row.append(-1.0 if v - math.floor(v) < 0.5 else 1.0)
        rows.append(row)
    return np.array(rows)


def gaussian_starts(restarts: int, n: int, seed: int) -> np.ndarray:
    """The start block opnorm_detail drew before its sign patterns: all
    ones, then `restarts - 1` Gaussian rows from stream(seed, 1)."""
    return np.vstack([np.ones(n), stream(seed, 1).standard_normal((restarts - 1, n))])


def opnorm_loop(a: np.ndarray, r1: float, r2: float, restarts: int = 64) -> OpnormResult:
    """The alternating branch of opnorm_detail with one restart at a time.

    Every restart runs until it converges or reaches the iteration cap;
    none is dropped for falling behind.  `converged` is the flag of the
    first restart that attains the max.  Only for pairs without a closed
    form: 1 < r1, r2 < inf, (r1, r2) != (2, 2).
    """
    m = np.asarray(a, dtype=float)
    r2star = math.inf if r2 == 1.0 else r2 / (r2 - 1.0)
    best, best_converged = -math.inf, False
    for start in sign_starts(restarts, m.shape[0]):
        y = start / lp_norm(start, r2star)
        value = 0.0
        converged = False
        for _ in range(_ALTMAX_MAX_ITER):
            x, _ = _dual_maximizer(m.T @ y, r1)
            w = m @ x
            y, new = _dual_maximizer(w, r2star)
            if abs(new - value) <= _ALTMAX_TOL * new:
                value = new
                converged = True
                break
            value = new
        if value > best:
            best, best_converged = value, converged
    return OpnormResult(best, restarts, best_converged)


def _row_norms_two_pass(x: np.ndarray, r: float) -> np.ndarray:
    """l_r norm of each row, each row scaled by its own max first."""
    ax = np.abs(x)
    if math.isinf(r):
        return ax.max(axis=1)
    if r == 1.0:
        return ax.sum(axis=1)
    if r == 2.0:
        return np.sqrt((ax * ax).sum(axis=1))
    m = ax.max(axis=1)
    scale = np.where(m == 0.0, 1.0, m)
    return scale * np.sum((ax / scale[:, None]) ** r, axis=1) ** (1.0 / r)


def dual_rows_two_pass(z: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """matrix_norms._dual_rows as it was before it shared |z| and the row maxima.

    Two full l_r row-norm passes, one for the values ||z_i||_{r*} and one
    for the maximizers x_i, each with its own abs, max and scaling.
    """
    rstar = 1.0 if math.isinf(r) else r / (r - 1.0)
    val = _row_norms_two_pass(z, rstar)
    zero = val == 0.0
    if math.isinf(r):
        x = np.sign(np.where(z == 0.0, 1.0, z))
    else:
        az = np.abs(z)
        zmax = np.where(zero, 1.0, az.max(axis=1))
        x = np.sign(z) * (az / zmax[:, None]) ** (rstar - 1.0)
        x /= np.where(zero, 1.0, _row_norms_two_pass(x, r))[:, None]
    if zero.any():
        x[zero] = 0.0
        x[zero, 0] = 1.0
    return x, val


def dual_rows_one_power(z: np.ndarray, r: float, values: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """matrix_norms._dual_rows one operation at a time, on fresh arrays.

    A row is zero when its max |z_ij| is 0.  With t = |z| / max and
    p = t^(r* - 1) (p = t at r = 2), S = sum p t is summed as the library
    sums it; the value is max S^(1/r*), and the maximizer sign(z) p, which
    values=False divides by S^(1/r).  Every guard runs.
    """
    zero = np.abs(z).max(axis=1) == 0.0
    if math.isinf(r):
        x = np.sign(np.where(z == 0.0, 1.0, z))
        val = np.abs(z).sum(axis=1)
    else:
        rstar = r / (r - 1.0)
        zmax = np.where(zero, 1.0, np.abs(z).max(axis=1))
        t = np.abs(z) / zmax[:, None]
        p = t if r == 2.0 else t ** (rstar - 1.0)
        s = (p * t).sum(axis=1)
        val = zmax * s ** (1.0 / rstar)
        x = np.copysign(p, z)
        if not values:
            x = x / np.where(zero, 1.0, s ** (1.0 / r))[:, None]
    x[zero] = 0.0
    x[zero, 0] = 1.0
    return x, val if values else None


def opnorm_block_reference(
    a: np.ndarray, r1: float, r2: float, restarts: int = 64, seed: int | None = None
) -> OpnormResult:
    """The alternating branch of opnorm_detail with its bookkeeping on every row.

    The same block of restarts, starts, steps (dual_rows_one_power), drop
    rule and flag, but every iteration scatters the live rows' values
    into the full value array, takes its max, and indexes the converged
    flags and the live rows whether or not a row converged or dropped.
    An integer seed starts from gaussian_starts(restarts, rows, seed)
    instead of sign_starts: that is the start block opnorm_detail drew
    before its sign patterns.
    Only for pairs without a closed form: 1 < r1, r2 < inf, (r1, r2) != (2, 2).
    """
    m = np.asarray(a, dtype=float)
    r2star = math.inf if r2 == 1.0 else r2 / (r2 - 1.0)
    if seed is None:
        y = sign_starts(restarts, m.shape[0])
    else:
        y = gaussian_starts(restarts, m.shape[0], seed)
    live = np.arange(restarts)
    value = np.zeros(restarts)
    converged = np.zeros(restarts, dtype=bool)
    for it in range(_ALTMAX_MAX_ITER):
        if live.size == 0:
            break
        x, _ = dual_rows_one_power(y @ m, r1, values=False)
        y, new = dual_rows_one_power(x @ m.T, r2star)
        step = new - value[live]
        done = np.abs(step) <= _ALTMAX_TOL * new
        value[live] = new
        converged[live[done]] = True
        best = value.max()
        reach = new + np.maximum(step, 0.0) * (_ALTMAX_MAX_ITER - it - 1)
        keep = ~done & (reach >= best - _ALTMAX_TOL * best)
        live, y = live[keep], y[keep]
    top = int(value.argmax())
    return OpnormResult(float(value[top]), restarts, bool(converged[top]))


def opnorm_two_pass_block(a: np.ndarray, r1: float, r2: float, restarts: int = 64) -> OpnormResult:
    """The alternating branch of opnorm_detail before each half-step took
    one power: every step through dual_rows_two_pass, the start block and
    every y normalised to unit l_{r2*} rows, and the tolerances taken
    relative to max(1, value).
    Only for pairs without a closed form: 1 < r1, r2 < inf, (r1, r2) != (2, 2).
    """
    m = np.asarray(a, dtype=float)
    r2star = math.inf if r2 == 1.0 else r2 / (r2 - 1.0)
    y = sign_starts(restarts, m.shape[0])
    y = y / _row_norms_two_pass(y, r2star)[:, None]
    live = np.arange(restarts)
    value = np.zeros(restarts)
    converged = np.zeros(restarts, dtype=bool)
    for it in range(_ALTMAX_MAX_ITER):
        if live.size == 0:
            break
        x, _ = dual_rows_two_pass(y @ m, r1)
        y, new = dual_rows_two_pass(x @ m.T, r2star)
        step = new - value[live]
        done = np.abs(step) <= _ALTMAX_TOL * np.maximum(1.0, new)
        value[live] = new
        converged[live[done]] = True
        best = value.max()
        reach = new + np.maximum(step, 0.0) * (_ALTMAX_MAX_ITER - it - 1)
        keep = ~done & (reach >= best - _ALTMAX_TOL * max(1.0, best))
        live, y = live[keep], y[keep]
    top = int(value.argmax())
    return OpnormResult(float(value[top]), restarts, bool(converged[top]))


def bound_table_workload_matrix(seed: int) -> np.ndarray:
    """The 60 x 60 matrix perfbench/workloads.py writes for `bound-table` at seed.

    A pinned symmetric Gaussian matrix under a seeded signed permutation.
    """
    base_seed, n = 20251017, 60
    g = np.random.default_rng([base_seed, n]).standard_normal((n, n))
    a0 = 0.5 * (g + g.T)
    rng = np.random.default_rng([base_seed, seed])
    perm, signs = rng.permutation(n), rng.choice([-1.0, 1.0], size=n)
    return signs[:, None] * a0[np.ix_(perm, perm)] * signs[None, :]


def blocked_draws(
    model, n_samples: int, seed: int, chunk_size: int, block_rows: int
) -> np.ndarray:
    """The samples of a Monte Carlo run, stacked into one (n_samples, dim) array.

    Chunk c draws from chunk_stream(seed, c) in consecutive blocks of
    block_rows rows, one fresh sample_sparse_matrix call each.
    """
    blocks = []
    for c, size in enumerate(chunk_sizes(n_samples, chunk_size)):
        rng = chunk_stream(seed, c)
        for start in range(0, size, block_rows):
            blocks.append(sample_sparse_matrix(model, min(block_rows, size - start), rng))
    return np.vstack(blocks)


def quadform_unblocked(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    return (x @ a * x).sum(axis=1)


def linear_unblocked(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    return x @ a


def norm_unblocked(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    return np.linalg.norm(x @ m.T, axis=1)


def sparse_matrix_divmod(model, n_samples: int, rng) -> np.ndarray:
    """sample_sparse_matrix's draws, each kept position split by divmod
    into (row, column of its group) and scattered by a 2-D assignment."""
    x = np.zeros((n_samples, model.dim))
    for p, cols in model.groups:
        g = len(cols)
        if p == 1.0:
            x[:, cols] = sample_base(model.base, (n_samples, g), rng)
        elif p > 0.0:
            rows, j = np.divmod(_retained(p, n_samples * g, rng), g)
            x[rows, cols[j]] = sample_base(model.base, rows.size, rng)
    return x


# ---------------------------------------------------------------- former package code


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


def save_matrix_csv(path, a) -> None:
    np.savetxt(path, _as_matrix(a), delimiter=",")


def save_matrix_bin(path, a) -> None:
    """Header u64 rows, u64 cols (little-endian), then row-major f64."""
    m = _as_matrix(a)
    with open(path, "wb") as fh:
        np.array(m.shape, dtype="<u8").tofile(fh)
        np.ascontiguousarray(m, dtype="<f8").tofile(fh)


def reconstruct(f) -> np.ndarray:
    """U diag(S) V^T of a sketchlr.FactoredMatrix f."""
    return (f.u * f.s) @ f.v.T
