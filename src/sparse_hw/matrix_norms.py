"""Matrix functionals used by the tail bounds.

Everything operates on dense 2-D float arrays.  Operator norms
||A||_{r1 -> r2} = sup{y^T A x : ||x||_{r1} <= 1, ||y||_{r2*} <= 1}
use exact closed forms where they exist (the spectral norm comes from
LAPACK's singular values) and a multi-restart alternating maximization
elsewhere (Boyd 1974, "The power method for l^p norms"; Higham 1992,
"Estimating the matrix p-norm"); only the alternating result is a
certified lower bound (every iterate is a feasible pair).  Its restarts
start from fixed sign patterns, so nothing is drawn at random, and they
iterate together as the rows of one block, two matrix-matrix products
per iteration, so every restart follows the iterates it would follow
alone, up to the rounding of the products.  Each half-step takes one
power and one row sum (see _dual_rows).  Each row stops on its own
convergence test, relative to its value, or as soon as it cannot reach
the block's best value within the iteration cap; the reported
convergence flag is that of the restart giving the value, not of every
restart.  The closed-form l_r norms (lp_norm, frobenius, max_abs,
mixed_norm, the r1 = 1 and r2 = inf operator norms, row_weighted_max)
share one kernel, _row_norms, which scales each row by its largest
entry, so 2^k A scales them, like the alternating value, exactly by 2^k.
So does gamma1(A, p), which returns sqrt(gamma1), the root the bounds
read; Functionals.gamma1, its square, is of degree 2 in A and may still
overflow or underflow.

Sparsity-weighted functionals take a retention-probability vector p:

* gamma1(A, p)  = sum_k a_kk^2 p_k + sum_{i != j} a_ij^2 p_i p_j
* gamma2(A, p)  = max_i max{ sum_{j != i} |a_ij| p_j,
                             sum_{j != i} |a_ji| p_j, |a_ii| }
* weighted_spectral(A, p) = || (a_ij sqrt(p_i p_j))_ij ||_{2->2}
* row_weighted_max(A, p)  = max_i (sum_j a_ij^2 p_j)^(1/2)

File format: matrices are read from CSV (one row per line) or from a
binary blob with a little-endian header (u64 rows, u64 cols) followed by
row-major f64 entries.  A file that holds no entries, or an entry that is
not a finite number, is a ConfigError.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConfigError

# nothing here calls it; the benchmark tracer wraps matrix_norms.stream
from .streams import stream

_ALTMAX_TOL = 1e-12
_ALTMAX_MAX_ITER = 200


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ConfigError("matrix entries must be finite")
    return m


def _as_probs(p, n: int) -> np.ndarray:
    q = np.asarray(p, dtype=float)
    if q.ndim == 0:
        q = np.full(n, float(q))
    if q.shape != (n,):
        raise ValueError(f"p must have shape ({n},), got {q.shape}")
    if np.any(q < 0.0) or np.any(q > 1.0) or not np.all(np.isfinite(q)):
        raise ConfigError("retention probabilities must lie in [0, 1]")
    return q


def _check_exponent(r: float) -> float:
    r = float(r)
    if math.isnan(r) or r < 1.0:
        raise ValueError(f"exponent must lie in [1, inf], got {r}")
    return r


def _row_norms(m: np.ndarray, r: float) -> np.ndarray:
    """The l_r norm of each row of the 2-D array m, r in [1, inf], as
    top (sum_j (|m_ij| / top)^r)^(1/r) with top the row's largest |m_ij|
    (Blue 1978; a zero row gives 0): no power overflows or underflows to 0
    unless the norm does, and 2^k m gives exactly 2^k times the norms."""
    a = np.abs(m)
    top = a.max(axis=1, initial=0.0)
    if math.isinf(r):
        return top
    t = np.divide(a, np.where(top == 0.0, 1.0, top)[:, None], out=a)
    return top * np.power(t, r, out=t).sum(axis=1) ** (1.0 / r)


def frobenius(a) -> float:
    return lp_norm(_as_matrix(a), 2.0)


def max_abs(a) -> float:
    """Entrywise max |a_ij|, which equals ||A||_{1 -> inf}."""
    return lp_norm(_as_matrix(a), math.inf)


def lp_norm(x: np.ndarray, r: float) -> float:
    """l_r norm, r in [1, inf], of the entries of x taken as one vector."""
    return float(_row_norms(np.asarray(x, dtype=float).reshape(1, -1), _check_exponent(r))[0])


def mixed_norm(a, r: float) -> float:
    """l_r norm of the vector of row l_2 norms; r = inf gives the max row norm."""
    return lp_norm(_row_norms(_as_matrix(a), 2.0), r)


def conjugate(r: float) -> float:
    """The exponent r* in [1, inf] with 1/r + 1/r* = 1, for r in [1, inf]."""
    if r == 1.0:
        return math.inf
    if math.isinf(r):
        return 1.0
    return r / (r - 1.0)


def _dual_rows(
    z: np.ndarray, r: float, values: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Row-wise maximizers x_i of <z_i, x_i> over ||x_i||_r <= 1, and the values ||z_i||_{r*}.

    r lies in (1, inf]; r = inf takes signs.  A row is zero exactly when
    its largest |z_ij| is 0; it gets e_1 and value 0.  For r < inf, with
    t = |z| / max per row, the maximizer is sign(z) p / ||p||_r for
    p = t^(r* - 1) (p = t at r = 2).  As (r* - 1) r = r*, the one power p
    and the one row sum S = sum p t give the value max S^(1/r*) and
    ||p||_r = S^(1/r), whatever the scale of z.  values=True returns the
    values and sign(z) p, whose largest entry in each row is +-1, without
    the division by ||p||_r; values=False returns the unit maximizers and
    None.  |z| is scaled into t in place.
    """
    if math.isinf(r):
        sums = np.abs(z).sum(axis=1)
        zero = sums == 0.0
        some_zero = zero.any()
        x = np.sign(np.where(z == 0.0, 1.0, z))
        val = sums if values else None
    else:
        rstar = r / (r - 1.0)
        az = np.abs(z)
        zmax = az.max(axis=1)
        zero = zmax == 0.0
        some_zero = zero.any()
        scale = np.where(zero, 1.0, zmax) if some_zero else zmax
        t = np.divide(az, scale[:, None], out=az)
        if r == 2.0:
            p = t
            s = (t * t).sum(axis=1)
        else:
            p = t ** (rstar - 1.0)
            s = np.multiply(p, t, out=t).sum(axis=1)
        x = np.copysign(p, z, out=p)
        if values:
            val = scale * s ** (1.0 / rstar)
        else:
            val = None
            nx = s ** (1.0 / r)
            x /= (np.where(zero, 1.0, nx) if some_zero else nx)[:, None]
    if some_zero:
        x[zero] = 0.0
        x[zero, 0] = 1.0
    return x, val


def _primes(count: int) -> np.ndarray:
    """The first `count` primes, sieved up to p_k < k (ln k + ln ln k) (Rosser, k >= 6)."""
    limit = 13 if count < 6 else int(count * (math.log(count) + math.log(math.log(count))))
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return np.flatnonzero(sieve)[:count]


def _sign_starts(restarts: int, n: int) -> np.ndarray:
    """The alternating maximization's start block: `restarts` rows of length n.

    Row 0 is all ones.  Row k >= 1 is the sign pattern -1 where
    frac(i sqrt(q_k)) < 1/2 and +1 elsewhere, i = 1..n, with q_k the k-th
    prime.  sqrt(q_k) is irrational, so i sqrt(q_k) is equidistributed
    mod 1 (Weyl), and each row takes either sign about half the time.
    """
    x = np.sqrt(_primes(restarts - 1))[:, None] * np.arange(1, n + 1)
    return np.vstack([np.ones(n), np.where(x - np.floor(x) < 0.5, -1.0, 1.0)])


@dataclass(frozen=True)
class OpnormResult:
    value: float
    restarts: int
    converged: bool


def opnorm_detail(a, r1: float, r2: float, restarts: int = 64) -> OpnormResult:
    """||A||_{r1 -> r2} with convergence metadata.

    Closed forms: (2,2) spectral; r1 = 1 gives max column l_{r2} norm;
    r2 = inf gives max row l_{r1*} norm (covers (1,inf) and (2,inf)).
    Otherwise alternating maximization over feasible (x, y) pairs from
    `restarts` starting points (restarts >= 1), the rows of
    _sign_starts: the all-ones vector, then `restarts - 1` fixed sign
    patterns, so the value is the same at every call and no random
    generator is built.
    All restarts iterate together as the rows of one block.  An iteration
    multiplies the block by A twice: the x-step takes only the unit
    maximizers x of y A (their values are not needed), the y-step the
    maximizers y of x A^T, unnormalised, and their values, which are the
    rows' new values.  The x-step's maximizer does not change when a row
    of y is multiplied by a positive number, so neither y nor the start
    block is normalised.  A row stops, converged, once its own value
    moves by at most _ALTMAX_TOL times that value.
    It also stops, unconverged, once it looks unable to catch up: its
    latest step, repeated for every iteration left before
    _ALTMAX_MAX_ITER, would still leave it more than _ALTMAX_TOL relative
    below the best value so far.  That drop rule is a heuristic: a
    restart that speeds up later is lost, so the value may stop below
    the one every restart would reach if run to convergence or the cap.
    The live rows' latest values are kept apart from the stopped rows',
    which are written, with the converged flags, only in an iteration
    where some row converged or stopped.
    The value, the max over rows, is a certified lower bound either way;
    `converged` says whether the first restart that attains it converged.
    """
    m = _as_matrix(a)
    r1 = _check_exponent(r1)
    r2 = _check_exponent(r2)
    if m.size == 0:
        return OpnormResult(0.0, 0, True)
    if r1 == 2.0 and r2 == 2.0:
        return OpnormResult(float(np.linalg.norm(m, 2)), 0, True)
    if r1 == 1.0:
        return OpnormResult(float(_row_norms(m.T, r2).max()), 0, True)
    if math.isinf(r2):
        return OpnormResult(float(_row_norms(m, conjugate(r1)).max()), 0, True)
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")

    r2star = conjugate(r2)
    y = _sign_starts(restarts, m.shape[0])
    live = np.arange(restarts)  # restarts still iterating, by index
    prev = np.zeros(restarts)  # the live rows' latest values
    value = np.zeros(restarts)  # the stopped rows' final values
    converged = np.zeros(restarts, dtype=bool)
    stopped_best = 0.0
    for it in range(_ALTMAX_MAX_ITER):
        if live.size == 0:
            break
        x, _ = _dual_rows(y @ m, r1, values=False)
        y, new = _dual_rows(x @ m.T, r2star)
        step = new - prev
        done = np.abs(step) <= _ALTMAX_TOL * new
        # a row that would stay below the best value even if its latest
        # step repeated until the cap cannot catch up: it stops, unconverged
        best = max(stopped_best, new.max())
        reach = new + np.maximum(step, 0.0) * (_ALTMAX_MAX_ITER - it - 1)
        keep = ~done & (reach >= best - _ALTMAX_TOL * best)
        if keep.all():
            prev = new
            continue
        stop = ~keep
        value[live[stop]] = new[stop]
        converged[live[done]] = True
        stopped_best = max(stopped_best, new[stop].max())
        live, y, prev = live[keep], y[keep], new[keep]
    value[live] = prev
    top = int(value.argmax())
    return OpnormResult(float(value[top]), restarts, bool(converged[top]))


def opnorm(a, r1: float, r2: float, restarts: int = 64) -> float:
    return opnorm_detail(a, r1, r2, restarts=restarts).value


# The weighted functionals take A as a 2-D float array and p as one entry per
# column in [0, 1], as Functionals holds them; gamma1, gamma2 and
# weighted_spectral also need A square.


def gamma1(a: np.ndarray, p) -> float:
    """sqrt(gamma1): the l_2 norm of the entries a_ij sqrt(p_i p_j) (i != j) and
    a_kk sqrt(p_k), which scales exactly by 2^k under 2^k A.  Functionals.gamma1
    is its square, so it overflows to inf, never to NaN."""
    s = np.sqrt(p)
    w = a * np.outer(s, s)
    np.fill_diagonal(w, np.diag(a) * s)
    return lp_norm(w, 2.0)


def gamma2(a: np.ndarray, p) -> float:
    """Sparse row/column l_1 functional; see module docstring."""
    ab = np.abs(a)
    off_diag = ab - np.diag(np.diag(ab))
    return float(np.max(np.stack([off_diag @ p, off_diag.T @ p, np.diag(ab)])))


def weighted_spectral(a: np.ndarray, p) -> float:
    """Spectral norm of (a_ij sqrt(p_i p_j))."""
    s = np.sqrt(p)
    return float(np.linalg.norm(a * np.outer(s, s), 2))


def row_weighted_max(a: np.ndarray, p) -> float:
    """max_i (sum_j a_ij^2 p_j)^(1/2)."""
    return float(_row_norms(a * np.sqrt(p), 2.0).max(initial=0.0))


class Functionals:
    """The functionals of one matrix A, each computed the first time it is read.

    p (a scalar or one entry per column) is read only by the weighted
    fields, alpha only by the `conj` ones (alpha* = alpha / (alpha - 1), so
    alpha >= 1).  op(r1, r2) is opnorm_detail at its default restarts,
    which start from fixed sign patterns, so a field is the same at every
    run.  It is cached by the pair: at alpha = 1, op_2_to_conj is
    op_2_to_inf.
    Fields call the module-level functions through the module globals, so
    a wrapper installed on one of them sees every call.
    """

    def __init__(self, a, p=None, alpha: float | None = None):
        self.a = _as_matrix(a)
        self.p = None if p is None else _as_probs(p, self.a.shape[1])
        self.alpha = alpha
        self.op = cache(lambda r1, r2: opnorm_detail(self.a, r1, r2))

    frobenius = cached_property(lambda self: frobenius(self.a))
    max_abs = cached_property(lambda self: max_abs(self.a))
    spectral = property(lambda self: self.op(2, 2).value)
    op_2_to_inf = property(lambda self: self.op(2, math.inf).value)
    op_1_to_2 = property(lambda self: self.op(1, 2).value)
    op_1_to_inf = property(lambda self: self.op(1, math.inf).value)
    op_2_to_conj = property(lambda self: self.op(2, conjugate(self.alpha)).value)
    op_alpha_to_conj = property(lambda self: self.op(self.alpha, conjugate(self.alpha)).value)
    mixed_l4_l2 = cached_property(lambda self: mixed_norm(self.a, 4.0))
    mixed_linf_l2 = cached_property(lambda self: mixed_norm(self.a, math.inf))
    mixed_conj_l2 = cached_property(lambda self: mixed_norm(self.a, conjugate(self.alpha)))
    gamma1_root = cached_property(lambda self: gamma1(self.a, self.p))
    gamma1 = cached_property(lambda self: self.gamma1_root * self.gamma1_root)
    gamma2 = cached_property(lambda self: gamma2(self.a, self.p))
    weighted_spectral = cached_property(lambda self: weighted_spectral(self.a, self.p))
    row_weighted_max = cached_property(lambda self: row_weighted_max(self.a, self.p))


def load_matrix_csv(path) -> np.ndarray:
    """An entry that is not a number, or a row of another length, is a ConfigError."""
    with warnings.catch_warnings():  # a file with no entries is rejected below instead
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            with open(path, encoding="utf-8") as fh:  # OSError words a missing file as bin does
                m = np.loadtxt(fh, delimiter=",", ndmin=2)
        except UnicodeDecodeError:
            raise  # the caller knows how else the file may be read
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if m.size == 0:
        raise ConfigError(f"matrix file {str(path)!r} holds no entries")
    return _as_matrix(m)


def load_matrix_bin(path) -> np.ndarray:
    """The payload must be exactly the header's rows x cols entries.  It is
    checked against the file size before anything is allocated, so a
    header larger than its file is a truncated payload, not an
    allocation, and bytes past the last entry are rejected, not ignored."""
    with open(path, "rb") as fh:
        header = np.fromfile(fh, dtype="<u8", count=2)
        if header.size != 2:
            raise ConfigError("truncated matrix header")
        rows, cols = int(header[0]), int(header[1])
        if rows * cols == 0:
            raise ConfigError(f"matrix file {str(path)!r} holds no entries")
        extra = os.fstat(fh.fileno()).st_size - 16 - rows * cols * 8
        if extra < 0:
            raise ConfigError("truncated matrix payload")
        if extra > 0:
            raise ConfigError(
                f"matrix file {str(path)!r} holds {extra} bytes past its {rows} x {cols} entries"
            )
        data = np.fromfile(fh, dtype="<f8", count=rows * cols)
    return _as_matrix(data.reshape(rows, cols))
