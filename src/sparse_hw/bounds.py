"""Tail-bound evaluators for quadratic and linear forms in sparse vectors.

Every bound here has the shape

    P{ |statistic| >= threshold } <= prefactor * exp(-c_alpha * E(t))

where the exponent E(t) is a minimum of power regimes (t / coeff)^expo.
Regimes whose coefficient is zero are vacuous (the matrix carries no
mass in that functional) and are dropped from the minimum; a bound whose
regimes are all vacuous is degenerate and raises.

Normalization convention.  The quadratic-form bounds `hw_sparse_bound`,
`f1`, `f2`, `f_sparse` and `norm_concentration_bound` take t in L^2
units: the certified threshold is L^2 * t where L bounds the psi_alpha
norms of the base variables.  `bernstein_sparse_bound` and
`comparison_bounds` take the raw threshold and keep L inside the
formula, so different inequalities can be compared at one threshold.
Everywhere t may be a scalar or an array; results take the shape of t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matrix_norms as mn
from .rv_models import AlphaParam

Regime = tuple[float, float]  # (coefficient, exponent)


@dataclass(frozen=True)
class BoundConstants:
    """Calibration constants: bound = prefactor * exp(-c_alpha * E(t))."""

    c_alpha: float = 1.0
    prefactor: float = 2.0

    def __post_init__(self) -> None:
        if not (self.c_alpha > 0 and self.prefactor > 0):
            raise ValueError("constants must be positive")


DEFAULT_CONSTANTS = BoundConstants()


@dataclass(frozen=True)
class TailBound:
    """Minimum of power regimes together with calibration constants."""

    regimes: tuple[Regime, ...]
    constants: BoundConstants = DEFAULT_CONSTANTS
    _active: tuple[Regime, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        regs = tuple((float(c), float(e)) for c, e in self.regimes)
        for c, e in regs:
            if c < 0 or math.isnan(c):
                raise ValueError("regime coefficients must be nonnegative")
            if e <= 0 or math.isnan(e):
                raise ValueError("regime exponents must be positive")
        active = tuple((c, e) for c, e in regs if c > 0)
        if not active:
            raise ValueError("all regimes vacuous: zero statistic on support")
        object.__setattr__(self, "regimes", regs)
        object.__setattr__(self, "_active", active)

    def exponent(self, t):
        """E(t) = min over active regimes of (t / coeff)^expo."""
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0):  # NaN fails >= too
            raise ValueError("t must be nonnegative")
        vals = [np.power(t / c, e) for c, e in self._active]
        out = np.minimum.reduce(vals)
        return float(out) if out.ndim == 0 else out

    def prob(self, t):
        """Bound value prefactor * exp(-c_alpha * E(t)), always in (0, prefactor]."""
        e = self.exponent(t)
        return self.constants.prefactor * np.exp(-self.constants.c_alpha * np.asarray(e))


def _symmetric_square(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix must be symmetric; pass symmetrize(A) explicitly")
    return m


def symmetrize(a) -> np.ndarray:
    """(A + A^T) / 2; quadratic forms are invariant under this map."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return 0.5 * (m + m.T)


def f1_regimes(a, alpha: float, restarts: int = 64, seed: int = 0) -> tuple[Regime, ...]:
    """Five-regime exponent for dense quadratic forms, 1 <= alpha <= 2."""
    al = AlphaParam(alpha)
    if al.value < 1.0:
        raise ValueError("five-regime exponent needs alpha in [1, 2]")
    m = _symmetric_square(a)
    astar = al.conjugate
    return (
        (mn.frobenius(m), 2.0),
        (mn.opnorm(m, 2, 2), 1.0),
        (mn.mixed_norm(m, astar), al.value),
        (mn.opnorm(m, 2, astar, restarts=restarts, seed=seed), 2 * al.value / (2 + al.value)),
        (mn.opnorm(m, al.value, astar, restarts=restarts, seed=seed), al.value / 2),
    )


def f2_regimes(a, alpha: float) -> tuple[Regime, ...]:
    """Four-regime exponent for dense quadratic forms, 0 < alpha <= 1."""
    al = AlphaParam(alpha)
    if al.value > 1.0:
        raise ValueError("four-regime exponent needs alpha in (0, 1]")
    m = _symmetric_square(a)
    return (
        (mn.frobenius(m), 2.0),
        (mn.opnorm(m, 2, 2), 1.0),
        (mn.opnorm(m, 2, math.inf), 2 * al.value / (2 + al.value)),
        (mn.max_abs(m), al.value / 2),
    )


def f_sparse_regimes(a, p, alpha: float) -> tuple[Regime, ...]:
    """Refined sparse exponent, 0 < alpha <= 1; reduces to f2 at p = 1."""
    al = AlphaParam(alpha)
    if al.value > 1.0:
        raise ValueError("refined sparse exponent needs alpha in (0, 1]")
    m = _symmetric_square(a)
    return (
        (math.sqrt(mn.gamma1(m, p)), 2.0),
        (mn.weighted_spectral(m, p), 1.0),
        (mn.row_weighted_max(m, p), 2 * al.value / (2 + al.value)),
        (mn.max_abs(m), al.value / 2),
    )


def f1(t, a, alpha: float, restarts: int = 64, seed: int = 0):
    return TailBound(f1_regimes(a, alpha, restarts=restarts, seed=seed)).exponent(t)


def f2(t, a, alpha: float):
    return TailBound(f2_regimes(a, alpha)).exponent(t)


def f_sparse(t, a, p, alpha: float):
    return TailBound(f_sparse_regimes(a, p, alpha)).exponent(t)


def hw_sparse_regimes(a, p, alpha: float) -> tuple[Regime, ...]:
    """Two-regime sparse exponent, 0 < alpha <= 2."""
    al = AlphaParam(alpha)
    m = _symmetric_square(a)
    return (
        (math.sqrt(mn.gamma1(m, p)), 2.0),
        (mn.opnorm(m, 2, 2), al.value / 2),
    )


def hw_sparse_bound(
    t,
    a,
    p,
    alpha: float,
    L: float = 1.0,
    constants: BoundConstants = DEFAULT_CONSTANTS,
):
    """Tail bound for |xi^T A xi - E xi^T A xi| at threshold L^2 * t.

    The exponent is min{ t^2 / gamma1(A, p), (t / ||A||_{2->2})^(alpha/2) }.
    """
    if not L > 0:
        raise ValueError("L must be positive")
    return TailBound(hw_sparse_regimes(a, p, alpha), constants).prob(t)


def bernstein_regimes(a_vec, p, alpha: float, L: float = 1.0) -> tuple[Regime, ...]:
    """Linear-form regimes at raw threshold t, for 0 < alpha <= 1.

    Exponent min{ t^2 / (L^2 sum a_i^2 p_i), (t / (L ||a||_inf))^alpha }.
    """
    al = AlphaParam(alpha)
    if al.value > 1.0:
        raise ValueError("linear-form bound needs alpha in (0, 1]")
    if not L > 0:
        raise ValueError("L must be positive")
    a = np.asarray(a_vec, dtype=float)
    if a.ndim != 1:
        raise ValueError("a must be a vector")
    q = np.asarray(p, dtype=float)
    if q.ndim == 0:
        q = np.full(a.shape, float(q))
    if q.shape != a.shape or np.any(q < 0) or np.any(q > 1):
        raise ValueError("p must match a and lie in [0, 1]")
    return (
        (L * math.sqrt(float(a * a @ q)), 2.0),
        (L * float(np.max(np.abs(a))) if a.size else 0.0, al.value),
    )


def bernstein_sparse_bound(
    t,
    a_vec,
    p,
    alpha: float,
    L: float = 1.0,
    constants: BoundConstants = DEFAULT_CONSTANTS,
):
    """Tail bound for the linear form |sum_i a_i xi_i| at raw threshold t.

    Exponent min{ t^2 / (L^2 sum a_i^2 p_i), (t / (L ||a||_inf))^alpha },
    for 0 < alpha <= 1.
    """
    return TailBound(bernstein_regimes(a_vec, p, alpha, L), constants).prob(t)


def norm_concentration_center(a, p: float) -> float:
    """Centering value sqrt(p) * ||A||_F for the norm deviation bound."""
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    return math.sqrt(p) * mn.frobenius(a)


def norm_concentration_bound(
    t,
    a,
    p: float,
    alpha: float,
    L: float = 1.0,
    constants: BoundConstants = DEFAULT_CONSTANTS,
):
    """Tail bound for | ||A xi||_2 - sqrt(p) ||A||_F | at threshold L^2 * t.

    Exponent min{ (t / ||A||_{2->2})^2, (t / ||A||_{2->2})^alpha }; the
    uniform retention probability p enters the centering, not the decay.
    """
    al = AlphaParam(alpha)
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    if not L > 0:
        raise ValueError("L must be positive")
    s = mn.opnorm(a, 2, 2)
    if s == 0.0:
        raise ValueError("zero matrix has no norm concentration bound")
    return TailBound(((s, 2.0), (s, al.value)), constants).prob(t)


@dataclass(frozen=True)
class BoundEval:
    """One comparison entry: bound value and exponent, each of the shape of
    t, and whether the inequality's stated alpha range covers the
    requested alpha."""

    value: float | np.ndarray
    exponent: float | np.ndarray
    applicable: bool


def comparison_bounds(
    t,
    a,
    p,
    alpha: float,
    L: float = 1.0,
    constants: BoundConstants = DEFAULT_CONSTANTS,
    restarts: int = 64,
    seed: int = 0,
) -> dict[str, BoundEval]:
    """Evaluate the competing tail bounds at a raw threshold t.

    t may be a scalar or an array; the matrix functionals are computed
    once for all of it.  All entries bound P{|S_A(xi) - E S_A(xi)| >= t}
    using the same constants, so values are directly comparable.
    Entries outside an inequality's stated alpha range are still
    evaluated but flagged applicable=False.
    """
    al = AlphaParam(alpha)
    m = _symmetric_square(a)
    if not L > 0:
        raise ValueError("L must be positive")
    if not math.isfinite(L * L):
        raise ValueError(f"L = {L:g} overflows when squared")
    t = np.asarray(t, dtype=float)
    q = mn._as_probs(p, m.shape[0])

    fro = mn.frobenius(m)
    spec = mn.opnorm(m, 2, 2)
    g1 = mn.gamma1(m, q)
    g2 = mn.gamma2(m, q)
    mabs = mn.max_abs(m)
    tn = t / L**2  # threshold in L^2 units

    def entry(regimes, tt, applicable):
        tb = TailBound(regimes, constants)
        return BoundEval(tb.prob(tt), tb.exponent(tt), applicable)

    out: dict[str, BoundEval] = {}
    out["classical_hw"] = entry(
        ((L**2 * fro, 2.0), (L**2 * spec, 1.0)), t, al.value == 2.0
    )
    if al.value >= 1.0:
        out["dense_five_regime"] = entry(
            f1_regimes(m, al.value, restarts=restarts, seed=seed), tn, True
        )
    if al.value <= 1.0:
        out["dense_four_regime"] = entry(f2_regimes(m, al.value), tn, True)
    out["two_regime_simplified"] = entry(
        ((L**2 * fro, 2.0), (L**2 * spec, al.value / 2)), t, True
    )
    out["sparse_subgaussian"] = entry(
        ((L**2 * math.sqrt(g1), 2.0), (L**2 * spec, 1.0)), t, al.value == 2.0
    )
    out["sparse_gamma2"] = entry(
        (
            (L**2 * math.sqrt(g1), 2.0),
            (L**2 * g2, 1.0),
            (L**2 * mabs, min(al.value / 2, 0.5)),
        ),
        t,
        True,
    )
    out["sparse_alpha"] = entry(hw_sparse_regimes(m, q, al.value), tn, True)
    if al.value <= 1.0:
        out["sparse_alpha_refined"] = entry(f_sparse_regimes(m, q, al.value), tn, True)
    return out


def moments_to_tail(C, beta, r0: float, t: float) -> tuple[float, float]:
    """Tail bound from a polynomial moment growth profile.

    Given ||xi||_{L_r} <= sum_{k<=m} C_k r^{beta_k} + C_{m+1} for r >= r0,
    returns (threshold, bound) with threshold = e * (m t + C_{m+1}) and
    bound = e^{r0} * exp(-min_k (t / C_k)^{1 / beta_k}).
    """
    c = np.asarray(C, dtype=float)
    b = np.asarray(beta, dtype=float)
    if c.ndim != 1 or b.ndim != 1 or c.size != b.size + 1:
        raise ValueError("need m + 1 coefficients for m exponents")
    if np.any(c <= 0) or np.any(b <= 0):
        raise ValueError("coefficients and exponents must be positive")
    if r0 < 0:
        raise ValueError("r0 must be nonnegative")
    if not t >= 0:  # NaN fails >= too
        raise ValueError("t must be nonnegative")
    m = b.size
    threshold = math.e * (m * t + c[-1])
    exponent = float(np.min((t / c[:-1]) ** (1.0 / b)))
    return threshold, math.exp(r0) * math.exp(-exponent)


def moment_oracle_bilinear(a, alpha: float, r: float, restarts: int = 64, seed: int = 0) -> dict:
    """Moment growth profiles for a diagonal-free symmetric quadratic form.

    Returns the three L_r coefficient combinations (up to alpha-dependent
    constants): the five-term profile for 1 <= alpha <= 2, the four-term
    profile for 0 < alpha <= 1, and the simplified two-term profile valid
    on the whole range.  Inapplicable profiles come back as None.
    """
    al = AlphaParam(alpha)
    m = _symmetric_square(a)
    if np.any(np.diag(m) != 0.0):
        raise ValueError("moment profiles require a diagonal-free matrix")
    if r < 2:
        raise ValueError("r must be at least 2")
    fro = mn.frobenius(m)
    spec = mn.opnorm(m, 2, 2)
    out: dict[str, float | None] = {"five_term": None, "four_term": None}
    if al.value >= 1.0:
        astar = al.conjugate
        out["five_term"] = (
            math.sqrt(r) * fro
            + r * spec
            + r ** (1.0 / al.value) * mn.mixed_norm(m, astar)
            + r ** ((al.value + 2) / (2 * al.value))
            * mn.opnorm(m, 2, astar, restarts=restarts, seed=seed)
            + r ** (2.0 / al.value) * mn.opnorm(m, al.value, astar, restarts=restarts, seed=seed)
        )
    if al.value <= 1.0:
        out["four_term"] = (
            math.sqrt(r) * fro
            + r * spec
            + r ** ((al.value + 2) / (2 * al.value)) * mn.opnorm(m, 2, math.inf)
            + r ** (2.0 / al.value) * mn.max_abs(m)
        )
    out["two_term"] = math.sqrt(r) * fro + r ** (2.0 / al.value) * spec
    return out


def bound_report(
    a,
    p,
    alpha: float,
    t_grid,
    L: float = 1.0,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> dict:
    """Comparison table over a threshold grid, serializable as JSON.

    Shape: {"t_grid": [...], "bounds": {name: [...]}, "norms": {...}}.
    """
    m = _symmetric_square(a)
    q = mn._as_probs(p, m.shape[0])
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a nonempty vector")
    evals = comparison_bounds(ts, m, q, alpha, L=L, constants=constants)
    norms = {
        "frobenius": mn.frobenius(m),
        "spectral": mn.opnorm(m, 2, 2),
        "max_abs": mn.max_abs(m),
        "gamma1": mn.gamma1(m, q),
        "gamma2": mn.gamma2(m, q),
        "weighted_spectral": mn.weighted_spectral(m, q),
        "row_weighted_max": mn.row_weighted_max(m, q),
    }
    return {
        "t_grid": ts.tolist(),
        "bounds": {k: e.value.tolist() for k, e in evals.items()},
        "applicable": {k: e.applicable for k, e in evals.items()},
        "norms": norms,
        "alpha": AlphaParam(alpha).value,
        "L": float(L),
        "constants": {"c_alpha": constants.c_alpha, "prefactor": constants.prefactor},
    }
