"""Tail-bound evaluators for quadratic and linear forms in sparse vectors.

Every bound here has the shape

    P{ |statistic| >= threshold } <= prefactor * exp(-c_alpha * E(t))

where the exponent E(t) is a minimum of power regimes (t / coeff)^expo.
Regimes whose coefficient is zero are vacuous (the matrix carries no
mass in that functional) and are dropped from the minimum; a bound whose
regimes are all vacuous is degenerate and raises.

Threshold unit.  Every regime is evaluated at a threshold in its own
unit, and no coefficient carries L, the bound on the psi_alpha norms of
the base variables: a quadratic-form regime at t / L^2, the linear-form
regimes of `bernstein_regimes` at t / L, for a raw threshold t.
`comparison_bounds` and `bound_report` take the raw t and divide it by
L^2 once.  The quadratic-form regimes (`f1_regimes`, `f2_regimes`,
`f_sparse_regimes`, `hw_sparse_regimes`), `comparison_bounds` and
`bound_report` take one `matrix_norms.Functionals` record, built by
`functionals(A, p, alpha)`, so each matrix functional is computed once.
Everywhere t may be a scalar or an array; results take the shape of t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matrix_norms as mn
from .errors import ConfigError
from .rv_models import AlphaParam

Regime = tuple[float, float]  # (coefficient, exponent)


@dataclass(frozen=True)
class BoundConstants:
    """Calibration constants, both positive: bound = prefactor * exp(-c_alpha * E(t))."""

    c_alpha: float = 1.0
    prefactor: float = 2.0

    def __post_init__(self) -> None:
        if not (self.c_alpha > 0 and self.prefactor > 0):
            raise ValueError("constants must be positive")


DEFAULT_CONSTANTS = BoundConstants()
# the Functionals fields bound_report lists under "norms", in order
REPORTED_NORMS = (
    "frobenius", "spectral", "max_abs", "gamma1", "gamma2", "weighted_spectral", "row_weighted_max"
)


@dataclass(frozen=True)
class TailBound:
    """Minimum of power regimes together with calibration constants.

    Each exponent is positive, as the regime builders below make them from
    an alpha in (0, 2]; a coefficient that is negative, inf or NaN, or
    regimes that are all vacuous, raise ConfigError.
    """

    regimes: tuple[Regime, ...]
    constants: BoundConstants = DEFAULT_CONSTANTS
    _active: tuple[Regime, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        regs = tuple((float(c), float(e)) for c, e in self.regimes)
        for c, e in regs:
            if not 0.0 <= c < math.inf:  # NaN fails too
                raise ConfigError(f"regime coefficients must be finite and nonnegative, got {c}")
        active = tuple((c, e) for c, e in regs if c > 0)
        if not active:
            raise ConfigError("all regimes vacuous: zero statistic on support")
        object.__setattr__(self, "regimes", regs)
        object.__setattr__(self, "_active", active)

    def exponent(self, t):
        """E(t) = min over active regimes of (t / coeff)^expo, for t >= 0."""
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0):  # NaN fails >= too
            raise ValueError("t must be nonnegative")
        vals = [np.power(t / c, e) for c, e in self._active]
        out = np.minimum.reduce(vals)
        return float(out) if out.ndim == 0 else out

    def prob(self, t, exponent=None):
        """prefactor * exp(-c_alpha * E(t)), in (0, prefactor]; `exponent`, if given, is E(t)."""
        e = self.exponent(t) if exponent is None else exponent
        return self.constants.prefactor * np.exp(-self.constants.c_alpha * np.asarray(e))


def check_l(L: float) -> None:
    """ConfigError unless L > 0 and L^2, the quadratic forms' threshold unit, is a positive float."""
    if not L > 0:
        raise ConfigError("L must be positive")
    if not math.isfinite(L * L):
        raise ConfigError(f"L = {L:g} overflows when squared")
    if L * L == 0.0:
        raise ConfigError(f"L = {L:g} underflows to 0 when squared")


def symmetrize(a) -> np.ndarray:
    """(A + A^T) / 2; quadratic forms are invariant under this map."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError("expected a square matrix")
    return 0.5 * (m + m.T)


def functionals(a, p, alpha: float) -> mn.Functionals:
    """The record the quadratic-form bounds read: A symmetric and square,
    p in [0, 1] (a scalar or one entry per row), alpha in (0, 2]."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or not np.array_equal(m, m.T):  # array_equal is False for non-square
        raise ValueError("matrix must be symmetric and square; pass symmetrize(A) explicitly")
    return mn.Functionals(m, p, AlphaParam(alpha).value)


def f1_regimes(f: mn.Functionals) -> tuple[Regime, ...]:
    """Five-regime exponent for dense quadratic forms, 1 <= alpha <= 2."""
    al = f.alpha
    if al < 1.0:
        raise ValueError("five-regime exponent needs alpha in [1, 2]")
    return (
        (f.frobenius, 2.0),
        (f.spectral, 1.0),
        (f.mixed_conj_l2, al),
        (f.op_2_to_conj, 2 * al / (2 + al)),
        (f.op_alpha_to_conj, al / 2),
    )


def f2_regimes(f: mn.Functionals) -> tuple[Regime, ...]:
    """Four-regime exponent for dense quadratic forms, 0 < alpha <= 1."""
    al = f.alpha
    if al > 1.0:
        raise ValueError("four-regime exponent needs alpha in (0, 1]")
    return (
        (f.frobenius, 2.0),
        (f.spectral, 1.0),
        (f.op_2_to_inf, 2 * al / (2 + al)),
        (f.max_abs, al / 2),
    )


def f_sparse_regimes(f: mn.Functionals) -> tuple[Regime, ...]:
    """Refined sparse exponent, 0 < alpha <= 1; reduces to f2 at p = 1."""
    al = f.alpha
    if al > 1.0:
        raise ValueError("refined sparse exponent needs alpha in (0, 1]")
    return (
        (f.gamma1_root, 2.0),
        (f.weighted_spectral, 1.0),
        (f.row_weighted_max, 2 * al / (2 + al)),
        (f.max_abs, al / 2),
    )


def hw_sparse_regimes(f: mn.Functionals) -> tuple[Regime, ...]:
    """Two-regime sparse exponent, 0 < alpha <= 2."""
    return ((f.gamma1_root, 2.0), (f.spectral, f.alpha / 2))


def bernstein_regimes(a_vec, p, alpha: float) -> tuple[Regime, ...]:
    """Linear-form regimes at threshold t in L units.

    Exponent min{ t^2 / sum a_i^2 p_i, (t / ||a||_inf)^alpha }.  The caller
    checks the inputs: a vector a, p in [0, 1] (a scalar or one entry per
    entry of a) and alpha in (0, 1].
    """
    a = np.asarray(a_vec, dtype=float)
    return ((mn.lp_norm(a * np.sqrt(p), 2.0), 2.0), (mn.lp_norm(a, math.inf), alpha))


@dataclass(frozen=True)
class BoundEval:
    """One comparison entry: bound value, of the shape of t, and whether
    the inequality's stated alpha range covers the requested alpha."""

    value: float | np.ndarray
    applicable: bool


def comparison_bounds(
    t,
    f: mn.Functionals,
    L: float = 1.0,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> dict[str, BoundEval]:
    """Evaluate the competing tail bounds at a raw threshold t, each at t / L^2.

    t may be a scalar or an array; each matrix functional is read once
    from f for all of it.  All entries bound P{|S_A(xi) - E S_A(xi)| >= t}
    using the same constants, so values are directly comparable.
    Entries outside an inequality's stated alpha range are still
    evaluated but flagged applicable=False.
    """
    check_l(L)
    tn = np.asarray(t, dtype=float) / L**2
    al = f.alpha

    def entry(regimes, applicable):
        return BoundEval(TailBound(regimes, constants).prob(tn), applicable)

    out: dict[str, BoundEval] = {}
    out["classical_hw"] = entry(((f.frobenius, 2.0), (f.spectral, 1.0)), al == 2.0)
    if al >= 1.0:
        out["dense_five_regime"] = entry(f1_regimes(f), True)
    if al <= 1.0:
        out["dense_four_regime"] = entry(f2_regimes(f), True)
    out["two_regime_simplified"] = entry(((f.frobenius, 2.0), (f.spectral, al / 2)), True)
    out["sparse_subgaussian"] = entry(((f.gamma1_root, 2.0), (f.spectral, 1.0)), al == 2.0)
    out["sparse_gamma2"] = entry(
        ((f.gamma1_root, 2.0), (f.gamma2, 1.0), (f.max_abs, min(al / 2, 0.5))), True
    )
    out["sparse_alpha"] = entry(hw_sparse_regimes(f), True)
    if al <= 1.0:
        out["sparse_alpha_refined"] = entry(f_sparse_regimes(f), True)
    return out


def bound_report(
    f: mn.Functionals,
    t_grid,
    L: float = 1.0,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> dict:
    """Comparison table over a threshold grid, a nonempty vector, serializable as JSON.

    Shape: {"t_grid": [...], "bounds": {name: [...]}, "norms": {...}}.
    """
    ts = np.asarray(t_grid, dtype=float)
    evals = comparison_bounds(ts, f, L=L, constants=constants)
    return {
        "t_grid": ts.tolist(),
        "bounds": {k: e.value.tolist() for k, e in evals.items()},
        "applicable": {k: e.applicable for k, e in evals.items()},
        "norms": {name: getattr(f, name) for name in REPORTED_NORMS},
        "alpha": f.alpha,
        "L": float(L),
        "constants": {"c_alpha": constants.c_alpha, "prefactor": constants.prefactor},
    }
