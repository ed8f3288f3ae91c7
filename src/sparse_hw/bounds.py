"""Tail-bound evaluators for quadratic and linear forms in sparse vectors.

Every bound here has the shape

    P{ |statistic| >= threshold } <= prefactor * exp(-c_alpha * E(t))

where the exponent E(t) is a minimum of power regimes (t / coeff)^expo.
Regimes whose coefficient is zero are vacuous (the matrix carries no
mass in that functional) and are dropped from the minimum; a bound whose
regimes are all vacuous is degenerate and raises.

Normalization convention.  The quadratic-form regimes (`f1_regimes`,
`f2_regimes`, `f_sparse_regimes`, `hw_sparse_regimes`), `comparison_bounds`
and `bound_report` take one `matrix_norms.Functionals` record, built by
`functionals(A, p, alpha)`, so each matrix functional is computed once.
The regimes take t in L^2 units: the certified threshold is L^2 * t
where L bounds the psi_alpha norms of the base variables.
`bernstein_regimes` and `comparison_bounds` take the raw
threshold and keep L inside the formula, so different inequalities can
be compared at one threshold.  Everywhere t may be a scalar or an array;
results take the shape of t.
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
            if not 0.0 <= c < math.inf:  # NaN fails too
                raise ValueError(f"regime coefficients must be finite and nonnegative, got {c}")
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

    def prob(self, t, exponent=None):
        """prefactor * exp(-c_alpha * E(t)), in (0, prefactor]; `exponent`, if given, is E(t)."""
        e = self.exponent(t) if exponent is None else exponent
        return self.constants.prefactor * np.exp(-self.constants.c_alpha * np.asarray(e))


def check_l(L: float) -> None:
    """ValueError unless L > 0 and L^2, the quadratic forms' threshold unit, is a positive float."""
    if not L > 0:
        raise ValueError("L must be positive")
    if not math.isfinite(L * L):
        raise ValueError(f"L = {L:g} overflows when squared")
    if L * L == 0.0:
        raise ValueError(f"L = {L:g} underflows to 0 when squared")


def symmetrize(a) -> np.ndarray:
    """(A + A^T) / 2; quadratic forms are invariant under this map."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
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
        (math.sqrt(f.gamma1), 2.0),
        (f.weighted_spectral, 1.0),
        (f.row_weighted_max, 2 * al / (2 + al)),
        (f.max_abs, al / 2),
    )


def hw_sparse_regimes(f: mn.Functionals) -> tuple[Regime, ...]:
    """Two-regime sparse exponent, 0 < alpha <= 2."""
    return (
        (math.sqrt(f.gamma1), 2.0),
        (f.spectral, f.alpha / 2),
    )


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
    """Evaluate the competing tail bounds at a raw threshold t.

    t may be a scalar or an array; each matrix functional is read once
    from f for all of it.  All entries bound P{|S_A(xi) - E S_A(xi)| >= t}
    using the same constants, so values are directly comparable.
    Entries outside an inequality's stated alpha range are still
    evaluated but flagged applicable=False.
    """
    check_l(L)
    t = np.asarray(t, dtype=float)
    al = f.alpha
    tn = t / L**2  # threshold in L^2 units

    def entry(regimes, tt, applicable):
        return BoundEval(TailBound(regimes, constants).prob(tt), applicable)

    out: dict[str, BoundEval] = {}
    out["classical_hw"] = entry(
        ((L**2 * f.frobenius, 2.0), (L**2 * f.spectral, 1.0)), t, al == 2.0
    )
    if al >= 1.0:
        out["dense_five_regime"] = entry(f1_regimes(f), tn, True)
    if al <= 1.0:
        out["dense_four_regime"] = entry(f2_regimes(f), tn, True)
    out["two_regime_simplified"] = entry(
        ((L**2 * f.frobenius, 2.0), (L**2 * f.spectral, al / 2)), t, True
    )
    out["sparse_subgaussian"] = entry(
        ((L**2 * math.sqrt(f.gamma1), 2.0), (L**2 * f.spectral, 1.0)), t, al == 2.0
    )
    out["sparse_gamma2"] = entry(
        (
            (L**2 * math.sqrt(f.gamma1), 2.0),
            (L**2 * f.gamma2, 1.0),
            (L**2 * f.max_abs, min(al / 2, 0.5)),
        ),
        t,
        True,
    )
    out["sparse_alpha"] = entry(hw_sparse_regimes(f), tn, True)
    if al <= 1.0:
        out["sparse_alpha_refined"] = entry(f_sparse_regimes(f), tn, True)
    return out


def bound_report(
    f: mn.Functionals,
    t_grid,
    L: float = 1.0,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> dict:
    """Comparison table over a threshold grid, serializable as JSON.

    Shape: {"t_grid": [...], "bounds": {name: [...]}, "norms": {...}}.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a nonempty vector")
    evals = comparison_bounds(ts, f, L=L, constants=constants)
    return {
        "t_grid": ts.tolist(),
        "bounds": {k: e.value.tolist() for k, e in evals.items()},
        "applicable": {k: e.applicable for k, e in evals.items()},
        "norms": {
            "frobenius": f.frobenius,
            "spectral": f.spectral,
            "max_abs": f.max_abs,
            "gamma1": f.gamma1,
            "gamma2": f.gamma2,
            "weighted_spectral": f.weighted_spectral,
            "row_weighted_max": f.row_weighted_max,
        },
        "alpha": f.alpha,
        "L": float(L),
        "constants": {"c_alpha": constants.c_alpha, "prefactor": constants.prefactor},
    }
