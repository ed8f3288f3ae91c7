import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import opnorm_grid
from sparse_hw import matrix_norms as mn
from sparse_hw.bounds import (
    BoundConstants,
    TailBound,
    bernstein_regimes,
    bound_report,
    comparison_bounds,
    f1_regimes,
    f2_regimes,
    f_sparse_regimes,
    functionals,
    hw_sparse_regimes,
    symmetrize,
)
from sparse_hw.streams import stream

EXCHANGE = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_sym(seed: int, n: int) -> np.ndarray:
    m = stream(seed, 0).standard_normal((n, n))
    return 0.5 * (m + m.T)


def test_bound_constants_validation():
    with pytest.raises(ValueError):
        BoundConstants(c_alpha=0.0)
    with pytest.raises(ValueError):
        BoundConstants(prefactor=-1.0)


def test_tail_bound_regime_validation():
    with pytest.raises(ValueError):
        TailBound(regimes=((-1.0, 2.0),))
    with pytest.raises(ValueError):
        TailBound(regimes=((0.0, 2.0), (0.0, 1.0)))  # all vacuous


def test_tail_bound_drops_vacuous_regimes():
    tb = TailBound(regimes=((0.0, 2.0), (2.0, 1.0)))
    assert math.isclose(tb.exponent(4.0), 2.0)


def test_tail_bound_prob_shape():
    tb = TailBound(regimes=((1.0, 2.0), (1.0, 0.5)))
    assert tb.prob(0.0) == 2.0  # default prefactor at t = 0
    grid = np.linspace(0.0, 20.0, 100)
    vals = tb.prob(grid)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all(vals > 0.0) and np.all(vals <= 2.0)
    with pytest.raises(ValueError):
        tb.exponent(-1.0)


def test_f1_exchange_alpha2():
    # all five norms are closed-form for the exchange matrix: F = sqrt(2),
    # spectral 1, mixed(2) = sqrt(2), op(2,2) = 1, so min at t=1 is 1/2
    tb = TailBound(f1_regimes(functionals(EXCHANGE, 1.0, 2.0)))
    assert math.isclose(tb.exponent(1.0), 0.5, rel_tol=1e-12)
    assert tb.exponent(0.0) == 0.0


def test_f1_alpha_range():
    with pytest.raises(ValueError):
        f1_regimes(functionals(EXCHANGE, 1.0, 0.9))
    with pytest.raises(ValueError):
        f2_regimes(functionals(EXCHANGE, 1.0, 1.1))


def test_f2_exchange_values():
    tb = TailBound(f2_regimes(functionals(EXCHANGE, 1.0, 1.0)))
    assert math.isclose(tb.exponent(1.0), 0.5, rel_tol=1e-12)
    # t = 9: min{40.5, 9, 9^(2/3), 3} = 3
    assert math.isclose(tb.exponent(9.0), 3.0, rel_tol=1e-12)
    assert tb.exponent(0.0) == 0.0


def test_f_sparse_hand_values():
    for q in (0.5, 0.9):
        expected = min(1.0 / (2 * q * q), 1.0 / q, q ** (-1.0 / 3.0), 1.0)
        tb = TailBound(f_sparse_regimes(functionals(EXCHANGE, (q, q), 1.0)))
        assert math.isclose(tb.exponent(1.0), expected, rel_tol=1e-12)


def test_f_sparse_reduces_to_f2_at_full_retention():
    for seed, alpha in ((100, 1.0), (101, 0.6), (102, 0.25)):
        m = random_sym(seed, 5)
        sparse = TailBound(f_sparse_regimes(functionals(m, np.ones(5), alpha)))
        dense = TailBound(f2_regimes(functionals(m, 1.0, alpha)))
        for t in (0.5, 2.0, 11.0):
            assert math.isclose(sparse.exponent(t), dense.exponent(t), rel_tol=1e-12)


def test_f_sparse_zero_support():
    # p = 0 only kills the sparse functionals; the max_abs regime survives
    tb = TailBound(f_sparse_regimes(functionals(EXCHANGE, (0.0, 0.0), 1.0)))
    assert math.isclose(tb.exponent(1.0), 1.0)
    with pytest.raises(ValueError):
        TailBound(f_sparse_regimes(functionals(np.zeros((2, 2)), (0.5, 0.5), 1.0)))


def test_requires_symmetric_input():
    # every quadratic-form bound reads its input through functionals(), which
    # checks A, p and alpha once for all of them
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for bad in (skew, np.ones((2, 3)), np.ones(2)):
        with pytest.raises(ValueError, match="symmetrize"):
            functionals(bad, 1.0, 1.0)
    with pytest.raises(ValueError, match="retention probabilities"):
        functionals(EXCHANGE, 1.5, 1.0)
    with pytest.raises(ValueError, match="p must have shape"):
        functionals(EXCHANGE, (0.5, 0.5, 0.5), 1.0)
    with pytest.raises(ValueError, match="alpha must lie in"):
        functionals(EXCHANGE, 0.5, 0.0)
    assert np.array_equal(symmetrize(skew), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        symmetrize(np.ones((2, 3)))


@given(st.integers(0, 10**6), st.floats(0.1, 100.0))
@settings(deadline=None, max_examples=30)
def test_homogeneity(seed, s):
    rng = stream(seed, 0)
    m = rng.standard_normal((4, 4))
    m = 0.5 * (m + m.T)
    p = rng.random(4)
    alpha = float(rng.uniform(0.1, 1.0))
    t = float(rng.uniform(0.1, 10.0))
    base = TailBound(f_sparse_regimes(functionals(m, p, alpha))).exponent(t)
    scaled = TailBound(f_sparse_regimes(functionals(s * m, p, alpha))).exponent(s * t)
    assert math.isclose(scaled, base, rel_tol=1e-12)
    dense = TailBound(f2_regimes(functionals(m, 1.0, alpha))).exponent(t)
    dense_scaled = TailBound(f2_regimes(functionals(s * m, 1.0, alpha))).exponent(s * t)
    assert math.isclose(dense_scaled, dense, rel_tol=1e-12)


def test_min_structure():
    m = random_sym(110, 4)
    p = np.full(4, 0.7)
    regs = f_sparse_regimes(functionals(m, p, 0.8))
    t = 3.0
    val = TailBound(regs).exponent(t)
    for c, e in regs:
        assert val <= (t / c) ** e + 1e-12


def test_hw_sparse_identity_value():
    # gamma1(I2, 1) = 2, spectral 1, alpha 2, t 2: min{2, 2} = 2
    tb = TailBound(hw_sparse_regimes(functionals(np.eye(2), (1.0, 1.0), 2.0)))
    assert math.isclose(tb.prob(2.0), 2 * math.exp(-2.0))
    assert tb.prob(0.0) == 2.0


def test_hw_sparse_monotone_in_t():
    m = random_sym(111, 5)
    p = np.full(5, 0.4)
    grid = np.linspace(0.0, 30.0, 100)
    vals = TailBound(hw_sparse_regimes(functionals(m, p, 0.7))).prob(grid)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all((vals > 0) & (vals <= 2.0))


def test_hw_sparse_requires_positive_l():
    with pytest.raises(ValueError, match="L must be positive"):
        comparison_bounds(1.0, functionals(np.eye(2), (1.0, 1.0), 2.0), L=0.0)
    # thresholds are in L^2 units, so L^2 must be a positive float
    f = functionals(np.eye(2), (1.0, 1.0), 2.0)
    with pytest.raises(ValueError, match="overflows when squared"):
        comparison_bounds(1.0, f, L=1e200)
    with pytest.raises(ValueError, match="underflows to 0 when squared"):
        comparison_bounds(1.0, f, L=1e-200)


def test_tail_bound_rejects_non_finite_coefficients():
    # an overflowed functional once made every bound the prefactor 2.0
    for c in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            TailBound(((c, 2.0), (1.0, 1.0)))


def test_two_regime_exponent_within_one_of_refined():
    # the simpler two-regime exponent never exceeds the refined one by
    # more than the additive constant 1 coming from its derivation
    for seed in (120, 121, 122, 123):
        rng = stream(seed, 0)
        m = random_sym(seed, 6)
        p = rng.random(6)
        alpha = float(rng.uniform(0.15, 1.0))
        grid = np.geomspace(0.05, 50.0, 40)
        two = TailBound(hw_sparse_regimes(functionals(m, p, alpha))).exponent(grid)
        refined = TailBound(f_sparse_regimes(functionals(m, p, alpha))).exponent(grid)
        assert np.all(two <= refined + 1.0 + 1e-12)


def test_bernstein_e1_formula():
    # the regimes take t in L units
    a = np.array([1.0, 0.0, 0.0])
    p = np.full(3, 0.3)
    t, L, alpha = 2.0, 1.5, 0.8
    expected = 2 * math.exp(
        -min(t * t / (L * L * 0.3), (t / L) ** alpha)
    )
    tb = TailBound(bernstein_regimes(a, p, alpha))
    assert math.isclose(tb.prob(t / L), expected, rel_tol=1e-12)


def test_bernstein_full_retention_reduction():
    a = stream(130, 0).standard_normal(6)
    t, alpha = 3.0, 0.5
    expected = 2 * math.exp(
        -min(t * t / float(a @ a), (t / float(np.max(np.abs(a)))) ** alpha)
    )
    tb = TailBound(bernstein_regimes(a, np.ones(6), alpha))
    assert math.isclose(tb.prob(t), expected, rel_tol=1e-12)
    assert tb.prob(0.0) == 2.0


def test_bernstein_validation():
    with pytest.raises(ValueError):
        TailBound(bernstein_regimes(np.zeros(3), np.ones(3), 0.5))  # vacuous


def test_comparison_bounds_reductions():
    m = random_sym(150, 4)
    p1 = np.ones(4)
    out = comparison_bounds(2.0, functionals(m, p1, 2.0))
    # at alpha = 2, p = 1 the sparse two-regime form coincides with both
    # the sub-gaussian sparse bound and the simplified dense bound
    assert math.isclose(out["sparse_alpha"].value, out["sparse_subgaussian"].value, rel_tol=1e-9)
    assert math.isclose(out["sparse_alpha"].value, out["two_regime_simplified"].value, rel_tol=1e-9)
    out_half = comparison_bounds(2.0, functionals(m, p1, 0.5))
    assert math.isclose(
        out_half["sparse_alpha"].value, out_half["two_regime_simplified"].value, rel_tol=1e-9
    )
    # a grid gives exactly the values of one call per threshold
    grid = np.array([0.0, 0.3, 2.0, 45.0])
    q = np.array([0.2, 0.9, 0.5, 1.0])
    for alpha in (2.0, 1.3, 0.5):
        whole = comparison_bounds(grid, functionals(m, q, alpha), L=1.7)
        for i, t in enumerate(grid):
            single = comparison_bounds(t, functionals(m, q, alpha), L=1.7)
            assert list(single) == list(whole)
            for name, e in single.items():
                assert whole[name].value.shape == grid.shape
                assert whole[name].value[i] == e.value
                assert whole[name].applicable == e.applicable
    with pytest.raises(ValueError, match="t must be nonnegative"):
        comparison_bounds(np.array([1.0, -0.5]), functionals(m, q, 1.0))
    with pytest.raises(ValueError, match="t must be nonnegative"):
        comparison_bounds(np.array([1.0, np.nan]), functionals(m, q, 1.0))
    with pytest.raises(ValueError, match="overflows when squared"):
        comparison_bounds(grid, functionals(m, q, 1.0), L=1e200)


@pytest.mark.parametrize("k", (660, -660))
@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5, 2.0))
def test_bounds_invariant_under_power_of_two_scaling(alpha, k):
    # every coefficient of every bound is of degree 1 in A, so A and t
    # scaled by 2^k give the same values.  While the closed forms summed
    # unscaled squares, frobenius and the mixed norms read 0 at k = -660
    # and their regimes dropped out; while the sparse bounds took
    # sqrt(gamma1) of a sum of squares, gamma1 read 0 at k = -660 and inf
    # at k = 660.  Only LAPACK's spectral norms, a few ulps off at that
    # scale, move the values, by rounding
    m = random_sym(153, 6)
    p = np.linspace(0.2, 0.9, 6)
    grid = np.geomspace(0.1, 10.0, 9) * mn.frobenius(m)
    s = 2.0**k
    base = comparison_bounds(grid, functionals(m, p, alpha), L=1.5)
    scaled = comparison_bounds(s * grid, functionals(s * m, p, alpha), L=1.5)
    assert list(scaled) == list(base) and len(base) == {0.5: 7, 1.0: 8}.get(alpha, 6)
    for name, e in base.items():
        np.testing.assert_allclose(scaled[name].value, e.value, rtol=1e-14, atol=0.0, err_msg=name)


@pytest.mark.parametrize("k", (660, -660))
@pytest.mark.parametrize("alpha", (0.5, 1.0))
def test_bernstein_bound_invariant_under_power_of_two_scaling(alpha, k):
    # both coefficients are l_r norms of degree 1 in a; sqrt(sum a_i^2 p_i)
    # of unscaled squares read 0 at k = -660 and inf at k = 660
    a = stream(154, 0).standard_normal(7)
    p = np.linspace(0.1, 1.0, 7)
    grid = np.geomspace(0.1, 10.0, 9) * mn.lp_norm(a, 2.0)
    base = TailBound(bernstein_regimes(a, p, alpha)).prob(grid)
    scaled = TailBound(bernstein_regimes(2.0**k * a, p, alpha)).prob(2.0**k * grid)
    assert np.array_equal(scaled, base)


def test_bound_report_work_does_not_grow_with_the_grid(monkeypatch):
    # one record per report: every bound and the norms block read each
    # functional once, whatever the grid; the names are the matrix
    # functionals perfbench/tracer.py counts
    names = ("frobenius", "max_abs", "mixed_norm", "gamma1", "gamma2")
    names += ("weighted_spectral", "row_weighted_max")
    calls = {"opnorm_detail": 0, "functionals": 0}

    def counting(real, kind):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(mn, "opnorm_detail", counting(mn.opnorm_detail, "opnorm_detail"))
    for name in names:
        monkeypatch.setattr(mn, name, counting(getattr(mn, name), "functionals"))
    m = random_sym(152, 5)
    q = np.full(5, 0.4)
    for alpha in (1.5, 1.0):
        for grid in ([2.0], np.geomspace(0.1, 100.0, 24)):
            calls.update(opnorm_detail=0, functionals=0)
            bound_report(functionals(m, q, alpha), grid)
            assert calls == {"opnorm_detail": 3, "functionals": 7}, (alpha, len(grid))


def test_comparison_bounds_applicability_flags():
    m = random_sym(151, 3)
    p = np.full(3, 0.5)
    out = comparison_bounds(1.0, functionals(m, p, 0.7))
    assert not out["classical_hw"].applicable
    assert out["dense_four_regime"].applicable
    assert "dense_five_regime" not in out
    out2 = comparison_bounds(1.0, functionals(m, p, 2.0))
    assert out2["classical_hw"].applicable
    assert "dense_four_regime" not in out2
    assert all(0.0 < e.value <= 2.0 for e in out2.values())


def test_moment_profiles_exchange_alpha1():
    # the coefficients of the five-term (alpha >= 1) and four-term
    # (alpha <= 1) moment profiles are the regime coefficients; alpha = 1
    # admits both, and every norm of the exchange matrix but F is 1
    r2 = math.sqrt(2.0)
    five = ((r2, 2.0), (1.0, 1.0), (1.0, 1.0), (1.0, 2.0 / 3.0), (1.0, 0.5))
    four = ((r2, 2.0), (1.0, 1.0), (1.0, 2.0 / 3.0), (1.0, 0.5))
    f = functionals(EXCHANGE, 1.0, 1.0)
    for got, want in ((f1_regimes(f), five), (f2_regimes(f), four)):
        assert len(got) == len(want)
        for (c, e), (wc, we) in zip(got, want):
            assert math.isclose(c, wc, rel_tol=1e-9) and e == we


def test_moment_profile_five_term_vs_grid_oracle():
    # J3 - I3: frobenius sqrt(6), spectral 2, mixed(3) = 3^(1/3) sqrt(2);
    # the two nonconvex norms come from the brute-force grid
    m = np.ones((3, 3)) - np.eye(3)
    alpha, astar = 1.5, 3.0
    coeffs = [c for c, _ in f1_regimes(functionals(m, 1.0, alpha))]
    expected = (
        math.sqrt(6.0),
        2.0,
        3 ** (1 / 3) * math.sqrt(2.0),
        opnorm_grid(m, 2.0, astar, n_random=100_000),
        opnorm_grid(m, alpha, astar, n_random=100_000),
    )
    for c, want in zip(coeffs, expected):
        assert abs(c - want) <= 0.01 * want


def test_bound_report_serializes():
    m = random_sym(160, 3)
    rep = bound_report(functionals(m, np.full(3, 0.5), 0.75), [0.5, 1.0, 2.0])
    text = json.dumps(rep)
    back = json.loads(text)
    assert back["t_grid"] == [0.5, 1.0, 2.0]
    assert set(back["bounds"]) == set(back["applicable"])
    assert all(len(v) == 3 for v in back["bounds"].values())
    assert back["norms"]["gamma1"] > 0
