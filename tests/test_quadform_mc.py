import math

import numpy as np
import pytest

import oracles
from oracles import exact_survival
from sparse_hw import quadform_mc
from sparse_hw.errors import BudgetExceededError
from sparse_hw.quadform_mc import (
    EmpiricalTail,
    QuadFormInstance,
    dominance_check,
    lower_bound_check,
    simulate_linear_tail,
    simulate_norm_tail,
    simulate_tail,
    tail_slope_fit,
    usable_window,
    wilson_interval,
)
from sparse_hw.rv_models import DistributionSpec, SparseModel, sample_sparse_matrix
from sparse_hw.streams import stream

EXCHANGE = np.array([[0.0, 1.0], [1.0, 0.0]])
RADEMACHER = DistributionSpec(kind="rademacher")


def rademacher_model(n: int, p: float = 1.0) -> SparseModel:
    return SparseModel(p=(p,) * n, base=RADEMACHER)


def synthetic_tail(t_grid, survival, n_samples=10**9):
    s = np.asarray(survival, dtype=float)
    return EmpiricalTail(
        t_grid=np.asarray(t_grid, dtype=float),
        survival=s,
        ci_low=0.8 * s,
        ci_high=np.minimum(1.0, 1.2 * s),
        n_samples=n_samples,
    )


def test_wilson_interval_values():
    lo, hi = wilson_interval(1, 10)
    assert math.isclose(lo, 0.0178757495, abs_tol=1e-9)
    assert math.isclose(hi, 0.4041563855, abs_tol=1e-9)
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == 1.0


def test_wilson_interval_contains_phat():
    for k, n in ((3, 50), (49, 50), (200, 10**5)):
        lo, hi = wilson_interval(k, n)
        assert lo <= k / n <= hi
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_instance_validation():
    with pytest.raises(ValueError, match="symmetric"):
        QuadFormInstance(np.array([[0.0, 1.0], [2.0, 0.0]]), rademacher_model(2))
    with pytest.raises(ValueError):
        QuadFormInstance(np.eye(3), rademacher_model(2))
    with pytest.raises(ValueError):
        QuadFormInstance(np.ones(4), rademacher_model(4))


def test_instance_analytic_mean():
    # E S = sum a_ii p_i E zeta_i^2 with E zeta^2 = 2 for W_s(1)
    model = SparseModel(p=(0.5, 1.0), base=DistributionSpec(kind="weibull", alpha=1.0))
    inst = QuadFormInstance(np.diag([2.0, 3.0]), model)
    assert math.isclose(inst.mean(), 8.0)


def test_simulate_tail_degenerate_cases():
    zero = QuadFormInstance(np.zeros((2, 2)), rademacher_model(2))
    tail = simulate_tail(zero, [0.5, 1.0], 2000, seed=1)
    assert np.array_equal(tail.survival, [0.0, 0.0])
    one = QuadFormInstance(np.eye(1), rademacher_model(1))
    tail1 = simulate_tail(one, [0.5, 1.0], 2000, seed=2)
    assert np.array_equal(tail1.survival, [0.0, 0.0])


def test_simulate_tail_exchange_step():
    # |S| = |2 xi_1 xi_2| = 2 always; survival is 1 up to t = 2 (inclusive)
    inst = QuadFormInstance(EXCHANGE, rademacher_model(2))
    tail = simulate_tail(inst, [1.0, 1.5, 2.0, 3.0], 5000, seed=3)
    assert np.array_equal(tail.survival, [1.0, 1.0, 1.0, 0.0])


def test_simulate_tail_validation():
    inst = QuadFormInstance(EXCHANGE, rademacher_model(2))
    with pytest.raises(ValueError):
        simulate_tail(inst, [], 100, seed=0)
    with pytest.raises(ValueError):
        simulate_tail(inst, [-1.0], 100, seed=0)
    with pytest.raises(ValueError):
        simulate_tail(inst, [1.0, math.nan], 100, seed=0)
    with pytest.raises(ValueError):
        simulate_tail(inst, [1.0], 0, seed=0)


def test_sample_budget_is_inclusive(monkeypatch):
    monkeypatch.setattr(quadform_mc, "MC_SAMPLE_BUDGET", 100)
    inst = QuadFormInstance(EXCHANGE, rademacher_model(2))
    assert simulate_tail(inst, [1.0], 100, seed=0).n_samples == 100
    with pytest.raises(BudgetExceededError, match="exceeds the Monte Carlo budget of 100 samples"):
        simulate_tail(inst, [1.0], 101, seed=0)
    with pytest.raises(BudgetExceededError):
        simulate_linear_tail(np.ones(2), rademacher_model(2), [1.0], 101, seed=0)


def test_simulate_tail_matches_exhaustive_enumeration():
    rng = stream(200, 0)
    a = rng.standard_normal((3, 3))
    a = 0.5 * (a + a.T)
    p = 0.6
    # grid at midpoints between atom deviations so >= versus > cannot differ
    from oracles import enumerate_quadform

    pairs = enumerate_quadform(a, p)
    mean = sum(v * q for v, q in pairs)
    devs = sorted({abs(v - mean) for v, q in pairs})
    t_grid = [(devs[i] + devs[i + 1]) / 2 for i in range(min(5, len(devs) - 1))]
    exact = exact_survival(a, p, t_grid)
    inst = QuadFormInstance(a, rademacher_model(3, p))
    tail = simulate_tail(inst, t_grid, 20_000, seed=4)
    for k in range(len(t_grid)):
        half = (tail.ci_high[k] - tail.ci_low[k]) / 2
        assert abs(tail.survival[k] - exact[k]) <= 3 * max(half, 1e-12)


def test_simulate_tail_thread_count_is_invisible(monkeypatch):
    monkeypatch.setattr(quadform_mc, "MC_CHUNK", 1 << 12)
    inst = QuadFormInstance(EXCHANGE, rademacher_model(2, 0.7))
    grid = [0.5, 1.0, 2.0]
    a = simulate_tail(inst, grid, 300_000, seed=5, threads=1)
    b = simulate_tail(inst, grid, 300_000, seed=5, threads=5)
    assert np.array_equal(a.survival, b.survival)
    assert np.array_equal(a.ci_low, b.ci_low)


# Rademacher draws with a dense group on consecutive columns (0-2), two sparse
# groups on scattered columns and a p = 0 column, into a reused block buffer.
# Integer-valued draws and matrices make every statistic exact, so == holds
# whatever rows BLAS multiplies at once.
BLOCK_MODEL = SparseModel(p=(1.0, 1.0, 1.0, 0.4, 0.0, 0.4, 0.7, 0.4), base=RADEMACHER)
BLOCK_N, BLOCK_CHUNK, BLOCK_SEED = 1003, 250, 41


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("rows", [1, 7, BLOCK_CHUNK, 10**6])
def test_blocked_statistics_equal_unblocked(monkeypatch, rows, threads):
    # one row per block, a ragged row count, one block per chunk and a block
    # past the chunk size; n is a multiple of neither the chunk nor the block
    d = BLOCK_MODEL.dim
    monkeypatch.setattr(quadform_mc, "MC_BLOCK_ENTRIES", rows * d + d - 1)
    monkeypatch.setattr(quadform_mc, "MC_CHUNK", BLOCK_CHUNK)
    g = stream(40, 0).integers(-3, 4, size=(d, d)).astype(float)
    a = g + g.T
    grid = [0.0, 1.0, 2.5, 6.0, 12.0, 30.0]
    kw = dict(seed=BLOCK_SEED, threads=threads)
    n, block = BLOCK_N, rows

    def survival(values, center):
        dev = np.abs(values - center)
        return np.array([np.count_nonzero(dev >= t) for t in grid]) / n

    x = oracles.blocked_draws(BLOCK_MODEL, n, BLOCK_SEED, BLOCK_CHUNK, block)
    inst = QuadFormInstance(a, BLOCK_MODEL)
    quad = oracles.quadform_unblocked(x, a)
    assert np.array_equal(simulate_tail(inst, grid, n, **kw).survival, survival(quad, inst.mean()))
    linear = oracles.linear_unblocked(x, a[0])
    assert np.array_equal(
        simulate_linear_tail(a[0], BLOCK_MODEL, grid, n, **kw).survival, survival(linear, 0.0)
    )
    uniform = rademacher_model(d, 0.4)
    x = oracles.blocked_draws(uniform, n, BLOCK_SEED, BLOCK_CHUNK, block)
    tail = simulate_norm_tail(a[:5], uniform, grid, n, **kw)
    norms = oracles.norm_unblocked(x, a[:5])
    center = math.sqrt(0.4) * float(np.linalg.norm(a[:5], "fro"))
    assert np.array_equal(tail.survival, survival(norms, center))


# one panel below n = 96 and about n / 64 past it, edges on either side of
# multiples of 64 and of 8
PANEL_DIMS = [1, 7, 63, 64, 65, 95, 96, 97, 136, 200, 257]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("n", PANEL_DIMS)
def test_panelled_quadform_equals_unblocked_on_integers(monkeypatch, n, threads):
    monkeypatch.setattr(quadform_mc, "MC_CHUNK", 250)
    model = rademacher_model(n, 0.5)
    g = stream(n, 0).integers(-3, 4, size=(n, n)).astype(float)
    a = g + g.T
    inst = QuadFormInstance(a, model)
    x = oracles.blocked_draws(model, 600, 13, 250, max(1, quadform_mc.MC_BLOCK_ENTRIES // n))
    dev = np.abs(oracles.quadform_unblocked(x, a) - inst.mean())
    grid = np.sort(dev)[[0, 300, 540, 594, 599]]  # thresholds equal to deviations test >= ties
    tail = simulate_tail(inst, grid, 600, seed=13, threads=threads)
    assert np.array_equal(tail.survival, [np.count_nonzero(dev >= t) / 600 for t in grid])


@pytest.mark.parametrize("n", PANEL_DIMS)
def test_panelled_quadform_is_within_rounding_of_unblocked(n):
    g = stream(n, 1).standard_normal((n, n))
    a = g + g.T
    model = SparseModel(p=(0.3,) * n, base=DistributionSpec(kind="weibull", alpha=1.0))
    x = sample_sparse_matrix(model, 300, stream(n, 2))
    out, y = np.empty(300), np.empty((300, n))
    quadform_mc._quadform(a, model).evaluate(out, y, x)
    scale = (np.abs(x) @ np.abs(a) * np.abs(x)).sum(axis=1)
    assert np.all(np.abs(out - oracles.quadform_unblocked(x, a)) <= 1e-12 * scale)


def test_quadform_overflows_only_where_the_dense_product_does():
    # x^T A x = 2e308 x_0 x_1 overflows at |x_0 x_1| > 0.9; a form that
    # multiplied by 2 A would overflow on every row.  The expected survival
    # comes from the dense product on the same draws.
    model = SparseModel(p=(1.0, 1.0), base=DistributionSpec(kind="weibull", alpha=1.0, scale=0.1))
    inst = QuadFormInstance(np.array([[0.0, 1e308], [1e308, 0.0]]), model)
    grid = [1e300, 1e306]
    tail = simulate_tail(inst, grid, 2000, seed=7)
    block = quadform_mc.MC_BLOCK_ENTRIES // 2
    x = oracles.blocked_draws(model, 2000, 7, quadform_mc.MC_CHUNK, block)
    dev = np.abs(oracles.quadform_unblocked(x, inst.a) - inst.mean())
    assert tail.survival.tolist() == [np.count_nonzero(dev >= t) / 2000 for t in grid]


def test_simulate_tail_rejects_non_finite_statistics(monkeypatch):
    monkeypatch.setattr(quadform_mc, "MC_CHUNK", 500)
    # products of two draws near 5e153 overflow to inf, and inf - inf is NaN
    huge = DistributionSpec(kind="weibull", alpha=1.0, scale=5e153)
    model = SparseModel(p=(1.0, 1.0), base=huge)
    inst = QuadFormInstance(np.ones((2, 2)), model)
    messages = set()
    for threads in (1, 3):
        with pytest.raises(ValueError, match="of 2000 simulated statistics are inf or NaN") as exc:
            simulate_tail(inst, [1e300], 2000, seed=7, threads=threads)
        messages.add(str(exc.value))
    assert len(messages) == 1


def test_decoupled_distribution_is_symmetric():
    # the decoupled form pairs two consecutive draws from one stream
    model = rademacher_model(2, 0.8)
    rng = stream(11, 0)
    x = sample_sparse_matrix(model, 50_000, rng)
    xt = sample_sparse_matrix(model, 50_000, rng)
    vals = (x @ EXCHANGE * xt).sum(axis=1)
    se = float(np.std(vals)) / math.sqrt(vals.size)
    assert abs(float(np.mean(vals))) <= 4 * se


def test_tail_slope_fit_synthetic_lines():
    grid = np.geomspace(3.5, 16.0, 12)
    fit = tail_slope_fit(synthetic_tail(grid, np.exp(-grid)))
    assert abs(fit.slope - 1.0) <= 1e-6
    assert fit.r_squared > 1 - 1e-12
    grid2 = np.geomspace(12.0, 300.0, 10)
    fit2 = tail_slope_fit(synthetic_tail(grid2, np.exp(-np.sqrt(grid2))))
    assert abs(fit2.slope - 0.5) <= 1e-6
    assert fit2.t_window == (float(grid2[0]), float(grid2[-1]))


def test_tail_slope_fit_needs_points():
    grid = np.array([4.0, 5.0, 6.0])
    with pytest.raises(ValueError, match="4 usable"):
        tail_slope_fit(synthetic_tail(grid, np.exp(-grid)))


def test_usable_window_bounds():
    grid = np.array([0.1, 1.0, 5.0, 9.0, 14.0])
    surv = np.array([0.5, 0.04, 1e-3, 1e-8, 0.0])
    mask = usable_window(synthetic_tail(grid, surv, n_samples=10**6))
    # survival must sit in [10/N, 0.05]: drops the bulk point and the empty tail
    assert list(mask) == [False, True, True, False, False]


def test_dominance_check_accepts_true_shape():
    grid = np.geomspace(3.0, 40.0, 18)
    ev = np.minimum((grid / 2.0) ** 2, grid)
    tail = synthetic_tail(grid, np.minimum(1.0, 2.0 * np.exp(-ev)))
    res = dominance_check(tail, ev, rel_slack=0.02)
    assert res.ok
    assert res.min_margin > 0
    assert math.isclose(res.c_hat, 1.0, rel_tol=0.3)


def test_dominance_check_rejects_wrong_exponent():
    grid = np.geomspace(3.0, 40.0, 18)
    truth = np.minimum((grid / 2.0) ** 2, grid)
    tail = synthetic_tail(grid, np.minimum(1.0, 2.0 * np.exp(-truth)))
    claimed = (grid / 2.0) ** 2  # quadratic growth never holds in the far tail
    res = dominance_check(tail, claimed, rel_slack=0.02)
    assert not res.ok
    assert res.min_margin < 0


def test_dominance_check_needs_two_points():
    grid = np.array([5.0, 50.0])
    tail = synthetic_tail(grid, np.array([1e-3, 0.0]))
    with pytest.raises(ValueError, match="2 usable"):
        dominance_check(tail, grid)
    with pytest.raises(ValueError):
        dominance_check(synthetic_tail(grid, np.array([1e-3, 1e-4])), np.ones(3))


def test_lower_bound_check_exchange():
    rep = lower_bound_check(EXCHANGE, 1.0, n_samples=100_000, seed=10)
    assert not rep.degenerate
    assert rep.pz_ok
    assert rep.c1 > 0 and math.isfinite(rep.c1)
    assert rep.exceed_probs[0] >= 1 / 16
    assert all(a >= b for a, b in zip(rep.exceed_probs, rep.exceed_probs[1:]))


def test_lower_bound_check_degenerate_and_validation():
    rep = lower_bound_check(np.zeros((2, 2)), 1.0, n_samples=100)
    assert rep.degenerate
    with pytest.raises(ValueError):
        lower_bound_check(np.eye(2), 1.0, n_samples=100)  # nonzero diagonal
    with pytest.raises(ValueError):
        lower_bound_check(np.array([[0.0, 1.0], [2.0, 0.0]]), 1.0, n_samples=100)


def test_simulate_linear_tail_step():
    model = rademacher_model(2)
    tail = simulate_linear_tail([1.0, 0.0], model, [0.5, 1.0, 1.5], 3000, seed=12)
    assert np.array_equal(tail.survival, [1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        simulate_linear_tail([1.0], model, [0.5], 100, seed=0)


def test_simulate_norm_tail_constant_norm():
    model = rademacher_model(2)
    # ||xi||_2 = sqrt(2) = the center exactly, so even t = 1e-12 is never reached
    tail = simulate_norm_tail(np.eye(2), model, [1e-12, 0.25, 0.5], 3000, seed=13)
    assert np.array_equal(tail.survival, [0.0, 0.0, 0.0])


def test_simulate_norm_tail_validation():
    mixed = SparseModel(p=(0.5, 1.0), base=RADEMACHER)
    with pytest.raises(ValueError, match="uniform"):
        simulate_norm_tail(np.eye(2), mixed, [1.0], 100, seed=0)
    heavy = SparseModel(p=(1.0, 1.0), base=DistributionSpec(kind="weibull", alpha=1.0))
    with pytest.raises(ValueError, match="unit-variance"):
        simulate_norm_tail(np.eye(2), heavy, [1.0], 100, seed=0)
