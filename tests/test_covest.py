import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    a_theta_p,
    expected_frob_sq_loop,
    expected_frob_sq_mc,
    jacobi_eigen_spectral,
    masked_frob_sq_reference,
    rip_k_loop,
    rip_k_lower_random,
)
from sparse_hw import covest as cv
from sparse_hw import matrix_norms as mn
from sparse_hw.covest import (
    MultivariateModel,
    expected_frob_sq_exact,
    generate_samples,
    ipw_estimator,
    ipw_replicate_stats,
    k1_k2_terms,
    rip_bound_rhs,
    rip_k,
)
from sparse_hw.errors import BudgetExceededError
from sparse_hw.quadform_mc import wilson_interval
from sparse_hw.rv_models import DistributionSpec
from sparse_hw.streams import stream


def small_model(seed: int = 300, d: int = 3, m: int = 2, alpha: float = 1.0) -> MultivariateModel:
    b = stream(seed, 0).standard_normal((d, m))
    p = tuple(np.round(stream(seed, 1).uniform(0.4, 1.0, d), 3))
    return MultivariateModel(b=b, alpha=alpha, p=p)


def test_model_validation():
    with pytest.raises(ValueError):
        MultivariateModel(b=np.ones(3), alpha=1.0, p=(1.0,) * 3)
    with pytest.raises(ValueError):
        MultivariateModel(b=np.eye(2), alpha=1.0, p=(0.5, 0.0))  # zero retention
    with pytest.raises(ValueError):
        MultivariateModel(b=np.eye(2), alpha=3.0, p=(1.0, 1.0))
    with pytest.raises(ValueError, match="overflows"):
        MultivariateModel(b=np.diag([1e200, 1.0]), alpha=1.0, p=(1.0, 1.0))
    model = MultivariateModel(b=np.eye(2) * 2.0, alpha=1.0, p=(1.0, 0.5))
    assert np.array_equal(model.sigma(), 4.0 * np.eye(2))
    assert model.base == DistributionSpec(kind="weibull", alpha=1.0, unit_variance=True)


def test_generate_samples_trivial_cases():
    model = MultivariateModel(b=np.eye(2), alpha=2.0, p=(1.0, 1.0))
    values, masks = generate_samples(model, 50, seed=1)
    assert np.all(masks == 1)
    zero = MultivariateModel(b=np.zeros((2, 3)), alpha=1.0, p=(0.5, 0.5))
    v0, _ = generate_samples(zero, 50, seed=1)
    assert np.array_equal(v0, np.zeros((50, 2)))
    with pytest.raises(ValueError):
        generate_samples(model, 0, seed=1)


def test_generate_samples_mask_rate():
    model = MultivariateModel(b=np.eye(3), alpha=1.0, p=(0.3, 0.7, 1.0))
    _, masks = generate_samples(model, 10_000, seed=2)
    for j, pj in enumerate(model.p[:2]):
        lo, hi = wilson_interval(int(masks[:, j].sum()), masks.shape[0])
        assert lo <= pj <= hi
    assert np.all(masks[:, 2] == 1)  # p = 1 never masks


def test_generate_samples_deterministic():
    model = small_model()
    a = generate_samples(model, 100, seed=3, stream_id=4)
    b = generate_samples(model, 100, seed=3, stream_id=4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_ipw_single_observation():
    # one sample, d = 1, p = 1/2, x = 2: estimate 4 / (1/2) = 8
    est = ipw_estimator(np.array([[2.0]]), np.array([0.5]))
    assert est.shape == (1, 1) and est[0, 0] == 8.0


def test_ipw_full_retention_reduction():
    x = stream(310, 0).standard_normal((40, 3))
    est = ipw_estimator(x, np.ones(3))
    assert np.allclose(est, x.T @ x / 40, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n, d", [(1, 1), (1, 4), (6, 1), (25, 2), (8, 14)])
def test_ipw_stack_equals_per_replicate_calls(n, d):
    q = np.round(stream(316, d).uniform(0.2, 1.0, d), 3)
    x = stream(317, n).standard_normal((5, n, d))
    x[stream(318, n).random(x.shape) > q] = 0.0
    est = ipw_estimator(x, q)
    assert est.shape == (5, d, d)
    assert np.array_equal(est, [ipw_estimator(v, q) for v in x])
    assert np.array_equal(ipw_estimator(x.reshape(1, 5, n, d), q)[0], est)


def test_ipw_validation():
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        ipw_estimator(np.ones((5, 2)), np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        ipw_estimator(np.ones((5, 2)), np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        ipw_estimator(np.ones(5), np.array([0.5]))
    with pytest.raises(ValueError, match="nonempty"):
        ipw_estimator(np.ones((3, 0, 2)), np.array([0.5, 0.5]))


def test_ipw_unbiased_over_replicates():
    model = small_model(300)
    mean, se = ipw_replicate_stats(model, n=20, replicates=20_000, seed=14)
    z = np.abs(mean - model.sigma()) / np.maximum(se, 1e-12)
    assert float(z.max()) <= 4.0
    with pytest.raises(ValueError):
        ipw_replicate_stats(model, n=20, replicates=1, seed=0)


def test_ipw_batches_stay_within_the_block_constant():
    # 512 replicates of n = 20,000 were one batch, a draw of 10^7 rows held
    # at once (over 500 MB); now a batch holds BLOCK_ENTRIES // (n d) = 3
    model = MultivariateModel(b=np.array([[2.0, 0.0], [1.0, 1.0]]), alpha=1.5, p=(0.6, 1.0))
    tracemalloc.start()
    try:
        ipw_replicate_stats(model, n=20_000, replicates=512, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_rip_k_diagonal_case():
    m = np.diag([1.0, -2.0, 3.0])
    assert rip_k(m, 2) == 3.0
    assert rip_k(m, 1) == 3.0  # max |diagonal entry|
    assert rip_k(m, 3) == 3.0


def test_rip_k_full_sparsity_is_spectral():
    a = stream(311, 0).standard_normal((6, 6))
    a = 0.5 * (a + a.T)
    assert math.isclose(rip_k(a, 6), jacobi_eigen_spectral(a), rel_tol=1e-10)


def test_rip_k_monotone_and_dominates_random_directions():
    a = stream(312, 0).standard_normal((6, 6))
    a = 0.5 * (a + a.T)
    vals = [rip_k(a, k) for k in range(1, 7)]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
    lower = rip_k_lower_random(a, 3, n_draws=10_000, seed=7)
    assert lower <= rip_k(a, 3) + 1e-12


def test_rip_k_uses_symmetric_part():
    m = stream(313, 0).standard_normal((5, 5))
    assert math.isclose(rip_k(m, 2), rip_k(0.5 * (m + m.T), 2), rel_tol=1e-12)


def test_rip_k_budget_guard():
    big = np.eye(30)
    with pytest.raises(BudgetExceededError, match=r"comb\(30, 12\) = 86493225 exceeds the enumeration budget 1000000$"):
        rip_k(big, 12)
    with pytest.raises(ValueError):
        rip_k(big, 0)
    with pytest.raises(ValueError):
        rip_k_lower_random(big, 31)


@pytest.mark.parametrize("d", [1, 2, 5, 9])
def test_rip_k_is_bit_equal_to_per_subset_loop(d):
    m = stream(314, d).standard_normal((d, d))  # not symmetric
    for k in sorted({1, min(2, d), d - 1 or 1, d}):
        assert rip_k(m, k) == rip_k_loop(m, k), k


def rip_cases() -> dict[str, np.ndarray]:
    """6 x 6 matrices where a pruning bound that is not certified shows."""
    d = 6
    g = stream(318, 0)
    cases = {
        "identity": np.eye(d),
        "zero": np.zeros((d, d)),
        "ones": np.ones((d, d)),
        "minus-3I": -3.0 * np.eye(d),
        "small-integer": g.integers(-2, 3, (d, d)).astype(float),
        # largest Frobenius norm at k = 2 on {0, 1} (sqrt 2), spectral maximum on {0, 2} (1.2)
        "frobenius-not-spectral": np.pad([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.2]], (0, 3)),
        # squares of the diagonal underflow next to the unit entries: at k = 1
        # only the diagonal counts, and its largest entry comes last
        "tiny-diagonal": np.diag(np.arange(1.0, d + 1) * 1e-170) + np.eye(d, k=1),
        "wide-magnitudes": g.standard_normal((d, d)) * 10.0 ** g.uniform(-250, 0, (d, d)),
        "huge": g.standard_normal((d, d)) * 1e300,
        "subnormal": g.integers(-40, 41, (d, d)) * 2.0**-1074,
    }
    # rank one: ||S||_2 = ||S||_F on every subset, and repeated magnitudes
    # tie many subsets in exact arithmetic, apart in the last bits
    for j in range(10):
        r = stream(316, j)
        v = r.integers(1, 4, d) * r.choice([-1.0, 1.0], d) * r.uniform(0.3, 3.0)
        cases[f"rank-one-{j}"] = np.outer(v, v)
    return cases


@pytest.mark.parametrize("entries", [1, 15, 9 * 4, 9 * 35 - 1, 20 * 4 * 4, None])
def test_rip_k_blocks_do_not_change_the_result(monkeypatch, entries):
    # a sub-stack holds entries // comb(d, k) matrices and a block entries // R
    # subsets of a sub-stack of R: at 1, sub-stacks and blocks of 1 for every
    # call (nothing pruned within a block, only the carried maximum); at 15,
    # ragged blocks of m's comb(7, 3) = 35 subsets (15, 15, 5) and of the
    # stack's comb(6, 3) = 20 (15, 5); comb(7, 3) subsets of m in one block at
    # 36 and above; the stack of 20 cases at k = 3 in sub-stacks of 15 and 5
    # at 314, of 16 and 4 at 320
    if entries is not None:
        monkeypatch.setattr(cv, "BLOCK_ENTRIES", entries)
    m = stream(315, 0).standard_normal((7, 7))
    assert rip_k(m, 3) == rip_k_loop(m, 3)
    cases = rip_cases()
    stack = np.stack(list(cases.values()))
    for k in range(1, 7):
        want = [rip_k_loop(m, k) for m in stack]
        assert rip_k(stack, k).tolist() == want, k
        for name, m, w in zip(cases, stack, want):
            one = rip_k(m, k)
            assert type(one) is float and one == w, (name, k)


def test_rip_k_splits_a_large_stack_into_sub_stacks(monkeypatch):
    # comb(10, 5) = 252 subsets: a sub-stack holds BLOCK_ENTRIES // 252 = 520
    # matrices, so a stack of 521 runs as 520 and 1, each value that of its matrix alone
    stack = stream(321, 0).standard_normal((521, 10, 10))
    stacks = []
    sub_stack_maxima = cv._sub_stack_maxima

    def recording(sym, *args):
        stacks.append(len(sym))
        return sub_stack_maxima(sym, *args)

    monkeypatch.setattr(cv, "_sub_stack_maxima", recording)
    got = rip_k(stack, 5).tolist()
    assert stacks == [520, 1]
    assert got == [rip_k(m, 5) for m in stack]


def test_rip_k_prunes_what_its_bound_rules_out(monkeypatch):
    # the IPW deviation of a 14 x 8 model at k = 4: far fewer than comb(14, 4)
    # = 1001 submatrices a replicate need a decomposition, once the 8
    # largest-bound subsets of each matrix raise its running maximum
    model = MultivariateModel(b=stream(319, 0).standard_normal((14, 8)), alpha=1.0, p=(0.5,) * 14)
    devs = np.stack(
        [ipw_estimator(generate_samples(model, 200, 319, i)[0], model.p_array()) for i in range(4)]
    ) - model.sigma()
    want = [rip_k_loop(m, 4) for m in devs]
    decomposed = []
    eigvalsh = np.linalg.eigvalsh

    def counting(x):
        decomposed.append(len(x))
        return eigvalsh(x)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert rip_k(devs, 4).tolist() == want
    assert 4 * cv.RIP_TOP_FIRST <= sum(decomposed) <= 4 * 50


def test_rip_k_rejects_non_finite_entries():
    m = np.eye(3)
    m[0, 2] = np.nan
    with pytest.raises(ValueError, match="inf or NaN"):
        rip_k(m, 2)
    stack = np.stack([np.eye(3)] * 3)
    stack[1, 1, 1] = np.nan
    with pytest.raises(ValueError, match="inf or NaN"):
        rip_k(stack, 2)
    # finite entries whose symmetric part overflows
    with pytest.raises(ValueError, match="overflows"):
        rip_k(np.array([[1.0, 1.5e308], [1.5e308, 1.0]]), 1)
    with pytest.raises(ValueError, match="square"):
        rip_k(np.ones((2, 3, 3, 3)), 2)
    with pytest.raises(ValueError, match="empty stack"):
        rip_k(np.ones((0, 3, 3)), 2)


def test_a_theta_p_forms():
    theta = np.array([0.8, -0.6])
    assert np.allclose(a_theta_p(theta, np.ones(2)), np.outer(theta, theta), atol=1e-15)
    e1 = a_theta_p(np.array([1.0, 0.0]), np.array([0.25, 0.5]))
    assert e1[0, 0] == 4.0 and np.count_nonzero(e1) == 1
    # split identity: outer of theta/p minus the diagonal correction
    p = np.array([0.5, 0.8])
    u = theta / p
    split = np.outer(u, u) - np.diag(theta**2 * (1 - p) / p**2)
    assert np.allclose(a_theta_p(theta, p), split, rtol=1e-14, atol=0)
    with pytest.raises(ValueError):
        a_theta_p(theta, np.array([0.5, 0.0]))


def test_expected_frob_sq_full_retention():
    b = stream(320, 0).standard_normal((3, 2))
    theta = np.array([0.2, -0.5, 0.9])
    ones = np.ones(3)
    deterministic = float(np.sum((b.T @ a_theta_p(theta, ones) @ b) ** 2))
    assert math.isclose(expected_frob_sq_exact(b, theta, ones), deterministic, rel_tol=1e-10)
    assert expected_frob_sq_exact(b, np.zeros(3), ones) == 0.0


def test_expected_frob_sq_vs_literal_reference():
    b = stream(321, 0).standard_normal((3, 2))
    theta = stream(321, 1).standard_normal(3)
    p = np.array([0.4, 0.7, 0.95])
    ours = expected_frob_sq_exact(b, theta, p)
    ref = masked_frob_sq_reference(b, theta, p)
    assert math.isclose(ours, ref, rel_tol=1e-10)


@pytest.mark.parametrize("pattern", ["dense", "sparse", "axis", "zero"])
def test_expected_frob_sq_is_bit_equal_to_full_loop(pattern):
    d = 6
    b = stream(325, 0).standard_normal((d, 4))
    p = stream(325, 1).uniform(0.2, 1.0, d)
    theta = stream(325, 2).standard_normal(d)
    keep = {"dense": range(d), "sparse": [1, 4], "axis": [3], "zero": []}[pattern]
    theta[[i for i in range(d) if i not in keep]] = 0.0
    ours = expected_frob_sq_exact(b, theta, p)
    assert ours == expected_frob_sq_loop(b, theta, p)
    assert (ours == 0.0) == (pattern == "zero")


def test_expected_frob_sq_vs_monte_carlo():
    b = stream(322, 0).standard_normal((3, 2))
    theta = stream(322, 1).standard_normal(3)
    p = np.array([0.5, 0.8, 0.6])
    exact = expected_frob_sq_exact(b, theta, p)
    mc, se = expected_frob_sq_mc(b, theta, p, n_samples=20_000, seed=16)
    assert abs(exact - mc) <= 3 * se
    # Jensen: second moment dominates the squared first moment
    assert exact >= mc - 3 * se  # guard before the sharper check below
    rng = stream(323, 0)
    delta = (rng.random((5000, 3)) < p).astype(float)
    a = a_theta_p(theta, p)
    norms = [
        float(np.linalg.norm((b * dm[:, None]).T @ a @ (b * dm[:, None]), "fro"))
        for dm in delta
    ]
    assert exact >= float(np.mean(norms)) ** 2 * (1 - 1e-2)


def test_k1_k2_closed_values():
    model = MultivariateModel(b=np.eye(4), alpha=2.0, p=(1.0,) * 4)
    theta = np.array([1.0, 0.0, 0.0, 0.0])
    k1, k2 = k1_k2_terms(model, theta)
    assert math.isclose(k1, math.sqrt(4.0) + 1.0, rel_tol=1e-9)
    k1z, k2z = k1_k2_terms(model, np.zeros(4))
    assert k1z == 0.0 and k2z == 0.0


def test_k1_k2_mc_agrees_with_exact():
    model = small_model(324)
    theta = stream(324, 2).standard_normal(3)
    theta /= np.linalg.norm(theta)
    _, k2 = k1_k2_terms(model, theta)
    mc, se = expected_frob_sq_mc(model.b, theta, model.p_array(), n_samples=10_000, seed=15)
    assert abs(k2**2 - mc) <= 3 * se


def test_masked_moment_bound_diagonal_shape():
    # diagonal weight matrices: the r-th moment of the masked conjugation is
    # dominated by |B| |A| (|Diag(sqrt p)B|_F + sqrt(r) |B|) with one constant
    # fitted per instance at r = 1
    for seed in (700, 701, 702):
        rng = stream(seed, 0)
        d, m = 4, 3
        b = rng.standard_normal((d, m))
        p = rng.uniform(0.3, 1.0, d)
        a_diag = rng.uniform(-2.0, 2.0, d)
        spec_b = float(np.linalg.svd(b, compute_uv=False)[0])
        spec_a = float(np.max(np.abs(a_diag)))
        wf = float(np.linalg.norm(np.sqrt(p)[:, None] * b, "fro"))
        masks = (stream(seed + 200, 0).random((8000, d)) < p).astype(float)
        vals = np.array(
            [
                np.linalg.norm((b * (dm * a_diag)[:, None]).T @ b, "fro")
                for dm in masks
            ]
        )
        rhs = lambda r: spec_b * spec_a * (wf + math.sqrt(r) * spec_b)
        c_hat = float(np.mean(vals)) / rhs(1.0)
        for r in (2.0, 4.0):
            lhs = float(np.mean(vals**r) ** (1.0 / r))
            assert lhs <= c_hat * rhs(r) * 1.05


def test_masked_moment_bound_rank_one_pointwise():
    # A = x x^T makes the masked conjugation norm |B^T Diag(x) delta|_2^2,
    # which is bounded by |B|^2 |x|^2 for every 0/1 mask, not just on average
    rng = stream(703, 0)
    b = rng.standard_normal((4, 3))
    x = rng.standard_normal(4)
    spec_b = float(np.linalg.svd(b, compute_uv=False)[0])
    cap = spec_b**2 * float(x @ x)
    for bits in range(16):
        delta = np.array([(bits >> j) & 1 for j in range(4)], dtype=float)
        a = np.outer(x, x)
        conj = (b * delta[:, None]).T @ a @ (b * delta[:, None])
        assert np.linalg.norm(conj, "fro") <= cap * (1 + 1e-9)


def test_rip_bound_rhs_structure():
    model = small_model(330)
    r = rip_bound_rhs(0.0, 1, model, 100, theta_budget=8, seed=3)
    assert math.isclose(r.log_term, math.log(48 * math.e * 3))
    assert r.value == r.term_k2 + r.term_k1_34 + r.term_k1_alpha
    assert r.thetas_evaluated >= 3
    big_n = rip_bound_rhs(1.0, 2, model, 10**12, theta_budget=8, seed=3)
    small_n = rip_bound_rhs(1.0, 2, model, 100, theta_budget=8, seed=3)
    assert big_n.value < small_n.value
    assert big_n.value < 1e-3
    # a grid gives exactly the values of one call per threshold
    grid = np.array([0.0, 0.5, 1.0, 6.0])
    whole = rip_bound_rhs(grid, 2, model, 100, theta_budget=8, seed=3)
    for i, t in enumerate(grid):
        single = rip_bound_rhs(t, 2, model, 100, theta_budget=8, seed=3)
        for name in ("value", "term_k2", "term_k1_34", "term_k1_alpha", "log_term"):
            assert getattr(whole, name).shape == grid.shape
            assert getattr(whole, name)[i] == getattr(single, name)
        assert (whole.sup_k1, whole.sup_k2) == (single.sup_k1, single.sup_k2)
        assert whole.thetas_evaluated == single.thetas_evaluated
    with pytest.raises(ValueError, match="t must be nonnegative"):
        rip_bound_rhs([1.0, -0.5], 2, model, 100, theta_budget=8, seed=3)
    with pytest.raises(ValueError, match="t must be nonnegative"):
        rip_bound_rhs([1.0, np.nan], 2, model, 100, theta_budget=8, seed=3)


def test_rip_bound_rhs_work_does_not_grow_with_t(monkeypatch):
    real = cv.expected_frob_sq_exact
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cv, "expected_frob_sq_exact", counting)
    model = small_model(333)
    rip_bound_rhs(1.0, 2, model, 100, theta_budget=8, seed=3)
    one = len(calls)
    rip_bound_rhs([0.5, 1.0, 2.0, 4.0], 2, model, 100, theta_budget=8, seed=3)
    assert one > 0 and len(calls) == 2 * one


def test_rip_bound_rhs_takes_sup_k2_from_the_kernel(monkeypatch):
    real = mn.opnorm_detail
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mn, "opnorm_detail", counting)
    model = small_model(334, d=4, m=3)
    r = rip_bound_rhs(1.0, 2, model, 100, theta_budget=0, seed=3)
    assert len(calls) == 1  # ||B||_{2->2} once, not once per direction
    axes = np.eye(model.dim)
    assert r.sup_k2 == max(k1_k2_terms(model, th)[1] for th in axes)
    worst = axes[int(np.argmin(model.p_array()))]
    assert math.isclose(r.sup_k1, k1_k2_terms(model, worst)[0], rel_tol=1e-14)


def test_rip_bound_rhs_scales_quadratically_in_b():
    model = small_model(331)
    scaled = MultivariateModel(b=2.0 * model.b, alpha=model.alpha, p=model.p)
    r1 = rip_bound_rhs(1.0, 2, model, 500, theta_budget=16, seed=3)
    r2 = rip_bound_rhs(1.0, 2, scaled, 500, theta_budget=16, seed=3)
    assert math.isclose(r2.term_k2 / r1.term_k2, 4.0, rel_tol=1e-9)
    with pytest.raises(ValueError):
        rip_bound_rhs(-1.0, 2, model, 500)
    with pytest.raises(ValueError):
        rip_bound_rhs(1.0, 9, model, 500)


def test_rip_quantile_dominated_by_bound():
    # over replicates, the (1 - 2 e^{-t}) quantile of the k-sparse deviation
    # must stay within one fitted constant of the bound across t; the
    # constant is anchored at the largest t because tail bounds are tight
    # in the deep tail and only get slack closer to the median
    b = stream(55, 0).standard_normal((4, 6))
    model = MultivariateModel(b=b, alpha=2.0, p=(0.7, 0.9, 0.6, 0.8))
    sigma = model.sigma()
    n, k = 800, 2
    rips = np.empty(200)
    for i in range(200):
        values, _ = generate_samples(model, n, 99, stream_id=i)
        rips[i] = rip_k(ipw_estimator(values, model.p_array()) - sigma, k)
    ts = (1.0, 2.0, 4.0)
    rhs = {t: rip_bound_rhs(t, k, model, n, seed=5).value for t in ts}
    qs = {t: float(np.quantile(rips, max(0.0, 1 - 2 * math.exp(-t)))) for t in ts}
    c_hat = qs[4.0] / rhs[4.0]
    for t in ts:
        assert qs[t] <= c_hat * rhs[t] + 1e-12
