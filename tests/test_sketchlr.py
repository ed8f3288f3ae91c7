"""Tests for sparsified-sketch low-rank approximation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jacobi_svd, reconstruct
from sparse_hw.quadform_mc import wilson_interval
from sparse_hw.rv_models import DistributionSpec, SparseModel, sample_sparse_matrix
from sparse_hw.sketchlr import (
    FactoredMatrix,
    low_rank_approx,
    sketch_bound,
    sparsified_sketch,
    thin_svd,
)
from sparse_hw.streams import stream


def rank_k_matrix(seed, m, n, k):
    rng = stream(seed, 0)
    return rng.standard_normal((m, k)) @ rng.standard_normal((k, n))


# ---------------------------------------------------------------- thin_svd


def test_thin_svd_drops_zero_singular_value():
    f = thin_svd(np.diag([3.0, 0.0]))
    assert f.rank == 1
    assert f.s.tolist() == [3.0]
    assert not f.truncated


def test_thin_svd_rank_one():
    u = np.array([3.0, 4.0]) / 5.0
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    f = thin_svd(np.outer(u, v))
    assert f.rank == 1
    assert math.isclose(f.s[0], 1.0, rel_tol=1e-12)
    # factors recover u and v up to a shared sign
    sign = np.sign(f.u[0, 0] * u[0])
    assert np.allclose(sign * f.u[:, 0], u, atol=1e-12)
    assert np.allclose(sign * f.v[:, 0], v, atol=1e-12)


def test_thin_svd_zero_matrix_has_empty_factors():
    f = thin_svd(np.zeros((3, 2)))
    assert f.rank == 0
    assert f.u.shape == (3, 0)
    assert f.s.shape == (0,)
    assert f.v.shape == (2, 0)


def test_thin_svd_matches_jacobi_oracle():
    x = rank_k_matrix(909, 8, 6, 3)
    f = thin_svd(x)
    _, s_ref, _ = jacobi_svd(x)
    assert f.rank == 3
    assert np.allclose(f.s, s_ref[:3], rtol=1e-9, atol=0)
    assert np.max(np.abs(reconstruct(f) - x)) <= 10 * np.finfo(float).eps * 3 * np.abs(x).max()


def test_thin_svd_flags_truncated_tail():
    f = thin_svd(np.diag([1.0, 1e-15]))
    assert f.rank == 1
    assert f.truncated


def test_thin_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        thin_svd(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        thin_svd(np.array([[1.0, np.inf], [0.0, 1.0]]))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
def test_thin_svd_reconstructs(seed, m, n):
    x = stream(seed, 0).standard_normal((m, n))
    f = thin_svd(x)
    assert f.rank <= min(m, n)
    assert np.allclose(reconstruct(f), x, atol=1e-10 * max(1.0, np.abs(x).max()))


def test_factored_matrix_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        FactoredMatrix(u=np.ones((2, 2)), s=np.array([2.0, 1.0]), v=np.eye(2))
    with pytest.raises(ValueError, match="descending"):
        FactoredMatrix(u=np.eye(2), s=np.array([1.0, 2.0]), v=np.eye(2))
    with pytest.raises(ValueError, match="shapes"):
        FactoredMatrix(u=np.eye(2), s=np.array([1.0]), v=np.eye(2))


def test_factored_matrix_tilde_splits_singular_values():
    f = thin_svd(np.diag([4.0, 1.0]))
    assert np.allclose(f.u_tilde() @ f.v_tilde().T, np.diag([4.0, 1.0]), atol=1e-12)


# --------------------------------------------------------------- coherence


def frame_coherence(w) -> float:
    """Coherence of the orthonormal frame w, read from FactoredMatrix(w, 1, w)."""
    return FactoredMatrix(w, np.ones(w.shape[1]), w).coherences[0]


def test_coherence_identity_columns_is_maximal():
    # mass sits on k rows out of m, so coherence hits m / k
    assert math.isclose(frame_coherence(np.eye(6)[:, :2]), 3.0, rel_tol=1e-12)


def test_coherence_hadamard_columns_is_minimal():
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    h4 = np.kron(h2, h2)
    assert math.isclose(frame_coherence(h4[:, :2]), 1.0, rel_tol=1e-12)


def test_coherence_range_on_random_frames():
    for seed in (30, 31, 32):
        m, k = 12, 4
        q, _ = np.linalg.qr(stream(seed, 0).standard_normal((m, k)))
        c = frame_coherence(q)
        assert 1.0 - 1e-12 <= c <= m / k + 1e-12


def test_coherences_are_those_of_u_and_of_v():
    fact = thin_svd(rank_k_matrix(12, 9, 7, 3))
    assert fact.coherences == (frame_coherence(fact.u), frame_coherence(fact.v))


def test_coherence_rejects_bad_frames():
    # FactoredMatrix checks the frames whose coherences it gives
    with pytest.raises(ValueError, match="orthonormal"):
        FactoredMatrix(np.ones((4, 2)), np.ones(2), np.ones((4, 2)))
    # a wide frame cannot be orthonormal
    with pytest.raises(ValueError, match="orthonormal"):
        FactoredMatrix(np.eye(2, 3), np.ones(3), np.eye(2, 3))


# --------------------------------------------------------- sketch matrices


def test_sparsified_sketch_validation():
    with pytest.raises(ValueError, match="positive"):
        sparsified_sketch(0, 3, 0.5, 1)
    with pytest.raises(ValueError, match="positive"):
        sparsified_sketch(3, 0, 0.5, 1)
    with pytest.raises(ValueError, match="p must"):
        sparsified_sketch(3, 3, 0.0, 1)
    with pytest.raises(ValueError, match="p must"):
        sparsified_sketch(3, 3, 1.5, 1)
    with pytest.raises(ValueError, match="xi must"):
        sparsified_sketch(3, 3, 0.5, 1, xi="uniform")


@pytest.mark.parametrize("xi", ["gaussian", "rademacher"])
@pytest.mark.parametrize("p", [0.5, 1.0])
def test_sketch_column_is_a_row_of_the_sparse_sampler(xi, p):
    # the sketch has no draws of its own: column j is sample_sparse_matrix's
    # one-row draw of k coordinates from stream (seed, j), scaled by r^(-1/2)
    k, r, seed = 7, 5, 31
    q = sparsified_sketch(k, r, p, seed, xi)
    model = SparseModel((p,) * k, DistributionSpec(kind=xi))
    for j in range(r):
        row = sample_sparse_matrix(model, 1, stream(seed, j))[0]
        assert np.array_equal(q[:, j], row / math.sqrt(r))


def test_sketch_full_retention_rademacher_entries():
    q = sparsified_sketch(4, 3, 1.0, 2, xi="rademacher")
    assert q.shape == (4, 3)
    assert np.all(np.isclose(np.abs(q) * math.sqrt(3), 1.0, rtol=1e-12))


def test_sketch_columns_shared_across_widths():
    # column j comes from stream (seed, j), so widening r only appends
    # columns; undo the 1 / sqrt(r) scale before comparing
    q3 = sparsified_sketch(4, 3, 0.5, 77)
    q5 = sparsified_sketch(4, 5, 0.5, 77)
    assert np.allclose(q3 * math.sqrt(3), q5[:, :3] * math.sqrt(5), rtol=1e-12, atol=0)


def test_sketch_second_moment_is_p_identity():
    k, r, p = 3, 5, 0.6
    n = 10_000
    acc = np.zeros((k, k))
    for s in range(n):
        q = sparsified_sketch(k, r, p, 5000 + s)
        acc += q @ q.T
    mean = acc / n
    # diagonal entries average r iid delta * xi^2 terms; their variance
    # (3p - p^2) / r dominates the off-diagonal one
    se = math.sqrt((3 * p - p * p) / r / n)
    assert np.max(np.abs(mean - p * np.eye(k))) <= 4 * se


def test_sketch_retention_rate():
    q = sparsified_sketch(40, 50, 0.5, 9)
    lo, hi = wilson_interval(int(np.count_nonzero(q)), q.size)
    assert lo <= 0.5 <= hi


# ------------------------------------------------------------ error bound


def test_theorem_bound_value():
    # X = 2 I_3: k = m = n = 3 and unit coherences, so bound = k eps ||X|| / (p sqrt(mn)) = 4 eps
    eps, bound = sketch_bound(thin_svd(2.0 * np.eye(3)), r=50, p=0.5, eta=0.1, c1=1.0)
    assert math.isclose(bound, 4.0 * eps, rel_tol=1e-12)


def test_theorem_bound_linear_in_eps():
    # r moves eps; the bound stays eps times one constant of (X, p)
    fact = thin_svd(rank_k_matrix(13, 5, 7, 2))
    pairs = (sketch_bound(fact, r, 0.4, 0.1, 1.0) for r in (3, 30, 3000))
    ratios = [bound / eps for eps, bound in pairs]
    assert all(math.isclose(q, ratios[0], rel_tol=1e-12) for q in ratios)


def test_theorem_bound_counts_a_coherence_rounded_below_1_as_1():
    # U of this 2 x 3 X is a square orthonormal 2 x 2 whose coherence
    # computes one ulp below 1
    assert thin_svd([[1, -1, 0.5], [1, 1, -0.5]]).coherences[0] == 1.0 - 2.0**-53
    # a frame inside the orthonormality tolerance gives coherence 1 - 1e-9,
    # which was once rejected with "coherences are at least 1"
    w = math.sqrt(1.0 - 1e-9) * np.eye(2)
    near = FactoredMatrix(w, np.ones(2), w)
    assert all(math.isclose(mu, 1.0 - 1e-9, rel_tol=1e-15) for mu in near.coherences)
    exact = FactoredMatrix(np.eye(2), np.ones(2), np.eye(2))
    assert sketch_bound(near, 3, 0.5, 0.1, 1.0) == sketch_bound(exact, 3, 0.5, 0.1, 1.0)


def test_theorem_bound_validation():
    fact = thin_svd(np.eye(4))
    # eta is checked before c1
    with pytest.raises(ValueError, match="eta"):
        sketch_bound(fact, 10, 1.5, eta=0.0, c1=0.0)
    with pytest.raises(ValueError, match="c1"):
        sketch_bound(fact, 10, 1.5, eta=0.1, c1=0.0)


def test_theorem_bound_rejects_an_overflowing_bound():
    with pytest.raises(ValueError, match="overflows"):
        sketch_bound(thin_svd(np.diag([1e10, 1.0])), 1, 1e-300, 0.1, 1.0)


def test_smallest_admissible_eps_value():
    eps, _ = sketch_bound(thin_svd(np.eye(10)), r=100, p=1.0, eta=0.1, c1=1.0)
    ell = math.log(1000.0)
    assert math.isclose(eps, max(math.sqrt(ell / 100), ell / 100), rel_tol=1e-12)
    assert math.isclose(eps, 0.26282608848784655, rel_tol=1e-12)


def test_admissibility_is_tight_at_smallest_eps():
    # r >= c1 log(mn / eta) max{p / eps^2, 1 / eps} holds at eps and fails below it
    def need(eps, p):
        return math.log(10 * 10 / 0.1) * max(p / eps**2, 1.0 / eps)

    fact = thin_svd(np.eye(10))
    for p in (1.0, 0.01):
        eps, _ = sketch_bound(fact, r=100, p=p, eta=0.1, c1=1.0)
        assert math.isclose(need(eps, p), 100.0, rel_tol=1e-12)
        assert need(0.9 * eps, p) > 100.0


def test_admissibility_validation():
    fact = thin_svd(np.eye(4))
    for eta in (1.5, 0.0):
        with pytest.raises(ValueError, match="eta"):
            sketch_bound(fact, 10, 0.5, eta=eta, c1=1.0)
    for c1 in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="c1"):
            sketch_bound(fact, 10, 0.5, eta=0.1, c1=c1)


def test_sketch_bound_is_the_theorem_bound_at_the_smallest_eps():
    x = rank_k_matrix(12, 9, 7, 3)
    fact = thin_svd(x)
    eps, bound = sketch_bound(fact, 5, 0.4, eta=0.05, c1=2.0)
    ell = 2.0 * math.log(9 * 7 / 0.05)
    assert eps == max(math.sqrt(ell * 0.4 / 5), ell / 5)
    mu_col, mu_row = fact.coherences
    assert min(mu_col, mu_row) >= 1.0
    expected = 3 * eps / (0.4 * math.sqrt(9 * 7)) * math.sqrt(mu_col * mu_row) * fact.s[0]
    assert math.isclose(bound, expected, rel_tol=1e-12)


# --------------------------------------------------------- low_rank_approx


def test_low_rank_approx_rejects_zero_matrix():
    with pytest.raises(ValueError, match="nothing to sketch"):
        low_rank_approx(np.zeros((3, 3)), 1, 0.5, seed=0)


def test_low_rank_approx_rejects_wide_sketch_by_default():
    x = np.diag([3.0, 0.0])
    with pytest.raises(ValueError, match="allow_wide"):
        low_rank_approx(x, 2, 0.5, seed=0)
    fu, fv, _ = low_rank_approx(x, 2, 0.5, seed=0, allow_wide=True)
    # two sketch columns, but the output keeps the detected rank 1
    assert fu.shape == fv.shape == (2, 2)
    assert np.linalg.matrix_rank(fu @ fv.T) == 1


def test_low_rank_approx_unbiased():
    x = rank_k_matrix(88, 8, 8, 3)
    n = 500
    acc = np.zeros_like(x)
    acc_sq = np.zeros_like(x)
    for s in range(n):
        fu, fv, _ = low_rank_approx(x, 3, 0.6, seed=1000 + s)
        y = fu @ fv.T / 0.6
        acc += y
        acc_sq += y * y
    mean = acc / n
    se = np.sqrt((acc_sq / n - mean**2) / n)
    assert np.max(np.abs(mean - x) / se) <= 4.0


def test_low_rank_approx_output_rank_at_most_r():
    x = rank_k_matrix(4, 64, 64, 16)
    fu, fv, _ = low_rank_approx(x, 3, 0.8, seed=1)
    assert fu.shape == (64, 3)
    s = np.linalg.svd(fu @ fv.T / 0.8, compute_uv=False)
    assert s[3] <= 1e-9 * s[0]


def test_low_rank_approx_sparsity_costs_accuracy():
    # stronger sparsification inflates the 1 / p rescale noise
    x = rank_k_matrix(4, 64, 64, 16)
    medians = {}
    for p in (0.25, 1.0):
        errs = [low_rank_approx(x, 16, p, seed=400 + s)[2] for s in range(50)]
        medians[p] = float(np.median(errs))
    assert medians[0.25] >= medians[1.0]


def test_low_rank_approx_result_consistency():
    x = np.diag([3.0, 2.0, 1.0])
    fu, fv, error_max = low_rank_approx(x, 2, 0.75, seed=5)
    assert fu.shape == fv.shape == (3, 2)
    assert math.isclose(error_max, float(np.max(np.abs(x - fu @ fv.T / 0.75))), rel_tol=1e-15)
