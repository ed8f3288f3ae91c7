"""Tests for sparsified-sketch low-rank approximation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jacobi_svd
from sparse_hw.quadform_mc import wilson_interval
from sparse_hw.sketchlr import (
    FactoredMatrix,
    SketchSpec,
    coherence,
    low_rank_approx,
    sketch_admissible,
    smallest_admissible_eps,
    sparsified_sketch,
    theorem_bound_22,
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
    assert np.max(np.abs(f.reconstruct() - x)) <= 10 * np.finfo(float).eps * 3 * np.abs(x).max()


def test_thin_svd_flags_truncated_tail():
    f = thin_svd(np.diag([1.0, 1e-15]))
    assert f.rank == 1
    assert f.truncated


def test_thin_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        thin_svd(np.eye(2), rank_tol=-1e-3)
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
    assert np.allclose(f.reconstruct(), x, atol=1e-10 * max(1.0, np.abs(x).max()))


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


def test_coherence_identity_columns_is_maximal():
    # mass sits on k rows out of m, so coherence hits m / k
    assert math.isclose(coherence(np.eye(6)[:, :2]), 3.0, rel_tol=1e-12)


def test_coherence_hadamard_columns_is_minimal():
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    h4 = np.kron(h2, h2)
    assert math.isclose(coherence(h4[:, :2]), 1.0, rel_tol=1e-12)


def test_coherence_range_on_random_frames():
    for seed in (30, 31, 32):
        m, k = 12, 4
        q, _ = np.linalg.qr(stream(seed, 0).standard_normal((m, k)))
        c = coherence(q)
        assert 1.0 - 1e-12 <= c <= m / k + 1e-12


def test_coherence_rejects_bad_frames():
    with pytest.raises(ValueError, match="orthonormal"):
        coherence(np.ones((4, 2)))
    with pytest.raises(ValueError, match="tall"):
        coherence(np.eye(2, 3))


# --------------------------------------------------------- sketch matrices


def test_sketch_spec_validation():
    with pytest.raises(ValueError):
        SketchSpec(k=0, r=3, p=0.5, seed=1)
    with pytest.raises(ValueError):
        SketchSpec(k=3, r=0, p=0.5, seed=1)
    with pytest.raises(ValueError):
        SketchSpec(k=3, r=3, p=0.0, seed=1)
    with pytest.raises(ValueError):
        SketchSpec(k=3, r=3, p=1.5, seed=1)
    with pytest.raises(ValueError):
        SketchSpec(k=3, r=3, p=0.5, seed=1, xi="uniform")


def test_sketch_full_retention_rademacher_entries():
    q = sparsified_sketch(SketchSpec(k=4, r=3, p=1.0, seed=2, xi="rademacher"))
    assert q.shape == (4, 3)
    assert np.all(np.isclose(np.abs(q) * math.sqrt(3), 1.0, rtol=1e-12))


def test_sketch_columns_shared_across_widths():
    # column j comes from stream (seed, j), so widening r only appends
    # columns; undo the 1 / sqrt(r) scale before comparing
    q3 = sparsified_sketch(SketchSpec(k=4, r=3, p=0.5, seed=77))
    q5 = sparsified_sketch(SketchSpec(k=4, r=5, p=0.5, seed=77))
    assert np.allclose(q3 * math.sqrt(3), q5[:, :3] * math.sqrt(5), rtol=1e-12, atol=0)


def test_sketch_second_moment_is_p_identity():
    k, r, p = 3, 5, 0.6
    n = 10_000
    acc = np.zeros((k, k))
    for s in range(n):
        q = sparsified_sketch(SketchSpec(k=k, r=r, p=p, seed=5000 + s))
        acc += q @ q.T
    mean = acc / n
    # diagonal entries average r iid delta * xi^2 terms; their variance
    # (3p - p^2) / r dominates the off-diagonal one
    se = math.sqrt((3 * p - p * p) / r / n)
    assert np.max(np.abs(mean - p * np.eye(k))) <= 4 * se


def test_sketch_retention_rate():
    q = sparsified_sketch(SketchSpec(k=40, r=50, p=0.5, seed=9))
    lo, hi = wilson_interval(int(np.count_nonzero(q)), q.size)
    assert lo <= 0.5 <= hi


# ------------------------------------------------------------ error bound


def test_theorem_bound_value():
    # k = m = n = 3, unit coherences: bound = k eps |X| / (p sqrt(mn)) = eps |X| / p
    b = theorem_bound_22(k=3, eps=0.25, p=0.5, m=3, n=3, mu_col=1.0, mu_row=1.0, spec_norm=2.0)
    assert math.isclose(b, 1.0, rel_tol=1e-12)


def test_theorem_bound_linear_in_eps():
    kw = dict(k=2, p=0.4, m=5, n=7, mu_col=1.2, mu_row=2.0, spec_norm=3.0)
    assert math.isclose(
        theorem_bound_22(eps=0.6, **kw), 3.0 * theorem_bound_22(eps=0.2, **kw), rel_tol=1e-12
    )


def test_theorem_bound_counts_a_coherence_rounded_below_1_as_1():
    kw = dict(k=1, eps=0.1, p=0.5, m=2, n=2, spec_norm=1.0)
    exact = theorem_bound_22(mu_col=1.0, mu_row=1.0, **kw)
    below = 1.0 - 2.0**-53  # coherence() of a square orthonormal factor
    assert theorem_bound_22(mu_col=below, mu_row=1.0 - 4e-16, **kw) == exact
    with pytest.raises(ValueError, match="coherences"):
        theorem_bound_22(mu_col=1.0 - 1e-9, mu_row=1.0, **kw)
    with pytest.raises(ValueError, match="coherences"):
        theorem_bound_22(mu_col=math.nan, mu_row=1.0, **kw)


def test_theorem_bound_validation():
    with pytest.raises(ValueError):
        theorem_bound_22(k=0, eps=0.1, p=0.5, m=2, n=2, mu_col=1.0, mu_row=1.0, spec_norm=1.0)
    with pytest.raises(ValueError):
        theorem_bound_22(k=1, eps=0.0, p=0.5, m=2, n=2, mu_col=1.0, mu_row=1.0, spec_norm=1.0)
    with pytest.raises(ValueError):
        theorem_bound_22(k=1, eps=0.1, p=1.5, m=2, n=2, mu_col=1.0, mu_row=1.0, spec_norm=1.0)
    with pytest.raises(ValueError, match="coherences"):
        theorem_bound_22(k=1, eps=0.1, p=0.5, m=2, n=2, mu_col=0.5, mu_row=1.0, spec_norm=1.0)
    with pytest.raises(ValueError):
        theorem_bound_22(k=1, eps=0.1, p=0.5, m=2, n=2, mu_col=1.0, mu_row=1.0, spec_norm=-1.0)


def test_smallest_admissible_eps_value():
    eps = smallest_admissible_eps(r=100, p=1.0, m=10, n=10, eta=0.1, c1=1.0)
    ell = math.log(1000.0)
    assert math.isclose(eps, max(math.sqrt(ell / 100), ell / 100), rel_tol=1e-12)
    assert math.isclose(eps, 0.26282608848784655, rel_tol=1e-12)


def test_admissibility_is_tight_at_smallest_eps():
    eps = smallest_admissible_eps(r=100, p=1.0, m=10, n=10, eta=0.1, c1=1.0)
    assert sketch_admissible(r=100, eps=eps, p=1.0, m=10, n=10, eta=0.1, c1=1.0)
    assert not sketch_admissible(r=100, eps=0.9 * eps, p=1.0, m=10, n=10, eta=0.1, c1=1.0)


def test_admissibility_validation():
    with pytest.raises(ValueError, match="eta"):
        sketch_admissible(r=10, eps=0.5, p=0.5, m=4, n=4, eta=1.5)
    with pytest.raises(ValueError):
        sketch_admissible(r=10, eps=-0.5, p=0.5, m=4, n=4)


# --------------------------------------------------------- low_rank_approx


def test_low_rank_approx_rejects_zero_matrix():
    with pytest.raises(ValueError, match="nothing to sketch"):
        low_rank_approx(np.zeros((3, 3)), 1, 0.5, seed=0)


def test_low_rank_approx_rejects_wide_sketch_by_default():
    x = np.diag([3.0, 0.0])
    with pytest.raises(ValueError, match="allow_wide"):
        low_rank_approx(x, 2, 0.5, seed=0)
    res = low_rank_approx(x, 2, 0.5, seed=0, allow_wide=True)
    assert res.detected_rank == 1


def test_low_rank_approx_unbiased():
    x = rank_k_matrix(88, 8, 8, 3)
    n = 500
    acc = np.zeros_like(x)
    acc_sq = np.zeros_like(x)
    for s in range(n):
        y = low_rank_approx(x, 3, 0.6, seed=1000 + s).y
        acc += y
        acc_sq += y * y
    mean = acc / n
    se = np.sqrt((acc_sq / n - mean**2) / n)
    assert np.max(np.abs(mean - x) / se) <= 4.0


def test_low_rank_approx_output_rank_at_most_r():
    x = rank_k_matrix(4, 64, 64, 16)
    res = low_rank_approx(x, 3, 0.8, seed=1)
    assert res.fu.shape == (64, 3)
    s = np.linalg.svd(res.y, compute_uv=False)
    assert s[3] <= 1e-9 * s[0]


def test_low_rank_approx_sparsity_costs_accuracy():
    # stronger sparsification inflates the 1 / p rescale noise
    x = rank_k_matrix(4, 64, 64, 16)
    medians = {}
    for p in (0.25, 1.0):
        errs = [low_rank_approx(x, 16, p, seed=400 + s).error_max for s in range(50)]
        medians[p] = float(np.median(errs))
    assert medians[0.25] >= medians[1.0]


def test_low_rank_approx_result_consistency():
    x = np.diag([3.0, 2.0, 1.0])
    res = low_rank_approx(x, 2, 0.75, seed=5)
    assert math.isclose(res.scale, 1.0 / 0.75, rel_tol=1e-15)
    assert np.array_equal(res.y, res.scale * (res.fu @ res.fv.T))
    assert math.isclose(res.error_max, float(np.max(np.abs(x - res.y))), rel_tol=1e-15)
    assert res.admissible == sketch_admissible(2, res.eps, 0.75, 3, 3, eta=res.eta, c1=res.c1)
    assert not res.truncated


def test_low_rank_approx_propagates_truncation_flag():
    res = low_rank_approx(np.diag([1.0, 1e-15]), 1, 1.0, seed=3)
    assert res.truncated
    assert res.detected_rank == 1
