import math
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from sparse_hw.quadform_mc import wilson_interval
from sparse_hw.rv_models import (
    AlphaParam,
    DistributionSpec,
    SparseModel,
    model_psi_alpha,
    psi_alpha_exact,
    psi_alpha_norm,
    sample_base,
    sample_sparse_matrix,
    sample_weibull,
)
from sparse_hw.streams import stream


def test_alpha_param_range():
    assert AlphaParam(2.0).value == 2.0
    assert AlphaParam(0.25).value == 0.25
    for bad in (0.0, -1.0, 2.5, math.nan):
        with pytest.raises(ValueError):
            AlphaParam(bad)


def test_alpha_conjugate():
    assert AlphaParam(2.0).conjugate == 2.0
    assert math.isclose(AlphaParam(1.5).conjugate, 3.0)
    assert AlphaParam(1.0).conjugate == math.inf
    with pytest.raises(ValueError):
        AlphaParam(0.5).conjugate


def test_distribution_spec_validation():
    with pytest.raises(ValueError):
        DistributionSpec(kind="cauchy")
    with pytest.raises(ValueError):
        DistributionSpec(kind="weibull")  # alpha missing
    with pytest.raises(ValueError):
        DistributionSpec(kind="weibull", alpha=3.0)
    with pytest.raises(ValueError):
        DistributionSpec(kind="gaussian", scale=0.0)
    with pytest.raises(ValueError, match="second moment"):
        DistributionSpec(kind="weibull", alpha=0.01)  # Gamma(201) overflows
    with pytest.raises(ValueError, match="second moment"):
        DistributionSpec(kind="gaussian", scale=1e160)


def test_exact_std_values():
    # E zeta^2 = Gamma(1 + 2/alpha) for the symmetric Weibull
    assert math.isclose(DistributionSpec(kind="weibull", alpha=1.0).std(), math.sqrt(2.0))
    assert math.isclose(DistributionSpec(kind="weibull", alpha=2.0).std(), 1.0)
    assert DistributionSpec(kind="gaussian", scale=1.5).std() == 1.5
    assert DistributionSpec(kind="rademacher").std() == 1.0
    unit = DistributionSpec(kind="weibull", alpha=0.5, unit_variance=True)
    assert unit.variance() == 1.0


def test_sparse_model_validation():
    base = DistributionSpec(kind="rademacher")
    with pytest.raises(ValueError):
        SparseModel(p=(), base=base)
    with pytest.raises(ValueError):
        SparseModel(p=(0.5, 1.2), base=base)
    model = SparseModel(p=(0.5, 1.0), base=base)
    assert model.dim == 2
    assert np.allclose(model.coordinate_variances(), [0.5, 1.0])


def test_weibull_median_alpha_1():
    # survival exp(-x) = 1/2 at x = ln 2; median estimator SE ~ 1e-3 at N=1e6
    x = np.abs(sample_weibull(1.0, 10**6, stream(11, 0)))
    assert math.isclose(float(np.median(x)), math.log(2.0), abs_tol=5e-3)


def test_weibull_median_alpha_2():
    x = np.abs(sample_weibull(2.0, 10**6, stream(12, 0)))
    assert math.isclose(float(np.median(x)), math.sqrt(math.log(2.0)), abs_tol=5e-3)


def test_weibull_variance_alpha_1():
    # E x^2 = Gamma(3) = 2; Var(x^2) = Gamma(5) - 4 = 20, SE ~ 0.0045 at N=1e6
    x = sample_weibull(1.0, 10**6, stream(13, 0))
    assert math.isclose(float(np.mean(x * x)), 2.0, abs_tol=0.02)


def test_weibull_survival_calibration():
    # -log P{|x| > u} = u^alpha exactly; check u in {0.5, 1, 2} and the 0.01 and
    # 0.999 quantiles of |x|^alpha ~ Exp(1), and that half the signs are
    # negative, each at 3 Wilson widths
    n = 10**6
    for alpha, sid in ((1.0, 21), (2.0, 22), (0.5, 23)):
        x = sample_weibull(alpha, n, stream(14, sid))
        tails = [(u, math.exp(-(u**alpha))) for u in (0.5, 1.0, 2.0)]
        tails += [((-math.log1p(-q)) ** (1 / alpha), 1 - q) for q in (0.01, 0.999)]
        checks = [(int(np.sum(np.abs(x) > u)), target) for u, target in tails]
        checks.append((int(np.sum(x < 0)), 0.5))
        for k, target in checks:
            lo, hi = wilson_interval(k, n)
            half = (hi - lo) / 2
            assert abs(k / n - target) <= 3 * half


def test_weibull_signs_are_symmetric():
    x = sample_weibull(1.0, 10**5, stream(15, 0))
    se = float(np.std(x)) / math.sqrt(x.size)
    assert abs(float(np.mean(x))) <= 4 * se


def test_weibull_overflow_is_refused_before_drawing():
    # the largest magnitude is scale * (53 log 2)^(1/alpha), at u = 2^-53
    rng = stream(16, 0)
    top = np.finfo(float).max / (53 * math.log(2.0))
    assert np.all(np.isfinite(sample_weibull(1.0, 1000, stream(16, 1), scale=0.999 * top)))
    with pytest.raises(ValueError, match="overflows"):
        sample_weibull(1.0, 1000, rng, scale=1.001 * top)
    with pytest.raises(ValueError, match="overflows"):
        sample_weibull(0.002, 10, rng)  # 36.7^500
    # nothing was drawn
    assert rng.bit_generator.random_raw() == stream(16, 0).bit_generator.random_raw()


def _raw_words(words):
    """A stand-in generator whose bit generator hands out the given raw words."""
    raw = np.array(words, dtype=np.uint64)
    return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda size: raw.reshape(size)))


def test_weibull_word_map():
    # the top 52 bits m give u = (2m + 1) 2^-53; the lowest bit is the sign
    words = [0, 2**64 - 1, 1, 2**63]
    x = sample_weibull(1.0, 4, _raw_words(words))
    assert x[0] == 53 * math.log(2.0)  # m = 0: u = 2^-53
    assert x[1] == math.log1p(-(2.0**-53))  # m = 2^52 - 1: u = 1 - 2^-53, negative
    assert x[2] == -53 * math.log(2.0)
    assert x[3] == -math.log(0.5 + 2.0**-53)  # m = 2^51
    w2 = sample_weibull(2.0, 4, _raw_words(words), scale=3.0)
    assert np.array_equal(w2, 3.0 * np.sign(x) * np.sqrt(np.abs(x)))
    signs = sample_base(DistributionSpec(kind="rademacher"), 4, _raw_words(words))
    assert signs.tolist() == [1.0, -1.0, -1.0, 1.0]


def test_unit_variance_sampling():
    spec = DistributionSpec(kind="weibull", alpha=1.0, unit_variance=True)
    x = sample_base(spec, 10**6, stream(17, 0))
    # second moment 1, SE of the mean of x^2 is sqrt(Var(x^2)/N) = sqrt(5)/1000
    assert math.isclose(float(np.mean(x * x)), 1.0, abs_tol=4 * math.sqrt(5) / 1000)


def test_sparse_vector_trivial_ps():
    base = DistributionSpec(kind="rademacher")
    zero = sample_sparse_matrix(SparseModel(p=(0.0,) * 4, base=base), 1, stream(18, 0))[0]
    assert np.array_equal(zero, np.zeros(4))
    full = sample_sparse_matrix(SparseModel(p=(1.0,) * 4, base=base), 1, stream(18, 1))[0]
    assert set(np.abs(full)) == {1.0}


def test_sparse_zero_fraction():
    model = SparseModel(p=(0.5,) * 5, base=DistributionSpec(kind="rademacher"))
    x = sample_sparse_matrix(model, 20_000, stream(19, 0))
    k = int(np.sum(x == 0.0))
    lo, hi = wilson_interval(k, x.size)
    assert lo <= 0.5 <= hi


W08 = DistributionSpec(kind="weibull", alpha=0.8)
GAUSS = DistributionSpec(kind="gaussian")
# p = 0 columns 0 and 7, sparse groups at 0.05 and 0.3, and the p = 1 columns
# 3 and 6, one group that is not contiguous
MIXED = SparseModel(p=(0.0, 0.05, 0.3, 1.0, 0.05, 0.3, 1.0, 0.0), base=W08)
# the p = 1 columns 1-3 are contiguous, so they are drawn straight into out
DENSE_RUN = SparseModel(p=(0.3, 1.0, 1.0, 1.0, 0.0, 0.3), base=GAUSS)


def test_sampling_is_deterministic():
    for model in (MIXED, DENSE_RUN):
        a = sample_sparse_matrix(model, 500, stream(20, 3))
        b = sample_sparse_matrix(model, 500, stream(20, 3))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_sparse_matrix(model, 500, stream(20, 4)))


def test_groups_follow_p():
    assert [(p, cols.tolist()) for p, cols in MIXED.groups] == [
        (0.0, [0, 7]), (0.05, [1, 4]), (0.3, [2, 5]), (1.0, [3, 6])
    ]
    assert np.allclose(MIXED.coordinate_variances(), np.array(MIXED.p) * W08.variance())


def test_sparse_columns_keep_their_own_p():
    x = sample_sparse_matrix(MIXED, 40_000, stream(21, 0))
    zeros = np.count_nonzero(x == 0.0, axis=0)
    for p, k in zip(MIXED.p, zeros):
        if p == 0.0:
            assert k == x.shape[0]
        elif p == 1.0:
            assert k == 0
        else:
            lo, hi = wilson_interval(int(k), x.shape[0], z=5.0)
            assert lo <= 1.0 - p <= hi


def test_retained_weibull_moments():
    # |x| of W_s(1) is Exp(1): E|x| = 1 with Var 1, E x^2 = 2 with Var(x^2) = 24 - 4
    model = SparseModel(p=(0.05,) * 50, base=DistributionSpec(kind="weibull", alpha=1.0))
    x = sample_sparse_matrix(model, 20_000, stream(22, 0))
    v = x[x != 0.0]
    assert abs(float(np.mean(np.abs(v))) - 1.0) <= 5 / math.sqrt(v.size)
    assert abs(float(np.mean(v * v)) - 2.0) <= 5 * math.sqrt(20.0 / v.size)


def test_tiny_retention_draws_nothing():
    # gaps of about 1e300 saturate int64; none may wrap round into the block
    model = SparseModel(p=(1e-300,) * 3, base=GAUSS)
    assert not np.any(sample_sparse_matrix(model, 1_000, stream(25, 0)))


SPARSE_W1 = SparseModel(p=(0.05,) * 40, base=DistributionSpec(kind="weibull", alpha=1.0))


@pytest.mark.parametrize(
    "model", [MIXED, SPARSE_W1, DENSE_RUN], ids=["mixed", "single-group-p0.05", "dense-run"]
)
@pytest.mark.parametrize("rows", [1, 7, 100, 3277])
def test_flat_scatter_equals_divmod_scatter(model, rows):
    # out starts dirty, as a reused block buffer does
    out = np.full((rows, model.dim), np.nan)
    for seed in range(4):
        want = oracles.sparse_matrix_divmod(model, rows, stream(seed, 2)).view(np.uint64)
        got = sample_sparse_matrix(model, rows, stream(seed, 2))
        assert np.array_equal(got.view(np.uint64), want)
        sample_sparse_matrix(model, rows, stream(seed, 2), out=out)
        assert np.array_equal(out.view(np.uint64), want)


def test_non_contiguous_out_is_refused():
    # reshape(-1) of such an out is a copy, so the scatter would be lost
    for out in (np.zeros((40, 50)).T, np.zeros((50, 80))[:, ::2]):
        with pytest.raises(ValueError, match="out must be C-contiguous"):
            sample_sparse_matrix(SPARSE_W1, 50, stream(3, 0), out=out)


def test_psi_alpha_exact_values():
    assert math.isclose(psi_alpha_exact(DistributionSpec(kind="weibull", alpha=1.0), 1.0), 2.0)
    assert math.isclose(
        psi_alpha_exact(DistributionSpec(kind="weibull", alpha=2.0), 2.0), math.sqrt(2.0)
    )
    assert math.isclose(
        psi_alpha_exact(DistributionSpec(kind="rademacher"), 2.0), math.log(2.0) ** -0.5
    )
    assert math.isclose(
        psi_alpha_exact(DistributionSpec(kind="gaussian", scale=2.0), 2.0),
        2.0 * math.sqrt(8.0 / 3.0),
    )
    # no closed form at mismatched exponents
    assert psi_alpha_exact(DistributionSpec(kind="weibull", alpha=1.0), 0.5) is None
    assert psi_alpha_exact(DistributionSpec(kind="gaussian"), 1.0) is None


def test_psi_alpha_exact_unit_variance_rescaling():
    spec = DistributionSpec(kind="weibull", alpha=1.0, unit_variance=True)
    # dividing samples by std sqrt(2) divides the norm by the same factor
    assert math.isclose(psi_alpha_exact(spec, 1.0), 2.0 / math.sqrt(2.0))


def test_psi_alpha_norm_matches_closed_form():
    # the quadrature plus its margin bounds the exact norm from above
    cases = [
        *(
            (DistributionSpec(kind="weibull", alpha=b, scale=1.7, unit_variance=uv), b)
            for b in (0.2, 0.5, 0.7, 1.0, 1.5, 2.0)
            for uv in (False, True)
        ),
        (DistributionSpec(kind="gaussian", scale=2.5), 2.0),
        (DistributionSpec(kind="gaussian", unit_variance=True), 2.0),
        (DistributionSpec(kind="rademacher"), 1.0),
        (DistributionSpec(kind="rademacher"), 0.3),
    ]
    for spec, alpha in cases:
        exact = psi_alpha_exact(spec, alpha)
        assert exact <= psi_alpha_norm(spec, alpha) <= exact * (1 + 1e-9), (spec, alpha)


@pytest.mark.parametrize(
    "kind, beta, alpha",
    [
        *(
            ("weibull", beta, beta * share)
            for beta in (0.2, 0.5, 0.7, 1.0, 1.5, 2.0)
            for share in (0.1, 0.5, 0.9, 1.0)
        ),
        *(("gaussian", None, alpha) for alpha in (0.1, 0.5, 1.0, 1.5, 2.0)),
    ],
)
def test_psi_alpha_norm_matches_legendre_oracle(kind, beta, alpha):
    spec = DistributionSpec(kind=kind, alpha=beta)
    expected = oracles.psi_alpha_legendre(kind, beta, alpha)
    assert psi_alpha_norm(spec, alpha) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("beta, alpha", [(0.5, 1.0), (1.0, 2.0), (1.9, 2.0)])
def test_psi_alpha_norm_rejects_a_weibull_base_lighter_than_alpha(beta, alpha):
    # E exp(|x|^alpha / t^alpha) diverges for every t when beta < alpha
    spec = DistributionSpec(kind="weibull", alpha=beta)
    message = f"weibull base with alpha={beta:g} has an infinite psi_alpha norm at alpha={alpha:g}"
    with pytest.raises(ValueError, match=message):
        psi_alpha_norm(spec, alpha)
    with pytest.raises(ValueError, match=message):
        model_psi_alpha(SparseModel(p=(1.0,), base=spec), alpha)


def test_psi_alpha_norm_is_finite_for_gaussian_and_weibull_below_its_alpha():
    gaussian = DistributionSpec(kind="gaussian")
    weibull = DistributionSpec(kind="weibull", alpha=1.5)
    assert math.isfinite(psi_alpha_norm(gaussian, 0.5))
    assert math.isfinite(psi_alpha_norm(weibull, 1.0))


def test_psi_alpha_norm_beyond_float_range_is_a_value_error():
    # about 0.69^(-1/alpha): finite at alpha = 1e-3, past 1e308 at 1e-4
    gaussian = DistributionSpec(kind="gaussian")
    assert 1e150 < psi_alpha_norm(gaussian, 1e-3) < 1e170
    with pytest.raises(ValueError, match="gaussian base has a psi_alpha norm at alpha=0.0001"):
        psi_alpha_norm(gaussian, 1e-4)
