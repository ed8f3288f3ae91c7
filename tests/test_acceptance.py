"""Acceptance suite: twelve end-to-end checks at desk scale.

Each test prints a single PASS/FAIL line (bypassing capture) with the
measured statistic, then asserts.  Every check is standalone and seeded,
so a failure reproduces exactly.
"""

import math
import time

import numpy as np

from oracles import (
    anticoncentration,
    exact_bilinear_moment,
    exact_quadform_moment,
    expected_frob_sq_mc,
    opnorm_grid,
    rip_k_lower_random,
)
from sparse_hw import bounds as bd
from sparse_hw import covest as cv
from sparse_hw import matrix_norms as mn
from sparse_hw import quadform_mc as qf
from sparse_hw import sketchlr as sk
from sparse_hw.rv_models import (
    DistributionSpec,
    SparseModel,
    psi_alpha_norm,
    sample_sparse_matrix,
)
from sparse_hw.streams import chunk_sizes, stream

EXCHANGE = np.array([[0.0, 1.0], [1.0, 0.0]])


def verdict(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d} {name}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def random_symmetric(seed: int, n: int, diagonal_free: bool = False) -> np.ndarray:
    g = stream(seed, 0).standard_normal((n, n))
    a = 0.5 * (g + g.T)
    if diagonal_free:
        np.fill_diagonal(a, 0.0)
    return a


def test_acceptance_01_psi_alpha_calibration(capsys):
    started = time.perf_counter()
    spec = DistributionSpec(kind="weibull", alpha=1.0)
    est = psi_alpha_norm(spec, 1.0)
    elapsed = time.perf_counter() - started
    rel = abs(est - 2.0) / 2.0
    ok = rel <= 0.05 and elapsed < 10.0
    verdict(capsys, 1, "psi_alpha calibration", ok, f"est={est:.4f} rel_dev={rel:.2%} in {elapsed:.1f}s")


def test_acceptance_02_norm_chain_suite(capsys):
    started = time.perf_counter()
    worst = -math.inf
    for i in range(200):
        rng = stream(1000 + i, 0)
        n = int(rng.integers(2, 9))
        g = rng.standard_normal((n, n))
        a = 0.5 * (g + g.T)
        p = rng.uniform(0.0, 1.0, n)
        s22 = mn.opnorm(a, 2, 2)
        s2inf = mn.opnorm(a, 2, math.inf)
        worst = max(
            worst,
            mn.row_weighted_max(a, p) - s2inf,
            s2inf - s22,
            mn.weighted_spectral(a, p) - s22,
            mn.max_abs(a) - s22,
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    verdict(capsys, 2, "norm chains on 200 matrices", ok, f"worst_gap={worst:.2e} in {elapsed:.1f}s")


def test_acceptance_03_opnorm_grid_oracle(capsys):
    started = time.perf_counter()
    worst = 0.0
    for i in range(20):
        a = stream(600 + i, 0).standard_normal((3, 3))
        value = mn.opnorm(a, 1.5, 3.0, restarts=64)
        ref = opnorm_grid(a, 1.5, 3.0, n_random=10**5, seed=i)
        worst = max(worst, abs(value - ref) / ref)
    elapsed = time.perf_counter() - started
    ok = worst <= 0.01 and elapsed < 60.0
    verdict(capsys, 3, "opnorm vs grid oracle", ok, f"worst_rel={worst:.2e} in {elapsed:.1f}s")


def test_acceptance_04_decoupling_ratio(capsys):
    started = time.perf_counter()
    worst = 0.0
    for i in range(50):
        rng = stream(2000 + i, 0)
        n = int(rng.integers(2, 5))
        g = rng.standard_normal((n, n))
        a = 0.5 * (g + g.T)
        np.fill_diagonal(a, 0.0)
        for r in (2.0, 4.0, 6.0):
            ratio = exact_quadform_moment(a, 1.0, r) / exact_bilinear_moment(a, 1.0, r)
            worst = max(worst, ratio)
    elapsed = time.perf_counter() - started
    ok = worst <= 8.0 and elapsed < 10.0
    verdict(capsys, 4, "decoupling moment ratios", ok, f"worst_ratio={worst:.3f} in {elapsed:.1f}s")


def test_acceptance_05_quadform_tail_shape(capsys):
    started = time.perf_counter()
    # far tail of the 2x2 exchange form: exponent alpha/2 = 0.5
    model = SparseModel(p=(1.0, 1.0), base=DistributionSpec(kind="weibull", alpha=1.0))
    inst = qf.QuadFormInstance(EXCHANGE, model)
    tail = qf.simulate_tail(inst, np.geomspace(2.0, 120.0, 28), 10**7, 42)
    fit = qf.tail_slope_fit(tail)
    slope_ok = abs(fit.slope - 0.5) <= 0.1

    # moderate tail of a dense 30x30 instance dominates the calibrated
    # refined exponent
    a = random_symmetric(777, 30, diagonal_free=True)
    model30 = SparseModel(p=(0.5,) * 30, base=DistributionSpec(kind="weibull", alpha=1.0))
    grid = np.geomspace(20.0, 400.0, 24)
    tail30 = qf.simulate_tail(qf.QuadFormInstance(a, model30), grid, 2 * 10**6, 43)
    L = 2.0
    shape = bd.TailBound(bd.f_sparse_regimes(bd.functionals(a, np.full(30, 0.5), 1.0)))
    dom = qf.dominance_check(tail30, shape.exponent(grid / L**2), rel_slack=0.05)
    elapsed = time.perf_counter() - started
    ok = slope_ok and dom.ok and elapsed < 300.0
    verdict(
        capsys,
        5,
        "quadform tail shapes",
        ok,
        f"slope={fit.slope:.3f} dominance_margin={dom.min_margin:.3f} in {elapsed:.1f}s",
    )


def test_acceptance_06_anticoncentration_lower_bound(capsys):
    started = time.perf_counter()
    all_ok = True
    worst_prob = 1.0
    for i in range(10):
        a = random_symmetric(100 + i, 3 + (i % 3), diagonal_free=True)
        alpha = 0.5 if i % 2 else 1.0
        prob, floor = anticoncentration(a, alpha, n_samples=200_000, seed=50 + i)
        all_ok = all_ok and prob >= floor
        worst_prob = min(worst_prob, prob)
    elapsed = time.perf_counter() - started
    ok = all_ok and elapsed < 120.0
    verdict(capsys, 6, "anti-concentration floor", ok, f"min_prob={worst_prob:.4f} in {elapsed:.1f}s")


def test_acceptance_07_ipw_unbiasedness(capsys):
    started = time.perf_counter()
    b = stream(7, 0).standard_normal((4, 3))
    p = tuple(stream(7, 1).uniform(0.3, 1.0, 4))
    model = cv.MultivariateModel(b=b, alpha=1.0, p=p)
    mean, se = cv.ipw_replicate_stats(model, 50, 10**5, 11)
    max_z = float((np.abs(mean - model.sigma()) / se).max())
    elapsed = time.perf_counter() - started
    ok = max_z <= 4.0 and elapsed < 120.0
    verdict(capsys, 7, "IPW estimator unbiased", ok, f"max_z={max_z:.2f} in {elapsed:.1f}s")


def test_acceptance_08_rip_enumeration_exact(capsys):
    started = time.perf_counter()
    lower_ok = True
    worst_rel = 0.0
    for i in range(20):
        m = random_symmetric(3000 + i, 6)
        for k in (1, 2, 3):
            lo = rip_k_lower_random(m, k, n_draws=10**4, seed=i)
            lower_ok = lower_ok and cv.rip_k(m, k) >= lo - 1e-12
        spectral = mn.opnorm(m, 2, 2)
        worst_rel = max(worst_rel, abs(cv.rip_k(m, 6) - spectral) / spectral)
    elapsed = time.perf_counter() - started
    ok = lower_ok and worst_rel <= 1e-10 and elapsed < 30.0
    verdict(capsys, 8, "sparse deviation enumeration", ok, f"k6_rel={worst_rel:.1e} in {elapsed:.1f}s")


def test_acceptance_09_masked_second_moment_oracle(capsys):
    started = time.perf_counter()
    worst = 0.0
    for i in range(10):
        rng = stream(4000 + i, 0)
        b = rng.standard_normal((3, 2))
        theta = rng.standard_normal(3)
        p = rng.uniform(0.3, 1.0, 3)
        exact = cv.expected_frob_sq_exact(b, theta, p)
        mc, se = expected_frob_sq_mc(b, theta, p, n_samples=10**5, seed=i)
        worst = max(worst, abs(exact - mc) / (1.96 * se))
    elapsed = time.perf_counter() - started
    ok = worst <= 3.0 and elapsed < 120.0
    verdict(capsys, 9, "masked moment exact vs MC", ok, f"worst={worst:.2f} halfwidths in {elapsed:.1f}s")


def test_acceptance_10_sketch_algorithm(capsys):
    started = time.perf_counter()
    # (a) unbiasedness on an 8x8 rank-3 instance
    rng = stream(88, 0)
    x = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 8))
    n = 1000
    acc = np.zeros_like(x)
    acc_sq = np.zeros_like(x)
    for s in range(n):
        fu, fv, _ = sk.low_rank_approx(x, 3, 0.6, seed=1000 + s)
        y = fu @ fv.T / 0.6
        acc += y
        acc_sq += y * y
    mean = acc / n
    se = np.sqrt((acc_sq / n - mean**2) / n)
    max_z = float(np.max(np.abs(mean - x) / se))

    # (b)+(c): output rank capped at r, median error decays like r^(-1/2)
    rng = stream(4, 1003)
    x64 = rng.standard_normal((64, 16)) @ rng.standard_normal((16, 64))
    r_values = [4, 8, 16, 32, 64]
    medians = []
    rank_ok = True
    for r in r_values:
        errs = []
        for s in range(50):
            fu, fv, error_max = sk.low_rank_approx(x64, r, 0.5, seed=21 + s, allow_wide=True)
            errs.append(error_max)
            rank_ok = rank_ok and fu.shape[1] == r
        sv = np.linalg.svd(fu @ fv.T / 0.5, compute_uv=False)
        cap = min(r, 16)
        if cap < sv.size:
            rank_ok = rank_ok and sv[cap] <= 1e-9 * sv[0]
        medians.append(float(np.median(errs)))
    slope = float(np.polyfit(np.log(r_values), np.log(medians), 1)[0])
    elapsed = time.perf_counter() - started
    ok = max_z <= 4.0 and rank_ok and -0.7 <= slope <= -0.3 and elapsed < 300.0
    verdict(
        capsys,
        10,
        "sketch unbiased, rank-capped, decaying",
        ok,
        f"max_z={max_z:.2f} slope={slope:.3f} in {elapsed:.1f}s",
    )


def test_acceptance_11_norm_concentration(capsys):
    started = time.perf_counter()
    a = stream(4242, 0).standard_normal((20, 30))
    fro = float(np.linalg.norm(a, "fro"))

    def norm(out, y, x):
        # ||A xi||_2 of each row of x, with the arithmetic of np.linalg.norm(x @ a.T, axis=1)
        np.matmul(x, a.T, out=y)
        y *= y
        y.sum(axis=1, out=out)
        np.sqrt(out, out=out)

    details = []
    ok = True
    for p in (0.25, 1.0):
        model = SparseModel(
            p=(p,) * 30, base=DistributionSpec(kind="weibull", alpha=1.0, unit_variance=True)
        )
        total = 0.0
        for c, sz in enumerate(chunk_sizes(10**6, 1 << 16)):
            xs = sample_sparse_matrix(model, sz, stream(9000, c))
            total += float(np.linalg.norm(xs @ a.T, axis=1).sum())
        ratio = (total / 10**6) / (math.sqrt(p) * fro)
        # mean must sit in the documented bracket [0.9, 1.02] around
        # sqrt(p) ||A||_F, with 2% measurement tolerance on each end
        mean_ok = 0.9 * 0.98 <= ratio <= 1.02 * 1.02
        grid = np.geomspace(2.0, 60.0, 22)
        # the survival of | ||A xi||_2 - sqrt(p) ||A||_F | from the shared engine
        tail = qf._simulate(qf._Blockwise(model, norm, 20), math.sqrt(p) * fro, grid, 10**6, 31, 1)
        dom = qf.dominance_check(tail, grid, rel_slack=0.05)
        ok = ok and mean_ok and dom.ok
        details.append(f"p={p}: ratio={ratio:.4f} margin={dom.min_margin:.3f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 180.0
    verdict(capsys, 11, "norm concentration", ok, "; ".join(details) + f" in {elapsed:.1f}s")


def test_acceptance_12_thread_determinism(capsys):
    started = time.perf_counter()
    model = SparseModel(p=(1.0, 1.0), base=DistributionSpec(kind="weibull", alpha=1.0))
    inst = qf.QuadFormInstance(EXCHANGE, model)
    grid = np.geomspace(2.0, 40.0, 10)
    tails = [qf.simulate_tail(inst, grid, 500_000, 7, threads=th) for th in (1, 5)]
    same = np.array_equal(tails[0].survival, tails[1].survival) and np.array_equal(
        tails[0].ci_low, tails[1].ci_low
    )
    elapsed = time.perf_counter() - started
    verdict(capsys, 12, "thread-count determinism", same, f"survival identical in {elapsed:.1f}s")
