import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bound_table_workload_matrix,
    dual_rows_two_pass,
    jacobi_eigen_spectral,
    opnorm_block_reference,
    opnorm_grid,
    opnorm_loop,
    save_matrix_bin,
    save_matrix_csv,
)
from sparse_hw.matrix_norms import (
    _dual_rows,
    conjugate,
    frobenius,
    gamma1,
    gamma2,
    load_matrix_bin,
    load_matrix_csv,
    lp_norm,
    max_abs,
    mixed_norm,
    opnorm,
    opnorm_detail,
    row_weighted_max,
    weighted_spectral,
)
from sparse_hw.streams import stream

EXCHANGE = np.array([[0.0, 1.0], [1.0, 0.0]])
SYM22 = np.array([[1.0, 2.0], [2.0, 1.0]])


def random_sym(seed: int, n: int) -> np.ndarray:
    m = stream(seed, 0).standard_normal((n, n))
    return 0.5 * (m + m.T)


def test_frobenius_and_max_abs_basics():
    assert math.isclose(frobenius(np.eye(2)), math.sqrt(2.0))
    assert max_abs(np.eye(2)) == 1.0
    assert frobenius(np.zeros((3, 2))) == 0.0
    assert max_abs(np.zeros((3, 2))) == 0.0
    assert math.isclose(frobenius(SYM22), math.sqrt(10.0))
    assert max_abs(SYM22) == 2.0


def test_matrix_validation():
    with pytest.raises(ValueError):
        frobenius([1.0, 2.0])  # 1-D
    with pytest.raises(ValueError):
        max_abs([[math.inf, 0.0], [0.0, 1.0]])


def test_lp_norm_cases():
    v = [3.0, -4.0]
    assert lp_norm(v, 1) == 7.0
    assert lp_norm(v, 2) == 5.0
    assert lp_norm(v, math.inf) == 4.0
    assert lp_norm([], 2) == 0.0
    with pytest.raises(ValueError):
        lp_norm(v, 0.5)


def test_lp_norm_avoids_overflow():
    # naive sum of |x|^7 would overflow at 1e200 entries
    v = [1e200, 1e200]
    assert math.isclose(lp_norm(v, 7), 1e200 * 2 ** (1 / 7))


def test_mixed_norm_values():
    assert math.isclose(mixed_norm(np.eye(2), 4), 2 ** 0.25)
    m = np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 0.0]])
    for r in (1, 2, 3.5, math.inf):
        assert math.isclose(mixed_norm(m, r), 3.0)


@given(st.integers(0, 500))
@settings(deadline=None, max_examples=25)
def test_mixed_norm_r2_equals_frobenius(seed):
    m = stream(seed, 0).standard_normal((3, 4))
    assert math.isclose(mixed_norm(m, 2), frobenius(m), rel_tol=1e-12)


def test_opnorm_closed_forms():
    assert math.isclose(opnorm(np.diag([3.0, -4.0]), 2, 2), 4.0, rel_tol=1e-12)
    assert math.isclose(opnorm(SYM22, 2, math.inf), math.sqrt(5.0))
    assert math.isclose(opnorm(SYM22, 1, math.inf), 2.0)  # max_abs
    m = np.array([[1.0, 2.0], [2.0, 1.0], [0.0, 2.0]])
    assert math.isclose(opnorm(m, 1, 2), 3.0)  # max column l2 norm
    with pytest.raises(ValueError):
        opnorm(SYM22, 0.9, 2)


def test_opnorm_inf_to_inf_is_the_largest_row_l1_norm():
    # r2 = inf takes the row l_{r1*} norm, and r1 = inf has r1* = 1
    assert opnorm(np.array([[1.0, -2.0], [3.0, 4.0]]), math.inf, math.inf) == 7.0


def test_opnorm_spectral_vs_jacobi_oracle():
    for seed, n in ((30, 4), (31, 9), (32, 16)):
        m = random_sym(seed, n)
        ours = opnorm(m, 2, 2)
        ref = jacobi_eigen_spectral(m)
        assert math.isclose(ours, ref, rel_tol=1e-8)


def test_opnorm_rectangular_spectral_vs_svd():
    m = stream(33, 0).standard_normal((5, 3))
    assert math.isclose(opnorm(m, 2, 2), float(np.linalg.svd(m, compute_uv=False)[0]), rel_tol=1e-10)


def test_opnorm_alternating_vs_grid_oracle():
    # nonconvex pairs: both sides are lower bounds of the true sup, so they
    # must agree to the grid resolution
    for seed, pair in ((40, (1.5, 3.0)), (41, (1.5, 3.0)), (42, (3.0, 4.0))):
        m = stream(seed, 0).standard_normal((3, 3))
        ours = opnorm(m, *pair, restarts=64, seed=seed)
        ref = opnorm_grid(m, *pair, n_random=100_000, seed=seed)
        assert abs(ours - ref) <= 0.01 * ref


def test_opnorm_detail_reports_convergence():
    res = opnorm_detail(stream(43, 0).standard_normal((3, 3)), 1.5, 3.0)
    assert res.restarts == 64
    assert res.converged
    assert res.value > 0


def test_opnorm_zero_matrix():
    assert opnorm(np.zeros((2, 2)), 1.5, 3.0) == 0.0


def assert_matches_restart_loop(m, r1, r2, restarts, seed):
    ours = opnorm_detail(m, r1, r2, restarts=restarts, seed=seed)
    ref = opnorm_loop(m, r1, r2, restarts=restarts, seed=seed)
    assert math.isclose(ours.value, ref.value, rel_tol=1e-12), (ours, ref)
    assert (ours.converged, ours.restarts) == (ref.converged, ref.restarts)


def _zero_row_and_column() -> np.ndarray:
    m = stream(83, 0).standard_normal((4, 5))
    m[1, :] = 0.0
    m[:, 3] = 0.0
    return m


BLOCK_CASES = {
    "square": stream(80, 0).standard_normal((5, 5)),
    "wide": stream(81, 0).standard_normal((3, 6)),
    "tall": stream(82, 0).standard_normal((7, 2)),
    "zero-row-and-column": _zero_row_and_column(),
    "rank-one": np.outer(stream(84, 0).standard_normal(4), stream(85, 0).standard_normal(6)),
    # columns sum to exactly 0, so the all-ones start meets a zero A^T y
    "ones-in-left-null-space": np.array(
        [[1.0, 2.0, -1.0], [-1.0, -2.0, 1.0], [3.0, 0.0, 2.0], [-3.0, 0.0, -2.0]]
    ),
}


BLOCK_PAIRS = ((2.0, 3.0), (1.5, 3.0), (3.0, 1.5), (math.inf, 3.0), (1.5, 1.0))


@pytest.mark.parametrize("restarts", (1, 2, 64))
@pytest.mark.parametrize("pair", BLOCK_PAIRS, ids=lambda pair: "%g-%g" % pair)
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_opnorm_block_matches_restart_loop(case, pair, restarts):
    assert_matches_restart_loop(BLOCK_CASES[case], *pair, restarts, seed=86)


def test_opnorm_block_keeps_per_restart_convergence():
    # of 8 restarts, restart 4 runs out of iterations below the best value
    # and restart 6 converges at the last iteration with the best value, so
    # every row needs its own stopping mask and the flag follows restart 6
    m = stream(322, 0).standard_normal((4, 4))
    assert opnorm_loop(m, 3.0, 1.5, restarts=1, seed=322).converged
    assert opnorm_loop(m, 3.0, 1.5, restarts=8, seed=322).converged
    for restarts in (1, 8, 64):
        assert_matches_restart_loop(m, 3.0, 1.5, restarts, seed=322)


def test_opnorm_flag_is_that_of_the_best_restart():
    # here the restart giving the value is still moving at the cap
    m = stream(345, 0).standard_normal((6, 6))
    assert not opnorm_loop(m, 2.0, 2.1, restarts=4, seed=345).converged
    assert_matches_restart_loop(m, 2.0, 2.1, 4, seed=345)


def _run_to_cap_cases() -> dict:
    """40 random matrices with random exponent pairs, and the bound-table
    benchmark matrix at three seeds with both of its alternating norms."""
    rng = stream(91, 0)
    cases = {}
    for i in range(40):
        rows, cols = (int(v) for v in rng.integers(2, 31, size=2))
        r1 = float(rng.choice([1.2, 1.5, 2.0, 3.0, 4.0, math.inf]))
        r2 = float(rng.choice([1.0, 1.2, 1.5, 2.0, 3.0, 4.0]))
        if (r1, r2) == (2.0, 2.0):
            r2 = 3.0
        cases[f"random{i}-{rows}x{cols}-{r1:g}-{r2:g}"] = (rng.standard_normal((rows, cols)), r1, r2, 16)
    for seed in (7, 101, 1003):
        for r1 in (2.0, 1.5):
            cases[f"bound-table-seed{seed}-{r1:g}-3"] = (bound_table_workload_matrix(seed), r1, 3.0, 64)
    return cases


RUN_TO_CAP_CASES = _run_to_cap_cases()


@pytest.mark.parametrize("case", sorted(RUN_TO_CAP_CASES))
def test_opnorm_matches_run_to_cap_loop(case):
    # dropping restarts that cannot catch up leaves the value of running
    # every restart to its own convergence or the cap
    m, r1, r2, restarts = RUN_TO_CAP_CASES[case]
    assert_matches_restart_loop(m, r1, r2, restarts, seed=92)


def _drop_rule_cases() -> dict:
    """A 20x20 matrix whose restart run to the cap beats every restart the
    drop rule keeps, and random shapes and exponent pairs."""
    cases = {"seed228-20x20-4-1.5": (stream(228, 0).standard_normal((20, 20)), 4.0, 1.5)}
    rng = stream(94, 0)
    for i in range(12):
        rows, cols = (int(v) for v in rng.integers(2, 25, size=2))
        r1 = float(rng.choice([1.2, 1.5, 3.0, 3.5, 4.0]))
        r2 = float(rng.choice([1.2, 1.5, 2.0, 3.0]))
        cases[f"random{i}-{rows}x{cols}-{r1:g}-{r2:g}"] = (rng.standard_normal((rows, cols)), r1, r2)
    return cases


DROP_RULE_CASES = _drop_rule_cases()


@pytest.mark.parametrize("case", sorted(DROP_RULE_CASES))
def test_opnorm_never_exceeds_run_to_cap_loop(case):
    # the drop rule only loses restarts, so the value is at most that of
    # running every restart to its own convergence or the cap; on the
    # seed-228 case it stops about 6.3e-4 below it
    m, r1, r2 = DROP_RULE_CASES[case]
    assert opnorm_detail(m, r1, r2).value <= opnorm_loop(m, r1, r2).value * (1 + 1e-12)


def test_opnorm_workload_value_converged():
    # 28 of the 64 restarts of ||A||_{1.5->3} stall about 4% below the best
    # value for all 200 iterations; the restart giving the value converged
    res = opnorm_detail(bound_table_workload_matrix(7), 1.5, 3.0)
    assert res.converged
    assert math.isclose(res.value, 4.448872813848508, rel_tol=1e-12)


@pytest.mark.parametrize("r", (1.2, 1.5, 2.0, 3.0, 4.0, math.inf))
def test_dual_rows_matches_two_pass(r):
    rng = stream(93, 0)
    for trial in range(20):
        z = rng.standard_normal((int(rng.integers(1, 40)), int(rng.integers(1, 40))))
        z *= 10.0 ** float(rng.integers(-6, 7))
        z[rng.random(z.shape[0]) < 0.25] = 0.0  # zero rows
        z[rng.random(z.shape) < 0.1] = 0.0
        ref_x, ref_val = dual_rows_two_pass(z, r)
        x, val = _dual_rows(z, r)
        assert np.array_equal(x, ref_x) and np.array_equal(val, ref_val), (r, trial)
        x, val = _dual_rows(z, r, values=False)
        assert np.array_equal(x, ref_x) and val is None, (r, trial)


@pytest.mark.parametrize("r", (1.5, 2.0, 3.0, math.inf))
def test_dual_rows_zero_rows_found_without_values(r):
    # at 1e-170 every square underflows, so at r = 2 the sum of squares, and
    # with it the value, is 0 for rows whose max is not: they too get e_1
    z = stream(95, 0).standard_normal((6, 5))
    z[1] = 0.0
    z[2] = -0.0
    z[4] *= 1e-170
    ref_x, ref_val = dual_rows_two_pass(z, r)
    assert ref_val[1] == ref_val[2] == 0.0 and (ref_val[4] == 0.0) == (r == 2.0)
    for values in (True, False):
        x, val = _dual_rows(z, r, values=values)
        assert np.array_equal(x, ref_x)
        assert np.array_equal(val, ref_val) if values else val is None


# (3, 2) adds the y-step at r2* = 2
BLOCK_REFERENCE_PAIRS = BLOCK_PAIRS + ((3.0, 2.0),)


def _block_reference_cases() -> dict:
    """The run-to-cap cases (the bound-table matrix at three seeds among
    them), the drop-rule and block cases with their exponent pairs, and
    all-zero inputs."""
    cases = {f"run-to-cap-{k}": v for k, v in RUN_TO_CAP_CASES.items()}
    cases.update((f"drop-rule-{k}", (*v, 64)) for k, v in DROP_RULE_CASES.items())
    for name, m in BLOCK_CASES.items():
        for r1, r2 in BLOCK_REFERENCE_PAIRS:
            cases[f"block-{name}-{r1:g}-{r2:g}"] = (m, r1, r2, 64)
    for shape in ((3, 4), (1, 1)):
        for r1, r2 in BLOCK_REFERENCE_PAIRS:
            cases[f"zeros-{shape[0]}x{shape[1]}-{r1:g}-{r2:g}"] = (np.zeros(shape), r1, r2, 64)
    return cases


BLOCK_REFERENCE_CASES = _block_reference_cases()


@pytest.mark.parametrize("case", sorted(BLOCK_REFERENCE_CASES))
def test_opnorm_matches_block_reference_exactly(case):
    # each step doing only the work its result needs leaves every bit of
    # the value and the flag of the loop that computed everything
    m, r1, r2, restarts = BLOCK_REFERENCE_CASES[case]
    for n in sorted({1, 2, 64, restarts}):
        for seed in (0, 92):
            ours = opnorm_detail(m, r1, r2, restarts=n, seed=seed)
            assert ours == opnorm_block_reference(m, r1, r2, restarts=n, seed=seed), (n, seed)


def test_opnorm_block_avoids_overflow():
    # |entries|^3 overflows without the per-row max scaling of the l_3 norm
    m = stream(87, 0).standard_normal((4, 4))
    big = opnorm_detail(m * 2.0**900, 1.5, 3.0)
    assert math.isclose(big.value, opnorm(m, 1.5, 3.0) * 2.0**900, rel_tol=1e-12)


def test_opnorm_rejects_no_restarts():
    with pytest.raises(ValueError, match="restarts"):
        opnorm_detail(SYM22, 1.5, 3.0, restarts=0)


def test_gamma1_values():
    p = (0.5, 0.25)
    assert math.isclose(gamma1(SYM22, p), 1.75)
    m = random_sym(50, 4)
    assert math.isclose(gamma1(m, np.ones(4)), frobenius(m) ** 2, rel_tol=1e-12)
    assert gamma1(m, np.zeros(4)) == 0.0
    with pytest.raises(ValueError):
        gamma1(np.ones((2, 3)), (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        gamma1(SYM22, (0.5, 1.5))


def test_gamma2_values():
    assert math.isclose(gamma2(SYM22, (0.5, 0.25)), 1.0)
    assert gamma2(np.diag([1.0, -5.0, 2.0]), (0.1, 0.1, 0.1)) == 5.0
    m = random_sym(51, 4)
    ab = np.abs(m)
    off = ab - np.diag(np.diag(ab))
    expected = max(float(np.max(off.sum(axis=1))), float(np.max(np.abs(np.diag(m)))))
    assert math.isclose(gamma2(m, np.ones(4)), expected, rel_tol=1e-12)


def test_weighted_functionals():
    assert math.isclose(weighted_spectral(np.eye(3), (1.0, 0.25, 1 / 9)), 1.0, rel_tol=1e-9)
    assert math.isclose(row_weighted_max(np.eye(3), (1.0, 0.25, 1 / 9)), 1.0)
    m = random_sym(52, 5)
    assert math.isclose(weighted_spectral(m, np.ones(5)), opnorm(m, 2, 2), rel_tol=1e-9)
    assert weighted_spectral(m, np.zeros(5)) == 0.0
    assert row_weighted_max(m, np.zeros(5)) == 0.0


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=40)
def test_norm_chain_inequalities(seed):
    rng = stream(seed, 0)
    n = int(rng.integers(2, 9))
    m = rng.standard_normal((n, n))
    m = 0.5 * (m + m.T)
    p = rng.random(n)
    tol = 1e-9
    op2inf = opnorm(m, 2, math.inf)
    op22 = opnorm(m, 2, 2)
    assert row_weighted_max(m, p) <= op2inf + tol
    assert op2inf <= op22 + tol
    assert weighted_spectral(m, p) <= op22 + tol
    assert max_abs(m) <= op22 + tol


def test_conjugate_exponent_rule():
    # the one Hoelder conjugate rule; the norms command reads it too
    assert conjugate(2.0) == 2.0
    assert conjugate(1.5) == 3.0
    assert conjugate(1.0) == math.inf
    assert conjugate(math.inf) == 1.0


def test_conjugate_exponent_chain():
    # ||A||_{a -> a*} <= ||A||_{2 -> a*} <= ||A||_{2 -> 2} for a in [1, 2];
    # both nonconvex values are certified lower bounds, hence the slack
    for seed in (60, 61, 62):
        m = stream(seed, 0).standard_normal((3, 3))
        for a in (1.25, 1.5, 2.0):
            astar = a / (a - 1.0) if a > 1.0 else math.inf
            lo = opnorm(m, a, astar, seed=seed)
            mid = opnorm(m, 2, astar, seed=seed)
            hi = opnorm(m, 2, 2)
            assert lo <= mid * (1 + 1e-6)
            assert mid <= hi * (1 + 1e-6)


def test_gram_frobenius_submultiplicative():
    for seed in (70, 71, 72):
        m = stream(seed, 0).standard_normal((4, 4))
        assert frobenius(m.T @ m) <= opnorm(m, 2, 2) * frobenius(m) * (1 + 1e-12)


def test_csv_round_trip(tmp_path):
    m = stream(90, 0).standard_normal((3, 5))
    path = tmp_path / "m.csv"
    save_matrix_csv(path, m)
    back = load_matrix_csv(path)
    assert back.shape == (3, 5)
    assert np.allclose(back, m, atol=0, rtol=1e-15)


def test_csv_single_row_keeps_2d(tmp_path):
    path = tmp_path / "row.csv"
    save_matrix_csv(path, np.array([[1.0, 2.0, 3.0]]))
    assert load_matrix_csv(path).shape == (1, 3)


def test_bin_round_trip_exact(tmp_path):
    m = stream(91, 0).standard_normal((4, 2))
    path = tmp_path / "m.bin"
    save_matrix_bin(path, m)
    assert np.array_equal(load_matrix_bin(path), m)


def test_bin_truncation_errors(tmp_path):
    m = np.ones((2, 2))
    path = tmp_path / "m.bin"
    save_matrix_bin(path, m)
    raw = path.read_bytes()
    short_header = tmp_path / "h.bin"
    short_header.write_bytes(raw[:8])
    with pytest.raises(ValueError, match="header"):
        load_matrix_bin(short_header)
    short_payload = tmp_path / "p.bin"
    short_payload.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload"):
        load_matrix_bin(short_payload)
