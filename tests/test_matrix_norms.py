import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bound_table_workload_matrix,
    dual_rows_one_power,
    dual_rows_two_pass,
    jacobi_eigen_spectral,
    opnorm_block_reference,
    opnorm_grid,
    opnorm_loop,
    opnorm_two_pass_block,
    save_matrix_bin,
    save_matrix_csv,
    sign_starts,
)
from sparse_hw.matrix_norms import (
    Functionals,
    _dual_rows,
    _sign_starts,
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
        ours = opnorm(m, *pair, restarts=64)
        ref = opnorm_grid(m, *pair, n_random=100_000, seed=seed)
        assert abs(ours - ref) <= 0.01 * ref


def test_opnorm_detail_reports_convergence():
    res = opnorm_detail(stream(43, 0).standard_normal((3, 3)), 1.5, 3.0)
    assert res.restarts == 64
    assert res.converged
    assert res.value > 0


def test_opnorm_zero_matrix():
    assert opnorm(np.zeros((2, 2)), 1.5, 3.0) == 0.0


def assert_matches_restart_loop(m, r1, r2, restarts):
    ours = opnorm_detail(m, r1, r2, restarts=restarts)
    ref = opnorm_loop(m, r1, r2, restarts=restarts)
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
    assert_matches_restart_loop(BLOCK_CASES[case], *pair, restarts)


def test_opnorm_block_keeps_per_restart_convergence():
    # of 8 restarts, restarts 0, 2 and 5 converge at iterations 59-60 just
    # below the best value, restarts 3 and 7 run out of iterations 1.4%
    # below it, and restart 6 converges at iteration 68 with the best
    # value, so every row needs its own stopping mask and the flag
    # follows restart 6
    m = stream(383, 0).standard_normal((9, 9))
    assert opnorm_loop(m, 2.0, 3.0, restarts=1).converged
    assert opnorm_loop(m, 2.0, 3.0, restarts=8).converged
    for restarts in (1, 8, 64):
        assert_matches_restart_loop(m, 2.0, 3.0, restarts)


def test_opnorm_flag_is_that_of_the_best_restart():
    # here the restart giving the value is still moving at the cap
    m = stream(345, 0).standard_normal((6, 6))
    assert not opnorm_loop(m, 2.0, 2.1, restarts=4).converged
    assert_matches_restart_loop(m, 2.0, 2.1, 4)


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
    assert_matches_restart_loop(m, r1, r2, restarts)


def _drop_rule_cases() -> dict:
    """A 20x20 matrix whose restart run to the cap beats every restart the
    drop rule keeps (seed 105; seed 228 did so from Gaussian starts), and
    random shapes and exponent pairs."""
    cases = {
        f"seed{seed}-20x20-4-1.5": (stream(seed, 0).standard_normal((20, 20)), 4.0, 1.5)
        for seed in (105, 228)
    }
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
    # seed-105 case it stops about 2.5e-3 below it
    m, r1, r2 = DROP_RULE_CASES[case]
    assert opnorm_detail(m, r1, r2).value <= opnorm_loop(m, r1, r2).value * (1 + 1e-12)


def test_opnorm_workload_value_converged():
    # 26 of the 64 restarts of ||A||_{1.5->3} stall 3.9-4.3% below the best
    # value for all 200 iterations; the restart giving the value converged
    res = opnorm_detail(bound_table_workload_matrix(7), 1.5, 3.0)
    assert res.converged
    assert math.isclose(res.value, 4.448872813848508, rel_tol=1e-12)


def _dual_rows_inputs() -> list:
    """20 random blocks of 1-39 rows and columns, scaled by 10^-6 to 10^6,
    with about a quarter of the rows and a tenth of the entries zero."""
    rng = stream(93, 0)
    blocks = []
    for _ in range(20):
        z = rng.standard_normal((int(rng.integers(1, 40)), int(rng.integers(1, 40))))
        z *= 10.0 ** float(rng.integers(-6, 7))
        z[rng.random(z.shape[0]) < 0.25] = 0.0  # zero rows
        z[rng.random(z.shape) < 0.1] = 0.0
        blocks.append(z)
    return blocks


DUAL_ROWS_EXPONENTS = (1.2, 1.5, 2.0, 3.0, 4.0, math.inf)


@pytest.mark.parametrize("r", DUAL_ROWS_EXPONENTS)
def test_dual_rows_matches_one_power(r):
    for trial, z in enumerate(_dual_rows_inputs()):
        for values in (True, False):
            ref_x, ref_val = dual_rows_one_power(z, r, values=values)
            x, val = _dual_rows(z, r, values=values)
            assert np.array_equal(x, ref_x), (r, trial, values)
            assert np.array_equal(val, ref_val) if values else val is None, (r, trial)


def _ulps(a: np.ndarray, b: np.ndarray) -> float:
    """The largest |a - b| in units in the last place of b."""
    return float(np.max(np.abs(a - b) / np.spacing(np.abs(b)), initial=0.0))


@pytest.mark.parametrize("r", DUAL_ROWS_EXPONENTS)
def test_dual_rows_within_derived_ulps_of_two_pass(r):
    # The two differ only in how the l_r sums are formed, with u = 2^-53
    # and n columns.  A pow is within 2u relative, a product or quotient
    # within u, and a sum of n nonnegative terms in any order within
    # (n - 1) u.  Values: each term t^(r*) is one pow (2u) against
    # pow(t, r* - 1) times t (3u), so the terms differ by 5u and the sums
    # by 5u + 2 (n - 1) u; the root (1/r* < 1) adds 2u a side and the
    # scaling u a side (at r = 2 the former unscaled root of the sum of
    # squares stays within the same count).  Maximizers share p =
    # t^(r* - 1): the norms' terms pow(p, r) against p t differ by
    # (r - 1) 2u from p's own rounding, 2u and u, the sums by a further
    # 2 (n - 1) u, the roots (1/r < 1) 2u a side and the divisions u a
    # side.  With 1 ulp >= u relative, neither differs by more than
    # 2 n + 2 r + 9 ulps (signs at r = inf are equal).
    for trial, z in enumerate(_dual_rows_inputs()):
        bound = 2 * z.shape[1] + (0 if math.isinf(r) else 2 * r) + 9
        ref_x, ref_val = dual_rows_two_pass(z, r)
        x, _ = _dual_rows(z, r, values=False)
        _, val = _dual_rows(z, r)
        assert _ulps(x, ref_x) <= bound and _ulps(val, ref_val) <= bound, (r, trial)


@pytest.mark.parametrize("r", (1.5, 2.0, 3.0, math.inf))
def test_dual_rows_zero_rows_found_without_values(r):
    # a row is zero exactly when its max is: rows of +0 and -0 get e_1 and
    # value 0.  A row scaled by 2^-565 (about 1e-170) is not zero, although
    # its squares underflow: it keeps the unscaled row's maximizer and
    # 2^-565 times its value.  Until the r = 2 branch scaled by the row max
    # it summed the squares unscaled, and gave that row e_1 and value 0.
    z = stream(95, 0).standard_normal((6, 5))
    z[1] = 0.0
    z[2] = -0.0
    tiny = z.copy()
    tiny[4] *= 2.0**-565
    scale = np.where(np.arange(6) == 4, 2.0**-565, 1.0)
    for values in (True, False):
        x, val = _dual_rows(tiny, r, values=values)
        ref_x, ref_val = _dual_rows(z, r, values=values)
        assert np.array_equal(x[1:3], [[1.0, 0.0, 0.0, 0.0, 0.0]] * 2)
        assert np.array_equal(x, ref_x)
        if values:
            assert val[1] == val[2] == 0.0 and np.array_equal(val, scale * ref_val)
        else:
            assert val is None


# (3, 2) adds the y-step at r2* = 2
BLOCK_REFERENCE_PAIRS = BLOCK_PAIRS + ((3.0, 2.0),)


def _block_reference_cases() -> dict:
    """The run-to-cap cases (the bound-table matrix at three seeds among
    them), the drop-rule and block cases with their exponent pairs, and
    all-zero inputs.  Each nonzero case comes again with the rows of its
    matrix reversed, which is the original matrix started from the start
    block with each row reversed."""
    cases = {f"run-to-cap-{k}": v for k, v in RUN_TO_CAP_CASES.items()}
    cases.update((f"drop-rule-{k}", (*v, 64)) for k, v in DROP_RULE_CASES.items())
    for name, m in BLOCK_CASES.items():
        for r1, r2 in BLOCK_REFERENCE_PAIRS:
            cases[f"block-{name}-{r1:g}-{r2:g}"] = (m, r1, r2, 64)
    cases.update((f"{k}-rows-reversed", (v[0][::-1], *v[1:])) for k, v in list(cases.items()))
    for shape in ((3, 4), (1, 1), (4, 3), (1, 5)):
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
        assert opnorm_detail(m, r1, r2, restarts=n) == opnorm_block_reference(m, r1, r2, restarts=n), n


@pytest.mark.parametrize("case", sorted(BLOCK_REFERENCE_CASES))
def test_opnorm_within_1e12_of_two_pass_block(case):
    # one power per half-step, unnormalised y and the relative tolerance
    # move the value only by rounding: within 1e-12 relative of the block
    # as it ran before, with the same flag
    m, r1, r2, restarts = BLOCK_REFERENCE_CASES[case]
    ours = opnorm_detail(m, r1, r2, restarts=restarts)
    ref = opnorm_two_pass_block(m, r1, r2, restarts=restarts)
    assert math.isclose(ours.value, ref.value, rel_tol=1e-12, abs_tol=0.0), (ours, ref)
    assert ours.converged == ref.converged, (ours, ref)


@pytest.mark.parametrize("seed", (1, 2, 3, 4, 5, 6))
def test_opnorm_workload_within_1e12_of_two_pass_block(seed):
    m = bound_table_workload_matrix(seed)
    for r1 in (2.0, 1.5):
        ours = opnorm_detail(m, r1, 3.0)
        ref = opnorm_two_pass_block(m, r1, 3.0)
        assert math.isclose(ours.value, ref.value, rel_tol=1e-12, abs_tol=0.0), (seed, r1, ours, ref)
        assert ours.converged == ref.converged, (seed, r1)


HOMOGENEITY_PAIRS = BLOCK_REFERENCE_PAIRS + ((2.0, 1.5),)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", (300, -300, 660, -660))
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_opnorm_scales_exactly_by_powers_of_two(case, k):
    # every step is relative to each row's largest entry and every test to
    # each row's value, so 2^k A gives exactly 2^k times the value and the
    # same flag, with no overflow or underflow warning.  With tolerances
    # absolute below 1, and squares summed unscaled at r = 2, "square" at
    # k = -660 read 72% low at (2, 3) and 0 at (3, 2), and inf at k = 660
    m = BLOCK_CASES[case]
    for r1, r2 in HOMOGENEITY_PAIRS:
        base = opnorm_detail(m, r1, r2)
        scaled = opnorm_detail(2.0**k * m, r1, r2)
        assert scaled.value == 2.0**k * base.value, (r1, r2)
        assert scaled.converged == base.converged, (r1, r2)


FUNCTIONAL_SCALE_CASES = dict(
    BLOCK_CASES, golden=load_matrix_csv(Path(__file__).parent / "golden" / "norms" / "matrix.csv")
)
DEGREE_ONE_FIELDS = (
    "frobenius", "max_abs", "spectral", "op_2_to_inf", "op_1_to_2", "op_1_to_inf", "op_2_to_conj",
    "op_alpha_to_conj", "mixed_l4_l2", "mixed_linf_l2", "mixed_conj_l2", "row_weighted_max",
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", (300, -300, 660, -660))
@pytest.mark.parametrize("case", sorted(FUNCTIONAL_SCALE_CASES))
def test_functionals_scale_exactly_by_powers_of_two(case, k):
    # every field but gamma1, a square, is of degree 1 in A: 2^k A gives
    # exactly 2^k times it, with no overflow or underflow warning.  While
    # the closed forms summed unscaled squares, frobenius, op_2_to_inf,
    # op_1_to_2, the l_2-type mixed norms and row_weighted_max read 0 at
    # k = -660 and overflowed at k = 660.  LAPACK scales a matrix with
    # entries beyond about 1e+-139 by a factor that is not a power of two,
    # so at |k| = 660 spectral and weighted_spectral take another rounding
    # path; they move by at most 3 ulps on these cases, and 4 are allowed
    m = FUNCTIONAL_SCALE_CASES[case]
    p = np.linspace(0.2, 0.9, m.shape[1])
    square = m.shape[0] == m.shape[1]
    names = DEGREE_ONE_FIELDS + (("gamma2", "weighted_spectral") if square else ())
    for alpha in (1.0, 1.5):  # at alpha = 1 the conj fields are closed forms
        base = Functionals(m, p, alpha)
        scaled = Functionals(2.0**k * m, p, alpha)
        for name in names:
            value = getattr(scaled, name) / 2.0**k
            want = getattr(base, name)
            if abs(k) == 660 and name in ("spectral", "weighted_spectral"):
                assert _ulps(np.array(value), np.array(want)) <= 4, (alpha, name)
            else:
                assert value == want, (alpha, name)


@pytest.mark.parametrize("restarts", (1, 2, 64, 100))
@pytest.mark.parametrize("n", (1, 2, 5, 60, 200))
def test_sign_starts_match_the_oracle(n, restarts):
    assert np.array_equal(_sign_starts(restarts, n), sign_starts(restarts, n))


def _start_quality_corpus() -> list:
    """40 seeded matrices, 8 of each kind, with 4 to 60 rows and columns:
    symmetric Gaussian, rectangular Gaussian, heavy-tailed (Student t with
    2 degrees of freedom), nonnegative (uniform on [0, 1)) and near
    low-rank (rank 2 plus Gaussian noise of scale 1e-3)."""
    rng = stream(31, 0)
    corpus = []
    for i in range(40):
        rows, cols = (int(v) for v in rng.integers(4, 61, size=2))
        kind = i % 5
        if kind == 0:
            g = rng.standard_normal((rows, rows))
            corpus.append(0.5 * (g + g.T))
        elif kind == 1:
            corpus.append(rng.standard_normal((rows, cols)))
        elif kind == 2:
            corpus.append(rng.standard_t(2, (rows, cols)))
        elif kind == 3:
            corpus.append(rng.random((rows, cols)))
        else:
            low = rng.standard_normal((rows, 2)) @ rng.standard_normal((2, cols))
            corpus.append(low + 1e-3 * rng.standard_normal((rows, cols)))
    return corpus


QUALITY_PAIRS = ((2.0, 3.0), (1.5, 3.0), (1.25, 5.0), (3.0, 1.5))


def test_sign_starts_search_as_well_as_gaussian_starts():
    # the reference is the Gaussian start block opnorm_detail drew before,
    # from seed 0: the sign patterns may end more than 1e-12 below it on no
    # more cases than they end above it, and by no more than the same
    # block drawn from seed 1 ends below it
    lower = higher = 0
    shortfall = seed_shortfall = 0.0
    for m in _start_quality_corpus():
        for r1, r2 in QUALITY_PAIRS:
            ref = opnorm_block_reference(m, r1, r2, seed=0).value
            gap = (ref - opnorm(m, r1, r2)) / ref
            lower += gap > 1e-12
            higher += gap < -1e-12
            shortfall = max(shortfall, gap)
            seed_gap = (ref - opnorm_block_reference(m, r1, r2, seed=1).value) / ref
            seed_shortfall = max(seed_shortfall, seed_gap)
    assert lower <= higher, (lower, higher)
    assert shortfall <= seed_shortfall, (shortfall, seed_shortfall)


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


def test_gamma1_overflow_reads_inf_and_zero_p_adds_nothing():
    # each term is summed directly: squares past the float range make
    # gamma1 inf, not inf - inf, and an entry in a row or column with
    # p = 0 adds 0, not inf * 0; each case read NaN while the diagonal
    # terms were subtracted from q^T (A o A) q
    assert gamma1([[1e200, 1.0], [1.0, 1.0]], (0.0, 1.0)) == 1.0
    assert gamma1([[1.0, 1e200], [1e200, 1.0]], (0.0, 1.0)) == 1.0
    with np.errstate(over="ignore"):
        assert gamma1(1e200 * SYM22, (0.5, 0.25)) == math.inf


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
            lo = opnorm(m, a, astar)
            mid = opnorm(m, 2, astar)
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


@pytest.mark.parametrize("extra", [b"\0" * 8, b"\0" * 3], ids=["one-entry", "three-bytes"])
def test_bin_longer_than_its_header_is_rejected(tmp_path, extra):
    # the payload is exactly rows x cols entries; trailing bytes were once ignored
    path = tmp_path / "m.bin"
    save_matrix_bin(path, np.arange(4.0).reshape(2, 2))
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(ValueError, match=f"holds {len(extra)} bytes past its 2 x 2 entries"):
        load_matrix_bin(path)
