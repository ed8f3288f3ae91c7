"""Random variable models for sparse quadratic-form experiments.

The coordinate model is xi_i = delta_i * zeta_i where delta_i is
Bernoulli(p_i) and zeta_i is a centered alpha-sub-exponential variable.
Three base laws are supported:

* symmetric Weibull W_s(alpha): sign * E^(1/alpha) with E ~ Exp(1), so
  -log P{|zeta| > x} = x^alpha exactly.  This is the canonical base: it
  has psi_alpha norm exactly 2^(1/alpha) and saturates the tail index.
* centered Gaussian with standard deviation `scale`.
* Rademacher (uniform on {-1, +1}).

A `SparseModel` has one base law for all its coordinates.
`sample_sparse_matrix` draws it only on retained coordinates: columns
are grouped by p_i, and each group draws the kept positions of its
block by geometric gaps, then zeta at those positions.
So the cost of a draw scales with the expected number of nonzeros
p * n, not with n.  A Weibull or Rademacher coordinate takes exactly one
raw 64-bit word of the stream, which gives both its magnitude and its
sign.

The psi_alpha (Orlicz) norm of a variable is
inf{t > 0 : E exp(|xi|^alpha / t^alpha) <= 2}; `psi_alpha_norm`
computes it from a fixed quadrature of a one-dimensional integral, widened
by PSI_QUAD_MARGIN, and `psi_alpha_exact` returns the closed form where
one exists.  `model_psi_alpha` uses the closed form or else the
quadrature, so the norm depends on no seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# nothing here calls it; the benchmark tracer wraps rv_models.stream
from .streams import stream

_KINDS = ("weibull", "gaussian", "rademacher")

# The word map of sample_weibull and the Rademacher sign: the top 52 bits
# of a raw word under the exponent bits of 1.0 give v in [1, 2), and
# v - (1 - 2^-53) = (2m + 1) 2^-53 is exact and lies in (0, 1).
_ONE_BITS = np.uint64(0x3FF0000000000000)
_BELOW_ONE = 1.0 - 2.0**-53
_MANTISSA_SHIFT = np.uint64(12)
_SIGN_SHIFT = np.uint64(63)

# psi_alpha_norm's trapezoid rule in s = log u, step 0.1 on [-60, log 800),
# exponentially convergent here (Trefethen & Weideman, SIAM Review 56, 2014),
# with the log weights of u ~ Exp(1) and of u = Z^2 / 2 (density e^-u / sqrt(pi u))
_PSI_U = np.exp(np.arange(-60.0, math.log(800.0), 0.1))
_PSI_LOG_W = math.log(0.1) + np.log(_PSI_U) - _PSI_U
_PSI_LOG_W_HALF = _PSI_LOG_W - 0.5 * np.log(math.pi * _PSI_U)
# the relative margin added to the quadrature's norm, far above its error
PSI_QUAD_MARGIN = 1e-10


@dataclass(frozen=True)
class AlphaParam:
    """Tail exponent alpha with 0 < alpha <= 2."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not (0.0 < v <= 2.0) or math.isnan(v):
            raise ValueError(f"alpha must lie in (0, 2], got {self.value!r}")
        object.__setattr__(self, "value", v)

    @property
    def conjugate(self) -> float:
        """Hoelder conjugate alpha / (alpha - 1); infinity at alpha = 1."""
        if self.value < 1.0:
            raise ValueError("conjugate exponent requires alpha >= 1")
        if self.value == 1.0:
            return math.inf
        return self.value / (self.value - 1.0)


@dataclass(frozen=True)
class DistributionSpec:
    """Base law of the centered factor zeta.

    `alpha` is required for kind="weibull" and ignored otherwise.
    `unit_variance` divides samples by the exact standard deviation.
    """

    kind: str
    alpha: float | None = None
    scale: float = 1.0
    unit_variance: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind == "weibull":
            if self.alpha is None:
                raise ValueError("weibull base requires alpha")
            AlphaParam(self.alpha)
        if not (self.scale > 0) or math.isnan(self.scale):
            raise ValueError("scale must be positive")
        try:
            second_moment = self.std() ** 2
        except OverflowError:
            second_moment = math.inf
        if math.isinf(second_moment):
            raise ValueError(
                f"{self.kind} base with alpha={self.alpha}, scale={self.scale} has a second"
                " moment beyond the float range"
            )

    def std(self) -> float:
        """Exact standard deviation before any unit-variance rescaling."""
        if self.kind == "weibull":
            return self.scale * math.sqrt(math.gamma(1.0 + 2.0 / self.alpha))
        if self.kind == "gaussian":
            return self.scale
        return 1.0

    def variance(self) -> float:
        """E zeta^2 of the emitted samples (1.0 when unit_variance)."""
        if self.unit_variance:
            return 1.0
        return self.std() ** 2


@dataclass(frozen=True)
class SparseModel:
    """Sparse vector model xi = delta o zeta.

    p is the vector of retention probabilities in [0, 1]^n, and every
    coordinate's factor zeta_i follows the one base law `base`.
    """

    p: tuple[float, ...]
    base: DistributionSpec
    _groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = tuple(float(v) for v in np.atleast_1d(np.asarray(self.p, dtype=float)))
        if len(p) == 0:
            raise ValueError("p must be nonempty")
        if any(math.isnan(v) or v < 0.0 or v > 1.0 for v in p):
            raise ValueError("retention probabilities must lie in [0, 1]")
        object.__setattr__(self, "p", p)
        groups: dict[float, list[int]] = {}
        for i, q in enumerate(p):
            groups.setdefault(q, []).append(i)
        object.__setattr__(
            self, "_groups", tuple((q, np.array(cols)) for q, cols in groups.items())
        )

    @property
    def dim(self) -> int:
        return len(self.p)

    @property
    def groups(self) -> tuple[tuple[float, np.ndarray], ...]:
        """(p_i, columns) for each distinct p_i, in first-occurrence order."""
        return self._groups

    def p_array(self) -> np.ndarray:
        return np.asarray(self.p, dtype=float)

    def coordinate_variances(self) -> np.ndarray:
        """E xi_i^2 = p_i * E zeta^2 per coordinate."""
        return self.p_array() * self.base.variance()


def _weibull_magnitude(m: np.ndarray, alpha: float, scale: float) -> None:
    """m <- scale * m^(1/alpha) in place; x ** 1.0 and 1.0 * x are x exactly."""
    if alpha != 1.0:
        np.power(m, 1.0 / alpha, out=m)
    if scale != 1.0:
        m *= scale


def _signed(out: np.ndarray, words: np.ndarray) -> None:
    """OR the lowest bit of each word into the sign bit of out (1 is negative)."""
    np.left_shift(words, _SIGN_SHIFT, out=words)
    bits = out.view(np.uint64)
    bits |= words


def sample_weibull(
    alpha: float,
    size: int | tuple[int, ...],
    rng: np.random.Generator,
    scale: float = 1.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Symmetric Weibull W_s(alpha) samples via inverse CDF.

    Each coordinate takes exactly one raw 64-bit word w of rng's bit
    generator.  The top 52 bits of w are the mantissa m of
    u = (2m + 1) 2^-53, uniform on a grid strictly inside (0, 1); the
    magnitude is scale * (-log u)^(1/alpha) and the lowest bit of w is
    the sign (1 is negative).  The largest magnitude is therefore
    scale * (53 log 2)^(1/alpha): ValueError is raised, before anything
    is drawn, when that overflows.  out, a float64 array of shape size,
    receives the samples when given.
    """
    a = AlphaParam(alpha).value
    top = -np.log(np.array([2.0**-53]))
    with np.errstate(over="ignore"):
        _weibull_magnitude(top, a, scale)
    if not np.isfinite(top[0]):
        raise ValueError(
            f"W_s({a}) with scale {scale} overflows: its largest draw,"
            " scale * (53 log 2)^(1/alpha), is beyond the float range"
        )
    x = np.empty(size) if out is None else out
    words = rng.bit_generator.random_raw(x.shape)
    bits = x.view(np.uint64)
    np.right_shift(words, _MANTISSA_SHIFT, out=bits)
    bits |= _ONE_BITS
    x -= _BELOW_ONE
    np.log(x, out=x)
    np.negative(x, out=x)
    _weibull_magnitude(x, a, scale)
    _signed(x, words)
    return x


def sample_base(
    spec: DistributionSpec,
    size: int | tuple[int, ...],
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Draw centered samples of zeta according to spec.

    out, a float64 array of shape size, receives the samples when given.
    A Rademacher sign is the lowest bit of one raw word, as for the
    Weibull law.
    """
    x = np.empty(size) if out is None else out
    if spec.kind == "weibull":
        sample_weibull(spec.alpha, size, rng, scale=spec.scale, out=x)
    elif spec.kind == "gaussian":
        x[...] = rng.standard_normal(x.shape)
        x *= spec.scale
    else:
        words = rng.bit_generator.random_raw(x.shape)
        x.fill(1.0)
        _signed(x, words)
    if spec.unit_variance:
        x /= spec.std()
    return x


def _retained(p: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted positions in range(size) kept independently with probability p.

    Gaps between kept positions are Geometric(p), so the draws scale
    with p * size (Devroye, Non-Uniform Random Variate Generation, 1986).
    Each batch is sized from p and size alone (mean + 6 sd + 16 gaps), so
    the output depends only on the stream's state.
    """
    mean = size * p
    batch = int(mean + 6.0 * math.sqrt(mean * (1.0 - p)) + 16)
    parts, last = [], -1
    while last < size:
        # a gap past the block end ends it; the cap keeps the cumsum in int64
        gaps = np.minimum(rng.geometric(p, batch), size + 1)
        parts.append(last + np.cumsum(gaps))
        last = int(parts[-1][-1])
    pos = np.concatenate(parts)
    return pos[: np.searchsorted(pos, size)]


def sample_sparse_matrix(
    model: SparseModel,
    n_samples: int,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(n_samples, dim) array of xi = delta o zeta draws.

    The columns are grouped by their p_i (model.groups), and each group
    of g columns draws in turn from rng: nothing at p = 0, an
    (n_samples, g) base block at p = 1 (no mask), and otherwise the kept
    positions of the row-major n_samples x g block by geometric gaps,
    then the base law on those k coordinates only.  The order is fixed,
    so a given stream always yields bit-identical output
    (streams.STREAM_LAYOUT names this layout).
    out, a C-contiguous float64 array of shape (n_samples, dim), receives
    the draws when given; a dense group on consecutive columns is drawn
    straight into it.
    """
    groups, spec = model.groups, model.base
    if out is None:
        x = np.zeros((n_samples, model.dim))
    else:
        x = out
        if not x.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        if any(p != 1.0 for p, _ in groups):
            x.fill(0.0)
    for p, cols in groups:
        g = len(cols)
        if p == 1.0:
            if cols[-1] - cols[0] == g - 1:
                sample_base(spec, (n_samples, g), rng, out=x[:, cols[0] : cols[0] + g])
            else:
                x[:, cols] = sample_base(spec, (n_samples, g), rng)
        elif p > 0.0:
            at = _retained(p, n_samples * g, rng)
            if g != model.dim:  # else the block's flat positions are x's own
                at = at // g * model.dim + cols[at % g]
            x.reshape(-1)[at] = sample_base(spec, at.size, rng)
    return x


def psi_alpha_exact(spec: DistributionSpec, alpha: float) -> float | None:
    """Closed-form psi_alpha norm where known, else None.

    Known cases: W_s(beta) at alpha = beta gives scale * 2^(1/alpha)
    (|zeta|^alpha is Exp(1) up to scale, so E exp(|zeta|^alpha / t^alpha)
    = 1 / (1 - (scale/t)^alpha) = 2 at t = scale * 2^(1/alpha));
    Rademacher at any alpha gives (log 2)^(-1/alpha); Gaussian at
    alpha = 2 gives scale * sqrt(8/3).
    """
    a = AlphaParam(alpha).value
    norm = spec.std() if spec.unit_variance else 1.0
    if spec.kind == "weibull" and spec.alpha == a:
        return spec.scale * 2.0 ** (1.0 / a) / norm
    if spec.kind == "rademacher":
        return math.log(2.0) ** (-1.0 / a)
    if spec.kind == "gaussian" and a == 2.0:
        return spec.scale * math.sqrt(8.0 / 3.0) / norm
    return None


def model_psi_alpha(model: SparseModel, alpha: float) -> float:
    """psi_alpha norm of the model's base law zeta.

    Closed form where available, otherwise psi_alpha_norm's quadrature.
    xi_i = delta_i * zeta_i is stochastically dominated by zeta, so
    this also bounds the psi_alpha norms of the sparse coordinates.
    """
    exact = psi_alpha_exact(model.base, alpha)
    return exact if exact is not None else psi_alpha_norm(model.base, alpha)


def psi_alpha_norm(dist: DistributionSpec, alpha: float) -> float:
    """psi_alpha norm by quadrature, an upper bound on the exact norm.

    Write |zeta| = c V: V = E^(1/beta) with E ~ Exp(1) for W_s(beta),
    V = sqrt(2u) with u = Z^2 / 2 for a Gaussian, and V = 1 for Rademacher.
    The norm is c lam^(-1/alpha) at the largest lam with
    g(lam) = E exp(lam V^alpha) <= 2; bisection keeps g(lo) <= 2 < g(hi),
    with g the trapezoid sum over _PSI_U, and the norm at lo is widened by
    PSI_QUAD_MARGIN.  A Weibull base W_s(beta) with beta < alpha raises
    ValueError: E exp(|x|^alpha / t^alpha) is infinite for every t.
    """
    a = AlphaParam(alpha).value
    if dist.kind == "weibull" and dist.alpha < a:
        raise ValueError(
            f"weibull base with alpha={dist.alpha:g} has an infinite psi_alpha norm at"
            f" alpha={a:g} (finite only for alpha <= {dist.alpha:g})"
        )
    c = dist.scale / (dist.std() if dist.unit_variance else 1.0)
    if dist.kind == "weibull":
        v_a, log_w = _PSI_U ** (a / dist.alpha), _PSI_LOG_W
    elif dist.kind == "gaussian":
        v_a, log_w = (2.0 * _PSI_U) ** (a / 2.0), _PSI_LOG_W_HALF
    else:
        c, v_a, log_w = 1.0, np.ones(1), np.zeros(1)

    # Jensen: g(lam) >= g(0) exp(lam E V^alpha), so g(hi) is about 4
    lo, hi = 0.0, 2.0 * math.log(2.0) / float(np.exp(log_w) @ v_a)
    with np.errstate(over="ignore"):  # an overflow to inf certifies g > 2
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if np.exp(mid * v_a + log_w).sum() <= 2.0 else (lo, mid)
        t = c * np.float64(lo) ** (-1.0 / a) * (1.0 + PSI_QUAD_MARGIN)
    if not np.isfinite(t):
        raise ValueError(f"{dist.kind} base has a psi_alpha norm at alpha={a:g} beyond float range")
    return float(t)
