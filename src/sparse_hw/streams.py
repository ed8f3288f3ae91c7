"""Counter-based random streams.

Every stochastic routine in this package draws from a Philox generator
keyed by (seed, stream_id).  Philox is counter-based, so a stream is a
pure function of its key: the same (seed, stream_id) always reproduces
the same sample sequence, and distinct stream ids are statistically
independent.  Chunked Monte Carlo loops assign stream id = chunk index,
which makes results independent of how many worker threads consume the
chunks.

STREAM_LAYOUT numbers the way the samplers consume their streams.  It
changes whenever a seed starts to yield different samples, and every CLI
report records it:

1. mask uniforms for every coordinate, then the base law for every
   coordinate, column blocks grouped by base spec.
2. columns grouped by (p_i, base spec); each group draws its kept
   positions by geometric gaps, then the base law on those only
   (`rv_models.sample_sparse_matrix`).
3. layout 2, with two changes.  A Weibull or Rademacher coordinate
   takes exactly one raw 64-bit word w (`rv_models.sample_weibull`):
   the top 52 bits m give u = (2m + 1) 2^-53 in (0, 1), the magnitude
   is scale * (-log u)^(1/alpha), and the lowest bit of w is the sign
   (1 is negative); a Gaussian coordinate still takes one
   `standard_normal` draw.  And a Monte Carlo chunk is drawn as
   consecutive blocks of max(1, MC_BLOCK_ENTRIES // dim) rows, one
   `sample_sparse_matrix` call per block (`quadform_mc._deviations`;
   the decoupled form draws x, then x~, per block).
"""

from __future__ import annotations

import numpy as np

STREAM_LAYOUT = 3

_MASK64 = (1 << 64) - 1


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Return the generator for (seed, stream_id).

    Bit-identical across calls and platforms: the Philox key is the pair
    (seed mod 2^64, stream_id mod 2^64) and the counter starts at zero.
    """
    key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_sizes(n_total: int, chunk_size: int) -> list[int]:
    """Split n_total into fixed-size chunks (last one ragged)."""
    if n_total < 0:
        raise ValueError("n_total must be nonnegative")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    out = []
    left = n_total
    while left > 0:
        take = min(chunk_size, left)
        out.append(take)
        left -= take
    return out
