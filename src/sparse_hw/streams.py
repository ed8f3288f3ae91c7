"""Keyed random streams.

Every stochastic routine in this package draws from a generator keyed by
(seed, stream_id), so a stream is a pure function of its key: the same
key always reproduces the same sample sequence, and distinct keys give
statistically independent streams.  Chunked Monte Carlo loops key their
streams by chunk index, which makes results independent of how many
worker threads consume the chunks.

There are two constructors.  `stream` is a counter-based Philox
generator (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11); every consumer except the Monte Carlo chunks uses it.
`chunk_stream` is an SFC64 generator seeded through numpy's SeedSequence
from the fixed-width key; the Monte Carlo chunks of `quadform_mc` use
it, because SFC64 makes raw 64-bit words more than twice as fast as
Philox and a dense chunk is mostly raw words.

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
   `sample_sparse_matrix` call per block (`quadform_mc._deviations`).
4. layout 3, except that Monte Carlo chunk c draws from
   `chunk_stream(seed, c)` (SFC64) instead of `stream(seed, c)`
   (Philox).  The word map, the geometric gaps and the blocks are as in
   layout 3, and every other consumer still draws from `stream`.
"""

from __future__ import annotations

import numpy as np

STREAM_LAYOUT = 4

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Return the generator for (seed, stream_id).

    Bit-identical across calls and platforms: the Philox key is the pair
    (seed mod 2^64, stream_id mod 2^64) and the counter starts at zero.
    """
    key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_stream(seed: int, chunk: int) -> np.random.Generator:
    """Return the SFC64 generator of Monte Carlo chunk `chunk` under seed.

    Bit-identical across calls and platforms: SeedSequence receives the
    key (seed mod 2^64, chunk mod 2^64) as four 32-bit words, low word
    first.  The width is fixed because SeedSequence hashes a list of
    ints word by word and pads short entropy with zeros, so the plain
    list [seed, chunk] would make (5 + 2^32, 0) and (5, 1) one stream.
    """
    s, c = seed & _MASK64, chunk & _MASK64
    entropy = np.array([s & _MASK32, s >> 32, c & _MASK32, c >> 32], dtype=np.uint32)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))


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
