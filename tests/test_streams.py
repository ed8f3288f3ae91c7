import numpy as np
import pytest

from sparse_hw.streams import chunk_sizes, chunk_stream, stream


def test_same_key_gives_identical_sequence():
    a = stream(42, 7).random(1000)
    b = stream(42, 7).random(1000)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_differ():
    a = stream(42, 0).random(100)
    b = stream(42, 1).random(100)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = stream(1, 0).random(100)
    b = stream(2, 0).random(100)
    assert not np.array_equal(a, b)


def test_key_reduces_mod_2_to_64():
    # Philox keys are 64-bit words; larger inputs must wrap, not fail.
    a = stream(5, 3).random(64)
    b = stream(5 + 2**64, 3 + 2**64).random(64)
    assert np.array_equal(a, b)
    c = stream(-1, 0).random(64)
    d = stream(2**64 - 1, 0).random(64)
    assert np.array_equal(c, d)


def test_generator_state_is_fresh_per_call():
    rng = stream(9, 0)
    first = rng.random(10)
    again = stream(9, 0).random(10)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, rng.random(10))


def test_chunk_stream_same_key_gives_identical_sequence():
    a = chunk_stream(42, 7).integers(0, 2**63, 1000)
    b = chunk_stream(42, 7).integers(0, 2**63, 1000)
    assert np.array_equal(a, b)
    assert isinstance(chunk_stream(42, 7).bit_generator, np.random.SFC64)


def test_chunk_stream_key_reduces_mod_2_to_64():
    a = chunk_stream(5, 3).random(64)
    b = chunk_stream(5 + 2**64, 3 + 2**64).random(64)
    assert np.array_equal(a, b)
    c = chunk_stream(-1, -2).random(64)
    d = chunk_stream(2**64 - 1, 2**64 - 2).random(64)
    assert np.array_equal(c, d)


@pytest.mark.parametrize("other", [(42, 1), (43, 0), (0, 42), (42, 2**32)])
def test_chunk_stream_distinct_keys_differ(other):
    base = chunk_stream(42, 0).random(100)
    assert not np.array_equal(base, chunk_stream(*other).random(100))


def test_chunk_stream_key_words_have_fixed_width():
    # SeedSequence pads short entropy with zero words, so the plain list
    # [seed, chunk] would make (5 + 2^32, 0) and (5, 1) one stream
    a = chunk_stream(5 + 2**32, 0).random(100)
    b = chunk_stream(5, 1).random(100)
    assert not np.array_equal(a, b)


def test_chunk_sizes_exact_split():
    assert chunk_sizes(10, 4) == [4, 4, 2]
    assert chunk_sizes(8, 4) == [4, 4]
    assert chunk_sizes(3, 10) == [3]
    assert chunk_sizes(0, 5) == []


def test_chunk_sizes_sum_invariant():
    for n, c in [(1, 1), (17, 5), (65536, 4096), (100, 101)]:
        sizes = chunk_sizes(n, c)
        assert sum(sizes) == n
        assert all(1 <= s <= c for s in sizes)


def test_chunk_sizes_rejects_bad_inputs():
    with pytest.raises(ValueError):
        chunk_sizes(10, 0)
