"""The counter RNG against a reference splitmix64 written on Python ints.

The reference follows the published formulas: a counter is the stream's base
plus index times the golden gamma, the finalizer is two xor-shift-multiply
rounds and a last xor-shift, and a uniform is the top 53 bits plus half a ulp.
Every comparison is by repr, so a single differing bit fails.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randset.rng import uniform_at, uniform_block

M64 = 2**64 - 1
U64 = st.integers(0, M64)


def ref_mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & M64
    return z ^ (z >> 31)


def ref_base(seed: int, stream: int) -> int:
    return ref_mix((seed & M64) * 0x8C62B1A39F2DD5E3 & M64) ^ ref_mix((stream & M64) * 0xD1342543DE82EF95 & M64)


def ref_uniforms(seed: int, stream: int, indices) -> list[str]:
    base = ref_base(seed, stream)
    return [repr((float(ref_mix((base + i * 0x9E3779B97F4A7C15) & M64) >> 11) + 0.5) * 2.0**-53) for i in indices]


def reprs(u: np.ndarray) -> list[str]:
    assert u.dtype == np.float64
    return [repr(float(x)) for x in u]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(-(2**70), 2**70), stream=U64, indices=st.lists(U64, max_size=12))
def test_uniform_at_matches_reference(seed, stream, indices):
    assert reprs(uniform_at(seed, stream, indices)) == ref_uniforms(seed, stream, indices)


@settings(max_examples=200, deadline=None)
@given(seed=U64, stream=U64, count=st.integers(0, 40), data=st.data())
def test_uniform_block_matches_reference(seed, stream, count, data):
    start = data.draw(st.integers(0, M64 + 1 - count))
    expected = ref_uniforms(seed, stream, range(start, start + count))
    assert reprs(uniform_block(seed, stream, start, count)) == expected


@pytest.mark.parametrize("seed", [0, M64])
@pytest.mark.parametrize("stream", [0, M64])
def test_extreme_seeds_streams_and_indices(seed, stream):
    # index * gamma wraps for every index past 2**64 / gamma
    indices = [0, 1, 2, 2**63 - 1, 2**63, M64 - 1, M64]
    assert reprs(uniform_at(seed, stream, indices)) == ref_uniforms(seed, stream, indices)
    assert reprs(uniform_block(seed, stream, M64 - 2, 3)) == ref_uniforms(seed, stream, range(M64 - 2, 2**64))


@pytest.mark.parametrize("count", [0, 1, 65_536])
def test_block_counts(count):
    seed, stream, start = 4242, 0x01, 10**12
    u = uniform_block(seed, stream, start, count)
    assert u.shape == (count,)
    assert reprs(u) == ref_uniforms(seed, stream, range(start, start + count))
    if count:
        assert 0.0 < u.min() and u.max() < 1.0


def test_caller_indices_are_not_written():
    indices = np.array([0, 7, 2**63, M64], dtype=np.uint64)
    kept = indices.copy()
    uniform_at(3, 5, indices)
    assert np.array_equal(indices, kept) and indices.dtype == np.uint64


def test_list_and_array_indices_draw_the_same():
    indices = [0, 3, 2**40, M64]
    from_list = uniform_at(9, 2, indices)
    from_array = uniform_at(9, 2, np.array(indices, dtype=np.uint64))
    assert reprs(from_list) == reprs(from_array)


def test_no_runtime_warning_when_counters_wrap():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        uniform_at(M64, M64, [M64, 2**63])
        uniform_block(M64, M64, M64 - 65_535, 65_536)
        uniform_block(0, 0, 0, 1)
