import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exspec.rng import stream, streams

# Spawn keys of one word (the largest), two, and three.
EDGE_INDICES = [0, 2**32 - 1, 2**32, 2**64 + 3]
# Seeds of one to five 32-bit words, drawn by bit length so each is common.
SEEDS = st.integers(0, 140).flatmap(lambda bits: st.integers(0, 2**bits))


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.lists(st.one_of(st.sampled_from(EDGE_INDICES), st.integers(0, 2**70)),
                       max_size=24))
def test_streams_are_the_reference_streams(seed, indices):
    for index, rng in zip(indices, streams(seed, indices), strict=True):
        want = stream(seed, index)
        assert rng.bit_generator.state == want.bit_generator.state
        draws = rng.bit_generator.random_raw(100)
        assert draws.tobytes() == want.bit_generator.random_raw(100).tobytes()


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**96, 2**128, 2**140])
def test_streams_at_the_word_boundaries(seed):
    indices = EDGE_INDICES + [5] + EDGE_INDICES[::-1]
    got = [rng.bit_generator.state for rng in streams(seed, indices)]
    assert got == [stream(seed, i).bit_generator.state for i in indices]


def test_an_empty_list_yields_nothing():
    assert list(streams(3, [])) == []


def test_a_negative_seed_or_index_is_rejected_as_seedsequence_does():
    for seed, indices in ((-1, [0]), (3, [-1]), (3, [0, 1, -1])):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.SeedSequence(seed, spawn_key=(min(indices),))
        # The first next() raises, before any Generator is given.
        with pytest.raises(ValueError, match="expected non-negative integer"):
            next(streams(seed, indices))


def test_interleaved_calls_share_no_generator():
    a, b = [0, 1, 2**40], [7, 2**33, 3]
    for (i, x), (j, y) in zip(zip(a, streams(5, a)), zip(b, streams(6, b)), strict=True):
        assert x is not y
        assert x.bit_generator.state == stream(5, i).bit_generator.state
        assert y.bit_generator.state == stream(6, j).bit_generator.state
