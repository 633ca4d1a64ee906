import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exspec.rng import _MIRROR_MIN, stream, streams

# Spawn keys of one word (the largest), two, and three.
EDGE_INDICES = [0, 2**32 - 1, 2**32, 2**64 + 3]
# Seeds of one to five 32-bit words, drawn by bit length so each is common.
SEEDS = st.integers(0, 140).flatmap(lambda bits: st.integers(0, 2**bits))


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.lists(st.one_of(st.sampled_from(EDGE_INDICES), st.integers(0, 2**70)),
                       min_size=_MIRROR_MIN, max_size=3 * _MIRROR_MIN))
def test_streams_are_the_reference_streams(seed, indices):
    # Lists of _MIRROR_MIN indices or more take the vectorised seeding.
    for index, rng in zip(indices, streams(seed, indices), strict=True):
        want = stream(seed, index)
        assert rng.bit_generator.state == want.bit_generator.state
        draws = rng.bit_generator.random_raw(100)
        assert draws.tobytes() == want.bit_generator.random_raw(100).tobytes()


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**96, 2**128, 2**140])
def test_streams_at_the_word_boundaries(seed):
    indices = EDGE_INDICES + [5] + EDGE_INDICES[::-1]
    assert len(indices) >= _MIRROR_MIN
    got = [rng.bit_generator.state for rng in streams(seed, indices)]
    assert got == [stream(seed, i).bit_generator.state for i in indices]


def test_a_negative_seed_or_index_is_rejected_as_seedsequence_does():
    for seed, index in ((-1, 0), (3, -1)):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.SeedSequence(seed, spawn_key=(index,))
        for count in (1, _MIRROR_MIN):
            with pytest.raises(ValueError, match="expected non-negative integer"):
                list(streams(seed, [index] * count))
