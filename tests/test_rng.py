import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exspec.rng import stream, streams

# The edges of a counter word: the smallest and largest index, and the
# edge of its low 32 bits.
EDGE_INDICES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
# Every index tuple a stream takes, over the edges: (), (i,) and (i, j).
EDGE_TUPLES = [(), *[(i,) for i in EDGE_INDICES], *itertools.product(EDGE_INDICES, repeat=2)]
# Seeds of one to five 32-bit words, drawn by bit length so each is common.
SEEDS = st.integers(0, 140).flatmap(lambda bits: st.integers(0, 2**bits))


def _state(rng):
    """A Generator's bit-generator state with its arrays as lists, so that
    two states compare with ==."""
    state = rng.bit_generator.state
    return {**state, "state": {k: v.tolist() for k, v in state["state"].items()},
            "buffer": state["buffer"].tolist()}


def _first_block(rng):
    return rng.bit_generator.random_raw(4).tobytes()


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.lists(st.one_of(st.sampled_from(EDGE_INDICES), st.integers(0, 2**64 - 1)),
                       max_size=24))
def test_streams_are_the_reference_streams(seed, indices):
    for index, rng in zip(indices, streams(seed, indices), strict=True):
        want = stream(seed, index)
        assert _state(rng) == _state(want)
        draws = rng.bit_generator.random_raw(100)
        assert draws.tobytes() == want.bit_generator.random_raw(100).tobytes()


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**96, 2**128, 2**140])
def test_streams_at_the_word_boundaries(seed):
    # Each stream is Philox keyed by SeedSequence's public generate_state, at
    # the counter (0, index..., len(index)), the tuple zero-padded to two
    # words. So (), (0,) and (i, 0) share no first block.
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    blocks = set()
    for index in EDGE_TUPLES:
        counter = np.array([0, *index, *[0] * (2 - len(index)), len(index)], dtype=np.uint64)
        block = _first_block(stream(seed, *index))
        assert block == _first_block(np.random.Generator(np.random.Philox(key=key, counter=counter)))
        blocks.add(block)
    assert len(blocks) == len(EDGE_TUPLES)
    indices = EDGE_INDICES + [5] + EDGE_INDICES[::-1]
    got = [_state(rng) for rng in streams(seed, indices)]
    assert got == [_state(stream(seed, i)) for i in indices]


def test_the_first_block_is_pinned():
    # Philox's raw stream is a fixed algorithm: these words hold on every numpy.
    assert stream(0, 0).bit_generator.random_raw(4).tolist() == [
        5312087694084997812, 2167078804631760376, 12885069150845639902, 6370427667298282036]


def test_an_empty_list_yields_nothing():
    assert list(streams(3, [])) == []


def test_a_negative_seed_or_index_is_rejected_as_seedsequence_does():
    # A negative seed, an index outside the counter's 64-bit words, or more
    # indices than its two words: the first next() raises, before any
    # Generator is given.
    for seed, indices in ((-1, [0]), (3, [-1]), (3, [0, 1, -1]), (3, [2**64]), (3, [0, 2**64 + 5])):
        with pytest.raises(ValueError):
            next(streams(seed, indices))
    for seed, index in ((-1, ()), (3, (-1,)), (3, (0, 2**64)), (3, (0, 1, 2))):
        with pytest.raises(ValueError):
            stream(seed, *index)


def test_interleaved_calls_share_no_generator():
    a, b = [0, 1, 2**40], [7, 2**33, 3]
    for (i, x), (j, y) in zip(zip(a, streams(5, a)), zip(b, streams(6, b)), strict=True):
        assert x is not y
        assert _state(x) == _state(stream(5, i))
        assert _state(y) == _state(stream(6, j))
