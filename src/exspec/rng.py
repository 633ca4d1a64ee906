"""Counter-based seeded random streams.

Every Monte Carlo routine in this package draws trial ``index`` from the
generator of the pair (seed, index) alone, so a run is reproducible bit for
bit and does not depend on the order in which trials are drawn.

The generator is numpy's Philox (Salmon, Moraes, Dror and Shaw, "Parallel
random numbers: as easy as 1, 2, 3", SC 2011): each block of four draws is
a keyed cipher of a 256-bit counter of four 64-bit words, which steps by one
per block. The 128-bit key is ``SeedSequence(seed).generate_state(2,
np.uint64)``, once per call. The stream of (seed, index...) starts at the
counter (0, index..., len(index)), the index tuple padded with zeros to two
words: no two tuples share a block, and the low word leaves 2**64 blocks to
each stream. A stream is one state set on a Generator, with no SeedSequence
built per trial.
"""

import numpy as np

__all__ = ["stream", "streams"]


def _generators(seed: int, tuples):
    """One Generator, set in turn to the stream of each index tuple. The
    seed and every tuple are checked before the first is given."""
    key = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
    counters = []
    for index in tuples:
        index = [int(i) for i in index]
        if len(index) > 2 or not all(0 <= i < 2**64 for i in index):
            raise ValueError(f"a stream index is at most two integers in [0, 2**64), "
                             f"got {tuple(index)}")
        counters.append([0, *index, *[0] * (2 - len(index)), len(index)])
    rng = np.random.Generator(np.random.Philox(key=key))
    state = rng.bit_generator.state
    for counter in counters:
        state["state"]["counter"] = counter
        rng.bit_generator.state = state
        yield rng


def stream(seed: int, *index: int) -> np.random.Generator:
    """Independent generator for a (seed, index...) tuple of up to two indices."""
    return next(_generators(seed, [index]))


def streams(seed: int, indices):
    """For each of ``indices`` in turn, a Generator in the state of
    ``stream(seed, index)``: the same draws, bit for bit.

    One Generator is reused: each is valid until the next is taken, so draw
    from it before advancing. A negative seed, or an index outside [0,
    2**64), raises ValueError before any Generator is given.
    """
    return _generators(seed, [(i,) for i in indices])
