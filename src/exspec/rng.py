"""Counter-based seeded random streams.

Every Monte Carlo routine in this package derives the generator for trial
``index`` from the pair (seed, index) alone, so a run is reproducible
bit-for-bit and does not depend on the order in which trials are drawn.

``stream(seed, index)`` is numpy's own ``SeedSequence(seed,
spawn_key=(index,))`` seeding a PCG64 ``Generator`` (NEP 19); it is the
reference, and it serves ``verify``, the demos and the tests. ``streams``
gives the same generator states for a whole list of indices at once. The
seed's pool is numpy's, ``SeedSequence(seed).pool``; what numpy cannot do
for many indices in one call is mirrored over uint32 arrays: mixing each
index's spawn words into that pool, ``generate_state``'s eight hashes and
PCG64's seeding. Each state is then set on one reused ``Generator``.
"""

import numpy as np

__all__ = ["stream", "streams"]

# numpy's SeedSequence (bit_generator.pyx): the hash constants of
# mix_entropy (A) and generate_state (B), and the mixer.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (pcg64.h, PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def stream(seed: int, *index: int) -> np.random.Generator:
    """Independent generator for a (seed, index...) tuple."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in index))
    return np.random.default_rng(ss)


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays, which wrap mod 2**32."""
    result = _MIX_L * x - _MIX_R * y
    return result ^ result >> 16


def _hash(values, const: int, mult: int, count: int):
    """hashmix of uint32 ``values`` at ``count`` successive steps from the
    hash constant ``const``, one row per step."""
    steps = np.array([const] + [mult] * count, dtype=np.uint32)
    consts = np.cumprod(steps, dtype=np.uint32)[:, None]
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> 16


def _word_count(value: int) -> int:
    """The uint32 words SeedSequence reads from a nonnegative int; 0 is one."""
    return max(1, -(-value.bit_length() // 32))


def streams(seed: int, indices):
    """For each of ``indices`` in turn, a Generator in the state of
    ``stream(seed, index)``: the same draws, bit for bit.

    One Generator is reused: each is valid until the next is taken, so draw
    from it before advancing. A negative seed or index raises ValueError, as
    SeedSequence does, before any Generator is given.
    """
    seed, indices = int(seed), [int(i) for i in indices]
    if any(i < 0 for i in indices):
        raise ValueError("expected non-negative integer")
    seed_sequence = np.random.SeedSequence(seed)
    pool = seed_sequence.pool[:, None]
    # mix_entropy pads the seed to the four pool words when a spawn key
    # follows: 16 hashes for those, 4 for each further word of the seed, and
    # then 4 for each spawn word, which an index with fewer words skips.
    done = 16 + 4 * max(0, _word_count(seed) - 4)
    words = np.array([_word_count(i) for i in indices])
    for k in range(_word_count(max(indices, default=0))):
        word = np.array([i >> 32 * k & _MASK32 for i in indices], dtype=np.uint32)
        const = _INIT_A * pow(_MULT_A, done + 4 * k, 1 << 32) & _MASK32
        pool = np.where(words > k, _mix(pool, _hash(word, const, _MULT_A, 4)), pool)
    # generate_state(4, np.uint64) hashes eight pool words, cycling through the pool.
    hashed = _hash(np.concatenate((pool, pool)), _INIT_B, _MULT_B, 8).astype(np.uint64)
    rng = np.random.Generator(np.random.PCG64(seed_sequence))
    bit_generator = rng.bit_generator
    # pcg64_set_seed: the four uint64 words (little-endian pairs) are the
    # 128-bit seed and increment, and the LCG steps twice.
    seed_hi, seed_lo, inc_hi, inc_lo = (hashed[0::2] | hashed[1::2] << np.uint64(32)).tolist()
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng
