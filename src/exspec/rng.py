"""Counter-based seeded random streams.

Every Monte Carlo routine in this package derives the generator for trial
``index`` from the pair (seed, index) alone, so a run is reproducible
bit-for-bit and does not depend on the order in which trials are drawn.

``stream(seed, index)`` is numpy's own ``SeedSequence(seed,
spawn_key=(index,))`` seeding a PCG64 ``Generator`` (NEP 19); it is the
reference, and it serves ``verify``, the demos and the tests. ``streams``
gives the same generator states for a whole chunk of indices at once: the
seed's words are hashed into the SeedSequence pool once, with Python ints,
and only each index's spawn words are mixed in, as uint32 arrays over the
chunk. Each state is then set on one reused ``Generator``. A handful of
indices is seeded by ``stream``, which is faster there.
"""

import itertools

import numpy as np

__all__ = ["stream", "streams"]

# numpy's SeedSequence (bit_generator.pyx): a pool of four uint32 words, the
# hash constants of mix_entropy (A) and generate_state (B), and the mixer.
_POOL_SIZE = 4
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


def _words(value: int) -> list:
    """A nonnegative int as SeedSequence reads it: uint32 words, least
    significant first, and [0] for 0."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _mix(x, y):
    """SeedSequence's mix of two uint32 words, ints or arrays alike."""
    result = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _seed_pool(seed: int):
    """SeedSequence.mix_entropy of the seed's words, padded to the pool as
    they are when a spawn key follows: the pool, and the hash constant that
    the spawn key's words go on from."""
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool, const


def _hash_steps(const: int, mult: int, count: int):
    """``count`` successive hashmix steps from ``const``: the constants each
    step xors with and multiplies by, as (count, 1) uint32 columns."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return (np.array(consts[:-1], dtype=np.uint32)[:, None],
            np.array(consts[1:], dtype=np.uint32)[:, None])


def _hash(values, steps):
    """hashmix of uint32 ``values`` at each of ``steps``, one row per step."""
    xors, mults = steps
    values = (values ^ xors) * mults
    return values ^ values >> 16


# generate_state(4, np.uint64) hashes eight pool words, cycling through the pool.
_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
# Fewer indices than this take numpy's own seeding, index by index: the
# mirror's fixed cost (about 60 us: the seed's pool, a Generator, some 25
# ufunc calls) is that of four to six SeedSequence and default_rng calls
# (12-15 us each), and it adds 4-5 us an index against their 12-15 (2 cores).
_MIRROR_MIN = 8


def streams(seed: int, indices):
    """For each of ``indices`` in turn, a Generator in the state of
    ``stream(seed, index)``: the same draws, bit for bit.

    From ``_MIRROR_MIN`` indices on, one Generator is reused: each is valid
    until the next is taken, so draw from it before advancing. A negative
    seed or index raises ValueError, as SeedSequence does.
    """
    if len(indices) < _MIRROR_MIN:
        for index in indices:
            yield stream(seed, index)
        return
    pool, const = _seed_pool(int(seed))
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    # Indices with as many spawn words mix alike, so each run of them is mixed at once.
    for _, run in itertools.groupby((_words(int(i)) for i in indices), key=len):
        spawn = np.array(list(run), dtype=np.uint32).T
        # Each spawn word mixes into the four pool words at four successive steps.
        steps = _hash_steps(const, _MULT_A, _POOL_SIZE * len(spawn))
        mixed = np.array(pool, dtype=np.uint32)[:, None]
        for k, word in enumerate(spawn):
            at = slice(_POOL_SIZE * k, _POOL_SIZE * (k + 1))
            mixed = _mix(mixed, _hash(word, (steps[0][at], steps[1][at])))
        words = _hash(np.tile(mixed, (2, 1)), _STATE_STEPS).astype(np.uint64)
        # pcg64_set_seed: the four uint64 words (little-endian pairs) are the
        # 128-bit seed and increment, and the LCG steps twice.
        seed_hi, seed_lo, inc_hi, inc_lo = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
        for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            yield rng
