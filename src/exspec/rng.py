"""Counter-based seeded random streams.

Every Monte Carlo routine in this package derives the generator for trial
``index`` from the pair (seed, index) alone, so a run is reproducible
bit-for-bit and does not depend on the order in which trials are drawn.
"""

import numpy as np

__all__ = ["stream"]


def stream(seed: int, *index: int) -> np.random.Generator:
    """Independent generator for a (seed, index...) tuple."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in index))
    return np.random.default_rng(ss)
