"""Counter-based seeded random streams.

Every Monte Carlo routine in this package derives the generator for trial
``index`` from the pair (seed, index) alone, so a run is reproducible
bit-for-bit no matter how trials are scheduled across workers.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["stream", "worker_count", "parallel_map"]


def stream(seed: int, *index: int) -> np.random.Generator:
    """Independent generator for a (seed, index...) tuple."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in index))
    return np.random.default_rng(ss)


def worker_count() -> int:
    """Worker cap from EXSPEC_THREADS (default 1), at most os.cpu_count()."""
    try:
        requested = int(os.environ.get("EXSPEC_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, min(requested, os.cpu_count() or 1))


def parallel_map(fn, count: int) -> list:
    """Apply ``fn(i)`` for i in range(count), results in index order.

    ``fn`` must be pure in its index argument; the output is then identical
    at any worker count.
    """
    workers = worker_count()
    if workers <= 1 or count < 2:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, range(count)))
