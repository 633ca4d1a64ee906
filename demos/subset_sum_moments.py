"""Moments of a sum over a uniform random k-subset, exactly and by bound.

Pick k of the m entries of a vector a uniformly without replacement and add
them up. The first two moments of that sum have closed forms in the power
sums of a, and the fourth moment has a cheap upper bound. This script
compares the closed forms against brute-force enumeration over all C(m, k)
subsets and shows the sub-Gaussian tail bound at a few thresholds.

Run:  python demos/subset_sum_moments.py
"""

import numpy as np

from exspec.rng import stream
from exspec.subset import (
    SubsetSumProblem,
    enumerate_exact,
    fourth_moment_bound,
    second_moment_exact,
)

rng = stream(99)
a = rng.normal(0, 1, size=10)
p = SubsetSumProblem(a=np.round(a, 2), k=4)

print(f"a = {p.a[0].tolist()}")
print(f"k = {p.k} of m = {p.m}\n")

# Each oracle returns one row per problem of the stack p; p holds one.
m2_closed = second_moment_exact(p)[0]
m2_enum = enumerate_exact(p, "moment", 2)[0, 0]
print(f"second moment: closed form {m2_closed:.6f}, enumeration {m2_enum:.6f}")

m4_enum = enumerate_exact(p, "moment", 4)[0, 0]
m4_bound = fourth_moment_bound(p)[0]
print(f"fourth moment: enumeration {m4_enum:.4f} <= bound {m4_bound:.4f}\n")

norm = float(np.linalg.norm(p.a))
print("tail P{|S - ES| >= t} vs 2 exp(-2 t^2 / ||a||_2^2):")
for mult in (0.25, 0.5, 1.0):
    t = mult * norm
    exact = enumerate_exact(p, "tail", t)[0, 0]
    bound = 2 * np.exp(-2 * t * t / (norm * norm))
    print(f"    t = {t:.3f}: exact {exact:.4f} <= {bound:.4f}")
