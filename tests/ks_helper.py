"""Two-sample Kolmogorov-Smirnov check for the exchangeability tests."""

import math

import numpy as np
from scipy.stats import ks_2samp


def ks_two_sample(x, y, alpha: float = 0.01) -> dict:
    """Two-sample Kolmogorov-Smirnov statistic against the asymptotic
    critical value at level alpha."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    stat = float(ks_2samp(x, y).statistic)
    c_alpha = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    critical = c_alpha * math.sqrt((x.size + y.size) / (x.size * y.size))
    return {"statistic": stat, "critical": critical, "below": bool(stat < critical)}
