"""Independent oracles shared by the tests.  They live outside the package
they check, so no package code can come to rely on them."""

from itertools import combinations

import numpy as np


def sigma_brute(p, mu):
    """Subset-enumeration oracle for sigma_p; exponential, test use only."""
    mu = np.asarray(mu, dtype=float)
    n = len(mu)
    if p == 0:
        return 1.0
    if p < 0 or p > n:
        return 0.0
    return float(sum(np.prod([mu[i] for i in c]) for c in combinations(range(n), p)))
