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


def roll_grad(f, h):
    """Central first differences by np.roll, one array per axis."""
    return np.stack(
        [
            (np.roll(f, -1, axis=m) - np.roll(f, 1, axis=m)) / (2.0 * h[m])
            for m in range(f.ndim)
        ]
    )


def roll_hess(f, h):
    """Central second differences by np.roll; shape (d, d) + f.shape."""
    d = f.ndim
    H = np.empty((d, d) + f.shape)
    for i in range(d):
        # f(x +- e_i), rolled once for the diagonal and every cross term
        fp = np.roll(f, -1, axis=i)
        fm = np.roll(f, 1, axis=i)
        H[i, i] = (fp - 2.0 * f + fm) / h[i] ** 2
        for j in range(i + 1, d):
            cross = (
                np.roll(fp, -1, axis=j)
                - np.roll(fp, 1, axis=j)
                - np.roll(fm, -1, axis=j)
                + np.roll(fm, 1, axis=j)
            ) / (4.0 * h[i] * h[j])
            H[i, j] = cross
            H[j, i] = cross
    return H


def roll_jacobian(s, F, G, H, h):
    """J s = sum_jk F^{jk} D_jk s + sum_m G_m D_m s + H s with the np.roll
    differences; F is shape + (d, d), G is (d,) + shape, and F, G and H may
    be constants that broadcast."""
    out = np.einsum("...jk,jk...->...", F, roll_hess(s, h))
    out += np.einsum("m...,m...->...", G, roll_grad(s, h))
    out += H * s
    return out
