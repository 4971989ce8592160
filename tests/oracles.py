"""Independent oracles shared by the tests.  They live outside the package
they check, so no package code can come to rely on them."""

from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import prod

import numpy as np

from phessian.symfun import sigma, sigma_minors, sigma_pair_minors


def sigma_brute(p, mu):
    """Subset-enumeration oracle for sigma_p; exponential, test use only."""
    mu = np.asarray(mu, dtype=float)
    n = len(mu)
    if p == 0:
        return 1.0
    if p < 0 or p > n:
        return 0.0
    return float(sum(np.prod([mu[i] for i in c]) for c in combinations(range(n), p)))


def rotate(rng, lam):
    """Q diag(lam) Q^T for a random orthogonal Q, symmetrized."""
    Q, _ = np.linalg.qr(rng.normal(size=(len(lam), len(lam))))
    M = Q @ np.diag(lam) @ Q.T
    return 0.5 * (M + M.T)


def with_sigma(head, p, target):
    """head (batched on the last axis) plus one last entry x with
    sigma_p(head, x) = target up to rounding: sigma_p(head, x) =
    sigma_p(head) + x sigma_{p-1}(head)."""
    head = np.asarray(head, dtype=float)

    def sig(q):
        return np.apply_along_axis(lambda row: sigma_brute(q, row), -1, head)

    x = (target - sig(p)) / sig(p - 1)
    return np.concatenate([head, np.expand_dims(x, -1)], axis=-1)


def sigma_exact(mu):
    """sigma_0(mu), ..., sigma_n(mu) of the floats mu as exact rationals
    (fractions.Fraction): the prefix recurrence without rounding."""
    e = [Fraction(1)] + [Fraction(0)] * len(mu)
    for k, x in enumerate(map(Fraction, map(float, mu))):
        for j in range(k + 1, 0, -1):
            e[j] += x * e[j - 1]
    return e


def matrix_sigma_exact(M):
    """sigma_0(lam(M)), ..., sigma_d(lam(M)) of a symmetric matrix M of
    floats or Fractions as exact rationals: Faddeev-LeVerrier without
    rounding, q sigma_q = tr(M T_{q-1}), T_q = sigma_q I - M T_{q-1}, T_0 = I."""
    d = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    out = [Fraction(1)]
    T = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for q in range(1, d + 1):
        MT = [[sum(A[i][k] * T[k][j] for k in range(d)) for j in range(d)]
              for i in range(d)]
        out.append(sum(MT[i][i] for i in range(d)) / q)
        T = [[out[q] * (i == j) - MT[i][j] for j in range(d)] for i in range(d)]
    return out


def exact_region(sigmas, p):
    """2 if sigma_1..sigma_p are all positive, 0 if one is negative, 1
    otherwise: the region of the open, complement of the closed, and the
    boundary of the cone of order p."""
    signs = [s > 0 for s in sigmas[1 : p + 1]]
    if all(signs):
        return 2
    return 0 if any(s < 0 for s in sigmas[1 : p + 1]) else 1


def concavity_sides(mu, w, r, c, weight, tau, eps):
    """Both sides of the concavity inequality (phessian.concavity) for
    batches mu (B, n) and complex w (B, n), term by term at the given w, as
    complex arrays whose imaginary parts are rounding."""
    minors = sigma_minors(r - 1, mu)
    S = sigma_pair_minors(r - 2, mu)
    wc = np.conj(w)
    cross = np.einsum("...jk,...j,...k->...", S, w, wc)
    lhs = -cross - (1.0 - tau) / mu[..., -1] * minors[..., -1] * np.abs(
        w[..., -1]
    ) ** 2
    lin = np.einsum("...j,...j->...", minors, w)
    denom = mu[..., -1:] + eps - mu[..., :-1]
    tail = np.sum(
        weight * minors[..., :-1] * np.abs(w[..., :-1]) ** 2 / denom, axis=-1
    )
    rhs = -(c / sigma(r, mu)) * np.abs(lin) ** 2 - tail
    return lhs, rhs


def concavity_form_exact(mu, r, c, weight, tau, eps):
    """The form Q(mu) of the concavity inequality, lhs - rhs = w* Q w, at
    the floats mu and parameters, as a list of rows of exact rationals."""
    c, weight, tau, eps = (Fraction(float(x)) for x in (c, weight, tau, eps))
    mu = [float(x) for x in mu]
    n = len(mu)

    def minor(q, *drop):
        rest = [x for i, x in enumerate(mu) if i not in drop]
        return sigma_exact(rest)[q] if q >= 0 else 0

    m = [minor(r - 1, j) for j in range(n)]
    lead = c / sigma_exact(mu)[r]
    top = Fraction(mu[-1])
    Q = [[lead * m[j] * m[k] - (minor(r - 2, j, k) if j != k else 0) for k in range(n)]
         for j in range(n)]
    for j in range(n - 1):
        Q[j][j] += weight * m[j] / (top + eps - Fraction(mu[j]))
    Q[-1][-1] -= (1 - tau) / top * m[-1]
    return Q


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


def subset_sigmas(mu, drop=()):
    """sigma_0, ..., sigma_m of the floats mu, the entries at the indices
    drop left out, as exact rationals: subset enumeration in Fraction."""
    x = [Fraction(float(v)) for i, v in enumerate(mu) if i not in drop]
    return [sum((prod(c) for c in combinations(x, q)), Fraction(0))
            for q in range(len(x) + 1)]


def to_decimal(x):
    """A Fraction or float as a Decimal at the current precision."""
    x = Fraction(x)
    return Decimal(x.numerator) / Decimal(x.denominator)
