"""Elementary symmetric polynomials, truncated minors, and their identities.

All operations accept a single n-vector or a batch of them (any leading
shape, entries on the last axis).  Scalars come back for single vectors,
arrays for batches.  Evaluation uses the prefix recurrence

    e_p(mu_1..mu_k) = e_p(mu_1..mu_{k-1}) + mu_k * e_{p-1}(mu_1..mu_{k-1})

in index order, O(n*p) per vector, never subset enumeration.

The recurrence runs on planes: its input is the stack of entry planes
mu[..., k] (shape (n,) + batch) and its accumulator a stack of contiguous
planes e_j (shape (top+1,) + batch), so each update e_j += mu_k e_{j-1} is
one pass over contiguous memory instead of a strided one over every row's
short last axis.  Results come back as np.moveaxis views, entries on the
last axis again.  Every element sees the same operations in the same order
as in the row-major layout, so values are identical bit for bit.  The
minors and pair minors build their masked copies directly as planes and
share the one recurrence.
"""

import numpy as np


def _as_values(mu):
    mu = np.asarray(mu, dtype=float)
    if mu.ndim == 0 or mu.shape[-1] == 0:
        raise ValueError("vector must have length n >= 1")
    if not np.all(np.isfinite(mu)):
        raise ValueError("vector entries must be finite")
    return mu


def _prefix(planes, top):
    """sigma_0, ..., sigma_top of the entry planes (n,) + batch by the
    prefix recurrence, as planes (top+1,) + batch."""
    e = np.zeros((top + 1,) + planes.shape[1:])
    e[0] = 1.0
    for k in range(len(planes)):
        x = planes[k]
        for j in range(min(k + 1, top), 1, -1):
            e[j] += x * e[j - 1]
        if top:
            e[1] += x  # x * e[0]: multiplying by exactly 1 changes no bit
    return e


def _prefix_slope(planes, slopes, p):
    """sigma_p of the entry planes (n,) + batch, p >= 1, _prefix's bit for
    bit, and its derivative along the planes slopes: the tangent."""
    e, de = np.zeros((2, p + 1) + planes.shape[1:])
    e[0] = 1.0
    for k, (x, v) in enumerate(zip(planes, slopes)):
        for j in range(min(k + 1, p), 1, -1):
            de[j] += v * e[j - 1] + x * de[j - 1]
            e[j] += x * e[j - 1]
        de[1] += v  # v e[0] + x de[0], e[0] = 1, de[0] = 0
        e[1] += x
    return e[p], de[p]


def _sigma_planes(p, planes):
    """sigma_p of the entry planes (n,) + batch, shape batch: 1 if p = 0,
    0 if p < 0 or p > n."""
    if p == 0:
        return np.ones(planes.shape[1:])
    if p < 0 or p > len(planes):
        return np.zeros(planes.shape[1:])
    return _prefix(planes, p)[p]


def newton_descent(x, step):
    """Newton x <- step(x) per entry of the starts x while it decreases the
    entry.  An entry whose step does not decrease it keeps its value, and
    since that step would repeat exactly it never moves again: every entry
    steps until none descends."""
    while True:
        nxt = step(x)
        down = nxt < x
        if not down.any():
            return x
        x = np.where(down, nxt, x)


def sigma_all(mu):
    """All values sigma_0(mu), ..., sigma_n(mu) in one prefix-recurrence pass.

    Returns an array of shape batch + (n+1,).
    """
    mu = _as_values(mu)
    return np.moveaxis(_prefix(np.moveaxis(mu, -1, 0), mu.shape[-1]), 0, -1)


def sigma(p, mu):
    """sigma_p(mu): 1 if p = 0, 0 if p < 0 or p > n, else the p-th
    elementary symmetric polynomial of the entries."""
    out = _sigma_planes(p, np.moveaxis(_as_values(mu), -1, 0))
    return float(out) if out.ndim == 0 else out


def _check_indices(J, n):
    J = [int(j) for j in J]
    for j in J:
        if not 1 <= j <= n:
            raise ValueError(f"index {j} out of range [1, {n}]")
    return J


def sigma_trunc(p, mu, J):
    """sigma_p(mu | j_1 ... j_m) for a 1-based index list J.

    Zero when J repeats an index; otherwise sigma_p of mu with the listed
    entries zeroed, which equals sigma_p over the complementary entries.
    """
    mu = _as_values(mu)
    n = mu.shape[-1]
    J = _check_indices(J, n)
    if len(J) != len(set(J)):
        zero = np.zeros(mu.shape[:-1])
        return float(zero) if zero.ndim == 0 else zero
    masked = mu.copy()
    for j in J:
        masked[..., j - 1] = 0.0
    return sigma(p, masked)


def _masked_planes(mu, axes):
    """Entry planes (n,) + batch + (n,) * axes of mu, one copy of mu per
    trailing index, with entry k zeroed wherever a trailing index is k."""
    n = mu.shape[-1]
    planes = np.moveaxis(mu, -1, 0)[(...,) + (None,) * axes]
    planes = np.broadcast_to(planes, planes.shape[: mu.ndim] + (n,) * axes).copy()
    idx = np.arange(n)
    for axis in range(axes):
        planes[(idx, Ellipsis, idx) + (slice(None),) * axis] = 0.0
    return planes


def sigma_minors(p, mu):
    """Every sigma_p(mu|j), j = 1..n, along the last axis (batched).

    Plane k of the masked copy holds mu_k in column j except in column k;
    one recurrence over the planes gives all n minors.
    """
    return _sigma_planes(p, _masked_planes(_as_values(mu), 1))


def sigma_pair_minors(p, mu):
    """sigma_p(mu|jk) for every index pair as a batch + (n, n) array,
    zero on the diagonal (repeated index)."""
    mu = _as_values(mu)
    out = _sigma_planes(p, _masked_planes(mu, 2))
    idx = np.arange(mu.shape[-1])
    out[..., idx, idx] = 0.0
    return out


def _level_crossing(base, xi, p, target):
    """Largest t with sigma_p(base + t xi) = target per ray (rows xi > 0,
    target >= 0; base, xi and target broadcast over the rays).

    From t0 = max_i(-base_i / xi_i) on, the ray lies in the closed positive
    orthant, inside the closed Gamma_p: at or past the largest root of t ->
    sigma_p(base + t xi) (hyperbolic along xi in Gamma_n), where it is
    increasing and convex, and at least s^p sigma_p(xi) at t0 + s (sigma_p
    is monotone on the orthant).  So Newton from t0 + s*, s* = (target /
    sigma_p(xi))^(1/p), decreases onto the crossing (newton_descent),
    linearly at a multiple root; where s* = 0 and t0 is the root it stops
    at once.  Values and slopes come from the moved vector base + t xi
    (_prefix_slope), so a multiple root is found to the last bits.  A step
    is taken only where the slope is positive and finite.  Each ray runs on
    base, target and t scaled by 2^-e, e the frexp exponent of
    max(|base|_inf, s*), as cone._regions scales: nothing overflows, and
    the bits are those of the unscaled run wherever it neither over- nor
    underflows.  A ray with an entry xi_i <= 0 has no finite start and
    raises ValueError up front.
    """
    base, xi = np.broadcast_arrays(_as_values(base), _as_values(xi))
    flat = np.flatnonzero(~np.all(xi > 0, axis=-1))
    if flat.size:
        raise ValueError(
            f"xi has an entry <= 0 on ray {flat[0]}: its start, where the ray "
            f"enters the positive orthant, is not finite"
        )
    b, v = (np.moveaxis(a, -1, 0).copy() for a in (base, xi))
    s = (target / _sigma_planes(p, v)) ** (1.0 / p)
    e = np.frexp(np.maximum(np.max(np.abs(base), axis=-1), s))[1]
    np.ldexp(b, -e, out=b)
    level = np.ldexp(target, -p * e)

    def newton(t):
        g, dg = _prefix_slope(b + t * v, v, p)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = t - (g - level) / dg
        return np.where((dg > 0) & np.isfinite(step), step, t)
    start = np.max(-b / v, axis=0) + np.ldexp(s, -e)
    return np.ldexp(newton_descent(start, newton), e)


def sigma_root_grad(p, mu):
    """(f, grad f) for f = sigma_p^{1/p} at mu in the open cone (batched):

        df/dmu_j = (1/p) sigma_p^{1/p-1} sigma_{p-1}(mu|j).

    A single vector is a batch of one, so it matches its row in any batch
    bit for bit.
    """
    mu = _as_values(mu)
    rows = mu[None] if mu.ndim == 1 else mu
    sp = sigma(p, rows)
    grad = (1.0 / p) * sp[..., None] ** (1.0 / p - 1.0) * sigma_minors(p - 1, rows)
    f = sp ** (1.0 / p)
    return (f[0], grad[0]) if mu.ndim == 1 else (f, grad)


def _residual(lhs, rhs):
    """|lhs - rhs|, relative once either side exceeds 1 in magnitude."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return np.abs(lhs - rhs) / scale


def identity_residuals(p, mu, expansion_indices=None):
    """Residuals of the full identity family at (p, mu).

    Returns a map name -> residual (scalar for a single vector, array for a
    batch).  Covered identities:

    * ``recurrence_j{j}``      sigma_p = mu_j sigma_{p-1}(mu|j) + sigma_p(mu|j)
    * ``minor_sum``            sum_k sigma_p(mu|k) = (n-p) sigma_p
    * ``weighted_minor_sum``   sum_k mu_k sigma_p(mu|k) = (p+1) sigma_{p+1}
    * ``square_weighted_minor_sum``
        sum_k mu_k^2 sigma_p(mu|k) = sigma_1 sigma_{p+1} - (p+2) sigma_{p+2}
    * ``expansion``            the full multi-index expansion of sigma_p for
                               the supplied non-empty distinct index list
                               (default: all of 1..n)
    * ``minor_difference_{j1}_{j2}``
        sigma_{p-1}(mu|j1) - sigma_{p-1}(mu|j2)
            = (mu_{j2} - mu_{j1}) sigma_{p-2}(mu|j1 j2)
    """
    mu = _as_values(mu)
    n = mu.shape[-1]
    single = mu.ndim == 1

    sp = sigma(p, mu)
    out = {}

    minors = sigma_minors(p, mu)
    lower = sigma_minors(p - 1, mu)
    for j in range(1, n + 1):
        rhs = mu[..., j - 1] * lower[..., j - 1] + minors[..., j - 1]
        out[f"recurrence_j{j}"] = _residual(sp, rhs)

    out["minor_sum"] = _residual(minors.sum(axis=-1), (n - p) * sp)
    out["weighted_minor_sum"] = _residual(
        (mu * minors).sum(axis=-1), (p + 1) * sigma(p + 1, mu)
    )
    out["square_weighted_minor_sum"] = _residual(
        (mu**2 * minors).sum(axis=-1),
        sigma(1, mu) * sigma(p + 1, mu) - (p + 2) * sigma(p + 2, mu),
    )

    if expansion_indices is None:
        idx = list(range(1, n + 1))
    else:
        idx = _check_indices(expansion_indices, n)
        if not idx or len(idx) != len(set(idx)):
            raise ValueError("expansion indices must be non-empty and distinct")
    m = len(idx)
    prod = np.ones(mu.shape[:-1])
    rhs = np.asarray(
        np.prod(mu[..., [j - 1 for j in idx]], axis=-1)
        * sigma_trunc(p - m, mu, idx)
        + sigma_trunc(p, mu, idx[:1]),
        dtype=float,
    )
    for q in range(1, m):
        prod = prod * mu[..., idx[q - 1] - 1]
        rhs = rhs + prod * sigma_trunc(p - q, mu, idx[: q + 1])
    out["expansion"] = _residual(sp, rhs)

    pairs = sigma_pair_minors(p - 2, mu)
    for j1 in range(1, n + 1):
        for j2 in range(j1 + 1, n + 1):
            lhs = lower[..., j1 - 1] - lower[..., j2 - 1]
            rhs = (mu[..., j2 - 1] - mu[..., j1 - 1]) * pairs[..., j1 - 1, j2 - 1]
            out[f"minor_difference_{j1}_{j2}"] = _residual(lhs, rhs)

    if single:
        out = {k: float(v) for k, v in out.items()}
    return out

