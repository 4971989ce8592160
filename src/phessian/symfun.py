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
minors and pair minors build their masked copies directly as planes, and
callers that hold their vectors as planes (the level-crossing Newton of
subsolution) evaluate them with sigma_planes; all share the one
recurrence.
"""

import numpy as np


def _require_finite(a):
    if not np.all(np.isfinite(a)):
        raise ValueError("vector entries must be finite")


def _as_values(mu):
    mu = np.asarray(mu, dtype=float)
    if mu.ndim == 0 or mu.shape[-1] == 0:
        raise ValueError("vector must have length n >= 1")
    _require_finite(mu)
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


def _sigma_planes(p, planes):
    """sigma_p of the entry planes (n,) + batch, shape batch: 1 if p = 0,
    0 if p < 0 or p > n."""
    if p == 0:
        return np.ones(planes.shape[1:])
    if p < 0 or p > len(planes):
        return np.zeros(planes.shape[1:])
    return _prefix(planes, p)[p]


def sigma_planes(p, planes):
    """sigma_p of the entry planes (n,) + batch, shape batch: the vectors
    np.moveaxis(planes, 0, -1), entries checked finite as in sigma."""
    _require_finite(planes)
    return _sigma_planes(p, planes)


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


def sigma_ray_coeffs(p, base, xi):
    """Coefficients c_0..c_p (ascending, batch + (p+1,)) of t -> sigma_p(base
    + t xi), p >= 0: the prefix recurrence with polynomial entries, O(n p^2)
    per ray.  base and xi broadcast against each other."""
    base, xi = np.broadcast_arrays(_as_values(base), _as_values(xi))
    e = np.zeros((p + 1, p + 1) + base.shape[:-1])  # e[j, k]: t^k of sigma_j
    e[0, 0] = 1.0
    for k in range(base.shape[-1]):
        b, x = base[..., k], xi[..., k]
        for j in range(min(k + 1, p), 1, -1):
            e[j, 1:] += x * e[j - 1, :-1]
            e[j] += b * e[j - 1]
        if p:  # e[0] = (1, 0, ..., 0): adding its products changes no bit
            e[1, 1] += x
            e[1, 0] += b
    return np.moveaxis(e[p], 0, -1)


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
                               the supplied distinct index list (default: all
                               of 1..n)
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
        if len(idx) != len(set(idx)):
            raise ValueError("expansion indices must be distinct")
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


def sigma_brute(p, mu):
    """Subset-enumeration oracle for sigma_p; exponential, test use only."""
    from itertools import combinations

    mu = np.asarray(mu, dtype=float)
    n = len(mu)
    if p == 0:
        return 1.0
    if p < 0 or p > n:
        return 0.0
    return float(sum(np.prod([mu[i] for i in c]) for c in combinations(range(n), p)))
