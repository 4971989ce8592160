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


def _rounding(n, q):
    """2(n + q) eps.  The prefix recurrence rounds each monomial of sigma_q
    of n entries at most n + q - 1 times, so it and its sigma_q(|mu|) err
    by at most gamma_{n+q-1} sigma_q(|mu|), gamma_k = k u / (1 - k u),
    u = eps / 2 (Higham 2002, ch. 3): this covers both four times over."""
    return 2 * (n + q) * np.finfo(float).eps


class _Rounded:
    """A computed value and err, a bound on its distance to the exact value
    of the same expression at the float inputs: running error analysis
    (Higham 2002, sec. 3.3).  The arithmetic computes the value as plain
    numpy does, operand for operand, so it is that expression's bit for
    bit; each result's err adds eps |z| for its own rounding (a correctly
    rounded result z is within u / (1 - u) < eps |z| of its exact value) to
    what its operands' errs propagate:

        x +- y      ex + ey
        x y         |x| ey + |y| ex + ex ey
        x / y       (|z| ey + ex) / (|y| - ey), infinite unless |y| > ey
        x ** e      |z| (eps + expm1(|e| (eps |log x| - log1p(-ex/x))))
        sum(x)      sum ex + (m - 1) eps sum |x|, m terms in any order
        prod(x)     prod(|x| + ex) sum(ex / (|x| + ex)) + (m - 1) eps |z|
        min(x)      max ex

    The power's eps is a second ulp for pow itself, and its expm1 bounds
    expm1(a) + expm1(b) (expm1 is superadditive on a, b >= 0): a = eps |e
    log x| for the exponent e, within eps |e| of a rational one, and b =
    -|e| log1p(-ex/x) for a base known to relative ex/x, as |(1 + d)^e -
    1| <= (1 - r)^-|e| - 1 for |d| <= r < 1.  Where a bound is undefined
    (x <= ex under a power) err is not finite, so no verdict holds there.

    An int or array operand is exact; a float one is a constant rounded
    once.  An array that is indexed carries an err of its own shape.  err
    itself is rounded, by a factor 1 - O(u) per operation: 2 err, the
    bound a check reports, covers that and the 1 + O(u) factors left out
    above."""

    def __init__(self, value, err=0.0):
        self.value, self.err = value, err

    def _result(self, z, err):
        return _Rounded(z, err + np.finfo(float).eps * np.abs(z))

    def __getitem__(self, i):
        return _Rounded(self.value[i], self.err[i])

    def __add__(self, y):
        v, e = _parts(y)
        return self._result(self.value + v, self.err + e)

    def __sub__(self, y):
        v, e = _parts(y)
        return self._result(self.value - v, self.err + e)

    def __mul__(self, y):
        v, e = _parts(y)
        return self._result(self.value * v, np.abs(self.value) * e + np.abs(v) * self.err
                            + self.err * e)

    __rmul__ = __mul__

    def __truediv__(self, y):
        v, e = _parts(y)
        z, den = self.value / v, np.abs(v) - e
        num = np.abs(z) * e + self.err
        return self._result(z, np.divide(num, den, out=np.full(num.shape, np.inf),
                                         where=den > 0))

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def __pow__(self, e):
        x, z, eps = self.value, self.value**e, np.finfo(float).eps
        rel = eps + np.expm1(abs(e) * (eps * np.abs(np.log(x)) - np.log1p(-self.err / x)))
        return self._result(z, np.abs(z) * rel)

    def sum(self):
        x, eps = self.value, np.finfo(float).eps
        return _Rounded(np.sum(x, axis=-1),
                        np.sum(self.err + (x.shape[-1] - 1) * eps * np.abs(x), axis=-1))

    def prod(self):
        a, z = np.abs(self.value) + self.err, np.prod(self.value, axis=-1)
        share = np.divide(self.err, a, out=np.zeros(a.shape), where=a > 0)
        return _Rounded(z, np.prod(a, axis=-1) * np.sum(share, axis=-1)
                        + (a.shape[-1] - 1) * np.finfo(float).eps * np.abs(z))

    def min(self):
        return _Rounded(np.min(self.value, axis=-1), np.max(self.err, axis=-1))


def _rounded(f, q, mu):
    """f(q, mu), f a prefix recurrence of order q (sigma, sigma_minors or a
    selection of sigma_all), as _Rounded within _rounding(n, q) f(q, |mu|)."""
    return _Rounded(f(q, mu), _rounding(mu.shape[-1], q) * f(q, np.abs(mu)))


def _parts(y):
    """(value, err) of an operand of _Rounded arithmetic."""
    if isinstance(y, _Rounded):
        return y.value, y.err
    return y, np.finfo(float).eps * abs(y) if isinstance(y, float) else 0.0


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
    bit for bit.  The values of _root_grad.
    """
    mu = _as_values(mu)
    f, grad = (x.value for x in _root_grad(p, mu[None] if mu.ndim == 1 else mu))
    return (f[0], grad[0]) if mu.ndim == 1 else (f, grad)


def _root_grad(p, rows):
    """(f, grad f) of sigma_root_grad at rows (B, n) as _Rounded: sigma_p
    and the minors within their _rounding of the exact values, carried
    through the powers and products."""
    sp, minors = _rounded(sigma, p, rows), _rounded(sigma_minors, p - 1, rows)
    return sp ** (1.0 / p), (1.0 / p) * sp[..., None] ** (1.0 / p - 1.0) * minors


def _identity_sides(p, mu, idx):
    """name -> (lhs, rhs) of each identity of identity_residuals at the
    batch mu, both sides sums of products with positive coefficients.  An
    identity whose sides both vanish identically is left out: the three
    weighted sums at p = n and the minor differences at p = 0."""
    n = mu.shape[-1]
    sp = sigma(p, mu)
    minors = sigma_minors(p, mu)
    lower = sigma_minors(p - 1, mu)
    out = {f"recurrence_j{j + 1}": (sp, mu[..., j] * lower[..., j] + minors[..., j])
           for j in range(n)}
    if p < n:
        out["minor_sum"] = (minors.sum(axis=-1), (n - p) * sp)
        out["weighted_minor_sum"] = ((mu * minors).sum(axis=-1), (p + 1) * sigma(p + 1, mu))
        out["square_weighted_minor_sum"] = (
            (mu**2 * minors).sum(axis=-1) + (p + 2) * sigma(p + 2, mu),
            sigma(1, mu) * sigma(p + 1, mu),
        )
    rhs = 0.0
    for q in range(len(idx) + 1):
        rhs = rhs + np.prod(mu[..., [j - 1 for j in idx[:q]]], axis=-1) * sigma_trunc(
            p - q, mu, idx[: q + 1])
    out["expansion"] = (sp, rhs)
    pairs = sigma_pair_minors(p - 2, mu)
    for j1 in range(n if p else 0):
        for j2 in range(j1 + 1, n):
            out[f"minor_difference_{j1 + 1}_{j2 + 1}"] = tuple(
                lower[..., a] + mu[..., a] * pairs[..., j1, j2] for a in (j1, j2)
            )
    return out


def identity_residuals(p, mu, expansion_indices=None):
    """(residual, bound) of the full identity family at (p, mu), 0 <= p <= n.

    Each is a map name -> value (a float for a single vector, an array for
    a batch): residual = |lhs - rhs| and the bound it stays below wherever
    the identity holds.  Covered identities, each written as two sides with
    positive coefficients:

    * ``recurrence_j{j}``      sigma_p = mu_j sigma_{p-1}(mu|j) + sigma_p(mu|j)
    * ``minor_sum``            sum_k sigma_p(mu|k) = (n-p) sigma_p
    * ``weighted_minor_sum``   sum_k mu_k sigma_p(mu|k) = (p+1) sigma_{p+1}
    * ``square_weighted_minor_sum``
        sum_k mu_k^2 sigma_p(mu|k) + (p+2) sigma_{p+2} = sigma_1 sigma_{p+1}
    * ``expansion``            the full multi-index expansion of sigma_p for
                               the supplied non-empty distinct index list
                               (default: all of 1..n)
    * ``minor_difference_{j1}_{j2}``
        sigma_{p-1}(mu|j1) + mu_{j1} sigma_{p-2}(mu|j1 j2)
            = sigma_{p-1}(mu|j2) + mu_{j2} sigma_{p-2}(mu|j1 j2)

    The bound is gamma_K (lhs + rhs)(|mu|), both sides evaluated at |mu| by
    the same code in the same batched call (Higham 2002, ch. 3).  Each
    monomial of a side is rounded at most K = 2n + p + 1 times: n + q - 1
    in a sigma_q or minor of n entries (_rounding), one per product or sum
    of two terms, n - 1 in a sum of n terms (any order), and m <= n in the
    expansion's sum and products of m entries; the square-weighted sum's
    left side, with 2n + p + 1, is the deepest.  So each computed side is
    within gamma_K of its value at |mu|, and lhs = rhs exactly.  The
    coefficient _rounding(n, n + p + 1) = 4 K u is gamma_K four times over,
    which covers the rounding of the residual and of the bound themselves.
    Underflow is outside this model; an identity whose sides vanish, as
    most do at the zero vector, has residual = bound = 0.
    """
    mu = _as_values(mu)
    n = mu.shape[-1]
    if expansion_indices is None:
        idx = list(range(1, n + 1))
    else:
        idx = _check_indices(expansion_indices, n)
        if not idx or len(idx) != len(set(idx)):
            raise ValueError("expansion indices must be non-empty and distinct")
    sides = _identity_sides(p, np.stack([mu, np.abs(mu)]), idx)
    coef = _rounding(n, n + p + 1)
    residual = {k: np.abs(lhs[0] - rhs[0]) for k, (lhs, rhs) in sides.items()}
    bound = {k: coef * (lhs[1] + rhs[1]) for k, (lhs, rhs) in sides.items()}
    if mu.ndim == 1:
        return tuple({k: float(v) for k, v in d.items()} for d in (residual, bound))
    return residual, bound
