"""Garding cone geometry: membership, the diagonal shift into the cone, and
the classical inequality families (Newton-Maclaurin, Maclaurin, and the
technical inequalities for sorted admissible vectors).

One classifier decides every region test, so classify, classify_batch,
require_cone, cone_distance and sample_admissible agree verdict for verdict;
a sign of sigma_q counts only where it clears its rounding bound (_regions).
"""

import functools
from dataclasses import dataclass
from itertools import product
from math import comb

import numpy as np

from .errors import AdmissibilityError, InputError
from .symfun import (
    _as_values, _level_crossing, _prefix, _Rounded, _rounded, _rounding, sigma_all,
    sigma_minors,
)

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"


@dataclass(frozen=True)
class ConeSpec:
    """Dimension n and cone order p, 1 <= p <= n."""

    n: int
    p: int

    def __post_init__(self):
        if not 1 <= self.p <= self.n:
            raise InputError(f"need 1 <= p <= n, got p={self.p}, n={self.n}")


@dataclass(frozen=True)
class ConeVerdict:
    region: str
    sigma_values: tuple  # sigma_1(mu), ..., sigma_p(mu)


def _region_codes(sigs, tau):
    """Region codes (2 interior, 1 boundary, 0 outside) from sigma_1..sigma_p
    and their rounding bounds tau: |sigma_q| <= tau_q counts as zero.  Reduces
    over q column by column: np.all over a short last axis is slow on long
    batches."""
    interior = closed = True
    for q in range(sigs.shape[-1]):
        interior = interior & (sigs[..., q] > tau[..., q])
        closed = closed & (sigs[..., q] >= -tau[..., q])
    boundary = (np.abs(sigs[..., -1]) <= tau[..., -1]) & closed
    return np.where(interior, 2, np.where(boundary, 1, 0))


def _regions(mu, p):
    """Region codes and sigma_1..sigma_p, batched: a sign counts only where
    |sigma_q| clears tau_q = _rounding(n, q) sigma_q(|mu|).  Both sums run
    on the entry planes of mu 2^-e, e the frexp exponent of ||mu||_inf:
    nothing overflows, a power of two scales no verdict, and sigma_q(|mu
    2^-e|) <= C(n, q), so a row clearing that cap's bound needs no second
    sum.  Each underflow errs by at most 2^-1075, with total weight
    (n + 2) 2^(n-1) per sum, so tau_q adds (n + 2) 2^(n+1-1074); the zero
    vector is boundary.  The sigma values come back through ldexp,
    sigma_all(mu)'s bits wherever neither pass under- or overflows."""
    n = mu.shape[-1]
    planes = np.moveaxis(mu, -1, 0)
    top = functools.reduce(np.maximum, (np.abs(x) for x in planes))
    e = np.frexp(top)[1]
    unit = np.ldexp(planes, -e, out=np.empty(planes.shape))
    sigs = _prefix(unit, p)[1:]
    q = np.arange(1, p + 1, dtype=e.dtype).reshape((p,) + (1,) * e.ndim)
    coef = _rounding(n, q)
    tiny = np.ldexp(n + 2.0, n + 1 - 1074)
    cap = coef * np.array([comb(n, k) for k in range(p + 1)])[q] + tiny
    tau = np.broadcast_to(cap, sigs.shape)
    near = np.any(np.abs(sigs) <= tau, axis=0)
    if near.any():
        tau = tau.copy()
        tau[:, near] = _prefix(np.abs(unit[:, near]), p)[1:] * coef.reshape(p, 1) + tiny
    codes = _region_codes(np.moveaxis(sigs, 0, -1), np.moveaxis(tau, 0, -1))
    with np.errstate(over="ignore"):
        np.ldexp(sigs, e * q, out=sigs)
    return codes, np.moveaxis(sigs, 0, -1)


def classify(mu, spec):
    """Locate mu relative to the cone: interior, boundary, or outside."""
    mu = _as_values(mu)
    if mu.ndim != 1 or len(mu) != spec.n:
        raise ValueError(f"expected a vector of length {spec.n}")
    code, sigs = _regions(mu, spec.p)
    region = (OUTSIDE, BOUNDARY, INTERIOR)[int(code)]
    return ConeVerdict(region, tuple(float(s) for s in sigs))


def classify_batch(mu, spec):
    """Vectorized region codes for a batch of vectors.

    Returns an integer array: 2 interior, 1 boundary, 0 outside, the same
    verdicts as classify.  ValueError unless the rows have length n.
    """
    mu = _as_values(mu)
    if mu.shape[-1] != spec.n:
        raise ValueError(f"expected a vector of length {spec.n}")
    return _regions(mu, spec.p)[0]


def require_cone(mu, spec, name="mu", closed=False):
    """Raise AdmissibilityError unless mu lies in the open cone (the closed
    cone when closed).  Batched: the error names the first row that fails."""
    mu = _as_values(mu)
    bad = classify_batch(mu, spec) < (1 if closed else 2)
    if np.any(bad):
        row = mu[np.unravel_index(np.argmax(bad), bad.shape)]
        kind = "closed" if closed else "open"
        raise AdmissibilityError(
            f"{name} = {row} is not in the {kind} cone of order {spec.p}", lam=row
        )


def cone_distance(mu, spec):
    """Infimum t* >= 0 with mu + t*1_n in the cone for every t > t*.

    Batched like sigma; a single vector is a batch of one.  Gamma_p is
    sigma_p's hyperbolicity cone around 1_n (Garding 1959), so t* is the
    largest root of sigma_p(mu + t1), clamped at 0 (_level_crossing: its
    Newton starts at -min(mu), that root itself when p = n, and runs on mu
    scaled by a power of two, so no entry size overflows it).  Rows that
    classify_batch puts in the closed cone return exactly 0.
    """
    mu = _as_values(mu)
    rows = mu.reshape(-1, mu.shape[-1])
    t = np.zeros(len(rows))
    out = np.flatnonzero(classify_batch(rows, spec) == 0)
    t[out] = np.maximum(_level_crossing(rows[out], np.ones(spec.n), spec.p, 0.0), 0.0)
    return float(t[0]) if mu.ndim == 1 else t.reshape(mu.shape[:-1])


def verdict(value, bound):
    """The verdict on rows of a check, each a value and the bound on its
    rounding, flattened in C order: a row holds where value > bound, is
    violated where value < -bound and is undetermined otherwise, as is
    every row whose value or bound is not finite.

    Returns (counts, worst, first): the number of rows of each kind under
    the keys held, violated and undetermined, the row of the smallest
    value (a NaN counting as the largest) and the first violated row (None
    without rows, or without a violated one)."""
    value, bound = (np.ravel(a) for a in np.broadcast_arrays(value, bound))
    finite = np.isfinite(value) & np.isfinite(bound)
    held = int(np.count_nonzero(finite & (value > bound)))
    bad = np.flatnonzero(finite & (value < -bound))
    counts = {"held": held, "violated": bad.size, "undetermined": value.size - held - bad.size}
    worst = int(np.argmin(np.where(np.isnan(value), np.inf, value))) if value.size else None
    return counts, worst, int(bad[0]) if bad.size else None


def _batch_of_one(report):
    """Run a batched report on a single vector as a batch of one, so a
    single vector's floats equal its row in any batch bit for bit."""

    def run(mu, spec):
        mu = _as_values(mu)
        if mu.ndim > 1:
            return report(mu, spec)
        return tuple({k: float(v[0]) for k, v in part.items()}
                     for part in report(mu[None], spec))

    return functools.wraps(report)(run)


def _sigmas(q, mu):
    """sigma_q(mu) of the orders q (an array), along the last axis."""
    return sigma_all(mu)[..., q]


@_batch_of_one
def maclaurin_report(mu, spec):
    """(slack, bound) of the generalized Newton-Maclaurin family.

    For every (j, k, l, m) with 0 <= k < j <= p+1, 0 <= m < l <= p, l <= j,
    m <= k and (j, k) != (l, m) -- where the two sides coincide -- slack is
    RHS - LHS of the normalized-quotient inequality

        (sigma_j / C(n,j)) / (sigma_k / C(n,k))
            <= [ (sigma_l / C(n,l)) / (sigma_m / C(n,m)) ]^{(j-k)/(l-m)}

    and bound the bound on its rounding: each sigma_q within _rounding(n,
    q) sigma_q(|mu|), carried through the quotients and the power, pow's
    own rounding and that of its exponent included (_Rounded).

    Batched: a key maps to a float for a single vector and to an array over
    the batch otherwise.  Precondition: every row in the open cone.
    """
    n, p = spec.n, spec.p
    require_cone(mu, spec)
    top = min(n, p + 1)
    q = np.arange(top + 1)
    norm = _rounded(_sigmas, q, mu) / np.array([comb(n, k) for k in q])
    quotient = functools.cache(lambda a, b: norm[..., a] / norm[..., b])
    slack, bound = {}, {}
    for key in product(range(top + 1), repeat=4):
        j, k, l, m = key
        if k < j and m < l <= min(j, p) and m <= k and (j, k) != (l, m):
            s = quotient(l, m) ** ((j - k) / (l - m)) - quotient(j, k)
            slack[key], bound[key] = s.value, 2 * s.err
    return slack, bound


@_batch_of_one
def tech_ineq_report(mu, spec):
    """(value, bound) of the technical inequalities at sorted admissible mu.

    Each inequality is reported as a slack that is positive where it holds,
    with the bound on its rounding (_Rounded, from each sigma_q's
    _rounding); the two inequalities whose constants are only known to
    exist are reported as realized ratios so callers can track empirical
    suprema.  They are checks of nothing, so bound has no key for them.
    Batched like maclaurin_report.
    Precondition: every row sorted ascending, p >= 2, every row in the open
    cone.
    """
    n, p = spec.n, spec.p
    if p < 2:
        raise ValueError("technical inequalities need p >= 2")
    if np.any(np.diff(mu, axis=-1) < 0):
        raise ValueError("mu must be sorted ascending")
    require_cone(mu, spec)

    sigs = _rounded(_sigmas, np.arange(n + 1), mu)
    sp, spm1 = sigs[..., p], sigs[..., p - 1]
    spp1 = sigs.value[..., p + 1] if p < n else np.zeros_like(sp.value)
    minors = _rounded(sigma_minors, p - 1, mu)
    x = _Rounded(mu, np.zeros(mu.shape))

    out = {}
    out["partial_sum"] = x[..., : n - p + 1].sum()
    out["top_spread"] = (n - p) * x[..., n - p] + x[..., 0]
    out["min_entry"] = x[..., 0] + (n - p) / (p * (n - 1)) * x[..., 1:].sum()
    out["sigma_pm1_lower"] = spm1 - x[..., n - p + 1 :].prod()
    out["minor_chain_min_gap"] = (minors[..., :-1] - minors[..., 1:]).min()
    out["minor_positive"] = minors[..., -1]
    out["top_minor"] = x[..., -1] * minors[..., -1] - p / n * sp

    pref = sp ** (1.0 / p - 1.0)
    terms = pref[..., None] * minors / p
    total = terms.sum()
    out["trace_lower"] = total - _Rounded(comb(n, p)) ** (1.0 / p)
    out["amgm_gap"] = total - n * terms.prod() ** (1.0 / n)
    value = {k: v.value for k, v in out.items()}
    bound = {k: 2 * v.err for k, v in out.items()}

    # realized constants: C such that the displayed inequality holds with
    # equality for this mu (empirical suprema are tracked by the caller)
    pref, minors, sp = pref.value, minors.value, sp.value
    value["ratio_minor_constant"] = 1.0 / (
        pref * minors[..., -1] * (pref * spm1.value) ** (p - 1)
    )
    denom = np.maximum(sp ** (1.0 / p), np.maximum(-spp1, 0.0) ** (1.0 / (p + 1)))
    value["ratio_mu1_constant"] = np.where(mu[..., 0] >= 0, 0.0, -mu[..., 0] / denom)
    return value, bound


def sample_admissible(n, p, count, rng):
    """Random interior vectors: draw from [-1, 10]^n and shift along the
    diagonal past the cone boundary.  InputError unless count >= 1."""
    spec = ConeSpec(n, p)
    if count < 1:
        raise InputError("count must be at least 1")
    out = np.empty((count, n))
    k = 0
    while k < count:
        mu = rng.uniform(-1.0, 10.0, (count - k, n))
        mu = mu + (cone_distance(mu, spec) + 0.1)[:, None]
        good = mu[classify_batch(mu, spec) == 2]
        out[k : k + len(good)] = good
        k += len(good)
    return out
