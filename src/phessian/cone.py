"""Garding cone geometry: membership, the diagonal shift into the cone, and
the classical inequality families (Newton-Maclaurin, Maclaurin, and the
technical inequalities for sorted admissible vectors).

One classifier decides every region test, so classify, classify_batch,
require_cone, cone_distance and sample_admissible agree verdict for verdict.
"""

import functools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import AdmissibilityError, InputError
from .symfun import _as_values, sigma_all, sigma_minors

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"
ZERO_BAND = 1e-12
DISTANCE_TOL = 1e-10


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
    and their zero bands tau: |sigma_q| <= tau_q counts as zero.  Reduces
    over q column by column: np.all over a short last axis is slow on long
    batches."""
    interior = closed = True
    for q in range(sigs.shape[-1]):
        interior = interior & (sigs[..., q] > tau[..., q])
        closed = closed & (sigs[..., q] >= -tau[..., q])
    boundary = (np.abs(sigs[..., -1]) <= tau[..., -1]) & closed
    return np.where(interior, 2, np.where(boundary, 1, 0))


def _regions(mu, p):
    """Region codes and sigma_1..sigma_p, batched.  |sigma_q| <= ZERO_BAND *
    max(1, ||mu||_inf^q) counts as zero, so verdicts respect the cone's
    scale invariance.  A row whose sigma_q or band overflows (entries
    beyond about 1e100) is decided on mu / ||mu||_inf with band ZERO_BAND,
    the same verdict; its sigma values stay as computed.  ||mu||_inf is
    taken column by column, as in _region_codes."""
    scale = np.abs(mu[..., 0])
    for k in range(1, mu.shape[-1]):
        scale = np.maximum(scale, np.abs(mu[..., k]))
    scale = np.maximum(1.0, scale)
    with np.errstate(over="ignore", invalid="ignore"):
        sigs = sigma_all(mu)[..., 1 : p + 1]
        tau = ZERO_BAND * np.maximum(1.0, scale[..., None] ** np.arange(1, p + 1))
    codes = _region_codes(sigs, tau)
    finite = np.isfinite(sigs) & np.isfinite(tau)
    if not finite.all():
        huge = ~np.all(finite, axis=-1)
        codes[huge] = _regions(mu[huge] / scale[huge][..., None], p)[0]
    return codes, sigs


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
    verdicts as classify.
    """
    return _regions(_as_values(mu), spec.p)[0]


def require_cone(mu, spec, name="mu", closed=False):
    """Raise AdmissibilityError unless mu lies in the open cone (the closed
    cone when closed).  Batched: the error names the first row that fails."""
    mu = _as_values(mu)
    if mu.shape[-1] != spec.n:
        raise ValueError(f"expected a vector of length {spec.n}")
    bad = classify_batch(mu, spec) < (1 if closed else 2)
    if np.any(bad):
        row = mu[np.unravel_index(np.argmax(bad), bad.shape)]
        kind = "closed" if closed else "open"
        raise AdmissibilityError(
            f"{name} = {row} is not in the {kind} cone of order {spec.p}", lam=row
        )


def cone_distance(mu, spec):
    """Infimum t* >= 0 with mu + t*1_n in the cone for every t > t*.

    Batched like sigma.  Each row bisects against classify_batch until its
    bracket is DISTANCE_TOL wide; vectors in the closed cone return 0.  The
    exact largest root of sigma_p(mu + t1) is no substitute: the zero band
    moves the classified interior up to ~1e-6 further along the ray.
    """
    mu = _as_values(mu)
    outside = classify_batch(mu, spec) == 0
    lo = np.zeros(mu.shape[:-1])
    hi = np.where(outside, spec.n * np.max(np.abs(mu), axis=-1) + 1.0, 0.0)
    while True:
        mid = 0.5 * (lo + hi)
        # past t ~ 1e6 adjacent floats are more than DISTANCE_TOL apart
        active = (hi - lo > DISTANCE_TOL) & (lo < mid) & (mid < hi)
        if not np.any(active):
            return float(hi) if hi.ndim == 0 else hi
        ok = classify_batch(mu + mid[..., None], spec) == 2
        hi = np.where(active & ok, mid, hi)
        lo = np.where(active & ~ok, mid, lo)


def _batch_of_one(report):
    """Run a batched report on a single vector as a batch of one, so a
    single vector's floats equal its row in any batch bit for bit."""

    def run(mu, spec):
        mu = _as_values(mu)
        if mu.ndim > 1:
            return report(mu, spec)
        return {k: float(v[0]) for k, v in report(mu[None], spec).items()}

    return functools.wraps(report)(run)


@_batch_of_one
def maclaurin_report(mu, spec):
    """Slacks of the generalized Newton-Maclaurin family.

    For every admissible (j, k, l, m) -- 0 <= k < j <= p+1, 0 <= m < l <= p,
    l <= j, m <= k -- returns RHS - LHS of the normalized-quotient inequality

        (sigma_j / C(n,j)) / (sigma_k / C(n,k))
            <= [ (sigma_l / C(n,l)) / (sigma_m / C(n,m)) ]^{(j-k)/(l-m)}.

    Batched: a key maps to a float for a single vector and to an array over
    the batch otherwise.  Precondition: every row in the open cone.
    """
    n, p = spec.n, spec.p
    require_cone(mu, spec)
    top = min(n, p + 1)
    norm = sigma_all(mu)[..., : top + 1] / [comb(n, q) for q in range(top + 1)]
    out = {}
    for j in range(1, top + 1):
        for k in range(0, j):
            lhs = norm[..., j] / norm[..., k]
            for l in range(1, min(j, p) + 1):
                for m in range(0, min(l, k + 1)):
                    rhs = (norm[..., l] / norm[..., m]) ** ((j - k) / (l - m))
                    out[(j, k, l, m)] = rhs - lhs
    return out


@_batch_of_one
def tech_ineq_report(mu, spec):
    """Slack/ratio report for the technical inequalities at sorted admissible mu.

    Strict inequalities are reported as slacks (must be > 0 or >= 0); the two
    inequalities whose constants are only known to exist are reported as
    realized ratios so callers can track empirical suprema.  Batched like
    maclaurin_report.
    Precondition: every row sorted ascending, p >= 2, every row in the open
    cone.
    """
    n, p = spec.n, spec.p
    if p < 2:
        raise ValueError("technical inequalities need p >= 2")
    if np.any(np.diff(mu, axis=-1) < 0):
        raise ValueError("mu must be sorted ascending")
    require_cone(mu, spec)

    sigs = sigma_all(mu)
    sp, spm1 = sigs[..., p], sigs[..., p - 1]
    spp1 = sigs[..., p + 1] if p < n else np.zeros_like(sp)
    minors = sigma_minors(p - 1, mu)

    out = {}
    out["partial_sum"] = np.sum(mu[..., : n - p + 1], axis=-1)
    out["top_spread"] = (n - p) * mu[..., n - p] + mu[..., 0]
    out["min_entry"] = mu[..., 0] + (n - p) / (p * (n - 1)) * np.sum(
        mu[..., 1:], axis=-1
    )
    out["sigma_pm1_lower"] = spm1 - np.prod(mu[..., n - p + 1 :], axis=-1)
    out["minor_chain_min_gap"] = np.min(-np.diff(minors, axis=-1), axis=-1)
    out["minor_positive"] = minors[..., -1]
    out["top_minor"] = mu[..., -1] * minors[..., -1] - p / n * sp

    pref = sp ** (1.0 / p - 1.0)
    terms = pref[..., None] * minors / p
    out["trace_lower"] = np.sum(terms, axis=-1) - comb(n, p) ** (1.0 / p)
    out["amgm_gap"] = np.sum(terms, axis=-1) - n * np.prod(terms, axis=-1) ** (
        1.0 / n
    )

    # realized constants: C such that the displayed inequality holds with
    # equality for this mu (empirical suprema are tracked by the caller)
    out["ratio_minor_constant"] = 1.0 / (
        pref * minors[..., -1] * (pref * spm1) ** (p - 1)
    )
    denom = np.maximum(sp ** (1.0 / p), np.maximum(-spp1, 0.0) ** (1.0 / (p + 1)))
    out["ratio_mu1_constant"] = np.where(mu[..., 0] >= 0, 0.0, -mu[..., 0] / denom)
    return out


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
