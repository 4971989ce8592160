"""Garding cone geometry: membership, projection along the diagonal, and the
classical inequality families (Newton-Maclaurin, Maclaurin, and the technical
inequalities for sorted admissible vectors)."""

from dataclasses import dataclass
from math import comb

import numpy as np

from .symfun import _as_values, sigma, sigma_all, sigma_minors

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
            raise ValueError(f"need 1 <= p <= n, got p={self.p}, n={self.n}")


@dataclass(frozen=True)
class ConeVerdict:
    region: str
    sigma_values: tuple  # sigma_1(mu), ..., sigma_p(mu)


def _zero_bands(mu, p, zero_band):
    scale = max(1.0, float(np.max(np.abs(mu))))
    return np.array([zero_band * max(1.0, scale**q) for q in range(1, p + 1)])


def classify(mu, spec, zero_band=1e-12):
    """Locate mu relative to the cone: interior, boundary, or outside.

    Sign tests use a zero band scaling like ||mu||_inf^q so the verdict is
    consistent with the cone's scale invariance.
    """
    mu = _as_values(mu)
    if mu.ndim != 1 or len(mu) != spec.n:
        raise ValueError(f"expected a vector of length {spec.n}")
    sigs = sigma_all(mu)[1 : spec.p + 1]
    tau = _zero_bands(mu, spec.p, zero_band)
    if np.all(sigs > tau):
        region = INTERIOR
    elif abs(sigs[-1]) <= tau[-1] and np.all(sigs >= -tau):
        region = BOUNDARY
    else:
        region = OUTSIDE
    return ConeVerdict(region, tuple(float(s) for s in sigs))


def classify_batch(mu, spec, zero_band=1e-12):
    """Vectorized region codes for a batch of vectors.

    Returns an integer array: 2 interior, 1 boundary, 0 outside.  The zero
    band scales per vector.
    """
    mu = _as_values(mu)
    sigs = sigma_all(mu)[..., 1 : spec.p + 1]
    scale = np.maximum(1.0, np.max(np.abs(mu), axis=-1))
    q = np.arange(1, spec.p + 1)
    tau = zero_band * np.maximum(1.0, scale[..., None] ** q)
    interior = np.all(sigs > tau, axis=-1)
    boundary = (np.abs(sigs[..., -1]) <= tau[..., -1]) & np.all(
        sigs >= -tau, axis=-1
    )
    return np.where(interior, 2, np.where(boundary, 1, 0))


def cone_distance(mu, spec, tol=1e-10):
    """Infimum t* >= 0 with mu + t*1_n in the cone for every t > t*.

    Bisection on t against classify; already-admissible vectors return 0.
    """
    mu = _as_values(mu)
    if classify(mu, spec).region != OUTSIDE:
        return 0.0
    lo, hi = 0.0, spec.n * float(np.max(np.abs(mu))) + 1.0
    ones = np.ones(spec.n)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if classify(mu + mid * ones, spec).region == INTERIOR:
            hi = mid
        else:
            lo = mid
    return hi


def maclaurin_report(mu, spec):
    """Slacks of the generalized Newton-Maclaurin family.

    For every admissible (j, k, l, m) -- 0 <= k < j <= p+1, 0 <= m < l <= p,
    l <= j, m <= k -- returns RHS - LHS of the normalized-quotient inequality

        (sigma_j / C(n,j)) / (sigma_k / C(n,k))
            <= [ (sigma_l / C(n,l)) / (sigma_m / C(n,m)) ]^{(j-k)/(l-m)}.

    Precondition: mu in the open cone.
    """
    mu = _as_values(mu)
    n, p = spec.n, spec.p
    if classify(mu, spec).region != INTERIOR:
        raise ValueError("mu must lie in the open cone")
    sigs = sigma_all(mu)
    norm = np.array([sigs[q] / comb(n, q) for q in range(min(n, p + 1) + 1)])
    out = {}
    for j in range(1, min(p + 1, n) + 1):
        for k in range(0, j):
            for l in range(1, min(j, p) + 1):
                for m in range(0, min(l, k + 1)):
                    lhs = norm[j] / norm[k]
                    rhs = (norm[l] / norm[m]) ** ((j - k) / (l - m))
                    out[(j, k, l, m)] = rhs - lhs
    return out


def tech_ineq_report(mu, spec):
    """Slack/ratio report for the technical inequalities at sorted admissible mu.

    Strict inequalities are reported as slacks (must be > 0 or >= 0); the two
    inequalities whose constants are only known to exist are reported as
    realized ratios so callers can track empirical suprema.
    Precondition: mu sorted ascending, p >= 2, mu in the open cone.
    """
    mu = _as_values(mu)
    n, p = spec.n, spec.p
    if p < 2:
        raise ValueError("technical inequalities need p >= 2")
    if np.any(np.diff(mu) < 0):
        raise ValueError("mu must be sorted ascending")
    if classify(mu, spec).region != INTERIOR:
        raise ValueError("mu must lie in the open cone")

    sigs = sigma_all(mu)
    sp, spm1 = sigs[p], sigs[p - 1]
    minors = sigma_minors(p - 1, mu)

    out = {}
    out["partial_sum"] = float(np.sum(mu[: n - p + 1]))
    out["top_spread"] = float((n - p) * mu[n - p] + mu[0])
    out["min_entry"] = float(
        mu[0] + (n - p) / (p * (n - 1)) * np.sum(mu[1:])
    )
    out["sigma_pm1_lower"] = float(spm1 - np.prod(mu[n - p + 1 :]))
    out["minor_chain_min_gap"] = float(np.min(-np.diff(minors)))
    out["minor_positive"] = float(minors[-1])
    out["top_minor"] = float(mu[-1] * minors[-1] - p / n * sp)

    pref = sp ** (1.0 / p - 1.0)
    terms = pref * minors / p
    out["trace_lower"] = float(np.sum(terms) - comb(n, p) ** (1.0 / p))
    out["amgm_gap"] = float(np.sum(terms) - n * np.prod(terms) ** (1.0 / n))

    # realized constants: C such that the displayed inequality holds with
    # equality for this mu (empirical suprema are tracked by the caller)
    out["ratio_minor_constant"] = float(
        1.0 / (pref * minors[-1] * (pref * spm1) ** (p - 1))
    )
    if mu[0] >= 0:
        out["ratio_mu1_constant"] = 0.0
    else:
        spp1 = sigma(p + 1, mu)
        denom = max(sp ** (1.0 / p), max(-spp1, 0.0) ** (1.0 / (p + 1)))
        out["ratio_mu1_constant"] = float(-mu[0] / denom)
    return out


def sample_admissible(n, p, count, rng, low=-1.0, high=10.0):
    """Random interior vectors: draw from [low, high]^n and shift along the
    diagonal past the cone boundary."""
    spec = ConeSpec(n, p)
    out = np.empty((count, n))
    k = 0
    while k < count:
        mu = rng.uniform(low, high, n)
        t = cone_distance(mu, spec)
        mu = mu + (t + 0.1) * np.ones(n)
        if classify(mu, spec).region == INTERIOR:
            out[k] = mu
            k += 1
    return out
