"""Concavity inequalities for Hermitian quadratic forms in sigma-minors.

Three modes of one inequality family are covered, all of the shape

    - sum_{j != k} sigma_{r-2}(mu|jk) w_j conj(w_k)
        - (1-tau)/mu_n * sigma_{r-1}(mu|n) |w_n|^2
    >=  - c / sigma_r(mu) * |sum_j sigma_{r-1}(mu|j) w_j|^2
        - sum_{j<n} weight_j * sigma_{r-1}(mu|j) |w_j|^2 / (mu_n + eps - mu_j)

* ``large_mu1``:  r = n-1, c = 1, weight 2a/(n-1); holds unconditionally
  under explicit hypotheses on how negative mu_1 is (see
  ``hypothesis_check``).
* ``small_mu1``:  r = p, c = (p+1)^2, weight (1-tau); holds once mu_n
  exceeds an unspecified threshold M.
* ``theorem``:    r = n-1, c = n^2, weight (1-tau); the combined
  statement, again for mu_n >= M.

lhs - rhs = w* Q(mu) w (_form), decided for every w by residual_batch.
``find_threshold`` estimates the unspecified M empirically by bisection
over randomized trials with sigma_r pinned to a band.
"""

from dataclasses import dataclass

import numpy as np

from .cone import (
    ConeSpec, _rounding, classify_batch, cone_distance, require_cone, verdict,
)
from .errors import InputError, SearchFailureError
from .spectral import EIGH_ROUNDING, jacobi_eigh
from .symfun import _as_values, newton_descent, sigma, sigma_minors, sigma_pair_minors


@dataclass(frozen=True)
class ConcavityInstance:
    """One mu plus the mode and its parameters."""

    mu: np.ndarray
    tau: float
    eps: float
    mode: str          # large_mu1 | small_mu1 | theorem
    a: float = None    # large_mu1 only
    p: int = None      # small_mu1 only


@dataclass(frozen=True)
class ThresholdResult:
    M_hat: float
    trials: int
    worst_residual: float
    seed: int
    history: tuple  # (M, worst residual, admissible, undetermined) per M, in call order


def validate_mode(n, mode, tau, eps, a=None, p=None):
    """(order r, leading constant c, per-j weight factor) of the mode's
    inequality at dimension n, after checking every parameter (n, tau, a
    and p against the mode's ranges; eps positive and finite); InputError
    names the first bad one."""
    if mode == "large_mu1":
        if n < 3:
            raise InputError("large_mu1 mode needs n >= 3")
        if not 0.0 <= tau <= 1.0:
            raise InputError("large_mu1 mode needs tau in [0, 1]")
        beta = (1.0 - tau) / (1.0 + tau)
        if a is None or not beta < a <= n - 1:
            raise InputError(f"large_mu1 mode needs a in ({beta}, {n - 1}]")
        params = n - 1, 1.0, 2.0 * a / (n - 1)
    elif mode == "small_mu1":
        if p is None or not 1 <= p <= n:
            raise InputError("small_mu1 mode needs p in {1,...,n}")
        if not 0.0 < tau <= 0.5:
            raise InputError("small_mu1 mode needs tau in (0, 1/2]")
        params = p, float((p + 1) ** 2), 1.0 - tau
    elif mode == "theorem":
        if n < 2:
            raise InputError("theorem mode needs n >= 2")
        if not 0.0 < tau <= 0.5:
            raise InputError("theorem mode needs tau in (0, 1/2]")
        params = n - 1, float(n**2), 1.0 - tau
    else:
        raise InputError(f"unknown mode {mode!r}")
    if not 0.0 < eps < np.inf:
        raise InputError("eps must be positive and finite")
    return params


def _form(mu, r, c, weight, tau, eps):
    """Q(mu), with lhs - rhs = w* Q w, and a majorant Qa of its rounding,
    per row of sorted mu (B, n) in the open cone of order r:

        Q  = (c/s) m m^T - S + diag_{j<n}(weight m_j / d_j) - ((1-tau)/mu_n) m_n e_n e_n^T,
        Qa = (c/s)(rho |m||m|^T + 2 ma ma^T) + Sa + diag_{j<n}(weight ma_j k_j / d_j)
             + ((1-tau)/mu_n) ma_n e_n e_n^T,

    m = sigma_{r-1}(mu|.), S = sigma_{r-2}(mu|jk), s = sigma_r(mu); ma and
    sa are m and s at |mu|, and Sa_jk = min(sigma_{r-2}(|mu| | j),
    sigma_{r-2}(|mu| | k)) >= sigma_{r-2}(|mu| | jk) off the diagonal, where
    S is exactly 0; rho = sa/s, d_j = mu_n
    + eps - mu_j, k_j = (mu_n + eps + |mu_j|)/d_j.  The computed Q is within
    2g Qa of Q, g = _rounding(n, r), u = eps/2: the prefix recurrence puts
    m, S, s within g/4 of their values at |mu| (cone._rounding), so 1/s
    errs by g rho/3 (as require_cone keeps g rho < 1) and (c/s) m m^T by
    g/4 (c/s)(ma|m|^T + |m|ma^T + 4/3 rho |m||m|^T), second-order terms
    within g/4 (c/s) ma ma^T; d_j errs by 2u(mu_n + eps + |mu_j|); the
    parameters and the products, quotients and sums forming an entry add
    8u <= 2g/3 relative to Qa.  So each term errs by less than g times its
    part of Qa, and 2g leaves room for the rounding of Qa itself."""
    top, absmu = mu[..., -1:], np.abs(mu)
    m, ma = sigma_minors(r - 1, mu), sigma_minors(r - 1, absmu)
    sa2 = sigma_minors(r - 2, absmu)
    s, sa = sigma(r, mu)[..., None, None], sigma(r, absmu)[..., None, None]
    mm = m[..., :, None] * m[..., None, :]
    Q = c / s * mm - sigma_pair_minors(r - 2, mu)
    Qa = (c / s * (sa / s * np.abs(mm) + 2 * ma[..., :, None] * ma[..., None, :])
          + np.minimum(sa2[..., :, None], sa2[..., None, :]) * (1.0 - np.eye(mu.shape[-1])))
    d = top + eps - mu[..., :-1]
    idx = np.arange(mu.shape[-1] - 1)
    Q[..., idx, idx] += weight * m[..., :-1] / d
    Qa[..., idx, idx] += weight * ma[..., :-1] / d * ((top + eps + absmu[..., :-1]) / d)
    Q[..., -1, -1] -= (1.0 - tau) / top[..., 0] * m[..., -1]
    Qa[..., -1, -1] += (1.0 - tau) / top[..., 0] * ma[..., -1]
    return Q, Qa


def residual_batch(mu, mode, tau, eps, a=None, p=None):
    """(lam, bound) per row of mu (B, n): the worst residual over every w in
    C^n, per unit of sum_j |Q_jj| |w_j|^2, and the bound deciding its sign.
    The mode's parameters and every row (sorted, in the open cone of the
    mode's order) are checked first; the first bad row raises.

    lam = lambda_min(D Q D), D = diag(|Q_jj|^{-1/2}) (1 where Q_jj = 0): by
    Sylvester's law of inertia it has the sign of lambda_min(Q), which the
    raw eigenvalue of a Q spread over many orders cannot resolve.  By Weyl's
    inequality it is within bound = EIGH_ROUNDING |DQD|_F + 2g |D Qa D|_F of
    its exact value (_form; EIGH_ROUNDING's room covers forming D Q D).  A
    row holds where lam > bound, is violated where lam < -bound, and is
    undetermined otherwise."""
    mu = _as_values(mu)
    n = mu.shape[-1]
    r, c, weight = validate_mode(n, mode, tau, eps, a=a, p=p)
    unsorted = np.any(np.diff(mu, axis=-1) < 0, axis=-1)
    if np.any(unsorted):
        row = mu[np.unravel_index(np.argmax(unsorted), unsorted.shape)]
        raise ValueError(f"mu = {row} must be sorted ascending")
    require_cone(mu, ConeSpec(n, r))
    Q, Qa = _form(mu, r, c, weight, tau, eps)
    diag = np.abs(np.diagonal(Q, axis1=-2, axis2=-1))
    D = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
    DD = D[..., :, None] * D[..., None, :]
    A, Aa = DD * Q, DD * Qa
    lam = jacobi_eigh(A)[..., 0]
    bound = (EIGH_ROUNDING * np.sqrt(np.einsum("...jk,...jk->...", A, A))
             + 2 * _rounding(n, r) * np.sqrt(np.einsum("...jk,...jk->...", Aa, Aa)))
    return lam, bound


def evaluate(inst):
    """(lam, bound) of residual_batch at inst.mu, a batch of one: it raises
    where residual_batch would, and its floats equal the matching row of
    any batch bit for bit."""
    mu = _as_values(inst.mu)
    if mu.ndim != 1:
        raise ValueError("mu must be a single vector")
    lam, bound = residual_batch(mu[None], inst.mode, inst.tau, inst.eps, inst.a, inst.p)
    return float(lam[0]), float(bound[0])


def _hypothesis_rows(mu, tau, eps, a):
    """Per row of mu (B, n), whether the large_mu1 hypotheses of
    hypothesis_check hold, for parameters validate_mode accepts."""
    n = mu.shape[-1]
    beta = (1.0 - tau) / (1.0 + tau)
    ok = np.all(np.diff(mu, axis=-1) >= 0, axis=-1)
    ok &= classify_batch(mu, ConeSpec(n, n - 1)) == 2
    ok &= mu[..., -1] >= eps * (a + beta) / (a - beta)
    bound = np.full(ok.shape, np.inf)
    s = sigma(n - 1, mu)  # > 0 where ok: interior of Gamma_{n-1}
    bound[ok] = (2.0 * s[ok] / (a - beta)) ** (1.0 / (n - 1))
    return ok & (mu[..., 0] <= -bound)


def hypothesis_check(inst):
    """True iff the unconditional-mode hypotheses hold at inst:

    mu in Gamma_{n-1} sorted ascending, mu_n >= eps(a+beta)/(a-beta) and
    mu_1 <= -(2 sigma_{n-1}/(a-beta))^{1/(n-1)}, beta = (1-tau)/(1+tau).
    Never raises; any structural failure is just False.
    """
    try:
        mu = _as_values(inst.mu)
        if inst.mode != "large_mu1" or mu.ndim != 1:
            return False
        validate_mode(len(mu), inst.mode, inst.tau, inst.eps, a=inst.a)
    except (TypeError, ValueError):
        return False
    return bool(_hypothesis_rows(mu[None], inst.tau, inst.eps, inst.a)[0])


def _draw_trials(n, p, sigma_band, trials, seed):
    """Per-trial randomness, independent of the candidate threshold M.

    Each trial gets its own RNG stream keyed by (seed, index), so trial i
    is identical no matter how many trials run in total; shrinking the
    trial count can only remove potential violations.  A trial's n + 1
    uniforms give its shape in [-0.5, 1.5]^{n-1}, its target in sigma_band
    and its top entry's place in [M, 1.5M].
    """
    u = np.array([np.random.default_rng([seed, i]).random(n + 1) for i in range(trials)])
    lo_s, hi_s = sigma_band
    # shift each (n-1)-entry shape into the open cone of order p-1 >= 1 so
    # appending a large positive top entry keeps the full vector admissible
    shapes = -0.5 + 2.0 * u[:, :-2]
    shapes += (cone_distance(shapes, ConeSpec(n - 1, p - 1)) + 0.05)[:, None]
    return shapes, lo_s + (hi_s - lo_s) * u[:, -2], u[:, -1]


def _trial_points(shapes, targets, tops, M, p):
    """(mu, checked) per trial at the threshold M: mu = sort(t shape, mu_n),
    mu_n in [M, 1.5M], with the smallest t > 0 solving

        f(t) = sigma_p(mu) = t^p sigma_p(shape) + mu_n t^{p-1} sigma_{p-1}(shape) = target

    by bisection, and checked where that t exists and mu lies in the open
    cone of order p.  As sigma_{p-1}(shape) > 0, f increases on t > 0 up
    to t* = -(p-1) mu_n sigma_{p-1} / (p sigma_p) (infinity where
    sigma_p(shape) >= 0) and falls after, so a target above f(t*) is
    unreachable; below t*, f(t) >= t^{p-1} mu_n sigma_{p-1} / p, so the
    bracket's top min(t*, (p target / (mu_n sigma_{p-1}))^{1/(p-1)}) lies
    within a factor p^{1/(p-1)} <= 2 of t."""
    mu_n = M * (1.0 + 0.5 * tops)
    sp, spm1 = sigma(p, shapes), sigma(p - 1, shapes)

    def f(t):
        return t**p * sp + mu_n * t ** (p - 1) * spm1 - targets

    with np.errstate(divide="ignore"):
        peak = np.where(sp < 0, -(p - 1) * mu_n * spm1 / (p * sp), np.inf)
    hi = np.minimum(peak, (p * targets / (mu_n * spm1)) ** (1.0 / (p - 1)))
    checked = f(hi) >= 0
    lo = np.zeros_like(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        ok = f(mid) >= 0
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    mu = np.sort(np.concatenate([hi[:, None] * shapes, mu_n[:, None]], axis=-1), axis=-1)
    checked[checked] = classify_batch(mu[checked], ConeSpec(mu.shape[-1], p)) == 2
    return mu, checked


def find_threshold(n, p, tau, eps, sigma_band, trials, seed):
    """Empirical threshold M_hat for the mu_n >= M modes by bisection.

    At a candidate M each trial scales a random shape for the first n-1
    entries so that mu, with mu_n in [M, 1.5M], has sigma_p(mu) inside
    sigma_band.  residual_batch checks the order-p inequality with constant
    (p+1)^2 for every w on the trials whose target is reachable and whose
    mu is in the open cone (_trial_points).  M passes when no trial is
    decided violated and one is decided; the smallest passing M in [eps,
    1e6] is bisected for, and the history keeps (M, worst residual,
    admissible, undetermined trials) per M tried.  An M with no admissible
    trial or none decided raises SearchFailureError naming it, as do
    violations at 1e6.  Deterministic for a fixed seed.
    """
    if trials < 1:
        raise InputError("need at least one trial")
    if p < 2:
        # sigma_1(mu) >= mu_n >= M leaves the band unreachable once M
        # exceeds it; the search is ill-posed
        raise InputError("threshold search needs p >= 2")
    validate_mode(n, "small_mu1", tau, eps, p=p)
    shapes, targets, tops = _draw_trials(n, p, sigma_band, trials, seed)
    history = []

    def violation(M):
        """mu of the first trial decided violated at M; None if M passes."""
        mu, ok = _trial_points(shapes, targets, tops, M, p)
        if not ok.any():
            raise SearchFailureError(
                f"no admissible trial at M = {M:.3e}: nothing to check there"
            )
        lam, bound = residual_batch(mu[ok], "small_mu1", tau, eps, p=p)
        counts, worst, first = verdict(lam, bound)
        history.append((M, float(lam[worst]), int(lam.size), counts["undetermined"]))
        if counts["undetermined"] == lam.size:
            raise SearchFailureError(
                f"every admissible trial at M = {M:.3e} is undetermined: "
                f"rounding decides none of them"
            )
        return None if first is None else mu[ok][first]

    lo, hi = float(eps), 1e6
    witness = violation(hi)
    if witness is not None:
        raise SearchFailureError(
            f"violations persist at M = {hi:.3e}: worst residual "
            f"{history[-1][1]:.3e}",
            counterexample=witness,
        )
    if violation(lo) is None:
        hi = lo
    else:
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if violation(mid) is None else (mid, hi)
    worst = next(w for M, w, _, _ in history if M == hi)
    return ThresholdResult(hi, trials, worst, seed, tuple(history))


def _hypothesis_root(P, e, c, k):
    """Positive root x* of g(x) = x^k + (2e/c) x - 2P/c per row (P, e, c > 0).

    g is increasing and convex on x > 0 and positive at both P/e and
    (2P/c)^{1/k}, so newton_descent from the smaller of the two reaches x*.
    """
    lin, const = 2.0 * e / c, 2.0 * P / c

    def newton(x):
        return x - (x**k + lin * x - const) / (k * x ** (k - 1) + lin)
    return newton_descent(np.minimum(P / e, const ** (1.0 / k)), newton)


def sample_hypothesis_points(n, tau, eps, a, count, rng):
    """Random mu (count, n) satisfying the large_mu1 hypotheses.

    mu_n is drawn above its bound and the middle entries in [0.1, 1] mu_n.
    With mu' = (mid, mu_n), x = -mu_1, P = sigma_{n-1}(mu') and
    e = sigma_{n-2}(mu'), sigma_{n-1}(mu) = P - x e is affine in x: mu lies
    in Gamma_{n-1} iff x < P/e, and mu_1 <= -bound iff x >= x*, the root of
    x^{n-1} + (2e/c) x - 2P/c with c = a - beta.  x is drawn uniformly on
    [x*, P/e), so every candidate is a hypothesis point; the hypothesis
    test stays as the final filter.
    """
    validate_mode(n, "large_mu1", tau, eps, a=a)
    if count < 1:
        raise InputError("count must be at least 1")
    beta = (1.0 - tau) / (1.0 + tau)
    mus = np.empty((count, n))
    k = 0
    empty_rounds = 0
    while k < count:
        m = count - k
        mu_n = eps * (a + beta) / (a - beta) * (1.0 + rng.uniform(0, 2, m))
        mid = rng.uniform(0.1, 1.0, (m, n - 2)) * mu_n[:, None]
        pos = np.concatenate([mid, mu_n[:, None]], axis=-1)
        P, e = sigma(n - 1, pos), sigma(n - 2, pos)
        lo = _hypothesis_root(P, e, a - beta, n - 1)
        x = lo + rng.uniform(0.0, 1.0, m) * (P / e - lo)
        mu = np.sort(np.concatenate([-x[:, None], pos], axis=-1), axis=-1)
        good = mu[_hypothesis_rows(mu, tau, eps, a)]
        take = len(good)
        empty_rounds = 0 if take else empty_rounds + 1
        if empty_rounds == 100:
            # a - beta at the rounding level leaves [x*, P/e) too narrow to resolve
            raise InputError(
                f"no hypothesis point passed the cone-and-bound test in 100 "
                f"rounds at n={n}, tau={tau}, eps={eps}, a={a}: a - beta too small"
            )
        mus[k : k + take] = good
        k += take
    return mus
