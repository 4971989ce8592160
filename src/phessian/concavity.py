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

``find_threshold`` estimates the unspecified M empirically by bisection
over randomized trials with sigma_r pinned to a band.
"""

from dataclasses import dataclass

import numpy as np

from .cone import ConeSpec, classify_batch, cone_distance, require_cone
from .errors import InputError, SearchFailureError
from .symfun import _as_values, newton_descent, sigma, sigma_minors, sigma_pair_minors

VIOLATION_TOL = -1e-10


@dataclass(frozen=True)
class ConcavityInstance:
    """One (mu, w) evaluation point plus the mode and its parameters."""

    mu: np.ndarray
    w: object          # complex array-like
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
    history: tuple  # (M, worst residual, admissible trials) per M, in call order


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


def _evaluate_batch(mu, w, r, c, weight, tau, eps):
    """Both sides of the inequality for batches mu (B,n), w complex (B,n).

    Returns (lhs, rhs) as complex arrays; the imaginary parts are
    roundoff from the Hermitian forms and should be negligible.
    """
    minors = sigma_minors(r - 1, mu)
    S = sigma_pair_minors(r - 2, mu)
    wc = np.conj(w)
    cross = np.einsum("...jk,...j,...k->...", S, w, wc)
    lhs = -cross - (1.0 - tau) / mu[..., -1] * minors[..., -1] * np.abs(
        w[..., -1]
    ) ** 2

    s_r = sigma(r, mu)
    lin = np.einsum("...j,...j->...", minors, w)
    denom = mu[..., -1:] + eps - mu[..., :-1]
    tail = np.sum(
        weight * minors[..., :-1] * np.abs(w[..., :-1]) ** 2 / denom, axis=-1
    )
    rhs = -(c / s_r) * np.abs(lin) ** 2 - tail
    return lhs, rhs


def _checked_sides(mu, w, mode, tau, eps, a, p):
    """Real (lhs, rhs) per row of mu after checking the mode's parameters
    and every row: mu sorted ascending and in the open cone of the mode's
    order, w finite and shaped like mu, and the imaginary parts of both
    sides at roundoff level.  A bad row raises, naming the first."""
    mu = _as_values(mu)
    n = mu.shape[-1]
    r, c, weight = validate_mode(n, mode, tau, eps, a=a, p=p)
    unsorted = np.any(np.diff(mu, axis=-1) < 0, axis=-1)
    if np.any(unsorted):
        row = mu[np.unravel_index(np.argmax(unsorted), unsorted.shape)]
        raise ValueError(f"mu = {row} must be sorted ascending")
    require_cone(mu, ConeSpec(n, r))
    w = np.asarray(w, dtype=complex)
    if w.shape != mu.shape:
        raise ValueError(f"w must have the shape {mu.shape} of mu")
    if not np.all(np.isfinite(w)):
        raise ValueError("w entries must be finite")
    lhs, rhs = _evaluate_batch(mu, w, r, c, weight, tau, eps)
    size = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    if np.any(np.maximum(np.abs(lhs.imag), np.abs(rhs.imag)) > 1e-10 * size):
        raise ArithmeticError("Hermitian form produced a non-real value")
    return lhs.real, rhs.real


def residual_batch(mu, w, mode, tau, eps, a=None, p=None):
    """Residuals lhs - rhs of the mode's inequality per row of mu (B, n)
    and complex w (B, n), every row checked as by evaluate."""
    lhs, rhs = _checked_sides(mu, w, mode, tau, eps, a, p)
    return lhs - rhs


def evaluate(inst):
    """(lhs, rhs, residual = lhs - rhs) of the mode's inequality at inst.

    residual_batch's checked path on a batch of one: it raises where
    residual_batch would, and its residual equals the matching row of any
    batch bit for bit.
    """
    mu = _as_values(inst.mu)
    if mu.ndim != 1:
        raise ValueError("mu must be a single vector")
    lhs, rhs = _checked_sides(
        mu[None], np.asarray(inst.w, dtype=complex)[None], inst.mode,
        inst.tau, inst.eps, inst.a, inst.p,
    )
    return float(lhs[0]), float(rhs[0]), float(lhs[0] - rhs[0])


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
    trial count can only remove potential violations.
    """
    shapes = np.empty((trials, n - 1))
    targets = np.empty(trials)
    tops = np.empty(trials)
    w = np.empty((trials, n), dtype=complex)
    lo_s, hi_s = sigma_band
    for i in range(trials):
        rng = np.random.default_rng([seed, i])
        shapes[i] = rng.uniform(-0.5, 1.5, n - 1)
        targets[i] = rng.uniform(lo_s, hi_s)
        tops[i] = rng.uniform()
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        w[i] = z / np.linalg.norm(z)
    if p >= 2:
        # shift each (n-1)-entry shape into the open cone of order p-1 so
        # appending a large positive top entry keeps the full vector
        # admissible
        shift = cone_distance(shapes, ConeSpec(n - 1, p - 1))
        shapes = shapes + (shift + 0.05)[:, None]
    else:
        shapes = np.abs(shapes) + 0.05
    return shapes, targets, tops, w


def _solve_scale(shapes, targets, mu_n, p):
    """Batched bisection for t > 0 with

        sigma_p(t*shape, mu_n) = t^p sigma_p(shape)
                                 + mu_n t^{p-1} sigma_{p-1}(shape) = target.
    """
    sp = sigma(p, shapes)
    spm1 = sigma(p - 1, shapes)

    def f(t):
        return t**p * sp + mu_n * t ** (p - 1) * spm1 - targets

    hi = np.full_like(targets, 1e-6)
    for _ in range(80):
        bad = f(hi) < 0
        if not np.any(bad):
            break
        hi = np.where(bad, 2 * hi, hi)
    lo = np.zeros_like(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        ok = f(mid) >= 0
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return hi


def find_threshold(n, p, tau, eps, sigma_band, trials, seed):
    """Empirical threshold M_hat for the mu_n >= M modes by bisection.

    For a candidate M, every trial builds an admissible sorted mu with
    mu_n in [M, 1.5M] and sigma_p(mu) inside sigma_band (a scaled random
    shape for the first n-1 entries), plus a random unit complex w, and
    evaluates the order-p inequality with constant (p+1)^2 on the trials
    whose mu lies in the open cone (residual_batch).  M is bisected over
    [eps, 1e6] for the smallest value with no residual below -1e-10; the
    history keeps (M, worst residual, admissible trials) of every M tried.
    An M with no admissible trial raises SearchFailureError naming it, as
    do violations at 1e6.  Deterministic for a fixed seed.
    """
    if trials < 1:
        raise InputError("need at least one trial")
    if p < 2:
        # sigma_1(mu) >= mu_n >= M leaves the band unreachable once M
        # exceeds it; the search is ill-posed
        raise InputError("threshold search needs p >= 2")
    validate_mode(n, "small_mu1", tau, eps, p=p)
    spec_full = ConeSpec(n, p)
    shapes, targets, tops, w = _draw_trials(n, p, sigma_band, trials, seed)
    history = []

    def worst_at(M):
        mu_n = M * (1.0 + 0.5 * tops)
        t = _solve_scale(shapes, targets, mu_n, p)
        mu = np.concatenate([t[:, None] * shapes, mu_n[:, None]], axis=-1)
        mu = np.sort(mu, axis=-1)
        ok = classify_batch(mu, spec_full) == 2
        if not ok.any():
            raise SearchFailureError(
                f"no admissible trial at M = {M:.3e}: nothing to check there"
            )
        res = residual_batch(mu[ok], w[ok], "small_mu1", tau, eps, p=p)
        i = int(np.argmin(res))
        history.append((M, float(res[i]), int(np.count_nonzero(ok))))
        return float(res[i]), (mu[ok][i], w[ok][i])

    lo, hi = float(eps), 1e6
    worst_hi, witness_hi = worst_at(hi)
    if worst_hi < VIOLATION_TOL:
        raise SearchFailureError(
            f"violations persist at M = {hi:.3e}: worst residual "
            f"{worst_hi:.3e}",
            counterexample=witness_hi,
        )
    worst_lo, _ = worst_at(lo)
    if worst_lo >= VIOLATION_TOL:
        return ThresholdResult(lo, trials, worst_lo, seed, tuple(history))
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        worst_mid, _ = worst_at(mid)
        if worst_mid >= VIOLATION_TOL:
            hi, worst_hi = mid, worst_mid
        else:
            lo = mid
    return ThresholdResult(hi, trials, worst_hi, seed, tuple(history))


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
    """Random (mu, w) pairs satisfying the large_mu1 hypotheses.

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
    ws = np.empty((count, n), dtype=complex)
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
        if take:
            mus[k : k + take] = good
            z = rng.normal(size=(take, n)) + 1j * rng.normal(size=(take, n))
            ws[k : k + take] = z / np.linalg.norm(z, axis=-1, keepdims=True)
            k += take
    return mus, ws
