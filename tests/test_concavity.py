"""Tests for the sigma-minor concavity inequalities and threshold search."""

import numpy as np
import pytest

import phessian.concavity as concavity
from phessian.concavity import (
    ConcavityInstance,
    evaluate,
    find_threshold,
    hypothesis_check,
    residual_batch,
    sample_hypothesis_points,
)
from phessian.cone import ConeSpec, _rounding, classify, sample_admissible
from phessian.errors import AdmissibilityError, SearchFailureError
from phessian.symfun import sigma, sigma_trunc

from oracles import concavity_sides, sigma_brute


def modes(n):
    """(mode, tau, parameters) of every mode the evaluator serves at n."""
    out = [("theorem", 0.25, {}), ("small_mu1", 0.25, {"p": 1}),
           ("small_mu1", 0.5, {"p": 2})]
    if n >= 3:
        out.append(("large_mu1", 0.0, {"a": 1.5}))
    return out


def mode_rows(rng, n, mode, tau, kw, count):
    """count sorted rows the mode's hypotheses admit."""
    if mode == "large_mu1":
        return sample_hypothesis_points(n, tau, 1.0, kw["a"], count, rng)
    r, _, _ = concavity.validate_mode(n, mode, tau, 1.0, **kw)
    return np.sort(sample_admissible(n, r, count, rng), axis=1)


def diagonal(mu, mode, tau, kw):
    """|Q_jj| of the mode's form at the rows mu (eps = 1)."""
    r, c, weight = concavity.validate_mode(mu.shape[-1], mode, tau, 1.0, **kw)
    Q, _ = concavity._form(mu, r, c, weight, tau, 1.0)
    return np.abs(np.diagonal(Q, axis1=-2, axis2=-1))


def brute_sides(mu, w, r, c, weight, tau, eps):
    """Direct loop evaluation of both sides, no batching tricks."""
    n = len(mu)
    lhs = 0.0 + 0.0j
    for j in range(n):
        for k in range(n):
            if j != k:
                lhs -= sigma_trunc(r - 2, mu, [j + 1, k + 1]) * w[j] * np.conj(w[k])
    lhs -= (1 - tau) / mu[-1] * sigma_trunc(r - 1, mu, [n]) * abs(w[-1]) ** 2
    lin = sum(sigma_trunc(r - 1, mu, [j + 1]) * w[j] for j in range(n))
    rhs = -(c / sigma(r, mu)) * abs(lin) ** 2
    for j in range(n - 1):
        rhs -= (
            weight
            * sigma_trunc(r - 1, mu, [j + 1])
            * abs(w[j]) ** 2
            / (mu[-1] + eps - mu[j])
        )
    return lhs, rhs


def test_large_mode_hand_instance():
    inst = ConcavityInstance(
        mu=[-1.0, 1.3, 5.0], tau=0.0, eps=1.0, mode="large_mu1", a=2.0,
    )
    assert hypothesis_check(inst)
    lam, bound = evaluate(inst)
    assert lam > bound


def test_matches_brute_loop():
    # w* Q w of the package's form is lhs - rhs of the direct loop, and so
    # is the batched oracle's
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(3, 6))
        mu = np.sort(rng.uniform(0.1, 5.0, n))
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        for mode, r, c, weight, kw in [
            ("theorem", n - 1, n**2, 0.75, {}),
            ("small_mu1", 2, 9.0, 0.75, {"p": 2}),
            ("large_mu1", n - 1, 1.0, 2 * 1.5 / (n - 1), {"a": 1.5}),
        ]:
            tau = 0.0 if mode == "large_mu1" else 0.25
            Q, _ = concavity._form(mu[None], r, c, weight, tau, 1.0)
            blhs, brhs = brute_sides(mu, w, r, c, weight, tau, 1.0)
            lhs, rhs = concavity_sides(mu[None], w[None], r, c, weight, tau, 1.0)
            size = max(1, abs(blhs), abs(brhs))
            assert abs(np.conj(w) @ Q[0] @ w - (blhs - brhs)) <= 1e-10 * size
            assert abs(lhs[0] - blhs) <= 1e-10 * size
            assert abs(rhs[0] - brhs) <= 1e-10 * size
            assert abs(blhs.imag) <= 1e-12 * max(1, abs(blhs))


@pytest.mark.parametrize("n", [2, 3])
def test_evaluator_is_bounded_by_the_scaled_eigenvalue(n):
    # at any w, lhs - rhs >= (lam - bound) sum_j |Q_jj| |w_j|^2
    rng = np.random.default_rng(30 + n)
    for mode, tau, kw in modes(n):
        r, c, weight = concavity.validate_mode(n, mode, tau, 1.0, **kw)
        mus = mode_rows(rng, n, mode, tau, kw, 50)
        lam, bound = residual_batch(mus, mode, tau, 1.0, **kw)
        diag = diagonal(mus, mode, tau, kw)
        for scale in (1.0, 1e-3, 1e3):
            w = scale * (rng.normal(size=(50, n)) + 1j * rng.normal(size=(50, n)))
            lhs, rhs = concavity_sides(mus, w, r, c, weight, tau, 1.0)
            floor = (lam - bound) * np.sum(diag * np.abs(w) ** 2, axis=-1)
            assert np.all((lhs - rhs).real >= floor), (mode, kw)


def sphere(n, k):
    """Points of the unit sphere in R^n: k angles on the half circle for
    n = 2, a k x 2k grid of angles for n = 3."""
    if n == 2:
        t = np.linspace(0.0, np.pi, k, endpoint=False)
        return np.stack([np.cos(t), np.sin(t)], axis=-1)
    t, f = np.meshgrid(np.linspace(0.0, np.pi, k), np.linspace(0.0, 2 * np.pi, 2 * k))
    return np.stack([np.sin(t) * np.cos(f), np.sin(t) * np.sin(f), np.cos(t)],
                    axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("n", [2, 3])
def test_dense_sweep_of_w_reaches_the_scaled_eigenvalue(n):
    # w = D v, v on the unit sphere and D = diag(|Q_jj|^{-1/2}), so lhs -
    # rhs = v^T D Q D v: the oracle's smallest value over a dense sweep,
    # refined three times around its minimum, is lam to 1e-6 of the unit
    # diagonal, and no value lies below lam by more than rounding
    rng = np.random.default_rng(40 + n)
    for mode, tau, kw in modes(n):
        r, c, weight = concavity.validate_mode(n, mode, tau, 1.0, **kw)
        mus = mode_rows(rng, n, mode, tau, kw, 4)
        lam, bound = residual_batch(mus, mode, tau, 1.0, **kw)
        scales = diagonal(mus, mode, tau, kw) ** -0.5
        for mu, want, slack, d in zip(mus, lam, bound, scales):
            v, width, low = sphere(n, 400), np.pi, np.inf
            for _ in range(4):
                w = v * d
                lhs, rhs = concavity_sides(np.broadcast_to(mu, w.shape), w, r, c,
                                           weight, tau, 1.0)
                res = (lhs - rhs).real
                low = min(low, res.min())
                width /= 20.0
                v = v[np.argmin(res)] + width * rng.uniform(-1.0, 1.0, (4000, n))
                v /= np.linalg.norm(v, axis=-1, keepdims=True)
            assert low >= want - slack, (mode, kw)
            assert low - want <= 1e-6 * max(1.0, abs(want)), (mode, kw, low, want)


def test_preconditions():
    with pytest.raises(ValueError, match="sorted"):
        evaluate(
            ConcavityInstance(
                mu=[2.0, 1.0, 3.0], tau=0.5, eps=1.0, mode="theorem"
            )
        )
    with pytest.raises(AdmissibilityError):
        evaluate(
            ConcavityInstance(
                mu=[-3.0, 1.0, 2.0], tau=0.5, eps=1.0, mode="theorem"
            )
        )
    with pytest.raises(ValueError, match="tau"):
        evaluate(
            ConcavityInstance(
                mu=[0.5, 1.0, 3.0], tau=0.9, eps=1.0, mode="theorem"
            )
        )
    with pytest.raises(ValueError, match="mode"):
        evaluate(
            ConcavityInstance(
                mu=[0.5, 1.0, 3.0], tau=0.5, eps=1.0, mode="bogus"
            )
        )


def test_residual_batch_rejects_bad_rows():
    rng = np.random.default_rng(5)
    mus = np.sort(sample_admissible(4, 3, 5, rng), axis=1)
    residual_batch(mus, "theorem", 0.25, 1.0)
    # positive rows lie in every cone, so only the order check sees these;
    # the error names the first bad row
    unsorted = mus.copy()
    unsorted[1] = unsorted[1, ::-1]
    unsorted[3] = unsorted[3, [1, 0, 2, 3]]
    with pytest.raises(ValueError, match="sorted") as exc:
        residual_batch(unsorted, "theorem", 0.25, 1.0)
    assert str(unsorted[1]) in str(exc.value)
    assert str(unsorted[3]) not in str(exc.value)
    outside = mus.copy()
    outside[1, 0] = -10.0 * outside[1, -1]
    outside[3, :2] = -10.0 * outside[3, -1]
    with pytest.raises(AdmissibilityError) as exc:
        residual_batch(outside, "theorem", 0.25, 1.0)
    assert np.array_equal(exc.value.lam, outside[1])


def test_evaluate_is_residual_batch_row():
    rng = np.random.default_rng(6)
    for n in (3, 4, 6):
        for mode, tau, kw in [
            ("theorem", 0.25, {}),
            ("small_mu1", 0.25, {"p": 2}),
            ("large_mu1", 0.0, {"a": 1.5}),
        ]:
            mus = mode_rows(rng, n, mode, tau, kw, 20)
            lam, bound = residual_batch(mus, mode, tau, 1.0, **kw)
            for mu, want in zip(mus, zip(lam, bound)):
                inst = ConcavityInstance(mu=mu, tau=tau, eps=1.0, mode=mode, **kw)
                assert evaluate(inst) == want, (n, mode)


def reference_hypotheses(mu, tau, eps, a):
    """The large_mu1 hypotheses clause by clause on one vector."""
    n = len(mu)
    beta = (1 - tau) / (1 + tau)
    return bool(
        all(mu[j] <= mu[j + 1] for j in range(n - 1))
        and classify(mu, ConeSpec(n, n - 1)).region == "interior"
        and mu[-1] >= eps * (a + beta) / (a - beta)
        and mu[0] <= -(2 * sigma_brute(n - 1, mu) / (a - beta)) ** (1 / (n - 1))
    )


def test_hypothesis_check_is_the_batched_row_test():
    # hypothesis points, each bent to fail exactly one clause, plus raw
    # random rows; the batched test, hypothesis_check per row and the
    # clause-by-clause reference agree on every row
    rng = np.random.default_rng(23)
    for n in (4, 5, 7):
        tau, eps = 0.25, 1.0
        beta = (1 - tau) / (1 + tau)
        a = beta + 0.5 * (n - 1 - beta)
        good = sample_hypothesis_points(n, tau, eps, a, 30, rng)
        pos = good[:, 1:]
        P, e = sigma(n - 1, pos), sigma(n - 2, pos)
        x_lo = concavity._hypothesis_root(P, e, a - beta, n - 1)
        unsorted = good[:, [0, 2, 1] + list(range(3, n))]
        outside = good.copy()
        outside[:, 0] = -1.5 * P / e
        low_top = good * (0.5 * eps * (a + beta) / (a - beta) / good[:, -1:])
        mild = good.copy()
        mild[:, 0] = -0.5 * x_lo
        raw = rng.uniform(-3.0, 3.0, (60, n))
        raw[:30] = np.sort(raw[:30], axis=1)
        failing = (unsorted, outside, low_top, mild)
        for rows in (good, *failing, raw):
            batch = concavity._hypothesis_rows(rows, tau, eps, a)
            for mu, got in zip(rows, batch):
                inst = ConcavityInstance(
                    mu=mu, tau=tau, eps=eps, mode="large_mu1", a=a
                )
                assert hypothesis_check(inst) == got
                assert reference_hypotheses(mu, tau, eps, a) == got
        assert concavity._hypothesis_rows(good, tau, eps, a).all()
        for rows in failing:
            assert not concavity._hypothesis_rows(rows, tau, eps, a).any()


def test_hypothesis_check_examples():
    good = ConcavityInstance(
        mu=[-1.0, 1.3, 5.0], tau=0.0, eps=1.0, mode="large_mu1", a=2.0
    )
    assert hypothesis_check(good)
    # mu_1 not negative enough
    bad = ConcavityInstance(
        mu=[-0.1, 5.0, 5.0], tau=0.0, eps=1.0, mode="large_mu1", a=2.0
    )
    assert not hypothesis_check(bad)
    outside = ConcavityInstance(
        mu=[-3.0, 1.0, 5.0], tau=0.0, eps=1.0, mode="large_mu1", a=2.0
    )
    assert not hypothesis_check(outside)


def test_large_mode_random_sweep():
    rng = np.random.default_rng(3)
    for n in (3, 4, 6, 7):
        for tau, a_frac in [(0.0, 1.0 / 3.0), (0.25, 2.0 / 3.0), (0.5, 0.5)]:
            beta = (1 - tau) / (1 + tau)
            a = beta + a_frac * (n - 1 - beta)
            mus = sample_hypothesis_points(n, tau, 1.0, a, 500, rng)
            for mu in mus:
                inst = ConcavityInstance(mu=mu, tau=tau, eps=1.0, mode="large_mu1", a=a)
                assert hypothesis_check(inst)
            lam, bound = residual_batch(mus, "large_mu1", tau, 1.0, a=a)
            assert lam.min() >= -1e-9, (n, tau, a, lam.min())
            assert not np.any(lam < -bound), (n, tau, a)


def test_sampled_interval_is_the_hypothesis_slice():
    # on the slice of fixed positive entries mu' = (mid, mu_n), the sampler
    # draws x = -mu_1 from [x*, P/e); hypothesis_check must flip exactly at
    # both ends (the top end moves in by the classifier's rounding bound,
    # _rounding(n, n - 1) sigma_{n-1}(|mu|), sigma_{n-1}(|mu|) = 2P at
    # x = P/e)
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(3, 8))
        tau = float(rng.choice([0.0, 0.25, 0.5]))
        beta = (1 - tau) / (1 + tau)
        a = beta + rng.uniform(0.2, 1.0) * (n - 1 - beta)
        mu_n = (a + beta) / (a - beta) * (1 + rng.uniform(0, 2))
        pos = np.append(np.sort(rng.uniform(0.1, 1.0, n - 2) * mu_n), mu_n)
        P, e = sigma_brute(n - 1, pos), sigma_brute(n - 2, pos)
        lo = concavity._hypothesis_root(
            np.array([P]), np.array([e]), a - beta, n - 1
        )[0]
        hi = P / e
        d = 1e-6 * (hi - lo)
        band = _rounding(n, n - 1) * 2 * P / e

        def holds(x):
            return hypothesis_check(ConcavityInstance(
                mu=np.append(-x, pos), tau=tau, eps=1.0,
                mode="large_mu1", a=a,
            ))

        assert not holds(lo - d), (n, tau, a)
        assert holds(lo + d), (n, tau, a)
        assert holds(hi - d - band), (n, tau, a)
        assert not holds(hi + d), (n, tau, a)


def test_large_mode_sampler_keeps_almost_every_candidate(monkeypatch):
    rows = []
    real = concavity.classify_batch

    def counting(mu, spec):
        rows.append(len(mu))
        return real(mu, spec)

    monkeypatch.setattr(concavity, "classify_batch", counting)
    mus = sample_hypothesis_points(5, 0.0, 1.0, 2.5, 1000, np.random.default_rng(0))
    assert len(mus) == 1000
    assert sum(rows) <= 1050


@pytest.mark.parametrize("n, tau, eps, a, count", [
    (2, 0.0, 1.0, 1.0, 10),     # n < 3
    (3, 2.0, 1.0, 1.5, 10),     # tau outside [0, 1]
    (3, 0.0, 1.0, 0.5, 10),     # a <= beta
    (3, 0.0, -1.0, 1.5, 10),    # eps <= 0
    (3, 0.0, np.inf, 1.5, 10),
    (3, 0.0, 1.0, 1.5, 0),      # no points asked for
])
def test_large_mode_sampler_validates_before_drawing(n, tau, eps, a, count):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        sample_hypothesis_points(n, tau, eps, a, count, rng)
    assert rng.bit_generator.state == state


def test_large_mode_sampler_raises_on_empty_interval():
    # a - beta = eps squeezes [x*, P/e) below the classifier's rounding
    # bound
    with pytest.raises(ValueError, match="100 rounds"):
        sample_hypothesis_points(3, 0.0, 1.0, np.nextafter(1.0, 2.0), 10,
                                 np.random.default_rng(0))


def check_history(out, trials):
    assert 2 <= len(out.history) <= 42
    assert out.history[0][0] == 1e6
    assert {M: worst for M, worst, _, _ in out.history}[out.M_hat] == out.worst_residual
    assert all(type(k) is int and 1 <= k <= trials for _, _, k, _ in out.history)
    assert all(type(u) is int and 0 <= u < k for _, _, k, u in out.history)


def test_find_threshold_history_without_bisection():
    # the inequality already holds at M = eps: two evaluations, no bisection
    out = find_threshold(3, 2, 0.5, 1.0, (0.5, 2.0), 200, seed=42)
    check_history(out, 200)
    assert [M for M, _, _, _ in out.history] == [1e6, 1.0]


def fake_form(coupling, majorant):
    """A _form replacement: Q = I + coupling(mu) (e_1 e_2^T + e_2 e_1^T),
    so lam = 1 - |coupling|, and Qa = majorant in every entry."""
    def form(mu, r, c, weight, tau, eps):
        Q = np.broadcast_to(np.eye(mu.shape[-1]), mu.shape + mu.shape[-1:]).copy()
        Q[:, 0, 1] = Q[:, 1, 0] = coupling(mu)
        return Q, np.full(Q.shape, majorant)
    return form


def test_find_threshold_history_records_every_bisection_step(monkeypatch):
    # a synthetic form, indefinite exactly while the largest entry mu_n
    # sits below 37, forces all 40 bisection steps
    monkeypatch.setattr(concavity, "_form", fake_form(lambda mu: 37.0 / mu[:, -1], 0.0))
    out = find_threshold(3, 2, 0.5, 1.0, (0.5, 2.0), 50, seed=3)
    check_history(out, 50)
    assert len(out.history) == 42
    lo, hi = 1.0, 1e6
    for M, worst, _, _ in out.history[2:]:
        assert M == 0.5 * (lo + hi)
        lo, hi = (lo, M) if worst > 0 else (M, hi)
    assert hi == out.M_hat and 24.0 < out.M_hat <= 37.0


def test_find_threshold_with_every_trial_undetermined_fails(monkeypatch):
    # a rounding majorant that swamps every eigenvalue decides nothing, so
    # the upper bracket checks nothing and the search fails there by name
    monkeypatch.setattr(concavity, "_form", fake_form(lambda mu: 0.5, 1e20))
    message = r"every admissible trial at M = 1\.000e\+06 is undetermined"
    with pytest.raises(SearchFailureError, match=message):
        find_threshold(3, 2, 0.5, 1.0, (0.5, 2.0), 50, seed=3)


def test_find_threshold_violation_names_its_first_trial(monkeypatch):
    # lam = -mu_n / 1e6 at the upper bracket: every trial is violated, and
    # the counterexample is the first checked trial, not the one with the
    # largest mu_n (the worst)
    fake = fake_form(lambda mu: 1.0 + mu[:, -1] / 1e6, 0.0)
    monkeypatch.setattr(concavity, "_form", fake)
    with pytest.raises(SearchFailureError, match="violations persist") as exc:
        find_threshold(3, 2, 0.5, 1.0, (0.5, 2.0), 200, seed=42)
    shapes, targets, tops = concavity._draw_trials(3, 2, (0.5, 2.0), 200, 42)
    mu, ok = concavity._trial_points(shapes, targets, tops, 1e6, 2)
    assert np.argmax(mu[ok][:, -1]) > 0
    np.testing.assert_array_equal(exc.value.counterexample, mu[ok][0])


def test_find_threshold_without_admissible_trials_fails(monkeypatch):
    # a classifier that puts every trial on the boundary: the upper bracket
    # would check nothing, so the search fails there by name
    def boundary(mu, spec):
        return np.ones(mu.shape[:-1], dtype=int)

    monkeypatch.setattr(concavity, "classify_batch", boundary)
    message = r"no admissible trial at M = 1\.000e\+06"
    with pytest.raises(SearchFailureError, match=message):
        find_threshold(4, 3, 0.5, 0.001, (0.1, 10.0), 200, seed=42)


def test_find_threshold_counts_admissible_trials(monkeypatch):
    # trials the classifier rejects are neither evaluated nor counted
    real = concavity.classify_batch
    kept = []

    def every_other(mu, spec):
        codes = real(mu, spec)
        codes[1::2] = 0
        kept.append(int(np.sum(codes == 2)))
        return codes

    monkeypatch.setattr(concavity, "classify_batch", every_other)
    out = find_threshold(3, 2, 0.5, 1.0, (0.5, 2.0), 200, seed=42)
    assert [k for _, _, k, _ in out.history] == kept
    assert kept[0] == 100 and 0 < kept[1] < 100


def test_find_threshold_finite_and_deterministic():
    out1 = find_threshold(3, 2, 0.5, 1.0, (0.5, 2.0), 200, seed=42)
    out2 = find_threshold(3, 2, 0.5, 1.0, (0.5, 2.0), 200, seed=42)
    assert np.isfinite(out1.M_hat)
    assert out1.M_hat == out2.M_hat
    assert out1.worst_residual == out2.worst_residual
    assert out1.history == out2.history
    assert out1.worst_residual >= -1e-10


def test_find_threshold_monotone_in_trials():
    # nested trials: fewer samples cannot raise the empirical threshold
    big = find_threshold(3, 2, 0.5, 1.0, (0.5, 2.0), 300, seed=7)
    small = find_threshold(3, 2, 0.5, 1.0, (0.5, 2.0), 60, seed=7)
    assert small.M_hat <= big.M_hat + 1e-9


def test_find_threshold_validates_inputs():
    with pytest.raises(ValueError):
        find_threshold(3, 2, 0.5, 1.0, (0.5, 2.0), 0, seed=1)
    with pytest.raises(ValueError):
        find_threshold(3, 2, 0.7, 1.0, (0.5, 2.0), 10, seed=1)
    with pytest.raises(ValueError):
        find_threshold(3, 1, 0.5, 1.0, (0.5, 2.0), 10, seed=1)


def test_threshold_point_example():
    # after the search, a point just above the threshold holds for every w
    out = find_threshold(3, 2, 0.5, 1.0, (0.5, 2.0), 200, seed=11)
    mu = np.array([0.5, 1.0, out.M_hat + 1.0])
    assert sigma(2, mu) > 0
    lam, bound = evaluate(ConcavityInstance(mu=mu, tau=0.5, eps=1.0, mode="theorem"))
    assert lam > bound


def test_unreachable_targets_are_skipped():
    # at M = 1, f(t) = t^p sigma_p + mu_n t^{p-1} sigma_{p-1} peaks at t*
    # where sigma_p(shape) < 0: a trial whose target lies above f(t*) is
    # never checked, and every other trial's mu has sigma_p(mu) = target
    for n, p in [(3, 2), (4, 3), (5, 4)]:
        shapes, targets, tops = concavity._draw_trials(n, p, (0.5, 2.0), 1000, 42)
        mu, checked = concavity._trial_points(shapes, targets, tops, 1.0, p)
        mu_n = 1.0 + 0.5 * tops
        sp, spm1 = sigma(p, shapes), sigma(p - 1, shapes)
        peak = -(p - 1) * mu_n * spm1 / (p * np.where(sp < 0, sp, -1.0))
        top = peak**p * sp + mu_n * peak ** (p - 1) * spm1
        reachable = (sp >= 0) | (top >= targets)
        assert not np.any(checked & ~reachable), (n, p)
        assert np.any(~reachable) and np.any(reachable & (sp < 0)), (n, p)
        np.testing.assert_allclose(sigma(p, mu[reachable]), targets[reachable],
                                   rtol=1e-12)
