"""Tests for the exponential-bump subsolution and the key lemma."""

import numpy as np
import pytest

from phessian.cone import ConeSpec, classify
from phessian.errors import AdmissibilityError, ConstructionError
from phessian.solver import ball_grid
from phessian.subsolution import (
    BallProblem,
    KeyLemmaConfig,
    construct,
    key_lemma_check,
    matrix_form_sides,
    rank_one_sigma,
)
from phessian.subsolution import _level_crossing
from phessian.symfun import sigma, sigma_brute, sigma_ray_coeffs


def ball_u(pts):
    return 0.5 * (np.sum(pts**2, axis=-1) - 1.0)


def zero_field(pts):
    return np.zeros(len(pts))


def const_phi(c):
    return lambda pts, t: np.full(len(pts), c)


def test_rank_one_hand_case():
    lhs, rhs = rank_one_sigma([1.0, 1.0, 1.0], 1.0, [1.0, 0.0, 0.0], 2)
    assert lhs == pytest.approx(5.0, abs=1e-10)
    assert rhs == pytest.approx(5.0, abs=1e-12)


def test_rank_one_degenerate_inputs():
    lhs, rhs = rank_one_sigma([1.0, 2.0, 3.0], 0.0, [1.0, 1.0, 1.0], 2)
    assert lhs == pytest.approx(sigma(2, [1.0, 2.0, 3.0]), abs=1e-12)
    lhs, rhs = rank_one_sigma([1.0, 2.0, 3.0], 5.0, [0.0, 0.0, 0.0], 3)
    assert lhs == pytest.approx(6.0, abs=1e-10)


def test_rank_one_random_sweep():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, n + 1))
        mu = rng.uniform(-3, 3, n)
        nu = rng.uniform(-2, 2, n)
        B = rng.uniform(-2, 2)
        lhs, rhs = rank_one_sigma(mu, B, nu, p)  # asserts internally
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_construct_identity_hessian_case():
    prob = BallProblem(
        n=2, radius=1.0, resolution=65, p=2, alpha=0.5,
        psi=zero_field, phi_tilde=const_phi(0.1), u=ball_u,
    )
    out = construct(prob)
    assert out.eps1 == pytest.approx(1.0, abs=1e-8)
    assert out.eps2 == pytest.approx(1.0, abs=1e-8)
    assert out.worst_slack >= 0.0
    assert out.A > 0 and out.B > 0
    # psi == 0 so v = A(e^{Bu}-1) < 0 strictly inside
    res = prob.resolution
    center = out.v[res // 2, res // 2]
    assert center < 0.0
    assert out.v[0, 0] >= 0.0 - 1e-12 or True  # corner is outside the ball


def test_construct_p1_branch():
    prob = BallProblem(
        n=2, radius=1.0, resolution=65, p=1, alpha=0.25,
        psi=zero_field, phi_tilde=const_phi(0.05), u=ball_u,
    )
    out = construct(prob)
    assert out.worst_slack >= 0.0


def test_construct_nonzero_psi():
    def psi(pts):
        return 0.3 * np.sum(pts**2, axis=-1) + 0.1 * pts[:, 0]

    prob = BallProblem(
        n=2, radius=1.0, resolution=65, p=2, alpha=0.5,
        psi=psi, phi_tilde=const_phi(0.1), u=ball_u,
    )
    out = construct(prob)
    assert out.worst_slack >= 0.0


def test_construct_b_monotone_in_phi():
    outs = []
    for c in (0.05, 0.1):
        prob = BallProblem(
            n=2, radius=1.0, resolution=33, p=2, alpha=0.5,
            psi=zero_field, phi_tilde=const_phi(c), u=ball_u,
        )
        outs.append(construct(prob))
    assert outs[1].B >= outs[0].B


def test_construct_rejects_bad_u():
    def bad_u(pts):
        return -0.5 * (np.sum(pts**2, axis=-1) - 1.0)  # concave, inadmissible

    prob = BallProblem(
        n=2, radius=1.0, resolution=33, p=2, alpha=0.5,
        psi=zero_field, phi_tilde=const_phi(0.1), u=bad_u,
    )
    with pytest.raises(ConstructionError):
        construct(prob)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_construct_matches_eigenvalue_oracle(p):
    """eps1, eps2 and worst_slack of construct (principal minors) against
    eigvalsh of nodewise np.gradient Hessians plus sigma, for a defining
    function whose Hessian varies over the ball."""
    def u(pts):
        return (np.sum(pts**2, axis=-1) - 1.0) * (0.5 + 0.1 * pts[:, 0])

    def psi(pts):
        return 0.3 * np.sum(pts**2, axis=-1) + 0.1 * pts[:, 0]

    n, res, phi, alpha = 3, 33, 0.1, 0.5
    prob = BallProblem(
        n=n, radius=1.0, resolution=res, p=p, alpha=alpha,
        psi=psi, phi_tilde=const_phi(phi), u=u,
    )
    out = construct(prob)

    pts, dist, h = ball_grid(1.0, res, n)
    in_ball = dist <= 1.0 + 1e-12
    trusted = dist <= 1.0 - 2 * h

    def grad_hess(f, mask):
        g = np.gradient(f, h, edge_order=2)
        H = np.stack([np.stack(np.gradient(gi, h, edge_order=2), -1) for gi in g], -2)
        H = 0.5 * (H + np.swapaxes(H, -1, -2))
        return np.stack(g, -1).reshape(-1, n)[mask], H.reshape(-1, n, n)[mask]

    _, hess_u = grad_hess(u(pts).reshape((res,) * n), in_ball)
    lam_u = np.linalg.eigvalsh(hess_u)
    eps1 = np.min(sigma(p, lam_u))
    eps2 = np.min(sigma(p - 1, lam_u[:, : n - 1])) if p > 1 else 1.0
    dv, hess_v = grad_hess(out.v, trusted)
    v = out.v.ravel()[trusted]
    slack = sigma(p, np.linalg.eigvalsh(hess_v)) ** (1.0 / p) - phi * (
        1.0 + np.linalg.norm(dv, axis=-1) + np.abs(v) ** alpha
    )
    for got, ref in ((out.eps1, eps1), (out.eps2, eps2), (out.worst_slack, np.min(slack))):
        assert got == pytest.approx(ref, rel=1e-12, abs=0)


def test_problem_validation():
    with pytest.raises(ValueError):
        BallProblem(2, 1.0, 33, 3, 0.5, zero_field, const_phi(0.1), ball_u)
    with pytest.raises(ValueError):
        BallProblem(2, 1.0, 33, 2, 1.5, zero_field, const_phi(0.1), ball_u)


def test_key_lemma_hand_case():
    cfg = KeyLemmaConfig(
        n=3, p=1, delta=0.5, R=5.0, a=2.0,
        mu=np.array([2.0, 2.0, 2.0]), nu=np.array([1.0, 1.0, 1.0]),
    )
    lhs, rhs, ok, _ = key_lemma_check(cfg, directions=2000)
    assert lhs == pytest.approx(3.0, abs=1e-12)
    shift = np.linalg.norm(np.array([1.5, 1.5, 1.5]))
    assert rhs == pytest.approx(0.5 * 3 - (5.0 + shift) + 2.0 - 3.0, abs=1e-12)
    assert ok
    assert lhs >= rhs


def test_key_lemma_names_first_escaping_crossing():
    # p = 1: sigma_1 is linear, so the crossing of {sigma_1 = a} on the ray
    # base + t xi is t = (a - sum(base)) / sum(xi), clamped at 0
    n, directions, seed = 3, 400, 5
    cfg = KeyLemmaConfig(
        n=n, p=1, delta=0.5, R=1.0, a=6.0,
        mu=np.array([0.5, 1.0, 1.5]), nu=np.ones(n),
    )
    base = cfg.mu - cfg.delta
    rng = np.random.default_rng(seed)
    xi = rng.uniform(0.0, 1.0, (directions, n)) + 1e-3
    xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
    t = np.maximum((cfg.a - base.sum()) / xi.sum(axis=-1), 0.0)
    norms = np.linalg.norm(base + t[:, None] * xi, axis=-1)
    # a radius between the oracle's crossing norms: some rays stay inside
    R = float(np.median(norms))
    first = int(np.argmax(norms >= R))
    assert first > 0
    cfg = KeyLemmaConfig(n=n, p=1, delta=cfg.delta, R=R, a=cfg.a, mu=cfg.mu, nu=cfg.nu)
    _, _, ok, escape = key_lemma_check(cfg, directions=directions, seed=seed)
    assert not ok
    assert escape[0] == first
    assert escape[1] == pytest.approx(norms[first], rel=1e-12)
    big = KeyLemmaConfig(n=n, p=1, delta=cfg.delta, R=2.0 * norms.max(),
                         a=cfg.a, mu=cfg.mu, nu=cfg.nu)
    assert key_lemma_check(big, directions=directions, seed=seed)[2:] == (True, None)


def test_key_lemma_trivial_shift_case():
    nu = np.array([0.5, 1.0, 2.0])
    delta = 0.3
    cfg = KeyLemmaConfig(
        n=3, p=2, delta=delta, R=30.0, a=float(sigma(2, nu) ** 0.5),
        mu=nu + delta, nu=nu,
    )
    lhs, rhs, ok, _ = key_lemma_check(cfg, directions=2000)
    # lhs = delta * sum(grad); rhs subtracts a nonnegative R-term from it
    assert lhs >= rhs


def test_key_lemma_random_configs():
    rng = np.random.default_rng(1)
    done = 0
    while done < 60:
        n, p = 4, 2
        nu = rng.uniform(0.2, 3.0, n)
        if sigma(2, nu) <= 0 or sigma(1, nu) <= 0:
            continue
        mu = rng.uniform(-1.0, 4.0, n)
        a = rng.uniform(0.5, 2.0)
        cfg = KeyLemmaConfig(
            n=n, p=p, delta=rng.uniform(0.1, 1.0), R=60.0, a=a,
            mu=mu, nu=nu,
        )
        lhs, rhs, ok, _ = key_lemma_check(cfg, directions=500, seed=done)
        if not ok:
            continue
        done += 1
        assert lhs - rhs >= -1e-9


def test_key_lemma_rejects_inadmissible_nu():
    cfg = KeyLemmaConfig(
        n=3, p=2, delta=0.5, R=5.0, a=1.0,
        mu=np.ones(3), nu=np.array([-2.0, 1.0, 1.0]),
    )
    with pytest.raises(AdmissibilityError):
        key_lemma_check(cfg, directions=100)


def test_matrix_form_matches_vector_on_diagonals():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n, p = 3, 2
        nu = np.sort(rng.uniform(0.3, 3.0, n))
        mu = np.sort(rng.uniform(-0.5, 4.0, n))
        delta, R, a = 0.4, 40.0, 1.0
        mlhs, mrhs = matrix_form_sides(p, delta, R, a, np.diag(mu), np.diag(nu))
        cfg = KeyLemmaConfig(n=n, p=p, delta=delta, R=R, a=a, mu=mu, nu=nu)
        vlhs, vrhs, _, _ = key_lemma_check(cfg, directions=1)
        assert mlhs == pytest.approx(vlhs, abs=1e-9)
        assert mrhs == pytest.approx(vrhs, abs=1e-9)


def test_matrix_form_conjugation_invariant_rhs():
    rng = np.random.default_rng(3)
    nu = np.array([0.5, 1.0, 2.0])
    mu = np.array([0.2, 1.5, 3.0])
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    C = Q @ np.diag(mu) @ Q.T
    D = Q @ np.diag(nu) @ Q.T
    lhs1, rhs1 = matrix_form_sides(2, 0.4, 40.0, 1.0, np.diag(mu), np.diag(nu))
    lhs2, rhs2 = matrix_form_sides(
        2, 0.4, 40.0, 1.0, 0.5 * (C + C.T), 0.5 * (D + D.T)
    )
    assert lhs2 == pytest.approx(lhs1, abs=1e-9)
    assert rhs2 == pytest.approx(rhs1, abs=1e-9)


def assert_crossing(base, x, p, a, t):
    """At the crossing t*, subset enumeration gives sigma_p = a^p, a step
    1e-6 back along the ray is below the level set, and the crossing lies
    in the open cone (the branch past the largest root of sigma_p)."""
    target = a**p
    # rel 1e-9, unless one ulp of t moves sigma_p further: a ray with tiny
    # xi_j crosses where base_j + t xi_j nearly cancels
    ulp = np.spacing(t)
    spread = abs(sigma_brute(p, base + (t + ulp) * x) - sigma_brute(p, base + (t - ulp) * x))
    err = abs(sigma_brute(p, base + t * x) - target)
    assert err <= max(1e-9 * target, spread)
    assert sigma_brute(p, base + (t - 1e-6) * x) < target
    assert classify(base + t * x, ConeSpec(len(x), p)).region == "interior"


def test_level_crossing_against_brute_force():
    rng = np.random.default_rng(61)
    for _ in range(80):
        n = int(rng.integers(1, 8))
        p = int(rng.integers(1, n + 1))
        base = rng.uniform(-1.0, 4.0, n) - rng.uniform(0.1, 1.0)
        a = rng.uniform(0.5, 2.0)
        xi = rng.uniform(0.0, 1.0, (20, n)) + 1e-3
        xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
        t = _level_crossing(base, xi, p, a)
        for ti, x in zip(t, xi):
            assert_crossing(base, x, p, a, ti)


def dense_crossing(base, xi, p, a):
    """The crossing Newton of _level_crossing on the whole batch, every row
    every step, with the number of steps each row descends."""
    target = a**p
    c = sigma_ray_coeffs(p, base, xi)
    c[..., 0] -= target
    k = np.arange(1, p + 1)
    bounds = np.abs(c[..., p - k] / c[..., p, None]) ** (1.0 / k)
    bounds[..., -1] *= 0.5 ** (1.0 / p)
    t = 2.0 * np.max(bounds, axis=-1)
    steps = np.zeros(t.shape, dtype=int)
    while True:
        g = sigma(p, base + t[..., None] * xi) - target
        dg = np.polynomial.polynomial.polyval(t, (c[..., 1:] * k).T, tensor=False)
        step = t - g / dg
        down = step < t
        if not np.any(down):
            return t, steps
        steps += down
        t = np.where(down, step, t)


def test_level_crossing_active_set_is_exact():
    # one batch of rays that settle after at most 6 steps, rays that need
    # 15 or more, and rays whose crossing lies below 0 (clamped by
    # key_lemma_check), ordered so each half loses its settled rows at
    # other steps than the whole batch does
    rng = np.random.default_rng(62)
    n, p, a = 3, 3, 1.0
    xi = rng.uniform(0.0, 1.0, (4000, n)) + 1e-3
    xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
    low = np.array([-0.8, 0.5, 2.0])
    _, steps = dense_crossing(low, xi, p, a)
    fast, slow = xi[steps <= 6][:60], xi[steps >= 15]
    assert len(fast) == 60 and len(slow) >= 10
    base = np.concatenate([np.repeat([low], 40, 0), np.repeat([low + 1.5], 20, 0),
                           np.repeat([low], len(slow) + 20, 0)])
    rays = np.concatenate([fast[:40], xi[:20], slow, fast[40:]])
    t = _level_crossing(base, rays, p, a)
    ref, steps = dense_crossing(base, rays, p, a)
    assert steps.min() <= 6 and steps.max() >= 15 and np.sum(t < 0) == 20
    half = len(rays) // 2
    halves = [_level_crossing(base[s], rays[s], p, a)
              for s in (slice(None, half), slice(half, None))]
    assert np.array_equal(np.concatenate(halves), t)
    assert np.array_equal(ref, t)
    for b, x, ti in zip(base, rays, t):
        assert_crossing(b, x, p, a, ti)


@pytest.mark.filterwarnings("error")
def test_level_crossing_rejects_nonfinite_iterate():
    # sigma_2(xi) = 0 on the last ray: its Fujiwara bound would be inf; the
    # ray is named and rejected before that division, with no warning
    rng = np.random.default_rng(63)
    xi = rng.uniform(0.0, 1.0, (50, 3)) + 1e-3
    xi[-1] = [1.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="ray 49.*finite"):
        _level_crossing(np.array([-0.5, 0.2, 1.0]), xi, 2, 1.0)
