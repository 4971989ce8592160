"""Tests for elementary symmetric polynomial machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phessian.symfun import (
    identity_residuals,
    sigma,
    sigma_all,
    sigma_brute,
    sigma_minors,
    sigma_pair_minors,
    sigma_planes,
    sigma_ray_coeffs,
    sigma_root_grad,
    sigma_trunc,
)


def test_sigma_hand_values():
    assert sigma(2, [1.0, 2.0, 3.0]) == 11.0
    assert sigma(0, [7.0, -4.0]) == 1.0
    assert sigma(4, [1.0, 2.0, 3.0]) == 0.0
    assert sigma(-1, [1.0, 2.0]) == 0.0


def test_sigma_trunc_hand_values():
    mu = [1.0, 2.0, 3.0]
    assert sigma_trunc(2, mu, [2]) == 3.0        # sigma_2(1, 0, 3)
    assert sigma_trunc(1, mu, [1, 1]) == 0.0     # repeated index
    assert sigma_trunc(1, mu, [2, 3]) == 1.0     # complement rule


def test_sigma_trunc_bad_index():
    with pytest.raises(ValueError, match="out of range"):
        sigma_trunc(1, [1.0, 2.0], [3])


def test_empty_vector_rejected():
    with pytest.raises(ValueError):
        sigma(1, [])
    with pytest.raises(ValueError):
        sigma(1, np.nan * np.ones(3))


def test_sigma_against_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = rng.integers(1, 11)
        mu = rng.uniform(-10, 10, n)
        for p in range(n + 1):
            a = sigma(p, mu)
            b = sigma_brute(p, mu)
            # scale by the summand magnitude; cancellation can leave the
            # result far smaller than the terms that produced it
            scale = max(1.0, sigma(p, np.abs(mu)))
            assert abs(a - b) <= 1e-13 * scale


def test_sigma_batched_matches_scalar():
    rng = np.random.default_rng(1)
    mu = rng.uniform(-5, 5, (20, 4))
    batched = sigma(2, mu)
    for i in range(20):
        assert batched[i] == sigma(2, mu[i])


def test_sigma_planes_matches_sigma():
    # entry planes (n,) + batch give sigma of the moved-back vectors bit for
    # bit, and a non-finite entry fails sigma's input check
    rng = np.random.default_rng(5)
    mu = rng.uniform(-5, 5, (6, 7, 4))
    planes = np.ascontiguousarray(np.moveaxis(mu, -1, 0))
    for p in range(-1, 6):
        assert np.array_equal(sigma_planes(p, planes), sigma(p, mu)), p
    planes[2, 3, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        sigma_planes(2, planes)


def test_sigma_all_consistent():
    rng = np.random.default_rng(2)
    mu = rng.uniform(-5, 5, (10, 5))
    e = sigma_all(mu)
    for p in range(6):
        np.testing.assert_allclose(e[:, p], sigma(p, mu), rtol=1e-14)


@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=8),
    st.integers(0, 8),
)
@settings(max_examples=200, deadline=None)
def test_sigma_symmetric(entries, p):
    mu = np.array(entries)
    perm = np.sort(mu)[::-1]
    a, b = sigma(p, mu), sigma(p, perm)
    assert abs(a - b) <= 1e-13 * max(1.0, abs(a), abs(b))


def test_trunc_equals_complement():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = rng.integers(2, 9)
        mu = rng.uniform(-10, 10, n)
        m = rng.integers(1, n)
        J = 1 + rng.choice(n, size=m, replace=False)
        comp = [mu[k] for k in range(n) if k + 1 not in set(J)]
        for p in range(n - m + 1):
            a = sigma_trunc(p, mu, J)
            b = sigma(p, np.array(comp)) if comp else (1.0 if p == 0 else 0.0)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a), abs(b))


def test_identity_residuals_hand_case():
    res = identity_residuals(2, [1.0, 2.0, 3.0])
    assert all(v <= 1e-12 for v in res.values())
    # identity (a) with j=1 by hand: 1*sigma_1(0,2,3) + sigma_2(0,2,3) = 11
    assert 1.0 * 5.0 + 6.0 == sigma(2, [1.0, 2.0, 3.0])


def test_identity_residuals_zero_vector():
    res = identity_residuals(1, [0.0, 0.0, 0.0])
    assert all(v == 0.0 for v in res.values())


def test_identity_residuals_random_sweep():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        mu = rng.uniform(-10, 10, (200, n))
        for p in range(n + 1):
            res = identity_residuals(p, mu)
            worst = max(float(np.max(v)) for v in res.values())
            assert worst <= 1e-10, (n, p, worst)


def test_expansion_with_partial_index_list():
    rng = np.random.default_rng(11)
    mu = rng.uniform(-5, 5, 6)
    res = identity_residuals(3, mu, expansion_indices=[2, 5, 1])
    assert res["expansion"] <= 1e-12


def test_expansion_rejects_repeats():
    with pytest.raises(ValueError, match="distinct"):
        identity_residuals(2, [1.0, 2.0, 3.0], expansion_indices=[1, 1])


def _brute_scale(p, mu):
    return max(1.0, sigma_brute(p, np.abs(mu)))


def test_sigma_minors_against_brute_force():
    # oracle: subset enumeration over the vector with entry j deleted
    rng = np.random.default_rng(20)
    for n in range(1, 8):
        mus = rng.uniform(-4, 4, (5, n))
        for p in range(-1, n + 2):
            batch = sigma_minors(p, mus)
            assert batch.shape == (5, n)
            for b, mu in enumerate(mus):
                single = sigma_minors(p, mu)
                assert single.shape == (n,)
                for j in range(n):
                    rest = np.delete(mu, j)
                    want = sigma_brute(p, rest) if len(rest) else float(p == 0)
                    tol = 1e-13 * _brute_scale(p, rest)
                    assert abs(single[j] - want) <= tol, (n, p, j)
                    assert abs(batch[b, j] - want) <= tol, (n, p, j)


def test_sigma_pair_minors_against_brute_force():
    # oracle: subset enumeration over the vector with entries j, k deleted
    rng = np.random.default_rng(21)
    for n in range(1, 8):
        mus = rng.uniform(-4, 4, (3, 2, n))
        for p in range(-1, n + 1):
            batch = sigma_pair_minors(p, mus)
            assert batch.shape == (3, 2, n, n)
            for idx in np.ndindex(3, 2):
                mu = mus[idx]
                single = sigma_pair_minors(p, mu)
                for j in range(n):
                    for k in range(n):
                        if j == k:
                            want = 0.0
                        else:
                            rest = np.delete(mu, [j, k])
                            want = (sigma_brute(p, rest) if len(rest)
                                    else float(p == 0))
                        tol = 1e-13 * _brute_scale(p, mu)
                        assert abs(single[j, k] - want) <= tol, (n, p, j, k)
                        assert abs(batch[idx][j, k] - want) <= tol


def test_sigma_root_grad_against_finite_differences():
    rng = np.random.default_rng(22)
    h = 1e-6
    for n in range(2, 6):
        for p in range(1, n + 1):
            mu = rng.uniform(0.5, 3.0, (4, n))
            f, grad = sigma_root_grad(p, mu)
            np.testing.assert_allclose(f, sigma(p, mu) ** (1.0 / p), rtol=1e-15)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd = (sigma(p, mu + e) ** (1.0 / p)
                      - sigma(p, mu - e) ** (1.0 / p)) / (2 * h)
                np.testing.assert_allclose(grad[:, j], fd, rtol=1e-7, atol=1e-9)
            f1, g1 = sigma_root_grad(p, mu[0])
            assert isinstance(f1, float)
            np.testing.assert_allclose(g1, grad[0], rtol=1e-14)


def test_sigma_root_grad_single_is_batch_of_one():
    rng = np.random.default_rng(23)
    for n in range(1, 8):
        for p in range(1, n + 1):
            mu = rng.uniform(0.1, 5.0, (40, n))
            f, grad = sigma_root_grad(p, mu)
            for i in range(len(mu)):
                f1, g1 = sigma_root_grad(p, mu[i])
                assert f1 == f[i] and np.array_equal(g1, grad[i]), (n, p, i)


def test_sigma_ray_coeffs_match_brute_force():
    # the coefficients of t -> sigma_p(base + t xi), evaluated at random t,
    # against subset enumeration of the moved vector
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        p = int(rng.integers(0, n + 2))
        base = rng.uniform(-3.0, 3.0, (4, n))
        xi = rng.uniform(-2.0, 2.0, (4, n))
        coeffs = sigma_ray_coeffs(p, base, xi)
        assert coeffs.shape == (4, p + 1)
        for b, x, c in zip(base, xi, coeffs):
            single = sigma_ray_coeffs(p, b, x)
            assert np.array_equal(single, c)
            for t in rng.uniform(-2.0, 2.0, 3):
                want = sigma_brute(p, b + t * x)
                got = np.polynomial.polynomial.polyval(t, c)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def ray_coeffs_by_products(p, base, xi):
    """sigma_ray_coeffs's recurrence with its j = 1 update written as the
    products with e[0] = (1, 0, ..., 0), as for every other j."""
    base, xi = np.broadcast_arrays(np.asarray(base, float), np.asarray(xi, float))
    e = np.zeros((p + 1, p + 1) + base.shape[:-1])
    e[0, 0] = 1.0
    for k in range(base.shape[-1]):
        b, x = base[..., k], xi[..., k]
        for j in range(min(k + 1, p), 0, -1):
            e[j, 1:] += x * e[j - 1, :-1]
            e[j] += b * e[j - 1]
    return np.moveaxis(e[p], 0, -1)


def test_sigma_ray_coeffs_sign_of_zero():
    # entries +-0.0 and values that cancel to zero, all-zero rays and bases:
    # bit for bit (signs of zero included) the recurrence that adds the
    # products with e[0]
    rng = np.random.default_rng(33)
    values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0])
    for n in range(1, 9):
        for p in range(0, n + 2):
            base = rng.choice(values, (80, n))
            xi = rng.choice(values, (80, n))
            base[:4] = [[0.0], [-0.0], [0.0], [-0.0]]
            xi[2:6] = [[0.0], [-0.0], [-0.0], [0.0]]
            got = sigma_ray_coeffs(p, base, xi)
            want = ray_coeffs_by_products(p, base, xi)
            assert got.shape == want.shape == (80, p + 1)
            assert got.tobytes() == want.tobytes(), (n, p)
            assert np.any(np.signbit(base)) and np.any(np.signbit(xi))
