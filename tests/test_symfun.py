"""Tests for elementary symmetric polynomial machinery."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phessian import symfun
from phessian.symfun import (
    _prefix_slope,
    identity_residuals,
    newton_descent,
    sigma,
    sigma_all,
    sigma_minors,
    sigma_pair_minors,
    sigma_root_grad,
    sigma_trunc,
)

from oracles import sigma_brute


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


def sqrt_newton(x, c):
    """Newton's step for x^2 = c: from above sqrt(c) it decreases onto it."""
    return 0.5 * (x + c / x)


def recorded(c):
    """sqrt_newton for c, with every x it is called on kept in .calls."""
    def step(x):
        step.calls.append(x.copy())
        return sqrt_newton(x, c)
    step.calls = []
    return step


def test_newton_descent_keeps_a_start_that_does_not_descend():
    # from below sqrt(c) the first step goes up: those rows return their
    # starts unchanged while the others descend
    x = np.array([1.0, 50.0, 0.5, 3.0])
    c = np.array([4.0, 4.0, 9.0, 9.0])
    out = newton_descent(x, lambda x: sqrt_newton(x, c))
    assert out[0] == 1.0 and out[2] == 0.5
    assert out[1] == pytest.approx(2.0, rel=1e-15)
    assert out[3] == 3.0  # the root itself: its step repeats it


def test_newton_descent_batch_matches_rows_alone():
    # rows that settle after 1 to about 20 steps give the same bits alone
    # and in one batch
    rng = np.random.default_rng(6)
    c = rng.uniform(0.1, 10.0, 40)
    x = np.sqrt(c) * 10.0 ** rng.uniform(0.0, 6.0, 40)
    step = recorded(c)
    out = newton_descent(x, step)
    alone = np.array([newton_descent(x[i : i + 1], recorded(c[i : i + 1]))[0]
                      for i in range(len(x))])
    assert np.array_equal(out, alone)
    moves = np.sum(np.diff(np.array(step.calls), axis=0) != 0, axis=0)
    assert moves.min() <= 4 and moves.max() >= 20


def test_newton_descent_settled_row_never_moves_again():
    # once a row's step fails to decrease it, the row keeps that value in
    # every later call, however long the other rows descend
    c = np.array([4.0, 2.0, 7.0])
    x = np.array([2.5, 1e8, 1e3])
    step = recorded(c)
    out = newton_descent(x, step)
    calls = np.array(step.calls)
    for row in range(len(x)):
        seen = calls[:, row]
        settled = np.flatnonzero(sqrt_newton(seen, c[row]) >= seen)[0]
        assert np.all(seen[settled:] == out[row])
        assert np.all(np.diff(seen[: settled + 1]) < 0)


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
# sigma_3 = -0.617 from products up to about 170: the orders differ by 2.27e-13
@example([4.5, 4.450095815484875, 5.5, 5.625, 5.59375, -2.125, -2.125, -2.15625], 3)
def test_sigma_symmetric(entries, p):
    # the recurrence's rounding scales with the terms it sums, whose size
    # is sigma_p(|mu|), not with a result they may cancel down to
    mu = np.array(entries)
    perm = np.sort(mu)[::-1]
    a, b = sigma(p, mu), sigma(p, perm)
    assert abs(a - b) <= 1e-13 * max(1.0, sigma(p, np.abs(mu)))


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
    res, bound = identity_residuals(2, [1.0, 2.0, 3.0])
    assert all(v <= 1e-12 and v < bound[k] for k, v in res.items())
    # identity (a) with j=1 by hand: 1*sigma_1(0,2,3) + sigma_2(0,2,3) = 11
    assert 1.0 * 5.0 + 6.0 == sigma(2, [1.0, 2.0, 3.0])


def test_identity_residuals_zero_vector():
    res, bound = identity_residuals(1, [0.0, 0.0, 0.0])
    assert all(v == 0.0 for v in res.values())
    # the minor differences compare sigma_0 = 1 on both sides; every other
    # side vanishes, and so does its bound
    assert {k for k, v in bound.items() if v > 0} == {
        "minor_difference_1_2", "minor_difference_1_3", "minor_difference_2_3"}


def test_identity_residuals_random_sweep():
    # each residual stays below its bound, and within 1e-10 relative to
    # its larger side once that exceeds 1
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        mu = rng.uniform(-10, 10, (200, n))
        for p in range(n + 1):
            res, bound = identity_residuals(p, mu)
            sides = symfun._identity_sides(p, mu, list(range(1, n + 1)))
            for k, v in res.items():
                assert np.all(v < bound[k]), (n, p, k)
                scale = np.maximum(1.0, np.maximum(*map(np.abs, sides[k])))
                assert np.max(v / scale) <= 1e-10, (n, p, k)


def test_expansion_with_partial_index_list():
    rng = np.random.default_rng(11)
    mu = rng.uniform(-5, 5, 6)
    res, bound = identity_residuals(3, mu, expansion_indices=[2, 5, 1])
    assert res["expansion"] <= 1e-12 and res["expansion"] < bound["expansion"]


def test_expansion_rejects_repeats():
    with pytest.raises(ValueError, match="distinct"):
        identity_residuals(2, [1.0, 2.0, 3.0], expansion_indices=[1, 1])
    # the expansion needs one index: with none it would report a residual
    with pytest.raises(ValueError, match="non-empty"):
        identity_residuals(2, [1.0, 2.0, 3.0], expansion_indices=[])


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


def test_prefix_slope_is_sigma_and_its_derivative():
    # the value is sigma's bit for bit, the slope sum_i xi_i sigma_{p-1}(x|i)
    # and sum_i xi_i sigma_{p-1} of x without entry i by subset enumeration
    rng = np.random.default_rng(34)
    for n in range(1, 8):
        for p in range(1, n + 1):
            x = rng.choice([0.0, -0.0, 1.0, -2.0, 0.5], (40, n))
            x[20:] = rng.uniform(-3.0, 3.0, (20, n))
            xi = rng.uniform(0.0, 2.0, (40, n))
            value, slope = _prefix_slope(x.T, xi.T, p)
            assert value.tobytes() == sigma(p, x).tobytes(), (n, p)
            brute = [sum(v[i] * sigma_brute(p - 1, np.delete(r, i)) for i in range(n))
                     for r, v in zip(x, xi)]
            for ref in (np.sum(xi * sigma_minors(p - 1, x), axis=-1), brute):
                np.testing.assert_allclose(slope, ref, rtol=1e-12, atol=1e-12)
