"""Cone verdicts against exact rational signs, and the inputs a fixed zero
band once misclassified."""

import numpy as np
import pytest

from phessian.cone import ConeSpec, classify_batch, cone_distance, require_cone
from phessian.solver import EquationSpec, GridFn, TorusGrid, newton_solve
from phessian.spectral import classify_matrices, require_matrix_cone

from oracles import exact_region, matrix_sigma_exact, rotate, sigma_exact, with_sigma


def batches(rng, n, p, rows):
    """The four kinds of test vectors: uniform, log-spread over 1e-7..1e7
    (all positive, and with random signs), small integers with exact zeros,
    and sigma_p near 0 (a last entry solving sigma_p = 0, or the shift of
    cone_distance)."""
    uniform = rng.uniform(-5.0, 5.0, (rows, n))
    spread = 10.0 ** rng.uniform(-7.0, 7.0, (rows, n))
    spread[rows // 2 :] *= rng.choice([-1.0, 1.0], (rows - rows // 2, n))
    integers = rng.integers(-3, 4, (rows, n)).astype(float)
    head = rng.uniform(-1.0, 3.0, (rows, n - 1))
    near = with_sigma(head, p, 0.0) if n > 1 else np.zeros((rows, 1))
    shifted = uniform + cone_distance(uniform, ConeSpec(n, p))[:, None]
    return np.concatenate([uniform, spread, integers, near, shifted])


@pytest.mark.parametrize("n", range(1, 8))
def test_vector_verdicts_never_contradict_exact_signs(n):
    rng = np.random.default_rng(270 + n)
    for p in range(1, n + 1):
        mu = batches(rng, n, p, 60)
        codes = classify_batch(mu, ConeSpec(n, p))
        exact = np.array([exact_region(sigma_exact(row), p) for row in mu])
        decided = codes != 1
        np.testing.assert_array_equal(codes[decided], exact[decided], err_msg=f"p={p}")
        # every all-positive row is interior, however spread
        assert np.all(codes[60:90] == 2), p


@pytest.mark.parametrize("d", range(1, 8))
def test_matrix_verdicts_never_contradict_exact_signs(d):
    # the exact signs are those of the rotated float matrix itself: its
    # characteristic polynomial in rationals
    rng = np.random.default_rng(280 + d)
    for p in range(1, d + 1):
        lam = batches(rng, d, p, 8)
        M = np.stack([rotate(rng, row) for row in lam])
        codes, _ = classify_matrices(M, ConeSpec(d, p))
        regions = np.array([exact_region(matrix_sigma_exact(m), p) for m in M])
        decided = codes != 1
        np.testing.assert_array_equal(codes[decided], regions[decided], err_msg=f"p={p}")


SPREAD_ROWS = [[1e-3, 2e-3, 1e6], [1e-7, 1e-7, 1.0]]


def test_spread_positive_vectors_are_interior():
    spec = ConeSpec(3, 3)
    np.testing.assert_array_equal(classify_batch(SPREAD_ROWS, spec), [2, 2])
    require_cone(np.array(SPREAD_ROWS), spec)
    sigmas = require_matrix_cone(np.stack([np.diag(row) for row in SPREAD_ROWS]), 3)
    assert np.all(sigmas > 0)


@pytest.mark.parametrize("c", [1e-7, 1e-9])
def test_small_conformal_constant_is_solved_at_once(c):
    # sigma_2^{1/2}(lam(c I + D^2 u)) = c is solved by u = 0
    grid = TorusGrid((16, 16))
    spec = EquationSpec(p=2, A_field=("conformal", c), rhs=("constant", c))
    sol, trace = newton_solve(spec, GridFn(grid, np.zeros(grid.sizes)), tol=1e-9)
    assert trace == []
    np.testing.assert_array_equal(sol.values, 0.0)
