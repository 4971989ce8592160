"""Tests for pencil eigenvalues, derivative formulas, and matrix concavity."""

import unittest
import warnings
from unittest import mock

import numpy as np

from phessian import spectral
from phessian.cone import ConeSpec, classify_batch, sample_admissible
from phessian.errors import AdmissibilityError, DegenerateSpectrumError
from phessian.spectral import (
    Pencil,
    _decision_bounds,
    classify_matrices,
    eigs,
    jacobi_eigh,
    linearization,
    matrix_sigmas,
    newton_tensor,
    require_matrix_cone,
    spectral_derivs,
    spread,
    top_range,
)
from phessian.symfun import sigma, sigma_all, sigma_root_grad

from oracles import exact_region, matrix_sigma_exact, rotate, with_sigma
from paper_checks import midpoint_concavity_check, schur_horn_check, weyl_check


def rand_sym(rng, n, scale=1.0):
    M = rng.uniform(-scale, scale, (n, n))
    return 0.5 * (M + M.T)


def rand_spd(rng, n):
    M = rng.uniform(-1, 1, (n, n))
    return M @ M.T + n * np.eye(n)


class TestEigs(unittest.TestCase):
    def test_diagonal_sorted(self):
        lam = eigs(Pencil(np.eye(3), np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_allclose(lam, [1.0, 2.0, 3.0], atol=1e-13)

    def test_scalar_pencil_scaling(self):
        lam = eigs(Pencil(2.0 * np.eye(2), np.diag([1.0, 2.0])))
        np.testing.assert_allclose(lam, [2.0, 4.0], atol=1e-13)

    def test_two_by_two_hand_case(self):
        lam = eigs(Pencil(np.eye(2), np.array([[2.0, 1.0], [1.0, 2.0]])))
        np.testing.assert_allclose(lam, [1.0, 3.0], atol=1e-12)

    def test_not_spd_rejected(self):
        with self.assertRaises(ValueError):
            Pencil(np.diag([1.0, -1.0]), np.eye(2))

    def test_asymmetry_rejected(self):
        B = np.array([[1.0, 2.0], [0.0, 1.0]])
        with self.assertRaises(ValueError):
            Pencil(np.eye(2), B)

    def test_against_numpy_eig_of_product(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = rng.integers(2, 7)
            A = rand_spd(rng, n)
            B = rand_sym(rng, n, 3.0)
            lam = eigs(Pencil(A, B))
            ref = np.sort(np.linalg.eigvals(A @ B).real)
            np.testing.assert_allclose(lam, ref, atol=1e-9 * max(1, np.abs(ref).max()))

    def test_eps_shift_identity(self):
        # lam(A, B + eps*A^{-1}) = lam(A, B) + eps
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = rng.integers(2, 6)
            A = rand_spd(rng, n)
            B = rand_sym(rng, n, 2.0)
            eps = rng.uniform(0.1, 2.0)
            shifted = eigs(Pencil(A, B + eps * np.linalg.inv(A)))
            np.testing.assert_allclose(shifted, eigs(Pencil(A, B)) + eps, atol=1e-9)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = rng.integers(2, 6)
            A = rand_spd(rng, n)
            B = rand_sym(rng, n, 2.0)
            # well-conditioned P
            P = rand_spd(rng, n)
            Pinv = np.linalg.inv(P)
            lam1 = eigs(Pencil(A, B))
            lam2 = eigs(Pencil(P @ A @ P.T, Pinv.T @ B @ Pinv))
            np.testing.assert_allclose(lam1, lam2, atol=1e-9 * max(1, np.abs(lam1).max()))


class TestJacobi(unittest.TestCase):
    def test_matches_eigh(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(1, 9)
            M = rand_sym(rng, n, 5.0)
            w = jacobi_eigh(M)
            np.testing.assert_allclose(w, np.linalg.eigvalsh(M), atol=1e-11 * max(1, n))

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(5)
        Ms = np.stack([rand_sym(rng, 4, 3.0) for _ in range(40)])
        w = jacobi_eigh(Ms)
        for i in range(40):
            np.testing.assert_allclose(w[i], jacobi_eigh(Ms[i]), atol=1e-13)

    def test_zero_matrix(self):
        w = jacobi_eigh(np.zeros((3, 3)))
        np.testing.assert_array_equal(w, np.zeros(3))

    def test_sigma_of_spectrum_matches_principal_minors(self):
        # sigma_k(lam(M)) is the sum of the k x k principal minors of M,
        # evaluated here by determinants without any eigensolve
        from itertools import combinations

        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            M = rand_sym(rng, n, 3.0)
            lam = jacobi_eigh(M)
            for k in range(1, n + 1):
                minors = sum(
                    np.linalg.det(M[np.ix_(c, c)])
                    for c in combinations(range(n), k)
                )
                got = sigma(k, lam)
                assert abs(got - minors) <= 1e-10 * max(1.0, abs(minors)), (n, k)


def decision_edge(lam, p):
    """|sigma_p| below which classify_matrices sends a matrix with spectrum
    lam through the eigensolver: B_p |M|_F^p plus the smallest normal."""
    return _decision_bounds(len(lam), p)[-1] * np.linalg.norm(lam) ** p + np.finfo(float).tiny


class TestMinorPath(unittest.TestCase):
    """sigma_q from principal minors, the band-aware classifier and the
    Newton tensor, against the eigensolver as the independent oracle."""

    def test_minor_sigmas_match_spectrum(self):
        rng = np.random.default_rng(40)
        for d in range(1, 9):
            for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
                M = np.stack([rand_sym(rng, d, scale) for _ in range(30)])
                lam = jacobi_eigh(M)
                ref = sigma_all(lam)
                got = matrix_sigmas(M)
                unit = np.max(np.abs(lam), axis=-1)[:, None] ** np.arange(d + 1)
                self.assertLessEqual(np.max(np.abs(got - ref) / unit), 1e-12, (d, scale))
                for i in (0, 17):
                    single = matrix_sigmas(M[i])
                    self.assertEqual(single.shape, (d + 1,))
                    np.testing.assert_allclose(single, got[i], rtol=0, atol=1e-14 * unit[i].max())

    def test_minor_sigmas_hand_cases(self):
        M = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, -1.0], [0.0, -1.0, 4.0]])
        # sigma_2: 6 - 1 + 8 + 12 - 1 = 24; det: 2*11 - 1*4 = 18
        np.testing.assert_allclose(matrix_sigmas(M), [1.0, 9.0, 24.0, 18.0])
        np.testing.assert_array_equal(matrix_sigmas(np.zeros((5, 4, 4))), np.eye(1, 5).repeat(5, 0))
        np.testing.assert_allclose(matrix_sigmas(np.diag([1.0, 2.0, 3.0, 4.0, 5.0])),
                                   [1.0, 15.0, 85.0, 225.0, 274.0, 120.0])

    def fuzz_batch(self, rng, d, p):
        """Random, zero, rank-deficient, boundary and undecided rows."""
        rows = [rand_sym(rng, d, s) for s in (1e-6, 1e-2, 1.0, 1e2, 1e6) for _ in range(8)]
        rows += [np.zeros((d, d))] * 3
        for r in range(d):
            G = rng.normal(size=(d, r)) * rng.choice([1e-3, 1.0, 1e3])
            rows.append(G @ G.T)
            rows.append(-G @ G.T)
        for scale in (1e-3, 1.0, 1e3):
            head = scale * rng.uniform(1.0, 2.0, d - 1)
            if d > 1:
                rows.append(rotate(rng, with_sigma(head, p, 0.0)))   # on the boundary
                edge = decision_edge(with_sigma(head, p, 0.0), p)
                rows.append(rotate(rng, with_sigma(head, p, 0.5 * edge)))
                rows.append(rotate(rng, with_sigma(head, p, -0.5 * edge)))
            rows.append(rotate(rng, scale * sample_admissible(d, p, 1, rng)[0]))
        return np.stack(rows)

    def test_classifier_matches_eigen_path(self):
        # every verdict the classifier gives agrees with the eigenvalue
        # classifier, and the random rows, far from the cone's boundary,
        # are all decided; rows at the rounding level may be boundary where
        # classify_batch of the computed spectrum guesses a side
        rng = np.random.default_rng(41)
        for d in range(1, 7):
            for p in range(1, d + 1):
                M = self.fuzz_batch(rng, d, p)
                codes, sigmas = classify_matrices(M, ConeSpec(d, p))
                ref = classify_batch(jacobi_eigh(M), ConeSpec(d, p))
                decided = codes != 1
                np.testing.assert_array_equal(codes[decided], ref[decided], err_msg=f"d={d} p={p}")
                np.testing.assert_array_equal(codes[:40], ref[:40], err_msg=f"d={d} p={p}")
                np.testing.assert_array_equal(sigmas, matrix_sigmas(M))
                single = [int(classify_matrices(m, ConeSpec(d, p))[0]) for m in M]
                np.testing.assert_array_equal(single, codes)

    def test_plane_major_view_is_bit_identical(self):
        # construct passes np.moveaxis(hess, -1, 0) of a (d, d, m) Hessian;
        # d >= 4 takes the Faddeev-LeVerrier matmul path
        rng = np.random.default_rng(44)
        for d in range(2, 6):
            for p in range(1, d + 1):
                M = self.fuzz_batch(rng, d, p)
                view = np.moveaxis(np.ascontiguousarray(np.moveaxis(M, 0, -1)), -1, 0)
                self.assertFalse(view.flags.c_contiguous)
                codes, sigmas = classify_matrices(view, ConeSpec(d, p))
                ref_codes, ref_sigmas = classify_matrices(M, ConeSpec(d, p))
                np.testing.assert_array_equal(codes, ref_codes, err_msg=f"d={d} p={p}")
                np.testing.assert_array_equal(sigmas, ref_sigmas, err_msg=f"d={d} p={p}")

    def fallback_rows(self, M, spec):
        """classify_matrices(M, spec) plus the matrices it sent through the
        eigensolver."""
        seen = []

        def record(A):
            seen.append(np.array(A))
            return jacobi_eigh(A)

        with mock.patch.object(spectral, "jacobi_eigh", record):
            codes, _ = classify_matrices(M, spec)
        self.assertLessEqual(len(seen), 1)
        return codes, (seen[0] if seen else np.empty((0,) + M.shape[1:]))

    def test_annulus_rows_take_the_fallback(self):
        # rows whose |sigma_p| lies below the decision edge, on the boundary
        # or half the edge to either side, go through the eigensolver; rows
        # a thousand edges clear, I and the zero matrix do not.  Every
        # verdict given takes the exact signs of the float matrix
        rng = np.random.default_rng(42)
        for d, p in ((2, 2), (3, 2), (3, 3), (4, 2), (5, 4)):
            spec = ConeSpec(d, p)
            rows, annulus = [], []
            for scale in (1e-2, 1.0, 30.0, 1e3):
                head = scale * rng.uniform(1.0, 2.0, d - 1)
                edge = decision_edge(with_sigma(head, p, 0.0), p)
                for target, expect in ((0.0, True), (0.5 * edge, True), (-0.5 * edge, True),
                                       (1e3 * edge, False), (-1e3 * edge, False)):
                    rows.append(rotate(rng, with_sigma(head, p, target)))
                    annulus.append(expect)
            rows.append(np.eye(d))
            rows.append(np.zeros((d, d)))
            annulus += [False, False]
            M, annulus = np.stack(rows), np.array(annulus)
            codes, seen = self.fallback_rows(M, spec)
            np.testing.assert_array_equal(seen, M[annulus], err_msg=f"d={d} p={p}")
            exact = np.array([exact_region(matrix_sigma_exact(m), p) for m in M])
            decided = codes != 1
            np.testing.assert_array_equal(codes[decided], exact[decided], err_msg=f"d={d} p={p}")
            self.assertTrue(np.all(decided[:-1] | annulus[:-1]), (d, p))

    def test_rows_at_both_band_edges(self):
        # |sigma_p| 10% of the decision edge inside or outside either edge,
        # +-B_p |M|_F^p: rows just inside go through the eigensolver, rows
        # just outside are decided from the minors, with the exact signs of
        # the float matrix
        rng = np.random.default_rng(45)
        for d, p in ((2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (5, 4)):
            spec = ConeSpec(d, p)
            rows, inside = [], []
            for scale in (1e-2, 1.0, 30.0):
                head = scale * rng.uniform(1.0, 2.0, d - 1)
                edge = decision_edge(with_sigma(head, p, 0.0), p)
                for factor, outside in ((0.9, False), (1.1, True)):
                    for sign in (1.0, -1.0):
                        rows.append(rotate(rng, with_sigma(head, p, sign * factor * edge)))
                        inside.append(not outside)
            M, inside = np.stack(rows), np.array(inside)
            codes, seen = self.fallback_rows(M, spec)
            np.testing.assert_array_equal(seen, M[inside], err_msg=f"d={d} p={p}")
            exact = np.array([exact_region(matrix_sigma_exact(m), p) for m in M[~inside]])
            np.testing.assert_array_equal(codes[~inside], exact, err_msg=f"d={d} p={p}")
            self.assertNotIn(1, exact)

    def test_zero_matrix_is_boundary_without_eigensolve(self):
        for d in range(1, 6):
            for p in range(1, d + 1):
                codes, seen = self.fallback_rows(np.zeros((7, d, d)), ConeSpec(d, p))
                np.testing.assert_array_equal(codes, 1)
                self.assertEqual(len(seen), 0)

    def test_overflowing_minors_count_as_outside(self):
        # sigma_2 of diag(1e200, 2e200) overflows: no verdict may rest on
        # inf, so the matrix is named as outside, and nothing warns
        M = np.stack([np.eye(2), np.diag([1e200, 2e200]), np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with self.assertRaises(AdmissibilityError) as ctx:
                require_matrix_cone(M, 2)
            # order 1 needs only the trace, which is finite
            sigmas = require_matrix_cone(M, 1)
        self.assertEqual(ctx.exception.node, (1,))
        self.assertIn("overflowing eigenvalues", str(ctx.exception))
        np.testing.assert_array_equal(ctx.exception.lam, [1e200, 2e200])
        np.testing.assert_array_equal(sigmas[:, 1], [2.0, 3e200, 2.0])

    def test_nonfinite_matrix_is_outside_without_eigensolve(self):
        # a matrix with an inf or nan entry has no spectrum to widen: it is
        # outside without an eigensolve, and require_matrix_cone names it
        # with no eigenvalues, finite rows around it notwithstanding
        for d in range(1, 5):
            for p in range(1, d + 1):
                M = np.stack([np.eye(d)] * 4)
                M[1, 0, 0] = np.inf
                M[2, -1, 0] = M[2, 0, -1] = -np.inf
                M[3, d // 2, d // 2] = np.nan
                with np.errstate(over="ignore", invalid="ignore"):
                    codes, seen = self.fallback_rows(M, ConeSpec(d, p))
                np.testing.assert_array_equal(codes, [2, 0, 0, 0], err_msg=f"d={d} p={p}")
                self.assertEqual(len(seen), 0)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with self.assertRaises(AdmissibilityError) as ctx:
                        require_matrix_cone(M.reshape(2, 2, d, d), p)
                self.assertEqual(ctx.exception.node, (0, 1))
                self.assertIsNone(ctx.exception.lam)
                self.assertIn("non-finite entry at node (0, 1)", str(ctx.exception))

    def test_newton_tensor_matches_eigh_assembly(self):
        # F = (1/p) sigma_p^{1/p-1} T_{p-1}(M) against Q diag(df/dlam) Q^T
        rng = np.random.default_rng(43)
        for d in range(1, 9):
            for p in range(1, d + 1):
                lam = sample_admissible(d, p, 20, rng) * rng.choice([1e-3, 1.0, 1e3])
                M = np.stack([rotate(rng, row) for row in lam])
                sig = matrix_sigmas(M)
                T = newton_tensor(M, sig, p - 1)
                F = (1.0 / p) * sig[:, p, None, None] ** (1.0 / p - 1.0) * T
                w, Q = np.linalg.eigh(M)
                _, g = sigma_root_grad(p, w)
                ref = np.einsum("njk,nk,nlk->njl", Q, g, Q)
                scale = np.max(np.abs(ref), axis=(1, 2))[:, None, None]
                self.assertLessEqual(np.max(np.abs(F - ref) / scale), 1e-10, (d, p))
                np.testing.assert_allclose(
                    newton_tensor(M[3], sig[3], p - 1), T[3],
                    rtol=0, atol=1e-14 * np.abs(T[3]).max(),
                )

    def test_newton_tensor_hand_case(self):
        M = np.diag([1.0, 2.0, 3.0])
        sig = matrix_sigmas(M)
        # T_k(diag(lam)) = diag(sigma_k(lam|j))
        np.testing.assert_array_equal(newton_tensor(M, sig, 0), np.eye(3))
        np.testing.assert_allclose(newton_tensor(M, sig, 1), np.diag([5.0, 4.0, 3.0]))
        np.testing.assert_allclose(newton_tensor(M, sig, 2), np.diag([6.0, 3.0, 2.0]))
        np.testing.assert_allclose(newton_tensor(M, sig, 3), np.zeros((3, 3)), atol=1e-12)


class TestWeyl(unittest.TestCase):
    def test_hand_case(self):
        lower, upper = weyl_check(
            np.eye(2), np.diag([1.0, 2.0]), np.diag([0.0, 1.0]), 2
        )
        self.assertAlmostEqual(lower, 1.0, places=12)
        self.assertAlmostEqual(upper, 0.0, places=12)

    def test_zero_c(self):
        rng = np.random.default_rng(6)
        B = rand_sym(rng, 3, 2.0)
        for q in (1, 2, 3):
            lower, upper = weyl_check(np.eye(3), B, np.zeros((3, 3)), q)
            self.assertAlmostEqual(lower, 0.0, places=10)
            self.assertAlmostEqual(upper, 0.0, places=10)

    def test_random_sandwich(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            B = rand_sym(rng, 4, 3.0)
            C = rand_sym(rng, 4, 3.0)
            q = int(rng.integers(1, 5))
            lower, upper = weyl_check(np.eye(4), B, C, q)
            self.assertGreaterEqual(lower, -1e-10)
            self.assertGreaterEqual(upper, -1e-10)


def fd_second(func, E1, E2, h=1e-4):
    """Central second difference of func(B) in directions E1, E2."""
    return (
        func(h * E1 + h * E2)
        - func(h * E1 - h * E2)
        - func(-h * E1 + h * E2)
        + func(-h * E1 - h * E2)
    ) / (4.0 * h * h)


def sym_basis(n, j, k):
    E = np.zeros((n, n))
    E[j, k] += 0.5
    E[k, j] += 0.5
    return E


class TestSpectralDerivs(unittest.TestCase):
    def test_grad_lambda_sparsity(self):
        d = spectral_derivs(2, np.array([1.0, 2.0, 4.0]))
        G = d.grad_lambda[2]
        self.assertEqual(G[2, 2], 1.0)
        self.assertEqual(np.count_nonzero(G), 1)
        self.assertEqual(d.grad_lambda_A[2][2, 2], 4.0)

    def test_unsorted_diagonal(self):
        # lam_1 of diag(5, 1) lives in slot 2
        d = spectral_derivs(1, np.array([5.0, 1.0]))
        self.assertEqual(d.grad_lambda[0][1, 1], 1.0)
        self.assertEqual(d.grad_lambda[1][0, 0], 1.0)

    def test_hess_lambda_hand_value(self):
        d = spectral_derivs(2, np.array([1.0, 2.0, 4.0]))
        self.assertAlmostEqual(d.hess_lambda[2][0, 2, 2, 0], 1.0 / 6.0, places=13)

    def test_hess_sigma_hand_values(self):
        d = spectral_derivs(2, np.array([1.0, 2.0, 3.0]))
        self.assertEqual(d.hess_sigma[0, 0, 1, 1], 1.0)
        self.assertEqual(d.hess_sigma[0, 1, 0, 1], -0.5)
        self.assertEqual(d.hess_sigma[0, 1, 1, 0], -0.5)
        self.assertEqual(d.hess_sigma[0, 1, 2, 2], 0.0)

    def test_degenerate_raises_with_pair(self):
        with self.assertRaises(DegenerateSpectrumError) as cm:
            spectral_derivs(2, np.array([1.0, 1.0 + 1e-9, 3.0]))
        self.assertEqual(cm.exception.pair, (1, 2))

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(8)
        h = 1e-4
        checked = 0
        while checked < 30:
            n = int(rng.integers(2, 5))
            mu = np.sort(rng.uniform(-3, 3, n))
            if np.min(np.diff(mu)) < 0.5:
                continue
            checked += 1
            p = int(rng.integers(1, n + 1))
            D = np.diag(mu)
            d = spectral_derivs(p, mu)

            def lam_q(dB, q):
                return np.linalg.eigvalsh(D + dB)[q]

            def sig(dB):
                return sigma(p, np.linalg.eigvalsh(D + dB))

            for j in range(n):
                for k in range(j, n):
                    E1 = sym_basis(n, j, k)
                    fd_g = (sig(h * E1) - sig(-h * E1)) / (2 * h)
                    an_g = np.sum(d.grad_sigma * E1)
                    self.assertLess(abs(fd_g - an_g), 1e-6)
                    for q in range(n):
                        fd_l = (lam_q(h * E1, q) - lam_q(-h * E1, q)) / (2 * h)
                        an_l = np.sum(d.grad_lambda[q] * E1)
                        self.assertLess(abs(fd_l - an_l), 1e-6)
                    for l in range(n):
                        for m in range(l, n):
                            E2 = sym_basis(n, l, m)
                            fd_h = fd_second(sig, E1, E2, h)
                            an_h = np.einsum(
                                "jk,jklm,lm->", E1, d.hess_sigma, E2
                            )
                            self.assertLess(abs(fd_h - an_h), 1e-6)
                            for q in range(n):
                                fd_hl = fd_second(
                                    lambda dB: lam_q(dB, q), E1, E2, h
                                )
                                an_hl = np.einsum(
                                    "jk,jklm,lm->", E1, d.hess_lambda[q], E2
                                )
                                self.assertLess(abs(fd_hl - an_hl), 1e-6)


class TestLinearization(unittest.TestCase):
    def test_hand_case(self):
        F = linearization(2, np.eye(3), np.diag([1.0, 2.0, 3.0]))
        ref = np.diag([5.0, 4.0, 3.0]) / (2.0 * np.sqrt(11.0))
        np.testing.assert_allclose(F, ref, atol=1e-12)

    def test_identity_case(self):
        for n in (2, 3, 4):
            F = linearization(n, np.eye(n), np.eye(n))
            np.testing.assert_allclose(F, np.eye(n) / n, atol=1e-12)

    def test_trace_lower_bound(self):
        from math import comb

        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(1, n + 1))
            B = rand_sym(rng, n, 2.0) + 2 * n * np.eye(n)
            lam = eigs(Pencil(np.eye(n), B))
            if sigma(p, lam) <= 0:
                continue
            F = linearization(p, np.eye(n), B)
            self.assertGreaterEqual(np.trace(F), comb(n, p) ** (1.0 / p) - 1e-10)
            # F symmetric positive definite
            self.assertGreater(np.linalg.eigvalsh(F)[0], 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        h = 1e-5
        for _ in range(20):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(1, n + 1))
            g_inv = rand_spd(rng, n)
            B = rand_sym(rng, n, 1.0) + 2 * n * np.linalg.inv(g_inv)
            F = linearization(p, g_inv, B)

            def val(dB):
                lam = eigs(Pencil(g_inv, B + dB))
                return sigma(p, lam) ** (1.0 / p)

            for j in range(n):
                for k in range(j, n):
                    E = sym_basis(n, j, k)
                    fd = (val(h * E) - val(-h * E)) / (2 * h)
                    self.assertLess(abs(fd - np.sum(F * E)), 1e-6)

    def test_inadmissible_rejected(self):
        with self.assertRaises(AdmissibilityError):
            linearization(2, np.eye(3), np.diag([-1.0, 1.0, 1.0]))

    def random_batch(self, rng, n, rows):
        g_inv = np.stack([rand_spd(rng, n) for _ in range(rows)])
        B = np.stack(
            [rand_sym(rng, n, 0.5) + 4 * n * np.linalg.inv(g) for g in g_inv]
        )
        return g_inv, B

    def test_batch_rows_equal_single_calls(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            for p in range(1, n + 1):
                g_inv, B = self.random_batch(rng, n, 12)
                F = linearization(p, g_inv, B)
                self.assertEqual(F.shape, B.shape)
                for i in range(len(B)):
                    np.testing.assert_array_equal(
                        F[i], linearization(p, g_inv[i], B[i]),
                        err_msg=f"n={n} p={p} row {i}",
                    )
                # two leading axes name their rows the same way
                F2 = linearization(p, g_inv.reshape(3, 4, n, n), B.reshape(3, 4, n, n))
                np.testing.assert_array_equal(F2.reshape(F.shape), F)

    def test_batch_names_the_inadmissible_row(self):
        rng = np.random.default_rng(12)
        g_inv, B = self.random_batch(rng, 3, 8)
        # negating an admissible row makes every lam negative
        B[5] = -B[5]
        with self.assertRaises(AdmissibilityError) as ctx:
            linearization(2, g_inv, B)
        self.assertEqual(ctx.exception.node, (5,))
        self.assertIn("inadmissible eigenvalues", str(ctx.exception))
        P = np.linalg.cholesky(g_inv[5]).T
        np.testing.assert_allclose(
            ctx.exception.lam, np.linalg.eigvalsh(P @ B[5] @ P.T), rtol=1e-12
        )


class TestSchurHorn(unittest.TestCase):
    def test_hand_case(self):
        ok, gap = schur_horn_check(np.array([[2.0, 1.0], [1.0, 2.0]]), 2)
        self.assertTrue(ok)
        self.assertAlmostEqual(gap, 1.0, places=12)

    def test_diagonal_gap_zero(self):
        ok, gap = schur_horn_check(np.diag([1.0, 2.0, 3.0]), 2)
        self.assertTrue(ok)
        self.assertAlmostEqual(gap, 0.0, places=12)

    def test_random_conjugations(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            B = Q @ np.diag([1.0, 2.0, 3.0]) @ Q.T
            ok, gap = schur_horn_check(0.5 * (B + B.T), 2)
            self.assertTrue(ok)
            self.assertGreaterEqual(gap, -1e-10)

    def test_outside_closure_rejected(self):
        with self.assertRaises(AdmissibilityError):
            schur_horn_check(np.diag([-2.0, 1.0, 0.5]), 2)


class TestMidpointConcavity(unittest.TestCase):
    def test_degenerate_combination(self):
        B = np.diag([1.0, 2.0])
        self.assertAlmostEqual(
            midpoint_concavity_check(np.eye(2), B, B, 2, 0.3), 0.0, places=12
        )

    def test_hand_case(self):
        slack = midpoint_concavity_check(
            np.eye(2), np.diag([1.0, 3.0]), np.diag([3.0, 1.0]), 2, 0.5
        )
        self.assertAlmostEqual(slack, 2.0 - np.sqrt(3.0), places=12)

    def test_random_pairs(self):
        rng = np.random.default_rng(12)
        count = 0
        while count < 200:
            A = rand_spd(rng, 4)
            B1 = rand_sym(rng, 4, 1.0) + 6 * np.linalg.inv(A)
            B2 = rand_sym(rng, 4, 1.0) + 6 * np.linalg.inv(A)
            p = int(rng.integers(1, 5))
            try:
                slack = midpoint_concavity_check(A, B1, B2, p, rng.uniform())
            except AdmissibilityError:
                continue
            count += 1
            self.assertGreaterEqual(slack, -1e-10)

    def test_bad_t_rejected(self):
        with self.assertRaises(ValueError):
            midpoint_concavity_check(np.eye(2), np.eye(2), np.eye(2), 1, 1.5)


class TestTopRange(unittest.TestCase):
    def test_interval_holds_the_top_eigenvalue_and_is_tight(self):
        # lam_d - q lies in [c_lo b, c_hi b] on random symmetric matrices,
        # up to eigvalsh's error, and the extremal spectra (t, .., t,
        # -(d-1) t) and (d-1, -1, .., -1) reach its ends
        rng = np.random.default_rng(77)
        for d in range(1, 7):
            X = rng.normal(size=(300, d, d)) * 10.0 ** rng.uniform(-3, 3, (300, 1, 1))
            M = X + np.swapaxes(X, -1, -2)
            M[0] = np.diag([1.0] * (d - 1) + [-(d - 1.0)]) + 0.5 * np.eye(d)
            M[1] = np.diag([-1.0] * (d - 1) + [d - 1.0]) - 2.0 * np.eye(d)
            q, b, norm = spread(np.moveaxis(M, 0, -1))
            np.testing.assert_allclose(norm, np.sqrt(np.sum(M * M, axis=(1, 2))), rtol=1e-14)
            c_lo, c_hi = top_range(d)
            top = jacobi_eigh(M)[:, -1] - q
            slack = 1e-13 * norm
            self.assertTrue(np.all(top >= c_lo * b - slack))
            self.assertTrue(np.all(top <= c_hi * b + slack))
            self.assertLessEqual(abs(top[0] - c_lo * b[0]), slack[0])
            self.assertLessEqual(abs(top[1] - c_hi * b[1]), slack[1])


if __name__ == "__main__":
    unittest.main()
