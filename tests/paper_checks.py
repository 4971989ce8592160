"""Both sides of the rank-one update identity and of the key lemma's matrix
form, each side computed by its own route through the package, and the
slacks of the Weyl sandwich, the Schur-Horn diagonal comparison and
midpoint concavity of sigma_p^{1/p} on the matrix cone.  Only the tests
read them."""

import numpy as np

from phessian.cone import OUTSIDE, ConeSpec, classify, require_cone
from phessian.errors import VerificationError
from phessian.spectral import (
    Pencil,
    _check_symmetric,
    eigs,
    jacobi_eigh,
    linearization,
    matrix_sigmas,
)
from phessian.symfun import _as_values, sigma, sigma_minors


def rank_one_sigma(mu, B, nu, p):
    """Both sides of the rank-one update identity

        sigma_p(lam(diag(mu) + B nu nu^T)) =
            sigma_p(mu) + B sum_j nu_j^2 sigma_{p-1}(mu|j).

    The left side goes through the eigensolver, the right side through
    sigma-minors; returns (lhs, rhs) once they agree within 1e-9 (relative
    past unit size) and raises VerificationError otherwise.
    """
    mu = _as_values(mu)
    nu = np.asarray(nu, dtype=float)
    M = np.diag(mu) + B * np.outer(nu, nu)
    lhs = sigma(p, jacobi_eigh(M))
    rhs = sigma(p, mu) + B * float(np.sum(nu**2 * sigma_minors(p - 1, mu)))
    if not abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs)):
        raise VerificationError(
            f"rank-one update identity fails: {lhs!r} != {rhs!r}",
            lhs=lhs,
            rhs=rhs,
        )
    return float(lhs), float(rhs)


def matrix_form_sides(p, delta, R, a, C, D):
    """Matrix-form sides of the key lemma for symmetric C, D:

        lhs = sum_jk F^{jk} (c_jk - d_jk)
        rhs = delta * tr(F) + a - f(lam(D))
              - (R + |lam(C) - delta 1|) lam_1(F)

    with F = linearization(p, I, D) the gradient of f(lam(I, .)) =
    sigma_p^{1/p} at D, f(lam(D)) from its principal minors and lam_1(F)
    from the eigensolver: no eigenvectors.
    """
    C = np.asarray(C, dtype=float)
    D = np.asarray(D, dtype=float)
    F = linearization(p, np.eye(D.shape[-1]), D)
    f_nu = matrix_sigmas(D)[p] ** (1.0 / p)
    lam_C = jacobi_eigh(C)
    lhs = float(np.sum(F * (C - D)))
    rhs = float(
        delta * np.trace(F)
        + a
        - f_nu
        - (R + np.linalg.norm(lam_C - delta)) * jacobi_eigh(F)[0]
    )
    return lhs, rhs


def weyl_check(A, B, C, q):
    """Weyl sandwich slacks for the q-th (1-based) pencil eigenvalue:

        lam_q(A,B) + lam_1(A,C) <= lam_q(A,B+C) <= lam_q(A,B) + lam_n(A,C)

    Returns (lower_slack, upper_slack), both >= 0 up to roundoff.
    """
    A = _check_symmetric(A)
    B = _check_symmetric(B)
    C = _check_symmetric(C)
    n = A.shape[-1]
    if not 1 <= q <= n:
        raise ValueError(f"need 1 <= q <= n, got q={q}")
    lam_B = eigs(Pencil(A, B))
    lam_C = eigs(Pencil(A, C))
    lam_BC = eigs(Pencil(A, B + C))
    lower = lam_BC[q - 1] - lam_B[q - 1] - lam_C[0]
    upper = lam_B[q - 1] + lam_C[-1] - lam_BC[q - 1]
    return float(lower), float(upper)


def schur_horn_check(B, p):
    """Diagonal-vs-spectrum comparison: with lam(I,B) in the closed cone
    the diagonal lies there too, and sigma_p(diag) >= sigma_p(lam).

    Returns (diag_in_closure, sigma_gap).
    """
    B = _check_symmetric(B)
    n = B.shape[-1]
    spec = ConeSpec(n, p)
    lam = eigs(Pencil(np.eye(n), B))
    require_cone(lam, spec, "lam(I, B)", closed=True)
    d = np.diagonal(B)
    diag_in = classify(d, spec).region != OUTSIDE
    gap = sigma(p, d) - sigma(p, lam)
    return bool(diag_in), float(gap)


def midpoint_concavity_check(A, B1, B2, p, t):
    """Concavity slack of sigma_p^{1/p}(lam(A, .)) along the segment:

        sigma_p^{1/p}(lam(A,(1-t)B1+tB2))
            - (1-t) sigma_p^{1/p}(lam(A,B1)) - t sigma_p^{1/p}(lam(A,B2))

    Both endpoints must have lam in the closed cone; the combination is
    asserted to stay there (convexity of the matrix cone).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0,1], got {t}")
    A = _check_symmetric(A)
    B1 = _check_symmetric(B1)
    B2 = _check_symmetric(B2)
    n = A.shape[-1]
    spec = ConeSpec(n, p)

    def root(Bx):
        lam = eigs(Pencil(A, Bx))
        require_cone(lam, spec, "lam", closed=True)
        return max(sigma(p, lam), 0.0) ** (1.0 / p)

    v1 = root(B1)
    v2 = root(B2)
    vmid = root((1.0 - t) * B1 + t * B2)
    return float(vmid - (1.0 - t) * v1 - t * v2)
