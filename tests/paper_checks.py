"""Both sides of the rank-one update identity and of the key lemma's matrix
form, each side computed by its own route through the package.  Only the
tests read them."""

import numpy as np

from phessian.errors import VerificationError
from phessian.spectral import jacobi_eigh, linearization, matrix_sigmas
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
