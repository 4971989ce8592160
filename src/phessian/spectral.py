"""Eigenvalue pencils and the exact derivative formulas at diagonal points.

The eigenvalue map lam(A, B) takes a positive definite symmetric A and a
symmetric B to the spectrum of A*B, computed by congruence: with the
Cholesky factorization A = P^T P the spectrum of A*B equals that of the
symmetric matrix P B P^T, which LAPACK's symmetric eigensolver
diagonalizes.  Both steps are batched (any leading shape) because the grid
solver calls them on every node at once.

Symmetric functions of a spectrum need no eigensolve: sigma_q(lam(M)) is
the sum of the q x q principal minors of M (matrix_sigmas), and the
gradient of sigma_q(lam(M)) in M is the Newton tensor T_{q-1}(M)
(newton_tensor), from which matrix_root_grad forms the gradient F of
sigma_p^{1/p}.  classify_matrices decides cone membership of lam(M) from
the minors and sends only the rows inside the zero band's annulus through
the eigensolver; require_matrix_cone raises at the first matrix outside
the cone.

On top of the map sit the closed-form first and second derivatives of
lam_q and of sigma_p(lam) at (A, B) = (I, D) with D diagonal and the
batched linearization matrix F^{jk} of sigma_p^{1/p} under a metric.
"""

from dataclasses import dataclass

import numpy as np

from .cone import ConeSpec, ZERO_BAND, _region_codes, classify_batch
from .errors import AdmissibilityError, DegenerateSpectrumError
from .symfun import sigma_minors, sigma_pair_minors


def _check_symmetric(M):
    """M as a float array, symmetrized; ValueError unless square and
    symmetric to 1e-13 relative."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
    skew = np.max(np.abs(M - np.swapaxes(M, -1, -2)))
    if skew > 1e-13 * scale:
        raise ValueError(f"matrix not symmetric: asymmetry {skew:.3e}")
    return 0.5 * (M + np.swapaxes(M, -1, -2))


@dataclass(frozen=True)
class Pencil:
    """Pair (A, B) with A symmetric positive definite, B symmetric."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _check_symmetric(self.A)
        B = _check_symmetric(self.B)
        if A.shape != B.shape:
            raise ValueError("A and B must have the same shape")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        _cholesky_spd(A)  # raises if not positive definite


def _cholesky_spd(A):
    """Cholesky of a (batch of) SPD matrices; ValueError when not SPD."""
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc


def jacobi_eigh(M):
    """Eigenvalues of a (batch of) symmetric matrices, sorted ascending.

    LAPACK's symmetric solver (syevd via numpy) reads the lower triangle.
    A strided batch (a component-major Hessian seen through np.moveaxis)
    is copied to contiguous matrices first: the solver's per-matrix gather
    from strided memory costs more than the copy.
    """
    return np.linalg.eigvalsh(np.ascontiguousarray(M, dtype=float))


# |sigma_q| error allowed per unit of |M|_F^q between the minor and the
# eigenvalue evaluations of sigma_q(lam(M)); both stay below 1e-13 for d <= 8
MINOR_ROUNDING = 1e-10

# smallest eigenvalue gap at which spectral_derivs forms hess_lambda
GAP_TOL = 1e-6


def _identity_minus(s, MT):
    """s I - MT for a batch of scalars s and matrices MT."""
    out = -MT
    idx = np.arange(MT.shape[-1])
    out[..., idx, idx] += s[..., None]
    return out


def matrix_sigmas(M):
    """sigma_0(lam(M)), ..., sigma_d(lam(M)) for symmetric M (batch +
    (d, d)), shape batch + (d+1,), with no eigensolve: sigma_q(lam(M)) is
    the sum of the q x q principal minors of M.

    Closed forms for d <= 3; above that Faddeev-LeVerrier, Newton's
    identities q sigma_q = tr(M T_{q-1}(M)) along the recurrence of
    newton_tensor.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[-1]
    out = np.empty(M.shape[:-2] + (d + 1,))
    out[..., 0] = 1.0
    if d > 3:
        MT = M
        for q in range(1, d + 1):
            out[..., q] = np.trace(MT, axis1=-2, axis2=-1) / q
            if q < d:
                MT = M @ _identity_minus(out[..., q], MT)
        return out
    m = [[M[..., i, j] for j in range(d)] for i in range(d)]
    out[..., 1] = sum(m[i][i] for i in range(d))
    if d >= 2:
        out[..., 2] = sum(
            m[i][i] * m[j][j] - m[i][j] ** 2
            for i in range(d) for j in range(i + 1, d)
        )
    if d == 3:
        out[..., 3] = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] ** 2)
            - m[0][1] * (m[0][1] * m[2][2] - m[1][2] * m[0][2])
            + m[0][2] * (m[0][1] * m[1][2] - m[1][1] * m[0][2])
        )
    return out


def newton_tensor(M, sigmas, k):
    """Newton tensor T_k(M) = sum_{i<=k} (-1)^i sigma_{k-i}(lam(M)) M^i
    (batch + (d, d)), the gradient in M of sigma_{k+1}(lam(M)) (Reilly
    1973); sigmas are matrix_sigmas(M).  Horner form
    T_0 = I, T_j = sigma_j I - M T_{j-1}.
    """
    if k == 0:
        return np.broadcast_to(np.eye(M.shape[-1]), M.shape)
    T = _identity_minus(sigmas[..., 1], M)
    for j in range(2, k + 1):
        T = _identity_minus(sigmas[..., j], M @ T)
    return T


def matrix_root_grad(M, sigmas, p):
    """Gradient in M of sigma_p^{1/p}(lam(M)) for symmetric M (batch +
    (d, d)) with lam(M) in the open cone: (1/p) sigma_p^{1/p-1} T_{p-1}(M),
    with sigmas = matrix_sigmas(M) and T the Newton tensor.  No
    eigenvectors."""
    scale = (1.0 / p) * sigmas[..., p] ** (1.0 / p - 1.0)
    return scale[..., None, None] * newton_tensor(M, sigmas, p - 1)


def classify_matrices(M, spec):
    """Region codes of lam(M) (2 interior, 1 boundary, 0 outside) for
    symmetric M (batch + (d, d)), with the matrix_sigmas of every row.

    The codes are those of classify_batch(jacobi_eigh(M), spec).  Its zero
    band scales with max|lam|, which minors do not give; max|lam| lies in
    [|M|_F/sqrt(d), |M|_F].  A row is decided from its minors when every
    |sigma_q|, q <= p, lies more than the rounding allowance
    MINOR_ROUNDING |M|_F^q outside the band's whole range, since then every
    threshold in that range gives one verdict.  The other rows (|sigma_q|
    in the band's annulus) go through the eigensolver.
    """
    M = np.asarray(M, dtype=float)
    p = spec.p
    sigmas = matrix_sigmas(M)
    sig = sigmas[..., 1 : p + 1]
    norm = np.sqrt(np.einsum("...jk,...jk->...", M, M))
    # |M|_F^q as a running product, one plane per q; the rounding allowance
    # is far wider than its last bits
    power = 1.0
    hi = np.empty((p,) + norm.shape)
    decided = True
    for q in range(p):
        power = power * norm
        lo = ZERO_BAND * np.maximum(1.0, power / np.sqrt(spec.n) ** (q + 1))
        hi[q] = ZERO_BAND * np.maximum(1.0, power)
        slack = MINOR_ROUNDING * power
        size = np.abs(sig[..., q])
        decided = decided & ((size < lo - slack) | (size > hi[q] + slack))
    codes = _region_codes(sig, np.moveaxis(hi, 0, -1))
    if not np.all(decided):
        codes[~decided] = classify_batch(jacobi_eigh(M[~decided]), spec)
    return codes, sigmas


def require_matrix_cone(M, p):
    """matrix_sigmas(M) for symmetric M (batch + (d, d)) when every lam(M)
    lies in the open cone of order p; otherwise AdmissibilityError with the
    unravelled batch index of the first matrix that does not and its
    eigenvalues.  A matrix with a sigma_q, q <= p, that is not finite counts
    as outside, and nothing warns: no verdict rests on inf.

    The matrices are classified as one flat batch: with a grid's axes kept,
    the peak RSS of a 128^2 Newton solve rose by about 0.8 MB in most runs
    (x86_64, glibc heap layout), though its traced live peak did not."""
    d = M.shape[-1]
    flat = M.reshape(-1, d, d)
    with np.errstate(over="ignore", invalid="ignore"):
        codes, sigmas = classify_matrices(flat, ConeSpec(d, p))
        inside = codes == 2
        if not np.isfinite(sigmas).all():
            # only when needed: this reduction costs half a classification
            inside &= np.isfinite(sigmas[:, 1 : p + 1]).all(axis=-1)
        if np.all(inside):
            return sigmas.reshape(M.shape[:-2] + (d + 1,))
        bad = int(np.argmax(~inside))
        lam = jacobi_eigh(flat[bad])
    node = tuple(int(i) for i in np.unravel_index(bad, M.shape[:-2]))
    what = "inadmissible" if codes[bad] != 2 else "overflowing"
    raise AdmissibilityError(
        f"{what} eigenvalues {lam} at node {node}", node=node, lam=lam
    )


def _congruence(A, B):
    """(P, P B P^T) with the Cholesky factorization A = P^T P of the SPD A;
    lam(A, B) is the spectrum of P B P^T."""
    P = np.swapaxes(_cholesky_spd(A), -1, -2)
    return P, P @ B @ np.swapaxes(P, -1, -2)


def eigs(pencil):
    """Eigenvalues of the pencil, ascending: spectrum of A*B via the
    congruence P B P^T with A = P^T P.  Takes a Pencil or an (A, B) pair;
    A and B may be batches of matrices of one shape."""
    if not isinstance(pencil, Pencil):
        pencil = Pencil(*pencil)
    return jacobi_eigh(_congruence(pencil.A, pencil.B)[1])


@dataclass(frozen=True)
class SpectralDerivs:
    """Closed-form derivatives of lam_q and sigma_p(lam) at (A,B) = (I,D).

    Index conventions: grad_lambda[q-1][j,k] is d lam_q / d b_jk;
    hess_lambda[q-1][j,k,l,m] is d^2 lam_q / (d b_lm d b_jk); sigma blocks
    drop the q index.  All arrays use 0-based numpy indexing for the
    matrix slots.
    """

    grad_lambda: np.ndarray      # (n, n, n)
    grad_lambda_A: np.ndarray    # (n, n, n)
    hess_lambda: np.ndarray      # (n, n, n, n, n); NaN blocks when skipped
    grad_sigma: np.ndarray       # (n, n)
    grad_sigma_A: np.ndarray     # (n, n)
    hess_sigma: np.ndarray       # (n, n, n, n)


def spectral_derivs(p, D, skip_degenerate=False):
    """Derivative formulas at the diagonal point (A, B) = (I, diag(D)).

    hess_lambda needs every eigenvalue it references to be simple (gap >=
    GAP_TOL); with skip_degenerate the offending q-blocks are filled with
    NaN instead of raising.  The sigma blocks use the minor closed forms,
    finite at ties, so they carry no gap requirement.
    """
    mu = np.asarray(D, dtype=float)
    if mu.ndim != 1:
        raise ValueError("D must be a vector of diagonal entries")
    n = len(mu)

    grad_lambda = np.zeros((n, n, n))
    grad_lambda_A = np.zeros((n, n, n))
    order = np.argsort(mu, kind="stable")
    # lam_q is the q-th smallest; at a diagonal matrix it sits in slot
    # order[q-1] of the diagonal
    grad_lambda[np.arange(n), order, order] = 1.0
    grad_lambda_A[np.arange(n), order, order] = mu[order]

    hess_lambda = np.zeros((n, n, n, n, n))
    for q in range(n):
        s = order[q]
        gaps = np.abs(mu - mu[s])
        gaps[s] = np.inf
        if np.min(gaps) < GAP_TOL:
            other = int(np.argmin(gaps))
            if skip_degenerate:
                hess_lambda[q] = np.nan
                continue
            raise DegenerateSpectrumError(
                f"eigenvalue gap {np.min(gaps):.3e} below {GAP_TOL:.1e} "
                f"between entries {s + 1} and {other + 1}",
                pair=(min(s, other) + 1, max(s, other) + 1),
            )
        for k in range(n):
            if k == s:
                continue
            val = 1.0 / (2.0 * (mu[s] - mu[k]))
            hess_lambda[q, s, k, s, k] = val   # j=l=q, k=m != j
            hess_lambda[q, s, k, k, s] = val   # j=q, m=q? (j=m=q,k=l) pattern
            hess_lambda[q, k, s, k, s] = val   # k=m=q, j=l != k
            hess_lambda[q, k, s, s, k] = val   # k=l=q, j=m != k

    minors = sigma_minors(p - 1, mu)
    grad_sigma = np.diag(minors)
    grad_sigma_A = np.diag(mu * minors)

    j, l = np.nonzero(~np.eye(n, dtype=bool))
    pair = sigma_pair_minors(p - 2, mu)[j, l]
    hess_sigma = np.zeros((n, n, n, n))
    hess_sigma[j, j, l, l] = pair          # doubled diagonal
    hess_sigma[j, l, j, l] = -0.5 * pair   # (j=l', k=m')
    hess_sigma[j, l, l, j] = -0.5 * pair   # transposed pair
    return SpectralDerivs(
        grad_lambda, grad_lambda_A, hess_lambda,
        grad_sigma, grad_sigma_A, hess_sigma,
    )


def linearization(p, g_inv, B):
    """F^{jk} = d sigma_p^{1/p}(lam(g_inv, .)) / d b_jk at B, batched over
    leading axes: matrix_root_grad at M = P B P^T (_congruence), pulled back
    as F = P^T (.) P.  AdmissibilityError (require_matrix_cone) unless every
    lam lies in the open cone; F is checked positive definite.
    """
    g_inv = _check_symmetric(g_inv)
    B = _check_symmetric(B)
    P, M = _congruence(g_inv, B)
    grad = matrix_root_grad(M, require_matrix_cone(M, p), p)
    F = np.swapaxes(P, -1, -2) @ grad @ P
    F = 0.5 * (F + np.swapaxes(F, -1, -2))
    _cholesky_spd(F)  # minors strictly positive inside the cone => F > 0
    return F
