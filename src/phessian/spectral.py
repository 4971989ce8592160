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
the minors' signs where they clear the minors' rounding, and from the
eigenvalues, widened by eigvalsh's error, elsewhere; require_matrix_cone
raises at the first matrix outside the cone.  extreme_eigenvalues gives
the extremes of a batch's spectra by bound and verify, eigensolving only
the matrices whose trace and deviatoric norm (spread) let them hold one.

On top of the map sit the closed-form first and second derivatives of
lam_q and of sigma_p(lam) at (A, B) = (I, D) with D diagonal and the
batched linearization matrix F^{jk} of sigma_p^{1/p} under a metric.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .cone import ConeSpec, classify_batch
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


# eigvalsh's error per eigenvalue per unit of |M|_F, with room: backward stable
# (LAPACK Users' Guide, section 4.7), it erred by at most 5.0 eps |M|_F against
# mpmath on 4,500 random, double-root and near-identity 3 x 3 matrices
EIGH_ROUNDING = 64 * np.finfo(float).eps


def spread(planes, trace=None):
    """(q, b, norm) for the matrices M of the component-major planes
    (d, d)+batch: q = tr M / d, the deviatoric norm b = |M - qI|_F and
    norm = |M|_F = sqrt(b^2 + d q^2), each of shape batch; trace, when
    given, is tr M summed over the diagonal in order, as matrix_sigmas
    sums it.  top_range(d) turns q and b into an interval for the top
    eigenvalue.

    Rounding, wherever |M|_F is finite and at least 1e-140 (below, squares
    underflow by more): with u = eps/2, gamma_k = k u / (1 - k u),
    nu = |M|_F and k = d (d + 1) / 2 squares in b^2,
      * the in-order trace errs by gamma_{d-1} sum |M_ii| <= gamma_{d-1}
        sqrt(d) nu, so q by dq <= gamma_d nu / sqrt(d);
      * each M_ii - q differs from its exact value by dq + u |M_ii - q|, so
        the vector whose norm is b moves by sqrt(d) dq + u b <= (gamma_d +
        u) nu, and summing its k squares and the square root add gamma_{k+2}
        of it;
      * top_range's c is a division and a square root off (gamma_2),
        c <= 1, and the product c b, its sum with q and a sum with a
        multiple of nu round once each on values at most 2 nu (|q| <=
        nu / sqrt(d), b <= nu).
    So an end q +- c b, with a multiple of norm added, errs by at most
    gamma_{k+3d+16} nu, the computed norm's own error in the multiple
    included.
    """
    d = len(planes)
    q = (sum(planes[i, i] for i in range(d)) if trace is None else trace) / d
    b = sum(np.square(planes[i, i] - q) for i in range(d))
    for i in range(d):
        for j in range(i + 1, d):
            b += 2.0 * np.square(planes[i, j])
    norm = np.sqrt(b + d * q * q)
    return q, np.sqrt(b, out=b), norm


def top_range(d):
    """(c_lo, c_hi) with lam_d(M) - q in [c_lo b, c_hi b] for every
    symmetric d x d matrix M, q and b as spread gives them.  The deviatoric
    part's eigenvalues x sum to 0 and have |x| = b, so the largest, t,
    leaves the others -t to share: b^2 >= t^2 + t^2 / (d - 1) bounds it
    above, and x = (t, ..., t, -(d-1) t), |x|^2 = d (d-1) t^2, is the
    least it can be.  At d = 1, b = 0 and lam_1 = q."""
    if d == 1:
        return 0.0, 0.0
    return 1.0 / np.sqrt(d * (d - 1)), np.sqrt((d - 1) / d)


def extreme_eigenvalues(planes):
    """(max lam_d, min lam_1) over the symmetric matrices of the
    component-major planes (d, d)+batch, equal bit for bit to the extremes
    of jacobi_eigh over every matrix, by bound and verify: each computed
    lam_d lies in q + [c_lo b, c_hi b] (top_range) and each lam_1, the top
    eigenvalue of -M negated, in q - [c_hi b, c_lo b], widened by
    (EIGH_ROUNDING + gamma_{k+3d+16}) |M|_F, eigvalsh's error and the ends'
    own (spread, k = d (d + 1) / 2).  Only the matrices whose
    interval reaches the best lower (upper) end are eigensolved, with every
    one whose interval is not finite or whose |M|_F is below 1e-140;
    LAPACK solves each matrix on its own, so the extremes of those are the
    extremes of all.  The bound fields are formed one or two at a time."""
    d = len(planes)
    flat = planes.reshape(d, d, -1)
    c_lo, c_hi = top_range(d)
    k = d * (d + 1) // 2 + 3 * d + 16
    u = np.finfo(float).eps / 2
    with np.errstate(over="ignore", invalid="ignore"):
        q, b, widen = spread(flat)
        bounded = (widen >= 1e-140) & (widen < np.inf)
        widen *= EIGH_ROUNDING + k * u / (1 - k * u)
        keep = ~bounded
        # lam_d in c b + q, and -lam_1 in c b - q, for c in [c_lo, c_hi]
        for shift in (np.add, np.subtract):
            near = np.multiply(b, c_lo)
            shift(near, q, out=near)
            near -= widen
            cut = np.max(near, where=bounded, initial=-np.inf)
            far = shift(np.multiply(b, c_hi, out=near), q, out=near)
            far += widen
            keep |= far >= cut
    lam = jacobi_eigh(np.moveaxis(flat, -1, 0)[np.flatnonzero(keep)])
    return float(np.max(lam[:, -1])), float(np.min(lam[:, 0]))


# smallest eigenvalue gap at which spectral_derivs forms hess_lambda
GAP_TOL = 1e-6


def _identity_minus(s, MT, out=None):
    """s I - MT for a batch of scalars s and matrices MT, in out when given
    (MT itself, say: each entry is read only where it is written)."""
    out = np.negative(MT, out=out)
    for i in range(MT.shape[-1]):
        out[..., i, i] += s
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


def newton_tensor(M, sigmas, k, out=None):
    """Newton tensor T_k(M) = sum_{i<=k} (-1)^i sigma_{k-i}(lam(M)) M^i
    (batch + (d, d)), the gradient in M of sigma_{k+1}(lam(M)) (Reilly
    1973); sigmas are matrix_sigmas(M).  Horner form
    T_0 = I, T_j = sigma_j I - M T_{j-1}, each T_j, j >= 2, formed in the
    memory of its product M T_{j-1}.  At k = 1 the result is written to out
    when given, which may be M itself: T_1 = sigma_1 I - M is elementwise.
    """
    if k == 0:
        return np.broadcast_to(np.eye(M.shape[-1]), M.shape)
    T = _identity_minus(sigmas[..., 1], M, out if k == 1 else None)
    for j in range(2, k + 1):
        T = M @ T
        _identity_minus(sigmas[..., j], T, T)
    return T


def matrix_root_grad(M, sigmas, p):
    """Gradient in M of sigma_p^{1/p}(lam(M)) for symmetric M (batch +
    (d, d)) with lam(M) in the open cone: (1/p) sigma_p^{1/p-1} T_{p-1}(M),
    with sigmas = matrix_sigmas(M) and T the Newton tensor.  No
    eigenvectors.  M is consumed: at p = 2 the result is formed in M's own
    memory (T_1 is elementwise in M), above p = 2 in the last product's."""
    scale = ((1.0 / p) * sigmas[..., p] ** (1.0 / p - 1.0))[..., None, None]
    if p == 1:
        return scale * newton_tensor(M, sigmas, 0)
    T = newton_tensor(M, sigmas, p - 1, out=M)
    T *= scale
    return T


def _decision_bounds(d, p):
    """B_1..B_p: where |sigma_q(lam(M))| from the minors exceeds B_q |M|_F^q
    its sign is exact.  Faddeev-LeVerrier rounds k = q (2d + 2) times on the
    way to sigma_q, so it errs by at most gamma_k = k u / (1 - k u), u =
    eps / 2, times its run on |M| with every sign dropped, at most d
    C(d+q-1, q-1) |M|_F^q / q (less for the closed forms, d <= 3).  B_q is
    twice that."""
    u = np.finfo(float).eps / 2
    bounds = []
    for q in range(1, p + 1):
        k = q * (2 * d + 2)
        bounds.append(2 * k * u / (1 - k * u) * d * comb(d + q - 1, q - 1) / q)
    return bounds


def classify_matrices(M, spec):
    """Region codes of lam(M) (2 interior, 1 boundary, 0 outside) for
    symmetric M (batch + (d, d)), with the matrix_sigmas of every row.

    A row is decided by its minors' signs when every |sigma_q|, q <= p,
    exceeds B_q |M|_F^q (_decision_bounds) plus the smallest normal float.
    The others, bar exact zero matrices (boundary), go through jacobi_eigh,
    whose eigenvalues lie within EIGH_ROUNDING |M|_F <= s = EIGH_ROUNDING
    sqrt(d) max|lam| of the exact ones.  As Gamma_p + the closed positive
    orthant lies in Gamma_p, lam(M) is interior where classify_batch puts
    the spectrum minus s 1_d inside, outside where it puts the spectrum plus
    s 1_d outside, else boundary: no verdict contradicts the exact signs.
    """
    M = np.asarray(M, dtype=float)
    d, p = M.shape[-1], spec.p
    sigmas = matrix_sigmas(M)
    norm = np.sqrt(np.einsum("...jk,...jk->...", M, M))
    power = 1.0  # |M|_F^q, one plane per q
    decided = positive = True
    for q, b in enumerate(_decision_bounds(d, p), 1):
        power = power * norm
        decided = decided & (np.abs(sigmas[..., q]) > b * power + np.finfo(float).tiny)
        positive = positive & (sigmas[..., q] > 0)
    codes = np.where(decided, 2 * positive, 1)
    flat = M.reshape(-1, d, d)
    hard = np.flatnonzero(~decided)
    hard = hard[flat[hard].any(axis=(-2, -1))]  # exact zeros stay boundary
    if hard.size:
        lam = jacobi_eigh(flat[hard])
        slack = EIGH_ROUNDING * np.sqrt(d) * np.max(np.abs(lam), axis=-1, keepdims=True)
        inside = classify_batch(lam - slack, spec) == 2
        outside = classify_batch(lam + slack, spec) == 0
        codes.reshape(-1)[hard] = np.where(inside, 2, np.where(outside, 0, 1))
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
    hess_lambda: np.ndarray      # (n, n, n, n, n)
    grad_sigma: np.ndarray       # (n, n)
    grad_sigma_A: np.ndarray     # (n, n)
    hess_sigma: np.ndarray       # (n, n, n, n)


def spectral_derivs(p, D):
    """Derivative formulas at the diagonal point (A, B) = (I, diag(D)).

    hess_lambda needs every eigenvalue it references to be simple (gap >=
    GAP_TOL); DegenerateSpectrumError names the first pair that is not.
    The sigma blocks use the minor closed forms, finite at ties, so they
    carry no gap requirement.
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
