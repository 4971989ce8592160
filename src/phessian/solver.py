"""Periodic-grid embodiment of the general p-Hessian equation

    sigma_p^{1/p}( lam( A(du, u) + D^2 u ) ) = phi(du, u)

on a flat torus (identity metric, so covariant derivatives are plain
central differences).  The module owns:

* TorusGrid / GridFn and the periodic difference stencils,
* a small catalog of coefficient fields A(alpha, t) and right-hand sides
  phi(alpha, t) with their analytic alpha/t derivatives,
* nodewise residual and admissibility maps,
* a damped Newton iteration with cone-preserving line search, a zero-mean
  gauge for u-independent equations, and matrix-free LGMRES linear solves
  preconditioned by the Fourier symbol of the frozen-coefficient Jacobian
  (lgmres; its inner products are numpy reductions, not threaded BLAS, so
  a solve gives the same bits on any core count),
* diagnostic monitors and the auxiliary functions whose maxima the
  a-priori-estimate proofs track,
* pseudo-subsolution / pseudo-supersolution pointwise checkers,
* a contact-set lower bound for the Monge-Ampere mass (generalized
  Alexandrov lemma), and
* CSV/JSON serialization for grid fields and problem descriptions.
"""

import json
from dataclasses import dataclass
from math import gamma, hypot, isfinite, pi, sqrt

import numpy as np

from .cone import ConeSpec, classify_batch
from .errors import AdmissibilityError, NonconvergenceError, VerificationError
from .spectral import classify_matrices, jacobi_eigh, newton_tensor
from .symfun import sigma

# lgmres stops once |b - J s| <= KRYLOV_RTOL |b| in each Newton step
KRYLOV_RTOL = 1e-8
# corrections lgmres carries from cycle to cycle (Baker et al.: 1 to 3)
LGMRES_OUTER_K = 3


# ---------------------------------------------------------------------------
# grids and stencils

@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid; nodes at i*h per axis, period 2*pi by default."""

    sizes: tuple
    period: float = 2.0 * pi

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if any(s < 8 for s in sizes):
            raise ValueError("need at least 8 nodes per axis")
        object.__setattr__(self, "sizes", sizes)

    @property
    def d(self):
        return len(self.sizes)

    @property
    def h(self):
        return tuple(self.period / s for s in self.sizes)

    def axes(self):
        return [np.arange(s) * self.period / s for s in self.sizes]

    def meshgrid(self):
        return np.meshgrid(*self.axes(), indexing="ij")


@dataclass(frozen=True)
class GridFn:
    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.sizes:
            raise ValueError(
                f"values shape {v.shape} != grid sizes {self.grid.sizes}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", v)


def periodic_grad(f, h):
    """Central first differences, one array per axis, O(h^2)."""
    return np.stack(
        [
            (np.roll(f, -1, axis=m) - np.roll(f, 1, axis=m)) / (2.0 * h[m])
            for m in range(f.ndim)
        ]
    )


def periodic_hess(f, h):
    """Central second differences; shape (d, d) + f.shape, symmetric."""
    d = f.ndim
    H = np.empty((d, d) + f.shape)
    for i in range(d):
        H[i, i] = (
            np.roll(f, -1, axis=i) - 2.0 * f + np.roll(f, 1, axis=i)
        ) / h[i] ** 2
        for j in range(i + 1, d):
            fp = np.roll(f, -1, axis=i)
            fm = np.roll(f, 1, axis=i)
            cross = (
                np.roll(fp, -1, axis=j)
                - np.roll(fp, 1, axis=j)
                - np.roll(fm, -1, axis=j)
                + np.roll(fm, 1, axis=j)
            ) / (4.0 * h[i] * h[j])
            H[i, j] = cross
            H[j, i] = cross
    return H


def box_grad_hess(f, h, mask=None):
    """Gradient and Hessian of a field on a non-periodic box: repeated
    np.gradient, central inside and second-order one-sided at the edges,
    each mixed partial d_j(d_i f), j >= i, taken once.  Returns the
    gradient (n, m) and the Hessian (n, n, m) at the m nodes selected by
    the flat boolean mask (every node in row-major order when mask is
    None): component-major, the (d, d) + nodes layout of periodic_hess,
    one contiguous plane per component.  np.moveaxis(hess, -1, 0) is the
    (m, n, n) batch of matrices."""
    n = f.ndim
    grads = np.gradient(f, h, edge_order=2)
    if n == 1:
        grads = [grads]
    nodes = slice(None) if mask is None else mask
    m = f.size if mask is None else np.count_nonzero(mask)
    grad = np.empty((n, m))
    hess = np.empty((n, n, m))
    for i in range(n):
        grad[i] = grads[i].ravel()[nodes]
        for j in range(i, n):
            hess[i, j] = np.gradient(grads[i], h, axis=j, edge_order=2).ravel()[nodes]
            hess[j, i] = hess[i, j]
    return grad, hess


def ball_grid(radius, resolution, n):
    """Uniform grid on the box [-radius, radius]^n around the origin.

    Returns (points (N, n) in row-major node order, their distances to the
    origin, spacing h).
    """
    axis = np.linspace(-radius, radius, resolution)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return pts, np.linalg.norm(pts, axis=-1), axis[1] - axis[0]


# ---------------------------------------------------------------------------
# equation catalog

@dataclass(frozen=True)
class EquationSpec:
    """p plus catalog entries for the coefficient field and right side.

    A_field: ("zero",), ("conformal", c), ("paper_example", phi_tilde)
             with A = (1 - e^u - phi_tilde(x) |du|^2) I, or
             ("stored", array of shape sizes+(d,d)).
    rhs:     ("constant", c), ("stored", array over nodes), or
             ("paper_example", base, t_coeff) with
             phi = base(x) e^{t_coeff u} (sin(|du|^{2p-1}) + 2).
    """

    p: int
    A_field: tuple = ("zero",)
    rhs: tuple = ("constant", 1.0)


def _broadcast_field(param, shape):
    arr = np.asarray(param, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.ones(shape)
    if arr.shape != shape:
        raise ValueError(f"stored field shape {arr.shape} != grid {shape}")
    return arr


def _coefficient_A(spec, u, du):
    """A matrix field plus its t- and alpha-derivatives.

    Returns (A (shape+(d,d)), A_t (shape or None), A_alpha (shape+(d,)
    or None)); the derivative entries multiply the identity (all catalog
    A fields with u-dependence are conformal).
    """
    shape = u.shape
    d = u.ndim
    kind = spec.A_field[0]
    A = np.zeros(shape + (d, d))
    eye = np.arange(d)
    if kind == "zero":
        return A, None, None
    if kind == "conformal":
        A[..., eye, eye] = spec.A_field[1]
        return A, None, None
    if kind == "paper_example":
        phi_tilde = _broadcast_field(spec.A_field[1], shape)
        grad_sq = np.sum(du**2, axis=0)
        psi = 1.0 - np.exp(u) - phi_tilde * grad_sq
        A[..., eye, eye] = psi[..., None]
        A_t = -np.exp(u)
        A_alpha = -2.0 * phi_tilde[..., None] * np.moveaxis(du, 0, -1)
        return A, A_t, A_alpha
    if kind == "stored":
        stored = np.asarray(spec.A_field[1], dtype=float)
        if stored.shape != shape + (d, d):
            raise ValueError("stored A field has the wrong shape")
        return stored.copy(), None, None
    raise ValueError(f"unknown A catalog entry {kind!r}")


def _rhs_phi(spec, u, du):
    """phi plus d(phi)/dt and d(phi)/d(alpha) as node fields."""
    shape = u.shape
    kind = spec.rhs[0]
    if kind == "constant":
        c = float(spec.rhs[1])
        if c <= 0:
            raise ValueError("right-hand side must be positive")
        return np.full(shape, c), None, None
    if kind == "stored":
        phi = _broadcast_field(spec.rhs[1], shape)
        if np.any(phi <= 0):
            raise ValueError("right-hand side must be positive")
        return phi, None, None
    if kind == "paper_example":
        base = _broadcast_field(spec.rhs[1], shape)
        c = float(spec.rhs[2]) if len(spec.rhs) > 2 else 0.0
        if np.any(base <= 0):
            raise ValueError("right-hand side base must be positive")
        r = np.sqrt(np.sum(du**2, axis=0))
        s = r ** (2 * spec.p - 1)
        phi = base * np.exp(c * u) * (np.sin(s) + 2.0)
        phi_t = c * phi if c != 0 else None
        expo = 2 * spec.p - 3
        with np.errstate(divide="ignore", invalid="ignore"):
            radial = np.where(r > 0, r ** expo, 0.0)
        coeff = base * np.exp(c * u) * np.cos(s) * (2 * spec.p - 1) * radial
        phi_alpha = coeff[..., None] * np.moveaxis(du, 0, -1)
        return phi, phi_t, phi_alpha
    raise ValueError(f"unknown rhs catalog entry {kind!r}")


# ---------------------------------------------------------------------------
# residual, admissibility, linearization data

def _hessian_argument(u_vals, grid, spec):
    h = grid.h
    du = periodic_grad(u_vals, h)
    d2u = periodic_hess(u_vals, h)
    A, A_t, A_alpha = _coefficient_A(spec, u_vals, du)
    B = A + np.moveaxis(d2u, (0, 1), (-2, -1))
    return du, d2u, B, A_t, A_alpha


def _lambda_field(u_vals, grid, spec):
    """du, D^2 u and the nodewise eigenvalues (N, d) of A(du, u) + D^2 u."""
    du, d2u, B, _, _ = _hessian_argument(u_vals, grid, spec)
    return du, d2u, jacobi_eigh(B.reshape(-1, grid.d, grid.d))


def admissible(u, spec):
    """(ok, report): ok iff lam(A(du,u)+D^2u) is interior at every node.

    The report names the first violating node (unraveled index) and its
    eigenvalue vector; None when ok.
    """
    grid = u.grid
    try:
        _admissible_sigmas(_hessian_argument(u.values, grid, spec)[2], spec, grid)
    except AdmissibilityError as exc:
        return False, {"node": exc.node, "lam": exc.lam}
    return True, None


def _admissible_sigmas(B, spec, grid):
    """The nodewise matrices (N, d, d) of the field B and their
    matrix_sigmas (N, d+1); AdmissibilityError, with the eigenvalues of
    the first node whose lam(B) is not interior, unless all are."""
    flat = B.reshape(-1, grid.d, grid.d)
    codes, sigmas = classify_matrices(flat, ConeSpec(grid.d, spec.p))
    if np.all(codes == 2):
        return flat, sigmas
    bad = int(np.argmax(codes != 2))
    node = np.unravel_index(bad, grid.sizes)
    lam = jacobi_eigh(flat[bad])
    raise AdmissibilityError(
        f"inadmissible eigenvalues {lam} at node {node}", node=node, lam=lam
    )


def residual_field(u, spec):
    """Nodewise sigma_p^{1/p}(lam(A + D^2 u)) - phi(du, u)."""
    grid = u.grid
    du, _, B, _, _ = _hessian_argument(u.values, grid, spec)
    _, sigmas = _admissible_sigmas(B, spec, grid)
    lhs = sigmas[:, spec.p] ** (1.0 / spec.p)
    phi, _, _ = _rhs_phi(spec, u.values, du)
    return GridFn(grid, (lhs - phi.ravel()).reshape(grid.sizes))


def _linearization_data(u, spec):
    """Everything Newton needs at the current iterate.

    Returns (residual values, F field shape+(d,d), G field (d,)+shape,
    H field shape, A_alpha, admissibility margin min sigma_p) where the
    Jacobian action on s is

        J s = sum_jk F^{jk} d2s_jk + sum_m G_m ds_m + H s.

    F = (1/p) sigma_p^{1/p-1} T_{p-1}(B), with T the Newton tensor of the
    operator argument B = A + D^2 u: no eigenvectors.
    """
    grid = u.grid
    d = grid.d
    p = spec.p
    du, _, B, A_t, A_alpha = _hessian_argument(u.values, grid, spec)
    flat, sigmas = _admissible_sigmas(B, spec, grid)
    sp = sigmas[:, p]
    F = ((1.0 / p) * sp ** (1.0 / p - 1.0))[:, None, None] * newton_tensor(
        flat, sigmas, p - 1
    )
    F = F.reshape(grid.sizes + (d, d))

    phi, phi_t, phi_alpha = _rhs_phi(spec, u.values, du)
    res = (sp ** (1.0 / p)).reshape(grid.sizes) - phi

    trace_F = np.einsum("...jj->...", F)
    G = np.zeros((d,) + grid.sizes)
    H = np.zeros(grid.sizes)
    if A_alpha is not None:
        # dA_jk/dalpha_m = A_alpha[..., m] * delta_jk
        G += np.moveaxis(A_alpha, -1, 0) * trace_F
    if A_t is not None:
        H += A_t * trace_F
    if phi_alpha is not None:
        G -= np.moveaxis(phi_alpha, -1, 0)
    if phi_t is not None:
        H -= phi_t
    return res, F, G, H, A_alpha, float(np.min(sp))


def _apply_jacobian(s, F, G, H, h):
    ds = periodic_grad(s, h)
    d2s = periodic_hess(s, h)
    out = np.einsum("...jk,jk...->...", F, d2s)
    out += np.einsum("m...,m...->...", G, ds)
    out += H * s
    return out


def _fourier_preconditioner(F, G, H, h):
    """Inverse of the Jacobian with F, G, H frozen at their node means.

    On the periodic grid the stencils of _apply_jacobian act on the Fourier
    mode with angles theta by multiplication with the symbol

        - sum_j F_jj 4 sin^2(theta_j/2)/h_j^2
        - sum_{j != k} F_jk sin(theta_j) sin(theta_k)/(h_j h_k)
        + i sum_j G_j sin(theta_j)/h_j + H,

    so this is the exact inverse for constant coefficients.  Its real part
    is negative off the zero mode for SPD F and H <= 0.  A mode with a zero
    symbol (the constant under the zero-mean gauge, where H = 0) spans the
    kernel and is dropped.  Returns the inverse as a map of raveled fields.
    """
    shape = H.shape
    d = len(shape)
    axes = tuple(range(d))
    Fbar = F.reshape(-1, d, d).mean(axis=0)
    Gbar = G.reshape(d, -1).mean(axis=1)
    freqs = [np.fft.fftfreq(n) for n in shape[:-1]] + [np.fft.rfftfreq(shape[-1])]
    theta = np.meshgrid(*(2.0 * pi * f for f in freqs), indexing="ij", sparse=True)
    half = [2.0 * np.sin(t / 2.0) / hj for t, hj in zip(theta, h)]
    odd = [np.sin(t) / hj for t, hj in zip(theta, h)]
    symbol = complex(H.mean())
    for j in range(d):
        symbol = symbol - Fbar[j, j] * half[j] ** 2 + 1j * Gbar[j] * odd[j]
        for k in range(d):
            if k != j:
                symbol = symbol - Fbar[j, k] * odd[j] * odd[k]
    inverse = np.zeros_like(symbol)
    np.divide(1.0, symbol, out=inverse, where=symbol != 0)

    def apply(r):
        rhat = np.fft.rfftn(r.reshape(shape), axes=axes)
        return np.fft.irfftn(rhat * inverse, s=shape, axes=axes).ravel()

    return apply


def _gauge(spec, shape):
    """Newton's projection: onto zero mean when neither A nor phi depends
    on u (no t-derivative in the catalog), as the periodic problem is then
    invariant under adding constants; the identity otherwise."""
    u, du = np.zeros(shape), np.zeros((len(shape),) + shape)
    if _coefficient_A(spec, u, du)[1] is None and _rhs_phi(spec, u, du)[1] is None:
        return lambda f: f - np.mean(f)
    return lambda f: f


def residual_norm(res, spec):
    """Sup norm of the residual under newton_solve's gauge, the norm it
    drives below tol.  Under the zero-mean gauge the mean is a compatibility
    defect (discretization error of the data) that no update can remove."""
    return float(np.max(np.abs(_gauge(spec, res.shape)(res))))


def _dot(a, b):
    """Inner product in numpy's own single-threaded loop.  BLAS ddot splits
    long vectors across threads, and its summation order, hence its last
    bits, then depends on the thread count."""
    return float(np.einsum("i,i->", a, b))


def _norm(a):
    return sqrt(_dot(a, a))


def _combine(vectors, coeffs):
    """sum_i coeffs[i] vectors[i], accumulated in index order."""
    out = vectors[0] * coeffs[0]
    for v, c in zip(vectors[1:], coeffs[1:]):
        out += c * v
    return out


def _arnoldi(matvec, psolve, v0, m, atol, outer_v):
    """Up to m left-preconditioned GMRES steps from the unit vector v0, then
    one step for each augmentation pair (z, psolve(matvec(z))) in outer_v;
    stops early once the preconditioned residual, relative to |v0|, is
    below atol or the basis breaks down.  The Hessenberg matrix is reduced
    by Givens rotations as it grows.

    Returns (zs, vs, hs, y, res): the step directions, the orthonormal
    basis, the Hessenberg columns, the least-squares coefficients with
    psolve(matvec(zs @ y)) = vs @ (hs @ y), and the residual estimate; None
    when the triangular factor is singular or not finite.
    """
    m += len(outer_v)
    vs, zs, hs, rs, rots = [v0], [], [], [], []
    g = [1.0]
    eps = np.finfo(float).eps
    for j in range(m):
        if j >= m - len(outer_v):
            z, w = outer_v[j - (m - len(outer_v))]
            w = w.copy()
        else:
            z = vs[-1]
            w = psolve(matvec(z))
        w_norm = _norm(w)
        h = []
        for v in vs:
            alpha = _dot(v, w)
            h.append(alpha)
            w -= alpha * v
        h.append(_norm(w))
        if h[-1] != 0.0 and isfinite(1.0 / h[-1]):
            w *= 1.0 / h[-1]
        breakdown = not h[-1] > eps * w_norm
        vs.append(w)
        zs.append(z)
        hs.append(h)

        r = list(h)
        for i, (c, s) in enumerate(rots):
            r[i], r[i + 1] = c * r[i] + s * r[i + 1], c * r[i + 1] - s * r[i]
        rho = hypot(r[j], r[j + 1])
        c, s = (r[j] / rho, r[j + 1] / rho) if rho != 0.0 else (1.0, 0.0)
        rots.append((c, s))
        r[j] = rho
        rs.append(r)
        g[j], g_next = c * g[j], -s * g[j]
        g.append(g_next)
        res = abs(g_next)
        if res < atol or breakdown:
            break

    y = [0.0] * (j + 1)
    for k in range(j, -1, -1):
        if not (isfinite(rs[k][k]) and rs[k][k] != 0.0):
            return None
        y[k] = (g[k] - sum(rs[l][k] * y[l] for l in range(k + 1, j + 1))) / rs[k][k]
    return zs, vs, hs, y, res


def lgmres(matvec, b, M, rtol, maxiter, inner_m=30):
    """Solve J x = b from x = 0 by LGMRES (Baker, Jessup and Manteuffel,
    SIAM J. Matrix Anal. Appl. 2005): restarted GMRES (Saad and Schultz
    1986) whose every cycle of inner_m left-preconditioned steps is
    augmented by the last LGMRES_OUTER_K corrections, carried with their
    images so that they cost no matvec.  matvec applies J and M, the
    preconditioner, an approximate inverse of J, both to 1-D arrays.  Each
    outer cycle stops on the unpreconditioned residual, |J x - b| <= rtol
    |b|; the inner tolerance adapts to how far the last cycle's
    preconditioned residual ran from its target.  This is the algorithm of
    scipy.sparse.linalg.lgmres (with atol = 0), with every inner product a
    numpy reduction (_dot), so the result does not depend on the number of
    BLAS threads.

    Returns (x, 0) on convergence and (x, info > 0) otherwise: maxiter when
    the cycles run out, the cycle's number when M returns zero or an inner
    least-squares problem is singular or not finite.  Raises ValueError
    when b is not finite.
    """
    if not np.isfinite(b).all():
        raise ValueError("lgmres: the right-hand side must be finite")
    x = np.zeros_like(b, dtype=float)
    b_norm = _norm(b)
    if b_norm == 0.0:
        return x, 0
    tol = rtol * b_norm
    ptol_max_factor = 1.0
    outer_v = []
    for k_outer in range(maxiter):
        r_outer = matvec(x) - b
        r_norm = _norm(r_outer)
        if r_norm <= tol:
            return x, 0
        v0 = -M(r_outer)
        inner_res_0 = _norm(v0)
        if inner_res_0 == 0.0:
            return x, k_outer + 1
        v0 *= 1.0 / inner_res_0
        ptol = min(ptol_max_factor, tol / r_norm)
        arnoldi = _arnoldi(matvec, M, v0, inner_m, ptol, outer_v)
        if arnoldi is None:
            return x, k_outer + 1
        zs, vs, hs, y, pres = arnoldi
        y = [inner_res_0 * yk for yk in y]
        if not all(isfinite(yk) for yk in y):
            return x, k_outer + 1
        if pres > ptol:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        else:
            ptol_max_factor = max(1e-16, 0.25 * ptol_max_factor)

        dx = _combine(zs, y)
        nx = _norm(dx)
        if nx > 0.0:
            # image of dx: psolve(matvec(dx)) = vs @ q with q = hs @ y
            q = [0.0] * len(vs)
            for h, yk in zip(hs, y):
                for i, hik in enumerate(h):
                    q[i] += hik * yk
            outer_v.append((dx / nx, _combine(vs, q) / nx))
        while len(outer_v) > LGMRES_OUTER_K:
            del outer_v[0]
        x += dx
    return x, maxiter


def newton_solve(spec, u0, tol=1e-9, max_iters=30):
    """Damped Newton with admissibility-preserving line search, under the
    zero-mean gauge when the equation does not depend on u (see _gauge).
    Each linear solve is lgmres preconditioned by the Fourier inverse of
    the frozen-coefficient Jacobian (_fourier_preconditioner); lgmres stops
    on the unpreconditioned residual.  The linear solve makes no BLAS call:
    its inner products are numpy reductions and its matvecs are stencils
    and FFTs, so the trace and the solution are the same under any number
    of BLAS threads.

    Returns (solution GridFn, trace); the trace records, for every
    iteration, residual_norm, the raw residual norm, the accepted step
    length, the Jacobian matvecs of its linear solve (krylov_iters), the
    true relative residual |b - J s|/|b| of that solve (linear_residual,
    one matvec more), the halvings of its line search (backtracks) and the
    smallest sigma_p over the nodes of the new iterate
    (admissibility_margin).  NonconvergenceError carries
    the trace so far when a linear solve or the line search fails, or when
    max_iters iterations leave residual_norm above tol.
    """
    grid = u0.grid
    h = grid.h
    project = _gauge(spec, grid.sizes)
    u = project(u0.values)
    trace = []

    res, F, G, H, _, _ = _linearization_data(GridFn(grid, u), spec)
    rnorm = residual_norm(res, spec)
    for it in range(max_iters):
        if rnorm <= tol:
            break

        matvecs = 0

        def matvec(x):
            nonlocal matvecs
            matvecs += 1
            out = _apply_jacobian(project(x.reshape(grid.sizes)), F, G, H, h)
            return project(out).ravel()

        b = -project(res).ravel()
        step_dir, info = lgmres(
            matvec, b, M=_fourier_preconditioner(F, G, H, h), rtol=KRYLOV_RTOL,
            maxiter=2000,
        )
        if info != 0:
            raise NonconvergenceError(
                f"lgmres returned info {info} after {matvecs} matvecs "
                f"at Newton iteration {it}",
                trace=trace,
            )
        s = project(step_dir.reshape(grid.sizes))
        linear_residual = (
            _norm(b - project(_apply_jacobian(s, F, G, H, h)).ravel()) / _norm(b)
        )

        step = 1.0
        backtracks = 0
        while True:
            cand = u + step * s
            try:
                new_res, new_F, new_G, new_H, _, margin = _linearization_data(
                    GridFn(grid, cand), spec
                )
            except AdmissibilityError:
                new_res = None
            if new_res is not None:
                new_norm = residual_norm(new_res, spec)
                if new_norm <= (1.0 - 1e-4 * step) * rnorm:
                    break
            step *= 0.5
            backtracks += 1
            if step < 1e-12:
                raise NonconvergenceError(
                    f"line search stalled at Newton iteration {it}: "
                    f"{backtracks} halvings did not reduce the residual "
                    f"{rnorm:.3e} (tol {tol:.3e}); a tol below the "
                    f"stencils' rounding floor is out of reach",
                    trace=trace,
                )
        u = cand
        res, F, G, H = new_res, new_F, new_G, new_H
        rnorm = new_norm
        trace.append(
            {
                "iter": it,
                "residual": rnorm,
                "raw_residual": float(np.max(np.abs(res))),
                "step": step,
                "krylov_iters": matvecs,
                "linear_residual": linear_residual,
                "backtracks": backtracks,
                "admissibility_margin": margin,
            }
        )

    if rnorm > tol:
        raise NonconvergenceError(
            f"residual {rnorm:.3e} > tol {tol:.3e} after {max_iters} iterations",
            trace=trace,
        )
    return GridFn(grid, u), trace


# ---------------------------------------------------------------------------
# monitors and auxiliary functions

@dataclass(frozen=True)
class MonitorReport:
    osc_u: float
    max_grad: float
    max_hess: float
    max_lambda_n: float
    min_lambda_1: float


def monitors(u, spec):
    grid = u.grid
    du, d2u, lam = _lambda_field(u.values, grid, spec)
    return MonitorReport(
        osc_u=float(np.max(u.values) - np.min(u.values)),
        max_grad=float(np.max(np.sqrt(np.sum(du**2, axis=0)))),
        max_hess=float(np.max(np.sqrt(np.sum(d2u**2, axis=(0, 1))))),
        max_lambda_n=float(np.max(lam[:, -1])),
        min_lambda_1=float(np.min(lam[:, 0])),
    )


@dataclass(frozen=True)
class AuxiliarySpec:
    """Catalog entries ("linear", c) with f(t) = c*t or ("exp", c) with
    f(t) = e^{c t}; both need c > 0 so f' > 0."""

    eta: tuple = ("linear", 1.0)
    zeta: tuple = ("linear", 1.0)


def _aux_eval(entry, t):
    kind, c = entry[0], float(entry[1])
    if c <= 0:
        raise ValueError("auxiliary catalog coefficient must be positive")
    if kind == "linear":
        return c * t
    if kind == "exp":
        return np.exp(c * t)
    raise ValueError(f"unknown auxiliary entry {kind!r}")


def auxiliary_field(u, ubar, spec, aux, kind):
    """The proof-tracking auxiliary function and its maximizing node.

    kind="second_order": log(1 + lam_n(A + D^2 u)) + eta(|du|^2)
                          + zeta(ubar - u); requires lam_n > -1.
    kind="first_order":  log(1 + |du|^2) + zeta(u).
    """
    grid = u.grid
    if kind == "second_order":
        du, _, lam = _lambda_field(u.values, grid, spec)
        lam_n = lam[:, -1].reshape(grid.sizes)
        if np.any(lam_n <= -1.0):
            bad = np.unravel_index(int(np.argmax(lam_n <= -1.0)), grid.sizes)
            raise ValueError(
                f"lam_n = {lam_n[bad]} <= -1 at node {bad}: log undefined"
            )
        phi = (
            np.log1p(lam_n)
            + _aux_eval(aux.eta, np.sum(du**2, axis=0))
            + _aux_eval(aux.zeta, ubar.values - u.values)
        )
    elif kind == "first_order":
        grad_sq = np.sum(periodic_grad(u.values, grid.h) ** 2, axis=0)
        phi = np.log1p(grad_sq) + _aux_eval(aux.zeta, u.values)
    else:
        raise ValueError(f"unknown auxiliary kind {kind!r}")
    node = np.unravel_index(int(np.argmax(phi)), grid.sizes)
    return GridFn(grid, phi), node


# ---------------------------------------------------------------------------
# pseudo-solution checks

@dataclass(frozen=True)
class PseudoCheckConfig:
    delta1: float
    M1: float
    delta2: float
    M2: float
    ubar: GridFn

    def __post_init__(self):
        if self.delta1 <= 0 or self.delta2 <= 0:
            raise ValueError("delta1, delta2 must be positive")
        if self.M1 < 0 or self.M2 < 0:
            raise ValueError("M1, M2 must be nonnegative")


@dataclass(frozen=True)
class PseudoReport:
    worst_sub_slack: float
    sub_violations: int
    worst_super_slack: float
    super_violations: int
    super_nodes: int
    note: str = (
        "pointwise necessary-condition check for the supplied constants; "
        "not a certification over all solutions"
    )


def pseudo_check(u, cfg, spec):
    """Evaluate both pseudo-solution inequalities nodewise.

    Subsolution side (every node):
        F^{jk} D_jk(ubar - u) + F^{jk} (dA_jk/dalpha) . d(ubar - u)
            >= delta1 * tr F - M1 * lam_1(F) - M1.
    Supersolution side (only on nodes where lam(D^2(u - ubar)) + delta2*1
    stays in the closed positive cone and |d(u - ubar)| <= delta2):
        sigma_n(lam(delta2 I + D^2(u - ubar))) <= M2.
    """
    grid = u.grid
    d = grid.d
    h = grid.h
    _, F, _, _, A_alpha, _ = _linearization_data(u, spec)

    diff = cfg.ubar.values - u.values
    ddiff = periodic_grad(diff, h)
    d2diff = periodic_hess(diff, h)

    trace_F = np.einsum("...jj->...", F)
    lhs = np.einsum("...jk,jk...->...", F, d2diff)
    if A_alpha is not None:
        lhs += trace_F * np.einsum("...m,m...->...", A_alpha, ddiff)
    lam1_F = jacobi_eigh(F.reshape(-1, d, d))[:, 0].reshape(grid.sizes)
    rhs = cfg.delta1 * trace_F - cfg.M1 * lam1_F - cfg.M1
    sub_slack = lhs - rhs

    d2ud = periodic_hess(u.values - cfg.ubar.values, h)
    Hmat = np.moveaxis(d2ud, (0, 1), (-2, -1)).reshape(-1, d, d)
    lam_diff = jacobi_eigh(Hmat)
    shifted = lam_diff + cfg.delta2
    gate_cone = classify_batch(shifted, ConeSpec(d, d)) >= 1
    grad_gate = (
        np.sqrt(np.sum(ddiff**2, axis=0)).ravel() <= cfg.delta2
    )
    mask = gate_cone & grad_gate
    sigma_n = np.prod(shifted, axis=-1)
    super_slack = np.where(mask, cfg.M2 - sigma_n, np.inf)

    return PseudoReport(
        worst_sub_slack=float(np.min(sub_slack)),
        sub_violations=int(np.sum(sub_slack < -1e-10)),
        worst_super_slack=float(np.min(super_slack)) if mask.any() else np.inf,
        super_violations=int(np.sum(super_slack < -1e-10)),
        super_nodes=int(np.sum(mask)),
    )


# ---------------------------------------------------------------------------
# generalized Alexandrov lemma

@dataclass(frozen=True)
class AlexandrovProblem:
    """Ball of radius d around center; w supplied as a callable over
    (N, dim) points, sampled on the bounding-box grid."""

    center: tuple
    d: float
    resolution: int
    w: callable
    eps: float


def unit_ball_volume(n):
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


def alexandrov_check(prob, quad_tol=0.02):
    """Contact-set lower bound omega_n eps^n / d^n <= integral of
    det D^2 w over the contact set.

    The contact set is computed nodewise: |Dw| < eps/d (strict) plus the
    brute-force global supporting-plane test against every ball node.
    Returns (lhs, rhs, contact_mask over the grid); raises
    VerificationError unless lhs <= rhs*(1 + quad_tol).
    """
    center = np.asarray(prob.center, dtype=float)
    n = len(center)
    offsets, dist, h = ball_grid(prob.d, prob.resolution, n)
    pts = offsets + center
    shape = (prob.resolution,) * n

    wv = prob.w(pts).reshape(shape)
    ring = (dist >= prob.d - h) & (dist <= prob.d + 1e-12)
    w0 = prob.w(center[None, :])[0]
    eps_max = float(np.min(wv.ravel()[ring]) - w0)
    if not 0.0 < prob.eps <= eps_max + 1e-9:
        raise ValueError(
            f"eps must lie in (0, {eps_max:.6g}], got {prob.eps}"
        )

    grad, hess = box_grad_hess(wv, h)
    dw = grad.T

    in_ball = dist < prob.d
    grad_norm = np.linalg.norm(dw, axis=-1)
    candidates = np.flatnonzero(in_ball & (grad_norm < prob.eps / prob.d))

    ball_idx = np.flatnonzero(in_ball)
    contact = np.zeros(len(pts), dtype=bool)
    if len(candidates):
        y = pts[ball_idx]
        wy = wv.ravel()[ball_idx]
        planes = (
            wv.ravel()[candidates][:, None]
            + np.einsum("cm,cym->cy", dw[candidates], y[None, :, :] - pts[candidates][:, None, :])
        )
        ok = np.all(wy[None, :] >= planes - 1e-10, axis=1)
        contact[candidates[ok]] = True

    dets = np.linalg.det(np.moveaxis(hess[..., contact], -1, 0))
    rhs = float(np.sum(np.maximum(dets, 0.0)) * h**n)
    lhs = float(unit_ball_volume(n) * prob.eps**n / prob.d**n)
    if not lhs <= rhs * (1.0 + quad_tol) + 1e-12:
        raise VerificationError(
            f"contact-set bound fails: omega_n eps^n / d^n = {lhs!r} exceeds "
            f"the contact-set integral {rhs!r} by more than {quad_tol:g}",
            lhs=lhs,
            rhs=rhs,
        )
    return lhs, rhs, contact.reshape(shape)


# ---------------------------------------------------------------------------
# serialization

def save_grid_csv(path, fn):
    """Header `d,sizes...,h...` then row-major node values, 17 sig digits."""
    grid = fn.grid
    header = ",".join(
        [str(grid.d)]
        + [str(s) for s in grid.sizes]
        + [format(x, ".17g") for x in grid.h]
    )
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("".join(["%.17g\n" % v for v in fn.values.ravel().tolist()]))


def load_grid_csv(path):
    """Read a grid function written by save_grid_csv; ValueError unless the
    header is `d,sizes...,h...` with one period h_i*size_i on every axis
    and prod(sizes) numeric values follow, one per line."""
    with open(path) as fh:
        head = fh.readline().strip().split(",")
        try:
            d = int(head[0])
            sizes = tuple(int(x) for x in head[1 : 1 + d])
            hs = [float(x) for x in head[1 + d :]]
            values = np.loadtxt(fh, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if d < 1 or len(hs) != d:
        raise ValueError(f"{path}: header must be d,sizes...,h... (1+2d fields)")
    period = hs[0] * sizes[0]
    if not all(abs(h * s - period) <= 1e-9 * period for h, s in zip(hs, sizes)):
        raise ValueError(f"{path}: spacings {hs} and sizes {sizes} differ in period")
    if values.ndim != 1 or values.size != np.prod(sizes):
        raise ValueError(f"{path}: expected {np.prod(sizes)} values, got {values.size}")
    return GridFn(TorusGrid(sizes, period=period), values.reshape(sizes))


def equation_to_dict(spec):
    def entry(t):
        kind = t[0]
        out = {"kind": kind}
        if kind in ("conformal", "constant"):
            out["value"] = float(t[1])
        elif kind == "paper_example":
            out["param"] = (
                t[1].tolist() if isinstance(t[1], np.ndarray) else t[1]
            )
            if len(t) > 2:
                out["t_coeff"] = float(t[2])
        elif kind == "stored":
            out["values"] = np.asarray(t[1]).tolist()
        return out

    return {"p": spec.p, "A": entry(spec.A_field), "rhs": entry(spec.rhs)}


def equation_from_dict(blob):
    def entry(e, is_rhs):
        kind = e["kind"]
        if kind == "zero":
            return ("zero",)
        if kind in ("conformal", "constant"):
            return (kind, float(e["value"]))
        if kind == "paper_example":
            param = e["param"]
            if isinstance(param, list):
                param = np.asarray(param, dtype=float)
            if is_rhs:
                return (kind, param, float(e.get("t_coeff", 0.0)))
            return (kind, param)
        if kind == "stored":
            return (kind, np.asarray(e["values"], dtype=float))
        raise ValueError(f"unknown catalog entry {kind!r}")

    return EquationSpec(
        p=int(blob["p"]),
        A_field=entry(blob["A"], False),
        rhs=entry(blob["rhs"], True),
    )


def save_problem_json(path, spec):
    with open(path, "w") as fh:
        json.dump(equation_to_dict(spec), fh, indent=1)


def load_problem_json(path):
    with open(path) as fh:
        return equation_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# manufactured problem

def manufactured_problem(size, p=2, amplitude=0.2):
    """Periodic test problem with known solution u* = a cos x1 cos x2.

    A is the identity (conformal c=1) and the right side is the exact
    sigma_p^{1/p}(lam(I + D^2 u*)) evaluated analytically, so u* solves
    the continuous equation and the discrete residual at u* is O(h^2).
    Returns (spec, grid, u_star GridFn).
    """
    grid = TorusGrid((size, size))
    x1, x2 = grid.meshgrid()
    cc = np.cos(x1) * np.cos(x2)
    ss = np.sin(x1) * np.sin(x2)
    ustar = amplitude * cc
    lam1 = 1.0 - amplitude * cc - amplitude * np.abs(ss)
    lam2 = 1.0 - amplitude * cc + amplitude * np.abs(ss)
    lam = np.stack([lam1, lam2], axis=-1)
    phi = sigma(p, lam.reshape(-1, 2)).reshape(grid.sizes) ** (1.0 / p)
    spec = EquationSpec(p=p, A_field=("conformal", 1.0), rhs=("stored", phi))
    return spec, grid, GridFn(grid, ustar)
