"""Periodic-grid embodiment of the general p-Hessian equation

    sigma_p^{1/p}( lam( A(du, u) + D^2 u ) ) = phi(du, u)

on a flat torus (identity metric, so covariant derivatives are plain
central differences).  The module owns:

* TorusGrid / GridFn and the periodic difference stencils,
* a small catalog of coefficient fields A(alpha, t) and right-hand sides
  phi(alpha, t) with their analytic alpha/t derivatives,
* nodewise residual and admissibility maps,
* a damped Newton iteration with cone-preserving line search, a zero-mean
  gauge for u-independent equations, and matrix-free restarted GMRES
  linear solves whose matvec is the Jacobian's stencil, its weights built
  once per Newton step, right-preconditioned by the Fourier symbol of the
  frozen-coefficient stencil (lgmres; its inner products are numpy
  reductions, not threaded BLAS, so a solve gives the same bits on any
  core count),
* diagnostic monitors and the auxiliary functions whose maxima the
  a-priori-estimate proofs track,
* pseudo-subsolution / pseudo-supersolution pointwise checkers,
* a contact-set lower bound for the Monge-Ampere mass (generalized
  Alexandrov lemma),
* CSV/JSON serialization for grid fields and problem descriptions, and
* a manufactured problem on a grid of any dimension, its right side from
  the spectral Hessian fourier_hess, with a seeded smooth start.
"""

import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from math import gamma, hypot, inf, isfinite, pi, sqrt

import numpy as np

from .cone import ConeSpec
from .errors import AdmissibilityError, InputError, NonconvergenceError, VerificationError
from .spectral import (
    classify_matrices, extreme_eigenvalues, jacobi_eigh, matrix_root_grad, matrix_sigmas,
    require_matrix_cone,
)

# lgmres stops once |b - J s| <= KRYLOV_RTOL |b| in each Newton step
KRYLOV_RTOL = 1e-8


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
            raise InputError("need at least 8 nodes per axis")
        if not 0.0 < self.period < inf:
            raise InputError(f"period must be positive and finite, got {self.period}")
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
            raise InputError(
                f"values shape {v.shape} != grid sizes {self.grid.sizes}"
            )
        if not np.all(np.isfinite(v)):
            raise InputError("grid values must be finite")
        object.__setattr__(self, "values", v)


def _wrap(f, out=None):
    """f with one ghost layer on each side of every axis, filled from the
    opposite side as the torus wraps (corners included), in out when given:
    _shifted views of it then read f at each node's neighbours."""
    if out is None:
        out = np.empty(tuple(n + 2 for n in f.shape), dtype=f.dtype)
    out[(slice(1, -1),) * f.ndim] = f
    for k in range(f.ndim):
        # the full range of every other axis, so the ghosts of the axes
        # before k are copied along and the corners fill
        lead = (slice(None),) * k
        out[lead + (0,)] = out[lead + (-2,)]
        out[lead + (-1,)] = out[lead + (1,)]
    return out


def _shifted(w, shift):
    """The view of w = _wrap(f) that holds f(x + sum_k shift[k] e_k) at each
    node x of f; shift maps axes to -1 or 1."""
    return w[tuple(slice(1 + shift.get(k, 0), n - 1 + shift.get(k, 0))
                   for k, n in enumerate(w.shape))]


def periodic_grad(f, h):
    """Central first differences, one array per axis, O(h^2)."""
    w = _wrap(f)
    out = np.empty((f.ndim,) + f.shape)
    for m in range(f.ndim):
        np.subtract(_shifted(w, {m: 1}), _shifted(w, {m: -1}), out=out[m])
        out[m] /= 2.0 * h[m]
    return out


def periodic_hess(f, h):
    """Central second differences; shape (d, d) + f.shape, symmetric."""
    d = f.ndim
    w = _wrap(f)
    twice = 2.0 * f
    H = np.empty((d, d) + f.shape)
    for i in range(d):
        np.subtract(_shifted(w, {i: 1}), twice, out=H[i, i])
        H[i, i] += _shifted(w, {i: -1})
        H[i, i] /= h[i] ** 2
        for j in range(i + 1, d):
            cross = H[i, j]
            np.subtract(_shifted(w, {i: 1, j: 1}), _shifted(w, {i: 1, j: -1}), out=cross)
            cross -= _shifted(w, {i: -1, j: 1})
            cross += _shifted(w, {i: -1, j: -1})
            cross /= 4.0 * h[i] * h[j]
            H[j, i] = cross
    return H


def fourier_hess(f, h):
    """Spectral second derivatives of the periodic f (period n_m h_m on
    axis m); shape (d, d) + f.shape, symmetric, the layout of
    periodic_hess.  One rfftn, the factors -k_i k_j, one irfftn over the
    stacked pairs i <= j: exact to rounding for a trigonometric polynomial
    of degree below n_m / 2 on each axis.  The mixed factors take the
    Nyquist wavenumber of an even axis as 0, since the grid holds its
    cosine but not its sine; the pure ones keep -k^2."""
    d = f.ndim
    k, k_mixed = [], []
    for m, (n, hm) in enumerate(zip(f.shape, h)):
        freq = np.fft.rfftfreq if m == d - 1 else np.fft.fftfreq
        km = 2.0 * pi * freq(n, hm)
        kn = km.copy()
        if n % 2 == 0:
            kn[n // 2] = 0.0
        axis = (slice(None),) + (None,) * (d - 1 - m)
        k.append(km[axis])
        k_mixed.append(kn[axis])
    F = np.fft.rfftn(f)
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    planes = np.fft.irfftn(
        np.stack([-(k[i] * k[i] if i == j else k_mixed[i] * k_mixed[j]) * F
                  for i, j in pairs]),
        s=f.shape, axes=tuple(range(1, d + 1)),
    )
    H = np.empty((d, d) + f.shape)
    for (i, j), plane in zip(pairs, planes):
        H[i, j] = plane
        H[j, i] = plane
    return H


def smooth_perturbation(grid, rng, scale):
    """Low-frequency random field on grid with zero mean and sup norm scale:
    a cos(k.x) + b sin(k.x) summed over the modes k in {0, 1, 2}^d in
    row-major order, with one rng.normal(size=2) pair (a, b) per mode."""
    xs = grid.meshgrid()
    f = np.zeros(grid.sizes)
    for ks in itertools.product(range(3), repeat=grid.d):
        a, b = rng.normal(size=2)
        phase = sum(k * x for k, x in zip(ks, xs))
        f += a * np.cos(phase) + b * np.sin(phase)
    f -= np.mean(f)
    return scale * f / np.max(np.abs(f))


def box_grad_hess(f, h, mask=None, core=slice(None)):
    """Gradient and Hessian of a field on a non-periodic box: repeated
    np.gradient, central inside and second-order one-sided at the edges,
    each mixed partial d_j(d_i f), j >= i, taken once.  Returns the
    gradient (n, m) and the Hessian (n, n, m) at the m nodes of the axis-0
    planes f[core] selected by the flat boolean mask over those planes
    (every node in row-major order when mask is None): component-major
    like periodic_hess, one contiguous plane per component;
    np.moveaxis(hess, -1, 0) is the (m, n, n) batch of matrices.

    d0 f alone reads all of f, d0(d0 f) the core planes and one more on
    each side (3 at least, so a face's one-sided formula is the whole
    field's), every other derivative the core planes only: the stencils
    are local, so the values are the whole field's."""
    def d(g, k):
        return np.gradient(g, h, axis=k, edge_order=2)

    n = f.ndim
    d0 = d(f, 0)
    a, b, _ = core.indices(len(f))
    lo = max(0, min(a - 1, len(f) - 3))
    part = f[core]
    nodes = slice(None) if mask is None else mask
    m = part.size if mask is None else np.count_nonzero(mask)
    grad = np.empty((n, m))
    hess = np.empty((n, n, m))
    hess[0, 0] = d(d0[lo:max(b + 1, lo + 3)], 0)[a - lo:b - lo].ravel()[nodes]
    for i in range(n):
        gi = d0[core] if i == 0 else d(part, i)
        grad[i] = gi.ravel()[nodes]
        for j in range(max(i, 1), n):
            hess[i, j] = d(gi, j).ravel()[nodes]
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

# One table per side of the catalog, under the side's problem-JSON key: kind
# -> the JSON keys of its parameters in tuple order (t_coeff optional, 0.0).
CATALOG = {"A": {"zero": (), "conformal": ("value",), "paper_example": ("param",),
                 "stored": ("values",)},
           "rhs": {"constant": ("value",), "stored": ("values",),
                   "paper_example": ("param", "t_coeff")}}
NUMBER_KEYS = ("value", "t_coeff")


def _catalog_keys(side, kind):
    if kind not in CATALOG[side]:
        raise InputError(f"unknown {side} catalog entry {kind!r}")
    return CATALOG[side][kind]


@dataclass(frozen=True)
class EquationSpec:
    """p plus catalog entries for the coefficient field and right side.

    A_field: ("zero",), ("conformal", c), ("paper_example", phi_tilde)
             with A = (1 - e^u - phi_tilde(x) |du|^2) I, or
             ("stored", array of shape sizes+(d,d)).
    rhs:     ("constant", c), ("stored", array over nodes), or
             ("paper_example", base[, t_coeff = 0.0]) with
             phi = base(x) e^{t_coeff u} (sin(|du|^{2p-1}) + 2);
             checked once per spec: kinds and arities against CATALOG, c,
             the stored values and base positive and finite, the rest finite.
    """

    p: int
    A_field: tuple = ("zero",)
    rhs: tuple = ("constant", 1.0)

    def __post_init__(self):
        if len(self.rhs) == 2 and self.rhs[0] == "paper_example":
            object.__setattr__(self, "rhs", tuple(self.rhs) + (0.0,))
        for side, entry in (("A", self.A_field), ("rhs", self.rhs)):
            keys = _catalog_keys(side, entry[0] if len(entry) else None)
            if len(entry) != 1 + len(keys):
                raise InputError(f"{side} catalog entry {entry[0]!r} takes {keys}")
        what = {"constant": "constant right-hand side", "stored": "right-hand side",
                "paper_example": "right-hand side base"}[self.rhs[0]]
        values = np.asarray(self.rhs[1], dtype=float)
        if not np.all((values > 0) & (values < inf)):
            raise InputError(f"{what} must be positive and finite")
        # the parameters past the catalog kind: A's c, phi_tilde or stored
        # field, and the right side's t_coeff
        for params, what in ((self.A_field[1:], "coefficient A"),
                             (self.rhs[2:], "right-hand side t_coeff")):
            if not np.all(np.isfinite(np.asarray(params, dtype=float))):
                raise InputError(f"{what} must be finite")


def _broadcast_field(param, shape):
    arr = np.asarray(param, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.ones(shape)
    if arr.shape != shape:
        raise InputError(f"stored field shape {arr.shape} != grid {shape}")
    return arr


def _coefficient_A(spec, u, du):
    """A matrix field plus its t- and alpha-derivatives.

    Returns (A, A_t (shape or None), A_alpha (shape+(d,) or None)); the
    derivative entries multiply the identity (all catalog A fields with
    u-dependence are conformal).  A is None for the zero field, the factor
    c (a scalar or a shape field) of A = c I for a diagonal one, and the
    spec's own shape+(d,d) array, read only, for "stored".
    """
    shape = u.shape
    d = u.ndim
    kind = spec.A_field[0]
    if kind == "zero":
        return None, None, None
    if kind == "conformal":
        return spec.A_field[1], None, None
    if kind == "paper_example":
        phi_tilde = _broadcast_field(spec.A_field[1], shape)
        grad_sq = np.sum(du**2, axis=0)
        psi = 1.0 - np.exp(u) - phi_tilde * grad_sq
        A_t = -np.exp(u)
        A_alpha = -2.0 * phi_tilde[..., None] * np.moveaxis(du, 0, -1)
        return psi, A_t, A_alpha
    if kind == "stored":
        stored = np.asarray(spec.A_field[1], dtype=float)
        if stored.shape != shape + (d, d):
            raise InputError("stored A field has the wrong shape")
        return stored, None, None


def _rhs_phi(spec, u, du):
    """phi plus d(phi)/dt and d(phi)/d(alpha) as node fields."""
    shape = u.shape
    kind = spec.rhs[0]
    if kind == "constant":
        return np.full(shape, float(spec.rhs[1])), None, None
    if kind == "stored":
        return _broadcast_field(spec.rhs[1], shape), None, None
    if kind == "paper_example":
        base = _broadcast_field(spec.rhs[1], shape)
        c = float(spec.rhs[2])
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


# ---------------------------------------------------------------------------
# residual, admissibility, linearization data

def _matrices(planes):
    """The matrices (shape+(d,d)) of component-major planes ((d,d)+shape),
    as a view."""
    return np.moveaxis(planes, (0, 1), (-2, -1))


def _add_coefficient_A(spec, u_vals, du, hess):
    """hess (D^2 u, component-major planes) += A(du, u) in place, then
    (A_t, A_alpha) as _coefficient_A gives them: a diagonal A joins the
    diagonal planes only, and a zero A none."""
    A, A_t, A_alpha = _coefficient_A(spec, u_vals, du)
    if np.ndim(A) == hess.ndim:
        hess += np.moveaxis(A, (-2, -1), (0, 1))
    elif A is not None:
        for i in range(len(hess)):
            hess[i, i] += A
    return A_t, A_alpha


def _hessian_argument(u_vals, grid, spec):
    """(du, B, A_t, A_alpha): B = A(du, u) + D^2 u as component-major planes
    (d, d)+shape, formed in periodic_hess's own memory."""
    du = periodic_grad(u_vals, grid.h)
    B = periodic_hess(u_vals, grid.h)
    return (du, B) + _add_coefficient_A(spec, u_vals, du, B)


def _lambda_field(u_vals, grid, spec):
    """du and the nodewise eigenvalues (N, d) of A(du, u) + D^2 u."""
    du, B, _, _ = _hessian_argument(u_vals, grid, spec)
    return du, jacobi_eigh(_matrices(B).reshape(-1, grid.d, grid.d))


def admissible(u, spec):
    """(ok, report): ok iff lam(A(du,u)+D^2u) is interior at every node.

    The report names the first violating node (unraveled index) and its
    eigenvalue vector; None when ok.
    """
    try:
        require_matrix_cone(_matrices(_hessian_argument(u.values, u.grid, spec)[1]), spec.p)
    except AdmissibilityError as exc:
        return False, {"node": exc.node, "lam": exc.lam}
    return True, None


def residual_field(u, spec):
    """Nodewise sigma_p^{1/p}(lam(A + D^2 u)) - phi(du, u)."""
    du, B, _, _ = _hessian_argument(u.values, u.grid, spec)
    lhs = require_matrix_cone(_matrices(B), spec.p)[..., spec.p] ** (1.0 / spec.p)
    phi, _, _ = _rhs_phi(spec, u.values, du)
    return GridFn(u.grid, lhs - phi)


def _linearization_data(u, spec):
    """Everything Newton needs at the current iterate.

    Returns (residual values, F field shape+(d,d), G field (d,)+shape or
    None, H field shape or None, G_A, admissibility margin min sigma_p)
    where the Jacobian action on s is

        J s = sum_jk F^{jk} d2s_jk + sum_m G_m ds_m + H s,

    a term that is None being absent: G is None unless A or phi depends on
    du, H unless either depends on u.  F is matrix_root_grad of the
    operator argument B = A + D^2 u: no eigenvectors.  B is formed in
    periodic_hess's component-major planes (_hessian_argument), and at
    p = 2 F in B's memory, so F is then the view _matrices of its planes;
    above p = 2 it is the Newton tensor's last product, matrix-major.
    G_A (d,)+shape is the coefficient part of G, F^{jk} dA_jk/dalpha_m,
    and None when A does not depend on du.
    """
    p = spec.p
    du, B, A_t, A_alpha = _hessian_argument(u.values, u.grid, spec)
    B = _matrices(B)
    sigmas = require_matrix_cone(B, p)
    F = matrix_root_grad(B, sigmas, p)
    del B
    sp = sigmas[..., p]

    phi, phi_t, phi_alpha = _rhs_phi(spec, u.values, du)
    res = sp ** (1.0 / p) - phi

    G = H = G_A = None
    if A_alpha is not None or A_t is not None:
        trace_F = np.einsum("...jj->...", F)
    if A_alpha is not None:
        # dA_jk/dalpha_m = A_alpha[..., m] * delta_jk
        G = G_A = np.moveaxis(A_alpha, -1, 0) * trace_F
    if phi_alpha is not None:
        phi_alpha = np.moveaxis(phi_alpha, -1, 0)
        G = -phi_alpha if G is None else G - phi_alpha
    if A_t is not None:
        H = A_t * trace_F
    if phi_t is not None:
        H = -phi_t if H is None else H - phi_t
    return res, F, G, H, G_A, float(np.min(sp))


def _jacobian_stencil(F, G, H, h, shape):
    """J s = sum_jk F^{jk} d2s_jk + sum_m G_m ds_m + H s on the grid of the
    given shape, as the weights of its central-difference stencil, built
    once from F, G and H (fields, or constants that broadcast; G or H None
    when its term is absent, and then its weights and passes are skipped),
    which need not stay alive after it:

        centre      c    = H - 2 sum_j F_jj/h_j^2     on s(x)
        axis j      a_j  = F_jj/h_j^2                 on s(x+e_j) + s(x-e_j)
                    g_j  = G_j/(2 h_j)                on s(x+e_j) - s(x-e_j)
        axes j < k  f_jk = (F_jk + F_kj)/(4 h_j h_k)  on s(x+e_j+e_k) - s(x+e_j-e_k)
                                                         - s(x-e_j+e_k) + s(x-e_j-e_k)

    1 + 2d + d(d-1)/2 weights in all, d fewer without G.  Returns the
    operator as a map of fields: each call copies s once into a
    preallocated wrapped array (_wrap) and sums weighted _shifted views of
    it through one preallocated temporary, so it builds no gradient or
    Hessian of s; the result is a new array.  It agrees with
    F:periodic_hess(s) + G.periodic_grad(s) + H s up to rounding.
    """
    d = len(shape)
    a = [F[..., j, j] / h[j] ** 2 for j in range(d)]
    g = None if G is None else [G[j] / (2.0 * h[j]) for j in range(d)]
    centre = -2.0 * sum(a) if H is None else H - 2.0 * sum(a)
    f = [(F[..., j, k] + F[..., k, j]) / (4.0 * h[j] * h[k])
         for j in range(d) for k in range(j + 1, d)]
    wrapped = np.empty(tuple(n + 2 for n in shape))
    tmp = np.empty(shape)
    # views into wrapped, which every call refills
    axis_views = [(_shifted(wrapped, {j: 1}), _shifted(wrapped, {j: -1}))
                  for j in range(d)]
    pair_views = [[_shifted(wrapped, {j: sj, k: sk})
                   for sj, sk in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
                  for j in range(d) for k in range(j + 1, d)]

    def apply(s):
        _wrap(s, wrapped)
        out = centre * s
        for j, (plus, minus) in enumerate(axis_views):
            out += np.multiply(np.add(plus, minus, out=tmp), a[j], out=tmp)
            if g is not None:
                out += np.multiply(np.subtract(plus, minus, out=tmp), g[j], out=tmp)
        for (pp, pm, mp, mm), fjk in zip(pair_views, f):
            np.subtract(pp, pm, out=tmp)
            np.subtract(tmp, mp, out=tmp)
            np.add(tmp, mm, out=tmp)
            out += np.multiply(tmp, fjk, out=tmp)
        return out

    return apply


def _fourier_preconditioner(F, G, H, h):
    """Inverse of the Jacobian with F, G, H frozen at their node means.

    The frozen operator is shift-invariant on the periodic grid, so its
    symbol is the rfftn of its impulse response: _jacobian_stencil, built
    from the means, applied to the unit impulse at node 0.  So it inverts
    the operator the Newton matvec applies wherever F, G and H are
    constant.  Off the zero mode the symbol's real part is negative for SPD
    F and H <= 0.  A zero symbol (the constant mode under the zero-mean
    gauge, where H = 0) spans the kernel and is dropped.  G or H None is an
    absent term, as in _jacobian_stencil.  Returns the inverse as a map of
    raveled fields; it holds one complex half-spectrum, which each call
    multiplies in place of a copy, and no reference to F, G or H.
    """
    shape = F.shape[:-2]
    d = len(shape)
    axes = tuple(range(d))
    impulse = np.zeros(shape)
    impulse.flat[0] = 1.0
    Fbar = F.mean(axis=axes)
    Gbar = None if G is None else G.reshape(d, -1).mean(axis=1)
    Hbar = None if H is None else H.mean()
    symbol = np.fft.rfftn(_jacobian_stencil(Fbar, Gbar, Hbar, h, shape)(impulse))
    # the stencil annihilates constants, but the FFT's summation order
    # leaves about 1e-15 at the zero mode: under the gauge (H = 0) that would
    # be a 1e15 gain on the kernel instead of a dropped mode
    symbol.flat[0] = 0.0 if H is None else Hbar
    inverse = np.zeros_like(symbol)
    np.divide(1.0, symbol, out=inverse, where=symbol != 0)

    def apply(r):
        rhat = np.fft.rfftn(r.reshape(shape), axes=axes)
        rhat *= inverse
        return np.fft.irfftn(rhat, s=shape, axes=axes).ravel()

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


def _arnoldi(matvec, psolve, v0, m, atol):
    """Up to m right-preconditioned GMRES steps, w = matvec(psolve(v)), from
    the unit vector v0; stops early once the residual estimate, relative to
    |v0|, is below atol or the basis breaks down.  The Hessenberg matrix is
    reduced by Givens rotations as it grows.

    Returns (vs, y): the orthonormal basis and the least-squares
    coefficients, so that the correction is psolve(vs @ y); None when the
    triangular factor is singular or not finite.
    """
    vs, rs, rots = [v0], [], []
    g = [1.0]
    eps = np.finfo(float).eps
    for j in range(m):
        w = matvec(psolve(vs[-1]))
        w_norm = _norm(w)
        r = []
        for v in vs:
            alpha = _dot(v, w)
            r.append(alpha)
            w -= alpha * v
        r.append(_norm(w))
        if r[-1] != 0.0 and isfinite(1.0 / r[-1]):
            w *= 1.0 / r[-1]
        breakdown = not r[-1] > eps * w_norm
        vs.append(w)

        for i, (c, s) in enumerate(rots):
            r[i], r[i + 1] = c * r[i] + s * r[i + 1], c * r[i + 1] - s * r[i]
        rho = hypot(r[j], r[j + 1])
        c, s = (r[j] / rho, r[j + 1] / rho) if rho != 0.0 else (1.0, 0.0)
        rots.append((c, s))
        r[j] = rho
        rs.append(r)
        g[j], g_next = c * g[j], -s * g[j]
        g.append(g_next)
        if abs(g_next) < atol or breakdown:
            break

    y = [0.0] * (j + 1)
    for k in range(j, -1, -1):
        if not (isfinite(rs[k][k]) and rs[k][k] != 0.0):
            return None
        y[k] = (g[k] - sum(rs[l][k] * y[l] for l in range(k + 1, j + 1))) / rs[k][k]
    return vs[: j + 1], y


def lgmres(matvec, b, M, rtol, maxiter, inner_m=30):
    """Solve J x = b from x = 0 by restarted GMRES (Saad and Schultz 1986)
    preconditioned on the right: each cycle of up to inner_m steps solves
    J M y = r and takes x += M y.  matvec applies J and M, the
    preconditioner, an approximate inverse of J, both to 1-D arrays.  The
    Givens estimate of a cycle is the unpreconditioned residual, so a cycle
    stops once it estimates |b - J x| <= rtol |b|.  One matvec after each
    cycle gives the true residual, and the solve returns once that test
    holds; the first cycle starts from r = b, without a matvec.  Every inner
    product is a numpy reduction (_dot), so the result does not depend on
    the number of BLAS threads.  The name stays from the LGMRES port this
    replaced: callers, error texts and tracing find the solve under it.

    Returns (x, info, r_norm): info is 0 on convergence, maxiter when the
    cycles run out, or the cycle's number when an inner least-squares
    problem is singular or not finite or the correction is zero or not
    finite (M returns zero); r_norm is |b - J x| of the returned x, from
    the last check.  Raises ValueError when b is not finite or when maxiter
    or inner_m is below 1.
    """
    if maxiter < 1 or inner_m < 1:
        raise ValueError(
            f"lgmres: maxiter and inner_m must be >= 1, got {maxiter} and {inner_m}"
        )
    if not np.isfinite(b).all():
        raise ValueError("lgmres: the right-hand side must be finite")
    x = np.zeros_like(b, dtype=float)
    r, r_norm = b, _norm(b)
    tol = rtol * r_norm
    if r_norm <= tol:
        return x, 0, r_norm
    for k in range(maxiter):
        arnoldi = _arnoldi(matvec, M, r / r_norm, inner_m, tol / r_norm)
        if arnoldi is None:
            return x, k + 1, r_norm
        vs, y = arnoldi
        dx = M(_combine(vs, [r_norm * yk for yk in y]))
        if not 0.0 < _norm(dx) < inf:
            return x, k + 1, r_norm
        x += dx
        r = b - matvec(x)
        r_norm = _norm(r)
        if r_norm <= tol:
            return x, 0, r_norm
    return x, maxiter, r_norm


def newton_solve(spec, u0, tol=1e-9, max_iters=30):
    """Damped Newton with admissibility-preserving line search, under the
    zero-mean gauge when the equation does not depend on u (see _gauge).
    Each linearization (_linearization_data) allocates only what it keeps:
    B and, at p = 2, F in D^2 u's component-major planes, and no G or H
    where no catalog term feeds them.  Each accepted one becomes the
    Jacobian's stencil (_jacobian_stencil) and its Fourier preconditioner,
    the inverse of the same stencil with F, G and H frozen at their means
    (_fourier_preconditioner), both skipping an absent G or H; F, G, H and
    the residual field are dropped before the linear solve, and the
    stencil and the preconditioner before the line search, which holds one
    candidate's linearization at a time.  Each linear solve is lgmres,
    right-preconditioned, and stops on the true residual.  The linear
    solve makes no BLAS call: its inner products are numpy reductions and its matvecs are stencils
    and FFTs, so the trace and the solution are the same under any number
    of BLAS threads.

    Returns (solution GridFn, trace); the trace records, for every
    iteration, residual_norm, the raw residual norm, the accepted step
    length, the Jacobian matvecs of its linear solve (krylov_iters), the
    true relative residual |b - J s|/|b| of that solve (linear_residual,
    from lgmres's last check), the halvings of its line search
    (backtracks) and the smallest sigma_p over the nodes of the new
    iterate (admissibility_margin).  NonconvergenceError carries the trace
    so far when a linear solve or the line search fails, or when max_iters
    iterations leave residual_norm above tol.  InputError unless tol is
    positive and finite.
    """
    if not 0.0 < tol < inf:
        raise InputError(f"tol must be positive and finite, got {tol}")
    grid = u0.grid
    h = grid.h
    project = _gauge(spec, grid.sizes)
    u = project(u0.values)
    trace = []

    def gauged_norm(r):
        # residual_norm under the gauge this solve already holds
        return float(np.max(np.abs(project(r))))

    res, F, G, H, _, _ = _linearization_data(GridFn(grid, u), spec)
    rnorm = gauged_norm(res)
    for it in range(max_iters):
        if rnorm <= tol:
            break

        b = -project(res).ravel()
        # the linear solve holds J and M in place of F, G, H and res, and
        # the line search holds none of them
        J = _jacobian_stencil(F, G, H, h, grid.sizes)
        M = _fourier_preconditioner(F, G, H, h)
        del res, F, G, H
        matvecs = 0

        def matvec(x):
            nonlocal matvecs
            matvecs += 1
            return project(J(project(x.reshape(grid.sizes)))).ravel()

        step_dir, info, r_norm = lgmres(
            matvec, b, M=M, rtol=KRYLOV_RTOL, maxiter=2000
        )
        del J, M
        if info != 0:
            raise NonconvergenceError(
                f"lgmres returned info {info} after {matvecs} matvecs "
                f"at Newton iteration {it}",
                trace=trace,
            )
        s = project(step_dir.reshape(grid.sizes))
        linear_residual = r_norm / _norm(b)
        del b, step_dir

        step = 1.0
        backtracks = 0
        while True:
            cand = u + step * s
            try:
                res, F, G, H, _, margin = _linearization_data(GridFn(grid, cand), spec)
                new_norm = gauged_norm(res)
            except AdmissibilityError:
                new_norm = inf
            if new_norm <= (1.0 - 1e-4 * step) * rnorm:
                break
            # a rejected candidate's fields go before the next one's
            res = F = G = H = None
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
    """Extremes of u, |du|, |D^2 u|_F and the eigenvalues of A(du, u) +
    D^2 u over the nodes.  A joins D^2 u in its own planes once |D^2 u|_F
    is read, and the eigenvalue extremes come from extreme_eigenvalues:
    those of an eigensolve at every node, bit for bit, with only the nodes
    that could hold them solved."""
    du = periodic_grad(u.values, u.grid.h)
    B = periodic_hess(u.values, u.grid.h)
    max_hess = float(np.max(np.sqrt(np.sum(B**2, axis=(0, 1)))))
    _add_coefficient_A(spec, u.values, du, B)
    max_lambda_n, min_lambda_1 = extreme_eigenvalues(B)
    return MonitorReport(
        osc_u=float(np.max(u.values) - np.min(u.values)),
        max_grad=float(np.max(np.sqrt(np.sum(du**2, axis=0)))),
        max_hess=max_hess,
        max_lambda_n=max_lambda_n,
        min_lambda_1=min_lambda_1,
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
        du, lam = _lambda_field(u.values, grid, spec)
        lam_n = lam[:, -1].reshape(grid.sizes)
        if np.any(lam_n <= -1.0):
            bad = tuple(np.argwhere(lam_n <= -1.0)[0].tolist())
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
    node = tuple(int(i) for i in np.unravel_index(np.argmax(phi), grid.sizes))
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
        if not (0 < self.delta1 < inf and 0 < self.delta2 < inf):
            raise InputError("delta1, delta2 must be positive and finite")
        if not (0 <= self.M1 < inf and 0 <= self.M2 < inf):
            raise InputError("M1, M2 must be nonnegative and finite")


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
    The gate and sigma_n come from the minors of delta2 I + D^2(u - ubar)
    (classify_matrices); lam_1(F) is the one eigensolve.
    """
    grid = u.grid
    d = grid.d
    h = grid.h
    _, F, _, _, G_A, _ = _linearization_data(u, spec)

    diff = cfg.ubar.values - u.values
    ddiff = periodic_grad(diff, h)
    d2diff = periodic_hess(diff, h)

    trace_F = np.einsum("...jj->...", F)
    lhs = np.einsum("...jk,jk...->...", F, d2diff)
    if G_A is not None:
        lhs += np.einsum("m...,m...->...", G_A, ddiff)
    lam1_F = jacobi_eigh(F)[..., 0]
    rhs = cfg.delta1 * trace_F - cfg.M1 * lam1_F - cfg.M1
    sub_slack = lhs - rhs

    # the stencils are linear and negation is exact: D^2(u - ubar) bit for bit
    shifted = np.moveaxis(-d2diff, (0, 1), (-2, -1)).reshape(-1, d, d)
    shifted += cfg.delta2 * np.eye(d)
    codes, sigmas = classify_matrices(shifted, ConeSpec(d, d))
    grad_gate = (
        np.sqrt(np.sum(ddiff**2, axis=0)).ravel() <= cfg.delta2
    )
    mask = (codes >= 1) & grad_gate
    super_slack = np.where(mask, cfg.M2 - sigmas[:, d], np.inf)

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

    def __post_init__(self):
        if not 0.0 < self.d < inf or self.resolution < 9:
            raise InputError("need positive d and resolution >= 9")
        if not self.eps > 0:
            raise InputError(f"eps must be positive, got {self.eps}")


def unit_ball_volume(n):
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


# elements of the (candidates, ball nodes) plane values that
# alexandrov_check's supporting-plane test forms at once: it runs over chunks
# of candidates
PLANE_TEST_ELEMENTS = 2**21


def alexandrov_check(prob, quad_tol=0.02):
    """Contact-set lower bound omega_n eps^n / d^n <= integral of
    det D^2 w over the contact set.

    The contact set is computed nodewise: |Dw| < eps/d (strict) plus the
    brute-force global supporting-plane test against every ball node, in
    chunks of candidates of PLANE_TEST_ELEMENTS plane values: the slope s
    of the candidate x supports w iff min_y (w(y) - s.y) >= w(x) - s.x,
    with 1e-10 of slack, over the ball nodes y.
    Returns (lhs, rhs, contact_mask over the grid); raises InputError
    unless eps lies in (0, min of w on the boundary ring - w(center)], and
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
        raise InputError(
            f"eps must lie in (0, {eps_max:.6g}], got {prob.eps}"
        )

    grad, hess = box_grad_hess(wv, h)
    dw = grad.T

    in_ball = dist < prob.d
    grad_norm = np.linalg.norm(dw, axis=-1)
    candidates = np.flatnonzero(in_ball & (grad_norm < prob.eps / prob.d))

    ball_idx = np.flatnonzero(in_ball)
    contact = np.zeros(len(pts), dtype=bool)
    y = offsets[ball_idx].T
    wy = wv.ravel()[ball_idx]
    # each candidate's own column holds its w(x) - s.x
    own = np.searchsorted(ball_idx, candidates)
    step = max(1, PLANE_TEST_ELEMENTS // len(wy))
    for lo in range(0, len(candidates), step):
        c = slice(lo, lo + step)
        g = dw[candidates[c]] @ y
        np.subtract(wy, g, out=g)
        ok = np.min(g, axis=1) >= g[np.arange(len(g)), own[c]] - 1e-10
        contact[candidates[c][ok]] = True

    dets = matrix_sigmas(np.moveaxis(hess[..., contact], -1, 0))[:, n]
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
        values = fn.values.ravel().tolist()
        fh.write(("%.17g\n" * len(values)) % tuple(values))


@contextmanager
def _input_file(path):
    """path opened for reading; an OSError, or a ValueError while the body
    parses the file, becomes an InputError that names the path."""
    try:
        with open(path) as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_grid_csv(path):
    """Read a grid function written by save_grid_csv; InputError unless the
    file is readable, its header `d,sizes...,h...` has one period h_i*size_i
    on every axis and prod(sizes) numeric values follow, one per line."""
    with _input_file(path) as fh:
        head = fh.readline().strip().split(",")
        d = int(head[0])
        sizes = tuple(int(x) for x in head[1 : 1 + d])
        hs = [float(x) for x in head[1 + d :]]
        values = np.loadtxt(fh, ndmin=1)
    if d < 1 or len(hs) != d:
        raise InputError(f"{path}: header must be d,sizes...,h... (1+2d fields)")
    period = hs[0] * sizes[0]
    if not all(abs(h * s - period) <= 1e-9 * period for h, s in zip(hs, sizes)):
        raise InputError(f"{path}: spacings {hs} and sizes {sizes} differ in period")
    if values.ndim != 1 or values.size != np.prod(sizes):
        raise InputError(f"{path}: expected {np.prod(sizes)} values, got {values.size}")
    return GridFn(TorusGrid(sizes, period=period), values.reshape(sizes))


def equation_to_dict(spec):
    def entry(side, t):
        out = {"kind": t[0]}
        for key, v in zip(_catalog_keys(side, t[0]), t[1:]):
            out[key] = float(v) if key in NUMBER_KEYS else np.asarray(v).tolist()
        return out

    return {"p": spec.p, "A": entry("A", spec.A_field), "rhs": entry("rhs", spec.rhs)}


def equation_from_dict(blob):
    """EquationSpec of a problem JSON blob (see equation_to_dict).  A
    missing or unknown key, or a value of the wrong type or form, raises
    one InputError that names its key."""

    def get(e, key, convert=lambda v: v):
        try:
            return convert(e[key])
        except KeyError:
            raise InputError(f"problem JSON lacks the key {key!r}") from None
        except (TypeError, ValueError) as exc:
            raise InputError(f"problem JSON has a bad {key!r}: {exc}") from None

    def json_value(name, *types):
        def convert(v):  # bool is an int to Python, not a number to JSON
            if isinstance(v, bool) or not isinstance(v, types):
                raise TypeError(f"expected a JSON {name}, got {json.dumps(v)}")
            return types[-1](v)
        return convert

    number = json_value("number", int, float)

    def field(v):  # a JSON number or nested lists of them
        todo = [v]
        while todo:
            x = todo.pop()
            if isinstance(x, list):
                todo.extend(reversed(x))
            else:
                number(x)
        return np.asarray(v, dtype=float)

    def only(e, keys, where):
        unknown = [k for k in e if k not in keys]
        if unknown:
            raise InputError(f"problem JSON{where} has an unknown key {unknown[0]!r}")

    def entry(side):
        e = get(blob, side)
        kind = get(e, "kind", json_value("string", str))
        keys = _catalog_keys(side, kind)
        only(e, ("kind", *keys), f"'s {side!r} entry")
        params = (get(e, k, number if k in NUMBER_KEYS else field)
                  for k in keys if k in e or k != "t_coeff")
        return (kind, *params)

    p = get(blob, "p", json_value("integer", int))
    A_field, rhs = entry("A"), entry("rhs")
    only(blob, ("p", "A", "rhs"), "")
    return EquationSpec(p=p, A_field=A_field, rhs=rhs)


def save_problem_json(path, spec):
    with open(path, "w") as fh:
        json.dump(equation_to_dict(spec), fh, indent=1)


def load_problem_json(path):
    with _input_file(path) as fh:
        blob = json.load(fh)
    return equation_from_dict(blob)


# ---------------------------------------------------------------------------
# manufactured problem

def manufactured_problem(sizes, p=2, amplitude=0.2):
    """Periodic test problem on the grid of the given sizes, d = len(sizes),
    with known solution u* = a cos x1 ... cos xd.

    A is the identity (conformal c=1) and the right side is
    sigma_p^{1/p}(lam(I + D^2 u*)) with D^2 u* by fourier_hess, exact to
    rounding for this u* and independent of the stencils under test, so u*
    solves the continuous equation and the discrete residual at u* is
    O(h^2).  Returns (spec, grid, u_star GridFn); InputError unless
    1 <= p <= d, before any field is built, and AdmissibilityError if
    I + D^2 u* leaves the cone somewhere.
    """
    d = len(sizes)
    ConeSpec(d, p)
    grid = TorusGrid(sizes)
    ustar = amplitude * np.prod(np.cos(grid.meshgrid()), axis=0)
    B = fourier_hess(ustar, grid.h)
    for i in range(d):
        B[i, i] += 1.0
    phi = require_matrix_cone(_matrices(B), p)[..., p] ** (1.0 / p)
    spec = EquationSpec(p=p, A_field=("conformal", 1.0), rhs=("stored", phi))
    return spec, grid, GridFn(grid, ustar)
