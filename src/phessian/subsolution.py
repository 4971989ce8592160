"""Explicit exponential-bump subsolutions on ball domains and the key lemma.

The construction takes a defining function u (u < 0 inside, 0 on the
boundary, admissible Hessian), a boundary datum psi extended inside with
admissible Hessian, and a positive right-hand factor phi_tilde(x, t)
non-decreasing in t, and produces

    v = psi + A (e^{B u} - 1)

with explicit constants A, B such that

    sigma_p^{1/p}(lam(D^2 v)) >= phi_tilde(x, v) (1 + |Dv| + |v|^alpha)

holds on the closed ball.  Everything is evaluated on a uniform Cartesian
grid over the bounding box; admissibility and the final slack are checked
on nodes at distance >= 2h inside the ball where the central-difference
Hessians are trustworthy.

The key-lemma checker evaluates the concave-function inequality

    sum_j df_j|_nu (mu_j - nu_j) >= delta sum_j df_j - (R + |mu - delta 1|)
                                     min_j df_j + a - f(nu)

for f = sigma_p^{1/p}, with the level-set/ball hypothesis decided on
randomized rays (a semi-decision: sampling can only certify "holds on all
sampled rays"): at each ray's ball-exit point where sigma_p there settles
it, and by a Newton solve for the crossing of the level set elsewhere.
"""

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from .cone import ConeSpec, _regions, _rounding, require_cone
from .errors import ConstructionError, InputError
from .solver import box_grad_hess
from .spectral import EIGH_ROUNDING, classify_matrices, jacobi_eigh, spread, top_range
from .symfun import _as_values, _level_crossing, _Rounded, _root_grad, sigma


@dataclass(frozen=True)
class BallProblem:
    """Ball-domain data for the exponential-bump construction.

    psi, u are callables taking an (N, n) array of points, column-major
    (each coordinate one contiguous column); phi_tilde takes (points, t)
    with t an (N,) array.  All three must be pointwise: the value at a row
    depends on that row alone (of points and t), since construct evaluates
    them on one slab of grid planes at a time.  u must be a defining
    function of the ball (negative inside, zero on the boundary) with
    admissible Hessian; psi needs lam(D^2 psi) in the closed cone.  u is
    evaluated first, into a whole field.  psi is evaluated slab by slab, in
    its cone check and again when v is formed, so an exception that psi
    raises surfaces in its cone check, after any fault of u's.
    """

    n: int
    radius: float
    resolution: int
    p: int
    alpha: float
    psi: callable
    phi_tilde: callable
    u: callable

    def __post_init__(self):
        if not 1 <= self.p <= self.n:
            raise InputError("need 1 <= p <= n")
        if not 0.0 < self.alpha < 1.0:
            raise InputError("alpha must lie in (0, 1)")
        if not 0.0 < self.radius < np.inf or self.resolution < 9:
            raise InputError("need positive radius and resolution >= 9")


@dataclass(frozen=True)
class SubsolutionResult:
    A: float
    B: float
    eps1: float
    eps2: float
    v: np.ndarray          # grid field, shape (resolution,)*n
    worst_slack: float


# construct runs its per-node stages on slabs of axis-0 planes holding
# about this many nodes, round(SLAB_NODES / plane) planes but at least one,
# read with SLAB_HALO planes more on each side: d0(d0 f) reads f two planes
# away, and at the box's edge plane the one-sided formula reads d0 f at
# planes 0..2, whose central value at plane 2 needs plane 3.  Only d0 f
# runs over the whole halo and d0(d0 f) over one plane of it, so a thin
# slab adds little derivative work.  2^15 gives 97^3 3-plane slabs: its
# 6-plane slabs under 2^16 peaked 5.1 MiB higher (17.2 against 12.1 MiB
# traced).  Rounding rather than flooring gives 129^3 2-plane slabs: a
# floor's 1-plane slabs took a warm construct from 0.62 to 0.76 s (2-vCPU
# x86_64).  The same halo bounds the span a slab reads along every other
# axis (_crop).
SLAB_NODES = 2**15
SLAB_HALO = 3


class _Slab(NamedTuple):
    core: slice        # the core planes
    read: slice        # the core planes plus halo
    inner: slice       # the core planes' positions in read
    first: int         # flat grid index of the first core node
    dist: np.ndarray   # distances of the core nodes to the origin


def _slab_planes(res, n):
    """The core planes (slices) of the slabs of the grid res^n, in order."""
    step = max(1, round(SLAB_NODES / res ** (n - 1)))
    return [slice(lo, min(lo + step, res)) for lo in range(0, res, step)]


def _slabs(axis, n):
    """The slabs of the grid axis^n, in row-major node order.  dist sums
    the squares in axis order, as np.linalg.norm does for n < 8."""
    res = len(axis)
    sq = axis * axis
    for core in _slab_planes(res, n):
        lo, hi = core.start, core.stop
        dist = sq[lo:hi].reshape((-1,) + (1,) * (n - 1))
        for k in range(1, n):
            dist = dist + sq.reshape((-1,) + (1,) * (n - 1 - k))
        a = max(0, lo - SLAB_HALO)
        yield _Slab(
            core, slice(a, min(res, hi + SLAB_HALO)), slice(lo - a, hi - a),
            lo * res ** (n - 1), np.sqrt(dist).ravel(),
        )


def _slab_points(axis, n, planes, rows=None):
    """Grid points (m, n) of the nodes on the axis-0 planes `planes` (a
    slice) in row-major node order, or of those the flat mask rows
    selects; column-major, each coordinate one contiguous column."""
    coords = [axis[planes]] + [axis] * (n - 1)
    if rows is None:
        cols = np.meshgrid(*coords, indexing="ij", sparse=True)
    else:
        index = np.unravel_index(np.flatnonzero(rows), tuple(map(len, coords)))
        cols = [c[i] for c, i in zip(coords, index)]
    return np.stack(np.broadcast_arrays(*cols)).reshape(n, -1).T


def _plane_values(f, axis, n, planes):
    """The pointwise callable f on the grid points of the axis-0 planes
    `planes` (a slice), shaped as those planes."""
    shape = (len(axis[planes]),) + (len(axis),) * (n - 1)
    return f(_slab_points(axis, n, planes)).reshape(shape)


def _evaluated_planes(f, axis, n):
    """Plane source of the pointwise callable f for one pass over the
    slabs: maps each slab, in grid order, to a new array of f on its read
    planes.  The planes it shares with the previous call's are copied from
    that call's array rather than evaluated again, so f meets each node at
    most once in the pass; only the latest array is kept."""
    held, start = np.empty((0,) + (len(axis),) * (n - 1)), 0

    def planes(s):
        nonlocal held, start
        fresh = max(s.read.start, start + len(held))
        parts = [held[s.read.start - start:]]
        if fresh < s.read.stop:
            parts.append(_plane_values(f, axis, n, slice(fresh, s.read.stop)))
        held, start = np.concatenate(parts), s.read.start
        return held
    return planes


def _crop(field, mask):
    """The view of field, a slab's read planes, and the flat mask over its
    core planes, both cut on every axis k >= 1 to the span from the first
    to the last selected node, widened by SLAB_HALO on each side and
    clipped to the grid.  np.gradient is local: a selected node at least
    SLAB_HALO nodes from an interior cut reads only central values, which
    the cut leaves as they were, and where the span meets a face of the
    grid the one-sided formulas are the whole field's.  So box_grad_hess
    gives the same values at the selected nodes, in the same order."""
    grid = mask.reshape((-1,) + field.shape[1:])
    cut = (slice(None),)
    for k in range(1, field.ndim):
        span = np.flatnonzero(grid.any(axis=tuple(j for j in range(field.ndim) if j != k)))
        cut += (slice(max(0, span[0] - SLAB_HALO), span[-1] + 1 + SLAB_HALO),)
    return field[cut], grid[cut].ravel()


def _zero_slab(n, m):
    """What box_grad_hess and classify_matrices give at m nodes whose
    stencils read only zeros, as read-only broadcast views: gradient (n, m)
    and Hessian (n, n, m) zero, region codes (m,) 1, since a zero Hessian
    is on the cone's boundary, and matrix_sigmas (m, n + 1) 1, 0, ..., 0.
    A zero's sign can differ from the stencils' where the field holds
    -0.0; no cone check or visit reads it."""
    sigmas = np.zeros(n + 1)
    sigmas[0] = 1.0
    return (np.broadcast_to(0.0, (n, m)), np.broadcast_to(0.0, (n, n, m)),
            np.broadcast_to(1, m), np.broadcast_to(sigmas, (m, n + 1)))


def _admissible_pass(planes, n, axis, h, p, select, message, visit, closed=False):
    """Cone check of a field's Hessians at the nodes select(slab) picks,
    slab by slab, planes(slab) giving the field on the slab's read planes:
    calls visit(slab, mask, the field on the core planes, gradient (n, m),
    Hessian (n, n, m), matrix_sigmas (m, n + 1)) on each slab before the
    first node outside the cone (the closed cone when closed), and raises
    ConstructionError with message naming that node after the last slab.
    A sigma_q that overflows raises at once, naming its node: a verdict on
    inf is no verdict on the Hessian, and it outranks a node outside the
    cone, as in one check over every node.  box_grad_hess reads the slab's
    planes plus halo, cut on the other axes to the selected nodes' span
    plus halo (_crop), and differentiates along the other axes on the core
    planes only; np.gradient's formulas are local, so its values are those
    of the whole field.  Where that cut field is zero at every node, the
    stencils and minors are skipped for their known values (_zero_slab).
    The field may overflow where no stencil at a selected node reads it.
    Each slab's arrays are freed before the next slab is differentiated,
    so visit must keep none of them."""
    bad = None
    for s in _slabs(axis, n):
        mask = select(s)
        if not mask.any():
            continue
        nodes = s.first + np.flatnonzero(mask)
        # the previous slab's arrays are dropped here, after this slab's
        # nodes were allocated above them (psi's previous planes in
        # planes(s), after this slab's): dropped at the end of their own
        # slab, they left the heap's top free, and the allocator handed it
        # back to the system to fault it in again (3x the page faults)
        grad = hess = codes = sigmas = outside = field = part = cut = None
        field = planes(s)
        part, cut = _crop(field, mask)
        # NaN is not zero: any() is true on it
        if not part.any():
            grad, hess, codes, sigmas = _zero_slab(n, len(nodes))
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                grad, hess = box_grad_hess(part, h, cut, s.inner)
                codes, sigmas = classify_matrices(
                    np.moveaxis(hess, -1, 0), ConeSpec(len(hess), p)
                )
        if not np.isfinite(sigmas).all():
            finite = np.all(np.isfinite(sigmas), axis=-1)
            raise ConstructionError(
                "the construction overflows in the sigma_q of a Hessian",
                node=int(nodes[np.argmin(finite)]),
            )
        outside = codes == 0 if closed else codes != 2
        if bad is None and np.any(outside):
            bad = int(nodes[np.argmax(outside)])
        if bad is None:
            visit(s, mask, field[s.inner], grad, hess, sigmas)
    if bad is not None:
        raise ConstructionError(message, node=bad)


def _minor_bounds(hess, trace, k):
    """Lower and upper ends (m,) of an interval that holds the computed
    sigma_k(lam|n), the top eigenvalue left out, of each of the m Hessians H
    of hess (n, n, m), whose traces are trace; (-inf, inf) where the
    interval is not finite or |H|_F is too small for its arithmetic.

    With q = tr H / n and b = |H - qI|_F (spectral.spread), the top
    eigenvalue beta = lam_n - q of the deviatoric part lies in [c_lo b,
    c_hi b] = [b / sqrt(n m), b sqrt(m / n)] (m = n - 1, top_range).  The
    other eigenvalues are q + y with sum(y) = -beta and |y| <= b, so
    sigma_k(lam|n) = C(m, k) q^k - C(m-1, k-1) q^{k-1} beta +
    sum_{j=2..k} C(m-j, k-j) q^{k-j} sigma_j(y), and Maclaurin bounds
    |sigma_j(y)| by C(m, j) (b / sqrt m)^j.  The interval is widened by
    EIGH_ROUNDING k C(m, k) |H|_F^k, |H|_F^2 = b^2 + n q^2: eigvalsh's
    error times sigma_k's slope, at most C(m-1, k-1) |H|_F^{k-1} each.
    """
    n = len(hess)
    m = n - 1
    c_lo, c_hi = top_range(n)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        q, b, norm = spread(hess, trace)
        # beta's term about the middle of beta's range, give or take its
        # half-width
        slope = comb(m - 1, k - 1) * q ** (k - 1)
        center = comb(m, k) * q**k - slope * b * ((c_lo + c_hi) / 2)
        radius = np.abs(slope) * b * ((c_hi - c_lo) / 2)
        radius += EIGH_ROUNDING * k * comb(m, k) * norm**k
        for j in range(2, k + 1):
            radius += comb(m - j, k - j) * comb(m, j) * np.abs(q) ** (k - j) * (
                b / np.sqrt(m)
            ) ** j
        lo, hi = center - radius, center + radius
        # hi - lo is not finite where either end is not.  Below 1e-140 the
        # squares in b underflow by more than the margin, and below
        # 1e-280^(1/k) the margin itself does
        unbounded = ~np.isfinite(hi - lo) | (norm < max(1e-140, 1e-280 ** (1 / k)))
    lo[unbounded], hi[unbounded] = -np.inf, np.inf
    return lo, hi


def construct(problem):
    """Run the construction and certify it nodewise.

    Extracts eps1 = min sigma_p(lam(D^2 u)), eps2 = min of the top-entry-
    deleted minor sigma_{p-1}(lam|n), the majorant constants C1 (max of
    phi_tilde(x, psi)) and C2 (1 + max|Dpsi| + max|psi|^alpha), picks A
    and B by the p >= 2 or p = 1 branch, and reports the worst slack of
    the target differential inequality over the trusted nodes.  Cone
    checks and sigma values come from principal minors.  eps2 (p >= 2)
    needs the eigenvalues of D^2 u, but only at the nodes that can hold
    its minimum: each slab eigensolves the Hessians whose lower bound
    (_minor_bounds) does not exceed the least upper bound so far, which
    always include the node of the smallest computed value, and only one
    of them when they are all equal.  LAPACK solves each matrix on its
    own, so eps2 is the minimum over every node, bit for bit.

    Memory: one whole field (u, then v in its place) plus one slab alive
    at a time; every per-node stage runs on a slab of planes =
    max(1, round(SLAB_NODES / res^(n-1))) axis-0 planes, and each slab's
    arrays are freed before the next slab is differentiated.  psi is never
    held whole: its cone check evaluates it on each slab's planes plus
    halo, copying the planes the previous slab shared, and v adds it slab
    by slab, so psi meets each node at most twice.  Only d0 f is taken on
    the slab's planes plus SLAB_HALO on each side, and d0(d0 f) on the core
    planes plus one on each side; every other derivative, the minors and
    the eigenvalues are taken on the core planes only.  Along every other
    axis a slab is cut to the span of the nodes its pass selects, plus
    SLAB_HALO on each side, and a slab whose cut field is zero (psi = 0
    everywhere, say) skips its stencils and minors for read-only views of
    their known values: np.gradient is local, so neither rule changes a
    value any check reads.  The callables get the points of the nodes a
    pass reads, and only those, column-major.  Every global quantity is a
    min or a max over nodes, so no result depends on the slabs, and the
    first fault is the one a single pass over every node raises, in the
    order: u's cone check, u < 0 inside, psi's closed-cone check, overflow
    of A, B or v, v's cone check.
    """
    n, p, alpha, radius = problem.n, problem.p, problem.alpha, problem.radius
    axis = np.linspace(-radius, radius, problem.resolution)
    h = axis[1] - axis[0]
    u = np.empty((problem.resolution,) * n)
    for planes in _slab_planes(problem.resolution, n):
        # each slab's points are dropped after the next slab's are
        # allocated, as _admissible_pass drops its arrays: dropped at the
        # end of their own slab, they took this loop from 3.5k page faults
        # to 13k at 97^3
        pts = _slab_points(axis, n, planes)
        u[planes] = problem.u(pts).reshape(u[planes].shape)
    del pts

    def in_ball(s):
        return s.dist <= radius + 1e-12

    def trusted(s):
        return s.dist <= radius - 2 * h

    # each pass folds its slabs in a function, so that no slab's arrays
    # outlive its call
    negative = True
    eps1 = eps2 = min_u = cut = np.inf
    max_du = -np.inf

    def u_slab(s, ball, u_core, du, d2u, sig_u):
        nonlocal negative, eps1, eps2, cut, max_du, min_u
        u_flat = u_core.ravel()
        negative &= not np.any(u_flat[ball & (s.dist < radius - h)] >= 0)
        eps1 = np.minimum(eps1, np.min(sig_u[:, p]))
        if n > 1 and p > 1:
            # cut bounds eps2 from above; a node whose value cannot reach
            # below it cannot hold the minimum
            lo, hi = _minor_bounds(d2u, sig_u[:, 1], p - 1)
            cut = np.minimum(cut, np.min(hi))
            keep = lo <= cut
            if keep.any():
                # one gather, into the contiguous matrices jacobi_eigh
                # takes; none when every node is kept
                hess = np.moveaxis(d2u, -1, 0)
                hess = hess if keep.all() else hess[keep]
                # equal matrices have equal computed eigenvalues, so where
                # every one left equals the first (a quadratic u on a dyadic
                # grid, whose values all tie), one stands for all
                if (hess == hess[0]).all():
                    hess = hess[:1]
                lam = jacobi_eigh(hess)
                eps2 = np.minimum(eps2, np.min(sigma(p - 1, lam[:, : n - 1])))
        max_du = np.maximum(max_du, np.max(np.linalg.norm(du, axis=0)))
        min_u = np.minimum(min_u, np.min(u_flat[ball]))

    _admissible_pass(
        lambda s: u[s.read], n, axis, h, p, in_ball,
        "defining function u is not admissible at a grid node", u_slab,
    )
    if not negative:
        raise ConstructionError("u must be negative inside the ball")
    eps1, max_du, min_u = float(eps1), float(max_du), float(min_u)
    eps2 = float(eps2) if n > 1 and p > 1 else 1.0

    C1 = max_dpsi = max_psi = -np.inf

    def psi_slab(s, ball, psi_core, dpsi, _, __):
        nonlocal C1, max_dpsi, max_psi
        psi_flat = psi_core.ravel()[ball]
        phi = problem.phi_tilde(_slab_points(axis, n, s.core, ball), psi_flat)
        C1 = np.maximum(C1, np.max(phi))
        max_dpsi = np.maximum(max_dpsi, np.max(np.linalg.norm(dpsi, axis=0)))
        max_psi = np.maximum(max_psi, np.max(np.abs(psi_flat) ** alpha))

    _admissible_pass(
        _evaluated_planes(problem.psi, axis, n), n, axis, h, p, in_ball,
        "extension psi leaves the closed cone at a grid node", psi_slab, closed=True,
    )
    # a numpy scalar, so C1**p overflows to inf (rejected below) instead of raising
    C1 = np.float64(C1)
    C2 = float(1.0 + max_dpsi + max_psi)

    # A, B and v may overflow, v also outside the ball, where no stencil at
    # a trusted node reads it; the checks below reject what matters
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if p >= 2:
            B = C1**p * 2 ** (p - 1) / eps2 * max_du ** (p - 2)
            A = C2 ** (1.0 / alpha) + (
                C1 * 2 ** ((2 * p - 1) / p) * eps1 ** (-1.0 / p) / B
                * np.exp(-B * min_u)
            ) ** (1.0 / (1.0 - alpha))
        else:
            B = C1**2 / (2.0 * eps1 * eps2)
            A = C2 ** (1.0 / alpha) + (
                4.0 / eps1 * C1 / B * np.exp(-B * min_u)
            ) ** (1.0 / (1.0 - alpha))
        # v = psi + A (e^{B u} - 1) in u's memory, psi added slab by slab below
        v = np.multiply(B, u, out=u)
        np.exp(v, out=v)
        v -= 1.0
        v *= A
    del u

    def add_psi(s):
        psi = _plane_values(problem.psi, axis, n, s.core)
        v_core = v[s.core]
        with np.errstate(over="ignore", invalid="ignore"):
            v_core += psi
        return np.all(np.isfinite(v_core.ravel()[in_ball(s)]))

    finite_v = all(add_psi(s) for s in _slabs(axis, n))
    if not (np.isfinite(A) and np.isfinite(B) and finite_v):
        raise ConstructionError(f"the construction overflows (A = {A}, B = {B})")

    worst = np.inf

    def v_slab(s, nodes, v_core, dv, _, sig_v):
        nonlocal worst
        v_flat = v_core.ravel()[nodes]
        phi = problem.phi_tilde(_slab_points(axis, n, s.core, nodes), v_flat)
        # where |Dv| overflows the slack is -inf, a reported violation,
        # unless a later slab fails the cone check; neither case warns
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = phi * (1.0 + np.linalg.norm(dv, axis=0) + np.abs(v_flat) ** alpha)
            worst = np.minimum(worst, np.min(sig_v[:, p] ** (1.0 / p) - rhs))

    _admissible_pass(
        lambda s: v[s.read], n, axis, h, p, trusted,
        "constructed v loses admissibility at a grid node", v_slab,
    )
    return SubsolutionResult(float(A), float(B), eps1, eps2, v, float(worst))


@dataclass(frozen=True)
class KeyLemmaConfig:
    n: int
    p: int
    delta: float
    R: float
    a: float
    mu: np.ndarray
    nu: np.ndarray


# key_lemma_sweep samples and decides the rays of whole configs together,
# at least one config and otherwise at most this many rays at a time.
KEY_LEMMA_RAYS = 2**13


def _rays_that_may_escape(base, base_norm, xi, p, a, R):
    """Mask, per config c and ray r, of the unit rays base_c + t xi_cr
    (xi > 0, a_c > 0) whose crossing the exit point does not place inside
    the ball |x| < R_c; base_norm holds the |base_c|.

    While |base| < R, ray xi leaves the ball at t_R = -(base.xi) +
    sqrt((base.xi)^2 + R^2 - |base|^2), taken through hypot so that R^2
    cannot overflow.  If x = base + t_R xi is interior to Gamma_p, so is
    x + s xi for every s >= 0 (xi is in Gamma_n, inside the convex cone
    Gamma_p), and sigma_p increases along xi there (Garding).  So when
    sigma_p(x) > a^p the largest crossing of {sigma_p = a^p} comes before
    t_R, and the crossing, clamped at 0, lies on the segment from base to
    x, inside the ball.  The rays decided so are those where x classifies
    interior and sigma_p(x) exceeds a^p by 2 _rounding(n, p) C(n, p) R^p,
    twice its rounding bound at |x| = R (the Newton stops within one of the
    crossing); every other ray, and every ray when |base| >= R, is left to
    the Newton.  The per-config scalars are those of a single config.
    """
    # a config with |base| >= R keeps every ray; its exit points are those
    # of a stand-in base 0 and radial 0, so they cannot overflow
    inside = np.less(base_norm, R)
    base = np.where(inside[:, None], base, 0.0)
    radial = [
        np.sqrt(r - b) * np.sqrt(r + b) if ok else 0.0
        for b, r, ok in zip(base_norm, R, inside)
    ]
    margin = 2 * _rounding(base.shape[-1], p) * comb(base.shape[-1], p)
    with np.errstate(over="ignore"):
        level = [a_c**p + margin * np.float64(r) ** p for a_c, r in zip(a, R)]
    # |base| < 1.4e154 where its norm is finite, so the exit points are
    # finite up to R = the largest float; b + reach xi is formed in place
    along = (xi @ base[..., None])[..., 0]
    reach = np.hypot(along, np.array(radial)[:, None]) - along
    exits = np.multiply(reach[..., None], xi)
    exits += base[:, None]
    codes, sigs = _regions(exits, p)
    return ~((codes == 2) & (sigs[..., -1] > np.array(level)[:, None]) & inside[:, None])


def _fits_the_rays(mu, delta, a, n, p):
    """Mask over configs (rows of mu; delta, a per row) whose rays cannot
    overflow: sigma_p stays finite wherever the sweep evaluates it.

    With base = mu - delta 1 and S = max(|base|_inf, a), the crossing
    Newton starts at max_i(-base_i / xi_i) + (a^p / sigma_p(xi))^(1/p) <=
    2 S / min(xi), as sigma_p(xi) >= min(xi)^p, and descends onto a
    crossing in the closed Gamma_1, where t >= -sigma_1(base) / sigma_1(xi)
    >= -S / min(xi).  _ray_verdicts draws entries of at least 1e-3 / (1.001
    sqrt n), so every entry the sweep forms is at most (1 + 2002 sqrt n) S
    <= X = (1 + 2002 p sqrt n) S, and each partial sum of the minor
    recurrence or of the Newton slope at most 4^n X^p; the power is at
    least 2 so that |base|^2 fits too.  X is a factor p looser than this
    bound needs."""
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.max(np.abs(mu - delta[:, None]), axis=-1)
        X = (1.0 + 2002.0 * p * np.sqrt(n)) * np.maximum(base, a)
        return np.isfinite(4.0**n * X ** max(p, 2))


def _key_lemma_inputs(cfgs, directions):
    """mu and nu of cfgs stacked (C, n), after each config's checks in turn:
    mu and nu finite, delta and a positive, R positive and finite,
    directions at least 1, (n, p) a cone and the first config's, mu and nu
    of length n; then, batched, nu in the open cone and mu - delta and a
    small enough that the rays cannot overflow (_fits_the_rays).  The error
    raised is the one that checking the configs one by one would raise
    first."""
    n, p = cfgs[0].n, cfgs[0].p
    mus, nus, error = [], [], None
    for cfg in cfgs:
        try:
            mu, nu = _as_values(cfg.mu), _as_values(cfg.nu)
            if not (cfg.delta > 0 and cfg.a > 0):
                raise InputError("delta, a must be positive")
            if not 0 < cfg.R < np.inf:
                raise InputError(f"R must be positive and finite, got {cfg.R}")
            # shared by every config: it can fail only on the first
            if directions < 1:
                raise InputError(f"need at least 1 direction, got {directions}")
            ConeSpec(cfg.n, cfg.p)
            if (cfg.n, cfg.p) != (n, p):
                raise InputError(
                    f"the configs of a sweep share n and p, got (n, p) = "
                    f"({cfg.n}, {cfg.p}) after ({n}, {p})"
                )
            if mu.shape != (n,) or nu.shape != (n,):
                raise ValueError(f"expected a vector of length {n}")
        except ValueError as exc:
            error = exc
            break
        mus.append(mu)
        nus.append(nu)
    if nus:
        mus, nus = np.stack(mus), np.stack(nus)
        checked = cfgs[: len(nus)]
        fits = _fits_the_rays(
            mus, np.array([cfg.delta for cfg in checked]),
            np.array([cfg.a for cfg in checked]), n, p,
        )
        # each config's nu is checked before its size, as one by one
        stop = len(nus) if fits.all() else int(np.argmin(fits)) + 1
        require_cone(nus[:stop], ConeSpec(n, p), "nu")
        if not fits.all():
            cfg = checked[stop - 1]
            raise InputError(
                f"sigma_{p} could overflow along the rays: max |mu| = "
                f"{np.max(np.abs(mus[stop - 1])):.3g}, delta = {cfg.delta:.3g}, "
                f"a = {cfg.a:.3g}"
            )
    if error is not None:
        raise error
    return mus, nus


def _ray_verdicts(cfgs, seeds, base, base_norm, directions, p):
    """(hypothesis_ok, escape) per config, its rays drawn from
    default_rng(seed) and decided together with the other configs'."""
    xi = np.empty((len(cfgs), directions, base.shape[-1]))
    for x, seed in zip(xi, seeds):
        x[...] = np.random.default_rng(seed).uniform(0.0, 1.0, x.shape) + 1e-3
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
    a, R = [cfg.a for cfg in cfgs], [cfg.R for cfg in cfgs]
    owner, ray = np.nonzero(_rays_that_may_escape(base, base_norm, xi, p, a, R))
    verdicts = [(True, None)] * len(cfgs)
    if len(ray) == 0:
        return verdicts
    # each config's a^p as a scalar power: numpy's array power rounds
    # differently in the last bit
    target = np.array([cfg.a**p for cfg in cfgs])
    t = np.maximum(_level_crossing(base[owner], xi[owner, ray], p, target[owner]), 0.0)
    norms = np.linalg.norm(base[owner] + t[:, None] * xi[owner, ray], axis=-1)
    outside = np.flatnonzero(~(norms < np.array(R)[owner]))
    # owner ascends, so each config's first escape is where owner[outside]
    # changes
    for i in outside[np.flatnonzero(np.diff(owner[outside], prepend=-1))]:
        verdicts[owner[i]] = (False, (int(ray[i]), float(norms[i])))
    return verdicts


def key_lemma_sweep(cfgs, directions, seeds):
    """(lhs, rhs, hypothesis_ok, escape, bound) of the key lemma with f =
    sigma_p^{1/p} for each config of cfgs, which share n and p, the rays of
    cfgs[i] drawn from default_rng(seeds[i]).

    hypothesis_ok iff, on random rays from mu - delta*1 into the positive
    orthant, every crossing of the level set {sigma_p^{1/p} = a} (t clamped
    at 0) lies in the ball of radius R; it certifies the sampled rays only.
    A ray whose ball-exit point settles that (see _rays_that_may_escape)
    skips the crossing's Newton solve; the verdicts are those of solving
    every ray.  escape is None then, and otherwise (index, norm) of the
    first sampled crossing outside the ball.  lhs >= rhs is guaranteed by
    the lemma whenever the hypothesis holds.  InputError names the first
    bad one of delta, a, R, directions and (n, p), config by config, or a
    config so large that sigma_p could overflow along its rays
    (_fits_the_rays).

    bound is 2 err of lhs - rhs = g.(mu - nu) - (sum g delta - (|b| + R)
    min g + a - f), b = mu - delta 1, g = grad f(nu) and f = f(nu), all
    carried as _Rounded from _root_grad's.

    The configs' sides, cone checks and gradients are computed in one
    batch, each side by a reduction over its config's row, and their rays
    whole configs at a time, up to KEY_LEMMA_RAYS rays (at least one
    config) per pass: each result equals the config's alone, bit for bit.
    """
    if len(seeds) != len(cfgs):
        raise InputError(f"need one seed per config, got {len(seeds)} for {len(cfgs)}")
    if not cfgs:
        return []
    mu, nu = _key_lemma_inputs(cfgs, directions)
    p = cfgs[0].p
    f, g = _root_grad(p, nu)
    delta, R, a = (np.array([getattr(cfg, k) for cfg in cfgs]) for k in ("delta", "R", "a"))
    x = _Rounded(mu, np.zeros(mu.shape))
    b = x - delta[:, None]
    norm = (b * b).sum() ** 0.5
    lhs = (g * (x - nu)).sum()
    rhs = g.sum() * delta - (norm + R) * g.min() + a - f
    base, base_norm = b.value, norm.value
    step = max(1, KEY_LEMMA_RAYS // directions)
    verdicts = []
    for lo in range(0, len(cfgs), step):
        chunk = slice(lo, lo + step)
        verdicts += _ray_verdicts(
            cfgs[chunk], seeds[chunk], base[chunk], base_norm[chunk], directions, p
        )
    return [(float(l), float(r)) + verdict + (float(2 * e),)
            for l, r, verdict, e in zip(lhs.value, rhs.value, verdicts, (lhs - rhs).err)]


def key_lemma_check(cfg, directions=10**4, seed=0):
    """(lhs, rhs, hypothesis_ok, escape, bound) of the key lemma at cfg: the
    batch of one of key_lemma_sweep."""
    return key_lemma_sweep([cfg], directions, [seed])[0]
