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

for f = sigma_p^{1/p}, with the level-set/ball hypothesis decided by
the closed-form crossing of the level set on randomized rays (a
semi-decision: sampling can only certify "holds on all sampled rays").
"""

from dataclasses import dataclass

import numpy as np

from .cone import ConeSpec, require_cone
from .errors import ConstructionError, VerificationError
from .solver import ball_grid, box_grad_hess
from .spectral import classify_matrices, jacobi_eigh
from .symfun import (
    _as_values,
    sigma,
    sigma_minors,
    sigma_ray_coeffs,
    sigma_root_grad,
)


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


@dataclass(frozen=True)
class BallProblem:
    """Ball-domain data for the exponential-bump construction.

    psi, u are callables taking an (N, n) array of points; phi_tilde takes
    (points, t) with t an (N,) array.  u must be a defining function of
    the ball (negative inside, zero on the boundary) with admissible
    Hessian; psi needs lam(D^2 psi) in the closed cone.
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
            raise ValueError("need 1 <= p <= n")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.radius <= 0 or self.resolution < 9:
            raise ValueError("need positive radius and resolution >= 9")


@dataclass(frozen=True)
class SubsolutionResult:
    A: float
    B: float
    eps1: float
    eps2: float
    v: np.ndarray          # grid field, shape (resolution,)*n
    worst_slack: float


def _require_cone(hess, mask, p, message, closed=False):
    """matrix_sigmas of the Hessians (n, n, m) at the masked nodes;
    ConstructionError naming the first node whose eigenvalues leave the
    open cone (the closed cone when closed), or when a sigma_q overflows,
    since a verdict on inf is no verdict on the Hessian."""
    with np.errstate(over="ignore", invalid="ignore"):
        codes, sigmas = classify_matrices(np.moveaxis(hess, -1, 0), ConeSpec(len(hess), p))
    finite = np.isfinite(sigmas)
    if not np.all(finite):
        raise ConstructionError(
            "the construction overflows in the sigma_q of a Hessian",
            node=int(np.flatnonzero(mask)[np.argmin(np.all(finite, axis=-1))]),
        )
    bad = codes == 0 if closed else codes != 2
    if np.any(bad):
        raise ConstructionError(message, node=int(np.flatnonzero(mask)[np.argmax(bad)]))
    return sigmas


def construct(problem):
    """Run the construction and certify it nodewise.

    Extracts eps1 = min sigma_p(lam(D^2 u)), eps2 = min of the top-entry-
    deleted minor sigma_{p-1}(lam|n), the majorant constants C1 (max of
    phi_tilde(x, psi)) and C2 (1 + max|Dpsi| + max|psi|^alpha), picks A
    and B by the p >= 2 or p = 1 branch, and reports the worst slack of
    the target differential inequality over the trusted nodes.  Cone
    checks and sigma values come from principal minors; only eps2 (p >= 2)
    needs the eigenvalues of D^2 u.
    """
    n, p, alpha = problem.n, problem.p, problem.alpha
    pts, dist, h = ball_grid(problem.radius, problem.resolution, n)
    shape = (problem.resolution,) * n
    in_ball = dist <= problem.radius + 1e-12
    trusted = dist <= problem.radius - 2 * h

    u = problem.u(pts).reshape(shape)
    psi = problem.psi(pts).reshape(shape)

    du, d2u = box_grad_hess(u, h, in_ball)
    sig_u = _require_cone(
        d2u, in_ball, p, "defining function u is not admissible at a grid node"
    )
    if np.any(u.ravel()[in_ball & (dist < problem.radius - h)] >= 0):
        raise ConstructionError("u must be negative inside the ball")

    eps1 = float(np.min(sig_u[:, p]))
    eps2 = 1.0
    if n > 1 and p > 1:
        lam = jacobi_eigh(np.moveaxis(d2u, -1, 0))
        eps2 = float(np.min(sigma(p - 1, lam[:, : n - 1])))
    del d2u, sig_u

    dpsi, d2psi = box_grad_hess(psi, h, in_ball)
    _require_cone(
        d2psi, in_ball, p,
        "extension psi leaves the closed cone at a grid node", closed=True,
    )
    del d2psi

    psi_flat = psi.ravel()[in_ball]
    dpsi_norm = np.linalg.norm(dpsi, axis=0)
    # a numpy scalar, so C1**p overflows to inf (rejected below) instead of raising
    C1 = np.float64(np.max(problem.phi_tilde(pts[in_ball], psi_flat)))
    C2 = float(1.0 + np.max(dpsi_norm) + np.max(np.abs(psi_flat) ** alpha))

    max_du = float(np.max(np.linalg.norm(du, axis=0)))
    min_u = float(np.min(u.ravel()[in_ball]))
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
        v = psi + A * (np.exp(B * u) - 1.0)
        dv, d2v = box_grad_hess(v, h, trusted)
    finite_v = np.all(np.isfinite(v.ravel()[in_ball]))
    if not (np.isfinite(A) and np.isfinite(B) and finite_v):
        raise ConstructionError(f"the construction overflows (A = {A}, B = {B})")
    sig_v = _require_cone(
        d2v, trusted, p, "constructed v loses admissibility at a grid node"
    )
    del d2v

    v_flat = v.ravel()[trusted]
    dv_norm = np.linalg.norm(dv, axis=0)
    lhs = sig_v[:, p] ** (1.0 / p)
    rhs = problem.phi_tilde(pts[trusted], v_flat) * (
        1.0 + dv_norm + np.abs(v_flat) ** alpha
    )
    worst = float(np.min(lhs - rhs))
    return SubsolutionResult(float(A), float(B), eps1, eps2, v, worst)


@dataclass(frozen=True)
class KeyLemmaConfig:
    n: int
    p: int
    delta: float
    R: float
    a: float
    mu: np.ndarray
    nu: np.ndarray


def _level_crossing(base, xi, p, a):
    """Largest t with sigma_p(base + t xi) = a^p per ray (rows xi > 0, a > 0).

    sigma_p is hyperbolic along xi in Gamma_n: t -> sigma_p(base + t xi) has
    only real roots, is increasing and convex past the largest, and meets
    a^p there once.  Newton from Fujiwara's root bound decreases onto that
    crossing; a row stops when its step no longer decreases t.  Values come
    from the moved vector, since the monomial form cancels far from t = 0.
    """
    target = a**p
    c = sigma_ray_coeffs(p, base, xi)
    c[..., 0] -= target
    k = np.arange(1, p + 1)
    bounds = np.abs(c[..., p - k] / c[..., p, None]) ** (1.0 / k)
    bounds[..., -1] *= 0.5 ** (1.0 / p)
    t = 2.0 * np.max(bounds, axis=-1)
    slope = c[..., 1:] * k
    while True:
        g = sigma(p, base + t[..., None] * xi) - target
        dg = slope[..., -1]
        for j in range(p - 2, -1, -1):
            dg = dg * t + slope[..., j]
        step = t - g / dg
        down = step < t
        if not np.any(down):
            return t
        t = np.where(down, step, t)


def key_lemma_check(cfg, directions=10**4, seed=0):
    """(lhs, rhs, hypothesis_ok, escape) of the key lemma at cfg with
    f = sigma_p^{1/p}.

    hypothesis_ok iff, on random rays from mu - delta*1 into the positive
    orthant, every crossing of the level set {sigma_p^{1/p} = a} (t clamped
    at 0) lies in the ball of radius R; it certifies the sampled rays only.
    escape is None then, and otherwise (index, norm) of the first sampled
    crossing outside the ball.  lhs >= rhs is guaranteed by the lemma
    whenever the hypothesis holds.
    """
    mu = _as_values(cfg.mu)
    nu = _as_values(cfg.nu)
    if cfg.delta <= 0 or cfg.R <= 0 or cfg.a <= 0:
        raise ValueError("delta, R, a must be positive")
    require_cone(nu, ConeSpec(cfg.n, cfg.p), "nu")
    f_nu, grad = sigma_root_grad(cfg.p, nu)
    base = mu - cfg.delta * np.ones(cfg.n)
    lhs = float(np.dot(grad, mu - nu))
    rhs = float(
        cfg.delta * np.sum(grad)
        - (cfg.R + np.linalg.norm(base)) * np.min(grad)
        + cfg.a
        - f_nu
    )
    rng = np.random.default_rng(seed)
    xi = rng.uniform(0.0, 1.0, (directions, cfg.n)) + 1e-3
    xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
    t = np.maximum(_level_crossing(base, xi, cfg.p, cfg.a), 0.0)
    norms = np.linalg.norm(base + t[:, None] * xi, axis=-1)
    outside = np.flatnonzero(~(norms < cfg.R))
    if len(outside) == 0:
        return lhs, rhs, True, None
    return lhs, rhs, False, (int(outside[0]), float(norms[outside[0]]))


def matrix_form_sides(p, delta, R, a, C, D):
    """Matrix-form sides of the key lemma for symmetric C, D:

        lhs = sum_jk F^{jk} (c_jk - d_jk)
        rhs = delta * tr(F) + a - f(lam(D))
              - (R + |lam(C) - delta 1|) lam_1(F)

    with F the gradient of f(lam(I, .)) = sigma_p^{1/p} at D, assembled by
    diagonalizing D and conjugating the diagonal-frame gradient back.
    """
    C = np.asarray(C, dtype=float)
    D = np.asarray(D, dtype=float)
    n = D.shape[-1]
    nu, Q = jacobi_eigh(D, vectors=True)
    require_cone(nu, ConeSpec(n, p), "lam(D)")
    f_nu, grad = sigma_root_grad(p, nu)
    F = Q @ np.diag(grad) @ Q.T
    lam_C = jacobi_eigh(C)
    lhs = float(np.sum(F * (C - D)))
    rhs = float(
        delta * np.trace(F)
        + a
        - f_nu
        - (R + np.linalg.norm(lam_C - delta)) * np.min(grad)
    )
    return lhs, rhs
