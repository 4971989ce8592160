"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test is self-contained and prints as a single pass/fail line under
pytest -v.  Sample counts and runtime budgets are asserted, not assumed.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from phessian.cli import main as cli_main
from phessian.concavity import find_threshold, residual_batch, sample_hypothesis_points
from phessian.cone import (
    ConeSpec,
    classify_batch,
    maclaurin_report,
    sample_admissible,
    tech_ineq_report,
)
from phessian.solver import (
    AlexandrovProblem,
    GridFn,
    PseudoCheckConfig,
    admissible,
    alexandrov_check,
    manufactured_problem,
    newton_solve,
    pseudo_check,
    residual_field,
    smooth_perturbation,
)
from phessian.spectral import eigs, jacobi_eigh, spectral_derivs
from phessian.subsolution import BallProblem, KeyLemmaConfig, construct, key_lemma_check
from phessian.symfun import identity_residuals, sigma

from paper_checks import (
    midpoint_concavity_check,
    rank_one_sigma,
    schur_horn_check,
    weyl_check,
)


# ---------------------------------------------------------------------------
# 1. Identity suite: residual <= 1e-10 over 1e4 vectors per (n, p),
#    n in 2..8, runtime <= 10 s.

def test_01_identity_suite():
    t0 = time.perf_counter()
    for n in range(2, 9):
        for p in range(1, n + 1):
            rng = np.random.default_rng([101, n, p])
            mu = rng.uniform(-3.0, 3.0, (10**4, n))
            res = identity_residuals(p, mu)
            for name, vals in res.items():
                worst = float(np.max(np.abs(vals)))
                assert worst <= 1e-10, (n, p, name, worst)
    assert time.perf_counter() - t0 <= 10.0


# ---------------------------------------------------------------------------
# 2. Inequality suite: Newton-Maclaurin, Maclaurin, superadditivity,
#    technical strict inequalities, Weyl sandwich, Schur-Horn gap, matrix
#    midpoint concavity; slack >= -1e-10 over 1e4 admissible samples each;
#    runtime <= 60 s.

def _random_rotations(rng, count, n):
    Q, _ = np.linalg.qr(rng.normal(size=(count, n, n)))
    return Q


def _admissible_matrices(rng, count, n, p):
    mu = sample_admissible(n, p, count, rng)
    Q = _random_rotations(rng, count, n)
    B = np.einsum("cij,cj,ckj->cik", Q, mu, Q)
    return 0.5 * (B + np.swapaxes(B, 1, 2))


def test_02_inequality_suite():
    t0 = time.perf_counter()
    trials = 10**4

    # Newton-Maclaurin / Maclaurin quotient family
    per = trials // 4
    for n, p in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        rng = np.random.default_rng([202, n, p])
        mus = sample_admissible(n, p, per, rng)
        rep = maclaurin_report(mus, ConeSpec(n, p))
        worst = np.min(list(rep.values()), axis=0)
        i = int(np.argmin(worst))
        assert worst[i] >= -1e-10, (n, p, mus[i], worst[i])

    # technical strict inequalities
    for n, p in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        rng = np.random.default_rng([203, n, p])
        spec = ConeSpec(n, p)
        rep = tech_ineq_report(np.sort(sample_admissible(n, p, per, rng), axis=1), spec)
        for key in ("partial_sum", "top_spread", "min_entry",
                    "sigma_pm1_lower", "minor_positive"):
            assert np.all(rep[key] > 0), (n, p, key)
        for key in ("minor_chain_min_gap", "top_minor", "trace_lower",
                    "amgm_gap"):
            assert np.all(rep[key] >= -1e-10), (n, p, key)

    # superadditivity of sigma_p^{1/p} on the cone
    for n, p in [(3, 2), (5, 3)]:
        rng = np.random.default_rng([204, n, p])
        mu = sample_admissible(n, p, trials // 2, rng)
        nu = sample_admissible(n, p, trials // 2, rng)
        lhs = sigma(p, mu + nu) ** (1.0 / p)
        rhs = sigma(p, mu) ** (1.0 / p) + sigma(p, nu) ** (1.0 / p)
        assert np.min(lhs - rhs) >= -1e-10

    # Weyl sandwich for pencil eigenvalues, vectorized over the batch
    n, q = 4, 2
    rng = np.random.default_rng(205)
    X = rng.normal(size=(trials, n, n))
    A = np.eye(n) + 0.3 * np.einsum("cij,ckj->cik", X, X)
    B = rng.normal(size=(trials, n, n))
    B = B + np.swapaxes(B, 1, 2)
    C = rng.normal(size=(trials, n, n))
    C = C + np.swapaxes(C, 1, 2)
    lam_B = eigs((A, B))
    lam_C = eigs((A, C))
    lam_BC = eigs((A, B + C))
    lower = lam_BC[:, q - 1] - lam_B[:, q - 1] - lam_C[:, 0]
    upper = lam_B[:, q - 1] + lam_C[:, -1] - lam_BC[:, q - 1]
    assert np.min(lower) >= -1e-10 and np.min(upper) >= -1e-10
    # the batch evaluation agrees with the per-sample operation
    for i in range(100):
        lo, up = weyl_check(A[i], B[i], C[i], q)
        assert abs(lo - lower[i]) <= 1e-9 and abs(up - upper[i]) <= 1e-9

    # Schur-Horn: diagonal majorizes the spectrum inside the cone
    n, p = 4, 2
    rng = np.random.default_rng(206)
    Bm = _admissible_matrices(rng, trials, n, p)
    lam = jacobi_eigh(Bm)
    diag = np.diagonal(Bm, axis1=1, axis2=2)
    gap = sigma(p, diag) - sigma(p, lam)
    assert np.min(gap) >= -1e-10
    assert np.all(classify_batch(diag, ConeSpec(n, p)) >= 1)
    for i in range(100):
        ok, g = schur_horn_check(Bm[i], p)
        assert ok and abs(g - gap[i]) <= 1e-9

    # matrix midpoint concavity of sigma_p^{1/p}
    n, p = 4, 2
    rng = np.random.default_rng(207)
    B1 = _admissible_matrices(rng, trials, n, p)
    B2 = _admissible_matrices(rng, trials, n, p)
    ts = rng.uniform(0.0, 1.0, trials)

    def root(Bx):
        return np.maximum(sigma(p, jacobi_eigh(Bx)), 0.0) ** (1.0 / p)

    mid = (1.0 - ts)[:, None, None] * B1 + ts[:, None, None] * B2
    slack = root(mid) - (1.0 - ts) * root(B1) - ts * root(B2)
    assert np.min(slack) >= -1e-10
    for i in range(100):
        s = midpoint_concavity_check(np.eye(n), B1[i], B2[i], p, float(ts[i]))
        assert abs(s - slack[i]) <= 1e-9

    assert time.perf_counter() - t0 <= 60.0


# ---------------------------------------------------------------------------
# 3. Derivative formulas match central finite differences within 1e-6 on
#    1e3 simple-spectrum diagonals (gap >= 0.5); sparsity patterns exact.

def _sym_dirs(n):
    dirs = []
    for j in range(n):
        for k in range(j, n):
            E = np.zeros((n, n))
            E[j, k] += 0.5
            E[k, j] += 0.5
            dirs.append(E)
    return np.array(dirs)


def _check_sparsity(d, mu, n):
    order = np.argsort(mu, kind="stable")
    for q in range(n):
        s = order[q]
        mask = np.zeros((n, n), dtype=bool)
        mask[s, s] = True
        assert np.all(d.grad_lambda[q][~mask] == 0.0)
        assert d.grad_lambda[q][s, s] == 1.0
        assert np.all(d.grad_lambda_A[q][~mask] == 0.0)
        hmask = np.zeros((n, n, n, n), dtype=bool)
        for k in range(n):
            if k != s:
                hmask[s, k, s, k] = hmask[s, k, k, s] = True
                hmask[k, s, k, s] = hmask[k, s, s, k] = True
        assert np.all(d.hess_lambda[q][~hmask] == 0.0)
    offdiag = ~np.eye(n, dtype=bool)
    assert np.all(d.grad_sigma[offdiag] == 0.0)
    assert np.all(d.grad_sigma_A[offdiag] == 0.0)
    smask = np.zeros((n, n, n, n), dtype=bool)
    for j in range(n):
        for l in range(n):
            if l != j:
                smask[j, j, l, l] = smask[j, l, j, l] = smask[j, l, l, j] = True
    assert np.all(d.hess_sigma[~smask] == 0.0)


def test_03_derivative_formulas():
    h = 1e-4
    rng = np.random.default_rng(303)
    checked = 0
    while checked < 10**3:
        n = int(rng.integers(2, 6))
        gaps = 0.5 + rng.uniform(0.0, 1.0, n - 1)
        mu = rng.uniform(-2.0, 0.0) + np.concatenate([[0.0], np.cumsum(gaps)])
        mu = mu[rng.permutation(n)]
        p = int(rng.integers(1, n + 1))
        if sigma(p, np.sort(mu)) == 0.0:
            continue
        checked += 1
        d = spectral_derivs(p, mu)
        _check_sparsity(d, mu, n)

        D = np.diag(mu)
        Es = _sym_dirs(n)
        ndir = len(Es)

        # first derivatives in B
        stack = np.concatenate([D + h * Es, D - h * Es])
        lam = jacobi_eigh(stack)
        fd_l = (lam[:ndir] - lam[ndir:]) / (2 * h)            # (ndir, n)
        an_l = np.einsum("ajk,qjk->aq", Es, d.grad_lambda)
        assert np.max(np.abs(fd_l - an_l)) <= 1e-6
        sig = sigma(p, lam)
        fd_g = (sig[:ndir] - sig[ndir:]) / (2 * h)
        an_g = np.einsum("ajk,jk->a", Es, d.grad_sigma)
        assert np.max(np.abs(fd_g - an_g)) <= 1e-6

        # first derivatives in A (pencil side)
        Astack = np.concatenate([np.eye(n) + h * Es, np.eye(n) - h * Es])
        lamA = eigs((Astack, np.broadcast_to(D, Astack.shape)))
        fd_lA = (lamA[:ndir] - lamA[ndir:]) / (2 * h)
        an_lA = np.einsum("ajk,qjk->aq", Es, d.grad_lambda_A)
        assert np.max(np.abs(fd_lA - an_lA)) <= 1e-6
        sigA = sigma(p, lamA)
        fd_gA = (sigA[:ndir] - sigA[ndir:]) / (2 * h)
        an_gA = np.einsum("ajk,jk->a", Es, d.grad_sigma_A)
        assert np.max(np.abs(fd_gA - an_gA)) <= 1e-6

        # second derivatives in B: four-point stencil over direction pairs,
        # Richardson-extrapolated over step sizes h2 and 2*h2 to stay
        # clear of both truncation and cancellation error
        P = Es[:, None] + Es[None, :]      # (ndir, ndir, n, n)
        M = Es[:, None] - Es[None, :]

        def second_diffs(step):
            four = np.concatenate([
                (D + step * P).reshape(-1, n, n),
                (D + step * M).reshape(-1, n, n),
                (D - step * M).reshape(-1, n, n),
                (D - step * P).reshape(-1, n, n),
            ])
            lam4 = jacobi_eigh(four).reshape(4, ndir, ndir, n)
            hl = (lam4[0] - lam4[1] - lam4[2] + lam4[3]) / (4 * step * step)
            sig4 = sigma(p, lam4.reshape(-1, n)).reshape(4, ndir, ndir)
            hs = (sig4[0] - sig4[1] - sig4[2] + sig4[3]) / (4 * step * step)
            return hl, hs

        h2 = 1e-3
        hl_a, hs_a = second_diffs(h2)
        hl_b, hs_b = second_diffs(2 * h2)
        fd_hl = (4.0 * hl_a - hl_b) / 3.0
        fd_hs = (4.0 * hs_a - hs_b) / 3.0
        an_hl = np.einsum("ajk,qjklm,blm->abq", Es, d.hess_lambda, Es)
        assert np.max(np.abs(fd_hl - an_hl)) <= 1e-6
        an_hs = np.einsum("ajk,jklm,blm->ab", Es, d.hess_sigma, Es)
        assert np.max(np.abs(fd_hs - an_hs)) <= 1e-6


# ---------------------------------------------------------------------------
# 4. Concavity inequalities: residual >= -1e-9 on 1e5 hypothesis samples
#    (n in 3..5); find_threshold finite with zero violations for
#    (n=3,4; tau in {1/4,1/2}; eps=1; band [0.5,2]) at 1e4 trials;
#    total runtime <= 5 min.

def test_04_concavity_inequalities():
    t0 = time.perf_counter()
    combos = [
        (n, tau, a_frac)
        for n in (3, 4, 5)
        for tau in (0.0, 0.25, 0.5)
        for a_frac in (1.0 / 3.0, 2.0 / 3.0)
    ]
    per = 10**5 // len(combos) + 1
    total = 0
    for n, tau, a_frac in combos:
        beta = (1 - tau) / (1 + tau)
        a = beta + a_frac * (n - 1 - beta)
        rng = np.random.default_rng([404, n, int(tau * 100), int(a_frac * 3)])
        mus = sample_hypothesis_points(n, tau, 1.0, a, per, rng)
        res, _ = residual_batch(mus, "large_mu1", tau, 1.0, a=a)
        assert np.min(res) >= -1e-9, (n, tau, a, float(np.min(res)))
        total += len(res)
    assert total >= 10**5

    for n in (3, 4):
        for tau in (0.25, 0.5):
            out = find_threshold(n, 2, tau, 1.0, (0.5, 2.0), 10**4, seed=405)
            assert np.isfinite(out.M_hat), (n, tau)
            assert out.worst_residual >= -1e-10, (n, tau)
    assert time.perf_counter() - t0 <= 300.0


# ---------------------------------------------------------------------------
# 5. Subsolution construction: worst_slack >= 0 on the full (n, p,
#    phi_tilde, alpha) matrix at 129 nodes per axis; rank-one identity
#    agreement <= 1e-9 on 1e4 samples.

def test_05_subsolution_construction():
    def ball_u(pts):
        return 0.5 * (np.sum(pts**2, axis=-1) - 1.0)

    def zero(pts):
        return np.zeros(len(pts))

    for n in (2, 3):
        for p in range(1, min(n, 3) + 1):
            for phi_c in (0.05, 0.1):
                for alpha in (0.25, 0.5):
                    prob = BallProblem(
                        n=n, radius=1.0, resolution=129, p=p, alpha=alpha,
                        psi=zero,
                        phi_tilde=lambda pts, t, c=phi_c: np.full(len(pts), c),
                        u=ball_u,
                    )
                    out = construct(prob)
                    assert out.worst_slack >= 0.0, (n, p, phi_c, alpha)

    rng = np.random.default_rng(505)
    for _ in range(10**4):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, n + 1))
        lhs, rhs = rank_one_sigma(
            rng.uniform(-3, 3, n), rng.uniform(-2, 2),
            rng.uniform(-2, 2, n), p,
        )
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# 6. Key lemma: lhs - rhs >= -1e-9 on 1e3 hypothesis-verified random
#    configurations with n <= 4, p <= 3.

def test_06_key_lemma():
    rng = np.random.default_rng(606)
    verified = 0
    attempts = 0
    while verified < 10**3:
        attempts += 1
        assert attempts < 10**5, "hypothesis sampler starved"
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, min(n, 3) + 1))
        nu = rng.uniform(0.2, 3.0, n)
        if any(sigma(q, nu) <= 0 for q in range(1, p + 1)):
            continue
        cfg = KeyLemmaConfig(
            n=n, p=p, delta=rng.uniform(0.1, 1.0), R=60.0,
            a=rng.uniform(0.5, 2.0), mu=rng.uniform(-1.0, 4.0, n), nu=nu,
        )
        lhs, rhs, ok, _ = key_lemma_check(cfg, directions=2000, seed=attempts)
        if not ok:
            continue
        verified += 1
        assert lhs - rhs >= -1e-9, (cfg, lhs, rhs)


# ---------------------------------------------------------------------------
# 7. Solver: residual order >= 1.8 across h in {2pi/32, 2pi/64, 2pi/128};
#    Newton converges in <= 12 iterations from a 5% perturbation with every
#    accepted iterate admissible; runtime <= 2 min.

def test_07_solver():
    t0 = time.perf_counter()
    norms = []
    for size in (32, 64, 128):
        spec, grid, ustar = manufactured_problem((size, size), p=2)
        norms.append(np.max(np.abs(residual_field(ustar, spec).values)))
    for coarse, fine in zip(norms, norms[1:]):
        assert np.log2(coarse / fine) >= 1.8

    spec, grid, ustar = manufactured_problem((64, 64), p=2)
    rng = np.random.default_rng(707)
    bump = smooth_perturbation(grid, rng, 0.05 * np.max(np.abs(ustar.values)))
    u0 = GridFn(grid, ustar.values + bump)

    sol, trace = newton_solve(spec, u0, tol=1e-9)
    assert 0 < len(trace) <= 12
    # monotone damping on the gauge-projected residual
    rnorms = [rec["residual"] for rec in trace]
    assert all(b < a for a, b in zip(rnorms, rnorms[1:])) or len(rnorms) == 1
    assert rnorms[-1] <= 1e-9
    # accepted iterates are admissible by construction of the line search;
    # spot-check the final one through the public predicate
    assert admissible(sol, spec)[0]
    assert time.perf_counter() - t0 <= 120.0


# ---------------------------------------------------------------------------
# 8. Alexandrov: quadratic equality lhs/rhs in [0.98, 1.02] at 129^2; no
#    case of a 20-strong convex corpus violates the bound beyond 2%.

def _convex_corpus():
    cases = []
    rng = np.random.default_rng(808)
    for _ in range(10):
        X = rng.normal(size=(2, 2))
        M = X @ X.T
        # keep the condition number modest so the contact ellipse is
        # resolvable on the grid (thin ellipses are a quadrature artifact,
        # not a counterexample)
        M = M / np.trace(M) + 0.5 * np.eye(2)
        cases.append(lambda pts, M=M: np.einsum("ci,ij,cj->c", pts, M, pts))
    for m in (2, 3):
        cases.append(
            lambda pts, m=m: np.sum(pts**2, axis=-1) ** m + np.sum(pts**2, axis=-1)
        )
    cases.append(lambda pts: np.cosh(np.linalg.norm(pts, axis=-1)) - 1.0)
    cases.append(lambda pts: np.exp(np.sum(pts**2, axis=-1)) - 1.0)
    for c in (0.3, 0.7, 1.5):
        cases.append(lambda pts, c=c: c * np.sum(pts**2, axis=-1))
    cases.append(lambda pts: np.sum(pts**2, axis=-1) + 0.5 * pts[:, 0] ** 2)
    cases.append(lambda pts: np.sum(pts**4, axis=-1) + np.sum(pts**2, axis=-1))
    cases.append(
        lambda pts: np.sum(pts**2, axis=-1) + 0.2 * pts[:, 0] * pts[:, 1]
    )
    return cases


def test_08_alexandrov():
    prob = AlexandrovProblem(
        center=(0.0, 0.0), d=1.0, resolution=129,
        w=lambda pts: np.sum(pts**2, axis=-1), eps=0.9,
    )
    lhs, rhs, _ = alexandrov_check(prob)
    assert 0.98 <= lhs / rhs <= 1.02

    corpus = _convex_corpus()
    assert len(corpus) == 20
    theta = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    for i, w in enumerate(corpus):
        margin = float(np.min(w(ring)) - w(np.zeros((1, 2)))[0])
        assert margin > 0, i
        prob = AlexandrovProblem(
            center=(0.0, 0.0), d=1.0, resolution=129, w=w, eps=0.5 * margin,
        )
        # alexandrov_check asserts lhs <= rhs * 1.02 internally
        lhs, rhs, _ = alexandrov_check(prob, quad_tol=0.02)
        assert lhs <= rhs * 1.02 + 1e-12, i


# ---------------------------------------------------------------------------
# 9. Pseudo-solution sanity: with ubar = u and M2 >= delta2^n, no
#    supersolution violation.

def test_09_pseudo_solution_sanity():
    for p in (1, 2):
        spec, grid, ustar = manufactured_problem((32, 32), p=p)
        for delta2 in (0.2, 0.5, 1.0):
            for extra in (0.0, 0.5):
                cfg = PseudoCheckConfig(
                    delta1=0.1, M1=10.0, delta2=delta2,
                    M2=delta2**2 + extra, ubar=ustar,
                )
                rep = pseudo_check(ustar, cfg, spec)
                assert rep.super_violations == 0, (p, delta2, extra)


# ---------------------------------------------------------------------------
# 10. Determinism: every CLI subcommand reproduces byte-identical reports
#     under a fixed seed (modulo the wall-time field).

CLI_CASES = [
    ["identities", "--n", "3..4", "--trials", "200", "--seed", "17"],
    ["cone", "--n", "4", "--p", "2", "--trials", "100", "--seed", "17"],
    ["spectral-derivs", "--n", "4", "--p", "2", "--trials", "20", "--seed", "17"],
    ["concavity-fuzz", "--mode", "large_mu1", "--n", "3", "--a", "1.5",
     "--trials", "300", "--seed", "17"],
    ["find-m", "--n", "3", "--p", "2", "--tau", "0.25", "--trials", "200",
     "--seed", "17"],
    ["subsolution", "--n", "2", "--p", "2", "--resolution", "33"],
    ["key-lemma", "--n", "3", "--p", "2", "--trials", "20", "--seed", "17"],
    ["solve", "--manufactured", "32", "--seed", "17"],
    ["alexandrov", "--case", "quadratic", "--resolution", "65", "--eps", "0.9"],
    ["pseudo-check", "--size", "32"],
]


# find-m runs whose trials at the upper bracket M = 1e6 all lie in the open
# cone (exact rationals say so) with sigma_p tiny against sigma_p(|mu|):
# every trial there is admissible and checked
TINY_SIGMA_FIND_M = [
    ["find-m", "--n", "4", "--p", "3", "--tau", "0.5", "--eps", "0.001",
     "--sigma", "0.1:10", "--trials", "2000", "--seed", "42"],
    ["find-m", "--n", "5", "--p", "4", "--tau", "0.5", "--sigma", "0.01:100",
     "--trials", "1000", "--seed", "1"],
]


def _strict_json(path):
    """The report at path, parsed with NaN and Infinity refused."""
    def refuse(name):
        raise ValueError(f"{path}: non-finite number {name}")
    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=refuse)


@pytest.mark.filterwarnings("error")
def test_reports_are_strict_json(tmp_path):
    out = os.path.join(tmp_path, "report.json")
    for case in CLI_CASES:
        assert cli_main(case + ["--output", out]) == 0, case[0]
        assert _strict_json(out)["subcommand"] == case[0]
    for case in TINY_SIGMA_FIND_M:
        assert cli_main(case + ["--output", out]) == 0
        results = _strict_json(out)["results"]
        assert math.isfinite(results["M_hat"])
        M, _, admissible, _ = results["history"][0]
        assert M == 1e6 and admissible == int(case[case.index("--trials") + 1])


def _strip_walltime(path):
    with open(path, "rb") as fh:
        return b"\n".join(
            line for line in fh.read().split(b"\n")
            if b"wall_time_s" not in line
        )


def test_10_cli_determinism(tmp_path):
    for case in CLI_CASES:
        a = os.path.join(tmp_path, "a.json")
        b = os.path.join(tmp_path, "b.json")
        assert cli_main(case + ["--output", a]) == 0, case[0]
        assert cli_main(case + ["--output", b]) == 0, case[0]
        assert _strip_walltime(a) == _strip_walltime(b), case[0]
        with open(a) as fh:
            rep = json.load(fh)
        assert rep["subcommand"] == case[0]
        assert "config" in rep and "wall_time_s" in rep
