"""Cone, concavity, identity, inequality and key-lemma verdicts against
exact rational signs, and the inputs a fixed zero band once misclassified."""

import dataclasses
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest

import phessian.concavity as concavity
from phessian import symfun
from phessian.cone import (
    ConeSpec, classify_batch, cone_distance, maclaurin_report, require_cone,
    sample_admissible, tech_ineq_report, verdict,
)
from phessian.solver import EquationSpec, GridFn, TorusGrid, newton_solve
from phessian.spectral import classify_matrices, require_matrix_cone
from phessian.subsolution import KeyLemmaConfig, key_lemma_check, key_lemma_sweep
from phessian.symfun import identity_residuals

from oracles import (
    concavity_form_exact, exact_region, matrix_sigma_exact, rotate, sigma_exact,
    subset_sigmas, to_decimal, with_sigma,
)


def batches(rng, n, p, rows):
    """The four kinds of test vectors: uniform, log-spread over 1e-7..1e7
    (all positive, and with random signs), small integers with exact zeros,
    and sigma_p near 0 (a last entry solving sigma_p = 0, or the shift of
    cone_distance)."""
    uniform = rng.uniform(-5.0, 5.0, (rows, n))
    spread = 10.0 ** rng.uniform(-7.0, 7.0, (rows, n))
    spread[rows // 2 :] *= rng.choice([-1.0, 1.0], (rows - rows // 2, n))
    integers = rng.integers(-3, 4, (rows, n)).astype(float)
    head = rng.uniform(-1.0, 3.0, (rows, n - 1))
    near = with_sigma(head, p, 0.0) if n > 1 else np.zeros((rows, 1))
    shifted = uniform + cone_distance(uniform, ConeSpec(n, p))[:, None]
    return np.concatenate([uniform, spread, integers, near, shifted])


@pytest.mark.parametrize("n", range(1, 8))
def test_vector_verdicts_never_contradict_exact_signs(n):
    rng = np.random.default_rng(270 + n)
    for p in range(1, n + 1):
        mu = batches(rng, n, p, 60)
        codes = classify_batch(mu, ConeSpec(n, p))
        exact = np.array([exact_region(sigma_exact(row), p) for row in mu])
        decided = codes != 1
        np.testing.assert_array_equal(codes[decided], exact[decided], err_msg=f"p={p}")
        # every all-positive row is interior, however spread
        assert np.all(codes[60:90] == 2), p


@pytest.mark.parametrize("d", range(1, 8))
def test_matrix_verdicts_never_contradict_exact_signs(d):
    # the exact signs are those of the rotated float matrix itself: its
    # characteristic polynomial in rationals
    rng = np.random.default_rng(280 + d)
    for p in range(1, d + 1):
        lam = batches(rng, d, p, 8)
        M = np.stack([rotate(rng, row) for row in lam])
        codes, _ = classify_matrices(M, ConeSpec(d, p))
        regions = np.array([exact_region(matrix_sigma_exact(m), p) for m in M])
        decided = codes != 1
        np.testing.assert_array_equal(codes[decided], regions[decided], err_msg=f"p={p}")


SPREAD_ROWS = [[1e-3, 2e-3, 1e6], [1e-7, 1e-7, 1.0]]


def test_spread_positive_vectors_are_interior():
    spec = ConeSpec(3, 3)
    np.testing.assert_array_equal(classify_batch(SPREAD_ROWS, spec), [2, 2])
    require_cone(np.array(SPREAD_ROWS), spec)
    sigmas = require_matrix_cone(np.stack([np.diag(row) for row in SPREAD_ROWS]), 3)
    assert np.all(sigmas > 0)


@pytest.mark.parametrize("c", [1e-7, 1e-9])
def test_small_conformal_constant_is_solved_at_once(c):
    # sigma_2^{1/2}(lam(c I + D^2 u)) = c is solved by u = 0
    grid = TorusGrid((16, 16))
    spec = EquationSpec(p=2, A_field=("conformal", c), rhs=("constant", c))
    sol, trace = newton_solve(spec, GridFn(grid, np.zeros(grid.sizes)), tol=1e-9)
    assert trace == []
    np.testing.assert_array_equal(sol.values, 0.0)


def find_m_rows(n, p, tau, eps, band, seed):
    """The checked trials of find_threshold's search at M = eps, 64, 1e3
    and 1e6, 300 trials each."""
    shapes, targets, tops = concavity._draw_trials(n, p, band, 300, seed)
    rows = []
    for M in (eps, 64.0, 1e3, 1e6):
        mu, checked = concavity._trial_points(shapes, targets, tops, M, p)
        rows.append(mu[checked])
    return np.concatenate(rows)


def sorted_admissible(n, p, seed):
    """300 sorted rows of sample_admissible."""
    return np.sort(sample_admissible(n, p, 300, np.random.default_rng(seed)), axis=1)


def crossing_rows(rng, n, p, tau):
    """small_mu1 rows bisected onto the zero of their residual: mu_n is
    raised until lam turns positive, and both floats of the last bracket
    are kept, so the exact signs of lambda_min(Q) are mixed."""
    mu = np.sort(sample_admissible(n, p, 100, rng), axis=1)
    mu = mu[concavity.residual_batch(mu, "small_mu1", tau, 1.0, p=p)[0] < 0]
    lo, hi = np.zeros(len(mu)), np.full(len(mu), 1e3)

    def raised(t):
        out = mu.copy()
        out[:, -1] += t
        return out

    for _ in range(80):
        mid = 0.5 * (lo + hi)
        held = concavity.residual_batch(raised(mid), "small_mu1", tau, 1.0, p=p)[0] > 0
        lo, hi = np.where(held, lo, mid), np.where(held, mid, hi)
    keep = hi < 1e3
    return np.concatenate([raised(lo)[keep], raised(hi)[keep]])


def near_boundary_rows(rng, rows):
    """Sorted rows (-a, b, c), a < b < 2a, a hair inside Gamma_2: c sits
    1e-7..1e-5 relatively above ab / (b - a), where sigma_2 = bc - a(b + c)
    vanishes, so sigma_2(|mu|) / sigma_2 is near 1e6 and so is the rounding
    of sigma_2, and of Q, relative to their values."""
    a = rng.uniform(1.0, 10.0, rows)
    b = a * rng.uniform(1.1, 1.9, rows)
    c = a * b / (b - a) * (1.0 + 10.0 ** rng.uniform(-7.0, -5.0, rows))
    return np.stack([-a, b, c], axis=1)


# name -> (rows, mode, tau, eps, parameters)
CONCAVITY_BATCHES = {
    "near_boundary": lambda: (near_boundary_rows(np.random.default_rng(293), 40),
                              "small_mu1", 0.25, 1.0, {"p": 2}),
    # the benchmark's concavity-fuzz rows
    "large_mu1": lambda: (concavity.sample_hypothesis_points(
        5, 0.0, 1.0, 2.5, 1000, np.random.default_rng([1, 5])),
        "large_mu1", 0.0, 1.0, {"a": 2.5}),
    "find_m_readme": lambda: (find_m_rows(3, 2, 0.5, 1.0, (0.5, 2.0), 42),
                              "small_mu1", 0.5, 1.0, {"p": 2}),
    "find_m_tiny_sigma_4": lambda: (find_m_rows(4, 3, 0.5, 0.001, (0.1, 10.0), 42),
                                    "small_mu1", 0.5, 0.001, {"p": 3}),
    "find_m_tiny_sigma_5": lambda: (find_m_rows(5, 4, 0.5, 1.0, (0.01, 100.0), 1),
                                    "small_mu1", 0.5, 1.0, {"p": 4}),
    "small_mu1": lambda: (sorted_admissible(5, 2, 290), "small_mu1", 0.25, 1.0, {"p": 2}),
    "theorem": lambda: (sorted_admissible(4, 3, 291), "theorem", 0.25, 1.0, {}),
    "crossing": lambda: (crossing_rows(np.random.default_rng(292), 6, 2, 0.25),
                         "small_mu1", 0.25, 1.0, {"p": 2}),
}


@pytest.mark.parametrize("batch", CONCAVITY_BATCHES)
def test_concavity_verdicts_never_contradict_exact_signs(batch):
    # lambda_min(Q) > 0 exactly when lam(Q) lies in Gamma_n, with Q formed
    # in rationals from the float rows.  Every crossing row is checked, and
    # their exact signs are mixed; of the other batches, the 40 decided rows
    # nearest their bound.
    mu, mode, tau, eps, kw = CONCAVITY_BATCHES[batch]()
    n = mu.shape[-1]
    lam, bound = concavity.residual_batch(mu, mode, tau, eps, **kw)
    r, c, weight = concavity.validate_mode(n, mode, tau, eps, **kw)
    if batch == "crossing":
        rows = np.arange(len(mu))
    else:
        rows = np.flatnonzero(np.abs(lam) > bound)
        assert rows.size
        rows = rows[np.argsort(np.abs(lam[rows]) / bound[rows])[:40]]
    exact = np.array([
        exact_region(matrix_sigma_exact(concavity_form_exact(row, r, c, weight, tau, eps)), n)
        for row in mu[rows]
    ])
    held, violated = lam[rows] > bound[rows], lam[rows] < -bound[rows]
    assert np.all(exact[held] == 2) and np.all(exact[violated] == 0)
    if batch == "crossing":
        assert 0 < np.count_nonzero(exact == 2) < len(rows)


def test_concavity_bound_covers_the_forming_error():
    # By Weyl, lam = lambda_min(A), A the computed D Q D, is within
    # EIGH_ROUNDING |A|_F + |A - D Q D|_F of lambda_min(D Q D), Q the exact
    # form of the float row and D the computed scaling: the bound must
    # cover both, the second taken in rationals.  On these rows the
    # forming error is far above the eigensolver's allowance, so only the
    # bound's 2 g |D Qa D|_F term covers it
    from fractions import Fraction

    from phessian.spectral import EIGH_ROUNDING

    mu, mode, tau, eps, kw = CONCAVITY_BATCHES["near_boundary"]()
    n = mu.shape[-1]
    lam, bound = concavity.residual_batch(mu, mode, tau, eps, **kw)
    r, c, weight = concavity.validate_mode(n, mode, tau, eps, **kw)
    Q, _ = concavity._form(mu, r, c, weight, tau, eps)
    # residual_batch's own scaling and product, bit for bit
    diag = np.abs(np.diagonal(Q, axis1=-2, axis2=-1))
    D = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
    A = D[..., :, None] * D[..., None, :] * Q
    eigh = EIGH_ROUNDING * np.sqrt(np.einsum("...jk,...jk->...", A, A))
    beyond = 0
    for row, Ai, Di, e, b in zip(mu, A, D, eigh, bound):
        Qx = concavity_form_exact(row, r, c, weight, tau, eps)
        Dx = [Fraction(float(x)) for x in Di]
        err2 = sum((Fraction(float(Ai[j, k])) - Dx[j] * Dx[k] * Qx[j][k]) ** 2
                   for j in range(n) for k in range(n))
        slack = Fraction(float(b)) - Fraction(float(e))
        assert slack > 0 and slack * slack >= err2
        beyond += err2 > Fraction(float(e)) ** 2
    assert beyond > len(mu) // 2


# ---------------------------------------------------------------------------
# identities, Maclaurin and technical inequalities, key lemma: every value
# lies within its bound of the exact value at the float inputs, computed by
# subset enumeration in rationals (Decimal at 60 digits where a root or a
# fractional power enters), and no verdict contradicts the exact sign

def identity_value(name, p, mu):
    """The exact common value of both sides of an identity at mu."""
    n, s = len(mu), subset_sigmas(mu)

    def sig(q):
        return s[q] if 0 <= q <= n else 0

    if name.startswith("recurrence") or name == "expansion":
        return sig(p)
    if name == "minor_sum":
        return (n - p) * sig(p)
    if name == "weighted_minor_sum":
        return (p + 1) * sig(p + 1)
    if name == "square_weighted_minor_sum":
        return sig(1) * sig(p + 1)
    a, b = (int(t) - 1 for t in name.split("_")[2:])
    pair = subset_sigmas(mu, (a, b))
    return (subset_sigmas(mu, (a,))[p - 1]
            + Fraction(float(mu[a])) * (pair[p - 2] if p >= 2 else 0))


@pytest.mark.parametrize("n", range(1, 7))
def test_identity_sides_lie_within_their_bound(n):
    rng = np.random.default_rng(300 + n)
    for p in range(1, n + 1):
        mu = batches(rng, n, p, 4 if n == 6 else 8)
        residual, bound = identity_residuals(p, mu)
        sides = symfun._identity_sides(p, mu, list(range(1, n + 1)))
        assert sides.keys() == residual.keys()
        for name, (lhs, rhs) in sides.items():
            counts, _, _ = verdict(bound[name] - residual[name], 0.0)
            assert counts["violated"] == 0, (n, p, name)
            for row, l, r, b in zip(mu, lhs, rhs, bound[name]):
                x = identity_value(name, p, row)
                assert abs(Fraction(l) - x) + abs(Fraction(r) - x) <= Fraction(b), (
                    n, p, name, row)


def maclaurin_exact(mu, key):
    """(sign, Decimal value) of the exact Maclaurin slack of key at mu: the
    sign from integer powers, (N_l/N_m)^a against (N_j/N_k)^b."""
    n, s = len(mu), subset_sigmas(mu)
    N = [s[q] / comb(n, q) for q in range(n + 1)]
    j, k, l, m = key
    x, y, a, b = N[l] / N[m], N[j] / N[k], j - k, l - m
    sign = 1 if y <= 0 else (x**a > y**b) - (x**a < y**b)
    return sign, to_decimal(x) ** (Decimal(a) / Decimal(b)) - to_decimal(y)


def tech_exact(mu, p, key):
    """(sign, Decimal value) of the exact technical slack key at sorted mu;
    trace_lower and amgm_gap take their signs from integer powers."""
    n = len(mu)
    x = [Fraction(float(v)) for v in mu]
    s = subset_sigmas(mu)
    m = [subset_sigmas(mu, (j,))[p - 1] for j in range(n)]
    if key in ("trace_lower", "amgm_gap"):
        root = [to_decimal(v) for v in (s[p], sum(m))]
        terms = root[0] ** (Decimal(1) / p - 1) / p
        if key == "trace_lower":
            sign = (sum(m) / p) ** p - comb(n, p) * s[p] ** (p - 1)
            value = terms * root[1] - Decimal(comb(n, p)) ** (Decimal(1) / p)
        else:
            sign = (sum(m) / n) ** n - prod(m)
            value = terms * (root[1] - n * to_decimal(prod(m)) ** (Decimal(1) / n))
        return (sign > 0) - (sign < 0), value
    value = {
        "partial_sum": sum(x[: n - p + 1]),
        "top_spread": (n - p) * x[n - p] + x[0],
        "min_entry": x[0] + Fraction(n - p, p * (n - 1)) * sum(x[1:]),
        "sigma_pm1_lower": s[p - 1] - prod(x[n - p + 1:]),
        "minor_chain_min_gap": min(m[j] - m[j + 1] for j in range(n - 1)),
        "minor_positive": m[-1],
        "top_minor": x[-1] * m[-1] - Fraction(p, n) * s[p],
    }[key]
    return (value > 0) - (value < 0), to_decimal(value)


def rounding_level_rows(rng, n, rows):
    """Sorted rows at which the Maclaurin and technical slacks vanish, or
    nearly: c 1_n, where every Maclaurin slack and the minor gaps, top_minor,
    trace_lower and amgm_gap are exactly 0, and 1_n plus noise of 1e-9."""
    equal = np.outer([1.0, 3.0, 0.1, 1e-3], np.ones(n))
    noisy = np.sort(1.0 + 1e-9 * rng.uniform(-1.0, 1.0, (rows, n)), axis=1)
    return np.concatenate([equal, noisy])


def near_boundary(rng, n, p, rows):
    """Sorted rows a relative 1e-7..1e-5 inside the cone of order p past
    cone_distance: sigma_p is small against sigma_p(|mu|), so its rounding,
    carried through the quotients and powers, dominates the bounds."""
    mu = rng.uniform(-1.0, 10.0, (rows, n))
    mu += (cone_distance(mu, ConeSpec(n, p))
           + 10.0 ** rng.uniform(-7.0, -5.0, rows) * np.max(np.abs(mu), axis=1))[:, None]
    return np.sort(mu[classify_batch(mu, ConeSpec(n, p)) == 2], axis=1)


def check_rows(value, bound, exact):
    """No verdict contradicts the exact sign, and each value lies within its
    bound of the exact one; returns the number of rows that hold."""
    counts, _, _ = verdict(value, bound)
    held = 0
    for v, b, (sign, x) in zip(value, bound, exact):
        assert abs(Decimal(float(v)) - x) <= Decimal(float(b)), (v, b, x)
        assert not (v > b and sign <= 0) and not (v < -b and sign >= 0), (v, b, sign)
        held += v > b
    assert held == counts["held"]
    return held


@pytest.mark.parametrize("n, p", [(2, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 5), (6, 4)])
def test_cone_report_bounds_never_contradict_exact_signs(n, p):
    rng = np.random.default_rng(310 + 10 * n + p)
    sampled = sorted_admissible(n, p, 320 + n)[:30]
    level = np.concatenate([rounding_level_rows(rng, n, 20), near_boundary(rng, n, p, 20)])
    spec = ConeSpec(n, p)
    with localcontext() as ctx:
        ctx.prec = 60
        reports = [maclaurin_report] + ([tech_ineq_report] if p >= 2 else [])
        for report in reports:
            for mu, decided in ((sampled, True), (level, False)):
                slack, bound = report(mu, spec)
                for key, b in bound.items():
                    exact = [maclaurin_exact(row, key) if report is maclaurin_report
                             else tech_exact(row, p, key) for row in mu]
                    held = check_rows(slack[key], b, exact)
                    # the sampled rows are far from equality: all decided
                    # (top_minor at p = n is 0 for every vector); at the
                    # rounding level Maclaurin's are not
                    if decided:
                        assert held == sum(sign > 0 for sign, _ in exact), (key, held)
                    elif report is maclaurin_report:
                        assert held < len(mu), (key, held)
                    # c 1_n: an exact 0 is never decided
                    zero = [row for row, (sign, _) in enumerate(exact[:4]) if sign == 0]
                    assert decided or not np.any(np.abs(slack[key][zero]) > b[zero])


def key_lemma_exact(cfg):
    """lhs - rhs of the key lemma at cfg in Decimal at the context's
    precision: g and f from subset sigmas, |mu - delta 1| from a root."""
    n, p = cfg.n, cfg.p
    s = subset_sigmas(cfg.nu)
    m = [to_decimal(subset_sigmas(cfg.nu, (j,))[p - 1]) for j in range(n)]
    sp = to_decimal(s[p])
    f = sp ** (Decimal(1) / p)
    g = [sp ** (Decimal(1) / p - 1) * mj / p for mj in m]
    mu, nu = ([Decimal(float(v)) for v in x] for x in (cfg.mu, cfg.nu))
    delta, R, a = (Decimal(float(v)) for v in (cfg.delta, cfg.R, cfg.a))
    norm = sum((v - delta) ** 2 for v in mu).sqrt()
    lhs = sum(gj * (u - v) for gj, u, v in zip(g, mu, nu))
    return lhs - (delta * sum(g) - (R + norm) * min(g) + a - f)


def key_lemma_configs(rng, n, p, count):
    """The CLI's draws, and as many again with a set so that lhs = rhs up
    to rounding: their exact signs are mixed."""
    cfgs = [KeyLemmaConfig(n=n, p=p, delta=rng.uniform(0.1, 1.0), R=60.0,
                           a=rng.uniform(0.5, 2.0), mu=rng.uniform(-1.0, 4.0, n),
                           nu=rng.uniform(0.2, 3.0, n)) for _ in range(count)]
    level = []
    for cfg in cfgs:
        lhs, rhs, _, _, _ = key_lemma_check(cfg, directions=1)
        a = cfg.a + lhs - rhs
        if a > 0:
            level.append(dataclasses.replace(cfg, a=a))
    return cfgs, level


@pytest.mark.parametrize("n, p", [(2, 1), (3, 2), (4, 3)])
def test_key_lemma_bound_never_contradicts_exact_signs(n, p):
    cfgs, level = key_lemma_configs(np.random.default_rng(330 + n), n, p, 40)
    assert len(level) > 10
    with localcontext() as ctx:
        ctx.prec = 60
        for batch, decided in ((cfgs, True), (level, False)):
            rows = key_lemma_sweep(batch, 1, range(len(batch)))
            slack = np.array([lhs - rhs for lhs, rhs, _, _, _ in rows])
            bound = np.array([row[4] for row in rows])
            exact = [key_lemma_exact(cfg) for cfg in batch]
            held = check_rows(slack, bound, [((x > 0) - (x < 0), x) for x in exact])
            assert held == len(batch) if decided else held < len(batch)
