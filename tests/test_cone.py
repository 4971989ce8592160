"""Tests for Garding cone geometry and inequality families."""

from itertools import product
from math import comb

import numpy as np
import pytest

from phessian import symfun
from phessian.cone import (
    ConeSpec,
    _region_codes,
    classify,
    classify_batch,
    cone_distance,
    maclaurin_report,
    require_cone,
    sample_admissible,
    tech_ineq_report,
)
from phessian.errors import AdmissibilityError, InputError
from phessian.symfun import sigma

from oracles import sigma_brute


def test_classify_hand_cases():
    assert classify([1.0, 1.0, 1.0], ConeSpec(3, 3)).region == "interior"
    assert classify([-1.0, 1.0, 1.0], ConeSpec(3, 2)).region == "outside"
    assert classify([0.0, 0.0, 1.0], ConeSpec(3, 2)).region == "boundary"
    assert classify([0.0, 1.0, 1.0], ConeSpec(3, 2)).region == "interior"


def test_classify_dimension_mismatch():
    with pytest.raises(ValueError, match="length"):
        classify([1.0, 2.0], ConeSpec(3, 2))


def test_cone_spec_validation():
    with pytest.raises(ValueError):
        ConeSpec(3, 4)
    with pytest.raises(ValueError):
        ConeSpec(3, 0)


@pytest.mark.parametrize("count", [0, -3])
def test_sample_admissible_rejects_an_empty_draw(count):
    with pytest.raises(InputError, match="count must be at least 1"):
        sample_admissible(3, 2, count, np.random.default_rng(0))


def test_classify_scale_invariance():
    rng = np.random.default_rng(5)
    spec = ConeSpec(4, 3)
    for _ in range(100):
        mu = rng.uniform(-3, 6, 4)
        base = classify(mu, spec).region
        for s in (1e-3, 0.5, 7.0, 1e4):
            assert classify(s * mu, spec).region == base


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e110, 1e200, 1e300])
def test_huge_entries_keep_their_codes(scale):
    # sigma_q and its band overflow past ~1e100; the verdict must still be
    # that of the unscaled vector, with no overflow warning
    rows = {
        (3, 3): [[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [0.0, 0.0, 0.0]],
        (3, 2): [[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [-1.0, 1.0, 1.0], [2.0, -1.0, 3.0]],
        (4, 1): [[1.0, -1.0, 2.0, -1.5], [1.0, -1.0, 2.0, -2.0], [-1.0, -1.0, 0.5, 0.5]],
    }
    for (n, p), mus in rows.items():
        spec = ConeSpec(n, p)
        mu = np.array(mus)
        want = classify_batch(mu, spec)
        assert set(want) == {0, 1, 2}
        np.testing.assert_array_equal(classify_batch(scale * mu, spec), want)
        for row, code in zip(scale * mu, want):
            assert classify(row, spec).region == ("outside", "boundary", "interior")[code]
        require_cone(scale * mu[want == 2], spec)
        k = int(np.log2(scale))
        for e in (k, -k):
            np.testing.assert_array_equal(cone_distance(np.ldexp(mu, e), spec),
                                          np.ldexp(cone_distance(mu, spec), e))
    # sigma_2(mu + t1) = 3t^2 - scale^2: the crossing Newton runs on mu
    # scaled by a power of two, so its finite root does not overflow
    mu, spec = scale * np.array([1.0, -1.0, 0.0]), ConeSpec(3, 2)
    t = cone_distance(mu, spec)
    assert t == pytest.approx(scale / np.sqrt(3.0), rel=1e-15)
    codes = classify_batch(mu + np.array([[1 - 1e-9], [1 + 1e-9]]) * t, spec)
    np.testing.assert_array_equal(codes, [0, 2])


def test_cone_distance_hand_cases():
    assert cone_distance([-1.0, -1.0, -1.0], ConeSpec(3, 1)) == pytest.approx(
        1.0, abs=1e-9
    )
    assert cone_distance([2.0, 3.0, 4.0], ConeSpec(3, 3)) == 0.0
    # (-2, 1, 1) shifted by t: sigma_2 vanishes at the admissible branch root
    t = cone_distance([-2.0, 1.0, 1.0], ConeSpec(3, 2))
    assert sigma(2, np.array([-2.0, 1.0, 1.0]) + t) == pytest.approx(0.0, abs=1e-8)
    assert sigma(1, np.array([-2.0, 1.0, 1.0]) + t) > 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cone_distance_at_tied_roots(n):
    # sigma_p(-1_n + t1) = C(n, p) (t - 1)^p: a p-fold root, where a slope
    # from the monomial form cancels to rounding noise near t = 1
    for p in range(2, n + 1):
        assert cone_distance(-np.ones(n), ConeSpec(n, p)) == pytest.approx(1.0, abs=1e-9)
    # sigma_3(mu + t1) = (t - 2)^2 (t + 1), a double root at 2
    assert cone_distance([-2.0, -2.0, 1.0], ConeSpec(3, 3)) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("n, p", [(7, 7), (5, 3), (5, 5)])
def test_tied_row_costs_its_batch_no_newton_pass(monkeypatch, n, p):
    # Newton converges only linearly onto -1_n's p-fold root; it starts
    # there, so the row settles at once instead of holding its batch
    passes, prefix_slope = [], symfun._prefix_slope

    def counted(*args):
        passes.append(None)
        return prefix_slope(*args)
    monkeypatch.setattr(symfun, "_prefix_slope", counted)
    spec = ConeSpec(n, p)
    mus = np.random.default_rng(9).uniform(-1.0, 10.0, (500, n))
    tied = np.concatenate([-np.ones((1, n)), mus[1:]])
    counts = []
    for batch in (mus, tied):
        passes.clear()
        t = cone_distance(batch, spec)
        counts.append(len(passes))
        if p == n:  # the start is the root: max(0, -min mu) exactly
            np.testing.assert_array_equal(t, np.maximum(0.0, -batch.min(axis=-1)))
    assert 0 < counts[1] <= counts[0]


def test_wrong_length_is_rejected():
    spec = ConeSpec(3, 2)
    for call in (classify_batch, cone_distance, require_cone):
        with pytest.raises(ValueError, match="length 3"):
            call(np.array([[1.0, -5.0, 2.0, 3.0]]), spec)


def test_cone_distance_shift_is_interior():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = rng.integers(2, 7)
        p = rng.integers(1, n + 1)
        spec = ConeSpec(n, p)
        mu = rng.uniform(-5, 5, n)
        t = cone_distance(mu, spec)
        shifted = mu + (t + 1e-8) * np.ones(n)
        assert classify(shifted, spec).region == "interior"


def test_boundary_verdict_sigma_signs():
    spec = ConeSpec(3, 2)
    v = classify([0.0, 0.0, 1.0], spec)
    assert abs(v.sigma_values[-1]) <= 1e-12
    assert all(s >= -1e-12 for s in v.sigma_values[:-1])


def test_maclaurin_hand_case():
    rep = maclaurin_report([1.0, 2.0, 3.0], ConeSpec(3, 2))
    assert rep[(2, 1, 1, 0)] == pytest.approx(2.0 - 11.0 / 6.0)
    assert rep[(2, 0, 1, 0)] == pytest.approx(4.0 - 11.0 / 3.0)


def test_maclaurin_equality_at_diagonal():
    for n, p in [(3, 2), (4, 3), (5, 5)]:
        rep = maclaurin_report(np.ones(n), ConeSpec(n, p))
        assert all(abs(s) <= 1e-12 for s in rep.values())


def test_maclaurin_random_nonnegative():
    rng = np.random.default_rng(13)
    for n, p in [(3, 2), (4, 2), (5, 3), (6, 4)]:
        mus = sample_admissible(n, p, 100, rng)
        for mu in mus:
            rep = maclaurin_report(mu, ConeSpec(n, p))
            assert min(rep.values()) >= -1e-10


def test_tech_ineq_hand_case():
    rep = tech_ineq_report([1.0, 2.0, 3.0], ConeSpec(3, 2))
    # mu_n sigma_{p-1}(mu|n) - (p/n) sigma_p = 9 - 22/3
    assert rep["top_minor"] == pytest.approx(9.0 - 2.0 / 3.0 * 11.0)
    assert rep["minor_positive"] > 0


def test_tech_ineq_symmetric_point():
    rep = tech_ineq_report(np.ones(4), ConeSpec(4, 2))
    assert rep["minor_chain_min_gap"] == pytest.approx(0.0, abs=1e-14)
    assert rep["minor_positive"] > 0


def test_tech_ineq_negative_first_entry():
    rep = tech_ineq_report([-0.2, 1.0, 3.0], ConeSpec(3, 2))
    # (ii): -0.2 > -(1/4)*4 = -1
    assert rep["min_entry"] == pytest.approx(-0.2 + 0.25 * 4.0)
    assert rep["min_entry"] > 0


def test_tech_ineq_preconditions():
    with pytest.raises(ValueError, match="sorted"):
        tech_ineq_report([3.0, 1.0, 2.0], ConeSpec(3, 2))
    with pytest.raises(ValueError, match="p >= 2"):
        tech_ineq_report([1.0, 2.0, 3.0], ConeSpec(3, 1))
    with pytest.raises(ValueError, match="open cone"):
        tech_ineq_report([-1.0, 1.0, 1.0], ConeSpec(3, 2))


def test_tech_ineq_random_strict():
    rng = np.random.default_rng(17)
    strict = [
        "partial_sum",
        "top_spread",
        "min_entry",
        "sigma_pm1_lower",
        "minor_positive",
    ]
    for n, p in [(3, 2), (4, 3), (5, 2), (6, 5)]:
        mus = sample_admissible(n, p, 100, rng)
        for mu in mus:
            rep = tech_ineq_report(np.sort(mu), ConeSpec(n, p))
            for name in strict:
                assert rep[name] > 0, (n, p, name)
            assert rep["minor_chain_min_gap"] >= -1e-12
            assert rep["top_minor"] >= -1e-10
            assert rep["trace_lower"] >= -1e-10
            assert rep["amgm_gap"] >= -1e-10


def test_superadditivity_of_sigma_root():
    rng = np.random.default_rng(19)
    for n, p in [(3, 2), (5, 3)]:
        mus = sample_admissible(n, p, 100, rng)
        nus = sample_admissible(n, p, 100, rng)
        for mu, nu in zip(mus, nus):
            lhs = sigma(p, mu + nu) ** (1.0 / p)
            rhs = sigma(p, mu) ** (1.0 / p) + sigma(p, nu) ** (1.0 / p)
            assert lhs >= rhs - 1e-10


def test_classify_batch_matches_scalar():
    rng = np.random.default_rng(23)
    spec = ConeSpec(4, 3)
    mus = rng.uniform(-4, 6, (200, 4))
    codes = classify_batch(mus, spec)
    names = {2: "interior", 1: "boundary", 0: "outside"}
    for mu, c in zip(mus, codes):
        assert classify(mu, spec).region == names[int(c)]


def test_region_codes_match_np_all_reference():
    def reference(sigs, tau):
        interior = np.all(sigs > tau, axis=-1)
        boundary = (np.abs(sigs[..., -1]) <= tau[..., -1]) & np.all(
            sigs >= -tau, axis=-1
        )
        return np.where(interior, 2, np.where(boundary, 1, 0))

    rng = np.random.default_rng(24)
    for p in range(1, 7):
        for batch in ((), (400,), (20, 30)):
            tau = rng.uniform(0.1, 2.0, batch + (p,))
            # exact ties at +-tau and 0 next to clear values of either sign,
            # clear positives often enough that every code occurs
            pick = rng.choice(5, batch + (p,), p=[0.1, 0.1, 0.1, 0.6, 0.1])
            sigs = np.choose(pick, [tau, -tau, np.zeros_like(tau),
                                    3.0 * tau, -3.0 * tau])
            got = _region_codes(sigs, tau)
            assert got.shape == batch
            if batch:
                assert set(np.unique(got)) == {0, 1, 2}
            np.testing.assert_array_equal(got, reference(sigs, tau), err_msg=f"p={p}")


def _outside_draws(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 8))
        p = int(rng.integers(1, n + 1))
        mu = rng.uniform(-5, 5, n)
        spec = ConeSpec(n, p)
        if classify(mu, spec).region == "outside":
            yield mu, spec


def test_cone_distance_is_minimal():
    # a shift 1e-6 short of cone_distance leaves mu outside the open cone
    checked = 0
    for mu, spec in _outside_draws(41, 300):
        t = cone_distance(mu, spec)
        assert t > 0
        assert classify(mu + (t - 1e-6), spec).region != "interior"
        checked += 1
    assert checked > 100


def test_cone_distance_batch_matches_rows():
    rng = np.random.default_rng(43)
    for n, p in [(2, 1), (3, 2), (4, 3), (5, 5), (7, 4)]:
        spec = ConeSpec(n, p)
        mus = rng.uniform(-5, 5, (3, 20, n))
        mus[0, :5] = np.abs(mus[0, :5])  # some rows already inside
        t = cone_distance(mus, spec)
        assert t.shape == (3, 20)
        for idx in np.ndindex(3, 20):
            assert t[idx] == cone_distance(mus[idx], spec)


def test_cone_distance_far_outside_terminates():
    # far out, where adjacent floats of t are 1e-9 apart, the shift is the
    # largest root of sigma_2(mu + t) = (1 + t)(3t + 1 - 2e7), and a shift
    # just past it is interior
    spec = ConeSpec(3, 2)
    mu = np.array([-1e7, 1.0, 1.0])
    t = cone_distance(mu, spec)
    assert t == pytest.approx((2e7 - 1.0) / 3.0, rel=1e-15)
    assert classify(mu + t * (1 + 1e-12), spec).region == "interior"


def _maclaurin_oracle(mu, p):
    """key -> (slack, scale) from subset-enumeration sigmas, one row."""
    n = len(mu)
    q = [sigma_brute(i, mu) / comb(n, i) for i in range(n + 1)]
    out = {}
    for j, k, l, m in product(range(n + 1), repeat=4):
        if k < j <= min(p + 1, n) and m < l <= min(p, j) and m <= k:
            lhs = q[j] / q[k]
            rhs = (q[l] / q[m]) ** ((j - k) / (l - m))
            out[(j, k, l, m)] = (rhs - lhs, max(1.0, abs(lhs), abs(rhs)))
    return out


def _tech_oracle(mu, p):
    """key -> (value, scale) of the technical inequalities at one sorted row,
    every sigma by subset enumeration."""
    n = len(mu)
    sp, spm1, spp1 = (sigma_brute(q, mu) for q in (p, p - 1, p + 1))
    minors = [sigma_brute(p - 1, np.delete(mu, j)) for j in range(n)]
    top = float(np.prod(mu[n - p + 1 :]))
    grad = [sp ** (1.0 / p - 1.0) * m / p for m in minors]
    amgm = n * float(np.prod(grad)) ** (1.0 / n)
    size = 1.0 + float(np.sum(np.abs(mu)))
    pref = sp ** (1.0 / p - 1.0)
    minor_const = 1.0 / (pref * minors[-1] * (pref * spm1) ** (p - 1))
    if mu[0] >= 0:
        mu1_const = 0.0
    else:
        mu1_const = -mu[0] / max(sp ** (1.0 / p), max(-spp1, 0.0) ** (1.0 / (p + 1)))
    return {
        "partial_sum": (float(np.sum(mu[: n - p + 1])), size),
        "top_spread": ((n - p) * mu[n - p] + mu[0], (n - p + 1) * size),
        "min_entry": (mu[0] + (n - p) / (p * (n - 1)) * float(np.sum(mu[1:])), size),
        "sigma_pm1_lower": (spm1 - top, max(1.0, abs(spm1), abs(top))),
        "minor_chain_min_gap": (
            min(minors[j] - minors[j + 1] for j in range(n - 1)),
            max(1.0, max(abs(m) for m in minors)),
        ),
        "minor_positive": (minors[-1], max(1.0, abs(minors[-1]))),
        "top_minor": (
            mu[-1] * minors[-1] - p / n * sp,
            max(1.0, abs(mu[-1] * minors[-1]), abs(sp)),
        ),
        "trace_lower": (sum(grad) - comb(n, p) ** (1.0 / p), max(1.0, sum(grad))),
        "amgm_gap": (sum(grad) - amgm, max(1.0, sum(grad))),
        "ratio_minor_constant": (minor_const, max(1.0, minor_const)),
        "ratio_mu1_constant": (mu1_const, max(1.0, mu1_const)),
    }


def test_batched_reports_match_brute_force_oracle():
    rng = np.random.default_rng(29)
    negative_first = 0
    for n in range(1, 8):
        for p in range(1, n + 1):
            spec = ConeSpec(n, p)
            mus = np.sort(sample_admissible(n, p, 12, rng), axis=1)
            mac = maclaurin_report(mus, spec)
            tech = tech_ineq_report(mus, spec) if p >= 2 else None
            for i, mu in enumerate(mus):
                expected = _maclaurin_oracle(mu, p)
                assert set(mac) == set(expected), (n, p)
                if tech is not None:
                    expected.update(_tech_oracle(mu, p))
                    assert set(tech) | set(mac) == set(expected), (n, p)
                    negative_first += mu[0] < 0
                for key, (want, scale) in expected.items():
                    got = (mac if key in mac else tech)[key][i]
                    assert abs(got - want) <= 1e-12 * scale, (n, p, key, got, want)
    assert negative_first > 20  # the ratio_mu1_constant branch is exercised


def test_batch_of_one_is_bit_identical_to_batch_row():
    rng = np.random.default_rng(31)
    for n in range(1, 11):
        for p in range(1, n + 1):
            spec = ConeSpec(n, p)
            mus = np.sort(sample_admissible(n, p, 9, rng), axis=1)
            reports = [maclaurin_report] + ([tech_ineq_report] if p >= 2 else [])
            for report in reports:
                batch = report(mus, spec)
                for i, mu in enumerate(mus):
                    single = report(mu, spec)
                    assert single.keys() == batch.keys()
                    for key, value in single.items():
                        assert type(value) is float
                        assert value == batch[key][i], (report.__name__, n, p, key)


def test_batched_reports_keep_leading_shape():
    rng = np.random.default_rng(37)
    spec = ConeSpec(5, 3)
    mus = np.sort(sample_admissible(5, 3, 12, rng), axis=1).reshape(3, 4, 5)
    for report in (maclaurin_report, tech_ineq_report):
        flat = report(mus.reshape(12, 5), spec)
        for key, value in report(mus, spec).items():
            assert value.shape == (3, 4)
            assert np.array_equal(value.ravel(), flat[key])


def test_require_cone_batch_names_first_bad_row():
    spec = ConeSpec(3, 2)
    mus = np.array([[1.0, 2.0, 3.0], [-5.0, 1.0, 1.0], [0.0, 0.0, 1.0],
                    [1.0, 1.0, 1.0]])
    require_cone(mus[[0, 3]], spec)
    with pytest.raises(AdmissibilityError) as info:
        require_cone(mus, spec)
    assert str(info.value) == f"mu = {mus[1]} is not in the open cone of order 2"
    assert np.array_equal(info.value.lam, mus[1])
    # the boundary row is the first failure of the closed cone only when the
    # outside row is gone
    with pytest.raises(AdmissibilityError, match="closed cone") as info:
        require_cone(mus[[0, 2, 1]], spec, name="lam", closed=True)
    assert str(info.value).startswith(f"lam = {mus[1]} ")
    require_cone(mus[[0, 2, 3]], spec, closed=True)
    with pytest.raises(AdmissibilityError) as info:
        require_cone(mus[[0, 2, 3]], spec)
    assert np.array_equal(info.value.lam, mus[2])
    with pytest.raises(ValueError, match="length 3"):
        require_cone(np.ones((4, 2)), spec)
    with pytest.raises(ValueError, match="length 3"):
        require_cone([1.0, 2.0], spec)


def test_batched_report_preconditions_cover_every_row():
    spec = ConeSpec(4, 2)
    mus = np.sort(sample_admissible(4, 2, 6, np.random.default_rng(41)), axis=1)
    unsorted = mus.copy()
    unsorted[4] = unsorted[4, ::-1]
    with pytest.raises(ValueError, match="sorted"):
        tech_ineq_report(unsorted, spec)
    outside = mus.copy()
    outside[5] = [-9.0, -1.0, 1.0, 2.0]
    for report in (maclaurin_report, tech_ineq_report):
        with pytest.raises(AdmissibilityError, match="open cone") as info:
            report(outside, spec)
        assert np.array_equal(info.value.lam, outside[5])
    with pytest.raises(ValueError, match="p >= 2"):
        tech_ineq_report(mus, ConeSpec(4, 1))
