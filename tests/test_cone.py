"""Tests for Garding cone geometry and inequality families."""

import numpy as np
import pytest

from phessian.cone import (
    ConeSpec,
    classify,
    classify_batch,
    cone_distance,
    maclaurin_report,
    sample_admissible,
    tech_ineq_report,
)
from phessian.symfun import sigma


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


def test_classify_scale_invariance():
    rng = np.random.default_rng(5)
    spec = ConeSpec(4, 3)
    for _ in range(100):
        mu = rng.uniform(-3, 6, 4)
        base = classify(mu, spec).region
        for s in (1e-3, 0.5, 7.0, 1e4):
            assert classify(s * mu, spec).region == base


def test_cone_distance_hand_cases():
    assert cone_distance([-1.0, -1.0, -1.0], ConeSpec(3, 1)) == pytest.approx(
        1.0, abs=1e-9
    )
    assert cone_distance([2.0, 3.0, 4.0], ConeSpec(3, 3)) == 0.0
    # (-2, 1, 1) shifted by t: sigma_2 vanishes at the admissible branch root
    t = cone_distance([-2.0, 1.0, 1.0], ConeSpec(3, 2))
    assert sigma(2, np.array([-2.0, 1.0, 1.0]) + t) == pytest.approx(0.0, abs=1e-8)
    assert sigma(1, np.array([-2.0, 1.0, 1.0]) + t) > 0


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
    # at t ~ 1e6 and beyond adjacent floats are more than the bisection
    # tolerance apart; the search must still stop at an interior shift
    spec = ConeSpec(3, 2)
    mu = np.array([-1e7, 1.0, 1.0])
    t = cone_distance(mu, spec)
    assert classify(mu + t, spec).region == "interior"
    # sigma_2(mu + t) = (1 + t)(3t + 1 - 2e7)
    assert t == pytest.approx((2e7 - 1.0) / 3.0, rel=1e-9)
