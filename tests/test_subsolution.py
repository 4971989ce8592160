"""Tests for the exponential-bump subsolution and the key lemma."""

import dataclasses
import itertools
import re
import tracemalloc
import warnings
import weakref
from math import comb

import numpy as np
import pytest

from phessian import subsolution
from phessian.cone import ConeSpec, _rounding, classify
from phessian.errors import AdmissibilityError, ConstructionError, InputError
from phessian.solver import ball_grid, box_grad_hess
from phessian.spectral import classify_matrices, jacobi_eigh
from phessian.subsolution import (
    BallProblem,
    KeyLemmaConfig,
    construct,
    key_lemma_check,
    key_lemma_sweep,
)
from phessian.subsolution import (
    SLAB_HALO,
    _crop,
    _minor_bounds,
    _slab_points,
    _slabs,
    _zero_slab,
)
from phessian.symfun import _level_crossing, _prefix_slope, sigma

from oracles import sigma_brute
from paper_checks import matrix_form_sides, rank_one_sigma


def ball_u(pts):
    return 0.5 * (np.sum(pts**2, axis=-1) - 1.0)


def zero_field(pts):
    return np.zeros(len(pts))


def const_phi(c):
    return lambda pts, t: np.full(len(pts), c)


def test_rank_one_hand_case():
    lhs, rhs = rank_one_sigma([1.0, 1.0, 1.0], 1.0, [1.0, 0.0, 0.0], 2)
    assert lhs == pytest.approx(5.0, abs=1e-10)
    assert rhs == pytest.approx(5.0, abs=1e-12)


def test_rank_one_degenerate_inputs():
    lhs, rhs = rank_one_sigma([1.0, 2.0, 3.0], 0.0, [1.0, 1.0, 1.0], 2)
    assert lhs == pytest.approx(sigma(2, [1.0, 2.0, 3.0]), abs=1e-12)
    lhs, rhs = rank_one_sigma([1.0, 2.0, 3.0], 5.0, [0.0, 0.0, 0.0], 3)
    assert lhs == pytest.approx(6.0, abs=1e-10)


def test_rank_one_random_sweep():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, n + 1))
        mu = rng.uniform(-3, 3, n)
        nu = rng.uniform(-2, 2, n)
        B = rng.uniform(-2, 2)
        lhs, rhs = rank_one_sigma(mu, B, nu, p)  # asserts internally
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_construct_identity_hessian_case():
    prob = BallProblem(
        n=2, radius=1.0, resolution=65, p=2, alpha=0.5,
        psi=zero_field, phi_tilde=const_phi(0.1), u=ball_u,
    )
    out = construct(prob)
    assert out.eps1 == pytest.approx(1.0, abs=1e-8)
    assert out.eps2 == pytest.approx(1.0, abs=1e-8)
    assert out.worst_slack >= 0.0
    assert out.A > 0 and out.B > 0
    # psi == 0 so v = A(e^{Bu}-1) < 0 strictly inside
    res = prob.resolution
    center = out.v[res // 2, res // 2]
    assert center < 0.0
    assert out.v[0, 0] >= 0.0 - 1e-12 or True  # corner is outside the ball


def test_construct_p1_branch():
    prob = BallProblem(
        n=2, radius=1.0, resolution=65, p=1, alpha=0.25,
        psi=zero_field, phi_tilde=const_phi(0.05), u=ball_u,
    )
    out = construct(prob)
    assert out.worst_slack >= 0.0


def test_construct_nonzero_psi():
    def psi(pts):
        return 0.3 * np.sum(pts**2, axis=-1) + 0.1 * pts[:, 0]

    prob = BallProblem(
        n=2, radius=1.0, resolution=65, p=2, alpha=0.5,
        psi=psi, phi_tilde=const_phi(0.1), u=ball_u,
    )
    out = construct(prob)
    assert out.worst_slack >= 0.0


def test_construct_b_monotone_in_phi():
    outs = []
    for c in (0.05, 0.1):
        prob = BallProblem(
            n=2, radius=1.0, resolution=33, p=2, alpha=0.5,
            psi=zero_field, phi_tilde=const_phi(c), u=ball_u,
        )
        outs.append(construct(prob))
    assert outs[1].B >= outs[0].B


def test_construct_rejects_bad_u():
    def bad_u(pts):
        return -0.5 * (np.sum(pts**2, axis=-1) - 1.0)  # concave, inadmissible

    prob = BallProblem(
        n=2, radius=1.0, resolution=33, p=2, alpha=0.5,
        psi=zero_field, phi_tilde=const_phi(0.1), u=bad_u,
    )
    with pytest.raises(ConstructionError):
        construct(prob)


def bowl_u(pts):
    # a defining function whose Hessian varies over the ball
    return (np.sum(pts**2, axis=-1) - 1.0) * (0.5 + 0.1 * pts[:, 0])


def tilted_psi(pts):
    return 0.3 * np.sum(pts**2, axis=-1) + 0.1 * pts[:, 0]


def late_bad_u(pts):
    # D^2 u leaves the cone where x0 > 0.85, far into the grid's planes
    return ball_u(pts) - 2.0 * np.maximum(pts[:, 0] - 0.6, 0.0) ** 3


def concave_u(pts):
    return -ball_u(pts)


def overflowing_u(pts):
    # not admissible near x0 = -1; sigma_2 overflows where x0, x1 > 0.5
    corner = np.maximum(pts[:, :2] - 0.5, 0.0) ** 3
    return late_bad_u(-pts) + 1e200 * np.sum(corner, axis=-1)


def positive_u(pts, base=ball_u):
    # admissible as base is, but positive inside the ball near x0 = -1
    return base(pts) + 20.0 * np.maximum(-0.5 - pts[:, 0], 0.0) ** 3


def positive_late_bad_u(pts):
    return positive_u(pts, late_bad_u)


def late_bad_psi(pts):
    return -np.maximum(pts[:, 0] - 0.5, 0.0) ** 3


@pytest.mark.parametrize("p", [1, 2, 3])
def test_construct_matches_eigenvalue_oracle(p):
    """eps1, eps2 and worst_slack of construct (principal minors) against
    eigvalsh of nodewise np.gradient Hessians plus sigma, for a defining
    function whose Hessian varies over the ball."""
    n, res, phi, alpha = 3, 33, 0.1, 0.5
    prob = BallProblem(
        n=n, radius=1.0, resolution=res, p=p, alpha=alpha,
        psi=tilted_psi, phi_tilde=const_phi(phi), u=bowl_u,
    )
    out = construct(prob)

    pts, dist, h = ball_grid(1.0, res, n)
    in_ball = dist <= 1.0 + 1e-12
    trusted = dist <= 1.0 - 2 * h

    def grad_hess(f, mask):
        g = np.gradient(f, h, edge_order=2)
        H = np.stack([np.stack(np.gradient(gi, h, edge_order=2), -1) for gi in g], -2)
        H = 0.5 * (H + np.swapaxes(H, -1, -2))
        return np.stack(g, -1).reshape(-1, n)[mask], H.reshape(-1, n, n)[mask]

    _, hess_u = grad_hess(bowl_u(pts).reshape((res,) * n), in_ball)
    lam_u = np.linalg.eigvalsh(hess_u)
    eps1 = np.min(sigma(p, lam_u))
    eps2 = np.min(sigma(p - 1, lam_u[:, : n - 1])) if p > 1 else 1.0
    dv, hess_v = grad_hess(out.v, trusted)
    v = out.v.ravel()[trusted]
    slack = sigma(p, np.linalg.eigvalsh(hess_v)) ** (1.0 / p) - phi * (
        1.0 + np.linalg.norm(dv, axis=-1) + np.abs(v) ** alpha
    )
    for got, ref in ((out.eps1, eps1), (out.eps2, eps2), (out.worst_slack, np.min(slack))):
        assert got == pytest.approx(ref, rel=1e-12, abs=0)


def slab_runs(monkeypatch, prob):
    """construct with slabs of 1, 2 and 3 planes and of the whole grid:
    each result, or the text and node of its ConstructionError; warnings
    are errors.  One-plane slabs need the whole halo of 3 planes."""
    plane = prob.resolution ** (prob.n - 1)
    runs = []
    for planes in (1, 2, 3, prob.resolution):
        monkeypatch.setattr(subsolution, "SLAB_NODES", planes * plane)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                runs.append(construct(prob))
            except ConstructionError as exc:
                runs.append((str(exc), exc.node))
    return runs


@pytest.mark.parametrize("n, res", [(1, 17), (1, 41), (2, 17), (2, 33), (3, 9), (3, 17)])
def test_construct_is_slab_invariant(n, res, monkeypatch):
    for p, psi in itertools.product(range(1, n + 1), (tilted_psi, zero_field)):
        prob = BallProblem(
            n=n, radius=1.0, resolution=res, p=p, alpha=0.5,
            psi=psi, phi_tilde=const_phi(0.1), u=bowl_u,
        )
        *slabbed, whole = slab_runs(monkeypatch, prob)
        assert whole.worst_slack >= 0.0
        for out in slabbed:
            for key in ("A", "B", "eps1", "eps2", "worst_slack"):
                assert getattr(out, key) == getattr(whole, key), (p, psi, key)
            assert np.array_equal(out.v, whole.v)


@pytest.mark.parametrize("n, p, res, u, psi, phi, text, plane", [
    (2, 2, 33, concave_u, zero_field, 0.1, "u is not admissible", 0),
    (2, 2, 33, late_bad_u, zero_field, 0.1, "u is not admissible", 27),
    (3, 2, 17, late_bad_u, zero_field, 0.1, "u is not admissible", 14),
    # an overflow outranks an earlier node outside the cone
    (3, 2, 17, overflowing_u, zero_field, 0.1, "overflows in the sigma_q", 11),
    (3, 2, 17, positive_u, zero_field, 0.1, "u must be negative", None),
    # u's cone check outranks an earlier positive u
    (3, 2, 17, positive_late_bad_u, zero_field, 0.1, "u is not admissible", 14),
    (3, 2, 17, ball_u, late_bad_psi, 0.1, "psi leaves the closed cone", 11),
    (2, 2, 33, ball_u, zero_field, 50.0, "the construction overflows (A =", None),
    (2, 2, 33, ball_u, zero_field, 1e200, "the construction overflows (A =", None),
    (2, 2, 33, ball_u, zero_field, 1e-300, "the construction overflows (A =", None),
    (3, 3, 17, ball_u, zero_field, 5.0, "overflows in the sigma_q", 4),
])
def test_construct_faults_do_not_depend_on_slabs(
    n, p, res, u, psi, phi, text, plane, monkeypatch
):
    prob = BallProblem(
        n=n, radius=1.0, resolution=res, p=p, alpha=0.5,
        psi=psi, phi_tilde=const_phi(phi), u=u,
    )
    runs = slab_runs(monkeypatch, prob)
    assert all(run == runs[0] for run in runs)
    detail, node = runs[0]
    assert text in detail
    if plane is None:
        assert node is None
    else:
        # the fault's axis-0 plane; all but plane 0 lie past the first slab
        assert node // res ** (n - 1) == plane


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("res", [9, 16, 17])
def test_slabs_cover_the_grid(n, res, monkeypatch):
    monkeypatch.setattr(subsolution, "SLAB_NODES", 2 * res ** (n - 1))
    axis = np.linspace(-1.0, 1.0, res)
    pts, dist, _ = ball_grid(1.0, res, n)
    slabs = list(_slabs(axis, n))
    assert [s.core for s in slabs] == [slice(lo, min(lo + 2, res)) for lo in range(0, res, 2)]
    assert np.array_equal(np.concatenate([_slab_points(axis, n, s.core) for s in slabs]), pts)
    assert np.array_equal(np.concatenate([s.dist for s in slabs]), dist)
    for s in slabs:
        assert s.read == slice(max(0, s.core.start - 3), min(res, s.core.stop + 3))
        assert range(res)[s.read][s.inner] == range(res)[s.core]
        assert s.first == s.core.start * res ** (n - 1)
        rows = s.dist <= 1.0
        assert np.array_equal(
            _slab_points(axis, n, s.core, rows), _slab_points(axis, n, s.core)[rows]
        )


@pytest.mark.parametrize("res, n, planes", [(97, 3, 3), (129, 3, 2), (65, 3, 8), (9, 1, 2**15)])
def test_slab_planes_round_the_node_budget(res, n, planes, monkeypatch):
    """round(SLAB_NODES / plane) planes a slab, at least one, and k planes
    when SLAB_NODES is k planes."""
    cores = subsolution._slab_planes(res, n)
    assert [c.stop - c.start for c in cores[:-1]] == [min(planes, res)] * (len(cores) - 1)
    for k in (1, 2, 5):
        monkeypatch.setattr(subsolution, "SLAB_NODES", k * res ** (n - 1))
        assert subsolution._slab_planes(res, n)[0] == slice(0, min(k, res))
    monkeypatch.setattr(subsolution, "SLAB_NODES", 1)
    assert subsolution._slab_planes(res, n)[0] == slice(0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_slab_points_build_only_the_selected_rows(n):
    """The points of a mask's rows are those rows of every point, bit for
    bit, column-major with each coordinate one contiguous column."""
    rng = np.random.default_rng(n)
    axis = np.linspace(-1.0, 1.0, 7) + rng.uniform(-0.01, 0.01, 7)
    planes = slice(2, 5)
    every = _slab_points(axis, n, planes)
    m = 3 * 7 ** (n - 1)
    assert every.shape == (m, n)
    for rows in (np.zeros(m, bool), np.ones(m, bool), rng.random(m) < 0.3):
        pts = _slab_points(axis, n, planes, rows)
        assert pts.shape == (np.count_nonzero(rows), n)
        assert np.array_equal(pts, every[rows])
        for got in (pts, every):
            assert all(got[:, k].flags.c_contiguous for k in range(n))


def crop_masks(s, res, n, rng):
    """Flat masks over the core planes of slab s of the grid res^n: the
    ball, the trusted nodes, a random scatter, one face of each axis k >= 1,
    and single nodes at and near the grid's faces and corners."""
    shape = (s.core.stop - s.core.start,) + (res,) * (n - 1)
    h = 2.0 / (res - 1)
    masks = [s.dist <= 1.0 + 1e-12, s.dist <= 1.0 - 2 * h, rng.random(s.dist.shape) < 0.05]
    for k in range(1, n):
        face = np.zeros(shape, dtype=bool)
        face[(slice(None),) * k + (-1,)] = True
        masks.append(face.ravel())
    spots = (0, 1, 4, res - 5, res - 1)
    for i, node in enumerate(itertools.product(spots, repeat=n - 1)):
        single = np.zeros(shape, dtype=bool)
        single[(i % shape[0],) + node] = True
        masks.append(single.ravel())
    return masks


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("planes", [1, 2, 3])
def test_crop_keeps_the_selected_derivatives(n, planes, monkeypatch):
    """box_grad_hess on the slab _crop cuts equals box_grad_hess on the
    slab's whole read planes at the selected nodes, bit for bit, on a field
    whose every stencil rounds differently; a single node's cut spans at
    most 2 SLAB_HALO + 1 nodes on each axis k >= 1."""
    res = 11
    monkeypatch.setattr(subsolution, "SLAB_NODES", planes * res ** (n - 1))
    rng = np.random.default_rng(10 * n + planes)
    axis = np.linspace(-1.0, 1.0, res)
    h = axis[1] - axis[0]
    field = np.exp(rng.standard_normal((res,) * n))
    for s in _slabs(axis, n):
        for mask in crop_masks(s, res, n, rng):
            if not mask.any():
                continue
            part, cut = _crop(field[s.read], mask)
            whole = box_grad_hess(field[s.read], h, mask, s.inner)
            for got, want in zip(box_grad_hess(part, h, cut, s.inner), whole):
                assert np.array_equal(got, want)
            if np.count_nonzero(mask) == 1:
                assert max(part.shape[1:], default=1) <= 2 * SLAB_HALO + 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_zero_slab_is_what_the_stencils_give(n):
    """The stencils and minors of a field of +0, -0 or both give
    _zero_slab's arrays, at every p."""
    res = 6
    rng = np.random.default_rng(n)
    mask = rng.random(2 * res ** (n - 1)) < 0.5
    signs = rng.random((res,) * n) < 0.5
    zeros = _zero_slab(n, np.count_nonzero(mask))
    for field in (np.zeros(signs.shape), np.full(signs.shape, -0.0), np.where(signs, -0.0, 0.0)):
        grad, hess = box_grad_hess(field, 0.1, mask, slice(2, 4))
        for p in range(1, n + 1):
            codes, sigmas = classify_matrices(np.moveaxis(hess, -1, 0), ConeSpec(n, p))
            for got, want in zip((grad, hess, codes, sigmas), zeros):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_slab_is_read_only_views(n):
    """_zero_slab's arrays are read-only views of a few values, equal to
    the arrays they stand for."""
    m = 50
    sigmas = np.zeros((m, n + 1))
    sigmas[:, 0] = 1.0
    want = np.zeros((n, m)), np.zeros((n, n, m)), np.ones(m, dtype=int), sigmas
    for got, ref in zip(_zero_slab(n, m), want):
        assert not got.flags.writeable and got.base is not None
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("psi, differentiated", [(zero_field, False), (tilted_psi, True)])
def test_construct_differentiates_no_zero_psi(psi, differentiated, monkeypatch):
    """psi's cone check runs no stencil on a zero psi; u's and v's still
    do, as does psi's on a nonzero psi."""
    passes, calls = [], []
    admissible_pass, grad_hess = subsolution._admissible_pass, subsolution.box_grad_hess

    def labelled(planes, n, axis, h, p, select, message, visit, closed=False):
        passes.append(message.split()[0])
        return admissible_pass(planes, n, axis, h, p, select, message, visit, closed)

    def counted(*args):
        calls.append(passes[-1])
        return grad_hess(*args)

    monkeypatch.setattr(subsolution, "_admissible_pass", labelled)
    monkeypatch.setattr(subsolution, "box_grad_hess", counted)
    monkeypatch.setattr(subsolution, "SLAB_NODES", 2 * 17**2)
    prob = BallProblem(
        n=3, radius=1.0, resolution=17, p=2, alpha=0.5,
        psi=psi, phi_tilde=const_phi(0.1), u=bowl_u,
    )
    construct(prob)
    # 2-plane slabs: 9 hold ball nodes (u's and psi's passes), 7 hold
    # trusted nodes (v's pass)
    assert passes == ["defining", "extension", "constructed"]
    assert calls.count("defining") == 9 and calls.count("constructed") == 7
    assert calls.count("extension") == (9 if differentiated else 0)


def test_construct_memory_is_bounded():
    # the one whole field at 97^3 (u, then v in its place) takes 7.3 MB, and
    # one slab of 3 planes with its 9 read planes, its derivatives, minors
    # and eigenvalues brings the peak to 12.1 MiB; slabs of 6 planes, which
    # read 12 and took d0(d0 f) on all of them, peaked at 17.8 MiB, holding
    # psi as a whole field as well at 25.6 MB, holding two slabs and
    # differentiating the halo planes along every axis at 51 MB, every
    # stage's whole-grid arrays at once at 169 MB
    prob = BallProblem(
        n=3, radius=1.0, resolution=97, p=2, alpha=0.5,
        psi=zero_field, phi_tilde=const_phi(0.1), u=ball_u,
    )
    tracemalloc.start()
    try:
        out = construct(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.worst_slack >= 0.0
    assert peak <= 14 * 2**20


@pytest.mark.parametrize("res", [65, 97])
def test_construct_slab_working_set_is_bounded(res):
    # above the one whole field, a slab takes about 24 doubles per core
    # node at either size (8 planes at 65^3, 3 at 97^3): its read planes,
    # d0 f, the Hessian planes, minors, eigenvalues and points
    prob = BallProblem(
        n=3, radius=1.0, resolution=res, p=2, alpha=0.5,
        psi=zero_field, phi_tilde=const_phi(0.1), u=ball_u,
    )
    core = subsolution._slab_planes(res, 3)[0]
    tracemalloc.start()
    try:
        construct(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 8 * res**3 <= 27 * 8 * (core.stop - core.start) * res**2


def test_construct_holds_one_whole_field(monkeypatch):
    # in units of one 65^3 field: u (then v) and one slab of 2 planes peak
    # at 1.96; psi held as a second whole field peaked at 2.89
    res = 65
    monkeypatch.setattr(subsolution, "SLAB_NODES", 2 * res**2)
    prob = BallProblem(
        n=3, radius=1.0, resolution=res, p=2, alpha=0.5,
        psi=zero_field, phi_tilde=const_phi(0.1), u=ball_u,
    )
    tracemalloc.start()
    try:
        construct(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * 8 * res**3


@pytest.mark.parametrize("n, res", [(2, 33), (3, 17)])
@pytest.mark.parametrize("planes", [1, 2, 3, None])
def test_construct_evaluates_psi_at_most_twice_per_node(n, res, planes, monkeypatch):
    """psi meets each grid node at most twice: once in psi's cone check,
    whose slabs share their halo planes, and once when v is formed."""
    if planes is not None:
        monkeypatch.setattr(subsolution, "SLAB_NODES", planes * res ** (n - 1))
    counts = np.zeros((res,) * n, dtype=int)

    def counting_psi(pts):
        np.add.at(counts, tuple(np.rint((pts.T + 1.0) * (res - 1) / 2).astype(int)), 1)
        return tilted_psi(pts)

    prob = BallProblem(
        n=n, radius=1.0, resolution=res, p=2, alpha=0.5,
        psi=counting_psi, phi_tilde=const_phi(0.1), u=bowl_u,
    )
    construct(prob)
    assert counts.min() >= 1
    assert counts.max() <= 2


def test_construct_frees_each_slab_before_the_next(monkeypatch):
    """No array that a slab's derivatives, minors, eigenvalues, phi_tilde
    or psi produced, and none of psi's read planes but the slab's own, is
    alive when the next slab is differentiated, in any of the three
    passes.  The field box_grad_hess differentiates, and the read planes
    it is cut from, are the slab's own."""
    live, alive_at_start = [], []

    def tracked(f, starts_slab=False):
        def call(*args, **kwargs):
            if starts_slab:
                own = (args[0], args[0].base)
                alive_at_start.append(sum(
                    ref() is not None and all(ref() is not a for a in own) for ref in live
                ))
            out = f(*args, **kwargs)
            live.extend(weakref.ref(a) for a in (out if isinstance(out, tuple) else (out,)))
            return out
        return call

    monkeypatch.setattr(
        subsolution, "box_grad_hess", tracked(subsolution.box_grad_hess, starts_slab=True)
    )
    for name in ("classify_matrices", "jacobi_eigh", "_minor_bounds"):
        monkeypatch.setattr(subsolution, name, tracked(getattr(subsolution, name)))
    evaluated_planes = subsolution._evaluated_planes
    monkeypatch.setattr(
        subsolution, "_evaluated_planes", lambda *args: tracked(evaluated_planes(*args))
    )
    monkeypatch.setattr(subsolution, "SLAB_NODES", 2 * 17**2)
    prob = BallProblem(
        n=3, radius=1.0, resolution=17, p=2, alpha=0.5,
        psi=tracked(tilted_psi), phi_tilde=tracked(const_phi(0.1)), u=bowl_u,
    )
    construct(prob)
    # 2-plane slabs: 9 hold ball nodes (u's and psi's passes), 7 hold
    # trusted nodes (v's pass)
    assert len(alive_at_start) == 25
    assert not any(alive_at_start)


def bound_test_matrices(rng, n):
    """Symmetric (m, n, n) batches whose sigma_k(lam|n) is hard to enclose:
    random, near the identity, exactly tied, with double roots (top and
    bottom), scaled towards overflow and towards underflow."""
    def sym(M):
        return 0.5 * (M + np.swapaxes(M, -1, -2))

    Q = np.linalg.qr(rng.normal(size=(200, n, n)))[0]
    roots = rng.uniform(-2.0, 3.0, (200, n))
    roots[:100, -1] = roots[:100, -2]   # double top root
    roots[100:, 1] = roots[100:, 0]     # double bottom root
    double = sym(Q @ (roots[..., None] * np.swapaxes(Q, -1, -2)))
    random = sym(rng.uniform(-3.0, 3.0, (400, n, n)))
    return {
        "random": random,
        "near identity": np.eye(n) + sym(rng.uniform(-1e-13, 1e-13, (200, n, n))),
        "exact ties": np.stack([c * np.eye(n) for c in (-2.0, -0.5, 1.0, 3.0)]),
        "double roots": double,
        "near overflow": random * 1e100,
        # |H|_F^2 overflows, or |H|_F is too small for the bound's
        # arithmetic: always eigensolved
        "overflow": random[:50] * 1e160,
        "near underflow": np.concatenate([
            np.stack([c * np.eye(n) for c in (0.0, 1e-300)]), random[:50] * 1e-150
        ]),
    }


@pytest.mark.parametrize("n", range(2, 7))
def test_minor_bounds_hold_the_eigensolved_value(n):
    rng = np.random.default_rng(40 + n)
    for kind, M in bound_test_matrices(rng, n).items():
        hess = np.moveaxis(M, 0, -1)
        trace = np.trace(M, axis1=1, axis2=2)
        lam = jacobi_eigh(M)[:, : n - 1]
        for p in range(2, n + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lo, hi = _minor_bounds(hess, trace, p - 1)
            with np.errstate(over="ignore", invalid="ignore"):
                value = sigma(p - 1, lam)
            # an unbounded row is always eigensolved; its value may overflow
            unbounded = (lo == -np.inf) & (hi == np.inf)
            assert np.all(unbounded | ((lo <= value) & (value <= hi))), (kind, p)
            if kind in ("overflow", "near underflow"):
                assert unbounded.all()
            else:
                assert unbounded.any() == (kind == "near overflow" and p > 4), (kind, p)
            if kind == "near identity":
                # narrow enough to prune: under 2e-11 of the value, which is
                # about C(n - 1, p - 1)
                assert np.all(hi - lo < 2e-11 * comb(n - 1, p - 1)), p


def exp_u(pts):
    return np.exp(np.sum(pts**2, axis=-1)) - np.e


@pytest.mark.parametrize("n, p, res, u", [
    (3, 2, 31, ball_u),   # h = 1/15: quadratic u, values tie within rounding
    (3, 3, 31, ball_u),
    (3, 2, 33, ball_u),   # h = 1/16: D^2 u = I exactly, every value ties
    (3, 3, 17, ball_u),
    (3, 2, 31, bowl_u),
    (3, 3, 25, exp_u),
    (2, 2, 41, exp_u),
    (4, 3, 13, ball_u),
    (4, 4, 13, bowl_u),
])
def test_eps2_is_the_minimum_over_every_ball_node(n, p, res, u, monkeypatch):
    prob = BallProblem(
        n=n, radius=1.0, resolution=res, p=p, alpha=0.5,
        psi=zero_field, phi_tilde=const_phi(0.1), u=u,
    )
    pts, dist, h = ball_grid(1.0, res, n)
    _, hess = box_grad_hess(u(pts).reshape((res,) * n), h)
    lam = jacobi_eigh(np.moveaxis(hess, -1, 0)[dist <= 1.0 + 1e-12])
    want = np.min(sigma(p - 1, lam[:, : n - 1]))
    # the least upper bound carried over 1-plane and 4-plane slabs, and
    # one slab
    for planes in (1, 4, res):
        monkeypatch.setattr(subsolution, "SLAB_NODES", planes * res ** (n - 1))
        assert construct(prob).eps2 == want, planes


@pytest.mark.parametrize("res", [49, 33])
def test_eps2_eigensolves_few_nodes(res, monkeypatch):
    # quadratic u.  h = 1/24: the nodes' values tie within rounding, and
    # the bounds still leave few of them open.  h = 1/16: D^2 u = I to the
    # bit, so nothing is pruned, and one matrix stands for each slab's
    seen = []

    def counted(M):
        seen.append(len(M))
        return jacobi_eigh(M)

    monkeypatch.setattr(subsolution, "jacobi_eigh", counted)
    monkeypatch.setattr(subsolution, "SLAB_NODES", 4 * res**2)
    prob = BallProblem(
        n=3, radius=1.0, resolution=res, p=2, alpha=0.5,
        psi=zero_field, phi_tilde=const_phi(0.1), u=ball_u,
    )
    construct(prob)
    in_ball = np.count_nonzero(ball_grid(1.0, res, 3)[1] <= 1.0 + 1e-12)
    assert 0 < sum(seen) < 0.1 * in_ball
    assert (set(seen) == {1}) == (res == 33)


def test_problem_validation():
    with pytest.raises(ValueError):
        BallProblem(2, 1.0, 33, 3, 0.5, zero_field, const_phi(0.1), ball_u)
    with pytest.raises(ValueError):
        BallProblem(2, 1.0, 33, 2, 1.5, zero_field, const_phi(0.1), ball_u)
    for radius in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            BallProblem(2, radius, 33, 2, 0.5, zero_field, const_phi(0.1), ball_u)


def test_key_lemma_hand_case():
    cfg = KeyLemmaConfig(
        n=3, p=1, delta=0.5, R=5.0, a=2.0,
        mu=np.array([2.0, 2.0, 2.0]), nu=np.array([1.0, 1.0, 1.0]),
    )
    lhs, rhs, ok, _ = key_lemma_check(cfg, directions=2000)
    assert lhs == pytest.approx(3.0, abs=1e-12)
    shift = np.linalg.norm(np.array([1.5, 1.5, 1.5]))
    assert rhs == pytest.approx(0.5 * 3 - (5.0 + shift) + 2.0 - 3.0, abs=1e-12)
    assert ok
    assert lhs >= rhs


def test_key_lemma_names_first_escaping_crossing():
    # p = 1: sigma_1 is linear, so the crossing of {sigma_1 = a} on the ray
    # base + t xi is t = (a - sum(base)) / sum(xi), clamped at 0
    n, directions, seed = 3, 400, 5
    cfg = KeyLemmaConfig(
        n=n, p=1, delta=0.5, R=1.0, a=6.0,
        mu=np.array([0.5, 1.0, 1.5]), nu=np.ones(n),
    )
    base = cfg.mu - cfg.delta
    rng = np.random.default_rng(seed)
    xi = rng.uniform(0.0, 1.0, (directions, n)) + 1e-3
    xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
    t = np.maximum((cfg.a - base.sum()) / xi.sum(axis=-1), 0.0)
    norms = np.linalg.norm(base + t[:, None] * xi, axis=-1)
    # a radius between the oracle's crossing norms: some rays stay inside
    R = float(np.median(norms))
    first = int(np.argmax(norms >= R))
    assert first > 0
    cfg = KeyLemmaConfig(n=n, p=1, delta=cfg.delta, R=R, a=cfg.a, mu=cfg.mu, nu=cfg.nu)
    _, _, ok, escape = key_lemma_check(cfg, directions=directions, seed=seed)
    assert not ok
    assert escape[0] == first
    assert escape[1] == pytest.approx(norms[first], rel=1e-12)
    big = KeyLemmaConfig(n=n, p=1, delta=cfg.delta, R=2.0 * norms.max(),
                         a=cfg.a, mu=cfg.mu, nu=cfg.nu)
    assert key_lemma_check(big, directions=directions, seed=seed)[2:] == (True, None)


def test_key_lemma_trivial_shift_case():
    nu = np.array([0.5, 1.0, 2.0])
    delta = 0.3
    cfg = KeyLemmaConfig(
        n=3, p=2, delta=delta, R=30.0, a=float(sigma(2, nu) ** 0.5),
        mu=nu + delta, nu=nu,
    )
    lhs, rhs, ok, _ = key_lemma_check(cfg, directions=2000)
    # lhs = delta * sum(grad); rhs subtracts a nonnegative R-term from it
    assert lhs >= rhs


def test_key_lemma_random_configs():
    rng = np.random.default_rng(1)
    done = 0
    while done < 60:
        n, p = 4, 2
        nu = rng.uniform(0.2, 3.0, n)
        if sigma(2, nu) <= 0 or sigma(1, nu) <= 0:
            continue
        mu = rng.uniform(-1.0, 4.0, n)
        a = rng.uniform(0.5, 2.0)
        cfg = KeyLemmaConfig(
            n=n, p=p, delta=rng.uniform(0.1, 1.0), R=60.0, a=a,
            mu=mu, nu=nu,
        )
        lhs, rhs, ok, _ = key_lemma_check(cfg, directions=500, seed=done)
        if not ok:
            continue
        done += 1
        assert lhs - rhs >= -1e-9


def unit_rays(n, directions, seed):
    """key_lemma_check's rays: uniform in the positive orthant, unit length."""
    rng = np.random.default_rng(seed)
    xi = rng.uniform(0.0, 1.0, (directions, n)) + 1e-3
    return xi / np.linalg.norm(xi, axis=-1, keepdims=True)


def every_ray_verdict(cfg, directions, seed):
    """(hypothesis_ok, escape) with every ray's crossing placed by Newton:
    the reference for the rays key_lemma_check decides at their exit."""
    base = np.asarray(cfg.mu, dtype=float) - cfg.delta * np.ones(cfg.n)
    xi = unit_rays(cfg.n, directions, seed)
    t = np.maximum(_level_crossing(base, xi, cfg.p, cfg.a**cfg.p), 0.0)
    norms = np.linalg.norm(base + t[:, None] * xi, axis=-1)
    outside = np.flatnonzero(~(norms < cfg.R))
    if len(outside) == 0:
        return True, None
    return False, (int(outside[0]), float(norms[outside[0]]))


@pytest.fixture
def newton_rays(monkeypatch):
    """The rays key_lemma_check hands to the crossing Newton, call by call."""
    calls = []

    def spy(base, xi, p, target):
        calls.append(xi.copy())
        return _level_crossing(base, xi, p, target)

    monkeypatch.setattr(subsolution, "_level_crossing", spy)
    return calls


def test_key_lemma_exit_certificate_matches_every_ray_newton(newton_rays):
    # every (n, p) with n <= 6, radii that hold and that are escaped
    rng = np.random.default_rng(11)
    pairs = [(n, p) for n in range(1, 7) for p in range(1, n + 1)]
    directions, rays, outcomes = 40, 0, set()
    for i in range(2100):
        n, p = pairs[i % len(pairs)]
        cfg = KeyLemmaConfig(
            n=n, p=p, delta=rng.uniform(0.1, 1.0),
            R=float(rng.choice([2.0, 5.0, 10.0, 60.0])), a=rng.uniform(0.5, 3.0),
            mu=rng.uniform(-1.0, 4.0, n), nu=rng.uniform(0.2, 3.0, n),
        )
        got = key_lemma_check(cfg, directions=directions, seed=i)
        want = every_ray_verdict(cfg, directions, i)
        assert repr(got[2:]) == repr(want), (i, cfg)
        outcomes.add(want[0])
        rays += sum(map(len, newton_rays))
        newton_rays.clear()
    assert outcomes == {True, False}
    # most rays are decided at their exit point, so the comparison tests the
    # certificate and not only the Newton it falls back on
    assert rays < 0.5 * 2100 * directions


def test_key_lemma_base_outside_ball_sends_every_ray_to_newton(newton_rays):
    # |base| >= R: no ray starts inside the ball, so none has an exit point.
    # p = 1 with the base below the origin on axis 1: the first crossing
    # lies in the ball, a later one outside
    cfg = KeyLemmaConfig(n=3, p=1, delta=0.5, R=2.0, a=1.0,
                         mu=np.array([-2.5, 0.8, 0.6]), nu=np.ones(3))
    got = key_lemma_check(cfg, directions=300, seed=0)
    assert repr(got[2:]) == repr(every_ray_verdict(cfg, 300, 0))
    assert list(map(len, newton_rays)) == [300]
    assert got[2] is False and got[3][0] > 0


def test_key_lemma_exit_points_at_the_largest_radius(newton_rays):
    # the exit points stay finite; their sigma_p overflows for p >= 2, and
    # those rays go to Newton
    for p in (1, 2, 3):
        cfg = KeyLemmaConfig(n=3, p=p, delta=0.5, R=np.finfo(float).max, a=1.0,
                             mu=np.array([1.0, 1.5, 2.0]), nu=np.ones(3))
        got = key_lemma_check(cfg, directions=100, seed=p)
        assert repr(got[2:]) == repr(every_ray_verdict(cfg, 100, p)) == "(True, None)"
        assert list(map(len, newton_rays)) == ([] if p == 1 else [100])
        newton_rays.clear()


def test_key_lemma_exit_inside_margin_goes_to_newton(newton_rays):
    # one ray, with a^p set against sigma_p at its exit point x: within the
    # margin 2 _rounding(n, p) C(n, p) R^p of it the crossing Newton
    # decides, below that the exit point does
    n, p, R, delta, seed = 3, 2, 5.0, 0.5, 3
    mu = np.array([1.0, 1.5, 2.0])
    base = mu - delta
    xi = unit_rays(n, 1, seed)[0]
    along = xi @ base
    exit_point = base + (-along + np.sqrt(along**2 - base @ base + R**2)) * xi
    level = sigma(p, exit_point)
    margin = 2 * _rounding(n, p) * comb(n, p) * R**p
    for shift, newton in ((0.0, [1]), (0.5 * margin, [1]), (-0.5 * margin, [1]),
                          (-2.0 * margin, []), (2.0 * margin, [1])):
        cfg = KeyLemmaConfig(n=n, p=p, delta=delta, R=R, a=(level + shift) ** (1 / p),
                             mu=mu, nu=np.ones(n))
        got = key_lemma_check(cfg, directions=1, seed=seed)
        assert repr(got[2:]) == repr(every_ray_verdict(cfg, 1, seed))
        assert list(map(len, newton_rays)) == newton
        newton_rays.clear()
    # past the exit the crossing lies outside the ball
    assert got[2] is False


def random_key_lemma_configs(rng, n, p, count):
    return [
        KeyLemmaConfig(
            n=n, p=p, delta=rng.uniform(0.1, 1.0),
            R=float(rng.choice([2.0, 5.0, 10.0, 60.0])), a=rng.uniform(0.5, 3.0),
            mu=rng.uniform(-1.0, 4.0, n), nu=rng.uniform(0.2, 3.0, n),
        )
        for _ in range(count)
    ]


def test_key_lemma_sweep_equals_the_per_config_loop():
    # every (n, p) with n <= 6, one batch each mixing bases outside the
    # ball, configs that escape and configs that hold
    rng = np.random.default_rng(12)
    directions, outside, outcomes = 60, 0, set()
    for n in range(1, 7):
        for p in range(1, n + 1):
            cfgs = random_key_lemma_configs(rng, n, p, 24)
            seeds = rng.integers(0, 2**32, len(cfgs))
            got = key_lemma_sweep(cfgs, directions, seeds)
            assert len(got) == len(cfgs)
            for cfg, seed, row in zip(cfgs, seeds, got):
                assert repr(row) == repr(key_lemma_check(cfg, directions, seed)), cfg
            kinds = {row[2] for row in got}
            outcomes |= kinds
            bases = [np.linalg.norm(c.mu - c.delta) >= c.R for c in cfgs]
            outside += sum(bases)
            if n >= 3:
                assert kinds == {True, False} and 0 < sum(bases) < len(cfgs), (n, p)
    assert outcomes == {True, False} and outside > 0


def test_key_lemma_sweep_does_not_depend_on_the_ray_budget(monkeypatch):
    # one config per pass, every config in one pass, and the default (4
    # configs of 2000 rays per pass)
    rng = np.random.default_rng(13)
    cfgs = random_key_lemma_configs(rng, 3, 2, 20)
    want = repr(key_lemma_sweep(cfgs, 2000, range(20)))
    assert {row[2] for row in key_lemma_sweep(cfgs, 2000, range(20))} == {True, False}
    for rays in (1, 2**30):
        monkeypatch.setattr(subsolution, "KEY_LEMMA_RAYS", rays)
        assert repr(key_lemma_sweep(cfgs, 2000, range(20))) == want


def test_key_lemma_sweep_raises_the_loops_first_error():
    good = KeyLemmaConfig(n=3, p=2, delta=0.5, R=5.0, a=1.0,
                          mu=np.ones(3), nu=np.ones(3))
    outside = dataclasses.replace(good, nu=np.array([-2.0, 1.0, 1.0]))
    negative = dataclasses.replace(good, delta=-1.0)
    huge = dataclasses.replace(good, mu=np.array([1e200, 2e200, 1.0]))
    cases = [
        ([good, huge, outside], 10, InputError, "overflow along the rays"),
        ([good, outside, huge], 10, AdmissibilityError, "nu = "),
        ([good, huge, negative], 10, InputError, "overflow along the rays"),
        # one config's nu is checked before its size
        ([good, dataclasses.replace(huge, nu=outside.nu)], 10, AdmissibilityError, "nu = "),
        ([good, outside, negative], 10, AdmissibilityError, "nu = "),
        ([good, negative, outside], 10, InputError, "delta, a"),
        ([outside, good], 0, InputError, "direction"),
        ([dataclasses.replace(good, R=np.inf), good], 0, InputError, "R must"),
        ([good, outside, dataclasses.replace(good, p=4)], 10, AdmissibilityError, "nu = "),
        ([good, dataclasses.replace(good, p=4)], 10, InputError, "need 1 <= p <= n"),
    ]
    for cfgs, directions, error, match in cases:
        with pytest.raises(error, match=match):
            key_lemma_sweep(cfgs, directions, range(len(cfgs)))
        loop_error = None
        for i, cfg in enumerate(cfgs):
            try:
                key_lemma_check(cfg, directions, i)
            except ValueError as exc:
                loop_error = exc
                break
        assert isinstance(loop_error, error) and re.search(match, str(loop_error))
    # errors of a batch alone: configs it cannot stack
    for bad, match in ((dataclasses.replace(good, p=3), "share n and p"),
                       (dataclasses.replace(good, mu=np.ones(4)), "length 3")):
        with pytest.raises(ValueError, match=match):
            key_lemma_sweep([good, bad, outside], 10, range(3))
        with pytest.raises(AdmissibilityError):
            key_lemma_sweep([good, outside, bad], 10, range(3))
    with pytest.raises(InputError, match="one seed per config"):
        key_lemma_sweep([good, good], 10, [0])
    # an empty sweep checks nothing, not even directions, and returns nothing
    assert key_lemma_sweep([], 0, []) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", [[1e300, 2e300, 1.0], [1e200, 2e200, 1.0]])
def test_key_lemma_rejects_configs_whose_rays_overflow(mu):
    cfg = KeyLemmaConfig(n=3, p=2, delta=0.5, R=5.0, a=1.0, mu=np.array(mu), nu=np.ones(3))
    with pytest.raises(InputError, match="sigma_2 could overflow along the rays"):
        key_lemma_check(cfg, directions=100)
    # so does an a whose a^p overflows
    with pytest.raises(InputError, match="overflow along the rays"):
        key_lemma_check(dataclasses.replace(cfg, mu=np.ones(3), a=1e200), directions=100)


def test_key_lemma_rejects_inadmissible_nu():
    cfg = KeyLemmaConfig(
        n=3, p=2, delta=0.5, R=5.0, a=1.0,
        mu=np.ones(3), nu=np.array([-2.0, 1.0, 1.0]),
    )
    with pytest.raises(AdmissibilityError):
        key_lemma_check(cfg, directions=100)


def test_matrix_form_matches_vector_on_diagonals():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n, p = 3, 2
        nu = np.sort(rng.uniform(0.3, 3.0, n))
        mu = np.sort(rng.uniform(-0.5, 4.0, n))
        delta, R, a = 0.4, 40.0, 1.0
        mlhs, mrhs = matrix_form_sides(p, delta, R, a, np.diag(mu), np.diag(nu))
        cfg = KeyLemmaConfig(n=n, p=p, delta=delta, R=R, a=a, mu=mu, nu=nu)
        vlhs, vrhs, _, _ = key_lemma_check(cfg, directions=1)
        assert mlhs == pytest.approx(vlhs, abs=1e-9)
        assert mrhs == pytest.approx(vrhs, abs=1e-9)


def test_matrix_form_conjugation_invariant_rhs():
    rng = np.random.default_rng(3)
    nu = np.array([0.5, 1.0, 2.0])
    mu = np.array([0.2, 1.5, 3.0])
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    C = Q @ np.diag(mu) @ Q.T
    D = Q @ np.diag(nu) @ Q.T
    lhs1, rhs1 = matrix_form_sides(2, 0.4, 40.0, 1.0, np.diag(mu), np.diag(nu))
    lhs2, rhs2 = matrix_form_sides(
        2, 0.4, 40.0, 1.0, 0.5 * (C + C.T), 0.5 * (D + D.T)
    )
    assert lhs2 == pytest.approx(lhs1, abs=1e-9)
    assert rhs2 == pytest.approx(rhs1, abs=1e-9)


def assert_crossing(base, x, p, a, t):
    """At the crossing t*, subset enumeration gives sigma_p = a^p, a step
    1e-6 back along the ray is below the level set, and the crossing lies
    in the open cone (the branch past the largest root of sigma_p)."""
    target = a**p
    # rel 1e-9, unless one ulp of t moves sigma_p further: a ray with tiny
    # xi_j crosses where base_j + t xi_j nearly cancels
    ulp = np.spacing(t)
    spread = abs(sigma_brute(p, base + (t + ulp) * x) - sigma_brute(p, base + (t - ulp) * x))
    err = abs(sigma_brute(p, base + t * x) - target)
    assert err <= max(1e-9 * target, spread)
    assert sigma_brute(p, base + (t - 1e-6) * x) < target
    assert classify(base + t * x, ConeSpec(len(x), p)).region == "interior"


def test_level_crossing_against_brute_force():
    rng = np.random.default_rng(61)
    for _ in range(80):
        n = int(rng.integers(1, 8))
        p = int(rng.integers(1, n + 1))
        base = rng.uniform(-1.0, 4.0, n) - rng.uniform(0.1, 1.0)
        a = rng.uniform(0.5, 2.0)
        xi = rng.uniform(0.0, 1.0, (20, n)) + 1e-3
        xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
        t = _level_crossing(base, xi, p, a**p)
        for ti, x in zip(t, xi):
            assert_crossing(base, x, p, a, ti)


def dense_crossing(base, xi, p, a):
    """The crossing Newton of _level_crossing on the whole batch, every row
    every step, unscaled, from t0 + s* (where the ray enters the positive
    orthant, plus (target / sigma_p(xi))^(1/p)), with the number of steps
    each row descends.  Its slope is the tangent's: the minors' sum_i xi_i
    sigma_{p-1}(x|i) rounds differently, and at p < n its Newton stops an
    ulp or two away on 1-3% of rays.  The tangent itself is checked against
    the minors in test_prefix_slope_is_sigma_and_its_derivative."""
    target = a**p
    t = np.max(-base / xi, axis=-1) + (target / sigma(p, xi)) ** (1.0 / p)
    steps = np.zeros(t.shape, dtype=int)
    while True:
        x = base + t[..., None] * xi
        g, dg = _prefix_slope(x.T, xi.T, p)
        g = g - target
        step = t - g / dg
        down = step < t
        if not np.any(down):
            return t, steps
        steps += down
        t = np.where(down, step, t)


def test_level_crossing_active_set_is_exact():
    # one batch of rays that settle after at most 6 steps, rays that need
    # 15 or more, and rays whose crossing lies below 0 (clamped by
    # key_lemma_check), ordered so each half loses its settled rows at
    # other steps than the whole batch does
    rng = np.random.default_rng(62)
    n, p, a = 4, 3, 1.0
    xi = rng.uniform(0.0, 1.0, (4000, n)) + 1e-3
    xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
    low = np.array([-0.8, 0.5, 2.0, 1.0])
    _, steps = dense_crossing(low, xi, p, a)
    fast, slow = xi[steps <= 6][:60], xi[steps >= 15]
    assert len(fast) == 60 and len(slow) >= 10
    base = np.concatenate([np.repeat([low], 40, 0), np.repeat([low + 1.5], 20, 0),
                           np.repeat([low], len(slow) + 20, 0)])
    rays = np.concatenate([fast[:40], xi[:20], slow, fast[40:]])
    t = _level_crossing(base, rays, p, a**p)
    ref, steps = dense_crossing(base, rays, p, a)
    assert steps.min() <= 6 and steps.max() >= 15 and np.sum(t < 0) == 20
    half = len(rays) // 2
    halves = [_level_crossing(base[s], rays[s], p, a**p)
              for s in (slice(None, half), slice(half, None))]
    assert np.array_equal(np.concatenate(halves), t)
    assert np.array_equal(ref, t)
    for b, x, ti in zip(base, rays, t):
        assert_crossing(b, x, p, a, ti)


@pytest.mark.filterwarnings("error")
def test_level_crossing_rejects_nonfinite_iterate():
    # xi_2 = xi_3 = 0 on the last ray: its start would not be finite; the
    # ray is named and rejected before that division, with no warning
    rng = np.random.default_rng(63)
    xi = rng.uniform(0.0, 1.0, (50, 3)) + 1e-3
    xi[-1] = [1.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="ray 49.*finite"):
        _level_crossing(np.array([-0.5, 0.2, 1.0]), xi, 2, 1.0**2)
