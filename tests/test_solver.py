"""Tests for the periodic grid solver, monitors, and measure estimates."""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from phessian import solver, spectral
from phessian.errors import AdmissibilityError, InputError, NonconvergenceError
from phessian.solver import (
    CATALOG,
    AlexandrovProblem,
    AuxiliarySpec,
    EquationSpec,
    GridFn,
    PseudoCheckConfig,
    TorusGrid,
    _coefficient_A,
    _fourier_preconditioner,
    _jacobian_stencil,
    _rhs_phi,
    admissible,
    alexandrov_check,
    auxiliary_field,
    box_grad_hess,
    fourier_hess,
    load_grid_csv,
    load_problem_json,
    manufactured_problem,
    monitors,
    newton_solve,
    periodic_grad,
    periodic_hess,
    pseudo_check,
    residual_field,
    save_grid_csv,
    save_problem_json,
    smooth_perturbation,
    unit_ball_volume,
)
from phessian.spectral import jacobi_eigh
from phessian.symfun import sigma

from oracles import roll_grad, roll_hess, roll_jacobian


class TestGridBasics:
    def test_nodes_and_spacing(self):
        grid = TorusGrid((16, 32))
        assert grid.d == 2
        assert grid.h[0] == pytest.approx(2 * np.pi / 16)
        assert grid.h[1] == pytest.approx(2 * np.pi / 32)
        x1, x2 = grid.meshgrid()
        assert x1.shape == (16, 32)
        # endpoint excluded
        assert x1.max() < 2 * np.pi

    def test_size_validation(self):
        with pytest.raises(ValueError):
            TorusGrid((4, 16))

    @pytest.mark.parametrize("period", [0.0, -1.0, np.nan, np.inf])
    def test_period_validation(self, period):
        with pytest.raises(InputError, match="period must be positive and finite"):
            TorusGrid((8, 8), period=period)

    def test_gridfn_rejects_nonfinite(self):
        grid = TorusGrid((8, 8))
        vals = np.zeros(grid.sizes)
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            GridFn(grid, vals)

    def test_periodic_derivatives_on_trig(self):
        grid = TorusGrid((128, 128))
        x1, x2 = grid.meshgrid()
        f = np.cos(x1) * np.sin(2 * x2)
        df = periodic_grad(f, grid.h)
        assert np.max(np.abs(df[0] + np.sin(x1) * np.sin(2 * x2))) < 2e-3
        assert np.max(np.abs(df[1] - 2 * np.cos(x1) * np.cos(2 * x2))) < 4e-3
        d2f = periodic_hess(f, grid.h)
        assert np.allclose(d2f[0, 1], d2f[1, 0])
        assert np.max(np.abs(d2f[0, 0] + f)) < 2e-3


# one shape per dimension 1..5, no two axes of a shape alike
STENCIL_SHAPES = [(11,), (9, 12), (8, 10, 9), (5, 7, 6, 8), (4, 6, 5, 3, 7)]


@pytest.mark.parametrize("shape", STENCIL_SHAPES)
def test_periodic_stencils_equal_roll_oracle_bit_for_bit(shape):
    """periodic_grad and periodic_hess, which read shifted views of one
    wrapped copy, equal the np.roll differences of tests/oracles.py bit for
    bit, with a different h on every axis."""
    rng = np.random.default_rng(len(shape))
    f = rng.normal(size=shape)
    h = tuple(rng.uniform(0.05, 1.0, size=len(shape)))
    assert np.array_equal(periodic_grad(f, h), roll_grad(f, h))
    assert np.array_equal(periodic_hess(f, h), roll_hess(f, h))


@pytest.mark.parametrize("shape", [(8,), (9,), (9, 8), (10, 10), (8, 9, 10), (16, 16, 15)])
def test_fourier_hess_is_exact_on_trig_polynomials(shape):
    """fourier_hess against the closed-form Hessian of a trigonometric
    polynomial, with a different h on every axis: random modes below each
    axis's Nyquist wavenumber and, on each even axis, its Nyquist cosine
    times cosines on the other axes, whose mixed derivatives carry that
    Nyquist sine and so vanish at the nodes."""
    rng = np.random.default_rng(sum(shape))
    d = len(shape)
    h = rng.uniform(0.3, 1.0, size=d)
    xs = np.meshgrid(*[np.arange(n) * hm for n, hm in zip(shape, h)], indexing="ij")
    unit = [2.0 * np.pi / (n * hm) for n, hm in zip(shape, h)]
    below = [(n - 1) // 2 for n in shape]
    f = np.zeros(shape)
    exact = np.zeros((d, d) + shape)
    for _ in range(4):
        kappa = [u * rng.integers(-b, b + 1) for u, b in zip(unit, below)]
        phase = sum(k * x for k, x in zip(kappa, xs))
        a, b = rng.normal(size=2)
        wave = a * np.cos(phase) + b * np.sin(phase)
        f += wave
        exact -= np.multiply.outer(np.outer(kappa, kappa), wave)
    for m in (m for m, n in enumerate(shape) if n % 2 == 0):
        kappa = [u * rng.integers(1, b + 1) for u, b in zip(unit, below)]
        kappa[m] = unit[m] * (shape[m] // 2)
        c = rng.normal()
        cos = [np.cos(k * x) for k, x in zip(kappa, xs)]
        sin = [np.sin(k * x) for k, x in zip(kappa, xs)]
        wave = c * np.prod(cos, axis=0)
        f += wave
        for i in range(d):
            exact[i, i] -= kappa[i] ** 2 * wave
            for j in (j for j in range(d) if j != i):
                mixed = c * kappa[i] * kappa[j] * sin[i] * sin[j]
                for q in (q for q in range(d) if q not in (i, j)):
                    mixed = mixed * cos[q]
                exact[i, j] += mixed
    H = fourier_hess(f, tuple(h))
    assert H.shape == (d, d) + shape
    assert np.max(np.abs(H - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("shape", [(13,), (9, 11), (7, 8, 9)])
@pytest.mark.parametrize("masked", [False, True])
def test_box_grad_hess_component_planes(shape, masked):
    """Gradient (n, m) and Hessian planes (n, n, m) at the masked nodes,
    against a per-component np.gradient reference and, for a quadratic,
    against its exact derivatives (edge_order=2 is exact on quadratics)."""
    rng = np.random.default_rng(len(shape))
    n, h = len(shape), 0.1
    mask = rng.random(np.prod(shape)) < 0.4 if masked else None
    nodes = slice(None) if mask is None else mask
    m = np.count_nonzero(mask) if masked else np.prod(shape)

    f = rng.normal(size=shape)
    grad, hess = box_grad_hess(f, h, mask)
    assert grad.shape == (n, m) and hess.shape == (n, n, m)
    g = [np.gradient(f, h, axis=i, edge_order=2) for i in range(n)]
    for i in range(n):
        np.testing.assert_array_equal(grad[i], g[i].ravel()[nodes])
        for j in range(n):
            # d_max(d_min f), each mixed partial taken in one order
            ref = np.gradient(g[min(i, j)], h, axis=max(i, j), edge_order=2)
            np.testing.assert_array_equal(hess[i, j], ref.ravel()[nodes])

    Q = rng.normal(size=(n, n))
    Q = Q + Q.T
    b = rng.normal(size=n)
    x = np.stack(np.meshgrid(*[h * np.arange(k) for k in shape], indexing="ij"), -1)
    quad = 0.5 * np.einsum("...i,ij,...j->...", x, Q, x) + x @ b
    grad, hess = box_grad_hess(quad, h, mask)
    exact = (x @ Q + b).reshape(-1, n)[nodes].T
    np.testing.assert_allclose(grad, exact, rtol=0, atol=1e-12)
    np.testing.assert_allclose(hess, np.broadcast_to(Q[..., None], hess.shape), rtol=0, atol=1e-10)


@pytest.mark.parametrize("shape", [(9,), (9, 5), (9, 5, 4)])
def test_box_grad_hess_core_planes(shape, monkeypatch):
    """For every range of core planes, read alone with the whole field or
    with a halo of 3 planes cut at the box's edges, the gradient and
    Hessian at the masked core nodes are the whole-field call's at those
    nodes, bit for bit; only d0 f runs over all the planes outside the
    core, and d0(d0 f) over one plane on each side."""
    rng = np.random.default_rng(len(shape))
    n, h, res = len(shape), 0.1, shape[0]
    f = rng.normal(size=shape)
    plane = f.size // res
    grad, hess = box_grad_hess(f, h)
    gradient, calls = np.gradient, []

    def spy(a, *args, axis=None, **kwargs):
        calls.append((axis, len(a)))
        return gradient(a, *args, axis=axis, **kwargs)

    monkeypatch.setattr(np, "gradient", spy)
    for lo in range(res):
        for hi in range(lo + 1, res + 1):
            nodes = slice(lo * plane, hi * plane)
            mask = rng.random((hi - lo) * plane) < 0.6
            for a, b in ((0, res), (max(0, lo - 3), min(res, hi + 3))):
                calls.clear()
                g, H = box_grad_hess(f[a:b], h, mask, slice(lo - a, hi - a))
                assert np.array_equal(g, grad[:, nodes][:, mask])
                assert np.array_equal(H, hess[..., nodes][..., mask])
                # d_i f and d_j(d_i f) for j >= 1: 2 (n - 1) + n (n - 1) / 2
                on_core = 2 * (n - 1) + n * (n - 1) // 2
                # d0 f on every plane; d0(d0 f) on the core plus one plane
                # on each side, at least 3
                cut = min(b - a, hi - a + 1) - max(0, lo - a - 1)
                assert [k for axis, k in calls if axis == 0] == [b - a, max(3, cut)]
                assert [k for axis, k in calls if axis != 0] == [hi - lo] * on_core


class TestResidual:
    def test_constant_state_residual(self):
        grid = TorusGrid((16, 16))
        u = GridFn(grid, np.zeros(grid.sizes))
        c = 1.5
        target = float(sigma(2, [c, c]) ** 0.5)
        spec = EquationSpec(p=2, A_field=("conformal", c), rhs=("constant", target))
        res = residual_field(u, spec)
        assert np.max(np.abs(res.values)) < 1e-12

    @pytest.mark.parametrize("d, p", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_manufactured_residual_order(self, d, p):
        norms = []
        for size in {2: (32, 64, 128), 3: (16, 32, 64)}[d]:
            spec, grid, ustar = manufactured_problem((size,) * d, p=p)
            res = residual_field(ustar, spec)
            norms.append(np.max(np.abs(res.values)))
        for coarse, fine in zip(norms, norms[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_zero_state_without_coefficient_is_inadmissible(self):
        grid = TorusGrid((16, 16))
        u = GridFn(grid, np.zeros(grid.sizes))
        spec = EquationSpec(p=2, A_field=("zero",), rhs=("constant", 1.0))
        ok, report = admissible(u, spec)
        assert not ok
        assert "node" in report and "lam" in report
        # the node is printed as Python ints, not np.int64 reprs
        with pytest.raises(AdmissibilityError, match=r"at node \(0, 0\)$"):
            residual_field(u, spec)

    def test_admissibility_names_first_bad_node_and_its_eigenvalues(self):
        # oracle: eigvalsh + classify_batch over every node of c I + D^2 u
        from phessian.cone import ConeSpec, classify_batch

        grid = TorusGrid((16, 16))
        x1, x2 = grid.meshgrid()
        u = GridFn(grid, 0.6 * np.cos(x1) * np.cos(2 * x2))
        spec = EquationSpec(p=2, A_field=("conformal", 1.0), rhs=("constant", 1.0))
        B = np.eye(2) + np.moveaxis(periodic_hess(u.values, grid.h), (0, 1), (-2, -1))
        lam = np.linalg.eigvalsh(B.reshape(-1, 2, 2))
        bad = np.flatnonzero(classify_batch(lam, ConeSpec(2, 2)) != 2)
        assert 0 < len(bad) < lam.shape[0]
        ok, report = admissible(u, spec)
        assert not ok
        assert report["node"] == np.unravel_index(bad[0], grid.sizes)
        np.testing.assert_array_equal(report["lam"], lam[bad[0]])
        with pytest.raises(AdmissibilityError) as exc:
            residual_field(u, spec)
        assert exc.value.node == report["node"]

    def test_admissible_manufactured(self):
        spec, grid, ustar = manufactured_problem((32, 32))
        ok, report = admissible(ustar, spec)
        assert ok and report is None

    @pytest.mark.parametrize("sizes, p", [((16, 16), 3), ((16, 16), 0), ((8, 8, 8), 4)])
    def test_manufactured_p_outside_1_to_d_is_input_error_before_any_field(
        self, sizes, p, monkeypatch
    ):
        monkeypatch.setattr(solver, "TorusGrid", None)
        with pytest.raises(InputError, match="need 1 <= p <= n"):
            manufactured_problem(sizes, p=p)


class TestNewton:
    def test_converges_from_smooth_perturbation(self):
        spec, grid, ustar = manufactured_problem((64, 64), p=2)
        rng = np.random.default_rng(5)
        bump = smooth_perturbation(grid, rng, 0.05 * np.max(np.abs(ustar.values)))
        u0 = GridFn(grid, ustar.values + bump)
        sol, trace = newton_solve(spec, u0, tol=1e-9)
        assert 0 < len(trace) <= 12
        # every iterate in the trace improves the gauge-projected residual
        rnorms = [rec["residual"] for rec in trace]
        assert all(b < a for a, b in zip(rnorms, rnorms[1:])) or len(rnorms) == 1
        assert rnorms[-1] <= 1e-9
        # zero-mean gauge on the output
        assert abs(np.mean(sol.values)) <= 1e-12 * max(1.0, np.max(np.abs(sol.values)))
        # discrete solution is O(h^2) from the continuum one
        diff = sol.values - (ustar.values - np.mean(ustar.values))
        assert np.max(np.abs(diff - np.mean(diff))) < 5e-4

    def test_converges_in_3d_at_second_order(self):
        # p = 3 on 16^3 and 24^3 from a 5% perturbation: the discrete
        # solution's distance to u* falls like h^2, by (24/16)^2 = 2.25
        errors = []
        for size in (16, 24):
            spec, grid, ustar = manufactured_problem((size,) * 3, p=3)
            bump = smooth_perturbation(
                grid, np.random.default_rng(3), 0.05 * np.max(np.abs(ustar.values))
            )
            sol, trace = newton_solve(spec, GridFn(grid, ustar.values + bump), tol=1e-9)
            assert 0 < len(trace) <= 6
            assert trace[-1]["residual"] <= 1e-9
            assert all(rec["backtracks"] == 0 for rec in trace)
            diff = sol.values - ustar.values
            errors.append(np.max(np.abs(diff - np.mean(diff))))
        assert 2.0 <= errors[0] / errors[1] <= 2.5

    def test_solve_peak_memory_is_bounded_in_fields(self):
        # the traced peak of a 64^2 solve, counted in grid fields of
        # 8 * 64^2 bytes; holding F, G and H through the Krylov solve and
        # the line search, with np.roll matvecs, took 37.8
        import tracemalloc

        spec, grid, ustar = manufactured_problem((64, 64), p=2)
        bump = smooth_perturbation(grid, np.random.default_rng(1), 0.01)
        u0 = GridFn(grid, ustar.values + bump)
        newton_solve(spec, u0, tol=1e-12)  # numpy's first-call set-up
        tracemalloc.start()
        try:
            _, trace = newton_solve(spec, u0, tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) >= 2
        assert peak <= 32 * 8 * 64 * 64

    @pytest.mark.parametrize("sizes, p, fields", [((64, 64), 2, 15), ((16, 16, 16), 3, 36)])
    def test_linearization_peak_memory_is_bounded_in_fields(self, sizes, p, fields):
        # the traced peak of one linearization, in grid fields of 8 N bytes:
        # B is formed in D^2 u's planes and, at p = 2, F in B's.  With a
        # zero A field, a matrix-major copy of B, and F, G and H as new
        # arrays, the peaks were 24.1 and 58.1; a matrix-major copy of B
        # alone adds d^2 fields
        import tracemalloc

        from phessian.solver import _linearization_data

        spec, grid, ustar = manufactured_problem(sizes, p=p)
        bump = smooth_perturbation(grid, np.random.default_rng(1), 0.01)
        u = GridFn(grid, ustar.values + bump)
        _linearization_data(u, spec)  # numpy's first-call set-up
        tracemalloc.start()
        try:
            _linearization_data(u, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= fields * 8 * u.values.size

    def test_restart_at_solution_takes_no_steps(self):
        spec, grid, ustar = manufactured_problem((32, 32), p=2)
        rng = np.random.default_rng(6)
        u0 = GridFn(
            grid, ustar.values + smooth_perturbation(grid, rng, 0.05 * np.max(np.abs(ustar.values)))
        )
        sol, _ = newton_solve(spec, u0, tol=1e-9)
        _, trace = newton_solve(spec, sol, tol=1e-9)
        assert trace == []

    @pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan, np.inf])
    def test_tol_is_checked_before_any_evaluation(self, tol, monkeypatch):
        spec, _, ustar = manufactured_problem((16, 16))
        monkeypatch.setattr(solver, "_linearization_data", None)
        with pytest.raises(InputError, match="tol must be positive and finite"):
            newton_solve(spec, ustar, tol=tol)

    @pytest.mark.parametrize("A_field, rhs", [
        (("stored", np.ones((1, 3))), ("constant", 1.0)),
        (("paper_example", np.full((3, 3), 0.1)), ("constant", 1.0)),
        (("conformal", 1.0), ("stored", np.ones((8, 8)))),
        (("conformal", 1.0), ("paper_example", np.ones((16, 8)), 0.5)),
    ])
    def test_stored_field_of_the_wrong_shape_is_input_error(self, A_field, rhs):
        grid = TorusGrid((16, 16))
        spec = EquationSpec(p=2, A_field=A_field, rhs=rhs)
        with pytest.raises(InputError, match="shape"):
            newton_solve(spec, GridFn(grid, np.zeros(grid.sizes)))

    def test_constant_problem_takes_no_steps(self):
        grid = TorusGrid((16, 16))
        u0 = GridFn(grid, np.zeros(grid.sizes))
        target = float(sigma(2, [1.0, 1.0]) ** 0.5)
        spec = EquationSpec(p=2, A_field=("conformal", 1.0), rhs=("constant", target))
        sol, trace = newton_solve(spec, u0)
        assert trace == []
        assert np.max(np.abs(sol.values)) < 1e-12

    def test_max_iters_caps_trace(self):
        spec, grid, ustar = manufactured_problem((32, 32), p=2)
        rng = np.random.default_rng(7)
        u0 = GridFn(
            grid, ustar.values + smooth_perturbation(grid, rng, 0.05 * np.max(np.abs(ustar.values)))
        )
        # running out of iterations is a failure that carries the trace
        with pytest.raises(NonconvergenceError) as exc:
            newton_solve(spec, u0, tol=1e-14, max_iters=1)
        trace = exc.value.trace
        assert len(trace) == 1
        assert set(trace[0]) == {
            "iter", "residual", "raw_residual", "step", "krylov_iters", "backtracks",
            "linear_residual", "admissibility_margin",
        }
        # lgmres stops once |b - J s| <= KRYLOV_RTOL |b| (1e-8)
        assert 0.0 < trace[0]["linear_residual"] <= 1e-8
        # at u* = a cos x1 cos x2 the smallest sigma_2(lam(I + D^2 u*)) is
        # (1 - a)^2 = 0.64 (a = 0.2); one Newton step from a 5% bump is close
        assert 0.6 < trace[0]["admissibility_margin"] < 0.7

    def test_line_search_stall_names_residual_and_tol(self):
        # 1e-16 lies below the 32^2 stencils' rounding floor (~1e-15)
        spec, grid, _ = manufactured_problem((32, 32), p=2)
        with pytest.raises(NonconvergenceError, match="line search stalled") as exc:
            newton_solve(spec, GridFn(grid, np.zeros(grid.sizes)), tol=1e-16)
        trace = exc.value.trace
        assert trace and trace[-1]["residual"] > 1e-16
        msg = str(exc.value)
        assert f"residual {trace[-1]['residual']:.3e}" in msg
        assert "tol 1.000e-16" in msg
        assert "40 halvings" in msg

    def test_krylov_failure_raises_with_trace(self, monkeypatch):
        # the second linear solve gets one outer cycle of one inner step,
        # far short of KRYLOV_RTOL; its status must not be discarded
        real = solver.lgmres
        calls = []

        def starved(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                kwargs.update(maxiter=1, inner_m=1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "lgmres", starved)
        spec, grid, ustar = manufactured_problem((32, 32), p=2)
        rng = np.random.default_rng(7)
        u0 = GridFn(
            grid, ustar.values + smooth_perturbation(grid, rng, 0.05 * np.max(np.abs(ustar.values)))
        )
        with pytest.raises(NonconvergenceError, match="lgmres") as exc:
            newton_solve(spec, u0, tol=1e-12)
        assert len(calls) == 2
        assert [rec["iter"] for rec in exc.value.trace] == [0]

    def test_krylov_iterations_are_mesh_independent(self):
        # with the Fourier preconditioner the matvecs per Newton step stay
        # flat as h halves twice (unpreconditioned lgmres needs about 240 at
        # 64^2 and 860 at 256^2)
        worst = {}
        for size in (64, 256):
            spec, grid, ustar = manufactured_problem((size, size), p=2)
            rng = np.random.default_rng(8)
            bump = smooth_perturbation(grid, rng, 0.05 * np.max(np.abs(ustar.values)))
            _, trace = newton_solve(spec, GridFn(grid, ustar.values + bump), tol=1e-12)
            assert all(rec["backtracks"] == 0 for rec in trace)
            worst[size] = max(rec["krylov_iters"] for rec in trace)
        assert 0 < worst[256] <= min(2 * worst[64], 40)

    @staticmethod
    def anisotropic_problem(size):
        # stored A = diag(a, 1/a), a = 1 + 0.9 sin x1 cos 2x2: sigma_2(A) = 1,
        # so the frozen-mean preconditioner misses a factor-19 anisotropy
        grid = TorusGrid((size, size))
        x1, x2 = grid.meshgrid()
        a = 1.0 + 0.9 * np.sin(x1) * np.cos(2.0 * x2)
        A = np.zeros(grid.sizes + (2, 2))
        A[..., 0, 0] = a
        A[..., 1, 1] = 1.0 / a
        spec = EquationSpec(p=2, A_field=("stored", A), rhs=("constant", 1.0))
        return spec, grid, GridFn(grid, 0.2 * np.cos(x1) * np.cos(x2))

    def test_restarted_krylov_solve_converges(self):
        # each linear solve outgrows one 30-step cycle and restarts; the
        # bound 45 is below the 46-49 matvecs per step of LGMRES(30, 3)
        spec, grid, u0 = self.anisotropic_problem(64)
        sol, trace = newton_solve(spec, u0, tol=1e-10)
        assert trace and trace[-1]["residual"] <= 1e-10
        iters = [rec["krylov_iters"] for rec in trace]
        assert max(iters) > 30
        assert max(iters) <= 45
        assert all(0.0 < rec["linear_residual"] <= 1e-8 for rec in trace)

    @pytest.mark.parametrize("problem", ["manufactured", "anisotropic"])
    def test_linear_residual_is_true_residual(self, problem, monkeypatch):
        # the trace's linear_residual is |b - P J P x|/|b| of the returned
        # step, P the zero-mean gauge, recomputed here with the stencil J
        # built from the linearization the solve was given
        if problem == "manufactured":
            spec, grid, ustar = manufactured_problem((32, 32), p=2)
            bump = smooth_perturbation(grid, np.random.default_rng(7), 0.01)
            u0 = GridFn(grid, ustar.values + bump)
        else:
            spec, grid, u0 = self.anisotropic_problem(32)
        real_lin, real_lgmres = solver._linearization_data, solver.lgmres
        latest, solves = [], []

        def linearization(*args):
            out = real_lin(*args)
            latest[:] = out[1:4]
            return out

        def spy(matvec, b, **kwargs):
            x, info, r_norm = real_lgmres(matvec, b, **kwargs)
            solves.append((b.copy(), x.copy(), tuple(latest)))
            return x, info, r_norm

        monkeypatch.setattr(solver, "_linearization_data", linearization)
        monkeypatch.setattr(solver, "lgmres", spy)
        _, trace = newton_solve(spec, u0, tol=1e-10)
        assert len(trace) == len(solves) >= 2

        def project(f):
            return f - np.mean(f)

        def norm(v):
            return np.sqrt(np.einsum("i,i->", v, v))

        for rec, (b, x, (F, G, H)) in zip(trace, solves):
            s = project(x.reshape(grid.sizes))
            J = _jacobian_stencil(F, G, H, grid.h, grid.sizes)
            r = b - project(J(s)).ravel()
            assert rec["linear_residual"] == norm(r) / norm(b)

    @pytest.mark.parametrize(
        "A_field, rhs, start, exact",
        [
            # sigma_2^{1/2}(1, 1) = 1 = 0.3 e^{u/2} * 2
            (("conformal", 1.0), ("paper_example", 0.3, 0.5), 0.0,
             2.0 * np.log(1.0 / 0.6)),
            # sigma_2^{1/2}((1 - e^u)(1, 1)) = 1 - e^u = 0.2
            (("paper_example", 0.1), ("constant", 0.2), -0.5, np.log(0.8)),
        ],
    )
    def test_u_dependent_equation_reaches_exact_constant(self, A_field, rhs, start, exact):
        # the equation is not invariant under adding constants, so Newton
        # must drive the raw residual to zero, without a zero-mean gauge
        grid = TorusGrid((32, 32))
        spec = EquationSpec(p=2, A_field=A_field, rhs=rhs)
        sol, trace = newton_solve(spec, GridFn(grid, np.full(grid.sizes, start)))
        assert 0 < len(trace) <= 8
        assert trace[-1]["raw_residual"] <= 1e-9
        assert np.max(np.abs(sol.values - exact)) <= 1e-9
        assert np.max(np.abs(residual_field(sol, spec).values)) <= 1e-9


@pytest.mark.parametrize("shape", STENCIL_SHAPES)
def test_jacobian_stencil_matches_roll_oracle(shape):
    """The stencil's matvec equals einsum(F, D^2 s) + G.Ds + H s of the np.roll
    oracle to 1e-13 relative in sup norm, with SPD F, G and H <= 0 varying
    node to node; each call returns a new array, so an earlier result
    survives the next call."""
    d = len(shape)
    rng = np.random.default_rng(10 + d)
    h = tuple(rng.uniform(0.05, 1.0, size=d))
    X = rng.normal(size=shape + (d, d))
    F = X @ np.swapaxes(X, -1, -2) + 0.1 * np.eye(d)
    G = rng.normal(size=(d,) + shape)
    H = -rng.uniform(0.0, 2.0, size=shape)
    J = _jacobian_stencil(F, G, H, h, shape)
    s1, s2 = rng.normal(size=(2,) + shape)
    out1 = J(s1)
    out2 = J(s2)
    for s, out in ((s1, out1), (s2, out2)):
        want = roll_jacobian(s, F, G, H, h)
        assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))


class TestFourierPreconditioner:
    """The preconditioner inverts the stencil Jacobian exactly when F, G and
    H are constant; roll_jacobian (np.roll differences and einsums, in
    tests/oracles.py) is the oracle."""

    @pytest.mark.parametrize("sizes", [(16, 20), (8, 10, 9)])
    @pytest.mark.parametrize("gauge", [True, False])
    def test_inverts_constant_coefficient_jacobian(self, sizes, gauge):
        grid = TorusGrid(sizes)
        d = grid.d
        rng = np.random.default_rng(len(sizes) + 10 * gauge)
        X = rng.normal(size=(d, d))
        Fc = X @ X.T + 0.5 * np.eye(d)
        assert np.min(np.abs(Fc[np.triu_indices(d, 1)])) > 1e-2
        F = np.broadcast_to(Fc, sizes + (d, d))
        G = rng.normal(size=d).reshape((d,) + (1,) * d) * np.ones((d,) + sizes)
        # zero-mean gauge: H = 0 and the constant mode is J's kernel
        H = np.zeros(sizes) if gauge else np.full(sizes, -rng.uniform(0.5, 2.0))
        r = rng.normal(size=sizes)
        x = _fourier_preconditioner(F, G, H, grid.h)(r.ravel())
        back = roll_jacobian(x.reshape(sizes), F, G, H, grid.h)
        want = r - np.mean(r) if gauge else r
        assert np.max(np.abs(back - want)) <= 1e-10


def closed_form_inverse(Fc, Gc, Hc, h, sizes):
    """1/symbol of the frozen stencil Jacobian on rfftn's modes, written
    out from the central differences' symbols at angles theta:

        - sum_j F_jj 4 sin^2(theta_j/2)/h_j^2
        - sum_{j != k} F_jk sin(theta_j) sin(theta_k)/(h_j h_k)
        + i sum_j G_j sin(theta_j)/h_j + H,

    with the zero symbol (the kernel under the gauge) dropped."""
    d = len(sizes)
    freqs = [np.fft.fftfreq(n) for n in sizes[:-1]] + [np.fft.rfftfreq(sizes[-1])]
    theta = np.meshgrid(*(2.0 * np.pi * f for f in freqs), indexing="ij", sparse=True)
    half = [2.0 * np.sin(t / 2.0) / hj for t, hj in zip(theta, h)]
    odd = [np.sin(t) / hj for t, hj in zip(theta, h)]
    symbol = complex(Hc)
    for j in range(d):
        symbol = symbol - Fc[j, j] * half[j] ** 2 + 1j * Gc[j] * odd[j]
        for k in range(d):
            if k != j:
                symbol = symbol - Fc[j, k] * odd[j] * odd[k]
    inverse = np.zeros_like(symbol)
    np.divide(1.0, symbol, out=inverse, where=symbol != 0)
    return inverse


@pytest.mark.parametrize(
    "sizes", [(8,), (9,), (10, 8), (9, 11), (8, 10, 9), (9, 8, 10)]
)
@pytest.mark.parametrize("gauge", [True, False])
def test_preconditioner_symbol_is_closed_form(sizes, gauge):
    """The symbol the preconditioner derives from the stencils' impulse
    response equals the closed form, constant coefficients with cross
    terms, even and odd sizes; under the gauge the zero mode is dropped."""
    grid = TorusGrid(sizes)
    d = grid.d
    rng = np.random.default_rng(sum(sizes) + 100 * gauge)
    X = rng.normal(size=(d, d))
    Fc = X @ X.T + 0.5 * np.eye(d)
    Gc = rng.normal(size=d)
    Hc = 0.0 if gauge else -rng.uniform(0.5, 2.0)
    F = np.broadcast_to(Fc, sizes + (d, d))
    G = Gc.reshape((d,) + (1,) * d) * np.ones((d,) + sizes)
    r = rng.normal(size=sizes)
    x = _fourier_preconditioner(F, G, np.full(sizes, Hc), grid.h)(r.ravel())
    inverse = closed_form_inverse(Fc, Gc, Hc, grid.h, sizes)
    axes = tuple(range(d))
    want = np.fft.irfftn(np.fft.rfftn(r) * inverse, s=sizes, axes=axes).ravel()
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


class TestLgmres:
    """lgmres on a small dense nonsymmetric system (condition number about
    6) with a Jacobi preconditioner; np.linalg.solve is the oracle."""

    @staticmethod
    def system(n=30):
        rng = np.random.default_rng(0)
        A = 4.0 * np.eye(n) + 0.5 * rng.normal(size=(n, n))
        return A, rng.normal(size=n), np.diag(A).copy()

    @pytest.mark.parametrize("inner_m", [30, 2])
    def test_matches_dense_solve(self, inner_m, monkeypatch):
        A, b, diag = self.system()
        arnoldi = solver._arnoldi
        cycles = []

        def recorded(*args):
            cycles.append(1)
            return arnoldi(*args)

        monkeypatch.setattr(solver, "_arnoldi", recorded)
        x, info, r_norm = solver.lgmres(
            lambda v: A @ v, b, M=lambda r: r / diag, rtol=1e-10, maxiter=1000,
            inner_m=inner_m,
        )
        assert info == 0
        assert np.linalg.norm(A @ x - b) <= 1.0001e-10 * np.linalg.norm(b)
        assert np.max(np.abs(x - np.linalg.solve(A, b))) <= 1e-9
        # the returned norm is the true residual of the returned x
        r = b - A @ x
        assert r_norm == np.sqrt(np.einsum("i,i->", r, r))
        # two steps per cycle force restarts; 30 steps need one cycle
        assert len(cycles) >= 5 if inner_m == 2 else len(cycles) == 1

    @pytest.mark.parametrize("inner_m", [30, 2])
    def test_no_matvec_of_zero(self, inner_m):
        # the first cycle's residual from x = 0 is -b, taken without J 0
        A, b, diag = self.system()
        inputs = []

        def matvec(v):
            inputs.append(v.copy())
            return A @ v

        x, info, _ = solver.lgmres(
            matvec, b, M=lambda r: r / diag, rtol=1e-10, maxiter=1000, inner_m=inner_m
        )
        assert info == 0 and inputs
        assert all(np.any(v) for v in inputs)
        assert np.max(np.abs(x - np.linalg.solve(A, b))) <= 1e-9

    def test_zero_rhs_returns_zero(self):
        A, b, diag = self.system()

        def matvec(v):
            raise AssertionError("no matvec for b = 0")

        x, info, r_norm = solver.lgmres(
            matvec, np.zeros_like(b), M=lambda r: r / diag, rtol=1e-10, maxiter=10
        )
        assert info == 0 and r_norm == 0.0
        assert x.shape == b.shape and not np.any(x)

    def test_starved_solve_reports_maxiter(self):
        A, b, diag = self.system()
        for maxiter in (1, 3):
            x, info, _ = solver.lgmres(
                lambda v: A @ v, b, M=lambda r: r / diag, rtol=1e-10,
                maxiter=maxiter, inner_m=1,
            )
            assert info == maxiter
            assert np.all(np.isfinite(x))
            assert np.linalg.norm(A @ x - b) > 1e-10 * np.linalg.norm(b)

    def test_zero_preconditioner_output_is_failure(self):
        A, b, _ = self.system()
        x, info, _ = solver.lgmres(
            lambda v: A @ v, b, M=lambda r: 0.0 * r, rtol=1e-10, maxiter=10
        )
        assert info == 1
        assert not np.any(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rhs_raises(self, bad):
        A, b, _ = self.system()
        b[3] = bad
        with pytest.raises(ValueError, match="finite"):
            solver.lgmres(lambda v: A @ v, b, M=lambda r: r, rtol=1e-10, maxiter=10)

    @pytest.mark.parametrize("maxiter, inner_m", [(0, 30), (1, 0)])
    def test_no_cycle_is_rejected(self, maxiter, inner_m):
        # maxiter = 0 used to report convergence (info 0) with x = 0
        A, b, diag = self.system()
        with pytest.raises(ValueError, match=">= 1"):
            solver.lgmres(
                lambda v: A @ v, b, M=lambda r: r / diag, rtol=1e-10,
                maxiter=maxiter, inner_m=inner_m,
            )


def every_node_extremes(u, spec):
    """(max lam_n, min lam_1) of A + D^2 u from an eigensolve at every
    node, each matrix formed matrix-major as A + D^2 u."""
    d = u.grid.d
    A = _coefficient_A(spec, u.values, periodic_grad(u.values, u.grid.h))[0]
    if A is None or np.ndim(A) < d + 2:  # zero, or the factor c of A = c I
        A = np.multiply.outer(0.0 if A is None else A, np.eye(d))
    B = A + np.moveaxis(periodic_hess(u.values, u.grid.h), (0, 1), (-2, -1))
    lam = jacobi_eigh(B.reshape(-1, d, d))
    return float(np.max(lam[:, -1])), float(np.min(lam[:, 0]))


def monitor_states():
    """name -> (u, spec) for the eigenvalue-extreme oracle."""
    out = {}
    for sizes, p in (((64, 64), 2), ((12, 12, 12), 3), ((8,) * 5, 3), ((16,), 1)):
        spec, grid, ustar = manufactured_problem(sizes, p=p)
        bump = smooth_perturbation(grid, np.random.default_rng(len(sizes)), 0.01)
        out[f"manufactured_{len(sizes)}d"] = (GridFn(grid, ustar.values + bump), spec)
        out[f"manufactured_{len(sizes)}d_exact"] = (ustar, spec)
    grid = TorusGrid((16, 16))
    out["constant"] = (GridFn(grid, np.full(grid.sizes, 0.7)),
                       EquationSpec(p=2, A_field=("conformal", 2.0), rhs=("constant", 1.0)))
    out["zero"] = (GridFn(grid, np.full(grid.sizes, 0.7)),
                   EquationSpec(p=2, A_field=("zero",), rhs=("constant", 1.0)))
    x1, x2 = grid.meshgrid()
    out["paper_example_A"] = (GridFn(grid, -0.5 + 0.05 * np.cos(x1) * np.cos(x2)),
                              EquationSpec(p=2, A_field=("paper_example", 0.1),
                                           rhs=("constant", 0.2)))
    spec, grid, ustar = manufactured_problem((32, 32), p=2)
    spike = ustar.values.copy()
    spike[5, 9] += 3.0
    out["spike"] = (GridFn(grid, spike), spec)
    x1, x2 = grid.meshgrid()
    a = 1.0 + 0.9 * np.sin(x1) * np.cos(2.0 * x2)
    A = np.zeros(grid.sizes + (2, 2))
    A[..., 0, 0], A[..., 1, 1] = a, 1.0 / a
    out["stored"] = (GridFn(grid, 0.2 * np.cos(x1) * np.cos(x2)),
                     EquationSpec(p=2, A_field=("stored", A), rhs=("constant", 1.0)))
    return out


MONITOR_STATES = monitor_states()


class TestMonitors:
    @pytest.mark.parametrize("name", MONITOR_STATES)
    def test_eigenvalue_extremes_equal_every_node_eigensolve(self, name, monkeypatch):
        # bound and verify: the extremes are those of an eigensolve at every
        # node, bit for bit, ties (constant), d = 1 and a spike included;
        # off the ties only a few nodes are solved
        u, spec = MONITOR_STATES[name]
        solved = []

        def spy(M):
            solved.append(len(M))
            return jacobi_eigh(M)

        monkeypatch.setattr(spectral, "jacobi_eigh", spy)
        rep = monitors(u, spec)
        assert (rep.max_lambda_n, rep.min_lambda_1) == every_node_extremes(u, spec)
        if name.startswith("manufactured_2d") or name == "spike":
            assert sum(solved) <= u.values.size // 100

    def test_constant_state(self):
        grid = TorusGrid((16, 16))
        u = GridFn(grid, np.full(grid.sizes, 0.7))
        spec = EquationSpec(p=2, A_field=("conformal", 2.0), rhs=("constant", 1.0))
        rep = monitors(u, spec)
        assert rep.osc_u == 0.0
        assert rep.max_grad == 0.0
        assert rep.max_hess == 0.0
        assert rep.max_lambda_n == pytest.approx(2.0, abs=1e-12)
        assert rep.min_lambda_1 == pytest.approx(2.0, abs=1e-12)

    def test_manufactured_state(self):
        spec, grid, ustar = manufactured_problem((64, 64), p=2, amplitude=0.2)
        rep = monitors(ustar, spec)
        assert rep.osc_u == pytest.approx(0.4, abs=1e-6)
        # |grad u*| peaks at 0.2 for u* = 0.2 cos x1 cos x2
        assert rep.max_grad == pytest.approx(0.2, abs=5e-3)
        assert rep.min_lambda_1 > 0.0


class TestAuxiliary:
    def test_constant_field_second_order(self):
        grid = TorusGrid((16, 16))
        u = GridFn(grid, np.full(grid.sizes, 0.3))
        spec = EquationSpec(p=2, A_field=("conformal", 1.0), rhs=("constant", 1.0))
        aux = AuxiliarySpec(eta=("linear", 2.0), zeta=("linear", 1.0))
        phi, node = auxiliary_field(u, u, spec, aux, "second_order")
        assert np.allclose(phi.values, np.log(2.0))
        assert node == (0, 0)

    def test_constant_field_first_order(self):
        grid = TorusGrid((16, 16))
        u = GridFn(grid, np.full(grid.sizes, 0.3))
        spec = EquationSpec(p=2, A_field=("conformal", 1.0), rhs=("constant", 1.0))
        aux = AuxiliarySpec(zeta=("linear", 2.0))
        phi, _ = auxiliary_field(u, u, spec, aux, "first_order")
        assert np.allclose(phi.values, 0.6)

    def test_argmax_matches_brute_scan(self):
        spec, grid, ustar = manufactured_problem((32, 32))
        aux = AuxiliarySpec(eta=("exp", 0.5), zeta=("linear", 1.0))
        ubar = GridFn(grid, 0.5 * ustar.values)
        phi, node = auxiliary_field(ustar, ubar, spec, aux, "second_order")
        assert node == np.unravel_index(int(np.argmax(phi.values)), grid.sizes)

    def test_log_argument_must_stay_positive(self):
        grid = TorusGrid((16, 16))
        u = GridFn(grid, np.zeros(grid.sizes))
        spec = EquationSpec(p=2, A_field=("conformal", -2.0), rhs=("constant", 1.0))
        aux = AuxiliarySpec()
        with pytest.raises(ValueError, match="node"):
            auxiliary_field(u, u, spec, aux, "second_order")

    def test_aux_coefficients_must_be_positive(self):
        grid = TorusGrid((16, 16))
        u = GridFn(grid, np.zeros(grid.sizes))
        spec = EquationSpec(p=2, A_field=("conformal", 1.0), rhs=("constant", 1.0))
        aux = AuxiliarySpec(zeta=("linear", -1.0))
        with pytest.raises(ValueError):
            auxiliary_field(u, u, spec, aux, "first_order")


class TestPseudoCheck:
    def test_identical_pair_satisfies_both_sides(self):
        spec, grid, ustar = manufactured_problem((32, 32), p=2)
        cfg = PseudoCheckConfig(delta1=0.1, M1=10.0, delta2=0.5, M2=1.0, ubar=ustar)
        rep = pseudo_check(ustar, cfg, spec)
        assert rep.sub_violations == 0
        assert rep.super_violations == 0
        # with u == ubar the supersolution side is sigma_n(delta2 * 1) = delta2^n
        assert rep.worst_super_slack == pytest.approx(1.0 - 0.5**2, abs=1e-12)
        assert rep.super_nodes == 32 * 32

    def test_gates_exclude_nodes(self):
        spec, grid, ustar = manufactured_problem((32, 32), p=2)
        x1, _ = grid.meshgrid()
        ubar = GridFn(grid, ustar.values + 0.8 * np.cos(x1))
        cfg = PseudoCheckConfig(delta1=0.1, M1=50.0, delta2=0.2, M2=5.0, ubar=ubar)
        rep = pseudo_check(ustar, cfg, spec)
        assert 0 <= rep.super_nodes < 32 * 32

    @pytest.mark.parametrize("p", [1, 2])
    def test_coefficient_coupling_matches_directional_derivative(self, p):
        # With A = (1 - e^u - phi_tilde |du|^2) I the subsolution side's lhs
        # is the derivative at eps = 0 of sigma_p^{1/p}(lam(A(du + eps dw,
        # u) + D^2 u + eps D^2 w)), w = ubar - u; oracle: central differences
        # of eigenvalues, and F assembled from an eigendecomposition
        from phessian.symfun import sigma_root_grad

        grid = TorusGrid((32, 32))
        x1, x2 = grid.meshgrid()
        u = GridFn(grid, -1.0 + 0.2 * np.cos(x1) * np.cos(x2))
        w = 0.3 * np.sin(x1) * np.cos(2.0 * x2) + 0.2 * np.cos(x1 + x2)
        ubar = GridFn(grid, u.values + w)
        # large enough that the coupling term moves the worst slack
        phi_tilde = 5.0
        spec = EquationSpec(
            p=p, A_field=("paper_example", phi_tilde), rhs=("constant", 0.3)
        )
        cfg = PseudoCheckConfig(delta1=0.1, M1=2.0, delta2=0.5, M2=1.0, ubar=ubar)
        rep = pseudo_check(u, cfg, spec)

        h = grid.h
        du, d2u = periodic_grad(u.values, h), periodic_hess(u.values, h)
        dw, d2w = periodic_grad(w, h), periodic_hess(w, h)

        def matrices(eps):
            g = du + eps * dw
            a = 1.0 - np.exp(u.values) - phi_tilde * np.sum(g**2, axis=0)
            m = np.moveaxis(d2u + eps * d2w, (0, 1), (-2, -1)).copy()
            m[..., 0, 0] += a
            m[..., 1, 1] += a
            return m.reshape(-1, 2, 2)

        def root(eps):
            return sigma(p, np.linalg.eigvalsh(matrices(eps))) ** (1.0 / p)

        eps = 1e-5
        lhs = (root(eps) - root(-eps)) / (2.0 * eps)
        lam, Q = np.linalg.eigh(matrices(0.0))
        _, grad = sigma_root_grad(p, lam)
        F = np.einsum("njk,nk,nlk->njl", Q, grad, Q)
        rhs = (
            cfg.delta1 * np.trace(F, axis1=1, axis2=2)
            - cfg.M1 * np.linalg.eigvalsh(F)[:, 0]
            - cfg.M1
        )
        assert rep.worst_sub_slack == pytest.approx(np.min(lhs - rhs), abs=1e-6)

    def test_config_validation(self):
        spec, grid, ustar = manufactured_problem((32, 32))
        with pytest.raises(ValueError):
            PseudoCheckConfig(delta1=-1.0, M1=1.0, delta2=0.5, M2=1.0, ubar=ustar)


class TestAlexandrov:
    def test_quadratic_equality(self):
        prob = AlexandrovProblem(
            center=(0.0, 0.0), d=1.0, resolution=129,
            w=lambda pts: np.sum(pts**2, axis=-1), eps=0.9,
        )
        lhs, rhs, contact = alexandrov_check(prob)
        # for w = |x|^2 the bound is an equality up to quadrature error
        assert 0.98 <= lhs / rhs <= 1.02
        assert contact.any()

    def test_strictly_convex_slack(self):
        prob = AlexandrovProblem(
            center=(0.0, 0.0), d=1.0, resolution=65,
            w=lambda pts: np.sum(pts**2, axis=-1) ** 2 + np.sum(pts**2, axis=-1),
            eps=0.3,
        )
        lhs, rhs, _ = alexandrov_check(prob)
        assert lhs <= rhs

    @pytest.mark.parametrize("per_chunk", [1, 7])
    def test_chunked_plane_test_matches_brute_force(self, per_chunk, monkeypatch):
        # w is not convex: 38 of its 87 candidates have no supporting plane
        res, eps = 33, 0.4

        def w(pts):
            return np.sum(pts**2, axis=-1) + 0.1 * np.cos(5.0 * pts[:, 0])

        axis = np.linspace(-1.0, 1.0, res)
        pts = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], -1)
        wv = w(pts)
        g = np.stack(np.gradient(wv.reshape(res, res), axis[1] - axis[0], edge_order=2), -1)
        g = g.reshape(-1, 2)
        ball = np.hypot(pts[:, 0], pts[:, 1]) < 1.0
        want = np.zeros(res * res, dtype=bool)
        for x in np.flatnonzero(ball & (np.hypot(g[:, 0], g[:, 1]) < eps)):
            plane = wv[x] + (pts[ball, 0] - pts[x, 0]) * g[x, 0] + (
                pts[ball, 1] - pts[x, 1]
            ) * g[x, 1]
            want[x] = np.all(wv[ball] >= plane - 1e-10)
        assert 0 < want.sum() < np.sum(ball & (np.hypot(g[:, 0], g[:, 1]) < eps))

        monkeypatch.setattr(solver, "PLANE_TEST_ELEMENTS", per_chunk * ball.sum())
        prob = AlexandrovProblem(center=(0.0, 0.0), d=1.0, resolution=res, w=w, eps=eps)
        _, _, contact = alexandrov_check(prob, quad_tol=1.0)
        assert np.array_equal(contact.ravel(), want)

    @pytest.mark.parametrize("field, value", [
        ("resolution", 8), ("d", 0.0), ("eps", 0.0), ("eps", np.nan),
        ("d", np.nan), ("d", np.inf),
    ])
    def test_problem_validation(self, field, value):
        kwargs = dict(center=(0.0, 0.0), d=1.0, resolution=9,
                      w=lambda pts: np.sum(pts**2, axis=-1), eps=0.5)
        AlexandrovProblem(**kwargs)
        with pytest.raises(ValueError):
            AlexandrovProblem(**{**kwargs, field: value})

    def test_linear_w_has_no_admissible_eps(self):
        prob = AlexandrovProblem(
            center=(0.0, 0.0), d=1.0, resolution=33,
            w=lambda pts: pts[:, 0], eps=0.1,
        )
        with pytest.raises(ValueError, match="eps"):
            alexandrov_check(prob)

    def test_failed_bound_raises_under_optimize(self):
        # the bound check must survive python -O, which strips asserts
        script = (
            "import numpy as np\n"
            "from phessian.errors import VerificationError\n"
            "from phessian.solver import AlexandrovProblem, alexandrov_check\n"
            "prob = AlexandrovProblem(center=(0.0, 0.0), d=1.0, resolution=33,\n"
            "    w=lambda pts: np.sum(pts**2, axis=-1), eps=0.5)\n"
            "try:\n"
            "    alexandrov_check(prob, quad_tol=-0.5)\n"
            "except VerificationError as exc:\n"
            "    print('raised', exc.lhs > exc.rhs * 0.5)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised True"

    def test_unit_ball_volume(self):
        assert unit_ball_volume(2) == pytest.approx(np.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0)


@pytest.mark.parametrize("sizes, p", [
    ((16, 16), 1), ((16, 16), 2), ((8, 8, 8), 1), ((8, 8, 8), 2), ((8, 8, 8), 3),
])
def test_linearization_F_matches_eigh_assembly(sizes, p):
    # F = (1/p) sigma_p^{1/p-1} T_{p-1}(B) against Q diag(df/dlam) Q^T
    from phessian.solver import _linearization_data
    from phessian.symfun import sigma_root_grad

    grid = TorusGrid(sizes)
    mesh = grid.meshgrid()
    u = GridFn(grid, 0.1 * np.cos(mesh[0]) * np.sin(mesh[1] + mesh[-1]))
    spec = EquationSpec(p=p, A_field=("conformal", 1.0), rhs=("constant", 1.0))
    _, F, _, _, _, margin = _linearization_data(u, spec)
    d = grid.d
    B = np.eye(d) + np.moveaxis(periodic_hess(u.values, grid.h), (0, 1), (-2, -1))
    w, Q = np.linalg.eigh(B.reshape(-1, d, d))
    _, g = sigma_root_grad(p, w)
    ref = np.einsum("njk,nk,nlk->njl", Q, g, Q)
    err = np.abs(F.reshape(-1, d, d) - ref) / np.max(np.abs(ref), axis=(1, 2))[:, None, None]
    assert np.max(err) <= 1e-10
    assert margin == pytest.approx(np.min(sigma(p, w)), rel=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_linearization_data_F_is_batched_linearization(p):
    # the solver's F field and spectral.linearization under the identity
    # metric are one formula: they differ only by linearization's final
    # symmetrization
    from phessian.solver import _linearization_data
    from phessian.spectral import linearization

    grid = TorusGrid((10, 9, 8))
    mesh = grid.meshgrid()
    u = GridFn(grid, 0.1 * np.cos(mesh[0]) * np.sin(mesh[1] + mesh[2]))
    spec = EquationSpec(p=p, A_field=("conformal", 1.0), rhs=("constant", 1.0))
    _, F, _, _, _, _ = _linearization_data(u, spec)
    B = np.eye(3) + np.moveaxis(periodic_hess(u.values, grid.h), (0, 1), (-2, -1))
    ref = linearization(p, np.eye(3), B)
    assert ref.shape == F.shape
    scale = np.max(np.abs(ref), axis=(-2, -1))[..., None, None]
    assert np.max(np.abs(F - ref) / scale) <= 1e-14


class TestCatalogDerivatives:
    """The analytic t/alpha derivatives of the catalog entries must match
    a directional finite difference of the full residual."""

    def check_jacobian(self, spec, u, seed):
        from phessian.solver import _linearization_data

        grid = u.grid
        rng = np.random.default_rng(seed)
        s = smooth_perturbation(grid, rng, 1.0)
        _, F, G, H, _, _ = _linearization_data(u, spec)
        js = _jacobian_stencil(F, G, H, grid.h, grid.sizes)(s)
        eps = 1e-6
        rp = residual_field(GridFn(grid, u.values + eps * s), spec).values
        rm = residual_field(GridFn(grid, u.values - eps * s), spec).values
        fd = (rp - rm) / (2 * eps)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(js - fd)) <= 1e-5 * scale

    def test_coefficient_example(self):
        grid = TorusGrid((32, 32))
        x1, x2 = grid.meshgrid()
        u = GridFn(grid, -0.5 + 0.05 * np.cos(x1) * np.cos(x2))
        spec = EquationSpec(
            p=2, A_field=("paper_example", 0.1), rhs=("constant", 0.2)
        )
        ok, _ = admissible(u, spec)
        assert ok
        self.check_jacobian(spec, u, seed=0)

    def test_rhs_example(self):
        grid = TorusGrid((32, 32))
        x1, x2 = grid.meshgrid()
        u = GridFn(grid, 0.05 * np.cos(x1) * np.cos(x2))
        spec = EquationSpec(
            p=2,
            A_field=("conformal", 1.0),
            rhs=("paper_example", 0.3, 0.5),
        )
        assert admissible(u, spec)[0]
        self.check_jacobian(spec, u, seed=1)

    def test_both_examples_together(self):
        grid = TorusGrid((32, 32))
        x1, x2 = grid.meshgrid()
        u = GridFn(grid, -0.5 + 0.05 * np.cos(x1) * np.cos(x2))
        spec = EquationSpec(
            p=2,
            A_field=("paper_example", 0.05),
            rhs=("paper_example", 0.1, 1.0),
        )
        assert admissible(u, spec)[0]
        self.check_jacobian(spec, u, seed=2)


class TestSerialization:
    def test_grid_csv_roundtrip(self):
        spec, grid, ustar = manufactured_problem((32, 32))
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "u.csv")
            save_grid_csv(path, ustar)
            back = load_grid_csv(path)
            with open(path) as fh:
                head = fh.readline().strip().split(",")
            assert head[0] == "2" and head[1] == "32"
        assert back.grid.sizes == grid.sizes
        assert np.array_equal(back.values, ustar.values)

    def test_grid_csv_body_is_per_value_format(self):
        # one line per node, each format(v, ".17g"): signed zero, the
        # smallest subnormal, a huge, a non-dyadic and a tiny value
        grid = TorusGrid((8, 8))
        values = np.linspace(-1.0, 1.0, 64).reshape(grid.sizes)
        values.flat[:5] = [-0.0, 5e-324, 1e300, 0.1, 1e-300]
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "u.csv")
            save_grid_csv(path, GridFn(grid, values))
            with open(path) as fh:
                fh.readline()
                body = fh.read()
            back = load_grid_csv(path)
        assert body == "".join(format(v, ".17g") + "\n" for v in values.ravel())
        assert body.startswith(
            "-0\n4.9406564584124654e-324\n1.0000000000000001e+300\n0.10000000000000001\n"
            "1e-300\n"
        )
        assert np.array_equal(back.values, values)
        assert np.signbit(back.values.flat[0])

    def test_problem_json_roundtrip(self):
        # every kind of both tables, each A with each right side, parameters
        # as numbers and as arrays over the nodes; every parameter comes back
        field = np.linspace(0.5, 1.5, 64).reshape(8, 8)
        A_fields = [("zero",), ("conformal", 1.5), ("paper_example", 0.1),
                    ("paper_example", 0.1 * field),
                    ("stored", np.broadcast_to(1.25 * np.eye(2), (8, 8, 2, 2)))]
        rhss = [("constant", 2.0), ("stored", field), ("paper_example", 0.3, 0.5),
                ("paper_example", 0.3 * field, -0.25), ("paper_example", 0.3)]
        assert {t[0] for t in A_fields} == set(CATALOG["A"])
        assert {t[0] for t in rhss} == set(CATALOG["rhs"])
        with tempfile.TemporaryDirectory() as td:
            for i, (A_field, rhs) in enumerate(
                (A_field, rhs) for A_field in A_fields for rhs in rhss
            ):
                spec = EquationSpec(p=1 + i % 2, A_field=A_field, rhs=rhs)
                path = os.path.join(td, f"p{i}.json")
                save_problem_json(path, spec)
                back = load_problem_json(path)
                assert back.p == spec.p
                for got, want in ((back.A_field, spec.A_field), (back.rhs, spec.rhs)):
                    assert got[0] == want[0] and len(got) == len(want)
                    for g, w in zip(got[1:], want[1:]):
                        assert np.array_equal(np.asarray(g), np.asarray(w))
        # an omitted t_coeff is filled in once, when the spec is made
        spec = EquationSpec(p=2, rhs=("paper_example", 0.3))
        assert spec.rhs == ("paper_example", 0.3, 0.0)

    def test_stored_rhs_roundtrip(self):
        spec, grid, ustar = manufactured_problem((16, 16))
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "stored.json")
            save_problem_json(path, spec)
            back = load_problem_json(path)
        assert np.allclose(np.asarray(back.rhs[1]), np.asarray(spec.rhs[1]))
        res = residual_field(ustar, back)
        assert np.max(np.abs(res.values)) < 1e-2

    @pytest.mark.parametrize("rhs", [
        ("constant", 0.0),
        ("stored", np.array([[1.0, 0.0], [1.0, 1.0]])),
        ("stored", -1.0),
        ("stored", np.array([1.0, np.nan])),
        ("stored", np.array([1.0, np.inf])),
        ("paper_example", 0.0, 0.5),
        ("paper_example", np.array([0.3, -0.1])),
        ("paper_example", np.inf, 0.5),
    ])
    def test_spec_rejects_a_right_side_not_positive_and_finite(self, rhs):
        # checked once, when the spec is made, before any grid is seen
        with pytest.raises(InputError, match="must be positive and finite"):
            EquationSpec(p=2, A_field=("conformal", 1.0), rhs=rhs)

    @pytest.mark.parametrize("A_field, rhs, named", [
        (("conformal", np.nan), ("constant", 1.0), "coefficient A"),
        (("conformal", -np.inf), ("constant", 1.0), "coefficient A"),
        (("paper_example", np.array([0.1, np.nan])), ("constant", 1.0), "coefficient A"),
        (("stored", np.where(np.arange(8).reshape(2, 2, 2) == 3, np.nan, 1.0)),
         ("constant", 1.0), "coefficient A"),
        (("conformal", 1.0), ("paper_example", 0.3, np.inf), "t_coeff"),
        (("conformal", 1.0), ("paper_example", 0.3, np.nan), "t_coeff"),
    ])
    def test_spec_rejects_a_non_finite_parameter(self, A_field, rhs, named):
        with pytest.raises(InputError, match=f"{named} must be finite"):
            EquationSpec(p=2, A_field=A_field, rhs=rhs)

    @pytest.mark.parametrize("A_field, rhs, message", [
        (("bogus",), ("constant", 1.0), "unknown A catalog entry 'bogus'"),
        (("constant", 1.0), ("constant", 1.0), "unknown A catalog entry 'constant'"),
        (("zero",), ("zero",), "unknown rhs catalog entry 'zero'"),
        (("zero",), ("conformal", 1.0), "unknown rhs catalog entry 'conformal'"),
        ((), ("constant", 1.0), "unknown A catalog entry None"),
        (("conformal",), ("constant", 1.0), "A catalog entry 'conformal' takes"),
        (("zero", 1.0), ("constant", 1.0), "A catalog entry 'zero' takes"),
        (("zero",), ("constant",), "rhs catalog entry 'constant' takes"),
        (("zero",), ("paper_example",), "rhs catalog entry 'paper_example' takes"),
        (("zero",), ("paper_example", 0.3, 0.5, 1.0), "entry 'paper_example' takes"),
    ])
    def test_spec_rejects_an_entry_outside_its_table(self, A_field, rhs, message):
        # a kind from neither table or the other side's, or the wrong
        # number of parameters, is rejected when the spec is made
        with pytest.raises(InputError, match=message):
            EquationSpec(p=2, A_field=A_field, rhs=rhs)

    @pytest.mark.parametrize("side, kind", [
        (side, kind) for side, table in CATALOG.items() for kind in table
    ])
    def test_every_catalog_kind_evaluates(self, side, kind):
        # a table row without its branch in _coefficient_A or _rhs_phi
        # fails here
        grid = TorusGrid((8, 8))
        x1, x2 = grid.meshgrid()
        u = -0.5 + 0.05 * np.cos(x1) * np.cos(x2)
        stored = {"A": np.broadcast_to(np.eye(2), (8, 8, 2, 2)), "rhs": np.ones((8, 8))}
        sample = {"value": 1.0, "param": 0.1, "t_coeff": 0.5, "values": stored[side]}
        entry = (kind, *(sample[key] for key in CATALOG[side][kind]))
        spec = EquationSpec(p=2, **{"A_field" if side == "A" else "rhs": entry})
        evaluate = _coefficient_A if side == "A" else _rhs_phi
        value = evaluate(spec, u, periodic_grad(u, grid.h))[0]
        # A: None when zero, the factor c of A = c I when diagonal
        shape = {"zero": None, "conformal": (), "paper_example": grid.sizes,
                 "stored": grid.sizes + (2, 2)}[kind] if side == "A" else grid.sizes
        if shape is None:
            assert value is None
        else:
            assert np.shape(value) == shape
            assert np.all(np.isfinite(value))

    @pytest.mark.parametrize("blob, named", [
        ({"A": {"kind": "zero"}}, "lacks the key 'p'"),
        ({"p": "two"}, "'p'"),
        ({"p": 2, "A": {"kind": "conformal", "value": None}}, "'value'"),
        ({"p": 2, "A": []}, "'kind'"),
        ({"p": 2, "A": {"kind": "paper_example", "param": "x"}}, "'param'"),
        ({"p": 2, "A": {"kind": "zero"},
          "rhs": {"kind": "paper_example", "param": 1, "t_coeff": [1]}}, "'t_coeff'"),
        ({"p": 2, "A": {"kind": "stored", "values": [[1], [1, 2]]}}, "'values'"),
        ({"p": 2, "A": {"kind": "bogus"}}, "'bogus'"),
        ([2], "'p'"),
        ('{"p": 2,', "problem.json"),  # not JSON
        # p a JSON integer, value and t_coeff JSON numbers: no truncation,
        # no bool, no string
        ({"p": 2.9}, "'p'"),
        ({"p": True}, "'p'"),
        ({"p": "2"}, "'p'"),
        ({"p": 2, "A": {"kind": "conformal", "value": "1.5"}}, "'value'"),
        ({"p": 2, "A": {"kind": "conformal", "value": True}}, "'value'"),
        ({"p": 2, "A": {"kind": "zero"},
          "rhs": {"kind": "paper_example", "param": 1, "t_coeff": "0.5"}}, "'t_coeff'"),
        ({"p": 2, "A": {"kind": "zero"},
          "rhs": {"kind": "paper_example", "param": 1, "t_coeff": False}}, "'t_coeff'"),
        ({"p": 2, "A": {"kind": ["zero"]}}, "'kind'"),
        # each side's kinds only on that side
        ({"p": 2, "A": {"kind": "zero"}, "rhs": {"kind": "zero"}},
         "unknown rhs catalog entry 'zero'"),
        ({"p": 2, "A": {"kind": "constant", "value": 1.0}},
         "unknown A catalog entry 'constant'"),
        # every key known: at the top level and in each entry
        ({"p": 2, "A": {"kind": "zero"}, "rhs": {"kind": "constant", "value": 1},
          "t_coeff": 0.5}, "unknown key 't_coeff'"),
        ({"p": 2, "A": {"kind": "zero"},
          "rhs": {"kind": "paper_example", "param": 1, "t_coef": 0.5}},
         "'rhs' entry has an unknown key 't_coef'"),
        ({"p": 2, "A": {"kind": "zero", "value": 1.0}},
         "'A' entry has an unknown key 'value'"),
        ({"p": 2, "A": {"kind": "paper_example", "param": 0.1, "t_coeff": 0.5}},
         "'A' entry has an unknown key 't_coeff'"),
        # param and values JSON numbers or nested lists of them
        ({"p": 2, "A": {"kind": "paper_example", "param": "0.3"}}, "'param'"),
        ({"p": 2, "A": {"kind": "paper_example", "param": True}}, "'param'"),
        ({"p": 2, "A": {"kind": "zero"},
          "rhs": {"kind": "stored", "values": [[1.0, 2.0], [1.0, "2"]]}}, "'values'"),
        ({"p": 2, "A": {"kind": "zero"},
          "rhs": {"kind": "stored", "values": [[1.0, False]]}}, "'values'"),
        ({"p": 2, "A": {"kind": "zero"},
          "rhs": {"kind": "stored", "values": [[1.0, None]]}}, "'values'"),
    ])
    def test_problem_json_rejection_names_the_key(self, tmp_path, blob, named):
        path = tmp_path / "problem.json"
        path.write_text(blob if isinstance(blob, str) else json.dumps(blob))
        with pytest.raises(InputError) as exc:
            load_problem_json(str(path))
        assert named in str(exc.value)

    @pytest.mark.parametrize("load", [load_problem_json, load_grid_csv])
    def test_loaders_name_a_path_they_cannot_read(self, tmp_path, load):
        for path in (tmp_path / "absent", tmp_path):
            with pytest.raises(InputError) as exc:
                load(str(path))
            assert str(exc.value).startswith(f"{path}: ")

    def _write(self, td, text):
        path = os.path.join(td, "bad.csv")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def test_grid_csv_rejects_spacing_mismatch(self):
        values = "\n".join(["0.0"] * 128) + "\n"
        with tempfile.TemporaryDirectory() as td:
            path = self._write(td, "2,8,16,0.5,0.5\n" + values)
            with pytest.raises(ValueError, match="period"):
                load_grid_csv(path)

    def test_grid_csv_rejects_short_file(self):
        values = "\n".join(["0.0"] * 63) + "\n"
        with tempfile.TemporaryDirectory() as td:
            path = self._write(td, "2,8,8,0.5,0.5\n" + values)
            with pytest.raises(ValueError, match="expected 64 values"):
                load_grid_csv(path)

    def test_grid_csv_rejects_non_numeric_row(self):
        rows = ["0.0"] * 64
        rows[10] = "abc"
        with tempfile.TemporaryDirectory() as td:
            path = self._write(td, "2,8,8,0.5,0.5\n" + "\n".join(rows) + "\n")
            with pytest.raises(ValueError, match="abc"):
                load_grid_csv(path)

    def test_grid_csv_rejects_bad_header(self):
        values = "\n".join(["0.0"] * 64) + "\n"
        with tempfile.TemporaryDirectory() as td:
            path = self._write(td, "2,8,8,0.5\n" + values)
            with pytest.raises(ValueError, match="header"):
                load_grid_csv(path)
