"""Tests for the periodic grid solver, monitors, and measure estimates."""

import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from phessian import solver
from phessian.errors import AdmissibilityError, NonconvergenceError
from phessian.solver import (
    AlexandrovProblem,
    AuxiliarySpec,
    EquationSpec,
    GridFn,
    PseudoCheckConfig,
    TorusGrid,
    _apply_jacobian,
    _fourier_preconditioner,
    admissible,
    alexandrov_check,
    auxiliary_field,
    box_grad_hess,
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
    unit_ball_volume,
)
from phessian.symfun import sigma


def smooth_bump(grid, rng, scale):
    """Low-frequency random field with zero mean and sup norm = scale."""
    x1, x2 = grid.meshgrid()
    f = np.zeros(grid.sizes)
    for k1 in range(3):
        for k2 in range(3):
            a, b = rng.normal(size=2)
            f += a * np.cos(k1 * x1 + k2 * x2) + b * np.sin(k1 * x1 + k2 * x2)
    f -= np.mean(f)
    return scale * f / np.max(np.abs(f))


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


class TestResidual:
    def test_constant_state_residual(self):
        grid = TorusGrid((16, 16))
        u = GridFn(grid, np.zeros(grid.sizes))
        c = 1.5
        target = float(sigma(2, [c, c]) ** 0.5)
        spec = EquationSpec(p=2, A_field=("conformal", c), rhs=("constant", target))
        res = residual_field(u, spec)
        assert np.max(np.abs(res.values)) < 1e-12

    def test_manufactured_residual_order(self):
        norms = []
        for size in (32, 64, 128):
            spec, grid, ustar = manufactured_problem(size, p=2)
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
        with pytest.raises(AdmissibilityError):
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
        spec, grid, ustar = manufactured_problem(32)
        ok, report = admissible(ustar, spec)
        assert ok and report is None


class TestNewton:
    def test_converges_from_smooth_perturbation(self):
        spec, grid, ustar = manufactured_problem(64, p=2)
        rng = np.random.default_rng(5)
        bump = smooth_bump(grid, rng, 0.05 * np.max(np.abs(ustar.values)))
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

    def test_restart_at_solution_takes_no_steps(self):
        spec, grid, ustar = manufactured_problem(32, p=2)
        rng = np.random.default_rng(6)
        u0 = GridFn(
            grid, ustar.values + smooth_bump(grid, rng, 0.05 * np.max(np.abs(ustar.values)))
        )
        sol, _ = newton_solve(spec, u0, tol=1e-9)
        _, trace = newton_solve(spec, sol, tol=1e-9)
        assert trace == []

    def test_constant_problem_takes_no_steps(self):
        grid = TorusGrid((16, 16))
        u0 = GridFn(grid, np.zeros(grid.sizes))
        target = float(sigma(2, [1.0, 1.0]) ** 0.5)
        spec = EquationSpec(p=2, A_field=("conformal", 1.0), rhs=("constant", target))
        sol, trace = newton_solve(spec, u0)
        assert trace == []
        assert np.max(np.abs(sol.values)) < 1e-12

    def test_max_iters_caps_trace(self):
        spec, grid, ustar = manufactured_problem(32, p=2)
        rng = np.random.default_rng(7)
        u0 = GridFn(
            grid, ustar.values + smooth_bump(grid, rng, 0.05 * np.max(np.abs(ustar.values)))
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
        spec, grid, _ = manufactured_problem(32, p=2)
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
        spec, grid, ustar = manufactured_problem(32, p=2)
        rng = np.random.default_rng(7)
        u0 = GridFn(
            grid, ustar.values + smooth_bump(grid, rng, 0.05 * np.max(np.abs(ustar.values)))
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
            spec, grid, ustar = manufactured_problem(size, p=2)
            rng = np.random.default_rng(8)
            bump = smooth_bump(grid, rng, 0.05 * np.max(np.abs(ustar.values)))
            _, trace = newton_solve(spec, GridFn(grid, ustar.values + bump), tol=1e-12)
            assert all(rec["backtracks"] == 0 for rec in trace)
            worst[size] = max(rec["krylov_iters"] for rec in trace)
        assert 0 < worst[256] <= min(2 * worst[64], 40)

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


class TestFourierPreconditioner:
    """The preconditioner inverts the stencil Jacobian exactly when F, G and
    H are constant; _apply_jacobian (plain np.roll stencils) is the oracle."""

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
        back = _apply_jacobian(x.reshape(sizes), F, G, H, grid.h)
        want = r - np.mean(r) if gauge else r
        assert np.max(np.abs(back - want)) <= 1e-10


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

        def recorded(matvec, psolve, v0, m, atol, outer_v):
            # each augmentation pair carries its preconditioned image
            for z, w in outer_v:
                assert np.max(np.abs(psolve(A @ z) - w)) <= 1e-12
            cycles.append((atol, len(outer_v)))
            return arnoldi(matvec, psolve, v0, m, atol, outer_v)

        monkeypatch.setattr(solver, "_arnoldi", recorded)
        x, info = solver.lgmres(
            lambda v: A @ v, b, M=lambda r: r / diag, rtol=1e-10, maxiter=1000,
            inner_m=inner_m,
        )
        assert info == 0
        assert np.linalg.norm(A @ x - b) <= 1.0001e-10 * np.linalg.norm(b)
        assert np.max(np.abs(x - np.linalg.solve(A, b))) <= 1e-9
        if inner_m == 2:
            # forced restarts: many cycles, the inner tolerance adapts, and
            # the three augmentation vectors are carried once available
            assert len(cycles) >= 10
            assert len({atol for atol, _ in cycles}) > 1
            assert [k for _, k in cycles[:5]] == [0, 1, 2, 3, 3]
        else:
            assert cycles == [(cycles[0][0], 0)]

    def test_zero_rhs_returns_zero(self):
        A, b, diag = self.system()

        def matvec(v):
            raise AssertionError("no matvec for b = 0")

        x, info = solver.lgmres(
            matvec, np.zeros_like(b), M=lambda r: r / diag, rtol=1e-10, maxiter=10
        )
        assert info == 0
        assert x.shape == b.shape and not np.any(x)

    def test_starved_solve_reports_maxiter(self):
        A, b, diag = self.system()
        for maxiter in (1, 3):
            x, info = solver.lgmres(
                lambda v: A @ v, b, M=lambda r: r / diag, rtol=1e-10,
                maxiter=maxiter, inner_m=1,
            )
            assert info == maxiter
            assert np.all(np.isfinite(x))
            assert np.linalg.norm(A @ x - b) > 1e-10 * np.linalg.norm(b)

    def test_zero_preconditioner_output_is_failure(self):
        A, b, _ = self.system()
        x, info = solver.lgmres(
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


class TestMonitors:
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
        spec, grid, ustar = manufactured_problem(64, p=2, amplitude=0.2)
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
        spec, grid, ustar = manufactured_problem(32)
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
        spec, grid, ustar = manufactured_problem(32, p=2)
        cfg = PseudoCheckConfig(delta1=0.1, M1=10.0, delta2=0.5, M2=1.0, ubar=ustar)
        rep = pseudo_check(ustar, cfg, spec)
        assert rep.sub_violations == 0
        assert rep.super_violations == 0
        # with u == ubar the supersolution side is sigma_n(delta2 * 1) = delta2^n
        assert rep.worst_super_slack == pytest.approx(1.0 - 0.5**2, abs=1e-12)
        assert rep.super_nodes == 32 * 32

    def test_gates_exclude_nodes(self):
        spec, grid, ustar = manufactured_problem(32, p=2)
        x1, _ = grid.meshgrid()
        ubar = GridFn(grid, ustar.values + 0.8 * np.cos(x1))
        cfg = PseudoCheckConfig(delta1=0.1, M1=50.0, delta2=0.2, M2=5.0, ubar=ubar)
        rep = pseudo_check(ustar, cfg, spec)
        assert 0 <= rep.super_nodes < 32 * 32

    def test_config_validation(self):
        spec, grid, ustar = manufactured_problem(32)
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


class TestCatalogDerivatives:
    """The analytic t/alpha derivatives of the catalog entries must match
    a directional finite difference of the full residual."""

    def check_jacobian(self, spec, u, seed):
        from phessian.solver import _apply_jacobian, _linearization_data

        grid = u.grid
        rng = np.random.default_rng(seed)
        s = smooth_bump(grid, rng, 1.0)
        _, F, G, H, _, _ = _linearization_data(u, spec)
        js = _apply_jacobian(s, F, G, H, grid.h)
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
        spec, grid, ustar = manufactured_problem(32)
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
        # smallest subnormal, a huge and a non-dyadic value
        grid = TorusGrid((8, 8))
        values = np.linspace(-1.0, 1.0, 64).reshape(grid.sizes)
        values.flat[:4] = [-0.0, 5e-324, 1e300, 0.1]
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
        )
        assert np.array_equal(back.values, values)
        assert np.signbit(back.values.flat[0])

    def test_problem_json_roundtrip(self):
        specs = [
            EquationSpec(p=1, A_field=("zero",), rhs=("constant", 2.0)),
            EquationSpec(p=2, A_field=("conformal", 1.5), rhs=("paper_example", 0.3, 0.5)),
            EquationSpec(p=2, A_field=("paper_example", 0.1), rhs=("constant", 0.2)),
        ]
        with tempfile.TemporaryDirectory() as td:
            for i, spec in enumerate(specs):
                path = os.path.join(td, f"p{i}.json")
                save_problem_json(path, spec)
                back = load_problem_json(path)
                assert back.p == spec.p
                assert back.A_field[0] == spec.A_field[0]
                assert back.rhs[0] == spec.rhs[0]

    def test_stored_rhs_roundtrip(self):
        spec, grid, ustar = manufactured_problem(16)
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "stored.json")
            save_problem_json(path, spec)
            back = load_problem_json(path)
        assert np.allclose(np.asarray(back.rhs[1]), np.asarray(spec.rhs[1]))
        res = residual_field(ustar, back)
        assert np.max(np.abs(res.values)) < 1e-2

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
