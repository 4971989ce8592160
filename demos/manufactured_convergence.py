"""Manufactured-solution study: discrete residual order and damped Newton
convergence on the periodic grid.

Run with:  python3 demos/manufactured_convergence.py
"""

import numpy as np

from phessian.solver import (
    GridFn,
    manufactured_problem,
    monitors,
    newton_solve,
    residual_field,
    smooth_perturbation,
)


def residual_norm_at_exact(sizes, p):
    spec, _, ustar = manufactured_problem(sizes, p=p)
    return np.max(np.abs(residual_field(ustar, spec).values))


print("residual of the exact solution under grid refinement:")
prev = None
for size in (32, 64, 128):
    r = residual_norm_at_exact((size, size), 2)
    order = "" if prev is None else f"   order {np.log2(prev / r):.2f}"
    print(f"  {size:4d}^2   max|residual| = {r:.3e}{order}")
    prev = r

# the same oracle in 3-D with p = 3, u* = a cos x1 cos x2 cos x3
coarse, fine = (residual_norm_at_exact((size,) * 3, 3) for size in (16, 32))
print(f"  {32:4d}^3   max|residual| = {fine:.3e}   order {np.log2(coarse / fine):.2f}"
      "   (p = 3, from 16^3)")

# Perturb the exact solution by a smooth 5% bump and let Newton recover it.
spec, grid, ustar = manufactured_problem((64, 64), p=2)
rng = np.random.default_rng(5)
bump = smooth_perturbation(grid, rng, 0.05 * np.max(np.abs(ustar.values)))

sol, trace = newton_solve(spec, GridFn(grid, ustar.values + bump), tol=1e-9)
print("\nNewton iterations:")
for rec in trace:
    print(f"  it {rec['iter']}  step {rec['step']:.3f}  "
          f"projected residual {rec['residual']:.3e}")

diff = sol.values - (ustar.values - np.mean(ustar.values))
print(f"\nerror vs the exact solution: {np.max(np.abs(diff)):.3e} (= O(h^2))")

rep = monitors(sol, spec)
print(f"monitors: osc(u) = {rep.osc_u:.4f}, max|Du| = {rep.max_grad:.4f}, "
      f"lambda range [{rep.min_lambda_1:.4f}, {rep.max_lambda_n:.4f}]")
