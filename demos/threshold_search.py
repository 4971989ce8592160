"""Concavity inequality in the large-|mu_1| regime and the eigenvalue
threshold search for the theorem-mode inequality.

Run with:  python3 demos/threshold_search.py
"""

import numpy as np

from phessian.concavity import (
    ConcavityInstance,
    evaluate,
    find_threshold,
    hypothesis_check,
)

# A hand instance satisfying the large-mu_1 hypothesis.  lhs - rhs is a
# Hermitian form w* Q w, so one eigenvalue decides the inequality for every
# w: the smallest of Q scaled to unit diagonal, the worst residual per unit
# of sum_j |Q_jj| |w_j|^2.
inst = ConcavityInstance(
    mu=[-1.0, 1.3, 5.0], tau=0.0, eps=1.0, mode="large_mu1", a=2.0,
)
print("hypothesis satisfied:", hypothesis_check(inst))
lam, bound = evaluate(inst)
print(f"worst residual over every w = {lam:.6f} (rounding bound {bound:.1e})")

# Theorem mode needs the top eigenvalue above a threshold M; bisect for
# the smallest M at which no sampled mu violates it.
out = find_threshold(3, 2, tau=0.5, eps=1.0, sigma_band=(0.5, 2.0),
                     trials=2000, seed=42)
print(f"\nempirical threshold M_hat = {out.M_hat:.6f}")
print(f"worst residual at M_hat over {out.trials} trials: "
      f"{out.worst_residual:.3e}")

# A point just above the threshold, for every w at once.
mu = np.array([0.5, 1.0, out.M_hat + 1.0])
lam, bound = evaluate(ConcavityInstance(mu=mu, tau=0.5, eps=1.0, mode="theorem"))
print(f"worst residual just above M_hat: {lam:.3e} (rounding bound {bound:.1e})")
