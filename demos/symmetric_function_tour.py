"""Tour of the sigma_p machinery: identities, cone membership, inequalities.

Run with:  python3 demos/symmetric_function_tour.py
"""

import numpy as np

from phessian.cone import ConeSpec, classify, cone_distance, maclaurin_report
from phessian.symfun import identity_residuals, sigma, sigma_trunc

mu = np.array([0.5, 1.0, 2.0, 4.0])
n, p = 4, 2

print(f"mu = {mu}")
print(f"sigma_{p}(mu) = {sigma(p, mu):.6f}")
print(f"sigma_{p}(mu | 1) = {sigma_trunc(p, mu, [1]):.6f}  (first entry removed)")

# The identity family should vanish to roundoff at any real vector: each
# residual stays below its rounding bound.
res, bound = identity_residuals(p, mu)
worst = max(res[k] / bound[k] for k in res)
print(f"\n{len(res)} identities evaluated, worst residual/bound {worst:.2e}")

# Cone membership: mu above is admissible; flipping a sign pushes it out.
spec = ConeSpec(n, p)
print(f"\nclassify(mu)            -> {classify(mu, spec).region}")
bad = mu.copy()
bad[0] = -4.0
print(f"classify(mu with -4.0)  -> {classify(bad, spec).region}")
print(f"cone_distance of the bad vector = {cone_distance(bad, spec):.4f}"
      "  (smallest diagonal shift that re-enters the cone)")

# Newton-Maclaurin quotient family: every slack is nonnegative inside.
rep, bound = maclaurin_report(mu, spec)
print(f"\nMaclaurin family: {len(rep)} inequalities, "
      f"min slack {min(rep.values()):.3e}, "
      f"all above their rounding bound: {all(rep[k] > bound[k] for k in rep)}")
