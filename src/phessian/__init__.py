"""Numerical toolkit for p-Hessian equations on flat periodic grids.

The package is organized around the objects that show up in the analysis of
sigma_p-type fully nonlinear equations:

* symfun   -- elementary symmetric polynomials, truncated minors, identities
* cone     -- Garding cone membership, projection, inequality families
* spectral -- eigenvalue pencils, principal-minor sigmas, derivative formulas
* concavity-- quadratic-form concavity inequalities and threshold search
* subsolution -- explicit exponential-bump subsolutions and the key lemma
* solver   -- periodic finite-difference embodiment of the equation with a
  damped Newton iteration, diagnostic monitors, the pseudo-solution checks,
  and the contact-set lower bound for the Monge-Ampere mass
* cli      -- batch front end with reproducible seeded reports
"""

from .symfun import sigma, sigma_trunc, identity_residuals
from .cone import ConeSpec, ConeVerdict, classify, cone_distance
from .errors import (
    AdmissibilityError,
    ConstructionError,
    DegenerateSpectrumError,
    NonconvergenceError,
    SearchFailureError,
)

__version__ = "0.1.0"

__all__ = [
    "sigma",
    "sigma_trunc",
    "identity_residuals",
    "ConeSpec",
    "ConeVerdict",
    "classify",
    "cone_distance",
    "AdmissibilityError",
    "ConstructionError",
    "DegenerateSpectrumError",
    "NonconvergenceError",
    "SearchFailureError",
]
