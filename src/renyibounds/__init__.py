"""Order-alpha divergences, variational identities, and robust bounds.

The library computes divergences with the 1/(alpha (alpha - 1))
normalization on finite, Gaussian, and Poisson models, certifies the
exponential-integral variational identities on finite supports, and
turns divergence budgets into two-sided bounds on risk-sensitive
values and rare-event probabilities. Application modules reproduce the
Gaussian, queue overflow, and Brownian path studies, and a Monte Carlo
module validates them with deterministic seeded simulation. The
``renyibounds`` command exposes each study as a subcommand.
"""

from .bounds import (
    BoundResult,
    event_bounds,
    rs_lower,
    rs_upper,
)
from .divergences import (
    DivergenceBudget,
    GaussianParams,
    PoissonParams,
    renyi_bm_drift,
    renyi_discrete,
    renyi_gaussian,
    renyi_poisson,
)
from .measures import (
    BoundedFunction,
    FiniteMeasure,
    OrderParams,
    exp_tilt,
    logsumexp,
    normalize,
    risk_sensitive,
)
from .montecarlo import EstimateWithCI, PathGrid, PoissonLaw
from .specfun import (
    ConvergenceError,
    erfc,
    log_bessel_i0,
    log_bessel_i0e,
)
from .variational import (
    IdentityReport,
    inf_identity,
    sup_identity,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConvergenceError",
    "erfc",
    "log_bessel_i0",
    "log_bessel_i0e",
    "BoundedFunction",
    "FiniteMeasure",
    "OrderParams",
    "exp_tilt",
    "logsumexp",
    "normalize",
    "risk_sensitive",
    "DivergenceBudget",
    "GaussianParams",
    "PoissonParams",
    "renyi_bm_drift",
    "renyi_discrete",
    "renyi_gaussian",
    "renyi_poisson",
    "IdentityReport",
    "inf_identity",
    "sup_identity",
    "BoundResult",
    "event_bounds",
    "rs_lower",
    "rs_upper",
    "EstimateWithCI",
    "PathGrid",
    "PoissonLaw",
]
