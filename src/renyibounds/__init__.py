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
    tightest_event_upper,
)
from .divergences import (
    DivergenceBudget,
    GaussianParams,
    PoissonParams,
    kl_discrete,
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
    expectation,
    logsumexp,
    normalize,
    risk_sensitive,
)
from .montecarlo import EstimateWithCI, PathGrid, PoissonLaw
from .specfun import (
    Bracket,
    ConvergenceError,
    erfc,
    log_bessel_i0,
    log_bessel_i0e,
    minimize_scalar,
)
from .variational import (
    IdentityReport,
    alpha_zero_limit_check,
    inf_identity,
    kl_limit_identities,
    sup_identity,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Bracket",
    "ConvergenceError",
    "erfc",
    "log_bessel_i0",
    "log_bessel_i0e",
    "minimize_scalar",
    "BoundedFunction",
    "FiniteMeasure",
    "OrderParams",
    "exp_tilt",
    "expectation",
    "logsumexp",
    "normalize",
    "risk_sensitive",
    "DivergenceBudget",
    "GaussianParams",
    "PoissonParams",
    "kl_discrete",
    "renyi_bm_drift",
    "renyi_discrete",
    "renyi_gaussian",
    "renyi_poisson",
    "IdentityReport",
    "alpha_zero_limit_check",
    "inf_identity",
    "kl_limit_identities",
    "sup_identity",
    "BoundResult",
    "event_bounds",
    "rs_lower",
    "rs_upper",
    "tightest_event_upper",
    "EstimateWithCI",
    "PathGrid",
    "PoissonLaw",
]
