"""Application studies: Gaussian sums, queue overflow, Brownian paths."""

from .brownian import (
    BrownianModel,
    FigureRow,
    bm_bound_curves,
    bm_exceedance_drift,
    bm_exceedance_nominal,
    laplace_h_bounds,
    laplace_h_drift,
    laplace_h_wiener,
)
from .gaussian_study import gaussian_rs_sides, tightness_witness
from .queueing import (
    QueueModel,
    RateResult,
    overflow_decay_rate,
    poisson_rate_ell,
    scaled_event_sandwich,
)

__all__ = [
    "BrownianModel",
    "FigureRow",
    "bm_bound_curves",
    "bm_exceedance_drift",
    "bm_exceedance_nominal",
    "laplace_h_bounds",
    "laplace_h_drift",
    "laplace_h_wiener",
    "gaussian_rs_sides",
    "tightness_witness",
    "QueueModel",
    "RateResult",
    "overflow_decay_rate",
    "poisson_rate_ell",
    "scaled_event_sandwich",
]
