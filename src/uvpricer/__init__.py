"""Worst-case option pricing under an uncertain volatility multiplier
modulated by a slow exponential factor."""

from .analytic import bs_call, fixed_vol_price
from .bsde import (
    BsdeResidualReport,
    DriverSpec,
    MartingaleReport,
    driver_consistency,
    martingale_check,
    simulate_2bsde_residual,
)
from .config import RunConfig
from .convergence import (
    ConvergenceReport,
    CorrectorReport,
    FeynmanKacReport,
    corrector_sweep,
    feynman_kac_terms,
    fit_loglog,
    run_delta_sweep,
)
from .errors import (
    ConfigError,
    FitError,
    NonFiniteError,
    PoleError,
    StabilityError,
)
from .hjb import min_time_steps, solve_bsb_1d, solve_corrector, solve_hjb_2d
from .model import GridSpec, ModelParams, PiecewiseLinearPayoff
from .sde import (
    CoupledGap,
    MomentReport,
    PathBatch,
    coupled_payoff_gap,
    estimate_moment,
    mgf_closed_form,
    mgf_components,
    simulate_paths,
)
from .surface import (
    GreekFields,
    PriceSurface,
    WorstCaseControl,
    greeks,
    mismatch_set,
    optimal_control_field,
)

__version__ = "0.1.0"

__all__ = [
    "BsdeResidualReport",
    "ConfigError",
    "ConvergenceReport",
    "CorrectorReport",
    "CoupledGap",
    "DriverSpec",
    "FeynmanKacReport",
    "FitError",
    "GreekFields",
    "GridSpec",
    "MartingaleReport",
    "ModelParams",
    "MomentReport",
    "NonFiniteError",
    "PathBatch",
    "PiecewiseLinearPayoff",
    "PoleError",
    "PriceSurface",
    "RunConfig",
    "StabilityError",
    "WorstCaseControl",
    "__version__",
    "bs_call",
    "corrector_sweep",
    "coupled_payoff_gap",
    "driver_consistency",
    "estimate_moment",
    "feynman_kac_terms",
    "fit_loglog",
    "fixed_vol_price",
    "greeks",
    "martingale_check",
    "mgf_closed_form",
    "mgf_components",
    "min_time_steps",
    "mismatch_set",
    "optimal_control_field",
    "run_delta_sweep",
    "simulate_2bsde_residual",
    "simulate_paths",
    "solve_bsb_1d",
    "solve_corrector",
    "solve_hjb_2d",
]
