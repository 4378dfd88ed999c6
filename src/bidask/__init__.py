"""Bid/ask pricing of European claims under drift and volatility uncertainty.

The package prices the two sides of a claim when the drift and volatility
of the underlying are only known to lie in intervals, via nonlinear
finite-difference PDEs cross-checked by scenario Monte Carlo; simulates
the corresponding driving noise (ordinary and fractional); and builds
shadow price systems staying within a relative band of rough realised
price paths.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConsistencyError,
    DomainExitError,
    NumericalFailure,
    SingularControlError,
)
from .sublinear import (
    ScalarFunctionSpec,
    UncertaintyBand,
    g_drift_vol,
    g_normal_expectation,
    g_vol,
    maximal_expectation,
)
from .pde import (
    GridSpec,
    PriceSurface,
    PricingProblem,
    black_scholes_closed_form,
    solve_bsb_ask,
    solve_bsb_bid,
    solve_bsb_pair,
    solve_g_heat,
    write_surface_file,
)
from .paths import (
    BangBangRule,
    ControlProcess,
    ConvergenceReport,
    HedgeReport,
    HolderEstimate,
    McEstimate,
    SampledPath,
    bang_bang_control_from_surface,
    default_control_family,
    deflator_path,
    estimate_tube_capacity,
    hedge_verify,
    holder_exponent,
    mc_ask_bid,
    read_ensemble_file,
    read_path_file,
    riemann_stieltjes,
    simulate_asset_paths,
    simulate_gbm_increments,
    write_ensemble_file,
    write_path_file,
)
from .fgbm import (
    FgbmSpec,
    fgbm_conditional_mean,
    fgbm_covariance,
    moving_avg_constant,
    simulate_fgbm,
    simulate_fgbm_asset,
    volterra_kernel,
)
from .cps import (
    ConsistentPriceSystem,
    CpsPriceResult,
    CpsQuote,
    DeltaStats,
    build_shadow_path,
    cps_price,
    delta_processes,
    extract_stopping_times,
    retirement_walk,
)
from .cli import Report, RunConfig, emit_config, parse_config, run
