"""Stochastic logistic map toolkit: reproducible simulation of the
logistic map with a randomly drawn growth rate, Monte-Carlo
approximation of its invariant distribution, and numerical comparison
of stochastic and deterministic long-term averages."""

from .analytic import (
    LAMBDA_C2,
    LAMBDA_C2_OMEGA,
    LAMBDA_C3,
    LAMBDA_C4,
    LAMBDA_C4_END,
    Period2Pair,
    Regime,
    SupportIntervals,
    check_ordering,
    classify_regime,
    convexity_on_interval,
    detect_period,
    fixed_point,
    h_function_roots,
    h_second_derivative,
    period2_points,
    periodic_orbit,
    support_intervals,
)
from .experiments import (
    BifurcationDataset,
    ComparisonReport,
    FlipFlopReport,
    LemmaSuiteReport,
    deterministic_bifurcation,
    distribution_evolution,
    flipflop_scan,
    lemma_suite,
    mean_comparison,
    stochastic_bifurcation,
)
from .maps import ParameterDistribution
from .measure import (
    DEFAULT_SEED,
    Ensemble,
    Histogram,
    MonteCarloConfig,
    pf_iterate,
    pf_step,
    stationary_stats,
    uniform_ensemble,
    variance_of_right_peak,
)

__version__ = "0.1.0"
