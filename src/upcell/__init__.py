"""Uplink performance of Poisson cellular networks under truncated
channel-inversion power control: analytic metrics, a faithful Monte Carlo
simulator, and cutoff-threshold optimization."""

__version__ = "0.2.0"

from .model import (
    ConfigError,
    MetricsReport,
    NetworkConfig,
    TierConfig,
    dbm_to_watts,
    network_from_mapping,
    validate,
    watts_to_dbm,
)
from .specfun import (
    QuadratureError,
    lower_incomplete_gamma,
    tail_interference_integral,
)
from .analytic import (
    TxPowerDistribution,
    full_report,
    sinr_outage,
    spectral_efficiency,
    truncation_outage,
)
from .montecarlo import (
    EstimateWithCI,
    Realization,
    SaturationError,
    SimulationReport,
    build_realization,
    estimate_metrics,
    realization_rng,
    sample_ppp,
    wilson_interval,
)
from .optimize import SweepResult, refine_optimum, sweep

__all__ = [
    "__version__",
    "ConfigError",
    "MetricsReport",
    "NetworkConfig",
    "TierConfig",
    "dbm_to_watts",
    "watts_to_dbm",
    "network_from_mapping",
    "validate",
    "QuadratureError",
    "lower_incomplete_gamma",
    "tail_interference_integral",
    "TxPowerDistribution",
    "truncation_outage",
    "sinr_outage",
    "spectral_efficiency",
    "full_report",
    "SaturationError",
    "Realization",
    "EstimateWithCI",
    "SimulationReport",
    "sample_ppp",
    "build_realization",
    "estimate_metrics",
    "realization_rng",
    "wilson_interval",
    "SweepResult",
    "sweep",
    "refine_optimum",
]
