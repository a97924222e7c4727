"""Secret-key rates and security thresholds for one-way and two-way
continuous-variable protocols under collective Gaussian attacks."""

from .attacks import AttackParams, excess_noise, w_from_excess
from .gaussian import g_entropy, symplectic_eigenvalues, von_neumann_entropy
from .key_rates import (DIVERGENT_RR, NumericalFailure, Protocol, RATE_DIVERGENT,
                        RateResult, Reconciliation, asymptotic_rate, exact_rate)
from .simulator import SimConfig, SimRun, empirical_mi, simulate
from .thresholds import (Grid, SuperadditivityReport, ThresholdCurve, crossover,
                         solve_threshold, superadditivity_report, sweep_curve,
                         sweep_curves)
from .tomography import (CorrelatedAttackParams, GaussianChannel, ReducibilityVerdict,
                         TomographyDataset, check_reducibility, compose,
                         correlated_two_mode_channels, estimate_channel,
                         simulate_probe_dataset)

__version__ = "0.1.0"

__all__ = [
    "AttackParams", "CorrelatedAttackParams",
    "DIVERGENT_RR", "GaussianChannel", "Grid", "NumericalFailure", "Protocol",
    "RATE_DIVERGENT", "RateResult", "Reconciliation", "ReducibilityVerdict",
    "SimConfig", "SimRun", "SuperadditivityReport", "ThresholdCurve",
    "TomographyDataset", "asymptotic_rate", "check_reducibility", "compose",
    "correlated_two_mode_channels", "crossover", "empirical_mi",
    "estimate_channel", "exact_rate", "excess_noise", "g_entropy", "simulate",
    "simulate_probe_dataset", "solve_threshold", "superadditivity_report",
    "sweep_curve", "sweep_curves", "symplectic_eigenvalues", "von_neumann_entropy",
    "w_from_excess",
]
